//! Per-round structured trace capture, replay, and differential
//! debugging for the radio engine — the observability layer ROADMAP
//! item 5 called for.
//!
//! Everything the Berenbrink–Cooper–Hu analysis reasons about is
//! *per-round* structure: who transmitted in round `t`, who heard a
//! collision, when the informed set stopped growing. Aggregate sweep
//! JSON throws that structure away, so debugging a divergence at
//! `n = 2²⁰` used to be println archaeology. This crate records the
//! structure instead:
//!
//! * [`TraceEvent`] — the event model: one `RoundStart`, then the
//!   round's decide outcomes ([`TraceEvent::Transmit`],
//!   [`TraceEvent::Sleep`], [`TraceEvent::Depleted`]) and channel
//!   outcomes ([`TraceEvent::Collision`], [`TraceEvent::Deliver`] with
//!   its wake flag), then one `RoundEnd` carrying the round's
//!   aggregates. Silent polls are *not* recorded — they are the
//!   overwhelmingly common outcome and carry no information the
//!   `RoundEnd` aggregates don't.
//! * [`TraceSink`] — the monomorphized engine hook (the pattern the
//!   energy hook proved): [`NullSink`] compiles every emission site
//!   out of the plain path, [`RecordingSink`] streams the binary
//!   format, [`RingSink`] retains the last *k* rounds in memory, and
//!   an `Option` of a sink records when `Some` and runs the plain path
//!   when `None`.
//! * [`Recording`] — the compact length-prefixed binary format
//!   (`.rtrc`), with a self-describing [`RunHeader`] (seed, engine,
//!   config, topology spec, code version) designed as the provenance
//!   record for the future campaign runner.
//! * [`ReplayVerifier`] — re-drive a recorded run through the engine
//!   and check every event bit-for-bit; the first mismatch becomes a
//!   [`Divergence`] with round, node, and event context. A recording
//!   made by an engine that still woke every sleeping receiver diverges
//!   at the first delivery to a radio-off node (`Deliver` with
//!   `woke: false`).
//! * [`diff::first_divergence`] — align two recordings and report
//!   where they part ways (`trace diff` in the CLI).
//! * [`jsonl`] — a JSON-lines exporter for external timeline tooling,
//!   streamed through `radio_util::Json::write_compact_to` so a
//!   multi-GB trace never doubles peak RSS.
//!
//! The engine guarantees (and property tests enforce) that a sink
//! never touches protocol RNG or event order: a traced run's
//! `RunResult` is bit-identical to the untraced run, and all emission
//! happens on the serial side of the round loop, so recordings are
//! identical across thread counts by construction.

pub mod binary;
pub mod diff;
pub mod event;
pub mod jsonl;
pub mod replay;
pub mod sink;

pub use binary::{Recording, RoundEvents, RunFooter};
pub use diff::{first_divergence, header_diff, EventDivergence};
pub use event::{RunHeader, TraceEvent};
pub use replay::{Divergence, ReplayVerifier};
pub use sink::{NullSink, RecordingSink, RingSink, TraceSink};
