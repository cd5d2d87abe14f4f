//! Benchmark and experiment harness for the `adhoc-radio` reproduction.
//!
//! Every table and figure of the paper maps to an experiment `E1..E18`
//! (the README's "Paper experiments" table is the index). The
//! [`experiments`] modules regenerate them; run
//!
//! ```sh
//! cargo run --release -p radio-bench --bin experiments -- all
//! cargo run --release -p radio-bench --bin experiments -- e7 e8
//! ```
//!
//! Each experiment prints a markdown report and writes the same content
//! to `results/<id>.md`, where it is committed; the `paper_fidelity`
//! test checks e1–e17 against those bytes.
//! Criterion micro-benchmarks of the substrate live under `benches/`.

pub mod bench_diff;
pub mod common;
pub mod experiments;

pub use common::{Ctx, Report};
