//! # `adhoc-radio` — energy-efficient randomised communication in unknown ad-hoc networks
//!
//! A full Rust implementation of
//!
//! > Petra Berenbrink, Colin Cooper, Zengjian Hu.
//! > *Energy efficient randomised communication in unknown AdHoc networks.*
//! > SPAA 2007 / Theoretical Computer Science 410 (2009) 2549–2561.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`graph`] — directed radio-network graphs and generators
//!   (`G(n,p)`, paths/grids/trees, the paper's lower-bound constructions,
//!   random geometric graphs).
//! * [`sim`] — the round-synchronous radio-model simulation engine with
//!   the paper's collision rule and full energy accounting.
//! * [`energy`] — the pluggable energy subsystem: duty-state models
//!   (`TxOnly` = the paper's transmissions-only measure, `LinearRadio`
//!   with listen/idle/sleep costs, `FadingRadio` channel randomness),
//!   finite per-node batteries with fail-stop depletion, and network
//!   lifetime accounting.
//! * [`core`] — the paper's algorithms (Algorithms 1–3), its `α`
//!   transmission distribution, the baselines it compares against
//!   (Elsässer–Gasieniec, Czumaj–Rytter, BGI Decay, flooding), and the
//!   lower-bound harnesses (Observation 4.3, Theorem 4.4).
//! * [`trace`] — per-round structured trace capture (`.rtrc`
//!   recordings), replay verification, and first-divergence diffing for
//!   differential debugging of engine runs.
//! * [`stats`] — the statistics used by the experiment harness.
//! * [`util`] — bit sets, deterministic RNG fan-out, text tables.
//!
//! ## Quickstart
//!
//! ```
//! use adhoc_radio::prelude::*;
//!
//! // A directed G(n, p) random network, as in the paper's Section 2
//! // (δ = 8 keeps p below the n^{-2/5} threshold, the regime with all
//! // three phases).
//! let n = 1024;
//! let p = 8.0 * (n as f64).ln() / n as f64;
//! let mut rng = derive_rng(42, b"doc", 0);
//! let g = gnp_directed(n, p, &mut rng);
//!
//! // Algorithm 1: every node transmits at most once.
//! let cfg = EeBroadcastConfig::for_gnp(n, p);
//! let outcome = run_ee_broadcast(&g, 0, &cfg, 42);
//! assert!(outcome.all_informed);
//! assert!(outcome.metrics.max_transmissions_per_node() <= 1);
//! ```

pub use radio_core as core;
pub use radio_energy as energy;
pub use radio_graph as graph;
pub use radio_sim as sim;
pub use radio_stats as stats;
pub use radio_trace as trace;
pub use radio_util as util;

/// Scale knob for the `examples/`: returns `default / s`, clamped to at
/// least `min`, where `s` is the `ADHOC_RADIO_EXAMPLE_SCALE` environment
/// variable (default 1, i.e. full size).
///
/// The examples double as integration smoke tests
/// (`tests/examples_smoke.rs` runs all eight with `s = 8` and a fixed
/// seed); this keeps the demo sizes honest for humans while letting the
/// test suite run them at toy sizes.
pub fn example_scale(default: usize, min: usize) -> usize {
    let scale = match std::env::var("ADHOC_RADIO_EXAMPLE_SCALE") {
        Err(std::env::VarError::NotPresent) => 1,
        Ok(v) => match v.parse::<usize>() {
            Ok(s) if s >= 1 => s,
            _ => {
                eprintln!(
                    "warning: ignoring invalid ADHOC_RADIO_EXAMPLE_SCALE={v:?} \
                     (expected an integer >= 1); running at full scale"
                );
                1
            }
        },
        Err(e) => {
            eprintln!("warning: ignoring unreadable ADHOC_RADIO_EXAMPLE_SCALE ({e})");
            1
        }
    };
    (default / scale).max(min)
}

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use radio_core::broadcast::cr::{run_cr_broadcast, CrBroadcastConfig};
    pub use radio_core::broadcast::decay::{run_decay_broadcast, DecayConfig};
    pub use radio_core::broadcast::ee_general::{run_general_broadcast, GeneralBroadcastConfig};
    pub use radio_core::broadcast::ee_random::{run_ee_broadcast, EeBroadcastConfig};
    pub use radio_core::broadcast::eg::{run_eg_broadcast, EgBroadcastConfig};
    pub use radio_core::broadcast::epoch::{run_epoch_broadcast, EpochBroadcastConfig};
    pub use radio_core::broadcast::flood::{run_flood_broadcast, FloodConfig};
    pub use radio_core::broadcast::BroadcastOutcome;
    pub use radio_core::gossip::dynamic::{
        run_dynamic_gossip, DynamicGossipConfig, RumorBirth, RumorCoverage,
    };
    pub use radio_core::gossip::{run_ee_gossip, EeGossipConfig, GossipOutcome};
    pub use radio_core::lower_bound::{
        obs43_bound, obs43_trial, thm44_bound, thm44_round_budget, thm44_trial, TimeInvariant,
    };
    pub use radio_core::params::{general_time_scale, lambda, GnpParams};
    pub use radio_core::seq::{AlphaKind, KDistribution, TransmitDistribution};
    pub use radio_energy::{
        Battery, Duty, EnergyMetrics, EnergyModel, EnergySession, FadingRadio, LinearRadio, TxOnly,
    };
    pub use radio_graph::generate::*;
    pub use radio_graph::{
        induced_subgraph, largest_scc, strongly_connected_components, DiGraph, GridIndex,
        ImplicitGnp, ImplicitGrid, NodeId, RangeQueryCost, Subgraph, Topology,
    };
    pub use radio_sim::{
        run_protocol_fused, run_protocol_fused_traced, CrashPlan, DecideStreams, EnergyRunResult,
        Engine, EngineConfig, Faulty, FusedDecide, Metrics, Protocol, Run, RunResult, Sweep,
        SweepCell, SweepReport, TracePlan, TrialEnergy, TrialResult,
    };
    pub use radio_stats::{mean, quantile, LinearFit, SummaryStats};
    pub use radio_trace::{
        first_divergence, header_diff, Divergence, EventDivergence, NullSink, Recording,
        RecordingSink, ReplayVerifier, RingSink, RunHeader, TraceEvent, TraceSink,
    };
    pub use radio_util::{derive_rng, BitSet, Json, SeedSequence, TextTable};
}
