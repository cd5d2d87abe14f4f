//! The Czumaj–Rytter known-diameter broadcasting baseline \[11\], as this
//! paper describes and compares against it (§4).
//!
//! Structurally identical to Algorithm 3 — shared random sequence, each
//! active node transmits with probability `2^{−I_r}` — but the sequence is
//! drawn from `α'` (no `1/(2 log n)` floor; see [`crate::seq`]) and, to
//! hit the same w.h.p. completeness, a node must stay active for
//! `Θ(log² n · log(n/D))` rounds instead of `Θ(log² n)` (the paper's §4
//! discussion: CR's per-round neighbour-inform probability can be a
//! `log(n/D)` factor smaller). With the paper's stop-after-the-window
//! transformation this yields `Θ(log² n)` expected transmissions per node
//! — a factor `log(n/D)` above Algorithm 3, which is exactly the gap the
//! E13 comparison table measures.

use super::windowed::{ProbSource, WindowedBroadcast, WindowedSpec};
use super::{run_v1, BroadcastOutcome};
use crate::params::lambda as lambda_of;
use crate::seq::{AlphaKind, KDistribution, SharedSequence};
use radio_graph::{DiGraph, NodeId};
use radio_util::ilog2_ceil;

/// Configuration for the CR baseline.
#[derive(Debug, Clone, Copy)]
pub struct CrBroadcastConfig {
    /// Number of nodes.
    pub n: usize,
    /// Known diameter `D`.
    pub diameter: u32,
    /// Window multiplier: active window = `⌈β log₂² n · λ⌉` rounds (the
    /// energy transformation the paper applies to \[11\]). Matches
    /// Algorithm 3's β so the comparison is apples-to-apples.
    pub beta: f64,
    /// Disable the stop transformation (original CR: active forever).
    pub no_stop: bool,
    /// Stop at completion vs. full schedule.
    pub early_stop: bool,
}

impl CrBroadcastConfig {
    /// Defaults mirroring [`super::ee_general::GeneralBroadcastConfig::new`].
    pub fn new(n: usize, diameter: u32) -> Self {
        CrBroadcastConfig {
            n,
            diameter,
            beta: 3.0,
            no_stop: false,
            early_stop: false,
        }
    }

    /// Same, stopping at completion.
    pub fn new_timed(n: usize, diameter: u32) -> Self {
        CrBroadcastConfig {
            early_stop: true,
            ..Self::new(n, diameter)
        }
    }

    /// `λ = max(1, log₂(n/D))`.
    pub fn lambda(&self) -> f64 {
        lambda_of(self.n, self.diameter).min(ilog2_ceil(self.n as u64) as f64)
    }

    /// Active window: `⌈β·log₂²n·λ⌉`, or `None` under [`Self::no_stop`].
    pub fn window(&self) -> Option<u64> {
        if self.no_stop {
            None
        } else {
            let l = (self.n as f64).log2();
            Some((self.beta * l * l * self.lambda()).ceil() as u64)
        }
    }

    /// Round budget (same shape as Algorithm 3's, scaled by the longer
    /// window).
    pub fn max_rounds(&self) -> u64 {
        let l = (self.n as f64).log2();
        let scale = self.diameter as f64 * self.lambda() + l * l;
        (8.0 * scale).ceil() as u64
            + self.window().unwrap_or(0)
            + (4.0 * l * l * self.lambda()) as u64
    }
}

/// Run the CR baseline on `graph` from `source`.
pub fn run_cr_broadcast(
    graph: &DiGraph,
    source: NodeId,
    cfg: &CrBroadcastConfig,
    seed: u64,
) -> BroadcastOutcome {
    assert_eq!(graph.n(), cfg.n, "config n must match the graph");
    let dist = KDistribution::of_kind(
        AlphaKind::CzumajRytter,
        ilog2_ceil(cfg.n as u64).max(1),
        cfg.lambda(),
    );
    let spec = WindowedSpec {
        source: ProbSource::Shared(SharedSequence::new(
            dist,
            radio_util::split_seed(seed, b"seq", 0),
        )),
        window: cfg.window(),
        early_stop: cfg.early_stop,
    };
    let mut protocol = WindowedBroadcast::new(graph.n(), source, spec);
    run_v1(graph, &mut protocol, cfg.max_rounds(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::analysis::diameter_from;
    use radio_graph::generate::{caterpillar, path};

    #[test]
    fn completes_on_path_and_caterpillar() {
        let g = path(64);
        let out = run_cr_broadcast(&g, 0, &CrBroadcastConfig::new_timed(64, 63), 0);
        assert!(out.all_informed);

        let cat = caterpillar(30, 7);
        let d = diameter_from(&cat, 0).expect("connected");
        let out = run_cr_broadcast(&cat, 0, &CrBroadcastConfig::new_timed(cat.n(), d), 1);
        assert!(out.all_informed);
    }

    #[test]
    fn window_is_lambda_times_longer_than_alg3() {
        let cr = CrBroadcastConfig::new(4096, 16);
        let alg3 = super::super::ee_general::GeneralBroadcastConfig::new(4096, 16);
        let ratio = cr.window().expect("stopped") as f64 / alg3.window() as f64;
        assert!(
            (ratio - cr.lambda()).abs() / cr.lambda() < 0.05,
            "window ratio {ratio} should be ≈ λ = {}",
            cr.lambda()
        );
    }

    #[test]
    fn no_stop_variant_keeps_nodes_active() {
        let cfg = CrBroadcastConfig {
            no_stop: true,
            ..CrBroadcastConfig::new(64, 63)
        };
        assert_eq!(cfg.window(), None);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = path(40);
        let cfg = CrBroadcastConfig::new_timed(40, 39);
        let a = run_cr_broadcast(&g, 0, &cfg, 5);
        let b = run_cr_broadcast(&g, 0, &cfg, 5);
        assert_eq!(a.broadcast_time, b.broadcast_time);
    }
}
