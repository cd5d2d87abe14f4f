//! **Algorithm 3** — energy-efficient broadcasting for arbitrary networks
//! with known diameter `D` (paper §4.1).
//!
//! Every node, once informed at round `t_u`, stays active for
//! `β log² n` rounds, and in each active round transmits with probability
//! `2^{−I_r}` where `⟨I_r⟩` is the *shared* random sequence drawn from the
//! paper's distribution `α` (see [`crate::seq`]).
//!
//! Theorem 4.1: broadcast completes in `O(D log(n/D) + log² n)` rounds
//! w.h.p., with an expected `O(log² n / log(n/D))` transmissions per node.
//! Theorem 4.2 generalises to any `λ ∈ [log(n/D), log n]`: time
//! `O(Dλ + log² n)`, `O(log² n / λ)` transmissions per node — the
//! time/energy trade-off, exposed here through
//! [`GeneralBroadcastConfig::lambda`].

use super::windowed::{ProbSource, WindowedBroadcast, WindowedSpec};
use super::{run_v1, BroadcastOutcome};
use crate::params::{general_time_scale, lambda as lambda_of};
use crate::seq::{AlphaKind, KDistribution, SharedSequence};
use radio_graph::{DiGraph, NodeId};
use radio_util::ilog2_ceil;

/// Configuration for Algorithm 3.
#[derive(Debug, Clone, Copy)]
pub struct GeneralBroadcastConfig {
    /// Number of nodes (known to every node in the paper's model).
    pub n: usize,
    /// Known network diameter `D`.
    pub diameter: u32,
    /// Trade-off parameter λ. `None` → the optimal-time choice
    /// `λ = log₂(n/D)` of Theorem 4.1; Theorem 4.2 allows anything in
    /// `[log(n/D), log n]`.
    pub lambda: Option<f64>,
    /// Active-window multiplier: window = `⌈β log₂² n⌉` rounds.
    pub beta: f64,
    /// Which distribution drives the shared sequence (Paper `α` for
    /// Algorithm 3; [`AlphaKind::CzumajRytter`] reproduces the baseline
    /// via [`super::cr`]).
    pub kind: AlphaKind,
    /// Use a *private* sequence per node instead of the shared one — the
    /// E14 ablation probing how much the common randomness matters.
    pub private_sequence: bool,
    /// Stop at completion (time measurement) vs. run the full schedule.
    pub early_stop: bool,
}

impl GeneralBroadcastConfig {
    /// Theorem 4.1 defaults for a network with `n` nodes and diameter `D`:
    /// `λ = log₂(n/D)`, `β = 3`, shared `α` sequence, full schedule.
    pub fn new(n: usize, diameter: u32) -> Self {
        GeneralBroadcastConfig {
            n,
            diameter,
            lambda: None,
            beta: 3.0,
            kind: AlphaKind::Paper,
            private_sequence: false,
            early_stop: false,
        }
    }

    /// Same, stopping at completion.
    pub fn new_timed(n: usize, diameter: u32) -> Self {
        GeneralBroadcastConfig {
            early_stop: true,
            ..Self::new(n, diameter)
        }
    }

    /// Override λ (Theorem 4.2 trade-off sweep).
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = Some(lambda);
        self
    }

    /// Effective λ: the override, else `max(1, log₂(n/D))`, capped at `L`.
    pub fn effective_lambda(&self) -> f64 {
        let l = ilog2_ceil(self.n as u64) as f64;
        self.lambda
            .unwrap_or_else(|| lambda_of(self.n, self.diameter))
            .clamp(1.0, l)
    }

    /// Active window `⌈β log₂² n⌉`.
    pub fn window(&self) -> u64 {
        let l = (self.n as f64).log2();
        (self.beta * l * l).ceil() as u64
    }

    /// Round budget: generous multiple of the Theorem 4.2 time scale
    /// `Dλ + log² n`, plus one window (stragglers informed near the end
    /// still get their full activity window under full-schedule runs).
    pub fn max_rounds(&self) -> u64 {
        let l = (self.n as f64).log2();
        let scale = self.diameter as f64 * self.effective_lambda() + l * l;
        (8.0 * scale).ceil() as u64
            + self.window()
            + general_time_scale(self.n, self.diameter) as u64
    }

    /// Build the transmit distribution this config implies.
    pub fn distribution(&self) -> KDistribution {
        KDistribution::of_kind(
            self.kind,
            ilog2_ceil(self.n as u64).max(1),
            self.effective_lambda(),
        )
    }
}

/// Run Algorithm 3 (or a configured variant) on `graph` from `source`.
pub fn run_general_broadcast(
    graph: &DiGraph,
    source: NodeId,
    cfg: &GeneralBroadcastConfig,
    seed: u64,
) -> BroadcastOutcome {
    assert_eq!(graph.n(), cfg.n, "config n must match the graph");
    let dist = cfg.distribution();
    let prob_source = if cfg.private_sequence {
        ProbSource::Private(dist)
    } else {
        ProbSource::Shared(SharedSequence::new(
            dist,
            radio_util::split_seed(seed, b"seq", 0),
        ))
    };
    let spec = WindowedSpec {
        source: prob_source,
        window: Some(cfg.window()),
        early_stop: cfg.early_stop,
    };
    let mut protocol = WindowedBroadcast::new(graph.n(), source, spec);
    run_v1(graph, &mut protocol, cfg.max_rounds(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::analysis::diameter_from;
    use radio_graph::generate::{caterpillar, grid2d, path};

    #[test]
    fn completes_on_a_path() {
        let g = path(64);
        let d = diameter_from(&g, 0).expect("connected");
        let cfg = GeneralBroadcastConfig::new_timed(64, d);
        for seed in 0..3 {
            let out = run_general_broadcast(&g, 0, &cfg, seed);
            assert!(out.all_informed, "seed {seed}");
        }
    }

    #[test]
    fn completes_on_grid_and_caterpillar() {
        let grid = grid2d(16, 16);
        let dg = diameter_from(&grid, 0).expect("connected");
        let out = run_general_broadcast(&grid, 0, &GeneralBroadcastConfig::new_timed(256, dg), 1);
        assert!(out.all_informed);

        let cat = caterpillar(40, 5);
        let dc = diameter_from(&cat, 0).expect("connected");
        let out =
            run_general_broadcast(&cat, 0, &GeneralBroadcastConfig::new_timed(cat.n(), dc), 2);
        assert!(out.all_informed);
    }

    #[test]
    fn energy_stays_near_log2_over_lambda() {
        // On a path of n nodes D = n−1, λ ≈ 1: expected msgs/node is
        // O(log² n). The point here is the *bound*, not tightness.
        let n = 128;
        let g = path(n);
        let cfg = GeneralBroadcastConfig::new(n, (n - 1) as u32);
        let out = run_general_broadcast(&g, 0, &cfg, 3);
        assert!(out.all_informed);
        let l = (n as f64).log2();
        let bound = cfg.beta * l * l / cfg.effective_lambda();
        assert!(
            out.mean_msgs_per_node() < bound,
            "mean msgs {} above window·E[q] budget {bound}",
            out.mean_msgs_per_node()
        );
    }

    #[test]
    fn larger_lambda_reduces_energy() {
        let n = 256;
        let g = path(n);
        let d = (n - 1) as u32;
        let mut low = 0.0;
        let mut high = 0.0;
        for seed in 0..5 {
            let cfg_low = GeneralBroadcastConfig::new(n, d).with_lambda(1.0);
            let cfg_high = GeneralBroadcastConfig::new(n, d).with_lambda(6.0);
            low += run_general_broadcast(&g, 0, &cfg_low, seed).mean_msgs_per_node();
            high += run_general_broadcast(&g, 0, &cfg_high, seed).mean_msgs_per_node();
        }
        assert!(
            high < low,
            "λ=6 energy {high} should be below λ=1 energy {low}"
        );
    }

    #[test]
    fn effective_lambda_clamps_into_valid_range() {
        let cfg = GeneralBroadcastConfig::new(1024, 1020); // log(n/D) ≈ 0
        assert!(cfg.effective_lambda() >= 1.0);
        let cfg = GeneralBroadcastConfig::new(1024, 2).with_lambda(99.0);
        assert!(cfg.effective_lambda() <= 10.0 + 1e-9);
    }

    #[test]
    fn private_sequence_still_completes_on_path() {
        // On a path every frontier has exactly one active predecessor, so
        // shared vs private sequences should both succeed (the difference
        // shows on star-like bottlenecks — exercised in the E14 ablation).
        let g = path(64);
        let mut cfg = GeneralBroadcastConfig::new_timed(64, 63);
        cfg.private_sequence = true;
        let out = run_general_broadcast(&g, 0, &cfg, 4);
        assert!(out.all_informed);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = path(32);
        let cfg = GeneralBroadcastConfig::new_timed(32, 31);
        let a = run_general_broadcast(&g, 0, &cfg, 9);
        let b = run_general_broadcast(&g, 0, &cfg, 9);
        assert_eq!(a.broadcast_time, b.broadcast_time);
        assert_eq!(a.metrics.per_node(), b.metrics.per_node());
    }
}
