//! Flooding baselines — the motivation for everything else.
//!
//! * **Naive flooding** (`q = 1`): every informed node transmits every
//!   round. In a wired network this is optimal; in the radio model it
//!   livelocks the moment two informed nodes share an uninformed
//!   neighbour — the `collision_storm` example demonstrates it on
//!   `G(n,p)`.
//! * **Probabilistic flooding** (`q < 1`, never retiring): the simplest
//!   randomised repair. It eventually completes on most graphs but pays
//!   unbounded energy; the paper's algorithms are the disciplined version
//!   of this idea.

use super::windowed::{ProbSource, WindowedBroadcast, WindowedSpec};
use super::{run_v1, BroadcastOutcome};
use radio_graph::{DiGraph, NodeId};

/// Configuration for the flooding baselines.
#[derive(Debug, Clone, Copy)]
pub struct FloodConfig {
    /// Per-round transmit probability for informed nodes.
    pub prob: f64,
    /// Round cap (flooding has no schedule; the cap is the only stop).
    pub max_rounds: u64,
    /// Optional retirement: a node stops transmitting — and powers its
    /// radio down, under energy accounting — `window` rounds after being
    /// informed. `None` (the classic baseline) floods forever, paying
    /// idle-listening for the whole run; a finite window is the minimal
    /// energy-disciplined variant the paper's algorithms refine.
    pub window: Option<u64>,
    /// Stop the simulation at completion (the default, for time
    /// measurements) instead of running the full `max_rounds` horizon.
    /// Energy experiments set `false` to charge a fixed mission length.
    pub early_stop: bool,
}

impl FloodConfig {
    /// Deterministic flooding (`q = 1`).
    pub fn naive(max_rounds: u64) -> Self {
        Self::with_prob(1.0, max_rounds)
    }

    /// Probabilistic flooding with per-round probability `q`.
    pub fn with_prob(q: f64, max_rounds: u64) -> Self {
        assert!((0.0..=1.0).contains(&q));
        FloodConfig {
            prob: q,
            max_rounds,
            window: None,
            early_stop: true,
        }
    }

    /// Probabilistic flooding that retires (and sleeps) `window` rounds
    /// after a node is informed.
    pub fn retiring(q: f64, window: u64, max_rounds: u64) -> Self {
        FloodConfig {
            window: Some(window),
            ..Self::with_prob(q, max_rounds)
        }
    }

    /// The equivalent windowed-protocol spec.
    pub fn spec(&self) -> WindowedSpec {
        WindowedSpec {
            source: ProbSource::Fixed(self.prob),
            window: self.window,
            early_stop: self.early_stop,
        }
    }
}

/// Run flooding on `graph` from `source` (always early-stopping — the
/// only interesting measurements are completion and time).
pub fn run_flood_broadcast(
    graph: &DiGraph,
    source: NodeId,
    cfg: &FloodConfig,
    seed: u64,
) -> BroadcastOutcome {
    let mut protocol = WindowedBroadcast::new(graph.n(), source, cfg.spec());
    run_v1(graph, &mut protocol, cfg.max_rounds, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::generate::{gnp_undirected, path};
    use radio_util::derive_rng;

    #[test]
    fn naive_flooding_livelocks_on_dense_random_graphs() {
        // With d ≫ 1, after one round many informed nodes share every
        // uninformed neighbour: permanent collisions.
        let g = gnp_undirected(256, 0.1, &mut derive_rng(1, b"flood", 0));
        let out = run_flood_broadcast(&g, 0, &FloodConfig::naive(2000), 1);
        assert!(
            !out.all_informed,
            "naive flooding should stall on a dense G(n,p)"
        );
    }

    #[test]
    fn naive_flooding_works_on_a_path() {
        let g = path(30);
        let out = run_flood_broadcast(&g, 0, &FloodConfig::naive(100), 2);
        assert!(out.all_informed);
        assert_eq!(out.broadcast_time, Some(29));
    }

    #[test]
    fn probabilistic_flooding_recovers_where_naive_stalls() {
        let g = gnp_undirected(256, 0.1, &mut derive_rng(1, b"flood", 0));
        let out = run_flood_broadcast(&g, 0, &FloodConfig::with_prob(0.05, 20_000), 3);
        assert!(out.all_informed, "q = 0.05 should break the collisions");
    }

    #[test]
    fn probabilistic_flooding_pays_unbounded_energy_on_deep_networks() {
        // On a path, early-informed nodes keep transmitting for the whole
        // Θ(n/q) run — energy per node grows with network depth, the cost
        // the paper's windowed algorithms eliminate.
        let g = path(64);
        let out = run_flood_broadcast(&g, 0, &FloodConfig::with_prob(0.3, 20_000), 4);
        assert!(out.all_informed);
        assert!(
            out.max_msgs_per_node() > 10,
            "head-of-path node should have paid ≈ q·T ≫ 10 messages, got {}",
            out.max_msgs_per_node()
        );
    }

    #[test]
    #[should_panic]
    fn rejects_invalid_probability() {
        let _ = FloodConfig::with_prob(1.5, 10);
    }
}
