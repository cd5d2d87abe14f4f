//! The Bar-Yehuda–Goldreich–Itai **Decay** protocol \[3\] — the classic
//! randomised broadcast for totally unknown radio networks, used as the
//! "knows nothing, pays `Θ(D + log n)` messages per node" baseline.
//!
//! Time is divided into epochs of `E = ⌈log₂ n⌉ + 1` rounds. In round `j`
//! of an epoch every active node transmits with probability `2^{−j}`
//! (`j = 0, …, E−1`): whatever the number `m ≤ n` of active in-neighbours
//! a node has, the round with `2^{−j} ≈ 1/m` gives a constant
//! per-epoch reception probability. BGI broadcast completes in
//! `O((D + log n)·log n)` rounds w.h.p.; each active node sends
//! `Σ_j 2^{−j} < 2` expected messages per epoch, so a node active for the
//! whole run spends `Θ(D + log n)` messages — linear in `D`, versus
//! Algorithm 3's `O(log² n / log(n/D))`.

use super::windowed::{ProbSource, WindowedBroadcast, WindowedSpec};
use super::{run_v1, BroadcastOutcome};
use radio_graph::{DiGraph, NodeId};
use radio_util::ilog2_ceil;

/// Configuration for the Decay baseline.
#[derive(Debug, Clone, Copy)]
pub struct DecayConfig {
    /// Number of nodes (fixes the epoch length `⌈log₂ n⌉ + 1`).
    pub n: usize,
    /// Round budget multiplier: the run is capped at
    /// `⌈β (D + log₂ n) log₂ n⌉` rounds.
    pub beta: f64,
    /// Diameter estimate used only for the round budget.
    pub diameter_hint: u32,
    /// Stop at completion (the usual mode for this baseline; Decay has no
    /// energy story worth a full-schedule run, nodes never retire).
    pub early_stop: bool,
    /// Optional retirement window in rounds after a node is informed
    /// (`None` = classic BGI, active — and listening — forever). Used by
    /// the energy-lifetime experiments to give Decay a fighting chance
    /// once idle listening is charged.
    pub window: Option<u64>,
}

impl DecayConfig {
    /// Defaults: `β = 8`, early stop, no retirement.
    pub fn new(n: usize, diameter_hint: u32) -> Self {
        DecayConfig {
            n,
            beta: 8.0,
            diameter_hint,
            early_stop: true,
            window: None,
        }
    }

    /// Epoch length `E = ⌈log₂ n⌉ + 1`.
    pub fn epoch_len(&self) -> u32 {
        ilog2_ceil(self.n as u64) + 1
    }

    /// The decay probability cycle `1, 1/2, …, 2^{−(E−1)}`.
    pub fn cycle(&self) -> Vec<f64> {
        (0..self.epoch_len())
            .map(|j| 2f64.powi(-(j as i32)))
            .collect()
    }

    /// Round budget.
    pub fn max_rounds(&self) -> u64 {
        let l = (self.n as f64).log2();
        (self.beta * (self.diameter_hint as f64 + l) * l).ceil() as u64
    }

    /// The equivalent windowed-protocol spec.
    pub fn spec(&self) -> WindowedSpec {
        WindowedSpec {
            source: ProbSource::Cycle(self.cycle()),
            window: self.window,
            early_stop: self.early_stop,
        }
    }
}

/// Run Decay on `graph` from `source`.
pub fn run_decay_broadcast(
    graph: &DiGraph,
    source: NodeId,
    cfg: &DecayConfig,
    seed: u64,
) -> BroadcastOutcome {
    assert_eq!(graph.n(), cfg.n, "config n must match the graph");
    let mut protocol = WindowedBroadcast::new(graph.n(), source, cfg.spec());
    run_v1(graph, &mut protocol, cfg.max_rounds(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::analysis::diameter_from;
    use radio_graph::generate::{gnp_directed, path, star};
    use radio_util::derive_rng;

    #[test]
    fn cycle_halves_each_round() {
        let cfg = DecayConfig::new(1024, 16);
        let c = cfg.cycle();
        assert_eq!(c.len(), 11);
        assert_eq!(c[0], 1.0);
        for w in c.windows(2) {
            assert!((w[1] - w[0] / 2.0).abs() < 1e-15);
        }
    }

    #[test]
    fn decay_breaks_the_star_collision() {
        // Naive flooding dies on a reversed star (all leaves informed,
        // centre not); Decay's low-probability rounds let a single leaf
        // get through. Build: leaves 1..n hear source 0; centre n hears
        // all leaves.
        let n_leaves = 32;
        let mut b = radio_graph::GraphBuilder::new(n_leaves + 2);
        for leaf in 1..=n_leaves as u32 {
            b.add_edge(0, leaf);
            b.add_edge(leaf, (n_leaves + 1) as u32);
        }
        let g = b.build();
        let cfg = DecayConfig::new(g.n(), 2);
        for seed in 0..5 {
            let out = run_decay_broadcast(&g, 0, &cfg, seed);
            assert!(out.all_informed, "seed {seed}");
        }
    }

    #[test]
    fn completes_on_path_and_star_and_gnp() {
        let p = path(50);
        assert!(run_decay_broadcast(&p, 0, &DecayConfig::new(50, 49), 0).all_informed);

        let s = star(64);
        assert!(run_decay_broadcast(&s, 1, &DecayConfig::new(64, 2), 1).all_informed);

        let g = gnp_directed(512, 0.03, &mut derive_rng(2, b"decay-g", 0));
        if let Some(d) = diameter_from(&g, 0) {
            assert!(run_decay_broadcast(&g, 0, &DecayConfig::new(512, d), 2).all_informed);
        }
    }

    #[test]
    fn messages_per_node_grow_with_run_length() {
        // Nodes never retire: per-node expected messages ≈ 2·epochs — the
        // energy hunger the paper contrasts against.
        let g = path(100);
        let cfg = DecayConfig::new(100, 99);
        let out = run_decay_broadcast(&g, 0, &cfg, 3);
        assert!(out.all_informed);
        let epochs = out.rounds_executed as f64 / cfg.epoch_len() as f64;
        let early = out.metrics.transmissions_of(1) as f64; // informed round ~1
        assert!(
            early > epochs * 0.5 && early < epochs * 4.0,
            "node 1 sent {early} msgs over {epochs} epochs"
        );
    }
}
