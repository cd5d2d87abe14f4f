//! Unknown-diameter broadcasting via diameter doubling — the extension
//! the paper gestures at in §4: *"Similarly, the algorithm of \[11\] for
//! unknown diameter can be transformed into an algorithm with an expected
//! number of Θ(log² n) messages per node."*
//!
//! When `D` is unknown, the schedule runs **epochs** `j = 1, 2, …` with
//! diameter guesses `D_j = 2^j`. Epoch `j` lasts
//! `⌈β₁·(D_j·λ_j + log² n)⌉` rounds (the Theorem 4.1 time bound for its
//! guess, `λ_j = max(1, log₂(n/D_j))`) and drives transmissions from a
//! shared `α(λ_j)` sequence. Within an epoch a node participates for at
//! most `⌈β₂ log² n⌉` rounds (counted from `max(informed, epoch start)`),
//! so its energy in epoch `j` is `≈ β₂ log² n · E[q_j] = O(log² n / λ_j)`.
//! Once the guess reaches the true diameter, the epoch is a full
//! known-`D` Algorithm 3 run and completes w.h.p. Per-node energy over
//! the whole schedule is `β₂ log² n · Σ_j 1/λ_j = O(log² n · log log n)`
//! — an `H_{log n}·λ(D)` factor over the known-`D` algorithm (the price
//! of hedging across diameter scales), measured against the known-`D`
//! algorithm in this module's tests.

use super::{run_v1, Broadcast, BroadcastOutcome, InformedSet};
use crate::seq::{KDistribution, SharedSequence};
use radio_graph::{DiGraph, NodeId};
use radio_sim::{Action, Protocol};
use radio_util::ilog2_ceil;
use rand::RngExt;
use rand_chacha::ChaCha8Rng;

/// Configuration for the unknown-diameter epoch broadcast.
#[derive(Debug, Clone, Copy)]
pub struct EpochBroadcastConfig {
    /// Number of nodes (the only global knowledge).
    pub n: usize,
    /// Epoch-length multiplier (`β₁`).
    pub beta_time: f64,
    /// Per-epoch activity-window multiplier (`β₂`).
    pub beta_window: f64,
    /// Stop at completion vs. run until the final epoch ends.
    pub early_stop: bool,
}

impl EpochBroadcastConfig {
    /// Defaults matching Algorithm 3's constants.
    pub fn new(n: usize) -> Self {
        EpochBroadcastConfig {
            n,
            beta_time: 3.0,
            beta_window: 3.0,
            early_stop: false,
        }
    }

    /// Same, stopping at completion.
    pub fn new_timed(n: usize) -> Self {
        EpochBroadcastConfig {
            early_stop: true,
            ..Self::new(n)
        }
    }

    /// λ for epoch `j` (guess `D_j = 2^j`).
    pub fn lambda_of_epoch(&self, j: u32) -> f64 {
        let l = ilog2_ceil(self.n as u64).max(1) as f64;
        ((self.n as f64) / 2f64.powi(j as i32)).log2().clamp(1.0, l)
    }

    /// Length of epoch `j` in rounds.
    pub fn epoch_len(&self, j: u32) -> u64 {
        let l = (self.n as f64).log2();
        let dj = 2f64.powi(j as i32);
        (self.beta_time * (dj * self.lambda_of_epoch(j) + l * l)).ceil() as u64
    }

    /// Per-epoch activity window `⌈β₂ log² n⌉`.
    pub fn window(&self) -> u64 {
        let l = (self.n as f64).log2();
        (self.beta_window * l * l).ceil() as u64
    }

    /// Last epoch index: guesses stop at `D_j ≥ n` (every diameter).
    pub fn last_epoch(&self) -> u32 {
        ilog2_ceil(self.n as u64).max(1)
    }

    /// Total schedule length over all epochs.
    pub fn schedule_rounds(&self) -> u64 {
        (1..=self.last_epoch()).map(|j| self.epoch_len(j)).sum()
    }
}

/// The epoch-doubling protocol.
#[derive(Debug)]
pub struct EpochBroadcast {
    informed: InformedSet,
    source: NodeId,
    /// Epoch start rounds (1-based), one per epoch, precomputed.
    epoch_starts: Vec<u64>,
    /// One shared sequence per epoch.
    sequences: Vec<SharedSequence>,
    /// The run constants the polls read, taken from the config once at
    /// construction instead of on every poll:
    /// [`EpochBroadcastConfig::early_stop`],
    /// [`EpochBroadcastConfig::schedule_rounds`] (a sum over every
    /// epoch's length) and [`EpochBroadcastConfig::window`].
    early_stop: bool,
    schedule_rounds: u64,
    window: u64,
}

impl EpochBroadcast {
    /// Build the protocol; `seed` feeds the shared epoch sequences.
    pub fn new(n: usize, source: NodeId, cfg: EpochBroadcastConfig, seed: u64) -> Self {
        assert_eq!(n, cfg.n);
        let l = ilog2_ceil(n as u64).max(1);
        let mut epoch_starts = Vec::new();
        let mut sequences = Vec::new();
        let mut start = 1u64;
        for j in 1..=cfg.last_epoch() {
            epoch_starts.push(start);
            start += cfg.epoch_len(j);
            let dist = KDistribution::paper_alpha(l, cfg.lambda_of_epoch(j));
            sequences.push(SharedSequence::new(
                dist,
                radio_util::split_seed(seed, b"epoch-seq", j as u64),
            ));
        }
        EpochBroadcast {
            informed: InformedSet::new(n, source),
            source,
            epoch_starts,
            sequences,
            early_stop: cfg.early_stop,
            schedule_rounds: cfg.schedule_rounds(),
            window: cfg.window(),
        }
    }

    /// Epoch index (0-based) containing `round`, or `None` past the end.
    fn epoch_of(&self, round: u64) -> Option<usize> {
        if round > self.schedule_rounds {
            return None;
        }
        // Few epochs (≤ log n): linear scan backwards is fine.
        (0..self.epoch_starts.len())
            .rev()
            .find(|&i| self.epoch_starts[i] <= round)
    }
}

impl Protocol for EpochBroadcast {
    type Msg = ();

    fn initially_awake(&self) -> Vec<NodeId> {
        vec![self.source]
    }

    fn decide(&mut self, node: NodeId, round: u64, rng: &mut ChaCha8Rng) -> Action {
        let Some(epoch) = self.epoch_of(round) else {
            return Action::Sleep;
        };
        let t_u = self.informed.informed_round(node);
        // Participation window inside this epoch: β₂ log²n rounds from
        // max(informed round, epoch start).
        let window_start = t_u.max(self.epoch_starts[epoch] - 1);
        if round > window_start + self.window {
            // Quiet for the rest of this epoch; the engine will not wake
            // us again unless a duplicate reception arrives, so instead of
            // sleeping (which would miss the next epoch) stay silent.
            return Action::Silent;
        }
        let q = self.sequences[epoch].q(round - (self.epoch_starts[epoch] - 1));
        if q > 0.0 && rng.random_bool(q.min(1.0)) {
            Action::Transmit
        } else {
            Action::Silent
        }
    }

    fn payload(&self, _node: NodeId, _round: u64) -> Self::Msg {}

    fn on_receive(
        &mut self,
        node: NodeId,
        _from: NodeId,
        round: u64,
        _msg: &Self::Msg,
        _rng: &mut ChaCha8Rng,
    ) {
        self.informed.inform(node, round);
    }

    fn is_complete(&self) -> bool {
        self.early_stop && self.informed.all()
    }

    fn informed_count(&self) -> usize {
        self.informed.count()
    }
}

impl Broadcast for EpochBroadcast {
    fn broadcast_time(&self) -> Option<u64> {
        self.informed.complete_round()
    }
}

/// Run the unknown-diameter broadcast on `graph` from `source`.
pub fn run_epoch_broadcast(
    graph: &DiGraph,
    source: NodeId,
    cfg: &EpochBroadcastConfig,
    seed: u64,
) -> BroadcastOutcome {
    let mut protocol = EpochBroadcast::new(graph.n(), source, *cfg, seed);
    run_v1(graph, &mut protocol, cfg.schedule_rounds() + 1, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broadcast::ee_general::{run_general_broadcast, GeneralBroadcastConfig};
    use radio_graph::analysis::diameter_from;
    use radio_graph::generate::{caterpillar, grid2d, path};

    #[test]
    fn epoch_schedule_is_increasing_and_covers_n() {
        let cfg = EpochBroadcastConfig::new(1024);
        assert_eq!(cfg.last_epoch(), 10);
        let mut prev_end = 0;
        for j in 1..=cfg.last_epoch() {
            assert!(cfg.epoch_len(j) > 0);
            prev_end += cfg.epoch_len(j);
        }
        assert_eq!(prev_end, cfg.schedule_rounds());
        // λ decreases as the guess grows.
        assert!(cfg.lambda_of_epoch(1) >= cfg.lambda_of_epoch(9));
    }

    #[test]
    fn completes_without_knowing_d_on_shallow_and_deep_graphs() {
        for (name, g) in [
            ("path-96", path(96)),
            ("grid-12x12", grid2d(12, 12)),
            ("caterpillar", caterpillar(24, 7)),
        ] {
            let cfg = EpochBroadcastConfig::new_timed(g.n());
            let out = run_epoch_broadcast(&g, 0, &cfg, 11);
            assert!(out.all_informed, "{name}: {}/{}", out.informed, g.n());
        }
    }

    #[test]
    fn energy_overhead_vs_known_d_is_the_epoch_sum() {
        // Predicted overhead of hedging across diameter scales:
        // Σ_j λ(D)/λ_j ≈ λ(D)·H_{log n}. On this instance (λ(D) = 3,
        // L = 9) that is ≈ 8.5×; assert the measured ratio sits in a
        // band around it rather than exploding.
        let g = caterpillar(48, 7); // n = 384
        let n = g.n();
        let d = diameter_from(&g, 0).expect("connected");
        let cfg = EpochBroadcastConfig::new(n);
        let lam_d = crate::params::lambda(n, d);
        let predicted: f64 = (1..=cfg.last_epoch())
            .map(|j| lam_d / cfg.lambda_of_epoch(j))
            .sum();
        let mut unk = 0.0;
        let mut known = 0.0;
        for seed in 0..4 {
            unk += run_epoch_broadcast(&g, 0, &cfg, seed).mean_msgs_per_node();
            known += run_general_broadcast(&g, 0, &GeneralBroadcastConfig::new(n, d), seed)
                .mean_msgs_per_node();
        }
        let ratio = unk / known;
        assert!(
            ratio < 2.5 * predicted,
            "unknown-D overhead {ratio:.1}× far above the epoch-sum prediction {predicted:.1}×"
        );
        assert!(
            ratio > predicted / 4.0,
            "overhead {ratio:.1}× suspiciously below the epoch-sum prediction {predicted:.1}×"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = path(64);
        let cfg = EpochBroadcastConfig::new_timed(64);
        let a = run_epoch_broadcast(&g, 0, &cfg, 3);
        let b = run_epoch_broadcast(&g, 0, &cfg, 3);
        assert_eq!(a.broadcast_time, b.broadcast_time);
        assert_eq!(a.metrics.per_node(), b.metrics.per_node());
    }
}
