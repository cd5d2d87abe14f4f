//! The Elsässer–Gasieniec random-graph broadcasting baseline \[12\]
//! (SPAA'05), as described in this paper's §1.1/§1.3 — the algorithm
//! Algorithm 1 improves upon.
//!
//! Three phases on `G(n,p)` with `d = np` and `D̂ = ⌈log n / log d⌉`
//! (the w.h.p. diameter, Lemma 3.1):
//!
//! 1. Rounds `1..D̂`: every informed node transmits **every round**
//!    (probability 1) — up to `D̂ − 1` transmissions per node, the energy
//!    cost Algorithm 1 eliminates.
//! 2. Round `D̂`: every informed node transmits with probability `n/d^D̂`.
//! 3. `β log n` rounds: every node informed in the first two phases
//!    transmits with probability `1/d` each round.
//!
//! Broadcast time is `O(log n)` w.h.p. — same as Algorithm 1 — but the
//! per-node message count is `Θ(D̂)` in Phase 1 alone, which is the
//! comparison row in table E13.

use super::{run_v1, Broadcast, BroadcastOutcome, InformedSet};
use crate::params::GnpParams;
use radio_graph::{DiGraph, NodeId};
use radio_sim::{Action, Protocol};
use rand::RngExt;
use rand_chacha::ChaCha8Rng;

/// Configuration for the EG baseline.
#[derive(Debug, Clone, Copy)]
pub struct EgBroadcastConfig {
    /// Derived `G(n,p)` parameters.
    pub params: GnpParams,
    /// Phase-3 length multiplier (`⌈β log₂ n⌉` rounds).
    pub beta: f64,
    /// Stop at completion vs. full schedule.
    pub early_stop: bool,
}

impl EgBroadcastConfig {
    /// Defaults mirroring [`super::ee_random::EeBroadcastConfig::for_gnp`].
    pub fn for_gnp(n: usize, p: f64) -> Self {
        EgBroadcastConfig {
            params: GnpParams::new(n, p),
            beta: 16.0,
            early_stop: false,
        }
    }

    /// `D̂ = ⌈log n / log d⌉`, the phase-1 horizon.
    pub fn d_hat(&self) -> u64 {
        let p = self.params;
        (((p.n as f64).log2() / p.d.log2()).ceil() as u64).max(1)
    }

    /// Phase-2 probability `n / d^D̂`, clamped to ≤ 1.
    pub fn q2(&self) -> f64 {
        let p = self.params;
        (p.n as f64 / p.d.powi(self.d_hat() as i32)).min(1.0)
    }

    /// Last scheduled round.
    pub fn schedule_end(&self) -> u64 {
        self.d_hat() + (self.beta * (self.params.n as f64).log2()).ceil() as u64
    }
}

/// The EG protocol.
#[derive(Debug)]
pub struct EgBroadcast {
    informed: InformedSet,
    source: NodeId,
    /// The run constants the polls read, taken from the config once at
    /// construction (each of the derived ones takes `log2`/`powi` work)
    /// instead of on every poll: [`EgBroadcastConfig::early_stop`],
    /// [`EgBroadcastConfig::d_hat`], [`EgBroadcastConfig::schedule_end`],
    /// the Phase-2 probability [`EgBroadcastConfig::q2`] and the Phase-3
    /// probability `min(q3, 1/d)`.
    early_stop: bool,
    d_hat: u64,
    schedule_end: u64,
    q2: f64,
    q3: f64,
}

impl EgBroadcast {
    /// Fresh instance for a broadcast from `source`.
    pub fn new(n: usize, source: NodeId, cfg: EgBroadcastConfig) -> Self {
        assert_eq!(n, cfg.params.n, "config n must match the graph");
        EgBroadcast {
            informed: InformedSet::new(n, source),
            source,
            early_stop: cfg.early_stop,
            d_hat: cfg.d_hat(),
            schedule_end: cfg.schedule_end(),
            q2: cfg.q2(),
            q3: cfg.params.q3.min(1.0 / cfg.params.d),
        }
    }
}

impl Protocol for EgBroadcast {
    type Msg = ();

    fn initially_awake(&self) -> Vec<NodeId> {
        vec![self.source]
    }

    /// Both retirement tests (past the schedule, or a Phase-3 round for
    /// a node informed after round `D̂`) stay true in every later round
    /// and draw nothing. `radio_off` reports exactly these nodes, so a
    /// reception does not wake a retired node.
    fn decide(&mut self, node: NodeId, round: u64, rng: &mut ChaCha8Rng) -> Action {
        let d_hat = self.d_hat;
        if round > self.schedule_end {
            return Action::Sleep;
        }
        if round < d_hat {
            // Phase 1: transmit with probability 1, stay active.
            Action::Transmit
        } else if round == d_hat {
            // Phase 2.
            if rng.random_bool(self.q2) {
                Action::Transmit
            } else {
                Action::Silent
            }
        } else {
            // Phase 3: only nodes informed during phases 1–2 (rounds
            // ≤ D̂) participate — "every node informed in the first two
            // phases transmits with probability 1/d".
            if self.informed.informed_round(node) > d_hat {
                return Action::Sleep;
            }
            if rng.random_bool(self.q3) {
                Action::Transmit
            } else {
                Action::Silent
            }
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

    fn radio_off(&self, node: NodeId, round: u64) -> bool {
        // A retired node — one that `decide` would put straight to sleep
        // in this and every later round — powers its radio down.
        // Uninformed nodes keep listening.
        self.informed.is_informed(node)
            && (round > self.schedule_end
                || (round > self.d_hat && self.informed.informed_round(node) > self.d_hat))
    }
}

impl Broadcast for EgBroadcast {
    fn broadcast_time(&self) -> Option<u64> {
        self.informed.complete_round()
    }
}

/// Run the EG baseline on `graph` from `source`.
pub fn run_eg_broadcast(
    graph: &DiGraph,
    source: NodeId,
    cfg: &EgBroadcastConfig,
    seed: u64,
) -> BroadcastOutcome {
    let mut protocol = EgBroadcast::new(graph.n(), source, *cfg);
    run_v1(graph, &mut protocol, cfg.schedule_end() + 2, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::generate::gnp_directed;
    use radio_util::derive_rng;

    fn sparse_instance(n: usize, delta: f64, seed: u64) -> (DiGraph, EgBroadcastConfig) {
        let p = delta * (n as f64).ln() / n as f64;
        let g = gnp_directed(n, p, &mut derive_rng(seed, b"eg-g", 0));
        (g, EgBroadcastConfig::for_gnp(n, p))
    }

    #[test]
    fn informs_everyone_on_sparse_gnp() {
        for seed in 0..5 {
            let (g, cfg) = sparse_instance(1024, 8.0, seed);
            let out = run_eg_broadcast(&g, 0, &cfg, seed);
            assert!(out.all_informed, "seed {seed}");
        }
    }

    #[test]
    fn phase1_costs_multiple_transmissions_per_node() {
        // The contrast with Algorithm 1: EG's early-informed nodes send
        // once per Phase-1 round. Pick d = 24 on n = 4096 so that
        // D̂ = ⌈12/4.58⌉ = 3 and Phase 1 spans two rounds.
        let n = 4096;
        let p = 24.0 / n as f64;
        let g = gnp_directed(n, p, &mut derive_rng(1, b"eg-g", 0));
        let cfg = EgBroadcastConfig::for_gnp(n, p);
        assert_eq!(cfg.d_hat(), 3);
        let out = run_eg_broadcast(&g, 0, &cfg, 1);
        assert!(out.all_informed);
        assert!(
            out.max_msgs_per_node() as u64 >= cfg.d_hat() - 1,
            "source alone should transmit every Phase-1 round: max {} < D̂−1 = {}",
            out.max_msgs_per_node(),
            cfg.d_hat() - 1
        );
    }

    #[test]
    fn d_hat_and_q2_formulas() {
        let n = 65536;
        let p = 16.0 / n as f64; // d = 16, D̂ = 4, q2 = n/d^4 = 1
        let cfg = EgBroadcastConfig::for_gnp(n, p);
        assert_eq!(cfg.d_hat(), 4);
        assert!((cfg.q2() - 1.0).abs() < 1e-9);

        let n2 = 32768usize; // d = 16 → log n/log d = 3.75 → D̂ = 4
        let cfg2 = EgBroadcastConfig::for_gnp(n2, 16.0 / n2 as f64);
        assert_eq!(cfg2.d_hat(), 4);
        assert!((cfg2.q2() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn broadcast_time_is_logarithmic() {
        let (g, cfg) = sparse_instance(4096, 12.0, 3);
        let out = run_eg_broadcast(&g, 0, &cfg, 3);
        assert!(out.all_informed);
        let t = out.broadcast_time.expect("completed") as f64;
        assert!(t < 12.0 * (4096f64).log2());
    }

    #[test]
    fn deterministic_per_seed() {
        let (g, cfg) = sparse_instance(512, 8.0, 4);
        let a = run_eg_broadcast(&g, 0, &cfg, 6);
        let b = run_eg_broadcast(&g, 0, &cfg, 6);
        assert_eq!(a.broadcast_time, b.broadcast_time);
        assert_eq!(a.metrics.per_node(), b.metrics.per_node());
    }
}
