//! **Algorithm 1** — An Energy Efficient Algorithm for Random Networks
//! (paper §2).
//!
//! The paper's central result (Theorem 2.1): on a directed `G(n,p)` with
//! `p > δ log n / n`, the algorithm informs all nodes w.h.p. in `O(log n)`
//! rounds, **every node transmits at most once**, and the expected total
//! number of transmissions is `O(log n / p)`.
//!
//! Structure (`T = ⌊log n / log d⌋`, `d = np`):
//!
//! * **Phase 1** (rounds `1..=T`): every *active* node transmits
//!   unconditionally and becomes *passive*; a node receiving the message
//!   for the first time becomes active. Grows the active set by a factor
//!   `Θ(d)` per round (Lemma 2.3) to `Θ(d^T)` (Lemma 2.4).
//! * **Phase 2** (round `T+1`, only when `p ≤ n^{−2/5}`): each active
//!   node transmits with probability `1/(d^T·p)`. Informs `Θ(n)` nodes
//!   (Lemma 2.5).
//! * **Phase 3** (`β log n` rounds): active nodes transmit with
//!   probability `1/d` (sparse case) or `1/(dp)` (dense case); a node
//!   that transmits becomes passive. Mops up the rest (Lemma 2.6).
//!
//! The *at most one transmission per node* invariant is structural: a
//! node transmits only while active and every transmission flips it to
//! passive forever (checked by a `debug_assert` and asserted by tests on
//! every run).
//!
//! **Phase 2 wording ambiguity.** The pseudocode reads "every active node
//! transmits with probability `1/(d^T p)` *and becomes passive*" — unlike
//! Phase 3, which only passivates nodes that actually transmitted.
//! [`EeBroadcastConfig::phase2_all_passive`] selects the literal reading
//! (default, everyone passivates) or the Phase-3-style reading; the E14
//! ablation compares them.

use super::{run_v1, Broadcast, BroadcastOutcome, InformedSet};
use crate::params::GnpParams;
use radio_graph::{NodeId, Topology};
use radio_sim::{Action, Protocol};
use rand::Bernoulli;
use rand_chacha::ChaCha8Rng;

/// Configuration for Algorithm 1.
#[derive(Debug, Clone, Copy)]
pub struct EeBroadcastConfig {
    /// Derived `G(n,p)` parameters (the nodes know `n` and `p`, as in
    /// Elsässer–Gasieniec).
    pub params: GnpParams,
    /// Phase-3 length multiplier: Phase 3 lasts `⌈β·log₂ n⌉` rounds. The
    /// paper's constant (`128 log n / c` for a microscopic `c`) is wildly
    /// conservative; β is swept in the E14 ablation.
    pub beta: f64,
    /// Literal reading of the Phase-2 pseudocode (see module docs).
    pub phase2_all_passive: bool,
    /// Stop as soon as everyone is informed (time measurement) instead of
    /// running the full energy schedule.
    pub early_stop: bool,
}

impl EeBroadcastConfig {
    /// Defaults for a `G(n, p)` instance: `β = 16`, literal Phase 2,
    /// energy-faithful full schedule.
    pub fn for_gnp(n: usize, p: f64) -> Self {
        EeBroadcastConfig {
            params: GnpParams::new(n, p),
            beta: 16.0,
            phase2_all_passive: true,
            early_stop: false,
        }
    }

    /// Same but stopping at completion (for time measurements).
    pub fn for_gnp_timed(n: usize, p: f64) -> Self {
        EeBroadcastConfig {
            early_stop: true,
            ..Self::for_gnp(n, p)
        }
    }

    /// Phase-3 length in rounds.
    pub fn phase3_len(&self) -> u64 {
        (self.beta * (self.params.n as f64).log2()).ceil() as u64
    }

    /// Last round of the schedule (Phase 3 end).
    pub fn schedule_end(&self) -> u64 {
        let phase2 = u64::from(self.params.use_phase2);
        self.params.t + phase2 + self.phase3_len()
    }
}

/// Per-node protocol state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    /// Informed and willing to transmit.
    Active,
    /// Done forever (transmitted, or passivated by Phase 2).
    Passive,
}

/// Algorithm 1 as a [`Protocol`].
#[derive(Debug)]
pub struct EeRandomBroadcast {
    cfg: EeBroadcastConfig,
    informed: InformedSet,
    /// `None` = uninformed.
    state: Vec<Option<NodeState>>,
    source: NodeId,
    /// Defensive double-send detector backing the ≤ 1 invariant.
    sent: Vec<bool>,
    /// Phase-2/3 transmit coins with the threshold precomputed once at
    /// construction — `q2`/`q3` are run constants (clamped to `(0, 1]`
    /// by [`GnpParams`]), so nothing round-dependent remains.
    /// [`Bernoulli`] is draw-for-draw bit-compatible with the
    /// `random_bool` calls it replaces.
    coin2: Bernoulli,
    coin3: Bernoulli,
    /// [`EeBroadcastConfig::schedule_end`], a run constant computed once
    /// (it takes a `log2`) instead of on every Phase-3 poll.
    schedule_end: u64,
}

impl EeRandomBroadcast {
    /// Fresh protocol instance for a broadcast from `source`.
    pub fn new(n: usize, source: NodeId, cfg: EeBroadcastConfig) -> Self {
        assert_eq!(n, cfg.params.n, "config n must match the graph");
        let mut state = vec![None; n];
        state[source as usize] = Some(NodeState::Active);
        EeRandomBroadcast {
            cfg,
            informed: InformedSet::new(n, source),
            state,
            source,
            sent: vec![false; n],
            coin2: Bernoulli::new(cfg.params.q2),
            coin3: Bernoulli::new(cfg.params.q3),
            schedule_end: cfg.schedule_end(),
        }
    }

    /// Round in which `node` was informed (`None` if never; `Some(0)` for
    /// the source). Used by the robustness experiments to score partial
    /// runs per node.
    pub fn informed_round(&self, node: NodeId) -> Option<u64> {
        let r = self.informed.informed_round(node);
        (r != u64::MAX).then_some(r)
    }

    /// The series of [`run_ee_broadcast_growth`], from the informed rounds.
    fn first_informed_per_round(&self, rounds: u64) -> Vec<u64> {
        let mut counts = vec![0u64; rounds as usize];
        for v in 0..self.state.len() as NodeId {
            if let Some(r @ 1..) = self.informed_round(v) {
                counts[r as usize - 1] += 1;
            }
        }
        counts
    }

    /// Only informed nodes are polled, so `node` is active or passive.
    fn go_passive(&mut self, node: NodeId) {
        self.state[node as usize] = Some(NodeState::Passive);
    }

    fn transmit_now(&mut self, node: NodeId) -> Action {
        debug_assert!(
            !self.sent[node as usize],
            "node {node} would transmit twice"
        );
        self.sent[node as usize] = true;
        self.go_passive(node);
        Action::Transmit
    }
}

impl Protocol for EeRandomBroadcast {
    type Msg = ();

    fn initially_awake(&self) -> Vec<NodeId> {
        vec![self.source]
    }

    fn decide(&mut self, node: NodeId, round: u64, rng: &mut ChaCha8Rng) -> Action {
        // One copy of the phase logic: the v1 entry point is the pure
        // half plus the commit half over the shared serial stream (same
        // draws, same passivation — bit-compatible with the pre-split
        // code; the phase structure itself lives in `decide_pure`).
        radio_sim::FusedDecide::decide_and_commit(self, node, round, rng)
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
        if self.informed.inform(node, round) {
            // Activation happens in Phases 1 and 2 only: the Phase-3
            // pseudocode has no "receives for the first time → active"
            // clause, and §2.4's transmission count relies on it ("no node
            // gets activated in Phase 3"). Later receivers are informed
            // but stay passive forever.
            let p = self.cfg.params;
            let activation_end = p.t + u64::from(p.use_phase2);
            if round <= activation_end {
                self.state[node as usize] = Some(NodeState::Active);
            } else {
                self.state[node as usize] = Some(NodeState::Passive);
            }
        }
    }

    fn is_complete(&self) -> bool {
        self.cfg.early_stop && self.informed.all()
    }

    fn informed_count(&self) -> usize {
        self.informed.count()
    }

    fn radio_off(&self, node: NodeId, _round: u64) -> bool {
        // A passive node is done forever: it holds the message and will
        // never transmit again, so it powers its radio down, and a
        // duplicate reception does not put it back on the poll list (its
        // next poll would only sleep again, drawing nothing). Uninformed
        // nodes (state `None`) must keep listening; active nodes are
        // about to transmit. This is Algorithm 1's structural energy
        // advantage once idle listening is charged: per-node radio-on
        // time is bounded by (time-to-informed) + 1.
        self.state[node as usize] == Some(NodeState::Passive)
    }
}

impl radio_sim::FusedDecide for EeRandomBroadcast {
    fn decide_pure(&self, node: NodeId, round: u64, rng: &mut ChaCha8Rng) -> Action {
        if self.state[node as usize] != Some(NodeState::Active) {
            // Passive: it transmitted last round and is still on the
            // poll list. A reception never re-wakes a passive node here
            // (`radio_off`); only the reference oracle, which wakes
            // every receiver, polls one again, and it sleeps at once.
            return Action::Sleep;
        }
        let p = self.cfg.params;
        let phase2_round = p.use_phase2.then_some(p.t + 1);
        if round <= p.t {
            // Phase 1: transmit once, become passive (on commit).
            Action::Transmit
        } else if Some(round) == phase2_round {
            // Phase 2: transmit w.p. 1/(d^T p); passivation per config.
            if self.coin2.sample(rng) {
                Action::Transmit
            } else if self.cfg.phase2_all_passive {
                Action::Sleep
            } else {
                Action::Silent
            }
        } else if round <= self.schedule_end {
            // Phase 3: transmit w.p. q3; only transmitters passivate.
            if self.coin3.sample(rng) {
                Action::Transmit
            } else {
                Action::Silent
            }
        } else {
            // Schedule over.
            Action::Sleep
        }
    }

    fn commit_decide(&mut self, node: NodeId, _round: u64, action: Action) {
        match action {
            // Every transmission passivates, in every phase (and trips
            // the double-send detector behind the ≤ 1 invariant).
            Action::Transmit => {
                let _ = self.transmit_now(node);
            }
            // Sleep from an active node means Phase-2 passivation or the
            // schedule ending; from an already-passive node (one that
            // transmitted last round) there is nothing to apply, and
            // `go_passive` leaves it passive.
            Action::Sleep => self.go_passive(node),
            Action::Silent => {}
        }
    }
}

impl Broadcast for EeRandomBroadcast {
    fn broadcast_time(&self) -> Option<u64> {
        self.informed.complete_round()
    }
}

/// Run Algorithm 1 on `graph` from `source`.
pub fn run_ee_broadcast<T: Topology>(
    graph: &T,
    source: NodeId,
    cfg: &EeBroadcastConfig,
    seed: u64,
) -> BroadcastOutcome {
    run_ee_broadcast_growth(graph, source, cfg, seed).0
}

/// As [`run_ee_broadcast`], plus the growth series of Lemmas 2.3–2.5:
/// entry `r − 1` counts the nodes first informed in round `r`, one entry
/// per executed round. For `r ≤ T` — and `r = T + 1` under the literal
/// Phase 2 ([`EeBroadcastConfig::phase2_all_passive`]) — that is
/// `|U_{r+1}|`: each active node transmits in its next round and then
/// passivates, so the active set after round `r` is its new receivers.
pub fn run_ee_broadcast_growth<T: Topology>(
    graph: &T,
    source: NodeId,
    cfg: &EeBroadcastConfig,
    seed: u64,
) -> (BroadcastOutcome, Vec<u64>) {
    let mut protocol = EeRandomBroadcast::new(graph.n(), source, *cfg);
    let out = run_v1(graph, &mut protocol, cfg.schedule_end() + 2, seed);
    let growth = protocol.first_informed_per_round(out.rounds_executed);
    (out, growth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::generate::gnp_directed;
    use radio_graph::DiGraph;
    use radio_sim::engine::run_protocol_fused;
    use radio_sim::EngineConfig;
    use radio_util::derive_rng;

    fn sparse_instance(n: usize, delta: f64, seed: u64) -> (DiGraph, EeBroadcastConfig) {
        let p = delta * (n as f64).ln() / n as f64;
        let g = gnp_directed(n, p, &mut derive_rng(seed, b"alg1-g", 0));
        (g, EeBroadcastConfig::for_gnp(n, p))
    }

    #[test]
    fn informs_everyone_on_sparse_gnp() {
        for seed in 0..5 {
            let (g, cfg) = sparse_instance(1024, 8.0, seed);
            let out = run_ee_broadcast(&g, 0, &cfg, seed);
            assert!(
                out.all_informed,
                "seed {seed}: {}/{} informed",
                out.informed, out.n
            );
        }
    }

    #[test]
    fn at_most_one_transmission_per_node_always() {
        // The invariant must hold regardless of density, seed or topology.
        for (n, delta) in [(256usize, 6.0), (1024, 10.0), (2048, 20.0)] {
            for seed in 0..3 {
                let (g, cfg) = sparse_instance(n, delta, seed);
                let out = run_ee_broadcast(&g, 0, &cfg, seed);
                assert!(
                    out.max_msgs_per_node() <= 1,
                    "n={n} seed={seed}: node transmitted twice"
                );
            }
        }
    }

    #[test]
    fn at_most_one_transmission_in_dense_regime_without_phase2() {
        // Theorem 2.1's dense case needs dp = np² ≫ log n for the Phase-3
        // concentration (Case 2 of Lemma 2.6): n = 1024, p = 0.15 gives
        // dp = 23 > log n = 10. (At the p ≈ n^{−2/5} boundary, where
        // dp ≈ log n, completion is genuinely marginal — measured in E1.)
        let n = 1024;
        let p = 0.15; // > n^{-2/5} = 0.0625 → no Phase 2, q3 = 1/(dp)
        let cfg = EeBroadcastConfig::for_gnp(n, p);
        assert!(!cfg.params.use_phase2);
        for seed in 0..3 {
            let g = gnp_directed(n, p, &mut derive_rng(seed, b"alg1-dense", 0));
            let out = run_ee_broadcast(&g, 0, &cfg, seed);
            assert!(out.max_msgs_per_node() <= 1);
            assert!(out.all_informed, "seed {seed}: {}/{}", out.informed, out.n);
        }
    }

    #[test]
    fn invariant_holds_even_at_the_marginal_density_boundary() {
        // n = 512, p = 0.12 sits right at the n^{−2/5} threshold with
        // dp ≈ 7 ≈ log n: completion is not guaranteed there, but the
        // ≤ 1 transmission invariant must hold no matter what.
        let n = 512;
        let p = 0.12;
        let cfg = EeBroadcastConfig::for_gnp(n, p);
        let g = gnp_directed(n, p, &mut derive_rng(77, b"alg1-margin", 0));
        let out = run_ee_broadcast(&g, 0, &cfg, 77);
        assert!(out.max_msgs_per_node() <= 1);
        assert!(out.informed > n / 2, "even marginal runs inform most nodes");
    }

    #[test]
    fn broadcast_time_is_logarithmic_not_linear() {
        let (g, cfg) = sparse_instance(4096, 12.0, 9);
        let out = run_ee_broadcast(&g, 0, &cfg, 9);
        assert!(out.all_informed);
        let t = out.broadcast_time.expect("completed") as f64;
        let log_n = (4096f64).log2();
        assert!(
            t < 12.0 * log_n,
            "broadcast time {t} is not O(log n) = O({log_n})"
        );
    }

    #[test]
    fn total_transmissions_scale_like_log_n_over_p() {
        let (g, cfg) = sparse_instance(2048, 10.0, 3);
        let out = run_ee_broadcast(&g, 0, &cfg, 3);
        let bound = (2048f64).ln() / cfg.params.p;
        assert!(
            (out.metrics.total_transmissions() as f64) < 4.0 * bound,
            "total {} ≫ log n / p = {bound}",
            out.metrics.total_transmissions()
        );
        // And it must be far below n (the trivial everyone-once budget)
        // in the sparse regime where 1/p ≪ n... here log n/p ≈ n/δ·…;
        // the meaningful check is against flooding-every-round: n·rounds.
        let flood_cost = 2048.0 * out.rounds_executed as f64;
        assert!((out.metrics.total_transmissions() as f64) < flood_cost / 4.0);
    }

    #[test]
    fn early_stop_reports_same_broadcast_time_but_fewer_rounds() {
        let (g, mut cfg) = sparse_instance(1024, 8.0, 5);
        let full = run_ee_broadcast(&g, 0, &cfg, 5);
        cfg.early_stop = true;
        let timed = run_ee_broadcast(&g, 0, &cfg, 5);
        assert_eq!(full.broadcast_time, timed.broadcast_time);
        assert_eq!(timed.rounds_executed, timed.broadcast_time.expect("done"));
        assert!(full.rounds_executed >= timed.rounds_executed);
        assert!(
            full.metrics.total_transmissions() >= timed.metrics.total_transmissions(),
            "full schedule can only add energy"
        );
    }

    #[test]
    fn phase2_readings_both_complete() {
        let (g, mut cfg) = sparse_instance(1024, 8.0, 6);
        assert!(cfg.params.use_phase2);
        let literal = run_ee_broadcast(&g, 0, &cfg, 6);
        cfg.phase2_all_passive = false;
        let lenient = run_ee_broadcast(&g, 0, &cfg, 6);
        assert!(literal.all_informed);
        assert!(lenient.all_informed);
        assert!(literal.max_msgs_per_node() <= 1);
        assert!(lenient.max_msgs_per_node() <= 1);
    }

    #[test]
    fn run_terminates_by_quiescence_within_schedule() {
        let (g, cfg) = sparse_instance(512, 8.0, 7);
        let out = run_ee_broadcast(&g, 0, &cfg, 7);
        assert!(out.rounds_executed <= cfg.schedule_end() + 1);
    }

    #[test]
    fn trace_shows_phase1_growth() {
        // d = 32 on n = 4096 gives T = ⌊12/5⌋ = 2, so Phase 1 has a
        // genuine growth step to check.
        let n = 4096;
        let p = 32.0 / n as f64;
        let g = gnp_directed(n, p, &mut derive_rng(8, b"alg1-g", 0));
        let cfg = EeBroadcastConfig::for_gnp(n, p);
        assert_eq!(cfg.params.t, 2);
        let (_, active) = run_ee_broadcast_growth(&g, 0, &cfg, 8);
        // During Phase 1 the active-set sizes (|U_{t+1}| after round t,
        // the nodes first informed in round t) should grow
        // multiplicatively — Lemma 2.3 promises ≥ d/16.
        let t = cfg.params.t as usize;
        let d = cfg.params.d;
        for r in 0..t.min(active.len()).saturating_sub(1) {
            let growth = active[r + 1] as f64 / active[r].max(1) as f64;
            assert!(
                growth > d / 16.0,
                "round {}: growth {growth} < d/16 = {}",
                r + 1,
                d / 16.0
            );
        }
    }

    #[test]
    fn growth_series_matches_the_phase1_transmitters_of_the_event_stream() {
        // In Phase 1 the nodes first informed in round r are exactly the
        // transmitters of round r + 1: every active node transmits in its
        // next round, and only receivers become active. Checked against
        // the engine's own `RoundEnd` counts for every Phase-1 round
        // r < T, under v1 (the series `run_ee_broadcast_growth` returns)
        // and under v2 at 1 and 3 threads, every parallel path forced.
        use radio_sim::trace::{RingSink, TraceEvent};
        use radio_sim::Engine;

        fn transmitters_per_round(sink: &RingSink) -> Vec<u64> {
            sink.rounds()
                .map(|r| match r.events.last() {
                    Some(&TraceEvent::RoundEnd { transmitters, .. }) => transmitters,
                    other => panic!("round {} ends with {other:?}", r.round),
                })
                .collect()
        }

        let mut checks = 0;
        for (n, d) in [(4096usize, 16.0), (4096, 32.0), (8192, 16.0), (8192, 32.0)] {
            let p = d / n as f64;
            let cfg = EeBroadcastConfig::for_gnp(n, p);
            let t = cfg.params.t as usize;
            assert!(t >= 2, "n = {n}, d = {d}: T = {t}");
            let g = gnp_directed(n, p, &mut derive_rng(n as u64, b"alg1-growth", d as u64));
            let engine_cfg = |threads| {
                EngineConfig {
                    par_min_edges: 0,
                    par_min_edges_implicit: 0,
                    par_min_awake: 0,
                    ..EngineConfig::with_max_rounds(cfg.schedule_end() + 2)
                }
                .with_threads(threads)
            };
            for seed in 0..2 {
                let (out, growth) = run_ee_broadcast_growth(&g, 0, &cfg, seed);
                let mut sink = RingSink::new(usize::MAX);
                let mut protocol = EeRandomBroadcast::new(n, 0, cfg);
                let run = Engine::new(&g, engine_cfg(1))
                    .run(&mut protocol)
                    .sink(&mut sink)
                    .v1(&mut derive_rng(seed, b"engine", 0));
                assert_eq!(run.metrics, out.metrics, "v1 twin of the growth run");
                let mut cases = vec![(growth, transmitters_per_round(&sink))];
                for threads in [1, 3] {
                    let mut sink = RingSink::new(usize::MAX);
                    let mut protocol = EeRandomBroadcast::new(n, 0, cfg);
                    let run = Engine::new(&g, engine_cfg(threads))
                        .run(&mut protocol)
                        .sink(&mut sink)
                        .v2(seed);
                    let growth = protocol.first_informed_per_round(run.rounds);
                    cases.push((growth, transmitters_per_round(&sink)));
                }
                for (growth, transmitters) in cases {
                    assert_eq!(growth.len(), transmitters.len());
                    for r in 1..t {
                        assert_eq!(
                            growth[r - 1],
                            transmitters[r],
                            "n = {n}, d = {d}, seed {seed}: first informed in round {r}"
                        );
                        checks += 1;
                    }
                }
            }
        }
        assert_eq!(checks, 36);
    }

    #[test]
    fn deterministic_per_seed() {
        let (g, cfg) = sparse_instance(512, 8.0, 1);
        let a = run_ee_broadcast(&g, 0, &cfg, 11);
        let b = run_ee_broadcast(&g, 0, &cfg, 11);
        assert_eq!(a.broadcast_time, b.broadcast_time);
        assert_eq!(a.metrics.per_node(), b.metrics.per_node());
    }

    #[test]
    fn fused_v2_informs_everyone_and_keeps_the_invariant() {
        // The v2 contract must preserve Algorithm 1's structure: w.h.p.
        // completion on sparse Gnp and the ≤ 1-transmission invariant
        // (which is structural, so it holds on *every* run).
        for seed in 0..5 {
            let (g, cfg) = sparse_instance(1024, 8.0, seed);
            let mut protocol = EeRandomBroadcast::new(g.n(), 0, cfg);
            let engine_cfg = EngineConfig::with_max_rounds(cfg.schedule_end() + 2);
            let run = run_protocol_fused(&g, &mut protocol, engine_cfg, seed);
            let out = BroadcastOutcome::from_run(g.n(), &protocol, run);
            assert!(
                out.all_informed,
                "seed {seed}: {}/{} informed",
                out.informed, out.n
            );
            assert!(out.max_msgs_per_node() <= 1);
        }
    }

    #[test]
    fn fused_v2_is_bit_identical_across_thread_counts() {
        let (g, cfg) = sparse_instance(512, 8.0, 21);
        let run_at = |threads: usize| {
            let mut protocol = EeRandomBroadcast::new(512, 0, cfg);
            let engine_cfg = EngineConfig {
                par_min_edges: 0,
                par_min_awake: 0, // force the parallel decide path
                ..EngineConfig::with_max_rounds(cfg.schedule_end() + 2)
            };
            let run = run_protocol_fused(&g, &mut protocol, engine_cfg.with_threads(threads), 9);
            (run.rounds, run.metrics, protocol.informed_count())
        };
        let serial = run_at(1);
        for threads in [2, 8] {
            assert_eq!(serial, run_at(threads), "{threads} threads diverged");
        }
    }

    #[test]
    #[should_panic]
    fn config_graph_size_mismatch_panics() {
        let (g, _) = sparse_instance(256, 6.0, 0);
        let cfg = EeBroadcastConfig::for_gnp(512, 0.05);
        let _ = EeRandomBroadcast::new(g.n(), 0, cfg);
    }
}
