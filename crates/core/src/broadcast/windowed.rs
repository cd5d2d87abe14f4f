//! The shared "active window + per-round send probability" machinery.
//!
//! Most broadcast protocols in this paper family share one skeleton: a
//! node is *active* from the round after it first receives the message
//! until its activity window closes, and in each active round it transmits
//! with a probability `q_r` drawn from some source. The differences are
//! entirely in the [`ProbSource`] and the window length:
//!
//! | Algorithm | source | window |
//! |-----------|--------|--------|
//! | Algorithm 3 (paper) | shared `α` sequence | `β log² n` |
//! | Czumaj–Rytter + stop transform | shared `α'` sequence | `β log² n · λ` |
//! | BGI Decay | deterministic cycle `1, ½, ¼, …` | unbounded (or a budget) |
//! | Probabilistic flooding | fixed `q` | unbounded |
//! | Lower-bound oblivious algorithms (§4.2 model) | private time-invariant distribution | unbounded |

use super::{Broadcast, BroadcastOutcome, InformedSet};
use crate::seq::{KDistribution, SharedSequence};
use radio_graph::{NodeId, Topology};
use radio_sim::{Action, EngineConfig, Protocol};
use rand::{Bernoulli, RngExt};
use rand_chacha::ChaCha8Rng;

/// Where a node's per-round send probability comes from.
//
// `Shared` is much larger than the other variants, but exactly one
// `ProbSource` exists per simulation and `q()` is called every round —
// boxing would trade a one-off size win for a per-round indirection.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum ProbSource {
    /// Common randomness: all nodes see the same `q_r` in round `r`
    /// (Algorithm 3's sequence `I`).
    Shared(SharedSequence),
    /// Deterministic round-robin over a probability cycle (Decay uses
    /// `1, 1/2, …, 2^{−⌈log n⌉}`).
    Cycle(Vec<f64>),
    /// Each node privately draws `k ~ dist` every round (the paper's
    /// §4.2 lower-bound model, and the "what if the sequence is not
    /// shared?" ablation of Algorithm 3).
    Private(KDistribution),
    /// A fixed probability every round.
    Fixed(f64),
}

impl ProbSource {
    /// Serial per-round preamble: materialise any lazily-expanded shared
    /// state (Algorithm 3's sequence, which draws from its *own* stream)
    /// so [`q_pure`](Self::q_pure) can run read-only — on the fused
    /// engine's worker threads, or ahead of the v1 poll sweep.
    fn prepare(&mut self, round: u64) {
        if let ProbSource::Shared(seq) = self {
            seq.ensure(round);
        }
    }

    /// The send probability for `round`, read-only; call
    /// [`prepare`](Self::prepare) for the round first. `Private` draws
    /// from `rng` — the shared serial stream under v1, the node's own
    /// counter-based stream under the fused v2 contract (which makes the
    /// paper's §4.2 model literal: each node privately samples its `k`
    /// every round).
    fn q_pure(&self, round: u64, rng: &mut ChaCha8Rng) -> f64 {
        match self {
            ProbSource::Shared(seq) => seq.q_cached(round),
            ProbSource::Cycle(c) => c[((round - 1) % c.len() as u64) as usize],
            ProbSource::Private(dist) => match dist.sample(rng) {
                Some(k) => 2f64.powi(-(k as i32)),
                None => 0.0,
            },
            ProbSource::Fixed(q) => *q,
        }
    }

    /// The round's probability when it is the same for every node
    /// (everything but `Private`, whose q is a per-node draw).
    fn q_round(&self, round: u64) -> Option<f64> {
        match self {
            ProbSource::Shared(seq) => Some(seq.q_cached(round)),
            ProbSource::Cycle(c) => Some(c[((round - 1) % c.len() as u64) as usize]),
            ProbSource::Private(_) => None,
            ProbSource::Fixed(q) => Some(*q),
        }
    }
}

/// The round's transmit coin, resolved once per round in `begin_round`
/// instead of once per node: the `q ≥ 1` / `q ≤ 0` edge tests and the
/// [`Bernoulli`] threshold precomputation are all per-node constants for
/// every source except `Private`. Draw-for-draw compatible with the
/// inline `q_pure` + `random_bool` path it replaces: `Always`/`Never`
/// consume nothing (the old short-circuits), `Coin` consumes exactly
/// one `next_u64` and returns the identical boolean ([`Bernoulli`]'s
/// documented bit-compatibility).
#[derive(Debug, Clone, Copy)]
enum RoundCoin {
    /// `Private` source: q is a per-node draw; use the generic path.
    PerNode,
    /// `q ≥ 1` this round — transmit without drawing.
    Always,
    /// `q ≤ 0` this round — stay silent without drawing.
    Never,
    /// `0 < q < 1` — one precomputed-threshold draw per node.
    Coin(Bernoulli),
}

impl RoundCoin {
    fn for_round(source: &ProbSource, round: u64) -> Self {
        match source.q_round(round) {
            None => RoundCoin::PerNode,
            Some(q) if q >= 1.0 => RoundCoin::Always,
            Some(q) if q <= 0.0 => RoundCoin::Never,
            Some(q) => RoundCoin::Coin(Bernoulli::new(q)),
        }
    }
}

/// Full specification of a windowed broadcast protocol.
#[derive(Debug, Clone)]
pub struct WindowedSpec {
    /// Per-round probability source.
    pub source: ProbSource,
    /// Active window in rounds counted from the informing round `t_u`
    /// (a node is active in rounds `t_u + 1 ..= t_u + window`).
    /// `None` = active forever.
    pub window: Option<u64>,
    /// Stop the simulation the moment everyone is informed (time
    /// measurement) instead of running the full energy schedule.
    pub early_stop: bool,
}

/// The protocol state machine.
#[derive(Debug)]
pub struct WindowedBroadcast {
    spec: WindowedSpec,
    informed: InformedSet,
    source: NodeId,
    /// This round's transmit coin (set by `begin_round`; `PerNode`
    /// until then, which is the always-correct generic path).
    coin: RoundCoin,
}

impl WindowedBroadcast {
    /// Build for a broadcast from `source` on an `n`-node network.
    pub fn new(n: usize, source: NodeId, spec: WindowedSpec) -> Self {
        WindowedBroadcast {
            spec,
            informed: InformedSet::new(n, source),
            source,
            coin: RoundCoin::PerNode,
        }
    }

    /// Round in which `v` was informed (`u64::MAX` if never; 0 = source).
    pub fn informed_round(&self, v: NodeId) -> u64 {
        self.informed.informed_round(v)
    }
}

impl Protocol for WindowedBroadcast {
    type Msg = ();

    fn initially_awake(&self) -> Vec<NodeId> {
        vec![self.source]
    }

    fn decide(&mut self, node: NodeId, round: u64, rng: &mut ChaCha8Rng) -> Action {
        // One copy of the decision logic: the v1 entry point is the
        // pure half plus the commit half over the shared serial stream.
        // The draw pattern matches the pre-split code exactly (the
        // shared sequence expands from its own stream; `Private`
        // samples from `rng`), so v1 trajectories stay bit-compatible.
        // `begin_round` is idempotent — re-running it per poll just
        // recomputes the same round coin.
        radio_sim::FusedDecide::begin_round(self, round);
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
        self.informed.inform(node, round);
    }

    fn is_complete(&self) -> bool {
        self.spec.early_stop && self.informed.all()
    }

    fn informed_count(&self) -> usize {
        self.informed.count()
    }

    fn radio_off(&self, node: NodeId, round: u64) -> bool {
        // A retired node (window expired) powers its radio down: it holds
        // the message, will never transmit again, and gains nothing from
        // listening. Nodes without a window — and all uninformed nodes,
        // which must listen to ever be informed — keep the receiver on.
        match self.spec.window {
            Some(w) => {
                let t_u = self.informed.informed_round(node);
                t_u != u64::MAX && round > t_u + w
            }
            None => false,
        }
    }
}

impl radio_sim::FusedDecide for WindowedBroadcast {
    fn begin_round(&mut self, round: u64) {
        self.spec.source.prepare(round);
        self.coin = RoundCoin::for_round(&self.spec.source, round);
    }

    fn decide_pure(&self, node: NodeId, round: u64, rng: &mut ChaCha8Rng) -> Action {
        assert!(
            self.informed.is_informed(node),
            "uninformed node was polled"
        );
        let t_u = self.informed.informed_round(node);
        if let Some(w) = self.spec.window {
            if round > t_u + w {
                return Action::Sleep;
            }
        }
        match self.coin {
            RoundCoin::Always => Action::Transmit,
            RoundCoin::Never => Action::Silent,
            RoundCoin::Coin(b) => {
                if b.sample(rng) {
                    Action::Transmit
                } else {
                    Action::Silent
                }
            }
            RoundCoin::PerNode => {
                let q = self.spec.source.q_pure(round, rng);
                if q >= 1.0 || (q > 0.0 && rng.random_bool(q)) {
                    Action::Transmit
                } else {
                    Action::Silent
                }
            }
        }
    }

    /// A no-op: retirement is a function of the informed round, which
    /// `decide_pure` reads, so no decision changes a windowed node's
    /// state.
    fn commit_decide(&mut self, _node: NodeId, _round: u64, _action: Action) {}
}

impl Broadcast for WindowedBroadcast {
    fn broadcast_time(&self) -> Option<u64> {
        self.informed.complete_round()
    }
}

/// A windowed broadcast under the **v2 determinism contract**
/// ([`radio_sim::Run::v2`]): every node's coin flips come from
/// its own counter-based stream derived from `(run_seed, node)`, so the
/// run is bit-identical for every engine thread count — including
/// `engine_cfg.threads > 1`, where the decide phase itself fans out.
/// Statistically equivalent to (but not bit-compatible with) the v1
/// [`super::run_v1`] on the same seed; `tests/v2_equivalence.rs`
/// cross-validates the two.
pub fn run_windowed_fused<T: Topology>(
    graph: &T,
    source: NodeId,
    spec: WindowedSpec,
    engine_cfg: EngineConfig,
    run_seed: u64,
) -> BroadcastOutcome {
    let mut protocol = WindowedBroadcast::new(graph.n(), source, spec);
    let run = radio_sim::engine::run_protocol_fused(graph, &mut protocol, engine_cfg, run_seed);
    BroadcastOutcome::from_run(graph.n(), &protocol, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broadcast::run_v1;
    use radio_graph::generate::path;
    use radio_graph::DiGraph;

    /// A v1 windowed broadcast from node 0.
    fn run(g: &DiGraph, spec: WindowedSpec, max_rounds: u64, seed: u64) -> BroadcastOutcome {
        run_v1(
            g,
            &mut WindowedBroadcast::new(g.n(), 0, spec),
            max_rounds,
            seed,
        )
    }

    fn fixed_spec(q: f64, window: Option<u64>) -> WindowedSpec {
        WindowedSpec {
            source: ProbSource::Fixed(q),
            window,
            early_stop: true,
        }
    }

    #[test]
    fn fixed_prob_one_crosses_path() {
        let g = path(12);
        let out = run(&g, fixed_spec(1.0, None), 100, 1);
        assert!(out.all_informed);
        assert_eq!(out.broadcast_time, Some(11));
    }

    #[test]
    fn window_caps_activity_and_energy() {
        // Window 1: each node transmits at most 1 round; with q = 1 the
        // message still crosses (each frontier node gets one shot).
        let g = path(8);
        let spec = WindowedSpec {
            source: ProbSource::Fixed(1.0),
            window: Some(1),
            early_stop: false,
        };
        let out = run(&g, spec, 100, 2);
        assert!(out.all_informed);
        assert!(out.max_msgs_per_node() <= 1);
    }

    #[test]
    fn zero_prob_never_informs() {
        let g = path(4);
        let spec = WindowedSpec {
            source: ProbSource::Fixed(0.0),
            window: Some(5),
            early_stop: true,
        };
        let out = run(&g, spec, 50, 3);
        assert!(!out.all_informed);
        assert_eq!(out.informed, 1);
        assert_eq!(out.metrics.total_transmissions(), 0);
        // Source retires after its window → quiescence, not round cap.
        assert!(out.rounds_executed <= 7);
    }

    #[test]
    fn cycle_source_round_robins() {
        let mut src = ProbSource::Cycle(vec![1.0, 0.5, 0.25]);
        let mut rng = radio_util::derive_rng(0, b"t", 0);
        for (round, expect) in [(1, 1.0), (2, 0.5), (3, 0.25), (4, 1.0)] {
            src.prepare(round);
            assert_eq!(src.q_pure(round, &mut rng), expect);
        }
    }

    #[test]
    fn fused_v2_crosses_path_and_respects_windows() {
        // q = 1 with window 1: the fused run must reproduce the windowed
        // semantics exactly (one shot per node, message still crosses).
        let g = path(8);
        let spec = WindowedSpec {
            source: ProbSource::Fixed(1.0),
            window: Some(1),
            early_stop: false,
        };
        let out = run_windowed_fused(&g, 0, spec, EngineConfig::with_max_rounds(100), 5);
        assert!(out.all_informed);
        assert!(out.max_msgs_per_node() <= 1);
    }

    #[test]
    fn fused_v2_all_prob_sources_run_and_are_seed_deterministic() {
        use crate::seq::{KDistribution, SharedSequence};
        let g = path(16);
        let dist = KDistribution::paper_alpha(16, 3.0);
        let sources: Vec<ProbSource> = vec![
            ProbSource::Fixed(0.6),
            ProbSource::Cycle(vec![1.0, 0.5, 0.25]),
            ProbSource::Shared(SharedSequence::new(dist.clone(), 77)),
            ProbSource::Private(dist),
        ];
        for source in sources {
            let spec = WindowedSpec {
                source,
                window: None,
                early_stop: true,
            };
            let run = |seed: u64| {
                let out = run_windowed_fused(
                    &g,
                    0,
                    spec.clone(),
                    EngineConfig::with_max_rounds(5000),
                    seed,
                );
                (out.broadcast_time, out.metrics.total_transmissions())
            };
            assert_eq!(run(3), run(3));
        }
    }

    #[test]
    fn deterministic_outcome_per_seed() {
        let g = path(20);
        let outcome = |seed| {
            let out = run(&g, fixed_spec(0.6, None), 2000, seed);
            (out.broadcast_time, out.metrics.total_transmissions())
        };
        assert_eq!(outcome(7), outcome(7));
        assert_ne!(outcome(7), outcome(8));
    }
}
