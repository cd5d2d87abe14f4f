//! Round-synchronous radio-network simulation.
//!
//! Implements exactly the communication model of the paper's §1.2:
//!
//! * Time proceeds in synchronous rounds.
//! * In each round every node independently decides to transmit or stay
//!   silent (no carrier sensing, no acknowledgements — the paper
//!   explicitly rules out acknowledgement-based protocols).
//! * A node `v` **receives** a message iff **exactly one** of its
//!   in-neighbours transmits in that round; two or more simultaneous
//!   transmissions in `v`'s range *collide* and `v` hears nothing (and
//!   cannot even detect that a collision happened).
//! * Energy = number of transmissions, tallied in [`Metrics`].
//!
//! Algorithms are [`Protocol`] implementations — per-node state machines
//! polled once per round. The engine keeps an *awake set* so that rounds
//! cost `O(awake + Σ out-degree(transmitters))`, not `O(n)`: a node that
//! returns [`Action::Sleep`] (the paper's *passive* state) leaves the poll
//! list and re-enters it only if a later reception wakes it.
//!
//! Every run goes through one builder on one round loop:
//! `Engine::new(&graph, cfg).run(&mut protocol)`, optionally
//! `.energy(&mut session)`, `.sink(&mut sink)` and
//! `.schedule(rest, switch_every)`, then a terminal `.v1(&mut rng)`
//! or `.v2(run_seed)` that picks the determinism contract — see
//! [`Run`]. A schedule is lazy: the engine's graph is epoch 0, and the
//! loop pulls one snapshot from `rest` when the round that starts each
//! later epoch begins — never earlier — so a dynamic-topology run builds
//! only the snapshots of the epochs it reaches ([`Run::schedule`]).
//!
//! Determinism: a run is a pure function of `(graph, protocol, config,
//! seed)`. Under the v1 contract ([`Run::v1`]) the engine consumes one
//! [`rand_chacha::ChaCha8Rng`]; protocols draw from it only inside
//! `decide`/`on_receive`, in a fixed polling order, so every run is
//! exactly reproducible. [`reference`](mod@reference) contains a
//! deliberately naive O(n·deg) second implementation of the collision
//! semantics — the one oracle the optimised engine is differentially
//! tested against, energy overlay included.
//!
//! [`sweep`] turns the "many seeded trials over a parameter grid"
//! pattern into a declarative object: cells of
//! `n × algorithm × graph-family × p`, rayon fan-out with per-trial
//! ChaCha8 streams, and deterministic JSON reports under `results/`.
//! [`trials::parallel_trials`] remains as the low-level free-form
//! fan-out underneath it.
//!
//! Parallelism also reaches *inside* a single run: the engine's
//! scatter/collision phase — the dominant cost at scale — fans out over
//! [`EngineConfig::threads`] workers, each generating one shard of the
//! round's transmitters' rows ([`engine::scatter_plan`] sizes the
//! fan-out per round and backend), with runs bit-identical for every
//! thread count. Sweeps over huge cells
//! trade trial-level for run-level parallelism via
//! [`Sweep::with_threads_per_run`].
//!
//! The **v2 determinism contract** ([`streams`], [`Run::v2`]) goes
//! further: protocols that split their decision into a pure half and a
//! commit half ([`FusedDecide`]) draw every coin flip from a
//! counter-based per-node stream keyed by `(run_seed, node)` with the
//! round as block counter — so the decide phase itself fans out across
//! the workers, removing the serial-RNG Amdahl cap, still bit-identical
//! for every thread count by construction. v1 and v2 runs of the same
//! seed differ (statistically equivalently); `tests/v2_equivalence.rs`
//! cross-validates the contracts against the frozen
//! [`reference`](mod@reference) oracle.
//!
//! The paper's transmissions-only energy measure generalises through the
//! [`energy`] overlay (`radio-energy`): a run with [`Run::energy`]
//! attached charges a pluggable [`EnergyModel`] per round
//! (transmit / receive / idle-listen / sleep, with the sleep state driven
//! by [`Protocol::radio_off`]), optionally drain finite [`Battery`]
//! capacities whose depletion turns nodes fail-stop dead (composing with
//! [`fault::CrashPlan`] semantics), and report [`EnergyMetrics`]
//! alongside the usual [`Metrics`]. With the default `TxOnly` model the
//! overlay is a passthrough: per-round charging is skipped and reported
//! energy equals the transmission counts bit-for-bit.

pub mod engine;
pub mod fault;
pub mod metrics;
pub mod reference;
pub mod streams;
pub mod sweep;
pub mod trials;

/// The pluggable energy subsystem (`radio-energy`), re-exported: duty
/// states, energy models, batteries, and the per-run accounting session
/// a run's [`Run::energy`] hook drives.
pub use radio_energy as energy;

/// The structured trace subsystem (`radio-trace`), re-exported: the
/// [`TraceSink`](radio_trace::TraceSink) hook a run's [`Run::sink`]
/// drives, the `.rtrc` recording sinks/reader, replay
/// verification, and first-divergence diffing.
pub use radio_trace as trace;

pub use engine::{
    run_protocol_fused, run_protocol_fused_traced, scatter_plan, EnergyRunResult, Engine,
    EngineConfig, Run, RunResult,
};
pub use fault::{CrashPlan, Faulty};
pub use metrics::{EnergyMetrics, Metrics};
pub use radio_energy::{
    Battery, Duty, EnergyModel, EnergySession, FadingRadio, LinearRadio, TxOnly,
};
pub use streams::DecideStreams;
pub use sweep::{
    CellResults, CellSummary, Sweep, SweepCell, SweepReport, TracePlan, TrialEnergy, TrialResult,
};
pub use trials::parallel_trials;

use rand_chacha::ChaCha8Rng;

use radio_graph::NodeId;

/// A node's decision for the current round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Stay silent this round; remain on the poll list.
    Silent,
    /// Transmit this round (the payload is fetched via
    /// [`Protocol::payload`]); remain on the poll list.
    Transmit,
    /// Become *passive*: never poll this node again unless a future
    /// reception wakes it. The paper's broadcast algorithms use this to
    /// enforce their energy budgets.
    Sleep,
}

/// A per-node distributed algorithm in the radio model.
///
/// The engine polls `decide` once per round for every awake node, in
/// awake-list order: the initially awake first, then nodes in the order
/// receptions woke them (flooding from node 5 on a path, round 2 polls
/// 5, 4, 6). It gathers the transmitters, applies the collision rule,
/// then calls `on_receive` for each collision-free reception — delivery
/// alone is in ascending receiver order. All randomness must come from
/// the provided RNG so runs stay reproducible.
pub trait Protocol {
    /// Transmission payload. `()` for pure broadcast (the rumor is
    /// implicit); a rumor [`radio_util::BitSet`] for gossip.
    type Msg: Clone + Send;

    /// Nodes that are awake before round 1 (e.g. the broadcast source).
    fn initially_awake(&self) -> Vec<NodeId>;

    /// Per-round decision for an awake node.
    fn decide(&mut self, node: NodeId, round: u64, rng: &mut ChaCha8Rng) -> Action;

    /// Payload for a node that chose [`Action::Transmit`] this round.
    fn payload(&self, node: NodeId, round: u64) -> Self::Msg;

    /// Collision-free delivery of `msg` (sent by `from`) to `node`.
    /// After this call the engine puts `node` back on the poll list.
    fn on_receive(
        &mut self,
        node: NodeId,
        from: NodeId,
        round: u64,
        msg: &Self::Msg,
        rng: &mut ChaCha8Rng,
    );

    /// Global goal test, checked at the end of every round.
    fn is_complete(&self) -> bool;

    /// Number of nodes that hold the broadcast message / all-rumors-goal
    /// progress indicator. Read by the round-cap warning and experiment tables.
    fn informed_count(&self) -> usize;

    /// Number of *active* nodes (informed and still willing to transmit).
    ///
    /// No in-tree protocol tracks it and nothing reads it, the engine
    /// included: Algorithm 1's active-set sizes `|Uₜ|` come from
    /// `radio_core::broadcast::ee_random::run_ee_broadcast_growth`. The
    /// default returns 0; the method stays only so that existing impls
    /// compile.
    fn active_count(&self) -> usize {
        0
    }

    /// Energy-accounting hint: is `node`'s radio powered **off** in
    /// `round`?
    ///
    /// The engine's awake list is a polling optimisation, not a radio
    /// state — a node off the poll list still has its receiver on (a
    /// later reception wakes it) and therefore pays idle-listening cost
    /// under a non-tx-only [`radio_energy::EnergyModel`]. Protocols whose
    /// nodes genuinely power down — a retired windowed node, a passive
    /// Algorithm-1 node that already transmitted, a crashed node — can
    /// override this so the energy overlay charges sleep cost instead.
    ///
    /// The hint affects **energy accounting only**: delivery semantics
    /// are unchanged either way (think of it as a low-power wake-radio
    /// paging channel), so runs stay bit-identical with and without the
    /// overlay, and the overlay-free [`reference`](mod@reference) oracle remains valid.
    /// The default — radio always on — is the physically conservative
    /// choice and the correct one for any protocol that may still need
    /// to receive.
    fn radio_off(&self, _node: NodeId, _round: u64) -> bool {
        false
    }
}

/// Opt-in for the **v2 determinism contract** ([`Run::v2`]): the
/// per-round decision split into a *pure* evaluation half — callable
/// from any worker thread against shared `&self` — and a *serial*
/// commit half that applies the state transition.
///
/// This is the protocol-side of the v2 determinism contract
/// ([`streams::DecideStreams`]): because every node's coin flips come
/// from its own counter-based stream, `decide_pure(v, round, …)` depends
/// only on the protocol state at the start of the round and on `v`'s own
/// draws — never on the order other nodes are evaluated in — so the
/// engine may evaluate nodes concurrently and the result is the same for
/// every thread count.
///
/// # Contract
///
/// * `decide_pure` must be a pure function of `(self, node, round)` and
///   the draws it takes from `rng` (the node's positioned v2 decide
///   stream). It must not mutate anything — the receiver is shared
///   across workers.
/// * A [`Action::Silent`] decision must imply **no state change**; the
///   engine does not call `commit_decide` for silent nodes (this is what
///   keeps the serial half of the round `O(transmitters + sleepers)`
///   instead of `O(awake)`).
/// * `commit_decide` is called serially, in poll (awake-list) order, for
///   every `Transmit`/`Sleep` decision, and must apply exactly the state
///   transition the v1 `decide` would have applied alongside returning
///   that action.
/// * `begin_round` runs serially before any `decide_pure` of the round —
///   the hook for per-round shared state (e.g. expanding Algorithm 3's
///   shared sequence) so `decide_pure` can stay read-only.
///
/// `Sync` is required because workers evaluate `decide_pure` against
/// `&self` concurrently.
pub trait FusedDecide: Protocol + Sync {
    /// Serial per-round preamble; default no-op.
    fn begin_round(&mut self, _round: u64) {}

    /// Pure decision for an awake node (see the trait docs for the
    /// purity contract). `rng` is the node's v2 decide stream, already
    /// positioned at `(node, round)`.
    fn decide_pure(&self, node: NodeId, round: u64, rng: &mut ChaCha8Rng) -> Action;

    /// Serially apply the state transition of a non-`Silent` decision.
    fn commit_decide(&mut self, node: NodeId, round: u64, action: Action);

    /// The two halves glued back together — evaluate the pure half on
    /// `rng` and commit any non-silent decision. Provided once so that
    /// `Protocol::decide` impls can derive the v1 entry point from the
    /// split without re-stating the Silent-implies-no-commit contract
    /// (call [`begin_round`](Self::begin_round)-equivalent preparation
    /// first if the protocol needs it; with matching draw patterns the
    /// result is bit-compatible with a hand-written `decide`).
    fn decide_and_commit(&mut self, node: NodeId, round: u64, rng: &mut ChaCha8Rng) -> Action {
        let action = self.decide_pure(node, round, rng);
        if action != Action::Silent {
            self.commit_decide(node, round, action);
        }
        action
    }
}
