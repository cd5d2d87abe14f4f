//! The optimised simulation engine: one round loop behind one run
//! builder.
//!
//! [`Engine::run`] starts a [`Run`]; the optional hooks [`Run::energy`],
//! [`Run::sink`] and [`Run::schedule`] attach an energy overlay, a trace
//! sink and a changing topology; the terminal [`Run::v1`] or [`Run::v2`]
//! picks the determinism contract and executes the run. Both contracts
//! drive the same round loop (`Engine::run_loop`); they differ only in
//! where the coin flips come from (the private `StreamContract`).

use crate::metrics::{EnergyMetrics, Metrics};
use crate::streams::DecideStreams;
use crate::{Action, FusedDecide, Protocol};
use hook::{EnergyHook, Epochs, TopologySchedule};
use radio_energy::{Duty, EnergySession};
use radio_graph::{DiGraph, NodeId, RangeQueryCost, Topology};
use radio_trace::{NullSink, TraceEvent, TraceSink};
use rand_chacha::ChaCha8Rng;
use std::borrow::Borrow;
use std::sync::atomic::{AtomicU32, Ordering};

/// Engine knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Hard round cap; a run that has not completed by then reports
    /// `completed = false` and `hit_round_cap = true`.
    pub max_rounds: u64,
    /// Half-duplex radios (default, the standard radio model): a node
    /// that transmits in round `t` cannot also receive in round `t`.
    pub half_duplex: bool,
    /// Log to stderr when a run stops at `max_rounds` without completing.
    /// Defaults to `true` under [`EngineConfig::default`] (whose huge cap
    /// would otherwise silently mask non-terminating protocols) and
    /// `false` under [`EngineConfig::with_max_rounds`] (a deliberately
    /// chosen budget, e.g. a fixed-length schedule that always runs to
    /// its cap).
    pub warn_on_round_cap: bool,
    /// Worker threads for the *intra-run* parallel phases (`1` = fully
    /// serial, the default), and the only way to set a run's worker
    /// count: the scatter/collision phase, sharded by transmitter over
    /// as many workers as [`scatter_plan`] gives the round, and — under
    /// the v2 contract ([`Run::v2`]) — the decide phase, fanned out over
    /// awake-list chunks. Every fan-out reproduces the serial outcome,
    /// so any thread count produces bit-identical runs — see [`Run`] for
    /// the determinism contracts.
    pub threads: usize,
    /// Minimum per-round edge volume (Σ out-degree over the round's
    /// transmitters) before the scatter fans out on a backend that
    /// stores its rows ([`RangeQueryCost::Narrowed`], CSR); below it the
    /// round stays serial because the scoped-thread spawns and the
    /// delivery sweep's fold of every worker's hit set would beat the
    /// parallel savings. Purely a performance threshold — every worker
    /// count computes identical state, so it never affects results.
    /// Tests force the parallel path with `0`.
    pub par_min_edges: u64,
    /// Minimum per-round edge volume before the scatter fans out on a
    /// backend that regenerates its rows on every query
    /// ([`RangeQueryCost::FullRowReplay`], the implicit backends). Lower
    /// than [`par_min_edges`]: there `degree_hint` is an upper-bound
    /// estimate and each edge carries row-generation work, so the
    /// fan-out pays sooner for its spawns and for the fold — O(t·⌈n/64⌉)
    /// words per fanned-out round. Purely a performance threshold, like
    /// [`par_min_edges`]; tests force the parallel path with `0`.
    ///
    /// [`par_min_edges`]: EngineConfig::par_min_edges
    pub par_min_edges_implicit: u64,
    /// Minimum awake-list length before the v2 decide phase
    /// ([`Run::v2`]) fans out; below it the round's
    /// decisions are evaluated serially. Like [`par_min_edges`] this is
    /// purely a performance threshold — the per-node v2 streams make the
    /// decisions order-independent, so it can never affect results.
    /// Tests force the parallel path with `0`.
    ///
    /// [`par_min_edges`]: EngineConfig::par_min_edges
    pub par_min_awake: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_rounds: 1_000_000,
            half_duplex: true,
            warn_on_round_cap: true,
            threads: 1,
            par_min_edges: PAR_SCATTER_MIN_EDGES,
            par_min_edges_implicit: PAR_SCATTER_MIN_EDGES_IMPLICIT,
            par_min_awake: PAR_DECIDE_MIN_AWAKE,
        }
    }
}

impl EngineConfig {
    /// Config with a deliberately chosen round cap and defaults
    /// otherwise; cap-hit warnings are off (hitting a chosen budget is an
    /// expected outcome, not a masked hang).
    pub fn with_max_rounds(max_rounds: u64) -> Self {
        EngineConfig {
            max_rounds,
            warn_on_round_cap: false,
            ..Default::default()
        }
    }

    /// Override the cap-hit warning.
    pub fn warn_on_cap(mut self, warn: bool) -> Self {
        self.warn_on_round_cap = warn;
        self
    }

    /// Set the intra-run worker count (chainable): the scatter fan-out
    /// under both contracts and, under v2 ([`Run::v2`]), the decide
    /// fan-out too — see [`EngineConfig::threads`]. Every run honors it,
    /// including the wrappers that take an `EngineConfig`, and the
    /// result is bit-identical for every value, so sweeps can trade
    /// trial-level for run-level parallelism freely.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "threads must be at least 1");
        self.threads = threads;
        self
    }
}

/// Result of one simulation run.
///
/// `PartialEq` compares every field (rounds, completion flags, full
/// per-node metrics) — the equality the CSR-vs-implicit topology
/// equivalence tests assert bit-for-bit. Per-round history: [`Run::sink`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Rounds executed (equals the completion round, or `max_rounds`).
    pub rounds: u64,
    /// Whether [`Protocol::is_complete`] turned true within the cap.
    pub completed: bool,
    /// The run was cut off by `max_rounds` while still incomplete — the
    /// protocol may not terminate at all. Sweeps count these per cell.
    pub hit_round_cap: bool,
    /// Energy accounting.
    pub metrics: Metrics,
}

/// Result of one simulation run under an energy overlay
/// ([`Run::energy`]): the plain [`RunResult`] plus the model-based
/// energy report.
#[derive(Debug, Clone)]
pub struct EnergyRunResult {
    /// The underlying run. With no battery attached it is bit-identical
    /// to the same run without the overlay (energy models never touch
    /// the protocol RNG or delivery semantics).
    pub run: RunResult,
    /// Model-based energy accounting (total/max/mean energy, residual
    /// charge, depletion rounds).
    pub energy: EnergyMetrics,
    /// The run was stopped by the session's
    /// [`with_halt_on_depletion`](EnergySession::with_halt_on_depletion)
    /// request at the end of the first-depletion round.
    pub stopped_on_depletion: bool,
}

/// The energy hook, sealed: a public trait in a private module, so the
/// run builder's bounds can name it while no type outside this module
/// implements it.
mod hook {
    use super::{EnergyRunResult, RunResult};
    use crate::Protocol;
    use radio_energy::{Duty, EnergySession};
    use radio_graph::{NodeId, Topology};
    use std::borrow::Borrow;

    /// Per-round energy integration point of the round loop, and the
    /// shape of the run's result. Monomorphized: the `()` instantiation
    /// (no overlay) compiles to the plain loop, because every call site
    /// is gated on the `ACTIVE` const.
    pub trait EnergyHook: Sync {
        /// Whether this hook does anything at all.
        const ACTIVE: bool;
        /// What the run returns.
        type Output;
        /// Run start: check the node count and reset the accounting.
        fn begin(&mut self, n: usize);
        /// Run end: package the result; `halted` is whether the hook
        /// stopped the run.
        fn finish(self, run: RunResult, halted: bool) -> Self::Output;
        /// Is `node` fail-stop dead (battery depleted before `round`)?
        fn is_dead(&self, node: NodeId, round: u64) -> bool;
        /// Charge `node` for `duty` in `round`.
        fn charge(&mut self, node: NodeId, duty: Duty, round: u64);
        /// End-of-round accounting (idle/sleep sweep); `true` requests an
        /// engine stop (network-lifetime halt).
        fn end_round<P: Protocol>(&mut self, round: u64, protocol: &P) -> bool;
        /// Keep ticking (charging idle/sleep rounds) past protocol
        /// quiescence, up to the round cap.
        fn charge_to_cap(&self) -> bool;
    }

    /// No overlay: the run returns its plain [`RunResult`].
    impl EnergyHook for () {
        const ACTIVE: bool = false;
        type Output = RunResult;
        #[inline(always)]
        fn begin(&mut self, _n: usize) {}
        #[inline(always)]
        fn finish(self, run: RunResult, _halted: bool) -> RunResult {
            run
        }
        #[inline(always)]
        fn is_dead(&self, _node: NodeId, _round: u64) -> bool {
            false
        }
        #[inline(always)]
        fn charge(&mut self, _node: NodeId, _duty: Duty, _round: u64) {}
        #[inline(always)]
        fn end_round<P: Protocol>(&mut self, _round: u64, _protocol: &P) -> bool {
            false
        }
        #[inline(always)]
        fn charge_to_cap(&self) -> bool {
            false
        }
    }

    /// The overlay: the run returns an [`EnergyRunResult`].
    impl EnergyHook for &mut EnergySession {
        const ACTIVE: bool = true;
        type Output = EnergyRunResult;
        fn begin(&mut self, n: usize) {
            assert_eq!(
                self.n(),
                n,
                "energy session node count must match the graph"
            );
            EnergySession::begin(self);
        }
        fn finish(self, run: RunResult, stopped_on_depletion: bool) -> EnergyRunResult {
            let energy = self.finalize(run.metrics.per_node());
            EnergyRunResult {
                run,
                energy,
                stopped_on_depletion,
            }
        }
        #[inline]
        fn is_dead(&self, node: NodeId, round: u64) -> bool {
            EnergySession::is_dead(self, node, round)
        }
        #[inline]
        fn charge(&mut self, node: NodeId, duty: Duty, round: u64) {
            EnergySession::charge(self, node, duty, round);
        }
        fn end_round<P: Protocol>(&mut self, round: u64, protocol: &P) -> bool {
            self.sweep_round(round, |v| protocol.radio_off(v, round));
            self.should_halt()
        }
        #[inline]
        fn charge_to_cap(&self) -> bool {
            EnergySession::charge_to_cap(self)
        }
    }

    /// Per-round topology source of the round loop. Monomorphized: the
    /// `()` instantiation (no schedule) hands back the engine's own
    /// graph, so a run without `.schedule(..)` compiles to the static
    /// loop.
    pub trait TopologySchedule<T> {
        /// The topology `round` runs on; `base` is the engine's own
        /// graph, which serves epoch 0.
        fn topology<'a>(&'a mut self, round: u64, base: &'a T) -> &'a T;
    }

    /// No schedule: every round runs on the engine's graph.
    impl<T> TopologySchedule<T> for () {
        #[inline(always)]
        fn topology<'a>(&'a mut self, _round: u64, base: &'a T) -> &'a T {
            base
        }
    }

    /// A lazy schedule: the engine's graph serves epoch 0, and `rest`
    /// supplies epochs 1, 2, …, each pulled when the round that starts
    /// it begins.
    pub struct Epochs<I: Iterator> {
        /// The snapshots still to come; `None` once `rest` has ended.
        rest: Option<I>,
        /// The current epoch's snapshot; `None` during epoch 0.
        current: Option<I::Item>,
        /// Rounds per epoch.
        every: u64,
        /// The round that starts the next epoch.
        next_epoch: u64,
    }

    impl<I: Iterator> Epochs<I> {
        pub(super) fn new(rest: I, every: u64) -> Self {
            Epochs {
                rest: Some(rest),
                current: None,
                every,
                next_epoch: every.saturating_add(1),
            }
        }
    }

    impl<T: Topology, I: Iterator> TopologySchedule<T> for Epochs<I>
    where
        I::Item: Borrow<T>,
    {
        fn topology<'a>(&'a mut self, round: u64, base: &'a T) -> &'a T {
            if round == self.next_epoch {
                self.next_epoch = self.next_epoch.saturating_add(self.every);
                match self.rest.as_mut().and_then(Iterator::next) {
                    Some(snapshot) => {
                        assert!(
                            snapshot.borrow().n() == base.n(),
                            "every topology snapshot must have the engine's node count"
                        );
                        self.current = Some(snapshot);
                    }
                    // Ended: stay on the last snapshot for good.
                    None => self.rest = None,
                }
            }
            self.current.as_ref().map_or(base, Borrow::borrow)
        }
    }
}

/// Default for [`EngineConfig::par_min_edges`].
const PAR_SCATTER_MIN_EDGES: u64 = 8_192;

/// Default for [`EngineConfig::par_min_edges_implicit`]. Implicit rows
/// cost generation work per edge (a ChaCha draw or a bucket scan, not a
/// cache-line read), so the scoped-thread spawns amortize at roughly a
/// quarter of the CSR threshold.
const PAR_SCATTER_MIN_EDGES_IMPLICIT: u64 = 2_048;

/// Default for [`EngineConfig::par_min_awake`]. The batched decide
/// costs ~15 ns per awake node in the steady state (`decide_phase/v2_warm`
/// bench: 10 000 nodes, one Bernoulli coin each) and ~46 ns per awake
/// node-round on a traced 1-thread `alg1_csr` run at n = 2¹⁷, where node
/// state misses cache (both on a 2-vCPU Intel Xeon host). A round at
/// this threshold thus holds ≥ ~30 µs of decide work to set against the
/// per-round scoped-thread spawns; whether the fan-out wins is
/// host-dependent, so measure before lowering it.
const PAR_DECIDE_MIN_AWAKE: usize = 2_048;

/// How many transmitter-shard workers one scatter round uses, `1`
/// meaning serial — a pure function of the config, the backend's
/// [`RangeQueryCost`] hint and the round's shape, so the heuristic is
/// testable in isolation. The hint picks the edge threshold: stored
/// rows ([`RangeQueryCost::Narrowed`], CSR) gate on [`par_min_edges`],
/// rows regenerated on every query ([`RangeQueryCost::FullRowReplay`])
/// on the lower [`par_min_edges_implicit`], because their `degree_hint`
/// is an upper-bound estimate and every edge carries generation work.
/// Never affects results — every worker count yields the same collision
/// state for the delivery sweep.
///
/// The count is capped at the transmitter count (more workers would
/// idle with empty shards) and at ⌈n/64⌉ (each worker adds that many
/// bitmap words to the delivery sweep's fold). A single thread, a
/// single transmitter or a graph of at most 64 nodes scatters serially.
///
/// [`par_min_edges`]: EngineConfig::par_min_edges
/// [`par_min_edges_implicit`]: EngineConfig::par_min_edges_implicit
pub fn scatter_plan(
    cfg: &EngineConfig,
    cost: RangeQueryCost,
    threads: usize,
    n: usize,
    transmitters: usize,
    edges: u64,
) -> usize {
    let words = n.div_ceil(64);
    if threads <= 1 || transmitters <= 1 || words <= 1 {
        return 1;
    }
    let min_edges = match cost {
        RangeQueryCost::Narrowed => cfg.par_min_edges,
        RangeQueryCost::FullRowReplay => cfg.par_min_edges_implicit,
    };
    if edges < min_edges {
        return 1;
    }
    threads.min(words).min(transmitters)
}

/// A non-silent outcome of the decide phase, tagged onto the node it
/// belongs to. Both contracts emit `(node, event)` pairs in poll order;
/// silent nodes emit nothing, which is what keeps the serial commit sweep
/// sparse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DecideEvent {
    /// The node transmits this round (commit + metrics + duty charge).
    Transmit,
    /// The node goes to sleep (commit + awake-bookkeeping).
    Sleep,
    /// The node's battery ran out in an earlier round: fail-stop, off the
    /// poll list for good, no protocol commit.
    Dead,
}

/// Where a node stands in a v2 run: on the awake list or not, and
/// whether its `node_keys` entry was derived for this run's seed. The
/// key cache rests on one invariant: `state != Unkeyed` ⇒
/// `node_keys[v] == streams.node_key(v)` for *this* run's streams.
/// Entries of an `Unkeyed` node are leftovers of earlier runs (the pool
/// outlives seeds) and are never read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ListState {
    /// Not woken yet this run.
    Unkeyed,
    /// Keyed this run but off the awake list: compacted out, or about
    /// to be pushed by the delivery that keyed it.
    Keyed,
    /// On the awake list: awake, or a stale entry if `!is_awake[v]`.
    Listed,
}

/// Evaluate the v2 decide phase over one span of the awake list,
/// generating the heads of the nodes' decide blocks (their first
/// [`rand_chacha::HEAD_WORDS`] words) in **wide ChaCha batches**
/// ([`rand_chacha::chacha8_block_heads`]) instead of one scalar block
/// per draw.
///
/// Bit-compatibility is by construction: each lane of a wide batch is
/// exactly the head of the block the node's positioned stream would
/// have generated lazily, and a stream built from it
/// ([`ChaCha8Rng::from_block_head`]) computes the rest of that block on
/// a cold path if `decide_pure` reads past the head — no in-tree
/// protocol does. The streams are built from the run's cached per-node
/// keys (`node_keys[v] == DecideStreams::node_key(v)` for every live
/// entry), and events are pushed in span order — including `Dead`
/// events, which flush the queued lanes first so ordering matches a
/// strictly sequential evaluation. The only observable difference from
/// the scalar path is speed: a node whose `decide_pure` draws nothing
/// gets a head generated that the scalar path would have skipped, but
/// unread words influence nothing.
///
/// Shared verbatim by the serial path and every parallel worker (a
/// chunk boundary can at worst split a batch, never change a draw), so
/// thread-count independence is inherited, not re-proven.
fn decide_span<P, E>(
    span: &[NodeId],
    is_awake: &[bool],
    node_keys: &[[u32; 8]],
    round: u64,
    protocol: &P,
    hook: &E,
    out: &mut Vec<(NodeId, DecideEvent)>,
) where
    P: FusedDecide,
    E: EnergyHook,
{
    const MAX: usize = rand_chacha::MAX_WIDE_LANES;
    fn flush<P: FusedDecide>(
        nodes: &[NodeId],
        keys: &[[u32; 8]],
        counters: &[u64],
        heads: &mut [[u32; rand_chacha::HEAD_WORDS]],
        round: u64,
        protocol: &P,
        out: &mut Vec<(NodeId, DecideEvent)>,
    ) {
        let k = nodes.len();
        // All lanes of a span share one block index (the counter array
        // is a span-wide constant).
        let block = counters[0];
        rand_chacha::chacha8_block_heads(&keys[..k], &counters[..k], &mut heads[..k]);
        for (l, &v) in nodes.iter().enumerate() {
            // The lane's positioned stream, from the batch-computed
            // head: no scalar ChaCha work for the words every in-tree
            // decide reads, and any further draw continues the keystream
            // exactly like a lazily refilled stream would.
            let mut rng = ChaCha8Rng::from_block_head(keys[l], block, heads[l]);
            match protocol.decide_pure(v, round, &mut rng) {
                Action::Silent => {}
                Action::Transmit => out.push((v, DecideEvent::Transmit)),
                Action::Sleep => out.push((v, DecideEvent::Sleep)),
            }
        }
    }

    let lanes = rand_chacha::wide_lanes().min(MAX);
    let block = DecideStreams::decide_block(round);
    let mut nodes = [0 as NodeId; MAX];
    let mut keys = [[0u32; 8]; MAX];
    // Every lane of a round reads the same block index of its own
    // keystream, so the counter array is a span-wide constant.
    let counters = [block; MAX];
    let mut heads = [[0u32; rand_chacha::HEAD_WORDS]; MAX];
    let mut k = 0usize;
    for &v in span {
        if !is_awake[v as usize] {
            continue; // stale entry
        }
        if E::ACTIVE && hook.is_dead(v, round) {
            if k > 0 {
                #[rustfmt::skip]
                flush(&nodes[..k], &keys, &counters, &mut heads, round, protocol, out);
                k = 0;
            }
            out.push((v, DecideEvent::Dead));
            continue;
        }
        nodes[k] = v;
        keys[k] = node_keys[v as usize];
        k += 1;
        if k == lanes {
            #[rustfmt::skip]
            flush(&nodes[..k], &keys, &counters, &mut heads, round, protocol, out);
            k = 0;
        }
    }
    if k > 0 {
        #[rustfmt::skip]
        flush(&nodes[..k], &keys, &counters, &mut heads, round, protocol, out);
    }
}

/// The per-run pools of the round loop, owned by the engine and sized to
/// the graph once, so repeated runs allocate nothing here. The loop
/// takes them out at run start and puts them back at run end.
#[derive(Default)]
struct Pools {
    /// Authoritative awake flags.
    is_awake: Vec<bool>,
    /// The poll list; capacity `n` reserved up front so delivery-phase
    /// wakes never reallocate mid-run. Under v1 it holds exactly the
    /// awake nodes; under v2 it may also carry stale entries (see
    /// [`ListState`]).
    awake_list: Vec<NodeId>,
    /// This round's transmitters, in poll order.
    transmitters: Vec<NodeId>,
    /// This round's non-silent decisions, in poll order.
    events: Vec<(NodeId, DecideEvent)>,
    /// Per-worker decide events of v2's parallel decide phase.
    par_events: Vec<Vec<(NodeId, DecideEvent)>>,
    /// v2: each node's [`ListState`] — membership of `awake_list`
    /// (`Listed && !is_awake[v]` marks a *stale* entry carried until the
    /// eager compaction threshold trips) and validity of its `node_keys`
    /// entry for the current run.
    list_state: Vec<ListState>,
    /// v2: per-node ChaCha key words, derived once per node per run: at
    /// the node's first delivery (or at init for the initially awake),
    /// then reused by every decide and receive lane of the run (32 B per
    /// node; sized on the first v2 run, so v1-only engines never pay for
    /// it). Read concurrently by the decide workers; written only in the
    /// serial init and delivery phases.
    node_keys: Vec<[u32; 8]>,
}

/// Reusable simulation engine for one graph.
///
/// Generic over the [`Topology`] backend, with the CSR [`DiGraph`] as
/// the default type parameter so existing `Engine` mentions and
/// `Engine::new(&graph, …)` call sites compile unchanged. The engine
/// only ever asks the topology "who hears `u`?"
/// ([`Topology::for_each_out`]), so monomorphization over `DiGraph`
/// produces exactly the pre-generic flat-CSR scatter, while the
/// implicit backends (`ImplicitGrid`, `ImplicitGnp`) answer the same
/// query without ever materialising O(m) edge storage.
///
/// **Allocation-free steady state:** every piece of per-run scratch —
/// the per-node sources, the per-worker hit sets, the awake
/// bookkeeping, the per-round transmitter and decide-event buffers, and
/// the per-worker lists of the parallel phases — lives in pools owned
/// by the engine and sized to the graph once, so a trial loop over seeds
/// on a fixed graph performs **zero heap allocations after round 1 of a
/// run** beyond the returned metrics vector (pinned by the
/// counting-allocator test in `crates/sim/tests/alloc_free.rs`, which
/// runs the serial path). A fanned-out round additionally pays its
/// scoped-thread spawns, whose bookkeeping is a constant few hundred
/// bytes per round, independent of the round's hit volume
/// (`crates/sim/tests/alloc_shard_scatter.rs` pins this). The extra
/// shard workers' hit sets are created at the first round that fans out
/// to them. At `n = 2²⁰` the pools save a multi-MB alloc + zero per
/// trial that the pre-pool engine paid on every run.
pub struct Engine<'g, T: Topology = DiGraph> {
    graph: &'g T,
    cfg: EngineConfig,
    /// Round in which each node last transmitted (`0` = never), for the
    /// half-duplex check; only touched per transmitter/receiver.
    sent: Vec<u32>,
    /// The transmitter each node heard this round, written at the node's
    /// first hit in a worker's [`Heard`] set and read only for a node heard
    /// exactly once — whose single hit wrote it, so the order in which
    /// workers store into a collided node's entry never matters. Atomic
    /// so that shard workers can share it: `Relaxed` stores and loads
    /// are plain moves, and the scoped-thread join orders every store
    /// before the delivery sweep.
    src: Vec<AtomicU32>,
    /// The round's hits, one [`Heard`] set per scatter worker: shard
    /// worker `w` writes set `w`, and a serial round uses set 0 alone.
    /// All zero between rounds — the delivery sweep clears what it
    /// reads.
    heard: Vec<Heard>,
    /// The awake bookkeeping and per-round buffers of the round loop.
    pools: Pools,
}

impl<'g, T: Topology> Engine<'g, T> {
    /// Create an engine for `graph` (any [`Topology`] backend).
    pub fn new(graph: &'g T, cfg: EngineConfig) -> Self {
        let n = graph.n();
        Engine {
            graph,
            cfg,
            sent: vec![0; n],
            src: std::iter::repeat_with(|| AtomicU32::new(0))
                .take(n)
                .collect(),
            heard: vec![Heard::new(n)],
            pools: Pools {
                is_awake: vec![false; n],
                list_state: vec![ListState::Unkeyed; n],
                awake_list: Vec::with_capacity(n),
                transmitters: Vec::with_capacity(n),
                events: Vec::with_capacity(n),
                ..Pools::default()
            },
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Start a run of `protocol` on this engine. Attach hooks to the
    /// returned [`Run`], then execute it with [`Run::v1`] or [`Run::v2`]:
    /// `engine.run(&mut proto).v1(&mut rng)`.
    pub fn run<'r, P: Protocol>(&'r mut self, protocol: &'r mut P) -> Run<'r, 'g, T, P> {
        Run {
            engine: self,
            protocol,
            energy: (),
            sink: NullSink,
            schedule: (),
        }
    }

    /// The round loop, written once for both contracts and every hook.
    /// Returns the run and whether the energy hook requested the stop.
    ///
    /// Every `sink.emit` site is gated on `S::ACTIVE` and every hook call
    /// on `E::ACTIVE`, so the plain instantiation compiles both out.
    /// Emissions and charges happen only on the serial side — the round
    /// preamble, the commit sweep and the ascending-receiver delivery
    /// sweep — so the event stream and the charge sequence are
    /// deterministic and identical for every thread count.
    fn run_loop<C, P, E, S, G>(
        &mut self,
        mut schedule: G,
        protocol: &mut P,
        mut contract: C,
        hook: &mut E,
        sink: &mut S,
    ) -> (RunResult, bool)
    where
        C: StreamContract<P>,
        P: Protocol,
        E: EnergyHook,
        S: TraceSink,
        G: TopologySchedule<T>,
    {
        let base = self.graph;
        let n = base.n();
        assert!(
            self.cfg.max_rounds < u64::from(u32::MAX >> 1),
            "max_rounds must fit the 31-bit round stamps (< {})",
            u32::MAX >> 1
        );
        let threads = self.cfg.threads.max(1);
        let half_duplex = self.cfg.half_duplex;
        let mut metrics = Metrics::new(n);
        self.reset_round_state();

        // Take the pools for the run (restored at its end). Reset by
        // clear + resize, not `fill`: a run that panicked out (protocol
        // assert, poisoned hook) leaves the pools taken — zero-length —
        // and the next run must re-size them instead of indexing out of
        // bounds. On the warm path this writes exactly what `fill` would,
        // with no allocation.
        let mut pools = std::mem::take(&mut self.pools);
        pools.is_awake.clear();
        pools.is_awake.resize(n, false);
        pools.awake_list.clear();
        pools.transmitters.clear();
        pools.events.clear();
        contract.begin(&mut pools, n);
        let mut awake_count = 0usize;
        for v in protocol.initially_awake() {
            if !pools.is_awake[v as usize] {
                pools.is_awake[v as usize] = true;
                awake_count += 1;
                contract.wake(&mut pools, v);
            }
        }

        let mut rounds = 0u64;
        let mut completed = protocol.is_complete();
        let mut halted = false;

        // Stop on completion, on the round cap, or when every node is
        // asleep — with no possible transmitter left, no reception can
        // ever wake anyone, so the run has quiesced for good. A
        // charge-to-cap energy session keeps the clock (and idle/sleep
        // charging) running to the cap anyway: protocol state is frozen,
        // but receivers that never powered down keep paying.
        while !completed
            && !halted
            && rounds < self.cfg.max_rounds
            && (awake_count > 0 || (E::ACTIVE && hook.charge_to_cap()))
        {
            rounds += 1;
            let round = rounds;
            let rstamp = round as u32; // fits: max_rounds < 2³¹
            let graph = schedule.topology(round, base);
            if S::ACTIVE {
                sink.emit(TraceEvent::RoundStart { round });
            }

            // --- decide phase -----------------------------------------------
            pools.events.clear();
            contract.decide(&mut pools, protocol, &*hook, round, &self.cfg);

            // --- serial commit sweep (poll order) ---------------------------
            // Metrics and duty charges are serial side effects, made after
            // every `is_dead` check of the decide phase and kept out of the
            // (possibly parallel) scatter, so every thread count sees the
            // identical per-transmitter order.
            pools.transmitters.clear();
            let mut retired = 0usize;
            for &(v, ev) in &pools.events {
                let vi = v as usize;
                match ev {
                    DecideEvent::Transmit => {
                        C::commit(protocol, v, round, Action::Transmit);
                        pools.transmitters.push(v);
                        self.sent[vi] = rstamp;
                        metrics.record_transmission(v);
                        if E::ACTIVE {
                            hook.charge(v, Duty::Transmit, round);
                        }
                        if S::ACTIVE {
                            sink.emit(TraceEvent::Transmit { node: v });
                        }
                    }
                    DecideEvent::Sleep => {
                        C::commit(protocol, v, round, Action::Sleep);
                        pools.is_awake[vi] = false;
                        awake_count -= 1;
                        retired += 1;
                        if S::ACTIVE {
                            sink.emit(TraceEvent::Sleep { node: v });
                        }
                    }
                    DecideEvent::Dead => {
                        // Battery ran out in an earlier round: fail-stop,
                        // no protocol commit (a dead node can't be woken).
                        pools.is_awake[vi] = false;
                        awake_count -= 1;
                        retired += 1;
                        if S::ACTIVE {
                            sink.emit(TraceEvent::Depleted { node: v });
                        }
                    }
                }
            }
            contract.settle(&mut pools, awake_count, retired);

            // --- transmit phase ---------------------------------------------
            let scattered = self.scatter_round(graph, &pools.transmitters, threads);

            // --- delivery phase ---------------------------------------------
            // Serial, ascending receiver id (the contract shared with
            // `reference`): the hit-set fold yields exactly this
            // round's hit nodes in that order. `v` hears iff exactly one
            // transmitter reached it (not collided), its own
            // radio was not busy transmitting under half-duplex, and its
            // battery has not run out; `on_receive` then draws from the
            // contract's receive stream.
            let mut deliveries = 0u64;
            if !pools.transmitters.is_empty() {
                drain_heard(&mut self.heard[..scattered], |v, collided| {
                    let vi = v as usize;
                    if collided {
                        if S::ACTIVE {
                            sink.emit(TraceEvent::Collision { node: v });
                        }
                        return;
                    }
                    let from = self.src[vi].load(Ordering::Relaxed);
                    if half_duplex && self.sent[vi] == rstamp {
                        return; // v's own radio was busy transmitting
                    }
                    if E::ACTIVE && hook.is_dead(v, round) {
                        return; // a depleted radio hears nothing
                    }
                    let msg = protocol.payload(from, round);
                    if E::ACTIVE {
                        hook.charge(v, Duty::Receive, round);
                    }
                    contract.receive(&mut pools, protocol, v, from, round, &msg);
                    deliveries += 1;
                    let woke = !pools.is_awake[vi];
                    if S::ACTIVE {
                        sink.emit(TraceEvent::Deliver {
                            node: v,
                            from,
                            woke,
                        });
                    }
                    if woke {
                        pools.is_awake[vi] = true;
                        awake_count += 1;
                        contract.wake(&mut pools, v);
                    }
                });
            }

            // End-of-round energy: nodes not charged above pay idle
            // (receiver on) or sleep (protocol declared the radio off) —
            // and a network-lifetime session may request a stop here.
            if E::ACTIVE && hook.end_round(round, protocol) {
                halted = true;
            }

            completed = protocol.is_complete();

            if S::ACTIVE {
                sink.emit(TraceEvent::RoundEnd {
                    transmitters: pools.transmitters.len() as u64,
                    deliveries,
                    awake: awake_count as u64,
                });
            }
        }

        // Return the pooled scratch for the next run.
        self.pools = pools;

        metrics.set_rounds(rounds);
        let hit_round_cap = !completed && rounds >= self.cfg.max_rounds;
        if hit_round_cap && self.cfg.warn_on_round_cap {
            eprintln!(
                "radio-sim: run stopped at the max_rounds cap ({}) without completing \
                 ({} of {} nodes informed) — the protocol may never terminate; \
                 pick an explicit budget with EngineConfig::with_max_rounds or \
                 silence this with warn_on_cap(false)",
                self.cfg.max_rounds,
                protocol.informed_count(),
                n
            );
        }
        (
            RunResult {
                rounds,
                completed,
                hit_round_cap,
                metrics,
            },
            halted,
        )
    }

    /// Reset the per-node collision state at run start. Round numbers
    /// restart at 1 every run, so stale `sent` stamps from a previous run
    /// on this engine would alias; and a run that panicked mid-round
    /// leaves hits recorded. `src` needs no reset: it is read only for
    /// a node heard exactly once, whose hit wrote it that round.
    fn reset_round_state(&mut self) {
        self.sent.fill(0);
        for Heard { bits, hits } in &mut self.heard {
            bits.fill(0);
            hits.fill(0);
        }
    }

    /// The transmit-phase scatter: records this round's hits from
    /// `transmitters` in the [`Heard`] sets and `src`, sharding the
    /// transmitter list over as many workers as [`scatter_plan`] gives
    /// the round — one, on the calling thread, unless the round's edge
    /// volume pays for the scoped-thread spawns. Returns that worker
    /// count `k`: the round's hits sit in `heard[..k]`, for the delivery
    /// sweep to fold.
    ///
    /// Worker `w` takes the `w`-th of `k` contiguous shards of the
    /// transmitter list and generates each of its rows exactly once —
    /// O(total edges) on every backend — into its own set `heard[w]`.
    /// For the CSR backend `for_each_out` monomorphizes to streaming one
    /// contiguous neighbors array (the pre-generic code), and each hit
    /// reads and writes its target's count byte in the worker's set,
    /// plus, at the worker's first hit of the target, one bitmap word
    /// and its `src` entry. Duplicate-freedom of the backend's rows is
    /// load-bearing here: a neighbor reported twice would flip a clean
    /// hit into a phantom collision. The collision rule depends only on
    /// how many transmitters reached a node (0, 1 or ≥ 2) and on who the
    /// single one was, never on the order of the hits or on where the
    /// shard cuts fall, so every worker count yields the same folded
    /// state and neither the plan nor the thread count can influence
    /// results.
    fn scatter_round(&mut self, graph: &T, transmitters: &[NodeId], threads: usize) -> usize {
        let n = self.src.len();
        let t = if threads > 1 && transmitters.len() > 1 {
            // Edge-volume heuristic on `degree_hint` — exact for CSR,
            // an upper-bound estimate for implicit backends. Purely a
            // perf threshold: it sizes the fan-out, never changes what
            // the workers compute.
            let edges: u64 = transmitters.iter().map(|&u| graph.degree_hint(u)).sum();
            scatter_plan(
                &self.cfg,
                graph.range_query_cost(),
                threads,
                n,
                transmitters.len(),
                edges,
            )
        } else {
            1
        };
        let src: &[AtomicU32] = &self.src;
        if t == 1 {
            let Heard { bits, hits } = &mut self.heard[0];
            let (bits, hits): (&mut [u64], &mut [u8]) = (bits, hits);
            for &u in transmitters {
                graph.for_each_out(u, |v| record_hit(hits, bits, src, v, u));
            }
            return 1;
        }
        // Extra workers' sets are allocated here, on the calling thread,
        // the first time a round fans out to them.
        if self.heard.len() < t {
            self.heard.resize_with(t, || Heard::new(n));
        }
        // t − 1 spawned workers plus the calling thread, which takes the
        // last shard instead of idling at the join.
        std::thread::scope(|scope| {
            let mut lo = 0usize;
            for (w, Heard { bits, hits }) in self.heard[..t].iter_mut().enumerate() {
                let (bits, hits): (&mut [u64], &mut [u8]) = (bits, hits);
                let hi = (w + 1) * transmitters.len() / t;
                let shard = &transmitters[lo..hi];
                let mut emit = move || {
                    for &u in shard {
                        graph.for_each_out(u, |v| record_hit(hits, bits, src, v, u));
                    }
                };
                if w + 1 == t {
                    emit();
                } else {
                    scope.spawn(emit);
                }
                lo = hi;
            }
        });
        t
    }
}

/// One run being set up: [`Engine::run`] starts it, the optional hooks
/// attach to it, and a terminal method picks the determinism contract
/// and executes it:
///
/// ```text
/// Engine::new(&first, cfg)        // the engine's graph is epoch 0
///     .run(&mut protocol)
///     .energy(&mut session)       // optional: energy overlay
///     .sink(&mut sink)            // optional: structured trace
///     .schedule(rest, every)      // optional: epochs 1, 2, … pulled lazily
///     .v1(&mut rng)               // or .v2(run_seed)
/// ```
///
/// The hooks are type parameters, so a run without them compiles to the
/// plain loop: with no overlay (`E = ()`), the [`NullSink`] and no
/// schedule (`G = ()`) every energy and trace call site compiles out and
/// every round runs on the engine's graph. The terminal method returns
/// a [`RunResult`], or an [`EnergyRunResult`] once `.energy(..)` is
/// attached. The worker count is [`EngineConfig::threads`].
///
/// # Determinism contracts
///
/// Both contracts drive the same round loop: decide, a serial commit
/// sweep in poll (awake-list) order, the scatter/collision phase, and a
/// serial delivery sweep in ascending receiver order. A node receives
/// iff exactly one transmitter reached it, so the scatter records only
/// order-free state: per worker, which nodes it hit and whether it hit
/// each once or more, plus the source of each hit. On every backend a
/// round that fans out shards the transmitter list over the workers
/// [`scatter_plan`] gives it: each worker generates its own shard's rows
/// exactly once into its own hit set, and the delivery sweep folds the
/// workers' sets — a node is collided if its hit counts sum to 2 or
/// more. A clean node was hit exactly once, so exactly one worker wrote
/// its source.
///
/// The contracts differ only in where the coin flips come from:
///
/// * **v1** ([`Run::v1`]): one shared [`ChaCha8Rng`], consumed serially —
///   [`Protocol::decide`] in poll order, then `on_receive` in delivery
///   order — so the decide phase stays on the calling thread.
/// * **v2** ([`Run::v2`]): every coin flip comes from a stream that is a
///   pure function of `(run_seed, node, round)` — see [`DecideStreams`]
///   for the layout — so the decide phase fans out too: workers evaluate
///   [`FusedDecide::decide_pure`] over awake-list chunks against the
///   round-start protocol state, and the commit sweep replays the
///   non-silent decisions in poll order ([`FusedDecide::commit_decide`]).
///   `on_receive` draws from the receiver's own receive lane.
///
/// Either way every fan-out reproduces the serial outcome, so runs are
/// **bit-identical for every thread count, by construction**. A v1 and a
/// v2 run of the same `(protocol, seed)` produce *different*
/// (statistically equivalent) trajectories: the stream layouts differ;
/// `tests/v2_equivalence.rs` cross-validates the two contracts against
/// the [`reference`](mod@crate::reference) oracle.
///
/// Hooks observe without influencing: an energy session never touches
/// the protocol streams, so with no battery attached an overlay run is
/// bit-identical to the plain run, and a sink never touches anything
/// (`tests/trace_zero_interference.rs`).
#[must_use = "a run does nothing until `.v1(..)` or `.v2(..)` executes it"]
pub struct Run<'r, 'g, T: Topology, P, E = (), S = NullSink, G = ()> {
    engine: &'r mut Engine<'g, T>,
    protocol: &'r mut P,
    energy: E,
    sink: S,
    schedule: G,
}

impl<'r, 'g, T: Topology, P: Protocol, S, G> Run<'r, 'g, T, P, (), S, G> {
    /// Attach an energy overlay: duties are charged to `session` per
    /// round, battery-depleted nodes turn fail-stop dead, and the run
    /// returns an [`EnergyRunResult`]. The session is reset at run start,
    /// so one session serves many runs.
    ///
    /// # Panics
    /// The run panics at start if the session's node count differs from
    /// the engine's.
    pub fn energy<'s>(
        self,
        session: &'s mut EnergySession,
    ) -> Run<'r, 'g, T, P, &'s mut EnergySession, S, G> {
        let Run {
            engine,
            protocol,
            sink,
            schedule,
            ..
        } = self;
        Run {
            engine,
            protocol,
            energy: session,
            sink,
            schedule,
        }
    }
}

impl<'r, 'g, T: Topology, P: Protocol, E, G> Run<'r, 'g, T, P, E, NullSink, G> {
    /// Attach a structured [`TraceSink`] receiving the round-by-round
    /// event stream — see the `radio-trace` crate for the event model,
    /// the recording sinks and replay verification. A recording sink
    /// costs one buffered push per event on the serial side of the
    /// round, so the stream is identical for every thread count: record
    /// once, replay at any thread count.
    pub fn sink<'k, K: TraceSink>(self, sink: &'k mut K) -> Run<'r, 'g, T, P, E, &'k mut K, G> {
        let Run {
            engine,
            protocol,
            energy,
            schedule,
            ..
        } = self;
        Run {
            engine,
            protocol,
            energy,
            sink,
            schedule,
        }
    }
}

impl<'r, 'g, T: Topology, P: Protocol, E, S> Run<'r, 'g, T, P, E, S, ()> {
    /// Run on a *changing topology*, pulled lazily. Epoch 0 — rounds
    /// `1 ..= switch_every` — runs on the engine's own graph; `rest`
    /// supplies epochs 1, 2, …, epoch `k` covering rounds
    /// `k·switch_every + 1 ..= (k+1)·switch_every`. The loop pulls item
    /// `k` when round `k·switch_every + 1` starts — never earlier, at
    /// most once per round — and drops the snapshot it replaces, so a
    /// run that stops at round `R` pulls exactly `⌈R/switch_every⌉ − 1`
    /// items. Once `rest` ends the run stays on the last snapshot; an
    /// empty `rest` is the static run. Items may be owned snapshots or
    /// references (`graphs[1..].iter()`): anything that borrows as the
    /// engine's topology. Works under either contract.
    ///
    /// Models node mobility (the paper's §1: "due to the mobility of the
    /// nodes, the network topology changes over time") — pair it with
    /// `radio_graph::generate::MobileGeometric`: build the engine on the
    /// stream's first snapshot and schedule the rest, so only the epochs
    /// the run reaches are ever generated.
    ///
    /// # Panics
    /// Panics here if `switch_every == 0`. A snapshot whose node count
    /// differs from the engine's panics when its epoch is pulled.
    pub fn schedule<I>(
        self,
        rest: I,
        switch_every: u64,
    ) -> Run<'r, 'g, T, P, E, S, Epochs<I::IntoIter>>
    where
        I: IntoIterator,
        I::Item: Borrow<T>,
    {
        assert!(switch_every > 0, "switch_every must be positive");
        let Run {
            engine,
            protocol,
            energy,
            sink,
            ..
        } = self;
        Run {
            engine,
            protocol,
            energy,
            sink,
            schedule: Epochs::new(rest.into_iter(), switch_every),
        }
    }
}

impl<'r, 'g, T, P, E, S, G> Run<'r, 'g, T, P, E, S, G>
where
    T: Topology,
    P: Protocol,
    E: EnergyHook,
    S: TraceSink,
    G: TopologySchedule<T>,
{
    /// Execute under the **v1 contract**: every draw of the run comes
    /// from `rng`, serially — see [`Run`].
    pub fn v1(self, rng: &mut ChaCha8Rng) -> E::Output {
        self.execute(SharedStream { rng })
    }

    /// Execute under the **v2 contract**: counter-based per-node streams
    /// derived from `run_seed` ([`DecideStreams`]), with the decide phase
    /// fanned out over [`EngineConfig::threads`] workers — see [`Run`].
    pub fn v2(self, run_seed: u64) -> E::Output
    where
        P: FusedDecide,
    {
        self.execute(PerNodeStreams {
            streams: DecideStreams::new(run_seed),
            stale: 0,
        })
    }

    fn execute<C: StreamContract<P>>(self, contract: C) -> E::Output {
        let Run {
            engine,
            protocol,
            mut energy,
            mut sink,
            schedule,
        } = self;
        energy.begin(engine.graph.n());
        let (run, halted) = engine.run_loop(schedule, protocol, contract, &mut energy, &mut sink);
        energy.finish(run, halted)
    }
}

/// Where a run's coin flips come from — the one axis on which the v1 and
/// v2 determinism contracts differ. `Engine::run_loop` is written once
/// against this trait; each contract owns exactly three differences:
/// the decide phase with its awake-list discipline, the stream
/// `on_receive` draws from, and the wake bookkeeping. `receive` and
/// `wake` run per delivery inside the receiver sweep, so the impls
/// force-inline them: an out-of-line call there measurably slowed the
/// sweep.
trait StreamContract<P: Protocol> {
    /// Size the contract's own pools for an `n`-node run.
    fn begin(&mut self, pools: &mut Pools, n: usize);
    /// Evaluate the round's decisions into `pools.events`, in poll order
    /// (silent nodes emit nothing).
    fn decide<E: EnergyHook>(
        &mut self,
        pools: &mut Pools,
        protocol: &mut P,
        hook: &E,
        round: u64,
        cfg: &EngineConfig,
    );
    /// Apply the state transition of a non-silent decision.
    fn commit(protocol: &mut P, node: NodeId, round: u64, action: Action);
    /// Awake-list upkeep once the commit sweep has taken `retired` nodes
    /// off the awake set, leaving `awake` awake.
    fn settle(&mut self, pools: &mut Pools, awake: usize, retired: usize);
    /// Hand a delivery to `protocol.on_receive` with the contract's
    /// receive stream.
    fn receive(
        &mut self,
        pools: &mut Pools,
        protocol: &mut P,
        node: NodeId,
        from: NodeId,
        round: u64,
        msg: &P::Msg,
    );
    /// Put `node`, just turned awake, on the poll list.
    fn wake(&mut self, pools: &mut Pools, node: NodeId);
}

/// The v1 contract: one shared stream, drawn in poll order by `decide`
/// and in delivery order by `on_receive`.
struct SharedStream<'a> {
    rng: &'a mut ChaCha8Rng,
}

impl<P: Protocol> StreamContract<P> for SharedStream<'_> {
    #[inline]
    fn begin(&mut self, _pools: &mut Pools, _n: usize) {}

    /// Poll [`Protocol::decide`] serially, in list order, from the shared
    /// stream (`decide` applies its own transition), and compact sleepers
    /// and dead nodes out of the list inline — so the v1 list never
    /// carries stale entries.
    #[inline]
    fn decide<E: EnergyHook>(
        &mut self,
        pools: &mut Pools,
        protocol: &mut P,
        hook: &E,
        round: u64,
        _cfg: &EngineConfig,
    ) {
        let Pools {
            awake_list, events, ..
        } = pools;
        let mut kept = 0usize;
        for r in 0..awake_list.len() {
            let v = awake_list[r];
            let event = if E::ACTIVE && hook.is_dead(v, round) {
                DecideEvent::Dead
            } else {
                let action = protocol.decide(v, round, self.rng);
                if action != Action::Sleep {
                    awake_list[kept] = v;
                    kept += 1;
                }
                match action {
                    Action::Silent => continue,
                    Action::Transmit => DecideEvent::Transmit,
                    Action::Sleep => DecideEvent::Sleep,
                }
            };
            events.push((v, event));
        }
        awake_list.truncate(kept);
    }

    /// A no-op: `decide` has already applied the transition.
    #[inline(always)]
    fn commit(_protocol: &mut P, _node: NodeId, _round: u64, _action: Action) {}

    #[inline(always)]
    fn settle(&mut self, _pools: &mut Pools, _awake: usize, _retired: usize) {}

    #[inline(always)]
    fn receive(
        &mut self,
        _pools: &mut Pools,
        protocol: &mut P,
        node: NodeId,
        from: NodeId,
        round: u64,
        msg: &P::Msg,
    ) {
        protocol.on_receive(node, from, round, msg, self.rng);
    }

    #[inline(always)]
    fn wake(&mut self, pools: &mut Pools, node: NodeId) {
        pools.awake_list.push(node);
    }
}

/// The v2 contract: counter-based per-node streams ([`DecideStreams`])
/// served from the per-run key cache, with sleepers left on the awake
/// list as stale entries until an eager compaction.
struct PerNodeStreams {
    streams: DecideStreams,
    /// Stale awake-list entries (`Listed && !is_awake[v]`), counted so
    /// the compaction threshold and the `len == awake + stale` invariant
    /// are O(1) to track.
    stale: usize,
}

impl<P: FusedDecide> StreamContract<P> for PerNodeStreams {
    fn begin(&mut self, pools: &mut Pools, n: usize) {
        pools.list_state.clear();
        pools.list_state.resize(n, ListState::Unkeyed);
        // The key cache needs sizing, not clearing: resetting every
        // node to `Unkeyed` above marks all entries as leftovers, and a
        // node's entry is derived for this run's seed before anything
        // reads it — at its wake for the initially awake, at its first
        // delivery for everyone else.
        if pools.node_keys.len() != n {
            pools.node_keys.clear();
            pools.node_keys.resize(n, [0u32; 8]);
        }
    }

    /// Evaluate [`FusedDecide::decide_pure`] over contiguous awake-list
    /// chunks, one per worker, each node with its own positioned stream;
    /// workers emit only non-silent `(node, event)` pairs, which
    /// concatenate (worker order = list order) into the poll-order event
    /// list. Stale entries are skipped, so the serial half of the round
    /// is `O(transmitters + sleepers)`, not `O(awake)`.
    fn decide<E: EnergyHook>(
        &mut self,
        pools: &mut Pools,
        protocol: &mut P,
        hook: &E,
        round: u64,
        cfg: &EngineConfig,
    ) {
        protocol.begin_round(round);
        let Pools {
            is_awake,
            awake_list,
            events,
            par_events,
            node_keys,
            ..
        } = pools;
        let len = awake_list.len();
        let threads = cfg.threads.max(1);
        let t = if threads > 1 && len >= cfg.par_min_awake.max(2) {
            threads.min(len)
        } else {
            1
        };
        if t == 1 {
            decide_span(
                awake_list, is_awake, node_keys, round, protocol, hook, events,
            );
            return;
        }
        // Index-chunk partition: worker `w` evaluates the decisions of
        // one contiguous slice of the awake list. Chunk boundaries cannot
        // influence anything — each decision depends only on (run_seed,
        // node, round) and the round-start protocol state — and
        // concatenating the per-worker event lists in worker order
        // reproduces list order exactly.
        if par_events.len() < t {
            par_events.resize_with(t, Vec::new);
        }
        let awake: &[bool] = is_awake;
        let keys: &[[u32; 8]] = node_keys;
        let proto: &P = protocol;
        let mut rest: &[NodeId] = awake_list;
        let mut lo = 0usize;
        std::thread::scope(|scope| {
            for (w, ev_w) in par_events[..t].iter_mut().enumerate() {
                let hi = (w + 1) * len / t;
                let (chunk, tail) = rest.split_at(hi - lo);
                rest = tail;
                ev_w.clear();
                // Worst case: every node in the chunk decides
                // non-silently (no-op once warmed up).
                ev_w.reserve(chunk.len());
                let work = move |ev_w: &mut Vec<(NodeId, DecideEvent)>| {
                    decide_span(chunk, awake, keys, round, proto, hook, ev_w);
                };
                if w + 1 == t {
                    work(ev_w);
                } else {
                    scope.spawn(move || work(ev_w));
                }
                lo = hi;
            }
        });
        for w in &par_events[..t] {
            events.extend_from_slice(w);
        }
    }

    #[inline]
    fn commit(protocol: &mut P, node: NodeId, round: u64, action: Action) {
        protocol.commit_decide(node, round, action);
    }

    /// Eager stale compaction: the sparse commit sweep never walks the
    /// full list, so sleepers would otherwise be carried (and skipped by
    /// the decide workers) until a re-wake. Once more than half the list
    /// disagrees with `is_awake` — mass passivation, e.g. Algorithm 1's
    /// all-passive Phase 2 or a retirement window expiring — one O(len)
    /// retain pass beats every future round's stale skips.
    fn settle(&mut self, pools: &mut Pools, awake: usize, retired: usize) {
        self.stale += retired;
        if self.stale * 2 > pools.awake_list.len() {
            let Pools {
                is_awake,
                awake_list,
                list_state,
                ..
            } = pools;
            awake_list.retain(|&v| {
                let keep = is_awake[v as usize];
                if !keep {
                    // Off the list, but its key stays this run's.
                    list_state[v as usize] = ListState::Keyed;
                }
                keep
            });
            self.stale = 0;
            debug_assert_eq!(
                is_awake.iter().filter(|&&b| b).count(),
                awake,
                "is_awake flags diverged from awake_count"
            );
        }
        debug_assert_eq!(
            pools.awake_list.len(),
            awake + self.stale,
            "awake-count invariant: list = awake + stale"
        );
    }

    /// `on_receive` draws from the receiver's v2 receive lane, built from
    /// the run's key cache only now that the delivery is real — after the
    /// collision, half-duplex and battery checks — so collisions and
    /// repeat deliveries cost no key derivation: a node's key is derived
    /// at most once per run, at its first delivery.
    #[inline(always)]
    fn receive(
        &mut self,
        pools: &mut Pools,
        protocol: &mut P,
        node: NodeId,
        from: NodeId,
        round: u64,
        msg: &P::Msg,
    ) {
        let vi = node as usize;
        if pools.list_state[vi] == ListState::Unkeyed {
            pools.node_keys[vi] = self.streams.node_key(node);
            pools.list_state[vi] = ListState::Keyed;
        }
        let mut rng =
            DecideStreams::rng_from_key(pools.node_keys[vi], DecideStreams::receive_block(round));
        protocol.on_receive(node, from, round, msg, &mut rng);
    }

    #[inline(always)]
    fn wake(&mut self, pools: &mut Pools, node: NodeId) {
        let vi = node as usize;
        match pools.list_state[vi] {
            // Re-woken stale entry: already listed.
            ListState::Listed => self.stale -= 1,
            state => {
                // An initially awake node is keyed here; a woken one was
                // keyed by its delivery (now or at an earlier wake this
                // run), so its key is reused.
                if state == ListState::Unkeyed {
                    pools.node_keys[vi] = self.streams.node_key(node);
                }
                debug_assert!(
                    pools.node_keys[vi] == self.streams.node_key(node),
                    "node {node} joins the awake list without this run's key"
                );
                pools.list_state[vi] = ListState::Listed;
                pools.awake_list.push(node);
            }
        }
    }
}

/// One scatter worker's record of a round's hits. All zero between
/// rounds: the delivery sweep clears every word and count it reads.
struct Heard {
    /// Bit `v % 64` of word `v / 64` is set at the worker's first hit of
    /// `v`, so the delivery sweep finds the round's hit nodes in
    /// ascending order without scanning all `n` (⅛ B per node).
    bits: Vec<u64>,
    /// How often the worker hit each node this round, saturated at 2
    /// (1 B per node). The hit loop decides from this per-node byte, not
    /// from bits in a word that 64 nodes share: with two bits per node, a
    /// dense round keeps re-reading words that earlier hits are still
    /// writing, and the CSR storm bench (`scatter_phase/csr/1t`) ran
    /// 1.3–1.9× slower.
    hits: Vec<u8>,
}

impl Heard {
    fn new(n: usize) -> Self {
        Heard {
            bits: vec![0; n.div_ceil(64)],
            hits: vec![0; n],
        }
    }
}

/// Record a hit of `v` by transmitter `u` in a scatter worker's
/// [`Heard`] set, given as its `hits` and `bits`. The worker's first hit
/// of `v` sets its bit and stores the source; any later one marks `v`
/// heard twice.
#[inline(always)]
fn record_hit(hits: &mut [u8], bits: &mut [u64], src: &[AtomicU32], v: NodeId, u: NodeId) {
    let i = v as usize;
    let h = &mut hits[i];
    if *h == 0 {
        *h = 1;
        bits[i / 64] |= 1 << (i % 64);
        src[i].store(u, Ordering::Relaxed);
    } else {
        *h = 2;
    }
}

/// Walk the round's hit nodes — the union of the bitmaps of the workers
/// that scattered it — in ascending order and call `visit(v, collided)`
/// for each; `collided` is whether two or more transmitters reached `v`,
/// which holds iff the workers' counts for `v` sum to 2 or more. Clears
/// every word and count it reads, so the sets are all zero again for the
/// next round. A serial round walks set 0 directly; a fanned-out round
/// ORs each further worker's word in first: O(workers·⌈n/64⌉) words
/// plus O(workers) per hit node, wherever the shard cuts fell. `visit`
/// has one call site, so the delivery sweep inlines it.
#[inline]
fn drain_heard(heard: &mut [Heard], mut visit: impl FnMut(NodeId, bool)) {
    let Some((Heard { bits, hits }, rest)) = heard.split_first_mut() else {
        return;
    };
    for (i, word) in bits.iter_mut().enumerate() {
        let mut once = std::mem::take(word);
        for other in rest.iter_mut() {
            once |= std::mem::take(&mut other.bits[i]);
        }
        while once != 0 {
            let v = i * 64 + once.trailing_zeros() as usize;
            let mut count = u32::from(std::mem::take(&mut hits[v]));
            for other in rest.iter_mut() {
                count += u32::from(std::mem::take(&mut other.hits[v]));
            }
            visit(v as NodeId, count >= 2);
            once &= once - 1;
        }
    }
}

/// One-shot convenience for a v2 run: build an engine and run once,
/// `Engine::new(graph, cfg).run(protocol).v2(run_seed)` — see [`Run`].
pub fn run_protocol_fused<T: Topology, P: FusedDecide>(
    graph: &T,
    protocol: &mut P,
    cfg: EngineConfig,
    run_seed: u64,
) -> RunResult {
    Engine::new(graph, cfg).run(protocol).v2(run_seed)
}

/// [`run_protocol_fused`] with a structured [`TraceSink`] attached — see
/// [`Run::sink`].
pub fn run_protocol_fused_traced<T: Topology, P: FusedDecide, S: TraceSink>(
    graph: &T,
    protocol: &mut P,
    cfg: EngineConfig,
    run_seed: u64,
    sink: &mut S,
) -> RunResult {
    Engine::new(graph, cfg)
        .run(protocol)
        .sink(sink)
        .v2(run_seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::generate::{path, star};
    use radio_graph::DiGraph;
    use radio_trace::{RingSink, RoundEvents};
    use radio_util::derive_rng;

    /// The full event stream a [`RingSink`] with unbounded retention
    /// recorded — the per-round fingerprint of the bit-identity tests.
    fn event_stream(sink: &RingSink) -> Vec<RoundEvents> {
        sink.rounds().cloned().collect()
    }

    /// Test protocol: every informed node transmits unconditionally every
    /// round (naive flooding). On a path this works; on a star the leaves
    /// collide forever after round 1.
    struct Flood {
        informed: Vec<bool>,
        n_informed: usize,
    }

    impl Flood {
        fn new(n: usize, source: NodeId) -> Self {
            let mut informed = vec![false; n];
            informed[source as usize] = true;
            Flood {
                informed,
                n_informed: 1,
            }
        }
    }

    impl Protocol for Flood {
        type Msg = ();

        fn initially_awake(&self) -> Vec<NodeId> {
            self.informed
                .iter()
                .enumerate()
                .filter_map(|(i, &b)| b.then_some(i as NodeId))
                .collect()
        }

        fn decide(&mut self, _node: NodeId, _round: u64, _rng: &mut ChaCha8Rng) -> Action {
            Action::Transmit
        }

        fn payload(&self, _node: NodeId, _round: u64) -> Self::Msg {}

        fn on_receive(
            &mut self,
            node: NodeId,
            _from: NodeId,
            _round: u64,
            _msg: &Self::Msg,
            _rng: &mut ChaCha8Rng,
        ) {
            if !self.informed[node as usize] {
                self.informed[node as usize] = true;
                self.n_informed += 1;
            }
        }

        fn is_complete(&self) -> bool {
            self.n_informed == self.informed.len()
        }

        fn informed_count(&self) -> usize {
            self.n_informed
        }
    }

    /// Like `Flood` but each node transmits exactly once, then sleeps.
    struct FloodOnce {
        inner: Flood,
        sent: Vec<bool>,
    }

    impl FloodOnce {
        fn new(n: usize, source: NodeId) -> Self {
            FloodOnce {
                inner: Flood::new(n, source),
                sent: vec![false; n],
            }
        }
    }

    impl Protocol for FloodOnce {
        type Msg = ();

        fn initially_awake(&self) -> Vec<NodeId> {
            self.inner.initially_awake()
        }

        fn decide(&mut self, node: NodeId, _round: u64, _rng: &mut ChaCha8Rng) -> Action {
            if self.sent[node as usize] {
                Action::Sleep
            } else {
                self.sent[node as usize] = true;
                Action::Transmit
            }
        }

        fn payload(&self, _node: NodeId, _round: u64) -> Self::Msg {}

        fn on_receive(
            &mut self,
            node: NodeId,
            from: NodeId,
            round: u64,
            msg: &Self::Msg,
            rng: &mut ChaCha8Rng,
        ) {
            self.inner.on_receive(node, from, round, msg, rng);
        }

        fn is_complete(&self) -> bool {
            self.inner.is_complete()
        }

        fn informed_count(&self) -> usize {
            self.inner.informed_count()
        }
    }

    #[test]
    fn flooding_crosses_a_path_in_diameter_rounds() {
        let g = path(10);
        let mut p = Flood::new(10, 0);
        let mut rng = derive_rng(1, b"eng", 0);
        let res = Engine::new(&g, EngineConfig::default())
            .run(&mut p)
            .v1(&mut rng);
        assert!(res.completed);
        // One hop per round along the path; node 1's transmissions toward 0
        // never collide because in-degrees on the path are ≤ 2 and only the
        // frontier moves forward.
        assert_eq!(res.rounds, 9);
    }

    #[test]
    fn collision_blocks_star_leaves_from_informing_each_other_s_center() {
        // Star: centre 0 informs all leaves in round 1. From round 2 every
        // leaf transmits simultaneously; all their messages collide at the
        // centre (which is already informed anyway) — and, with more than
        // one leaf, no further node exists, so the run completes.
        let g = star(5);
        let mut p = Flood::new(5, 0);
        let mut rng = derive_rng(2, b"eng", 0);
        let res = Engine::new(&g, EngineConfig::default())
            .run(&mut p)
            .v1(&mut rng);
        assert!(res.completed);
        assert_eq!(res.rounds, 1);
    }

    #[test]
    fn two_simultaneous_transmitters_collide() {
        // 0 → 2 and 1 → 2; both 0 and 1 start informed and always transmit:
        // node 2 can never receive.
        let g = DiGraph::from_edges(3, &[(0, 2), (1, 2)]);
        let mut p = Flood::new(3, 0);
        p.informed[1] = true;
        p.n_informed = 2;
        let mut rng = derive_rng(3, b"eng", 0);
        let res = Engine::new(&g, EngineConfig::with_max_rounds(50))
            .run(&mut p)
            .v1(&mut rng);
        assert!(!res.completed, "collision must prevent delivery forever");
        assert_eq!(res.rounds, 50);
        assert_eq!(p.n_informed, 2);
    }

    #[test]
    fn exactly_one_transmitter_delivers() {
        // Only node 0 is informed, so node 2 hears a single transmitter
        // and must receive in round 1 (node 1 has no in-edges and can
        // never be informed, so the run as a whole cannot complete).
        let g = DiGraph::from_edges(3, &[(0, 2), (1, 2)]);
        let mut p = Flood::new(3, 0);
        let mut rng = derive_rng(4, b"eng", 0);
        let res = Engine::new(&g, EngineConfig::with_max_rounds(5))
            .run(&mut p)
            .v1(&mut rng);
        assert!(!res.completed);
        assert!(p.informed[2], "single transmitter must deliver");
        assert_eq!(p.n_informed, 2);
    }

    #[test]
    fn half_duplex_blocks_reception_while_transmitting() {
        // 0 ↔ 1. Both informed, both always transmit: under half-duplex
        // neither ever *receives*, but both being informed the run is
        // already complete; instead make node 1 uninformed and transmitting
        // impossible — simpler: check via metrics on a 2-cycle where both
        // transmit: deliveries must be zero in half-duplex and two per
        // round in full-duplex.
        let g = DiGraph::from_edges(2, &[(0, 1), (1, 0)]);

        struct AlwaysSend;
        impl Protocol for AlwaysSend {
            type Msg = ();
            fn initially_awake(&self) -> Vec<NodeId> {
                vec![0, 1]
            }
            fn decide(&mut self, _n: NodeId, _r: u64, _rng: &mut ChaCha8Rng) -> Action {
                Action::Transmit
            }
            fn payload(&self, _n: NodeId, _r: u64) -> Self::Msg {}
            fn on_receive(
                &mut self,
                _n: NodeId,
                _f: NodeId,
                _r: u64,
                _m: &Self::Msg,
                _rng: &mut ChaCha8Rng,
            ) {
                panic!("half-duplex must suppress this delivery");
            }
            fn is_complete(&self) -> bool {
                false
            }
            fn informed_count(&self) -> usize {
                2
            }
        }

        let mut p = AlwaysSend;
        let mut rng = derive_rng(5, b"eng", 0);
        let cfg = EngineConfig {
            max_rounds: 10,
            half_duplex: true,
            warn_on_round_cap: false,
            ..Default::default()
        };
        let res = Engine::new(&g, cfg).run(&mut p).v1(&mut rng);
        assert_eq!(res.metrics.total_transmissions(), 20);
    }

    #[test]
    fn full_duplex_allows_reception_while_transmitting() {
        let g = DiGraph::from_edges(2, &[(0, 1), (1, 0)]);

        struct CountRx {
            rx: u32,
        }
        impl Protocol for CountRx {
            type Msg = ();
            fn initially_awake(&self) -> Vec<NodeId> {
                vec![0, 1]
            }
            fn decide(&mut self, _n: NodeId, _r: u64, _rng: &mut ChaCha8Rng) -> Action {
                Action::Transmit
            }
            fn payload(&self, _n: NodeId, _r: u64) -> Self::Msg {}
            fn on_receive(
                &mut self,
                _n: NodeId,
                _f: NodeId,
                _r: u64,
                _m: &Self::Msg,
                _rng: &mut ChaCha8Rng,
            ) {
                self.rx += 1;
            }
            fn is_complete(&self) -> bool {
                false
            }
            fn informed_count(&self) -> usize {
                2
            }
        }

        let mut p = CountRx { rx: 0 };
        let mut rng = derive_rng(6, b"eng", 0);
        let cfg = EngineConfig {
            max_rounds: 10,
            half_duplex: false,
            warn_on_round_cap: false,
            ..Default::default()
        };
        let _ = Engine::new(&g, cfg).run(&mut p).v1(&mut rng);
        assert_eq!(
            p.rx, 20,
            "each node receives the other's message each round"
        );
    }

    #[test]
    fn sleep_removes_from_polling_and_caps_energy() {
        let g = path(6);
        let mut p = FloodOnce::new(6, 0);
        let mut rng = derive_rng(7, b"eng", 0);
        let res = Engine::new(&g, EngineConfig::default())
            .run(&mut p)
            .v1(&mut rng);
        assert!(res.completed);
        assert_eq!(res.metrics.max_transmissions_per_node(), 1);
        assert_eq!(res.metrics.total_transmissions() as usize, 5); // node 5 never needs to send
    }

    #[test]
    fn trace_records_round_progression() {
        let g = path(5);
        let mut p = Flood::new(5, 0);
        let mut rng = derive_rng(8, b"eng", 0);
        let mut sink = RingSink::new(usize::MAX);
        let res = Engine::new(&g, EngineConfig::default())
            .run(&mut p)
            .sink(&mut sink)
            .v1(&mut rng);
        let rounds = event_stream(&sink);
        assert_eq!(rounds.len(), res.rounds as usize);
        // Exactly one first-time delivery per round on a path, and the
        // run ends with all 5 nodes informed.
        let mut heard = [true, false, false, false, false];
        for r in &rounds {
            let first = r
                .events
                .iter()
                .filter(|e| match **e {
                    TraceEvent::Deliver { node, .. } => {
                        !std::mem::replace(&mut heard[node as usize], true)
                    }
                    _ => false,
                })
                .count();
            assert_eq!(first, 1, "round {}", r.round);
        }
        assert!(heard.iter().all(|&h| h));
        assert_eq!(p.n_informed, 5);
    }

    #[test]
    fn determinism_same_seed_same_run() {
        let g = radio_graph::generate::gnp_directed(300, 0.05, &mut derive_rng(9, b"g", 0));

        struct Coin {
            informed: Vec<bool>,
            n_informed: usize,
        }
        impl Protocol for Coin {
            type Msg = ();
            fn initially_awake(&self) -> Vec<NodeId> {
                vec![0]
            }
            fn decide(&mut self, _n: NodeId, _r: u64, rng: &mut ChaCha8Rng) -> Action {
                use rand::RngExt;
                if rng.random_bool(0.3) {
                    Action::Transmit
                } else {
                    Action::Silent
                }
            }
            fn payload(&self, _n: NodeId, _r: u64) -> Self::Msg {}
            fn on_receive(
                &mut self,
                n: NodeId,
                _f: NodeId,
                _r: u64,
                _m: &Self::Msg,
                _rng: &mut ChaCha8Rng,
            ) {
                if !self.informed[n as usize] {
                    self.informed[n as usize] = true;
                    self.n_informed += 1;
                }
            }
            fn is_complete(&self) -> bool {
                self.n_informed == self.informed.len()
            }
            fn informed_count(&self) -> usize {
                self.n_informed
            }
        }

        let run = |seed: u64| {
            let mut p = Coin {
                informed: {
                    let mut v = vec![false; 300];
                    v[0] = true;
                    v
                },
                n_informed: 1,
            };
            let mut rng = derive_rng(seed, b"det", 0);
            let r = Engine::new(&g, EngineConfig::with_max_rounds(500))
                .run(&mut p)
                .v1(&mut rng);
            (r.rounds, r.completed, r.metrics.total_transmissions())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn engine_reuse_across_runs_is_clean() {
        let g = path(8);
        let mut eng = Engine::new(&g, EngineConfig::default());
        for seed in 0..5 {
            let mut p = Flood::new(8, 0);
            let mut rng = derive_rng(seed, b"reuse", 0);
            let res = eng.run(&mut p).v1(&mut rng);
            assert!(res.completed);
            assert_eq!(
                res.rounds, 7,
                "seed {seed}: scratch state leaked across runs"
            );
        }
    }

    #[test]
    fn run_quiesces_when_every_node_sleeps() {
        // 0 → 2 and 1 → 2, both sources informed, each transmits exactly
        // once: their round-1 transmissions collide at node 2, round 2 puts
        // both to sleep, and the engine must stop right there instead of
        // spinning to the round cap.
        let g = DiGraph::from_edges(3, &[(0, 2), (1, 2)]);
        let mut p = FloodOnce::new(3, 0);
        p.inner.informed[1] = true;
        p.inner.n_informed = 2;
        let mut rng = derive_rng(11, b"eng", 0);
        let res = Engine::new(&g, EngineConfig::with_max_rounds(1000))
            .run(&mut p)
            .v1(&mut rng);
        assert!(!res.completed);
        assert_eq!(res.rounds, 2);
        assert_eq!(res.metrics.total_transmissions(), 2);
    }

    #[test]
    fn dynamic_topology_switches_mid_run() {
        // Two snapshots over 3 nodes: first 0 → 1 only, then 1 → 2 only.
        // Flooding needs the switch to reach node 2: in snapshot A node 1
        // gets informed; only after the topology changes can 1 reach 2.
        let a = DiGraph::from_edges(3, &[(0, 1)]);
        let b = DiGraph::from_edges(3, &[(1, 2)]);
        let mut p = Flood::new(3, 0);
        let mut rng = derive_rng(12, b"eng", 0);
        let res = Engine::new(&a, EngineConfig::with_max_rounds(20))
            .run(&mut p)
            .schedule([&b], 3)
            .v1(&mut rng);
        assert!(res.completed);
        assert!(res.rounds > 3, "node 2 is reachable only after the switch");
        assert!(p.informed[2]);
    }

    #[test]
    fn dynamic_with_single_graph_matches_static_run() {
        let g = path(10);
        let run_static = {
            let mut p = Flood::new(10, 0);
            let mut rng = derive_rng(13, b"eng", 0);
            Engine::new(&g, EngineConfig::default())
                .run(&mut p)
                .v1(&mut rng)
                .rounds
        };
        let run_dyn = {
            let mut p = Flood::new(10, 0);
            let mut rng = derive_rng(13, b"eng", 0);
            Engine::new(&g, EngineConfig::default())
                .run(&mut p)
                .schedule([&g], 5)
                .v1(&mut rng)
                .rounds
        };
        assert_eq!(run_static, run_dyn);

        // Under v2 too, with every parallel path forced: an empty or a
        // one-snapshot schedule is the static run, and a switching
        // schedule is bit-identical at 1 and 3 threads.
        let a = radio_graph::generate::gnp_directed(300, 0.03, &mut derive_rng(13, b"dyn-g", 0));
        let b = radio_graph::generate::gnp_directed(300, 0.03, &mut derive_rng(13, b"dyn-g", 1));
        let forced = |threads: usize| {
            EngineConfig {
                par_min_edges: 0,
                par_min_edges_implicit: 0,
                par_min_awake: 0,
                ..EngineConfig::with_max_rounds(200)
            }
            .with_threads(threads)
        };
        let v2 = |rest: Option<&[&DiGraph]>, threads: usize| {
            let mut eng = Engine::new(&a, forced(threads));
            let mut p = FusedCoin::new(300, 3, 0.3);
            let mut sink = RingSink::new(usize::MAX);
            let run = eng.run(&mut p).sink(&mut sink);
            let res = match rest {
                None => run.v2(13),
                Some(rest) => run.schedule(rest.iter().copied(), 2).v2(13),
            };
            (res, p.informed, event_stream(&sink))
        };
        let fixed = v2(None, 1);
        assert_eq!(fixed, v2(Some(&[]), 1));
        assert_eq!(fixed, v2(Some(&[&a]), 1));
        let switching = v2(Some(&[&b]), 1);
        assert_ne!(switching.0, fixed.0, "the switch must change the run");
        assert_eq!(switching, v2(Some(&[&b]), 3));

        // A lazily generated mobility stream runs exactly like the same
        // snapshots collected into a `Vec` — under v1, and under v2 at 1
        // and 3 threads.
        fn mobile<I>(
            first: &DiGraph,
            rest: I,
            v2_threads: Option<usize>,
        ) -> (RunResult, Vec<bool>, Vec<RoundEvents>)
        where
            I: IntoIterator,
            I::Item: Borrow<DiGraph>,
        {
            let cfg = EngineConfig {
                par_min_edges: 0,
                par_min_edges_implicit: 0,
                par_min_awake: 0,
                ..EngineConfig::with_max_rounds(200)
            };
            let mut eng = Engine::new(first, cfg.with_threads(v2_threads.unwrap_or(1)));
            let mut p = FusedCoin::new(300, 3, 0.3);
            let mut sink = RingSink::new(usize::MAX);
            let run = eng.run(&mut p).sink(&mut sink).schedule(rest, 4);
            let res = match v2_threads {
                None => run.v1(&mut derive_rng(13, b"eng", 0)),
                Some(_) => run.v2(13),
            };
            (res, p.informed, event_stream(&sink))
        }
        let stream = || {
            radio_graph::generate::MobileGeometric::new(300, 0.1, 0.05, derive_rng(13, b"mob", 0))
                .take(60)
        };
        let snapshots: Vec<DiGraph> = stream().collect();
        let collected = |threads| mobile(&snapshots[0], snapshots[1..].iter(), threads);
        let lazy = |threads| {
            let mut rest = stream();
            let first = rest.next().expect("60 snapshots");
            mobile(&first, rest, threads)
        };
        let v1_run = collected(None);
        assert!(v1_run.0.rounds > 4, "the run must cross epochs");
        assert_eq!(lazy(None), v1_run);
        let v2_run = collected(Some(1));
        assert_eq!(lazy(Some(1)), v2_run);
        assert_eq!(lazy(Some(3)), v2_run);
        assert_eq!(collected(Some(3)), v2_run);
    }

    /// Counts the items a schedule pulls from `inner`.
    struct Counted<'c, I> {
        inner: I,
        pulls: &'c std::cell::Cell<usize>,
    }

    impl<I: Iterator> Iterator for Counted<'_, I> {
        type Item = I::Item;
        fn next(&mut self) -> Option<I::Item> {
            self.pulls.set(self.pulls.get() + 1);
            self.inner.next()
        }
    }

    #[test]
    fn schedule_pulls_one_snapshot_per_epoch_reached() {
        // Flooding crosses path(10) in exactly 9 rounds whatever the
        // schedule (every snapshot is the same path), so a run of R = 9
        // rounds with epochs of e rounds reaches ⌈R/e⌉ epochs and must
        // pull exactly ⌈R/e⌉ − 1 snapshots from an endless source — one
        // more means the loop pulled ahead.
        let g = path(10);
        for every in 1..=11u64 {
            let pulls = std::cell::Cell::new(0);
            let rest = Counted {
                inner: std::iter::repeat(&g),
                pulls: &pulls,
            };
            let mut p = Flood::new(10, 0);
            let res = Engine::new(&g, EngineConfig::with_max_rounds(100))
                .run(&mut p)
                .schedule(rest, every)
                .v1(&mut derive_rng(14, b"eng", 0));
            assert_eq!(res.rounds, 9);
            assert_eq!(
                pulls.get() as u64,
                res.rounds.div_ceil(every) - 1,
                "switch_every = {every}"
            );
        }
    }

    #[test]
    fn wrong_size_snapshot_panics_when_its_epoch_is_pulled() {
        // Epoch 2 (rounds 5..) carries a 5-node snapshot on a 6-node
        // engine: a run capped at round 4 never pulls it and finishes,
        // one that reaches round 5 panics exactly at that pull.
        let g = path(6);
        let bad = path(5);
        let run_to = |max_rounds: u64, pulls: &std::cell::Cell<usize>| {
            let rest = Counted {
                inner: [&g, &bad].into_iter(),
                pulls,
            };
            let mut p = Flood::new(6, 0);
            Engine::new(&g, EngineConfig::with_max_rounds(max_rounds))
                .run(&mut p)
                .schedule(rest, 2)
                .v1(&mut derive_rng(15, b"eng", 0))
        };
        let pulls = std::cell::Cell::new(0);
        assert_eq!(run_to(4, &pulls).rounds, 4);
        assert_eq!(pulls.get(), 1);

        let pulls = std::cell::Cell::new(0);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_to(10, &pulls)))
            .expect_err("the 5-node snapshot must be rejected");
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("engine's node count"), "got: {msg}");
        assert_eq!(pulls.get(), 2, "the panic fires at the second pull");
    }

    #[test]
    fn schedule_that_ends_early_stays_on_its_last_snapshot() {
        // The engine's graph has no edges; the one scheduled snapshot is
        // the chain 0 → 1 → … → 6, from round 3 on. The source ends at
        // round 5's pull, and the run must keep flooding on the chain
        // (not fall back to the empty graph) and never pull again.
        let empty = DiGraph::from_edges(7, &[]);
        let chain = DiGraph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]);
        let pulls = std::cell::Cell::new(0);
        let rest = Counted {
            inner: std::iter::once(&chain),
            pulls: &pulls,
        };
        let mut p = Flood::new(7, 0);
        let res = Engine::new(&empty, EngineConfig::with_max_rounds(50))
            .run(&mut p)
            .schedule(rest, 2)
            .v1(&mut derive_rng(16, b"eng", 0));
        assert!(res.completed);
        assert_eq!(res.rounds, 8, "one hop per round from round 3");
        assert_eq!(pulls.get(), 2, "one snapshot, one end, no pull after it");
    }

    #[test]
    fn txonly_overlay_is_a_passthrough() {
        // Same seed with and without the overlay: identical run, and the
        // reported energy is exactly the transmission counts.
        let g = path(10);
        let plain = {
            let mut p = Flood::new(10, 0);
            let mut rng = derive_rng(20, b"eng", 0);
            Engine::new(&g, EngineConfig::default())
                .run(&mut p)
                .v1(&mut rng)
        };
        let mut p = Flood::new(10, 0);
        let mut rng = derive_rng(20, b"eng", 0);
        let mut session = radio_energy::EnergySession::new(10, radio_energy::TxOnly, 1);
        let res = Engine::new(&g, EngineConfig::default())
            .run(&mut p)
            .energy(&mut session)
            .v1(&mut rng);
        assert_eq!(res.run.rounds, plain.rounds);
        assert_eq!(res.run.metrics, plain.metrics);
        assert!(!res.stopped_on_depletion);
        assert_eq!(
            res.energy.total_energy(),
            plain.metrics.total_transmissions() as f64
        );
        let per_node: Vec<f64> = plain.metrics.per_node().iter().map(|&c| c as f64).collect();
        assert_eq!(res.energy.spent, per_node);
    }

    #[test]
    fn linear_overlay_charges_listening_nodes_every_round() {
        // FloodOnce on a path: each node transmits once then engine-sleeps,
        // but its receiver stays on (radio_off defaults to false), so under
        // listen-ratio 1 every live node pays 1 unit every round: total
        // energy = n · rounds regardless of duty mix.
        let g = path(6);
        let mut p = FloodOnce::new(6, 0);
        let mut rng = derive_rng(21, b"eng", 0);
        let mut session = radio_energy::EnergySession::new(
            6,
            radio_energy::LinearRadio::with_listen_ratio(1.0),
            2,
        );
        let res = Engine::new(&g, EngineConfig::default())
            .run(&mut p)
            .energy(&mut session)
            .v1(&mut rng);
        assert!(res.run.completed);
        let expected = 6.0 * res.run.rounds as f64;
        assert!(
            (res.energy.total_energy() - expected).abs() < 1e-9,
            "total {} != n·rounds {expected}",
            res.energy.total_energy()
        );
    }

    #[test]
    fn radio_off_hint_switches_idle_to_sleep_cost() {
        /// FloodOnce whose nodes declare the radio off once they have sent.
        struct DutyCycled {
            inner: FloodOnce,
        }
        impl Protocol for DutyCycled {
            type Msg = ();
            fn initially_awake(&self) -> Vec<NodeId> {
                self.inner.initially_awake()
            }
            fn decide(&mut self, n: NodeId, r: u64, rng: &mut ChaCha8Rng) -> Action {
                self.inner.decide(n, r, rng)
            }
            fn payload(&self, _n: NodeId, _r: u64) -> Self::Msg {}
            fn on_receive(
                &mut self,
                n: NodeId,
                f: NodeId,
                r: u64,
                m: &Self::Msg,
                rng: &mut ChaCha8Rng,
            ) {
                self.inner.on_receive(n, f, r, m, rng);
            }
            fn is_complete(&self) -> bool {
                self.inner.is_complete()
            }
            fn informed_count(&self) -> usize {
                self.inner.informed_count()
            }
            fn radio_off(&self, node: NodeId, _round: u64) -> bool {
                self.inner.sent[node as usize]
            }
        }

        let g = path(6);
        let model = radio_energy::LinearRadio::new(1.0, 1.0, 1.0, 0.0);
        let run_total = |duty_cycled: bool| {
            let mut rng = derive_rng(22, b"eng", 0);
            let mut session = radio_energy::EnergySession::new(6, model, 3);
            if duty_cycled {
                let mut p = DutyCycled {
                    inner: FloodOnce::new(6, 0),
                };
                Engine::new(&g, EngineConfig::default())
                    .run(&mut p)
                    .energy(&mut session)
                    .v1(&mut rng)
                    .energy
                    .total_energy()
            } else {
                let mut p = FloodOnce::new(6, 0);
                Engine::new(&g, EngineConfig::default())
                    .run(&mut p)
                    .energy(&mut session)
                    .v1(&mut rng)
                    .energy
                    .total_energy()
            }
        };
        let always_on = run_total(false);
        let cycled = run_total(true);
        assert!(
            cycled < always_on,
            "sleep cost 0 must beat idle listening: {cycled} vs {always_on}"
        );
    }

    #[test]
    fn battery_depletion_is_fail_stop_mid_path() {
        // Unit drain, node 2's battery lasts exactly 1 round: it dies at
        // the end of round 1, before the frontier (round 2: node 1 sends)
        // reaches it — the message can never pass node 2.
        let g = path(5);
        let mut caps = vec![f64::INFINITY; 5];
        caps[2] = 1.0;
        let mut p = Flood::new(5, 0);
        let mut rng = derive_rng(23, b"eng", 0);
        let mut session =
            radio_energy::EnergySession::new(5, radio_energy::LinearRadio::uniform_drain(1.0), 4)
                .with_battery(radio_energy::Battery::per_node(caps));
        let res = Engine::new(&g, EngineConfig::with_max_rounds(50))
            .run(&mut p)
            .energy(&mut session)
            .v1(&mut rng);
        assert!(!res.run.completed);
        assert!(p.informed[1]);
        assert!(!p.informed[2], "depleted node must not learn");
        assert!(!p.informed[3], "message cannot pass the dead relay");
        assert_eq!(res.energy.first_depletion_round, Some(1));
        assert_eq!(res.energy.depleted_nodes(), vec![2]);
        assert_eq!(res.energy.residual_charge(2), Some(0.0));
    }

    #[test]
    fn halt_on_depletion_stops_at_first_death() {
        let g = path(8);
        let mut p = Flood::new(8, 0);
        let mut rng = derive_rng(24, b"eng", 0);
        // Uniform capacity 3 under unit drain: every battery dies at the
        // end of round 3; the lifetime run must stop right there.
        let mut session =
            radio_energy::EnergySession::new(8, radio_energy::LinearRadio::uniform_drain(1.0), 5)
                .with_battery(radio_energy::Battery::uniform(8, 3.0))
                .with_halt_on_depletion(true);
        let res = Engine::new(&g, EngineConfig::with_max_rounds(100))
            .run(&mut p)
            .energy(&mut session)
            .v1(&mut rng);
        assert!(res.stopped_on_depletion);
        assert_eq!(res.run.rounds, 3);
        assert_eq!(res.energy.first_depletion_round, Some(3));
        assert!(!res.run.hit_round_cap);
    }

    #[test]
    fn charge_to_cap_keeps_charging_after_quiescence() {
        // 0 → 2 and 1 → 2, both sources send exactly once (colliding at
        // node 2) and then engine-sleep: the run quiesces at round 2 with
        // node 2 forever uninformed — but every radio is still powered
        // (radio_off defaults to false). Default sessions stop charging
        // there; charge-to-cap sessions pay idle up to the round cap.
        let g = DiGraph::from_edges(3, &[(0, 2), (1, 2)]);
        let cap = 10u64;
        let run_total = |charge_to_cap: bool| {
            let mut p = FloodOnce::new(3, 0);
            p.inner.informed[1] = true;
            p.inner.n_informed = 2;
            let mut rng = derive_rng(27, b"eng", 0);
            let mut session = radio_energy::EnergySession::new(
                3,
                radio_energy::LinearRadio::uniform_drain(1.0),
                8,
            )
            .with_charge_to_cap(charge_to_cap);
            let res = Engine::new(&g, EngineConfig::with_max_rounds(cap))
                .run(&mut p)
                .energy(&mut session)
                .v1(&mut rng);
            (res.run.rounds, res.energy.total_energy())
        };
        let (rounds_default, energy_default) = run_total(false);
        assert_eq!(rounds_default, 2, "run quiesces before the cap");
        assert_eq!(energy_default, 3.0 * 2.0);
        let (rounds_cap, energy_cap) = run_total(true);
        assert_eq!(rounds_cap, cap, "charge-to-cap runs the full horizon");
        assert_eq!(energy_cap, 3.0 * cap as f64);
    }

    #[test]
    fn network_death_quiesces_the_run() {
        // Everyone's battery dies at the end of round 2; with no live
        // node left the engine must stop on its own, well before the cap.
        let g = path(4);
        let mut p = Flood::new(4, 0);
        let mut rng = derive_rng(25, b"eng", 0);
        let mut session =
            radio_energy::EnergySession::new(4, radio_energy::LinearRadio::uniform_drain(1.0), 6)
                .with_battery(radio_energy::Battery::uniform(4, 2.0));
        let res = Engine::new(&g, EngineConfig::with_max_rounds(1000))
            .run(&mut p)
            .energy(&mut session)
            .v1(&mut rng);
        assert!(!res.run.completed);
        assert!(res.run.rounds <= 4, "dead network must quiesce");
        assert_eq!(res.energy.depleted_count(), 4);
    }

    #[test]
    fn energy_session_reuse_across_runs_is_deterministic() {
        let g = path(8);
        let mut eng = Engine::new(&g, EngineConfig::default());
        let mut session = radio_energy::EnergySession::new(
            8,
            radio_energy::FadingRadio::new(radio_energy::LinearRadio::with_listen_ratio(0.5)),
            7,
        );
        let mut totals = Vec::new();
        for _ in 0..3 {
            let mut p = Flood::new(8, 0);
            let mut rng = derive_rng(26, b"eng", 0);
            let res = eng.run(&mut p).energy(&mut session).v1(&mut rng);
            assert!(res.run.completed);
            totals.push(res.energy.total_energy());
        }
        assert_eq!(totals[0], totals[1]);
        assert_eq!(totals[1], totals[2]);
    }

    #[test]
    fn run_par_matches_serial_bit_for_bit() {
        // Coin-flip transmitters on a dense-ish Gnp: the RNG stream is
        // consumed in decide/delivery order, so any divergence in the
        // parallel scatter (ordering, collision marking, receiver bitmap)
        // would cascade into different rounds/metrics/traces.
        let g = radio_graph::generate::gnp_directed(500, 0.08, &mut derive_rng(30, b"parg", 0));

        struct Coin {
            informed: Vec<bool>,
            n_informed: usize,
        }
        impl Protocol for Coin {
            type Msg = ();
            fn initially_awake(&self) -> Vec<NodeId> {
                vec![0]
            }
            fn decide(&mut self, n: NodeId, _r: u64, rng: &mut ChaCha8Rng) -> Action {
                use rand::RngExt;
                if self.informed[n as usize] && rng.random_bool(0.4) {
                    Action::Transmit
                } else {
                    Action::Silent
                }
            }
            fn payload(&self, _n: NodeId, _r: u64) -> Self::Msg {}
            fn on_receive(
                &mut self,
                n: NodeId,
                _f: NodeId,
                _r: u64,
                _m: &Self::Msg,
                _rng: &mut ChaCha8Rng,
            ) {
                if !self.informed[n as usize] {
                    self.informed[n as usize] = true;
                    self.n_informed += 1;
                }
            }
            fn is_complete(&self) -> bool {
                self.n_informed == self.informed.len()
            }
            fn informed_count(&self) -> usize {
                self.n_informed
            }
        }

        let run_at = |threads: usize| {
            let mut p = Coin {
                informed: {
                    let mut v = vec![false; 500];
                    v[0] = true;
                    v
                },
                n_informed: 1,
            };
            let mut rng = derive_rng(31, b"par", 0);
            // Force the parallel path even on this small graph.
            let cfg = EngineConfig {
                par_min_edges: 0,
                ..EngineConfig::with_max_rounds(200)
            };
            let mut sink = RingSink::new(usize::MAX);
            let res = Engine::new(&g, cfg.with_threads(threads))
                .run(&mut p)
                .sink(&mut sink)
                .v1(&mut rng);
            (
                res.rounds,
                res.completed,
                res.metrics,
                event_stream(&sink),
                p.informed,
            )
        };
        let serial = run_at(1);
        for threads in [2, 3, 8] {
            assert_eq!(serial, run_at(threads), "{threads} threads diverged");
        }
    }

    #[test]
    fn scatter_plan_picks_strategy_per_backend_and_threshold() {
        use RangeQueryCost::{FullRowReplay, Narrowed};
        let cfg = EngineConfig::default();
        // The plan is serial or the transmitter shard on every backend;
        // each cost hint gates on its own threshold: stored rows on
        // par_min_edges, rows regenerated per query on the lower
        // par_min_edges_implicit.
        for (cost, min) in [
            (Narrowed, PAR_SCATTER_MIN_EDGES),
            (FullRowReplay, PAR_SCATTER_MIN_EDGES_IMPLICIT),
        ] {
            assert_eq!(scatter_plan(&cfg, cost, 8, 10_000, 100, min), 8);
            assert_eq!(scatter_plan(&cfg, cost, 8, 10_000, 100, min - 1), 1);
        }
        // An edge volume between the two thresholds fans out on implicit
        // backends (every edge carries generation work) but not on CSR.
        const _: () = assert!(PAR_SCATTER_MIN_EDGES_IMPLICIT < PAR_SCATTER_MIN_EDGES);
        let mid = (PAR_SCATTER_MIN_EDGES_IMPLICIT + PAR_SCATTER_MIN_EDGES) / 2;
        assert_eq!(scatter_plan(&cfg, FullRowReplay, 8, 10_000, 100, mid), 8);
        assert_eq!(scatter_plan(&cfg, Narrowed, 8, 10_000, 100, mid), 1);
    }

    #[test]
    fn scatter_plan_honors_overrides_and_caps() {
        use RangeQueryCost::{FullRowReplay, Narrowed};
        // The thresholds are read from the config: overriding both to 0
        // fans out any round with workers to spare, on either backend.
        let zeroed = EngineConfig {
            par_min_edges: 0,
            par_min_edges_implicit: 0,
            ..EngineConfig::default()
        };
        for cost in [Narrowed, FullRowReplay] {
            assert_eq!(scatter_plan(&zeroed, cost, 4, 1_000, 500, 0), 4);
            // Worker caps: never more workers than transmitters, nor
            // than 64-node bitmap words (⌈300/64⌉ = 5).
            assert_eq!(scatter_plan(&zeroed, cost, 16, 1_000, 3, 1 << 20), 3);
            assert_eq!(scatter_plan(&zeroed, cost, 16, 300, 40, 1 << 20), 5);
            // A graph of one word, a single thread or a single
            // transmitter scatters serially.
            for n in [5, 64] {
                assert_eq!(scatter_plan(&zeroed, cost, 16, n, 4, 1 << 20), 1);
            }
            assert_eq!(scatter_plan(&zeroed, cost, 1, 1_000, 500, 1 << 20), 1);
            assert_eq!(scatter_plan(&zeroed, cost, 8, 1_000, 1, 1 << 20), 1);
        }
    }

    /// Record each worker's `(receiver, transmitter)` hits into its own
    /// [`Heard`] set, fold the sets with the delivery sweep's
    /// `drain_heard`, and return the visits as `(node, Some(source))` for
    /// a clean node and `(node, None)` for a collided one. Asserts the
    /// fold leaves every word and count zero.
    fn fold_hits(n: usize, workers: &[&[(NodeId, NodeId)]]) -> Vec<(NodeId, Option<NodeId>)> {
        let src: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
        let mut heard: Vec<Heard> = workers.iter().map(|_| Heard::new(n)).collect();
        for (Heard { bits, hits }, worker_hits) in heard.iter_mut().zip(workers) {
            for &(v, u) in worker_hits.iter() {
                record_hit(hits, bits, &src, v, u);
            }
        }
        let mut visits = Vec::new();
        drain_heard(&mut heard, |v, collided| {
            let from = src[v as usize].load(Ordering::Relaxed);
            visits.push((v, (!collided).then_some(from)));
        });
        assert!(
            heard
                .iter()
                .all(|h| h.bits.iter().all(|&w| w == 0) && h.hits.iter().all(|&c| c == 0)),
            "the fold must clear every word and count it reads"
        );
        visits
    }

    #[test]
    fn heard_fold_is_order_free_and_ascending() {
        let n = 200; // four words, the last one partial
                     // 1 worker: 64 is heard twice within the worker.
        let one: &[&[(NodeId, NodeId)]] = &[&[(199, 8), (64, 6), (63, 5), (64, 7), (0, 9)]];
        // 2 workers: 128 is heard once by each.
        let two: &[&[(NodeId, NodeId)]] = &[&[(128, 2), (63, 1)], &[(199, 5), (128, 4), (64, 3)]];
        // 3 workers: 64 twice within worker 1, 100 across workers 1 and
        // 2, 150 across workers 0 and 2 (the middle worker silent).
        let three: &[&[(NodeId, NodeId)]] = &[
            &[(150, 9), (65, 2), (63, 1)],
            &[(64, 3), (100, 5), (64, 4)],
            &[(199, 7), (100, 6), (130, 8), (150, 10)],
        ];
        let clean = |v, u| (v, Some(u));
        let collided = |v| (v, None);
        assert_eq!(
            fold_hits(n, one),
            [clean(0, 9), clean(63, 5), collided(64), clean(199, 8)]
        );
        assert_eq!(
            fold_hits(n, two),
            [clean(63, 1), clean(64, 3), collided(128), clean(199, 5)]
        );
        assert_eq!(
            fold_hits(n, three),
            [
                clean(63, 1),
                collided(64),
                clean(65, 2),
                collided(100),
                clean(130, 8),
                collided(150),
                clean(199, 7),
            ]
        );
        // Against a naive count, for every split of one hit list over
        // 1, 2 and 3 workers: the verdict does not depend on the split.
        let hits: Vec<(NodeId, NodeId)> = (0..300u32)
            .map(|k| ((k * k * 11 / 5 + k) % n as u32, k))
            .collect();
        let mut count = vec![0u32; n];
        let mut from = vec![0; n];
        for &(v, u) in &hits {
            count[v as usize] += 1;
            from[v as usize] = u;
        }
        let want: Vec<_> = (0..n)
            .filter(|&v| count[v] > 0)
            .map(|v| (v as NodeId, (count[v] == 1).then_some(from[v])))
            .collect();
        assert!(want.iter().any(|w| w.1.is_none()) && want.iter().any(|w| w.1.is_some()));
        for t in 1..=3 {
            let cuts: Vec<&[(NodeId, NodeId)]> = (0..t)
                .map(|w| &hits[w * hits.len() / t..(w + 1) * hits.len() / t])
                .collect();
            assert_eq!(fold_hits(n, &cuts), want, "{t} workers");
        }
    }

    /// Coin-flip transmitters with a send budget, as a [`FusedDecide`]
    /// protocol: the pure half only reads, the commit half applies the
    /// budget decrement / sleep bookkeeping. `Protocol::decide` is
    /// derived from the two halves, so the same instance also runs on
    /// the v1 engine.
    struct FusedCoin {
        informed: Vec<bool>,
        n_informed: usize,
        sent: Vec<u32>,
        budget: u32,
        q: f64,
    }

    impl FusedCoin {
        fn new(n: usize, budget: u32, q: f64) -> Self {
            let mut informed = vec![false; n];
            informed[0] = true;
            FusedCoin {
                informed,
                n_informed: 1,
                sent: vec![0; n],
                budget,
                q,
            }
        }
    }

    impl Protocol for FusedCoin {
        type Msg = ();
        fn initially_awake(&self) -> Vec<NodeId> {
            vec![0]
        }
        fn decide(&mut self, node: NodeId, round: u64, rng: &mut ChaCha8Rng) -> Action {
            self.decide_and_commit(node, round, rng)
        }
        fn payload(&self, _n: NodeId, _r: u64) -> Self::Msg {}
        fn on_receive(
            &mut self,
            node: NodeId,
            _f: NodeId,
            _r: u64,
            _m: &Self::Msg,
            _rng: &mut ChaCha8Rng,
        ) {
            if !self.informed[node as usize] {
                self.informed[node as usize] = true;
                self.n_informed += 1;
            }
        }
        fn is_complete(&self) -> bool {
            self.n_informed == self.informed.len()
        }
        fn informed_count(&self) -> usize {
            self.n_informed
        }
    }

    impl FusedDecide for FusedCoin {
        fn decide_pure(&self, node: NodeId, _round: u64, rng: &mut ChaCha8Rng) -> Action {
            use rand::RngExt;
            if self.sent[node as usize] >= self.budget {
                return Action::Sleep;
            }
            if rng.random_bool(self.q) {
                Action::Transmit
            } else {
                Action::Silent
            }
        }
        fn commit_decide(&mut self, node: NodeId, _round: u64, action: Action) {
            if action == Action::Transmit {
                self.sent[node as usize] += 1;
            }
        }
    }

    #[test]
    fn run_fused_is_bit_identical_across_thread_counts() {
        let g = radio_graph::generate::gnp_directed(400, 0.07, &mut derive_rng(50, b"fuse-g", 0));
        let run_at = |threads: usize| {
            let cfg = EngineConfig {
                par_min_edges: 0,
                par_min_awake: 0, // force the parallel decide path
                ..EngineConfig::with_max_rounds(200)
            };
            let mut p = FusedCoin::new(400, 3, 0.35);
            let mut sink = RingSink::new(usize::MAX);
            let res =
                run_protocol_fused_traced(&g, &mut p, cfg.with_threads(threads), 0xF00D, &mut sink);
            (
                res.rounds,
                res.completed,
                res.metrics,
                event_stream(&sink),
                p.informed,
            )
        };
        let serial = run_at(1);
        assert!(serial.1, "fused coin flood should complete on this Gnp");
        for threads in [2, 3, 8] {
            assert_eq!(serial, run_at(threads), "{threads} threads diverged");
        }
    }

    #[test]
    fn fused_decisions_come_from_per_node_streams() {
        // Same run, two different run seeds: different trajectories —
        // and the run is reproducible per seed.
        let g = radio_graph::generate::gnp_directed(200, 0.1, &mut derive_rng(51, b"fuse-g", 1));
        let run_with_seed = |seed: u64| {
            let mut p = FusedCoin::new(200, 2, 0.4);
            let res = run_protocol_fused(&g, &mut p, EngineConfig::with_max_rounds(300), seed);
            (res.rounds, res.metrics)
        };
        assert_eq!(run_with_seed(7), run_with_seed(7));
        assert_ne!(run_with_seed(7), run_with_seed(8));
    }

    #[test]
    fn fused_mass_sleep_compacts_and_quiesces() {
        // Budget 1 with q = 1: every informed node transmits exactly once
        // and then sleeps — mass passivation that trips the eager
        // compaction threshold (more than half the list stale at once).
        // The awake-count invariant debug_asserts in the round loop do
        // the real checking; the run must also quiesce on its own.
        let g = path(12);
        for threads in [1usize, 4] {
            let cfg = EngineConfig {
                par_min_edges: 0,
                par_min_awake: 0,
                ..EngineConfig::with_max_rounds(1000)
            };
            let mut p = FusedCoin::new(12, 1, 1.0);
            let res = run_protocol_fused(&g, &mut p, cfg.with_threads(threads), 3);
            assert!(res.completed, "{threads} threads");
            assert_eq!(res.metrics.max_transmissions_per_node(), 1);
            assert!(
                res.rounds <= 13,
                "one-shot flood crosses the path a hop per round"
            );
        }
    }

    #[test]
    fn fused_engine_reuse_across_runs_is_clean() {
        let g = radio_graph::generate::gnp_directed(150, 0.1, &mut derive_rng(52, b"fuse-g", 2));
        let mut eng = Engine::new(&g, EngineConfig::with_max_rounds(300));
        let fingerprint = |eng: &mut Engine| {
            let mut p = FusedCoin::new(150, 2, 0.4);
            let res = eng.run(&mut p).v2(0xAB);
            (res.rounds, res.completed, res.metrics)
        };
        let first = fingerprint(&mut eng);
        for _ in 0..3 {
            assert_eq!(first, fingerprint(&mut eng), "scratch state leaked");
        }
        // And a v1 run in between must not poison the fused pools.
        let mut p = Flood::new(150, 0);
        let _ = eng.run(&mut p).v1(&mut derive_rng(1, b"mix", 0));
        assert_eq!(first, fingerprint(&mut eng), "v1 run poisoned the pools");
    }

    #[test]
    fn engine_stays_usable_after_a_panicked_run() {
        // A protocol panic unwinds out of the run with the pooled
        // scratch still taken; the next run must re-size it instead of
        // indexing empty vectors (regression test for the pool hoist).
        struct PanicAt2;
        impl Protocol for PanicAt2 {
            type Msg = ();
            fn initially_awake(&self) -> Vec<NodeId> {
                vec![0]
            }
            fn decide(&mut self, _n: NodeId, round: u64, _rng: &mut ChaCha8Rng) -> Action {
                assert!(round < 2, "scripted mid-run failure");
                Action::Transmit
            }
            fn payload(&self, _n: NodeId, _r: u64) -> Self::Msg {}
            fn on_receive(
                &mut self,
                _n: NodeId,
                _f: NodeId,
                _r: u64,
                _m: &Self::Msg,
                _rng: &mut ChaCha8Rng,
            ) {
            }
            fn is_complete(&self) -> bool {
                false
            }
            fn informed_count(&self) -> usize {
                1
            }
        }

        let g = path(8);
        let mut eng = Engine::new(&g, EngineConfig::with_max_rounds(100));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut p = PanicAt2;
            let mut rng = derive_rng(1, b"boom", 0);
            eng.run(&mut p).v1(&mut rng)
        }));
        assert!(panicked.is_err(), "the scripted panic must fire");

        // Both cores must recover on the same engine.
        let mut p = Flood::new(8, 0);
        let res = eng.run(&mut p).v1(&mut derive_rng(2, b"boom", 0));
        assert!(res.completed);
        assert_eq!(res.rounds, 7);
        let mut p2 = FusedCoin::new(8, 1, 1.0);
        let res2 = eng.run(&mut p2).v2(3);
        assert!(res2.completed);
    }

    #[test]
    fn fused_energy_overlay_is_bit_identical_and_batteries_bite() {
        let g = radio_graph::generate::gnp_directed(120, 0.12, &mut derive_rng(53, b"fuse-g", 3));
        // No battery: overlay run is bit-identical to the plain fused run.
        let plain = {
            let mut p = FusedCoin::new(120, 2, 0.4);
            let res = run_protocol_fused(&g, &mut p, EngineConfig::with_max_rounds(200), 11);
            (res.rounds, res.metrics.clone())
        };
        let mut p = FusedCoin::new(120, 2, 0.4);
        let mut session = radio_energy::EnergySession::new(
            120,
            radio_energy::LinearRadio::with_listen_ratio(0.5),
            4,
        );
        let res = Engine::new(&g, EngineConfig::with_max_rounds(200))
            .run(&mut p)
            .energy(&mut session)
            .v2(11);
        assert_eq!((res.run.rounds, res.run.metrics.clone()), plain);
        // With a tiny battery every node dies and the run quiesces early.
        let mut p2 = FusedCoin::new(120, 2, 0.4);
        let mut dying =
            radio_energy::EnergySession::new(120, radio_energy::LinearRadio::uniform_drain(1.0), 5)
                .with_battery(radio_energy::Battery::uniform(120, 2.0));
        let res2 = Engine::new(&g, EngineConfig::with_max_rounds(200))
            .run(&mut p2)
            .energy(&mut dying)
            .v2(11);
        assert!(!res2.run.completed);
        assert_eq!(res2.energy.depleted_count(), 120);
        assert!(res2.run.rounds <= 5, "dead network must quiesce");
    }

    #[test]
    fn already_complete_protocol_runs_zero_rounds() {
        let g = path(1);
        let mut p = Flood::new(1, 0);
        let mut rng = derive_rng(10, b"eng", 0);
        let res = Engine::new(&g, EngineConfig::default())
            .run(&mut p)
            .v1(&mut rng);
        assert!(res.completed);
        assert_eq!(res.rounds, 0);
        assert_eq!(res.metrics.total_transmissions(), 0);
    }
}
