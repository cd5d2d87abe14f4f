//! The optimised simulation engine: one round loop behind one run
//! builder.
//!
//! [`Engine::run`] starts a [`Run`]; the optional hooks [`Run::energy`],
//! [`Run::sink`] and [`Run::schedule`] attach an energy overlay, a trace
//! sink and a changing topology; the terminal [`Run::v1`] or [`Run::v2`]
//! picks the determinism contract and executes the run. Both contracts
//! drive the same round loop (`Engine::run_loop`); they differ only in
//! where the coin flips come from (the private `StreamContract`).

use crate::metrics::{EnergyMetrics, Metrics, RoundRecord, Trace};
use crate::streams::DecideStreams;
use crate::{Action, FusedDecide, Protocol};
use hook::EnergyHook;
use radio_energy::{Duty, EnergySession};
use radio_graph::{DiGraph, NodeId, RangeQueryCost, Topology};
use radio_trace::{NullSink, TraceEvent, TraceSink};
use rand_chacha::ChaCha8Rng;

/// Engine knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Hard round cap; a run that has not completed by then reports
    /// `completed = false` and `hit_round_cap = true`.
    pub max_rounds: u64,
    /// Half-duplex radios (default, the standard radio model): a node
    /// that transmits in round `t` cannot also receive in round `t`.
    pub half_duplex: bool,
    /// Record a per-round [`Trace`] (costs one `RoundRecord` per round).
    pub record_trace: bool,
    /// Log to stderr when a run stops at `max_rounds` without completing.
    /// Defaults to `true` under [`EngineConfig::default`] (whose huge cap
    /// would otherwise silently mask non-terminating protocols) and
    /// `false` under [`EngineConfig::with_max_rounds`] (a deliberately
    /// chosen budget, e.g. a fixed-length schedule that always runs to
    /// its cap).
    pub warn_on_round_cap: bool,
    /// Worker threads for the *intra-run* parallel phases (`1` = fully
    /// serial, the default), and the only way to set a run's worker
    /// count: the scatter/collision phase, partitioned by receiver id
    /// range or by transmitter shard as [`scatter_plan`] picks per
    /// backend, and — under the v2 contract ([`Run::v2`]) — the decide
    /// phase, fanned out over awake-list chunks. Every partition
    /// reproduces the serial outcome, so any thread count produces
    /// bit-identical runs — see [`Run`] for the determinism contracts.
    pub threads: usize,
    /// Minimum per-round edge volume (Σ out-degree over the round's
    /// transmitters) before the **receiver-range** scatter fans out;
    /// below it the round stays serial because scoped-thread spawn
    /// overhead would beat any cache-miss savings. Purely a performance
    /// threshold — both paths compute identical state, so it never
    /// affects results. Tests force the parallel path with `0`.
    pub par_min_edges: u64,
    /// Minimum per-round edge volume before the **transmitter-sharded**
    /// scatter fans out (the strategy picked for
    /// [`RangeQueryCost::FullRowReplay`] backends). Lower than
    /// [`par_min_edges`]: on implicit backends `degree_hint` is an
    /// upper-bound estimate and each edge carries row-*regeneration*
    /// work, so the fan-out pays for its spawns sooner. Purely a
    /// performance threshold, like [`par_min_edges`]; tests force the
    /// parallel path with `0`.
    ///
    /// [`par_min_edges`]: EngineConfig::par_min_edges
    pub par_min_edges_implicit: u64,
    /// Which parallel scatter partition to use when a round fans out;
    /// `Auto` (the default) picks per backend via
    /// [`Topology::range_query_cost`]. Every strategy produces
    /// bit-identical results — the overrides exist for tests and
    /// benchmarks that pin one path.
    pub scatter_strategy: ScatterStrategy,
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
            record_trace: false,
            warn_on_round_cap: true,
            threads: 1,
            par_min_edges: PAR_SCATTER_MIN_EDGES,
            par_min_edges_implicit: PAR_SCATTER_MIN_EDGES_IMPLICIT,
            scatter_strategy: ScatterStrategy::Auto,
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

    /// Enable per-round tracing.
    pub fn traced(mut self) -> Self {
        self.record_trace = true;
        self
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

    /// Pin the parallel scatter partition strategy (chainable). Results
    /// are bit-identical under every strategy; this exists for tests
    /// and benches that must exercise one specific path.
    pub fn with_scatter_strategy(mut self, strategy: ScatterStrategy) -> Self {
        self.scatter_strategy = strategy;
        self
    }
}

/// Which partition the parallel scatter phase uses when a round's edge
/// volume justifies fanning out. All strategies compute identical
/// `hits` records and receiver bitmap — see [`Run`]'s determinism
/// contracts — so this knob can trade speed but never results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScatterStrategy {
    /// Pick per backend from [`Topology::range_query_cost`]:
    /// receiver-range where range queries narrow cheaply (CSR),
    /// transmitter-sharded where they replay the full row (implicit
    /// backends). The default.
    Auto,
    /// Always partition by receiver id range: each worker owns a
    /// `hits` range and asks the topology for in-range neighbors of
    /// every transmitter. Optimal for CSR (two binary searches per
    /// row); O(t·edges) row regeneration on implicit backends.
    ReceiverRange,
    /// Always partition by transmitter shard: each worker generates its
    /// own transmitters' rows exactly once — O(edges) total — and emits
    /// `(receiver, transmitter)` hit records that a deterministic
    /// receiver-keyed merge resolves to the serial outcome.
    TransmitterShard,
}

/// Result of one simulation run.
///
/// `PartialEq` compares every field (rounds, completion flags, full
/// per-node metrics, trace) — the equality the CSR-vs-implicit topology
/// equivalence tests assert bit-for-bit.
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
    /// Per-round records when tracing was enabled.
    pub trace: Option<Trace>,
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
    use radio_graph::NodeId;

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
}

/// Per-node round-stamped scratch, packed into one 8-byte record (eight
/// per cache line) so the scatter loop's random access to a target costs
/// a single line instead of three — separate `stamp`/`hit_count`/
/// `hit_source` arrays put the same node's state in three different
/// lines, and every edge of every transmitter touches its target's
/// state, making this the dominant cost of the collision count at scale.
///
/// The collision rule only needs "exactly one transmitter in range", so
/// the paper-faithful count collapses to one *collided* bit folded into
/// the stamp word. Stamps are `u32` round numbers (`0` = never; rounds
/// are 1-based); the round loop asserts the round cap fits 31 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
struct HitRecord {
    /// `round << 1 | collided` for the round in which `source` was last
    /// written (0 = never).
    stamp: u32,
    /// The transmitter heard this round; meaningful iff not collided.
    source: NodeId,
}

const HIT_NEVER: HitRecord = HitRecord {
    stamp: 0,
    source: 0,
};

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

/// The resolved decision for one scatter round: which path runs, with
/// how many workers. Produced by [`scatter_plan`]; public so the path
/// selection is unit-testable without driving a full run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScatterPlan {
    /// Below the strategy's edge threshold (or nothing to fan out):
    /// one transmitter-order pass on the calling thread.
    Serial,
    /// Receiver-range partition over `threads` workers.
    ReceiverRange {
        /// Worker count, capped at the receiver bitmap's word count
        /// ⌈n/64⌉ (ranges are whole words).
        threads: usize,
    },
    /// Transmitter-sharded emit + receiver-keyed merge over `threads`
    /// workers.
    TransmitterShard {
        /// Worker count, capped at the bitmap word and transmitter
        /// counts.
        threads: usize,
    },
}

/// Pick the scatter path for one round — a pure function of the config,
/// the backend's [`RangeQueryCost`] hint, and the round's shape, so the
/// heuristic is testable in isolation. Strategy first ([`Auto`] resolves
/// via the cost hint), then that strategy's own edge threshold: implicit
/// backends gate on [`par_min_edges_implicit`] because their
/// `degree_hint` is an upper-bound estimate and every edge carries
/// generation work, CSR on [`par_min_edges`]. Never affects results —
/// every plan computes identical `hits` records and receiver bitmap.
///
/// Parallel partitions cut the node range at whole 64-node bitmap words,
/// so the worker count is capped at ⌈n/64⌉, and a graph of at most 64
/// nodes always scatters serially.
///
/// [`Auto`]: ScatterStrategy::Auto
/// [`par_min_edges`]: EngineConfig::par_min_edges
/// [`par_min_edges_implicit`]: EngineConfig::par_min_edges_implicit
pub fn scatter_plan(
    cfg: &EngineConfig,
    cost: RangeQueryCost,
    threads: usize,
    n: usize,
    transmitters: usize,
    edges: u64,
) -> ScatterPlan {
    let words = n.div_ceil(64);
    if threads <= 1 || transmitters <= 1 || words <= 1 {
        return ScatterPlan::Serial;
    }
    let shard = match cfg.scatter_strategy {
        ScatterStrategy::Auto => cost == RangeQueryCost::FullRowReplay,
        ScatterStrategy::ReceiverRange => false,
        ScatterStrategy::TransmitterShard => true,
    };
    let min_edges = if shard {
        cfg.par_min_edges_implicit
    } else {
        cfg.par_min_edges
    };
    if edges < min_edges {
        return ScatterPlan::Serial;
    }
    if shard {
        // More workers than transmitters would leave some idle with
        // empty shards; more than words would leave merge ranges empty.
        ScatterPlan::TransmitterShard {
            threads: threads.min(words).min(transmitters),
        }
    } else {
        ScatterPlan::ReceiverRange {
            threads: threads.min(words),
        }
    }
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
/// only ever asks the topology "who hears `u`?" ([`Topology::for_each_out`]
/// and its receiver-range variant), so monomorphization over `DiGraph`
/// produces exactly the pre-generic flat-CSR scatter, while the
/// implicit backends (`ImplicitGrid`, `ImplicitGnp`) answer the same
/// queries without ever materialising O(m) edge storage.
///
/// **Allocation-free steady state:** every piece of per-run scratch —
/// the stamped `hits` records, the receiver bitmap, the awake
/// bookkeeping, the per-round transmitter and decide-event buffers, and
/// the per-worker lists of the parallel phases — lives in pools owned
/// by the engine and sized to the graph once, so a trial loop over seeds
/// on a fixed graph performs **zero heap allocations after round 1 of a
/// run** beyond the returned metrics vector (pinned by the
/// counting-allocator test in `crates/sim/tests/alloc_free.rs`; parallel
/// rounds additionally pay the OS-level scoped-thread spawns, which is
/// why that test runs the serial path). At `n = 2²⁰` this saves a
/// multi-MB alloc + zero per trial that the pre-pool engine paid on
/// every run.
pub struct Engine<'g, T: Topology = DiGraph> {
    graph: &'g T,
    cfg: EngineConfig,
    /// Per-node scratch, stamped by round number to avoid clearing.
    hits: Vec<HitRecord>,
    /// Round in which each node last transmitted (`0` = never), for the
    /// half-duplex check; only touched per transmitter/receiver, so it
    /// stays out of the per-edge record.
    sent: Vec<u32>,
    /// This round's receivers: bit `v` of word `v / 64` is set at `v`'s
    /// first hit (⌈n/64⌉ words, 1/8 B per node). All zero between
    /// rounds — the delivery sweep clears each word as it walks it, in
    /// ascending node order. Parallel scatter partitions cut at whole
    /// words, so each worker owns its words outright.
    touched_bits: Vec<u64>,
    /// `(receiver, transmitter)` hit buckets of the transmitter-sharded
    /// scatter, indexed `[emit worker][receiver range]` and pooled like
    /// every other scratch: the emit phase fills `shard_hits[w][r]` with
    /// worker `w`'s hits landing in receiver range `r`, the merge phase
    /// drains column `r` in worker order (= serial transmitter order).
    shard_hits: Vec<Vec<Vec<(NodeId, NodeId)>>>,
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
            hits: vec![HIT_NEVER; n],
            sent: vec![0; n],
            touched_bits: vec![0; n.div_ceil(64)],
            shard_hits: Vec::new(),
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
            schedule: None,
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
    fn run_loop<C, P, E, S>(
        &mut self,
        schedule: Option<(&[&T], u64)>,
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
    {
        let n = self.graph.n();
        assert!(
            self.cfg.max_rounds < u64::from(u32::MAX >> 1),
            "max_rounds must fit the 31-bit round stamps (< {})",
            u32::MAX >> 1
        );
        let threads = self.cfg.threads.max(1);
        let half_duplex = self.cfg.half_duplex;
        let mut metrics = Metrics::new(n);
        self.reset_round_state();
        let mut trace = self.cfg.record_trace.then(Trace::default);

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
                                       // `stamp` values for this round: clean reception vs collision.
            let hit_once = rstamp << 1;
            let hit_many = hit_once | 1;
            let graph = match schedule {
                None => self.graph,
                Some((graphs, every)) => {
                    graphs[(((round - 1) / every) as usize).min(graphs.len() - 1)]
                }
            };
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
            self.scatter_round(graph, &pools.transmitters, hit_once, hit_many, threads);

            // --- delivery phase ---------------------------------------------
            // Serial, ascending receiver id (the contract shared with
            // `reference`/`baseline`): the bitmap walk yields exactly this
            // round's hit nodes in that order. `v` hears iff exactly one
            // transmitter reached it (a clean `hit_once` stamp), its own
            // radio was not busy transmitting under half-duplex, and its
            // battery has not run out; `on_receive` then draws from the
            // contract's receive stream.
            let mut deliveries = 0u64;
            let mut first_receptions = 0u64;
            if !pools.transmitters.is_empty() {
                drain_receivers(&mut self.touched_bits, |v| {
                    let vi = v as usize;
                    let HitRecord {
                        stamp,
                        source: from,
                    } = self.hits[vi];
                    if stamp != hit_once {
                        if S::ACTIVE {
                            sink.emit(TraceEvent::Collision { node: v });
                        }
                        return;
                    }
                    if half_duplex && self.sent[vi] == rstamp {
                        return; // v's own radio was busy transmitting
                    }
                    if E::ACTIVE && hook.is_dead(v, round) {
                        return; // a depleted radio hears nothing
                    }
                    let msg = protocol.payload(from, round);
                    let informed_before = protocol.informed_count();
                    if E::ACTIVE {
                        hook.charge(v, Duty::Receive, round);
                    }
                    contract.receive(&mut pools, protocol, v, from, round, &msg);
                    deliveries += 1;
                    if protocol.informed_count() > informed_before {
                        first_receptions += 1;
                    }
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

            if let Some(t) = trace.as_mut() {
                t.rounds.push(RoundRecord {
                    round,
                    transmitters: pools.transmitters.len() as u64,
                    deliveries,
                    newly_informed: first_receptions,
                    active: protocol.active_count() as u64,
                    informed: protocol.informed_count() as u64,
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
                trace,
            },
            halted,
        )
    }

    /// Reset the round-stamped per-node state at run start. Round numbers
    /// restart at 1 every run, so stale stamps from a previous run on
    /// this engine would alias; and a run that panicked mid-delivery
    /// leaves receiver bits set.
    fn reset_round_state(&mut self) {
        self.hits.fill(HIT_NEVER);
        self.sent.fill(0);
        self.touched_bits.fill(0);
    }

    /// The transmit-phase scatter: stamps this round's `hits` records
    /// from `transmitters` and sets each receiver's bit in `touched_bits`
    /// at its first hit, fanning out when the round's edge volume pays
    /// for the scoped-thread spawns — partitioned by receiver range or by
    /// transmitter shard per [`scatter_plan`].
    ///
    /// Scatter through [`Topology`] queries: for the CSR backend
    /// `for_each_out` monomorphizes to streaming one contiguous
    /// neighbors array (the pre-generic code), and each target update
    /// touches exactly one `HitRecord` line. Duplicate-freedom of the
    /// backend's rows is load-bearing here: a neighbor reported twice
    /// would flip a clean first hit into a phantom collision. All paths
    /// compute the same `hits` records and receiver bitmap, so the plan
    /// heuristic cannot influence results (and therefore neither can
    /// the thread count).
    fn scatter_round(
        &mut self,
        graph: &T,
        transmitters: &[NodeId],
        hit_once: u32,
        hit_many: u32,
        threads: usize,
    ) {
        let n = self.hits.len();
        let plan = if threads > 1 && transmitters.len() > 1 {
            // Edge-volume heuristic on `degree_hint` — exact for CSR,
            // an upper-bound estimate for implicit backends. Purely a
            // perf threshold: it picks a path, never changes what the
            // path computes.
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
            ScatterPlan::Serial
        };
        let t = match plan {
            ScatterPlan::Serial => {
                let hits = &mut self.hits;
                let bits = &mut self.touched_bits;
                for &u in transmitters {
                    graph.for_each_out(u, |v| record_hit(hits, bits, 0, v, u, hit_once, hit_many));
                }
                return;
            }
            ScatterPlan::TransmitterShard { threads } => {
                self.scatter_transmitter_shard(graph, transmitters, hit_once, hit_many, threads);
                return;
            }
            ScatterPlan::ReceiverRange { threads } => threads,
        };
        // Receiver-range partition reformulated as a neighbor-*query*
        // partition: worker `w` owns the bitmap words
        // `[⌊w·W/t⌋, ⌊(w+1)·W/t⌋)` (`W` = word count) and the nodes they
        // cover, and is the only writer of that `hits` range and those
        // words — whole words, so no atomics. Every worker walks the
        // full transmitter list in the same (serial) order, asking the
        // topology only for neighbors inside its range — CSR narrows
        // the sorted row with two binary searches; implicit backends
        // regenerate the row and filter (O(t·deg) total, the price of
        // not storing rows — [`scatter_plan`] steers those to the
        // transmitter shard instead). For any fixed receiver the
        // sequence of first-hit/collision updates is exactly the serial
        // one, because rows are duplicate-free and per-row order is
        // fixed per backend.
        let words = self.touched_bits.len();
        let tx: &[NodeId] = transmitters;
        let mut hits_rest: &mut [HitRecord] = &mut self.hits;
        let mut bits_rest: &mut [u64] = &mut self.touched_bits;
        let mut lo_word = 0usize;
        // One range's worth of work; runs on t − 1 spawned threads plus
        // the calling thread (which takes the last range instead of
        // idling at the join — one fewer spawn per round).
        std::thread::scope(|scope| {
            for w in 0..t {
                let hi_word = (w + 1) * words / t;
                let (lo, hi) = (lo_word * 64, (hi_word * 64).min(n));
                let (chunk, tail) = std::mem::take(&mut hits_rest).split_at_mut(hi - lo);
                hits_rest = tail;
                let (bits, tail) = std::mem::take(&mut bits_rest).split_at_mut(hi_word - lo_word);
                bits_rest = tail;
                let mut scatter_range = move || {
                    for &u in tx {
                        graph.for_each_out_range(u, lo as NodeId, hi as NodeId, |v| {
                            record_hit(chunk, bits, lo, v, u, hit_once, hit_many)
                        });
                    }
                };
                if w + 1 == t {
                    scatter_range();
                } else {
                    scope.spawn(scatter_range);
                }
                lo_word = hi_word;
            }
        });
    }

    /// The transmitter-sharded scatter: generate each row **exactly
    /// once**, then merge hits deterministically.
    ///
    /// **Emit** — the transmitter list is cut into `t` contiguous
    /// shards; worker `w` walks each owned row once via `for_each_out`
    /// (O(total edges) across all workers — no per-range row replay,
    /// which is what makes implicit backends scale) and pushes
    /// `(receiver, transmitter)` records into its own bucket for the
    /// receiver's merge range, `r = ⌊⌊v/64⌋·t/W⌋` (`W` = bitmap word
    /// count).
    ///
    /// **Merge** — worker `r` exclusively owns the bitmap words
    /// `[⌈r·W/t⌉, ⌈(r+1)·W/t⌉)` and the `hits` records of the nodes
    /// they cover — exactly the receivers whose bucket index is `r` —
    /// and drains buckets `shard_hits[0][r], …, shard_hits[t−1][r]` in
    /// that order. Shards tile the serial transmitter order and a
    /// duplicate-free row visits a receiver at most once, so for any
    /// fixed receiver the merged record sequence *is* the serial hit
    /// sequence: the first record is the serial first hit (the earliest
    /// transmitter in poll order), any later record marks the same
    /// collision the serial loop would. Results are bit-identical to
    /// serial by construction, independent of thread count and of where
    /// shard boundaries fall — even mid-collision, with two hitters of
    /// one receiver in different shards. Costs one extra thread-scope
    /// barrier per round relative to receiver-range — the price of not
    /// replaying rows per range.
    fn scatter_transmitter_shard(
        &mut self,
        graph: &T,
        transmitters: &[NodeId],
        hit_once: u32,
        hit_many: u32,
        t: usize,
    ) {
        let n = self.hits.len();
        let words = self.touched_bits.len();
        debug_assert!(t >= 2 && t <= words && t <= transmitters.len());
        if self.shard_hits.len() < t {
            self.shard_hits.resize_with(t, Vec::new);
        }
        for row in &mut self.shard_hits[..t] {
            if row.len() < t {
                row.resize_with(t, Vec::new);
            }
            for bucket in &mut row[..t] {
                bucket.clear();
            }
        }
        let (ww, tt) = (words as u64, t as u64);
        // Emit phase: t − 1 spawned workers plus the calling thread on
        // the last shard; each worker mutates only its own bucket row.
        std::thread::scope(|scope| {
            let mut lo = 0usize;
            for (w, buckets) in self.shard_hits[..t].iter_mut().enumerate() {
                let hi = (w + 1) * transmitters.len() / t;
                let shard = &transmitters[lo..hi];
                let emit = move |buckets: &mut [Vec<(NodeId, NodeId)>]| {
                    for &u in shard {
                        graph.for_each_out(u, |v| {
                            let r = (u64::from(v >> 6) * tt / ww) as usize;
                            buckets[r].push((v, u));
                        });
                    }
                };
                if w + 1 == t {
                    emit(buckets);
                } else {
                    scope.spawn(move || emit(&mut buckets[..]));
                }
                lo = hi;
            }
        });
        // Merge phase: buckets are read-only now; the hits ranges and
        // bitmap words are disjoint per worker.
        let shard_hits = &self.shard_hits;
        let mut hits_rest: &mut [HitRecord] = &mut self.hits;
        let mut bits_rest: &mut [u64] = &mut self.touched_bits;
        let mut lo_word = 0usize;
        std::thread::scope(|scope| {
            for r in 0..t {
                let hi_word = ((r as u64 + 1) * ww).div_ceil(tt) as usize;
                let (lo, hi) = (lo_word * 64, (hi_word * 64).min(n));
                let (chunk, tail) = std::mem::take(&mut hits_rest).split_at_mut(hi - lo);
                hits_rest = tail;
                let (bits, tail) = std::mem::take(&mut bits_rest).split_at_mut(hi_word - lo_word);
                bits_rest = tail;
                let mut merge = move || {
                    for row in &shard_hits[..t] {
                        for &(v, u) in &row[r] {
                            record_hit(chunk, bits, lo, v, u, hit_once, hit_many);
                        }
                    }
                };
                if r + 1 == t {
                    merge();
                } else {
                    scope.spawn(merge);
                }
                lo_word = hi_word;
            }
        });
        debug_assert_eq!(lo_word, words, "merge ranges must tile the bitmap");
    }
}

/// One run being set up: [`Engine::run`] starts it, the optional hooks
/// attach to it, and a terminal method picks the determinism contract
/// and executes it:
///
/// ```text
/// engine.run(&mut protocol)
///     .energy(&mut session)       // optional: energy overlay
///     .sink(&mut sink)            // optional: structured trace
///     .schedule(&graphs, every)   // optional: changing topology
///     .v1(&mut rng)               // or .v2(run_seed)
/// ```
///
/// The hooks are type parameters, so a run without them compiles to the
/// plain loop: with no overlay (`E = ()`) and the [`NullSink`] every
/// energy and trace call site compiles out. The terminal method returns
/// a [`RunResult`], or an [`EnergyRunResult`] once `.energy(..)` is
/// attached. The worker count is [`EngineConfig::threads`].
///
/// # Determinism contracts
///
/// Both contracts drive the same round loop: decide, a serial commit
/// sweep in poll (awake-list) order, the scatter/collision phase, and a
/// serial delivery sweep in ascending receiver order. The scatter fans
/// out in the partition [`scatter_plan`] picks per backend:
///
/// * **Receiver id range** (CSR): each worker streams the full
///   transmitter list over the rows but records hits only for its
///   disjoint node range — no merge step, no atomics.
/// * **Transmitter shard** (implicit backends, whose range queries
///   replay whole rows): each worker generates its own shard's rows
///   exactly once, and a deterministic receiver-keyed merge drains the
///   buckets in shard order — which *is* the serial transmitter order —
///   so every receiver resolves to the serial outcome.
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
/// Either way every partition reproduces the serial outcome, so runs are
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
pub struct Run<'r, 'g, T: Topology, P, E = (), S = NullSink> {
    engine: &'r mut Engine<'g, T>,
    protocol: &'r mut P,
    energy: E,
    sink: S,
    schedule: Option<(&'r [&'r T], u64)>,
}

impl<'r, 'g, T: Topology, P: Protocol, S> Run<'r, 'g, T, P, (), S> {
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
    ) -> Run<'r, 'g, T, P, &'s mut EnergySession, S> {
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

impl<'r, 'g, T: Topology, P: Protocol, E> Run<'r, 'g, T, P, E, NullSink> {
    /// Attach a structured [`TraceSink`] receiving the round-by-round
    /// event stream — see the `radio-trace` crate for the event model,
    /// the recording sinks and replay verification. A recording sink
    /// costs one buffered push per event on the serial side of the
    /// round, so the stream is identical for every thread count: record
    /// once, replay at any thread count.
    pub fn sink<'k, K: TraceSink>(self, sink: &'k mut K) -> Run<'r, 'g, T, P, E, &'k mut K> {
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

impl<'r, 'g, T: Topology, P: Protocol, E: EnergyHook, S: TraceSink> Run<'r, 'g, T, P, E, S> {
    /// Run on a *changing topology*: the network uses `graphs[k]` during
    /// rounds `k·switch_every + 1 ..= (k+1)·switch_every` and stays on
    /// the last snapshot afterwards; the engine's own graph only sizes
    /// the run, under either contract. Models node mobility (the paper's
    /// §1: "due to the mobility of the nodes, the network topology
    /// changes over time") — pair it with
    /// `radio_graph::generate::mobile_geometric_sequence`.
    ///
    /// # Panics
    /// Panics if `graphs` is empty, `switch_every == 0`, or a snapshot's
    /// node count differs from the engine's.
    pub fn schedule(mut self, graphs: &'r [&'r T], switch_every: u64) -> Self {
        assert!(!graphs.is_empty(), "need at least one topology snapshot");
        assert!(switch_every > 0, "switch_every must be positive");
        let n = self.engine.graph.n();
        assert!(
            graphs.iter().all(|g| g.n() == n),
            "every topology snapshot must have the engine's node count"
        );
        self.schedule = Some((graphs, switch_every));
        self
    }

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

/// Record a hit of `v` by transmitter `u` in a scatter worker's slices:
/// `hits` holds the records of nodes `base..`, `bits` the bitmap words
/// covering them (`base` is a multiple of 64, so node `base + i` is bit
/// `i % 64` of `bits[i / 64]`). The round's first hit stores the source
/// and sets the node's receiver bit; any later hit marks the collision.
#[inline(always)]
fn record_hit(
    hits: &mut [HitRecord],
    bits: &mut [u64],
    base: usize,
    v: NodeId,
    u: NodeId,
    hit_once: u32,
    hit_many: u32,
) {
    let i = v as usize - base;
    let h = &mut hits[i];
    if h.stamp | 1 != hit_many {
        *h = HitRecord {
            stamp: hit_once,
            source: u,
        };
        bits[i / 64] |= 1 << (i % 64);
    } else {
        h.stamp = hit_many;
    }
}

/// Walk the round's receiver bitmap in ascending node order, calling
/// `deliver` for every node hit this round, and clear each word as it
/// is read — so the bitmap is all zero again for the next round. The
/// delivery sweep of both cores.
#[inline]
fn drain_receivers(bits: &mut [u64], mut deliver: impl FnMut(NodeId)) {
    for (i, word) in bits.iter_mut().enumerate() {
        let mut w = std::mem::take(word);
        let base = (i * 64) as NodeId;
        while w != 0 {
            deliver(base + w.trailing_zeros());
            w &= w - 1;
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
    use radio_util::derive_rng;

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

        fn active_count(&self) -> usize {
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

        fn active_count(&self) -> usize {
            self.inner.active_count()
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
            fn active_count(&self) -> usize {
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
            fn active_count(&self) -> usize {
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
        let res = Engine::new(&g, EngineConfig::default().traced())
            .run(&mut p)
            .v1(&mut rng);
        let t = res.trace.expect("trace requested");
        assert_eq!(t.rounds.len(), res.rounds as usize);
        // Informed counts are non-decreasing and end at n.
        let informed: Vec<u64> = t.rounds.iter().map(|r| r.informed).collect();
        assert!(informed.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*informed.last().expect("non-empty"), 5);
        // Exactly one new node per round on a path.
        assert!(t.rounds.iter().all(|r| r.newly_informed == 1));
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
            fn active_count(&self) -> usize {
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
            .schedule(&[&a, &b], 3)
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
                .schedule(&[&g], 5)
                .v1(&mut rng)
                .rounds
        };
        assert_eq!(run_static, run_dyn);

        // Under v2 too, with every parallel path forced: a one-snapshot
        // schedule is the static run, and a two-snapshot schedule is
        // bit-identical at 1 and 3 threads.
        let a = radio_graph::generate::gnp_directed(300, 0.03, &mut derive_rng(13, b"dyn-g", 0));
        let b = radio_graph::generate::gnp_directed(300, 0.03, &mut derive_rng(13, b"dyn-g", 1));
        let v2 = |snapshots: &[&DiGraph], threads: usize| {
            let cfg = EngineConfig {
                par_min_edges: 0,
                par_min_edges_implicit: 0,
                par_min_awake: 0,
                ..EngineConfig::with_max_rounds(200).traced()
            };
            let mut eng = Engine::new(&a, cfg.with_threads(threads));
            let mut p = FusedCoin::new(300, 3, 0.3);
            let run = eng.run(&mut p);
            let res = if snapshots.is_empty() {
                run.v2(13)
            } else {
                run.schedule(snapshots, 2).v2(13)
            };
            (res, p.informed)
        };
        let fixed = v2(&[], 1);
        assert_eq!(fixed, v2(&[&a], 1));
        let switching = v2(&[&a, &b], 1);
        assert_ne!(switching.0, fixed.0, "the switch must change the run");
        assert_eq!(switching, v2(&[&a, &b], 3));
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
            fn active_count(&self) -> usize {
                self.inner.active_count()
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
            fn active_count(&self) -> usize {
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
                ..EngineConfig::with_max_rounds(200).traced()
            };
            let res = Engine::new(&g, cfg.with_threads(threads))
                .run(&mut p)
                .v1(&mut rng);
            (
                res.rounds,
                res.completed,
                res.metrics,
                res.trace,
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
        // Auto + cheap range queries: receiver-range above par_min_edges.
        assert_eq!(
            scatter_plan(&cfg, Narrowed, 8, 10_000, 100, PAR_SCATTER_MIN_EDGES),
            ScatterPlan::ReceiverRange { threads: 8 }
        );
        assert_eq!(
            scatter_plan(&cfg, Narrowed, 8, 10_000, 100, PAR_SCATTER_MIN_EDGES - 1),
            ScatterPlan::Serial
        );
        // Auto + full-row-replay range queries: transmitter shard, gated
        // on the lower implicit threshold.
        assert_eq!(
            scatter_plan(
                &cfg,
                FullRowReplay,
                8,
                10_000,
                100,
                PAR_SCATTER_MIN_EDGES_IMPLICIT
            ),
            ScatterPlan::TransmitterShard { threads: 8 }
        );
        assert_eq!(
            scatter_plan(
                &cfg,
                FullRowReplay,
                8,
                10_000,
                100,
                PAR_SCATTER_MIN_EDGES_IMPLICIT - 1
            ),
            ScatterPlan::Serial
        );
        // The calibration point of the satellite fix: an edge volume
        // between the two thresholds fans out on implicit backends
        // (every edge carries generation work) but not on CSR.
        const _: () = assert!(PAR_SCATTER_MIN_EDGES_IMPLICIT < PAR_SCATTER_MIN_EDGES);
        let mid = (PAR_SCATTER_MIN_EDGES_IMPLICIT + PAR_SCATTER_MIN_EDGES) / 2;
        assert_eq!(
            scatter_plan(&cfg, FullRowReplay, 8, 10_000, 100, mid),
            ScatterPlan::TransmitterShard { threads: 8 }
        );
        assert_eq!(
            scatter_plan(&cfg, Narrowed, 8, 10_000, 100, mid),
            ScatterPlan::Serial
        );
    }

    #[test]
    fn scatter_plan_honors_overrides_and_caps() {
        use RangeQueryCost::{FullRowReplay, Narrowed};
        let shard =
            EngineConfig::default().with_scatter_strategy(ScatterStrategy::TransmitterShard);
        let range = EngineConfig::default().with_scatter_strategy(ScatterStrategy::ReceiverRange);
        // Overrides beat the backend hint (both directions).
        assert_eq!(
            scatter_plan(&shard, Narrowed, 4, 1_000, 500, 1 << 20),
            ScatterPlan::TransmitterShard { threads: 4 }
        );
        assert_eq!(
            scatter_plan(&range, FullRowReplay, 4, 1_000, 500, 1 << 20),
            ScatterPlan::ReceiverRange { threads: 4 }
        );
        // Worker caps: shards never outnumber transmitters, ranges never
        // outnumber the 64-node bitmap words (⌈300/64⌉ = 5), and a graph
        // of one word has nothing to partition.
        assert_eq!(
            scatter_plan(&shard, FullRowReplay, 16, 1_000, 3, 1 << 20),
            ScatterPlan::TransmitterShard { threads: 3 }
        );
        assert_eq!(
            scatter_plan(&range, Narrowed, 16, 300, 4, 1 << 20),
            ScatterPlan::ReceiverRange { threads: 5 }
        );
        assert_eq!(
            scatter_plan(&shard, FullRowReplay, 16, 300, 40, 1 << 20),
            ScatterPlan::TransmitterShard { threads: 5 }
        );
        for cfg in [shard, range] {
            for n in [5, 64] {
                assert_eq!(
                    scatter_plan(&cfg, Narrowed, 16, n, 4, 1 << 20),
                    ScatterPlan::Serial
                );
            }
        }
        // Degenerate rounds stay serial under every strategy.
        for cfg in [shard, range] {
            assert_eq!(
                scatter_plan(&cfg, FullRowReplay, 1, 1_000, 500, 1 << 20),
                ScatterPlan::Serial
            );
            assert_eq!(
                scatter_plan(&cfg, FullRowReplay, 8, 1_000, 1, 1 << 20),
                ScatterPlan::Serial
            );
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
        fn active_count(&self) -> usize {
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
                ..EngineConfig::with_max_rounds(200).traced()
            };
            let mut p = FusedCoin::new(400, 3, 0.35);
            let res = run_protocol_fused(&g, &mut p, cfg.with_threads(threads), 0xF00D);
            (
                res.rounds,
                res.completed,
                res.metrics,
                res.trace,
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
            fn active_count(&self) -> usize {
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
