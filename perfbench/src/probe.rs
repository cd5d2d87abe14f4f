//! Measurement wrappers for the traced run. Every layer is observed from
//! outside, through the workspace's public traits:
//!
//! * [`CountingTopology`] forwards [`Topology`] and counts rows, range
//!   rows, neighbours and the time spent inside topology calls.
//! * [`PhaseClock`] is the engine-side clock. Its [`ClockSink`] is a
//!   [`TraceSink`] (round start and end, transmissions, the first
//!   collision or delivery), and [`Probed`] forwards [`FusedDecide`]
//!   and stamps `commit_decide`, `payload` and `is_complete`. From
//!   those boundaries each round splits into decide, scatter and
//!   delivery time.
//!
//! Both wrappers only observe: they forward every call unchanged,
//! including [`Topology::range_query_cost`], so the engine picks the same
//! scatter partition and the run is bit-identical to an unwrapped one
//! (`tests/transparent.rs` pins this).

use radio_graph::{NodeId, RangeQueryCost, Topology};
use radio_sim::trace::{TraceEvent, TraceSink};
use radio_sim::{Action, FusedDecide, Protocol};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// Counter stripes: topology calls arrive from the engine's scatter
/// workers, so each thread adds into its own cache line.
const STRIPES: usize = 8;

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Relaxed) % STRIPES;
}

#[derive(Default)]
#[repr(align(128))]
struct Stripe {
    rows: AtomicU64,
    range_rows: AtomicU64,
    neighbors: AtomicU64,
    busy_ns: AtomicU64,
}

/// Totals read from a [`CountingTopology`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TopoCounts {
    /// Full-row queries (`for_each_out`).
    pub rows: u64,
    /// Receiver-range queries (`for_each_out_range`).
    pub range_rows: u64,
    /// Neighbours visited by either query.
    pub neighbors: u64,
    /// Seconds spent inside topology calls, summed over threads. It
    /// includes the engine's per-neighbour callback.
    pub busy_s: f64,
}

impl TopoCounts {
    /// Add another set of totals.
    pub fn add(&mut self, o: &TopoCounts) {
        self.rows += o.rows;
        self.range_rows += o.range_rows;
        self.neighbors += o.neighbors;
        self.busy_s += o.busy_s;
    }
}

/// A forwarding [`Topology`] that counts and times every row query.
pub struct CountingTopology<'a, T: Topology> {
    inner: &'a T,
    stripes: [Stripe; STRIPES],
}

impl<'a, T: Topology> CountingTopology<'a, T> {
    /// Wrap `inner` with zeroed counters.
    pub fn new(inner: &'a T) -> Self {
        CountingTopology {
            inner,
            stripes: Default::default(),
        }
    }

    /// The totals so far.
    pub fn counts(&self) -> TopoCounts {
        let sum = |f: fn(&Stripe) -> &AtomicU64| -> u64 {
            self.stripes.iter().map(|s| f(s).load(Relaxed)).sum()
        };
        TopoCounts {
            rows: sum(|s| &s.rows),
            range_rows: sum(|s| &s.range_rows),
            neighbors: sum(|s| &s.neighbors),
            busy_s: sum(|s| &s.busy_ns) as f64 * 1e-9,
        }
    }

    fn record(&self, range: bool, neighbors: u64, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        let s = &self.stripes[STRIPE.with(|&i| i)];
        if range {
            s.range_rows.fetch_add(1, Relaxed);
        } else {
            s.rows.fetch_add(1, Relaxed);
        }
        s.neighbors.fetch_add(neighbors, Relaxed);
        s.busy_ns.fetch_add(ns, Relaxed);
    }
}

impl<T: Topology> Topology for CountingTopology<'_, T> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn degree_hint(&self, u: NodeId) -> u64 {
        self.inner.degree_hint(u)
    }

    fn for_each_out<F: FnMut(NodeId)>(&self, u: NodeId, mut f: F) {
        let start = Instant::now();
        let mut k = 0u64;
        self.inner.for_each_out(u, |v| {
            k += 1;
            f(v);
        });
        self.record(false, k, start);
    }

    fn for_each_out_range<F: FnMut(NodeId)>(&self, u: NodeId, lo: NodeId, hi: NodeId, mut f: F) {
        let start = Instant::now();
        let mut k = 0u64;
        self.inner.for_each_out_range(u, lo, hi, |v| {
            k += 1;
            f(v);
        });
        self.record(true, k, start);
    }

    fn range_query_cost(&self) -> RangeQueryCost {
        self.inner.range_query_cost()
    }
}

/// Engine phase totals read from a [`PhaseClock`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineCounts {
    /// Seconds from the round start to the last `commit_decide` of a round
    /// (the whole round when nothing commits).
    pub decide_s: f64,
    /// Seconds from the last commit to the first delivery-side call: the
    /// scatter, plus the awake-list compaction before it.
    pub scatter_s: f64,
    /// Seconds from the first delivery-side call to `is_complete`.
    pub delivery_s: f64,
    /// Rounds run.
    pub rounds: u64,
    /// Awake nodes summed over round ends.
    pub awake_node_rounds: u64,
    /// Transmissions.
    pub transmissions: u64,
    /// Clean deliveries.
    pub deliveries: u64,
    /// Receivers that heard two or more transmitters.
    pub collisions: u64,
}

impl EngineCounts {
    /// Add another set of totals.
    pub fn add(&mut self, o: &EngineCounts) {
        self.decide_s += o.decide_s;
        self.scatter_s += o.scatter_s;
        self.delivery_s += o.delivery_s;
        self.rounds += o.rounds;
        self.awake_node_rounds += o.awake_node_rounds;
        self.transmissions += o.transmissions;
        self.deliveries += o.deliveries;
        self.collisions += o.collisions;
    }
}

/// Round-phase boundaries and engine work counts, fed by [`ClockSink`]
/// and [`Probed`]. All updates happen on the engine's serial side; the
/// fields are atomics only because [`FusedDecide`] requires `Sync`.
pub struct PhaseClock {
    base: Instant,
    in_round: AtomicBool,
    /// Timestamps (ns since `base`) of the current round; 0 = not yet.
    decide_start: AtomicU64,
    commit_end: AtomicU64,
    delivery_start: AtomicU64,
    complete_at: AtomicU64,
    decide_ns: AtomicU64,
    scatter_ns: AtomicU64,
    delivery_ns: AtomicU64,
    rounds: AtomicU64,
    awake_node_rounds: AtomicU64,
    transmissions: AtomicU64,
    deliveries: AtomicU64,
    collisions: AtomicU64,
}

impl Default for PhaseClock {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseClock {
    /// A zeroed clock.
    pub fn new() -> Self {
        PhaseClock {
            base: Instant::now(),
            in_round: AtomicBool::new(false),
            decide_start: AtomicU64::new(0),
            commit_end: AtomicU64::new(0),
            delivery_start: AtomicU64::new(0),
            complete_at: AtomicU64::new(0),
            decide_ns: AtomicU64::new(0),
            scatter_ns: AtomicU64::new(0),
            delivery_ns: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            awake_node_rounds: AtomicU64::new(0),
            transmissions: AtomicU64::new(0),
            deliveries: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
        }
    }

    /// The totals so far.
    pub fn counts(&self) -> EngineCounts {
        let s = |a: &AtomicU64| a.load(Relaxed) as f64 * 1e-9;
        EngineCounts {
            decide_s: s(&self.decide_ns),
            scatter_s: s(&self.scatter_ns),
            delivery_s: s(&self.delivery_ns),
            rounds: self.rounds.load(Relaxed),
            awake_node_rounds: self.awake_node_rounds.load(Relaxed),
            transmissions: self.transmissions.load(Relaxed),
            deliveries: self.deliveries.load(Relaxed),
            collisions: self.collisions.load(Relaxed),
        }
    }

    /// Nanoseconds since the clock was made, never 0.
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64 + 1
    }

    fn mark(&self, slot: &AtomicU64) {
        if self.in_round.load(Relaxed) {
            slot.store(self.now(), Relaxed);
        }
    }

    fn mark_first(&self, slot: &AtomicU64) {
        if self.in_round.load(Relaxed) && slot.load(Relaxed) == 0 {
            slot.store(self.now(), Relaxed);
        }
    }

    fn round_start(&self) {
        let now = self.now();
        self.in_round.store(true, Relaxed);
        self.decide_start.store(now, Relaxed);
        self.commit_end.store(0, Relaxed);
        self.delivery_start.store(0, Relaxed);
        self.complete_at.store(0, Relaxed);
    }

    fn round_end(&self, awake: u64) {
        let get = |a: &AtomicU64| a.load(Relaxed);
        let start = get(&self.decide_start);
        let end = match get(&self.complete_at) {
            0 => self.now(),
            t => t,
        };
        // A round with no commit has no scatter or delivery to speak of.
        let decide_end = match get(&self.commit_end) {
            0 => end,
            t => t,
        };
        let delivery_start = match get(&self.delivery_start) {
            0 => end,
            t => t.max(decide_end),
        };
        self.decide_ns
            .fetch_add(decide_end.saturating_sub(start), Relaxed);
        self.scatter_ns
            .fetch_add(delivery_start.saturating_sub(decide_end), Relaxed);
        self.delivery_ns
            .fetch_add(end.saturating_sub(delivery_start), Relaxed);
        self.rounds.fetch_add(1, Relaxed);
        self.awake_node_rounds.fetch_add(awake, Relaxed);
        self.in_round.store(false, Relaxed);
    }
}

/// The [`TraceSink`] half of a [`PhaseClock`].
pub struct ClockSink<'a>(pub &'a PhaseClock);

impl TraceSink for ClockSink<'_> {
    const ACTIVE: bool = true;

    fn emit(&mut self, ev: TraceEvent) {
        let c = self.0;
        match ev {
            TraceEvent::RoundStart { .. } => c.round_start(),
            TraceEvent::Transmit { .. } => {
                c.transmissions.fetch_add(1, Relaxed);
            }
            TraceEvent::Sleep { .. } | TraceEvent::Depleted { .. } => {}
            TraceEvent::Collision { .. } => {
                c.mark_first(&c.delivery_start);
                c.collisions.fetch_add(1, Relaxed);
            }
            TraceEvent::Deliver { .. } => {
                c.mark_first(&c.delivery_start);
                c.deliveries.fetch_add(1, Relaxed);
            }
            TraceEvent::RoundEnd { awake, .. } => c.round_end(awake),
        }
    }
}

/// A forwarding [`FusedDecide`] protocol that stamps the phase
/// boundaries it sees into a [`PhaseClock`].
pub struct Probed<'a, P> {
    inner: P,
    clock: &'a PhaseClock,
}

impl<'a, P> Probed<'a, P> {
    /// Wrap `inner`.
    pub fn new(inner: P, clock: &'a PhaseClock) -> Self {
        Probed { inner, clock }
    }

    /// The wrapped protocol, for reading its outcome after the run.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: FusedDecide> Protocol for Probed<'_, P> {
    type Msg = P::Msg;

    fn initially_awake(&self) -> Vec<NodeId> {
        self.inner.initially_awake()
    }

    fn decide(&mut self, node: NodeId, round: u64, rng: &mut ChaCha8Rng) -> Action {
        self.inner.decide(node, round, rng)
    }

    fn payload(&self, node: NodeId, round: u64) -> Self::Msg {
        self.clock.mark_first(&self.clock.delivery_start);
        self.inner.payload(node, round)
    }

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
        let done = self.inner.is_complete();
        self.clock.mark(&self.clock.complete_at);
        done
    }

    fn informed_count(&self) -> usize {
        self.inner.informed_count()
    }

    fn active_count(&self) -> usize {
        self.inner.active_count()
    }

    fn radio_off(&self, node: NodeId, round: u64) -> bool {
        self.inner.radio_off(node, round)
    }
}

impl<P: FusedDecide> FusedDecide for Probed<'_, P> {
    fn begin_round(&mut self, round: u64) {
        self.inner.begin_round(round);
    }

    fn decide_pure(&self, node: NodeId, round: u64, rng: &mut ChaCha8Rng) -> Action {
        self.inner.decide_pure(node, round, rng)
    }

    fn commit_decide(&mut self, node: NodeId, round: u64, action: Action) {
        self.inner.commit_decide(node, round, action);
        self.clock.mark(&self.clock.commit_end);
    }
}
