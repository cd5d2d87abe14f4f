//! Counting-allocator pin for the **transmitter-sharded scatter's
//! scratch**: once the engine has created its shard workers' hit sets
//! (at the first round that fans out), a fanned-out round allocates
//! only what its scoped-thread spawn books (the scope's shared state,
//! the spawned thread's handle, packet and boxed closure, and that
//! thread's own start-up) — a constant, whatever the round's hit
//! volume. A scatter that stored hits (a per-hit `Vec` push, pooled
//! or not) would grow its buffers as the rounds' hit volume grows, and
//! fail here.
//!
//! The run: v1 on `ImplicitGnp`, n = 4096, 2 threads and every
//! threshold zeroed, with a fixed-length storm whose transmitter set
//! grows by 16 nodes per round. Bytes are counted from round 2 on, per
//! round, at expected degree 8 and 32.
//!
//! This file holds exactly one `#[test]`, for the same reason as
//! `alloc_free.rs`: the counting allocator is process-global, so a
//! concurrently running test would pollute the count, and
//! integration-test binaries are per-file.

use radio_graph::{ImplicitGnp, NodeId, Topology};
use radio_sim::engine::{scatter_plan, Engine};
use radio_sim::{Action, EngineConfig, Protocol};
use radio_util::derive_rng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts the bytes requested by allocations (and by growth
/// reallocations, at their new size) while armed.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const N: usize = 4096;
/// Rounds per run; every round runs (the storm never completes).
const ROUNDS: u64 = 32;
/// Transmitters added per round: round `r` has `STEP · r` of them.
const STEP: u32 = 16;
/// Per-round allocation budget of a fanned-out 2-worker round. Measured
/// on x86-64 Linux with Rust 1.95's std, debug and release: exactly 200
/// bytes in every counted round at both degrees (one scope, one spawned
/// thread). The bound leaves room for std's spawn bookkeeping to change,
/// not for a buffer that scales with the round's hits (≥ 8 B per hit;
/// round `r` makes about `128·r` hits at degree 8, `512·r` at 32).
const SPAWN_BYTES_BOUND: u64 = 1024;

/// All nodes awake; in round `r` the nodes below `STEP · r` transmit,
/// the rest stay silent. Records the armed byte count at the first poll
/// of every round into a buffer preallocated up front.
struct GrowingStorm {
    round_start_bytes: Vec<u64>,
    last_round: u64,
}

impl Protocol for GrowingStorm {
    type Msg = ();
    fn initially_awake(&self) -> Vec<NodeId> {
        (0..N as NodeId).collect()
    }
    fn decide(&mut self, node: NodeId, round: u64, _rng: &mut ChaCha8Rng) -> Action {
        if round != self.last_round {
            self.last_round = round;
            self.round_start_bytes.push(BYTES.load(Ordering::SeqCst));
        }
        if u64::from(node) < u64::from(STEP) * round {
            Action::Transmit
        } else {
            Action::Silent
        }
    }
    fn payload(&self, _n: NodeId, _r: u64) -> Self::Msg {}
    fn on_receive(&mut self, _: NodeId, _: NodeId, _: u64, _: &Self::Msg, _: &mut ChaCha8Rng) {}
    fn is_complete(&self) -> bool {
        false
    }
    fn informed_count(&self) -> usize {
        0
    }
}

/// Bytes allocated in each of rounds 2 ..= ROUNDS − 1 of a storm on a
/// fresh engine (each counted from its round's first poll to the next
/// round's).
fn bytes_per_round(degree: f64) -> Vec<u64> {
    let g = ImplicitGnp::with_expected_degree(N, degree, 0x5ca7_7e12);
    let cfg = EngineConfig {
        par_min_edges: 0,
        par_min_edges_implicit: 0,
        ..EngineConfig::with_max_rounds(ROUNDS)
    }
    .with_threads(2);
    // The smallest round (STEP transmitters) already fans out.
    let first_edges = (0..STEP).map(|u| g.degree_hint(u)).sum();
    assert_eq!(
        scatter_plan(&cfg, g.range_query_cost(), 2, N, STEP as usize, first_edges),
        2,
        "every round of the storm must fan out to two shard workers"
    );
    // No warm-up run: round 1 creates worker 1's hit set, and every
    // later round makes more hits than any before it, so a buffer that
    // held hits, pooled or not, would have to grow inside the count.
    let mut eng = Engine::new(&g, cfg);
    let mut proto = GrowingStorm {
        round_start_bytes: Vec::with_capacity(ROUNDS as usize),
        last_round: 0,
    };
    BYTES.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let res = eng
        .run(&mut proto)
        .v1(&mut derive_rng(2, b"alloc-shard", 0));
    COUNTING.store(false, Ordering::SeqCst);
    assert_eq!(res.rounds, ROUNDS);
    assert!(
        res.metrics.total_transmissions() >= u64::from(STEP) * ROUNDS * (ROUNDS + 1) / 2,
        "the storm must transmit on schedule"
    );
    let starts = &proto.round_start_bytes;
    assert_eq!(starts.len(), ROUNDS as usize);
    // starts[k] is round k + 1's start: round r spans starts[r-1..=r].
    (2..ROUNDS as usize)
        .map(|r| starts[r] - starts[r - 1])
        .collect()
}

#[test]
fn shard_rounds_allocate_only_spawn_bookkeeping() {
    let sparse = bytes_per_round(8.0);
    let dense = bytes_per_round(32.0);
    for (degree, rounds) in [(8, &sparse), (32, &dense)] {
        for (k, &bytes) in rounds.iter().enumerate() {
            assert!(
                bytes <= SPAWN_BYTES_BOUND,
                "degree {degree}, round {}: {bytes} B allocated (bound {SPAWN_BYTES_BOUND} B): \
                 per-round bytes: {rounds:?}",
                k + 2
            );
        }
    }
    let (max_sparse, max_dense) = (sparse.iter().max(), dense.iter().max());
    assert!(
        max_dense <= max_sparse,
        "per-round bytes grew with the degree: {sparse:?} at 8, {dense:?} at 32"
    );
}
