//! Counting-allocator pin for the engine's **allocation-free trial
//! steady state**: after round 1 of a run on a warmed engine, the round
//! loop performs **zero heap allocations** — every buffer it touches
//! (stamped hit records, awake bookkeeping, transmitter/touched/event
//! lists) lives in pools owned by the [`Engine`] and sized to the graph
//! up front. At `n = 2²⁰` this is what stops a sweep from paying a
//! multi-MB alloc + zero per trial.
//!
//! Scope: the test drives the *serial* paths (`threads = 1`). Parallel
//! rounds additionally pay OS-level scoped-thread spawns — per-round
//! thread stacks the engine does not pool — which is a separate,
//! bounded cost that the receiver-range scatter only takes on when a
//! round's edge volume already dwarfs it.
//!
//! This file holds exactly one `#[test]`: the counting allocator is
//! process-global, so a concurrently running test would pollute the
//! count. Integration-test binaries are per-file, which gives this test
//! its own process.

use radio_graph::generate::gnp_directed;
use radio_graph::NodeId;
use radio_sim::engine::Engine;
use radio_sim::{Action, EngineConfig, FusedDecide, Protocol};
use radio_util::derive_rng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts allocations (and growth reallocations) while armed.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Arms the counter from round 2 on (round 1 may still touch cold
/// buffers; the steady-state claim starts after it).
fn arm_from_round(round: u64) {
    if round == 2 {
        COUNTING.store(true, Ordering::SeqCst);
    }
}

/// Coin-flip flood with a per-node send budget; all state preallocated
/// in `new`, nothing allocated per round.
struct Coin {
    informed: Vec<bool>,
    n_informed: usize,
    sent: Vec<u32>,
}

impl Coin {
    fn new(n: usize) -> Self {
        let mut informed = vec![false; n];
        informed[0] = true;
        Coin {
            informed,
            n_informed: 1,
            sent: vec![0; n],
        }
    }
}

impl Protocol for Coin {
    type Msg = ();
    fn initially_awake(&self) -> Vec<NodeId> {
        vec![0]
    }
    fn decide(&mut self, node: NodeId, round: u64, rng: &mut ChaCha8Rng) -> Action {
        // v1 path: no begin_round hook, so arm here (first poll of the
        // round; idempotent).
        arm_from_round(round);
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

impl FusedDecide for Coin {
    fn begin_round(&mut self, round: u64) {
        arm_from_round(round);
    }
    fn decide_pure(&self, node: NodeId, _round: u64, rng: &mut ChaCha8Rng) -> Action {
        use rand::RngExt;
        if self.sent[node as usize] >= 4 {
            return Action::Sleep;
        }
        if rng.random_bool(0.3) {
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

/// Run `body`, counting allocations from its round 2 until it returns.
fn count_allocs_after_round_1<R>(body: impl FnOnce() -> R) -> (u64, R) {
    COUNTING.store(false, Ordering::SeqCst);
    let before = ALLOCS.load(Ordering::SeqCst);
    let out = body(); // arms itself at round 2 via the protocol hooks
    COUNTING.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst) - before, out)
}

#[test]
fn steady_state_rounds_allocate_nothing() {
    let n = 2048;
    let p = 8.0 * (n as f64).ln() / n as f64;
    let g = gnp_directed(n, p, &mut derive_rng(3, b"alloc-g", 0));
    let mut eng = Engine::new(&g, EngineConfig::with_max_rounds(300));

    // Warm-up trial: cold pools may still size themselves.
    let mut warm = Coin::new(n);
    let warm_run = eng.run(&mut warm).v2(1);
    assert!(warm_run.completed, "coin flood should finish the warm-up");

    // Fused v2 trial on the warmed engine: zero allocations after
    // round 1. (Metrics::new at run start is before round 1 and so is
    // out of scope by construction.)
    let (fused_allocs, fused_run) = count_allocs_after_round_1(|| {
        let mut proto = Coin::new(n);
        eng.run(&mut proto).v2(2)
    });
    assert!(fused_run.completed);
    assert!(
        fused_run.rounds > 2,
        "claim is vacuous unless rounds ran armed"
    );
    assert_eq!(
        fused_allocs, 0,
        "fused steady state must not allocate after round 1"
    );

    // Same claim for the v1 serial engine on the same pools.
    let (v1_allocs, v1_run) = count_allocs_after_round_1(|| {
        let mut proto = Coin::new(n);
        let mut rng = derive_rng(7, b"alloc-run", 0);
        eng.run(&mut proto).v1(&mut rng)
    });
    assert!(v1_run.completed);
    assert!(v1_run.rounds > 2);
    assert_eq!(
        v1_allocs, 0,
        "v1 steady state must not allocate after round 1"
    );
}
