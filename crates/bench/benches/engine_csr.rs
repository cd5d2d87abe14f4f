//! The engine on its hot paths, at `n = 10⁴`.
//!
//! `engine_csr/gnp` is the baseline workload: a collision storm on a CSR
//! `G(n, p)` with every node transmitting each round, so the
//! neighbor-scatter loop and the delivery sweep dominate. CI's perf gate
//! tracks every group here against `BENCH_baseline.json`.
//!
//! The `engine_energy` group runs the same storm with the `radio-energy`
//! overlay attached — `txonly` exercises the passthrough fast path
//! (contractually near-zero overhead vs `engine_csr`), `linear` the full
//! per-round duty charging — so the CI gate also pins the overlay's
//! overhead on the CSR hot path. The `engine_par` group runs it through
//! the intra-run parallel scatter at 2 and 8 receiver-range workers
//! (`EngineConfig::with_threads`), gating the parallel path's cost the
//! same way.
//!
//! Two groups cover the **v2 contract**: `decide_phase/{v1,v2}`
//! isolates the per-round decision loop on an edgeless graph (v1 shared
//! serial stream vs v2 per-node counter-based streams), and
//! `engine_fused/{1t,8t}` runs a v2 run end to end on the storm
//! graph. The `scatter_phase/{csr,grid,gnp}/{1t,8t}` group pins the
//! scatter partition strategies per backend: receiver-range on CSR,
//! transmitter-sharded on the implicit topologies (the `Auto` plan's
//! choice either way). Thread-scaling entries (`engine_par` /
//! `engine_fused` / `scatter_phase` `<k>t`, k > 1) are gated only
//! between equal-`host_threads` runs — see `bench_compare`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use radio_energy::{EnergySession, LinearRadio, TxOnly};
use radio_graph::generate::gnp_directed;
use radio_graph::{DiGraph, NodeId};
use radio_sim::engine::{run_protocol_fused, run_protocol_fused_traced};
use radio_sim::trace::{RecordingSink, RunHeader};
use radio_sim::{Action, Engine, EngineConfig, FusedDecide, Protocol};
use radio_util::derive_rng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

const ROUNDS: u64 = 30;

/// Every node awake and transmitting every round; never completes, so a
/// run is exactly `ROUNDS` rounds of full-graph scatter.
struct Storm {
    n: usize,
}

impl Protocol for Storm {
    type Msg = ();
    fn initially_awake(&self) -> Vec<NodeId> {
        (0..self.n as NodeId).collect()
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
    }
    fn is_complete(&self) -> bool {
        false
    }
    fn informed_count(&self) -> usize {
        self.n
    }
}

/// Coin-flip storm: every node awake and flipping a biased coin every
/// round, forever — the decide-phase-dominated workload (one RNG draw
/// per node per round). The [`FusedDecide`] impl is stateless, so the
/// identical protocol drives the v1 engine (shared serial stream) and
/// the fused v2 engine (per-node counter-based streams).
struct CoinStorm {
    n: usize,
    coin: rand::Bernoulli,
}

impl CoinStorm {
    fn new(n: usize, q: f64) -> Self {
        // The coin's threshold is precomputed once, as a real protocol
        // would (`rand::Bernoulli` is bit-compatible with `random_bool`),
        // so the bench measures stream setup + draw, not float math.
        CoinStorm {
            n,
            coin: rand::Bernoulli::new(q),
        }
    }
}

impl Protocol for CoinStorm {
    type Msg = ();
    fn initially_awake(&self) -> Vec<NodeId> {
        (0..self.n as NodeId).collect()
    }
    fn decide(&mut self, node: NodeId, round: u64, rng: &mut ChaCha8Rng) -> Action {
        self.decide_and_commit(node, round, rng)
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
        self.n
    }
}

impl FusedDecide for CoinStorm {
    fn decide_pure(&self, _node: NodeId, _round: u64, rng: &mut ChaCha8Rng) -> Action {
        if self.coin.sample(rng) {
            Action::Transmit
        } else {
            Action::Silent
        }
    }
    fn commit_decide(&mut self, _node: NodeId, _round: u64, _action: Action) {}
}

fn storm_graph(n: usize) -> DiGraph {
    let p = 6.0 * (n as f64).ln() / n as f64;
    gnp_directed(n, p, &mut derive_rng(7, b"csr-bench-g", 0))
}

fn cfg() -> EngineConfig {
    EngineConfig::with_max_rounds(ROUNDS)
}

/// Node count of every workload here.
const N: usize = 10_000;

fn bench_engine_csr(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_csr");
    group.sample_size(10);
    let g = storm_graph(N);
    group.throughput(Throughput::Elements(g.m() as u64 * ROUNDS));
    group.bench_with_input(BenchmarkId::new("gnp", N), &g, |b, g| {
        b.iter(|| {
            let mut p = Storm { n: N };
            let mut rng = derive_rng(1, b"csr-bench", 0);
            black_box(Engine::new(g, cfg()).run(&mut p).v1(&mut rng))
        });
    });
    group.finish();
}

fn bench_engine_par(c: &mut Criterion) {
    // The same storm through the intra-run parallel scatter
    // (receiver-range partition, bit-identical to `engine_csr/gnp` by
    // the engine's determinism contract) at 2 and 8 workers. On a
    // multi-core box this is where the scatter's random per-hit writes
    // (hit counts and sources) — the dominant cost at scale — spread
    // across cores; on a single-core runner it instead pins the
    // partition overhead (duplicate row binary-searches plus
    // scoped-thread spawns), which the CI gate keeps from regressing
    // either way.
    let mut group = c.benchmark_group("engine_par");
    group.sample_size(10);
    let g = storm_graph(N);
    group.throughput(Throughput::Elements(g.m() as u64 * ROUNDS));
    for threads in [2usize, 8] {
        group.bench_with_input(BenchmarkId::new(format!("{threads}t"), N), &g, |b, g| {
            b.iter(|| {
                let mut p = Storm { n: N };
                let mut rng = derive_rng(1, b"csr-bench", 0);
                black_box(
                    Engine::new(g, cfg().with_threads(threads))
                        .run(&mut p)
                        .v1(&mut rng),
                )
            });
        });
    }
    group.finish();
}

fn bench_decide_phase(c: &mut Criterion) {
    // The decide loop in isolation: an edgeless graph (no scatter, no
    // delivery) with every node coin-flipping each round. `v1` consumes
    // the shared serial stream; the v2 entries run the v2 decide's
    // serial path over batched per-node counter-based streams (the wide
    // ChaCha kernel). `v2_cold` builds a fresh engine per run — scratch
    // allocation plus the per-node key derivation are on the clock, as
    // in a one-shot `run_protocol_fused` call. `v2_warm` reuses one
    // engine across runs, the steady state of a sweep loop: pools and
    // the node-key cache persist, so it isolates the per-draw cost. The
    // headline gate is `v2_warm ≤ 2 × v1` (see ISSUE 7 / bench_compare).
    let mut group = c.benchmark_group("decide_phase");
    group.sample_size(10);
    let g = DiGraph::from_edges(N, &[]);
    group.throughput(Throughput::Elements(N as u64 * ROUNDS));
    group.bench_with_input(BenchmarkId::new("v1", N), &g, |b, g| {
        b.iter(|| {
            let mut p = CoinStorm::new(N, 0.05);
            let mut rng = derive_rng(2, b"decide-bench", 0);
            black_box(Engine::new(g, cfg()).run(&mut p).v1(&mut rng))
        });
    });
    group.bench_with_input(BenchmarkId::new("v2_cold", N), &g, |b, g| {
        b.iter(|| {
            let mut p = CoinStorm::new(N, 0.05);
            black_box(run_protocol_fused(g, &mut p, cfg(), 2))
        });
    });
    group.bench_with_input(BenchmarkId::new("v2_warm", N), &g, |b, g| {
        let mut eng = Engine::new(g, cfg());
        // Prime the pools + key cache so every timed run is steady-state.
        let mut warm = CoinStorm::new(N, 0.05);
        black_box(eng.run(&mut warm).v2(2));
        b.iter(|| {
            let mut p = CoinStorm::new(N, 0.05);
            black_box(eng.run(&mut p).v2(2))
        });
    });
    group.finish();
}

fn bench_engine_fused(c: &mut Criterion) {
    // The fused v2 engine end to end — parallel decide + receiver-range
    // scatter + serial delivery — on the coin storm over the Gnp graph,
    // at 1 and 8 workers. On a multi-core box the 8t entry measures the
    // whole-round speedup v2 unlocks (decide was the Amdahl cap of
    // engine_par); on a single-core runner it pins the fan-out overhead.
    // `bench_compare` gates the 8t entry only between equal-core hosts
    // (the baseline records `host_threads`).
    let mut group = c.benchmark_group("engine_fused");
    group.sample_size(10);
    let g = storm_graph(N);
    group.throughput(Throughput::Elements(g.m() as u64 * ROUNDS));
    for threads in [1usize, 8] {
        group.bench_with_input(BenchmarkId::new(format!("{threads}t"), N), &g, |b, g| {
            b.iter(|| {
                let mut p = CoinStorm::new(N, 0.2);
                black_box(run_protocol_fused(
                    g,
                    &mut p,
                    cfg().with_threads(threads),
                    3,
                ))
            });
        });
    }
    group.finish();
}

fn bench_engine_trace(c: &mut Criterion) {
    // The trace hook's cost contract, both halves. `off` is the fused
    // coin storm on an edgeless graph with the `NullSink` — the default
    // every untraced entry point compiles down to, so any daylight
    // between this entry and `decide_phase/v2_cold` would mean the hook
    // isn't actually free. `on` records the same run through a
    // `RecordingSink` into a reused in-memory buffer (no disk in the
    // loop): per-round varint encoding of RoundStart/Transmit/RoundEnd
    // events on top of the identical simulation. The workload is
    // decide-dominated on purpose — events are sparse relative to RNG
    // draws, as in a real traced run — and the acceptance bar is
    // `on ≤ 1.05 × off` (gated by `bench_compare`'s trace-overhead
    // check).
    let mut group = c.benchmark_group("engine_trace");
    group.sample_size(10);
    let g = DiGraph::from_edges(N, &[]);
    group.throughput(Throughput::Elements(N as u64 * ROUNDS));
    group.bench_with_input(BenchmarkId::new("off", N), &g, |b, g| {
        b.iter(|| {
            let mut p = CoinStorm::new(N, 0.05);
            black_box(run_protocol_fused(g, &mut p, cfg(), 4))
        });
    });
    group.bench_with_input(BenchmarkId::new("on", N), &g, |b, g| {
        let header = RunHeader::new(4, "v2", "edgeless");
        let mut bytes: Vec<u8> = Vec::with_capacity(1 << 20);
        b.iter(|| {
            bytes.clear();
            let mut sink = RecordingSink::new(&mut bytes, &header).expect("vec write");
            let mut p = CoinStorm::new(N, 0.05);
            let run = run_protocol_fused_traced(g, &mut p, cfg(), 4, &mut sink);
            sink.finish(run.completed).expect("vec write");
            black_box(run)
        });
    });
    group.finish();
}

fn bench_engine_energy(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_energy");
    group.sample_size(10);
    let g = storm_graph(N);
    group.throughput(Throughput::Elements(g.m() as u64 * ROUNDS));
    // Passthrough: TxOnly without batteries skips all per-round charging.
    group.bench_with_input(BenchmarkId::new("txonly", N), &g, |b, g| {
        b.iter(|| {
            let mut p = Storm { n: N };
            let mut rng = derive_rng(1, b"csr-bench", 0);
            let mut session = EnergySession::new(N, TxOnly, 1);
            black_box(
                Engine::new(g, cfg())
                    .run(&mut p)
                    .energy(&mut session)
                    .v1(&mut rng),
            )
        });
    });
    // Full overlay: per-transmitter charges plus the end-of-round sweep.
    group.bench_with_input(BenchmarkId::new("linear", N), &g, |b, g| {
        b.iter(|| {
            let mut p = Storm { n: N };
            let mut rng = derive_rng(1, b"csr-bench", 0);
            let mut session = EnergySession::new(N, LinearRadio::with_listen_ratio(0.5), 1);
            black_box(
                Engine::new(g, cfg())
                    .run(&mut p)
                    .energy(&mut session)
                    .v1(&mut rng),
            )
        });
    });
    group.finish();
}

fn bench_scatter_phase(c: &mut Criterion) {
    // The scatter/collision phase per partition strategy: the same
    // always-transmit storm driven through the v1 engine at 1 and 8
    // workers, per backend. On `csr` the engine's `Auto` plan picks the
    // receiver-range partition (rows are O(1) to narrow to a receiver
    // range); on the implicit backends (`grid`, `gnp`) a range query
    // costs a full row replay, so `Auto` picks the transmitter-sharded
    // partition — each worker generates its shard's rows exactly once
    // into its own hit set, and the delivery sweep folds the sets. On a
    // multi-core host the `8t` entries are where the shard path earns
    // its keep (the ≥ 3× acceptance bar lives in the baseline's
    // `host_threads: 8` profile); on a single-core runner they pin the
    // spawn and fold overhead instead. `<k>t` entries gate only between
    // equal-`host_threads` runs, like `engine_par`.
    use radio_graph::{ImplicitGnp, ImplicitGrid, Topology};

    fn bench_backend<T: Topology>(
        group: &mut criterion::BenchmarkGroup<'_>,
        name: &str,
        t: &T,
        edges: u64,
    ) {
        group.throughput(Throughput::Elements(edges * ROUNDS));
        for threads in [1usize, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("{name}/{threads}t"), N),
                t,
                |b, t| {
                    b.iter(|| {
                        let mut p = Storm { n: N };
                        let mut rng = derive_rng(1, b"scatter-bench", 0);
                        black_box(
                            Engine::new(t, cfg().with_threads(threads))
                                .run(&mut p)
                                .v1(&mut rng),
                        )
                    });
                },
            );
        }
    }

    let mut group = c.benchmark_group("scatter_phase");
    group.sample_size(10);
    let d = 6.0 * (N as f64).ln();

    let csr = storm_graph(N);
    let m = csr.m() as u64;
    bench_backend(&mut group, "csr", &csr, m);

    let grid = ImplicitGrid::with_expected_degree(N, d, &mut derive_rng(7, b"scatter-bench-g", 0));
    let m = grid.materialize().m() as u64;
    bench_backend(&mut group, "grid", &grid, m);

    let gnp = ImplicitGnp::with_expected_degree(N, d, 7);
    let m = gnp.materialize().m() as u64;
    bench_backend(&mut group, "gnp", &gnp, m);

    group.finish();
}

fn bench_topology_neighbors(c: &mut Criterion) {
    // Neighbor-enumeration throughput through the `Topology` trait: a
    // full sweep of `for_each_out` over every node, per backend, at the
    // gate size and a shared expected degree. `csr` is the trait's cost
    // on stored rows (the engine's pre-refactor fast path — this entry
    // existing in the baseline is what pins "the trait costs nothing on
    // CSR"); `grid` pays a torus cell scan with distance filtering per
    // query, `gnp` a ChaCha8 re-seed plus a geometric skip-walk per row.
    // The implicit entries are expected several× slower per edge than
    // `csr` — that is the documented price of O(n)/O(1) memory — and the
    // CI gate keeps each from regressing against itself.
    use radio_graph::{ImplicitGnp, ImplicitGrid, Topology};

    let mut group = c.benchmark_group("topology_neighbors");
    group.sample_size(10);
    let d = 6.0 * (N as f64).ln();

    fn sweep<T: Topology>(t: &T) -> u64 {
        let mut edges = 0u64;
        for u in 0..t.n() as NodeId {
            t.for_each_out(u, |v| edges += u64::from(v) & 1);
        }
        edges
    }

    let csr = storm_graph(N);
    group.throughput(Throughput::Elements(csr.m() as u64));
    group.bench_with_input(BenchmarkId::new("csr", N), &csr, |b, g| {
        b.iter(|| black_box(sweep(g)));
    });

    let grid = ImplicitGrid::with_expected_degree(N, d, &mut derive_rng(7, b"topo-bench", 0));
    group.throughput(Throughput::Elements(grid.materialize().m() as u64));
    group.bench_with_input(BenchmarkId::new("grid", N), &grid, |b, g| {
        b.iter(|| black_box(sweep(g)));
    });

    let gnp = ImplicitGnp::with_expected_degree(N, d, 7);
    group.throughput(Throughput::Elements(gnp.materialize().m() as u64));
    group.bench_with_input(BenchmarkId::new("gnp", N), &gnp, |b, g| {
        b.iter(|| black_box(sweep(g)));
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_engine_csr,
    bench_engine_par,
    bench_decide_phase,
    bench_engine_fused,
    bench_engine_trace,
    bench_engine_energy,
    bench_scatter_phase,
    bench_topology_neighbors
);
criterion_main!(benches);
