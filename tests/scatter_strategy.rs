//! Scatter-strategy bit-identity: the parallel scatter's partition
//! choice — serial, receiver-range, or transmitter-sharded — and its
//! thread count are pure performance knobs. For every backend
//! ({CSR, ImplicitGrid, ImplicitGnp}), half-duplex setting, strategy,
//! and thread count in {1, 2, 4, 8}, the full `RunResult` (rounds,
//! metrics), the run's event stream and the protocol's observable state
//! must equal the serial run bit for bit.
//!
//! The adversarial companion pins the transmitter-sharded scatter where
//! it could plausibly break: shard boundaries landing *mid-collision*,
//! with two or more transmitters hitting one receiver from different
//! shards. Since "equals the serial run" is no evidence when the serial
//! path itself is wrong, the partition edge sizes are also checked
//! against the naive `reference` oracle, on CSR and on the implicit
//! backends' materialized CSR.

use adhoc_radio::prelude::*;
use adhoc_radio::sim::reference::run_reference;
use adhoc_radio::sim::{run_protocol_fused, Engine, FusedDecide, ScatterStrategy};
use adhoc_radio::util::split_seed;
use proptest::prelude::*;

/// Coin-flip transmitters with a small send budget (copied from the
/// determinism suite's idiom): consumes the shared serial RNG in
/// decide/delivery order, so any scatter divergence — ordering,
/// collision marking, receiver-set merge — cascades into different
/// rounds, metrics, and traces. Split into [`FusedDecide`] halves so the
/// same protocol also runs under the v2 contract.
struct CoinProto {
    informed: Vec<bool>,
    n_informed: usize,
    sent: Vec<u32>,
}

impl CoinProto {
    fn new(n: usize) -> Self {
        let mut informed = vec![false; n];
        informed[0] = true;
        CoinProto {
            informed,
            n_informed: 1,
            sent: vec![0; n],
        }
    }
}

impl adhoc_radio::sim::Protocol for CoinProto {
    type Msg = ();
    fn initially_awake(&self) -> Vec<u32> {
        vec![0]
    }
    fn decide(
        &mut self,
        node: u32,
        round: u64,
        rng: &mut rand_chacha::ChaCha8Rng,
    ) -> adhoc_radio::sim::Action {
        FusedDecide::decide_and_commit(self, node, round, rng)
    }
    fn payload(&self, _node: u32, _round: u64) -> Self::Msg {}
    fn on_receive(
        &mut self,
        node: u32,
        _from: u32,
        _round: u64,
        _msg: &Self::Msg,
        _rng: &mut rand_chacha::ChaCha8Rng,
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

impl FusedDecide for CoinProto {
    fn decide_pure(
        &self,
        node: u32,
        _round: u64,
        rng: &mut rand_chacha::ChaCha8Rng,
    ) -> adhoc_radio::sim::Action {
        use adhoc_radio::sim::Action;
        use rand::RngExt;
        if self.sent[node as usize] >= 3 {
            Action::Sleep
        } else if self.informed[node as usize] && rng.random_bool(0.4) {
            Action::Transmit
        } else {
            Action::Silent
        }
    }
    fn commit_decide(&mut self, node: u32, _round: u64, action: adhoc_radio::sim::Action) {
        if action == adhoc_radio::sim::Action::Transmit {
            self.sent[node as usize] += 1;
        }
    }
}

/// Engine config pinning one scatter strategy, with both edge-volume
/// thresholds zeroed so even toy graphs take the parallel paths.
fn cfg(strategy: ScatterStrategy, half_duplex: bool) -> EngineConfig {
    EngineConfig {
        half_duplex,
        par_min_edges: 0,
        par_min_edges_implicit: 0,
        ..EngineConfig::with_max_rounds(200)
    }
    .with_scatter_strategy(strategy)
}

type Fingerprint = (
    u64,
    bool,
    bool,
    adhoc_radio::sim::Metrics,
    Vec<adhoc_radio::trace::RoundEvents>,
    Vec<bool>,
    Vec<u32>,
);

fn run_one<T: Topology>(
    t: &T,
    strategy: ScatterStrategy,
    half_duplex: bool,
    threads: usize,
    seed: u64,
) -> Fingerprint {
    let mut proto = CoinProto::new(Topology::n(t));
    let mut rng = derive_rng(seed, b"scatter-run", 0);
    let mut sink = RingSink::new(usize::MAX);
    let res = Engine::new(t, cfg(strategy, half_duplex).with_threads(threads))
        .run(&mut proto)
        .sink(&mut sink)
        .v1(&mut rng);
    (
        res.rounds,
        res.completed,
        res.hit_round_cap,
        res.metrics,
        sink.rounds().cloned().collect(),
        proto.informed,
        proto.sent,
    )
}

/// Every (strategy, thread count) must reproduce the serial run.
fn check_all_strategies<T: Topology>(t: &T, half_duplex: bool, seed: u64, label: &str) {
    let serial = run_one(t, ScatterStrategy::Auto, half_duplex, 1, seed);
    for strategy in [
        ScatterStrategy::Auto,
        ScatterStrategy::ReceiverRange,
        ScatterStrategy::TransmitterShard,
    ] {
        for threads in [1usize, 2, 4, 8] {
            let got = run_one(t, strategy, half_duplex, threads, seed);
            assert_eq!(
                serial, got,
                "{label} half_duplex={half_duplex} {strategy:?} x {threads} threads diverged"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Bit-identity across every backend × strategy × thread count ×
    /// half-duplex: the scatter plan cannot influence `RunResult`.
    #[test]
    fn scatter_strategy_and_threads_cannot_influence_results(
        n in 48usize..160,
        d in 6.0f64..14.0,
        seed in 0u64..1_000_000,
        half_duplex in any::<bool>(),
    ) {
        let csr = gnp_directed(n, (d / n as f64).min(0.9), &mut derive_rng(seed, b"sc-g", 0));
        check_all_strategies(&csr, half_duplex, seed, "csr");

        let grid = ImplicitGrid::with_expected_degree(n, d, &mut derive_rng(seed, b"sc-g", 1));
        check_all_strategies(&grid, half_duplex, seed, "grid");

        let gnp = ImplicitGnp::with_expected_degree(n, d, split_seed(seed, b"sc-g", 2));
        check_all_strategies(&gnp, half_duplex, seed, "gnp");
    }
}

/// Fixed partition edge cases the random sizes above may miss. The
/// parallel partitions cut the node range at multiples of 64, so tiny
/// graphs and sizes just off a multiple of 64 give single-word, partial
/// last-word and uneven ranges. For every size × thread count ×
/// strategy, with every parallel threshold zeroed:
///
/// * the v1 engine on CSR equals the naive `reference` oracle, which
///   shares no scatter or delivery code with the engine;
/// * the v2 run equals its own 1-thread run.
#[test]
fn partition_edge_sizes_match_reference_and_serial() {
    for n in [1usize, 2, 63, 64, 65, 127, 129] {
        let g = gnp_directed(
            n,
            (8.0 / n as f64).min(0.9),
            &mut derive_rng(n as u64, b"edge", 0),
        );
        let seed = 1_000 + n as u64;
        let oracle = {
            let mut proto = CoinProto::new(n);
            let mut rng = derive_rng(seed, b"scatter-run", 0);
            let cfg = EngineConfig::with_max_rounds(200);
            let res = run_reference(&g, &mut proto, cfg, &mut rng);
            (res, proto.informed, proto.sent)
        };
        let fused_at = |cfg: EngineConfig| {
            let mut proto = CoinProto::new(n);
            let res = run_protocol_fused(&g, &mut proto, cfg, seed);
            (res, proto.informed, proto.sent)
        };
        let fused_serial = fused_at(EngineConfig::with_max_rounds(200));
        for strategy in [
            ScatterStrategy::ReceiverRange,
            ScatterStrategy::TransmitterShard,
        ] {
            for threads in [2usize, 3, 8] {
                let cfg = EngineConfig {
                    par_min_edges: 0,
                    par_min_edges_implicit: 0,
                    par_min_awake: 0,
                    ..EngineConfig::with_max_rounds(200)
                }
                .with_scatter_strategy(strategy);
                let label = format!("n={n} {strategy:?} x {threads} threads");
                let mut proto = CoinProto::new(n);
                let mut rng = derive_rng(seed, b"scatter-run", 0);
                let res = Engine::new(&g, cfg.with_threads(threads))
                    .run(&mut proto)
                    .v1(&mut rng);
                assert_eq!(
                    oracle,
                    (res, proto.informed, proto.sent),
                    "v1 vs reference: {label}"
                );
                assert_eq!(
                    fused_serial,
                    fused_at(cfg.with_threads(threads)),
                    "fused vs 1 thread: {label}"
                );
            }
        }
    }
}

/// One-round storm that records exactly who delivered to whom.
struct ListedStorm {
    is_tx: Vec<bool>,
    heard: Vec<Vec<u32>>,
}

impl adhoc_radio::sim::Protocol for ListedStorm {
    type Msg = ();
    fn initially_awake(&self) -> Vec<u32> {
        (0..self.is_tx.len() as u32).collect()
    }
    fn decide(
        &mut self,
        node: u32,
        _round: u64,
        _rng: &mut rand_chacha::ChaCha8Rng,
    ) -> adhoc_radio::sim::Action {
        if self.is_tx[node as usize] {
            adhoc_radio::sim::Action::Transmit
        } else {
            adhoc_radio::sim::Action::Silent
        }
    }
    fn payload(&self, _node: u32, _round: u64) -> Self::Msg {}
    fn on_receive(
        &mut self,
        node: u32,
        from: u32,
        _round: u64,
        _msg: &Self::Msg,
        _rng: &mut rand_chacha::ChaCha8Rng,
    ) {
        self.heard[node as usize].push(from);
    }
    fn is_complete(&self) -> bool {
        false
    }
    fn informed_count(&self) -> usize {
        0
    }
}

/// Adversarial shard boundaries: transmitters 0..8 all transmit in one
/// round, so with 2/4/8 shard workers the shard cuts land *inside* the
/// multi-hit receivers' transmitter sets. The merge must still resolve
/// each receiver to the serial outcome: collision where ≥ 2 transmitters
/// hit (even from different shards), delivery from the earliest
/// transmitter where exactly one hit.
///
/// Parallel partitions cut the node range at whole 64-node bitmap
/// words and a one-word graph scatters serially, so the graph is padded
/// with isolated nodes to 600 (ten words, the last one partial) and the
/// receivers are spread over six of those words. Every merge range and
/// receiver range at t = 8 then resolves its own receivers, and each
/// run asserts its plan so the test cannot fall back to serial.
#[test]
fn transmitter_shard_boundaries_mid_collision_resolve_serially() {
    use adhoc_radio::sim::{scatter_plan, ScatterPlan};
    let n_tx = 8u32;
    let n = 600usize;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    // Receiver 9 (word 0): hit by ALL eight transmitters — every shard
    // cut at t ∈ {2, 4, 8} splits this collision across shards.
    for u in 0..n_tx {
        edges.push((u, 9));
    }
    // Receiver 70 (word 1): exactly one hit (transmitter 0) — clean
    // delivery.
    edges.push((0, 70));
    // Receiver 200 (word 3): exactly one hit from the *last* shard.
    edges.push((7, 200));
    // Receiver 400 (word 6): two hits from the first and last shard — a
    // collision whose members never share a worker.
    edges.push((0, 400));
    edges.push((7, 400));
    // Receiver 520 (word 8): two hits from within one shard at t = 4.
    edges.push((6, 520));
    edges.push((7, 520));
    // Receiver 599 (the partial last word): two hits straddling the
    // middle shard cut at every t.
    edges.push((3, 599));
    edges.push((4, 599));
    edges.sort_unstable();
    let g = DiGraph::from_edges(n, &edges);
    let tx_edges: u64 = (0..n_tx).map(|u| g.degree_hint(u)).sum();

    let cfg_for = |strategy: ScatterStrategy| {
        EngineConfig {
            par_min_edges: 0,
            par_min_edges_implicit: 0,
            ..EngineConfig::with_max_rounds(1)
        }
        .with_scatter_strategy(strategy)
    };
    let run_at = |strategy: ScatterStrategy, threads: usize| {
        let mut proto = ListedStorm {
            is_tx: (0..n).map(|u| (u as u32) < n_tx).collect(),
            heard: vec![Vec::new(); n],
        };
        let mut rng = derive_rng(77, b"storm", 0);
        let res = Engine::new(&g, cfg_for(strategy).with_threads(threads))
            .run(&mut proto)
            .v1(&mut rng);
        (res.metrics, proto.heard)
    };

    let (serial_metrics, serial_heard) = run_at(ScatterStrategy::Auto, 1);
    // Semantic ground truth, checked once on the serial oracle.
    assert!(
        serial_heard[9].is_empty(),
        "8-way collision must deliver nothing"
    );
    assert!(serial_heard[400].is_empty(), "cross-shard 2-way collision");
    assert!(serial_heard[520].is_empty(), "intra-shard 2-way collision");
    assert!(serial_heard[599].is_empty(), "mid-cut 2-way collision");
    assert_eq!(serial_heard[70], vec![0], "single hit delivers its source");
    assert_eq!(serial_heard[200], vec![7], "single hit from the last shard");

    for strategy in [
        ScatterStrategy::TransmitterShard,
        ScatterStrategy::ReceiverRange,
    ] {
        for threads in [2usize, 4, 8] {
            let want = match strategy {
                ScatterStrategy::TransmitterShard => ScatterPlan::TransmitterShard { threads },
                _ => ScatterPlan::ReceiverRange { threads },
            };
            assert_eq!(
                scatter_plan(
                    &cfg_for(strategy),
                    g.range_query_cost(),
                    threads,
                    n,
                    n_tx as usize,
                    tx_edges
                ),
                want,
                "{strategy:?} x {threads} threads must take its parallel path"
            );
            let got = run_at(strategy, threads);
            assert_eq!(
                (&serial_metrics, &serial_heard),
                (&got.0, &got.1),
                "{strategy:?} x {threads} threads diverged"
            );
        }
    }
}

/// The partition edge sizes on the implicit backends, whose default
/// parallel path is the transmitter shard. Checked against the naive
/// `reference` oracle on the backend's materialized CSR, which shares no
/// scatter code with the engine, so a fault common to the serial and
/// parallel scatter cannot hide. For every size × backend × strategy ×
/// thread count, with every parallel threshold zeroed:
///
/// * the v1 run equals `run_reference` on `materialize()`;
/// * the v2 run equals its own 1-thread run.
#[test]
fn implicit_backends_match_reference_under_parallel_scatter() {
    fn check<T: Topology>(topo: &T, csr: &DiGraph, seed: u64, label: &str) {
        let n = Topology::n(topo);
        let oracle = {
            let mut proto = CoinProto::new(n);
            let mut rng = derive_rng(seed, b"scatter-run", 0);
            let res = run_reference(
                csr,
                &mut proto,
                EngineConfig::with_max_rounds(200),
                &mut rng,
            );
            (res, proto.informed, proto.sent)
        };
        let fused_at = |cfg: EngineConfig| {
            let mut proto = CoinProto::new(n);
            let res = run_protocol_fused(topo, &mut proto, cfg, seed);
            (res, proto.informed, proto.sent)
        };
        let fused_serial = fused_at(EngineConfig::with_max_rounds(200));
        for strategy in [
            ScatterStrategy::TransmitterShard,
            ScatterStrategy::ReceiverRange,
        ] {
            for threads in [2usize, 3, 8] {
                let cfg = EngineConfig {
                    par_min_edges: 0,
                    par_min_edges_implicit: 0,
                    par_min_awake: 0,
                    ..EngineConfig::with_max_rounds(200)
                }
                .with_scatter_strategy(strategy)
                .with_threads(threads);
                let label = format!("{label} n={n} {strategy:?} x {threads} threads");
                let mut proto = CoinProto::new(n);
                let mut rng = derive_rng(seed, b"scatter-run", 0);
                let res = Engine::new(topo, cfg).run(&mut proto).v1(&mut rng);
                assert_eq!(
                    oracle,
                    (res, proto.informed, proto.sent),
                    "v1 vs reference: {label}"
                );
                assert_eq!(fused_serial, fused_at(cfg), "fused vs 1 thread: {label}");
            }
        }
    }

    for n in [63usize, 64, 65, 127, 129, 600] {
        let seed = 2_000 + n as u64;
        let gnp = ImplicitGnp::with_expected_degree(n, 8.0, split_seed(seed, b"edge-i", 0));
        check(&gnp, &gnp.materialize(), seed, "gnp");
        let grid = ImplicitGrid::with_expected_degree(n, 8.0, &mut derive_rng(seed, b"edge-i", 1));
        check(&grid, &grid.materialize(), seed, "grid");
    }
}
