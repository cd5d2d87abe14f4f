//! Reproducibility guarantees: every run is a pure function of
//! `(graph, config, seed)`, and the parallel trial runner is oblivious to
//! scheduling. These properties are what make the committed
//! `results/<id>.md` numbers regenerable.

use adhoc_radio::core::gossip::{run_ee_gossip, EeGossipConfig};
use adhoc_radio::graph::analysis::diameter_from;
use adhoc_radio::prelude::*;
use adhoc_radio::sim::parallel_trials;

fn fingerprint(out: &BroadcastOutcome) -> (Option<u64>, u64, u64, Vec<u32>) {
    (
        out.broadcast_time,
        out.rounds_executed,
        out.metrics.total_transmissions(),
        out.metrics.per_node().to_vec(),
    )
}

#[test]
fn every_broadcast_algorithm_is_seed_deterministic() {
    let n = 512;
    let p = 8.0 * (n as f64).ln() / n as f64;
    let g = gnp_directed(n, p, &mut derive_rng(1, b"det-g", 0));
    let d = diameter_from(&g, 0).expect("connected");

    for seed in [3u64, 99] {
        let a1 = run_ee_broadcast(&g, 0, &EeBroadcastConfig::for_gnp(n, p), seed);
        let a2 = run_ee_broadcast(&g, 0, &EeBroadcastConfig::for_gnp(n, p), seed);
        assert_eq!(fingerprint(&a1), fingerprint(&a2), "Alg1 seed {seed}");

        let g1 = run_general_broadcast(&g, 0, &GeneralBroadcastConfig::new(n, d), seed);
        let g2 = run_general_broadcast(&g, 0, &GeneralBroadcastConfig::new(n, d), seed);
        assert_eq!(fingerprint(&g1), fingerprint(&g2), "Alg3 seed {seed}");

        let c1 = run_cr_broadcast(&g, 0, &CrBroadcastConfig::new(n, d), seed);
        let c2 = run_cr_broadcast(&g, 0, &CrBroadcastConfig::new(n, d), seed);
        assert_eq!(fingerprint(&c1), fingerprint(&c2), "CR seed {seed}");

        let d1 = run_decay_broadcast(&g, 0, &DecayConfig::new(n, d), seed);
        let d2 = run_decay_broadcast(&g, 0, &DecayConfig::new(n, d), seed);
        assert_eq!(fingerprint(&d1), fingerprint(&d2), "Decay seed {seed}");

        let e1 = run_eg_broadcast(&g, 0, &EgBroadcastConfig::for_gnp(n, p), seed);
        let e2 = run_eg_broadcast(&g, 0, &EgBroadcastConfig::for_gnp(n, p), seed);
        assert_eq!(fingerprint(&e1), fingerprint(&e2), "EG seed {seed}");
    }
}

#[test]
fn different_seeds_give_different_runs() {
    let n = 512;
    let p = 8.0 * (n as f64).ln() / n as f64;
    let g = gnp_directed(n, p, &mut derive_rng(2, b"det-g", 0));
    let a = run_ee_broadcast(&g, 0, &EeBroadcastConfig::for_gnp(n, p), 1);
    let b = run_ee_broadcast(&g, 0, &EeBroadcastConfig::for_gnp(n, p), 2);
    assert_ne!(
        fingerprint(&a),
        fingerprint(&b),
        "distinct seeds should not collide on full fingerprints"
    );
}

#[test]
fn gossip_is_seed_deterministic() {
    let n = 256;
    let p = 8.0 * (n as f64).ln() / n as f64;
    let g = gnp_directed(n, p, &mut derive_rng(3, b"det-g", 0));
    let cfg = EeGossipConfig::for_gnp(n, p);
    let a = run_ee_gossip(&g, &cfg, 5);
    let b = run_ee_gossip(&g, &cfg, 5);
    assert_eq!(a.gossip_time, b.gossip_time);
    assert_eq!(a.metrics.per_node(), b.metrics.per_node());
}

#[test]
fn parallel_trials_are_schedule_independent() {
    // Run the same batch twice; rayon's scheduling must not leak into
    // results (each trial derives its own RNG from the trial seed).
    let n = 256;
    let p = 8.0 * (n as f64).ln() / n as f64;
    let batch = || {
        parallel_trials(16, 0xD5, |_, seed| {
            let g = gnp_directed(n, p, &mut derive_rng(seed, b"g", 0));
            let out = run_ee_broadcast(&g, 0, &EeBroadcastConfig::for_gnp(n, p), seed);
            (out.broadcast_time, out.metrics.total_transmissions())
        })
    };
    assert_eq!(batch(), batch());
}

#[test]
fn parallel_batches_have_bit_identical_metrics() {
    // Stronger than schedule independence: with the same base seed, two
    // whole `parallel_trials` batches must agree on the *complete*
    // fingerprint of every trial — broadcast time, round count, and the
    // full per-node transmission vector, bit for bit. Each trial builds
    // its own G(n,p) from the trial seed, so this also pins graph
    // generation into the reproducibility contract.
    let n = 192;
    let p = 8.0 * (n as f64).ln() / n as f64;
    let batch = || {
        parallel_trials(12, 0xBEEF, |i, seed| {
            let g = gnp_directed(n, p, &mut derive_rng(seed, b"batch-g", i as u64));
            let out = run_ee_broadcast(&g, 0, &EeBroadcastConfig::for_gnp(n, p), seed);
            fingerprint(&out)
        })
    };
    let first = batch();
    let second = batch();
    assert_eq!(first, second, "batches with equal base seed diverged");
    // Sanity on the batch itself: distinct trials actually differ (the
    // equality above would be vacuous if every trial collapsed to one
    // fingerprint).
    assert!(
        first.windows(2).any(|w| w[0] != w[1]),
        "all 12 trials produced identical fingerprints — trial seeds look broken"
    );
}

#[test]
fn graph_generation_is_independent_of_protocol_seed() {
    // The graph comes from its own labelled stream: runs with different
    // protocol seeds see the identical topology.
    let n = 128;
    let p = 0.1;
    let g1 = gnp_directed(n, p, &mut derive_rng(7, b"topo", 0));
    let g2 = gnp_directed(n, p, &mut derive_rng(7, b"topo", 0));
    assert_eq!(g1, g2);
}

/// Coin-flip transmitters: consumes RNG in `decide` *and* keeps awake
/// bookkeeping honest (sleep after transmitting twice), exercising every
/// engine phase the parallel scatter must not perturb.
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
        _round: u64,
        rng: &mut rand_chacha::ChaCha8Rng,
    ) -> adhoc_radio::sim::Action {
        use adhoc_radio::sim::Action;
        use rand::RngExt;
        if self.sent[node as usize] >= 2 {
            return Action::Sleep;
        }
        if self.informed[node as usize] && rng.random_bool(0.35) {
            self.sent[node as usize] += 1;
            Action::Transmit
        } else {
            Action::Silent
        }
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

#[test]
fn run_par_is_bit_identical_to_serial_across_families_and_channels() {
    // The intra-run parallel engine's contract: for every graph family,
    // half-duplex setting, and thread count, a parallel v1 run reproduces the
    // serial run bit for bit — rounds, completion, the full event
    // stream, and the per-node transmission vector. The scatter shards by
    // transmitter into per-worker hit sets whose fold does not depend on
    // the shard cuts, so this is a property of the construction; the
    // test pins it across the exact surfaces the sweep grids use.
    use adhoc_radio::graph::GraphFamily;
    use adhoc_radio::sim::trace::{RingSink, RoundEvents};
    use adhoc_radio::sim::{Engine, EngineConfig};

    let n = 400;
    for (family, p) in [
        (GraphFamily::GnpDirected, 0.06),
        (
            GraphFamily::Geometric,
            adhoc_radio::graph::generate::GeoParams::with_expected_degree(n, 24.0).r_min,
        ),
    ] {
        let g = family.generate(n, p, &mut derive_rng(41, b"par-g", 0));
        for half_duplex in [true, false] {
            let run_at = |threads: usize| {
                let mut proto = CoinProto::new(n);
                let mut rng = derive_rng(42, b"par-run", 0);
                let cfg = EngineConfig {
                    half_duplex,
                    // Force the parallel path every round, even on this
                    // test-sized graph.
                    par_min_edges: 0,
                    ..EngineConfig::with_max_rounds(300)
                };
                let mut sink = RingSink::new(usize::MAX);
                let res = Engine::new(&g, cfg.with_threads(threads))
                    .run(&mut proto)
                    .sink(&mut sink)
                    .v1(&mut rng);
                (
                    res.rounds,
                    res.completed,
                    res.hit_round_cap,
                    res.metrics,
                    sink.rounds().cloned().collect::<Vec<RoundEvents>>(),
                    proto.informed,
                    proto.sent,
                )
            };
            let serial = run_at(1);
            for threads in [2, 4, 8] {
                assert_eq!(
                    serial,
                    run_at(threads),
                    "{} half_duplex={half_duplex} {threads} threads diverged",
                    family.label()
                );
            }
        }
    }
}

#[test]
fn run_par_energy_is_bit_identical_to_serial() {
    // Same contract under the energy overlay (the third channel
    // setting): model-based charges happen on the serial side of the
    // round, so thread count must not move a single joule — including
    // battery depletion, which feeds back into delivery semantics.
    use adhoc_radio::sim::{Battery, EnergySession, Engine, EngineConfig, LinearRadio};

    let n = 300;
    let g = gnp_directed(n, 0.08, &mut derive_rng(43, b"pare-g", 0));
    let run_at = |threads: usize| {
        let mut proto = CoinProto::new(n);
        let mut rng = derive_rng(44, b"pare-run", 0);
        let mut session = EnergySession::new(n, LinearRadio::with_listen_ratio(0.5), 9)
            .with_battery(Battery::uniform(n, 40.0));
        let cfg = EngineConfig {
            par_min_edges: 0,
            ..EngineConfig::with_max_rounds(200)
        };
        let res = Engine::new(&g, cfg.with_threads(threads))
            .run(&mut proto)
            .energy(&mut session)
            .v1(&mut rng);
        (
            res.run.rounds,
            res.run.completed,
            res.run.metrics,
            res.energy.spent.clone(),
            res.energy.first_depletion_round,
            res.energy.depleted_nodes(),
            proto.informed,
        )
    };
    let serial = run_at(1);
    for threads in [2, 4, 8] {
        assert_eq!(serial, run_at(threads), "{threads} threads diverged");
    }
}

#[test]
fn run_fused_is_bit_identical_across_families_and_channels() {
    // The fused v2 engine's contract: decide, scatter, and delivery all
    // run inside the worker partitioning, and the per-node counter-based
    // streams make every phase order-independent — so for every graph
    // family, half-duplex setting, and thread count, a parallel v2 run
    // must reproduce the 1-thread v2 run bit for bit (rounds, event
    // stream, per-node transmission vector, informed set).
    use adhoc_radio::core::broadcast::windowed::{ProbSource, WindowedBroadcast, WindowedSpec};
    use adhoc_radio::graph::GraphFamily;
    use adhoc_radio::sim::trace::{RingSink, RoundEvents};
    use adhoc_radio::sim::EngineConfig;

    let n = 400;
    for (family, p) in [
        (GraphFamily::GnpDirected, 0.06),
        (
            GraphFamily::Geometric,
            adhoc_radio::graph::generate::GeoParams::with_expected_degree(n, 24.0).r_min,
        ),
    ] {
        let g = family.generate(n, p, &mut derive_rng(61, b"fuse-g", 0));
        for half_duplex in [true, false] {
            let run_at = |threads: usize| {
                let spec = WindowedSpec {
                    source: ProbSource::Fixed(0.3),
                    window: Some(6),
                    early_stop: true,
                };
                let mut proto = WindowedBroadcast::new(n, 0, spec);
                let cfg = EngineConfig {
                    half_duplex,
                    // Force both parallel paths every round, even on
                    // this test-sized graph.
                    par_min_edges: 0,
                    par_min_awake: 0,
                    ..EngineConfig::with_max_rounds(400)
                };
                let mut sink = RingSink::new(usize::MAX);
                let res = adhoc_radio::sim::engine::run_protocol_fused_traced(
                    &g,
                    &mut proto,
                    cfg.with_threads(threads),
                    0xF2,
                    &mut sink,
                );
                let informed: Vec<u64> = (0..n as u32).map(|v| proto.informed_round(v)).collect();
                (
                    res.rounds,
                    res.completed,
                    res.hit_round_cap,
                    res.metrics,
                    sink.rounds().cloned().collect::<Vec<RoundEvents>>(),
                    informed,
                )
            };
            let serial = run_at(1);
            for threads in [2, 4, 8] {
                assert_eq!(
                    serial,
                    run_at(threads),
                    "{} half_duplex={half_duplex} {threads} threads diverged",
                    family.label()
                );
            }
        }
    }
}

#[test]
fn run_fused_energy_is_bit_identical_across_thread_counts() {
    // Same contract under the energy overlay: duty charges happen on the
    // serial side (commit + delivery) and battery depletion feeds back
    // into both the decide workers (dead events) and delivery — none of
    // which may depend on the thread count.
    use adhoc_radio::core::broadcast::windowed::{ProbSource, WindowedBroadcast, WindowedSpec};
    use adhoc_radio::sim::{Battery, EnergySession, EngineConfig, LinearRadio, Protocol};

    let n = 300;
    let g = gnp_directed(n, 0.08, &mut derive_rng(62, b"fusee-g", 0));
    let run_at = |threads: usize| {
        let spec = WindowedSpec {
            source: ProbSource::Fixed(0.35),
            window: None,
            early_stop: false,
        };
        let mut proto = WindowedBroadcast::new(n, 0, spec);
        let mut session = EnergySession::new(n, LinearRadio::with_listen_ratio(0.5), 13)
            .with_battery(Battery::uniform(n, 30.0));
        let cfg = EngineConfig {
            par_min_edges: 0,
            par_min_awake: 0,
            ..EngineConfig::with_max_rounds(150)
        };
        let res = adhoc_radio::sim::Engine::new(&g, cfg.with_threads(threads))
            .run(&mut proto)
            .energy(&mut session)
            .v2(0xE7);
        (
            res.run.rounds,
            res.run.completed,
            res.run.metrics,
            res.energy.spent.clone(),
            res.energy.first_depletion_round,
            res.energy.depleted_nodes(),
            proto.informed_count(),
        )
    };
    let serial = run_at(1);
    for threads in [2, 4, 8] {
        assert_eq!(serial, run_at(threads), "{threads} threads diverged");
    }
}

#[test]
fn sweep_json_is_bit_identical_across_thread_counts() {
    // The sweep API's contract: the serialized report is a pure function
    // of the sweep description. `run` fans each cell's trials out over
    // all available rayon threads; the same sweep built
    // `with_threads_per_run(2)` runs them serially, the 1-thread
    // reference — the JSON bytes must match exactly (cell order, float
    // formatting, everything).
    use adhoc_radio::graph::GraphFamily;
    use adhoc_radio::sim::{Sweep, SweepCell};

    let mut sweep = Sweep::new("det", 0xD0_0D, 5);
    sweep.grid(
        &["ee_broadcast"],
        &[GraphFamily::GnpDirected],
        &[96, 160],
        &[0.08],
    );
    sweep.push(SweepCell::new(
        "ee_broadcast",
        GraphFamily::GnpUndirected,
        128,
        0.1,
    ));
    let runner = |cell: &SweepCell, seed: u64| {
        let cfg = EeBroadcastConfig::for_gnp(cell.n, cell.p);
        run_ee_broadcast(&cell.graph(seed), 0, &cfg, seed).to_trial()
    };

    let parallel = sweep.run(runner).to_json_string();
    let serial = sweep
        .clone()
        .with_threads_per_run(2)
        .run(runner)
        .to_json_string();
    assert_eq!(
        parallel, serial,
        "sweep JSON must not depend on the thread count"
    );
    // And across repeated parallel executions (scheduling noise).
    assert_eq!(parallel, sweep.run(runner).to_json_string());
    // The report actually carries data (the equality is not vacuous).
    assert!(parallel.contains("\"cells\""));
    assert!(parallel.contains("gnp_undirected"));
}
