//! Integration tests for the dynamic-topology and fault-injection
//! extensions: the paper's motivating scenarios (mobile nodes, fragile
//! devices) running against the real algorithms.

use adhoc_radio::core::broadcast::ee_random::EeRandomBroadcast;
use adhoc_radio::core::broadcast::epoch::{run_epoch_broadcast, EpochBroadcastConfig};
use adhoc_radio::core::gossip::{EeGossip, EeGossipConfig};
use adhoc_radio::graph::generate::mobile_geometric_sequence;
use adhoc_radio::prelude::*;
use adhoc_radio::sim::{CrashPlan, Engine, EngineConfig, Faulty};

#[test]
fn gossip_survives_continuous_mobility() {
    let n = 256;
    let deg = 25.0;
    let r = GeoParams::with_expected_degree(n, deg).r_min;
    let p_equiv = deg / n as f64;
    let cfg = EeGossipConfig {
        gamma: 10.0,
        tracked: Some(32),
        ..EeGossipConfig::for_gnp(n, p_equiv)
    };
    for seed in 0..3u64 {
        let snapshots = (cfg.schedule_rounds() / 30 + 2) as usize;
        let graphs =
            mobile_geometric_sequence(n, r, 0.05, snapshots, &mut derive_rng(seed, b"mob", 0));
        let refs: Vec<&DiGraph> = graphs.iter().collect();
        let mut protocol = EeGossip::new(cfg);
        let mut rng = derive_rng(seed, b"engine", 0);
        let run = Engine::new(
            refs[0],
            EngineConfig::with_max_rounds(cfg.schedule_rounds() + 1),
        )
        .run(&mut protocol)
        .schedule(&refs, 30)
        .v1(&mut rng);
        assert!(
            protocol.gossip_time().is_some(),
            "seed {seed}: gossip did not complete under mobility ({} rounds)",
            run.rounds
        );
    }
}

#[test]
fn mobility_rescues_a_disconnected_field() {
    // A radius so small the static snapshot is disconnected: static gossip
    // cannot complete, but strong mobility mixes the components.
    let n = 128;
    let r = 0.06; // E[deg] ≈ π r² n ≈ 1.4 — far below connectivity
    let p_equiv = 8.0 / n as f64; // transmit prob 1/8, plausible local estimate
    let cfg = EeGossipConfig {
        gamma: 200.0,
        tracked: Some(16),
        ..EeGossipConfig::for_gnp(n, p_equiv)
    };
    let budget = 4000u64;

    let run_with_sigma = |sigma: f64, seed: u64| -> usize {
        let snapshots = (budget / 20 + 2) as usize;
        let graphs =
            mobile_geometric_sequence(n, r, sigma, snapshots, &mut derive_rng(seed, b"resc", 0));
        let refs: Vec<&DiGraph> = graphs.iter().collect();
        let mut protocol = EeGossip::new(cfg);
        let mut rng = derive_rng(seed, b"engine", 0);
        let _ = Engine::new(refs[0], EngineConfig::with_max_rounds(budget))
            .run(&mut protocol)
            .schedule(&refs, 20)
            .v1(&mut rng);
        protocol.informed_count() // nodes holding all tracked rumors
    };

    let frozen: usize = (0..3).map(|s| run_with_sigma(0.0, s)).sum();
    let mobile: usize = (0..3).map(|s| run_with_sigma(0.08, s)).sum();
    assert!(
        mobile > frozen + 3,
        "mobility should spread rumors across components: frozen {frozen}, mobile {mobile}"
    );
}

#[test]
fn alg1_tolerates_moderate_crashes() {
    let n = 1024;
    let p = 8.0 * (n as f64).ln() / n as f64;
    for seed in 0..3u64 {
        let g = gnp_directed(n, p, &mut derive_rng(seed, b"fault-g", 0));
        let cfg = EeBroadcastConfig::for_gnp(n, p);
        let plan =
            CrashPlan::random_fraction(n, 0.25, 3, &mut derive_rng(seed, b"plan", 0)).spare(0);
        let survivors = plan.survivors();
        let mut protocol = Faulty::new(EeRandomBroadcast::new(n, 0, cfg), plan);
        let mut rng = derive_rng(seed, b"engine", 0);
        let _ = Engine::new(&g, EngineConfig::with_max_rounds(cfg.schedule_end() + 2))
            .run(&mut protocol)
            .v1(&mut rng);
        let informed = survivors
            .iter()
            .filter(|&&v| protocol.inner().informed_round(v).is_some())
            .count();
        assert!(
            informed as f64 >= 0.99 * survivors.len() as f64,
            "seed {seed}: only {informed}/{} survivors informed",
            survivors.len()
        );
    }
}

#[test]
fn crashed_nodes_never_transmit_after_their_round() {
    let n = 512;
    let p = 8.0 * (n as f64).ln() / n as f64;
    let g = gnp_directed(n, p, &mut derive_rng(9, b"fault-g", 0));
    let cfg = EeBroadcastConfig::for_gnp(n, p);
    let crash_round = 2;
    let plan =
        CrashPlan::random_fraction(n, 0.5, crash_round, &mut derive_rng(9, b"plan", 0)).spare(0);
    let crashed: Vec<NodeId> = (0..n as NodeId)
        .filter(|&v| plan.is_crashed(v, crash_round))
        .collect();
    let mut protocol = Faulty::new(EeRandomBroadcast::new(n, 0, cfg), plan);
    let mut rng = derive_rng(9, b"engine", 0);
    let run = Engine::new(&g, EngineConfig::with_max_rounds(cfg.schedule_end() + 2))
        .run(&mut protocol)
        .v1(&mut rng);
    // Crashed nodes may have transmitted in rounds < crash_round only;
    // with crash_round = 2 and Phase 1 length T ≥ 1, at most one send.
    for &v in &crashed {
        assert!(
            run.metrics.transmissions_of(v) <= 1,
            "crashed node {v} transmitted after dying"
        );
    }
}

#[test]
fn unknown_diameter_broadcast_completes_across_depths() {
    for (name, g) in [
        ("star-200", star(200)),
        ("path-150", path(150)),
        ("grid-14x14", grid2d(14, 14)),
    ] {
        let cfg = EpochBroadcastConfig::new_timed(g.n());
        let out = run_epoch_broadcast(&g, 0, &cfg, 21);
        assert!(out.all_informed, "{name}: {}/{}", out.informed, g.n());
    }
}

#[test]
fn unknown_diameter_finds_shallow_graphs_in_early_epochs() {
    // On a star (D = 2), the doubling schedule should finish during the
    // first couple of epochs — far sooner than the full schedule.
    let g = star(256);
    let cfg = EpochBroadcastConfig::new_timed(256);
    let out = run_epoch_broadcast(&g, 0, &cfg, 4);
    assert!(out.all_informed);
    let early = cfg.epoch_len(1) + cfg.epoch_len(2) + cfg.epoch_len(3);
    assert!(
        out.broadcast_time.expect("done") <= early,
        "star should finish by epoch 3: {} > {early}",
        out.broadcast_time.expect("done")
    );
}
