//! Integration tests for the `radio-energy` overlay: the paper-measure
//! (`TxOnly`) compatibility guarantee, bit-identity of overlay runs
//! against the naive `reference` oracle, and crash/depletion
//! composition.

use adhoc_radio::core::broadcast::ee_general::GeneralBroadcastConfig;
use adhoc_radio::core::broadcast::ee_random::{EeBroadcastConfig, EeRandomBroadcast};
use adhoc_radio::core::broadcast::windowed::{ProbSource, WindowedBroadcast, WindowedSpec};
use adhoc_radio::core::gossip::{EeGossip, EeGossipConfig};
use adhoc_radio::prelude::*;
use adhoc_radio::sim::reference::run_reference;
use adhoc_radio::sim::Protocol;
use proptest::prelude::*;

fn gnp(n: usize, delta: f64, seed: u64) -> adhoc_radio::graph::DiGraph {
    let p = (delta * (n as f64).ln() / n as f64).min(0.9);
    gnp_directed(n, p, &mut derive_rng(seed, b"energy-g", 0))
}

/// Run `protocol` twice from the same seed — plain engine and TxOnly
/// overlay — and assert the overlay (a) does not perturb the run and
/// (b) reports energy exactly equal to the transmission counts.
fn assert_txonly_matches<P, F>(name: &str, g: &adhoc_radio::graph::DiGraph, make: F, rounds: u64)
where
    P: Protocol,
    F: Fn() -> P,
{
    let cfg = EngineConfig::with_max_rounds(rounds);
    let plain = {
        let mut p = make();
        let mut rng = derive_rng(11, b"engine", 0);
        adhoc_radio::sim::Engine::new(g, cfg)
            .run(&mut p)
            .v1(&mut rng)
    };
    let mut p = make();
    let mut rng = derive_rng(11, b"engine", 0);
    let mut session = EnergySession::new(g.n(), TxOnly, 99);
    let res = Engine::new(g, cfg)
        .run(&mut p)
        .energy(&mut session)
        .v1(&mut rng);

    assert_eq!(
        res.run.rounds, plain.rounds,
        "{name}: overlay changed the run"
    );
    assert_eq!(
        res.run.metrics, plain.metrics,
        "{name}: overlay changed metrics"
    );
    assert_eq!(
        res.energy.total_energy(),
        plain.metrics.total_transmissions() as f64,
        "{name}: TxOnly energy must equal total transmissions"
    );
    assert_eq!(
        res.energy.max_energy_per_node(),
        f64::from(plain.metrics.max_transmissions_per_node()),
        "{name}: max energy/node must equal max transmissions/node"
    );
    let per_node: Vec<f64> = plain
        .metrics
        .per_node()
        .iter()
        .map(|&c| f64::from(c))
        .collect();
    assert_eq!(
        res.energy.spent, per_node,
        "{name}: per-node energy mismatch"
    );
}

/// Satellite guarantee: under `TxOnly` every protocol in the workspace
/// reports energy exactly equal to `Metrics::total_transmissions()`.
#[test]
fn txonly_energy_equals_transmissions_for_every_protocol() {
    let n = 256;
    let p = 8.0 * (n as f64).ln() / n as f64;
    let g = gnp(n, 8.0, 1);

    assert_txonly_matches(
        "alg1",
        &g,
        || EeRandomBroadcast::new(n, 0, EeBroadcastConfig::for_gnp(n, p)),
        EeBroadcastConfig::for_gnp(n, p).schedule_end() + 2,
    );
    assert_txonly_matches(
        "flood",
        &g,
        || {
            WindowedBroadcast::new(
                n,
                0,
                WindowedSpec {
                    source: ProbSource::Fixed(0.1),
                    window: None,
                    early_stop: true,
                },
            )
        },
        300,
    );
    assert_txonly_matches(
        "decay",
        &g,
        || WindowedBroadcast::new(n, 0, DecayConfig::new(n, 6).spec()),
        DecayConfig::new(n, 6).max_rounds(),
    );
    assert_txonly_matches(
        "alg3",
        &g,
        || {
            let cfg = GeneralBroadcastConfig::new(n, 6);
            WindowedBroadcast::new(
                n,
                0,
                WindowedSpec {
                    source: ProbSource::Private(cfg.distribution()),
                    window: Some(cfg.window()),
                    early_stop: false,
                },
            )
        },
        GeneralBroadcastConfig::new(n, 6).max_rounds(),
    );
    assert_txonly_matches(
        "gossip",
        &g,
        || {
            EeGossip::new(EeGossipConfig {
                tracked: Some(32),
                ..EeGossipConfig::for_gnp(n, p)
            })
        },
        EeGossipConfig::for_gnp(n, p).schedule_rounds() + 1,
    );
}

/// Battery depletion composes with `CrashPlan`: a node that crashes and
/// runs out of charge in overlapping rounds fails once, end to end.
#[test]
fn crash_and_depletion_compose_and_count_once() {
    let n = 128;
    let g = gnp(n, 8.0, 3);
    let p = 8.0 * (n as f64).ln() / n as f64;
    let cfg = EeBroadcastConfig::for_gnp(n, p);

    // Nodes 1..=12 crash at round 3 *and* carry capacity-2 batteries
    // under unit drain (depleted at the end of round 2, dead from 3).
    let mut plan = CrashPlan::none(n);
    let mut caps = vec![f64::INFINITY; n];
    for v in 1..=12u32 {
        plan = plan.crash(v, 3);
        caps[v as usize] = 2.0;
    }
    let mut protocol = Faulty::new(EeRandomBroadcast::new(n, 0, cfg), plan.clone());
    let mut rng = derive_rng(5, b"engine", 0);
    let mut session = EnergySession::new(n, LinearRadio::uniform_drain(1.0), 17)
        .with_battery(Battery::per_node(caps));
    let res = Engine::new(&g, EngineConfig::with_max_rounds(cfg.schedule_end() + 2))
        .run(&mut protocol)
        .energy(&mut session)
        .v1(&mut rng);
    assert!(res.run.rounds >= 3, "run long enough for both fault paths");
    assert_eq!(res.energy.depleted_count(), 12);
    assert_eq!(
        plan.failed_by(res.run.rounds, &res.energy.depleted_at),
        12,
        "a node that both crashes and depletes must be counted once"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// With a (battery-less) energy overlay attached, engine runs stay
    /// bit-identical to the naive `reference` oracle on the same graph
    /// and seed: the overlay draws from its own RNG stream and never
    /// touches delivery semantics.
    #[test]
    fn overlay_runs_bit_identical_to_reference(
        n in 16usize..160,
        q in 0.05f64..0.9,
        ratio in 0.0f64..2.0,
        seed in 0u64..1_000_000,
    ) {
        let g = gnp(n, 6.0, seed);
        let spec = || WindowedSpec {
            source: ProbSource::Fixed(q),
            window: Some(24),
            early_stop: true,
        };
        let cfg = EngineConfig::with_max_rounds(200);

        let oracle = {
            let mut p = WindowedBroadcast::new(n, 0, spec());
            let mut rng = derive_rng(seed, b"engine", 0);
            run_reference(&g, &mut p, cfg, &mut rng)
        };
        let mut p = WindowedBroadcast::new(n, 0, spec());
        let mut rng = derive_rng(seed, b"engine", 0);
        let mut session = EnergySession::new(
            n,
            FadingRadio::new(LinearRadio::with_listen_ratio(ratio)),
            split_seed_for_test(seed),
        );
        let overlay = Engine::new(&g, cfg).run(&mut p).energy(&mut session).v1(&mut rng);

        prop_assert_eq!(overlay.run.rounds, oracle.rounds);
        prop_assert_eq!(overlay.run.completed, oracle.completed);
        prop_assert_eq!(&overlay.run.metrics, &oracle.metrics);
        // And the energy report is self-consistent.
        let total: f64 = overlay.energy.spent.iter().sum();
        prop_assert!((overlay.energy.total_energy() - total).abs() < 1e-9);
        prop_assert!(overlay.energy.max_energy_per_node() <= total + 1e-9);
    }

    /// TxOnly == transmissions, propertized over densities and seeds.
    #[test]
    fn txonly_equality_holds_for_random_instances(
        n in 16usize..200,
        delta in 3.0f64..10.0,
        seed in 0u64..1_000_000,
    ) {
        let g = gnp(n, delta, seed);
        let p = (delta * (n as f64).ln() / n as f64).min(0.9);
        let cfg = EeBroadcastConfig::for_gnp(n, p);
        let mut protocol = EeRandomBroadcast::new(n, 0, cfg);
        let mut rng = derive_rng(seed, b"engine", 0);
        let mut session = EnergySession::new(n, TxOnly, seed ^ 0xE);
        let res = Engine::new(&g, EngineConfig::with_max_rounds(cfg.schedule_end() + 2)).run(&mut protocol).energy(&mut session).v1(&mut rng);
        prop_assert_eq!(
            res.energy.total_energy(),
            res.run.metrics.total_transmissions() as f64
        );
        prop_assert!(res.energy.max_energy_per_node() <= 1.0, "Alg 1's ≤ 1 guarantee");
    }
}

/// Independent seed for the energy session (kept distinct from every
/// label the engine/protocols use).
fn split_seed_for_test(seed: u64) -> u64 {
    adhoc_radio::util::split_seed(seed, b"energy-test", 0)
}
