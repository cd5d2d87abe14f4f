//! Zero-interference property of the trace hook: a traced run must be
//! **bit-identical** to its untraced twin — same rounds, same metrics,
//! same aggregate trace — for every protocol family, topology family,
//! engine contract (v1 serial RNG vs fused v2 streams), and thread
//! count. The sink only observes; it never touches the protocol RNG.
//!
//! Each case also closes the loop: the traced run records to an
//! in-memory `.rtrc`, and a third identical run re-driven through a
//! [`ReplayVerifier`] must match the recording event for event.

use adhoc_radio::core::broadcast::ee_random::EeRandomBroadcast;
use adhoc_radio::core::broadcast::windowed::WindowedBroadcast;
use adhoc_radio::prelude::*;
use adhoc_radio::trace::Recording;
use proptest::prelude::*;

/// Engine config forcing the parallel decide/scatter paths even on the
/// small graphs proptest generates.
fn cfg(threads: usize) -> EngineConfig {
    EngineConfig {
        par_min_edges: 0,
        par_min_awake: 0,
        ..EngineConfig::with_max_rounds(300).traced()
    }
    .with_threads(threads)
}

/// G(n,p) or geometric (unit-disk) topology, seeded.
fn graph_for(geometric: bool, n: usize, seed: u64) -> DiGraph {
    if geometric {
        let r = (2.5 * (n as f64).ln() / n as f64).sqrt().min(0.5);
        random_geometric(n, r, &mut derive_rng(seed, b"zi-geo", 0)).0
    } else {
        let p = (8.0 * (n as f64).ln() / n as f64).min(0.5);
        gnp_directed(n, p, &mut derive_rng(seed, b"zi-gnp", 0))
    }
}

/// One v1 case: untraced vs traced vs replayed, all with identical
/// `(protocol, rng, config)` inputs.
fn check_v1<P: Protocol>(mk: impl Fn() -> P, g: &DiGraph, seed: u64, threads: usize) {
    let c = cfg(threads);
    let plain = {
        let mut p = mk();
        let mut rng = derive_rng(seed, b"zi-run", 1);
        Engine::new(g, c).run(&mut p).v1(&mut rng)
    };
    let mut bytes = Vec::new();
    let traced = {
        let header = RunHeader::new(seed, "v1", "prop");
        let mut sink = RecordingSink::new(&mut bytes, &header).unwrap();
        let mut p = mk();
        let mut rng = derive_rng(seed, b"zi-run", 1);
        let res = Engine::new(g, c).run(&mut p).sink(&mut sink).v1(&mut rng);
        sink.finish(res.completed).unwrap();
        res
    };
    assert_eq!(&plain, &traced, "tracing changed the run");
    let rec = Recording::from_bytes(&bytes).unwrap();
    let mut verifier = ReplayVerifier::new(&rec);
    {
        let mut p = mk();
        let mut rng = derive_rng(seed, b"zi-run", 1);
        let _ = Engine::new(g, c)
            .run(&mut p)
            .sink(&mut verifier)
            .v1(&mut rng);
    }
    let verified = verifier.finish();
    assert!(
        verified.is_ok(),
        "replay diverged: {}",
        verified.unwrap_err()
    );
}

/// One fused-v2 case: untraced vs traced vs replayed.
fn check_fused<P: FusedDecide>(mk: impl Fn() -> P, g: &DiGraph, seed: u64, threads: usize) {
    let c = cfg(threads);
    let plain = {
        let mut p = mk();
        Engine::new(g, c).run(&mut p).v2(seed)
    };
    let mut bytes = Vec::new();
    let traced = {
        let header = RunHeader::new(seed, "v2", "prop");
        let mut sink = RecordingSink::new(&mut bytes, &header).unwrap();
        let mut p = mk();
        let res = Engine::new(g, c).run(&mut p).sink(&mut sink).v2(seed);
        sink.finish(res.completed).unwrap();
        res
    };
    assert_eq!(&plain, &traced, "tracing changed the fused run");
    let rec = Recording::from_bytes(&bytes).unwrap();
    let mut verifier = ReplayVerifier::new(&rec);
    {
        let mut p = mk();
        let _ = Engine::new(g, c).run(&mut p).sink(&mut verifier).v2(seed);
    }
    let verified = verifier.finish();
    assert!(
        verified.is_ok(),
        "replay diverged: {}",
        verified.unwrap_err()
    );
}

/// One energy-overlay case (v1 + fused), with batteries small enough to
/// see depletion events on some runs.
fn check_energy<P: FusedDecide>(mk: impl Fn() -> P, g: &DiGraph, seed: u64, threads: usize) {
    let n = g.n();
    let c = cfg(threads);
    let session = || {
        EnergySession::new(n, LinearRadio::with_listen_ratio(0.5), 9)
            .with_battery(Battery::uniform(n, 12.0))
    };
    // v1 contract.
    let plain = {
        let mut p = mk();
        let mut rng = derive_rng(seed, b"zi-en", 2);
        Engine::new(g, c)
            .run(&mut p)
            .energy(&mut session())
            .v1(&mut rng)
    };
    let traced = {
        let mut sink = RingSink::new(64);
        let mut p = mk();
        let mut rng = derive_rng(seed, b"zi-en", 2);
        Engine::new(g, c)
            .run(&mut p)
            .energy(&mut session())
            .sink(&mut sink)
            .v1(&mut rng)
    };
    assert_eq!(&plain.run, &traced.run, "tracing changed the energy run");
    assert_eq!(&plain.energy, &traced.energy);
    assert_eq!(plain.stopped_on_depletion, traced.stopped_on_depletion);
    // Fused contract.
    let plain_f = {
        let mut p = mk();
        Engine::new(g, c)
            .run(&mut p)
            .energy(&mut session())
            .v2(seed)
    };
    let traced_f = {
        let mut sink = RingSink::new(64);
        let mut p = mk();
        Engine::new(g, c)
            .run(&mut p)
            .energy(&mut session())
            .sink(&mut sink)
            .v2(seed)
    };
    assert_eq!(
        &plain_f.run, &traced_f.run,
        "tracing changed the fused energy run"
    );
    assert_eq!(&plain_f.energy, &traced_f.energy);
}

/// Release acceptance (`.github/workflows/acceptance.yml`): record a
/// full Algorithm-1 broadcast at `n = 2¹⁶` under the v2 contract
/// with 8 workers, writing the `.rtrc` to disk; then re-drive the
/// identical run through a [`ReplayVerifier`] against the recording
/// read back from disk. Zero divergences allowed — the event stream is
/// emitted on the serial side of the round, so it is bit-identical for
/// every thread count by construction, and this pins that claim at
/// scale, through the real file round-trip.
#[test]
#[ignore = "release acceptance: multi-second n=2^16 fused-parallel record + replay"]
fn fused_parallel_record_replay_at_2_pow_16_has_zero_divergences() {
    let n = 1 << 16;
    let seed = 0x7ace;
    let p = 8.0 * (n as f64).ln() / n as f64;
    let g = gnp_directed(n, p, &mut derive_rng(seed, b"acc-graph", 0));
    let acfg = EeBroadcastConfig::for_gnp(n, p);
    let ecfg = EngineConfig::with_max_rounds(acfg.schedule_end() + 2).with_threads(8);

    let path = std::env::temp_dir().join(format!("trace-acceptance-{}.rtrc", std::process::id()));
    let recorded = {
        let header = RunHeader::new(seed, "v2", format!("gnp_directed/n={n}/p={p}"));
        let mut sink = RecordingSink::create(&path, &header).expect("create .rtrc");
        let mut proto = EeRandomBroadcast::new(n, 0, acfg);
        let run = Engine::new(&g, ecfg)
            .run(&mut proto)
            .sink(&mut sink)
            .v2(seed);
        sink.finish(run.completed).expect("footer");
        assert!(
            proto.informed_count() == n,
            "broadcast must complete w.h.p."
        );
        run
    };

    let rec = Recording::read_from(&path).expect("read recording back");
    assert_eq!(rec.footer.as_ref().map(|f| f.rounds), Some(recorded.rounds));
    let mut verifier = ReplayVerifier::new(&rec);
    let replayed = {
        let mut proto = EeRandomBroadcast::new(n, 0, EeBroadcastConfig::for_gnp(n, p));
        Engine::new(&g, ecfg)
            .run(&mut proto)
            .sink(&mut verifier)
            .v2(seed)
    };
    assert_eq!(&recorded, &replayed, "re-driven run differs");
    match verifier.finish() {
        Ok(events) => assert_eq!(events, rec.event_count(), "replay verified fewer events"),
        Err(d) => panic!("replay diverged: {d}"),
    }
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// v1 engine: {alg1, flood, decay} × {Gnp, geometric} × {serial,
    /// parallel} — traced equals untraced, and the recording replays.
    #[test]
    fn traced_v1_runs_are_bit_identical_and_replay(
        n in 16usize..200,
        seed in 0u64..1_000_000,
        alg in 0usize..3,
        geometric in any::<bool>(),
        parallel in any::<bool>(),
    ) {
        let g = graph_for(geometric, n, seed);
        let threads = if parallel { 3 } else { 1 };
        let p = (8.0 * (n as f64).ln() / n as f64).min(0.5);
        match alg {
            0 => check_v1(
                || EeRandomBroadcast::new(n, 0, EeBroadcastConfig::for_gnp(n, p)),
                &g, seed, threads,
            ),
            1 => check_v1(
                || WindowedBroadcast::new(n, 0, FloodConfig::with_prob(0.5, 300).spec()),
                &g, seed, threads,
            ),
            _ => check_v1(
                || WindowedBroadcast::new(n, 0, DecayConfig::new(n, 8).spec()),
                &g, seed, threads,
            ),
        }
    }

    /// Fused v2 engine: same matrix as above.
    #[test]
    fn traced_fused_runs_are_bit_identical_and_replay(
        n in 16usize..200,
        seed in 0u64..1_000_000,
        alg in 0usize..3,
        geometric in any::<bool>(),
        parallel in any::<bool>(),
    ) {
        let g = graph_for(geometric, n, seed);
        let threads = if parallel { 3 } else { 1 };
        let p = (8.0 * (n as f64).ln() / n as f64).min(0.5);
        match alg {
            0 => check_fused(
                || EeRandomBroadcast::new(n, 0, EeBroadcastConfig::for_gnp(n, p)),
                &g, seed, threads,
            ),
            1 => check_fused(
                || WindowedBroadcast::new(n, 0, FloodConfig::with_prob(0.5, 300).spec()),
                &g, seed, threads,
            ),
            _ => check_fused(
                || WindowedBroadcast::new(n, 0, DecayConfig::new(n, 8).spec()),
                &g, seed, threads,
            ),
        }
    }

    /// Energy overlay (batteries + depletion events) on both contracts:
    /// the traced `EnergyRunResult` equals the untraced one field for
    /// field.
    #[test]
    fn traced_energy_runs_are_bit_identical(
        n in 16usize..160,
        seed in 0u64..1_000_000,
        geometric in any::<bool>(),
        parallel in any::<bool>(),
    ) {
        let g = graph_for(geometric, n, seed);
        let threads = if parallel { 3 } else { 1 };
        check_energy(
            || WindowedBroadcast::new(n, 0, FloodConfig::with_prob(0.4, 300).spec()),
            &g, seed, threads,
        );
    }
}
