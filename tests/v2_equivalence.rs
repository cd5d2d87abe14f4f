//! Cross-validation of the **v2 counter-based stream contract** against
//! the frozen v1 engines.
//!
//! A v2 run (`Run::v2`, per-node streams) and a v1 run (shared
//! serial stream) of the same `(protocol, seed)` follow *different*
//! trajectories by design — the stream layouts differ — so bit-identity
//! is the wrong cross-check. What must hold instead is **statistical
//! equivalence**: per-node coin flips with the same per-round
//! probabilities drive the same stochastic process, so over many trials
//! the distributions of rounds-to-completion and total messages must
//! agree. This suite runs ≥ 200 independent trials per
//! `algorithm × family` cell through both the v2 fused engine and the
//! deliberately naive v1 [`run_reference`] oracle (the slowest,
//! most-obviously-correct implementation of the radio semantics), and
//! asserts the means agree within 3 standard errors of the difference.
//!
//! Everything is seeded, so the suite is deterministic: it either always
//! passes or always fails for a given code state — a systematic bias in
//! the v2 decide/commit split (a phase boundary off by one, a wrong
//! passivation) shifts a mean by far more than 3 SE and trips it.

use adhoc_radio::core::broadcast::decay::DecayConfig;
use adhoc_radio::core::broadcast::ee_random::{EeBroadcastConfig, EeRandomBroadcast};
use adhoc_radio::core::broadcast::flood::FloodConfig;
use adhoc_radio::core::broadcast::windowed::WindowedBroadcast;
use adhoc_radio::graph::{DiGraph, GraphFamily};
use adhoc_radio::sim::engine::run_protocol_fused;
use adhoc_radio::sim::reference::run_reference;
use adhoc_radio::sim::{EngineConfig, RunResult};
use adhoc_radio::util::{derive_rng, split_seed};

const N: usize = 256;
const TRIALS: usize = 200;

/// Mean and (sample) variance.
fn mean_var(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var)
}

/// Assert two trial populations agree within 3 standard errors of the
/// difference of means (plus an epsilon so two exactly-deterministic
/// populations compare by equality rather than 0 < 0).
fn assert_equivalent(label: &str, v1: &[f64], v2: &[f64]) {
    assert_eq!(v1.len(), v2.len());
    let (m1, var1) = mean_var(v1);
    let (m2, var2) = mean_var(v2);
    let se = (var1 / v1.len() as f64 + var2 / v2.len() as f64).sqrt();
    let tol = 3.0 * se + 1e-9;
    assert!(
        (m1 - m2).abs() <= tol,
        "{label}: v1 mean {m1:.3} vs v2 mean {m2:.3} differ by {:.3} > 3σ = {tol:.3} \
         (v1 var {var1:.3}, v2 var {var2:.3}, {} trials)",
        (m1 - m2).abs(),
        v1.len()
    );
}

/// The expected-degree convention shared with E18, scaled down.
fn degree(n: usize) -> f64 {
    8.0 * (n as f64).ln()
}

fn family_p(family: &GraphFamily, n: usize) -> f64 {
    match family {
        GraphFamily::GnpDirected => degree(n) / n as f64,
        _ => adhoc_radio::graph::generate::GeoParams::with_expected_degree(n, degree(n)).r_min,
    }
}

fn p_equiv(family: &GraphFamily, p: f64, n: usize, graph: &DiGraph) -> f64 {
    match family {
        GraphFamily::GnpDirected => p,
        _ => (graph.m() as f64 / n as f64) / n as f64,
    }
}

/// One algorithm's (v1, v2) runs on one trial graph. Builds a fresh
/// protocol per engine; v1 consumes the shared stream the v1 contract
/// prescribes (`derive_rng(seed, b"engine", 0)`), v2 derives its
/// per-node streams from the same trial seed.
fn both_runs(
    alg: &str,
    family: &GraphFamily,
    p: f64,
    graph: &DiGraph,
    seed: u64,
) -> (RunResult, RunResult) {
    match alg {
        "alg1" => {
            let cfg = EeBroadcastConfig::for_gnp(N, p_equiv(family, p, N, graph));
            let engine_cfg = EngineConfig::with_max_rounds(cfg.schedule_end() + 2);
            let mut p1 = EeRandomBroadcast::new(N, 0, cfg);
            let v1 = run_reference(
                graph,
                &mut p1,
                engine_cfg,
                &mut derive_rng(seed, b"engine", 0),
            );
            let mut p2 = EeRandomBroadcast::new(N, 0, cfg);
            let v2 = run_protocol_fused(graph, &mut p2, engine_cfg, seed);
            (v1, v2)
        }
        "flood" => {
            let q = (1.0 / degree(N)).min(1.0);
            let cfg = FloodConfig::with_prob(q, DecayConfig::new(N, 8).max_rounds());
            let engine_cfg = EngineConfig::with_max_rounds(cfg.max_rounds);
            let mut p1 = WindowedBroadcast::new(N, 0, cfg.spec());
            let v1 = run_reference(
                graph,
                &mut p1,
                engine_cfg,
                &mut derive_rng(seed, b"engine", 0),
            );
            let mut p2 = WindowedBroadcast::new(N, 0, cfg.spec());
            let v2 = run_protocol_fused(graph, &mut p2, engine_cfg, seed);
            (v1, v2)
        }
        "decay" => {
            let cfg = DecayConfig::new(N, 8);
            let engine_cfg = EngineConfig::with_max_rounds(cfg.max_rounds());
            let mut p1 = WindowedBroadcast::new(N, 0, cfg.spec());
            let v1 = run_reference(
                graph,
                &mut p1,
                engine_cfg,
                &mut derive_rng(seed, b"engine", 0),
            );
            let mut p2 = WindowedBroadcast::new(N, 0, cfg.spec());
            let v2 = run_protocol_fused(graph, &mut p2, engine_cfg, seed);
            (v1, v2)
        }
        other => unreachable!("unknown algorithm {other}"),
    }
}

fn equivalence_cell(alg: &str, family: GraphFamily) {
    let p = family_p(&family, N);
    let mut rounds1 = Vec::with_capacity(TRIALS);
    let mut rounds2 = Vec::with_capacity(TRIALS);
    let mut msgs1 = Vec::with_capacity(TRIALS);
    let mut msgs2 = Vec::with_capacity(TRIALS);
    for trial in 0..TRIALS {
        let seed = split_seed(
            0xEC_0DE,
            format!("{alg}-{}", family.label()).as_bytes(),
            trial as u64,
        );
        // Both engines see the identical topology; only the protocol
        // randomness contract differs.
        let graph = family.generate(N, p, &mut derive_rng(seed, b"eq-g", 0));
        let (v1, v2) = both_runs(alg, &family, p, &graph, seed);
        rounds1.push(v1.rounds as f64);
        rounds2.push(v2.rounds as f64);
        msgs1.push(v1.metrics.total_transmissions() as f64);
        msgs2.push(v2.metrics.total_transmissions() as f64);
    }
    let label = format!("{alg} on {}", family.label());
    assert_equivalent(&format!("{label}: rounds"), &rounds1, &rounds2);
    assert_equivalent(&format!("{label}: messages"), &msgs1, &msgs2);
}

#[test]
fn alg1_v2_matches_v1_reference_on_gnp() {
    equivalence_cell("alg1", GraphFamily::GnpDirected);
}

#[test]
fn alg1_v2_matches_v1_reference_on_geometric() {
    equivalence_cell("alg1", GraphFamily::Geometric);
}

#[test]
fn flood_v2_matches_v1_reference_on_gnp() {
    equivalence_cell("flood", GraphFamily::GnpDirected);
}

#[test]
fn flood_v2_matches_v1_reference_on_geometric() {
    equivalence_cell("flood", GraphFamily::Geometric);
}

#[test]
fn decay_v2_matches_v1_reference_on_gnp() {
    equivalence_cell("decay", GraphFamily::GnpDirected);
}

#[test]
fn decay_v2_matches_v1_reference_on_geometric() {
    equivalence_cell("decay", GraphFamily::Geometric);
}

#[test]
fn the_equivalence_test_has_teeth() {
    // Sanity that 3σ at 200 trials actually detects a real protocol
    // difference: flood at q vs flood at q/2 must *fail* equivalence on
    // messages. (Guards against the suite silently comparing nothing.)
    let family = GraphFamily::GnpDirected;
    let p = family_p(&family, N);
    let mut a = Vec::new();
    let mut b = Vec::new();
    for trial in 0..200 {
        let seed = split_seed(0x7EE7, b"teeth", trial);
        let graph = family.generate(N, p, &mut derive_rng(seed, b"eq-g", 0));
        let q = (1.0 / degree(N)).min(1.0);
        for (qq, out) in [(q, &mut a), (q / 2.0, &mut b)] {
            let cfg = FloodConfig::with_prob(qq, 2_000);
            let mut proto = WindowedBroadcast::new(N, 0, cfg.spec());
            let run = run_protocol_fused(
                &graph,
                &mut proto,
                EngineConfig::with_max_rounds(cfg.max_rounds),
                seed,
            );
            out.push(run.rounds as f64);
        }
    }
    let (m1, v1) = mean_var(&a);
    let (m2, v2) = mean_var(&b);
    let se = (v1 / a.len() as f64 + v2 / b.len() as f64).sqrt();
    assert!(
        (m1 - m2).abs() > 3.0 * se,
        "halving q should visibly change rounds: {m1:.2} vs {m2:.2} (3σ = {:.2})",
        3.0 * se
    );
}
