//! The measurement wrappers must only observe. At small n, every
//! workload runs wrapped and unwrapped and must produce identical
//! results; the topology wrapper must forward `range_query_cost`, or the
//! implicit backends would switch scatter partition under the traced run
//! and it would measure a different program.

use perfbench::broadcast::{degree, Spec, ALG1_CSR, DECAY_SCATTER};
use perfbench::campaign::{run_plain, run_probed};
use perfbench::layers::CampaignCounts;
use perfbench::probe::{ClockSink, CountingTopology, PhaseClock, Probed, TopoCounts};
use radio_core::broadcast::decay::DecayConfig;
use radio_core::broadcast::ee_random::{EeBroadcastConfig, EeRandomBroadcast};
use radio_core::broadcast::WindowedBroadcast;
use radio_graph::{RangeQueryCost, Topology};
use radio_sim::engine::{run_protocol_fused, run_protocol_fused_traced};
use radio_sim::{EngineConfig, FusedDecide, RunResult};
use std::path::Path;

const N: usize = 1 << 10;
const SEED: u64 = 5;

fn small(spec: Spec) -> Spec {
    Spec { n: N, ..spec }
}

/// A config that forces every parallel path at `threads > 1`.
fn forced(max_rounds: u64, threads: usize) -> EngineConfig {
    let mut cfg = EngineConfig::with_max_rounds(max_rounds).with_threads(threads);
    cfg.par_min_edges = 0;
    cfg.par_min_edges_implicit = 0;
    cfg.par_min_awake = 0;
    cfg
}

/// Run `make()` plain and fully wrapped on `g`; return both results and
/// the wrapper's topology counts.
fn both<T: Topology, P: FusedDecide>(
    g: &T,
    make: impl Fn() -> P,
    cfg: EngineConfig,
) -> (RunResult, RunResult, TopoCounts) {
    let plain = run_protocol_fused(g, &mut make(), cfg, SEED);
    let clock = PhaseClock::new();
    let wrapped_topo = CountingTopology::new(g);
    let mut wrapped = Probed::new(make(), &clock);
    let traced = run_protocol_fused_traced(
        &wrapped_topo,
        &mut wrapped,
        cfg,
        SEED,
        &mut ClockSink(&clock),
    );
    assert_eq!(clock.counts().rounds, traced.rounds);
    assert_eq!(
        clock.counts().transmissions,
        traced.metrics.total_transmissions()
    );
    (plain, traced, wrapped_topo.counts())
}

fn check_backend<T: Topology>(g: &T, implicit: bool) {
    let n = g.n();
    for threads in [1, 2] {
        let acfg = EeBroadcastConfig::for_gnp(n, degree(n) / n as f64);
        let (plain, traced, counts) = both(
            g,
            || EeRandomBroadcast::new(n, 0, acfg),
            forced(acfg.schedule_end() + 2, threads),
        );
        assert_eq!(plain, traced, "Algorithm 1, {threads} thread(s)");
        assert!(counts.rows + counts.range_rows > 0);

        let dcfg = DecayConfig::new(n, 8);
        let (plain, traced, counts) = both(
            g,
            || WindowedBroadcast::new(n, 0, dcfg.spec()),
            forced(dcfg.max_rounds(), threads),
        );
        assert_eq!(plain, traced, "Decay, {threads} thread(s)");
        if implicit && threads > 1 {
            // Transmitter-sharded scatter: each row generated once, no
            // range queries. A receiver-range scatter would show up here.
            assert_eq!(counts.range_rows, 0);
            assert_eq!(counts.rows, traced.metrics.total_transmissions());
        }
    }
}

#[test]
fn topology_wrapper_forwards_range_query_cost() {
    let inputs = small(DECAY_SCATTER).build(SEED);
    let csr = inputs.csr.as_ref().unwrap();
    let gnp = inputs.gnp.as_ref().unwrap();
    let grid = inputs.grid.as_ref().unwrap();
    assert_eq!(
        CountingTopology::new(csr).range_query_cost(),
        RangeQueryCost::Narrowed
    );
    assert_eq!(
        CountingTopology::new(gnp).range_query_cost(),
        RangeQueryCost::FullRowReplay
    );
    assert_eq!(
        CountingTopology::new(grid).range_query_cost(),
        RangeQueryCost::FullRowReplay
    );
}

#[test]
fn wrapped_engine_runs_are_identical_on_every_backend() {
    let inputs = small(DECAY_SCATTER).build(SEED);
    check_backend(inputs.csr.as_ref().unwrap(), false);
    check_backend(inputs.gnp.as_ref().unwrap(), true);
    check_backend(inputs.grid.as_ref().unwrap(), true);
}

#[test]
fn benchmark_trials_are_identical_wrapped_and_unwrapped() {
    for spec in [small(ALG1_CSR), small(DECAY_SCATTER)] {
        let inputs = spec.build(SEED);
        for k in 0..2 * spec.trials.len() {
            for threads in [1, 2] {
                let plain = spec.trial(&inputs, k, SEED, threads, None);
                let clock = PhaseClock::new();
                let mut counts = TopoCounts::default();
                let probed = spec.trial(&inputs, k, SEED, threads, Some((&clock, &mut counts)));
                assert_eq!(
                    plain, probed,
                    "{} trial {k}, {threads} thread(s)",
                    spec.name
                );
                assert_eq!(
                    counts.neighbors > 0,
                    probed.metrics.total_transmissions() > 0
                );
            }
        }
    }
}

#[test]
fn probed_campaign_writes_the_same_report() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let spec = std::fs::read_to_string(root.join("scenarios/smoke.scenario.json")).unwrap();
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("transparent-campaign");
    std::fs::remove_dir_all(&tmp).ok();
    let plain = run_plain(&spec, &tmp.join("plain")).unwrap();
    let mut counts = CampaignCounts::default();
    let probed = run_probed(&spec, &tmp.join("probed"), &mut counts).unwrap();
    assert_eq!(plain.report, probed.report);
    assert_eq!(plain.step_s.len(), probed.step_s.len());
    assert_eq!(counts.report_bytes, probed.report.len() as u64);
    assert!(counts.checkpoint_bytes > 0);
    std::fs::remove_dir_all(&tmp).ok();
}
