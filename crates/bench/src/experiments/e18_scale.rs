//! **E18 — extension: million-node scaling on the parallel engine.** The
//! paper's asymptotic claims — Theorem 2.1's `O(log² n / log(n/D))`
//! message bound, Decay's `Θ(D + log n)` rounds — only separate cleanly
//! from the baselines once `n` is large enough that constant factors stop
//! dominating. This experiment runs the §1.3-style comparison at
//! `n = 2¹⁸ … 2²⁰` (raise `ADHOC_RADIO_E18_MAX_EXP` to 21+ for the full
//! million-node column; the default keeps the committed JSON
//! regenerable in reasonable wall-clock on one core) on both `G(n,p)`
//! and geometric topologies, driving the engine under the **v2
//! contract** ([`radio_sim::Run::v2`]) instead of trial-level fan-out: at
//! these sizes a single run saturates memory bandwidth, so the sweep is
//! built `with_threads_per_run` and each trial hands the engine
//! `EngineConfig::with_threads`. Under the v2 counter-based per-node
//! stream contract the decide phase — one RNG draw per awake node per
//! round, the serial bottleneck that Amdahl-capped the v1 `run_par`
//! here — fans out with the scatter.
//!
//! Reported per cell: mean rounds, mean total messages, messages per
//! node, and a wall-clock column (seconds per trial, *not* serialized —
//! the JSON stays a pure function of the sweep description).
//!
//! JSON: `results/sweep_e18.json` — bit-identical for any thread count
//! by the v2 stream contract (`(run_seed, node, round)`-keyed draws) and
//! the order-free transmitter-sharded scatter. Note the v2 switch changed
//! these bytes relative to the PR-4 file, which consumed the v1 shared
//! stream.
//!
//! Past the CSR memory wall, the **implicit-backend section**
//! ([`run_implicit_section`]) re-runs the comparison with no stored
//! graph at all: [`ImplicitGnp`] re-samples rows per query,
//! [`ImplicitGrid`] answers by torus cell scan, and the engine reaches
//! both through the [`Topology`] trait — same trial code, O(n) instead
//! of O(m) memory, valid to `n = 2²⁶`. Its JSON goes to
//! `sweep_e18_implicit.json` (the CSR sweep's artifact is untouched).
//!
//! Env knobs (the examples' scale-shrinking idiom):
//! `ADHOC_RADIO_E18_MIN_EXP` / `ADHOC_RADIO_E18_MAX_EXP` bound the
//! `log₂ n` range (defaults 18 / 20; the smoke test runs 9 / 10),
//! `ADHOC_RADIO_E18_THREADS` overrides the per-run worker count
//! (default: machine parallelism, capped at 8),
//! `ADHOC_RADIO_E18_IMPLICIT` / `ADHOC_RADIO_E18_IMPLICIT_{MIN,MAX}_EXP`
//! gate and bound the implicit section (defaults on, 20 / 21; raise to
//! 24–26 for the past-the-wall columns), and `ADHOC_RADIO_TRACE=dir`
//! records a per-round `.rtrc` trace of the first trial of every CSR
//! cell into `dir` (a [`radio_sim::TracePlan`] with cap 1 — capture
//! only observes, so the sweep JSON is byte-identical either way).

use crate::common::cell_extra;
use crate::{Ctx, Report};
use radio_core::broadcast::decay::DecayConfig;
use radio_core::broadcast::ee_random::{EeBroadcastConfig, EeRandomBroadcast};
use radio_core::broadcast::flood::FloodConfig;
use radio_core::broadcast::{BroadcastOutcome, WindowedBroadcast};
use radio_graph::{DiGraph, GraphFamily, ImplicitGnp, ImplicitGrid, Topology};
use radio_sim::engine::run_protocol_fused_traced;
use radio_sim::trace::{NullSink, TraceSink};
use radio_sim::{EngineConfig, Protocol, Sweep, SweepCell, TracePlan, TrialResult};
use radio_util::{derive_rng, split_seed, Json, TextTable};

/// Degree factor: expected degree is `DEGREE_C · ln n` for both families
/// — the workspace's standard `p = 8 ln n / n` regime, which satisfies
/// Theorem 2.1's `p > δ log n / n` precondition with room to spare (at a
/// fixed degree like 32, Algorithm 1's phase constants stop working by
/// `n = 2¹⁸` and it informs almost nobody).
const DEGREE_C: f64 = 8.0;
/// Diameter hint for Decay: these degree-Θ(log n) graphs have
/// `D ≈ log n / log d ≈ 4`; 8 is a comfortable over-estimate.
const D_HINT: u32 = 8;

/// Expected degree at `n` (see [`DEGREE_C`]).
fn degree(n: usize) -> f64 {
    DEGREE_C * (n as f64).ln()
}

/// Flooding's per-round transmit probability, tuned to the degree: a
/// fixed `q` collision-chokes at degree Θ(log n) (with `q·d ≈ 10` a
/// receiver hears exactly one transmitter with probability
/// `≈ 10·e⁻¹⁰`), so use the classic `q = 1/d`, which maximizes the
/// per-round success probability at `≈ e⁻¹` per informed neighborhood.
fn flood_q(n: usize) -> f64 {
    (1.0 / degree(n)).min(1.0)
}

/// Parse an env knob, *loudly* falling back on garbage — a silently
/// ignored typo here costs the user a multi-minute run at the wrong
/// scale (same policy as `adhoc_radio::example_scale`).
fn env_usize(key: &str, default: usize) -> usize {
    match std::env::var(key) {
        Ok(v) => match v.trim().parse() {
            Ok(x) => x,
            Err(_) => {
                eprintln!("warning: ignoring unparsable {key}={v:?}; using {default}");
                default
            }
        },
        Err(_) => default,
    }
}

/// Equivalent `G(n,p)` edge probability for Algorithm 1's degree
/// estimate on non-Gnp families (same convention as E17).
fn p_equiv(cell: &SweepCell, graph: &DiGraph) -> f64 {
    match cell.family {
        GraphFamily::GnpDirected => cell.p,
        _ => (graph.m() as f64 / cell.n as f64) / cell.n as f64,
    }
}

/// The engine config of one trial: the algorithm's round cap, with
/// `threads` intra-run workers. Recordings stamp it into their header.
fn engine_cfg(alg: &str, n: usize, p_eq: f64, threads: usize) -> EngineConfig {
    let max_rounds = match alg {
        "alg1" => EeBroadcastConfig::for_gnp(n, p_eq).schedule_end() + 2,
        _ => DecayConfig::new(n, D_HINT).max_rounds(),
    };
    EngineConfig::with_max_rounds(max_rounds).with_threads(threads)
}

/// One trial: run `alg` under the **v2 contract**
/// ([`radio_sim::Run::v2`]) with `threads` intra-run workers —
/// under the v2 contract the decide phase fans out with the scatter, so
/// run-level parallelism covers the whole round, not just the
/// collision count. Pure in `(alg, graph, p_eq, seed)` — the thread
/// count cannot influence the result (property-tested in
/// `tests/determinism.rs`, asserted on the JSON bytes by the smoke
/// test). Generic over [`Topology`] so the implicit-backend section
/// drives the exact same trial code as the CSR sweep.
fn trial_body<T: Topology>(
    alg: &str,
    graph: &T,
    p_eq: f64,
    seed: u64,
    threads: usize,
) -> TrialResult {
    trial_body_traced(alg, graph, p_eq, seed, threads, &mut NullSink)
}

/// [`trial_body`] with a [`TraceSink`] attached — the sink only
/// observes (the engine's zero-interference property), so traced and
/// untraced trials report identical `TrialResult`s and the sweep JSON
/// stays byte-stable whether or not `ADHOC_RADIO_TRACE` is set.
fn trial_body_traced<T: Topology, S: TraceSink>(
    alg: &str,
    graph: &T,
    p_eq: f64,
    seed: u64,
    threads: usize,
    sink: &mut S,
) -> TrialResult {
    let n = Topology::n(graph);
    let cfg = engine_cfg(alg, n, p_eq, threads);
    let trial = match alg {
        "alg1" => {
            let mut protocol = EeRandomBroadcast::new(n, 0, EeBroadcastConfig::for_gnp(n, p_eq));
            let run = run_protocol_fused_traced(graph, &mut protocol, cfg, seed, sink);
            let informed = protocol.informed_count();
            TrialResult::from_run(&run, informed == n, informed)
        }
        "flood" | "decay" => {
            let spec = match alg {
                "flood" => FloodConfig::with_prob(flood_q(n), cfg.max_rounds).spec(),
                _ => DecayConfig::new(n, D_HINT).spec(),
            };
            let mut protocol = WindowedBroadcast::new(n, 0, spec);
            let run = run_protocol_fused_traced(graph, &mut protocol, cfg, seed, sink);
            BroadcastOutcome::from_run(n, &protocol, run).to_trial()
        }
        other => unreachable!("unknown algorithm {other}"),
    };
    let tx = trial.total_transmissions as f64;
    trial.extra("msgs_per_node", tx / n as f64)
}

/// The CSR-sweep adapter around [`trial_body`]: derives Algorithm 1's
/// degree estimate from the materialized edge count. When the sweep has
/// a [`TracePlan`], the first trial of each cell records its `.rtrc`
/// through [`trial_body_traced`] instead.
fn scale_trial(cell: &SweepCell, graph: &DiGraph, seed: u64, threads: usize) -> TrialResult {
    trial_body(&cell.algorithm, graph, p_equiv(cell, graph), seed, threads)
}

/// The traced twin of [`scale_trial`].
fn scale_trial_traced<S: TraceSink>(
    cell: &SweepCell,
    graph: &DiGraph,
    seed: u64,
    threads: usize,
    sink: &mut S,
) -> TrialResult {
    trial_body_traced(
        &cell.algorithm,
        graph,
        p_equiv(cell, graph),
        seed,
        threads,
        sink,
    )
}

/// The experiment body at an explicit `log₂ n` range — the smoke test
/// calls this directly (no env mutation in a multi-threaded test
/// binary); [`run`] wraps it with the env-derived defaults, including
/// `trace_dir` from `ADHOC_RADIO_TRACE`. When `trace_dir` is set, the
/// first trial of every cell records a `.rtrc` trace there (a
/// [`TracePlan`] with cap 1); tracing never changes the run or the
/// JSON — the sink only observes.
pub fn run_scaled(
    ctx: &Ctx,
    min_exp: u32,
    max_exp: u32,
    threads: usize,
    trace_dir: Option<&std::path::Path>,
) -> Report {
    assert!(min_exp <= max_exp);
    assert!(
        max_exp < usize::BITS,
        "max_exp {max_exp} would overflow the node-count shift"
    );
    let mut report = Report::new(
        "e18",
        "E18 — extension: million-node scaling, parallel engine",
    );
    let trials = ctx.trials(3, 2);
    let ns: Vec<usize> = (min_exp..=max_exp).map(|e| 1usize << e).collect();

    let mut sweep = Sweep::new("e18", ctx.seed ^ 0x18, trials).with_threads_per_run(threads);
    for &n in &ns {
        let gnp_p = degree(n) / n as f64;
        let geo_r = radio_graph::generate::GeoParams::with_expected_degree(n, degree(n)).r_min;
        for (family, p) in [
            (GraphFamily::GnpDirected, gnp_p),
            (GraphFamily::Geometric, geo_r),
        ] {
            for alg in ["alg1", "flood", "decay"] {
                sweep.push(SweepCell::new(alg, family.clone(), n, p));
            }
        }
    }

    // Per-cell execution with wall-clock bookkeeping: `run_cell` uses the
    // exact seeds and aggregation of `Sweep::run`, so the JSON is
    // bit-identical to a plain `sweep.run(...)` — the timings ride along
    // in the markdown only. The runner reads the thread count from the
    // sweep (single source of truth), as `with_threads_per_run`
    // prescribes.
    let plan = trace_dir.map(|dir| TracePlan::new(dir, 1));
    let sweep_ref = &sweep;
    let plan_ref = plan.as_ref();
    let runner = |cell: &SweepCell, graph: &DiGraph, seed: u64| -> TrialResult {
        let threads = sweep_ref.run_threads();
        let cfg = || engine_cfg(&cell.algorithm, cell.n, p_equiv(cell, graph), threads);
        match plan_ref.and_then(|p| p.open(cell, seed, "v2", &cfg())) {
            Some(mut sink) => {
                let trial = scale_trial_traced(cell, graph, seed, threads, &mut sink);
                if let Err(e) = sink.finish(trial.success) {
                    eprintln!("warning: e18 trace footer write failed: {e}");
                }
                trial
            }
            None => scale_trial(cell, graph, seed, threads),
        }
    };
    let mut results = Vec::with_capacity(sweep.cells().len());
    let mut wall_per_trial = Vec::with_capacity(sweep.cells().len());
    for i in 0..sweep.cells().len() {
        let cell = &sweep.cells()[i];
        let start = std::time::Instant::now();
        results.push(sweep.run_cell(i, &runner));
        let secs = start.elapsed().as_secs_f64();
        wall_per_trial.push(secs / trials as f64);
        // Progress to stderr: big cells run for minutes, and a silent
        // harness is indistinguishable from a hung one.
        eprintln!(
            "e18: {}/{} {} {} n=2^{} done in {:.1}s ({} trials)",
            i + 1,
            sweep.cells().len(),
            cell.family.label(),
            cell.algorithm,
            cell.n.trailing_zeros(),
            secs,
            trials
        );
    }
    let sweep_report = sweep.report(&results);

    for family in [GraphFamily::GnpDirected, GraphFamily::Geometric] {
        let mut t = TextTable::new(&[
            "algorithm",
            "n",
            "success",
            "rounds (mean)",
            "messages (mean)",
            "msgs/node",
            "max msgs/node",
            "wall s/trial",
        ]);
        for (cell, &wall) in sweep_report.cells.iter().zip(&wall_per_trial) {
            if cell.cell.family != family {
                continue;
            }
            let rounds = cell.rounds.as_ref().map_or(f64::NAN, |s| s.mean);
            let msgs = cell
                .total_transmissions
                .as_ref()
                .map_or(f64::NAN, |s| s.mean);
            t.row(&[
                cell.cell.algorithm.clone(),
                format!("2^{}", cell.cell.n.trailing_zeros()),
                format!("{}/{}", cell.successes, cell.trials),
                format!("{rounds:.1}"),
                format!("{msgs:.0}"),
                format!(
                    "{:.3}",
                    cell_extra(cell, "msgs_per_node").map_or(f64::NAN, |s| s.mean)
                ),
                format!("{}", cell.max_transmissions_per_node),
                format!("{wall:.2}"),
            ]);
        }
        let story = match family {
            GraphFamily::GnpDirected => {
                "All three complete w.h.p. and rounds grow ≈ logarithmically, \
                 but the energy measures separate: Algorithm 1 keeps its \
                 structural ≤ 1-transmission-per-node invariant (max \
                 msgs/node = 1, the paper's Theorem 2.1 guarantee) at every \
                 n; flood at q = 1/d is cheap in *total* messages but \
                 unlucky nodes transmit several times; Decay pays \
                 Θ((D + log n)·log n)-flavored totals — two orders of \
                 magnitude more — because its nodes never retire."
            }
            _ => {
                "The geometric family is where the paper's §5 caveat bites: \
                 Algorithm 1's phase schedule is tuned to G(n,p)'s \
                 exponential neighborhood growth, and on a spatial topology \
                 (diameter Θ(√(n/d)), not Θ(log n / log d)) its Phase-1/3 \
                 budget ends long before the frontier crosses the torus — \
                 it informs almost nobody (success 0/N with a handful of \
                 messages). Flood and Decay, which keep transmitting until \
                 the message arrives, complete at diameter-driven round \
                 counts instead."
            }
        };
        report.para(format!(
            "Scaling on `{}` (expected degree {DEGREE_C}·ln n, {trials} \
             trials/cell, {threads} fused worker(s) per run — run-level \
             parallelism via `Sweep::with_threads_per_run` + \
             `EngineConfig::with_threads`, decide + scatter fused under \
             the v2 per-node stream contract; results are thread-count \
             independent). {story} Wall-clock is per trial, graph \
             generation included, and is *not* serialized to the sweep \
             JSON (which stays deterministic).",
            family.label()
        ));
        report.table(&t);
    }

    match sweep_report.write_json(&ctx.out_dir) {
        Ok(path) => {
            report.para(format!(
                "Machine-readable sweep report: `{}` — bit-identical across \
                 engine thread counts and regenerable with the default env \
                 (`ADHOC_RADIO_E18_MIN_EXP={min_exp}`, \
                 `ADHOC_RADIO_E18_MAX_EXP={max_exp}`).",
                path.display()
            ));
        }
        Err(e) => eprintln!("warning: cannot write e18 sweep JSON: {e}"),
    }
    if let Some(plan) = &plan {
        report.para(format!(
            "Trace capture was on (`ADHOC_RADIO_TRACE`): {} per-round \
             `.rtrc` recording(s) — the first trial of each cell — under \
             `{}`. Inspect with `cargo run --release -p radio-trace --bin \
             trace -- info/export`, or re-drive the seed through a \
             `ReplayVerifier` to check bit-identical replay. Capture does \
             not perturb the runs: the sweep JSON above is byte-identical \
             with tracing on or off.",
            plan.recorded(),
            plan.dir().display()
        ));
    }
    report
}

/// The two implicit topology backends of the ≥ 2²⁴ rows. Deliberately
/// *not* [`GraphFamily`]: that enum's contract is "materialize a
/// `DiGraph`", which is exactly the O(m) step these backends exist to
/// skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ImplicitFamily {
    /// [`ImplicitGnp`] — O(1) graph memory, rows re-sampled per query.
    Gnp,
    /// [`ImplicitGrid`] — O(n) positions + buckets, neighbors by cell scan.
    Grid,
}

impl ImplicitFamily {
    fn label(self) -> &'static str {
        match self {
            ImplicitFamily::Gnp => "implicit_gnp",
            ImplicitFamily::Grid => "implicit_grid",
        }
    }

    /// Build the backend for one `(n, d)` cell. The grid's position draws
    /// come from a stream derived from `gseed`, so like the Gnp case the
    /// whole topology is a pure function of the seed.
    fn build(self, n: usize, d: f64, gseed: u64) -> ImplicitBackend {
        match self {
            ImplicitFamily::Gnp => {
                ImplicitBackend::Gnp(ImplicitGnp::with_expected_degree(n, d, gseed))
            }
            ImplicitFamily::Grid => ImplicitBackend::Grid(ImplicitGrid::with_expected_degree(
                n,
                d,
                &mut derive_rng(gseed, b"geo", 0),
            )),
        }
    }
}

/// A built implicit topology — monomorphized dispatch into the generic
/// [`trial_body`], one arm per backend.
enum ImplicitBackend {
    Gnp(ImplicitGnp),
    Grid(ImplicitGrid),
}

impl ImplicitBackend {
    fn trial(&self, alg: &str, p_eq: f64, seed: u64, threads: usize) -> TrialResult {
        match self {
            ImplicitBackend::Gnp(g) => trial_body(alg, g, p_eq, seed, threads),
            ImplicitBackend::Grid(g) => trial_body(alg, g, p_eq, seed, threads),
        }
    }
}

/// The implicit-backend scaling section: the same three algorithms and
/// the same `trial_body`, but the graph is never materialized — the
/// engine queries neighbors through the [`Topology`] trait, so the
/// per-run footprint is O(n) state instead of O(m) CSR. This is what
/// breaks the CSR memory wall: the materializing sweep is hard-capped at
/// `n = 2²⁴` (`MAX_EXP_BOUND`); here `n = 2²⁶` at degree `8 ln n`
/// (~10¹⁰ virtual edges) fits because those edges are re-derived on
/// demand.
///
/// Hand-rolled rather than a [`Sweep`] because `SweepCell`'s
/// [`GraphFamily`] is a materializing enum. Seeds are `split_seed`
/// fan-outs of `ctx.seed ^ 0x18` (same root as the CSR sweep, disjoint
/// labels), so the section is a pure function of `(ctx.seed, range)` —
/// the JSON it writes (`sweep_e18_implicit.json`; the CSR sweep's
/// `sweep_e18.json` is untouched) must be bit-identical across thread
/// counts, and the smoke test asserts exactly that.
///
/// Algorithm 1's degree estimate uses the analytic `p = d/n` for both
/// backends: an implicit topology never learns `m`, and by construction
/// both families target expected degree `d` (the grid via the clamped
/// `GeoParams` radius), so the analytic value is what the materialized
/// `m/n²` estimates.
pub fn run_implicit_section(
    ctx: &Ctx,
    report: &mut Report,
    min_exp: u32,
    max_exp: u32,
    threads: usize,
) {
    assert!(min_exp <= max_exp);
    assert!(
        max_exp < usize::BITS,
        "implicit max_exp {max_exp} would overflow the node-count shift"
    );
    let trials = ctx.trials(2, 1);
    let root = ctx.seed ^ 0x18;

    // With more than one worker the table grows a scaling pair: trial 0
    // re-timed at 1 thread, and the resulting speedup. Wall-clock (both
    // columns) stays markdown-only — the JSON below carries neither.
    let scaling = threads > 1;
    let mut headers = vec![
        "backend",
        "algorithm",
        "n",
        "success",
        "rounds (mean)",
        "messages (mean)",
        "msgs/node",
        "max msgs/node",
        "wall s/trial",
    ];
    if scaling {
        headers.push("wall 1t s/trial");
        headers.push("speedup");
    }
    let mut t = TextTable::new(&headers);
    let mut cells_json: Vec<Json> = Vec::new();

    let mut cell_idx: u64 = 0;
    for exp in min_exp..=max_exp {
        let n = 1usize << exp;
        let d = degree(n);
        for family in [ImplicitFamily::Gnp, ImplicitFamily::Grid] {
            // One graph per (n, backend), shared by all three algorithms
            // — mirrors `Sweep::run_cell`'s graph reuse. The seed depends
            // only on (root, exp, backend), not on the algorithm order.
            let gseed = split_seed(root, b"e18i-graph", (u64::from(exp) << 1) | family as u64);
            let graph = family.build(n, d, gseed);
            for alg in ["alg1", "flood", "decay"] {
                let start = std::time::Instant::now();
                let mut results = Vec::with_capacity(trials);
                for trial in 0..trials as u64 {
                    let seed = split_seed(root, b"e18i-trial", (cell_idx << 16) | trial);
                    results.push(graph.trial(alg, d / n as f64, seed, threads));
                }
                let secs = start.elapsed().as_secs_f64();
                let wall = secs / trials as f64;
                // Scaling column: re-time trial 0 serially. The result
                // is discarded (it is bit-identical to the threaded
                // trial 0 by the engine's determinism contract — the
                // cross-thread smoke test pins that); only the clock
                // matters here.
                let wall_1t = scaling.then(|| {
                    let seed = split_seed(root, b"e18i-trial", cell_idx << 16);
                    let start = std::time::Instant::now();
                    let _ = graph.trial(alg, d / n as f64, seed, 1);
                    start.elapsed().as_secs_f64()
                });
                eprintln!(
                    "e18 implicit: {} {} n=2^{exp} done in {secs:.1}s ({trials} trials)",
                    family.label(),
                    alg
                );

                let successes = results.iter().filter(|r| r.success).count();
                let mean = |f: &dyn Fn(&TrialResult) -> f64| {
                    results.iter().map(f).sum::<f64>() / results.len() as f64
                };
                let rounds = mean(&|r| r.rounds as f64);
                let msgs = mean(&|r| r.total_transmissions as f64);
                let max_per_node = results
                    .iter()
                    .map(|r| r.max_transmissions_per_node)
                    .max()
                    .unwrap_or(0);
                let mut row = vec![
                    family.label().to_string(),
                    alg.to_string(),
                    format!("2^{exp}"),
                    format!("{successes}/{trials}"),
                    format!("{rounds:.1}"),
                    format!("{msgs:.0}"),
                    format!("{:.3}", msgs / n as f64),
                    format!("{max_per_node}"),
                    format!("{wall:.2}"),
                ];
                if let Some(w1) = wall_1t {
                    row.push(format!("{w1:.2}"));
                    row.push(format!("{:.2}x", w1 / wall.max(1e-9)));
                }
                t.row(&row);
                // Wall-clock stays out of the JSON so the bytes remain a
                // pure function of (seed, range) — thread-count
                // independent, like the CSR sweep's artifact.
                cells_json.push(Json::obj(vec![
                    ("backend", Json::str(family.label())),
                    ("algorithm", Json::str(alg)),
                    ("n", Json::Num(n as f64)),
                    ("expected_degree", Json::Num(d)),
                    ("trials", Json::Num(trials as f64)),
                    ("successes", Json::Num(successes as f64)),
                    ("rounds_mean", Json::Num(rounds)),
                    ("transmissions_mean", Json::Num(msgs)),
                    ("msgs_per_node_mean", Json::Num(msgs / n as f64)),
                    (
                        "max_transmissions_per_node",
                        Json::Num(f64::from(max_per_node)),
                    ),
                ]));
                cell_idx += 1;
            }
        }
    }

    report.para(format!(
        "**Implicit backends (no CSR):** the same three algorithms at \
         `n = 2^{min_exp} … 2^{max_exp}` on `implicit_gnp` (O(1) graph \
         memory, rows re-sampled per query from per-row seeded streams) \
         and `implicit_grid` (O(n) positions, neighbors by torus cell \
         scan), expected degree {DEGREE_C}·ln n, {trials} trial(s)/cell, \
         {threads} fused worker(s) per run. The materializing sweep \
         above is hard-capped at n = 2²⁴ by the CSR prealloc/offset \
         budget; these rows have no stored edges at all, so the same \
         engine and the same trial code keep scaling (at an \
         O(degree)-per-query regeneration cost). Results remain \
         bit-identical across thread counts: rows are pure functions of \
         the backend value, so every worker sees the same neighbor sets."
    ));
    if scaling {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        report.para(format!(
            "The scatter shards each round's transmitters over the run's \
             workers, as on every backend: each worker generates its \
             shard's rows exactly once into its own hit set, and the \
             delivery sweep folds the workers' sets; a node's outcome \
             depends only on how many transmitters reached it, so the \
             fold reproduces the serial outcome. The \
             `wall 1t` column re-times the first trial of each cell with \
             one worker; `speedup` is `wall 1t / wall s/trial`. Recorded \
             on a {cores}-core host with {threads} worker(s) per run — \
             on a single core the sharded fan-out can only cost (spawn + \
             fold overhead, speedup ≤ 1); the ≥ 3× bar lives in \
             `BENCH_baseline.json`'s provisional multi-core profile, and \
             the `--ignored` acceptance test asks a multi-core host for a \
             wall-clock win."
        ));
    }
    report.table(&t);

    let json = Json::obj(vec![
        ("name", Json::str("e18_implicit")),
        ("seed", Json::Num(ctx.seed as f64)),
        ("min_exp", Json::Num(f64::from(min_exp))),
        ("max_exp", Json::Num(f64::from(max_exp))),
        ("cells", Json::Arr(cells_json)),
    ]);
    let path = ctx.out_dir.join("sweep_e18_implicit.json");
    match std::fs::create_dir_all(&ctx.out_dir)
        .and_then(|()| std::fs::write(&path, json.to_string_pretty()))
    {
        Ok(()) => {
            report.para(format!(
                "Machine-readable implicit-backend report: `{}` — \
                 bit-identical across engine thread counts; the CSR \
                 sweep's `sweep_e18.json` is not touched by this section.",
                path.display()
            ));
        }
        Err(e) => eprintln!("warning: cannot write e18 implicit JSON: {e}"),
    }
}

/// Largest accepted `log₂ n`: at the experiment's degree 8·ln n, a
/// `n = 2²⁵` graph already has ~4.7·10⁹ expected edges — past the CSR
/// `u32` offset budget (and tens of GB of edge list) — so runs beyond
/// 2²⁴ are guaranteed to abort after hours of generation. The guard also
/// keeps an absurd value (say 64) from shift-overflowing into a silent
/// 1-node "scaling" run.
const MAX_EXP_BOUND: usize = 24;

/// Largest accepted `log₂ n` for the **implicit** section: no CSR, so
/// the binding constraints are the O(n) per-run state (bit sets,
/// positions for the grid backend — ~1 GiB at 2²⁶) and wall-clock, not
/// edge memory.
const IMPLICIT_MAX_EXP_BOUND: usize = 26;

pub fn run(ctx: &Ctx) -> Report {
    // Range-check in usize before narrowing, so an out-of-range value
    // fails the assert instead of truncating into it.
    let min_exp = env_usize("ADHOC_RADIO_E18_MIN_EXP", 18);
    let max_exp = env_usize("ADHOC_RADIO_E18_MAX_EXP", 20);
    assert!(
        (4..=MAX_EXP_BOUND).contains(&min_exp) && (4..=MAX_EXP_BOUND).contains(&max_exp),
        "ADHOC_RADIO_E18_MIN_EXP/ADHOC_RADIO_E18_MAX_EXP must lie in 4..={MAX_EXP_BOUND} \
         (got {min_exp}/{max_exp})"
    );
    assert!(
        min_exp <= max_exp,
        "ADHOC_RADIO_E18_MIN_EXP ({min_exp}) must be ≤ ADHOC_RADIO_E18_MAX_EXP ({max_exp})"
    );
    let (min_exp, max_exp) = (min_exp as u32, max_exp as u32);
    let threads = env_usize(
        "ADHOC_RADIO_E18_THREADS",
        std::thread::available_parallelism().map_or(1, |p| p.get().min(8)),
    );
    let trace_dir = std::env::var_os("ADHOC_RADIO_TRACE").map(std::path::PathBuf::from);
    let mut report = run_scaled(ctx, min_exp, max_exp, threads.max(1), trace_dir.as_deref());

    // The implicit-backend rows. Defaults keep the whole experiment
    // regenerable in reasonable wall-clock; raise
    // ADHOC_RADIO_E18_IMPLICIT_MAX_EXP to 24–26 for the past-the-wall
    // columns, or set ADHOC_RADIO_E18_IMPLICIT=0 to skip the section.
    if env_usize("ADHOC_RADIO_E18_IMPLICIT", 1) != 0 {
        let imin = env_usize("ADHOC_RADIO_E18_IMPLICIT_MIN_EXP", 20);
        let imax = env_usize("ADHOC_RADIO_E18_IMPLICIT_MAX_EXP", 21);
        assert!(
            (4..=IMPLICIT_MAX_EXP_BOUND).contains(&imin)
                && (4..=IMPLICIT_MAX_EXP_BOUND).contains(&imax),
            "ADHOC_RADIO_E18_IMPLICIT_MIN_EXP/MAX_EXP must lie in \
             4..={IMPLICIT_MAX_EXP_BOUND} (got {imin}/{imax})"
        );
        assert!(
            imin <= imax,
            "ADHOC_RADIO_E18_IMPLICIT_MIN_EXP ({imin}) must be ≤ \
             ADHOC_RADIO_E18_IMPLICIT_MAX_EXP ({imax})"
        );
        run_implicit_section(ctx, &mut report, imin as u32, imax as u32, threads.max(1));
    }
    report
}

/// The implicit-backend section as its own experiment (`e18i`): the
/// committed scaling artifact for the transmitter-sharded scatter
/// without re-running E18's CSR sweeps (whose committed JSON must stay
/// byte-stable). Defaults are sized so `results/e18_implicit.md` +
/// `sweep_e18_implicit.json` regenerate in minutes on one core; the
/// same `ADHOC_RADIO_E18_IMPLICIT_{MIN,MAX}_EXP` /
/// `ADHOC_RADIO_E18_THREADS` knobs scale it up. With > 1 worker the
/// table carries the `wall 1t` / `speedup` pair — the committed view of
/// what the sharded path buys (or costs, on a single core).
pub fn run_implicit_only(ctx: &Ctx) -> Report {
    let imin = env_usize("ADHOC_RADIO_E18_IMPLICIT_MIN_EXP", 14);
    let imax = env_usize("ADHOC_RADIO_E18_IMPLICIT_MAX_EXP", 16);
    assert!(
        (4..=IMPLICIT_MAX_EXP_BOUND).contains(&imin)
            && (4..=IMPLICIT_MAX_EXP_BOUND).contains(&imax),
        "ADHOC_RADIO_E18_IMPLICIT_MIN_EXP/MAX_EXP must lie in \
         4..={IMPLICIT_MAX_EXP_BOUND} (got {imin}/{imax})"
    );
    assert!(
        imin <= imax,
        "ADHOC_RADIO_E18_IMPLICIT_MIN_EXP ({imin}) must be ≤ \
         ADHOC_RADIO_E18_IMPLICIT_MAX_EXP ({imax})"
    );
    let threads = env_usize(
        "ADHOC_RADIO_E18_THREADS",
        std::thread::available_parallelism().map_or(1, |p| p.get().min(8)),
    );
    let mut report = Report::new(
        "e18_implicit",
        "E18i — implicit backends: transmitter-sharded scatter scaling",
    );
    run_implicit_section(ctx, &mut report, imin as u32, imax as u32, threads.max(1));
    report
}
