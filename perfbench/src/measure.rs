//! Shared measurement plumbing: run options, the timed iteration loop,
//! output checks, run outcomes, and the metric lines the binary prints.

use radio_sim::{Metrics, RunResult};
use radio_util::Json;
use std::time::Instant;

/// Command-line options shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Seconds to keep starting new iterations for.
    pub seconds: f64,
    /// Engine worker threads per run.
    pub threads: usize,
}

/// One timed iteration of a workload: set-up, then a fixed batch of
/// tasks.
#[derive(Debug, Clone, Default)]
pub(crate) struct Iteration {
    /// Set-up seconds (graph/topology build, or campaign parse + fresh).
    pub setup_s: f64,
    /// Seconds for the whole iteration, set-up included.
    pub wall_s: f64,
    /// Seconds per task (one trial, or one campaign step).
    pub task_s: Vec<f64>,
    /// CPU seconds of the set-up.
    pub setup_cpu_s: f64,
    /// CPU seconds of the whole iteration.
    pub cpu_s: f64,
    /// CPU seconds per task.
    pub task_cpu_s: Vec<f64>,
    /// Engine trials completed.
    pub trials: u64,
    /// Peak resident memory of the process at the end of the iteration.
    pub peak_rss_mb: f64,
}

/// Run `iteration(k)` for `k = 0, 1, …` until `seconds` have passed
/// (at least once).
pub(crate) fn repeat<F>(seconds: f64, mut iteration: F) -> Result<Vec<Iteration>, String>
where
    F: FnMut(usize) -> Result<Iteration, String>,
{
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut it = iteration(out.len())?;
        it.peak_rss_mb = peak_rss_mb()?;
        eprintln!(
            "iteration {}: peak {:.1} MiB, setup {:.4} s ({:.4} cpu), wall {:.4} s ({:.4} cpu), tasks {:?} cpu {:?}",
            out.len(),
            it.peak_rss_mb,
            it.setup_s,
            it.setup_cpu_s,
            it.wall_s,
            it.cpu_s,
            it.task_s,
            it.task_cpu_s
        );
        out.push(it);
    }
    Ok(out)
}

/// Seconds since `t`.
pub(crate) fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// CPU seconds this process has used so far, summed over all its
/// threads, ended ones included (`CLOCK_PROCESS_CPUTIME_ID`). Time the
/// process spends runnable but not running — waiting for a core, or
/// for a hypervisor that lent its virtual CPU elsewhere — is not
/// counted.
pub(crate) fn cpu_now() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// A start point on both clocks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    /// Start now.
    pub(crate) fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_now(),
        }
    }

    /// `(wall seconds, CPU seconds)` since the start.
    pub(crate) fn read(&self) -> (f64, f64) {
        (secs(self.wall), cpu_now() - self.cpu)
    }
}

/// Median of a non-empty sample.
pub(crate) fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Output checks, counted per task: a task fails when any of its checks
/// fails.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checks {
    /// Tasks checked.
    pub attempted: u64,
    /// Tasks with a failed check.
    pub failed: u64,
}

impl Checks {
    /// Record one task; `problem` names the failed check, if any.
    pub fn task(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            eprintln!("check failed: {p}");
        }
    }
}

/// What a broadcast run produced: the fields the output checks compare.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Rounds executed.
    pub rounds: u64,
    /// The run hit its round cap.
    pub hit_round_cap: bool,
    /// Per-node transmission counts.
    pub metrics: Metrics,
    /// Nodes informed at the end.
    pub informed: usize,
}

impl Outcome {
    /// From an engine result and the protocol's informed count.
    pub fn new(run: RunResult, informed: usize) -> Self {
        Outcome {
            rounds: run.rounds,
            hit_round_cap: run.hit_round_cap,
            metrics: run.metrics,
            informed,
        }
    }

    /// FNV-1a over `(rounds, total transmissions, max per node,
    /// informed)` — the fingerprint the golden table stores.
    pub fn hash(&self) -> u64 {
        let words = [
            self.rounds,
            self.metrics.total_transmissions(),
            u64::from(self.metrics.max_transmissions_per_node()),
            self.informed as u64,
        ];
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in words.iter().flat_map(|w| w.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub(crate) fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The metrics of an untraced run.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// The end-to-end metrics, in CPU seconds where they are times.
    pub gated: Vec<Metric>,
    /// The same figures in wall-clock seconds, printed for reading only.
    pub wall: Vec<Metric>,
}

/// The typical task: for each task slot of an iteration (the same work
/// in every iteration, up to its trial seed), the median over
/// iterations; then the mean over slots. A plain median over all tasks
/// would jump between slots whose costs differ several-fold (Decay's
/// three backends, the campaign's cells).
fn typical_task(iters: &[Iteration], task: impl Fn(&Iteration) -> &[f64]) -> f64 {
    let slots = task(&iters[0]).len();
    let per_slot: Vec<f64> = (0..slots)
        .map(|j| median(&iters.iter().map(|i| task(i)[j]).collect::<Vec<_>>()))
        .collect();
    per_slot.iter().sum::<f64>() / slots as f64
}

/// The end-to-end metrics of an untraced run. The gated figures are CPU
/// seconds (see [`cpu_now`]): on a shared host, wall time also counts
/// the time the process waits for a core, which spreads runs of the same
/// code far more than the code's own cost does. Wall-clock figures are
/// returned separately, for reading only. Peak memory is read after the
/// last iteration: after the first, it depends on which trials that one
/// iteration drew and on where the engine's per-round worker threads
/// left their allocator arenas, and it levels off within a few
/// iterations.
pub(crate) fn end_to_end(iters: &[Iteration], checks: &Checks) -> EndToEnd {
    let med = |f: fn(&Iteration) -> f64| median(&iters.iter().map(f).collect::<Vec<_>>());
    let failed_frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    let gated = vec![
        Metric::new("iter_cpu_s", med(|i| i.cpu_s), "s"),
        Metric::new("setup_s", med(|i| i.setup_cpu_s), "s"),
        Metric::new("task_cpu_s", typical_task(iters, |i| &i.task_cpu_s), "s"),
        Metric::new(
            "trials_per_cpu_s",
            med(|i| i.trials as f64 / (i.cpu_s - i.setup_cpu_s)),
            "1/s",
        ),
        Metric::new("peak_rss_mb", iters[iters.len() - 1].peak_rss_mb, "MiB"),
        Metric::new("checks_ok_frac", 1.0 - failed_frac, "frac"),
    ];
    let wall = vec![
        Metric::new("wall_s", med(|i| i.wall_s), "s"),
        Metric::new("setup_wall_s", med(|i| i.setup_s), "s"),
        Metric::new("task_wall_s", typical_task(iters, |i| &i.task_s), "s"),
        Metric::new(
            "trials_per_s",
            med(|i| i.trials as f64 / (i.wall_s - i.setup_s)),
            "1/s",
        ),
    ];
    EndToEnd { gated, wall }
}

/// Print every metric as a readable line, then the readable-only
/// `extra` figures, then the one-line JSON result of `metrics` (always
/// the last line of standard output).
pub fn print_result(checks: &Checks, metrics: &[Metric], extra: &[Metric]) {
    for m in metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in extra {
        println!(
            "{:<28} {:>16.6} {}  (not in the result)",
            m.name, m.value, m.unit
        );
    }
    let failed_frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!(
        "{:<28} {:>16.6} frac  ({} of {} tasks failed a check)",
        "failed_frac", failed_frac, checks.failed, checks.attempted
    );
    let metrics = Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    );
    let line = Json::obj(vec![
        ("correct", Json::Bool(checks.failed == 0)),
        ("attempted", Json::Num(checks.attempted as f64)),
        ("failed", Json::Num(checks.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.to_string_compact());
}
