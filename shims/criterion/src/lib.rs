//! Offline stand-in for the `criterion` benchmark harness.
//!
//! Exposes the API surface the workspace's benches use — `Criterion`,
//! `benchmark_group`, `sample_size`, `throughput`, `bench_function`,
//! `bench_with_input`, `Bencher::iter`, `BenchmarkId`, `Throughput`, and
//! the `criterion_group!` / `criterion_main!` macros — so `cargo bench`
//! compiles and runs against this shim unchanged.
//!
//! Measurement is deliberately simple: per benchmark, a timed warm-up
//! phase followed by `sample_size` timed batches, reporting min/mean of
//! the per-iteration wall time (and throughput when declared). No outlier
//! rejection, no HTML reports — swap in the real crate for those; every
//! call site stays identical.
//!
//! Two extensions back the CI perf gate:
//!
//! * **Harness flags**: `--warm-up-time <secs>` and
//!   `--measurement-time <secs>` are parsed from the bench binary's
//!   arguments (the same spelling the real criterion accepts), so
//!   `cargo bench -- --warm-up-time 0.5 --measurement-time 1` gives a
//!   quick mode. Unknown flags are ignored, as before.
//! * **Machine-readable output**: `--save-json <path>` (or the
//!   `BENCH_JSON` environment variable) makes `criterion_main!` write
//!   every result as a JSON document — the format `bench_compare` in
//!   `crates/bench` diffs against a committed baseline.
//! * **Filter**: under `cargo bench` (which passes `--bench`), a
//!   positional argument (`cargo bench --bench generators --
//!   gen_gnp_directed`) runs only the benchmarks whose `group/id`
//!   contains it. The real harness takes a regex; a plain group name
//!   selects the same benchmarks in both. Flags the shim does not know
//!   are skipped alone, so their values would read as a filter.

use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Declared work per iteration, used for throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Iteration processes this many logical elements.
    Elements(u64),
    /// Iteration processes this many bytes.
    Bytes(u64),
}

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Just the parameter, e.g. `BenchmarkId::from_parameter(1024)`.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// One finished measurement, as recorded for JSON output.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Group name (or `"bench"` for ungrouped functions).
    pub group: String,
    /// Benchmark id within the group.
    pub id: String,
    /// Mean seconds per iteration.
    pub mean_s: f64,
    /// Minimum seconds per iteration.
    pub min_s: f64,
    /// Timed batches.
    pub samples: usize,
    /// Iterations per batch.
    pub iters_per_sample: u64,
}

static RESULTS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

/// Timing configuration, shared by every group of a `Criterion`.
#[derive(Debug, Clone, Copy)]
struct Timing {
    warm_up: Duration,
    measurement: Duration,
}

impl Default for Timing {
    fn default() -> Self {
        Timing {
            warm_up: Duration::from_millis(200),
            measurement: Duration::from_secs(1),
        }
    }
}

/// Top-level harness state.
#[derive(Debug)]
pub struct Criterion {
    timing: Timing,
    save_json: Option<String>,
    /// Only benchmarks whose `group/id` contains this run.
    filter: Option<String>,
}

impl Default for Criterion {
    /// Reads harness flags from the process arguments (`--warm-up-time`,
    /// `--measurement-time`, `--save-json`, and a positional filter when
    /// `--bench` is present) and `BENCH_JSON` from the environment;
    /// everything else keeps the built-in quick defaults.
    fn default() -> Self {
        let mut timing = Timing::default();
        let mut save_json = std::env::var("BENCH_JSON").ok().filter(|s| !s.is_empty());
        let mut filter = None;
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            let value = args.get(i + 1);
            match (args[i].as_str(), value) {
                ("--warm-up-time", Some(v)) => {
                    if let Ok(secs) = v.parse::<f64>() {
                        timing.warm_up = Duration::from_secs_f64(secs.max(0.0));
                    }
                    i += 1;
                }
                ("--measurement-time", Some(v)) => {
                    if let Ok(secs) = v.parse::<f64>() {
                        timing.measurement = Duration::from_secs_f64(secs.max(1e-3));
                    }
                    i += 1;
                }
                ("--save-json", Some(v)) => {
                    save_json = Some(v.clone());
                    i += 1;
                }
                (arg, _) if !arg.starts_with('-') => filter = Some(arg.to_owned()),
                _ => {}
            }
            i += 1;
        }
        // Without `--bench` this is a test harness run, whose positional
        // arguments are test-name filters.
        let filter = filter.filter(|_| args.iter().any(|a| a == "--bench"));
        Criterion {
            timing,
            save_json,
            filter,
        }
    }
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let timing = self.timing;
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 20,
            throughput: None,
            timing,
        }
    }

    /// Benchmark a closure outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        if self.selects("bench", &id.id) {
            let mut bencher = Bencher::new(20, self.timing);
            f(&mut bencher);
            bencher.report("bench", &id.id, None);
        }
        self
    }

    /// Where JSON results should be written, if requested.
    pub fn json_path(&self) -> Option<&str> {
        self.save_json.as_deref()
    }

    /// Whether the filter (if any) selects `group/id`.
    fn selects(&self, group: &str, id: &str) -> bool {
        self.filter
            .as_deref()
            .is_none_or(|f| format!("{group}/{id}").contains(f))
    }
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    timing: Timing,
}

impl BenchmarkGroup<'_> {
    /// Number of timed batches per benchmark (min 1 enforced).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declare per-iteration work for throughput reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Benchmark a closure.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        if self.criterion.selects(&self.name, &id.id) {
            let mut bencher = Bencher::new(self.sample_size, self.timing);
            f(&mut bencher);
            bencher.report(&self.name, &id.id, self.throughput);
        }
        self
    }

    /// Benchmark a closure against a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        if self.criterion.selects(&self.name, &id.id) {
            let mut bencher = Bencher::new(self.sample_size, self.timing);
            f(&mut bencher, input);
            bencher.report(&self.name, &id.id, self.throughput);
        }
        self
    }

    /// Close the group. (Reports are printed as benches run.)
    pub fn finish(self) {}
}

/// Timing driver handed to each benchmark closure.
pub struct Bencher {
    sample_size: usize,
    timing: Timing,
    samples: Vec<Duration>,
    iters_per_sample: u64,
}

impl Bencher {
    fn new(sample_size: usize, timing: Timing) -> Self {
        Bencher {
            sample_size,
            timing,
            samples: Vec::new(),
            iters_per_sample: 1,
        }
    }

    /// Run the routine repeatedly and record per-batch wall time.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        // Warm-up: run for at least `warm_up` (and at least once),
        // tracking the fastest observed iteration as the calibration
        // estimate.
        let warm_start = Instant::now();
        let mut once = Duration::MAX;
        loop {
            let t = Instant::now();
            black_box(routine());
            once = once.min(t.elapsed().max(Duration::from_nanos(1)));
            if warm_start.elapsed() >= self.timing.warm_up {
                break;
            }
        }
        // Spread `measurement` across the samples; batch up enough
        // iterations that cheap routines aren't dominated by timer
        // resolution (≥ ~1 ms per batch).
        let per_batch = (self.timing.measurement / self.sample_size.max(1) as u32)
            .max(Duration::from_millis(1));
        let iters = (per_batch.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        self.iters_per_sample = iters;

        self.samples.clear();
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            self.samples.push(t.elapsed());
        }
    }

    fn report(&self, group: &str, id: &str, throughput: Option<Throughput>) {
        if self.samples.is_empty() {
            println!("{group}/{id}: no samples (Bencher::iter never called)");
            return;
        }
        let per_iter = |d: &Duration| d.as_secs_f64() / self.iters_per_sample as f64;
        let min = self
            .samples
            .iter()
            .map(per_iter)
            .fold(f64::INFINITY, f64::min);
        let mean = self.samples.iter().map(per_iter).sum::<f64>() / self.samples.len() as f64;
        let tp = match throughput {
            Some(Throughput::Elements(n)) => {
                format!("  {:.3} Melem/s", n as f64 / mean / 1e6)
            }
            Some(Throughput::Bytes(n)) => {
                format!("  {:.3} MiB/s", n as f64 / mean / (1024.0 * 1024.0))
            }
            None => String::new(),
        };
        println!(
            "{group}/{id}: mean {}  min {}  ({} samples x {} iters){tp}",
            fmt_time(mean),
            fmt_time(min),
            self.samples.len(),
            self.iters_per_sample,
        );
        RESULTS.lock().expect("results poisoned").push(BenchRecord {
            group: group.to_owned(),
            id: id.to_owned(),
            mean_s: mean,
            min_s: min,
            samples: self.samples.len(),
            iters_per_sample: self.iters_per_sample,
        });
    }
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Serialize every recorded result. Stable field order, one bench per
/// entry, floats via shortest-roundtrip `Display`.
///
/// The top-level `host_threads` field records the machine parallelism
/// the benches ran with: thread-scaling benches (`engine_par/8t`,
/// `engine_fused/8t`, …) measure *speedup* on a multi-core host but
/// *partition overhead* on a single-core one, so a comparison across
/// differing core counts is meaningless — `bench_compare` uses this
/// field to warn instead of gate in that case.
pub fn results_to_json() -> String {
    let results = RESULTS.lock().expect("results poisoned");
    let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut out = format!("{{\n  \"host_threads\": {host_threads},\n  \"benches\": [");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"group\": \"{}\", \"id\": \"{}\", \"mean_s\": {}, \"min_s\": {}, \
             \"samples\": {}, \"iters_per_sample\": {}}}",
            json_escape(&r.group),
            json_escape(&r.id),
            r.mean_s,
            r.min_s,
            r.samples,
            r.iters_per_sample
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Called by `criterion_main!` after all groups ran: write the JSON
/// results if `--save-json`/`BENCH_JSON` asked for them.
pub fn finalize() {
    let path = Criterion::default().save_json.filter(|p| !p.is_empty());
    if let Some(path) = path {
        let json = results_to_json();
        match std::fs::write(&path, &json) {
            Ok(()) => eprintln!("bench results written to {path}"),
            Err(e) => {
                eprintln!("error: cannot write bench JSON to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Bundle benchmark functions into a runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit `main` running the given group functions.
///
/// Accepts standard harness flags (`--warm-up-time`, `--measurement-time`,
/// `--save-json`, a positional filter; anything unknown is ignored) so
/// `cargo bench` invocations pass through cleanly, then writes JSON
/// results when requested.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::finalize();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim_selftest");
        group.sample_size(3);
        group.throughput(Throughput::Elements(64));
        group.bench_with_input(BenchmarkId::from_parameter(64), &64u64, |b, &n| {
            b.iter(|| (0..n).map(black_box).sum::<u64>())
        });
        group.bench_function("str_id", |b| b.iter(|| black_box(1 + 1)));
        group.bench_function(BenchmarkId::new("named", 7), |b| {
            b.iter(|| black_box(2 + 2))
        });
        group.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn group_macro_timing_and_json_registry_run() {
        benches();
        let json = results_to_json();
        assert!(json.contains("\"group\": \"shim_selftest\""));
        assert!(json.contains("\"id\": \"named/7\""));
        assert!(json.contains("\"mean_s\": "));
    }

    #[test]
    fn filter_runs_only_matching_benches() {
        let mut c = Criterion {
            timing: Timing {
                warm_up: Duration::ZERO,
                measurement: Duration::from_millis(1),
            },
            save_json: None,
            filter: Some("filter_probe/kept".into()),
        };
        let mut group = c.benchmark_group("filter_probe");
        group.sample_size(1);
        group.bench_function("kept", |b| b.iter(|| black_box(1)));
        group.bench_function("dropped", |b| b.iter(|| black_box(2)));
        group.finish();
        let json = results_to_json();
        assert!(json.contains("\"id\": \"kept\""));
        assert!(!json.contains("\"id\": \"dropped\""));
    }

    #[test]
    fn id_formats() {
        assert_eq!(BenchmarkId::new("a", 3).id, "a/3");
        assert_eq!(BenchmarkId::from_parameter(1024).id, "1024");
        assert_eq!(BenchmarkId::from("x").id, "x");
    }

    #[test]
    fn time_formatting_scales() {
        assert!(fmt_time(2.0).ends_with(" s"));
        assert!(fmt_time(2e-3).ends_with(" ms"));
        assert!(fmt_time(2e-6).ends_with(" µs"));
        assert!(fmt_time(2e-9).ends_with(" ns"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    }
}
