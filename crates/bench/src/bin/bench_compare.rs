//! CI perf gate: diff `BENCH_*.json` files from the criterion harness
//! against a baseline and fail on regression.
//!
//! ```sh
//! cargo run -p radio-bench --bin bench_compare -- \
//!     BENCH_baseline.json BENCH_pr.json BENCH_gen.json --max-regress 0.30
//! ```
//!
//! The first file is the baseline; the rest are one run's results from
//! several bench binaries, compared as one set (their `host_threads`
//! must agree). Compares `mean_s` for every `(group, id)` key
//! (optionally filtered to groups whose name starts with `--only`'s
//! prefix). The gating rules live — unit-tested — in
//! [`radio_bench::bench_diff`]; in short:
//!
//! * a shared bench whose mean exceeds `baseline · (1 + max_regress)`
//!   **fails**;
//! * a baseline bench missing from the current run **fails** — a
//!   deleted or renamed bench silently un-gates the path it guarded, so
//!   removals must ship with a baseline refresh in the same commit;
//! * a shared bench that *improved* past the same fraction **warns**
//!   (suspicious: benches that stop measuring the hot path look like
//!   wins) but does not fail;
//! * new benches are reported and start gating at the next refresh.
//!
//! **Thread-scaling entries** — ids of the form `<k>t/...` with `k > 1`
//! (`engine_par/8t/10000`, `engine_fused/8t/10000`) — are only *gated*
//! when both files report the same `host_threads`: on a multi-core host
//! they measure the fan-out's speedup, on a single-core host its
//! partition overhead, and a ratio across the two is noise (the PR-4
//! baseline made `8t` look 7.5× "slower" purely because the baseline
//! runner had one core). On a mismatch they are printed with a warning
//! and excluded from the verdict; single-thread entries always gate.
//!
//! **Multi-profile baselines** close that hole from the other side: the
//! baseline file may carry a `"profiles": [...]` array, each entry a
//! full `{host_threads, benches, provisional?}` baseline recorded on
//! (or projected for) one host class. The profile matching the current
//! run's `host_threads` is gated against; no match falls back to the
//! top level. A profile marked `"provisional": true` holds expectations
//! rather than blessed measurements — failures against it *warn* until
//! the profile is refreshed on matching hardware.
//!
//! **Trace overhead** is gated within the current run alone: when both
//! `engine_trace/on` and `engine_trace/off` are present, `on` must stay
//! within 1.05× `off` — the recording hook's ≤5% cost contract. The
//! ratio shares every noise source, so it gates on any host.

use radio_bench::bench_diff::{
    diff, passes, select_profile, trace_overhead, BaselineProfile, DiffConfig, Entry, Verdict,
};
use radio_util::Json;
use std::process::ExitCode;

struct BenchFile {
    /// The file's top level, as a profile (never provisional).
    top: BaselineProfile,
    /// Optional `"profiles"` array: per-host-class baselines (see
    /// [`BaselineProfile`]); selected by matching `host_threads`.
    profiles: Vec<BaselineProfile>,
}

fn parse_entries(path: &str, json: &Json) -> Result<Vec<Entry>, String> {
    let benches = json
        .get("benches")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: missing \"benches\" array"))?;
    benches
        .iter()
        .map(|b| {
            let group = b
                .get("group")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: bench without group"))?;
            let id = b
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: bench without id"))?;
            let mean_s = b
                .get("mean_s")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}: bench without mean_s"))?;
            Ok(Entry {
                key: format!("{group}/{id}"),
                mean_s,
            })
        })
        .collect()
}

fn host_threads_of(json: &Json) -> Option<u64> {
    json.get("host_threads")
        .and_then(Json::as_f64)
        .map(|x| x as u64)
}

fn load(path: &str) -> Result<BenchFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let top = BaselineProfile {
        host_threads: host_threads_of(&json),
        provisional: false,
        entries: parse_entries(path, &json)?,
    };
    let profiles = match json.get("profiles").and_then(Json::as_arr) {
        None => Vec::new(),
        Some(arr) => arr
            .iter()
            .map(|p| {
                Ok(BaselineProfile {
                    host_threads: host_threads_of(p),
                    provisional: p
                        .get("provisional")
                        .and_then(Json::as_bool)
                        .unwrap_or(false),
                    entries: parse_entries(path, p)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
    };
    Ok(BenchFile { top, profiles })
}

fn fmt_ms(secs: Option<f64>) -> String {
    match secs {
        Some(s) => format!("{:.3} ms", s * 1e3),
        None => "—".to_string(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<String> = Vec::new();
    let mut max_regress = 0.30f64;
    let mut only: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-regress" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => max_regress = v,
                None => return die("--max-regress needs a number"),
            },
            "--only" => match it.next() {
                Some(v) => only = Some(v),
                None => return die("--only needs a group prefix"),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => paths.push(other.to_string()),
        }
    }
    if paths.len() < 2 {
        usage();
        return die("expected a baseline and at least one current JSON file");
    }
    let baseline = match load(&paths[0]) {
        Ok(b) => b,
        Err(e) => return die(&e),
    };
    let mut current_threads = None;
    let mut current_entries = Vec::new();
    for (k, path) in paths[1..].iter().enumerate() {
        let file = match load(path) {
            Ok(c) => c.top,
            Err(e) => return die(&e),
        };
        if k > 0 && file.host_threads != current_threads {
            return die(&format!("{path}: host_threads differ from {}", paths[1]));
        }
        current_threads = file.host_threads;
        current_entries.extend(file.entries);
    }

    // A multi-profile baseline carries per-host-class numbers; gate
    // against the profile recorded on hardware like ours, else the top
    // level.
    let had_profiles = !baseline.profiles.is_empty();
    let baseline = select_profile(baseline.top, baseline.profiles, current_threads);
    if had_profiles {
        println!(
            "baseline profile: host_threads {} ({})",
            baseline
                .host_threads
                .map_or_else(|| "unrecorded".into(), |t| t.to_string()),
            if baseline.provisional {
                "PROVISIONAL — failures warn until refreshed on matching hardware"
            } else {
                "measured"
            },
        );
    }

    // Thread-scaling entries are only comparable between equal-core
    // hosts (see module docs).
    let cores_match = match (baseline.host_threads, current_threads) {
        (Some(b), Some(c)) => b == c,
        _ => false,
    };
    if !cores_match {
        eprintln!(
            "warning: host_threads differ (baseline: {}, current: {}) — \
             thread-scaling benches (<k>t ids, k > 1) are reported but NOT gated; \
             refresh BENCH_baseline.json from a matching host to re-arm them",
            baseline
                .host_threads
                .map_or_else(|| "unrecorded".into(), |t| t.to_string()),
            current_threads.map_or_else(|| "unrecorded".into(), |t| t.to_string()),
        );
    }

    let keep = |e: &Entry| {
        only.as_deref()
            .is_none_or(|prefix| e.key.starts_with(prefix))
    };
    let baseline_kept: Vec<Entry> = baseline.entries.into_iter().filter(keep).collect();
    let current_kept: Vec<Entry> = current_entries.into_iter().filter(keep).collect();
    let cfg = DiffConfig {
        max_regress,
        warn_improve: max_regress,
        cores_match,
    };
    let findings = diff(&baseline_kept, &current_kept, &cfg);

    println!(
        "{:<32} {:>12} {:>12} {:>8}  verdict (gate: ±{:.0}%)",
        "bench",
        "baseline",
        "current",
        "ratio",
        max_regress * 100.0
    );
    let mut compared = 0usize;
    let mut failures = 0usize;
    for f in &findings {
        let ratio = f.ratio().map_or_else(String::new, |r| format!("{r:.2}x"));
        let verdict = match f.verdict {
            Verdict::Ok => {
                compared += 1;
                "ok".to_string()
            }
            Verdict::Regressed => {
                compared += 1;
                failures += 1;
                "REGRESSED".to_string()
            }
            Verdict::Suspicious => {
                compared += 1;
                format!(
                    "suspicious: improved >{:.0}% — verify the bench still \
                     measures the hot path, then refresh the baseline",
                    max_regress * 100.0
                )
            }
            Verdict::Vanished => {
                failures += 1;
                "VANISHED from current run — removed/renamed benches must ship \
                 with a baseline refresh"
                    .to_string()
            }
            Verdict::New => "new bench (not gated)".to_string(),
            Verdict::NotGated => "host_threads mismatch (not gated)".to_string(),
        };
        println!(
            "{:<32} {:>12} {:>12} {:>8}  {}",
            f.key,
            fmt_ms(f.baseline_s),
            fmt_ms(f.current_s),
            ratio,
            verdict,
        );
    }

    if compared == 0 {
        return die("no comparable benches between the two files");
    }

    // The trace hook's within-run cost contract: `engine_trace/on` vs
    // `engine_trace/off` in the *current* file. Relative, so it holds
    // on any host; skipped when `--only` filters the group out.
    const MAX_TRACE_OVERHEAD: f64 = 0.05;
    let mut trace_failed = false;
    if let Some((on, off, ratio)) = trace_overhead(&current_kept, "engine_trace") {
        let ok = ratio <= 1.0 + MAX_TRACE_OVERHEAD;
        println!(
            "trace overhead: on {} / off {} = {ratio:.3}x (budget {:.2}x) — {}",
            fmt_ms(Some(on)),
            fmt_ms(Some(off)),
            1.0 + MAX_TRACE_OVERHEAD,
            if ok { "ok" } else { "OVER BUDGET" },
        );
        trace_failed = !ok;
    }

    if !passes(&findings) || trace_failed {
        if baseline.provisional && !trace_failed {
            eprintln!(
                "warning: {failures} bench(es) outside the provisional profile's \
                 budget — not fatal; refresh this profile on matching hardware \
                 to arm the gate"
            );
            return ExitCode::SUCCESS;
        }
        eprintln!(
            "error: gate failed ({failures} bench(es) regressed more than \
             {:.0}% or vanished{})",
            max_regress * 100.0,
            if trace_failed {
                "; engine_trace/on exceeded its overhead budget"
            } else {
                ""
            }
        );
        return ExitCode::FAILURE;
    }
    println!("all {compared} compared bench(es) within the regression budget");
    ExitCode::SUCCESS
}

fn usage() {
    eprintln!(
        "usage: bench_compare <baseline.json> <current.json>... [--max-regress FRAC] [--only GROUP_PREFIX]\n\
         Compares criterion-shim JSON results (several current files are merged as\n\
         one run); exits 1 when a shared bench's mean regresses beyond the budget\n\
         (default 0.30 = +30%) or a baseline bench is missing from the current run.\n\
         Improvements beyond the same fraction warn (the bench may have stopped\n\
         measuring the hot path)."
    );
}

fn die(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}
