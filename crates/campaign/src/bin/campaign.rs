//! `campaign` — validate, run, resume, and inspect scenario campaigns.
//!
//! ```sh
//! campaign validate <spec.scenario.json>
//! campaign run      <spec.scenario.json> <ckpt-dir> [report-dir]
//! campaign resume   <spec.scenario.json> <ckpt-dir> [report-dir]
//! campaign status   <spec.scenario.json> <ckpt-dir>
//! ```
//!
//! `run` starts fresh (refusing a directory that already holds a
//! manifest); `resume` continues one (refusing a spec-hash or
//! code-version mismatch). Both write the aggregated report when a
//! report path is given and the campaign completes.

use radio_campaign::{Campaign, Scenario};
use std::process::ExitCode;

fn usage() {
    eprintln!(
        "usage:\n  campaign validate <spec.scenario.json>\n  \
         campaign run      <spec.scenario.json> <ckpt-dir> [report-dir]\n  \
         campaign resume   <spec.scenario.json> <ckpt-dir> [report-dir]\n  \
         campaign status   <spec.scenario.json> <ckpt-dir>"
    );
}

fn die(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

fn load_spec(path: &str) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Scenario::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_validate(spec_path: &str) -> ExitCode {
    let scenario = match load_spec(spec_path) {
        Ok(s) => s,
        Err(e) => return die(&e),
    };
    println!("ok: {spec_path}");
    println!("scenario:  {}", scenario.name);
    println!("spec hash: {}", scenario.spec_hash_string());
    println!(
        "sweep:     base_seed={} trials={} backend={}",
        scenario.sweep.base_seed,
        scenario.sweep.trials,
        scenario.sweep.backend.label()
    );
    println!("cells:     {}", scenario.cells.len());
    for c in &scenario.cells {
        println!("  {} {} n={} p={}", c.label, c.family.label(), c.n, c.p);
    }
    println!("protocols: {}", scenario.protocols.len());
    for (label, proto) in &scenario.protocols {
        println!("  {label} -> {}", proto.kind());
    }
    match &scenario.trace {
        Some(t) => println!("trace:     dir={} per_cell_cap={}", t.dir, t.per_cell_cap),
        None => println!("trace:     none"),
    }
    ExitCode::SUCCESS
}

fn drive(mut campaign: Campaign, report: Option<&str>) -> ExitCode {
    loop {
        match campaign.step() {
            Ok(Some(idx)) => {
                let done = campaign.manifest().completed.len();
                let total = campaign.compiled().sweep().cells().len();
                eprintln!("cell {idx} done ({done}/{total})");
            }
            Ok(None) => break,
            Err(e) => return die(&e),
        }
    }
    if let Some(dir) = report {
        match campaign.write_report(dir) {
            Ok(path) => eprintln!("report written to {}", path.display()),
            Err(e) => return die(&e),
        }
    }
    eprintln!("campaign complete");
    ExitCode::SUCCESS
}

fn cmd_run(spec_path: &str, dir: &str, report: Option<&str>) -> ExitCode {
    let scenario = match load_spec(spec_path) {
        Ok(s) => s,
        Err(e) => return die(&e),
    };
    match Campaign::fresh(scenario, dir) {
        Ok(c) => drive(c, report),
        Err(e) => die(&e),
    }
}

fn cmd_resume(spec_path: &str, dir: &str, report: Option<&str>) -> ExitCode {
    let scenario = match load_spec(spec_path) {
        Ok(s) => s,
        Err(e) => return die(&e),
    };
    match Campaign::resume(scenario, dir) {
        Ok(c) => drive(c, report),
        Err(e) => die(&e),
    }
}

fn cmd_status(spec_path: &str, dir: &str) -> ExitCode {
    let scenario = match load_spec(spec_path) {
        Ok(s) => s,
        Err(e) => return die(&e),
    };
    // Status must work on a mismatched checkpoint too — that is when
    // you most need to see what's in the directory.
    match Campaign::resume(scenario, dir) {
        Ok(c) => {
            print!("{}", c.status());
            ExitCode::SUCCESS
        }
        Err(e) => match radio_campaign::runner::peek_manifest(std::path::Path::new(dir)) {
            Ok(Some(m)) => {
                eprintln!("warning: {e}");
                println!("manifest in {dir}:");
                println!("  scenario:     {}", m.scenario);
                println!("  spec hash:    {}", m.spec_hash);
                println!("  code version: {}", m.code_version);
                println!(
                    "  progress:     {}/{} cells",
                    m.completed.len(),
                    m.total_cells
                );
                ExitCode::FAILURE
            }
            Ok(None) => die(&format!("{dir} holds no campaign manifest")),
            Err(m_err) => die(&m_err),
        },
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match strs.as_slice() {
        ["validate", spec] => cmd_validate(spec),
        ["run", spec, dir] => cmd_run(spec, dir, None),
        ["run", spec, dir, report] => cmd_run(spec, dir, Some(report)),
        ["resume", spec, dir] => cmd_resume(spec, dir, None),
        ["resume", spec, dir, report] => cmd_resume(spec, dir, Some(report)),
        ["status", spec, dir] => cmd_status(spec, dir),
        _ => {
            usage();
            ExitCode::FAILURE
        }
    }
}
