//! The host stamp printed with every result: a number is only meaningful
//! next to the machine, compiler and commit that produced it.

use radio_util::Json;
use std::process::Command;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// First line of a command's standard output, if it ran and succeeded.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The stamp as one JSON object.
pub fn stamp(workload: &str, seed: u64, threads: usize, traced: bool) -> Json {
    let unknown = || "unknown".to_string();
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("traced", Json::Bool(traced)),
        ("nproc", Json::Num(nproc() as f64)),
        ("threads", Json::Num(threads as f64)),
        ("cpu_model", Json::str(cpu_model().unwrap_or_else(unknown))),
        (
            "rustc",
            Json::str(first_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "git_commit",
            Json::str(first_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
    ])
}
