//! Smoke test: every example must run to completion.
//!
//! `cargo test` always *compiles* the examples but never runs them, so a
//! demo can silently rot (panic on startup, hit a moved API's changed
//! semantics, trip one of its own asserts) while the suite stays green.
//! This test executes all eight example binaries with a fixed seed (each
//! example hard-codes its own) and `ADHOC_RADIO_EXAMPLE_SCALE=8`, which
//! shrinks their network sizes via [`adhoc_radio::example_scale`] so the
//! debug-build runs stay fast.
//!
//! The binaries are located relative to this test executable
//! (`target/<profile>/examples/`); there is no nested cargo invocation.
//! An unfiltered `cargo test` builds them first, but a filtered one
//! (`--test '*'`, `--test examples_smoke`) does not — run
//! `cargo build --workspace --examples` before it.

use std::path::PathBuf;
use std::process::Command;

const EXAMPLES: [&str; 8] = [
    "quickstart",
    "sensor_gossip",
    "emergency_broadcast",
    "energy_tradeoff",
    "battery_lifetime",
    "collision_storm",
    "lower_bound_demo",
    "trace_replay",
];

/// `target/<profile>/examples`, derived from this test binary's own path
/// (`target/<profile>/deps/examples_smoke-<hash>`).
fn examples_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("test binary path");
    let deps = exe.parent().expect("deps dir");
    let profile = deps.parent().expect("profile dir");
    profile.join("examples")
}

#[test]
fn all_examples_run_to_completion() {
    let dir = examples_dir();
    // The examples are independent processes; run them concurrently.
    let failures: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = EXAMPLES
            .iter()
            .map(|&name| {
                let bin = dir.join(name);
                scope.spawn(move || {
                    assert!(
                        bin.exists(),
                        "example binary {} not found — run via an unfiltered \
                         `cargo test`, or `cargo build --workspace --examples` first",
                        bin.display()
                    );
                    let out = Command::new(&bin)
                        .env("ADHOC_RADIO_EXAMPLE_SCALE", "8")
                        .output()
                        .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
                    let stdout = String::from_utf8_lossy(&out.stdout);
                    if !out.status.success() {
                        Some(format!(
                            "{name}: exited with {:?}\n--- stdout ---\n{stdout}\n--- stderr ---\n{}",
                            out.status.code(),
                            String::from_utf8_lossy(&out.stderr)
                        ))
                    } else if stdout.trim().is_empty() {
                        Some(format!("{name}: produced no output"))
                    } else {
                        None
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("example runner thread panicked"))
            .collect()
    });
    assert!(
        failures.is_empty(),
        "{} example(s) failed:\n\n{}",
        failures.len(),
        failures.join("\n\n")
    );
}
