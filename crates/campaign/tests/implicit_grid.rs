//! The `implicit_grid` backend runs the same trials as `csr` on
//! geometric cells: every `faulty_broadcast` variant and every
//! `energy_lifetime` algorithm — the kernels the validator admits on
//! the grid — give the same report bytes and, under a `trace` block,
//! the same recorded rounds on either backend.

use radio_campaign::{Compiled, Scenario};
use radio_sim::trace::Recording;
use std::path::{Path, PathBuf};

fn spec(backend: &str, trace_dir: &Path) -> Scenario {
    let cells = [
        "alg1:f=0.25",
        "alg1_battery:f=0.25",
        "alg1_both:f=0.25",
        "alg3:f=0.25",
        "alg1",
        "flood",
        "decay",
    ]
    .map(|label| format!(r#"{{"label": "{label}", "family": "geometric", "n": 64, "p": 0.25}}"#))
    .join(", ");
    let faulty = r#"{"kind": "faulty_broadcast", "crash_round": 3}"#;
    let lifetime = r#"{"kind": "energy_lifetime", "horizon": 60, "capacity": 40, "d_hint": 6}"#;
    Scenario::parse(&format!(
        r#"{{"version": 1, "name": "grid",
            "sweep": {{"base_seed": 5, "trials": 2, "backend": "{backend}"}},
            "cells": [{cells}],
            "protocols": {{"alg1:f=0.25": {faulty}, "alg1_battery": {faulty},
                "alg1_both": {faulty}, "alg3": {faulty},
                "alg1": {lifetime}, "flood": {lifetime}, "decay": {lifetime}}},
            "trace": {{"dir": "{}", "per_cell_cap": 2}}}}"#,
        trace_dir.display()
    ))
    .expect("the test scenario validates")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("radio-grid-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn implicit_grid_reports_and_records_what_csr_does() {
    let (csr_dir, grid_dir) = (scratch("csr"), scratch("grid"));
    let csr = Compiled::new(spec("csr", &csr_dir)).run_report();
    let grid = Compiled::new(spec("implicit_grid", &grid_dir)).run_report();
    assert_eq!(csr.to_json_string(), grid.to_json_string());

    let mut names: Vec<_> = std::fs::read_dir(&csr_dir)
        .expect("csr recordings")
        .map(|e| e.expect("entry").file_name())
        .collect();
    names.sort();
    assert_eq!(names.len(), 14, "every trial records");
    for name in &names {
        let a = Recording::read_from(csr_dir.join(name)).expect("csr recording");
        let b = Recording::read_from(grid_dir.join(name)).expect("grid recording");
        assert!(!a.rounds.is_empty());
        assert_eq!(a.rounds, b.rounds, "{name:?}");
        assert_eq!(a.footer, b.footer, "{name:?}");
    }
    std::fs::remove_dir_all(&csr_dir).ok();
    std::fs::remove_dir_all(&grid_dir).ok();
}
