//! A scenario's `trace` block records up to `per_cell_cap` trials of
//! every cell, whichever kernel runs it: every `faulty_broadcast`
//! variant, `alg1` / `flood` / `decay` under `energy_crossover` and
//! `energy_lifetime`, and `mobile_gossip`. Recording only observes, so
//! the traced report is byte-identical to the untraced one, and each
//! recording is the run its trial reports: one block per round, the
//! trial's seed and the spec hash in the header.

use radio_campaign::{Compiled, Scenario};
use radio_sim::trace::Recording;
use std::path::{Path, PathBuf};

const TRIALS: usize = 3;
const CAP: usize = 2;

/// Every kernel kind and variant at a tiny `n`; `trace_dir` adds the
/// `trace` block.
fn spec(trace_dir: Option<&Path>) -> Scenario {
    let gnp = |label: &str| {
        format!(r#"{{"label": "{label}", "family": "gnp_directed", "n": 48, "p": 0.25}}"#)
    };
    let mut cells: Vec<String> = [
        "alg1:f=0.25",
        "alg1_battery:f=0.25",
        "alg1_both:f=0.25",
        "alg3:f=0.25",
        "alg1:r=0.1",
        "flood:r=0.1",
        "decay:r=0.1",
        "alg1",
        "flood",
        "decay",
    ]
    .iter()
    .map(|label| gnp(label))
    .collect();
    cells.push(r#"{"label": "gossip:f=0.02", "family": "geometric", "n": 48, "p": 0.3}"#.into());
    let faulty = r#"{"kind": "faulty_broadcast", "crash_round": 3}"#;
    let crossover = r#"{"kind": "energy_crossover", "d_hint": 6}"#;
    let lifetime = r#"{"kind": "energy_lifetime", "horizon": 60, "capacity": 40, "d_hint": 6}"#;
    let protocols = [
        ("alg1:f=0.25", faulty),
        ("alg1_battery", faulty),
        ("alg1_both", faulty),
        ("alg3", faulty),
        ("alg1:r=0.1", crossover),
        ("flood:r=0.1", crossover),
        ("decay:r=0.1", crossover),
        ("alg1", lifetime),
        ("flood", lifetime),
        ("decay", lifetime),
        ("gossip", r#"{"kind": "mobile_gossip", "switch_every": 10}"#),
    ]
    .map(|(key, body)| format!(r#""{key}": {body}"#))
    .join(", ");
    let trace = trace_dir.map_or(String::new(), |dir| {
        format!(
            r#", "trace": {{"dir": "{}", "per_cell_cap": {CAP}}}"#,
            dir.display()
        )
    });
    Scenario::parse(&format!(
        r#"{{"version": 1, "name": "traced",
            "sweep": {{"base_seed": 11, "trials": {TRIALS}}},
            "cells": [{}], "protocols": {{{protocols}}}{trace}}}"#,
        cells.join(", ")
    ))
    .expect("the test scenario validates")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("radio-trace-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn every_cell_records_up_to_its_cap_without_changing_the_report() {
    let dir = scratch("capture");
    let traced = Compiled::new(spec(Some(&dir)));
    let plan = traced.trace_plan().expect("the spec has a trace block");
    let sweep = traced.sweep();
    let cells: Vec<_> = (0..sweep.cells().len())
        .map(|i| traced.run_cell(i, Some(&plan)))
        .collect();
    let untraced = Compiled::new(spec(None)).run_report();
    assert_eq!(
        sweep.report(&cells).to_json_string(),
        untraced.to_json_string(),
        "recording changed the report"
    );
    assert_eq!(plan.degraded(), 0);
    assert_eq!(plan.recorded(), sweep.cells().len() * CAP.min(TRIALS));

    let code_version = traced.scenario().spec_hash_string();
    for (idx, (cell, results)) in sweep.cells().iter().zip(&cells).enumerate() {
        let stem = format!(
            "{}-{}-n{}-p{}-s",
            cell.algorithm,
            cell.family.label(),
            cell.n,
            cell.p
        );
        let mut recorded = 0;
        for (t, trial) in results.trials.iter().enumerate() {
            let seed = sweep.trial_seed(idx, t);
            let path = dir.join(format!("{stem}{seed}.rtrc"));
            if !path.exists() {
                continue;
            }
            recorded += 1;
            let rec = Recording::read_from(&path).expect("a strict decode");
            assert_eq!(rec.header.engine, "v1", "{}", path.display());
            assert_eq!(rec.header.seed, seed);
            assert_eq!(rec.header.code_version, code_version);
            assert!(trial.rounds > 0);
            assert_eq!(
                rec.rounds.len() as u64,
                trial.rounds,
                "{}: one block per round the trial ran",
                path.display()
            );
        }
        assert_eq!(recorded, CAP.min(TRIALS), "recordings of `{stem}`");
    }
    let files = std::fs::read_dir(&dir).expect("trace dir").count();
    assert_eq!(files, plan.recorded(), "no stray files");
    std::fs::remove_dir_all(&dir).ok();
}
