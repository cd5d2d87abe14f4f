//! The committed scenario IR reproduces the historical hand-written
//! e16/e17 sweeps — structurally (cheap, always on) and byte-for-byte
//! against the committed `results/sweep_*.json` (ignored; run with
//! `cargo test -p radio-bench --test scenario_fidelity --release -- --ignored`,
//! about 1.3 s for all four on a 2-vCPU host; CI's `release-lib` suite
//! runs them).

use radio_bench::experiments::{e16_robustness, e17_energy_lifetime};
use radio_campaign::{Compiled, Scenario};

fn compiled(spec: &str) -> Compiled {
    Compiled::new(Scenario::parse(spec).expect("committed scenario must validate"))
}

/// `(spec, committed report, cells, trials, base_seed)` for every
/// committed experiment scenario.
fn all_specs() -> [(&'static str, &'static str, usize, usize, u64); 4] {
    [
        (
            e16_robustness::MOBILITY_SPEC,
            "../../results/sweep_e16_mobility.json",
            4,
            10,
            2903252999,
        ),
        (
            e16_robustness::CRASH_SPEC,
            "../../results/sweep_e16_crash.json",
            16,
            10,
            2903253009,
        ),
        (
            e17_energy_lifetime::ENERGY_SPEC,
            "../../results/sweep_e17_energy.json",
            24,
            12,
            2903252999,
        ),
        (
            e17_energy_lifetime::LIFETIME_SPEC,
            "../../results/sweep_e17_lifetime.json",
            3,
            12,
            2903253008,
        ),
    ]
}

#[test]
fn committed_scenarios_validate_and_match_the_historical_grids() {
    for (spec, report_path, cells, trials, base_seed) in all_specs() {
        let c = compiled(spec);
        assert_eq!(c.sweep().cells().len(), cells, "{report_path}: cell count");
        assert_eq!(c.sweep().trials, trials, "{report_path}: trials");
        assert_eq!(c.sweep().base_seed, base_seed, "{report_path}: seed");
        // Cell labels, families, and parameters must match the committed
        // report's cells one-to-one, in order.
        let committed = std::fs::read_to_string(report_path).expect("committed report");
        let doc = radio_util::Json::parse(&committed).expect("report JSON");
        let rep_cells = doc.get("cells").and_then(|c| c.as_arr()).expect("cells");
        assert_eq!(rep_cells.len(), cells);
        for (cell, rep) in c.sweep().cells().iter().zip(rep_cells) {
            assert_eq!(
                rep.get("algorithm").and_then(|a| a.as_str()),
                Some(cell.algorithm.as_str())
            );
            assert_eq!(
                rep.get("family").and_then(|f| f.as_str()),
                Some(cell.family.label().as_str())
            );
            assert_eq!(rep.get("n").and_then(|n| n.as_f64()), Some(cell.n as f64));
            assert_eq!(rep.get("p").and_then(|p| p.as_f64()), Some(cell.p));
        }
    }
}

#[test]
fn spec_hashes_are_stable_under_reformatting() {
    for (spec, _, _, _, _) in all_specs() {
        let a = Scenario::parse(spec).unwrap();
        let squashed: String = spec
            .lines()
            .map(str::trim_start)
            .collect::<Vec<_>>()
            .join("");
        let b = Scenario::parse(&squashed).unwrap();
        assert_eq!(a.spec_hash(), b.spec_hash());
    }
}

/// Full byte-identity: compile the committed spec at its own defaults,
/// run every cell, and demand the exact committed report bytes.
fn assert_byte_identical(spec: &str, committed_path: &str) {
    let c = compiled(spec);
    let report = c.run_report();
    let produced = report.to_json_string();
    let committed = std::fs::read_to_string(committed_path).expect("committed report");
    assert_eq!(
        produced, committed,
        "{committed_path}: scenario-compiled report diverges from the committed bytes"
    );
}

#[test]
#[ignore = "the committed full-size sweep, slow in a debug build; run with --ignored in release"]
fn e16_mobility_scenario_reproduces_committed_bytes() {
    assert_byte_identical(
        e16_robustness::MOBILITY_SPEC,
        "../../results/sweep_e16_mobility.json",
    );
}

#[test]
#[ignore = "the committed full-size sweep, slow in a debug build; run with --ignored in release"]
fn e16_crash_scenario_reproduces_committed_bytes() {
    assert_byte_identical(
        e16_robustness::CRASH_SPEC,
        "../../results/sweep_e16_crash.json",
    );
}

#[test]
#[ignore = "the committed full-size sweep, slow in a debug build; run with --ignored in release"]
fn e17_energy_scenario_reproduces_committed_bytes() {
    assert_byte_identical(
        e17_energy_lifetime::ENERGY_SPEC,
        "../../results/sweep_e17_energy.json",
    );
}

#[test]
#[ignore = "the committed full-size sweep, slow in a debug build; run with --ignored in release"]
fn e17_lifetime_scenario_reproduces_committed_bytes() {
    assert_byte_identical(
        e17_energy_lifetime::LIFETIME_SPEC,
        "../../results/sweep_e17_lifetime.json",
    );
}
