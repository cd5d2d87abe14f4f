//! **E5 — Lemma 3.1.** The diameter of directed `G(n,p)` is
//! `⌈log n / log d⌉` w.h.p. for `p > δ log n / n`.
//!
//! Ported to the `radio-sim` sweep API. This experiment runs no
//! protocol — the runner just measures each sampled graph. The
//! histogram needs per-trial values, so the cells run one at a time
//! through [`Sweep::run_cell`] and feed [`Sweep::report`] (what
//! [`Sweep::run`] does inside); the JSON gets the aggregates.

use crate::common::sweep_note;
use crate::{Ctx, Report};
use radio_graph::analysis::diameter_from;
use radio_graph::GraphFamily;
use radio_sim::{CellResults, Sweep, SweepCell, TrialResult};
use radio_util::TextTable;

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::new("e5", "E5 — Lemma 3.1: diameter of G(n,p) = ⌈log n/log d⌉");
    let trials = ctx.trials(25, 10);

    let grid = [
        (1024usize, 16.0),
        (4096, 16.0),
        (4096, 64.0),
        (16384, 26.0),
        (16384, 128.0),
        (65536, 41.0),
    ];
    let mut sweep = Sweep::new("e5", ctx.seed, trials);
    for &(n, d_target) in &grid {
        sweep.push(SweepCell::new(
            "diameter",
            GraphFamily::GnpDirected,
            n,
            d_target / n as f64,
        ));
    }

    let runner = |cell: &SweepCell, seed: u64| {
        let diam = diameter_from(&cell.graph(seed), 0);
        let mut trial = TrialResult {
            completed: true,
            success: diam.is_some(),
            rounds: 0,
            hit_round_cap: false,
            total_transmissions: 0,
            max_transmissions_per_node: 0,
            informed: 0,
            energy: None,
            extras: Vec::new(),
        };
        if let Some(d) = diam {
            trial = trial.extra("diameter", f64::from(d));
        }
        trial
    };
    let raw: Vec<CellResults> = (0..sweep.cells().len())
        .map(|i| sweep.run_cell(i, &runner))
        .collect();
    let sweep_report = sweep.report(&raw);

    let mut table = TextTable::new(&[
        "n",
        "d",
        "predicted ⌈log n/log d⌉",
        "measured diameters (histogram)",
        "hit rate (exact)",
        "hit rate (≤ +1)",
    ]);

    for (&(n, d_target), cell_results) in grid.iter().zip(&raw) {
        let predicted = ((n as f64).log2() / d_target.log2()).ceil() as u32;
        let diams: Vec<u32> = cell_results
            .trials
            .iter()
            .flat_map(|t| t.extras.iter())
            .filter(|(k, _)| k == "diameter")
            .map(|&(_, v)| v as u32)
            .collect();
        let mut hist = std::collections::BTreeMap::new();
        for d in &diams {
            *hist.entry(*d).or_insert(0usize) += 1;
        }
        let exact = diams.iter().filter(|&&d| d == predicted).count();
        let plus_one = diams
            .iter()
            .filter(|&&d| d == predicted || d == predicted + 1)
            .count();
        let hist_str = hist
            .iter()
            .map(|(k, v)| format!("{k}×{v}"))
            .collect::<Vec<_>>()
            .join(" ");
        table.row(&[
            n.to_string(),
            format!("{d_target:.0}"),
            predicted.to_string(),
            hist_str,
            format!("{exact}/{trials}"),
            format!("{plus_one}/{trials}"),
        ]);
    }

    report.para(format!(
        "{trials} sampled graphs per row; diameter = source eccentricity from node 0 \
         (unreachable ⇒ excluded). Measured diameters land at the prediction or one \
         hop above it: the Lemma is stated as (1+o(1))·log n/log d, and at laptop \
         sizes the o(1) term is worth exactly one hop whenever the BFS ball of \
         radius ⌊log n/log d⌋ covers only a modest constant fraction of the graph \
         (δ = d/ln n small). The shape — logarithmic, with the log d denominator — \
         is unambiguous."
    ));
    report.table(&table);
    match sweep_report.write_json(&ctx.out_dir) {
        Ok(path) => {
            report.para(sweep_note(&path));
        }
        Err(e) => eprintln!("warning: cannot write e5 sweep JSON: {e}"),
    }
    report
}
