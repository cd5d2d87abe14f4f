//! **E2 — Lemmas 2.3 & 2.4.** Phase-1 growth: the active set multiplies
//! by a factor in `[d/16, 2d]` per round, landing at `|U_{T+1}| = Θ(d^T)`.
//!
//! Ported to the `radio-sim` sweep API: each run reports its per-round
//! growth factors as sweep extras, which aggregate into the tables here
//! and into `results/sweep_e2.json`. `|U_{t+1}|` is the number of nodes
//! first informed in round `t` (see `run_ee_broadcast_growth`).

use crate::common::{cell_extra, sweep_note};
use crate::{Ctx, Report};
use radio_core::broadcast::ee_random::{run_ee_broadcast_growth, EeBroadcastConfig};
use radio_graph::GraphFamily;
use radio_sim::{Sweep, SweepCell};
use radio_util::TextTable;

/// Phase-1 length and mean degree for a cell (shared by runner + table).
fn phase1_params(n: usize, p: f64) -> (usize, f64) {
    let cfg = EeBroadcastConfig::for_gnp(n, p);
    (cfg.params.t as usize, cfg.params.d)
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::new(
        "e2",
        "E2 — Lemmas 2.3/2.4: Phase-1 active-set growth on G(n,p)",
    );
    let trials = ctx.trials(20, 6);

    // d ≈ n^{1/3} gives T = 3 Phase-1 rounds at n = 2^15.
    let mut sweep = Sweep::new("e2", ctx.seed, trials);
    for n in [4096usize, 32768] {
        let d_target = (n as f64).powf(1.0 / 3.0).round();
        sweep.push(SweepCell::new(
            "ee_broadcast_traced",
            GraphFamily::GnpDirected,
            n,
            d_target / n as f64,
        ));
    }

    let sweep_report = sweep.run(|cell, graph, seed| {
        let cfg = EeBroadcastConfig::for_gnp(cell.n, cell.p);
        let (t_phase1, d) = phase1_params(cell.n, cell.p);
        // series[r] = |U_{r+2}|, the nodes first informed in round r+1;
        // |U_1| = 1 (the source).
        let (out, series) = run_ee_broadcast_growth(graph, 0, &cfg, seed);
        let mut trial = out.to_trial();
        for round in 0..t_phase1 {
            let prev = if round == 0 {
                1.0
            } else {
                series.get(round - 1).copied().unwrap_or(0) as f64
            };
            let next = series.get(round).copied().unwrap_or(0) as f64;
            if prev > 0.0 {
                let growth = next / prev;
                let in_range = growth >= d / 16.0 && growth <= 2.0 * d;
                trial = trial
                    .extra(format!("growth_r{}", round + 1), growth)
                    .extra(format!("in_range_r{}", round + 1), f64::from(in_range));
            }
        }
        if let Some(&u_final) = series.get(t_phase1 - 1) {
            trial = trial.extra("final_ratio", u_final as f64 / d.powi(t_phase1 as i32));
        }
        trial
    });

    let mut table = TextTable::new(&[
        "n",
        "d",
        "T",
        "round",
        "growth |U_{t+1}|/|U_t|",
        "growth/d",
        "in [d/16, 2d]?",
    ]);
    let mut final_table = TextTable::new(&[
        "n",
        "d",
        "T",
        "|U_{T+1}|/d^T (mean)",
        "paper range [c1, c2]",
    ]);

    for cell in &sweep_report.cells {
        let (t_phase1, d) = phase1_params(cell.cell.n, cell.cell.p);
        for round in 1..=t_phase1 {
            let Some(growth) = cell_extra(cell, &format!("growth_r{round}")) else {
                continue;
            };
            let within = cell_extra(cell, &format!("in_range_r{round}"))
                .map_or(0, |s| (s.mean * s.n as f64).round() as usize);
            table.row(&[
                cell.cell.n.to_string(),
                format!("{d:.0}"),
                t_phase1.to_string(),
                round.to_string(),
                format!("{:.1} ± {:.1}", growth.mean, growth.ci95_half_width()),
                format!("{:.2}", growth.mean / d),
                format!("{within}/{}", growth.n),
            ]);
        }
        if let Some(fr) = cell_extra(cell, "final_ratio") {
            final_table.row(&[
                cell.cell.n.to_string(),
                format!("{d:.0}"),
                t_phase1.to_string(),
                format!("{:.3} (min {:.3}, max {:.3})", fr.mean, fr.min, fr.max),
                "[1.5e-7, 43.5] (loose theory constants)".to_string(),
            ]);
        }
    }

    report.para(format!(
        "{trials} traced runs per n. Lemma 2.3 predicts per-round growth in \
         [d/16, 2d]; in practice the factor hugs d·e^{{−dp·|U|}} ≈ d early on. \
         Lemma 2.4's constants c1 = 16⁻⁴4⁻³, c2 = 16e are astronomically loose; \
         the measured |U_(T+1)|/d^T ratio lands well inside them."
    ));
    report.table(&table);
    report.para("Final Phase-1 size (Lemma 2.4):");
    report.table(&final_table);
    match sweep_report.write_json(&ctx.out_dir) {
        Ok(path) => {
            report.para(sweep_note(&path));
        }
        Err(e) => eprintln!("warning: cannot write e2 sweep JSON: {e}"),
    }
    report
}
