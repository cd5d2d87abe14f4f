//! **E13 — §1.3 head-to-head comparisons.** The paper's "New results"
//! table, measured: Algorithm 1 vs Elsässer–Gasieniec on `G(n,p)`;
//! Algorithm 3 vs Czumaj–Rytter vs Decay on a known-`D` network; gossip
//! vs the naive always-transmit strawman.
//!
//! Ported to the `radio-sim` sweep API as two sweeps — one over random
//! networks (`algorithm × (n, p)` grid cells), one over the caterpillar
//! general network — with the algorithm label dispatched inside the
//! runner. JSON lands in `results/sweep_e13_random.json` and
//! `results/sweep_e13_general.json`.

use crate::common::{cell_extra, sweep_note};
use crate::{Ctx, Report};
use radio_core::broadcast::cr::{run_cr_broadcast, CrBroadcastConfig};
use radio_core::broadcast::decay::{run_decay_broadcast, DecayConfig};
use radio_core::broadcast::ee_general::{run_general_broadcast, GeneralBroadcastConfig};
use radio_core::broadcast::ee_random::{run_ee_broadcast, EeBroadcastConfig};
use radio_core::broadcast::eg::{run_eg_broadcast, EgBroadcastConfig};
use radio_core::params::lambda;
use radio_graph::analysis::diameter_from;
use radio_graph::generate::caterpillar;
use radio_graph::GraphFamily;
use radio_sim::{Sweep, SweepCell};
use radio_util::TextTable;

const CATERPILLAR_LEGS: usize = 20;

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::new("e13", "E13 — §1.3 comparison tables");
    let trials = ctx.trials(12, 5);

    // --- Random networks: Algorithm 1 vs Elsässer–Gasieniec --------------
    let grid = [(4096usize, 48.0), (16384, 36.0)];
    let mut sw_random = Sweep::new("e13_random", ctx.seed, trials);
    for &(n, d_target) in &grid {
        for alg in ["ee_broadcast", "eg_broadcast"] {
            sw_random.push(SweepCell::new(
                alg,
                GraphFamily::GnpDirected,
                n,
                d_target / n as f64,
            ));
        }
    }
    let random_report = sw_random.run(|cell, graph, seed| {
        let out = match cell.algorithm.as_str() {
            "ee_broadcast" => {
                run_ee_broadcast(graph, 0, &EeBroadcastConfig::for_gnp(cell.n, cell.p), seed)
            }
            "eg_broadcast" => {
                run_eg_broadcast(graph, 0, &EgBroadcastConfig::for_gnp(cell.n, cell.p), seed)
            }
            other => unreachable!("unknown algorithm {other}"),
        };
        out.to_trial()
    });

    let mut t1 = TextTable::new(&[
        "n",
        "d",
        "D̂",
        "algorithm",
        "success",
        "bcast time",
        "max msgs/node",
        "total msgs",
    ]);
    for cell in &random_report.cells {
        let (n, p) = (cell.cell.n, cell.cell.p);
        let name = match cell.cell.algorithm.as_str() {
            "ee_broadcast" => "Alg 1 (paper)",
            _ => "Elsässer–Gasieniec",
        };
        t1.row(&[
            n.to_string(),
            format!("{:.0}", n as f64 * p),
            EgBroadcastConfig::for_gnp(n, p).d_hat().to_string(),
            name.to_string(),
            format!("{}/{}", cell.successes, cell.trials),
            format!(
                "{:.0}",
                cell_extra(cell, "bcast_time").map_or(0.0, |s| s.mean)
            ),
            cell.max_transmissions_per_node.to_string(),
            format!("{:.0}", cell.total_transmissions.map_or(0.0, |s| s.mean)),
        ]);
    }
    report.para(
        "Random networks (both algorithms know n and p). Paper claim: same O(log n) \
         time; Algorithm 1 transmits at most once per node while EG retransmits \
         every Phase-1 round (max msgs ≈ D̂−1 at the source side).",
    );
    report.table(&t1);

    // --- General networks: Alg 3 vs CR vs Decay --------------------------
    // The caterpillar is deterministic, so every trial sees the same
    // graph; its diameter is recomputed per trial inside the runner (a
    // 2k-node BFS — negligible next to the broadcast run).
    let g = caterpillar(96, CATERPILLAR_LEGS); // n = 2016, D = 97
    let n = g.n();
    let d = diameter_from(&g, 0).expect("connected");
    let lam = lambda(n, d);

    let mut sw_general = Sweep::new("e13_general", ctx.seed ^ 0x13, trials);
    for alg in ["alg3_alpha", "cr_alpha_stop", "decay"] {
        sw_general.push(SweepCell::new(
            alg,
            GraphFamily::Caterpillar {
                legs: CATERPILLAR_LEGS,
            },
            n,
            0.0,
        ));
    }
    let general_report = sw_general.run(|cell, graph, seed| {
        let n = graph.n();
        let d = diameter_from(graph, 0).expect("caterpillar is connected");
        let out = match cell.algorithm.as_str() {
            "alg3_alpha" => {
                run_general_broadcast(graph, 0, &GeneralBroadcastConfig::new(n, d), seed)
            }
            "cr_alpha_stop" => run_cr_broadcast(graph, 0, &CrBroadcastConfig::new(n, d), seed),
            "decay" => run_decay_broadcast(graph, 0, &DecayConfig::new(n, d), seed),
            other => unreachable!("unknown algorithm {other}"),
        };
        let mean_msgs = out.mean_msgs_per_node();
        let max_msgs = out.max_msgs_per_node();
        out.to_trial()
            .extra("mean_msgs_per_node", mean_msgs)
            .extra("max_msgs_per_node", f64::from(max_msgs))
    });

    let mut t2 = TextTable::new(&[
        "algorithm",
        "success",
        "bcast time",
        "mean msgs/node",
        "max msgs/node",
        "msgs vs Alg3",
    ]);
    let base_msgs =
        cell_extra(&general_report.cells[0], "mean_msgs_per_node").map_or(1.0, |s| s.mean);
    for cell in &general_report.cells {
        let name = match cell.cell.algorithm.as_str() {
            "alg3_alpha" => "Alg 3 (α)",
            "cr_alpha_stop" => "CR (α') + stop",
            _ => "Decay",
        };
        let mean_msgs = cell_extra(cell, "mean_msgs_per_node").map_or(0.0, |s| s.mean);
        t2.row(&[
            name.to_string(),
            format!("{}/{}", cell.successes, cell.trials),
            format!(
                "{:.0}",
                cell_extra(cell, "bcast_time").map_or(0.0, |s| s.mean)
            ),
            format!("{mean_msgs:.1}"),
            format!(
                "{:.0}",
                cell_extra(cell, "max_msgs_per_node").map_or(0.0, |s| s.mean)
            ),
            format!("{:.1}×", mean_msgs / base_msgs),
        ]);
    }
    report.para(format!(
        "General network: caterpillar n = {n}, D = {d}, λ = {lam:.1}. Paper claim: \
         CR pays ≈ λ× ({lam:.1}×) Algorithm 3's messages at comparable time; \
         Decay pays Θ(D)-scale energy."
    ));
    report.table(&t2);

    for sweep_report in [&random_report, &general_report] {
        match sweep_report.write_json(&ctx.out_dir) {
            Ok(path) => {
                report.para(sweep_note(&path));
            }
            Err(e) => eprintln!("warning: cannot write e13 sweep JSON: {e}"),
        }
    }
    report
}
