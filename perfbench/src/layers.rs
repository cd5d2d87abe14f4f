//! The per-layer metrics of a traced run. Every workload reports the
//! full set; a layer the workload does not drive reads 0.

use crate::measure::Metric;
use crate::probe::{EngineCounts, TopoCounts};

/// Topology backends, in metric-suffix order.
pub(crate) const BACKENDS: [&str; 3] = ["csr", "gnp", "grid"];

/// Campaign-layer totals (`radio_campaign`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignCounts {
    /// `Scenario::parse` seconds.
    pub parse_s: f64,
    /// `Campaign::fresh` seconds (compile + first manifest write).
    pub compile_s: f64,
    /// `Compiled::run_cell` seconds.
    pub run_cell_s: f64,
    /// Cell file + manifest write seconds.
    pub checkpoint_s: f64,
    /// Bytes of cell files and manifests written.
    pub checkpoint_bytes: u64,
    /// Cell read-back + aggregation + report write seconds.
    pub report_s: f64,
    /// Bytes of reports written.
    pub report_bytes: u64,
}

/// Per-layer totals summed over the traced iterations.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Traced iterations the totals cover.
    pub iterations: u64,
    /// `radio_graph::generate` seconds.
    pub generate_s: f64,
    /// Edges generated.
    pub edges: u64,
    /// Topology counters per backend ([`BACKENDS`] order).
    pub topo: [TopoCounts; 3],
    /// Transmissions per backend, the base of `rows_per_tx`.
    pub topo_tx: [u64; 3],
    /// Engine phase totals.
    pub engine: EngineCounts,
    /// Trial 0 at one thread ÷ the same trial at the run's threads
    /// (0 when the workload has no intra-run parallelism to measure).
    pub par_speedup: f64,
    /// Campaign-layer totals.
    pub campaign: CampaignCounts,
    /// Traced ÷ untraced iteration wall time.
    pub trace_overhead: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Layers {
    /// Every per-layer metric, as per-iteration means (ratios are taken
    /// over the totals).
    pub fn metrics(&self) -> Vec<Metric> {
        let per = |x: f64| x / self.iterations.max(1) as f64;
        let mut m = vec![
            Metric::new("graph.generate_s", per(self.generate_s), "s"),
            Metric::new("graph.edges", per(self.edges as f64), "count"),
            Metric::new(
                "graph.edges_per_s",
                ratio(self.edges as f64, self.generate_s),
                "1/s",
            ),
        ];
        for (i, b) in BACKENDS.iter().enumerate() {
            let t = &self.topo[i];
            m.push(Metric::new(
                format!("topology.rows.{b}"),
                per(t.rows as f64),
                "count",
            ));
            m.push(Metric::new(
                format!("topology.range_rows.{b}"),
                per(t.range_rows as f64),
                "count",
            ));
            m.push(Metric::new(
                format!("topology.neighbors.{b}"),
                per(t.neighbors as f64),
                "count",
            ));
            m.push(Metric::new(
                format!("topology.busy_s.{b}"),
                per(t.busy_s),
                "s",
            ));
            m.push(Metric::new(
                format!("topology.rows_per_tx.{b}"),
                ratio((t.rows + t.range_rows) as f64, self.topo_tx[i] as f64),
                "ratio",
            ));
        }
        let e = &self.engine;
        m.extend([
            Metric::new("engine.decide_s", per(e.decide_s), "s"),
            Metric::new("engine.scatter_s", per(e.scatter_s), "s"),
            Metric::new("engine.delivery_s", per(e.delivery_s), "s"),
            Metric::new("engine.rounds", per(e.rounds as f64), "count"),
            Metric::new(
                "engine.awake_node_rounds",
                per(e.awake_node_rounds as f64),
                "count",
            ),
            Metric::new("engine.transmissions", per(e.transmissions as f64), "count"),
            Metric::new("engine.deliveries", per(e.deliveries as f64), "count"),
            Metric::new("engine.collisions", per(e.collisions as f64), "count"),
            Metric::new(
                "engine.deliveries_per_tx",
                ratio(e.deliveries as f64, e.transmissions as f64),
                "ratio",
            ),
            Metric::new("engine.par_speedup", self.par_speedup, "ratio"),
        ]);
        let c = &self.campaign;
        m.extend([
            Metric::new("campaign.parse_s", per(c.parse_s), "s"),
            Metric::new("campaign.compile_s", per(c.compile_s), "s"),
            Metric::new("campaign.run_cell_s", per(c.run_cell_s), "s"),
            Metric::new("campaign.checkpoint_s", per(c.checkpoint_s), "s"),
            Metric::new(
                "campaign.checkpoint_bytes",
                per(c.checkpoint_bytes as f64),
                "bytes",
            ),
            Metric::new("campaign.report_s", per(c.report_s), "s"),
            Metric::new("campaign.report_bytes", per(c.report_bytes as f64), "bytes"),
            Metric::new("trace_overhead", self.trace_overhead, "ratio"),
        ]);
        m
    }
}
