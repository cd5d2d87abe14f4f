//! Energy accounting.
//!
//! The paper measures energy as *"the total (expected) number of
//! transmissions, or the maximum number of transmissions per node"*
//! (§1.2). [`Metrics`] tracks both, per run. Per-round quantities —
//! `|Qₜ|` (transmitters), deliveries, awake nodes — are in a run's event
//! stream (`radio-trace`, attached with [`Run::sink`](crate::Run::sink)).
//!
//! Model-based accounting — total/max/mean *energy* under a pluggable
//! [`radio_energy::EnergyModel`], per-node residual battery charge, and
//! the first-depletion round — lives in [`EnergyMetrics`] (re-exported
//! here from `radio-energy`), attached to energy-overlay runs via
//! [`EnergyRunResult`](crate::engine::EnergyRunResult). Under the
//! `TxOnly` model its totals coincide exactly with
//! [`Metrics::total_transmissions`].

pub use radio_energy::EnergyMetrics;

/// Per-run energy and duration accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metrics {
    per_node: Vec<u32>,
    total: u64,
    rounds: u64,
}

impl Metrics {
    /// Zeroed metrics for `n` nodes.
    pub fn new(n: usize) -> Self {
        Metrics {
            per_node: vec![0; n],
            total: 0,
            rounds: 0,
        }
    }

    /// Count one transmission by `node`.
    #[inline]
    pub fn record_transmission(&mut self, node: radio_graph::NodeId) {
        self.per_node[node as usize] += 1;
        self.total += 1;
    }

    pub(crate) fn set_rounds(&mut self, rounds: u64) {
        self.rounds = rounds;
    }

    /// Rounds the run lasted.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total transmissions across all nodes — the paper's primary energy
    /// measure.
    pub fn total_transmissions(&self) -> u64 {
        self.total
    }

    /// Maximum transmissions by any single node — the paper's per-node
    /// energy measure (Algorithm 1 guarantees this is ≤ 1).
    pub fn max_transmissions_per_node(&self) -> u32 {
        self.per_node.iter().copied().max().unwrap_or(0)
    }

    /// Mean transmissions per node.
    pub fn mean_transmissions_per_node(&self) -> f64 {
        if self.per_node.is_empty() {
            0.0
        } else {
            self.total as f64 / self.per_node.len() as f64
        }
    }

    /// Transmissions by a specific node.
    pub fn transmissions_of(&self, node: radio_graph::NodeId) -> u32 {
        self.per_node[node as usize]
    }

    /// Per-node counts (index = node id).
    pub fn per_node(&self) -> &[u32] {
        &self.per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_accumulate() {
        let mut m = Metrics::new(4);
        m.record_transmission(1);
        m.record_transmission(1);
        m.record_transmission(3);
        assert_eq!(m.total_transmissions(), 3);
        assert_eq!(m.max_transmissions_per_node(), 2);
        assert_eq!(m.transmissions_of(1), 2);
        assert_eq!(m.transmissions_of(0), 0);
        assert!((m.mean_transmissions_per_node() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics() {
        let m = Metrics::new(0);
        assert_eq!(m.max_transmissions_per_node(), 0);
        assert_eq!(m.mean_transmissions_per_node(), 0.0);
    }
}
