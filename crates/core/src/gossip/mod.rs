//! **Algorithm 2** — gossiping in random networks (paper §3).
//!
//! Every node starts with its own rumor. For `128·d·log n` rounds
//! (we expose the constant as `γ`), every node transmits with probability
//! `1/d`, sending its *joined* message — the union of every rumor it has
//! heard so far (the join model of \[8, 11, 21\]: combined messages fit in
//! one time step). Nodes never become passive.
//!
//! Theorem 3.2: with `p > δ log n / n`, gossiping completes in
//! `O(d log n)` rounds w.h.p. and every node performs `O(log n)`
//! transmissions (`E[msgs/node] = γ log n`, tightly concentrated).
//!
//! Rumor sets are [`BitSet`]s; [`EeGossipConfig::tracked`] optionally
//! restricts bookkeeping to an evenly spaced rumor sample — legitimate
//! because transmission decisions are content-independent (probability
//! `1/d` regardless of payload), so the sampled run has *identical*
//! dynamics, time and energy, only cheaper completion accounting.
//!
//! [`dynamic`] contains the time-stamped variant the paper sketches
//! ("provide every message with a time stamp … and delete old messages").

pub mod dynamic;

use crate::params::GnpParams;
use radio_graph::{DiGraph, NodeId};
use radio_sim::{Action, EngineConfig, Metrics, Protocol};
use radio_util::BitSet;
use rand::Bernoulli;
use rand_chacha::ChaCha8Rng;

/// Configuration for Algorithm 2.
#[derive(Debug, Clone, Copy)]
pub struct EeGossipConfig {
    /// Derived `G(n,p)` parameters (`d = np` sets both the transmit
    /// probability `1/d` and the round budget).
    pub params: GnpParams,
    /// Round-budget multiplier: the schedule is `⌈γ·d·log₂ n⌉` rounds
    /// (the paper's constant is 128; γ = 6 empirically suffices at
    /// simulated sizes and is swept in the E14 ablation).
    pub gamma: f64,
    /// Track only `k` evenly spaced rumors instead of all `n`
    /// (`None` = full tracking).
    pub tracked: Option<usize>,
    /// Stop once every node knows every tracked rumor.
    pub early_stop: bool,
}

impl EeGossipConfig {
    /// Defaults: γ = 6, full tracking, early stop.
    pub fn for_gnp(n: usize, p: f64) -> Self {
        EeGossipConfig {
            params: GnpParams::new(n, p),
            gamma: 6.0,
            tracked: None,
            early_stop: true,
        }
    }

    /// Scheduled number of rounds `⌈γ·d·log₂ n⌉`.
    pub fn schedule_rounds(&self) -> u64 {
        (self.gamma * self.params.d * (self.params.n as f64).log2()).ceil() as u64
    }

    /// Number of tracked rumors.
    pub fn tracked_count(&self) -> usize {
        self.tracked.unwrap_or(self.params.n).min(self.params.n)
    }
}

/// Algorithm 2 as a [`Protocol`]. `Msg` is the sender's joined rumor set.
#[derive(Debug)]
pub struct EeGossip {
    cfg: EeGossipConfig,
    /// Run constants computed once instead of on every poll or delivery:
    /// [`EeGossipConfig::schedule_rounds`] (it takes a `log2`), the
    /// transmit coin `q = min(1/d, 1)` — a [`Bernoulli`], draw-for-draw
    /// bit-compatible with the `random_bool(q)` it replaces — and
    /// [`EeGossipConfig::tracked_count`].
    schedule_rounds: u64,
    coin: Bernoulli,
    tracked: usize,
    /// `rumors[v]` = tracked rumors known to `v`.
    rumors: Vec<BitSet>,
    /// Nodes already holding every tracked rumor.
    nodes_complete: usize,
    /// Round when the last node completed.
    complete_round: Option<u64>,
    n: usize,
}

impl EeGossip {
    /// Fresh instance: node `v` knows exactly its own rumor (if tracked).
    pub fn new(cfg: EeGossipConfig) -> Self {
        let n = cfg.params.n;
        let k = cfg.tracked_count();
        // Tracked rumor j originates at node ⌊j·n/k⌋ (evenly spaced).
        let mut origin_slot = vec![usize::MAX; n];
        for j in 0..k {
            origin_slot[j * n / k] = j;
        }
        let mut rumors = Vec::with_capacity(n);
        let mut nodes_complete = 0;
        for &slot in &origin_slot {
            let mut set = BitSet::new(k);
            if slot != usize::MAX {
                set.insert(slot);
            }
            if set.len() == k {
                nodes_complete += 1; // degenerate k = 1 case
            }
            rumors.push(set);
        }
        EeGossip {
            cfg,
            schedule_rounds: cfg.schedule_rounds(),
            coin: Bernoulli::new((1.0 / cfg.params.d).min(1.0)),
            tracked: k,
            rumors,
            nodes_complete,
            complete_round: if nodes_complete == n { Some(0) } else { None },
            n,
        }
    }

    /// Round by which every node knew every tracked rumor, if reached —
    /// the paper's *gossiping time*.
    pub fn gossip_time(&self) -> Option<u64> {
        self.complete_round
    }

    /// Minimum number of tracked rumors any node knows (progress metric).
    pub fn min_known(&self) -> usize {
        self.rumors.iter().map(BitSet::len).min().unwrap_or(0)
    }
}

impl Protocol for EeGossip {
    type Msg = BitSet;

    fn initially_awake(&self) -> Vec<NodeId> {
        (0..self.n as NodeId).collect()
    }

    fn decide(&mut self, _node: NodeId, round: u64, rng: &mut ChaCha8Rng) -> Action {
        if round > self.schedule_rounds {
            return Action::Sleep;
        }
        if self.coin.sample(rng) {
            Action::Transmit
        } else {
            Action::Silent
        }
    }

    fn payload(&self, node: NodeId, _round: u64) -> Self::Msg {
        self.rumors[node as usize].clone()
    }

    fn on_receive(
        &mut self,
        node: NodeId,
        _from: NodeId,
        round: u64,
        msg: &Self::Msg,
        _rng: &mut ChaCha8Rng,
    ) {
        let k = self.tracked;
        let set = &mut self.rumors[node as usize];
        let was_complete = set.len() == k;
        set.union_with(msg);
        if !was_complete && set.len() == k {
            self.nodes_complete += 1;
            if self.nodes_complete == self.n {
                self.complete_round = Some(round);
            }
        }
    }

    fn is_complete(&self) -> bool {
        self.cfg.early_stop && self.nodes_complete == self.n
    }

    fn informed_count(&self) -> usize {
        self.nodes_complete
    }
}

/// Outcome of a gossip run.
#[derive(Debug, Clone)]
pub struct GossipOutcome {
    /// Number of nodes.
    pub n: usize,
    /// Whether every node learned every tracked rumor.
    pub completed: bool,
    /// The paper's gossiping time, if completed.
    pub gossip_time: Option<u64>,
    /// Rounds executed.
    pub rounds_executed: u64,
    /// Nodes that hold all tracked rumors.
    pub nodes_complete: usize,
    /// Minimum tracked rumors known by any node.
    pub min_known: usize,
    /// Energy accounting.
    pub metrics: Metrics,
}

impl GossipOutcome {
    /// The paper's per-node energy measure.
    pub fn max_msgs_per_node(&self) -> u32 {
        self.metrics.max_transmissions_per_node()
    }

    /// Mean transmissions per node (`≈ γ log₂ n` for a full schedule).
    pub fn mean_msgs_per_node(&self) -> f64 {
        self.metrics.mean_transmissions_per_node()
    }
}

/// Run Algorithm 2 on `graph`.
pub fn run_ee_gossip(graph: &DiGraph, cfg: &EeGossipConfig, seed: u64) -> GossipOutcome {
    assert_eq!(graph.n(), cfg.params.n, "config n must match the graph");
    let mut protocol = EeGossip::new(*cfg);
    let mut rng = radio_util::derive_rng(seed, b"engine", 0);
    let engine_cfg = EngineConfig::with_max_rounds(cfg.schedule_rounds() + 2);
    let run = radio_sim::Engine::new(graph, engine_cfg)
        .run(&mut protocol)
        .v1(&mut rng);
    GossipOutcome {
        n: graph.n(),
        completed: protocol.nodes_complete == graph.n(),
        gossip_time: protocol.gossip_time(),
        rounds_executed: run.rounds,
        nodes_complete: protocol.nodes_complete,
        min_known: protocol.min_known(),
        metrics: run.metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::generate::gnp_directed;
    use radio_util::derive_rng;

    fn instance(n: usize, delta: f64, seed: u64) -> (DiGraph, EeGossipConfig) {
        let p = delta * (n as f64).ln() / n as f64;
        let g = gnp_directed(n, p, &mut derive_rng(seed, b"gossip-g", 0));
        (g, EeGossipConfig::for_gnp(n, p))
    }

    #[test]
    fn all_nodes_learn_all_rumors() {
        let (g, cfg) = instance(256, 8.0, 0);
        let out = run_ee_gossip(&g, &cfg, 0);
        assert!(out.completed, "min_known = {}", out.min_known);
        assert_eq!(out.nodes_complete, 256);
    }

    #[test]
    fn gossip_time_scales_with_d_log_n() {
        let (g, cfg) = instance(512, 8.0, 1);
        let out = run_ee_gossip(&g, &cfg, 1);
        assert!(out.completed);
        let t = out.gossip_time.expect("completed") as f64;
        let scale = cfg.params.d * (512f64).log2();
        assert!(t < 3.0 * scale, "gossip time {t} ≫ d log n = {scale}");
        assert!(t > 0.05 * scale, "suspiciously fast: {t} vs scale {scale}");
    }

    #[test]
    fn msgs_per_node_are_logarithmic() {
        let (g, mut cfg) = instance(512, 8.0, 2);
        cfg.early_stop = false; // full schedule = worst-case energy
        let out = run_ee_gossip(&g, &cfg, 2);
        let expect = cfg.gamma * (512f64).log2();
        let mean = out.mean_msgs_per_node();
        assert!(
            (mean - expect).abs() < 0.2 * expect,
            "mean msgs {mean} vs γ log n = {expect}"
        );
        // Concentration: max within a small factor of the mean.
        assert!((out.max_msgs_per_node() as f64) < 2.5 * mean);
    }

    #[test]
    fn sampled_tracking_matches_full_dynamics() {
        // Content-independence: energy and rounds must be identical
        // between full and sampled tracking for the same seed when neither
        // stops early.
        let (g, mut cfg) = instance(128, 8.0, 3);
        cfg.early_stop = false;
        let full = run_ee_gossip(&g, &cfg, 3);
        cfg.tracked = Some(16);
        let sampled = run_ee_gossip(&g, &cfg, 3);
        assert_eq!(full.rounds_executed, sampled.rounds_executed);
        assert_eq!(
            full.metrics.total_transmissions(),
            sampled.metrics.total_transmissions()
        );
        assert!(sampled.completed);
    }

    #[test]
    fn rumor_knowledge_is_monotone_and_complete_per_node() {
        let (g, cfg) = instance(128, 8.0, 4);
        let mut protocol = EeGossip::new(cfg);
        let mut rng = derive_rng(4, b"engine", 0);
        let engine_cfg = EngineConfig::with_max_rounds(cfg.schedule_rounds());
        let _ = radio_sim::Engine::new(&g, engine_cfg)
            .run(&mut protocol)
            .v1(&mut rng);
        for v in 0..128 {
            assert!(
                protocol.rumors[v].contains(v),
                "node {v} lost its own rumor"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (g, cfg) = instance(128, 8.0, 5);
        let a = run_ee_gossip(&g, &cfg, 7);
        let b = run_ee_gossip(&g, &cfg, 7);
        assert_eq!(a.gossip_time, b.gossip_time);
        assert_eq!(a.metrics.per_node(), b.metrics.per_node());
    }
}
