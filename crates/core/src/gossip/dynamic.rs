//! Dynamic gossiping — the variant the paper sketches at the end of §3:
//! *"provide every message with a time stamp (generation time), and …
//! delete old messages out of the `m_t(i)` messages"*.
//!
//! Rumors are born on a schedule (round, origin) and carry a TTL; a node
//! forwards only rumors that are still alive, so the joined message stays
//! bounded even over an infinite run. The interesting measurements are
//! per-rumor: what fraction of the network a rumor reaches before it
//! expires, as a function of TTL relative to the static gossip time
//! `Θ(d log n)`.

use crate::params::GnpParams;
use radio_graph::{DiGraph, NodeId};
use radio_sim::{Action, EngineConfig, Protocol};
use radio_util::BitSet;
use rand::RngExt;
use rand_chacha::ChaCha8Rng;

/// One rumor's birth certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RumorBirth {
    /// Round in which the rumor appears at its origin (1-based; rumors
    /// born in round `r` are first transmittable in round `r + 1`).
    pub round: u64,
    /// Originating node.
    pub origin: NodeId,
}

/// Configuration for the dynamic gossip run.
#[derive(Debug, Clone)]
pub struct DynamicGossipConfig {
    /// `G(n,p)` parameters (transmit probability `1/d`).
    pub params: GnpParams,
    /// Birth schedule, sorted by round.
    pub births: Vec<RumorBirth>,
    /// Rounds a rumor stays alive (is forwarded) after birth.
    pub ttl: u64,
    /// Total rounds to simulate.
    pub rounds: u64,
}

/// Per-rumor dissemination result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RumorCoverage {
    /// The rumor's birth.
    pub birth: RumorBirth,
    /// Nodes that knew the rumor when it expired (or the run ended).
    pub reached: usize,
    /// Round the rumor reached every node, if it did so while alive.
    pub full_coverage_round: Option<u64>,
}

/// The dynamic-gossip protocol.
#[derive(Debug)]
pub struct DynamicGossip {
    cfg: DynamicGossipConfig,
    /// `known[v]` — rumor slots node `v` has heard (dead or alive).
    known: Vec<BitSet>,
    /// How many nodes know each rumor.
    reach: Vec<usize>,
    /// First full-coverage round per rumor.
    full_round: Vec<Option<u64>>,
    /// Index of the next birth to process.
    next_birth: usize,
    n: usize,
}

impl DynamicGossip {
    /// Fresh instance.
    ///
    /// # Panics
    /// Panics if the birth schedule is not sorted by round or any origin
    /// is out of range.
    pub fn new(cfg: DynamicGossipConfig) -> Self {
        let n = cfg.params.n;
        assert!(
            cfg.births.windows(2).all(|w| w[0].round <= w[1].round),
            "birth schedule must be sorted by round"
        );
        assert!(
            cfg.births.iter().all(|b| (b.origin as usize) < n),
            "birth origin out of range"
        );
        let k = cfg.births.len();
        DynamicGossip {
            known: (0..n).map(|_| BitSet::new(k)).collect(),
            reach: vec![0; k],
            full_round: vec![None; k],
            next_birth: 0,
            n,
            cfg,
        }
    }

    /// Rumor slots alive in `round`.
    fn alive_mask(&self, round: u64) -> BitSet {
        let mut m = BitSet::new(self.cfg.births.len());
        for (i, b) in self.cfg.births.iter().enumerate() {
            if b.round <= round && round <= b.round + self.cfg.ttl {
                m.insert(i);
            }
        }
        m
    }

    /// Deliver newly born rumors to their origins (called at round start).
    fn process_births(&mut self, round: u64) {
        while self.next_birth < self.cfg.births.len()
            && self.cfg.births[self.next_birth].round <= round
        {
            let b = self.cfg.births[self.next_birth];
            let slot = self.next_birth;
            if self.known[b.origin as usize].insert(slot) {
                self.reach[slot] += 1;
                if self.n == 1 {
                    self.full_round[slot] = Some(round);
                }
            }
            self.next_birth += 1;
        }
    }

    fn learn(&mut self, node: NodeId, slot: usize, round: u64) {
        if self.known[node as usize].insert(slot) {
            self.reach[slot] += 1;
            if self.reach[slot] == self.n && self.full_round[slot].is_none() {
                self.full_round[slot] = Some(round);
            }
        }
    }

    /// Coverage report after the run.
    pub fn coverage(&self) -> Vec<RumorCoverage> {
        self.cfg
            .births
            .iter()
            .enumerate()
            .map(|(i, &birth)| RumorCoverage {
                birth,
                reached: self.reach[i],
                full_coverage_round: self.full_round[i],
            })
            .collect()
    }
}

impl Protocol for DynamicGossip {
    type Msg = BitSet;

    fn initially_awake(&self) -> Vec<NodeId> {
        (0..self.n as NodeId).collect()
    }

    fn decide(&mut self, node: NodeId, round: u64, rng: &mut ChaCha8Rng) -> Action {
        // Births are processed once per round, when node polling reaches
        // the first node of the round sweep.
        if node == 0 || self.next_birth < self.cfg.births.len() {
            self.process_births(round);
        }
        if round > self.cfg.rounds {
            return Action::Sleep;
        }
        let q = (1.0 / self.cfg.params.d).min(1.0);
        if rng.random_bool(q) {
            Action::Transmit
        } else {
            Action::Silent
        }
    }

    fn payload(&self, node: NodeId, round: u64) -> Self::Msg {
        // Forward only live rumors: the time-stamp deletion rule.
        let mut msg = self.known[node as usize].clone();
        let alive = self.alive_mask(round);
        let mut filtered = BitSet::new(msg.capacity());
        for slot in msg.iter() {
            if alive.contains(slot) {
                filtered.insert(slot);
            }
        }
        msg = filtered;
        msg
    }

    fn on_receive(
        &mut self,
        node: NodeId,
        _from: NodeId,
        round: u64,
        msg: &Self::Msg,
        _rng: &mut ChaCha8Rng,
    ) {
        for slot in msg.iter() {
            self.learn(node, slot, round);
        }
    }

    fn is_complete(&self) -> bool {
        false // runs to its round budget
    }

    fn informed_count(&self) -> usize {
        self.reach.iter().filter(|&&r| r == self.n).count()
    }

    fn active_count(&self) -> usize {
        self.n
    }
}

/// Run dynamic gossip; returns per-rumor coverage.
pub fn run_dynamic_gossip(
    graph: &DiGraph,
    cfg: DynamicGossipConfig,
    seed: u64,
) -> Vec<RumorCoverage> {
    assert_eq!(graph.n(), cfg.params.n);
    let rounds = cfg.rounds;
    let mut protocol = DynamicGossip::new(cfg);
    let mut rng = radio_util::derive_rng(seed, b"engine", 0);
    let engine_cfg = EngineConfig::with_max_rounds(rounds + 1);
    let _ = radio_sim::Engine::new(graph, engine_cfg)
        .run(&mut protocol)
        .v1(&mut rng);
    protocol.coverage()
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::generate::gnp_directed;
    use radio_util::derive_rng;

    fn setup(n: usize, seed: u64) -> (DiGraph, GnpParams) {
        let p = 8.0 * (n as f64).ln() / n as f64;
        let g = gnp_directed(n, p, &mut derive_rng(seed, b"dyn-g", 0));
        (g, GnpParams::new(n, p))
    }

    #[test]
    fn generous_ttl_reaches_everyone() {
        let (g, params) = setup(128, 0);
        let scale = (params.d * (128f64).log2()) as u64;
        let cfg = DynamicGossipConfig {
            params,
            births: vec![RumorBirth {
                round: 1,
                origin: 0,
            }],
            ttl: 20 * scale,
            rounds: 20 * scale,
        };
        let cov = run_dynamic_gossip(&g, cfg, 0);
        assert_eq!(cov.len(), 1);
        assert_eq!(cov[0].reached, 128, "rumor should saturate the network");
        assert!(cov[0].full_coverage_round.is_some());
    }

    #[test]
    fn tiny_ttl_limits_spread() {
        let (g, params) = setup(128, 1);
        let cfg = DynamicGossipConfig {
            params,
            births: vec![RumorBirth {
                round: 1,
                origin: 0,
            }],
            ttl: 2,
            rounds: 5000,
        };
        let cov = run_dynamic_gossip(&g, cfg, 1);
        assert!(
            cov[0].reached < 128,
            "a 2-round TTL cannot reach all of a d≈39 network"
        );
    }

    #[test]
    fn staggered_births_all_tracked() {
        let (g, params) = setup(64, 2);
        let scale = (params.d * (64f64).log2()) as u64;
        let births: Vec<RumorBirth> = (0..4)
            .map(|i| RumorBirth {
                round: 1 + i * 10,
                origin: (i * 13 % 64) as NodeId,
            })
            .collect();
        let cfg = DynamicGossipConfig {
            params,
            births,
            ttl: 20 * scale,
            rounds: 25 * scale,
        };
        let cov = run_dynamic_gossip(&g, cfg, 2);
        assert_eq!(cov.len(), 4);
        for c in &cov {
            assert_eq!(c.reached, 64, "rumor {:?} under-covered", c.birth);
        }
    }

    #[test]
    #[should_panic]
    fn unsorted_schedule_rejected() {
        let (_, params) = setup(64, 3);
        let cfg = DynamicGossipConfig {
            params,
            births: vec![
                RumorBirth {
                    round: 9,
                    origin: 0,
                },
                RumorBirth {
                    round: 2,
                    origin: 1,
                },
            ],
            ttl: 10,
            rounds: 100,
        };
        let _ = DynamicGossip::new(cfg);
    }
}
