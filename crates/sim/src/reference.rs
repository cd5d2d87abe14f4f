//! A deliberately naive second implementation of the radio semantics.
//!
//! [`run_reference`] executes the *same* `(protocol, rng)` pair as a v1
//! run ([`Run::v1`](crate::Run::v1)) but computes receptions the slow,
//! obviously-correct way: for every node, count transmitting in-neighbours
//! via the in-adjacency lists and deliver iff the count is exactly one.
//!
//! For the two implementations to be comparable they must consume the RNG
//! identically, so the reference replicates the engine's polling and
//! delivery *order* exactly (awake list semantics, ascending delivery
//! order) and differs only in how collisions are detected. Property tests
//! in the crate root drive both with random graphs/protocols and assert
//! identical outcomes — the standard "differential testing against a
//! trivial oracle" pattern for simulators.

use crate::metrics::Metrics;
use crate::{Action, EngineConfig, Protocol, RunResult};
use radio_graph::{DiGraph, NodeId};
use rand_chacha::ChaCha8Rng;

/// Run `protocol` on `graph` with the naive O(Σ in-degree) semantics.
pub fn run_reference<P: Protocol>(
    graph: &DiGraph,
    protocol: &mut P,
    cfg: EngineConfig,
    rng: &mut ChaCha8Rng,
) -> RunResult {
    let n = graph.n();
    let mut metrics = Metrics::new(n);

    let mut is_awake = vec![false; n];
    let mut awake_list: Vec<NodeId> = Vec::new();
    let mut awake_count = 0usize;
    for v in protocol.initially_awake() {
        if !is_awake[v as usize] {
            is_awake[v as usize] = true;
            awake_count += 1;
            awake_list.push(v);
        }
    }

    let mut sent_this_round = vec![false; n];
    let mut rounds = 0u64;
    let mut completed = protocol.is_complete();

    while !completed && rounds < cfg.max_rounds && awake_count > 0 {
        rounds += 1;
        let round = rounds;

        // Poll in exactly the engine's order (compacting sweep).
        let mut transmitters: Vec<NodeId> = Vec::new();
        let mut w = 0usize;
        for r in 0..awake_list.len() {
            let v = awake_list[r];
            if !is_awake[v as usize] {
                continue;
            }
            match protocol.decide(v, round, rng) {
                Action::Silent => {
                    awake_list[w] = v;
                    w += 1;
                }
                Action::Transmit => {
                    transmitters.push(v);
                    awake_list[w] = v;
                    w += 1;
                }
                Action::Sleep => {
                    is_awake[v as usize] = false;
                    awake_count -= 1;
                }
            }
        }
        awake_list.truncate(w);

        for &u in &transmitters {
            metrics.record_transmission(u);
            sent_this_round[u as usize] = true;
        }

        // Naive reception: scan every node's full in-neighbour list.
        for v in 0..n as NodeId {
            let vi = v as usize;
            if cfg.half_duplex && sent_this_round[vi] {
                continue;
            }
            let mut heard: Option<NodeId> = None;
            let mut count = 0u32;
            for &u in graph.in_neighbors(v) {
                if sent_this_round[u as usize] {
                    count += 1;
                    heard = Some(u);
                }
            }
            if count == 1 {
                let from = heard.expect("count == 1 implies a source");
                let msg = protocol.payload(from, round);
                protocol.on_receive(v, from, round, &msg, rng);
                if !is_awake[vi] {
                    is_awake[vi] = true;
                    awake_count += 1;
                    awake_list.push(v);
                }
            }
        }

        for &u in &transmitters {
            sent_this_round[u as usize] = false;
        }

        completed = protocol.is_complete();
    }

    metrics.set_rounds(rounds);
    RunResult {
        rounds,
        completed,
        hit_round_cap: !completed && rounds >= cfg.max_rounds,
        metrics,
        trace: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use radio_graph::generate::gnp_directed;
    use radio_util::derive_rng;
    use rand::RngExt;

    /// A protocol with both randomness and sleep transitions, to exercise
    /// every ordering subtlety shared by engine and reference.
    struct RandomQuiet {
        informed: Vec<bool>,
        n_informed: usize,
        budget: Vec<u8>,
    }

    impl RandomQuiet {
        fn new(n: usize, budget: u8) -> Self {
            let mut informed = vec![false; n];
            informed[0] = true;
            RandomQuiet {
                informed,
                n_informed: 1,
                budget: vec![budget; n],
            }
        }
    }

    impl Protocol for RandomQuiet {
        type Msg = ();
        fn initially_awake(&self) -> Vec<NodeId> {
            vec![0]
        }
        fn decide(&mut self, node: NodeId, _round: u64, rng: &mut ChaCha8Rng) -> Action {
            let b = &mut self.budget[node as usize];
            if *b == 0 {
                return Action::Sleep;
            }
            if rng.random_bool(0.4) {
                *b -= 1;
                Action::Transmit
            } else {
                Action::Silent
            }
        }
        fn payload(&self, _n: NodeId, _r: u64) -> Self::Msg {}
        fn on_receive(
            &mut self,
            node: NodeId,
            _f: NodeId,
            _r: u64,
            _m: &Self::Msg,
            _rng: &mut ChaCha8Rng,
        ) {
            if !self.informed[node as usize] {
                self.informed[node as usize] = true;
                self.n_informed += 1;
            }
        }
        fn is_complete(&self) -> bool {
            self.n_informed == self.informed.len()
        }
        fn informed_count(&self) -> usize {
            self.n_informed
        }
        fn active_count(&self) -> usize {
            self.n_informed
        }
    }

    #[test]
    fn engine_matches_reference_on_random_graphs() {
        for seed in 0..10u64 {
            let g = gnp_directed(120, 0.06, &mut derive_rng(seed, b"refg", 0));
            let cfg = EngineConfig::with_max_rounds(400);

            let mut p1 = RandomQuiet::new(120, 3);
            let mut rng1 = derive_rng(seed, b"refrun", 0);
            let fast = Engine::new(&g, cfg).run(&mut p1).v1(&mut rng1);

            let mut p2 = RandomQuiet::new(120, 3);
            let mut rng2 = derive_rng(seed, b"refrun", 0);
            let slow = run_reference(&g, &mut p2, cfg, &mut rng2);

            assert_eq!(fast.rounds, slow.rounds, "seed {seed}");
            assert_eq!(fast.completed, slow.completed, "seed {seed}");
            assert_eq!(
                fast.metrics.per_node(),
                slow.metrics.per_node(),
                "seed {seed}"
            );
            assert_eq!(p1.informed, p2.informed, "seed {seed}");
        }
    }

    /// Gossip-style protocol with set-valued payloads: exercises the
    /// payload materialisation path of both engines.
    struct TinyGossip {
        known: Vec<radio_util::BitSet>,
        rounds_budget: u64,
    }

    impl TinyGossip {
        fn new(n: usize, rounds_budget: u64) -> Self {
            TinyGossip {
                known: (0..n)
                    .map(|v| {
                        let mut s = radio_util::BitSet::new(n);
                        s.insert(v);
                        s
                    })
                    .collect(),
                rounds_budget,
            }
        }
    }

    impl Protocol for TinyGossip {
        type Msg = radio_util::BitSet;
        fn initially_awake(&self) -> Vec<NodeId> {
            (0..self.known.len() as NodeId).collect()
        }
        fn decide(&mut self, _node: NodeId, round: u64, rng: &mut ChaCha8Rng) -> Action {
            if round > self.rounds_budget {
                return Action::Sleep;
            }
            if rng.random_bool(0.2) {
                Action::Transmit
            } else {
                Action::Silent
            }
        }
        fn payload(&self, node: NodeId, _round: u64) -> Self::Msg {
            self.known[node as usize].clone()
        }
        fn on_receive(
            &mut self,
            node: NodeId,
            _from: NodeId,
            _round: u64,
            msg: &Self::Msg,
            _rng: &mut ChaCha8Rng,
        ) {
            self.known[node as usize].union_with(msg);
        }
        fn is_complete(&self) -> bool {
            false
        }
        fn informed_count(&self) -> usize {
            self.known.iter().filter(|s| s.is_full()).count()
        }
        fn active_count(&self) -> usize {
            self.known.len()
        }
    }

    #[test]
    fn engine_matches_reference_with_gossip_payloads() {
        for seed in 30..36u64 {
            let g = gnp_directed(60, 0.12, &mut derive_rng(seed, b"refg", 2));
            let cfg = EngineConfig::with_max_rounds(80);
            let mut p1 = TinyGossip::new(60, 60);
            let mut rng1 = derive_rng(seed, b"refrun", 2);
            let fast = Engine::new(&g, cfg).run(&mut p1).v1(&mut rng1);
            let mut p2 = TinyGossip::new(60, 60);
            let mut rng2 = derive_rng(seed, b"refrun", 2);
            let slow = run_reference(&g, &mut p2, cfg, &mut rng2);
            assert_eq!(fast.rounds, slow.rounds, "seed {seed}");
            assert_eq!(fast.metrics.per_node(), slow.metrics.per_node());
            for v in 0..60 {
                assert_eq!(
                    p1.known[v].len(),
                    p2.known[v].len(),
                    "seed {seed}: node {v} rumor sets diverge"
                );
            }
        }
    }

    #[test]
    fn engine_matches_reference_full_duplex() {
        for seed in 20..25u64 {
            let g = gnp_directed(80, 0.1, &mut derive_rng(seed, b"refg", 1));
            let cfg = EngineConfig {
                max_rounds: 300,
                half_duplex: false,
                warn_on_round_cap: false,
                ..Default::default()
            };
            let mut p1 = RandomQuiet::new(80, 2);
            let mut rng1 = derive_rng(seed, b"refrun", 1);
            let fast = Engine::new(&g, cfg).run(&mut p1).v1(&mut rng1);
            let mut p2 = RandomQuiet::new(80, 2);
            let mut rng2 = derive_rng(seed, b"refrun", 1);
            let slow = run_reference(&g, &mut p2, cfg, &mut rng2);
            assert_eq!(fast.rounds, slow.rounds);
            assert_eq!(fast.metrics.per_node(), slow.metrics.per_node());
            assert_eq!(p1.informed, p2.informed);
        }
    }
}
