//! **Bit-identity pins for the v2 fused-engine contract.**
//!
//! `tests/v2_equivalence.rs` checks the v2 engine is *statistically*
//! right; this suite checks it never *changes*. Every decide/receive
//! draw under the v2 contract is a pure function of
//! `(run_seed, node, round)`, so a fused run's `RunResult` is a frozen
//! artifact: any refactor of the decide phase — batching, wide RNG
//! kernels, fast-path comparisons — must reproduce these exact
//! trajectories or it has silently broken the contract (and with it the
//! committed `results/sweep_e18.json`).
//!
//! The pinned values were captured from the engine as of PR 5/6 (the
//! first counter-based-stream implementation, one scalar ChaCha block
//! per draw). If a pin trips, the fix is to restore bit-compatibility,
//! not to refresh the constant — refreshing is only legitimate for a
//! *deliberate*, documented contract change, which also obsoletes every
//! committed v2 sweep artifact.

use adhoc_radio::core::broadcast::decay::DecayConfig;
use adhoc_radio::core::broadcast::ee_random::{EeBroadcastConfig, EeRandomBroadcast};
use adhoc_radio::core::broadcast::flood::FloodConfig;
use adhoc_radio::core::broadcast::windowed::{ProbSource, WindowedBroadcast, WindowedSpec};
use adhoc_radio::core::seq::{KDistribution, SharedSequence};
use adhoc_radio::graph::{GraphFamily, NodeId};
use adhoc_radio::sim::engine::run_protocol_fused;
use adhoc_radio::sim::reference::run_reference;
use adhoc_radio::sim::{
    Action, Battery, DecideStreams, EnergySession, Engine, EngineConfig, FusedDecide, LinearRadio,
    Protocol, RunResult,
};
use adhoc_radio::util::{derive_rng, split_seed};
use rand::RngCore;
use rand_chacha::ChaCha8Rng;

const N: usize = 256;

/// FNV-1a over a stream of u64s — stable, dependency-free.
fn mix(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// A fingerprint that covers everything observable about a run: round
/// count, completion, and the full per-node transmission vector (which
/// pins *who* transmitted, not just how much traffic there was).
fn fingerprint(run: &RunResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    mix(&mut h, run.rounds);
    mix(&mut h, u64::from(run.completed));
    mix(&mut h, run.metrics.total_transmissions());
    for &t in run.metrics.per_node() {
        mix(&mut h, u64::from(t));
    }
    h
}

/// Engine config that forces the parallel decide/scatter paths on even
/// at this small n, so multi-thread fingerprints exercise the fan-out.
fn cfg(max_rounds: u64, threads: usize) -> EngineConfig {
    EngineConfig {
        par_min_edges: 0,
        par_min_awake: 0,
        ..EngineConfig::with_max_rounds(max_rounds)
    }
    .with_threads(threads)
}

fn graph(family: GraphFamily, seed: u64) -> adhoc_radio::graph::DiGraph {
    let p = match family {
        GraphFamily::GnpDirected => 8.0 * (N as f64).ln() / N as f64,
        _ => {
            adhoc_radio::graph::generate::GeoParams::with_expected_degree(N, 8.0 * (N as f64).ln())
                .r_min
        }
    };
    family.generate(N, p, &mut derive_rng(seed, b"fp-g", 0))
}

/// Run `protocol` under v2 at 1 and 4 threads, assert the
/// trajectories agree, and return the (shared) fingerprint.
fn pinned_run<P, F>(make: F, max_rounds: u64, run_seed: u64) -> u64
where
    P: FusedDecide,
    F: Fn() -> P,
{
    let g = graph(GraphFamily::GnpDirected, run_seed);
    let fp_at = |threads: usize| {
        let mut p = make();
        fingerprint(&run_protocol_fused(
            &g,
            &mut p,
            cfg(max_rounds, threads),
            run_seed,
        ))
    };
    let serial = fp_at(1);
    assert_eq!(serial, fp_at(4), "thread count changed the trajectory");
    serial
}

#[test]
fn flood_fixed_q_is_pinned() {
    let q = (1.0 / (8.0 * (N as f64).ln())).min(1.0);
    let flood = FloodConfig::with_prob(q, 4_000);
    let fp = pinned_run(
        || WindowedBroadcast::new(N, 0, flood.spec()),
        flood.max_rounds,
        0xF100D,
    );
    assert_eq!(fp, 0x9942_0417_CAFB_EBFB, "flood trajectory changed");
}

#[test]
fn decay_cycle_is_pinned() {
    let decay = DecayConfig::new(N, 8);
    let fp = pinned_run(
        || WindowedBroadcast::new(N, 0, decay.spec()),
        decay.max_rounds(),
        0xDECA1,
    );
    assert_eq!(fp, 0xA346_ED8D_BCE6_3D50, "decay trajectory changed");
}

#[test]
fn alg1_gnp_is_pinned() {
    let p = 8.0 * (N as f64).ln() / N as f64;
    let cfg1 = EeBroadcastConfig::for_gnp(N, p);
    let fp = pinned_run(
        || EeRandomBroadcast::new(N, 0, cfg1),
        cfg1.schedule_end() + 2,
        0xA161,
    );
    assert_eq!(fp, 0xB5EA_AE91_6960_8F80, "Algorithm 1 trajectory changed");
}

#[test]
fn shared_sequence_source_is_pinned() {
    let dist = KDistribution::paper_alpha(8, 3.0);
    let seq_seed = 0x5E9;
    let fp = pinned_run(
        || {
            WindowedBroadcast::new(
                N,
                0,
                WindowedSpec {
                    source: ProbSource::Shared(SharedSequence::new(dist.clone(), seq_seed)),
                    window: Some(400),
                    early_stop: true,
                },
            )
        },
        2_000,
        0x5EA5,
    );
    assert_eq!(
        fp, 0xA950_B10B_F872_F870,
        "shared-sequence trajectory changed"
    );
}

#[test]
fn private_distribution_source_is_pinned() {
    // `Private` draws its k from the node's own decide lane *before*
    // the transmit coin — pins the draw order within a single decide.
    let dist = KDistribution::paper_alpha(8, 3.0);
    let fp = pinned_run(
        || {
            WindowedBroadcast::new(
                N,
                0,
                WindowedSpec {
                    source: ProbSource::Private(dist.clone()),
                    window: None,
                    early_stop: true,
                },
            )
        },
        4_000,
        0x9417,
    );
    assert_eq!(
        fp, 0x2DF2_3ACF_C700_3E77,
        "private-source trajectory changed"
    );
}

#[test]
fn geometric_topology_is_pinned() {
    let q = (1.0 / (8.0 * (N as f64).ln())).min(1.0);
    let flood = FloodConfig::with_prob(q, 4_000);
    let g = graph(GraphFamily::Geometric, 0x6E0);
    let fp_at = |threads: usize| {
        let mut p = WindowedBroadcast::new(N, 0, flood.spec());
        fingerprint(&run_protocol_fused(
            &g,
            &mut p,
            cfg(flood.max_rounds, threads),
            0x6E0,
        ))
    };
    let serial = fp_at(1);
    assert_eq!(serial, fp_at(4));
    assert_eq!(
        serial, 0x4C9D_59F2_CD30_E1F0,
        "geometric trajectory changed"
    );
}

#[test]
fn battery_depletion_dead_path_is_pinned() {
    // Batteries make the engine's Dead decide-event path live: nodes
    // 1..=40 deplete mid-run and must fail-stop at exactly the same
    // rounds regardless of how the decide phase is batched.
    let q = 0.2;
    let flood = FloodConfig::with_prob(q, 60);
    let g = graph(GraphFamily::GnpDirected, 0xBA77);
    let fp_at = |threads: usize| {
        let mut caps = vec![f64::INFINITY; N];
        for c in caps.iter_mut().take(41).skip(1) {
            *c = 4.0;
        }
        let mut session = EnergySession::new(N, LinearRadio::uniform_drain(1.0), 17)
            .with_battery(Battery::per_node(caps));
        let mut p = WindowedBroadcast::new(N, 0, flood.spec());
        let res = Engine::new(&g, cfg(flood.max_rounds, threads))
            .run(&mut p)
            .energy(&mut session)
            .v2(0xBA77);
        let mut h = fingerprint(&res.run);
        mix(&mut h, res.energy.depleted_count() as u64);
        h
    };
    let serial = fp_at(1);
    assert_eq!(serial, fp_at(4));
    assert_eq!(
        serial, 0xA417_5F7E_B90E_5E3E,
        "battery/Dead trajectory changed"
    );
}

#[test]
fn fingerprints_depend_on_the_seed() {
    // Anti-vacuity: the fingerprint function must actually see the
    // trajectory (a constant hash would pin nothing).
    let q = 0.1;
    let flood = FloodConfig::with_prob(q, 1_000);
    let g = graph(GraphFamily::GnpDirected, 1);
    let fp = |seed: u64| {
        let mut p = WindowedBroadcast::new(N, 0, flood.spec());
        fingerprint(&run_protocol_fused(
            &g,
            &mut p,
            cfg(flood.max_rounds, 1),
            seed,
        ))
    };
    assert_ne!(fp(split_seed(1, b"a", 0)), fp(split_seed(1, b"a", 1)));
}

// --- the receive lane -------------------------------------------------
//
// No production protocol draws in `on_receive`, so the pins above never
// read the v2 receive lane. `ReceiveCoin` does: every reception draws
// one `u64` from the receiver's receive lane, and that draw arms (or
// disarms) the node's next transmission, so a wrong draw changes the
// trajectory as well as the log.

/// Where a receiver stood in v2's awake-list discipline
/// when `on_receive` fired: the four states the delivery sweep must
/// serve the node's receive lane from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Listing {
    /// Never on this run's awake list (its first wake).
    Fresh,
    /// Awake and listed.
    Awake,
    /// Asleep but still listed: a stale entry awaiting compaction.
    Stale,
    /// Listed earlier in this run, then dropped by compaction.
    Compacted,
}

/// Every `SWEEP`th round, every node that is not armed goes to sleep:
/// mass passivation that trips v2's stale compaction.
const SWEEP: u64 = 10;

/// A [`FusedDecide`] protocol that draws on reception. Alongside its
/// state it mirrors v2's documented awake-list discipline
/// (sleepers stay listed as stale entries until more than half of the
/// list is stale, then one pass drops them) to label each reception
/// with its [`Listing`]; the mirror never influences a decision.
struct ReceiveCoin {
    /// Transmit at the next decide; set by the receive-lane draw.
    armed: Vec<bool>,
    /// `(node, round, draw, listing)` per `on_receive` call.
    log: Vec<(NodeId, u64, u64, Listing)>,
    /// `(node, round)` per committed transmission.
    sends: Vec<(NodeId, u64)>,
    awake: Vec<bool>,
    listed: Vec<bool>,
    ever_listed: Vec<bool>,
    list: Vec<NodeId>,
    stale: usize,
    /// Last round whose compaction check the mirror has applied.
    settled: u64,
}

impl ReceiveCoin {
    fn new(n: usize) -> Self {
        let mut armed = vec![false; n];
        armed[0] = true;
        let mut awake = vec![false; n];
        awake[0] = true;
        ReceiveCoin {
            armed,
            log: Vec::new(),
            sends: Vec::new(),
            awake: awake.clone(),
            listed: awake.clone(),
            ever_listed: awake,
            list: vec![0],
            stale: 0,
            settled: 0,
        }
    }

    /// Apply the engine's end-of-commit compaction check for `round`
    /// (idempotent). It runs after the round's commits and before its
    /// deliveries, so the mirror applies it at the round's first
    /// reception, or at the next round's start if nothing was received.
    fn settle(&mut self, round: u64) {
        if self.settled >= round {
            return;
        }
        self.settled = round;
        if self.stale * 2 > self.list.len() {
            let (awake, listed) = (&self.awake, &mut self.listed);
            self.list.retain(|&v| {
                listed[v as usize] = awake[v as usize];
                awake[v as usize]
            });
            self.stale = 0;
        }
    }
}

impl Protocol for ReceiveCoin {
    type Msg = ();
    fn initially_awake(&self) -> Vec<NodeId> {
        vec![0]
    }
    fn decide(&mut self, node: NodeId, round: u64, rng: &mut ChaCha8Rng) -> Action {
        self.decide_and_commit(node, round, rng)
    }
    fn payload(&self, _n: NodeId, _r: u64) -> Self::Msg {}
    fn on_receive(
        &mut self,
        node: NodeId,
        _from: NodeId,
        round: u64,
        _msg: &Self::Msg,
        rng: &mut ChaCha8Rng,
    ) {
        self.settle(round);
        let v = node as usize;
        let draw = rng.next_u64();
        let listing = match (self.listed[v], self.awake[v], self.ever_listed[v]) {
            (true, true, _) => Listing::Awake,
            (true, false, _) => Listing::Stale,
            (false, _, true) => Listing::Compacted,
            (false, _, false) => Listing::Fresh,
        };
        self.log.push((node, round, draw, listing));
        self.armed[v] = draw.is_multiple_of(8);
        if !self.awake[v] {
            self.awake[v] = true;
            if self.listed[v] {
                self.stale -= 1;
            } else {
                self.listed[v] = true;
                self.ever_listed[v] = true;
                self.list.push(node);
            }
        }
    }
    fn is_complete(&self) -> bool {
        false
    }
    fn informed_count(&self) -> usize {
        self.ever_listed.iter().filter(|&&b| b).count()
    }
    fn active_count(&self) -> usize {
        self.armed.iter().filter(|&&b| b).count()
    }
}

impl FusedDecide for ReceiveCoin {
    fn begin_round(&mut self, round: u64) {
        self.settle(round - 1);
    }
    fn decide_pure(&self, node: NodeId, round: u64, rng: &mut ChaCha8Rng) -> Action {
        if self.armed[node as usize] {
            return Action::Transmit;
        }
        if round.is_multiple_of(SWEEP) || rng.next_u64().is_multiple_of(4) {
            Action::Sleep
        } else {
            Action::Silent
        }
    }
    fn commit_decide(&mut self, node: NodeId, round: u64, action: Action) {
        match action {
            Action::Transmit => {
                self.armed[node as usize] = false;
                self.sends.push((node, round));
            }
            Action::Sleep => {
                self.awake[node as usize] = false;
                self.stale += 1;
            }
            Action::Silent => {}
        }
    }
}

const RX_ROUNDS: u64 = 40;
const RX_SEED: u64 = 0x5EC7;
/// `rx_fingerprint` of the `RX_SEED` run, recorded before the fused
/// delivery sweep served receive lanes from the per-run key cache.
const RX_PIN: u64 = 0xF060_AF7A_E901_B607;

/// The run fingerprint extended by every logged receive draw.
fn rx_fingerprint(run: &RunResult, p: &ReceiveCoin) -> u64 {
    let mut h = fingerprint(run);
    for &(v, r, draw, _) in &p.log {
        mix(&mut h, u64::from(v));
        mix(&mut h, r);
        mix(&mut h, draw);
    }
    h
}

/// Every logged draw is the first `u64` of the receiver's receive lane,
/// derived from scratch for `run_seed`.
fn assert_draws_from_scratch(p: &ReceiveCoin, run_seed: u64) {
    let streams = DecideStreams::new(run_seed);
    for &(v, r, draw, listing) in &p.log {
        assert_eq!(
            draw,
            streams.receive_rng(v, r).next_u64(),
            "node {v} round {r} ({listing:?}) drew off its receive lane"
        );
    }
}

#[test]
fn receive_lane_is_pinned_in_every_cache_state() {
    let g = graph(GraphFamily::GnpDirected, RX_SEED);
    let run_at = |threads: usize| {
        let mut p = ReceiveCoin::new(N);
        let run = run_protocol_fused(&g, &mut p, cfg(RX_ROUNDS, threads), RX_SEED);
        assert_draws_from_scratch(&p, RX_SEED);
        (rx_fingerprint(&run, &p), p)
    };
    let (serial, p) = run_at(1);
    for listing in [
        Listing::Fresh,
        Listing::Awake,
        Listing::Stale,
        Listing::Compacted,
    ] {
        assert!(
            p.log.iter().any(|e| e.3 == listing),
            "no reception by a {listing:?} node"
        );
    }
    for threads in [2, 4] {
        assert_eq!(serial, run_at(threads).0, "{threads} threads diverged");
    }
    assert_eq!(serial, RX_PIN, "receive-lane trajectory changed");
}

#[test]
fn receive_lane_survives_engine_reuse_across_seeds() {
    // An engine pools its per-node scratch across runs, so a run on
    // seed B starts with whatever seed A left behind. Each run must
    // still draw from its own seed's lanes, and rerunning A must
    // reproduce A exactly.
    let g = graph(GraphFamily::GnpDirected, RX_SEED);
    let (a, b) = (RX_SEED, split_seed(RX_SEED, b"rx-b", 0));
    for threads in [1, 2] {
        let mut eng = Engine::new(&g, cfg(RX_ROUNDS, threads));
        let mut run = |seed: u64| {
            let mut p = ReceiveCoin::new(N);
            let res = eng.run(&mut p).v2(seed);
            assert_draws_from_scratch(&p, seed);
            (rx_fingerprint(&res, &p), p.log)
        };
        let first_a = run(a);
        let on_b = run(b);
        let second_a = run(a);
        assert_eq!(first_a.0, RX_PIN);
        assert_eq!(first_a, second_a, "seed B leaked into the rerun of seed A");
        let mut p = ReceiveCoin::new(N);
        let fresh_b = run_protocol_fused(&g, &mut p, cfg(RX_ROUNDS, threads), b);
        assert_eq!(
            on_b.0,
            rx_fingerprint(&fresh_b, &p),
            "reused engine diverged on B"
        );
    }
}

#[test]
fn depleted_receivers_get_no_receive_call() {
    // Every third node carries a battery that runs out at the end of
    // round 4..=10 (uniform drain: one unit per round), so it is dead
    // from the next round on and must never reach `on_receive` again.
    let g = graph(GraphFamily::GnpDirected, RX_SEED);
    let fp_at = |threads: usize| {
        let caps = (0..N)
            .map(|v| match v % 3 {
                1 => (4 + v % 7) as f64,
                _ => f64::INFINITY,
            })
            .collect();
        let mut session = EnergySession::new(N, LinearRadio::uniform_drain(1.0), 17)
            .with_battery(Battery::per_node(caps));
        let mut p = ReceiveCoin::new(N);
        let res = Engine::new(&g, cfg(RX_ROUNDS, threads))
            .run(&mut p)
            .energy(&mut session)
            .v2(RX_SEED);
        assert_draws_from_scratch(&p, RX_SEED);
        let dead = |v: NodeId, r: u64| res.energy.depleted_round(v).is_some_and(|d| d < r);
        for &(v, r, _, _) in &p.log {
            assert!(!dead(v, r), "depleted node {v} received in round {r}");
        }
        // Anti-vacuity: count the clean single-transmitter hits on dead
        // nodes, i.e. the receptions the battery suppressed.
        let mut heard = std::collections::HashMap::new();
        for &(u, r) in &p.sends {
            for &v in g.out_neighbors(u) {
                *heard.entry((v, r)).or_insert(0u32) += 1;
            }
        }
        let suppressed = heard
            .iter()
            .filter(|&(&(v, r), &c)| c == 1 && dead(v, r))
            .count();
        assert!(suppressed > 0, "no reception was suppressed");
        let mut h = rx_fingerprint(&res.run, &p);
        mix(&mut h, res.energy.depleted_count() as u64);
        h
    };
    let serial = fp_at(1);
    assert_eq!(serial, fp_at(4), "thread count changed the trajectory");
}

#[test]
fn v1_receive_draws_match_the_reference() {
    // On the v1 contract `on_receive` draws from the run's one shared
    // stream, interleaved with the decide draws: the engine and the
    // naive oracle must consume it identically.
    let g = graph(GraphFamily::GnpDirected, RX_SEED);
    let cfg1 = EngineConfig::with_max_rounds(RX_ROUNDS);
    let rng = || derive_rng(RX_SEED, b"rx-v1", 0);
    let mut p = ReceiveCoin::new(N);
    let run = Engine::new(&g, cfg1).run(&mut p).v1(&mut rng());
    let mut q = ReceiveCoin::new(N);
    let oracle = run_reference(&g, &mut q, cfg1, &mut rng());
    assert!(p.log.len() > 100, "too few receptions to compare");
    assert_eq!(p.log, q.log, "receive draws diverged from the reference");
    assert_eq!(run, oracle);
}
