//! The wake gate: a reception wakes only a node whose radio is on.
//!
//! After a delivery the engine puts a sleeping receiver back on the poll
//! list only if `Protocol::radio_off` reports its radio on. The hint's
//! obligation says the skipped poll would have returned `Sleep`, drawn
//! nothing and changed no state, so skipping it must change no result:
//!
//! * **v1**: the engine equals the naive `reference` oracle, which wakes
//!   every receiver, for each in-tree protocol that overrides
//!   `radio_off` — Algorithm 1 under both Phase-2 readings, `Faulty`
//!   around Algorithm 1 and around windowed Decay under a random
//!   `CrashPlan`, and Elsässer–Gasieniec.
//! * **v2**: Algorithm 1 and windowed Decay each equal themselves behind
//!   a wrapper whose radio is always on, at 1, 2 and 3 threads with every
//!   fan-out forced.
//! * **Teeth**: a protocol that breaks the obligation — its radio-off
//!   nodes draw in `decide` — makes the v1 ≡ oracle check fail.
//!
//! Each check also demands that the gate fired: the gated engine polled
//! fewer nodes than the oracle (v1) or the always-on wrapper (v2).

use adhoc_radio::core::broadcast::decay::DecayConfig;
use adhoc_radio::core::broadcast::ee_random::{EeBroadcastConfig, EeRandomBroadcast};
use adhoc_radio::core::broadcast::eg::{EgBroadcast, EgBroadcastConfig};
use adhoc_radio::core::broadcast::{Broadcast, WindowedBroadcast};
use adhoc_radio::graph::generate::gnp_directed;
use adhoc_radio::graph::{DiGraph, NodeId};
use adhoc_radio::sim::engine::run_protocol_fused_traced;
use adhoc_radio::sim::reference::run_reference;
use adhoc_radio::sim::{
    Action, CrashPlan, Engine, EngineConfig, Faulty, FusedDecide, Protocol, RunResult,
};
use adhoc_radio::trace::{TraceEvent, TraceSink};
use adhoc_radio::util::{derive_rng, split_seed};
use rand::RngExt;
use rand_chacha::ChaCha8Rng;

const SIZES: [usize; 3] = [64, 256, 1024];
const SEEDS: u64 = 8;

/// A `G(n, p)` in Algorithm 1's Phase-2 regime (`p ≤ n^{−2/5}`), so both
/// Phase-2 readings differ: `p = min(8 ln n / n, 0.9 n^{−2/5})`.
fn instance(n: usize, seed: u64) -> (DiGraph, f64) {
    let p = (8.0 * (n as f64).ln() / n as f64).min(0.9 * (n as f64).powf(-0.4));
    let g = gnp_directed(n, p, &mut derive_rng(seed, b"wake-gate-g", n as u64));
    (g, p)
}

/// Algorithm 1 with the full energy schedule (no early stop), so passive
/// nodes keep receiving duplicates to the end.
fn alg1(n: usize, p: f64, all_passive: bool) -> EeBroadcastConfig {
    EeBroadcastConfig {
        phase2_all_passive: all_passive,
        ..EeBroadcastConfig::for_gnp(n, p)
    }
}

/// Decay whose nodes retire two epochs after they are informed, running
/// its whole budget.
fn decay(n: usize) -> DecayConfig {
    let base = DecayConfig::new(n, 8);
    DecayConfig {
        window: Some(2 * u64::from(base.epoch_len())),
        early_stop: false,
        ..base
    }
}

/// A crash plan over 10 % of the nodes at a seeded round in `1..=8`,
/// sparing the source.
fn crashes(n: usize, seed: u64) -> CrashPlan {
    let mut rng = derive_rng(seed, b"wake-gate-crash", n as u64);
    let round = rng.random_range(1..=8u64);
    CrashPlan::random_fraction(n, 0.1, round, &mut rng).spare(0)
}

/// Forwards `inner` and counts its v1 polls. With `always_on` it
/// reports every radio on, so the engine wakes every receiver, as the
/// oracle does.
struct Wrapped<P> {
    inner: P,
    always_on: bool,
    polls: u64,
}

impl<P> Wrapped<P> {
    fn new(inner: P, always_on: bool) -> Self {
        Wrapped {
            inner,
            always_on,
            polls: 0,
        }
    }
}

impl<P: Protocol> Protocol for Wrapped<P> {
    type Msg = P::Msg;
    fn initially_awake(&self) -> Vec<NodeId> {
        self.inner.initially_awake()
    }
    fn decide(&mut self, node: NodeId, round: u64, rng: &mut ChaCha8Rng) -> Action {
        self.polls += 1;
        self.inner.decide(node, round, rng)
    }
    fn payload(&self, node: NodeId, round: u64) -> Self::Msg {
        self.inner.payload(node, round)
    }
    fn on_receive(
        &mut self,
        node: NodeId,
        from: NodeId,
        round: u64,
        msg: &Self::Msg,
        rng: &mut ChaCha8Rng,
    ) {
        self.inner.on_receive(node, from, round, msg, rng);
    }
    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }
    fn informed_count(&self) -> usize {
        self.inner.informed_count()
    }
    fn radio_off(&self, node: NodeId, round: u64) -> bool {
        !self.always_on && self.inner.radio_off(node, round)
    }
}

impl<P: FusedDecide> FusedDecide for Wrapped<P> {
    fn begin_round(&mut self, round: u64) {
        self.inner.begin_round(round);
    }
    fn decide_pure(&self, node: NodeId, round: u64, rng: &mut ChaCha8Rng) -> Action {
        self.inner.decide_pure(node, round, rng)
    }
    fn commit_decide(&mut self, node: NodeId, round: u64, action: Action) {
        self.inner.commit_decide(node, round, action);
    }
}

/// Sums `RoundEnd::awake`: the awake node-rounds, each of which is a
/// poll in the next round.
#[derive(Default)]
struct AwakeRounds(u64);

impl TraceSink for AwakeRounds {
    const ACTIVE: bool = true;
    fn emit(&mut self, ev: TraceEvent) {
        if let TraceEvent::RoundEnd { awake, .. } = ev {
            self.0 += awake;
        }
    }
}

/// The observable protocol state the checks compare besides the
/// `RunResult`, given the node count.
type State<P> = fn(&P, usize) -> Vec<u64>;

fn alg1_state(p: &EeRandomBroadcast, n: usize) -> Vec<u64> {
    (0..n as NodeId)
        .map(|v| p.informed_round(v).unwrap_or(u64::MAX))
        .collect()
}

fn windowed_state(p: &WindowedBroadcast, n: usize) -> Vec<u64> {
    (0..n as NodeId).map(|v| p.informed_round(v)).collect()
}

fn eg_state(p: &EgBroadcast, _n: usize) -> Vec<u64> {
    let time = p.broadcast_time().unwrap_or(u64::MAX);
    vec![p.informed_count() as u64, time]
}

/// Run `make()` on `g` through the v1 engine and through the oracle from
/// the same seed. `Ok` carries how many polls the engine skipped; `Err`
/// describes the first difference.
fn v1_vs_oracle<P: Protocol>(
    g: &DiGraph,
    make: impl Fn() -> P,
    max_rounds: u64,
    seed: u64,
    state: State<P>,
) -> Result<u64, String> {
    let cfg = EngineConfig::with_max_rounds(max_rounds);
    let stream = || derive_rng(seed, b"wake-gate-run", 0);
    let mut fast = Wrapped::new(make(), false);
    let fast_run = Engine::new(g, cfg).run(&mut fast).v1(&mut stream());
    let mut slow = Wrapped::new(make(), false);
    let slow_run = run_reference(g, &mut slow, cfg, &mut stream());
    if fast_run != slow_run {
        return Err(format!(
            "run results differ: {} vs {} rounds, {} vs {} transmissions",
            fast_run.rounds,
            slow_run.rounds,
            fast_run.metrics.total_transmissions(),
            slow_run.metrics.total_transmissions()
        ));
    }
    if state(&fast.inner, g.n()) != state(&slow.inner, g.n()) {
        return Err("protocol states differ".into());
    }
    slow.polls.checked_sub(fast.polls).ok_or(format!(
        "the engine polled more than the oracle: {} > {}",
        fast.polls, slow.polls
    ))
}

/// [`v1_vs_oracle`] at every size and seed: each must match, and the
/// gate must have skipped polls somewhere.
fn v1_matches_oracle<P: Protocol>(
    what: &str,
    make: impl Fn(usize, f64, u64) -> P,
    max_rounds: impl Fn(usize, f64) -> u64,
    state: State<P>,
) {
    let mut skipped = 0;
    for n in SIZES {
        for seed in 0..SEEDS {
            let (g, p) = instance(n, seed);
            match v1_vs_oracle(&g, || make(n, p, seed), max_rounds(n, p), seed, state) {
                Ok(s) => skipped += s,
                Err(e) => panic!("{what}, n = {n}, seed {seed}: {e}"),
            }
        }
    }
    assert!(skipped > 0, "{what}: the gate never skipped a poll");
}

/// Under v2 at 1, 2 and 3 threads with every fan-out forced, `make()`
/// must equal itself behind an always-on [`Wrapped`] at every size and
/// seed, and every thread count must equal the serial run; the gate
/// must have saved awake node-rounds somewhere.
fn v2_matches_always_on<P: FusedDecide>(
    what: &str,
    make: impl Fn(usize, f64) -> P,
    max_rounds: impl Fn(usize, f64) -> u64,
    state: State<P>,
) {
    let mut saved = 0;
    for n in SIZES {
        for seed in 0..SEEDS {
            let (g, p) = instance(n, seed);
            let run_seed = split_seed(seed, b"wake-gate-v2", n as u64);
            let mut serial: Option<(RunResult, Vec<u64>)> = None;
            for threads in [1, 2, 3] {
                let mut cfg = EngineConfig::with_max_rounds(max_rounds(n, p)).with_threads(threads);
                cfg.par_min_edges = 0;
                cfg.par_min_edges_implicit = 0;
                cfg.par_min_awake = 0;
                let at = format!("{what}, n = {n}, seed {seed}, {threads} thread(s)");

                let mut gated = make(n, p);
                let mut gated_awake = AwakeRounds::default();
                let run =
                    run_protocol_fused_traced(&g, &mut gated, cfg, run_seed, &mut gated_awake);
                let mut on = Wrapped::new(make(n, p), true);
                let mut on_awake = AwakeRounds::default();
                let on_run = run_protocol_fused_traced(&g, &mut on, cfg, run_seed, &mut on_awake);
                assert_eq!(run, on_run, "{at}: run results differ");
                let got = state(&gated, n);
                assert_eq!(got, state(&on.inner, n), "{at}: protocol states differ");
                let (serial_run, serial_state) = serial.get_or_insert((run.clone(), got.clone()));
                assert_eq!(&run, serial_run, "{at}: differs from the serial run");
                assert_eq!(
                    &got, serial_state,
                    "{at}: state differs from the serial run"
                );
                assert!(
                    gated_awake.0 <= on_awake.0,
                    "{at}: the gate added awake node-rounds"
                );
                saved += on_awake.0 - gated_awake.0;
            }
        }
    }
    assert!(saved > 0, "{what}: the gate never saved a node-round");
}

#[test]
fn v1_algorithm1_matches_the_oracle_under_both_phase2_readings() {
    for all_passive in [true, false] {
        v1_matches_oracle(
            &format!("Algorithm 1, phase2_all_passive = {all_passive}"),
            |n, p, _| EeRandomBroadcast::new(n, 0, alg1(n, p, all_passive)),
            |n, p| alg1(n, p, all_passive).schedule_end() + 2,
            alg1_state,
        );
    }
}

#[test]
fn v1_faulty_algorithm1_matches_the_oracle() {
    v1_matches_oracle(
        "Faulty<Algorithm 1>",
        |n, p, seed| {
            Faulty::new(
                EeRandomBroadcast::new(n, 0, alg1(n, p, true)),
                crashes(n, seed),
            )
        },
        |n, p| alg1(n, p, true).schedule_end() + 2,
        |f, n| alg1_state(f.inner(), n),
    );
}

#[test]
fn v1_faulty_windowed_decay_matches_the_oracle() {
    v1_matches_oracle(
        "Faulty<windowed Decay>",
        |n, _, seed| {
            Faulty::new(
                WindowedBroadcast::new(n, 0, decay(n).spec()),
                crashes(n, seed),
            )
        },
        |n, _| decay(n).max_rounds(),
        |f, n| windowed_state(f.inner(), n),
    );
}

#[test]
fn v1_elsasser_gasieniec_matches_the_oracle() {
    v1_matches_oracle(
        "Elsässer–Gasieniec",
        |n, p, _| EgBroadcast::new(n, 0, EgBroadcastConfig::for_gnp(n, p)),
        |n, p| EgBroadcastConfig::for_gnp(n, p).schedule_end() + 2,
        eg_state,
    );
}

#[test]
fn v2_algorithm1_matches_itself_with_every_radio_on() {
    for all_passive in [true, false] {
        v2_matches_always_on(
            &format!("Algorithm 1, phase2_all_passive = {all_passive}"),
            |n, p| EeRandomBroadcast::new(n, 0, alg1(n, p, all_passive)),
            |n, p| alg1(n, p, all_passive).schedule_end() + 2,
            alg1_state,
        );
    }
}

#[test]
fn v2_windowed_decay_matches_itself_with_every_radio_on() {
    v2_matches_always_on(
        "windowed Decay",
        |n, _| WindowedBroadcast::new(n, 0, decay(n).spec()),
        |n, _| decay(n).max_rounds(),
        windowed_state,
    );
}

/// Breaks the obligation: a node that has transmitted reports its radio
/// off, yet a poll of it draws a coin before it sleeps. The source never
/// retires and flips a coin every round, and the rounds it transmitted
/// in are part of the compared state, so a shifted stream shows.
struct DrawsWhileOff {
    informed: Vec<bool>,
    sent: Vec<bool>,
    source_rounds: Vec<u64>,
}

impl Protocol for DrawsWhileOff {
    type Msg = ();
    fn initially_awake(&self) -> Vec<NodeId> {
        vec![0]
    }
    fn decide(&mut self, node: NodeId, round: u64, rng: &mut ChaCha8Rng) -> Action {
        let sent = &mut self.sent[node as usize];
        if node == 0 {
            if !rng.random_bool(0.3) {
                return Action::Silent;
            }
            self.source_rounds.push(round);
            Action::Transmit
        } else if *sent {
            let _ = rng.random_bool(0.5);
            Action::Sleep
        } else if rng.random_bool(0.3) {
            *sent = true;
            Action::Transmit
        } else {
            Action::Silent
        }
    }
    fn payload(&self, _node: NodeId, _round: u64) -> Self::Msg {}
    fn on_receive(
        &mut self,
        node: NodeId,
        _from: NodeId,
        _round: u64,
        _msg: &Self::Msg,
        _rng: &mut ChaCha8Rng,
    ) {
        self.informed[node as usize] = true;
    }
    fn is_complete(&self) -> bool {
        false
    }
    fn informed_count(&self) -> usize {
        self.informed.iter().filter(|&&b| b).count()
    }
    fn radio_off(&self, node: NodeId, _round: u64) -> bool {
        node != 0 && self.sent[node as usize]
    }
}

#[test]
fn a_radio_off_node_that_draws_breaks_the_oracle_check() {
    let mut failed = 0;
    for n in SIZES {
        for seed in 0..SEEDS {
            let (g, _) = instance(n, seed);
            let make = || {
                let mut informed = vec![false; n];
                informed[0] = true;
                DrawsWhileOff {
                    informed,
                    sent: vec![false; n],
                    source_rounds: Vec::new(),
                }
            };
            let state: State<DrawsWhileOff> = |p, _| p.source_rounds.clone();
            if v1_vs_oracle(&g, make, 60, seed, state).is_err() {
                failed += 1;
            }
        }
    }
    assert_eq!(
        failed,
        SIZES.len() as u64 * SEEDS,
        "the v1 ≡ oracle check missed a broken obligation"
    );
}
