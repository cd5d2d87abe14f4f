//! Fail-stop fault injection.
//!
//! [`Faulty`] wraps any [`Protocol`] and crashes a chosen set of nodes at
//! chosen rounds: from its crash round on, a node never transmits again
//! and ignores everything it hears. This is the standard fail-stop model;
//! it composes with every algorithm in the workspace, so robustness
//! experiments (how many stragglers does Algorithm 1 leave if 10 % of the
//! Phase-2 actives die?) need no per-algorithm support.

use crate::{Action, Protocol};
use radio_graph::NodeId;
use rand::{Rng, RngExt};
use rand_chacha::ChaCha8Rng;

/// A fail-stop crash plan: node → crash round (inclusive).
#[derive(Debug, Clone, Default)]
pub struct CrashPlan {
    crash_at: Vec<Option<u64>>,
}

impl CrashPlan {
    /// No crashes, for `n` nodes.
    pub fn none(n: usize) -> Self {
        CrashPlan {
            crash_at: vec![None; n],
        }
    }

    /// Crash `node` at `round` (it still acts in rounds `< round`).
    pub fn crash(mut self, node: NodeId, round: u64) -> Self {
        self.crash_at[node as usize] = Some(round);
        self
    }

    /// Crash a uniformly random fraction `f` of nodes, all at `round`.
    ///
    /// # Panics
    /// Panics if `f ∉ [0, 1]`.
    pub fn random_fraction<R: Rng + ?Sized>(n: usize, f: f64, round: u64, rng: &mut R) -> Self {
        assert!((0.0..=1.0).contains(&f), "fraction {f} out of [0,1]");
        let mut plan = Self::none(n);
        for v in 0..n {
            if rng.random_bool(f) {
                plan.crash_at[v] = Some(round);
            }
        }
        plan
    }

    /// Remove any scheduled crash for `node` (e.g. to keep the broadcast
    /// source alive so runs measure dissemination, not source loss).
    pub fn spare(mut self, node: NodeId) -> Self {
        self.crash_at[node as usize] = None;
        self
    }

    /// Is `node` crashed in `round`?
    #[inline]
    pub fn is_crashed(&self, node: NodeId, round: u64) -> bool {
        matches!(self.crash_at[node as usize], Some(r) if round >= r)
    }

    /// Nodes that never crash.
    pub fn survivors(&self) -> Vec<NodeId> {
        self.crash_at
            .iter()
            .enumerate()
            .filter_map(|(v, c)| c.is_none().then_some(v as NodeId))
            .collect()
    }

    /// Number of nodes scheduled to crash.
    pub fn crash_count(&self) -> usize {
        self.crash_at.iter().filter(|c| c.is_some()).count()
    }

    /// Number of *distinct* nodes failed by the end of `round`, merging
    /// this plan's scheduled crashes with battery depletions:
    /// `depleted_at` is the per-node depletion-round array of an
    /// [`EnergyMetrics`](crate::EnergyMetrics) (`u64::MAX` = alive; pass
    /// `&[]` for runs without batteries). A node that both crashes and
    /// depletes — in the same round or otherwise — is counted exactly
    /// once, which is what sweep summaries must report when the two fault
    /// paths overlap.
    pub fn failed_by(&self, round: u64, depleted_at: &[u64]) -> usize {
        (0..self.crash_at.len())
            .filter(|&v| {
                matches!(self.crash_at[v], Some(r) if r <= round)
                    || depleted_at.get(v).is_some_and(|&r| r <= round)
            })
            .count()
    }
}

/// Protocol adapter injecting fail-stop crashes.
#[derive(Debug)]
pub struct Faulty<P> {
    inner: P,
    plan: CrashPlan,
}

impl<P> Faulty<P> {
    /// Wrap `inner` with `plan`.
    pub fn new(inner: P, plan: CrashPlan) -> Self {
        Faulty { inner, plan }
    }

    /// The wrapped protocol (for post-run inspection).
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The crash plan.
    pub fn plan(&self) -> &CrashPlan {
        &self.plan
    }
}

impl<P: Protocol> Protocol for Faulty<P> {
    type Msg = P::Msg;

    fn initially_awake(&self) -> Vec<NodeId> {
        self.inner.initially_awake()
    }

    fn decide(&mut self, node: NodeId, round: u64, rng: &mut ChaCha8Rng) -> Action {
        if self.plan.is_crashed(node, round) {
            return Action::Sleep;
        }
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
        if self.plan.is_crashed(node, round) {
            return; // a dead radio hears nothing
        }
        self.inner.on_receive(node, from, round, msg, rng);
    }

    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }

    fn informed_count(&self) -> usize {
        self.inner.informed_count()
    }

    fn radio_off(&self, node: NodeId, round: u64) -> bool {
        // A crashed radio is powered down for good; otherwise defer to
        // the wrapped protocol's duty-cycling.
        self.plan.is_crashed(node, round) || self.inner.radio_off(node, round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::EngineConfig;
    use radio_graph::generate::path;
    use radio_util::derive_rng;

    /// Minimal flooding protocol for the adapter tests.
    struct Flood {
        informed: Vec<bool>,
        count: usize,
    }
    impl Flood {
        fn new(n: usize) -> Self {
            let mut informed = vec![false; n];
            informed[0] = true;
            Flood { informed, count: 1 }
        }
    }
    impl Protocol for Flood {
        type Msg = ();
        fn initially_awake(&self) -> Vec<NodeId> {
            vec![0]
        }
        fn decide(&mut self, _n: NodeId, _r: u64, _rng: &mut ChaCha8Rng) -> Action {
            Action::Transmit
        }
        fn payload(&self, _n: NodeId, _r: u64) -> Self::Msg {}
        fn on_receive(
            &mut self,
            n: NodeId,
            _f: NodeId,
            _r: u64,
            _m: &Self::Msg,
            _rng: &mut ChaCha8Rng,
        ) {
            if !self.informed[n as usize] {
                self.informed[n as usize] = true;
                self.count += 1;
            }
        }
        fn is_complete(&self) -> bool {
            self.count == self.informed.len()
        }
        fn informed_count(&self) -> usize {
            self.count
        }
    }

    #[test]
    fn crash_plan_bookkeeping() {
        let plan = CrashPlan::none(5).crash(2, 10).crash(4, 3);
        assert!(!plan.is_crashed(2, 9));
        assert!(plan.is_crashed(2, 10));
        assert!(plan.is_crashed(4, 100));
        assert_eq!(plan.survivors(), vec![0, 1, 3]);
        assert_eq!(plan.crash_count(), 2);
    }

    #[test]
    fn crash_and_depletion_in_the_same_round_count_once() {
        // Regression: sweep summaries report *distinct* failed nodes.
        // Node 2 crashes at round 3 AND its battery depletes in round 3;
        // node 4 only crashes; node 1 only depletes. `u64::MAX` = alive.
        let plan = CrashPlan::none(5).crash(2, 3).crash(4, 3);
        let depleted_at = [u64::MAX, 3, 3, u64::MAX, u64::MAX];
        assert_eq!(
            plan.failed_by(3, &depleted_at),
            3,
            "nodes 1, 2, 4 — the doubly-failed node 2 must not count twice"
        );
        // Before anything fails, the union is empty.
        assert_eq!(plan.failed_by(2, &depleted_at), 0);
        // Depletion-only accounting (no crash plan overlap).
        assert_eq!(CrashPlan::none(5).failed_by(10, &depleted_at), 2);
        // No batteries: an empty depletion array is legal.
        assert_eq!(plan.failed_by(10, &[]), 2);
    }

    #[test]
    fn random_fraction_is_seeded_and_bounded() {
        let mut rng = derive_rng(1, b"fault", 0);
        let plan = CrashPlan::random_fraction(1000, 0.3, 5, &mut rng);
        let c = plan.crash_count();
        assert!(c > 200 && c < 400, "crash count {c} far from 300");
    }

    #[test]
    fn crashed_node_blocks_a_path() {
        // Path 0-1-2-3-4; node 2 dies at round 2, exactly when it would
        // first transmit (it receives in round 2... actually hears node 1
        // in round 2, but being dead it ignores the message).
        let g = path(5);
        let plan = CrashPlan::none(5).crash(2, 2);
        let mut p = Faulty::new(Flood::new(5), plan);
        let mut rng = derive_rng(2, b"fault", 0);
        let res = Engine::new(&g, EngineConfig::with_max_rounds(50))
            .run(&mut p)
            .v1(&mut rng);
        assert!(!res.completed);
        assert!(p.inner().informed[1]);
        assert!(!p.inner().informed[2], "dead node must not learn");
        assert!(!p.inner().informed[3], "message cannot pass the corpse");
    }

    #[test]
    fn crash_after_relaying_is_harmless() {
        let g = path(5);
        let plan = CrashPlan::none(5).crash(1, 4); // node 1 relays in round 2
        let mut p = Faulty::new(Flood::new(5), plan);
        let mut rng = derive_rng(3, b"fault", 0);
        let res = Engine::new(&g, EngineConfig::with_max_rounds(50))
            .run(&mut p)
            .v1(&mut rng);
        assert!(res.completed, "late crash must not stop the broadcast");
    }

    #[test]
    fn no_crashes_is_transparent() {
        let g = path(6);
        let mut faulty = Faulty::new(Flood::new(6), CrashPlan::none(6));
        let mut plain = Flood::new(6);
        let mut rng1 = derive_rng(4, b"fault", 0);
        let mut rng2 = derive_rng(4, b"fault", 0);
        let r1 = Engine::new(&g, EngineConfig::default())
            .run(&mut faulty)
            .v1(&mut rng1);
        let r2 = Engine::new(&g, EngineConfig::default())
            .run(&mut plain)
            .v1(&mut rng2);
        assert_eq!(r1.rounds, r2.rounds);
        assert_eq!(r1.metrics.per_node(), r2.metrics.per_node());
    }
}
