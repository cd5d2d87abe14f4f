//! Broadcasting algorithms.
//!
//! * [`ee_random`] — **Algorithm 1**: the paper's energy-efficient
//!   broadcast for directed `G(n,p)` (≤ 1 transmission per node).
//! * [`ee_general`] — **Algorithm 3**: broadcast for arbitrary networks
//!   with known diameter, driven by the shared `α`-sequence.
//! * [`cr`] — Czumaj–Rytter's known-diameter algorithm (`α'`), with the
//!   paper's stop-after-a-while energy transformation — the baseline
//!   Theorem 4.1 is compared against.
//! * [`decay`] — Bar-Yehuda–Goldreich–Itai Decay, the classic
//!   unknown-topology baseline.
//! * [`eg`] — Elsässer–Gasieniec random-graph broadcast, the §2 baseline
//!   (up to `D − 1` transmissions per node).
//! * [`flood`] — naive and fixed-probability flooding (the collision
//!   motivation).
//! * [`windowed`] — the shared machinery: a node is *active* from the
//!   round it is informed until its window expires, transmitting each
//!   round with a probability taken from a [`ProbSource`]. Algorithm 3,
//!   CR, Decay, flooding and the lower-bound oblivious protocols are all
//!   instances.
//!
//! Every protocol here implements [`Broadcast`], and every v1 entry point
//! (`run_decay_broadcast`, `run_ee_broadcast`, the lower-bound trials, …)
//! is one [`run_v1`] call: it builds its protocol, picks its round budget
//! and hands both over. The entry points stay because they hide each
//! algorithm's budget and seeded sequence, which callers must not
//! restate. v2 runs go through [`radio_sim::engine::run_protocol_fused`]
//! and package the result with [`BroadcastOutcome::from_run`].

pub mod cr;
pub mod decay;
pub mod ee_general;
pub mod ee_random;
pub mod eg;
pub mod epoch;
pub mod flood;
pub mod windowed;

pub use windowed::{run_windowed_fused, ProbSource, WindowedBroadcast, WindowedSpec};

use radio_graph::Topology;
use radio_sim::{
    EnergyMetrics, EnergyRunResult, Engine, EngineConfig, Metrics, Protocol, RunResult,
};

/// A [`Protocol`] that spreads one message from a source and records
/// when every node first held it — what [`BroadcastOutcome::from_run`]
/// reads besides the engine's result.
pub trait Broadcast: Protocol {
    /// First (1-based) round after which every node was informed, if
    /// that happened: the paper's *broadcasting time*.
    fn broadcast_time(&self) -> Option<u64>;
}

/// Run `protocol` on `graph` under the v1 contract
/// ([`radio_sim::Run::v1`]): the engine's default configuration capped
/// at `max_rounds`, with the one serial stream
/// `derive_rng(seed, b"engine", 0)`. The outcome packages the run with
/// the protocol's informed count and broadcast time; the protocol is
/// left in its final state for callers that read more of it.
pub fn run_v1<T: Topology, P: Broadcast>(
    graph: &T,
    protocol: &mut P,
    max_rounds: u64,
    seed: u64,
) -> BroadcastOutcome {
    let run = Engine::new(graph, EngineConfig::with_max_rounds(max_rounds))
        .run(protocol)
        .v1(&mut radio_util::derive_rng(seed, b"engine", 0));
    BroadcastOutcome::from_run(graph.n(), protocol, run)
}

/// Outcome of a broadcast run, shared by every algorithm in this module.
#[derive(Debug, Clone)]
pub struct BroadcastOutcome {
    /// Number of nodes in the network.
    pub n: usize,
    /// Nodes holding the message when the run ended.
    pub informed: usize,
    /// Whether every node was informed.
    pub all_informed: bool,
    /// First (1-based) round after which all nodes were informed, if that
    /// happened — the paper's *broadcasting time*.
    pub broadcast_time: Option<u64>,
    /// Rounds actually executed (= `broadcast_time` under early stopping;
    /// the full schedule length under energy-faithful accounting).
    pub rounds_executed: u64,
    /// The engine cut the run off at its round cap while the protocol was
    /// still incomplete (see [`radio_sim::RunResult::hit_round_cap`]).
    pub hit_round_cap: bool,
    /// Energy accounting (per-node and total transmission counts).
    pub metrics: Metrics,
    /// Model-based energy accounting, when the run used an energy overlay
    /// ([`BroadcastOutcome::from_energy_run`]).
    pub energy: Option<EnergyMetrics>,
}

impl BroadcastOutcome {
    /// Package the engine's result of a run of `protocol` on an
    /// `n`-node network, reading the protocol's informed count and
    /// broadcast time. Works for a run under either contract.
    pub fn from_run<P: Broadcast>(n: usize, protocol: &P, run: RunResult) -> Self {
        let informed = protocol.informed_count();
        BroadcastOutcome {
            n,
            informed,
            all_informed: informed == n,
            broadcast_time: protocol.broadcast_time(),
            rounds_executed: run.rounds,
            hit_round_cap: run.hit_round_cap,
            metrics: run.metrics,
            energy: None,
        }
    }

    /// As [`BroadcastOutcome::from_run`], from an energy-overlay run.
    pub fn from_energy_run<P: Broadcast>(n: usize, protocol: &P, run: EnergyRunResult) -> Self {
        let mut out = Self::from_run(n, protocol, run.run);
        out.energy = Some(run.energy);
        out
    }

    /// Lift this outcome into a sweep [`radio_sim::TrialResult`]:
    /// success = every node informed, with `bcast_time` riding along as
    /// an extra when the broadcast finished (the paper's time metric
    /// conditions on success). The single source of truth for the
    /// mapping — experiment harnesses and tests share it.
    pub fn to_trial(&self) -> radio_sim::TrialResult {
        let mut t = radio_sim::TrialResult {
            completed: self.all_informed,
            success: self.all_informed,
            rounds: self.rounds_executed,
            hit_round_cap: self.hit_round_cap,
            total_transmissions: self.metrics.total_transmissions(),
            max_transmissions_per_node: self.max_msgs_per_node(),
            informed: self.informed,
            energy: self.energy.as_ref().map(radio_sim::TrialEnergy::from),
            extras: Vec::new(),
        };
        if let Some(bt) = self.broadcast_time {
            t = t.extra("bcast_time", bt as f64);
        }
        t
    }

    /// Transmissions per node, averaged.
    pub fn mean_msgs_per_node(&self) -> f64 {
        self.metrics.mean_transmissions_per_node()
    }

    /// The paper's per-node energy measure.
    pub fn max_msgs_per_node(&self) -> u32 {
        self.metrics.max_transmissions_per_node()
    }
}

/// Common bookkeeping for "who is informed" shared by the protocols here.
#[derive(Debug, Clone)]
pub(crate) struct InformedSet {
    informed_at: Vec<u64>, // u64::MAX = uninformed; source = 0
    count: usize,
    complete_round: Option<u64>,
}

impl InformedSet {
    pub(crate) fn new(n: usize, source: radio_graph::NodeId) -> Self {
        let mut informed_at = vec![u64::MAX; n];
        informed_at[source as usize] = 0;
        InformedSet {
            informed_at,
            count: 1,
            complete_round: None,
        }
    }

    /// Mark `v` informed in `round`; true if newly informed.
    #[inline]
    pub(crate) fn inform(&mut self, v: radio_graph::NodeId, round: u64) -> bool {
        let slot = &mut self.informed_at[v as usize];
        if *slot == u64::MAX {
            *slot = round;
            self.count += 1;
            if self.count == self.informed_at.len() && self.complete_round.is_none() {
                self.complete_round = Some(round);
            }
            true
        } else {
            false
        }
    }

    #[inline]
    pub(crate) fn is_informed(&self, v: radio_graph::NodeId) -> bool {
        self.informed_at[v as usize] != u64::MAX
    }

    /// Round in which `v` was informed (`0` for the source).
    #[inline]
    pub(crate) fn informed_round(&self, v: radio_graph::NodeId) -> u64 {
        self.informed_at[v as usize]
    }

    #[inline]
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    #[inline]
    pub(crate) fn all(&self) -> bool {
        self.count == self.informed_at.len()
    }

    #[inline]
    pub(crate) fn complete_round(&self) -> Option<u64> {
        self.complete_round
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn informed_set_tracks_completion_round() {
        let mut s = InformedSet::new(3, 0);
        assert!(s.is_informed(0));
        assert!(!s.is_informed(2));
        assert_eq!(s.count(), 1);
        assert!(s.inform(2, 4));
        assert!(!s.inform(2, 5), "re-inform is a no-op");
        assert!(s.is_informed(2));
        assert_eq!(s.informed_round(2), 4);
        assert!(!s.all());
        assert!(s.inform(1, 9));
        assert!(s.all());
        assert_eq!(s.complete_round(), Some(9));
    }
}
