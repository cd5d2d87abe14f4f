//! Per-run energy accounting driven by the simulation engine.

use crate::{Battery, Duty, EnergyModel, NEVER_DEPLETED};
use radio_graph::NodeId;
use radio_util::derive_rng;
use rand_chacha::ChaCha8Rng;

/// Mutable energy bookkeeping for simulation runs.
///
/// A session pairs an [`EnergyModel`] with optional [`Battery`]
/// capacities and a private ChaCha8 stream (derived from the session
/// seed) for randomized models. The engine drives it per round:
///
/// 1. [`charge`](Self::charge) each transmitter ([`Duty::Transmit`]) and
///    each collision-free receiver ([`Duty::Receive`]) as they act;
/// 2. [`sweep_round`](Self::sweep_round) at the end of the round charges
///    every remaining live node [`Duty::Idle`] or [`Duty::Sleep`]
///    according to the protocol's radio-off hint;
/// 3. [`is_dead`](Self::is_dead) gates polling and delivery: a node whose
///    battery hit zero in round `r` is fail-stop dead from round `r + 1`.
///
/// The session is reusable: the engine calls [`begin`](Self::begin) at
/// the start of every run, which resets all per-run state (including the
/// model RNG, so a reused session stays deterministic).
///
/// **Passthrough fast path:** when the model reports
/// [`tx_only`](EnergyModel::tx_only) and no battery is attached, charging
/// and sweeping are no-ops and [`finalize`](Self::finalize) derives
/// per-node energy directly from the engine's transmission counts — the
/// overlay then costs nothing on the hot path.
pub struct EnergySession {
    model: Box<dyn EnergyModel>,
    battery: Option<Battery>,
    halt_on_depletion: bool,
    charge_to_cap: bool,
    seed: u64,
    n: usize,
    passthrough: bool,
    rng: ChaCha8Rng,
    spent: Vec<f64>,
    residual: Vec<f64>,
    depleted_at: Vec<u64>,
    stamp: Vec<u32>,
    first_depletion: Option<u64>,
    depleted: usize,
}

impl EnergySession {
    /// Session for `n` nodes under `model`; randomized model draws come
    /// from a stream derived from `seed` (independent of any protocol or
    /// engine RNG).
    pub fn new(n: usize, model: impl EnergyModel + 'static, seed: u64) -> Self {
        let passthrough = model.tx_only();
        EnergySession {
            model: Box::new(model),
            battery: None,
            halt_on_depletion: false,
            charge_to_cap: false,
            seed,
            n,
            passthrough,
            rng: derive_rng(seed, b"energy", 0),
            spent: vec![0.0; n],
            residual: Vec::new(),
            depleted_at: vec![NEVER_DEPLETED; n],
            stamp: vec![0; n],
            first_depletion: None,
            depleted: 0,
        }
    }

    /// Attach finite batteries. Depleted nodes turn fail-stop dead.
    ///
    /// # Panics
    /// Panics if the battery's node count differs from the session's.
    pub fn with_battery(mut self, battery: Battery) -> Self {
        assert_eq!(
            battery.n(),
            self.n,
            "battery node count must match the session"
        );
        self.residual = battery.capacities().to_vec();
        self.battery = Some(battery);
        self.passthrough = false;
        self
    }

    /// Stop the run at the end of the round in which the first battery
    /// depletes — the standard "network lifetime" measurement.
    pub fn with_halt_on_depletion(mut self, halt: bool) -> Self {
        self.halt_on_depletion = halt;
        self
    }

    /// Keep executing (and charging idle/sleep, draining batteries) up to
    /// the engine's round cap even after the protocol quiesces with every
    /// node off the poll list. The engine normally stops there — no
    /// reception can change protocol state any more — but receivers that
    /// never powered down keep paying for the rest of a fixed mission
    /// horizon, which is exactly what lifetime studies must account for.
    /// Off by default because it changes the run length, breaking the
    /// "bit-identical to the plain run" property advertised for plain
    /// overlays.
    pub fn with_charge_to_cap(mut self, charge: bool) -> Self {
        self.charge_to_cap = charge;
        self
    }

    /// Should the engine keep ticking past protocol quiescence?
    #[inline]
    pub fn charge_to_cap(&self) -> bool {
        self.charge_to_cap
    }

    /// Number of nodes this session accounts for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The model's report label.
    pub fn label(&self) -> String {
        self.model.label()
    }

    /// `true` when nothing needs charging during the run (tx-only model,
    /// no battery): the engine skips all per-round energy work.
    #[inline]
    pub fn passthrough(&self) -> bool {
        self.passthrough
    }

    /// Reset all per-run state (called by the engine at run start).
    pub fn begin(&mut self) {
        self.rng = derive_rng(self.seed, b"energy", 0);
        self.spent.fill(0.0);
        if let Some(b) = &self.battery {
            self.residual.clear();
            self.residual.extend_from_slice(b.capacities());
        }
        self.depleted_at.fill(NEVER_DEPLETED);
        self.stamp.fill(0);
        self.first_depletion = None;
        self.depleted = 0;
    }

    /// Charge `node` for one round spent in `duty`. Dead nodes pay
    /// nothing; a node charged below zero residual is marked depleted in
    /// `round` (dead from `round + 1`). Charging twice in one round is
    /// legal and additive (a full-duplex radio pays for both duties).
    #[inline]
    pub fn charge(&mut self, node: NodeId, duty: Duty, round: u64) {
        if self.passthrough {
            return;
        }
        let vi = node as usize;
        if self.depleted_at[vi] != NEVER_DEPLETED {
            return;
        }
        self.stamp[vi] = round as u32;
        let cost = self.model.cost(duty, &mut self.rng);
        self.spent[vi] += cost;
        if self.battery.is_some() {
            let r = &mut self.residual[vi];
            *r -= cost;
            if *r <= 0.0 {
                *r = 0.0;
                self.depleted_at[vi] = round;
                self.depleted += 1;
                self.first_depletion.get_or_insert(round);
            }
        }
    }

    /// End-of-round sweep: every live node not already charged this round
    /// pays [`Duty::Idle`] if its receiver is powered, [`Duty::Sleep`] if
    /// the protocol reports its radio off. No-op for tx-only models
    /// (those duties cost zero by contract).
    pub fn sweep_round<F: Fn(NodeId) -> bool>(&mut self, round: u64, radio_off: F) {
        if self.passthrough || self.model.tx_only() {
            return;
        }
        let rstamp = round as u32;
        for v in 0..self.n as NodeId {
            let vi = v as usize;
            if self.stamp[vi] == rstamp || self.depleted_at[vi] != NEVER_DEPLETED {
                continue;
            }
            let duty = if radio_off(v) {
                Duty::Sleep
            } else {
                Duty::Idle
            };
            self.charge(v, duty, round);
        }
    }

    /// Is `node` fail-stop dead in `round`? (Depletion in round `r`
    /// takes effect from round `r + 1`: the node's last round completes
    /// normally, like a crash scheduled for the next round.)
    #[inline]
    pub fn is_dead(&self, node: NodeId, round: u64) -> bool {
        self.depleted_at[node as usize] < round
    }

    /// Should the engine stop after this round? (Requested lifetime halt
    /// and at least one depletion so far.)
    #[inline]
    pub fn should_halt(&self) -> bool {
        self.halt_on_depletion && self.first_depletion.is_some()
    }

    /// First round in which any battery depleted, if one has.
    pub fn first_depletion(&self) -> Option<u64> {
        self.first_depletion
    }

    /// Number of depleted nodes so far.
    pub fn depleted_count(&self) -> usize {
        self.depleted
    }

    /// Package the run's accounting into an [`EnergyMetrics`] report.
    /// `per_node_tx` is the engine's per-node transmission count, used to
    /// derive energy on the passthrough fast path.
    pub fn finalize(&mut self, per_node_tx: &[u32]) -> EnergyMetrics {
        assert_eq!(per_node_tx.len(), self.n, "metrics node count mismatch");
        if self.passthrough {
            // tx_only contract: cost(Transmit) is deterministic.
            let unit = self.model.cost(Duty::Transmit, &mut self.rng);
            for (s, &c) in self.spent.iter_mut().zip(per_node_tx) {
                *s = unit * f64::from(c);
            }
        }
        EnergyMetrics {
            model: self.model.label(),
            spent: self.spent.clone(),
            residual: self.battery.as_ref().map(|_| self.residual.clone()),
            depleted_at: if self.battery.is_some() {
                self.depleted_at.clone()
            } else {
                Vec::new()
            },
            first_depletion_round: self.first_depletion,
        }
    }
}

/// Energy accounting of one finished run: the energy-model counterpart of
/// the engine's transmission-count `Metrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyMetrics {
    /// Label of the model that produced these numbers.
    pub model: String,
    /// Energy spent per node (index = node id).
    pub spent: Vec<f64>,
    /// Residual battery charge per node; `None` when no battery was
    /// attached (infinite supply).
    pub residual: Option<Vec<f64>>,
    /// Round each node depleted in ([`NEVER_DEPLETED`] = still alive);
    /// empty when no battery was attached.
    pub depleted_at: Vec<u64>,
    /// First round any battery depleted — the network's lifetime under
    /// the first-death criterion. `None`: no depletion (or no battery).
    pub first_depletion_round: Option<u64>,
}

impl EnergyMetrics {
    /// Total energy spent across all nodes.
    pub fn total_energy(&self) -> f64 {
        self.spent.iter().sum()
    }

    /// Maximum energy spent by any single node.
    pub fn max_energy_per_node(&self) -> f64 {
        self.spent.iter().copied().fold(0.0, f64::max)
    }

    /// Mean energy per node.
    pub fn mean_energy_per_node(&self) -> f64 {
        if self.spent.is_empty() {
            0.0
        } else {
            self.total_energy() / self.spent.len() as f64
        }
    }

    /// Residual charge of `node`, if batteries were attached.
    pub fn residual_charge(&self, node: NodeId) -> Option<f64> {
        self.residual.as_ref().map(|r| r[node as usize])
    }

    /// Smallest residual charge across nodes, if batteries were attached.
    pub fn min_residual(&self) -> Option<f64> {
        self.residual
            .as_ref()
            .map(|r| r.iter().copied().fold(f64::INFINITY, f64::min))
    }

    /// Round `node` depleted in, if it did.
    pub fn depleted_round(&self, node: NodeId) -> Option<u64> {
        match self.depleted_at.get(node as usize) {
            Some(&r) if r != NEVER_DEPLETED => Some(r),
            _ => None,
        }
    }

    /// Did `node` run out of battery?
    pub fn is_depleted(&self, node: NodeId) -> bool {
        self.depleted_round(node).is_some()
    }

    /// Number of depleted nodes.
    pub fn depleted_count(&self) -> usize {
        self.depleted_at
            .iter()
            .filter(|&&r| r != NEVER_DEPLETED)
            .count()
    }

    /// Ids of all depleted nodes, ascending.
    pub fn depleted_nodes(&self) -> Vec<NodeId> {
        self.depleted_at
            .iter()
            .enumerate()
            .filter_map(|(v, &r)| (r != NEVER_DEPLETED).then_some(v as NodeId))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FadingRadio, LinearRadio, TxOnly};

    #[test]
    fn passthrough_derives_energy_from_tx_counts() {
        let mut s = EnergySession::new(3, TxOnly, 1);
        assert!(s.passthrough());
        s.begin();
        // Charges are no-ops on the fast path…
        s.charge(0, Duty::Transmit, 1);
        s.sweep_round(1, |_| false);
        // …and finalize reconstructs from the engine's counts.
        let m = s.finalize(&[2, 0, 1]);
        assert_eq!(m.spent, vec![2.0, 0.0, 1.0]);
        assert_eq!(m.total_energy(), 3.0);
        assert_eq!(m.max_energy_per_node(), 2.0);
        assert!(m.residual.is_none());
        assert_eq!(m.first_depletion_round, None);
        assert_eq!(m.depleted_count(), 0);
    }

    #[test]
    fn linear_charges_and_sweeps() {
        let mut s = EnergySession::new(3, LinearRadio::new(2.0, 1.0, 0.5, 0.25), 1);
        s.begin();
        s.charge(0, Duty::Transmit, 1); // node 0: 2.0
        s.charge(1, Duty::Receive, 1); // node 1: 1.0
        s.sweep_round(1, |v| v == 2); // node 2 radio-off: 0.25
        let m = s.finalize(&[1, 0, 0]);
        assert_eq!(m.spent, vec![2.0, 1.0, 0.25]);
        assert!((m.mean_energy_per_node() - 3.25 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_skips_already_charged_nodes() {
        let mut s = EnergySession::new(2, LinearRadio::with_listen_ratio(1.0), 1);
        s.begin();
        s.charge(0, Duty::Transmit, 1);
        s.sweep_round(1, |_| false);
        let m = s.finalize(&[1, 0]);
        assert_eq!(m.spent, vec![1.0, 1.0], "transmitter not double-charged");
    }

    #[test]
    fn battery_depletion_is_fail_stop_next_round() {
        let mut s = EnergySession::new(2, LinearRadio::uniform_drain(1.0), 1)
            .with_battery(Battery::per_node(vec![2.0, f64::INFINITY]));
        s.begin();
        for round in 1..=4 {
            assert_eq!(s.is_dead(0, round), round > 2, "round {round}");
            s.sweep_round(round, |_| false);
        }
        assert_eq!(s.first_depletion(), Some(2));
        assert_eq!(s.depleted_count(), 1);
        let m = s.finalize(&[0, 0]);
        assert_eq!(m.depleted_round(0), Some(2));
        assert!(!m.is_depleted(1));
        assert_eq!(m.residual_charge(0), Some(0.0));
        assert_eq!(m.spent[0], 2.0, "dead nodes stop paying");
        assert_eq!(m.spent[1], 4.0);
        assert_eq!(m.depleted_nodes(), vec![0]);
    }

    #[test]
    fn halt_on_depletion_requests_stop() {
        let mut s = EnergySession::new(1, LinearRadio::uniform_drain(1.0), 1)
            .with_battery(Battery::uniform(1, 1.0))
            .with_halt_on_depletion(true);
        s.begin();
        assert!(!s.should_halt());
        s.sweep_round(1, |_| false);
        assert!(s.should_halt());
    }

    #[test]
    fn begin_resets_everything_including_model_rng() {
        let mut s = EnergySession::new(2, FadingRadio::new(LinearRadio::with_listen_ratio(0.5)), 9)
            .with_battery(Battery::uniform(2, 100.0));
        let run = |s: &mut EnergySession| {
            s.begin();
            s.charge(0, Duty::Transmit, 1);
            s.sweep_round(1, |_| false);
            s.finalize(&[1, 0])
        };
        let a = run(&mut s);
        let b = run(&mut s);
        assert_eq!(a, b, "session reuse must be deterministic");
    }

    #[test]
    fn tx_only_with_battery_still_tracks_depletion() {
        let mut s = EnergySession::new(1, TxOnly, 1).with_battery(Battery::uniform(1, 1.5));
        assert!(!s.passthrough(), "battery disables the fast path");
        s.begin();
        s.charge(0, Duty::Transmit, 3);
        assert!(!s.is_dead(0, 4));
        s.charge(0, Duty::Transmit, 7);
        assert!(s.is_dead(0, 8));
        let m = s.finalize(&[2]);
        assert_eq!(m.first_depletion_round, Some(7));
        assert_eq!(m.spent, vec![2.0]);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn battery_size_mismatch_panics() {
        let _ = EnergySession::new(3, TxOnly, 0).with_battery(Battery::uniform(2, 1.0));
    }
}
