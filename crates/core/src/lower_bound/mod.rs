//! Lower-bound harnesses (paper §4.2).
//!
//! The paper's lower bounds quantify over *oblivious* algorithms — every
//! node runs the same rule — using, for Theorem 4.4, a *time-invariant*
//! probability distribution over send probabilities. Operationally such
//! an algorithm is exactly a [`WindowedBroadcast`] with an unbounded
//! window and a [`ProbSource`] that does not depend on the round:
//!
//! * **Observation 4.3** (star-chain): any such algorithm needs
//!   `n log n / 2` total transmissions to reach success probability
//!   `1 − 1/n`. [`obs43_trial`] measures (success, transmissions) for a
//!   given per-round probability `q` and budget.
//! * **Theorem 4.4** (Figure 2 network): finishing within
//!   `c·D·log(n/D)` rounds forces `≥ log² n / (max{4c,8}·log(n/D))`
//!   expected transmissions per node. [`thm44_trial`] measures success
//!   and per-node energy for an arbitrary time-invariant distribution
//!   under that round budget.
//!
//! The closed-form bounds themselves are [`obs43_bound`] and
//! [`thm44_bound`]; experiment E10/E11 tables print measured values next
//! to them.

use crate::broadcast::windowed::{ProbSource, WindowedBroadcast, WindowedSpec};
use crate::broadcast::{run_v1, BroadcastOutcome};
use crate::seq::KDistribution;
use radio_graph::generate::{LowerBoundNet, StarChain};

/// A time-invariant oblivious algorithm: the object Theorem 4.4
/// quantifies over.
#[derive(Debug, Clone)]
pub enum TimeInvariant {
    /// Transmit each round with fixed probability `q`.
    Fixed(f64),
    /// Draw `k` privately each round from a [`KDistribution`]
    /// (transmit probability `2^{−k}`, or silence).
    Dist(KDistribution),
}

impl TimeInvariant {
    /// Expected per-round send probability (the `µ` of Theorem 4.4's
    /// proof).
    pub fn mean_q(&self) -> f64 {
        use crate::seq::TransmitDistribution;
        match self {
            TimeInvariant::Fixed(q) => *q,
            TimeInvariant::Dist(d) => d.mean_q(),
        }
    }

    fn prob_source(&self) -> ProbSource {
        match self {
            TimeInvariant::Fixed(q) => ProbSource::Fixed(*q),
            TimeInvariant::Dist(d) => ProbSource::Private(d.clone()),
        }
    }
}

/// Run one oblivious-broadcast trial on the Observation 4.3 star-chain
/// with per-round probability `q` and a round budget; returns the outcome
/// (all-informed flag + transmission counts).
pub fn obs43_trial(net: &StarChain, q: f64, budget_rounds: u64, seed: u64) -> BroadcastOutcome {
    let spec = WindowedSpec {
        source: ProbSource::Fixed(q),
        window: None,
        early_stop: true,
    };
    let mut protocol = WindowedBroadcast::new(net.graph.n(), net.source, spec);
    run_v1(&net.graph, &mut protocol, budget_rounds, seed)
}

/// Observation 4.3's bound: `n log₂ n / 2` total transmissions are needed
/// for success probability `1 − 1/n` (where `n` is the star-chain
/// parameter, i.e. the destination count).
pub fn obs43_bound(n_destinations: usize) -> f64 {
    let n = n_destinations as f64;
    n * n.log2() / 2.0
}

/// Run one oblivious-broadcast trial on the Theorem 4.4 network under the
/// theorem's round budget `⌈c · D · log₂(n/D)⌉`.
pub fn thm44_trial(
    net: &LowerBoundNet,
    alg: &TimeInvariant,
    c: f64,
    seed: u64,
) -> BroadcastOutcome {
    let budget = thm44_round_budget(net, c);
    let spec = WindowedSpec {
        source: alg.prob_source(),
        window: None,
        early_stop: true,
    };
    let mut protocol = WindowedBroadcast::new(net.graph.n(), net.source, spec);
    run_v1(&net.graph, &mut protocol, budget, seed)
}

/// The Theorem 4.4 round budget `⌈c·D·log₂(n/D)⌉` for `net`.
pub fn thm44_round_budget(net: &LowerBoundNet, c: f64) -> u64 {
    let n = net.n_param as f64;
    let d = net.diameter as f64;
    let lambda = (n / d).log2().max(1.0);
    (c * d * lambda).ceil() as u64
}

/// Theorem 4.4's bound on expected transmissions per node for an
/// algorithm finishing in `c·D·log(n/D)` rounds with probability
/// `≥ 1 − 1/n`: `log₂² n / (max{4c, 8} · log₂(n/D))`.
pub fn thm44_bound(n: usize, diameter: u32, c: f64) -> f64 {
    let ln = (n as f64).log2();
    let lambda = (n as f64 / diameter as f64).log2().max(1.0);
    ln * ln / ((4.0 * c).max(8.0) * lambda)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::generate::{lower_bound_net, star_chain};
    use radio_stats::SuccessCounter;

    #[test]
    fn obs43_source_informs_intermediates_in_round_one() {
        let net = star_chain(16);
        let out = obs43_trial(&net, 0.2, 500, 1);
        // Whatever happens later, the 2n intermediates hear the lone
        // source in round 1... unless the source's own q keeps it silent —
        // q applies from round 1, so give it time; the check is just that
        // intermediates eventually hear the source alone.
        assert!(out.informed > 1, "source never got through");
    }

    #[test]
    fn obs43_small_q_needs_time_large_q_collides() {
        let net = star_chain(32);
        // q = 1: after the source round, both parents of every destination
        // transmit forever → permanent collision, broadcast cannot finish.
        let out = obs43_trial(&net, 1.0, 300, 2);
        assert!(!out.all_informed, "q=1 must collide at every destination");
        // Moderate q: succeeds within a generous budget.
        let mut succ = SuccessCounter::new();
        for seed in 0..5 {
            let out = obs43_trial(&net, 0.1, 3000, seed);
            succ.record(out.all_informed);
        }
        assert!(succ.successes >= 4, "q=0.1 should usually finish: {succ:?}");
    }

    #[test]
    fn obs43_transmissions_track_q_times_rounds() {
        let net = star_chain(32);
        let out = obs43_trial(&net, 0.05, 4000, 3);
        if out.all_informed {
            // Intermediates (2n of them) transmit ≈ q per round while the
            // run lasts; the total is dominated by them.
            let t = out.metrics.total_transmissions() as f64;
            let rough = 0.05 * (out.rounds_executed as f64) * (2.0 * 32.0 + 1.0);
            assert!(t < 3.0 * rough + 50.0, "total {t} vs rough {rough}");
        }
    }

    #[test]
    fn thm44_budget_and_bound_formulas() {
        let net = lower_bound_net(4, 40); // n = 16, D = 40 → λ = max(1, log2(0.4)) = 1
        assert_eq!(thm44_round_budget(&net, 2.0), 80);
        let b = thm44_bound(16, 40, 2.0);
        assert!((b - 16.0 / 8.0).abs() < 1e-9); // log² 16 / (8·1) = 2
    }

    #[test]
    fn thm44_fixed_one_fails_on_star_cascade() {
        // q = 1 jams every star S_i with 2^i ≥ 2 leaves.
        let net = lower_bound_net(5, 30);
        let out = thm44_trial(&net, &TimeInvariant::Fixed(1.0), 8.0, 4);
        assert!(!out.all_informed);
    }

    #[test]
    fn thm44_alpha_distribution_makes_progress() {
        // The paper's own α (as a private time-invariant distribution)
        // should traverse the cascade given a generous c.
        let net = lower_bound_net(4, 24);
        let l = radio_util::ilog2_ceil(net.graph.n() as u64);
        let dist = KDistribution::paper_alpha(l, 2.0);
        let mut succ = SuccessCounter::new();
        for seed in 0..5 {
            let out = thm44_trial(&net, &TimeInvariant::Dist(dist.clone()), 40.0, seed);
            succ.record(out.all_informed);
        }
        assert!(succ.successes >= 3, "α should usually finish: {succ:?}");
    }

    #[test]
    fn mean_q_matches_source() {
        assert_eq!(TimeInvariant::Fixed(0.3).mean_q(), 0.3);
        let d = KDistribution::uniform_k(4);
        let ti = TimeInvariant::Dist(d.clone());
        use crate::seq::TransmitDistribution;
        assert!((ti.mean_q() - d.mean_q()).abs() < 1e-12);
    }
}
