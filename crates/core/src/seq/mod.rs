//! Transmission-probability distributions — the paper's **Figure 1**.
//!
//! Algorithm 3 draws, in every round `r`, a value `I_r ∈ {1, …, log n}`
//! from a distribution `α` *shared by all nodes* (common randomness: the
//! analysis of Theorem 4.1 needs every active neighbour of a node to use
//! the same send probability `2^{−I_r}` in round `r`). Each node then
//! transmits independently with probability `2^{−I_r}`.
//!
//! [`KDistribution`] represents such a distribution, including the
//! reconstruction of the paper's `α` ([`KDistribution::paper_alpha`]) and
//! of Czumaj–Rytter's `α'` ([`KDistribution::cr_alpha`]). The stated
//! properties of `α` — the Figure 1 relations — are unit- and
//! property-tested in this module:
//!
//! * `1/(2 log n) ≤ α_k` for all `1 ≤ k ≤ log n`;
//! * `α_k ≤ 1/(4λ)` (wherever consistent with the floor, i.e. `λ ≤ log n / 2`);
//! * `α_k ≥ α'_k / 2`;
//! * `α_k ≥ 1/(4λ)` for `k ≤ λ`;
//! * `α_k ≥ (1/2λ)·2^{−(k−λ)}` for `k > λ`.

mod alpha;
mod shared;

pub use alpha::{AlphaKind, KDistribution};
pub use shared::SharedSequence;

use rand::Rng;

/// A time-invariant distribution over per-round send probabilities —
/// the object quantified over by the paper's lower bounds (§4.2: *"we
/// assume that every node in the network uses the same probability
/// distribution … and that the distribution does not change over time"*).
pub trait TransmitDistribution {
    /// Draw this round's send probability.
    fn sample_q<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Mean send probability `E[q]` — the expected per-round energy of an
    /// active node (`µ` in the proof of Theorem 4.4).
    fn mean_q(&self) -> f64;
}

/// Always transmit with the same fixed probability (the simplest
/// time-invariant algorithm; used by the Observation 4.3 harness).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedProb(pub f64);

impl TransmitDistribution for FixedProb {
    fn sample_q<R: Rng + ?Sized>(&self, _rng: &mut R) -> f64 {
        self.0
    }

    fn mean_q(&self) -> f64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_util::derive_rng;

    #[test]
    fn fixed_prob_is_constant() {
        let d = FixedProb(0.25);
        let mut rng = derive_rng(1, b"fp", 0);
        for _ in 0..10 {
            assert_eq!(d.sample_q(&mut rng), 0.25);
        }
        assert_eq!(d.mean_q(), 0.25);
    }
}
