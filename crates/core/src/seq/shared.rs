//! The shared random sequence `I = ⟨I₁, I₂, …⟩` of Algorithm 3.
//!
//! Algorithm 3, line 1: *"Choose a randomised sequence I = ⟨I₁, I₂, …⟩
//! such that Pr[I_r = k] = α_k"*. The sequence is **common randomness** —
//! in round `r` every active node uses send probability `2^{−I_r}`; the
//! Theorem 4.1 proof sketch relies on this ("if every active neighbor of
//! `w` sends with probability `2^{−k}`"). Operationally the sequence is a
//! pseudorandom stream expanded from a seed all nodes share (e.g. burned
//! into the protocol spec), which is exactly how we realise it.

use super::KDistribution;
use radio_util::derive_rng;
use rand_chacha::ChaCha8Rng;

/// Lazily expanded shared sequence of per-round send probabilities.
#[derive(Debug, Clone)]
pub struct SharedSequence {
    dist: KDistribution,
    rng: ChaCha8Rng,
    /// `qs[r−1]` = send probability of round `r` (0.0 = silent round).
    qs: Vec<f64>,
}

impl SharedSequence {
    /// Create the sequence for `dist`, expanded from `seed`.
    pub fn new(dist: KDistribution, seed: u64) -> Self {
        SharedSequence {
            dist,
            rng: derive_rng(seed, b"shared-seq", 0),
            qs: Vec::new(),
        }
    }

    /// Send probability of (1-based) round `r`; expands on demand.
    pub fn q(&mut self, round: u64) -> f64 {
        let idx = (round - 1) as usize;
        while self.qs.len() <= idx {
            let q = match self.dist.sample(&mut self.rng) {
                Some(k) => 2f64.powi(-(k as i32)),
                None => 0.0,
            };
            self.qs.push(q);
        }
        self.qs[idx]
    }

    /// Expand the sequence through `round` without returning anything —
    /// the v2 decide phase's serial per-round preamble, after which
    /// [`q_cached`](Self::q_cached) can serve any number of read-only
    /// consumers (decide workers) concurrently.
    pub fn ensure(&mut self, round: u64) {
        let _ = self.q(round);
    }

    /// Read-only `q` for an already-expanded round.
    ///
    /// # Panics
    /// Panics if `round` has not been expanded yet (call
    /// [`q`](Self::q) or [`ensure`](Self::ensure) first).
    pub fn q_cached(&self, round: u64) -> f64 {
        self.qs[(round - 1) as usize]
    }

    /// The underlying distribution.
    pub fn distribution(&self) -> &KDistribution {
        &self.dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_stable_under_revisits() {
        let d = KDistribution::paper_alpha(10, 3.0);
        let mut s1 = SharedSequence::new(d.clone(), 99);
        let mut s2 = SharedSequence::new(d, 99);
        let a: Vec<f64> = (1..=50).map(|r| s1.q(r)).collect();
        let b: Vec<f64> = (1..=50).map(|r| s2.q(r)).collect();
        assert_eq!(a, b);
        // Revisiting earlier rounds returns identical values.
        assert_eq!(s1.q(7), a[6]);
        assert_eq!(s1.q(50), a[49]);
    }

    #[test]
    fn different_seeds_differ() {
        let d = KDistribution::paper_alpha(10, 3.0);
        let mut s1 = SharedSequence::new(d.clone(), 1);
        let mut s2 = SharedSequence::new(d, 2);
        let a: Vec<f64> = (1..=64).map(|r| s1.q(r)).collect();
        let b: Vec<f64> = (1..=64).map(|r| s2.q(r)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn out_of_order_access_expands_correctly() {
        let d = KDistribution::cr_alpha(8, 2.0);
        let mut s1 = SharedSequence::new(d.clone(), 5);
        let mut s2 = SharedSequence::new(d, 5);
        let late_first = s1.q(30);
        let mut seq = Vec::new();
        for r in 1..=30 {
            seq.push(s2.q(r));
        }
        assert_eq!(late_first, seq[29]);
    }
}
