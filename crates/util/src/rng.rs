//! Deterministic RNG fan-out.
//!
//! Every experiment in this workspace is reproducible from a single master
//! seed. The fan-out scheme is a small keyed hash (SplitMix64-style mixing
//! over `(seed, label, index)`) that derives statistically independent
//! 64-bit seeds for sub-streams: one per trial, one per shared broadcast
//! sequence, one per node where needed. The derived seeds feed
//! [`rand_chacha::ChaCha8Rng`], a counter-mode generator whose output is
//! stable across library versions — important because the committed
//! `results/<id>.md` reports record concrete numbers.

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// SplitMix64 finalizer; good avalanche, cheap, and stable by definition.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Derive a child seed from `(seed, label, index)`.
///
/// `label` namespaces independent uses (e.g. `b"trial"`, `b"seq"`) so two
/// different consumers can never collide even with equal indices.
#[inline]
pub fn split_seed(seed: u64, label: &[u8], index: u64) -> u64 {
    split_seed_indexed(split_seed_prefix(seed, label), index)
}

/// The `(seed, label)` half of [`split_seed`], hoisted so callers that
/// derive many indices under one label (e.g. `ImplicitGnp`'s per-row
/// streams) can hash the label bytes once and finish each index with a
/// single [`split_seed_indexed`] call.
#[inline]
pub fn split_seed_prefix(seed: u64, label: &[u8]) -> u64 {
    let mut h = splitmix64(seed ^ 0xA076_1D64_78BD_642F);
    for &b in label {
        h = splitmix64(h ^ u64::from(b));
    }
    h
}

/// Finish a [`split_seed_prefix`] with an index. By construction
/// `split_seed_indexed(split_seed_prefix(s, l), i) == split_seed(s, l, i)`.
#[inline]
pub fn split_seed_indexed(prefix: u64, index: u64) -> u64 {
    splitmix64(prefix ^ splitmix64(index))
}

/// Build a [`ChaCha8Rng`] for `(seed, label, index)`.
pub fn derive_rng(seed: u64, label: &[u8], index: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(split_seed(seed, label, index))
}

/// A reusable handle for deriving numbered child streams from one master
/// seed: `SeedSequence::new(42).rng(b"trial", 7)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    master: u64,
}

impl SeedSequence {
    /// Wrap a master seed.
    pub fn new(master: u64) -> Self {
        SeedSequence { master }
    }

    /// The wrapped master seed.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// Derive the child seed for `(label, index)`.
    pub fn seed(&self, label: &[u8], index: u64) -> u64 {
        split_seed(self.master, label, index)
    }

    /// Derive a ready-to-use RNG for `(label, index)`.
    pub fn rng(&self, label: &[u8], index: u64) -> ChaCha8Rng {
        derive_rng(self.master, label, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn derivation_is_deterministic() {
        let a = split_seed(42, b"trial", 3);
        let b = split_seed(42, b"trial", 3);
        assert_eq!(a, b);
    }

    /// The split form is the contract callers cache prefixes against.
    #[test]
    fn prefix_plus_index_composes_to_split_seed() {
        for seed in [0u64, 42, u64::MAX] {
            for label in [&b"trial"[..], b"gnp-row", b""] {
                let prefix = split_seed_prefix(seed, label);
                for index in [0u64, 1, 7, 1 << 40, u64::MAX] {
                    assert_eq!(
                        split_seed_indexed(prefix, index),
                        split_seed(seed, label, index)
                    );
                }
            }
        }
    }

    #[test]
    fn labels_namespace_streams() {
        assert_ne!(split_seed(42, b"trial", 0), split_seed(42, b"node", 0));
        assert_ne!(split_seed(42, b"trial", 0), split_seed(42, b"trial", 1));
        assert_ne!(split_seed(42, b"trial", 0), split_seed(43, b"trial", 0));
    }

    #[test]
    fn derived_rngs_are_reproducible() {
        let mut r1 = derive_rng(7, b"x", 0);
        let mut r2 = derive_rng(7, b"x", 0);
        for _ in 0..100 {
            assert_eq!(r1.random::<u64>(), r2.random::<u64>());
        }
    }

    #[test]
    fn derived_rngs_differ_across_indices() {
        let mut r1 = derive_rng(7, b"x", 0);
        let mut r2 = derive_rng(7, b"x", 1);
        let same = (0..64)
            .filter(|_| r1.random::<u64>() == r2.random::<u64>())
            .count();
        assert!(same < 2, "streams look correlated");
    }

    #[test]
    fn seed_sequence_matches_free_functions() {
        let sq = SeedSequence::new(99);
        assert_eq!(sq.seed(b"a", 5), split_seed(99, b"a", 5));
        assert_eq!(sq.master(), 99);
    }

    /// Crude uniformity check: derived seeds should hit all 16 top nibbles.
    #[test]
    fn seeds_spread_over_range() {
        let mut seen = [false; 16];
        for i in 0..256 {
            let s = split_seed(1, b"spread", i);
            seen[(s >> 60) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "top nibble never seen: {seen:?}");
    }
}
