//! Shared low-level utilities for the `adhoc-radio` workspace.
//!
//! This crate deliberately has no dependency on the rest of the workspace;
//! everything here is generic infrastructure:
//!
//! * [`bitset`] — a compact, fast [`BitSet`] used for rumor
//!   sets, visited sets and frontier bookkeeping throughout the simulator.
//! * [`rng`] — deterministic RNG fan-out: one master seed reproducibly
//!   derives independent streams for trials, nodes and shared sequences.
//! * [`table`] — plain-text aligned tables used by the experiment harness
//!   to print paper-style result tables.
//! * [`fsio`] — atomic temp-file-then-rename writes, so interrupted
//!   processes never leave torn reports or checkpoints on disk.

pub mod bitset;
pub mod fsio;
pub mod json;
pub mod rng;
pub mod table;

pub use bitset::BitSet;
pub use fsio::write_atomic;
pub use json::Json;
pub use rng::{derive_rng, split_seed, split_seed_indexed, split_seed_prefix, SeedSequence};
pub use table::TextTable;

/// Integer base-2 logarithm, rounded down. `ilog2_floor(1) == 0`.
///
/// # Panics
/// Panics if `x == 0`.
#[inline]
pub fn ilog2_floor(x: u64) -> u32 {
    assert!(x > 0, "ilog2_floor(0) is undefined");
    63 - x.leading_zeros()
}

/// Integer base-2 logarithm, rounded up. `ilog2_ceil(1) == 0`.
///
/// # Panics
/// Panics if `x == 0`.
#[inline]
pub fn ilog2_ceil(x: u64) -> u32 {
    assert!(x > 0, "ilog2_ceil(0) is undefined");
    if x == 1 {
        0
    } else {
        64 - (x - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ilog2_floor_matches_reference() {
        for x in 1u64..4096 {
            assert_eq!(ilog2_floor(x), (x as f64).log2().floor() as u32, "x={x}");
        }
        assert_eq!(ilog2_floor(u64::MAX), 63);
    }

    #[test]
    fn ilog2_ceil_matches_reference() {
        for x in 1u64..4096 {
            let expect = (x as f64).log2().ceil() as u32;
            assert_eq!(ilog2_ceil(x), expect, "x={x}");
        }
    }

    #[test]
    fn ilog2_edge_cases() {
        assert_eq!(ilog2_floor(1), 0);
        assert_eq!(ilog2_ceil(1), 0);
        assert_eq!(ilog2_floor(2), 1);
        assert_eq!(ilog2_ceil(2), 1);
        assert_eq!(ilog2_floor(3), 1);
        assert_eq!(ilog2_ceil(3), 2);
    }

    #[test]
    #[should_panic]
    fn ilog2_floor_zero_panics() {
        let _ = ilog2_floor(0);
    }

    #[test]
    #[should_panic]
    fn ilog2_ceil_zero_panics() {
        let _ = ilog2_ceil(0);
    }
}
