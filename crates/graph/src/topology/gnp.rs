//! Implicit `G(n, p)`: rows re-sampled lazily from per-row seeded
//! streams.
//!
//! The trick is the one `radio_sim::DecideStreams` introduced for the
//! v2 determinism contract, applied to the *graph* instead of the coin
//! flips: row `u` of the adjacency matrix is a pure function of
//! `(graph_seed, u)`. Asking for `u`'s out-neighbors keys a ChaCha8
//! stream with `split_seed(graph_seed, b"gnp-row", u)` — the label half
//! cached at construction, so keying costs two SplitMix64 rounds and a
//! key expansion — and replays the Batagelj–Brandes geometric-skip walk
//! over the `n − 1` possible targets — O(expected degree) time, zero
//! bytes stored. Two queries for the same row, from any thread, in any
//! order, always see the same edge set, which is exactly what the
//! engine's bit-identical-across-thread-counts contract needs.
//!
//! The row stream is private to the row, so a query generates it
//! straight from the key with the wide full-block ChaCha kernel
//! ([`rand_chacha::chacha8_blocks`]): blocks 0, 1, … of the stream, one
//! full-width kernel pass at a time, feed the same batched, exact
//! `SkipWalk` as `generate::gnp_directed` (its module docs carry the
//! exactness argument). The row is the one the scalar walk over
//! `ChaCha8Rng::seed_from_u64(split_seed(graph_seed, b"gnp-row", u))`
//! draws, bit for bit.
//!
//! Note the *distribution* matches `generate::gnp_directed` (each
//! ordered pair carries an edge independently with probability `p`) but
//! the *sample* differs for a given seed: the materializing generator
//! consumes one serial RNG across all rows, while every row here has
//! its own stream. [`ImplicitGnp::materialize`] runs the same walk; the
//! independent oracle is that scalar walk, kept in the tests.

use crate::generate::edge_capacity;
use crate::generate::gnp::{ln_1mp, SkipWalk};
use crate::topology::{RangeQueryCost, Topology};
use crate::{DiGraph, NodeId};
use radio_util::{split_seed_indexed, split_seed_prefix};
use rand_chacha::{chacha8_blocks, key_words_from_u64, wide_lanes, BLOCK_WORDS, MAX_WIDE_LANES};

/// Implicit directed `G(n, p)` topology: O(1) memory, rows sampled on
/// demand as pure functions of `(graph_seed, row)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImplicitGnp {
    n: usize,
    p: f64,
    graph_seed: u64,
    /// Cached `ln(1 − p)` for the geometric skip (−∞ when `p == 1`,
    /// but that case short-circuits to the complete row).
    log1mp: f64,
    /// Cached `split_seed_prefix(graph_seed, b"gnp-row")`: a pure
    /// function of `graph_seed`, hoisted so a row query hashes only the
    /// row index, not the label bytes. (Safe under the derived
    /// `PartialEq`: equal seeds always carry equal prefixes.)
    row_key_prefix: u64,
}

impl ImplicitGnp {
    /// An implicit `G(n, p)` with edge probability `p` keyed by
    /// `graph_seed`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1` and `n` fits `NodeId`.
    pub fn new(n: usize, p: f64, graph_seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p = {p} out of [0,1]");
        assert!(n as u64 <= u64::from(NodeId::MAX), "n too large for NodeId");
        ImplicitGnp {
            n,
            p,
            graph_seed,
            log1mp: ln_1mp(p),
            row_key_prefix: split_seed_prefix(graph_seed, b"gnp-row"),
        }
    }

    /// The paper's parameterisation `d = np`: edge probability `d / n`,
    /// capped at 1.
    pub fn with_expected_degree(n: usize, d: f64, graph_seed: u64) -> Self {
        let p = if n == 0 {
            0.0
        } else {
            (d / n as f64).clamp(0.0, 1.0)
        };
        Self::new(n, p, graph_seed)
    }

    /// Edge probability.
    #[inline]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// The seed keying every row stream.
    #[inline]
    pub fn graph_seed(&self) -> u64 {
        self.graph_seed
    }

    /// The key of row `u`'s stream: deterministic in `(graph_seed, u)`
    /// only.
    ///
    /// Fast path: the `b"gnp-row"` label hash is cached at construction
    /// (`row_key_prefix`), so keying a row costs two SplitMix64 rounds
    /// plus the `key_words_from_u64` expansion — the exact composition
    /// `seed_from_u64(split_seed(graph_seed, b"gnp-row", u))` performs,
    /// minus the per-query label walk. Stream-equality is pinned by
    /// `fast_row_keying_matches_seed_from_u64_of_split_seed` below.
    #[inline]
    fn row_key(&self, u: NodeId) -> [u32; 8] {
        key_words_from_u64(split_seed_indexed(self.row_key_prefix, u64::from(u)))
    }

    /// Walk row `u`: its stream's blocks 0, 1, … generated one full-width
    /// pass of the wide kernel at a time, fed to the skip walk over the
    /// `n − 1` non-self slots. Slot s maps to target s if s < u else
    /// s + 1, so targets ascend and never equal u — the same linear
    /// indexing as `gnp_directed`. Degenerate rows (`p ∈ {0, 1}`,
    /// `n < 2`) are the caller's job.
    fn walk_row<F: FnMut(NodeId)>(&self, u: NodeId, mut f: F) {
        let key = self.row_key(u);
        let mut blocks = [[0u32; BLOCK_WORDS]; MAX_WIDE_LANES];
        let mut words = [0u64; MAX_WIDE_LANES * BLOCK_WORDS / 2];
        let mut walk = SkipWalk::new(self.log1mp, (self.n - 1) as u64);
        let mut emit = |s: u64| f(if s < u64::from(u) { s } else { s + 1 } as NodeId);
        let nb = wide_lanes();
        for first in (0u64..).step_by(nb) {
            chacha8_blocks(&key, first, &mut blocks[..nb]);
            let pairs = blocks[..nb].as_flattened().chunks_exact(2);
            for (w, pair) in words.iter_mut().zip(pairs) {
                *w = u64::from(pair[0]) | u64::from(pair[1]) << 32;
            }
            if walk
                .feed(&words[..nb * BLOCK_WORDS / 2], &mut emit)
                .is_some()
            {
                return;
            }
        }
    }

    /// Handle the row shapes that need no stream: returns `true` when
    /// the row was fully emitted (or is empty) without sampling.
    #[inline]
    fn emit_degenerate<F: FnMut(NodeId)>(&self, u: NodeId, f: &mut F) -> bool {
        if self.n < 2 || self.p <= 0.0 {
            return true;
        }
        if self.p >= 1.0 {
            for v in 0..self.n as NodeId {
                if v != u {
                    f(v);
                }
            }
            return true;
        }
        false
    }

    /// Materialize the full CSR graph, every row by the same walk as a
    /// query. Rows are emitted ascending and duplicate-free by
    /// construction.
    pub fn materialize(&self) -> DiGraph {
        let expected = self.p * (self.n as f64) * (self.n.saturating_sub(1) as f64);
        let mut edges: Vec<(NodeId, NodeId)> =
            Vec::with_capacity(edge_capacity(self.n, expected * 1.05));
        for u in 0..self.n as NodeId {
            Topology::for_each_out(self, u, |v| edges.push((u, v)));
        }
        DiGraph::from_sorted_unique_edges(self.n, edges)
    }
}

impl Topology for ImplicitGnp {
    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn degree_hint(&self, _u: NodeId) -> u64 {
        (self.p * self.n.saturating_sub(1) as f64).ceil() as u64
    }

    fn for_each_out<F: FnMut(NodeId)>(&self, u: NodeId, mut f: F) {
        if self.emit_degenerate(u, &mut f) {
            return;
        }
        self.walk_row(u, f);
    }

    /// No stored row: every query replays the walk, so the engine's
    /// scatter fans out at its lower implicit edge threshold.
    #[inline]
    fn range_query_cost(&self) -> RangeQueryCost {
        RangeQueryCost::FullRowReplay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::gnp::{scalar, SKIP_LANES};
    use radio_util::derive_rng;
    use rand::RngExt;
    use rand_chacha::ChaCha8Rng;

    fn row(t: &ImplicitGnp, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        t.for_each_out(u, |v| out.push(v));
        out
    }

    #[test]
    fn rows_are_pure_functions_of_seed_and_node() {
        let a = ImplicitGnp::new(500, 0.03, 99);
        let b = ImplicitGnp::new(500, 0.03, 99);
        for u in (0..500).step_by(13) {
            assert_eq!(row(&a, u as NodeId), row(&b, u as NodeId));
        }
        let c = ImplicitGnp::new(500, 0.03, 100);
        let differs = (0..500).any(|u| row(&a, u) != row(&c, u));
        assert!(differs, "different graph_seed must give a different graph");
    }

    #[test]
    fn rows_ascend_without_self_or_duplicates() {
        let t = ImplicitGnp::new(300, 0.1, 7);
        for u in 0..300 as NodeId {
            let r = row(&t, u);
            assert!(!r.contains(&u), "self-loop at {u}");
            assert!(
                r.windows(2).all(|w| w[0] < w[1]),
                "row {u} not strictly ascending: {r:?}"
            );
            assert!(r.iter().all(|&v| (v as usize) < 300));
        }
    }

    #[test]
    fn extremes_p_zero_and_one() {
        let empty = ImplicitGnp::new(64, 0.0, 1);
        assert!((0..64).all(|u| row(&empty, u).is_empty()));
        assert_eq!(empty.materialize().m(), 0);
        let full = ImplicitGnp::new(64, 1.0, 1);
        assert!((0..64).all(|u| row(&full, u).len() == 63));
        assert_eq!(full.materialize().m(), 64 * 63);
    }

    #[test]
    fn tiny_p_rows_are_empty_not_complete() {
        // Below p = 2⁻⁵⁴ the naive ln(1 − p) is 0, which made every row
        // the complete row.
        for p in [5e-17, 1e-300] {
            let t = ImplicitGnp::new(64, p, 1);
            assert!((0..64).all(|u| row(&t, u).is_empty()), "p {p}");
            assert_eq!(t.materialize().m(), 0, "p {p}");
        }
    }

    #[test]
    fn materialize_matches_queries() {
        let t = ImplicitGnp::new(400, 0.05, 5);
        let g = t.materialize();
        assert_eq!(Topology::n(&t), g.n());
        for u in 0..400 as NodeId {
            assert_eq!(row(&t, u), g.out_neighbors(u));
        }
    }

    #[test]
    fn edge_count_concentrates_around_the_mean() {
        // m ~ Binomial(n(n−1), p): mean 99 900·0.05 = 4995, sd ≈ 68.9.
        let t = ImplicitGnp::new(1000, 0.005, 11);
        let m = t.materialize().m() as f64;
        let mean: f64 = 1000.0 * 999.0 * 0.005;
        let sd = (mean * 0.995).sqrt();
        assert!((m - mean).abs() < 6.0 * sd, "m = {m}, expected ≈ {mean}");
    }

    #[test]
    fn with_expected_degree_matches_paper_parameterisation() {
        let t = ImplicitGnp::with_expected_degree(1 << 12, 24.0, 9);
        assert!((t.p() - 24.0 / 4096.0).abs() < 1e-12);
        let mean_deg = t.materialize().m() as f64 / 4096.0;
        assert!((mean_deg - 24.0).abs() < 2.0, "mean degree {mean_deg}");
        // Degenerate corners: d > n caps at p = 1; n = 0 stays empty.
        assert_eq!(ImplicitGnp::with_expected_degree(4, 100.0, 0).p(), 1.0);
        assert_eq!(
            ImplicitGnp::with_expected_degree(0, 8.0, 0)
                .materialize()
                .n(),
            0
        );
    }

    #[test]
    fn degree_hint_is_the_binomial_mean_rounded_up() {
        let t = ImplicitGnp::new(1000, 0.01, 2);
        assert_eq!(t.degree_hint(0), (0.01f64 * 999.0).ceil() as u64);
        // Hints are heuristic, but should be the right order: compare
        // the total against the realised edge count.
        let total: u64 = (0..1000).map(|u| t.degree_hint(u)).sum();
        let m = t.materialize().m() as u64;
        assert!(total >= m / 2 && total <= m * 2, "hint {total} vs m {m}");
    }

    /// The cached-prefix keying must reproduce the original derivation
    /// (`ChaCha8Rng::seed_from_u64(split_seed(graph_seed, b"gnp-row", u))`)
    /// word for word — equal seeds must keep giving the same graph
    /// across this optimisation.
    #[test]
    fn fast_row_keying_matches_seed_from_u64_of_split_seed() {
        use rand_chacha::rand_core::{RngCore, SeedableRng};
        for graph_seed in [0u64, 7, 0xDEAD_BEEF_CAFE_F00D] {
            let t = ImplicitGnp::new(1 << 10, 0.01, graph_seed);
            for u in [0u32, 1, 511, 1023] {
                let mut fast = ChaCha8Rng::from_key_words(t.row_key(u));
                let mut slow = ChaCha8Rng::seed_from_u64(radio_util::split_seed(
                    graph_seed,
                    b"gnp-row",
                    u64::from(u),
                ));
                for _ in 0..32 {
                    assert_eq!(
                        fast.next_u32(),
                        slow.next_u32(),
                        "seed {graph_seed} row {u}"
                    );
                }
            }
        }
    }

    /// Row `u` by the scalar walk over the row's own stream.
    fn scalar_row(t: &ImplicitGnp, u: NodeId) -> Vec<NodeId> {
        let mut row = Vec::new();
        if t.emit_degenerate(u, &mut |v| row.push(v)) {
            return row;
        }
        let mut rng = ChaCha8Rng::from_key_words(t.row_key(u));
        scalar::walk(&mut rng, t.p, (t.n - 1) as u64, |s| {
            row.push(if s < u64::from(u) { s } else { s + 1 } as NodeId)
        });
        row
    }

    #[test]
    fn rows_match_the_scalar_walk_over_the_p_grid() {
        for n in [2usize, 5, 64, 300] {
            for p in scalar::p_grid(n) {
                let t = ImplicitGnp::new(n, p, 17);
                for u in 0..n as NodeId {
                    assert_eq!(row(&t, u), scalar_row(&t, u), "n {n} p {p} u {u}");
                }
            }
        }
    }

    /// Rows whose walks end at every lane of a kernel batch: a row of
    /// degree m uses m + 1 words, spread here over about 40..90.
    #[test]
    fn rows_ending_at_every_batch_residue_match_the_scalar_walk() {
        let t = ImplicitGnp::new(600, 64.0 / 599.0, 23);
        let mut lanes = [false; SKIP_LANES];
        for u in 0..600 {
            let r = row(&t, u);
            lanes[(r.len() + 1) % SKIP_LANES] = true;
            assert_eq!(r, scalar_row(&t, u), "u {u}");
        }
        assert_eq!(lanes, [true; SKIP_LANES], "a lane no row ended at");
    }

    #[test]
    fn independent_of_shared_rng_state() {
        // Unlike gnp_directed, queries consume no caller RNG: a derived
        // rng elsewhere can't perturb the graph.
        let mut noise = derive_rng(1, b"noise", 0);
        let t = ImplicitGnp::new(100, 0.1, 4);
        let before = row(&t, 50);
        let _ = noise.random::<u64>();
        assert_eq!(row(&t, 50), before);
    }
}
