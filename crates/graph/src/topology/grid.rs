//! Grid-bucketed torus geometry: the shared neighborhood scan and the
//! implicit geometric backend.
//!
//! [`GridIndex`] is the one implementation of "which buckets can hold a
//! point within distance `r`?" used by *both* the materializing
//! geometric generators (`generate::geometric`) and the query-on-demand
//! [`ImplicitGrid`] backend. Sharing it is not just DRY — it is how the
//! wrapped-scan dedup fix is guaranteed to hold everywhere at once.
//!
//! # The double-visit bug this module fixes
//!
//! The grid has `cells = max(⌊1/r⌋, 1)` columns/rows, so the 3×3
//! neighborhood of a cell covers all candidates. The old scan visited
//! offsets `d ∈ {−1, 0, +1}` per axis as `(c + d) mod cells` — correct
//! only when `cells ≥ 3`. With `cells == 2` (every radius in
//! (1/3, 0.5], including the tested torus bound r = 0.5) offsets −1 and
//! +1 alias to the *same* wrapped cell, and with `cells == 1` all three
//! do: buckets were visited up to 4× and 9× respectively, emitting
//! duplicate edges that only `GraphBuilder::build`'s sort+dedup hid.
//! An implicit backend replaying that scan per query would have
//! double-counted transmitters and turned clean single deliveries into
//! phantom collisions. `wrapped_axis` enumerates the *distinct*
//! wrapped coordinates instead, so each bucket is visited exactly once
//! for every `cells`.

use crate::generate::edge_capacity;
use crate::generate::geometric::torus_dist2;
use crate::topology::{RangeQueryCost, Topology};
use crate::{DiGraph, GraphBuilder, NodeId};
use rand::{Rng, RngExt};

/// Distinct wrapped coordinates of `{c−1, c, c+1}` on a ring of `cells`
/// cells, returned as `(coords, count)` with the valid prefix
/// `coords[..count]`.
///
/// For `cells ≥ 3` the three offsets are distinct and returned in
/// `c−1, c, c+1` (wrapped) order; for `cells == 2` the ring has only
/// the two cells `{c, c ^ 1}`; for `cells == 1` only cell 0 exists.
#[inline]
pub(crate) fn wrapped_axis(c: usize, cells: usize) -> ([usize; 3], usize) {
    debug_assert!(c < cells);
    match cells {
        1 => ([0, 0, 0], 1),
        2 => ([c, c ^ 1, 0], 2),
        _ => (
            [
                if c == 0 { cells - 1 } else { c - 1 },
                c,
                if c + 1 == cells { 0 } else { c + 1 },
            ],
            3,
        ),
    }
}

/// A CSR-shaped spatial hash of torus points: `cells × cells` square
/// buckets, each holding the ids of the points inside it in ascending
/// order. Cell width is ≥ the query radius it was built for, so every
/// point within that radius of `p` lives in the (deduplicated) 3×3
/// neighborhood of `p`'s cell.
#[derive(Debug, Clone)]
pub struct GridIndex {
    cells: usize,
    /// Bucket boundaries: bucket `i` is `nodes[starts[i]..starts[i+1]]`.
    starts: Vec<u32>,
    /// Point ids grouped by bucket, ascending within each bucket.
    nodes: Vec<NodeId>,
}

impl GridIndex {
    /// Bucket `pos` with cell width ≥ `min_cell_width` (the query
    /// radius). The cell count is additionally capped so the bucket
    /// array stays O(n) even for tiny radii — a coarser grid only
    /// enlarges candidate sets, never changes query answers.
    ///
    /// # Panics
    /// Panics unless `min_cell_width > 0` and ids fit `NodeId`.
    pub fn new(pos: &[(f64, f64)], min_cell_width: f64) -> Self {
        assert!(
            min_cell_width > 0.0 && min_cell_width.is_finite(),
            "cell width must be positive and finite"
        );
        assert!(
            pos.len() <= NodeId::MAX as usize,
            "too many points for NodeId"
        );
        let cap = ((4 * pos.len().max(16)) as f64).sqrt() as usize;
        let cells = ((1.0 / min_cell_width).floor() as usize).min(cap).max(1);
        let nc = cells * cells;
        let cell_index = |p: (f64, f64)| -> usize {
            let cx = ((p.0 * cells as f64) as usize).min(cells - 1);
            let cy = ((p.1 * cells as f64) as usize).min(cells - 1);
            cy * cells + cx
        };
        // Counting sort; filling in id order keeps buckets id-sorted.
        let mut starts = vec![0u32; nc + 1];
        for &p in pos {
            starts[cell_index(p) + 1] += 1;
        }
        for i in 0..nc {
            starts[i + 1] += starts[i];
        }
        let mut cursor: Vec<u32> = starts[..nc].to_vec();
        let mut nodes = vec![0 as NodeId; pos.len()];
        for (i, &p) in pos.iter().enumerate() {
            let c = cell_index(p);
            nodes[cursor[c] as usize] = i as NodeId;
            cursor[c] += 1;
        }
        GridIndex {
            cells,
            starts,
            nodes,
        }
    }

    /// Grid side length in cells.
    #[inline]
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// The bucket at grid coordinates `(cx, cy)`.
    #[inline]
    pub fn bucket(&self, cx: usize, cy: usize) -> &[NodeId] {
        let i = cy * self.cells + cx;
        &self.nodes[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// Visit each *distinct* bucket of the wrapped 3×3 neighborhood of
    /// `p`'s cell exactly once (the dedup-correct scan).
    #[inline]
    pub fn for_each_candidate_bucket<F: FnMut(&[NodeId])>(&self, p: (f64, f64), mut f: F) {
        let cx = ((p.0 * self.cells as f64) as usize).min(self.cells - 1);
        let cy = ((p.1 * self.cells as f64) as usize).min(self.cells - 1);
        let (xs, nx) = wrapped_axis(cx, self.cells);
        let (ys, ny) = wrapped_axis(cy, self.cells);
        for &by in &ys[..ny] {
            for &bx in &xs[..nx] {
                f(self.bucket(bx, by));
            }
        }
    }

    /// Total number of candidate ids in the neighborhood of `p`
    /// (including `p`'s own id) — a cheap out-degree upper bound.
    pub fn candidate_count(&self, p: (f64, f64)) -> u64 {
        let mut total = 0u64;
        self.for_each_candidate_bucket(p, |b| total += b.len() as u64);
        total
    }
}

/// Implicit random geometric (unit-disk) topology on the unit torus:
/// `n` points, one shared radius `r`, edge `u → v` iff
/// `torus_dist(u, v) ≤ r`. Stores only positions and the O(n) grid
/// index — neighbor queries recompute rows on demand in O(expected
/// degree), so memory is 24 bytes/node regardless of edge count
/// (a CSR stores 8 bytes/*edge*; at n = 2²⁴ with degree 8·ln n that is
/// ~18 GiB vs ~400 MiB here).
///
/// Symmetric by construction (shared radius), matching
/// [`crate::generate::random_geometric`]: generating both from the same
/// RNG state yields identical positions and therefore identical
/// neighbor sets.
#[derive(Debug, Clone)]
pub struct ImplicitGrid {
    pos: Vec<(f64, f64)>,
    r: f64,
    r2: f64,
    grid: GridIndex,
}

impl ImplicitGrid {
    /// Wrap existing torus positions with query radius `r`.
    ///
    /// # Panics
    /// Panics unless `0 < r ≤ 0.5` (torus metric bound) and all
    /// coordinates lie in `[0, 1)`.
    pub fn from_positions(pos: Vec<(f64, f64)>, r: f64) -> Self {
        assert!(r > 0.0 && r <= 0.5, "radius must satisfy 0 < r ≤ 0.5");
        assert!(
            pos.iter()
                .all(|p| (0.0..1.0).contains(&p.0) && (0.0..1.0).contains(&p.1)),
            "positions must lie in the unit square [0,1)²"
        );
        let grid = GridIndex::new(&pos, r);
        ImplicitGrid {
            pos,
            r,
            r2: r * r,
            grid,
        }
    }

    /// Draw `n` uniform torus points from `rng` — the *same* draws, in
    /// the same order, as [`crate::generate::random_geometric`], so the
    /// two are neighbor-set-identical for equal RNG states.
    pub fn generate<R: Rng + ?Sized>(n: usize, r: f64, rng: &mut R) -> Self {
        let pos: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
            .collect();
        Self::from_positions(pos, r)
    }

    /// Generate with the radius giving expected degree `d`
    /// (`π r² n = d`), saturated at the torus bound like
    /// [`crate::generate::GeoParams::with_expected_degree`].
    pub fn with_expected_degree<R: Rng + ?Sized>(n: usize, d: f64, rng: &mut R) -> Self {
        let params = crate::generate::GeoParams::with_expected_degree(n, d);
        Self::generate(n, params.r_min, rng)
    }

    /// The shared transmission radius.
    #[inline]
    pub fn radius(&self) -> f64 {
        self.r
    }

    /// Node positions on the unit torus.
    #[inline]
    pub fn positions(&self) -> &[(f64, f64)] {
        &self.pos
    }

    /// Materialize the full CSR graph — the test oracle. O(m) memory,
    /// so small-n only; equals `random_geometric` for matching draws.
    pub fn materialize(&self) -> DiGraph {
        let n = self.pos.len();
        let expected = n as f64 * std::f64::consts::PI * self.r2 * n as f64;
        let mut b = GraphBuilder::with_capacity(n, edge_capacity(n, expected));
        for u in 0..n as NodeId {
            Topology::for_each_out(self, u, |v| {
                b.add_edge(u, v);
            });
        }
        b.build()
    }
}

impl Topology for ImplicitGrid {
    #[inline]
    fn n(&self) -> usize {
        self.pos.len()
    }

    #[inline]
    fn degree_hint(&self, u: NodeId) -> u64 {
        // Candidate count minus self: an upper bound that is cheap
        // (≤ 9 bucket length lookups) and tight within a small factor.
        self.grid
            .candidate_count(self.pos[u as usize])
            .saturating_sub(1)
    }

    #[inline]
    fn for_each_out<F: FnMut(NodeId)>(&self, u: NodeId, mut f: F) {
        let pu = self.pos[u as usize];
        self.grid.for_each_candidate_bucket(pu, |bucket| {
            for &v in bucket {
                if v != u && torus_dist2(pu, self.pos[v as usize]) <= self.r2 {
                    f(v);
                }
            }
        });
    }

    /// No stored row: every query rescans the candidate buckets, so the
    /// engine's scatter fans out at its lower implicit edge threshold.
    #[inline]
    fn range_query_cost(&self) -> RangeQueryCost {
        RangeQueryCost::FullRowReplay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::random_geometric;
    use radio_util::derive_rng;

    fn row<T: Topology>(t: &T, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        t.for_each_out(u, |v| out.push(v));
        out
    }

    #[test]
    fn wrapped_axis_enumerates_distinct_cells() {
        for cells in 1..=7usize {
            for c in 0..cells {
                let (coords, count) = wrapped_axis(c, cells);
                let got = &coords[..count];
                // Reference: dedup of the naive wrapped offsets.
                let mut want: Vec<usize> = (-1i64..=1)
                    .map(|d| (c as i64 + d).rem_euclid(cells as i64) as usize)
                    .collect();
                want.sort_unstable();
                want.dedup();
                let mut got_sorted = got.to_vec();
                got_sorted.sort_unstable();
                assert_eq!(got_sorted, want, "cells = {cells}, c = {c}");
                assert_eq!(count, cells.min(3));
            }
        }
    }

    #[test]
    fn candidate_scan_visits_each_node_exactly_once() {
        // The heart of the dedup fix: at cells ∈ {1, 2} every node is a
        // candidate of every query, and must appear exactly once.
        for r in [0.5, 0.4, 0.26] {
            let mut rng = derive_rng(40, b"grid", 0);
            let pos: Vec<(f64, f64)> = (0..64)
                .map(|_| {
                    use rand::RngExt;
                    (rng.random::<f64>(), rng.random::<f64>())
                })
                .collect();
            let grid = GridIndex::new(&pos, r);
            for &p in &pos {
                let mut seen = vec![0u32; pos.len()];
                grid.for_each_candidate_bucket(p, |b| {
                    for &v in b {
                        seen[v as usize] += 1;
                    }
                });
                assert!(
                    seen.iter().all(|&c| c == 1),
                    "r = {r}: some node visited ≠ 1 times: {seen:?}"
                );
            }
        }
    }

    #[test]
    fn grid_index_buckets_partition_the_ids() {
        let mut rng = derive_rng(41, b"grid", 0);
        use rand::RngExt;
        let pos: Vec<(f64, f64)> = (0..500)
            .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
            .collect();
        let grid = GridIndex::new(&pos, 0.07);
        let mut all: Vec<NodeId> = Vec::new();
        for cy in 0..grid.cells() {
            for cx in 0..grid.cells() {
                let b = grid.bucket(cx, cy);
                assert!(b.windows(2).all(|w| w[0] < w[1]), "bucket not sorted");
                all.extend_from_slice(b);
            }
        }
        all.sort_unstable();
        assert_eq!(all, (0..500).collect::<Vec<NodeId>>());
    }

    #[test]
    fn implicit_grid_matches_materializing_generator() {
        // Same RNG state ⇒ identical positions ⇒ identical neighbor
        // sets, including at the torus radius bound where the old scan
        // double-visited.
        for r in [0.08, 0.35, 0.5] {
            let (g, pos) = random_geometric(256, r, &mut derive_rng(42, b"grid", 0));
            let t = ImplicitGrid::generate(256, r, &mut derive_rng(42, b"grid", 0));
            assert_eq!(t.positions(), &pos[..]);
            for u in 0..256 as NodeId {
                let mut mine = row(&t, u);
                mine.sort_unstable();
                assert_eq!(mine, g.out_neighbors(u), "r = {r}, u = {u}");
            }
            assert_eq!(t.materialize(), g, "r = {r}");
        }
    }

    #[test]
    fn rows_have_no_self_or_duplicates() {
        let t = ImplicitGrid::generate(128, 0.5, &mut derive_rng(44, b"grid", 0));
        for u in 0..128 as NodeId {
            let r = row(&t, u);
            assert!(!r.contains(&u), "self-loop at {u}");
            let mut s = r.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), r.len(), "duplicate neighbor at {u}");
        }
    }

    #[test]
    fn degree_hint_upper_bounds_true_degree() {
        let t = ImplicitGrid::generate(400, 0.1, &mut derive_rng(45, b"grid", 0));
        for u in 0..400 as NodeId {
            assert!(t.degree_hint(u) >= row(&t, u).len() as u64);
        }
    }

    #[test]
    fn tiny_radius_grid_stays_small() {
        // The cell-count cap: r = 1e−4 with 100 points must not build a
        // 10⁸-bucket grid.
        let t = ImplicitGrid::generate(100, 1e-4, &mut derive_rng(46, b"grid", 0));
        assert!(t.grid.cells().pow(2) <= 4 * 128);
        assert_eq!(t.materialize().n(), 100);
    }
}
