//! Grid-bucketed torus geometry: the shared range scan and the implicit
//! geometric backend.
//!
//! [`GridIndex`] is the one implementation of "which points lie within
//! distance `r` of `p`?" used by *both* the materializing geometric
//! generators (`generate::geometric`) and the query-on-demand
//! [`ImplicitGrid`] backend. Sharing it is not just DRY — it is how the
//! wrapped-scan dedup fix is guaranteed to hold everywhere at once.
//!
//! # The range scan
//!
//! The index keeps each point's coordinates in bucket order, as two
//! arrays aligned with the bucket-grouped ids, so a bucket's candidates
//! are contiguous in memory and need no per-candidate gather.
//! [`GridIndex::for_each_within`] walks the deduplicated 3×3 bucket
//! neighbourhood of `p` row by row, merging the x-adjacent buckets of a
//! grid row into one span where they do not wrap (they are adjacent in
//! bucket order). For each block of at most 64 candidates of a span it
//! builds a `u64` mask, bit `l` set iff candidate `l` is within range,
//! and emits the set bits in trailing-zero order: ascending slot, that
//! is buckets in neighborhood-scan order and ids ascending within each,
//! the row order every committed result was generated with.
//!
//! The mask computes exactly the IEEE operations of the squared torus
//! distance — subtract, `abs`, `d > 0.5 → 1 − d`, two products, one
//! sum, `<= r²` — as selects instead of branches, so it vectorizes. It
//! runs under AVX-512 or AVX2 codegen where the host has them and
//! portably otherwise; no path fuses a multiply-add, so every path
//! computes the bits of the scalar distance, candidate by candidate,
//! and every graph and row stays byte-identical.
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

use crate::simd::VectorPath;
use crate::topology::{RangeQueryCost, Topology};
use crate::{DiGraph, NodeId};
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

/// The cell of coordinate `c ∈ [0, 1)` on an axis of `cells` cells.
#[inline]
fn axis_cell(c: f64, cells: usize) -> usize {
    ((c * cells as f64) as usize).min(cells - 1)
}

/// Candidates per mask block of the range scan: one bit of a `u64` each.
const BLOCK: usize = 64;

/// Bit `l` is set iff candidate `(xs[l], ys[l])` lies within squared
/// torus distance `r2` of `p`: the squared distance's IEEE operations,
/// in its order, with selects for its branches. `xs` and `ys` have the
/// same length, at most [`BLOCK`].
#[inline(always)]
fn within_mask_body(xs: &[f64], ys: &[f64], p: (f64, f64), r2: f64) -> u64 {
    debug_assert!(xs.len() == ys.len() && xs.len() <= BLOCK);
    let mut mask = 0;
    for (l, (&x, &y)) in xs.iter().zip(ys).enumerate() {
        let dx = (p.0 - x).abs();
        let dy = (p.1 - y).abs();
        let dx = if dx > 0.5 { 1.0 - dx } else { dx };
        let dy = if dy > 0.5 { 1.0 - dy } else { dy };
        mask |= u64::from(dx * dx + dy * dy <= r2) << l;
    }
    mask
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx512dq")]
fn within_mask_avx512(xs: &[f64], ys: &[f64], p: (f64, f64), r2: f64) -> u64 {
    within_mask_body(xs, ys, p, r2)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn within_mask_avx2(xs: &[f64], ys: &[f64], p: (f64, f64), r2: f64) -> u64 {
    within_mask_body(xs, ys, p, r2)
}

/// The mask of one block (see `within_mask_body`) under `path`'s
/// codegen; every path computes the same bits. A path the host lacks
/// runs the portable code.
#[inline(always)]
fn within_mask(path: VectorPath, xs: &[f64], ys: &[f64], p: (f64, f64), r2: f64) -> u64 {
    match path {
        // SAFETY: the guard detected the target features.
        #[cfg(target_arch = "x86_64")]
        VectorPath::Avx512 if path.available() => unsafe { within_mask_avx512(xs, ys, p, r2) },
        // SAFETY: the guard detected the target feature.
        #[cfg(target_arch = "x86_64")]
        VectorPath::Avx2 if path.available() => unsafe { within_mask_avx2(xs, ys, p, r2) },
        _ => within_mask_body(xs, ys, p, r2),
    }
}

/// A CSR-shaped spatial hash of torus points: `cells × cells` square
/// buckets, each holding the ids of the points inside it in ascending
/// order, with every point's coordinates stored in the same (bucket)
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
    /// `xs[s]`, `ys[s]`: the coordinates of point `nodes[s]`.
    xs: Vec<f64>,
    ys: Vec<f64>,
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
        let (xs, ys) = pos.iter().copied().unzip();
        Self::from_coords(xs, ys, min_cell_width).0
    }

    /// Bucket the points `(xs[i], ys[i])`, moving the coordinates into
    /// bucket order in place (no second copy of them is ever live), and
    /// return with the index `slots[i]`, the bucket slot of point `i`.
    fn from_coords(mut xs: Vec<f64>, mut ys: Vec<f64>, min_cell_width: f64) -> (Self, Vec<u32>) {
        assert!(
            min_cell_width > 0.0 && min_cell_width.is_finite(),
            "cell width must be positive and finite"
        );
        assert!(
            xs.len() <= NodeId::MAX as usize,
            "too many points for NodeId"
        );
        let n = xs.len();
        let cap = ((4 * n.max(16)) as f64).sqrt() as usize;
        let cells = ((1.0 / min_cell_width).floor() as usize).min(cap).max(1);
        let nc = cells * cells;
        // Counting sort; filling in id order keeps buckets id-sorted.
        // `slots` holds each point's bucket until it gets its slot.
        let mut slots: Vec<u32> = xs
            .iter()
            .zip(&ys)
            .map(|(&x, &y)| (axis_cell(y, cells) * cells + axis_cell(x, cells)) as u32)
            .collect();
        let mut starts = vec![0u32; nc + 1];
        for &c in &slots {
            starts[c as usize + 1] += 1;
        }
        for i in 0..nc {
            starts[i + 1] += starts[i];
        }
        let mut cursor: Vec<u32> = starts[..nc].to_vec();
        let mut nodes = vec![0 as NodeId; n];
        for (i, slot) in slots.iter_mut().enumerate() {
            let c = *slot as usize;
            nodes[cursor[c] as usize] = i as NodeId;
            *slot = cursor[c];
            cursor[c] += 1;
        }
        // Move point i to slot `slots[i]`, one permutation cycle at a
        // time: the point a move displaces is the next to move.
        let mut placed = vec![0u64; n.div_ceil(64)];
        for first in 0..n {
            if placed[first / 64] >> (first % 64) & 1 == 1 {
                continue;
            }
            let (mut x, mut y) = (xs[first], ys[first]);
            let mut s = slots[first] as usize;
            loop {
                placed[s / 64] |= 1 << (s % 64);
                std::mem::swap(&mut x, &mut xs[s]);
                std::mem::swap(&mut y, &mut ys[s]);
                if s == first {
                    break;
                }
                s = slots[s] as usize;
            }
        }
        let grid = GridIndex {
            cells,
            starts,
            nodes,
            xs,
            ys,
        };
        (grid, slots)
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

    /// Visit the slot ranges `lo..hi` of the *distinct* buckets of the
    /// wrapped 3×3 neighborhood of `p`'s cell (the dedup-correct scan),
    /// grid row by grid row, x-adjacent buckets of a row merged into one
    /// range where they do not wrap. Slot order is the order in which
    /// the buckets, and the ids inside them, were always visited.
    #[inline]
    fn for_each_span<F: FnMut(usize, usize)>(&self, p: (f64, f64), mut f: F) {
        let cells = self.cells;
        let (xs, nx) = wrapped_axis(axis_cell(p.0, cells), cells);
        let (ys, ny) = wrapped_axis(axis_cell(p.1, cells), cells);
        // Runs of consecutive x cells, as half-open cell ranges.
        let mut runs = [(0, 0); 3];
        let mut nr = 0;
        for &bx in &xs[..nx] {
            if nr > 0 && runs[nr - 1].1 == bx {
                runs[nr - 1].1 = bx + 1;
            } else {
                runs[nr] = (bx, bx + 1);
                nr += 1;
            }
        }
        for &by in &ys[..ny] {
            let row = by * cells;
            for &(lo, hi) in &runs[..nr] {
                f(
                    self.starts[row + lo] as usize,
                    self.starts[row + hi] as usize,
                );
            }
        }
    }

    /// Call `f(v)` for every point `v` within squared torus distance
    /// `r2` of `p` (`p` itself included, if it is a point), in ascending
    /// bucket slot: buckets in the order of the 3×3 neighborhood scan,
    /// ids ascending within a bucket. `r2` must not exceed the square
    /// of the cell width the index was built for, or points beyond the
    /// neighborhood are missed.
    #[inline]
    pub fn for_each_within<F: FnMut(NodeId)>(&self, p: (f64, f64), r2: f64, f: F) {
        self.scan(VectorPath::detect(), p, r2, f)
    }

    /// [`Self::for_each_within`] with the mask path chosen.
    #[inline]
    fn scan<F: FnMut(NodeId)>(&self, path: VectorPath, p: (f64, f64), r2: f64, mut f: F) {
        self.for_each_span(p, |lo, hi| {
            let blocks = self.xs[lo..hi]
                .chunks(BLOCK)
                .zip(self.ys[lo..hi].chunks(BLOCK))
                .zip(self.nodes[lo..hi].chunks(BLOCK));
            for ((xs, ys), ids) in blocks {
                let mut mask = within_mask(path, xs, ys, p, r2);
                while mask != 0 {
                    f(ids[mask.trailing_zeros() as usize]);
                    mask &= mask - 1;
                }
            }
        });
    }

    /// Total number of candidate ids in the neighborhood of `p`
    /// (including `p`'s own id) — a cheap out-degree upper bound.
    pub fn candidate_count(&self, p: (f64, f64)) -> u64 {
        let mut total = 0u64;
        self.for_each_span(p, |lo, hi| total += (hi - lo) as u64);
        total
    }
}

/// Implicit random geometric (unit-disk) topology on the unit torus:
/// `n` points, one shared radius `r`, edge `u → v` iff
/// `torus_dist(u, v) ≤ r`. Stores only the O(n) grid index — the
/// coordinates in bucket order, the ids, a node-to-slot index and the
/// bucket boundaries — and recomputes rows on demand in O(expected
/// degree), so memory is 24 bytes/node plus 4 per bucket regardless of
/// edge count: 395,720 B at n = 2¹⁴, d = 8 ln n (625 buckets), where a
/// CSR holds ~1.27 M edges at 4 bytes each (~5.1 MB); at n = 2²⁴ with
/// degree 8·ln n that is ~8.3 GiB of CSR against ~384 MiB here.
///
/// Symmetric by construction (shared radius), matching
/// [`crate::generate::random_geometric`]: generating both from the same
/// RNG state yields identical positions and therefore identical
/// neighbor sets.
#[derive(Debug, Clone)]
pub struct ImplicitGrid {
    r: f64,
    r2: f64,
    grid: GridIndex,
    /// `slot[u]`: where node `u` sits in the grid's bucket order.
    slot: Vec<u32>,
}

impl ImplicitGrid {
    /// Wrap existing torus positions with query radius `r`.
    ///
    /// # Panics
    /// Panics unless `0 < r ≤ 0.5` (torus metric bound) and all
    /// coordinates lie in `[0, 1)`.
    pub fn from_positions(pos: Vec<(f64, f64)>, r: f64) -> Self {
        let (xs, ys) = pos.into_iter().unzip();
        Self::from_coords(xs, ys, r)
    }

    /// [`Self::from_positions`] for the points `(xs[i], ys[i])`.
    fn from_coords(xs: Vec<f64>, ys: Vec<f64>, r: f64) -> Self {
        assert!(r > 0.0 && r <= 0.5, "radius must satisfy 0 < r ≤ 0.5");
        assert!(
            xs.iter().chain(&ys).all(|c| (0.0..1.0).contains(c)),
            "positions must lie in the unit square [0,1)²"
        );
        let (grid, slot) = GridIndex::from_coords(xs, ys, r);
        ImplicitGrid {
            r,
            r2: r * r,
            grid,
            slot,
        }
    }

    /// Draw `n` uniform torus points from `rng` — the *same* draws, in
    /// the same order, as [`crate::generate::random_geometric`], so the
    /// two are neighbor-set-identical for equal RNG states.
    pub fn generate<R: Rng + ?Sized>(n: usize, r: f64, rng: &mut R) -> Self {
        let (mut xs, mut ys) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..n {
            xs.push(rng.random::<f64>());
            ys.push(rng.random::<f64>());
        }
        Self::from_coords(xs, ys, r)
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

    /// Node positions on the unit torus, in id order (gathered from the
    /// bucket-ordered coordinates).
    pub fn positions(&self) -> Vec<(f64, f64)> {
        self.slot.iter().map(|&s| self.point(s)).collect()
    }

    /// The position of the point in bucket slot `s`.
    #[inline]
    fn point(&self, s: u32) -> (f64, f64) {
        (self.grid.xs[s as usize], self.grid.ys[s as usize])
    }

    /// Materialize the full CSR graph, row by row through the same scan
    /// as the queries. O(m) memory, so small-n only; equals
    /// `random_geometric` for matching draws.
    pub fn materialize(&self) -> DiGraph {
        let n = self.slot.len();
        let expected = n as f64 * std::f64::consts::PI * self.r2 * n as f64;
        crate::generate::geometric::graph_by_rows(n, expected, |u, row| {
            Topology::for_each_out(self, u as NodeId, |v| row.push(v));
        })
    }
}

impl Topology for ImplicitGrid {
    #[inline]
    fn n(&self) -> usize {
        self.slot.len()
    }

    #[inline]
    fn degree_hint(&self, u: NodeId) -> u64 {
        // Candidate count minus self: an upper bound that is cheap
        // (≤ 9 bucket length lookups) and tight within a small factor.
        self.grid
            .candidate_count(self.point(self.slot[u as usize]))
            .saturating_sub(1)
    }

    #[inline]
    fn for_each_out<F: FnMut(NodeId)>(&self, u: NodeId, mut f: F) {
        let p = self.point(self.slot[u as usize]);
        self.grid.for_each_within(p, self.r2, |v| {
            if v != u {
                f(v);
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

/// Independent oracles for the range scan, shared with the generator
/// tests: nothing here calls the scan.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{axis_cell, wrapped_axis, GridIndex};
    use crate::generate::geometric::torus_dist2;
    use crate::NodeId;

    /// Every point `v` (`p`'s own id included) within squared torus
    /// distance `r2` of `p`, by all-pairs `torus_dist2`, ordered the way
    /// the neighborhood scan has always emitted them: by the rank of
    /// `v`'s bucket row among the visited rows, then of its bucket
    /// column, then by id. On `cells ≥ 3` the scan visits `c − 1, c,
    /// c + 1` (wrapped), on 2 cells `c` then the other, on 1 cell the
    /// one.
    pub(crate) fn naive_within(
        pos: &[(f64, f64)],
        cells: usize,
        p: (f64, f64),
        r2: f64,
    ) -> Vec<NodeId> {
        let rank = |b: usize, c: usize| -> usize {
            let shift = if cells >= 3 { 1 } else { 0 };
            let r = (b + cells + shift - c) % cells;
            assert!(r < 3, "neighbour outside the 3×3 neighbourhood");
            r
        };
        let (cx, cy) = (axis_cell(p.0, cells), axis_cell(p.1, cells));
        let mut hits: Vec<(usize, usize, NodeId)> = (0..pos.len())
            .filter(|&v| torus_dist2(p, pos[v]) <= r2)
            .map(|v| {
                let (bx, by) = (axis_cell(pos[v].0, cells), axis_cell(pos[v].1, cells));
                (rank(by, cy), rank(bx, cx), v as NodeId)
            })
            .collect();
        hits.sort_unstable();
        hits.into_iter().map(|(_, _, v)| v).collect()
    }

    /// The scan the vectorized one replaced: each distinct bucket of the
    /// 3×3 neighborhood in turn, each candidate's id-ordered position
    /// gathered and tested with `torus_dist2`. The cheap oracle of the
    /// differential test.
    pub(crate) fn per_candidate_within(
        grid: &GridIndex,
        pos: &[(f64, f64)],
        p: (f64, f64),
        r2: f64,
        out: &mut Vec<NodeId>,
    ) {
        let cells = grid.cells();
        let (xs, nx) = wrapped_axis(axis_cell(p.0, cells), cells);
        let (ys, ny) = wrapped_axis(axis_cell(p.1, cells), cells);
        for &by in &ys[..ny] {
            for &bx in &xs[..nx] {
                for &v in grid.bucket(bx, by) {
                    if torus_dist2(p, pos[v as usize]) <= r2 {
                        out.push(v);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{naive_within, per_candidate_within};
    use super::*;
    use crate::generate::random_geometric;
    use radio_util::derive_rng;

    fn row<T: Topology>(t: &T, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        t.for_each_out(u, |v| out.push(v));
        out
    }

    fn uniform(n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut rng = derive_rng(seed, b"grid-pos", 0);
        (0..n)
            .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
            .collect()
    }

    fn scan_row(grid: &GridIndex, path: VectorPath, p: (f64, f64), r2: f64) -> Vec<NodeId> {
        let mut out = Vec::new();
        grid.scan(path, p, r2, |v| out.push(v));
        out
    }

    /// Every point's row equals the all-pairs oracle, in the scan's
    /// emission order, on every path and through the dispatch.
    fn assert_scan_matches_naive(pos: &[(f64, f64)], width: f64, radii: &[f64], label: &str) {
        let grid = GridIndex::new(pos, width);
        for &r in radii {
            let r2 = r * r;
            for (u, &p) in pos.iter().enumerate() {
                let want = naive_within(pos, grid.cells(), p, r2);
                for path in VectorPath::host_paths() {
                    assert_eq!(
                        scan_row(&grid, path, p, r2),
                        want,
                        "{label}: cells {} r {r} u {u} {path:?}",
                        grid.cells()
                    );
                }
                let mut dispatched = Vec::new();
                grid.for_each_within(p, r2, |v| dispatched.push(v));
                assert_eq!(dispatched, want, "{label}: r {r} u {u} dispatched");
            }
        }
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
        // candidate of every query, and must appear exactly once. At
        // r² = 0.5, the largest squared torus distance, every candidate
        // is in range, so the scan emits each candidate it visits.
        for width in [1.0, 0.5, 0.4, 0.26] {
            let pos = uniform(64, 40);
            let grid = GridIndex::new(&pos, width);
            assert!(grid.cells() <= 3);
            for &p in &pos {
                let mut seen = vec![0u32; pos.len()];
                grid.for_each_within(p, 0.5, |v| seen[v as usize] += 1);
                assert!(
                    seen.iter().all(|&c| c == 1),
                    "width = {width}: some node visited ≠ 1 times: {seen:?}"
                );
                assert_eq!(grid.candidate_count(p), 64);
            }
        }
    }

    #[test]
    fn grid_index_buckets_partition_the_ids() {
        let pos = uniform(500, 41);
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
        // The coordinates follow their ids into bucket order.
        for (s, &v) in grid.nodes.iter().enumerate() {
            assert_eq!((grid.xs[s], grid.ys[s]), pos[v as usize]);
        }
    }

    #[test]
    fn implicit_grid_matches_materializing_generator() {
        // Same RNG state ⇒ identical positions ⇒ identical neighbor
        // sets, including at the torus radius bound where the old scan
        // double-visited.
        for r in [0.08, 0.35, 0.5] {
            let (g, pos) = random_geometric(256, r, &mut derive_rng(42, b"grid", 0));
            let t = ImplicitGrid::generate(256, r, &mut derive_rng(42, b"grid", 0));
            assert_eq!(t.positions(), pos);
            for u in 0..256 as NodeId {
                let mut mine = row(&t, u);
                mine.sort_unstable();
                assert_eq!(mine, g.out_neighbors(u), "r = {r}, u = {u}");
            }
            assert_eq!(t.materialize(), g, "r = {r}");
        }
    }

    /// Grids of 1, 2, 3, 4 and 7 cells per side, with query radii up to
    /// the cell width (and 0.5), against the all-pairs oracle on every
    /// path.
    #[test]
    fn scan_matches_the_naive_oracle_on_every_grid_size() {
        let pos = uniform(150, 47);
        for (width, cells) in [(1.0, 1), (0.5, 2), (0.3, 3), (0.25, 4), (0.14, 7)] {
            assert_eq!(GridIndex::new(&pos, width).cells(), cells);
            let radii = [0.01, width.min(0.5) / 2.0, width.min(0.5)];
            assert_scan_matches_naive(&pos, width, &radii, "uniform");
            if width <= 0.5 {
                let t = ImplicitGrid::from_positions(pos.clone(), width);
                assert_eq!(t.grid.cells(), cells);
                assert_rows_match_naive(&t, &pos);
            }
        }
    }

    /// Every row of `t` is the all-pairs oracle's, in emission order,
    /// with the row's own node left out.
    fn assert_rows_match_naive(t: &ImplicitGrid, pos: &[(f64, f64)]) {
        for (u, &p) in pos.iter().enumerate() {
            let mut want = naive_within(pos, t.grid.cells(), p, t.r2);
            want.retain(|&v| v as usize != u);
            assert_eq!(row(t, u as NodeId), want, "r {} u {u}", t.r);
        }
    }

    /// Points on cell edges, at both ends of `[0, 1)`, and pairs at
    /// exactly distance `r` — straight, diagonal (3-4-5) and across the
    /// wrap — which the `<=` must keep.
    #[test]
    fn scan_keeps_ties_and_cell_edge_points() {
        let top = 1.0f64.next_down();
        for (r, lattice) in [(0.5, 4), (0.25, 8), (0.125, 16), (5.0 / 32.0, 32)] {
            let step = 1.0 / lattice as f64;
            let mut pos: Vec<(f64, f64)> = (0..lattice * lattice)
                .map(|i| ((i % lattice) as f64 * step, (i / lattice) as f64 * step))
                .collect();
            pos.extend([(top, top), (top, 0.0), (0.0, top), (top, 0.5)]);
            pos.extend(uniform(40, 48));
            let r2 = r * r;
            // The ties exist and are exact.
            let a = (0.0, 0.0);
            let tie = if lattice == 32 {
                (3.0 * step, 4.0 * step)
            } else {
                (1.0 - r, 0.0)
            };
            assert_eq!(crate::generate::geometric::torus_dist2(a, tie), r2);
            assert_scan_matches_naive(&pos, r, &[r], "lattice");
            assert_rows_match_naive(&ImplicitGrid::from_positions(pos.clone(), r), &pos);
        }
    }

    /// Buckets of 1, 63, 64, 65, 127, 128 and 129 points, and merged
    /// spans of twice that: the mask blocks split and end on both sides
    /// of every multiple of 64 candidates.
    #[test]
    fn scan_handles_buckets_around_the_block_size() {
        for k in [1usize, 63, 64, 65, 127, 128, 129] {
            let mut rng = derive_rng(k as u64, b"grid-block", 0);
            let mut pos = Vec::new();
            // On an 8-cell grid: k points in cell (2, 2), k in its right
            // neighbour (merged spans), and k in (7, 5) and (0, 5)
            // (a wrapped, unmerged pair of buckets).
            for (cx, cy) in [(2, 2), (3, 2), (7, 5), (0, 5)] {
                for _ in 0..k {
                    let x = (cx as f64 + rng.random::<f64>()) / 8.0;
                    let y = (cy as f64 + rng.random::<f64>()) / 8.0;
                    pos.push((x, y));
                }
            }
            pos.extend(uniform(30, 49));
            assert_scan_matches_naive(&pos, 0.125, &[0.06, 0.125], "clustered");
        }
    }

    /// The mask of every block length 0–64 equals `torus_dist2` on every
    /// path, candidates near the `0.5` fold and the radius included.
    #[test]
    fn block_masks_match_the_distance_on_every_path() {
        let mut rng = derive_rng(50, b"grid-mask", 0);
        for len in 0..=BLOCK {
            for _ in 0..20 {
                let p = (rng.random::<f64>(), rng.random::<f64>());
                let r2 = rng.random::<f64>() * 0.5;
                let mut xs: Vec<f64> = (0..len).map(|_| rng.random::<f64>()).collect();
                let ys: Vec<f64> = (0..len).map(|_| rng.random::<f64>()).collect();
                if len > 0 {
                    // One candidate exactly half a torus away in x.
                    xs[0] = (p.0 + 0.5).fract();
                }
                let want = (0..len).fold(0u64, |m, l| {
                    let d2 = crate::generate::geometric::torus_dist2(p, (xs[l], ys[l]));
                    m | u64::from(d2 <= r2) << l
                });
                for path in VectorPath::host_paths() {
                    assert_eq!(
                        within_mask(path, &xs, &ys, p, r2),
                        want,
                        "len {len} {path:?}"
                    );
                }
            }
        }
    }

    /// The scan on every path against the per-candidate scan it
    /// replaced, over `rows` rows of random graphs: n log-uniform in
    /// [2, 2¹⁴], expected degree log-uniform in [0.5, 256] (radius
    /// saturating at 0.5), uniform positions.
    fn scan_differential(rows: u64) {
        let mut rng = derive_rng(51, b"grid-differential", 0);
        let (mut done, mut graphs, mut emitted) = (0u64, 0u64, 0u64);
        let (mut want, mut got) = (Vec::new(), Vec::new());
        let paths = VectorPath::host_paths();
        while done < rows {
            let n = (2.0f64 * 8192f64.powf(rng.random::<f64>())) as usize;
            let d = 0.5 * 512f64.powf(rng.random::<f64>());
            let r = (d / (std::f64::consts::PI * n as f64)).sqrt().min(0.5);
            let pos = uniform_from(&mut rng, n);
            let grid = GridIndex::new(&pos, r);
            let r2 = r * r;
            for &p in &pos {
                want.clear();
                per_candidate_within(&grid, &pos, p, r2, &mut want);
                emitted += want.len() as u64;
                for &path in &paths {
                    got.clear();
                    grid.scan(path, p, r2, |v| got.push(v));
                    assert_eq!(got, want, "n {n} r {r} p {p:?} {path:?}");
                }
            }
            done += n as u64;
            graphs += 1;
        }
        println!(
            "{done} rows of {graphs} graphs on paths {paths:?}: {emitted} neighbours, all equal"
        );
    }

    fn uniform_from<R: Rng>(rng: &mut R, n: usize) -> Vec<(f64, f64)> {
        (0..n)
            .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
            .collect()
    }

    /// The per-candidate oracle itself against the all-pairs one.
    #[test]
    fn per_candidate_oracle_matches_the_naive_oracle() {
        for (n, r) in [(300, 0.05), (200, 0.3), (100, 0.5)] {
            let pos = uniform(n, 52);
            let grid = GridIndex::new(&pos, r);
            for &p in &pos {
                let mut got = Vec::new();
                per_candidate_within(&grid, &pos, p, r * r, &mut got);
                assert_eq!(got, naive_within(&pos, grid.cells(), p, r * r));
            }
        }
    }

    /// CI's cut of the release differential test.
    #[test]
    #[ignore = "release differential test; run with --ignored"]
    fn grid_scan_matches_the_per_candidate_scan_on_1e5_rows() {
        scan_differential(100_000);
    }

    /// The full release differential test: 10⁷ rows, every path.
    #[test]
    #[ignore = "release differential test (~30 s); run with --ignored"]
    fn grid_scan_matches_the_per_candidate_scan_on_1e7_rows() {
        scan_differential(10_000_000);
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

    /// The backend's heap: 24 bytes per node (two coordinates, the id
    /// and the node-to-slot index) plus 4 per bucket.
    #[test]
    fn footprint_is_24_bytes_per_node_plus_the_buckets() {
        let n = 1 << 14;
        let d = 8.0 * (n as f64).ln();
        let t = ImplicitGrid::with_expected_degree(n, d, &mut derive_rng(53, b"grid", 0));
        let g = &t.grid;
        let bytes = 8 * (g.xs.capacity() + g.ys.capacity())
            + 4 * (g.nodes.capacity() + g.starts.capacity() + t.slot.capacity());
        assert_eq!(g.cells(), 25);
        assert_eq!(bytes, 24 * n + 4 * (25 * 25 + 1));
        assert_eq!(bytes, 395_720);
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
