//! Flat compressed-sparse-row adjacency storage.
//!
//! A [`Csr`] is one *direction* of a digraph: `offsets[u] .. offsets[u+1]`
//! indexes the flat `neighbors` array. Offsets are `u32` (not `usize`):
//! the whole index structure for an `n`-node graph is `4(n+1)` bytes, so a
//! simulation sweep at `n = 10⁵` keeps the entire offset array in L2 and
//! streams `neighbors` linearly — the cache-friendly layout that the
//! engine's hot scatter loop iterates directly.
//!
//! [`DiGraph`](crate::DiGraph) owns the out-view `Csr`, built by the
//! generator or graph builder, and its [`Csr::transpose`], the in-view,
//! built on first use; everything downstream borrows slices.

use crate::NodeId;

/// One direction of adjacency in compressed-sparse-row form.
#[derive(Clone, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[u]..offsets[u+1]` indexes `neighbors`; `len == n + 1`.
    offsets: Vec<u32>,
    /// Concatenated, per-row-sorted neighbor lists; `len == nnz`.
    neighbors: Vec<NodeId>,
}

impl std::fmt::Debug for Csr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Csr")
            .field("n", &self.n())
            .field("nnz", &self.nnz())
            .finish()
    }
}

impl Csr {
    /// Assemble from pre-validated parts.
    ///
    /// # Panics
    /// Panics if the offset array is malformed (empty, non-monotone, or
    /// not ending at `neighbors.len()`).
    pub fn from_parts(offsets: Vec<u32>, neighbors: Vec<NodeId>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have n + 1 entries");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        assert_eq!(
            *offsets.last().expect("non-empty") as usize,
            neighbors.len(),
            "offsets must end at neighbors.len()"
        );
        Csr { offsets, neighbors }
    }

    /// Build from `(row, col)` pairs sorted by `(row, col)` with no
    /// duplicates. `nnz` must fit in `u32` (enforced; ~4·10⁹ edges is far
    /// beyond any simulation here).
    pub fn from_sorted_pairs(n: usize, pairs: impl Iterator<Item = (NodeId, NodeId)>) -> Self {
        let mut offsets = vec![0u32; n + 1];
        let mut neighbors = Vec::new();
        let mut last: Option<(NodeId, NodeId)> = None;
        for (u, v) in pairs {
            debug_assert!(last.is_none_or(|l| l < (u, v)), "pairs must be sorted");
            last = Some((u, v));
            offsets[u as usize + 1] += 1;
            neighbors.push(v);
        }
        assert!(
            neighbors.len() <= u32::MAX as usize,
            "edge count {} overflows u32 CSR offsets",
            neighbors.len()
        );
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        Csr { offsets, neighbors }
    }

    /// Build from per-row neighbor lists (each row is sorted on insert).
    ///
    /// Rows that are already sorted — the common case: the generators
    /// emit neighbors in ascending order — are copied straight into the
    /// flat array; only
    /// unsorted rows pay the clone + sort. The sortedness check is one
    /// linear scan of data the copy touches anyway.
    pub fn from_adj_lists(lists: &[Vec<NodeId>]) -> Self {
        let nnz: usize = lists.iter().map(Vec::len).sum();
        assert!(
            nnz <= u32::MAX as usize,
            "edge count {nnz} overflows u32 CSR offsets"
        );
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut neighbors = Vec::with_capacity(nnz);
        offsets.push(0u32);
        for row in lists {
            if row.windows(2).all(|w| w[0] <= w[1]) {
                neighbors.extend_from_slice(row);
            } else {
                let mut sorted = row.clone();
                sorted.sort_unstable();
                neighbors.extend_from_slice(&sorted);
            }
            offsets.push(neighbors.len() as u32);
        }
        Csr { offsets, neighbors }
    }

    /// Number of rows (nodes).
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored entries (edges in this direction).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.neighbors.len()
    }

    /// The neighbor slice of row `u` (sorted ascending).
    #[inline]
    pub fn row(&self, u: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize]
    }

    /// Number of entries in row `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// The raw offset array (`n + 1` entries). Hot loops index this
    /// directly instead of calling [`Csr::row`] per node.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw flat neighbor array (`nnz` entries).
    #[inline]
    pub fn flat_neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// Both raw arrays at once, for the engine's scatter loop.
    #[inline]
    pub fn raw(&self) -> (&[u32], &[NodeId]) {
        (&self.offsets, &self.neighbors)
    }

    /// The transposed view (every stored `u → v` becomes `v → u`),
    /// computed by counting sort; rows stay sorted.
    pub fn transpose(&self) -> Csr {
        let n = self.n();
        let mut offsets = vec![0u32; n + 1];
        for &v in &self.neighbors {
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut neighbors = vec![0 as NodeId; self.nnz()];
        let mut cursor = offsets.clone();
        for u in 0..n {
            for &v in self.row(u as NodeId) {
                neighbors[cursor[v as usize] as usize] = u as NodeId;
                cursor[v as usize] += 1;
            }
        }
        Csr { offsets, neighbors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // 0 → {1,2}, 1 → {3}, 2 → {3}, 3 → {}
        Csr::from_sorted_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)].into_iter())
    }

    #[test]
    fn rows_and_degrees() {
        let c = sample();
        assert_eq!(c.n(), 4);
        assert_eq!(c.nnz(), 4);
        assert_eq!(c.row(0), &[1, 2]);
        assert_eq!(c.row(3), &[] as &[NodeId]);
        assert_eq!(c.degree(0), 2);
        assert_eq!(c.degree(3), 0);
        assert_eq!(c.offsets(), &[0, 2, 3, 4, 4]);
    }

    #[test]
    fn transpose_is_involution() {
        let c = sample();
        let t = c.transpose();
        assert_eq!(t.row(3), &[1, 2]);
        assert_eq!(t.row(0), &[] as &[NodeId]);
        assert_eq!(t.transpose(), c);
    }

    #[test]
    fn adj_list_round_trip() {
        let lists = vec![vec![1, 2], vec![3], vec![3], vec![]];
        assert_eq!(Csr::from_adj_lists(&lists), sample());
    }

    #[test]
    fn from_adj_lists_sorts_rows() {
        let c = Csr::from_adj_lists(&[vec![2, 1], vec![]]);
        assert_eq!(c.row(0), &[1, 2]);
    }

    #[test]
    fn from_adj_lists_sorted_fast_path_matches_sort_path() {
        // Mixed input: sorted rows (fast path, including duplicates and
        // single-element rows), an unsorted row (sort path), and empty
        // rows must all land in the identical CSR.
        let mixed = vec![
            vec![0, 3, 7], // sorted
            vec![5, 2, 9], // unsorted
            vec![],        // empty
            vec![4],       // singleton
            vec![1, 1, 2], // sorted with duplicate entries
            vec![8, 8, 0], // unsorted with duplicates
        ];
        let via_mixed = Csr::from_adj_lists(&mixed);
        let presorted: Vec<Vec<NodeId>> = mixed
            .iter()
            .map(|r| {
                let mut s = r.clone();
                s.sort_unstable();
                s
            })
            .collect();
        assert_eq!(via_mixed, Csr::from_adj_lists(&presorted));
        assert_eq!(via_mixed.row(1), &[2, 5, 9]);
        assert_eq!(via_mixed.row(4), &[1, 1, 2]);
        assert_eq!(via_mixed.row(5), &[0, 8, 8]);
    }

    #[test]
    fn empty_rows_only() {
        let c = Csr::from_sorted_pairs(3, std::iter::empty());
        assert_eq!(c.n(), 3);
        assert_eq!(c.nnz(), 0);
        for u in 0..3 {
            assert!(c.row(u).is_empty());
        }
    }

    #[test]
    #[should_panic]
    fn malformed_offsets_rejected() {
        let _ = Csr::from_parts(vec![0, 2, 1], vec![0, 1]);
    }
}
