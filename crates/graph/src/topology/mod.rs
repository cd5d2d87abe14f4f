//! Topology backends: the graph as a *neighbor query*, not a data
//! structure.
//!
//! Every run so far materialized a full CSR ([`DiGraph`]) before the
//! first round — an O(m) memory term that caps experiments near
//! n ≈ 2²⁰ under the generator prealloc budget. But the engine never
//! needs the graph as data: its scatter phase only ever asks *"who
//! hears `u`?"*. [`Topology`] captures exactly that question, so the
//! engine can run over three interchangeable backends:
//!
//! * [`DiGraph`] — the existing CSR oracle. `for_each_out` walks the
//!   stored row; monomorphization compiles the generic engine down to
//!   the same code as before.
//! * [`ImplicitGrid`] — torus points + grid buckets. Neighbors of `u`
//!   are recomputed on the fly from positions in O(expected degree)
//!   using the dedup-correct wrapped cell scan shared with the
//!   materializing geometric generators. O(n) memory.
//! * [`ImplicitGnp`] — `G(n,p)` whose row `u` is re-sampled lazily as a
//!   pure function of `(graph_seed, u)` via a per-row counter-based
//!   ChaCha8 stream (the same trick as `radio_sim`'s `DecideStreams`).
//!   O(1) memory.
//!
//! # Contract
//!
//! For a fixed backend value, `for_each_out(u, …)` must visit a fixed
//! duplicate-free set of neighbors (no self-loops) in a deterministic
//! order, and `for_each_out_range(u, lo, hi, …)` must visit exactly the
//! members of that set with `lo ≤ v < hi`, in the same relative order.
//! Duplicate-freedom is load-bearing for collision semantics: the
//! engine counts *distinct transmitters* heard by a receiver, so a
//! backend that reported the same neighbor twice would turn a single
//! clean delivery into a phantom collision. (This is why the wrapped
//! grid scan had to be dedup-fixed before `ImplicitGrid` could reuse
//! it — see [`grid`].)
//!
//! The engine's scatter shards each round's transmitters over its
//! workers, so every backend generates each transmitter's row exactly
//! once per round, into per-worker hit sets that the engine folds. What
//! a row costs differs: CSR reads a stored row, the implicit backends
//! regenerate it on every query. Backends advertise which through
//! [`Topology::range_query_cost`], and the engine uses the hint only to
//! pick the edge volume at which a round fans out. Rows are pure
//! functions of the backend value, so runs stay bit-identical for every
//! thread count.

pub mod gnp;
pub mod grid;

pub use gnp::{GnpRowSampler, ImplicitGnp};
pub use grid::{GridIndex, ImplicitGrid};

use crate::{DiGraph, NodeId};

/// Whether a backend reads its rows from storage or regenerates them on
/// every query — the hint from which the engine's scatter chooses its
/// fan-out threshold, and nothing else (see the module docs).
///
/// This is a *performance* hint only: it must never affect which
/// neighbors a query visits, so a wrong value costs speed, not
/// correctness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeQueryCost {
    /// Stored rows (CSR): a query reads the row. The scatter fans out
    /// at the CSR edge threshold. The default.
    Narrowed,
    /// Rows regenerated on every query (the implicit backends): every
    /// edge carries generation work, so the scatter fans out at a lower
    /// edge volume.
    FullRowReplay,
}

/// A directed radio topology, addressed purely through out-neighbor
/// queries (`u → v` means "`v` hears `u`").
///
/// `Sync` is required because the engine's sharded scatter phase
/// issues queries from worker threads against `&self`.
pub trait Topology: Sync {
    /// Number of nodes.
    fn n(&self) -> usize;

    /// Cheap upper-bound estimate of `u`'s out-degree, used only for
    /// work-size heuristics (e.g. "is this round worth parallelising?").
    /// Must never affect results; exactness is not required.
    fn degree_hint(&self, u: NodeId) -> u64;

    /// Visit every out-neighbor of `u` exactly once, in a deterministic
    /// order (see the module docs for the full contract).
    fn for_each_out<F: FnMut(NodeId)>(&self, u: NodeId, f: F);

    /// Visit exactly the out-neighbors `v` of `u` with `lo ≤ v < hi`,
    /// in the same relative order as [`for_each_out`](Self::for_each_out):
    /// provided as `for_each_out` filtered to the range. The engine no
    /// longer calls it — its scatter reads whole rows — and it stays so
    /// that existing impls compile: perfbench's `CountingTopology`
    /// overrides it.
    fn for_each_out_range<F: FnMut(NodeId)>(&self, u: NodeId, lo: NodeId, hi: NodeId, mut f: F) {
        self.for_each_out(u, |v| {
            if lo <= v && v < hi {
                f(v);
            }
        });
    }

    /// Whether this backend stores its rows or regenerates them per
    /// query; the engine's scatter uses it only to choose its fan-out
    /// threshold, and it must not affect results. Defaults to
    /// [`RangeQueryCost::Narrowed`] — backends that regenerate rows on
    /// every query should override.
    fn range_query_cost(&self) -> RangeQueryCost {
        RangeQueryCost::Narrowed
    }
}

impl Topology for DiGraph {
    #[inline]
    fn n(&self) -> usize {
        DiGraph::n(self)
    }

    #[inline]
    fn degree_hint(&self, u: NodeId) -> u64 {
        self.out_degree(u) as u64
    }

    #[inline]
    fn for_each_out<F: FnMut(NodeId)>(&self, u: NodeId, mut f: F) {
        for &v in self.out_neighbors(u) {
            f(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::gnp_directed;
    use radio_util::derive_rng;

    /// Collect a backend's row through the trait.
    fn row<T: Topology>(t: &T, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        t.for_each_out(u, |v| out.push(v));
        out
    }

    #[test]
    fn digraph_backend_matches_csr_rows() {
        let g = gnp_directed(200, 0.05, &mut derive_rng(31, b"topo", 0));
        assert_eq!(Topology::n(&g), 200);
        for u in 0..200 as NodeId {
            assert_eq!(row(&g, u), g.out_neighbors(u));
            assert_eq!(g.degree_hint(u), g.out_degree(u) as u64);
        }
    }

    #[test]
    fn range_query_cost_hints_per_backend() {
        let g = gnp_directed(50, 0.1, &mut derive_rng(34, b"topo", 0));
        assert_eq!(g.range_query_cost(), RangeQueryCost::Narrowed);
        let gnp = ImplicitGnp::new(50, 0.1, 9);
        assert_eq!(gnp.range_query_cost(), RangeQueryCost::FullRowReplay);
        let grid = ImplicitGrid::generate(50, 0.3, &mut derive_rng(34, b"topo", 1));
        assert_eq!(grid.range_query_cost(), RangeQueryCost::FullRowReplay);
    }

    #[test]
    fn digraph_empty_and_degenerate_ranges() {
        let g = gnp_directed(50, 0.2, &mut derive_rng(33, b"topo", 0));
        let mut seen = false;
        g.for_each_out_range(0, 10, 10, |_| seen = true);
        assert!(!seen, "empty range [10, 10) must visit nothing");
    }
}
