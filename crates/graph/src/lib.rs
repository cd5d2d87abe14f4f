//! Directed radio-network graphs.
//!
//! The paper (§1.2) models an ad-hoc network as a directed graph
//! `G = (V, E)`. We adopt the operational convention used throughout its
//! analysis: an edge `u → v` means **`v` can hear `u`'s transmissions**
//! (`u`'s fixed communication range covers `v`). The radio collision rule
//! then reads: `v` receives a message in a round iff *exactly one*
//! in-neighbour of `v` transmits in that round.
//!
//! * [`DiGraph`] — compressed-sparse-row digraph. The out-adjacency is
//!   built eagerly (the engine scatters transmissions along it); the
//!   in-adjacency, which only analysis and the `reference` oracle read,
//!   is transposed from it on first use.
//! * [`builder::GraphBuilder`] — edge-list accumulation with dedup.
//! * [`generate`] — every topology the paper uses or suggests:
//!   `G(n,p)` (directed/undirected), classic shapes, the Observation 4.3
//!   star-chain, the Theorem 4.4 / Figure 2 lower-bound network, and
//!   random geometric graphs (§5 future work).
//! * [`analysis`] — BFS layers, eccentricity/diameter, strong
//!   connectivity, degree statistics.
//! * [`topology`] — the graph as a neighbor *query* instead of a data
//!   structure: the [`Topology`] trait over the CSR oracle and the
//!   O(n)/O(1)-memory implicit backends ([`ImplicitGrid`],
//!   [`ImplicitGnp`]) that lift the O(m) materialisation ceiling.

pub mod analysis;
pub mod builder;
pub mod components;
pub mod csr;
pub mod generate;
mod simd;
pub mod topology;

pub use builder::GraphBuilder;
pub use components::{induced_subgraph, largest_scc, strongly_connected_components, Subgraph};
pub use csr::Csr;
pub use generate::GraphFamily;
pub use topology::{GridIndex, ImplicitGnp, ImplicitGrid, RangeQueryCost, Topology};

use std::sync::OnceLock;

/// Node identifier. `u32` keeps adjacency arrays compact (the perf guides'
/// "smaller integers" advice); 4 × 10⁹ nodes is far beyond any simulation
/// here.
pub type NodeId = u32;

/// A directed graph in CSR form.
///
/// The out-view is built at construction. The in-view is a function of
/// it, so it is transposed on the first call to [`in_csr`](Self::in_csr),
/// [`in_neighbors`](Self::in_neighbors), [`in_degree`](Self::in_degree)
/// or [`reverse`](Self::reverse) and cached: a graph that is only ever
/// simulated on never pays the transpose or its 4 B/edge. Equality
/// compares the out-views alone.
///
/// Immutable after construction; cloning is cheap relative to simulation
/// cost but rarely needed (the engine borrows it).
#[derive(Clone)]
pub struct DiGraph {
    /// Out-adjacency: `out.row(u)` = nodes that hear `u`.
    out: Csr,
    /// In-adjacency, `out` transposed on first use: `row(v)` = nodes
    /// that `v` hears.
    inn: OnceLock<Csr>,
}

impl PartialEq for DiGraph {
    fn eq(&self, other: &Self) -> bool {
        self.out == other.out
    }
}

impl Eq for DiGraph {}

impl std::fmt::Debug for DiGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiGraph")
            .field("n", &self.n())
            .field("m", &self.m())
            .finish()
    }
}

impl DiGraph {
    /// Build from an edge list. Duplicate edges are collapsed; self-loops
    /// are rejected (a radio cannot usefully transmit to itself).
    ///
    /// # Panics
    /// Panics if any endpoint is `>= n` or any edge is a self-loop.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Internal: assemble from a pre-validated out-view (sorted rows, no
    /// duplicates, no self-loops).
    pub(crate) fn from_out_csr(out: Csr) -> Self {
        DiGraph {
            out,
            inn: OnceLock::new(),
        }
    }

    /// Internal: assemble from pre-validated, sorted, deduped edge list.
    pub(crate) fn from_sorted_unique_edges(n: usize, edges: Vec<(NodeId, NodeId)>) -> Self {
        Self::from_out_csr(Csr::from_sorted_pairs(n, edges.into_iter()))
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.out.n()
    }

    /// Number of directed edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.out.nnz()
    }

    /// The out-adjacency CSR view (`row(u)` = nodes that hear `u`). Hot
    /// loops borrow this once and index its raw arrays directly.
    #[inline]
    pub fn out_csr(&self) -> &Csr {
        &self.out
    }

    /// The in-adjacency CSR view (`row(v)` = nodes that `v` hears),
    /// transposed from the out-view by the first caller. The counting
    /// sort in [`Csr::transpose`] keeps every row sorted.
    #[inline]
    pub fn in_csr(&self) -> &Csr {
        self.inn.get_or_init(|| self.out.transpose())
    }

    /// Whether the in-view has been built yet.
    #[cfg(test)]
    pub(crate) fn in_view_built(&self) -> bool {
        self.inn.get().is_some()
    }

    /// Nodes whose radios can hear `u` (sorted).
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.out.row(u)
    }

    /// Nodes that `v` can hear (sorted).
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.in_csr().row(v)
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out.degree(u)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_csr().degree(v)
    }

    /// Edge membership test (binary search on the sorted out-list).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// The transpose graph (every edge reversed). Its in-view is this
    /// graph's out-view, so it comes already built.
    pub fn reverse(&self) -> DiGraph {
        DiGraph {
            out: self.in_csr().clone(),
            inn: OnceLock::from(self.out.clone()),
        }
    }

    /// Iterate all edges in `(source-sorted, target-sorted)` order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n() as NodeId)
            .flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// True if for every edge `u → v` the reverse edge `v → u` exists
    /// (i.e. all communication ranges are mutual).
    pub fn is_symmetric(&self) -> bool {
        self.edges().all(|(u, v)| self.has_edge(v, u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 → {1,2} → 3
        DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn csr_adjacency_is_consistent() {
        let g = diamond();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn has_edge_and_symmetry() {
        let g = diamond();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert!(!g.is_symmetric());
        let sym = DiGraph::from_edges(2, &[(0, 1), (1, 0)]);
        assert!(sym.is_symmetric());
    }

    #[test]
    fn reverse_transposes_all_edges() {
        let g = diamond();
        let r = g.reverse();
        for (u, v) in g.edges() {
            assert!(r.has_edge(v, u));
        }
        assert_eq!(r.m(), g.m());
        assert_eq!(
            r.reverse().edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = DiGraph::from_edges(3, &[(0, 1), (0, 1), (1, 2)]);
        assert_eq!(g.m(), 2);
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        let _ = DiGraph::from_edges(2, &[(1, 1)]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_endpoint_rejected() {
        let _ = DiGraph::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::from_edges(5, &[]);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert!(g.edges().next().is_none());
    }

    #[test]
    fn csr_views_match_neighbor_accessors() {
        let g = diamond();
        for u in 0..g.n() as NodeId {
            assert_eq!(g.out_csr().row(u), g.out_neighbors(u));
            assert_eq!(g.in_csr().row(u), g.in_neighbors(u));
        }
        assert_eq!(g.out_csr().nnz(), g.m());
        assert_eq!(g.in_csr().nnz(), g.m());
        assert_eq!(g.out_csr().offsets().len(), g.n() + 1);
    }

    #[test]
    fn in_view_is_built_lazily_and_equals_the_transpose() {
        use crate::generate::gnp_directed;
        use radio_util::derive_rng;
        use std::sync::Barrier;

        let g = gnp_directed(400, 0.03, &mut derive_rng(3, b"lazy-in-view", 0));
        let unbuilt = g.clone();
        let fresh = g.clone();
        assert!(!g.in_view_built() && !unbuilt.in_view_built());
        assert_eq!(g.in_csr(), &g.out_csr().transpose());
        assert!(g.in_view_built());
        // Equality reads the out-view only, built in-view or not.
        assert_eq!(g, unbuilt);
        assert!(!unbuilt.in_view_built());
        let built_clone = g.clone();
        assert!(built_clone.in_view_built());
        assert_eq!(built_clone.in_csr(), g.in_csr());
        assert_eq!(g.reverse().reverse(), unbuilt);
        assert_eq!(unbuilt.reverse().out_csr(), g.in_csr());

        // Two threads racing for the first access see one identical view.
        assert!(!fresh.in_view_built());
        let barrier = Barrier::new(2);
        let views: Vec<&Csr> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        fresh.in_csr()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(std::ptr::eq(views[0], views[1]));
        assert_eq!(views[0], g.in_csr());
    }

    #[test]
    fn edges_iterator_sorted() {
        let g = DiGraph::from_edges(4, &[(2, 1), (0, 3), (0, 1), (2, 0)]);
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (0, 3), (2, 0), (2, 1)]);
    }
}
