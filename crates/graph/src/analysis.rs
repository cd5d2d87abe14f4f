//! Graph analysis: BFS layers, diameter, connectivity, degree statistics.
//!
//! These feed the experiments directly — Lemma 3.1 (the diameter of
//! `G(n,p)` is `⌈log n / log d⌉` w.h.p.) is checked by measuring
//! [`diameter_from`] over many sampled graphs, and the Theorem 4.1/4.2
//! harnesses need true source eccentricities to set the known-`D`
//! parameter of Algorithm 3.

use crate::{DiGraph, NodeId};
use std::collections::VecDeque;

/// BFS distances from `src` along out-edges; `None` = unreachable.
pub fn bfs_distances(g: &DiGraph, src: NodeId) -> Vec<Option<u32>> {
    let mut dist: Vec<Option<u32>> = vec![None; g.n()];
    let mut q = VecDeque::new();
    dist[src as usize] = Some(0);
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let du = dist[u as usize].expect("queued node has distance");
        for &v in g.out_neighbors(u) {
            if dist[v as usize].is_none() {
                dist[v as usize] = Some(du + 1);
                q.push_back(v);
            }
        }
    }
    dist
}

/// Nodes grouped by BFS distance from `src`: `layers[k]` holds the nodes
/// at distance exactly `k`. Unreachable nodes are absent.
pub fn bfs_layers(g: &DiGraph, src: NodeId) -> Vec<Vec<NodeId>> {
    let dist = bfs_distances(g, src);
    let max_d = dist.iter().flatten().copied().max().unwrap_or(0) as usize;
    let mut layers: Vec<Vec<NodeId>> = vec![Vec::new(); max_d + 1];
    for (v, d) in dist.iter().enumerate() {
        if let Some(d) = d {
            layers[*d as usize].push(v as NodeId);
        }
    }
    layers
}

/// Number of nodes reachable from `src` (including `src`).
pub fn reachable_count(g: &DiGraph, src: NodeId) -> usize {
    bfs_distances(g, src).iter().flatten().count()
}

/// Eccentricity of `src`: max distance to any node, provided *all* nodes
/// are reachable; `None` otherwise.
///
/// For a broadcast source this is the relevant "diameter `D`" — the paper
/// always measures broadcast time against the source's eccentricity bound.
pub fn diameter_from(g: &DiGraph, src: NodeId) -> Option<u32> {
    let dist = bfs_distances(g, src);
    let mut max = 0u32;
    for d in &dist {
        match d {
            Some(d) => max = max.max(*d),
            None => return None,
        }
    }
    Some(max)
}

/// True iff every node can reach every other node.
///
/// Checked as: all nodes reachable from node 0 in `g` *and* in the
/// transpose of `g` (two BFS passes — the textbook strong-connectivity
/// test without building SCCs).
pub fn is_strongly_connected(g: &DiGraph) -> bool {
    if g.n() == 0 {
        return true;
    }
    if reachable_count(g, 0) != g.n() {
        return false;
    }
    reachable_count(&g.reverse(), 0) == g.n()
}

/// Min/mean/max of in- and out-degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    pub out_min: usize,
    pub out_max: usize,
    pub out_mean: f64,
    pub in_min: usize,
    pub in_max: usize,
    pub in_mean: f64,
}

/// Compute [`DegreeStats`] for `g`.
///
/// In-degrees are counted in one pass over the out-CSR's flat neighbour
/// array, so this never forces the lazily built in-view.
pub fn degree_stats(g: &DiGraph) -> DegreeStats {
    let n = g.n().max(1);
    let mut in_deg = vec![0u32; g.n()];
    for &v in g.out_csr().flat_neighbors() {
        in_deg[v as usize] += 1;
    }
    let (mut omin, mut omax, mut imin, mut imax) = (usize::MAX, 0usize, usize::MAX, 0usize);
    for (v, &id) in in_deg.iter().enumerate() {
        let od = g.out_degree(v as NodeId);
        omin = omin.min(od);
        omax = omax.max(od);
        imin = imin.min(id as usize);
        imax = imax.max(id as usize);
    }
    if g.n() == 0 {
        (omin, imin) = (0, 0);
    }
    DegreeStats {
        out_min: omin,
        out_max: omax,
        out_mean: g.m() as f64 / n as f64,
        in_min: imin,
        in_max: imax,
        in_mean: g.m() as f64 / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{cycle, gnp_directed, path, star};
    use radio_util::derive_rng;

    #[test]
    fn bfs_on_path() {
        let g = path(6);
        let d = bfs_distances(&g, 0);
        for (i, di) in d.iter().enumerate() {
            assert_eq!(*di, Some(i as u32));
        }
        assert_eq!(diameter_from(&g, 0), Some(5));
        assert_eq!(diameter_from(&g, 3), Some(3));
    }

    #[test]
    fn bfs_layers_partition_reachable_nodes() {
        let g = star(9);
        let layers = bfs_layers(&g, 0);
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0], vec![0]);
        assert_eq!(layers[1].len(), 8);
    }

    #[test]
    fn unreachable_nodes_reported() {
        // 0 → 1, and isolated node 2.
        let g = DiGraph::from_edges(3, &[(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], None);
        assert_eq!(diameter_from(&g, 0), None);
        assert_eq!(reachable_count(&g, 0), 2);
        assert!(!is_strongly_connected(&g));
    }

    #[test]
    fn strong_connectivity_needs_both_directions() {
        // Directed cycle is strongly connected; directed path is not.
        let c = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(is_strongly_connected(&c));
        let p = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(!is_strongly_connected(&p));
        assert!(is_strongly_connected(&cycle(5)));
    }

    #[test]
    fn gnp_diameter_matches_lemma_3_1_shape() {
        // Lemma 3.1: for p = δ log n / n with large δ, D = ⌈log n / log d⌉.
        let n = 2048usize;
        let delta = 16.0;
        let p = delta * (n as f64).ln() / n as f64;
        let d = n as f64 * p;
        let predicted = ((n as f64).log2() / d.log2()).ceil() as u32;
        let mut hits = 0;
        for t in 0..5 {
            let g = gnp_directed(n, p, &mut derive_rng(100 + t, b"lemma31", 0));
            if let Some(diam) = diameter_from(&g, 0) {
                if diam == predicted || diam == predicted + 1 {
                    hits += 1;
                }
            }
        }
        assert!(hits >= 4, "diameter far from ⌈log n / log d⌉ = {predicted}");
    }

    #[test]
    fn degree_stats_on_star() {
        let g = star(5);
        let s = degree_stats(&g);
        assert_eq!(s.out_max, 4);
        assert_eq!(s.out_min, 1);
        assert!((s.out_mean - 8.0 / 5.0).abs() < 1e-12);
        assert_eq!(s.in_max, 4);
    }

    #[test]
    fn degree_stats_on_gnp_match_the_in_view() {
        let g = gnp_directed(500, 0.02, &mut derive_rng(9, b"degree-stats", 0));
        let s = degree_stats(&g);
        assert!(
            !g.in_view_built(),
            "degree_stats must not build the in-view"
        );
        let in_degs: Vec<usize> = (0..g.n() as NodeId).map(|v| g.in_csr().degree(v)).collect();
        assert_eq!(s.in_min, *in_degs.iter().min().unwrap());
        assert_eq!(s.in_max, *in_degs.iter().max().unwrap());
        assert!(s.in_min < s.in_max, "a G(n,p) sample has spread in-degrees");
        let out_degs = (0..g.n() as NodeId).map(|u| g.out_degree(u));
        assert_eq!(s.out_min, out_degs.clone().min().unwrap());
        assert_eq!(s.out_max, out_degs.max().unwrap());
        assert!((s.in_mean - in_degs.iter().sum::<usize>() as f64 / 500.0).abs() < 1e-12);
    }

    #[test]
    fn degree_stats_empty_graph() {
        let g = DiGraph::from_edges(0, &[]);
        let s = degree_stats(&g);
        assert_eq!(s.out_min, 0);
        assert_eq!(s.out_max, 0);
    }
}
