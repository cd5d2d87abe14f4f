//! Erdős–Rényi random networks.
//!
//! The paper's §1.2: *"For random graphs, we use the directed version of
//! the standard model `G(n,p)`, where node `v` has an edge to node `w`
//! with probability `p`. Let `d = np` be the average in and out degree."*
//!
//! Sparse generation uses geometric skipping (Batagelj–Brandes): instead
//! of flipping `n(n−1)` coins, jump between successful pairs with
//! geometrically distributed gaps, giving `O(n + m)` expected time. This
//! matters: the experiment sweeps build thousands of graphs with
//! `n ≤ 2¹⁷`.

use crate::generate::edge_capacity;
use crate::{Csr, DiGraph, NodeId};
use rand::{Rng, RngExt};

/// `ln(1 − p)`, the denominator of [`geometric_skip`], for `0 < p < 1`.
///
/// For `p ≤ 2⁻⁵⁴`, `1.0 - p` rounds to exactly `1.0` and its `ln` is
/// `0.0`, which turns every skip into 0 and the sample into the complete
/// graph; `ln_1p(−p)` keeps those `p` exact. It is used for that case
/// only: the two expressions differ in the last bits at ordinary `p`
/// (already at `p = 10⁻³`), and the committed results pin today's bits.
#[inline]
pub(crate) fn ln_1mp(p: f64) -> f64 {
    let q = 1.0 - p;
    if q == 1.0 {
        (-p).ln_1p()
    } else {
        q.ln()
    }
}

/// Sample the gap to the next success of a Bernoulli(`p`) sequence:
/// `⌊ln(U) / ln(1−p)⌋` for `U ~ Uniform(0,1]`. Shared with the implicit
/// `G(n,p)` topology backend (`topology::gnp`), which replays the same
/// skip walk per row from a per-row seeded stream. Saturates at
/// `u64::MAX`, so callers advance with
/// `i.saturating_add(1).saturating_add(skip)`.
#[inline]
pub(crate) fn geometric_skip<R: Rng + ?Sized>(rng: &mut R, log1mp: f64) -> u64 {
    // `1.0 - random::<f64>()` lies in (0, 1], so `ln` is finite & ≤ 0.
    let u: f64 = 1.0 - rng.random::<f64>();
    let skip = (u.ln() / log1mp).floor();
    if skip >= u64::MAX as f64 {
        u64::MAX
    } else {
        skip as u64
    }
}

/// Directed `G(n, p)`: each ordered pair `(u, v)`, `u ≠ v`, carries the
/// edge `u → v` independently with probability `p`.
///
/// The skip walk streams straight into the out-CSR: one offset per row
/// and one 4-byte neighbour entry per edge, with no `(u, v)` pair list
/// and no in-view (that is built on first use, see [`DiGraph`]).
///
/// # Panics
/// Panics unless `0 ≤ p ≤ 1`.
pub fn gnp_directed<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> DiGraph {
    assert!((0.0..=1.0).contains(&p), "p = {p} out of [0,1]");
    assert!(n as u64 <= u64::from(NodeId::MAX), "n too large for NodeId");
    if n == 0 || p == 0.0 {
        return DiGraph::from_out_csr(Csr::from_parts(vec![0; n + 1], Vec::new()));
    }
    // Slots per row: row u holds the n − 1 targets v ≠ u.
    let stride = n as u64 - 1;
    let total_pairs = n as u64 * stride;
    // 5% headroom over the binomial mean, clamped (the same audit as the
    // geometric generator: at p near 1 the fudge factor pushed the
    // estimate past the pair count, and nothing capped the request).
    let mut neighbors: Vec<NodeId> =
        Vec::with_capacity(edge_capacity(n, total_pairs as f64 * p * 1.05));
    let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
    offsets.push(0);
    if p >= 1.0 {
        for u in 0..n as NodeId {
            neighbors.extend((0..n as NodeId).filter(|&v| v != u));
            offsets.push(neighbors.len() as u32);
        }
    } else {
        let log1mp = ln_1mp(p);
        // Linear index i over ordered non-diagonal pairs, row-major: slot
        // r = i − row_start of row u is target r if r < u else r + 1, so
        // targets ascend within a row and never equal u.
        let mut u: u64 = 0;
        let mut row_start: u64 = 0;
        let mut i: u64 = geometric_skip(rng, log1mp);
        while i < total_pairs {
            while i - row_start >= stride {
                offsets.push(neighbors.len() as u32);
                row_start += stride;
                u += 1;
            }
            let r = i - row_start;
            neighbors.push((if r < u { r } else { r + 1 }) as NodeId);
            i = i
                .saturating_add(1)
                .saturating_add(geometric_skip(rng, log1mp));
        }
        offsets.resize(n + 1, neighbors.len() as u32);
    }
    assert!(
        neighbors.len() <= u32::MAX as usize,
        "edge count {} overflows u32 CSR offsets",
        neighbors.len()
    );
    DiGraph::from_out_csr(Csr::from_parts(offsets, neighbors))
}

/// Undirected `G(n, p)`: each unordered pair `{u, v}` carries *both*
/// directed edges with probability `p` (mutual communication ranges).
pub fn gnp_undirected<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> DiGraph {
    assert!((0.0..=1.0).contains(&p), "p = {p} out of [0,1]");
    assert!(n as u64 <= u64::from(NodeId::MAX), "n too large for NodeId");
    if n < 2 || p == 0.0 {
        return DiGraph::from_sorted_unique_edges(n, Vec::new());
    }
    let total_pairs = (n as u64) * (n as u64 - 1) / 2;
    // Two directed edges per successful pair, 5% headroom, clamped.
    let mut edges: Vec<(NodeId, NodeId)> =
        Vec::with_capacity(edge_capacity(n, total_pairs as f64 * p * 2.1));
    if p >= 1.0 {
        for u in 0..n as NodeId {
            for v in 0..n as NodeId {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        return DiGraph::from_sorted_unique_edges(n, edges);
    }
    let log1mp = ln_1mp(p);
    // Linear index over pairs (u, v) with u < v, row-major:
    // row u holds n−1−u pairs. Walk rows while consuming the skip budget.
    let mut i: u64 = geometric_skip(rng, log1mp);
    let mut u: u64 = 0;
    let mut row_start: u64 = 0; // linear index of pair (u, u+1)
    while i < total_pairs {
        let mut row_len = n as u64 - 1 - u;
        while i >= row_start + row_len {
            row_start += row_len;
            u += 1;
            row_len = n as u64 - 1 - u;
        }
        let v = u + 1 + (i - row_start);
        edges.push((u as NodeId, v as NodeId));
        edges.push((v as NodeId, u as NodeId));
        i = i
            .saturating_add(1)
            .saturating_add(geometric_skip(rng, log1mp));
    }
    edges.sort_unstable();
    DiGraph::from_sorted_unique_edges(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_util::derive_rng;

    #[test]
    fn p_zero_and_one_extremes() {
        let mut rng = derive_rng(1, b"gnp", 0);
        let g0 = gnp_directed(50, 0.0, &mut rng);
        assert_eq!(g0.m(), 0);
        let g1 = gnp_directed(50, 1.0, &mut rng);
        assert_eq!(g1.m(), 50 * 49);
        let u1 = gnp_undirected(30, 1.0, &mut rng);
        assert_eq!(u1.m(), 30 * 29);
        assert!(u1.is_symmetric());
    }

    #[test]
    fn directed_edge_count_concentrates() {
        // m ~ Binomial(n(n−1), p): mean 9900·0.3 = 2970, sd ≈ 45.6.
        let mut rng = derive_rng(2, b"gnp", 0);
        let n = 100;
        let p = 0.3;
        let g = gnp_directed(n, p, &mut rng);
        let mean = (n * (n - 1)) as f64 * p;
        let sd = (mean * (1.0 - p)).sqrt();
        let m = g.m() as f64;
        assert!(
            (m - mean).abs() < 6.0 * sd,
            "m = {m}, expected ≈ {mean} ± {sd}"
        );
    }

    #[test]
    fn undirected_is_symmetric_and_concentrated() {
        let mut rng = derive_rng(3, b"gnp", 0);
        let n = 120;
        let p = 0.2;
        let g = gnp_undirected(n, p, &mut rng);
        assert!(g.is_symmetric());
        let pairs = (n * (n - 1) / 2) as f64;
        let mean = 2.0 * pairs * p;
        let sd = 2.0 * (pairs * p * (1.0 - p)).sqrt();
        let m = g.m() as f64;
        assert!(
            (m - mean).abs() < 6.0 * sd,
            "m = {m}, expected ≈ {mean} ± {sd}"
        );
    }

    #[test]
    fn no_self_loops_generated() {
        let mut rng = derive_rng(4, b"gnp", 0);
        for g in [
            gnp_directed(64, 0.5, &mut rng),
            gnp_undirected(64, 0.5, &mut rng),
        ] {
            assert!(g.edges().all(|(u, v)| u != v));
        }
    }

    #[test]
    fn sparse_degrees_concentrate_around_d() {
        // d = np = 16; every node's out-degree should be within 6σ.
        let mut rng = derive_rng(5, b"gnp", 0);
        let n = 4096;
        let d = 16.0;
        let p = d / n as f64;
        let g = gnp_directed(n, p, &mut rng);
        let sd = (d * (1.0 - p)).sqrt();
        for u in 0..n as NodeId {
            let deg = g.out_degree(u) as f64;
            assert!(
                (deg - d).abs() < 8.0 * sd,
                "node {u} out-degree {deg} far from d = {d}"
            );
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g1 = gnp_directed(200, 0.05, &mut derive_rng(7, b"gnp", 0));
        let g2 = gnp_directed(200, 0.05, &mut derive_rng(7, b"gnp", 0));
        assert_eq!(g1, g2);
    }

    #[test]
    fn empty_n() {
        let mut rng = derive_rng(8, b"gnp", 0);
        assert_eq!(gnp_directed(0, 0.5, &mut rng).n(), 0);
        assert_eq!(gnp_undirected(1, 0.5, &mut rng).m(), 0);
    }

    /// The pre-streaming walk, kept as the reference: every linear index
    /// split by `/` and `%` into a `(u, v)` pair, the pair list built
    /// through `DiGraph::from_edges` (sort, dedup, validate).
    fn pair_list_reference<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> DiGraph {
        let mut edges = Vec::new();
        if n > 0 && p >= 1.0 {
            for u in 0..n as NodeId {
                edges.extend((0..n as NodeId).filter(|&v| v != u).map(|v| (u, v)));
            }
        } else if n > 0 && p > 0.0 {
            let stride = n as u64 - 1;
            let total_pairs = n as u64 * stride;
            let log1mp = ln_1mp(p);
            let mut i = geometric_skip(rng, log1mp);
            while i < total_pairs {
                let u = (i / stride) as NodeId;
                let r = (i % stride) as NodeId;
                edges.push((u, if r < u { r } else { r + 1 }));
                i = i
                    .saturating_add(1)
                    .saturating_add(geometric_skip(rng, log1mp));
            }
        }
        DiGraph::from_edges(n, &edges)
    }

    #[test]
    fn streamed_build_matches_the_pair_list_reference() {
        let mut cases: Vec<(usize, f64, u64)> = Vec::new();
        for n in [0usize, 1, 2, 3] {
            for p in [0.0, 1.0, 0.05, 0.7] {
                cases.extend((0..4).map(|seed| (n, p, seed)));
            }
        }
        let mut pick = derive_rng(12, b"gnp-diff-cases", 0);
        for k in 0..300u64 {
            let n = pick.random_range(0..400usize);
            let p = match k % 4 {
                0 => [0.0, 1.0][pick.random_range(0..2usize)],
                1 => (pick.random_range(1.0..16.0) / n.max(1) as f64).min(1.0),
                2 => pick.random_range(0.2..1.0),
                _ => pick.random::<f64>(),
            };
            cases.push((n, p, k));
        }
        for (n, p, seed) in cases {
            let mut streamed_rng = derive_rng(seed, b"gnp-diff", n as u64);
            let mut reference_rng = derive_rng(seed, b"gnp-diff", n as u64);
            let streamed = gnp_directed(n, p, &mut streamed_rng);
            let reference = pair_list_reference(n, p, &mut reference_rng);
            assert_eq!(streamed.out_csr(), reference.out_csr(), "n {n} p {p}");
            assert_eq!(streamed.in_csr(), reference.in_csr(), "n {n} p {p}");
            assert_eq!(
                streamed_rng.random::<u64>(),
                reference_rng.random::<u64>(),
                "caller RNG position, n {n} p {p}"
            );
        }
    }

    /// Below `p = 2⁻⁵⁴` the naive `ln(1 − p)` is 0 and every skip was 0,
    /// so these `p` used to give the complete graph.
    #[test]
    fn tiny_p_gives_an_empty_graph_not_a_complete_one() {
        for p in [5e-17, 1e-300] {
            assert!(ln_1mp(p) < 0.0, "p {p}");
            let mut rng = derive_rng(14, b"gnp", 0);
            assert_eq!(gnp_directed(64, p, &mut rng).m(), 0, "directed, p {p}");
            assert_eq!(gnp_undirected(64, p, &mut rng).m(), 0, "undirected, p {p}");
        }
        // The exact branch is taken only where 1 − p rounds to 1.
        assert_eq!(ln_1mp(1e-3), (1.0f64 - 1e-3).ln());
        assert_eq!(ln_1mp(0.5), 0.5f64.ln());
    }

    /// Scripted words for the skip walk: `0` draws `U = 1` (skip 0),
    /// `u64::MAX` draws the smallest `U` (a skip that saturates at
    /// tiny `p`).
    struct Script(Vec<u64>);

    impl rand::RngCore for Script {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0.pop().unwrap_or(u64::MAX)
        }
    }

    #[test]
    fn a_saturated_skip_ends_the_walk_instead_of_wrapping() {
        // First skip 0 (edge 0 → 1), second saturates at u64::MAX: the
        // old `i + (1 + skip)` wrapped to `i` and re-emitted that edge.
        let mut rng = Script(vec![u64::MAX, 0]);
        assert_eq!(
            geometric_skip(&mut Script(vec![u64::MAX]), ln_1mp(1e-300)),
            u64::MAX
        );
        let g = gnp_directed(4, 1e-300, &mut rng);
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1)]);
        let mut rng = Script(vec![u64::MAX, 0]);
        let u = gnp_undirected(4, 1e-300, &mut rng);
        assert_eq!(u.edges().collect::<Vec<_>>(), vec![(0, 1), (1, 0)]);
    }
}
