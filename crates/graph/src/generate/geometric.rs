//! Random geometric (unit-disk) radio networks.
//!
//! The paper's §5 names random geometric graphs as the natural next model
//! ("the Erdös–Rényi model … appears to be somewhat unrealistic for
//! practical AdHoc networks"), and its §1 motivates *heterogeneous* ranges
//! ("one device may be able to listen to messages sent out by a node in
//! its communication range, but not vice-versa"). Both variants live here:
//!
//! * [`random_geometric`] — all nodes share one radius → symmetric edges.
//! * [`random_geometric_directed`] — per-node radii drawn from an interval
//!   → genuinely directed links, exactly the asymmetry the paper's model
//!   permits.
//!
//! Points are uniform on the **unit torus** (wrap-around distance), which
//! removes boundary effects and keeps the expected degree `n·π·r²`
//! uniform across nodes — the property the `G(n,p)` analysis leans on.
//! Neighbour search is the grid range scan of [`GridIndex`] (cell width ≥
//! max radius), so generation is `O(n · E[deg])`, and the out-CSR is
//! built row by row: each node's row is scanned, sorted in place and
//! closed with its offset, with no `(u, v)` pair list and no global sort.

use crate::generate::edge_capacity;
use crate::topology::GridIndex;
use crate::{Csr, DiGraph, NodeId};
use rand::{Rng, RngExt};

/// Parameters for geometric generation.
#[derive(Debug, Clone, Copy)]
pub struct GeoParams {
    /// Number of nodes.
    pub n: usize,
    /// Minimum transmission radius (torus metric).
    pub r_min: f64,
    /// Maximum transmission radius. Equal to `r_min` for the symmetric model.
    pub r_max: f64,
}

impl GeoParams {
    /// Homogeneous radius `r` for all nodes.
    pub fn uniform(n: usize, r: f64) -> Self {
        GeoParams {
            n,
            r_min: r,
            r_max: r,
        }
    }

    /// Radius giving expected degree `d` on the unit torus: `π r² n = d`.
    ///
    /// The solution exceeds the torus metric bound `r = 0.5` once
    /// `d > π n / 4` (small `n`, large `d`) — a radius the generators
    /// reject with an assert deep inside `generate`, far from the call
    /// site that picked `d`. Instead of handing that footgun on, the
    /// radius **saturates at 0.5** (the densest geometry the torus
    /// supports, expected degree ≈ π(n−1)/4) with a stderr warning, so
    /// sweeps that scale `d` past what a small `n` can realise degrade
    /// gracefully rather than panic.
    pub fn with_expected_degree(n: usize, d: f64) -> Self {
        let r = (d / (std::f64::consts::PI * n as f64)).sqrt();
        if r > 0.5 {
            eprintln!(
                "warning: GeoParams::with_expected_degree(n = {n}, d = {d}) wants \
                 radius {r:.4} > 0.5 (torus bound); saturating at r = 0.5, actual \
                 expected degree ≈ {:.1}",
                std::f64::consts::PI * 0.25 * (n.saturating_sub(1)) as f64
            );
            return Self::uniform(n, 0.5);
        }
        Self::uniform(n, r)
    }
}

/// Squared torus distance between two points of the unit square: the
/// test oracle of the grid range scan, which computes the same IEEE
/// operations.
#[cfg(test)]
pub(crate) fn torus_dist2(a: (f64, f64), b: (f64, f64)) -> f64 {
    let mut dx = (a.0 - b.0).abs();
    let mut dy = (a.1 - b.1).abs();
    if dx > 0.5 {
        dx = 1.0 - dx;
    }
    if dy > 0.5 {
        dy = 1.0 - dy;
    }
    dx * dx + dy * dy
}

/// Build a graph's out-CSR row by row: `row(u, out)` appends `u`'s
/// distinct out-neighbours to `out` in any order, and each row is
/// sorted in place before its offset closes it. `expected_edges` sizes
/// the neighbour array through [`edge_capacity`].
///
/// # Panics
/// Panics if the edge count overflows the `u32` CSR offsets.
pub(crate) fn graph_by_rows<F: FnMut(usize, &mut Vec<NodeId>)>(
    n: usize,
    expected_edges: f64,
    mut row: F,
) -> DiGraph {
    let mut neighbors: Vec<NodeId> = Vec::with_capacity(edge_capacity(n, expected_edges));
    let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
    offsets.push(0);
    for u in 0..n {
        let start = neighbors.len();
        row(u, &mut neighbors);
        neighbors[start..].sort_unstable();
        offsets.push(u32::try_from(neighbors.len()).expect("edge count overflows u32 CSR offsets"));
    }
    DiGraph::from_out_csr(Csr::from_parts(offsets, neighbors))
}

/// Core generator: positions, radii, grid bucketing, edge emission.
/// Edge rule: `u → v` iff `dist(u, v) ≤ radius[u]` (u's range covers v).
fn generate<R: Rng + ?Sized>(params: GeoParams, rng: &mut R) -> (DiGraph, Vec<(f64, f64)>) {
    let GeoParams { n, r_min, r_max } = params;
    assert!(
        r_min > 0.0 && r_max >= r_min && r_max <= 0.5,
        "radii must satisfy 0 < r_min ≤ r_max ≤ 0.5 (torus)"
    );
    let pos: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
        .collect();
    let radius: Vec<f64> = if (r_max - r_min).abs() < f64::EPSILON {
        vec![r_min; n]
    } else {
        (0..n).map(|_| rng.random_range(r_min..=r_max)).collect()
    };

    // Expected out-degree of node u is π·r_u²·n on the torus, so the
    // expected edge total is n·π·E[r²]·n with E[r²] the mean square of a
    // Uniform(r_min, r_max) radius — using r_max² here over-estimated the
    // heterogeneous case by up to 3×, and the unclamped value was handed
    // straight to the allocator (tens of TB at n = 2²⁰ and large r).
    let mean_r2 = (r_min * r_min + r_min * r_max + r_max * r_max) / 3.0;
    let expected = n as f64 * std::f64::consts::PI * mean_r2 * n as f64;
    (graph_on(&pos, |u| radius[u], r_max, expected), pos)
}

/// The graph on `pos` with edge `u → v` iff `dist(u, v) ≤ radius(u)`,
/// every radius at most `r_max`, its CSR sized for `expected` edges.
fn graph_on<F: Fn(usize) -> f64>(
    pos: &[(f64, f64)],
    radius: F,
    r_max: f64,
    expected: f64,
) -> DiGraph {
    // Grid with cell width ≥ r_max so all candidates live in the 3×3
    // neighbourhood of a node's cell. GridIndex's scan visits each
    // bucket exactly once even when the grid wraps at cells < 3 (any
    // r_max > 1/3) — the old open-coded scan double-visited there and
    // leaned on the builder's dedup to hide it.
    let grid = GridIndex::new(pos, r_max);
    graph_by_rows(pos.len(), expected, |u, row| {
        let r = radius(u);
        grid.for_each_within(pos[u], r * r, |v| {
            if v as usize != u {
                row.push(v);
            }
        });
    })
}

/// Symmetric random geometric graph: `n` uniform torus points, mutual edge
/// iff distance ≤ `r`. Returns the graph and node positions.
pub fn random_geometric<R: Rng + ?Sized>(
    n: usize,
    r: f64,
    rng: &mut R,
) -> (DiGraph, Vec<(f64, f64)>) {
    generate(GeoParams::uniform(n, r), rng)
}

/// Heterogeneous-range geometric graph: each node draws its own radius
/// uniformly from `[params.r_min, params.r_max]`; edge `u → v` iff
/// `dist ≤ radius(u)`. Asymmetric whenever radii differ.
pub fn random_geometric_directed<R: Rng + ?Sized>(
    params: GeoParams,
    rng: &mut R,
) -> (DiGraph, Vec<(f64, f64)>) {
    generate(params, rng)
}

/// Core generator for fixed positions (mobility snapshots).
fn graph_for_positions(pos: &[(f64, f64)], r: f64) -> DiGraph {
    let n = pos.len() as f64;
    graph_on(pos, |_| r, r, n * std::f64::consts::PI * r * r * n)
}

/// An endless stream of geometric-graph snapshots under node mobility:
/// `n` points start uniform on the torus and take independent Gaussian
/// steps of standard deviation `sigma` per snapshot (a Brownian /
/// random-walk mobility model). All snapshots share the radius `r`.
///
/// Lazy: [`MobileGeometric::new`] draws the `n` initial positions, the
/// first `next()` builds the snapshot on them, and every later `next()`
/// takes one step per node (none when `sigma == 0`) and then builds that
/// snapshot. The stream owns its RNG, so the draws behind snapshot `k`
/// are the same whether or not snapshot `k + 1` is ever built — use
/// `.take(k)` for a finite sequence.
///
/// Pair it with a topology schedule on the engine's run builder
/// (`radio_sim::Run::schedule`) to study the paper's motivating
/// scenario, protocols on a topology that changes underneath them: run
/// the engine on the first snapshot and schedule the rest, and only the
/// epochs the run reaches are ever built.
#[derive(Debug, Clone)]
pub struct MobileGeometric<R> {
    pos: Vec<(f64, f64)>,
    r: f64,
    sigma: f64,
    rng: R,
    /// Whether the first snapshot (on the initial positions) is out.
    started: bool,
}

impl<R: Rng> MobileGeometric<R> {
    /// Draw `n` uniform initial positions from `rng` (which the stream
    /// then owns).
    ///
    /// # Panics
    /// Panics unless `0 < r ≤ 0.5` and `sigma ≥ 0`.
    pub fn new(n: usize, r: f64, sigma: f64, mut rng: R) -> Self {
        assert!(r > 0.0 && r <= 0.5);
        assert!(sigma >= 0.0);
        let pos = (0..n)
            .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
            .collect();
        MobileGeometric {
            pos,
            r,
            sigma,
            rng,
            started: false,
        }
    }
}

impl<R: Rng> Iterator for MobileGeometric<R> {
    type Item = DiGraph;

    fn next(&mut self) -> Option<DiGraph> {
        if self.started && self.sigma > 0.0 {
            let rng = &mut self.rng;
            for p in self.pos.iter_mut() {
                // Box–Muller Gaussian step, wrapped onto the torus.
                let u1: f64 = (1.0 - rng.random::<f64>()).max(f64::MIN_POSITIVE);
                let u2: f64 = rng.random::<f64>();
                let mag = self.sigma * (-2.0 * u1.ln()).sqrt();
                let dx = mag * (2.0 * std::f64::consts::PI * u2).cos();
                let dy = mag * (2.0 * std::f64::consts::PI * u2).sin();
                p.0 = (p.0 + dx).rem_euclid(1.0);
                p.1 = (p.1 + dy).rem_euclid(1.0);
            }
        }
        self.started = true;
        Some(graph_for_positions(&self.pos, self.r))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use radio_util::derive_rng;

    #[test]
    fn symmetric_model_is_symmetric() {
        let mut rng = derive_rng(11, b"geo", 0);
        let (g, pos) = random_geometric(400, 0.08, &mut rng);
        assert_eq!(pos.len(), 400);
        assert!(g.is_symmetric());
    }

    #[test]
    fn edges_respect_radius_exactly() {
        let mut rng = derive_rng(12, b"geo", 0);
        let r = 0.1;
        let (g, pos) = random_geometric(200, r, &mut rng);
        for u in 0..200usize {
            for v in 0..200usize {
                if u == v {
                    continue;
                }
                let within = torus_dist2(pos[u], pos[v]) <= r * r;
                assert_eq!(
                    g.has_edge(u as NodeId, v as NodeId),
                    within,
                    "edge ({u},{v}) mismatch"
                );
            }
        }
    }

    #[test]
    fn expected_degree_calibration() {
        let mut rng = derive_rng(13, b"geo", 0);
        let n = 3000;
        let d = 25.0;
        let params = GeoParams::with_expected_degree(n, d);
        let (g, _) = random_geometric(n, params.r_min, &mut rng);
        let mean_deg = g.m() as f64 / n as f64;
        assert!(
            (mean_deg - d).abs() < 0.15 * d,
            "mean degree {mean_deg}, wanted ≈ {d}"
        );
    }

    #[test]
    fn heterogeneous_ranges_are_directed() {
        let mut rng = derive_rng(14, b"geo", 0);
        let params = GeoParams {
            n: 500,
            r_min: 0.03,
            r_max: 0.12,
        };
        let (g, _) = random_geometric_directed(params, &mut rng);
        // With a 4× radius spread some links must be one-way.
        let asym = g.edges().filter(|&(u, v)| !g.has_edge(v, u)).count();
        assert!(asym > 0, "expected asymmetric links");
        assert!(!g.is_symmetric());
    }

    #[test]
    fn torus_distance_wraps() {
        assert!(torus_dist2((0.05, 0.5), (0.95, 0.5)) < 0.011);
        assert!((torus_dist2((0.0, 0.0), (0.5, 0.5)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (g1, _) = random_geometric(300, 0.07, &mut derive_rng(15, b"geo", 0));
        let (g2, _) = random_geometric(300, 0.07, &mut derive_rng(15, b"geo", 0));
        assert_eq!(g1, g2);
    }

    #[test]
    fn mobility_sequence_drifts_gradually() {
        let seq: Vec<_> = MobileGeometric::new(300, 0.1, 0.02, derive_rng(16, b"geo", 0))
            .take(5)
            .collect();
        assert_eq!(seq.len(), 5);
        // Consecutive snapshots share most edges; distant ones share fewer.
        let overlap = |a: &crate::DiGraph, b: &crate::DiGraph| -> f64 {
            let shared = a.edges().filter(|&(u, v)| b.has_edge(u, v)).count();
            shared as f64 / a.m().max(1) as f64
        };
        let near = overlap(&seq[0], &seq[1]);
        let far = overlap(&seq[0], &seq[4]);
        assert!(near > 0.5, "σ = 0.02 steps should keep most edges ({near})");
        assert!(far < near, "drift should accumulate ({far} !< {near})");
    }

    #[test]
    fn large_radius_generation_completes_without_over_allocating() {
        // Regression for the capacity bug: the old pre-sizing handed the
        // raw n·π·r_max²·n estimate to the allocator, which (a) used
        // r_max for every node, over-estimating heterogeneous-range
        // graphs ~3×, and (b) at large n aborted with a terabyte-scale
        // reservation before generating a single edge. At the torus
        // radius bound the clamp must keep the request at most the
        // prealloc budget and generation must simply complete.
        let mut rng = derive_rng(19, b"geo", 0);
        let params = GeoParams {
            n: 1200,
            r_min: 0.01,
            r_max: 0.5,
        };
        let (g, _) = random_geometric_directed(params, &mut rng);
        assert_eq!(g.n(), 1200);
        assert!(g.m() > 0);
        // The capacity the generator now requests for the pathological
        // million-node case stays within the budget instead of ~6.9 TB.
        let est = (1u64 << 20) as f64 * std::f64::consts::PI * 0.25 * (1u64 << 20) as f64;
        assert!(crate::generate::edge_capacity(1 << 20, est) <= 1 << 26);
    }

    #[test]
    fn wrapped_scan_emits_no_duplicate_edges() {
        // Regression for the double-visit bug: with cells = ⌊1/r⌋ < 3
        // (any r > 1/3) the old 3×3 scan aliased wrapped offsets and
        // visited buckets up to 9×, emitting duplicate edges that only
        // the builder's sort+dedup hid. The scan must now emit each
        // edge exactly once: the pre-dedup builder count equals the
        // final m(). Replays the generators' own scan so the assertion
        // covers exactly the shared GridIndex scan.
        for r in [0.4, 0.5] {
            let mut rng = derive_rng(20, b"geo", 0);
            let pos: Vec<(f64, f64)> = (0..300)
                .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
                .collect();
            let grid = GridIndex::new(&pos, r);
            let r2 = r * r;
            let mut b = GraphBuilder::new(300);
            for (u, &p) in pos.iter().enumerate() {
                grid.for_each_within(p, r2, |v| {
                    if v as usize != u {
                        b.add_edge(u as NodeId, v);
                    }
                });
            }
            let pending = b.pending_edges();
            let g = b.build();
            assert_eq!(
                pending,
                g.m(),
                "r = {r}: scan emitted duplicates (pre-dedup {pending} vs m {})",
                g.m()
            );
            // And the fixed scan still finds every edge: cross-check
            // against the O(n²) predicate.
            assert_eq!(g, naive_graph(&pos, &[r; 300]), "r = {r}: edge set wrong");
        }
    }

    /// The all-pairs oracle: `u → v` iff `torus_dist2(u, v) ≤ radius[u]²`,
    /// built through `GraphBuilder`'s pair list and sort.
    fn naive_graph(pos: &[(f64, f64)], radius: &[f64]) -> DiGraph {
        let n = pos.len();
        let mut b = GraphBuilder::new(n);
        for u in 0..n {
            for v in 0..n {
                if u != v && torus_dist2(pos[u], pos[v]) <= radius[u] * radius[u] {
                    b.add_edge(u as NodeId, v as NodeId);
                }
            }
        }
        b.build()
    }

    /// Positions on a lattice whose points sit on cell edges and at
    /// exactly distance `r` of each other (straight and across the
    /// wrap), the largest coordinate below 1, and uniform points.
    fn edge_case_positions(lattice: usize, seed: u64) -> Vec<(f64, f64)> {
        let step = 1.0 / lattice as f64;
        let top = 1.0f64.next_down();
        let mut pos: Vec<(f64, f64)> = (0..lattice * lattice)
            .map(|i| ((i % lattice) as f64 * step, (i / lattice) as f64 * step))
            .collect();
        pos.extend([(top, top), (top, 0.0), (0.0, top)]);
        let mut rng = derive_rng(seed, b"geo-edge", 0);
        pos.extend((0..60).map(|_| (rng.random::<f64>(), rng.random::<f64>())));
        pos
    }

    #[test]
    fn random_geometric_equals_the_naive_oracle() {
        // Grids of 2, 3, 4, 7 and 12 cells per side.
        for (n, r) in [
            (300, 0.5),
            (300, 0.3),
            (400, 0.25),
            (500, 0.14),
            (600, 0.08),
        ] {
            let (g, pos) = random_geometric(n, r, &mut derive_rng(23, b"geo", n as u64));
            assert_eq!(g, naive_graph(&pos, &vec![r; n]), "n {n} r {r}");
        }
        // Ties at exactly r and points on cell edges.
        for (r, lattice) in [(0.5, 4), (0.25, 8), (0.125, 16)] {
            let pos = edge_case_positions(lattice, 24);
            let g = graph_for_positions(&pos, r);
            assert_eq!(g, naive_graph(&pos, &vec![r; pos.len()]), "r {r}");
        }
    }

    #[test]
    fn random_geometric_directed_equals_the_naive_oracle() {
        for (r_min, r_max) in [(0.03, 0.12), (0.01, 0.5), (0.2, 0.34)] {
            let n = 400;
            let params = GeoParams { n, r_min, r_max };
            let (g, pos) = random_geometric_directed(params, &mut derive_rng(25, b"geo", 0));
            // The generator's draws: positions, then one radius per node.
            let mut rng = derive_rng(25, b"geo", 0);
            let drawn: Vec<(f64, f64)> = (0..n)
                .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
                .collect();
            assert_eq!(drawn, pos);
            let radius: Vec<f64> = (0..n).map(|_| rng.random_range(r_min..=r_max)).collect();
            assert_eq!(g, naive_graph(&pos, &radius), "r ∈ [{r_min}, {r_max}]");
        }
    }

    #[test]
    fn mobile_snapshots_equal_the_naive_oracle() {
        for (r, sigma) in [(0.1, 0.05), (0.5, 0.2), (0.3, 0.0)] {
            let mut seq = MobileGeometric::new(250, r, sigma, derive_rng(26, b"geo", 0));
            for k in 0..4 {
                let g = seq.next().expect("the stream is endless");
                assert_eq!(g, naive_graph(&seq.pos, &[r; 250]), "r {r} snapshot {k}");
            }
        }
    }

    #[test]
    fn generators_accept_the_full_wrapping_radius_range() {
        // End-to-end over the public API: radii straddling the
        // cells ∈ {1, 2, 3} boundaries all generate and agree with the
        // distance predicate (edges_respect_radius_exactly covers the
        // fine-grid regime; this pins the coarse grids the bug lived in).
        for r in [0.26, 0.4, 0.5] {
            let mut rng = derive_rng(21, b"geo", 0);
            let (g, pos) = random_geometric(150, r, &mut rng);
            for u in 0..150usize {
                for v in 0..150usize {
                    if u == v {
                        continue;
                    }
                    assert_eq!(
                        g.has_edge(u as NodeId, v as NodeId),
                        torus_dist2(pos[u], pos[v]) <= r * r,
                        "r = {r}: edge ({u},{v}) mismatch"
                    );
                }
            }
        }
    }

    #[test]
    fn with_expected_degree_saturates_at_torus_bound() {
        // d > πn/4 has no realisable radius on the torus; the
        // constructor must clamp to 0.5 instead of handing the caller
        // parameters that trip the assert inside generate().
        let p = GeoParams::with_expected_degree(10, 100.0);
        assert_eq!(p.r_min, 0.5);
        assert_eq!(p.r_max, 0.5);
        let (g, _) = random_geometric(10, p.r_min, &mut derive_rng(22, b"geo", 0));
        assert_eq!(g.n(), 10);
        // Sane parameters stay exact.
        let q = GeoParams::with_expected_degree(10_000, 20.0);
        assert!(q.r_min < 0.5);
        let d_back = std::f64::consts::PI * q.r_min * q.r_min * 10_000.0;
        assert!((d_back - 20.0).abs() < 1e-9);
    }

    #[test]
    fn zero_sigma_freezes_topology() {
        let seq: Vec<_> = MobileGeometric::new(200, 0.1, 0.0, derive_rng(17, b"geo", 0))
            .take(3)
            .collect();
        assert_eq!(seq[0], seq[1]);
        assert_eq!(seq[1], seq[2]);
    }

    #[test]
    fn all_snapshots_share_node_count() {
        let mut seq = MobileGeometric::new(150, 0.09, 0.05, derive_rng(18, b"geo", 0)).take(4);
        assert!(seq.all(|g| g.n() == 150));
    }
}
