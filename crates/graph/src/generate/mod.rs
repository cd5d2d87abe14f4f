//! Network generators.
//!
//! Everything the paper evaluates on or constructs:
//!
//! * [`gnp`] — the Erdős–Rényi random networks of §2–§3, in the paper's
//!   *directed* variant (`G(n,p)` where each ordered pair carries an edge
//!   independently with probability `p`) and the classical undirected one.
//! * [`classic`] — deterministic shapes used for the general-network
//!   experiments (paths, cycles, grids, trees, caterpillars…).
//! * [`lower_bound`] — the adversarial constructions: the Observation 4.3
//!   star-chain and the Theorem 4.4 / Figure 2 layered network.
//! * [`geometric`] — random geometric (unit-disk) graphs, the model the
//!   paper's §5 names as future work, including the heterogeneous-range
//!   directed variant motivated in §1 ("communication ranges of different
//!   devices can vary").

pub mod classic;
pub mod family;
pub mod geometric;
pub mod gnp;
pub mod lower_bound;
pub mod structured;

/// Hard ceiling on any single generator pre-allocation, in edge entries:
/// 64 Mi entries = 256 MiB as 4-byte CSR neighbour entries (what
/// `gnp_directed` streams into), 512 MiB as the 8-byte `(u, v)` pairs
/// that `GraphBuilder`-based generators stage. Past this an estimate
/// buys nothing: `Vec`'s geometric growth costs at most one extra copy,
/// which is noise next to actually generating that many edges — while
/// an over-estimate turned straight into `with_capacity` aborts the
/// process before generation even starts (the `n²`-flavored geometric
/// estimate requested terabytes at `n = 2²⁰`).
const MAX_PREALLOC_EDGES: usize = 1 << 26;

/// Clamp a (possibly wildly over-estimated) expected-edge count into a
/// safe `Vec::with_capacity` argument, reporting when the prealloc
/// budget was the binding constraint.
///
/// Returns `(capacity, clamped_from)`: `clamped_from` is
/// `Some(graph_feasible_estimate)` exactly when the estimate survived
/// the graph-theoretic `n·(n−1)` cap but exceeded
/// `MAX_PREALLOC_EDGES` (2²⁶) — i.e. the generator genuinely planned more
/// edges than the budget pre-sizes for and the edge vec will re-grow by
/// doubling from 2²⁶. Pure (no I/O) so the clamp decision is testable;
/// [`edge_capacity`] wraps it with the stderr note.
pub fn edge_capacity_planned(n: usize, expected_edges: f64) -> (usize, Option<u128>) {
    let max_edges = (n as u128).saturating_mul(n.saturating_sub(1) as u128);
    // `as` saturates on huge/NaN floats, so the estimate itself can't
    // overflow; negative/NaN estimates clamp to 0 and leave the +16 pad.
    let est = (expected_edges.max(0.0) as u128).saturating_add(16);
    let feasible = est.min(max_edges);
    if feasible > MAX_PREALLOC_EDGES as u128 {
        (MAX_PREALLOC_EDGES, Some(feasible))
    } else {
        (feasible as usize, None)
    }
}

/// Clamp a (possibly wildly over-estimated) expected-edge count into a
/// safe `Vec::with_capacity` argument: never beyond the graph-theoretic
/// maximum `n·(n−1)` and never beyond `MAX_PREALLOC_EDGES` (2²⁶). All
/// generator pre-sizing funnels through here so no parameter corner —
/// huge `n`, radius near the torus bound, `p` near 1 — can turn a hint
/// into a multi-terabyte allocation request. Capacity is a hint only; it
/// never affects the generated graph.
///
/// When the budget clamp binds, the truncation used to be silent: the
/// generator would quietly fall back to doubling growth, and a
/// TB-scale estimate looked identical to a well-sized one. Now a
/// one-line stderr note reports the planned-vs-clamped sizes (the
/// generators have no logging dependency by design), so the scale
/// ceiling is visible, not just survivable.
pub fn edge_capacity(n: usize, expected_edges: f64) -> usize {
    let (cap, clamped_from) = edge_capacity_planned(n, expected_edges);
    if let Some(planned) = clamped_from {
        let mib = planned.saturating_mul(4) / (1 << 20);
        eprintln!(
            "note: generator pre-allocation clamped: planned ≈{planned} edge entries \
             (≈{mib} MiB as CSR, twice that as an edge-pair list) exceeds the \
             {MAX_PREALLOC_EDGES}-entry prealloc budget; reserving {cap} and growing on demand"
        );
    }
    cap
}

pub use classic::{binary_tree, caterpillar, complete, cycle, grid2d, path, star};
pub use family::GraphFamily;
pub use geometric::{random_geometric, random_geometric_directed, GeoParams, MobileGeometric};
pub use gnp::{gnp_directed, gnp_undirected};
pub use lower_bound::{lower_bound_net, star_chain, LowerBoundNet, StarChain};
pub use structured::{clustered, hypercube, random_out_regular, torus2d};

#[cfg(test)]
mod capacity_tests {
    use super::{edge_capacity, edge_capacity_planned, MAX_PREALLOC_EDGES};

    /// The clamp note fires exactly when the budget binds: the pure
    /// `clamped_from` flag is `Some` iff the graph-feasible estimate
    /// exceeds the budget (matching when `edge_capacity` prints).
    #[test]
    fn clamp_note_fires_exactly_when_budget_binds() {
        // Graph-theoretic bound binds first → no note.
        assert_eq!(edge_capacity_planned(10, 1e9), (90, None));
        assert_eq!(edge_capacity_planned(1000, f64::INFINITY), (999_000, None));
        // Small estimates pass through → no note.
        assert_eq!(edge_capacity_planned(100_000, 250.0), (266, None));
        // Exactly at the budget → no note (nothing was truncated).
        let n = usize::MAX;
        let at = (MAX_PREALLOC_EDGES - 16) as f64;
        assert_eq!(edge_capacity_planned(n, at), (MAX_PREALLOC_EDGES, None));
        // Past the budget with a feasible graph → note with the planned
        // figure, already reduced to the graph-theoretic bound.
        let (cap, planned) = edge_capacity_planned(1 << 20, 8.6e11);
        assert_eq!(cap, MAX_PREALLOC_EDGES);
        assert_eq!(planned, Some(8.6e11 as u128 + 16));
        let (cap2, planned2) = edge_capacity_planned(1 << 14, 1e30);
        assert_eq!(cap2, MAX_PREALLOC_EDGES);
        let max_e = (1u128 << 14) * ((1 << 14) - 1);
        assert_eq!(planned2, Some(max_e), "planned figure must be feasible");
    }

    #[test]
    fn small_estimates_pass_through_with_pad() {
        assert_eq!(edge_capacity(100, 250.0), 266);
    }

    #[test]
    fn clamps_to_max_possible_edges() {
        assert_eq!(edge_capacity(10, 1e9), 90);
        assert_eq!(edge_capacity(1, 64.0), 0);
        assert_eq!(edge_capacity(0, 64.0), 0);
    }

    #[test]
    fn clamps_terabyte_scale_estimates_to_the_prealloc_budget() {
        // The pre-fix geometric estimate at n = 2²⁰, r near the torus
        // bound: ~8.6·10¹¹ entries ≈ 6.9 TB of (u32, u32) pairs,
        // requested before a single edge existed.
        let n = 1 << 20;
        let est = (n as f64) * std::f64::consts::PI * 0.5 * 0.5 * (n as f64);
        assert!(est > 8e11);
        assert_eq!(edge_capacity(n, est), MAX_PREALLOC_EDGES);
    }

    #[test]
    fn degenerate_floats_do_not_panic_or_explode() {
        // At n = 1000 the graph-theoretic bound (999 000) binds first.
        assert_eq!(edge_capacity(1000, f64::INFINITY), 999_000);
        assert_eq!(edge_capacity(1000, f64::NAN), 16);
        assert_eq!(edge_capacity(1000, -5.0), 16);
        // usize-overflow corner: n·(n−1) saturates instead of wrapping.
        assert_eq!(edge_capacity(usize::MAX, 1e30), MAX_PREALLOC_EDGES);
    }
}
