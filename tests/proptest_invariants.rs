//! Property-based tests over the whole stack: random topologies, random
//! densities, random seeds — the invariants must hold for *all* of them.

use adhoc_radio::core::gossip::{run_ee_gossip, EeGossipConfig};
use adhoc_radio::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Algorithm 1 never lets any node transmit twice — on any G(n,p),
    /// any density (both Phase-2 regimes), any seed, either Phase-2
    /// reading.
    #[test]
    fn alg1_at_most_one_transmission(
        n in 16usize..400,
        dens in 0.02f64..0.5,
        seed in 0u64..1_000_000,
        literal_phase2 in any::<bool>(),
    ) {
        let p = dens.max(2.5 / n as f64); // keep d = np > 2
        let g = gnp_directed(n, p, &mut derive_rng(seed, b"prop-g", 0));
        let mut cfg = EeBroadcastConfig::for_gnp(n, p);
        cfg.phase2_all_passive = literal_phase2;
        let out = run_ee_broadcast(&g, 0, &cfg, seed);
        prop_assert!(out.max_msgs_per_node() <= 1);
        // Energy accounting is consistent.
        let per_node_sum: u64 = out.metrics.per_node().iter().map(|&c| c as u64).sum();
        prop_assert_eq!(per_node_sum, out.metrics.total_transmissions());
    }

    /// Broadcast outcomes are internally consistent for the windowed
    /// family: informed counts, completion rounds and round counts agree.
    #[test]
    fn windowed_outcome_consistency(
        n in 8usize..200,
        q in 0.01f64..1.0,
        window in prop::option::of(1u64..64),
        seed in 0u64..1_000_000,
    ) {
        let g = gnp_undirected(n, (4.0 / n as f64).min(0.9), &mut derive_rng(seed, b"prop-g", 1));
        let cfg = match window {
            Some(w) => FloodConfig::retiring(q, w, 300),
            None => FloodConfig::with_prob(q, 300),
        };
        let out = run_flood_broadcast(&g, 0, &cfg, seed);
        prop_assert!(out.informed >= 1, "source is always informed");
        prop_assert!(out.informed <= n);
        prop_assert_eq!(out.all_informed, out.informed == n);
        if let Some(t) = out.broadcast_time {
            prop_assert!(t <= out.rounds_executed);
            prop_assert!(out.all_informed);
        }
    }

    /// Gossip: every node retains its own rumor, knowledge is monotone,
    /// and per-node energy never exceeds the schedule length.
    #[test]
    fn gossip_conservation(
        n in 16usize..150,
        delta in 4.0f64..10.0,
        seed in 0u64..1_000_000,
    ) {
        let p = (delta * (n as f64).ln() / n as f64).min(0.9);
        let g = gnp_directed(n, p, &mut derive_rng(seed, b"prop-g", 2));
        let mut cfg = EeGossipConfig::for_gnp(n, p);
        cfg.gamma = 2.0; // short schedule: completion NOT required here
        cfg.early_stop = false;
        let out = run_ee_gossip(&g, &cfg, seed);
        prop_assert!(out.min_known >= 1, "own rumor must never be lost");
        prop_assert!(out.nodes_complete <= n);
        prop_assert!(
            out.max_msgs_per_node() as u64 <= cfg.schedule_rounds(),
            "cannot transmit more often than rounds exist"
        );
    }

    /// Algorithm 3's structural guarantees on arbitrary connected
    /// topologies: max messages per node ≤ window length; informed set
    /// includes the source; determinism.
    #[test]
    fn alg3_window_bounds_energy(
        spine in 2usize..24,
        legs in 0usize..6,
        seed in 0u64..1_000_000,
    ) {
        let g = caterpillar(spine, legs);
        let n = g.n();
        let d = adhoc_radio::graph::analysis::diameter_from(&g, 0).expect("connected");
        let cfg = GeneralBroadcastConfig::new(n, d);
        let out = run_general_broadcast(&g, 0, &cfg, seed);
        prop_assert!(u64::from(out.max_msgs_per_node()) <= cfg.window());
        prop_assert!(out.informed >= 1);
    }

    /// The trial runner's seeds are collision-free across indices.
    #[test]
    fn trial_seeds_unique(base in any::<u64>()) {
        let seeds = adhoc_radio::sim::parallel_trials(64, base, |_, s| s);
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), seeds.len());
    }

    /// Implicit G(n,p) ≡ the scalar row walk, and ≡ its materialized
    /// CSR — rows, range tilings and degree hints — for any (n, p, seed).
    #[test]
    fn implicit_gnp_equals_csr(
        n in 2usize..300,
        p in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        let t = ImplicitGnp::new(n, p, seed);
        let g = t.materialize();
        prop_assert_eq!(Topology::n(&t), g.n());
        let mid = (n / 2) as NodeId;
        for u in 0..n as NodeId {
            let mut implicit = Vec::new();
            t.for_each_out(u, |v| implicit.push(v));
            prop_assert_eq!(&implicit, &scalar_gnp_row(n, p, seed, u));
            prop_assert_eq!(&implicit, &g.out_neighbors(u).to_vec());
            // Two half-ranges tile the full row, in order.
            let mut tiled = Vec::new();
            t.for_each_out_range(u, 0, mid, |v| tiled.push(v));
            t.for_each_out_range(u, mid, n as NodeId, |v| tiled.push(v));
            prop_assert_eq!(tiled, implicit);
        }
    }

    /// Implicit geometric grid ≡ the materializing generator for the
    /// same seed — any radius, including the wrapped-scan regime
    /// r ∈ (1/3, 0.5] where the dedup fix is load-bearing.
    #[test]
    fn implicit_grid_equals_csr(
        n in 2usize..200,
        r in 0.02f64..=0.5,
        seed in any::<u64>(),
    ) {
        let (g, pos) = random_geometric(n, r, &mut derive_rng(seed, b"prop-topo", 0));
        let t = ImplicitGrid::generate(n, r, &mut derive_rng(seed, b"prop-topo", 0));
        prop_assert_eq!(t.positions(), &pos[..]);
        for u in 0..n as NodeId {
            let mut implicit = Vec::new();
            t.for_each_out(u, |v| implicit.push(v));
            implicit.sort_unstable();
            prop_assert_eq!(implicit, g.out_neighbors(u).to_vec());
        }
    }
}

/// Row `u` of `ImplicitGnp::new(n, p, seed)` the way it was drawn before
/// the batched walk: the row's own stream
/// `ChaCha8Rng::seed_from_u64(split_seed(seed, b"gnp-row", u))`, one libm
/// `ln` per draw, and a saturating slot advance. The oracle shares no
/// code with the walk under test.
fn scalar_gnp_row(n: usize, p: f64, seed: u64, u: NodeId) -> Vec<NodeId> {
    use adhoc_radio::util::split_seed;
    use rand::{RngExt, SeedableRng};
    if n < 2 || p <= 0.0 {
        return Vec::new();
    }
    if p >= 1.0 {
        return (0..n as NodeId).filter(|&v| v != u).collect();
    }
    let mut rng =
        rand_chacha::ChaCha8Rng::seed_from_u64(split_seed(seed, b"gnp-row", u64::from(u)));
    let log1mp = if 1.0 - p == 1.0 {
        (-p).ln_1p()
    } else {
        (1.0 - p).ln()
    };
    let mut skip = || {
        let x: f64 = 1.0 - rng.random::<f64>();
        let s = (x.ln() / log1mp).floor();
        if s >= u64::MAX as f64 {
            u64::MAX
        } else {
            s as u64
        }
    };
    let mut row = Vec::new();
    let mut s = skip();
    while s < (n - 1) as u64 {
        row.push(if s < u64::from(u) { s } else { s + 1 } as NodeId);
        s = s.saturating_add(1).saturating_add(skip());
    }
    row
}
