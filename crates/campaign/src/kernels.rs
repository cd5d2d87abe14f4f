//! Trial kernels: the `(cell, topology, seed) → TrialResult` functions
//! the compiler dispatches cells onto.
//!
//! These are the hand-written e16/e17 runner closures promoted to
//! library code, **byte-for-byte**: every RNG domain label
//! (`b"engine"`, `b"e16-crash"`, `b"e17-battery"`, …) and every
//! config formula is preserved, so a scenario that mirrors an
//! experiment's sweep produces the exact committed report bytes — the
//! `scenario_fidelity` tests pin this. Variable parameters (crash
//! fraction, listen ratio, mobility σ) ride in the cell label, fixed
//! ones in the kernel config structs (defaults = the experiments'
//! constants).
//!
//! [`faulty_broadcast_trial`] and [`energy_lifetime_trial`] are generic
//! over [`Topology`] — they drive the engine purely through neighbor
//! queries, which is what lets the implicit-grid backend run them
//! without materializing edges. [`energy_crossover_trial`] consults the
//! materialized edge count (its G(n,p)-equivalence estimate predates
//! the implicit backends) and [`mobile_gossip_trial`] regenerates CSR
//! snapshot sequences, so both are CSR-only; the IR validator enforces
//! this.

use radio_core::broadcast::decay::DecayConfig;
use radio_core::broadcast::ee_general::GeneralBroadcastConfig;
use radio_core::broadcast::ee_random::{EeBroadcastConfig, EeRandomBroadcast};
use radio_core::broadcast::flood::FloodConfig;
use radio_core::broadcast::windowed::{
    run_windowed_energy, ProbSource, WindowedBroadcast, WindowedSpec,
};
use radio_core::gossip::{EeGossip, EeGossipConfig};
use radio_core::seq::SharedSequence;
use radio_energy::{Battery, EnergySession, LinearRadio};
use radio_graph::generate::MobileGeometric;
use radio_graph::{DiGraph, GraphFamily, NodeId, Topology};
use radio_sim::{CrashPlan, Engine, EngineConfig, Faulty, Protocol, SweepCell, TrialResult};
use radio_util::{derive_rng, split_seed};

/// `"alg1:f=0.3"` → `("alg1", 0.3)` — the label convention every
/// parameterised kernel shares (`:r=` for ratios). The validator calls
/// it too, so a spec that passes `campaign validate` never fails here.
pub(crate) fn split_label<'l>(label: &'l str, sep: &str) -> Result<(&'l str, f64), String> {
    let (alg, v) = label
        .split_once(sep)
        .ok_or_else(|| format!("label `{label}` missing `{sep}<value>`"))?;
    let value = v
        .parse()
        .map_err(|_| format!("label `{label}`: bad value `{v}`"))?;
    Ok((alg, value))
}

fn parse_label<'l>(label: &'l str, sep: &str) -> (&'l str, f64) {
    split_label(label, sep).unwrap_or_else(|e| panic!("{e}"))
}

/// The G(n,p) edge probability a degree-parameterised config should use
/// for a cell: `p` itself on G(n,p) families, the analytic disk measure
/// `π r²` (capped at 1) on the geometric family, where the cell's `p`
/// is a connection radius. Analytic rather than measured, so it is
/// identical on every backend.
pub(crate) fn p_gnp(family: &GraphFamily, p: f64) -> f64 {
    match family {
        GraphFamily::Geometric => (std::f64::consts::PI * p * p).min(1.0),
        _ => p,
    }
}

/// Fixed parameters of the mobile-gossip kernel.
#[derive(Debug, Clone)]
pub struct MobileGossipCfg {
    /// Topology re-sample interval, in rounds.
    pub switch_every: u64,
    /// Gossip schedule stretch factor.
    pub gamma: f64,
    /// Rumor-set tracking cap.
    pub tracked: Option<usize>,
}

/// One mobility trial: gossip (Algorithm 2) while geometric snapshots
/// drift under Brownian motion. The snapshot stream regenerates from
/// the trial seed (`cell.p` is the connection radius, σ rides in the
/// label as `gossip:f=σ`), and only the epochs the run reaches are
/// built.
pub fn mobile_gossip_trial(cfg: &MobileGossipCfg, cell: &SweepCell, seed: u64) -> TrialResult {
    let n = cell.n;
    let (_, sigma) = parse_label(&cell.algorithm, ":f=");
    let gossip_cfg = EeGossipConfig {
        gamma: cfg.gamma,
        tracked: cfg.tracked,
        ..EeGossipConfig::for_gnp(n, p_gnp(&cell.family, cell.p))
    };
    // No snapshot cap on the endless stream: the round cap (schedule + 1)
    // ends the run in epoch ⌊schedule / switch_every⌋ at the latest, so
    // at most ⌊schedule / switch_every⌋ + 1 snapshots are ever built.
    let mut snapshots = MobileGeometric::new(n, cell.p, sigma, derive_rng(seed, b"e16-mob", 0));
    let first = snapshots.next().expect("the mobility stream is endless");
    let mut protocol = EeGossip::new(gossip_cfg);
    let mut rng = derive_rng(seed, b"engine", 0);
    let run = Engine::new(
        &first,
        EngineConfig::with_max_rounds(gossip_cfg.schedule_rounds() + 1),
    )
    .run(&mut protocol)
    .schedule(snapshots, cfg.switch_every)
    .v1(&mut rng);
    let time = protocol.gossip_time();
    let mut t = TrialResult::from_run(&run, time.is_some(), protocol.informed_count()).extra(
        "mean_msgs_per_node",
        run.metrics.mean_transmissions_per_node(),
    );
    if let Some(gt) = time {
        t = t.extra("gossip_time", gt as f64);
    }
    t
}

/// Fixed parameters of the fail-stop broadcast kernel.
#[derive(Debug, Clone)]
pub struct FaultyBroadcastCfg {
    /// Round the doomed set stops participating.
    pub crash_round: u64,
    /// Exempt the source (node 0) from the doomed set.
    pub spare_source: bool,
    /// Diameter hint handed to the Alg 3 window config.
    pub d_hint: u32,
}

/// One crash/depletion trial. The doomed node set is drawn once per
/// trial (fraction `f` from the label) and injected via the path the
/// label names: `alg1` (crash plan), `alg1_battery` (depletion),
/// `alg1_both` (both, on the same nodes), `alg3` (crash plan under the
/// windowed general broadcast).
pub fn faulty_broadcast_trial<T: Topology>(
    cfg: &FaultyBroadcastCfg,
    cell: &SweepCell,
    graph: &T,
    seed: u64,
    mut trace: Option<OpenTrace<'_>>,
) -> TrialResult {
    let n = cell.n;
    let (variant, frac) = parse_label(&cell.algorithm, ":f=");
    let mut plan = CrashPlan::random_fraction(
        n,
        frac,
        cfg.crash_round,
        &mut derive_rng(seed, b"e16-crash", 0),
    );
    if cfg.spare_source {
        plan = plan.spare(0);
    }
    let survivors = plan.survivors();
    // Battery equivalent of "crash at round R": capacity R−1 under unit
    // drain depletes at the end of round R−1 — dead from round R on.
    let doomed_battery = || {
        Battery::per_node(
            (0..n)
                .map(|v| {
                    if plan.is_crashed(v as NodeId, u64::MAX) {
                        (cfg.crash_round - 1) as f64
                    } else {
                        f64::INFINITY
                    }
                })
                .collect(),
        )
    };
    let session = || {
        EnergySession::new(
            n,
            LinearRadio::uniform_drain(1.0),
            split_seed(seed, b"e16-bat", 0),
        )
        .with_battery(doomed_battery())
    };

    let a_cfg = EeBroadcastConfig::for_gnp(n, p_gnp(&cell.family, cell.p));
    let engine_cfg = EngineConfig::with_max_rounds(a_cfg.schedule_end() + 2);
    let survivor_frac = |p: &EeRandomBroadcast| {
        let known = survivors
            .iter()
            .filter(|&&v| p.informed_round(v).is_some())
            .count();
        known as f64 / survivors.len().max(1) as f64
    };
    let mut open_trace = || trace.as_mut().and_then(|f| f(&engine_cfg));

    let (trial, frac_informed, failed) = match variant {
        "alg1" => {
            let mut p = Faulty::new(EeRandomBroadcast::new(n, 0, a_cfg), plan.clone());
            let mut rng = derive_rng(seed, b"engine", 0);
            let run = match open_trace() {
                Some(mut sink) => {
                    let run = Engine::new(graph, engine_cfg)
                        .run(&mut p)
                        .sink(&mut sink.sink)
                        .v1(&mut rng);
                    sink.finish(run.completed);
                    run
                }
                None => Engine::new(graph, engine_cfg).run(&mut p).v1(&mut rng),
            };
            let fi = survivor_frac(p.inner());
            let failed = plan.failed_by(run.rounds, &[]);
            (
                TrialResult::from_run(&run, fi >= 1.0, p.informed_count()),
                fi,
                failed,
            )
        }
        "alg1_battery" => {
            // Same doomed set, injected purely through depletion.
            let mut p = EeRandomBroadcast::new(n, 0, a_cfg);
            let mut rng = derive_rng(seed, b"engine", 0);
            let mut s = session();
            let run = match open_trace() {
                Some(mut sink) => {
                    let run = Engine::new(graph, engine_cfg)
                        .run(&mut p)
                        .energy(&mut s)
                        .sink(&mut sink.sink)
                        .v1(&mut rng);
                    sink.finish(run.run.completed);
                    run
                }
                None => Engine::new(graph, engine_cfg)
                    .run(&mut p)
                    .energy(&mut s)
                    .v1(&mut rng),
            };
            let fi = survivor_frac(&p);
            let failed = CrashPlan::none(n).failed_by(run.run.rounds, &run.energy.depleted_at);
            let informed = p.informed_count();
            (
                TrialResult::from_energy_run(&run, fi >= 1.0, informed),
                fi,
                failed,
            )
        }
        "alg1_both" => {
            // Crash AND depletion injected on the *same* nodes: the
            // summary count must still be the doomed-set size, not
            // twice it (`CrashPlan::failed_by` dedups).
            let mut p = Faulty::new(EeRandomBroadcast::new(n, 0, a_cfg), plan.clone());
            let mut rng = derive_rng(seed, b"engine", 0);
            let mut s = session();
            let run = Engine::new(graph, engine_cfg)
                .run(&mut p)
                .energy(&mut s)
                .v1(&mut rng);
            let fi = survivor_frac(p.inner());
            let failed = plan.failed_by(run.run.rounds, &run.energy.depleted_at);
            assert!(
                run.run.rounds < cfg.crash_round || failed == plan.crash_count(),
                "dedup broken: {} failed via two paths over {} doomed nodes",
                failed,
                plan.crash_count()
            );
            let informed = p.informed_count();
            (
                TrialResult::from_energy_run(&run, fi >= 1.0, informed),
                fi,
                failed,
            )
        }
        "alg3" => {
            let g_cfg = GeneralBroadcastConfig::new(n, cfg.d_hint);
            let spec = WindowedSpec {
                source: ProbSource::Shared(SharedSequence::new(
                    g_cfg.distribution(),
                    split_seed(seed, b"seq", 0),
                )),
                window: Some(g_cfg.window()),
                early_stop: false,
            };
            let mut p = Faulty::new(WindowedBroadcast::new(n, 0, spec), plan.clone());
            let mut rng = derive_rng(seed, b"engine3", 0);
            let run = Engine::new(graph, EngineConfig::with_max_rounds(g_cfg.max_rounds()))
                .run(&mut p)
                .v1(&mut rng);
            let fi = survivors
                .iter()
                .filter(|&&v| p.inner().informed_round(v) != u64::MAX)
                .count() as f64
                / survivors.len().max(1) as f64;
            let failed = plan.failed_by(run.rounds, &[]);
            (
                TrialResult::from_run(&run, fi >= 1.0, p.informed_count()),
                fi,
                failed,
            )
        }
        other => panic!("faulty_broadcast: unknown variant `{other}`"),
    };
    trial
        .extra("survivor_informed_frac", frac_informed)
        .extra("failed_nodes", failed as f64)
}

/// Fixed parameters of the listen-cost crossover kernel.
#[derive(Debug, Clone)]
pub struct CrossoverCfg {
    /// Flooding's per-round transmit probability.
    pub flood_q: f64,
    /// Diameter hint handed to Decay.
    pub d_hint: u32,
}

/// Equivalent `G(n,p)` edge probability for a generated topology, used
/// to parameterise Algorithm 1 on families other than `gnp_directed`.
/// Measured from the materialized edge count — the historical e17
/// estimate, kept bit-exact (which is why the crossover kernel is
/// CSR-only); e18 uses it too.
pub fn p_equiv_measured(cell: &SweepCell, graph: &DiGraph) -> f64 {
    match cell.family {
        GraphFamily::GnpDirected => cell.p,
        _ => (graph.m() as f64 / cell.n as f64) / cell.n as f64,
    }
}

/// One crossover trial: run the label's algorithm (`alg1` / `flood` /
/// `decay`, ratio after `:r=`) under the ρ-parameterised linear radio
/// with infinite batteries, and report model-based energy.
pub fn energy_crossover_trial(
    cfg: &CrossoverCfg,
    cell: &SweepCell,
    graph: &DiGraph,
    seed: u64,
    mut trace: Option<OpenTrace<'_>>,
) -> TrialResult {
    let n = cell.n;
    let (alg, ratio) = parse_label(&cell.algorithm, ":r=");
    // Charge-to-cap: Algorithm 1 cannot detect completion, so any node
    // still listening pays for the whole schedule even after the
    // transmitters quiesce — the honest listen bill.
    let mut session = EnergySession::new(
        n,
        LinearRadio::with_listen_ratio(ratio),
        split_seed(seed, b"e17-energy", 0),
    )
    .with_charge_to_cap(true);
    let out = match alg {
        "alg1" => {
            let cfg1 = EeBroadcastConfig::for_gnp(n, p_equiv_measured(cell, graph));
            let mut protocol = EeRandomBroadcast::new(n, 0, cfg1);
            let mut rng = derive_rng(seed, b"engine", 0);
            let engine_cfg = EngineConfig::with_max_rounds(cfg1.schedule_end() + 2);
            let run = match trace.as_mut().and_then(|f| f(&engine_cfg)) {
                Some(mut sink) => {
                    let run = Engine::new(graph, engine_cfg)
                        .run(&mut protocol)
                        .energy(&mut session)
                        .sink(&mut sink.sink)
                        .v1(&mut rng);
                    sink.finish(run.run.completed);
                    run
                }
                None => Engine::new(graph, engine_cfg)
                    .run(&mut protocol)
                    .energy(&mut session)
                    .v1(&mut rng),
            };
            let informed = protocol.informed_count();
            return TrialResult::from_energy_run(&run, informed == n, informed)
                .extra("energy_per_node", run.energy.mean_energy_per_node());
        }
        "flood" => {
            // Genie-stopped probabilistic flooding: the most favourable
            // accounting for the baseline.
            let fcfg =
                FloodConfig::with_prob(cfg.flood_q, DecayConfig::new(n, cfg.d_hint).max_rounds());
            run_windowed_energy(
                graph,
                0,
                fcfg.spec(),
                EngineConfig::with_max_rounds(fcfg.max_rounds),
                seed,
                &mut session,
            )
        }
        "decay" => {
            let dcfg = DecayConfig::new(n, cfg.d_hint); // early-stops
            run_windowed_energy(
                graph,
                0,
                dcfg.spec(),
                EngineConfig::with_max_rounds(dcfg.max_rounds()),
                seed,
                &mut session,
            )
        }
        other => panic!("energy_crossover: unknown algorithm `{other}`"),
    };
    let energy_per_node = out
        .energy
        .as_ref()
        .map_or(0.0, |e| e.mean_energy_per_node());
    out.to_trial().extra("energy_per_node", energy_per_node)
}

/// Fixed parameters of the network-lifetime kernel.
#[derive(Debug, Clone)]
pub struct LifetimeCfg {
    /// Fixed mission horizon, in rounds.
    pub horizon: u64,
    /// Battery capacity before jitter.
    pub capacity: f64,
    /// Relative capacity jitter.
    pub jitter: f64,
    /// Flooding's per-round transmit probability.
    pub flood_q: f64,
    /// Diameter hint handed to Decay.
    pub d_hint: u32,
}

/// One lifetime trial: finite jittered batteries, ρ = 1 radio, fixed
/// horizon, no early stopping — how long until the first battery dies,
/// and how much of the network is dead by the end?
pub fn energy_lifetime_trial<T: Topology>(
    cfg: &LifetimeCfg,
    cell: &SweepCell,
    graph: &T,
    seed: u64,
    mut trace: Option<OpenTrace<'_>>,
) -> TrialResult {
    let n = cell.n;
    let battery = Battery::jittered(
        n,
        cfg.capacity,
        cfg.jitter,
        &mut derive_rng(seed, b"e17-battery", 0),
    );
    // Charge-to-cap: the mission horizon is fixed, so receivers that
    // never power down keep draining after the protocol quiesces.
    let mut session = EnergySession::new(
        n,
        LinearRadio::with_listen_ratio(1.0),
        split_seed(seed, b"e17-life", 0),
    )
    .with_battery(battery)
    .with_charge_to_cap(true);
    let engine_cfg = EngineConfig::with_max_rounds(cfg.horizon);
    let trial = match cell.algorithm.as_str() {
        "alg1" => {
            let cfg1 = EeBroadcastConfig::for_gnp(n, p_gnp(&cell.family, cell.p));
            let mut protocol = EeRandomBroadcast::new(n, 0, cfg1);
            let mut rng = derive_rng(seed, b"engine", 0);
            let run = match trace.as_mut().and_then(|f| f(&engine_cfg)) {
                Some(mut sink) => {
                    let run = Engine::new(graph, engine_cfg)
                        .run(&mut protocol)
                        .energy(&mut session)
                        .sink(&mut sink.sink)
                        .v1(&mut rng);
                    sink.finish(run.run.completed);
                    run
                }
                None => Engine::new(graph, engine_cfg)
                    .run(&mut protocol)
                    .energy(&mut session)
                    .v1(&mut rng),
            };
            let informed = protocol.informed_count();
            TrialResult::from_energy_run(&run, informed == n, informed)
        }
        "flood" => {
            // No early stop, no retirement: the classic always-listening
            // flood burns its batteries for the whole horizon.
            let fcfg = FloodConfig {
                early_stop: false,
                ..FloodConfig::with_prob(cfg.flood_q, cfg.horizon)
            };
            run_windowed_energy(graph, 0, fcfg.spec(), engine_cfg, seed, &mut session).to_trial()
        }
        "decay" => {
            let dcfg = DecayConfig {
                early_stop: false,
                ..DecayConfig::new(n, cfg.d_hint)
            };
            run_windowed_energy(graph, 0, dcfg.spec(), engine_cfg, seed, &mut session).to_trial()
        }
        other => panic!("energy_lifetime: unknown algorithm `{other}`"),
    };
    let depleted_frac = trial
        .energy
        .as_ref()
        .map_or(0.0, |e| e.depleted as f64 / n as f64);
    trial.extra("depleted_frac", depleted_frac)
}

/// A kernel's recording hook: opens the trial's `.rtrc` for the engine
/// config the kernel runs with (stamped into the header), or yields
/// `None` — no slot left under the cell cap, or an I/O failure.
pub type OpenTrace<'a> = &'a mut dyn FnMut(&EngineConfig) -> Option<TraceHandle>;

/// An opened per-trial recording: the sink plus a finisher that
/// surfaces footer-write failures as a stderr warning instead of
/// failing the trial (trace capture degrades, never aborts — same
/// contract as `TracePlan::open`).
pub struct TraceHandle {
    /// The open `.rtrc` sink the kernel drives.
    pub sink: radio_trace::RecordingSink<std::io::BufWriter<std::fs::File>>,
}

impl TraceHandle {
    /// Write the footer; a failed footer is a warning, not an error.
    pub fn finish(self, completed: bool) {
        if let Err(e) = self.sink.finish(completed) {
            eprintln!("radio-campaign: warning: trace footer write failed: {e}");
        }
    }
}
