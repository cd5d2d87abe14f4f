//! The compiler: lower a validated [`Scenario`] onto the existing
//! [`Sweep`] API, with generic dispatch over [`Topology`] backends.
//!
//! A compiled campaign owns a [`Sweep`] whose cells are the scenario's
//! cells verbatim, in order, and a trial runner that
//! [`Sweep::run_cell`] executes for every trial: it (1) resolves the
//! cell's protocol entry, (2) builds the topology the backend
//! prescribes from the cell's graph stream ([`SweepCell::graph`] on
//! CSR, [`SweepCell::graph_rng`] for the implicit grid), and (3)
//! invokes the matching [`kernels`](crate::kernels) function —
//! monomorphized per backend, so the engine's neighbor-visit loops pay
//! no dispatch cost. Because seeds, graph streams, and aggregation all
//! go through `Sweep`, a compiled report is bit-identical to the
//! hand-written experiment it mirrors — and bit-identical between the
//! CSR and implicit-grid backends on geometric cells (the grid replays
//! the same position draws).
//!
//! [`Topology`]: radio_graph::Topology

use crate::ir::{Backend, ProtocolSpec, Scenario, TraceSpec};
use crate::kernels::{
    energy_crossover_trial, energy_lifetime_trial, faulty_broadcast_trial, mobile_gossip_trial,
    CrossoverCfg, FaultyBroadcastCfg, LifetimeCfg, MobileGossipCfg, TraceHandle,
};
use radio_graph::ImplicitGrid;
use radio_sim::{CellResults, EngineConfig, Sweep, SweepCell, SweepReport, TracePlan, TrialResult};

/// A scenario lowered onto the sweep API.
#[derive(Debug)]
pub struct Compiled {
    scenario: Scenario,
    sweep: Sweep,
}

impl Compiled {
    /// Lower a validated scenario.
    pub fn new(scenario: Scenario) -> Self {
        let mut sweep = Sweep::new(
            scenario.name.clone(),
            scenario.sweep.base_seed,
            scenario.sweep.trials,
        );
        for c in &scenario.cells {
            sweep.push(SweepCell::new(c.label.clone(), c.family.clone(), c.n, c.p));
        }
        Compiled { scenario, sweep }
    }

    /// The source scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The lowered sweep (cells in scenario order).
    pub fn sweep(&self) -> &Sweep {
        &self.sweep
    }

    /// Mutable access for harness-side overrides (`--quick` trial
    /// scaling). Overriding `trials` or `base_seed` changes the result
    /// bytes, exactly as it would on a hand-built sweep.
    pub fn sweep_mut(&mut self) -> &mut Sweep {
        &mut self.sweep
    }

    /// The trace plan the scenario asks for, spec hash stamped into
    /// every recording's `code_version` — the provenance chain from
    /// `.rtrc` back to the exact spec. `None` when the scenario has no
    /// `trace` block.
    pub fn trace_plan(&self) -> Option<TracePlan> {
        self.scenario
            .trace
            .as_ref()
            .map(|TraceSpec { dir, per_cell_cap }| {
                TracePlan::new(dir.clone(), *per_cell_cap)
                    .with_code_version(self.scenario.spec_hash_string())
            })
    }

    /// Execute one cell through [`Sweep::run_cell`] (rayon fan-out over
    /// its trials; bit-identical to serial). `plan`, when present,
    /// captures capped per-trial `.rtrc` recordings.
    ///
    /// # Panics
    /// Panics if `cell_index` is out of range.
    pub fn run_cell(&self, cell_index: usize, plan: Option<&TracePlan>) -> CellResults {
        let runner = |cell: &SweepCell, seed: u64| self.one_trial(cell, seed, plan);
        self.sweep.run_cell(cell_index, &runner)
    }

    /// Run every cell in order and aggregate ([`Sweep::run`]) — the
    /// in-memory (checkpoint-free) path the experiment harness uses.
    pub fn run_report(&self) -> SweepReport {
        let plan = self.trace_plan();
        self.sweep
            .run(|cell, seed| self.one_trial(cell, seed, plan.as_ref()))
    }

    fn one_trial(&self, cell: &SweepCell, seed: u64, plan: Option<&TracePlan>) -> TrialResult {
        let (_, proto) = self
            .scenario
            .resolve_protocol(&cell.algorithm)
            .expect("validated: every cell label resolves");
        let implicit = self.scenario.sweep.backend == Backend::ImplicitGrid;
        // All kernels drive v1 engine runs; each hands over the engine
        // config it runs with, stamped into the recording's header.
        let mut open = |cfg: &EngineConfig| {
            plan.and_then(|p| p.open(cell, seed, "v1", cfg))
                .map(|sink| TraceHandle { sink })
        };
        // CSR and implicit arms both draw from the cell's graph stream,
        // so geometric cells see identical positions on either backend.
        match proto {
            ProtocolSpec::MobileGossip {
                switch_every,
                gamma,
                tracked,
            } => {
                let cfg = MobileGossipCfg {
                    switch_every: *switch_every,
                    gamma: *gamma,
                    tracked: *tracked,
                };
                mobile_gossip_trial(&cfg, cell, seed)
            }
            ProtocolSpec::FaultyBroadcast {
                crash_round,
                spare_source,
                d_hint,
            } => {
                let cfg = FaultyBroadcastCfg {
                    crash_round: *crash_round,
                    spare_source: *spare_source,
                    d_hint: *d_hint,
                };
                if implicit {
                    let grid =
                        ImplicitGrid::generate(cell.n, cell.p, &mut SweepCell::graph_rng(seed));
                    faulty_broadcast_trial(&cfg, cell, &grid, seed, Some(&mut open))
                } else {
                    faulty_broadcast_trial(&cfg, cell, &cell.graph(seed), seed, Some(&mut open))
                }
            }
            ProtocolSpec::EnergyCrossover { flood_q, d_hint } => {
                let cfg = CrossoverCfg {
                    flood_q: *flood_q,
                    d_hint: *d_hint,
                };
                // CSR-only (validated): the kernel consults the edge count.
                energy_crossover_trial(&cfg, cell, &cell.graph(seed), seed, Some(&mut open))
            }
            ProtocolSpec::EnergyLifetime {
                horizon,
                capacity,
                jitter,
                flood_q,
                d_hint,
            } => {
                let cfg = LifetimeCfg {
                    horizon: *horizon,
                    capacity: *capacity,
                    jitter: *jitter,
                    flood_q: *flood_q,
                    d_hint: *d_hint,
                };
                if implicit {
                    let grid =
                        ImplicitGrid::generate(cell.n, cell.p, &mut SweepCell::graph_rng(seed));
                    energy_lifetime_trial(&cfg, cell, &grid, seed, Some(&mut open))
                } else {
                    energy_lifetime_trial(&cfg, cell, &cell.graph(seed), seed, Some(&mut open))
                }
            }
        }
    }
}
