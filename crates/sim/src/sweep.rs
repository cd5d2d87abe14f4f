//! Declarative parameter sweeps over `n × algorithm × graph-family × p`.
//!
//! The paper's results are statements *at scale* — Figure 1 and the
//! Theorem 2.1/4.4 tables each aggregate hundreds of independent runs
//! across a grid of `(n, p)` cells. This module turns that pattern into
//! one declarative object instead of a hand-rolled loop per experiment:
//!
//! 1. describe the grid as [`SweepCell`]s (explicit cells, a cartesian
//!    [`Sweep::grid`], or both),
//! 2. supply one runner closure `(cell, graph, seed) → TrialResult`,
//! 3. get back per-trial raw data ([`Sweep::collect`]) and an aggregated
//!    [`SweepReport`] that serializes to deterministic JSON under
//!    `results/`.
//!
//! Execution fans out over rayon with one flattened task per
//! `(cell, trial)`. Every trial owns an independent seed derived from
//! `(base_seed, cell index, trial index)` via
//! [`radio_util::split_seed`], so results are a pure function
//! of the sweep description — bit-identical on 1 thread or N (the
//! determinism tests in `tests/determinism.rs` assert exactly this on the
//! JSON bytes).
//!
//! The trial seed serves both determinism contracts: a v1 runner feeds
//! it to `derive_rng(seed, label, 0)` for the shared serial stream, a
//! v2 runner passes it straight to the engine
//! ([`Run::v2`](crate::Run::v2)) as the
//! `run_seed` its per-node counter-based streams derive from. Either
//! way the report bytes depend only on the sweep description (and on
//! which contract the runner picked — switching contracts changes the
//! trajectories, so regenerate the committed JSON when porting an
//! experiment to v2).

use crate::engine::EngineConfig;
use radio_graph::{DiGraph, GraphFamily};
use radio_stats::SummaryStats;
use radio_util::{derive_rng, split_seed, Json};
use rayon::prelude::*;
use std::io;
use std::path::{Path, PathBuf};

/// One grid cell: a topology family at `(n, p)` driven by a named
/// algorithm. The algorithm is a label the runner closure dispatches on;
/// the sweep machinery itself never interprets it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Algorithm label, e.g. `"ee_broadcast"`.
    pub algorithm: String,
    /// Topology family; `p`'s meaning is family-specific.
    pub family: GraphFamily,
    /// Number of nodes.
    pub n: usize,
    /// Family parameter (edge probability, radius, …).
    pub p: f64,
}

impl SweepCell {
    /// Build a cell.
    pub fn new(algorithm: impl Into<String>, family: GraphFamily, n: usize, p: f64) -> Self {
        SweepCell {
            algorithm: algorithm.into(),
            family,
            n,
            p,
        }
    }
}

/// What one trial measured. The fixed fields mirror the engine's
/// [`RunResult`](crate::RunResult) plus the protocol-level goal; `extras`
/// carries experiment-specific scalars (growth factors, diameters, …)
/// that aggregate into per-key stats.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialResult {
    /// The protocol's `is_complete` turned true.
    pub completed: bool,
    /// Experiment-level success (e.g. every node informed).
    pub success: bool,
    /// Rounds executed.
    pub rounds: u64,
    /// The run was cut off by the engine's round cap while incomplete.
    pub hit_round_cap: bool,
    /// Total transmissions (the paper's energy measure).
    pub total_transmissions: u64,
    /// Maximum transmissions by any single node.
    pub max_transmissions_per_node: u32,
    /// Nodes informed when the run ended.
    pub informed: usize,
    /// Model-based energy accounting, when the trial ran with an energy
    /// overlay ([`crate::EnergyRunResult`]).
    pub energy: Option<TrialEnergy>,
    /// Named experiment-specific scalars.
    pub extras: Vec<(String, f64)>,
}

/// The per-trial energy scalars aggregated by [`CellSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrialEnergy {
    /// Total model-based energy across all nodes.
    pub total: f64,
    /// Maximum energy spent by any single node.
    pub max_per_node: f64,
    /// First battery-depletion round (the network lifetime), if any
    /// battery depleted.
    pub first_depletion_round: Option<u64>,
    /// Number of battery-depleted nodes when the run ended.
    pub depleted: usize,
}

impl From<&crate::EnergyMetrics> for TrialEnergy {
    fn from(m: &crate::EnergyMetrics) -> Self {
        TrialEnergy {
            total: m.total_energy(),
            max_per_node: m.max_energy_per_node(),
            first_depletion_round: m.first_depletion_round,
            depleted: m.depleted_count(),
        }
    }
}

impl TrialResult {
    /// Lift an engine [`RunResult`](crate::RunResult) into a trial row.
    pub fn from_run(run: &crate::RunResult, success: bool, informed: usize) -> Self {
        TrialResult {
            completed: run.completed,
            success,
            rounds: run.rounds,
            hit_round_cap: run.hit_round_cap,
            total_transmissions: run.metrics.total_transmissions(),
            max_transmissions_per_node: run.metrics.max_transmissions_per_node(),
            informed,
            energy: None,
            extras: Vec::new(),
        }
    }

    /// Lift an energy-overlay run ([`crate::EnergyRunResult`]) into a
    /// trial row, energy scalars included.
    pub fn from_energy_run(run: &crate::EnergyRunResult, success: bool, informed: usize) -> Self {
        Self::from_run(&run.run, success, informed).with_energy(&run.energy)
    }

    /// Attach energy scalars (chainable).
    pub fn with_energy(mut self, energy: &crate::EnergyMetrics) -> Self {
        self.energy = Some(TrialEnergy::from(energy));
        self
    }

    /// Attach a named scalar (chainable).
    pub fn extra(mut self, key: impl Into<String>, value: f64) -> Self {
        self.extras.push((key.into(), value));
        self
    }
}

/// All trials of one cell, in trial order.
#[derive(Debug, Clone)]
pub struct CellResults {
    /// The cell description.
    pub cell: SweepCell,
    /// One entry per trial.
    pub trials: Vec<TrialResult>,
}

/// Aggregates of one cell.
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// The cell description.
    pub cell: SweepCell,
    /// Trials executed.
    pub trials: usize,
    /// Trials with `success == true`.
    pub successes: usize,
    /// Trials with `completed == true`.
    pub completed: usize,
    /// Trials cut off by the round cap while incomplete — a non-zero
    /// count flags protocols the cap would otherwise silently mask.
    pub hit_round_cap: usize,
    /// Mean informed-node count.
    pub mean_informed: f64,
    /// Round counts over all trials.
    pub rounds: Option<SummaryStats>,
    /// Round counts over successful trials only (the paper's broadcast
    /// time conditions on success).
    pub rounds_success: Option<SummaryStats>,
    /// Total transmissions over all trials.
    pub total_transmissions: Option<SummaryStats>,
    /// Max per-node transmissions over all trials.
    pub max_transmissions_per_node: u32,
    /// Model-based total energy over the trials that ran with an energy
    /// overlay (`None` when none did).
    pub energy_total: Option<SummaryStats>,
    /// Model-based max per-node energy over energy-overlay trials.
    pub energy_max_per_node: Option<SummaryStats>,
    /// Network lifetime (first battery-depletion round) over the trials
    /// in which some battery depleted. Its `n` being smaller than the
    /// energy-trial count means the remaining runs ended with every
    /// battery still alive.
    pub lifetime: Option<SummaryStats>,
    /// Battery-depleted node counts over energy-overlay trials.
    pub depleted_nodes: Option<SummaryStats>,
    /// Per-key stats over the trials that reported each extra, in
    /// first-seen order.
    pub extras: Vec<(String, SummaryStats)>,
}

impl CellSummary {
    fn from_results(results: &CellResults) -> Self {
        let ts = &results.trials;
        let stats = |xs: Vec<f64>| (!xs.is_empty()).then(|| SummaryStats::from_slice(&xs));
        let energy: Vec<&TrialEnergy> = ts.iter().filter_map(|t| t.energy.as_ref()).collect();
        let mut extra_keys: Vec<String> = Vec::new();
        for t in ts {
            for (k, _) in &t.extras {
                if !extra_keys.iter().any(|e| e == k) {
                    extra_keys.push(k.clone());
                }
            }
        }
        let extras = extra_keys
            .into_iter()
            .filter_map(|key| {
                let xs: Vec<f64> = ts
                    .iter()
                    .flat_map(|t| t.extras.iter())
                    .filter(|(k, _)| *k == key)
                    .map(|(_, v)| *v)
                    .collect();
                stats(xs).map(|s| (key, s))
            })
            .collect();
        CellSummary {
            cell: results.cell.clone(),
            trials: ts.len(),
            successes: ts.iter().filter(|t| t.success).count(),
            completed: ts.iter().filter(|t| t.completed).count(),
            hit_round_cap: ts.iter().filter(|t| t.hit_round_cap).count(),
            mean_informed: if ts.is_empty() {
                0.0
            } else {
                ts.iter().map(|t| t.informed as f64).sum::<f64>() / ts.len() as f64
            },
            rounds: stats(ts.iter().map(|t| t.rounds as f64).collect()),
            rounds_success: stats(
                ts.iter()
                    .filter(|t| t.success)
                    .map(|t| t.rounds as f64)
                    .collect(),
            ),
            total_transmissions: stats(ts.iter().map(|t| t.total_transmissions as f64).collect()),
            max_transmissions_per_node: ts
                .iter()
                .map(|t| t.max_transmissions_per_node)
                .max()
                .unwrap_or(0),
            energy_total: stats(energy.iter().map(|e| e.total).collect()),
            energy_max_per_node: stats(energy.iter().map(|e| e.max_per_node).collect()),
            lifetime: stats(
                energy
                    .iter()
                    .filter_map(|e| e.first_depletion_round.map(|r| r as f64))
                    .collect(),
            ),
            depleted_nodes: stats(energy.iter().map(|e| e.depleted as f64).collect()),
            extras,
        }
    }
}

/// A declarative sweep: named, seeded, with a cell list and a trial
/// count shared by every cell.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Report name; the JSON lands at `results/sweep_<name>.json`.
    pub name: String,
    /// Master seed every trial stream derives from.
    pub base_seed: u64,
    /// Trials per cell.
    pub trials: usize,
    cells: Vec<SweepCell>,
    /// Intra-run scatter threads the runner should hand the engine
    /// (`1` = classic trial-level fan-out only).
    threads_per_run: usize,
}

impl Sweep {
    /// An empty sweep.
    pub fn new(name: impl Into<String>, base_seed: u64, trials: usize) -> Self {
        Sweep {
            name: name.into(),
            base_seed,
            trials,
            cells: Vec::new(),
            threads_per_run: 1,
        }
    }

    /// Trade trial-level for run-level parallelism: with
    /// `threads_per_run > 1` the trial fan-out runs serially and each
    /// trial is expected to drive the engine with that many intra-run
    /// workers (`EngineConfig::with_threads(sweep.run_threads())` in the
    /// runner closure — the sweep machinery never builds engines
    /// itself). The right trade for *huge* cells, where a single run
    /// saturates memory bandwidth and per-trial rayon tasks would thrash
    /// each other's caches. Either setting produces bit-identical
    /// reports: the transmitter-sharded scatter and, under v2, the
    /// parallel decide reproduce the serial run, so run results do not
    /// depend on the thread count; and trial seeds depend only on
    /// `(base_seed, cell, trial)`.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn with_threads_per_run(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "threads_per_run must be at least 1");
        self.threads_per_run = threads;
        self
    }

    /// The intra-run thread count runner closures should pass to
    /// [`EngineConfig::with_threads`](crate::EngineConfig::with_threads).
    pub fn run_threads(&self) -> usize {
        self.threads_per_run
    }

    /// Append one explicit cell.
    pub fn push(&mut self, cell: SweepCell) -> &mut Self {
        self.cells.push(cell);
        self
    }

    /// Append the full cartesian product `algorithms × families × ns × ps`
    /// (in that nesting order, innermost `ps`).
    pub fn grid(
        &mut self,
        algorithms: &[&str],
        families: &[GraphFamily],
        ns: &[usize],
        ps: &[f64],
    ) -> &mut Self {
        for &alg in algorithms {
            for family in families {
                for &n in ns {
                    for &p in ps {
                        self.cells.push(SweepCell::new(alg, family.clone(), n, p));
                    }
                }
            }
        }
        self
    }

    /// The cells, in execution order.
    pub fn cells(&self) -> &[SweepCell] {
        &self.cells
    }

    /// The independent seed of `(cell, trial)`: two keyed
    /// [`radio_util::split_seed`] hops, so neither reordering
    /// cells nor changing the trial count correlates streams.
    pub fn trial_seed(&self, cell_index: usize, trial: usize) -> u64 {
        let cell_seed = split_seed(self.base_seed, b"sweep-cell", cell_index as u64);
        split_seed(cell_seed, b"sweep-trial", trial as u64)
    }

    /// Run every `(cell, trial)` with rayon fan-out and return the raw
    /// per-trial results, in cell-then-trial order.
    ///
    /// The runner receives the cell, the freshly generated graph for this
    /// trial, and the trial seed (all protocol randomness must derive
    /// from it). It must be a pure function of its arguments; execution
    /// order then cannot influence results.
    pub fn collect<F>(&self, runner: F) -> Vec<CellResults>
    where
        F: Fn(&SweepCell, &DiGraph, u64) -> TrialResult + Sync,
    {
        if self.threads_per_run > 1 {
            // Run-level parallelism owns the cores: execute trials
            // serially and let each run's scatter phase fan out inside
            // the engine. Identical results either way (see
            // `with_threads_per_run`).
            return self.collect_serial(runner);
        }
        let total = self.cells.len() * self.trials;
        let flat: Vec<TrialResult> = (0..total)
            .into_par_iter()
            .map(|i| self.one_trial(i, &runner))
            .collect();
        self.group(flat)
    }

    /// [`Sweep::collect`] without the thread fan-out — the 1-thread
    /// reference the determinism tests compare against.
    pub fn collect_serial<F>(&self, runner: F) -> Vec<CellResults>
    where
        F: Fn(&SweepCell, &DiGraph, u64) -> TrialResult + Sync,
    {
        let total = self.cells.len() * self.trials;
        let flat: Vec<TrialResult> = (0..total).map(|i| self.one_trial(i, &runner)).collect();
        self.group(flat)
    }

    /// Execute and aggregate in one step.
    pub fn run<F>(&self, runner: F) -> SweepReport
    where
        F: Fn(&SweepCell, &DiGraph, u64) -> TrialResult + Sync,
    {
        self.report(&self.collect(runner))
    }

    /// Serial [`Sweep::run`].
    pub fn run_serial<F>(&self, runner: F) -> SweepReport
    where
        F: Fn(&SweepCell, &DiGraph, u64) -> TrialResult + Sync,
    {
        self.report(&self.collect_serial(runner))
    }

    /// Execute every trial of one cell (serially, in trial order) and
    /// return its results. Lets callers interleave their own per-cell
    /// bookkeeping — wall-clock timing, progress logging — while keeping
    /// the exact seeds and aggregation of [`Sweep::collect`]: running
    /// every index through this and feeding the list to
    /// [`Sweep::report`] reproduces `run`'s output bit for bit.
    ///
    /// # Panics
    /// Panics if `cell_index` is out of range.
    pub fn run_cell<F>(&self, cell_index: usize, runner: &F) -> CellResults
    where
        F: Fn(&SweepCell, &DiGraph, u64) -> TrialResult + Sync,
    {
        assert!(cell_index < self.cells.len(), "cell index out of range");
        CellResults {
            cell: self.cells[cell_index].clone(),
            trials: (0..self.trials)
                .map(|t| self.one_trial(cell_index * self.trials + t, runner))
                .collect(),
        }
    }

    /// [`Sweep::run_cell`] without the machinery-side graph generation:
    /// the runner receives only `(cell, trial_seed)` and owns topology
    /// construction. This is the hook for backends the sweep cannot
    /// build — a campaign cell on an implicit topology generates an
    /// [`ImplicitGrid`](radio_graph::ImplicitGrid) from
    /// `derive_rng(seed, b"sweep-graph", 0)` (the exact stream
    /// `run_cell` would have fed the CSR generator, so the two backends
    /// see identical position draws) instead of materializing a CSR
    /// graph it can't afford.
    ///
    /// # Panics
    /// Panics if `cell_index` is out of range.
    pub fn run_cell_raw<F>(&self, cell_index: usize, runner: &F) -> CellResults
    where
        F: Fn(&SweepCell, u64) -> TrialResult + Sync,
    {
        assert!(cell_index < self.cells.len(), "cell index out of range");
        let cell = &self.cells[cell_index];
        CellResults {
            cell: cell.clone(),
            trials: (0..self.trials)
                .map(|t| runner(cell, self.trial_seed(cell_index, t)))
                .collect(),
        }
    }

    /// [`Sweep::run_cell_raw`] with rayon fan-out over trials —
    /// bit-identical results (trial seeds depend only on
    /// `(base_seed, cell, trial)`).
    ///
    /// # Panics
    /// Panics if `cell_index` is out of range.
    pub fn run_cell_raw_par<F>(&self, cell_index: usize, runner: &F) -> CellResults
    where
        F: Fn(&SweepCell, u64) -> TrialResult + Sync,
    {
        assert!(cell_index < self.cells.len(), "cell index out of range");
        if self.threads_per_run > 1 {
            return self.run_cell_raw(cell_index, runner);
        }
        let cell = &self.cells[cell_index];
        CellResults {
            cell: cell.clone(),
            trials: (0..self.trials)
                .into_par_iter()
                .map(|t| runner(cell, self.trial_seed(cell_index, t)))
                .collect(),
        }
    }

    /// Aggregate raw results (e.g. from [`Sweep::collect`]) into a report.
    pub fn report(&self, results: &[CellResults]) -> SweepReport {
        SweepReport {
            name: self.name.clone(),
            base_seed: self.base_seed,
            trials_per_cell: self.trials,
            cells: results.iter().map(CellSummary::from_results).collect(),
        }
    }

    fn one_trial<F>(&self, flat_index: usize, runner: &F) -> TrialResult
    where
        F: Fn(&SweepCell, &DiGraph, u64) -> TrialResult + Sync,
    {
        let cell_index = flat_index / self.trials;
        let trial = flat_index % self.trials;
        let cell = &self.cells[cell_index];
        let seed = self.trial_seed(cell_index, trial);
        let graph = cell
            .family
            .generate(cell.n, cell.p, &mut derive_rng(seed, b"sweep-graph", 0));
        runner(cell, &graph, seed)
    }

    fn group(&self, flat: Vec<TrialResult>) -> Vec<CellResults> {
        let mut out: Vec<CellResults> = self
            .cells
            .iter()
            .map(|cell| CellResults {
                cell: cell.clone(),
                trials: Vec::with_capacity(self.trials),
            })
            .collect();
        for (i, trial) in flat.into_iter().enumerate() {
            out[i / self.trials].trials.push(trial);
        }
        out
    }
}

/// Aggregated sweep output; serializes to deterministic JSON.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Sweep name.
    pub name: String,
    /// Master seed (stringified in JSON so 64-bit values stay exact).
    pub base_seed: u64,
    /// Trials per cell.
    pub trials_per_cell: usize,
    /// One summary per cell, in sweep order.
    pub cells: Vec<CellSummary>,
}

fn stats_json(s: &SummaryStats) -> Json {
    Json::obj(vec![
        ("n", Json::Num(s.n as f64)),
        ("mean", Json::Num(s.mean)),
        ("std", Json::Num(s.std)),
        ("min", Json::Num(s.min)),
        ("max", Json::Num(s.max)),
        ("median", Json::Num(s.median)),
    ])
}

fn opt_stats_json(s: &Option<SummaryStats>) -> Json {
    s.as_ref().map_or(Json::Null, stats_json)
}

impl SweepReport {
    /// The report as a JSON tree.
    pub fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("algorithm", Json::str(&c.cell.algorithm)),
                    ("family", Json::str(c.cell.family.label())),
                    ("n", Json::Num(c.cell.n as f64)),
                    ("p", Json::Num(c.cell.p)),
                    ("trials", Json::Num(c.trials as f64)),
                    ("successes", Json::Num(c.successes as f64)),
                    ("completed", Json::Num(c.completed as f64)),
                    ("hit_round_cap", Json::Num(c.hit_round_cap as f64)),
                    ("mean_informed", Json::Num(c.mean_informed)),
                    ("rounds", opt_stats_json(&c.rounds)),
                    ("rounds_success", opt_stats_json(&c.rounds_success)),
                    (
                        "total_transmissions",
                        opt_stats_json(&c.total_transmissions),
                    ),
                    (
                        "max_transmissions_per_node",
                        Json::Num(c.max_transmissions_per_node as f64),
                    ),
                    ("energy_total", opt_stats_json(&c.energy_total)),
                    (
                        "energy_max_per_node",
                        opt_stats_json(&c.energy_max_per_node),
                    ),
                    ("lifetime", opt_stats_json(&c.lifetime)),
                    ("depleted_nodes", opt_stats_json(&c.depleted_nodes)),
                    (
                        "extras",
                        Json::Obj(
                            c.extras
                                .iter()
                                .map(|(k, s)| (k.clone(), stats_json(s)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("name", Json::str(&self.name)),
            ("base_seed", Json::str(self.base_seed.to_string())),
            ("trials_per_cell", Json::Num(self.trials_per_cell as f64)),
            ("cells", Json::Arr(cells)),
        ])
    }

    /// The canonical serialized form (byte-deterministic).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Write `sweep_<name>.json` under `dir` (created if missing) and
    /// return the path. The write is atomic (temp file + rename via
    /// [`radio_util::write_atomic`]), so an interrupted campaign never
    /// leaves a torn report — readers see the old complete file or the
    /// new one.
    pub fn write_json(&self, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
        let path = dir.as_ref().join(format!("sweep_{}.json", self.name));
        radio_util::write_atomic(&path, self.to_json_string())?;
        Ok(path)
    }

    /// The summary for a specific cell, if present.
    pub fn cell(&self, cell: &SweepCell) -> Option<&CellSummary> {
        self.cells.iter().find(|c| &c.cell == cell)
    }
}

/// Opt-in per-trial `.rtrc` capture for sweep runners, with **capped
/// retention**: at most `per_cell_cap` recordings per cell, so a
/// thousand-trial sweep keeps a debuggable sample instead of a disk
/// full of traces.
///
/// The plan is deliberately *not* wired into the runner signature —
/// `(cell, graph, seed) → TrialResult` stays untouched, sweeps that
/// don't trace pay nothing. A runner that wants capture holds a plan
/// and asks it per trial:
///
/// ```ignore
/// let plan = TracePlan::new("results/traces", 2);
/// sweep.run(|cell, graph, seed| {
///     let mut sink = plan.open(cell, seed, "v2", &cfg);
///     let run = match sink.as_mut() {
///         Some(sink) => run_protocol_fused_traced(graph, &mut proto, cfg, seed, sink),
///         None => run_protocol_fused(graph, &mut proto, cfg, seed),
///     };
///     if let Some(sink) = sink {
///         let _ = sink.finish(run.completed); // runner owns the footer
///     }
///     TrialResult::from_run(&run, run.completed, informed)
/// });
/// ```
///
/// `open` is thread-safe (sweeps fan trials out over rayon); the cap
/// check and the slot claim are one atomic step, so concurrent trials
/// of the same cell never over-record. I/O failures degrade, never
/// fail: `open` warns once per plan on stderr, counts the failure in
/// [`degraded`](TracePlan::degraded), releases the claimed slot (a
/// later trial may succeed and use the budget), and yields `None` — a
/// broken trace directory turns a sweep untraced, it never aborts it.
#[derive(Debug)]
pub struct TracePlan {
    dir: PathBuf,
    per_cell_cap: usize,
    counts: std::sync::Mutex<std::collections::HashMap<String, usize>>,
    code_version: Option<String>,
    degraded: std::sync::atomic::AtomicUsize,
}

impl TracePlan {
    /// Record into `dir` (created on first open), keeping at most
    /// `per_cell_cap` recordings per cell.
    pub fn new(dir: impl Into<PathBuf>, per_cell_cap: usize) -> Self {
        TracePlan {
            dir: dir.into(),
            per_cell_cap,
            counts: std::sync::Mutex::new(std::collections::HashMap::new()),
            code_version: None,
            degraded: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Stamp `code_version` into every recording's
    /// [`RunHeader`](radio_trace::RunHeader) instead of the crate
    /// version — the campaign runner passes the scenario spec hash
    /// here, chaining every `.rtrc` back to the exact spec that
    /// produced it.
    pub fn with_code_version(mut self, version: impl Into<String>) -> Self {
        self.code_version = Some(version.into());
        self
    }

    /// The trace directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total recordings opened so far.
    pub fn recorded(&self) -> usize {
        self.counts.lock().expect("trace-plan lock").values().sum()
    }

    /// Recordings that failed to open on I/O errors (capture degraded
    /// to untraced for those trials). Non-zero means the warning was
    /// printed and some traces are missing.
    pub fn degraded(&self) -> usize {
        self.degraded.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Claim a recording slot for `(cell, seed)` and open the sink, or
    /// `None` when the cell's cap is reached (or the file cannot be
    /// created). `engine` is the determinism contract the runner drives
    /// (`"v1"` / `"v2"`) and `cfg` the engine config of the run; both
    /// are stamped into the header (the round cap and half-duplex flag
    /// via [`RunHeader::with_config`](radio_trace::RunHeader::with_config))
    /// so replay tooling knows how to re-drive the run. The caller must
    /// call [`finish`](radio_trace::RecordingSink::finish) after the run.
    pub fn open(
        &self,
        cell: &SweepCell,
        seed: u64,
        engine: &str,
        cfg: &EngineConfig,
    ) -> Option<radio_trace::RecordingSink<io::BufWriter<std::fs::File>>> {
        let key = format!(
            "{}/{}/n{}/p{}",
            cell.algorithm,
            cell.family.label(),
            cell.n,
            cell.p
        );
        {
            let mut counts = self.counts.lock().expect("trace-plan lock");
            let slot = counts.entry(key.clone()).or_insert(0);
            if *slot >= self.per_cell_cap {
                return None;
            }
            *slot += 1;
        }
        let topology = format!("{}/n={}/p={}", cell.family.label(), cell.n, cell.p);
        let mut header = radio_trace::RunHeader::new(seed, engine, topology)
            .with_config(cfg.max_rounds, cfg.half_duplex);
        if let Some(v) = &self.code_version {
            header.code_version = v.clone();
        }
        let file = format!(
            "{}-{}-n{}-p{}-s{}.rtrc",
            cell.algorithm,
            cell.family.label(),
            cell.n,
            cell.p,
            seed
        );
        match radio_trace::RecordingSink::create(self.dir.join(file), &header) {
            Ok(sink) => Some(sink),
            Err(e) => {
                // Give the slot back: the failure consumed no recording,
                // and the directory may become writable again.
                if let Ok(mut counts) = self.counts.lock() {
                    if let Some(slot) = counts.get_mut(&key) {
                        *slot = slot.saturating_sub(1);
                    }
                }
                let prior = self
                    .degraded
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if prior == 0 {
                    eprintln!(
                        "radio-sim: warning: trace capture degraded — cannot create \
                         recording under {}: {e} (further failures suppressed; \
                         affected trials run untraced)",
                        self.dir.display()
                    );
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::{Action, EngineConfig, Protocol};
    use radio_graph::NodeId;
    use rand::RngExt;
    use rand_chacha::ChaCha8Rng;

    /// p-flood: every informed node transmits with probability 0.3.
    struct P3Flood {
        informed: Vec<bool>,
        n_informed: usize,
    }

    impl P3Flood {
        fn new(n: usize) -> Self {
            let mut informed = vec![false; n];
            informed[0] = true;
            P3Flood {
                informed,
                n_informed: 1,
            }
        }
    }

    impl Protocol for P3Flood {
        type Msg = ();
        fn initially_awake(&self) -> Vec<NodeId> {
            vec![0]
        }
        fn decide(&mut self, _n: NodeId, _r: u64, rng: &mut ChaCha8Rng) -> Action {
            if rng.random_bool(0.3) {
                Action::Transmit
            } else {
                Action::Silent
            }
        }
        fn payload(&self, _n: NodeId, _r: u64) -> Self::Msg {}
        fn on_receive(
            &mut self,
            node: NodeId,
            _f: NodeId,
            _r: u64,
            _m: &Self::Msg,
            _rng: &mut ChaCha8Rng,
        ) {
            if !self.informed[node as usize] {
                self.informed[node as usize] = true;
                self.n_informed += 1;
            }
        }
        fn is_complete(&self) -> bool {
            self.n_informed == self.informed.len()
        }
        fn informed_count(&self) -> usize {
            self.n_informed
        }
    }

    fn flood_runner(cell: &SweepCell, graph: &DiGraph, seed: u64) -> TrialResult {
        let mut p = P3Flood::new(cell.n);
        let mut rng = derive_rng(seed, b"sweep-proto", 0);
        let run = Engine::new(graph, EngineConfig::with_max_rounds(400))
            .run(&mut p)
            .v1(&mut rng);
        let informed = p.n_informed;
        TrialResult::from_run(&run, informed == cell.n, informed)
            .extra("informed_frac", informed as f64 / cell.n as f64)
    }

    fn small_sweep() -> Sweep {
        let mut sw = Sweep::new("unit", 99, 6);
        sw.grid(
            &["p3_flood"],
            &[GraphFamily::GnpDirected],
            &[48, 96],
            &[0.12],
        );
        sw.push(SweepCell::new("p3_flood", GraphFamily::Path, 20, 0.0));
        sw
    }

    #[test]
    fn grid_enumerates_cartesian_product_plus_pushed_cells() {
        let sw = small_sweep();
        assert_eq!(sw.cells().len(), 3);
        assert_eq!(sw.cells()[0].n, 48);
        assert_eq!(sw.cells()[1].n, 96);
        assert_eq!(sw.cells()[2].family, GraphFamily::Path);
    }

    #[test]
    fn trial_seeds_are_distinct_across_cells_and_trials() {
        let sw = small_sweep();
        let mut seeds = Vec::new();
        for c in 0..sw.cells().len() {
            for t in 0..sw.trials {
                seeds.push(sw.trial_seed(c, t));
            }
        }
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len());
    }

    #[test]
    fn parallel_and_serial_reports_are_bit_identical() {
        let sw = small_sweep();
        let par = sw.run(flood_runner).to_json_string();
        let ser = sw.run_serial(flood_runner).to_json_string();
        assert_eq!(par, ser);
        // And stable across repeated execution.
        assert_eq!(par, sw.run(flood_runner).to_json_string());
    }

    #[test]
    fn summaries_aggregate_sensibly() {
        let sw = small_sweep();
        let report = sw.run(flood_runner);
        assert_eq!(report.cells.len(), 3);
        for cell in &report.cells {
            assert_eq!(cell.trials, 6);
            assert!(cell.successes <= cell.trials);
            assert_eq!(
                cell.completed, cell.successes,
                "flood completes iff all informed"
            );
            assert!(cell.mean_informed >= 1.0);
            let (key, frac) = &cell.extras[0];
            assert_eq!(key, "informed_frac");
            assert!(frac.mean > 0.0 && frac.mean <= 1.0);
            // hit_round_cap + completed can undercount trials only if the
            // run quiesced (everyone asleep), which p-flood never does.
            assert_eq!(cell.hit_round_cap + cell.completed, cell.trials);
        }
        // The path cell is tiny and connected: flood always succeeds.
        let path_cell = &report.cells[2];
        assert_eq!(path_cell.successes, path_cell.trials);
        assert!(path_cell.rounds_success.is_some());
    }

    #[test]
    fn json_shape_is_parseable_and_complete() {
        let sw = small_sweep();
        let report = sw.run(flood_runner);
        let parsed = Json::parse(&report.to_json_string()).expect("valid JSON");
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some("unit"));
        assert_eq!(parsed.get("base_seed").and_then(Json::as_str), Some("99"));
        let cells = parsed.get("cells").and_then(Json::as_arr).expect("cells");
        assert_eq!(cells.len(), 3);
        assert_eq!(
            cells[0].get("family").and_then(Json::as_str),
            Some("gnp_directed")
        );
        assert!(cells[0].get("rounds").is_some());
        assert!(cells[0]
            .get("extras")
            .and_then(|e| e.get("informed_frac"))
            .is_some());
    }

    #[test]
    fn write_json_lands_named_file() {
        let dir = std::env::temp_dir().join(format!("sweep-test-{}", std::process::id()));
        let sw = Sweep::new("empty", 1, 2);
        let path = sw.run(flood_runner).write_json(&dir).expect("write");
        assert!(path.ends_with("sweep_empty.json"));
        let text = std::fs::read_to_string(&path).expect("readable");
        assert!(Json::parse(&text).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_cell_matches_collect_and_par_matches_serial() {
        let sw = small_sweep();
        let by_collect = sw.collect(flood_runner);
        for (idx, collected) in by_collect.iter().enumerate() {
            let serial = sw.run_cell(idx, &flood_runner);
            assert_eq!(serial.trials, collected.trials, "cell {idx}");
        }
        // Feeding run_cell outputs to report() reproduces run().
        let cells: Vec<CellResults> = (0..sw.cells().len())
            .map(|i| sw.run_cell(i, &flood_runner))
            .collect();
        assert_eq!(
            sw.report(&cells).to_json_string(),
            sw.run(flood_runner).to_json_string()
        );
        // A raw runner that replays the machinery's graph stream is
        // indistinguishable from the graph-generating path.
        let raw_runner = |cell: &SweepCell, seed: u64| {
            let graph =
                cell.family
                    .generate(cell.n, cell.p, &mut derive_rng(seed, b"sweep-graph", 0));
            flood_runner(cell, &graph, seed)
        };
        assert_eq!(sw.run_cell_raw(0, &raw_runner).trials, by_collect[0].trials);
        assert_eq!(
            sw.run_cell_raw_par(2, &raw_runner).trials,
            by_collect[2].trials
        );
    }

    #[test]
    fn write_json_replaces_atomically_without_temp_litter() {
        let dir = std::env::temp_dir().join(format!("sweep-atomic-{}", std::process::id()));
        let sw = Sweep::new("atomic", 7, 2);
        let report = sw.run(flood_runner);
        report.write_json(&dir).expect("first write");
        let path = report.write_json(&dir).expect("overwrite");
        assert!(Json::parse(&std::fs::read_to_string(&path).unwrap()).is_ok());
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            vec!["sweep_atomic.json"],
            "no temp litter: {names:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_plan_stamps_code_version_into_headers() {
        let dir = std::env::temp_dir().join(format!("sweep-traces-cv-{}", std::process::id()));
        let plan = TracePlan::new(&dir, 1).with_code_version("spec:deadbeef");
        let cell = SweepCell::new("flood", GraphFamily::GnpDirected, 16, 0.2);
        plan.open(&cell, 5, "v2", &EngineConfig::default())
            .expect("slot")
            .finish(false)
            .expect("footer");
        let rec =
            radio_trace::Recording::read_from(dir.join("flood-gnp_directed-n16-p0.2-s5.rtrc"))
                .expect("readable");
        assert_eq!(rec.header.code_version, "spec:deadbeef");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_plan_degrades_and_releases_slot_on_io_failure() {
        let base = std::env::temp_dir().join(format!("sweep-degraded-{}", std::process::id()));
        std::fs::create_dir_all(&base).expect("scratch dir");
        // A regular file where the trace directory should be makes every
        // create fail.
        let blocked = base.join("not-a-dir");
        std::fs::write(&blocked, "blocker").expect("blocker file");
        let plan = TracePlan::new(blocked.join("traces"), 1);
        let cell = SweepCell::new("flood", GraphFamily::GnpDirected, 16, 0.2);
        assert!(plan
            .open(&cell, 1, "v1", &EngineConfig::default())
            .is_none());
        assert!(plan
            .open(&cell, 2, "v1", &EngineConfig::default())
            .is_none());
        assert_eq!(plan.degraded(), 2, "both failures counted");
        assert_eq!(plan.recorded(), 0, "failed opens must not consume slots");
        // Same cap budget on a working plan still records up to the cap —
        // the failures above didn't burn it (fresh plan, same semantics).
        let plan_ok = TracePlan::new(base.join("traces"), 1);
        assert!(plan_ok
            .open(&cell, 3, "v1", &EngineConfig::default())
            .is_some());
        assert!(
            plan_ok
                .open(&cell, 4, "v1", &EngineConfig::default())
                .is_none(),
            "cap still enforced"
        );
        assert_eq!(plan_ok.degraded(), 0);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn trace_plan_caps_recordings_per_cell() {
        let dir = std::env::temp_dir().join(format!("sweep-traces-{}", std::process::id()));
        let plan = TracePlan::new(&dir, 2);
        let cell_a = SweepCell::new("flood", GraphFamily::GnpDirected, 32, 0.2);
        let cell_b = SweepCell::new("flood", GraphFamily::GnpDirected, 64, 0.2);
        let cfg = EngineConfig {
            half_duplex: false,
            ..EngineConfig::with_max_rounds(60)
        };
        for seed in [1u64, 2, 3] {
            let sink = plan.open(&cell_a, seed, "v1", &cfg);
            if seed <= 2 {
                let sink = sink.expect("under the cap");
                sink.finish(false).expect("footer");
            } else {
                assert!(sink.is_none(), "third recording must be capped");
            }
        }
        // A different cell has its own budget.
        plan.open(&cell_b, 9, "v2", &EngineConfig::default())
            .expect("own budget")
            .finish(false)
            .expect("footer");
        assert_eq!(plan.recorded(), 3);
        // The capped files are real, readable recordings.
        let rec =
            radio_trace::Recording::read_from(dir.join("flood-gnp_directed-n32-p0.2-s1.rtrc"))
                .expect("readable recording");
        assert_eq!(rec.header.seed, 1);
        assert_eq!(rec.header.engine, "v1");
        assert_eq!(rec.header.topology, "gnp_directed/n=32/p=0.2");
        // The header records the config the run used, not the defaults.
        assert_eq!(rec.header.max_rounds, 60);
        assert!(!rec.header.half_duplex);
        let rec_b =
            radio_trace::Recording::read_from(dir.join("flood-gnp_directed-n64-p0.2-s9.rtrc"))
                .expect("readable recording");
        assert_eq!(rec_b.header.max_rounds, EngineConfig::default().max_rounds);
        assert!(rec_b.header.half_duplex);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_plan_runs_inside_a_parallel_sweep() {
        let dir = std::env::temp_dir().join(format!("sweep-traces-par-{}", std::process::id()));
        let plan = TracePlan::new(&dir, 1);
        let sw = small_sweep();
        let results = sw.collect(|cell, graph, seed| {
            let mut proto = P3Flood::new(graph.n());
            let mut rng = derive_rng(seed, b"plan", 0);
            let cfg = EngineConfig::with_max_rounds(60);
            let run = match plan.open(cell, seed, "v1", &cfg) {
                Some(mut sink) => {
                    let run = Engine::new(graph, cfg)
                        .run(&mut proto)
                        .sink(&mut sink)
                        .v1(&mut rng);
                    sink.finish(run.completed).expect("footer");
                    run
                }
                None => Engine::new(graph, cfg).run(&mut proto).v1(&mut rng),
            };
            TrialResult::from_run(&run, run.completed, proto.n_informed)
        });
        // One recording per cell, and traced trials report identically
        // to untraced ones (the sweep report can't tell them apart).
        assert_eq!(plan.recorded(), sw.cells().len());
        let untraced = sw.collect(|_cell, graph, seed| {
            let mut proto = P3Flood::new(graph.n());
            let mut rng = derive_rng(seed, b"plan", 0);
            let run = Engine::new(graph, EngineConfig::with_max_rounds(60))
                .run(&mut proto)
                .v1(&mut rng);
            TrialResult::from_run(&run, run.completed, proto.n_informed)
        });
        assert_eq!(
            sw.report(&results).to_json_string(),
            sw.report(&untraced).to_json_string()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
