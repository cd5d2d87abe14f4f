//! `campaign_e16_e17`: the four committed e16/e17 scenarios, each run
//! `Scenario::parse` → `Campaign::fresh` → `step` until done →
//! `write_report` in a fresh scratch directory, and each report
//! byte-compared against its committed `results/sweep_<name>.json`.
//!
//! The traced run replaces `step` and `write_report` by the same public
//! calls they are made of (`Compiled::run_cell`, `checkpoint::write_cell`,
//! `Manifest::store`, `checkpoint::read_cell`, `SweepReport::write_json`)
//! so each can be timed; `tests/transparent.rs` checks both paths write
//! the same bytes.

use crate::layers::{CampaignCounts, Layers};
use crate::measure::{
    end_to_end, median, repeat, secs, Checks, EndToEnd, Iteration, Opts, Stopwatch,
};
use radio_campaign::checkpoint::{self, Manifest};
use radio_campaign::{Campaign, Scenario};
use radio_sim::CellResults;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The committed scenarios, by name.
pub(crate) const SCENARIOS: [&str; 4] = ["e16_crash", "e16_mobility", "e17_energy", "e17_lifetime"];

/// One scenario's spec text and its committed report.
pub(crate) struct Input {
    /// Scenario name.
    pub name: &'static str,
    /// `scenarios/<name>.scenario.json`.
    pub spec: String,
    /// `results/sweep_<name>.json`.
    pub golden: Vec<u8>,
}

/// Read the committed scenarios and reports from the checkout root
/// (read only; nothing under `results/` is written).
pub(crate) fn load_inputs() -> Result<Vec<Input>, String> {
    SCENARIOS
        .iter()
        .map(|&name| {
            let read = |p: String| std::fs::read(&p).map_err(|e| format!("cannot read {p}: {e}"));
            let spec = String::from_utf8(read(format!("scenarios/{name}.scenario.json"))?)
                .map_err(|e| format!("{name}: spec is not UTF-8: {e}"))?;
            let golden = read(format!("results/sweep_{name}.json"))?;
            Ok(Input { name, spec, golden })
        })
        .collect()
}

/// What one scenario run produced.
pub struct ScenarioRun {
    /// Set-up seconds: parse + `Campaign::fresh` (on the plain path, the
    /// median of [`SETUP_REPEATS`] set-ups).
    pub setup_s: f64,
    /// CPU seconds of the set-up, taken like `setup_s`.
    pub setup_cpu_s: f64,
    /// Seconds per step (one cell, checkpoint included).
    pub step_s: Vec<f64>,
    /// CPU seconds per step.
    pub step_cpu_s: Vec<f64>,
    /// Seconds of one set-up, every step and the report.
    pub total_s: f64,
    /// CPU seconds of the same.
    pub total_cpu_s: f64,
    /// Engine trials the campaign ran.
    pub trials: u64,
    /// The report bytes.
    pub report: Vec<u8>,
}

/// Times the plain path sets a scenario up. One parse + fresh takes well
/// under a millisecond, most of it file creation, so a single sample is
/// mostly file-system noise; the median of several is not.
const SETUP_REPEATS: usize = 15;

/// Run one scenario through `step` and `write_report` under `dir`, which
/// must be empty. The set-up is timed [`SETUP_REPEATS`] times, each into
/// the same checkpoint directory, removed (untimed) before the next: the
/// cost of creating files here grows with the files already beside them,
/// so each set-up must start from the same empty tree. The last campaign
/// is the one stepped, and `setup_s` is the median.
pub fn run_plain(spec: &str, dir: &Path) -> Result<ScenarioRun, String> {
    let ckpt = dir.join("ckpt");
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut setup_cpus = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if last.is_some() {
            std::fs::remove_dir_all(&ckpt)
                .map_err(|e| format!("cannot remove {}: {e}", ckpt.display()))?;
        }
        let t = Stopwatch::start();
        let scenario = Scenario::parse(spec)?;
        let trials = (scenario.cells.len() * scenario.sweep.trials) as u64;
        let campaign = Campaign::fresh(scenario, &ckpt)?;
        let (wall, cpu) = t.read();
        setups.push(wall);
        setup_cpus.push(cpu);
        last = Some((campaign, trials));
    }
    let (mut campaign, trials) = last.expect("SETUP_REPEATS > 0");
    let mut step_s = Vec::new();
    let mut step_cpu_s = Vec::new();
    loop {
        let t = Stopwatch::start();
        if campaign.step()?.is_none() {
            break;
        }
        let (wall, cpu) = t.read();
        step_s.push(wall);
        step_cpu_s.push(cpu);
    }
    let t = Stopwatch::start();
    let path = campaign.write_report(dir.join("report"))?;
    let (report_s, report_cpu_s) = t.read();
    let report =
        std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let setup_s = median(&setups);
    let setup_cpu_s = median(&setup_cpus);
    Ok(ScenarioRun {
        setup_s,
        setup_cpu_s,
        total_s: setup_s + step_s.iter().sum::<f64>() + report_s,
        total_cpu_s: setup_cpu_s + step_cpu_s.iter().sum::<f64>() + report_cpu_s,
        step_s,
        step_cpu_s,
        trials,
        report,
    })
}

fn file_len(p: &Path) -> Result<u64, String> {
    std::fs::metadata(p)
        .map(|m| m.len())
        .map_err(|e| format!("cannot stat {}: {e}", p.display()))
}

/// [`run_plain`] with every campaign-layer call timed into `counts`.
pub fn run_probed(
    spec: &str,
    dir: &Path,
    counts: &mut CampaignCounts,
) -> Result<ScenarioRun, String> {
    let t = Stopwatch::start();
    let scenario = Scenario::parse(spec)?;
    counts.parse_s += t.read().0;
    let trials = (scenario.cells.len() * scenario.sweep.trials) as u64;
    let ckpt = dir.join("ckpt");
    let t1 = Instant::now();
    let campaign = Campaign::fresh(scenario, &ckpt)?;
    counts.compile_s += secs(t1);
    let (setup_s, setup_cpu_s) = t.read();

    // `Campaign::step`, spelled out: run the cell, write it, then claim
    // it in the manifest.
    let compiled = campaign.compiled();
    let plan = compiled.trace_plan();
    let mut manifest: Manifest = campaign.manifest().clone();
    let mut step_s = Vec::new();
    let mut step_cpu_s = Vec::new();
    for idx in campaign.remaining() {
        let t = Stopwatch::start();
        let t0 = Instant::now();
        let results = compiled.run_cell(idx, plan.as_ref());
        counts.run_cell_s += secs(t0);
        let t1 = Instant::now();
        checkpoint::write_cell(&ckpt, idx, &results)
            .map_err(|e| format!("cannot checkpoint cell {idx}: {e}"))?;
        manifest.completed.push(idx);
        manifest.completed.sort_unstable();
        manifest
            .store(&ckpt)
            .map_err(|e| format!("cannot update manifest: {e}"))?;
        counts.checkpoint_s += secs(t1);
        let (wall, cpu) = t.read();
        step_s.push(wall);
        step_cpu_s.push(cpu);
        counts.checkpoint_bytes +=
            file_len(&checkpoint::cell_path(&ckpt, idx))? + file_len(&Manifest::path(&ckpt))?;
    }

    // `Campaign::write_report`, spelled out.
    let t = Stopwatch::start();
    let cells = compiled.sweep().cells();
    let results: Vec<CellResults> = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| checkpoint::read_cell(&ckpt, i, cell))
        .collect::<Result<_, _>>()?;
    let out = dir.join("report");
    let path = compiled
        .sweep()
        .report(&results)
        .write_json(&out)
        .map_err(|e| format!("cannot write report under {}: {e}", out.display()))?;
    let (report_s, report_cpu_s) = t.read();
    counts.report_s += report_s;
    let report =
        std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    counts.report_bytes += report.len() as u64;
    Ok(ScenarioRun {
        setup_s,
        setup_cpu_s,
        total_s: setup_s + step_s.iter().sum::<f64>() + report_s,
        total_cpu_s: setup_cpu_s + step_cpu_s.iter().sum::<f64>() + report_cpu_s,
        step_s,
        step_cpu_s,
        trials,
        report,
    })
}

/// Scratch space inside the checkout, removed when dropped.
pub(crate) struct Scratch(PathBuf);

impl Scratch {
    /// `.perfbench_tmp/<pid>` under the working directory.
    pub(crate) fn new() -> Result<Scratch, String> {
        let dir = Path::new(".perfbench_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// The path of subdirectory `name`, removed if it exists.
    pub(crate) fn empty(&self, name: &str) -> PathBuf {
        let p = self.0.join(name);
        std::fs::remove_dir_all(&p).ok();
        p
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        // Only succeeds once no other run is using the parent.
        if let Some(parent) = self.0.parent() {
            std::fs::remove_dir(parent).ok();
        }
    }
}

/// Scenario run order for a seed: the committed list rotated by the
/// seed, so every seed runs the same work in its own order.
fn order(seed: u64) -> impl Iterator<Item = usize> {
    let k = (seed % SCENARIOS.len() as u64) as usize;
    (0..SCENARIOS.len()).map(move |i| (i + k) % SCENARIOS.len())
}

/// One iteration over all four scenarios; with `counts`, on the probed
/// path.
fn iteration(
    o: &Opts,
    inputs: &[Input],
    scratch: &Scratch,
    checks: &mut Checks,
    mut counts: Option<&mut CampaignCounts>,
) -> Result<Iteration, String> {
    let mut it = Iteration::default();
    let mut runs = Vec::with_capacity(inputs.len());
    for i in order(o.seed) {
        let input = &inputs[i];
        let dir = scratch.empty(input.name);
        let run = match counts.as_deref_mut() {
            None => run_plain(&input.spec, &dir)?,
            Some(c) => run_probed(&input.spec, &dir, c)?,
        };
        // Untimed housekeeping: the next scenario sets up in an empty tree.
        scratch.empty(input.name);
        it.setup_s += run.setup_s;
        it.setup_cpu_s += run.setup_cpu_s;
        it.wall_s += run.total_s;
        it.cpu_s += run.total_cpu_s;
        it.trials += run.trials;
        it.task_s.extend_from_slice(&run.step_s);
        it.task_cpu_s.extend_from_slice(&run.step_cpu_s);
        runs.push((input, run));
    }
    for (input, run) in &runs {
        let problem = (run.report != input.golden).then(|| {
            format!(
                "{}: report differs from results/sweep_{}.json",
                input.name, input.name
            )
        });
        for _ in &run.step_s {
            checks.task(problem.clone());
        }
    }
    Ok(it)
}

/// The untraced run.
pub fn untraced(o: &Opts) -> Result<(Checks, EndToEnd), String> {
    let inputs = load_inputs()?;
    let scratch = Scratch::new()?;
    let mut checks = Checks::default();
    let iters = repeat(o.seconds, |_| {
        iteration(o, &inputs, &scratch, &mut checks, None)
    })?;
    Ok((checks, end_to_end(&iters, &checks)))
}

/// The traced run: one plain iteration as the overhead base, then
/// probed iterations for `o.seconds`.
pub fn traced(o: &Opts) -> Result<(Checks, Layers), String> {
    let inputs = load_inputs()?;
    let scratch = Scratch::new()?;
    let mut checks = Checks::default();
    let plain = iteration(o, &inputs, &scratch, &mut checks, None)?;
    let mut layers = Layers::default();
    let mut counts = CampaignCounts::default();
    let traced = repeat(o.seconds, |_| {
        iteration(o, &inputs, &scratch, &mut checks, Some(&mut counts))
    })?;
    layers.iterations = traced.len() as u64;
    layers.campaign = counts;
    let wall: Vec<f64> = traced.iter().map(|i| i.wall_s).collect();
    layers.trace_overhead = median(&wall) / plain.wall_s;
    Ok((checks, layers))
}
