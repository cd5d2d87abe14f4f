//! The campaign runner: execute a compiled scenario cell by cell with
//! per-cell checkpointing, and resume a half-finished campaign.
//!
//! A [`Campaign`] pairs a [`Compiled`] scenario with a checkpoint
//! directory. [`Campaign::step`] runs the lowest-index incomplete cell
//! and commits it (cell file first, manifest second — see the
//! [`checkpoint`] module for why that order is
//! crash-safe); [`Campaign::report`] aggregates checkpointed cells into
//! the same [`SweepReport`] an uninterrupted in-memory run produces,
//! byte for byte.
//!
//! Resume is refused when the spec hash or the code version in the
//! manifest differs from the current spec/build: half a campaign under
//! one spec spliced with half under another is precisely the silent
//! corruption this layer exists to prevent.

use crate::checkpoint::{self, Manifest, CODE_VERSION};
use crate::compile::Compiled;
use crate::ir::Scenario;
use radio_sim::{CellResults, SweepReport, TracePlan};
use std::path::{Path, PathBuf};

/// A checkpointed, resumable campaign over one scenario.
#[derive(Debug)]
pub struct Campaign {
    compiled: Compiled,
    dir: PathBuf,
    manifest: Manifest,
    plan: Option<TracePlan>,
}

impl Campaign {
    /// Start a fresh campaign in `dir`. Refuses if `dir` already holds
    /// a manifest — resuming and starting over are different intents,
    /// and silently clobbering completed cells would be data loss.
    pub fn fresh(scenario: Scenario, dir: impl Into<PathBuf>) -> Result<Campaign, String> {
        let dir = dir.into();
        if Manifest::load(&dir)?.is_some() {
            return Err(format!(
                "{} already holds a campaign manifest; use resume (or point at an empty \
                 directory to start over)",
                dir.display()
            ));
        }
        let manifest = Manifest::fresh(
            &scenario.name,
            scenario.spec_hash_string(),
            scenario.sweep.base_seed,
            scenario.sweep.trials,
            scenario.cells.len(),
        );
        manifest
            .store(&dir)
            .map_err(|e| format!("cannot write manifest under {}: {e}", dir.display()))?;
        Ok(Self::assemble(scenario, dir, manifest))
    }

    /// Resume a campaign from the manifest in `dir`. Refuses when no
    /// manifest exists, or when the manifest's spec hash or code
    /// version does not match the current spec and build.
    pub fn resume(scenario: Scenario, dir: impl Into<PathBuf>) -> Result<Campaign, String> {
        let dir = dir.into();
        let manifest = Manifest::load(&dir)?.ok_or_else(|| {
            format!(
                "{} holds no campaign manifest; use a fresh run instead of resume",
                dir.display()
            )
        })?;
        let want_hash = scenario.spec_hash_string();
        if manifest.spec_hash != want_hash {
            return Err(format!(
                "refusing to resume: checkpoint was produced by spec {} (scenario `{}`), \
                 but the current spec hashes to {} — completed cells would not belong to \
                 this campaign",
                manifest.spec_hash, manifest.scenario, want_hash
            ));
        }
        if manifest.code_version != CODE_VERSION {
            return Err(format!(
                "refusing to resume: checkpoint was produced by code version {}, this \
                 build is {CODE_VERSION} — trial streams may differ",
                manifest.code_version
            ));
        }
        Ok(Self::assemble(scenario, dir, manifest))
    }

    fn assemble(scenario: Scenario, dir: PathBuf, manifest: Manifest) -> Campaign {
        let compiled = Compiled::new(scenario);
        let plan = compiled.trace_plan();
        Campaign {
            compiled,
            dir,
            manifest,
            plan,
        }
    }

    /// The compiled scenario.
    pub fn compiled(&self) -> &Compiled {
        &self.compiled
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current manifest (completed indices ascending).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Cell indices not yet committed, ascending.
    pub fn remaining(&self) -> Vec<usize> {
        let total = self.compiled.sweep().cells().len();
        (0..total)
            .filter(|i| !self.manifest.completed.contains(i))
            .collect()
    }

    /// Whether every cell is committed.
    pub fn is_done(&self) -> bool {
        self.remaining().is_empty()
    }

    /// Run the lowest-index incomplete cell and commit it. Returns the
    /// index run, or `None` when the campaign is already complete.
    pub fn step(&mut self) -> Result<Option<usize>, String> {
        let Some(&idx) = self.remaining().first() else {
            return Ok(None);
        };
        let results = self.compiled.run_cell(idx, self.plan.as_ref());
        checkpoint::write_cell(&self.dir, idx, &results)
            .map_err(|e| format!("cannot checkpoint cell {idx}: {e}"))?;
        self.manifest.completed.push(idx);
        self.manifest.completed.sort_unstable();
        self.manifest
            .store(&self.dir)
            .map_err(|e| format!("cannot update manifest: {e}"))?;
        Ok(Some(idx))
    }

    /// Run all remaining cells to completion.
    pub fn run_all(&mut self) -> Result<(), String> {
        while self.step()?.is_some() {}
        Ok(())
    }

    /// Aggregate the checkpointed cells into the sweep report. Errors
    /// if any cell is still incomplete or a cell file fails its
    /// cross-check against the spec.
    pub fn report(&self) -> Result<SweepReport, String> {
        let cells = self.compiled.sweep().cells();
        if !self.is_done() {
            return Err(format!(
                "campaign incomplete: {} of {} cells done",
                self.manifest.completed.len(),
                cells.len()
            ));
        }
        let results: Vec<CellResults> = cells
            .iter()
            .enumerate()
            .map(|(i, cell)| checkpoint::read_cell(&self.dir, i, cell))
            .collect::<Result<_, _>>()?;
        Ok(self.compiled.sweep().report(&results))
    }

    /// Aggregate and atomically write `sweep_<name>.json` under `dir`,
    /// returning the written path.
    pub fn write_report(&self, dir: impl AsRef<Path>) -> Result<PathBuf, String> {
        let report = self.report()?;
        report
            .write_json(dir.as_ref())
            .map_err(|e| format!("cannot write report under {}: {e}", dir.as_ref().display()))
    }

    /// A human-readable status block (`campaign status` output).
    pub fn status(&self) -> String {
        let s = self.compiled.scenario();
        let total = s.cells.len();
        let done = self.manifest.completed.len();
        let mut out = String::new();
        out.push_str(&format!("scenario:     {}\n", s.name));
        out.push_str(&format!("spec hash:    {}\n", s.spec_hash_string()));
        out.push_str(&format!("code version: {}\n", self.manifest.code_version));
        out.push_str(&format!("checkpoints:  {}\n", self.dir.display()));
        out.push_str(&format!("progress:     {done}/{total} cells\n"));
        for (i, cell) in s.cells.iter().enumerate() {
            let mark = if self.manifest.completed.contains(&i) {
                "done"
            } else {
                "todo"
            };
            out.push_str(&format!(
                "  [{mark}] cell {i}: {} {} n={} p={}\n",
                cell.label,
                cell.family.label(),
                cell.n,
                cell.p
            ));
        }
        out
    }
}

/// Read the manifest in `dir` without a scenario — for `status` on a
/// directory whose spec file is unavailable.
pub fn peek_manifest(dir: &Path) -> Result<Option<Manifest>, String> {
    Manifest::load(dir)
}
