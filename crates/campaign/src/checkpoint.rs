//! On-disk campaign state: a manifest plus one raw-results file per
//! completed cell, all written atomically (temp file + rename).
//!
//! **Crash-safety ordering.** A cell checkpoint is two writes: the
//! cell's raw trials (`cell_NNNN.json`), *then* the manifest listing it
//! as completed. A crash between the two leaves an orphaned cell file
//! the manifest doesn't claim — resume simply re-runs that cell
//! (deterministically, producing the identical file) and re-claims it.
//! The reverse order would let the manifest claim a cell whose file is
//! missing or torn, which is why it is forbidden.
//!
//! **Resume refusal.** The manifest records the scenario's spec hash
//! and the code version that produced it. Resuming under a different
//! spec (even one value changed — the hash is over the canonical
//! compact form, so reformatting is fine) or a different build refuses
//! rather than splicing incompatible halves into one report.
//!
//! **Byte fidelity.** Trial scalars are stored as JSON numbers in the
//! shortest-round-trip form `radio_util::Json` writes, which re-reads
//! to the exact `f64` — so aggregating resumed cells produces the same
//! report bytes as an uninterrupted run. The kill-and-resume
//! integration test pins this end to end.

use radio_sim::{CellResults, SweepCell, TrialEnergy, TrialResult};
use radio_util::{write_atomic, Json};
use std::path::{Path, PathBuf};

/// The code version stamped into manifests: resumes across different
/// builds are refused (trial streams may have changed).
pub const CODE_VERSION: &str = env!("CARGO_PKG_VERSION");

/// The campaign manifest: which cells are done, under which spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Scenario name (defensive cross-check only; the hash is the
    /// authority).
    pub scenario: String,
    /// `spec:<16 hex>` — the canonical spec hash.
    pub spec_hash: String,
    /// Build that produced the completed cells.
    pub code_version: String,
    /// Master seed (stringified in JSON so 64-bit values stay exact).
    pub base_seed: u64,
    /// Trials per cell.
    pub trials_per_cell: usize,
    /// Cells in the campaign.
    pub total_cells: usize,
    /// Completed cell indices, ascending.
    pub completed: Vec<usize>,
}

impl Manifest {
    /// A fresh manifest with nothing completed.
    pub fn fresh(
        scenario: &str,
        spec_hash: String,
        base_seed: u64,
        trials_per_cell: usize,
        total_cells: usize,
    ) -> Self {
        Manifest {
            scenario: scenario.to_string(),
            spec_hash,
            code_version: CODE_VERSION.to_string(),
            base_seed,
            trials_per_cell,
            total_cells,
            completed: Vec::new(),
        }
    }

    /// The manifest path under a checkpoint directory.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join("manifest.json")
    }

    /// Atomically persist to `Manifest::path(dir)`.
    pub fn store(&self, dir: &Path) -> std::io::Result<()> {
        let j = Json::obj(vec![
            ("version", Json::Num(1.0)),
            ("scenario", Json::str(&self.scenario)),
            ("spec_hash", Json::str(&self.spec_hash)),
            ("code_version", Json::str(&self.code_version)),
            ("base_seed", Json::str(self.base_seed.to_string())),
            ("trials_per_cell", Json::Num(self.trials_per_cell as f64)),
            ("total_cells", Json::Num(self.total_cells as f64)),
            (
                "completed",
                Json::Arr(
                    self.completed
                        .iter()
                        .map(|&i| Json::Num(i as f64))
                        .collect(),
                ),
            ),
        ]);
        write_atomic(Self::path(dir), j.to_string_pretty())
    }

    /// Load from `Manifest::path(dir)`. `Ok(None)` when no manifest
    /// exists (fresh campaign); `Err` on unreadable or malformed state.
    pub fn load(dir: &Path) -> Result<Option<Manifest>, String> {
        let path = Self::path(dir);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let p = "manifest";
        let version = doc.get_u64("version", p)?;
        if version != 1 {
            return Err(format!("{p}: unsupported manifest version {version}"));
        }
        let mut completed: Vec<usize> = doc
            .get_or_err("completed", p)?
            .as_arr()
            .ok_or_else(|| format!("`{p}.completed`: expected an array"))?
            .iter()
            .map(|j| {
                j.as_u64()
                    .map(|v| v as usize)
                    .ok_or_else(|| format!("`{p}.completed`: non-integer entry"))
            })
            .collect::<Result<_, _>>()?;
        completed.sort_unstable();
        completed.dedup();
        Ok(Some(Manifest {
            scenario: doc.get_str("scenario", p)?.to_string(),
            spec_hash: doc.get_str("spec_hash", p)?.to_string(),
            code_version: doc.get_str("code_version", p)?.to_string(),
            base_seed: doc
                .get_str("base_seed", p)?
                .parse()
                .map_err(|_| format!("`{p}.base_seed`: bad u64 string"))?,
            trials_per_cell: doc.get_u64("trials_per_cell", p)? as usize,
            total_cells: doc.get_u64("total_cells", p)? as usize,
            completed,
        }))
    }
}

/// The raw-results path of cell `idx` under a checkpoint directory.
pub fn cell_path(dir: &Path, idx: usize) -> PathBuf {
    dir.join(format!("cell_{idx:04}.json"))
}

/// Atomically persist one cell's raw trials.
pub fn write_cell(dir: &Path, idx: usize, results: &CellResults) -> std::io::Result<()> {
    let j = Json::obj(vec![
        (
            "cell",
            Json::obj(vec![
                ("algorithm", Json::str(&results.cell.algorithm)),
                ("family", Json::str(results.cell.family.label())),
                ("n", Json::Num(results.cell.n as f64)),
                ("p", Json::Num(results.cell.p)),
            ]),
        ),
        (
            "trials",
            Json::Arr(results.trials.iter().map(trial_to_json).collect()),
        ),
    ]);
    write_atomic(cell_path(dir, idx), j.to_string_pretty())
}

/// Load cell `idx`, cross-checking the stored cell description against
/// the sweep's — a checkpoint written by a different grid is refused.
pub fn read_cell(dir: &Path, idx: usize, expect: &SweepCell) -> Result<CellResults, String> {
    let path = cell_path(dir, idx);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let p = format!("cell[{idx}]");
    let c = doc.get_or_err("cell", &p)?;
    let algorithm = c.get_str("algorithm", &p)?;
    let family = c.get_str("family", &p)?;
    let n = c.get_u64("n", &p)? as usize;
    let cp = c.get_f64("p", &p)?;
    if algorithm != expect.algorithm
        || family != expect.family.label()
        || n != expect.n
        || cp != expect.p
    {
        return Err(format!(
            "{}: checkpointed cell ({algorithm}/{family}/n={n}/p={cp}) does not match \
             the spec's cell {idx} ({}/{}/n={}/p={})",
            path.display(),
            expect.algorithm,
            expect.family.label(),
            expect.n,
            expect.p,
        ));
    }
    let trials = doc
        .get_or_err("trials", &p)?
        .as_arr()
        .ok_or_else(|| format!("`{p}.trials`: expected an array"))?
        .iter()
        .enumerate()
        .map(|(t, j)| trial_from_json(j, &format!("{p}.trials[{t}]")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CellResults {
        cell: expect.clone(),
        trials,
    })
}

fn trial_to_json(t: &TrialResult) -> Json {
    let energy = t.energy.as_ref().map_or(Json::Null, |e| {
        Json::obj(vec![
            ("total", Json::Num(e.total)),
            ("max_per_node", Json::Num(e.max_per_node)),
            (
                "first_depletion_round",
                e.first_depletion_round
                    .map_or(Json::Null, |r| Json::Num(r as f64)),
            ),
            ("depleted", Json::Num(e.depleted as f64)),
        ])
    });
    Json::obj(vec![
        ("completed", Json::Bool(t.completed)),
        ("success", Json::Bool(t.success)),
        ("rounds", Json::Num(t.rounds as f64)),
        ("hit_round_cap", Json::Bool(t.hit_round_cap)),
        (
            "total_transmissions",
            Json::Num(t.total_transmissions as f64),
        ),
        (
            "max_transmissions_per_node",
            Json::Num(t.max_transmissions_per_node as f64),
        ),
        ("informed", Json::Num(t.informed as f64)),
        ("energy", energy),
        (
            "extras",
            Json::Obj(
                t.extras
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
    ])
}

fn trial_from_json(j: &Json, path: &str) -> Result<TrialResult, String> {
    let energy = match j.get_or_err("energy", path)? {
        Json::Null => None,
        e => Some(TrialEnergy {
            total: e.get_f64("total", path)?,
            max_per_node: e.get_f64("max_per_node", path)?,
            first_depletion_round: match e.get_or_err("first_depletion_round", path)? {
                Json::Null => None,
                r => Some(r.as_u64().ok_or_else(|| {
                    format!("`{path}.first_depletion_round`: expected an integer")
                })?),
            },
            depleted: e.get_u64("depleted", path)? as usize,
        }),
    };
    let extras = match j.get_or_err("extras", path)? {
        Json::Obj(pairs) => pairs
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|x| (k.clone(), x))
                    .ok_or_else(|| format!("`{path}.extras.{k}`: expected a number"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        other => {
            return Err(format!(
                "`{path}.extras`: expected an object, got {}",
                other.type_name()
            ))
        }
    };
    let max_per_node = j.get_u64("max_transmissions_per_node", path)?;
    Ok(TrialResult {
        completed: j.get_bool("completed", path)?,
        success: j.get_bool("success", path)?,
        rounds: j.get_u64("rounds", path)?,
        hit_round_cap: j.get_bool("hit_round_cap", path)?,
        total_transmissions: j.get_u64("total_transmissions", path)?,
        max_transmissions_per_node: u32::try_from(max_per_node).map_err(|_| {
            format!("`{path}.max_transmissions_per_node`: {max_per_node} exceeds u32")
        })?,
        informed: j.get_u64("informed", path)? as usize,
        energy,
        extras,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::GraphFamily;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("radio-ckpt-{}-{name}", std::process::id()))
    }

    fn sample_cell() -> SweepCell {
        SweepCell::new("alg1:f=0.3", GraphFamily::GnpDirected, 64, 0.125)
    }

    fn sample_results() -> CellResults {
        CellResults {
            cell: sample_cell(),
            trials: vec![
                TrialResult {
                    completed: true,
                    success: false,
                    rounds: 37,
                    hit_round_cap: false,
                    total_transmissions: 120,
                    max_transmissions_per_node: 3,
                    informed: 61,
                    energy: Some(TrialEnergy {
                        total: 19.75,
                        max_per_node: 0.30000000000000004, // non-terminating binary
                        first_depletion_round: Some(12),
                        depleted: 4,
                    }),
                    extras: vec![("survivor_informed_frac".into(), 1.0 / 3.0)],
                },
                TrialResult {
                    completed: false,
                    success: false,
                    rounds: 400,
                    hit_round_cap: true,
                    total_transmissions: 0,
                    max_transmissions_per_node: 0,
                    informed: 1,
                    energy: None,
                    extras: vec![],
                },
            ],
        }
    }

    #[test]
    fn cell_round_trips_exactly() {
        let dir = scratch("cell");
        let results = sample_results();
        write_cell(&dir, 7, &results).expect("write");
        let back = read_cell(&dir, 7, &sample_cell()).expect("read");
        assert_eq!(back.cell, results.cell);
        assert_eq!(back.trials, results.trials, "f64s must round-trip exactly");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cell_mismatch_is_refused() {
        let dir = scratch("mismatch");
        write_cell(&dir, 0, &sample_results()).expect("write");
        let other = SweepCell::new("alg1:f=0.3", GraphFamily::GnpDirected, 128, 0.125);
        let err = read_cell(&dir, 0, &other).unwrap_err();
        assert!(err.contains("does not match"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_round_trips_and_absence_is_ok_none() {
        let dir = scratch("manifest");
        assert_eq!(Manifest::load(&dir).expect("no manifest is fine"), None);
        let mut m = Manifest::fresh("unit", "spec:00ff".into(), u64::MAX, 5, 3);
        m.completed = vec![2, 0];
        m.store(&dir).expect("store");
        let mut expect = m.clone();
        expect.completed = vec![0, 2]; // load sorts
        assert_eq!(
            Manifest::load(&dir).expect("load").expect("present"),
            expect
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fractional_counts_are_refused_with_their_path() {
        let dir = scratch("fractional");
        write_cell(&dir, 0, &sample_results()).expect("write");
        let path = cell_path(&dir, 0);
        let text = std::fs::read_to_string(&path).unwrap();
        let torn = text.replacen("\"rounds\": 37", "\"rounds\": 37.5", 1);
        assert_ne!(torn, text, "the sample trial writes `rounds: 37`");
        std::fs::write(&path, torn).unwrap();
        let err = read_cell(&dir, 0, &sample_cell()).unwrap_err();
        assert_eq!(
            err,
            "`cell[0].trials[0].rounds`: expected a non-negative integer, got a number"
        );

        Manifest::fresh("unit", "spec:00ff".into(), 1, 5, 3)
            .store(&dir)
            .expect("store");
        let path = Manifest::path(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            text.replace("\"trials_per_cell\": 5", "\"trials_per_cell\": 5.5"),
        )
        .unwrap();
        let err = Manifest::load(&dir).unwrap_err();
        assert_eq!(
            err,
            "`manifest.trials_per_cell`: expected a non-negative integer, got a number"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_manifest_is_an_error_not_a_fresh_start() {
        let dir = scratch("torn");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(Manifest::path(&dir), "{\"version\": 1, \"scen").unwrap();
        assert!(Manifest::load(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
