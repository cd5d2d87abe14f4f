//! The scenario IR: a JSON document describing one campaign —
//! topology × protocol × energy model × fault/mobility plans × sweep
//! grid — parsed and validated into a [`Scenario`].
//!
//! Design rules:
//!
//! * **Everything is explicit.** A scenario lists its cells one by one
//!   (`cells`) rather than encoding grid-nesting conventions; the
//!   committed `e16`/`e17` scenarios prove the format covers real
//!   experiments byte-identically, and explicit cells are what makes
//!   that proof checkable by eye.
//! * **Errors carry their path.** Every validation failure names the
//!   JSON path it occurred at (``​`spec.cells[3]`: missing required key
//!   `n`​``), and parse failures are line-anchored by
//!   [`Json::parse`] — a hand-edited scenario points its author at the
//!   offending line.
//! * **The spec hash is canonical.** [`Scenario::spec_hash`] is FNV-1a
//!   over the *compact re-serialization* of the parsed document, so
//!   reformatting whitespace or reflowing lines never invalidates a
//!   checkpoint; changing any value does.

use radio_graph::GraphFamily;
use radio_util::Json;

/// A parsed, validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Campaign name; the final report lands at `sweep_<name>.json`.
    pub name: String,
    /// Seed / trial-count / backend block.
    pub sweep: SweepSpec,
    /// The grid, cell by cell, in execution order.
    pub cells: Vec<CellSpec>,
    /// Protocol configs, keyed by cell label (exact) or by the
    /// algorithm prefix before `:` (shared by a parameter family).
    pub protocols: Vec<(String, ProtocolSpec)>,
    /// Optional per-cell `.rtrc` capture.
    pub trace: Option<TraceSpec>,
    /// FNV-1a 64 over the canonical compact serialization.
    hash: u64,
}

/// The `sweep` block.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Master seed (JSON number, or string for values beyond 2⁵³).
    pub base_seed: u64,
    /// Trials per cell.
    pub trials: usize,
    /// Topology backend every cell runs on.
    pub backend: Backend,
    /// Intra-run engine threads (1 = trial-level fan-out only).
    pub threads_per_run: usize,
}

/// Which topology representation backs the cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Materialized CSR graphs (`DiGraph`), every family.
    Csr,
    /// Bucket-grid implicit geometric topology — byte-identical to CSR
    /// for the `geometric` family (the grid replays the same position
    /// draws), without materializing edges. Geometric-family cells
    /// only, and only for kernels that never consult the edge list.
    ImplicitGrid,
}

impl Backend {
    /// The IR string.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Csr => "csr",
            Backend::ImplicitGrid => "implicit_grid",
        }
    }
}

/// One grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Algorithm label the kernel dispatches on (parameters ride in the
    /// label, e.g. `"alg1:f=0.3"` — they are part of the report key).
    pub label: String,
    /// Topology family.
    pub family: GraphFamily,
    /// Node count.
    pub n: usize,
    /// Family parameter (edge probability, radius, …).
    pub p: f64,
}

/// Which trial kernel runs a cell, plus its fixed parameters. The
/// per-cell *variable* parameters (crash fraction, listen ratio,
/// mobility σ) ride in the cell label, exactly as the hand-written
/// experiments encode them.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolSpec {
    /// Gossip (Algorithm 2) on a Brownian-mobile geometric field;
    /// label `"gossip:f=<sigma>"`.
    MobileGossip {
        /// Rounds between topology snapshots.
        switch_every: u64,
        /// Gossip schedule stretch factor.
        gamma: f64,
        /// Rumor-set tracking cap.
        tracked: Option<usize>,
    },
    /// Broadcast under fail-stop loss injected via crash plan, battery
    /// depletion, or both; label `"<variant>:f=<fraction>"` with
    /// variant ∈ {alg1, alg1_battery, alg1_both, alg3}.
    FaultyBroadcast {
        /// Round the doomed set stops participating.
        crash_round: u64,
        /// Exempt the source from the doomed set.
        spare_source: bool,
        /// Diameter hint for the Alg 3 window config.
        d_hint: u32,
    },
    /// Listen/tx cost-ratio crossover under the linear radio; label
    /// `"<alg>:r=<ratio>"` with alg ∈ {alg1, flood, decay}.
    EnergyCrossover {
        /// Flooding's per-round transmit probability.
        flood_q: f64,
        /// Diameter hint for Decay.
        d_hint: u32,
    },
    /// Network lifetime on finite jittered batteries; label
    /// `"<alg>"` with alg ∈ {alg1, flood, decay}.
    EnergyLifetime {
        /// Fixed mission horizon, in rounds.
        horizon: u64,
        /// Battery capacity before jitter.
        capacity: f64,
        /// Relative capacity jitter.
        jitter: f64,
        /// Flooding's per-round transmit probability.
        flood_q: f64,
        /// Diameter hint for Decay.
        d_hint: u32,
    },
}

impl ProtocolSpec {
    /// The IR `kind` string.
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolSpec::MobileGossip { .. } => "mobile_gossip",
            ProtocolSpec::FaultyBroadcast { .. } => "faulty_broadcast",
            ProtocolSpec::EnergyCrossover { .. } => "energy_crossover",
            ProtocolSpec::EnergyLifetime { .. } => "energy_lifetime",
        }
    }

    /// Whether the kernel works purely through the [`Topology`]
    /// interface (never touches the edge list or regenerates CSR
    /// snapshots itself) and so supports the implicit-grid backend.
    ///
    /// [`Topology`]: radio_graph::Topology
    pub fn supports_implicit(&self) -> bool {
        matches!(
            self,
            ProtocolSpec::FaultyBroadcast { .. } | ProtocolSpec::EnergyLifetime { .. }
        )
    }
}

/// Optional `trace` block: capped per-cell `.rtrc` capture, spec hash
/// stamped into every recording's `code_version` and the trial's engine
/// config into its `max_rounds` / `half_duplex`. Only the Algorithm-1
/// kernel variants record: `faulty_broadcast`'s `alg1` and
/// `alg1_battery` cells and the `alg1` cells of `energy_crossover` and
/// `energy_lifetime`. Every other cell runs untraced.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Directory the recordings land in.
    pub dir: String,
    /// Recordings kept per cell.
    pub per_cell_cap: usize,
}

/// FNV-1a 64-bit over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn want_str<'j>(j: &'j Json, key: &str, path: &str) -> Result<&'j str, String> {
    let v = j.get_or_err(key, path)?;
    v.as_str()
        .ok_or_else(|| format!("`{path}.{key}`: expected a string, got {}", v.type_name()))
}

fn want_u64(j: &Json, key: &str, path: &str) -> Result<u64, String> {
    let v = j.get_or_err(key, path)?;
    v.as_u64().ok_or_else(|| {
        format!(
            "`{path}.{key}`: expected a non-negative integer, got {}",
            v.type_name()
        )
    })
}

fn want_f64(j: &Json, key: &str, path: &str) -> Result<f64, String> {
    let v = j.get_or_err(key, path)?;
    v.as_f64()
        .ok_or_else(|| format!("`{path}.{key}`: expected a number, got {}", v.type_name()))
}

fn opt_u64(j: &Json, key: &str, path: &str, default: u64) -> Result<u64, String> {
    match j.get(key) {
        None => Ok(default),
        Some(_) => want_u64(j, key, path),
    }
}

fn opt_f64(j: &Json, key: &str, path: &str, default: f64) -> Result<f64, String> {
    match j.get(key) {
        None => Ok(default),
        Some(_) => want_f64(j, key, path),
    }
}

/// `"gnp_directed"` → [`GraphFamily::GnpDirected`], accepting exactly
/// the labels [`GraphFamily::label`] emits (the IR round-trips through
/// report JSON).
fn parse_family(label: &str, path: &str) -> Result<GraphFamily, String> {
    match label {
        "gnp_directed" => Ok(GraphFamily::GnpDirected),
        "gnp_undirected" => Ok(GraphFamily::GnpUndirected),
        "geometric" => Ok(GraphFamily::Geometric),
        "random_out_regular" => Ok(GraphFamily::RandomOutRegular),
        "path" => Ok(GraphFamily::Path),
        "star" => Ok(GraphFamily::Star),
        other => {
            if let Some(rest) = other
                .strip_prefix("caterpillar(legs=")
                .and_then(|r| r.strip_suffix(')'))
            {
                let legs: usize = rest
                    .parse()
                    .map_err(|_| format!("`{path}`: bad caterpillar legs `{rest}`"))?;
                return Ok(GraphFamily::Caterpillar { legs });
            }
            Err(format!("`{path}`: unknown topology family `{other}`"))
        }
    }
}

impl Scenario {
    /// Parse and validate a scenario document. Parse failures are
    /// line-anchored; validation failures name their JSON path.
    pub fn parse(text: &str) -> Result<Scenario, String> {
        let doc = Json::parse(text)?;
        Self::from_json(&doc)
    }

    /// Validate an already-parsed document.
    pub fn from_json(doc: &Json) -> Result<Scenario, String> {
        let hash = fnv1a64(doc.to_string_compact().as_bytes());
        let version = want_u64(doc, "version", "spec")?;
        if version != 1 {
            return Err(format!("`spec.version`: unsupported version {version}"));
        }
        let name = want_str(doc, "name", "spec")?.to_string();
        if name.is_empty()
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
        {
            return Err(format!(
                "`spec.name`: `{name}` must be non-empty [A-Za-z0-9_-] (it names files)"
            ));
        }

        // --- sweep block -------------------------------------------------
        let sw = doc.get_or_err("sweep", "spec")?;
        let base_seed = match sw.get_or_err("base_seed", "spec.sweep")? {
            Json::Str(s) => s
                .parse::<u64>()
                .map_err(|_| format!("`spec.sweep.base_seed`: bad u64 string `{s}`"))?,
            other => other.as_u64().ok_or_else(|| {
                format!(
                    "`spec.sweep.base_seed`: expected an integer or u64 string, got {}",
                    other.type_name()
                )
            })?,
        };
        let trials = want_u64(sw, "trials", "spec.sweep")? as usize;
        if trials == 0 {
            return Err("`spec.sweep.trials`: must be at least 1".to_string());
        }
        let backend = match sw.get("backend") {
            None => Backend::Csr,
            Some(b) => match b.as_str() {
                Some("csr") => Backend::Csr,
                Some("implicit_grid") => Backend::ImplicitGrid,
                Some(other) => {
                    return Err(format!(
                        "`spec.sweep.backend`: unknown backend `{other}` \
                         (expected `csr` or `implicit_grid`)"
                    ))
                }
                None => {
                    return Err(format!(
                        "`spec.sweep.backend`: expected a string, got {}",
                        b.type_name()
                    ))
                }
            },
        };
        let threads_per_run = opt_u64(sw, "threads_per_run", "spec.sweep", 1)? as usize;
        if threads_per_run == 0 {
            return Err("`spec.sweep.threads_per_run`: must be at least 1".to_string());
        }

        // --- cells -------------------------------------------------------
        let cells_j = doc.get_or_err("cells", "spec")?;
        let cells_arr = cells_j.as_arr().ok_or_else(|| {
            format!(
                "`spec.cells`: expected an array, got {}",
                cells_j.type_name()
            )
        })?;
        if cells_arr.is_empty() {
            return Err("`spec.cells`: a campaign needs at least one cell".to_string());
        }
        let mut cells = Vec::with_capacity(cells_arr.len());
        for (i, c) in cells_arr.iter().enumerate() {
            let path = format!("spec.cells[{i}]");
            let label = want_str(c, "label", &path)?.to_string();
            let family = parse_family(want_str(c, "family", &path)?, &format!("{path}.family"))?;
            let n = want_u64(c, "n", &path)? as usize;
            if n == 0 {
                return Err(format!("`{path}.n`: must be at least 1"));
            }
            let p = want_f64(c, "p", &path)?;
            if !p.is_finite() || p < 0.0 {
                return Err(format!("`{path}.p`: must be finite and non-negative"));
            }
            cells.push(CellSpec {
                label,
                family,
                n,
                p,
            });
        }

        // --- protocols ---------------------------------------------------
        let protos_j = doc.get_or_err("protocols", "spec")?;
        let protos_obj = match protos_j {
            Json::Obj(pairs) => pairs,
            other => {
                return Err(format!(
                    "`spec.protocols`: expected an object, got {}",
                    other.type_name()
                ))
            }
        };
        let mut protocols = Vec::with_capacity(protos_obj.len());
        for (key, spec_j) in protos_obj {
            let path = format!("spec.protocols.{key}");
            let spec = parse_protocol(spec_j, &path)?;
            if protocols.iter().any(|(k, _)| k == key) {
                return Err(format!("`{path}`: duplicate protocol key"));
            }
            protocols.push((key.clone(), spec));
        }

        // --- trace (optional) --------------------------------------------
        let trace = match doc.get("trace") {
            None => None,
            Some(t) => {
                let dir = want_str(t, "dir", "spec.trace")?.to_string();
                let cap = want_u64(t, "per_cell_cap", "spec.trace")? as usize;
                if cap == 0 {
                    return Err("`spec.trace.per_cell_cap`: must be at least 1".to_string());
                }
                Some(TraceSpec {
                    dir,
                    per_cell_cap: cap,
                })
            }
        };

        let scenario = Scenario {
            name,
            sweep: SweepSpec {
                base_seed,
                trials,
                backend,
                threads_per_run,
            },
            cells,
            protocols,
            trace,
            hash,
        };
        scenario.check_cross_references()?;
        Ok(scenario)
    }

    /// Cross-field validation: every cell resolves to a protocol, every
    /// protocol is used, kernel/family/backend combinations are legal.
    fn check_cross_references(&self) -> Result<(), String> {
        let mut used = vec![false; self.protocols.len()];
        for (i, cell) in self.cells.iter().enumerate() {
            let path = format!("spec.cells[{i}]");
            let (key_idx, proto) = self.resolve_protocol(&cell.label).ok_or_else(|| {
                format!(
                    "`{path}`: no protocol entry matches label `{}` \
                     (neither the full label nor its `:`-prefix)",
                    cell.label
                )
            })?;
            used[key_idx] = true;
            match proto {
                ProtocolSpec::MobileGossip { .. } => {
                    if cell.family != GraphFamily::Geometric {
                        return Err(format!(
                            "`{path}`: mobile_gossip needs the geometric family \
                             (p is a connection radius), got `{}`",
                            cell.family.label()
                        ));
                    }
                    if self.sweep.backend == Backend::ImplicitGrid {
                        return Err(format!(
                            "`{path}`: mobile_gossip regenerates CSR snapshots and \
                             cannot run on the implicit_grid backend"
                        ));
                    }
                }
                ProtocolSpec::EnergyCrossover { .. }
                    if self.sweep.backend == Backend::ImplicitGrid =>
                {
                    return Err(format!(
                        "`{path}`: energy_crossover consults the materialized edge \
                         count and cannot run on the implicit_grid backend"
                    ));
                }
                _ => {}
            }
            if self.sweep.backend == Backend::ImplicitGrid && cell.family != GraphFamily::Geometric
            {
                return Err(format!(
                    "`{path}`: the implicit_grid backend supports only the geometric \
                     family, got `{}`",
                    cell.family.label()
                ));
            }
        }
        if let Some(i) = used.iter().position(|&u| !u) {
            return Err(format!(
                "`spec.protocols.{}`: unused protocol entry (no cell label matches — typo?)",
                self.protocols[i].0
            ));
        }
        Ok(())
    }

    /// The protocol entry for a cell label: exact key match first, then
    /// the label's `:`-prefix (so `"alg1:f=0.3"` and `"alg1:f=0.6"`
    /// share one `"alg1"` entry). Returns the entry index and spec.
    pub fn resolve_protocol(&self, label: &str) -> Option<(usize, &ProtocolSpec)> {
        if let Some(i) = self.protocols.iter().position(|(k, _)| k == label) {
            return Some((i, &self.protocols[i].1));
        }
        let prefix = label.split(':').next().unwrap_or(label);
        self.protocols
            .iter()
            .position(|(k, _)| k == prefix)
            .map(|i| (i, &self.protocols[i].1))
    }

    /// FNV-1a 64 over the canonical compact serialization of the parsed
    /// document — whitespace-insensitive, value-sensitive.
    pub fn spec_hash(&self) -> u64 {
        self.hash
    }

    /// The hash in the form stamped into `RunHeader::code_version` and
    /// the checkpoint manifest: `spec:<16 hex digits>`.
    pub fn spec_hash_string(&self) -> String {
        format!("spec:{:016x}", self.hash)
    }
}

fn parse_protocol(j: &Json, path: &str) -> Result<ProtocolSpec, String> {
    let kind = want_str(j, "kind", path)?;
    match kind {
        "mobile_gossip" => Ok(ProtocolSpec::MobileGossip {
            switch_every: opt_u64(j, "switch_every", path, 40)?,
            gamma: opt_f64(j, "gamma", path, 10.0)?,
            tracked: match j.get("tracked") {
                None => Some(64),
                Some(Json::Null) => None,
                Some(_) => Some(want_u64(j, "tracked", path)? as usize),
            },
        }),
        "faulty_broadcast" => Ok(ProtocolSpec::FaultyBroadcast {
            crash_round: opt_u64(j, "crash_round", path, 3)?,
            spare_source: match j.get("spare_source") {
                None => true,
                Some(Json::Bool(b)) => *b,
                Some(other) => {
                    return Err(format!(
                        "`{path}.spare_source`: expected a boolean, got {}",
                        other.type_name()
                    ))
                }
            },
            d_hint: opt_u64(j, "d_hint", path, 6)? as u32,
        }),
        "energy_crossover" => Ok(ProtocolSpec::EnergyCrossover {
            flood_q: opt_f64(j, "flood_q", path, 0.1)?,
            d_hint: opt_u64(j, "d_hint", path, 8)? as u32,
        }),
        "energy_lifetime" => Ok(ProtocolSpec::EnergyLifetime {
            horizon: opt_u64(j, "horizon", path, 400)?,
            capacity: opt_f64(j, "capacity", path, 100.0)?,
            jitter: opt_f64(j, "jitter", path, 0.2)?,
            flood_q: opt_f64(j, "flood_q", path, 0.1)?,
            d_hint: opt_u64(j, "d_hint", path, 8)? as u32,
        }),
        other => Err(format!("`{path}.kind`: unknown kernel `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> String {
        r#"{
            "version": 1,
            "name": "smoke",
            "sweep": {"base_seed": 7, "trials": 2},
            "cells": [
                {"label": "alg1:f=0.3", "family": "gnp_directed", "n": 64, "p": 0.2}
            ],
            "protocols": {"alg1": {"kind": "faulty_broadcast"}}
        }"#
        .to_string()
    }

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let s = Scenario::parse(&minimal()).expect("valid");
        assert_eq!(s.name, "smoke");
        assert_eq!(s.sweep.base_seed, 7);
        assert_eq!(s.sweep.backend, Backend::Csr);
        assert_eq!(s.sweep.threads_per_run, 1);
        assert_eq!(s.cells.len(), 1);
        let (_, proto) = s.resolve_protocol("alg1:f=0.3").expect("prefix match");
        assert_eq!(
            proto,
            &ProtocolSpec::FaultyBroadcast {
                crash_round: 3,
                spare_source: true,
                d_hint: 6
            }
        );
        assert!(s.trace.is_none());
    }

    #[test]
    fn base_seed_accepts_u64_strings_beyond_2_53() {
        let text = minimal().replace(
            "\"base_seed\": 7",
            "\"base_seed\": \"18446744073709551615\"",
        );
        let s = Scenario::parse(&text).expect("valid");
        assert_eq!(s.sweep.base_seed, u64::MAX);
    }

    #[test]
    fn spec_hash_ignores_whitespace_but_not_values() {
        let a = Scenario::parse(&minimal()).unwrap();
        let b = Scenario::parse(&minimal().replace("\n            ", " ")).unwrap();
        assert_eq!(a.spec_hash(), b.spec_hash(), "reformatting must not rehash");
        let c = Scenario::parse(&minimal().replace("\"trials\": 2", "\"trials\": 3")).unwrap();
        assert_ne!(a.spec_hash(), c.spec_hash(), "value changes must rehash");
        assert_eq!(a.spec_hash_string(), format!("spec:{:016x}", a.spec_hash()));
    }

    #[test]
    fn errors_name_their_json_path() {
        let no_n = minimal().replace("\"n\": 64, ", "");
        let err = Scenario::parse(&no_n).unwrap_err();
        assert!(err.contains("`spec.cells[0]`"), "got: {err}");
        assert!(err.contains("`n`"), "got: {err}");

        let bad_family = minimal().replace("gnp_directed", "small_world");
        let err = Scenario::parse(&bad_family).unwrap_err();
        assert!(err.contains("spec.cells[0].family"), "got: {err}");

        let bad_kind = minimal().replace("faulty_broadcast", "teleport");
        let err = Scenario::parse(&bad_kind).unwrap_err();
        assert!(err.contains("spec.protocols.alg1.kind"), "got: {err}");
    }

    #[test]
    fn parse_errors_are_line_anchored() {
        let truncated = "{\n  \"version\": 1,\n  \"name\" \"x\"\n}";
        let err = Scenario::parse(truncated).unwrap_err();
        assert!(err.starts_with("line 3"), "got: {err}");
    }

    #[test]
    fn unmatched_labels_and_unused_protocols_are_errors() {
        let orphan_cell = minimal().replace("\"alg1:f=0.3\"", "\"alg9:f=0.3\"");
        let err = Scenario::parse(&orphan_cell).unwrap_err();
        assert!(err.contains("no protocol entry matches"), "got: {err}");

        let unused = minimal().replace(
            r#""alg1": {"kind": "faulty_broadcast"}"#,
            r#""alg1": {"kind": "faulty_broadcast"}, "ghost": {"kind": "energy_lifetime"}"#,
        );
        let err = Scenario::parse(&unused).unwrap_err();
        assert!(err.contains("unused protocol entry"), "got: {err}");
    }

    #[test]
    fn implicit_backend_is_gated_to_geometric_and_edge_free_kernels() {
        let geo = minimal()
            .replace(
                "\"trials\": 2",
                "\"trials\": 2, \"backend\": \"implicit_grid\"",
            )
            .replace("gnp_directed", "geometric");
        assert!(Scenario::parse(&geo).is_ok());

        let gnp = minimal().replace(
            "\"trials\": 2",
            "\"trials\": 2, \"backend\": \"implicit_grid\"",
        );
        let err = Scenario::parse(&gnp).unwrap_err();
        assert!(err.contains("only the geometric family"), "got: {err}");

        let crossover = geo
            .replace("faulty_broadcast", "energy_crossover")
            .replace("alg1:f=0.3", "alg1:r=0.1");
        let err = Scenario::parse(&crossover).unwrap_err();
        assert!(err.contains("implicit_grid"), "got: {err}");
    }

    #[test]
    fn version_and_name_are_validated() {
        let err =
            Scenario::parse(&minimal().replace("\"version\": 1", "\"version\": 2")).unwrap_err();
        assert!(err.contains("unsupported version"), "got: {err}");
        let err = Scenario::parse(&minimal().replace("\"smoke\"", "\"bad name\"")).unwrap_err();
        assert!(err.contains("spec.name"), "got: {err}");
    }
}
