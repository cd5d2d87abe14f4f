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
//! * **Unknown keys are errors.** Every optional key has a default, so
//!   a misspelt one (`"crash_rond": 10`) would otherwise validate and
//!   run at the default; each block accepts exactly its own keys (a
//!   protocol entry those of its `kind`).
//! * **The spec hash is canonical.** [`Scenario::spec_hash`] is FNV-1a
//!   over the *compact re-serialization* of the parsed document, so
//!   reformatting whitespace or reflowing lines never invalidates a
//!   checkpoint; changing any value does.

use crate::kernels::{p_gnp, split_label};
use radio_graph::{GraphFamily, NodeId};
use radio_util::Json;

/// The largest round cap the engine accepts: its round stamps are 31
/// bits wide, and it asserts `max_rounds < 2³¹ − 1`.
const MAX_ROUND_CAP: u64 = (u32::MAX >> 1) as u64 - 1;

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

    /// The IR keys of this kind's entry, `kind` included.
    fn keys(&self) -> &'static [&'static str] {
        match self {
            ProtocolSpec::MobileGossip { .. } => &["kind", "switch_every", "gamma", "tracked"],
            ProtocolSpec::FaultyBroadcast { .. } => {
                &["kind", "crash_round", "spare_source", "d_hint"]
            }
            ProtocolSpec::EnergyCrossover { .. } => &["kind", "flood_q", "d_hint"],
            ProtocolSpec::EnergyLifetime { .. } => {
                &["kind", "horizon", "capacity", "jitter", "flood_q", "d_hint"]
            }
        }
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

/// Reject the first key of the object `j` (at `path`) that is not in
/// `known`.
fn check_keys(j: &Json, known: &[&str], path: &str) -> Result<(), String> {
    let Json::Obj(pairs) = j else {
        return Ok(());
    };
    match pairs.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        Some((key, _)) => Err(format!(
            "`{path}.{key}`: unknown key (expected one of {})",
            known.join(", ")
        )),
        None => Ok(()),
    }
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

/// [`opt_u64`] restricted to `range`; `what` states the range.
fn opt_u64_in(
    j: &Json,
    key: &str,
    path: &str,
    default: u64,
    range: std::ops::RangeInclusive<u64>,
    what: &str,
) -> Result<u64, String> {
    let v = opt_u64(j, key, path, default)?;
    if range.contains(&v) {
        Ok(v)
    } else {
        Err(format!("`{path}.{key}`: {what}, got {v}"))
    }
}

/// [`opt_f64`] restricted to `range`; `what` states the range.
fn opt_f64_in(
    j: &Json,
    key: &str,
    path: &str,
    default: f64,
    range: std::ops::RangeInclusive<f64>,
    what: &str,
) -> Result<f64, String> {
    let v = opt_f64(j, key, path, default)?;
    if range.contains(&v) {
        Ok(v)
    } else {
        Err(format!("`{path}.{key}`: {what}, got {v}"))
    }
}

/// A diameter hint: the kernels take a `u32`, and Algorithm 3's `λ`
/// needs at least 1.
fn opt_d_hint(j: &Json, path: &str, default: u64) -> Result<u32, String> {
    let what = format!("a diameter hint must lie in [1, {}]", u32::MAX);
    Ok(opt_u64_in(j, "d_hint", path, default, 1..=u64::from(u32::MAX), &what)? as u32)
}

/// The family's own parameter domain, which graph generation asserts:
/// an edge probability of at most 1 for the G(n,p) families, a torus
/// radius in (0, 0.5] for the geometric family, and an `n` that the
/// caterpillar's `legs + 1` divides.
fn check_family_range(family: &GraphFamily, n: usize, p: f64, path: &str) -> Result<(), String> {
    match family {
        GraphFamily::GnpDirected | GraphFamily::GnpUndirected if p > 1.0 => Err(format!(
            "`{path}.p`: an edge probability must be at most 1, got {p}"
        )),
        GraphFamily::Geometric if !(p > 0.0 && p <= 0.5) => Err(format!(
            "`{path}.p`: a connection radius must lie in (0, 0.5], got {p}"
        )),
        GraphFamily::Caterpillar { legs }
            if legs.checked_add(1).is_none_or(|k| !n.is_multiple_of(k)) =>
        {
            Err(format!(
                "`{path}.n`: caterpillar(legs={legs}) needs n divisible by legs + 1, got {n}"
            ))
        }
        _ => Ok(()),
    }
}

/// What a cell's kernel asserts about the cell: the algorithm name and
/// the `:f=` / `:r=` number its label carries, and — for kernels that
/// derive G(n,p) parameters from the cell (`GnpParams`) — `n ≥ 2` and
/// an expected degree `n·p > 1`, with `p = π·r²` on the geometric
/// family. `energy_crossover`'s `alg1` measures its `p` from the
/// generated graph on every family but `gnp_directed`, so only that
/// case is checked here.
fn check_kernel_inputs(cell: &CellSpec, proto: &ProtocolSpec, path: &str) -> Result<(), String> {
    const VARIANTS: [&str; 4] = ["alg1", "alg1_battery", "alg1_both", "alg3"];
    const BROADCASTS: [&str; 3] = ["alg1", "flood", "decay"];
    let at = |e: String| format!("`{path}.label`: {e}");
    let label = cell.label.as_str();
    let derives_gnp = match proto {
        ProtocolSpec::MobileGossip { .. } => {
            let (_, sigma) = split_label(label, ":f=").map_err(at)?;
            if !(sigma.is_finite() && sigma >= 0.0) {
                return Err(at(format!(
                    "mobility σ must be finite and ≥ 0, got {sigma}"
                )));
            }
            true
        }
        ProtocolSpec::FaultyBroadcast { .. } => {
            let (variant, frac) = split_label(label, ":f=").map_err(at)?;
            if !VARIANTS.contains(&variant) {
                return Err(at(format!(
                    "faulty_broadcast: unknown variant `{variant}` (expected one of {})",
                    VARIANTS.join(", ")
                )));
            }
            if !(0.0..=1.0).contains(&frac) {
                return Err(at(format!("a fraction must lie in [0, 1], got {frac}")));
            }
            // Every variant builds Algorithm 1's config for the cell.
            true
        }
        ProtocolSpec::EnergyCrossover { .. } => {
            let (alg, ratio) = split_label(label, ":r=").map_err(at)?;
            if !BROADCASTS.contains(&alg) {
                return Err(at(format!(
                    "energy_crossover: unknown algorithm `{alg}` (expected one of {})",
                    BROADCASTS.join(", ")
                )));
            }
            if !(ratio.is_finite() && ratio >= 0.0) {
                return Err(at(format!("a ratio must be finite and ≥ 0, got {ratio}")));
            }
            alg == "alg1" && cell.family == GraphFamily::GnpDirected
        }
        ProtocolSpec::EnergyLifetime { .. } => {
            if !BROADCASTS.contains(&label) {
                return Err(at(format!(
                    "energy_lifetime: unknown algorithm `{label}` (expected one of {})",
                    BROADCASTS.join(", ")
                )));
            }
            label == "alg1"
        }
    };
    let (n, q) = (cell.n, p_gnp(&cell.family, cell.p));
    if derives_gnp && !(n >= 2 && q > 0.0 && q <= 1.0 && n as f64 * q > 1.0) {
        return Err(format!(
            "`{path}`: {} derives G(n,p) parameters from the cell and needs n ≥ 2 \
             and 0 < p ≤ 1 with n·p > 1 (p = π·r² on the geometric family), \
             got n = {n}, p = {q}",
            proto.kind()
        ));
    }
    Ok(())
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
        check_keys(
            doc,
            &["version", "name", "sweep", "cells", "protocols", "trace"],
            "spec",
        )?;
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
        check_keys(sw, &["base_seed", "trials", "backend"], "spec.sweep")?;
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
            check_keys(c, &["label", "family", "n", "p"], &path)?;
            let label = want_str(c, "label", &path)?.to_string();
            let family = parse_family(want_str(c, "family", &path)?, &format!("{path}.family"))?;
            let n = want_u64(c, "n", &path)?;
            if n == 0 || n > u64::from(NodeId::MAX) {
                return Err(format!(
                    "`{path}.n`: must lie in [1, {}] (node ids are 32-bit), got {n}",
                    NodeId::MAX
                ));
            }
            let n = n as usize;
            let p = want_f64(c, "p", &path)?;
            if !p.is_finite() || p < 0.0 {
                return Err(format!("`{path}.p`: must be finite and non-negative"));
            }
            check_family_range(&family, n, p, &path)?;
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
                check_keys(t, &["dir", "per_cell_cap"], "spec.trace")?;
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
            check_kernel_inputs(cell, proto, &path)?;
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
    let spec = match kind {
        "mobile_gossip" => Ok(ProtocolSpec::MobileGossip {
            switch_every: opt_u64_in(j, "switch_every", path, 40, 1..=u64::MAX, "must be ≥ 1")?,
            gamma: opt_f64(j, "gamma", path, 10.0)?,
            tracked: match j.get("tracked") {
                None => Some(64),
                Some(Json::Null) => None,
                Some(_) => Some(want_u64(j, "tracked", path)? as usize),
            },
        }),
        "faulty_broadcast" => Ok(ProtocolSpec::FaultyBroadcast {
            // Round 1 at the earliest: the battery path charges
            // `crash_round − 1` rounds.
            crash_round: opt_u64_in(j, "crash_round", path, 3, 1..=u64::MAX, "must be ≥ 1")?,
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
            d_hint: opt_d_hint(j, path, 6)?,
        }),
        "energy_crossover" => Ok(ProtocolSpec::EnergyCrossover {
            flood_q: opt_f64_in(j, "flood_q", path, 0.1, 0.0..=1.0, "must lie in [0, 1]")?,
            d_hint: opt_d_hint(j, path, 8)?,
        }),
        "energy_lifetime" => Ok(ProtocolSpec::EnergyLifetime {
            horizon: opt_u64_in(
                j,
                "horizon",
                path,
                400,
                0..=MAX_ROUND_CAP,
                &format!("must be at most {MAX_ROUND_CAP} (the engine's round cap)"),
            )?,
            capacity: opt_f64_in(
                j,
                "capacity",
                path,
                100.0,
                0.0..=f64::INFINITY,
                "must be ≥ 0",
            )?,
            jitter: opt_f64_in(j, "jitter", path, 0.2, 0.0..=1.0, "must lie in [0, 1]")?,
            flood_q: opt_f64_in(j, "flood_q", path, 0.1, 0.0..=1.0, "must lie in [0, 1]")?,
            d_hint: opt_d_hint(j, path, 8)?,
        }),
        other => Err(format!("`{path}.kind`: unknown kernel `{other}`")),
    }?;
    check_keys(j, spec.keys(), path)?;
    Ok(spec)
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

    /// A one-cell spec: `label` on `family` at `(n, p)`, its protocol
    /// entry keyed by the label's `:`-prefix with `kind` and the extra
    /// `params` (a JSON object body, possibly empty).
    fn one_cell(kind: &str, params: &str, label: &str, family: &str, n: u64, p: f64) -> String {
        let key = label.split(':').next().unwrap();
        let sep = if params.is_empty() { "" } else { ", " };
        format!(
            r#"{{"version": 1, "name": "one", "sweep": {{"base_seed": 1, "trials": 1}},
                "cells": [{{"label": "{label}", "family": "{family}", "n": {n}, "p": {p}}}],
                "protocols": {{"{key}": {{"kind": "{kind}"{sep}{params}}}}}}}"#
        )
    }

    /// Each spec must fail validation with an error naming `path` and
    /// containing `what`.
    fn assert_rejected(cases: &[(String, &str, &str)]) {
        for (spec, path, what) in cases {
            let err = Scenario::parse(spec).expect_err(spec);
            assert!(
                err.contains(&format!("`{path}`")) && err.contains(what),
                "want `{path}` … {what}, got: {err}"
            );
        }
    }

    #[test]
    fn specs_that_panicked_mid_campaign_are_rejected() {
        // Each of these used to validate and then panic in `campaign
        // run`, after the manifest was written.
        let r = 0.1365685538240099;
        assert_rejected(&[
            (
                one_cell("mobile_gossip", "", "gossip", "geometric", 512, r),
                "spec.cells[0].label",
                "missing `:f=<value>`",
            ),
            (
                one_cell("mobile_gossip", "", "gossip:f=-0.5", "geometric", 512, r),
                "spec.cells[0].label",
                "σ must be finite and ≥ 0",
            ),
            (
                one_cell(
                    "faulty_broadcast",
                    "",
                    "alg1:f=1.5",
                    "gnp_directed",
                    2048,
                    0.02,
                ),
                "spec.cells[0].label",
                "fraction must lie in [0, 1]",
            ),
            (
                one_cell("mobile_gossip", "", "gossip:f=0.05", "geometric", 512, 0.7),
                "spec.cells[0].p",
                "radius must lie in (0, 0.5]",
            ),
            (
                one_cell(
                    "energy_crossover",
                    "",
                    "alg2:r=0.1",
                    "gnp_directed",
                    512,
                    0.1,
                ),
                "spec.cells[0].label",
                "unknown algorithm `alg2`",
            ),
        ]);
        // The same specs with sound values still validate.
        for ok in [
            one_cell("mobile_gossip", "", "gossip:f=0.05", "geometric", 512, r),
            one_cell(
                "faulty_broadcast",
                "",
                "alg1:f=1",
                "gnp_directed",
                2048,
                0.02,
            ),
            one_cell(
                "energy_crossover",
                "",
                "decay:r=0.1",
                "gnp_directed",
                512,
                0.1,
            ),
        ] {
            Scenario::parse(&ok).expect(&ok);
        }
    }

    #[test]
    fn label_parameters_and_family_ranges_are_validated() {
        assert_rejected(&[
            (
                one_cell(
                    "faulty_broadcast",
                    "",
                    "alg1:f=NaN",
                    "gnp_directed",
                    64,
                    0.2,
                ),
                "spec.cells[0].label",
                "fraction",
            ),
            (
                one_cell(
                    "faulty_broadcast",
                    "",
                    "alg9:f=0.3",
                    "gnp_directed",
                    64,
                    0.2,
                ),
                "spec.cells[0].label",
                "unknown variant `alg9`",
            ),
            (
                one_cell("faulty_broadcast", "", "alg1:f=x", "gnp_directed", 64, 0.2),
                "spec.cells[0].label",
                "bad value `x`",
            ),
            (
                one_cell("mobile_gossip", "", "gossip:f=inf", "geometric", 512, 0.1),
                "spec.cells[0].label",
                "σ",
            ),
            (
                one_cell(
                    "energy_crossover",
                    "",
                    "flood:r=-1",
                    "gnp_directed",
                    64,
                    0.2,
                ),
                "spec.cells[0].label",
                "ratio must be finite and ≥ 0",
            ),
            (
                one_cell("energy_lifetime", "", "alg3", "gnp_directed", 64, 0.2),
                "spec.cells[0].label",
                "unknown algorithm `alg3`",
            ),
            (
                one_cell(
                    "faulty_broadcast",
                    "",
                    "alg1:f=0.3",
                    "gnp_directed",
                    64,
                    1.5,
                ),
                "spec.cells[0].p",
                "edge probability must be at most 1",
            ),
            (
                one_cell(
                    "faulty_broadcast",
                    "",
                    "alg1:f=0.3",
                    "gnp_directed",
                    1 << 32,
                    0.2,
                ),
                "spec.cells[0].n",
                "node ids are 32-bit",
            ),
            (
                one_cell(
                    "faulty_broadcast",
                    "",
                    "alg1:f=0.3",
                    "caterpillar(legs=3)",
                    10,
                    0.2,
                ),
                "spec.cells[0].n",
                "divisible",
            ),
            (
                // d = n·p = 0.64: Algorithm 1's parameters need d > 1.
                one_cell(
                    "faulty_broadcast",
                    "",
                    "alg3:f=0.3",
                    "gnp_directed",
                    64,
                    0.01,
                ),
                "spec.cells[0]",
                "n·p > 1",
            ),
            (
                one_cell("energy_lifetime", "", "alg1", "path", 1, 0.5),
                "spec.cells[0]",
                "n ≥ 2",
            ),
        ]);
    }

    #[test]
    fn fixed_protocol_parameters_are_validated() {
        let cell = |kind, params| one_cell(kind, params, "alg1:f=0.3", "gnp_directed", 64, 0.2);
        let life = |params| one_cell("energy_lifetime", params, "alg1", "gnp_directed", 64, 0.2);
        assert_rejected(&[
            (
                one_cell(
                    "mobile_gossip",
                    r#""switch_every": 0"#,
                    "gossip:f=0",
                    "geometric",
                    512,
                    0.1,
                ),
                "spec.protocols.gossip.switch_every",
                "≥ 1",
            ),
            (
                cell("faulty_broadcast", r#""crash_round": 0"#),
                "spec.protocols.alg1.crash_round",
                "≥ 1",
            ),
            (
                cell("faulty_broadcast", r#""d_hint": 0"#),
                "spec.protocols.alg1.d_hint",
                "diameter hint",
            ),
            (
                cell("faulty_broadcast", r#""d_hint": 4294967296"#),
                "spec.protocols.alg1.d_hint",
                "diameter hint",
            ),
            (
                life(r#""flood_q": 1.5"#),
                "spec.protocols.alg1.flood_q",
                "[0, 1]",
            ),
            (
                life(r#""jitter": 2"#),
                "spec.protocols.alg1.jitter",
                "[0, 1]",
            ),
            (
                life(r#""capacity": -1"#),
                "spec.protocols.alg1.capacity",
                "≥ 0",
            ),
            (
                life(r#""horizon": 2147483647"#),
                "spec.protocols.alg1.horizon",
                "round cap",
            ),
        ]);
        Scenario::parse(&life(r#""horizon": 2147483646"#)).expect("largest legal cap");
    }

    #[test]
    fn unknown_keys_are_rejected_with_their_path() {
        let trace = r#", "trace": {"dir": "t", "per_cell_cap": 1}"#;
        let traced = minimal().replace(
            r#""protocols": {"alg1": {"kind": "faulty_broadcast"}}"#,
            &format!(r#""protocols": {{"alg1": {{"kind": "faulty_broadcast"}}}}{trace}"#),
        );
        Scenario::parse(&traced).expect("the traced spec validates");
        let unknown = "unknown key";
        assert_rejected(&[
            (
                minimal().replace("\"trials\": 2", "\"trials\": 2, \"backnd\": \"csr\""),
                "spec.sweep.backnd",
                unknown,
            ),
            (
                // Run-level threads are chosen by the kernels, not the IR.
                minimal().replace("\"trials\": 2", "\"trials\": 2, \"threads_per_run\": 2"),
                "spec.sweep.threads_per_run",
                unknown,
            ),
            (
                minimal().replace(
                    r#""kind": "faulty_broadcast""#,
                    r#""kind": "faulty_broadcast", "crash_rond": 10"#,
                ),
                "spec.protocols.alg1.crash_rond",
                unknown,
            ),
            (
                // A key of another kind is unknown to this one.
                minimal().replace(
                    r#""kind": "faulty_broadcast""#,
                    r#""kind": "faulty_broadcast", "horizon": 10"#,
                ),
                "spec.protocols.alg1.horizon",
                unknown,
            ),
            (
                traced.replace(
                    "\"per_cell_cap\": 1",
                    "\"per_cell_cap\": 1, \"per_cel_cap\": 2",
                ),
                "spec.trace.per_cel_cap",
                unknown,
            ),
            (
                minimal().replace("\"p\": 0.2", "\"p\": 0.2, \"legs\": 3"),
                "spec.cells[0].legs",
                unknown,
            ),
            (
                minimal().replace("\"version\": 1", "\"version\": 1, \"trcae\": {}"),
                "spec.trcae",
                unknown,
            ),
        ]);
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
