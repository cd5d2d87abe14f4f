//! Shared experiment plumbing.

use std::fs;
use std::path::PathBuf;

/// Execution context for experiments.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Master seed; every experiment derives all randomness from it.
    pub seed: u64,
    /// Trial multiplier (1.0 = paper defaults; `--quick` uses 0.25).
    pub scale: f64,
    /// Output directory for markdown reports.
    pub out_dir: PathBuf,
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx {
            seed: 0xAD0C_2007,
            scale: 1.0,
            out_dir: PathBuf::from("results"),
        }
    }
}

impl Ctx {
    /// Trials after scaling, at least `min`.
    pub fn trials(&self, base: usize, min: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(min)
    }
}

/// A rendered experiment report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (`e1` … `e15`).
    pub id: &'static str,
    /// Human title, e.g. `"E1 — Theorem 2.1"`.
    pub title: String,
    /// Markdown body (tables + notes).
    pub body: String,
}

impl Report {
    /// Assemble a report from sections.
    pub fn new(id: &'static str, title: impl Into<String>) -> Self {
        Report {
            id,
            title: title.into(),
            body: String::new(),
        }
    }

    /// Append a paragraph.
    pub fn para(&mut self, text: impl AsRef<str>) -> &mut Self {
        self.body.push_str(text.as_ref());
        self.body.push_str("\n\n");
        self
    }

    /// Append a rendered table.
    pub fn table(&mut self, t: &radio_util::TextTable) -> &mut Self {
        self.body.push_str(&t.render());
        self.body.push('\n');
        self
    }

    /// Full markdown (title + body).
    pub fn markdown(&self) -> String {
        format!("## {}\n\n{}", self.title, self.body)
    }

    /// Print to stdout and persist under `ctx.out_dir`.
    pub fn emit(&self, ctx: &Ctx) {
        let md = self.markdown();
        println!("{md}");
        if let Err(e) = fs::create_dir_all(&ctx.out_dir) {
            eprintln!("warning: cannot create {}: {e}", ctx.out_dir.display());
            return;
        }
        let path = ctx.out_dir.join(format!("{}.md", self.id));
        if let Err(e) = fs::write(&path, md) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
}

/// Format a mean ± half-CI pair compactly.
pub fn pm(stats: &radio_stats::SummaryStats) -> String {
    format!("{:.1} ± {:.1}", stats.mean, stats.ci95_half_width())
}

/// Mean-informed fraction of a sweep cell.
pub fn informed_frac(cell: &radio_sim::CellSummary) -> f64 {
    cell.mean_informed / cell.cell.n as f64
}

/// Look up an extra's stats by key on a sweep cell.
pub fn cell_extra<'a>(
    cell: &'a radio_sim::CellSummary,
    key: &str,
) -> Option<&'a radio_stats::SummaryStats> {
    cell.extras.iter().find(|(k, _)| k == key).map(|(_, s)| s)
}

/// Note appended to reports that wrote a sweep JSON. It names the file,
/// not its path, so a report's bytes do not depend on the output
/// directory.
pub fn sweep_note(path: &std::path::Path) -> String {
    let name = path.file_name().unwrap_or(path.as_os_str());
    format!(
        "Machine-readable sweep report: `{}` (see the sweep API in `radio-sim`).",
        name.to_string_lossy()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_title_and_body() {
        let mut r = Report::new("e0", "E0 — smoke");
        r.para("hello");
        let md = r.markdown();
        assert!(md.starts_with("## E0 — smoke"));
        assert!(md.contains("hello"));
    }

    #[test]
    fn ctx_trials_scale_and_floor() {
        let ctx = Ctx {
            scale: 0.25,
            ..Ctx::default()
        };
        assert_eq!(ctx.trials(40, 5), 10);
        assert_eq!(ctx.trials(8, 5), 5);
    }
}
