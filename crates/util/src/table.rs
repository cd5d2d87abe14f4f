//! Plain-text aligned tables.
//!
//! The experiment harness prints paper-style tables (one per
//! theorem/figure); this module renders them with column alignment and a
//! GitHub-markdown-compatible delimiter row, so the `results/<id>.md`
//! reports render as markdown tables.

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    Left,
    Right,
}

/// An aligned plain-text table builder.
///
/// ```
/// use radio_util::table::TextTable;
/// let mut t = TextTable::new(&["n", "rounds", "msgs/node"]);
/// t.row(&["1024", "31", "1.0"]);
/// t.row(&["4096", "37", "1.0"]);
/// let s = t.render();
/// assert!(s.contains("| n    | rounds | msgs/node |"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    aligns: Vec<Align>,
}

impl TextTable {
    /// Start a table with the given column headers. All columns default to
    /// right alignment except the first (labels read better left-aligned).
    pub fn new(headers: &[&str]) -> Self {
        let mut aligns = vec![Align::Right; headers.len()];
        if !aligns.is_empty() {
            aligns[0] = Align::Left;
        }
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            aligns,
        }
    }

    /// Append one row of pre-formatted cells.
    ///
    /// # Panics
    /// Panics if the cell count does not match the header count.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows
            .push(cells.iter().map(|c| c.as_ref().to_string()).collect());
        self
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as a markdown-compatible aligned table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], aligns: &[Align]| -> String {
            let mut line = String::from("|");
            for i in 0..ncols {
                let cell = &cells[i];
                let pad = widths[i] - cell.chars().count();
                match aligns[i] {
                    Align::Left => {
                        line.push(' ');
                        line.push_str(cell);
                        line.push_str(&" ".repeat(pad + 1));
                    }
                    Align::Right => {
                        line.push_str(&" ".repeat(pad + 1));
                        line.push_str(cell);
                        line.push(' ');
                    }
                }
                line.push('|');
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths, &self.aligns));
        out.push('\n');
        out.push('|');
        for (i, w) in widths.iter().enumerate() {
            match self.aligns[i] {
                Align::Left => out.push_str(&format!(":{}|", "-".repeat(w + 1))),
                Align::Right => out.push_str(&format!("{}:|", "-".repeat(w + 1))),
            }
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths, &self.aligns));
            out.push('\n');
        }
        out
    }
}

/// Format a float with a sensible number of significant digits for tables.
pub fn fmt_f64(x: f64) -> String {
    if !x.is_finite() {
        return format!("{x}");
    }
    let a = x.abs();
    if a == 0.0 {
        "0".to_string()
    } else if a >= 1000.0 {
        format!("{x:.0}")
    } else if a >= 10.0 {
        format!("{x:.1}")
    } else if a >= 0.1 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = TextTable::new(&["name", "v"]);
        t.row(&["a", "1"]);
        t.row(&["long-name", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width.
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w), "{s}");
        assert!(lines[1].starts_with("|:"));
        assert!(lines[1].ends_with(":|"));
    }

    #[test]
    #[should_panic]
    fn row_width_mismatch_panics() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn fmt_f64_ranges() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(12345.6), "12346");
        assert_eq!(fmt_f64(42.42), "42.4");
        assert_eq!(fmt_f64(1.234), "1.23");
        assert_eq!(fmt_f64(0.01234), "0.0123");
        assert_eq!(fmt_f64(f64::INFINITY), "inf");
    }

    #[test]
    fn unicode_widths_counted_by_chars() {
        let mut t = TextTable::new(&["α", "β"]);
        t.row(&["λ=3", "2⁻ᵏ"]);
        let s = t.render();
        assert!(s.contains("λ=3"));
    }
}
