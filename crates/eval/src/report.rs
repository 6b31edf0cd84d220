//! Fixed-width table emission for the experiment binaries.

use std::fmt::Write as _;

/// A simple fixed-width text table builder that renders like the paper's
/// tables (header row + aligned numeric columns).
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Renders the table with aligned columns and a separator rule.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate().take(cols) {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate().take(cols) {
                if c > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<width$}", width = widths[c]);
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        emit(&mut out, &self.header);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }
}

/// Formats a ratio with 4 decimals (table-II style, e.g. `0.4947`).
pub fn fmt_ratio(v: f64) -> String {
    format!("{v:.4}")
}

/// Formats a distance in metres with no decimals (`152/42` style uses two
/// of these).
pub fn fmt_metres(v: f64) -> String {
    format!("{}", v.round() as i64)
}

/// Formats a duration in seconds with adaptive precision.
pub fn fmt_seconds(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.1}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}ms", s * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(vec!["Method", "HR@10"]);
        t.row(vec!["NeuTraj", "0.4947"]);
        t.row(vec!["AP", "0.2374"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Method"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns aligned: HR values start at the same offset.
        let off2 = lines[2].find("0.4947").unwrap();
        let off3 = lines[3].find("0.2374").unwrap();
        assert_eq!(off2, off3);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_ratio(0.49470001), "0.4947");
        assert_eq!(fmt_metres(84.4), "84");
        assert_eq!(fmt_seconds(0.0021), "2.1ms");
        assert_eq!(fmt_seconds(5.25), "5.25s");
        assert_eq!(fmt_seconds(1639.834), "1639.8s");
    }
}
