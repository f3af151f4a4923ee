//! Plain-text and CSV rendering of benchmark results.

use std::fmt::Write as _;

/// A rectangular report table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Run-context note rendered under the title (e.g. `workers=8`).
    pub context: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (strings, pre-formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a titled table with the given headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            context: String::new(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn push_row(&mut self, cells: Vec<String>) {
        let mut cells = cells;
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Renders the table as aligned monospace text.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        if !self.context.is_empty() {
            let _ = writeln!(out, "({})", self.context);
        }
        let line = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate().take(ncols) {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = widths[i].saturating_sub(cell.chars().count());
                out.push_str(cell);
                out.extend(std::iter::repeat_n(' ', pad));
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(&mut out, &rule);
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Renders the table as RFC-4180-style CSV (quotes doubled, cells with
    /// commas/quotes/newlines quoted).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        out.push_str(&self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a milliseconds value with sensible precision.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 1.0 {
        format!("{ms:.2}")
    } else {
        format!("{ms:.4}")
    }
}

/// Formats a throughput value.
pub fn fmt_qps(qps: f64) -> String {
    if qps >= 100.0 {
        format!("{qps:.0}")
    } else {
        format!("{qps:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_text() {
        let mut t = Table::new("Demo", &["query", "ms"]);
        t.push_row(vec!["T01 long name".into(), "1.23".into()]);
        t.push_row(vec!["T2".into(), "100".into()]);
        let s = t.render();
        assert!(s.contains("## Demo"));
        let lines: Vec<&str> = s.lines().collect();
        // Header, rule, two rows.
        assert_eq!(lines.len(), 5);
        assert!(lines[1].starts_with("query"));
        assert!(lines[2].starts_with("---"));
    }

    #[test]
    fn context_line_under_title() {
        let mut t = Table::new("Demo", &["a"]);
        t.context = "workers=8".into();
        let s = t.render();
        assert!(s.contains("## Demo\n(workers=8)\n"));
        // CSV stays pure data.
        assert!(!t.to_csv().contains("workers"));
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["plain".into(), "with,comma".into()]);
        t.push_row(vec!["quote\"inside".into(), "ok".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"quote\"\"inside\""));
        assert!(csv.starts_with("a,b\n"));
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new("x", &["a", "b", "c"]);
        t.push_row(vec!["1".into()]);
        assert_eq!(t.rows[0].len(), 3);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ms(123.4), "123");
        assert_eq!(fmt_ms(12.345), "12.35");
        assert_eq!(fmt_ms(0.01234), "0.0123");
        assert_eq!(fmt_qps(1234.0), "1234");
        assert_eq!(fmt_qps(12.34), "12.3");
    }
}
