//! Minimal aligned-text table and CSV output helpers for the report
//! binaries (no external dependencies).

/// A simple column-aligned table accumulated row by row.
#[derive(Debug, Default, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub(crate) fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must have as many cells as the header).
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows (the figure tests' row counts).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Format a float with three significant decimals.
pub(crate) fn fmt_f(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a percentage.
pub(crate) fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(&["app", "nodes", "time"]);
        t.row(vec!["ASP".into(), "8".into(), "12.5".into()]);
        t.row(vec!["SOR".into(), "16".into(), "3.25".into()]);
        let text = t.render();
        assert!(text.contains("app"));
        assert!(text.lines().count() >= 4);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn row_arity_is_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_f(1.23456), "1.235");
        assert_eq!(fmt_pct(0.1234), "12.3%");
    }
}
