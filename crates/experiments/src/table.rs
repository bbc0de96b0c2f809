//! Tabular experiment outputs (the paper's Tables 1 and 2).

use std::fmt::Write as _;

/// A rendered table: headers plus string rows.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TableData {
    /// Table title, e.g. "Table 2: Means and Relative Variance".
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells; each row has `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl TableData {
    /// Creates an empty table with headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        TableData {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the headers.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:<width$}", width = widths[i]))
            .collect();
        let _ = writeln!(out, "  {}", header_line.join("  "));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "  {}", "-".repeat(total));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:<width$}", width = widths[i]))
                .collect();
            let _ = writeln!(out, "  {}", line.join("  "));
        }
        out
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> TableData {
        let mut t = TableData::new("T", &["a", "bb"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["333".into(), "4".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let text = table().render();
        assert!(text.contains("a    bb"));
        assert!(text.contains("333  4"));
    }

    #[test]
    fn csv_output() {
        let csv = table().to_csv();
        assert_eq!(csv, "a,bb\n1,2\n333,4\n");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = TableData::new("T", &["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }
}
