//! Tabular experiment output.

/// One experiment's output: a titled table of rows, printable as an
/// aligned text table or CSV.
#[derive(Debug, Clone)]
pub struct Series {
    /// Title (e.g. `"Figure 8: SLS latency breakdown"`).
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Row values, one `Vec<String>` per row.
    pub rows: Vec<Vec<String>>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Series {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the width differs from the header.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders as CSV.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let mut s = Series::new("T", &["a", "long_col"]);
        s.push(vec!["1".into(), "2".into()]);
        s.push(vec!["100".into(), "2000".into()]);
        let t = s.to_table();
        assert!(t.contains("== T =="));
        assert!(t.contains("long_col"));
        let csv = s.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("a,long_col"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_panics() {
        Series::new("T", &["a"]).push(vec!["1".into(), "2".into()]);
    }
}
