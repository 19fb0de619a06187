//! Plain-text table rendering.
//!
//! The paper presents its results as matplotlib figures; this reproduction
//! prints the same series as aligned plain-text tables, which carries the
//! same information without a plotting dependency. Nothing here is JSON:
//! the vendored serde only renders `Debug`, so `harp --json` writes a
//! structured text dump (strict JSON is ROADMAP item 5).

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row has a different number of cells than the header.
    pub fn push_row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, row: I) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row has {} cells, expected {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_owned()
        };
        out.push_str(&render_row(&self.header, &widths));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a probability as a percentage (e.g. `0.5` → `"50%"`).
pub fn percent(p: f64) -> String {
    format!("{:.0}%", p * 100.0)
}

/// Formats a float with a fixed number of significant decimals for tables.
pub fn fixed(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Formats a rate in scientific notation (e.g. BERs).
pub fn scientific(value: f64) -> String {
    if value == 0.0 {
        "0".to_owned()
    } else {
        format!("{value:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut table = TextTable::new(["name", "value"]);
        table.push_row(["alpha", "1"]);
        table.push_row(["b", "12345"]);
        let rendered = table.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("----"));
        assert!(lines[2].contains("alpha"));
        assert!(lines[3].contains("12345"));
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
    }

    #[test]
    #[should_panic(expected = "expected 2")]
    fn mismatched_row_length_panics() {
        let mut table = TextTable::new(["a", "b"]);
        table.push_row(["only one"]);
    }

    #[test]
    fn empty_table_renders_header_only() {
        let table = TextTable::new(["x"]);
        assert!(table.is_empty());
        assert_eq!(table.render().lines().count(), 2);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(percent(0.25), "25%");
        assert_eq!(percent(1.0), "100%");
        assert_eq!(fixed(0.123456, 3), "0.123");
        assert_eq!(scientific(0.0), "0");
        assert_eq!(scientific(1.0e-4), "1.00e-4");
    }
}
