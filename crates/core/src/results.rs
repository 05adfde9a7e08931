//! Table rendering shared by the bench binaries.
//!
//! Every figure/table generator prints (a) a human-readable fixed-width
//! table and (b) machine-readable CSV, so results can be diffed against
//! EXPERIMENTS.md or re-plotted.

use gnn_dm_trace::units::Bytes;

/// A simple column-aligned table accumulating string rows.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width must match header");
        self.rows.push(cells.to_vec());
    }

    /// Convenience for building a row from displayable items.
    pub fn push<I: IntoIterator<Item = String>>(&mut self, cells: I) {
        let cells: Vec<String> = cells.into_iter().collect();
        self.row(&cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Fixed-width rendering.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// CSV rendering (no quoting — cells must not contain commas).
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Prints both renderings with a title banner.
    #[expect(clippy::print_stdout, reason = "the experiment drivers' one way to emit a table; never called from a parallel closure")]
    pub fn print(&self, title: &str) {
        println!("== {title} ==");
        println!("{}", self.render());
        println!("--- csv ---");
        println!("{}", self.to_csv());
    }
}

/// Formats a float with 3 significant decimals.
pub fn f(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats bytes in MiB.
pub fn mib(bytes: Bytes) -> String {
    format!("{:.1}", bytes.0 as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "12345".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("longer"));
        // All rows same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn csv_round_trip() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f(1.23456), "1.235");
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(mib(Bytes(1024 * 1024)), "1.0");
    }
}
