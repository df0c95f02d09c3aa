//! Shared infrastructure for the experiment harness binaries.
//!
//! Every table and figure of the paper has a dedicated binary in `src/bin/`,
//! and `timing_gates` holds the one stopwatch gate. They all produce the
//! same kind of output:
//! a human-readable table on stdout, plus a machine-readable JSON copy and a
//! plain-text copy under `results/`. This module holds that plumbing so each
//! experiment file only contains experiment logic.

#![forbid(unsafe_code)]

use serde::Serialize;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A simple column-aligned text table.
#[derive(Debug, Clone, Serialize)]
pub struct ReportTable {
    /// Table title (figure/table number plus a description).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells, each row as long as `headers`.
    pub rows: Vec<Vec<String>>,
}

impl ReportTable {
    /// Creates an empty table with the given title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header count"
        );
        self.rows.push(cells);
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(s, "{:<width$}  ", cell, width = widths[i]);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }
}

/// Where experiment outputs are written (`results/` at the workspace root,
/// created on demand).
fn results_dir() -> PathBuf {
    let dir = workspace_root().join("results");
    fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Best-effort workspace root: walk up from the current directory until a
/// `Cargo.toml` containing `[workspace]` is found; fall back to the current
/// directory.
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            if let Ok(contents) = fs::read_to_string(&manifest) {
                if contents.contains("[workspace]") {
                    return dir;
                }
            }
        }
        if !dir.pop() {
            return std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        }
    }
}

/// Prints a table to stdout and persists both a `.txt` and a `.json` copy
/// under `results/<name>.*`.
pub fn emit(name: &str, tables: &[ReportTable]) {
    let mut text = String::new();
    for t in tables {
        text.push_str(&t.render());
        text.push('\n');
    }
    println!("{text}");
    let dir = results_dir();
    let _ = fs::write(dir.join(format!("{name}.txt")), &text);
    if let Ok(json) = serde_json::to_string_pretty(tables) {
        let _ = fs::write(dir.join(format!("{name}.json")), json);
    }
    eprintln!("[results written to {}/{name}.{{txt,json}}]", dir.display());
}

/// Formats a duration in seconds with millisecond resolution.
pub fn fmt_secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats a float with three significant-ish decimals.
pub fn fmt3(v: f64) -> String {
    if v.abs() >= 1000.0 || (v != 0.0 && v.abs() < 0.001) {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

/// Writes a PPM canvas into `results/plots/<name>.ppm`, returning the path.
pub fn save_plot(canvas: &vas_viz::Canvas, name: &str) -> PathBuf {
    let dir = results_dir().join("plots");
    fs::create_dir_all(&dir).expect("create plots directory");
    let path = dir.join(format!("{name}.ppm"));
    canvas.write_ppm(&path).expect("write plot");
    path
}

/// Ensures experiment binaries agree on one scaled "Geolife" dataset, so
/// results are comparable across figures. `n` lets heavy experiments request
/// a smaller slice.
pub fn geolife(n: usize) -> vas_data::Dataset {
    vas_data::GeolifeGenerator::with_size(n, 20_160_516).generate()
}

/// The scaled SPLOM projection used by Figure 2/4.
pub fn splom(n: usize) -> vas_data::Dataset {
    vas_data::SplomGenerator::with_size(n, 20_160_517).generate()
}

/// Returns `path` relative to the workspace root when possible (for tidy
/// log lines).
pub fn display_path(path: &Path) -> String {
    path.strip_prefix(workspace_root())
        .unwrap_or(path)
        .display()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = ReportTable::new("Test", &["a", "method", "value"]);
        t.push_row(vec!["1".into(), "uniform".into(), "0.5".into()]);
        t.push_row(vec!["2".into(), "vas".into(), "0.25".into()]);
        let s = t.render();
        assert!(s.contains("# Test"));
        assert!(s.contains("uniform"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = ReportTable::new("Test", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt3(0.12345), "0.123");
        assert_eq!(fmt3(12345.0), "1.234e4");
        assert_eq!(fmt3(0.0), "0.000");
        assert_eq!(fmt_secs(std::time::Duration::from_millis(1500)), "1.500");
    }

    #[test]
    fn workspace_root_contains_workspace_manifest() {
        let root = workspace_root();
        let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
        assert!(manifest.contains("[workspace]"));
    }

    #[test]
    fn shared_datasets_are_deterministic() {
        assert_eq!(geolife(100).points, geolife(100).points);
        assert_eq!(splom(100).points, splom(100).points);
    }
}
