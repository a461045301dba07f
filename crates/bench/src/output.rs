//! Experiment output: aligned tables on stdout + JSON under
//! `target/experiments/`, plus the `--json-out` full-trajectory dump.

use fedbiad_fl::ExperimentLog;
use serde::Serialize;
use std::fs;
use std::path::{Path, PathBuf};

/// Directory for machine-readable results.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Persist a set of logs as JSON (one file per artifact).
pub fn save_logs(artifact: &str, logs: &[ExperimentLog]) -> PathBuf {
    let path = experiments_dir().join(format!("{artifact}.json"));
    let body = serde_json::to_string_pretty(logs).expect("serialise logs");
    fs::write(&path, body).expect("write experiment json");
    path
}

/// What `--json-out` writes: the full per-round trajectories plus the
/// exact invocation that produced them, so any BENCH_*.json capture is
/// self-describing.
#[derive(Clone, Debug, Serialize)]
pub struct BenchDump {
    /// The artifact name (the binary's, or the specs' joined by `+`).
    pub artifact: String,
    /// The binary's full argv (the run configuration).
    pub argv: Vec<String>,
    /// The complete experiment logs (config ids + round records).
    pub logs: Vec<ExperimentLog>,
}

/// Save to the default artifact location and, when `--json-out` was
/// given, additionally write the full [`BenchDump`] there.
pub fn save_logs_and_export(
    artifact: &str,
    logs: &[ExperimentLog],
    json_out: Option<&Path>,
) -> PathBuf {
    let default_path = save_logs(artifact, logs);
    if let Some(path) = json_out {
        export_dump(artifact, logs, path);
    }
    default_path
}

/// Write the full [`BenchDump`] for `logs` to `path`.
pub fn export_dump(artifact: &str, logs: &[ExperimentLog], path: &Path) {
    let dump = BenchDump {
        artifact: artifact.to_string(),
        argv: std::env::args().collect(),
        logs: logs.to_vec(),
    };
    let body = serde_json::to_string_pretty(&dump).expect("serialise bench dump");
    fs::write(path, body).expect("write --json-out file");
    println!("full ExperimentLog JSON written to {}", path.display());
}

/// One published table row: (method display name, acc %, upload size
/// label, save ratio).
pub type PaperRow = (&'static str, f64, &'static str, f64);

/// The row `rows` publishes for `method`, if any (none for a composed
/// `FedDrop+STC`, say): a measured row never stands beside another
/// method's published numbers.
pub fn paper_row<'a>(rows: &'a [PaperRow], method: &str) -> Option<&'a PaperRow> {
    rows.iter().find(|row| row.0 == method)
}

/// The three "paper" cells of `row` — accuracy, upload size, save ratio
/// as `save` formats it — or `—` in each when there is no row.
pub fn paper_cells(row: Option<&PaperRow>, save: fn(f64) -> String) -> [String; 3] {
    match row {
        Some(&(_, acc, upload, ratio)) => [format!("{acc:.2}"), upload.into(), save(ratio)],
        None => ["—".into(), "—".into(), "—".into()],
    }
}

/// Simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut s = String::new();
            for i in 0..ncol {
                if i > 0 {
                    s.push_str("  ");
                }
                s.push_str(&format!("{:<w$}", cells[i], w = widths[i]));
            }
            s
        };
        let mut out = fmt_row(&self.headers);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncol - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["method", "acc"]);
        t.row(vec!["FedBIAD".into(), "95.20".into()]);
        t.row(vec!["FedAvg".into(), "95.06".into()]);
        let s = t.render();
        assert!(s.contains("FedBIAD  95.20"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn paper_cells_belong_to_the_method_or_are_blank() {
        let rows: &[PaperRow] = &[
            ("FedAvg", 95.06, "531KB", 1.0),
            ("AFD", 94.49, "424KB", 1.25),
        ];
        let cells = |method| paper_cells(paper_row(rows, method), |r| format!("{r}x"));
        // Looked up by name, not by position in the caller's selection.
        assert_eq!(cells("AFD"), ["94.49", "424KB", "1.25x"]);
        assert_eq!(cells("FedAvg"), ["95.06", "531KB", "1x"]);
        // A valid method the table never published: no row, not row 0.
        assert_eq!(cells("DGC"), ["—", "—", "—"]);
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }
}
