//! The perf gate behind `bench_perf --gate`: the `BENCH_kernels.json`
//! schema (shared by the writer and the reader so they can never skew)
//! and the baseline comparison CI runs on every PR.
//!
//! The gate compares **speedup ratios**, not absolute nanoseconds: a
//! ratio divides out the machine, so a committed baseline from one host
//! remains meaningful on another. An entry regresses when its fresh
//! speedup falls more than `tolerance` below the committed one:
//!
//! ```text
//! fresh.speedup < baseline.speedup * (1 - tolerance)   →  FAIL
//! ```
//!
//! A baseline entry missing from the fresh run is also a failure — a
//! deleted benchmark must be removed from the baseline deliberately (see
//! BENCHMARKS.md for the update procedure), never silently dropped.
//! Entries only present in the fresh run are fine: new benchmarks land
//! before their baseline does.

use serde::{Deserialize, Serialize};

/// Default relative tolerance (15 %): generous enough for shared CI
/// runners, tight enough to catch the ~0.6x-class regressions the gate
/// exists for.
pub const DEFAULT_TOLERANCE: f64 = 0.15;

/// One reference-vs-batched measurement.
#[derive(Serialize, Deserialize, Clone, Debug)]
pub struct BenchEntry {
    /// What was measured.
    pub name: String,
    /// Per-sample reference path, nanoseconds per call (median).
    pub reference_ns: f64,
    /// Batched engine, nanoseconds per call (median).
    pub batched_ns: f64,
    /// `reference_ns / batched_ns`.
    pub speedup: f64,
    /// Pool width the entry executed at: the requested thread count capped
    /// at the machine's. The `aggregate/*` entries used to be written three
    /// times (`_1t` / `_2t` / `_8t`) — on a one-core baseline, the same
    /// number three times; each is now one entry that says how wide it ran.
    pub threads: usize,
}

/// The `BENCH_kernels.json` document.
#[derive(Serialize, Deserialize, Clone, Debug)]
pub struct BenchReport {
    /// Schema tag for forward compatibility.
    pub schema: String,
    /// Whether this was a `--smoke` (CI) run.
    pub smoke: bool,
    /// All measurements.
    pub entries: Vec<BenchEntry>,
}

/// The schema tag this crate writes and accepts. `v2`: every entry
/// carries `threads`, the report no longer does.
pub const SCHEMA: &str = "fedbiad-bench-kernels/v2";

/// Read a report. The schema tag is read on its own first, so a file
/// written under another tag is reported as [`GateFinding::SchemaMismatch`]
/// and not as whichever field that tag happened to lack.
pub fn parse(text: &str) -> Result<BenchReport, String> {
    #[derive(Deserialize)]
    struct Tagged {
        schema: String,
    }
    let tag: Tagged = serde_json::from_str(text).map_err(|e| format!("{e:?}"))?;
    if tag.schema != SCHEMA {
        let mismatch = GateFinding::SchemaMismatch {
            baseline: tag.schema,
            fresh: SCHEMA.to_string(),
        };
        return Err(mismatch.to_string());
    }
    serde_json::from_str(text).map_err(|e| format!("{e:?}"))
}

/// One gate verdict line.
#[derive(Clone, Debug, PartialEq)]
pub enum GateFinding {
    /// The baseline and fresh reports use different schema tags.
    SchemaMismatch {
        /// Baseline tag.
        baseline: String,
        /// Fresh tag.
        fresh: String,
    },
    /// A baseline entry has no fresh counterpart.
    Missing {
        /// The absent entry's name.
        name: String,
    },
    /// A fresh speedup fell below `baseline * (1 - tolerance)`.
    Regressed {
        /// Entry name.
        name: String,
        /// Committed speedup.
        baseline: f64,
        /// Measured speedup.
        fresh: f64,
        /// The floor it had to clear.
        floor: f64,
    },
}

impl std::fmt::Display for GateFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateFinding::SchemaMismatch { baseline, fresh } => {
                write!(
                    f,
                    "schema mismatch: baseline `{baseline}` vs fresh `{fresh}`"
                )
            }
            GateFinding::Missing { name } => {
                write!(
                    f,
                    "{name}: present in baseline but missing from the fresh run"
                )
            }
            GateFinding::Regressed {
                name,
                baseline,
                fresh,
                floor,
            } => write!(
                f,
                "{name}: speedup {fresh:.3}x below floor {floor:.3}x (baseline {baseline:.3}x)"
            ),
        }
    }
}

/// Compare a fresh report against the committed baseline. Empty result =
/// gate passes.
pub fn compare(baseline: &BenchReport, fresh: &BenchReport, tolerance: f64) -> Vec<GateFinding> {
    assert!(
        (0.0..1.0).contains(&tolerance),
        "tolerance must be in [0, 1)"
    );
    let mut findings = Vec::new();
    if baseline.schema != fresh.schema {
        findings.push(GateFinding::SchemaMismatch {
            baseline: baseline.schema.clone(),
            fresh: fresh.schema.clone(),
        });
        return findings;
    }
    for b in &baseline.entries {
        let Some(f) = fresh.entries.iter().find(|e| e.name == b.name) else {
            findings.push(GateFinding::Missing {
                name: b.name.clone(),
            });
            continue;
        };
        let floor = b.speedup * (1.0 - tolerance);
        if f.speedup < floor {
            findings.push(GateFinding::Regressed {
                name: b.name.clone(),
                baseline: b.speedup,
                fresh: f.speedup,
                floor,
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(entries: &[(&str, f64)]) -> BenchReport {
        BenchReport {
            schema: SCHEMA.to_string(),
            smoke: false,
            entries: entries
                .iter()
                .map(|&(name, speedup)| BenchEntry {
                    name: name.to_string(),
                    reference_ns: 1000.0 * speedup,
                    batched_ns: 1000.0,
                    speedup,
                    threads: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn equal_reports_pass() {
        let b = report(&[("kernel/a", 2.0), ("aggregate/b", 1.5)]);
        assert!(compare(&b, &b, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn drop_within_tolerance_passes_beyond_fails() {
        let b = report(&[("aggregate/b", 2.0)]);
        // 2.0 * (1 - 0.15) = 1.7 is the floor.
        let ok = report(&[("aggregate/b", 1.71)]);
        assert!(compare(&b, &ok, DEFAULT_TOLERANCE).is_empty());
        let bad = report(&[("aggregate/b", 1.69)]);
        let f = compare(&b, &bad, DEFAULT_TOLERANCE);
        assert_eq!(f.len(), 1);
        assert!(matches!(&f[0], GateFinding::Regressed { name, .. } if name == "aggregate/b"));
    }

    #[test]
    fn exact_floor_passes() {
        // Not-strictly-below the floor is a pass: the comparison is `<`.
        let b = report(&[("x", 1.0)]);
        let f = report(&[("x", 0.85)]);
        assert!(compare(&b, &f, 0.15).is_empty());
    }

    #[test]
    fn missing_baseline_entry_fails() {
        let b = report(&[("kernel/a", 2.0), ("aggregate/b", 1.5)]);
        let f = report(&[("kernel/a", 2.0)]);
        let out = compare(&b, &f, DEFAULT_TOLERANCE);
        assert_eq!(
            out,
            vec![GateFinding::Missing {
                name: "aggregate/b".to_string()
            }]
        );
    }

    #[test]
    fn extra_fresh_entries_are_fine() {
        let b = report(&[("kernel/a", 2.0)]);
        let f = report(&[("kernel/a", 2.0), ("aggregate/new", 0.1)]);
        assert!(compare(&b, &f, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn schema_mismatch_fails_fast() {
        let b = report(&[("kernel/a", 2.0)]);
        let mut f = report(&[("kernel/a", 2.0)]);
        f.schema = "fedbiad-bench-kernels/v3".to_string();
        let out = compare(&b, &f, DEFAULT_TOLERANCE);
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0], GateFinding::SchemaMismatch { .. }));
    }

    #[test]
    fn a_file_of_another_schema_is_named_as_such() {
        // A v1 file: report-level `threads`, entries without it.
        let v1 = r#"{"schema": "fedbiad-bench-kernels/v1", "smoke": false, "threads": 1,
            "entries": [{"name": "kernel/a", "reference_ns": 2.0, "batched_ns": 1.0,
                         "speedup": 2.0}]}"#;
        let err = parse(v1).unwrap_err();
        assert!(err.starts_with("schema mismatch"), "{err}");
        let now = serde_json::to_string(&report(&[("kernel/a", 2.0)])).unwrap();
        assert_eq!(parse(&now).unwrap().entries[0].threads, 1);
    }

    #[test]
    fn improvements_never_fail() {
        let b = report(&[("aggregate/b", 0.8)]);
        let f = report(&[("aggregate/b", 2.5)]);
        assert!(compare(&b, &f, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn report_round_trips_through_json() {
        let b = report(&[("kernel/a", 2.0)]);
        let json = serde_json::to_string(&b).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema, SCHEMA);
        assert_eq!(back.entries.len(), 1);
        assert_eq!(back.entries[0].speedup, 2.0);
        assert_eq!(back.entries[0].threads, 1);
    }
}
