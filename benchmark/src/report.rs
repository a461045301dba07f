//! The metric catalogue and the one result every run prints.
//!
//! `BENCHMARK.json` at the repo root lists exactly the names below; a
//! self-test keeps the two in step. Every workload prints every metric of
//! the mode it ran in — a layer a workload never enters reads 0.

use crate::stats::{median, Recorder, SpanAgg};
use std::time::Instant;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("updates_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("uplink_bytes_per_update", "B"),
];

/// Spans reported as `calls, busy_s, p50_us, p90_us`.
const FULL_SPANS: [&str; 4] = [
    "nn.loss_grad",
    "nn.evaluate",
    "core.local_update",
    "core.aggregate",
];

/// `server_reduce` client write side: full stats plus MB/s.
const WRITE_SPANS: [&str; 5] = [
    "compress.dgc_compress",
    "compress.fedpaq_compress",
    "compress.encode_weights",
    "compress.encode_delta",
    "compress.wire_view",
];

/// `server_reduce` server read side (the last two are the dense oracle):
/// full stats plus uploads/s.
const READ_SPANS: [&str; 7] = [
    "fl.agg_masked_mean",
    "fl.agg_sparse_delta",
    "fl.agg_quant8_delta",
    "fl.agg_trimmed_mean",
    "fl.agg_staleness",
    "fl.agg_dense_mean",
    "fl.agg_dense_trimmed",
];

/// Per-layer metrics (`--trace 1`): name and unit, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut span = |name: &str, stats: &[(&str, &'static str)]| {
        for (stat, unit) in stats {
            out.push((format!("{name}.{stat}"), unit));
        }
    };
    const FULL: [(&str, &str); 4] = [
        ("calls", "count"),
        ("busy_s", "s"),
        ("p50_us", "us"),
        ("p90_us", "us"),
    ];
    for name in FULL_SPANS {
        span(name, &FULL);
        if name == "core.local_update" {
            span(name, &[("self_s", "s")]);
        }
    }
    span("core.begin_round", &[("busy_s", "s")]);
    span("core.eval_params", &[("busy_s", "s")]);
    span("sim.policy_react", &FULL[..2]);
    span("sim.profile_for", &FULL[..2]);
    span("fl.select", &FULL[..3]);
    span("data.build", &FULL[..2]);
    span("data.client_shard", &FULL[..3]);
    span("scenario.spec_load", &[("busy_s", "s")]);
    span("scenario.cell", &FULL[..2]);
    span(
        "scenario",
        &[
            ("final_acc_pct", "%"),
            ("virtual_s_per_round", "s_virtual"),
            ("par_wall_s", "s"),
            ("par_width", "count"),
            ("par_speedup_x", "x"),
        ],
    );
    span(
        "trace",
        &[
            ("wall_s", "s"),
            ("unattributed_s", "s"),
            ("overhead_pct", "%"),
        ],
    );
    for name in WRITE_SPANS {
        span(name, &FULL);
        span(name, &[("mbps", "MB/s")]);
    }
    for name in READ_SPANS {
        span(name, &FULL);
        span(name, &[("uploads_per_s", "1/s")]);
    }
    span("fl.screen_values", &FULL[..3]);
    out
}

/// One reported value.
pub struct Metric {
    /// Catalogue name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Catalogue unit.
    pub unit: &'static str,
}

/// Correctness bookkeeping: every grid cell, reduce/encode call and
/// explicit check is one attempted operation.
#[derive(Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Checks {
    /// Count one operation; a failure is also explained on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// Count `n` operations that cannot fail softly (they panic instead).
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }
}

/// What a run hands back to `main`.
#[derive(Default)]
pub struct Report {
    /// Values keyed by catalogue name; anything missing prints as 0.
    pub values: Vec<(String, f64)>,
    /// Correctness tally.
    pub checks: Checks,
}

impl Report {
    /// Set one metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value));
    }

    /// The end-to-end measuring loop: closed-loop repetitions of `rep`
    /// (which returns its wall clock, its result digest and a payload)
    /// until `seconds` have been measured, and at least three. Sets
    /// `wall_s` (their median) and `peak_rss_mib`, checks that every
    /// repetition reproduces the first one's digest, and returns `wall_s`
    /// with the first payload.
    pub fn measure_reps<T>(
        &mut self,
        what: &str,
        seconds: f64,
        mut rep: impl FnMut(&mut Checks) -> (f64, u64, T),
    ) -> (f64, T) {
        let mut walls = Vec::new();
        let mut first: Option<(u64, T)> = None;
        let measuring = Instant::now();
        while walls.len() < 3 || measuring.elapsed().as_secs_f64() < seconds {
            let (wall, digest, payload) = rep(&mut self.checks);
            walls.push(wall);
            match &first {
                None => {
                    // Read after one repetition — what a single run pays. Later
                    // repetitions allocate on top of heap the allocator kept
                    // from earlier ones, which a user never sees.
                    self.set("peak_rss_mib", crate::peak_rss_mib());
                    first = Some((digest, payload));
                }
                Some((d0, _)) => self.checks.check(digest == *d0, || {
                    format!(
                        "rep {} digest {digest:#018x} != rep 1 digest {d0:#018x}",
                        walls.len()
                    )
                }),
            }
        }
        let (d0, payload) = first.expect("at least one repetition");
        let wall_s = median(&walls);
        println!(
            "reps: n = {} of {what}, 1 worker thread, digest {d0:#018x}; wall_s is the median \
             of {walls:.3?} (no tail percentile: fewer than ten samples beyond any)",
            walls.len()
        );
        self.set("wall_s", wall_s);
        (wall_s, payload)
    }

    /// Set a span's stats under the catalogue's naming scheme, with counts
    /// and busy times divided by the `reps` traced repetitions they
    /// accumulated over. Stats the catalogue does not list are dropped at
    /// print time.
    pub fn set_span(&mut self, name: &str, agg: &SpanAgg, reps: usize) {
        let per_rep = 1.0 / reps.max(1) as f64;
        self.set(&format!("{name}.calls"), agg.calls as f64 * per_rep);
        self.set(&format!("{name}.busy_s"), agg.busy_s() * per_rep);
        self.set(&format!("{name}.self_s"), agg.self_s() * per_rep);
        self.set(&format!("{name}.p50_us"), agg.p50_us());
        self.set(&format!("{name}.p90_us"), agg.p90_us());
        self.set(&format!("{name}.mbps"), agg.work_per_s() * 1e-6);
        self.set(&format!("{name}.uploads_per_s"), agg.work_per_s());
    }

    /// [`Report::set_span`] for every span the recorder holds a name for.
    pub fn set_spans(&mut self, rec: &Recorder, names: &[&str], reps: usize) {
        for name in names {
            self.set_span(name, &rec.get(name), reps);
        }
    }

    /// Resolve against the catalogue of the mode that ran: the listed
    /// metrics, in catalogue order. A non-finite value counts as a failed
    /// check and prints as 0.
    pub fn resolve(&mut self, trace: bool) -> Vec<Metric> {
        let catalogue: Vec<(String, &'static str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut out = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let found = self.values.iter().rev().find(|(n, _)| *n == name);
            let mut value = found.map_or(0.0, |&(_, v)| v);
            if !value.is_finite() {
                self.checks.check(false, || format!("{name} is not finite"));
                value = 0.0;
            }
            out.push(Metric { name, value, unit });
        }
        out
    }
}

/// The last stdout line: one JSON object with exactly the four keys the
/// driver reads.
pub fn result_line(metrics: &[Metric], checks: &Checks) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        let first = s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_fit_the_contract_and_are_unique() {
        let mut all: Vec<(String, &str)> = per_layer();
        assert!(all.len() <= 128, "{} per-layer metrics", all.len());
        all.extend(END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)));
        for (name, unit) in &all {
            assert!(name_ok(name), "bad metric name {name:?}");
            assert!(unit_ok(unit), "bad unit {unit:?} on {name}");
        }
        let mut names: Vec<&String> = all.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
    }

    /// `BENCHMARK.json` must list exactly the catalogue (same names, same
    /// units, same split) — the driver refuses a run that prints anything
    /// else.
    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str, next: &str| -> String {
            let from = text.find(&format!("\"{key}\"")).expect(key);
            let to = text[from..].find(&format!("\"{next}\"")).map(|i| from + i);
            text[from..to.unwrap_or(text.len())].to_string()
        };
        let e2e = section("end_to_end", "per_layer");
        let layers = section("per_layer", "\u{0}none");
        for (name, unit) in END_TO_END {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(e2e.contains(&needle), "end_to_end lacks {needle}");
        }
        assert_eq!(e2e.matches("\"name\":").count(), END_TO_END.len());
        let catalogue = per_layer();
        for (name, unit) in &catalogue {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(layers.contains(&needle), "per_layer lacks {needle}");
        }
        assert_eq!(layers.matches("\"name\":").count(), catalogue.len());
    }

    #[test]
    fn result_line_has_the_four_keys_and_full_precision() {
        let mut report = Report::default();
        report.set("wall_s", 1.234567890123);
        report.set("setup_s", f64::NAN);
        report.checks.passed(3);
        let metrics = report.resolve(false);
        assert_eq!(metrics.len(), END_TO_END.len());
        let line = result_line(&metrics, &report.checks);
        assert!(line
            .starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": {"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.234567890123, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
    }
}
