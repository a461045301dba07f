//! Run declarative scenario specs: expand the sweep grid, execute every
//! run in parallel, and emit one `ExperimentLog` JSON per run plus a
//! roll-up summary table. Every paper artifact is a bundled spec
//! (`scenarios/table1.toml`, `table2`, `fig2`, `fig6`, `fig7`, `fig8`).
//!
//! ```text
//! cargo run --release --bin scenario -- scenarios/table1.toml \
//!     [scenarios/more.toml ...] \
//!     [--rounds N --seed N --scale smoke|lab --eval-max N --fraction F \
//!      --workloads a,b --methods a,b --policies a,b --profiles a,b --target A \
//!      --json-out PATH --trace-out DIR]
//! ```
//!
//! CLI flags override the corresponding spec fields (see
//! `scenarios/README.md` for the schema). Outputs land in
//! `target/experiments/scenario/<name>/`; `--json-out PATH` additionally
//! writes every run's log, with the invocation, to one file.
//!
//! The roll-up prints, per run, accuracy, mean upload, the save ratio
//! (full-model download bytes over mean upload bytes), LTTR and
//! time-to-accuracy — on the virtual clock for sim runs, on the T-Mobile
//! 5G link formula (Fig. 7) for lock-step runs — and, when any run of the
//! spec has one, the paper's published accuracy / upload / save ratio.
//!
//! With `--trace-out DIR` the runs execute serially under the telemetry
//! collector (results are bit-identical — see `execute_traced`), and each
//! run additionally emits `run_NNN.trace.json` (Chrome/Perfetto trace) and
//! `run_NNN.jsonl` (raw event stream) into DIR, plus a per-span p50/p95
//! summary on stdout. Serial runs are also what a wall-clock LTTR should
//! be read from.

use fedbiad_bench::cli::Cli;
use fedbiad_bench::output::{
    experiments_dir, export_dump, paper_cells, paper_row, PaperRow, Table,
};
use fedbiad_bench::paper;
use fedbiad_fl::metrics::fmt_bytes;
use fedbiad_fl::{timing, NetworkModel};
use fedbiad_scenario::{execute, execute_traced, RunOutcome, ScenarioSpec};
use serde::Serialize;
use std::path::Path;

const USAGE: &str = "usage: scenario SPEC.toml [SPEC.toml ...] [--rounds N --seed N \
                     --scale smoke|lab --eval-max N --fraction F --workloads a,b \
                     --methods a,b --policies a,b --profiles a,b --target A \
                     --json-out PATH --trace-out DIR]";

/// One `summary.json` row.
#[derive(Clone, Debug, Serialize)]
struct SummaryRow {
    index: usize,
    label: String,
    seed: u64,
    rounds: usize,
    final_acc_pct: f64,
    best_acc_pct: f64,
    mean_upload_bytes: u64,
    /// Full-model download bytes over mean upload bytes (`None` when
    /// nothing was uploaded).
    save_ratio: Option<f64>,
    /// Mean local-training time per round (LTTR), milliseconds.
    lttr_ms: f64,
    /// The accuracy time-to-accuracy is judged against.
    target_acc: f64,
    /// Seconds to the target on the 5G link formula (lock-step runs only).
    tta_seconds: Option<f64>,
    /// Virtual seconds to the TTA target (sim runs only).
    tta_virtual_seconds: Option<f64>,
    /// Total virtual seconds (sim runs only).
    total_virtual_seconds: Option<f64>,
    /// Virtual time at which each recorded round committed (sim runs only).
    round_end_seconds: Option<Vec<f64>>,
    /// The paper's published accuracy (%), upload size and save ratio for
    /// this run's (workload, method), if it published one.
    paper_acc_pct: Option<f64>,
    paper_upload: Option<&'static str>,
    paper_save_ratio: Option<f64>,
    /// Per-run log file, relative to the summary.
    log_file: String,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    // Leading non-flag arguments are spec paths; the rest is shared flags.
    let split = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    let (paths, flags) = args.split_at(split);
    if paths.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let cli = Cli::parse_from(flags.to_vec());
    let overrides = cli.scenario_overrides().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    let mut names = Vec::new();
    let mut logs = Vec::new();
    for path in paths {
        let mut spec = ScenarioSpec::from_path(Path::new(path)).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        });
        spec.apply_overrides(&overrides).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        });
        let outcomes = run_spec(&spec, cli.trace_out.as_deref());
        names.push(spec.name);
        logs.extend(outcomes.into_iter().map(|o| o.log));
    }
    if let Some(path) = &cli.json_out {
        export_dump(&names.join("+"), &logs, path);
    }
}

fn run_spec(spec: &ScenarioSpec, trace_out: Option<&Path>) -> Vec<RunOutcome> {
    let n_runs = fedbiad_scenario::expand(spec).map(|r| r.len()).unwrap_or(0);
    println!(
        "=== scenario `{}` — {} run(s), mode {}, {} round(s) ===",
        spec.name,
        n_runs,
        spec.mode.name(),
        spec.run.rounds
    );
    let outcomes = if trace_out.is_some() {
        if !fedbiad_telemetry::compiled() {
            eprintln!(
                "warning: --trace-out given but the telemetry collector is not \
                 compiled in; traces will be empty"
            );
        }
        execute_traced(spec)
    } else {
        execute(spec)
    }
    .unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    let dir = experiments_dir().join("scenario").join(&spec.name);
    std::fs::create_dir_all(&dir).expect("create scenario output dir");
    let mut rows = Vec::new();
    let mut papers = Vec::new();
    for o in &outcomes {
        let log_file = format!("run_{:03}.json", o.run.index);
        let body = serde_json::to_string_pretty(&o.log).expect("serialise run log");
        std::fs::write(dir.join(&log_file), body).expect("write run log");
        let paper = published_row(o);
        rows.push(summary_row(o, paper, log_file));
        papers.push(paper);
    }
    let body = serde_json::to_string_pretty(&rows).expect("serialise summary");
    std::fs::write(dir.join("summary.json"), body).expect("write summary");

    if let Some(trace_dir) = trace_out {
        write_traces(&outcomes, trace_dir);
    }
    print_rollup(&outcomes, &rows, &papers);
    println!(
        "{} per-run log(s) + summary.json written to {}",
        outcomes.len(),
        dir.display()
    );
    outcomes
}

/// Emit `run_NNN.trace.json` + `run_NNN.jsonl` per captured run and print
/// each run's per-span p50/p95 summary table.
fn write_traces(outcomes: &[RunOutcome], trace_dir: &Path) {
    std::fs::create_dir_all(trace_dir).expect("create trace output dir");
    let mut written = 0usize;
    for o in outcomes {
        let Some(cap) = &o.capture else { continue };
        let trace_file = trace_dir.join(format!("run_{:03}.trace.json", o.run.index));
        std::fs::write(&trace_file, cap.chrome_trace()).expect("write chrome trace");
        let jsonl_file = trace_dir.join(format!("run_{:03}.jsonl", o.run.index));
        std::fs::write(&jsonl_file, cap.jsonl()).expect("write jsonl event stream");
        written += 1;
        println!(
            "--- run {:03} `{}` span summary ({}) ---",
            o.run.index,
            o.run.label,
            trace_file.display()
        );
        println!("{}", cap.summary().render_table());
    }
    println!(
        "{written} trace(s) written to {} (load *.trace.json in ui.perfetto.dev \
         or chrome://tracing)",
        trace_dir.display()
    );
}

/// Total wall-clock of `span` across a run's capture, in milliseconds,
/// rendered for the roll-up's per-stage breakdown column.
fn stage_ms(s: &fedbiad_telemetry::Summary, span: &str) -> String {
    match s.span(span) {
        Some(st) => format!("{:.0}", st.total_ns as f64 / 1e6),
        None => "-".into(),
    }
}

/// The published row a run stands beside: its (workload, method)'s,
/// unless the simulator's clock, a composed compressor or a non-paper
/// dropout rate makes it a different experiment from the lock-step one
/// the paper reports.
fn published_row(o: &RunOutcome) -> Option<&'static PaperRow> {
    let rate_moved = o.run.method.uses_dropout_rate()
        && o.run
            .opts
            .dropout_override
            .is_some_and(|p| p != o.run.workload.paper_dropout_rate());
    if o.sim.is_some() || o.run.compressor.is_some() || rate_moved {
        None
    } else {
        paper_row(paper::published(o.run.workload), o.run.method.name())
    }
}

fn summary_row(o: &RunOutcome, paper: Option<&'static PaperRow>, log_file: String) -> SummaryRow {
    let up = o.log.mean_upload_bytes();
    // Download is the full global model, as the save ratio's numerator.
    let full = o.log.records.first().map(|r| r.download_bytes);
    SummaryRow {
        index: o.run.index,
        label: o.run.label.clone(),
        seed: o.run.opts.seed,
        rounds: o.log.records.len(),
        final_acc_pct: o.log.final_accuracy_pct(),
        best_acc_pct: o.log.best_accuracy_pct(),
        mean_upload_bytes: up,
        save_ratio: full.filter(|_| up > 0).map(|full| full as f64 / up as f64),
        lttr_ms: o.log.mean_lttr_seconds() * 1e3,
        target_acc: o.target_acc,
        // Fig. 7's link formula; sim runs have their virtual clock instead.
        tta_seconds: match o.sim {
            Some(_) => None,
            None => {
                let net = NetworkModel::t_mobile_5g();
                timing::time_to_accuracy(&o.log.records, o.target_acc, &net)
            }
        },
        tta_virtual_seconds: o.sim.as_ref().and_then(|s| s.tta_virtual_seconds),
        total_virtual_seconds: o.sim.as_ref().map(|s| s.total_virtual_seconds),
        round_end_seconds: o.sim.as_ref().map(|s| s.round_end_seconds.clone()),
        paper_acc_pct: paper.map(|row| row.1),
        paper_upload: paper.map(|row| row.2),
        paper_save_ratio: paper.map(|row| row.3),
        log_file,
    }
}

fn seconds(t: Option<f64>) -> String {
    t.map(|x| format!("{x:.2}"))
        .unwrap_or_else(|| "not reached".into())
}

/// Print the roll-up table; `papers[i]` is the published row `rows[i]`
/// carries into `summary.json`.
fn print_rollup(outcomes: &[RunOutcome], rows: &[SummaryRow], papers: &[Option<&PaperRow>]) {
    let any_sim = outcomes.iter().any(|o| o.sim.is_some());
    let any_paper = papers.iter().any(Option::is_some);
    let traced = outcomes
        .iter()
        .any(|o| o.capture.as_ref().is_some_and(|c| !c.is_empty()));
    let mut headers = vec![
        "#",
        "Run",
        "Seed",
        "final acc%",
        "best acc%",
        "mean upload",
        "save",
        "LTTR (ms)",
    ];
    if any_sim {
        headers.extend(["TTA (virt s)", "total (virt s)"]);
    } else {
        headers.push("TTA 5G (s)");
    }
    if any_paper {
        headers.extend(["Acc% (paper)", "Upload (paper)", "Save (paper)"]);
    }
    if traced {
        headers.push("sel/trn/upl/agg/evl (ms)");
    }
    let mut t = Table::new(&headers);
    for ((o, r), &paper) in outcomes.iter().zip(rows).zip(papers) {
        let mut row = vec![
            r.index.to_string(),
            r.label.clone(),
            r.seed.to_string(),
            format!("{:.2}", r.final_acc_pct),
            format!("{:.2}", r.best_acc_pct),
            fmt_bytes(r.mean_upload_bytes),
            r.save_ratio
                .map_or_else(|| "-".into(), |x| format!("{x:.2}x")),
            format!("{:.1}", r.lttr_ms),
        ];
        if any_sim {
            row.push(seconds(r.tta_virtual_seconds));
            row.push(
                r.total_virtual_seconds
                    .map_or_else(|| "-".into(), |x| format!("{x:.2}")),
            );
        } else {
            row.push(seconds(r.tta_seconds));
        }
        if any_paper {
            row.extend(paper_cells(paper, |r| format!("{r}x")));
        }
        if traced {
            match &o.capture {
                Some(c) if !c.is_empty() => {
                    let s = c.summary();
                    row.push(
                        ["select", "train", "upload", "aggregate", "eval"]
                            .iter()
                            .map(|stage| stage_ms(&s, &format!("round.{stage}")))
                            .collect::<Vec<_>>()
                            .join("/"),
                    );
                }
                _ => row.push("-".into()),
            }
        }
        t.row(row);
    }
    println!("{}", t.render());
}
