//! Ablation bench (DESIGN.md §4 / experiment E8): quantify FedBIAD's
//! design choices on one image and one text workload.
//!
//! Axes:
//! * aggregation semantics: StaleFill (default) vs HoldersOnly vs the
//!   literal eq. (10) zeros-pull;
//! * pattern sampling: global Z_S^N vs per-entry quota;
//! * posterior noise: eq. (13) theory value vs off vs fixed 0.01;
//! * τ sensitivity: 1 / 3 / 6;
//! * importance indicator: stage boundary R_b at the paper ratio vs
//!   "always stage one" (indicator never used) vs early stage two;
//! * output-head protection on/off.
//!
//! ```text
//! cargo run -p fedbiad-bench --release --bin ablation -- \
//!     [--rounds 40] [--workloads mnist,ptb] [--seed 42]
//! ```

use fedbiad_bench::cli::Cli;
use fedbiad_bench::output::{save_logs_and_export, Table};
use fedbiad_core::spike_slab::NoiseLevel;
use fedbiad_core::{FedBiad, FedBiadConfig, PatternSampling};
use fedbiad_fl::aggregate::ZeroMode;
use fedbiad_fl::runner::{Experiment, ExperimentConfig};
use fedbiad_fl::workload::{build, Workload, WorkloadBundle};
use fedbiad_fl::ExperimentLog;
use fedbiad_nn::params::LayerKind;

struct Variant {
    name: &'static str,
    cfg: Box<dyn Fn(FedBiadConfig) -> FedBiadConfig>,
}

fn variants() -> Vec<Variant> {
    vec![
        Variant {
            name: "default",
            cfg: Box::new(|c| c),
        },
        Variant {
            name: "agg=holders",
            cfg: Box::new(|c| FedBiadConfig {
                aggregation: ZeroMode::HoldersOnly,
                ..c
            }),
        },
        Variant {
            name: "agg=zeros(eq10)",
            cfg: Box::new(|c| FedBiadConfig {
                aggregation: ZeroMode::ZerosPull,
                ..c
            }),
        },
        Variant {
            name: "sampling=per-entry",
            cfg: Box::new(|c| FedBiadConfig {
                sampling: PatternSampling::PerEntry,
                ..c
            }),
        },
        Variant {
            name: "noise=off",
            cfg: Box::new(|c| FedBiadConfig {
                noise: NoiseLevel::Off,
                ..c
            }),
        },
        Variant {
            name: "noise=0.01",
            cfg: Box::new(|c| FedBiadConfig {
                noise: NoiseLevel::Fixed(0.01),
                ..c
            }),
        },
        Variant {
            name: "tau=1",
            cfg: Box::new(|c| FedBiadConfig { tau: 1, ..c }),
        },
        Variant {
            name: "tau=6",
            cfg: Box::new(|c| FedBiadConfig { tau: 6, ..c }),
        },
        Variant {
            name: "no-stage2",
            cfg: Box::new(|c| FedBiadConfig {
                stage_boundary: usize::MAX,
                ..c
            }),
        },
        Variant {
            name: "early-stage2(R/2)",
            cfg: Box::new(|c| {
                let rb = (c.stage_boundary + 5) / 2; // R/2 given rb = R−5
                FedBiadConfig {
                    stage_boundary: rb.max(1),
                    ..c
                }
            }),
        },
        Variant {
            name: "no-head-protect",
            cfg: Box::new(|c| FedBiadConfig {
                protect_small_output_rows: 0,
                ..c
            }),
        },
        Variant {
            name: "protect-all-heads",
            cfg: Box::new(|c| FedBiadConfig {
                protect_small_output_rows: usize::MAX,
                ..c
            }),
        },
        Variant {
            name: "protect-embedding",
            cfg: Box::new(|c| FedBiadConfig {
                protect_kinds: vec![LayerKind::Embedding],
                ..c
            }),
        },
        Variant {
            name: "protect-lstm",
            cfg: Box::new(|c| FedBiadConfig {
                protect_kinds: vec![LayerKind::LstmInput, LayerKind::LstmRecurrent],
                ..c
            }),
        },
        Variant {
            name: "drop-lstm-only",
            cfg: Box::new(|c| FedBiadConfig {
                protect_kinds: vec![LayerKind::Embedding, LayerKind::DenseOutput],
                ..c
            }),
        },
        Variant {
            name: "paper-literal(resample)",
            cfg: Box::new(|c| FedBiadConfig {
                persistent_patterns: false,
                ..c
            }),
        },
    ]
}

fn run_variant(
    bundle: &WorkloadBundle,
    v: &Variant,
    rounds: usize,
    seed: u64,
    eval_max: usize,
    fraction: f32,
) -> ExperimentLog {
    let base = FedBiadConfig::paper(bundle.dropout_rate, rounds.saturating_sub(5).max(1));
    let cfg = (v.cfg)(base);
    let algo = FedBiad::new(cfg);
    let ecfg = ExperimentConfig {
        rounds,
        client_fraction: fraction,
        seed,
        train: bundle.train,
        eval_topk: bundle.eval_topk,
        eval_every: 2,
        eval_max_samples: eval_max,
        ..Default::default()
    };
    let mut log = Experiment::new(bundle.model.as_ref(), &bundle.data, algo, ecfg).run();
    log.method = format!("fedbiad[{}]", v.name);
    log
}

fn main() {
    let cli = Cli::parse();
    let rounds = cli.rounds.unwrap_or(40);
    let workloads = cli
        .workloads
        .clone()
        .unwrap_or_else(|| vec![Workload::MnistLike, Workload::RedditLike]);
    let mut all_logs = Vec::new();

    for w in workloads {
        let bundle = build(w, cli.scale, cli.seed);
        println!("\n=== Ablation — {} ({} rounds) ===", w.name(), rounds);
        let mut table = Table::new(&["Variant", "Final acc%", "Best acc%", "Mean upload"]);
        for v in variants() {
            let log = run_variant(
                &bundle,
                &v,
                rounds,
                cli.seed,
                cli.eval_max,
                cli.fraction.unwrap_or(0.1),
            );
            table.row(vec![
                v.name.into(),
                format!("{:.2}", log.final_accuracy_pct()),
                format!("{:.2}", log.best_accuracy_pct()),
                fedbiad_fl::metrics::fmt_bytes(log.mean_upload_bytes()),
            ]);
            println!("  finished {}", v.name);
            all_logs.push(log);
        }
        println!("{}", table.render());
    }
    let path = save_logs_and_export("ablation", &all_logs, cli.json_out.as_deref());
    println!("JSON written to {}", path.display());
}
