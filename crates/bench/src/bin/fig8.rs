//! Fig. 8: effect of the dropout rate p on Reddit — (a) top-3 accuracy and
//! (b) TTA versus p ∈ {0.1 … 0.7} for FedAvg, FedDrop, AFD and FedBIAD.
//!
//! ```text
//! cargo run -p fedbiad-bench --release --bin fig8 -- [--rounds 60] [--seed 42]
//! ```

use fedbiad_bench::cli::Cli;
use fedbiad_bench::output::{save_logs_and_export, Table};
use fedbiad_core::baselines::{Afd, FedAvg, FedDrop};
use fedbiad_core::{FedBiad, FedBiadConfig};
use fedbiad_fl::network::NetworkModel;
use fedbiad_fl::runner::{Experiment, ExperimentConfig};
use fedbiad_fl::timing;
use fedbiad_fl::workload::{build, Workload};
use fedbiad_fl::ExperimentLog;

fn main() {
    let cli = Cli::parse();
    let rounds = cli.rounds.unwrap_or(60);
    let bundle = build(Workload::RedditLike, cli.scale, cli.seed);
    let net = NetworkModel::t_mobile_5g();
    // The paper sweeps 0.1–0.7; the default grid here keeps four
    // representative points (pass --rounds/--scale to refine).
    let rates = [0.1f32, 0.3, 0.5, 0.7];

    let cfg = ExperimentConfig {
        rounds,
        client_fraction: cli.fraction.unwrap_or(0.1),
        seed: cli.seed,
        train: bundle.train,
        eval_topk: bundle.eval_topk,
        eval_every: 2,
        eval_max_samples: cli.eval_max,
        ..Default::default()
    };

    println!("=== Fig. 8 — {} ({} rounds) ===", bundle.data.name, rounds);

    // FedAvg is rate-independent: run once, reuse across the sweep.
    let fedavg = Experiment::new(bundle.model.as_ref(), &bundle.data, FedAvg::new(), cfg).run();
    println!("  finished FedAvg (rate-independent)");

    let mut logs: Vec<ExperimentLog> = vec![fedavg.clone()];
    let mut acc_table = Table::new(&["p", "FedAvg", "FedDrop", "AFD", "FedBIAD"]);
    let mut tta_table = Table::new(&["p", "FedAvg", "FedDrop", "AFD", "FedBIAD"]);
    for &p in &rates {
        let rb = rounds.saturating_sub(5).max(1);
        let runs = vec![
            Experiment::new(bundle.model.as_ref(), &bundle.data, FedDrop::new(p), cfg).run(),
            Experiment::new(bundle.model.as_ref(), &bundle.data, Afd::new(p), cfg).run(),
            Experiment::new(
                bundle.model.as_ref(),
                &bundle.data,
                FedBiad::new(FedBiadConfig::paper(p, rb)),
                cfg,
            )
            .run(),
        ];
        let tta = |log: &ExperimentLog| {
            timing::time_to_accuracy(&log.records, bundle.target_acc, &net)
                .map(|t| format!("{t:.0}"))
                .unwrap_or_else(|| "—".into())
        };
        acc_table.row(vec![
            format!("{p:.1}"),
            format!("{:.2}", fedavg.final_accuracy_pct()),
            format!("{:.2}", runs[0].final_accuracy_pct()),
            format!("{:.2}", runs[1].final_accuracy_pct()),
            format!("{:.2}", runs[2].final_accuracy_pct()),
        ]);
        tta_table.row(vec![
            format!("{p:.1}"),
            tta(&fedavg),
            tta(&runs[0]),
            tta(&runs[1]),
            tta(&runs[2]),
        ]);
        println!("  finished p = {p}");
        for mut log in runs {
            log.method = format!("{}@p={p}", log.method);
            logs.push(log);
        }
    }

    println!("\n(a) top-3 accuracy (%) vs dropout rate:");
    println!("{}", acc_table.render());
    println!("(b) TTA (s) vs dropout rate:");
    println!("{}", tta_table.render());

    let path = save_logs_and_export("fig8", &logs, cli.json_out.as_deref());
    println!("JSON written to {}", path.display());
}
