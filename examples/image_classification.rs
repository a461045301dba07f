//! Domain scenario 1 (paper §V-A, image classification): non-IID
//! MNIST-like and FMNIST-like workloads, comparing FedBIAD with FedAvg and
//! FedDrop at the paper's dropout rates, including the simulated wireless
//! time-to-accuracy.
//!
//! ```text
//! cargo run --release --example image_classification
//! ```

use fedbiad::fl::timing;
use fedbiad::prelude::*;

fn run(
    bundle: &fedbiad::fl::workload::WorkloadBundle,
    rounds: usize,
    seed: u64,
) -> Vec<ExperimentLog> {
    let cfg = ExperimentConfig {
        rounds,
        client_fraction: 0.2,
        seed,
        train: bundle.train,
        eval_topk: bundle.eval_topk,
        eval_every: 1,
        eval_max_samples: 0,
        ..Default::default()
    };
    vec![
        Experiment::new(bundle.model.as_ref(), &bundle.data, FedAvg::new(), cfg).run(),
        Experiment::new(
            bundle.model.as_ref(),
            &bundle.data,
            FedDrop::new(bundle.dropout_rate),
            cfg,
        )
        .run(),
        Experiment::new(
            bundle.model.as_ref(),
            &bundle.data,
            FedBiad::new(FedBiadConfig::paper(
                bundle.dropout_rate,
                rounds.saturating_sub(5),
            )),
            cfg,
        )
        .run(),
    ]
}

fn main() {
    let seed = 7;
    let rounds = 25;
    let net = NetworkModel::t_mobile_5g();
    for w in [Workload::MnistLike, Workload::FmnistLike] {
        let bundle = build(w, Scale::Smoke, seed);
        println!("\n== {} (p = {}) ==", bundle.data.name, bundle.dropout_rate);
        println!(
            "{:<10} {:>7} {:>12} {:>10} {:>12}",
            "method", "acc%", "upload/rnd", "save", "TTA(s)"
        );
        let logs = run(&bundle, rounds, seed);
        let full = logs[0].mean_upload_bytes();
        for log in &logs {
            let tta = timing::time_to_accuracy(&log.records, bundle.target_acc, &net)
                .map(|t| format!("{t:.1}"))
                .unwrap_or_else(|| "—".into());
            println!(
                "{:<10} {:>7.2} {:>12} {:>9.2}x {:>12}",
                log.method,
                log.final_accuracy_pct(),
                fedbiad::fl::metrics::fmt_bytes(log.mean_upload_bytes()),
                full as f64 / log.mean_upload_bytes() as f64,
                tta,
            );
        }
    }
}
