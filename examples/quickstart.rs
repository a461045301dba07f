//! Quickstart: run FedBIAD against FedAvg on a small MNIST-like federated
//! workload and print the per-round table.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fedbiad::prelude::*;

fn main() {
    let seed = 42;
    let bundle = build(Workload::MnistLike, Scale::Smoke, seed);
    println!(
        "workload: {} — {} clients, dropout rate p = {}",
        bundle.data.name,
        bundle.data.num_clients(),
        bundle.dropout_rate
    );

    let rounds = 20;
    let cfg = ExperimentConfig {
        rounds,
        client_fraction: 0.3,
        seed,
        train: bundle.train,
        eval_topk: bundle.eval_topk,
        eval_every: 1,
        eval_max_samples: 0,
        ..Default::default()
    };

    let fedavg = Experiment::new(bundle.model.as_ref(), &bundle.data, FedAvg::new(), cfg).run();
    let fedbiad = Experiment::new(
        bundle.model.as_ref(),
        &bundle.data,
        FedBiad::new(FedBiadConfig::paper(bundle.dropout_rate, rounds - 5)),
        cfg,
    )
    .run();

    println!("\nround  fedavg-acc%  fedbiad-acc%  fedavg-upload  fedbiad-upload");
    for (a, b) in fedavg.records.iter().zip(&fedbiad.records) {
        println!(
            "{:>5}  {:>10.1}  {:>11.1}  {:>13}  {:>14}",
            a.round,
            a.test_acc * 100.0,
            b.test_acc * 100.0,
            fedbiad::fl::metrics::fmt_bytes(a.upload_bytes_mean),
            fedbiad::fl::metrics::fmt_bytes(b.upload_bytes_mean),
        );
    }
    let save = fedavg.mean_upload_bytes() as f64 / fedbiad.mean_upload_bytes() as f64;
    println!(
        "\nFedBIAD uplink save ratio vs FedAvg: {save:.2}x  \
         (final acc {:.1}% vs {:.1}%)",
        fedbiad.final_accuracy_pct(),
        fedavg.final_accuracy_pct()
    );
}
