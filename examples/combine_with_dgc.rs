//! Domain scenario 3 (paper Fig. 5 / Table II): FedBIAD composed with a
//! sketched compressor (DGC). The client first drops rows, then compresses
//! the kept-row delta; the server decompresses, reconstructs β∘U and
//! aggregates. Compares naive DGC vs FedBIAD+DGC.
//!
//! ```text
//! cargo run --release --example combine_with_dgc
//! ```

use fedbiad::compress::dgc::Dgc;
use fedbiad::prelude::*;
use std::sync::Arc;

fn main() {
    let seed = 21;
    let bundle = build(Workload::MnistLike, Scale::Smoke, seed);
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
    let p = bundle.dropout_rate;
    let dgc = || Arc::new(Dgc::paper());

    let logs = vec![
        Experiment::new(bundle.model.as_ref(), &bundle.data, FedAvg::new(), cfg).run(),
        Experiment::new(
            bundle.model.as_ref(),
            &bundle.data,
            FedAvg::with_sketch(dgc()),
            cfg,
        )
        .run(),
        Experiment::new(
            bundle.model.as_ref(),
            &bundle.data,
            FedBiad::with_sketch(FedBiadConfig::paper(p, rounds - 5), dgc()),
            cfg,
        )
        .run(),
    ];

    let full = logs[0].mean_upload_bytes();
    println!(
        "{:<14} {:>7} {:>12} {:>9}",
        "method", "acc%", "upload/rnd", "save"
    );
    for log in &logs {
        println!(
            "{:<14} {:>7.2} {:>12} {:>8.0}x",
            log.method,
            log.final_accuracy_pct(),
            fedbiad::fl::metrics::fmt_bytes(log.mean_upload_bytes()),
            full as f64 / log.mean_upload_bytes() as f64,
        );
    }
    println!(
        "\nFedBIAD+DGC compresses the *kept rows'* delta, so its uplink is \
         roughly half of naive DGC's at p = 0.5 (Table II: 575x vs 321x \
         overall save on PTB)."
    );
}
