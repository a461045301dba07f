//! Domain scenario 2 (paper §V-A, next-word prediction): an LSTM language
//! model on a Reddit-like non-IID federation. Shows the paper's headline
//! structural claim: FedBIAD can drop *recurrent* rows, so its save ratio
//! on RNN models (2×) beats FedDrop's (≈1.25×), while top-3 accuracy holds.
//!
//! ```text
//! cargo run --release --example next_word_prediction
//! ```

use fedbiad::prelude::*;

fn main() {
    let seed = 13;
    let bundle = build(Workload::RedditLike, Scale::Smoke, seed);
    println!(
        "workload: {} — {} clients with unequal data: sizes {:?}…",
        bundle.data.name,
        bundle.data.num_clients(),
        bundle
            .data
            .clients
            .iter()
            .take(4)
            .map(ClientData::num_samples)
            .collect::<Vec<_>>()
    );

    let rounds = 20;
    let cfg = ExperimentConfig {
        rounds,
        client_fraction: 0.3,
        seed,
        train: bundle.train,
        eval_topk: 3, // mobile keyboards show three candidates (paper §V-B)
        eval_every: 1,
        eval_max_samples: 0,
        ..Default::default()
    };

    let p = bundle.dropout_rate;
    let logs = vec![
        Experiment::new(bundle.model.as_ref(), &bundle.data, FedAvg::new(), cfg).run(),
        Experiment::new(bundle.model.as_ref(), &bundle.data, FedDrop::new(p), cfg).run(),
        Experiment::new(bundle.model.as_ref(), &bundle.data, Fjord::new(p), cfg).run(),
        Experiment::new(
            bundle.model.as_ref(),
            &bundle.data,
            FedBiad::new(FedBiadConfig::paper(p, rounds - 5)),
            cfg,
        )
        .run(),
    ];

    let full = logs[0].mean_upload_bytes();
    println!(
        "\n{:<10} {:>10} {:>12} {:>8}",
        "method", "top3-acc%", "upload/rnd", "save"
    );
    for log in &logs {
        println!(
            "{:<10} {:>10.2} {:>12} {:>7.2}x",
            log.method,
            log.final_accuracy_pct(),
            fedbiad::fl::metrics::fmt_bytes(log.mean_upload_bytes()),
            full as f64 / log.mean_upload_bytes() as f64,
        );
    }
    println!(
        "\nnote: FedDrop may only compress the embedding dimension of an RNN \
         model (no recurrent rows), FedBIAD drops rows of every matrix — that \
         is the paper's structural 2x-vs-1.25x story."
    );
}
