//! End-to-end integration tests: every algorithm × both model families,
//! exercised through the facade crate exactly as a downstream user would.

use fedbiad::compress::dgc::Dgc;
use fedbiad::prelude::*;
use std::sync::Arc;

fn smoke_cfg(rounds: usize, bundle: &fedbiad::fl::workload::WorkloadBundle) -> ExperimentConfig {
    ExperimentConfig {
        rounds,
        client_fraction: 0.3,
        seed: 11,
        train: bundle.train,
        eval_topk: bundle.eval_topk,
        eval_every: 1,
        eval_max_samples: 0,
        ..Default::default()
    }
}

#[test]
fn every_algorithm_runs_on_images() {
    let bundle = build(Workload::MnistLike, Scale::Smoke, 11);
    let cfg = smoke_cfg(4, &bundle);
    let p = bundle.dropout_rate;
    let model = bundle.model.as_ref();
    let full = {
        use fedbiad::tensor::rng::{stream, StreamTag};
        model
            .init_params(&mut stream(11, StreamTag::Init, 0, 0))
            .total_bytes()
    };

    let logs = vec![
        Experiment::new(model, &bundle.data, FedAvg::new(), cfg).run(),
        Experiment::new(model, &bundle.data, FedDrop::new(p), cfg).run(),
        Experiment::new(model, &bundle.data, Afd::new(p), cfg).run(),
        Experiment::new(model, &bundle.data, FedMp::new(p), cfg).run(),
        Experiment::new(model, &bundle.data, Fjord::new(p), cfg).run(),
        Experiment::new(model, &bundle.data, HeteroFl::new(p), cfg).run(),
        Experiment::new(
            model,
            &bundle.data,
            FedBiad::new(FedBiadConfig::paper(p, 3)),
            cfg,
        )
        .run(),
    ];
    for log in &logs {
        assert_eq!(log.records.len(), 4, "{}", log.method);
        assert!(
            log.records.iter().all(|r| r.test_acc.is_finite()),
            "{}",
            log.method
        );
        assert!(log.mean_upload_bytes() > 0, "{}", log.method);
        assert!(log.mean_upload_bytes() <= full, "{}", log.method);
    }
    // Every dropout method uploads strictly less than FedAvg.
    let fedavg_up = logs[0].mean_upload_bytes();
    for log in &logs[1..] {
        assert!(
            log.mean_upload_bytes() < fedavg_up,
            "{} not compressed",
            log.method
        );
    }
}

#[test]
fn every_algorithm_runs_on_text() {
    let bundle = build(Workload::PtbLike, Scale::Smoke, 13);
    let cfg = smoke_cfg(3, &bundle);
    let p = bundle.dropout_rate;
    let model = bundle.model.as_ref();

    let logs = vec![
        Experiment::new(model, &bundle.data, FedAvg::new(), cfg).run(),
        Experiment::new(model, &bundle.data, FedDrop::new(p), cfg).run(),
        Experiment::new(model, &bundle.data, Afd::new(p), cfg).run(),
        Experiment::new(model, &bundle.data, Fjord::new(p), cfg).run(),
        Experiment::new(model, &bundle.data, HeteroFl::new(p), cfg).run(),
        Experiment::new(
            model,
            &bundle.data,
            FedBiad::new(FedBiadConfig::paper(p, 2)),
            cfg,
        )
        .run(),
    ];
    for log in &logs {
        assert!(
            log.records.last().unwrap().test_acc >= 0.0,
            "{}",
            log.method
        );
        assert!(
            log.records.last().unwrap().test_loss.is_finite(),
            "{}",
            log.method
        );
    }
    // Structural claim of the paper: FedBIAD's save ratio on an RNN model
    // beats FedDrop's (recurrent rows are droppable).
    let feddrop_up = logs[1].mean_upload_bytes();
    let fedbiad_up = logs.last().unwrap().mean_upload_bytes();
    assert!(
        fedbiad_up < feddrop_up,
        "FedBIAD {fedbiad_up} should upload less than FedDrop {feddrop_up} on LSTM"
    );
}

#[test]
fn sketched_methods_run_and_compress_hard() {
    use fedbiad::compress::fedpaq::FedPaq;
    use fedbiad::compress::signsgd::SignSgd;
    use fedbiad::compress::stc::Stc;
    let bundle = build(Workload::MnistLike, Scale::Smoke, 17);
    let cfg = smoke_cfg(3, &bundle);
    let model = bundle.model.as_ref();
    let full = Experiment::new(model, &bundle.data, FedAvg::new(), cfg)
        .run()
        .mean_upload_bytes() as f64;

    let paq = Experiment::new(
        model,
        &bundle.data,
        FedAvg::with_sketch(Arc::new(FedPaq::paper())),
        cfg,
    )
    .run();
    let sgn = Experiment::new(
        model,
        &bundle.data,
        FedAvg::with_sketch(Arc::new(SignSgd::default())),
        cfg,
    )
    .run();
    let stc = Experiment::new(
        model,
        &bundle.data,
        FedAvg::with_sketch(Arc::new(Stc::paper())),
        cfg,
    )
    .run();
    let dgc_cfg = ExperimentConfig { rounds: 7, ..cfg };
    let dgc = Experiment::new(
        model,
        &bundle.data,
        FedAvg::with_sketch(Arc::new(Dgc::paper())),
        dgc_cfg,
    )
    .run();

    // Save-ratio ordering of Table II: FedPAQ < SignSGD < STC ≈ DGC.
    let r = |log: &ExperimentLog| full / log.mean_upload_bytes() as f64;
    assert!(r(&paq) > 3.5 && r(&paq) < 4.5, "fedpaq {}", r(&paq));
    assert!(r(&sgn) > 25.0, "signsgd {}", r(&sgn));
    assert!(r(&stc) > 100.0, "stc {}", r(&stc));
    // DGC ramps sparsity over 4 warm-up rounds; judge the steady state.
    let per_round = full / dgc.records.last().unwrap().upload_bytes_mean as f64;
    assert!(per_round > 100.0, "dgc steady-state save {per_round}");
}

#[test]
fn fedbiad_with_dgc_combination_runs() {
    let bundle = build(Workload::PtbLike, Scale::Smoke, 19);
    let cfg = smoke_cfg(3, &bundle);
    let model = bundle.model.as_ref();
    let p = bundle.dropout_rate;
    let plain = Experiment::new(
        model,
        &bundle.data,
        FedBiad::new(FedBiadConfig::paper(p, 2)),
        cfg,
    )
    .run();
    let combo = Experiment::new(
        model,
        &bundle.data,
        FedBiad::with_sketch(FedBiadConfig::paper(p, 2), Arc::new(Dgc::paper())),
        cfg,
    )
    .run();
    assert_eq!(combo.method, "fedbiad+dgc");
    // After warm-up DGC compresses far below plain masked uploads; even
    // with 3 warm-up-heavy rounds the mean must not exceed plain.
    assert!(combo.mean_upload_bytes() <= plain.mean_upload_bytes());
    assert!(combo.records.iter().all(|r| r.test_loss.is_finite()));
}
