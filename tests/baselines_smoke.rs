//! Fast smoke coverage: every one of the six baselines runs for 2 rounds
//! at `Scale::Smoke` and produces finite losses plus sane upload-byte
//! accounting. This is the cheap canary that catches "a baseline panics or
//! stops accounting bytes" long before the heavier convergence suites.

use fedbiad::prelude::*;

fn smoke_cfg(bundle: &fedbiad::fl::workload::WorkloadBundle, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        rounds: 2,
        client_fraction: 0.3,
        seed,
        train: bundle.train,
        eval_topk: bundle.eval_topk,
        eval_every: 1,
        eval_max_samples: 0,
        ..Default::default()
    }
}

#[test]
fn all_six_baselines_smoke_on_images() {
    let bundle = build(Workload::MnistLike, Scale::Smoke, 71);
    let cfg = smoke_cfg(&bundle, 71);
    let p = bundle.dropout_rate;
    let model = bundle.model.as_ref();
    let full_bytes = {
        use fedbiad::tensor::rng::{stream, StreamTag};
        model
            .init_params(&mut stream(71, StreamTag::Init, 0, 0))
            .total_bytes()
    };

    let logs = vec![
        Experiment::new(model, &bundle.data, FedAvg::new(), cfg).run(),
        Experiment::new(model, &bundle.data, FedDrop::new(p), cfg).run(),
        Experiment::new(model, &bundle.data, Afd::new(p), cfg).run(),
        Experiment::new(model, &bundle.data, FedMp::new(p), cfg).run(),
        Experiment::new(model, &bundle.data, Fjord::new(p), cfg).run(),
        Experiment::new(model, &bundle.data, HeteroFl::new(p), cfg).run(),
    ];

    let names: Vec<String> = logs.iter().map(|l| l.method.clone()).collect();
    assert_eq!(names.len(), 6);
    for log in &logs {
        assert_eq!(log.records.len(), 2, "{}: wrong round count", log.method);
        for r in &log.records {
            assert!(
                r.train_loss.is_finite(),
                "{} round {}: train loss",
                log.method,
                r.round
            );
            assert!(
                r.test_loss.is_finite(),
                "{} round {}: test loss",
                log.method,
                r.round
            );
            assert!(
                r.test_acc.is_finite(),
                "{} round {}: test acc",
                log.method,
                r.round
            );
            assert!(
                r.upload_bytes_mean > 0,
                "{} round {}: zero mean upload bytes",
                log.method,
                r.round
            );
            assert!(
                r.upload_bytes_max >= r.upload_bytes_mean,
                "{} round {}: max < mean upload bytes",
                log.method,
                r.round
            );
            assert!(
                r.upload_bytes_max <= full_bytes,
                "{} round {}: upload exceeds dense model",
                log.method,
                r.round
            );
            assert!(
                r.download_bytes == full_bytes,
                "{} round {}: downlink must be the full global model",
                log.method,
                r.round
            );
        }
    }
}

#[test]
fn all_six_baselines_smoke_on_text() {
    // On the LSTM workload FedMP prunes only the dense head (recurrent and
    // embedding structure is off-limits), but it must still run cleanly.
    let bundle = build(Workload::PtbLike, Scale::Smoke, 73);
    let cfg = smoke_cfg(&bundle, 73);
    let p = bundle.dropout_rate;
    let model = bundle.model.as_ref();

    let logs = vec![
        Experiment::new(model, &bundle.data, FedAvg::new(), cfg).run(),
        Experiment::new(model, &bundle.data, FedDrop::new(p), cfg).run(),
        Experiment::new(model, &bundle.data, Afd::new(p), cfg).run(),
        Experiment::new(model, &bundle.data, FedMp::new(p), cfg).run(),
        Experiment::new(model, &bundle.data, Fjord::new(p), cfg).run(),
        Experiment::new(model, &bundle.data, HeteroFl::new(p), cfg).run(),
    ];
    for log in &logs {
        assert_eq!(log.records.len(), 2, "{}", log.method);
        assert!(
            log.records
                .iter()
                .all(|r| r.train_loss.is_finite() && r.test_loss.is_finite()),
            "{}: non-finite loss",
            log.method
        );
        assert!(
            log.mean_upload_bytes() > 0,
            "{}: zero upload accounting",
            log.method
        );
    }
}
