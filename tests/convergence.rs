//! Convergence-shape integration tests: slower than unit tests, these
//! verify the *qualitative* claims the benchmarks rely on, at smoke scale.

use fedbiad::core::theory::{generalization_bound, m_r, TheoryParams};
use fedbiad::prelude::*;

#[test]
fn fedavg_and_fedbiad_both_learn_mnist_like() {
    let bundle = build(Workload::MnistLike, Scale::Smoke, 31);
    let rounds = 24;
    let cfg = ExperimentConfig {
        rounds,
        client_fraction: 0.4,
        seed: 31,
        train: bundle.train,
        eval_topk: 1,
        eval_every: 1,
        eval_max_samples: 0,
        ..Default::default()
    };
    let avg = Experiment::new(bundle.model.as_ref(), &bundle.data, FedAvg::new(), cfg).run();
    let biad = Experiment::new(
        bundle.model.as_ref(),
        &bundle.data,
        FedBiad::new(FedBiadConfig::paper(bundle.dropout_rate, rounds - 4)),
        cfg,
    )
    .run();
    // Chance on the 4-class smoke task is 25 %.
    assert!(
        avg.final_accuracy_pct() > 45.0,
        "fedavg {}",
        avg.final_accuracy_pct()
    );
    assert!(
        biad.final_accuracy_pct() > 40.0,
        "fedbiad {}",
        biad.final_accuracy_pct()
    );
    // FedBIAD stays within a reasonable band of FedAvg while uploading less.
    assert!(biad.final_accuracy_pct() > avg.final_accuracy_pct() - 20.0);
    assert!(biad.mean_upload_bytes() < avg.mean_upload_bytes());
}

#[test]
fn lstm_learns_above_unigram_baseline() {
    let bundle = build(Workload::PtbLike, Scale::Smoke, 37);
    let rounds = 15;
    let cfg = ExperimentConfig {
        rounds,
        client_fraction: 0.5,
        seed: 37,
        train: bundle.train,
        eval_topk: 3,
        eval_every: 1,
        eval_max_samples: 0,
        ..Default::default()
    };
    let avg = Experiment::new(bundle.model.as_ref(), &bundle.data, FedAvg::new(), cfg).run();
    let first = avg.records[0].test_loss;
    let last = avg.records.last().unwrap().test_loss;
    assert!(last < first, "test loss should fall: {first} -> {last}");
    assert!(avg.final_accuracy_pct() > 10.0);
}

#[test]
fn train_loss_trends_down_for_fedbiad() {
    let bundle = build(Workload::MnistLike, Scale::Smoke, 41);
    let rounds = 16;
    let cfg = ExperimentConfig {
        rounds,
        client_fraction: 0.4,
        seed: 41,
        train: bundle.train,
        eval_topk: 1,
        eval_every: 4,
        eval_max_samples: 0,
        ..Default::default()
    };
    let log = Experiment::new(
        bundle.model.as_ref(),
        &bundle.data,
        FedBiad::new(FedBiadConfig::paper(0.3, rounds - 4)),
        cfg,
    )
    .run();
    let head: f32 = log.records[..4].iter().map(|r| r.train_loss).sum::<f32>() / 4.0;
    let tail: f32 = log.records[rounds - 4..]
        .iter()
        .map(|r| r.train_loss)
        .sum::<f32>()
        / 4.0;
    assert!(tail < head, "train loss should fall: {head} -> {tail}");
}

#[test]
fn theorem1_bound_decreases_and_dominates_zero() {
    let bundle = build(Workload::MnistLike, Scale::Smoke, 43);
    let arch = bundle.model.arch();
    let p = TheoryParams::from_arch(&arch, bundle.dropout_rate as f64);
    let min_dk = bundle.data.min_client_samples();
    let mut prev = f64::INFINITY;
    for r in 1..=40 {
        let b = generalization_bound(&p, m_r(r, bundle.train.local_iters, min_dk), 0.0);
        assert!(b > 0.0 && b < prev, "round {r}: {b} !< {prev}");
        prev = b;
    }
}

#[test]
fn tta_improves_with_smaller_uploads_all_else_equal() {
    use fedbiad::fl::timing::time_to_accuracy;
    let bundle = build(Workload::MnistLike, Scale::Smoke, 47);
    let rounds = 18;
    let cfg = ExperimentConfig {
        rounds,
        client_fraction: 0.4,
        seed: 47,
        train: bundle.train,
        eval_topk: 1,
        eval_every: 1,
        eval_max_samples: 0,
        ..Default::default()
    };
    let net = NetworkModel::t_mobile_5g();
    let avg = Experiment::new(bundle.model.as_ref(), &bundle.data, FedAvg::new(), cfg).run();
    let biad = Experiment::new(
        bundle.model.as_ref(),
        &bundle.data,
        FedBiad::new(FedBiadConfig::paper(bundle.dropout_rate, rounds - 4)),
        cfg,
    )
    .run();
    // Use a soft target both reach; FedBIAD's smaller uploads should not
    // make it slower per unit accuracy unless it needs many more rounds.
    let target = 0.45;
    let t_avg = time_to_accuracy(&avg.records, target, &net);
    let t_biad = time_to_accuracy(&biad.records, target, &net);
    assert!(
        t_avg.is_some() && t_biad.is_some(),
        "both should reach {target}"
    );
    // Not asserting strict ordering at smoke scale — only that both are
    // finite and FedBIAD is not catastrophically slower.
    assert!(t_biad.unwrap() < 3.0 * t_avg.unwrap());
}
