//! The simulator's correctness anchor: with the synchronous-barrier
//! policy, `fedbiad-sim` must reproduce the legacy lock-step runner's
//! round records **bit-for-bit** — same client selection, same local
//! updates, same aggregation, same evaluation. Only the timing fields
//! differ by construction (the runner measures wall-clock, the simulator
//! records virtual seconds), so they are excluded, exactly as in
//! `tests/thread_determinism.rs`.

use fedbiad::prelude::*;
use fedbiad::sim::CostModel;

fn base_cfg(bundle: &fedbiad::fl::workload::WorkloadBundle, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        rounds: 5,
        client_fraction: 0.5,
        seed,
        train: bundle.train,
        eval_topk: bundle.eval_topk,
        eval_every: 1,
        eval_max_samples: 0,
        ..Default::default()
    }
}

fn assert_records_bit_identical(a: &ExperimentLog, b: &ExperimentLog, what: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{what}: round count");
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.round, rb.round, "{what}: round index");
        assert_eq!(
            ra.train_loss.to_bits(),
            rb.train_loss.to_bits(),
            "{what}: train loss, round {}",
            ra.round
        );
        assert_eq!(
            ra.test_loss.to_bits(),
            rb.test_loss.to_bits(),
            "{what}: test loss, round {}",
            ra.round
        );
        assert_eq!(
            ra.test_acc.to_bits(),
            rb.test_acc.to_bits(),
            "{what}: test acc, round {}",
            ra.round
        );
        assert_eq!(
            ra.upload_bytes_mean, rb.upload_bytes_mean,
            "{what}: upload bytes, round {}",
            ra.round
        );
        assert_eq!(
            ra.upload_bytes_max, rb.upload_bytes_max,
            "{what}: max upload bytes, round {}",
            ra.round
        );
        assert_eq!(
            ra.download_bytes, rb.download_bytes,
            "{what}: download bytes, round {}",
            ra.round
        );
    }
}

#[test]
fn sync_barrier_reproduces_legacy_runner_for_fedavg() {
    let bundle = build(Workload::MnistLike, Scale::Smoke, 11);
    let cfg = base_cfg(&bundle, 11);

    let legacy = Experiment::new(bundle.model.as_ref(), &bundle.data, FedAvg::new(), cfg).run();
    let sim_cfg = SimConfig::new(cfg, HeterogeneityProfile::homogeneous_5g());
    let report = Simulator::new(
        bundle.model.as_ref(),
        &bundle.data,
        FedAvg::new(),
        SyncBarrier,
        sim_cfg,
    )
    .run();

    assert_records_bit_identical(&legacy, &report.log, "fedavg sync vs legacy");
    // The virtual clock moved strictly forward, one commit per round.
    assert_eq!(report.round_end_seconds.len(), 5);
    assert!(report.round_end_seconds.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn sync_barrier_reproduces_legacy_runner_for_fedbiad() {
    // FedBIAD exercises the richest per-round machinery: persistent
    // client score state, pattern sampling, masked uploads of varying
    // size, and the stage boundary.
    let bundle = build(Workload::MnistLike, Scale::Smoke, 2024);
    let cfg = base_cfg(&bundle, 2024);

    let mk = || FedBiad::new(FedBiadConfig::paper(bundle.dropout_rate, 3));
    let legacy = Experiment::new(bundle.model.as_ref(), &bundle.data, mk(), cfg).run();
    let sim_cfg = SimConfig::new(cfg, HeterogeneityProfile::homogeneous_5g());
    let report = Simulator::new(
        bundle.model.as_ref(),
        &bundle.data,
        mk(),
        SyncBarrier,
        sim_cfg,
    )
    .run();

    assert_records_bit_identical(&legacy, &report.log, "fedbiad sync vs legacy");
}

#[test]
fn heterogeneity_changes_virtual_time_but_not_sync_results() {
    // The barrier waits for everyone, so WHAT is learned is independent
    // of WHO is slow — only the virtual clock should move.
    let bundle = build(Workload::MnistLike, Scale::Smoke, 7);
    let cfg = base_cfg(&bundle, 7);

    let legacy = Experiment::new(bundle.model.as_ref(), &bundle.data, FedAvg::new(), cfg).run();
    let slow = HeterogeneityProfile::Stragglers {
        fraction: 0.5,
        slowdown: 25.0,
        jitter: 0.1,
    };
    let hetero = Simulator::new(
        bundle.model.as_ref(),
        &bundle.data,
        FedAvg::new(),
        SyncBarrier,
        SimConfig::new(cfg, slow),
    )
    .run();
    let homog = Simulator::new(
        bundle.model.as_ref(),
        &bundle.data,
        FedAvg::new(),
        SyncBarrier,
        SimConfig::new(cfg, HeterogeneityProfile::homogeneous_5g()),
    )
    .run();

    assert_records_bit_identical(&legacy, &hetero.log, "straggler sync vs legacy");
    assert!(
        hetero.total_virtual_seconds > 2.0 * homog.total_virtual_seconds,
        "stragglers should dominate the barrier: {} vs {}",
        hetero.total_virtual_seconds,
        homog.total_virtual_seconds
    );
}

#[test]
fn buffered_async_beats_sync_tta_on_straggler_cohort() {
    // The acceptance scenario: a cohort with hard stragglers. The sync
    // barrier pays the slowest client every round; FedBuff keeps fast
    // clients cycling and down-weights stale uploads, so it reaches the
    // same accuracy earlier on the virtual clock.
    let bundle = build(Workload::MnistLike, Scale::Smoke, 5);
    let mut cfg = base_cfg(&bundle, 5);
    cfg.rounds = 12;
    let stragglers = HeterogeneityProfile::Stragglers {
        fraction: 0.4,
        slowdown: 20.0,
        jitter: 0.05,
    };

    let sync = Simulator::new(
        bundle.model.as_ref(),
        &bundle.data,
        FedAvg::new(),
        SyncBarrier,
        SimConfig::new(cfg, stragglers),
    )
    .run();
    let cohort = fedbiad::fl::round::cohort_size(bundle.data.num_clients(), cfg.client_fraction);
    let buffered = Simulator::new(
        bundle.model.as_ref(),
        &bundle.data,
        FedAvg::new(),
        FedBuff::new((cohort / 2).max(1), cohort),
        SimConfig::new(cfg, stragglers),
    )
    .run();

    // A target both runs clear comfortably.
    let final_sync = sync.log.records.last().unwrap().test_acc;
    let final_buf = buffered.log.records.last().unwrap().test_acc;
    let target = 0.9 * final_sync.min(final_buf);
    let tta_sync = sync.time_to_accuracy(target).expect("sync reaches target");
    let tta_buf = buffered
        .time_to_accuracy(target)
        .expect("fedbuff reaches target");
    assert!(
        tta_buf < tta_sync,
        "buffered-async should win TTA under stragglers: {tta_buf:.3}s vs {tta_sync:.3}s \
         (target {target:.3}, finals {final_buf:.3}/{final_sync:.3})"
    );

    let cm = CostModel::default();
    assert!(
        cm.agg_seconds == 0.0,
        "default agg cost is off-critical-path"
    );
}
