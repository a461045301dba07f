//! Million-client memory regression. A `[population]` round must stay
//! O(cohort) in memory: registering 10⁵ clients and running one
//! simulated round may not move the process peak RSS by more than a
//! committed budget (the eagerly materialised equivalent would need
//! ≈ 1.5 GB for the client shards alone). The lazy data path is pinned
//! to the eager one by differential + property tests — materialising
//! the whole population and training on it must reproduce the lazy run
//! bit for bit.
//!
//! The RSS assertion reads `VmHWM`, which is process-wide and
//! monotonic, so it lives in its own integration-test file: this binary
//! runs only small companion tests whose allocations are far below the
//! budget.

use fedbiad::fl::metrics;
use fedbiad::fl::round::{sample_clients_sparse, SamplerKind};
use fedbiad::fl::workload::{build_with, PopulationOverride, WorkloadOverrides};
use fedbiad::fl::AggSettings;
use fedbiad::prelude::*;
use proptest::prelude::*;

/// Peak-RSS delta budget for a 10⁵-client lazy round. The cohort is 64
/// clients of 60 samples × 64 features — well under a megabyte of live
/// shard data — so the budget is dominated by allocator slack and the
/// event trace, with an order of magnitude of headroom before it gets
/// anywhere near the ≈ 1.5 GB an eager population would cost.
const RSS_BUDGET_BYTES: u64 = 256 * 1024 * 1024;

fn population_cfg(
    bundle: &fedbiad::fl::workload::WorkloadBundle,
    seed: u64,
    rounds: usize,
    cohort: usize,
) -> ExperimentConfig {
    ExperimentConfig {
        rounds,
        client_fraction: 0.1,
        seed,
        train: bundle.train,
        eval_topk: bundle.eval_topk,
        eval_every: 1,
        eval_max_samples: 200,
        agg: AggSettings::sharded_tree(64, 16),
        cohort: Some(cohort),
        sampler: SamplerKind::Sparse,
        ..Default::default()
    }
}

fn lazy_bundle(clients: usize, samples: usize, seed: u64) -> fedbiad::fl::workload::WorkloadBundle {
    let overrides = WorkloadOverrides {
        population: Some(PopulationOverride {
            clients,
            samples_per_client: samples,
        }),
        ..Default::default()
    };
    build_with(Workload::MnistLike, Scale::Smoke, seed, &overrides)
}

#[test]
fn hundred_thousand_client_round_stays_within_the_rss_budget() {
    let peak_before = metrics::peak_rss_bytes();
    let bundle = lazy_bundle(100_000, 60, 42);
    assert_eq!(bundle.data.num_clients(), 100_000);

    let cfg = population_cfg(&bundle, 42, 1, 64);
    let sim_cfg = SimConfig::new(cfg, HeterogeneityProfile::homogeneous_5g());
    let report = Simulator::new(
        bundle.model.as_ref(),
        &bundle.data,
        FedAvg::new(),
        SyncBarrier,
        sim_cfg,
    )
    .run();
    assert_eq!(report.log.records.len(), 1, "the round must complete");

    let peak_after = metrics::peak_rss_bytes();
    // /proc may be unreadable in exotic sandboxes; the budget assertion
    // only makes sense when both samples are real.
    if peak_before > 0 && peak_after > 0 {
        let delta = peak_after.saturating_sub(peak_before);
        assert!(
            delta < RSS_BUDGET_BYTES,
            "10^5-client lazy round moved peak RSS by {:.1} MiB (budget {:.0} MiB) — \
             an O(registered-clients) allocation has crept back in",
            delta as f64 / (1024.0 * 1024.0),
            RSS_BUDGET_BYTES as f64 / (1024.0 * 1024.0),
        );
    }
}

fn assert_logs_bit_identical(a: &ExperimentLog, b: &ExperimentLog, what: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{what}: round count");
    for (ra, rb) in a.records.iter().zip(&b.records) {
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
    }
}

/// Training on the lazy dataset must be bit-identical to training on a
/// fully materialised copy of the same population — the lazy path may
/// change *when* shards exist, never *what* they contain.
#[test]
fn lazy_training_is_bit_identical_to_materialised() {
    let bundle = lazy_bundle(512, 24, 7);
    let eager = bundle.data.materialize();
    assert_eq!(eager.num_clients(), 512);
    assert!(eager.lazy.is_none());

    let cfg = population_cfg(&bundle, 7, 2, 16);
    let run =
        |data: &FedDataset| Experiment::new(bundle.model.as_ref(), data, FedAvg::new(), cfg).run();
    assert_logs_bit_identical(&run(&bundle.data), &run(&eager), "fedavg lazy vs eager");

    let masked = |data: &FedDataset| {
        let algo = FedBiad::new(FedBiadConfig::paper(bundle.dropout_rate, 1));
        Experiment::new(bundle.model.as_ref(), data, algo, cfg).run()
    };
    assert_logs_bit_identical(
        &masked(&bundle.data),
        &masked(&eager),
        "fedbiad lazy vs eager",
    );
}

proptest! {
    /// Every lazily derived shard matches the materialised table bit for
    /// bit, for arbitrary (population, shard size, seed, client).
    #[test]
    fn lazy_shards_match_materialised_for_any_population(
        clients in 1usize..400,
        samples in 1usize..48,
        seed in 0u64..1_000,
        probe in 0usize..400,
    ) {
        let bundle = lazy_bundle(clients, samples, seed);
        let eager = bundle.data.materialize();
        let id = probe % clients;
        let lazy = bundle.data.client(id);
        let (ClientData::Image(l), ClientData::Image(e)) = (lazy.as_ref(), &eager.clients[id])
        else {
            panic!("population override builds image shards");
        };
        prop_assert_eq!(l.dim, e.dim);
        prop_assert_eq!(&l.y, &e.y);
        prop_assert_eq!(l.x.len(), e.x.len());
        for (a, b) in l.x.iter().zip(&e.x) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Floyd's sparse sampler draws exactly `cohort` unique, in-range,
    /// sorted ids and is a pure function of `(seed, round)` — for
    /// arbitrary (num_clients, cohort, seed, round).
    #[test]
    fn sparse_sampler_is_exact_unique_and_deterministic(
        num_clients in 1usize..100_000,
        cohort_raw in 1usize..256,
        seed in 0u64..1_000,
        round in 0usize..50,
    ) {
        let cohort = cohort_raw.min(num_clients);
        let draw = || sample_clients_sparse(seed, round, num_clients, cohort);
        let a = draw();
        prop_assert_eq!(a.len(), cohort);
        prop_assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted unique");
        prop_assert!(a.iter().all(|&c| c < num_clients));
        prop_assert_eq!(&a, &draw());
    }
}
