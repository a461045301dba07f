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

use fedbiad::data::synth_image::{LazyClients, SyntheticImageSpec};
use fedbiad::fl::metrics;
use fedbiad::fl::round::{sample_clients_sparse, SamplerKind};
use fedbiad::fl::workload::{build_with, PopulationOverride, WorkloadOverrides};
use fedbiad::fl::AggSettings;
use fedbiad::prelude::*;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

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

/// The telemetry collector is process-global: a capture sees every
/// thread's counters. The tests that train hold this lock, so the
/// counter test's totals are its own run's.
static TRAINING: Mutex<()> = Mutex::new(());

fn training_lock() -> MutexGuard<'static, ()> {
    // A sibling that failed while training leaves nothing half-done here.
    TRAINING.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn hundred_thousand_client_round_stays_within_the_rss_budget() {
    let _training = training_lock();
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
/// change *when* samples exist, never *what* they contain. `batch_size`
/// 1 reads a fraction of each shard (most samples are never derived); 32
/// reads all of it.
#[test]
fn lazy_training_is_bit_identical_to_materialised() {
    let _training = training_lock();
    let bundle = lazy_bundle(512, 24, 7);
    let eager = bundle.data.materialize();
    assert_eq!(eager.num_clients(), 512);
    assert!(eager.lazy.is_none());

    let model = bundle.model.as_ref();
    for batch_size in [bundle.train.batch_size, 1] {
        let mut cfg = population_cfg(&bundle, 7, 2, 16);
        cfg.train.batch_size = batch_size;
        let run = |data: &FedDataset| Experiment::new(model, data, FedAvg::new(), cfg).run();
        assert_logs_bit_identical(
            &run(&bundle.data),
            &run(&eager),
            &format!("fedavg lazy vs eager, batch {batch_size}"),
        );

        let masked = |data: &FedDataset| {
            let algo = FedBiad::new(FedBiadConfig::paper(bundle.dropout_rate, 1));
            Experiment::new(model, data, algo, cfg).run()
        };
        assert_logs_bit_identical(
            &masked(&bundle.data),
            &masked(&eager),
            &format!("fedbiad lazy vs eager, batch {batch_size}"),
        );
    }

    // The `million_sparse` shape: batch 1 under FedBuff with stragglers,
    // where a client can be dispatched again within one round.
    let mut cfg = population_cfg(&bundle, 7, 3, 16);
    cfg.train.batch_size = 1;
    let stragglers = HeterogeneityProfile::Stragglers {
        fraction: 0.2,
        slowdown: 5.0,
        jitter: 0.1,
    };
    let fedbuff = |data: &FedDataset| {
        let sim_cfg = SimConfig::new(cfg, stragglers);
        Simulator::new(model, data, FedAvg::new(), FedBuff::new(8, 16), sim_cfg).run()
    };
    let (lazy, resident) = (fedbuff(&bundle.data), fedbuff(&eager));
    assert_logs_bit_identical(&lazy.log, &resident.log, "fedbuff lazy vs eager, batch 1");
    assert_eq!(
        lazy.total_virtual_seconds.to_bits(),
        resident.total_virtual_seconds.to_bits()
    );
}

/// The reader's counter says what a lazy local run did to its shard:
/// exactly one derivation per distinct index the batch stream drew —
/// a fraction of the shard at batch 1 — and nothing for the rest.
#[test]
fn lazy_run_counts_samples_derived() {
    if !fedbiad::telemetry::compiled() {
        eprintln!("telemetry not compiled in; counter test skipped");
        return;
    }
    let _training = training_lock();
    let (samples, cohort, rounds) = (60, 16, 2);
    let bundle = lazy_bundle(512, samples, 42);
    let mut cfg = population_cfg(&bundle, 42, rounds, cohort);
    cfg.train.batch_size = 1;

    fedbiad::telemetry::begin_capture();
    let log = Experiment::new(bundle.model.as_ref(), &bundle.data, FedAvg::new(), cfg).run();
    let summary = fedbiad::telemetry::end_capture().summary();

    let dispatches: usize = log.records.iter().map(|r| r.contributors).sum();
    assert_eq!(dispatches, cohort * rounds);
    let derived = summary.counter("data.samples_derived").unwrap_or(0) as usize;
    let reads = cfg.train.local_iters * cfg.train.batch_size * dispatches;
    assert!(
        derived > reads / 2 && derived <= reads,
        "{derived} samples derived for {dispatches} runs of {} batch-1 reads",
        cfg.train.local_iters
    );
    assert!(
        derived < samples * dispatches / 2,
        "{derived} derived of {dispatches} shards of {samples}: most of a shard is never read"
    );
    assert_eq!(
        summary.counter("data.samples_advanced"),
        None,
        "no sample is stepped over any more"
    );
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
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
        let (ClientData::LazyImage(view), ClientData::Image(e)) =
            (lazy.as_ref(), &eager.clients[id])
        else {
            panic!("a population override builds lazy views; materialising makes them resident");
        };
        prop_assert_eq!(lazy.num_samples(), e.len());
        let l = view.materialize();
        prop_assert_eq!(l.dim, e.dim);
        prop_assert_eq!(&l.y, &e.y);
        prop_assert_eq!(l.x.len(), e.x.len());
        for (a, b) in l.x.iter().zip(&e.x) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Whatever a `ShardReader` gathers equals the whole-shard
    /// specification `client_data(c)` bit for bit — for any generator
    /// spec (incl. no shift, no noise), population, shard size, seed,
    /// client and index *sequence* (duplicates, descending, everything,
    /// nothing, only the last sample) — and reading more never changes a
    /// row already read.
    #[test]
    fn shard_reader_equals_the_whole_shard_pass_for_any_index_sequence(
        clients in 1usize..400,
        samples in 1usize..=64,
        seed in 0u64..1_000,
        probe in 0usize..400,
        side in 1usize..7,
        classes in 1usize..6,
        prototypes_per_class in 1usize..4,
        shift_max in 0usize..3,
        noise in prop::sample::select(vec![0.0f32, 0.08, 0.6]),
        shape in 0usize..5,
        raw in collection::vec(0usize..1_000, 0..48),
        batch in 1usize..9,
    ) {
        let spec = SyntheticImageSpec {
            classes,
            side,
            train_n: 0,
            test_n: 0,
            prototypes_per_class,
            bumps: 2,
            distinctiveness: 0.8,
            noise,
            shift_max,
        };
        let dim = spec.dim();
        let lazy = LazyClients::new(spec, seed, clients, samples);
        let c = probe % clients;
        let ClientData::Image(want) = lazy.client_data(c) else {
            panic!("the specification is a resident image set");
        };
        let idx: Vec<usize> = match shape {
            0 => raw.iter().map(|r| r % samples).collect(),
            1 => (0..samples).rev().collect(),
            2 => (0..samples).collect(),
            3 => Vec::new(),
            _ => vec![samples - 1],
        };

        let view = lazy.shard(c);
        prop_assert_eq!((view.len(), view.dim()), (samples, dim));
        let mut reader = view.reader();
        let (mut bx, mut by) = (Vec::new(), Vec::new());
        let mut seen: Vec<usize> = Vec::new();
        for chunk in idx.chunks(batch) {
            reader.gather(chunk, &mut bx, &mut by);
            seen.extend(chunk);
            prop_assert_eq!(by.len(), chunk.len());
            prop_assert_eq!(bx.len(), chunk.len() * dim);
            // This batch, and every row memoised before it.
            for (&i, row) in chunk.iter().zip(bx.chunks(dim.max(1))) {
                prop_assert_eq!(bits(row), bits(want.sample(i)));
            }
            for (&i, &y) in chunk.iter().zip(&by) {
                prop_assert_eq!(y, want.y[i]);
            }
            for &i in &seen {
                prop_assert_eq!(bits(reader.sample(i)), bits(want.sample(i)));
            }
        }
        // One derivation per distinct index, whatever the order.
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(reader.derived(), seen.len());
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
