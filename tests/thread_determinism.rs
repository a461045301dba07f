//! Regression guard for the parallel-aggregation ordering contract: the
//! exact same experiment must produce **bit-identical** logs whether the
//! worker pool has one thread (`RAYON_NUM_THREADS=1`) or the machine
//! default. The vendored rayon shim guarantees this by claiming work items
//! from an atomic counter into per-index result slots and folding
//! reductions in item-index order — this test keeps anyone from regressing
//! that into a scheduling-order-dependent reduce.
//!
//! Timing fields (`local_seconds_*`, `agg_seconds`) are genuinely
//! wall-clock and excluded from the comparison.

use fedbiad::prelude::*;
use std::sync::Mutex;

#[path = "support/oracle.rs"]
mod oracle;
use oracle::DenseTwinClients;

/// Tests in this binary mutate the process-wide `RAYON_NUM_THREADS`
/// variable; they must not interleave or a "1 thread" run could silently
/// execute at the default width.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn run_once(seed: u64) -> ExperimentLog {
    let bundle = build(Workload::MnistLike, Scale::Smoke, seed);
    let cfg = ExperimentConfig {
        rounds: 4,
        client_fraction: 0.5,
        seed,
        train: bundle.train,
        eval_topk: 1,
        eval_every: 1,
        eval_max_samples: 0,
        ..Default::default()
    };
    let algo = FedBiad::new(FedBiadConfig::paper(bundle.dropout_rate, 2));
    Experiment::new(bundle.model.as_ref(), &bundle.data, algo, cfg).run()
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
fn single_thread_and_default_threading_agree_bitwise() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Flip the env var between runs. The rayon shim re-reads
    // RAYON_NUM_THREADS on every parallel call, so the setting takes
    // effect immediately.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let single = run_once(2024);
    std::env::remove_var("RAYON_NUM_THREADS");
    let parallel = run_once(2024);
    assert_logs_bit_identical(&single, &parallel, "1 thread vs default");

    // An oversubscribed pool must agree too (stress the claim ordering).
    std::env::set_var("RAYON_NUM_THREADS", "16");
    let oversub = run_once(2024);
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_logs_bit_identical(&single, &oversub, "1 thread vs 16 threads");
}

/// The streaming sharded aggregation engine parallelises over shards;
/// the full experiment must stay bit-identical across thread counts —
/// and to the same experiment aggregated on the dense oracle (the
/// cross-engine contract lives in `tests/aggregation_equivalence.rs`;
/// this pins the thread axis on a whole training run with tiny 1 KiB
/// shards, the raggedest schedule).
fn run_once_tiny_shards(seed: u64, oracle: bool) -> ExperimentLog {
    let bundle = build(Workload::MnistLike, Scale::Smoke, seed);
    let cfg = ExperimentConfig {
        rounds: 4,
        client_fraction: 0.5,
        seed,
        train: bundle.train,
        eval_topk: 1,
        eval_every: 1,
        eval_max_samples: 0,
        agg: fedbiad::fl::AggSettings::sharded(1),
        ..Default::default()
    };
    let (model, data) = (bundle.model.as_ref(), &bundle.data);
    let algo = FedBiad::new(FedBiadConfig::paper(bundle.dropout_rate, 2));
    if oracle {
        // Dense twins in, so every aggregation routes to the oracle.
        Experiment::new(model, data, DenseTwinClients(algo), cfg).run()
    } else {
        Experiment::new(model, data, algo, cfg).run()
    }
}

#[test]
fn streaming_aggregation_is_bitwise_thread_invariant() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let single = run_once_tiny_shards(2024, false);
    // Streaming and oracle runs of the same experiment agree bitwise, and
    // the shard size (1 KiB here, the 64 KiB default there) is inert.
    let dense = run_once_tiny_shards(2024, true);
    assert_logs_bit_identical(&single, &dense, "streaming vs dense oracle");
    assert_logs_bit_identical(&single, &run_once(2024), "1 KiB vs 64 KiB shards");
    for threads in ["2", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let multi = run_once_tiny_shards(2024, false);
        assert_logs_bit_identical(&single, &multi, "streaming 1 thread vs more");
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

/// Telemetry inertness on the thread axis: the same experiment run under
/// an **active** capture must stay bit-identical to the quiescent run at
/// every pool width. Workspace builds compile the collector in (the
/// bench harness enables it); `-p`-scoped builds get the no-op version
/// and skip this leg.
#[test]
fn active_telemetry_capture_is_bitwise_thread_invariant() {
    if !fedbiad::telemetry::compiled() {
        eprintln!("telemetry not compiled in; capture leg skipped");
        return;
    }
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let quiescent = run_once(2024);
    for threads in ["1", "2", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        fedbiad::telemetry::begin_capture();
        let captured = run_once(2024);
        let capture = fedbiad::telemetry::end_capture();
        assert!(!capture.is_empty(), "capture recorded nothing");
        assert_logs_bit_identical(
            &quiescent,
            &captured,
            &format!("quiescent vs captured at {threads} thread(s)"),
        );
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

/// One full discrete-event simulation: FedBuff (the policy with the most
/// scheduling freedom) on a straggler cohort, FedBIAD as the algorithm
/// (masked uploads of varying wire size feed back into arrival times).
fn run_sim_once(seed: u64) -> fedbiad::sim::SimReport {
    use fedbiad::sim::{FedBuff, HeterogeneityProfile, SimConfig, Simulator};
    let bundle = build(Workload::MnistLike, Scale::Smoke, seed);
    let cfg = ExperimentConfig {
        rounds: 6,
        client_fraction: 0.5,
        seed,
        train: bundle.train,
        eval_topk: 1,
        eval_every: 1,
        eval_max_samples: 0,
        ..Default::default()
    };
    let stragglers = HeterogeneityProfile::Stragglers {
        fraction: 0.3,
        slowdown: 15.0,
        jitter: 0.2,
    };
    let algo = FedBiad::new(FedBiadConfig::paper(bundle.dropout_rate, 4));
    Simulator::new(
        bundle.model.as_ref(),
        &bundle.data,
        algo,
        FedBuff::new(2, 4),
        SimConfig::new(cfg, stragglers),
    )
    .run()
}

fn assert_traces_bit_identical(
    a: &fedbiad::sim::SimReport,
    b: &fedbiad::sim::SimReport,
    what: &str,
) {
    assert_eq!(a.trace.len(), b.trace.len(), "{what}: trace length");
    for (i, (ea, eb)) in a.trace.iter().zip(&b.trace).enumerate() {
        assert_eq!(
            ea.time.to_bits(),
            eb.time.to_bits(),
            "{what}: event {i} time {} vs {}",
            ea.time,
            eb.time
        );
        assert_eq!(ea.kind, eb.kind, "{what}: event {i} kind");
        assert_eq!(ea.client, eb.client, "{what}: event {i} client");
        assert_eq!(ea.rounds_done, eb.rounds_done, "{what}: event {i} round");
    }
    assert_eq!(
        a.total_virtual_seconds.to_bits(),
        b.total_virtual_seconds.to_bits(),
        "{what}: total virtual time"
    );
    assert_logs_bit_identical(&a.log, &b.log, what);
}

/// The batched GEMM kernels parallelise over tile rows (blocks of four
/// samples, pairs of sample rows, aligned groups of four gradient rows);
/// their outputs must not depend on how those are scheduled — with every
/// row and with a kept-row subset. Both shapes cross the parallel
/// threshold with a tile-row count that neither 2 nor 8 divides (11 / 22
/// / 11 and 23 / 47 / 23, each with remainder rows after the last whole
/// tile) and a non-multiple-of-4 inner dimension; the first is too wide
/// for a two-row accumulation tile (`n = 97`: one row × 12 vectors and a
/// scalar column), the second is the LSTM's width (`n = 48`: two rows × 6).
#[test]
fn batched_kernels_are_bitwise_thread_invariant() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (m, n, k) in [(45usize, 97usize, 131usize), (94, 48, 27)] {
        assert!(m * n >= 4096, "every kernel takes its rayon branch");
        batched_kernels_agree_across_thread_counts(m, n, k);
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

fn batched_kernels_agree_across_thread_counts(m: usize, n: usize, k: usize) {
    use fedbiad::tensor::ops;
    use fedbiad::tensor::rng::{stream, StreamTag};
    use fedbiad::tensor::Matrix;
    use rand::Rng;

    let mut rng = stream(7, StreamTag::Init, 0, 0);
    let mut fill = |len: usize| -> Vec<f32> {
        (0..len)
            .map(|_| {
                if rng.gen_range(0..6) == 0 {
                    0.0
                } else {
                    rng.gen_range(-1.5f32..1.5)
                }
            })
            .collect()
    };
    let a = fill(m * k);
    let wt = Matrix::from_vec(n, k, fill(n * k)); // n×k: gemm_nt operand
    let wn = Matrix::from_vec(k, n, fill(k * n)); // k×n: gemm_nn operand
    let coeffs = fill(k * m);
    let order: Vec<usize> = (0..k).rev().collect();

    // Every third row of the weight / gradient matrix, and every row.
    let thirds = |rows: usize| -> Vec<u32> { (0..rows as u32).step_by(3).collect() };
    let (kept_n, kept_k, kept_m) = (thirds(n), thirds(k), thirds(m));
    let run_all = |subset: bool| {
        let [rows_n, rows_k, rows_m] =
            [&kept_n, &kept_k, &kept_m].map(|kept| subset.then_some(&kept[..]));
        let mut nt = vec![0.0f32; m * n];
        ops::gemm_nt(&a, &wt, m, rows_n, &mut nt);
        let mut nn = vec![0.0f32; m * n];
        ops::gemm_nn(&a, &wn, m, rows_k, &mut nn);
        let mut tn = Matrix::zeros(m, n);
        ops::gemm_tn_acc(&coeffs, wn.as_slice(), k, rows_m, &mut tn);
        let mut ord = Matrix::zeros(m, n);
        ops::gemm_tn_acc_ord(&coeffs, wn.as_slice(), &order, 0, rows_m, &mut ord);
        (nt, nn, tn, ord)
    };

    for (subset, threads) in [(false, "2"), (false, "8"), (true, "2"), (true, "8")] {
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let base = run_all(subset);
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let got = run_all(subset);
        let pairs = [(&base.0, &got.0, "gemm_nt"), (&base.1, &got.1, "gemm_nn")];
        for (b, g, what) in pairs {
            for (i, (x, y)) in b.iter().zip(g.iter()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{what}[{i}] at {threads} threads: {x} vs {y}"
                );
            }
        }
        assert_eq!(
            base.2
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            got.2
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "gemm_tn_acc at {threads} threads"
        );
        assert_eq!(
            base.3
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            got.3
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "gemm_tn_acc_ord at {threads} threads"
        );
    }
}

#[test]
fn sim_event_trace_is_bitwise_thread_invariant() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Property over several seeds: the simulator's event trace — times,
    // kinds, clients, committed rounds — is a pure function of (seed,
    // config), never of the rayon pool size.
    for seed in [2024u64, 31, 77] {
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let single = run_sim_once(seed);
        std::env::remove_var("RAYON_NUM_THREADS");
        let parallel = run_sim_once(seed);
        assert_traces_bit_identical(&single, &parallel, &format!("seed {seed}: 1 vs default"));

        std::env::set_var("RAYON_NUM_THREADS", "16");
        let oversub = run_sim_once(seed);
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_traces_bit_identical(&single, &oversub, &format!("seed {seed}: 1 vs 16"));

        // Same seed, same config ⇒ same trace; the trace is non-trivial.
        assert!(single.trace.len() > 20, "trace unexpectedly small");
    }
}
