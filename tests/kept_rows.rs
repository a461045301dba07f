//! The kept-row engine (`Model::loss_grad_kept` + the `rows` argument of
//! the `fedbiad-tensor` GEMMs) against its specification: the same call
//! with no view, i.e. **dense through the zeroed rows**. Everything a
//! local step hands on — the loss, the masked gradient, `U` after the
//! SGD step — must carry the same bits either way; only the work differs.
//!
//! Three layers:
//!  * model level (property test): MLP and 2-layer LSTM, the three mask
//!    shapes the methods produce, FedBIAD's sampled θ included;
//!  * the `nn.rows_computed` / `nn.rows_skipped` counters of captured
//!    runs against independent counts of the same rows;
//!  * where the LSTM's spans sit in a captured run.
//!
//! (`crates/tensor/tests/kernel_props.rs` pins the kernels themselves,
//! `tests/batched_equivalence.rs` whole experiments.)

use fedbiad::core::neuron::{derive_groups, mask_from_dropped_units};
use fedbiad::core::spike_slab::sample_theta_into;
use fedbiad::core::DropPattern;
use fedbiad::fl::algorithm::{FlAlgorithm, RoundInfo};
use fedbiad::nn::lstm_lm::LstmLmModel;
use fedbiad::nn::mask::{BitVec, CoverageMask};
use fedbiad::nn::mlp::MlpModel;
use fedbiad::nn::optimizer::Sgd;
use fedbiad::nn::{Batch, KeptRows, ModelMask, RowWork};
use fedbiad::prelude::*;
use fedbiad::telemetry::EventKind;
use fedbiad::tensor::rng::{stream, StreamTag};
use fedbiad::tensor::Workspace;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// The telemetry collector is process-global: a test that reads the
/// spans and counters of a captured run must not overlap another test's
/// model calls, so every test in this binary holds the lock.
static TRAINING: Mutex<()> = Mutex::new(());

fn training_lock() -> MutexGuard<'static, ()> {
    TRAINING.lock().unwrap_or_else(|e| e.into_inner())
}

fn bits(p: &ParamSet) -> Vec<u32> {
    p.flatten().iter().map(|v| v.to_bits()).collect()
}

fn total_rows(p: &ParamSet) -> u64 {
    (0..p.num_entries()).map(|e| p.mat(e).rows() as u64).sum()
}

/// Matrix rows `mask` drops, over all entries.
fn dropped_rows(mask: &ModelMask) -> u64 {
    mask.per_entry
        .iter()
        .map(|m| match m {
            CoverageMask::Rows(rows) | CoverageMask::RowsCols { rows, .. } => {
                (rows.len() - rows.count_ones()) as u64
            }
            CoverageMask::Full | CoverageMask::Elements(_) => 0,
        })
        .sum()
}

/// A few values of `u` replaced by ones that overflow activations, so
/// a later layer sees `±inf` / NaN inputs and coefficients.
fn plant_extremes(u: &mut ParamSet, rng: &mut StdRng) {
    for _ in 0..3 {
        let e = rng.gen_range(0..u.num_entries());
        let (r, c) = (
            rng.gen_range(0..u.mat(e).rows()),
            rng.gen_range(0..u.mat(e).cols()),
        );
        let v = [f32::MAX, -f32::MAX, f32::INFINITY, f32::NAN, -0.0][rng.gen_range(0usize..5)];
        u.mat_mut(e).set(r, c, v);
    }
}

/// θ, its mask and the gradient mask a method applies, by mask shape.
enum Shape {
    /// FedBIAD: a β over row units (gate-grouped on the LSTM), θ sampled
    /// by `sample_theta_into` (dropped biases keep sign and NaN-ness),
    /// gradients masked by `DropPattern::mask_grads`.
    Pattern(DropPattern),
    /// Everything else: θ = mask∘U, gradients masked by `mask.apply`.
    Mask(ModelMask),
}

fn shape(kind: u32, u: &ParamSet, rng: &mut StdRng) -> Shape {
    match kind {
        0 => {
            let mut beta = BitVec::new(u.num_row_units(), false);
            let keep = rng.gen_range(0u32..5);
            for j in 0..beta.len() {
                beta.set(j, rng.gen_range(0u32..4) < keep);
            }
            Shape::Pattern(DropPattern { beta })
        }
        // Neuron dropout over every group, recurrent ones included:
        // `Rows` on a unit's own matrices, `RowsCols` downstream.
        1 => {
            let groups = derive_groups(u);
            let drops: Vec<_> = groups
                .iter()
                .map(|g| (g, (0..g.count).filter(|_| rng.gen::<bool>()).collect()))
                .collect();
            Shape::Mask(mask_from_dropped_units(u, &drops))
        }
        // Arbitrary rows of every entry, not aligned to gate groups.
        _ => Shape::Mask(ModelMask {
            per_entry: (0..u.num_entries())
                .map(|e| {
                    let mut rows = BitVec::new(u.mat(e).rows(), true);
                    for r in 0..rows.len() {
                        rows.set(r, rng.gen_range(0u32..3) > 0);
                    }
                    CoverageMask::Rows(rows)
                })
                .collect(),
        }),
    }
}

/// One local step both ways on `model`; see the module docs.
fn assert_step_is_view_invariant(
    model: &dyn Model,
    batch: &Batch<'_>,
    kind: u32,
    extremes: bool,
    rng: &mut StdRng,
) {
    let _training = training_lock();
    let mut u = model.init_params(rng);
    if extremes {
        plant_extremes(&mut u, rng);
    }
    let shape = shape(kind, &u, rng);
    let (theta, mask) = match &shape {
        Shape::Pattern(pattern) => {
            let mut theta = u.clone();
            sample_theta_into(&mut theta, &u, &pattern.rows_kept(&u), 1e-3, rng.gen(), 0);
            (theta, pattern.to_mask(&u))
        }
        Shape::Mask(mask) => {
            let mut theta = u.clone();
            mask.apply(&mut theta);
            (theta, mask.clone())
        }
    };
    let view: KeptRows = mask.kept_rows();

    let mut ws = Workspace::new();
    let run = |kept: Option<&KeptRows>, ws: &mut Workspace| {
        let (mut grads, mut work) = (u.zeros_like(), RowWork::default());
        let loss = model.loss_grad_kept(&theta, kept, batch, &mut grads, ws, &mut work);
        (loss, grads, work)
    };
    let (loss_view, grads_view, work_view) = run(Some(&view), &mut ws);
    let (loss_dense, grads_dense, work_dense) = run(None, &mut ws);
    assert_eq!(loss_view.to_bits(), loss_dense.to_bits(), "loss");
    assert_eq!(
        (work_view.skipped, work_view.computed + work_view.skipped),
        (dropped_rows(&mask), total_rows(&u)),
        "rows skipped / rows in all"
    );
    assert_eq!(work_dense.skipped, 0);

    // The rest of `fl::client`'s step: decay, mask, (clip,) update.
    let finish = |mut grads: ParamSet, clip_norm: Option<f32>| {
        grads.axpy(1e-2, &theta);
        match &shape {
            Shape::Pattern(pattern) => pattern.mask_grads(&mut grads),
            Shape::Mask(mask) => mask.apply(&mut grads),
        }
        let masked = bits(&grads);
        let mut stepped = u.clone();
        Sgd { lr: 0.3, clip_norm }.step(&mut stepped, &mut grads);
        (masked, bits(&stepped))
    };
    for clip_norm in [None, Some(0.05)] {
        let (masked_view, u_view) = finish(grads_view.clone(), clip_norm);
        let (masked_dense, u_dense) = finish(grads_dense.clone(), clip_norm);
        assert_eq!(
            masked_view, masked_dense,
            "masked gradient, clip {clip_norm:?}"
        );
        assert_eq!(u_view, u_dense, "U after the step, clip {clip_norm:?}");
    }

    let churn = ws.churn();
    run(Some(&view), &mut ws);
    assert_eq!(ws.churn(), churn, "a warm arena must not allocate");
}

proptest! {
    #[test]
    fn mlp_step_on_kept_rows_equals_dense_through_zeros(
        kind in 0u32..3,
        extremes in 0u32..4,
        n in 1usize..10,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = stream(seed, StreamTag::Init, 0, 0);
        let model = MlpModel::new(9, 7, 4);
        let x: Vec<f32> = (0..n * 9).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let y: Vec<u32> = (0..n).map(|_| rng.gen_range(0..4)).collect();
        let batch = Batch::Dense { x: &x, y: &y, dim: 9 };
        assert_step_is_view_invariant(&model, &batch, kind, extremes == 0, &mut rng);
    }

    #[test]
    fn lstm_step_on_kept_rows_equals_dense_through_zeros(
        kind in 0u32..3,
        extremes in 0u32..4,
        n in 1usize..7,
        steps in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = stream(seed, StreamTag::Init, 0, 0);
        let model = LstmLmModel::new(9, 5, 4, 2);
        let tokens: Vec<Vec<u32>> = (0..n)
            .map(|_| (0..=steps).map(|_| rng.gen_range(0..9)).collect())
            .collect();
        let windows: Vec<&[u32]> = tokens.iter().map(Vec::as_slice).collect();
        let batch = Batch::Seq { windows: &windows };
        assert_step_is_view_invariant(&model, &batch, kind, extremes == 0, &mut rng);
    }
}

/// `name`'s total in a capture's counters (0 when it never fired).
fn counter(summary: &fedbiad::telemetry::Summary, name: &str) -> u64 {
    summary.counter(name).unwrap_or(0)
}

/// Two captured smoke rounds of FedAvg and FedBIAD on each workload: the
/// engine's own row counts against the iteration count, and against the
/// θ sampler's independent count of the rows it zeroed.
#[test]
fn row_counters_match_independent_counts_per_method() {
    if !fedbiad::telemetry::compiled() {
        eprintln!("telemetry not compiled in; counter test skipped");
        return;
    }
    let _training = training_lock();
    for workload in [Workload::MnistLike, Workload::PtbLike] {
        let bundle = build(workload, Scale::Smoke, 4242);
        let cfg = ExperimentConfig {
            rounds: 2,
            client_fraction: 0.5,
            seed: 4242,
            train: bundle.train,
            eval_topk: bundle.eval_topk,
            eval_every: 1,
            eval_max_samples: 64,
            ..Default::default()
        };
        let model = bundle.model.as_ref();
        let rows = total_rows(&model.init_params(&mut stream(1, StreamTag::Init, 0, 0)));
        let captured = |fedbiad: bool| {
            fedbiad::telemetry::begin_capture();
            let log = if fedbiad {
                let algo = FedBiad::new(FedBiadConfig::paper(bundle.dropout_rate, 1));
                Experiment::new(model, &bundle.data, algo, cfg).run()
            } else {
                Experiment::new(model, &bundle.data, FedAvg::new(), cfg).run()
            };
            let summary = fedbiad::telemetry::end_capture().summary();
            let runs: usize = log.records.iter().map(|r| r.contributors).sum();
            (summary, (runs * cfg.train.local_iters) as u64 * rows)
        };

        let (fedavg, all) = captured(false);
        assert_eq!(counter(&fedavg, "nn.rows_skipped"), 0, "{workload:?}");
        assert_eq!(counter(&fedavg, "nn.rows_computed"), all, "{workload:?}");

        let (biad, all) = captured(true);
        let skipped = counter(&biad, "nn.rows_skipped");
        assert!(skipped > 0, "{workload:?}: FedBIAD skipped nothing");
        assert_eq!(
            skipped,
            counter(&biad, "theta.rows_dropped"),
            "{workload:?}: the engine and the θ sampler count the same rows"
        );
        assert_eq!(
            counter(&biad, "nn.rows_computed") + skipped,
            all,
            "{workload:?}"
        );
    }
}

/// FjORD's local runs skip exactly the rows its masks' row bit-vectors
/// clear (`Rows` and `RowsCols` alike), every iteration.
#[test]
fn fjord_skips_the_rows_its_masks_drop() {
    if !fedbiad::telemetry::compiled() {
        eprintln!("telemetry not compiled in; counter test skipped");
        return;
    }
    let _training = training_lock();
    let bundle = build(Workload::PtbLike, Scale::Smoke, 4242);
    let model = bundle.model.as_ref();
    let global = model.init_params(&mut stream(4242, StreamTag::Init, 0, 0));
    let algo = Fjord::new(bundle.dropout_rate);

    fedbiad::telemetry::begin_capture();
    let mut expected = 0;
    for round in 0..2 {
        let info = RoundInfo {
            round,
            total_rounds: 2,
            seed: 4242,
            agg: Default::default(),
        };
        for (id, data) in bundle.data.clients.iter().enumerate() {
            let mut state = algo.init_client_state(id, model, &global);
            let result = algo.local_update(
                info,
                &(),
                id,
                &mut state,
                &global,
                data,
                model,
                &bundle.train,
            );
            expected += bundle.train.local_iters as u64 * dropped_rows(&result.upload.coverage);
        }
    }
    let summary = fedbiad::telemetry::end_capture().summary();
    assert!(expected > 0, "no client drew a width below 1");
    assert_eq!(counter(&summary, "nn.rows_skipped"), expected);
}

/// The product tracer sees the whole LSTM call: `nn.batch.loss_grad`
/// opens before the forward pass, and the pass's two halves are its
/// children (the forward half also under `nn.batch.eval`).
#[test]
fn lstm_forward_and_backward_spans_nest_inside_the_batch_span() {
    if !fedbiad::telemetry::compiled() {
        eprintln!("telemetry not compiled in; span test skipped");
        return;
    }
    let _training = training_lock();
    let bundle = build(Workload::PtbLike, Scale::Smoke, 4242);
    let cfg = ExperimentConfig {
        rounds: 1,
        client_fraction: 0.5,
        seed: 4242,
        train: bundle.train,
        eval_topk: bundle.eval_topk,
        eval_every: 1,
        eval_max_samples: 64,
        ..Default::default()
    };
    fedbiad::telemetry::begin_capture();
    Experiment::new(bundle.model.as_ref(), &bundle.data, FedAvg::new(), cfg).run();
    let capture = fedbiad::telemetry::end_capture();

    // Per thread, the stack of open spans; per child, who its parents were.
    let mut open: HashMap<u32, Vec<&'static str>> = HashMap::new();
    let mut parents: HashMap<&'static str, Vec<&'static str>> = HashMap::new();
    for event in &capture.events {
        let stack = open.entry(event.tid).or_default();
        match &event.kind {
            EventKind::Begin { name, .. } => {
                if name.starts_with("nn.lstm.") {
                    parents
                        .entry(*name)
                        .or_default()
                        .push(stack.last().copied().unwrap_or("<none>"));
                }
                stack.push(*name);
            }
            EventKind::End { .. } => {
                stack.pop();
            }
            _ => {}
        }
    }
    let summary = capture.summary();
    let calls = summary.span("nn.batch.loss_grad").map_or(0, |s| s.count);
    let evals = summary.span("nn.batch.eval").map_or(0, |s| s.count);
    assert!(calls > 0 && evals > 0, "{calls} / {evals}");

    let backward = &parents["nn.lstm.backward"];
    assert_eq!(backward.len() as u64, calls);
    assert!(backward.iter().all(|p| *p == "nn.batch.loss_grad"));
    let forward = &parents["nn.lstm.forward"];
    let under = |parent: &str| forward.iter().filter(|p| **p == parent).count() as u64;
    assert_eq!(
        (under("nn.batch.loss_grad"), under("nn.batch.eval")),
        (calls, evals),
        "forward spans by parent: {forward:?}"
    );
}
