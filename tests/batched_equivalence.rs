//! Differential suite pinning the batched execution engine to the
//! per-sample reference, **bit for bit**.
//!
//! The batched engine (`Model::loss_grad_batched` / `evaluate_batched` +
//! the `fedbiad-tensor` GEMM kernels) is the default path of every local
//! update and evaluation since the workspace-arena PR. Its contract is
//! that batching changes *throughput only*: every gradient, loss and
//! accuracy is bit-identical to the sequential per-sample path
//! (`ReferencePath` forces that path for the same architecture).
//!
//! Two layers of coverage:
//!  * model-level: one mini-batch drawn exactly like a client's first
//!    local iteration, gradients compared bitwise;
//!  * experiment-level: full 2-round federated runs (the fig2 workloads —
//!    MNIST-like MLP and PTB-like LSTM — under FedAvg, FedBIAD, FjORD,
//!    HeteroFL and FedDrop), entire logs compared bitwise. The dropout
//!    methods hand the batched engine a kept-row view and `ReferencePath`
//!    does not forward it, so these legs also pin "only the kept rows"
//!    against "dense through the zeroed rows", end to end.

use fedbiad::nn::model::ReferencePath;
use fedbiad::nn::Batch;
use fedbiad::prelude::*;
use fedbiad::tensor::rng::{stream, StreamTag};
use fedbiad::tensor::Workspace;
use rand::Rng;

/// Draw one training mini-batch the way `fl::client` does and compare
/// both engines' losses and gradients bitwise.
fn assert_model_level_bitwise(workload: Workload) {
    let bundle = build(workload, Scale::Smoke, 11);
    let model = bundle.model.as_ref();
    let params = model.init_params(&mut stream(11, StreamTag::Init, 0, 0));
    let mut rng = stream(11, StreamTag::Batch, 0, 0);
    let data = &bundle.data.clients[0];
    let mut ws = Workspace::new();

    let (loss_ref, loss_bat, grads_ref, grads_bat, eval_ref, eval_bat) = match data {
        ClientData::Image(set) => {
            let idx: Vec<usize> = (0..bundle.train.batch_size.min(set.len()))
                .map(|_| rng.gen_range(0..set.len()))
                .collect();
            let mut bx = Vec::new();
            let mut by = Vec::new();
            set.gather(&idx, &mut bx, &mut by);
            let batch = Batch::Dense {
                x: &bx,
                y: &by,
                dim: set.dim,
            };
            let mut gr = params.zeros_like();
            let lr = model.loss_grad(&params, &batch, &mut gr);
            let mut gb = params.zeros_like();
            let lb = model.loss_grad_batched(&params, &batch, &mut gb, &mut ws);
            let er = model.evaluate(&params, &batch, bundle.eval_topk);
            let eb = model.evaluate_batched(&params, &batch, bundle.eval_topk, &mut ws);
            (lr, lb, gr, gb, er, eb)
        }
        ClientData::Text(set) => {
            let n = set.num_windows();
            let idx: Vec<usize> = (0..bundle.train.batch_size.min(n))
                .map(|_| rng.gen_range(0..n))
                .collect();
            let windows: Vec<&[u32]> = idx.iter().map(|&i| set.window(i)).collect();
            let batch = Batch::Seq { windows: &windows };
            let mut gr = params.zeros_like();
            let lr = model.loss_grad(&params, &batch, &mut gr);
            let mut gb = params.zeros_like();
            let lb = model.loss_grad_batched(&params, &batch, &mut gb, &mut ws);
            let er = model.evaluate(&params, &batch, bundle.eval_topk);
            let eb = model.evaluate_batched(&params, &batch, bundle.eval_topk, &mut ws);
            (lr, lb, gr, gb, er, eb)
        }
        ClientData::LazyImage(_) => unreachable!("`build` makes resident shards"),
    };

    assert_eq!(
        loss_ref.to_bits(),
        loss_bat.to_bits(),
        "{workload:?}: loss {loss_ref} vs {loss_bat}"
    );
    for (i, (a, b)) in grads_ref
        .flatten()
        .iter()
        .zip(grads_bat.flatten().iter())
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{workload:?}: grad[{i}] {a} vs {b}"
        );
    }
    assert_eq!(eval_ref.loss_sum.to_bits(), eval_bat.loss_sum.to_bits());
    assert_eq!(
        (eval_ref.correct, eval_ref.count),
        (eval_bat.correct, eval_bat.count)
    );
}

#[test]
fn mlp_batched_gradients_match_per_sample_bitwise() {
    assert_model_level_bitwise(Workload::MnistLike);
}

#[test]
fn lstm_batched_gradients_match_per_sample_bitwise() {
    assert_model_level_bitwise(Workload::PtbLike);
}

/// The methods of the experiment-level legs: the mean path, FedBIAD's
/// sampled row patterns, both width-scaling rules (trailing recurrent
/// rows and columns), and random non-recurrent neuron dropout.
#[derive(Clone, Copy, Debug)]
enum Method {
    FedAvg,
    FedBiad,
    Fjord,
    HeteroFl,
    FedDrop,
}

const METHODS: [Method; 5] = [
    Method::FedAvg,
    Method::FedBiad,
    Method::Fjord,
    Method::HeteroFl,
    Method::FedDrop,
];

/// Run 2 federated rounds twice — once with the batched engine (the
/// default) and once with the reference path forced — and require the
/// logs to agree bitwise on every deterministic field.
fn assert_experiment_level_bitwise(workload: Workload, method: Method) {
    let bundle = build(workload, Scale::Smoke, 4242);
    let cfg = ExperimentConfig {
        rounds: 2,
        client_fraction: 0.5,
        seed: 4242,
        train: bundle.train,
        eval_topk: bundle.eval_topk,
        eval_every: 1,
        eval_max_samples: 0,
        ..Default::default()
    };
    let p = bundle.dropout_rate;
    let run = |model: &dyn Model| -> ExperimentLog {
        match method {
            Method::FedAvg => Experiment::new(model, &bundle.data, FedAvg::new(), cfg).run(),
            Method::FedBiad => {
                let algo = FedBiad::new(FedBiadConfig::paper(p, 1));
                Experiment::new(model, &bundle.data, algo, cfg).run()
            }
            Method::Fjord => Experiment::new(model, &bundle.data, Fjord::new(p), cfg).run(),
            Method::HeteroFl => Experiment::new(model, &bundle.data, HeteroFl::new(p), cfg).run(),
            Method::FedDrop => Experiment::new(model, &bundle.data, FedDrop::new(p), cfg).run(),
        }
    };
    let batched = run(bundle.model.as_ref());
    let reference = run(&ReferencePath(bundle.model.as_ref()));

    assert_eq!(batched.records.len(), reference.records.len());
    for (b, r) in batched.records.iter().zip(&reference.records) {
        assert_eq!(
            b.train_loss.to_bits(),
            r.train_loss.to_bits(),
            "{workload:?} {method:?} round {}: train loss",
            b.round
        );
        assert_eq!(
            b.test_loss.to_bits(),
            r.test_loss.to_bits(),
            "{workload:?} {method:?} round {}: test loss",
            b.round
        );
        assert_eq!(
            b.test_acc.to_bits(),
            r.test_acc.to_bits(),
            "{workload:?} {method:?} round {}: test acc",
            b.round
        );
        assert_eq!(b.upload_bytes_mean, r.upload_bytes_mean);
        assert_eq!(b.upload_bytes_max, r.upload_bytes_max);
        assert_eq!(b.download_bytes, r.download_bytes);
    }
}

#[test]
fn fig2_mlp_experiment_is_bitwise_engine_invariant() {
    for method in METHODS {
        assert_experiment_level_bitwise(Workload::MnistLike, method);
    }
}

#[test]
fn fig2_lstm_experiment_is_bitwise_engine_invariant() {
    for method in METHODS {
        assert_experiment_level_bitwise(Workload::PtbLike, method);
    }
}
