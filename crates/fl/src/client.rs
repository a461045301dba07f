//! Shared local-training loop.
//!
//! Every algorithm's client does the same outer work — sample a mini-batch,
//! compute a loss/gradient at the *effective* parameters θ, apply weight
//! decay, mask the gradient, take an SGD step, report the loss — and
//! differs only in the hook implementations. FedBIAD's hooks sample
//! θ ~ β∘N(U, s̃²I) and re-sample β on a bad loss trend; FedAvg's hooks are
//! identity.

use crate::algorithm::TrainConfig;
use crate::timing::Stopwatch;
use fedbiad_data::ClientData;
use fedbiad_nn::optimizer::Sgd;
use fedbiad_nn::{Batch, KeptRows, Model, ParamSet, RowWork};
use fedbiad_telemetry::{counter, gauge};
use fedbiad_tensor::rng::{stream, StreamTag};
use fedbiad_tensor::{cpu, Workspace};
use rand::Rng;

/// Per-iteration customisation points.
pub trait LocalHooks {
    /// The effective parameters θ for iteration `v`, derived from the
    /// variational parameters `u`, together with θ's kept-row view: `None`
    /// when every row takes part, otherwise the rows the method kept —
    /// every other matrix row of θ being all `+0.0` ([`KeptRows`]), which
    /// the batched engine then leaves out. Default: train on `u` directly
    /// (plain SGD methods). An implementor that derives θ writes it into a
    /// buffer it owns for the whole local run and lends that out, so no
    /// step allocates a model-sized copy.
    fn make_theta<'a>(
        &'a mut self,
        _v: usize,
        u: &'a ParamSet,
    ) -> (&'a ParamSet, Option<&'a KeptRows>) {
        (u, None)
    }

    /// Mask the gradient before the optimiser step (eq. (7): only
    /// non-dropped rows update).
    fn mask_grads(&mut self, _v: usize, _grads: &mut ParamSet) {}

    /// Observe the iteration's training loss (drives the loss-trend
    /// tracker (8) and the weight score vector (9)).
    fn post_iteration(&mut self, _v: usize, _loss: f32) {}
}

/// Hooks that do nothing (FedAvg and simple baselines).
pub struct NoHooks;

impl LocalHooks for NoHooks {}

/// Identity of one local run (drives the batch RNG stream).
#[derive(Clone, Copy, Debug)]
pub struct LocalRunId {
    /// Experiment seed.
    pub seed: u64,
    /// Round index.
    pub round: usize,
    /// Client id.
    pub client: usize,
}

/// Outcome of a local run.
#[derive(Clone, Copy, Debug)]
pub struct LocalRunStats {
    /// Mean training loss over iterations.
    pub mean_loss: f32,
    /// Loss at the first iteration.
    pub first_loss: f32,
    /// Loss at the last iteration.
    pub last_loss: f32,
    /// Wall-clock seconds spent (LTTR component).
    pub seconds: f64,
}

impl LocalRunStats {
    /// In-round improvement (first − last); positive = loss went down.
    /// Drives AFD's server-side score updates.
    pub fn improvement(&self) -> f32 {
        self.first_loss - self.last_loss
    }
}

/// Run `cfg.local_iters` masked-SGD iterations on `u`, mutating it in
/// place. Batches are drawn i.i.d. with replacement from the client's data
/// using a deterministic per-(seed, round, client) stream.
///
/// Each iteration's forward/backward runs through the model's **batched
/// engine** (`Model::loss_grad_kept`): one GEMM per layer over the whole
/// mini-batch instead of per-sample GEMV chains — over the rows the hooks
/// kept only, a dropped row costing nothing — with every scratch
/// buffer checked out of this run's [`Workspace`] arena — after the first
/// (warm-up) iteration the loop performs no data-sized allocations. The
/// batched engine is bit-identical to the per-sample reference
/// (`tests/batched_equivalence.rs`), so this changes throughput, not
/// results.
pub fn run_local_training(
    id: LocalRunId,
    model: &dyn Model,
    data: &ClientData,
    cfg: &TrainConfig,
    u: &mut ParamSet,
    hooks: &mut impl LocalHooks,
) -> LocalRunStats {
    let sw = Stopwatch::start();
    let mut rng = stream(id.seed, StreamTag::Batch, id.round as u64, id.client as u64);
    let sgd = Sgd {
        lr: cfg.lr,
        clip_norm: cfg.clip_norm,
    };
    let mut grads = u.zeros_like();

    // Per-client arena: owned by this local run, reused across its
    // iterations (rayon workers each hold their own, so no sharing).
    let mut ws = Workspace::new();

    // Reusable batch buffers.
    let mut bx: Vec<f32> = Vec::new();
    let mut by: Vec<u32> = Vec::new();
    let mut idx: Vec<usize> = Vec::with_capacity(cfg.batch_size);
    let mut windows: Vec<&[u32]> = Vec::new();
    // A lazy shard's samples are derived as the batch stream reads them;
    // the reader (and its row memo) lives exactly as long as this run.
    let mut reader = None;

    // `RoundCore::train` thins a client with an empty shard out of the
    // cohort before it gets here.
    let n = data.num_samples();
    assert!(n > 0, "client has no data");

    let mut loss_sum = 0.0f32;
    let mut first_loss = f32::NAN;
    let mut last_loss = f32::NAN;
    let mut row_work = RowWork::default();
    for v in 0..cfg.local_iters {
        let (theta, kept) = hooks.make_theta(v, u);

        grads.zero();
        idx.clear();
        for _ in 0..cfg.batch_size.min(n) {
            idx.push(rng.gen_range(0..n));
        }
        let batch = match data {
            ClientData::Image(set) => {
                set.gather(&idx, &mut bx, &mut by);
                Batch::Dense {
                    x: &bx,
                    y: &by,
                    dim: set.dim,
                }
            }
            ClientData::LazyImage(view) => {
                reader
                    .get_or_insert_with(|| view.reader())
                    .gather(&idx, &mut bx, &mut by);
                Batch::Dense {
                    x: &bx,
                    y: &by,
                    dim: view.dim(),
                }
            }
            ClientData::Text(set) => {
                windows.clear();
                windows.extend(idx.iter().map(|&i| set.window(i)));
                Batch::Seq { windows: &windows }
            }
        };
        let loss = model.loss_grad_kept(theta, kept, &batch, &mut grads, &mut ws, &mut row_work);

        // KL ≈ L2 term: decay toward the prior mean 0, on the *effective*
        // parameters so dropped rows get no decay (their μ is not part of
        // the current variational family).
        if cfg.weight_decay > 0.0 {
            grads.axpy(cfg.weight_decay, theta);
        }

        hooks.mask_grads(v, &mut grads);
        sgd.step(u, &mut grads);
        hooks.post_iteration(v, loss);
        loss_sum += loss;
        if v == 0 {
            first_loss = loss;
        }
        last_loss = loss;
    }

    // Arena behaviour over the whole run: after warm-up the loop should
    // re-use checked-out buffers, so churn stays flat per iteration.
    gauge!("train.ws_churn", ws.churn());
    // Which route produced this run's nn timings: 1 = `math`'s vector
    // bodies, 0 = its scalar definitions (same values either way).
    gauge!("nn.math.wide", u8::from(cpu::get().avx2_fma));
    // Which register tiles ran the batched GEMMs: 0 = none (the pre-tile
    // loops), 1 = AVX, 2 = AVX-512 (same bits at every tier).
    gauge!("nn.gemm.tier", fedbiad_tensor::ops::tier() as u8);
    counter!("nn.rows_computed", row_work.computed);
    counter!("nn.rows_skipped", row_work.skipped);
    if let Some(reader) = &reader {
        counter!("data.samples_derived", reader.derived());
    }

    LocalRunStats {
        mean_loss: loss_sum / cfg.local_iters.max(1) as f32,
        first_loss,
        last_loss,
        seconds: sw.seconds(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_data::dataset::ImageSet;
    use fedbiad_nn::mlp::MlpModel;

    fn toy_data() -> ClientData {
        let mut s = ImageSet::empty(4);
        for i in 0..32 {
            let c = i % 2;
            let f = if c == 0 {
                [1.0, 1.0, 0.0, 0.0]
            } else {
                [0.0, 0.0, 1.0, 1.0]
            };
            s.push(&f, c as u32);
        }
        ClientData::Image(s)
    }

    #[test]
    fn local_training_reduces_loss() {
        let model = MlpModel::new(4, 8, 2);
        let mut rng = stream(1, StreamTag::Init, 0, 0);
        let mut u = model.init_params(&mut rng);
        let data = toy_data();
        let cfg = TrainConfig {
            local_iters: 50,
            batch_size: 16,
            lr: 0.5,
            ..Default::default()
        };
        let id = LocalRunId {
            seed: 3,
            round: 0,
            client: 0,
        };
        let first = run_local_training(id, &model, &data, &cfg, &mut u, &mut NoHooks);
        let id2 = LocalRunId {
            seed: 3,
            round: 1,
            client: 0,
        };
        let second = run_local_training(id2, &model, &data, &cfg, &mut u, &mut NoHooks);
        assert!(
            second.mean_loss < first.mean_loss,
            "{} -> {}",
            second.mean_loss,
            first.mean_loss
        );
        assert!(first.seconds > 0.0);
    }

    #[test]
    fn training_is_deterministic_given_ids() {
        let model = MlpModel::new(4, 8, 2);
        let mut rng = stream(2, StreamTag::Init, 0, 0);
        let u0 = model.init_params(&mut rng);
        let data = toy_data();
        let cfg = TrainConfig {
            local_iters: 5,
            batch_size: 8,
            lr: 0.1,
            ..Default::default()
        };
        let id = LocalRunId {
            seed: 9,
            round: 4,
            client: 7,
        };
        let mut a = u0.clone();
        let mut b = u0.clone();
        run_local_training(id, &model, &data, &cfg, &mut a, &mut NoHooks);
        run_local_training(id, &model, &data, &cfg, &mut b, &mut NoHooks);
        assert_eq!(a.flatten(), b.flatten());
    }

    #[test]
    fn mask_grads_hook_freezes_rows() {
        struct FreezeRow0;
        impl LocalHooks for FreezeRow0 {
            fn mask_grads(&mut self, _v: usize, grads: &mut ParamSet) {
                grads.mat_mut(0).zero_row(0);
                grads.bias_mut(0)[0] = 0.0;
            }
        }
        let model = MlpModel::new(4, 8, 2);
        let mut rng = stream(3, StreamTag::Init, 0, 0);
        let mut u = model.init_params(&mut rng);
        let frozen_row: Vec<f32> = u.mat(0).row(0).to_vec();
        let frozen_bias = u.bias(0)[0];
        let cfg = TrainConfig {
            local_iters: 10,
            batch_size: 8,
            lr: 0.5,
            weight_decay: 0.0,
            ..Default::default()
        };
        let id = LocalRunId {
            seed: 5,
            round: 0,
            client: 0,
        };
        run_local_training(id, &model, &toy_data(), &cfg, &mut u, &mut FreezeRow0);
        assert_eq!(u.mat(0).row(0), &frozen_row[..], "masked row must not move");
        assert_eq!(u.bias(0)[0], frozen_bias);
        // Other rows did move.
        assert!(u.mat(0).row(1).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn weight_decay_shrinks_parameters_without_data_signal() {
        // With lr>0, wd>0 and a gradient-free hook (theta = zeros so the
        // data gradient at theta is what it is — instead test decay via a
        // frozen model: compare norms with/without decay).
        let model = MlpModel::new(4, 8, 2);
        let mut rng = stream(4, StreamTag::Init, 0, 0);
        let u0 = model.init_params(&mut rng);
        let cfg_wd = TrainConfig {
            local_iters: 20,
            batch_size: 8,
            lr: 0.1,
            weight_decay: 0.1,
            ..Default::default()
        };
        let cfg_nowd = TrainConfig {
            weight_decay: 0.0,
            ..cfg_wd
        };
        let id = LocalRunId {
            seed: 6,
            round: 0,
            client: 0,
        };
        let data = toy_data();
        let mut a = u0.clone();
        let mut b = u0.clone();
        run_local_training(id, &model, &data, &cfg_wd, &mut a, &mut NoHooks);
        run_local_training(id, &model, &data, &cfg_nowd, &mut b, &mut NoHooks);
        assert!(
            a.l2_norm() < b.l2_norm(),
            "decay should shrink the solution"
        );
    }
}
