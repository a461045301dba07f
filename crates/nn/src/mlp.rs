//! The paper's image-classification model (§V-A): a fully connected network
//! with one hidden ReLU layer and a softmax output — 128 hidden units for
//! MNIST, 256 for FMNIST.

use crate::activation::Activation;
use crate::dense;
use crate::mask::KeptRows;
use crate::model::{Batch, EvalAccum, Model, RowWork};
use crate::params::{ArchInfo, EntryMeta, LayerKind, ParamSet};
use crate::softmax;
use fedbiad_tensor::{init, stats, Matrix};
use rand::rngs::StdRng;

/// One-hidden-layer MLP classifier.
#[derive(Clone, Debug)]
pub struct MlpModel {
    /// Input feature dimension (784 for 28×28 images).
    pub input_dim: usize,
    /// Hidden width D.
    pub hidden: usize,
    /// Number of classes.
    pub classes: usize,
}

impl MlpModel {
    /// Convenience constructor.
    pub fn new(input_dim: usize, hidden: usize, classes: usize) -> Self {
        Self {
            input_dim,
            hidden,
            classes,
        }
    }

    fn forward(&self, params: &ParamSet, x: &[f32], h: &mut [f32], logits: &mut [f32]) {
        dense::forward(params.mat(0), params.bias(0), x, Activation::Relu, h);
        dense::forward(params.mat(1), params.bias(1), h, Activation::Linear, logits);
    }
}

impl Model for MlpModel {
    fn name(&self) -> &str {
        "mlp"
    }

    fn arch(&self) -> ArchInfo {
        ArchInfo {
            total_weights: self.hidden * self.input_dim
                + self.hidden
                + self.classes * self.hidden
                + self.classes,
            depth: 2,
            width: self.hidden,
            input_dim: self.input_dim,
        }
    }

    fn init_params(&self, rng: &mut StdRng) -> ParamSet {
        let mut p = ParamSet::new();
        let mut w1 = Matrix::zeros(self.hidden, self.input_dim);
        init::xavier(&mut w1, self.input_dim, self.hidden, rng);
        p.push_entry(
            w1,
            Some(vec![0.0; self.hidden]),
            EntryMeta::new("w1", LayerKind::DenseHidden, true, true),
        );
        let mut w2 = Matrix::zeros(self.classes, self.hidden);
        init::xavier(&mut w2, self.hidden, self.classes, rng);
        p.push_entry(
            w2,
            Some(vec![0.0; self.classes]),
            EntryMeta::new("w2", LayerKind::DenseOutput, true, true),
        );
        p
    }

    fn loss_grad(&self, params: &ParamSet, batch: &Batch<'_>, grads: &mut ParamSet) -> f32 {
        let (x, y, dim) = match batch {
            Batch::Dense { x, y, dim } => (*x, *y, *dim),
            Batch::Seq { .. } => panic!("MlpModel expects Batch::Dense"),
        };
        assert_eq!(dim, self.input_dim, "feature dim mismatch");
        let n = y.len();
        assert!(n > 0, "empty batch");
        let inv_n = 1.0 / n as f32;

        // Workhorse buffers reused across the batch.
        let mut h = vec![0.0f32; self.hidden];
        let mut logits = vec![0.0f32; self.classes];
        let mut dh = vec![0.0f32; self.hidden];
        let mut loss_sum = 0.0f32;

        for (s, &label) in y.iter().enumerate() {
            let xs = &x[s * dim..(s + 1) * dim];
            self.forward(params, xs, &mut h, &mut logits);
            loss_sum += softmax::softmax_xent_grad(&mut logits, label as usize);
            // Mean-reduce: scale the per-sample gradient by 1/n here so the
            // accumulation below needs no extra pass.
            for g in logits.iter_mut() {
                *g *= inv_n;
            }
            {
                // Output layer is Linear, so `logits` already holds the
                // pre-activation delta; accumulate directly.
                let (w2g, b2g) = grads.mat_bias_mut(1);
                fedbiad_tensor::ops::ger(w2g, 1.0, &logits, &h);
                fedbiad_tensor::ops::axpy(1.0, &logits, b2g);
            }
            fedbiad_tensor::ops::gemv_t(params.mat(1), &logits, &mut dh);
            let (w1g, b1g) = grads.mat_bias_mut(0);
            dense::backward(
                params.mat(0),
                xs,
                &h,
                Activation::Relu,
                &mut dh,
                w1g,
                b1g,
                None,
            );
        }
        loss_sum * inv_n
    }

    fn evaluate(&self, params: &ParamSet, batch: &Batch<'_>, k: usize) -> EvalAccum {
        let (x, y, dim) = match batch {
            Batch::Dense { x, y, dim } => (*x, *y, *dim),
            Batch::Seq { .. } => panic!("MlpModel expects Batch::Dense"),
        };
        let mut h = vec![0.0f32; self.hidden];
        let mut logits = vec![0.0f32; self.classes];
        let mut acc = EvalAccum::default();
        for (s, &label) in y.iter().enumerate() {
            let xs = &x[s * dim..(s + 1) * dim];
            self.forward(params, xs, &mut h, &mut logits);
            if stats::in_top_k(&logits, label as usize, k) {
                acc.correct += 1;
            }
            acc.loss_sum += softmax::softmax_xent_loss(&mut logits, label as usize) as f64;
            acc.count += 1;
        }
        acc
    }

    fn loss_grad_batched(
        &self,
        params: &ParamSet,
        batch: &Batch<'_>,
        grads: &mut ParamSet,
        ws: &mut fedbiad_tensor::Workspace,
    ) -> f32 {
        self.loss_grad_kept(params, None, batch, grads, ws, &mut RowWork::default())
    }

    fn loss_grad_kept(
        &self,
        params: &ParamSet,
        kept: Option<&KeptRows>,
        batch: &Batch<'_>,
        grads: &mut ParamSet,
        ws: &mut fedbiad_tensor::Workspace,
        work: &mut RowWork,
    ) -> f32 {
        let (x, y, dim) = match batch {
            Batch::Dense { x, y, dim } => (*x, *y, *dim),
            Batch::Seq { .. } => panic!("MlpModel expects Batch::Dense"),
        };
        assert_eq!(dim, self.input_dim, "feature dim mismatch");
        let n = y.len();
        assert!(n > 0, "empty batch");
        let _gemm_span = fedbiad_telemetry::span!("nn.batch.loss_grad", n = n);
        fedbiad_telemetry::gauge!("nn.ws_churn", ws.churn());
        debug_assert!(
            kept.is_none_or(|k| k.dropped_rows_are_zero(params)),
            "a dropped row of θ is not +0.0"
        );
        work.count(params, kept);
        let rows = |e: usize| kept.and_then(|k| k.entry(e));
        let inv_n = 1.0 / n as f32;

        // Whole-batch forward: two GEMMs instead of 2n GEMVs.
        let mut h = ws.take(n * self.hidden);
        let mut logits = ws.take(n * self.classes);
        dense::forward_batch(
            params.mat(0),
            params.bias(0),
            x,
            n,
            Activation::Relu,
            rows(0),
            &mut h,
        );
        dense::forward_batch(
            params.mat(1),
            params.bias(1),
            &h,
            n,
            Activation::Linear,
            rows(1),
            &mut logits,
        );

        // Per-row softmax + mean-reduce scaling; loss accumulates in
        // sample order, matching the reference's running sum bit for bit.
        let mut loss_sum = 0.0f32;
        for (s, &label) in y.iter().enumerate() {
            let row = &mut logits[s * self.classes..(s + 1) * self.classes];
            loss_sum += softmax::softmax_xent_grad(row, label as usize);
            for g in row.iter_mut() {
                *g *= inv_n;
            }
        }

        {
            // Output layer (Linear): delta is `logits` itself.
            let (w2g, b2g) = grads.mat_bias_mut(1);
            fedbiad_tensor::ops::gemm_tn_acc(&logits, &h, n, rows(1), w2g);
            fedbiad_tensor::ops::add_row_sums(&logits, n, b2g);
        }
        let mut dh = ws.take(n * self.hidden);
        fedbiad_tensor::ops::gemm_nn(&logits, params.mat(1), n, rows(1), &mut dh);
        {
            let (w1g, b1g) = grads.mat_bias_mut(0);
            dense::backward_batch(
                params.mat(0),
                x,
                &h,
                n,
                Activation::Relu,
                rows(0),
                &mut dh,
                w1g,
                b1g,
                None,
            );
        }

        ws.give(dh);
        ws.give(logits);
        ws.give(h);
        loss_sum * inv_n
    }

    fn evaluate_batched(
        &self,
        params: &ParamSet,
        batch: &Batch<'_>,
        k: usize,
        ws: &mut fedbiad_tensor::Workspace,
    ) -> EvalAccum {
        let (x, y, dim) = match batch {
            Batch::Dense { x, y, dim } => (*x, *y, *dim),
            Batch::Seq { .. } => panic!("MlpModel expects Batch::Dense"),
        };
        assert_eq!(dim, self.input_dim, "feature dim mismatch");
        let n = y.len();
        let _gemm_span = fedbiad_telemetry::span!("nn.batch.eval", n = n);
        fedbiad_telemetry::gauge!("nn.ws_churn", ws.churn());
        let mut h = ws.take(n * self.hidden);
        let mut logits = ws.take(n * self.classes);
        dense::forward_batch(
            params.mat(0),
            params.bias(0),
            x,
            n,
            Activation::Relu,
            None,
            &mut h,
        );
        dense::forward_batch(
            params.mat(1),
            params.bias(1),
            &h,
            n,
            Activation::Linear,
            None,
            &mut logits,
        );
        let mut acc = EvalAccum::default();
        for (s, &label) in y.iter().enumerate() {
            let row = &mut logits[s * self.classes..(s + 1) * self.classes];
            if stats::in_top_k(row, label as usize, k) {
                acc.correct += 1;
            }
            acc.loss_sum += softmax::softmax_xent_loss(row, label as usize) as f64;
            acc.count += 1;
        }
        ws.give(logits);
        ws.give(h);
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_tensor::rng::{stream, StreamTag};

    fn toy() -> (MlpModel, ParamSet) {
        let m = MlpModel::new(4, 6, 3);
        let mut rng = stream(11, StreamTag::Init, 0, 0);
        let p = m.init_params(&mut rng);
        (m, p)
    }

    #[test]
    fn params_layout_matches_arch() {
        let (m, p) = toy();
        assert_eq!(p.num_entries(), 2);
        assert_eq!(p.total_params(), m.arch().total_weights);
        assert_eq!(p.num_row_units(), 6 + 3);
    }

    #[test]
    fn loss_grad_matches_finite_difference() {
        let (m, p) = toy();
        let x = vec![0.5, -0.2, 0.8, 0.1, -0.9, 0.4, 0.0, 0.3];
        let y = vec![2u32, 0u32];
        let batch = Batch::Dense {
            x: &x,
            y: &y,
            dim: 4,
        };

        let mut grads = p.zeros_like();
        let _ = m.loss_grad(&p, &batch, &mut grads);

        let eps = 1e-2;
        // Spot-check entries across both matrices and biases.
        for (e, r, c) in [(0usize, 0usize, 1usize), (0, 5, 3), (1, 0, 0), (1, 2, 4)] {
            let mut pp = p.clone();
            let v = pp.mat(e).get(r, c);
            pp.mat_mut(e).set(r, c, v + eps);
            let mut pm = p.clone();
            pm.mat_mut(e).set(r, c, v - eps);
            let mut g = p.zeros_like();
            let fp = m.loss_grad(&pp, &batch, &mut g);
            g.zero();
            let fm = m.loss_grad(&pm, &batch, &mut g);
            let fd = (fp - fm) / (2.0 * eps);
            let got = grads.mat(e).get(r, c);
            assert!(
                (got - fd).abs() < 2e-2,
                "entry {e} [{r},{c}]: {got} vs {fd}"
            );
        }
        for (e, r) in [(0usize, 3usize), (1, 1)] {
            let mut pp = p.clone();
            pp.bias_mut(e)[r] += eps;
            let mut pm = p.clone();
            pm.bias_mut(e)[r] -= eps;
            let mut g = p.zeros_like();
            let fp = m.loss_grad(&pp, &batch, &mut g);
            g.zero();
            let fm = m.loss_grad(&pm, &batch, &mut g);
            let fd = (fp - fm) / (2.0 * eps);
            let got = grads.bias(e)[r];
            assert!((got - fd).abs() < 2e-2, "bias {e}[{r}]: {got} vs {fd}");
        }
    }

    #[test]
    fn training_reduces_loss_on_separable_data() {
        let (m, mut p) = toy();
        // Two linearly separable clusters.
        let x = vec![
            1.0, 1.0, 0.0, 0.0, //
            0.9, 1.1, 0.0, 0.1, //
            0.0, 0.0, 1.0, 1.0, //
            0.1, 0.0, 0.9, 1.0,
        ];
        let y = vec![0u32, 0, 1, 1];
        let batch = Batch::Dense {
            x: &x,
            y: &y,
            dim: 4,
        };
        let mut grads = p.zeros_like();
        let first = m.loss_grad(&p, &batch, &mut grads);
        for _ in 0..200 {
            grads.zero();
            let _ = m.loss_grad(&p, &batch, &mut grads);
            p.axpy(-0.5, &grads);
        }
        grads.zero();
        let last = m.loss_grad(&p, &batch, &mut grads);
        assert!(last < first * 0.2, "no learning: {first} -> {last}");
        let acc = m.evaluate(&p, &batch, 1);
        assert_eq!(acc.correct, 4);
    }

    #[test]
    fn batched_engine_is_bit_identical_to_reference() {
        use fedbiad_tensor::Workspace;
        let (m, p) = toy();
        // 7 samples: exercises the 4-row dot4 blocks *and* the remainder.
        let n = 7;
        let x: Vec<f32> = (0..n * 4)
            .map(|i| ((i * 13) % 9) as f32 * 0.23 - 1.0)
            .collect();
        let y: Vec<u32> = (0..n as u32).map(|i| i % 3).collect();
        let batch = Batch::Dense {
            x: &x,
            y: &y,
            dim: 4,
        };
        let mut gr = p.zeros_like();
        let lr = m.loss_grad(&p, &batch, &mut gr);
        let mut ws = Workspace::new();
        let mut gb = p.zeros_like();
        let lb = m.loss_grad_batched(&p, &batch, &mut gb, &mut ws);
        assert_eq!(lr.to_bits(), lb.to_bits(), "loss must match bitwise");
        let (fr, fb) = (gr.flatten(), gb.flatten());
        for (i, (a, b)) in fr.iter().zip(&fb).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "grad[{i}]: {a} vs {b}");
        }
        let er = m.evaluate(&p, &batch, 2);
        let eb = m.evaluate_batched(&p, &batch, 2, &mut ws);
        assert_eq!(er.loss_sum.to_bits(), eb.loss_sum.to_bits());
        assert_eq!((er.correct, er.count), (eb.correct, eb.count));
    }

    #[test]
    fn evaluate_topk_is_monotone_in_k() {
        let (m, p) = toy();
        let x = vec![0.3; 8];
        let y = vec![1u32, 2u32];
        let batch = Batch::Dense {
            x: &x,
            y: &y,
            dim: 4,
        };
        let a1 = m.evaluate(&p, &batch, 1).accuracy();
        let a3 = m.evaluate(&p, &batch, 3).accuracy();
        assert!(a3 >= a1);
        assert!((a3 - 1.0).abs() < 1e-12, "k = classes ⇒ accuracy 1");
    }
}
