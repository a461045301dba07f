//! The [`Model`] trait: the contract between architectures (MLP, LSTM LM)
//! and the federated-learning machinery.
//!
//! Models are *stateless descriptions*; all learnable state lives in a
//! [`ParamSet`], which is what the FL server aggregates. This mirrors the
//! paper's separation between the model structure `(S, L, D)` and the
//! variational parameters `U` (§IV-A).

use crate::mask::KeptRows;
use crate::params::{ArchInfo, ParamSet};
use fedbiad_tensor::Workspace;
use rand::rngs::StdRng;

/// A mini-batch view. Image models consume [`Batch::Dense`]; language
/// models consume [`Batch::Seq`].
#[derive(Clone, Debug)]
pub enum Batch<'a> {
    /// `n` samples of `dim` features each, flattened row-major, with class
    /// labels.
    Dense {
        /// Flat feature buffer, length `n * dim`.
        x: &'a [f32],
        /// Labels, length `n`.
        y: &'a [u32],
        /// Feature dimension.
        dim: usize,
    },
    /// Token windows for next-word prediction: each window has length
    /// `seq_len + 1`; positions `0..seq_len` are inputs, `1..=seq_len` are
    /// targets.
    Seq {
        /// Borrowed windows into a client's token stream.
        windows: &'a [&'a [u32]],
    },
}

impl Batch<'_> {
    /// Number of samples (windows count as one sample each).
    pub fn len(&self) -> usize {
        match self {
            Batch::Dense { y, .. } => y.len(),
            Batch::Seq { windows } => windows.len(),
        }
    }

    /// `true` when the batch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Accumulated evaluation statistics; merge partial results with
/// [`EvalAccum::merge`].
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalAccum {
    /// Sum of per-prediction losses.
    pub loss_sum: f64,
    /// Number of top-k-correct predictions.
    pub correct: u64,
    /// Number of predictions scored.
    pub count: u64,
}

impl EvalAccum {
    /// Combine two partial accumulations.
    pub fn merge(&mut self, other: &EvalAccum) {
        self.loss_sum += other.loss_sum;
        self.correct += other.correct;
        self.count += other.count;
    }

    /// Mean loss (0 when empty).
    pub fn mean_loss(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.loss_sum / self.count as f64
        }
    }

    /// Top-k accuracy in \[0,1\] (0 when empty).
    pub fn accuracy(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.correct as f64 / self.count as f64
        }
    }
}

/// Weight-matrix rows batched calls multiplied through, and rows they
/// left out because a [`KeptRows`] view said a dropout method zeroed
/// them — the `nn.rows_computed` / `nn.rows_skipped` counters. Every
/// [`Model::loss_grad_kept`] call adds the parameter set's total row
/// count, split between the two.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowWork {
    /// Rows that took part in the call's GEMMs.
    pub computed: u64,
    /// Rows the call did no arithmetic for.
    pub skipped: u64,
}

impl RowWork {
    /// Count one call over `params` that honoured `kept` on every entry
    /// (`None`: it ran every row — no view, or an engine without one).
    pub fn count(&mut self, params: &ParamSet, kept: Option<&KeptRows>) {
        for e in 0..params.num_entries() {
            let rows = params.mat(e).rows();
            let computed = kept.and_then(|k| k.entry(e)).map_or(rows, <[u32]>::len);
            self.computed += computed as u64;
            self.skipped += (rows - computed) as u64;
        }
    }
}

/// Architecture contract used by the FL stack.
pub trait Model: Send + Sync {
    /// Human-readable name.
    fn name(&self) -> &str;

    /// `(N, L, D, d)` descriptor for the Theorem-1 calculator.
    fn arch(&self) -> ArchInfo;

    /// Freshly initialised parameters.
    fn init_params(&self, rng: &mut StdRng) -> ParamSet;

    /// Mean loss over `batch`; accumulates parameter gradients into `grads`
    /// (caller zeroes `grads` beforehand when starting a new step).
    ///
    /// This is the **per-sample reference path**: each sample's forward
    /// and backward pass runs as a chain of GEMV/GER calls. The batched
    /// engine ([`Model::loss_grad_batched`]) must reproduce it bit for
    /// bit; `tests/batched_equivalence.rs` pins that contract.
    fn loss_grad(&self, params: &ParamSet, batch: &Batch<'_>, grads: &mut ParamSet) -> f32;

    /// Forward-only evaluation with top-`k` accuracy (per-sample
    /// reference path).
    fn evaluate(&self, params: &ParamSet, batch: &Batch<'_>, k: usize) -> EvalAccum;

    /// Batched-engine [`Model::loss_grad`]: processes the whole
    /// mini-batch per GEMM, with all scratch buffers checked out of the
    /// caller's per-client [`Workspace`] arena (zero allocations once the
    /// arena is warm). Results are bit-identical to [`Model::loss_grad`];
    /// the default implementation simply *is* the reference path, so
    /// architectures without a batched engine stay correct.
    fn loss_grad_batched(
        &self,
        params: &ParamSet,
        batch: &Batch<'_>,
        grads: &mut ParamSet,
        _ws: &mut Workspace,
    ) -> f32 {
        self.loss_grad(params, batch, grads)
    }

    /// [`Model::loss_grad_batched`] on parameters θ a dropout method
    /// zeroed rows of: `kept` names the rows it kept (every other matrix
    /// row of θ is all `+0.0` — [`KeptRows`]), so an engine may leave the
    /// rest out of its GEMMs. Loss, and gradients once the caller's
    /// gradient mask has zeroed the dropped rows, are bit-identical to
    /// the dense call, which is what this default — for architectures
    /// and wrappers without a kept-row engine — runs. `work` accumulates
    /// what the call did with the rows.
    fn loss_grad_kept(
        &self,
        params: &ParamSet,
        _kept: Option<&KeptRows>,
        batch: &Batch<'_>,
        grads: &mut ParamSet,
        ws: &mut Workspace,
        work: &mut RowWork,
    ) -> f32 {
        work.count(params, None);
        self.loss_grad_batched(params, batch, grads, ws)
    }

    /// Batched-engine [`Model::evaluate`]; same contract as
    /// [`Model::loss_grad_batched`].
    fn evaluate_batched(
        &self,
        params: &ParamSet,
        batch: &Batch<'_>,
        k: usize,
        _ws: &mut Workspace,
    ) -> EvalAccum {
        self.evaluate(params, batch, k)
    }
}

/// Forces the per-sample reference path of a wrapped model: the batched
/// entry points fall back to their defaults (which call the reference
/// implementations, dense through any zeroed rows). The differential
/// tests and the perf harness use this to run the exact same
/// architecture down both code paths.
pub struct ReferencePath<'a>(pub &'a dyn Model);

impl Model for ReferencePath<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn arch(&self) -> ArchInfo {
        self.0.arch()
    }

    fn init_params(&self, rng: &mut StdRng) -> ParamSet {
        self.0.init_params(rng)
    }

    fn loss_grad(&self, params: &ParamSet, batch: &Batch<'_>, grads: &mut ParamSet) -> f32 {
        self.0.loss_grad(params, batch, grads)
    }

    fn evaluate(&self, params: &ParamSet, batch: &Batch<'_>, k: usize) -> EvalAccum {
        self.0.evaluate(params, batch, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_accum_merges_and_divides() {
        let mut a = EvalAccum {
            loss_sum: 2.0,
            correct: 1,
            count: 2,
        };
        let b = EvalAccum {
            loss_sum: 4.0,
            correct: 3,
            count: 4,
        };
        a.merge(&b);
        assert_eq!(a.count, 6);
        assert!((a.mean_loss() - 1.0).abs() < 1e-12);
        assert!((a.accuracy() - 4.0 / 6.0).abs() < 1e-12);
        let empty = EvalAccum::default();
        assert_eq!(empty.mean_loss(), 0.0);
        assert_eq!(empty.accuracy(), 0.0);
    }

    #[test]
    fn batch_len_counts_samples() {
        let x = vec![0.0; 6];
        let y = vec![0, 1, 0];
        let b = Batch::Dense {
            x: &x,
            y: &y,
            dim: 2,
        };
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        let w1 = [1u32, 2, 3];
        let windows: Vec<&[u32]> = vec![&w1];
        let s = Batch::Seq { windows: &windows };
        assert_eq!(s.len(), 1);
    }
}
