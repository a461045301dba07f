//! Fully-connected layer math as free functions over [`Matrix`] weights.
//!
//! Layers do not own parameters — the [`crate::params::ParamSet`] does —
//! so models compose these kernels over their entries. This keeps the
//! server-side aggregation entirely architecture-agnostic.

use crate::activation::Activation;
use fedbiad_tensor::{ops, Matrix};

/// `y = act(W x + b)`.
pub fn forward(w: &Matrix, b: &[f32], x: &[f32], act: Activation, y: &mut [f32]) {
    ops::gemv(w, x, b, y);
    act.forward(y);
}

/// Batched `Y = act(X·Wᵀ + b)`: `x: n×in` (row per sample, row-major),
/// `y: n×out`. Row `i` is bit-identical to [`forward`] on sample `i`
/// (same dots, commutative bias add, same element-wise activation).
/// `rows` is `w`'s kept-row view ([`crate::KeptRows`]): only the GEMM
/// takes it — the bias add and the activation stay full, because a
/// dropped unit's bias need not be `+0.0`.
pub fn forward_batch(
    w: &Matrix,
    b: &[f32],
    x: &[f32],
    n: usize,
    act: Activation,
    rows: Option<&[u32]>,
    y: &mut [f32],
) {
    ops::gemm_nt(x, w, n, rows, y);
    ops::add_bias_cols(y, b);
    act.forward(y);
}

/// Batched backward through `Y = act(X·Wᵀ + b)` for a whole mini-batch.
///
/// * `dy` holds ∂L/∂Y (post-activation, `n×out`); consumed in place.
/// * `y` is the batched forward output.
/// * Accumulates `dw += Σ_s δ_s ⊗ x_s` **in sample-ascending order** (the
///   per-sample [`backward`]'s GER sequence), `db += Σ_s δ_s`, and
///   optionally writes `dx = δ·W` (`n×in`).
/// * `rows` is `w`'s kept-row view: dropped rows of `dw` are not
///   accumulated into and dropped rows of `w` not pushed through; `db`
///   stays dense (it is `O(out)`, and a dropped unit's bias gradient is
///   masked by a multiply that keeps its sign and NaN-ness).
///
/// Same BLAS-style argument shape as the per-sample [`backward`].
#[allow(clippy::too_many_arguments)]
pub fn backward_batch(
    w: &Matrix,
    x: &[f32],
    y: &[f32],
    n: usize,
    act: Activation,
    rows: Option<&[u32]>,
    dy: &mut [f32],
    dw: &mut Matrix,
    db: &mut [f32],
    dx: Option<&mut [f32]>,
) {
    act.backward_from_output(y, dy);
    ops::gemm_tn_acc(dy, x, n, rows, dw);
    if !db.is_empty() {
        ops::add_row_sums(dy, n, db);
    }
    if let Some(dx) = dx {
        ops::gemm_nn(dy, w, n, rows, dx);
    }
}

/// Backward through `y = act(W x + b)`.
///
/// * `dy` on entry holds ∂L/∂y (post-activation); it is consumed (turned
///   into the pre-activation delta in place).
/// * `y` must be the forward output (activation derivative is computed
///   from outputs).
/// * Accumulates `dw += δ ⊗ x`, `db += δ` and optionally writes
///   `dx = Wᵀ δ`.
///
/// The argument list mirrors the BLAS-style call shape of the forward pass;
/// bundling them into a struct would only obscure the dataflow.
#[allow(clippy::too_many_arguments)]
pub fn backward(
    w: &Matrix,
    x: &[f32],
    y: &[f32],
    act: Activation,
    dy: &mut [f32],
    dw: &mut Matrix,
    db: &mut [f32],
    dx: Option<&mut [f32]>,
) {
    act.backward_from_output(y, dy);
    ops::ger(dw, 1.0, dy, x);
    if !db.is_empty() {
        ops::axpy(1.0, dy, db);
    }
    if let Some(dx) = dx {
        ops::gemv_t(w, dy, dx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check of a single dense layer under a
    /// squared loss L = ½‖y‖².
    #[test]
    fn dense_gradcheck() {
        let w0 = Matrix::from_rows(&[&[0.2, -0.4, 0.1], &[0.5, 0.3, -0.2]]);
        let b0 = vec![0.05, -0.1];
        let x = vec![0.3, -0.7, 0.9];
        let act = Activation::Tanh;

        let loss_of = |w: &Matrix, b: &[f32]| -> f32 {
            let mut y = vec![0.0; 2];
            forward(w, b, &x, act, &mut y);
            0.5 * (y[0] * y[0] + y[1] * y[1])
        };

        // Analytic gradients.
        let mut y = vec![0.0; 2];
        forward(&w0, &b0, &x, act, &mut y);
        let mut dy = y.clone(); // dL/dy = y for the squared loss
        let mut dw = Matrix::zeros(2, 3);
        let mut db = vec![0.0; 2];
        let mut dx = vec![0.0; 3];
        backward(&w0, &x, &y, act, &mut dy, &mut dw, &mut db, Some(&mut dx));

        let eps = 1e-3;
        for r in 0..2 {
            for c in 0..3 {
                let mut wp = w0.clone();
                wp.set(r, c, wp.get(r, c) + eps);
                let mut wm = w0.clone();
                wm.set(r, c, wm.get(r, c) - eps);
                let fd = (loss_of(&wp, &b0) - loss_of(&wm, &b0)) / (2.0 * eps);
                assert!((dw.get(r, c) - fd).abs() < 1e-3, "dw[{r},{c}]");
            }
            let mut bp = b0.clone();
            bp[r] += eps;
            let mut bm = b0.clone();
            bm[r] -= eps;
            let fd = (loss_of(&w0, &bp) - loss_of(&w0, &bm)) / (2.0 * eps);
            assert!((db[r] - fd).abs() < 1e-3, "db[{r}]");
        }
        // dx check.
        for i in 0..3 {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let f = |xv: &[f32]| {
                let mut y = vec![0.0; 2];
                forward(&w0, &b0, xv, act, &mut y);
                0.5 * (y[0] * y[0] + y[1] * y[1])
            };
            let fd = (f(&xp) - f(&xm)) / (2.0 * eps);
            assert!((dx[i] - fd).abs() < 1e-3, "dx[{i}]");
        }
    }

    #[test]
    fn zeroed_row_produces_inert_unit() {
        // Dropping row 0 (weights + bias) must make y[0] = act(0).
        let mut w = Matrix::from_rows(&[&[0.9, 0.9], &[0.1, 0.2]]);
        let mut b = vec![0.7, 0.1];
        w.zero_row(0);
        b[0] = 0.0;
        let mut y = vec![0.0; 2];
        forward(&w, &b, &[1.0, 1.0], Activation::Relu, &mut y);
        assert_eq!(y[0], 0.0);
        assert!(y[1] > 0.0);
    }
}
