//! Fused softmax + cross-entropy.

use fedbiad_tensor::math;

/// Numerically stable in-place softmax.
pub fn softmax(xs: &mut [f32]) {
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for x in xs.iter_mut() {
        *x -= max;
    }
    math::exp_slice(xs);
    let mut sum = 0.0f32;
    for &x in xs.iter() {
        sum += x;
    }
    let inv = 1.0 / sum;
    for x in xs.iter_mut() {
        *x *= inv;
    }
}

/// `−ln p` with `p` floored at `1e-12`: with float32 underflow a
/// probability can be exactly 0. The floor is a comparison, not
/// `f32::max` — that returns its non-NaN operand, and a diverged model's
/// NaN probability must report a NaN loss, not 27.631.
fn neg_ln_floored(p: f32) -> f32 {
    let p = if p < 1e-12 { 1e-12 } else { p };
    -p.ln()
}

/// Fused forward+backward for softmax cross-entropy.
///
/// On entry `logits` holds raw scores; on exit it holds the gradient
/// `∂L/∂logits = softmax(logits) − one_hot(target)`. Returns the loss
/// `−ln p[target]`.
pub fn softmax_xent_grad(logits: &mut [f32], target: usize) -> f32 {
    debug_assert!(target < logits.len());
    softmax(logits);
    let loss = neg_ln_floored(logits[target]);
    logits[target] -= 1.0;
    loss
}

/// Forward-only loss (evaluation path): `−ln softmax(logits)[target]`
/// without mutating the caller's buffer beyond the softmax itself.
pub fn softmax_xent_loss(logits: &mut [f32], target: usize) -> f32 {
    softmax(logits);
    neg_ln_floored(logits[target])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut xs = vec![1.0, 2.0, 3.0];
        softmax(&mut xs);
        let s: f32 = xs.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(xs[2] > xs[1] && xs[1] > xs[0]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let mut a = vec![1000.0, 1001.0];
        softmax(&mut a);
        let mut b = vec![0.0, 1.0];
        softmax(&mut b);
        assert!((a[0] - b[0]).abs() < 1e-6);
        assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn xent_grad_matches_finite_difference() {
        let logits = [0.3f32, -0.7, 1.1, 0.2];
        let target = 2;
        let mut g = logits.to_vec();
        let loss = softmax_xent_grad(&mut g, target);
        assert!(loss > 0.0);
        let eps = 1e-3;
        for i in 0..logits.len() {
            let mut lp = logits.to_vec();
            lp[i] += eps;
            let mut lm = logits.to_vec();
            lm[i] -= eps;
            let fp = softmax_xent_loss(&mut lp, target);
            let fm = softmax_xent_loss(&mut lm, target);
            let fd = (fp - fm) / (2.0 * eps);
            assert!((g[i] - fd).abs() < 1e-3, "dim {i}: {} vs {}", g[i], fd);
        }
    }

    #[test]
    fn nan_probability_reports_nan_loss_and_zero_keeps_its_floor() {
        // A NaN logit makes every probability NaN; the floor used to turn
        // that into −ln 1e-12.
        for loss in [
            softmax_xent_grad(&mut [0.5, f32::NAN, -1.0], 0),
            softmax_xent_loss(&mut [0.5, f32::NAN, -1.0], 2),
        ] {
            assert!(loss.is_nan(), "{loss}");
        }
        // p underflows to exactly 0: the floor holds as before.
        let floor = -(1e-12f32).ln();
        assert!((floor - 27.631).abs() < 1e-3);
        let mut logits = [0.0, 200.0];
        assert_eq!(softmax_xent_grad(&mut logits, 0), floor);
        assert_eq!(logits[0], -1.0);
        assert_eq!(softmax_xent_loss(&mut [0.0, 200.0], 0), floor);
    }

    #[test]
    fn xent_gradient_sums_to_zero() {
        let mut g = vec![0.5, 0.1, -0.3];
        let _ = softmax_xent_grad(&mut g, 0);
        let s: f32 = g.iter().sum();
        assert!(s.abs() < 1e-6);
    }
}
