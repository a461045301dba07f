//! Activation functions.
//!
//! The paper's Assumption 1 requires 1-Lipschitz activations; ReLU, tanh and
//! sigmoid (the three the paper names) all satisfy it.

use fedbiad_tensor::math;
use serde::{Deserialize, Serialize};

/// Supported activation functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity (no nonlinearity) — used by output heads before softmax.
    Linear,
    /// max(0, x)
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Apply in place.
    pub fn forward(self, xs: &mut [f32]) {
        match self {
            Activation::Linear => {}
            Activation::Relu => {
                for x in xs {
                    if *x < 0.0 {
                        *x = 0.0;
                    }
                }
            }
            Activation::Tanh => math::tanh_slice(xs),
            Activation::Sigmoid => math::sigmoid_slice(xs),
        }
    }

    /// Multiply `grad` by the activation derivative, expressed in terms of
    /// the *outputs* `ys` (all three nonlinearities admit this form, which
    /// avoids caching pre-activations).
    pub fn backward_from_output(self, ys: &[f32], grad: &mut [f32]) {
        debug_assert_eq!(ys.len(), grad.len());
        match self {
            Activation::Linear => {}
            Activation::Relu => {
                for (g, &y) in grad.iter_mut().zip(ys) {
                    if y <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            Activation::Tanh => {
                for (g, &y) in grad.iter_mut().zip(ys) {
                    *g *= 1.0 - y * y;
                }
            }
            Activation::Sigmoid => {
                for (g, &y) in grad.iter_mut().zip(ys) {
                    *g *= y * (1.0 - y);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_tensor::math::sigmoid;

    #[test]
    fn relu_forward_backward() {
        let mut xs = vec![-1.0, 0.0, 2.0];
        Activation::Relu.forward(&mut xs);
        assert_eq!(xs, vec![0.0, 0.0, 2.0]);
        let mut g = vec![1.0, 1.0, 1.0];
        Activation::Relu.backward_from_output(&xs, &mut g);
        assert_eq!(g, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn sigmoid_is_stable_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(100.0) <= 1.0);
        assert!(sigmoid(-100.0) >= 0.0);
        let x = 1.234f32;
        assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn tanh_backward_matches_finite_difference() {
        let x = 0.7f32;
        let mut y = vec![x];
        Activation::Tanh.forward(&mut y);
        let mut g = vec![1.0];
        Activation::Tanh.backward_from_output(&y, &mut g);
        let eps = 1e-3;
        let fd = ((x + eps).tanh() - (x - eps).tanh()) / (2.0 * eps);
        assert!((g[0] - fd).abs() < 1e-4, "{} vs {}", g[0], fd);
    }

    #[test]
    fn activations_are_one_lipschitz_on_samples() {
        // Assumption 1 of the paper: |f(a)-f(b)| <= |a-b|.
        for act in [Activation::Relu, Activation::Tanh, Activation::Sigmoid] {
            for i in -20..20 {
                let a = i as f32 * 0.25;
                let b = a + 0.1;
                let mut va = vec![a];
                let mut vb = vec![b];
                act.forward(&mut va);
                act.forward(&mut vb);
                assert!(
                    (va[0] - vb[0]).abs() <= 0.1 + 1e-6,
                    "{act:?} not 1-Lipschitz at {a}"
                );
            }
        }
    }
}
