//! Property tests for the batched execution-engine kernels: randomized
//! shapes (including the m/n/k = 0 and 1 boundaries and sizes that are
//! not multiples of the 4-wide unroll) against
//!
//! * naive triple-loop references (value correctness, tolerance-checked
//!   because the naive association order differs), and
//! * the per-sample GEMV/GER primitives (the determinism contract:
//!   **bit-identical**, no tolerance).

use fedbiad_tensor::ops;
use fedbiad_tensor::rng::{stream, StreamTag};
use fedbiad_tensor::Matrix;
use proptest::prelude::*;
use rand::Rng;

fn filled_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = stream(seed, StreamTag::Init, 0, 0);
    (0..len)
        .map(|_| {
            // Sprinkle exact zeros so the zero-skip paths are exercised.
            if rng.gen_range(0..5) == 0 {
                0.0
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect()
}

fn matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_vec(rows, cols, filled_vec(rows * cols, seed))
}

fn assert_close(got: f32, want: f32, what: &str) {
    let tol = 1e-3f32.max(want.abs() * 1e-4);
    assert!((got - want).abs() <= tol, "{what}: {got} vs {want}");
}

proptest! {
    /// `gemm_nt` row i is bit-identical to `gemv` on sample i, and its
    /// values match the naive inner-product reference.
    #[test]
    fn gemm_nt_matches_gemv_and_naive(
        m in 0usize..10,
        n in 0usize..10,
        k in 0usize..12,
        seed in 0u64..1000,
    ) {
        let a = filled_vec(m * k, seed);
        let b = matrix(n, k, seed ^ 0x11);
        let mut c = vec![0.0f32; m * n];
        ops::gemm_nt(&a, &b, m, &mut c);

        let mut row = vec![0.0f32; n];
        for i in 0..m {
            ops::gemv(&b, &a[i * k..(i + 1) * k], &[], &mut row);
            for j in 0..n {
                prop_assert_eq!(c[i * n + j].to_bits(), row[j].to_bits());
                let naive: f32 = (0..k).map(|p| a[i * k + p] * b.get(j, p)).sum();
                assert_close(c[i * n + j], naive, "gemm_nt vs naive");
            }
        }
    }

    /// `gemm_tn_acc` equals the sample-ascending `ger` sequence bit for
    /// bit (including on a nonzero initial accumulator) and the naive
    /// sum within tolerance.
    #[test]
    fn gemm_tn_acc_matches_ger_and_naive(
        k in 0usize..10,
        m in 0usize..10,
        n in 0usize..12,
        seed in 0u64..1000,
    ) {
        let a = filled_vec(k * m, seed);
        let b = filled_vec(k * n, seed ^ 0x22);
        let init = matrix(m, n, seed ^ 0x33);
        let mut c = init.clone();
        ops::gemm_tn_acc(&a, &b, k, &mut c);

        let mut want = init.clone();
        for s in 0..k {
            ops::ger(&mut want, 1.0, &a[s * m..(s + 1) * m], &b[s * n..(s + 1) * n]);
        }
        for (g, w) in c.as_slice().iter().zip(want.as_slice()) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
        for r in 0..m {
            for j in 0..n {
                let naive: f32 =
                    init.get(r, j) + (0..k).map(|s| a[s * m + r] * b[s * n + j]).sum::<f32>();
                assert_close(c.get(r, j), naive, "gemm_tn_acc vs naive");
            }
        }
    }

    /// `gemm_nn` row i is bit-identical to `gemv_t` on sample i.
    #[test]
    fn gemm_nn_matches_gemv_t(
        m in 0usize..10,
        n in 0usize..12,
        k in 0usize..10,
        seed in 0u64..1000,
    ) {
        let a = filled_vec(m * k, seed);
        let b = matrix(k, n, seed ^ 0x44);
        let mut c = vec![0.0f32; m * n];
        ops::gemm_nn(&a, &b, m, &mut c);
        let mut row = vec![0.0f32; n];
        for i in 0..m {
            ops::gemv_t(&b, &a[i * k..(i + 1) * k], &mut row);
            for j in 0..n {
                prop_assert_eq!(c[i * n + j].to_bits(), row[j].to_bits());
            }
        }
    }

    /// The ordered accumulation with the natural order reproduces
    /// `gemm_tn_acc`, and a row offset shifts which `B` rows are read.
    #[test]
    fn ordered_variants_agree_with_plain(
        k in 1usize..8,
        m in 1usize..8,
        n in 1usize..10,
        off in 0usize..3,
        seed in 0u64..1000,
    ) {
        let a = filled_vec(k * m, seed);
        let b = filled_vec((k + off) * n, seed ^ 0x55);
        let order: Vec<usize> = (0..k).collect();

        let mut plain = Matrix::zeros(m, n);
        ops::gemm_tn_acc(&a, &b[off * n..], k, &mut plain);
        let mut ord = Matrix::zeros(m, n);
        ops::gemm_tn_acc_ord(&a, &b, &order, off, &mut ord);
        for (g, w) in ord.as_slice().iter().zip(plain.as_slice()) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }

        let mut acc_plain = vec![0.0f32; m];
        ops::add_row_sums(&a, k, &mut acc_plain);
        let mut acc_ord = vec![0.0f32; m];
        ops::add_row_sums_ord(&a, &order, &mut acc_ord);
        for (g, w) in acc_ord.iter().zip(&acc_plain) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
    }
}
