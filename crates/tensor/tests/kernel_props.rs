//! Property tests for the batched execution-engine kernels: randomized
//! shapes (including the m/n/k = 0 and 1 boundaries and sizes that are
//! not multiples of the 4-wide unroll) against
//!
//! * naive triple-loop references (value correctness, tolerance-checked
//!   because the naive association order differs), and
//! * the per-sample GEMV/GER primitives (the determinism contract:
//!   **bit-identical**, no tolerance), and
//! * for a kept-row subset, the kernel's own every-row form run through
//!   zeroed rows (**bit-identical**, operands including ±0, subnormals,
//!   `MAX`, ±∞ and NaN, so the finite guards decide the outcome), and
//! * the register tiles against both the per-sample primitives and
//!   the SSE2 / portable bodies they replaced (`ops::baseline`), and the
//!   512-bit tiles against the 256-bit ones (`ops::avx`, NaN encodings
//!   included), over shapes that land on every tile remainder of both
//!   tiers — the shapes the ASan leg (`scripts/asan.sh`) watches the
//!   tiles' edge loads on. A host without AVX-512F says on stderr that
//!   the 512-bit leg did not run ([`note_the_zmm_leg`]).

use fedbiad_tensor::cpu;
use fedbiad_tensor::ops::{self, Tier};
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

/// One operand element: mostly unit-scale normals, otherwise a value
/// from the edges where `x·0` stops being `+0.0` or an add stops being
/// exact (the generator of `crates/core/tests/theta_props.rs`).
fn edge(rng: &mut impl Rng) -> f32 {
    let sign = if rng.gen::<bool>() { 1.0f32 } else { -1.0 };
    sign * match rng.gen_range(0u32..24) {
        0 | 1 => 0.0,
        2 => f32::from_bits(rng.gen_range(1u32..0x0080_0000)), // subnormal
        3 => f32::MIN_POSITIVE,
        4 => f32::INFINITY,
        5 => f32::NAN,
        6 => f32::MAX,
        7 => 2f32.powi(rng.gen_range(-30i32..4)),
        _ => rng.gen_range(1e-3f32..2.0),
    }
}

/// `len` elements; `edgy` sprinkles [`edge`] values, otherwise the
/// operand is finite (zeros included).
fn operand(len: usize, edgy: bool, rng: &mut impl Rng) -> Vec<f32> {
    (0..len)
        .map(|_| {
            if edgy {
                edge(rng)
            } else if rng.gen_range(0..5) == 0 {
                0.0
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect()
}

/// `x` with every NaN replaced by one of any sign, quiet or signalling,
/// with a random payload — so a comparison of NaN encodings tells which
/// operand an operation returned, not just its sign. Only the tier
/// properties use it: the kept-row pins above compare two call shapes
/// whose NaN encodings are the code generator's choice (ROADMAP item
/// 3(d)), and distinct payloads make that choice visible where the
/// default NaN hides it.
fn with_payloads(mut x: Vec<f32>, rng: &mut impl Rng) -> Vec<f32> {
    for v in x.iter_mut().filter(|v| v.is_nan()) {
        *v = f32::from_bits(0x7F80_0001 | (rng.gen::<u32>() & 0x807F_FFFF));
    }
    x
}

/// A kept-row subset of `0..n` by shape: empty, all, one, every other,
/// all but a trailing block, random.
fn subset(shape: u32, n: usize, rng: &mut impl Rng) -> Vec<u32> {
    let n32 = n as u32;
    match shape {
        0 => Vec::new(),
        1 => (0..n32).collect(),
        2 => (0..n32).filter(|&r| r == n32 / 2).collect(),
        3 => (0..n32).step_by(2).collect(),
        4 => (0..n32 - n32 / 3).collect(),
        _ => (0..n32).filter(|_| rng.gen::<bool>()).collect(),
    }
}

/// `m` with every row outside `kept` set to `+0.0` — what a dropout
/// method hands the engine beside the kept-row view.
fn zero_dropped_rows(mut m: Matrix, kept: &[u32]) -> Matrix {
    for r in 0..m.rows() {
        if kept.binary_search(&(r as u32)).is_err() {
            m.zero_row(r);
        }
    }
    m
}

/// Bit patterns, NaN encodings included. The one exception is the ASan
/// leg (`scripts/asan.sh` builds with `--cfg fedbiad_asan`): instrumented
/// code orders the operands of `axpy` / `axpy4` differently, two of the
/// properties below fail there on the commit before the tiles too, and
/// that leg is about loads and stores — so it compares NaN as NaN.
fn bits(x: &[f32]) -> Vec<u32> {
    if cfg!(fedbiad_asan) {
        return bits_nan_as_nan(x);
    }
    x.iter().map(|v| v.to_bits()).collect()
}

/// [`bits`] with every NaN mapped to one encoding, for comparing a
/// batched kernel with the per-sample primitives or with its SSE2 twin on
/// operands that hold NaNs of both signs. Where both operands of a
/// multiply or an add are NaN, x86 returns the first source operand, and
/// which one that is differs per compiled loop: before the tiles existed
/// `gemm_nt` already differed from `gemv` there (`dot4`'s vector loop
/// against `dot`'s scalar one), `gemm_tn_acc` from `ger` (`axpy4`'s body
/// against `axpy`'s) and every AVX body from its SSE2 twin (`vmulps k,
/// [x]` against `mulps x, k`). Every other value, and *whether* an element
/// is NaN, is still compared exactly. The comparisons that did hold NaN
/// encodings equal — a kept-row call against dense-through-zeros, the
/// fused ordered accumulation against the `axpy` sequence — use [`bits`]
/// and still do: a register tile never stores a NaN, it hands the rows to
/// the loop it replaced (`ops.rs`, "Register tiles").
fn bits_nan_as_nan(x: &[f32]) -> Vec<u32> {
    x.iter()
        .map(|v| if v.is_nan() { 0x7FC0_0000 } else { v.to_bits() })
        .collect()
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
        ops::gemm_nt(&a, &b, m, None, &mut c);

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
        ops::gemm_tn_acc(&a, &b, k, None, &mut c);

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
        ops::gemm_nn(&a, &b, m, None, &mut c);
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
        ops::gemm_tn_acc(&a, &b[off * n..], k, None, &mut plain);
        let mut ord = Matrix::zeros(m, n);
        ops::gemm_tn_acc_ord(&a, &b, &order, off, None, &mut ord);
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

    /// Forward: only the kept weight rows' output columns are computed;
    /// the rest are written `+0.0` over whatever the buffer held — unless
    /// a non-finite input makes a zero row's dot NaN.
    #[test]
    fn gemm_nt_on_kept_rows_equals_dense_through_zeros(
        m in 0usize..11,
        n in 1usize..10,
        k in 0usize..12,
        shape in 0u32..6,
        edgy in 0u32..3,
        seed in 0u64..100_000,
    ) {
        let mut rng = stream(seed, StreamTag::Init, 1, 0);
        let kept = subset(shape, n, &mut rng);
        let a = operand(m * k, edgy == 1, &mut rng);
        let b = Matrix::from_vec(n, k, operand(n * k, edgy == 2, &mut rng));
        let b = zero_dropped_rows(b, &kept);
        let mut want = vec![7.0f32; m * n];
        ops::gemm_nt(&a, &b, m, None, &mut want);
        let mut got = vec![f32::NAN; m * n];
        ops::gemm_nt(&a, &b, m, Some(&kept), &mut got);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// Backprop: the AXPYs of dropped weight rows are left out — unless a
    /// non-finite coefficient makes `a·(+0.0)` NaN.
    #[test]
    fn gemm_nn_on_kept_rows_equals_dense_through_zeros(
        m in 0usize..8,
        n in 0usize..20,
        k in 1usize..14,
        shape in 0u32..6,
        edgy in 0u32..3,
        seed in 0u64..100_000,
    ) {
        let mut rng = stream(seed, StreamTag::Init, 2, 0);
        let kept = subset(shape, k, &mut rng);
        let a = operand(m * k, edgy == 1, &mut rng);
        let b = Matrix::from_vec(k, n, operand(k * n, edgy == 2, &mut rng));
        let b = zero_dropped_rows(b, &kept);
        let mut want = vec![7.0f32; m * n];
        ops::gemm_nn(&a, &b, m, None, &mut want);
        let mut got = vec![f32::NAN; m * n];
        ops::gemm_nn(&a, &b, m, Some(&kept), &mut got);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// Gradient accumulation, plain and ordered: kept rows receive the
    /// every-row call's bits, dropped rows are left exactly as they were
    /// (the caller's gradient mask zeroes them either way).
    #[test]
    fn gemm_tn_acc_on_kept_rows_equals_dense_then_masked(
        k in 0usize..11,
        m in 1usize..10,
        n in 0usize..20,
        off in 0usize..3,
        shape in 0u32..6,
        edgy in 0u32..2,
        seed in 0u64..100_000,
    ) {
        let mut rng = stream(seed, StreamTag::Init, 3, 0);
        let kept = subset(shape, m, &mut rng);
        let a = operand(k * m, edgy == 1, &mut rng);
        let b = operand((k + off) * n, edgy == 1, &mut rng);
        let init = Matrix::from_vec(m, n, operand(m * n, false, &mut rng));
        let mut order: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }

        let (mut want, mut got) = (init.clone(), init.clone());
        ops::gemm_tn_acc(&a, &b[off * n..], k, None, &mut want);
        ops::gemm_tn_acc(&a, &b[off * n..], k, Some(&kept), &mut got);
        let (mut want_ord, mut got_ord) = (init.clone(), init.clone());
        ops::gemm_tn_acc_ord(&a, &b, &order, off, None, &mut want_ord);
        ops::gemm_tn_acc_ord(&a, &b, &order, off, Some(&kept), &mut got_ord);
        for r in 0..m {
            let on = kept.binary_search(&(r as u32)).is_ok();
            let (w, wo) = if on { (&want, &want_ord) } else { (&init, &init) };
            prop_assert_eq!(bits(got.row(r)), bits(w.row(r)), "row {}", r);
            prop_assert_eq!(bits(got_ord.row(r)), bits(wo.row(r)), "ordered row {}", r);
        }
    }

    /// The fused ordered accumulation performs, per element, the AXPY
    /// sequence of the visit order with zero coefficients skipped — for
    /// any order (repeats included, length not a multiple of four),
    /// scattered zeros and a `B` row offset. NaN compares as NaN: where
    /// the running sum and a product are both NaN, `axpy` adds with `y`
    /// folded in as the memory operand and `axpy4` with its running sum
    /// in a register, so x86 hands back a different NaN of the two — in
    /// release on this property's own cases, and at 20 000 cases under
    /// every profile. Putting the product first in `axpy4` does not
    /// settle it (it fails there too), so the encoding is left to the
    /// code generator and this property holds every non-NaN bit.
    #[test]
    fn fused_ordered_accumulation_equals_the_per_sample_axpy_sequence(
        k in 1usize..9,
        m in 1usize..6,
        n in 0usize..20,
        visits in 0usize..23,
        off in 0usize..3,
        edgy in 0u32..2,
        seed in 0u64..100_000,
    ) {
        let mut rng = stream(seed, StreamTag::Init, 4, 0);
        let a = operand(k * m, edgy == 1, &mut rng);
        let b = operand((k + off) * n, edgy == 1, &mut rng);
        let order: Vec<usize> = (0..visits).map(|_| rng.gen_range(0..k)).collect();
        let init = Matrix::from_vec(m, n, operand(m * n, false, &mut rng));

        let mut got = init.clone();
        ops::gemm_tn_acc_ord(&a, &b, &order, off, None, &mut got);
        let mut want = init;
        for r in 0..m {
            for &s in &order {
                let coeff = a[s * m + r];
                if coeff != 0.0 {
                    ops::axpy(coeff, &b[(s + off) * n..(s + off + 1) * n], want.row_mut(r));
                }
            }
        }
        prop_assert_eq!(bits_nan_as_nan(got.as_slice()), bits_nan_as_nan(want.as_slice()));
    }
}

/// Batch sizes that land on every sample-tile remainder of the three
/// kernels (`gemm_nt`: 4 + 1; `gemm_nn`: 2 + 1, or 4 + 1..3 with
/// AVX-512; gradient rows: 4 + 1..3) — every `m mod 4`.
fn tile_row_counts() -> Vec<usize> {
    vec![1, 2, 3, 4, 5, 6, 7, 16, 33]
}

/// Row widths around every accumulation-tile boundary of both tiers:
/// below one vector, `n mod 8` columns beside 1..12 `ymm` vectors (tile
/// heights 4, 3, 2, 1) and past them; `n mod 16` columns beside 1..24
/// `zmm` vectors (heights 4, 3, 2, 1 at 1–6, 7–8, 9–12, 13–24 vectors)
/// and past the 24 accumulators, where rows stream.
fn acc_widths() -> Vec<usize> {
    vec![
        1, 3, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 40, 47, 48, 49, 63, 71, 95, 96, 97, 103,
        104, 110, 112, 127, 128, 129, 143, 144, 193, 383, 384, 399, 400, 401,
    ]
}

/// Whether the production GEMMs run the 512-bit tier on this host. Where
/// they do not, every `zmm ≡ ymm` comparison below compares the 256-bit
/// tier with itself, and this says so once — on stderr, past the test
/// harness's capture — so that leg never passes silently.
fn note_the_zmm_leg() -> bool {
    static NOTE: std::sync::Once = std::sync::Once::new();
    let runs = ops::tier() == Tier::Avx512;
    if !runs {
        NOTE.call_once(|| {
            use std::io::Write;
            let _ = writeln!(
                std::io::stderr(),
                "kernel_props: no avx512f on this host (tier {:?}) — the 512-bit tile leg did not run",
                ops::tier()
            );
        });
    }
    runs
}

/// A kept subset of `0..n` by `shape` (see [`subset`]); `shape` 6 is
/// `None`, every row.
fn kept_rows(shape: u32, n: usize, rng: &mut impl Rng) -> Option<Vec<u32>> {
    (shape < 6).then(|| subset(shape, n, rng))
}

/// The rows of a gradient a call with `kept` accumulates into.
fn takes_row(kept: &Option<Vec<u32>>, r: usize) -> bool {
    kept.as_ref()
        .is_none_or(|k| k.binary_search(&(r as u32)).is_ok())
}

proptest! {
    /// The forward tiles (4 × 8 `zmm`, 4 × 4, 1 × 8, their `dot4` / `dot`
    /// remainders) equal `gemv` per sample, the baseline body and — NaN
    /// encodings included — the 256-bit tier, on every row of the weight
    /// matrix or on a kept subset of it.
    #[test]
    fn tiled_gemm_nt_equals_gemv_and_the_baseline_body(
        m in prop::sample::select(tile_row_counts()),
        n in 1usize..42,
        k in prop::sample::select(vec![0usize, 1, 2, 3, 4, 5, 7, 8, 13, 23, 24, 47, 48, 49, 50]),
        shape in 0u32..7,
        edgy in 0u32..3,
        seed in 0u64..100_000,
    ) {
        let mut rng = stream(seed, StreamTag::Init, 6, 0);
        let kept = kept_rows(shape, n, &mut rng);
        let a = operand(m * k, edgy == 1, &mut rng);
        let a = with_payloads(a, &mut rng);
        let b = with_payloads(operand(n * k, edgy == 2, &mut rng), &mut rng);
        let mut b = Matrix::from_vec(n, k, b);
        if let Some(kept) = &kept {
            b = zero_dropped_rows(b, kept);
        }
        let mut want = vec![0.0f32; m * n];
        for i in 0..m {
            ops::gemv(&b, &a[i * k..(i + 1) * k], &[], &mut want[i * n..(i + 1) * n]);
        }
        let mut got = vec![f32::NAN; m * n];
        ops::gemm_nt(&a, &b, m, kept.as_deref(), &mut got);
        prop_assert_eq!(bits_nan_as_nan(&got), bits_nan_as_nan(&want), "tiles vs gemv");
        let mut base = vec![f32::NAN; m * n];
        ops::baseline::gemm_nt(&a, &b, m, kept.as_deref(), &mut base);
        prop_assert_eq!(bits_nan_as_nan(&got), bits_nan_as_nan(&base), "tiles vs baseline");
        let mut ymm = vec![f32::NAN; m * n];
        ops::avx::gemm_nt(&a, &b, m, kept.as_deref(), &mut ymm);
        note_the_zmm_leg();
        prop_assert_eq!(bits(&got), bits(&ymm), "zmm vs ymm");
    }

    /// The backprop tiles equal `gemv_t` per sample, the baseline body
    /// and the 256-bit tier: zero coefficients (one in five, or `±0`
    /// among the edge values) are skipped per (sample, weight row),
    /// whatever the tile — no weight rows at all included.
    #[test]
    fn tiled_gemm_nn_equals_gemv_t_and_the_baseline_body(
        m in prop::sample::select(tile_row_counts()),
        k in 0usize..14,
        n in prop::sample::select(acc_widths()),
        shape in 0u32..7,
        edgy in 0u32..3,
        seed in 0u64..100_000,
    ) {
        let mut rng = stream(seed, StreamTag::Init, 7, 0);
        let kept = kept_rows(shape, k, &mut rng);
        let a = operand(m * k, edgy == 1, &mut rng);
        let a = with_payloads(a, &mut rng);
        let b = with_payloads(operand(k * n, edgy == 2, &mut rng), &mut rng);
        let mut b = Matrix::from_vec(k, n, b);
        if let Some(kept) = &kept {
            b = zero_dropped_rows(b, kept);
        }
        let mut want = vec![0.0f32; m * n];
        for i in 0..m {
            ops::gemv_t(&b, &a[i * k..(i + 1) * k], &mut want[i * n..(i + 1) * n]);
        }
        let mut got = vec![f32::NAN; m * n];
        ops::gemm_nn(&a, &b, m, kept.as_deref(), &mut got);
        prop_assert_eq!(bits_nan_as_nan(&got), bits_nan_as_nan(&want), "tiles vs gemv_t");
        let mut base = vec![f32::NAN; m * n];
        ops::baseline::gemm_nn(&a, &b, m, kept.as_deref(), &mut base);
        prop_assert_eq!(bits_nan_as_nan(&got), bits_nan_as_nan(&base), "tiles vs baseline");
        let mut ymm = vec![f32::NAN; m * n];
        ops::avx::gemm_nn(&a, &b, m, kept.as_deref(), &mut ymm);
        note_the_zmm_leg();
        prop_assert_eq!(bits(&got), bits(&ymm), "zmm vs ymm");
    }

    /// The gradient tiles, plain and ordered, equal the `ger` / `axpy`
    /// sequences, the baseline body and the 256-bit tier (NaN encodings
    /// included) — into a gradient seeded with
    /// `−0.0` (which only survives if zero coefficients are skipped and
    /// not multiplied through), for any visit order with repeats and a
    /// `B` row offset, on every row or on a kept subset (the other rows
    /// left untouched).
    #[test]
    fn tiled_gemm_tn_acc_equals_the_ger_sequence_and_the_baseline_body(
        k in 0usize..9,
        m in prop::sample::select(tile_row_counts()),
        n in prop::sample::select(acc_widths()),
        visits in 0usize..19,
        off in 0usize..3,
        shape in 0u32..7,
        edgy in 0u32..2,
        seed in 0u64..100_000,
    ) {
        let mut rng = stream(seed, StreamTag::Init, 8, 0);
        let kept = kept_rows(shape, m, &mut rng);
        let a = operand(k * m, edgy == 1, &mut rng);
        let a = with_payloads(a, &mut rng);
        let b = with_payloads(operand((k + off) * n, edgy == 1, &mut rng), &mut rng);
        let order: Vec<usize> = (0..visits.min(k * 19)).map(|_| rng.gen_range(0..k)).collect();
        let mut init = operand(m * n, false, &mut rng);
        for v in init.iter_mut() {
            if rng.gen_range(0..4) == 0 {
                *v = -0.0;
            }
        }
        let init = Matrix::from_vec(m, n, init);

        let (mut want, mut want_ord) = (init.clone(), init.clone());
        for s in 0..k {
            let brow = &b[(s + off) * n..(s + off + 1) * n];
            ops::ger(&mut want, 1.0, &a[s * m..(s + 1) * m], brow);
        }
        for r in 0..m {
            if !takes_row(&kept, r) {
                want.row_mut(r).copy_from_slice(init.row(r));
                continue;
            }
            for &s in &order {
                let coeff = a[s * m + r];
                if coeff != 0.0 {
                    ops::axpy(coeff, &b[(s + off) * n..(s + off + 1) * n], want_ord.row_mut(r));
                }
            }
        }

        let rows = kept.as_deref();
        note_the_zmm_leg();
        let (mut got, mut base, mut ymm) = (init.clone(), init.clone(), init.clone());
        ops::gemm_tn_acc(&a, &b[off * n..], k, rows, &mut got);
        ops::baseline::gemm_tn_acc(&a, &b[off * n..], k, rows, &mut base);
        ops::avx::gemm_tn_acc(&a, &b[off * n..], k, rows, &mut ymm);
        prop_assert_eq!(bits(got.as_slice()), bits(ymm.as_slice()), "zmm vs ymm");
        prop_assert_eq!(
            bits_nan_as_nan(got.as_slice()),
            bits_nan_as_nan(want.as_slice()),
            "tiles vs ger"
        );
        prop_assert_eq!(
            bits_nan_as_nan(got.as_slice()),
            bits_nan_as_nan(base.as_slice()),
            "tiles vs baseline"
        );

        let (mut got, mut base, mut ymm) = (init.clone(), init.clone(), init.clone());
        ops::gemm_tn_acc_ord(&a, &b, &order, off, rows, &mut got);
        ops::baseline::gemm_tn_acc_ord(&a, &b, &order, off, rows, &mut base);
        ops::avx::gemm_tn_acc_ord(&a, &b, &order, off, rows, &mut ymm);
        prop_assert_eq!(bits(got.as_slice()), bits(ymm.as_slice()), "ordered zmm vs ymm");
        prop_assert_eq!(
            bits_nan_as_nan(got.as_slice()),
            bits_nan_as_nan(want_ord.as_slice()),
            "ordered tiles vs axpy"
        );
        prop_assert_eq!(
            bits_nan_as_nan(got.as_slice()),
            bits_nan_as_nan(base.as_slice()),
            "ordered tiles vs baseline"
        );
    }
}

/// The zero test is per (output row, term), not per tile: one zero
/// coefficient planted at each position of a tile in turn, the matching
/// `B` row holding an infinity and the gradient seeded with `−0.0`. A
/// tile that skipped the term for all of its rows would drop the other
/// rows' infinities; one that multiplied through would turn the planted
/// row's `−0.0` into NaN (`0·inf`) — and an all-zero coefficient column
/// must leave its `−0.0` row exactly as it was.
#[test]
fn a_zero_coefficient_is_skipped_at_every_position_of_a_tile() {
    let terms = 6usize;
    // `ymm` tile heights 4, 2, 1 and a streamed row; `zmm` heights 4, 3,
    // 1 and a streamed row.
    for n in [24usize, 48, 96, 104, 128, 384, 400] {
        for q in 0..4 {
            for t in 0..terms {
                let m = 5; // one full group of four rows and a remainder row
                let mut a = vec![1.5f32; terms * m];
                a[t * m + q] = 0.0;
                for s in 0..terms {
                    a[s * m + 4] = 0.0; // row 4: every coefficient zero
                }
                let mut b: Vec<f32> = (0..terms * n).map(|i| 0.25 + (i % 7) as f32).collect();
                b[t * n + n / 2] = f32::INFINITY;
                let init = Matrix::full(m, n, -0.0);
                let order: Vec<usize> = (0..terms).rev().collect();

                let mut want = init.clone();
                for r in 0..m {
                    for &s in &order {
                        if a[s * m + r] != 0.0 {
                            ops::axpy(a[s * m + r], &b[s * n..(s + 1) * n], want.row_mut(r));
                        }
                    }
                }
                let mut got = init.clone();
                ops::gemm_tn_acc_ord(&a, &b, &order, 0, None, &mut got);
                assert_eq!(
                    bits(got.as_slice()),
                    bits(want.as_slice()),
                    "gradient, n {n} row {q} term {t}"
                );
                assert!(got.row(q).iter().all(|v| v.is_finite()), "0·inf formed");
                assert!(got
                    .row(4)
                    .iter()
                    .all(|v| v.to_bits() == (-0.0f32).to_bits()));
                assert_eq!(got.get((q + 1) % 4, n / 2), f32::INFINITY);

                // The same plant through the backprop product: sample
                // row `q` of `Aᵀ` against weight rows `b`.
                let at: Vec<f32> = (0..m * terms)
                    .map(|i| a[(i % terms) * m + i / terms])
                    .collect();
                let w = Matrix::from_vec(terms, n, b.clone());
                let mut want = vec![0.0f32; m * n];
                for i in 0..m {
                    let coeffs = &at[i * terms..(i + 1) * terms];
                    ops::gemv_t(&w, coeffs, &mut want[i * n..(i + 1) * n]);
                }
                let mut got = vec![f32::NAN; m * n];
                ops::gemm_nn(&at, &w, m, None, &mut got);
                assert_eq!(bits(&got), bits(&want), "backprop, n {n} row {q} term {t}");
                assert!(got[q * n..(q + 1) * n].iter().all(|v| v.is_finite()));
            }
        }
    }
}

/// The same four identities on shapes past the rayon threshold
/// (`m·n ≥ 4096`), where gradient rows are filtered inside the parallel
/// iterator instead of being visited from the kept list.
#[test]
fn kept_rows_equal_dense_through_zeros_on_parallel_shapes() {
    let (m, n, k) = (48usize, 96usize, 33usize);
    let mut rng = stream(5, StreamTag::Init, 5, 0);
    let a = operand(m * k, false, &mut rng);
    let kept = subset(5, n, &mut rng);
    let b = zero_dropped_rows(
        Matrix::from_vec(n, k, operand(n * k, false, &mut rng)),
        &kept,
    );
    let (mut want, mut got) = (vec![0.0f32; m * n], vec![f32::NAN; m * n]);
    ops::gemm_nt(&a, &b, m, None, &mut want);
    ops::gemm_nt(&a, &b, m, Some(&kept), &mut got);
    assert_eq!(bits(&got), bits(&want), "gemm_nt");

    // C = A·B with A: m×n coefficients over B's n (kept) rows.
    let coeffs = operand(m * n, false, &mut rng);
    let wide = zero_dropped_rows(
        Matrix::from_vec(n, n, operand(n * n, false, &mut rng)),
        &kept,
    );
    let (mut want, mut got) = (vec![0.0f32; m * n], vec![f32::NAN; m * n]);
    ops::gemm_nn(&coeffs, &wide, m, None, &mut want);
    ops::gemm_nn(&coeffs, &wide, m, Some(&kept), &mut got);
    assert_eq!(bits(&got), bits(&want), "gemm_nn");

    // Gradient of an n×k matrix from m samples.
    let order: Vec<usize> = (0..m).rev().collect();
    let (mut want, mut got) = (Matrix::zeros(n, k), Matrix::zeros(n, k));
    ops::gemm_tn_acc(&coeffs, &a, m, None, &mut want);
    ops::gemm_tn_acc(&coeffs, &a, m, Some(&kept), &mut got);
    let (mut want_ord, mut got_ord) = (Matrix::zeros(n, k), Matrix::zeros(n, k));
    ops::gemm_tn_acc_ord(&coeffs, &a, &order, 0, None, &mut want_ord);
    ops::gemm_tn_acc_ord(&coeffs, &a, &order, 0, Some(&kept), &mut got_ord);
    assert!(
        n * k < 4096 && n * n >= 4096,
        "one sequential, one parallel gradient"
    );
    let (mut want_par, mut got_par) = (Matrix::zeros(n, n), Matrix::zeros(n, n));
    ops::gemm_tn_acc(&coeffs, &coeffs, m, None, &mut want_par);
    ops::gemm_tn_acc(&coeffs, &coeffs, m, Some(&kept), &mut got_par);
    for r in 0..n {
        let on = kept.binary_search(&(r as u32)).is_ok();
        let zero = vec![0u32; n];
        let pick = |w: &Matrix| {
            if on {
                bits(w.row(r))
            } else {
                zero[..w.cols()].to_vec()
            }
        };
        assert_eq!(bits(got.row(r)), pick(&want), "gemm_tn_acc row {r}");
        assert_eq!(
            bits(got_ord.row(r)),
            pick(&want_ord),
            "gemm_tn_acc_ord row {r}"
        );
        assert_eq!(
            bits(got_par.row(r)),
            pick(&want_par),
            "parallel gemm_tn_acc row {r}"
        );
    }
}

/// The tier is what the host offers: the 512-bit tiles run wherever AVX
/// and AVX-512F are detected, so the `zmm ≡ ymm` leg above is never
/// skipped on a host that could run it.
#[test]
fn the_gemm_tier_is_the_hosts() {
    let cpu = cpu::get();
    let want = match (cpu.avx, cpu.avx512f) {
        (false, _) => Tier::Baseline,
        (true, false) => Tier::Avx,
        (true, true) => Tier::Avx512,
    };
    assert_eq!(ops::tier(), want);
    assert_eq!(note_the_zmm_leg(), want == Tier::Avx512);
}
