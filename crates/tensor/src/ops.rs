//! BLAS-like kernels: GEMV, GEMM, AXPY, dot products, outer-product
//! accumulation — plus the batched execution-engine kernels
//! ([`gemm_nt`], [`gemm_nn`], [`gemm_tn_acc`]) that process a whole
//! mini-batch per call.
//!
//! These are the hot loops of local training, so they are written over
//! plain slices (bounds checks elided by iterator shape) and parallelised
//! with rayon over row panels.
//!
//! # Bit contract of the batched kernels
//!
//! The repo's determinism contract (ARCHITECTURE.md) requires the batched
//! mini-batch path to reproduce the per-sample reference **bit for bit**.
//! Every batched kernel therefore pins its per-output association order to
//! the per-sample primitive it replaces:
//!
//! * [`gemm_nt`] row `i` ≡ [`gemv`] of sample `i` (same 4-lane [`dot`];
//!   `dot4`'s shared pass over the weight row changes loads, not sums);
//! * [`gemm_nn`] row `i` ≡ [`gemv_t`] of sample `i` (zero-skip AXPY over
//!   weight rows in ascending order);
//! * [`gemm_tn_acc`] ≡ the sample-ascending sequence of [`ger`] rank-1
//!   updates (each output row accumulates its AXPYs in sample order,
//!   skipping zero coefficients exactly like `ger`);
//! * [`add_bias_cols`] exploits that IEEE-754 addition is commutative in
//!   its result bits, so `dot + bias` ≡ `bias + dot`;
//! * the `_ord` variants replay an explicit row-visit order — the BPTT
//!   accumulation order (window-major, step-descending) of the sequential
//!   LSTM reference.
//!
//! # Kept rows
//!
//! The four GEMMs take `rows: Option<&[u32]>` — `None` for every row of
//! the weight (or gradient) matrix, otherwise the strictly ascending
//! indices of the rows a dropout method kept, **every other row of the
//! weight matrix being all `+0.0`**. With a subset they compute only
//! those rows and produce the bits the `None` call produces on the same
//! operands: a zero row's dot is `+0.0` and its AXPY is a no-op *when the
//! other operand is finite*, so [`gemm_nt`] and [`gemm_nn`] check that
//! per sample row and run the row dense when it is not; a dropped
//! gradient row is left as the caller zeroed it, which is what the
//! caller's gradient mask would have written
//! (`crates/tensor/tests/kernel_props.rs` pins each against
//! dense-through-zeros).
//!
//! # Register tiles
//!
//! The bit contract fixes, per *output element*, the order of its adds.
//! It says nothing about how many outputs are in flight, so the inner
//! loops hold a tile of outputs in vector registers across the whole
//! reduction and touch memory for them once. [`tier`] picks the tiles
//! once per process from the CPU's features: with AVX, `ymm` tiles sized
//! for its sixteen registers; with AVX-512F as well, `zmm` tiles sized
//! for its thirty-two, and the `ymm` tiles for the shapes those leave.
//! Neither tier uses FMA or AVX2 (the `zmm` tier needs AVX-512F, nothing
//! more). Inside a tile every operation is a vertical `vmulps` followed by
//! a vertical `vaddps` on unaligned loads — lane for lane the scalar
//! sequence of the primitive; nothing is fused, reassociated or added
//! horizontally.
//!
//! | tier | kernel | tile | accumulators | parallel over |
//! |---|---|---|---|---|
//! | `ymm` | [`gemm_nt`] | 4 samples × 4 weight rows | 8 (two samples' 4-lane chunk sums each) | blocks of 4 samples |
//! | `zmm` | [`gemm_nt`] | 4 samples × 8 weight rows, then the `ymm` 4 × 4 for a remainder of 4–7 | 8 (four samples' 4-lane chunk sums each, one per 128-bit quarter) | blocks of 4 samples |
//! | both | [`gemm_nt`], `m mod 4` rows (all of batch 1) | 1 sample × 8 weight rows (`ymm`) | 4 (two weight rows' chunk sums each) | — (after the blocks) |
//! | `ymm` | [`gemm_nn`] | up to 2 sample rows × the whole row (8–103 columns) | rows × `n/8` ≤ 12 | pairs of sample rows |
//! | `zmm` | [`gemm_nn`] | up to 4 sample rows × the whole row (16–399 columns; 8–15 take the `ymm` tile) | rows × `n/16` ≤ 24 | groups of 4 sample rows |
//! | `ymm` | [`gemm_tn_acc`]`{,_ord}` | up to 4 gradient rows × the whole row (8–103 columns) | rows × `n/8` ≤ 12 | aligned groups of 4 gradient rows |
//! | `zmm` | [`gemm_tn_acc`]`{,_ord}` | up to 4 gradient rows × the whole row (16–399 columns; 8–15 take the `ymm` tile) | rows × `n/16` ≤ 24 | aligned groups of 4 gradient rows |
//!
//! Why no bit can move:
//!
//! * [`gemm_nt`], `ymm`: an accumulator is `dot4`'s packing — one sample
//!   pair's private four lane sums against one weight row — and there are
//!   eight of them instead of two, so eight add chains overlap where two
//!   stalled on add latency; each chain is still one output's chunk sum,
//!   closed by `((l0 + l1) + l2) + l3 + tail` (an in-lane transpose lines
//!   the lanes up so the three adds are vertical).
//! * [`gemm_nt`], `zmm`: quarter `s` of an accumulator is sample `s`'s
//!   private four lane sums against one weight row. The block's four
//!   samples are interleaved by 4-element chunk once per block, so one
//!   load brings chunk `c` of all four, and each weight row's chunk is
//!   broadcast to the four quarters (`vbroadcastf32x4`). The same in-lane
//!   transpose, quarter by quarter, closes each chain as `dot` does.
//! * [`gemm_nn`], [`gemm_tn_acc`]`{,_ord}`: an accumulator is eight
//!   (`zmm`: sixteen) adjacent elements of one output row; term `t`
//!   updates it as `acc = acc + coeff·b`, in term order, and the
//!   `coeff != 0.0` test is taken per (row, term) — a `−0.0` element
//!   survives a zero coefficient and `0·inf` is never formed where
//!   [`axpy`] would have been skipped. That is [`axpy`]'s element update
//!   with the row kept in a register between terms instead of stored and
//!   reloaded. A `zmm` tile of four sample rows shares each weight row's
//!   loads four ways where the `ymm` tile's two rows share them two ways.
//! * Kept rows ride the same tiles: a kept list only changes which weight
//!   rows (or terms, or gradient rows) a tile is handed.
//! * A tile never stores a NaN. Where both operands of a multiply or an
//!   add are NaN the hardware returns the first source operand, and which
//!   operand that is is the compiler's choice per loop — the one thing a
//!   different code shape could change. So a tile checks its results
//!   before storing them (a NaN never leaves a chain of adds, so the
//!   final values tell) and, if one is NaN, leaves memory untouched and
//!   hands its rows to the loop the tiles replaced (`dot4` / [`dot`],
//!   `acc_row_kernel`): the NaN encodings a call returns are the ones it
//!   returned before tiles existed, at either tier. (The `zmm` forward
//!   loop returns to its caller before that loop runs, so the loop is
//!   never compiled into AVX-512 code.)
//!
//! **Shape rule.** A tile shape is chosen from the operands' shape alone:
//! `m mod 4` picks the forward tile, and an accumulation row is tiled
//! only when *all* of it fits the accumulators — `n/16 ≤ 24` `zmm`
//! vectors (`n ≤ 399`) in the `zmm` tier, `n/8 ≤ 12` `ymm` vectors
//! (`n ≤ 103`) otherwise — with as many rows beside each other as then
//! fit (at most four); the `n mod 16` (`n mod 8`) trailing columns
//! stream. Wider rows keep the row-streaming form (`acc_row_kernel`:
//! fused groups of four AXPYs over the whole row). The line is where it
//! is because of the zero test. A tile that covers the whole row asks
//! `coeff != 0.0` once per (row, term), like the streaming form; a row
//! cut into panels would ask once per panel, and with coefficients that
//! are zero unpredictably — a ReLU layer's deltas — every question is a
//! likely branch miss against three vector multiply-adds of work.
//! Measured on the 2-thread Sapphire-Rapids-class Xeon this was
//! developed on, one thread, C `128 × n` from 32 samples, tile ÷
//! streaming: `ymm` whole-row tiles at `n` = 24 / 48 / 64 / 96: 2.2 /
//! 1.9 / 1.3 / 1.2 with dense coefficients and 1.6 / 1.6 / 1.3 / 1.3
//! with half of them zero at random; `ymm` panelled tiles at `n` = 128 /
//! 256 / 784: 1.0 / 0.9 / 1.3 dense but 0.7 / 0.7 / 0.85 half-zero (0.4
//! at 10 % density) — and the MLP's W1 gradient (`128 × 784`, ReLU
//! deltas) is exactly that case, so it streams at both tiers. The `zmm`
//! whole-row tiles were measured the same way before rows wider than 96
//! columns were admitted (`examples/kernel_timing.rs`, its `gemm_tn_acc
//! 32 x 128 x n` rows): at `n` = 128 / 192 / 256 / 384, ≈ 2.3 / 2.1 /
//! 1.6 / 1.3 dense and ≈ 3.9 / 3.2 / 2.6 / 2.2 half-zero — never below
//! the streaming form, so every row that fits the 24 accumulators is
//! tiled.
//!
//! Without AVX (SSE2 on x86-64, portable code elsewhere) the pre-tile
//! loops run unchanged; [`baseline`] exposes them, and [`avx`] the `ymm`
//! tier, so the property tests hold the tiles against them on the same
//! operands.
//!
//! # Element-wise kernels
//!
//! Twelve kernels are purely vertical — output element `i` depends only
//! on element `i` of each operand: [`axpy`], [`add_assign_scalar`],
//! [`axpy_sum2`], [`axpy_from_le_bytes`], [`scale_into`],
//! [`div_scalar_into`], [`holders_combine`], [`stale_fill_combine`],
//! [`holders_combine_scalar`], [`stale_fill_combine_scalar`],
//! [`diff_into`] and [`sum2_diff_into`]. So are the two wire decoders,
//! [`sign_apply_from_bits`] and [`dequant_u8`], and FedPAQ's
//! [`quantise`]; [`max_abs`] is a reduction whose order does not matter
//! (an integer maximum). Each is written once, as its scalar loop, and
//! that loop is the definition. [`crate::cpu::avx`] compiles it twice —
//! inside an AVX function where the [`crate::cpu`] snapshot saw AVX, as
//! baseline code otherwise — and the compiler vectorizes both. Loops with
//! integer lanes (`max_abs`, `dequant_u8`) go through
//! [`crate::cpu::avx2`] instead, since AVX alone has no 256-bit integer
//! operations; the sign decoder's byte loop runs baseline code only,
//! which measured faster. A vector lane performs the loop's IEEE
//! operations on its element in the loop's order, so every instantiation
//! returns the loop's bits (up to which of two NaN operands an operation
//! passes on: the compiler picks the operand order per loop, in scalar
//! code too, so such a lane is NaN but its payload is not pinned). Only
//! the GEMM fallbacks `dot4` / `axpy4` and the register tiles keep
//! hand-written bodies.

use crate::matrix::Matrix;
use rayon::prelude::*;

/// `y += alpha * x` over equal-length slices: one of the vertical
/// kernels (module docs, "Element-wise kernels").
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    crate::cpu::avx(move || {
        for (y, &x) in y.iter_mut().zip(x) {
            *y += alpha * x;
        }
    });
}

/// Dot product of equal-length slices.
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    // 4-way unrolled accumulation: keeps several FMA chains in flight and is
    // deterministic (fixed association order), unlike a parallel reduction.
    let mut acc = [0.0f32; 4];
    let chunks = x.len() / 4;
    for i in 0..chunks {
        let b = i * 4;
        acc[0] += x[b] * y[b];
        acc[1] += x[b + 1] * y[b + 1];
        acc[2] += x[b + 2] * y[b + 2];
        acc[3] += x[b + 3] * y[b + 3];
    }
    let mut tail = 0.0;
    for i in chunks * 4..x.len() {
        tail += x[i] * y[i];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Squared L2 norm of a slice.
#[inline]
pub fn norm_sq(x: &[f32]) -> f32 {
    dot(x, x)
}

/// `y = W x + b` (GEMV). `b` may be empty to skip the bias.
///
/// Shapes: `W: m×n`, `x: n`, `b: m` (or empty), `y: m`.
pub fn gemv(w: &Matrix, x: &[f32], b: &[f32], y: &mut [f32]) {
    assert_eq!(w.cols(), x.len(), "gemv: W.cols != x.len");
    assert_eq!(w.rows(), y.len(), "gemv: W.rows != y.len");
    assert!(b.is_empty() || b.len() == y.len(), "gemv: bad bias length");
    for (r, yr) in y.iter_mut().enumerate() {
        let base = if b.is_empty() { 0.0 } else { b[r] };
        *yr = base + dot(w.row(r), x);
    }
}

/// `y = Wᵀ x` (transposed GEMV). Shapes: `W: m×n`, `x: m`, `y: n`.
///
/// Used by backprop to push deltas through a layer without materialising
/// the transpose.
pub fn gemv_t(w: &Matrix, x: &[f32], y: &mut [f32]) {
    assert_eq!(w.rows(), x.len(), "gemv_t: W.rows != x.len");
    assert_eq!(w.cols(), y.len(), "gemv_t: W.cols != y.len");
    y.fill(0.0);
    for (r, &xr) in x.iter().enumerate() {
        if xr != 0.0 {
            axpy(xr, w.row(r), y);
        }
    }
}

/// Rank-1 update `W += alpha * u vᵀ` (GER). Shapes: `W: m×n`, `u: m`, `v: n`.
///
/// This is how weight gradients accumulate: `dW += delta ⊗ input`.
pub fn ger(w: &mut Matrix, alpha: f32, u: &[f32], v: &[f32]) {
    assert_eq!(w.rows(), u.len(), "ger: W.rows != u.len");
    assert_eq!(w.cols(), v.len(), "ger: W.cols != v.len");
    for (r, &ur) in u.iter().enumerate() {
        let coeff = alpha * ur;
        if coeff != 0.0 {
            axpy(coeff, v, w.row_mut(r));
        }
    }
}

/// Minimum number of output elements before a GEMM hands its tile rows
/// to the rayon pool. The vendored pool has no work stealing: a parallel
/// call publishes one job and every participating thread claims tile
/// rows from an atomic counter. On one worker thread such a call runs
/// inline for the price of an environment lookup (≈ 0.1 µs — the pool
/// caches the hardware width), so there the threshold buys nothing and
/// costs nothing; with helpers it keeps the mutex / condvar hand-off (a
/// few µs per call) away from products whose arithmetic is shorter.
const GEMM_PAR_THRESHOLD: usize = 64 * 64;

/// Which register tiles the batched GEMMs run (module docs, "Register
/// tiles"); every tier returns the same bits. `as u8` is the trace gauge
/// `nn.gemm.tier`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Tier {
    /// No AVX: the pre-tile loops ([`baseline`]).
    Baseline = 0,
    /// The 256-bit tiles.
    Avx = 1,
    /// The 512-bit tiles, with the 256-bit ones for what they leave.
    Avx512 = 2,
}

/// The tier this host runs, read from the [`crate::cpu`] snapshot. No
/// knob, no env var, no cargo feature.
#[inline]
pub fn tier() -> Tier {
    let cpu = crate::cpu::get();
    if !cpu.avx {
        Tier::Baseline
    } else if cpu.avx512f {
        Tier::Avx512
    } else {
        Tier::Avx
    }
}

/// `C = A B` (GEMM), blocked over K and parallelised over row panels of C.
///
/// Shapes: `A: m×k`, `B: k×n`, `C: m×n`. The kernel iterates `k` in the
/// outer position and accumulates AXPYs into each output row, which walks
/// both `B` and `C` row-major — cache-friendly without an explicit pack.
///
/// ```
/// use fedbiad_tensor::ops::gemm;
/// use fedbiad_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
/// let mut c = Matrix::zeros(2, 2);
/// gemm(&a, &b, &mut c);
/// assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
/// ```
pub fn gemm(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "gemm: inner dims differ");
    assert_eq!(a.rows(), c.rows(), "gemm: C rows");
    assert_eq!(b.cols(), c.cols(), "gemm: C cols");
    gemm_nn(a.as_slice(), b, a.rows(), None, c.as_mut_slice());
}

/// The four batched GEMMs on a forced [`Tier`], capped at the host's:
/// `$tier` names the tier, `$doc` what it is.
macro_rules! forced_tier {
    ($name:ident, $tier:expr, $doc:literal) => {
        #[doc = $doc]
        #[doc(hidden)]
        pub mod $name {
            use super::{Matrix, Tier};

            fn forced() -> Tier {
                super::tier().min($tier)
            }

            /// [`super::gemm_nt`] on this tier.
            pub fn gemm_nt(a: &[f32], b: &Matrix, m: usize, rows: Option<&[u32]>, c: &mut [f32]) {
                super::gemm_nt_on(forced(), a, b, m, rows, c);
            }

            /// [`super::gemm_nn`] on this tier.
            pub fn gemm_nn(a: &[f32], b: &Matrix, m: usize, rows: Option<&[u32]>, c: &mut [f32]) {
                super::gemm_nn_on(forced(), a, b, m, rows, c);
            }

            /// [`super::gemm_tn_acc`] on this tier.
            pub fn gemm_tn_acc(
                a: &[f32],
                b: &[f32],
                k: usize,
                rows: Option<&[u32]>,
                c: &mut Matrix,
            ) {
                super::gemm_tn_acc_on(forced(), a, b, k, rows, c);
            }

            /// [`super::gemm_tn_acc_ord`] on this tier.
            pub fn gemm_tn_acc_ord(
                a: &[f32],
                b: &[f32],
                order: &[usize],
                b_row_off: usize,
                rows: Option<&[u32]>,
                c: &mut Matrix,
            ) {
                super::gemm_tn_acc_ord_on(forced(), a, b, order, b_row_off, rows, c);
            }
        }
    };
}

forced_tier!(
    baseline,
    Tier::Baseline,
    "The four batched GEMMs forced onto the non-AVX bodies (SSE2 on x86-64, \
     portable elsewhere: the pre-tile loops) — the path a CPU without AVX \
     runs in production, exposed so `tests/kernel_props.rs` can hold the \
     register tiles against it on the same operands. Same contracts as the \
     functions they mirror."
);

forced_tier!(
    avx,
    Tier::Avx,
    "The four batched GEMMs forced onto the 256-bit register tiles (the \
     baseline bodies on a host without AVX) — the path a CPU without \
     AVX-512F runs in production, exposed so `tests/kernel_props.rs` can \
     hold the 512-bit tiles against it and `bench_perf`'s `kernel512/*` \
     entries can time them. Same contracts as the functions they mirror."
);

/// An index list a GEMM walks: weight rows of a forward product, terms of
/// an accumulation. `All(k)` is `0..k`; the other two are a kept-row list
/// and a BPTT visit order.
#[derive(Clone, Copy)]
enum Idx<'a> {
    All(usize),
    Kept(&'a [u32]),
    Order(&'a [usize]),
}

impl Idx<'_> {
    #[inline(always)]
    fn len(&self) -> usize {
        match self {
            Idx::All(k) => *k,
            Idx::Kept(l) => l.len(),
            Idx::Order(l) => l.len(),
        }
    }

    #[inline(always)]
    fn get(&self, t: usize) -> usize {
        match self {
            Idx::All(_) => t,
            Idx::Kept(l) => l[t] as usize,
            Idx::Order(l) => l[t],
        }
    }
}

/// Four simultaneous dot products sharing one pass over `w`.
///
/// Each output keeps [`dot`]'s private 4-lane association (lane `l`
/// accumulates elements `l mod 4`, lanes summed left-to-right, tail
/// last), so the four results are bit-identical to four separate `dot`
/// calls — the sharing changes how often `w` is loaded, not any sum.
///
/// On x86-64 the inner loop is written with baseline SSE2 intrinsics
/// (`mulps`/`addps` are *vertical* per-lane f32 operations, so the
/// rounding of every lane is exactly the scalar computation's); LLVM's
/// auto-vectorizer proved too fragile across codegen-unit layouts for a
/// kernel this hot. Other targets use the portable scalar form.
#[inline]
fn dot4(x0: &[f32], x1: &[f32], x2: &[f32], x3: &[f32], w: &[f32], avx: bool) -> [f32; 4] {
    let n = w.len();
    debug_assert!(x0.len() == n && x1.len() == n && x2.len() == n && x3.len() == n);
    let chunks = n / 4;
    let acc: [[f32; 4]; 4];

    #[cfg(target_arch = "x86_64")]
    {
        // Safety: SSE2 is part of the x86-64 baseline; AVX is verified at
        // runtime. All unaligned loads stay inside the equal-length
        // slices (i + 4 <= chunks*4 <= n), checked by the debug_assert
        // above and the slice types.
        unsafe {
            if avx {
                acc = dot4_avx(x0, x1, x2, x3, w, chunks);
            } else {
                acc = dot4_sse(x0, x1, x2, x3, w, chunks);
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = avx;
        let mut a = [[0.0f32; 4]; 4];
        for ((((wc, c0), c1), c2), c3) in w
            .chunks_exact(4)
            .zip(x0.chunks_exact(4))
            .zip(x1.chunks_exact(4))
            .zip(x2.chunks_exact(4))
            .zip(x3.chunks_exact(4))
        {
            for l in 0..4 {
                a[0][l] += c0[l] * wc[l];
                a[1][l] += c1[l] * wc[l];
                a[2][l] += c2[l] * wc[l];
                a[3][l] += c3[l] * wc[l];
            }
        }
        acc = a;
    }

    let mut out = [0.0f32; 4];
    for (s, xs) in [x0, x1, x2, x3].into_iter().enumerate() {
        let mut tail = 0.0;
        for i in chunks * 4..n {
            tail += xs[i] * w[i];
        }
        out[s] = acc[s][0] + acc[s][1] + acc[s][2] + acc[s][3] + tail;
    }
    out
}

/// SSE2 inner loop of [`dot4`]: one 4-lane accumulator per sample,
/// vertical `mulps`/`addps` — lane `l` performs exactly the scalar
/// `acc[l] += x[b+l] * w[b+l]` sequence.
///
/// # Safety
/// Caller guarantees the five slices have equal length ≥ `chunks * 4`.
#[cfg(target_arch = "x86_64")]
#[inline]
unsafe fn dot4_sse(
    x0: &[f32],
    x1: &[f32],
    x2: &[f32],
    x3: &[f32],
    w: &[f32],
    chunks: usize,
) -> [[f32; 4]; 4] {
    use std::arch::x86_64::*;
    let mut a0 = _mm_setzero_ps();
    let mut a1 = _mm_setzero_ps();
    let mut a2 = _mm_setzero_ps();
    let mut a3 = _mm_setzero_ps();
    for c in 0..chunks {
        let i = c * 4;
        let wv = _mm_loadu_ps(w.as_ptr().add(i));
        a0 = _mm_add_ps(a0, _mm_mul_ps(_mm_loadu_ps(x0.as_ptr().add(i)), wv));
        a1 = _mm_add_ps(a1, _mm_mul_ps(_mm_loadu_ps(x1.as_ptr().add(i)), wv));
        a2 = _mm_add_ps(a2, _mm_mul_ps(_mm_loadu_ps(x2.as_ptr().add(i)), wv));
        a3 = _mm_add_ps(a3, _mm_mul_ps(_mm_loadu_ps(x3.as_ptr().add(i)), wv));
    }
    let mut acc = [[0.0f32; 4]; 4];
    _mm_storeu_ps(acc[0].as_mut_ptr(), a0);
    _mm_storeu_ps(acc[1].as_mut_ptr(), a1);
    _mm_storeu_ps(acc[2].as_mut_ptr(), a2);
    _mm_storeu_ps(acc[3].as_mut_ptr(), a3);
    acc
}

/// AVX inner loop of [`dot4`]: two samples share one 256-bit register
/// (`[s·lanes | s'·lanes]`) with the `w` chunk broadcast to both halves.
/// Every lane still runs its own sequential 4-lane chunk accumulation —
/// `vmulps`/`vaddps` are vertical, so the result bits equal the SSE and
/// scalar forms; the packing only halves the instruction count.
///
/// # Safety
/// Caller guarantees the five slices have equal length ≥ `chunks * 4`
/// and that the CPU supports AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn dot4_avx(
    x0: &[f32],
    x1: &[f32],
    x2: &[f32],
    x3: &[f32],
    w: &[f32],
    chunks: usize,
) -> [[f32; 4]; 4] {
    use std::arch::x86_64::*;
    let mut a01 = _mm256_setzero_ps();
    let mut a23 = _mm256_setzero_ps();
    for c in 0..chunks {
        let i = c * 4;
        // No `&__m128` from the raw pointer here: the slice data is only
        // 4-byte aligned and misaligned references are UB (and abort
        // under debug assertions). Unaligned load, then mirror.
        let wx = _mm_loadu_ps(w.as_ptr().add(i));
        let wv = _mm256_set_m128(wx, wx);
        let x01 = _mm256_loadu2_m128(x1.as_ptr().add(i), x0.as_ptr().add(i));
        a01 = _mm256_add_ps(a01, _mm256_mul_ps(x01, wv));
        let x23 = _mm256_loadu2_m128(x3.as_ptr().add(i), x2.as_ptr().add(i));
        a23 = _mm256_add_ps(a23, _mm256_mul_ps(x23, wv));
    }
    let mut lanes01 = [0.0f32; 8];
    let mut lanes23 = [0.0f32; 8];
    _mm256_storeu_ps(lanes01.as_mut_ptr(), a01);
    _mm256_storeu_ps(lanes23.as_mut_ptr(), a23);
    let mut acc = [[0.0f32; 4]; 4];
    acc[0].copy_from_slice(&lanes01[..4]);
    acc[1].copy_from_slice(&lanes01[4..]);
    acc[2].copy_from_slice(&lanes23[..4]);
    acc[3].copy_from_slice(&lanes23[4..]);
    acc
}

/// Batched forward GEMM `C = A·Bᵀ`.
///
/// Shapes: `A: m×k` (row per sample, row-major slice), `B: n×k` (row per
/// output unit — a weight matrix as stored), `C: m×n`. Row `i` of `C` is
/// bit-identical to `gemv(B, A.row(i), [], ·)`: each output is the same
/// 4-lane [`dot`]. Samples are processed in blocks of four, each block a
/// row of register tiles (module docs, "Register tiles"); blocks
/// parallelise over rayon.
///
/// With `rows` (module docs, "Kept rows") only those output columns are
/// computed and the others are written `+0.0` — the dot of a finite
/// sample with a zero weight row. A block holding a non-finite input
/// (`inf·0 = NaN`) runs dense.
pub fn gemm_nt(a: &[f32], b: &Matrix, m: usize, rows: Option<&[u32]>, c: &mut [f32]) {
    gemm_nt_on(tier(), a, b, m, rows, c);
}

fn gemm_nt_on(tier: Tier, a: &[f32], b: &Matrix, m: usize, rows: Option<&[u32]>, c: &mut [f32]) {
    let k = b.cols();
    let n = b.rows();
    assert_eq!(a.len(), m * k, "gemm_nt: A must be m×k");
    assert_eq!(c.len(), m * n, "gemm_nt: C must be m×n");
    assert!(is_row_subset(rows, n), "gemm_nt: rows");
    if m == 0 || n == 0 {
        return;
    }
    // The weight rows the samples `x` meet: the kept ones when every
    // input is finite, else all of them. Workspace buffers are reused,
    // so the dropped columns hold a previous call's values until zeroed.
    let columns = |x: &[f32], out: &mut [f32]| match rows.filter(|_| all_finite(x)) {
        None => Idx::All(n),
        Some(kept) => {
            out.fill(0.0);
            Idx::Kept(kept)
        }
    };
    let blocks = m / 4;
    let (head, rest) = c.split_at_mut(blocks * 4 * n);
    let block_kernel = |(blk, cb): (usize, &mut [f32])| {
        let xs = &a[blk * 4 * k..(blk + 1) * 4 * k];
        let cols = columns(xs, cb);
        nt_block(tier, xs, b, cols, cb);
    };
    if head.len() >= GEMM_PAR_THRESHOLD {
        head.par_chunks_exact_mut(4 * n)
            .enumerate()
            .for_each(block_kernel);
    } else {
        head.chunks_exact_mut(4 * n)
            .enumerate()
            .for_each(block_kernel);
    }
    for (r, crow) in rest.chunks_exact_mut(n).enumerate() {
        let i = blocks * 4 + r;
        let x = &a[i * k..(i + 1) * k];
        let cols = columns(x, crow);
        nt_row(tier >= Tier::Avx, x, b, cols, crow);
    }
}

/// Columns `cols` of four consecutive output rows `cb` (`4×n`): the dots
/// of the four samples in `xs` (`4×k`) with those weight rows. AVX-512
/// takes the weight rows eight at a time through the 4 × 8 `zmm` tile,
/// AVX (and AVX-512 for what is left) four at a time through the 4 × 4
/// `ymm` tile; what is left, every column without AVX, and a tile whose
/// result held a NaN (module docs, "Register tiles") go through [`dot4`].
fn nt_block(tier: Tier, xs: &[f32], b: &Matrix, cols: Idx, cb: &mut [f32]) {
    let k = b.cols();
    let n = b.rows();
    let avx = tier >= Tier::Avx;
    let x: [&[f32]; 4] = std::array::from_fn(|s| &xs[s * k..(s + 1) * k]);
    let column = |cb: &mut [f32], j: usize| {
        let out = dot4(x[0], x[1], x[2], x[3], b.row(j), avx);
        for s in 0..4 {
            cb[s * n + j] = out[s];
        }
    };
    let mut t = 0;
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx512 && cols.len() >= 8 {
        let packed = pack_chunks(x);
        while t + 8 <= cols.len() {
            // SAFETY: AVX-512F was detected at runtime.
            t = unsafe { zmm::nt_groups(&packed, x, b, cols, t, cb) };
            if t + 8 <= cols.len() {
                (t..t + 8).for_each(|t| column(cb, cols.get(t)));
                t += 8;
            }
        }
        PACK.set(packed);
    }
    #[cfg(target_arch = "x86_64")]
    if avx {
        while t + 4 <= cols.len() {
            let j: [usize; 4] = std::array::from_fn(|q| cols.get(t + q));
            let w = j.map(|j| b.row(j).as_ptr());
            // SAFETY: AVX was detected at runtime; the four sample slices
            // and the four weight rows (`Matrix::row` bounds-checks `j`)
            // are each `k` long.
            let out = unsafe { tiles::nt_4x4(x.map(<[f32]>::as_ptr), w, k) };
            if holds_nan(out.as_flattened()) {
                j.iter().for_each(|&j| column(cb, j));
            } else {
                for (s, outs) in out.iter().enumerate() {
                    store_columns(&mut cb[s * n..(s + 1) * n], j, outs);
                }
            }
            t += 4;
        }
    }
    while t < cols.len() {
        column(cb, cols.get(t));
        t += 1;
    }
}

/// The four samples of a forward block interleaved by 4-element chunk —
/// chunk `c` of sample `s` at `16·c + 4·s` — so the 4 × 8 `zmm` tile
/// loads chunk `c` of all four with one load. Built once per block in the
/// thread's [`PACK`] buffer; the caller hands it back when done.
#[cfg(target_arch = "x86_64")]
fn pack_chunks(x: [&[f32]; 4]) -> Vec<f32> {
    let mut buf = PACK.take();
    buf.clear();
    buf.resize(x[0].len() / 4 * 16, 0.0);
    for (c, dst) in buf.chunks_exact_mut(16).enumerate() {
        for (s, xs) in x.iter().enumerate() {
            dst[4 * s..4 * s + 4].copy_from_slice(&xs[4 * c..4 * c + 4]);
        }
    }
    buf
}

#[cfg(target_arch = "x86_64")]
thread_local! {
    /// [`pack_chunks`]'s buffer, kept per thread between blocks.
    static PACK: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Does a forward tile's result hold a NaN? Such a tile is recomputed by
/// the loop the tiles replaced, whose NaN encodings are the contract
/// (module docs, "Register tiles"). Branch-free, so it vectorises.
#[cfg(target_arch = "x86_64")]
#[inline]
fn holds_nan(out: &[f32]) -> bool {
    out.iter().fold(false, |nan, v| nan | v.is_nan())
}

/// `crow[j[q]] = out[q]` for a tile's strictly ascending columns `j` — one
/// copy when they are adjacent (every dense call, and any run of a kept
/// list).
#[cfg(target_arch = "x86_64")]
fn store_columns<const N: usize>(crow: &mut [f32], j: [usize; N], out: &[f32; N]) {
    if j[N - 1] == j[0] + N - 1 {
        crow[j[0]..j[0] + N].copy_from_slice(out);
    } else {
        for q in 0..N {
            crow[j[q]] = out[q];
        }
    }
}

/// Columns `cols` of one output row: the remainder samples of a batch —
/// the whole call at batch 1. AVX (either tier) takes the weight rows
/// eight at a time through the 1 × 8 register tile; the rest, and a tile
/// whose result held a NaN, is [`dot`].
fn nt_row(avx: bool, x: &[f32], b: &Matrix, cols: Idx, crow: &mut [f32]) {
    assert_eq!(x.len(), b.cols(), "nt_row: sample length");
    let mut t = 0;
    #[cfg(target_arch = "x86_64")]
    if avx {
        while t + 8 <= cols.len() {
            let j: [usize; 8] = std::array::from_fn(|q| cols.get(t + q));
            let w = j.map(|j| b.row(j).as_ptr());
            // SAFETY: AVX was detected at runtime; `x` and the eight
            // weight rows (bounds-checked by `Matrix::row`) are each
            // `b.cols()` long.
            let out = unsafe { tiles::nt_1x8(x.as_ptr(), w, b.cols()) };
            if holds_nan(&out) {
                j.iter().for_each(|&j| crow[j] = dot(x, b.row(j)));
            } else {
                store_columns(crow, j, &out);
            }
            t += 8;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = avx;
    while t < cols.len() {
        let j = cols.get(t);
        crow[j] = dot(x, b.row(j));
        t += 1;
    }
}

/// Is `rows` (when given) strictly ascending and inside `0..n`? The
/// shape every kept-row argument must have.
fn is_row_subset(rows: Option<&[u32]>, n: usize) -> bool {
    rows.is_none_or(|kept| {
        kept.windows(2).all(|w| w[0] < w[1]) && kept.last().is_none_or(|&r| (r as usize) < n)
    })
}

/// No `±inf`, no NaN: the condition under which `x·(+0.0)` is a zero and
/// a zero weight row can be left out of a dot or an AXPY. Branch-free so
/// it vectorises; it reads `x` once where the GEMM reads it per row.
#[inline]
fn all_finite(x: &[f32]) -> bool {
    x.iter().fold(true, |ok, v| ok & v.is_finite())
}

/// Batched backprop GEMM `C = A·B` over slice inputs.
///
/// Shapes: `A: m×k` (row per sample), `B: k×n` (a weight matrix), `C:
/// m×n`. Row `i` of `C` is bit-identical to `gemv_t(B, A.row(i), ·)`:
/// zero-filled, then AXPYs over `B`'s rows in ascending order, skipping
/// zero coefficients. ([`gemm`] is this kernel over `Matrix` operands.)
///
/// With `rows` (module docs, "Kept rows") the AXPYs of the other weight
/// rows are left out: the accumulator starts at `+0.0` and can never
/// become `−0.0`, so adding `a·(+0.0)` changes nothing for finite `a`.
/// A sample row holding a non-finite coefficient runs dense.
pub fn gemm_nn(a: &[f32], b: &Matrix, m: usize, rows: Option<&[u32]>, c: &mut [f32]) {
    gemm_nn_on(tier(), a, b, m, rows, c);
}

fn gemm_nn_on(tier: Tier, a: &[f32], b: &Matrix, m: usize, rows: Option<&[u32]>, c: &mut [f32]) {
    let k = b.rows();
    let n = b.cols();
    assert_eq!(a.len(), m * k, "gemm_nn: A must be m×k");
    assert_eq!(c.len(), m * n, "gemm_nn: C must be m×n");
    assert!(is_row_subset(rows, k), "gemm_nn: rows");
    if m == 0 || n == 0 {
        return;
    }
    // Four sample rows per tile with AVX-512, two otherwise; the last
    // tile holds what is left. A row skips the dropped weight rows only
    // if its own coefficients are finite, so a tile whose rows disagree
    // runs as two: the rows that skip, then the rows that do not.
    let per_tile = if tier == Tier::Avx512 { 4 } else { 2 };
    let tile_kernel = |(tile, ct): (usize, &mut [f32])| {
        ct.fill(0.0);
        let height = ct.len() / n;
        let coeffs = &a[tile * per_tile * k..(tile * per_tile + height) * k];
        let skips: [bool; 4] = std::array::from_fn(|r| {
            r < height && rows.is_some() && all_finite(&coeffs[r * k..(r + 1) * k])
        });
        for skip in [true, false] {
            let mut local = [0usize; 4];
            let mut count = 0;
            for r in (0..height).filter(|&r| skips[r] == skip) {
                local[count] = r;
                count += 1;
            }
            let acc = Accumulation {
                tier,
                terms: rows.filter(|_| skip).map_or(Idx::All(k), Idx::Kept),
                term_bound: k,
                a: coeffs,
                a_stride: 1,
                b: b.as_slice(),
                n,
            };
            acc.run(ct, &local[..count], local.map(|r| r * k));
        }
    };
    let par = c.len() >= GEMM_PAR_THRESHOLD;
    let (head, last) = c.split_at_mut(m / per_tile * per_tile * n);
    if par {
        head.par_chunks_exact_mut(per_tile * n)
            .enumerate()
            .for_each(tile_kernel);
    } else {
        head.chunks_exact_mut(per_tile * n)
            .enumerate()
            .for_each(tile_kernel);
    }
    if !last.is_empty() {
        tile_kernel((m / per_tile, last));
    }
}

/// Four fused AXPYs `y += k0·x0; y += k1·x1; y += k2·x2; y += k3·x3`.
///
/// Each element performs the exact operation sequence of four separate
/// [`axpy`] calls — the intermediates just live in a register instead of
/// round-tripping through memory, which every IEEE-754 operation rounds
/// identically either way. Callers must ensure all four coefficients are
/// nonzero so the zero-skip contract of the accumulation kernels holds.
#[allow(clippy::too_many_arguments)]
#[inline]
fn axpy4(
    k0: f32,
    x0: &[f32],
    k1: f32,
    x1: &[f32],
    k2: f32,
    x2: &[f32],
    k3: f32,
    x3: &[f32],
    y: &mut [f32],
    avx: bool,
) {
    let n = y.len();
    debug_assert!(x0.len() == n && x1.len() == n && x2.len() == n && x3.len() == n);
    let done;

    #[cfg(target_arch = "x86_64")]
    {
        // Safety: SSE2 is baseline, AVX runtime-verified; all accesses
        // stay inside the equal-length slices. The element update is pure
        // vertical arithmetic, so any vector width carries the same bits.
        unsafe {
            done = if avx {
                axpy4_avx(k0, x0, k1, x1, k2, x2, k3, x3, y)
            } else {
                axpy4_sse(k0, x0, k1, x1, k2, x2, k3, x3, y)
            };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = avx;
        done = 0;
    }

    for i in done..n {
        let mut v = y[i];
        v += k0 * x0[i];
        v += k1 * x1[i];
        v += k2 * x2[i];
        v += k3 * x3[i];
        y[i] = v;
    }
}

/// SSE2 body of [`axpy4`]; returns how many leading elements were
/// processed (a multiple of 4).
///
/// # Safety
/// Caller guarantees the five slices have equal length.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[inline]
unsafe fn axpy4_sse(
    k0: f32,
    x0: &[f32],
    k1: f32,
    x1: &[f32],
    k2: f32,
    x2: &[f32],
    k3: f32,
    x3: &[f32],
    y: &mut [f32],
) -> usize {
    use std::arch::x86_64::*;
    let chunks = y.len() / 4;
    let kv0 = _mm_set1_ps(k0);
    let kv1 = _mm_set1_ps(k1);
    let kv2 = _mm_set1_ps(k2);
    let kv3 = _mm_set1_ps(k3);
    for c in 0..chunks {
        let i = c * 4;
        let mut v = _mm_loadu_ps(y.as_ptr().add(i));
        v = _mm_add_ps(v, _mm_mul_ps(kv0, _mm_loadu_ps(x0.as_ptr().add(i))));
        v = _mm_add_ps(v, _mm_mul_ps(kv1, _mm_loadu_ps(x1.as_ptr().add(i))));
        v = _mm_add_ps(v, _mm_mul_ps(kv2, _mm_loadu_ps(x2.as_ptr().add(i))));
        v = _mm_add_ps(v, _mm_mul_ps(kv3, _mm_loadu_ps(x3.as_ptr().add(i))));
        _mm_storeu_ps(y.as_mut_ptr().add(i), v);
    }
    chunks * 4
}

/// AVX body of [`axpy4`]: identical vertical arithmetic at 8 lanes;
/// returns how many leading elements were processed (a multiple of 8).
///
/// # Safety
/// Caller guarantees the five slices have equal length and AVX support.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx")]
unsafe fn axpy4_avx(
    k0: f32,
    x0: &[f32],
    k1: f32,
    x1: &[f32],
    k2: f32,
    x2: &[f32],
    k3: f32,
    x3: &[f32],
    y: &mut [f32],
) -> usize {
    use std::arch::x86_64::*;
    let chunks = y.len() / 8;
    let kv0 = _mm256_set1_ps(k0);
    let kv1 = _mm256_set1_ps(k1);
    let kv2 = _mm256_set1_ps(k2);
    let kv3 = _mm256_set1_ps(k3);
    for c in 0..chunks {
        let i = c * 8;
        let mut v = _mm256_loadu_ps(y.as_ptr().add(i));
        v = _mm256_add_ps(v, _mm256_mul_ps(kv0, _mm256_loadu_ps(x0.as_ptr().add(i))));
        v = _mm256_add_ps(v, _mm256_mul_ps(kv1, _mm256_loadu_ps(x1.as_ptr().add(i))));
        v = _mm256_add_ps(v, _mm256_mul_ps(kv2, _mm256_loadu_ps(x2.as_ptr().add(i))));
        v = _mm256_add_ps(v, _mm256_mul_ps(kv3, _mm256_loadu_ps(x3.as_ptr().add(i))));
        _mm256_storeu_ps(y.as_mut_ptr().add(i), v);
    }
    chunks * 8
}

/// One output row's accumulation `crow += Σ_t coeff_t · row_t` over the
/// terms `term(0), …, term(k−1)` in that order — the shared inner loop of
/// [`gemm_nn`] and [`gemm_tn_acc`]`{,_ord}`, which differ only in where
/// term `t`'s coefficient and row live. Groups of four consecutive terms
/// whose coefficients are all nonzero run fused ([`axpy4`]); any group
/// with a zero falls back to the per-term zero-skip AXPYs. Both orders
/// execute the identical f32 operation sequence on each element.
/// Always inlined, so each caller's `term` folds into the loop.
#[inline(always)]
fn acc_row_kernel<'b>(
    k: usize,
    term: impl Fn(usize) -> (f32, &'b [f32]),
    crow: &mut [f32],
    avx: bool,
) {
    let mut t = 0;
    while t + 4 <= k {
        let group = [term(t), term(t + 1), term(t + 2), term(t + 3)];
        let [(k0, x0), (k1, x1), (k2, x2), (k3, x3)] = group;
        if k0 != 0.0 && k1 != 0.0 && k2 != 0.0 && k3 != 0.0 {
            axpy4(k0, x0, k1, x1, k2, x2, k3, x3, crow, avx);
        } else {
            for (coeff, x) in group {
                if coeff != 0.0 {
                    axpy(coeff, x, crow);
                }
            }
        }
        t += 4;
    }
    while t < k {
        let (coeff, x) = term(t);
        if coeff != 0.0 {
            axpy(coeff, x, crow);
        }
        t += 1;
    }
}

/// One accumulation GEMM's operands, shared by all of its tiles. Output
/// row `q` of a tile receives, for `t = 0, 1, …` in that order,
/// `row += a[s·a_stride + a_row[q]] · b[s·n..(s+1)·n]` with
/// `s = terms.get(t)`, a zero coefficient skipping its term — the AXPY
/// sequence [`gemv_t`] / [`ger`] apply to that row.
struct Accumulation<'a> {
    tier: Tier,
    terms: Idx<'a>,
    /// Exclusive bound on every `terms.get(t)` — what the callers'
    /// shape asserts establish; the tiles read through raw pointers on
    /// the strength of it.
    term_bound: usize,
    a: &'a [f32],
    a_stride: usize,
    b: &'a [f32],
    n: usize,
}

impl Accumulation<'_> {
    /// Accumulate into rows `local` (at most four) of the tile `ct`
    /// (row-major, `n` wide); row `local[q]` takes its coefficients from
    /// column `a_row[q]`. A row of at most [`Self::tile_shape`]'s budget
    /// of whole vectors runs as register tiles of as many rows as fit
    /// beside each other. What a tile did not do — the last `n mod 16`
    /// (`zmm`) or `n mod 8` (`ymm`) columns, every wider row, and all of
    /// a tile whose result held a NaN (module docs, "Register tiles") —
    /// goes through [`acc_row_kernel`] one row at a time. Columns are
    /// independent, so the split changes no bit.
    fn run(&self, ct: &mut [f32], local: &[usize], a_row: [usize; 4]) {
        let (n, terms) = (self.n, self.terms);
        if local.is_empty() || terms.len() == 0 {
            return;
        }
        // Leading columns of row `local[q]` a tile has accumulated.
        let mut done = [0usize; 4];
        #[cfg(target_arch = "x86_64")]
        if let Some((lanes, budget)) = self.tile_shape() {
            let vectors = n / lanes;
            let last = self.term_bound - 1;
            assert!((last + 1) * n <= self.b.len(), "accumulation: B too short");
            for (q, &l) in local.iter().enumerate() {
                assert!((l + 1) * n <= ct.len(), "accumulation: tile row");
                assert!(
                    last * self.a_stride + a_row[q] < self.a.len(),
                    "accumulation: A too short"
                );
            }
            let height = (budget / vectors).min(4);
            let groups = local.chunks(height).zip(a_row.chunks(height));
            for ((rows, cols), tiled) in groups.zip(done.chunks_mut(height)) {
                let a = (self.a.as_ptr(), self.a_stride, cols);
                let b = (self.b.as_ptr(), n);
                let c = (ct.as_mut_ptr(), rows);
                // SAFETY: `tile_shape` returned `lanes = 16` only where
                // AVX-512F, and `8` only where AVX, was detected at
                // runtime. Every term index is below `term_bound` (the
                // struct's invariant), so by the three asserts above each
                // coefficient `a[s·a_stride + a_row[q]]`, each
                // `b[s·n..][..lanes·vectors]` and each
                // `ct[l·n..][..lanes·vectors]` the tile touches is in
                // bounds; `rows.len() ≤ height ≤ 4` and `rows.len() ·
                // vectors ≤ budget` by the choice of `height`; `cols` is
                // at least as long as `rows` (`local.len() ≤ 4`).
                let stored = unsafe {
                    if lanes == 16 {
                        zmm::accumulate(vectors, terms, a, b, c)
                    } else {
                        tiles::accumulate(vectors, terms, a, b, c)
                    }
                };
                if stored {
                    tiled.fill(lanes * vectors);
                }
            }
        }
        for (q, &l) in local.iter().enumerate() {
            if done[q] < n {
                self.stream_row(done[q], a_row[q], &mut ct[l * n..(l + 1) * n]);
            }
        }
    }

    /// The register tile a row of `n` columns takes, as (lanes per
    /// vector, accumulator budget in vectors): `zmm` with AVX-512 when
    /// one to [`ACC_TILE_ZMM`] whole 16-column vectors fit, else `ymm`
    /// with AVX when one to [`ACC_TILE_VECTORS`] 8-column vectors do,
    /// else none — the shape rule (module docs, "Register tiles").
    #[cfg(target_arch = "x86_64")]
    fn tile_shape(&self) -> Option<(usize, usize)> {
        let n = self.n;
        if self.tier == Tier::Avx512 && (1..=ACC_TILE_ZMM).contains(&(n / 16)) {
            Some((16, ACC_TILE_ZMM))
        } else if self.tier >= Tier::Avx && (1..=ACC_TILE_VECTORS).contains(&(n / 8)) {
            Some((8, ACC_TILE_VECTORS))
        } else {
            None
        }
    }

    /// The row-streaming form: columns `from..` of one output row through
    /// [`acc_row_kernel`].
    fn stream_row(&self, from: usize, a_col: usize, crow: &mut [f32]) {
        let crow = &mut crow[from..];
        // One loop per index kind, so each folds its lookup in.
        match self.terms {
            Idx::All(k) => self.stream(k, |t| t, from, a_col, crow),
            Idx::Kept(kept) => self.stream(kept.len(), |t| kept[t] as usize, from, a_col, crow),
            Idx::Order(order) => self.stream(order.len(), |t| order[t], from, a_col, crow),
        }
    }

    /// [`Self::stream_row`] with term `t` being `index(t)`.
    fn stream(
        &self,
        terms: usize,
        index: impl Fn(usize) -> usize,
        from: usize,
        a_col: usize,
        crow: &mut [f32],
    ) {
        let n = self.n;
        let term = |t: usize| {
            let s = index(t);
            (
                self.a[s * self.a_stride + a_col],
                &self.b[s * n + from..(s + 1) * n],
            )
        };
        acc_row_kernel(terms, term, crow, self.tier >= Tier::Avx);
    }

    /// `C += Aᵀ·B` into a gradient matrix, or into its `rows` only — a
    /// dropped gradient row stays as the caller zeroed it. Tiles are
    /// aligned groups of four gradient rows (of which a kept subset may
    /// use fewer); they are independent, so large matrices fan out to
    /// rayon.
    fn accumulate_gradient(&self, rows: Option<&[u32]>, c: &mut Matrix) {
        let (m, n) = (c.rows(), c.cols());
        assert!(is_row_subset(rows, m), "gradient rows");
        let par = c.len() >= GEMM_PAR_THRESHOLD;
        let group_kernel = |(g, cg): (usize, &mut [f32])| {
            let (r0, height) = (4 * g, cg.len() / n);
            let mut local = [0, 1, 2, 3];
            let count = match rows {
                None => height,
                Some(kept) => {
                    let from = kept.partition_point(|&r| (r as usize) < r0);
                    let in_group = kept[from..]
                        .iter()
                        .take_while(|&&r| (r as usize) < r0 + height);
                    let mut count = 0;
                    for &r in in_group {
                        local[count] = r as usize - r0;
                        count += 1;
                    }
                    count
                }
            };
            self.run(cg, &local[..count], local.map(|l| r0 + l));
        };
        let (head, last) = c.as_mut_slice().split_at_mut(m / 4 * 4 * n);
        if par {
            head.par_chunks_exact_mut(4 * n)
                .enumerate()
                .for_each(group_kernel);
        } else {
            head.chunks_exact_mut(4 * n)
                .enumerate()
                .for_each(group_kernel);
        }
        if !last.is_empty() {
            group_kernel((m / 4, last));
        }
    }
}

/// Batched gradient accumulation `C += Aᵀ·B`, sample rows ascending.
///
/// Shapes: `A: k×m` (row per sample of coefficients, e.g. deltas), `B:
/// k×n` (row per sample of inputs), `C: m×n` (a gradient matrix,
/// accumulated into). Row `r` of `C` receives
/// `axpy(A[s][r], B.row(s), ·)` for `s = 0..k` — exactly the AXPY
/// sequence the sample-ascending [`ger`] loop of the per-sample reference
/// applies to that row, including the skip of zero coefficients. Unlike
/// the per-sample loop, each gradient row stays hot in cache — or, as a
/// register tile, in registers — while all `k` samples accumulate into
/// it (one pass over `C` instead of `k`).
///
/// With `rows` only those rows of `C` are accumulated into.
pub fn gemm_tn_acc(a: &[f32], b: &[f32], k: usize, rows: Option<&[u32]>, c: &mut Matrix) {
    gemm_tn_acc_on(tier(), a, b, k, rows, c);
}

fn gemm_tn_acc_on(
    tier: Tier,
    a: &[f32],
    b: &[f32],
    k: usize,
    rows: Option<&[u32]>,
    c: &mut Matrix,
) {
    let m = c.rows();
    let n = c.cols();
    assert_eq!(a.len(), k * m, "gemm_tn_acc: A must be k×m");
    assert_eq!(b.len(), k * n, "gemm_tn_acc: B must be k×n");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    Accumulation {
        tier,
        terms: Idx::All(k),
        term_bound: k,
        a,
        a_stride: m,
        b,
        n,
    }
    .accumulate_gradient(rows, c);
}

/// [`gemm_tn_acc`] with an explicit row-visit `order` (row indices into
/// `A`); `B`'s row for visited row `s` is `s + b_row_off`.
///
/// BPTT accumulates gradients window-major and step-*descending* while
/// the batched time loop produces rows step-major — this kernel replays
/// the sequential reference's order. `b_row_off` lets `B` be a state
/// buffer whose block `t+1` holds step `t`'s output (hidden states).
pub fn gemm_tn_acc_ord(
    a: &[f32],
    b: &[f32],
    order: &[usize],
    b_row_off: usize,
    rows: Option<&[u32]>,
    c: &mut Matrix,
) {
    gemm_tn_acc_ord_on(tier(), a, b, order, b_row_off, rows, c);
}

fn gemm_tn_acc_ord_on(
    tier: Tier,
    a: &[f32],
    b: &[f32],
    order: &[usize],
    b_row_off: usize,
    rows: Option<&[u32]>,
    c: &mut Matrix,
) {
    let m = c.rows();
    let n = c.cols();
    let Some(&max) = order.iter().max() else {
        return;
    };
    if m == 0 || n == 0 {
        return;
    }
    assert!((max + 1) * m <= a.len(), "gemm_tn_acc_ord: A too short");
    assert!(
        (max + b_row_off + 1) * n <= b.len(),
        "gemm_tn_acc_ord: B too short"
    );
    Accumulation {
        tier,
        terms: Idx::Order(order),
        term_bound: max + 1,
        a,
        a_stride: m,
        b: &b[b_row_off * n..],
        n,
    }
    .accumulate_gradient(rows, c);
}

/// The accumulation tiles hold at most this many 8-column vectors of
/// outputs in registers (sixteen `ymm`, less the coefficient broadcast and
/// the product in flight). A row is tiled only when *all* of it fits —
/// module docs, "Register tiles", shape rule.
const ACC_TILE_VECTORS: usize = 12;

/// [`ACC_TILE_VECTORS`] for the 16-column `zmm` tiles: 24 of the 32
/// registers, the rest for the coefficient broadcast and the products in
/// flight.
const ACC_TILE_ZMM: usize = 24;

/// The AVX register tiles (module docs, "Register tiles"). Everything
/// here is vertical `vmulps` / `vaddps` on unaligned loads: no FMA, no
/// horizontal add, no reassociation — each output element runs the
/// scalar operation sequence of the primitive it stands for.
#[cfg(target_arch = "x86_64")]
// The const-bounded loops index parallel register arrays (`acc[q][v]`
// beside `c[q]` and a pointer offset `8·v`): a range loop is their
// natural shape, and the shape LLVM unrolls into straight-line code.
#[allow(clippy::needless_range_loop)]
mod tiles {
    use super::Idx;
    use std::arch::x86_64::*;

    /// `dot`'s closing sum for eight outputs at once. `acc[j]` holds the
    /// four lane sums of one output in its low half and of another in its
    /// high half; an in-lane 4 × 4 transpose lines lane `l` of the four
    /// `j` up in one register, so three vertical adds form
    /// `((l0 + l1) + l2) + l3` per output — `dot`'s left-to-right order.
    /// Low half: outputs `j = 0..4` of the low packing, high half: of the
    /// high packing.
    #[inline]
    #[target_feature(enable = "avx")]
    unsafe fn lane_sums(acc: [__m256; 4]) -> __m256 {
        let t0 = _mm256_unpacklo_ps(acc[0], acc[1]);
        let t1 = _mm256_unpackhi_ps(acc[0], acc[1]);
        let t2 = _mm256_unpacklo_ps(acc[2], acc[3]);
        let t3 = _mm256_unpackhi_ps(acc[2], acc[3]);
        let l0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let l1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let l2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let l3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(l0, l1), l2), l3)
    }

    /// `dot`'s scalar tail over elements `from..k`.
    #[inline]
    pub(super) unsafe fn tail(x: *const f32, w: *const f32, from: usize, k: usize) -> f32 {
        let mut t = 0.0;
        for i in from..k {
            t += *x.add(i) * *w.add(i);
        }
        t
    }

    /// The 4 samples × 4 weight rows tile of `gemm_nt`: `out[s][j] =
    /// dot(x[s], w[j])`. Eight accumulators, each the private 4-lane
    /// chunk sums of two samples against one weight row (`dot4_avx`'s
    /// packing), live in registers across the whole reduction — eight
    /// independent add chains where `dot4_avx` has two.
    ///
    /// # Safety
    /// AVX must be available; every pointer must be valid for `k` reads.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn nt_4x4(x: [*const f32; 4], w: [*const f32; 4], k: usize) -> [[f32; 4]; 4] {
        let chunks = k / 4;
        let mut a01 = [_mm256_setzero_ps(); 4];
        let mut a23 = [_mm256_setzero_ps(); 4];
        for c in 0..chunks {
            let i = c * 4;
            let x01 = _mm256_loadu2_m128(x[1].add(i), x[0].add(i));
            let x23 = _mm256_loadu2_m128(x[3].add(i), x[2].add(i));
            for j in 0..4 {
                // Unaligned load, then mirror: the data is only 4-byte
                // aligned, so no `&__m128` may be formed from it.
                let wx = _mm_loadu_ps(w[j].add(i));
                let wv = _mm256_set_m128(wx, wx);
                a01[j] = _mm256_add_ps(a01[j], _mm256_mul_ps(x01, wv));
                a23[j] = _mm256_add_ps(a23[j], _mm256_mul_ps(x23, wv));
            }
        }
        let mut tails = [[0.0f32; 4]; 4];
        if chunks * 4 < k {
            for s in 0..4 {
                for j in 0..4 {
                    tails[s][j] = tail(x[s], w[j], chunks * 4, k);
                }
            }
        }
        let t = tails.as_ptr() as *const f32;
        let r01 = _mm256_add_ps(lane_sums(a01), _mm256_loadu_ps(t));
        let r23 = _mm256_add_ps(lane_sums(a23), _mm256_loadu_ps(t.add(8)));
        let mut out = [[0.0f32; 4]; 4];
        let o = out.as_mut_ptr() as *mut f32;
        _mm256_storeu_ps(o, r01);
        _mm256_storeu_ps(o.add(8), r23);
        out
    }

    /// The 1 sample × 8 weight rows tile of `gemm_nt` — remainder samples,
    /// and the whole call at batch 1: `out[j] = dot(x, w[j])`. Four
    /// accumulators, each the 4-lane chunk sums of weight rows `p` and
    /// `p + 4`, against the sample's chunk mirrored into both halves.
    ///
    /// # Safety
    /// AVX must be available; every pointer must be valid for `k` reads.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn nt_1x8(x: *const f32, w: [*const f32; 8], k: usize) -> [f32; 8] {
        let chunks = k / 4;
        let mut acc = [_mm256_setzero_ps(); 4];
        for c in 0..chunks {
            let i = c * 4;
            let xx = _mm_loadu_ps(x.add(i));
            let xv = _mm256_set_m128(xx, xx);
            for p in 0..4 {
                let wv = _mm256_loadu2_m128(w[p + 4].add(i), w[p].add(i));
                acc[p] = _mm256_add_ps(acc[p], _mm256_mul_ps(xv, wv));
            }
        }
        let mut tails = [0.0f32; 8];
        if chunks * 4 < k {
            for j in 0..8 {
                tails[j] = tail(x, w[j], chunks * 4, k);
            }
        }
        let r = _mm256_add_ps(lane_sums(acc), _mm256_loadu_ps(tails.as_ptr()));
        let mut out = [0.0f32; 8];
        _mm256_storeu_ps(out.as_mut_ptr(), r);
        out
    }

    /// The `R` rows × `8·V` columns tile of the accumulation GEMMs. The
    /// tile's outputs are loaded once, stay in `R·V` registers while every
    /// term is applied — `acc = acc + coeff·b`, with the `coeff != 0.0`
    /// skip taken per (row, term) — and are stored once. Row `q`'s
    /// coefficient for term index `s` is `a[s·a_stride + a_row[q]]`, the
    /// term's row is `b[s·n..]`, the tile's outputs are `c[q][..8·V]`.
    ///
    /// Returns whether the outputs were stored: a tile holding a NaN
    /// stores nothing and returns `false` (a NaN never leaves a chain of
    /// adds, so the final accumulators tell), and the caller streams its
    /// rows (module docs, "Register tiles").
    ///
    /// # Safety
    /// AVX must be available. For every `s` that `terms` yields and every
    /// `q < R`: `a[s·a_stride + a_row[q]]` readable, `b[s·n..][..8·V]`
    /// readable, `c[q][..8·V]` readable and writable and not overlapping
    /// another row's.
    #[target_feature(enable = "avx")]
    unsafe fn acc_tile<const R: usize, const V: usize>(
        terms: Idx,
        (a, a_stride, a_row): (*const f32, usize, [usize; R]),
        (b, n): (*const f32, usize),
        c: [*mut f32; R],
    ) -> bool {
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        for q in 0..R {
            for v in 0..V {
                acc[q][v] = _mm256_loadu_ps(c[q].add(8 * v));
            }
        }
        for t in 0..terms.len() {
            let s = terms.get(t);
            let (ap, bp) = (a.add(s * a_stride), b.add(s * n));
            for q in 0..R {
                let coeff = *ap.add(a_row[q]);
                if coeff != 0.0 {
                    let kv = _mm256_set1_ps(coeff);
                    for v in 0..V {
                        let term = _mm256_mul_ps(kv, _mm256_loadu_ps(bp.add(8 * v)));
                        acc[q][v] = _mm256_add_ps(acc[q][v], term);
                    }
                }
            }
        }
        let mut nan = _mm256_setzero_ps();
        for q in 0..R {
            for v in 0..V {
                nan = _mm256_or_ps(nan, _mm256_cmp_ps::<_CMP_UNORD_Q>(acc[q][v], acc[q][v]));
            }
        }
        if _mm256_movemask_ps(nan) != 0 {
            return false;
        }
        for q in 0..R {
            for v in 0..V {
                _mm256_storeu_ps(c[q].add(8 * v), acc[q][v]);
            }
        }
        true
    }

    /// Accumulate `terms` into the rows `rows` of a tile, `vectors`
    /// 8-column vectors wide: row `q` is `c[rows[q]·n..][..8·vectors]`,
    /// its coefficients are column `a_row[q]`. One [`acc_tile`]
    /// instantiation per shape that fits the register file; returns
    /// what it returns.
    ///
    /// # Safety
    /// As [`acc_tile`], for every row of `rows` (which must be distinct)
    /// and the matching entry of `a_row` (at least as long);
    /// `rows.len() · vectors` must be between 1 and
    /// [`super::ACC_TILE_VECTORS`] and `rows.len() ≤ 4`.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn accumulate(
        vectors: usize,
        terms: Idx,
        (a, a_stride, a_row): (*const f32, usize, &[usize]),
        b: (*const f32, usize),
        (c, rows): (*mut f32, &[usize]),
    ) -> bool {
        macro_rules! shapes {
            ($(($R:literal, $V:literal))+) => {
                match (rows.len(), vectors) {
                    $(($R, $V) => acc_tile::<$R, $V>(
                        terms,
                        (a, a_stride, std::array::from_fn(|q| a_row[q])),
                        b,
                        std::array::from_fn(|q| c.add(rows[q] * b.1)),
                    ),)+
                    (count, _) => unreachable!("no register tile of {count} rows × {vectors} vectors"),
                }
            };
        }
        shapes! {
            (1, 1) (1, 2) (1, 3) (1, 4) (1, 5) (1, 6) (1, 7) (1, 8) (1, 9) (1, 10) (1, 11) (1, 12)
            (2, 1) (2, 2) (2, 3) (2, 4) (2, 5) (2, 6)
            (3, 1) (3, 2) (3, 3) (3, 4)
            (4, 1) (4, 2) (4, 3)
        }
    }
}

/// The AVX-512 register tiles (module docs, "Register tiles"): the
/// shapes of [`tiles`] one ISA tier up, 16 lanes and 32 registers. The
/// same rules hold — vertical `vmulps` / `vaddps` on unaligned loads, no
/// FMA, no horizontal add, no reassociation, nothing stored from a tile
/// that holds a NaN.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::needless_range_loop)]
mod zmm {
    use super::Idx;
    use std::arch::x86_64::*;

    /// [`super::tiles`]' `lane_sums` on four 128-bit quarters at once:
    /// `acc[j]` holds, in quarter `s`, the four lane sums of sample `s`
    /// against weight row `j`; the same in-lane 4 × 4 transpose (every
    /// unpack and shuffle here works within a quarter) lines lane `l` of
    /// the four `j` up, so three vertical adds form `((l0 + l1) + l2) +
    /// l3` per output. Quarter `s` of the result: sample `s`, rows
    /// `j = 0..4`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn lane_sums(acc: [__m512; 4]) -> __m512 {
        let t0 = _mm512_unpacklo_ps(acc[0], acc[1]);
        let t1 = _mm512_unpackhi_ps(acc[0], acc[1]);
        let t2 = _mm512_unpacklo_ps(acc[2], acc[3]);
        let t3 = _mm512_unpackhi_ps(acc[2], acc[3]);
        let l0 = _mm512_shuffle_ps::<0x44>(t0, t2);
        let l1 = _mm512_shuffle_ps::<0xEE>(t0, t2);
        let l2 = _mm512_shuffle_ps::<0x44>(t1, t3);
        let l3 = _mm512_shuffle_ps::<0xEE>(t1, t3);
        _mm512_add_ps(_mm512_add_ps(_mm512_add_ps(l0, l1), l2), l3)
    }

    /// Columns `cols[t..]` of a forward block (`cb`, `4×n`) through
    /// [`nt_4x8`], eight at a time, up to the first group whose result
    /// held a NaN: returns where that group starts — it stored nothing
    /// there, and the caller runs it through the loop the tiles replaced,
    /// outside this function's codegen — or where the whole groups end.
    ///
    /// `packed` is `super::pack_chunks(x)`.
    ///
    /// # Safety
    /// AVX-512F must be available.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn nt_groups(
        packed: &[f32],
        x: [&[f32]; 4],
        b: &super::Matrix,
        cols: Idx,
        mut t: usize,
        cb: &mut [f32],
    ) -> usize {
        let (k, n) = (b.cols(), b.rows());
        assert!(x.iter().all(|x| x.len() == k), "nt_groups: sample length");
        assert_eq!(packed.len(), k / 4 * 16, "nt_groups: packed block");
        while t + 8 <= cols.len() {
            let j: [usize; 8] = std::array::from_fn(|q| cols.get(t + q));
            let w = j.map(|j| b.row(j).as_ptr());
            // SAFETY: the caller's AVX-512F; the asserts above and
            // `Matrix::row`'s bounds check give `nt_4x8`'s lengths.
            let out = nt_4x8(packed, x.map(<[f32]>::as_ptr), w, k);
            if super::holds_nan(out.as_flattened()) {
                break;
            }
            for (s, outs) in out.iter().enumerate() {
                super::store_columns(&mut cb[s * n..(s + 1) * n], j, outs);
            }
            t += 8;
        }
        t
    }

    /// The 4 samples × 8 weight rows tile of `gemm_nt`: `out[s][j] =
    /// dot(x[s], w[j])`. Eight accumulators, one per weight row, each
    /// holding in quarter `s` sample `s`'s private 4-lane chunk sums: one
    /// load of the packed block (`packed[16·c..]`, chunk `c` of all four
    /// samples) is multiplied by each weight row's chunk broadcast to all
    /// four quarters (`vbroadcastf32x4`). `x` supplies the tails.
    ///
    /// # Safety
    /// AVX-512F must be available; `packed` must hold `k / 4` chunks of
    /// 16 (`super::pack_chunks` of `x`); every pointer of `x` and `w` must
    /// be valid for `k` reads.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn nt_4x8(
        packed: &[f32],
        x: [*const f32; 4],
        w: [*const f32; 8],
        k: usize,
    ) -> [[f32; 8]; 4] {
        let chunks = k / 4;
        let mut acc = [_mm512_setzero_ps(); 8];
        for c in 0..chunks {
            let xv = _mm512_loadu_ps(packed.as_ptr().add(16 * c));
            for j in 0..8 {
                let wv = _mm512_broadcast_f32x4(_mm_loadu_ps(w[j].add(4 * c)));
                acc[j] = _mm512_add_ps(acc[j], _mm512_mul_ps(xv, wv));
            }
        }
        // `tails[h][4·s + j mod 4]` beside the lane sums of rows
        // `4h..4h + 4` (`dot` adds its tail, `+0.0` when empty, last).
        let mut tails = [[0.0f32; 16]; 2];
        if chunks * 4 < k {
            for s in 0..4 {
                for j in 0..8 {
                    tails[j / 4][4 * s + j % 4] = super::tiles::tail(x[s], w[j], chunks * 4, k);
                }
            }
        }
        let lo = lane_sums([acc[0], acc[1], acc[2], acc[3]]);
        let lo = _mm512_add_ps(lo, _mm512_loadu_ps(tails[0].as_ptr()));
        let hi = lane_sums([acc[4], acc[5], acc[6], acc[7]]);
        let hi = _mm512_add_ps(hi, _mm512_loadu_ps(tails[1].as_ptr()));
        // Output row `s` is quarter `s` of `lo`, then of `hi` (an index
        // below 16 picks from `lo`, from 16 on from `hi`).
        const ROWS_01: [i32; 16] = [0, 1, 2, 3, 16, 17, 18, 19, 4, 5, 6, 7, 20, 21, 22, 23];
        const ROWS_23: [i32; 16] = [8, 9, 10, 11, 24, 25, 26, 27, 12, 13, 14, 15, 28, 29, 30, 31];
        let mut out = [[0.0f32; 8]; 4];
        let o = out.as_mut_ptr() as *mut f32;
        for (half, rows) in [ROWS_01, ROWS_23].iter().enumerate() {
            let idx = _mm512_loadu_si512(rows.as_ptr().cast());
            _mm512_storeu_ps(o.add(16 * half), _mm512_permutex2var_ps(lo, idx, hi));
        }
        out
    }

    /// `super::tiles`' accumulation tile at 16 columns a vector: `R`
    /// rows × `16·V` columns, outputs loaded once, held in `R·V` `zmm`
    /// registers while every term is applied — `acc = acc + coeff·b`, the
    /// `coeff != 0.0` skip taken per (row, term) — and stored once. Row
    /// `q`'s coefficient for term index `s` is `a[s·a_stride + a_row[q]]`,
    /// the term's row is `b[s·n..]`, the tile's outputs are
    /// `c[q][..16·V]`. Returns whether the outputs were stored (a tile
    /// holding a NaN stores nothing).
    ///
    /// # Safety
    /// AVX-512F must be available. For every `s` that `terms` yields and
    /// every `q < R`: `a[s·a_stride + a_row[q]]` readable,
    /// `b[s·n..][..16·V]` readable, `c[q][..16·V]` readable and writable
    /// and not overlapping another row's.
    #[target_feature(enable = "avx512f")]
    unsafe fn acc_tile<const R: usize, const V: usize>(
        terms: Idx,
        (a, a_stride, a_row): (*const f32, usize, [usize; R]),
        (b, n): (*const f32, usize),
        c: [*mut f32; R],
    ) -> bool {
        let mut acc = [[_mm512_setzero_ps(); V]; R];
        for q in 0..R {
            for v in 0..V {
                acc[q][v] = _mm512_loadu_ps(c[q].add(16 * v));
            }
        }
        let a = (a, a_stride, a_row);
        match terms {
            Idx::All(k) => apply_terms(&mut acc, k, |t| t, a, (b, n)),
            Idx::Kept(l) => apply_terms(&mut acc, l.len(), |t| l[t] as usize, a, (b, n)),
            Idx::Order(l) => apply_terms(&mut acc, l.len(), |t| l[t], a, (b, n)),
        }
        let mut nan: __mmask16 = 0;
        for q in 0..R {
            for v in 0..V {
                nan |= _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(acc[q][v], acc[q][v]);
            }
        }
        if nan != 0 {
            return false;
        }
        for q in 0..R {
            for v in 0..V {
                _mm512_storeu_ps(c[q].add(16 * v), acc[q][v]);
            }
        }
        true
    }

    /// [`acc_tile`]'s term loop, one instantiation per index kind, so
    /// the kind is not asked per term: term `t` is index `index(t)`.
    ///
    /// # Safety
    /// As [`acc_tile`].
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn apply_terms<const R: usize, const V: usize>(
        acc: &mut [[__m512; V]; R],
        terms: usize,
        index: impl Fn(usize) -> usize,
        (a, a_stride, a_row): (*const f32, usize, [usize; R]),
        (b, n): (*const f32, usize),
    ) {
        for t in 0..terms {
            let s = index(t);
            let (ap, bp) = (a.add(s * a_stride), b.add(s * n));
            for q in 0..R {
                let cp = ap.add(a_row[q]);
                // `coeff != 0.0`, asked of the bits: only ±0.0 have every
                // bit but the sign clear (a NaN is nonzero either way).
                // Asked of memory, the broadcast loads the coefficient
                // itself rather than moving it out of a scalar register.
                if cp.cast::<u32>().read() << 1 != 0 {
                    let kv = _mm512_broadcastss_ps(_mm_load_ss(cp));
                    for v in 0..V {
                        let term = _mm512_mul_ps(kv, _mm512_loadu_ps(bp.add(16 * v)));
                        acc[q][v] = _mm512_add_ps(acc[q][v], term);
                    }
                }
            }
        }
    }

    /// `super::tiles::accumulate` at 16 columns a vector: one
    /// [`acc_tile`] instantiation per shape of at most
    /// [`super::ACC_TILE_ZMM`] accumulators.
    ///
    /// # Safety
    /// As [`acc_tile`], for every row of `rows` (which must be distinct)
    /// and the matching entry of `a_row` (at least as long);
    /// `rows.len() · vectors` must be between 1 and
    /// [`super::ACC_TILE_ZMM`] and `rows.len() ≤ 4`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn accumulate(
        vectors: usize,
        terms: Idx,
        (a, a_stride, a_row): (*const f32, usize, &[usize]),
        b: (*const f32, usize),
        (c, rows): (*mut f32, &[usize]),
    ) -> bool {
        macro_rules! shapes {
            ($(($R:literal, $V:literal))+) => {
                match (rows.len(), vectors) {
                    $(($R, $V) => acc_tile::<$R, $V>(
                        terms,
                        (a, a_stride, std::array::from_fn(|q| a_row[q])),
                        b,
                        std::array::from_fn(|q| c.add(rows[q] * b.1)),
                    ),)+
                    (count, _) => unreachable!("no zmm tile of {count} rows × {vectors} vectors"),
                }
            };
        }
        shapes! {
            (1, 1) (1, 2) (1, 3) (1, 4) (1, 5) (1, 6) (1, 7) (1, 8) (1, 9) (1, 10) (1, 11) (1, 12)
            (1, 13) (1, 14) (1, 15) (1, 16) (1, 17) (1, 18) (1, 19) (1, 20) (1, 21) (1, 22) (1, 23) (1, 24)
            (2, 1) (2, 2) (2, 3) (2, 4) (2, 5) (2, 6) (2, 7) (2, 8) (2, 9) (2, 10) (2, 11) (2, 12)
            (3, 1) (3, 2) (3, 3) (3, 4) (3, 5) (3, 6) (3, 7) (3, 8)
            (4, 1) (4, 2) (4, 3) (4, 4) (4, 5) (4, 6)
        }
    }
}

/// Bias-gradient accumulation: `acc += Σ_rows A`, rows ascending.
///
/// Implemented as the same `axpy(1.0, row, acc)` sequence the per-sample
/// reference applies, so the bits match.
pub fn add_row_sums(a: &[f32], rows: usize, acc: &mut [f32]) {
    let n = acc.len();
    assert_eq!(a.len(), rows * n, "add_row_sums: A must be rows×acc.len()");
    for s in 0..rows {
        axpy(1.0, &a[s * n..(s + 1) * n], acc);
    }
}

/// [`add_row_sums`] with an explicit row-visit order (BPTT bias grads).
pub fn add_row_sums_ord(a: &[f32], order: &[usize], acc: &mut [f32]) {
    let n = acc.len();
    if n == 0 {
        return;
    }
    for &s in order {
        axpy(1.0, &a[s * n..(s + 1) * n], acc);
    }
}

/// Batched bias-add, column-broadcast: `C[i][j] += bias[j]` for every row
/// `i` of the `m×bias.len()` row-major buffer `c`.
///
/// `dot + bias` carries the same bits as `gemv`'s `bias + dot` because
/// IEEE-754 addition is commutative in its rounded result.
pub fn add_bias_cols(c: &mut [f32], bias: &[f32]) {
    if bias.is_empty() {
        return;
    }
    for row in c.chunks_exact_mut(bias.len()) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Clip `g` so its global L2 norm is at most `max_norm`; returns the scale
/// that was applied (1.0 when no clipping happened, 0.0 when a non-finite
/// gradient was dropped).
///
/// This is the "SGD with the clipped gradient norm" the paper uses for the
/// LSTM language models (§V-A). A NaN/Inf norm means the step would
/// poison the model — and `NaN > max_norm` is false, so the old code fell
/// through to the "no clipping" branch and let it. Non-finite norms now
/// zero the gradient (the step becomes a no-op) and return 0.0.
pub fn clip_norm(g: &mut [f32], max_norm: f32) -> f32 {
    let norm = norm_sq(g).sqrt();
    if !norm.is_finite() {
        g.fill(0.0);
        return 0.0;
    }
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for v in g.iter_mut() {
            *v *= scale;
        }
        scale
    } else {
        1.0
    }
}

// ---- element-wise kernels (streaming aggregation, wire codec) -----------
//
// The server's sharded streaming reducer (`fedbiad-fl`) and the wire
// codec (`fedbiad-compress`) share these kernels. They follow the module
// docs' single-definition rule ("Element-wise kernels"), which keeps the
// streaming engine inside its bit-identical-to-dense contract
// (`tests/aggregation_equivalence.rs`); `crates/tensor/tests/simd_props.rs`
// pins each against its scalar definition, and `bench_perf`'s
// `vertical/*` entries fail if the compiler stops vectorizing them.

/// `y[i] += w` for every element: the coverage-denominator update, and —
/// with `w = 0.0` — the dense reference's `+= w·0` normalisation pass
/// over dropped elements (it turns a `−0.0` accumulator into `+0.0`
/// exactly like the reference axpy does).
pub fn add_assign_scalar(y: &mut [f32], w: f32) {
    crate::cpu::avx(move || {
        for v in y {
            *v += w;
        }
    });
}

/// `y[i] += w·(a[i] + b[i])`: the WeightsDelta accumulate, where the
/// client's absolute weights are reconstructed as base + delta on the fly.
pub fn axpy_sum2(w: f32, a: &[f32], b: &[f32], y: &mut [f32]) {
    assert!(
        a.len() == y.len() && b.len() == y.len(),
        "axpy_sum2 length mismatch"
    );
    crate::cpu::avx(move || {
        for ((y, &a), &b) in y.iter_mut().zip(a).zip(b) {
            *y += w * (a + b);
        }
    });
}

/// `y[i] += alpha · f32::from_le_bytes(bytes[4i..4i+4])`: the fused
/// decode + accumulate over a dense-f32 wire payload, skipping the
/// intermediate decode buffer entirely. `bytes.len()` must be `4·y.len()`.
///
/// The little-endian byte-to-f32 reinterpretation is a pure bit copy, so
/// on x86_64 (little-endian) it compiles to an unaligned vector load over
/// the byte stream.
pub fn axpy_from_le_bytes(alpha: f32, bytes: &[u8], y: &mut [f32]) {
    assert_eq!(
        bytes.len(),
        4 * y.len(),
        "axpy_from_le_bytes length mismatch"
    );
    crate::cpu::avx(move || {
        for (y, b) in y.iter_mut().zip(bytes.as_chunks::<4>().0) {
            *y += alpha * f32::from_le_bytes(*b);
        }
    });
}

/// `out[i] = x[i] · s`: the zeros-pull matrix combine (`num · (1/W)` with
/// a precomputed reciprocal, exactly as the dense reference writes it).
pub fn scale_into(x: &[f32], s: f32, out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "scale_into length mismatch");
    crate::cpu::avx(move || {
        for (o, &x) in out.iter_mut().zip(x) {
            *o = x * s;
        }
    });
}

/// `out[i] = x[i] / w`: the zeros-pull bias combine (the dense reference
/// divides biases directly instead of multiplying by the reciprocal).
pub fn div_scalar_into(x: &[f32], w: f32, out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "div_scalar_into length mismatch");
    crate::cpu::avx(move || {
        for (o, &x) in out.iter_mut().zip(x) {
            *o = x / w;
        }
    });
}

/// Holders-only combine: `g[i] = num[i] / den[i]` where `den[i] > 0.0`,
/// untouched elsewhere. The loop writes every element — the quotient or
/// the value it read — so it compiles to a divide and a blend per vector;
/// a lane that fails the test may divide into ±inf or NaN, which the
/// blend discards (x86 float division does not trap).
pub fn holders_combine(num: &[f32], den: &[f32], g: &mut [f32]) {
    assert!(
        num.len() == g.len() && den.len() == g.len(),
        "holders_combine length mismatch"
    );
    crate::cpu::avx(move || {
        for ((g, &n), &d) in g.iter_mut().zip(num).zip(den) {
            *g = if d > 0.0 { n / d } else { *g };
        }
    });
}

/// Stale-fill combine: `g[i] = (num[i] + (W − den[i]) · g[i]) / W`, the
/// dense reference's exact expression and operation order.
pub fn stale_fill_combine(num: &[f32], den: &[f32], total_w: f32, g: &mut [f32]) {
    assert!(
        num.len() == g.len() && den.len() == g.len(),
        "stale_fill_combine length mismatch"
    );
    crate::cpu::avx(move || {
        for ((g, &n), &d) in g.iter_mut().zip(num).zip(den) {
            *g = (n + (total_w - d) * *g) / total_w;
        }
    });
}

/// [`holders_combine`] with a constant denominator: `g[i] = num[i] / den`
/// when `den > 0`, untouched otherwise. For row-granular coverage the
/// denominator is constant over each row extent, so the caller can skip
/// materialising (and re-reading) a full den array; per element this
/// divides by the same value the array form would load, so results are
/// bit-identical.
pub fn holders_combine_scalar(num: &[f32], den: f32, g: &mut [f32]) {
    assert!(
        num.len() == g.len(),
        "holders_combine_scalar length mismatch"
    );
    // No holder rows: leave `g` untouched, matching the array form's
    // per-element `den[i] > 0.0` test (false for 0, negatives and NaN).
    if den <= 0.0 || den.is_nan() {
        return;
    }
    crate::cpu::avx(move || {
        for (g, &n) in g.iter_mut().zip(num) {
            *g = n / den;
        }
    });
}

/// [`stale_fill_combine`] with a constant denominator:
/// `g[i] = (num[i] + (W − den) · g[i]) / W`. Same bit-identity argument
/// as [`holders_combine_scalar`]: `W − den` matches `W − den[i]` exactly
/// when the array would hold `den` everywhere.
pub fn stale_fill_combine_scalar(num: &[f32], den: f32, total_w: f32, g: &mut [f32]) {
    assert!(
        num.len() == g.len(),
        "stale_fill_combine_scalar length mismatch"
    );
    let fill_w = total_w - den;
    crate::cpu::avx(move || {
        for (g, &n) in g.iter_mut().zip(num) {
            *g = (n + fill_w * *g) / total_w;
        }
    });
}

/// `out[i] = x[i] + (−1.0) · s[i]` — the staleness merge's Δ = value −
/// snapshot, spelled in the dense reference's `axpy(-1.0, …)` form (which
/// is bit-identical to subtraction: negation is an exact sign flip).
#[allow(clippy::neg_multiply)]
pub fn diff_into(x: &[f32], s: &[f32], out: &mut [f32]) {
    assert!(
        x.len() == out.len() && s.len() == out.len(),
        "diff_into length mismatch"
    );
    crate::cpu::avx(move || {
        for ((o, &x), &s) in out.iter_mut().zip(x).zip(s) {
            *o = x + (-1.0) * s;
        }
    });
}

/// `out[i] = (b[i] + k[i]) + (−1.0) · s[i]` — the WeightsDelta variant of
/// [`diff_into`]: reconstruct base + delta, then subtract the snapshot.
#[allow(clippy::neg_multiply)]
pub fn sum2_diff_into(b: &[f32], k: &[f32], s: &[f32], out: &mut [f32]) {
    assert!(
        b.len() == out.len() && k.len() == out.len() && s.len() == out.len(),
        "sum2_diff_into length mismatch"
    );
    crate::cpu::avx(move || {
        for (((o, &b), &k), &s) in out.iter_mut().zip(b).zip(k).zip(s) {
            *o = (b + k) + (-1.0) * s;
        }
    });
}

/// Sign-expand decode: `out[o] = −mu` if bit `start_bit + o` of the
/// LSB-first bitmap `signs` is set, else `mu` — the signSGD payload's
/// decode loop. Negation is an exact sign-bit flip, so every element
/// XORs `mu`'s sign bit with its bit of the bitmap instead of selecting.
/// The bits before the first byte boundary and after the last whole byte
/// go one at a time; the whole bytes between are one loop, eight elements
/// per byte, which the compiler vectorizes across bytes. That loop runs
/// as baseline code on every host: its AVX instantiation measured ≈ 1.4x
/// slower (101 768 elements on an AVX-512F Xeon: 33 vs 23 µs).
pub fn sign_apply_from_bits(signs: &[u8], start_bit: usize, mu: f32, out: &mut [f32]) {
    assert!(
        (start_bit + out.len()).div_ceil(8) <= signs.len(),
        "sign_apply_from_bits bitmap too short"
    );
    let mu = mu.to_bits();
    let apply = move |v: &mut f32, byte: u8, bit: usize| {
        *v = f32::from_bits(mu ^ (u32::from(byte >> bit & 1) << 31));
    };
    let head = (start_bit.next_multiple_of(8) - start_bit).min(out.len());
    let (head_out, body) = out.split_at_mut(head);
    for (o, v) in head_out.iter_mut().enumerate() {
        let i = start_bit + o;
        apply(v, signs[i / 8], i % 8);
    }
    let signs = &signs[(start_bit + head).div_ceil(8)..];
    let (bytes, tail) = body.as_chunks_mut::<8>();
    let whole = bytes.len();
    for (chunk, &byte) in bytes.iter_mut().zip(signs) {
        for (bit, v) in chunk.iter_mut().enumerate() {
            apply(v, byte, bit);
        }
    }
    for (bit, v) in tail.iter_mut().enumerate() {
        apply(v, signs[whole], bit);
    }
}

/// 8-bit dequantize: `out[i] = (codes[i] as i32 − levels) as f32 · inv_q`
/// — the FedPAQ decode at the byte-aligned width, where each code is one
/// byte. Integer→f32 conversion of values this small is exact, and the
/// multiply rounds identically per lane. The loop widens bytes to 32-bit
/// integer lanes, so it runs in the AVX2 instantiation (an AVX-512F Xeon,
/// 101 770 codes in L2: 15–17 µs, against 20 µs under AVX alone).
pub fn dequant_u8(codes: &[u8], levels: i32, inv_q: f32, out: &mut [f32]) {
    assert_eq!(codes.len(), out.len(), "dequant_u8 length mismatch");
    crate::cpu::avx2(move || {
        for (o, &c) in out.iter_mut().zip(codes) {
            *o = (i32::from(c) - levels) as f32 * inv_q;
        }
    });
}

/// The largest `|x|` over the elements that are not NaN, `+0.0` when
/// there is none — bit for bit `xs.iter().fold(0.0, |m, v| m.max(v.abs()))`
/// (FedPAQ's scale). The loop takes the unsigned maximum of the
/// magnitude bits `bits & 0x7fff_ffff`, where those of a NaN (above
/// `0x7f80_0000`, those of `+∞`) are read as `0`, those of `+0.0`. On
/// the bits of non-negative, non-NaN floats unsigned order is float
/// order, and the maximum of such floats is a single bit pattern, so the
/// lanes may take it in any order. The lanes are integers, so the loop runs
/// in the AVX2 instantiation: under AVX alone each 256-bit maximum splits
/// into two 128-bit halves and their shuffles, which read 101 770 floats
/// from memory ≈ 30 % slower than the float-lane body this loop replaced
/// (an AVX-512F Xeon; under AVX2, 10 against 18 µs from L2).
pub fn max_abs(xs: &[f32]) -> f32 {
    const INF: u32 = 0x7f80_0000;
    crate::cpu::avx2(move || {
        let mut m = 0u32;
        for &v in xs {
            let a = v.to_bits() & 0x7fff_ffff;
            m = m.max(if a > INF { 0 } else { a });
        }
        f32::from_bits(m)
    })
}

/// 2²³: adding it to a float in `[0, 2²³)` leaves that float rounded to
/// an integer (ties to even) in the low mantissa bits.
const ROUND_MAGIC: f32 = 8_388_608.0;

/// The symmetric quantisation code of `x`: `x` clamped to
/// `[−levels, levels]`, then rounded half away from zero; NaN gives 0.
/// `levels` must be an integer in `1..=32 767` (FedPAQ's `2^(bits−1) − 1`).
///
/// This is `x.round().clamp(−levels, levels)` (NaN → 0) without libm's
/// `roundf` — the baseline x86-64 target has no rounding instruction, so
/// `f32::round` is a call. The private lane helper `quant_lane`, which
/// [`quantise`] runs too, says how.
#[inline]
pub fn quant_code(x: f32, levels: f32) -> i32 {
    quant_lane(x, levels) as i32
}

/// [`quant_code`] as an integer-valued float (`−0.0` for the negative
/// zeros), in the branch-free form [`quantise`]'s loop vectorizes: `x`
/// clamped by compare-selects (a NaN passes through both, as `maxps` /
/// `minps` pass on their second operand), NaN zeroed by a select, the
/// magnitude rounded and tie-fixed, then the sign put back with an OR
/// (the rounded magnitude is non-negative).
///
/// Clamping before rounding changes nothing: rounding is monotone and
/// leaves the integers ±`levels` where they are, so both orders send
/// every `x` beyond a bound to that bound. After the clamp
/// `a = |x| ≤ 32 767 < 2²³`, where `(a + 2²³) − 2²³` is `a` rounded to
/// the nearest integer with ties to even, both operations exact but the
/// one rounding; the tie fix adds the 1 that "half away from zero" wants
/// where that rounding went down by exactly one half (`a − r` is exact:
/// `r` is within a factor two of `a`, or zero), and `+ 0.0` elsewhere,
/// which leaves the non-negative `r` as it is.
#[inline(always)]
fn quant_lane(x: f32, levels: f32) -> f32 {
    const SIGN: u32 = 0x8000_0000;
    let c = if x < -levels { -levels } else { x };
    let c = if c > levels { levels } else { c };
    let c = if c.is_nan() { 0.0 } else { c };
    let a = f32::from_bits(c.to_bits() & !SIGN);
    let r = (a + ROUND_MAGIC) - ROUND_MAGIC;
    let r = r + if a - r == 0.5 { 1.0 } else { 0.0 };
    f32::from_bits(r.to_bits() | (c.to_bits() & SIGN))
}

/// FedPAQ's codes: `out[i] = quant_code(xs[i] · q, levels) + levels`, the
/// offset-binary code in `[0, 2·levels]` — bit for bit the
/// `(v * q).round().clamp(−L, L) as i64 + L` it replaces (the lane
/// helper `quant_lane` says why). The code is read out of the lane's
/// signed code `s`, an integer-valued float, without a conversion:
/// `s + (L + 2²³)` (each sum an integer below 2²⁴, so exact) leaves
/// `s + L ∈ [0, 2L] ⊂ [0, 2¹⁶)` in the low mantissa bits. (An `as i32`
/// cast kept this loop scalar, ≈ 6x slower; zeroing NaN before the
/// clamp, or selecting between `r` and `r + 1` for the tie fix, compiled
/// to blends and cost 10–20 %.)
pub fn quantise(xs: &[f32], q: f32, levels: u16, out: &mut [u16]) {
    assert_eq!(xs.len(), out.len(), "quantise length mismatch");
    assert!(
        (1..=i16::MAX as u16).contains(&levels),
        "quantise levels out of range"
    );
    let lv = f32::from(levels);
    let offset = lv + ROUND_MAGIC;
    crate::cpu::avx(move || {
        for (o, &v) in out.iter_mut().zip(xs) {
            *o = (quant_lane(v * q, lv) + offset).to_bits() as u16;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quant_code_rounds_half_away_from_zero_and_clamps() {
        let l = 127.0;
        for (x, want) in [
            (0.5, 1),
            (-0.5, -1),
            (1.5, 2),
            (2.5, 3),
            (-2.5, -3),
            (0.49999997, 0),
            (126.5, 127),
            (127.4, 127),
            (1e9, 127),
            (-1e9, -127),
            (f32::INFINITY, 127),
            (f32::NEG_INFINITY, -127),
            (-0.0, 0),
            (f32::NAN, 0),
        ] {
            assert_eq!(quant_code(x, l), want, "{x}");
        }
    }

    fn naive_gemm(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for p in 0..a.cols() {
                    s += a.get(i, p) * b.get(p, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    #[test]
    fn dot_matches_naive() {
        let x: Vec<f32> = (0..13).map(|i| i as f32).collect();
        let y: Vec<f32> = (0..13).map(|i| (i * 2) as f32).collect();
        let naive: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-3);
    }

    #[test]
    fn gemv_with_and_without_bias() {
        let w = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let x = [1.0, 1.0];
        let mut y = [0.0; 2];
        gemv(&w, &x, &[], &mut y);
        assert_eq!(y, [3.0, 7.0]);
        gemv(&w, &x, &[10.0, 20.0], &mut y);
        assert_eq!(y, [13.0, 27.0]);
    }

    #[test]
    fn gemv_t_matches_transpose_gemv() {
        let w = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let x = [1.0, -1.0];
        let mut y = [0.0; 3];
        gemv_t(&w, &x, &mut y);
        let wt = w.transpose();
        let mut y2 = [0.0; 3];
        gemv(&wt, &x, &[], &mut y2);
        assert_eq!(y, y2);
    }

    #[test]
    fn ger_accumulates_outer_product() {
        let mut w = Matrix::zeros(2, 3);
        ger(&mut w, 2.0, &[1.0, 3.0], &[1.0, 0.0, -1.0]);
        assert_eq!(w.row(0), &[2.0, 0.0, -2.0]);
        assert_eq!(w.row(1), &[6.0, 0.0, -6.0]);
    }

    #[test]
    fn gemm_small_matches_naive() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0, 9.0], &[10.0, 11.0, 12.0]]);
        let mut c = Matrix::zeros(3, 3);
        gemm(&a, &b, &mut c);
        assert_eq!(c, naive_gemm(&a, &b));
    }

    #[test]
    fn gemm_large_parallel_matches_naive() {
        // Cross the parallel threshold to exercise the rayon path.
        let n = 80;
        let mut a = Matrix::zeros(n, n);
        let mut b = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a.set(i, j, ((i * 7 + j * 3) % 11) as f32 - 5.0);
                b.set(i, j, ((i * 5 + j * 2) % 13) as f32 - 6.0);
            }
        }
        let mut c = Matrix::zeros(n, n);
        gemm(&a, &b, &mut c);
        let want = naive_gemm(&a, &b);
        for (x, y) in c.as_slice().iter().zip(want.as_slice()) {
            assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }

    #[test]
    fn clip_norm_scales_only_when_needed() {
        let mut g = [3.0, 4.0];
        let s = clip_norm(&mut g, 10.0);
        assert_eq!(s, 1.0);
        assert_eq!(g, [3.0, 4.0]);
        let s = clip_norm(&mut g, 1.0);
        assert!((s - 0.2).abs() < 1e-6);
        let norm = (g[0] * g[0] + g[1] * g[1]).sqrt();
        assert!((norm - 1.0).abs() < 1e-6);
    }

    #[test]
    fn clip_norm_handles_zero_gradient() {
        let mut g = [0.0, 0.0];
        assert_eq!(clip_norm(&mut g, 1.0), 1.0);
        assert_eq!(g, [0.0, 0.0]);
    }

    #[test]
    fn clip_norm_drops_non_finite_gradients() {
        // Regression: NaN > max_norm is false, so the old code returned
        // 1.0 and let the caller step on a poisoned gradient.
        let mut g = [1.0, f32::NAN, 2.0];
        assert_eq!(clip_norm(&mut g, 1.0), 0.0);
        assert_eq!(g, [0.0, 0.0, 0.0]);

        let mut g = [f32::INFINITY, 1.0];
        assert_eq!(clip_norm(&mut g, 1.0), 0.0);
        assert_eq!(g, [0.0, 0.0]);

        // Finite elements whose squared sum overflows f32 also count.
        let mut g = [f32::MAX, f32::MAX];
        assert_eq!(clip_norm(&mut g, 1.0), 0.0);
        assert_eq!(g, [0.0, 0.0]);
    }

    fn filled(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f32) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, f(r, c));
            }
        }
        m
    }

    #[test]
    fn gemm_nt_rows_match_gemv_bitwise() {
        // Shapes straddling the 4-row blocks and the dot unroll width.
        for (m, n, k) in [(1, 3, 5), (4, 4, 4), (7, 5, 9), (9, 2, 1), (3, 1, 0)] {
            let w = filled(n, k, |r, c| ((r * 13 + c * 7) % 17) as f32 * 0.37 - 2.0);
            let a: Vec<f32> = (0..m * k)
                .map(|i| ((i * 11) % 23) as f32 * 0.21 - 1.8)
                .collect();
            let mut c = vec![0.0f32; m * n];
            gemm_nt(&a, &w, m, None, &mut c);
            let mut want = vec![0.0f32; n];
            for i in 0..m {
                gemv(&w, &a[i * k..(i + 1) * k], &[], &mut want);
                for j in 0..n {
                    assert_eq!(
                        c[i * n + j].to_bits(),
                        want[j].to_bits(),
                        "({m},{n},{k}) row {i} col {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_nn_rows_match_gemv_t_bitwise() {
        for (m, n, k) in [(1, 4, 3), (5, 7, 6), (8, 1, 2)] {
            let w = filled(k, n, |r, c| ((r * 5 + c * 3) % 13) as f32 * 0.41 - 1.9);
            let a: Vec<f32> = (0..m * k)
                .map(|i| ((i * 7) % 11) as f32 * 0.3 - 1.2)
                .collect();
            let mut c = vec![0.0f32; m * n];
            gemm_nn(&a, &w, m, None, &mut c);
            let mut want = vec![0.0f32; n];
            for i in 0..m {
                gemv_t(&w, &a[i * k..(i + 1) * k], &mut want);
                assert_eq!(
                    c[i * n..(i + 1) * n]
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "({m},{n},{k}) row {i}"
                );
            }
        }
    }

    #[test]
    fn gemm_tn_acc_matches_ger_sequence_bitwise() {
        let (k, m, n) = (6usize, 4usize, 5usize);
        let a: Vec<f32> = (0..k * m)
            .map(|i| {
                if i % 5 == 0 {
                    0.0
                } else {
                    (i as f32) * 0.13 - 2.0
                }
            })
            .collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32) * 0.07 - 1.0).collect();
        let mut c = Matrix::full(m, n, 0.25);
        let mut want = c.clone();
        gemm_tn_acc(&a, &b, k, None, &mut c);
        for s in 0..k {
            ger(
                &mut want,
                1.0,
                &a[s * m..(s + 1) * m],
                &b[s * n..(s + 1) * n],
            );
        }
        assert_eq!(
            c.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn ordered_accumulation_replays_the_given_order() {
        // Three contributions whose sum depends on association order
        // (1.0 absorbs a single 4e-8 but not their 8e-8 pair): verify the
        // _ord kernels follow `order`, not storage order.
        let a = [1.0f32, 4.0e-8, 4.0e-8];
        let b = [1.0f32, 1.0, 1.0];
        let mut fwd = Matrix::zeros(1, 1);
        gemm_tn_acc_ord(&a, &b, &[0, 1, 2], 0, None, &mut fwd);
        let mut rev = Matrix::zeros(1, 1);
        gemm_tn_acc_ord(&a, &b, &[2, 1, 0], 0, None, &mut rev);
        assert_ne!(fwd.get(0, 0).to_bits(), rev.get(0, 0).to_bits());

        let mut acc_fwd = vec![0.0f32; 1];
        add_row_sums_ord(&a, &[0, 1, 2], &mut acc_fwd);
        let mut acc_seq = vec![0.0f32; 1];
        add_row_sums(&a, 3, &mut acc_seq);
        assert_eq!(acc_fwd, acc_seq);
        let mut acc_rev = vec![0.0f32; 1];
        add_row_sums_ord(&a, &[2, 1, 0], &mut acc_rev);
        assert_ne!(acc_rev[0].to_bits(), acc_seq[0].to_bits());
    }

    #[test]
    fn bias_broadcasts_add_along_the_right_axis() {
        let mut c = vec![0.0f32; 6];
        add_bias_cols(&mut c, &[1.0, 2.0, 3.0]);
        assert_eq!(c, vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        // Empty bias is a no-op (layers without biases).
        let mut c = vec![5.0f32; 2];
        add_bias_cols(&mut c, &[]);
        assert_eq!(c, vec![5.0, 5.0]);
    }
}
