//! `tanh`, `exp` and `sigmoid` in single precision, defined by this
//! repository instead of by whichever libm the host links.
//!
//! # Why
//!
//! Every pinned digest in the workspace runs through the LSTM's gate
//! nonlinearities and the softmax, and `f32::tanh` / `f32::exp` are calls
//! into the host's libm: a runner upgrade can move every golden with no
//! code change (glibc has been replacing fdlibm's single-precision
//! functions with correctly rounded CORE-MATH code since 2.41, and its
//! `expf` is an IFUNC whose non-FMA body differs from its FMA body on
//! two inputs, `0x4202422f` and `0xc27c65d9`). They are also ≈ 225 000
//! scalar calls per LSTM `loss_grad` at the `lockstep_text` shape. This
//! module fixes the functions' *values* — to the ones glibc 2.36 computes
//! on an FMA-capable x86-64, so no golden moved when it landed — and
//! computes them eight lanes at a time.
//!
//! # Provenance
//!
//! * [`tanh`] is a transcription of fdlibm's `s_tanhf.c` over its
//!   `s_expm1f.c` (the five-coefficient `Q1..Q5` version glibc ≤ 2.40
//!   ships), every operation in `f32`, none fused:
//!
//!   ```text
//!   ====================================================
//!   Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//!
//!   Developed at SunPro, a Sun Microsystems, Inc. business.
//!   Permission to use, copy, modify, and distribute this
//!   software is freely granted, provided that this notice
//!   is preserved.
//!   ====================================================
//!   ```
//!
//! * [`exp`] is Szabolcs Nagy's single-precision `expf` (ARM
//!   optimized-routines, MIT; glibc ≥ 2.27 `e_expf.c`): `exp(x) =
//!   2^(k/32) · 2^(r/32)` in `f64` with a 32-entry table and a cubic. The
//!   operation sequence is the one glibc's FMA build executes — four
//!   fused multiply-adds, read off the disassembly of the IFUNC's FMA
//!   target — written with [`f64::mul_add`], so it means the same on a
//!   host without the instruction. Here the fused steps *are* the
//!   definition: un-fusing the reduction `r = fma(32/ln2, x, −k)` changes
//!   the `f32` result on exactly the two inputs above (un-fusing any of
//!   the other three is invisible after the final rounding; they stay
//!   fused because the sequence is transcribed, not re-derived). This is
//!   the only place in the workspace where an FMA may appear; the GEMMs'
//!   no-FMA contract (`ops`) is untouched.
//!
//! * [`sigmoid`] is the stable two-branch logistic over [`exp`], in `f32`.
//!
//! # Bit contract
//!
//! The scalar functions are the definition — plain Rust, no intrinsics,
//! the only bodies on a host without AVX2/FMA. The slice forms
//! ([`tanh_slice`], [`exp_slice`], [`sigmoid_slice`]) return exactly
//! `f(x)` per element: their AVX2 bodies run the same IEEE operations per
//! lane with every branch turned into a blend, and a vector holding a
//! lane the blends do not cover (non-finite for `tanh`; `|x| ≥ 88`, ±∞ or
//! NaN for `exp`) is handed to the scalar definition whole. Two lane
//! shortcuts are identities of the definition rather than transcriptions
//! and are argued where they are taken (`|x| < 2⁻²⁶ ⇒ tanh x = x`, and
//! `expm1`'s `k = 0` / `k = ±1` special cases as the general reduction).
//! `tests/math_props.rs` pins vector ≡ scalar on edge operands; the
//! `#[ignore]`d sweeps in `tests/math_exhaustive.rs` pin it on all 2³²
//! bit patterns, and separately record that scalar ≡ the host's libm
//! (a migration proof for the host the goldens were pinned on, not a
//! gate).
//!
//! # Dispatch
//!
//! [`wide`] is one cached runtime check, AVX2 **and** FMA (`tanh` needs
//! only the former; one flag keeps a trace's `nn.math.wide` a single
//! bit). No knob, no env var, no cargo feature.

// ---------------------------------------------------------------- tanh

const LN2_HI: f32 = f32::from_bits(0x3f31_7180); // 6.9313812256e-01
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1); // 9.0580006145e-06
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b); // 1.4426950216e+00
const Q1: f32 = f32::from_bits(0xbd08_8889); // -3.3333335072e-02
const Q2: f32 = f32::from_bits(0x3ad0_0d01); //  1.5873016091e-03
const Q3: f32 = f32::from_bits(0xb8a6_70cd); // -7.9365076090e-05
const Q4: f32 = f32::from_bits(0x3686_7e54); //  4.0082177293e-06
const Q5: f32 = f32::from_bits(0xb457_edbb); // -2.0109921195e-07
const O_THRESHOLD: f32 = f32::from_bits(0x42b1_7180); // 8.8721679688e+01
const HUGE: f32 = 1.0e+30;
const TINY: f32 = 1.0e-30;

/// `|x| ≥ 22`: `tanh x` rounds to ±1.
const TANH_SATURATED: i32 = 0x41b0_0000;
/// `|x| < 2⁻⁵⁵`: `tanh x = x·(1 + x)`.
const TANH_TINY: i32 = 0x2400_0000;
/// `|x| ≥ 1` picks the `expm1(2|x|)` form over `expm1(−2|x|)`.
const TANH_ONE: i32 = 0x3f80_0000;
/// `expm1`: `|x| ≥ 27 ln 2`.
const EXPM1_27LN2: u32 = 0x4195_b844;
/// `expm1`: `|x| ≥ 88.721…`, overflow territory.
const EXPM1_OVERFLOW: u32 = 0x42b1_7218;
/// `expm1`: `|x| > ½ ln 2` needs argument reduction.
const EXPM1_HALF_LN2: u32 = 0x3eb1_7218;
/// `expm1`: `|x| < 1.5 ln 2` reduces with `k = ±1`.
const EXPM1_3HALF_LN2: u32 = 0x3f85_1592;
/// `expm1`: `|x| < 2⁻²⁵` returns `x`.
const EXPM1_TINY: u32 = 0x3300_0000;
/// `|x| < 2⁻²⁶`, i.e. `2|x|` under [`EXPM1_TINY`]: `tanh x = x` (argued at
/// the vector body, the only user).
#[cfg(target_arch = "x86_64")]
const TANH_IDENTITY: i32 = EXPM1_TINY as i32 - 0x0080_0000;

/// Hyperbolic tangent: fdlibm's `tanhf`.
///
/// ```text
/// tanh(±0) = ±0, tanh(±∞) = ±1, tanh(NaN) = NaN
/// |x| < 2⁻⁵⁵   x·(1 + x)
/// |x| < 1      −t / (t + 2),      t = expm1(−2|x|)
/// |x| < 22     1 − 2 / (t + 2),   t = expm1( 2|x|)
/// else         1 − tiny
/// ```
pub fn tanh(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        // tanh(±∞) = ±1; a NaN comes back through the divide.
        return if jx >= 0 {
            1.0 / x + 1.0
        } else {
            1.0 / x - 1.0
        };
    }
    let z = if ix < TANH_SATURATED {
        if ix == 0 {
            return x;
        }
        if ix < TANH_TINY {
            return x * (1.0 + x);
        }
        if ix >= TANH_ONE {
            let t = expm1(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        1.0 - TINY
    };
    if jx >= 0 {
        z
    } else {
        -z
    }
}

/// `y · 2^k` by adding `k` to `y`'s exponent field.
#[inline(always)]
fn add_to_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32)
}

/// `eˣ − 1`: fdlibm's `expm1f`, whole, although [`tanh`] only ever passes
/// `2|x| ∈ [2, 44)` or `−2|x| ∈ (−2, 0)`.
///
/// Reduce `x = k·ln2 + r`, `|r| ≤ ½ ln2` (with the correction term `c`),
/// approximate `expm1(r) = r + r²/2 + r³/2 · (3 − (R1 + R1·r/2)) /
/// (6 − r·(3 − R1·r/2))` with `R1` a degree-5 polynomial in `r²/2`, then
/// rebuild `2^k · (expm1(r) + 1) − 1` in one of five ways by the size of
/// `k`.
fn expm1(mut x: f32) -> f32 {
    let negative = x.to_bits() & 0x8000_0000 != 0;
    let hx = x.to_bits() & 0x7fff_ffff;

    // Huge and non-finite arguments.
    if hx >= EXPM1_27LN2 {
        if hx >= EXPM1_OVERFLOW {
            if hx > 0x7f80_0000 {
                return x + x;
            }
            if hx == 0x7f80_0000 {
                return if negative { -1.0 } else { x };
            }
            if x > O_THRESHOLD {
                return HUGE * HUGE;
            }
        }
        if negative {
            return TINY - 1.0;
        }
    }

    // Argument reduction.
    let (k, c);
    if hx > EXPM1_HALF_LN2 {
        let (hi, lo);
        if hx < EXPM1_3HALF_LN2 {
            if negative {
                hi = x + LN2_HI;
                lo = -LN2_LO;
                k = -1;
            } else {
                hi = x - LN2_HI;
                lo = LN2_LO;
                k = 1;
            }
        } else {
            k = (INVLN2 * x + if negative { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            hi = x - t * LN2_HI; // t·ln2_hi is exact here
            lo = t * LN2_LO;
        }
        x = hi - lo;
        c = (hi - x) - lo;
    } else if hx < EXPM1_TINY {
        let t = HUGE + x;
        return x - (t - (HUGE + x));
    } else {
        k = 0;
        c = 0.0;
    }

    // x is now in the primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let mut e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs); // c is 0
    }
    e = x * (e - c) - c;
    e -= hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        return if x < -0.25 {
            -2.0 * (e - (x + 0.5))
        } else {
            1.0 + 2.0 * (x - e)
        };
    }
    if k <= -2 || k > 56 {
        // Suffices to return exp(x) − 1.
        return add_to_exponent(1.0 - (e - x), k) - 1.0;
    }
    if k < 23 {
        let t = f32::from_bits((0x3f80_0000 - (0x0100_0000 >> k)) as u32); // 1 − 2^−k
        add_to_exponent(t - (e - x), k)
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32); // 2^−k
        add_to_exponent((x - (e + t)) + 1.0, k)
    }
}

// ----------------------------------------------------------------- exp

/// `32 / ln 2`.
const INVLN2N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `1.5 · 2⁵²`: adding it rounds to an integer in the low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// Cubic for `2^(r/32)`: `C0·r³ + C1·r² + C2·r + 1`.
const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);
/// `x >` this (`ln 2¹²⁸`) overflows.
const EXP_OVERFLOW: f32 = f32::from_bits(0x42b1_7217);
/// `x <` this (`ln 2⁻¹⁵⁰`) underflows to zero.
const EXP_UNDERFLOW: f32 = f32::from_bits(0xc2cf_f1b4);
/// `x <` this (`ln 2⁻¹⁴⁹`) returns the smallest subnormal.
const EXP_MAY_UNDERFLOW: f32 = f32::from_bits(0xc2ce_8ecf);
/// Largest `bits(|x|) >> 20` the table path takes (`|x| < 88`).
const EXP_FAST_TOP12: u32 = 0x42a;

/// `TAB[i] = bits(2^(i/32)) − (i << 47)`, so that adding `k << 47` to
/// `TAB[k mod 32]` puts `⌊k/32⌋` into the exponent and restores the
/// fraction in one integer add.
static EXP_TAB: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// The body of [`exp`]. `#[inline(always)]` so that inside an FMA-enabled
/// function its `mul_add`s compile to the instruction; elsewhere each is a
/// call to the C library's `fma` — correctly rounded either way, so the
/// two compilations agree bit for bit.
#[inline(always)]
fn exp_def(x: f32) -> f32 {
    let xd = x as f64;
    let abstop = (x.to_bits() >> 20) & 0x7ff;
    if abstop > EXP_FAST_TOP12 {
        // |x| ≥ 88 or x is NaN.
        if x.to_bits() == f32::NEG_INFINITY.to_bits() {
            return 0.0;
        }
        if abstop >= 0x7f8 {
            return x + x;
        }
        if x > EXP_OVERFLOW {
            return f32::from_bits(0x7000_0000) * f32::from_bits(0x7000_0000); // 2⁹⁷·2⁹⁷ = +∞
        }
        if x < EXP_UNDERFLOW {
            return f32::from_bits(0x1000_0000) * f32::from_bits(0x1000_0000); // 2⁻⁹⁵·2⁻⁹⁵ = 0
        }
        if x < EXP_MAY_UNDERFLOW {
            return f32::from_bits(0x1a20_0000) * f32::from_bits(0x1a20_0000); // → 2⁻¹⁴⁹
        }
    }
    // x·32/ln2 = k + r with r in [−½, ½] and k an integer: the fused add of
    // SHIFT rounds to nearest-even and leaves k in the low mantissa bits.
    let kd0 = INVLN2N.mul_add(xd, SHIFT);
    let ki = kd0.to_bits();
    let kd = kd0 - SHIFT;
    let r = INVLN2N.mul_add(xd, -kd);
    // exp(x) = 2^(k/32) · 2^(r/32) ≈ s · (C0·r³ + C1·r² + C2·r + 1)
    let s = f64::from_bits(EXP_TAB[(ki & 31) as usize].wrapping_add(ki << 47));
    let z = C0.mul_add(r, C1);
    let r2 = r * r;
    let y = C2.mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    (y * s) as f32
}

/// Natural exponential: Nagy's `expf` with the FMA build's fused steps.
///
/// `exp(−∞) = 0`, `exp(+∞) = +∞`, `exp(NaN) = NaN`; `x > ln 2¹²⁸`
/// overflows to `+∞`, `x < ln 2⁻¹⁵⁰` underflows to `0`, and
/// `ln 2⁻¹⁵⁰ ≤ x < ln 2⁻¹⁴⁹` returns `2⁻¹⁴⁹`.
pub fn exp(x: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if wide() {
        // SAFETY: `wide()` verified FMA at run time.
        return unsafe { x86::exp(x) };
    }
    exp_def(x)
}

// ------------------------------------------------------------- sigmoid

/// The body of [`sigmoid`], split out like [`exp_def`].
#[inline(always)]
fn sigmoid_def(x: f32) -> f32 {
    if x >= 0.0 {
        let e = exp_def(-x);
        1.0 / (1.0 + e)
    } else {
        let e = exp_def(x);
        e / (1.0 + e)
    }
}

/// Numerically stable logistic sigmoid over [`exp`]: `1 / (1 + e⁻ˣ)` for
/// `x ≥ 0`, `eˣ / (1 + eˣ)` otherwise (a NaN takes the second branch).
pub fn sigmoid(x: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if wide() {
        // SAFETY: `wide()` verified FMA at run time.
        return unsafe { x86::sigmoid(x) };
    }
    sigmoid_def(x)
}

// -------------------------------------------------------------- slices

/// Whether the slice forms run their vector bodies on this host (AVX2 and
/// FMA, checked once). Either way they return the scalar functions'
/// values; this is for a trace to say which route produced its timings.
#[inline]
pub fn wide() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::atomic::{AtomicU8, Ordering};
        static STATE: AtomicU8 = AtomicU8::new(0);
        match STATE.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => {
                let has = std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma");
                STATE.store(if has { 1 } else { 2 }, Ordering::Relaxed);
                has
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `x ← tanh(x)` for every element, bit-identical to [`tanh`].
pub fn tanh_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if wide() {
        // SAFETY: `wide()` verified AVX2 at run time.
        return unsafe { x86::tanh_slice(xs) };
    }
    for x in xs {
        *x = tanh(*x);
    }
}

/// `x ← exp(x)` for every element, bit-identical to [`exp`].
pub fn exp_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if wide() {
        // SAFETY: `wide()` verified AVX2 and FMA at run time.
        return unsafe { x86::exp_slice(xs) };
    }
    for x in xs {
        *x = exp(*x);
    }
}

/// `x ← sigmoid(x)` for every element, bit-identical to [`sigmoid`].
pub fn sigmoid_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if wide() {
        // SAFETY: `wide()` verified AVX2 and FMA at run time.
        return unsafe { x86::sigmoid_slice(xs) };
    }
    for x in xs {
        *x = sigmoid(*x);
    }
}

/// The AVX2 bodies. Every function here computes, per lane, the IEEE
/// operations of the scalar definition above in the same order; nothing
/// is reassociated and nothing but `exp`'s four `mul_add`s is fused.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use std::arch::x86_64::*;

    const ABS: i32 = 0x7fff_ffff;
    const SIGN: i32 = i32::MIN;

    /// See [`super::tanh_slice`].
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tanh_slice(xs: &mut [f32]) {
        let mut chunks = xs.chunks_exact_mut(8);
        for chunk in &mut chunks {
            // SAFETY: `chunk` is exactly eight floats.
            let x = _mm256_loadu_ps(chunk.as_ptr());
            let ix = _mm256_and_si256(_mm256_castps_si256(x), _mm256_set1_epi32(ABS));
            let non_finite = _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x7f7f_ffff));
            if _mm256_movemask_epi8(non_finite) != 0 {
                for v in chunk {
                    *v = tanh(*v);
                }
                continue;
            }
            // SAFETY: as above.
            _mm256_storeu_ps(chunk.as_mut_ptr(), tanh8(x, ix));
        }
        for v in chunks.into_remainder() {
            *v = tanh(*v);
        }
    }

    /// [`tanh`] of eight finite lanes; `ix = bits(|x|)`.
    ///
    /// Lanes by magnitude:
    ///
    /// * `|x| ≥ 22`: ±1.
    /// * `|x| < 2⁻²⁶`: `x` itself. The definition has two cases here and
    ///   both are the identity: below `2⁻⁵⁵` it returns `x·(1 + x)` and
    ///   `1 + x` rounds to 1; from there up, `a = −2|x|` has `|a| < 2⁻²⁵`,
    ///   `expm1` returns `a`, `a + 2` rounds to 2, and `−a / 2 = |x|`
    ///   exactly.
    /// * otherwise `expm1(a)` with `a = 2|x| ∈ [2, 44)` (`k = 3…63`) or
    ///   `a = −2|x| ∈ (−2, −2⁻²⁵]` (`k = 0…−3`), so of `expm1`'s cases
    ///   only `k = 0`, `k = −1`, `k ≤ −2 ∨ k > 56`, `k < 23` and
    ///   `23 ≤ k ≤ 56` are needed.
    ///
    /// The first two kinds are computed as if `|x|` were 1 (their own
    /// values would drag the polynomial through subnormals, a microcode
    /// assist each) and blended over at the end.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tanh8(x: __m256, ix: __m256i) -> __m256 {
        let ps = |v: f32| _mm256_set1_ps(v);
        let epi = |v: i32| _mm256_set1_epi32(v);
        let mask = |m: __m256i| _mm256_castsi256_ps(m);
        let sign = mask(epi(SIGN));
        let one = ps(1.0);

        let saturated = _mm256_cmpgt_epi32(ix, epi(TANH_SATURATED - 1));
        let identity = _mm256_cmpgt_epi32(epi(TANH_IDENTITY), ix);
        let big = _mm256_cmpgt_epi32(ix, epi(TANH_ONE - 1));
        let ax = _mm256_blendv_ps(mask(ix), one, mask(_mm256_or_si256(saturated, identity)));

        // a = 2|x| where |x| ≥ 1, else −2|x| (an exact negation).
        let a_abs = _mm256_mul_ps(ps(2.0), ax);
        let a_sign = _mm256_andnot_ps(mask(big), sign);
        let a = _mm256_or_ps(a_abs, a_sign);

        // expm1: argument reduction, the general formula in every lane. The
        // definition special-cases |a| ≤ ½ln2 (k = 0, c = 0) and |a| <
        // 1.5ln2 (k = ±1 without the multiply); for every `a` that `tanh`
        // passes the general `k = trunc(a/ln2 ∓ ½)` lands on the same k —
        // an identity of these thresholds and this `invln2`, pinned by the
        // sweep over all 2³² inputs — and with that k the general
        // `hi = a − k·ln2_hi`, `lo = k·ln2_lo` are the special cases' values
        // bit for bit: `a + ln2_hi`, `−ln2_lo` for k = −1; `x = a`,
        // `c = +0` for k = 0.
        let half = _mm256_or_ps(ps(0.5), a_sign);
        let kf = _mm256_add_ps(_mm256_mul_ps(ps(INVLN2), a), half);
        let k = _mm256_cvttps_epi32(kf);
        let t = _mm256_cvtepi32_ps(k);
        let hi = _mm256_sub_ps(a, _mm256_mul_ps(t, ps(LN2_HI)));
        let lo = _mm256_mul_ps(t, ps(LN2_LO));
        let xr = _mm256_sub_ps(hi, lo);
        let c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);

        // Primary range.
        let hfx = _mm256_mul_ps(ps(0.5), xr);
        let hxs = _mm256_mul_ps(xr, hfx);
        let mut r1 = _mm256_mul_ps(hxs, ps(Q5));
        for q in [Q4, Q3, Q2, Q1] {
            r1 = _mm256_mul_ps(hxs, _mm256_add_ps(ps(q), r1));
        }
        let r1 = _mm256_add_ps(one, r1);
        let t3 = _mm256_sub_ps(ps(3.0), _mm256_mul_ps(r1, hfx));
        let e = _mm256_mul_ps(
            hxs,
            _mm256_div_ps(
                _mm256_sub_ps(r1, t3),
                _mm256_sub_ps(ps(6.0), _mm256_mul_ps(xr, t3)),
            ),
        );
        // e ← (x·(e − c) − c) − hxs. With c = +0 this is the k = 0 case's
        // `x·e − hxs`, so that case needs no separate form.
        let e = _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c);
        let e = _mm256_sub_ps(e, hxs);

        // k = 0: x − e.   k = −1: ½(x − e) − ½.
        let x_minus_e = _mm256_sub_ps(xr, e);
        let k_m1_form = _mm256_sub_ps(_mm256_mul_ps(ps(0.5), x_minus_e), ps(0.5));
        // The three scaled forms share 2^−k (every k here is in −3…63, so
        // the exponent field cannot leave the normal range).
        let two_pow_minus_k = mask(_mm256_slli_epi32::<23>(_mm256_sub_epi32(epi(0x7f), k)));
        let k_outside = _mm256_or_si256(
            _mm256_cmpgt_epi32(epi(-1), k),
            _mm256_cmpgt_epi32(k, epi(56)),
        );
        // k < 23: y = t − (e − x), t = 1 − 2^−k (exact in f32, so the
        // subtraction yields the definition's integer-built constant);
        // k ≤ −2 or k > 56: the same with t = 1, and the result owes a −1.
        let t = _mm256_sub_ps(one, _mm256_andnot_ps(mask(k_outside), two_pow_minus_k));
        let y_low = _mm256_sub_ps(t, _mm256_sub_ps(e, xr));
        // 23 ≤ k ≤ 56: y = (x − (e + 2^−k)) + 1.
        let y_high = _mm256_add_ps(_mm256_sub_ps(xr, _mm256_add_ps(e, two_pow_minus_k)), one);
        let k_high = _mm256_and_si256(
            _mm256_cmpgt_epi32(k, epi(22)),
            _mm256_cmpgt_epi32(epi(57), k),
        );
        let y = _mm256_blendv_ps(y_low, y_high, mask(k_high));
        // Add k to y's exponent, then settle the −1 (y − 0 is y).
        let y = mask(_mm256_add_epi32(
            _mm256_castps_si256(y),
            _mm256_slli_epi32::<23>(k),
        ));
        let em1 = _mm256_sub_ps(y, _mm256_and_ps(one, mask(k_outside)));
        let k_is_m1 = _mm256_cmpeq_epi32(k, epi(-1));
        let em1 = _mm256_blendv_ps(em1, k_m1_form, mask(k_is_m1));
        let k_is_0 = _mm256_cmpeq_epi32(k, _mm256_setzero_si256());
        let em1 = _mm256_blendv_ps(em1, x_minus_e, mask(k_is_0));

        // |x| ≥ 1: 1 − 2/(t + 2); else −t/(t + 2).
        let num = _mm256_blendv_ps(_mm256_xor_ps(em1, sign), ps(2.0), mask(big));
        let q = _mm256_div_ps(num, _mm256_add_ps(em1, ps(2.0)));
        let z = _mm256_blendv_ps(q, _mm256_sub_ps(one, q), mask(big));
        let z = _mm256_blendv_ps(z, ps(1.0 - TINY), mask(saturated));
        let z = _mm256_xor_ps(z, _mm256_and_ps(x, sign));
        _mm256_blendv_ps(z, x, mask(identity))
    }

    /// [`exp_def`] with the FMA instruction for its `mul_add`s.
    ///
    /// # Safety
    /// The CPU must support FMA.
    #[target_feature(enable = "fma")]
    pub(super) unsafe fn exp(x: f32) -> f32 {
        exp_def(x)
    }

    /// [`sigmoid_def`] with the FMA instruction for its `mul_add`s.
    ///
    /// # Safety
    /// The CPU must support FMA.
    #[target_feature(enable = "fma")]
    pub(super) unsafe fn sigmoid(x: f32) -> f32 {
        sigmoid_def(x)
    }

    /// [`exp`] of four lanes that all take the table path
    /// (`bits(|x|) >> 20 ≤ 0x42a`), as four `f32` results.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp4(x: __m128) -> __m128 {
        let pd = |v: f64| _mm256_set1_pd(v);
        let xd = _mm256_cvtps_pd(x);
        let kd0 = _mm256_fmadd_pd(pd(INVLN2N), xd, pd(SHIFT));
        let ki = _mm256_castpd_si256(kd0);
        let kd = _mm256_sub_pd(kd0, pd(SHIFT));
        let r = _mm256_fmsub_pd(pd(INVLN2N), xd, kd);
        let index = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        // SAFETY: every index is `ki & 31`, inside the 32-entry table.
        let tab = _mm256_i64gather_epi64::<8>(EXP_TAB.as_ptr().cast::<i64>(), index);
        let s = _mm256_castsi256_pd(_mm256_add_epi64(tab, _mm256_slli_epi64::<47>(ki)));
        let z = _mm256_fmadd_pd(pd(C0), r, pd(C1));
        let r2 = _mm256_mul_pd(r, r);
        let y = _mm256_fmadd_pd(pd(C2), r, pd(1.0));
        let y = _mm256_fmadd_pd(z, r2, y);
        _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
    }

    /// Whether any of eight lanes leaves [`exp`]'s table path.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn exp_leaves_table8(x: __m256) -> bool {
        let abs = _mm256_and_si256(_mm256_castps_si256(x), _mm256_set1_epi32(ABS));
        let limit = _mm256_set1_epi32(((EXP_FAST_TOP12 << 20) | 0xf_ffff) as i32);
        _mm256_movemask_epi8(_mm256_cmpgt_epi32(abs, limit)) != 0
    }

    /// [`exp`] of eight table-path lanes.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp8(x: __m256) -> __m256 {
        let lo = exp4(_mm256_castps256_ps128(x));
        let hi = exp4(_mm256_extractf128_ps::<1>(x));
        _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi)
    }

    /// See [`super::exp_slice`].
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn exp_slice(xs: &mut [f32]) {
        let mut chunks = xs.chunks_exact_mut(8);
        for chunk in &mut chunks {
            // SAFETY: `chunk` is exactly eight floats.
            let x = _mm256_loadu_ps(chunk.as_ptr());
            if exp_leaves_table8(x) {
                for v in chunk {
                    *v = exp_def(*v);
                }
                continue;
            }
            // SAFETY: as above.
            _mm256_storeu_ps(chunk.as_mut_ptr(), exp8(x));
        }
        for v in chunks.into_remainder() {
            *v = exp_def(*v);
        }
    }

    /// See [`super::sigmoid_slice`].
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sigmoid_slice(xs: &mut [f32]) {
        let sign = _mm256_castsi256_ps(_mm256_set1_epi32(SIGN));
        let one = _mm256_set1_ps(1.0);
        let mut chunks = xs.chunks_exact_mut(8);
        for chunk in &mut chunks {
            // SAFETY: `chunk` is exactly eight floats.
            let x = _mm256_loadu_ps(chunk.as_ptr());
            if exp_leaves_table8(x) {
                for v in chunk {
                    *v = sigmoid_def(*v);
                }
                continue;
            }
            // Both branches exponentiate −|x| (for x = −0 the definition
            // takes exp(+0) and this takes exp(−0); both are exactly 1).
            let e = exp8(_mm256_or_ps(x, sign));
            let non_negative = _mm256_cmp_ps::<_CMP_GE_OQ>(x, _mm256_setzero_ps());
            let num = _mm256_blendv_ps(e, one, non_negative);
            // SAFETY: as above.
            _mm256_storeu_ps(
                chunk.as_mut_ptr(),
                _mm256_div_ps(num, _mm256_add_ps(one, e)),
            );
        }
        for v in chunks.into_remainder() {
            *v = sigmoid_def(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `exp_def` compiled with and without the FMA instruction: here (no
    /// target feature) its `mul_add`s are calls to the C library's `fma`,
    /// behind [`exp`] on an FMA host they are the instruction.
    #[test]
    fn fma_call_and_fma_instruction_agree() {
        for i in 0..1u32 << 18 {
            let x = f32::from_bits(i.wrapping_mul(0x9e37_79b1));
            assert_eq!(exp_def(x).to_bits(), exp(x).to_bits(), "exp({x:e})");
            assert_eq!(
                sigmoid_def(x).to_bits(),
                sigmoid(x).to_bits(),
                "sigmoid({x:e})"
            );
        }
    }

    /// `expm1` is transcribed whole but [`tanh`] reaches only part of it;
    /// the rest is held to the host's `expm1f` (fdlibm's on glibc ≤ 2.40 —
    /// a migration proof like `tests/math_exhaustive.rs`'s, not a gate).
    #[test]
    #[ignore = "migration proof against this host's libm; 2^32 evaluations"]
    fn host_expm1f_is_the_transcription_on_all_inputs() {
        let mut mismatches = 0u64;
        for bits in 0..=u32::MAX {
            let x = f32::from_bits(bits);
            if expm1(x).to_bits() != x.exp_m1().to_bits() {
                mismatches += 1;
                if mismatches <= 8 {
                    eprintln!("expm1({x:e}) [{bits:#010x}]");
                }
            }
        }
        assert_eq!(mismatches, 0);
    }
}
