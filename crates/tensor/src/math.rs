//! `tanh`, `exp`, `sigmoid`, `ln` and `cos 2πu` in single precision — and
//! the Gaussian field built on the last two — defined by this repository
//! instead of by whichever libm the host links.
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
//! computes them eight lanes at a time, each slice form a loop the
//! compiler vectorizes (one, `exp`'s table path, written by hand).
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
//! * [`ln`] and [`cos2pi`] are this repository's own: nothing had to equal
//!   an earlier value when they landed (the noise they shape was re-pinned
//!   once, with them), so they are written for eight lanes rather than
//!   transcribed from a libm, and there is no host migration proof to keep.
//!   `ln` splits `x = 2ᵏ·m`, `m ∈ [√½, √2)`, and sums the `atanh` series of
//!   `s = (m−1)/(m+1)` in the compensated form `f − (f²/2 − s·(f²/2 + R))`;
//!   `cos2pi` picks the quadrant `q = round(4u)` — exact, there is no π to
//!   reduce by — and evaluates a degree-4 polynomial in `(4u − q)²` for
//!   `sin` or `cos` of the remainder. Coefficients are Chebyshev fits
//!   rounded to `f32`; all arithmetic is `f32`, nothing fused. Measured
//!   over the whole 24-bit grids the Gaussian path reads
//!   (`tests/gaussian_props.rs`): `ln` within 1 ulp, `cos2pi` within 2.
//!
//! * [`gaussian`] is Box & Muller's transform, `sqrt(−2·ln u₁)·cos 2πu₂`,
//!   of the two 24-bit uniforms in [`rng::counter_word`]`(key, i)`:
//!   **one Gaussian field per stream key, addressed by element index**.
//!
//! # Bit contract
//!
//! The scalar functions are the definition — plain Rust, no intrinsics.
//! The slice forms ([`tanh_slice`], [`exp_slice`], [`sigmoid_slice`],
//! [`ln_slice`], [`cos2pi_slice`], [`gaussian_slice`]) return exactly
//! `f(x)` per element:
//!
//! * `tanh`, `ln`, `cos2pi` and the field are loops over the
//!   definition's own branch-free fast path — [`tanh`]'s blends as the
//!   private `tanh_lane`, `ln_normal`, `cos_quarter_turns` — that the
//!   compiler vectorizes. A loop performs the definition's IEEE operations
//!   on each element in the definition's order, nothing reassociated,
//!   nothing fused, so every instantiation returns its bits. `ln` and
//!   `cos2pi` first fold each block of 64 for an element off that path
//!   (anything but a positive normal for `ln`; outside `[0, 1)` for
//!   `cos2pi`) and hand such a block to the scalar definition whole.
//!   `tanh`'s loop needs no such pass: its path is exact on every
//!   non-NaN input (±∞ saturates) and returns a NaN unchanged, so the NaN
//!   elements, if any, go through the definition afterwards, which quiets
//!   them. Every uniform pair of the field is on the transform's path.
//! * `exp` and `sigmoid` keep hand-written AVX2+FMA bodies (the `x86`
//!   module: `exp4` / `exp8` under `exp_slice` and `sigmoid_slice`),
//!   which run the same IEEE operations per lane with every branch turned
//!   into a blend; a vector holding a lane with `|x| ≥ 88`, ±∞ or NaN goes
//!   to the scalar definition whole.
//!
//! Two lane shortcuts are identities of the definition rather than
//! transcriptions and are argued where they are taken (`|x| < 2⁻²⁶ ⇒
//! tanh x = x`, and `expm1`'s `k = 0` / `k = ±1` special cases as the
//! general reduction). `tests/math_props.rs` pins slice ≡ scalar on edge
//! operands and one off-path element at every position around the block;
//! the `#[ignore]`d sweeps in `tests/math_exhaustive.rs` pin it on all
//! 2³² bit patterns, and separately record that scalar ≡ the host's libm
//! (a migration proof for the host the goldens were pinned on, not a
//! gate). `tests/gaussian_props.rs` pins `ln` / `cos2pi` /
//! `gaussian_slice` slice ≡ scalar over every input the field can
//! produce, in tier 1.
//!
//! # Dispatch
//!
//! [`crate::cpu`] compiles each loop per tier: `tanh`, `ln`, `cos2pi` and
//! the field through `cpu::avx2` (inside an AVX2 function where the
//! snapshot saw AVX2, as baseline code elsewhere; [`baseline`] holds the
//! loops, which the property tests also call as baseline code); the
//! single-element [`exp`] and [`sigmoid`], whose `mul_add`s want the FMA
//! instruction, through `cpu::avx2_fma`. `exp_slice` and `sigmoid_slice` run their
//! hand-written bodies where the snapshot's `avx2_fma` is set, and the
//! scalar definition elsewhere. Those two bodies stay because they passed
//! the keep rule (a loop form more than 5 % slower in an in-process A/B,
//! 21 alternating pairs at the LSTM's shapes, one pinned core of an
//! AVX-512F Xeon): over five such rounds the loop form read a median
//! 1.063 for `exp` over 400-wide rows (1.016–1.098) and 1.073 for
//! `sigmoid` over 144-wide rows (1.042–1.120) — the compiler scalarises
//! the 32-entry table load under generic AVX2 tuning, where the
//! hand-written body issues one `vpgatherqq` per four lanes. The
//! converted loops read `tanh` 0.99–1.04, `ln` 0.84–0.93, `cos2pi`
//! 0.87–0.89 and the field 0.91–0.93 against the bodies they replaced
//! (BENCHMARKS.md, "`tensor::math` writes each transcendental once"). A
//! traced run's `nn.math.wide` gauge records `avx2_fma`. Either way the
//! functions return the scalar definitions' values. No knob, no env var,
//! no cargo feature.

use crate::rng::{self, counter_word};

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
/// [`tanh_lane`], the only user).
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

/// [`tanh`] without a branch: the body of [`tanh_slice`]. Exact on every
/// input but a NaN, which comes back unchanged (the definition quiets it).
///
/// Lanes by magnitude:
///
/// * `|x| ≥ 22`, ±∞ included: ±1.
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
/// The first two kinds, and a NaN (which no compare holds for, so it
/// counts as an identity lane), are computed as if `|x|` were 1 — their
/// own values would drag the polynomial through subnormals, a microcode
/// assist each, or make `k` meaningless — and selected over at the end.
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    // The thresholds as float compares of |x| (one instruction a lane,
    // where the integer form's unsigned compare takes two).
    let abs = x.abs();
    let at_least = |bits: i32| abs >= f32::from_bits(bits as u32);
    let (saturated, identity, big) = (
        at_least(TANH_SATURATED),
        !at_least(TANH_IDENTITY),
        at_least(TANH_ONE),
    );
    let ax = if saturated | identity { 1.0 } else { abs };
    // a = 2|x| where |x| ≥ 1, else −2|x| (an exact negation).
    let a = if big { 2.0 * ax } else { -(2.0 * ax) };

    // expm1: argument reduction, the general formula in every lane. The
    // definition special-cases |a| ≤ ½ln2 (k = 0, c = 0) and |a| < 1.5ln2
    // (k = ±1 without the multiply); for every `a` that `tanh` passes the
    // general `k = trunc(a/ln2 ∓ ½)` lands on the same k — an identity of
    // these thresholds and this `invln2`, pinned by the sweep over all
    // 2³² inputs — and with that k the general `hi = a − k·ln2_hi`,
    // `lo = k·ln2_lo` are the special cases' values bit for bit:
    // `a + ln2_hi`, `−ln2_lo` for k = −1; `x = a`, `c = +0` for k = 0.
    let kf = INVLN2 * a + if big { 0.5 } else { -0.5 };
    // SAFETY: |a| < 44 (|a| = 2 where |x| is not below 22 or is NaN), so
    // |kf| < 64: finite and inside i32. (A saturating `as i32` here
    // would be one scalar conversion per lane.)
    let k: i32 = unsafe { kf.to_int_unchecked() };
    let t = k as f32;
    let hi = a - t * LN2_HI;
    let lo = t * LN2_LO;
    let xr = hi - lo;
    let c = (hi - xr) - lo;

    // Primary range.
    let hfx = 0.5 * xr;
    let hxs = xr * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t3 = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t3) / (6.0 - xr * t3));
    // e ← (x·(e − c) − c) − hxs. With c = +0 this is the k = 0 case's
    // `x·e − hxs`, so that case needs no separate form.
    let e = (xr * (e - c) - c) - hxs;

    // k = 0: x − e.   k = −1: ½(x − e) − ½.
    let x_minus_e = xr - e;
    let k_m1_form = 0.5 * x_minus_e - 0.5;
    // The three scaled forms share 2^−k (every k here is in −3…63, so the
    // exponent field cannot leave the normal range).
    let two_pow_minus_k = f32::from_bits(((0x7f - k) << 23) as u32);
    let k_outside = !(-1..=56).contains(&k);
    // k < 23: y = t − (e − x), t = 1 − 2^−k (exact in f32, so the
    // subtraction yields the definition's integer-built constant);
    // k ≤ −2 or k > 56: the same with t = 1, and the result owes a −1.
    let t = 1.0 - if k_outside { 0.0 } else { two_pow_minus_k };
    let y_low = t - (e - xr);
    // 23 ≤ k ≤ 56: y = (x − (e + 2^−k)) + 1.
    let y_high = (xr - (e + two_pow_minus_k)) + 1.0;
    let y = if (23..=56).contains(&k) {
        y_high
    } else {
        y_low
    };
    // Add k to y's exponent, then settle the −1 (y − 0 is y).
    let em1 = add_to_exponent(y, k) - if k_outside { 1.0 } else { 0.0 };
    let em1 = match k {
        0 => x_minus_e,
        -1 => k_m1_form,
        _ => em1,
    };

    // |x| ≥ 1: 1 − 2/(t + 2); else −t/(t + 2), as 0 − t/(t + 2) (t ≠ 0
    // here, and IEEE division is odd in its numerator). One division,
    // and no select after it that a compiler could split it by.
    let z = (if big { 1.0 } else { 0.0 }) - (if big { 2.0 } else { em1 }) / (em1 + 2.0);
    let z = if saturated { 1.0 - TINY } else { z };
    // Selected by magnitude, then signed: a select of `x` itself would let
    // the compiler turn the store of every identity lane into a masked one.
    let z = if identity { abs } else { z };
    f32::from_bits(z.to_bits() ^ (x.to_bits() & 0x8000_0000))
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
    crate::cpu::avx2_fma(
        #[inline(always)]
        move || exp_def(x),
    )
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
    crate::cpu::avx2_fma(
        #[inline(always)]
        move || sigmoid_def(x),
    )
}

// ------------------------------------------------------------------ ln

/// `bits(√½)`: the mantissa split point, so that `m ∈ [√½, √2)`.
const SQRT_HALF: u32 = 0x3f35_04f3;
/// `atanh` series tail: `ln(1+f) = 2s + s·R(s²)`, `s = f/(2+f)`,
/// `R(z) = z·(LG1 + z·(LG2 + z·LG3))` ≈ `⅔z + ⅖z² + ²⁄₇z³ + …` fitted on
/// `z ≤ (3 − 2√2)²`.
const LG1: f32 = f32::from_bits(0x3f2a_aaae); // 6.6666685e-01
const LG2: f32 = f32::from_bits(0x3ecc_be18); // 3.9988780e-01
const LG3: f32 = f32::from_bits(0x3e97_7308); // 2.9579949e-01

/// Natural logarithm.
///
/// ```text
/// ln(±0) = −∞, ln(+∞) = +∞, ln(x < 0) = ln(NaN) = NaN
/// x = 2ᵏ·m, m ∈ [√½, √2), f = m − 1, s = f/(2 + f), h = f²/2
/// ln x = k·ln2_hi − ((h − (s·(h + R(s²)) + k·ln2_lo)) − f)
/// ```
///
/// `ln(1+f) = 2s + s·R` with `2s = f − s·f` and `s·f = h − s·h` is
/// `f − (h − s·(h + R))`: the exact `f` leads and everything that was
/// rounded sits an order of magnitude below it.
pub fn ln(x: f32) -> f32 {
    let ix = x.to_bits();
    if ix.wrapping_sub(0x0080_0000) < 0x7f00_0000 {
        return ln_normal(ix, 0);
    }
    // Not a positive normal number.
    if ix << 1 == 0 {
        return f32::NEG_INFINITY;
    }
    if ix == 0x7f80_0000 {
        return x;
    }
    if ix >> 31 != 0 || x.is_nan() {
        return f32::NAN;
    }
    // Subnormal: scale into the normal range.
    ln_normal((x * 33_554_432.0).to_bits(), -25)
}

/// [`ln`] of the positive normal number with bits `ix`, plus `k0·ln 2`.
#[inline(always)]
fn ln_normal(ix: u32, k0: i32) -> f32 {
    let ix = ix + (0x3f80_0000 - SQRT_HALF);
    let k = k0 + (ix >> 23) as i32 - 127;
    let m = f32::from_bits((ix & 0x007f_ffff) + SQRT_HALF);
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let r = z * (LG1 + z * (LG2 + z * LG3));
    let h = 0.5 * f * f;
    let dk = k as f32;
    dk * LN2_HI - ((h - (s * (h + r) + dk * LN2_LO)) - f)
}

// -------------------------------------------------------------- cos 2πu

/// `1.5·2²³`: adding and subtracting it rounds a `|t| < 2²²` to the nearest
/// integer (ties to even) in the default rounding mode.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// `sin(πr/2) = r·(SN0 + z·(SN1 + z·(SN2 + z·SN3)))`, `z = r² ≤ ¼`.
const SN0: f32 = f32::from_bits(0x3fc9_0fdb); //  1.5707964e+00
const SN1: f32 = f32::from_bits(0xbf25_5ddd); // -6.4596349e-01
const SN2: f32 = f32::from_bits(0x3da3_2f62); //  7.9680219e-02
const SN3: f32 = f32::from_bits(0xbb96_cda0); // -4.6021491e-03
/// `cos(πr/2) = 1 + z·(CS1 + z·(CS2 + z·(CS3 + z·CS4)))`.
const CS1: f32 = f32::from_bits(0xbf9d_e9e6); // -1.2337005e+00
const CS2: f32 = f32::from_bits(0x3e81_e0f5); //  2.5366941e-01
const CS3: f32 = f32::from_bits(0xbcaa_e5cc); // -2.0861529e-02
const CS4: f32 = f32::from_bits(0x3a6d_b249); //  9.0673991e-04

/// `cos(2π·u)`: cosine with the argument in turns.
///
/// ```text
/// cos2pi(±∞) = cos2pi(NaN) = NaN; |u| ≥ 2²³ is a whole number of turns: 1
/// t = 4·frac|u| ∈ [0, 4), q = round(t), r = t − q ∈ [−½, ½]   (all exact)
/// q mod 4:  0 → cos(πr/2)   1 → −sin(πr/2)   2 → −cos(πr/2)   3 → sin(πr/2)
/// ```
pub fn cos2pi(u: f32) -> f32 {
    let a = u.abs();
    if a >= 8_388_608.0 || a.is_nan() {
        return if a.is_finite() { 1.0 } else { f32::NAN };
    }
    // `a as i32` truncates; below 2²³ the subtraction is exact.
    cos_quarter_turns(4.0 * (a - (a as i32) as f32))
}

/// `cos(π/2 · t)` for `t ∈ [0, 4]`.
#[inline(always)]
fn cos_quarter_turns(t: f32) -> f32 {
    let shifted = t + ROUND_MAGIC;
    let q = shifted - ROUND_MAGIC;
    let r = t - q;
    let z = r * r;
    // `shifted` is `1.5·2²³ + q` exactly: its low mantissa bits are q.
    let qi = shifted.to_bits();
    // Even quadrants take `1 + z·C(z)`, odd ones `0 + r·S(z)`: one shape,
    // `k0 + b·(k1 + z·(k2 + z·(k3 + z·k4)))`, each coefficient picked by
    // q's parity through a bit mask — the quadrant is as good as random
    // where the field calls this, so a branch mispredicts, and a table
    // lookup is a gather in a vector loop.
    let odd = (qi & 1).wrapping_neg();
    let pick = |even: f32, odd_q: f32| {
        f32::from_bits(even.to_bits() ^ (odd & (even.to_bits() ^ odd_q.to_bits())))
    };
    let p = pick(CS1, SN0) + z * (pick(CS2, SN1) + z * (pick(CS3, SN2) + z * pick(CS4, SN3)));
    let v = pick(1.0, 0.0) + pick(z, r) * p;
    // Quadrants 1 and 2 are the negative half-turn: bit 1 of q + 1 is the
    // sign to flip.
    f32::from_bits(v.to_bits() ^ ((qi + 1) & 2) << 30)
}

// ------------------------------------------------------- Gaussian field

/// Strict upper bound on |[`gaussian`]| and |[`gaussian_of`]| on the
/// 24-bit grid: `u1 ≥ 2⁻²⁴`, so |ε| ≤ sqrt(−2·ln 2⁻²⁴) ≈ 5.77
/// (`tests/gaussian_props.rs` proves it over every `u2`). Callers use it to
/// prove that a scaled sample cannot move a sum
/// (`fedbiad-core::spike_slab`).
pub const GAUSSIAN_ABS_BOUND: f32 = 6.0;

/// 2⁻²⁴, the spacing of the uniform grids.
const GRID: f32 = 1.0 / (1u32 << 24) as f32;

/// Box & Muller's transform of `u1 ∈ (0, 1]` and `u2 ∈ [0, 1)` (the sine
/// twin is not used): `sqrt(−2·ln u1) · cos 2πu2`.
#[inline]
pub fn gaussian_of(u1: f32, u2: f32) -> f32 {
    (-2.0 * ln(u1)).sqrt() * cos2pi(u2)
}

/// The two uniforms of element `i` of field `key`, on the 24-bit grid:
/// `u1 ∈ {1, …, 2²⁴}·2⁻²⁴` from the top 24 bits of
/// [`counter_word`]`(key, i)` (never 0, so there is no rejection loop) and
/// `u2 ∈ {0, …, 2²⁴−1}·2⁻²⁴` from the next 24.
#[inline]
pub fn gaussian_uniform_pair(key: u64, i: u64) -> (f32, f32) {
    uniform_pair(counter_word(key, i))
}

/// [`gaussian_uniform_pair`] of the counter word `w`.
#[inline(always)]
fn uniform_pair(w: u64) -> (f32, f32) {
    let u1 = ((w >> 40) as u32 + 1) as f32 * GRID;
    let u2 = ((w >> 16) as u32 & 0x00ff_ffff) as f32 * GRID;
    (u1, u2)
}

/// Element `i` of the standard-normal field `key`: a pure function of the
/// two, so any element can be read without the ones before it.
/// `key` is a [`rng::stream_key`]; `|g| <` [`GAUSSIAN_ABS_BOUND`].
#[inline]
pub fn gaussian(key: u64, i: u64) -> f32 {
    let (u1, u2) = gaussian_uniform_pair(key, i);
    gaussian_of(u1, u2)
}

// -------------------------------------------------------------- slices

/// Elements per block of [`by_block`].
const BLOCK: usize = 64;

/// `x ← def(x)` for every element, computed block by block: a block whose
/// elements all have `key(bits(x)) < limit` — a max fold, which vectorizes
/// — runs `fast`, the definition's branch-free path for exactly those
/// elements; any other block runs `def` whole. Both return `def`'s bits,
/// so how the slice falls into blocks never shows in the result.
#[inline(always)]
fn by_block(
    xs: &mut [f32],
    key: impl Fn(u32) -> u32,
    limit: u32,
    fast: impl Fn(f32) -> f32,
    def: impl Fn(f32) -> f32,
) {
    for block in xs.chunks_mut(BLOCK) {
        if block.iter().fold(0, |m: u32, x| m.max(key(x.to_bits()))) < limit {
            for x in block {
                *x = fast(*x);
            }
        } else {
            for x in block {
                *x = def(*x);
            }
        }
    }
}

/// `x ← tanh(x)` for every element, bit-identical to [`tanh`].
pub fn tanh_slice(xs: &mut [f32]) {
    crate::cpu::avx2(
        #[inline(always)]
        move || baseline::tanh_slice(xs),
    );
}

/// `x ← exp(x)` for every element, bit-identical to [`exp`].
pub fn exp_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::cpu::get().avx2_fma {
        // SAFETY: the CPU snapshot saw AVX2 and FMA at run time.
        return unsafe { x86::exp_slice(xs) };
    }
    for x in xs {
        *x = exp(*x);
    }
}

/// `x ← sigmoid(x)` for every element, bit-identical to [`sigmoid`].
pub fn sigmoid_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if crate::cpu::get().avx2_fma {
        // SAFETY: the CPU snapshot saw AVX2 and FMA at run time.
        return unsafe { x86::sigmoid_slice(xs) };
    }
    for x in xs {
        *x = sigmoid(*x);
    }
}

/// `x ← ln(x)` for every element, bit-identical to [`ln`].
pub fn ln_slice(xs: &mut [f32]) {
    crate::cpu::avx2(
        #[inline(always)]
        move || baseline::ln_slice(xs),
    );
}

/// `u ← cos(2π·u)` for every element, bit-identical to [`cos2pi`].
pub fn cos2pi_slice(us: &mut [f32]) {
    crate::cpu::avx2(
        #[inline(always)]
        move || baseline::cos2pi_slice(us),
    );
}

/// `out[j] ← gaussian(key, start + j)` (the index wraps at 2⁶⁴),
/// bit-identical to [`gaussian`].
pub fn gaussian_slice(key: u64, start: u64, out: &mut [f32]) {
    crate::cpu::avx2(
        #[inline(always)]
        move || baseline::gaussian_slice(key, start, out),
    );
}

/// The loops behind [`tanh_slice`], [`ln_slice`], [`cos2pi_slice`] and
/// [`gaussian_slice`], written once: each slice form runs its loop inside
/// `cpu::avx2`, and called directly, as the property tests do, a loop
/// compiles as baseline code (SSE2 on x86-64, portable elsewhere) — the
/// body a host without AVX2 runs. `#[inline(always)]`, so that each is
/// compiled where it is called. Same contracts as the slice forms.
#[doc(hidden)]
pub mod baseline {
    use super::*;

    /// One loop over `tanh_lane`, then the definition over the NaN
    /// elements, if any.
    #[inline(always)]
    pub fn tanh_slice(xs: &mut [f32]) {
        let mut nan = false;
        for x in xs.iter_mut() {
            nan |= x.is_nan();
            *x = tanh_lane(*x);
        }
        if nan {
            for x in xs.iter_mut().filter(|x| x.is_nan()) {
                *x = tanh(*x);
            }
        }
    }

    /// `ln_normal` by block.
    #[inline(always)]
    pub fn ln_slice(xs: &mut [f32]) {
        // Positive normal ⇔ bits − bits(MIN_POSITIVE) < 0x7f00_0000,
        // unsigned.
        by_block(
            xs,
            |b| b.wrapping_sub(0x0080_0000),
            0x7f00_0000,
            |x| ln_normal(x.to_bits(), 0),
            ln,
        );
    }

    /// `cos_quarter_turns` by block.
    #[inline(always)]
    pub fn cos2pi_slice(us: &mut [f32]) {
        // In [+0, 1) — bits below bits(1.0) — the definition's `frac|u|`
        // is `u` itself.
        by_block(
            us,
            |b| b,
            0x3f80_0000,
            |u| cos_quarter_turns(4.0 * u),
            cos2pi,
        );
    }

    /// Every uniform pair is on the transform's fast path (`u1` a
    /// positive normal, `u2 ∈ [0, 1)`), so there is nothing to check: one
    /// loop, whose counter steps by an add. (Computing each counter from
    /// its index, as [`counter_word`] does, is a 64-bit multiply per
    /// element that the vectorized loop cannot strength-reduce: 15–35 %
    /// slower.)
    #[inline(always)]
    pub fn gaussian_slice(key: u64, start: u64, out: &mut [f32]) {
        // Element `start`'s counter; each next one is GAMMA on.
        let mut z = key.wrapping_add(start.wrapping_mul(rng::GAMMA));
        for v in out {
            let (u1, u2) = uniform_pair(rng::counter_mix(key, z));
            *v = (-2.0 * ln_normal(u1.to_bits(), 0)).sqrt() * cos_quarter_turns(4.0 * u2);
            z = z.wrapping_add(rng::GAMMA);
        }
    }
}

/// `exp`'s table path in eight lanes, kept by hand: the 32-entry table
/// load is a gather (`vpgatherqq`) here, and the compiler, which
/// scalarises it under generic AVX2 tuning, made the loop form of
/// [`exp_slice`] 6 % slower and of [`sigmoid_slice`] 7 % slower (module
/// docs, "Dispatch"). Every lane computes the IEEE operations of
/// [`exp_def`] in its order, the four `mul_add`s fused.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use std::arch::x86_64::*;

    const ABS: i32 = 0x7fff_ffff;
    const SIGN: i32 = i32::MIN;

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
