//! `math`'s slice forms against its scalar definitions, **exact bits**:
//! the slice forms promise the definition's result in every element, so
//! no tolerance appears here and a NaN must come back with its payload.
//!
//! The operands go where an element-wise rewrite can go wrong: slice
//! lengths around the 8-lane seam, one element off a slice form's fast
//! path at every position of slices around its 64-element block (that
//! block goes to the scalar definition — its other elements must not
//! notice), one special value in each lane position among ordinary
//! neighbours, windows of consecutive bit patterns straddling every
//! branch threshold of the three algorithms (so one vector holds lanes on
//! both sides of a select), and a scattered sweep of 2²⁰ patterns per
//! range. The sweeps over all 2³² patterns are `math_exhaustive.rs`
//! (`#[ignore]`). `tanh`, `ln` and `cos2pi` run their loops on every
//! host, and their baseline instantiations (`math::baseline`, what a host
//! without AVX2 runs) face the same operands; `exp` and `sigmoid` take
//! their AVX2+FMA bodies only where the host has both, and elsewhere both
//! sides here are the scalar definition.

use fedbiad_tensor::math;

type Slice = fn(&mut [f32]);
type Scalar = fn(f32) -> f32;

const FUNCTIONS: [(&str, Slice, Scalar); 4] = [
    ("tanh", math::tanh_slice, math::tanh),
    ("tanh, baseline", math::baseline::tanh_slice, math::tanh),
    ("exp", math::exp_slice, math::exp),
    ("sigmoid", math::sigmoid_slice, math::sigmoid),
];

/// `slice(xs)` equals `scalar` element by element, bit for bit.
fn assert_slice_is_scalar(what: &str, slice: Slice, scalar: Scalar, xs: &[f32]) {
    let mut got = xs.to_vec();
    slice(&mut got);
    for (i, (&x, g)) in xs.iter().zip(&got).enumerate() {
        let want = scalar(x);
        assert_eq!(
            g.to_bits(),
            want.to_bits(),
            "{what}: element {i} of {}, x = {:#010x} ({x:e}): {g:e} vs {want:e}",
            xs.len(),
            x.to_bits()
        );
    }
}

/// Ordinary operands: finite, every sign, magnitudes from 2⁻⁶ to 2⁴ —
/// inside every function's vector path, across `tanh`'s `|x| ≥ 1` split
/// and several values of `k`.
fn ordinary(i: usize) -> f32 {
    let mag = 0.017 * 1.37f32.powi((i % 23) as i32);
    if i.is_multiple_of(3) {
        -mag
    } else {
        mag
    }
}

/// `ln_slice` and `cos2pi_slice`'s block: they check each run of this
/// many elements for one off the fast path before computing any of them.
/// (`tanh_slice` has no block, `exp_slice` / `sigmoid_slice` check eight
/// lanes at a time; these lengths cross those seams too.)
const BLOCK: usize = 64;

/// Per slice form: its ordinary operands (on the fast path), and values
/// off it — the elements a block hands to the scalar definition.
type SeamCase = (
    &'static str,
    Slice,
    Scalar,
    fn(usize) -> f32,
    &'static [f32],
);

const TANH_OFF_PATH: &[f32] = &[
    f32::NAN,
    f32::from_bits(0xff81_2345), // a signalling NaN with a payload
    f32::INFINITY,
    f32::NEG_INFINITY,
];
const LN_OFF_PATH: &[f32] = &[0.0, f32::from_bits(0x0012_3456), -2.5, f32::INFINITY];
const COS2PI_OFF_PATH: &[f32] = &[1.0, -0.25, 3.75, -0.0];

fn ln_neighbour(i: usize) -> f32 {
    0.003 + (i % 37) as f32 * 0.41
}

fn cos2pi_neighbour(i: usize) -> f32 {
    (i as f32 * 0.618_034).fract()
}

const SEAM_CASES: [SeamCase; 8] = [
    (
        "tanh",
        math::tanh_slice,
        math::tanh,
        ordinary,
        TANH_OFF_PATH,
    ),
    (
        "tanh, baseline",
        math::baseline::tanh_slice,
        math::tanh,
        ordinary,
        TANH_OFF_PATH,
    ),
    (
        "exp",
        math::exp_slice,
        math::exp,
        ordinary,
        &[88.0, -90.0, 100.0, -104.0],
    ),
    (
        "sigmoid",
        math::sigmoid_slice,
        math::sigmoid,
        ordinary,
        &[88.0, -90.0, 100.0, -104.0],
    ),
    ("ln", math::ln_slice, math::ln, ln_neighbour, LN_OFF_PATH),
    (
        "ln, baseline",
        math::baseline::ln_slice,
        math::ln,
        ln_neighbour,
        LN_OFF_PATH,
    ),
    (
        "cos2pi",
        math::cos2pi_slice,
        math::cos2pi,
        cos2pi_neighbour,
        COS2PI_OFF_PATH,
    ),
    (
        "cos2pi, baseline",
        math::baseline::cos2pi_slice,
        math::cos2pi,
        cos2pi_neighbour,
        COS2PI_OFF_PATH,
    ),
];

#[test]
fn every_slice_length_from_0_to_17() {
    for (name, slice, scalar) in FUNCTIONS {
        for len in 0..=17 {
            // A 0..3-float prefix makes the loads unaligned too.
            for offset in 0..4 {
                let xs: Vec<f32> = (0..offset + len).map(ordinary).collect();
                assert_slice_is_scalar(name, slice, scalar, &xs[offset..]);
            }
        }
    }
    // One element off the fast path, at every position of a slice one
    // block long give or take one, and of two blocks and one.
    for (name, slice, scalar, neighbour, off_path) in SEAM_CASES {
        for len in [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1] {
            for at in 0..len {
                for &special in off_path {
                    let mut xs: Vec<f32> = (0..len).map(neighbour).collect();
                    xs[at] = special;
                    assert_slice_is_scalar(name, slice, scalar, &xs);
                }
            }
        }
    }
}

#[test]
fn each_special_value_in_each_lane_among_ordinary_neighbours() {
    let specials = [
        0.0f32,
        -0.0,
        f32::from_bits(1),           // smallest subnormal
        f32::from_bits(0x8000_0001), //
        f32::from_bits(0x007f_ffff), // largest subnormal
        f32::from_bits(0x807f_ffff), //
        f32::MIN_POSITIVE,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(0x7fc0_0000), // default quiet NaN
        f32::from_bits(0xffc0_0000), //
        f32::from_bits(0x7fa5_5aa5), // signalling NaNs with a payload
        f32::from_bits(0xff81_2345), //
        f32::MAX,
        f32::MIN,
        100.0, // past exp's table path, not yet overflowing
        -100.0,
        -103.5, // between exp's two underflow thresholds
        -104.0,
    ];
    for (name, slice, scalar) in FUNCTIONS {
        // 8: one full vector; 19: two vectors and a scalar tail.
        for len in [8, 19] {
            for lane in 0..len {
                for special in specials {
                    let mut xs: Vec<f32> = (0..len).map(ordinary).collect();
                    xs[lane] = special;
                    assert_slice_is_scalar(name, slice, scalar, &xs);
                }
            }
        }
    }
}

/// `bits ± 70` consecutive patterns around each centre, in both signs: a
/// stretch of vectors whose lanes sit on both sides of the threshold.
fn windows(centres: &[u32]) -> Vec<f32> {
    let mut xs = Vec::new();
    for &centre in centres {
        for sign in [0, 0x8000_0000] {
            let lo = centre.saturating_sub(70);
            let hi = centre.saturating_add(70).min(0x7fff_ffff);
            xs.extend((lo..=hi).map(|b| f32::from_bits(b | sign)));
        }
    }
    xs
}

/// `|x|` at which `expm1(2|x|)` steps from `k − 1` to `k`, i.e.
/// `2|x| / ln 2 + ½ = k` (to within the window's ±70 ulps).
fn k_boundary(k: u32) -> u32 {
    (((k as f64 - 0.5) * std::f64::consts::LN_2 / 2.0) as f32).to_bits()
}

#[test]
fn tanh_windows_straddle_every_branch_threshold() {
    /// One binade down: `tanh` hands `expm1` `2|x|`.
    const HALF: u32 = 0x0080_0000;
    let mut centres = vec![
        0,           // ±0 and the subnormals beside it
        0x0080_0000, // smallest normal
        0x2400_0000, // tanh: |x| < 2⁻⁵⁵
        0x3f80_0000, // tanh: |x| ≥ 1
        0x41b0_0000, // tanh: |x| ≥ 22
        0x7f80_0000, // finite | non-finite
        // expm1's thresholds, as |x| = threshold / 2 …
        0x3300_0000 - HALF, // |a| < 2⁻²⁵ (the vector body's identity lanes)
        0x3eb1_7218 - HALF, // ½ ln 2
        0x3f85_1592 - HALF, // 1.5 ln 2
        0x4195_b844 - HALF, // 27 ln 2
        0x42b1_7218 - HALF, // overflow (past tanh's 22: unreachable, pinned so)
        // … and as |x| itself.
        0x3300_0000,
        0x3eb1_7218,
        0x3f85_1592,
        0x4195_b844,
        0x42b1_7218,
    ];
    // Every k the reduction can produce steps somewhere: 0 → −1 → −2 → −3
    // below 1, 3 … 63 above, with 22 | 23 and 56 | 57 changing the form.
    centres.extend((1..=64).map(k_boundary));
    let xs = windows(&centres);
    assert_slice_is_scalar("tanh", math::tanh_slice, math::tanh, &xs);
    assert_slice_is_scalar(
        "tanh, baseline",
        math::baseline::tanh_slice,
        math::tanh,
        &xs,
    );
}

#[test]
fn exp_and_sigmoid_windows_straddle_every_branch_threshold() {
    let centres = [
        0,
        0x0080_0000,
        0x3f80_0000,
        0x42b0_0000, // |x| ≥ 88 leaves the table path
        0x42b1_7217, // overflow
        0x42ce_8ecf, // may underflow (negative side)
        0x42cf_f1b4, // underflows
        0x7f80_0000,
        // The two inputs on which an un-fused multiply-add differs.
        0x4202_422f,
        0x427c_65d9,
    ];
    let xs = windows(&centres);
    assert_slice_is_scalar("exp", math::exp_slice, math::exp, &xs);
    assert_slice_is_scalar("sigmoid", math::sigmoid_slice, math::sigmoid, &xs);
}

/// 2²⁰ bit patterns scattered over magnitudes `lo..hi` (as bit patterns)
/// and both signs by a multiplicative hash, so neighbouring lanes hold
/// unrelated exponents and signs.
fn scattered(lo: u32, hi: u32) -> Vec<f32> {
    (0..1u32 << 20)
        .map(|i| {
            let h = i.wrapping_mul(0x9e37_79b1);
            f32::from_bits((lo + (h >> 1) % (hi - lo)) | (h << 31))
        })
        .collect()
}

#[test]
fn scattered_sweeps_of_a_million_patterns() {
    // The whole space (mostly vectors that fall to the scalar definition
    // around a lane that does not), then each function's vector range.
    let everything = scattered(0, 0x8000_0000);
    for (name, slice, scalar) in FUNCTIONS {
        assert_slice_is_scalar(name, slice, scalar, &everything);
    }
    // tanh: 2⁻²⁸ … 32 (identity, every k, saturated) and 2⁻³ … 24.
    for (lo, hi) in [(0x3180_0000, 0x4200_0000), (0x3e00_0000, 0x41c0_0000)] {
        let xs = scattered(lo, hi);
        assert_slice_is_scalar("tanh", math::tanh_slice, math::tanh, &xs);
        assert_slice_is_scalar(
            "tanh, baseline",
            math::baseline::tanh_slice,
            math::tanh,
            &xs,
        );
    }
    // exp, sigmoid: everything under 88, and 2⁻⁶ … 88.
    for (lo, hi) in [(0, 0x42b0_0000), (0x3c80_0000, 0x42b0_0000)] {
        let xs = scattered(lo, hi);
        assert_slice_is_scalar("exp", math::exp_slice, math::exp, &xs);
        assert_slice_is_scalar("sigmoid", math::sigmoid_slice, math::sigmoid, &xs);
    }
}

#[test]
fn sigmoid_is_the_two_branch_formula_over_exp() {
    let formula = |x: f32| {
        if x >= 0.0 {
            1.0 / (1.0 + math::exp(-x))
        } else {
            let e = math::exp(x);
            e / (1.0 + e)
        }
    };
    let mut xs = scattered(0, 0x8000_0000);
    xs.extend(scattered(0x3c80_0000, 0x42b0_0000));
    xs.extend([0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, 88.0, -88.0]);
    let mut got = xs.clone();
    math::sigmoid_slice(&mut got);
    for (&x, g) in xs.iter().zip(&got) {
        assert_eq!(g.to_bits(), formula(x).to_bits(), "x = {x:e}");
        assert_eq!(
            math::sigmoid(x).to_bits(),
            formula(x).to_bits(),
            "x = {x:e}"
        );
    }
}

/// The definitions against `f64` arithmetic, to a few ulps: the one check
/// here that says the functions are `tanh` and `exp` at all, on any host.
#[test]
fn definitions_are_within_a_few_ulps_of_double_precision() {
    let ulps = |got: f32, want: f64| {
        let want32 = want as f32;
        if got == want32 {
            return 0.0;
        }
        let ulp = (f32::from_bits(want32.to_bits() + 1) - want32).abs() as f64;
        ((got as f64 - want) / ulp).abs()
    };
    for x in scattered(0x3180_0000, 0x42ae_0000) {
        let xd = x as f64;
        // fdlibm's tanhf is a 2-ulp function (glibc documents as much).
        assert!(ulps(math::tanh(x), xd.tanh()) <= 3.0, "tanh({x:e})");
        assert!(ulps(math::exp(x), xd.exp()) <= 1.0, "exp({x:e})");
        assert!(
            ulps(math::sigmoid(x), 1.0 / (1.0 + (-xd).exp())) <= 3.0,
            "sigmoid({x:e})"
        );
    }
    assert_eq!(math::exp(0.0), 1.0);
    assert_eq!(math::exp(f32::NEG_INFINITY), 0.0);
    assert_eq!(math::exp(f32::INFINITY), f32::INFINITY);
    assert_eq!(math::exp(89.0), f32::INFINITY);
    assert_eq!(math::exp(-104.0), 0.0);
    assert_eq!(math::exp(-103.5).to_bits(), 1);
    assert_eq!(math::tanh(f32::INFINITY), 1.0);
    assert_eq!(math::tanh(-30.0), -1.0);
    assert_eq!(math::tanh(-0.0).to_bits(), (-0.0f32).to_bits());
    assert!(math::tanh(f32::NAN).is_nan() && math::exp(f32::NAN).is_nan());
    assert_eq!(math::sigmoid(0.0), 0.5);
}
