//! Property tests for the element-wise kernels: every kernel against its
//! scalar definition, **bit-identical** (the kernels are purely vertical,
//! so no tolerance is ever needed).
//!
//! Shapes deliberately stress the vectorized loops' seams: every length
//! 0..=40 crosses the compiler's 8-lane main loop, its unrolled multiples
//! and the scalar remainder at each step, and {4095, 4096, 4097} cover
//! long runs either side of a multiple of 32; a 0..4-element prefix
//! offset makes every vector load/store unaligned; and
//! `sign_apply_from_bits` additionally sweeps its bit-level start offset
//! across byte seams. Operands mix in signed zeros, infinities,
//! subnormals and NaN: a lane whose definition is NaN must be NaN (which
//! of two NaN operands an operation returns is the compiler's choice),
//! every other lane must carry the definition's bits.
//!
//! FedPAQ's two kernels are held to expressions that share no code with
//! them: `max_abs` to the `f32::max` fold and `quantise` to libm's
//! `round().clamp()` (as well as to `quant_code`), over NaNs of both signs
//! with random payloads, ties at every half-integer and values past the
//! clamp, at L ∈ {1, 127, 32 767}.

use fedbiad_tensor::ops;
use fedbiad_tensor::rng::{stream, StreamTag};
use proptest::prelude::*;
use rand::Rng;

/// The edge operands mixed into every vector: signed zeros, infinities,
/// the smallest and largest subnormals of either sign, and NaN.
const SPECIALS: [f32; 9] = [
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::from_bits(1),
    f32::from_bits(0x8000_0001),
    f32::from_bits(0x007f_ffff),
    f32::from_bits(0x807f_ffff),
    f32::NAN,
];

/// One element in ten is an edge operand.
fn special(rng: &mut impl Rng) -> Option<f32> {
    (rng.gen_range(0..10) == 0).then(|| SPECIALS[rng.gen_range(0..SPECIALS.len())])
}

fn filled_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = stream(seed, StreamTag::Init, 0, 0);
    (0..len)
        .map(|_| {
            // Sprinkle exact zeros so sign/zero edge cases are exercised.
            special(&mut rng).unwrap_or_else(|| {
                if rng.gen_range(0..5) == 0 {
                    0.0
                } else {
                    rng.gen_range(-2.0f32..2.0)
                }
            })
        })
        .collect()
}

/// "Denominator" vector: positive, with exact zeros and the edge operands
/// (negative ones included) mixed in.
fn weight_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = stream(seed, StreamTag::Init, 0, 1);
    (0..len)
        .map(|_| {
            special(&mut rng).unwrap_or_else(|| {
                if rng.gen_range(0..3) == 0 {
                    0.0
                } else {
                    rng.gen_range(0.5f32..4.0)
                }
            })
        })
        .collect()
}

/// Every length 0..=40, then 4k − 1, 4k and 4k + 1.
fn lens() -> impl Strategy<Value = usize> {
    prop::sample::select((0usize..=40).chain([4095, 4096, 4097]).collect::<Vec<_>>())
}

/// `got` equals `want` bit for bit where `want` is not NaN, and is NaN
/// where it is.
fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if w.is_nan() {
            assert!(g.is_nan(), "{what}[{i}]: {g} vs NaN");
        } else {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs {w}");
        }
    }
}

/// A NaN of either sign with a random non-zero payload.
fn any_nan(rng: &mut impl Rng) -> f32 {
    let sign = if rng.gen::<bool>() { 0x8000_0000 } else { 0 };
    f32::from_bits(sign | 0x7f80_0000 | rng.gen_range(1u32..0x0080_0000))
}

/// FedPAQ operands around `levels`: every `SPECIALS` edge operand and NaNs
/// of both signs, half-integers (the rounding ties) out to twice the
/// clamp, values either side of each clamp bound, huge magnitudes and
/// plain ones. With `nan_share` 1 half the elements are NaN, with 2 all.
fn fedpaq_vec(len: usize, seed: u64, levels: u16, nan_share: u32) -> Vec<f32> {
    let mut rng = stream(seed, StreamTag::Compress, 2, 0);
    let l = f32::from(levels);
    (0..len)
        .map(|_| {
            if nan_share == 2 || (nan_share == 1 && rng.gen::<bool>()) {
                return any_nan(&mut rng);
            }
            let sign = if rng.gen::<bool>() { -1.0 } else { 1.0 };
            sign * match rng.gen_range(0u32..8) {
                0 => SPECIALS[rng.gen_range(0..SPECIALS.len())].abs(),
                1 => any_nan(&mut rng),
                2 | 3 => rng.gen_range(0..2 * u32::from(levels)) as f32 + 0.5,
                4 => l + rng.gen_range(-1.0f32..1.0),
                5 => rng.gen_range(1e5f32..1e30),
                _ => rng.gen_range(0.0..1.5 * l),
            }
        })
        .collect()
}

proptest! {
    /// `max_abs` is the fold it documents, bit for bit: `+0.0` for an
    /// empty or all-NaN slice, NaN skipped, `−∞` read as `+∞`.
    #[test]
    fn max_abs_matches_fold(
        len in lens(),
        off in 0usize..4,
        seed in 0u64..500,
        nan_share in 0u32..=2,
    ) {
        let xs = fedpaq_vec(len + off, seed, 127, nan_share);
        let want = xs[off..].iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let got = ops::max_abs(&xs[off..]);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs {}", got, want);
    }

    /// `quantise` is `quant_code(x·q) + L` on every element, and that is
    /// `(x·q).round().clamp(−L, L) + L` with NaN at `L`.
    #[test]
    fn quantise_matches_quant_code(
        len in lens(),
        off in 0usize..4,
        seed in 0u64..500,
        levels in prop::sample::select(vec![1u16, 127, 32_767]),
        q in prop::sample::select(vec![1.0f32, 0.75, 3.0]),
    ) {
        let xs = fedpaq_vec(len + off, seed, levels, 0);
        let l = f32::from(levels);
        let mut got = vec![7u16; len + off];
        ops::quantise(&xs[off..], q, levels, &mut got[off..]);
        for i in off..xs.len() {
            let x = xs[i] * q;
            let code = ops::quant_code(x, l);
            let libm = if x.is_nan() { 0 } else { x.round().clamp(-l, l) as i32 };
            prop_assert_eq!(code, libm, "quant_code({:e}), L = {}", x, levels);
            prop_assert_eq!(
                i32::from(got[i]),
                code + i32::from(levels),
                "quantise[{}] of {:e} ({:#010x}), L = {}",
                i - off, x, x.to_bits(), levels
            );
        }
    }

    #[test]
    fn axpy_matches_scalar(len in lens(), off in 0usize..4, seed in 0u64..500) {
        let x = filled_vec(len + off, seed);
        let y0 = filled_vec(len + off, seed ^ 0x1);
        let alpha = filled_vec(1, seed ^ 0x2)[0];
        let mut got = y0.clone();
        ops::axpy(alpha, &x[off..], &mut got[off..]);
        let mut want = y0.clone();
        for i in off..y0.len() {
            want[i] += alpha * x[i];
        }
        assert_bits_eq(&got, &want, "axpy");
    }

    #[test]
    fn add_assign_scalar_matches_scalar(len in lens(), off in 0usize..4, seed in 0u64..500) {
        let y0 = filled_vec(len + off, seed);
        let w = filled_vec(1, seed ^ 0x3)[0];
        let mut got = y0.clone();
        ops::add_assign_scalar(&mut got[off..], w);
        let mut want = y0.clone();
        for v in &mut want[off..] {
            *v += w;
        }
        assert_bits_eq(&got, &want, "add_assign_scalar");
    }

    /// `+= 0.0` must normalise −0.0 exactly like the scalar loop (the
    /// dropped-element pass of the streaming reducer depends on it).
    #[test]
    fn add_assign_zero_normalises_negative_zero(len in lens(), off in 0usize..4) {
        let mut got = vec![-0.0f32; len + off];
        ops::add_assign_scalar(&mut got[off..], 0.0);
        for (i, v) in got[off..].iter().enumerate() {
            prop_assert_eq!(v.to_bits(), 0.0f32.to_bits(), "index {}", i);
        }
    }

    #[test]
    fn axpy_sum2_matches_scalar(len in lens(), off in 0usize..4, seed in 0u64..500) {
        let a = filled_vec(len + off, seed);
        let b = filled_vec(len + off, seed ^ 0x4);
        let y0 = filled_vec(len + off, seed ^ 0x5);
        let w = filled_vec(1, seed ^ 0x6)[0];
        let mut got = y0.clone();
        ops::axpy_sum2(w, &a[off..], &b[off..], &mut got[off..]);
        let mut want = y0.clone();
        for i in off..y0.len() {
            want[i] += w * (a[i] + b[i]);
        }
        assert_bits_eq(&got, &want, "axpy_sum2");
    }

    #[test]
    fn axpy_from_le_bytes_matches_scalar(len in lens(), off in 0usize..4, boff in 0usize..4, seed in 0u64..500) {
        let vals = filled_vec(len, seed);
        // A byte prefix of length `boff` misaligns the wire bytes
        // independently of the accumulator.
        let mut bytes = vec![0u8; boff];
        for v in &vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let y0 = filled_vec(len + off, seed ^ 0x7);
        let alpha = filled_vec(1, seed ^ 0x8)[0];
        let mut got = y0.clone();
        ops::axpy_from_le_bytes(alpha, &bytes[boff..], &mut got[off..]);
        let mut want = y0.clone();
        for (i, v) in vals.iter().enumerate() {
            want[off + i] += alpha * v;
        }
        assert_bits_eq(&got, &want, "axpy_from_le_bytes");
    }

    #[test]
    fn scale_into_matches_scalar(len in lens(), off in 0usize..4, seed in 0u64..500) {
        let x = filled_vec(len + off, seed);
        let s = filled_vec(1, seed ^ 0x9)[0];
        let mut got = vec![7.0f32; len + off];
        ops::scale_into(&x[off..], s, &mut got[off..]);
        let want: Vec<f32> = x[off..].iter().map(|&x| x * s).collect();
        assert_bits_eq(&got[off..], &want, "scale_into");
    }

    #[test]
    fn div_scalar_into_matches_scalar(len in lens(), off in 0usize..4, seed in 0u64..500) {
        let x = filled_vec(len + off, seed);
        let w = weight_vec(1, seed ^ 0xa)[0].max(0.25);
        let mut got = vec![7.0f32; len + off];
        ops::div_scalar_into(&x[off..], w, &mut got[off..]);
        let want: Vec<f32> = x[off..].iter().map(|&x| x / w).collect();
        assert_bits_eq(&got[off..], &want, "div_scalar_into");
    }

    #[test]
    fn holders_combine_matches_scalar(len in lens(), off in 0usize..4, seed in 0u64..500) {
        let num = filled_vec(len + off, seed);
        let den = weight_vec(len + off, seed ^ 0xb);
        let g0 = filled_vec(len + off, seed ^ 0xc);
        let mut got = g0.clone();
        ops::holders_combine(&num[off..], &den[off..], &mut got[off..]);
        let mut want = g0.clone();
        for i in off..g0.len() {
            if den[i] > 0.0 {
                want[i] = num[i] / den[i];
            }
        }
        assert_bits_eq(&got, &want, "holders_combine");
    }

    #[test]
    fn stale_fill_combine_matches_scalar(len in lens(), off in 0usize..4, seed in 0u64..500) {
        let num = filled_vec(len + off, seed);
        let den = weight_vec(len + off, seed ^ 0xd);
        let g0 = filled_vec(len + off, seed ^ 0xe);
        let total_w = 5.5f32;
        let mut got = g0.clone();
        ops::stale_fill_combine(&num[off..], &den[off..], total_w, &mut got[off..]);
        let mut want = g0.clone();
        for i in off..g0.len() {
            want[i] = (num[i] + (total_w - den[i]) * want[i]) / total_w;
        }
        assert_bits_eq(&got, &want, "stale_fill_combine");
    }

    /// The constant-den form must match the array form fed a den array
    /// holding that constant everywhere (how the row-granular streaming
    /// path replaces the materialised denominator).
    #[test]
    fn holders_combine_scalar_matches_array(len in lens(), off in 0usize..4, seed in 0u64..500) {
        let num = filled_vec(len + off, seed);
        let den = weight_vec(1, seed ^ 0x14)[0]; // zero sometimes: no-op case
        let g0 = filled_vec(len + off, seed ^ 0x15);
        let mut got = g0.clone();
        ops::holders_combine_scalar(&num[off..], den, &mut got[off..]);
        let mut want = g0.clone();
        ops::holders_combine(&num[off..], &vec![den; len], &mut want[off..]);
        assert_bits_eq(&got, &want, "holders_combine_scalar");
    }

    #[test]
    fn stale_fill_combine_scalar_matches_array(len in lens(), off in 0usize..4, seed in 0u64..500) {
        let num = filled_vec(len + off, seed);
        let den = weight_vec(1, seed ^ 0x16)[0];
        let g0 = filled_vec(len + off, seed ^ 0x17);
        let total_w = 5.5f32;
        let mut got = g0.clone();
        ops::stale_fill_combine_scalar(&num[off..], den, total_w, &mut got[off..]);
        let mut want = g0.clone();
        ops::stale_fill_combine(&num[off..], &vec![den; len], total_w, &mut want[off..]);
        assert_bits_eq(&got, &want, "stale_fill_combine_scalar");
    }

    #[test]
    #[allow(clippy::neg_multiply)]
    fn diff_into_matches_scalar(len in lens(), off in 0usize..4, seed in 0u64..500) {
        let x = filled_vec(len + off, seed);
        let s = filled_vec(len + off, seed ^ 0xf);
        let mut got = vec![7.0f32; len + off];
        ops::diff_into(&x[off..], &s[off..], &mut got[off..]);
        let want: Vec<f32> = (off..x.len()).map(|i| x[i] + (-1.0) * s[i]).collect();
        assert_bits_eq(&got[off..], &want, "diff_into");
    }

    #[test]
    #[allow(clippy::neg_multiply)]
    fn sum2_diff_into_matches_scalar(len in lens(), off in 0usize..4, seed in 0u64..500) {
        let b = filled_vec(len + off, seed);
        let k = filled_vec(len + off, seed ^ 0x10);
        let s = filled_vec(len + off, seed ^ 0x11);
        let mut got = vec![7.0f32; len + off];
        ops::sum2_diff_into(&b[off..], &k[off..], &s[off..], &mut got[off..]);
        let want: Vec<f32> = (off..b.len()).map(|i| (b[i] + k[i]) + (-1.0) * s[i]).collect();
        assert_bits_eq(&got[off..], &want, "sum2_diff_into");
    }

    /// Sweeps the bit-level start across byte seams (0..17 covers both
    /// sub-byte phases and whole-byte skips) on top of the length set.
    #[test]
    fn sign_apply_matches_scalar(len in lens(), start in 0usize..17, seed in 0u64..500) {
        let mut rng = stream(seed, StreamTag::Init, 1, 0);
        let nbytes = (start + len).div_ceil(8).max(1);
        let signs: Vec<u8> = (0..nbytes).map(|_| rng.gen_range(0u32..256) as u8).collect();
        let mu = filled_vec(1, seed ^ 0x12)[0];
        let mut got = vec![7.0f32; len];
        ops::sign_apply_from_bits(&signs, start, mu, &mut got);
        for (o, v) in got.iter().enumerate() {
            let i = start + o;
            let want = if signs[i / 8] >> (i % 8) & 1 == 1 { -mu } else { mu };
            prop_assert_eq!(v.to_bits(), want.to_bits(), "bit {}", i);
        }
    }

    #[test]
    fn dequant_u8_matches_scalar(len in lens(), off in 0usize..4, seed in 0u64..500) {
        let mut rng = stream(seed, StreamTag::Init, 1, 1);
        let levels = 127i32; // the 8-bit symmetric range the codec uses
        let codes: Vec<u8> = (0..len + off).map(|_| rng.gen_range(0..=2 * levels as u32) as u8).collect();
        let inv_q = filled_vec(1, seed ^ 0x13)[0];
        let mut got = vec![7.0f32; len + off];
        ops::dequant_u8(&codes[off..], levels, inv_q, &mut got[off..]);
        for i in off..codes.len() {
            let want = (codes[i] as i32 - levels) as f32 * inv_q;
            prop_assert_eq!(got[i].to_bits(), want.to_bits());
        }
    }
}
