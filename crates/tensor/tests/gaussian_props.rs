//! The Gaussian field (`math::gaussian`, `rng::counter_word`), tested for
//! what the sequential generator it replaced was trusted for.
//!
//! * **The definition is the definition.** `ln_slice`, `cos2pi_slice` and
//!   `gaussian_slice`, and their baseline instantiations
//!   (`math::baseline`), return the scalar functions' exact bits — over
//!   every input the field can produce (both 24-bit grids, whole), every
//!   slice length around the 8-lane seam and across 64, unaligned stores,
//!   and index ranges that cross 2³² and wrap at 2⁶⁴.
//! * **The kernels are accurate.** `ln` and `cos2pi` against `f64` over
//!   the whole grids, in ulps of the `f32` result; the bounds asserted
//!   below are the measured maxima, rounded up.
//! * **The bound `spike_slab::add_is_no_op` rests on is proved**, not
//!   sampled: the largest radius over all 2²⁴ `u1` times the largest
//!   `|cos2pi|` over all 2²⁴ `u2` is below `GAUSSIAN_ABS_BOUND`, and a
//!   product of two floats is monotone in each.
//! * **The values look Gaussian and the streams look independent**:
//!   moments, kurtosis and 4σ tail over 2²² draws, chi-square of both
//!   uniforms (marginal, joint and serial), strict avalanche from every
//!   key and index bit to every bit the uniforms read, and correlation
//!   between adjacent indices, clients, rounds and every pair of
//!   `StreamTag`s; no two of 10⁶ stream tuples share a key. Everything is
//!   a fixed computation — a threshold that holds once holds always.
//!
//! These were shown load-bearing by mutation (BENCHMARKS.md, "PR 24"):
//! dropping either of `counter_word`'s mixing rounds fails the avalanche
//! test (the first also the key sweep: un-mixed, a key meets its own
//! rotation, and `k ^ rot32(k)` has 2³² values) — and *only* those, which
//! is why they are here: one round already passes every moment,
//! chi-square and correlation at 2²² draws. Reading `u2` from `u1`'s bits
//! fails the moments (the mean: the angle is locked to the radius) and
//! the uniform pairing.

use fedbiad_tensor::math::{self, GAUSSIAN_ABS_BOUND};
use fedbiad_tensor::rng::{counter_word, stream_key, StreamTag};

type Slice = fn(&mut [f32]);
type FieldSlice = fn(u64, u64, &mut [f32]);

const GRID_POINTS: u32 = 1 << 24;
const GRID: f32 = 1.0 / GRID_POINTS as f32;

/// Every point of a 24-bit grid, `first..first + 2²⁴` in units of 2⁻²⁴,
/// through `slice` in blocks, against `scalar`: the mismatch count.
fn grid_mismatches(first: u32, slice: Slice, scalar: fn(f32) -> f32) -> u64 {
    const BLOCK: u32 = 1 << 14;
    let mut mismatches = 0;
    let mut xs = vec![0.0f32; BLOCK as usize];
    for block in 0..GRID_POINTS / BLOCK {
        let n0 = first + block * BLOCK;
        for (j, x) in xs.iter_mut().enumerate() {
            *x = (n0 + j as u32) as f32 * GRID;
        }
        slice(&mut xs);
        for (j, got) in xs.iter().enumerate() {
            let want = scalar((n0 + j as u32) as f32 * GRID);
            if got.to_bits() != want.to_bits() {
                mismatches += 1;
                if mismatches <= 4 {
                    eprintln!("n = {}: {got:e} vs {want:e}", n0 + j as u32);
                }
            }
        }
    }
    mismatches
}

#[test]
fn ln_slice_is_ln_on_every_u1() {
    // u1 ∈ {1, …, 2²⁴}·2⁻²⁴
    for slice in [math::ln_slice as Slice, math::baseline::ln_slice] {
        assert_eq!(grid_mismatches(1, slice, math::ln), 0);
    }
}

#[test]
fn cos2pi_slice_is_cos2pi_on_every_u2() {
    // u2 ∈ {0, …, 2²⁴ − 1}·2⁻²⁴
    for slice in [math::cos2pi_slice as Slice, math::baseline::cos2pi_slice] {
        assert_eq!(grid_mismatches(0, slice, math::cos2pi), 0);
    }
}

#[test]
fn slices_hand_lanes_outside_their_vector_range_to_the_definition() {
    let specials = [
        0.0f32,
        -0.0,
        f32::from_bits(1),
        f32::from_bits(0x007f_ffff),
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        1.0,
        -1.0,
        -0.25,
        0.999_999_94,
        1.25,
        3.0e6,
        8_388_608.0,
        8_388_609.0,
        f32::MAX,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
    for special in specials {
        for lane in 0..8 {
            let mut xs = [0.3f32, 0.7, 0.01, 0.5, 0.25, 0.125, 0.9, 0.6, 0.4];
            xs[lane] = special;
            for (name, slice, scalar) in [
                ("ln", math::ln_slice as Slice, math::ln as fn(f32) -> f32),
                ("ln, baseline", math::baseline::ln_slice, math::ln),
                ("cos2pi", math::cos2pi_slice, math::cos2pi),
                (
                    "cos2pi, baseline",
                    math::baseline::cos2pi_slice,
                    math::cos2pi,
                ),
            ] {
                let mut got = xs;
                slice(&mut got);
                for (x, g) in xs.iter().zip(got) {
                    assert!(
                        same(g, scalar(*x)),
                        "{name}({x:e}) beside {special:e}: {g:e}"
                    );
                }
            }
        }
    }
    // The definitions' own edge values.
    assert_eq!(math::ln(0.0), f32::NEG_INFINITY);
    assert_eq!(math::ln(-0.0), f32::NEG_INFINITY);
    assert_eq!(math::ln(f32::INFINITY), f32::INFINITY);
    assert!(math::ln(-1.0).is_nan() && math::ln(f32::NAN).is_nan());
    assert_eq!(math::ln(1.0).to_bits(), 0.0f32.to_bits());
    let tiny = f32::from_bits(3);
    assert!((math::ln(tiny) as f64 - (tiny as f64).ln()).abs() < 1e-5);
    assert_eq!(math::cos2pi(0.0), 1.0);
    assert_eq!(math::cos2pi(0.5), -1.0);
    assert_eq!(math::cos2pi(-0.5), -1.0);
    assert_eq!(math::cos2pi(0.25).abs(), 0.0);
    assert_eq!(math::cos2pi(1234.75).abs(), 0.0);
    assert_eq!(math::cos2pi(-7.0), 1.0);
    assert_eq!(math::cos2pi(f32::MAX), 1.0);
    assert!(math::cos2pi(f32::INFINITY).is_nan() && math::cos2pi(f32::NAN).is_nan());
}

#[test]
fn gaussian_slice_is_gaussian_for_every_length_alignment_and_index_range() {
    let key = stream_key(42, StreamTag::Data, 1, 7);
    let starts = [
        0u64,
        1,
        783,
        (1 << 32) - 9, // crosses 2³² inside the first vector
        (1 << 32) - 3, // … inside the scalar tail of short slices
        (1 << 40) + 5,
        u64::MAX - 11, // wraps at 2⁶⁴
        u64::MAX - 63, // … on the last element of a 64-long slice
        u64::MAX,
    ];
    for start in starts {
        // Around the 8-lane seam, and across 64 (the other slice forms'
        // block, and a multiple of every vector width the loop may take).
        for len in (0..=17usize).chain([63, 64, 65, 129]) {
            // A 0..7-float prefix leaves the stores unaligned every way.
            for offset in 0..8usize {
                for (form, slice) in [
                    ("dispatched", math::gaussian_slice as FieldSlice),
                    ("baseline", math::baseline::gaussian_slice),
                ] {
                    let mut buf = vec![f32::NAN; offset + len + 1];
                    slice(key, start, &mut buf[offset..offset + len]);
                    for (j, got) in buf[offset..offset + len].iter().enumerate() {
                        let want = math::gaussian(key, start.wrapping_add(j as u64));
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{form}: start {start}, len {len}, offset {offset}, element {j}"
                        );
                    }
                    assert!(buf[..offset].iter().all(|v| v.is_nan()), "wrote before");
                    assert!(buf[offset + len].is_nan(), "wrote past the end");
                }
            }
        }
    }
    // A long run, and the same elements read in pieces in another order.
    let mut whole = vec![0.0f32; 5000];
    math::gaussian_slice(key, 100, &mut whole);
    for (j, got) in whole.iter().enumerate().rev().step_by(7) {
        assert_eq!(got.to_bits(), math::gaussian(key, 100 + j as u64).to_bits());
    }
    let mut piece = vec![0.0f32; 784];
    math::gaussian_slice(key, 100 + 3 * 784, &mut piece);
    assert_eq!(&whole[3 * 784..4 * 784], &piece[..]);
}

/// `|got − want|` in units of the spacing of `f32` at `want`.
fn ulps(got: f32, want: f64) -> f64 {
    if want == 0.0 {
        return if got == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let exponent = want.abs().log2().floor() as i32;
    (got as f64 - want).abs() / 2f64.powi(exponent.max(-126) - 23)
}

#[test]
fn ln_is_within_one_ulp_of_f64_on_every_u1() {
    let mut worst = (0.0f64, 0u32);
    for n in 1..=GRID_POINTS {
        let x = n as f32 * GRID;
        let err = ulps(math::ln(x), (x as f64).ln());
        if err > worst.0 {
            worst = (err, n);
        }
    }
    eprintln!("ln: worst {:.3} ulp at u1 = {}·2⁻²⁴", worst.0, worst.1);
    assert!(worst.0 <= 1.0, "{worst:?}");
}

/// `cos 2πu` in `f64` with the same exact quadrant reduction, so the
/// reference has no argument-rounding error near the zero crossings.
fn cos2pi_f64(u: f64) -> f64 {
    let t = 4.0 * u;
    let q = t.round();
    let x = std::f64::consts::FRAC_PI_2 * (t - q);
    match q as i64 & 3 {
        0 => x.cos(),
        1 => -x.sin(),
        2 => -x.cos(),
        _ => x.sin(),
    }
}

#[test]
fn cos2pi_is_within_two_ulp_of_f64_on_every_u2() {
    let mut worst = (0.0f64, 0u32);
    let mut peak = 0.0f32;
    for n in 0..GRID_POINTS {
        let u = n as f32 * GRID;
        let got = math::cos2pi(u);
        peak = peak.max(got.abs());
        let err = ulps(got, cos2pi_f64(u as f64));
        if err > worst.0 {
            worst = (err, n);
        }
    }
    eprintln!("cos2pi: worst {:.3} ulp at u2 = {}·2⁻²⁴", worst.0, worst.1);
    assert!(worst.0 <= 2.0, "{worst:?}");
    assert_eq!(peak, 1.0, "never outside [−1, 1]");
}

#[test]
fn gaussian_stays_inside_the_declared_bound_for_every_pair_of_uniforms() {
    // |g| = fl(radius · c) and rounding is monotone, so the largest radius
    // times the largest |c| bounds all 2⁴⁸ pairs.
    let mut radius = 0.0f32;
    for n in 1..=GRID_POINTS {
        let r = (-2.0 * math::ln(n as f32 * GRID)).sqrt();
        assert!(r >= 0.0 || n == GRID_POINTS, "radius at u1 = {n}·2⁻²⁴: {r}");
        radius = radius.max(r);
    }
    let mut c = 0.0f32;
    for n in 0..GRID_POINTS {
        c = c.max(math::cos2pi(n as f32 * GRID).abs());
    }
    assert!(radius * c < GAUSSIAN_ABS_BOUND, "{radius} · {c}");
    // The bound is nearly attained, at the smallest u1, and the transform
    // of grid uniforms is what the field evaluates.
    assert_eq!(radius, (-2.0 * math::ln(GRID)).sqrt());
    assert!(math::gaussian_of(GRID, 0.0) > 5.7);
    for n in (0..GRID_POINTS).step_by(4099) {
        let z = math::gaussian_of(GRID, n as f32 * GRID);
        assert!(z.abs() < GAUSSIAN_ABS_BOUND);
    }
    let key = stream_key(1, StreamTag::PosteriorNoise, 2, 3);
    for i in 0..1000 {
        let (u1, u2) = math::gaussian_uniform_pair(key, i);
        assert!((GRID..=1.0).contains(&u1) && (0.0..1.0).contains(&u2));
        assert_eq!(
            math::gaussian(key, i).to_bits(),
            math::gaussian_of(u1, u2).to_bits()
        );
    }
}

const DRAWS: usize = 1 << 22;

#[test]
fn moments_kurtosis_and_tail_match_the_standard_normal() {
    let key = stream_key(7, StreamTag::PosteriorNoise, 3, 11);
    let mut xs = vec![0.0f32; DRAWS];
    math::gaussian_slice(key, 0, &mut xs);
    let n = DRAWS as f64;
    let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / n;
    let central = |p: i32| xs.iter().map(|&x| (x as f64 - mean).powi(p)).sum::<f64>() / n;
    let (var, skew, kurt) = (
        central(2),
        central(3) / central(2).powf(1.5),
        central(4) / central(2).powi(2),
    );
    let tail = xs.iter().filter(|x| x.abs() > 4.0).count() as f64;
    eprintln!("mean {mean:.5} var {var:.5} skew {skew:.5} kurt {kurt:.5} tail {tail}");
    // Standard errors over n draws: 1/√n, √(2/n), √(6/n), √(24/n); five of each.
    assert!(mean.abs() < 5.0 / n.sqrt(), "mean {mean}");
    assert!((var - 1.0).abs() < 5.0 * (2.0 / n).sqrt(), "variance {var}");
    assert!(skew.abs() < 5.0 * (6.0 / n).sqrt(), "skewness {skew}");
    assert!(
        (kurt - 3.0).abs() < 5.0 * (24.0 / n).sqrt(),
        "kurtosis {kurt}"
    );
    // P(|Z| > 4) = 6.334e-5: 265.7 expected, Poisson σ ≈ 16.3.
    let expected = 6.334e-5 * n;
    assert!(
        (tail - expected).abs() < 5.0 * expected.sqrt(),
        "4σ tail {tail}"
    );
    assert!(xs.iter().all(|x| x.abs() < GAUSSIAN_ABS_BOUND));
}

/// Pearson chi-square of `counts` against a flat expectation.
fn chi_square(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    let expected = total as f64 / counts.len() as f64;
    counts
        .iter()
        .map(|&c| (c as f64 - expected).powi(2) / expected)
        .sum()
}

#[test]
fn both_uniforms_fill_their_buckets_evenly_jointly_and_serially() {
    let key = stream_key(42, StreamTag::Data, 1, 0);
    let (mut n1, mut n2) = (Vec::with_capacity(DRAWS), Vec::with_capacity(DRAWS));
    for i in 0..DRAWS as u64 {
        let w = counter_word(key, i);
        let (a, b) = ((w >> 40) as usize, (w >> 16) as usize & 0x00ff_ffff);
        if i % 1024 == 0 {
            let (u1, u2) = math::gaussian_uniform_pair(key, i);
            assert_eq!((u1, u2), ((a + 1) as f32 * GRID, b as f32 * GRID));
        }
        n1.push(a);
        n2.push(b);
    }
    // Pearson chi-square of `cells` equiprobable cells: χ²(k − 1) has mean
    // k − 1 and variance 2(k − 1); five σ either way (too even is as wrong
    // as too lumpy).
    let check = |what: &str, cells: usize, cell_of: &dyn Fn(usize) -> usize, n: usize| {
        let mut counts = vec![0u64; cells];
        (0..n).for_each(|i| counts[cell_of(i)] += 1);
        let (x, dof) = (chi_square(&counts), (cells - 1) as f64);
        eprintln!("chi-square {what}: {x:.1} on {dof} dof");
        assert!((x - dof).abs() < 5.0 * (2.0 * dof).sqrt(), "{what}: {x}");
    };
    check("u1", 256, &|i| n1[i] >> 16, DRAWS);
    check("u2", 256, &|i| n2[i] >> 16, DRAWS);
    check("u1 low byte", 256, &|i| n1[i] & 0xff, DRAWS);
    check("u2 low byte", 256, &|i| n2[i] & 0xff, DRAWS);
    check(
        "(u1, u2)",
        4096,
        &|i| (n1[i] >> 18) * 64 + (n2[i] >> 18),
        DRAWS,
    );
    // Serial pairs: element i against element i + lag, each uniform with
    // itself and with the other (784 is the next sample's same pixel).
    for lag in [1usize, 2, 8, 784] {
        let n = DRAWS - lag;
        for (what, a, b) in [("u1", &n1, &n1), ("u2", &n2, &n2), ("u1→u2", &n1, &n2)] {
            let pair = |i: usize| (a[i] >> 18) * 64 + (b[i + lag] >> 18);
            check(&format!("{what} at lag {lag}"), 4096, &pair, n);
            // The step between neighbours, which a counter that is mixed
            // too little leaves nearly constant.
            let step = |i: usize| (b[i + lag].wrapping_sub(a[i]) & 0x00ff_ffff) >> 12;
            check(&format!("{what} step at lag {lag}"), 4096, &step, n);
        }
    }
}

#[test]
fn every_address_bit_flips_every_uniform_bit_half_the_time() {
    // Strict avalanche over the 48 bits the uniforms read: flip one bit of
    // the key or of the index, count how often each output bit flips.
    const PAIRS: u64 = 1 << 13;
    let mut flips = vec![[0u32; 48]; 128];
    for n in 0..PAIRS {
        let key = stream_key(n, StreamTag::Data, n >> 3, n * n);
        // Indices as the callers form them: small, and the far corners.
        let i = match n % 4 {
            0 => n,
            1 => n * 101_770,
            2 => counter_word(n, 1),
            _ => u64::MAX - n,
        };
        let w = counter_word(key, i);
        for (bit, row) in flips.iter_mut().enumerate() {
            let flipped = if bit < 64 {
                counter_word(key ^ 1 << bit, i)
            } else {
                counter_word(key, i ^ 1 << (bit - 64))
            };
            let diff = (w ^ flipped) >> 16;
            for (out, count) in row.iter_mut().enumerate() {
                *count += (diff >> out & 1) as u32;
            }
        }
    }
    // Binomial(n, ½): σ = ½√n; 6 144 cells, so five and a half σ.
    let (half, limit) = (PAIRS as f64 / 2.0, 5.5 * (PAIRS as f64).sqrt() / 2.0);
    for (bit, row) in flips.iter().enumerate() {
        for (out, &count) in row.iter().enumerate() {
            assert!(
                (count as f64 - half).abs() < limit,
                "{} bit {} → word bit {}: flipped {count} of {PAIRS}",
                if bit < 64 { "key" } else { "index" },
                bit % 64,
                out + 16
            );
        }
    }
}

/// Sample correlation of two equally long series.
fn correlation(a: &[f32], b: &[f32]) -> f64 {
    let n = a.len() as f64;
    let mean = |v: &[f32]| v.iter().map(|&x| x as f64).sum::<f64>() / n;
    let (ma, mb) = (mean(a), mean(b));
    let (mut sab, mut saa, mut sbb) = (0.0, 0.0, 0.0);
    for (&x, &y) in a.iter().zip(b) {
        let (dx, dy) = (x as f64 - ma, y as f64 - mb);
        sab += dx * dy;
        saa += dx * dx;
        sbb += dy * dy;
    }
    sab / (saa * sbb).sqrt()
}

fn field(key: u64, start: u64, n: usize) -> Vec<f32> {
    let mut xs = vec![0.0f32; n];
    math::gaussian_slice(key, start, &mut xs);
    xs
}

#[test]
fn neighbours_are_uncorrelated_along_every_axis_of_the_address() {
    const N: usize = 1 << 18;
    // Under independence r·√N is standard normal; five σ.
    let limit = 5.0 / (N as f64).sqrt();
    let check = |what: &str, a: &[f32], b: &[f32]| {
        let r = correlation(a, b);
        assert!(r.abs() < limit, "{what}: r = {r:.5} (limit {limit:.5})");
        // Second moments too: a shared radius with independent angles is
        // uncorrelated but not independent.
        let sq = |v: &[f32]| v.iter().map(|x| x * x).collect::<Vec<_>>();
        let r2 = correlation(&sq(a), &sq(b));
        assert!(r2.abs() < limit, "{what}: r(x², y²) = {r2:.5}");
    };
    let key = |round, client| stream_key(42, StreamTag::PosteriorNoise, round, client);
    let base = field(key(3, 5), 0, N + 784);
    for lag in [1, 2, 8, 784] {
        check(
            &format!("index i vs i+{lag}"),
            &base[..N],
            &base[lag..lag + N],
        );
    }
    check("client c vs c+1", &base[..N], &field(key(3, 6), 0, N));
    check("round r vs r+1", &base[..N], &field(key(4, 5), 0, N));
    check(
        "seed s vs s+1",
        &base[..N],
        &field(stream_key(43, StreamTag::PosteriorNoise, 3, 5), 0, N),
    );
    // A lazy client's samples: same key, consecutive blocks of 784.
    check("sample i vs i+1", &base[..784 * 300], &base[784..784 * 301]);

    const TAGS: [StreamTag; 15] = [
        StreamTag::Data,
        StreamTag::Partition,
        StreamTag::ClientSampling,
        StreamTag::Pattern,
        StreamTag::PosteriorNoise,
        StreamTag::Init,
        StreamTag::Batch,
        StreamTag::Baseline,
        StreamTag::Compress,
        StreamTag::SimProfile,
        StreamTag::SimPolicy,
        StreamTag::SimJitter,
        StreamTag::Scenario,
        StreamTag::Adversary,
        StreamTag::Churn,
    ];
    const M: usize = 1 << 15;
    let per_tag: Vec<Vec<f32>> = TAGS
        .iter()
        .map(|&tag| field(stream_key(42, tag, 3, 5), 0, M))
        .collect();
    // 105 pairs: six σ keeps the family-wise level where one pair's five is.
    let limit = 6.0 / (M as f64).sqrt();
    for (a, xs) in per_tag.iter().enumerate() {
        for (b, ys) in per_tag.iter().enumerate().skip(a + 1) {
            let r = correlation(xs, ys);
            assert!(
                r.abs() < limit,
                "{:?} vs {:?}: r = {r:.5}",
                TAGS[a],
                TAGS[b]
            );
        }
    }
}

#[test]
fn a_million_stream_tuples_have_a_million_keys() {
    let tags = [
        StreamTag::Data,
        StreamTag::PosteriorNoise,
        StreamTag::Batch,
        StreamTag::Churn,
    ];
    let mut keys = Vec::with_capacity(1_000_000);
    for seed in [0u64, 1, 7, 42, u64::MAX] {
        for tag in tags {
            for round in 0..50u64 {
                for client in 0..1000u64 {
                    keys.push(stream_key(seed, tag, round, client));
                }
            }
        }
    }
    assert_eq!(keys.len(), 1_000_000);
    // Distinct keys, and distinct first words: no two tuples open the same
    // field.
    let mut first: Vec<u64> = keys.iter().map(|&k| counter_word(k, 0)).collect();
    for v in [&mut keys, &mut first] {
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 1_000_000);
    }
}
