//! The keyed order-statistic kernels ≡ their executable specification
//! (`support/order_stat_spec.rs`: stable `total_cmp` sort, then fold), bit
//! for bit, with `f32` and `f64` weights: columns of 0..=300 participants
//! drawn heavy in ties, ±0, NaNs of both signs with varied payloads
//! (signalling ones included), ±∞ and subnormals, every trim depth up to
//! and past the emptying boundary `2k ≥ m`, and all-equal columns with
//! distinct weights, where a single tie placed out of column order
//! changes the fold.

#[path = "support/order_stat_spec.rs"]
mod spec;

use fedbiad_tensor::stats::{
    key_pos, key_value, keyed_lower_median, keyed_trimmed_sum, order_key, OrderWeight,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One column value, biased toward the encodings a total order has to get
/// right.
fn value(rng: &mut StdRng) -> f32 {
    let sign = if rng.gen::<bool>() { 0x8000_0000u32 } else { 0 };
    const TIES: [f32; 3] = [1.0, 0.5, 3.0];
    let bits: u32 = match rng.gen_range(0u32..12) {
        0 => 0,                                              // ±0
        1 => 0x7F80_0000 | rng.gen_range(1u32..0x0080_0000), // NaN, any payload
        2 => 0x7FC0_0000,                                    // the default quiet NaN
        3 => 0x7F80_0000,                                    // ±∞
        4 => rng.gen_range(1u32..0x0080_0000),               // subnormal
        5..=7 => TIES[rng.gen_range(0..TIES.len())].to_bits(),
        _ => rng.gen_range(1e-3f32..4.0).to_bits(),
    };
    f32::from_bits(sign | bits)
}

/// Bits of an estimator output, so NaN results compare by encoding.
trait Bits {
    fn bits(self) -> u64;
}

impl Bits for f32 {
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

/// Every trim depth `0..=⌈m/2⌉` and the median of one column: the keyed
/// kernels against the spec on the same participants.
fn assert_column_matches_spec<W: OrderWeight + Bits>(values: &[f32], weights: &[W]) {
    let m = values.len();
    let mut sorted: Vec<(f32, W)> = values
        .iter()
        .copied()
        .zip(weights.iter().copied())
        .collect();
    spec::sort_weighted_by_value(&mut sorted);
    let keys: Vec<u64> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| order_key(v, i))
        .collect();
    for k in 0..=m.div_ceil(2) {
        let want = (2 * k < m).then(|| spec::trimmed_weighted_sum(&sorted, k));
        let got = keyed_trimmed_sum(&mut keys.clone(), k, |i| weights[i]);
        assert_eq!(
            got.map(|(n, d)| (n.bits(), d.bits())),
            want.map(|(n, d)| (n.bits(), d.bits())),
            "trimmed sum, m = {m}, k = {k}, values {values:?}"
        );
    }
    let want = (m > 0).then(|| spec::weighted_lower_median(&sorted));
    let got = keyed_lower_median(&mut keys.clone(), |i| weights[i]);
    assert_eq!(
        got.map(f32::to_bits),
        want.map(f32::to_bits),
        "median, m = {m}, values {values:?}"
    );
}

proptest! {
    #[test]
    fn keyed_kernels_equal_the_stable_sort_spec(m in 0usize..301, seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<f32> = (0..m).map(|_| value(&mut rng)).collect();
        // Positive weights, as the engines validate them; the f64 column
        // is the staleness merge's |D|/√(1+τ).
        let w32: Vec<f32> = (0..m).map(|_| rng.gen_range(1u32..80) as f32).collect();
        let w64: Vec<f64> = w32
            .iter()
            .map(|&w| w as f64 / (1.0 + rng.gen_range(0u32..4) as f64).sqrt())
            .collect();
        assert_column_matches_spec(&values, &w32);
        assert_column_matches_spec(&values, &w64);
    }
}

#[test]
fn all_equal_columns_fold_in_column_order() {
    let mut rng = StdRng::seed_from_u64(26);
    let ties = [
        1.0f32,
        -0.0,
        0.0,
        f32::INFINITY,
        f32::from_bits(0xFFC0_0001), // a negative NaN with a payload
        f32::from_bits(0x0000_0001), // the smallest subnormal
    ];
    for m in 0..=300 {
        let v = ties[m % ties.len()];
        let values = vec![v; m];
        // Distinct weights spanning magnitudes, so both Σw and Σwv depend
        // on which participants survive and on the order they are folded.
        let w32: Vec<f32> = (0..m).map(|_| rng.gen_range(0.001f32..1000.0)).collect();
        let w64: Vec<f64> = w32.iter().map(|&w| w as f64 * 1.000_000_1).collect();
        assert_column_matches_spec(&values, &w32);
        assert_column_matches_spec(&values, &w64);
    }
}

#[test]
fn a_tie_out_of_column_order_changes_the_result() {
    // The sensitivity the tie test relies on: ten equal values with
    // weights 1..=10, trimmed by 3 per tail. Ranking the ties in a rotated
    // column order (participant p at rank (p + 1) mod 10) keeps other
    // survivors, and the denominator differs.
    let weights: Vec<f32> = (0..10).map(|i| 1.0 + i as f32).collect();
    let mut column: Vec<u64> = (0..10).map(|p| order_key(2.0, p)).collect();
    let mut rotated: Vec<u64> = (0..10).map(|p| order_key(2.0, (p + 1) % 10)).collect();
    let (_, d_col) = keyed_trimmed_sum(&mut column, 3, |p| weights[p]).unwrap();
    let (_, d_rot) = keyed_trimmed_sum(&mut rotated, 3, |r| weights[(r + 9) % 10]).unwrap();
    assert_eq!(d_col, 4.0 + 5.0 + 6.0 + 7.0);
    assert_eq!(d_rot, 3.0 + 4.0 + 5.0 + 6.0);
}

#[test]
fn keys_sort_like_the_stable_total_order_and_keep_the_bits() {
    let mut rng = StdRng::seed_from_u64(7);
    let values: Vec<f32> = (0..4096).map(|_| value(&mut rng)).collect();
    let mut stable: Vec<usize> = (0..values.len()).collect();
    stable.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut keys: Vec<u64> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| order_key(v, i))
        .collect();
    keys.sort_unstable();
    let keyed: Vec<usize> = keys.iter().map(|&k| key_pos(k)).collect();
    assert_eq!(keyed, stable);
    for &k in &keys {
        assert_eq!(key_value(k).to_bits(), values[key_pos(k)].to_bits());
    }
    // Every sign/exponent/payload boundary round-trips exactly.
    for bits in [
        0u32,
        0x8000_0000,
        0x0000_0001,
        0x8000_0001,
        0x7F7F_FFFF,
        0xFF7F_FFFF,
        0x7F80_0000,
        0xFF80_0000,
        0x7F80_0001,
        0xFF80_0001,
        0x7FFF_FFFF,
        0xFFFF_FFFF,
    ] {
        let key = order_key(f32::from_bits(bits), u32::MAX as usize);
        assert_eq!(key_value(key).to_bits(), bits);
        assert_eq!(key_pos(key), u32::MAX as usize);
    }
}
