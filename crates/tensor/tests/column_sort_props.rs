//! The column-batched order-statistic kernel (`stats::KeyTile`) ≡ the
//! per-column keyed kernels ≡ their executable specification
//! (`support/order_stat_spec.rs`), bit for bit:
//!
//! * every restricted Batcher network with `m ≤ 18` wires sorts, by the
//!   0–1 principle over all `2^m` inputs;
//! * each lane sorts like `sort_unstable`, for `m ∈ 0..=300` and 1 to 4
//!   lanes of unequal length, with keys just below the padding sentinel;
//! * each lane's trimmed sum (every depth, past `2k ≥ m` too) and weighted
//!   lower median equal `keyed_trimmed_sum` / `keyed_lower_median` and the
//!   stable-sort specification, with `f32` and `f64` weights, over NaNs of
//!   both signs with payloads, ±0, ±∞ and values repeated across
//!   positions;
//! * `push_columns` keys four adjacent columns of each participant as
//!   `order_key` does, up to a load that ends at the block's last value.

#[path = "support/order_stat_spec.rs"]
mod spec;

use fedbiad_tensor::stats::{
    keyed_lower_median, keyed_trimmed_sum, order_key, sort_network, KeyTile, OrderWeight, LANES,
    SENTINEL,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn every_restricted_network_sorts_all_zero_one_inputs() {
    for m in 0..=18usize {
        let net = sort_network(m);
        assert!(
            net.iter().all(|&(i, j)| i < j && (j as usize) < m),
            "m = {m}"
        );
        // Bit `b` of wire word `w` is input `t + b`'s bit `w`: 64 inputs
        // per pass, a comparator is an AND (min) and an OR (max).
        let inputs = 1u64 << m;
        let mut t = 0u64;
        while t < inputs {
            let live = (inputs - t).min(64);
            let mut wires: Vec<u64> = (0..m)
                .map(|w| (0..live).fold(0u64, |acc, b| acc | ((((t + b) >> w) & 1) << b)))
                .collect();
            for &(i, j) in &net {
                let (a, b) = (wires[i as usize], wires[j as usize]);
                wires[i as usize] = a & b;
                wires[j as usize] = a | b;
            }
            for w in 1..m {
                assert_eq!(
                    wires[w - 1] & !wires[w],
                    0,
                    "m = {m}: a 1 above a 0 at wires {}..={w}, inputs from {t}",
                    w - 1
                );
            }
            t += 64;
        }
    }
}

#[test]
fn networks_have_batchers_comparator_counts() {
    // (p² − p + 4)·2^(p−2) − 1 comparators on 2^p wires.
    for p in 2..=9u32 {
        let n = 1usize << p;
        let want = ((p * p - p + 4) as usize) * (1usize << (p - 2)) - 1;
        assert_eq!(sort_network(n).len(), want, "n = {n}");
    }
    assert!(sort_network(0).is_empty() && sort_network(1).is_empty());
    assert_eq!(sort_network(2), vec![(0, 1)]);
}

/// Lane lengths for a batch of `lanes` columns of at most `m`: the first
/// lane is full, the rest anywhere in `0..=m`.
fn lane_lens(rng: &mut StdRng, m: usize, lanes: usize) -> Vec<usize> {
    (0..lanes)
        .map(|l| if l == 0 { m } else { rng.gen_range(0..=m) })
        .collect()
}

/// Fill `tile` with `cols` (one key list per lane) through `push_if`,
/// with a dropped push (`keep = false`) before each kept one, which must
/// leave no trace.
fn fill(tile: &mut KeyTile, cols: &[Vec<u64>]) {
    tile.clear(cols.iter().map(Vec::len).max().unwrap_or(0) + 1);
    for (l, col) in cols.iter().enumerate() {
        for &key in col {
            tile.push_if(l, !key, false);
            tile.push_if(l, key, true);
        }
        assert_eq!(tile.len(l), col.len());
    }
}

#[test]
fn lanes_sort_like_sort_unstable() {
    let mut rng = StdRng::seed_from_u64(29);
    let mut tile = KeyTile::new();
    for m in 0..=300usize {
        for lanes in 1..=LANES {
            let cols: Vec<Vec<u64>> = lane_lens(&mut rng, m, lanes)
                .into_iter()
                .map(|len| {
                    (0..len)
                        .map(|_| match rng.gen_range(0u32..4) {
                            // Just below the padding, where a signed or
                            // off-by-one compare would misplace them.
                            0 => SENTINEL - rng.gen_range(1u64..=64),
                            // Either side of the sign bit the signed
                            // compare is shifted across.
                            1 => (1 << 63) ^ rng.gen_range(0u64..64),
                            _ => rng.gen(),
                        })
                        .collect()
                })
                .collect();
            fill(&mut tile, &cols);
            tile.sort();
            for (l, col) in cols.iter().enumerate() {
                let mut want = col.clone();
                want.sort_unstable();
                let got: Vec<u64> = tile.lane(l).collect();
                assert_eq!(got, want, "m = {m}, lanes = {lanes}, lane {l}");
            }
        }
    }
}

/// One column value, biased toward the encodings a total order has to get
/// right.
fn value(rng: &mut StdRng) -> f32 {
    let sign = if rng.gen::<bool>() { 0x8000_0000u32 } else { 0 };
    const TIES: [f32; 3] = [1.0, 0.5, 3.0];
    let bits: u32 = match rng.gen_range(0u32..12) {
        0 => 0,                                              // ±0
        1 => 0x7F80_0000 | rng.gen_range(1u32..0x0080_0000), // NaN, any payload
        2 => 0x7FFF_FFFF, // the top of the order: a key just below the sentinel
        3 => 0x7F80_0000, // ±∞
        4 => rng.gen_range(1u32..0x0080_0000), // subnormal
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

/// Every lane of a sorted tile against the keyed kernels and the spec:
/// each trim depth `0..=⌈len/2⌉ + 1`, and the median.
fn assert_lanes_match<W: OrderWeight + Bits>(
    tile: &KeyTile,
    values: &[Vec<f32>],
    weights: &[W],
    what: &str,
) {
    for (l, col) in values.iter().enumerate() {
        let m = col.len();
        let keys: Vec<u64> = col
            .iter()
            .enumerate()
            .map(|(i, &v)| order_key(v, i))
            .collect();
        let mut sorted: Vec<(f32, W)> = col.iter().copied().zip(weights.iter().copied()).collect();
        spec::sort_weighted_by_value(&mut sorted);
        let w = |i: usize| weights[i];
        for k in 0..=m.div_ceil(2) + 1 {
            let got = tile.trimmed_sum(l, k, w).map(|(n, d)| (n.bits(), d.bits()));
            let keyed = keyed_trimmed_sum(&mut keys.clone(), k, w);
            let want = (2 * k < m).then(|| spec::trimmed_weighted_sum(&sorted, k));
            assert_eq!(
                got,
                keyed.map(|(n, d)| (n.bits(), d.bits())),
                "{what}: lane {l}, m = {m}, k = {k}"
            );
            assert_eq!(
                got,
                want.map(|(n, d)| (n.bits(), d.bits())),
                "{what}: spec, lane {l}, m = {m}, k = {k}"
            );
        }
        let got = tile.lower_median(l, w).map(f32::to_bits);
        let keyed = keyed_lower_median(&mut keys.clone(), w).map(f32::to_bits);
        let want = (m > 0).then(|| spec::weighted_lower_median(&sorted).to_bits());
        assert_eq!(got, keyed, "{what}: median, lane {l}, m = {m}");
        assert_eq!(got, want, "{what}: median spec, lane {l}, m = {m}");
    }
}

#[test]
fn lane_folds_equal_the_keyed_kernels_and_the_spec() {
    let mut rng = StdRng::seed_from_u64(30);
    let mut tile = KeyTile::new();
    for m in 0..=300usize {
        for lanes in 1..=LANES {
            // Positive weights, as the engines validate them; the f64
            // column is the staleness merge's |D|/√(1+τ).
            let w32: Vec<f32> = (0..m).map(|_| rng.gen_range(1u32..80) as f32).collect();
            let w64: Vec<f64> = w32
                .iter()
                .map(|&w| w as f64 / (1.0 + rng.gen_range(0u32..4) as f64).sqrt())
                .collect();
            let values: Vec<Vec<f32>> = lane_lens(&mut rng, m, lanes)
                .into_iter()
                .map(|len| {
                    // One column in four repeats a single value, so every
                    // survivor is a tie and only the position order
                    // decides the fold.
                    let tie = rng.gen_range(0u32..4) == 0;
                    let v = value(&mut rng);
                    (0..len)
                        .map(|_| if tie { v } else { value(&mut rng) })
                        .collect()
                })
                .collect();
            let cols: Vec<Vec<u64>> = values
                .iter()
                .map(|col| {
                    col.iter()
                        .enumerate()
                        .map(|(i, &v)| order_key(v, i))
                        .collect()
                })
                .collect();
            fill(&mut tile, &cols);
            tile.sort();
            let what = format!("m = {m}, lanes = {lanes}");
            assert_lanes_match(&tile, &values, &w32, &what);
            assert_lanes_match(&tile, &values, &w64, &what);
        }
    }
}

#[test]
fn push_columns_keys_four_adjacent_columns_of_each_participant() {
    let mut rng = StdRng::seed_from_u64(31);
    let mut tile = KeyTile::new();
    for stride in [4usize, 5, 7, 64, 257] {
        for clients in [1usize, 2, 3, 63, 130] {
            let block: Vec<f32> = (0..clients * stride).map(|_| value(&mut rng)).collect();
            // The first and last four columns (the last load ends exactly
            // at the block's end) and one in between.
            for j0 in [0, (stride - 4) / 2, stride - 4] {
                let parts: Vec<usize> = (0..clients).filter(|_| rng.gen_bool(0.6)).collect();
                tile.clear(parts.len() + 1);
                tile.push_columns(&block, stride, j0, &parts);
                // One more key on a lane, as the median's pseudo
                // participant is appended.
                let extra = order_key(value(&mut rng), clients);
                tile.push_if(1, extra, true);
                for l in 0..LANES {
                    let mut want: Vec<u64> = parts
                        .iter()
                        .map(|&i| order_key(block[i * stride + j0 + l], i))
                        .collect();
                    if l == 1 {
                        want.push(extra);
                    }
                    assert!(
                        tile.lane(l).eq(want.iter().copied()),
                        "stride {stride}, lane {l}"
                    );
                }
                tile.sort();
                for l in 0..LANES {
                    let mut want: Vec<u64> = tile.lane(l).collect();
                    want.sort_unstable();
                    assert!(tile.lane(l).eq(want), "sorted, stride {stride}, lane {l}");
                }
            }
        }
    }
}
