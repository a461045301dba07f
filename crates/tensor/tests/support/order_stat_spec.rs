//! Executable specification of the robust aggregators' weighted order
//! statistics: stable-sort the column's `(value, weight)` participants by
//! `f32::total_cmp`, then fold. `fedbiad_tensor::stats::keyed_trimmed_sum`
//! and `keyed_lower_median` must reproduce it bit for bit. Kept out of the
//! library: `#[path]`-included by `tests/order_stat_props.rs` (the
//! property test) and by `bench_perf`'s `stats/trimmed_column_128` entry
//! (its reference side). Written against `std` alone so both can include
//! it; `W` is `f32` (sync engines) or `f64` (staleness merge).

#![allow(dead_code)]

use std::iter::Sum;
use std::ops::{Add, Mul};

/// Stable in-place sort of weighted samples by value under the IEEE total
/// order: ties keep column order, and NaN sorts by sign and payload
/// instead of poisoning the comparison.
pub fn sort_weighted_by_value<W>(pairs: &mut [(f32, W)]) {
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
}

/// `(Σ wᵢvᵢ, Σ wᵢ)` over `sorted[k..len−k]`, folded serially in sorted
/// order. Panics if the trim empties the sample (`2k ≥ len`).
pub fn trimmed_weighted_sum<W>(sorted: &[(f32, W)], k: usize) -> (W, W)
where
    W: Copy + Add<Output = W> + Mul<Output = W> + From<f32>,
{
    assert!(
        2 * k < sorted.len(),
        "trim depth {k} empties {} samples",
        sorted.len()
    );
    let mut num = W::from(0.0);
    let mut den = W::from(0.0);
    for &(v, w) in &sorted[k..sorted.len() - k] {
        num = num + w * W::from(v);
        den = den + w;
    }
    (num, den)
}

/// Weighted lower median of value-sorted samples: the first value whose
/// cumulative weight reaches half the total weight (summed in sorted
/// order). Panics on empty input.
pub fn weighted_lower_median<W>(sorted: &[(f32, W)]) -> f32
where
    W: Copy + PartialOrd + Add<Output = W> + Mul<Output = W> + Sum + From<f32>,
{
    assert!(!sorted.is_empty(), "weighted median of empty slice");
    let total: W = sorted.iter().map(|p| p.1).sum();
    let half = W::from(0.5) * total;
    let mut cum = W::from(0.0);
    for &(v, w) in sorted {
        cum = cum + w;
        if cum >= half {
            return v;
        }
    }
    sorted[sorted.len() - 1].0
}
