//! Reductions and order statistics.
//!
//! The p-quantile ([`quantile`]) is load-bearing for FedBIAD stage two: the
//! threshold λ_r^k is "the p-quantile of E^k" (paper §IV-D), and the top-k
//! selection ([`top_k_indices`]) drives DGC/STC sparsification.

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f32>() / xs.len() as f32
}

/// Population variance; 0.0 for slices shorter than 2.
pub fn variance(xs: &[f32]) -> f32 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / xs.len() as f32
}

/// The `q`-quantile (q ∈ \[0,1\]) with linear interpolation between order
/// statistics, matching the common "linear" convention. Panics on empty
/// input or q outside \[0,1\].
pub fn quantile(xs: &[f32], q: f32) -> f32 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "q must be in [0,1]");
    let mut sorted: Vec<f32> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f32;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f32;
        // Single-product form: monotone in `frac` under f32 rounding, unlike
        // `a*(1-frac) + b*frac` which can land a few ULPs outside [a, b].
        // The clamp covers the one remaining rounding case (a + (b-a) > b).
        (sorted[lo] + frac * (sorted[hi] - sorted[lo])).clamp(sorted[lo], sorted[hi])
    }
}

/// Index of the maximum element (first on ties). Panics on empty input.
pub fn argmax(xs: &[f32]) -> usize {
    assert!(!xs.is_empty(), "argmax of empty slice");
    let mut best = 0;
    let mut best_v = xs[0];
    for (i, &v) in xs.iter().enumerate().skip(1) {
        if v > best_v {
            best = i;
            best_v = v;
        }
    }
    best
}

/// Indices of the `k` largest values of `score(x)`, descending. Determinist
/// tie-break by smaller index; a NaN score ranks below every number (a
/// diverged client's non-finite delta reaches this through DGC/STC, so it
/// must not panic). `k` is clamped to the slice length.
///
/// `(score desc, NaN last, index asc)` is a strict total order over the
/// indices, so selecting the k-th element and sorting only the k-prefix
/// yields exactly the Vec a full sort would, in O(n + k log k).
pub fn top_k_indices_by(xs: &[f32], k: usize, score: impl Fn(f32) -> f32) -> Vec<usize> {
    use std::cmp::Ordering;
    let k = k.min(xs.len());
    if k == 0 {
        return Vec::new();
    }
    let cmp = |a: &usize, b: &usize| {
        let (sa, sb) = (score(xs[*a]), score(xs[*b]));
        sb.partial_cmp(&sa)
            .unwrap_or_else(|| match (sa.is_nan(), sb.is_nan()) {
                (true, false) => Ordering::Greater,
                (false, true) => Ordering::Less,
                _ => Ordering::Equal,
            })
            .then(a.cmp(b))
    };
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    if k < idx.len() {
        idx.select_nth_unstable_by(k - 1, cmp);
        idx.truncate(k);
    }
    idx.sort_unstable_by(cmp);
    idx
}

/// Indices of the `k` largest values, descending.
pub fn top_k_indices(xs: &[f32], k: usize) -> Vec<usize> {
    top_k_indices_by(xs, k, |v| v)
}

/// Indices of the `k` largest |values|, descending (magnitude top-k for
/// DGC/STC/FedMP).
pub fn top_k_abs_indices(xs: &[f32], k: usize) -> Vec<usize> {
    top_k_indices_by(xs, k, |v| v.abs())
}

// ---- weighted order statistics over total-order keys -----------------
//
// The robust aggregators (coordinate-wise trimmed mean and weighted
// median) are defined on a *stable* sort of a column's `(value, weight)`
// participants by `f32::total_cmp`, folded serially in that order. The
// kernels below compute exactly that without sorting pairs: each
// participant becomes one `u64` key, `order_key(v, pos)`, whose high half
// is the total-order image of `v`'s bits and whose low half is the
// participant's position in the column. The image is strictly monotone in
// `total_cmp` (−NaN < −∞ < … < −0 < +0 < … < +∞ < +NaN, payloads
// included), and positions are distinct, so the keys are distinct and
// their ascending order is `(total_cmp, position)` — which is precisely
// the order a stable sort of the column produces, ties and all. An
// *unstable* sort or selection of the keys therefore lands every
// participant where the stable sort would, and the value bits come back
// out of the key unchanged. The executable specification (stable sort,
// then fold) lives in `tests/support/order_stat_spec.rs`, and
// `tests/order_stat_props.rs` pins these kernels to it bit for bit.

/// A participant weight: `f32` for the sync engines, `f64` for the
/// staleness merge. `From<f32>` lifts a value (exactly) into the fold's
/// precision, so `w · W::from(v)` is the `w * v` / `w * v as f64` each
/// fold was written with.
pub trait OrderWeight:
    Copy
    + PartialOrd
    + core::ops::Add<Output = Self>
    + core::ops::Mul<Output = Self>
    + core::iter::Sum
    + From<f32>
{
}

impl<W> OrderWeight for W where
    W: Copy
        + PartialOrd
        + core::ops::Add<Output = W>
        + core::ops::Mul<Output = W>
        + core::iter::Sum
        + From<f32>
{
}

/// The sort key of the participant at column position `pos` with value
/// `v`: `v`'s bits mapped so that unsigned order is `f32::total_cmp`
/// order (negative values have all bits flipped, non-negative ones the
/// sign bit set), shifted above the position. Positions must fit in 32
/// bits (a column is one coordinate across a cohort).
#[inline]
pub fn order_key(v: f32, pos: usize) -> u64 {
    debug_assert!(
        pos <= u32::MAX as usize,
        "column position {pos} exceeds 32 bits"
    );
    let b = v.to_bits();
    let ord = b ^ (((b as i32 >> 31) as u32) | 0x8000_0000);
    (u64::from(ord) << 32) | pos as u64
}

/// The value bits a key was built from (the exact inverse of
/// [`order_key`]'s map — NaN payloads and signed zeros included).
#[inline]
pub fn key_value(key: u64) -> f32 {
    let ord = (key >> 32) as u32;
    f32::from_bits(ord ^ (!((ord as i32 >> 31) as u32) | 0x8000_0000))
}

/// The column position a key was built with.
#[inline]
pub fn key_pos(key: u64) -> usize {
    key as u32 as usize
}

/// Trimmed weighted sum of a keyed column: drop the `k` smallest and `k`
/// largest participants and return `(Σ wᵢvᵢ, Σ wᵢ)` over the survivors,
/// folded serially in ascending key order — bit for bit the fold over
/// `stable_sort(column)[k..m−k]`. `weight(pos)` is the weight of the
/// participant at column position `pos`. `None` when the trim empties the
/// column (`2k ≥ m`), which callers read as "no survivors".
///
/// Only the survivors are sorted: one selection puts the `k` smallest
/// below position `k`, a second one inside the tail puts the `m − 2k`
/// survivors next, and their `m − 2k` keys are sorted for the fold.
/// `keys` is left permuted.
pub fn keyed_trimmed_sum<W: OrderWeight>(
    keys: &mut [u64],
    k: usize,
    weight: impl Fn(usize) -> W,
) -> Option<(W, W)> {
    let m = keys.len();
    if 2 * k >= m {
        return None;
    }
    let keep = m - 2 * k;
    if k > 0 {
        keys.select_nth_unstable(k);
        // `keys[k]` is the smallest survivor; the other `keep − 1` are the
        // smallest of the `keep + k − 1` keys above it.
        if keep > 1 {
            keys[k + 1..].select_nth_unstable(keep - 2);
        }
    }
    let survivors = &mut keys[k..k + keep];
    survivors.sort_unstable();
    let mut num = W::from(0.0);
    let mut den = W::from(0.0);
    for &key in survivors.iter() {
        let w = weight(key_pos(key));
        num = num + w * W::from(key_value(key));
        den = den + w;
    }
    Some((num, den))
}

/// Weighted lower median of a keyed column: in ascending key order, the
/// first value whose cumulative weight reaches half the total (itself
/// summed in that order). With unit weights and odd `m` this is the
/// classic median; with even `m` the lower of the two middle values — the
/// estimate is always one of the inputs, which is what gives the median
/// its breakdown point. `None` for an empty column. `keys` is left sorted.
pub fn keyed_lower_median<W: OrderWeight>(
    keys: &mut [u64],
    weight: impl Fn(usize) -> W,
) -> Option<f32> {
    keys.sort_unstable();
    let total: W = keys.iter().map(|&key| weight(key_pos(key))).sum();
    let half = W::from(0.5) * total;
    let mut cum = W::from(0.0);
    for &key in keys.iter() {
        cum = cum + weight(key_pos(key));
        if cum >= half {
            return Some(key_value(key));
        }
    }
    keys.last().map(|&key| key_value(key))
}

/// `true` iff the top-`k` set of `logits` contains `target` (top-k accuracy,
/// the paper uses k=3 for next-word prediction and k=1 for images).
pub fn in_top_k(logits: &[f32], target: usize, k: usize) -> bool {
    debug_assert!(target < logits.len());
    let t = logits[target];
    // Count how many strictly exceed the target logit; ties resolved in the
    // target's favour only for earlier indices (deterministic, matches an
    // argsort-based implementation).
    let mut above = 0usize;
    for (i, &v) in logits.iter().enumerate() {
        if v > t || (v == t && i < target) {
            above += 1;
            if above >= k {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basic() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-6);
        assert!((variance(&xs) - 1.25).abs() < 1e-6);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn quantile_endpoints_and_median() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 3.0);
        assert_eq!(quantile(&xs, 0.5), 2.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((quantile(&xs, 0.25) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn argmax_first_on_tie() {
        assert_eq!(argmax(&[1.0, 5.0, 5.0, 2.0]), 1);
    }

    #[test]
    fn top_k_orders_and_breaks_ties_by_index() {
        let xs = [1.0, 9.0, 9.0, 3.0];
        assert_eq!(top_k_indices(&xs, 3), vec![1, 2, 3]);
        assert_eq!(top_k_abs_indices(&[-10.0, 2.0, 5.0], 2), vec![0, 2]);
    }

    #[test]
    fn top_k_clamps_k() {
        assert_eq!(top_k_indices(&[1.0], 5), vec![0]);
        assert_eq!(top_k_indices(&[2.0, 3.0], 2), vec![1, 0]);
        assert!(top_k_indices(&[1.0, 2.0], 0).is_empty());
        assert!(top_k_indices(&[], 3).is_empty());
    }

    #[test]
    fn top_k_ranks_nan_below_every_number() {
        // Regression: `.expect("NaN score")` panicked here.
        let xs = [
            f32::NAN,
            -1.0,
            f32::NAN,
            f32::INFINITY,
            0.5,
            f32::NEG_INFINITY,
        ];
        assert_eq!(top_k_indices(&xs, 6), vec![3, 4, 1, 5, 0, 2]);
        assert_eq!(top_k_indices(&xs, 2), vec![3, 4]);
        assert_eq!(top_k_abs_indices(&xs, 5), vec![3, 5, 1, 4, 0]);
        assert_eq!(top_k_indices(&[f32::NAN; 3], 2), vec![0, 1]);
    }

    /// Keys of a column, one per participant in column order.
    fn keys_of(values: &[f32]) -> Vec<u64> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| order_key(v, i))
            .collect()
    }

    #[test]
    fn sort_weighted_is_stable_and_total() {
        let values = [2.0, 1.0, 2.0, f32::NAN, -0.0, 0.0];
        let mut keys = keys_of(&values);
        keys.sort_unstable();
        // Ties keep column order (stability), −0 precedes +0, NaN sorts
        // last, and the value bits survive the key.
        let order: Vec<usize> = keys.iter().map(|&k| key_pos(k)).collect();
        assert_eq!(order, vec![4, 5, 1, 0, 2, 3]);
        for &k in &keys {
            assert_eq!(key_value(k).to_bits(), values[key_pos(k)].to_bits());
        }
    }

    #[test]
    fn trimmed_sum_drops_both_tails() {
        let (values, weights) = ([900.0, 1.0, -100.0, 3.0], [1.0f32, 2.0, 1.0, 2.0]);
        let (num, den) = keyed_trimmed_sum(&mut keys_of(&values), 1, |i| weights[i]).unwrap();
        assert_eq!(num, 2.0 * 1.0 + 2.0 * 3.0);
        assert_eq!(den, 4.0);
        // k = 0 is the plain weighted sum, folded in value order.
        let (num0, den0) = keyed_trimmed_sum(&mut keys_of(&values), 0, |i| weights[i]).unwrap();
        assert_eq!(num0, -100.0 + 2.0 + 6.0 + 900.0);
        assert_eq!(den0, 6.0);
    }

    #[test]
    fn trimmed_sum_reports_emptying_trims() {
        let w = |_| 1.0f32;
        assert_eq!(keyed_trimmed_sum(&mut keys_of(&[1.0, 2.0]), 1, w), None);
        assert_eq!(keyed_trimmed_sum(&mut keys_of(&[]), 0, w), None);
        assert_eq!(
            keyed_trimmed_sum(&mut keys_of(&[1.0, 2.0, 3.0]), 1, w),
            Some((2.0, 1.0))
        );
    }

    #[test]
    fn weighted_median_lower_convention() {
        let median = |values: &[f32], weights: &[f32]| {
            keyed_lower_median(&mut keys_of(values), |i| weights[i])
        };
        // Odd count, unit weights: the middle value.
        assert_eq!(median(&[9.0, 1.0, 2.0], &[1.0; 3]), Some(2.0));
        // Even count: the lower middle value, never an interpolation.
        assert_eq!(median(&[3.0, 9.0, 2.0, 1.0], &[1.0; 4]), Some(2.0));
        // Weights shift the mass: one heavy sample owns the median.
        assert_eq!(median(&[1.0, 5.0, 9.0], &[1.0, 10.0, 1.0]), Some(5.0));
        assert_eq!(median(&[7.0], &[3.0]), Some(7.0));
        assert_eq!(median(&[], &[]), None);
    }

    #[test]
    fn in_top_k_agrees_with_sorting() {
        let logits = [0.1, 0.9, 0.5, 0.7];
        assert!(in_top_k(&logits, 1, 1));
        assert!(!in_top_k(&logits, 2, 2)); // top-2 = {1,3}
        assert!(in_top_k(&logits, 2, 3));
        assert!(!in_top_k(&logits, 0, 3));
    }
}
