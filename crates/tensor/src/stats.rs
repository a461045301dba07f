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

/// Stable in-place sort of weighted samples `(value, weight)` by value
/// under the IEEE total order (`f32::total_cmp`). Stability makes the
/// outcome a pure function of the input sequence even with tied values,
/// which is what lets the dense and streaming robust-aggregation engines
/// stay bit-identical: both feed the column in upload order and run this
/// exact sort. NaN values order last deterministically instead of
/// poisoning the comparison.
pub fn sort_weighted_by_value(pairs: &mut [(f32, f32)]) {
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
}

/// Weighted numerator and denominator of the trimmed range
/// `sorted[k..len−k]`: `(Σ wᵢvᵢ, Σ wᵢ)` folded serially in sorted order
/// (the robust engines' bit-exactness contract — both engines call this
/// one kernel). Panics if trimming exceeds the sample (`2k ≥ len`);
/// callers guard that case (it means "keep the previous value").
pub fn trimmed_weighted_sum(sorted: &[(f32, f32)], k: usize) -> (f32, f32) {
    assert!(
        2 * k < sorted.len(),
        "trim depth {k} empties {} samples",
        sorted.len()
    );
    let mut num = 0.0f32;
    let mut den = 0.0f32;
    for &(v, w) in &sorted[k..sorted.len() - k] {
        num += w * v;
        den += w;
    }
    (num, den)
}

/// Weighted lower median of value-sorted samples: the first value whose
/// cumulative weight reaches half the total weight. With unit weights and
/// odd `n` this is the classic median; with even `n` it is the lower of
/// the two middle values (no interpolation — the estimate is always one
/// of the inputs, the property that gives the median its breakdown
/// point). Panics on empty input.
pub fn weighted_lower_median(sorted: &[(f32, f32)]) -> f32 {
    assert!(!sorted.is_empty(), "weighted median of empty slice");
    let total: f32 = sorted.iter().map(|p| p.1).sum();
    let half = 0.5 * total;
    let mut cum = 0.0f32;
    for &(v, w) in sorted {
        cum += w;
        if cum >= half {
            return v;
        }
    }
    sorted[sorted.len() - 1].0
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

    #[test]
    fn sort_weighted_is_stable_and_total() {
        let mut pairs = vec![(2.0, 10.0), (1.0, 20.0), (2.0, 30.0), (f32::NAN, 40.0)];
        sort_weighted_by_value(&mut pairs);
        // Ties keep input order (stability), NaN sorts last.
        assert_eq!(pairs[0], (1.0, 20.0));
        assert_eq!(pairs[1], (2.0, 10.0));
        assert_eq!(pairs[2], (2.0, 30.0));
        assert!(pairs[3].0.is_nan());
    }

    #[test]
    fn trimmed_sum_drops_both_tails() {
        let sorted = [(-100.0, 1.0), (1.0, 2.0), (3.0, 2.0), (900.0, 1.0)];
        let (num, den) = trimmed_weighted_sum(&sorted, 1);
        assert_eq!(num, 2.0 * 1.0 + 2.0 * 3.0);
        assert_eq!(den, 4.0);
        // k = 0 is the plain weighted sum.
        let (num0, den0) = trimmed_weighted_sum(&sorted, 0);
        assert_eq!(num0, -100.0 + 2.0 + 6.0 + 900.0);
        assert_eq!(den0, 6.0);
    }

    #[test]
    #[should_panic(expected = "trim depth")]
    fn trimmed_sum_rejects_emptying_trims() {
        trimmed_weighted_sum(&[(1.0, 1.0), (2.0, 1.0)], 1);
    }

    #[test]
    fn weighted_median_lower_convention() {
        // Odd count, unit weights: the middle value.
        let s = [(1.0, 1.0), (2.0, 1.0), (9.0, 1.0)];
        assert_eq!(weighted_lower_median(&s), 2.0);
        // Even count: the lower middle value, never an interpolation.
        let s = [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (9.0, 1.0)];
        assert_eq!(weighted_lower_median(&s), 2.0);
        // Weights shift the mass: one heavy sample owns the median.
        let s = [(1.0, 1.0), (5.0, 10.0), (9.0, 1.0)];
        assert_eq!(weighted_lower_median(&s), 5.0);
        assert_eq!(weighted_lower_median(&[(7.0, 3.0)]), 7.0);
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
