//! The top-k selection's executable specification: the comparator over
//! indices that `stats::top_k_keys` replaced. Indices of the `k` largest
//! values of `score(x)`, descending; ties go to the smaller index and a
//! NaN score ranks below every number. `k` is clamped to the length.
//!
//! `(score desc, NaN last, index asc)` is a strict total order over the
//! indices, so selecting the k-th and sorting only the k-prefix yields
//! exactly what a full sort would. Shared by `tests/stats_props.rs`, the
//! compressors' write-side properties and `bench_perf`'s reference sides.

#![allow(dead_code)]

use std::cmp::Ordering;

/// The comparator: `Less` when index `a` ranks before index `b`.
pub fn rank_cmp(xs: &[f32], score: impl Fn(f32) -> f32, a: usize, b: usize) -> Ordering {
    let (sa, sb) = (score(xs[a]), score(xs[b]));
    sb.partial_cmp(&sa)
        .unwrap_or_else(|| match (sa.is_nan(), sb.is_nan()) {
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            _ => Ordering::Equal,
        })
        .then(a.cmp(&b))
}

/// The top `k` indices under `score`, in rank order.
pub fn top_k_indices_by(xs: &[f32], k: usize, score: impl Fn(f32) -> f32) -> Vec<usize> {
    let k = k.min(xs.len());
    if k == 0 {
        return Vec::new();
    }
    let cmp = |a: &usize, b: &usize| rank_cmp(xs, &score, *a, *b);
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    if k < idx.len() {
        idx.select_nth_unstable_by(k - 1, cmp);
        idx.truncate(k);
    }
    idx.sort_unstable_by(cmp);
    idx
}

/// The top `k` indices by value, descending.
pub fn top_k_indices(xs: &[f32], k: usize) -> Vec<usize> {
    top_k_indices_by(xs, k, |v| v)
}

/// The top `k` indices by magnitude, descending.
pub fn top_k_abs_indices(xs: &[f32], k: usize) -> Vec<usize> {
    top_k_indices_by(xs, k, f32::abs)
}
