//! Property test for the selection-based top-k: on any NaN-free input —
//! heavy ties, signed zeros and infinities included — it returns exactly
//! the Vec the full-sort definition does.

use fedbiad_tensor::stats::{top_k_abs_indices, top_k_indices};
use proptest::prelude::*;

/// The definition: sort every index by (score desc, index asc), take k.
fn full_sort_top_k(xs: &[f32], k: usize, score: impl Fn(f32) -> f32) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| {
        score(xs[b])
            .partial_cmp(&score(xs[a]))
            .expect("NaN-free input")
            .then(a.cmp(&b))
    });
    idx.truncate(k);
    idx
}

proptest! {
    #[test]
    fn selection_top_k_equals_full_sort_under_heavy_ties(
        picks in prop::collection::vec(0usize..9, 0..60),
        k in 0usize..70,
    ) {
        // Nine distinct values over up to 59 slots: most scores tie, and
        // −0.0 / 0.0 tie with each other under both scores.
        const VALUES: [f32; 9] =
            [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-30, f32::INFINITY, f32::NEG_INFINITY];
        let xs: Vec<f32> = picks.iter().map(|&i| VALUES[i]).collect();
        prop_assert_eq!(top_k_indices(&xs, k), full_sort_top_k(&xs, k, |v| v));
        prop_assert_eq!(top_k_abs_indices(&xs, k), full_sort_top_k(&xs, k, f32::abs));
    }
}
