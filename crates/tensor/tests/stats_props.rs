//! The keyed top-k (`stats::top_k_keys`) ≡ its executable specification
//! (`support/top_k_spec.rs`: the comparator over indices): the same set,
//! and — its keys sorted — the same rank order, on inputs heavy in ties,
//! with signed zeros, infinities, subnormals and NaNs of both signs and
//! varied payloads, at k ∈ {0, 1, n−1, n, n+5} and arbitrary k.

#[path = "support/top_k_spec.rs"]
mod spec;

use fedbiad_tensor::stats::{abs_rank, key_pos, top_k_keys, value_rank};
use proptest::prelude::*;

/// The selected indices in key order.
fn keyed(xs: &[f32], k: usize, rank: fn(f32) -> u32) -> Vec<usize> {
    let mut keys = top_k_keys(xs, k, rank);
    keys.sort_unstable();
    keys.iter().map(|&key| key_pos(key)).collect()
}

fn assert_matches_spec(xs: &[f32], k: usize) {
    prop_assert_eq!(
        keyed(xs, k, value_rank),
        spec::top_k_indices(xs, k),
        "{:?} k={}",
        xs,
        k
    );
    prop_assert_eq!(
        keyed(xs, k, abs_rank),
        spec::top_k_abs_indices(xs, k),
        "{:?} k={}",
        xs,
        k
    );
}

fn ks(n: usize) -> [usize; 5] {
    [0, 1, n.saturating_sub(1), n, n + 5]
}

proptest! {
    #[test]
    fn selection_top_k_equals_full_sort_under_heavy_ties(
        picks in prop::collection::vec(0usize..14, 0..60),
        k in 0usize..70,
    ) {
        // Fourteen values over up to 59 slots: most scores tie, −0.0 /
        // 0.0 tie under both scores and ±v under the magnitude, and the
        // NaNs (both signs, a signalling payload) rank last.
        const VALUES: [f32; 14] = [
            0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-30, 1e-45, -1e-45,
            f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN, f32::MAX,
        ];
        let mut xs: Vec<f32> = picks.iter().map(|&i| VALUES[i]).collect();
        if let Some(x) = xs.get_mut(3) {
            *x = f32::from_bits(0x7f80_0001);
        }
        assert_matches_spec(&xs, k);
        for k in ks(xs.len()) {
            assert_matches_spec(&xs, k);
        }
    }

    #[test]
    fn selection_top_k_equals_the_comparator_on_arbitrary_bits(
        bits in prop::collection::vec(0u32..u32::MAX, 0..300),
        k in 0usize..310,
    ) {
        let xs: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        assert_matches_spec(&xs, k);
        for k in ks(xs.len()) {
            assert_matches_spec(&xs, k);
        }
    }
}
