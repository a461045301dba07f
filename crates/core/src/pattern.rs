//! Dropping patterns β ∈ Z_S^N (paper §III-C).
//!
//! A pattern is a binary vector over the J row units with exactly
//! `S_rows = ⌈(1−p)·J⌉` kept rows. Stage one samples patterns uniformly
//! from Z_S^N ([`DropPattern::sample_global`]); a per-entry quota sampler
//! ([`DropPattern::sample_per_entry`]) is provided for the ablation bench
//! (DESIGN.md §4.1). Stage two derives the pattern from the weight score
//! vector ([`DropPattern::from_scores`]): the rows above the p-quantile
//! threshold λ are kept — implemented as a deterministic top-S selection,
//! which equals the quantile rule up to tie-breaking.

use fedbiad_nn::mask::{BitVec, ModelMask};
use fedbiad_nn::ParamSet;
use fedbiad_tensor::stats;
use rand::Rng;

/// Number of kept rows for dropout rate `p` over `j` rows: ⌈(1−p)·J⌉,
/// clamped to [1, J].
pub fn keep_count(j: usize, p: f32) -> usize {
    assert!((0.0..1.0).contains(&p), "dropout rate must be in [0,1)");
    // Widen p to f64 *before* the subtraction so f32 representation error
    // (0.2f32 ≈ 0.20000000298) cannot push the ceil one row too high.
    let keep = (1.0 - p as f64) * j as f64;
    (keep.ceil() as usize).clamp(1, j)
}

/// A dropping pattern over the global row-unit space.
#[derive(Clone, Debug, PartialEq)]
pub struct DropPattern {
    /// β: bit j is `true` when row unit j is kept.
    pub beta: BitVec,
}

impl DropPattern {
    /// All rows kept (β = 1).
    pub fn full(j: usize) -> Self {
        Self {
            beta: BitVec::new(j, true),
        }
    }

    /// Number of kept rows.
    pub fn kept(&self) -> usize {
        self.beta.count_ones()
    }

    /// Row-unit count J.
    pub fn len(&self) -> usize {
        self.beta.len()
    }

    /// `true` when the pattern is empty (J = 0).
    pub fn is_empty(&self) -> bool {
        self.beta.is_empty()
    }

    /// Is row unit `j` kept?
    pub fn is_kept(&self, j: usize) -> bool {
        self.beta.get(j)
    }

    /// Uniform sample from Z_S^N: exactly `keep` of `j` rows kept
    /// (partial Fisher–Yates).
    pub fn sample_global(j: usize, keep: usize, rng: &mut impl Rng) -> Self {
        assert!(keep >= 1 && keep <= j, "keep out of range");
        let mut idx: Vec<usize> = (0..j).collect();
        for i in 0..keep {
            let pick = rng.gen_range(i..j);
            idx.swap(i, pick);
        }
        let mut beta = BitVec::new(j, false);
        for &r in &idx[..keep] {
            beta.set(r, true);
        }
        Self { beta }
    }

    /// Sample with forced-keep rows: all rows where `forced` is set are
    /// kept; the remaining `keep − |forced|` slots are drawn uniformly
    /// from the non-forced rows. Total kept = max(keep, |forced|).
    pub fn sample_global_forced(
        j: usize,
        keep: usize,
        forced: &BitVec,
        rng: &mut impl Rng,
    ) -> Self {
        assert_eq!(forced.len(), j);
        let n_forced = forced.count_ones();
        let free: Vec<usize> = (0..j).filter(|&r| !forced.get(r)).collect();
        let draw = keep.saturating_sub(n_forced).min(free.len());
        let mut idx = free;
        for i in 0..draw {
            let pick = rng.gen_range(i..idx.len());
            idx.swap(i, pick);
        }
        let mut beta = forced.clone();
        for &r in &idx[..draw] {
            beta.set(r, true);
        }
        Self { beta }
    }

    /// Per-entry quota sample: every droppable matrix independently keeps
    /// ⌈(1−p)·units⌉ of its row units (ablation alternative to the global
    /// quota).
    pub fn sample_per_entry(params: &ParamSet, p: f32, rng: &mut impl Rng) -> Self {
        let j = params.num_row_units();
        let mut beta = BitVec::new(j, false);
        for e in 0..params.num_entries() {
            if !params.meta(e).droppable {
                continue;
            }
            let units = params.entry_units(e);
            let keep = keep_count(units, p);
            let local = Self::sample_global(units, keep, rng);
            for u in 0..units {
                if local.is_kept(u) {
                    let gj = params.row_unit_index(e, u).expect("droppable");
                    beta.set(gj, true);
                }
            }
        }
        Self { beta }
    }

    /// Stage-two pattern from the weight score vector E^k: keep the `keep`
    /// highest-scoring rows (ties broken toward lower index). Equivalent to
    /// the paper's "score > λ (p-quantile of E^k)" rule with a
    /// deterministic tie-break that guarantees exactly S kept rows.
    pub fn from_scores(scores: &[f32], keep: usize) -> Self {
        let j = scores.len();
        assert!(keep >= 1 && keep <= j);
        let mut beta = BitVec::new(j, false);
        for key in stats::top_k_keys(scores, keep, stats::value_rank) {
            beta.set(stats::key_pos(key), true);
        }
        Self { beta }
    }

    /// [`DropPattern::from_scores`] with forced-keep rows: forced rows are
    /// always kept; the rest of the budget goes to the highest-scoring
    /// non-forced rows.
    pub fn from_scores_forced(scores: &[f32], keep: usize, forced: &BitVec) -> Self {
        let j = scores.len();
        assert_eq!(forced.len(), j);
        let n_forced = forced.count_ones();
        let mut beta = forced.clone();
        let budget = keep.saturating_sub(n_forced);
        if budget > 0 {
            // Rank non-forced rows only (a NaN score ranks last).
            let mut keys: Vec<u64> = (0..j)
                .filter(|&r| !forced.get(r))
                .map(|r| stats::top_key(stats::value_rank(scores[r]), r))
                .collect();
            stats::select_top_keys(&mut keys, budget);
            for key in keys {
                beta.set(stats::key_pos(key), true);
            }
        }
        Self { beta }
    }

    /// Translate to per-entry coverage for a [`ParamSet`].
    pub fn to_mask(&self, params: &ParamSet) -> ModelMask {
        ModelMask::from_row_pattern(params, &self.beta)
    }

    /// β expanded to matrix rows, the layout the θ sampler
    /// ([`crate::spike_slab::sample_theta_into`]) walks: `table[e][r]` is
    /// `true` when row `r` of entry `e` belongs to a kept unit. Every row
    /// of a non-droppable entry is kept.
    pub fn rows_kept(&self, params: &ParamSet) -> Vec<Vec<bool>> {
        (0..params.num_entries())
            .map(|e| {
                let mut rows = vec![true; params.mat(e).rows()];
                if params.meta(e).droppable {
                    for u in 0..params.entry_units(e) {
                        let j = params.row_unit_index(e, u).expect("droppable");
                        if !self.is_kept(j) {
                            for r in params.unit_rows(e, u) {
                                rows[r] = false;
                            }
                        }
                    }
                }
                rows
            })
            .collect()
    }

    /// Zero the gradient rows of dropped units (eq. (7): only non-dropped
    /// rows update U).
    pub fn mask_grads(&self, grads: &mut ParamSet) {
        for j in 0..self.len() {
            if !self.is_kept(j) {
                grads.zero_row_unit(j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_tensor::rng::{stream, StreamTag};

    #[test]
    fn keep_count_edges() {
        assert_eq!(keep_count(10, 0.2), 8);
        assert_eq!(keep_count(10, 0.5), 5);
        assert_eq!(keep_count(10, 0.99), 1);
        assert_eq!(keep_count(3, 0.5), 2); // ceil(1.5)
        assert_eq!(keep_count(1, 0.5), 1);
    }

    #[test]
    fn global_sample_has_exact_cardinality() {
        let mut rng = stream(1, StreamTag::Pattern, 0, 0);
        for _ in 0..20 {
            let p = DropPattern::sample_global(100, 37, &mut rng);
            assert_eq!(p.kept(), 37);
            assert_eq!(p.len(), 100);
        }
    }

    #[test]
    fn global_sample_is_roughly_uniform_over_rows() {
        let mut rng = stream(2, StreamTag::Pattern, 0, 0);
        let mut counts = [0u32; 50];
        let trials = 2000;
        for _ in 0..trials {
            let p = DropPattern::sample_global(50, 25, &mut rng);
            for (j, c) in counts.iter_mut().enumerate() {
                if p.is_kept(j) {
                    *c += 1;
                }
            }
        }
        // Expected keep frequency 0.5 ± a few sigma.
        for (j, &c) in counts.iter().enumerate() {
            let f = c as f32 / trials as f32;
            assert!((f - 0.5).abs() < 0.06, "row {j} freq {f}");
        }
    }

    #[test]
    fn from_scores_keeps_top_rows() {
        let scores = [5.0, 1.0, 9.0, 3.0];
        let p = DropPattern::from_scores(&scores, 2);
        assert!(p.is_kept(2) && p.is_kept(0));
        assert!(!p.is_kept(1) && !p.is_kept(3));
    }

    #[test]
    fn from_scores_ties_break_deterministically() {
        let scores = [1.0, 1.0, 1.0, 1.0];
        let a = DropPattern::from_scores(&scores, 2);
        let b = DropPattern::from_scores(&scores, 2);
        assert_eq!(a, b);
        assert!(a.is_kept(0) && a.is_kept(1));
    }

    #[test]
    fn per_entry_sample_honours_quotas() {
        use fedbiad_nn::params::{EntryMeta, LayerKind};
        use fedbiad_tensor::Matrix;
        let mut params = ParamSet::new();
        params.push_entry(
            Matrix::zeros(10, 3),
            None,
            EntryMeta::new("a", LayerKind::DenseHidden, false, true),
        );
        params.push_entry(
            Matrix::zeros(4, 3),
            None,
            EntryMeta::new("b", LayerKind::DenseOutput, false, true),
        );
        let mut rng = stream(3, StreamTag::Pattern, 0, 0);
        let p = DropPattern::sample_per_entry(&params, 0.5, &mut rng);
        let kept_a = (0..10).filter(|&r| p.is_kept(r)).count();
        let kept_b = (10..14).filter(|&r| p.is_kept(r)).count();
        assert_eq!(kept_a, 5);
        assert_eq!(kept_b, 2);
    }

    #[test]
    fn mask_grads_zeroes_dropped_rows_only() {
        use fedbiad_nn::params::{EntryMeta, LayerKind};
        use fedbiad_tensor::Matrix;
        let mut grads = ParamSet::new();
        grads.push_entry(
            Matrix::full(4, 2, 1.0),
            Some(vec![1.0; 4]),
            EntryMeta::new("w", LayerKind::DenseHidden, true, true),
        );
        let mut beta = BitVec::new(4, true);
        beta.set(2, false);
        let p = DropPattern { beta };
        p.mask_grads(&mut grads);
        assert_eq!(grads.mat(0).row(2), &[0.0, 0.0]);
        assert_eq!(grads.bias(0)[2], 0.0);
        assert_eq!(grads.mat(0).row(0), &[1.0, 1.0]);
    }
}
