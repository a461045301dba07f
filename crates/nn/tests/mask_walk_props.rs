//! The flat-order coverage walk of `fedbiad_nn::mask` against the
//! per-element definition: for every mask kind over random shapes (bias-less
//! entries and one-column matrices included) and random flat ranges,
//! [`walk_runs`] visits exactly the positions `CoverageMask::{covers,
//! covers_bias}` accept, in [`ParamSet::flatten`] order, with their
//! kept-value ranks; [`KeptMeta::rank_at`] and the kept counts agree.

use fedbiad_nn::mask::{walk_runs, BitVec, FlatLayout, KeptMeta, Run};
use fedbiad_nn::params::{EntryMeta, LayerKind};
use fedbiad_nn::{CoverageMask, ModelMask, ParamSet};
use fedbiad_tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `len` random bits at a random density, all-clear and all-set included.
fn bits(rng: &mut StdRng, len: usize) -> BitVec {
    let density = [0.0, 1.0, 0.5, 0.2, 0.8][rng.gen_range(0..5usize)];
    let mut bv = BitVec::new(len, false);
    for i in 0..len {
        bv.set(i, rng.gen_bool(density));
    }
    bv
}

/// Entries of random shape, each under a random mask kind.
fn random_model(rng: &mut StdRng, entries: usize) -> (ParamSet, ModelMask) {
    let mut p = ParamSet::new();
    let mut per_entry = Vec::new();
    for e in 0..entries {
        let rows = rng.gen_range(1..7);
        let cols = if rng.gen_bool(0.25) {
            1
        } else {
            rng.gen_range(1..9)
        };
        let has_bias = rng.gen_bool(0.6);
        p.push_entry(
            Matrix::full(rows, cols, 0.0),
            has_bias.then(|| vec![0.0; rows]),
            EntryMeta::new(format!("w{e}"), LayerKind::DenseHidden, has_bias, true),
        );
        per_entry.push(match rng.gen_range(0..4) {
            0 => CoverageMask::Full,
            1 => CoverageMask::Rows(bits(rng, rows)),
            2 => CoverageMask::RowsCols {
                rows: bits(rng, rows),
                cols: bits(rng, cols),
            },
            _ => CoverageMask::Elements(bits(rng, rows * cols)),
        });
    }
    (p, ModelMask { per_entry })
}

/// The definition: covered flat positions, in flatten order, per entry.
fn covered_positions(p: &ParamSet, mask: &ModelMask) -> Vec<Vec<usize>> {
    let mut off = 0;
    let mut out = Vec::new();
    for (e, cov) in mask.per_entry.iter().enumerate() {
        let (m, bias_len) = (p.mat(e), p.bias(e).len());
        let mut here = Vec::new();
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                if cov.covers(r, c, m.cols()) {
                    here.push(off + r * m.cols() + c);
                }
            }
        }
        off += m.len();
        here.extend(
            (0..bias_len)
                .filter(|&r| cov.covers_bias(r))
                .map(|r| off + r),
        );
        off += bias_len;
        out.push(here);
    }
    out
}

proptest! {
    #[test]
    fn walk_and_counts_follow_covers_in_flatten_order(
        seed in 0u64..u64::MAX,
        entries in 1usize..5,
        cut in 0.0f64..1.0,
        span in 0.0f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (p, mask) = random_model(&mut rng, entries);
        let layout = FlatLayout::of(&p);
        let total = p.total_params();
        prop_assert_eq!(layout.total(), total);

        // Kept counts: per entry, matrix and bias apart, and in total.
        let per_entry = covered_positions(&p, &mask);
        let want: Vec<usize> = per_entry.concat();
        for (e, cov) in mask.per_entry.iter().enumerate() {
            let m = p.mat(e);
            let in_mat = per_entry[e].iter().filter(|&&i| i < layout.entry_range(e).start + m.len());
            prop_assert_eq!(cov.mat_kept(m.rows(), m.cols()), in_mat.count());
            prop_assert_eq!(
                cov.mat_kept(m.rows(), m.cols()) + cov.bias_kept(p.bias(e).len()),
                per_entry[e].len()
            );
            prop_assert_eq!(cov.entry_kept(&p, e), per_entry[e].len());
            if cov.is_row_granular() {
                for r in 0..m.rows() {
                    let whole = (0..m.cols()).all(|c| cov.covers(r, c, m.cols()));
                    prop_assert_eq!(cov.covers_row(r), whole);
                    prop_assert_eq!(cov.covers_row(r), cov.covers_bias(r));
                }
            }
        }
        let kmeta = KeptMeta::of(&mask.per_entry, &layout);
        prop_assert_eq!(mask.kept_params(&p), want.len());
        prop_assert_eq!(kmeta.total(), want.len());

        // Ranks: covered positions strictly before each position.
        for pos in 0..=total {
            let rank = want.partition_point(|&i| i < pos);
            prop_assert_eq!(kmeta.rank_at(pos, &mask.per_entry, &layout), rank, "pos {}", pos);
        }

        // The walk over a random range, and over the whole model.
        let start = (cut * total as f64) as usize;
        let len = (span * (total - start) as f64) as usize;
        for (start, len) in [(start, len), (0, total)] {
            let mut next = start;
            let mut got = Vec::new();
            walk_runs(&mask.per_entry, &layout, start, len, |run| {
                let (local, n) = match run {
                    Run::Covered { local, ki, n } => {
                        assert_eq!(ki, got.len(), "ki is the rank within the range");
                        got.extend(start + local..start + local + n);
                        (local, n)
                    }
                    Run::Dropped { local, n } => (local, n),
                };
                assert!(n > 0, "empty run");
                assert_eq!(start + local, next, "runs tile the range in order");
                next += n;
            });
            prop_assert_eq!(next, start + len);
            let in_range: Vec<usize> =
                want.iter().copied().filter(|&i| (start..start + len).contains(&i)).collect();
            prop_assert_eq!(got, in_range);
        }
    }
}
