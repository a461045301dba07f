//! Property-based tests on the core invariants (proptest).

use fedbiad::compress::dgc::Dgc;
use fedbiad::compress::fedpaq::FedPaq;
use fedbiad::compress::signsgd::SignSgd;
use fedbiad::compress::stc::Stc;
use fedbiad::compress::{ClientState, Compressor};
use fedbiad::core::pattern::{keep_count, DropPattern};
use fedbiad::fl::aggregate::{aggregate_weights, dense_twin, AggSettings, RobustKind, ZeroMode};
use fedbiad::fl::upload::{Upload, UploadBody};
use fedbiad::nn::mask::BitVec;
use fedbiad::nn::mlp::MlpModel;
use fedbiad::nn::params::{EntryMeta, LayerKind, ParamSet};
use fedbiad::nn::{Model, ModelMask};
use fedbiad::tensor::rng::{stream, StreamTag};
use fedbiad::tensor::{stats, Matrix};
use proptest::prelude::*;
use rand::Rng;

fn small_params(rows: usize, cols: usize, vals: &[f32]) -> ParamSet {
    let mut p = ParamSet::new();
    p.push_entry(
        Matrix::from_vec(rows, cols, vals.to_vec()),
        None,
        EntryMeta::new("w", LayerKind::DenseHidden, false, true),
    );
    p
}

proptest! {
    /// Sampling from Z_S^N always yields exactly S kept rows, for any
    /// (J, p, seed).
    #[test]
    fn pattern_cardinality_is_exact(j in 1usize..300, p in 0.0f32..0.95, seed in 0u64..500) {
        let keep = keep_count(j, p);
        let mut rng = stream(seed, StreamTag::Pattern, 0, 0);
        let pat = DropPattern::sample_global(j, keep, &mut rng);
        prop_assert_eq!(pat.kept(), keep);
        prop_assert!(keep >= 1 && keep <= j);
    }

    /// Masked-weights upload bytes never exceed the dense model and always
    /// cover the kept parameters.
    #[test]
    fn upload_bytes_bounded(rows in 1usize..20, cols in 1usize..20, p in 0.0f32..0.9, seed in 0u64..100) {
        let vals = vec![1.0f32; rows * cols];
        let params = small_params(rows, cols, &vals);
        let j = params.num_row_units();
        let keep = keep_count(j, p);
        let mut rng = stream(seed, StreamTag::Pattern, 0, 0);
        let pat = DropPattern::sample_global(j, keep, &mut rng);
        let mask = pat.to_mask(&params);
        let bytes = mask.wire_bytes(&params);
        prop_assert!(bytes >= (keep * cols * 4) as u64);
        prop_assert!(bytes <= params.total_bytes() + (rows as u64).div_ceil(8));
    }

    /// Weighted aggregation of identical uploads is the identity
    /// (idempotence), for every zero-handling mode.
    #[test]
    fn aggregation_idempotent_on_identical_full_uploads(v in -5.0f32..5.0, w in 0.5f32..10.0) {
        let params = small_params(3, 2, &[v; 6]);
        let up = Upload::full_weights(params.clone());
        for mode in [ZeroMode::ZerosPull, ZeroMode::HoldersOnly, ZeroMode::StaleFill] {
            let mut g = small_params(3, 2, &[0.0; 6]);
            aggregate_weights(&mut g, &[(w, &up), (w, &up)], mode, Default::default()).unwrap();
            for (a, b) in g.flatten().iter().zip(params.flatten()) {
                prop_assert!((a - b).abs() < 1e-5, "{mode:?}");
            }
        }
    }

    /// Aggregated values always lie in the convex hull of the inputs
    /// (weights version of the averaging contract), holders mode.
    #[test]
    fn aggregation_stays_in_convex_hull(a in -3.0f32..3.0, b in -3.0f32..3.0, wa in 0.1f32..5.0, wb in 0.1f32..5.0) {
        let ua = Upload::full_weights(small_params(2, 2, &[a; 4]));
        let ub = Upload::full_weights(small_params(2, 2, &[b; 4]));
        let mut g = small_params(2, 2, &[0.0; 4]);
        aggregate_weights(&mut g, &[(wa, &ua), (wb, &ub)], ZeroMode::HoldersOnly, Default::default()).unwrap();
        let lo = a.min(b) - 1e-5;
        let hi = a.max(b) + 1e-5;
        for v in g.flatten() {
            prop_assert!(v >= lo && v <= hi);
        }
    }

    /// Error-feedback compressors conserve mass: decoded + residual =
    /// corrected input (per coordinate), every round.
    #[test]
    fn stc_conserves_mass(vals in proptest::collection::vec(-10.0f32..10.0, 4..64)) {
        let comp = Stc { keep_fraction: 0.25 };
        let mut st = ClientState::default();
        let mut rng = stream(1, StreamTag::Compress, 0, 0);
        // corrected = vals + residual(=0); decoded + residual' must equal it.
        let c = comp.compress(&mut st, &vals, 0, &mut rng);
        for (i, &v) in vals.iter().enumerate() {
            prop_assert!((c.decoded[i] + st.residual[i] - v).abs() < 1e-4);
        }
    }

    /// Quantisers are sign-preserving and bounded by the input range.
    #[test]
    fn fedpaq_bounded_and_sign_preserving(vals in proptest::collection::vec(-100.0f32..100.0, 1..64)) {
        let comp = FedPaq::paper();
        let mut st = ClientState::default();
        let mut rng = stream(2, StreamTag::Compress, 0, 0);
        let c = comp.compress(&mut st, &vals, 0, &mut rng);
        let max = vals.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (d, &v) in c.decoded.iter().zip(&vals) {
            prop_assert!(d.abs() <= max + 1e-4);
            // Quantisation may flip only values within half a step of zero.
            if v.abs() > max / 127.0 {
                prop_assert!(d.signum() == v.signum() || *d == 0.0);
            }
        }
    }

    /// SignSGD wire size is exactly ⌈n/8⌉ + 4 bytes.
    #[test]
    fn signsgd_wire_size_exact(n in 1usize..1000) {
        let comp = SignSgd::default();
        let mut st = ClientState::default();
        let mut rng = stream(3, StreamTag::Compress, 0, 0);
        let c = comp.compress(&mut st, &vec![1.0; n], 0, &mut rng);
        prop_assert_eq!(c.wire_bytes, (n as u64).div_ceil(8) + 4);
    }

    /// DGC's warm-up schedule is monotone non-increasing and ends at the
    /// configured fraction.
    #[test]
    fn dgc_warmup_monotone(keep in 0.0001f32..0.1, warmup in 0usize..8) {
        let d = Dgc { keep_fraction: keep, momentum: 0.9, warmup_rounds: warmup };
        let mut prev = f32::INFINITY;
        for r in 0..warmup + 3 {
            let k = d.keep_at(r);
            prop_assert!(k <= prev + 1e-9);
            prev = k;
        }
        prop_assert!((d.keep_at(warmup + 2) - keep).abs() < 1e-9);
    }

    /// Quantile is monotone in q and bounded by min/max.
    #[test]
    fn quantile_monotone(vals in proptest::collection::vec(-50.0f32..50.0, 1..64), q1 in 0.0f32..1.0, q2 in 0.0f32..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = stats::quantile(&vals, lo);
        let b = stats::quantile(&vals, hi);
        prop_assert!(a <= b + 1e-6);
        let mn = vals.iter().copied().fold(f32::INFINITY, f32::min);
        let mx = vals.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        prop_assert!(a >= mn - 1e-6 && b <= mx + 1e-6);
    }

    /// Coverage mask application is idempotent.
    #[test]
    fn mask_apply_idempotent(seed in 0u64..200, p in 0.1f32..0.9) {
        let model = MlpModel::new(6, 8, 3);
        let params = model.init_params(&mut stream(seed, StreamTag::Init, 0, 0));
        let j = params.num_row_units();
        let mut rng = stream(seed, StreamTag::Pattern, 1, 0);
        let pat = DropPattern::sample_global(j, keep_count(j, p), &mut rng);
        let mask = pat.to_mask(&params);
        let mut once = params.clone();
        mask.apply(&mut once);
        let mut twice = once.clone();
        mask.apply(&mut twice);
        prop_assert_eq!(once.flatten(), twice.flatten());
    }

    /// Robust estimators are permutation invariant: shuffling the upload
    /// list never changes the aggregate beyond f32 re-association noise.
    #[test]
    fn robust_aggregation_is_permutation_invariant(
        vals in proptest::collection::vec(-5.0f32..5.0, 3..9),
        seed in 0u64..64,
    ) {
        // Strictly increasing by construction: a value tie between
        // clients of different weights would legitimately resolve by
        // upload order, which is exactly what this test must not depend on.
        let mut acc = -5.0f32;
        let vals: Vec<f32> = vals
            .iter()
            .map(|v| {
                acc += 1e-3 + v.abs() * 0.2;
                acc
            })
            .collect();

        let uploads: Vec<(f32, Upload)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| ((i + 1) as f32, Upload::full_weights(small_params(2, 2, &[v; 4]))))
            .collect();
        let mut perm: Vec<usize> = (0..uploads.len()).collect();
        let mut rng = stream(seed, StreamTag::Scenario, 4, 0);
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        for robust in [
            RobustKind::TrimmedMean { trim_frac: 0.25 },
            RobustKind::CoordinateMedian,
        ] {
            let settings = AggSettings::default().with_robust(robust);
            let run = |order: &[usize]| {
                let ups: Vec<(f32, &Upload)> =
                    order.iter().map(|&i| (uploads[i].0, &uploads[i].1)).collect();
                let mut g = small_params(2, 2, &[0.0; 4]);
                aggregate_weights(&mut g, &ups, ZeroMode::HoldersOnly, settings).unwrap();
                g.flatten()
            };
            let forward: Vec<usize> = (0..uploads.len()).collect();
            for (a, b) in run(&forward).iter().zip(run(&perm)) {
                prop_assert!((a - b).abs() < 1e-4, "{robust:?}: {a} vs {b}");
            }
        }
    }

    /// `trim_frac = 0` routes to the weighted mean verbatim — **bitwise**,
    /// for arbitrary values and weights, on the streaming engine (wire
    /// uploads) and on the dense oracle (their twins), which must also
    /// agree with each other.
    #[test]
    fn trim_zero_is_the_weighted_mean_bitwise(
        vals in proptest::collection::vec(-5.0f32..5.0, 2..8),
    ) {
        let zeros = small_params(2, 2, &[0.0; 4]);
        let uploads: Vec<(f32, Upload)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| ((i + 1) as f32 * 0.7, Upload::full_weights(small_params(2, 2, &[v; 4]))))
            .collect();
        let twins: Vec<(f32, Upload)> = uploads
            .iter()
            .map(|(w, u)| (*w, dense_twin(&zeros, u).unwrap()))
            .collect();
        prop_assert!(uploads.iter().all(|(_, u)| u.wire_msg().is_some()));
        prop_assert!(twins.iter().all(|(_, u)| matches!(u.body, UploadBody::Dense(_))));
        let trim0 = AggSettings::default().with_robust(RobustKind::TrimmedMean { trim_frac: 0.0 });
        for mode in [ZeroMode::ZerosPull, ZeroMode::HoldersOnly, ZeroMode::StaleFill] {
            let run = |cohort: &[(f32, Upload)], settings: AggSettings| {
                let ups: Vec<(f32, &Upload)> = cohort.iter().map(|(w, u)| (*w, u)).collect();
                let mut g = zeros.clone();
                aggregate_weights(&mut g, &ups, mode, settings).unwrap();
                g.flatten()
            };
            let mean = run(&uploads, AggSettings::default());
            for other in [run(&uploads, trim0), run(&twins, AggSettings::default()), run(&twins, trim0)] {
                for (a, b) in mean.iter().zip(other) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?}", mode);
                }
            }
        }
    }

    /// Breakdown-point sanity: with `m` outliers at a huge value among
    /// `n` honest equal-weight clients, a trim depth `k ≥ m` (and the
    /// median, while `m` is a minority) keeps the aggregate inside the
    /// honest convex hull — while the mean is dragged far outside it.
    #[test]
    fn robust_estimators_absorb_outliers_the_mean_cannot(
        honest in proptest::collection::vec(-2.0f32..2.0, 5..9),
        m in 1usize..3,
        big in 1e6f32..1e8,
    ) {
        let n = honest.len();
        let uploads: Vec<(f32, Upload)> = honest
            .iter()
            .copied()
            .chain(std::iter::repeat_n(big, m))
            .map(|v| (1.0f32, Upload::full_weights(small_params(2, 2, &[v; 4]))))
            .collect();
        let ups: Vec<(f32, &Upload)> = uploads.iter().map(|(w, u)| (*w, u)).collect();
        // ⌊0.34·(n+m)⌋ ≥ 2 ≥ m for every generated size, and 2k < n+m.
        let k = (0.34 * (n + m) as f32).floor() as usize;
        prop_assert!(k >= m && 2 * k < n + m);
        let lo = honest.iter().copied().fold(f32::INFINITY, f32::min) - 1e-4;
        let hi = honest.iter().copied().fold(f32::NEG_INFINITY, f32::max) + 1e-4;
        let run = |robust: RobustKind| {
            let mut g = small_params(2, 2, &[0.0; 4]);
            aggregate_weights(
                &mut g,
                &ups,
                ZeroMode::HoldersOnly,
                AggSettings::default().with_robust(robust),
            )
            .unwrap();
            g.flatten()[0]
        };
        for robust in [
            RobustKind::TrimmedMean { trim_frac: 0.34 },
            RobustKind::CoordinateMedian,
        ] {
            let v = run(robust);
            prop_assert!(v >= lo && v <= hi, "{robust:?} left the honest hull: {v}");
        }
        let mean = run(RobustKind::Mean);
        prop_assert!(mean > hi + 1.0, "the mean should be poisoned: {mean}");
    }

    /// β → mask → kept-bit round trip: a row unit is kept in the mask iff
    /// β says so.
    #[test]
    fn beta_mask_round_trip(seed in 0u64..200) {
        let model = MlpModel::new(5, 7, 4);
        let params = model.init_params(&mut stream(seed, StreamTag::Init, 0, 0));
        let j = params.num_row_units();
        let mut rng = stream(seed, StreamTag::Pattern, 2, 0);
        let pat = DropPattern::sample_global(j, keep_count(j, 0.4), &mut rng);
        let mask = pat.to_mask(&params);
        for ju in 0..j {
            let (e, u) = params.row_unit(ju);
            let cols = params.mat(e).cols();
            prop_assert_eq!(mask.per_entry[e].covers(u, 0, cols), pat.is_kept(ju));
        }
        let _ = BitVec::new(1, true); // keep the import exercised
        let _ = ModelMask::full(&params);
    }
}
