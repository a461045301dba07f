//! `sample_theta_into` ≡ the executable specification
//! (`support/sample_theta_spec.rs`): the same θ bits — the specification
//! evaluating every Gaussian of the step's stretch of the field, the
//! production pass only the ones it cannot prove irrelevant — over MLP-
//! and LSTM-shaped parameter sets, random dropping patterns, every noise
//! regime, steps whose field indices cross 2³² and wrap at 2⁶⁴, and
//! weights chosen to sit on the edges of the half-ulp no-op argument.

#[path = "support/sample_theta_spec.rs"]
mod spec;

use fedbiad_core::spike_slab::sample_theta_into;
use fedbiad_core::DropPattern;
use fedbiad_nn::mask::BitVec;
use fedbiad_nn::params::{EntryMeta, LayerKind};
use fedbiad_nn::ParamSet;
use fedbiad_tensor::math::GAUSSIAN_ABS_BOUND;
use fedbiad_tensor::rng::{stream, stream_key, StreamTag};
use fedbiad_tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// One weight: mostly init-sized normals, otherwise a value from the
/// edges the skip test must classify correctly.
fn weight(rng: &mut StdRng) -> f32 {
    let sign = if rng.gen::<bool>() { 1.0f32 } else { -1.0 };
    sign * match rng.gen_range(0u32..16) {
        0 => 0.0,
        1 => f32::from_bits(rng.gen_range(1u32..0x0080_0000)), // subnormal
        2 => f32::MIN_POSITIVE,
        3 => f32::INFINITY,
        4 => f32::NAN,
        5 => f32::MAX,
        6 | 7 => 2f32.powi(rng.gen_range(-30i32..4)), // exact power of two
        8 => f32::from_bits(2f32.powi(rng.gen_range(-30i32..4)).to_bits() - 1), // just below one
        _ => rng.gen_range(1e-4f32..0.2),
    }
}

fn entry(
    p: &mut ParamSet,
    rng: &mut StdRng,
    (units, cols, gate_groups): (usize, usize, usize),
    kind: LayerKind,
    has_bias: bool,
    droppable: bool,
) {
    let rows = units * gate_groups;
    let w = Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| weight(rng)).collect());
    let bias = has_bias.then(|| (0..rows).map(|_| weight(rng)).collect());
    let mut meta = EntryMeta::new(format!("e{}", p.num_entries()), kind, has_bias, droppable);
    meta.gate_groups = gate_groups;
    p.push_entry(w, bias, meta);
}

/// MLP-shaped (two biased dense layers) or LSTM-LM-shaped (bias-free
/// embedding, 4-gate input/recurrent matrices, biased head), each
/// optionally followed by a non-droppable auxiliary entry.
fn params(lstm: bool, aux: bool, rng: &mut StdRng) -> ParamSet {
    let mut p = ParamSet::new();
    let (d, h, c) = (
        rng.gen_range(1..7),
        rng.gen_range(1..6),
        rng.gen_range(1..5),
    );
    if lstm {
        entry(&mut p, rng, (c, d, 1), LayerKind::Embedding, false, true);
        entry(&mut p, rng, (h, d, 4), LayerKind::LstmInput, true, true);
        entry(
            &mut p,
            rng,
            (h, h, 4),
            LayerKind::LstmRecurrent,
            false,
            true,
        );
        entry(&mut p, rng, (c, h, 1), LayerKind::DenseOutput, true, true);
    } else {
        entry(&mut p, rng, (h, d, 1), LayerKind::DenseHidden, true, true);
        entry(&mut p, rng, (c, h, 1), LayerKind::DenseOutput, true, true);
    }
    if aux {
        let has_bias = rng.gen::<bool>();
        entry(
            &mut p,
            rng,
            (2, 3, 1),
            LayerKind::DenseHidden,
            has_bias,
            false,
        );
    }
    p
}

fn ulp_step(x: f32, up: bool) -> f32 {
    f32::from_bits(if up { x.to_bits() + 1 } else { x.to_bits() - 1 })
}

/// s̃ by regime; `w` is a mid-range positive weight of the set, the anchor
/// for the regimes defined relative to a weight.
fn s_tilde(regime: u32, w: f32, rng: &mut StdRng) -> f32 {
    let boundary = w * 2f32.powi(-26) / GAUSSIAN_ABS_BOUND;
    match regime {
        0 => 0.0,
        1 => 2e-12, // eq. (13) on the lab MLP
        2 => boundary,
        3 => ulp_step(boundary, true),
        4 => ulp_step(boundary, false),
        // Around half an ulp of `w`: the add moves some elements and not
        // others, so a skip test that fired too eagerly would show.
        5 => w * 2f32.powi(-rng.gen_range(18i32..30)),
        6 => 0.3, // NoiseLevel::Fixed(0.3)
        7 => f32::from_bits(1),
        8 => f32::MAX,
        9 => f32::INFINITY,
        10 => -0.3,
        _ => f32::NAN,
    }
}

fn bits(p: &ParamSet) -> Vec<u32> {
    p.flatten().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #[test]
    fn into_pass_matches_the_specification_bitwise(
        lstm in 0u32..2,
        aux in 0u32..2,
        regime in 0u32..12,
        keep_sixteenths in 0u32..17,
        seed in 0u64..1_000_000,
        first_step in prop::sample::select(vec![0u64, 1, 23, (1 << 32) / 7, u64::MAX / 5, u64::MAX]),
    ) {
        let mut gen = stream(seed, StreamTag::Init, 0, 0);
        let u = params(lstm == 1, aux == 1, &mut gen);
        let mut beta = BitVec::new(u.num_row_units(), false);
        for j in 0..beta.len() {
            beta.set(j, gen.gen_range(0u32..16) < keep_sixteenths);
        }
        let pattern = DropPattern { beta };
        let rows_kept = pattern.rows_kept(&u);
        let anchor = u
            .flatten()
            .into_iter()
            .map(f32::abs)
            .find(|w| (1e-20..1e30).contains(w))
            .unwrap_or(0.05);
        let s = s_tilde(regime, anchor, &mut gen);

        // A dirty persistent buffer, reused for two consecutive steps.
        let mut theta = u.clone();
        for e in 0..theta.num_entries() {
            let (m, b) = theta.mat_bias_mut(e);
            m.as_mut_slice().fill(7.0);
            b.fill(f32::NAN);
        }
        let key = stream_key(seed, StreamTag::PosteriorNoise, 0, 0);
        for step in [first_step, first_step.wrapping_add(1)] {
            let stats = sample_theta_into(&mut theta, &u, &rows_kept, s, key, step);
            let want = spec::sample_theta(&u, &pattern.beta, s, key, step);
            prop_assert_eq!(bits(&theta), bits(&want), "θ bits, step {}, s̃ = {:e}", step, s);

            let dropped = rows_kept.iter().flatten().filter(|k| !**k).count() as u64;
            prop_assert_eq!(stats.rows_dropped, dropped);
            let noisy = if s > 0.0 { u.total_params() as u64 } else { 0 };
            prop_assert_eq!(stats.transforms + stats.transforms_skipped, noisy);
            // A dropped matrix row is never evaluated.
            let in_dropped_rows: u64 = (0..u.num_entries())
                .map(|e| {
                    let gone = rows_kept[e].iter().filter(|k| !**k).count();
                    (gone * u.mat(e).cols()) as u64
                })
                .sum();
            prop_assert!(stats.transforms <= noisy.saturating_sub(in_dropped_rows));
        }
    }
}
