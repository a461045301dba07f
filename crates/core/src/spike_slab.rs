//! Spike-and-slab variational machinery (paper §III-B/C, eq. (3)(4)(13)).
//!
//! Each weight row follows π̃(w_j) = β_j·N(µ_j, s̃²I) + (1−β_j)·δ(0). The
//! constant posterior variance s̃² is *not* a free hyper-parameter: the
//! paper derives the optimal value (eq. (13)) from the architecture
//! (S, L, D, d), the weight bound B and the amount of data m — and proves
//! Theorem 1 under exactly that setting. By construction it is tiny for
//! realistic models, so the reparameterised sample θ = β∘(U + s̃·ε) is a
//! barely-perturbed masked copy of U; the Bayesian structure matters
//! through the KL ≈ L2 term and the generalization analysis rather than
//! through injected noise.

use fedbiad_nn::{ArchInfo, ParamSet};
use fedbiad_tensor::math::{gaussian, GAUSSIAN_ABS_BOUND};
use serde::{Deserialize, Serialize};

/// How the posterior standard deviation s̃ is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum NoiseLevel {
    /// Optimal s̃² from eq. (13) given the architecture and current m
    /// (the paper's setting).
    Theory,
    /// Fixed s̃ (ablation knob).
    Fixed(f32),
    /// No reparameterisation noise (θ = β∘U exactly).
    Off,
}

/// Eq. (13): the optimal constant posterior variance
/// s̃² = S / (16·m·d²·log(3D)) · (2BD)^(−2L) ·
///        [ (d+1+1/(BD−1))² + 1/((BD)²−1) + 2/(BD−1)² ]^(−1).
///
/// * `s` — number of non-zero weights S;
/// * `m` — client-side total input data m_r;
/// * `arch` — supplies d (input dim), D (width), L (depth);
/// * `b` — the Assumption-2 weight bound B ≥ 2.
pub fn posterior_variance(s: f64, m: f64, arch: &ArchInfo, b: f64) -> f64 {
    assert!(b >= 2.0, "Assumption 2 requires B ≥ 2");
    assert!(m >= 1.0 && s >= 1.0);
    let d = arch.input_dim as f64;
    let big_d = arch.width as f64;
    let l = arch.depth as f64;
    let bd = b * big_d;

    let lead = s / (16.0 * m * d * d * (3.0 * big_d).ln());
    // (2BD)^(−2L) in log space to dodge underflow for deep/wide models.
    let decay = (-2.0 * l * (2.0 * bd).ln()).exp();
    let bracket = {
        let t1 = d + 1.0 + 1.0 / (bd - 1.0);
        let t2 = 1.0 / (bd * bd - 1.0);
        let t3 = 2.0 / ((bd - 1.0) * (bd - 1.0));
        t1 * t1 + t2 + t3
    };
    lead * decay / bracket
}

/// The paper's m_r = r · V · min{|D_1|, …, |D_K|} (client-side total input
/// data after r rounds).
pub fn client_total_data(round_one_based: usize, local_iters: usize, min_dk: usize) -> f64 {
    (round_one_based.max(1) * local_iters.max(1) * min_dk.max(1)) as f64
}

/// What [`sample_theta_into`] passes did — the `theta.*` telemetry
/// counters, and the ratio of Gaussians evaluated to parameters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThetaStats {
    /// Gaussians evaluated (the add could move the weight).
    pub transforms: u64,
    /// Parameters that cost no Gaussian: provably no-op adds on kept
    /// elements, plus every element of a dropped matrix row.
    pub transforms_skipped: u64,
    /// Matrix rows of dropped units, stored as zeros unperturbed.
    pub rows_dropped: u64,
}

impl std::ops::AddAssign for ThetaStats {
    fn add_assign(&mut self, o: Self) {
        self.transforms += o.transforms;
        self.transforms_skipped += o.transforms_skipped;
        self.rows_dropped += o.rows_dropped;
    }
}

/// 2⁻²⁶: a quarter of the relative spacing of f32 (2⁻²⁴ is half an ulp of
/// a number in [1, 2); the extra factor covers the halved spacing just
/// below a power of two, and the binade's upper end).
const QUARTER_ULP: f32 = 1.0 / (1u32 << 26) as f32;

/// Is `w + x == w` for every `|x| ≤ no_op_below`? Sufficient, not
/// necessary: `|w|·2⁻²⁶` underflows to 0 for zeros and subnormals and is
/// NaN for NaN, so those answer "no"; ±∞ answers "yes" (∞ + finite = ∞).
#[inline]
fn add_is_no_op(w: f32, no_op_below: f32) -> bool {
    no_op_below < w.abs() * QUARTER_ULP
}

/// The noise of one θ sample: element `i` of the pass is perturbed by
/// `s̃·g(key, first + i)`.
#[derive(Clone, Copy)]
struct Noise {
    s_tilde: f32,
    /// `s̃·`[`GAUSSIAN_ABS_BOUND`]: bounds |fl(s̃·ε)| (rounding is monotone).
    no_op_below: f32,
    key: u64,
    /// Field index of the pass's element 0.
    first: u64,
}

impl Noise {
    /// One element of θ = U + s̃·ε, element `i` of the pass. The Gaussian
    /// is evaluated only when the add could change `w`: when
    /// `no_op_below` is under `|w|·2⁻²⁶` the addend is under a quarter ulp
    /// of `w` and IEEE round-to-nearest returns `w` itself; any s̃ that is
    /// not tiny against `w` fails the test and takes the full transform,
    /// so every noise regime stays exact.
    #[inline]
    fn perturbed(&self, w: f32, i: u64, transforms: &mut u64) -> f32 {
        if add_is_no_op(w, self.no_op_below) {
            w
        } else {
            *transforms += 1;
            w + self.s_tilde * gaussian(self.key, self.first.wrapping_add(i))
        }
    }

    /// [`perturbed`](Self::perturbed) over a kept row whose first element
    /// is element `base` of the pass. Eight at a time: the no-op test of a
    /// whole group is a handful of vector instructions, and at eq. (13)'s
    /// s̃ nearly every group passes it whole and is a copy. (`chunks_exact`
    /// and a separate tail, not `chunks`: with the group length unknown
    /// the test is not vectorised and the pass takes twice as long.)
    fn perturb_row(&self, dst: &mut [f32], src: &[f32], base: u64, transforms: &mut u64) {
        const GROUP: usize = 8;
        let mut at = base;
        let (mut d, mut s) = (dst.chunks_exact_mut(GROUP), src.chunks_exact(GROUP));
        for (d, s) in d.by_ref().zip(s.by_ref()) {
            let unmoved = s
                .iter()
                .fold(true, |all, &w| all & add_is_no_op(w, self.no_op_below));
            if unmoved {
                d.copy_from_slice(s);
            } else {
                for (j, (d, &w)) in d.iter_mut().zip(s).enumerate() {
                    *d = self.perturbed(w, at + j as u64, transforms);
                }
            }
            at += GROUP as u64;
        }
        for (j, (d, &w)) in d.into_remainder().iter_mut().zip(s.remainder()).enumerate() {
            *d = self.perturbed(w, at + j as u64, transforms);
        }
    }
}

/// Sample θ ~ β∘N(U, s̃²I) into the persistent buffer `theta` (same shape
/// as `u`; every element is overwritten): θ = U + s̃·ε on kept rows,
/// zeros on the rows of dropped units. `rows_kept` is
/// [`DropPattern::rows_kept`](crate::pattern::DropPattern::rows_kept).
/// With `s_tilde` not above 0 this is the masked copy.
///
/// **Noise contract.** ε is the Gaussian field of the stream `key`
/// ([`fedbiad_tensor::math::gaussian`]): parameter `i` — in entry order,
/// matrix row-major then bias — of local step `step` reads element
/// `step·P + i`, `P = u.total_params()`. The value of an element depends
/// on nothing else, so the pass evaluates it only where the add can move
/// the weight: a dropped row is a fill, a provably unchanged weight a
/// compare and a copy. The result is bit-identical to "clone U, add
/// `s̃·g(key, step·P + i)` to every element, `zero_row_unit` the dropped
/// units" (`tests/support/sample_theta_spec.rs`, property-tested in
/// `tests/theta_props.rs`).
pub fn sample_theta_into(
    theta: &mut ParamSet,
    u: &ParamSet,
    rows_kept: &[Vec<bool>],
    s_tilde: f32,
    key: u64,
    step: u64,
) -> ThetaStats {
    assert_eq!(theta.num_entries(), u.num_entries(), "θ buffer shape");
    assert_eq!(rows_kept.len(), u.num_entries(), "rows_kept shape");
    let total = u.total_params() as u64;
    let noise = (s_tilde > 0.0).then_some(Noise {
        s_tilde,
        no_op_below: s_tilde * GAUSSIAN_ABS_BOUND,
        key,
        first: step.wrapping_mul(total),
    });
    let mut stats = ThetaStats::default();
    let mut at = 0u64;
    for (e, kept) in rows_kept.iter().enumerate() {
        let (tm, tb) = theta.mat_bias_mut(e);
        let (um, ub) = (u.mat(e), u.bias(e));
        assert_eq!(
            (tm.rows(), tm.cols(), tb.len(), kept.len()),
            (um.rows(), um.cols(), ub.len(), um.rows()),
            "θ buffer shape"
        );
        for (r, &keep) in kept.iter().enumerate() {
            let (dst, src) = (tm.row_mut(r), um.row(r));
            match (keep, &noise) {
                (false, _) => {
                    dst.fill(0.0);
                    stats.rows_dropped += 1;
                }
                (true, Some(noise)) => noise.perturb_row(dst, src, at, &mut stats.transforms),
                (true, None) => dst.copy_from_slice(src),
            }
            at += src.len() as u64;
        }
        for ((d, &w), &keep) in tb.iter_mut().zip(ub).zip(kept) {
            let v = match &noise {
                Some(noise) => noise.perturbed(w, at, &mut stats.transforms),
                None => w,
            };
            // `zero_row_unit` clears a matrix row but *multiplies* the
            // bias by 0.0, which keeps the perturbed value's sign and
            // NaN-ness; reproduce that bit for bit.
            *d = if keep { v } else { v * 0.0 };
            at += 1;
        }
    }
    if noise.is_some() {
        stats.transforms_skipped = total - stats.transforms;
    }
    stats
}

/// Resolve a [`NoiseLevel`] to a concrete s̃ for the current round.
pub fn resolve_noise(
    level: NoiseLevel,
    arch: &ArchInfo,
    kept_weights: usize,
    m: f64,
    b: f64,
) -> f32 {
    match level {
        NoiseLevel::Off => 0.0,
        NoiseLevel::Fixed(s) => s,
        NoiseLevel::Theory => {
            posterior_variance(kept_weights.max(1) as f64, m, arch, b).sqrt() as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::DropPattern;
    use fedbiad_nn::mask::BitVec;
    use fedbiad_nn::params::{EntryMeta, LayerKind};
    use fedbiad_tensor::rng::{stream, stream_key, StreamTag};
    use fedbiad_tensor::Matrix;
    use rand::Rng;

    fn arch() -> ArchInfo {
        ArchInfo {
            total_weights: 101_770,
            depth: 2,
            width: 128,
            input_dim: 784,
        }
    }

    #[test]
    fn posterior_variance_is_positive_and_tiny() {
        let v = posterior_variance(80_000.0, 10_000.0, &arch(), 2.0);
        assert!(v > 0.0);
        assert!(v < 1e-6, "theory variance should be tiny, got {v}");
    }

    #[test]
    fn posterior_variance_decreases_with_data() {
        let a = posterior_variance(80_000.0, 1_000.0, &arch(), 2.0);
        let b = posterior_variance(80_000.0, 100_000.0, &arch(), 2.0);
        assert!(b < a);
        // Exactly inversely proportional to m.
        assert!((a / b - 100.0).abs() < 1e-6);
    }

    #[test]
    fn posterior_variance_survives_deep_wide_models() {
        // LSTM-scale: D=300, L=4 — (2BD)^(−2L) ≈ 1e-25 must not underflow
        // to zero.
        let lstm = ArchInfo {
            total_weights: 7_800_000,
            depth: 4,
            width: 300,
            input_dim: 300,
        };
        let v = posterior_variance(3_900_000.0, 50_000.0, &lstm, 2.0);
        assert!(v > 0.0 && v.is_finite());
    }

    #[test]
    fn m_r_formula() {
        assert_eq!(client_total_data(3, 10, 120), 3600.0);
        assert_eq!(client_total_data(0, 10, 120), 1200.0); // clamped to r=1
    }

    fn param_set() -> ParamSet {
        let mut p = ParamSet::new();
        p.push_entry(
            Matrix::full(4, 3, 0.5),
            Some(vec![0.5; 4]),
            EntryMeta::new("w", LayerKind::DenseHidden, true, true),
        );
        p
    }

    fn sample(
        u: &ParamSet,
        pattern: &DropPattern,
        s_tilde: f32,
        seed: u64,
    ) -> (ParamSet, ThetaStats) {
        let mut theta = u.zeros_like();
        let key = stream_key(seed, StreamTag::PosteriorNoise, 0, 0);
        let stats = sample_theta_into(&mut theta, u, &pattern.rows_kept(u), s_tilde, key, 0);
        (theta, stats)
    }

    #[test]
    fn sample_theta_masks_and_perturbs() {
        let u = param_set();
        let mut beta = BitVec::new(4, true);
        beta.set(1, false);
        let (theta, stats) = sample(&u, &DropPattern { beta }, 0.1, 4);
        // Dropped row exactly zero (spike), kept rows perturbed around U.
        assert_eq!(theta.mat(0).row(1), &[0.0, 0.0, 0.0]);
        assert_eq!(theta.bias(0)[1], 0.0);
        assert!(theta.mat(0).row(0).iter().all(|&v| (v - 0.5).abs() < 0.6));
        assert!(theta.mat(0).row(0).iter().any(|&v| v != 0.5));
        // s̃ = 0.1 against 0.5 is no no-op: every kept element and the
        // dropped bias pay a transform, the dropped matrix row skips 3.
        assert_eq!(
            stats,
            ThetaStats {
                transforms: 13,
                transforms_skipped: 3,
                rows_dropped: 1
            }
        );
    }

    #[test]
    fn sample_theta_zero_noise_is_masked_copy() {
        let u = param_set();
        let (theta, stats) = sample(&u, &DropPattern::full(4), 0.0, 5);
        assert_eq!(theta.flatten(), u.flatten());
        assert_eq!(stats, ThetaStats::default());
    }

    #[test]
    fn theory_sized_noise_evaluates_nothing_and_is_the_masked_copy() {
        // Eq. (13)-sized s̃ against O(1) weights: θ = β∘U exactly and not
        // one Gaussian is evaluated — on kept rows because the add is
        // provably a no-op, on the dropped row because nothing reads it.
        let u = param_set();
        let mut beta = BitVec::new(4, true);
        beta.set(2, false);
        let (theta, stats) = sample(&u, &DropPattern { beta }, 2e-12, 6);
        let mut want = u.clone();
        want.zero_row_unit(2);
        assert_eq!(theta.flatten(), want.flatten());
        assert_eq!(
            stats,
            ThetaStats {
                transforms: 0,
                transforms_skipped: 16,
                rows_dropped: 1
            }
        );
    }

    #[test]
    fn each_step_reads_its_own_stretch_of_the_field() {
        // Parameter i of step v is element v·P + i: consecutive steps see
        // fresh noise, and a step's noise does not depend on the pattern
        // or on which steps ran before it.
        let u = param_set();
        let p = u.total_params() as u64;
        let key = stream_key(9, StreamTag::PosteriorNoise, 1, 2);
        let full = DropPattern::full(4).rows_kept(&u);
        let theta_at = |rows: &[Vec<bool>], step| {
            let mut theta = u.zeros_like();
            sample_theta_into(&mut theta, &u, rows, 0.1, key, step);
            theta
        };
        let (t0, t1) = (theta_at(&full, 0), theta_at(&full, 1));
        assert_ne!(t0.flatten(), t1.flatten());
        for (step, theta) in [(0, &t0), (1, &t1)] {
            // Entry order: the 4×3 matrix row-major, then the 4 biases.
            for (i, got) in theta
                .mat(0)
                .as_slice()
                .iter()
                .chain(theta.bias(0))
                .enumerate()
            {
                let want = 0.5 + 0.1 * gaussian(key, step * p + i as u64);
                assert_eq!(got.to_bits(), want.to_bits(), "step {step}, element {i}");
            }
        }
        let mut beta = BitVec::new(4, true);
        beta.set(0, false);
        let masked = theta_at(&DropPattern { beta }.rows_kept(&u), 1);
        assert_eq!(masked.mat(0).row(3), t1.mat(0).row(3));
        assert_eq!(masked.bias(0)[1..], t1.bias(0)[1..]);
    }

    #[test]
    fn skipped_adds_are_no_ops_even_at_the_gaussian_bound() {
        // Random draws almost never come near |ε| = 6, so pin the skip
        // test against the worst addend it admits: the largest s̃ that
        // still passes for `w`, times ±GAUSSIAN_ABS_BOUND.
        let mut rng = stream(8, StreamTag::Init, 0, 0);
        let mut ws = vec![f32::MAX, f32::MIN_POSITIVE, 1.0, 0.05];
        for e in -100..100 {
            let p = 2f32.powi(e);
            ws.extend([
                p,
                f32::from_bits(p.to_bits() - 1),
                f32::from_bits(p.to_bits() + 1),
            ]);
            ws.push(p * rng.gen_range(1.0f32..2.0));
        }
        let mut admitted = 0;
        for w in ws.into_iter().flat_map(|w| [w, -w]) {
            let mut s = w.abs() * QUARTER_ULP / GAUSSIAN_ABS_BOUND;
            while s > 0.0 && !add_is_no_op(w, s * GAUSSIAN_ABS_BOUND) {
                s = f32::from_bits(s.to_bits() - 1);
            }
            if s > 0.0 {
                admitted += 1;
                for z in [GAUSSIAN_ABS_BOUND, -GAUSSIAN_ABS_BOUND, 5.77, -5.77] {
                    assert_eq!((w + s * z).to_bits(), w.to_bits(), "w = {w:e}, s̃ = {s:e}");
                }
            }
        }
        assert!(admitted > 1500, "the sweep must exercise the fast path");
        // Values the argument does not cover never take it.
        for w in [
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
            f32::NAN,
        ] {
            assert!(!add_is_no_op(w, f32::from_bits(1)), "{w:e}");
            assert!(!add_is_no_op(w, 0.0), "{w:e}");
        }
        assert!(add_is_no_op(f32::INFINITY, 1e30) && !add_is_no_op(f32::INFINITY, f32::INFINITY));
    }

    #[test]
    fn resolve_noise_modes() {
        let a = arch();
        assert_eq!(resolve_noise(NoiseLevel::Off, &a, 100, 10.0, 2.0), 0.0);
        assert_eq!(
            resolve_noise(NoiseLevel::Fixed(0.3), &a, 100, 10.0, 2.0),
            0.3
        );
        let t = resolve_noise(NoiseLevel::Theory, &a, 80_000, 10_000.0, 2.0);
        assert!(t > 0.0 && t < 1e-3);
    }
}
