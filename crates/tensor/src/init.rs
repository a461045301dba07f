//! Deterministic weight initialisers.

use crate::matrix::Matrix;
use rand::Rng;

/// Uniform(-limit, limit) fill.
pub fn uniform(m: &mut Matrix, limit: f32, rng: &mut impl Rng) {
    for v in m.as_mut_slice() {
        *v = rng.gen_range(-limit..limit);
    }
}

/// Xavier/Glorot-uniform: limit = sqrt(6 / (fan_in + fan_out)).
///
/// `fan_in`/`fan_out` are passed explicitly because for bundled-bias rows
/// (see `fedbiad-nn::params`) the matrix shape is not the layer fan.
pub fn xavier(m: &mut Matrix, fan_in: usize, fan_out: usize, rng: &mut impl Rng) {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(m, limit, rng);
}

/// Standard normal fill scaled by `std`.
pub fn normal(m: &mut Matrix, std: f32, rng: &mut impl Rng) {
    for v in m.as_mut_slice() {
        *v = std * gaussian(rng);
    }
}

/// Strict upper bound on |[`gaussian`]|. The uniforms are 24-bit
/// (`rng.gen::<f32>()` is a multiple of 2⁻²⁴) and zero is rejected, so
/// `u1 ≥ 2⁻²⁴` and |ε| ≤ sqrt(−2·ln 2⁻²⁴) ≈ 5.77. Callers use it to prove
/// that a scaled sample cannot move a sum (`fedbiad-core::spike_slab`).
pub const GAUSSIAN_ABS_BOUND: f32 = 6.0;

/// The two uniforms one [`gaussian`] sample consumes: `u1 ∈ [2⁻²⁴, 1)`
/// (zero draws are rejected and redrawn) and `u2 ∈ [0, 1)`. Split out so a
/// caller that can prove the sample will not matter still advances the RNG
/// draw for draw.
#[inline]
pub fn gaussian_uniforms(rng: &mut impl Rng) -> (f32, f32) {
    loop {
        let u1: f32 = rng.gen::<f32>();
        if u1 > f32::MIN_POSITIVE {
            return (u1, rng.gen::<f32>());
        }
    }
}

/// Box–Muller transform of one [`gaussian_uniforms`] pair (the sine twin
/// is discarded for simplicity).
#[inline]
pub fn box_muller(u1: f32, u2: f32) -> f32 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// One standard-normal sample via Box–Muller (avoids a rand_distr
/// dependency): `box_muller ∘ gaussian_uniforms`.
#[inline]
pub fn gaussian(rng: &mut impl Rng) -> f32 {
    let (u1, u2) = gaussian_uniforms(rng);
    box_muller(u1, u2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{stream, StreamTag};

    #[test]
    fn xavier_respects_limit() {
        let mut m = Matrix::zeros(64, 32);
        let mut rng = stream(1, StreamTag::Init, 0, 0);
        xavier(&mut m, 32, 64, &mut rng);
        let limit = (6.0f32 / 96.0).sqrt();
        assert!(m.as_slice().iter().all(|v| v.abs() <= limit));
        // Not all zero.
        assert!(m.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = stream(7, StreamTag::Init, 0, 0);
        let n = 20_000;
        let xs: Vec<f32> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let m = crate::stats::mean(&xs);
        let v = crate::stats::variance(&xs);
        assert!(m.abs() < 0.05, "mean {m}");
        assert!((v - 1.0).abs() < 0.1, "var {v}");
    }

    #[test]
    fn gaussian_is_box_muller_of_its_uniforms() {
        let mut a = stream(11, StreamTag::PosteriorNoise, 0, 0);
        let mut b = a.clone();
        for _ in 0..1000 {
            let (u1, u2) = gaussian_uniforms(&mut a);
            assert!(u1 >= 2f32.powi(-24) && u1 < 1.0 && (0.0..1.0).contains(&u2));
            assert_eq!(box_muller(u1, u2).to_bits(), gaussian(&mut b).to_bits());
        }
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "same RNG consumption");
    }

    #[test]
    fn box_muller_stays_inside_the_declared_bound() {
        // The radius is largest at the smallest admissible u1; sweep the
        // angle over the whole 24-bit grid's extremes and a dense sample.
        let u1 = 2f32.powi(-24);
        let step = 2f32.powi(-24);
        for k in (0..1u32 << 24)
            .step_by(4099)
            .chain([0, (1 << 23), (1 << 24) - 1])
        {
            let z = box_muller(u1, k as f32 * step);
            assert!(z.abs() < GAUSSIAN_ABS_BOUND, "|{z}| at u2 = {k}·2⁻²⁴");
        }
        assert!(box_muller(u1, 0.0) > 5.7, "the bound is nearly attained");
    }

    #[test]
    fn init_is_deterministic_per_stream() {
        let mut a = Matrix::zeros(4, 4);
        let mut b = Matrix::zeros(4, 4);
        normal(&mut a, 0.1, &mut stream(9, StreamTag::Init, 0, 3));
        normal(&mut b, 0.1, &mut stream(9, StreamTag::Init, 0, 3));
        assert_eq!(a, b);
    }
}
