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

/// The two uniforms one [`gaussian`] sample consumes: `u1 ∈ [2⁻²⁴, 1)`
/// (zero draws are rejected and redrawn) and `u2 ∈ [0, 1)`, both on the
/// 24-bit grid `rng.gen::<f32>()` draws from.
#[inline]
fn gaussian_uniforms(rng: &mut impl Rng) -> (f32, f32) {
    loop {
        let u1: f32 = rng.gen::<f32>();
        if u1 > f32::MIN_POSITIVE {
            return (u1, rng.gen::<f32>());
        }
    }
}

/// One standard-normal sample drawn from a *sequential* stream:
/// [`math::gaussian_of`](crate::math::gaussian_of) — the transform every
/// Gaussian in the workspace goes through — of two uniforms from `rng`.
/// For rejection samplers, whose draw count depends on the values drawn
/// (`fedbiad-data`'s Dirichlet partition); a field of independent normals
/// is [`math::gaussian`](crate::math::gaussian), addressed by index.
#[inline]
pub fn gaussian(rng: &mut impl Rng) -> f32 {
    let (u1, u2) = gaussian_uniforms(rng);
    crate::math::gaussian_of(u1, u2)
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
    fn gaussian_is_the_field_transform_of_two_sequential_uniforms() {
        let mut a = stream(11, StreamTag::PosteriorNoise, 0, 0);
        let mut b = a.clone();
        for _ in 0..1000 {
            let (u1, u2) = gaussian_uniforms(&mut a);
            assert!(u1 >= 2f32.powi(-24) && u1 < 1.0 && (0.0..1.0).contains(&u2));
            let z = gaussian(&mut b);
            assert_eq!(crate::math::gaussian_of(u1, u2).to_bits(), z.to_bits());
            assert!(z.abs() < crate::math::GAUSSIAN_ABS_BOUND);
        }
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "same RNG consumption");
    }

    #[test]
    fn init_is_deterministic_per_stream() {
        let mut a = Matrix::zeros(4, 4);
        let mut b = Matrix::zeros(4, 4);
        xavier(&mut a, 4, 4, &mut stream(9, StreamTag::Init, 0, 3));
        xavier(&mut b, 4, 4, &mut stream(9, StreamTag::Init, 0, 3));
        assert_eq!(a, b);
        xavier(&mut b, 4, 4, &mut stream(9, StreamTag::Init, 0, 4));
        assert_ne!(a, b);
    }
}
