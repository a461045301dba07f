//! Executable specification of θ ~ β∘N(U, s̃²I) (Algorithm 1 line 16):
//! the straightforward three-step form that
//! `fedbiad_core::spike_slab::sample_theta_into` must reproduce bit for
//! bit — every Gaussian of the step's stretch of the field evaluated,
//! dropped rows and provably unchanged weights included. Kept out of the
//! library: `#[path]`-included by `tests/theta_props.rs` (the property
//! test) and by `bench_perf`'s `core/sample_theta_mlp` entry (its
//! reference side). Written against `fedbiad-nn` / `fedbiad-tensor` only
//! so both can include it.

use fedbiad_nn::mask::BitVec;
use fedbiad_nn::ParamSet;
use fedbiad_tensor::math::gaussian;

/// Clone U, add `s̃·g(key, step·P + i)` to parameter `i` (entry order,
/// matrix row-major then bias), zero the row units where `beta` is unset.
/// With `s_tilde` not above 0 this is just the masked copy.
pub fn sample_theta(u: &ParamSet, beta: &BitVec, s_tilde: f32, key: u64, step: u64) -> ParamSet {
    let mut theta = u.clone();
    if s_tilde > 0.0 {
        let mut at = step.wrapping_mul(u.total_params() as u64);
        for e in 0..theta.num_entries() {
            let (m, b) = theta.mat_bias_mut(e);
            for v in m.as_mut_slice().iter_mut().chain(b.iter_mut()) {
                *v += s_tilde * gaussian(key, at);
                at = at.wrapping_add(1);
            }
        }
    }
    for j in 0..beta.len() {
        if !beta.get(j) {
            theta.zero_row_unit(j);
        }
    }
    theta
}
