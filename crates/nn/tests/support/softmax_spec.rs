//! Executable specification of `fedbiad_nn::softmax::softmax`: the loop it
//! ran before `math::exp_slice` — subtract, exponentiate and sum fused,
//! one element at a time over the scalar `math::exp` — which the slice
//! form must reproduce bit for bit. Kept out of the library:
//! `#[path]`-included by `tests/softmax_props.rs` (the test) and by
//! `bench_perf`'s `math/softmax_256x400` entry (its reference side).

use fedbiad_tensor::math;

/// Numerically stable in-place softmax, one element at a time.
pub fn softmax(xs: &mut [f32]) {
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for x in xs.iter_mut() {
        *x = math::exp(*x - max);
        sum += *x;
    }
    let inv = 1.0 / sum;
    for x in xs.iter_mut() {
        *x *= inv;
    }
}
