//! `fedbiad_tensor::math` over **all 2³² bit patterns**. Every test here
//! is `#[ignore]`d (a sweep is 4 × 10⁹ evaluations); run them in release:
//!
//! ```text
//! cargo test --release -p fedbiad-tensor --test math_exhaustive -- --ignored vector
//! cargo test --release -p fedbiad-tensor --test math_exhaustive -- --ignored host
//! ```
//!
//! * `vector_*`: a slice form equals the scalar definition on every input.
//!   libm-free, so it holds (or fails) the same on every host; CI runs it.
//!   `tanh`, `ln` and `cos2pi` run their loops on every host; on one
//!   without AVX2+FMA the `exp` and `sigmoid` slice forms are the scalar
//!   definition and those two sweeps are vacuous — they say so.
//!   `vector_quantise_*` holds `ops::quantise` (FedPAQ's codes) to
//!   `ops::quant_code` and both to `x.round().clamp(−L, L)`: `roundf` is
//!   exact by definition, so every libm returns the same there.
//! * `host_*`: the scalar definition equals the host's `f32::tanh` /
//!   `f32::exp`. This is a **migration proof**, not a property of the
//!   code: it held on the host every golden was pinned on (glibc 2.36, an
//!   FMA-capable x86-64), which is why no golden moved when `nn` stopped
//!   calling libm, and it holds on any libm that runs the same two
//!   algorithms (fdlibm `tanhf`; Nagy's `expf`, FMA build). A newer glibc
//!   is expected to fail it. Not a CI gate; results in BENCHMARKS.md.

use fedbiad_tensor::{cpu, math, ops};

/// Patterns per batch: consecutive, so a vector's eight lanes are
/// neighbours and every in-range pattern goes through a vector body
/// (mixed-branch vectors are `math_props.rs`'s business).
const BATCH: u32 = 1 << 16;

/// Run `slice` over every bit pattern in batches and compare each result
/// with `scalar`'s, exact bits. Returns the mismatch count after printing
/// the first few.
fn sweep(what: &str, slice: fn(&mut [f32]), scalar: fn(f32) -> f32) -> u64 {
    let mut buf = vec![0.0f32; BATCH as usize];
    let mut mismatches = 0u64;
    for base in (0..=u32::MAX).step_by(BATCH as usize) {
        for (i, v) in buf.iter_mut().enumerate() {
            *v = f32::from_bits(base + i as u32);
        }
        slice(&mut buf);
        for (i, got) in buf.iter().enumerate() {
            let x = f32::from_bits(base + i as u32);
            let want = scalar(x);
            if got.to_bits() != want.to_bits() {
                mismatches += 1;
                if mismatches <= 8 {
                    eprintln!(
                        "{what}: x = {:#010x} ({x:e}): {:#010x} vs {:#010x}",
                        x.to_bits(),
                        got.to_bits(),
                        want.to_bits()
                    );
                }
            }
        }
    }
    eprintln!("{what}: {mismatches} mismatches in 2^32 inputs");
    mismatches
}

fn vector_sweep(what: &str, slice: fn(&mut [f32]), scalar: fn(f32) -> f32) {
    assert_eq!(sweep(what, slice, scalar), 0);
}

/// [`vector_sweep`] for the slice forms with a hand-written AVX2+FMA body.
fn fma_body_sweep(what: &str, slice: fn(&mut [f32]), scalar: fn(f32) -> f32) {
    if !cpu::get().avx2_fma {
        eprintln!("{what}: no AVX2+FMA here, the slice form is the scalar definition");
    }
    vector_sweep(what, slice, scalar);
}

#[test]
#[ignore = "2^32 evaluations; run in release"]
fn vector_tanh_equals_the_scalar_definition_on_all_inputs() {
    vector_sweep("tanh_slice", math::tanh_slice, math::tanh);
}

#[test]
#[ignore = "2^32 evaluations; run in release"]
fn vector_exp_equals_the_scalar_definition_on_all_inputs() {
    fma_body_sweep("exp_slice", math::exp_slice, math::exp);
}

#[test]
#[ignore = "2^32 evaluations; run in release"]
fn vector_sigmoid_equals_the_scalar_definition_on_all_inputs() {
    fma_body_sweep("sigmoid_slice", math::sigmoid_slice, math::sigmoid);
}

#[test]
#[ignore = "2^32 evaluations; run in release"]
fn vector_ln_equals_the_scalar_definition_on_all_inputs() {
    vector_sweep("ln_slice", math::ln_slice, math::ln);
}

#[test]
#[ignore = "2^32 evaluations; run in release"]
fn vector_cos2pi_equals_the_scalar_definition_on_all_inputs() {
    vector_sweep("cos2pi_slice", math::cos2pi_slice, math::cos2pi);
}

#[test]
#[ignore = "migration proof against this host's libm; 2^32 evaluations"]
fn host_tanhf_is_the_scalar_definition_on_all_inputs() {
    let host = |xs: &mut [f32]| xs.iter_mut().for_each(|x| *x = x.tanh());
    assert_eq!(sweep("f32::tanh", host, math::tanh), 0);
}

#[test]
#[ignore = "migration proof against this host's libm; 2^32 evaluations"]
fn host_expf_is_the_scalar_definition_on_all_inputs() {
    let host = |xs: &mut [f32]| xs.iter_mut().for_each(|x| *x = x.exp());
    assert_eq!(sweep("f32::exp", host, math::exp), 0);
}

/// FedPAQ's code of every `f32` at `levels`: the kernel (with `q = 1`,
/// so its product is the input itself), the scalar definition and the
/// libm expression it replaced, `round` then `clamp` (NaN → 0).
fn quantise_sweep(levels: u16) -> u64 {
    let l = f32::from(levels);
    let mut buf = vec![0.0f32; BATCH as usize];
    let mut codes = vec![0u16; BATCH as usize];
    let mut mismatches = 0u64;
    for base in (0..=u32::MAX).step_by(BATCH as usize) {
        for (i, v) in buf.iter_mut().enumerate() {
            *v = f32::from_bits(base + i as u32);
        }
        ops::quantise(&buf, 1.0, levels, &mut codes);
        for (&x, &got) in buf.iter().zip(&codes) {
            let scalar = ops::quant_code(x, l) + i32::from(levels);
            let libm = if x.is_nan() {
                i32::from(levels)
            } else {
                x.round().clamp(-l, l) as i32 + i32::from(levels)
            };
            if i32::from(got) != scalar || scalar != libm {
                mismatches += 1;
                if mismatches <= 8 {
                    eprintln!(
                        "quantise L = {levels}: x = {:#010x} ({x:e}): vector {got}, scalar {scalar}, libm {libm}",
                        x.to_bits()
                    );
                }
            }
        }
    }
    eprintln!("quantise L = {levels}: {mismatches} mismatches in 2^32 inputs");
    mismatches
}

#[test]
#[ignore = "2^32 evaluations x 2 widths; run in release"]
fn vector_quantise_equals_the_scalar_code_and_round_clamp_on_all_inputs() {
    assert_eq!(quantise_sweep(127), 0);
    assert_eq!(quantise_sweep(32_767), 0);
}
