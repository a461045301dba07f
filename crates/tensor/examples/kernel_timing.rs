//! Manual timing probe for the four batched GEMMs (dev aid): GMAC/s,
//! best of seven, at the shapes the scenario workloads run — the lab
//! LSTM's gates and head (batch 16, H = E = 48, V = 400), the lab MLP's
//! first layer (batch 32 and batch 1, 784 → 128) and its W2 backward —
//! plus the per-sample `gemv` loop as the yardstick — and ns/element for
//! `math`'s slice forms at the lab LSTM's shapes (256 rows of one
//! `g` gate, of `[i, f, o]`, of a 400-way softmax's exponentials) and at
//! the Gaussian field's (64 images of 784 uniforms; `gaussian_slice`
//! beside the sequential Box–Muller over libm it replaced), each beside
//! the scalar definition and the host's libm. Run it under
//! `taskset -c 0` with `RAYON_NUM_THREADS=1`; the roofline table in
//! BENCHMARKS.md ("PR 22") is this program's output on two commits.
use fedbiad_tensor::math;
use fedbiad_tensor::ops;
use fedbiad_tensor::rng::{stream, stream_key, StreamTag};
use fedbiad_tensor::Matrix;
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Deterministic fill in (−1, 1) with no exact zeros.
fn filled(len: usize, salt: usize) -> Vec<f32> {
    (0..len)
        .map(|i| (((i * 31 + salt * 17) % 199) as f32 - 99.25) / 100.0)
        .collect()
}

/// `x` with every second element (by a hash of its index) set to `0.0`:
/// the coefficient pattern a ReLU layer's deltas have.
fn relu_sparse(mut x: Vec<f32>) -> Vec<f32> {
    for (i, v) in x.iter_mut().enumerate() {
        if (i.wrapping_mul(2_654_435_761) >> 7) & 1 == 0 {
            *v = 0.0;
        }
    }
    x
}

/// Best-of-seven seconds per call of `f`, which does `work` units a call.
fn best_seconds(work: usize, mut f: impl FnMut()) -> f64 {
    let reps = (20_000_000 / work).clamp(3, 2_000);
    f();
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

/// Best-of-seven rate of `f`, which performs `macs` multiply-adds per call.
fn gmacs(macs: usize, f: impl FnMut()) -> f64 {
    macs as f64 / best_seconds(macs, f) / 1e9
}

/// ns/element of an in-place map over a copy of `input`.
fn ns_per_element(input: &[f32], mut map: impl FnMut(&mut [f32])) -> f64 {
    let mut buf = input.to_vec();
    let secs = best_seconds(input.len(), || {
        buf.copy_from_slice(black_box(input));
        map(&mut buf);
        black_box(&buf);
    });
    secs * 1e9 / input.len() as f64
}

/// The host's no-FMA ceiling: twelve independent `acc = acc·a + b` chains
/// on `ymm` registers, nothing loaded or stored — enough chains to cover
/// the multiply + add latency, so this is what `vmulps` + `vaddps` can
/// retire when nothing else is in the way (one multiply-add per lane per
/// pair of instructions).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn ceiling_gmacs() -> f64 {
    use std::arch::x86_64::*;
    const CHAINS: usize = 12;
    const ROUNDS: usize = 2_000_000;
    let (a, b) = (_mm256_set1_ps(0.999_999), _mm256_set1_ps(1e-6));
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let mut acc = [black_box(_mm256_set1_ps(1.0)); CHAINS];
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            for chain in acc.iter_mut() {
                *chain = _mm256_add_ps(_mm256_mul_ps(*chain, a), b);
            }
        }
        best = best.min(t0.elapsed().as_secs_f64());
        black_box(acc);
    }
    (CHAINS * ROUNDS * 8) as f64 / best / 1e9
}

/// [`ceiling_gmacs`] on `zmm` registers: twenty-four chains, sixteen
/// lanes each — the ceiling of the AVX-512 register tiles.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn ceiling_gmacs_zmm() -> f64 {
    use std::arch::x86_64::*;
    const CHAINS: usize = 24;
    const ROUNDS: usize = 1_000_000;
    let (a, b) = (_mm512_set1_ps(0.999_999), _mm512_set1_ps(1e-6));
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let mut acc = [black_box(_mm512_set1_ps(1.0)); CHAINS];
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            for chain in acc.iter_mut() {
                *chain = _mm512_add_ps(_mm512_mul_ps(*chain, a), b);
            }
        }
        best = best.min(t0.elapsed().as_secs_f64());
        black_box(acc);
    }
    (CHAINS * ROUNDS * 16) as f64 / best / 1e9
}

fn report(kernel: &str, shape: &str, rate: f64) {
    println!("{kernel:<18} {shape:<22} {rate:>6.2} GMAC/s");
}

/// One `math` function three ways: the slice form, the scalar definition
/// element by element, and the host libm's function.
fn report_math(
    name: &str,
    shape: &str,
    input: &[f32],
    slice: fn(&mut [f32]),
    scalar: fn(f32) -> f32,
    host: fn(f32) -> f32,
) {
    let each = |f: fn(f32) -> f32| move |xs: &mut [f32]| xs.iter_mut().for_each(|x| *x = f(*x));
    println!(
        "{name:<18} {shape:<22} {:>6.2} ns/element (scalar definition {:.2}, host libm {:.2})",
        ns_per_element(input, slice),
        ns_per_element(input, each(scalar)),
        ns_per_element(input, each(host)),
    );
}

fn main() {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: AVX was just detected.
        report("vmulps + vaddps", "registers only", unsafe {
            ceiling_gmacs()
        });
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: AVX-512F was just detected.
        report("vmulps + vaddps zmm", "registers only", unsafe {
            ceiling_gmacs_zmm()
        });
    }
    // Forward: C (m×n) = A (m×k) · Bᵀ, B a weight matrix n×k.
    for (m, n, k) in [(16, 192, 48), (16, 400, 48), (32, 128, 784), (1, 128, 784)] {
        let w = Matrix::from_vec(n, k, filled(n * k, 1));
        let x = filled(m * k, 2);
        let mut c = vec![0.0f32; m * n];
        let shape = format!("{m} x {n} x {k}");
        let rate = gmacs(m * n * k, || {
            for i in 0..m {
                ops::gemv(&w, &x[i * k..(i + 1) * k], &[], &mut c[i * n..(i + 1) * n]);
            }
            black_box(&c);
        });
        report("gemv loop", &shape, rate);
        let rate = gmacs(m * n * k, || {
            ops::avx::gemm_nt(black_box(&x), &w, m, None, &mut c);
            black_box(&c);
        });
        report("gemm_nt ymm", &shape, rate);
        let rate = gmacs(m * n * k, || {
            ops::gemm_nt(black_box(&x), &w, m, None, &mut c);
            black_box(&c);
        });
        report("gemm_nt", &shape, rate);
    }

    // Backprop: C (m×n) = A (m×k) · B, B a weight matrix k×n.
    for (m, k, n) in [(16, 192, 48), (16, 400, 48), (32, 10, 128), (32, 128, 784)] {
        let w = Matrix::from_vec(k, n, filled(k * n, 3));
        let d = filled(m * k, 4);
        let mut c = vec![0.0f32; m * n];
        let rate = gmacs(m * k * n, || {
            ops::avx::gemm_nn(black_box(&d), &w, m, None, &mut c);
            black_box(&c);
        });
        report("gemm_nn ymm", &format!("{m} x {k} -> {n}"), rate);
        let rate = gmacs(m * k * n, || {
            ops::gemm_nn(black_box(&d), &w, m, None, &mut c);
            black_box(&c);
        });
        report("gemm_nn", &format!("{m} x {k} -> {n}"), rate);
    }

    // Ordered gradient accumulation: C (m×n) += Aᵀ·B over 16 windows × 16
    // steps visited window-major, step-descending (the BPTT order).
    let order: Vec<usize> = (0..16)
        .flat_map(|w| (0..16).rev().map(move |t| t * 16 + w))
        .collect();
    for (s, m, n) in [(256, 192, 48), (256, 400, 48)] {
        let dz = filled(s * m, 5);
        let h = filled(s * n, 6);
        let mut g = Matrix::zeros(m, n);
        let rate = gmacs(s * m * n, || {
            ops::avx::gemm_tn_acc_ord(black_box(&dz), &h, &order, 0, None, &mut g);
            black_box(&g);
        });
        report("gemm_tn_acc_ord ymm", &format!("{s} x {m} x {n}"), rate);
        let rate = gmacs(s * m * n, || {
            ops::gemm_tn_acc_ord(black_box(&dz), &h, &order, 0, None, &mut g);
            black_box(&g);
        });
        report("gemm_tn_acc_ord", &format!("{s} x {m} x {n}"), rate);
    }

    // Gradient accumulation at the MLP's shapes: W1 (128 × 784) from 32
    // samples with dense and with ReLU-sparse deltas, W2 (10 × 128). Then
    // the evidence for `ops.rs`'s shape rule: C (128 × n) from 32 samples,
    // both kinds of deltas, at rows wider than the `ymm` tiles take —
    // the `ymm` tier streams them, the `zmm` tier tiles them whole.
    for (s, m, n, sparse) in [
        (32, 128, 784, false),
        (32, 128, 784, true),
        (32, 10, 128, false),
        (32, 128, 128, false),
        (32, 128, 128, true),
        (32, 128, 192, false),
        (32, 128, 192, true),
        (32, 128, 256, false),
        (32, 128, 256, true),
        (32, 128, 384, false),
        (32, 128, 384, true),
    ] {
        let delta = filled(s * m, 7);
        let delta = if sparse { relu_sparse(delta) } else { delta };
        let x = filled(s * n, 8);
        let mut g = Matrix::zeros(m, n);
        let tag = if sparse { " relu-sparse" } else { "" };
        let rate = gmacs(s * m * n, || {
            ops::avx::gemm_tn_acc(black_box(&delta), &x, s, None, &mut g);
            black_box(&g);
        });
        report("gemm_tn_acc ymm", &format!("{s} x {m} x {n}{tag}"), rate);
        let rate = gmacs(s * m * n, || {
            ops::gemm_tn_acc(black_box(&delta), &x, s, None, &mut g);
            black_box(&g);
        });
        report("gemm_tn_acc", &format!("{s} x {m} x {n}{tag}"), rate);
    }

    // Transcendentals: gate pre-activations in (−4, 4), softmax arguments
    // (logit − max) in (−8, 0].
    println!("math::wide() = {}", math::wide());
    let gates = |len| filled(len, 9).iter().map(|v| 4.0 * v).collect::<Vec<_>>();
    let shifted: Vec<f32> = filled(256 * 400, 10)
        .iter()
        .map(|v| -4.0 * (v + 1.0))
        .collect();
    report_math(
        "math::tanh_slice",
        "256 x 48",
        &gates(256 * 48),
        math::tanh_slice,
        math::tanh,
        f32::tanh,
    );
    let host_sigmoid = |x: f32| {
        if x >= 0.0 {
            1.0 / (1.0 + (-x).exp())
        } else {
            let e = x.exp();
            e / (1.0 + e)
        }
    };
    report_math(
        "math::sigmoid_slice",
        "256 x 144",
        &gates(256 * 144),
        math::sigmoid_slice,
        math::sigmoid,
        host_sigmoid,
    );
    report_math(
        "math::exp_slice",
        "256 x 400",
        &shifted,
        math::exp_slice,
        math::exp,
        f32::exp,
    );

    // The Gaussian field's kernels on its own inputs: u1 ∈ (0, 1],
    // u2 ∈ [0, 1), both on the 24-bit grid.
    let key = stream_key(42, StreamTag::Data, 1, 0);
    let pixels = 64 * 784;
    let (u1, u2): (Vec<f32>, Vec<f32>) = (0..pixels as u64)
        .map(|i| math::gaussian_uniform_pair(key, i))
        .unzip();
    report_math(
        "math::ln_slice",
        "64 x 784",
        &u1,
        math::ln_slice,
        math::ln,
        f32::ln,
    );
    report_math(
        "math::cos2pi_slice",
        "64 x 784",
        &u2,
        math::cos2pi_slice,
        math::cos2pi,
        |u| (2.0 * std::f32::consts::PI * u).cos(),
    );
    let mut rng = stream(42, StreamTag::Data, 1, 0);
    println!(
        "{:<18} {:<22} {:>6.2} ns/element (scalar definition {:.2}, sequential draws + host libm {:.2})",
        "math::gaussian_slice",
        "64 x 784",
        ns_per_element(&u1, |out| math::gaussian_slice(key, 0, out)),
        ns_per_element(&u1, |out| {
            for (i, v) in out.iter_mut().enumerate() {
                *v = math::gaussian(key, i as u64);
            }
        }),
        ns_per_element(&u1, |out| {
            for v in out.iter_mut() {
                let (a, b): (f32, f32) = (rng.gen::<f32>().max(f32::MIN_POSITIVE), rng.gen());
                *v = (-2.0 * a.ln()).sqrt() * (2.0 * std::f32::consts::PI * b).cos();
            }
        }),
    );
}
