//! Quick manual timing probe for the batched kernels (dev aid).
use fedbiad_tensor::ops;
use fedbiad_tensor::Matrix;
use std::time::Instant;

fn main() {
    const K: usize = 784;
    const N: usize = 128;
    const M: usize = 32;
    let mut w = Matrix::zeros(N, K);
    for (i, v) in w.as_mut_slice().iter_mut().enumerate() {
        *v = (i % 17) as f32 * 0.1;
    }
    let x: Vec<f32> = (0..M * K).map(|i| (i % 13) as f32 * 0.1).collect();
    let mut c = vec![0.0f32; M * N];
    let reps = 200;
    let t0 = Instant::now();
    for _ in 0..reps {
        for i in 0..M {
            ops::gemv(&w, &x[i * K..(i + 1) * K], &[], &mut c[i * N..(i + 1) * N]);
        }
    }
    println!(
        "gemv loop: {:.2} GMAC/s",
        reps as f64 * (M * N * K) as f64 / t0.elapsed().as_secs_f64() / 1e9
    );
    let t0 = Instant::now();
    for _ in 0..reps {
        ops::gemm_nt(&x, &w, M, None, &mut c);
    }
    println!(
        "gemm_nt:   {:.2} GMAC/s",
        reps as f64 * (M * N * K) as f64 / t0.elapsed().as_secs_f64() / 1e9
    );
    let t0 = Instant::now();
    for _ in 0..reps {
        for i in 0..M {
            let xs = &x[i * K..(i + 1) * K];
            for j in 0..N {
                c[i * N + j] = ops::dot(xs, w.row(j));
            }
        }
    }
    println!(
        "dot loop:  {:.2} GMAC/s",
        reps as f64 * (M * N * K) as f64 / t0.elapsed().as_secs_f64() / 1e9
    );
    println!("{}", c.iter().sum::<f32>());
}
