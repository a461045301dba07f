//! `bench_perf` — the machine-readable perf harness behind
//! `BENCH_kernels.json`.
//!
//! Measures the batched execution engine against the per-sample
//! reference path on the hot loops the ROADMAP cares about — the batch-32
//! MLP local update first among them — plus the underlying GEMM kernels,
//! and writes one JSON report so every future PR can be diffed against
//! the committed baseline (see BENCHMARKS.md).
//!
//! ```text
//! cargo build --release -p fedbiad-bench --bin bench_perf
//! taskset -c 0 target/release/bench_perf \
//!     [--smoke] [--out PATH] [--gate BASELINE [--tolerance F]]
//! ```
//!
//! `--smoke` shrinks repetitions for CI; `--out` defaults to
//! `BENCH_kernels.json` in the current directory. `--gate BASELINE`
//! additionally compares the fresh run against the committed baseline
//! (speedup ratios, default tolerance 15 % — see `fedbiad_bench::gate`),
//! holds a one-thread parallel call under [`PAR_CALL_BUDGET_NS`], and
//! exits non-zero on any regression or missing entry. The gate must run
//! at the same fidelity the baseline was recorded at (full vs `--smoke`),
//! because smoke runs shrink cohort sizes and therefore change entry
//! names — and pinned to one core like the baseline, so every entry runs
//! at the pool width its `threads` field records.

use fedbiad_bench::gate::{self, BenchEntry, BenchReport};
use fedbiad_fl::algorithm::TrainConfig;
use fedbiad_fl::client::{run_local_training, LocalRunId, NoHooks};
use fedbiad_fl::round::evaluate_model;
use fedbiad_fl::workload::{build, Scale, Workload};
use fedbiad_nn::model::ReferencePath;
use fedbiad_tensor::rng::{stream, stream_key, StreamTag};
use fedbiad_tensor::{ops, Matrix};
use rand::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

/// θ-sampling's executable specification (the reference side of
/// `core/sample_theta_mlp`), shared with the property test that pins the
/// production pass to it.
#[path = "../../../core/tests/support/sample_theta_spec.rs"]
mod theta_spec;

/// `nn::softmax`'s executable specification (the reference side of
/// `math/softmax_256x400`), shared with the test that pins the production
/// loop to it.
#[path = "../../../nn/tests/support/softmax_spec.rs"]
mod softmax_spec;

/// The robust aggregators' stable-sort-and-fold specification (the
/// reference side of `stats/trimmed_column_128`), shared with the property
/// test that pins the keyed kernels to it.
#[path = "../../../tensor/tests/support/order_stat_spec.rs"]
mod order_stat_spec;

/// The comparator top-k (the reference side of `stats/top_k_abs_100k`
/// and, inside DGC, of `compress/dgc_101k`), shared with the property
/// test that pins the keyed selection to it.
#[path = "../../../tensor/tests/support/top_k_spec.rs"]
mod top_k_spec;

/// The client write side's specification (the reference sides of
/// `compress/fedpaq_101k` and `compress/dgc_101k`), shared with the
/// property tests that pin production to it.
#[path = "../../../compress/tests/support/write_spec.rs"]
mod write_spec;

/// One timed run of `f`, in ns.
fn time_once(f: &mut impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e9
}

/// Best-of-`samples` for a reference/batched pair, sampled alternately
/// (reference, batched, reference, …) rather than in two blocks, so
/// machine drift lands on both sides of the speedup ratio instead of
/// skewing whichever block ran during the quieter stretch. Minimum
/// rather than median: on a shared machine the contention tail is
/// one-sided, so the fastest observed run is the most stable estimate
/// of the true cost of the work.
fn time_pair_ns(
    samples: usize,
    mut reference: impl FnMut(),
    mut batched: impl FnMut(),
) -> (f64, f64) {
    reference();
    batched();
    let mut r = f64::INFINITY;
    let mut b = f64::INFINITY;
    for _ in 0..samples {
        r = r.min(time_once(&mut reference));
        b = b.min(time_once(&mut batched));
    }
    (r, b)
}

/// The pool width this process's parallel calls execute at: the requested
/// thread count capped at the machine's, as the vendored pool caps it.
/// Fixed for the run, so asked once.
fn pool_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
        rayon::current_num_threads().min(avail)
    })
}

fn entry(name: &str, reference_ns: f64, batched_ns: f64) -> BenchEntry {
    let e = BenchEntry {
        name: name.to_string(),
        reference_ns,
        batched_ns,
        speedup: reference_ns / batched_ns,
        threads: pool_width(),
        requires: None,
    };
    println!(
        "{:<34} reference {:>12.0} ns  batched {:>12.0} ns  speedup {:.2}x",
        e.name, e.reference_ns, e.batched_ns, e.speedup
    );
    e
}

/// One reference/batched pair, timed and pushed as the entry `label`.
fn timed_entry(
    samples: usize,
    label: &str,
    reference: impl FnMut(),
    batched: impl FnMut(),
    out: &mut Vec<BenchEntry>,
) {
    let (r, b) = time_pair_ns(samples, reference, batched);
    out.push(entry(label, r, b));
}

fn filled(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = stream(seed, StreamTag::Init, 0, 0);
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.gen_range(-1.0f32..1.0);
    }
    m
}

/// Every allocation of a page or more starts on a cache-line boundary.
///
/// The kernel entries' operands are 16–400 KB `Vec`s and `Matrix`es. The
/// system allocator aligns those to 16 bytes, and whether one also lands
/// on a 32-byte boundary — so whether every other 256-bit access of a
/// kernel straddles a cache line — depends on everything allocated before
/// it, down to the length of the `--out` path. With each side of an
/// entry in its own buffers that made `kernel/backprop_*` and
/// `kernel/grad_acc_*` bimodal (BENCHMARKS.md, "The perf gate"). Now
/// every operand of both sides is 64-byte aligned, and the two sides
/// write one shared scratch buffer, so neither alignment nor the 4 KiB
/// aliasing between an input and an output can differ between them.
///
/// A process-wide allocator, because the `Matrix` operands move with the
/// heap as much as the scratch slices do and `Matrix` owns a plain `Vec`.
/// The consequence is stated in BENCHMARKS.md: every entry of the ledger,
/// not just `kernel/*`, measures cache-line-aligned operands — which the
/// product's `Workspace` (4- or 16-byte aligned) does not provide.
struct CacheLineAligned;

impl CacheLineAligned {
    fn widen(layout: Layout) -> Layout {
        if layout.size() >= 4096 {
            layout.align_to(64).expect("64 is a valid alignment")
        } else {
            layout
        }
    }
}

// SAFETY: forwards to `System` with a layout that is a pure function of
// the caller's (same size, alignment raised to 64 for big blocks), so
// `dealloc` hands back exactly the layout `alloc` used. `realloc` is the
// trait's default — allocate, copy, free through the two methods above —
// which stays consistent when a size crosses the 4096-byte line.
unsafe impl GlobalAlloc for CacheLineAligned {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        System.alloc(Self::widen(layout))
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        System.alloc_zeroed(Self::widen(layout))
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, Self::widen(layout))
    }
}

#[global_allocator]
static ALLOC: CacheLineAligned = CacheLineAligned;

/// `kernel/forward_{m}x{n}x{k}`: `m` samples through an `n × k` weight
/// matrix — the per-sample `gemv` loop vs `gemm_nt`.
fn forward_entry(samples: usize, m: usize, n: usize, k: usize, out: &mut Vec<BenchEntry>) {
    let w = filled(n, k, 1);
    let x = filled(m, k, 3);
    let x = x.as_slice();
    let c = RefCell::new(vec![0.0f32; m * n]);
    timed_entry(
        samples,
        &format!("kernel/forward_{m}x{n}x{k}"),
        || {
            let mut c = c.borrow_mut();
            for (xi, ci) in x.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
                ops::gemv(&w, xi, &[], ci);
            }
        },
        || ops::gemm_nt(x, &w, m, None, &mut c.borrow_mut()),
        out,
    );
}

/// `kernel/backprop_{m}x{k}x{n}`: `m` rows of `k` deltas pushed back
/// through a `k × n` weight matrix — the per-sample `gemv_t` loop vs
/// `gemm_nn`.
fn backprop_entry(samples: usize, m: usize, k: usize, n: usize, out: &mut Vec<BenchEntry>) {
    let w = filled(k, n, 2);
    let delta = filled(m, k, 4);
    let delta = delta.as_slice();
    let dx = RefCell::new(vec![0.0f32; m * n]);
    timed_entry(
        samples,
        &format!("kernel/backprop_{m}x{k}x{n}"),
        || {
            let mut dx = dx.borrow_mut();
            for (di, dxi) in delta.chunks_exact(k).zip(dx.chunks_exact_mut(n)) {
                ops::gemv_t(&w, di, dxi);
            }
        },
        || ops::gemm_nn(delta, &w, m, None, &mut dx.borrow_mut()),
        out,
    );
}

/// `kernel/grad_acc_ord_{s}x{rows}x{cols}`: the lab LSTM's gradient
/// accumulation — 16 windows × 16 steps visited window-major,
/// step-descending into a `rows × cols` matrix (the gates' `4H × H`, the
/// head's `V × H`; H = 48). Reference = one AXPY per (row, sample), the
/// sequence the ordered kernel reproduces element for element.
fn grad_acc_ord_entry(samples: usize, rows: usize, cols: usize, out: &mut Vec<BenchEntry>) {
    const S: usize = 256;
    let dz = filled(S, rows, 5);
    let h = filled(S, cols, 6);
    let (dz, h) = (dz.as_slice(), h.as_slice());
    let order: Vec<usize> = (0..16)
        .flat_map(|w| (0..16).rev().map(move |t| t * 16 + w))
        .collect();
    let g = RefCell::new(Matrix::zeros(rows, cols));
    timed_entry(
        samples,
        &format!("kernel/grad_acc_ord_{S}x{rows}x{cols}"),
        || {
            let mut g = g.borrow_mut();
            g.zero();
            for row in 0..rows {
                for &s in &order {
                    let hs = &h[s * cols..(s + 1) * cols];
                    ops::axpy(dz[s * rows + row], hs, g.row_mut(row));
                }
            }
        },
        || {
            let mut g = g.borrow_mut();
            g.zero();
            ops::gemm_tn_acc_ord(dz, h, &order, 0, None, &mut g);
        },
        out,
    );
}

/// The four batched GEMMs at the shapes the scenario workloads run, each
/// against the per-sample primitive loop it replaces: the lab MLP's first
/// layer at batch 32 and at batch 1 (`million_sparse`), the lab LSTM's
/// gates and head at batch 16.
fn kernel_entries(samples: usize, out: &mut Vec<BenchEntry>) {
    forward_entry(samples, 32, 128, 784, out);
    forward_entry(samples, 16, 192, 48, out);
    forward_entry(samples, 1, 128, 784, out);

    // W1's gradient from a batch of 32: the `ger` sequence vs `gemm_tn_acc`.
    const M: usize = 32;
    const N: usize = 128;
    const K: usize = 784;
    let x = filled(M, K, 3);
    let delta = filled(M, N, 4);
    let (x, delta) = (x.as_slice(), delta.as_slice());
    let gw = RefCell::new(Matrix::zeros(N, K));
    timed_entry(
        samples,
        "kernel/grad_acc_32x128x784",
        || {
            let mut gw = gw.borrow_mut();
            gw.zero();
            for (ds, xs) in delta.chunks_exact(N).zip(x.chunks_exact(K)) {
                ops::ger(&mut gw, 1.0, ds, xs);
            }
        },
        || {
            let mut gw = gw.borrow_mut();
            gw.zero();
            ops::gemm_tn_acc(delta, x, M, None, &mut gw);
        },
        out,
    );

    backprop_entry(samples, 32, 128, 784, out);
    backprop_entry(samples, 16, 192, 48, out);
    grad_acc_ord_entry(samples, 192, 48, out);
    grad_acc_ord_entry(samples, 400, 48, out);
}

/// The host's GEMM tier by its `gate::TIERS` name.
fn host_tier() -> &'static str {
    gate::TIERS[ops::tier() as usize]
}

/// `kernel512/*`: the 512-bit register tiles — what `ops::gemm_*` runs
/// on an AVX-512F host — against the 256-bit tiles they stand beside
/// (`ops::avx`, the reference side), at the lab LSTM's shapes: the
/// ordered accumulation into the gates' `192 × 48` and the head's
/// `400 × 48` gradients (256 samples, the BPTT order of
/// `kernel/grad_acc_ord_*`), the batch-16 forward through the gates and
/// the batch-16 backprop through them. Each entry `requires` tier
/// `avx512f`; on a host without it both sides would be the same code, so
/// none is measured and `--gate` reports them as not applicable.
fn zmm_entries(samples: usize, out: &mut Vec<BenchEntry>) {
    /// `gemm_nt` / `gemm_nn`'s signature, and `gemm_tn_acc_ord`'s.
    type Product = fn(&[f32], &Matrix, usize, Option<&[u32]>, &mut [f32]);
    type OrderedAcc = fn(&[f32], &[f32], &[usize], usize, Option<&[u32]>, &mut Matrix);
    if ops::tier() != ops::Tier::Avx512 {
        println!("kernel512/*: host tier `{}`, not measured", host_tier());
        return;
    }
    let mut push = |label: &str, (r, b): (f64, f64)| {
        out.push(BenchEntry {
            requires: Some("avx512f".to_string()),
            ..entry(label, r, b)
        });
    };
    let order: Vec<usize> = (0..16)
        .flat_map(|w| (0..16).rev().map(move |t| t * 16 + w))
        .collect();
    for rows in [400, 192] {
        const COLS: usize = 48;
        let dz = filled(256, rows, 5);
        let h = filled(256, COLS, 6);
        let (dz, h) = (dz.as_slice(), h.as_slice());
        let g = RefCell::new(Matrix::zeros(rows, COLS));
        let run = |gemm: OrderedAcc| {
            let mut g = g.borrow_mut();
            g.zero();
            gemm(dz, h, &order, 0, None, &mut g);
        };
        push(
            &format!("kernel512/grad_acc_ord_256x{rows}x{COLS}"),
            time_pair_ns(
                samples,
                || run(ops::avx::gemm_tn_acc_ord),
                || run(ops::gemm_tn_acc_ord),
            ),
        );
    }
    let (m, n, k) = (16, 192, 48);
    let w = filled(n, k, 1);
    let x = filled(m, k, 3);
    let c = RefCell::new(vec![0.0f32; m * n]);
    let run = |gemm: Product| gemm(x.as_slice(), &w, m, None, &mut c.borrow_mut());
    push(
        &format!("kernel512/forward_{m}x{n}x{k}"),
        time_pair_ns(samples, || run(ops::avx::gemm_nt), || run(ops::gemm_nt)),
    );
    let w = filled(n, k, 2);
    let delta = filled(m, n, 4);
    let dx = RefCell::new(vec![0.0f32; m * k]);
    let run = |gemm: Product| gemm(delta.as_slice(), &w, m, None, &mut dx.borrow_mut());
    push(
        &format!("kernel512/backprop_{m}x{n}x{k}"),
        time_pair_ns(samples, || run(ops::avx::gemm_nn), || run(ops::gemm_nn)),
    );
}

/// `math/*` — `tensor::math`'s slice forms against its scalar definitions
/// one element at a time, at the lab LSTM's shapes over 256 rows (16
/// windows × 16 steps): one `g` gate of 48 per call, the `[i, f]` + `o`
/// gates as one 144, and a 400-way `softmax` row (reference: its
/// one-element-at-a-time specification). Operands are
/// gate pre-activations in (−4, 4) and logits in (−4, 4). Plus
/// `math/gaussian_784`, the Gaussian field at the synthetic image's shape.
fn math_entries(samples: usize, out: &mut Vec<BenchEntry>) {
    use fedbiad_tensor::math;
    const ROWS: usize = 256;
    let operands = |cols: usize, seed: u64| {
        let mut m = filled(ROWS, cols, seed);
        m.as_mut_slice().iter_mut().for_each(|v| *v *= 4.0);
        m
    };
    type Pair = (&'static str, usize, fn(f32) -> f32, fn(&mut [f32]));
    let pairs: [Pair; 2] = [
        ("math/tanh_256x48", 48, math::tanh, math::tanh_slice),
        (
            "math/sigmoid_256x144",
            144,
            math::sigmoid,
            math::sigmoid_slice,
        ),
    ];
    for (label, cols, scalar, slice) in pairs {
        let input = operands(cols, 11);
        let buf = RefCell::new(input.clone());
        timed_entry(
            samples,
            label,
            || {
                let mut buf = buf.borrow_mut();
                buf.as_mut_slice().copy_from_slice(input.as_slice());
                for v in buf.as_mut_slice() {
                    *v = scalar(*v);
                }
            },
            || {
                let mut buf = buf.borrow_mut();
                buf.as_mut_slice().copy_from_slice(input.as_slice());
                for row in buf.as_mut_slice().chunks_exact_mut(cols) {
                    slice(row);
                }
            },
            out,
        );
    }

    let input = operands(400, 12);
    let buf = RefCell::new(input.clone());
    timed_entry(
        samples,
        "math/softmax_256x400",
        || {
            let mut buf = buf.borrow_mut();
            buf.as_mut_slice().copy_from_slice(input.as_slice());
            for row in buf.as_mut_slice().chunks_exact_mut(400) {
                softmax_spec::softmax(row);
            }
        },
        || {
            let mut buf = buf.borrow_mut();
            buf.as_mut_slice().copy_from_slice(input.as_slice());
            for row in buf.as_mut_slice().chunks_exact_mut(400) {
                fedbiad_nn::softmax::softmax(row);
            }
        },
        out,
    );

    // One synthetic image's pixel noise, 64 images a call: the field's
    // definition element by element vs `gaussian_slice`.
    const PIXELS: usize = 784;
    let key = stream_key(11, StreamTag::Data, 1, 0);
    let noise = RefCell::new(vec![0.0f32; 64 * PIXELS]);
    timed_entry(
        samples,
        "math/gaussian_784",
        || {
            for (i, v) in noise.borrow_mut().iter_mut().enumerate() {
                *v = math::gaussian(key, i as u64);
            }
        },
        || {
            for (i, image) in noise.borrow_mut().chunks_exact_mut(PIXELS).enumerate() {
                math::gaussian_slice(key, (i * PIXELS) as u64, image);
            }
        },
        out,
    );
}

/// [`POOL_ENTRY`] — what a parallel call costs before it does anything:
/// 1 000 `par_chunks_exact_mut` calls with an empty body on one worker
/// thread (the configuration the end-to-end benchmark times), nanoseconds
/// per call, beside one `available_parallelism()` query — the syscall +
/// cgroup reads the pool used to make on every call and now makes once
/// per process. The query's cost is the host's (its kernel, its cgroup
/// version), so this entry's ratio is recorded but not gated: `--gate`
/// holds the call itself under [`PAR_CALL_BUDGET_NS`] instead.
fn pool_entry(samples: usize, out: &mut Vec<BenchEntry>) {
    use rayon::prelude::*;
    use std::hint::black_box;
    const CALLS: usize = 1_000;
    let prev_threads = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let mut chunked = [0u32; 64];
    let (r, b) = time_pair_ns(
        samples,
        || {
            for _ in 0..CALLS {
                black_box(std::thread::available_parallelism().map_or(1, |n| n.get()));
            }
        },
        || {
            for _ in 0..CALLS {
                black_box(&mut chunked)
                    .par_chunks_exact_mut(8)
                    .for_each(|chunk| {
                        black_box(chunk);
                    });
            }
        },
    );
    out.push(BenchEntry {
        threads: 1,
        ..entry(POOL_ENTRY, r / CALLS as f64, b / CALLS as f64)
    });
    match prev_threads {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
}

/// The one entry `--gate` holds to an absolute budget, not to a ratio.
const POOL_ENTRY: &str = "pool/par_call_overhead";

/// The most a one-thread parallel call may cost under `--gate`, in ns
/// (≈ 60 measured; ≈ 13 000 when every call asked the OS for the
/// machine's width).
const PAR_CALL_BUDGET_NS: f64 = 1_000.0;

/// `nn/lstm_loss_grad_kept50` — one batched LSTM call (lab PTB shapes,
/// 16 windows) on a θ whose row units a uniform p = 0.5 pattern zeroed:
/// dense through the zeros (no view, the specification) vs the same θ
/// with its kept-row view. The ratio collapses to 1 if the view stops
/// reaching the kernels.
fn kept_rows_entry(smoke: bool, samples: usize, out: &mut Vec<BenchEntry>) {
    use fedbiad_core::{keep_count, DropPattern};
    use fedbiad_nn::{Batch, RowWork};
    use fedbiad_tensor::Workspace;

    let scale = if smoke { Scale::Smoke } else { Scale::Lab };
    let bundle = build(Workload::PtbLike, scale, 7);
    let model = bundle.model.as_ref();
    let mut theta = model.init_params(&mut stream(7, StreamTag::Init, 0, 0));
    let j = theta.num_row_units();
    let pattern = DropPattern::sample_global(
        j,
        keep_count(j, 0.5),
        &mut stream(7, StreamTag::Pattern, 0, 0),
    );
    let mask = pattern.to_mask(&theta);
    mask.apply(&mut theta);
    let kept = mask.kept_rows();
    let fedbiad_data::ClientData::Text(set) = &bundle.data.clients[0] else {
        panic!("ptb clients hold text");
    };
    let windows: Vec<&[u32]> = (0..16.min(set.num_windows()))
        .map(|i| set.window(i))
        .collect();
    let batch = Batch::Seq { windows: &windows };
    let (mut g_r, mut g_b) = (theta.zeros_like(), theta.zeros_like());
    let (mut ws_r, mut ws_b) = (Workspace::new(), Workspace::new());
    let mut work = RowWork::default();
    let (r, b) = time_pair_ns(
        samples,
        || {
            g_r.zero();
            model.loss_grad_batched(&theta, &batch, &mut g_r, &mut ws_r);
        },
        || {
            g_b.zero();
            model.loss_grad_kept(&theta, Some(&kept), &batch, &mut g_b, &mut ws_b, &mut work);
        },
    );
    out.push(entry("nn/lstm_loss_grad_kept50", r, b));
}

fn local_update_entries(smoke: bool, samples: usize, out: &mut Vec<BenchEntry>) {
    // The acceptance bench: one batch-32 MLP local update (the client's
    // full per-round work at lab scale), per-sample path vs batched.
    let scale = if smoke { Scale::Smoke } else { Scale::Lab };
    for (workload, label) in [
        (Workload::MnistLike, "local_update/mlp_batch32"),
        (Workload::PtbLike, "local_update/lstm_batch16"),
    ] {
        let bundle = build(workload, scale, 7);
        let model = bundle.model.as_ref();
        let reference = ReferencePath(model);
        let global = model.init_params(&mut stream(7, StreamTag::Init, 0, 0));
        let cfg = TrainConfig {
            local_iters: if smoke { 2 } else { 8 },
            batch_size: if workload == Workload::MnistLike {
                32
            } else {
                16
            },
            ..bundle.train
        };
        let data = &bundle.data.clients[0];
        let id = LocalRunId {
            seed: 7,
            round: 0,
            client: 0,
        };
        let (r, b) = time_pair_ns(
            samples,
            || {
                let mut u = global.clone();
                run_local_training(id, &reference, data, &cfg, &mut u, &mut NoHooks);
            },
            || {
                let mut u = global.clone();
                run_local_training(id, model, data, &cfg, &mut u, &mut NoHooks);
            },
        );
        out.push(entry(label, r, b));

        let (r, b) = time_pair_ns(
            samples,
            || {
                evaluate_model(
                    &reference,
                    &global,
                    &bundle.data.test,
                    bundle.eval_topk,
                    512,
                );
            },
            || {
                evaluate_model(model, &global, &bundle.data.test, bundle.eval_topk, 512);
            },
        );
        out.push(entry(&label.replace("local_update", "evaluate"), r, b));
    }
}

/// FedBIAD-style masked-weights uploads (p = 0.5 row coverage) as both
/// the dense decoded twin (the oracle's input) and the wire-encoded frame
/// clients send.
fn masked_uploads(
    global: &fedbiad_nn::ParamSet,
    clients: usize,
) -> (
    Vec<fedbiad_fl::upload::Upload>,
    Vec<fedbiad_fl::upload::Upload>,
) {
    use fedbiad_core::pattern::{keep_count, DropPattern};
    use fedbiad_fl::aggregate::dense_twin;
    use fedbiad_fl::upload::Upload;

    let j = global.num_row_units();
    let wire: Vec<Upload> = (0..clients)
        .map(|k| {
            let mut rng = stream(42, StreamTag::Pattern, 0, k as u64);
            let pat = DropPattern::sample_global(j, keep_count(j, 0.5), &mut rng);
            Upload::masked_weights(global.clone(), pat.to_mask(global))
        })
        .collect();
    let dense = wire
        .iter()
        .map(|u| dense_twin(global, u).expect("honest frame decodes"))
        .collect();
    (dense, wire)
}

/// Sketched delta uploads from a real compressor payload, as the wire
/// frame per client.
fn delta_uploads(
    global: &fedbiad_nn::ParamSet,
    comp: &dyn fedbiad_compress::Compressor,
    clients: usize,
) -> Vec<fedbiad_fl::upload::Upload> {
    use fedbiad_compress::{codec, ClientState};
    use fedbiad_fl::upload::{Upload, UploadKind};
    use fedbiad_nn::ModelMask;

    let n = global.flatten().len();
    (0..clients)
        .map(|k| {
            let mut drng = stream(43, StreamTag::Init, 1, k as u64);
            let delta: Vec<f32> = (0..n).map(|_| drng.gen_range(-0.05f32..0.05)).collect();
            let mut st = ClientState::default();
            let mut crng = stream(44, StreamTag::Compress, 0, k as u64);
            let c = comp.compress(&mut st, &delta, 0, &mut crng);
            Upload::wire(
                UploadKind::Delta,
                codec::encode_delta(&c.payload),
                ModelMask::full(global),
                c.wire_bytes,
            )
        })
        .collect()
}

/// Server-side aggregation: the dense oracle (fed dense twins) vs the
/// sharded streaming engine (fed the wire frames), at the pool width the
/// process runs at (each entry records it as `threads`; the committed
/// baseline is taken under `taskset -c 0`, width 1). Four cohorts at MLP
/// scale:
/// masked weights at the standard (20-client) and large (200-client)
/// cohort sizes, plus sketched deltas through a sparse-f32 payload (DGC)
/// and a bit-packed 8-bit payload (FedPAQ). The streaming runs consume
/// real wire-encoded bodies, so the numbers include decode cost. Smoke
/// runs shrink the cohorts (8 / 40 clients), which changes the entry
/// names — gate against a baseline of matching fidelity.
fn aggregation_entries(smoke: bool, samples: usize, out: &mut Vec<BenchEntry>) {
    use fedbiad_compress::dgc::Dgc;
    use fedbiad_compress::fedpaq::FedPaq;
    use fedbiad_fl::aggregate::{
        aggregate_deltas, aggregate_weights, dense_twin, AggSettings, RobustKind, ZeroMode,
    };
    use fedbiad_fl::upload::Upload;
    use fedbiad_nn::mlp::MlpModel;
    use fedbiad_nn::Model;

    let model = MlpModel::new(784, 128, 10);
    let global = model.init_params(&mut stream(41, StreamTag::Init, 0, 0));
    let clients = if smoke { 8 } else { 20 };
    let big = if smoke { 40 } else { 200 };
    // The two engines' single-core costs differ by little more than the
    // machine's noise floor, so these entries get extra rounds for the
    // minima to converge.
    let samples = if smoke { samples } else { samples * 4 };

    for cohort in [clients, big] {
        let (dense_ups, wire_ups) = masked_uploads(&global, cohort);
        timed_entry(
            samples,
            &format!("aggregate/stalefill_{cohort}c"),
            || {
                let mut g = global.clone();
                let ups: Vec<(f32, &Upload)> = dense_ups.iter().map(|u| (1.0, u)).collect();
                aggregate_weights(&mut g, &ups, ZeroMode::StaleFill, AggSettings::default())
                    .unwrap();
            },
            || {
                let mut g = global.clone();
                let ups: Vec<(f32, &Upload)> = wire_ups.iter().map(|u| (1.0, u)).collect();
                aggregate_weights(&mut g, &ups, ZeroMode::StaleFill, AggSettings::sharded(64))
                    .unwrap();
            },
            out,
        );
    }

    // The robust estimator family: the per-coordinate trimmed mean (20%
    // per tail) is an order statistic, so neither engine can stream it as
    // a fold — both gather per-coordinate columns and order them, the
    // dense engine one coordinate at a time, the streaming engine four at
    // a time through the tile kernel. This entry pins the streaming
    // engine (fused wire decode, arena scratch, tile kernel) against the
    // dense per-coordinate path, the robust analogue of the stalefill
    // entries above.
    {
        let (dense_ups, wire_ups) = masked_uploads(&global, clients);
        let trimmed = RobustKind::TrimmedMean { trim_frac: 0.2 };
        timed_entry(
            samples,
            &format!("aggregate/trimmed_mean_{clients}c"),
            || {
                let mut g = global.clone();
                let ups: Vec<(f32, &Upload)> = dense_ups.iter().map(|u| (1.0, u)).collect();
                aggregate_weights(
                    &mut g,
                    &ups,
                    ZeroMode::StaleFill,
                    AggSettings::default().with_robust(trimmed),
                )
                .unwrap();
            },
            || {
                let mut g = global.clone();
                let ups: Vec<(f32, &Upload)> = wire_ups.iter().map(|u| (1.0, u)).collect();
                aggregate_weights(
                    &mut g,
                    &ups,
                    ZeroMode::StaleFill,
                    AggSettings::sharded(64).with_robust(trimmed),
                )
                .unwrap();
            },
            out,
        );
    }

    let sparse = Dgc {
        keep_fraction: 0.25,
        momentum: 0.9,
        warmup_rounds: 0,
    };
    let quant = FedPaq::paper();
    for (label, comp) in [
        ("sparse_f32", &sparse as &dyn fedbiad_compress::Compressor),
        ("quant8", &quant as &dyn fedbiad_compress::Compressor),
    ] {
        let wire_ups = delta_uploads(&global, comp, clients);
        timed_entry(
            samples,
            &format!("aggregate/delta_{label}_{clients}c"),
            || {
                // Both engines start from the same wire frames: the
                // oracle must first materialise each client's dense
                // delta (decode + unflatten), exactly the per-client
                // O(model) buffers the streaming engine exists to avoid.
                let mut g = global.clone();
                let dense_ups: Vec<Upload> = wire_ups
                    .iter()
                    .map(|u| dense_twin(&global, u).expect("honest frame decodes"))
                    .collect();
                let ups: Vec<(f32, &Upload)> = dense_ups.iter().map(|u| (1.0, u)).collect();
                aggregate_deltas(&mut g, &ups, AggSettings::default()).unwrap();
            },
            || {
                let mut g = global.clone();
                let ups: Vec<(f32, &Upload)> = wire_ups.iter().map(|u| (1.0, u)).collect();
                aggregate_deltas(&mut g, &ups, AggSettings::sharded(64)).unwrap();
            },
            out,
        );
    }
}

/// One full simulated round over a lazily registered million-client
/// population (10⁵ in smoke mode — the name changes, gate at matching
/// fidelity). Reference = the legacy `Shuffle` sampler, which is O(K)
/// per round (it enumerates and shuffles every registered id); batched
/// = the `Sparse` (Floyd's) sampler, O(cohort). Everything else —
/// lazy shard derivation, on-demand profiles, tree-reduced streaming
/// aggregation — is identical on both sides, so the pinned speedup
/// measures exactly the cost of touching the registered population, and
/// collapses toward 1.0 if an O(K)-per-round scan creeps back into the
/// sparse path.
fn sim_entries(smoke: bool, samples: usize, out: &mut Vec<BenchEntry>) {
    use fedbiad_fl::aggregate::AggSettings;
    use fedbiad_fl::round::SamplerKind;
    use fedbiad_fl::runner::ExperimentConfig;
    use fedbiad_fl::workload::{build_with, PopulationOverride, WorkloadOverrides};
    use fedbiad_sim::{HeterogeneityProfile, SimConfig, Simulator, SyncBarrier};

    let (clients, label) = if smoke {
        (100_000usize, "sim/million_round_smoke")
    } else {
        (1_000_000usize, "sim/million_round")
    };
    let overrides = WorkloadOverrides {
        population: Some(PopulationOverride {
            clients,
            samples_per_client: 60,
        }),
        ..Default::default()
    };
    let bundle = build_with(Workload::MnistLike, Scale::Smoke, 42, &overrides);
    let cfg = |sampler: SamplerKind| ExperimentConfig {
        rounds: 1,
        client_fraction: 0.1,
        seed: 42,
        train: bundle.train,
        eval_topk: bundle.eval_topk,
        eval_every: 1,
        eval_max_samples: 64,
        agg: AggSettings::sharded_tree(64, 16),
        cohort: Some(64),
        sampler,
        ..Default::default()
    };
    let run = |sampler: SamplerKind| {
        let sim_cfg = SimConfig::new(cfg(sampler), HeterogeneityProfile::homogeneous_5g());
        let report = Simulator::new(
            bundle.model.as_ref(),
            &bundle.data,
            fedbiad_core::baselines::FedAvg::new(),
            SyncBarrier,
            sim_cfg,
        )
        .run();
        assert_eq!(report.log.records.len(), 1);
    };
    let (r, b) = time_pair_ns(
        samples,
        || run(SamplerKind::Shuffle),
        || run(SamplerKind::Sparse),
    );
    out.push(entry(label, r, b));
}

/// PR 12's two hot-path rewrites, each against the definition it
/// replaced.
///
/// * `core/sample_theta_mlp` — one local update's worth of
///   θ ~ β∘N(U, s̃²I) on the MLP at p = 0.5 with eq. (13)'s s̃: the
///   executable specification (clone U, evaluate the Gaussian field at
///   every element, zero the dropped units) vs `sample_theta_into` on a
///   persistent buffer, which evaluates it only where the add can move
///   the weight (≈ 1.6 % of P). The ratio collapses toward 1 if the
///   no-op skip stops firing or a per-step allocation comes back.
/// * `stats/top_k_abs_100k` — a magnitude top-1 % of 10⁵ values in rank
///   order: the comparator selection + k-prefix sort it replaced vs the
///   keyed selection + a sort of the k keys.
fn hot_path_entries(smoke: bool, samples: usize, out: &mut Vec<BenchEntry>) {
    use fedbiad_core::spike_slab::{
        client_total_data, resolve_noise, sample_theta_into, NoiseLevel,
    };
    use fedbiad_core::{keep_count, DropPattern};
    use std::hint::black_box;

    let scale = if smoke { Scale::Smoke } else { Scale::Lab };
    let bundle = build(Workload::MnistLike, scale, 7);
    let model = bundle.model.as_ref();
    let u = model.init_params(&mut stream(7, StreamTag::Init, 0, 0));
    let steps = bundle.train.local_iters;
    let (arch, p) = (model.arch(), 0.5f32);
    let s_tilde = resolve_noise(
        NoiseLevel::Theory,
        &arch,
        (arch.total_weights as f64 * (1.0 - p) as f64) as usize,
        client_total_data(1, steps, bundle.data.clients[0].num_samples()),
        2.0,
    );
    let j = u.num_row_units();
    let pattern = DropPattern::sample_global(
        j,
        keep_count(j, p),
        &mut stream(7, StreamTag::Pattern, 0, 0),
    );
    let rows_kept = pattern.rows_kept(&u);
    let mut theta = u.clone();
    let key = stream_key(7, StreamTag::PosteriorNoise, 0, 0);
    let (r, b) = time_pair_ns(
        samples,
        || {
            for v in 0..steps as u64 {
                black_box(theta_spec::sample_theta(&u, &pattern.beta, s_tilde, key, v));
            }
        },
        || {
            for v in 0..steps as u64 {
                black_box(sample_theta_into(
                    &mut theta, &u, &rows_kept, s_tilde, key, v,
                ));
            }
        },
    );
    out.push(entry("core/sample_theta_mlp", r, b));

    const N: usize = 100_000;
    let mut rng = stream(8, StreamTag::Compress, 0, 0);
    let xs: Vec<f32> = (0..N).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let (r, b) = time_pair_ns(
        samples,
        || {
            black_box(top_k_spec::top_k_abs_indices(&xs, N / 100));
        },
        || {
            use fedbiad_tensor::stats::{abs_rank, key_pos, top_k_keys};
            let mut keys = top_k_keys(&xs, N / 100, abs_rank);
            keys.sort_unstable();
            black_box(keys.iter().map(|&key| key_pos(key)).collect::<Vec<_>>());
        },
    );
    out.push(entry("stats/top_k_abs_100k", r, b));
}

/// The client write side on the MLP's 101 770-parameter delta, each
/// against its specification (`compress/tests/support/write_spec.rs`):
///
/// * `compress/fedpaq_101k` — FedPAQ's 8-bit scale and codes: the
///   `fold(max)` and per-element `round().clamp()` (a libm call on the
///   baseline target) vs `ops::max_abs` + `ops::quantise`.
/// * `compress/dgc_101k` — one DGC round at the round-0 (25 %) and the
///   round-4 (0.1 %) keep fraction, from a fresh state, through
///   `Compressed`: the comparator top-k and the sorting payload
///   constructor vs the keyed selection with positions sorted once.
fn compress_entries(samples: usize, out: &mut Vec<BenchEntry>) {
    use fedbiad_compress::dgc::Dgc;
    use fedbiad_compress::{ClientState, Compressed, Compressor};
    use std::hint::black_box;

    const N: usize = 101_770;
    let mut rng = stream(28, StreamTag::Compress, 0, 0);
    let xs: Vec<f32> = (0..N).map(|_| rng.gen_range(-0.05f32..0.05)).collect();
    let mut codes = vec![0u16; N];
    let (r, b) = time_pair_ns(
        samples,
        || {
            black_box(write_spec::quantise(&xs, 8));
        },
        || {
            let scale = ops::max_abs(&xs);
            ops::quantise(&xs, 127.0 / scale, 127, &mut codes);
            black_box((scale, &codes));
        },
    );
    out.push(entry("compress/fedpaq_101k", r, b));

    let dgc = Dgc::paper();
    let mut stream_rng = stream(28, StreamTag::Compress, 1, 0);
    let (r, b) = time_pair_ns(
        samples,
        || {
            for round in [0, 4] {
                let mut st = ClientState::default();
                let p = write_spec::dgc(&dgc, &mut st, &xs, round, top_k_spec::top_k_abs_indices);
                black_box(Compressed::from_payload(p));
            }
        },
        || {
            for round in [0, 4] {
                let mut st = ClientState::default();
                black_box(dgc.compress(&mut st, &xs, round, &mut stream_rng));
            }
        },
    );
    out.push(entry("compress/dgc_101k", r, b));
}

/// `stats/trimmed_column_128` — the per-coordinate work of
/// `server_reduce`'s trimmed mean: 4 096 columns of 128 clients at 50 %
/// coverage, trim depth 25 per tail. Reference = the specification
/// (gather the covered `(value, weight)` pairs, stable `total_cmp` sort,
/// fold the survivors); batched = the production gather into order keys
/// and `keyed_trimmed_sum` (two selections, survivors sorted). Both fold
/// the same bits; the ratio is what the keyed selection saves.
fn trimmed_column_entry(samples: usize, out: &mut Vec<BenchEntry>) {
    use fedbiad_tensor::stats::{keyed_trimmed_sum, order_key};
    use std::hint::black_box;

    const CLIENTS: usize = 128;
    const COLUMNS: usize = 4096;
    const K: usize = 25;
    let mut rng = stream(26, StreamTag::Init, 0, 0);
    let vals: Vec<f32> = (0..CLIENTS * COLUMNS)
        .map(|_| rng.gen_range(-0.05f32..0.05))
        .collect();
    let covered: Vec<bool> = (0..CLIENTS * COLUMNS).map(|_| rng.gen_bool(0.5)).collect();
    let ws: Vec<f32> = (0..CLIENTS)
        .map(|_| rng.gen_range(40u32..80) as f32)
        .collect();
    let column = |c: usize| (0..CLIENTS).map(move |i| (i, c * CLIENTS + i));
    let mut pairs: Vec<(f32, f32)> = Vec::with_capacity(CLIENTS);
    let mut keys = vec![0u64; CLIENTS];
    let (r, b) = time_pair_ns(
        samples,
        || {
            for c in 0..COLUMNS {
                pairs.clear();
                pairs.extend(
                    column(c)
                        .filter(|&(_, j)| covered[j])
                        .map(|(i, j)| (vals[j], ws[i])),
                );
                if pairs.len() > 2 * K {
                    order_stat_spec::sort_weighted_by_value(&mut pairs);
                    black_box(order_stat_spec::trimmed_weighted_sum(&pairs, K));
                }
            }
        },
        || {
            for c in 0..COLUMNS {
                let mut m = 0;
                for (i, j) in column(c) {
                    keys[m] = order_key(vals[j], i);
                    m += usize::from(covered[j]);
                }
                black_box(keyed_trimmed_sum(&mut keys[..m], K, |i| ws[i]));
            }
        },
    );
    out.push(entry("stats/trimmed_column_128", r, b));
}

/// `stats/trimmed_tile_128` and `stats/trimmed_tile_128_percol` — the
/// streaming trimmed mean's column tile at `server_reduce`'s shape: one
/// `128 × 256` block of decoded values (client-major, as the engine
/// decodes it: ⌊32 768 / 128⌋ columns, 128 KiB, L2-resident), 50 %
/// coverage, trim depth 25 per tail, combined 64 times. Reference = the
/// per-coordinate path the streaming engine ran before the tile kernel
/// (gather each column's covered keys from the coverage block,
/// `keyed_trimmed_sum`); batched = `KeyTile`, four columns per network.
/// `_128` covers whole 128-column row pieces per client, as FedBIAD's
/// row masks do: one participant list per row piece, one four-column
/// load per participant. `_percol` draws coverage per cell (`RowsCols` /
/// `Elements` masks), so each lane gathers its own participants from the
/// coverage block — no benchmark workload runs that path, and this entry
/// holds it at or above the per-coordinate speed.
fn trimmed_tile_entries(samples: usize, out: &mut Vec<BenchEntry>) {
    use fedbiad_tensor::stats::{keyed_trimmed_sum, order_key, KeyTile, LANES};
    use std::hint::black_box;

    const CLIENTS: usize = 128;
    const COLUMNS: usize = 256;
    const ROW: usize = 128;
    const PASSES: usize = 64;
    const K: usize = 25;
    let mut rng = stream(29, StreamTag::Init, 0, 0);
    let vals: Vec<f32> = (0..CLIENTS * COLUMNS)
        .map(|_| rng.gen_range(-0.05f32..0.05))
        .collect();
    let ws: Vec<f32> = (0..CLIENTS)
        .map(|_| rng.gen_range(40u32..80) as f32)
        .collect();
    let row_cov: Vec<bool> = (0..CLIENTS * COLUMNS / ROW)
        .map(|_| rng.gen_bool(0.5))
        .collect();
    let cell_cov: Vec<f32> = (0..CLIENTS * COLUMNS)
        .map(|_| f32::from(u8::from(rng.gen_bool(0.5))))
        .collect();
    let row_cov_cells: Vec<f32> = (0..CLIENTS * COLUMNS)
        .map(|c| f32::from(u8::from(row_cov[c / ROW])))
        .collect();
    let mut keys = vec![0u64; CLIENTS];
    let mut tile = KeyTile::new();
    let mut parts: Vec<usize> = Vec::with_capacity(CLIENTS);

    // Today's per-coordinate path over a coverage block.
    let mut per_column = |cov: &[f32]| {
        for _ in 0..PASSES {
            for j in 0..COLUMNS {
                let mut m = 0;
                for i in 0..CLIENTS {
                    let c = i * COLUMNS + j;
                    keys[m] = order_key(vals[c], i);
                    m += usize::from(cov[c] != 0.0);
                }
                black_box(keyed_trimmed_sum(&mut keys[..m], K, |i| ws[i]));
            }
        }
    };
    let (r, b) = time_pair_ns(
        samples,
        || per_column(&row_cov_cells),
        || {
            for _ in 0..PASSES {
                for row in 0..COLUMNS / ROW {
                    parts.clear();
                    parts.extend((0..CLIENTS).filter(|&i| row_cov[i * COLUMNS / ROW + row]));
                    for j0 in (row * ROW..(row + 1) * ROW).step_by(LANES) {
                        tile.clear(parts.len());
                        tile.push_columns(&vals, COLUMNS, j0, &parts);
                        tile.sort();
                        for l in 0..LANES {
                            black_box(tile.trimmed_sum(l, K, |i| ws[i]));
                        }
                    }
                }
            }
        },
    );
    out.push(entry("stats/trimmed_tile_128", r, b));

    let (r, b) = time_pair_ns(
        samples,
        || per_column(&cell_cov),
        || {
            for _ in 0..PASSES {
                for j0 in (0..COLUMNS).step_by(LANES) {
                    tile.clear(CLIENTS);
                    for i in 0..CLIENTS {
                        for l in 0..LANES {
                            let c = i * COLUMNS + j0 + l;
                            tile.push_if(l, order_key(vals[c], i), cell_cov[c] != 0.0);
                        }
                    }
                    tile.sort();
                    for l in 0..LANES {
                        black_box(tile.trimmed_sum(l, K, |i| ws[i]));
                    }
                }
            }
        },
    );
    out.push(entry("stats/trimmed_tile_128_percol", r, b));
}

/// `data/lazy_shard_24of60` — what one `million_sparse` dispatch does to
/// its shard, over 256 clients of the smoke image spec: the whole-shard
/// specification `LazyClients::client_data` (60 samples derived) vs a
/// `ShardReader` fed the batch-1 × 24 index stream `run_local_training`
/// draws (≈ 20 distinct samples derived, the other ≈ 40 never touched).
/// Both sides are the same per-sample function, so the ratio is the
/// share of the shard a run reads (≈ 3x); it collapses to ≤ 1 if lookup
/// goes back to materialising, or if a sample nobody reads starts
/// costing something.
fn lazy_shard_entry(samples: usize, out: &mut Vec<BenchEntry>) {
    use fedbiad_fl::workload::{build_with, PopulationOverride, WorkloadOverrides};
    use std::hint::black_box;

    const CLIENTS: usize = 256;
    const SHARD: usize = 60;
    let overrides = WorkloadOverrides {
        population: Some(PopulationOverride {
            clients: CLIENTS,
            samples_per_client: SHARD,
        }),
        ..Default::default()
    };
    let bundle = build_with(Workload::MnistLike, Scale::Smoke, 7, &overrides);
    let lazy = bundle.data.lazy.as_ref().expect("population is lazy");
    let reads = bundle.train.local_iters;
    assert_eq!(reads, 24, "the entry's name states the read count");
    let (r, b) = time_pair_ns(
        samples,
        || {
            for c in 0..CLIENTS {
                black_box(lazy.client_data(c));
            }
        },
        || {
            let (mut bx, mut by) = (Vec::new(), Vec::new());
            for c in 0..CLIENTS {
                let view = lazy.shard(c);
                let mut reader = view.reader();
                let mut rng = stream(7, StreamTag::Batch, 0, c as u64);
                for _ in 0..reads {
                    reader.gather(&[rng.gen_range(0..SHARD)], &mut bx, &mut by);
                    black_box(&bx);
                }
            }
        },
    );
    out.push(entry("data/lazy_shard_24of60", r, b));
}

/// `vertical/*`: the vectorization guard. `ops`' element-wise kernels are
/// each one scalar loop that the compiler vectorizes; if it stopped, every
/// bit would stay the same and only the time would say so. Each entry
/// times a kernel against the same loop with a `black_box` on every
/// element, which keeps that loop scalar; both sides write one shared
/// output, so the entry's working set stays inside L1:
///
/// * `vertical/axpy_from_le_bytes_4096` — the dense wire frame's fused
///   decode + accumulate over 4 096 weights;
/// * `vertical/holders_combine_scalar_20` — the row-granular holders
///   combine, one call per row of 20 elements (a short FedBIAD row
///   extent), over 128 rows with their own denominators;
/// * `vertical/dequant_u8_4096` — FedPAQ's 8-bit wire decode of 4 096
///   codes;
/// * `vertical/sign_apply_from_bits_4096` — signSGD's sign-expand decode
///   of a 4 096-bit bitmap.
fn vertical_entries(samples: usize, out: &mut Vec<BenchEntry>) {
    use std::hint::black_box;

    const N: usize = 4096;
    let mut rng = stream(33, StreamTag::Compress, 0, 0);
    let bytes: Vec<u8> = (0..N)
        .flat_map(|_| rng.gen_range(-1.0f32..1.0).to_le_bytes())
        .collect();
    let alpha = 0.25f32;
    let y = RefCell::new(vec![0.0f32; N]);
    timed_entry(
        samples,
        "vertical/axpy_from_le_bytes_4096",
        || {
            let mut y = y.borrow_mut();
            for (y, b) in y.iter_mut().zip(bytes.as_chunks::<4>().0) {
                *y += alpha * black_box(f32::from_le_bytes(*b));
            }
        },
        || ops::axpy_from_le_bytes(alpha, &bytes, &mut y.borrow_mut()),
        out,
    );

    const ROW: usize = 20;
    const ROWS: usize = 128;
    let num: Vec<f32> = (0..ROWS * ROW)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let dens: Vec<f32> = (0..ROWS).map(|_| rng.gen_range(1.0f32..8.0)).collect();
    let g = RefCell::new(vec![0.0f32; ROWS * ROW]);
    timed_entry(
        samples,
        "vertical/holders_combine_scalar_20",
        || {
            let mut g = g.borrow_mut();
            for ((g, num), &den) in g
                .chunks_exact_mut(ROW)
                .zip(num.chunks_exact(ROW))
                .zip(&dens)
            {
                if den > 0.0 {
                    for (g, &n) in g.iter_mut().zip(num) {
                        *g = black_box(n) / den;
                    }
                }
            }
        },
        || {
            let mut g = g.borrow_mut();
            for ((g, num), &den) in g
                .chunks_exact_mut(ROW)
                .zip(num.chunks_exact(ROW))
                .zip(&dens)
            {
                ops::holders_combine_scalar(num, den, g);
            }
        },
        out,
    );

    let codes: Vec<u8> = (0..N).map(|_| rng.gen_range(0u32..=254) as u8).collect();
    let (levels, inv_q) = (127i32, 0.75f32 / 127.0);
    timed_entry(
        samples,
        "vertical/dequant_u8_4096",
        || {
            let mut y = y.borrow_mut();
            for (y, &c) in y.iter_mut().zip(&codes) {
                *y = (i32::from(black_box(c)) - levels) as f32 * inv_q;
            }
        },
        || ops::dequant_u8(&codes, levels, inv_q, &mut y.borrow_mut()),
        out,
    );

    let signs: Vec<u8> = (0..N / 8).map(|_| rng.gen_range(0u32..256) as u8).collect();
    let mu = 0.01f32.to_bits();
    timed_entry(
        samples,
        "vertical/sign_apply_from_bits_4096",
        || {
            let mut y = y.borrow_mut();
            for (o, y) in y.iter_mut().enumerate() {
                let bit = black_box(signs[o / 8]) >> (o % 8) & 1;
                *y = f32::from_bits(mu ^ (u32::from(bit) << 31));
            }
        },
        || ops::sign_apply_from_bits(&signs, 0, f32::from_bits(mu), &mut y.borrow_mut()),
        out,
    );
}

/// The telemetry zero-overhead contract, as a gate entry: a hot loop of
/// ~10 ns FNV mixing steps, bare (reference) vs instrumented with
/// `span!` + `counter!` (batched). The bench harness compiles the
/// collector in, but no capture is active, so each macro must cost one
/// relaxed atomic load and nothing else — the recorded speedup sits at
/// ≈ 1.0 and the gate pins it there. A regression here means someone
/// made the disabled path allocate, lock or evaluate arguments.
fn telemetry_noop_entry(samples: usize, out: &mut Vec<BenchEntry>) {
    use std::hint::black_box;
    // The harness must have the collector compiled in, or both sides
    // would measure the literal no-op and the entry would pin nothing.
    assert!(
        fedbiad_telemetry::compiled(),
        "bench harness built without the telemetry `enabled` feature"
    );
    const ITERS: usize = 100_000;
    fn mix(i: usize) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325 ^ i as u64;
        for _ in 0..6 {
            h ^= h >> 33;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
    let (r, b) = time_pair_ns(
        samples,
        || {
            let mut acc = 0u64;
            for i in 0..ITERS {
                acc = acc.wrapping_add(mix(black_box(i)));
            }
            black_box(acc);
        },
        || {
            let mut acc = 0u64;
            for i in 0..ITERS {
                let _span = fedbiad_telemetry::span!("bench.noop", iter = i);
                fedbiad_telemetry::counter!("bench.noop_bytes", 8u64);
                acc = acc.wrapping_add(mix(black_box(i)));
            }
            black_box(acc);
        },
    );
    out.push(entry("telemetry/disabled_noop_100k", r, b));
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_kernels.json".to_string();
    let mut baseline_path: Option<String> = None;
    let mut tolerance = gate::DEFAULT_TOLERANCE;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                }
            },
            "--gate" => match args.next() {
                Some(p) => baseline_path = Some(p),
                None => {
                    eprintln!("--gate needs a baseline path");
                    std::process::exit(2);
                }
            },
            "--tolerance" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if (0.0..1.0).contains(&t) => tolerance = t,
                _ => {
                    eprintln!("--tolerance needs a fraction in [0, 1)");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: bench_perf [--smoke] [--out PATH] [--gate BASELINE [--tolerance F]]"
                );
                return;
            }
            other => {
                eprintln!(
                    "unknown flag `{other}` (expected --smoke / --out PATH / --gate BASELINE / --tolerance F)"
                );
                std::process::exit(2);
            }
        }
    }
    // Parse the baseline up front so a bad path fails before the run.
    let baseline: Option<gate::BenchReport> = baseline_path.as_ref().map(|p| {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {p}: {e}");
            std::process::exit(2);
        });
        gate::parse(&text).unwrap_or_else(|e| {
            eprintln!("cannot use baseline {p}: {e}");
            std::process::exit(2);
        })
    });

    let samples = if smoke { 5 } else { 15 };
    let mut entries = Vec::new();
    // The raw kernels run a few hundred µs per sample, so their minima
    // need far more draws to converge than the ms-scale entries; extra
    // samples are nearly free at this granularity.
    kernel_entries(if smoke { samples } else { samples * 8 }, &mut entries);
    zmm_entries(if smoke { samples } else { samples * 8 }, &mut entries);
    math_entries(if smoke { samples } else { samples * 8 }, &mut entries);
    pool_entry(if smoke { samples } else { samples * 8 }, &mut entries);
    local_update_entries(smoke, samples, &mut entries);
    aggregation_entries(smoke, samples, &mut entries);
    sim_entries(smoke, samples, &mut entries);
    hot_path_entries(smoke, samples, &mut entries);
    compress_entries(if smoke { samples } else { samples * 4 }, &mut entries);
    trimmed_column_entry(if smoke { samples } else { samples * 4 }, &mut entries);
    trimmed_tile_entries(if smoke { samples } else { samples * 4 }, &mut entries);
    kept_rows_entry(
        smoke,
        if smoke { samples } else { samples * 4 },
        &mut entries,
    );
    lazy_shard_entry(samples, &mut entries);
    vertical_entries(if smoke { samples } else { samples * 8 }, &mut entries);
    // Sub-ms loop: extra samples are nearly free, minima converge better.
    telemetry_noop_entry(if smoke { samples } else { samples * 8 }, &mut entries);

    let report = BenchReport {
        schema: gate::SCHEMA.to_string(),
        smoke,
        tier: host_tier().to_string(),
        entries,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&out_path, &json).expect("write report");
    println!("wrote {out_path}");

    if let Some(mut baseline) = baseline {
        // The pool entry's reference is an OS query whose cost is the
        // host's: it is held to its budget below, not to a ratio.
        baseline.entries.retain(|e| e.name != POOL_ENTRY);
        let (findings, notes): (Vec<_>, Vec<_>) = gate::compare(&baseline, &report, tolerance)
            .into_iter()
            .partition(gate::GateFinding::fails);
        for note in &notes {
            println!("perf gate: {note}");
        }
        let mut findings: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
        let par_call = report
            .entries
            .iter()
            .find(|e| e.name == POOL_ENTRY)
            .expect("pool entry always runs");
        if par_call.batched_ns >= PAR_CALL_BUDGET_NS {
            findings.push(format!(
                "{POOL_ENTRY}: {:.0} ns per one-thread parallel call, budget {:.0} ns",
                par_call.batched_ns, PAR_CALL_BUDGET_NS
            ));
        }
        if findings.is_empty() {
            println!(
                "perf gate: PASS ({} baseline entries within {:.0}% of committed speedups, \
                 {} not applicable on host tier `{}`; {POOL_ENTRY} {:.0} ns, budget {:.0} ns)",
                baseline.entries.len() - notes.len(),
                tolerance * 100.0,
                notes.len(),
                report.tier,
                par_call.batched_ns,
                PAR_CALL_BUDGET_NS
            );
        } else {
            eprintln!("perf gate: FAIL ({} finding(s)):", findings.len());
            for f in &findings {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
}
