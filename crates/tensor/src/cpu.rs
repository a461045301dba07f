//! The CPU features every kernel dispatches on, detected once per
//! process, and the helpers that compile one scalar loop per feature
//! tier.
//!
//! [`get`] is the only place in the workspace that asks the CPU what it
//! can do (CI fails on an `is_x86_feature_detected` anywhere else under
//! `crates/*/src`). Whatever it reports, every kernel returns the bits of
//! its scalar definition; the snapshot decides only which body computes
//! them. No knob, no env var, no cargo feature.
//!
//! [`avx`], [`avx2`] and [`avx2_fma`] map the snapshot to instantiations:
//! each runs a kernel's loop — written once, in a `move` closure — inside
//! a function compiled for that feature where the host has it, and as
//! baseline code (SSE2 on x86-64, portable elsewhere) otherwise. The
//! compiler, not a hand-written intrinsic body, vectorizes each
//! instantiation, and every instantiation performs the loop's own
//! operations per element, so all of them return the loop's bits.
//!
//! A closure with a large body must be marked `#[inline(always)]`, as
//! `math`'s are: left to the inliner, a body the size of `tanh`'s is not
//! inlined into the feature function, which then compiles to one jump
//! into the closure built for baseline SSE2 — the same bits, silently
//! slower (`math::tanh_slice`: 1.7x, on an AVX-512F Xeon).

use std::sync::OnceLock;

/// What this host offers, as the kernels use it. Every field is `false`
/// off x86-64.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cpu {
    /// AVX: the [`avx`] instantiation of `ops`' float-lane element-wise
    /// kernels (the vertical ones and FedPAQ's `quantise`), the 256-bit
    /// GEMM register tiles and the GEMM fallbacks `dot4` / `axpy4`.
    pub avx: bool,
    /// AVX2: the [`avx2`] instantiation of the loops with 256-bit integer
    /// lanes: `ops::max_abs`, `ops::dequant_u8`, `stats::KeyTile`'s
    /// comparator network (64-bit lane compares) and key gather, and
    /// `math`'s `tanh_slice`, `ln_slice`, `cos2pi_slice` and
    /// `gaussian_slice`.
    pub avx2: bool,
    /// AVX2 and FMA: the [`avx2_fma`] instantiation (the single-element
    /// `math::exp` / `math::sigmoid`, whose `mul_add`s become the
    /// instruction) and the one hand-written body `math` keeps, the `exp`
    /// table gather under `exp_slice` and `sigmoid_slice`. A traced run
    /// records it as the gauge `nn.math.wide`.
    pub avx2_fma: bool,
    /// AVX-512F: the 512-bit GEMM register tiles (`ops::tier`).
    pub avx512f: bool,
}

/// This host's features, detected on the first call.
#[inline]
pub fn get() -> Cpu {
    static CPU: OnceLock<Cpu> = OnceLock::new();
    *CPU.get_or_init(detect)
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Cpu {
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    Cpu {
        avx: std::arch::is_x86_feature_detected!("avx"),
        avx2,
        avx2_fma: avx2 && std::arch::is_x86_feature_detected!("fma"),
        avx512f: std::arch::is_x86_feature_detected!("avx512f"),
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Cpu {
    Cpu::default()
}

/// Runs `body`, a kernel's loop in a `move` closure, compiled for this
/// host: inside an AVX function where the snapshot saw AVX, as baseline
/// code otherwise (module docs). Pass the whole element loop as plain
/// `iter_mut().zip(..)`, the shape the vectorizer takes; a loop over
/// fixed-width chunks, or a per-lane closure handed to a generic loop,
/// hides the element loop from it. The closure must be `move`: one that
/// borrowed its scalars would leave the compiler unable to prove that the
/// output slice does not write through them, so it would re-load them per
/// element behind run-time alias checks.
#[inline(always)]
pub fn avx<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if get().avx {
        #[target_feature(enable = "avx")]
        fn wide<R>(body: impl FnOnce() -> R) -> R {
            body()
        }
        // SAFETY: the snapshot saw AVX on this host.
        return unsafe { wide(body) };
    }
    body()
}

/// [`avx`] for loops that want 256-bit *integer* lanes: inside an AVX2
/// function where the snapshot saw AVX2, as baseline code otherwise.
#[inline(always)]
pub fn avx2<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if get().avx2 {
        #[target_feature(enable = "avx2")]
        fn wide<R>(body: impl FnOnce() -> R) -> R {
            body()
        }
        // SAFETY: the snapshot saw AVX2 on this host.
        return unsafe { wide(body) };
    }
    body()
}

/// [`avx2`] for bodies that call [`f64::mul_add`]: inside an AVX2 + FMA
/// function where the snapshot saw both, so each `mul_add` is the
/// instruction; as baseline code otherwise, where each is a call to the C
/// library's `fma`. Both are correctly rounded, so both instantiations
/// return the same bits.
#[inline(always)]
pub fn avx2_fma<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if get().avx2_fma {
        #[target_feature(enable = "avx2,fma")]
        fn wide<R>(body: impl FnOnce() -> R) -> R {
            body()
        }
        // SAFETY: the snapshot saw AVX2 and FMA on this host.
        return unsafe { wide(body) };
    }
    body()
}
