//! The CPU features every kernel dispatches on, detected once per
//! process.
//!
//! [`get`] is the only place in the workspace that asks the CPU what it
//! can do (CI fails on an `is_x86_feature_detected` anywhere else under
//! `crates/*/src`). Whatever it reports, every kernel returns the bits of
//! its scalar definition; the snapshot decides only which body computes
//! them. No knob, no env var, no cargo feature.

use std::sync::OnceLock;

/// What this host offers, as the kernels use it. Every field is `false`
/// off x86-64.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cpu {
    /// AVX: the `ops` element-wise kernels' wide instantiation, the
    /// 256-bit GEMM register tiles and `ops`' other AVX bodies.
    pub avx: bool,
    /// AVX2: `stats::KeyTile`'s comparator network and key gather.
    pub avx2: bool,
    /// AVX2 and FMA: `math`'s vector bodies (the slice forms, and the
    /// fused single-element `exp` / `sigmoid`). A traced run records it as
    /// the gauge `nn.math.wide`.
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
