//! # fedbiad-tensor
//!
//! Dense `f32` linear-algebra substrate for the FedBIAD reproduction.
//!
//! This crate deliberately implements only what the federated-learning stack
//! above it needs — row-major matrices, matrix–vector and matrix–matrix
//! products, element-wise kernels, reductions, quantiles, deterministic
//! random initialisation, the transcendentals the models apply and the
//! Gaussian field the noise is read from ([`math`]) — but implements those
//! pieces carefully:
//!
//! * hot loops are written over slices so the compiler can elide bounds
//!   checks (see the Rust Performance Book guidance on bounds checks),
//! * [`ops::gemm`] is blocked and parallelised with rayon,
//! * all randomness is a function of an [`rng::stream_key`] — drawn
//!   sequentially ([`rng::stream`]) or read by index
//!   ([`math::gaussian`]) — so every experiment is bit-reproducible
//!   regardless of thread scheduling,
//! * [`math`]'s `tanh` / `exp` / `sigmoid` / `ln` / `cos2pi` are defined
//!   here, not by the host's libm, and its vector forms return the
//!   definitions' bits,
//! * every vector body is chosen from one [`cpu`] snapshot of the host's
//!   features, and returns the bits of the scalar code it replaces.
//!
//! The crate has no opinion about neural networks; that lives in
//! `fedbiad-nn`.

#![warn(missing_docs)]

pub mod cpu;
pub mod init;
pub mod math;
pub mod matrix;
pub mod ops;
pub mod rng;
pub mod stats;
pub mod workspace;

pub use matrix::Matrix;
pub use workspace::Workspace;
