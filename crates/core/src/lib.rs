//! # fedbiad-core
//!
//! The paper's primary contribution — **FedBIAD** (federated learning with
//! Bayesian inference-based adaptive dropout, IPDPS'23) — together with
//! every comparison algorithm of its evaluation and the Theorem-1
//! generalization-bound calculator.
//!
//! * [`fedbiad::FedBiad`] — Algorithm 1: spike-and-slab row dropout with
//!   loss-trend-adaptive pattern search (stage one) and the
//!   experience-based importance indicator (stage two); composable with a
//!   sketched compressor (Fig. 5 / Table II "FedBIAD+DGC");
//! * [`baselines`] — FedAvg, and the one federated-dropout client
//!   ([`baselines::Dropout`]) whose five mask rules are FedDrop, AFD,
//!   FedMP, FjORD and HeteroFL;
//! * [`combo`] — the upload tail that client shares with FedBIAD: the
//!   kept values, or a sketch of their delta plus the pattern bits;
//! * [`pattern`] / [`spike_slab`] / [`losstrend`] / [`indicator`] — the
//!   algorithm's building blocks (Z_S^N patterns, eq. (13) posterior
//!   variance, eq. (8) loss gap, eq. (9) weight scores);
//! * [`theory`] — eqs. (14), (15), (17), (18).

pub mod baselines;
pub mod combo;
pub mod fedbiad;
pub mod indicator;
pub mod losstrend;
pub mod neuron;
pub mod pattern;
pub mod spike_slab;
pub mod theory;

pub use fedbiad::{FedBiad, FedBiadConfig, PatternSampling};
pub use pattern::{keep_count, DropPattern};
