//! # fedbiad-nn
//!
//! From-scratch neural-network substrate for the FedBIAD reproduction.
//!
//! The paper (§III-A) works with two model families — a one-hidden-layer MLP
//! for image classification and an embedding + 2-layer LSTM + FC head for
//! next-word prediction — and treats *rows of weight matrices* as the unit
//! of dropout. This crate therefore provides:
//!
//! * [`params::ParamSet`]: the flat, architecture-agnostic parameter
//!   container that the FL server aggregates, with a **row-unit registry**
//!   (`j ∈ {1..J}`, paper notation) mapping global droppable-row indices to
//!   `(matrix, row)` pairs, each row bundling its bias element;
//! * [`mask`]: coverage masks (full / rows / submatrix / elements) that
//!   describe which parameters a client trained and uploads, plus exact
//!   wire-byte accounting (4 B weights, 1 bit per dropping label, 1 bit per
//!   element for pruning bitmaps), and the one flat-order walk and kept
//!   counts every reader of a mask goes through;
//! * [`mlp::MlpModel`] and [`lstm_lm::LstmLmModel`]: hand-written
//!   forward/backward (BPTT for the LSTM) implementations of the paper's
//!   two architectures;
//! * [`optimizer::Sgd`]: SGD with optional gradient-norm clipping (used for
//!   the LSTM, §V-A) and weight decay (the KL(π̃‖π) ≈ L2 term of loss (2)).

pub mod activation;
pub mod dense;
pub mod lstm;
pub mod lstm_lm;
pub mod mask;
pub mod mlp;
pub mod model;
pub mod optimizer;
pub mod params;
pub mod softmax;

pub use mask::{CoverageMask, KeptRows, ModelMask};
pub use model::{Batch, EvalAccum, Model, ReferencePath, RowWork};
pub use params::{ArchInfo, LayerKind, ParamSet};
