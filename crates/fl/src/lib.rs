//! # fedbiad-fl
//!
//! Federated-learning simulation framework: the substrate on which FedBIAD
//! and its baselines (implemented in `fedbiad-core`) run.
//!
//! * [`algorithm::FlAlgorithm`] — the contract an FL method implements:
//!   per-client local update producing an [`upload::Upload`], plus
//!   server-side aggregation;
//! * [`client`] — the shared local-SGD loop (mini-batch sampling, weight
//!   decay for the KL ≈ L2 term of loss (2), gradient masking hooks per
//!   eq. (7));
//! * [`aggregate`] — weighted aggregation with the zero-handling
//!   semantics discussed in DESIGN.md (literal eq. (10), holders-only,
//!   stale-fill): a sharded streaming reducer that decodes the clients'
//!   real wire bytes shard by shard (O(model) server memory, parallel
//!   across shards), plus the dense oracle it is pinned bit-identical
//!   to — chosen by the bodies a cohort carries, never by an option;
//! * [`network`] / [`timing`] — the paper's T-Mobile 5G link model
//!   (14.0 Mbps up / 110.6 Mbps down, §V-C) and LTTR/TTA accounting;
//! * [`round`] — cohort sampling and [`round::RoundCore`], the server
//!   side of one round written once: broadcast, parallel local updates
//!   (rayon), upload fate (churn, byzantine corruption, the value
//!   screen), aggregation, evaluation, the round record;
//! * [`runner`] — the lock-step *schedule* over that core: sample ⌈κK⌉
//!   clients, train, aggregate, commit, with measured wall-clock timings
//!   (`fedbiad-sim` is the other schedule, on a virtual clock);
//! * [`workload`] — assembles the five benchmark workloads (dataset +
//!   model + per-dataset hyper-parameters) at smoke/lab/paper scales.

pub mod adversary;
pub mod aggregate;
pub mod algorithm;
pub mod client;
pub mod metrics;
pub mod network;
pub mod round;
pub mod runner;
pub mod timing;
pub mod upload;
pub mod workload;

/// The workspace's instrumentation facade, re-exported so algorithm crates
/// built on [`algorithm::FlAlgorithm`] / [`client::LocalHooks`] report
/// through the collector this crate's round loop already uses.
pub use fedbiad_telemetry as telemetry;

pub use adversary::{AdversarySpec, AttackMode, ChurnSpec, GarbageKind};
pub use aggregate::{AggError, AggSettings, RobustKind};
pub use algorithm::{FlAlgorithm, LocalResult, RoundInfo};
pub use metrics::{ExperimentLog, RoundRecord};
pub use network::NetworkModel;
pub use runner::{Experiment, ExperimentConfig};
pub use upload::{Upload, UploadKind};
