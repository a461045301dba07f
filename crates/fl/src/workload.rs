//! Benchmark workload assembly: the paper's five dataset/model pairs with
//! their per-dataset hyper-parameters (§V-A), at three scales:
//!
//! * `Smoke` — seconds-fast configurations for tests;
//! * `Lab` — the default for the bench harness: small enough for a laptop,
//!   large enough that the accuracy *shape* across methods is meaningful;
//! * paper-scale byte columns are always computed analytically from the
//!   paper-scale architectures (they need no training).

use crate::algorithm::TrainConfig;
use fedbiad_data::dataset::{ClientData, FedDataset};
use fedbiad_data::partition::{
    partition_images, partition_text_contiguous, reddit_user_sizes, ImagePartition,
};
use fedbiad_data::synth_image::{LazyClients, SyntheticImageSpec};
use fedbiad_data::synth_text::SyntheticTextSpec;
use fedbiad_nn::lstm_lm::LstmLmModel;
use fedbiad_nn::mlp::MlpModel;
use fedbiad_nn::Model;
use serde::{Deserialize, Serialize};

/// The five benchmark workloads of §V-A.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Workload {
    /// MNIST-like images, 1000-client-style non-IID (scaled down).
    MnistLike,
    /// FMNIST-like images (harder), non-IID.
    FmnistLike,
    /// PTB-like language, IID.
    PtbLike,
    /// WikiText-2-like language (larger vocab + corpus), IID.
    WikiText2Like,
    /// Reddit-like language, naturally non-IID with unequal client sizes.
    RedditLike,
}

impl Workload {
    /// All five, in Table I order.
    pub fn all() -> [Workload; 5] {
        [
            Workload::MnistLike,
            Workload::FmnistLike,
            Workload::PtbLike,
            Workload::WikiText2Like,
            Workload::RedditLike,
        ]
    }

    /// Table-row name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MnistLike => "mnist-like",
            Workload::FmnistLike => "fmnist-like",
            Workload::PtbLike => "ptb-like",
            Workload::WikiText2Like => "wikitext2-like",
            Workload::RedditLike => "reddit-like",
        }
    }

    /// Parse a CLI/spec name (short forms accepted, case-insensitive).
    ///
    /// ```
    /// use fedbiad_fl::workload::Workload;
    /// assert_eq!(Workload::parse("wt2"), Some(Workload::WikiText2Like));
    /// assert_eq!(Workload::parse("MNIST"), Some(Workload::MnistLike));
    /// assert_eq!(Workload::parse("bogus"), None);
    /// ```
    pub fn parse(s: &str) -> Option<Workload> {
        match s.to_ascii_lowercase().as_str() {
            "mnist" | "mnist-like" => Some(Workload::MnistLike),
            "fmnist" | "fmnist-like" => Some(Workload::FmnistLike),
            "ptb" | "ptb-like" => Some(Workload::PtbLike),
            "wikitext2" | "wikitext-2" | "wikitext2-like" | "wt2" => Some(Workload::WikiText2Like),
            "reddit" | "reddit-like" => Some(Workload::RedditLike),
            _ => None,
        }
    }

    /// Is this a next-word-prediction workload (LSTM model, top-3 eval)?
    pub fn is_text(self) -> bool {
        matches!(
            self,
            Workload::PtbLike | Workload::WikiText2Like | Workload::RedditLike
        )
    }

    /// The paper's dropout rate for this dataset (§V-A: 0.2 for the
    /// small-model MNIST, 0.5 elsewhere).
    pub fn paper_dropout_rate(self) -> f32 {
        match self {
            Workload::MnistLike => 0.2,
            _ => 0.5,
        }
    }

    /// Paper-scale full-model upload per round (Table I 'FedAvg' row).
    pub fn paper_full_upload_bytes(self) -> u64 {
        match self {
            Workload::MnistLike => 531 * 1024,
            Workload::FmnistLike => (1.1 * 1024.0 * 1024.0) as u64,
            Workload::PtbLike | Workload::RedditLike => {
                LstmLmModel::paper_ptb().arch().total_weights as u64 * 4
            }
            Workload::WikiText2Like => {
                LstmLmModel::paper_wikitext2().arch().total_weights as u64 * 4
            }
        }
    }
}

/// Workload scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Tiny — for integration tests (seconds).
    Smoke,
    /// Default bench-harness scale (minutes for the full Table I).
    Lab,
}

/// A fully assembled workload.
pub struct WorkloadBundle {
    /// Workload id.
    pub workload: Workload,
    /// Federated data (clients + test).
    pub data: FedDataset,
    /// Model architecture.
    pub model: Box<dyn Model>,
    /// Dropout rate p for this dataset.
    pub dropout_rate: f32,
    /// Local-training configuration.
    pub train: TrainConfig,
    /// Evaluation top-k (1 images, 3 next-word).
    pub eval_topk: usize,
    /// TTA target accuracy, calibrated to the synthetic difficulty
    /// (the paper's absolute targets belong to the real datasets).
    pub target_acc: f64,
}

/// Assembly overrides for [`build_with`] (the scenario engine's knobs);
/// `Default` reproduces [`build`] exactly.
#[derive(Clone, Debug, Default)]
pub struct WorkloadOverrides {
    /// Replace the paper's Dirichlet(0.3) image partitioner (ignored by
    /// text workloads, whose partitioning is part of the data model).
    pub image_partition: Option<ImagePartition>,
    /// Replace the scale's registered population with a lazily
    /// materialised one (image workloads only; text workloads ignore it).
    /// Client shards are derived on demand from the seed, so memory stays
    /// O(cohort) instead of O(registered clients) — this is what lets a
    /// scenario register 10⁶ clients.
    pub population: Option<PopulationOverride>,
}

/// Lazily materialised population for [`WorkloadOverrides::population`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PopulationOverride {
    /// Registered clients K (each derivable on demand, never all live).
    pub clients: usize,
    /// Samples per client shard (constant across clients).
    pub samples_per_client: usize,
}

/// Build a workload at the given scale, deterministically from `seed`.
///
/// ```
/// use fedbiad_fl::workload::{build, Scale, Workload};
///
/// let bundle = build(Workload::PtbLike, Scale::Smoke, 42);
/// assert!(bundle.data.num_clients() > 0);
/// assert_eq!(bundle.eval_topk, 3); // top-3 accuracy for next-word prediction
/// ```
pub fn build(workload: Workload, scale: Scale, seed: u64) -> WorkloadBundle {
    build_with(workload, scale, seed, &WorkloadOverrides::default())
}

/// [`build`] with assembly overrides (e.g. an extreme-non-IID partition).
pub fn build_with(
    workload: Workload,
    scale: Scale,
    seed: u64,
    overrides: &WorkloadOverrides,
) -> WorkloadBundle {
    match workload {
        Workload::MnistLike | Workload::FmnistLike => build_image(workload, scale, seed, overrides),
        _ => build_text(workload, scale, seed),
    }
}

fn build_image(
    workload: Workload,
    scale: Scale,
    seed: u64,
    overrides: &WorkloadOverrides,
) -> WorkloadBundle {
    let hard = workload == Workload::FmnistLike;
    let (spec, clients, hidden) = match scale {
        Scale::Smoke => {
            let mut s = if hard {
                SyntheticImageSpec::fmnist_like()
            } else {
                SyntheticImageSpec::mnist_like()
            };
            s.side = 8;
            s.classes = 4;
            s.train_n = 320;
            s.test_n = 120;
            // Smoke runs back fast tests: keep the task easy enough that a
            // handful of rounds learns it.
            s.distinctiveness = if hard { 0.7 } else { 0.92 };
            s.noise = if hard { 0.2 } else { 0.08 };
            s.shift_max = 1;
            (s, 8usize, 16usize)
        }
        Scale::Lab => {
            let mut s = if hard {
                SyntheticImageSpec::fmnist_like()
            } else {
                SyntheticImageSpec::mnist_like()
            };
            // Paper: 1000 clients over 60k samples = 60 per client; we keep
            // the same per-client scarcity (60) at 200 clients, so the
            // κ=0.1 round has 20 participants (vs the paper's 100) — enough
            // that random row drops average out across the cohort.
            s.train_n = 12_000;
            (s, 200usize, if hard { 256 } else { 128 })
        }
    };
    let data = if let Some(pop) = overrides.population {
        // Lazy population: shards derive on demand from the seed (balanced
        // classes, constant size), so registering 10⁶ clients costs only
        // the class prototypes. The Dirichlet partitioner needs the whole
        // training pool in memory, so a population override supersedes any
        // partition override.
        let lazy = LazyClients::new(spec.clone(), seed, pop.clients, pop.samples_per_client);
        let test = lazy.test_set(spec.test_n);
        FedDataset {
            name: workload.name().into(),
            clients: Vec::new(),
            lazy: Some(lazy),
            test,
        }
    } else {
        let (train, test) = spec.generate(seed);
        // Paper §V-A: non-IID partitioning strategy of [28] (Dirichlet,
        // with a small α for pronounced label skew) — unless a scenario
        // overrides it.
        let partition = overrides
            .image_partition
            .clone()
            .unwrap_or(ImagePartition::Dirichlet { alpha: 0.3 });
        let shards = partition_images(&train, clients, &partition, seed);
        FedDataset {
            name: workload.name().into(),
            clients: shards.into_iter().map(ClientData::Image).collect(),
            lazy: None,
            test: ClientData::Image(test),
        }
    };
    let model = Box::new(MlpModel::new(spec.dim(), hidden, spec.classes));
    WorkloadBundle {
        workload,
        data,
        model,
        dropout_rate: workload.paper_dropout_rate(),
        train: TrainConfig {
            local_iters: IMAGE_LOCAL_ITERS,
            batch_size: 32,
            lr: 0.3,
            clip_norm: None,
            weight_decay: 1e-4,
        },
        eval_topk: 1,
        target_acc: if hard { 0.55 } else { 0.80 },
    }
}

/// Local iterations V for the image workloads at lab scale: enough
/// τ-checkpoints (V/τ − 1 = 7 with τ = 3) for the stage-one pattern search
/// to converge within a round.
const IMAGE_LOCAL_ITERS: usize = 24;

fn build_text(workload: Workload, scale: Scale, seed: u64) -> WorkloadBundle {
    let mut spec = match workload {
        Workload::PtbLike => SyntheticTextSpec::ptb_like(),
        Workload::WikiText2Like => SyntheticTextSpec::wikitext2_like(),
        Workload::RedditLike => SyntheticTextSpec::reddit_like(),
        _ => unreachable!(),
    };
    let (clients, embed, hidden, layers) = match scale {
        Scale::Smoke => {
            spec.vocab = 60;
            spec.tokens_train = 4_000;
            spec.tokens_test = 900;
            spec.seq_len = 8;
            (6usize, 12usize, 12usize, 1usize)
        }
        // 100 clients ⇒ κ=0.1 rounds have 10 participants (the paper's
        // rounds have 100). See EXPERIMENTS.md for the capacity premise:
        // at p = 0.5 the (1−p)-sub-models carry the accuracy, and at this
        // deliberately laptop-sized scale their ceiling sits slightly
        // below FedAvg's late-round accuracy; the paper's early-window
        // ordering (Fig. 2) and all communication/TTA shapes reproduce.
        Scale::Lab => (100usize, 48usize, 48usize, 2usize),
    };

    let data = if workload == Workload::RedditLike {
        // Non-IID: per-user streams with home topics and unequal sizes.
        let lang = spec.language(seed);
        let sizes = reddit_user_sizes(clients, spec.tokens_train, spec.seq_len);
        let users: Vec<ClientData> = sizes
            .iter()
            .enumerate()
            .map(|(u, &n)| ClientData::Text(spec.generate_user(&lang, seed, u as u64, n)))
            .collect();
        // Test set: a mixture over users' distributions (held-out streams).
        let mut test_tokens = Vec::new();
        for u in 0..clients.min(8) {
            let t = spec.generate_user(&lang, seed ^ 0x5151, u as u64, spec.tokens_test / 8);
            test_tokens.extend(t.tokens);
        }
        FedDataset {
            name: workload.name().into(),
            clients: users,
            lazy: None,
            test: ClientData::Text(fedbiad_data::TextSet {
                tokens: test_tokens,
                seq_len: spec.seq_len,
            }),
        }
    } else {
        let (train, test) = spec.generate(seed);
        let shards = partition_text_contiguous(&train, clients);
        FedDataset {
            name: workload.name().into(),
            clients: shards.into_iter().map(ClientData::Text).collect(),
            lazy: None,
            test: ClientData::Text(test),
        }
    };

    let model = Box::new(LstmLmModel::new(spec.vocab, embed, hidden, layers));
    WorkloadBundle {
        workload,
        data,
        model,
        dropout_rate: workload.paper_dropout_rate(),
        train: TrainConfig {
            local_iters: 20,
            batch_size: 16,
            lr: 4.0,
            clip_norm: Some(5.0),
            weight_decay: 1e-5,
        },
        eval_topk: 3, // paper: top-3 for next-word prediction
        // TTA target inside every method's reachable band at lab scale
        // (the paper's 31 %/30 % targets are likewise just under the
        // methods' final accuracies on the real corpora).
        target_acc: 0.27,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_smoke_workloads_assemble() {
        for w in Workload::all() {
            let b = build(w, Scale::Smoke, 3);
            assert!(b.data.num_clients() > 0, "{w:?}");
            assert!(b.data.min_client_samples() > 0, "{w:?}");
            assert_eq!(b.eval_topk, if w.is_text() { 3 } else { 1 });
            assert!(b.dropout_rate > 0.0 && b.dropout_rate < 1.0);
            // Model and data agree on dimensionality.
            match (&b.data.test, w.is_text()) {
                (ClientData::Image(s), false) => {
                    assert_eq!(s.dim, b.model.arch().input_dim);
                }
                (ClientData::Text(t), true) => {
                    assert!(t.tokens.iter().all(|&tok| (tok as usize) < 1000));
                }
                _ => panic!("workload/data kind mismatch"),
            }
        }
    }

    #[test]
    fn reddit_clients_are_unequal() {
        let b = build(Workload::RedditLike, Scale::Smoke, 4);
        let sizes: Vec<usize> = b.data.clients.iter().map(ClientData::num_samples).collect();
        assert!(sizes[0] > *sizes.last().unwrap(), "{sizes:?}");
    }

    #[test]
    fn paper_dropout_rates_match_section_va() {
        assert_eq!(Workload::MnistLike.paper_dropout_rate(), 0.2);
        assert_eq!(Workload::PtbLike.paper_dropout_rate(), 0.5);
    }

    #[test]
    fn paper_upload_sizes_match_table1() {
        let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
        assert!((mb(Workload::PtbLike.paper_full_upload_bytes()) - 29.8).abs() < 0.1);
        assert!((mb(Workload::WikiText2Like.paper_full_upload_bytes()) - 75.3).abs() < 0.1);
        assert_eq!(Workload::MnistLike.paper_full_upload_bytes(), 531 * 1024);
    }

    #[test]
    fn partition_override_changes_skew_only() {
        let base = build(Workload::MnistLike, Scale::Smoke, 5);
        let iid = build_with(
            Workload::MnistLike,
            Scale::Smoke,
            5,
            &WorkloadOverrides {
                image_partition: Some(ImagePartition::Iid),
                population: None,
            },
        );
        // Same total data, same test set, different per-client shards.
        assert_eq!(base.data.num_clients(), iid.data.num_clients());
        assert_eq!(base.data.test.num_samples(), iid.data.test.num_samples());
        let sizes = |b: &WorkloadBundle| -> Vec<usize> {
            b.data.clients.iter().map(ClientData::num_samples).collect()
        };
        assert_ne!(sizes(&base), sizes(&iid));
        // Default overrides reproduce `build` exactly.
        let same = build_with(
            Workload::MnistLike,
            Scale::Smoke,
            5,
            &WorkloadOverrides::default(),
        );
        assert_eq!(sizes(&base), sizes(&same));
    }

    #[test]
    fn population_override_builds_a_lazy_image_dataset() {
        let pop = PopulationOverride {
            clients: 5_000,
            samples_per_client: 12,
        };
        let b = build_with(
            Workload::MnistLike,
            Scale::Smoke,
            11,
            &WorkloadOverrides {
                image_partition: None,
                population: Some(pop),
            },
        );
        assert!(b.data.lazy.is_some());
        assert!(b.data.clients.is_empty(), "no eager shards materialised");
        assert_eq!(b.data.num_clients(), 5_000);
        assert_eq!(b.data.min_client_samples(), 12);
        // A lookup is a view; it materialises deterministically.
        let a = b.data.client(4_999);
        let a2 = b.data.client(4_999);
        match (&*a, &*a2) {
            (ClientData::LazyImage(x), ClientData::LazyImage(y)) => {
                let (x, y) = (x.materialize(), y.materialize());
                assert_eq!(x.y, y.y);
                assert_eq!(x.x, y.x);
                assert_eq!(x.y.len(), 12);
            }
            _ => panic!("expected lazy image views"),
        }
        // Text workloads ignore the override entirely.
        let t = build_with(
            Workload::PtbLike,
            Scale::Smoke,
            11,
            &WorkloadOverrides {
                image_partition: None,
                population: Some(pop),
            },
        );
        assert!(t.data.lazy.is_none());
        assert!(!t.data.clients.is_empty());
    }

    #[test]
    fn workload_build_is_deterministic() {
        let a = build(Workload::PtbLike, Scale::Smoke, 9);
        let b = build(Workload::PtbLike, Scale::Smoke, 9);
        match (&a.data.clients[0], &b.data.clients[0]) {
            (ClientData::Text(x), ClientData::Text(y)) => assert_eq!(x.tokens, y.tokens),
            _ => panic!("expected text"),
        }
    }
}
