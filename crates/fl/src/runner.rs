//! The experiment runner: the lock-step *schedule* over
//! [`crate::round::RoundCore`].
//!
//! Per round (Algorithm 1, server side): sample `max(⌊κK⌋, 1)` clients,
//! train them all at once, aggregate whatever survived, commit. The
//! runner owns only what makes it lock-step — cohort sampling every
//! round and the *measured* wall-clock `agg_seconds` (each result's
//! `local_seconds` is measured by the core and left as is). What a round
//! *is* — churn, corruption, screening, the no-op round, evaluation, the
//! record — is the core's, shared with the discrete-event simulator
//! (`fedbiad-sim`), whose synchronous-barrier policy therefore
//! reproduces this loop bit-for-bit.

use crate::adversary::{AdversarySpec, ChurnSpec};
use crate::aggregate::AggSettings;
use crate::algorithm::{FlAlgorithm, TrainConfig};
use crate::metrics::ExperimentLog;
use crate::round::{sample_clients_with, CohortError, RoundCore, SamplerKind};
use crate::timing::Stopwatch;
use fedbiad_data::FedDataset;
use fedbiad_nn::Model;
use fedbiad_telemetry::span;
use serde::{Deserialize, Serialize};

pub use crate::round::evaluate_model;

/// Experiment-level configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Global rounds R (paper: 60).
    pub rounds: usize,
    /// Client selection fraction κ (paper: 0.1).
    pub client_fraction: f32,
    /// Experiment seed.
    pub seed: u64,
    /// Local-training hyper-parameters.
    pub train: TrainConfig,
    /// Top-k for evaluation accuracy (1 images / 3 next-word, §V-B).
    pub eval_topk: usize,
    /// Evaluate every this many rounds (the final round is always
    /// evaluated). 1 = every round.
    pub eval_every: usize,
    /// Cap on evaluated test samples per round (0 = whole test set).
    pub eval_max_samples: usize,
    /// Aggregation settings: shard size (bit-transparent), tree fan-in
    /// and robust estimator (both change results). Nothing here selects
    /// an engine — clients always upload wire bytes, which the server
    /// streams.
    pub agg: AggSettings,
    /// Explicit per-round cohort size; overrides `⌊κK⌋` when set.
    /// Validated against K at startup ([`CohortError`]).
    pub cohort: Option<usize>,
    /// How the cohort is drawn. `Shuffle` (default) is the legacy O(K)
    /// sampler pinned by the golden digests; `Sparse` is the O(cohort)
    /// sampler for huge registered populations.
    pub sampler: SamplerKind,
    /// Static byzantine adversary model (`None` = every client honest;
    /// the historical behaviour, bit for bit).
    pub adversary: Option<AdversarySpec>,
    /// Mid-round churn model (`None` = no churn; the historical
    /// behaviour, bit for bit).
    pub churn: Option<ChurnSpec>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            rounds: 30,
            client_fraction: 0.1,
            seed: 42,
            train: TrainConfig::default(),
            eval_topk: 1,
            eval_every: 1,
            eval_max_samples: 0,
            agg: AggSettings::default(),
            cohort: None,
            sampler: SamplerKind::Shuffle,
            adversary: None,
            churn: None,
        }
    }
}

/// An experiment: one (model, dataset, algorithm) triple.
///
/// ```
/// use fedbiad_core::baselines::FedAvg;
/// use fedbiad_fl::runner::{Experiment, ExperimentConfig};
/// use fedbiad_fl::workload::{build, Scale, Workload};
///
/// let bundle = build(Workload::MnistLike, Scale::Smoke, 42);
/// let cfg = ExperimentConfig {
///     rounds: 2,
///     client_fraction: 0.5,
///     train: bundle.train,
///     eval_topk: bundle.eval_topk,
///     eval_max_samples: 200,
///     ..Default::default()
/// };
/// let log = Experiment::new(bundle.model.as_ref(), &bundle.data, FedAvg::new(), cfg).run();
/// assert_eq!(log.records.len(), 2);
/// assert!(log.records[0].upload_bytes_mean > 0);
/// ```
pub struct Experiment<'a, A: FlAlgorithm> {
    /// The model architecture.
    pub model: &'a dyn Model,
    /// Federated data.
    pub data: &'a FedDataset,
    /// The FL method under test.
    pub algo: A,
    /// Configuration.
    pub cfg: ExperimentConfig,
}

impl<'a, A: FlAlgorithm> Experiment<'a, A> {
    /// Construct with defaults.
    pub fn new(model: &'a dyn Model, data: &'a FedDataset, algo: A, cfg: ExperimentConfig) -> Self {
        Self {
            model,
            data,
            algo,
            cfg,
        }
    }

    /// Run all rounds and return the log. Panics on a degenerate cohort
    /// configuration; use [`Experiment::try_run`] for the structured
    /// error.
    pub fn run(self) -> ExperimentLog {
        self.try_run().expect("cohort configuration invalid")
    }

    /// Run all rounds, rejecting degenerate cohort configurations
    /// (no clients, zero cohort, cohort > K) up front as a
    /// [`CohortError`] instead of panicking mid-run.
    pub fn try_run(self) -> Result<ExperimentLog, CohortError> {
        let cfg = self.cfg;
        let k = self.data.num_clients();
        let mut core = RoundCore::new(self.model, self.data, self.algo, cfg)?;
        let c = core.cohort();
        for round in 0..cfg.rounds {
            let _round_span = span!("round", round = round);
            // Uniform without replacement, ascending id order.
            let ids = {
                let _stage = span!("round.select", cohort = c);
                sample_clients_with(cfg.sampler, cfg.seed, round, k, c)
            };
            let results: Vec<_> = core
                .train(&ids)
                .into_iter()
                .filter(|t| !t.lost)
                .map(|t| (t.id, t.result))
                .collect();
            let sw_agg = Stopwatch::start();
            let agg_seconds = if core.aggregate(&results) {
                sw_agg.seconds()
            } else {
                0.0
            };
            core.commit(&results, agg_seconds);
        }
        Ok(core.into_log())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{aggregate_weights, ZeroMode};
    use crate::algorithm::{LocalResult, RoundInfo};
    use crate::upload::Upload;
    use fedbiad_data::dataset::ImageSet;
    use fedbiad_data::partition::{partition_images, ImagePartition};
    use fedbiad_data::synth_image::SyntheticImageSpec;
    use fedbiad_data::ClientData;
    use fedbiad_nn::mlp::MlpModel;
    use fedbiad_nn::ParamSet;
    use fedbiad_tensor::rng::{stream, StreamTag};

    /// Minimal FedAvg used to exercise the runner before fedbiad-core
    /// exists (the real baselines live there).
    struct MiniFedAvg;

    impl FlAlgorithm for MiniFedAvg {
        type ClientState = ();
        type RoundCtx = ();

        fn name(&self) -> String {
            "mini-fedavg".into()
        }

        fn init_client_state(&self, _: usize, _: &dyn Model, _: &ParamSet) {}

        fn begin_round(&mut self, _: RoundInfo, _: &ParamSet) {}

        fn local_update(
            &self,
            info: RoundInfo,
            _rctx: &(),
            client_id: usize,
            _state: &mut (),
            global: &ParamSet,
            data: &ClientData,
            model: &dyn Model,
            cfg: &TrainConfig,
        ) -> LocalResult {
            let mut u = global.clone();
            let id = crate::client::LocalRunId {
                seed: info.seed,
                round: info.round,
                client: client_id,
            };
            let stats = crate::client::run_local_training(
                id,
                model,
                data,
                cfg,
                &mut u,
                &mut crate::client::NoHooks,
            );
            LocalResult {
                upload: Upload::full_weights(u),
                train_loss: stats.mean_loss,
                loss_improvement: stats.improvement(),
                local_seconds: stats.seconds,
                num_samples: data.num_samples(),
            }
        }

        fn aggregate(
            &mut self,
            info: RoundInfo,
            _rctx: &(),
            global: &mut ParamSet,
            results: &[(usize, LocalResult)],
        ) {
            let ups: Vec<(f32, &Upload)> = results
                .iter()
                .map(|(_, r)| (r.num_samples as f32, &r.upload))
                .collect();
            aggregate_weights(global, &ups, ZeroMode::ZerosPull, info.agg)
                .expect("aggregation failed");
        }
    }

    fn tiny_fed_dataset(seed: u64) -> (FedDataset, MlpModel) {
        let spec = SyntheticImageSpec {
            classes: 4,
            side: 6,
            train_n: 240,
            test_n: 80,
            prototypes_per_class: 2,
            bumps: 3,
            distinctiveness: 0.9,
            noise: 0.08,
            shift_max: 1,
        };
        let (train, test) = spec.generate(seed);
        let shards = partition_images(&train, 6, &ImagePartition::Iid, seed);
        let fd = FedDataset {
            name: "tiny".into(),
            clients: shards.into_iter().map(ClientData::Image).collect(),
            lazy: None,
            test: ClientData::Image(test),
        };
        (fd, MlpModel::new(36, 12, 4))
    }

    #[test]
    fn fedavg_learns_on_tiny_dataset() {
        let (fd, model) = tiny_fed_dataset(17);
        let cfg = ExperimentConfig {
            rounds: 12,
            client_fraction: 0.5,
            seed: 17,
            train: TrainConfig {
                local_iters: 8,
                batch_size: 16,
                lr: 0.4,
                ..Default::default()
            },
            eval_topk: 1,
            eval_every: 1,
            eval_max_samples: 0,
            ..Default::default()
        };
        let log = Experiment::new(&model, &fd, MiniFedAvg, cfg).run();
        assert_eq!(log.records.len(), 12);
        let first = log.records[0].test_acc;
        let last = log.records[11].test_acc;
        assert!(last > first, "no learning: {first} -> {last}");
        assert!(last > 0.5, "final acc too low: {last}");
        // Upload bytes are the full model every round.
        let model_bytes = model
            .init_params(&mut stream(1, StreamTag::Init, 0, 0))
            .total_bytes();
        assert!(log
            .records
            .iter()
            .all(|r| r.upload_bytes_mean == model_bytes));
    }

    #[test]
    fn runner_is_deterministic() {
        let (fd, model) = tiny_fed_dataset(23);
        let cfg = ExperimentConfig {
            rounds: 4,
            client_fraction: 0.5,
            seed: 5,
            train: TrainConfig {
                local_iters: 3,
                batch_size: 8,
                lr: 0.2,
                ..Default::default()
            },
            eval_topk: 1,
            eval_every: 1,
            eval_max_samples: 0,
            ..Default::default()
        };
        let a = Experiment::new(&model, &fd, MiniFedAvg, cfg).run();
        let b = Experiment::new(&model, &fd, MiniFedAvg, cfg).run();
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.test_acc, rb.test_acc);
            assert_eq!(ra.train_loss, rb.train_loss);
        }
    }

    #[test]
    fn try_run_rejects_degenerate_cohorts_with_structured_errors() {
        let (fd, model) = tiny_fed_dataset(3);
        let mk = |cohort| ExperimentConfig {
            rounds: 1,
            client_fraction: 0.5,
            cohort,
            ..Default::default()
        };
        // Override above K = 6 is an error, not an index panic mid-round.
        let err = Experiment::new(&model, &fd, MiniFedAvg, mk(Some(7)))
            .try_run()
            .unwrap_err();
        assert_eq!(
            err,
            CohortError::CohortExceedsClients {
                cohort: 7,
                num_clients: 6
            }
        );
        assert_eq!(
            Experiment::new(&model, &fd, MiniFedAvg, mk(Some(0)))
                .try_run()
                .unwrap_err(),
            CohortError::ZeroCohort
        );
        // A valid override really drives the cohort: full participation.
        let log = Experiment::new(&model, &fd, MiniFedAvg, mk(Some(6)))
            .try_run()
            .unwrap();
        assert_eq!(log.records.len(), 1);
    }

    #[test]
    fn sparse_sampler_runs_and_matches_shuffle_statistically() {
        // Same seed, both samplers: results differ bit-wise (different
        // draw sequences) but both train successfully on the same data.
        let (fd, model) = tiny_fed_dataset(29);
        let mk = |sampler| ExperimentConfig {
            rounds: 3,
            client_fraction: 0.5,
            seed: 29,
            train: TrainConfig {
                local_iters: 3,
                batch_size: 8,
                lr: 0.2,
                ..Default::default()
            },
            eval_max_samples: 0,
            sampler,
            ..Default::default()
        };
        let a = Experiment::new(&model, &fd, MiniFedAvg, mk(SamplerKind::Sparse)).run();
        let b = Experiment::new(&model, &fd, MiniFedAvg, mk(SamplerKind::Sparse)).run();
        assert_eq!(a.records.len(), 3);
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.test_acc, rb.test_acc, "sparse sampler not deterministic");
        }
    }

    #[test]
    fn eval_subsampling_caps_work() {
        let mut set = ImageSet::empty(4);
        for i in 0..100 {
            set.push(&[0.0, 1.0, 0.0, 1.0], (i % 2) as u32);
        }
        let model = MlpModel::new(4, 4, 2);
        let params = model.init_params(&mut stream(1, StreamTag::Init, 0, 0));
        let all = evaluate_model(&model, &params, &ClientData::Image(set.clone()), 1, 0);
        let capped = evaluate_model(&model, &params, &ClientData::Image(set), 1, 10);
        assert_eq!(all.count, 100);
        assert_eq!(capped.count, 10);
    }
}
