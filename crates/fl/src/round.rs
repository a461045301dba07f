//! The round, written once: cohort sampling, and [`RoundCore`] — the
//! server side of Algorithm 1 (broadcast, local updates, upload fate,
//! aggregation, evaluation, the round record).
//!
//! Two *schedules* drive the one core: the lock-step
//! [`crate::runner::Experiment`] and the discrete-event simulator
//! (`fedbiad-sim`). They decide who trains when and what the clock says;
//! everything that decides a **result** — churn, byzantine corruption,
//! the value screen, the no-op round, evaluation carry-forward — lives
//! here and nowhere else, which is why the simulator's
//! synchronous-barrier policy reproduces the runner bit-for-bit (see
//! `tests/sim_equivalence.rs` at the workspace root).

use crate::adversary::{churn_fate, corrupt_upload, is_adversary, ChurnFate};
use crate::aggregate::upload_has_non_finite;
use crate::algorithm::{FlAlgorithm, LocalResult, RoundInfo};
use crate::metrics::{current_rss_bytes, peak_rss_bytes, ExperimentLog, RoundRecord};
use crate::runner::ExperimentConfig;
use crate::timing::Stopwatch;
use fedbiad_data::{ClientData, FedDataset};
use fedbiad_nn::{Batch, EvalAccum, Model, ParamSet};
use fedbiad_telemetry::{counter, span};
use fedbiad_tensor::rng::{stream, StreamTag};
use rand::seq::SliceRandom;
use rand::Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Number of clients selected per round: `max(⌊κK⌋, 1)`, clamped to K
/// (Algorithm 1).
///
/// The product is computed in f64: at million-client scale the old
/// `fraction * num_clients as f32` product could land one ulp below the
/// exact value and floor a client short (f32 resolves only ~0.008 at
/// 10^5, ~0.06 at 10^6), and nothing clamped the result to K. Because
/// `fraction` itself arrives through f32, a mathematically integral κK
/// can still sit half an ulp below its integer (64 × 10⁻⁶ quantizes to
/// 6.3999998…e-5, so κK = 63.99999983…), so anything within the f32
/// half-ulp band of an integer is credited before flooring.
pub fn cohort_size(num_clients: usize, fraction: f32) -> usize {
    let x = fraction as f64 * num_clients as f64;
    let half_ulp = x * (f32::EPSILON as f64) * 0.5;
    let c = (x + half_ulp).floor() as usize;
    c.clamp(1, num_clients.max(1))
}

/// Why a cohort could not be resolved ([`resolve_cohort`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CohortError {
    /// The dataset registers no clients at all.
    NoClients,
    /// An explicit cohort override of zero was requested.
    ZeroCohort,
    /// An explicit cohort override exceeds the registered population.
    CohortExceedsClients {
        /// The requested cohort.
        cohort: usize,
        /// Registered clients K.
        num_clients: usize,
    },
}

impl std::fmt::Display for CohortError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CohortError::NoClients => write!(f, "no clients registered"),
            CohortError::ZeroCohort => write!(f, "cohort size must be at least 1"),
            CohortError::CohortExceedsClients {
                cohort,
                num_clients,
            } => write!(
                f,
                "cohort {cohort} exceeds the registered population K = {num_clients}"
            ),
        }
    }
}

impl std::error::Error for CohortError {}

/// Resolve the per-round cohort: an explicit override wins over
/// `⌊κK⌋`; both paths reject the degenerate regimes as structured
/// errors instead of panicking deep inside a million-client run.
pub fn resolve_cohort(
    num_clients: usize,
    fraction: f32,
    explicit: Option<usize>,
) -> Result<usize, CohortError> {
    if num_clients == 0 {
        return Err(CohortError::NoClients);
    }
    match explicit {
        Some(0) => Err(CohortError::ZeroCohort),
        Some(c) if c > num_clients => Err(CohortError::CohortExceedsClients {
            cohort: c,
            num_clients,
        }),
        Some(c) => Ok(c),
        None => Ok(cohort_size(num_clients, fraction)),
    }
}

/// How the per-round cohort is drawn from the registered population.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SamplerKind {
    /// Shuffle all K ids and truncate — O(K) time and memory per round.
    /// The legacy sampler, pinned by the golden digests.
    #[default]
    Shuffle,
    /// Floyd's uniform sampling — O(cohort) time and memory, independent
    /// of K. Same distribution, different draw sequence, so cohorts
    /// differ bit-wise from `Shuffle`: an explicit opt-in for huge
    /// registered populations.
    Sparse,
}

/// Uniform-without-replacement client selection for `round`, returned in
/// ascending id order (the deterministic processing order of the runner).
pub fn sample_clients(seed: u64, round: usize, num_clients: usize, cohort: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..num_clients).collect();
    let mut srng = stream(seed, StreamTag::ClientSampling, round as u64, 0);
    ids.shuffle(&mut srng);
    ids.truncate(cohort);
    ids.sort_unstable();
    ids
}

/// Floyd's algorithm: a uniform `cohort`-subset of `0..num_clients` in
/// O(cohort) time and memory — the registered population is never
/// enumerated. Ascending id order, like [`sample_clients`].
pub fn sample_clients_sparse(
    seed: u64,
    round: usize,
    num_clients: usize,
    cohort: usize,
) -> Vec<usize> {
    let cohort = cohort.min(num_clients);
    let mut srng = stream(seed, StreamTag::ClientSampling, round as u64, 0);
    let mut chosen: HashSet<usize> = HashSet::with_capacity(cohort);
    for j in (num_clients - cohort)..num_clients {
        let t = srng.gen_range(0..=j);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    let mut ids: Vec<usize> = chosen.into_iter().collect();
    ids.sort_unstable();
    ids
}

/// Dispatch on [`SamplerKind`].
pub fn sample_clients_with(
    kind: SamplerKind,
    seed: u64,
    round: usize,
    num_clients: usize,
    cohort: usize,
) -> Vec<usize> {
    match kind {
        SamplerKind::Shuffle => sample_clients(seed, round, num_clients, cohort),
        SamplerKind::Sparse => sample_clients_sparse(seed, round, num_clients, cohort),
    }
}

/// Cross-client statistics of one aggregation's inputs — the
/// deterministic half of a [`RoundRecord`].
#[derive(Clone, Copy, Debug)]
struct RoundStats {
    /// |D_k|-weighted mean of client training losses.
    train_loss: f32,
    /// Mean uplink bytes over participating clients.
    upload_bytes_mean: u64,
    /// Max uplink bytes (round critical path).
    upload_bytes_max: u64,
    /// Mean local-training seconds (LTTR).
    local_seconds_mean: f64,
    /// Max local-training seconds (round critical path).
    local_seconds_max: f64,
}

/// Summarise one round's results exactly as the legacy runner did.
fn summarize_results(results: &[(usize, LocalResult)]) -> RoundStats {
    let total_w: f64 = results.iter().map(|(_, r)| r.num_samples as f64).sum();
    let train_loss = if total_w > 0.0 {
        (results
            .iter()
            .map(|(_, r)| r.train_loss as f64 * r.num_samples as f64)
            .sum::<f64>()
            / total_w) as f32
    } else {
        f32::NAN
    };
    let upload_bytes: Vec<u64> = results.iter().map(|(_, r)| r.upload.wire_bytes).collect();
    let upload_bytes_mean =
        (upload_bytes.iter().sum::<u64>() / upload_bytes.len().max(1) as u64).max(1);
    let upload_bytes_max = upload_bytes.iter().copied().max().unwrap_or(0);
    let local_secs: Vec<f64> = results.iter().map(|(_, r)| r.local_seconds).collect();
    let local_seconds_mean = local_secs.iter().sum::<f64>() / local_secs.len().max(1) as f64;
    let local_seconds_max = local_secs.iter().copied().fold(0.0, f64::max);
    RoundStats {
        train_loss,
        upload_bytes_mean,
        upload_bytes_max,
        local_seconds_mean,
        local_seconds_max,
    }
}

/// Whether `round` is evaluated under `eval_every` (the final round is
/// always evaluated).
fn eval_due(round: usize, total_rounds: usize, eval_every: usize) -> bool {
    round.is_multiple_of(eval_every.max(1)) || round + 1 == total_rounds
}

/// [`RoundCore::merge`] over the global alone, so that
/// [`RoundCore::aggregate`] can lend out the algorithm beside it.
fn merge_into(
    global: &mut ParamSet,
    contributors: usize,
    merge: impl FnOnce(&mut ParamSet),
) -> bool {
    if contributors == 0 {
        return false;
    }
    let _stage = span!("round.aggregate", clients = contributors);
    merge(global);
    true
}

/// One dispatched client's trip through [`RoundCore::train`].
pub struct Trained {
    /// The client.
    pub id: usize,
    /// Its local result, as it appears on the wire: a byzantine client's
    /// upload is already corrupted (values only — a byzantine client
    /// lies about values, not about how many bytes it transmitted).
    pub result: LocalResult,
    /// The upload never reaches the aggregator: lost to mid-round churn,
    /// or rejected by the value-finiteness screen on receipt. The client
    /// still did the work and the wire still carried the bytes, so a
    /// schedule with a clock keeps charging for both.
    pub lost: bool,
}

/// The server side of one FedBIAD round (Algorithm 1), written once:
/// [`train`](Self::train) → [`aggregate`](Self::aggregate) →
/// [`commit`](Self::commit).
///
/// The core owns everything a round reads and writes — the global model,
/// the per-client state table, the algorithm, the churn / adversary /
/// screening rules and the round records. What it does **not** own is
/// *when* things happen: who is selected, which trained uploads have
/// arrived by the time the server aggregates, and what the clock says.
/// Those are the schedule's — the lock-step [`crate::runner::Experiment`]
/// (everyone, immediately, wall clock) and `fedbiad-sim`'s event loop
/// (whoever the policy waited for, virtual clock).
pub struct RoundCore<'a, A: FlAlgorithm> {
    model: &'a dyn Model,
    data: &'a FedDataset,
    algo: A,
    cfg: ExperimentConfig,
    cohort: usize,
    global: ParamSet,
    /// Per-client persistent state, keyed by client id: only clients
    /// that have actually participated hold an entry, so memory is
    /// O(touched clients), not O(K registered). Access is strictly keyed
    /// (never iterated), so hash order cannot reorder anything.
    states: HashMap<usize, A::ClientState>,
    /// The context of the latest [`train`](Self::train), which the next
    /// [`aggregate`](Self::aggregate) hands back to the algorithm.
    last_rctx: Option<A::RoundCtx>,
    records: Vec<RoundRecord>,
}

impl<'a, A: FlAlgorithm> RoundCore<'a, A> {
    /// Resolve the cohort (degenerate regimes are a [`CohortError`], not
    /// a panic mid-run) and draw the initial global model from the
    /// `StreamTag::Init` stream.
    pub fn new(
        model: &'a dyn Model,
        data: &'a FedDataset,
        algo: A,
        cfg: ExperimentConfig,
    ) -> Result<Self, CohortError> {
        let cohort = resolve_cohort(data.num_clients(), cfg.client_fraction, cfg.cohort)?;
        let global = model.init_params(&mut stream(cfg.seed, StreamTag::Init, 0, 0));
        Ok(Self {
            model,
            data,
            algo,
            cfg,
            cohort,
            global,
            states: HashMap::new(),
            last_rctx: None,
            records: Vec::with_capacity(cfg.rounds),
        })
    }

    /// The model architecture.
    pub fn model(&self) -> &'a dyn Model {
        self.model
    }

    /// The federated data.
    pub fn data(&self) -> &'a FedDataset {
        self.data
    }

    /// The resolved per-round cohort size.
    pub fn cohort(&self) -> usize {
        self.cohort
    }

    /// The current global model.
    pub fn global(&self) -> &ParamSet {
        &self.global
    }

    /// Rounds committed so far — also the index of the open round.
    pub fn rounds_done(&self) -> usize {
        self.records.len()
    }

    /// The algorithm's `RoundInfo` tracks *committed* rounds, so
    /// round-scheduled behaviour (FedBIAD's stage boundary, anything
    /// keyed on round/total_rounds) advances identically under every
    /// schedule.
    fn info(&self) -> RoundInfo {
        RoundInfo {
            round: self.records.len(),
            total_rounds: self.cfg.rounds,
            seed: self.cfg.seed,
            agg: self.cfg.agg,
        }
    }

    /// Broadcast the global to `ids` and run their local updates in
    /// parallel (rayon), in `ids` order. Decides every upload's fate:
    ///
    /// 1. an *offline* client (churn) never starts, and neither does a
    ///    client whose shard is empty (a skewed Dirichlet partition can
    ///    hand one out; its eq. (10) weight |D_k| is 0, so the aggregate
    ///    is what it would have been) — both are thinned out before any
    ///    work, and a cohort thinned to nothing returns empty without
    ///    even calling `begin_round`;
    /// 2. a byzantine client's upload is corrupted on the wire, after
    ///    honest training;
    /// 3. only then is loss decided — mid-round *dropout*, or rejection
    ///    by the value-finiteness screen. The screen runs on **every**
    ///    upload, adversary model or not: an honest client whose local
    ///    SGD diverged to NaN is dropped like a hostile one instead of
    ///    poisoning the model. Corrupt first, lose second: a lost upload
    ///    still spends link time on the bytes the wire carried.
    ///
    /// Each result's `local_seconds` is the measured wall clock of
    /// everything the client computed (pattern search, score updates,
    /// compression).
    pub fn train(&mut self, ids: &[usize]) -> Vec<Trained> {
        let ExperimentConfig {
            seed,
            churn,
            adversary,
            ..
        } = self.cfg;
        let info = self.info();
        let fate = |id: usize| {
            churn.map_or(ChurnFate::Healthy, |ch| {
                churn_fate(seed, info.round, id, ch)
            })
        };
        let ids: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|&id| fate(id) != ChurnFate::Offline)
            .filter(|&id| self.data.client(id).num_samples() > 0)
            .collect();
        if ids.is_empty() {
            return Vec::new();
        }

        let rctx = self.algo.begin_round(info, &self.global);
        // Check each client's state out of the table (first-timers get a
        // fresh one) so rayon workers hold disjoint &mut access.
        let mut work: Vec<(usize, A::ClientState)> =
            ids.iter()
                .map(|&id| {
                    let st = self.states.remove(&id).unwrap_or_else(|| {
                        self.algo.init_client_state(id, self.model, &self.global)
                    });
                    (id, st)
                })
                .collect();
        let results: Vec<(usize, LocalResult)> = {
            let _stage = span!("round.train", clients = ids.len());
            work.par_iter_mut()
                .map(|(id, st)| {
                    let _client_span = span!("train.client", client = *id);
                    let sw = Stopwatch::start();
                    // Borrowed from the eager table, or a lazy view whose
                    // samples the local run derives as it reads them —
                    // either way dropped when the client finishes, so
                    // resident data stays O(cohort).
                    let shard = self.data.client(*id);
                    let mut res = self.algo.local_update(
                        info,
                        &rctx,
                        *id,
                        st,
                        &self.global,
                        &shard,
                        self.model,
                        &self.cfg.train,
                    );
                    res.local_seconds = sw.seconds();
                    (*id, res)
                })
                .collect()
        };
        self.states.extend(work);
        self.last_rctx = Some(rctx);

        results
            .into_iter()
            .map(|(id, mut result)| {
                if let Some(adv) = adversary.filter(|a| is_adversary(seed, a.fraction, id)) {
                    result.upload = corrupt_upload(&self.global, &result.upload, adv.mode)
                        .expect("corrupting a well-formed upload");
                }
                let lost = fate(id) == ChurnFate::Dropout
                    || upload_has_non_finite(&self.global, &result.upload).unwrap_or(true);
                Trained { id, result, lost }
            })
            .collect()
    }

    /// Merge `contributors` surviving uploads into the global with
    /// `merge`, under the `round.aggregate` span — unless nothing
    /// survived. A round whose entire upload set was lost to churn or
    /// screening is a defined no-op: the global is untouched, `merge` is
    /// never called (never a panic out of the engines' `total_w > 0`
    /// guards) and `false` comes back.
    ///
    /// Public for the schedule whose merge is not the algorithm's own
    /// (FedBuff's staleness-weighted deltas); everyone else calls
    /// [`aggregate`](Self::aggregate).
    pub fn merge(&mut self, contributors: usize, merge: impl FnOnce(&mut ParamSet)) -> bool {
        merge_into(&mut self.global, contributors, merge)
    }

    /// [`merge`](Self::merge) `results` with the algorithm's own
    /// aggregation rule (eq. (10)), under the context of the latest
    /// [`train`](Self::train).
    pub fn aggregate(&mut self, results: &[(usize, LocalResult)]) -> bool {
        let info = self.info();
        let (algo, rctx) = (&mut self.algo, self.last_rctx.as_ref());
        merge_into(&mut self.global, results.len(), |global| {
            let rctx = rctx.expect("aggregate before any train");
            algo.aggregate(info, rctx, global, results)
        })
    }

    /// Close the open round over the uploads that were merged: upload
    /// accounting, evaluation of the deployable parameters (or the
    /// previous record's `(test_loss, test_acc)` carried forward when
    /// evaluation is not due), and the round record. `agg_seconds` is
    /// the schedule's — measured wall clock or virtual cost. Returns the
    /// index of the round just committed.
    pub fn commit(&mut self, results: &[(usize, LocalResult)], agg_seconds: f64) -> usize {
        let round = self.records.len();
        let stats = {
            let _stage = span!("round.upload");
            let stats = summarize_results(results);
            counter!("round.upload_bytes_max", stats.upload_bytes_max);
            stats
        };
        let due = eval_due(round, self.cfg.rounds, self.cfg.eval_every);
        let (test_loss, test_acc) = {
            let _stage = span!("round.eval", due = due);
            if due {
                let acc = evaluate_model(
                    self.model,
                    &self.algo.eval_params(&self.global),
                    &self.data.test,
                    self.cfg.eval_topk,
                    self.cfg.eval_max_samples,
                );
                (acc.mean_loss(), acc.accuracy())
            } else {
                self.records
                    .last()
                    .map_or((f64::NAN, 0.0), |r| (r.test_loss, r.test_acc))
            }
        };
        self.records.push(RoundRecord {
            round,
            train_loss: stats.train_loss,
            test_loss,
            test_acc,
            upload_bytes_mean: stats.upload_bytes_mean,
            upload_bytes_max: stats.upload_bytes_max,
            // Downlink: the server broadcasts the full global model
            // (the uplink is the paper's bottleneck; downlink
            // sub-model optimisations are out of scope, DESIGN.md §3).
            download_bytes: self.global.total_bytes(),
            local_seconds_mean: stats.local_seconds_mean,
            local_seconds_max: stats.local_seconds_max,
            agg_seconds,
            peak_rss_bytes: peak_rss_bytes(),
            rss_bytes: current_rss_bytes(),
            contributors: results.len(),
        });
        round
    }

    /// The finished experiment's log.
    pub fn into_log(self) -> ExperimentLog {
        ExperimentLog {
            dataset: self.data.name.clone(),
            method: self.algo.name(),
            seed: self.cfg.seed,
            records: self.records,
        }
    }
}

/// Evaluate `params` on a dataset, rayon-parallel over chunks.
/// `max_samples = 0` means the whole set.
///
/// Each chunk runs through the model's batched engine
/// (`Model::evaluate_batched`) with a chunk-local workspace arena; chunk
/// boundaries and the in-order merge are unchanged, so results are
/// bit-identical to the per-sample path.
pub fn evaluate_model(
    model: &dyn Model,
    params: &ParamSet,
    data: &ClientData,
    topk: usize,
    max_samples: usize,
) -> EvalAccum {
    const CHUNK: usize = 64;
    match data {
        ClientData::Image(set) => {
            let n = if max_samples == 0 {
                set.len()
            } else {
                set.len().min(max_samples)
            };
            let chunks: Vec<(usize, usize)> = (0..n)
                .step_by(CHUNK)
                .map(|s| (s, (s + CHUNK).min(n)))
                .collect();
            chunks
                .par_iter()
                .map(|&(s, e)| {
                    let batch = Batch::Dense {
                        x: &set.x[s * set.dim..e * set.dim],
                        y: &set.y[s..e],
                        dim: set.dim,
                    };
                    let mut ws = fedbiad_tensor::Workspace::new();
                    model.evaluate_batched(params, &batch, topk, &mut ws)
                })
                .reduce(EvalAccum::default, |mut a, b| {
                    a.merge(&b);
                    a
                })
        }
        ClientData::LazyImage(view) => {
            let set = ClientData::Image(view.materialize());
            evaluate_model(model, params, &set, topk, max_samples)
        }
        ClientData::Text(set) => {
            let n_windows = set.num_windows();
            let budget = if max_samples == 0 {
                n_windows
            } else {
                (max_samples / set.seq_len.max(1)).clamp(1, n_windows)
            };
            let chunks: Vec<(usize, usize)> = (0..budget)
                .step_by(CHUNK / 8 + 1)
                .map(|s| (s, (s + CHUNK / 8 + 1).min(budget)))
                .collect();
            chunks
                .par_iter()
                .map(|&(s, e)| {
                    let windows: Vec<&[u32]> = (s..e).map(|i| set.window(i)).collect();
                    let batch = Batch::Seq { windows: &windows };
                    let mut ws = fedbiad_tensor::Workspace::new();
                    model.evaluate_batched(params, &batch, topk, &mut ws)
                })
                .reduce(EvalAccum::default, |mut a, b| {
                    a.merge(&b);
                    a
                })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversarySpec, AttackMode, ChurnSpec, GarbageKind};
    use crate::aggregate::{aggregate_weights, ZeroMode};
    use crate::algorithm::TrainConfig;
    use crate::upload::Upload;
    use fedbiad_data::dataset::ImageSet;
    use fedbiad_nn::mlp::MlpModel;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    #[test]
    fn cohort_size_floors_with_min_one() {
        assert_eq!(cohort_size(100, 0.1), 10);
        assert_eq!(cohort_size(9, 0.1), 1); // ⌊0.9⌋ = 0 → 1
        assert_eq!(cohort_size(25, 0.5), 12);
    }

    #[test]
    fn cohort_size_is_exact_and_clamped_at_million_scale() {
        // 64/10^6 as f32 is 6.4000001e-5; the old f32 product floored to
        // 63 at K = 10^6. f64 keeps the product above 64.
        assert_eq!(cohort_size(1_000_000, 64e-6), 64);
        assert_eq!(cohort_size(1_000_000, 0.1), 100_000);
        // fraction = 1 must never exceed K, nor can rounding push past it.
        assert_eq!(cohort_size(1_000_000, 1.0), 1_000_000);
        assert_eq!(cohort_size(3, 1.0), 3);
    }

    #[test]
    fn resolve_cohort_rejects_degenerate_regimes() {
        assert_eq!(resolve_cohort(0, 0.1, None), Err(CohortError::NoClients));
        assert_eq!(
            resolve_cohort(10, 0.1, Some(0)),
            Err(CohortError::ZeroCohort)
        );
        assert_eq!(
            resolve_cohort(10, 0.1, Some(11)),
            Err(CohortError::CohortExceedsClients {
                cohort: 11,
                num_clients: 10
            })
        );
        // Boundaries: 1, K, and the implicit ⌊κK⌋ path.
        assert_eq!(resolve_cohort(10, 0.1, Some(1)), Ok(1));
        assert_eq!(resolve_cohort(10, 0.1, Some(10)), Ok(10));
        assert_eq!(resolve_cohort(1_000_000, 64e-6, None), Ok(64));
        let msg = resolve_cohort(10, 0.1, Some(11)).unwrap_err().to_string();
        assert!(msg.contains("cohort 11") && msg.contains("K = 10"), "{msg}");
    }

    #[test]
    fn sparse_sampling_is_sorted_unique_deterministic_and_o_cohort() {
        let a = sample_clients_sparse(7, 3, 1_000_000, 64);
        let b = sample_clients_sparse(7, 3, 1_000_000, 64);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "{a:?}");
        assert!(a.iter().all(|&id| id < 1_000_000));
        let c = sample_clients_sparse(7, 4, 1_000_000, 64);
        assert_ne!(a, c, "different rounds should differ");
        // Full-population edge: cohort = K yields exactly 0..K.
        let all = sample_clients_sparse(7, 0, 5, 5);
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sampler_kinds_draw_the_same_cohort_sizes() {
        for kind in [SamplerKind::Shuffle, SamplerKind::Sparse] {
            let ids = sample_clients_with(kind, 3, 1, 50, 10);
            assert_eq!(ids.len(), 10, "{kind:?}");
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn sampling_is_sorted_unique_and_deterministic() {
        let a = sample_clients(7, 3, 50, 10);
        let b = sample_clients(7, 3, 50, 10);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "{a:?}");
        let c = sample_clients(7, 4, 50, 10);
        assert_ne!(a, c, "different rounds should differ");
    }

    #[test]
    fn eval_due_includes_final_round() {
        assert!(eval_due(0, 10, 3));
        assert!(!eval_due(1, 10, 3));
        assert!(eval_due(3, 10, 3));
        assert!(eval_due(9, 10, 3)); // final round always
        assert!(eval_due(4, 10, 0)); // eval_every 0 treated as 1
    }

    #[test]
    fn summarize_matches_hand_calc() {
        use fedbiad_nn::params::{EntryMeta, LayerKind};
        let mut p = ParamSet::new();
        p.push_entry(
            fedbiad_tensor::Matrix::full(2, 2, 1.0),
            None,
            EntryMeta::new("w", LayerKind::DenseHidden, false, true),
        );
        let mk = |loss: f32, n: usize, secs: f64| LocalResult {
            upload: Upload::full_weights(p.clone()),
            train_loss: loss,
            loss_improvement: 0.0,
            local_seconds: secs,
            num_samples: n,
        };
        let results = vec![(0, mk(1.0, 1, 2.0)), (1, mk(3.0, 3, 4.0))];
        let s = summarize_results(&results);
        assert!((s.train_loss - 2.5).abs() < 1e-6); // (1·1 + 3·3)/4
        assert!((s.local_seconds_mean - 3.0).abs() < 1e-12);
        assert!((s.local_seconds_max - 4.0).abs() < 1e-12);
        assert_eq!(s.upload_bytes_mean, p.total_bytes());
    }

    // ---- RoundCore: the upload-fate rule, where it lives ---------------

    /// FedAvg without the training: every client uploads `global + 1`,
    /// and the stub counts who was asked to do what.
    #[derive(Default)]
    struct Counting {
        begun: Arc<AtomicUsize>,
        trained: Arc<Mutex<Vec<usize>>>,
    }

    impl FlAlgorithm for Counting {
        type ClientState = ();
        type RoundCtx = ();

        fn name(&self) -> String {
            "counting".into()
        }

        fn init_client_state(&self, _: usize, _: &dyn Model, _: &ParamSet) {}

        fn begin_round(&mut self, _: RoundInfo, _: &ParamSet) {
            self.begun.fetch_add(1, Ordering::Relaxed);
        }

        fn local_update(
            &self,
            _: RoundInfo,
            _: &(),
            client_id: usize,
            _: &mut (),
            global: &ParamSet,
            data: &ClientData,
            _: &dyn Model,
            _: &TrainConfig,
        ) -> LocalResult {
            self.trained.lock().unwrap().push(client_id);
            let mut u = global.clone();
            for e in 0..u.num_entries() {
                u.mat_mut(e)
                    .as_mut_slice()
                    .iter_mut()
                    .for_each(|v| *v += 1.0);
            }
            LocalResult {
                upload: Upload::full_weights(u),
                train_loss: 1.0,
                loss_improvement: 0.0,
                local_seconds: 0.0,
                num_samples: data.num_samples(),
            }
        }

        fn aggregate(
            &mut self,
            info: RoundInfo,
            _: &(),
            global: &mut ParamSet,
            results: &[(usize, LocalResult)],
        ) {
            let ups: Vec<(f32, &Upload)> = results
                .iter()
                .map(|(_, r)| (r.num_samples as f32, &r.upload))
                .collect();
            aggregate_weights(global, &ups, ZeroMode::ZerosPull, info.agg).unwrap();
        }
    }

    fn bits(p: &ParamSet) -> Vec<u32> {
        p.flatten().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn core_decides_every_upload_fate_and_commits_what_it_is_given() {
        const SEED: u64 = 7;
        let all = |offline, dropout| Some(ChurnSpec { offline, dropout });
        let nan = Some(AdversarySpec {
            fraction: 1.0,
            mode: AttackMode::Garbage {
                kind: GarbageKind::Nan,
            },
        });
        // (what, churn, adversary): the expected fate of each client
        // follows from these alone, see below.
        let cases = [
            ("healthy", None, None),
            ("everyone offline", all(1.0, 0.0), None),
            ("everyone drops out", all(0.0, 1.0), None),
            ("everyone uploads NaN", None, nan),
            ("mixed churn", all(0.4, 0.4), None),
        ];

        let mut shard = ImageSet::empty(4);
        shard.push(&[0.0, 1.0, 0.0, 1.0], 1);
        let shard = ClientData::Image(shard);
        let data = FedDataset {
            name: "unit".into(),
            clients: vec![shard.clone(); 8],
            lazy: None,
            test: shard,
        };
        let model = MlpModel::new(4, 3, 2);
        let ids: Vec<usize> = (0..8).collect();

        for (what, churn, adversary) in cases {
            let algo = Counting::default();
            let (begun, trained_log) = (algo.begun.clone(), algo.trained.clone());
            let cfg = ExperimentConfig {
                rounds: 1,
                seed: SEED,
                churn,
                adversary,
                ..Default::default()
            };
            let mut core = RoundCore::new(&model, &data, algo, cfg).unwrap();
            let before = bits(core.global());

            let fate = |id| churn.map_or(ChurnFate::Healthy, |ch| churn_fate(SEED, 0, id, ch));
            let online: Vec<usize> = ids
                .iter()
                .copied()
                .filter(|&id| fate(id) != ChurnFate::Offline)
                .collect();

            let trained = core.train(&ids);
            // An offline client never reaches local_update; everyone else
            // does, exactly once, and comes back in id order.
            let mut log = trained_log.lock().unwrap().clone();
            log.sort_unstable();
            assert_eq!(log, online, "{what}: who trained");
            assert_eq!(
                trained.iter().map(|t| t.id).collect::<Vec<_>>(),
                online,
                "{what}: who came back"
            );
            // A cohort thinned to nothing skips begin_round.
            assert_eq!(
                begun.load(Ordering::Relaxed),
                usize::from(!online.is_empty()),
                "{what}: begin_round calls"
            );
            // Dropouts and NaN uploads trained, and are lost.
            for t in &trained {
                let expect = fate(t.id) == ChurnFate::Dropout || adversary.is_some();
                assert_eq!(t.lost, expect, "{what}: client {} lost", t.id);
            }

            let survivors: Vec<(usize, LocalResult)> = trained
                .into_iter()
                .filter(|t| !t.lost)
                .map(|t| (t.id, t.result))
                .collect();
            assert_eq!(core.aggregate(&survivors), !survivors.is_empty(), "{what}");
            if survivors.is_empty() {
                assert_eq!(
                    bits(core.global()),
                    before,
                    "{what}: no-op round moved the global"
                );
            } else {
                assert_ne!(bits(core.global()), before, "{what}: nothing merged");
            }
            assert_eq!(core.commit(&survivors, 1.25), 0);
            assert_eq!(core.rounds_done(), 1);
            let log = core.into_log();
            assert_eq!(log.records[0].contributors, survivors.len(), "{what}");
            // The schedule's agg_seconds lands verbatim.
            assert_eq!(log.records[0].agg_seconds, 1.25, "{what}");
            assert!(log.records[0].test_loss.is_finite(), "{what}");
        }

        // The mixed case really mixes, or the table proves less than it
        // claims.
        let fates: Vec<ChurnFate> = ids
            .iter()
            .map(|&id| churn_fate(SEED, 0, id, all(0.4, 0.4).unwrap()))
            .collect();
        for f in [ChurnFate::Healthy, ChurnFate::Offline, ChurnFate::Dropout] {
            assert!(fates.contains(&f), "seed {SEED} draws no {f:?}: {fates:?}");
        }
    }
}
