//! The discrete-event simulator: a virtual clock driving client actors
//! and a pluggable [`ServerPolicy`].
//!
//! ## How a dispatch becomes an arrival
//!
//! When the policy dispatches a set of clients, the simulator runs their
//! *real* local updates immediately (in parallel, through the same
//! [`fedbiad_fl::round`] ingredients as the lock-step runner — this is
//! what makes results exact rather than modelled) and schedules one
//! arrival event per client at
//!
//! ```text
//! now + download(global)/downlink + RTT          (broadcast)
//!     + compute · multiplier · jitter            (local training)
//!     + upload(wire_bytes)/uplink + RTT          (upload)
//! ```
//!
//! using that client's own link and compute profile. Aggregation
//! semantics, evaluation, and round records are shared with the legacy
//! runner, so the synchronous-barrier policy on a homogeneous cohort
//! reproduces `Experiment::run` bit-for-bit (`tests/sim_equivalence.rs`).
//!
//! ## Determinism
//!
//! Every event time is derived from seed-indexed RNG streams and fixed
//! f64 arithmetic; the event queue breaks ties FIFO; aggregation inputs
//! are sorted by client id. The full event trace is therefore
//! bit-identical across thread counts (`tests/thread_determinism.rs`).

use crate::event::{EventQueue, TraceEvent, TraceKind};
use crate::policy::{Action, PolicyEvent, ServerPolicy, ServerView};
use crate::profile::{CostModel, HeterogeneityProfile};
use fedbiad_data::FedDataset;
use fedbiad_fl::adversary::{churn_fate, corrupt_upload, is_adversary, ChurnFate};
use fedbiad_fl::aggregate::{merge_staleness_weighted, upload_has_non_finite, StalenessUpload};
use fedbiad_fl::algorithm::{FlAlgorithm, LocalResult, RoundInfo};
use fedbiad_fl::metrics::{ExperimentLog, RoundRecord};
use fedbiad_fl::round::{
    eval_due, eval_or_carry, resolve_cohort, run_local_updates, summarize_results, ClientStates,
    CohortError,
};
use fedbiad_fl::runner::ExperimentConfig;
use fedbiad_nn::{Model, ParamSet};
use fedbiad_telemetry::{counter, gauge, span};
use fedbiad_tensor::rng::{stream, StreamTag};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Simulation configuration: the experiment base plus the virtual world.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// The experiment configuration shared with the lock-step runner
    /// (`rounds` = number of aggregations to record).
    pub base: ExperimentConfig,
    /// Cohort heterogeneity.
    pub heterogeneity: HeterogeneityProfile,
    /// Virtual compute/aggregation cost model.
    pub cost: CostModel,
    /// Hard cap on processed events (guards against a policy that stops
    /// making progress).
    pub max_events: usize,
}

impl SimConfig {
    /// Config with default cost model and event cap.
    pub fn new(base: ExperimentConfig, heterogeneity: HeterogeneityProfile) -> Self {
        Self {
            base,
            heterogeneity,
            cost: CostModel::default(),
            max_events: 1_000_000,
        }
    }
}

/// What a simulation run produces.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimReport {
    /// The experiment log, shaped exactly like the lock-step runner's
    /// (timing fields hold *virtual* seconds).
    pub log: ExperimentLog,
    /// Server-policy name.
    pub policy: String,
    /// Heterogeneity-profile name.
    pub profile: String,
    /// Virtual time at which each recorded round's aggregation committed.
    pub round_end_seconds: Vec<f64>,
    /// Virtual time when the simulation stopped.
    pub total_virtual_seconds: f64,
    /// The full event trace (the determinism artifact).
    pub trace: Vec<TraceEvent>,
}

impl SimReport {
    /// Virtual seconds until `target_acc` is first reached, `None` if
    /// never — the simulator's first-class TTA (no post-hoc link formula
    /// needed; the clock already saw every transmission).
    pub fn time_to_accuracy(&self, target_acc: f64) -> Option<f64> {
        self.log
            .records
            .iter()
            .zip(&self.round_end_seconds)
            .find(|(r, _)| r.test_acc >= target_acc)
            .map(|(_, t)| *t)
    }
}

/// A discrete-event federated experiment: one (model, dataset,
/// algorithm, policy) quadruple.
pub struct Simulator<'a, A: FlAlgorithm, P: ServerPolicy> {
    /// The model architecture.
    pub model: &'a dyn Model,
    /// Federated data.
    pub data: &'a FedDataset,
    /// The FL method under test.
    pub algo: A,
    /// The server policy driving dispatch/aggregation timing.
    pub policy: P,
    /// Configuration.
    pub cfg: SimConfig,
}

enum SimEvent {
    Arrival { dispatch_id: u64 },
    Timer { id: u64 },
}

/// An upload in transit: the result is computed eagerly at dispatch (the
/// data it depends on is frozen then); the event queue only delays its
/// *visibility* to the server.
struct InFlightEntry {
    dispatch_id: u64,
    client: usize,
    /// Global-model version the client trained from (staleness base).
    version: u64,
    result: LocalResult,
    /// The dispatched global, for delta-based staleness merging. `None`
    /// when the policy never buffers deltas (`needs_snapshots()` false).
    snapshot: Option<Arc<ParamSet>>,
    /// The upload never reaches the buffer: lost to mid-round churn, or
    /// rejected by the value-finiteness screen on receipt. Decided at
    /// dispatch (the draws are deterministic); the arrival event still
    /// fires so policies observe the client finishing.
    lost: bool,
}

struct Buffered {
    client: usize,
    version: u64,
    result: LocalResult,
    snapshot: Option<Arc<ParamSet>>,
}

struct Engine<'a, A: FlAlgorithm> {
    model: &'a dyn Model,
    data: &'a FedDataset,
    algo: A,
    cfg: SimConfig,
    cohort: usize,
    /// Whether dispatches must snapshot the global (policy merges deltas).
    snapshots_enabled: bool,
    global: ParamSet,
    states: ClientStates<A>,
    last_rctx: Option<A::RoundCtx>,
    queue: EventQueue<SimEvent>,
    now: f64,
    version: u64,
    dispatch_seq: usize,
    next_dispatch_id: u64,
    in_flight: Vec<InFlightEntry>,
    dropped: HashMap<u64, usize>,
    buffer: Vec<Buffered>,
    records: Vec<RoundRecord>,
    round_end_seconds: Vec<f64>,
    trace: Vec<TraceEvent>,
}

impl<'a, A: FlAlgorithm, P: ServerPolicy> Simulator<'a, A, P> {
    /// Construct a simulator.
    pub fn new(
        model: &'a dyn Model,
        data: &'a FedDataset,
        algo: A,
        policy: P,
        cfg: SimConfig,
    ) -> Self {
        Self {
            model,
            data,
            algo,
            policy,
            cfg,
        }
    }

    /// Run until `cfg.base.rounds` rounds are recorded (or the event
    /// queue drains) and return the report. Panics on a degenerate cohort
    /// configuration; use [`Simulator::try_run`] for the structured error.
    pub fn run(self) -> SimReport {
        self.try_run().expect("cohort configuration invalid")
    }

    /// [`Simulator::run`] with structured cohort errors instead of
    /// panics — a million-client scenario would rather learn `cohort 0`
    /// at startup than deep inside the event loop.
    pub fn try_run(self) -> Result<SimReport, CohortError> {
        let k = self.data.num_clients();
        let cohort = resolve_cohort(k, self.cfg.base.client_fraction, self.cfg.base.cohort)?;
        let seed = self.cfg.base.seed;

        // Same initialisation stream as the lock-step runner.
        let mut init_rng = stream(seed, StreamTag::Init, 0, 0);
        let global = self.model.init_params(&mut init_rng);

        let mut engine = Engine {
            model: self.model,
            data: self.data,
            algo: self.algo,
            cohort,
            snapshots_enabled: self.policy.needs_snapshots(),
            cfg: self.cfg,
            global,
            states: ClientStates::new(),
            last_rctx: None,
            queue: EventQueue::new(),
            now: 0.0,
            version: 0,
            dispatch_seq: 0,
            next_dispatch_id: 0,
            in_flight: Vec::new(),
            dropped: HashMap::new(),
            buffer: Vec::new(),
            records: Vec::new(),
            round_end_seconds: Vec::new(),
            trace: Vec::new(),
        };
        let mut policy = self.policy;

        engine.drive(&mut policy, PolicyEvent::Start);

        let mut processed = 0usize;
        while engine.records.len() < engine.cfg.base.rounds {
            let Some(ev) = engine.queue.pop() else {
                // Queue drained with rounds still owed. Under an active
                // churn/adversary model that is a legitimate stall — every
                // upload of the open round was lost, so no event is left
                // for the policy to react to. Commit a defined no-op round
                // and let the policy reopen on `Recorded`. Without those
                // models, a drained queue means the policy stopped making
                // progress: preserve the historical truncated-log exit.
                let models_active =
                    engine.cfg.base.churn.is_some() || engine.cfg.base.adversary.is_some();
                if models_active && engine.in_flight.is_empty() && engine.buffer.is_empty() {
                    let round = engine.commit_round(engine.records.len(), &[]);
                    engine.drive(&mut policy, PolicyEvent::Recorded { round });
                    continue;
                }
                break;
            };
            counter!("sim.events_dequeued", 1u64);
            gauge!("sim.queue_depth", engine.queue.len());
            processed += 1;
            assert!(
                processed <= engine.cfg.max_events,
                "simulator exceeded max_events = {} (policy stopped making progress?)",
                engine.cfg.max_events
            );
            engine.now = engine.now.max(ev.time);
            match ev.payload {
                SimEvent::Arrival { dispatch_id } => {
                    if let Some(pos) = engine
                        .in_flight
                        .iter()
                        .position(|e| e.dispatch_id == dispatch_id)
                    {
                        let entry = engine.in_flight.remove(pos);
                        let client = entry.client;
                        if entry.lost {
                            // Churn ate the upload (or the screen rejected
                            // it): nothing enters the buffer, but the
                            // policy still observes the client finishing —
                            // barriers must close on lost clients too.
                            engine.push_trace(TraceKind::ChurnLost, client);
                        } else {
                            engine.push_trace(TraceKind::Arrival, client);
                            engine.buffer.push(Buffered {
                                client: entry.client,
                                version: entry.version,
                                result: entry.result,
                                snapshot: entry.snapshot,
                            });
                        }
                        engine.drive(&mut policy, PolicyEvent::Arrived { client });
                    } else if let Some(client) = engine.dropped.remove(&dispatch_id) {
                        // The round this upload belonged to was closed by
                        // a deadline; the server ignores it.
                        engine.push_trace(TraceKind::LateArrival, client);
                    } else {
                        unreachable!("arrival for unknown dispatch {dispatch_id}");
                    }
                }
                SimEvent::Timer { id } => {
                    engine.push_trace(TraceKind::Timer, usize::MAX);
                    engine.drive(&mut policy, PolicyEvent::Timer { id });
                }
            }
        }

        Ok(SimReport {
            log: ExperimentLog {
                dataset: engine.data.name.clone(),
                method: engine.algo.name(),
                seed,
                records: engine.records,
            },
            policy: policy.name(),
            profile: engine.cfg.heterogeneity.name().to_string(),
            round_end_seconds: engine.round_end_seconds,
            total_virtual_seconds: engine.now,
            trace: engine.trace,
        })
    }
}

impl<'a, A: FlAlgorithm> Engine<'a, A> {
    fn push_trace(&mut self, kind: TraceKind, client: usize) {
        self.trace.push(TraceEvent {
            time: self.now,
            kind,
            client,
            rounds_done: self.records.len(),
        });
    }

    fn in_flight_ids(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self.in_flight.iter().map(|e| e.client).collect();
        ids.sort_unstable();
        ids
    }

    /// Clients whose dropped uploads are still on the virtual wire.
    fn transit_dropped_ids(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self.dropped.values().copied().collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Feed `first` to the policy and execute the resulting actions,
    /// including the `Recorded` follow-up events aggregations produce.
    fn drive<P: ServerPolicy>(&mut self, policy: &mut P, first: PolicyEvent) {
        let mut pending = VecDeque::new();
        pending.push_back(first);
        while let Some(ev) = pending.pop_front() {
            if self.records.len() >= self.cfg.base.rounds {
                return;
            }
            let actions = {
                let ids = self.in_flight_ids();
                let transit_dropped = self.transit_dropped_ids();
                let view = ServerView {
                    now: self.now,
                    seed: self.cfg.base.seed,
                    num_clients: self.data.num_clients(),
                    cohort: self.cohort,
                    sampler: self.cfg.base.sampler,
                    rounds_total: self.cfg.base.rounds,
                    rounds_done: self.records.len(),
                    buffered: self.buffer.len(),
                    in_flight: &ids,
                    transit_dropped: &transit_dropped,
                };
                policy.react(ev, &view)
            };
            for action in actions {
                if self.records.len() >= self.cfg.base.rounds {
                    return;
                }
                match action {
                    Action::Dispatch(ids) => {
                        if let Some(round) = self.dispatch(&ids) {
                            pending.push_back(PolicyEvent::Recorded { round });
                        }
                    }
                    Action::AggregateRound => {
                        let round = self.aggregate_round();
                        pending.push_back(PolicyEvent::Recorded { round });
                    }
                    Action::AggregateBuffered { alpha, server_lr } => {
                        let round = self.aggregate_buffered(alpha, server_lr);
                        pending.push_back(PolicyEvent::Recorded { round });
                    }
                    Action::DropInFlight => {
                        counter!("sim.clients_dropped", self.in_flight.len());
                        for e in self.in_flight.drain(..) {
                            self.dropped.insert(e.dispatch_id, e.client);
                        }
                    }
                    Action::SetTimer { delay, id } => {
                        assert!(delay >= 0.0, "negative timer delay");
                        self.queue.push(self.now + delay, SimEvent::Timer { id });
                    }
                }
            }
        }
    }

    /// Broadcast the current global to `ids`, run their local updates
    /// (in parallel), and schedule each upload's arrival on the virtual
    /// clock.
    ///
    /// Returns `Some(round)` only when an active churn model collapsed a
    /// non-empty dispatch to nothing with the server otherwise idle: the
    /// round can never close on its own, so a defined no-op round is
    /// committed on the spot and the caller must drive `Recorded`.
    fn dispatch(&mut self, ids: &[usize]) -> Option<usize> {
        if ids.is_empty() {
            return None;
        }
        let seed = self.cfg.base.seed;
        let round_now = self.records.len();
        let mut ids: Vec<usize> = ids.to_vec();
        if let Some(ch) = self.cfg.base.churn {
            // Offline clients never even start: the policy's selection is
            // thinned before any work (or virtual traffic) happens.
            ids.retain(|&id| churn_fate(seed, round_now, id, ch) != ChurnFate::Offline);
        }
        if ids.is_empty() {
            if self.in_flight.is_empty() && self.buffer.is_empty() {
                return Some(self.commit_round(round_now, &[]));
            }
            return None;
        }
        let ids = &ids[..];
        debug_assert!(
            ids.iter()
                .all(|id| self.in_flight.iter().all(|e| e.client != *id)),
            "dispatching a client that is already in flight"
        );
        debug_assert!(
            ids.iter().all(|id| !self.dropped.values().any(|c| c == id)),
            "dispatching a client whose dropped upload is still in transit"
        );
        // The algorithm's RoundInfo tracks *committed* rounds, so
        // round-scheduled behavior (FedBIAD's stage boundary, data
        // growth, anything keyed on round/total_rounds) advances exactly
        // as it would in the lock-step runner, under every policy. An
        // async policy may dispatch the same client more than once
        // within one committed round; such a client reuses its per-round
        // RNG streams for that round (its batches repeat until the next
        // aggregation commits) — the schedule fidelity matters more.
        let info = RoundInfo {
            round: self.records.len(),
            total_rounds: self.cfg.base.rounds,
            seed,
            agg: self.cfg.base.agg,
        };
        let dispatch_idx = self.dispatch_seq as u64;
        self.dispatch_seq += 1;

        let rctx = self.algo.begin_round(info, &self.global);
        let mut work = self
            .states
            .checkout(ids, &self.algo, self.model, &self.global);
        let mut results = {
            let _stage = span!("round.train", clients = ids.len());
            run_local_updates(
                &self.algo,
                self.model,
                self.data,
                &self.cfg.base.train,
                info,
                &rctx,
                &self.global,
                &mut work,
            )
        };
        self.states.restore(work);
        self.last_rctx = Some(rctx);

        if let Some(adv) = self.cfg.base.adversary {
            for (id, res) in results.iter_mut() {
                if is_adversary(seed, adv.fraction, *id) {
                    res.upload = corrupt_upload(&self.global, &res.upload, adv.mode)
                        .expect("corrupting a well-formed upload");
                }
            }
        }

        let snapshot = self
            .snapshots_enabled
            .then(|| Arc::new(self.global.clone()));
        let download_bytes = self.global.total_bytes();
        let total_weights = self.model.arch().total_weights;
        let jitter = self.cfg.heterogeneity.jitter();
        for (id, mut res) in results {
            // Profiles derive on demand from the per-client stream: the
            // engine holds no O(registered-clients) profile table.
            let prof = self.cfg.heterogeneity.profile_for(seed, id);
            let jitter_mult = if jitter > 0.0 {
                let mut jrng = stream(seed, StreamTag::SimJitter, dispatch_idx, id as u64);
                1.0 + jitter * (2.0 * jrng.gen::<f64>() - 1.0)
            } else {
                1.0
            };
            let compute = self.cfg.cost.local_seconds(
                total_weights,
                self.cfg.base.train.local_iters,
                prof.compute_multiplier,
            ) * jitter_mult;
            // Record the *virtual* local time: it is what the simulated
            // clock (and thus TTA) is made of.
            res.local_seconds = compute;
            let arrival = self.now
                + prof.net.download_message_seconds(download_bytes)
                + compute
                + prof.net.upload_message_seconds(res.upload.wire_bytes);
            // Loss is decided now (the draws are deterministic in
            // (round, client)), but takes effect only when the arrival
            // event fires — the wire still carries the bytes, the link
            // still spends the time, and the policy still sees the
            // client finish.
            let dropout = self
                .cfg
                .base
                .churn
                .is_some_and(|ch| churn_fate(seed, round_now, id, ch) == ChurnFate::Dropout);
            let screened = self.cfg.base.adversary.is_some()
                && upload_has_non_finite(&self.global, &res.upload).unwrap_or(true);
            let dispatch_id = self.next_dispatch_id;
            self.next_dispatch_id += 1;
            self.queue.push(arrival, SimEvent::Arrival { dispatch_id });
            self.in_flight.push(InFlightEntry {
                dispatch_id,
                client: id,
                version: self.version,
                result: res,
                snapshot: snapshot.clone(),
                lost: dropout || screened,
            });
            self.push_trace(TraceKind::Dispatch, id);
        }
        None
    }

    /// Drain the buffer into the algorithm's own aggregation (inputs in
    /// ascending client-id order — the lock-step runner's order), then
    /// evaluate and commit a round record. Returns the round index.
    fn aggregate_round(&mut self) -> usize {
        if self.buffer.is_empty() {
            // Every upload of the round was lost to churn or rejected by
            // the value screen: a defined no-op — the global is untouched
            // and the record notes zero contributors.
            return self.commit_round(self.records.len(), &[]);
        }
        self.buffer.sort_by_key(|b| b.client);
        let results: Vec<(usize, LocalResult)> = self
            .buffer
            .drain(..)
            .map(|b| (b.client, b.result))
            .collect();
        let round = self.records.len();
        let info = RoundInfo {
            round,
            total_rounds: self.cfg.base.rounds,
            seed: self.cfg.base.seed,
            agg: self.cfg.base.agg,
        };
        let rctx = self
            .last_rctx
            .as_ref()
            .expect("aggregate before any dispatch");
        {
            let _stage = span!("round.aggregate", clients = results.len());
            counter!("sim.merges_sync", 1u64);
            self.algo.aggregate(info, rctx, &mut self.global, &results);
        }
        self.commit_round(round, &results)
    }

    /// FedBuff merge: `global += lr · Σ wᵢΔᵢ / Σ wᵢ` with
    /// `wᵢ = |Dᵢ|/(1+τᵢ)^α`, where Δᵢ is the upload relative to the
    /// global the client was dispatched with (masked uploads contribute
    /// deltas only on their covered rows). Then evaluate and commit.
    ///
    /// The merge arithmetic itself lives in
    /// [`fedbiad_fl::aggregate::merge_staleness_weighted`], shared between
    /// the sharded streaming engine and its dense oracle.
    fn aggregate_buffered(&mut self, alpha: f64, server_lr: f64) -> usize {
        if self.buffer.is_empty() {
            // Same defined no-op as `aggregate_round`: nothing survived,
            // nothing merges, the version does not advance.
            return self.commit_round(self.records.len(), &[]);
        }
        self.buffer.sort_by_key(|b| b.client);
        let drained: Vec<Buffered> = self.buffer.drain(..).collect();
        let items: Vec<StalenessUpload> = drained
            .iter()
            .map(|b| {
                let staleness = (self.version - b.version) as f64;
                StalenessUpload {
                    weight: b.result.num_samples as f64 / (1.0 + staleness).powf(alpha),
                    upload: &b.result.upload,
                    snapshot: b.snapshot.as_deref(),
                }
            })
            .collect();
        {
            let _stage = span!("round.aggregate", clients = items.len());
            counter!("sim.merges_staleness", 1u64);
            merge_staleness_weighted(&mut self.global, &items, server_lr, self.cfg.base.agg)
                .expect("buffered-async merge failed");
        }
        drop(items);
        let round = self.records.len();
        let results: Vec<(usize, LocalResult)> =
            drained.into_iter().map(|b| (b.client, b.result)).collect();
        self.commit_round(round, &results)
    }

    /// Shared bookkeeping after any aggregation: version bump, virtual
    /// aggregation cost, evaluation (or carry-forward), round record.
    fn commit_round(&mut self, round: usize, results: &[(usize, LocalResult)]) -> usize {
        // A no-op round (zero contributors) leaves the global — and hence
        // the staleness version — untouched and spends no virtual
        // aggregation time; there was nothing to merge.
        let agg_seconds = if results.is_empty() {
            0.0
        } else {
            self.version += 1;
            self.now += self.cfg.cost.agg_seconds;
            self.cfg.cost.agg_seconds
        };
        let stats = {
            let _stage = span!("round.upload");
            summarize_results(results)
        };
        let due = eval_due(round, self.cfg.base.rounds, self.cfg.base.eval_every);
        let (test_loss, test_acc) = {
            let _stage = span!("round.eval", due = due);
            eval_or_carry(
                &self.algo,
                self.model,
                &self.global,
                &self.data.test,
                self.cfg.base.eval_topk,
                self.cfg.base.eval_max_samples,
                due,
                self.records.last(),
            )
        };
        self.records.push(RoundRecord {
            round,
            train_loss: stats.train_loss,
            test_loss,
            test_acc,
            upload_bytes_mean: stats.upload_bytes_mean,
            upload_bytes_max: stats.upload_bytes_max,
            download_bytes: self.global.total_bytes(),
            local_seconds_mean: stats.local_seconds_mean,
            local_seconds_max: stats.local_seconds_max,
            // The simulator's agg_seconds is *virtual* (cost model), not
            // wall clock — see fl::timing's clock taxonomy.
            agg_seconds,
            peak_rss_bytes: fedbiad_fl::metrics::peak_rss_bytes(),
            rss_bytes: fedbiad_fl::metrics::current_rss_bytes(),
            contributors: results.len(),
        });
        self.round_end_seconds.push(self.now);
        self.push_trace(TraceKind::Aggregate, usize::MAX);
        round
    }
}
