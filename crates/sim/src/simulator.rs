//! The discrete-event simulator: a virtual clock driving client actors
//! and a pluggable [`ServerPolicy`] — the event-driven *schedule* over
//! [`fedbiad_fl::round::RoundCore`].
//!
//! ## Who owns what
//!
//! The core owns the round: the global model, client state, the
//! algorithm, churn / byzantine corruption / the value screen, the no-op
//! round, evaluation and the round records — the same code the lock-step
//! runner drives, so the synchronous-barrier policy on a homogeneous
//! cohort reproduces `Experiment::run` bit-for-bit
//! (`tests/sim_equivalence.rs`). This module owns only *when*: dispatch
//! ids, global snapshots for delta merging, link/compute profiles and
//! jitter, arrival times, the in-flight and buffer tables, the staleness
//! version, FedBuff's staleness-weighted merge, and the virtual
//! `local_seconds` / `agg_seconds` it writes over the core's measured
//! ones.
//!
//! ## How a dispatch becomes an arrival
//!
//! When the policy dispatches a set of clients, the simulator runs their
//! *real* local updates immediately (`RoundCore::train` — this is what
//! makes results exact rather than modelled) and schedules one arrival
//! event per client at
//!
//! ```text
//! now + download(global)/downlink + RTT          (broadcast)
//!     + compute · multiplier · jitter            (local training)
//!     + upload(wire_bytes)/uplink + RTT          (upload)
//! ```
//!
//! using that client's own link and compute profile. Whether the upload
//! is *lost* (churn dropout, screen rejection) is decided by the core at
//! dispatch but takes effect only when the arrival fires: the wire still
//! carries the bytes, the link still spends the time, and the policy
//! still sees the client finish.
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
use fedbiad_fl::aggregate::{merge_staleness_weighted, StalenessUpload};
use fedbiad_fl::algorithm::{FlAlgorithm, LocalResult};
use fedbiad_fl::metrics::ExperimentLog;
use fedbiad_fl::round::{CohortError, RoundCore};
use fedbiad_fl::runner::ExperimentConfig;
use fedbiad_nn::{Model, ParamSet};
use fedbiad_telemetry::{counter, gauge};
use fedbiad_tensor::rng::{stream, StreamTag};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Hard cap on processed events (guards against a policy that stops
/// making progress).
const MAX_EVENTS: usize = 1_000_000;

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
}

impl SimConfig {
    /// Config with the default cost model.
    pub fn new(base: ExperimentConfig, heterogeneity: HeterogeneityProfile) -> Self {
        Self {
            base,
            heterogeneity,
            cost: CostModel::default(),
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
    /// The round itself; everything below is the schedule around it.
    core: RoundCore<'a, A>,
    cfg: SimConfig,
    /// Whether dispatches must snapshot the global (policy merges deltas).
    snapshots_enabled: bool,
    queue: EventQueue<SimEvent>,
    now: f64,
    version: u64,
    dispatch_seq: u64,
    next_dispatch_id: u64,
    in_flight: Vec<InFlightEntry>,
    dropped: HashMap<u64, usize>,
    buffer: Vec<Buffered>,
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
        // Same cohort resolution and initialisation stream as the
        // lock-step runner: both are the core's.
        let core = RoundCore::new(self.model, self.data, self.algo, self.cfg.base)?;
        let mut engine = Engine {
            core,
            snapshots_enabled: self.policy.needs_snapshots(),
            cfg: self.cfg,
            queue: EventQueue::new(),
            now: 0.0,
            version: 0,
            dispatch_seq: 0,
            next_dispatch_id: 0,
            in_flight: Vec::new(),
            dropped: HashMap::new(),
            buffer: Vec::new(),
            round_end_seconds: Vec::new(),
            trace: Vec::new(),
        };
        let mut policy = self.policy;

        engine.drive(&mut policy, PolicyEvent::Start);

        let mut processed = 0usize;
        while engine.core.rounds_done() < engine.cfg.base.rounds {
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
                    let round = engine.commit_round(&[], false);
                    engine.drive(&mut policy, PolicyEvent::Recorded { round });
                    continue;
                }
                break;
            };
            counter!("sim.events_dequeued", 1u64);
            gauge!("sim.queue_depth", engine.queue.len());
            processed += 1;
            assert!(
                processed <= MAX_EVENTS,
                "simulator exceeded {MAX_EVENTS} events (policy stopped making progress?)"
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
            log: engine.core.into_log(),
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
            rounds_done: self.core.rounds_done(),
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
            if self.core.rounds_done() >= self.cfg.base.rounds {
                return;
            }
            let actions = {
                let ids = self.in_flight_ids();
                let transit_dropped = self.transit_dropped_ids();
                let view = ServerView {
                    now: self.now,
                    seed: self.cfg.base.seed,
                    num_clients: self.core.data().num_clients(),
                    cohort: self.core.cohort(),
                    sampler: self.cfg.base.sampler,
                    rounds_total: self.cfg.base.rounds,
                    rounds_done: self.core.rounds_done(),
                    buffered: self.buffer.len(),
                    in_flight: &ids,
                    transit_dropped: &transit_dropped,
                };
                policy.react(ev, &view)
            };
            for action in actions {
                if self.core.rounds_done() >= self.cfg.base.rounds {
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

    /// Broadcast the current global to `ids`, train them through the core,
    /// and schedule each upload's arrival on the virtual clock.
    ///
    /// Returns `Some(round)` only when an active churn model collapsed a
    /// non-empty dispatch to nothing with the server otherwise idle: the
    /// round can never close on its own, so a defined no-op round is
    /// committed on the spot and the caller must drive `Recorded`.
    ///
    /// An async policy may dispatch the same client more than once within
    /// one committed round; such a client reuses its per-round RNG streams
    /// for that round (its batches repeat until the next aggregation
    /// commits) — the schedule fidelity matters more.
    fn dispatch(&mut self, ids: &[usize]) -> Option<usize> {
        if ids.is_empty() {
            return None;
        }
        debug_assert!(
            ids.iter()
                .all(|id| self.in_flight.iter().all(|e| e.client != *id)),
            "dispatching a client that is already in flight"
        );
        debug_assert!(
            ids.iter().all(|id| !self.dropped.values().any(|c| c == id)),
            "dispatching a client whose dropped upload is still in transit"
        );
        let trained = self.core.train(ids);
        if trained.is_empty() {
            // Every selected client was offline: no work, no traffic.
            if self.in_flight.is_empty() && self.buffer.is_empty() {
                return Some(self.commit_round(&[], false));
            }
            return None;
        }
        let seed = self.cfg.base.seed;
        let dispatch_idx = self.dispatch_seq;
        self.dispatch_seq += 1;

        let global = self.core.global();
        let snapshot = self.snapshots_enabled.then(|| Arc::new(global.clone()));
        let download_bytes = global.total_bytes();
        let total_weights = self.core.model().arch().total_weights;
        let jitter = self.cfg.heterogeneity.jitter();
        for t in trained {
            // Profiles derive on demand from the per-client stream: the
            // engine holds no O(registered-clients) profile table.
            let prof = self.cfg.heterogeneity.profile_for(seed, t.id);
            let jitter_mult = if jitter > 0.0 {
                let mut jrng = stream(seed, StreamTag::SimJitter, dispatch_idx, t.id as u64);
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
            let mut result = t.result;
            result.local_seconds = compute;
            let arrival = self.now
                + prof.net.download_message_seconds(download_bytes)
                + compute
                + prof.net.upload_message_seconds(result.upload.wire_bytes);
            let dispatch_id = self.next_dispatch_id;
            self.next_dispatch_id += 1;
            self.queue.push(arrival, SimEvent::Arrival { dispatch_id });
            self.in_flight.push(InFlightEntry {
                dispatch_id,
                client: t.id,
                version: self.version,
                result,
                snapshot: snapshot.clone(),
                lost: t.lost,
            });
            self.push_trace(TraceKind::Dispatch, t.id);
        }
        None
    }

    /// Drain the buffer in ascending client-id order — the lock-step
    /// runner's aggregation order.
    fn drain_buffer(&mut self) -> Vec<Buffered> {
        self.buffer.sort_by_key(|b| b.client);
        std::mem::take(&mut self.buffer)
    }

    /// Drain the buffer into the algorithm's own aggregation, then
    /// commit. Returns the round index.
    fn aggregate_round(&mut self) -> usize {
        let results: Vec<(usize, LocalResult)> = self
            .drain_buffer()
            .into_iter()
            .map(|b| (b.client, b.result))
            .collect();
        let merged = self.core.aggregate(&results);
        if merged {
            counter!("sim.merges_sync", 1u64);
        }
        self.commit_round(&results, merged)
    }

    /// FedBuff merge: `global += lr · Σ wᵢΔᵢ / Σ wᵢ` with
    /// `wᵢ = |Dᵢ|/(1+τᵢ)^α`, where Δᵢ is the upload relative to the
    /// global the client was dispatched with (masked uploads contribute
    /// deltas only on their covered rows). Then commit.
    ///
    /// The merge arithmetic itself lives in
    /// [`fedbiad_fl::aggregate::merge_staleness_weighted`], shared between
    /// the sharded streaming engine and its dense oracle.
    fn aggregate_buffered(&mut self, alpha: f64, server_lr: f64) -> usize {
        let drained = self.drain_buffer();
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
        let agg = self.cfg.base.agg;
        let merged = self.core.merge(items.len(), |global| {
            counter!("sim.merges_staleness", 1u64);
            merge_staleness_weighted(global, &items, server_lr, agg)
                .expect("buffered-async merge failed")
        });
        drop(items);
        let results: Vec<(usize, LocalResult)> =
            drained.into_iter().map(|b| (b.client, b.result)).collect();
        self.commit_round(&results, merged)
    }

    /// The schedule's half of closing a round: version bump and *virtual*
    /// aggregation cost (cost model, not wall clock — see fl::timing's
    /// clock taxonomy), then the core's commit, then the trace.
    ///
    /// A no-op round (`merged` false: zero contributors) leaves the
    /// global — and hence the staleness version — untouched and spends no
    /// virtual aggregation time; there was nothing to merge.
    fn commit_round(&mut self, results: &[(usize, LocalResult)], merged: bool) -> usize {
        let agg_seconds = if merged {
            self.version += 1;
            self.now += self.cfg.cost.agg_seconds;
            self.cfg.cost.agg_seconds
        } else {
            0.0
        };
        let round = self.core.commit(results, agg_seconds);
        self.round_end_seconds.push(self.now);
        self.push_trace(TraceKind::Aggregate, usize::MAX);
        round
    }
}
