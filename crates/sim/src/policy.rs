//! Pluggable server policies for the discrete-event simulator.
//!
//! A [`ServerPolicy`] is a small state machine: the simulator feeds it
//! [`PolicyEvent`]s (start, upload arrivals, timers, committed rounds)
//! and it answers with [`Action`]s (dispatch clients, aggregate, arm
//! timers, drop stragglers). Three policies ship:
//!
//! * [`SyncBarrier`] — the lock-step loop of `fedbiad_fl::runner`,
//!   expressed as a policy: dispatch ⌊κK⌋ clients, wait for *all* of
//!   them, aggregate. With homogeneous clients this reproduces the
//!   legacy runner's records bit-for-bit.
//! * [`DeadlineOverSelect`] — over-select `γ·⌊κK⌋` clients, close the
//!   round at a fixed deadline, and drop whatever is still in flight
//!   (straggler mitigation by redundancy).
//! * [`FedBuff`] — buffered asynchronous aggregation: a constant number
//!   of clients train concurrently; every `K` buffered uploads are merged
//!   as staleness-weighted deltas and the finished client is immediately
//!   re-dispatched on the *new* global.

use fedbiad_fl::round::{sample_clients_with, SamplerKind};
use fedbiad_tensor::rng::{stream, StreamTag};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// What the simulator tells a policy.
#[derive(Clone, Copy, Debug)]
pub enum PolicyEvent {
    /// The simulation is starting (virtual time 0).
    Start,
    /// A dispatched client's upload arrived and was buffered. The client
    /// is no longer in flight.
    Arrived {
        /// The client whose upload arrived.
        client: usize,
    },
    /// A timer armed via [`Action::SetTimer`] fired.
    Timer {
        /// The id the policy chose when arming it.
        id: u64,
    },
    /// An aggregation committed round record `round`.
    Recorded {
        /// The 0-based index of the committed round.
        round: usize,
    },
}

/// What a policy tells the simulator to do.
#[derive(Clone, Debug)]
pub enum Action {
    /// Broadcast the current global model to these clients and start
    /// their local work. Clients must not already be in flight.
    Dispatch(Vec<usize>),
    /// Aggregate every buffered upload through the algorithm's own
    /// `aggregate` (inputs sorted by client id — the lock-step runner's
    /// order), then evaluate and commit a round record.
    AggregateRound,
    /// FedBuff merge: apply the buffered uploads as staleness-weighted
    /// deltas (`global += lr · Σ wᵢΔᵢ / Σ wᵢ` with
    /// `wᵢ = |Dᵢ|/(1+τᵢ)^alpha`), then evaluate and commit a round record.
    AggregateBuffered {
        /// Staleness exponent α.
        alpha: f64,
        /// Server learning rate η_g.
        server_lr: f64,
    },
    /// Discard every in-flight dispatch: their uploads are dropped on
    /// arrival (the clients still did the work — only the server ignores
    /// it).
    DropInFlight,
    /// Arm a timer at `now + delay`.
    SetTimer {
        /// Seconds from now.
        delay: f64,
        /// Id handed back in [`PolicyEvent::Timer`].
        id: u64,
    },
}

/// Read-only server state a policy may consult when reacting.
#[derive(Clone, Copy, Debug)]
pub struct ServerView<'a> {
    /// Current virtual time.
    pub now: f64,
    /// Experiment seed.
    pub seed: u64,
    /// Total number of clients K.
    pub num_clients: usize,
    /// The lock-step cohort size ⌊κK⌋ ∨ 1.
    pub cohort: usize,
    /// How cohorts are drawn from the population. [`SamplerKind::Shuffle`]
    /// is the legacy O(K) permutation (bit-identical to the lock-step
    /// runner); [`SamplerKind::Sparse`] draws in O(cohort) for
    /// million-client populations.
    pub sampler: SamplerKind,
    /// Rounds the experiment will record in total.
    pub rounds_total: usize,
    /// Round records committed so far.
    pub rounds_done: usize,
    /// Uploads currently buffered at the server.
    pub buffered: usize,
    /// Clients currently in flight, ascending.
    pub in_flight: &'a [usize],
    /// Clients whose *dropped* uploads are still in transit (the server
    /// already closed their round but the bytes are on the virtual
    /// wire), ascending. Re-dispatching one would model a physically
    /// impossible double transmission.
    pub transit_dropped: &'a [usize],
}

/// A server policy: decides dispatching and aggregation timing.
pub trait ServerPolicy: Send {
    /// Name for tables and JSON output.
    fn name(&self) -> String;

    /// React to `ev` given the current server state.
    fn react(&mut self, ev: PolicyEvent, view: &ServerView) -> Vec<Action>;

    /// Whether this policy issues [`Action::AggregateBuffered`] and thus
    /// needs a snapshot of the dispatched global per in-flight client
    /// (the staleness-delta base). Policies that only ever use
    /// [`Action::AggregateRound`] keep the default `false` and skip the
    /// per-dispatch model clone.
    fn needs_snapshots(&self) -> bool {
        false
    }
}

impl ServerPolicy for Box<dyn ServerPolicy> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn react(&mut self, ev: PolicyEvent, view: &ServerView) -> Vec<Action> {
        (**self).react(ev, view)
    }

    fn needs_snapshots(&self) -> bool {
        (**self).needs_snapshots()
    }
}

/// The synchronous barrier: dispatch the round's cohort, wait for every
/// upload, aggregate. The legacy runner as a policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct SyncBarrier;

impl ServerPolicy for SyncBarrier {
    fn name(&self) -> String {
        "sync".into()
    }

    fn react(&mut self, ev: PolicyEvent, view: &ServerView) -> Vec<Action> {
        match ev {
            PolicyEvent::Start | PolicyEvent::Recorded { .. } => {
                if view.rounds_done < view.rounds_total {
                    vec![Action::Dispatch(sample_clients_with(
                        view.sampler,
                        view.seed,
                        view.rounds_done,
                        view.num_clients,
                        view.cohort,
                    ))]
                } else {
                    vec![]
                }
            }
            PolicyEvent::Arrived { .. } => {
                if view.in_flight.is_empty() && view.buffered > 0 {
                    vec![Action::AggregateRound]
                } else {
                    vec![]
                }
            }
            PolicyEvent::Timer { .. } => vec![],
        }
    }
}

/// Deadline-based over-selection: dispatch `γ·cohort` clients, close the
/// round `deadline` seconds after dispatch, drop stragglers.
#[derive(Clone, Copy, Debug)]
pub struct DeadlineOverSelect {
    /// Over-selection factor γ ≥ 1.
    pub over_select: f64,
    /// Seconds after dispatch at which the barrier closes.
    pub deadline: f64,
    /// Monotone epoch used as the timer id, so a stale timer from an
    /// already-closed round is ignored.
    epoch: u64,
}

impl DeadlineOverSelect {
    /// New policy with over-selection factor `over_select` and a fixed
    /// per-round `deadline` in virtual seconds.
    pub fn new(over_select: f64, deadline: f64) -> Self {
        assert!(over_select >= 1.0, "over_select must be ≥ 1");
        assert!(deadline > 0.0, "deadline must be positive");
        Self {
            over_select,
            deadline,
            epoch: 0,
        }
    }

    fn open_round(&mut self, view: &ServerView) -> Vec<Action> {
        if view.rounds_done >= view.rounds_total {
            return vec![];
        }
        let n =
            ((view.cohort as f64 * self.over_select).ceil() as usize).clamp(1, view.num_clients);
        self.epoch += 1;
        // A dropped straggler whose upload is still in transit sits this
        // round out — it cannot transmit two uploads at once.
        let mut ids = sample_clients_with(
            view.sampler,
            view.seed,
            view.rounds_done,
            view.num_clients,
            n,
        );
        ids.retain(|id| !view.transit_dropped.contains(id));
        vec![
            Action::Dispatch(ids),
            Action::SetTimer {
                delay: self.deadline,
                id: self.epoch,
            },
        ]
    }
}

impl ServerPolicy for DeadlineOverSelect {
    fn name(&self) -> String {
        format!("deadline(x{:.2},{:.2}s)", self.over_select, self.deadline)
    }

    fn react(&mut self, ev: PolicyEvent, view: &ServerView) -> Vec<Action> {
        match ev {
            PolicyEvent::Start | PolicyEvent::Recorded { .. } => self.open_round(view),
            PolicyEvent::Arrived { .. } => {
                if view.in_flight.is_empty() && view.buffered > 0 {
                    // Everyone made it before the deadline; the stale
                    // timer is invalidated by bumping the epoch.
                    self.epoch += 1;
                    vec![Action::AggregateRound]
                } else {
                    vec![]
                }
            }
            PolicyEvent::Timer { id } => {
                if id != self.epoch {
                    return vec![]; // stale timer of a closed round
                }
                if view.buffered > 0 {
                    self.epoch += 1;
                    vec![Action::DropInFlight, Action::AggregateRound]
                } else if !view.in_flight.is_empty() {
                    // Nothing arrived yet: extend rather than commit an
                    // empty round.
                    vec![Action::SetTimer {
                        delay: self.deadline,
                        id,
                    }]
                } else {
                    // Nothing buffered and nothing in flight: the round
                    // opened with an empty cohort (every sampled client
                    // had a dropped upload in transit). Reopen it so the
                    // simulation keeps making progress.
                    self.open_round(view)
                }
            }
        }
    }
}

/// FedBuff-style buffered asynchronous aggregation with
/// staleness-weighted merging.
pub struct FedBuff {
    /// Aggregate once this many uploads are buffered.
    pub buffer_k: usize,
    /// Number of clients kept training concurrently.
    pub concurrency: usize,
    /// Staleness exponent α of `w = |D|/(1+τ)^α`.
    pub alpha: f64,
    /// Server learning rate η_g.
    pub server_lr: f64,
    rng: Option<StdRng>,
}

impl FedBuff {
    /// New FedBuff policy. `buffer_k` uploads per merge, `concurrency`
    /// clients in flight.
    pub fn new(buffer_k: usize, concurrency: usize) -> Self {
        assert!(buffer_k > 0, "buffer_k must be positive");
        assert!(
            concurrency >= buffer_k,
            "concurrency must be ≥ buffer_k or the buffer can never fill"
        );
        Self {
            buffer_k,
            concurrency,
            alpha: 0.5,
            server_lr: 1.0,
            rng: None,
        }
    }

    /// Uniform draw of a client that is not currently in flight
    /// (`in_flight` is ascending). Returns `None` if every client is busy.
    fn sample_idle(&mut self, view: &ServerView) -> Option<usize> {
        let idle = view.num_clients - view.in_flight.len();
        if idle == 0 {
            return None;
        }
        let rng = self.rng.as_mut().expect("rng initialised at Start");
        if view.sampler == SamplerKind::Sparse {
            // Rejection sampling against the (sorted, cohort-sized) busy
            // set: expected O(K/idle) draws and no O(K) scan, which is
            // what keeps FedBuff usable at K = 10⁶. The draw sequence
            // differs from the legacy scan below — Sparse is a new
            // opt-in regime with no historical digests to preserve.
            loop {
                let c = rng.gen_range(0..view.num_clients);
                if view.in_flight.binary_search(&c).is_err() {
                    return Some(c);
                }
            }
        }
        let mut nth = rng.gen_range(0..idle);
        let mut busy = view.in_flight.iter().peekable();
        for id in 0..view.num_clients {
            if busy.peek() == Some(&&id) {
                busy.next();
                continue;
            }
            if nth == 0 {
                return Some(id);
            }
            nth -= 1;
        }
        unreachable!("idle count and in_flight disagree")
    }
}

impl ServerPolicy for FedBuff {
    fn name(&self) -> String {
        format!("fedbuff(k{},c{})", self.buffer_k, self.concurrency)
    }

    fn needs_snapshots(&self) -> bool {
        true
    }

    fn react(&mut self, ev: PolicyEvent, view: &ServerView) -> Vec<Action> {
        match ev {
            PolicyEvent::Start => {
                let mut rng = stream(view.seed, StreamTag::SimPolicy, 0, 0);
                let want = self.concurrency.min(view.num_clients);
                let mut ids: Vec<usize> = if view.sampler == SamplerKind::Sparse {
                    // Floyd's sampling: the initial cohort costs
                    // O(concurrency), not an O(K) shuffle.
                    let k = view.num_clients;
                    let mut set = HashSet::with_capacity(want);
                    for j in (k - want)..k {
                        let t = rng.gen_range(0..=j);
                        if !set.insert(t) {
                            set.insert(j);
                        }
                    }
                    set.into_iter().collect()
                } else {
                    let mut all: Vec<usize> = (0..view.num_clients).collect();
                    all.shuffle(&mut rng);
                    all.truncate(want);
                    all
                };
                ids.sort_unstable();
                self.rng = Some(rng);
                vec![Action::Dispatch(ids)]
            }
            PolicyEvent::Arrived { .. } => {
                let mut actions = Vec::new();
                if view.buffered >= self.buffer_k && view.rounds_done < view.rounds_total {
                    actions.push(Action::AggregateBuffered {
                        alpha: self.alpha,
                        server_lr: self.server_lr,
                    });
                }
                // Replace the finished client so the concurrency level
                // holds; the replacement trains on the post-merge global.
                if view.rounds_done < view.rounds_total {
                    if let Some(next) = self.sample_idle(view) {
                        actions.push(Action::Dispatch(vec![next]));
                    }
                }
                actions
            }
            PolicyEvent::Timer { .. } | PolicyEvent::Recorded { .. } => vec![],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(in_flight: &[usize]) -> ServerView<'_> {
        ServerView {
            now: 0.0,
            seed: 1,
            num_clients: 10,
            cohort: 3,
            sampler: SamplerKind::Shuffle,
            rounds_total: 5,
            rounds_done: 0,
            buffered: 0,
            in_flight,
            transit_dropped: &[],
        }
    }

    #[test]
    fn sync_barrier_waits_for_everyone() {
        let mut p = SyncBarrier;
        let start = p.react(PolicyEvent::Start, &view(&[]));
        assert!(matches!(&start[0], Action::Dispatch(ids) if ids.len() == 3));
        // Two still in flight: no aggregation yet.
        let mut v = view(&[4, 7]);
        v.buffered = 1;
        assert!(p.react(PolicyEvent::Arrived { client: 1 }, &v).is_empty());
        // Last one in: aggregate.
        let mut v = view(&[]);
        v.buffered = 3;
        let acts = p.react(PolicyEvent::Arrived { client: 4 }, &v);
        assert!(matches!(acts[0], Action::AggregateRound));
    }

    #[test]
    fn deadline_drops_stragglers_on_timer() {
        let mut p = DeadlineOverSelect::new(1.5, 10.0);
        let acts = p.react(PolicyEvent::Start, &view(&[]));
        // ⌈3 × 1.5⌉ = 5 clients + a timer.
        assert!(matches!(&acts[0], Action::Dispatch(ids) if ids.len() == 5));
        assert!(matches!(acts[1], Action::SetTimer { .. }));
        let Action::SetTimer { id, .. } = acts[1] else {
            unreachable!()
        };
        // Deadline fires with 3 of 5 in: drop the rest, aggregate.
        let mut v = view(&[2, 8]);
        v.buffered = 3;
        let acts = p.react(PolicyEvent::Timer { id }, &v);
        assert!(matches!(acts[0], Action::DropInFlight));
        assert!(matches!(acts[1], Action::AggregateRound));
        // The same timer again is stale now.
        assert!(p.react(PolicyEvent::Timer { id }, &v).is_empty());
    }

    #[test]
    fn fedbuff_flushes_at_k_and_redispatches() {
        let mut p = FedBuff::new(2, 4);
        let acts = p.react(PolicyEvent::Start, &view(&[]));
        let Action::Dispatch(initial) = &acts[0] else {
            panic!("expected dispatch")
        };
        assert_eq!(initial.len(), 4);
        assert!(initial.windows(2).all(|w| w[0] < w[1]));
        // One buffered (below k): only a replacement dispatch.
        let mut v = view(&[1, 2, 3]);
        v.buffered = 1;
        let acts = p.react(PolicyEvent::Arrived { client: 0 }, &v);
        assert_eq!(acts.len(), 1);
        let Action::Dispatch(repl) = &acts[0] else {
            panic!("expected replacement dispatch")
        };
        assert_eq!(repl.len(), 1);
        assert!(!v.in_flight.contains(&repl[0]), "{repl:?} is busy");
        // Buffer reaches k: merge first, then replace.
        let mut v = view(&[2, 3, 5]);
        v.buffered = 2;
        let acts = p.react(PolicyEvent::Arrived { client: 1 }, &v);
        assert!(matches!(acts[0], Action::AggregateBuffered { .. }));
        assert!(matches!(acts[1], Action::Dispatch(_)));
    }

    #[test]
    fn over_selection_beyond_population_clamps_to_k() {
        // γ·cohort above K must dispatch exactly K clients, not panic or
        // sample out of range: 3 × 4 = 12 > K = 10.
        let mut p = DeadlineOverSelect::new(4.0, 10.0);
        let acts = p.react(PolicyEvent::Start, &view(&[]));
        let Action::Dispatch(ids) = &acts[0] else {
            panic!("expected dispatch")
        };
        assert_eq!(ids.len(), 10);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10, "every client exactly once");
    }

    #[test]
    fn sparse_fedbuff_start_and_idle_sampling_stay_o_cohort() {
        // A million-client view: the Shuffle path would allocate a 10⁶
        // permutation here; Sparse must finish instantly with just the
        // concurrency-sized cohort.
        let mut p = FedBuff::new(2, 16);
        let mut v = view(&[]);
        v.num_clients = 1_000_000;
        v.sampler = SamplerKind::Sparse;
        let acts = p.react(PolicyEvent::Start, &v);
        let Action::Dispatch(ids) = &acts[0] else {
            panic!("expected dispatch")
        };
        assert_eq!(ids.len(), 16);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted unique");
        assert!(ids.iter().all(|&c| c < 1_000_000));
        // Determinism: the same seed draws the same initial cohort.
        let mut p2 = FedBuff::new(2, 16);
        let acts2 = p2.react(PolicyEvent::Start, &v);
        let Action::Dispatch(ids2) = &acts2[0] else {
            panic!("expected dispatch")
        };
        assert_eq!(ids, ids2);
        // Idle sampling rejects the busy set without scanning 0..K.
        let busy: Vec<usize> = ids.clone();
        let mut bv = view(&busy);
        bv.num_clients = 1_000_000;
        bv.sampler = SamplerKind::Sparse;
        for _ in 0..32 {
            let c = p.sample_idle(&bv).expect("plenty idle");
            assert!(busy.binary_search(&c).is_err(), "{c} is busy");
        }
    }

    #[test]
    fn fedbuff_idle_sampling_skips_busy_clients() {
        let mut p = FedBuff::new(1, 1);
        p.rng = Some(stream(9, StreamTag::SimPolicy, 0, 0));
        // Only client 6 is idle.
        let busy: Vec<usize> = (0..10).filter(|&i| i != 6).collect();
        let v = view(&busy);
        for _ in 0..8 {
            assert_eq!(p.sample_idle(&v), Some(6));
        }
        let all: Vec<usize> = (0..10).collect();
        assert_eq!(p.sample_idle(&view(&all)), None);
    }
}
