//! Delegating wrappers that open a harness span around each call through
//! the program's public traits. They forward every argument and result
//! untouched, so a wrapped run must reproduce the unwrapped run's digest —
//! which the traced mode and the self-tests check.

use crate::stats::Recorder;
use fedbiad_data::ClientData;
use fedbiad_fl::algorithm::{LocalResult, RoundInfo, TrainConfig};
use fedbiad_fl::FlAlgorithm;
use fedbiad_nn::params::ArchInfo;
use fedbiad_nn::{Batch, EvalAccum, Model, ParamSet};
use fedbiad_sim::{Action, PolicyEvent, ServerPolicy, ServerView};
use fedbiad_tensor::Workspace;
use rand::rngs::StdRng;
use std::sync::Mutex;

/// `nn` layer: spans around the batched engine entry points (the only
/// ones the round loop calls).
pub struct TimedModel<'a> {
    /// The wrapped architecture.
    pub inner: &'a dyn Model,
    /// Span sink.
    pub rec: &'a Recorder,
}

impl Model for TimedModel<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn arch(&self) -> ArchInfo {
        self.inner.arch()
    }

    fn init_params(&self, rng: &mut StdRng) -> ParamSet {
        self.inner.init_params(rng)
    }

    fn loss_grad(&self, params: &ParamSet, batch: &Batch<'_>, grads: &mut ParamSet) -> f32 {
        self.inner.loss_grad(params, batch, grads)
    }

    fn evaluate(&self, params: &ParamSet, batch: &Batch<'_>, k: usize) -> EvalAccum {
        self.inner.evaluate(params, batch, k)
    }

    fn loss_grad_batched(
        &self,
        params: &ParamSet,
        batch: &Batch<'_>,
        grads: &mut ParamSet,
        ws: &mut Workspace,
    ) -> f32 {
        self.rec.time("nn.loss_grad", || {
            self.inner.loss_grad_batched(params, batch, grads, ws)
        })
    }

    fn evaluate_batched(
        &self,
        params: &ParamSet,
        batch: &Batch<'_>,
        k: usize,
        ws: &mut Workspace,
    ) -> EvalAccum {
        self.rec.time("nn.evaluate", || {
            self.inner.evaluate_batched(params, batch, k, ws)
        })
    }
}

/// `core` layer: spans around the four `FlAlgorithm` hooks. Also logs
/// which `(round, client)` pairs were dispatched, for the replayed layers.
pub struct TimedAlgo<'a, A> {
    /// The wrapped method.
    pub inner: A,
    /// Span sink.
    pub rec: &'a Recorder,
    /// `(round, client)` of every `local_update` call, in call order.
    pub dispatched: &'a Mutex<Vec<(usize, usize)>>,
}

impl<A: FlAlgorithm> FlAlgorithm for TimedAlgo<'_, A> {
    type ClientState = A::ClientState;
    type RoundCtx = A::RoundCtx;

    fn name(&self) -> String {
        self.inner.name()
    }

    fn init_client_state(
        &self,
        client_id: usize,
        model: &dyn Model,
        global: &ParamSet,
    ) -> Self::ClientState {
        self.inner.init_client_state(client_id, model, global)
    }

    fn begin_round(&mut self, info: RoundInfo, global: &ParamSet) -> Self::RoundCtx {
        let Self { inner, rec, .. } = self;
        rec.time("core.begin_round", || inner.begin_round(info, global))
    }

    fn local_update(
        &self,
        info: RoundInfo,
        rctx: &Self::RoundCtx,
        client_id: usize,
        state: &mut Self::ClientState,
        global: &ParamSet,
        data: &ClientData,
        model: &dyn Model,
        cfg: &TrainConfig,
    ) -> LocalResult {
        self.dispatched
            .lock()
            .expect("dispatch log mutex poisoned")
            .push((info.round, client_id));
        self.rec.time("core.local_update", || {
            self.inner
                .local_update(info, rctx, client_id, state, global, data, model, cfg)
        })
    }

    fn aggregate(
        &mut self,
        info: RoundInfo,
        rctx: &Self::RoundCtx,
        global: &mut ParamSet,
        results: &[(usize, LocalResult)],
    ) {
        let Self { inner, rec, .. } = self;
        rec.time("core.aggregate", || {
            inner.aggregate(info, rctx, global, results)
        })
    }

    fn eval_params(&self, global: &ParamSet) -> ParamSet {
        self.rec
            .time("core.eval_params", || self.inner.eval_params(global))
    }
}

/// `sim` layer: a span around each policy reaction.
pub struct TimedPolicy<'a, P> {
    /// The wrapped policy.
    pub inner: P,
    /// Span sink.
    pub rec: &'a Recorder,
}

impl<P: ServerPolicy> ServerPolicy for TimedPolicy<'_, P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn react(&mut self, ev: PolicyEvent, view: &ServerView) -> Vec<Action> {
        let Self { inner, rec } = self;
        rec.time("sim.policy_react", || inner.react(ev, view))
    }

    fn needs_snapshots(&self) -> bool {
        self.inner.needs_snapshots()
    }
}
