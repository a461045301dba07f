//! Test support: the dense oracle, end to end.
//!
//! No client produces a dense upload body and no option routes a run to
//! `aggregate/dense.rs` — the server picks its engine from the bodies a
//! cohort carries. [`DenseTwinClients`] is how a *test* still runs a whole
//! experiment on the oracle: it wraps any method and swaps every client's
//! wire upload for its decoded dense twin (same values, coverage and byte
//! accounting), so every aggregation downstream — the method's own, and
//! the simulator's staleness merge — routes to the dense reference
//! engine. The wrapped run must reproduce the plain run bit for bit.

use fedbiad::data::ClientData;
use fedbiad::fl::aggregate::dense_twin;
use fedbiad::fl::algorithm::{FlAlgorithm, LocalResult, RoundInfo, TrainConfig};
use fedbiad::nn::{Model, ParamSet};

/// `A`, with every upload replaced by its dense twin.
pub struct DenseTwinClients<A>(pub A);

impl<A: FlAlgorithm> FlAlgorithm for DenseTwinClients<A> {
    type ClientState = A::ClientState;
    type RoundCtx = A::RoundCtx;

    fn name(&self) -> String {
        self.0.name()
    }

    fn init_client_state(
        &self,
        client_id: usize,
        model: &dyn Model,
        global: &ParamSet,
    ) -> Self::ClientState {
        self.0.init_client_state(client_id, model, global)
    }

    fn begin_round(&mut self, info: RoundInfo, global: &ParamSet) -> Self::RoundCtx {
        self.0.begin_round(info, global)
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
        let mut res = self
            .0
            .local_update(info, rctx, client_id, state, global, data, model, cfg);
        assert!(res.upload.wire_msg().is_some(), "clients upload wire bytes");
        // `global` is what the client was dispatched with — the base a
        // sketched `WeightsDelta` frame is defined against.
        res.upload = dense_twin(global, &res.upload).expect("honest frame decodes");
        res
    }

    fn aggregate(
        &mut self,
        info: RoundInfo,
        rctx: &Self::RoundCtx,
        global: &mut ParamSet,
        results: &[(usize, LocalResult)],
    ) {
        assert!(results.iter().all(|(_, r)| r.upload.wire_msg().is_none()));
        self.0.aggregate(info, rctx, global, results)
    }

    fn eval_params(&self, global: &ParamSet) -> ParamSet {
        self.0.eval_params(global)
    }
}
