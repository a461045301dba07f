//! The [`FlAlgorithm`] trait: what an FL method must provide.
//!
//! The design keeps all *persistent client state* (FedBIAD's weight score
//! vector E^k, compressor residuals, …) inside the algorithm's associated
//! `ClientState`, owned by the runner in a per-client table, so the round
//! loop can hand disjoint `&mut` state to rayon workers.

use crate::aggregate::AggSettings;
use crate::upload::Upload;
use fedbiad_data::ClientData;
use fedbiad_nn::{Model, ParamSet};
use serde::{Deserialize, Serialize};

/// Static description of the current round, passed to every hook.
#[derive(Clone, Copy, Debug)]
pub struct RoundInfo {
    /// Round index r (0-based internally; the paper's r = index + 1).
    pub round: usize,
    /// Total rounds R.
    pub total_rounds: usize,
    /// Experiment seed (for deriving per-component RNG streams).
    pub seed: u64,
    /// The server's aggregation settings (shard size, tree fan-in,
    /// robust estimator), which `aggregate` hands to `fl::aggregate`.
    /// Clients never consult it: they always upload wire bytes.
    pub agg: AggSettings,
}

/// What a client's local update produces.
#[derive(Clone, Debug)]
pub struct LocalResult {
    /// The upload (payload + coverage + wire bytes).
    pub upload: Upload,
    /// Mean training loss over the local iterations (drives Fig. 2/6 train
    /// curves).
    pub train_loss: f32,
    /// In-round loss improvement first − last (drives AFD's server-side
    /// score updates).
    pub loss_improvement: f32,
    /// Measured wall-clock seconds of local training (LTTR component).
    pub local_seconds: f64,
    /// |D_k| — aggregation weight of eq. (10).
    pub num_samples: usize,
}

/// Local-training hyper-parameters shared by all algorithms.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Local iterations per round (the paper's V).
    pub local_iters: usize,
    /// Mini-batch size (images: samples; text: windows).
    pub batch_size: usize,
    /// Learning rate η.
    pub lr: f32,
    /// Gradient-norm clip (LSTM models per §V-A).
    pub clip_norm: Option<f32>,
    /// Weight-decay coefficient implementing the KL(π̃‖π) ≈ L2 term of
    /// loss (2). Applied to the *effective* (masked) parameters so dropped
    /// rows receive no decay, consistent with eq. (7).
    pub weight_decay: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            local_iters: 10,
            batch_size: 16,
            lr: 0.1,
            clip_norm: None,
            weight_decay: 1e-4,
        }
    }
}

/// An FL method: FedBIAD or one of the baselines.
pub trait FlAlgorithm: Send + Sync {
    /// Per-client persistent state (survives across rounds).
    type ClientState: Send;
    /// Server-to-clients broadcast context computed at round start (e.g.
    /// AFD's score-map-derived dropout decision).
    type RoundCtx: Send + Sync;

    /// Method name for tables/logs.
    fn name(&self) -> String;

    /// Fresh state for client `client_id`.
    fn init_client_state(
        &self,
        client_id: usize,
        model: &dyn Model,
        global: &ParamSet,
    ) -> Self::ClientState;

    /// Server-side round preamble; produces the broadcast context.
    fn begin_round(&mut self, info: RoundInfo, global: &ParamSet) -> Self::RoundCtx;

    /// One client's local update: train from `global` on `data`, return the
    /// upload. Called in parallel across selected clients.
    #[allow(clippy::too_many_arguments)]
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
    ) -> LocalResult;

    /// Server-side aggregation of this round's uploads into `global`.
    fn aggregate(
        &mut self,
        info: RoundInfo,
        rctx: &Self::RoundCtx,
        global: &mut ParamSet,
        results: &[(usize, LocalResult)],
    );

    /// Parameters the server should *evaluate/deploy* (the predictive
    /// posterior mean). Defaults to the raw global. FedBIAD overrides
    /// this with the spike-and-slab expectation E[β∘w] = keep-prob·µ —
    /// the classical dropout inference scaling, applied at evaluation
    /// only so it never compounds across rounds (eq. (11)/(12) reading;
    /// DESIGN.md §4.2).
    fn eval_params(&self, global: &ParamSet) -> ParamSet {
        global.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_config_default_is_sane() {
        let c = TrainConfig::default();
        assert!(c.local_iters > 0);
        assert!(c.lr > 0.0);
        assert!(c.weight_decay >= 0.0);
    }
}
