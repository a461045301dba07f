//! FedAvg [1]: the uncompressed FL baseline — and, with a sketch attached,
//! the pure sketched-compression methods of Table II (FedPAQ, signSGD,
//! STC, DGC), which compress the full-model *delta* with no dropout.

use super::weighted_uploads;
use fedbiad_compress::codec::encode_delta;
use fedbiad_compress::{ClientState as SketchState, Compressor};
use fedbiad_data::ClientData;
use fedbiad_fl::aggregate::{aggregate_deltas, aggregate_weights, ZeroMode};
use fedbiad_fl::algorithm::{FlAlgorithm, LocalResult, RoundInfo, TrainConfig};
use fedbiad_fl::client::{run_local_training, LocalRunId, NoHooks};
use fedbiad_fl::upload::{Upload, UploadKind};
use fedbiad_nn::{Model, ModelMask, ParamSet};
use fedbiad_tensor::rng::{stream, StreamTag};
use std::sync::Arc;

/// FedAvg, optionally with a sketched delta compressor.
pub struct FedAvg {
    sketch: Option<Arc<dyn Compressor>>,
}

impl FedAvg {
    /// Plain FedAvg (full-model uploads).
    pub fn new() -> Self {
        Self { sketch: None }
    }

    /// FedAvg + sketched compression of the model delta — this is how the
    /// paper's Table II runs FedPAQ / signSGD / STC / DGC.
    pub fn with_sketch(comp: Arc<dyn Compressor>) -> Self {
        Self { sketch: Some(comp) }
    }
}

impl Default for FedAvg {
    fn default() -> Self {
        Self::new()
    }
}

impl FlAlgorithm for FedAvg {
    type ClientState = SketchState;
    type RoundCtx = ();

    fn name(&self) -> String {
        match &self.sketch {
            Some(c) => c.name().to_string(),
            None => "fedavg".into(),
        }
    }

    fn init_client_state(&self, _: usize, _: &dyn Model, _: &ParamSet) -> SketchState {
        SketchState::default()
    }

    fn begin_round(&mut self, _: RoundInfo, _: &ParamSet) {}

    fn local_update(
        &self,
        info: RoundInfo,
        _rctx: &(),
        client_id: usize,
        state: &mut SketchState,
        global: &ParamSet,
        data: &ClientData,
        model: &dyn Model,
        cfg: &TrainConfig,
    ) -> LocalResult {
        let mut u = global.clone();
        let id = LocalRunId {
            seed: info.seed,
            round: info.round,
            client: client_id,
        };
        let stats = run_local_training(id, model, data, cfg, &mut u, &mut NoHooks);

        let upload = match &self.sketch {
            None => Upload::full_weights(u),
            Some(comp) => {
                // Delta = trained − received, compressed with residual
                // feedback; the encoded payload is what travels. The
                // server decodes it shard by shard and never holds a
                // dense per-client delta (the compressor's own transient
                // `decoded` scratch is freed right here).
                let fu = u.flatten();
                let fg = global.flatten();
                let delta: Vec<f32> = fu.iter().zip(&fg).map(|(a, b)| a - b).collect();
                let mut crng = stream(
                    info.seed,
                    StreamTag::Compress,
                    info.round as u64,
                    client_id as u64,
                );
                let compressed = comp.compress(state, &delta, info.round, &mut crng);
                let msg = encode_delta(&compressed.payload);
                debug_assert_eq!(msg.body_bytes(), compressed.wire_bytes);
                Upload::wire(
                    UploadKind::Delta,
                    msg,
                    ModelMask::full(global),
                    compressed.wire_bytes,
                )
            }
        };

        LocalResult {
            upload,
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
        let ups = weighted_uploads(results);
        match self.sketch {
            None => aggregate_weights(global, &ups, ZeroMode::HoldersOnly, info.agg),
            Some(_) => aggregate_deltas(global, &ups, info.agg),
        }
        .expect("aggregation failed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_compress::fedpaq::FedPaq;
    use fedbiad_data::dataset::ImageSet;

    fn setup() -> (fedbiad_nn::mlp::MlpModel, ParamSet, ClientData) {
        let model = fedbiad_nn::mlp::MlpModel::new(4, 6, 2);
        let global = model.init_params(&mut stream(1, StreamTag::Init, 0, 0));
        let mut set = ImageSet::empty(4);
        for i in 0..40 {
            let c = i % 2;
            let f = if c == 0 {
                [1.0, 1.0, 0.0, 0.0]
            } else {
                [0.0, 0.0, 1.0, 1.0]
            };
            set.push(&f, c as u32);
        }
        (model, global, ClientData::Image(set))
    }

    #[test]
    fn plain_fedavg_uploads_full_model() {
        let (model, global, data) = setup();
        let algo = FedAvg::new();
        let mut st = algo.init_client_state(0, &model, &global);
        let info = RoundInfo {
            round: 0,
            total_rounds: 5,
            seed: 2,
            agg: Default::default(),
        };
        let cfg = TrainConfig {
            local_iters: 3,
            batch_size: 8,
            lr: 0.1,
            ..Default::default()
        };
        let res = algo.local_update(info, &(), 0, &mut st, &global, &data, &model, &cfg);
        assert_eq!(res.upload.wire_bytes, global.total_bytes());
        assert_eq!(res.upload.kind, UploadKind::Weights);
    }

    #[test]
    fn sketched_fedavg_uploads_quantized_delta() {
        let (model, global, data) = setup();
        let algo = FedAvg::with_sketch(Arc::new(FedPaq::paper()));
        let mut st = algo.init_client_state(0, &model, &global);
        let info = RoundInfo {
            round: 0,
            total_rounds: 5,
            seed: 2,
            agg: Default::default(),
        };
        let cfg = TrainConfig {
            local_iters: 3,
            batch_size: 8,
            lr: 0.1,
            ..Default::default()
        };
        let res = algo.local_update(info, &(), 0, &mut st, &global, &data, &model, &cfg);
        assert_eq!(res.upload.kind, UploadKind::Delta);
        // ≈4× smaller than the dense model.
        let ratio = global.total_bytes() as f64 / res.upload.wire_bytes as f64;
        assert!(ratio > 3.5 && ratio < 4.5, "{ratio}");
        assert_eq!(algo.name(), "fedpaq");
    }

    #[test]
    fn sketched_aggregation_applies_delta() {
        let (model, global, data) = setup();
        let mut algo = FedAvg::with_sketch(Arc::new(FedPaq::paper()));
        let mut st = algo.init_client_state(0, &model, &global);
        let info = RoundInfo {
            round: 0,
            total_rounds: 5,
            seed: 3,
            agg: Default::default(),
        };
        let cfg = TrainConfig {
            local_iters: 5,
            batch_size: 8,
            lr: 0.2,
            ..Default::default()
        };
        let res = algo.local_update(info, &(), 0, &mut st, &global, &data, &model, &cfg);
        let mut g = global.clone();
        algo.aggregate(info, &(), &mut g, &[(0, res)]);
        // Global must have moved.
        assert_ne!(g.flatten(), global.flatten());
    }
}
