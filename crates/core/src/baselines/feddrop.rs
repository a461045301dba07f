//! FedDrop [12] (Caldas et al.): random federated dropout.
//!
//! Each client independently drops a fixed fraction of *neurons* per round,
//! chosen uniformly at random, on convolutional/fully-connected structure
//! only — "does not extend to recurrent layers" (paper §V-A). For the LSTM
//! language model this means the embedding-dimension units; the recurrent
//! W_x/W_h matrices and the vocabulary rows travel in full, which is why
//! FedDrop's save ratio on PTB-scale models caps near 1.25× while FedBIAD
//! reaches 2× (Table I).

use super::{units_to_drop, DropRule, Dropout};
use crate::neuron::{derive_groups, mask_from_dropped_units, NeuronGroup};
use fedbiad_fl::algorithm::RoundInfo;
use fedbiad_nn::{ModelMask, ParamSet};
use fedbiad_tensor::rng::{stream, StreamTag};
use rand::seq::SliceRandom;

/// Random neuron dropout at a fixed rate.
pub type FedDrop = Dropout<FedDropRule>;

/// FedDrop's mask rule: each client draws its own units, uniformly.
pub struct FedDropRule {
    rate: f32,
}

impl FedDrop {
    /// Plain FedDrop at dropout rate `rate`.
    pub fn new(rate: f32) -> Self {
        assert!((0.0..1.0).contains(&rate));
        Dropout {
            rule: FedDropRule { rate },
            sketch: None,
        }
    }
}

impl FedDropRule {
    /// Random per-client drop sets over the non-recurrent groups.
    fn sample_drops<'g>(
        &self,
        groups: &'g [NeuronGroup],
        info: RoundInfo,
        client_id: usize,
    ) -> Vec<(&'g NeuronGroup, Vec<usize>)> {
        let mut rng = stream(
            info.seed,
            StreamTag::Baseline,
            info.round as u64,
            client_id as u64,
        );
        groups
            .iter()
            .filter(|g| !g.recurrent)
            .map(|g| {
                let n_drop = units_to_drop(g.count, self.rate);
                let mut ids: Vec<usize> = (0..g.count).collect();
                ids.shuffle(&mut rng);
                ids.truncate(n_drop);
                (g, ids)
            })
            .collect()
    }
}

impl DropRule for FedDropRule {
    type RoundCtx = ();

    fn name(&self) -> &'static str {
        "feddrop"
    }

    fn begin_round(&mut self, _: RoundInfo, _: &ParamSet) {}

    fn mask(&self, info: RoundInfo, _: &(), client_id: usize, global: &ParamSet) -> ModelMask {
        let groups = derive_groups(global);
        mask_from_dropped_units(global, &self.sample_drops(&groups, info, client_id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_compress::ClientState as SketchState;
    use fedbiad_data::dataset::ImageSet;
    use fedbiad_data::ClientData;
    use fedbiad_fl::algorithm::{FlAlgorithm, TrainConfig};
    use fedbiad_nn::lstm_lm::LstmLmModel;
    use fedbiad_nn::mlp::MlpModel;
    use fedbiad_nn::Model;

    fn image_client() -> ClientData {
        let mut set = ImageSet::empty(4);
        for i in 0..30 {
            set.push(&[0.2, 0.8, 0.5, 0.1], (i % 2) as u32);
        }
        ClientData::Image(set)
    }

    #[test]
    fn mlp_upload_shrinks_with_rate() {
        let model = MlpModel::new(4, 10, 2);
        let global = model.init_params(&mut stream(1, StreamTag::Init, 0, 0));
        let data = image_client();
        let cfg = TrainConfig {
            local_iters: 2,
            batch_size: 8,
            lr: 0.1,
            ..Default::default()
        };
        let info = RoundInfo {
            round: 0,
            total_rounds: 5,
            seed: 4,
            agg: Default::default(),
        };
        let algo_lo = FedDrop::new(0.2);
        let algo_hi = FedDrop::new(0.5);
        let mut st = SketchState::default();
        let lo = algo_lo.local_update(info, &(), 0, &mut st, &global, &data, &model, &cfg);
        let hi = algo_hi.local_update(info, &(), 0, &mut st, &global, &data, &model, &cfg);
        assert!(hi.upload.wire_bytes < lo.upload.wire_bytes);
        assert!(lo.upload.wire_bytes < global.total_bytes());
    }

    #[test]
    fn recurrent_entries_never_dropped() {
        // On an LSTM LM, FedDrop may only touch the embedding dimension —
        // W_x / W_h / head coverage must stay Full on rows.
        let model = LstmLmModel::new(20, 8, 6, 1);
        let global = model.init_params(&mut stream(2, StreamTag::Init, 0, 0));
        let groups = derive_groups(&global);
        let algo = FedDrop::new(0.5);
        let info = RoundInfo {
            round: 3,
            total_rounds: 5,
            seed: 7,
            agg: Default::default(),
        };
        let drops = algo.rule.sample_drops(&groups, info, 0);
        for (g, units) in &drops {
            assert!(!g.recurrent);
            assert!(!units.is_empty());
        }
        // Only the embdim group qualifies.
        assert_eq!(drops.len(), 1);
        assert!(drops[0].0.name.starts_with("embdim"));
    }

    #[test]
    fn different_clients_draw_different_drops() {
        let model = MlpModel::new(4, 32, 2);
        let global = model.init_params(&mut stream(3, StreamTag::Init, 0, 0));
        let groups = derive_groups(&global);
        let algo = FedDrop::new(0.5);
        let info = RoundInfo {
            round: 0,
            total_rounds: 5,
            seed: 4,
            agg: Default::default(),
        };
        let a = algo.rule.sample_drops(&groups, info, 0);
        let b = algo.rule.sample_drops(&groups, info, 1);
        assert_ne!(a[0].1, b[0].1);
    }
}
