//! HeteroFL [43]: heterogeneous-capacity federated learning.
//!
//! Clients are assigned *static* width classes ("different clients could
//! adopt different shrinkage ratios", paper §V-A): client k always trains
//! the leading sub-network of its class's width. Aggregation is
//! holders-only over the nested sub-matrices, exactly as in the HeteroFL
//! paper.

use super::{trailing_drops, DropRule, Dropout};
use crate::neuron::{derive_groups, mask_from_dropped_units};
use fedbiad_fl::algorithm::RoundInfo;
use fedbiad_nn::{ModelMask, ParamSet};

/// Static per-client width shrinking.
pub type HeteroFl = Dropout<HeteroFlRule>;

/// HeteroFL's mask rule: a leading sub-network at the client's fixed
/// width class.
pub struct HeteroFlRule {
    /// Width ladder; client k uses `ladder[k % ladder.len()]`.
    ladder: Vec<f32>,
}

impl HeteroFl {
    /// Ladder derived from dropout rate p: {1−p, √(1−p), 1}.
    pub fn new(rate: f32) -> Self {
        assert!((0.0..1.0).contains(&rate));
        Dropout {
            rule: HeteroFlRule {
                ladder: vec![1.0 - rate, (1.0 - rate).sqrt(), 1.0],
            },
            sketch: None,
        }
    }
}

impl HeteroFlRule {
    /// The static width class of `client_id`.
    fn width_of(&self, client_id: usize) -> f32 {
        self.ladder[client_id % self.ladder.len()]
    }
}

impl DropRule for HeteroFlRule {
    type RoundCtx = ();

    fn name(&self) -> &'static str {
        "heterofl"
    }

    fn begin_round(&mut self, _: RoundInfo, _: &ParamSet) {}

    fn mask(&self, _: RoundInfo, _: &(), client_id: usize, global: &ParamSet) -> ModelMask {
        let groups = derive_groups(global);
        mask_from_dropped_units(global, &trailing_drops(&groups, self.width_of(client_id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_compress::ClientState as SketchState;
    use fedbiad_data::dataset::ImageSet;
    use fedbiad_data::ClientData;
    use fedbiad_fl::algorithm::{FlAlgorithm, TrainConfig};
    use fedbiad_nn::mlp::MlpModel;
    use fedbiad_nn::Model;
    use fedbiad_tensor::rng::{stream, StreamTag};

    #[test]
    fn width_classes_are_static_per_client() {
        let algo = HeteroFl::new(0.5);
        assert_eq!(algo.rule.width_of(0), algo.rule.width_of(3));
        assert_ne!(algo.rule.width_of(0), algo.rule.width_of(1));
        // One class trains the full model.
        assert!(algo.rule.ladder.contains(&1.0));
    }

    #[test]
    fn upload_size_is_monotone_in_width_class() {
        let model = MlpModel::new(4, 12, 2);
        let global = model.init_params(&mut stream(1, StreamTag::Init, 0, 0));
        let mut set = ImageSet::empty(4);
        for i in 0..16 {
            set.push(&[0.5; 4], (i % 2) as u32);
        }
        let data = ClientData::Image(set);
        let cfg = TrainConfig {
            local_iters: 1,
            batch_size: 4,
            lr: 0.05,
            ..Default::default()
        };
        let algo = HeteroFl::new(0.5);
        let info = RoundInfo {
            round: 0,
            total_rounds: 5,
            seed: 6,
            agg: Default::default(),
        };
        let mut bytes = Vec::new();
        for client in 0..3usize {
            let mut st = SketchState::default();
            let res = algo.local_update(info, &(), client, &mut st, &global, &data, &model, &cfg);
            bytes.push((algo.rule.width_of(client), res.upload.wire_bytes));
        }
        bytes.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert!(
            bytes[0].1 < bytes[1].1 && bytes[1].1 < bytes[2].1,
            "{bytes:?}"
        );
    }
}
