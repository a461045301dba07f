//! FjORD [14]: ordered dropout.
//!
//! Each client trains a *leading* sub-network: the first ⌈w·count⌉ units
//! of every width group (including recurrent hidden widths — ordered
//! dropout shrinks every layer, which is why FjORD compresses LSTMs more
//! than FedDrop/AFD but still cannot touch vocabulary rows). The width
//! multiplier w is sampled per client per round from a discrete ladder, as
//! in FjORD's uniform sub-model distribution; "the left-most neurons are
//! used by more clients during training" (paper §V-A).

use super::{trailing_drops, DropRule, Dropout};
use crate::neuron::{derive_groups, mask_from_dropped_units};
use fedbiad_fl::algorithm::RoundInfo;
use fedbiad_nn::{ModelMask, ParamSet};
use fedbiad_tensor::rng::{stream, StreamTag};
use rand::Rng;

/// Ordered (leading-prefix) dropout.
pub type Fjord = Dropout<FjordRule>;

/// FjORD's mask rule: a leading sub-network at a width drawn per client
/// per round.
pub struct FjordRule {
    /// Width-multiplier ladder clients sample from.
    ladder: Vec<f32>,
}

impl Fjord {
    /// Ladder derived from dropout rate p: {1−p, 1−p/2, 1} (uniform).
    pub fn new(rate: f32) -> Self {
        assert!((0.0..1.0).contains(&rate));
        Dropout {
            rule: FjordRule {
                ladder: vec![1.0 - rate, 1.0 - rate / 2.0, 1.0],
            },
            sketch: None,
        }
    }
}

impl DropRule for FjordRule {
    type RoundCtx = ();

    fn name(&self) -> &'static str {
        "fjord"
    }

    fn begin_round(&mut self, _: RoundInfo, _: &ParamSet) {}

    fn mask(&self, info: RoundInfo, _: &(), client_id: usize, global: &ParamSet) -> ModelMask {
        let mut rng = stream(
            info.seed,
            StreamTag::Baseline,
            info.round as u64,
            client_id as u64,
        );
        let width = self.ladder[rng.gen_range(0..self.ladder.len())];
        let groups = derive_groups(global);
        mask_from_dropped_units(global, &trailing_drops(&groups, width))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_compress::ClientState as SketchState;
    use fedbiad_data::ClientData;
    use fedbiad_fl::algorithm::{FlAlgorithm, TrainConfig};
    use fedbiad_nn::mlp::MlpModel;
    use fedbiad_nn::Model;

    #[test]
    fn drops_are_trailing_units() {
        let model = MlpModel::new(4, 10, 2);
        let global = model.init_params(&mut stream(1, StreamTag::Init, 0, 0));
        let groups = derive_groups(&global);
        let drops = trailing_drops(&groups, 0.5);
        assert_eq!(drops[0].1, vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn full_width_drops_nothing() {
        let model = MlpModel::new(4, 10, 2);
        let global = model.init_params(&mut stream(2, StreamTag::Init, 0, 0));
        let groups = derive_groups(&global);
        assert!(trailing_drops(&groups, 1.0).is_empty());
    }

    #[test]
    fn ladder_spans_widths_and_is_deterministic_per_client() {
        use fedbiad_data::dataset::ImageSet;
        let model = MlpModel::new(4, 16, 2);
        let global = model.init_params(&mut stream(3, StreamTag::Init, 0, 0));
        let mut set = ImageSet::empty(4);
        for i in 0..20 {
            set.push(&[0.5; 4], (i % 2) as u32);
        }
        let data = ClientData::Image(set);
        let cfg = TrainConfig {
            local_iters: 1,
            batch_size: 4,
            lr: 0.05,
            ..Default::default()
        };
        let algo = Fjord::new(0.5);
        let info = RoundInfo {
            round: 0,
            total_rounds: 5,
            seed: 6,
            agg: Default::default(),
        };
        let mut seen = std::collections::BTreeSet::new();
        for client in 0..12usize {
            let mut st = SketchState::default();
            let res = algo.local_update(info, &(), client, &mut st, &global, &data, &model, &cfg);
            seen.insert(res.upload.wire_bytes);
        }
        // At least two distinct widths appear across 12 clients.
        assert!(seen.len() >= 2, "{seen:?}");
        // Mean upload below the full model.
        assert!(*seen.iter().max().unwrap() <= global.total_bytes());
    }
}
