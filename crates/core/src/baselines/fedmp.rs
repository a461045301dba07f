//! FedMP [27]: federated learning through adaptive model pruning.
//!
//! Each client prunes the weights with the lowest absolute values
//! ("FedMP assumes that small weights have a weak effect on model
//! accuracy", paper §V-A) at rate p, trains the sparse model and uploads
//! only the surviving weights plus a 1-bit/element position bitmap.
//! Pruning applies to dense (non-recurrent, non-embedding) matrices —
//! magnitude pruning of recurrent and embedding structure is outside the
//! method's published scope.

use super::{DropRule, Dropout};
use fedbiad_fl::algorithm::RoundInfo;
use fedbiad_nn::mask::{BitVec, CoverageMask, ModelMask};
use fedbiad_nn::params::LayerKind;
use fedbiad_nn::ParamSet;
use fedbiad_tensor::stats;

/// Magnitude pruning at a fixed rate.
pub type FedMp = Dropout<FedMpRule>;

/// FedMP's mask rule: keep the largest-magnitude weights of the received
/// global.
pub struct FedMpRule {
    rate: f32,
}

impl FedMp {
    /// Plain FedMP at pruning rate `rate`.
    pub fn new(rate: f32) -> Self {
        assert!((0.0..1.0).contains(&rate));
        Dropout {
            rule: FedMpRule { rate },
            sketch: None,
        }
    }
}

impl FedMpRule {
    /// Is entry `e` prunable under FedMP's published scope?
    fn prunable(kind: LayerKind) -> bool {
        matches!(kind, LayerKind::DenseHidden | LayerKind::DenseOutput)
    }
}

impl DropRule for FedMpRule {
    type RoundCtx = ();

    fn name(&self) -> &'static str {
        "fedmp"
    }

    fn begin_round(&mut self, _: RoundInfo, _: &ParamSet) {}

    /// Element mask keeping the top-(1−p) |weights| of each prunable
    /// entry. Magnitudes are taken from the received global — all clients
    /// of a round share them, but the mask recomputes every round as
    /// weights evolve ("adaptive" pruning).
    fn mask(&self, _: RoundInfo, _: &(), _: usize, global: &ParamSet) -> ModelMask {
        let per_entry = (0..global.num_entries())
            .map(|e| {
                if !Self::prunable(global.meta(e).kind) {
                    return CoverageMask::Full;
                }
                let w = global.mat(e).as_slice();
                let keep = ((w.len() as f64 * (1.0 - self.rate) as f64).round() as usize)
                    .clamp(1, w.len());
                let mut bits = BitVec::new(w.len(), false);
                for key in stats::top_k_keys(w, keep, stats::abs_rank) {
                    bits.set(stats::key_pos(key), true);
                }
                CoverageMask::Elements(bits)
            })
            .collect();
        ModelMask { per_entry }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_nn::lstm_lm::LstmLmModel;
    use fedbiad_nn::mlp::MlpModel;
    use fedbiad_nn::Model;
    use fedbiad_tensor::rng::{stream, StreamTag};

    /// The rule's mask; it reads neither the round nor the client.
    fn prune_mask(algo: &FedMp, global: &ParamSet) -> ModelMask {
        let info = RoundInfo {
            round: 0,
            total_rounds: 1,
            seed: 0,
            agg: Default::default(),
        };
        algo.rule.mask(info, &(), 0, global)
    }

    #[test]
    fn prune_mask_keeps_largest_magnitudes() {
        let model = MlpModel::new(3, 4, 2);
        let mut global = model.init_params(&mut stream(1, StreamTag::Init, 0, 0));
        global.mat_mut(0).fill(0.01);
        global.mat_mut(0).set(0, 0, 5.0);
        global.mat_mut(0).set(2, 1, -4.0);
        let algo = FedMp::new(0.8);
        let mask = prune_mask(&algo, &global);
        match &mask.per_entry[0] {
            CoverageMask::Elements(bits) => {
                assert!(bits.get(0)); // (0,0)
                assert!(bits.get(2 * 3 + 1)); // (2,1)
                                              // Keeps ⌈20%⌉ of 12 = 2… round(12·0.2)=2.
                assert_eq!(bits.count_ones(), 2);
            }
            other => panic!("want Elements, got {other:?}"),
        }
    }

    #[test]
    fn embedding_and_recurrent_are_not_pruned() {
        let model = LstmLmModel::new(15, 6, 5, 1);
        let global = model.init_params(&mut stream(2, StreamTag::Init, 0, 0));
        let algo = FedMp::new(0.5);
        let mask = prune_mask(&algo, &global);
        // emb (0), wx (1), wh (2) stay Full; head (3) gets Elements.
        assert_eq!(mask.per_entry[0], CoverageMask::Full);
        assert_eq!(mask.per_entry[1], CoverageMask::Full);
        assert_eq!(mask.per_entry[2], CoverageMask::Full);
        assert!(matches!(mask.per_entry[3], CoverageMask::Elements(_)));
    }

    #[test]
    fn wire_bytes_include_position_bitmap() {
        let model = MlpModel::new(8, 16, 4);
        let global = model.init_params(&mut stream(3, StreamTag::Init, 0, 0));
        let algo = FedMp::new(0.5);
        let mask = prune_mask(&algo, &global);
        let bytes = mask.wire_bytes(&global);
        let kept = mask.kept_params(&global) as u64;
        // weights + biases kept at 4B each, plus ⌈n/8⌉ bitmap per entry.
        let bitmap: u64 = (0..global.num_entries())
            .map(|e| (global.mat(e).len() as u64).div_ceil(8))
            .sum();
        assert_eq!(bytes, kept * 4 + bitmap);
        assert!(bytes < global.total_bytes());
    }
}
