//! AFD [15] (Bouacida et al.): adaptive federated dropout.
//!
//! The *server* maintains a score map over droppable units and decides the
//! dropping structure each round; clients train the received sub-model and
//! "cannot adjust dropping structures during local training" (paper §I) —
//! the inflexibility FedBIAD improves on. Scores blend (a) the unit's
//! weight-norm in the current global model and (b) an exponential moving
//! average of round-loss improvements credited to active units; ε-greedy
//! exploration keeps the map from locking in early. Like FedDrop, AFD is
//! restricted to non-recurrent structure.

use super::{units_to_drop, DropRule, Dropout};
use crate::neuron::{derive_groups, mask_from_dropped_units, NeuronGroup};
use fedbiad_fl::algorithm::{LocalResult, RoundInfo};
use fedbiad_nn::{ModelMask, ParamSet};
use fedbiad_tensor::rng::{stream, StreamTag};
use rand::Rng;

/// Server-adaptive federated dropout.
pub type Afd = Dropout<AfdRule>;

/// AFD's mask rule: the server's score map decides one drop set a round.
pub struct AfdRule {
    rate: f32,
    /// ε-greedy exploration probability per dropped unit.
    epsilon: f32,
    /// EMA of loss-improvement credit per (group, unit).
    credit: Vec<Vec<f32>>,
}

impl Afd {
    /// Plain AFD at dropout rate `rate`.
    pub fn new(rate: f32) -> Self {
        assert!((0.0..1.0).contains(&rate));
        Dropout {
            rule: AfdRule {
                rate,
                epsilon: 0.1,
                credit: Vec::new(),
            },
            sketch: None,
        }
    }
}

impl AfdRule {
    /// Unit score = global weight-norm of the unit's rows/cols + credit.
    fn unit_scores(&self, global: &ParamSet, groups: &[NeuronGroup]) -> Vec<Vec<f32>> {
        groups
            .iter()
            .enumerate()
            .map(|(gi, g)| {
                (0..g.count)
                    .map(|u| {
                        let mut norm = 0.0f32;
                        for &(e, off) in &g.row_blocks {
                            norm += fedbiad_tensor::ops::norm_sq(global.mat(e).row(off + u));
                        }
                        for &(e, off) in &g.col_blocks {
                            let m = global.mat(e);
                            for r in 0..m.rows() {
                                let v = m.get(r, off + u);
                                norm += v * v;
                            }
                        }
                        let credit = self
                            .credit
                            .get(gi)
                            .and_then(|c| c.get(u))
                            .copied()
                            .unwrap_or(0.0);
                        norm.sqrt() + credit
                    })
                    .collect()
            })
            .collect()
    }
}

/// The server's broadcast: per-group dropped units for this round.
pub struct AfdRoundCtx {
    /// `drops[g]` = unit ids dropped in group g.
    pub drops: Vec<Vec<usize>>,
}

impl DropRule for AfdRule {
    type RoundCtx = AfdRoundCtx;

    fn name(&self) -> &'static str {
        "afd"
    }

    fn begin_round(&mut self, info: RoundInfo, global: &ParamSet) -> AfdRoundCtx {
        let groups = derive_groups(global);
        if self.credit.len() != groups.len() {
            self.credit = groups.iter().map(|g| vec![0.0; g.count]).collect();
        }
        let scores = self.unit_scores(global, &groups);
        let mut rng = stream(info.seed, StreamTag::Baseline, info.round as u64, u64::MAX);
        let drops: Vec<Vec<usize>> = groups
            .iter()
            .zip(&scores)
            .map(|(g, s)| {
                if g.recurrent {
                    return Vec::new(); // AFD cannot touch recurrent structure
                }
                let n_drop = units_to_drop(g.count, self.rate);
                // Drop the lowest-scoring units…
                let mut order: Vec<usize> = (0..g.count).collect();
                order.sort_by(|&a, &b| s[a].partial_cmp(&s[b]).expect("NaN score").then(a.cmp(&b)));
                let mut dropped: Vec<usize> = order[..n_drop].to_vec();
                // …with ε-greedy exploration swaps.
                for d in dropped.iter_mut() {
                    if rng.gen::<f32>() < self.epsilon {
                        *d = rng.gen_range(0..g.count);
                    }
                }
                dropped.sort_unstable();
                dropped.dedup();
                dropped
            })
            .collect();
        AfdRoundCtx { drops }
    }

    /// Every client trains the server's sub-model.
    fn mask(&self, _: RoundInfo, rctx: &AfdRoundCtx, _: usize, global: &ParamSet) -> ModelMask {
        let groups = derive_groups(global);
        let drops: Vec<(&NeuronGroup, Vec<usize>)> = groups
            .iter()
            .zip(&rctx.drops)
            .filter(|(_, d)| !d.is_empty())
            .map(|(g, d)| (g, d.clone()))
            .collect();
        mask_from_dropped_units(global, &drops)
    }

    /// Credit active units with the mean loss improvement (EMA 0.9).
    fn end_round(&mut self, rctx: &AfdRoundCtx, results: &[(usize, LocalResult)]) {
        let mean_impr = results.iter().map(|(_, r)| r.loss_improvement).sum::<f32>()
            / results.len().max(1) as f32;
        for (gi, credits) in self.credit.iter_mut().enumerate() {
            let dropped = rctx.drops.get(gi).cloned().unwrap_or_default();
            for (u, c) in credits.iter_mut().enumerate() {
                let active = !dropped.contains(&u);
                let target = if active { mean_impr } else { 0.0 };
                *c = 0.9 * *c + 0.1 * target;
            }
        }
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

    fn setup() -> (MlpModel, ParamSet, ClientData) {
        let model = MlpModel::new(4, 12, 2);
        let global = model.init_params(&mut stream(1, StreamTag::Init, 0, 0));
        let mut set = ImageSet::empty(4);
        for i in 0..20 {
            set.push(&[0.1, 0.9, 0.3, 0.7], (i % 2) as u32);
        }
        (model, global, ClientData::Image(set))
    }

    #[test]
    fn server_decides_one_drop_set_for_all_clients() {
        let (model, global, data) = setup();
        let mut algo = Afd::new(0.5);
        let info = RoundInfo {
            round: 0,
            total_rounds: 5,
            seed: 8,
            agg: Default::default(),
        };
        let rctx = algo.begin_round(info, &global);
        assert!(!rctx.drops[0].is_empty());
        let cfg = TrainConfig {
            local_iters: 2,
            batch_size: 8,
            lr: 0.1,
            ..Default::default()
        };
        let mut st0 = SketchState::default();
        let mut st1 = SketchState::default();
        let a = algo.local_update(info, &rctx, 0, &mut st0, &global, &data, &model, &cfg);
        let b = algo.local_update(info, &rctx, 1, &mut st1, &global, &data, &model, &cfg);
        // Identical coverage for every client — the defining AFD property.
        assert_eq!(a.upload.coverage, b.upload.coverage);
    }

    #[test]
    fn low_norm_units_are_dropped_first() {
        let (model, mut global, _) = setup();
        // Make unit 3 tiny and unit 5 huge in *both* of the unit's weight
        // blocks (its W1 row and its W2 column) — the score sums both, so
        // shrinking only the row would leave the verdict at the mercy of
        // the random W2 init.
        for c in 0..4 {
            global.mat_mut(0).set(3, c, 1e-6);
            global.mat_mut(0).set(5, c, 10.0);
        }
        for r in 0..2 {
            global.mat_mut(1).set(r, 3, 1e-6);
            global.mat_mut(1).set(r, 5, 10.0);
        }
        let mut algo = Afd::new(0.25);
        algo.rule.epsilon = 0.0; // no exploration for determinism
        let info = RoundInfo {
            round: 0,
            total_rounds: 5,
            seed: 8,
            agg: Default::default(),
        };
        let rctx = algo.begin_round(info, &global);
        assert!(rctx.drops[0].contains(&3), "{:?}", rctx.drops[0]);
        assert!(!rctx.drops[0].contains(&5));
        let _ = model;
    }

    #[test]
    fn credit_moves_with_improvement() {
        let (model, global, data) = setup();
        let mut algo = Afd::new(0.5);
        algo.rule.epsilon = 0.0;
        let info = RoundInfo {
            round: 0,
            total_rounds: 5,
            seed: 8,
            agg: Default::default(),
        };
        let rctx = algo.begin_round(info, &global);
        let cfg = TrainConfig {
            local_iters: 6,
            batch_size: 8,
            lr: 0.3,
            ..Default::default()
        };
        let mut st = SketchState::default();
        let res = algo.local_update(info, &rctx, 0, &mut st, &global, &data, &model, &cfg);
        let mut g = global.clone();
        algo.aggregate(info, &rctx, &mut g, &[(0, res)]);
        // Some credit flowed to active units.
        let nonzero = algo.rule.credit[0].iter().filter(|&&c| c != 0.0).count();
        assert!(nonzero > 0);
        // Dropped units get no credit.
        for &d in &rctx.drops[0] {
            assert_eq!(algo.rule.credit[0][d], 0.0);
        }
    }
}
