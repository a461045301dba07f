//! Baseline FL algorithms compared against FedBIAD in the paper's
//! evaluation (§V-A): FedAvg \[1\], FedDrop \[12\], AFD \[15\], FedMP \[27\],
//! FjORD \[14\] and HeteroFL \[43\].
//!
//! The five dropout baselines are one client — fix a coverage mask for
//! the round, train the masked sub-model, upload the kept values — and
//! differ only in *how the mask is chosen* and *where they are allowed to
//! drop* (none of them can touch recurrent connections except the
//! width-scaling pair FjORD/HeteroFL; none can drop output-vocabulary
//! rows). That client is [`Dropout`], written once; each method is a
//! [`DropRule`] saying only how its mask is chosen, and `FedDrop`, `Afd`,
//! `FedMp`, `Fjord` and `HeteroFl` are aliases of `Dropout<rule>`. They
//! all aggregate holders-only (each parameter averaged over the clients
//! that trained it), which is the aggregation those papers define.
//!
//! [`FedAvg`] is not a rule: sketched, it uploads a full-model *delta*
//! and reduces with `aggregate_deltas`, which is the full-mask case of
//! the dropout client in exact arithmetic but not bit for bit.

mod afd;
mod fedavg;
mod feddrop;
mod fedmp;
mod fjord;
mod heterofl;

pub use afd::{Afd, AfdRoundCtx, AfdRule};
pub use fedavg::FedAvg;
pub use feddrop::{FedDrop, FedDropRule};
pub use fedmp::{FedMp, FedMpRule};
pub use fjord::{Fjord, FjordRule};
pub use heterofl::{HeteroFl, HeteroFlRule};

use crate::combo;
use crate::neuron::NeuronGroup;
use fedbiad_compress::{ClientState as SketchState, Compressor};
use fedbiad_data::ClientData;
use fedbiad_fl::aggregate::{aggregate_weights, ZeroMode};
use fedbiad_fl::algorithm::{FlAlgorithm, LocalResult, RoundInfo, TrainConfig};
use fedbiad_fl::client::{run_local_training, LocalHooks, LocalRunId};
use fedbiad_fl::upload::Upload;
use fedbiad_nn::{KeptRows, Model, ModelMask, ParamSet};
use std::sync::Arc;

/// How one federated-dropout method chooses the sub-model a client
/// trains — everything the paper says differs between them (§V-A).
pub trait DropRule: Send + Sync {
    /// The server's per-round broadcast (AFD's drop decision; unit for
    /// the rules whose clients choose for themselves).
    type RoundCtx: Send + Sync;

    /// Method name for tables/logs.
    fn name(&self) -> &'static str;

    /// Server-side round preamble.
    fn begin_round(&mut self, info: RoundInfo, global: &ParamSet) -> Self::RoundCtx;

    /// The coverage mask `client_id` trains and uploads under this round.
    fn mask(
        &self,
        info: RoundInfo,
        rctx: &Self::RoundCtx,
        client_id: usize,
        global: &ParamSet,
    ) -> ModelMask;

    /// Server-side bookkeeping once the round's uploads are merged.
    fn end_round(&mut self, _rctx: &Self::RoundCtx, _results: &[(usize, LocalResult)]) {}
}

/// The federated-dropout client and its holders-only server, for any
/// [`DropRule`]; optionally sketch-compressed on the uplink (Table II).
pub struct Dropout<R> {
    rule: R,
    sketch: Option<Arc<dyn Compressor>>,
}

impl<R> Dropout<R> {
    /// The same method with `sketch` compressing its uplink (Table II
    /// "AFD+DGC", "Fjord+DGC", the scenario `compressor` axis); `None`
    /// leaves it plain.
    pub fn with_sketch(self, sketch: Option<Arc<dyn Compressor>>) -> Self {
        Self { sketch, ..self }
    }
}

/// Hooks that keep training inside a fixed coverage mask: the engine
/// computes the mask's kept rows only, and gradients outside the mask
/// are zeroed.
struct MaskHooks<'a> {
    mask: &'a ModelMask,
    /// `mask`'s kept rows. The promise behind the view — dropped rows of
    /// `u` are `+0.0` — holds from `mask.apply(u)` on, because a masked
    /// gradient row is `+0.0` and `u −= lr·0` leaves `+0.0` in place.
    kept: KeptRows,
}

impl LocalHooks for MaskHooks<'_> {
    fn make_theta<'a>(
        &'a mut self,
        _v: usize,
        u: &'a ParamSet,
    ) -> (&'a ParamSet, Option<&'a KeptRows>) {
        (u, Some(&self.kept))
    }

    fn mask_grads(&mut self, _v: usize, grads: &mut ParamSet) {
        self.mask.apply(grads);
    }
}

impl<R: DropRule> FlAlgorithm for Dropout<R> {
    type ClientState = SketchState;
    type RoundCtx = R::RoundCtx;

    fn name(&self) -> String {
        match &self.sketch {
            Some(c) => format!("{}+{}", self.rule.name(), c.name()),
            None => self.rule.name().into(),
        }
    }

    fn init_client_state(&self, _: usize, _: &dyn Model, _: &ParamSet) -> SketchState {
        SketchState::default()
    }

    fn begin_round(&mut self, info: RoundInfo, global: &ParamSet) -> R::RoundCtx {
        self.rule.begin_round(info, global)
    }

    fn local_update(
        &self,
        info: RoundInfo,
        rctx: &R::RoundCtx,
        client_id: usize,
        state: &mut SketchState,
        global: &ParamSet,
        data: &ClientData,
        model: &dyn Model,
        cfg: &TrainConfig,
    ) -> LocalResult {
        // Mask the received global, train the sub-model, upload it.
        let mask = self.rule.mask(info, rctx, client_id, global);
        let mut u = global.clone();
        mask.apply(&mut u);
        let id = LocalRunId {
            seed: info.seed,
            round: info.round,
            client: client_id,
        };
        let mut hooks = MaskHooks {
            mask: &mask,
            kept: mask.kept_rows(),
        };
        let stats = run_local_training(id, model, data, cfg, &mut u, &mut hooks);
        let sketch = self.sketch.as_deref();
        LocalResult {
            upload: combo::masked_upload(info, client_id, u, global, mask, sketch, state),
            train_loss: stats.mean_loss,
            loss_improvement: stats.improvement(),
            local_seconds: stats.seconds,
            num_samples: data.num_samples(),
        }
    }

    fn aggregate(
        &mut self,
        info: RoundInfo,
        rctx: &R::RoundCtx,
        global: &mut ParamSet,
        results: &[(usize, LocalResult)],
    ) {
        let ups = weighted_uploads(results);
        aggregate_weights(global, &ups, ZeroMode::HoldersOnly, info.agg)
            .expect("aggregation failed");
        self.rule.end_round(rctx, results);
    }
}

/// Each result's upload beside its eq. (10) weight |D_k|, as the
/// aggregation engines take them.
pub(crate) fn weighted_uploads(results: &[(usize, LocalResult)]) -> Vec<(f32, &Upload)> {
    results
        .iter()
        .map(|(_, r)| (r.num_samples as f32, &r.upload))
        .collect()
}

/// Round `rate · count` with a floor of 0 and ceiling `count − 1` (always
/// keep at least one unit per group).
fn units_to_drop(count: usize, rate: f32) -> usize {
    (((count as f64) * rate as f64).round() as usize).min(count.saturating_sub(1))
}

/// The trailing units a client at width multiplier `width` drops from
/// each group — ordered dropout, FjORD's and HeteroFL's shared shape.
fn trailing_drops(groups: &[NeuronGroup], width: f32) -> Vec<(&NeuronGroup, Vec<usize>)> {
    groups
        .iter()
        .map(|g| {
            let n_drop = units_to_drop(g.count, 1.0 - width);
            (g, (g.count - n_drop..g.count).collect::<Vec<_>>())
        })
        .filter(|(_, d)| !d.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_compress::dgc::Dgc;
    use fedbiad_data::dataset::ImageSet;
    use fedbiad_data::FedDataset;
    use fedbiad_fl::round::RoundCore;
    use fedbiad_fl::{ChurnSpec, ExperimentConfig};
    use fedbiad_nn::mask::{BitVec, CoverageMask};
    use fedbiad_nn::mlp::MlpModel;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn units_to_drop_rounds_and_clamps() {
        assert_eq!(units_to_drop(10, 0.2), 2);
        assert_eq!(units_to_drop(10, 0.55), 6);
        assert_eq!(units_to_drop(1, 0.9), 0);
        assert_eq!(units_to_drop(3, 0.99), 2);
    }

    /// Hidden unit the stub drops for every client: row 1 of W1 + bias.
    const DROPPED: usize = 1;

    /// A rule that gives every client the same mask and counts who asked
    /// it for what.
    #[derive(Default)]
    struct Stub {
        begun: Arc<AtomicUsize>,
        masked: Arc<Mutex<Vec<usize>>>,
        ended: Arc<AtomicUsize>,
    }

    impl DropRule for Stub {
        type RoundCtx = ();

        fn name(&self) -> &'static str {
            "stub"
        }

        fn begin_round(&mut self, _: RoundInfo, _: &ParamSet) {
            self.begun.fetch_add(1, Ordering::Relaxed);
        }

        fn mask(&self, _: RoundInfo, _: &(), client_id: usize, global: &ParamSet) -> ModelMask {
            self.masked.lock().unwrap().push(client_id);
            let mut mask = ModelMask::full(global);
            let mut rows = BitVec::new(global.mat(0).rows(), true);
            rows.set(DROPPED, false);
            mask.per_entry[0] = CoverageMask::Rows(rows);
            mask
        }

        fn end_round(&mut self, _: &(), results: &[(usize, LocalResult)]) {
            assert!(
                !results.is_empty(),
                "end_round on a round nothing was merged in"
            );
            self.ended.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn bits(p: &ParamSet) -> Vec<u32> {
        p.flatten().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn dropout_client_drives_its_rule_once_per_round_and_merges_holders_only() {
        let all = |offline, dropout| Some(ChurnSpec { offline, dropout });
        // (what, churn, begin_round calls, mask calls, end_round calls)
        let cases = [
            ("healthy", None, 1, 4, 1),
            // A cohort thinned to nothing never reaches the algorithm…
            ("everyone offline", all(1.0, 0.0), 0, 0, 0),
            // …and one that lost every upload trains but merges nothing.
            ("everyone drops out", all(0.0, 1.0), 1, 4, 0),
        ];

        let mut shard = ImageSet::empty(4);
        for i in 0..8 {
            shard.push(&[0.0, 1.0, 0.5, 1.0], i % 2);
        }
        let shard = ClientData::Image(shard);
        let data = FedDataset {
            name: "unit".into(),
            clients: vec![shard.clone(); 4],
            lazy: None,
            test: shard,
        };
        let model = MlpModel::new(4, 3, 2);
        let ids: Vec<usize> = (0..4).collect();

        for sketch in [None, Some(Arc::new(Dgc::paper()) as Arc<dyn Compressor>)] {
            let name = if sketch.is_some() { "stub+dgc" } else { "stub" };
            for (what, churn, begun, masked, ended) in cases {
                let what = format!("{name}, {what}");
                let rule = Stub::default();
                let counts = (rule.begun.clone(), rule.masked.clone(), rule.ended.clone());
                let algo = Dropout { rule, sketch: None }.with_sketch(sketch.clone());
                assert_eq!(algo.name(), name);
                let cfg = ExperimentConfig {
                    rounds: 1,
                    seed: 7,
                    churn,
                    ..Default::default()
                };
                let mut core = RoundCore::new(&model, &data, algo, cfg).unwrap();
                let before = core.global().clone();

                let trained = core.train(&ids);
                // The same mask means the same coverage on the wire.
                for t in &trained {
                    assert_eq!(
                        t.result.upload.coverage, trained[0].result.upload.coverage,
                        "{what}"
                    );
                }
                let survivors: Vec<(usize, LocalResult)> = trained
                    .into_iter()
                    .filter(|t| !t.lost)
                    .map(|t| (t.id, t.result))
                    .collect();
                assert_eq!(core.aggregate(&survivors), ended == 1, "{what}");

                assert_eq!(
                    counts.0.load(Ordering::Relaxed),
                    begun,
                    "{what}: begin_round"
                );
                let mut asked = counts.1.lock().unwrap().clone();
                asked.sort_unstable();
                assert_eq!(asked, ids[..masked], "{what}: one mask per client");
                assert_eq!(counts.2.load(Ordering::Relaxed), ended, "{what}: end_round");

                // Holders-only: what no client covers keeps the previous
                // global bit for bit; the rest moved iff something merged.
                let after = core.global();
                let dropped = |p: &ParamSet| -> Vec<u32> {
                    let unit = p.mat(0).row(DROPPED).iter().chain([&p.bias(0)[DROPPED]]);
                    unit.map(|v| v.to_bits()).collect()
                };
                assert_eq!(
                    dropped(after),
                    dropped(&before),
                    "{what}: an entry nobody holds moved"
                );
                assert_eq!(bits(after) != bits(&before), ended == 1, "{what}");
            }
        }
    }
}
