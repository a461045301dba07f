//! FedBIAD (paper Algorithm 1): federated learning with Bayesian
//! inference-based adaptive dropout.
//!
//! Per round, each selected client:
//!
//! 1. initialises U^{k,0}_r from the received global U_{r−1} and, in stage
//!    one (r ≤ R_b), samples a dropping pattern β uniformly from Z_S^N; in
//!    stage two the pattern comes from the weight score vector E^k;
//! 2. iterates V masked-SGD steps on θ^{k,v} ~ β∘N(U, s̃²I) (eq. (7)),
//!    watching the loss trend ΔL (eq. (8)) every τ iterations and
//!    re-sampling β when the trend is unfavourable (stage one only);
//! 3. records dropout experience into E^k (eq. (9));
//! 4. uploads the non-dropped rows of U plus the 1-bit/row pattern
//!    (optionally DGC-compressed, Fig. 5).
//!
//! The server reconstructs β∘U per client and averages per eq. (10).

use crate::baselines::weighted_uploads;
use crate::combo;
use crate::indicator::WeightScores;
use crate::losstrend::LossTrend;
use crate::pattern::{keep_count, DropPattern};
use crate::spike_slab::{
    client_total_data, resolve_noise, sample_theta_into, NoiseLevel, ThetaStats,
};
use fedbiad_compress::{ClientState as SketchState, Compressor};
use fedbiad_data::ClientData;
use fedbiad_fl::aggregate::{aggregate_weights, ZeroMode};
use fedbiad_fl::algorithm::{FlAlgorithm, LocalResult, RoundInfo, TrainConfig};
use fedbiad_fl::client::{run_local_training, LocalHooks, LocalRunId};
use fedbiad_fl::telemetry::counter;
use fedbiad_nn::mask::{BitVec, KeptRows};
use fedbiad_nn::{Model, ParamSet};
use fedbiad_tensor::rng::{stream, stream_key, StreamTag};
use rand::rngs::StdRng;
use std::sync::Arc;

/// How stage-one patterns are sampled (DESIGN.md §4.1 ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatternSampling {
    /// Uniform over Z_S^N: exactly S rows kept globally (the literal
    /// paper formulation; default).
    Global,
    /// Per-matrix quota: each droppable matrix keeps ⌈(1−p)·rows⌉ rows.
    PerEntry,
}

/// FedBIAD hyper-parameters.
#[derive(Clone, Debug)]
pub struct FedBiadConfig {
    /// Dropout rate p (paper §V-A: 0.2 for MNIST-scale, 0.5 for large).
    pub dropout_rate: f32,
    /// Loss-trend interval τ (paper: 3).
    pub tau: usize,
    /// Stage boundary R_b in 1-based rounds (paper: 55 of 60).
    pub stage_boundary: usize,
    /// Stage-one pattern sampling.
    pub sampling: PatternSampling,
    /// Aggregation zero semantics (paper eq. (10) = `ZerosPull`).
    pub aggregation: ZeroMode,
    /// Posterior noise level (paper: eq. (13), = `Theory`).
    pub noise: NoiseLevel,
    /// Assumption-2 weight bound B.
    pub weight_bound: f64,
    /// Force-keep rows of *small* output heads (≤ this many rows). A
    /// 10-class head loses whole classes under uniform Z_S^N sampling,
    /// which the importance indicator only repairs in stage two; with a
    /// 10k-word head the quantile naturally drops rare words instead.
    /// Default 64 (classification heads protected, vocabulary heads
    /// droppable). Set 0 for the literal Z_S^N (ablation).
    pub protect_small_output_rows: usize,
    /// Layer kinds whose rows are never dropped (diagnostic/ablation knob;
    /// empty = the paper's "all weight matrices droppable").
    pub protect_kinds: Vec<fedbiad_nn::params::LayerKind>,
    /// Carry each client's stage-one pattern across rounds instead of
    /// re-sampling it fresh every round (Algorithm 1 line 11 re-samples).
    /// Marginally the pattern is still uniform over Z_S^N and still
    /// adapted by the loss-trend rule — persistence only adds the
    /// cross-round sub-network coherence that ordered-dropout methods get
    /// for free; without it, masked updates from churning sub-networks
    /// largely cancel at small cohort sizes (DESIGN.md §4). Default true;
    /// set false for the literal per-round re-sampling (ablation).
    pub persistent_patterns: bool,
}

impl FedBiadConfig {
    /// Paper defaults for dropout rate `p` and stage boundary `rb`.
    /// Aggregation defaults to [`ZeroMode::StaleFill`] — the operational
    /// reading of step 4 / eq. (10) under which the paper's convergence
    /// curves are reproducible; the literal zeros-pull is available as an
    /// ablation (see `ablation` bench and DESIGN.md §4.2).
    pub fn paper(p: f32, rb: usize) -> Self {
        Self {
            dropout_rate: p,
            tau: 3,
            stage_boundary: rb,
            sampling: PatternSampling::Global,
            aggregation: ZeroMode::StaleFill,
            noise: NoiseLevel::Theory,
            weight_bound: 2.0,
            protect_small_output_rows: 64,
            protect_kinds: Vec::new(),
            persistent_patterns: true,
        }
    }
}

/// Per-client persistent state.
pub struct FedBiadClientState {
    /// Weight score vector E^k (eq. (9)).
    pub scores: WeightScores,
    /// The client's current dropping pattern, carried across rounds when
    /// `persistent_patterns` is set.
    pub pattern: Option<DropPattern>,
    /// Sketch-compression residual/velocity (only used with
    /// [`FedBiad::with_sketch`]).
    pub sketch: SketchState,
}

/// The FedBIAD algorithm.
pub struct FedBiad {
    cfg: FedBiadConfig,
    sketch: Option<Arc<dyn Compressor>>,
    /// Server-side EMA of each row unit's empirical keep frequency
    /// β̄_j = Σ_k |D_k|·β_{k,j} / Σ_k |D_k| — the spike-and-slab posterior
    /// keep probability used by [`FedBiad::eval_params`]. Lazily sized.
    keep_freq: Vec<f32>,
}

impl FedBiad {
    /// Plain FedBIAD.
    pub fn new(cfg: FedBiadConfig) -> Self {
        Self {
            cfg,
            sketch: None,
            keep_freq: Vec::new(),
        }
    }

    /// FedBIAD combined with a sketched compressor (paper Fig. 5 /
    /// Table II "FedBIAD+DGC").
    pub fn with_sketch(cfg: FedBiadConfig, comp: Arc<dyn Compressor>) -> Self {
        Self {
            cfg,
            sketch: Some(comp),
            keep_freq: Vec::new(),
        }
    }

    /// Is `round` (0-based) in stage one? The paper's stage rule is
    /// 1-based: r ≤ R_b.
    fn stage_one(&self, round: usize) -> bool {
        round < self.cfg.stage_boundary
    }

    /// Rows that must always be kept (small classification heads — see
    /// `protect_small_output_rows`).
    fn forced_keep(&self, params: &ParamSet) -> BitVec {
        let j = params.num_row_units();
        let mut forced = BitVec::new(j, false);
        for e in 0..params.num_entries() {
            let meta = params.meta(e);
            if !meta.droppable {
                continue;
            }
            let small_head = meta.kind == fedbiad_nn::params::LayerKind::DenseOutput
                && params.entry_units(e) <= self.cfg.protect_small_output_rows;
            let protected_kind = self.cfg.protect_kinds.contains(&meta.kind);
            if small_head || protected_kind {
                for u in 0..params.entry_units(e) {
                    if let Some(g) = params.row_unit_index(e, u) {
                        forced.set(g, true);
                    }
                }
            }
        }
        forced
    }

    /// Stage-one pattern draw; `forced` is [`FedBiad::forced_keep`] of
    /// `params`, computed once per local update.
    fn sample_pattern(
        &self,
        params: &ParamSet,
        forced: &BitVec,
        keep: usize,
        rng: &mut StdRng,
    ) -> DropPattern {
        match self.cfg.sampling {
            PatternSampling::Global => {
                let j = params.num_row_units();
                if forced.count_ones() == 0 {
                    DropPattern::sample_global(j, keep, rng)
                } else {
                    DropPattern::sample_global_forced(j, keep, forced, rng)
                }
            }
            PatternSampling::PerEntry => {
                DropPattern::sample_per_entry(params, self.cfg.dropout_rate, rng)
            }
        }
    }
}

/// The per-iteration hooks implementing Algorithm 1 lines 15–27.
struct BiadHooks<'a> {
    fedbiad: &'a FedBiad,
    params_template: &'a ParamSet,
    forced: &'a BitVec,
    pattern: DropPattern,
    /// `pattern` expanded to matrix rows; rebuilt only when β changes.
    rows_kept: Vec<Vec<bool>>,
    /// `pattern`'s kept-row view for the engine, rebuilt alongside.
    kept: KeptRows,
    /// θ, allocated once per local update and overwritten every step.
    theta: ParamSet,
    theta_stats: ThetaStats,
    tracker: LossTrend,
    scores: &'a mut WeightScores,
    stage_one: bool,
    s_tilde: f32,
    keep: usize,
    /// Key of this run's θ-noise field (`StreamTag::PosteriorNoise`).
    noise_key: u64,
    pattern_rng: StdRng,
}

impl LocalHooks for BiadHooks<'_> {
    fn make_theta<'a>(
        &'a mut self,
        v: usize,
        u: &'a ParamSet,
    ) -> (&'a ParamSet, Option<&'a KeptRows>) {
        // Algorithm 1 line 16: θ ~ β ∘ N(U, s̃²I). The sampler stores
        // `+0.0` in every dropped matrix row, which is the promise the
        // kept-row view is handed out under.
        self.theta_stats += sample_theta_into(
            &mut self.theta,
            u,
            &self.rows_kept,
            self.s_tilde,
            self.noise_key,
            v as u64,
        );
        (&self.theta, Some(&self.kept))
    }

    fn mask_grads(&mut self, _v: usize, grads: &mut ParamSet) {
        // Eq. (7): only non-dropped rows update U.
        self.pattern.mask_grads(grads);
    }

    fn post_iteration(&mut self, v: usize, loss: f32) {
        self.tracker.observe(loss);
        // Algorithm 1 lines 18–25 (stage one only): every τ iterations,
        // keep the pattern when ΔL ≤ 0, re-sample otherwise.
        let unfavourable = self.stage_one
            && self.tracker.at_checkpoint(v)
            && self.tracker.gap().is_some_and(|gap| gap > 0.0);
        // Algorithm 1 line 26 / eq. (9).
        if unfavourable {
            let next = self.fedbiad.sample_pattern(
                self.params_template,
                self.forced,
                self.keep,
                &mut self.pattern_rng,
            );
            let held = std::mem::replace(&mut self.pattern, next);
            self.rows_kept = self.pattern.rows_kept(self.params_template);
            self.kept = self.pattern.to_mask(self.params_template).kept_rows();
            self.scores.update(&held, &self.pattern, false);
        } else {
            self.scores.update(&self.pattern, &self.pattern, true);
        }
    }
}

impl FlAlgorithm for FedBiad {
    type ClientState = FedBiadClientState;
    type RoundCtx = ();

    fn name(&self) -> String {
        match &self.sketch {
            Some(c) => format!("fedbiad+{}", c.name()),
            None => "fedbiad".into(),
        }
    }

    fn init_client_state(
        &self,
        _client_id: usize,
        _model: &dyn Model,
        global: &ParamSet,
    ) -> FedBiadClientState {
        FedBiadClientState {
            scores: WeightScores::new(global.num_row_units()),
            pattern: None,
            sketch: SketchState::default(),
        }
    }

    fn begin_round(&mut self, _info: RoundInfo, _global: &ParamSet) {}

    fn local_update(
        &self,
        info: RoundInfo,
        _rctx: &(),
        client_id: usize,
        state: &mut FedBiadClientState,
        global: &ParamSet,
        data: &ClientData,
        model: &dyn Model,
        cfg: &TrainConfig,
    ) -> LocalResult {
        let j = global.num_row_units();
        let keep = keep_count(j, self.cfg.dropout_rate);
        let mut u = global.clone();

        let mut pattern_rng = stream(
            info.seed,
            StreamTag::Pattern,
            info.round as u64,
            client_id as u64,
        );
        let noise_key = stream_key(
            info.seed,
            StreamTag::PosteriorNoise,
            info.round as u64,
            client_id as u64,
        );

        let stage_one = self.stage_one(info.round);
        let forced = self.forced_keep(global);
        let pattern = if stage_one {
            // Algorithm 1 line 11: random initial pattern — carried over
            // from the client's previous participation when
            // `persistent_patterns` is on (see config docs).
            match (&state.pattern, self.cfg.persistent_patterns) {
                (Some(p), true) if p.len() == j => p.clone(),
                _ => self.sample_pattern(global, &forced, keep, &mut pattern_rng),
            }
        } else if forced.count_ones() == 0 {
            // Algorithm 1 line 13: pattern from the weight score vector.
            state.scores.to_pattern(keep)
        } else {
            DropPattern::from_scores_forced(&state.scores.e, keep, &forced)
        };

        // s̃² per eq. (13) with m_r = r·V·|D_k| (per-client approximation
        // of min|D_k| — the server-side min is not visible to a client).
        let arch = model.arch();
        let m_r = client_total_data(info.round + 1, cfg.local_iters, data.num_samples());
        let kept_weights =
            (arch.total_weights as f64 * (1.0 - self.cfg.dropout_rate) as f64) as usize;
        let s_tilde = resolve_noise(
            self.cfg.noise,
            &arch,
            kept_weights,
            m_r,
            self.cfg.weight_bound,
        );

        let mut hooks = BiadHooks {
            fedbiad: self,
            params_template: global,
            forced: &forced,
            rows_kept: pattern.rows_kept(global),
            kept: pattern.to_mask(global).kept_rows(),
            pattern,
            theta: global.clone(),
            theta_stats: ThetaStats::default(),
            tracker: LossTrend::new(self.cfg.tau),
            scores: &mut state.scores,
            stage_one,
            s_tilde,
            keep,
            noise_key,
            pattern_rng,
        };

        let id = LocalRunId {
            seed: info.seed,
            round: info.round,
            client: client_id,
        };
        let stats = run_local_training(id, model, data, cfg, &mut u, &mut hooks);
        // Moving the pattern out ends the hooks' &mut borrow of
        // state.scores.
        let BiadHooks {
            pattern: final_pattern,
            theta_stats,
            ..
        } = hooks;
        counter!("theta.transforms", theta_stats.transforms);
        counter!("theta.transforms_skipped", theta_stats.transforms_skipped);
        counter!("theta.rows_dropped", theta_stats.rows_dropped);

        // Upload: non-dropped rows of U under the *final* pattern β^{k,V}.
        let final_mask = final_pattern.to_mask(global);
        // Persist the (possibly loss-trend-refined) pattern for the
        // client's next participation.
        state.pattern = Some(final_pattern);
        let upload = combo::masked_upload(
            info,
            client_id,
            u,
            global,
            final_mask,
            self.sketch.as_deref(),
            &mut state.sketch,
        );

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
        // Eq. (10): weighted average of reconstructed β∘U.
        let ups = weighted_uploads(results);
        aggregate_weights(global, &ups, self.cfg.aggregation, info.agg)
            .expect("aggregation failed");

        // Update the posterior keep-frequency EMA from this round's
        // coverage (drives the eq. (11)/(12) predictive scaling in
        // `eval_params`).
        let j = global.num_row_units();
        if self.keep_freq.len() != j {
            self.keep_freq = vec![1.0 - self.cfg.dropout_rate; j];
            let forced = self.forced_keep(global);
            for ju in 0..j {
                if forced.get(ju) {
                    self.keep_freq[ju] = 1.0;
                }
            }
        }
        let total_w: f32 = results.iter().map(|(_, r)| r.num_samples as f32).sum();
        if total_w <= 0.0 {
            return;
        }
        const EMA: f32 = 0.2;
        for ju in 0..j {
            let (e, u) = global.row_unit(ju);
            // Gate-0 row of the unit decides coverage (units are dropped
            // atomically).
            let cols = global.mat(e).cols();
            let mut kept_w = 0.0f32;
            for (_, r) in results {
                if r.upload.coverage.per_entry[e].covers(u, 0, cols) {
                    kept_w += r.num_samples as f32;
                }
            }
            let freq = kept_w / total_w;
            self.keep_freq[ju] = (1.0 - EMA) * self.keep_freq[ju] + EMA * freq;
        }
    }

    fn eval_params(&self, global: &ParamSet) -> ParamSet {
        // Predictive posterior mean: E[β∘w] = β̄·µ per row unit (the
        // classical dropout inference scaling; eq. (11)/(12)).
        let mut deploy = global.clone();
        if self.keep_freq.len() == global.num_row_units() {
            for (ju, &f) in self.keep_freq.iter().enumerate() {
                deploy.scale_row_unit(ju, f.clamp(0.0, 1.0));
            }
        } else {
            // Before any aggregation: uniform prior keep probability.
            let f = 1.0 - self.cfg.dropout_rate;
            for ju in 0..global.num_row_units() {
                deploy.scale_row_unit(ju, f);
            }
        }
        deploy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_data::dataset::ImageSet;
    use fedbiad_fl::upload::Upload;
    use fedbiad_nn::mlp::MlpModel;

    fn toy_setup() -> (MlpModel, ParamSet, ClientData) {
        let model = MlpModel::new(6, 8, 3);
        let mut rng = stream(1, StreamTag::Init, 0, 0);
        let global = model.init_params(&mut rng);
        let mut set = ImageSet::empty(6);
        for i in 0..60 {
            let c = i % 3;
            let mut f = [0.05f32; 6];
            f[c * 2] = 1.0;
            f[c * 2 + 1] = 1.0;
            set.push(&f, c as u32);
        }
        (model, global, ClientData::Image(set))
    }

    fn cfg() -> TrainConfig {
        TrainConfig {
            local_iters: 12,
            batch_size: 16,
            lr: 0.3,
            ..Default::default()
        }
    }

    #[test]
    fn upload_respects_dropout_budget() {
        let (model, global, data) = toy_setup();
        let algo = FedBiad::new(FedBiadConfig::paper(0.5, 5));
        let mut st = algo.init_client_state(0, &model, &global);
        let info = RoundInfo {
            round: 0,
            total_rounds: 10,
            seed: 7,
            agg: Default::default(),
        };
        let res = algo.local_update(info, &(), 0, &mut st, &global, &data, &model, &cfg());
        // Exactly keep_count rows transmitted.
        let j = global.num_row_units();
        let keep = keep_count(j, 0.5);
        let kept_rows: usize = (0..global.num_entries())
            .map(|e| match &res.upload.coverage.per_entry[e] {
                fedbiad_nn::CoverageMask::Rows(b) => b.count_ones(),
                _ => 0,
            })
            .sum();
        assert_eq!(kept_rows, keep);
        assert!(res.upload.wire_bytes < global.total_bytes());
    }

    #[test]
    fn stage_two_uses_scores_and_is_deterministic() {
        let (model, global, data) = toy_setup();
        let algo = FedBiad::new(FedBiadConfig::paper(0.5, 2)); // Rb = 2
        let mut st = algo.init_client_state(0, &model, &global);
        // Seed scores so stage two has a clear preference.
        for (i, e) in st.scores.e.iter_mut().enumerate() {
            *e = i as f32;
        }
        let info = RoundInfo {
            round: 5,
            total_rounds: 10,
            seed: 7,
            agg: Default::default(),
        }; // r=6 > Rb
        let res = algo.local_update(info, &(), 0, &mut st, &global, &data, &model, &cfg());
        let j = global.num_row_units();
        let keep = keep_count(j, 0.5);
        let expected = st.scores.to_pattern(keep).to_mask(&global);
        // Scores were bumped during the round, but only for kept rows, so
        // the *selected set* stays the argmax set — compare coverage.
        assert_eq!(res.upload.coverage, expected);
    }

    #[test]
    fn scores_accumulate_during_training() {
        let (model, global, data) = toy_setup();
        let algo = FedBiad::new(FedBiadConfig::paper(0.5, 10));
        let mut st = algo.init_client_state(0, &model, &global);
        let info = RoundInfo {
            round: 0,
            total_rounds: 10,
            seed: 3,
            agg: Default::default(),
        };
        let _ = algo.local_update(info, &(), 0, &mut st, &global, &data, &model, &cfg());
        let total: f32 = st.scores.e.iter().sum();
        assert!(total > 0.0, "scores should accumulate");
        // Upper bound: keep · V (every kept row bumped every iteration).
        let j = global.num_row_units();
        let keep = keep_count(j, 0.5) as f32;
        assert!(total <= keep * 12.0 + 1e-3);
    }

    #[test]
    fn fedbiad_learns_end_to_end() {
        use fedbiad_data::FedDataset;
        use fedbiad_fl::runner::{Experiment, ExperimentConfig};
        let (model, _, _) = toy_setup();
        // 4 clients with the same toy distribution.
        let clients: Vec<ClientData> = (0..4)
            .map(|_| {
                let (_, _, d) = toy_setup();
                d
            })
            .collect();
        let (_, _, test) = toy_setup();
        let fd = FedDataset {
            name: "toy".into(),
            clients,
            lazy: None,
            test,
        };
        let cfg = ExperimentConfig {
            rounds: 15,
            client_fraction: 0.5,
            seed: 11,
            train: TrainConfig {
                local_iters: 8,
                batch_size: 16,
                lr: 0.3,
                ..Default::default()
            },
            eval_topk: 1,
            eval_every: 1,
            eval_max_samples: 0,
            ..Default::default()
        };
        let algo = FedBiad::new(FedBiadConfig::paper(0.3, 12));
        let log = Experiment::new(&model, &fd, algo, cfg).run();
        let last = log.records.last().unwrap().test_acc;
        assert!(
            last > 0.85,
            "FedBIAD should learn the toy task, acc = {last}"
        );
        // Uplink strictly below FedAvg's full model.
        let full = model
            .init_params(&mut stream(1, StreamTag::Init, 0, 0))
            .total_bytes();
        assert!(log.mean_upload_bytes() < full);
    }

    #[test]
    fn fedbiad_with_identity_sketch_matches_plain() {
        use fedbiad_compress::none::NoCompression;
        let (model, global, data) = toy_setup();
        let plain = FedBiad::new(FedBiadConfig::paper(0.4, 10));
        let sketched = FedBiad::with_sketch(FedBiadConfig::paper(0.4, 10), Arc::new(NoCompression));
        let info = RoundInfo {
            round: 0,
            total_rounds: 10,
            seed: 9,
            agg: Default::default(),
        };
        let mut st_a = plain.init_client_state(0, &model, &global);
        let mut st_b = sketched.init_client_state(0, &model, &global);
        let a = plain.local_update(info, &(), 0, &mut st_a, &global, &data, &model, &cfg());
        let b = sketched.local_update(info, &(), 0, &mut st_b, &global, &data, &model, &cfg());
        // Identity compression reconstructs the masked weights up to the
        // f32 rounding of the delta round-trip (g + (u − g)).
        let server_side = |u: &Upload| {
            fedbiad_fl::aggregate::decode_dense(&global, u)
                .unwrap()
                .flatten()
        };
        for (x, y) in server_side(&a.upload).iter().zip(server_side(&b.upload)) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
        // The identity compressor sends the same kept values densely, so
        // the wire bytes match plain FedBIAD exactly (values + pattern).
        assert_eq!(b.upload.wire_bytes, a.upload.wire_bytes);
    }
}
