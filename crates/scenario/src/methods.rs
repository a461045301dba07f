//! Method registry: build + run any algorithm of Tables I/II against a
//! workload, optionally composed with a sketched compressor.

use fedbiad_compress::dgc::Dgc;
use fedbiad_compress::fedpaq::FedPaq;
use fedbiad_compress::signsgd::SignSgd;
use fedbiad_compress::stc::Stc;
use fedbiad_compress::Compressor;
use fedbiad_core::baselines::{Afd, FedAvg, FedDrop, FedMp, Fjord, HeteroFl};
use fedbiad_core::{FedBiad, FedBiadConfig};
use fedbiad_data::FedDataset;
use fedbiad_fl::runner::{Experiment, ExperimentConfig};
use fedbiad_fl::workload::WorkloadBundle;
use fedbiad_fl::{ExperimentLog, FlAlgorithm};
use fedbiad_nn::Model;
use std::sync::Arc;

/// Every method appearing in the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// FedAvg \[1\].
    FedAvg,
    /// FedDrop \[12\].
    FedDrop,
    /// AFD \[15\].
    Afd,
    /// FedMP \[27\].
    FedMp,
    /// FjORD \[14\].
    Fjord,
    /// HeteroFL \[43\].
    HeteroFl,
    /// FedBIAD (this paper).
    FedBiad,
    /// FedPAQ \[9\] (8-bit quantisation).
    FedPaq,
    /// signSGD \[11\] (1-bit).
    SignSgd,
    /// STC \[5\] (sparse ternary).
    Stc,
    /// DGC \[4\] (deep gradient compression).
    Dgc,
    /// AFD combined with DGC.
    AfdDgc,
    /// FjORD combined with DGC.
    FjordDgc,
    /// FedBIAD combined with DGC.
    FedBiadDgc,
}

impl Method {
    /// The fourteen registry entries: Table I's rows, then Table II's
    /// columns, each in the paper's order.
    pub const ALL: [Method; 14] = [
        Method::FedAvg,
        Method::FedDrop,
        Method::Afd,
        Method::FedMp,
        Method::Fjord,
        Method::HeteroFl,
        Method::FedBiad,
        Method::FedPaq,
        Method::SignSgd,
        Method::Stc,
        Method::Dgc,
        Method::AfdDgc,
        Method::FjordDgc,
        Method::FedBiadDgc,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Method::FedAvg => "FedAvg",
            Method::FedDrop => "FedDrop",
            Method::Afd => "AFD",
            Method::FedMp => "FedMP",
            Method::Fjord => "FjORD",
            Method::HeteroFl => "HeteroFL",
            Method::FedBiad => "FedBIAD",
            Method::FedPaq => "FedPAQ",
            Method::SignSgd => "SignSGD",
            Method::Stc => "STC",
            Method::Dgc => "DGC",
            Method::AfdDgc => "AFD+DGC",
            Method::FjordDgc => "Fjord+DGC",
            Method::FedBiadDgc => "FedBIAD+DGC",
        }
    }

    /// This registry entry as *(base algorithm, the compressor it
    /// embeds)*: the four pure sketches are FedAvg carrying one, the
    /// Table II combos their base carrying DGC.
    fn decompose(self) -> (Base, Option<CompressorChoice>) {
        use CompressorChoice as C;
        match self {
            Method::FedAvg => (Base::FedAvg, None),
            Method::FedDrop => (Base::FedDrop, None),
            Method::Afd => (Base::Afd, None),
            Method::FedMp => (Base::FedMp, None),
            Method::Fjord => (Base::Fjord, None),
            Method::HeteroFl => (Base::HeteroFl, None),
            Method::FedBiad => (Base::FedBiad, None),
            Method::FedPaq => (Base::FedAvg, Some(C::FedPaq)),
            Method::SignSgd => (Base::FedAvg, Some(C::SignSgd)),
            Method::Stc => (Base::FedAvg, Some(C::Stc)),
            Method::Dgc => (Base::FedAvg, Some(C::Dgc)),
            Method::AfdDgc => (Base::Afd, Some(C::Dgc)),
            Method::FjordDgc => (Base::Fjord, Some(C::Dgc)),
            Method::FedBiadDgc => (Base::FedBiad, Some(C::Dgc)),
        }
    }

    /// Does this registry entry already bundle a sketched compressor
    /// (Table II combos)? Such methods reject a further `compressor` axis.
    pub fn embeds_compressor(self) -> bool {
        self.decompose().1.is_some()
    }

    /// Does the dropout rate p reach this method's algorithm? FedAvg and
    /// the four pure sketches (FedAvg carrying one) take no rate, so a
    /// `dropout_rate` axis runs them once.
    pub fn uses_dropout_rate(self) -> bool {
        !matches!(self.decompose().0, Base::FedAvg)
    }

    /// Parse a CLI name (case-insensitive).
    ///
    /// ```
    /// use fedbiad_scenario::methods::Method;
    /// assert_eq!(Method::parse("fedbiad+dgc"), Some(Method::FedBiadDgc));
    /// assert_eq!(Method::parse("FedAvg"), Some(Method::FedAvg));
    /// assert_eq!(Method::parse("nope"), None);
    /// ```
    pub fn parse(s: &str) -> Option<Method> {
        let needle = s.to_ascii_lowercase().replace(['-', '_', '+'], "");
        Method::ALL
            .into_iter()
            .find(|m| m.name().to_ascii_lowercase().replace('+', "") == needle)
    }
}

/// The seven algorithms the fourteen registry entries are built from.
enum Base {
    FedAvg,
    FedDrop,
    Afd,
    FedMp,
    Fjord,
    HeteroFl,
    FedBiad,
}

/// A sketched compressor that a scenario can compose onto any *base*
/// method (one without an embedded compressor).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompressorChoice {
    /// Deep gradient compression (paper settings).
    Dgc,
    /// 1-bit sign compression with error feedback.
    SignSgd,
    /// 8-bit uniform quantisation.
    FedPaq,
    /// Sparse ternary compression.
    Stc,
}

impl CompressorChoice {
    /// Parse a spec/CLI name (case-insensitive); `None` for unknown names.
    pub fn parse(s: &str) -> Option<CompressorChoice> {
        match s.to_ascii_lowercase().as_str() {
            "dgc" => Some(CompressorChoice::Dgc),
            "signsgd" | "sign-sgd" => Some(CompressorChoice::SignSgd),
            "fedpaq" => Some(CompressorChoice::FedPaq),
            "stc" => Some(CompressorChoice::Stc),
            _ => None,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CompressorChoice::Dgc => "DGC",
            CompressorChoice::SignSgd => "SignSGD",
            CompressorChoice::FedPaq => "FedPAQ",
            CompressorChoice::Stc => "STC",
        }
    }

    /// Instantiate the compressor at its paper settings.
    pub fn build(self) -> Arc<dyn Compressor> {
        match self {
            CompressorChoice::Dgc => Arc::new(Dgc::paper()),
            CompressorChoice::SignSgd => Arc::new(SignSgd::default()),
            CompressorChoice::FedPaq => Arc::new(FedPaq::paper()),
            CompressorChoice::Stc => Arc::new(Stc::paper()),
        }
    }
}

/// The resolved options of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Global rounds R.
    pub rounds: usize,
    /// Stage boundary R_b for FedBIAD (paper: R−5).
    pub stage_boundary: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Evaluate every k rounds.
    pub eval_every: usize,
    /// Cap evaluated test samples (0 = all).
    pub eval_max_samples: usize,
    /// Client participation fraction κ (paper: 0.1).
    pub client_fraction: f32,
    /// Override the workload's dropout rate p (scenario `[fedbiad]`
    /// section); `None` keeps the per-dataset paper rate.
    pub dropout_override: Option<f32>,
    /// Override the workload's mini-batch size (scenario `[training]`
    /// section); `None` keeps the paper batch size. Batch-vs-sequential
    /// SGD genuinely differ here, so this is an explicit opt-in knob.
    pub batch_size: Option<usize>,
    /// Aggregation settings (scenario `[aggregation]` section).
    /// `shard_kb` is bit-transparent and never feeds the seed hash;
    /// `tree_fanin` changes the f32 association and does, as does a
    /// non-mean `robust` estimator.
    pub agg: fedbiad_fl::AggSettings,
    /// Explicit per-round cohort override (scenario `[population]`
    /// section); `None` derives ⌊κK⌋ from `client_fraction`.
    pub cohort: Option<usize>,
    /// Cohort sampler: `Shuffle` is the legacy O(K) permutation,
    /// `Sparse` the O(cohort) draw for million-client populations.
    pub sampler: fedbiad_fl::round::SamplerKind,
    /// Byzantine adversary model (scenario `[adversary]` section);
    /// `None` means every client is honest.
    pub adversary: Option<fedbiad_fl::AdversarySpec>,
    /// Client churn model (scenario `[churn]` section); `None` means
    /// every selected client completes its round.
    pub churn: Option<fedbiad_fl::ChurnSpec>,
}

impl RunOpts {
    /// Paper-style defaults for `rounds` (R_b = R − 5, κ = 0.1).
    pub fn for_rounds(rounds: usize, seed: u64) -> Self {
        Self {
            rounds,
            stage_boundary: rounds.saturating_sub(5).max(1),
            seed,
            eval_every: 1,
            eval_max_samples: 2_000,
            client_fraction: 0.1,
            dropout_override: None,
            batch_size: None,
            agg: fedbiad_fl::AggSettings::default(),
            cohort: None,
            sampler: fedbiad_fl::round::SamplerKind::Shuffle,
            adversary: None,
            churn: None,
        }
    }

    /// The experiment configuration these options mean on `bundle` — the
    /// workload's training config with the run's `[training]` overrides
    /// applied. Shared by the lock-step and simulator drivers.
    pub fn experiment_config(&self, bundle: &WorkloadBundle) -> ExperimentConfig {
        let mut train = bundle.train;
        if let Some(bs) = self.batch_size {
            train.batch_size = bs;
        }
        ExperimentConfig {
            rounds: self.rounds,
            client_fraction: self.client_fraction,
            seed: self.seed,
            train,
            eval_topk: bundle.eval_topk,
            eval_every: self.eval_every,
            eval_max_samples: self.eval_max_samples,
            agg: self.agg,
            cohort: self.cohort,
            sampler: self.sampler,
            adversary: self.adversary,
            churn: self.churn,
        }
    }
}

/// Run `method` on `bundle` and return the log.
pub fn run_method(method: Method, bundle: &WorkloadBundle, opts: RunOpts) -> ExperimentLog {
    run_method_composed(method, bundle, opts, None)
}

/// Run `method`, optionally composed with an `extra` sketched compressor
/// (only valid on base methods — Table II combos already embed theirs).
pub fn run_method_composed(
    method: Method,
    bundle: &WorkloadBundle,
    opts: RunOpts,
    extra: Option<CompressorChoice>,
) -> ExperimentLog {
    let p = opts.dropout_override.unwrap_or(bundle.dropout_rate);
    let driver = LockstepDriver {
        model: bundle.model.as_ref(),
        data: &bundle.data,
        cfg: opts.experiment_config(bundle),
    };
    with_algorithm(method, p, opts.stage_boundary, extra, driver)
}

struct LockstepDriver<'a> {
    model: &'a dyn Model,
    data: &'a FedDataset,
    cfg: ExperimentConfig,
}

impl AlgorithmVisitor for LockstepDriver<'_> {
    type Out = ExperimentLog;

    fn visit<A: FlAlgorithm>(self, algo: A) -> ExperimentLog {
        Experiment::new(self.model, self.data, algo, self.cfg).run()
    }
}

/// A generic consumer of a constructed algorithm. The registry method →
/// algorithm mapping lives in **one** place ([`with_algorithm`]); the
/// lock-step driver (here) and the simulator driver (`simrun`) each
/// implement this trait to receive the concrete `FlAlgorithm` type and
/// run it — so the two drivers can never diverge on construction.
pub trait AlgorithmVisitor {
    /// What driving the algorithm produces.
    type Out;

    /// Consume the constructed algorithm.
    fn visit<A: FlAlgorithm>(self, algo: A) -> Self::Out;
}

/// Construct the algorithm for `method` — at dropout rate `p`, FedBIAD
/// stage boundary `stage_boundary`, optionally composed with an `extra`
/// sketch — and hand it to `visitor`.
pub fn with_algorithm<V: AlgorithmVisitor>(
    method: Method,
    p: f32,
    stage_boundary: usize,
    extra: Option<CompressorChoice>,
    visitor: V,
) -> V::Out {
    let (base, embedded) = method.decompose();
    assert!(
        extra.is_none() || embedded.is_none(),
        "method {} already embeds a compressor",
        method.name()
    );
    let v = visitor;
    let sketch = embedded.or(extra).map(CompressorChoice::build);
    match base {
        Base::FedAvg => v.visit(sketch.map_or_else(FedAvg::new, FedAvg::with_sketch)),
        Base::FedDrop => v.visit(FedDrop::new(p).with_sketch(sketch)),
        Base::Afd => v.visit(Afd::new(p).with_sketch(sketch)),
        Base::FedMp => v.visit(FedMp::new(p).with_sketch(sketch)),
        Base::Fjord => v.visit(Fjord::new(p).with_sketch(sketch)),
        Base::HeteroFl => v.visit(HeteroFl::new(p).with_sketch(sketch)),
        Base::FedBiad => {
            let fb = FedBiadConfig::paper(p, stage_boundary);
            v.visit(match sketch {
                None => FedBiad::new(fb),
                Some(c) => FedBiad::with_sketch(fb, c),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_fl::workload::{build, Scale, Workload};

    #[test]
    fn parse_round_trips_names() {
        for m in Method::ALL {
            assert_eq!(Method::parse(m.name()), Some(m), "{}", m.name());
        }
        assert_eq!(Method::parse("fedbiad+dgc"), Some(Method::FedBiadDgc));
        assert_eq!(Method::parse("nope"), None);
    }

    #[test]
    fn run_opts_sets_paper_stage_boundary() {
        let o = RunOpts::for_rounds(60, 1);
        assert_eq!(o.stage_boundary, 55);
        let tiny = RunOpts::for_rounds(3, 1);
        assert!(tiny.stage_boundary >= 1);
    }

    #[test]
    fn compressor_choice_parses_and_builds() {
        for (name, c) in [
            ("dgc", CompressorChoice::Dgc),
            ("SignSGD", CompressorChoice::SignSgd),
            ("fedpaq", CompressorChoice::FedPaq),
            ("stc", CompressorChoice::Stc),
        ] {
            assert_eq!(CompressorChoice::parse(name), Some(c));
            let _ = c.build(); // constructible at paper settings
        }
        assert_eq!(CompressorChoice::parse("none"), None);
        assert!(Method::Dgc.embeds_compressor());
        assert!(!Method::FedBiad.embeds_compressor());
    }

    #[test]
    fn composed_method_compresses_uploads() {
        // FedDrop+STC was previously unreachable through the registry:
        // composition must shrink the wire bytes below the plain method's.
        let bundle = build(Workload::MnistLike, Scale::Smoke, 3);
        let opts = RunOpts::for_rounds(2, 3);
        let plain = run_method(Method::FedDrop, &bundle, opts);
        let sketched =
            run_method_composed(Method::FedDrop, &bundle, opts, Some(CompressorChoice::Stc));
        assert!(sketched.mean_upload_bytes() < plain.mean_upload_bytes());
    }

    struct NameOf;

    impl AlgorithmVisitor for NameOf {
        type Out = String;

        fn visit<A: FlAlgorithm>(self, algo: A) -> String {
            algo.name()
        }
    }

    #[test]
    fn every_registry_entry_builds_the_algorithm_its_name_says() {
        use CompressorChoice as C;
        let table = [
            (Method::FedAvg, None, "fedavg"),
            (Method::FedDrop, None, "feddrop"),
            (Method::Afd, None, "afd"),
            (Method::FedMp, None, "fedmp"),
            (Method::Fjord, None, "fjord"),
            (Method::HeteroFl, None, "heterofl"),
            (Method::FedBiad, None, "fedbiad"),
            (Method::FedPaq, None, "fedpaq"),
            (Method::SignSgd, None, "signsgd"),
            (Method::Stc, None, "stc"),
            (Method::Dgc, None, "dgc"),
            (Method::AfdDgc, None, "afd+dgc"),
            (Method::FjordDgc, None, "fjord+dgc"),
            (Method::FedBiadDgc, None, "fedbiad+dgc"),
            (Method::HeteroFl, Some(C::Stc), "heterofl+stc"),
            (Method::FedAvg, Some(C::SignSgd), "signsgd"),
        ];
        for (method, extra, name) in table {
            assert_eq!(with_algorithm(method, 0.5, 3, extra, NameOf), name);
        }
        // Table I is the bases, Table II the entries that embed a sketch;
        // FedAvg and the pure sketches are the five that take no rate.
        let (table1, table2) = Method::ALL.split_at(7);
        assert!(!table1.iter().any(|m| m.embeds_compressor()));
        assert!(table2.iter().all(|m| m.embeds_compressor()));
        let rate_free: Vec<Method> = Method::ALL
            .into_iter()
            .filter(|m| !m.uses_dropout_rate())
            .collect();
        assert_eq!(
            rate_free,
            [
                Method::FedAvg,
                Method::FedPaq,
                Method::SignSgd,
                Method::Stc,
                Method::Dgc
            ]
        );
    }

    /// The deterministic fields of a log, as bits.
    fn log_bits(log: &ExperimentLog) -> Vec<(String, u32, u64, u64, u64, u64)> {
        log.records
            .iter()
            .map(|r| {
                (
                    log.method.clone(),
                    r.train_loss.to_bits(),
                    r.test_loss.to_bits(),
                    r.test_acc.to_bits(),
                    r.upload_bytes_mean,
                    r.upload_bytes_max,
                )
            })
            .collect()
    }

    #[test]
    fn a_combo_entry_is_its_base_composed_with_the_embedded_compressor() {
        let bundle = build(Workload::MnistLike, Scale::Smoke, 3);
        let opts = RunOpts::for_rounds(2, 3);
        for (combo, base) in [
            (Method::Dgc, Method::FedAvg),
            (Method::FedBiadDgc, Method::FedBiad),
        ] {
            let embedded = run_method(combo, &bundle, opts);
            let composed = run_method_composed(base, &bundle, opts, Some(CompressorChoice::Dgc));
            assert_eq!(log_bits(&embedded), log_bits(&composed), "{}", combo.name());
        }
    }

    #[test]
    fn batch_size_override_reaches_local_training() {
        let bundle = build(Workload::MnistLike, Scale::Smoke, 3);
        let mut opts = RunOpts::for_rounds(1, 3);
        let base = run_method(Method::FedAvg, &bundle, opts);
        opts.batch_size = Some(4);
        let small = run_method(Method::FedAvg, &bundle, opts);
        // A different batch size draws different mini-batches, so the
        // training loss must move; identical logs would mean the knob
        // never reached TrainConfig.
        assert_ne!(
            base.records[0].train_loss.to_bits(),
            small.records[0].train_loss.to_bits()
        );
        // And the default (None) reproduces the paper configuration.
        let again = run_method(Method::FedAvg, &bundle, RunOpts::for_rounds(1, 3));
        assert_eq!(
            base.records[0].train_loss.to_bits(),
            again.records[0].train_loss.to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "already embeds a compressor")]
    fn composing_onto_combo_method_panics() {
        let bundle = build(Workload::MnistLike, Scale::Smoke, 3);
        let opts = RunOpts::for_rounds(1, 3);
        let _ = run_method_composed(Method::Dgc, &bundle, opts, Some(CompressorChoice::Stc));
    }
}
