//! The declarative scenario schema: parsing + validation.
//!
//! A [`ScenarioSpec`] is the typed form of a TOML (or JSON) scenario
//! file. Decoding is strict: unknown fields are rejected with the list
//! of expected ones, numeric fields are range-checked, and every name
//! (workload, method, compressor, policy, profile) is resolved against
//! the registries at load time — a typo fails before any training
//! happens, with an error naming the valid alternatives.
//!
//! See `scenarios/README.md` at the repository root for the field-by-field
//! schema reference.

use crate::methods::{CompressorChoice, Method};
use crate::simrun::PolicyChoice;
use crate::toml::parse_toml;
use fedbiad_data::partition::ImagePartition;
use fedbiad_fl::workload::{Scale, Workload};
use fedbiad_fl::NetworkModel;
use fedbiad_sim::HeterogeneityProfile;
use serde::Value;
use std::path::Path;

/// A scenario-spec loading/validation failure; `Display` is the full
/// actionable message.
#[derive(Clone, Debug)]
pub struct SpecError {
    msg: String,
}

impl SpecError {
    fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for SpecError {}

/// Which round-loop driver executes the runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The lock-step runner (`Experiment::run`): wall-clock timing, no
    /// link/heterogeneity model.
    Lockstep,
    /// The discrete-event simulator: virtual clock, per-client links,
    /// server policies.
    Sim,
}

impl Mode {
    /// Canonical spec name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Lockstep => "lockstep",
            Mode::Sim => "sim",
        }
    }
}

/// How per-run seeds are assigned during grid expansion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeedMode {
    /// Every run uses the base seed (the legacy-binary convention: all
    /// methods see identical data and client sampling, so curves are
    /// directly comparable). Replicate r > 0 gets a seed derived from
    /// the replicate index alone, so it stays paired across every grid
    /// cell — methods remain comparable within each replicate.
    Shared,
    /// Every run gets a distinct seed derived from the spec hash and the
    /// run's grid index via `StreamTag::Scenario`.
    PerRun,
}

/// A heterogeneity-profile axis value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProfileChoice {
    /// Identical clients; link taken from `[network]` (default: the
    /// paper's 5G profile).
    Homogeneous,
    /// Mixed 5G/LTE/Wi-Fi cohort with log-uniform compute spread.
    Mixed,
    /// 30 % of clients 15× slower on compute.
    Stragglers,
}

impl ProfileChoice {
    /// Parse a spec name.
    pub fn parse(s: &str) -> Option<ProfileChoice> {
        match s.to_ascii_lowercase().as_str() {
            "homogeneous" | "homog" => Some(ProfileChoice::Homogeneous),
            "mixed" | "mixed-mobile" => Some(ProfileChoice::Mixed),
            "stragglers" | "straggler" => Some(ProfileChoice::Stragglers),
            _ => None,
        }
    }

    /// Canonical spec name.
    pub fn name(self) -> &'static str {
        match self {
            ProfileChoice::Homogeneous => "homogeneous",
            ProfileChoice::Mixed => "mixed",
            ProfileChoice::Stragglers => "stragglers",
        }
    }

    /// Resolve to the simulator's profile; `net` is the `[network]`
    /// override and applies to the homogeneous profile only.
    pub fn resolve(self, net: Option<NetworkModel>) -> HeterogeneityProfile {
        match self {
            ProfileChoice::Homogeneous => HeterogeneityProfile::Homogeneous {
                net: net.unwrap_or_else(NetworkModel::t_mobile_5g),
            },
            ProfileChoice::Mixed => HeterogeneityProfile::MixedMobile {
                compute_spread: 6.0,
                jitter: 0.1,
            },
            ProfileChoice::Stragglers => HeterogeneityProfile::Stragglers {
                fraction: 0.3,
                slowdown: 15.0,
                jitter: 0.1,
            },
        }
    }
}

/// The `[run]` section: shared execution knobs.
#[derive(Clone, Copy, Debug)]
pub struct RunSection {
    /// Global rounds R.
    pub rounds: usize,
    /// Base experiment seed.
    pub seed: u64,
    /// Per-run seed policy.
    pub seed_mode: SeedMode,
    /// Workload scale.
    pub scale: Scale,
    /// Evaluate every k rounds.
    pub eval_every: usize,
    /// Cap on evaluated test samples (0 = all).
    pub eval_max: usize,
    /// Client participation fraction κ.
    pub fraction: f32,
    /// Independent repetitions of every grid cell.
    pub replicates: usize,
}

impl Default for RunSection {
    fn default() -> Self {
        Self {
            rounds: 10,
            seed: 42,
            seed_mode: SeedMode::Shared,
            scale: Scale::Lab,
            eval_every: 1,
            eval_max: 2_000,
            fraction: 0.1,
            replicates: 1,
        }
    }
}

/// The `[sweep]` section: the grid axes. Every axis accepts a single
/// string or an array of strings in the spec file.
#[derive(Clone, Debug)]
pub struct SweepSection {
    /// Dataset/model pairs.
    pub workloads: Vec<Workload>,
    /// Registry methods.
    pub methods: Vec<Method>,
    /// Extra sketched compressors (`None` = the method as-is).
    pub compressors: Vec<Option<CompressorChoice>>,
    /// Server policies (sim mode only).
    pub policies: Vec<PolicyChoice>,
    /// Heterogeneity profiles (sim mode only).
    pub profiles: Vec<ProfileChoice>,
}

/// The `[fedbiad]` section: method hyper-parameter overrides.
#[derive(Clone, Debug, Default)]
pub struct FedBiadSection {
    /// Stage boundary R_b (default: R − 5).
    pub stage_boundary: Option<usize>,
    /// Dropout rates p (`dropout_rate`, a number or an array of them);
    /// empty keeps the workload's paper rate. Two or more make a grid
    /// axis after `method` that the methods taking no rate skip.
    pub dropout_rates: Vec<f32>,
}

/// The `[aggregation]` section: how the server reduces a cohort.
///
/// There is one route — clients put encoded bytes on the wire and the
/// server streams them shard by shard — so nothing here selects an
/// engine. `shard_kb` sets the shard size; it is **bit-transparent**
/// (`tests/aggregation_equivalence.rs`), so — unlike `[training]` — it
/// deliberately does *not* feed the canonical seed hash: changing it can
/// never change results, only speed and memory.
///
/// `tree_fanin` layers a hierarchical reduction over the weighted-mean
/// path. It changes the f32 summation *association*, so it is **not**
/// bit-identical — and therefore *does* feed the canonical seed hash
/// when set, like `[training] batch_size`.
///
/// The retired key `streaming` is still *recognised*, because specs in
/// the wild carry it: `true` is a no-op, `false` is rejected (the dense
/// engine it used to select is a test oracle, not a route).
#[derive(Clone, Copy, Debug, Default)]
pub struct AggregationSection {
    /// Shard size in KiB (default 64).
    pub shard_kb: Option<u32>,
    /// Tree-reduction fan-in ≥ 2 (omitted = the serial reducer). Only
    /// the weighted-mean path has a tree, so it cannot be combined with
    /// an order-statistic `robust` estimator.
    pub tree_fanin: Option<u32>,
    /// Robust estimator: `"mean"` (default), `"trimmed_mean"`,
    /// `"coordinate_median"`, or `"norm_clip"`. Robust estimators change
    /// results, so a non-mean selection **does** feed the canonical seed
    /// hash.
    pub robust: Option<RobustChoice>,
    /// Per-tail trim fraction for `robust = "trimmed_mean"` (default 0.1;
    /// must lie in `[0, 0.5)`).
    pub trim_frac: Option<f32>,
    /// Clip radius for `robust = "norm_clip"` (must be finite and > 0).
    pub tau: Option<f32>,
}

/// The `[aggregation] robust` estimator axis values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RobustChoice {
    /// The historical weighted mean (the default; bit-identical to specs
    /// written before the knob existed).
    Mean,
    /// Per-coordinate trimmed mean (knob: `trim_frac`).
    TrimmedMean,
    /// Per-coordinate weighted lower median.
    CoordinateMedian,
    /// Per-upload update-norm clipping before the plain mean (knob: `tau`).
    NormClip,
}

impl RobustChoice {
    /// The spec-file spelling.
    pub fn name(self) -> &'static str {
        match self {
            RobustChoice::Mean => "mean",
            RobustChoice::TrimmedMean => "trimmed_mean",
            RobustChoice::CoordinateMedian => "coordinate_median",
            RobustChoice::NormClip => "norm_clip",
        }
    }
}

impl AggregationSection {
    /// Resolve to the runner's aggregation settings.
    pub fn resolve(&self) -> fedbiad_fl::AggSettings {
        fedbiad_fl::AggSettings {
            shard_kb: self.shard_kb.unwrap_or(64),
            tree_fanin: self.tree_fanin.unwrap_or(0),
            robust: self.robust_kind(),
        }
    }

    /// The resolved robust-estimator selection (`Mean` when unset).
    pub fn robust_kind(&self) -> fedbiad_fl::RobustKind {
        match self.robust {
            None | Some(RobustChoice::Mean) => fedbiad_fl::RobustKind::Mean,
            Some(RobustChoice::TrimmedMean) => fedbiad_fl::RobustKind::TrimmedMean {
                trim_frac: self.trim_frac.unwrap_or(0.1),
            },
            Some(RobustChoice::CoordinateMedian) => fedbiad_fl::RobustKind::CoordinateMedian,
            Some(RobustChoice::NormClip) => fedbiad_fl::RobustKind::NormClip {
                tau: self.tau.unwrap_or(1.0),
            },
        }
    }
}

/// The `[population]` section: replace the workload scale's registered
/// population with a lazily materialised one (image workloads only).
///
/// Client shards and heterogeneity profiles derive on demand from the
/// seed, and cohorts are drawn with the O(cohort) sparse sampler, so a
/// spec can register 10⁶ clients while the process holds only the active
/// cohort. Changing any field changes the data every client sees, so the
/// whole section feeds the canonical seed hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PopulationSection {
    /// Registered clients K.
    pub clients: usize,
    /// Per-round cohort override (default: ⌊κK⌋ from `[run] fraction`).
    pub cohort: Option<usize>,
    /// Samples per client shard (default 60 — the paper's 60k/1000
    /// per-client scarcity).
    pub samples_per_client: usize,
}

/// The `[training]` section: local-training overrides applied on top of
/// the workload's paper hyper-parameters.
///
/// Batched and sequential SGD genuinely differ once the batch size moves
/// (a different number of gradient terms is averaged per step), so the
/// batch size is an **explicit opt-in knob** — omitted, every workload
/// trains at its paper batch size and reproduces the per-sample
/// reference bit for bit.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrainingSection {
    /// Mini-batch size override (images: samples; text: windows).
    pub batch_size: Option<usize>,
}

/// A fully validated scenario specification.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// Short identifier (output directory name).
    pub name: String,
    /// Which driver executes the runs.
    pub mode: Mode,
    /// Shared execution knobs.
    pub run: RunSection,
    /// The grid axes.
    pub sweep: SweepSection,
    /// Image-partitioner override (`[partition]`).
    pub partition: Option<ImagePartition>,
    /// Homogeneous-link override (`[network]`, sim mode).
    pub network: Option<NetworkModel>,
    /// FedBIAD hyper-parameter overrides.
    pub fedbiad: FedBiadSection,
    /// Local-training overrides (`[training]`).
    pub training: TrainingSection,
    /// Aggregation-engine selection (`[aggregation]`).
    pub aggregation: AggregationSection,
    /// Lazy registered-population override (`[population]`).
    pub population: Option<PopulationSection>,
    /// Byzantine adversary model (`[adversary]`): a static fraction of
    /// the population corrupts its uploads every round.
    pub adversary: Option<fedbiad_fl::AdversarySpec>,
    /// Client churn model (`[churn]`): per-round offline and mid-round
    /// dropout probabilities.
    pub churn: Option<fedbiad_fl::ChurnSpec>,
    /// TTA target-accuracy override (`[sim] target_acc`).
    pub target_acc: Option<f64>,
}

/// CLI-flag overrides the `scenario` binary maps onto a loaded spec
/// (`scenario scenarios/fig2.toml --rounds 5 --scale smoke`).
#[derive(Clone, Debug, Default)]
pub struct Overrides {
    /// `--rounds`.
    pub rounds: Option<usize>,
    /// `--seed`.
    pub seed: Option<u64>,
    /// `--scale`.
    pub scale: Option<Scale>,
    /// `--eval-max`.
    pub eval_max: Option<usize>,
    /// `--fraction`.
    pub fraction: Option<f32>,
    /// `--workloads`.
    pub workloads: Option<Vec<Workload>>,
    /// `--methods`.
    pub methods: Option<Vec<Method>>,
    /// `--policies`.
    pub policies: Option<Vec<PolicyChoice>>,
    /// `--profiles`.
    pub profiles: Option<Vec<ProfileChoice>>,
    /// `--target`.
    pub target: Option<f64>,
}

const KNOWN_WORKLOADS: &str = "mnist, fmnist, ptb, wikitext2, reddit";

impl ScenarioSpec {
    /// Parse + validate a TOML spec.
    pub fn from_toml_str(text: &str) -> Result<ScenarioSpec, SpecError> {
        let value = parse_toml(text).map_err(|e| SpecError::new(e.to_string()))?;
        Self::from_value(&value)
    }

    /// Parse + validate a JSON spec (same schema as TOML).
    pub fn from_json_str(text: &str) -> Result<ScenarioSpec, SpecError> {
        let value = serde_json::parse_value_str(text)
            .map_err(|e| SpecError::new(format!("JSON parse error: {e}")))?;
        Self::from_value(&value)
    }

    /// Load a spec from disk, dispatching on the `.toml`/`.json`
    /// extension (default: TOML).
    pub fn from_path(path: &Path) -> Result<ScenarioSpec, SpecError> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            SpecError::new(format!(
                "cannot read scenario spec `{}`: {e}",
                path.display()
            ))
        })?;
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => Self::from_json_str(&text),
            _ => Self::from_toml_str(&text),
        }
    }

    /// Decode + validate from a parsed value tree.
    pub fn from_value(v: &Value) -> Result<ScenarioSpec, SpecError> {
        let root = v
            .as_object()
            .ok_or_else(|| SpecError::new("scenario spec must be a table/object at top level"))?;
        check_fields(
            root,
            "top level",
            &[
                "name",
                "mode",
                "run",
                "sweep",
                "partition",
                "network",
                "fedbiad",
                "training",
                "aggregation",
                "population",
                "adversary",
                "churn",
                "sim",
            ],
        )?;

        let name = match get(root, "name") {
            Some(v) => str_of(v, "top level", "name")?,
            None => {
                return Err(SpecError::new(
                    "missing required field `name` (a short scenario identifier)",
                ))
            }
        };
        let mode = match get(root, "mode") {
            None => Mode::Lockstep,
            Some(v) => match str_of(v, "top level", "mode")?.as_str() {
                "lockstep" => Mode::Lockstep,
                "sim" => Mode::Sim,
                other => {
                    return Err(SpecError::new(format!(
                        "unknown mode `{other}`; expected \"lockstep\" or \"sim\""
                    )))
                }
            },
        };

        let run = decode_run(get(root, "run"))?;
        let sweep = decode_sweep(get(root, "sweep"), mode)?;
        let partition = match get(root, "partition") {
            None => None,
            Some(v) => Some(decode_partition(v)?),
        };
        let network = match get(root, "network") {
            None => None,
            Some(v) => Some(decode_network(v)?),
        };
        let fedbiad = decode_fedbiad(get(root, "fedbiad"))?;
        let training = decode_training(get(root, "training"))?;
        let aggregation = decode_aggregation(get(root, "aggregation"))?;
        let population = match get(root, "population") {
            None => None,
            Some(v) => Some(decode_population(v)?),
        };
        let adversary = match get(root, "adversary") {
            None => None,
            Some(v) => Some(decode_adversary(v)?),
        };
        let churn = match get(root, "churn") {
            None => None,
            Some(v) => Some(decode_churn(v)?),
        };
        let target_acc = match get(root, "sim") {
            None => None,
            Some(v) => decode_sim(v)?,
        };
        if mode == Mode::Lockstep && get(root, "sim").is_some() {
            return Err(SpecError::new(
                "[sim] requires mode = \"sim\"; the lock-step runner has no virtual clock",
            ));
        }

        let spec = ScenarioSpec {
            name,
            mode,
            run,
            sweep,
            partition,
            network,
            fedbiad,
            training,
            aggregation,
            population,
            adversary,
            churn,
            target_acc,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Apply CLI-flag overrides (thin-wrapper binaries). Re-validates, so
    /// an override cannot smuggle an inconsistent combination past the
    /// spec checks — including sim-only overrides on a lock-step spec,
    /// which would otherwise be silently discarded by grid expansion.
    pub fn apply_overrides(&mut self, ov: &Overrides) -> Result<(), SpecError> {
        if self.mode == Mode::Lockstep {
            if ov.policies.is_some() || ov.profiles.is_some() {
                return Err(SpecError::new(
                    "--policies/--profiles require mode = \"sim\" (this spec runs the \
                     lock-step runner)",
                ));
            }
            if ov.target.is_some() {
                return Err(SpecError::new(
                    "--target requires mode = \"sim\"; the lock-step runner has no \
                     virtual clock",
                ));
            }
        }
        if let Some(r) = ov.rounds {
            self.run.rounds = r;
        }
        if let Some(s) = ov.seed {
            self.run.seed = s;
        }
        if let Some(s) = ov.scale {
            self.run.scale = s;
        }
        if let Some(e) = ov.eval_max {
            self.run.eval_max = e;
        }
        if let Some(f) = ov.fraction {
            self.run.fraction = f;
        }
        if let Some(w) = &ov.workloads {
            self.sweep.workloads = w.clone();
        }
        if let Some(m) = &ov.methods {
            self.sweep.methods = m.clone();
        }
        if let Some(p) = &ov.policies {
            self.sweep.policies = p.clone();
        }
        if let Some(p) = &ov.profiles {
            self.sweep.profiles = p.clone();
        }
        if let Some(t) = ov.target {
            self.target_acc = Some(t);
        }
        self.validate()
    }

    /// Cross-field consistency checks (also re-run after overrides and
    /// before expansion).
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.run.rounds == 0 {
            return Err(SpecError::new(
                "[run] rounds must be a positive integer, got 0",
            ));
        }
        if !(self.run.fraction > 0.0 && self.run.fraction <= 1.0) {
            return Err(SpecError::new(format!(
                "[run] fraction = {} is out of range; the client participation fraction must \
                 be in (0, 1]",
                self.run.fraction
            )));
        }
        for axis in [
            ("workload", self.sweep.workloads.is_empty()),
            ("method", self.sweep.methods.is_empty()),
            ("compressor", self.sweep.compressors.is_empty()),
        ] {
            if axis.1 {
                return Err(SpecError::new(format!(
                    "sweep axis `{}` is empty; list at least one value or omit the field",
                    axis.0
                )));
            }
        }
        if self.mode == Mode::Sim
            && (self.sweep.policies.is_empty() || self.sweep.profiles.is_empty())
        {
            let axis = if self.sweep.policies.is_empty() {
                "policy"
            } else {
                "profile"
            };
            return Err(SpecError::new(format!(
                "sweep axis `{axis}` is empty; list at least one value or omit the field"
            )));
        }
        for c in self.sweep.compressors.iter().flatten() {
            for m in &self.sweep.methods {
                if m.embeds_compressor() {
                    return Err(SpecError::new(format!(
                        "compressor `{}` cannot compose with method `{}`: it already embeds a \
                         compressor (drop the compressor axis or use the base method)",
                        c.name(),
                        m.name()
                    )));
                }
            }
        }
        if self.network.is_some() {
            if self.mode != Mode::Sim {
                return Err(SpecError::new(
                    "[network] requires mode = \"sim\"; the lock-step runner does not model links",
                ));
            }
            if let Some(p) = self
                .sweep
                .profiles
                .iter()
                .find(|p| **p != ProfileChoice::Homogeneous)
            {
                return Err(SpecError::new(format!(
                    "[network] applies only to the homogeneous profile; remove it or drop \
                     `{}` from the profile axis",
                    p.name()
                )));
            }
        }
        if self.partition.is_some() {
            if let Some(w) = self.sweep.workloads.iter().find(|w| w.is_text()) {
                return Err(SpecError::new(format!(
                    "[partition] applies to image workloads only; `{}` is a text workload",
                    w.name()
                )));
            }
        }
        if let Some(t) = self.target_acc {
            if !(t > 0.0 && t <= 1.0) {
                return Err(SpecError::new(format!(
                    "[sim] target_acc = {t} is out of range; the target accuracy must be in (0, 1]"
                )));
            }
        }
        if let Some(pop) = self.population {
            if let Some(w) = self.sweep.workloads.iter().find(|w| w.is_text()) {
                return Err(SpecError::new(format!(
                    "[population] applies to image workloads only; `{}` is a text workload \
                     (its partitioning is part of the data model)",
                    w.name()
                )));
            }
            if self.partition.is_some() {
                return Err(SpecError::new(
                    "[population] and [partition] are mutually exclusive: the lazy population \
                     derives balanced per-client shards and never materialises the pool the \
                     partitioner would split",
                ));
            }
            if let Some(c) = pop.cohort {
                if c == 0 || c > pop.clients {
                    return Err(SpecError::new(format!(
                        "[population] cohort = {c} is out of range; the cohort must be in \
                         [1, clients = {}]",
                        pop.clients
                    )));
                }
            }
        }
        for &p in &self.fedbiad.dropout_rates {
            if !(p > 0.0 && p < 1.0) {
                return Err(SpecError::new(format!(
                    "[fedbiad] dropout_rate = {p} is out of range; the dropout rate must be \
                     in (0, 1)"
                )));
            }
        }
        Ok(())
    }

    /// A canonical, field-order-stable string of everything that defines
    /// the grid — the input to the per-run seed hash. Changing any knob
    /// changes every derived seed; formatting of the spec file does not.
    ///
    /// Sections added after the format was frozen (`[training]`) only
    /// append when actually set, so specs that do not use them keep the
    /// exact derived seeds they had before the section existed.
    pub fn canonical_string(&self) -> String {
        let names = |v: &[String]| v.join(",");
        // A single rate prints as the `Option` it was before arrays were
        // accepted, so scalar specs keep their derived seeds.
        let (sb, rates) = (self.fedbiad.stage_boundary, &self.fedbiad.dropout_rates);
        let fedbiad = match rates.len() {
            0 | 1 => format!("{:?}", (sb, rates.first())),
            _ => format!("{:?}", (sb, rates)),
        };
        let mut s = format!(
            "name={};mode={};rounds={};seed={};seed_mode={:?};scale={:?};eval_every={};\
             eval_max={};fraction={};replicates={};workloads=[{}];methods=[{}];\
             compressors=[{}];policies=[{}];profiles=[{}];partition={:?};network={:?};\
             fedbiad={};target={:?}",
            self.name,
            self.mode.name(),
            self.run.rounds,
            self.run.seed,
            self.run.seed_mode,
            self.run.scale,
            self.run.eval_every,
            self.run.eval_max,
            self.run.fraction,
            self.run.replicates,
            names(
                &self
                    .sweep
                    .workloads
                    .iter()
                    .map(|w| w.name().to_string())
                    .collect::<Vec<_>>()
            ),
            names(
                &self
                    .sweep
                    .methods
                    .iter()
                    .map(|m| m.name().to_string())
                    .collect::<Vec<_>>()
            ),
            names(
                &self
                    .sweep
                    .compressors
                    .iter()
                    .map(|c| c.map(|c| c.name()).unwrap_or("none").to_string())
                    .collect::<Vec<_>>()
            ),
            names(
                &self
                    .sweep
                    .policies
                    .iter()
                    .map(|p| p.name().to_string())
                    .collect::<Vec<_>>()
            ),
            names(
                &self
                    .sweep
                    .profiles
                    .iter()
                    .map(|p| p.name().to_string())
                    .collect::<Vec<_>>()
            ),
            self.partition,
            self.network
                .map(|n| (n.uplink_mbps, n.downlink_mbps, n.rtt_seconds)),
            fedbiad,
            self.target_acc,
        );
        if let Some(bs) = self.training.batch_size {
            s.push_str(&format!(";training={bs}"));
        }
        // Appended only when set (same append-only precedent as
        // [training]): a lazy population changes every client's data, and
        // a tree fan-in changes the f32 summation association, so both
        // must move the derived seeds — but specs without them keep the
        // seeds they had before the knobs existed.
        if let Some(pop) = self.population {
            s.push_str(&format!(
                ";population={},{:?},{}",
                pop.clients, pop.cohort, pop.samples_per_client
            ));
        }
        if let Some(fanin) = self.aggregation.tree_fanin {
            s.push_str(&format!(";tree_fanin={fanin}"));
        }
        // Robust estimators change results (unlike shard_kb), so
        // a non-mean selection feeds the seed hash. `Mean` — implicit or
        // an explicit `robust = "mean"` — appends nothing, preserving
        // every pre-existing derived seed.
        match self.aggregation.robust_kind() {
            fedbiad_fl::RobustKind::Mean => {}
            k => s.push_str(&format!(";robust={k:?}")),
        }
        // Both models change which uploads reach aggregation (and what
        // they contain), so they feed the seed hash whenever present;
        // specs without the sections keep their pre-existing seeds.
        if let Some(adv) = self.adversary {
            s.push_str(&format!(";adversary={},{:?}", adv.fraction, adv.mode));
        }
        if let Some(ch) = self.churn {
            s.push_str(&format!(";churn={},{}", ch.offline, ch.dropout));
        }
        s
    }
}

// ---- decoding helpers ----

fn get<'v>(pairs: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn check_fields(
    pairs: &[(String, Value)],
    section: &str,
    allowed: &[&str],
) -> Result<(), SpecError> {
    for (k, _) in pairs {
        if !allowed.contains(&k.as_str()) {
            let place = if section == "top level" {
                "at top level".to_string()
            } else {
                format!("in [{section}]")
            };
            return Err(SpecError::new(format!(
                "unknown field `{k}` {place}; expected one of: {}",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn table_of<'v>(v: &'v Value, section: &str) -> Result<&'v [(String, Value)], SpecError> {
    v.as_object()
        .map(|o| o.as_slice())
        .ok_or_else(|| SpecError::new(format!("[{section}] must be a table")))
}

fn str_of(v: &Value, section: &str, key: &str) -> Result<String, SpecError> {
    v.as_str().map(|s| s.to_string()).ok_or_else(|| {
        SpecError::new(if section == "top level" {
            format!("`{key}` must be a string")
        } else {
            format!("[{section}] {key} must be a string")
        })
    })
}

fn usize_of(v: &Value, section: &str, key: &str, min: usize) -> Result<usize, SpecError> {
    let bad = || {
        SpecError::new(format!(
            "[{section}] {key} must be {} integer",
            if min == 0 {
                "a non-negative"
            } else {
                "a positive"
            }
        ))
    };
    let n: i64 = match v {
        Value::Int(i) => *i,
        Value::UInt(u) => i64::try_from(*u).map_err(|_| bad())?,
        _ => return Err(bad()),
    };
    if n < min as i64 {
        return Err(SpecError::new(format!(
            "[{section}] {key} must be {} integer, got {n}",
            if min == 0 {
                "a non-negative"
            } else {
                "a positive"
            }
        )));
    }
    Ok(n as usize)
}

fn u64_of(v: &Value, section: &str, key: &str) -> Result<u64, SpecError> {
    match v {
        Value::Int(i) if *i >= 0 => Ok(*i as u64),
        Value::UInt(u) => Ok(*u),
        _ => Err(SpecError::new(format!(
            "[{section}] {key} must be a non-negative integer"
        ))),
    }
}

fn f64_of(v: &Value, section: &str, key: &str) -> Result<f64, SpecError> {
    match v {
        Value::Float(f) => Ok(*f),
        Value::Int(i) => Ok(*i as f64),
        Value::UInt(u) => Ok(*u as f64),
        _ => Err(SpecError::new(format!(
            "[{section}] {key} must be a number"
        ))),
    }
}

/// A sweep axis: a single string or a non-empty array of strings.
fn strings_of(v: &Value, axis: &str) -> Result<Vec<String>, SpecError> {
    match v {
        Value::Str(s) => Ok(vec![s.clone()]),
        Value::Array(items) => {
            if items.is_empty() {
                return Err(SpecError::new(format!(
                    "sweep axis `{axis}` is empty; list at least one value or omit the field"
                )));
            }
            items
                .iter()
                .map(|x| {
                    x.as_str().map(|s| s.to_string()).ok_or_else(|| {
                        SpecError::new(format!("sweep axis `{axis}` must contain strings only"))
                    })
                })
                .collect()
        }
        _ => Err(SpecError::new(format!(
            "sweep axis `{axis}` must be a string or an array of strings"
        ))),
    }
}

fn decode_run(v: Option<&Value>) -> Result<RunSection, SpecError> {
    let mut run = RunSection::default();
    let Some(v) = v else { return Ok(run) };
    let t = table_of(v, "run")?;
    check_fields(
        t,
        "run",
        &[
            "rounds",
            "seed",
            "seed_mode",
            "scale",
            "eval_every",
            "eval_max",
            "fraction",
            "replicates",
        ],
    )?;
    if let Some(x) = get(t, "rounds") {
        run.rounds = usize_of(x, "run", "rounds", 1)?;
    }
    if let Some(x) = get(t, "seed") {
        run.seed = u64_of(x, "run", "seed")?;
    }
    if let Some(x) = get(t, "seed_mode") {
        run.seed_mode = match str_of(x, "run", "seed_mode")?.as_str() {
            "shared" => SeedMode::Shared,
            "per-run" | "per_run" => SeedMode::PerRun,
            other => {
                return Err(SpecError::new(format!(
                    "[run] seed_mode must be \"shared\" or \"per-run\", got `{other}`"
                )))
            }
        };
    }
    if let Some(x) = get(t, "scale") {
        run.scale = match str_of(x, "run", "scale")?.as_str() {
            "smoke" => Scale::Smoke,
            "lab" => Scale::Lab,
            other => {
                return Err(SpecError::new(format!(
                    "[run] scale must be \"smoke\" or \"lab\", got `{other}`"
                )))
            }
        };
    }
    if let Some(x) = get(t, "eval_every") {
        run.eval_every = usize_of(x, "run", "eval_every", 1)?;
    }
    if let Some(x) = get(t, "eval_max") {
        run.eval_max = usize_of(x, "run", "eval_max", 0)?;
    }
    if let Some(x) = get(t, "fraction") {
        run.fraction = f64_of(x, "run", "fraction")? as f32;
    }
    if let Some(x) = get(t, "replicates") {
        run.replicates = usize_of(x, "run", "replicates", 1)?;
    }
    Ok(run)
}

fn decode_sweep(v: Option<&Value>, mode: Mode) -> Result<SweepSection, SpecError> {
    let Some(v) = v else {
        return Err(SpecError::new(
            "missing required [sweep] section with `workload` and `method` axes",
        ));
    };
    let t = table_of(v, "sweep")?;
    check_fields(
        t,
        "sweep",
        &["workload", "method", "compressor", "policy", "profile"],
    )?;

    let workloads = match get(t, "workload") {
        None => {
            return Err(SpecError::new(
                "missing required sweep axis `workload` in [sweep]",
            ))
        }
        Some(x) => strings_of(x, "workload")?
            .iter()
            .map(|s| {
                Workload::parse(s).ok_or_else(|| {
                    SpecError::new(format!(
                        "unknown workload `{s}` in sweep axis `workload`; known workloads: \
                         {KNOWN_WORKLOADS}"
                    ))
                })
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    let methods = match get(t, "method") {
        None => {
            return Err(SpecError::new(
                "missing required sweep axis `method` in [sweep]",
            ))
        }
        Some(x) => strings_of(x, "method")?
            .iter()
            .map(|s| {
                Method::parse(s).ok_or_else(|| {
                    SpecError::new(format!(
                        "unknown method `{s}` in sweep axis `method`; known methods: {}",
                        Method::ALL.map(Method::name).join(", ")
                    ))
                })
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    let compressors = match get(t, "compressor") {
        None => vec![None],
        Some(x) => strings_of(x, "compressor")?
            .iter()
            .map(|s| {
                if s.eq_ignore_ascii_case("none") {
                    Ok(None)
                } else {
                    CompressorChoice::parse(s).map(Some).ok_or_else(|| {
                        SpecError::new(format!(
                            "unknown compressor `{s}` in sweep axis `compressor`; known \
                             compressors: none, dgc, signsgd, fedpaq, stc"
                        ))
                    })
                }
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    let policies = match get(t, "policy") {
        None => {
            if mode == Mode::Sim {
                vec![PolicyChoice::Sync]
            } else {
                Vec::new()
            }
        }
        Some(x) => {
            if mode != Mode::Sim {
                return Err(SpecError::new(
                    "sweep axis `policy` requires mode = \"sim\" (this spec runs the \
                     lock-step runner)",
                ));
            }
            strings_of(x, "policy")?
                .iter()
                .map(|s| {
                    PolicyChoice::parse(s).ok_or_else(|| {
                        SpecError::new(format!(
                            "unknown policy `{s}` in sweep axis `policy`; known policies: \
                             sync, deadline, fedbuff"
                        ))
                    })
                })
                .collect::<Result<Vec<_>, _>>()?
        }
    };
    let profiles = match get(t, "profile") {
        None => {
            if mode == Mode::Sim {
                vec![ProfileChoice::Homogeneous]
            } else {
                Vec::new()
            }
        }
        Some(x) => {
            if mode != Mode::Sim {
                return Err(SpecError::new(
                    "sweep axis `profile` requires mode = \"sim\" (this spec runs the \
                     lock-step runner)",
                ));
            }
            strings_of(x, "profile")?
                .iter()
                .map(|s| {
                    ProfileChoice::parse(s).ok_or_else(|| {
                        SpecError::new(format!(
                            "unknown profile `{s}` in sweep axis `profile`; known profiles: \
                             homogeneous, mixed, stragglers"
                        ))
                    })
                })
                .collect::<Result<Vec<_>, _>>()?
        }
    };
    Ok(SweepSection {
        workloads,
        methods,
        compressors,
        policies,
        profiles,
    })
}

fn decode_partition(v: &Value) -> Result<ImagePartition, SpecError> {
    let t = table_of(v, "partition")?;
    check_fields(t, "partition", &["kind", "alpha", "shards_per_client"])?;
    let kind = match get(t, "kind") {
        None => {
            return Err(SpecError::new(
                "missing required field `kind` in [partition]; expected \"iid\", \"shards\" \
                 or \"dirichlet\"",
            ))
        }
        Some(x) => str_of(x, "partition", "kind")?,
    };
    match kind.as_str() {
        "iid" => {
            if get(t, "alpha").is_some() || get(t, "shards_per_client").is_some() {
                return Err(SpecError::new(
                    "[partition] kind = \"iid\" takes no parameters",
                ));
            }
            Ok(ImagePartition::Iid)
        }
        "shards" => {
            if get(t, "alpha").is_some() {
                return Err(SpecError::new(
                    "[partition] `alpha` belongs to kind = \"dirichlet\", not \"shards\"",
                ));
            }
            let spc = match get(t, "shards_per_client") {
                None => {
                    return Err(SpecError::new(
                        "missing required field `shards_per_client` in [partition] for \
                         kind = \"shards\"",
                    ))
                }
                Some(x) => usize_of(x, "partition", "shards_per_client", 1)?,
            };
            Ok(ImagePartition::Shards {
                shards_per_client: spc,
            })
        }
        "dirichlet" => {
            if get(t, "shards_per_client").is_some() {
                return Err(SpecError::new(
                    "[partition] `shards_per_client` belongs to kind = \"shards\", not \
                     \"dirichlet\"",
                ));
            }
            let alpha =
                match get(t, "alpha") {
                    None => return Err(SpecError::new(
                        "missing required field `alpha` in [partition] for kind = \"dirichlet\"",
                    )),
                    Some(x) => f64_of(x, "partition", "alpha")? as f32,
                };
            if alpha <= 0.0 {
                return Err(SpecError::new(format!(
                    "[partition] alpha = {alpha} is out of range; the Dirichlet concentration \
                     must be positive"
                )));
            }
            Ok(ImagePartition::Dirichlet { alpha })
        }
        other => Err(SpecError::new(format!(
            "unknown partition kind `{other}`; expected \"iid\", \"shards\" or \"dirichlet\""
        ))),
    }
}

fn decode_network(v: &Value) -> Result<NetworkModel, SpecError> {
    let t = table_of(v, "network")?;
    check_fields(
        t,
        "network",
        &["uplink_mbps", "downlink_mbps", "rtt_seconds"],
    )?;
    let mut net = NetworkModel::t_mobile_5g();
    if let Some(x) = get(t, "uplink_mbps") {
        net.uplink_mbps = f64_of(x, "network", "uplink_mbps")?;
    }
    if let Some(x) = get(t, "downlink_mbps") {
        net.downlink_mbps = f64_of(x, "network", "downlink_mbps")?;
    }
    if let Some(x) = get(t, "rtt_seconds") {
        net.rtt_seconds = f64_of(x, "network", "rtt_seconds")?;
    }
    if net.uplink_mbps <= 0.0 || net.downlink_mbps <= 0.0 {
        return Err(SpecError::new(
            "[network] link speeds must be positive Mbps values",
        ));
    }
    if net.rtt_seconds < 0.0 {
        return Err(SpecError::new("[network] rtt_seconds must be non-negative"));
    }
    Ok(net)
}

fn decode_fedbiad(v: Option<&Value>) -> Result<FedBiadSection, SpecError> {
    let mut fb = FedBiadSection::default();
    let Some(v) = v else { return Ok(fb) };
    let t = table_of(v, "fedbiad")?;
    check_fields(t, "fedbiad", &["stage_boundary", "dropout_rate"])?;
    if let Some(x) = get(t, "stage_boundary") {
        fb.stage_boundary = Some(usize_of(x, "fedbiad", "stage_boundary", 1)?);
    }
    fb.dropout_rates = match get(t, "dropout_rate") {
        None => Vec::new(),
        Some(Value::Array(items)) if items.is_empty() => {
            return Err(SpecError::new(
                "[fedbiad] dropout_rate is an empty array; list at least one rate or omit the \
                 field",
            ))
        }
        Some(Value::Array(items)) => items
            .iter()
            .map(|x| Ok(f64_of(x, "fedbiad", "dropout_rate")? as f32))
            .collect::<Result<_, SpecError>>()?,
        Some(x) => vec![f64_of(x, "fedbiad", "dropout_rate")? as f32],
    };
    Ok(fb)
}

fn decode_aggregation(v: Option<&Value>) -> Result<AggregationSection, SpecError> {
    let mut agg = AggregationSection::default();
    let Some(v) = v else { return Ok(agg) };
    let t = table_of(v, "aggregation")?;
    check_fields(
        t,
        "aggregation",
        &[
            "streaming",
            "shard_kb",
            "tree_fanin",
            "robust",
            "trim_frac",
            "tau",
        ],
    )?;
    match get(t, "streaming") {
        None | Some(Value::Bool(true)) => {}
        Some(Value::Bool(false)) => {
            return Err(SpecError::new(
                "[aggregation] streaming = false is not a route: clients always put encoded \
                 bytes on the wire and the server streams them; the dense engine is a test \
                 oracle. Delete the key (streaming = true is accepted as a no-op)",
            ))
        }
        Some(_) => {
            return Err(SpecError::new(
                "[aggregation] streaming must be a boolean (true/false)",
            ))
        }
    }
    if let Some(x) = get(t, "shard_kb") {
        let kb = usize_of(x, "aggregation", "shard_kb", 1)?;
        if kb > 1 << 20 {
            return Err(SpecError::new(format!(
                "[aggregation] shard_kb = {kb} is out of range; shards above 1 GiB defeat \
                 the point of sharding"
            )));
        }
        agg.shard_kb = Some(kb as u32);
    }
    if let Some(x) = get(t, "tree_fanin") {
        let fanin = usize_of(x, "aggregation", "tree_fanin", 1)?;
        if fanin < 2 {
            return Err(SpecError::new(format!(
                "[aggregation] tree_fanin = {fanin} is out of range; a hierarchical \
                 reduction needs a fan-in of at least 2"
            )));
        }
        if fanin > 1 << 16 {
            return Err(SpecError::new(format!(
                "[aggregation] tree_fanin = {fanin} is out of range; fan-ins above 65536 \
                 degenerate to the serial reducer"
            )));
        }
        agg.tree_fanin = Some(fanin as u32);
    }
    if let Some(x) = get(t, "robust") {
        let r = str_of(x, "aggregation", "robust")?;
        agg.robust = Some(match r.as_str() {
            "mean" => RobustChoice::Mean,
            "trimmed_mean" => RobustChoice::TrimmedMean,
            "coordinate_median" => RobustChoice::CoordinateMedian,
            "norm_clip" => RobustChoice::NormClip,
            other => {
                return Err(SpecError::new(format!(
                    "[aggregation] robust = \"{other}\" is unknown; expected \"mean\", \
                     \"trimmed_mean\", \"coordinate_median\", or \"norm_clip\""
                )))
            }
        });
    }
    if let Some(x) = get(t, "trim_frac") {
        let f = f64_of(x, "aggregation", "trim_frac")? as f32;
        if !(f.is_finite() && (0.0..0.5).contains(&f)) {
            return Err(SpecError::new(format!(
                "[aggregation] trim_frac = {f} is out of range; the per-tail trim fraction \
                 must lie in [0, 0.5) or the trim empties every cohort"
            )));
        }
        agg.trim_frac = Some(f);
    }
    if let Some(x) = get(t, "tau") {
        let f = f64_of(x, "aggregation", "tau")? as f32;
        if !(f.is_finite() && f > 0.0) {
            return Err(SpecError::new(format!(
                "[aggregation] tau = {f} is out of range; the clip radius must be a finite \
                 positive number"
            )));
        }
        agg.tau = Some(f);
    }
    if agg.trim_frac.is_some() && agg.robust != Some(RobustChoice::TrimmedMean) {
        return Err(SpecError::new(
            "[aggregation] trim_frac requires robust = \"trimmed_mean\"; no other estimator \
             trims",
        ));
    }
    if agg.tau.is_some() && agg.robust != Some(RobustChoice::NormClip) {
        return Err(SpecError::new(
            "[aggregation] tau requires robust = \"norm_clip\"; no other estimator clips \
             update norms",
        ));
    }
    if let (Some(_), Some(r @ (RobustChoice::TrimmedMean | RobustChoice::CoordinateMedian))) =
        (agg.tree_fanin, agg.robust)
    {
        return Err(SpecError::new(format!(
            "[aggregation] tree_fanin cannot be combined with robust = \"{}\"; order statistics \
             gather whole columns and run no tree, so the fan-in would move every derived \
             seed and change nothing else",
            r.name()
        )));
    }
    Ok(agg)
}

fn decode_population(v: &Value) -> Result<PopulationSection, SpecError> {
    let t = table_of(v, "population")?;
    check_fields(
        t,
        "population",
        &["clients", "cohort", "samples_per_client"],
    )?;
    let clients = match get(t, "clients") {
        None => {
            return Err(SpecError::new(
                "missing required field `clients` in [population] (the registered \
                 population size K)",
            ))
        }
        Some(x) => usize_of(x, "population", "clients", 1)?,
    };
    let cohort = match get(t, "cohort") {
        None => None,
        Some(x) => Some(usize_of(x, "population", "cohort", 1)?),
    };
    let samples_per_client = match get(t, "samples_per_client") {
        None => 60,
        Some(x) => usize_of(x, "population", "samples_per_client", 1)?,
    };
    Ok(PopulationSection {
        clients,
        cohort,
        samples_per_client,
    })
}

fn decode_adversary(v: &Value) -> Result<fedbiad_fl::AdversarySpec, SpecError> {
    use fedbiad_fl::{AttackMode, GarbageKind};
    let t = table_of(v, "adversary")?;
    check_fields(t, "adversary", &["fraction", "mode", "factor", "garbage"])?;
    let fraction = match get(t, "fraction") {
        None => {
            return Err(SpecError::new(
                "missing required field `fraction` in [adversary] (the byzantine client \
                 fraction, in (0, 1])",
            ))
        }
        Some(x) => f64_of(x, "adversary", "fraction")? as f32,
    };
    if !(fraction > 0.0 && fraction <= 1.0) {
        return Err(SpecError::new(format!(
            "[adversary] fraction = {fraction} is out of range; the byzantine fraction must \
             lie in (0, 1] (omit the section for an honest population)"
        )));
    }
    let mode_name = match get(t, "mode") {
        None => {
            return Err(SpecError::new(
                "missing required field `mode` in [adversary]; expected \"sign_flip\", \
                 \"scale\" or \"garbage\"",
            ))
        }
        Some(x) => str_of(x, "adversary", "mode")?,
    };
    if get(t, "factor").is_some() && mode_name != "scale" {
        return Err(SpecError::new(
            "[adversary] factor requires mode = \"scale\"; no other attack scales",
        ));
    }
    if get(t, "garbage").is_some() && mode_name != "garbage" {
        return Err(SpecError::new(
            "[adversary] garbage requires mode = \"garbage\"; no other attack transmits \
             garbage values",
        ));
    }
    let mode = match mode_name.as_str() {
        "sign_flip" => AttackMode::SignFlip,
        "scale" => {
            let factor = match get(t, "factor") {
                None => 10.0,
                Some(x) => f64_of(x, "adversary", "factor")? as f32,
            };
            if !factor.is_finite() {
                return Err(SpecError::new(
                    "[adversary] factor must be finite; use mode = \"garbage\" for \
                     non-finite payloads",
                ));
            }
            AttackMode::Scale { factor }
        }
        "garbage" => {
            let kind = match get(t, "garbage") {
                None => GarbageKind::Nan,
                Some(x) => match str_of(x, "adversary", "garbage")?.as_str() {
                    "nan" => GarbageKind::Nan,
                    "inf" => GarbageKind::Inf,
                    "huge" => GarbageKind::Huge,
                    other => {
                        return Err(SpecError::new(format!(
                            "[adversary] garbage = \"{other}\" is unknown; expected \"nan\", \
                             \"inf\" or \"huge\""
                        )))
                    }
                },
            };
            AttackMode::Garbage { kind }
        }
        other => {
            return Err(SpecError::new(format!(
                "[adversary] mode = \"{other}\" is unknown; expected \"sign_flip\", \
                 \"scale\" or \"garbage\""
            )))
        }
    };
    Ok(fedbiad_fl::AdversarySpec { fraction, mode })
}

fn decode_churn(v: &Value) -> Result<fedbiad_fl::ChurnSpec, SpecError> {
    let t = table_of(v, "churn")?;
    check_fields(t, "churn", &["offline", "dropout"])?;
    let mut ch = fedbiad_fl::ChurnSpec {
        offline: 0.0,
        dropout: 0.0,
    };
    if let Some(x) = get(t, "offline") {
        ch.offline = f64_of(x, "churn", "offline")? as f32;
    }
    if let Some(x) = get(t, "dropout") {
        ch.dropout = f64_of(x, "churn", "dropout")? as f32;
    }
    for (key, p) in [("offline", ch.offline), ("dropout", ch.dropout)] {
        if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
            return Err(SpecError::new(format!(
                "[churn] {key} = {p} is out of range; the per-round probability must lie \
                 in [0, 1]"
            )));
        }
    }
    if ch.offline == 0.0 && ch.dropout == 0.0 {
        return Err(SpecError::new(
            "[churn] sets neither offline nor dropout above 0; omit the section for a \
             churn-free population",
        ));
    }
    Ok(ch)
}

fn decode_training(v: Option<&Value>) -> Result<TrainingSection, SpecError> {
    let mut tr = TrainingSection::default();
    let Some(v) = v else { return Ok(tr) };
    let t = table_of(v, "training")?;
    check_fields(t, "training", &["batch_size"])?;
    if let Some(x) = get(t, "batch_size") {
        tr.batch_size = Some(usize_of(x, "training", "batch_size", 1)?);
    }
    Ok(tr)
}

fn decode_sim(v: &Value) -> Result<Option<f64>, SpecError> {
    let t = table_of(v, "sim")?;
    check_fields(t, "sim", &["target_acc"])?;
    match get(t, "target_acc") {
        None => Ok(None),
        Some(x) => Ok(Some(f64_of(x, "sim", "target_acc")?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "name = \"t\"\n[sweep]\nworkload = \"mnist\"\nmethod = \"fedavg\"\n";

    #[test]
    fn minimal_spec_parses_with_defaults() {
        let s = ScenarioSpec::from_toml_str(MINIMAL).unwrap();
        assert_eq!(s.name, "t");
        assert_eq!(s.mode, Mode::Lockstep);
        assert_eq!(s.run.rounds, 10);
        assert_eq!(s.run.seed, 42);
        assert_eq!(s.sweep.workloads, vec![Workload::MnistLike]);
        assert_eq!(s.sweep.methods, vec![Method::FedAvg]);
        assert_eq!(s.sweep.compressors, vec![None]);
        assert!(s.sweep.policies.is_empty());
    }

    #[test]
    fn json_specs_share_the_schema() {
        let s = ScenarioSpec::from_json_str(
            r#"{"name": "j", "sweep": {"workload": "mnist", "method": ["fedavg", "fedbiad"]}}"#,
        )
        .unwrap();
        assert_eq!(s.sweep.methods.len(), 2);
    }

    #[test]
    fn sim_defaults_fill_policy_and_profile() {
        let s = ScenarioSpec::from_toml_str(
            "name = \"t\"\nmode = \"sim\"\n[sweep]\nworkload = \"mnist\"\nmethod = \"fedavg\"\n",
        )
        .unwrap();
        assert_eq!(s.sweep.policies, vec![PolicyChoice::Sync]);
        assert_eq!(s.sweep.profiles, vec![ProfileChoice::Homogeneous]);
    }

    #[test]
    fn overrides_apply_and_revalidate() {
        let mut s = ScenarioSpec::from_toml_str(MINIMAL).unwrap();
        s.apply_overrides(&Overrides {
            rounds: Some(3),
            fraction: Some(0.5),
            ..Default::default()
        })
        .unwrap();
        assert_eq!(s.run.rounds, 3);
        let bad = s.apply_overrides(&Overrides {
            fraction: Some(1.5),
            ..Default::default()
        });
        assert!(bad.unwrap_err().to_string().contains("out of range"));
    }

    #[test]
    fn sim_only_overrides_are_rejected_on_lockstep_specs() {
        // Previously these flags were silently discarded by expansion;
        // the file-based equivalents were already rejected at load time.
        let mut s = ScenarioSpec::from_toml_str(MINIMAL).unwrap();
        let err = s
            .apply_overrides(&Overrides {
                policies: Some(vec![crate::simrun::PolicyChoice::FedBuff]),
                ..Default::default()
            })
            .unwrap_err();
        assert!(err.to_string().contains("require mode = \"sim\""), "{err}");
        let err = s
            .apply_overrides(&Overrides {
                target: Some(0.9),
                ..Default::default()
            })
            .unwrap_err();
        assert!(err.to_string().contains("virtual clock"), "{err}");
    }

    #[test]
    fn training_batch_size_is_an_explicit_opt_in() {
        // Omitted: the paper batch size stays in force.
        let s = ScenarioSpec::from_toml_str(MINIMAL).unwrap();
        assert_eq!(s.training.batch_size, None);
        // Set: decoded and range-checked.
        let s = ScenarioSpec::from_toml_str(&format!("{MINIMAL}[training]\nbatch_size = 64\n"))
            .unwrap();
        assert_eq!(s.training.batch_size, Some(64));
        let err = ScenarioSpec::from_toml_str(&format!("{MINIMAL}[training]\nbatch_size = 0\n"))
            .unwrap_err();
        assert!(err.to_string().contains("positive integer"), "{err}");
        let err = ScenarioSpec::from_toml_str(&format!("{MINIMAL}[training]\nbatchsize = 8\n"))
            .unwrap_err();
        assert!(
            err.to_string().contains("expected one of: batch_size"),
            "{err}"
        );
        // The knob feeds the canonical string (and therefore derived
        // per-run seeds): changing it must move the hash.
        let base = ScenarioSpec::from_toml_str(MINIMAL).unwrap();
        let with = ScenarioSpec::from_toml_str(&format!("{MINIMAL}[training]\nbatch_size = 64\n"))
            .unwrap();
        assert_ne!(base.canonical_string(), with.canonical_string());
    }

    #[test]
    fn aggregation_section_is_validated_and_seed_transparent() {
        // Defaults.
        let s = ScenarioSpec::from_toml_str(MINIMAL).unwrap();
        assert_eq!(s.aggregation.resolve(), fedbiad_fl::AggSettings::default());
        // A shard size needs no other key.
        let s = ScenarioSpec::from_toml_str(&format!("{MINIMAL}[aggregation]\nshard_kb = 16\n"))
            .unwrap();
        assert_eq!(s.aggregation.resolve().shard_kb, 16);
        // Out-of-range / wrong-type values are rejected.
        let err = ScenarioSpec::from_toml_str(&format!("{MINIMAL}[aggregation]\nshard_kb = 0\n"))
            .unwrap_err();
        assert!(err.to_string().contains("positive integer"), "{err}");
        let err = ScenarioSpec::from_toml_str(&format!("{MINIMAL}[aggregation]\nshardkb = 4\n"))
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("expected one of: streaming, shard_kb, tree_fanin"),
            "{err}"
        );
        // The shard size is bit-transparent and the retired `streaming`
        // key never fed the canonical string, so — unlike [training] —
        // neither may move it (and therefore derived seeds): stripping
        // `streaming = true` from a spec leaves every seed where it was.
        let base = ScenarioSpec::from_toml_str(MINIMAL).unwrap();
        let with = ScenarioSpec::from_toml_str(&format!(
            "{MINIMAL}[aggregation]\nstreaming = true\nshard_kb = 1\n"
        ))
        .unwrap();
        assert_eq!(base.canonical_string(), with.canonical_string());
    }

    /// The retired engine key: specs that say `true` keep working; `false`
    /// asked for a route that no longer exists and says so.
    #[test]
    fn retired_streaming_key_is_a_no_op_when_true_and_an_error_when_false() {
        let base = ScenarioSpec::from_toml_str(&format!("{MINIMAL}[aggregation]\nshard_kb = 4\n"))
            .unwrap();
        let with = ScenarioSpec::from_toml_str(&format!(
            "{MINIMAL}[aggregation]\nstreaming = true\nshard_kb = 4\n"
        ))
        .unwrap();
        assert_eq!(with.aggregation.resolve(), base.aggregation.resolve());
        let err =
            ScenarioSpec::from_toml_str(&format!("{MINIMAL}[aggregation]\nstreaming = false\n"))
                .unwrap_err();
        assert_eq!(
            err.to_string(),
            "[aggregation] streaming = false is not a route: clients always put encoded bytes \
             on the wire and the server streams them; the dense engine is a test oracle. \
             Delete the key (streaming = true is accepted as a no-op)"
        );
        let err = ScenarioSpec::from_toml_str(&format!("{MINIMAL}[aggregation]\nstreaming = 1\n"))
            .unwrap_err();
        assert!(err.to_string().contains("boolean"), "{err}");
    }

    #[test]
    fn population_section_is_validated_and_feeds_the_seed() {
        // Decode with defaults and with every field spelled.
        let s = ScenarioSpec::from_toml_str(&format!("{MINIMAL}[population]\nclients = 100000\n"))
            .unwrap();
        let pop = s.population.expect("decoded");
        assert_eq!(pop.clients, 100_000);
        assert_eq!(pop.cohort, None);
        assert_eq!(pop.samples_per_client, 60);
        let s = ScenarioSpec::from_toml_str(&format!(
            "{MINIMAL}[population]\nclients = 1000000\ncohort = 64\nsamples_per_client = 16\n"
        ))
        .unwrap();
        let pop = s.population.expect("decoded");
        assert_eq!(
            (pop.clients, pop.cohort, pop.samples_per_client),
            (1_000_000, Some(64), 16)
        );
        // Text workloads have no synthetic image population to replace.
        let err = ScenarioSpec::from_toml_str(
            "name = \"t\"\n[sweep]\nworkload = \"ptb\"\nmethod = \"fedavg\"\n\
             [population]\nclients = 1000\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("image workloads only"), "{err}");
        // [population] supersedes the Dirichlet pool — the two can't coexist.
        let err = ScenarioSpec::from_toml_str(&format!(
            "{MINIMAL}[partition]\nkind = \"iid\"\n[population]\nclients = 1000\n"
        ))
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
        // Cohort must fit inside the registered population.
        let err = ScenarioSpec::from_toml_str(&format!(
            "{MINIMAL}[population]\nclients = 10\ncohort = 11\n"
        ))
        .unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        // A lazy population changes every client's data, so it must move
        // the canonical string (and therefore derived seeds); absent, the
        // string is byte-identical to the legacy spec.
        let base = ScenarioSpec::from_toml_str(MINIMAL).unwrap();
        let with = ScenarioSpec::from_toml_str(&format!("{MINIMAL}[population]\nclients = 1000\n"))
            .unwrap();
        assert_ne!(base.canonical_string(), with.canonical_string());
    }

    #[test]
    fn tree_fanin_is_gated_and_feeds_the_seed() {
        let s = ScenarioSpec::from_toml_str(&format!(
            "{MINIMAL}[aggregation]\nshard_kb = 4\ntree_fanin = 32\n"
        ))
        .unwrap();
        assert_eq!(s.aggregation.resolve().tree_fanin, 32);
        // Degenerate fan-ins are rejected at both ends.
        let err = ScenarioSpec::from_toml_str(&format!("{MINIMAL}[aggregation]\ntree_fanin = 1\n"))
            .unwrap_err();
        assert!(err.to_string().contains("at least 2"), "{err}");
        let err =
            ScenarioSpec::from_toml_str(&format!("{MINIMAL}[aggregation]\ntree_fanin = 65537\n"))
                .unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        // Unlike shard_kb, the fan-in regroups f32 sums and is NOT
        // bit-transparent — it must move the canonical string.
        let base = ScenarioSpec::from_toml_str(&format!("{MINIMAL}[aggregation]\nshard_kb = 4\n"))
            .unwrap();
        assert_ne!(base.canonical_string(), s.canonical_string());
    }

    #[test]
    fn canonical_string_tracks_knobs_not_formatting() {
        let a = ScenarioSpec::from_toml_str(MINIMAL).unwrap();
        let b = ScenarioSpec::from_toml_str(
            "# comment\nname = \"t\"\n\n[sweep]\nworkload = [\"mnist\"]\nmethod = [\"fedavg\"]\n",
        )
        .unwrap();
        assert_eq!(a.canonical_string(), b.canonical_string());
        let mut c = a.clone();
        c.run.rounds += 1;
        assert_ne!(a.canonical_string(), c.canonical_string());
    }
}
