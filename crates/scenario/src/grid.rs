//! Grid expansion: turn a validated [`ScenarioSpec`] into the concrete
//! list of runs its sweep axes imply.
//!
//! Axis order is fixed — workload, method, dropout rate, compressor,
//! policy, profile, replicate — so run indices (and therefore derived
//! seeds and output file names) are stable properties of the spec,
//! independent of thread count or execution order.

use crate::methods::{CompressorChoice, Method, RunOpts};
use crate::simrun::PolicyChoice;
use crate::spec::{Mode, ProfileChoice, ScenarioSpec, SeedMode, SpecError};
use fedbiad_fl::workload::{Scale, Workload};
use fedbiad_tensor::rng::{stream, StreamTag};
use rand::Rng;

/// One concrete run of a scenario grid.
#[derive(Clone, Debug)]
pub struct MaterializedRun {
    /// Position in the expansion order (also the output-file index).
    pub index: usize,
    /// Replicate number within the grid cell (0-based).
    pub replicate: usize,
    /// Dataset/model pair.
    pub workload: Workload,
    /// Workload scale.
    pub scale: Scale,
    /// Registry method.
    pub method: Method,
    /// Extra sketched compressor composed onto the method.
    pub compressor: Option<CompressorChoice>,
    /// Which driver executes this run.
    pub mode: Mode,
    /// Server policy (sim mode).
    pub policy: Option<PolicyChoice>,
    /// Heterogeneity profile (sim mode).
    pub profile: Option<ProfileChoice>,
    /// Fully resolved run options (including this run's seed).
    pub opts: RunOpts,
    /// Human-readable cell label, e.g. `ptb-like/FedBIAD@fedbuff[stragglers]`.
    pub label: String,
}

/// FNV-1a over `bytes` (the spec-hash primitive; stable by construction).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The spec's content hash: every knob that defines the grid feeds the
/// per-run seed derivation; file formatting does not.
pub fn spec_hash(spec: &ScenarioSpec) -> u64 {
    fnv1a64(spec.canonical_string().as_bytes())
}

/// Derive the seed for run `index`/`replicate` of a spec with hash
/// `hash`, through the dedicated [`StreamTag::Scenario`] RNG stream.
pub fn derived_seed(base_seed: u64, hash: u64, index: usize, replicate: usize) -> u64 {
    stream(
        base_seed ^ hash,
        StreamTag::Scenario,
        index as u64,
        replicate as u64,
    )
    .gen()
}

/// Expand the sweep cross-product into concrete runs (validates first).
pub fn expand(spec: &ScenarioSpec) -> Result<Vec<MaterializedRun>, SpecError> {
    spec.validate()?;
    let hash = spec_hash(spec);
    let (policies, profiles): (Vec<Option<PolicyChoice>>, Vec<Option<ProfileChoice>>) =
        match spec.mode {
            Mode::Lockstep => (vec![None], vec![None]),
            Mode::Sim => (
                spec.sweep.policies.iter().map(|&p| Some(p)).collect(),
                spec.sweep.profiles.iter().map(|&p| Some(p)).collect(),
            ),
        };

    // The `[fedbiad] dropout_rate` axis: a method that takes no rate runs
    // once (with the first rate, which it ignores), and only a real axis
    // names p in the label.
    let rates: Vec<Option<f32>> = match spec.fedbiad.dropout_rates.as_slice() {
        [] => vec![None],
        rs => rs.iter().map(|&p| Some(p)).collect(),
    };
    let rate_axis = rates.len() > 1;

    let mut runs = Vec::new();
    for &workload in &spec.sweep.workloads {
        for &method in &spec.sweep.methods {
            let (method_rates, label_p) = if method.uses_dropout_rate() {
                (&rates[..], rate_axis)
            } else {
                (&rates[..1], false)
            };
            for &dropout_override in method_rates {
                for &compressor in &spec.sweep.compressors {
                    for &policy in &policies {
                        for &profile in &profiles {
                            for replicate in 0..spec.run.replicates {
                                let index = runs.len();
                                // Shared mode keeps replicate r *paired* across
                                // every grid cell (seed depends only on r), so
                                // methods stay comparable on identical data;
                                // per-run mode gives every cell its own draw.
                                let seed = match (spec.run.seed_mode, replicate) {
                                    (SeedMode::Shared, 0) => spec.run.seed,
                                    (SeedMode::Shared, r) => {
                                        derived_seed(spec.run.seed, hash, 0, r)
                                    }
                                    (SeedMode::PerRun, r) => {
                                        derived_seed(spec.run.seed, hash, index, r)
                                    }
                                };
                                let opts = RunOpts {
                                    rounds: spec.run.rounds,
                                    stage_boundary: spec.fedbiad.stage_boundary.unwrap_or_else(
                                        || spec.run.rounds.saturating_sub(5).max(1),
                                    ),
                                    seed,
                                    eval_every: spec.run.eval_every,
                                    eval_max_samples: spec.run.eval_max,
                                    client_fraction: spec.run.fraction,
                                    dropout_override,
                                    batch_size: spec.training.batch_size,
                                    agg: spec.aggregation.resolve(),
                                    cohort: spec.population.and_then(|p| p.cohort),
                                    // A lazy population implies the O(cohort)
                                    // sparse sampler: the whole point is never
                                    // touching all K registered clients.
                                    sampler: if spec.population.is_some() {
                                        fedbiad_fl::round::SamplerKind::Sparse
                                    } else {
                                        fedbiad_fl::round::SamplerKind::Shuffle
                                    },
                                    adversary: spec.adversary,
                                    churn: spec.churn,
                                };
                                let mut label = format!("{}/{}", workload.name(), method.name());
                                if let Some(p) = dropout_override.filter(|_| label_p) {
                                    label.push_str(&format!("(p={p})"));
                                }
                                if let Some(c) = compressor {
                                    label.push('+');
                                    label.push_str(c.name());
                                }
                                if let Some(p) = policy {
                                    label.push('@');
                                    label.push_str(p.name());
                                }
                                if let Some(p) = profile {
                                    label.push('[');
                                    label.push_str(p.name());
                                    label.push(']');
                                }
                                if spec.run.replicates > 1 {
                                    label.push_str(&format!("#{replicate}"));
                                }
                                runs.push(MaterializedRun {
                                    index,
                                    replicate,
                                    workload,
                                    scale: spec.run.scale,
                                    method,
                                    compressor,
                                    mode: spec.mode,
                                    policy,
                                    profile,
                                    opts,
                                    label,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    #[test]
    fn shared_seed_mode_reuses_the_base_seed() {
        let spec = ScenarioSpec::from_toml_str(
            "name = \"t\"\n[run]\nseed = 7\n[sweep]\nworkload = \"mnist\"\n\
             method = [\"fedavg\", \"fedbiad\"]\n",
        )
        .unwrap();
        let runs = expand(&spec).unwrap();
        assert_eq!(runs.len(), 2);
        assert!(runs.iter().all(|r| r.opts.seed == 7));
        assert_eq!(runs[0].label, "mnist-like/FedAvg");
        assert_eq!(runs[1].label, "mnist-like/FedBIAD");
    }

    #[test]
    fn replicates_get_distinct_derived_seeds_even_when_shared() {
        let spec = ScenarioSpec::from_toml_str(
            "name = \"t\"\n[run]\nseed = 7\nreplicates = 3\n[sweep]\n\
             workload = \"mnist\"\nmethod = [\"fedavg\", \"fedbiad\"]\n",
        )
        .unwrap();
        let runs = expand(&spec).unwrap();
        assert_eq!(runs.len(), 6);
        assert_eq!(runs[0].opts.seed, 7);
        assert_ne!(runs[1].opts.seed, runs[0].opts.seed);
        assert_ne!(runs[2].opts.seed, runs[1].opts.seed);
        assert!(runs[2].label.ends_with("#2"), "{}", runs[2].label);
        // Shared mode pairs replicate r across grid cells: fedavg and
        // fedbiad replicate r train on identical data and sampling.
        for r in 0..3 {
            assert_eq!(
                runs[r].opts.seed,
                runs[3 + r].opts.seed,
                "replicate {r} must be seed-paired across methods"
            );
        }
    }

    #[test]
    fn expansion_order_is_the_documented_axis_order() {
        let spec = ScenarioSpec::from_toml_str(
            "name = \"t\"\nmode = \"sim\"\n[sweep]\nworkload = \"mnist\"\n\
             method = \"fedavg\"\npolicy = [\"sync\", \"fedbuff\"]\n\
             profile = [\"homogeneous\", \"stragglers\"]\n",
        )
        .unwrap();
        let labels: Vec<String> = expand(&spec)
            .unwrap()
            .into_iter()
            .map(|r| r.label)
            .collect();
        assert_eq!(
            labels,
            vec![
                "mnist-like/FedAvg@sync[homogeneous]",
                "mnist-like/FedAvg@sync[stragglers]",
                "mnist-like/FedAvg@fedbuff[homogeneous]",
                "mnist-like/FedAvg@fedbuff[stragglers]",
            ]
        );
    }
}
