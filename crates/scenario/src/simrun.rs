//! Discrete-event simulation runner: build + run any registry method
//! under any server policy × heterogeneity profile (the engine behind
//! every `mode = "sim"` scenario).

use crate::methods::{with_algorithm, AlgorithmVisitor, CompressorChoice, Method, RunOpts};
use fedbiad_data::FedDataset;
use fedbiad_fl::round::resolve_cohort;
use fedbiad_fl::workload::WorkloadBundle;
use fedbiad_fl::FlAlgorithm;
use fedbiad_nn::Model;
use fedbiad_sim::{
    CostModel, DeadlineOverSelect, FedBuff, HeterogeneityProfile, ServerPolicy, SimConfig,
    SimReport, Simulator, SyncBarrier,
};

/// Which server policy to simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyChoice {
    /// Synchronous barrier (the lock-step runner).
    Sync,
    /// Deadline-based over-selection with straggler dropping.
    Deadline,
    /// FedBuff-style buffered asynchronous aggregation.
    FedBuff,
}

impl PolicyChoice {
    /// All three, sweep order.
    pub fn all() -> [PolicyChoice; 3] {
        [
            PolicyChoice::Sync,
            PolicyChoice::Deadline,
            PolicyChoice::FedBuff,
        ]
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<PolicyChoice> {
        match s.to_ascii_lowercase().as_str() {
            "sync" | "barrier" => Some(PolicyChoice::Sync),
            "deadline" | "overselect" => Some(PolicyChoice::Deadline),
            "fedbuff" | "buffered" | "async" => Some(PolicyChoice::FedBuff),
            _ => None,
        }
    }

    /// Canonical spec/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyChoice::Sync => "sync",
            PolicyChoice::Deadline => "deadline",
            PolicyChoice::FedBuff => "fedbuff",
        }
    }

    /// Instantiate the policy for a cohort of `cohort` clients and an
    /// estimated nominal round duration (used to place the deadline).
    pub fn build(self, cohort: usize, nominal_round_seconds: f64) -> Box<dyn ServerPolicy> {
        match self {
            PolicyChoice::Sync => Box::new(SyncBarrier),
            PolicyChoice::Deadline => {
                // Over-select 50 %, close the round at 2× the nominal
                // round time: fast clients make it, hard stragglers miss.
                Box::new(DeadlineOverSelect::new(1.5, 2.0 * nominal_round_seconds))
            }
            PolicyChoice::FedBuff => Box::new(FedBuff::new((cohort / 2).max(1), cohort.max(1))),
        }
    }
}

/// Parse a heterogeneity-profile CLI name. Delegates to
/// [`ProfileChoice`](crate::spec::ProfileChoice) so the name → cohort
/// mapping exists in exactly one place.
pub fn parse_profile(s: &str) -> Option<HeterogeneityProfile> {
    crate::spec::ProfileChoice::parse(s).map(|p| p.resolve(None))
}

/// A nominal (multiplier-1, 5G) round-duration estimate for deadline
/// placement: compute + full-model transmission both ways.
pub fn nominal_round_seconds(bundle: &WorkloadBundle, cost: &CostModel) -> f64 {
    let weights = bundle.model.arch().total_weights;
    let net = fedbiad_sim::LinkClass::FiveG.network();
    let model_bytes = (weights as u64) * 4;
    cost.local_seconds(weights, bundle.train.local_iters, 1.0)
        + net.download_message_seconds(model_bytes)
        + net.upload_message_seconds(model_bytes)
}

/// Run `method` on `bundle` under `policy` × `profile` and return the
/// simulation report.
pub fn run_sim_method(
    method: Method,
    bundle: &WorkloadBundle,
    opts: RunOpts,
    policy: PolicyChoice,
    profile: HeterogeneityProfile,
) -> SimReport {
    run_sim_method_composed(method, bundle, opts, policy, profile, None)
}

/// Run `method` under `policy` × `profile`, optionally composed with an
/// `extra` sketched compressor (only valid on base methods). Algorithm
/// construction is shared with the lock-step driver through
/// [`with_algorithm`], so the two can never diverge per method.
pub fn run_sim_method_composed(
    method: Method,
    bundle: &WorkloadBundle,
    opts: RunOpts,
    policy: PolicyChoice,
    profile: HeterogeneityProfile,
    extra: Option<CompressorChoice>,
) -> SimReport {
    let base = opts.experiment_config(bundle);
    let cfg = SimConfig::new(base, profile);
    let cohort = resolve_cohort(bundle.data.num_clients(), base.client_fraction, base.cohort)
        .expect("cohort configuration invalid");
    let pol = policy.build(cohort, nominal_round_seconds(bundle, &cfg.cost));

    let p = opts.dropout_override.unwrap_or(bundle.dropout_rate);
    let driver = SimDriver {
        model: bundle.model.as_ref(),
        data: &bundle.data,
        pol,
        cfg,
    };
    with_algorithm(method, p, opts.stage_boundary, extra, driver)
}

struct SimDriver<'a> {
    model: &'a dyn Model,
    data: &'a FedDataset,
    pol: Box<dyn ServerPolicy>,
    cfg: SimConfig,
}

impl AlgorithmVisitor for SimDriver<'_> {
    type Out = SimReport;

    fn visit<A: FlAlgorithm>(self, algo: A) -> SimReport {
        Simulator::new(self.model, self.data, algo, self.pol, self.cfg).run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_fl::workload::{build, Scale, Workload};

    #[test]
    fn policy_choice_parses() {
        assert_eq!(PolicyChoice::parse("SYNC"), Some(PolicyChoice::Sync));
        assert_eq!(PolicyChoice::parse("fedbuff"), Some(PolicyChoice::FedBuff));
        assert_eq!(
            PolicyChoice::parse("deadline"),
            Some(PolicyChoice::Deadline)
        );
        assert_eq!(PolicyChoice::parse("nope"), None);
        for pc in PolicyChoice::all() {
            assert_eq!(PolicyChoice::parse(pc.name()), Some(pc));
        }
    }

    #[test]
    fn profile_parses() {
        assert!(parse_profile("homogeneous").is_some());
        assert!(parse_profile("mixed").is_some());
        assert!(parse_profile("stragglers").is_some());
        assert!(parse_profile("nope").is_none());
    }

    #[test]
    fn sim_runs_every_policy_on_smoke_workload() {
        let bundle = build(Workload::MnistLike, Scale::Smoke, 3);
        let opts = RunOpts::for_rounds(2, 3);
        for policy in PolicyChoice::all() {
            let report = run_sim_method(
                Method::FedAvg,
                &bundle,
                opts,
                policy,
                parse_profile("stragglers").unwrap(),
            );
            assert_eq!(report.log.records.len(), 2, "{policy:?}");
            assert!(report.total_virtual_seconds > 0.0, "{policy:?}");
        }
    }
}
