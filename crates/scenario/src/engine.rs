//! The execution engine: run every materialized run of a scenario and
//! collect the logs.
//!
//! Workload bundles are built once per distinct `(workload, seed)` pair
//! and shared across runs; the runs themselves execute in parallel
//! through the deterministic rayon shim (indexed result slots), so the
//! outcome vector is bit-identical across thread counts and always in
//! grid order.

use crate::grid::{expand, MaterializedRun};
use crate::methods::run_method_composed;
use crate::simrun::run_sim_method_composed;
use crate::spec::{Mode, ScenarioSpec, SpecError};
use fedbiad_fl::workload::{
    build_with, PopulationOverride, Workload, WorkloadBundle, WorkloadOverrides,
};
use fedbiad_fl::ExperimentLog;
use rayon::prelude::*;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;

/// Virtual-clock extras attached to `mode = "sim"` outcomes.
#[derive(Clone, Debug, Serialize)]
pub struct SimMeta {
    /// Server-policy name.
    pub policy: String,
    /// Heterogeneity-profile name.
    pub profile: String,
    /// Virtual seconds to the target, `None` if never reached.
    pub tta_virtual_seconds: Option<f64>,
    /// Virtual time when the simulation stopped.
    pub total_virtual_seconds: f64,
    /// Virtual time at which each recorded round committed.
    pub round_end_seconds: Vec<f64>,
}

/// One executed run: the grid cell plus everything it produced.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The grid cell.
    pub run: MaterializedRun,
    /// The experiment log (identical in shape for both drivers).
    pub log: ExperimentLog,
    /// The TTA target accuracy this run is judged against in either mode:
    /// `[sim] target_acc`, else the workload's calibrated target.
    pub target_acc: f64,
    /// Virtual-clock extras (sim mode only).
    pub sim: Option<SimMeta>,
    /// This run's telemetry capture ([`execute_traced`] only; empty when
    /// the collector is not compiled in).
    pub capture: Option<fedbiad_telemetry::Capture>,
}

/// One bundle per distinct (workload, seed): in shared-seed mode every
/// method/policy cell reuses the same data, exactly like the legacy
/// binaries that build once per workload. Per-run seed mode can imply
/// as many bundles as runs, so assembly is parallel too (through the
/// same deterministic shim — build order cannot affect contents; each
/// bundle is a pure function of its key).
fn build_bundles(
    spec: &ScenarioSpec,
    runs: &[MaterializedRun],
) -> HashMap<(&'static str, u64), Arc<WorkloadBundle>> {
    let overrides = WorkloadOverrides {
        image_partition: spec.partition.clone(),
        population: spec.population.map(|p| PopulationOverride {
            clients: p.clients,
            samples_per_client: p.samples_per_client,
        }),
    };
    let mut distinct: Vec<(Workload, u64)> = Vec::new();
    for r in runs {
        if !distinct
            .iter()
            .any(|&(w, s)| w == r.workload && s == r.opts.seed)
        {
            distinct.push((r.workload, r.opts.seed));
        }
    }
    let built: Vec<Arc<WorkloadBundle>> = distinct
        .par_iter()
        .map(|&(w, seed)| Arc::new(build_with(w, spec.run.scale, seed, &overrides)))
        .collect();
    distinct
        .iter()
        .zip(built)
        .map(|(&(w, seed), b)| ((w.name(), seed), b))
        .collect()
}

/// Expand `spec` and execute every run; outcomes come back in grid
/// order regardless of scheduling.
pub fn execute(spec: &ScenarioSpec) -> Result<Vec<RunOutcome>, SpecError> {
    let runs = expand(spec)?;
    let bundles = build_bundles(spec, &runs);
    let outcomes: Vec<RunOutcome> = runs
        .par_iter()
        .map(|r| {
            let bundle = &bundles[&(r.workload.name(), r.opts.seed)];
            execute_one(spec, r, bundle)
        })
        .collect();
    Ok(outcomes)
}

/// Like [`execute`], but capture one telemetry trace per run.
///
/// Runs execute **serially** here: the normal parallel engine shares its
/// worker pool across runs, which would make per-run event attribution
/// impossible. Serial execution changes scheduling only — results are
/// bit-identical to [`execute`] by the workspace determinism contract —
/// and worker-thread spans recorded inside a run's window land in that
/// run's capture.
pub fn execute_traced(spec: &ScenarioSpec) -> Result<Vec<RunOutcome>, SpecError> {
    let runs = expand(spec)?;
    // Bundle assembly happens outside any capture window: it is shared
    // setup, not attributable to a single run.
    let bundles = build_bundles(spec, &runs);
    let mut outcomes = Vec::with_capacity(runs.len());
    for (i, r) in runs.iter().enumerate() {
        let bundle = &bundles[&(r.workload.name(), r.opts.seed)];
        fedbiad_telemetry::begin_capture();
        let mut out = {
            let _run_span = fedbiad_telemetry::span!("run", index = i);
            execute_one(spec, r, bundle)
        };
        out.capture = Some(fedbiad_telemetry::end_capture());
        outcomes.push(out);
    }
    Ok(outcomes)
}

fn execute_one(spec: &ScenarioSpec, run: &MaterializedRun, bundle: &WorkloadBundle) -> RunOutcome {
    let target_acc = spec.target_acc.unwrap_or(bundle.target_acc);
    match run.mode {
        Mode::Lockstep => RunOutcome {
            run: run.clone(),
            log: run_method_composed(run.method, bundle, run.opts, run.compressor),
            target_acc,
            sim: None,
            capture: None,
        },
        Mode::Sim => {
            let policy = run.policy.expect("sim run has a policy");
            let profile = run.profile.expect("sim run has a profile");
            let report = run_sim_method_composed(
                run.method,
                bundle,
                run.opts,
                policy,
                profile.resolve(spec.network),
                run.compressor,
            );
            let sim = SimMeta {
                policy: report.policy.clone(),
                profile: report.profile.clone(),
                tta_virtual_seconds: report.time_to_accuracy(target_acc),
                total_virtual_seconds: report.total_virtual_seconds,
                round_end_seconds: report.round_end_seconds.clone(),
            };
            RunOutcome {
                run: run.clone(),
                log: report.log,
                target_acc,
                sim: Some(sim),
                capture: None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    #[test]
    fn lockstep_and_sim_modes_both_execute() {
        let spec = ScenarioSpec::from_toml_str(
            "name = \"t\"\n[run]\nrounds = 2\nscale = \"smoke\"\nfraction = 0.5\n\
             [sweep]\nworkload = \"mnist\"\nmethod = \"fedavg\"\n",
        )
        .unwrap();
        let out = execute(&spec).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].log.records.len(), 2);
        assert!(out[0].sim.is_none());

        let spec = ScenarioSpec::from_toml_str(
            "name = \"t\"\nmode = \"sim\"\n[run]\nrounds = 2\nscale = \"smoke\"\n\
             fraction = 0.5\n[sweep]\nworkload = \"mnist\"\nmethod = \"fedavg\"\n\
             policy = \"fedbuff\"\nprofile = \"stragglers\"\n",
        )
        .unwrap();
        let out = execute(&spec).unwrap();
        let sim = out[0].sim.as_ref().expect("sim meta");
        assert!(sim.total_virtual_seconds > 0.0);
        assert_eq!(sim.round_end_seconds.len(), out[0].log.records.len());
    }

    #[test]
    fn custom_network_reaches_the_virtual_clock() {
        let base = "name = \"t\"\nmode = \"sim\"\n[run]\nrounds = 2\nscale = \"smoke\"\n\
                    fraction = 0.5\n[sweep]\nworkload = \"mnist\"\nmethod = \"fedavg\"\n";
        let fast = ScenarioSpec::from_toml_str(base).unwrap();
        let slow =
            ScenarioSpec::from_toml_str(&format!("{base}[network]\nrtt_seconds = 5.0\n")).unwrap();
        let t_fast = execute(&fast).unwrap()[0]
            .sim
            .as_ref()
            .unwrap()
            .total_virtual_seconds;
        let t_slow = execute(&slow).unwrap()[0]
            .sim
            .as_ref()
            .unwrap()
            .total_virtual_seconds;
        // Each round pays ≥ 2·RTT on the virtual clock.
        assert!(t_slow > t_fast + 10.0, "{t_fast} vs {t_slow}");
    }
}
