//! Acceptance regression for the scenario engine: executing the bundled
//! `scenarios/fig2.toml` spec must reproduce the legacy `fig2` code path
//! — `build()` once, then `run_method()` per method with shared seed —
//! **byte-for-byte** in the serialized `ExperimentLog` JSON.
//!
//! Wall-clock caveat: the lock-step runner measures `local_seconds_*`
//! and `agg_seconds` with `Instant::now()`, and the repository's
//! reproducibility contract (README) explicitly excludes those fields —
//! as it does `peak_rss_bytes`, a process-wide high-water mark sampled
//! at record time. They are zeroed on both sides before comparing; every
//! other byte — losses, accuracies, upload/download bytes, round
//! indices, config ids — must match exactly. The sim-mode comparison
//! (`sim_tta.toml`) has a fully virtual clock, so there the JSON must
//! match with no exclusions beyond the RSS sample.

use fedbiad::fl::round::{resolve_cohort, sample_clients_with};
use fedbiad::fl::workload::{build, build_with, Scale, Workload, WorkloadOverrides};
use fedbiad::fl::ExperimentLog;
use fedbiad::scenario::{execute, run_method, run_sim_method, Overrides, RunOpts, ScenarioSpec};
use std::path::Path;

fn bundled(name: &str) -> ScenarioSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(name);
    ScenarioSpec::from_path(&path).expect("bundled spec is valid")
}

/// Zero the wall-clock-only fields (see module docs).
fn strip_wall_clock(log: &mut ExperimentLog) {
    for r in &mut log.records {
        r.local_seconds_mean = 0.0;
        r.local_seconds_max = 0.0;
        r.agg_seconds = 0.0;
        r.peak_rss_bytes = 0;
        r.rss_bytes = 0;
    }
}

/// Zero only the RSS samples — sim logs are otherwise fully virtual.
fn strip_rss(log: &mut ExperimentLog) {
    for r in &mut log.records {
        r.peak_rss_bytes = 0;
        r.rss_bytes = 0;
    }
}

#[test]
fn fig2_spec_reproduces_the_legacy_binary_byte_for_byte() {
    // Shrink to test scale exactly the way the binary's flags would.
    let mut spec = bundled("fig2.toml");
    spec.apply_overrides(&Overrides {
        rounds: Some(3),
        scale: Some(fedbiad::fl::workload::Scale::Smoke),
        eval_max: Some(500),
        ..Default::default()
    })
    .unwrap();

    let engine_logs: Vec<ExperimentLog> =
        execute(&spec).unwrap().into_iter().map(|o| o.log).collect();

    // The legacy fig2 main(): one bundle for the run seed, every method
    // on the same seed and options.
    let bundle = build(spec.sweep.workloads[0], spec.run.scale, spec.run.seed);
    let legacy_logs: Vec<ExperimentLog> = spec
        .sweep
        .methods
        .iter()
        .map(|&m| {
            let mut opts = RunOpts::for_rounds(spec.run.rounds, spec.run.seed);
            opts.eval_max_samples = spec.run.eval_max;
            run_method(m, &bundle, opts)
        })
        .collect();

    assert_eq!(engine_logs.len(), legacy_logs.len());
    assert_eq!(engine_logs.len(), 5, "fig2 sweeps five methods");
    for (mut a, mut b) in engine_logs.into_iter().zip(legacy_logs) {
        strip_wall_clock(&mut a);
        strip_wall_clock(&mut b);
        let ja = serde_json::to_string(&a).unwrap();
        let jb = serde_json::to_string(&b).unwrap();
        assert_eq!(ja, jb, "engine and legacy logs diverge for {}", a.method);
    }
}

#[test]
fn sim_tta_spec_reproduces_the_legacy_sim_runner_with_no_exclusions() {
    let mut spec = bundled("sim_tta.toml");
    spec.apply_overrides(&Overrides {
        rounds: Some(2),
        scale: Some(fedbiad::fl::workload::Scale::Smoke),
        eval_max: Some(500),
        fraction: Some(0.5),
        methods: Some(vec![fedbiad::scenario::Method::FedAvg]),
        profiles: Some(vec![fedbiad::scenario::ProfileChoice::Stragglers]),
        ..Default::default()
    })
    .unwrap();

    let outcomes = execute(&spec).unwrap();
    assert_eq!(outcomes.len(), 3, "one run per policy");

    let bundle = build(spec.sweep.workloads[0], spec.run.scale, spec.run.seed);
    for o in outcomes {
        let mut opts = RunOpts::for_rounds(spec.run.rounds, spec.run.seed);
        opts.eval_max_samples = spec.run.eval_max;
        opts.client_fraction = spec.run.fraction;
        let mut report = run_sim_method(
            o.run.method,
            &bundle,
            opts,
            o.run.policy.unwrap(),
            o.run.profile.unwrap().resolve(None),
        );
        // Virtual clock ⇒ the whole log (timing fields included) must be
        // byte-identical; only the process-RSS sample is excluded.
        let mut engine_log = o.log;
        strip_rss(&mut engine_log);
        strip_rss(&mut report.log);
        assert_eq!(
            serde_json::to_string(&engine_log).unwrap(),
            serde_json::to_string(&report.log).unwrap(),
            "sim engine diverges under policy {}",
            report.policy
        );
        let sim = o.sim.expect("sim meta");
        assert_eq!(sim.round_end_seconds, report.round_end_seconds);
        assert_eq!(sim.total_virtual_seconds, report.total_virtual_seconds);
    }
}

/// A valid spec used to die in `run_local_training` ("client has no
/// data"): Dirichlet(0.01) over the smoke pool hands some of the 8
/// clients zero samples. Such a client is skipped like an offline one —
/// every round commits, in both drivers, over exactly the selected
/// clients that hold data.
#[test]
fn a_selected_client_with_an_empty_shard_is_skipped_not_a_panic() {
    let mut skipped = 0;
    for mode in ["lockstep", "sim"] {
        for seed in [42, 1, 2] {
            let spec = ScenarioSpec::from_toml_str(&format!(
                r#"
name = "empty_shard"
mode = "{mode}"

[run]
rounds = 2
seed = {seed}
scale = "smoke"

[sweep]
workload = "mnist"
method = "fedavg"

[partition]
kind = "dirichlet"
alpha = 0.01
"#
            ))
            .expect("inline spec must parse");
            let outcomes = execute(&spec).expect("an empty shard must not abort the run");
            assert_eq!(outcomes.len(), 1);
            let (log, opts) = (&outcomes[0].log, &outcomes[0].run.opts);
            assert_eq!(log.records.len(), 2, "{mode}/{seed}: every round commits");

            let overrides = WorkloadOverrides {
                image_partition: spec.partition.clone(),
                ..Default::default()
            };
            let data = build_with(Workload::MnistLike, Scale::Smoke, opts.seed, &overrides).data;
            let k = data.num_clients();
            let cohort = resolve_cohort(k, opts.client_fraction, opts.cohort).unwrap();
            for rec in &log.records {
                let selected = sample_clients_with(opts.sampler, opts.seed, rec.round, k, cohort);
                let holding = selected
                    .iter()
                    .filter(|&&c| data.client(c).num_samples() > 0)
                    .count();
                assert_eq!(
                    rec.contributors, holding,
                    "{mode}/{seed}, round {}",
                    rec.round
                );
                skipped += selected.len() - holding;
            }
        }
    }
    assert!(
        skipped > 0,
        "no selected client was empty — the test is vacuous"
    );
}
