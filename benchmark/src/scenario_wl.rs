//! The three scenario workloads: `lockstep_text`, `sim_image`,
//! `million_sparse`.
//!
//! End-to-end mode times `fedbiad_scenario::execute(&spec)` — the call
//! the `scenario` binary makes. Traced mode re-runs the same grid through
//! a harness [`AlgorithmVisitor`] that wraps the public traits in the
//! [`crate::timed`] wrappers, then replays the calls the wrappers cannot
//! see (`select`, `profile_for`, lazy shard derivation) with the inputs
//! the run used.

use crate::report::{Checks, Report};
use crate::set_worker_threads;
use crate::stats::{median_setup_s, Fnv, Recorder};
use crate::timed::{TimedAlgo, TimedModel, TimedPolicy};
use fedbiad_fl::round::{resolve_cohort, sample_clients_with};
use fedbiad_fl::runner::ExperimentConfig;
use fedbiad_fl::workload::{
    build_with, PopulationOverride, Workload, WorkloadBundle, WorkloadOverrides,
};
use fedbiad_fl::{Experiment, ExperimentLog, FlAlgorithm};
use fedbiad_scenario::methods::{with_algorithm, AlgorithmVisitor};
use fedbiad_scenario::simrun::nominal_round_seconds;
use fedbiad_scenario::{execute, expand, MaterializedRun, Mode, Overrides, ScenarioSpec};
use fedbiad_sim::{HeterogeneityProfile, ServerPolicy, SimConfig, Simulator};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// The spec template of a scenario workload, `None` for any other name.
pub fn template(workload: &str) -> Option<&'static str> {
    match workload {
        "lockstep_text" => Some(include_str!("../workloads/lockstep_text.toml")),
        "sim_image" => Some(include_str!("../workloads/sim_image.toml")),
        "million_sparse" => Some(include_str!("../workloads/million_sparse.toml")),
        _ => None,
    }
}

/// What one grid cell produced, in the shape both execution paths share.
pub struct Cell {
    /// Grid label, e.g. `mnist-like/FedBIAD@fedbuff[stragglers]`.
    pub label: String,
    /// The experiment log.
    pub log: ExperimentLog,
    /// Virtual time when the simulation stopped (sim mode only).
    pub virtual_s: Option<f64>,
}

/// Parse the template and write `seed` into `[run] seed`; the program
/// only ever sees the resulting spec.
pub fn load_spec(toml: &str, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::from_toml_str(toml).expect("workload template must parse");
    let seeded = Overrides {
        seed: Some(seed),
        ..Default::default()
    };
    spec.apply_overrides(&seeded)
        .expect("seeded template must validate");
    spec
}

/// One bundle per distinct (workload, seed), as `execute` builds them.
fn build_bundles(
    spec: &ScenarioSpec,
    runs: &[MaterializedRun],
    rec: &Recorder,
) -> Vec<((Workload, u64), WorkloadBundle)> {
    let overrides = WorkloadOverrides {
        image_partition: spec.partition.clone(),
        population: spec.population.map(|p| PopulationOverride {
            clients: p.clients,
            samples_per_client: p.samples_per_client,
        }),
    };
    let mut bundles: Vec<((Workload, u64), WorkloadBundle)> = Vec::new();
    for r in runs {
        let key = (r.workload, r.opts.seed);
        if bundles.iter().all(|(k, _)| *k != key) {
            let bundle = rec.time("data.build", || {
                build_with(r.workload, spec.run.scale, r.opts.seed, &overrides)
            });
            bundles.push((key, bundle));
        }
    }
    bundles
}

fn bundle_of<'a>(
    bundles: &'a [((Workload, u64), WorkloadBundle)],
    run: &MaterializedRun,
) -> &'a WorkloadBundle {
    let key = (run.workload, run.opts.seed);
    &bundles
        .iter()
        .find(|(k, _)| *k == key)
        .expect("a bundle per run")
        .1
}

/// FNV-1a over the canonical form of `tests/golden_trace.rs`: labels plus
/// per-round losses/accuracy as raw bits and the byte counts; wall-clock
/// and RSS fields stay out.
pub fn digest<'a>(cells: impl IntoIterator<Item = &'a Cell>) -> u64 {
    let mut canon = String::new();
    for c in cells {
        canon.push_str(&format!(
            "run={};dataset={};method={};seed={};",
            c.label, c.log.dataset, c.log.method, c.log.seed
        ));
        for r in &c.log.records {
            canon.push_str(&format!(
                "round={};train={:08x};test_loss={:016x};test_acc={:016x};up_mean={};up_max={};down={};",
                r.round,
                r.train_loss.to_bits(),
                r.test_loss.to_bits(),
                r.test_acc.to_bits(),
                r.upload_bytes_mean,
                r.upload_bytes_max,
                r.download_bytes,
            ));
        }
    }
    let mut h = Fnv::new();
    h.write(canon.as_bytes());
    h.0
}

/// One untraced repetition: `execute(&spec)`, timed.
fn execute_rep(spec: &ScenarioSpec) -> (f64, Vec<Cell>) {
    let t0 = Instant::now();
    let outcomes = execute(spec).expect("workload spec must execute");
    let wall = t0.elapsed().as_secs_f64();
    let cells = outcomes
        .into_iter()
        .map(|o| Cell {
            label: o.run.label,
            log: o.log,
            virtual_s: o.sim.map(|s| s.total_virtual_seconds),
        })
        .collect();
    (wall, cells)
}

/// Per-cell checks: the grid cell is one operation, and it must hold a
/// record per round with finite losses (a round nobody contributed to has
/// no training loss by definition).
fn check_cells<'a>(cells: impl IntoIterator<Item = &'a Cell>, rounds: usize, checks: &mut Checks) {
    for c in cells {
        let finite =
            c.log.records.iter().all(|r| {
                r.test_loss.is_finite() && (r.contributors == 0 || r.train_loss.is_finite())
            });
        checks.check(c.log.records.len() == rounds && finite, || {
            format!(
                "cell {}: {} of {rounds} records, finite losses: {finite}",
                c.label,
                c.log.records.len()
            )
        });
    }
}

/// Σ contributors: client uploads committed into a global model.
fn updates(cells: &[Cell]) -> u64 {
    cells
        .iter()
        .flat_map(|c| &c.log.records)
        .map(|r| r.contributors as u64)
        .sum()
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.collect();
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Mean over cells of the last round's test accuracy, in percent.
fn final_acc_pct(cells: &[Cell]) -> f64 {
    mean(cells.iter().map(|c| c.log.final_accuracy_pct()))
}

/// Mean over sim cells of virtual seconds per round: the simulator's
/// modelled round time under the link/compute profiles (0 for the
/// lock-step runner, which has no virtual clock).
fn virtual_s_per_round(cells: &[Cell]) -> f64 {
    mean(cells.iter().filter_map(|c| {
        c.virtual_s
            .map(|total| total / c.log.records.len().max(1) as f64)
    }))
}

/// `--trace 0`: set-up as a user pays it before the first round (parse +
/// validate + expand + one bundle per distinct (workload, seed)), then
/// closed-loop repetitions of `execute(&spec)` on one worker thread.
pub fn run_e2e(toml: &str, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let (setup_s, spec) = median_setup_s(|| {
        let spec = load_spec(toml, seed);
        let runs = expand(&spec).expect("workload spec must expand");
        black_box(build_bundles(&spec, &runs, &Recorder::new()));
        spec
    });
    report.set("setup_s", setup_s);

    let (wall_s, cells) = report.measure_reps("execute(&spec)", seconds, |checks| {
        let (wall, cells) = execute_rep(&spec);
        check_cells(&cells, spec.run.rounds, checks);
        (wall, digest(&cells), cells)
    });
    report.set("updates_per_s", updates(&cells) as f64 / wall_s);
    report.set(
        "uplink_bytes_per_update",
        mean(cells.iter().map(|c| c.log.mean_upload_bytes() as f64)),
    );
    println!(
        "ungated (their spread over seeds exceeds any bound the driver accepts; traced mode \
         reports them as scenario.*): final_acc_pct {:.4} %, virtual_s_per_round {:.4} s",
        final_acc_pct(&cells),
        virtual_s_per_round(&cells)
    );
    report
}

/// What the wrappers saw in one traced grid cell.
pub struct TracedCell {
    /// The cell's results.
    pub cell: Cell,
    /// Wall clock of the cell.
    pub wall_s: f64,
    /// The cell's spans.
    pub rec: Recorder,
    /// `(round, client)` of every dispatched local update.
    pub dispatched: Vec<(usize, usize)>,
}

/// The experiment configuration `scenario::methods`/`simrun` derive for a
/// run. Duplicated from there on purpose: the traced digest check fails
/// the moment the two drift apart.
fn experiment_config(run: &MaterializedRun, bundle: &WorkloadBundle) -> ExperimentConfig {
    let opts = &run.opts;
    let mut train = bundle.train;
    if let Some(bs) = opts.batch_size {
        train.batch_size = bs;
    }
    ExperimentConfig {
        rounds: opts.rounds,
        client_fraction: opts.client_fraction,
        seed: opts.seed,
        train,
        eval_topk: bundle.eval_topk,
        eval_every: opts.eval_every,
        eval_max_samples: opts.eval_max_samples,
        agg: opts.agg,
        cohort: opts.cohort,
        sampler: opts.sampler,
        adversary: opts.adversary,
        churn: opts.churn,
    }
}

/// Receives the constructed algorithm and drives it through the wrapped
/// model / algorithm / policy.
struct TracedDriver<'a> {
    bundle: &'a WorkloadBundle,
    cfg: ExperimentConfig,
    /// Policy + simulator config (sim mode only).
    sim: Option<(Box<dyn ServerPolicy>, SimConfig)>,
    rec: &'a Recorder,
    dispatched: &'a Mutex<Vec<(usize, usize)>>,
}

impl AlgorithmVisitor for TracedDriver<'_> {
    type Out = (ExperimentLog, Option<f64>);

    fn visit<A: FlAlgorithm>(self, algo: A) -> Self::Out {
        let model = TimedModel {
            inner: self.bundle.model.as_ref(),
            rec: self.rec,
        };
        let algo = TimedAlgo {
            inner: algo,
            rec: self.rec,
            dispatched: self.dispatched,
        };
        let data = &self.bundle.data;
        match self.sim {
            None => (Experiment::new(&model, data, algo, self.cfg).run(), None),
            Some((policy, sim_cfg)) => {
                let policy = TimedPolicy {
                    inner: policy,
                    rec: self.rec,
                };
                let report = Simulator::new(&model, data, algo, policy, sim_cfg).run();
                (report.log, Some(report.total_virtual_seconds))
            }
        }
    }
}

fn resolved_profile(spec: &ScenarioSpec, run: &MaterializedRun) -> Option<HeterogeneityProfile> {
    run.profile.map(|p| p.resolve(spec.network))
}

/// One traced repetition: the same grid, cell by cell, through the
/// wrappers. Returns the region's wall clock, the region-level recorder
/// (bundle builds) and the cells.
pub fn traced_rep(spec: &ScenarioSpec) -> (f64, Recorder, Vec<TracedCell>) {
    let region = Recorder::new();
    let t0 = Instant::now();
    let runs = expand(spec).expect("workload spec must expand");
    let bundles = build_bundles(spec, &runs, &region);
    let mut cells = Vec::with_capacity(runs.len());
    for run in &runs {
        let bundle = bundle_of(&bundles, run);
        let rec = Recorder::new();
        let dispatched = Mutex::new(Vec::new());
        let c0 = Instant::now();
        let cfg = experiment_config(run, bundle);
        let sim = match run.mode {
            Mode::Lockstep => None,
            Mode::Sim => {
                let profile = resolved_profile(spec, run).expect("sim run has a profile");
                let sim_cfg = SimConfig::new(cfg, profile);
                let cohort =
                    resolve_cohort(bundle.data.num_clients(), cfg.client_fraction, cfg.cohort)
                        .expect("cohort configuration invalid");
                let policy = run
                    .policy
                    .expect("sim run has a policy")
                    .build(cohort, nominal_round_seconds(bundle, &sim_cfg.cost));
                Some((policy, sim_cfg))
            }
        };
        let driver = TracedDriver {
            bundle,
            cfg,
            sim,
            rec: &rec,
            dispatched: &dispatched,
        };
        let p = run.opts.dropout_override.unwrap_or(bundle.dropout_rate);
        let (log, virtual_s) = with_algorithm(
            run.method,
            p,
            run.opts.stage_boundary,
            run.compressor,
            driver,
        );
        cells.push(TracedCell {
            cell: Cell {
                label: run.label.clone(),
                log,
                virtual_s,
            },
            wall_s: c0.elapsed().as_secs_f64(),
            rec,
            dispatched: dispatched
                .into_inner()
                .expect("dispatch log mutex poisoned"),
        });
    }
    (t0.elapsed().as_secs_f64(), region, cells)
}

/// Replay, with the inputs the traced run used, the calls that happen
/// inside the runner/simulator where no wrapper reaches: cohort
/// selection once per round, and per dispatched client the shard lookup
/// and (sim mode) the heterogeneity profile. Their time is a slice of
/// `trace.unattributed_s`, measured here outside the traced region.
fn replay_hidden_layers(spec: &ScenarioSpec, cells: &[TracedCell], rec: &Recorder) {
    let runs = expand(spec).expect("workload spec must expand");
    let bundles = build_bundles(spec, &runs, &Recorder::new());
    for (run, traced) in runs.iter().zip(cells) {
        let bundle = bundle_of(&bundles, run);
        let opts = &run.opts;
        let k = bundle.data.num_clients();
        let cohort = resolve_cohort(k, opts.client_fraction, opts.cohort)
            .expect("cohort configuration invalid");
        for round in 0..opts.rounds {
            rec.time("fl.select", || {
                black_box(sample_clients_with(
                    opts.sampler,
                    opts.seed,
                    round,
                    k,
                    cohort,
                ))
            });
        }
        let profile = resolved_profile(spec, run);
        for &(_, client) in &traced.dispatched {
            rec.time("data.client_shard", || {
                black_box(bundle.data.client(client).num_samples())
            });
            if let Some(profile) = &profile {
                rec.time("sim.profile_for", || {
                    black_box(profile.profile_for(opts.seed, client))
                });
            }
        }
    }
}

/// `--trace 1`: one untraced reference repetition, traced repetitions
/// while the budget lasts, the replays, and one ungated repetition at the
/// machine's full width.
pub fn run_traced(toml: &str, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let budget = Instant::now();
    let t0 = Instant::now();
    let spec = load_spec(toml, seed);
    black_box(expand(&spec).expect("workload spec must expand"));
    report.set("scenario.spec_load.busy_s", t0.elapsed().as_secs_f64());

    let (ref_wall, ref_cells) = execute_rep(&spec);
    check_cells(&ref_cells, spec.run.rounds, &mut report.checks);
    let ref_digest = digest(&ref_cells);
    report.set("scenario.final_acc_pct", final_acc_pct(&ref_cells));
    report.set(
        "scenario.virtual_s_per_round",
        virtual_s_per_round(&ref_cells),
    );

    // Traced repetitions: always one, more only while a further one plus
    // the parallel leg still fit in the budget.
    let total = Recorder::new();
    let mut trace_walls = Vec::new();
    let mut cell_walls = Vec::new();
    let mut last_cells;
    loop {
        let (wall, region, cells) = traced_rep(&spec);
        trace_walls.push(wall);
        total.absorb(&region);
        for c in &cells {
            total.absorb(&c.rec);
            cell_walls.push(c.wall_s);
        }
        let plain = || cells.iter().map(|c| &c.cell);
        check_cells(plain(), spec.run.rounds, &mut report.checks);
        let d = digest(plain());
        report.checks.check(d == ref_digest, || {
            format!("traced digest {d:#018x} != untraced digest {ref_digest:#018x}")
        });
        last_cells = cells;
        if budget.elapsed().as_secs_f64() + 2.0 * wall > seconds {
            break;
        }
    }
    let reps = trace_walls.len();
    let trace_wall = trace_walls.iter().sum::<f64>() / reps as f64;

    println!("traced cells (last of {reps} traced repetition(s)):");
    println!(
        "  {:<44} {:>8} {:>13} {:>13} {:>12} {:>10}",
        "cell", "wall_s", "local_upd_s", "local_self_s", "loss_grad_s", "agg_s"
    );
    for c in &last_cells {
        println!(
            "  {:<44} {:>8.3} {:>13.3} {:>13.3} {:>12.3} {:>10.4}",
            c.cell.label,
            c.wall_s,
            c.rec.get("core.local_update").busy_s(),
            c.rec.get("core.local_update").self_s(),
            c.rec.get("nn.loss_grad").busy_s(),
            c.rec.get("core.aggregate").busy_s(),
        );
    }

    // The identity: layer self times + unattributed = traced wall. Self
    // times are sound when they sum to the root spans' durations, and the
    // remainder must be a real (non-negative) slice of the wall clock.
    let self_s = total.total_self_s() / reps as f64;
    let root_s = total.total_root_s() / reps as f64;
    let unattributed = trace_wall - self_s;
    report
        .checks
        .check((self_s - root_s).abs() <= 0.01 * trace_wall, || {
            format!("Σ self {self_s:.6} s != Σ root spans {root_s:.6} s")
        });
    report.checks.check(unattributed >= 0.0, || {
        format!("Σ self {self_s:.6} s exceeds the traced wall {trace_wall:.6} s")
    });
    println!(
        "identity: Σ layer self {self_s:.4} s + unattributed {unattributed:.4} s = traced wall \
         {trace_wall:.4} s (mean of {reps}); untraced reference {ref_wall:.4} s"
    );

    report.set_spans(
        &total,
        &[
            "nn.loss_grad",
            "nn.evaluate",
            "core.local_update",
            "core.aggregate",
            "core.begin_round",
            "core.eval_params",
            "sim.policy_react",
            "data.build",
        ],
        reps,
    );
    report.set("scenario.cell.calls", (cell_walls.len() / reps) as f64);
    report.set(
        "scenario.cell.busy_s",
        cell_walls.iter().sum::<f64>() / reps as f64,
    );
    report.set("trace.wall_s", trace_wall);
    report.set("trace.unattributed_s", unattributed);
    report.set(
        "trace.overhead_pct",
        (trace_wall - ref_wall) / ref_wall * 100.0,
    );

    let replays = Recorder::new();
    replay_hidden_layers(&spec, &last_cells, &replays);
    report.set_spans(
        &replays,
        &["fl.select", "data.client_shard", "sim.profile_for"],
        1,
    );

    // Ungated: the same repetition at the machine's full width. On a small
    // shared box this does not repeat within a tenth — it answers "does the
    // pool scale at all", not "did this change help".
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    set_worker_threads(width);
    let (par_wall, par_cells) = execute_rep(&spec);
    set_worker_threads(1);
    let d = digest(&par_cells);
    report.checks.check(d == ref_digest, || {
        format!("{width}-thread digest {d:#018x} != 1-thread digest {ref_digest:#018x}")
    });
    println!(
        "parallel leg (ungated, does not repeat within a tenth on a shared box): {par_wall:.3} s \
         at effective width {width} vs {ref_wall:.3} s at 1"
    );
    report.set("scenario.par_wall_s", par_wall);
    report.set("scenario.par_width", width as f64);
    report.set("scenario.par_speedup_x", ref_wall / par_wall);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOCKSTEP_SMOKE: &str = "name = \"t\"\n[run]\nrounds = 2\nscale = \"smoke\"\n\
        fraction = 0.5\n[sweep]\nworkload = \"mnist\"\nmethod = [\"fedavg\", \"fedbiad\"]\n\
        [fedbiad]\nstage_boundary = 1\n[aggregation]\nstreaming = true\n";

    const SIM_SMOKE: &str = "name = \"t\"\nmode = \"sim\"\n[run]\nrounds = 2\n\
        scale = \"smoke\"\nfraction = 0.5\n[sweep]\nworkload = \"mnist\"\n\
        method = [\"fedbiad\", \"dgc\"]\npolicy = [\"sync\", \"deadline\", \"fedbuff\"]\n\
        profile = \"stragglers\"\n[aggregation]\nstreaming = true\nrobust = \"trimmed_mean\"\n\
        trim_frac = 0.2\n[adversary]\nfraction = 0.2\nmode = \"sign_flip\"\n\
        [churn]\noffline = 0.1\ndropout = 0.1\n";

    /// The wrappers must be inert: same grid, same digest, in both drivers.
    #[test]
    fn timed_wrappers_leave_the_digest_unchanged() {
        for toml in [LOCKSTEP_SMOKE, SIM_SMOKE] {
            let spec = load_spec(toml, 11);
            let (_, plain) = execute_rep(&spec);
            let (_, _, traced) = traced_rep(&spec);
            assert_eq!(plain.len(), traced.len());
            assert_eq!(digest(&plain), digest(traced.iter().map(|c| &c.cell)));
            for (p, t) in plain.iter().zip(&traced) {
                assert_eq!(
                    p.virtual_s.map(f64::to_bits),
                    t.cell.virtual_s.map(f64::to_bits)
                );
                assert!(t.rec.get("core.local_update").calls > 0, "{}", t.cell.label);
                assert_eq!(
                    t.rec.get("core.local_update").calls as usize,
                    t.dispatched.len()
                );
            }
        }
    }

    /// A different seed is a different input.
    #[test]
    fn the_seed_reaches_the_spec() {
        let (a, b) = (load_spec(SIM_SMOKE, 1), load_spec(SIM_SMOKE, 2));
        assert_eq!((a.run.seed, b.run.seed), (1, 2));
        assert_ne!(digest(&execute_rep(&a).1), digest(&execute_rep(&b).1));
    }

    /// Σ layer self times + unattributed = wall: on one worker thread every
    /// span lies on the calling thread, so self times sum to the root
    /// spans and the root spans fit inside the region's wall clock.
    #[test]
    fn self_times_sum_to_root_spans_inside_the_wall_clock() {
        set_worker_threads(1);
        let spec = load_spec(SIM_SMOKE, 5);
        let (wall, region, cells) = traced_rep(&spec);
        let total = Recorder::new();
        total.absorb(&region);
        for c in &cells {
            total.absorb(&c.rec);
        }
        let (self_s, root_s) = (total.total_self_s(), total.total_root_s());
        assert!(
            (self_s - root_s).abs() <= 1e-9 * root_s.max(1.0),
            "{self_s} vs {root_s}"
        );
        assert!(
            self_s > 0.0 && self_s <= wall,
            "Σ self {self_s} s, wall {wall} s"
        );
        // nn time is nested inside the client update, never beside it.
        let (upd, grad) = (total.get("core.local_update"), total.get("nn.loss_grad"));
        assert_eq!(upd.self_ns, upd.busy_ns - grad.busy_ns);
    }

    #[test]
    fn every_scenario_template_parses_and_expands() {
        for (name, cells) in [
            ("lockstep_text", 3),
            ("sim_image", 6),
            ("million_sparse", 2),
        ] {
            let spec = load_spec(template(name).expect(name), 9);
            assert_eq!(spec.name, name);
            assert_eq!(expand(&spec).expect(name).len(), cells);
        }
        assert!(template("server_reduce").is_none());
    }
}
