//! Golden-trace regression: a pinned content digest of the 2-round
//! `scenarios/fig2.toml` run (smoke scale, the exact CI smoke
//! configuration), so any kernel or engine change that drifts numerics —
//! however slightly — fails loudly instead of silently shifting every
//! figure.
//!
//! Wall-clock fields (`local_seconds_*`, `agg_seconds`) are genuinely
//! non-deterministic and are zeroed out of the digest, matching the
//! repo's log-comparison contract (README / `tests/scenario_equivalence.rs`).
//! Everything else — losses, accuracies, byte accounting, run labels and
//! ordering — feeds an FNV-1a hash over the raw f32/f64 bits, so the
//! digest is independent of float formatting.
//!
//! # Updating the pinned digest
//!
//! If you change numerics **on purpose** (new initialisation, a different
//! association order in a kernel, a workload tweak), this test will fail
//! with the newly computed digest in the panic message:
//!
//! 1. verify the change is intentional and justified (the differential
//!    suite `tests/batched_equivalence.rs` must still pass — batched and
//!    per-sample paths have to move *together*);
//! 2. replace `GOLDEN_DIGEST` below with the printed value;
//! 3. call out the numeric drift explicitly in the PR description.
//!
//! A failure here with *no* intentional numeric change means a kernel
//! regression — do not update the constant; find the bug.

use fedbiad::scenario::{execute, Overrides, RunOutcome, ScenarioSpec};
use std::path::Path;

/// Pinned digest of the 2-round smoke fig2 trace (see module docs for
/// the update procedure).
const GOLDEN_DIGEST: u64 = 0x1A87_6F23_7413_C9FE;

/// FNV-1a, the same primitive the scenario engine uses for spec hashes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The CI smoke configuration: 2 rounds, smoke scale, 200 eval samples.
fn smoke_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::from_path(Path::new("scenarios/fig2.toml"))
        .expect("bundled fig2 spec must load");
    spec.apply_overrides(&Overrides {
        rounds: Some(2),
        scale: Some(fedbiad::fl::workload::Scale::Smoke),
        eval_max: Some(200),
        ..Default::default()
    })
    .expect("overrides must validate");
    spec
}

/// Canonical byte string: run labels in grid order, then per round the
/// deterministic fields as raw bits; wall-clock and RSS fields zeroed
/// (i.e. omitted — appending zeros would add no information).
fn digest_of(outcomes: &[RunOutcome]) -> u64 {
    let mut canon = String::new();
    for o in outcomes {
        canon.push_str(&format!(
            "run={};dataset={};method={};seed={};",
            o.run.label, o.log.dataset, o.log.method, o.log.seed
        ));
        for r in &o.log.records {
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
    fnv1a64(canon.as_bytes())
}

#[test]
fn fig2_two_round_trace_digest_is_pinned() {
    let outcomes = execute(&smoke_spec()).expect("fig2 smoke run must execute");
    assert_eq!(outcomes.len(), 5, "fig2 sweeps five methods");

    let digest = digest_of(&outcomes);
    assert_eq!(
        digest, GOLDEN_DIGEST,
        "fig2 smoke trace drifted: computed digest {digest:#018X} != pinned \
         {GOLDEN_DIGEST:#018X}. If this numeric change is intentional, follow the update \
         procedure in this file's header; otherwise a kernel change broke determinism."
    );
}

/// The same pinned digest must come out at the smallest shard size: the
/// shard size is bit-transparent, so no second golden constant exists —
/// and 1 KiB shards maximise boundary coverage.
#[test]
fn fig2_tiny_shards_reproduce_the_same_digest() {
    let mut spec = smoke_spec();
    spec.aggregation.shard_kb = Some(1);

    let outcomes = execute(&spec).expect("fig2 tiny-shard smoke run must execute");
    let digest = digest_of(&outcomes);
    assert_eq!(
        digest, GOLDEN_DIGEST,
        "1 KiB shards drifted from the golden trace: {digest:#018X} != \
         {GOLDEN_DIGEST:#018X} — a shard boundary changed a result (see \
         tests/aggregation_equivalence.rs)."
    );
}

/// The telemetry inertness contract: running the identical experiment
/// under an **active** telemetry capture — workspace builds compile the
/// collector in via the bench harness — must reproduce the exact same
/// pinned digest at 1, 2 and 8 worker threads. The capture-off runs
/// above already pin the quiescent path, so together the three states
/// (not compiled / compiled-idle / capturing) share one golden constant.
#[test]
fn fig2_digest_is_unchanged_under_active_telemetry_capture() {
    if !fedbiad::telemetry::compiled() {
        // `cargo test -p`-style builds without the bench harness in the
        // graph get the no-op collector; nothing to capture.
        eprintln!("telemetry not compiled in; capture leg skipped");
        return;
    }
    let spec = smoke_spec();
    for threads in ["1", "2", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        fedbiad::telemetry::begin_capture();
        let outcomes = execute(&spec).expect("fig2 smoke run must execute");
        let capture = fedbiad::telemetry::end_capture();
        std::env::remove_var("RAYON_NUM_THREADS");

        assert!(
            !capture.is_empty(),
            "capture recorded nothing — instrumentation went missing"
        );
        let digest = digest_of(&outcomes);
        assert_eq!(
            digest, GOLDEN_DIGEST,
            "telemetry capture perturbed the trace at {threads} thread(s): \
             {digest:#018X} != {GOLDEN_DIGEST:#018X} — spans/counters must be \
             purely observational (no RNG draws, no reordering)."
        );
        // FedBIAD's θ counters arrive. (No exact totals: the collector
        // is process-global, so sibling tests may add to them.)
        let summary = capture.summary();
        for name in [
            "theta.transforms",
            "theta.transforms_skipped",
            "theta.rows_dropped",
        ] {
            assert!(summary.counter(name).is_some_and(|n| n > 0), "{name}");
        }
    }
}

// ---- the simulator path ------------------------------------------------
//
// `GOLDEN_DIGEST` only covers the lock-step runner. The deadline and
// FedBuff policies, churn-lost arrivals and the virtual clock are
// otherwise compared between two runs of one binary, never against a
// constant — so the constants below pin them. They were first computed
// on the commit *before* the lock-step runner and the simulator were
// merged onto one `fl::round` core, have moved once since, with every
// other absolute constant in this file, when the Gaussian noise became
// index-addressed (CHANGES.md, PR 24: old → new), and follow the same
// update procedure as `GOLDEN_DIGEST`.

/// Pinned digest of [`sim_smoke_spec`] under a sign-flip adversary.
const SIM_GOLDEN_SIGN_FLIP: u64 = 0xD07D_2BDE_B356_A850;
/// Pinned digest of [`sim_smoke_spec`] under a NaN-garbage adversary
/// (every adversarial upload is rejected by the value screen).
const SIM_GOLDEN_GARBAGE_NAN: u64 = 0x41F0_752D_1686_B5AD;

/// `benchmark/workloads/sim_image.toml` at smoke scale: every server
/// policy, stragglers, trimmed mean, churn and an adversary all live.
/// The smoke workload's 8 clients hold no adversary at this seed, so a
/// 40-client population (cohort 10) stands in for the lab scale's 100.
fn sim_smoke_spec(adversary: &str) -> ScenarioSpec {
    ScenarioSpec::from_toml_str(&format!(
        r#"
name = "sim_golden"
mode = "sim"

[run]
rounds = 4
seed = 42
scale = "smoke"

[sweep]
workload = "mnist"
method = ["fedbiad", "dgc"]
policy = ["sync", "deadline", "fedbuff"]
profile = "stragglers"

[population]
clients = 40
cohort = 10
samples_per_client = 16

[fedbiad]
stage_boundary = 2

[aggregation]
robust = "trimmed_mean"
trim_frac = 0.2

[churn]
offline = 0.15
dropout = 0.15

[adversary]
fraction = 0.25
{adversary}
"#
    ))
    .expect("inline sim spec must parse")
}

/// [`digest_of`]'s fields plus what only the simulator decides: who
/// contributed to each round and every bit of the virtual clock.
fn sim_digest_of(outcomes: &[RunOutcome]) -> u64 {
    let mut canon = format!("records={:016x};", digest_of(outcomes));
    for o in outcomes {
        let sim = o.sim.as_ref().expect("sim outcome carries the clock");
        for r in &o.log.records {
            canon.push_str(&format!("contributors={};", r.contributors));
        }
        for t in &sim.round_end_seconds {
            canon.push_str(&format!("end={:016x};", t.to_bits()));
        }
        canon.push_str(&format!(
            "total={:016x};",
            sim.total_virtual_seconds.to_bits()
        ));
    }
    fnv1a64(canon.as_bytes())
}

fn assert_sim_digest(adversary: &str, pinned: u64) {
    let outcomes = execute(&sim_smoke_spec(adversary)).expect("sim smoke run must execute");
    assert_eq!(outcomes.len(), 6, "two methods x three policies");
    let digest = sim_digest_of(&outcomes);
    assert_eq!(
        digest, pinned,
        "sim smoke trace drifted under `{adversary}`: computed digest {digest:#018X} != \
         pinned {pinned:#018X}. A result, a contributor count or the virtual clock moved; \
         see this file's header before touching the constant."
    );
}

#[test]
fn sim_trace_digest_is_pinned_under_sign_flip() {
    assert_sim_digest("mode = \"sign_flip\"", SIM_GOLDEN_SIGN_FLIP);
}

#[test]
fn sim_trace_digest_is_pinned_under_nan_garbage() {
    assert_sim_digest(
        "mode = \"garbage\"\ngarbage = \"nan\"",
        SIM_GOLDEN_GARBAGE_NAN,
    );
}

// ---- every registry method ---------------------------------------------
//
// `GOLDEN_DIGEST` reaches five of the fourteen registry methods and no
// `compressor`-axis composition; the constant below reaches all of them,
// and `log.method` — each algorithm's `name()` — is part of the canonical
// form. It was first computed on the commit *before* the five dropout
// baselines became mask rules over one client (re-pinned once since, see
// above), and follows the same update procedure as `GOLDEN_DIGEST`.

/// Pinned digest of [`all_methods_specs`], run back to back.
const ALL_METHODS_GOLDEN: u64 = 0x6D8A_BDC4_A01C_0556;

/// (a) both model families x all 14 registry names; (b) element masks
/// (FedMP) and recurrent width groups (HeteroFL on PTB) under a sketch.
fn all_methods_specs() -> [ScenarioSpec; 2] {
    let spec = |name: &str, axes: &str| {
        ScenarioSpec::from_toml_str(&format!(
            "name = \"{name}\"\nmode = \"lockstep\"\n\n[run]\nrounds = 2\nseed = 42\n\
             scale = \"smoke\"\neval_max = 200\n\n[sweep]\nworkload = [\"mnist\", \"ptb\"]\n{axes}"
        ))
        .expect("inline methods spec must parse")
    };
    [
        spec(
            "methods_golden",
            "method = [\"fedavg\", \"feddrop\", \"afd\", \"fedmp\", \"fjord\", \"heterofl\", \
             \"fedbiad\", \"fedpaq\", \"signsgd\", \"stc\", \"dgc\", \"afd+dgc\", \"fjord+dgc\", \
             \"fedbiad+dgc\"]\n",
        ),
        spec(
            "sketched_masks_golden",
            "method = [\"feddrop\", \"fedmp\", \"heterofl\"]\ncompressor = [\"stc\", \"dgc\"]\n",
        ),
    ]
}

#[test]
fn every_registry_method_trace_digest_is_pinned() {
    let [all, sketched] = all_methods_specs();
    let mut outcomes = execute(&all).expect("all-methods smoke run must execute");
    assert_eq!(outcomes.len(), 28, "two workloads x fourteen methods");
    outcomes.extend(execute(&sketched).expect("sketched-masks smoke run must execute"));
    assert_eq!(
        outcomes.len(),
        28 + 12,
        "plus 2 x 3 methods x 2 compressors"
    );

    let digest = digest_of(&outcomes);
    assert_eq!(
        digest, ALL_METHODS_GOLDEN,
        "all-methods smoke trace drifted: computed digest {digest:#018X} != pinned \
         {ALL_METHODS_GOLDEN:#018X}. A method's numbers, bytes or `name()` moved; see this \
         file's header before touching the constant."
    );
}
