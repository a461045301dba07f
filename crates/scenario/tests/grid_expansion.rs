//! Acceptance test for grid expansion: a 2×2×2 sweep materializes
//! exactly 8 runs with distinct, deterministic seeds, stable across
//! thread counts (expansion is a pure function of the spec; the thread
//! toggling guards against anyone threading it later and breaking
//! that).

use fedbiad_scenario::{expand, ScenarioSpec};
use std::sync::Mutex;

/// Serialises `RAYON_NUM_THREADS` mutation within this test binary.
static ENV_LOCK: Mutex<()> = Mutex::new(());

const SWEEP_2X2X2: &str = "name = \"grid\"\nmode = \"sim\"\n\
[run]\nseed = 42\nseed_mode = \"per-run\"\n\
[sweep]\nworkload = [\"mnist\", \"fmnist\"]\nmethod = [\"fedavg\", \"fedbiad\"]\n\
policy = [\"sync\", \"fedbuff\"]\n";

fn expanded_seeds() -> Vec<u64> {
    let spec = ScenarioSpec::from_toml_str(SWEEP_2X2X2).unwrap();
    expand(&spec).unwrap().iter().map(|r| r.opts.seed).collect()
}

#[test]
fn two_by_two_by_two_makes_eight_distinct_deterministic_seeds() {
    let _guard = ENV_LOCK.lock().unwrap();
    let seeds = expanded_seeds();
    assert_eq!(seeds.len(), 8, "2×2×2 grid must materialize 8 runs");

    let mut unique = seeds.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), 8, "per-run seeds must be distinct: {seeds:?}");

    // Deterministic: same spec, same seeds — at any thread count.
    let orig = std::env::var("RAYON_NUM_THREADS").ok();
    for threads in ["1", "4"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        assert_eq!(expanded_seeds(), seeds, "thread count {threads}");
    }
    match orig {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
}

#[test]
fn seeds_change_with_the_spec_content_not_its_formatting() {
    let _guard = ENV_LOCK.lock().unwrap();
    let reformatted = SWEEP_2X2X2.replace(
        "workload = [\"mnist\", \"fmnist\"]",
        "# same axes\nworkload = [\n  \"mnist\",\n  \"fmnist\",\n]",
    );
    let a = expanded_seeds();
    let spec_b = ScenarioSpec::from_toml_str(&reformatted).unwrap();
    let b: Vec<u64> = expand(&spec_b)
        .unwrap()
        .iter()
        .map(|r| r.opts.seed)
        .collect();
    assert_eq!(a, b, "formatting must not move seeds");

    let spec_c =
        ScenarioSpec::from_toml_str(&SWEEP_2X2X2.replace("seed = 42", "seed = 43")).unwrap();
    let c: Vec<u64> = expand(&spec_c)
        .unwrap()
        .iter()
        .map(|r| r.opts.seed)
        .collect();
    assert_ne!(a, c, "a different base seed must move every derived seed");
}

/// The `[fedbiad] dropout_rate` axis, as `scenarios/fig8.toml` uses it.
const FIG8: &str = "name = \"fig8\"\n[sweep]\nworkload = \"reddit\"\n\
method = [\"fedavg\", \"feddrop\", \"afd\", \"fedbiad\"]\n\
[fedbiad]\ndropout_rate = [0.1, 0.3, 0.5, 0.7]\n";

#[test]
fn a_rate_axis_runs_each_rate_taking_method_once_per_rate_and_fedavg_once() {
    let runs = expand(&ScenarioSpec::from_toml_str(FIG8).unwrap()).unwrap();
    let cells: Vec<(&str, Option<f32>)> = runs
        .iter()
        .map(|r| (r.label.as_str(), r.opts.dropout_override))
        .collect();
    let mut expected = vec![("reddit-like/FedAvg".to_string(), Some(0.1))];
    for m in ["FedDrop", "AFD", "FedBIAD"] {
        for p in [0.1f32, 0.3, 0.5, 0.7] {
            expected.push((format!("reddit-like/{m}(p={p})"), Some(p)));
        }
    }
    let expected: Vec<(&str, Option<f32>)> =
        expected.iter().map(|(l, p)| (l.as_str(), *p)).collect();
    assert_eq!(cells, expected, "1 + 3 × 4 = 13 runs, method-major");
    assert!(runs.iter().enumerate().all(|(i, r)| r.index == i));
}

#[test]
fn a_single_rate_changes_no_label_seed_or_canonical_byte() {
    let spec = ScenarioSpec::from_toml_str(
        "name = \"t\"\n[sweep]\nworkload = \"reddit\"\nmethod = [\"fedavg\", \"feddrop\"]\n\
         [fedbiad]\ndropout_rate = 0.3\n",
    )
    .unwrap();
    // The string the parent of the array form printed for this spec.
    assert_eq!(
        spec.canonical_string(),
        "name=t;mode=lockstep;rounds=10;seed=42;seed_mode=Shared;scale=Lab;eval_every=1;\
         eval_max=2000;fraction=0.1;replicates=1;workloads=[reddit-like];\
         methods=[FedAvg,FedDrop];compressors=[none];policies=[];profiles=[];partition=None;\
         network=None;fedbiad=(None, Some(0.3));target=None"
    );
    let runs = expand(&spec).unwrap();
    let cells: Vec<(&str, Option<f32>)> = runs
        .iter()
        .map(|r| (r.label.as_str(), r.opts.dropout_override))
        .collect();
    assert_eq!(
        cells,
        [
            ("reddit-like/FedAvg", Some(0.3)),
            ("reddit-like/FedDrop", Some(0.3))
        ]
    );
    // An array of one is the scalar.
    let one = ScenarioSpec::from_toml_str(&FIG8.replace("[0.1, 0.3, 0.5, 0.7]", "[0.3]")).unwrap();
    let scalar = ScenarioSpec::from_toml_str(&FIG8.replace("[0.1, 0.3, 0.5, 0.7]", "0.3")).unwrap();
    assert_eq!(one.canonical_string(), scalar.canonical_string());
    assert_eq!(expand(&one).unwrap().len(), 4);
}
