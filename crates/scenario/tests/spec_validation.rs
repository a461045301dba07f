//! Snapshot tests for the spec loader's error messages: every class of
//! mistake — malformed TOML, unknown fields, out-of-range numbers, empty
//! sweep axes, unresolvable names, inconsistent cross-field combos —
//! must fail with a distinct, actionable message. The messages are part
//! of the user interface; exact-string assertions keep them from
//! regressing into generic errors.

use fedbiad_scenario::ScenarioSpec;

fn err_of(toml: &str) -> String {
    ScenarioSpec::from_toml_str(toml)
        .expect_err("spec should be rejected")
        .to_string()
}

const OK_SWEEP: &str = "[sweep]\nworkload = \"mnist\"\nmethod = \"fedavg\"\n";

#[test]
fn malformed_toml_reports_the_line() {
    assert_eq!(
        err_of("name = \"t\"\nrounds = \n"),
        "TOML parse error at line 2: expected a value, found end of line"
    );
    assert_eq!(
        err_of("name = \"t\"\n[sweep\nworkload = \"mnist\"\n"),
        "TOML parse error at line 2: expected `]`, found end of line"
    );
}

#[test]
fn unknown_fields_list_the_expected_ones() {
    assert_eq!(
        err_of(&format!("name = \"t\"\nsweeps = 1\n{OK_SWEEP}")),
        "unknown field `sweeps` at top level; expected one of: name, mode, run, sweep, \
         partition, network, fedbiad, training, aggregation, population, adversary, churn, sim"
    );
    assert_eq!(
        err_of(&format!("name = \"t\"\n[run]\nfrraction = 0.5\n{OK_SWEEP}")),
        "unknown field `frraction` in [run]; expected one of: rounds, seed, seed_mode, \
         scale, eval_every, eval_max, fraction, replicates"
    );
    assert_eq!(
        err_of("name = \"t\"\n[sweep]\nworkload = \"mnist\"\nmethod = \"fedavg\"\nnetwork = 1\n"),
        "unknown field `network` in [sweep]; expected one of: workload, method, compressor, \
         policy, profile"
    );
}

#[test]
fn out_of_range_fraction_is_rejected() {
    assert_eq!(
        err_of(&format!("name = \"t\"\n[run]\nfraction = 1.5\n{OK_SWEEP}")),
        "[run] fraction = 1.5 is out of range; the client participation fraction must be \
         in (0, 1]"
    );
    assert_eq!(
        err_of(&format!("name = \"t\"\n[run]\nfraction = 0.0\n{OK_SWEEP}")),
        "[run] fraction = 0 is out of range; the client participation fraction must be \
         in (0, 1]"
    );
}

#[test]
fn empty_sweep_axes_are_rejected() {
    assert_eq!(
        err_of("name = \"t\"\n[sweep]\nworkload = \"mnist\"\nmethod = []\n"),
        "sweep axis `method` is empty; list at least one value or omit the field"
    );
    assert_eq!(
        err_of("name = \"t\"\n[sweep]\nworkload = []\nmethod = \"fedavg\"\n"),
        "sweep axis `workload` is empty; list at least one value or omit the field"
    );
}

#[test]
fn unresolvable_names_list_the_registry() {
    assert_eq!(
        err_of("name = \"t\"\n[sweep]\nworkload = \"mnist\"\nmethod = \"sgd\"\n"),
        "unknown method `sgd` in sweep axis `method`; known methods: FedAvg, FedDrop, AFD, \
         FedMP, FjORD, HeteroFL, FedBIAD, FedPAQ, SignSGD, STC, DGC, AFD+DGC, Fjord+DGC, \
         FedBIAD+DGC"
    );
    assert_eq!(
        err_of("name = \"t\"\n[sweep]\nworkload = \"cifar\"\nmethod = \"fedavg\"\n"),
        "unknown workload `cifar` in sweep axis `workload`; known workloads: mnist, fmnist, \
         ptb, wikitext2, reddit"
    );
}

#[test]
fn missing_required_pieces_are_named() {
    assert_eq!(
        err_of("[sweep]\nworkload = \"mnist\"\nmethod = \"fedavg\"\n"),
        "missing required field `name` (a short scenario identifier)"
    );
    assert_eq!(
        err_of("name = \"t\"\n"),
        "missing required [sweep] section with `workload` and `method` axes"
    );
    assert_eq!(
        err_of("name = \"t\"\n[sweep]\nmethod = \"fedavg\"\n"),
        "missing required sweep axis `workload` in [sweep]"
    );
}

#[test]
fn cross_field_combos_are_checked() {
    assert_eq!(
        err_of(
            "name = \"t\"\n[sweep]\nworkload = \"mnist\"\nmethod = \"fedavg\"\n\
             policy = \"sync\"\n"
        ),
        "sweep axis `policy` requires mode = \"sim\" (this spec runs the lock-step runner)"
    );
    assert_eq!(
        err_of(
            "name = \"t\"\n[sweep]\nworkload = \"mnist\"\nmethod = \"dgc\"\n\
             compressor = \"stc\"\n"
        ),
        "compressor `STC` cannot compose with method `DGC`: it already embeds a compressor \
         (drop the compressor axis or use the base method)"
    );
    assert_eq!(
        err_of(
            "name = \"t\"\n[sweep]\nworkload = \"ptb\"\nmethod = \"fedavg\"\n\
             [partition]\nkind = \"iid\"\n"
        ),
        "[partition] applies to image workloads only; `ptb-like` is a text workload"
    );
    assert_eq!(
        err_of(&format!(
            "name = \"t\"\n{OK_SWEEP}[network]\nrtt_seconds = 0.1\n"
        )),
        "[network] requires mode = \"sim\"; the lock-step runner does not model links"
    );
    assert_eq!(
        err_of(
            "name = \"t\"\nmode = \"sim\"\n[sweep]\nworkload = \"mnist\"\n\
             method = \"fedavg\"\nprofile = [\"homogeneous\", \"stragglers\"]\n\
             [network]\nrtt_seconds = 0.1\n"
        ),
        "[network] applies only to the homogeneous profile; remove it or drop `stragglers` \
         from the profile axis"
    );
}

#[test]
fn partition_parameters_are_kind_checked() {
    assert_eq!(
        err_of(&format!(
            "name = \"t\"\n{OK_SWEEP}[partition]\nkind = \"dirichlet\"\n"
        )),
        "missing required field `alpha` in [partition] for kind = \"dirichlet\""
    );
    assert_eq!(
        err_of(&format!(
            "name = \"t\"\n{OK_SWEEP}[partition]\nkind = \"dirichlet\"\nalpha = -0.3\n"
        )),
        "[partition] alpha = -0.3 is out of range; the Dirichlet concentration must be positive"
    );
    assert_eq!(
        err_of(&format!(
            "name = \"t\"\n{OK_SWEEP}[partition]\nkind = \"iid\"\nalpha = 0.3\n"
        )),
        "[partition] kind = \"iid\" takes no parameters"
    );
}

#[test]
fn adversary_section_is_strictly_validated() {
    assert_eq!(
        err_of(&format!(
            "name = \"t\"\n{OK_SWEEP}[adversary]\nmode = \"sign_flip\"\n"
        )),
        "missing required field `fraction` in [adversary] (the byzantine client fraction, \
         in (0, 1])"
    );
    assert_eq!(
        err_of(&format!(
            "name = \"t\"\n{OK_SWEEP}[adversary]\nfraction = 1.5\nmode = \"sign_flip\"\n"
        )),
        "[adversary] fraction = 1.5 is out of range; the byzantine fraction must lie in \
         (0, 1] (omit the section for an honest population)"
    );
    assert_eq!(
        err_of(&format!(
            "name = \"t\"\n{OK_SWEEP}[adversary]\nfraction = 0.2\nmode = \"flip\"\n"
        )),
        "[adversary] mode = \"flip\" is unknown; expected \"sign_flip\", \"scale\" or \
         \"garbage\""
    );
    assert_eq!(
        err_of(&format!(
            "name = \"t\"\n{OK_SWEEP}[adversary]\nfraction = 0.2\nmode = \"sign_flip\"\n\
             factor = 5.0\n"
        )),
        "[adversary] factor requires mode = \"scale\"; no other attack scales"
    );
    assert_eq!(
        err_of(&format!(
            "name = \"t\"\n{OK_SWEEP}[adversary]\nfraction = 0.2\nmode = \"garbage\"\n\
             garbage = \"zero\"\n"
        )),
        "[adversary] garbage = \"zero\" is unknown; expected \"nan\", \"inf\" or \"huge\""
    );
}

/// Regression: `tree_fanin` fed the canonical seed string, but the
/// order-statistic estimators never ran a tree — the combination moved
/// every derived seed and changed nothing else. Norm clipping ends in the
/// weighted mean, which does have a tree, so that combination stays.
#[test]
fn tree_fanin_with_an_order_statistic_estimator_is_rejected() {
    for robust in ["trimmed_mean", "coordinate_median"] {
        assert_eq!(
            err_of(&format!(
                "name = \"t\"\n{OK_SWEEP}[aggregation]\ntree_fanin = 8\nrobust = \"{robust}\"\n"
            )),
            format!(
                "[aggregation] tree_fanin cannot be combined with robust = \"{robust}\"; order \
                 statistics gather whole columns and run no tree, so the fan-in would move \
                 every derived seed and change nothing else"
            )
        );
    }
    for ok in [
        "robust = \"norm_clip\"\ntau = 2.0\n",
        "robust = \"mean\"\n",
        "",
    ] {
        let spec = ScenarioSpec::from_toml_str(&format!(
            "name = \"t\"\n{OK_SWEEP}[aggregation]\ntree_fanin = 8\n{ok}"
        ))
        .unwrap();
        assert_eq!(spec.aggregation.resolve().tree_fanin, 8);
    }
}

#[test]
fn churn_section_is_strictly_validated() {
    assert_eq!(
        err_of(&format!("name = \"t\"\n{OK_SWEEP}[churn]\ndropout = 1.2\n")),
        "[churn] dropout = 1.2 is out of range; the per-round probability must lie in [0, 1]"
    );
    assert_eq!(
        err_of(&format!(
            "name = \"t\"\n{OK_SWEEP}[churn]\noffline = 0.0\ndropout = 0.0\n"
        )),
        "[churn] sets neither offline nor dropout above 0; omit the section for a \
         churn-free population"
    );
    assert_eq!(
        err_of(&format!("name = \"t\"\n{OK_SWEEP}[churn]\ndrop = 0.5\n")),
        "unknown field `drop` in [churn]; expected one of: offline, dropout"
    );
}

#[test]
fn dropout_rate_is_a_number_or_a_non_empty_array_of_rates() {
    assert_eq!(
        err_of(&format!(
            "name = \"t\"\n{OK_SWEEP}[fedbiad]\ndropout_rate = [0.1, 1.0]\n"
        )),
        "[fedbiad] dropout_rate = 1 is out of range; the dropout rate must be in (0, 1)"
    );
    assert_eq!(
        err_of(&format!(
            "name = \"t\"\n{OK_SWEEP}[fedbiad]\ndropout_rate = 0.0\n"
        )),
        "[fedbiad] dropout_rate = 0 is out of range; the dropout rate must be in (0, 1)"
    );
    assert_eq!(
        err_of(&format!(
            "name = \"t\"\n{OK_SWEEP}[fedbiad]\ndropout_rate = []\n"
        )),
        "[fedbiad] dropout_rate is an empty array; list at least one rate or omit the field"
    );
    assert_eq!(
        err_of(&format!(
            "name = \"t\"\n{OK_SWEEP}[fedbiad]\ndropout_rate = [0.1, \"half\"]\n"
        )),
        "[fedbiad] dropout_rate must be a number"
    );
}

#[test]
fn adversary_and_churn_feed_the_seed_hash() {
    // The attack model changes results, so it must change the canonical
    // string (and therefore every derived per-run seed); re-ordering
    // knobs or adding comments must not.
    let base = ScenarioSpec::from_toml_str(&format!("name = \"t\"\n{OK_SWEEP}")).unwrap();
    let attacked = ScenarioSpec::from_toml_str(&format!(
        "name = \"t\"\n{OK_SWEEP}[adversary]\nfraction = 0.2\nmode = \"sign_flip\"\n"
    ))
    .unwrap();
    let churned =
        ScenarioSpec::from_toml_str(&format!("name = \"t\"\n{OK_SWEEP}[churn]\ndropout = 0.3\n"))
            .unwrap();
    assert_ne!(base.canonical_string(), attacked.canonical_string());
    assert_ne!(base.canonical_string(), churned.canonical_string());
    assert_ne!(attacked.canonical_string(), churned.canonical_string());
    // Append-only discipline: an honest, churn-free spec's canonical
    // string is byte-identical to what it was before these sections
    // existed (it mentions neither knob).
    assert!(!base.canonical_string().contains("adversary"));
    assert!(!base.canonical_string().contains("churn"));
}

#[test]
fn every_bundled_scenario_parses() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("scenarios/ exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        let spec =
            ScenarioSpec::from_path(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            !fedbiad_scenario::expand(&spec).unwrap().is_empty(),
            "{} expands to no runs",
            path.display()
        );
        seen += 1;
    }
    assert!(seen >= 8, "expected ≥ 8 bundled scenarios, found {seen}");
}
