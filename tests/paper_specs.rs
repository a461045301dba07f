//! Every paper artifact is a bundled spec, and each reproduces the bin it
//! replaced. Before `fig2`, `sim_tta`, `table1`, `table2`, `fig6`, `fig7`
//! and `fig8` were deleted, each ran on the parent tree with
//! `--json-out` at the configuration below, and its logs were digested in
//! this file's canonical form; the constants are those digests
//! (CHANGES.md, PR 25, lists the commands). The specs must give the same
//! numbers from the same overrides.
//!
//! The canonical form is `tests/golden_trace.rs`'s — dataset, method,
//! seed and every deterministic field of every record as raw bits,
//! wall-clock and RSS fields left out — with the runs keyed by
//! (workload, method, p) and sorted, not taken in order: `fig8` ran
//! FedAvg first and the rates outermost, relabelling each log
//! `method@p=…`, and `sim_tta` relabelled its logs
//! `Method @policy [profile]`; the keys below rebuild those labels.

use fedbiad::fl::metrics::RoundRecord;
use fedbiad::fl::workload::{Scale, Workload};
use fedbiad::scenario::{execute, Overrides, RunOutcome, ScenarioSpec};
use std::path::Path;

/// FNV-1a, the same primitive the scenario engine uses for spec hashes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One run's key — (dataset, method label, p) — then its seed and
/// records; the runs sorted by key so that order cannot matter.
fn pin_digest<'a>(
    runs: impl IntoIterator<Item = (&'a str, String, Option<String>, u64, &'a [RoundRecord])>,
) -> u64 {
    let mut canon: Vec<String> = runs
        .into_iter()
        .map(|(dataset, method, p, seed, records)| {
            let mut s = format!(
                "dataset={dataset};method={method};p={};seed={seed};",
                p.as_deref().unwrap_or("-")
            );
            for r in records {
                s.push_str(&format!(
                    "round={};train={:08x};test_loss={:016x};test_acc={:016x};up_mean={};\
                     up_max={};down={};",
                    r.round,
                    r.train_loss.to_bits(),
                    r.test_loss.to_bits(),
                    r.test_acc.to_bits(),
                    r.upload_bytes_mean,
                    r.upload_bytes_max,
                    r.download_bytes,
                ));
            }
            s
        })
        .collect();
    canon.sort();
    fnv1a64(canon.concat().as_bytes())
}

/// The key the retired bin gave `o`'s log.
fn key(spec: &ScenarioSpec, o: &RunOutcome) -> (String, Option<String>) {
    let method = match &o.sim {
        Some(sim) => format!("{} @{} [{}]", o.run.method.name(), sim.policy, sim.profile),
        None => o.log.method.clone(),
    };
    let rate_axis = spec.fedbiad.dropout_rates.len() > 1 && o.run.method.uses_dropout_rate();
    let p = o.run.opts.dropout_override.filter(|_| rate_axis);
    (method, p.map(|p| p.to_string()))
}

/// Run bundled `name` under `overrides` and compare with the parent bin.
fn assert_pinned(name: &str, overrides: Overrides, runs: usize, pinned: u64) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(format!("{name}.toml"));
    let mut spec = ScenarioSpec::from_path(&path).expect("bundled spec is valid");
    spec.apply_overrides(&overrides)
        .expect("pin overrides validate");
    let outcomes = execute(&spec).expect("bundled spec executes");
    assert_eq!(outcomes.len(), runs, "{name}: the bin's run count");
    let digest = pin_digest(outcomes.iter().map(|o| {
        let (method, p) = key(&spec, o);
        (
            o.log.dataset.as_str(),
            method,
            p,
            o.log.seed,
            o.log.records.as_slice(),
        )
    }));
    assert_eq!(
        digest, pinned,
        "{name}: the spec gives {digest:#018X}, the retired bin gave {pinned:#018X} — a spec \
         default or the engine moved away from the artifact it replaced"
    );
}

/// `--scale smoke --rounds 3 --eval-max 200`.
fn three_smoke_rounds() -> Overrides {
    Overrides {
        rounds: Some(3),
        scale: Some(Scale::Smoke),
        eval_max: Some(200),
        ..Default::default()
    }
}

/// `--scale smoke --rounds 30 --workloads mnist,ptb --eval-max 200`: at
/// 30 rounds the bins' rounds/15 schedule is the specs' `eval_every = 2`.
fn table_rounds() -> Overrides {
    Overrides {
        rounds: Some(30),
        workloads: Some(vec![Workload::MnistLike, Workload::PtbLike]),
        ..three_smoke_rounds()
    }
}

#[test]
fn table1_reproduces_the_table1_bin() {
    assert_pinned("table1", table_rounds(), 14, 0x2532_BD4F_8490_A422);
}

#[test]
fn table2_reproduces_the_table2_bin() {
    assert_pinned("table2", table_rounds(), 14, 0xC0FD_ADE0_3AF4_FB5F);
}

#[test]
fn fig2_reproduces_the_fig2_bin() {
    assert_pinned("fig2", three_smoke_rounds(), 5, 0x5D0F_B25C_06F3_5834);
}

#[test]
fn fig6_reproduces_the_fig6_bin() {
    assert_pinned("fig6", three_smoke_rounds(), 14, 0x6AAC_8A89_9CBC_638C);
}

#[test]
fn fig7_reproduces_the_fig7_bin() {
    assert_pinned("fig7", three_smoke_rounds(), 20, 0x4916_6E0F_FF73_D410);
}

#[test]
fn fig8_reproduces_the_fig8_bin() {
    assert_pinned("fig8", three_smoke_rounds(), 13, 0x0BE9_9D46_1A92_63DF);
}

#[test]
fn sim_tta_reproduces_the_sim_tta_bin() {
    assert_pinned("sim_tta", three_smoke_rounds(), 18, 0xEAF0_3C31_362A_3C53);
}
