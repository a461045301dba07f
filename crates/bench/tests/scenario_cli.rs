//! The `scenario` binary's command-line contract, driven through the
//! built executable: usage and exit codes, `--json-out`, and the paper
//! columns of the roll-up.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A bundled spec, by absolute path.
fn spec(name: &str) -> String {
    format!("{}/../../scenarios/{name}.toml", env!("CARGO_MANIFEST_DIR"))
}

/// A fresh scratch directory for one test's outputs, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("scenario_cli_{}_{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `scenario args…` in `cwd` (its `target/experiments/` lands there).
fn scenario(cwd: &Path, args: impl IntoIterator<Item = impl AsRef<OsStr>>) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenario"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("scenario binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

/// One smoke round of bundled `name` restricted to `methods`, plus `extra`
/// flags; must succeed.
fn smoke_run(cwd: &Path, name: &str, methods: &str, extra: &[&str]) -> String {
    let smoke = ["--scale", "smoke", "--rounds", "1", "--eval-max", "50"];
    let spec = spec(name);
    let args = [spec.as_str(), "--methods", methods].into_iter();
    let out = scenario(cwd, args.chain(smoke).chain(extra.iter().copied()));
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    stdout(&out)
}

#[test]
fn help_prints_usage_to_stdout_and_exits_0() {
    let dir = Scratch::new("help");
    for flag in ["--help", "-h"] {
        let out = scenario(&dir.0, [flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert!(
            stdout(&out).starts_with("usage: scenario SPEC.toml"),
            "{flag}"
        );
    }
}

#[test]
fn no_spec_path_is_a_usage_error() {
    let dir = Scratch::new("no_spec");
    for args in [&[][..], &["--rounds", "3"]] {
        let out = scenario(&dir.0, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).starts_with("usage: scenario"), "{args:?}");
    }
}

#[test]
fn a_bad_flag_value_is_a_message_and_exit_2() {
    let dir = Scratch::new("bad_value");
    let out = scenario(&dir.0, [&spec("table1"), "--rounds", "abc"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        stderr(&out).trim(),
        "--rounds: expected an integer, got `abc`"
    );
}

#[test]
fn json_out_writes_every_runs_log() {
    let dir = Scratch::new("json_out");
    let dump = dir.0.join("dump.json");
    let json_out = ["--json-out", dump.to_str().unwrap()];
    smoke_run(&dir.0, "fig2", "fedavg,fedbiad", &json_out);

    let body = std::fs::read_to_string(&dump).expect("--json-out wrote its file");
    let v = serde_json::parse_value_str(&body).expect("the dump parses");
    let field = |k: &str| {
        v.as_object()
            .unwrap()
            .iter()
            .find(|(name, _)| name == k)
            .map(|(_, x)| x.clone())
            .unwrap_or_else(|| panic!("dump has no `{k}`"))
    };
    assert_eq!(field("artifact").as_str(), Some("fig2"));
    let logs: Vec<fedbiad_fl::ExperimentLog> =
        serde::Deserialize::from_value(&field("logs")).expect("the logs deserialize");
    let methods: Vec<&str> = logs.iter().map(|l| l.method.as_str()).collect();
    assert_eq!(methods, ["fedavg", "fedbiad"]);
    assert!(logs.iter().all(|l| l.records.len() == 1));
}

/// The roll-up line of the run labelled `label`.
fn row<'a>(text: &'a str, label: &str) -> &'a str {
    text.lines()
        .find(|l| l.split_whitespace().nth(1) == Some(label))
        .unwrap_or_else(|| panic!("no roll-up row for {label} in\n{text}"))
}

#[test]
fn paper_columns_are_published_values_or_dashes() {
    let dir = Scratch::new("paper");
    // FedAvg carries its Table I row, DGC its Table II row; composed onto
    // a compressor axis FedAvg+DGC is an experiment the paper never ran.
    let text = smoke_run(&dir.0, "compressor_grid", "fedavg", &[]);
    assert!(text.contains("Acc% (paper)"), "{text}");
    let fedavg = row(&text, "mnist-like/FedAvg");
    assert!(
        fedavg.contains("95.06") && fedavg.contains("531KB"),
        "{fedavg}"
    );
    assert_eq!(row(&text, "mnist-like/FedAvg+DGC").matches('—').count(), 3);

    let text = smoke_run(&dir.0, "table1", "dgc", &["--workloads", "mnist"]);
    let dgc = row(&text, "mnist-like/DGC");
    assert!(dgc.contains("94.84") && dgc.contains("177x"), "{dgc}");

    // Off the paper's dropout rate (Reddit: 0.5) a run is another
    // experiment too.
    let text = smoke_run(&dir.0, "fig8", "feddrop", &[]);
    assert_eq!(
        row(&text, "reddit-like/FedDrop(p=0.3)")
            .matches('—')
            .count(),
        3
    );
    assert!(!row(&text, "reddit-like/FedDrop(p=0.5)").contains('—'));
}
