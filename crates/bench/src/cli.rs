//! Minimal CLI flag parsing shared by the harness binaries (no external
//! dependency; flags are `--key value`).

use fedbiad_fl::workload::{Scale, Workload};
use fedbiad_scenario::Method;
use std::path::PathBuf;

/// Parsed common flags.
#[derive(Clone, Debug)]
pub struct Cli {
    /// `--rounds N` (default per binary).
    pub rounds: Option<usize>,
    /// `--seed N` (default 42).
    pub seed: u64,
    /// Whether `--seed` was given explicitly (spec-override plumbing).
    pub seed_explicit: bool,
    /// `--scale smoke|lab` (default lab).
    pub scale: Scale,
    /// Whether `--scale` was given explicitly (spec-override plumbing).
    pub scale_explicit: bool,
    /// `--workloads a,b,c` (default: binary-specific).
    pub workloads: Option<Vec<Workload>>,
    /// `--eval-max N` test-sample cap (default 2000).
    pub eval_max: usize,
    /// Whether `--eval-max` was given explicitly (spec-override plumbing).
    pub eval_max_explicit: bool,
    /// `--methods a,b` restriction (default: binary-specific set).
    pub methods: Option<Vec<Method>>,
    /// `--json-out PATH`: additionally serialize the full experiment
    /// logs (round records + invocation) to this path.
    pub json_out: Option<PathBuf>,
    /// `--policies sync,deadline,fedbuff` (sim specs only).
    pub policies: Option<Vec<String>>,
    /// `--profiles homogeneous,mixed,stragglers` (sim specs only).
    pub profiles: Option<Vec<String>>,
    /// `--fraction F`: client participation fraction κ (default 0.1).
    pub fraction: Option<f32>,
    /// `--target A`: TTA target accuracy override (sim specs only).
    pub target: Option<f64>,
    /// `--trace-out DIR` (`scenario` only): capture telemetry and write
    /// one Chrome trace + JSONL stream per run into DIR.
    pub trace_out: Option<PathBuf>,
}

impl Cli {
    /// Map the explicitly given flags onto scenario-spec overrides, so
    /// `scenario` can tweak a spec from the command line. Name-resolution
    /// failures return the same actionable messages the spec loader uses.
    pub fn scenario_overrides(&self) -> Result<fedbiad_scenario::Overrides, String> {
        let policies = match &self.policies {
            None => None,
            Some(names) => Some(
                names
                    .iter()
                    .map(|n| {
                        fedbiad_scenario::PolicyChoice::parse(n)
                            .ok_or_else(|| format!("unknown policy {n} (sync|deadline|fedbuff)"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            ),
        };
        let profiles = match &self.profiles {
            None => None,
            Some(names) => Some(
                names
                    .iter()
                    .map(|n| {
                        fedbiad_scenario::ProfileChoice::parse(n).ok_or_else(|| {
                            format!("unknown profile {n} (homogeneous|mixed|stragglers)")
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            ),
        };
        Ok(fedbiad_scenario::Overrides {
            rounds: self.rounds,
            seed: self.seed_explicit.then_some(self.seed),
            scale: self.scale_explicit.then_some(self.scale),
            eval_max: self.eval_max_explicit.then_some(self.eval_max),
            fraction: self.fraction,
            workloads: self.workloads.clone(),
            methods: self.methods.clone(),
            policies,
            profiles,
            target: self.target,
        })
    }

    /// Parse from `std::env::args`; a bad flag or value prints its
    /// message and exits 2.
    pub fn parse() -> Cli {
        Self::parse_from(std::env::args().skip(1).collect())
    }

    /// [`try_parse_from`](Self::try_parse_from), exiting 2 with the
    /// message on error.
    pub fn parse_from(args: Vec<String>) -> Cli {
        Self::try_parse_from(args).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        })
    }

    /// Parse from an explicit vector: every flag, value and name checked
    /// (testable — only `--help` leaves the process).
    pub fn try_parse_from(args: Vec<String>) -> Result<Cli, String> {
        let mut cli = Cli {
            rounds: None,
            seed: 42,
            seed_explicit: false,
            scale: Scale::Lab,
            scale_explicit: false,
            workloads: None,
            eval_max: 2_000,
            eval_max_explicit: false,
            methods: None,
            json_out: None,
            policies: None,
            profiles: None,
            fraction: None,
            target: None,
            trace_out: None,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut val = || it.next().ok_or(format!("missing value for {flag}"));
            match flag.as_str() {
                "--rounds" => cli.rounds = Some(number(&flag, &val()?, "an integer")?),
                "--seed" => {
                    cli.seed = number(&flag, &val()?, "an integer")?;
                    cli.seed_explicit = true;
                }
                "--eval-max" => {
                    cli.eval_max = number(&flag, &val()?, "an integer")?;
                    cli.eval_max_explicit = true;
                }
                "--scale" => {
                    cli.scale_explicit = true;
                    cli.scale = match val()?.as_str() {
                        "smoke" => Scale::Smoke,
                        "lab" => Scale::Lab,
                        other => return Err(format!("unknown scale {other} (smoke|lab)")),
                    }
                }
                "--methods" => {
                    cli.methods = Some(
                        val()?
                            .split(',')
                            .map(|s| Method::parse(s).ok_or(format!("unknown method {s}")))
                            .collect::<Result<_, _>>()?,
                    );
                }
                "--json-out" => cli.json_out = Some(PathBuf::from(val()?)),
                "--policies" => {
                    cli.policies = Some(val()?.split(',').map(|s| s.to_string()).collect());
                }
                "--profiles" => {
                    cli.profiles = Some(val()?.split(',').map(|s| s.to_string()).collect());
                }
                "--fraction" => cli.fraction = Some(number(&flag, &val()?, "a number")?),
                "--target" => cli.target = Some(number(&flag, &val()?, "a number")?),
                "--trace-out" => cli.trace_out = Some(PathBuf::from(val()?)),
                "--workloads" => {
                    cli.workloads = Some(
                        val()?
                            .split(',')
                            .map(|s| parse_workload(s).ok_or(format!("unknown workload {s}")))
                            .collect::<Result<_, _>>()?,
                    );
                }
                "--help" | "-h" => {
                    println!(
                        "flags: --rounds N  --seed N  --scale smoke|lab  \
                         --workloads mnist,fmnist,ptb,wikitext2,reddit  \
                         --methods fedavg,fedbiad,...  --eval-max N  \
                         --json-out PATH  --policies sync,deadline,fedbuff  \
                         --profiles homogeneous,mixed,stragglers  \
                         --fraction F  --target A  --trace-out DIR"
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(cli)
    }
}

/// `text` as the numeric value of `flag`, or the message naming both.
fn number<T: std::str::FromStr>(flag: &str, text: &str, what: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: expected {what}, got `{text}`"))
}

/// Parse a workload name (short forms accepted); see [`Workload::parse`].
pub fn parse_workload(s: &str) -> Option<Workload> {
    Workload::parse(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_flags() {
        let c = Cli::parse_from(vec![]);
        assert_eq!(c.seed, 42);
        assert_eq!(c.scale, Scale::Lab);
        let c = Cli::parse_from(
            [
                "--rounds",
                "7",
                "--seed",
                "9",
                "--scale",
                "smoke",
                "--workloads",
                "ptb,reddit",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        );
        assert_eq!(c.rounds, Some(7));
        assert_eq!(c.seed, 9);
        assert_eq!(c.scale, Scale::Smoke);
        assert_eq!(
            c.workloads,
            Some(vec![Workload::PtbLike, Workload::RedditLike])
        );
    }

    #[test]
    fn json_out_and_sim_flags_parse() {
        let c = Cli::parse_from(
            [
                "--json-out",
                "/tmp/out.json",
                "--policies",
                "sync,fedbuff",
                "--profiles",
                "stragglers",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        );
        assert_eq!(c.json_out, Some(PathBuf::from("/tmp/out.json")));
        assert_eq!(
            c.policies,
            Some(vec!["sync".to_string(), "fedbuff".to_string()])
        );
        assert_eq!(c.profiles, Some(vec!["stragglers".to_string()]));
        assert_eq!(Cli::parse_from(vec![]).json_out, None);
    }

    #[test]
    fn trace_out_parses() {
        let c = Cli::parse_from(
            ["--trace-out", "/tmp/traces"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        assert_eq!(c.trace_out, Some(PathBuf::from("/tmp/traces")));
        assert_eq!(Cli::parse_from(vec![]).trace_out, None);
    }

    #[test]
    fn bad_flags_and_values_are_messages_not_panics() {
        let err = |args: &[&str]| {
            Cli::try_parse_from(args.iter().map(|s| s.to_string()).collect())
                .expect_err("must be rejected")
        };
        for (args, message) in [
            (
                &["--rounds", "abc"][..],
                "--rounds: expected an integer, got `abc`",
            ),
            (&["--seed", "-1"], "--seed: expected an integer, got `-1`"),
            (
                &["--eval-max", "2k"],
                "--eval-max: expected an integer, got `2k`",
            ),
            (
                &["--fraction", "tenth"],
                "--fraction: expected a number, got `tenth`",
            ),
            (
                &["--target", "90%"],
                "--target: expected a number, got `90%`",
            ),
            (&["--scale", "huge"], "unknown scale huge (smoke|lab)"),
            (&["--workloads", "ptb,bogus"], "unknown workload bogus"),
            (&["--methods", "fedavg,nope"], "unknown method nope"),
            (&["--rounds"], "missing value for --rounds"),
            (&["--frobnicate"], "unknown flag --frobnicate"),
        ] {
            assert_eq!(err(args), message);
        }
    }

    #[test]
    fn methods_resolve_at_parse_time() {
        let c = Cli::try_parse_from(vec!["--methods".into(), "fedbiad+dgc,FedAvg".into()]).unwrap();
        assert_eq!(c.methods, Some(vec![Method::FedBiadDgc, Method::FedAvg]));
        assert_eq!(c.scenario_overrides().unwrap().methods, c.methods);
    }

    #[test]
    fn workload_short_names() {
        assert_eq!(parse_workload("wt2"), Some(Workload::WikiText2Like));
        assert_eq!(parse_workload("MNIST"), Some(Workload::MnistLike));
        assert_eq!(parse_workload("bogus"), None);
    }
}
