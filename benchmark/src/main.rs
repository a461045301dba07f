//! `fedbiad-benchmark` — the repo's end-to-end, layer-attributed benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload lockstep_text|sim_image|million_sparse|server_reduce \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process measures one workload in one mode. `--trace 0` prints the
//! end-to-end metrics of an untraced run; `--trace 1` prints the per-layer
//! metrics of a separate traced run. The last stdout line is the result
//! object; the exit code is non-zero if any correctness check failed.
//! See `benchmark/README.md` for every metric and workload.

mod report;
mod scenario_wl;
mod server_reduce;
mod stats;
mod timed;

use report::{result_line, Report};

/// The four workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "lockstep_text",
    "sim_image",
    "million_sparse",
    "server_reduce",
];

/// Worker threads the vendored pool may use from now on (it reads the
/// variable on every parallel call).
pub fn set_worker_threads(n: usize) {
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
}

/// Process-lifetime peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    fedbiad_fl::metrics::peak_rss_bytes() as f64 / (1024.0 * 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: fedbiad-benchmark --workload {} [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        let ok = match flag.as_str() {
            "--workload" => {
                args.workload = value.clone();
                WORKLOADS.contains(&value.as_str())
            }
            "--seed" => value.parse().map(|v| args.seed = v).is_ok(),
            "--seconds" => {
                let parsed = value.parse().map(|v| args.seconds = v);
                parsed.is_ok() && args.seconds > 0.0 && args.seconds <= 3600.0
            }
            "--trace" => {
                args.trace = value == "1";
                value == "0" || value == "1"
            }
            _ => false,
        };
        if !ok {
            eprintln!("bad argument: {flag} {value}");
            usage();
        }
    }
    if args.workload.is_empty() {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    // Gated timing is single-threaded: that is what repeats on a small
    // shared box (README, "Why one worker thread").
    set_worker_threads(1);
    assert!(
        fedbiad_telemetry::compiled(),
        "the benchmark measures the configuration the scenario binary ships: telemetry \
         compiled in, capture off"
    );
    println!(
        "workload {} · seed {} · {} mode · budget {} s · {} hardware thread(s), gated timing on 1",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "end-to-end" },
        args.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let mut report: Report = match scenario_wl::template(&args.workload) {
        Some(toml) if args.trace => scenario_wl::run_traced(toml, args.seed, args.seconds),
        Some(toml) => scenario_wl::run_e2e(toml, args.seed, args.seconds),
        None if args.trace => server_reduce::run_traced(args.seed, args.seconds),
        None => server_reduce::run_e2e(args.seed, args.seconds),
    };

    let metrics = report.resolve(args.trace);
    println!("{:<40} {:>20}  unit", "metric", "value");
    for m in &metrics {
        println!("{:<40} {:>20.6}  {}", m.name, m.value, m.unit);
    }
    let failed = report.checks.failed;
    println!(
        "fail_pct {:.4} % ({failed} failed of {} operations)",
        100.0 * failed as f64 / report.checks.attempted.max(1) as f64,
        report.checks.attempted
    );
    println!("{}", result_line(&metrics, &report.checks));
    if failed > 0 {
        std::process::exit(1);
    }
}
