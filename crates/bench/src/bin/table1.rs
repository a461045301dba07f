//! Table I: test accuracy, per-round upload size and save ratio for the
//! seven dropout-family methods across the five datasets.
//!
//! ```text
//! cargo run -p fedbiad-bench --release --bin table1 -- \
//!     [--rounds 30] [--scale lab] [--workloads mnist,ptb] [--seed 42]
//! ```
//!
//! The 'Paper' columns restate the published Table I values (real
//! datasets, paper-scale models); the 'Measured' columns come from the
//! synthetic workloads at the chosen scale — shapes (who wins, roughly by
//! what factor) are the comparison target, not absolute numbers.

use fedbiad_bench::cli::Cli;
use fedbiad_bench::methods::{run_method, Method, RunOpts};
use fedbiad_bench::output::{paper_cells, save_logs_and_export, PaperRow, Table};
use fedbiad_fl::metrics::fmt_bytes;
use fedbiad_fl::workload::{build, Workload};

/// Published Table I numbers: (method, acc %, upload size label, ratio).
fn paper_rows(w: Workload) -> &'static [PaperRow] {
    match w {
        Workload::MnistLike => &[
            ("FedAvg", 95.06, "531KB", 1.0),
            ("FedDrop", 95.03, "424KB", 1.25),
            ("AFD", 94.49, "424KB", 1.25),
            ("FedMP", 95.09, "477KB", 1.10),
            ("FjORD", 94.93, "437KB", 1.21),
            ("HeteroFL", 94.98, "432KB", 1.23),
            ("FedBIAD", 95.20, "424KB", 1.25),
        ],
        Workload::FmnistLike => &[
            ("FedAvg", 81.18, "1.1MB", 1.0),
            ("FedDrop", 81.12, "530KB", 2.0),
            ("AFD", 82.37, "530KB", 2.0),
            ("FedMP", 82.40, "862KB", 1.3),
            ("FjORD", 82.64, "718KB", 1.5),
            ("HeteroFL", 82.68, "685KB", 1.6),
            ("FedBIAD", 83.59, "530KB", 2.0),
        ],
        Workload::PtbLike => &[
            ("FedAvg", 28.54, "29.8MB", 1.0),
            ("FedDrop", 27.81, "23.8MB", 1.25),
            ("AFD", 28.67, "22.4MB", 1.3),
            ("FedMP", 28.76, "22.7MB", 1.3),
            ("FjORD", 27.88, "21.4MB", 1.4),
            ("HeteroFL", 26.80, "20.4MB", 1.5),
            ("FedBIAD", 29.85, "16.4MB", 2.0),
        ],
        Workload::WikiText2Like => &[
            ("FedAvg", 31.86, "75.3MB", 1.0),
            ("FedDrop", 32.02, "57.9MB", 1.3),
            ("AFD", 31.20, "56.5MB", 1.3),
            ("FedMP", 32.53, "59.1MB", 1.3),
            ("FjORD", 31.16, "54.0MB", 1.4),
            ("HeteroFL", 31.84, "52.9MB", 1.4),
            ("FedBIAD", 33.16, "39.1MB", 2.0),
        ],
        Workload::RedditLike => &[
            ("FedAvg", 31.68, "29.8MB", 1.0),
            ("FedDrop", 31.84, "24.1MB", 1.25),
            ("AFD", 32.26, "22.5MB", 1.3),
            ("FedMP", 31.06, "22.7MB", 1.3),
            ("FjORD", 31.35, "21.4MB", 1.4),
            ("HeteroFL", 31.24, "20.4MB", 1.5),
            ("FedBIAD", 33.93, "16.4MB", 2.0),
        ],
    }
}

fn main() {
    let cli = Cli::parse();
    let rounds = cli.rounds.unwrap_or(30);
    let workloads = cli
        .workloads
        .clone()
        .unwrap_or_else(|| Workload::all().to_vec());
    let mut all_logs = Vec::new();

    for w in workloads {
        let bundle = build(w, cli.scale, cli.seed);
        let full_bytes = {
            use fedbiad_tensor::rng::{stream, StreamTag};
            bundle
                .model
                .init_params(&mut stream(cli.seed, StreamTag::Init, 0, 0))
                .total_bytes()
        };
        println!(
            "\n=== Table I — {} (p = {}, {} clients, {} rounds) ===",
            w.name(),
            bundle.dropout_rate,
            bundle.data.num_clients(),
            rounds
        );
        let mut table = Table::new(&[
            "Method",
            "Acc% (measured)",
            "Upload (measured)",
            "Save (measured)",
            "Acc% (paper)",
            "Upload (paper)",
            "Save (paper)",
        ]);
        let paper = paper_rows(w);
        let selected = cli
            .methods
            .clone()
            .unwrap_or_else(|| Method::table1().to_vec());
        for m in selected {
            let mut opts = cli.apply(RunOpts::for_rounds(rounds, cli.seed));
            // Evaluate sparsely during the run for speed; final round is
            // always evaluated.
            opts.eval_every = (rounds / 15).max(1);
            let log = run_method(m, &bundle, opts);
            let up = log.mean_upload_bytes();
            let save = full_bytes as f64 / up as f64;
            let mut row = vec![
                m.name().into(),
                format!("{:.2}", log.final_accuracy_pct()),
                fmt_bytes(up),
                format!("{save:.2}x"),
            ];
            row.extend(paper_cells(paper, m.name(), |r| format!("{r}x")));
            table.row(row);
            println!("  finished {}", m.name());
            all_logs.push(log);
        }
        println!("{}", table.render());
    }

    let path = save_logs_and_export("table1", &all_logs, cli.json_out.as_deref());
    println!("JSON written to {}", path.display());
}
