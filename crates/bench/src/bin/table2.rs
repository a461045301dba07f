//! Table II: sketched-compression comparison — FedPAQ, SignSGD, STC, DGC,
//! AFD+DGC, Fjord+DGC and FedBIAD+DGC across the five datasets
//! (accuracy, upload size, save ratio vs uncompressed FedAvg).
//!
//! ```text
//! cargo run -p fedbiad-bench --release --bin table2 -- \
//!     [--rounds 30] [--workloads mnist,ptb] [--seed 42]
//! ```

use fedbiad_bench::cli::Cli;
use fedbiad_bench::methods::{run_method, Method, RunOpts};
use fedbiad_bench::output::{paper_cells, save_logs_and_export, PaperRow, Table};
use fedbiad_fl::metrics::fmt_bytes;
use fedbiad_fl::workload::{build, Workload};

/// Published Table II rows: (method, acc %, upload label, save ratio).
fn paper_rows(w: Workload) -> &'static [PaperRow] {
    match w {
        Workload::MnistLike => &[
            ("FedPAQ", 94.90, "129KB", 4.0),
            ("SignSGD", 92.04, "16KB", 33.0),
            ("STC", 90.56, "3KB", 177.0),
            ("DGC", 94.84, "3KB", 177.0),
            ("AFD+DGC", 94.39, "2KB", 265.0),
            ("Fjord+DGC", 94.93, "2KB", 265.0),
            ("FedBIAD+DGC", 95.22, "2KB", 265.0),
        ],
        Workload::FmnistLike => &[
            ("FedPAQ", 78.64, "258KB", 4.0),
            ("SignSGD", 76.57, "33KB", 34.0),
            ("STC", 81.13, "6KB", 188.0),
            ("DGC", 80.64, "4KB", 281.0),
            ("AFD+DGC", 81.96, "3KB", 375.0),
            ("Fjord+DGC", 82.16, "3KB", 375.0),
            ("FedBIAD+DGC", 82.96, "3KB", 375.0),
        ],
        Workload::PtbLike => &[
            ("FedPAQ", 28.60, "7.1MB", 4.0),
            ("SignSGD", 23.76, "908KB", 33.0),
            ("STC", 24.42, "148KB", 206.0),
            ("DGC", 28.10, "95KB", 321.0),
            ("AFD+DGC", 27.74, "71KB", 429.0),
            ("Fjord+DGC", 27.50, "71KB", 429.0),
            ("FedBIAD+DGC", 28.77, "53KB", 575.0),
        ],
        Workload::WikiText2Like => &[
            ("FedPAQ", 32.04, "18.8MB", 4.0),
            ("SignSGD", 30.62, "2.4MB", 32.0),
            ("STC", 28.92, "374KB", 206.0),
            ("DGC", 31.58, "215KB", 359.0),
            ("AFD+DGC", 31.24, "180KB", 428.0),
            ("Fjord+DGC", 30.92, "179KB", 430.0),
            ("FedBIAD+DGC", 33.78, "126KB", 612.0),
        ],
        Workload::RedditLike => &[
            ("FedPAQ", 32.36, "7.1MB", 4.0),
            ("SignSGD", 29.86, "960KB", 32.0),
            ("STC", 30.22, "148KB", 206.0),
            ("DGC", 31.23, "97KB", 314.0),
            ("AFD+DGC", 32.19, "88KB", 346.0),
            ("Fjord+DGC", 30.85, "86KB", 355.0),
            ("FedBIAD+DGC", 32.51, "52KB", 587.0),
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
            "\n=== Table II — {} (p = {}, {} rounds) ===",
            w.name(),
            bundle.dropout_rate,
            rounds
        );
        let mut table = Table::new(&[
            "Method",
            "Acc% (meas)",
            "Upload (meas)",
            "Save (meas)",
            "Acc% (paper)",
            "Upload (paper)",
            "Save (paper)",
        ]);
        let paper = paper_rows(w);
        let selected = cli
            .methods
            .clone()
            .unwrap_or_else(|| Method::table2().to_vec());
        for m in selected {
            let mut opts = cli.apply(RunOpts::for_rounds(rounds, cli.seed));
            opts.eval_every = (rounds / 15).max(1);
            let log = run_method(m, &bundle, opts);
            let up = log.mean_upload_bytes();
            let mut row = vec![
                m.name().into(),
                format!("{:.2}", log.final_accuracy_pct()),
                fmt_bytes(up),
                format!("{:.0}x", full_bytes as f64 / up as f64),
            ];
            row.extend(paper_cells(paper, m.name(), |r| format!("{r:.0}x")));
            table.row(row);
            println!("  finished {}", m.name());
            all_logs.push(log);
        }
        println!("{}", table.render());
    }

    let path = save_logs_and_export("table2", &all_logs, cli.json_out.as_deref());
    println!("JSON written to {}", path.display());
}
