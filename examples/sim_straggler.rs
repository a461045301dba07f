//! Straggler showdown: synchronous barrier vs. buffered-async (FedBuff)
//! on a heterogeneous cohort, measured on the simulator's virtual clock.
//!
//! 40 % of the clients are 20× slower than the rest. The sync barrier
//! pays the slowest selected client every round; FedBuff keeps the fast
//! clients cycling and down-weights stale uploads — watch the
//! Time-To-Accuracy gap.
//!
//! ```text
//! cargo run --release --example sim_straggler
//! ```

use fedbiad::fl::round::cohort_size;
use fedbiad::prelude::*;

fn main() {
    let seed = 42;
    let bundle = build(Workload::MnistLike, Scale::Smoke, seed);
    let cfg = ExperimentConfig {
        rounds: 12,
        client_fraction: 0.5,
        seed,
        train: bundle.train,
        eval_topk: bundle.eval_topk,
        eval_every: 1,
        eval_max_samples: 0,
        ..Default::default()
    };
    let stragglers = HeterogeneityProfile::Stragglers {
        fraction: 0.4,
        slowdown: 20.0,
        jitter: 0.05,
    };
    let cohort = cohort_size(bundle.data.num_clients(), cfg.client_fraction);

    println!(
        "cohort: {} of {} clients per round, 40% of devices 20x slower\n",
        cohort,
        bundle.data.num_clients()
    );

    let sync = Simulator::new(
        bundle.model.as_ref(),
        &bundle.data,
        FedAvg::new(),
        SyncBarrier,
        SimConfig::new(cfg, stragglers),
    )
    .run();
    let buffered = Simulator::new(
        bundle.model.as_ref(),
        &bundle.data,
        FedAvg::new(),
        FedBuff::new((cohort / 2).max(1), cohort),
        SimConfig::new(cfg, stragglers),
    )
    .run();

    println!("policy      round  virt-seconds  test-acc");
    println!("-------------------------------------------");
    for report in [&sync, &buffered] {
        for (r, t) in report.log.records.iter().zip(&report.round_end_seconds) {
            println!(
                "{:<10}  {:>5}  {:>12.3}  {:>8.3}",
                report.policy, r.round, t, r.test_acc
            );
        }
    }

    let final_sync = sync.log.records.last().unwrap().test_acc;
    let final_buf = buffered.log.records.last().unwrap().test_acc;
    let target = 0.9 * final_sync.min(final_buf);
    let tta_sync = sync.time_to_accuracy(target);
    let tta_buf = buffered.time_to_accuracy(target);
    println!("\ntarget accuracy: {:.1} %", target * 100.0);
    println!(
        "  sync barrier   TTA: {}",
        tta_sync
            .map(|t| format!("{t:.3} virtual s"))
            .unwrap_or_else(|| "not reached".into())
    );
    println!(
        "  buffered-async TTA: {}",
        tta_buf
            .map(|t| format!("{t:.3} virtual s"))
            .unwrap_or_else(|| "not reached".into())
    );
    if let (Some(s), Some(b)) = (tta_sync, tta_buf) {
        println!("  speedup: {:.1}x", s / b);
    }
}
