//! Diagnostic, not a paper artifact: the centralized (non-federated)
//! training ceiling of the PTB-like LSTM LM, beside the language's Bayes
//! top-k bounds. Both modes run one loop — `LstmLmModel(vocab, 64, 64, 2)`,
//! batch 12, gradient clip 5, top-3 accuracy on 100 test windows every
//! ITERS/8 steps:
//!
//! * `[ITERS [LR,LR,…]]` — one run per learning rate (default 2000
//!   iterations at 0.5, 1.5, 4, 8), after the Bayes header: calibrates
//!   the workload's rate;
//! * `masked` — a fixed global row mask at p = 0, 0.2, 0.5, lr 4, 2400
//!   iterations: separates "the masked model class cannot learn at this
//!   scale" from "the FL dynamics are broken".
//!
//! ```text
//! cargo run --release --example lm_ceiling -- [ITERS [LRS] | masked]
//! ```

use fedbiad::core::pattern::{keep_count, DropPattern};
use fedbiad::data::synth_text::SyntheticTextSpec;
use fedbiad::data::TextSet;
use fedbiad::nn::lstm_lm::LstmLmModel;
use fedbiad::nn::{Batch, Model};
use fedbiad::tensor::rng::{stream, StreamTag};
use rand::Rng;

const USAGE: &str = "usage: lm_ceiling [ITERS [LR,LR,...]] | lm_ceiling masked";

/// One centralized training run.
struct Run {
    label: String,
    lr: f32,
    /// Drop rate of the fixed row mask (`None`: no mask).
    p: Option<f32>,
    /// Seed of the mini-batch stream.
    batch_seed: u64,
}

/// `text` as a number, or the message naming `what`.
fn number<T: std::str::FromStr>(what: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{what}: expected a number, got `{text}`"))
}

/// The iteration count and runs `args` ask for.
fn plan(args: &[String]) -> Result<(usize, Vec<Run>), String> {
    if args.first().is_some_and(|a| a == "masked") {
        if args.len() > 1 {
            return Err(USAGE.into());
        }
        let runs = [0.0f32, 0.2, 0.5].map(|p| Run {
            label: format!("p={p}"),
            lr: 4.0,
            p: Some(p),
            batch_seed: 3,
        });
        return Ok((2400, runs.into()));
    }
    let (iters, lrs) = match args {
        [] => (2000, vec![0.5, 1.5, 4.0, 8.0]),
        [n] => (number("ITERS", n)?, vec![0.5, 1.5, 4.0, 8.0]),
        [n, lrs] => (
            number("ITERS", n)?,
            lrs.split(',')
                .map(|s| number("LR", s))
                .collect::<Result<_, _>>()?,
        ),
        _ => return Err(USAGE.into()),
    };
    let runs = lrs
        .into_iter()
        .map(|lr: f32| Run {
            label: format!("lr {lr:>5}"),
            lr,
            p: None,
            batch_seed: 2,
        })
        .collect();
    Ok((iters, runs))
}

/// Train `run` for `iters` steps, printing the test accuracy (%) at
/// every eighth of the way.
fn train(model: &LstmLmModel, data: &(TextSet, TextSet), run: &Run, iters: usize) {
    let (train, test) = data;
    let mut params = model.init_params(&mut stream(1, StreamTag::Init, 0, 0));
    let j = params.num_row_units();
    // A fixed sub-model: dropped rows zeroed once, their gradients
    // masked every step.
    let mask = run.p.map(|p| {
        if p == 0.0 {
            DropPattern::full(j)
        } else {
            let mut prng = stream(2, StreamTag::Pattern, 0, 0);
            DropPattern::sample_global(j, keep_count(j, p), &mut prng)
        }
    });
    if let Some(mask) = &mask {
        for ju in (0..j).filter(|&ju| !mask.is_kept(ju)) {
            params.zero_row_unit(ju);
        }
    }
    let mut grads = params.zeros_like();
    let mut brng = stream(run.batch_seed, StreamTag::Batch, 0, 0);
    let n = train.num_windows();
    print!("{}: ", run.label);
    for it in 0..iters {
        let idx: Vec<usize> = (0..12).map(|_| brng.gen_range(0..n)).collect();
        let windows: Vec<&[u32]> = idx.iter().map(|&i| train.window(i)).collect();
        grads.zero();
        let _ = model.loss_grad(&params, &Batch::Seq { windows: &windows }, &mut grads);
        if let Some(mask) = &mask {
            mask.mask_grads(&mut grads);
        }
        grads.clip_global_norm(5.0);
        params.axpy(-run.lr, &grads);
        if (it + 1) % (iters / 8).max(1) == 0 {
            let widx: Vec<&[u32]> = (0..100).map(|i| test.window(i)).collect();
            let acc = model.evaluate(&params, &Batch::Seq { windows: &widx }, 3);
            print!("{:.1} ", acc.accuracy() * 100.0);
        }
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (iters, runs) = plan(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    let spec = SyntheticTextSpec::ptb_like();
    if runs.iter().all(|run| run.p.is_none()) {
        let lang = spec.language(7);
        println!(
            "ptb-like: vocab={} bayes_top3={:.3} bayes_top1={:.3}",
            spec.vocab,
            lang.bayes_top_k(3),
            lang.bayes_top_k(1)
        );
    }
    let data = spec.generate(7);
    let model = LstmLmModel::new(spec.vocab, 64, 64, 2);
    for run in &runs {
        train(&model, &data, run, iters);
    }
}
