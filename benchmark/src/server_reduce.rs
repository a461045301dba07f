//! `server_reduce`: what a deployed server and its clients' uplink path
//! execute, with no training anywhere.
//!
//! Set-up builds the lab MLP global and, for a cohort of 128, FedBIAD-style
//! row masks (p = 0.5), seeded dense deltas and the client weights they
//! imply. Every round then runs the **client write side** (DGC and FedPAQ
//! compression, weights and delta frame encoding) and the **server read
//! side** (five streaming reductions over those real wire frames).
//! `compress::codec` and `fl::aggregate` do all the work.
//!
//! DGC runs on a 16-client sub-cohort, not on all 128: its top-k is a full
//! sort (≈ 14 ms per client per round at this model size, measured), which
//! at the full cohort is 84 % of the wall clock and buries the reductions
//! and the codec this workload exists to expose.

use crate::report::{Checks, Report};
use crate::stats::{median_setup_s, Fnv, Recorder};
use fedbiad_compress::codec::{encode_delta, encode_weights};
use fedbiad_compress::dgc::Dgc;
use fedbiad_compress::fedpaq::FedPaq;
use fedbiad_compress::{ClientState, Compressor};
use fedbiad_core::pattern::{keep_count, DropPattern};
use fedbiad_fl::aggregate::{
    aggregate_deltas, aggregate_weights, decode_dense, merge_staleness_weighted,
    screen_upload_values, AggSettings, RobustKind, StalenessUpload, ZeroMode,
};
use fedbiad_fl::upload::{Upload, UploadBody, UploadKind};
use fedbiad_nn::mlp::MlpModel;
use fedbiad_nn::{Model, ModelMask, ParamSet};
use fedbiad_tensor::rng::{stream, StreamTag};
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Clients per round.
const COHORT: usize = 128;
/// The clients (the first of the cohort) that upload DGC frames.
const DGC_COHORT: usize = 16;
/// Rounds per repetition (the one size knob; recorded in `BENCHMARK.json`).
/// DGC's warm-up schedule covers the first four.
const ROUNDS: usize = 10;
/// Reductions per round: masked mean, sparse-f32 deltas, quant8 deltas,
/// trimmed mean, staleness merge.
const REDUCTIONS: usize = 5;
/// Traced mode runs the dense oracle and the other informational layers on
/// every this-many-th round.
const ORACLE_EVERY: usize = 4;

/// Everything the generator derives from the seed; the write and read
/// sides only ever see these.
pub struct Inputs {
    seed: u64,
    global: ParamSet,
    /// Per-client FedBIAD-style coverage (exactly half the row units).
    masks: Vec<ModelMask>,
    /// Per-client dense delta, flat.
    deltas: Vec<Vec<f32>>,
    /// Per-client trained weights: `global + delta`.
    params: Vec<ParamSet>,
    /// Aggregation weight |D_k| per client.
    weights: Vec<f32>,
    /// Staleness τ_k per client for the FedBuff-style merge.
    staleness: Vec<u32>,
}

/// Build the inputs from `seed`.
pub fn setup(seed: u64) -> Inputs {
    let model = MlpModel::new(784, 128, 10);
    let global = model.init_params(&mut stream(seed, StreamTag::Init, 0, 0));
    let n = global.total_params();
    let j = global.num_row_units();
    let mut inputs = Inputs {
        seed,
        masks: Vec::with_capacity(COHORT),
        deltas: Vec::with_capacity(COHORT),
        params: Vec::with_capacity(COHORT),
        weights: Vec::with_capacity(COHORT),
        staleness: Vec::with_capacity(COHORT),
        global,
    };
    for k in 0..COHORT {
        let mut prng = stream(seed, StreamTag::Pattern, 0, k as u64);
        let pattern = DropPattern::sample_global(j, keep_count(j, 0.5), &mut prng);
        inputs.masks.push(pattern.to_mask(&inputs.global));
        let mut drng = stream(seed, StreamTag::Data, 0, k as u64);
        let delta: Vec<f32> = (0..n).map(|_| drng.gen_range(-0.05f32..0.05)).collect();
        let mut flat = inputs.global.flatten();
        for (w, d) in flat.iter_mut().zip(&delta) {
            *w += d;
        }
        let mut params = inputs.global.clone();
        params.unflatten_from(&flat);
        inputs.params.push(params);
        inputs.deltas.push(delta);
        inputs.weights.push(drng.gen_range(40u32..80) as f32);
        inputs.staleness.push(drng.gen_range(0u32..4));
    }
    inputs
}

/// Open a span when tracing, run bare otherwise (the end-to-end mode is
/// untraced).
fn span<R>(rec: Option<&Recorder>, name: &'static str, work: u64, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(rec) => rec.time_work(name, work, f),
        None => f(),
    }
}

/// One round's frames, by family.
struct Frames {
    masked: Vec<Upload>,
    dgc: Vec<Upload>,
    paq: Vec<Upload>,
    /// What each compressor said its payload decodes to (the codec check's
    /// expectation), DGC then FedPAQ.
    decoded: [Vec<Vec<f32>>; 2],
}

impl Frames {
    fn families(&self) -> [&Vec<Upload>; 3] {
        [&self.masked, &self.dgc, &self.paq]
    }
}

/// Per-client compressor memory, fresh at the start of every repetition so
/// repetitions are identical.
struct Clients {
    dgc: Vec<ClientState>,
    paq: Vec<ClientState>,
}

/// Client write side of one round. `keep_decoded` retains what the
/// compressors say their payloads decode to (oracle rounds only — it is a
/// dense vector per frame).
fn write_side(
    inp: &Inputs,
    clients: &mut Clients,
    round: usize,
    keep_decoded: bool,
    rec: Option<&Recorder>,
) -> Frames {
    let (dgc, paq) = (Dgc::paper(), FedPaq::paper());
    let full = ModelMask::full(&inp.global);
    let mut frames = Frames {
        masked: Vec::with_capacity(COHORT),
        dgc: Vec::with_capacity(DGC_COHORT),
        paq: Vec::with_capacity(COHORT),
        decoded: [Vec::new(), Vec::new()],
    };
    for k in 0..COHORT {
        let delta = &inp.deltas[k];
        let raw = 4 * delta.len() as u64;
        let mut crng = stream(inp.seed, StreamTag::Compress, round as u64, k as u64);
        if k < DGC_COHORT {
            let c = span(rec, "compress.dgc_compress", raw, || {
                dgc.compress(&mut clients.dgc[k], delta, round, &mut crng)
            });
            let msg = span(rec, "compress.encode_delta", c.wire_bytes, || {
                encode_delta(&c.payload)
            });
            let upload = Upload::wire(UploadKind::Delta, msg, full.clone(), c.wire_bytes);
            frames.dgc.push(upload);
            if keep_decoded {
                frames.decoded[0].push(c.decoded);
            }
        }

        let c = span(rec, "compress.fedpaq_compress", raw, || {
            paq.compress(&mut clients.paq[k], delta, round, &mut crng)
        });
        let msg = span(rec, "compress.encode_delta", c.wire_bytes, || {
            encode_delta(&c.payload)
        });
        let upload = Upload::wire(UploadKind::Delta, msg, full.clone(), c.wire_bytes);
        frames.paq.push(upload);
        if keep_decoded {
            frames.decoded[1].push(c.decoded);
        }

        let (params, mask) = (&inp.params[k], &inp.masks[k]);
        let body = mask.wire_bytes(params);
        let msg = span(rec, "compress.encode_weights", body, || {
            encode_weights(params, mask)
        });
        let upload = Upload::wire(UploadKind::Weights, msg, mask.clone(), body);
        frames.masked.push(upload);
    }
    frames
}

/// Pair each upload with its aggregation weight |D_k|.
fn weighted<'a>(weights: &[f32], ups: &'a [Upload]) -> Vec<(f32, &'a Upload)> {
    weights.iter().copied().zip(ups).collect()
}

/// The five reductions, in order, under `settings` (streaming engine for
/// the measured path, dense reference for the oracle). `names` are the
/// span names of the five; `None` entries run bare.
fn read_side(
    inp: &Inputs,
    frames: [&Vec<Upload>; 3],
    settings: AggSettings,
    names: [Option<&'static str>; REDUCTIONS],
    rec: Option<&Recorder>,
    checks: &mut Checks,
) -> [ParamSet; REDUCTIONS] {
    let [masked, dgc, paq] = frames;
    let weighted = |ups| weighted(&inp.weights, ups);
    let trimmed = settings.with_robust(RobustKind::TrimmedMean { trim_frac: 0.2 });
    let stale: Vec<StalenessUpload> = masked
        .iter()
        .enumerate()
        .map(|(k, upload)| StalenessUpload {
            weight: inp.weights[k] as f64 / (1.0 + inp.staleness[k] as f64).sqrt(),
            upload,
            snapshot: Some(&inp.global),
        })
        .collect();
    let mut out: [ParamSet; REDUCTIONS] = std::array::from_fn(|_| inp.global.clone());
    let [g_mean, g_sparse, g_quant, g_trim, g_stale] = &mut out;
    let mut run = |i: usize, f: &mut dyn FnMut() -> Result<(), fedbiad_fl::AggError>| {
        let uploads = if i == 1 { dgc.len() } else { COHORT };
        let result = match names[i] {
            Some(name) => span(rec, name, uploads as u64, f),
            None => f(),
        };
        checks.check(result.is_ok(), || format!("reduction {i}: {result:?}"));
    };
    run(0, &mut || {
        aggregate_weights(g_mean, &weighted(masked), ZeroMode::StaleFill, settings)
    });
    run(1, &mut || {
        aggregate_deltas(g_sparse, &weighted(dgc), settings)
    });
    run(2, &mut || {
        aggregate_deltas(g_quant, &weighted(paq), settings)
    });
    run(3, &mut || {
        aggregate_weights(g_trim, &weighted(masked), ZeroMode::StaleFill, trimmed)
    });
    run(4, &mut || {
        merge_staleness_weighted(g_stale, &stale, 1.0, settings)
    });
    out
}

const READ_NAMES: [Option<&str>; REDUCTIONS] = [
    Some("fl.agg_masked_mean"),
    Some("fl.agg_sparse_delta"),
    Some("fl.agg_quant8_delta"),
    Some("fl.agg_trimmed_mean"),
    Some("fl.agg_staleness"),
];

/// The oracle's spans: only the two the catalogue lists are timed.
const ORACLE_NAMES: [Option<&str>; REDUCTIONS] = [
    Some("fl.agg_dense_mean"),
    None,
    None,
    Some("fl.agg_dense_trimmed"),
    None,
];

fn same_bits(a: &ParamSet, b: &ParamSet) -> bool {
    let (a, b) = (a.flatten(), b.flatten());
    a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Dense twin of a wire upload, decoded against `base`.
fn dense_twin(base: &ParamSet, u: &Upload) -> Result<Upload, fedbiad_fl::AggError> {
    Ok(Upload {
        kind: u.kind,
        body: UploadBody::Dense(decode_dense(base, u)?),
        coverage: u.coverage.clone(),
        wire_bytes: u.wire_bytes,
    })
}

/// Informational layers and the oracle, outside the measured wall clock:
/// every frame must validate and decode to what was encoded, the dense
/// reference engine must reproduce each streaming result bit for bit, and
/// the value screen must pass the honest cohort.
fn oracle(
    inp: &Inputs,
    frames: &Frames,
    streamed: &[ParamSet; REDUCTIONS],
    rec: Option<&Recorder>,
    checks: &mut Checks,
) {
    // Codec: view (validation) + full decode of every frame.
    for (family, ups) in frames.families().into_iter().enumerate() {
        for (k, u) in ups.iter().enumerate() {
            let msg = u.wire_msg().expect("wire frame");
            let bytes = msg.as_bytes().len() as u64;
            let decoded = span(rec, "compress.wire_view", bytes, || {
                msg.view(&inp.global).map(|v| v.payload.decode_dense())
            });
            let ok = match (&decoded, family) {
                (Err(_), _) => false,
                // Delta frames carry the compressor's payload verbatim.
                (Ok(v), 1 | 2) => *v == frames.decoded[family - 1][k],
                // Weights frames carry the covered values; the dense twin
                // must be the client's weights with dropped rows zeroed.
                (Ok(_), _) => decode_dense(&inp.global, u).is_ok_and(|twin| {
                    let mut want = inp.params[k].clone();
                    inp.masks[k].apply(&mut want);
                    same_bits(&twin, &want)
                }),
            };
            checks.check(ok, || {
                format!("frame family {family} client {k} did not decode to what was encoded")
            });
        }
    }

    // Dense reference on the decoded twins.
    let twins: Result<Vec<Vec<Upload>>, _> = frames
        .families()
        .into_iter()
        .map(|ups| ups.iter().map(|u| dense_twin(&inp.global, u)).collect())
        .collect();
    match twins {
        Err(e) => checks.check(false, || format!("dense twin decode failed: {e:?}")),
        Ok(twins) => {
            let dense = read_side(
                inp,
                [&twins[0], &twins[1], &twins[2]],
                AggSettings::default(),
                ORACLE_NAMES,
                rec,
                checks,
            );
            for (i, (s, d)) in streamed.iter().zip(&dense).enumerate() {
                checks.check(same_bits(s, d), || {
                    format!("reduction {i}: streaming != dense reference")
                });
            }
        }
    }

    // The price of unconditional value screening (ROADMAP 4c).
    let cohort = weighted(&inp.weights, &frames.masked);
    let screened = span(rec, "fl.screen_values", COHORT as u64, || {
        screen_upload_values(&inp.global, &cohort)
    });
    checks.check(screened.is_ok(), || format!("value screen: {screened:?}"));
}

/// What one repetition measured and produced.
struct Rep {
    /// Write + read wall clock (oracle rounds' extras excluded).
    wall_s: f64,
    /// FNV-1a over every frame length and the last round's five results.
    digest: Fnv,
    /// Σ frame body bytes and frame count.
    body_bytes: u64,
    frames: u64,
}

/// `rounds` rounds of write + read (a repetition is `ROUNDS` of them).
/// The oracle runs on round 0 and every `oracle_every`-th round after it.
fn run_rep(
    inp: &Inputs,
    rounds: usize,
    rec: Option<&Recorder>,
    oracle_every: Option<usize>,
    checks: &mut Checks,
) -> Rep {
    let mut clients = Clients {
        dgc: vec![ClientState::default(); COHORT],
        paq: vec![ClientState::default(); COHORT],
    };
    let mut rep = Rep {
        wall_s: 0.0,
        digest: Fnv::new(),
        body_bytes: 0,
        frames: 0,
    };
    for round in 0..rounds {
        let with_oracle = oracle_every.is_some_and(|every| round % every == 0);
        let t0 = Instant::now();
        let frames = write_side(inp, &mut clients, round, with_oracle, rec);
        let streamed = read_side(
            inp,
            frames.families(),
            AggSettings::sharded(64),
            READ_NAMES,
            rec,
            checks,
        );
        rep.wall_s += t0.elapsed().as_secs_f64();
        // Write-side calls cannot fail softly (compress + encode per frame).
        checks.passed(2 * (DGC_COHORT + COHORT) as u64 + COHORT as u64);

        for u in frames.families().into_iter().flatten() {
            let len = u.wire_msg().expect("wire frame").body_bytes();
            rep.digest.write(&len.to_le_bytes());
            rep.body_bytes += len;
            rep.frames += 1;
        }

        if with_oracle {
            oracle(inp, &frames, &streamed, rec, checks);
        }
        if round + 1 == rounds {
            for g in &streamed {
                for v in g.flatten() {
                    rep.digest.write(&v.to_le_bytes());
                }
            }
        }
        black_box(streamed);
    }
    rep
}

/// Uploads reduced per repetition: four reductions over the whole cohort
/// and one over the DGC sub-cohort, every round.
fn updates_per_rep() -> f64 {
    (((REDUCTIONS - 1) * COHORT + DGC_COHORT) * ROUNDS) as f64
}

/// `--trace 0`: repetitions of the write + read rounds until `seconds`
/// have been measured (at least three). The oracle then checks one extra
/// round — after the peak-RSS reading, because its dense twins are exactly
/// the O(cohort × model) memory the streaming engine exists to avoid.
pub fn run_e2e(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let (setup_s, inp) = median_setup_s(|| setup(seed));
    report.set("setup_s", setup_s);

    let what = format!("{ROUNDS} write+read rounds × {COHORT} clients ({DGC_COHORT} of them DGC)");
    let (wall_s, first) = report.measure_reps(&what, seconds, |checks| {
        let rep = run_rep(&inp, ROUNDS, None, None, checks);
        (rep.wall_s, rep.digest.0, rep)
    });
    report.set("updates_per_s", updates_per_rep() / wall_s);
    report.set(
        "uplink_bytes_per_update",
        first.body_bytes as f64 / first.frames as f64,
    );
    run_rep(&inp, 1, None, Some(1), &mut report.checks);
    report
}

/// `--trace 1`: one untraced reference repetition, then traced
/// repetitions (oracle and informational layers every fourth round) while
/// the budget lasts.
pub fn run_traced(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let budget = Instant::now();
    let inp = setup(seed);
    let reference = run_rep(&inp, ROUNDS, None, None, &mut report.checks);

    let rec = Recorder::new();
    let mut walls = Vec::new();
    loop {
        let t0 = Instant::now();
        let rep = run_rep(
            &inp,
            ROUNDS,
            Some(&rec),
            Some(ORACLE_EVERY),
            &mut report.checks,
        );
        report.checks.check(rep.digest.0 == reference.digest.0, || {
            format!(
                "traced digest {:#018x} != untraced digest {:#018x}",
                rep.digest.0, reference.digest.0
            )
        });
        walls.push(rep.wall_s);
        let spent = t0.elapsed().as_secs_f64();
        if budget.elapsed().as_secs_f64() + spent > seconds {
            break;
        }
    }
    let reps = walls.len();
    let trace_wall = walls.iter().sum::<f64>() / reps as f64;

    let measured: Vec<&str> = READ_NAMES
        .iter()
        .flatten()
        .copied()
        .chain([
            "compress.dgc_compress",
            "compress.fedpaq_compress",
            "compress.encode_weights",
            "compress.encode_delta",
        ])
        .collect();
    let informational = [
        "compress.wire_view",
        "fl.agg_dense_mean",
        "fl.agg_dense_trimmed",
        "fl.screen_values",
    ];
    report.set_spans(&rec, &measured, reps);
    report.set_spans(&rec, &informational, reps);
    // Only the measured spans lie inside the traced wall clock.
    let attributed: f64 = measured.iter().map(|n| rec.get(n).self_s()).sum::<f64>() / reps as f64;
    let unattributed = trace_wall - attributed;
    report.checks.check(unattributed >= 0.0, || {
        format!("Σ self {attributed:.6} s exceeds the traced wall {trace_wall:.6} s")
    });
    println!(
        "identity: Σ write+read self {attributed:.4} s + unattributed {unattributed:.4} s = traced \
         wall {trace_wall:.4} s (mean of {reps}); untraced reference {:.4} s",
        reference.wall_s
    );
    report.set("trace.wall_s", trace_wall);
    report.set("trace.unattributed_s", unattributed);
    report.set(
        "trace.overhead_pct",
        (trace_wall - reference.wall_s) / reference.wall_s * 100.0,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_is_a_function_of_the_seed() {
        let (a, b, c) = (setup(3), setup(3), setup(4));
        assert!(same_bits(&a.params[5], &b.params[5]));
        assert_eq!(a.weights, b.weights);
        assert!(!same_bits(&a.params[5], &c.params[5]));
        let kept = a.masks[0].kept_params(&a.global);
        assert!(kept > 0 && kept < a.global.total_params());
    }

    /// One round through the oracle: every frame decodes to what was
    /// encoded and the streaming engine matches the dense reference.
    #[test]
    fn an_oracle_round_passes_every_check() {
        let mut checks = Checks::default();
        let rep = run_rep(&setup(8), 1, None, Some(1), &mut checks);
        assert_eq!(checks.failed, 0);
        assert_eq!(rep.frames as usize, 2 * COHORT + DGC_COHORT);
        // 5 streaming + 5 dense reductions, 5 comparisons, a check per
        // frame, the value screen, and the write-side calls.
        let frames = rep.frames;
        assert_eq!(
            checks.attempted,
            15 + frames + 1 + (frames + (COHORT + DGC_COHORT) as u64)
        );
    }
}
