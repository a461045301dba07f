//! Differential suite for the sharded streaming aggregation engine:
//! streaming must be **bit-identical** to the dense oracle — across every
//! `ZeroMode`, both upload kinds, all five compressors, shard sizes from
//! 1 KiB up to ≥ the whole model, and 1/2/8 worker threads — plus a
//! 2-round fig2-style end-to-end run and the buffered-async / deadline
//! policy merge paths.
//!
//! The server routes on upload bodies, so every comparison hands the
//! streaming side *wire* uploads and the oracle side their *dense twins*
//! ([`assert_routes`] pins that on both cohorts) — the same uploads on
//! both calls would compare an engine with itself.

use fedbiad::compress::dgc::Dgc;
use fedbiad::compress::fedpaq::FedPaq;
use fedbiad::compress::none::NoCompression;
use fedbiad::compress::signsgd::SignSgd;
use fedbiad::compress::stc::Stc;
use fedbiad::compress::{codec, ClientState, Compressor};
use fedbiad::core::combo::{kept_flat_indices, sketch_masked_weights};
use fedbiad::core::pattern::{keep_count, DropPattern};
use fedbiad::fl::aggregate::{
    aggregate_deltas, aggregate_weights, arena_churn, dense_twin, merge_staleness_weighted,
    AggSettings, RobustKind, StalenessUpload, ZeroMode,
};
use fedbiad::fl::upload::{Upload, UploadBody, UploadKind};
use fedbiad::fl::workload::{build, Scale, Workload};
use fedbiad::nn::mask::BitVec;
use fedbiad::nn::mlp::MlpModel;
use fedbiad::nn::{CoverageMask, Model, ModelMask, ParamSet};
use fedbiad::prelude::*;
use fedbiad::tensor::rng::{stream, StreamTag};
use rand::Rng;
use std::sync::Mutex;

#[path = "support/oracle.rs"]
mod oracle;
use oracle::DenseTwinClients;

/// Tests in this binary toggle the process-wide `RAYON_NUM_THREADS`; they
/// must not interleave (same contract as `tests/thread_determinism.rs`).
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn env_lock() -> std::sync::MutexGuard<'static, ()> {
    // A panicking sibling test poisons the lock; the env var itself is
    // still consistent, so recover rather than cascade failures.
    ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Shard sizes under test: the minimum and a tiny one (many ragged
/// boundaries), the default, and one at least as large as any test model
/// (single-shard case).
const SHARD_KBS: [u32; 4] = [1, 2, 64, 4096];

fn assert_params_bit_identical(a: &ParamSet, b: &ParamSet, what: &str) {
    let (fa, fb) = (a.flatten(), b.flatten());
    assert_eq!(fa.len(), fb.len(), "{what}: param count");
    for (i, (x, y)) in fa.iter().zip(&fb).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: flat element {i}: {x} vs {y}"
        );
    }
}

/// Dense twins of a wire cohort, decoded against `base`.
fn twins(base: &ParamSet, uploads: &[(f32, Upload)]) -> Vec<(f32, Upload)> {
    uploads
        .iter()
        .map(|(w, u)| (*w, dense_twin(base, u).expect("twin decodes")))
        .collect()
}

/// The two sides of a differential comparison really are two engines:
/// every streaming-side upload is wire-bodied, every oracle-side upload a
/// dense twin.
fn assert_routes<'a>(
    wire: impl IntoIterator<Item = &'a Upload>,
    dense: impl IntoIterator<Item = &'a Upload>,
) {
    assert!(wire.into_iter().all(|u| u.wire_msg().is_some()));
    assert!(dense
        .into_iter()
        .all(|u| matches!(u.body, UploadBody::Dense(_))));
}

/// A small-but-multi-entry model (MLP 23→17→5: ragged shapes, biases).
fn test_model() -> MlpModel {
    MlpModel::new(23, 17, 5)
}

fn init_params(seed: u64) -> ParamSet {
    test_model().init_params(&mut stream(seed, StreamTag::Init, 0, 0))
}

fn perturbed(global: &ParamSet, seed: u64) -> ParamSet {
    let mut rng = stream(seed, StreamTag::Init, 1, seed);
    let mut flat = global.flatten();
    for v in &mut flat {
        *v += rng.gen_range(-0.5f32..0.5);
    }
    let mut p = global.zeros_like();
    p.unflatten_from(&flat);
    p
}

/// One masked-weights upload per client (wire-bodied, as clients send
/// them), cycling through every coverage shape (row pattern, rows×cols,
/// elements, full, empty rows).
fn weights_uploads(global: &ParamSet, clients: usize) -> Vec<(f32, Upload)> {
    let j = global.num_row_units();
    (0..clients)
        .map(|k| {
            let params = perturbed(global, 100 + k as u64);
            let mut rng = stream(7, StreamTag::Pattern, 0, k as u64);
            let mask = match k % 5 {
                0 => ModelMask::full(&params),
                1 => {
                    let pat = DropPattern::sample_global(j, keep_count(j, 0.4), &mut rng);
                    pat.to_mask(&params)
                }
                2 => ModelMask {
                    per_entry: (0..params.num_entries())
                        .map(|e| {
                            let (rows, cols) = (params.mat(e).rows(), params.mat(e).cols());
                            let mut rb = BitVec::new(rows, false);
                            let mut cb = BitVec::new(cols, false);
                            for r in 0..rows {
                                rb.set(r, rng.gen_bool(0.7));
                            }
                            for c in 0..cols {
                                cb.set(c, rng.gen_bool(0.7));
                            }
                            CoverageMask::RowsCols { rows: rb, cols: cb }
                        })
                        .collect(),
                },
                3 => ModelMask {
                    per_entry: (0..params.num_entries())
                        .map(|e| {
                            let n = params.mat(e).len();
                            let mut bits = BitVec::new(n, false);
                            for i in 0..n {
                                bits.set(i, rng.gen_bool(0.5));
                            }
                            CoverageMask::Elements(bits)
                        })
                        .collect(),
                },
                _ => {
                    // One client with *empty* row coverage everywhere.
                    ModelMask {
                        per_entry: (0..params.num_entries())
                            .map(|e| CoverageMask::Rows(BitVec::new(params.mat(e).rows(), false)))
                            .collect(),
                    }
                }
            };
            ((k + 1) as f32 * 3.0, Upload::masked_weights(params, mask))
        })
        .collect()
}

/// The five compressors at configurations that hit every payload kind.
fn compressors() -> Vec<(&'static str, Box<dyn Compressor>)> {
    vec![
        ("none", Box::new(NoCompression) as Box<dyn Compressor>),
        (
            "dgc",
            Box::new(Dgc {
                keep_fraction: 0.25,
                momentum: 0.9,
                warmup_rounds: 0,
            }),
        ),
        ("signsgd", Box::new(SignSgd::default())),
        ("stc", Box::new(Stc { keep_fraction: 0.3 })),
        ("fedpaq", Box::new(FedPaq::paper())),
    ]
}

/// Delta uploads from each compressor's *real* payload, as both the dense
/// decoded twin and the actual wire-encoded frame.
fn delta_upload_pair(global: &ParamSet, comp: &dyn Compressor, k: u64) -> (Upload, Upload) {
    let trained = perturbed(global, 300 + k);
    let fg = global.flatten();
    let delta: Vec<f32> = trained
        .flatten()
        .iter()
        .zip(&fg)
        .map(|(a, b)| a - b)
        .collect();
    let mut st = ClientState::default();
    let mut rng = stream(9, StreamTag::Compress, 0, k);
    let c = comp.compress(&mut st, &delta, 0, &mut rng);

    let mut dparams = global.zeros_like();
    dparams.unflatten_from(&c.decoded);
    let dense = Upload {
        kind: UploadKind::Delta,
        coverage: ModelMask::full(global),
        wire_bytes: c.wire_bytes,
        body: UploadBody::Dense(dparams),
    };
    let wire = Upload::wire(
        UploadKind::Delta,
        codec::encode_delta(&c.payload),
        ModelMask::full(global),
        c.wire_bytes,
    );
    (dense, wire)
}

/// Sketched masked-weights uploads (the Fig. 5 combo): the real wire
/// frame, and a dense twin reconstructed *independently* of the decoder —
/// masked global + what the compressor says its payload decodes to, at
/// the kept positions.
fn combo_upload_pair(global: &ParamSet, comp: &dyn Compressor, k: u64) -> (Upload, Upload) {
    let j = global.num_row_units();
    let mut prng = stream(11, StreamTag::Pattern, 1, k);
    let pat = DropPattern::sample_global(j, keep_count(j, 0.5), &mut prng);
    let mask = pat.to_mask(global);
    let mut masked_u = perturbed(global, 500 + k);
    mask.apply(&mut masked_u);

    let mut rng = stream(13, StreamTag::Compress, 2, k);
    let mut st = ClientState::default();
    let out = sketch_masked_weights(comp, &mut st, &masked_u, global, &mask, 0, &mut rng);
    let overhead = mask.wire_bytes(&masked_u) - mask.kept_params(&masked_u) as u64 * 4;
    let wire_bytes = out.payload_bytes + overhead;

    let mut masked_g = global.clone();
    mask.apply(&mut masked_g);
    let mut rec_flat = masked_g.flatten();
    let decoded = out.payload.decode_dense();
    for (pos, &i) in kept_flat_indices(&masked_u, &mask).iter().enumerate() {
        rec_flat[i] += decoded[pos];
    }
    let mut reconstructed = masked_u.zeros_like();
    reconstructed.unflatten_from(&rec_flat);
    let dense = Upload {
        kind: UploadKind::Weights,
        body: UploadBody::Dense(reconstructed),
        coverage: mask.clone(),
        wire_bytes,
    };
    let wire = Upload::wire(
        UploadKind::Weights,
        codec::encode_weights_delta(&mask, &out.payload),
        mask,
        wire_bytes,
    );
    (dense, wire)
}

/// Run the dense oracle over `reference_uploads` (dense twins) and the
/// streaming engine over `uploads` (wire bodies) under every shard size
/// and 1/2/8 threads; everything must agree bitwise.
fn assert_weights_equivalence(
    uploads: &[(f32, Upload)],
    reference_uploads: &[(f32, Upload)],
    global0: &ParamSet,
    what: &str,
) {
    let _guard = env_lock();
    assert_routes(
        uploads.iter().map(|(_, u)| u),
        reference_uploads.iter().map(|(_, u)| u),
    );
    let ups: Vec<(f32, &Upload)> = uploads.iter().map(|(w, u)| (*w, u)).collect();
    let ref_ups: Vec<(f32, &Upload)> = reference_uploads.iter().map(|(w, u)| (*w, u)).collect();
    for mode in [
        ZeroMode::ZerosPull,
        ZeroMode::HoldersOnly,
        ZeroMode::StaleFill,
    ] {
        let mut reference = global0.clone();
        aggregate_weights(&mut reference, &ref_ups, mode, AggSettings::default()).unwrap();
        for kb in SHARD_KBS {
            for threads in ["1", "2", "8"] {
                std::env::set_var("RAYON_NUM_THREADS", threads);
                let mut g = global0.clone();
                aggregate_weights(&mut g, &ups, mode, AggSettings::sharded(kb)).unwrap();
                assert_params_bit_identical(
                    &g,
                    &reference,
                    &format!("{what}/{mode:?}/{kb}KB/{threads}t"),
                );
            }
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

#[test]
fn masked_weights_all_modes_shards_threads() {
    let global = init_params(1);
    let uploads = weights_uploads(&global, 6);
    for (_, u) in &uploads {
        let msg = u.wire_msg().expect("wire body");
        assert_eq!(msg.body_bytes(), u.wire_bytes, "byte accounting");
    }
    assert_weights_equivalence(&uploads, &twins(&global, &uploads), &global, "masked");
}

#[test]
fn combo_weights_every_compressor() {
    let global = init_params(2);
    for (name, comp) in compressors() {
        let pairs: Vec<(Upload, Upload)> = (0..4)
            .map(|k| combo_upload_pair(&global, comp.as_ref(), k))
            .collect();
        // The wire frame must decode to exactly the dense reconstruction.
        let dense_ups: Vec<(f32, Upload)> =
            pairs.iter().map(|(d, _)| (2.0f32, d.clone())).collect();
        let wire_ups: Vec<(f32, Upload)> = pairs.iter().map(|(_, w)| (2.0f32, w.clone())).collect();
        assert_weights_equivalence(&wire_ups, &dense_ups, &global, &format!("combo/{name}"));
    }
}

#[test]
fn delta_uploads_every_compressor() {
    let _guard = env_lock();
    let global = init_params(3);
    for (name, comp) in compressors() {
        let pairs: Vec<(Upload, Upload)> = (0..5)
            .map(|k| delta_upload_pair(&global, comp.as_ref(), k))
            .collect();
        let ups_d: Vec<(f32, &Upload)> = pairs
            .iter()
            .enumerate()
            .map(|(i, (d, _))| ((i + 1) as f32, d))
            .collect();
        let ups_w: Vec<(f32, &Upload)> = pairs
            .iter()
            .enumerate()
            .map(|(i, (_, w))| ((i + 1) as f32, w))
            .collect();
        assert_routes(ups_w.iter().map(|(_, u)| *u), ups_d.iter().map(|(_, u)| *u));
        let mut reference = global.clone();
        aggregate_deltas(&mut reference, &ups_d, AggSettings::default()).unwrap();
        for kb in SHARD_KBS {
            for threads in ["1", "2", "8"] {
                std::env::set_var("RAYON_NUM_THREADS", threads);
                let mut g = global.clone();
                aggregate_deltas(&mut g, &ups_w, AggSettings::sharded(kb)).unwrap();
                assert_params_bit_identical(
                    &g,
                    &reference,
                    &format!("delta/{name}/{kb}KB/{threads}t"),
                );
            }
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

/// A mixed FedBuff buffer — masked weights (with snapshots) and one
/// sketched delta — as the wire items the simulator buffers and as their
/// dense twins.
struct StalenessFixture {
    global: ParamSet,
    snapshots: Vec<ParamSet>,
    weights: Vec<(f32, Upload)>,
    weight_twins: Vec<(f32, Upload)>,
    delta_dense: Upload,
    delta_wire: Upload,
}

impl StalenessFixture {
    fn new() -> Self {
        let global = init_params(4);
        let weights = weights_uploads(&global, 3);
        let dgc = Dgc {
            keep_fraction: 0.25,
            momentum: 0.9,
            warmup_rounds: 0,
        };
        let (delta_dense, delta_wire) = delta_upload_pair(&global, &dgc, 9);
        Self {
            snapshots: (0..3).map(|k| perturbed(&global, 700 + k)).collect(),
            weight_twins: twins(&global, &weights),
            weights,
            delta_dense,
            delta_wire,
            global,
        }
    }

    fn items<'a>(
        &'a self,
        weights: &'a [(f32, Upload)],
        delta: &'a Upload,
    ) -> Vec<StalenessUpload<'a>> {
        weights
            .iter()
            .zip(&self.snapshots)
            .map(|((w, u), s)| StalenessUpload {
                weight: *w as f64 / 1.5,
                upload: u,
                snapshot: Some(s),
            })
            .chain(std::iter::once(StalenessUpload {
                weight: 4.0,
                upload: delta,
                snapshot: None,
            }))
            .collect()
    }

    /// Oracle merge on the twins vs streaming merge on the wire items,
    /// every shard size × 1/2/8 threads.
    fn assert_equivalence(&self, settings: impl Fn(AggSettings) -> AggSettings, what: &str) {
        let dense_items = self.items(&self.weight_twins, &self.delta_dense);
        let wire_items = self.items(&self.weights, &self.delta_wire);
        assert_routes(
            wire_items.iter().map(|it| it.upload),
            dense_items.iter().map(|it| it.upload),
        );
        let mut reference = self.global.clone();
        let default = settings(AggSettings::default());
        merge_staleness_weighted(&mut reference, &dense_items, 0.75, default).unwrap();
        for kb in SHARD_KBS {
            for threads in ["1", "2", "8"] {
                std::env::set_var("RAYON_NUM_THREADS", threads);
                let mut g = self.global.clone();
                let sharded = settings(AggSettings::sharded(kb));
                merge_staleness_weighted(&mut g, &wire_items, 0.75, sharded).unwrap();
                assert_params_bit_identical(&g, &reference, &format!("{what}/{kb}KB/{threads}t"));
            }
        }
        std::env::remove_var("RAYON_NUM_THREADS");
    }
}

#[test]
fn staleness_merge_matches_dense() {
    let _guard = env_lock();
    StalenessFixture::new().assert_equivalence(|s| s, "staleness");
}

#[test]
fn steady_state_streaming_allocates_nothing() {
    let _guard = env_lock();
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let global0 = init_params(5);
    let uploads = weights_uploads(&global0, 4);
    let ups: Vec<(f32, &Upload)> = uploads.iter().map(|(w, u)| (*w, u)).collect();
    // The mean, and both order statistics (four clients: trim depth 1),
    // whose column tiles and keys come from the same arena.
    let settings = [
        AggSettings::sharded(16),
        AggSettings::sharded(16).with_robust(RobustKind::TrimmedMean { trim_frac: 0.25 }),
        AggSettings::sharded(16).with_robust(RobustKind::CoordinateMedian),
    ];
    let run = |g0: &ParamSet, settings: AggSettings| {
        let mut g = g0.clone();
        aggregate_weights(&mut g, &ups, ZeroMode::StaleFill, settings).unwrap();
        g
    };
    // Warm-up round populates the arena…
    for s in settings {
        let _ = run(&global0, s);
    }
    let warm = arena_churn();
    // …after which repeated aggregations must not allocate data buffers.
    let mut g = global0.clone();
    for _ in 0..5 {
        for s in settings {
            g = run(&g, s);
        }
    }
    assert_eq!(
        arena_churn(),
        warm,
        "steady-state streaming aggregation must be arena-served"
    );
    std::env::remove_var("RAYON_NUM_THREADS");
}

// ---- robust estimators: oracle ≡ streaming -----------------------------

/// The non-mean estimator family under differential test. The trim
/// fraction and clip radius are chosen so both branches of each estimator
/// actually fire on the 7-client fixtures (k = 1 trims something, τ = 0.5
/// clips some uploads and passes others through).
fn robust_kinds() -> Vec<(&'static str, RobustKind)> {
    vec![
        ("trim", RobustKind::TrimmedMean { trim_frac: 0.2 }),
        ("median", RobustKind::CoordinateMedian),
        ("clip", RobustKind::NormClip { tau: 0.5 }),
    ]
}

/// Dense reference vs streaming under a robust estimator: every
/// `ZeroMode` × shard size × 1/2/8 threads must agree bitwise (the
/// tentpole pin: order statistics gather the same column bits in both
/// engines).
fn assert_robust_weights_equivalence(
    uploads: &[(f32, Upload)],
    reference_uploads: &[(f32, Upload)],
    robust: RobustKind,
    what: &str,
) {
    let _guard = env_lock();
    let global0 = init_params(1);
    assert_routes(
        uploads.iter().map(|(_, u)| u),
        reference_uploads.iter().map(|(_, u)| u),
    );
    let ups: Vec<(f32, &Upload)> = uploads.iter().map(|(w, u)| (*w, u)).collect();
    let ref_ups: Vec<(f32, &Upload)> = reference_uploads.iter().map(|(w, u)| (*w, u)).collect();
    for mode in [
        ZeroMode::ZerosPull,
        ZeroMode::HoldersOnly,
        ZeroMode::StaleFill,
    ] {
        let mut reference = global0.clone();
        aggregate_weights(
            &mut reference,
            &ref_ups,
            mode,
            AggSettings::default().with_robust(robust),
        )
        .unwrap();
        for kb in SHARD_KBS {
            for threads in ["1", "2", "8"] {
                std::env::set_var("RAYON_NUM_THREADS", threads);
                let mut g = global0.clone();
                aggregate_weights(
                    &mut g,
                    &ups,
                    mode,
                    AggSettings::sharded(kb).with_robust(robust),
                )
                .unwrap();
                assert_params_bit_identical(
                    &g,
                    &reference,
                    &format!("{what}/{mode:?}/{kb}KB/{threads}t"),
                );
            }
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

#[test]
fn robust_weights_all_modes_shards_threads() {
    let global = init_params(1);
    // 7 clients cycle through every coverage shape, including the
    // all-empty-coverage client — partial participant sets per coordinate
    // exercise the trimmed-empty / empty-holder branches.
    let uploads = weights_uploads(&global, 7);
    let reference = twins(&global, &uploads);
    for (name, robust) in robust_kinds() {
        assert_robust_weights_equivalence(&uploads, &reference, robust, &format!("robust/{name}"));
    }
}

#[test]
fn robust_deltas_dense_vs_streaming() {
    let _guard = env_lock();
    let global = init_params(3);
    let dgc = Dgc {
        keep_fraction: 0.25,
        momentum: 0.9,
        warmup_rounds: 0,
    };
    for (cname, comp) in [
        ("none", &NoCompression as &dyn Compressor),
        ("dgc", &dgc as &dyn Compressor),
    ] {
        let pairs: Vec<(Upload, Upload)> = (0..6)
            .map(|k| delta_upload_pair(&global, comp, k))
            .collect();
        let ups_d: Vec<(f32, &Upload)> = pairs
            .iter()
            .enumerate()
            .map(|(i, (d, _))| ((i + 1) as f32, d))
            .collect();
        let ups_w: Vec<(f32, &Upload)> = pairs
            .iter()
            .enumerate()
            .map(|(i, (_, w))| ((i + 1) as f32, w))
            .collect();
        assert_routes(ups_w.iter().map(|(_, u)| *u), ups_d.iter().map(|(_, u)| *u));
        for (name, robust) in robust_kinds() {
            let mut reference = global.clone();
            aggregate_deltas(
                &mut reference,
                &ups_d,
                AggSettings::default().with_robust(robust),
            )
            .unwrap();
            for kb in SHARD_KBS {
                for threads in ["1", "2", "8"] {
                    std::env::set_var("RAYON_NUM_THREADS", threads);
                    let mut g = global.clone();
                    aggregate_deltas(&mut g, &ups_w, AggSettings::sharded(kb).with_robust(robust))
                        .unwrap();
                    assert_params_bit_identical(
                        &g,
                        &reference,
                        &format!("robust-delta/{cname}/{name}/{kb}KB/{threads}t"),
                    );
                }
            }
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

#[test]
fn robust_staleness_merge_matches_dense() {
    let _guard = env_lock();
    let fixture = StalenessFixture::new();
    for (name, robust) in robust_kinds() {
        fixture.assert_equivalence(
            |s| s.with_robust(robust),
            &format!("robust-staleness/{name}"),
        );
    }
}

/// `trim_frac = 0` (and a cohort too small to trim) routes to the mean
/// engines verbatim, and an all-honest `norm_clip` round with a radius
/// larger than any delta passes every upload through untouched — both
/// must reproduce the historical weighted mean **bitwise**, oracle and
/// streaming, which is what keeps the robust knob out of the golden
/// digests when it is configured but inactive.
#[test]
fn inactive_robust_settings_reproduce_the_mean_bitwise() {
    let _guard = env_lock();
    let global0 = init_params(6);
    let uploads = weights_uploads(&global0, 6);
    let reference = twins(&global0, &uploads);
    assert_routes(
        uploads.iter().map(|(_, u)| u),
        reference.iter().map(|(_, u)| u),
    );
    let ups: Vec<(f32, &Upload)> = uploads.iter().map(|(w, u)| (*w, u)).collect();
    let ref_ups: Vec<(f32, &Upload)> = reference.iter().map(|(w, u)| (*w, u)).collect();
    let inactive = [
        ("trim0", RobustKind::TrimmedMean { trim_frac: 0.0 }),
        // ⌊0.12·6⌋ = 0: a cohort too small for the fraction to bite.
        ("trim-small", RobustKind::TrimmedMean { trim_frac: 0.12 }),
        ("clip-huge", RobustKind::NormClip { tau: 1e9 }),
    ];
    for mode in [
        ZeroMode::ZerosPull,
        ZeroMode::HoldersOnly,
        ZeroMode::StaleFill,
    ] {
        let mut mean = global0.clone();
        aggregate_weights(&mut mean, &ref_ups, mode, AggSettings::default()).unwrap();
        for (name, robust) in inactive {
            for (engine, cohort, settings) in [
                ("oracle", &ref_ups, AggSettings::default()),
                ("streaming", &ups, AggSettings::sharded(2)),
                ("streaming", &ups, AggSettings::sharded(64)),
            ] {
                let mut g = global0.clone();
                aggregate_weights(&mut g, cohort, mode, settings.with_robust(robust)).unwrap();
                assert_params_bit_identical(
                    &g,
                    &mean,
                    &format!("inactive/{name}/{mode:?}/{engine}/{}KB", settings.shard_kb),
                );
            }
        }
    }
}

/// Satellite: elements whose holder set is empty — or emptied by the
/// cohort-level trim depth — keep the previous global value under the
/// robust engines, exactly like the mean engines' "no holders" rule.
/// Differential across ZeroModes and both engines.
#[test]
fn robust_empty_holder_sets_keep_previous_global() {
    let _guard = env_lock();
    let global = init_params(8);
    // Client 0 covers only row 0 of entry 0; clients 1 and 2 cover
    // nothing at all. Every covered coordinate has exactly one holder.
    let params = perturbed(&global, 901);
    let mask = ModelMask {
        per_entry: (0..params.num_entries())
            .map(|e| {
                let mut rb = BitVec::new(params.mat(e).rows(), false);
                if e == 0 {
                    rb.set(0, true);
                }
                CoverageMask::Rows(rb)
            })
            .collect(),
    };
    // Flat coverage indicator of client 0's mask (1.0 covered / 0.0 not).
    let coverage: Vec<f32> = {
        let mut ones = global.zeros_like();
        let n = ones.flatten().len();
        ones.unflatten_from(&vec![1.0f32; n]);
        mask.apply(&mut ones);
        ones.flatten()
    };
    assert!(coverage.iter().any(|&c| c != 0.0), "mask covers something");
    assert!(coverage.contains(&0.0), "mask leaves gaps");
    let uploads = [
        (3.0f32, Upload::masked_weights(params.clone(), mask)),
        (2.0f32, weights_uploads(&global, 5)[4].1.clone()),
        (1.0f32, weights_uploads(&global, 5)[4].1.clone()),
    ];
    let reference = twins(&global, &uploads);
    assert_routes(
        uploads.iter().map(|(_, u)| u),
        reference.iter().map(|(_, u)| u),
    );
    let ups: Vec<(f32, &Upload)> = uploads.iter().map(|(w, u)| (*w, u)).collect();
    let ref_ups: Vec<(f32, &Upload)> = reference.iter().map(|(w, u)| (*w, u)).collect();
    let engines = [
        ("oracle", &ref_ups, AggSettings::default()),
        ("streaming", &ups, AggSettings::sharded(2)),
    ];

    // ⌊0.34·3⌋ = 1 trims one from each tail: the single-holder coordinates
    // trim *empty* and every uncovered coordinate has no holders at all —
    // under HoldersOnly/StaleFill the whole global must survive bitwise.
    let trim = RobustKind::TrimmedMean { trim_frac: 0.34 };
    for mode in [ZeroMode::HoldersOnly, ZeroMode::StaleFill] {
        for (engine, cohort, settings) in engines {
            let mut g = global.clone();
            aggregate_weights(&mut g, cohort, mode, settings.with_robust(trim)).unwrap();
            assert_params_bit_identical(&g, &global, &format!("trim-empty/{mode:?}/{engine}"));
        }
    }
    // ZerosPull keeps all three uploads as exact zeros per coordinate, so
    // the global *does* move — pin oracle ≡ streaming on the degenerate
    // coverage instead.
    let [zp_dense, zp_stream] = engines.map(|(_, cohort, settings)| {
        let mut g = global.clone();
        aggregate_weights(
            &mut g,
            cohort,
            ZeroMode::ZerosPull,
            settings.with_robust(trim),
        )
        .unwrap();
        g
    });
    assert_params_bit_identical(&zp_dense, &zp_stream, "trim-empty/ZerosPull");

    // Coordinate median under HoldersOnly: a single-holder coordinate's
    // median is that holder's value; no-holder coordinates keep g_prev.
    for (_, cohort, settings) in engines {
        let mut g = global.clone();
        aggregate_weights(
            &mut g,
            cohort,
            ZeroMode::HoldersOnly,
            settings.with_robust(RobustKind::CoordinateMedian),
        )
        .unwrap();
        let (gf, pf, g0) = (g.flatten(), params.flatten(), global.flatten());
        for j in 0..gf.len() {
            let expect = if coverage[j] != 0.0 { pf[j] } else { g0[j] };
            assert_eq!(
                gf[j].to_bits(),
                expect.to_bits(),
                "median holders flat {j} (covered={})",
                coverage[j] != 0.0
            );
        }
    }
}

/// The robust engines count, once per shard, the coordinates they
/// combined (`agg.robust_columns`) and those the cohort-level trim
/// emptied (`agg.robust_columns_emptied`, kept at the previous global).
/// One client covering one row and two covering nothing, trimmed by one
/// per tail: under `HoldersOnly` every coordinate empties; under
/// `ZerosPull` all three uploads participate everywhere and none does;
/// the median never trims.
#[test]
fn robust_column_counters_count_emptied_trims() {
    if !fedbiad::telemetry::compiled() {
        eprintln!("telemetry not compiled in; counter test skipped");
        return;
    }
    // Only robust aggregations emit these counters, and every test that
    // runs one holds this lock, so the capture sees this test's alone.
    let _guard = env_lock();
    let global = init_params(8);
    let params = perturbed(&global, 902);
    let mask = ModelMask {
        per_entry: (0..params.num_entries())
            .map(|e| {
                let mut rb = BitVec::new(params.mat(e).rows(), false);
                rb.set(0, e == 0);
                CoverageMask::Rows(rb)
            })
            .collect(),
    };
    let empty = weights_uploads(&global, 5)[4].1.clone();
    let uploads = [
        (3.0f32, Upload::masked_weights(params, mask)),
        (2.0f32, empty.clone()),
        (1.0f32, empty),
    ];
    let ups: Vec<(f32, &Upload)> = uploads.iter().map(|(w, u)| (*w, u)).collect();
    let total = global.total_params() as u64;
    let trim = RobustKind::TrimmedMean { trim_frac: 0.34 };
    for (robust, mode, emptied) in [
        (trim, ZeroMode::HoldersOnly, total),
        (trim, ZeroMode::ZerosPull, 0),
        (RobustKind::CoordinateMedian, ZeroMode::StaleFill, 0),
    ] {
        let mut g = global.clone();
        fedbiad::telemetry::begin_capture();
        aggregate_weights(
            &mut g,
            &ups,
            mode,
            AggSettings::sharded(2).with_robust(robust),
        )
        .unwrap();
        let summary = fedbiad::telemetry::end_capture().summary();
        let count = |name| summary.counter(name).unwrap_or(0);
        assert_eq!(count("agg.robust_columns"), total, "{robust:?}/{mode:?}");
        assert_eq!(
            count("agg.robust_columns_emptied"),
            emptied,
            "{robust:?}/{mode:?}"
        );
    }
}

// ---- large cohorts: column tiles that cut rows ---------------------------

/// Cohort sizes for the large-cohort suite: one and two uploads (only the
/// median is active there), a handful, and cohorts whose column tiles
/// (`⌊32 768 / n⌋` coordinates) are shorter than a 600-wide row, so tiles
/// cut rows and a 4-column batch can straddle a tile's last row piece.
const LARGE_COHORTS: [usize; 7] = [1, 2, 5, 64, 128, 129, 257];

/// The large-cohort model: MLP 600→20→7, whose first matrix's rows are
/// longer than every tile of a cohort of 64 or more.
fn wide_params(seed: u64) -> ParamSet {
    MlpModel::new(600, 20, 7).init_params(&mut stream(seed, StreamTag::Init, 0, seed))
}

/// Masked-weights uploads of a large cohort, cycling through `Full`,
/// `Rows`, finer coverage and empty coverage. The finer masks
/// (`RowsCols` on some clients, `Elements` on others) sit on entry
/// `fine_entry` only; the other entry is `Rows` there, so one entry's
/// rows share a participant list across the cohort and the other's
/// columns gather per lane.
fn large_weights_uploads(global: &ParamSet, n: usize, fine_entry: usize) -> Vec<(f32, Upload)> {
    (0..n)
        .map(|k| {
            let params = perturbed(global, 2000 + k as u64);
            let mut rng = stream(17, StreamTag::Pattern, 0, k as u64);
            let per_entry = (0..params.num_entries())
                .map(|e| {
                    let (rows, cols) = (params.mat(e).rows(), params.mat(e).cols());
                    let mut bits = |len: usize, p: f64| {
                        let mut b = BitVec::new(len, false);
                        for i in 0..len {
                            b.set(i, rng.gen_bool(p));
                        }
                        b
                    };
                    match k % 5 {
                        0 => CoverageMask::Full,
                        4 => CoverageMask::Rows(BitVec::new(rows, false)),
                        2 if e == fine_entry => CoverageMask::RowsCols {
                            rows: bits(rows, 0.7),
                            cols: bits(cols, 0.7),
                        },
                        3 if e == fine_entry => CoverageMask::Elements(bits(rows * cols, 0.5)),
                        _ => CoverageMask::Rows(bits(rows, 0.5)),
                    }
                })
                .collect();
            (
                large_weight(k),
                Upload::masked_weights(params, ModelMask { per_entry }),
            )
        })
        .collect()
}

/// The weight of upload `k` of a large cohort: not an integer, so a Σw
/// chain folded in another order, or over other uploads, rounds
/// differently.
fn large_weight(k: usize) -> f32 {
    0.5 + (k as f32 * 0.618_034).fract() * 4.0
}

/// Shard sizes of the large-cohort suite: ragged shards shorter than a
/// row, and the default.
const LARGE_SHARD_KBS: [u32; 2] = [2, 64];

/// The order statistics under large-cohort test: a shallow and a deep
/// trim, and the median.
fn large_robust_kinds() -> [(&'static str, RobustKind); 3] {
    [
        ("trim0.2", RobustKind::TrimmedMean { trim_frac: 0.2 }),
        ("trim0.45", RobustKind::TrimmedMean { trim_frac: 0.45 }),
        ("median", RobustKind::CoordinateMedian),
    ]
}

/// Run `streaming(settings)` at every large-cohort shard size and 1/2/8
/// threads against `reference`, bitwise.
fn assert_streaming_matches(
    reference: &ParamSet,
    robust: RobustKind,
    what: &str,
    streaming: impl Fn(AggSettings) -> ParamSet,
) {
    for kb in LARGE_SHARD_KBS {
        for threads in ["1", "2", "8"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let g = streaming(AggSettings::sharded(kb).with_robust(robust));
            assert_params_bit_identical(&g, reference, &format!("{what}/{kb}KB/{threads}t"));
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

#[test]
fn large_cohort_robust_weights_dense_vs_streaming() {
    let _guard = env_lock();
    let global = wide_params(40);
    for n in LARGE_COHORTS {
        for fine_entry in [0, 1] {
            let uploads = large_weights_uploads(&global, n, fine_entry);
            let reference = twins(&global, &uploads);
            let ups: Vec<(f32, &Upload)> = uploads.iter().map(|(w, u)| (*w, u)).collect();
            let ref_ups: Vec<(f32, &Upload)> = reference.iter().map(|(w, u)| (*w, u)).collect();
            assert_routes(ups.iter().map(|(_, u)| *u), ref_ups.iter().map(|(_, u)| *u));
            for (name, robust) in large_robust_kinds() {
                for mode in [
                    ZeroMode::ZerosPull,
                    ZeroMode::HoldersOnly,
                    ZeroMode::StaleFill,
                ] {
                    let mut want = global.clone();
                    let settings = AggSettings::default().with_robust(robust);
                    aggregate_weights(&mut want, &ref_ups, mode, settings).unwrap();
                    let what = format!("large/n={n}/fine={fine_entry}/{name}/{mode:?}");
                    assert_streaming_matches(&want, robust, &what, |settings| {
                        let mut g = global.clone();
                        aggregate_weights(&mut g, &ups, mode, settings).unwrap();
                        g
                    });
                }
            }
        }
    }
}

/// A large FedBuff buffer: masked weights against one of three
/// `snapshots`, every fourth item a delta frame (`deltas`' dense twin on
/// the oracle side).
fn large_buffer<'a>(
    masked: &'a [(f32, Upload)],
    deltas: &'a [(Upload, Upload)],
    snapshots: &'a [ParamSet],
    dense: bool,
) -> Vec<StalenessUpload<'a>> {
    (0..masked.len())
        .map(|k| {
            let weight = f64::from(large_weight(k)) / (1.0 + (k % 4) as f64).sqrt();
            if k % 4 == 3 {
                let (d, w) = &deltas[k];
                StalenessUpload {
                    weight,
                    upload: if dense { d } else { w },
                    snapshot: None,
                }
            } else {
                StalenessUpload {
                    weight,
                    upload: &masked[k].1,
                    snapshot: Some(&snapshots[k % 3]),
                }
            }
        })
        .collect()
}

#[test]
fn large_cohort_robust_deltas_and_staleness_dense_vs_streaming() {
    let _guard = env_lock();
    let global = wide_params(41);
    let dgc = Dgc {
        keep_fraction: 0.25,
        momentum: 0.9,
        warmup_rounds: 0,
    };
    let snapshots: Vec<ParamSet> = (0..3).map(|k| perturbed(&global, 800 + k)).collect();
    for n in LARGE_COHORTS {
        // Dense and sparse delta frames, alternating.
        let deltas: Vec<(Upload, Upload)> = (0..n as u64)
            .map(|k| {
                let comp: &dyn Compressor = if k % 2 == 0 { &NoCompression } else { &dgc };
                delta_upload_pair(&global, comp, k)
            })
            .collect();
        let ups_d: Vec<(f32, &Upload)> = deltas
            .iter()
            .enumerate()
            .map(|(k, (d, _))| (large_weight(k), d))
            .collect();
        let ups_w: Vec<(f32, &Upload)> = deltas
            .iter()
            .enumerate()
            .map(|(k, (_, w))| (large_weight(k), w))
            .collect();
        assert_routes(ups_w.iter().map(|(_, u)| *u), ups_d.iter().map(|(_, u)| *u));

        let masked = large_weights_uploads(&global, n, 0);
        let masked_twins = twins(&global, &masked);
        let dense_items = large_buffer(&masked_twins, &deltas, &snapshots, true);
        let wire_items = large_buffer(&masked, &deltas, &snapshots, false);
        assert_routes(
            wire_items.iter().map(|it| it.upload),
            dense_items.iter().map(|it| it.upload),
        );

        for (name, robust) in large_robust_kinds() {
            let mut want = global.clone();
            aggregate_deltas(
                &mut want,
                &ups_d,
                AggSettings::default().with_robust(robust),
            )
            .unwrap();
            assert_streaming_matches(&want, robust, &format!("large-delta/n={n}/{name}"), |s| {
                let mut g = global.clone();
                aggregate_deltas(&mut g, &ups_w, s).unwrap();
                g
            });

            let mut want = global.clone();
            let settings = AggSettings::default().with_robust(robust);
            merge_staleness_weighted(&mut want, &dense_items, 0.75, settings).unwrap();
            assert_streaming_matches(
                &want,
                robust,
                &format!("large-staleness/n={n}/{name}"),
                |s| {
                    let mut g = global.clone();
                    merge_staleness_weighted(&mut g, &wire_items, 0.75, s).unwrap();
                    g
                },
            );
        }
    }
}

// ---- end-to-end: full experiments, oracle vs streaming -----------------

fn assert_logs_bit_identical(a: &ExperimentLog, b: &ExperimentLog, what: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{what}: rounds");
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(
            ra.train_loss.to_bits(),
            rb.train_loss.to_bits(),
            "{what}: train loss r{}",
            ra.round
        );
        assert_eq!(
            ra.test_loss.to_bits(),
            rb.test_loss.to_bits(),
            "{what}: test loss r{}",
            ra.round
        );
        assert_eq!(
            ra.test_acc.to_bits(),
            rb.test_acc.to_bits(),
            "{what}: test acc r{}",
            ra.round
        );
        assert_eq!(
            ra.upload_bytes_mean, rb.upload_bytes_mean,
            "{what}: upload bytes r{}",
            ra.round
        );
        assert_eq!(
            ra.upload_bytes_max, rb.upload_bytes_max,
            "{what}: max upload bytes r{}",
            ra.round
        );
        assert_eq!(
            ra.download_bytes, rb.download_bytes,
            "{what}: download bytes r{}",
            ra.round
        );
    }
}

fn e2e_cfg(bundle: &fedbiad::fl::workload::WorkloadBundle) -> ExperimentConfig {
    ExperimentConfig {
        rounds: 2,
        client_fraction: 0.5,
        seed: 21,
        train: bundle.train,
        eval_topk: bundle.eval_topk,
        eval_every: 1,
        eval_max_samples: 200,
        // 1 KiB shards: the raggedest schedule.
        agg: AggSettings::sharded(1),
        ..Default::default()
    }
}

/// The fig2 motivation experiment, two rounds, oracle vs streaming — the
/// whole vertical slice (client encode → wire → sharded reduce) must
/// reproduce the run whose uploads are swapped for dense twins (and
/// therefore aggregate on the dense reference engine) bit for bit, for a
/// dropout method (FedBIAD, `Weights`) and a sketched method
/// (FedAvg+DGC-style `Delta`).
#[test]
fn fig2_two_round_end_to_end_dense_vs_streaming() {
    let bundle = build(Workload::MnistLike, Scale::Smoke, 21);
    let (model, data, cfg) = (bundle.model.as_ref(), &bundle.data, e2e_cfg(&bundle));
    let fedbiad = || FedBiad::new(FedBiadConfig::paper(bundle.dropout_rate, 1));
    assert_logs_bit_identical(
        &Experiment::new(model, data, DenseTwinClients(fedbiad()), cfg).run(),
        &Experiment::new(model, data, fedbiad(), cfg).run(),
        "fig2/fedbiad",
    );
    let sketched = || FedAvg::with_sketch(std::sync::Arc::new(Dgc::paper()));
    assert_logs_bit_identical(
        &Experiment::new(model, data, DenseTwinClients(sketched()), cfg).run(),
        &Experiment::new(model, data, sketched(), cfg).run(),
        "fig2/fedavg+dgc",
    );
}

/// The simulator's three policy merge paths (sync barrier, deadline
/// over-selection, FedBuff buffered-async staleness weighting) under
/// streaming vs the oracle.
#[test]
fn sim_policies_dense_vs_streaming() {
    let bundle = build(Workload::MnistLike, Scale::Smoke, 31);
    let mk_cfg = || {
        let mut cfg = e2e_cfg(&bundle);
        cfg.seed = 31;
        SimConfig::new(
            cfg,
            HeterogeneityProfile::Stragglers {
                fraction: 0.3,
                slowdown: 15.0,
                jitter: 0.1,
            },
        )
    };
    fn run<A: fedbiad::fl::FlAlgorithm>(
        bundle: &fedbiad::fl::workload::WorkloadBundle,
        policy: &str,
        algo: A,
        cfg: SimConfig,
    ) -> SimReport {
        let (model, data) = (bundle.model.as_ref(), &bundle.data);
        match policy {
            "sync" => Simulator::new(model, data, algo, SyncBarrier, cfg).run(),
            "deadline" => {
                Simulator::new(model, data, algo, DeadlineOverSelect::new(1.5, 200.0), cfg).run()
            }
            _ => Simulator::new(model, data, algo, FedBuff::new(2, 3), cfg).run(),
        }
    }
    let fedbiad = || FedBiad::new(FedBiadConfig::paper(bundle.dropout_rate, 1));
    for policy in ["sync", "deadline", "fedbuff"] {
        let dense = run(&bundle, policy, DenseTwinClients(fedbiad()), mk_cfg());
        let streaming = run(&bundle, policy, fedbiad(), mk_cfg());
        assert_logs_bit_identical(&dense.log, &streaming.log, &format!("sim/{policy}"));
        assert_eq!(
            dense.round_end_seconds, streaming.round_end_seconds,
            "sim/{policy}: virtual clock"
        );
    }
}
