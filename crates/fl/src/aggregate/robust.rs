//! Shared per-coordinate robust estimators (trimmed mean, coordinate-wise
//! median) and the norm-clipping pre-pass.
//!
//! ## Why one module serves both engines
//!
//! The robust estimators are order statistics: each output coordinate is
//! a function of the *ordered* per-client column, so unlike the weighted
//! mean they cannot be expressed as a streaming fold. Both engines
//! therefore gather the same column — `(value, covered)` per upload,
//! **in upload order**, beside the uploads' weights — and call the one
//! combine function here. The dense oracle gathers from dense
//! `ParamSet`s, streaming gathers per column tile from the fused wire
//! decode; since the column bits and the combine code are identical,
//! oracle ≡ streaming holds *by construction*
//! (`tests/aggregation_equivalence.rs` pins it anyway).
//!
//! ## The participant order
//!
//! Every estimator ranks a coordinate's participants by value under the
//! IEEE total order (`f32::total_cmp`: −NaN < −∞ < … < −0 < +0 < … < +∞ <
//! +NaN), ties in upload order — the order a *stable* `total_cmp` sort of
//! the column gives. The combine never sorts `(value, weight)` pairs:
//! each participant becomes one `u64` key,
//! [`order_key`]`(value, upload index)` — the value's bits mapped so that
//! unsigned order is `total_cmp` order, above the upload index. The keys
//! are distinct and ascend in exactly (total order, upload index), so an
//! *unstable* selection or sort of them places every participant where
//! the stable sort would, and the value bits come back out of the key
//! unchanged ([`fedbiad_tensor::stats::keyed_trimmed_sum`],
//! [`fedbiad_tensor::stats::keyed_lower_median`]; the stable-sort
//! specification and the property test pinning the two together live in
//! `fedbiad-tensor`'s `tests/`). The trimmed mean selects the `k`-th key,
//! then the upper bound inside the tail, and sorts only the survivors
//! before folding `Σ w·v` and `Σ w` in ascending key order.
//!
//! ## Column tiles
//!
//! The streaming engine does not decode a whole shard's `n × shard`
//! column block before combining (at 128 clients and 64 KiB shards that
//! is 8 MiB of values plus 8 MiB of coverage, read with a 64 KiB
//! stride). It decodes and combines sub-tiles of
//! `⌊32 768 / n⌋` coordinates, so each block is ≈ 128 KiB and stays in
//! L2. The tile is derived from the cohort size, not a knob, and it is
//! bit-transparent for the same reason `shard_kb` is: a coordinate's
//! column holds the same bits however the flat range is cut.
//!
//! ## Estimator semantics
//!
//! With trim depth `k = ⌊trim_frac · cohort⌋` (resolved once per call
//! from the *cohort* size, not per coordinate):
//!
//! * **Trimmed mean** — per coordinate, rank the participants in the
//!   order above, drop the `k` smallest and `k` largest,
//!   and take the weighted mean of the survivors. Because `k` is
//!   cohort-level, a coordinate whose participant set is smaller (partial
//!   coverage under `HoldersOnly`/`StaleFill`) can be trimmed *empty* —
//!   that coordinate keeps its previous global value, the same "no
//!   holders" rule the mean engine applies.
//! * **Coordinate median** — the weighted lower median of the
//!   participants. Under `StaleFill` the non-covering weight mass
//!   `W − den` votes for the previous global value as one pseudo
//!   participant (appended after all clients, so ties resolve
//!   deterministically).
//! * **Norm clip** — not an order statistic: each upload's delta against
//!   the reference point is L2-clipped to `tau` *before* the ordinary
//!   weighted-mean engines run. Uploads within the ball pass through
//!   bitwise untouched (so an all-honest round under `norm_clip` with a
//!   large `tau` reproduces the mean results exactly); uploads beyond it
//!   are replaced by an upload moved to `base + c·(v − base)`,
//!   `c = tau/‖Δ‖`, in the body kind it arrived in (a dense-f32 wire
//!   frame for a wire upload, a dense twin for the oracle's) — so the
//!   clipped cohort feeds the same mean engine its bodies selected.
//!
//! `ZeroMode` participant sets: `ZerosPull` keeps every upload (dropped
//! positions participate as exact zeros, and *are* trimmable — the
//! literal eq. (10) reading); `HoldersOnly`/`StaleFill` keep covering
//! uploads only.
//!
//! NaN/Inf *values* are not absorbed here — the total order keeps the
//! ranking deterministic, but a surviving non-finite value still poisons the
//! estimate. The round layer screens them out first
//! ([`super::screen_upload_values`]); `garbage: huge` attacks (finite but
//! absurd) are what the trimming/median breakdown point is for.

use super::{dense_like, dense_params, streaming, AggError, StalenessUpload, ZeroMode};
use crate::upload::{Upload, UploadBody, UploadKind};
use fedbiad_nn::{ModelMask, ParamSet};
use fedbiad_tensor::stats::{keyed_lower_median, keyed_trimmed_sum, order_key};

/// The resolved order-statistic estimator a robust aggregation call runs
/// (`NormClip` and the `k = 0` trimmed mean never reach here — they route
/// through the mean engines).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Estimator {
    /// Drop the `k` smallest and `k` largest participants per coordinate.
    Trim { k: usize },
    /// Weighted lower coordinate-wise median.
    Median,
}

/// One coordinate of a robust *weights* combine. `col` yields
/// `(value-or-exact-zero, covered)` per upload in upload order, `ws` the
/// uploads' validated (finite, positive) weights in the same order;
/// `total_w` is Σw over all uploads (the validated eq. (10) denominator);
/// `g_prev` the coordinate's previous global value. `keys` is scratch of
/// at least `ws.len() + 1` slots. Returns the new global value.
pub(super) fn weights_coord(
    keys: &mut [u64],
    col: impl Iterator<Item = (f32, bool)>,
    ws: &[f32],
    est: Estimator,
    mode: ZeroMode,
    total_w: f32,
    g_prev: f32,
) -> f32 {
    let n = ws.len();
    let every = mode == ZeroMode::ZerosPull;
    // Gather without a branch per upload: every key is written, and the
    // participant count only advances past participants. Σw over
    // covering uploads folds in upload order — the same f32 chain
    // `validate` folds for `total_w`, so full coverage gives `rest == 0.0`
    // exactly; adding `+0.0` for a non-covering upload leaves every bit
    // of it unchanged (weights are positive, so `den` is never `−0.0`).
    let mut m = 0usize;
    let mut den = 0.0f32;
    for (i, ((v, covered), &w)) in col.zip(ws).enumerate() {
        keys[m] = order_key(v, i);
        m += usize::from(every || covered);
        den += if covered { w } else { 0.0 };
    }
    let rest = total_w - den;
    match est {
        Estimator::Trim { k } => {
            let Some((num, den_r)) = keyed_trimmed_sum(&mut keys[..m], k, |i| ws[i]) else {
                // The cohort-level trim depth emptied this coordinate's
                // participant set (possible only under partial coverage):
                // keep the previous global value, the "no holders" rule.
                return g_prev;
            };
            match mode {
                // The non-covering mass still votes "no change" with the
                // broadcast value — and is never trimmed.
                ZeroMode::StaleFill => (num + rest * g_prev) / (den_r + rest),
                ZeroMode::ZerosPull | ZeroMode::HoldersOnly => num / den_r,
            }
        }
        Estimator::Median => {
            if mode == ZeroMode::StaleFill {
                keys[m] = order_key(g_prev, n);
                m += 1;
            }
            keyed_lower_median(&mut keys[..m], |i| if i < n { ws[i] } else { rest })
                .unwrap_or(g_prev)
        }
    }
}

/// One coordinate of a robust *delta* combine: the robust location
/// estimate of the per-upload delta values `col` (all uploads
/// participate; sparse payloads contribute exact zeros), weighted by
/// `ws`. `keys` is scratch of at least `ws.len()` slots. The caller adds
/// the returned move to the global. An emptied trim moves nothing.
pub(super) fn delta_move_coord(
    keys: &mut [u64],
    col: impl Iterator<Item = f32>,
    ws: &[f32],
    est: Estimator,
) -> f32 {
    let keys = gather(keys, col, ws.len());
    match est {
        Estimator::Trim { k } => keyed_trimmed_sum(keys, k, |i| ws[i]).map_or(0.0, |(n, d)| n / d),
        Estimator::Median => keyed_lower_median(keys, |i| ws[i]).unwrap_or(0.0),
    }
}

/// One coordinate of the robust FedBuff merge: the robust location
/// estimate of the buffered Δ values (staleness weights `ws` stay in f64
/// as in the mean merge), scaled by the server learning rate. The caller
/// adds the returned move to the global. All buffered items participate —
/// an item's uncovered positions are exact-zero Δ, i.e. "no change" votes.
pub(super) fn staleness_move_coord(
    keys: &mut [u64],
    col: impl Iterator<Item = f32>,
    ws: &[f64],
    est: Estimator,
    server_lr: f64,
) -> f32 {
    let keys = gather(keys, col, ws.len());
    match est {
        Estimator::Trim { k } => keyed_trimmed_sum(keys, k, |i| ws[i])
            .map_or(0.0, |(num, den)| (server_lr * num / den) as f32),
        Estimator::Median => {
            keyed_lower_median(keys, |i| ws[i]).map_or(0.0, |med| (server_lr * med as f64) as f32)
        }
    }
}

/// Key the first `n` values of `col` by their column position.
fn gather(keys: &mut [u64], col: impl Iterator<Item = f32>, n: usize) -> &mut [u64] {
    let keys = &mut keys[..n];
    for (i, (key, v)) in keys.iter_mut().zip(col).enumerate() {
        *key = order_key(v, i);
    }
    keys
}

// ---- norm clipping -----------------------------------------------------

/// Flat coverage indicator of `mask` in `shape`'s flatten order
/// (1.0 covered / 0.0 dropped).
pub(super) fn flat_coverage(shape: &ParamSet, mask: &ModelMask) -> Vec<f32> {
    let mut ones = shape.clone();
    for e in 0..ones.num_entries() {
        ones.mat_mut(e).as_mut_slice().fill(1.0);
        for v in ones.bias_mut(e).iter_mut() {
            *v = 1.0;
        }
    }
    mask.apply(&mut ones);
    ones.flatten()
}

/// Clip one upload against `base_flat`. `as_delta` treats the payload as
/// a delta (reference point zero, all flat positions); otherwise the
/// delta is `v − base` over covered positions only. Returns `None` when
/// the upload is within the ball (pass through bitwise untouched) — which
/// includes a NaN norm: norm clipping defends against *scaled* attacks,
/// non-finite values are the screening layer's job.
fn clip_one(
    shape: &ParamSet,
    base_flat: &[f32],
    u: &Upload,
    tau: f32,
    as_delta: bool,
) -> Result<Option<Upload>, AggError> {
    let vals: Vec<f32> = match &u.body {
        UploadBody::Dense(p) => p.flatten(),
        UploadBody::Wire(msg) => streaming::decode_dense_flat(shape, base_flat, msg)?,
    };
    let cov = if as_delta {
        None
    } else {
        Some(flat_coverage(shape, &u.coverage))
    };
    let mut acc = 0.0f64;
    for j in 0..vals.len() {
        let d = match &cov {
            None => vals[j],
            Some(c) if c[j] != 0.0 => vals[j] - base_flat[j],
            Some(_) => continue,
        };
        acc += (d as f64) * (d as f64);
    }
    let norm = acc.sqrt();
    // Deliberately NOT `norm <= tau`: a NaN norm (hostile payload, caught
    // by screening) must take the pass-through branch, never the rescale.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(norm > tau as f64) {
        return Ok(None);
    }
    let c = (tau as f64 / norm) as f32;
    let mut t = vec![0.0f32; vals.len()];
    for j in 0..vals.len() {
        match &cov {
            None => t[j] = c * vals[j],
            Some(cv) if cv[j] != 0.0 => {
                let d = vals[j] - base_flat[j];
                t[j] = base_flat[j] + c * d;
            }
            Some(_) => {}
        }
    }
    let mut ps = shape.clone();
    ps.unflatten_from(&t);
    // The replacement keeps the cohort's body kind, so clipping can never
    // turn a uniform cohort into a mixed one.
    Ok(Some(match &u.body {
        UploadBody::Wire(_) => u.with_values(&ps),
        UploadBody::Dense(_) => dense_like(u, ps),
    }))
}

/// Norm-clip pre-pass for `Weights` uploads: each upload's masked delta
/// against the current global is clipped to `tau`. `None` entries pass
/// through untouched.
pub(super) fn clip_weights_uploads(
    global: &ParamSet,
    uploads: &[(f32, &Upload)],
    tau: f32,
) -> Result<Vec<Option<Upload>>, AggError> {
    let base_flat = global.flatten();
    uploads
        .iter()
        .map(|(_, u)| clip_one(global, &base_flat, u, tau, false))
        .collect()
}

/// Norm-clip pre-pass for `Delta` uploads: the delta itself is clipped.
pub(super) fn clip_delta_uploads(
    global: &ParamSet,
    uploads: &[(f32, &Upload)],
    tau: f32,
) -> Result<Vec<Option<Upload>>, AggError> {
    let base_flat = global.flatten();
    uploads
        .iter()
        .map(|(_, u)| clip_one(global, &base_flat, u, tau, true))
        .collect()
}

/// Norm-clip pre-pass for the FedBuff merge: a `Weights` item's delta is
/// defined against its dispatched snapshot, a `Delta` item's against
/// zero.
pub(super) fn clip_staleness_uploads(
    global: &ParamSet,
    items: &[StalenessUpload<'_>],
    tau: f32,
) -> Result<Vec<Option<Upload>>, AggError> {
    let global_flat = global.flatten();
    items
        .iter()
        .map(|it| match it.upload.kind {
            UploadKind::Delta => clip_one(global, &global_flat, it.upload, tau, true),
            UploadKind::Weights => {
                let snapshot = it.snapshot.expect("validated in mod.rs");
                let snap_flat = snapshot.flatten();
                clip_one(snapshot, &snap_flat, it.upload, tau, false)
            }
        })
        .collect()
}

/// Dense flat Δ columns of buffered items, built with the dense mean
/// merge's exact expressions (clone, `axpy(−1, snapshot)`, coverage
/// apply) — shared by the dense robust staleness engine.
pub(super) fn dense_staleness_deltas(
    items: &[StalenessUpload<'_>],
) -> Result<Vec<Vec<f32>>, AggError> {
    let mut deltas = Vec::with_capacity(items.len());
    for (i, it) in items.iter().enumerate() {
        let mut delta = dense_params(it.upload, i)?.clone();
        if it.upload.kind == UploadKind::Weights {
            let snapshot = it.snapshot.expect("validated in mod.rs");
            delta.axpy(-1.0, snapshot);
            it.upload.coverage.apply(&mut delta);
        }
        deltas.push(delta.flatten());
    }
    Ok(deltas)
}
