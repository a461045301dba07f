//! Shared per-coordinate robust estimators (trimmed mean, coordinate-wise
//! median) and the norm-clipping pre-pass.
//!
//! ## Why one module serves both engines
//!
//! The robust estimators are order statistics: each output coordinate is
//! a function of the *sorted* per-client column, so unlike the weighted
//! mean they cannot be expressed as a streaming fold. Both engines
//! therefore gather the same column — `(value, covered, weight)` per
//! upload, **in upload order** — and call the one combine function here.
//! The dense oracle gathers from dense `ParamSet`s, streaming gathers per
//! shard from the fused wire decode; since the column bits and the combine
//! code are identical, oracle ≡ streaming holds *by construction*
//! (`tests/aggregation_equivalence.rs` pins it anyway).
//!
//! ## Estimator semantics
//!
//! With trim depth `k = ⌊trim_frac · cohort⌋` (resolved once per call
//! from the *cohort* size, not per coordinate):
//!
//! * **Trimmed mean** — per coordinate, sort the participants by value
//!   (stable, IEEE total order), drop the `k` smallest and `k` largest,
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
//! NaN/Inf *values* are not absorbed here — `total_cmp` keeps the sort
//! deterministic, but a surviving non-finite value still poisons the
//! estimate. The round layer screens them out first
//! ([`super::screen_upload_values`]); `garbage: huge` attacks (finite but
//! absurd) are what the trimming/median breakdown point is for.

use super::{dense_like, dense_params, streaming, AggError, StalenessUpload, ZeroMode};
use crate::upload::{Upload, UploadBody, UploadKind};
use fedbiad_nn::{ModelMask, ParamSet};
use fedbiad_tensor::stats::{sort_weighted_by_value, trimmed_weighted_sum, weighted_lower_median};

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
/// `(value-or-exact-zero, covered, weight)` per upload in upload order;
/// `total_w` is Σw over all uploads (the validated eq. (10) denominator);
/// `g_prev` the coordinate's previous global value. Returns the new
/// global value.
pub(super) fn weights_coord(
    scratch: &mut Vec<(f32, f32)>,
    col: impl Iterator<Item = (f32, bool, f32)>,
    est: Estimator,
    mode: ZeroMode,
    total_w: f32,
    g_prev: f32,
) -> f32 {
    scratch.clear();
    // Σw over covering uploads, folded in upload order — the same f32
    // chain `validate` folds for `total_w`, so full coverage gives
    // `rest == 0.0` exactly.
    let mut den = 0.0f32;
    for (v, covered, w) in col {
        match mode {
            ZeroMode::ZerosPull => scratch.push((v, w)),
            ZeroMode::HoldersOnly | ZeroMode::StaleFill => {
                if covered {
                    scratch.push((v, w));
                    den += w;
                }
            }
        }
    }
    match est {
        Estimator::Trim { k } => {
            if scratch.len() <= 2 * k {
                // The cohort-level trim depth emptied this coordinate's
                // participant set (possible only under partial coverage):
                // keep the previous global value, the "no holders" rule.
                return g_prev;
            }
            sort_weighted_by_value(scratch);
            let (num, den_r) = trimmed_weighted_sum(scratch, k);
            match mode {
                // The non-covering mass still votes "no change" with the
                // broadcast value — and is never trimmed.
                ZeroMode::StaleFill => {
                    let rest = total_w - den;
                    (num + rest * g_prev) / (den_r + rest)
                }
                ZeroMode::ZerosPull | ZeroMode::HoldersOnly => num / den_r,
            }
        }
        Estimator::Median => {
            if mode == ZeroMode::StaleFill {
                scratch.push((g_prev, total_w - den));
            }
            if scratch.is_empty() {
                return g_prev;
            }
            sort_weighted_by_value(scratch);
            weighted_lower_median(scratch)
        }
    }
}

/// One coordinate of a robust *delta* combine: the robust location
/// estimate of the per-upload delta values (all uploads participate;
/// sparse payloads contribute exact zeros). The caller adds the returned
/// move to the global. An emptied trim moves nothing.
pub(super) fn delta_move_coord(
    scratch: &mut Vec<(f32, f32)>,
    col: impl Iterator<Item = (f32, f32)>,
    est: Estimator,
) -> f32 {
    scratch.clear();
    scratch.extend(col);
    match est {
        Estimator::Trim { k } => {
            if scratch.len() <= 2 * k {
                return 0.0;
            }
            sort_weighted_by_value(scratch);
            let (num, den) = trimmed_weighted_sum(scratch, k);
            num / den
        }
        Estimator::Median => {
            if scratch.is_empty() {
                return 0.0;
            }
            sort_weighted_by_value(scratch);
            weighted_lower_median(scratch)
        }
    }
}

/// One coordinate of the robust FedBuff merge: the robust location
/// estimate of the buffered Δ values (staleness weights stay in f64 as in
/// the mean merge), scaled by the server learning rate. The caller adds
/// the returned move to the global. All buffered items participate — an
/// item's uncovered positions are exact-zero Δ, i.e. "no change" votes.
pub(super) fn staleness_move_coord(
    scratch: &mut Vec<(f32, f64)>,
    col: impl Iterator<Item = (f32, f64)>,
    est: Estimator,
    server_lr: f64,
) -> f32 {
    scratch.clear();
    scratch.extend(col);
    match est {
        Estimator::Trim { k } => {
            if scratch.len() <= 2 * k {
                return 0.0;
            }
            scratch.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut num = 0.0f64;
            let mut den = 0.0f64;
            for &(v, w) in &scratch[k..scratch.len() - k] {
                num += w * v as f64;
                den += w;
            }
            (server_lr * num / den) as f32
        }
        Estimator::Median => {
            if scratch.is_empty() {
                return 0.0;
            }
            scratch.sort_by(|a, b| a.0.total_cmp(&b.0));
            let total: f64 = scratch.iter().map(|p| p.1).sum();
            let half = 0.5 * total;
            let mut cum = 0.0f64;
            let mut med = scratch[scratch.len() - 1].0;
            for &(v, w) in scratch.iter() {
                cum += w;
                if cum >= half {
                    med = v;
                    break;
                }
            }
            (server_lr * med as f64) as f32
        }
    }
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
