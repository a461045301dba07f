//! The retained dense reference engine: entry-by-entry reduction over
//! dense per-client `ParamSet`s, single-threaded. Every expression here
//! is the bit-exactness contract the streaming engine reproduces — change
//! the two together or `tests/aggregation_equivalence.rs` fails.

use super::{dense_params, robust, AggError, StalenessUpload, ZeroMode};
use crate::upload::{Upload, UploadKind};
use fedbiad_nn::{CoverageMask, ParamSet};
use fedbiad_tensor::Matrix;

// Index loops are deliberate: the per-entry bias denominator is empty for
// bias-less entries, so iterating it instead of `0..rows` would skip the
// matrix-row denominators.
#[allow(clippy::needless_range_loop)]
pub(super) fn weights(
    global: &mut ParamSet,
    uploads: &[(f32, &Upload)],
    mode: ZeroMode,
    total_w: f32,
) -> Result<(), AggError> {
    let params: Vec<&ParamSet> = uploads
        .iter()
        .enumerate()
        .map(|(i, (_, u))| dense_params(u, i))
        .collect::<Result<_, _>>()?;

    for e in 0..global.num_entries() {
        let rows = global.mat(e).rows();
        let cols = global.mat(e).cols();
        let has_bias = global.meta(e).has_bias;

        // Numerators.
        let mut num = Matrix::zeros(rows, cols);
        let mut num_b = vec![0.0f32; if has_bias { rows } else { 0 }];
        // Per-element denominators (not needed for the plain zero-pull).
        let mut den: Option<Matrix> = match mode {
            ZeroMode::ZerosPull => None,
            ZeroMode::HoldersOnly | ZeroMode::StaleFill => Some(Matrix::zeros(rows, cols)),
        };
        let mut den_b = vec![0.0f32; if has_bias { rows } else { 0 }];

        for ((w, u), p) in uploads.iter().zip(&params) {
            num.axpy_assign(*w, p.mat(e));
            if has_bias {
                fedbiad_tensor::ops::axpy(*w, p.bias(e), &mut num_b);
            }
            if let Some(den) = den.as_mut() {
                match &u.coverage.per_entry[e] {
                    CoverageMask::Full => {
                        for v in den.as_mut_slice() {
                            *v += *w;
                        }
                        for v in den_b.iter_mut() {
                            *v += *w;
                        }
                    }
                    CoverageMask::Rows(rbits) => {
                        for r in 0..rows {
                            if rbits.get(r) {
                                for v in den.row_mut(r) {
                                    *v += *w;
                                }
                                if has_bias {
                                    den_b[r] += *w;
                                }
                            }
                        }
                    }
                    CoverageMask::RowsCols {
                        rows: rbits,
                        cols: cbits,
                    } => {
                        for r in 0..rows {
                            if rbits.get(r) {
                                let drow = den.row_mut(r);
                                for (c, v) in drow.iter_mut().enumerate() {
                                    if cbits.get(c) {
                                        *v += *w;
                                    }
                                }
                                if has_bias {
                                    den_b[r] += *w;
                                }
                            }
                        }
                    }
                    CoverageMask::Elements(bits) => {
                        let dslice = den.as_mut_slice();
                        for (i, v) in dslice.iter_mut().enumerate() {
                            if bits.get(i) {
                                *v += *w;
                            }
                        }
                        // Elements masks transmit biases in full.
                        for v in den_b.iter_mut() {
                            *v += *w;
                        }
                    }
                }
            }
        }

        match (&mut den, mode) {
            (None, _) => {
                // eq. (10): divide everything by Σ|D_k|.
                num.scale(1.0 / total_w);
                *global.mat_mut(e) = num;
                if has_bias {
                    for v in num_b.iter_mut() {
                        *v /= total_w;
                    }
                    global.bias_mut(e).copy_from_slice(&num_b);
                }
            }
            (Some(den), ZeroMode::HoldersOnly) => {
                let g = global.mat_mut(e);
                let gs = g.as_mut_slice();
                let ns = num.as_slice();
                let ds = den.as_slice();
                for i in 0..gs.len() {
                    if ds[i] > 0.0 {
                        gs[i] = ns[i] / ds[i];
                    } // else: keep previous global value
                }
                if has_bias {
                    let gb = global.bias_mut(e);
                    for r in 0..gb.len() {
                        if den_b[r] > 0.0 {
                            gb[r] = num_b[r] / den_b[r];
                        }
                    }
                }
            }
            (Some(den), _) => {
                // StaleFill: non-covering clients contribute the broadcast
                // global value, so new = (num + (W − den)·g_prev) / W.
                let g = global.mat_mut(e);
                let gs = g.as_mut_slice();
                let ns = num.as_slice();
                let ds = den.as_slice();
                for i in 0..gs.len() {
                    gs[i] = (ns[i] + (total_w - ds[i]) * gs[i]) / total_w;
                }
                if has_bias {
                    let gb = global.bias_mut(e);
                    for r in 0..gb.len() {
                        gb[r] = (num_b[r] + (total_w - den_b[r]) * gb[r]) / total_w;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Robust weights combine, dense reference: flatten every upload, gather
/// each coordinate's `(value, covered)` column in upload order, and defer
/// to the shared per-coordinate estimator. The streaming twin gathers the
/// same column from the wire decode and calls the same estimator, which
/// is the bit-exactness argument.
pub(super) fn robust_weights(
    global: &mut ParamSet,
    uploads: &[(f32, &Upload)],
    mode: ZeroMode,
    est: robust::Estimator,
    total_w: f32,
) -> Result<(), AggError> {
    let params: Vec<&ParamSet> = uploads
        .iter()
        .enumerate()
        .map(|(i, (_, u))| dense_params(u, i))
        .collect::<Result<_, _>>()?;
    let n = uploads.len();
    let flats: Vec<Vec<f32>> = params.iter().map(|p| p.flatten()).collect();
    let covs: Vec<Vec<f32>> = uploads
        .iter()
        .map(|(_, u)| robust::flat_coverage(global, &u.coverage))
        .collect();
    let ws: Vec<f32> = uploads.iter().map(|(w, _)| *w).collect();
    let mut g = global.flatten();
    let mut keys = vec![0u64; n + 1];
    for (j, gj) in g.iter_mut().enumerate() {
        *gj = robust::weights_coord(
            &mut keys,
            (0..n).map(|i| (flats[i][j], covs[i][j] != 0.0)),
            &ws,
            est,
            mode,
            total_w,
            *gj,
        );
    }
    global.unflatten_from(&g);
    Ok(())
}

/// Robust deltas combine, dense reference: the per-coordinate robust
/// location estimate of the deltas is added to the global.
pub(super) fn robust_deltas(
    global: &mut ParamSet,
    uploads: &[(f32, &Upload)],
    est: robust::Estimator,
) -> Result<(), AggError> {
    let params: Vec<&ParamSet> = uploads
        .iter()
        .enumerate()
        .map(|(i, (_, u))| dense_params(u, i))
        .collect::<Result<_, _>>()?;
    let n = uploads.len();
    let flats: Vec<Vec<f32>> = params.iter().map(|p| p.flatten()).collect();
    let ws: Vec<f32> = uploads.iter().map(|(w, _)| *w).collect();
    let mut g = global.flatten();
    let mut keys = vec![0u64; n];
    for (j, gj) in g.iter_mut().enumerate() {
        *gj += robust::delta_move_coord(&mut keys, flats.iter().map(|f| f[j]), &ws, est);
    }
    global.unflatten_from(&g);
    Ok(())
}

/// Robust FedBuff merge, dense reference: per coordinate, the robust
/// location estimate of the buffered Δ values (all items participate;
/// uncovered positions are exact-zero "no change" votes) scaled by the
/// server learning rate.
pub(super) fn robust_staleness(
    global: &mut ParamSet,
    items: &[StalenessUpload<'_>],
    server_lr: f64,
    est: robust::Estimator,
) -> Result<(), AggError> {
    let deltas = robust::dense_staleness_deltas(items)?;
    let n = items.len();
    let ws: Vec<f64> = items.iter().map(|it| it.weight).collect();
    let mut g = global.flatten();
    let mut keys = vec![0u64; n];
    for (j, gj) in g.iter_mut().enumerate() {
        *gj += robust::staleness_move_coord(
            &mut keys,
            deltas.iter().map(|d| d[j]),
            &ws,
            est,
            server_lr,
        );
    }
    global.unflatten_from(&g);
    Ok(())
}

pub(super) fn deltas(
    global: &mut ParamSet,
    uploads: &[(f32, &Upload)],
    total_w: f32,
) -> Result<(), AggError> {
    let params: Vec<&ParamSet> = uploads
        .iter()
        .enumerate()
        .map(|(i, (_, u))| dense_params(u, i))
        .collect::<Result<_, _>>()?;
    for ((w, _), p) in uploads.iter().zip(&params) {
        global.axpy(*w / total_w, p);
    }
    Ok(())
}

/// The simulator's historical FedBuff merge, verbatim: per buffered
/// upload in order, Δ = payload (−snapshot on covered rows for `Weights`),
/// then `global += (η_g·wᵢ/Σw) · Δ`.
pub(super) fn staleness(
    global: &mut ParamSet,
    items: &[StalenessUpload<'_>],
    server_lr: f64,
    total_w: f64,
) -> Result<(), AggError> {
    for (i, it) in items.iter().enumerate() {
        let mut delta = dense_params(it.upload, i)?.clone();
        if it.upload.kind == UploadKind::Weights {
            // Masked weights β∘U: the delta vs. the dispatched global
            // exists only on covered rows.
            let snapshot = it.snapshot.expect("validated in mod.rs");
            delta.axpy(-1.0, snapshot);
            it.upload.coverage.apply(&mut delta);
        }
        global.axpy((server_lr * it.weight / total_w) as f32, &delta);
    }
    Ok(())
}
