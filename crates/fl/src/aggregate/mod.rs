//! Server-side aggregation: **one path, one oracle, routed by body**.
//!
//! * `streaming` — *the* implementation. The flat parameter space is
//!   split into fixed-size shards; each client's contribution is decoded
//!   from its wire bytes shard by shard, straight into per-shard
//!   accumulators (fused decode + reduce). Shards run in parallel under
//!   the deterministic rayon shim with a fixed in-order client reduction
//!   per shard, and all data-sized scratch comes from a thread-local
//!   workspace arena, so steady-state aggregation allocates nothing
//!   ([`arena_churn`]). Server memory is O(model), independent of the
//!   cohort size. Every client upload is wire-bodied
//!   ([`crate::upload`]), so this is what every run executes.
//! * `dense` — the oracle: every upload's dense `ParamSet` is reduced
//!   entry by entry on one thread, O(clients × model) memory. It is an
//!   executable specification the streaming engine is pinned
//!   **bit-identical** to (`tests/aggregation_equivalence.rs`, the
//!   benchmark's `server_reduce`), fed with [`dense_twin`]s of the wire
//!   cohort.
//!
//! No option selects between them. The public entry points look at what
//! the cohort carries: every body `Wire` ⇒ streaming, every body `Dense`
//! ⇒ the oracle, a mixture ⇒ [`AggError::MixedBodies`] naming the first
//! odd upload — never a silent re-encode or decode. [`AggSettings`] only
//! shapes the streaming engine (`shard_kb`, `tree_fanin`) and picks the
//! estimator (`robust`).
//!
//! ## Zero-handling semantics
//!
//! Two weight-aggregation semantics are provided (DESIGN.md §4.2):
//!
//! * [`ZeroMode::ZerosPull`] — the literal eq. (10): every selected client
//!   contributes its *reconstructed* β∘U (dropped rows as zeros) and the
//!   denominator is Σ|D_k| over all selected clients. A row dropped by
//!   many clients is pulled toward zero — spike-and-slab shrinkage.
//! * [`ZeroMode::HoldersOnly`] — each element is averaged only over the
//!   clients that actually trained it; elements nobody held keep their
//!   previous global value. This is the classic federated-dropout
//!   aggregation (Caldas et al., FjORD, HeteroFL) and is used by the
//!   baselines.
//! * [`ZeroMode::StaleFill`] — non-covering clients vote "no change" with
//!   the broadcast global value. FedBIAD's default.
//!
//! Delta uploads (sketched compression) are applied as
//! `global += Σ w_k Δ_k / Σ w_k`.
//!
//! ## Weight validation
//!
//! Aggregation weights (|D_k|, staleness weights) are validated at the
//! upload boundary: every weight must be finite and positive, otherwise a
//! structured [`AggError`] is returned. A NaN weight used to slip through
//! the old `assert!(total > 0.0)` guard only as a late panic on the
//! *total*; a negative weight cancelled against positive ones passed
//! silently. Mirroring the PR 4 `clip_norm` NaN fix, the boundary check
//! now names the offending upload.

mod dense;
mod robust;
mod streaming;

pub use streaming::arena_churn;

use crate::upload::{Upload, UploadBody, UploadKind};
use fedbiad_compress::codec::WireError;
use fedbiad_nn::ParamSet;
use serde::{Deserialize, Serialize};

/// How dropped (non-covered) parameters participate in weight averaging.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZeroMode {
    /// Literal eq. (10): dropped rows are averaged as zeros. Under partial
    /// participation this shrinks every row by the expected drop fraction
    /// each round and the model collapses — kept as an ablation
    /// (DESIGN.md §4.2); the paper's own convergence curves (Fig. 6)
    /// cannot arise under this reading.
    ZerosPull,
    /// Average over holders; keep the previous global value where no
    /// client held the parameter (classic federated-dropout aggregation).
    HoldersOnly,
    /// The operational reading of step 4 / eq. (10): the server
    /// "reconstructs complete variational parameters" by filling each
    /// client's dropped rows from the global model it broadcast, then
    /// averages. Dropped rows effectively vote "no change". FedBIAD's
    /// default.
    StaleFill,
}

/// Robust-estimator family of the per-coordinate combine (ROADMAP
/// item 4). Unlike `shard_kb` in [`AggSettings`], the estimator
/// **changes results**, so the scenario spec feeds it into the seed hash.
/// See `aggregate::robust` for the exact semantics of each estimator and
/// how oracle ≡ streaming is maintained.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum RobustKind {
    /// The weighted mean — the exact historical maths, bit for bit.
    #[default]
    Mean,
    /// Per coordinate, drop the `⌊trim_frac·cohort⌋` smallest and largest
    /// participants, then the weighted mean of the survivors. A resolved
    /// trim depth of zero (`trim_frac = 0`, or a cohort too small to
    /// trim) *is* the weighted mean and routes to it verbatim —
    /// `trim_frac = 0` reproduces the mean results bitwise. Valid range
    /// `[0, 0.5)`.
    TrimmedMean {
        /// Fraction of the cohort trimmed from *each* tail.
        trim_frac: f32,
    },
    /// Weighted lower coordinate-wise median.
    CoordinateMedian,
    /// L2-clip each upload's delta against the reference point to `tau`,
    /// then the ordinary weighted mean. Uploads inside the ball pass
    /// through bitwise untouched.
    NormClip {
        /// The clipping radius (must be finite and positive).
        tau: f32,
    },
}

/// Aggregation settings, carried to the server through `RoundInfo`.
/// `shard_kb` is a pure execution choice; `tree_fanin` and `robust`
/// change results. None of them selects an engine — the cohort's bodies
/// do (module docs).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AggSettings {
    /// Shard size in KiB of f32 parameters (≥ 1). Bit-transparent.
    pub shard_kb: u32,
    /// Hierarchical (tree) reduction fan-in for the weighted-mean weights
    /// path: uploads reduce in groups of `tree_fanin` whose partial sums
    /// combine in fixed group order, so the per-shard client merge is no
    /// longer one serial chain over the whole cohort. `0` (default)
    /// disables the tree. **Changes f32 association**, so unlike
    /// `shard_kb` this is *not* bit-identical to the serial reduction —
    /// an explicit opt-in for large cohorts, fed into the scenario seed
    /// hash when set. Applies to the sync weights path (delta/staleness
    /// merges and the order-statistic estimators keep the serial order;
    /// the dense oracle has no tree). Still deterministic across thread
    /// counts.
    pub tree_fanin: u32,
    /// The robust-estimator family ([`RobustKind::Mean`] = historical
    /// behaviour). *Changes results* when not `Mean`, so it feeds the
    /// scenario seed hash.
    pub robust: RobustKind,
}

impl Default for AggSettings {
    fn default() -> Self {
        Self {
            shard_kb: 64,
            tree_fanin: 0,
            robust: RobustKind::Mean,
        }
    }
}

impl AggSettings {
    /// The defaults at `shard_kb` KiB shards.
    pub fn sharded(shard_kb: u32) -> Self {
        Self {
            shard_kb,
            ..Self::default()
        }
    }

    /// `shard_kb` KiB shards with hierarchical reduction at `fanin`.
    pub fn sharded_tree(shard_kb: u32, fanin: u32) -> Self {
        Self {
            shard_kb,
            tree_fanin: fanin,
            ..Self::default()
        }
    }

    /// These settings with the robust estimator replaced.
    pub fn with_robust(self, robust: RobustKind) -> Self {
        Self { robust, ..self }
    }

    /// Shard size in f32 elements (at least 1).
    pub fn shard_elems(&self) -> usize {
        (self.shard_kb as usize * 1024 / 4).max(1)
    }
}

/// A structured aggregation failure. `Display` is the full message.
#[derive(Clone, Debug, PartialEq)]
pub enum AggError {
    /// No uploads were provided.
    NoUploads,
    /// Upload `index` is not of the kind this aggregation consumes.
    KindMismatch {
        /// Position in the upload list.
        index: usize,
        /// The kind the aggregation needs.
        expected: UploadKind,
    },
    /// Upload `index` carries a non-finite or non-positive aggregation
    /// weight.
    InvalidWeight {
        /// Position in the upload list.
        index: usize,
        /// The offending weight.
        value: f64,
    },
    /// The weight total vanished (cannot happen once every individual
    /// weight is validated, kept as a defence in depth).
    ZeroTotalWeight,
    /// The cohort mixes wire and dense bodies: upload `index` is the
    /// first whose body differs from upload 0's. Bodies pick the engine
    /// (module docs), so a mixture has no engine — and is never silently
    /// re-encoded or decoded into one.
    MixedBodies {
        /// Position in the upload list.
        index: usize,
    },
    /// Upload `index` carries a non-finite payload *value* (NaN/Inf
    /// inside a structurally-valid frame). The PR 5 boundary check only
    /// covered aggregation weights; this extends it to the value stream —
    /// see [`screen_upload_values`].
    NonFiniteValue {
        /// Position in the upload list.
        index: usize,
    },
    /// An encoded upload failed structural validation.
    Wire(WireError),
    /// A buffered-async weights merge is missing the dispatched-global
    /// snapshot its delta is defined against.
    MissingSnapshot {
        /// Position in the upload list.
        index: usize,
    },
}

impl std::fmt::Display for AggError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggError::NoUploads => write!(f, "no uploads to aggregate"),
            AggError::KindMismatch { index, expected } => match expected {
                UploadKind::Weights => {
                    write!(
                        f,
                        "aggregate_weights needs Weights uploads (upload {index})"
                    )
                }
                UploadKind::Delta => {
                    write!(f, "aggregate_deltas needs Delta uploads (upload {index})")
                }
            },
            AggError::InvalidWeight { index, value } => write!(
                f,
                "aggregation weight of upload {index} must be finite and positive, got {value}"
            ),
            AggError::ZeroTotalWeight => write!(f, "total aggregation weight must be positive"),
            AggError::MixedBodies { index } => write!(
                f,
                "cohort mixes wire and dense upload bodies (upload {index} differs from upload 0); \
                 wire bodies run the streaming engine, dense twins the oracle, never both"
            ),
            AggError::NonFiniteValue { index } => write!(
                f,
                "payload of upload {index} carries a non-finite value (NaN/Inf)"
            ),
            AggError::Wire(e) => write!(f, "wire decode failed: {e}"),
            AggError::MissingSnapshot { index } => write!(
                f,
                "buffered weights merge needs a dispatched-global snapshot (upload {index})"
            ),
        }
    }
}

impl std::error::Error for AggError {}

impl From<WireError> for AggError {
    fn from(e: WireError) -> Self {
        AggError::Wire(e)
    }
}

/// Validate kinds and weights, returning Σw (the eq. (10) denominator).
fn validate(uploads: &[(f32, &Upload)], expected: UploadKind) -> Result<f32, AggError> {
    if uploads.is_empty() {
        return Err(AggError::NoUploads);
    }
    for (i, (w, u)) in uploads.iter().enumerate() {
        if u.kind != expected {
            return Err(AggError::KindMismatch { index: i, expected });
        }
        if !(w.is_finite() && *w > 0.0) {
            return Err(AggError::InvalidWeight {
                index: i,
                value: *w as f64,
            });
        }
    }
    let total: f32 = uploads.iter().map(|(w, _)| *w).sum();
    if !total.is_finite() || total <= 0.0 {
        return Err(AggError::ZeroTotalWeight);
    }
    Ok(total)
}

/// The order-statistic estimator actually run for a cohort of `n`
/// uploads. `TrimmedMean` resolves its per-coordinate trim depth
/// `k = ⌊trim_frac·n⌋` here, and a depth of zero *is* the weighted
/// mean — such calls route to the mean engines verbatim, which is what
/// pins `trim_frac = 0` (and cohorts too small to trim) bitwise to the
/// historical results. `NormClip` is a pre-pass, not an estimator, and
/// also returns `None`.
fn resolve_robust(robust: RobustKind, n: usize) -> Option<robust::Estimator> {
    match robust {
        RobustKind::Mean | RobustKind::NormClip { .. } => None,
        RobustKind::TrimmedMean { trim_frac } => {
            let k = (trim_frac as f64 * n as f64).floor() as usize;
            (k > 0).then_some(robust::Estimator::Trim { k })
        }
        RobustKind::CoordinateMedian => Some(robust::Estimator::Median),
    }
}

/// The engine a cohort's bodies select.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// Every body is encoded wire bytes — what clients send.
    Streaming,
    /// Every body is a dense twin — the oracle's input.
    Dense,
}

/// Route on what the (non-empty, validated) cohort carries.
fn engine_of<'a>(mut uploads: impl Iterator<Item = &'a Upload>) -> Result<Engine, AggError> {
    let is_wire = |u: &Upload| matches!(u.body, UploadBody::Wire(_));
    let wire = uploads.next().is_some_and(is_wire);
    match uploads.position(|u| is_wire(u) != wire) {
        Some(i) => Err(AggError::MixedBodies { index: i + 1 }),
        None if wire => Ok(Engine::Streaming),
        None => Ok(Engine::Dense),
    }
}

/// `uploads` with the norm-clipped replacements patched in (`clipped` is
/// empty when no clipping ran, or holds one entry per upload — `None`
/// where the upload passed through).
fn patched<'a>(
    uploads: &[(f32, &'a Upload)],
    clipped: &'a [Option<Upload>],
) -> Vec<(f32, &'a Upload)> {
    uploads
        .iter()
        .enumerate()
        .map(|(i, (w, u))| (*w, clipped.get(i).and_then(Option::as_ref).unwrap_or(u)))
        .collect()
}

/// Aggregate `Weights` uploads into `global`. `weights[k]` is |D_k|.
pub fn aggregate_weights(
    global: &mut ParamSet,
    uploads: &[(f32, &Upload)],
    mode: ZeroMode,
    settings: AggSettings,
) -> Result<(), AggError> {
    let total_w = validate(uploads, UploadKind::Weights)?;
    let engine = engine_of(uploads.iter().map(|(_, u)| *u))?;
    let se = settings.shard_elems();
    let fanin = settings.tree_fanin as usize;
    let est = resolve_robust(settings.robust, uploads.len());
    let clipped = match settings.robust {
        RobustKind::NormClip { tau } => robust::clip_weights_uploads(global, uploads, tau)?,
        _ => Vec::new(),
    };
    let patched_uploads = patched(uploads, &clipped);
    let uploads = &patched_uploads[..];
    match (est, engine) {
        (None, Engine::Streaming) if fanin >= 2 && uploads.len() > fanin => {
            streaming::weights_tree(global, uploads, mode, total_w, se, fanin)
        }
        (None, Engine::Streaming) => streaming::weights(global, uploads, mode, total_w, se),
        (None, Engine::Dense) => dense::weights(global, uploads, mode, total_w),
        (Some(est), Engine::Streaming) => {
            streaming::robust_weights(global, uploads, mode, est, total_w, se)
        }
        (Some(est), Engine::Dense) => dense::robust_weights(global, uploads, mode, est, total_w),
    }
}

/// Apply `Delta` uploads: `global += Σ w_k Δ_k / Σ w_k` (or the robust
/// location estimate of the deltas under a robust estimator).
pub fn aggregate_deltas(
    global: &mut ParamSet,
    uploads: &[(f32, &Upload)],
    settings: AggSettings,
) -> Result<(), AggError> {
    let total_w = validate(uploads, UploadKind::Delta)?;
    let engine = engine_of(uploads.iter().map(|(_, u)| *u))?;
    let se = settings.shard_elems();
    let est = resolve_robust(settings.robust, uploads.len());
    let clipped = match settings.robust {
        RobustKind::NormClip { tau } => robust::clip_delta_uploads(global, uploads, tau)?,
        _ => Vec::new(),
    };
    let patched_uploads = patched(uploads, &clipped);
    let uploads = &patched_uploads[..];
    match (est, engine) {
        (None, Engine::Streaming) => streaming::deltas(global, uploads, total_w, se),
        (None, Engine::Dense) => dense::deltas(global, uploads, total_w),
        (Some(est), Engine::Streaming) => streaming::robust_deltas(global, uploads, est, se),
        (Some(est), Engine::Dense) => dense::robust_deltas(global, uploads, est),
    }
}

/// One buffered upload of a FedBuff-style staleness-weighted merge.
pub struct StalenessUpload<'a> {
    /// Pre-computed staleness weight `wᵢ = |Dᵢ|/(1+τᵢ)^α`.
    pub weight: f64,
    /// The buffered upload.
    pub upload: &'a Upload,
    /// The global the client was dispatched with (required for `Weights`
    /// uploads, whose delta is defined against it).
    pub snapshot: Option<&'a ParamSet>,
}

/// FedBuff merge: `global += η_g · Σ wᵢΔᵢ / Σ wᵢ`, where a `Weights`
/// upload's Δ is its payload minus the dispatched snapshot on covered
/// positions (zero elsewhere) and a `Delta` upload's Δ is the payload
/// itself. This is the simulator's buffered-async policy merge path,
/// shared here so the streaming engine and its oracle can never diverge.
pub fn merge_staleness_weighted(
    global: &mut ParamSet,
    items: &[StalenessUpload<'_>],
    server_lr: f64,
    settings: AggSettings,
) -> Result<(), AggError> {
    if items.is_empty() {
        return Err(AggError::NoUploads);
    }
    for (i, it) in items.iter().enumerate() {
        if !(it.weight.is_finite() && it.weight > 0.0) {
            return Err(AggError::InvalidWeight {
                index: i,
                value: it.weight,
            });
        }
        if it.upload.kind == UploadKind::Weights && it.snapshot.is_none() {
            return Err(AggError::MissingSnapshot { index: i });
        }
    }
    let total_w: f64 = items.iter().map(|it| it.weight).sum();
    if !total_w.is_finite() || total_w <= 0.0 {
        return Err(AggError::ZeroTotalWeight);
    }
    let engine = engine_of(items.iter().map(|it| it.upload))?;
    let se = settings.shard_elems();
    let est = resolve_robust(settings.robust, items.len());
    let clipped = match settings.robust {
        RobustKind::NormClip { tau } => robust::clip_staleness_uploads(global, items, tau)?,
        _ => Vec::new(),
    };
    let patched_items: Vec<StalenessUpload> = items
        .iter()
        .enumerate()
        .map(|(i, it)| StalenessUpload {
            weight: it.weight,
            upload: clipped.get(i).and_then(Option::as_ref).unwrap_or(it.upload),
            snapshot: it.snapshot,
        })
        .collect();
    let items = &patched_items[..];
    match (est, engine) {
        (None, Engine::Streaming) => streaming::staleness(global, items, server_lr, total_w, se),
        (None, Engine::Dense) => dense::staleness(global, items, server_lr, total_w),
        (Some(est), Engine::Streaming) => {
            streaming::robust_staleness(global, items, server_lr, est, se)
        }
        (Some(est), Engine::Dense) => dense::robust_staleness(global, items, server_lr, est),
    }
}

/// Dense values of an upload: dense bodies are cloned, wire bodies decoded
/// against `base` (the current global for sync rounds, the dispatched
/// snapshot for buffered `WeightsDelta` bodies) with exact zeros on
/// dropped positions. Used by the adversary corruption hook, the
/// norm-clip pre-pass and [`dense_twin`].
pub fn decode_dense(base: &ParamSet, u: &Upload) -> Result<ParamSet, AggError> {
    match &u.body {
        UploadBody::Dense(p) => Ok(p.clone()),
        UploadBody::Wire(msg) => {
            let flat = streaming::decode_dense_flat(base, &base.flatten(), msg)?;
            let mut ps = base.clone();
            ps.unflatten_from(&flat);
            Ok(ps)
        }
    }
}

/// The oracle's input: `u` with its body decoded to dense values
/// ([`decode_dense`]), same kind, coverage and byte accounting. A cohort
/// of these routes to the dense reference engine, which must reproduce
/// the streaming result on the wire cohort bit for bit.
pub fn dense_twin(base: &ParamSet, u: &Upload) -> Result<Upload, AggError> {
    Ok(dense_like(u, decode_dense(base, u)?))
}

/// `u`'s kind, coverage and byte accounting around dense `values` — the
/// one place a dense body is built (the oracle-side mirror of
/// `Upload::with_values`).
fn dense_like(u: &Upload, values: ParamSet) -> Upload {
    Upload {
        kind: u.kind,
        body: UploadBody::Dense(values),
        coverage: u.coverage.clone(),
        wire_bytes: u.wire_bytes,
    }
}

/// `true` iff the upload's decoded value stream contains a non-finite
/// value. Dense bodies scan their parameters; wire bodies decode the
/// payload stream in fixed-size chunks without materialising the model —
/// quantised/sign payloads surface a poisoned `mu`/`scale` as non-finite
/// decoded values, so one check covers every payload kind.
pub fn upload_has_non_finite(base: &ParamSet, u: &Upload) -> Result<bool, AggError> {
    match &u.body {
        UploadBody::Dense(p) => Ok((0..p.num_entries()).any(|e| {
            p.mat(e)
                .as_slice()
                .iter()
                .chain(p.bias(e).iter())
                .any(|v| !v.is_finite())
        })),
        UploadBody::Wire(msg) => streaming::wire_has_non_finite(base, msg),
    }
}

/// Boundary screen extending the PR 5 weight validation to payload
/// *values*: a structurally-valid frame whose dense-f32/sparse-f32 values
/// (or sign `mu` / quantiser `scale`) decode to NaN/Inf used to sail
/// through both engines and silently poison the model. The first
/// offending upload is named in a structured
/// [`AggError::NonFiniteValue`]; the round layer calls this per upload
/// and *drops* offenders instead of failing the round.
pub fn screen_upload_values(base: &ParamSet, uploads: &[(f32, &Upload)]) -> Result<(), AggError> {
    for (i, (_, u)) in uploads.iter().enumerate() {
        if upload_has_non_finite(base, u)? {
            return Err(AggError::NonFiniteValue { index: i });
        }
    }
    Ok(())
}

/// Dense body of an upload the router sent to the oracle. [`engine_of`]
/// has already rejected mixed cohorts, so the error arm is defence in
/// depth.
fn dense_params(u: &Upload, index: usize) -> Result<&ParamSet, AggError> {
    match &u.body {
        UploadBody::Dense(p) => Ok(p),
        UploadBody::Wire(_) => Err(AggError::MixedBodies { index }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_nn::mask::{BitVec, ModelMask};
    use fedbiad_nn::params::{EntryMeta, LayerKind};
    use fedbiad_tensor::Matrix;

    fn param(v: f32) -> ParamSet {
        let mut p = ParamSet::new();
        p.push_entry(
            Matrix::full(2, 2, v),
            Some(vec![v; 2]),
            EntryMeta::new("w", LayerKind::DenseHidden, true, true),
        );
        p
    }

    fn masked_upload(v: f32, kept: [bool; 2]) -> Upload {
        let p = param(v);
        let mut beta = BitVec::new(2, true);
        for (r, &k) in kept.iter().enumerate() {
            beta.set(r, k);
        }
        Upload::masked_weights(p.clone(), ModelMask::from_row_pattern(&p, &beta))
    }

    fn delta_upload(d: ParamSet) -> Upload {
        Upload {
            kind: UploadKind::Delta,
            coverage: ModelMask::full(&d),
            wire_bytes: 0,
            body: UploadBody::Dense(d),
        }
    }

    const PLAIN: AggSettings = AggSettings {
        shard_kb: 64,
        tree_fanin: 0,
        robust: RobustKind::Mean,
    };

    #[test]
    fn zeros_pull_matches_eq10() {
        // Client A (|D|=1) keeps both rows with value 4; client B (|D|=3)
        // drops row 1 with value 8 on row 0.
        let a = masked_upload(4.0, [true, true]);
        let b = masked_upload(8.0, [true, false]);
        let mut g = param(0.0);
        aggregate_weights(&mut g, &[(1.0, &a), (3.0, &b)], ZeroMode::ZerosPull, PLAIN).unwrap();
        // Row 0: (1·4 + 3·8)/4 = 7; row 1: (1·4 + 3·0)/4 = 1.
        assert_eq!(g.mat(0).row(0), &[7.0, 7.0]);
        assert_eq!(g.mat(0).row(1), &[1.0, 1.0]);
        assert_eq!(g.bias(0), &[7.0, 1.0]);
    }

    #[test]
    fn holders_only_ignores_droppers_and_keeps_uncovered() {
        let a = masked_upload(4.0, [false, true]);
        let b = masked_upload(8.0, [false, true]);
        let mut g = param(-1.0);
        aggregate_weights(
            &mut g,
            &[(1.0, &a), (1.0, &b)],
            ZeroMode::HoldersOnly,
            PLAIN,
        )
        .unwrap();
        // Row 0: nobody held it ⇒ previous global value −1 preserved.
        assert_eq!(g.mat(0).row(0), &[-1.0, -1.0]);
        // Row 1: mean of holders = 6.
        assert_eq!(g.mat(0).row(1), &[6.0, 6.0]);
        assert_eq!(g.bias(0), &[-1.0, 6.0]);
    }

    #[test]
    fn stale_fill_blends_holders_with_previous_global() {
        // Client A (|D|=1) keeps both rows at 4; client B (|D|=3) keeps
        // only row 0 at 8. Previous global is 2 everywhere.
        let a = masked_upload(4.0, [true, true]);
        let b = masked_upload(8.0, [true, false]);
        let mut g = param(2.0);
        aggregate_weights(&mut g, &[(1.0, &a), (3.0, &b)], ZeroMode::StaleFill, PLAIN).unwrap();
        // Row 0: all cover → (1·4 + 3·8)/4 = 7.
        assert_eq!(g.mat(0).row(0), &[7.0, 7.0]);
        // Row 1: B votes "no change" with the old value 2:
        // (1·4 + 3·2)/4 = 2.5.
        assert_eq!(g.mat(0).row(1), &[2.5, 2.5]);
        assert_eq!(g.bias(0), &[7.0, 2.5]);
    }

    #[test]
    fn stale_fill_never_shrinks_unheld_rows() {
        // The failure mode of the literal eq. (10): a row dropped by every
        // selected client must stay put under StaleFill.
        let a = masked_upload(4.0, [false, true]);
        let mut g = param(5.0);
        aggregate_weights(&mut g, &[(2.0, &a)], ZeroMode::StaleFill, PLAIN).unwrap();
        assert_eq!(g.mat(0).row(0), &[5.0, 5.0]);
        assert_eq!(g.mat(0).row(1), &[4.0, 4.0]);
        // …whereas zeros-pull collapses it.
        let mut g2 = param(5.0);
        aggregate_weights(&mut g2, &[(2.0, &a)], ZeroMode::ZerosPull, PLAIN).unwrap();
        assert_eq!(g2.mat(0).row(0), &[0.0, 0.0]);
    }

    #[test]
    fn full_coverage_both_modes_agree_with_weighted_mean() {
        let a = Upload::full_weights(param(2.0));
        let b = Upload::full_weights(param(6.0));
        for mode in [
            ZeroMode::ZerosPull,
            ZeroMode::HoldersOnly,
            ZeroMode::StaleFill,
        ] {
            let mut g = param(0.0);
            aggregate_weights(&mut g, &[(1.0, &a), (3.0, &b)], mode, PLAIN).unwrap();
            assert_eq!(g.mat(0).get(0, 0), 5.0, "{mode:?}");
            assert_eq!(g.bias(0)[0], 5.0);
        }
    }

    #[test]
    fn tree_reduction_matches_serial_streaming_and_is_deterministic() {
        // 7 uploads with mixed masks and distinct weights; fanin 2 gives
        // four groups, so both the grouped phase and the ragged tail are
        // exercised. The tree changes only the f32 association of the
        // numerator sum, so results must agree to round-off (and the tree
        // itself must be bit-stable across repeated runs).
        let ups: Vec<Upload> = (0..7)
            .map(|i| {
                let v = 0.7 * (i as f32 + 1.0);
                masked_upload(v, [i % 2 == 0, i % 3 != 0])
            })
            .collect();
        let weighted: Vec<(f32, &Upload)> = ups
            .iter()
            .enumerate()
            .map(|(i, u)| (1.0 + i as f32, u))
            .collect();
        for mode in [
            ZeroMode::ZerosPull,
            ZeroMode::HoldersOnly,
            ZeroMode::StaleFill,
        ] {
            let mut serial = param(2.0);
            aggregate_weights(&mut serial, &weighted, mode, AggSettings::sharded(1)).unwrap();
            let mut tree = param(2.0);
            aggregate_weights(&mut tree, &weighted, mode, AggSettings::sharded_tree(1, 2)).unwrap();
            let (s, t) = (serial.flatten(), tree.flatten());
            for (i, (a, b)) in s.iter().zip(&t).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-5 * a.abs().max(1.0),
                    "{mode:?} elem {i}: serial {a} vs tree {b}"
                );
            }
            let mut tree2 = param(2.0);
            aggregate_weights(&mut tree2, &weighted, mode, AggSettings::sharded_tree(1, 2))
                .unwrap();
            assert_eq!(t, tree2.flatten(), "{mode:?}: tree must be bit-stable");
        }
        // fanin above the cohort size falls back to the serial reducer —
        // bit-identical, not merely close.
        let mut serial = param(2.0);
        aggregate_weights(
            &mut serial,
            &weighted,
            ZeroMode::StaleFill,
            AggSettings::sharded(1),
        )
        .unwrap();
        let mut wide = param(2.0);
        aggregate_weights(
            &mut wide,
            &weighted,
            ZeroMode::StaleFill,
            AggSettings::sharded_tree(1, 64),
        )
        .unwrap();
        assert_eq!(serial.flatten(), wide.flatten());
    }

    #[test]
    fn delta_aggregation_moves_global() {
        let mut g = param(1.0);
        let mut d1 = param(0.0);
        d1.mat_mut(0).set(0, 0, 2.0);
        let mut d2 = param(0.0);
        d2.mat_mut(0).set(0, 0, 4.0);
        let u1 = delta_upload(d1);
        let u2 = delta_upload(d2);
        aggregate_deltas(&mut g, &[(1.0, &u1), (1.0, &u2)], PLAIN).unwrap();
        assert_eq!(g.mat(0).get(0, 0), 1.0 + 3.0);
        assert_eq!(g.mat(0).get(1, 1), 1.0);
    }

    #[test]
    fn kind_mismatch_is_a_structured_error() {
        let u = delta_upload(param(0.0));
        let mut g = param(0.0);
        let err = aggregate_weights(&mut g, &[(1.0, &u)], ZeroMode::ZerosPull, PLAIN).unwrap_err();
        assert_eq!(
            err,
            AggError::KindMismatch {
                index: 0,
                expected: UploadKind::Weights
            }
        );
        assert!(err.to_string().contains("Weights uploads"), "{err}");
    }

    #[test]
    fn invalid_weights_are_rejected_at_the_upload_boundary() {
        // Regression (mirrors the PR 4 clip_norm NaN fix): a NaN weight
        // used to surface only as a late panic on the total — or, mixed
        // with positives that dominated the sum, a negative weight passed
        // the old `total > 0` assert silently. Both are structured errors
        // naming the offending upload now.
        let a = masked_upload(1.0, [true, true]);
        let b = masked_upload(2.0, [true, true]);
        let base = param(0.0);
        let (ta, tb) = (
            dense_twin(&base, &a).unwrap(),
            dense_twin(&base, &b).unwrap(),
        );
        // Both engines: the wire cohort and its dense twins.
        for (engine, a, b) in [("streaming", &a, &b), ("oracle", &ta, &tb)] {
            for bad in [f32::NAN, f32::INFINITY, 0.0, -1.0] {
                let mut g = param(0.0);
                let err = aggregate_weights(
                    &mut g,
                    &[(3.0, a), (bad, b)],
                    ZeroMode::StaleFill,
                    AggSettings::sharded(1),
                )
                .unwrap_err();
                // NaN != NaN, so compare structurally + on bits.
                match err {
                    AggError::InvalidWeight { index: 1, value } => {
                        assert_eq!(value.to_bits(), (bad as f64).to_bits())
                    }
                    other => panic!("weight {bad} under {engine}: got {other:?}"),
                }
                // The global must be untouched on error.
                assert_eq!(g.flatten(), param(0.0).flatten());
            }
        }
        // Deltas and the staleness merge share the boundary check.
        let d = delta_upload(param(0.0));
        let mut g = param(0.0);
        assert!(matches!(
            aggregate_deltas(&mut g, &[(f32::NAN, &d)], PLAIN),
            Err(AggError::InvalidWeight { index: 0, .. })
        ));
        let snap = param(0.0);
        let item = StalenessUpload {
            weight: f64::NAN,
            upload: &d,
            snapshot: Some(&snap),
        };
        assert!(matches!(
            merge_staleness_weighted(&mut g, &[item], 1.0, PLAIN),
            Err(AggError::InvalidWeight { index: 0, .. })
        ));
    }

    #[test]
    fn empty_uploads_error() {
        let mut g = param(0.0);
        assert_eq!(
            aggregate_weights(&mut g, &[], ZeroMode::ZerosPull, PLAIN).unwrap_err(),
            AggError::NoUploads
        );
        assert_eq!(
            aggregate_deltas(&mut g, &[], PLAIN).unwrap_err(),
            AggError::NoUploads
        );
    }

    /// Bodies pick the engine, so a cohort that mixes them has none: all
    /// three entry points name the first odd upload and leave the global
    /// untouched — under every estimator route, and whichever body leads.
    #[test]
    fn mixed_body_cohorts_are_a_structured_error() {
        let base = param(0.0);
        let wire = masked_upload(1.0, [true, true]);
        let twin = dense_twin(&base, &wire).unwrap();
        assert!(wire.wire_msg().is_some() && twin.wire_msg().is_none());
        let dwire = Upload::wire(
            UploadKind::Delta,
            fedbiad_compress::codec::encode_delta(&fedbiad_compress::codec::Payload::Dense {
                values: vec![0.5; 6],
            }),
            ModelMask::full(&base),
            24,
        );
        let dtwin = dense_twin(&base, &dwire).unwrap();
        let odd = AggError::MixedBodies { index: 2 };
        for robust in [
            RobustKind::Mean,
            RobustKind::TrimmedMean { trim_frac: 0.4 },
            RobustKind::CoordinateMedian,
            RobustKind::NormClip { tau: 0.1 },
        ] {
            let settings = PLAIN.with_robust(robust);
            for (lead, tail) in [(&wire, &twin), (&twin, &wire)] {
                let mut g = base.clone();
                let ups = [(1.0, lead), (2.0, lead), (3.0, tail)];
                let err = aggregate_weights(&mut g, &ups, ZeroMode::StaleFill, settings);
                assert_eq!(err.unwrap_err(), odd, "weights/{robust:?}");

                let items: Vec<StalenessUpload> = [lead, lead, tail]
                    .into_iter()
                    .map(|upload| StalenessUpload {
                        weight: 1.0,
                        upload,
                        snapshot: Some(&base),
                    })
                    .collect();
                let err = merge_staleness_weighted(&mut g, &items, 1.0, settings);
                assert_eq!(err.unwrap_err(), odd, "staleness/{robust:?}");
                assert_eq!(g.flatten(), base.flatten());
            }
            for (lead, tail) in [(&dwire, &dtwin), (&dtwin, &dwire)] {
                let mut g = base.clone();
                let ups = [(1.0, lead), (2.0, lead), (3.0, tail)];
                let err = aggregate_deltas(&mut g, &ups, settings);
                assert_eq!(err.unwrap_err(), odd, "deltas/{robust:?}");
                assert_eq!(g.flatten(), base.flatten());
            }
        }
        assert!(odd.to_string().contains("upload 2"), "{odd}");
    }
}
