//! The sharded streaming engine: fused decode + reduce over fixed-size
//! shards of the flat parameter space.
//!
//! ## How it stays bit-identical to [`super::dense`]
//!
//! Aggregation is element-wise: every output element is a function of
//! that element's inputs only, reduced over clients **in upload order**.
//! Splitting the flat space ([`ParamSet::flatten`] order) into shards
//! therefore cannot change a single bit as long as
//!
//! 1. each shard reduces clients in the same fixed order the dense path
//!    uses (the upload list order), and
//! 2. every per-element expression is written exactly as the dense
//!    reference writes it (`num·(1/W)` for matrix elements under
//!    zeros-pull but `num/W` for biases, `(num + (W−den)·g)/W` for
//!    stale-fill, and so on — see `dense.rs`).
//!
//! Shards run in parallel through the deterministic rayon shim; each
//! shard owns disjoint `&mut` slices of the output and scratch buffers,
//! so thread count cannot affect results either
//! (`tests/thread_determinism.rs`).
//!
//! The per-shard inner loops run through the shared SIMD kernels in
//! [`fedbiad_tensor::ops`] — all purely vertical operations, so the
//! vector widths carry the exact scalar bits — and the coverage walk
//! tracks kept-value ranks **incrementally** (one counter per shard
//! walk; see [`walk_runs`]) instead of issuing a popcount rank query per
//! matrix/bias section. Dense-f32 payloads accumulate straight from
//! their wire bytes with no intermediate decode buffer.
//!
//! ## Memory
//!
//! The dense path holds one dense `ParamSet` per client
//! (O(clients × model)). Here each client contributes straight from its
//! encoded bytes: the only data-sized buffers are a handful of
//! model-sized flats (global, numerator, denominator, per-client shard
//! scratch), checked out of a thread-local [`Workspace`] arena — after
//! the first aggregation of a given shape, [`arena_churn`] stays
//! constant, i.e. steady-state aggregation performs **no data-sized
//! allocations**.

use super::{robust, AggError, StalenessUpload, ZeroMode};
use crate::upload::{Upload, UploadKind};
use fedbiad_compress::codec::{
    bias_kept as codec_bias_kept, mat_kept as codec_mat_kept, BodyKind, WireError, WireMsg,
    WireView,
};
use fedbiad_nn::{CoverageMask, ParamSet};
use fedbiad_telemetry::{counter, gauge, span};
use fedbiad_tensor::stats::{order_key, KeyTile, LANES};
use fedbiad_tensor::{ops, Workspace};
use rayon::prelude::*;
use std::cell::RefCell;
use std::ops::Range;

thread_local! {
    /// The server's scratch arena. Aggregation runs on the round-loop
    /// thread, so the arena persists across rounds and steady-state
    /// checkouts allocate nothing.
    static ARENA: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Allocation churn of the calling thread's aggregation arena — constant
/// across steady-state rounds (pinned by `tests/aggregation_equivalence.rs`).
pub fn arena_churn() -> u64 {
    ARENA.with(|a| a.borrow().churn())
}

// ---- flat layout -------------------------------------------------------

/// Flat spans of each entry in [`ParamSet::flatten`] order.
struct Span {
    mat_start: usize,
    rows: usize,
    cols: usize,
    bias_start: usize,
    bias_len: usize,
}

impl Span {
    fn end(&self) -> usize {
        self.bias_start + self.bias_len
    }
}

struct FlatLayout {
    spans: Vec<Span>,
    total: usize,
}

impl FlatLayout {
    fn of(p: &ParamSet) -> FlatLayout {
        let mut spans = Vec::with_capacity(p.num_entries());
        let mut off = 0usize;
        for e in 0..p.num_entries() {
            let m = p.mat(e);
            let mat_start = off;
            off += m.len();
            let bias_start = off;
            let bias_len = p.bias(e).len();
            off += bias_len;
            spans.push(Span {
                mat_start,
                rows: m.rows(),
                cols: m.cols(),
                bias_start,
                bias_len,
            });
        }
        FlatLayout { spans, total: off }
    }

    /// Entry containing flat position `pos`.
    fn entry_of(&self, pos: usize) -> usize {
        debug_assert!(pos < self.total);
        self.spans.partition_point(|s| s.end() <= pos)
    }
}

// ---- per-upload kept-value bookkeeping ---------------------------------

/// Where each entry's covered values sit in an upload's kept-value
/// stream (cumulative counts, in flatten order).
struct KeptMeta {
    /// `prefix[e]` = covered scalars before entry `e`; last = total.
    prefix: Vec<usize>,
    /// Covered *matrix* scalars of entry `e` (biases follow them).
    mat_kept: Vec<usize>,
}

impl KeptMeta {
    fn of(masks: &[CoverageMask], layout: &FlatLayout) -> KeptMeta {
        let mut prefix = Vec::with_capacity(masks.len() + 1);
        let mut mat_kept = Vec::with_capacity(masks.len());
        let mut acc = 0usize;
        prefix.push(0);
        for (mask, span) in masks.iter().zip(&layout.spans) {
            // Kept-count conventions come from the codec (the wire
            // format's source of truth), so the rank bookkeeping here can
            // never drift from what the encoder transmitted.
            let mk = codec_mat_kept(mask, span.rows, span.cols);
            acc += mk + codec_bias_kept(mask, span.bias_len);
            mat_kept.push(mk);
            prefix.push(acc);
        }
        KeptMeta { prefix, mat_kept }
    }

    /// Kept-rank of flat position `pos` (number of covered scalars before
    /// it); `pos == total` returns the total covered count.
    fn rank_at(&self, pos: usize, masks: &[CoverageMask], layout: &FlatLayout) -> usize {
        if pos >= layout.total {
            return *self.prefix.last().expect("non-empty prefix");
        }
        let e = layout.entry_of(pos);
        let span = &layout.spans[e];
        let mask = &masks[e];
        if pos < span.bias_start {
            let o = pos - span.mat_start;
            let (r, c) = (o / span.cols, o % span.cols);
            let mat_rank = match mask {
                CoverageMask::Full => o,
                CoverageMask::Rows(rb) => rb.rank(r) * span.cols + if rb.get(r) { c } else { 0 },
                CoverageMask::RowsCols { rows, cols } => {
                    rows.rank(r) * cols.count_ones() + if rows.get(r) { cols.rank(c) } else { 0 }
                }
                CoverageMask::Elements(b) => b.rank(o),
            };
            self.prefix[e] + mat_rank
        } else {
            let br = pos - span.bias_start;
            let bias_rank = match mask {
                CoverageMask::Full | CoverageMask::Elements(_) => br,
                CoverageMask::Rows(rb) | CoverageMask::RowsCols { rows: rb, .. } => rb.rank(br),
            };
            self.prefix[e] + self.mat_kept[e] + bias_rank
        }
    }
}

/// One coverage run of a shard walk.
enum Run {
    /// `n` covered elements at local offset `local`; their kept values
    /// are `ks[ki..ki+n]`.
    Covered { local: usize, ki: usize, n: usize },
    /// `n` dropped elements at local offset `local`.
    Dropped { local: usize, n: usize },
}

/// Walk a shard range of one upload's coverage as *runs*: maximal
/// stretches of covered and dropped elements, in flat order. Covered
/// rows of `Rows`/`Full` masks — the hot case — surface as whole-row
/// runs, so consumers reduce them with tight slice loops instead of
/// per-element dispatch.
///
/// The kept-value index `ki` handed to each covered run is tracked
/// **incrementally**: the kept-value stream follows flat order, so the
/// rank of any position inside the walk equals the shard-start rank plus
/// the covered elements seen so far. One counter therefore replaces the
/// per-section `KeptMeta::rank_at` queries the walk used to issue (each
/// a popcount scan over the mask words), making the walk O(shard) with
/// no rank queries at all — callers resolve the single shard-start rank
/// themselves when they need an absolute payload offset.
fn walk_runs(
    view: &WireView<'_>,
    layout: &FlatLayout,
    start: usize,
    len: usize,
    mut f: impl FnMut(Run),
) {
    if len == 0 {
        return;
    }
    let end = start + len;
    let first = layout.entry_of(start);
    // Covered elements seen since `start` — the incremental rank.
    let mut ki = 0usize;
    for (e, span) in layout.spans.iter().enumerate().skip(first) {
        if span.mat_start >= end {
            break;
        }
        let mask = &view.masks[e];
        // Matrix section.
        let m0 = span.mat_start.max(start);
        let m1 = span.bias_start.min(end);
        if m0 < m1 {
            match mask {
                CoverageMask::Full => {
                    f(Run::Covered {
                        local: m0 - start,
                        ki,
                        n: m1 - m0,
                    });
                    ki += m1 - m0;
                }
                CoverageMask::Rows(rb) => {
                    let mut o = m0;
                    while o < m1 {
                        let r = (o - span.mat_start) / span.cols;
                        let row_end = (span.mat_start + (r + 1) * span.cols).min(m1);
                        if rb.get(r) {
                            f(Run::Covered {
                                local: o - start,
                                ki,
                                n: row_end - o,
                            });
                            ki += row_end - o;
                        } else {
                            f(Run::Dropped {
                                local: o - start,
                                n: row_end - o,
                            });
                        }
                        o = row_end;
                    }
                }
                CoverageMask::RowsCols { rows: rb, cols: cb } => {
                    let mut o = m0;
                    while o < m1 {
                        let r = (o - span.mat_start) / span.cols;
                        let row_end = (span.mat_start + (r + 1) * span.cols).min(m1);
                        if rb.get(r) {
                            for oo in o..row_end {
                                if cb.get((oo - span.mat_start) % span.cols) {
                                    f(Run::Covered {
                                        local: oo - start,
                                        ki,
                                        n: 1,
                                    });
                                    ki += 1;
                                } else {
                                    f(Run::Dropped {
                                        local: oo - start,
                                        n: 1,
                                    });
                                }
                            }
                        } else {
                            f(Run::Dropped {
                                local: o - start,
                                n: row_end - o,
                            });
                        }
                        o = row_end;
                    }
                }
                CoverageMask::Elements(bits) => {
                    for o in m0..m1 {
                        if bits.get(o - span.mat_start) {
                            f(Run::Covered {
                                local: o - start,
                                ki,
                                n: 1,
                            });
                            ki += 1;
                        } else {
                            f(Run::Dropped {
                                local: o - start,
                                n: 1,
                            });
                        }
                    }
                }
            }
        }
        // Bias section (small; elementwise).
        let b0 = span.bias_start.max(start);
        let b1 = span.end().min(end);
        if b0 < b1 {
            for o in b0..b1 {
                let br = o - span.bias_start;
                let covered = match mask {
                    CoverageMask::Full | CoverageMask::Elements(_) => true,
                    CoverageMask::Rows(rb) | CoverageMask::RowsCols { rows: rb, .. } => rb.get(br),
                };
                if covered {
                    f(Run::Covered {
                        local: o - start,
                        ki,
                        n: 1,
                    });
                    ki += 1;
                } else {
                    f(Run::Dropped {
                        local: o - start,
                        n: 1,
                    });
                }
            }
        }
    }
}

// ---- cohort views ------------------------------------------------------

/// Validate and view every upload's frame, in upload order. The views
/// borrow the uploads' own wire bytes — nothing is copied or re-encoded.
fn cohort_views<'a>(
    shape: &ParamSet,
    uploads: impl Iterator<Item = &'a Upload>,
) -> Result<Vec<WireView<'a>>, AggError> {
    uploads
        .enumerate()
        .map(|(i, u)| {
            let _client_span = span!("agg.client", client = i);
            // The router sends wire cohorts only; defence in depth.
            let msg = u.wire_msg().ok_or(AggError::MixedBodies { index: i })?;
            counter!("agg.decode_bytes", msg.as_bytes().len());
            let v = msg.view(shape)?;
            check_kind(&v, u.kind)?;
            Ok(v)
        })
        .collect()
}

fn check_kind(view: &WireView<'_>, upload_kind: UploadKind) -> Result<(), AggError> {
    let ok = match upload_kind {
        UploadKind::Weights => matches!(
            view.kind,
            BodyKind::WeightsAbsolute | BodyKind::WeightsDelta
        ),
        UploadKind::Delta => view.kind == BodyKind::DeltaFull,
    };
    if ok {
        Ok(())
    } else {
        Err(AggError::Wire(WireError::Inconsistent(
            "wire body kind does not match upload kind",
        )))
    }
}

// ---- shard scaffolding -------------------------------------------------

/// Disjoint per-shard slices of the model-sized scratch buffers.
struct ShardTask<'a> {
    start: usize,
    g: &'a mut [f32],
    num: &'a mut [f32],
    den: &'a mut [f32],
    vals: &'a mut [f32],
    kept: &'a mut [f32],
    snap: &'a mut [f32],
}

/// Which scratch buffers an operation touches (unrequested ones are not
/// checked out, so they cost neither allocation nor zero-fill).
#[derive(Clone, Copy)]
struct Needs {
    num: bool,
    den: bool,
    vals: bool,
    kept: bool,
    snap: bool,
}

/// Check out the requested model-sized flats, split them into shard
/// tasks, run `body` over the tasks in parallel, write the global back,
/// and return the buffers to the arena.
fn with_shards<F>(global: &mut ParamSet, shard_elems: usize, needs: Needs, body: F)
where
    F: Fn(&mut ShardTask) + Sync,
{
    let total = global.total_params();
    let se = shard_elems.max(1);
    let sized = |on: bool| if on { total } else { 0 };
    ARENA.with(|arena| {
        let (mut g, mut num, mut den, mut vals, mut kept, mut snap) = {
            let mut a = arena.borrow_mut();
            (
                a.take(total),
                a.take(sized(needs.num)),
                a.take(sized(needs.den)),
                a.take(sized(needs.vals)),
                a.take(sized(needs.kept)),
                a.take(sized(needs.snap)),
            )
        };
        global.copy_flat_range(0, &mut g);

        let mut tasks: Vec<ShardTask> = Vec::with_capacity(total.div_ceil(se));
        {
            let mut gs = g.chunks_mut(se);
            let mut nums = num.chunks_mut(se);
            let mut dens = den.chunks_mut(se);
            let mut valss = vals.chunks_mut(se);
            let mut kepts = kept.chunks_mut(se);
            let mut snaps = snap.chunks_mut(se);
            let mut start = 0usize;
            while start < total {
                // Buffers the op did not request are empty: their chunk
                // iterators yield nothing and the task gets `&mut []`.
                tasks.push(ShardTask {
                    start,
                    g: gs.next().expect("chunk"),
                    num: nums.next().unwrap_or_default(),
                    den: dens.next().unwrap_or_default(),
                    vals: valss.next().unwrap_or_default(),
                    kept: kepts.next().unwrap_or_default(),
                    snap: snaps.next().unwrap_or_default(),
                });
                start += se;
            }
        }

        // Parallel across shards; per shard, clients reduce in the fixed
        // upload order (the determinism contract).
        counter!("agg.shards_reduced", tasks.len());
        tasks.par_iter_mut().for_each(|t| {
            let _shard_span = span!("agg.shard", shard = t.start / se, elems = t.g.len());
            body(t)
        });
        drop(tasks);

        global.unflatten_from(&g);
        let mut a = arena.borrow_mut();
        a.give(g);
        a.give(num);
        a.give(den);
        a.give(vals);
        a.give(kept);
        a.give(snap);
        gauge!("agg.arena_churn", a.churn());
    });
}

/// Decode one upload's payload for a shard into `kept_scratch`, returning
/// the slice of kept values covering `[start, start + len)`.
fn decode_kept<'k>(
    view: &WireView<'_>,
    kmeta: &KeptMeta,
    layout: &FlatLayout,
    start: usize,
    len: usize,
    kept_scratch: &'k mut [f32],
) -> (&'k [f32], usize) {
    let kr0 = kmeta.rank_at(start, &view.masks, layout);
    let kr1 = kmeta.rank_at(start + len, &view.masks, layout);
    let ks = &mut kept_scratch[..kr1 - kr0];
    view.payload.decode_range(kr0, ks);
    (ks, kr0)
}

/// Fused decode + numerator/denominator accumulation for one upload on
/// one shard (the sync weights path): the client's dense contribution is
/// never materialised — covered runs stream straight from the wire into
/// `num[j] += w·v`, and dropped elements are skipped outright. Skipping
/// is bit-exact, not an approximation: the dense engine adds
/// `w·0.0 = +0.0` there, and under round-to-nearest `x + (+0.0)` changes
/// nothing unless `x` is `−0.0` — which `num` can never be, because it
/// starts at `+0.0` and an IEEE sum is `−0.0` only when *both* operands
/// are (`tests/aggregation_equivalence.rs` pins this end to end).
///
/// Dense-f32 payloads — the hot masked-weights shape — skip the
/// kept-scratch decode entirely: the single shard-start rank query gives
/// the payload byte offset, and covered runs accumulate straight from the
/// wire bytes ([`ops::axpy_from_le_bytes`]). Compressed payloads decode
/// the shard's kept values once into scratch and accumulate from there.
#[allow(clippy::too_many_arguments)]
fn accumulate_weights_shard(
    view: &WireView<'_>,
    kmeta: &KeptMeta,
    layout: &FlatLayout,
    start: usize,
    len: usize,
    w: f32,
    base: &[f32],
    num: &mut [f32],
    mut den: Option<&mut [f32]>,
    kept_scratch: &mut [f32],
) {
    if len == 0 {
        return;
    }
    let delta_mode = view.kind == BodyKind::WeightsDelta;
    let dense = if delta_mode {
        None
    } else {
        view.payload.dense_values()
    };
    let (ks, kr0): (&[f32], usize) = match dense {
        Some(_) => (&[], kmeta.rank_at(start, &view.masks, layout)),
        None => {
            let (ks, kr0) = decode_kept(view, kmeta, layout, start, len, kept_scratch);
            (ks, kr0)
        }
    };
    walk_runs(view, layout, start, len, |run| match run {
        Run::Covered { local, ki, n } => {
            let nseg = &mut num[local..local + n];
            if delta_mode {
                // WeightsDelta reconstructs g + δ exactly as the dense
                // client did (`rec_flat[i] += decoded[pos]`).
                ops::axpy_sum2(w, &base[local..local + n], &ks[ki..ki + n], nseg);
            } else if let Some(bytes) = dense {
                let o = 4 * (kr0 + ki);
                ops::axpy_from_le_bytes(w, &bytes[o..o + 4 * n], nseg);
            } else {
                ops::axpy(w, &ks[ki..ki + n], nseg);
            }
            if let Some(den) = den.as_mut() {
                ops::add_assign_scalar(&mut den[local..local + n], w);
            }
        }
        Run::Dropped { .. } => {}
    });
}

/// Denominator of entry `e`, row `r` for row-granular coverage (every
/// mask `Full` or `Rows`): the scalar chain `0.0 + w_0 + w_1 + …` over
/// the clients covering the row, in upload order — exactly the sum the
/// dense engine builds element-wise (`den[i] += w` per covering client),
/// so combining with it is bit-identical to combining with a den array.
fn row_weight(uploads: &[(f32, &Upload)], views: &[WireView<'_>], e: usize, r: usize) -> f32 {
    let mut d = 0.0f32;
    for ((w, _), v) in uploads.iter().zip(views) {
        let covered = match &v.masks[e] {
            CoverageMask::Full => true,
            CoverageMask::Rows(rb) => rb.get(r),
            // Caller guarantees row granularity.
            _ => unreachable!("row_weight on non-row-granular mask"),
        };
        if covered {
            d += *w;
        }
    }
    d
}

/// Call `f(lo, hi, e, r)` for every maximal extent of the flat range that
/// lies within a single row: matrix rows clipped to the range, then each
/// bias element (bias element `i` of an entry belongs to row `i`).
/// `lo..hi` are range-local offsets.
fn for_each_row_extent(
    layout: &FlatLayout,
    start: usize,
    len: usize,
    f: &mut impl FnMut(usize, usize, usize, usize),
) {
    if len == 0 {
        return;
    }
    let end = start + len;
    for (e, span) in layout.spans.iter().enumerate().skip(layout.entry_of(start)) {
        if span.mat_start >= end {
            break;
        }
        let m0 = span.mat_start.max(start);
        let m1 = span.bias_start.min(end);
        if m0 < m1 {
            let r0 = (m0 - span.mat_start) / span.cols;
            let r1 = (m1 - 1 - span.mat_start) / span.cols;
            for r in r0..=r1 {
                let lo = (span.mat_start + r * span.cols).max(m0);
                let hi = (span.mat_start + (r + 1) * span.cols).min(m1);
                f(lo - start, hi - start, e, r);
            }
        }
        let b0 = span.bias_start.max(start);
        let b1 = span.end().min(end);
        for i in b0..b1 {
            f(i - start, i + 1 - start, e, i - span.bias_start);
        }
    }
}

/// Decode one upload's masked values for a shard into `vals` (exact
/// zeros on dropped positions), with a parallel coverage indicator in
/// `cov` if given (1.0 covered / 0.0 dropped) — the per-client column
/// material of the robust weights combine. `WeightsDelta` bodies
/// reconstruct the client's absolute values `base + δ` elementwise, the
/// same expression the fused mean path feeds `axpy_sum2`.
#[allow(clippy::too_many_arguments)]
fn decode_masked_shard(
    view: &WireView<'_>,
    kmeta: &KeptMeta,
    layout: &FlatLayout,
    start: usize,
    len: usize,
    base: &[f32],
    vals: &mut [f32],
    mut cov: Option<&mut [f32]>,
    kept_scratch: &mut [f32],
) {
    if len == 0 {
        return;
    }
    let (ks, _) = decode_kept(view, kmeta, layout, start, len, kept_scratch);
    let delta_mode = view.kind == BodyKind::WeightsDelta;
    walk_runs(view, layout, start, len, |run| match run {
        Run::Covered { local, ki, n } => {
            let seg = &mut vals[local..local + n];
            let kseg = &ks[ki..ki + n];
            if delta_mode {
                for ((o, b), k) in seg.iter_mut().zip(&base[local..local + n]).zip(kseg) {
                    *o = *b + *k;
                }
            } else {
                seg.copy_from_slice(kseg);
            }
            if let Some(cov) = cov.as_mut() {
                cov[local..local + n].fill(1.0);
            }
        }
        Run::Dropped { local, n } => {
            vals[local..local + n].fill(0.0);
            if let Some(cov) = cov.as_mut() {
                cov[local..local + n].fill(0.0);
            }
        }
    });
}

/// Decode an encoded upload into its dense flat values: covered positions
/// carry the client's reconstructed values (`base + δ` for `WeightsDelta`
/// bodies), dropped positions exact zero — the dense-engine twin of the
/// wire body. Delta payloads decode the full flat stream directly. Used
/// by the norm-clip pre-pass and the public `decode_dense`.
pub(super) fn decode_dense_flat(
    shape: &ParamSet,
    base_flat: &[f32],
    msg: &WireMsg,
) -> Result<Vec<f32>, AggError> {
    let layout = FlatLayout::of(shape);
    let view = msg.view(shape)?;
    let mut out = vec![0.0f32; layout.total];
    if view.kind == BodyKind::DeltaFull {
        view.payload.decode_range(0, &mut out);
        return Ok(out);
    }
    let kmeta = KeptMeta::of(&view.masks, &layout);
    let total_kept = *kmeta.prefix.last().expect("non-empty prefix");
    let mut ks = vec![0.0f32; total_kept];
    view.payload.decode_range(0, &mut ks);
    let delta_mode = view.kind == BodyKind::WeightsDelta;
    walk_runs(&view, &layout, 0, layout.total, |run| match run {
        Run::Covered { local, ki, n } => {
            let seg = &mut out[local..local + n];
            if delta_mode {
                for ((o, b), k) in seg
                    .iter_mut()
                    .zip(&base_flat[local..local + n])
                    .zip(&ks[ki..ki + n])
                {
                    *o = *b + *k;
                }
            } else {
                seg.copy_from_slice(&ks[ki..ki + n]);
            }
        }
        Run::Dropped { .. } => {}
    });
    Ok(out)
}

/// Scan an encoded upload's decoded value stream for non-finite values in
/// fixed-size chunks, never materialising the model. Sign/quantised
/// payloads decode a poisoned `mu`/`scale` into non-finite values, so
/// this single decode-level check covers every payload kind.
pub(super) fn wire_has_non_finite(base: &ParamSet, msg: &WireMsg) -> Result<bool, AggError> {
    let layout = FlatLayout::of(base);
    let view = msg.view(base)?;
    let total = if view.kind == BodyKind::DeltaFull {
        layout.total
    } else {
        *KeptMeta::of(&view.masks, &layout)
            .prefix
            .last()
            .expect("non-empty prefix")
    };
    let mut buf = [0.0f32; 512];
    let mut i = 0usize;
    while i < total {
        let n = (total - i).min(buf.len());
        view.payload.decode_range(i, &mut buf[..n]);
        if buf[..n].iter().any(|v| !v.is_finite()) {
            return Ok(true);
        }
        i += n;
    }
    Ok(false)
}

/// Decode one upload's masked values for a shard into `vals` (exact
/// zeros on dropped positions), subtracting `sub` on covered elements —
/// the staleness merge's Δ = (β∘U) − snapshot, with the dense path's
/// exact expression `(v) + (−1.0)·sub[i]` (the `axpy(-1.0, …)` form,
/// which [`ops::diff_into`]/[`ops::sum2_diff_into`] spell per lane).
#[allow(clippy::too_many_arguments)]
fn decode_weights_delta_shard(
    view: &WireView<'_>,
    kmeta: &KeptMeta,
    layout: &FlatLayout,
    start: usize,
    len: usize,
    base: &[f32],
    sub: &[f32],
    vals: &mut [f32],
    kept_scratch: &mut [f32],
) {
    if len == 0 {
        return;
    }
    let (ks, _) = decode_kept(view, kmeta, layout, start, len, kept_scratch);
    let delta_mode = view.kind == BodyKind::WeightsDelta;
    walk_runs(view, layout, start, len, |run| match run {
        Run::Covered { local, ki, n } => {
            let seg = &mut vals[local..local + n];
            let kseg = &ks[ki..ki + n];
            let sseg = &sub[local..local + n];
            if delta_mode {
                ops::sum2_diff_into(&base[local..local + n], kseg, sseg, seg);
            } else {
                ops::diff_into(kseg, sseg, seg);
            }
        }
        Run::Dropped { local, n } => vals[local..local + n].fill(0.0),
    });
}

// ---- the three engines -------------------------------------------------

pub(super) fn weights(
    global: &mut ParamSet,
    uploads: &[(f32, &Upload)],
    mode: ZeroMode,
    total_w: f32,
    shard_elems: usize,
) -> Result<(), AggError> {
    let layout = FlatLayout::of(global);
    let views = cohort_views(global, uploads.iter().map(|(_, u)| *u))?;
    let kmetas: Vec<KeptMeta> = views
        .iter()
        .map(|v| KeptMeta::of(&v.masks, &layout))
        .collect();
    let need_den = mode != ZeroMode::ZerosPull;

    // Row-granular coverage (`Full`/`Rows` masks — the FedBIAD dropout
    // shape) makes the denominator *row-constant* per client, so no den
    // array is materialised at all: the combine step walks row extents
    // and folds each row's scalar weight chain straight into the
    // constant-den combine kernels, saving both the per-client
    // `den += w` memory passes and the full-width den fill/read. Finer
    // masks (`RowsCols`/`Elements`) keep the per-client accumulation.
    let row_granular = views.iter().all(|v| {
        v.masks
            .iter()
            .all(|m| matches!(m, CoverageMask::Full | CoverageMask::Rows(_)))
    });
    let fast_den = need_den && row_granular;

    let needs = Needs {
        num: true,
        den: need_den && !fast_den,
        vals: false,
        kept: true,
        snap: false,
    };
    with_shards(global, shard_elems, needs, |t| {
        let len = t.g.len();
        t.num.fill(0.0);
        t.den.fill(0.0);
        for (((w, _), view), kmeta) in uploads.iter().zip(&views).zip(&kmetas) {
            accumulate_weights_shard(
                view,
                kmeta,
                &layout,
                t.start,
                len,
                *w,
                t.g,
                t.num,
                (need_den && !fast_den).then_some(&mut *t.den),
                t.kept,
            );
        }
        combine_mode(
            mode, fast_den, &layout, uploads, &views, total_w, t.start, t.num, t.den, t.g,
        );
    });
    Ok(())
}

/// Apply one shard's [`ZeroMode`] combine — shared verbatim by the serial
/// reduction above and the tree reduction in [`weights_tree`], so the two
/// paths can never drift in the combine expressions (only the numerator
/// *association* differs between them).
#[allow(clippy::too_many_arguments)]
fn combine_mode(
    mode: ZeroMode,
    fast_den: bool,
    layout: &FlatLayout,
    uploads: &[(f32, &Upload)],
    views: &[WireView<'_>],
    total_w: f32,
    start: usize,
    num: &[f32],
    den: &[f32],
    g: &mut [f32],
) {
    let len = g.len();
    let inv_w = 1.0f32 / total_w;
    match mode {
        ZeroMode::ZerosPull => {
            // Matrix elements: num·(1/W); biases: num/W — exactly the
            // dense reference's two expressions, applied per maximal
            // matrix/bias section run.
            for_each_section_range(layout, start, len, &mut |lo, hi, is_bias| {
                if is_bias {
                    ops::div_scalar_into(&num[lo..hi], total_w, &mut g[lo..hi]);
                } else {
                    ops::scale_into(&num[lo..hi], inv_w, &mut g[lo..hi]);
                }
            });
        }
        // den = 0 keeps the previous global value.
        ZeroMode::HoldersOnly if fast_den => {
            for_each_row_extent(layout, start, len, &mut |lo, hi, e, r| {
                let d = row_weight(uploads, views, e, r);
                ops::holders_combine_scalar(&num[lo..hi], d, &mut g[lo..hi]);
            });
        }
        ZeroMode::HoldersOnly => ops::holders_combine(num, den, g),
        ZeroMode::StaleFill if fast_den => {
            for_each_row_extent(layout, start, len, &mut |lo, hi, e, r| {
                let d = row_weight(uploads, views, e, r);
                ops::stale_fill_combine_scalar(&num[lo..hi], d, total_w, &mut g[lo..hi]);
            });
        }
        ZeroMode::StaleFill => ops::stale_fill_combine(num, den, total_w, g),
    }
}

/// Hierarchical (tree) reduction for the sync weights path: uploads
/// reduce in fixed groups of `fanin`, and each shard folds the group
/// partials in ascending group order before the shared [`combine_mode`]
/// step. Phase 1 parallelises over (group × shard) — the cohort axis as
/// well as the shard axis — so a large cohort is no longer one serial
/// merge chain per shard.
///
/// Changes the f32 numerator *association* (an explicit opt-in; see
/// `AggSettings::tree_fanin`) but stays deterministic across thread
/// counts: every partial is a pure function of its group's uploads, and
/// the phase-2 fold walks groups in fixed order.
///
/// Memory: O(⌈cohort/fanin⌉ · model) for the partials — between the
/// dense engine's O(cohort · model) and the serial streaming path's
/// O(model); `fanin` trades merge parallelism against partial memory.
pub(super) fn weights_tree(
    global: &mut ParamSet,
    uploads: &[(f32, &Upload)],
    mode: ZeroMode,
    total_w: f32,
    shard_elems: usize,
    fanin: usize,
) -> Result<(), AggError> {
    let layout = FlatLayout::of(global);
    let views = cohort_views(global, uploads.iter().map(|(_, u)| *u))?;
    let kmetas: Vec<KeptMeta> = views
        .iter()
        .map(|v| KeptMeta::of(&v.masks, &layout))
        .collect();
    let need_den = mode != ZeroMode::ZerosPull;
    let row_granular = views.iter().all(|v| {
        v.masks
            .iter()
            .all(|m| matches!(m, CoverageMask::Full | CoverageMask::Rows(_)))
    });
    let fast_den = need_den && row_granular;
    let per_client_den = need_den && !fast_den;

    let total = global.total_params();
    let se = shard_elems.max(1);
    let fanin = fanin.max(2);
    let groups: Vec<(usize, usize)> = (0..uploads.len())
        .step_by(fanin)
        .map(|lo| (lo, (lo + fanin).min(uploads.len())))
        .collect();
    let rows = groups.len();

    // Partial buffers: one model-sized row per group (checked out of the
    // arena like every other data-sized buffer, so steady-state rounds
    // with a fixed cohort/fanin allocate nothing).
    let (mut gflat, mut pnum, mut pden, mut pkept) = ARENA.with(|arena| {
        let mut a = arena.borrow_mut();
        (
            a.take(total),
            a.take(rows * total),
            a.take(if per_client_den { rows * total } else { 0 }),
            a.take(rows * total),
        )
    });
    global.copy_flat_range(0, &mut gflat);

    // Phase 1: one task per (group, shard); disjoint `&mut` partial
    // slices, so tasks are order-independent and thread-count cannot
    // affect their contents.
    struct TreeTask<'a> {
        lo: usize,
        hi: usize,
        start: usize,
        pnum: &'a mut [f32],
        pden: &'a mut [f32],
        pkept: &'a mut [f32],
    }
    let mut tasks: Vec<TreeTask> = Vec::with_capacity(rows * total.div_ceil(se));
    {
        let mut pnum_rows = pnum.chunks_mut(total);
        let mut pden_rows = pden.chunks_mut(total);
        let mut pkept_rows = pkept.chunks_mut(total);
        for &(lo, hi) in &groups {
            let nrow = pnum_rows.next().expect("partial row");
            let drow = pden_rows.next().unwrap_or_default();
            let krow = pkept_rows.next().expect("scratch row");
            let mut nchunks = nrow.chunks_mut(se);
            let mut dchunks = drow.chunks_mut(se);
            let mut kchunks = krow.chunks_mut(se);
            let mut start = 0usize;
            while start < total {
                tasks.push(TreeTask {
                    lo,
                    hi,
                    start,
                    pnum: nchunks.next().expect("chunk"),
                    pden: dchunks.next().unwrap_or_default(),
                    pkept: kchunks.next().expect("chunk"),
                });
                start += se;
            }
        }
    }
    counter!("agg.tree_partials", tasks.len());
    tasks.par_iter_mut().for_each(|t| {
        let _span = span!("agg.tree_partial", group = t.lo, shard = t.start / se);
        let len = t.pnum.len();
        // `Workspace::take` hands out zero-filled buffers, but rows may
        // be recycled within one process lifetime — clear explicitly.
        t.pnum.fill(0.0);
        t.pden.fill(0.0);
        for i in t.lo..t.hi {
            let (w, _) = uploads[i];
            accumulate_weights_shard(
                &views[i],
                &kmetas[i],
                &layout,
                t.start,
                len,
                w,
                &gflat[t.start..t.start + len],
                t.pnum,
                per_client_den.then_some(&mut *t.pden),
                t.pkept,
            );
        }
    });
    drop(tasks);

    // Phase 2: per shard, fold the group partials in ascending group
    // order, then apply the shared ZeroMode combine.
    let needs = Needs {
        num: true,
        den: per_client_den,
        vals: false,
        kept: false,
        snap: false,
    };
    let pnum_ref = &pnum;
    let pden_ref = &pden;
    with_shards(global, shard_elems, needs, |t| {
        let len = t.g.len();
        t.num.fill(0.0);
        t.den.fill(0.0);
        for ci in 0..rows {
            let off = ci * total + t.start;
            ops::axpy(1.0, &pnum_ref[off..off + len], t.num);
            if per_client_den {
                ops::axpy(1.0, &pden_ref[off..off + len], t.den);
            }
        }
        combine_mode(
            mode, fast_den, &layout, uploads, &views, total_w, t.start, t.num, t.den, t.g,
        );
    });

    ARENA.with(|arena| {
        let mut a = arena.borrow_mut();
        a.give(gflat);
        a.give(pnum);
        a.give(pden);
        a.give(pkept);
    });
    Ok(())
}

/// Call `f(lo, hi, is_bias)` for every maximal matrix/bias section run of
/// the flat range (`lo..hi` are range-local offsets).
fn for_each_section_range(
    layout: &FlatLayout,
    start: usize,
    len: usize,
    f: &mut impl FnMut(usize, usize, bool),
) {
    if len == 0 {
        return;
    }
    let end = start + len;
    for span in layout.spans.iter().skip(layout.entry_of(start)) {
        if span.mat_start >= end {
            break;
        }
        let m0 = span.mat_start.max(start);
        let m1 = span.bias_start.min(end);
        if m0 < m1 {
            f(m0 - start, m1 - start, false);
        }
        let b0 = span.bias_start.max(start);
        let b1 = span.end().min(end);
        if b0 < b1 {
            f(b0 - start, b1 - start, true);
        }
    }
}

pub(super) fn deltas(
    global: &mut ParamSet,
    uploads: &[(f32, &Upload)],
    total_w: f32,
    shard_elems: usize,
) -> Result<(), AggError> {
    let views = cohort_views(global, uploads.iter().map(|(_, u)| *u))?;
    let needs = Needs {
        num: false,
        den: false,
        vals: true,
        kept: false,
        snap: false,
    };
    with_shards(global, shard_elems, needs, |t| {
        let len = t.g.len();
        for ((w, _), view) in uploads.iter().zip(&views) {
            // Same per-upload coefficient the dense reference feeds axpy.
            let a = *w / total_w;
            if let Some(bytes) = view.payload.dense_values() {
                // Dense payload: fused decode + accumulate straight from
                // the wire bytes, no intermediate buffer.
                ops::axpy_from_le_bytes(a, &bytes[4 * t.start..4 * (t.start + len)], t.g);
            } else {
                view.payload.decode_range(t.start, &mut t.vals[..len]);
                ops::axpy(a, &t.vals[..len], t.g);
            }
        }
    });
    Ok(())
}

pub(super) fn staleness(
    global: &mut ParamSet,
    items: &[StalenessUpload<'_>],
    server_lr: f64,
    total_w: f64,
    shard_elems: usize,
) -> Result<(), AggError> {
    let layout = FlatLayout::of(global);
    let views = cohort_views(global, items.iter().map(|it| it.upload))?;
    let kmetas: Vec<KeptMeta> = views
        .iter()
        .map(|v| KeptMeta::of(&v.masks, &layout))
        .collect();

    let needs = Needs {
        num: false,
        den: false,
        vals: true,
        kept: true,
        snap: true,
    };
    with_shards(global, shard_elems, needs, |t| {
        let len = t.g.len();
        for ((it, view), kmeta) in items.iter().zip(&views).zip(&kmetas) {
            let c = (server_lr * it.weight / total_w) as f32;
            match view.kind {
                BodyKind::DeltaFull => {
                    if let Some(bytes) = view.payload.dense_values() {
                        // Fused decode + accumulate from the wire bytes.
                        ops::axpy_from_le_bytes(c, &bytes[4 * t.start..4 * (t.start + len)], t.g);
                        continue;
                    }
                    view.payload.decode_range(t.start, &mut t.vals[..len]);
                }
                BodyKind::WeightsAbsolute | BodyKind::WeightsDelta => {
                    // Masked weights: Δ = (β∘U) − snapshot on covered
                    // positions, exact zero elsewhere — the dense path's
                    // `delta.axpy(-1, snapshot); coverage.apply(delta)`.
                    let snapshot = it.snapshot.expect("validated in mod.rs");
                    snapshot.copy_flat_range(t.start, &mut t.snap[..len]);
                    decode_weights_delta_shard(
                        view, kmeta, &layout, t.start, len, t.snap, t.snap, t.vals, t.kept,
                    );
                }
            }
            ops::axpy(c, &t.vals[..len], t.g);
        }
    });
    Ok(())
}

// ---- the robust engines ------------------------------------------------
//
// Order-statistic estimators cannot stream as a fold: each shard decodes
// every client's column material, one column tile at a time, into an
// (n × tile) block from the worker thread's arena, then combines the
// tile's columns four at a time through `KeyTile` — one comparator
// network sorts four columns' order keys, and each lane folds through
// the same combine (`super::robust`) the dense engine's per-coordinate
// path runs. The keys are distinct, so any correct sort hands the fold
// the same keys in the same order: that is the bit-exactness argument,
// and the dense engine is its executable specification. Peak memory is
// O(cohort × tile) per worker, not O(cohort × model).
//
// A run of columns with one participant set builds it — and the weights
// combine's upload-order Σw — once: a row extent when every upload's mask
// of the entry is `Full` or `Rows`, the whole tile when every upload
// participates (delta, staleness and `ZerosPull` combines). Its keys then
// come from one four-column load per participant's decoded block row.
// `RowsCols` and `Elements` columns gather per lane from the coverage
// block.

/// Column cells (clients × coordinates) per robust tile: a tile's value
/// block is ≈ 128 KiB whatever the cohort, so the combine reads it from
/// L2 instead of striding across an `n × shard` block.
const ROBUST_TILE_CELLS: usize = 32 * 1024;

/// Coordinates per robust tile for a cohort of `n` on a shard of `len`
/// (derived, not a knob — see the `robust` module doc, "Column tiles").
fn robust_tile(n: usize, len: usize) -> usize {
    (ROBUST_TILE_CELLS / n.max(1)).clamp(1, len.max(1))
}

thread_local! {
    /// Each worker thread's key tile, kept across shards and rounds.
    static KEY_TILE: RefCell<KeyTile> = RefCell::new(KeyTile::new());
}

/// The robust engines' per-worker column block: `n × tile` values (and,
/// when some column gathers per lane, coverage), a tile of kept-value
/// scratch and an empty participant list with room for `n` — all checked
/// out of the *worker thread's* arena (the round-loop thread's borrow was
/// released before the parallel region, and each worker owns its own
/// thread-local workspace) — plus the worker's key tile, so steady-state
/// rounds allocate none of it.
struct ColumnBlock {
    vals: Vec<f32>,
    cov: Vec<f32>,
    kept: Vec<f32>,
    parts: Vec<usize>,
    keys: KeyTile,
}

impl ColumnBlock {
    fn take(n: usize, tile: usize, with_cov: bool) -> ColumnBlock {
        let keys = KEY_TILE.with(|k| std::mem::take(&mut *k.borrow_mut()));
        ARENA.with(|arena| {
            let mut a = arena.borrow_mut();
            ColumnBlock {
                vals: a.take(n * tile),
                cov: a.take(if with_cov { n * tile } else { 0 }),
                kept: a.take(tile),
                parts: {
                    let mut parts = a.take_usize(n);
                    parts.clear();
                    parts
                },
                keys,
            }
        })
    }

    fn give(self) {
        KEY_TILE.with(|k| *k.borrow_mut() = self.keys);
        ARENA.with(|arena| {
            let mut a = arena.borrow_mut();
            a.give(self.vals);
            a.give(self.cov);
            a.give(self.kept);
            a.give_usize(self.parts);
        });
    }
}

/// Call `f(lo, tl)` for each column tile `lo..lo + tl` of a `len`-long
/// shard.
fn for_each_tile(len: usize, tile: usize, mut f: impl FnMut(usize, usize)) {
    for lo in (0..len).step_by(tile) {
        f(lo, tile.min(len - lo));
    }
}

/// Whether the trim of `est` empties a column of `m` participants.
fn trim_empties(est: robust::Estimator, m: usize) -> bool {
    matches!(est, robust::Estimator::Trim { k } if 2 * k >= m)
}

/// Combine the columns `cols` of a decoded `n × tl` block (`vals`, client
/// `i`'s row at `i·tl`) that share the participants `parts` (upload
/// indices, ascending), four at a time. `pseudo`, if set, is one more
/// participant per column: the previous global `g[j]` at that position
/// (the `StaleFill` median's vote). `finish(lane, g[j])` is column `j`'s
/// new value. Returns the columns the trim emptied, which skip the sort:
/// their lanes are left empty.
#[allow(clippy::too_many_arguments)]
fn combine_shared(
    keys: &mut KeyTile,
    vals: &[f32],
    tl: usize,
    cols: Range<usize>,
    parts: &[usize],
    pseudo: Option<usize>,
    est: robust::Estimator,
    g: &mut [f32],
    mut finish: impl FnMut((&KeyTile, usize), f32) -> f32,
) -> usize {
    let m = parts.len() + usize::from(pseudo.is_some());
    if trim_empties(est, m) {
        keys.clear(0);
        for gj in &mut g[cols.clone()] {
            *gj = finish((keys, 0), *gj);
        }
        return cols.len();
    }
    for j0 in cols.clone().step_by(LANES) {
        let lanes = LANES.min(cols.end - j0);
        keys.clear(m);
        if lanes == LANES {
            keys.push_columns(vals, tl, j0, parts);
        } else {
            for &i in parts {
                for l in 0..lanes {
                    keys.push_if(l, order_key(vals[i * tl + j0 + l], i), true);
                }
            }
        }
        if let Some(p) = pseudo {
            for l in 0..lanes {
                keys.push_if(l, order_key(g[j0 + l], p), true);
            }
        }
        keys.sort();
        for l in 0..lanes {
            g[j0 + l] = finish((keys, l), g[j0 + l]);
        }
    }
    0
}

/// Robust weights combine, streaming engine.
pub(super) fn robust_weights(
    global: &mut ParamSet,
    uploads: &[(f32, &Upload)],
    mode: ZeroMode,
    est: robust::Estimator,
    total_w: f32,
    shard_elems: usize,
) -> Result<(), AggError> {
    let layout = FlatLayout::of(global);
    let views = cohort_views(global, uploads.iter().map(|(_, u)| *u))?;
    let kmetas: Vec<KeptMeta> = views
        .iter()
        .map(|v| KeptMeta::of(&v.masks, &layout))
        .collect();
    let n = uploads.len();
    let ws: Vec<f32> = uploads.iter().map(|(w, _)| *w).collect();
    let every = mode == ZeroMode::ZerosPull;
    // Entries whose rows each have one participant set across the cohort.
    let row_shared: Vec<bool> = (0..layout.spans.len())
        .map(|e| {
            views
                .iter()
                .all(|v| matches!(v.masks[e], CoverageMask::Full | CoverageMask::Rows(_)))
        })
        .collect();
    let with_cov = !every && row_shared.contains(&false);
    let pseudo = (est == robust::Estimator::Median && mode == ZeroMode::StaleFill).then_some(n);
    let combine = |col: (&KeyTile, usize), rest: f32, g_prev: f32| {
        robust::weights_combine(col, &ws, est, mode, rest, g_prev)
    };
    let needs = Needs {
        num: false,
        den: false,
        vals: false,
        kept: false,
        snap: false,
    };
    with_shards(global, shard_elems, needs, |t| {
        let len = t.g.len();
        let tile = robust_tile(n, len);
        let mut b = ColumnBlock::take(n, tile, with_cov);
        let mut emptied = 0usize;
        if every {
            b.parts.extend(0..n);
        }
        for_each_tile(len, tile, |lo, tl| {
            // Decode against the tile's still-unwritten previous global
            // (`WeightsDelta` bodies reconstruct `g + δ`).
            let g = &mut t.g[lo..lo + tl];
            for i in 0..n {
                let cells = i * tl..(i + 1) * tl;
                decode_masked_shard(
                    &views[i],
                    &kmetas[i],
                    &layout,
                    t.start + lo,
                    tl,
                    g,
                    &mut b.vals[cells.clone()],
                    with_cov.then(|| &mut b.cov[cells]),
                    &mut b.kept,
                );
            }
            let ColumnBlock {
                vals,
                cov,
                parts,
                keys,
                ..
            } = &mut b;
            if every {
                // Every upload participates; `rest` is never read.
                emptied += combine_shared(keys, vals, tl, 0..tl, parts, None, est, g, |col, gj| {
                    combine(col, 0.0, gj)
                });
                return;
            }
            for_each_row_extent(&layout, t.start + lo, tl, &mut |a, z, e, r| {
                if row_shared[e] {
                    // Σw over the row's holders in upload order: the
                    // per-coordinate chain with its `+0.0` terms dropped.
                    parts.clear();
                    let mut den = 0.0f32;
                    for (i, v) in views.iter().enumerate() {
                        let covered = match &v.masks[e] {
                            CoverageMask::Rows(rb) => rb.get(r),
                            _ => true,
                        };
                        if covered {
                            parts.push(i);
                            den += ws[i];
                        }
                    }
                    let rest = total_w - den;
                    emptied +=
                        combine_shared(keys, vals, tl, a..z, parts, pseudo, est, g, |col, gj| {
                            combine(col, rest, gj)
                        });
                } else {
                    emptied += combine_per_lane(
                        keys,
                        vals,
                        cov,
                        tl,
                        a..z,
                        &ws,
                        pseudo,
                        est,
                        g,
                        |col, den, gj| combine(col, total_w - den, gj),
                    );
                }
            });
        });
        counter!("agg.robust_columns", len);
        counter!("agg.robust_columns_emptied", emptied);
        b.give();
    });
    Ok(())
}

/// [`combine_shared`] for columns whose participants differ: each lane
/// gathers its covering uploads from the coverage block `cov`, and
/// `finish(lane, den, g[j])` also gets the column's Σw over them (folded
/// in upload order, `+0.0` for a non-covering upload, as
/// `robust::weights_coord` folds it).
#[allow(clippy::too_many_arguments)]
fn combine_per_lane(
    keys: &mut KeyTile,
    vals: &[f32],
    cov: &[f32],
    tl: usize,
    cols: Range<usize>,
    ws: &[f32],
    pseudo: Option<usize>,
    est: robust::Estimator,
    g: &mut [f32],
    mut finish: impl FnMut((&KeyTile, usize), f32, f32) -> f32,
) -> usize {
    let mut emptied = 0;
    for j0 in cols.clone().step_by(LANES) {
        let lanes = LANES.min(cols.end - j0);
        keys.clear(ws.len() + 1);
        let mut dens = [0.0f32; LANES];
        for (i, &w) in ws.iter().enumerate() {
            for (l, den) in dens.iter_mut().enumerate().take(lanes) {
                let c = i * tl + j0 + l;
                let covered = cov[c] != 0.0;
                keys.push_if(l, order_key(vals[c], i), covered);
                *den += if covered { w } else { 0.0 };
            }
        }
        if let Some(p) = pseudo {
            for l in 0..lanes {
                keys.push_if(l, order_key(g[j0 + l], p), true);
            }
        }
        keys.sort();
        for (l, &den) in dens.iter().enumerate().take(lanes) {
            emptied += usize::from(trim_empties(est, keys.len(l)));
            g[j0 + l] = finish((keys, l), den, g[j0 + l]);
        }
    }
    emptied
}

/// Robust deltas combine, streaming engine.
pub(super) fn robust_deltas(
    global: &mut ParamSet,
    uploads: &[(f32, &Upload)],
    est: robust::Estimator,
    shard_elems: usize,
) -> Result<(), AggError> {
    let views = cohort_views(global, uploads.iter().map(|(_, u)| *u))?;
    let n = uploads.len();
    let ws: Vec<f32> = uploads.iter().map(|(w, _)| *w).collect();
    let needs = Needs {
        num: false,
        den: false,
        vals: false,
        kept: false,
        snap: false,
    };
    with_shards(global, shard_elems, needs, |t| {
        let len = t.g.len();
        let tile = robust_tile(n, len);
        let mut b = ColumnBlock::take(n, tile, false);
        let mut emptied = 0usize;
        b.parts.extend(0..n);
        for_each_tile(len, tile, |lo, tl| {
            for (i, view) in views.iter().enumerate() {
                view.payload
                    .decode_range(t.start + lo, &mut b.vals[i * tl..(i + 1) * tl]);
            }
            let g = &mut t.g[lo..lo + tl];
            emptied += combine_shared(
                &mut b.keys,
                &b.vals,
                tl,
                0..tl,
                &b.parts,
                None,
                est,
                g,
                |col, gj| gj + robust::delta_move(col, &ws, est),
            );
        });
        counter!("agg.robust_columns", len);
        counter!("agg.robust_columns_emptied", emptied);
        b.give();
    });
    Ok(())
}

/// Robust FedBuff merge, streaming engine: per column tile, every
/// buffered Δ column decodes through the exact mean-path expressions
/// ([`decode_weights_delta_shard`]), then the tile's columns combine
/// four at a time, every item participating.
pub(super) fn robust_staleness(
    global: &mut ParamSet,
    items: &[StalenessUpload<'_>],
    server_lr: f64,
    est: robust::Estimator,
    shard_elems: usize,
) -> Result<(), AggError> {
    let layout = FlatLayout::of(global);
    let views = cohort_views(global, items.iter().map(|it| it.upload))?;
    let kmetas: Vec<KeptMeta> = views
        .iter()
        .map(|v| KeptMeta::of(&v.masks, &layout))
        .collect();
    let n = items.len();
    let ws: Vec<f64> = items.iter().map(|it| it.weight).collect();
    let needs = Needs {
        num: false,
        den: false,
        vals: false,
        kept: false,
        snap: true,
    };
    with_shards(global, shard_elems, needs, |t| {
        let len = t.g.len();
        let tile = robust_tile(n, len);
        let mut b = ColumnBlock::take(n, tile, false);
        let mut emptied = 0usize;
        b.parts.extend(0..n);
        for_each_tile(len, tile, |lo, tl| {
            let (start, snap) = (t.start + lo, &mut t.snap[..tl]);
            for (i, (it, view)) in items.iter().zip(&views).enumerate() {
                let row = &mut b.vals[i * tl..(i + 1) * tl];
                match view.kind {
                    BodyKind::DeltaFull => view.payload.decode_range(start, row),
                    BodyKind::WeightsAbsolute | BodyKind::WeightsDelta => {
                        let snapshot = it.snapshot.expect("validated in mod.rs");
                        snapshot.copy_flat_range(start, snap);
                        decode_weights_delta_shard(
                            view,
                            &kmetas[i],
                            &layout,
                            start,
                            tl,
                            snap,
                            snap,
                            row,
                            &mut b.kept,
                        );
                    }
                }
            }
            let g = &mut t.g[lo..lo + tl];
            emptied += combine_shared(
                &mut b.keys,
                &b.vals,
                tl,
                0..tl,
                &b.parts,
                None,
                est,
                g,
                |col, gj| gj + robust::staleness_move(col, &ws, est, server_lr),
            );
        });
        counter!("agg.robust_columns", len);
        counter!("agg.robust_columns_emptied", emptied);
        b.give();
    });
    Ok(())
}
