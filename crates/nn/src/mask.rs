//! Coverage masks: which parameters a client trained and uploads.
//!
//! Each federated-dropout method induces a different *shape* of coverage
//! over a weight matrix:
//!
//! * FedBIAD → [`CoverageMask::Rows`] (spike-and-slab row dropout, eq. (4));
//! * FedDrop / AFD neuron dropout → `Rows` on the unit's own matrix plus
//!   [`CoverageMask::RowsCols`] on the downstream matrix (dropping a neuron
//!   removes its outgoing columns too);
//! * FjORD / HeteroFL width shrinking → `RowsCols` (leading submatrix);
//! * FedMP magnitude pruning → [`CoverageMask::Elements`] (unstructured).
//!
//! The mask also owns the **exact uplink byte accounting** used by Table I:
//! 4 bytes per transmitted f32, 1 bit per dropping label for row patterns
//! (paper §V-B: "each dropping label is 1 bit"), 1 bit per element for
//! pruning bitmaps; biases travel with their bundled row.
//!
//! It also owns the **flat order** every reader of a mask agrees on
//! ([`ParamSet::flatten`]: entry by entry, the matrix row-major, then its
//! bias): which positions a mask keeps ([`walk_runs`]), how many values
//! each entry sends ([`CoverageMask::mat_kept`] /
//! [`CoverageMask::bias_kept`]) and at which rank of the kept-value
//! stream each one sits ([`KeptMeta`]). The wire encoder, the streaming
//! reducer and the sketch gather all read coverage through these.

use crate::params::ParamSet;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Compact bit vector.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// All bits set to `value`.
    pub fn new(len: usize, value: bool) -> Self {
        let nwords = len.div_ceil(64);
        let fill = if value { u64::MAX } else { 0 };
        let mut bv = Self {
            words: vec![fill; nwords],
            len,
        };
        bv.clear_tail();
        bv
    }

    fn clear_tail(&mut self) {
        let extra = self.words.len() * 64 - self.len;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit at `i`.
    #[inline(always)]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if v {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set bits strictly before `i` (rank query; `i` may equal
    /// `len`). The wire codec uses this to locate a covered element's
    /// position inside the kept-value stream.
    pub fn rank(&self, i: usize) -> usize {
        assert!(i <= self.len, "rank index out of range");
        let full = i / 64;
        let mut n: usize = self.words[..full]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        let rem = i % 64;
        if rem > 0 {
            n += (self.words[full] & ((1u64 << rem) - 1)).count_ones() as usize;
        }
        n
    }

    /// Export as a little-endian bitmap: byte `j` holds bits `8j..8j+8`,
    /// bit `i` at `bytes[i/8] >> (i%8)`. Exactly `⌈len/8⌉` bytes — the
    /// wire representation the paper's "1 bit per dropping label" accounting
    /// assumes.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let nbytes = self.len.div_ceil(8);
        let mut out = vec![0u8; nbytes];
        for (j, b) in out.iter_mut().enumerate() {
            let word = self.words[j / 8];
            *b = (word >> ((j % 8) * 8)) as u8;
        }
        // Mask the tail so padding bits are always zero on the wire.
        let extra = nbytes * 8 - self.len;
        if extra > 0 {
            if let Some(last) = out.last_mut() {
                *last &= 0xFF >> extra;
            }
        }
        out
    }

    /// Inverse of [`BitVec::to_le_bytes`] for a bitmap of `len` bits.
    /// Padding bits past `len` are ignored.
    pub fn from_le_bytes(bytes: &[u8], len: usize) -> Self {
        assert_eq!(bytes.len(), len.div_ceil(8), "bitmap length mismatch");
        let mut bv = Self::new(len, false);
        for (j, &b) in bytes.iter().enumerate() {
            bv.words[j / 8] |= (b as u64) << ((j % 8) * 8);
        }
        bv.clear_tail();
        bv
    }

    /// Indices of set bits, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| self.get(i))
    }

    /// Wire size when transmitted as a raw bitmap: ⌈len/8⌉ bytes.
    pub fn wire_bytes(&self) -> u64 {
        (self.len as u64).div_ceil(8)
    }
}

/// Coverage of one weight matrix entry. Bits are **kept** (= transmitted)
/// indicators.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum CoverageMask {
    /// Entire entry transmitted.
    Full,
    /// Row-granular: kept rows carry their weights and bundled bias.
    /// The bit-vector length equals the entry's row count.
    Rows(BitVec),
    /// Submatrix: kept rows × kept cols; bias follows rows.
    RowsCols { rows: BitVec, cols: BitVec },
    /// Element-granular over the weight matrix (row-major bit index
    /// `r*cols + c`); the bias, when present, is transmitted in full
    /// (it is negligible and unstructured pruning papers keep biases).
    Elements(BitVec),
}

impl CoverageMask {
    /// Is element `(r, c)` covered (trained & transmitted)?
    #[inline]
    pub fn covers(&self, r: usize, c: usize, cols: usize) -> bool {
        match self {
            CoverageMask::Full => true,
            CoverageMask::Rows(rows) => rows.get(r),
            CoverageMask::RowsCols { rows, cols: cm } => rows.get(r) && cm.get(c),
            CoverageMask::Elements(bits) => bits.get(r * cols + c),
        }
    }

    /// Is the bias element of row `r` covered?
    #[inline]
    pub fn covers_bias(&self, r: usize) -> bool {
        match self {
            CoverageMask::Full | CoverageMask::Elements(_) => true,
            CoverageMask::Rows(rows) => rows.get(r),
            CoverageMask::RowsCols { rows, .. } => rows.get(r),
        }
    }

    /// `Full` or `Rows`: coverage is constant along each row, bias
    /// included, so [`CoverageMask::covers_row`] answers for the row.
    #[inline]
    pub fn is_row_granular(&self) -> bool {
        matches!(self, CoverageMask::Full | CoverageMask::Rows(_))
    }

    /// Is row `r` (its weights and its bias) covered? Only for a
    /// row-granular mask ([`CoverageMask::is_row_granular`]); panics
    /// otherwise.
    #[inline]
    pub fn covers_row(&self, r: usize) -> bool {
        match self {
            CoverageMask::Full => true,
            CoverageMask::Rows(rows) => rows.get(r),
            _ => panic!("covers_row on a mask that is not row-granular"),
        }
    }

    /// Covered *matrix* scalars of a `rows × cols` entry: how many weight
    /// values the entry puts in the kept-value stream.
    #[inline]
    pub fn mat_kept(&self, rows: usize, cols: usize) -> usize {
        match self {
            CoverageMask::Full => rows * cols,
            CoverageMask::Rows(r) => r.count_ones() * cols,
            CoverageMask::RowsCols { rows: r, cols: c } => r.count_ones() * c.count_ones(),
            CoverageMask::Elements(b) => b.count_ones(),
        }
    }

    /// Covered *bias* scalars of an entry with `bias_len` bias elements
    /// (0 when it has none). They follow the entry's matrix values in the
    /// kept-value stream; `Elements` masks send them all.
    #[inline]
    pub fn bias_kept(&self, bias_len: usize) -> usize {
        if bias_len == 0 {
            return 0;
        }
        match self {
            CoverageMask::Full | CoverageMask::Elements(_) => bias_len,
            CoverageMask::Rows(r) | CoverageMask::RowsCols { rows: r, .. } => r.count_ones(),
        }
    }

    /// Covered scalars of entry `e` of `params`, weights and biases: the
    /// number of kept values the entry contributes to an upload.
    pub fn entry_kept(&self, params: &ParamSet, e: usize) -> usize {
        let m = params.mat(e);
        self.mat_kept(m.rows(), m.cols()) + self.bias_kept(params.bias(e).len())
    }
}

/// Per-entry coverage for a whole model, aligned with [`ParamSet`] entries.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelMask {
    /// One mask per `ParamSet` entry.
    pub per_entry: Vec<CoverageMask>,
}

impl ModelMask {
    /// Full coverage of every entry (FedAvg).
    pub fn full(params: &ParamSet) -> Self {
        Self {
            per_entry: vec![CoverageMask::Full; params.num_entries()],
        }
    }

    /// Build from a global row-unit pattern β (length J, bit = kept):
    /// droppable entries get `Rows` masks (each unit bit expanded to its
    /// gate rows), non-droppable stay `Full`. This is FedBIAD's
    /// β → coverage translation.
    pub fn from_row_pattern(params: &ParamSet, beta: &BitVec) -> Self {
        assert_eq!(beta.len(), params.num_row_units(), "β length must be J");
        let mut per_entry = Vec::with_capacity(params.num_entries());
        for e in 0..params.num_entries() {
            if !params.meta(e).droppable {
                per_entry.push(CoverageMask::Full);
                continue;
            }
            let rows = params.mat(e).rows();
            let mut bv = BitVec::new(rows, false);
            for u in 0..params.entry_units(e) {
                let j = params.row_unit_index(e, u).expect("droppable");
                if beta.get(j) {
                    for r in params.unit_rows(e, u) {
                        bv.set(r, true);
                    }
                }
            }
            per_entry.push(CoverageMask::Rows(bv));
        }
        Self { per_entry }
    }

    /// Zero all *non-covered* parameters in place — turning U into β∘U
    /// (eq. (6)).
    // Index loops are deliberate: the bias vector is empty when the entry
    // has no bias, so iterating it instead of `0..rows` would skip the
    // matrix-row zeroing entirely.
    #[allow(clippy::needless_range_loop)]
    pub fn apply(&self, params: &mut ParamSet) {
        assert_eq!(self.per_entry.len(), params.num_entries());
        for (e, mask) in self.per_entry.iter().enumerate() {
            match mask {
                CoverageMask::Full => {}
                CoverageMask::Rows(rows) => {
                    let has_bias = params.meta(e).has_bias;
                    let (m, b) = params.mat_bias_mut(e);
                    for r in 0..m.rows() {
                        if !rows.get(r) {
                            m.zero_row(r);
                            if has_bias {
                                b[r] = 0.0;
                            }
                        }
                    }
                }
                CoverageMask::RowsCols { rows, cols } => {
                    let has_bias = params.meta(e).has_bias;
                    let (m, b) = params.mat_bias_mut(e);
                    for r in 0..m.rows() {
                        if !rows.get(r) {
                            m.zero_row(r);
                            if has_bias {
                                b[r] = 0.0;
                            }
                        } else {
                            let row = m.row_mut(r);
                            for (c, v) in row.iter_mut().enumerate() {
                                if !cols.get(c) {
                                    *v = 0.0;
                                }
                            }
                        }
                    }
                }
                CoverageMask::Elements(bits) => {
                    let m = params.mat_mut(e);
                    let cols = m.cols();
                    let buf = m.as_mut_slice();
                    for (i, v) in buf.iter_mut().enumerate() {
                        let _ = cols; // element index == flat index
                        if !bits.get(i) {
                            *v = 0.0;
                        }
                    }
                }
            }
        }
    }

    /// Number of transmitted scalars (weights + covered biases).
    pub fn kept_params(&self, params: &ParamSet) -> usize {
        let entries = self.per_entry.iter().enumerate();
        entries.map(|(e, mask)| mask.entry_kept(params, e)).sum()
    }

    /// Exact uplink bytes: 4 B per transmitted scalar + pattern overhead
    /// (1 bit per row label for `Rows`/`RowsCols`, 1 bit per element for
    /// `Elements`; `Full` has no overhead).
    pub fn wire_bytes(&self, params: &ParamSet) -> u64 {
        let mut bytes = self.kept_params(params) as u64 * 4;
        for mask in &self.per_entry {
            bytes += match mask {
                CoverageMask::Full => 0,
                CoverageMask::Rows(rows) => rows.wire_bytes(),
                CoverageMask::RowsCols { rows, cols } => rows.wire_bytes() + cols.wire_bytes(),
                CoverageMask::Elements(bits) => bits.wire_bytes(),
            };
        }
        bytes
    }
}

/// The rows of each weight matrix a row-structured mask kept, as the
/// batched engine takes them ([`crate::Model::loss_grad_kept`]): per
/// entry either `None` — every row — or the ascending kept row indices.
///
/// Whoever hands one to the engine beside a parameter set θ promises
/// that **every other row of that entry's matrix is all `+0.0`** in θ
/// ([`KeptRows::dropped_rows_are_zero`]); that is what lets the engine
/// leave those rows out and still produce the dense pass's bits.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeptRows {
    per_entry: Vec<Option<Vec<u32>>>,
}

impl KeptRows {
    /// Entry `e`'s view: `None` for every row, else the kept rows.
    pub fn entry(&self, e: usize) -> Option<&[u32]> {
        self.per_entry[e].as_deref()
    }

    /// Does `theta` keep the promise this view is handed out under?
    pub fn dropped_rows_are_zero(&self, theta: &ParamSet) -> bool {
        self.per_entry.iter().enumerate().all(|(e, view)| {
            view.as_deref().is_none_or(|kept| {
                let m = theta.mat(e);
                (0..m.rows())
                    .filter(|&r| kept.binary_search(&(r as u32)).is_err())
                    .all(|r| m.row(r).iter().all(|v| v.to_bits() == 0))
            })
        })
    }
}

impl ModelMask {
    /// The kept-row view of this mask, built once per mask: the set bits
    /// of a `Rows` / `RowsCols` row vector that drops something, `None`
    /// for entries that keep every row (`Full`, `Elements`, a `RowsCols`
    /// that only drops columns).
    pub fn kept_rows(&self) -> KeptRows {
        let rows_of = |mask: &CoverageMask| match mask {
            CoverageMask::Rows(rows) | CoverageMask::RowsCols { rows, .. }
                if rows.count_ones() < rows.len() =>
            {
                Some(rows.ones().map(|r| r as u32).collect())
            }
            _ => None,
        };
        KeptRows {
            per_entry: self.per_entry.iter().map(rows_of).collect(),
        }
    }
}

// ---- flat order --------------------------------------------------------

/// Flat span of one entry in [`ParamSet::flatten`] order.
#[derive(Clone, Copy, Debug)]
struct Span {
    mat_start: usize,
    rows: usize,
    cols: usize,
    bias_start: usize,
    bias_len: usize,
}

impl Span {
    #[inline]
    fn end(&self) -> usize {
        self.bias_start + self.bias_len
    }
}

/// Where each entry of a [`ParamSet`] sits in [`ParamSet::flatten`]
/// order: its matrix row-major, then its bias.
#[derive(Clone, Debug)]
pub struct FlatLayout {
    spans: Vec<Span>,
    total: usize,
}

impl FlatLayout {
    /// The layout of `p`'s shapes.
    pub fn of(p: &ParamSet) -> FlatLayout {
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

    /// Total flat length (= [`ParamSet::total_params`]).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Flat positions of entry `e`: its matrix, then its bias.
    pub fn entry_range(&self, e: usize) -> Range<usize> {
        self.spans[e].mat_start..self.spans[e].end()
    }

    /// Entry containing flat position `pos`.
    #[inline]
    fn entry_of(&self, pos: usize) -> usize {
        debug_assert!(pos < self.total);
        self.spans.partition_point(|s| s.end() <= pos)
    }

    /// The entries that overlap `[start, start + len)`, with their indices.
    #[inline]
    fn spans_in(&self, start: usize, len: usize) -> impl Iterator<Item = (usize, &Span)> {
        let first = if len == 0 {
            self.spans.len()
        } else {
            self.entry_of(start)
        };
        let end = start + len;
        self.spans
            .iter()
            .enumerate()
            .skip(first)
            .take_while(move |(_, s)| s.mat_start < end)
    }

    /// Call `f(lo, hi, is_bias)` for every maximal matrix / bias section
    /// of `[start, start + len)`; `lo..hi` are range-local offsets.
    pub fn for_each_section(
        &self,
        start: usize,
        len: usize,
        f: &mut impl FnMut(usize, usize, bool),
    ) {
        let end = start + len;
        for (_, span) in self.spans_in(start, len) {
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

    /// Call `f(lo, hi, e, r)` for every maximal extent of `[start, start +
    /// len)` that lies within one row `r` of entry `e`: matrix rows clipped
    /// to the range, then each bias element (bias element `i` belongs to
    /// row `i`). `lo..hi` are range-local offsets.
    pub fn for_each_row_extent(
        &self,
        start: usize,
        len: usize,
        f: &mut impl FnMut(usize, usize, usize, usize),
    ) {
        let end = start + len;
        for (e, span) in self.spans_in(start, len) {
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
}

/// Where each entry's covered values sit in one upload's kept-value
/// stream (cumulative counts, in flat order), for the masks `masks` (one
/// per entry of a [`FlatLayout`]).
#[derive(Clone, Debug)]
pub struct KeptMeta {
    /// `prefix[e]` = covered scalars before entry `e`; last = total.
    prefix: Vec<usize>,
    /// Covered *matrix* scalars of entry `e` (biases follow them).
    mat_kept: Vec<usize>,
}

impl KeptMeta {
    /// The kept counts of `masks` laid out by `layout`.
    pub fn of(masks: &[CoverageMask], layout: &FlatLayout) -> KeptMeta {
        let mut prefix = Vec::with_capacity(masks.len() + 1);
        let mut mat_kept = Vec::with_capacity(masks.len());
        let mut acc = 0usize;
        prefix.push(0);
        for (mask, span) in masks.iter().zip(&layout.spans) {
            let mk = mask.mat_kept(span.rows, span.cols);
            acc += mk + mask.bias_kept(span.bias_len);
            mat_kept.push(mk);
            prefix.push(acc);
        }
        KeptMeta { prefix, mat_kept }
    }

    /// Covered scalars in total: the length of the kept-value stream.
    pub fn total(&self) -> usize {
        *self.prefix.last().expect("non-empty prefix")
    }

    /// Kept-rank of flat position `pos` (number of covered scalars before
    /// it); `pos == layout.total()` returns the total covered count.
    pub fn rank_at(&self, pos: usize, masks: &[CoverageMask], layout: &FlatLayout) -> usize {
        if pos >= layout.total {
            return self.total();
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

/// One coverage run of a [`walk_runs`] walk.
#[derive(Clone, Copy, Debug)]
pub enum Run {
    /// `n` covered elements at range-local offset `local`; their kept
    /// values are `ki..ki + n` of the walk's kept values (ranks counted
    /// from the range start).
    Covered {
        /// Range-local offset of the first element.
        local: usize,
        /// Kept-value index of the first element, relative to the range.
        ki: usize,
        /// Run length.
        n: usize,
    },
    /// `n` dropped elements at range-local offset `local`.
    Dropped {
        /// Range-local offset of the first element.
        local: usize,
        /// Run length.
        n: usize,
    },
}

/// Walk the coverage of `masks` (one per entry of `layout`) over the flat
/// range `[start, start + len)` as runs of covered and dropped elements,
/// in flat order — the order of an upload's kept-value stream. A `Full`
/// matrix, each row of a `Rows` mask, each dropped row of a `RowsCols`
/// mask and a `Full` or `Elements` bias are one run each (clipped to the
/// range), so readers move them with slice loops; `RowsCols` columns and
/// `Elements` matrices are walked element by element.
///
/// The kept-value index `ki` of each covered run is tracked
/// **incrementally** — one counter, no rank query: a reader that needs
/// an absolute payload position adds the range start's
/// [`KeptMeta::rank_at`] once.
pub fn walk_runs(
    masks: &[CoverageMask],
    layout: &FlatLayout,
    start: usize,
    len: usize,
    mut f: impl FnMut(Run),
) {
    let end = start + len;
    // Covered elements seen since `start` — the incremental rank.
    let mut ki = 0usize;
    let mut emit = |covered: bool, o: usize, n: usize| {
        let local = o - start;
        if covered {
            f(Run::Covered { local, ki, n });
            ki += n;
        } else {
            f(Run::Dropped { local, n });
        }
    };
    for (e, span) in layout.spans_in(start, len) {
        let mask = &masks[e];
        // Matrix section.
        let m0 = span.mat_start.max(start);
        let m1 = span.bias_start.min(end);
        if m0 < m1 {
            // End of the row holding flat position `o`, clipped.
            let row_end = |o: usize| {
                let r = (o - span.mat_start) / span.cols;
                (r, (span.mat_start + (r + 1) * span.cols).min(m1))
            };
            match mask {
                CoverageMask::Full => emit(true, m0, m1 - m0),
                CoverageMask::Rows(rb) => {
                    let mut o = m0;
                    while o < m1 {
                        let (r, re) = row_end(o);
                        emit(rb.get(r), o, re - o);
                        o = re;
                    }
                }
                CoverageMask::RowsCols { rows: rb, cols: cb } => {
                    let mut o = m0;
                    while o < m1 {
                        let (r, re) = row_end(o);
                        if rb.get(r) {
                            for oo in o..re {
                                emit(cb.get((oo - span.mat_start) % span.cols), oo, 1);
                            }
                        } else {
                            emit(false, o, re - o);
                        }
                        o = re;
                    }
                }
                CoverageMask::Elements(bits) => {
                    for o in m0..m1 {
                        emit(bits.get(o - span.mat_start), o, 1);
                    }
                }
            }
        }
        // Bias section.
        let b0 = span.bias_start.max(start);
        let b1 = span.end().min(end);
        if b0 < b1 {
            match mask {
                CoverageMask::Full | CoverageMask::Elements(_) => emit(true, b0, b1 - b0),
                CoverageMask::Rows(rb) | CoverageMask::RowsCols { rows: rb, .. } => {
                    for o in b0..b1 {
                        emit(rb.get(o - span.bias_start), o, 1);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{EntryMeta, LayerKind};
    use fedbiad_tensor::Matrix;

    fn two_entry_params() -> ParamSet {
        let mut p = ParamSet::new();
        p.push_entry(
            Matrix::full(4, 3, 1.0),
            Some(vec![1.0; 4]),
            EntryMeta::new("w1", LayerKind::DenseHidden, true, true),
        );
        p.push_entry(
            Matrix::full(2, 4, 1.0),
            Some(vec![1.0; 2]),
            EntryMeta::new("w2", LayerKind::DenseOutput, true, true),
        );
        p
    }

    #[test]
    fn bitvec_basics() {
        let mut bv = BitVec::new(70, false);
        assert_eq!(bv.count_ones(), 0);
        bv.set(0, true);
        bv.set(69, true);
        assert!(bv.get(0) && bv.get(69) && !bv.get(35));
        assert_eq!(bv.count_ones(), 2);
        assert_eq!(bv.ones().collect::<Vec<_>>(), vec![0, 69]);
        assert_eq!(bv.wire_bytes(), 9);
        let all = BitVec::new(70, true);
        assert_eq!(all.count_ones(), 70);
    }

    #[test]
    fn rank_counts_strictly_before() {
        let mut bv = BitVec::new(130, false);
        for i in [0, 3, 63, 64, 127, 129] {
            bv.set(i, true);
        }
        assert_eq!(bv.rank(0), 0);
        assert_eq!(bv.rank(1), 1);
        assert_eq!(bv.rank(64), 3);
        assert_eq!(bv.rank(65), 4);
        assert_eq!(bv.rank(130), 6);
        for i in 0..=bv.len() {
            let naive = (0..i).filter(|&j| bv.get(j)).count();
            assert_eq!(bv.rank(i), naive, "rank({i})");
        }
    }

    #[test]
    fn le_bytes_round_trip_and_tail_padding() {
        let mut bv = BitVec::new(13, false);
        for i in [0, 5, 8, 12] {
            bv.set(i, true);
        }
        let bytes = bv.to_le_bytes();
        assert_eq!(bytes.len(), 2);
        assert_eq!(bytes[0], 0b0010_0001);
        assert_eq!(bytes[1], 0b0001_0001);
        assert_eq!(BitVec::from_le_bytes(&bytes, 13), bv);
        // Padding bits in the source are ignored on decode.
        let dirty = [bytes[0], bytes[1] | 0b1110_0000];
        assert_eq!(BitVec::from_le_bytes(&dirty, 13), bv);
        // A 70-bit vector crosses the word boundary.
        let all = BitVec::new(70, true);
        assert_eq!(BitVec::from_le_bytes(&all.to_le_bytes(), 70), all);
    }

    #[test]
    fn from_row_pattern_splits_beta_per_entry() {
        let p = two_entry_params();
        assert_eq!(p.num_row_units(), 6);
        let mut beta = BitVec::new(6, true);
        beta.set(1, false); // w1 row 1
        beta.set(4, false); // w2 row 0
        let mask = ModelMask::from_row_pattern(&p, &beta);
        match &mask.per_entry[0] {
            CoverageMask::Rows(r) => {
                assert!(r.get(0) && !r.get(1) && r.get(2) && r.get(3))
            }
            other => panic!("want Rows, got {other:?}"),
        }
        match &mask.per_entry[1] {
            CoverageMask::Rows(r) => assert!(!r.get(0) && r.get(1)),
            other => panic!("want Rows, got {other:?}"),
        }
    }

    #[test]
    fn apply_zeroes_dropped_rows_and_biases() {
        let p0 = two_entry_params();
        let mut beta = BitVec::new(6, true);
        beta.set(2, false);
        let mask = ModelMask::from_row_pattern(&p0, &beta);
        let mut p = p0.clone();
        mask.apply(&mut p);
        assert_eq!(p.mat(0).row(2), &[0.0, 0.0, 0.0]);
        assert_eq!(p.bias(0)[2], 0.0);
        assert_eq!(p.mat(0).row(0), &[1.0, 1.0, 1.0]);
        assert_eq!(p.mat(1).row(0), &[1.0; 4]);
    }

    #[test]
    fn kept_params_and_wire_bytes_row_mask() {
        let p = two_entry_params();
        // Drop one row of w1 (3 weights + 1 bias).
        let mut beta = BitVec::new(6, true);
        beta.set(0, false);
        let mask = ModelMask::from_row_pattern(&p, &beta);
        let total = p.total_params();
        assert_eq!(mask.kept_params(&p), total - 4);
        // bytes = kept*4 + ceil(4/8) + ceil(2/8)
        assert_eq!(mask.wire_bytes(&p), (total as u64 - 4) * 4 + 1 + 1);
    }

    #[test]
    fn full_mask_matches_paramset_bytes() {
        let p = two_entry_params();
        let mask = ModelMask::full(&p);
        assert_eq!(mask.wire_bytes(&p), p.total_bytes());
    }

    #[test]
    fn rows_cols_submatrix_accounting() {
        let p = two_entry_params();
        let mut rows = BitVec::new(4, true);
        rows.set(3, false);
        let mut cols = BitVec::new(3, true);
        cols.set(0, false);
        let mask = ModelMask {
            per_entry: vec![CoverageMask::RowsCols { rows, cols }, CoverageMask::Full],
        };
        // entry0: 3 rows × 2 cols + 3 biases = 9; entry1 full = 8+2.
        assert_eq!(mask.kept_params(&p), 9 + 10);
        let mut q = p.clone();
        mask.apply(&mut q);
        assert_eq!(q.mat(0).get(0, 0), 0.0);
        assert_eq!(q.mat(0).get(0, 1), 1.0);
        assert_eq!(q.mat(0).row(3), &[0.0, 0.0, 0.0]);
        assert_eq!(q.bias(0)[3], 0.0);
    }

    #[test]
    fn elements_mask_keeps_bias_full() {
        let p = two_entry_params();
        let mut bits = BitVec::new(12, false);
        bits.set(5, true);
        let mask = ModelMask {
            per_entry: vec![CoverageMask::Elements(bits), CoverageMask::Full],
        };
        // entry0: 1 weight + 4 biases; entry1: 10.
        assert_eq!(mask.kept_params(&p), 5 + 10);
        let mut q = p.clone();
        mask.apply(&mut q);
        assert_eq!(q.mat(0).get(1, 2), 1.0); // flat index 5 kept
        assert_eq!(q.mat(0).get(0, 0), 0.0);
        assert_eq!(q.bias(0), &[1.0; 4]); // bias untouched
    }

    #[test]
    fn kept_rows_lists_the_set_row_bits_of_masks_that_drop_rows() {
        let p = two_entry_params();
        let mut rows = BitVec::new(4, true);
        rows.set(1, false);
        let mut cols = BitVec::new(4, true);
        cols.set(0, false);
        let mask = ModelMask {
            per_entry: vec![
                CoverageMask::Rows(rows),
                CoverageMask::RowsCols {
                    rows: BitVec::new(2, true),
                    cols,
                },
            ],
        };
        let view = mask.kept_rows();
        assert_eq!(view.entry(0), Some(&[0u32, 2, 3][..]));
        assert_eq!(view.entry(1), None, "only columns dropped");
        assert_eq!(ModelMask::full(&p).kept_rows().entry(0), None);

        assert!(!view.dropped_rows_are_zero(&p));
        let mut q = p.clone();
        mask.apply(&mut q);
        assert!(view.dropped_rows_are_zero(&q));
        q.mat_mut(0).set(1, 2, -0.0);
        assert!(!view.dropped_rows_are_zero(&q), "−0.0 is not +0.0");
    }

    #[test]
    fn covers_agrees_with_apply() {
        let p = two_entry_params();
        let mut beta = BitVec::new(6, true);
        beta.set(1, false);
        beta.set(5, false);
        let mask = ModelMask::from_row_pattern(&p, &beta);
        let mut q = p.clone();
        mask.apply(&mut q);
        for e in 0..p.num_entries() {
            let m = q.mat(e);
            for r in 0..m.rows() {
                for c in 0..m.cols() {
                    let covered = mask.per_entry[e].covers(r, c, m.cols());
                    assert_eq!(m.get(r, c) != 0.0, covered, "entry {e} ({r},{c})");
                }
            }
        }
    }
}
