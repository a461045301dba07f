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

use crate::params::ParamSet;
use serde::{Deserialize, Serialize};

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
        let mut n = 0usize;
        for (e, mask) in self.per_entry.iter().enumerate() {
            let m = params.mat(e);
            let has_bias = params.meta(e).has_bias;
            match mask {
                CoverageMask::Full => {
                    n += m.len() + if has_bias { m.rows() } else { 0 };
                }
                CoverageMask::Rows(rows) => {
                    let kept = rows.count_ones();
                    n += kept * (m.cols() + usize::from(has_bias));
                }
                CoverageMask::RowsCols { rows, cols } => {
                    let kr = rows.count_ones();
                    let kc = cols.count_ones();
                    n += kr * kc + if has_bias { kr } else { 0 };
                }
                CoverageMask::Elements(bits) => {
                    n += bits.count_ones() + if has_bias { m.rows() } else { 0 };
                }
            }
        }
        n
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
