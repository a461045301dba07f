//! Parameter container with a droppable row-unit registry.
//!
//! FedBIAD's dropping pattern β ∈ {0,1}^J indexes *rows of weight matrices*
//! (paper §III-A: "J is the number of rows in all weight matrices", with the
//! j-th row denoted w_j). [`ParamSet`] owns all weight matrices of a model
//! plus their biases and exposes that global row index space:
//!
//! * a row unit `j` maps to `(entry, row)` via [`ParamSet::row_unit`];
//! * dropping a row unit zeroes the matrix row **and its bundled bias
//!   element** (the bias of unit `j` belongs to unit `j`);
//! * every entry carries a [`LayerKind`] so baseline algorithms can restrict
//!   where they are allowed to drop (FedDrop/AFD: dense hidden only; FjORD /
//!   HeteroFL: width dims; FedBIAD: everything — paper §II & §V-A).

use fedbiad_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Semantic role of a weight matrix; decides which dropout baselines may act
/// on its rows and how "neuron dropout" couples consecutive layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerKind {
    /// Hidden fully-connected layer (rows = hidden units).
    DenseHidden,
    /// Output head (rows = classes / vocabulary words).
    DenseOutput,
    /// Embedding table (rows = vocabulary words).
    Embedding,
    /// LSTM input→gates matrix W_x (rows = 4·H gate pre-activations).
    LstmInput,
    /// LSTM hidden→gates matrix W_h — the *recurrent connections* that
    /// FedDrop/AFD cannot compress (paper §I) but FedBIAD can.
    LstmRecurrent,
}

/// Metadata for one weight matrix (one "entry") of a [`ParamSet`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EntryMeta {
    /// Human-readable name, e.g. `"w1"`, `"lstm0.wx"`.
    pub name: String,
    /// Semantic role.
    pub kind: LayerKind,
    /// Whether each row bundles a bias element.
    pub has_bias: bool,
    /// Whether rows of this matrix participate in the global row-unit space
    /// (β acts on them). All weight matrices of the paper's models are
    /// droppable; set `false` for auxiliary parameters.
    pub droppable: bool,
    /// Interleaved gate blocks per droppable *unit*. 1 for ordinary
    /// matrices (unit = matrix row). 4 for LSTM gate matrices: unit `u`
    /// owns rows `{u, H+u, 2H+u, 3H+u}` so that dropping it silences the
    /// whole activation — "zeroing weight rows is equivalent to dropout of
    /// the corresponding activations" (paper §III-C), the row analogue of
    /// the paper's filter-wise grouping for CNNs.
    pub gate_groups: usize,
}

impl EntryMeta {
    /// Convenience constructor with `gate_groups = 1`.
    pub fn new(name: impl Into<String>, kind: LayerKind, has_bias: bool, droppable: bool) -> Self {
        Self {
            name: name.into(),
            kind,
            has_bias,
            droppable,
            gate_groups: 1,
        }
    }
}

/// Architecture descriptor consumed by the Theorem-1 calculator
/// (`fedbiad-core::theory`): the paper characterises a model by `(S, L, D)`
/// plus the input dimension `d`.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ArchInfo {
    /// Total number of weights N (S equals `(1-p)·N` once a rate is fixed).
    pub total_weights: usize,
    /// Number of layers L.
    pub depth: usize,
    /// Hidden width D.
    pub width: usize,
    /// Input dimension d.
    pub input_dim: usize,
}

/// A model's full parameter state: weight matrices + biases + metadata +
/// the row-unit registry.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ParamSet {
    mats: Vec<Matrix>,
    /// Bias vectors; empty `Vec` when the entry has no bias.
    biases: Vec<Vec<f32>>,
    meta: Vec<EntryMeta>,
    /// Prefix sums: `row_offsets[i]` = global row index of entry i's row 0
    /// (only droppable entries contribute); last element = J.
    row_offsets: Vec<usize>,
}

impl ParamSet {
    /// Build an empty set; add entries with [`ParamSet::push_entry`].
    pub fn new() -> Self {
        Self {
            mats: Vec::new(),
            biases: Vec::new(),
            meta: Vec::new(),
            row_offsets: vec![0],
        }
    }

    /// Append a weight matrix (with optional bias) and return its entry
    /// index. Bias length must equal the row count when present; the row
    /// count must be divisible by `meta.gate_groups`.
    pub fn push_entry(&mut self, w: Matrix, bias: Option<Vec<f32>>, meta: EntryMeta) -> usize {
        let idx = self.mats.len();
        let rows = w.rows();
        assert!(meta.gate_groups >= 1, "gate_groups must be ≥ 1");
        assert_eq!(
            rows % meta.gate_groups,
            0,
            "rows must divide into gate groups"
        );
        if let Some(b) = &bias {
            assert_eq!(b.len(), rows, "bias length must equal rows");
            assert!(meta.has_bias, "bias provided but has_bias=false");
        } else {
            assert!(!meta.has_bias, "has_bias=true but no bias provided");
        }
        let units = rows / meta.gate_groups;
        let prev = *self.row_offsets.last().expect("offsets nonempty");
        self.row_offsets
            .push(prev + if meta.droppable { units } else { 0 });
        self.mats.push(w);
        self.biases.push(bias.unwrap_or_default());
        self.meta.push(meta);
        idx
    }

    /// Number of droppable units of entry `e`: `rows / gate_groups`.
    pub fn entry_units(&self, e: usize) -> usize {
        self.mats[e].rows() / self.meta[e].gate_groups
    }

    /// The matrix rows owned by unit `u` of entry `e`:
    /// `{g·stride + u | g < gate_groups}` with `stride = rows/gate_groups`.
    pub fn unit_rows(&self, e: usize, u: usize) -> impl Iterator<Item = usize> + '_ {
        let gg = self.meta[e].gate_groups;
        let stride = self.mats[e].rows() / gg;
        debug_assert!(u < stride);
        (0..gg).map(move |g| g * stride + u)
    }

    /// Number of entries (weight matrices).
    pub fn num_entries(&self) -> usize {
        self.mats.len()
    }

    /// Weight matrix of entry `i`.
    pub fn mat(&self, i: usize) -> &Matrix {
        &self.mats[i]
    }

    /// Mutable weight matrix of entry `i`.
    pub fn mat_mut(&mut self, i: usize) -> &mut Matrix {
        &mut self.mats[i]
    }

    /// Bias of entry `i` (empty slice when absent).
    pub fn bias(&self, i: usize) -> &[f32] {
        &self.biases[i]
    }

    /// Mutable bias of entry `i`.
    pub fn bias_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.biases[i]
    }

    /// Simultaneous mutable access to entry `i`'s matrix and bias.
    pub fn mat_bias_mut(&mut self, i: usize) -> (&mut Matrix, &mut [f32]) {
        let (m, b) = (&mut self.mats[i], &mut self.biases[i]);
        (m, b)
    }

    /// Simultaneous mutable access to two distinct entries' matrices and
    /// biases — the split borrow BPTT needs to accumulate `dW_x`/`db` and
    /// `dW_h` in one pass. Panics when `i == j`.
    #[allow(clippy::type_complexity)]
    pub fn entries_mut2(
        &mut self,
        i: usize,
        j: usize,
    ) -> ((&mut Matrix, &mut [f32]), (&mut Matrix, &mut [f32])) {
        assert_ne!(i, j, "entries must be distinct");
        let hi = i.max(j);
        let lo = i.min(j);
        let (m1, m2) = self.mats.split_at_mut(hi);
        let (b1, b2) = self.biases.split_at_mut(hi);
        let first = (&mut m1[lo], b1[lo].as_mut_slice());
        let second = (&mut m2[0], b2[0].as_mut_slice());
        if i < j {
            (first, second)
        } else {
            (second, first)
        }
    }

    /// Metadata of entry `i`.
    pub fn meta(&self, i: usize) -> &EntryMeta {
        &self.meta[i]
    }

    // ---- row-unit registry (the J-dimensional space β acts on) ----
    //
    // A "row unit" is one droppable activation's worth of weight rows:
    // a single matrix row for ordinary entries, the 4 interleaved gate
    // rows for LSTM entries (gate_groups = 4).

    /// Total number of droppable row units J.
    pub fn num_row_units(&self) -> usize {
        *self.row_offsets.last().expect("offsets nonempty")
    }

    /// Map a global row-unit index `j ∈ [0, J)` to `(entry, unit)`.
    pub fn row_unit(&self, j: usize) -> (usize, usize) {
        assert!(j < self.num_row_units(), "row unit {j} out of range");
        // Binary search over prefix sums; J is small (≤ tens of thousands)
        // but this is called per-row in aggregation, so keep it O(log E).
        let entry = match self.row_offsets.binary_search(&j) {
            Ok(mut e) => {
                // Exact hits can land on an empty (non-droppable) entry
                // boundary; advance to the entry that actually owns rows.
                while self.row_offsets[e + 1] == self.row_offsets[e] {
                    e += 1;
                }
                e
            }
            Err(e) => e - 1,
        };
        (entry, j - self.row_offsets[entry])
    }

    /// Global row-unit index of `(entry, unit)`; `None` when the entry is
    /// not droppable.
    pub fn row_unit_index(&self, entry: usize, unit: usize) -> Option<usize> {
        if !self.meta[entry].droppable {
            return None;
        }
        debug_assert!(unit < self.entry_units(entry));
        Some(self.row_offsets[entry] + unit)
    }

    /// Number of parameters carried by row unit `j`
    /// (gate_groups × (cols + bundled bias element)).
    pub fn row_unit_params(&self, j: usize) -> usize {
        let (e, _) = self.row_unit(j);
        self.meta[e].gate_groups * (self.mats[e].cols() + usize::from(self.meta[e].has_bias))
    }

    /// Zero row unit `j` (all its gate rows and bias elements) — the
    /// `β_j = 0` case of eq. (4).
    pub fn zero_row_unit(&mut self, j: usize) {
        self.scale_row_unit(j, 0.0);
    }

    /// Scale row unit `j`'s weights and bias by `f` — used for the
    /// spike-and-slab posterior mean E[β∘w] = keep-prob·µ at evaluation.
    pub fn scale_row_unit(&mut self, j: usize, f: f32) {
        let (e, u) = self.row_unit(j);
        let gate_groups = self.meta[e].gate_groups;
        let stride = self.entry_units(e);
        let has_bias = self.meta[e].has_bias;
        // The rows of `unit_rows(e, u)`, spelled out so nothing borrows
        // `self` across the mutation (this runs per dropped unit per SGD
        // step through `DropPattern::mask_grads`).
        for r in (0..gate_groups).map(|g| g * stride + u) {
            if f == 0.0 {
                self.mats[e].zero_row(r);
            } else {
                for v in self.mats[e].row_mut(r) {
                    *v *= f;
                }
            }
            if has_bias {
                self.biases[e][r] *= f;
            }
        }
    }

    // ---- whole-set arithmetic (aggregation / optimiser substrate) ----

    /// Total number of scalar parameters (weights + biases) — the paper's N.
    pub fn total_params(&self) -> usize {
        self.mats.iter().map(Matrix::len).sum::<usize>()
            + self.biases.iter().map(Vec::len).sum::<usize>()
    }

    /// Uncompressed wire size in bytes (4 B per parameter) — FedAvg's
    /// per-round upload.
    pub fn total_bytes(&self) -> u64 {
        self.total_params() as u64 * 4
    }

    /// Zero everything in place (gradient reset; reuses allocations).
    pub fn zero(&mut self) {
        for m in &mut self.mats {
            m.zero();
        }
        for b in &mut self.biases {
            b.fill(0.0);
        }
    }

    /// Clone the shapes/metadata with zeroed values (gradient buffer).
    pub fn zeros_like(&self) -> ParamSet {
        let mut out = self.clone();
        out.zero();
        out
    }

    /// `self += alpha * other`, entry-wise. Shapes must match.
    pub fn axpy(&mut self, alpha: f32, other: &ParamSet) {
        assert_eq!(self.mats.len(), other.mats.len(), "entry count mismatch");
        for (m, om) in self.mats.iter_mut().zip(&other.mats) {
            m.axpy_assign(alpha, om);
        }
        for (b, ob) in self.biases.iter_mut().zip(&other.biases) {
            fedbiad_tensor::ops::axpy(alpha, ob, b);
        }
    }

    /// Scale every parameter by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for m in &mut self.mats {
            m.scale(alpha);
        }
        for b in &mut self.biases {
            for v in b {
                *v *= alpha;
            }
        }
    }

    /// Global L2 norm over all parameters.
    pub fn l2_norm(&self) -> f32 {
        let mut s = 0.0f32;
        for m in &self.mats {
            s += fedbiad_tensor::ops::norm_sq(m.as_slice());
        }
        for b in &self.biases {
            s += fedbiad_tensor::ops::norm_sq(b);
        }
        s.sqrt()
    }

    /// Scale all parameters so the global norm is ≤ `max_norm`; returns the
    /// applied scale (0.0 when a non-finite gradient was dropped). Used
    /// for clipped-gradient-norm SGD (§V-A).
    ///
    /// Mirrors `fedbiad_tensor::ops::clip_norm`: a NaN/Inf norm fails
    /// every `>` comparison, so the old code silently skipped clipping
    /// and let the optimiser step on a poisoned gradient. Non-finite
    /// norms now zero the set (the step becomes a no-op).
    pub fn clip_global_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.l2_norm();
        if !norm.is_finite() {
            self.zero();
            return 0.0;
        }
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            self.scale(s);
            s
        } else {
            1.0
        }
    }

    /// Flatten all parameters into one `Vec<f32>` (matrices first in entry
    /// order, then that entry's bias). Used by sketched compressors.
    pub fn flatten(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.total_params());
        for (m, b) in self.mats.iter().zip(&self.biases) {
            out.extend_from_slice(m.as_slice());
            out.extend_from_slice(b);
        }
        out
    }

    /// Inverse of [`ParamSet::flatten`]; panics on length mismatch.
    pub fn unflatten_from(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.total_params(), "flat length mismatch");
        let mut off = 0;
        for (m, b) in self.mats.iter_mut().zip(&mut self.biases) {
            let n = m.len();
            m.as_mut_slice().copy_from_slice(&flat[off..off + n]);
            off += n;
            let bl = b.len();
            b.copy_from_slice(&flat[off..off + bl]);
            off += bl;
        }
    }

    /// Copy the flat slice `[start, start + out.len())` (in
    /// [`ParamSet::flatten`] order) into `out` without materialising the
    /// full flat vector — the sharded aggregation path reads snapshots
    /// one shard at a time through this.
    pub fn copy_flat_range(&self, start: usize, out: &mut [f32]) {
        assert!(
            start + out.len() <= self.total_params(),
            "flat range out of bounds"
        );
        let mut need = out;
        let mut pos = start; // position within the remaining flat space
        let mut off = 0usize; // flat offset of the current section
        for (m, b) in self.mats.iter().zip(&self.biases) {
            for section in [m.as_slice(), b.as_slice()] {
                if need.is_empty() {
                    return;
                }
                let sec_start = off;
                off += section.len();
                if pos >= off {
                    continue;
                }
                let local = pos - sec_start;
                let take = (section.len() - local).min(need.len());
                need[..take].copy_from_slice(&section[local..local + take]);
                need = &mut need[take..];
                pos += take;
            }
        }
        debug_assert!(need.is_empty());
    }

    /// Maximum |parameter| — the paper's Assumption 2 bound B.
    pub fn max_abs(&self) -> f32 {
        let mut m = 0.0f32;
        for mat in &self.mats {
            for &v in mat.as_slice() {
                m = m.max(v.abs());
            }
        }
        for b in &self.biases {
            for &v in b {
                m = m.max(v.abs());
            }
        }
        m
    }
}

impl Default for ParamSet {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> ParamSet {
        let mut p = ParamSet::new();
        p.push_entry(
            Matrix::full(3, 2, 1.0),
            Some(vec![0.5; 3]),
            EntryMeta::new("w1", LayerKind::DenseHidden, true, true),
        );
        p.push_entry(
            Matrix::full(4, 3, 2.0),
            None,
            EntryMeta::new("emb", LayerKind::Embedding, false, true),
        );
        p.push_entry(
            Matrix::full(2, 2, 3.0),
            None,
            EntryMeta::new("aux", LayerKind::DenseOutput, false, false),
        );
        p
    }

    #[test]
    fn row_unit_space_counts_only_droppable() {
        let p = sample_set();
        assert_eq!(p.num_row_units(), 3 + 4);
        assert_eq!(p.row_unit(0), (0, 0));
        assert_eq!(p.row_unit(2), (0, 2));
        assert_eq!(p.row_unit(3), (1, 0));
        assert_eq!(p.row_unit(6), (1, 3));
        assert_eq!(p.row_unit_index(0, 1), Some(1));
        assert_eq!(p.row_unit_index(1, 2), Some(5));
        assert_eq!(p.row_unit_index(2, 0), None);
    }

    #[test]
    fn zero_row_unit_zeros_weight_and_bias() {
        let mut p = sample_set();
        p.zero_row_unit(1);
        assert_eq!(p.mat(0).row(1), &[0.0, 0.0]);
        assert_eq!(p.bias(0)[1], 0.0);
        assert_eq!(p.bias(0)[0], 0.5);
        p.zero_row_unit(4); // embedding row 1, no bias
        assert_eq!(p.mat(1).row(1), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn row_unit_params_counts_bias() {
        let p = sample_set();
        assert_eq!(p.row_unit_params(0), 3); // 2 weights + bias
        assert_eq!(p.row_unit_params(3), 3); // embedding row: 3 weights
    }

    #[test]
    fn totals_and_flatten_round_trip() {
        let p = sample_set();
        assert_eq!(p.total_params(), 6 + 3 + 12 + 4);
        assert_eq!(p.total_bytes(), 25 * 4);
        let flat = p.flatten();
        assert_eq!(flat.len(), 25);
        let mut q = p.zeros_like();
        q.unflatten_from(&flat);
        assert_eq!(q.flatten(), flat);
    }

    #[test]
    fn copy_flat_range_matches_flatten_slices() {
        let p = sample_set();
        let flat = p.flatten();
        for start in 0..flat.len() {
            for len in [0, 1, 3, flat.len() - start] {
                if start + len > flat.len() {
                    continue;
                }
                let mut out = vec![f32::NAN; len];
                p.copy_flat_range(start, &mut out);
                assert_eq!(out, &flat[start..start + len], "start {start} len {len}");
            }
        }
    }

    #[test]
    fn axpy_scale_norm() {
        let mut p = sample_set();
        let q = p.clone();
        p.axpy(1.0, &q);
        assert_eq!(p.mat(0).get(0, 0), 2.0);
        assert_eq!(p.bias(0)[0], 1.0);
        p.scale(0.5);
        assert_eq!(p.mat(1).get(0, 0), 2.0);
        assert!(p.l2_norm() > 0.0);
    }

    #[test]
    fn clip_global_norm_bounds_norm() {
        let mut p = sample_set();
        let s = p.clip_global_norm(1.0);
        assert!(s < 1.0);
        assert!((p.l2_norm() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn clip_global_norm_drops_non_finite_gradients() {
        // Regression: NaN/Inf norms used to fall through the clip branch
        // and return 1.0, letting SGD apply a poisoned gradient.
        let mut p = sample_set();
        p.mat_mut(0).set(0, 0, f32::NAN);
        assert_eq!(p.clip_global_norm(1.0), 0.0);
        assert!(p.flatten().iter().all(|&v| v == 0.0));

        let mut p = sample_set();
        p.bias_mut(0)[1] = f32::INFINITY;
        assert_eq!(p.clip_global_norm(1.0), 0.0);
        assert!(p.flatten().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn max_abs_sees_biases() {
        let mut p = sample_set();
        p.bias_mut(0)[2] = -9.0;
        assert_eq!(p.max_abs(), 9.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_unit_oob_panics() {
        let p = sample_set();
        let _ = p.row_unit(7);
    }
}
