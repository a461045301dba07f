//! Row-major dense `f32` matrix.
//!
//! [`Matrix`] is the single parameter container used throughout the
//! reproduction: model weights, gradients and server-side aggregates are all
//! `Matrix` values. Row orientation matters here — FedBIAD's dropping
//! pattern β acts on *rows* of weight matrices (paper §III-C), so the row
//! accessors ([`Matrix::row`], [`Matrix::row_mut`]) are the primitives the
//! algorithm layer builds on.

use serde::{Deserialize, Serialize};

/// Dense row-major matrix of `f32`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Create a zero-filled `rows × cols` matrix.
    ///
    /// `vec![0.0; n]` is the fastest way to obtain zeroed storage (the
    /// allocator can hand back pre-zeroed pages).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build a matrix from an existing buffer. Panics if the buffer length
    /// does not equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must be rows*cols");
        Self { rows, cols, data }
    }

    /// Build from a row-major nested slice; handy in tests.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix holds no elements.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing buffer (row-major).
    #[inline(always)]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer (row-major).
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor. Debug-asserted bounds; hot code should prefer
    /// [`Matrix::row`] + slice iteration.
    #[inline(always)]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline(always)]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable row slice.
    #[inline(always)]
    pub fn row(&self, r: usize) -> &[f32] {
        let c = self.cols;
        &self.data[r * c..(r + 1) * c]
    }

    /// Mutable row slice.
    #[inline(always)]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let c = self.cols;
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Two disjoint mutable rows (used by in-place row swaps/updates).
    /// Panics if `a == b`.
    pub fn rows_mut2(&mut self, a: usize, b: usize) -> (&mut [f32], &mut [f32]) {
        assert_ne!(a, b, "rows must be distinct");
        let c = self.cols;
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (first, second) = self.data.split_at_mut(hi * c);
        let lo_row = &mut first[lo * c..(lo + 1) * c];
        let hi_row = &mut second[..c];
        if a < b {
            (lo_row, hi_row)
        } else {
            (hi_row, lo_row)
        }
    }

    /// Fill every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Zero the matrix in place (gradient reset between iterations —
    /// reuses the allocation, per the "reusing collections" guidance).
    pub fn zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Zero a single row in place (row dropout).
    #[inline]
    pub fn zero_row(&mut self, r: usize) {
        self.row_mut(r).fill(0.0);
    }

    /// `self += other` element-wise. Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += alpha * other` element-wise (AXPY on the whole buffer).
    pub fn axpy_assign(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        crate::ops::axpy(alpha, &other.data, &mut self.data);
    }

    /// Scale every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            let src = self.row(r);
            for (c, &v) in src.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Consume into the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_shape_and_zero_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_round_trips_elements() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn transpose_is_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn add_and_axpy() {
        let mut a = Matrix::full(2, 2, 1.0);
        let b = Matrix::full(2, 2, 2.0);
        a.add_assign(&b);
        assert_eq!(a.get(0, 0), 3.0);
        a.axpy_assign(0.5, &b);
        assert_eq!(a.get(1, 1), 4.0);
    }

    #[test]
    fn zero_row_clears_only_that_row() {
        let mut m = Matrix::full(3, 2, 7.0);
        m.zero_row(1);
        assert_eq!(m.row(0), &[7.0, 7.0]);
        assert_eq!(m.row(1), &[0.0, 0.0]);
        assert_eq!(m.row(2), &[7.0, 7.0]);
    }

    #[test]
    fn rows_mut2_returns_disjoint_rows_in_order() {
        let mut m = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        {
            let (a, b) = m.rows_mut2(2, 0);
            a[0] = 30.0;
            b[0] = 10.0;
        }
        assert_eq!(m.row(0), &[10.0]);
        assert_eq!(m.row(2), &[30.0]);
    }

    #[test]
    fn frobenius_norm_matches_hand_value() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }
}
