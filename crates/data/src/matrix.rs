//! Dense row-major `f64` matrix.
//!
//! A deliberately small surface: the learners in this workspace only need
//! row access, row gathering, column statistics and squared-distance
//! kernels. Row-major layout keeps per-sample access (the dominant pattern
//! in tree building, k-NN and SGD) contiguous in cache.

use std::fmt;

/// Dense row-major matrix of `f64`.
///
/// Invariant: `data.len() == rows * cols`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl Matrix {
    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { data, rows, cols }
    }

    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Creates an empty matrix with `cols` columns and no rows, reserving
    /// room for `capacity_rows` rows.
    pub fn with_capacity(capacity_rows: usize, cols: usize) -> Self {
        Self {
            data: Vec::with_capacity(capacity_rows * cols),
            rows: 0,
            cols,
        }
    }

    /// Removes every row, keeping the allocation and column count —
    /// chunked sources recycle one matrix across a whole stream.
    pub fn clear_rows(&mut self) {
        self.rows = 0;
        self.data.clear();
    }

    /// Builds a matrix from row slices. All rows must share a length.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows passed to Matrix::from_rows");
            data.extend_from_slice(r);
        }
        Self {
            data,
            rows: rows.len(),
            cols,
        }
    }

    /// Number of rows (samples).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when the matrix holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Borrow of the `i`-th row.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows, "row {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of the `i`-th row.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows, "row {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Single element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Single element write.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Flat row-major view of the whole buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable row-major view of the whole buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if `row.len() != cols`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "push_row width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Appends `rows` rows held in `bytes` as little-endian `f64`s, row
    /// after row — one bulk pass for a whole block of rows.
    ///
    /// # Panics
    /// Panics if `bytes` does not hold exactly `rows` rows.
    pub(crate) fn extend_from_le_bytes(&mut self, rows: usize, bytes: &[u8]) {
        assert_eq!(bytes.len(), rows * self.cols * 8, "whole rows of f64s");
        self.data.extend(
            bytes
                .chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().unwrap())),
        );
        self.rows += rows;
    }

    /// Copies the contiguous row range `range` into a new matrix.
    ///
    /// Row-major layout makes this a single memcpy; parallel predictors
    /// use it to hand each worker a chunk of rows.
    ///
    /// # Panics
    /// Panics if `range.end > rows` or `range.start > range.end`.
    pub fn row_range(&self, range: std::ops::Range<usize>) -> Matrix {
        assert!(
            range.start <= range.end && range.end <= self.rows,
            "row range {range:?} out of bounds ({} rows)",
            self.rows
        );
        let n = range.len();
        Matrix {
            data: self.data[range.start * self.cols..range.end * self.cols].to_vec(),
            rows: n,
            cols: self.cols,
        }
    }

    /// Gathers the given row indices into a new matrix (rows may repeat).
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::with_capacity(indices.len(), self.cols);
        for &i in indices {
            out.push_row(self.row(i));
        }
        out
    }

    /// Vertically stacks `self` on top of `other`.
    ///
    /// # Panics
    /// Panics on column-count mismatch (unless one side is empty with 0 cols).
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        if self.is_empty() && self.cols == 0 {
            return other.clone();
        }
        if other.is_empty() && other.cols == 0 {
            return self.clone();
        }
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix {
            data,
            rows: self.rows + other.rows,
            cols: self.cols,
        }
    }

    /// Copies column `j` into a fresh vector.
    pub fn column(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Iterator over row slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// Borrowed view of the whole matrix (no copy).
    #[inline]
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView {
            data: &self.data,
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Borrowed view of the contiguous row range `range` — the zero-copy
    /// sibling of [`Matrix::row_range`] for prediction hot paths that
    /// only need to *read* a chunk of rows.
    ///
    /// # Panics
    /// Panics if `range.end > rows` or `range.start > range.end`.
    #[inline]
    pub fn view_rows(&self, range: std::ops::Range<usize>) -> MatrixView<'_> {
        assert!(
            range.start <= range.end && range.end <= self.rows,
            "row range {range:?} out of bounds ({} rows)",
            self.rows
        );
        MatrixView {
            data: &self.data[range.start * self.cols..range.end * self.cols],
            rows: range.len(),
            cols: self.cols,
        }
    }
}

/// Borrowed, read-only, row-major view into a [`Matrix`].
///
/// Mirrors the read API of `Matrix` (`rows`/`cols`/`row`/`get`) without
/// owning the buffer, so batch predictors can hand workers row chunks
/// without the per-chunk allocation `row_range` pays.
#[derive(Clone, Copy, Debug)]
pub struct MatrixView<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
}

impl<'a> MatrixView<'a> {
    /// Wraps a borrowed row-major buffer as a view without copying.
    ///
    /// The serving batch loop uses this to score rows gathered into a
    /// reusable buffer without building an owned [`Matrix`] per batch.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    #[inline]
    pub fn from_slice(data: &'a [f64], rows: usize, cols: usize) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { data, rows, cols }
    }

    /// Number of rows in the view.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when the view holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Borrow of the `i`-th row of the view.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        debug_assert!(i < self.rows, "row {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Single element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Flat row-major slice backing the view.
    #[inline]
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }

    /// Iterator over row slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &'a [f64]> {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// Sub-view of the contiguous row range `range` (no copy).
    ///
    /// # Panics
    /// Panics if `range.end > rows` or `range.start > range.end`.
    #[inline]
    pub fn rows_range(&self, range: std::ops::Range<usize>) -> MatrixView<'a> {
        assert!(
            range.start <= range.end && range.end <= self.rows,
            "row range {range:?} out of bounds ({} rows)",
            self.rows
        );
        MatrixView {
            data: &self.data[range.start * self.cols..range.end * self.cols],
            rows: range.len(),
            cols: self.cols,
        }
    }

    /// Copies the view into an owned [`Matrix`] (for APIs that need one).
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(self.rows, self.cols, self.data.to_vec())
    }
}

impl serde::Serialize for Matrix {
    fn serialize(&self, w: &mut serde::Writer) {
        serde::Serialize::serialize(&self.rows, w);
        serde::Serialize::serialize(&self.cols, w);
        serde::Serialize::serialize(&self.data, w);
    }
}

impl serde::Deserialize for Matrix {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::DecodeError> {
        let rows = <usize as serde::Deserialize>::deserialize(r)?;
        let cols = <usize as serde::Deserialize>::deserialize(r)?;
        let data = <Vec<f64> as serde::Deserialize>::deserialize(r)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(serde::DecodeError::Invalid(format!(
                "matrix buffer length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Self { data, rows, cols })
    }
}

/// Squared Euclidean distance between two equal-length slices.
///
/// Hot kernel for k-NN and every distance-based re-sampler; kept free of
/// bounds checks in the loop body by iterating over zipped slices.
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Euclidean distance between two equal-length slices.
#[inline]
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
    squared_distance(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.get(1, 2), 6.0);
    }

    #[test]
    #[should_panic(expected = "matrix buffer length")]
    fn from_vec_rejects_bad_len() {
        let _ = Matrix::from_vec(2, 3, vec![0.0; 5]);
    }

    #[test]
    fn push_and_select() {
        let mut m = Matrix::with_capacity(2, 2);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        m.push_row(&[5.0, 6.0]);
        let s = m.select_rows(&[2, 0, 2]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(0), &[5.0, 6.0]);
        assert_eq!(s.row(1), &[1.0, 2.0]);
        assert_eq!(s.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn row_range_copies_contiguous_rows() {
        let m = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mid = m.row_range(1..3);
        assert_eq!(mid.rows(), 2);
        assert_eq!(mid.row(0), &[3.0, 4.0]);
        assert_eq!(mid.row(1), &[5.0, 6.0]);
        assert_eq!(m.row_range(0..0).rows(), 0);
        assert_eq!(m.row_range(0..3), m);
    }

    #[test]
    #[should_panic(expected = "row range")]
    fn row_range_rejects_out_of_bounds() {
        let m = Matrix::zeros(2, 2);
        let _ = m.row_range(1..3);
    }

    #[test]
    fn vstack_stacks() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let c = a.vstack(&b);
        assert_eq!(c.rows(), 3);
        assert_eq!(c.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn vstack_with_empty_zero_col() {
        let a = Matrix::zeros(0, 0);
        let b = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert_eq!(a.vstack(&b).rows(), 1);
        assert_eq!(b.vstack(&a).rows(), 1);
    }

    #[test]
    fn column_extracts() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.column(1), vec![2.0, 5.0]);
    }

    #[test]
    fn set_get() {
        let mut m = Matrix::zeros(2, 2);
        m.set(1, 0, 7.0);
        assert_eq!(m.get(1, 0), 7.0);
        m.row_mut(0)[1] = 3.0;
        assert_eq!(m.get(0, 1), 3.0);
    }

    #[test]
    fn distances() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn iter_rows_yields_all() {
        let m = Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
        let rows: Vec<&[f64]> = m.iter_rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], &[3.0]);
    }

    #[test]
    fn view_rows_borrows_without_copy() {
        let m = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let v = m.view_rows(1..3);
        assert_eq!(v.rows(), 2);
        assert_eq!(v.cols(), 2);
        assert_eq!(v.row(0), &[3.0, 4.0]);
        assert_eq!(v.get(1, 1), 6.0);
        assert_eq!(v.as_slice().as_ptr(), m.row(1).as_ptr());
        assert_eq!(v.to_matrix(), m.row_range(1..3));
        assert!(m.view_rows(0..0).is_empty());
        let full = m.view();
        assert_eq!(full.rows(), 3);
        let rows: Vec<&[f64]> = full.iter_rows().collect();
        assert_eq!(rows[2], &[5.0, 6.0]);
        // A sub-view of a view still borrows the original buffer.
        let tail = full.rows_range(2..3);
        assert_eq!(tail.row(0), &[5.0, 6.0]);
        assert_eq!(tail.as_slice().as_ptr(), m.row(2).as_ptr());
    }

    #[test]
    #[should_panic(expected = "row range")]
    fn view_rows_rejects_out_of_bounds() {
        let _ = Matrix::zeros(2, 2).view_rows(1..3);
    }

    #[test]
    fn from_rows_builds() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }
}
