//! Compressed Sparse Row — the computation format used throughout the paper
//! (Fig. 2). Column indices are 4 bytes and values 8 bytes, so raw storage is
//! the paper's 12 bytes per non-zero (the `row_ptr` array is amortized over
//! whole rows and excluded from that accounting, as in the paper).

use crate::error::{Result, SparseError};
use crate::{Coo, Dense};

/// A sparse matrix in CSR layout.
///
/// Invariants (enforced by [`Csr::try_from_parts`], assumed by
/// `from_parts_unchecked`):
/// * `row_ptr.len() == nrows + 1`, `row_ptr[0] == 0`, non-decreasing,
///   `row_ptr[nrows] == col_idx.len() == values.len()`;
/// * all column indices `< ncols`;
/// * column indices strictly increase within each row (no duplicates).
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl Csr {
    /// Builds a CSR matrix after validating every invariant listed on the
    /// type. Prefer this over `from_parts_unchecked` at API boundaries.
    ///
    /// # Errors
    /// [`SparseError::InvalidStructure`], [`SparseError::IndexOutOfBounds`]
    /// or [`SparseError::ColumnIndexOverflow`] describing the first violation.
    pub fn try_from_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if ncols > u32::MAX as usize {
            return Err(SparseError::ColumnIndexOverflow(ncols));
        }
        if row_ptr.len() != nrows + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "row_ptr has {} entries for {} rows (want nrows+1)",
                row_ptr.len(),
                nrows
            )));
        }
        if row_ptr[0] != 0 {
            return Err(SparseError::InvalidStructure("row_ptr[0] != 0".into()));
        }
        if *row_ptr.last().expect("len >= 1") != col_idx.len() || col_idx.len() != values.len() {
            return Err(SparseError::InvalidStructure(format!(
                "row_ptr end {} vs col_idx {} vs values {}",
                row_ptr.last().expect("len >= 1"),
                col_idx.len(),
                values.len()
            )));
        }
        for r in 0..nrows {
            if row_ptr[r] > row_ptr[r + 1] {
                return Err(SparseError::InvalidStructure(format!("row_ptr decreases at row {r}")));
            }
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for (k, &c) in row.iter().enumerate() {
                if c as usize >= ncols {
                    return Err(SparseError::IndexOutOfBounds {
                        row: r,
                        col: c as usize,
                        nrows,
                        ncols,
                    });
                }
                if k > 0 && row[k - 1] >= c {
                    return Err(SparseError::InvalidStructure(format!(
                        "row {r} columns not strictly increasing at position {k}"
                    )));
                }
            }
        }
        Ok(Csr { nrows, ncols, row_ptr, col_idx, values })
    }

    /// Builds a CSR matrix without validation. Callers must uphold the type's
    /// invariants; intended for internal conversions that construct valid
    /// structure by design.
    pub fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), nrows + 1);
        debug_assert_eq!(*row_ptr.last().unwrap_or(&0), col_idx.len());
        debug_assert_eq!(col_idx.len(), values.len());
        Csr { nrows, ncols, row_ptr, col_idx, values }
    }

    /// An `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let row_ptr = (0..=n).collect();
        let col_idx = (0..n as u32).collect();
        let values = vec![1.0; n];
        Csr { nrows: n, ncols: n, row_ptr, col_idx, values }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries stored: `nnz / (nrows * ncols)`.
    pub fn density(&self) -> f64 {
        if self.nrows == 0 || self.ncols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.nrows as f64 * self.ncols as f64)
    }

    /// The `row_ptr` array (`nrows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column-index array (one `u32` per non-zero).
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The value array (one `f64` per non-zero).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable value array (structure stays fixed; used by solvers that
    /// rescale entries in place).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The half-open non-zero range of row `r`.
    pub fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.row_ptr[r]..self.row_ptr[r + 1]
    }

    /// Column indices and values of row `r`.
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let rng = self.row_range(r);
        (&self.col_idx[rng.clone()], &self.values[rng])
    }

    /// Looks up entry `(r, c)` by binary search; zero if not stored.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&(c as u32)) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Iterates all stored entries in row-major order as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals).map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// Raw CSR bytes per non-zero: 4 (index) + 8 (value) = 12, the paper's
    /// uncompressed baseline. Kept as a method so accounting code reads
    /// intent instead of a magic constant.
    pub const fn raw_bytes_per_nnz() -> f64 {
        12.0
    }

    /// Converts to COO triplets.
    pub fn to_coo(&self) -> Coo {
        let mut coo = Coo::with_capacity(self.nrows, self.ncols, self.nnz())
            .expect("shape already validated");
        for (r, c, v) in self.iter() {
            coo.push(r, c, v).expect("entries already in bounds");
        }
        coo
    }

    /// Structural + numeric transpose by a stable counting sort over the
    /// columns, O(nnz + ncols): the arrays are this matrix's CSC arrays.
    pub fn transpose(&self) -> Csr {
        let nnz = self.nnz();
        let mut counts = vec![0usize; self.ncols];
        for &c in &self.col_idx {
            counts[c as usize] += 1;
        }
        let row_ptr = crate::util::exclusive_prefix_sum(&counts);
        let mut col_idx = vec![0u32; nnz];
        let mut values = vec![0f64; nnz];
        let mut next = row_ptr.clone();
        for r in 0..self.nrows {
            for k in self.row_range(r) {
                let c = self.col_idx[k] as usize;
                let dst = next[c];
                col_idx[dst] = r as u32;
                values[dst] = self.values[k];
                next[c] += 1;
            }
        }
        Csr::from_parts_unchecked(self.ncols, self.nrows, row_ptr, col_idx, values)
    }

    /// Materializes as a dense matrix. Intended for test-sized inputs; the
    /// allocation is `nrows * ncols` doubles.
    pub fn to_dense(&self) -> Dense {
        let mut d = Dense::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            d[(r, c)] += v;
        }
        d
    }

    /// True if the matrix equals its transpose within relative tolerance
    /// `rel` (structure and values).
    pub fn is_symmetric(&self, rel: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        if t.row_ptr != self.row_ptr || t.col_idx != self.col_idx {
            return false;
        }
        self.values.iter().zip(&t.values).all(|(&a, &b)| crate::util::approx_eq(a, b, rel))
    }

    /// Splits the non-zeros into consecutive chunks of at most
    /// `nnz_per_block` entries, never splitting mid-entry. Returns half-open
    /// nnz ranges. This is the row-agnostic blocking the codec layer uses to
    /// carve value/index streams into 8 KB blocks.
    pub fn nnz_blocks(&self, nnz_per_block: usize) -> Vec<std::ops::Range<usize>> {
        assert!(nnz_per_block > 0, "block size must be positive");
        let nnz = self.nnz();
        let mut out = Vec::with_capacity(nnz.div_ceil(nnz_per_block));
        let mut s = 0;
        while s < nnz {
            let e = (s + nnz_per_block).min(nnz);
            out.push(s..e);
            s = e;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_matrix() -> Csr {
        Csr::try_from_parts(
            4,
            4,
            vec![0, 2, 2, 5, 7],
            vec![0, 2, 0, 2, 3, 1, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
        )
        .unwrap()
    }

    #[test]
    fn validation_accepts_paper_example() {
        let m = paper_matrix();
        assert_eq!(m.nnz(), 7);
        assert_eq!(m.get(2, 3), 5.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn validation_rejects_bad_row_ptr() {
        assert!(Csr::try_from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(Csr::try_from_parts(2, 2, vec![1, 1, 1], vec![0], vec![1.0]).is_err());
        assert!(Csr::try_from_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn validation_rejects_col_out_of_range_and_duplicates() {
        assert!(Csr::try_from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        assert!(
            Csr::try_from_parts(1, 4, vec![0, 2], vec![2, 2], vec![1.0, 2.0]).is_err(),
            "duplicate column must be rejected"
        );
        assert!(
            Csr::try_from_parts(1, 4, vec![0, 2], vec![3, 1], vec![1.0, 2.0]).is_err(),
            "descending columns must be rejected"
        );
    }

    #[test]
    fn identity_works() {
        let i = Csr::identity(3);
        assert_eq!(i.nnz(), 3);
        assert_eq!(i.get(2, 2), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert!(i.is_symmetric(1e-12));
    }

    #[test]
    fn transpose_arrays_are_the_csc_arrays() {
        let t = paper_matrix().transpose();
        assert_eq!(t.row_ptr(), &[0, 2, 3, 5, 7]);
        assert_eq!(t.col_idx(), &[0, 2, 3, 0, 2, 2, 3]);
        assert_eq!(t.values(), &[1.0, 3.0, 6.0, 2.0, 4.0, 5.0, 7.0]);
    }

    #[test]
    fn coo_round_trip_preserves_matrix() {
        let m = paper_matrix();
        assert_eq!(m.to_coo().to_csr(), m);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = paper_matrix();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let m = paper_matrix();
        let t = m.transpose();
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(t.get(r, c), m.get(c, r));
            }
        }
    }

    #[test]
    fn symmetry_detection() {
        let sym =
            Csr::try_from_parts(2, 2, vec![0, 2, 4], vec![0, 1, 0, 1], vec![2.0, 3.0, 3.0, 4.0])
                .unwrap();
        assert!(sym.is_symmetric(1e-12));
        assert!(!paper_matrix().is_symmetric(1e-12));
        let rect = Csr::try_from_parts(1, 2, vec![0, 1], vec![1], vec![1.0]).unwrap();
        assert!(!rect.is_symmetric(1e-12));
    }

    #[test]
    fn nnz_blocks_cover_exactly_once() {
        let m = paper_matrix();
        let blocks = m.nnz_blocks(3);
        assert_eq!(blocks, vec![0..3, 3..6, 6..7]);
        let blocks = m.nnz_blocks(100);
        assert_eq!(blocks, vec![0..7]);
    }

    #[test]
    fn density_and_raw_bytes() {
        let m = paper_matrix();
        assert!((m.density() - 7.0 / 16.0).abs() < 1e-12);
        assert_eq!(Csr::raw_bytes_per_nnz(), 12.0);
    }

    #[test]
    fn dense_conversion_matches_get() {
        let m = paper_matrix();
        let d = m.to_dense();
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(d[(r, c)], m.get(r, c));
            }
        }
    }
}
