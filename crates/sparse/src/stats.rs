//! Structural and value statistics, used to characterize corpora the way the
//! paper characterizes its 369-matrix TAMU sample (§IV-B: nnz range, sparsity
//! range, banded/diagonal/symmetric/unstructured mix).

use crate::Csr;
use std::collections::HashSet;

/// Summary statistics for one sparse matrix.
#[derive(Debug, Clone)]
pub struct MatrixStats {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Stored non-zeros.
    pub nnz: usize,
    /// `nnz / (nrows * ncols)`.
    pub density: f64,
    /// Mean non-zeros per row.
    pub avg_nnz_per_row: f64,
    /// Longest row.
    pub max_nnz_per_row: usize,
    /// Number of entirely empty rows.
    pub empty_rows: usize,
    /// Structural bandwidth: `max |i - j|` over stored entries.
    pub bandwidth: usize,
    /// Mean `|i - j|` over stored entries — low values mean strong diagonal
    /// locality, which is what delta recoding exploits.
    pub avg_band: f64,
    /// Mean absolute first difference of column indices within rows — the
    /// quantity delta coding actually compresses.
    pub avg_col_delta: f64,
    /// Number of distinct values in a bounded sample (up to
    /// [`MatrixStats::VALUE_SAMPLE`] entries); few distinct values means the
    /// value stream is highly compressible.
    pub distinct_values_sampled: usize,
    /// Shannon entropy (bits/byte) of the sampled value bytes — an upper
    /// bound estimate for how well entropy coding can squeeze values.
    pub value_byte_entropy: f64,
    /// True if the matrix equals its transpose (1e-9 relative tolerance).
    pub symmetric: bool,
    /// True if the *pattern* equals its transpose (values may differ) —
    /// many real matrices are structurally but not numerically symmetric.
    pub structurally_symmetric: bool,
}

impl MatrixStats {
    /// Upper bound on how many values are sampled for value statistics.
    pub const VALUE_SAMPLE: usize = 1 << 16;

    /// Computes statistics for `a`. Cost is O(nnz) plus one transpose when
    /// the matrix is square (for the symmetry check).
    pub fn compute(a: &Csr) -> Self {
        let nnz = a.nnz();
        let mut max_row = 0usize;
        let mut empty_rows = 0usize;
        let mut bandwidth = 0usize;
        let mut band_sum = 0f64;
        let mut delta_sum = 0f64;
        let mut delta_count = 0usize;
        for r in 0..a.nrows() {
            let (cols, _) = a.row(r);
            max_row = max_row.max(cols.len());
            if cols.is_empty() {
                empty_rows += 1;
            }
            let mut prev: Option<u32> = None;
            for &c in cols {
                let band = (c as isize - r as isize).unsigned_abs();
                bandwidth = bandwidth.max(band);
                band_sum += band as f64;
                if let Some(p) = prev {
                    delta_sum += (c - p) as f64;
                    delta_count += 1;
                }
                prev = Some(c);
            }
        }

        // Value sampling: stride so the sample spans the whole matrix.
        let stride = (nnz / Self::VALUE_SAMPLE).max(1);
        let mut distinct: HashSet<u64> = HashSet::new();
        let mut byte_hist = [0u64; 256];
        let mut sampled_bytes = 0u64;
        for k in (0..nnz).step_by(stride) {
            let bits = a.values()[k].to_bits();
            distinct.insert(bits);
            for b in bits.to_le_bytes() {
                byte_hist[b as usize] += 1;
                sampled_bytes += 1;
            }
        }
        let value_byte_entropy = shannon_entropy(&byte_hist, sampled_bytes);

        let structurally_symmetric = a.nrows() == a.ncols() && {
            let t = a.transpose();
            t.row_ptr() == a.row_ptr() && t.col_idx() == a.col_idx()
        };
        MatrixStats {
            nrows: a.nrows(),
            ncols: a.ncols(),
            nnz,
            density: a.density(),
            avg_nnz_per_row: if a.nrows() == 0 { 0.0 } else { nnz as f64 / a.nrows() as f64 },
            max_nnz_per_row: max_row,
            empty_rows,
            bandwidth,
            avg_band: if nnz == 0 { 0.0 } else { band_sum / nnz as f64 },
            avg_col_delta: if delta_count == 0 { 0.0 } else { delta_sum / delta_count as f64 },
            distinct_values_sampled: distinct.len(),
            value_byte_entropy,
            symmetric: a.nrows() == a.ncols() && a.is_symmetric(1e-9),
            structurally_symmetric,
        }
    }
}

/// Shannon entropy in bits per symbol of a 256-bin histogram.
fn shannon_entropy(hist: &[u64; 256], total: u64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let mut h = 0.0;
    for &c in hist {
        if c > 0 {
            let p = c as f64 / total as f64;
            h -= p * p.log2();
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    #[test]
    fn tridiagonal_stats() {
        let n = 100;
        let mut coo = Coo::new(n, n).unwrap();
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i > 0 {
                coo.push(i, i - 1, -1.0).unwrap();
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
            }
        }
        let a = coo.to_csr();
        let s = MatrixStats::compute(&a);
        assert_eq!(s.nnz, 3 * n - 2);
        assert_eq!(s.bandwidth, 1);
        assert_eq!(s.max_nnz_per_row, 3);
        assert_eq!(s.empty_rows, 0);
        assert!(s.symmetric);
        assert!(s.structurally_symmetric);
        // Only 2 distinct values.
        assert_eq!(s.distinct_values_sampled, 2);
        // Column deltas within a tridiagonal row are all 1.
        assert!((s.avg_col_delta - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_bounds() {
        let uniform = [1u64; 256];
        assert!((shannon_entropy(&uniform, 256) - 8.0).abs() < 1e-9);
        let mut single = [0u64; 256];
        single[42] = 100;
        assert_eq!(shannon_entropy(&single, 100), 0.0);
        assert_eq!(shannon_entropy(&[0; 256], 0), 0.0);
    }

    #[test]
    fn empty_rows_counted() {
        let a = crate::Csr::try_from_parts(3, 3, vec![0, 1, 1, 1], vec![2], vec![9.0]).unwrap();
        let s = MatrixStats::compute(&a);
        assert_eq!(s.empty_rows, 2);
        assert_eq!(s.bandwidth, 2);
        assert!(!s.symmetric);
        assert!(!s.structurally_symmetric);
    }
}

#[cfg(test)]
mod structural_tests {
    use super::*;
    use crate::Coo;

    #[test]
    fn structural_but_not_numeric_symmetry() {
        let mut coo = Coo::new(2, 2).unwrap();
        coo.push(0, 1, 3.0).unwrap();
        coo.push(1, 0, 5.0).unwrap(); // mirrored position, different value
        let s = MatrixStats::compute(&coo.to_csr());
        assert!(s.structurally_symmetric);
        assert!(!s.symmetric);
    }
}
