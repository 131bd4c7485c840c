//! SELL-C-σ (Kreutzer, Hager, Wellein, Fehske, Bishop — the paper's
//! reference \[27\]): rows are sorted by length inside windows of σ rows,
//! grouped into chunks of C, and each chunk is padded only to its *own*
//! widest row. Keeps ELLPACK's unit-stride SIMD layout while containing the
//! padding blow-up on irregular matrices.

use crate::error::{Result, SparseError};
use crate::Csr;

/// Padding marker.
pub const PAD: u32 = u32::MAX;

/// A SELL-C-σ matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SellCs {
    nrows: usize,
    ncols: usize,
    /// Chunk height.
    c: usize,
    /// Sorting window (multiple of `c`).
    sigma: usize,
    /// Element offset of each chunk (`nchunks + 1` entries).
    chunk_ptr: Vec<usize>,
    /// Width (padded row length) of each chunk.
    chunk_width: Vec<usize>,
    /// Column indices, column-major within each chunk; `PAD` marks padding.
    col_idx: Vec<u32>,
    /// Values, same layout.
    values: Vec<f64>,
    /// `perm[slot] = original row` for slot = chunk*c + lane.
    perm: Vec<u32>,
    nnz: usize,
}

impl SellCs {
    /// Converts from CSR with chunk height `c` and sorting window `sigma`
    /// (rounded up to a multiple of `c`).
    ///
    /// # Errors
    /// [`SparseError::InvalidStructure`] for `c == 0`.
    pub fn from_csr(a: &Csr, c: usize, sigma: usize) -> Result<Self> {
        if c == 0 {
            return Err(SparseError::InvalidStructure("chunk height must be positive".into()));
        }
        let sigma = sigma.max(c).div_ceil(c) * c;
        let nrows = a.nrows();
        // Sort rows by descending length within each sigma window.
        let mut perm: Vec<u32> = (0..nrows as u32).collect();
        for window in perm.chunks_mut(sigma) {
            window.sort_by_key(|&r| std::cmp::Reverse(a.row(r as usize).0.len()));
        }
        let nchunks = nrows.div_ceil(c);
        let mut chunk_ptr = Vec::with_capacity(nchunks + 1);
        let mut chunk_width = Vec::with_capacity(nchunks);
        chunk_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for chunk in 0..nchunks {
            let rows = &perm[chunk * c..(chunk * c + c).min(nrows)];
            let width = rows.iter().map(|&r| a.row(r as usize).0.len()).max().unwrap_or(0);
            // Column-major: lane stride is c even for the ragged last chunk
            // (simplifies the kernel; pad lanes carry PAD).
            let base = col_idx.len();
            col_idx.resize(base + width * c, PAD);
            values.resize(base + width * c, 0.0);
            for (lane, &r) in rows.iter().enumerate() {
                let (cols, vals) = a.row(r as usize);
                for (j, (&cc, &vv)) in cols.iter().zip(vals).enumerate() {
                    col_idx[base + j * c + lane] = cc;
                    values[base + j * c + lane] = vv;
                }
            }
            chunk_ptr.push(col_idx.len());
            chunk_width.push(width);
        }
        Ok(SellCs {
            nrows,
            ncols: a.ncols(),
            c,
            sigma,
            chunk_ptr,
            chunk_width,
            col_idx,
            values,
            perm,
            nnz: a.nnz(),
        })
    }

    /// Converts back to CSR.
    pub fn to_csr(&self) -> Csr {
        let mut coo = crate::Coo::with_capacity(self.nrows, self.ncols, self.nnz)
            .expect("shape validated at construction");
        for (chunk, &width) in self.chunk_width.iter().enumerate() {
            let base = self.chunk_ptr[chunk];
            let lanes = (self.nrows - chunk * self.c).min(self.c);
            for lane in 0..lanes {
                let r = self.perm[chunk * self.c + lane] as usize;
                for j in 0..width {
                    let cc = self.col_idx[base + j * self.c + lane];
                    if cc != PAD {
                        coo.push(r, cc as usize, self.values[base + j * self.c + lane])
                            .expect("in bounds");
                    }
                }
            }
        }
        coo.to_csr()
    }

    /// Stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Fraction of slots that are padding.
    pub fn padding_ratio(&self) -> f64 {
        let slots = self.col_idx.len();
        if slots == 0 {
            return 0.0;
        }
        1.0 - self.nnz as f64 / slots as f64
    }

    /// Bytes per non-zero: 12 per slot plus the 4-byte row permutation
    /// amortized over the non-zeros.
    pub fn bytes_per_nnz(&self) -> f64 {
        if self.nnz == 0 {
            return 0.0;
        }
        (self.col_idx.len() * 12 + self.nrows * 4) as f64 / self.nnz as f64
    }

    /// `y = A x` with chunked unit-stride traversal.
    ///
    /// # Panics
    /// On shape mismatch.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "x length must equal ncols");
        assert_eq!(y.len(), self.nrows, "y length must equal nrows");
        y.fill(0.0);
        for (chunk, &width) in self.chunk_width.iter().enumerate() {
            let base = self.chunk_ptr[chunk];
            let lanes = (self.nrows - chunk * self.c).min(self.c);
            let mut acc = vec![0.0f64; lanes];
            for j in 0..width {
                let cols = &self.col_idx[base + j * self.c..base + j * self.c + lanes];
                let vals = &self.values[base + j * self.c..base + j * self.c + lanes];
                for (lane, (cc, vv)) in cols.iter().zip(vals).enumerate() {
                    if *cc != PAD {
                        acc[lane] += vv * x[*cc as usize];
                    }
                }
            }
            for (lane, a) in acc.into_iter().enumerate() {
                y[self.perm[chunk * self.c + lane] as usize] = a;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenSpec, ValueModel};
    use crate::spmv::spmv;

    fn skewed() -> Csr {
        generate(&GenSpec::Rmat { scale: 9, edge_factor: 8, values: ValueModel::UniformRandom }, 4)
    }

    #[test]
    fn round_trip_various_params() {
        let a = skewed();
        for (c, sigma) in [(4, 4), (8, 64), (32, 512), (7, 13)] {
            let s = SellCs::from_csr(&a, c, sigma).unwrap();
            assert_eq!(s.to_csr(), a, "C={c} sigma={sigma}");
        }
    }

    #[test]
    fn spmv_matches_csr() {
        let a = skewed();
        let s = SellCs::from_csr(&a, 16, 256).unwrap();
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 7) % 3) as f64).collect();
        let mut y = vec![0.0; a.nrows()];
        s.spmv_into(&x, &mut y);
        let want = spmv(&a, &x);
        for (g, w) in y.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0));
        }
    }

    #[test]
    fn sorting_window_shrinks_padding_vs_ell() {
        let a = skewed();
        // ELLPACK pads every row to the widest: 12 bytes a slot.
        let width = (0..a.nrows()).map(|r| a.row(r).0.len()).max().unwrap();
        let ell_slots = (width * a.nrows()) as f64;
        let ell_padding = 1.0 - a.nnz() as f64 / ell_slots;
        let sell = SellCs::from_csr(&a, 32, 1024).unwrap();
        // Power-law rows leave ELL ~96% padding; sorted 32-row chunks cut
        // that roughly in half (not more — the heavy hub rows still dominate
        // their own chunks).
        assert!(
            sell.padding_ratio() < ell_padding - 0.3,
            "SELL {:.3} vs ELL {ell_padding:.3}",
            sell.padding_ratio()
        );
        assert!(sell.bytes_per_nnz() < 12.0 * ell_slots / a.nnz() as f64);
    }

    #[test]
    fn bigger_sigma_never_hurts_padding() {
        let a = skewed();
        let s1 = SellCs::from_csr(&a, 32, 32).unwrap();
        let s2 = SellCs::from_csr(&a, 32, 2048).unwrap();
        assert!(s2.padding_ratio() <= s1.padding_ratio() + 1e-12);
    }

    #[test]
    fn zero_chunk_height_rejected() {
        let a = skewed();
        assert!(SellCs::from_csr(&a, 0, 8).is_err());
    }

    #[test]
    fn ragged_last_chunk() {
        // nrows not divisible by C.
        let a =
            generate(&GenSpec::FemBand { n: 101, band: 5, fill: 0.6, values: ValueModel::Ones }, 2);
        let s = SellCs::from_csr(&a, 16, 32).unwrap();
        assert_eq!(s.to_csr(), a);
    }
}
