//! Row-parallel CSR SpMV over [`crate::par`].
//!
//! Each output element is owned by exactly one task, so the kernel is
//! data-race free by construction and bit-identical to the serial kernel
//! (per-row reduction order is unchanged). Rows are grouped into chunks to
//! amortize task overhead on short rows.

use super::PAR_MIN_NNZ;
use crate::{par, Csr};

/// Rows per task. Tuned low enough to balance skewed matrices
/// (power-law rows) and high enough to amortize scheduling on stencils.
const ROW_CHUNK: usize = 256;

/// `y = A x`, parallel over row chunks.
pub fn spmv_into(a: &Csr, x: &[f64], y: &mut [f64]) {
    let row_ptr = a.row_ptr();
    let col_idx = a.col_idx();
    let val = a.values();
    let rows = |chunk: usize, y_chunk: &mut [f64]| {
        let base = chunk * ROW_CHUNK;
        for (k, y_i) in y_chunk.iter_mut().enumerate() {
            let i = base + k;
            let mut temp = 0.0;
            for j in row_ptr[i]..row_ptr[i + 1] {
                temp += val[j] * x[col_idx[j] as usize];
            }
            *y_i = temp;
        }
    };
    if a.nnz() < PAR_MIN_NNZ {
        y.chunks_mut(ROW_CHUNK).enumerate().for_each(|(chunk, y_chunk)| rows(chunk, y_chunk));
    } else {
        par::map(y.chunks_mut(ROW_CHUNK), rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv::serial;
    use crate::Csr;

    #[test]
    fn matches_serial_on_skewed_matrix() {
        // One dense row among many short rows exercises chunk imbalance.
        let n = 1000;
        let mut coo = crate::Coo::new(n, n).unwrap();
        for c in 0..n {
            coo.push(0, c, (c % 7) as f64 + 1.0).unwrap();
        }
        for r in 1..n {
            coo.push(r, r, 2.0).unwrap();
            coo.push(r, (r * 31) % n, 1.0).unwrap();
        }
        let a = coo.to_csr();
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut y_par = vec![0.0; n];
        let mut y_ser = vec![0.0; n];
        spmv_into(&a, &x, &mut y_par);
        serial::spmv_into(&a, &x, &mut y_ser);
        assert_eq!(y_par, y_ser, "parallel kernel must be bit-identical to serial");
    }

    #[test]
    fn threaded_path_is_bit_identical_to_serial() {
        // Above the cut-off the row chunks really are claimed by workers.
        let a = crate::gen::generate(
            &crate::gen::GenSpec::Rmat {
                scale: 15,
                edge_factor: 12,
                values: crate::gen::ValueModel::UniformRandom,
            },
            3,
        );
        assert!(a.nnz() >= PAR_MIN_NNZ, "{} non-zeros", a.nnz());
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64).cos()).collect();
        let mut y_par = vec![f64::NAN; a.nrows()];
        let mut y_ser = vec![0.0; a.nrows()];
        spmv_into(&a, &x, &mut y_par);
        serial::spmv_into(&a, &x, &mut y_ser);
        assert_eq!(y_par, y_ser);
    }

    #[test]
    fn handles_fewer_rows_than_chunk() {
        let a = Csr::identity(3);
        let mut y = vec![0.0; 3];
        spmv_into(&a, &[5.0, 6.0, 7.0], &mut y);
        assert_eq!(y, vec![5.0, 6.0, 7.0]);
    }
}
