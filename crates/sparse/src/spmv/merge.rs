//! Merge-path SpMV (Merrill & Garland, SC'16 — the paper's reference \[33\]).
//!
//! The classic row-parallel kernel load-balances poorly when row lengths are
//! skewed. Merge-path instead treats SpMV as a merge of two sequences —
//! the row-end offsets `row_ptr[1..]` and the natural non-zero indices
//! `0..nnz` — and gives every worker an *equal number of path items*
//! (rows finished + non-zeros consumed). Workers find their start coordinate
//! with a binary search along their diagonal, process their stretch, and
//! rows that straddle a partition boundary are fixed up with carry-out
//! partial sums.
//!
//! Unlike the serial/row-parallel kernels, a row split across partitions is
//! summed as partials, so results can differ from serial by floating-point
//! rounding (never by more than reassociation error).

use super::PAR_MIN_NNZ;
use crate::{par, Csr};

/// Start coordinate of a diagonal on the merge path.
///
/// Returns `(i, j)` with `i + j == diag`, where `i` counts consumed row-ends
/// and `j` counts consumed non-zeros.
fn merge_path_search(diag: usize, row_end: &[usize], nnz: usize) -> (usize, usize) {
    let m = row_end.len();
    let mut lo = diag.saturating_sub(nnz);
    let mut hi = diag.min(m);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        // Consume row-end `mid` before non-zero `diag - 1 - mid`?
        if row_end[mid] <= diag - 1 - mid {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    (lo, diag - lo)
}

/// Per-partition result: sums for rows finished inside the partition and the
/// carry-out partial for the row left unfinished at its end.
struct PartitionOut {
    first_row: usize,
    finished: Vec<f64>,
    carry_row: usize,
    carry: f64,
}

/// `y = A x` via merge-path partitioning.
pub fn spmv_into(a: &Csr, x: &[f64], y: &mut [f64]) {
    let m = a.nrows();
    let nnz = a.nnz();
    if m == 0 {
        return;
    }
    let row_end = &a.row_ptr()[1..];
    let col_idx = a.col_idx();
    let val = a.values();

    let path_len = m + nnz;
    let parts = (par::threads() * 4).clamp(1, path_len.max(1));
    let per_part = path_len.div_ceil(parts);

    let partition = |p: usize| {
        let d0 = (p * per_part).min(path_len);
        let d1 = ((p + 1) * per_part).min(path_len);
        let (i0, j0) = merge_path_search(d0, row_end, nnz);
        let (i1, j1) = merge_path_search(d1, row_end, nnz);
        let mut finished = Vec::with_capacity(i1 - i0);
        let mut j = j0;
        for &e in &row_end[i0..i1] {
            let mut acc = 0.0;
            while j < e {
                acc += val[j] * x[col_idx[j] as usize];
                j += 1;
            }
            finished.push(acc);
        }
        let mut carry = 0.0;
        while j < j1 {
            acc_step(&mut carry, val[j], x[col_idx[j] as usize]);
            j += 1;
        }
        PartitionOut { first_row: i0, finished, carry_row: i1, carry }
    };
    let outs: Vec<PartitionOut> = if nnz < PAR_MIN_NNZ {
        (0..parts).map(partition).collect()
    } else {
        par::map(0..parts, |_, p| partition(p))
    };

    y.fill(0.0);
    for out in outs {
        for (k, v) in out.finished.iter().enumerate() {
            y[out.first_row + k] += v;
        }
        if out.carry_row < m {
            y[out.carry_row] += out.carry;
        }
    }
}

#[inline]
fn acc_step(acc: &mut f64, a: f64, b: f64) {
    *acc += a * b;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv::serial;
    use crate::util::approx_eq;
    use crate::{Coo, Csr};

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!(approx_eq(x, y, 1e-12), "mismatch at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn merge_path_search_endpoints() {
        // 3 rows with ends [2, 2, 5]; nnz = 5; path length 8.
        let row_end = [2usize, 2, 5];
        assert_eq!(merge_path_search(0, &row_end, 5), (0, 0));
        assert_eq!(merge_path_search(8, &row_end, 5), (3, 5));
        // After consuming 2 nnz, the next items are the ends of rows 0 and 1.
        assert_eq!(merge_path_search(2, &row_end, 5), (0, 2));
        assert_eq!(merge_path_search(3, &row_end, 5), (1, 2));
        assert_eq!(merge_path_search(4, &row_end, 5), (2, 2));
    }

    #[test]
    fn matches_serial_on_empty_rows() {
        // Matrices dominated by empty rows are the classic merge-path win.
        let n = 500;
        let mut coo = Coo::new(n, n).unwrap();
        for k in 0..20 {
            let r = (k * 37) % n;
            for c in 0..50 {
                coo.push(r, (c * 7 + k) % n, 1.0 + (k + c) as f64).unwrap();
            }
        }
        let a = coo.to_csr();
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut y_m = vec![0.0; n];
        let mut y_s = vec![0.0; n];
        spmv_into(&a, &x, &mut y_m);
        serial::spmv_into(&a, &x, &mut y_s);
        assert_close(&y_m, &y_s);
    }

    #[test]
    fn matches_serial_on_single_huge_row() {
        // One row holding every non-zero forces carry chains across many
        // partitions.
        let n = 4096;
        let mut coo = Coo::new(3, n).unwrap();
        for c in 0..n {
            coo.push(1, c, ((c * 13) % 11) as f64 - 5.0).unwrap();
        }
        let a = coo.to_csr();
        let x = vec![1.5; n];
        let mut y_m = vec![0.0; 3];
        let mut y_s = vec![0.0; 3];
        spmv_into(&a, &x, &mut y_m);
        serial::spmv_into(&a, &x, &mut y_s);
        assert_close(&y_m, &y_s);
    }

    #[test]
    fn threaded_path_matches_serial_on_a_skewed_graph() {
        // Above the cut-off the partitions really run on workers; a power-law
        // graph puts hub rows across several partition boundaries.
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
        let mut y_m = vec![f64::NAN; a.nrows()];
        let mut y_s = vec![0.0; a.nrows()];
        spmv_into(&a, &x, &mut y_m);
        serial::spmv_into(&a, &x, &mut y_s);
        assert_close(&y_m, &y_s);
    }

    #[test]
    fn zero_nnz_matrix() {
        let a = Csr::try_from_parts(4, 4, vec![0, 0, 0, 0, 0], vec![], vec![]).unwrap();
        let mut y = vec![7.0; 4];
        spmv_into(&a, &[1.0; 4], &mut y);
        assert_eq!(y, vec![0.0; 4]);
    }
}
