//! SpMV kernels.
//!
//! Five CPU kernels, mirroring the implementations the paper and its
//! related work discuss:
//!
//! * [`serial`] — the paper's Fig. 2 basic CSR loop;
//! * [`parallel`] — row-parallel CSR on scoped threads (the "state-of-the-art
//!   libraries easily saturate memory bandwidth" point of §III-B);
//! * [`merge`] — merge-path SpMV after Merrill & Garland \[33\], the
//!   load-balanced baseline the related-work section highlights;
//! * [`sellcs`] — SELL-C-σ sliced-ELL traversal (Kreutzer et al. \[27\])
//!   with σ-window row sorting;
//! * [`pdiag`] — partially-diagonal split (after Fukaya et al.): dense
//!   diagonal runs plus a CSR remainder.
//!
//! All kernels compute `y = A x`. Serial, row-parallel, and SELL-C-σ
//! reduce each row left-to-right and are bit-identical; merge-path may
//! split a row across partitions and partially-diagonal reorders diagonal
//! entries ahead of the remainder, so those two can differ by
//! floating-point reassociation (bounded by ordinary summation error and
//! checked in tests).

pub mod merge;
pub mod parallel;
pub mod pdiag;
pub mod sellcs;
pub mod serial;

use crate::Csr;

/// Below this many non-zeros the two threaded kernels run their tasks on the
/// calling thread: spawning and joining scoped workers costs on the order of
/// 100 µs, and a serial pass over 2^18 entries takes about 300 µs, so smaller
/// matrices cannot win it back.
pub(crate) const PAR_MIN_NNZ: usize = 1 << 18;

/// Which SpMV implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpmvKernel {
    /// Basic CSR loop (paper Fig. 2).
    Serial,
    /// Row-parallel CSR.
    RowParallel,
    /// Merge-path load-balanced CSR.
    MergePath,
    /// SELL-C-σ sliced-ELL traversal.
    SellCSigma,
    /// Partially-diagonal split: dense diagonals + CSR remainder.
    PartialDiagonal,
}

impl SpmvKernel {
    /// All kernels, for exhaustive test sweeps.
    pub const ALL: [SpmvKernel; 5] = [
        SpmvKernel::Serial,
        SpmvKernel::RowParallel,
        SpmvKernel::MergePath,
        SpmvKernel::SellCSigma,
        SpmvKernel::PartialDiagonal,
    ];
}

/// Computes `y = A x` with the chosen kernel, allocating `y`.
pub fn spmv_with(kernel: SpmvKernel, a: &Csr, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; a.nrows()];
    spmv_with_into(kernel, a, x, &mut y);
    y
}

/// Computes `y = A x` with the chosen kernel into a caller-provided buffer.
///
/// # Panics
/// If `x.len() != a.ncols()` or `y.len() != a.nrows()`.
pub fn spmv_with_into(kernel: SpmvKernel, a: &Csr, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.ncols(), "x length must equal ncols");
    assert_eq!(y.len(), a.nrows(), "y length must equal nrows");
    match kernel {
        SpmvKernel::Serial => serial::spmv_into(a, x, y),
        SpmvKernel::RowParallel => parallel::spmv_into(a, x, y),
        SpmvKernel::MergePath => merge::spmv_into(a, x, y),
        SpmvKernel::SellCSigma => sellcs::spmv_into(a, x, y),
        SpmvKernel::PartialDiagonal => pdiag::spmv_into(a, x, y),
    }
}

/// Default-kernel (serial) convenience: `y = A x`, allocating `y`.
pub fn spmv(a: &Csr, x: &[f64]) -> Vec<f64> {
    spmv_with(SpmvKernel::Serial, a, x)
}

/// Default-kernel (serial) convenience into a caller-provided buffer.
pub fn spmv_into(a: &Csr, x: &[f64], y: &mut [f64]) {
    spmv_with_into(SpmvKernel::Serial, a, x, y);
}

/// Floating-point operations an SpMV performs: the paper counts 2 flops
/// (one multiply, one add) per stored non-zero.
pub fn flops(a: &Csr) -> u64 {
    2 * a.nnz() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Csr;

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
    fn all_kernels_agree_with_dense_reference() {
        let a = paper_matrix();
        let x = [1.0, -2.0, 0.5, 3.0];
        let want = a.to_dense().matvec(&x);
        for k in SpmvKernel::ALL {
            assert_eq!(spmv_with(k, &a, &x), want, "kernel {k:?}");
        }
    }

    #[test]
    fn flops_counts_two_per_nnz() {
        assert_eq!(flops(&paper_matrix()), 14);
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn wrong_x_length_panics() {
        let a = paper_matrix();
        let _ = spmv(&a, &[1.0]);
    }

    #[test]
    fn empty_matrix_gives_zero_vector() {
        let a = Csr::try_from_parts(3, 3, vec![0, 0, 0, 0], vec![], vec![]).unwrap();
        for k in SpmvKernel::ALL {
            assert_eq!(spmv_with(k, &a, &[1.0, 1.0, 1.0]), vec![0.0; 3]);
        }
    }
}
