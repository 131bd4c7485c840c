//! Property tests for the sparse substrate: conversion round-trips and
//! kernel agreement on arbitrary random matrices.
//!
//! Each property runs its cases through [`for_each_case`]; a failure prints
//! `(seed, case)`.

use recode_sparse::formats::{BitmaskBlockCsr, Ell, SellCs, VarintCsr};
use recode_sparse::prelude::*;
use recode_sparse::reorder::{reverse_cuthill_mckee, Permutation};
use recode_sparse::util::{approx_eq, for_each_case, SplitMix64};

const CASES: usize = 256;

/// A random matrix up to 24x24 with up to 120 entries (duplicates allowed,
/// values exact in f64 so kernel comparisons are exact).
fn random_csr(rng: &mut SplitMix64) -> Csr {
    let (nrows, ncols) = (1 + rng.below(23), 1 + rng.below(23));
    let mut coo = Coo::new(nrows, ncols).unwrap();
    for _ in 0..rng.below(120) {
        coo.push(rng.below(nrows), rng.below(ncols), rng.range(-8, 8) as f64).unwrap();
    }
    coo.to_csr()
}

#[test]
fn csr_validates_after_coo_conversion() {
    for_each_case(0x5BA5_0001, CASES, |rng| {
        let a = random_csr(rng);
        let checked = Csr::try_from_parts(
            a.nrows(),
            a.ncols(),
            a.row_ptr().to_vec(),
            a.col_idx().to_vec(),
            a.values().to_vec(),
        );
        assert!(checked.is_ok(), "{:?}", checked.err());
    });
}

/// `a.transpose()`'s arrays are `a`'s CSC arrays, so transposing twice is
/// the CSR → CSC → CSR round trip.
#[test]
fn csr_csc_round_trip() {
    for_each_case(0x5BA5_0002, CASES, |rng| {
        let a = random_csr(rng);
        assert_eq!(a.transpose().transpose(), a);
    });
}

#[test]
fn csr_coo_round_trip() {
    for_each_case(0x5BA5_0003, CASES, |rng| {
        let a = random_csr(rng);
        assert_eq!(a.to_coo().to_csr(), a);
    });
}

#[test]
fn transpose_is_involutive() {
    for_each_case(0x5BA5_0004, CASES, |rng| {
        let a = random_csr(rng);
        assert_eq!(a.transpose().transpose(), a);
    });
}

#[test]
fn all_kernels_match_dense_reference() {
    for_each_case(0x5BA5_0005, CASES, |rng| {
        let a = random_csr(rng);
        let x: Vec<f64> = (0..a.ncols()).map(|_| rng.range(-4, 4) as f64).collect();
        let want = a.to_dense().matvec(&x);
        for k in SpmvKernel::ALL {
            let got = recode_sparse::spmv::spmv_with(k, &a, &x);
            for (g, w) in got.iter().zip(&want) {
                // Integer-valued inputs keep every kernel exact.
                assert!(approx_eq(*g, *w, 1e-12), "{k:?}: {g} vs {w}");
            }
        }
    });
}

#[test]
fn matrix_market_round_trip() {
    for_each_case(0x5BA5_0006, CASES, |rng| {
        let a = random_csr(rng);
        let mut buf = Vec::new();
        recode_sparse::io::write_matrix_market(&a, &mut buf).unwrap();
        let b = recode_sparse::io::read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(a, b);
    });
}

#[test]
fn rcm_is_always_a_valid_permutation() {
    for_each_case(0x5BA5_0007, CASES, |rng| {
        let a = random_csr(rng);
        if a.nrows() != a.ncols() {
            return;
        }
        // Constructing the Permutation validates bijectivity internally.
        let perm = reverse_cuthill_mckee(&a);
        assert_eq!(perm.len(), a.nrows());
        let b = perm.apply_symmetric(&a);
        assert_eq!(b.nnz(), a.nnz());
        // Spectra are preserved under symmetric permutation; cheap proxy:
        // multiset of values and row-count preserved.
        let mut va: Vec<u64> = a.values().iter().map(|v| v.to_bits()).collect();
        let mut vb: Vec<u64> = b.values().iter().map(|v| v.to_bits()).collect();
        va.sort_unstable();
        vb.sort_unstable();
        assert_eq!(va, vb);
    });
}

#[test]
fn nnz_blocks_partition_exactly() {
    for_each_case(0x5BA5_0008, CASES, |rng| {
        let a = random_csr(rng);
        let bs = 1 + rng.below(39);
        let mut expected_start = 0usize;
        for b in &a.nnz_blocks(bs) {
            assert_eq!(b.start, expected_start);
            assert!(b.end - b.start <= bs);
            assert!(b.end > b.start);
            expected_start = b.end;
        }
        assert_eq!(expected_start, a.nnz());
    });
}

#[test]
fn identity_permutation_roundtrip() {
    for n in 1..30 {
        let inv = Permutation::identity(n).inverse();
        for (i, &v) in inv.iter().enumerate() {
            assert_eq!(v as usize, i);
        }
    }
}

#[test]
fn all_formats_round_trip_and_agree_on_spmv() {
    for_each_case(0x5BA5_0009, CASES, |rng| {
        let a = random_csr(rng);
        let c = 1 + rng.below(8);
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i % 5) as f64) - 2.0).collect();
        let want = a.to_dense().matvec(&x);
        let close = |got: &[f64]| {
            got.iter().zip(&want).all(|(g, w)| (g - w).abs() <= 1e-9 * w.abs().max(1.0))
        };

        let ell = Ell::from_csr(&a).unwrap();
        assert_eq!(ell.to_csr(), a);
        let mut y = vec![0.0; a.nrows()];
        ell.spmv_into(&x, &mut y);
        assert!(close(&y));

        let sell = SellCs::from_csr(&a, c, 4 * c).unwrap();
        assert_eq!(sell.to_csr(), a);
        sell.spmv_into(&x, &mut y);
        assert!(close(&y));

        let bb = BitmaskBlockCsr::from_csr(&a).unwrap();
        assert_eq!(bb.to_csr(), a);
        bb.spmv_into(&x, &mut y);
        assert!(close(&y));

        let v = VarintCsr::from_csr(&a).unwrap();
        assert_eq!(v.to_csr(), a);
        v.spmv_into(&x, &mut y);
        assert!(close(&y));
    });
}

#[test]
fn solvers_are_consistent_on_random_spd_systems() {
    for_each_case(0x5BA5_000A, CASES, |rng| {
        // Build an SPD matrix: tridiagonal Laplacian + random diagonal boost.
        let n = 4 + rng.below(36);
        let mut coo = Coo::new(n, n).unwrap();
        for i in 0..n {
            coo.push(i, i, 4.0 + rng.below(8) as f64).unwrap();
            if i > 0 {
                coo.push(i, i - 1, -1.0).unwrap();
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
            }
        }
        let a = coo.to_csr();
        let b: Vec<f64> = (0..n).map(|i| ((i % 3) as f64) - 1.0).collect();
        let cg =
            recode_sparse::solve::conjugate_gradient(&a, &b, SpmvKernel::Serial, 1e-11, 10 * n);
        assert!(cg.converged, "CG residual {}", cg.residual);
        let ja = recode_sparse::solve::jacobi(&a, &b, SpmvKernel::Serial, 1e-12, 20_000);
        assert!(ja.converged, "Jacobi residual {}", ja.residual);
        for (u, v) in cg.x.iter().zip(&ja.x) {
            assert!((u - v).abs() < 1e-6, "{u} vs {v}");
        }
    });
}
