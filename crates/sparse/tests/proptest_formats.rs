//! Property tests (seeded cases through `for_each_case`; a failure prints
//! `(seed, case)`) pinning the grown kernel formats: CSR → SELL-C-σ and
//! CSR → partially-diagonal must round-trip the exact (row, col, value)
//! multiset, and neither padding (SELL-C-σ's PAD slots) nor splitting
//! (partially-diagonal's dense-run extraction) may change `y = A·x`
//! relative to the CSR kernels — across arbitrary random matrices and the
//! structural edge cases (empty rows, singleton rows, fully dense rows,
//! explicitly stored zeros).

use recode_sparse::formats::{PartialDiag, SellCs};
use recode_sparse::prelude::*;
use recode_sparse::util::{for_each_case, SplitMix64};

const CASES: usize = 96;

/// A random matrix up to 24x24 with up to 120 entries (duplicates allowed;
/// integer values keep kernel comparisons exact).
fn random_csr(rng: &mut SplitMix64) -> Csr {
    let (nrows, ncols) = (1 + rng.below(23), 1 + rng.below(23));
    let mut coo = Coo::new(nrows, ncols).unwrap();
    for _ in 0..rng.below(120) {
        coo.push(rng.below(nrows), rng.below(ncols), rng.range(-8, 8) as f64).unwrap();
    }
    coo.to_csr()
}

/// A partially-diagonal occupancy threshold in {0.1, 0.2, …, 1.0}.
fn threshold(rng: &mut SplitMix64) -> f64 {
    (1 + rng.below(10)) as f64 / 10.0
}

/// The (row, col, value-bits) multiset of a CSR matrix, sorted.
fn triplets(a: &Csr) -> Vec<(usize, u32, u64)> {
    let mut out = Vec::with_capacity(a.nnz());
    for r in 0..a.nrows() {
        let (cols, vals) = a.row(r);
        for (c, v) in cols.iter().zip(vals) {
            out.push((r, *c, v.to_bits()));
        }
    }
    out.sort_unstable();
    out
}

/// A matrix guaranteed to hold the structural edge cases: row 0 fully
/// dense, row 1 empty, row 2 a singleton, the rest sparse.
fn edge_case_matrix(n: usize, extra: &[(usize, usize, f64)]) -> Csr {
    let mut coo = Coo::new(n, n).unwrap();
    for c in 0..n {
        coo.push(0, c, 1.0 + c as f64).unwrap();
    }
    coo.push(2, n / 2, -3.0).unwrap();
    for &(r, c, v) in extra {
        if r != 1 {
            coo.push(r.min(n - 1), c.min(n - 1), v).unwrap();
        }
    }
    coo.to_csr()
}

#[test]
fn sellcs_round_trips_the_exact_multiset() {
    for_each_case(0xF0A7_0001, CASES, |rng| {
        let a = random_csr(rng);
        let (c, w) = (1 + rng.below(8), 1 + rng.below(4));
        let back = SellCs::from_csr(&a, c, w * c).unwrap().to_csr();
        assert_eq!(back, a);
        assert_eq!(triplets(&back), triplets(&a));
    });
}

#[test]
fn pdiag_round_trips_the_exact_multiset() {
    for_each_case(0xF0A7_0002, CASES, |rng| {
        let a = random_csr(rng);
        let p = PartialDiag::from_csr(&a, threshold(rng)).unwrap();
        let back = p.to_csr();
        assert_eq!(back, a);
        assert_eq!(triplets(&back), triplets(&a));
        assert_eq!(p.nnz(), a.nnz());
    });
}

#[test]
fn sellcs_padding_never_changes_spmv() {
    for_each_case(0xF0A7_0003, CASES, |rng| {
        // SELL-C-σ keeps per-row left-to-right accumulation, so it is
        // bit-identical to serial CSR — padding contributes exact zeros.
        let a = random_csr(rng);
        let c = 1 + rng.below(8);
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i % 7) as f64) - 3.0).collect();
        let mut y = vec![0.0; a.nrows()];
        SellCs::from_csr(&a, c, 4 * c).unwrap().spmv_into(&x, &mut y);
        assert_eq!(y, spmv(&a, &x));
    });
}

#[test]
fn pdiag_split_never_changes_spmv() {
    for_each_case(0xF0A7_0004, CASES, |rng| {
        // The diagonal/remainder split reassociates mixed rows, so the
        // oracle is a tolerance, not bit equality.
        let a = random_csr(rng);
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i % 7) as f64) - 3.0).collect();
        let mut y = vec![0.0; a.nrows()];
        PartialDiag::from_csr(&a, threshold(rng)).unwrap().spmv_into(&x, &mut y);
        for (g, w) in y.iter().zip(&spmv(&a, &x)) {
            assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{g} vs {w}");
        }
    });
}

#[test]
fn edge_case_rows_survive_both_formats() {
    for_each_case(0xF0A7_0005, CASES, |rng| {
        // Fully dense row 0, empty row 1, singleton row 2 — the shapes
        // that break padding and window-sorting logic first.
        let n = 4 + rng.below(20);
        let c = 1 + rng.below(8);
        let extra: Vec<(usize, usize, f64)> = (0..rng.below(40))
            .map(|_| (3 + rng.below(21), rng.below(24), rng.range(-4, 5) as f64))
            .collect();
        let a = edge_case_matrix(n, &extra);
        assert_eq!(a.row(0).0.len(), n, "row 0 must be fully dense");
        assert_eq!(a.row(1).0.len(), 0, "row 1 must be empty");

        let s = SellCs::from_csr(&a, c, 4 * c).unwrap();
        assert_eq!(s.to_csr(), a);
        let p = PartialDiag::from_csr(&a, threshold(rng)).unwrap();
        assert_eq!(p.to_csr(), a);

        let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let want = spmv(&a, &x);
        let mut y = vec![0.0; n];
        s.spmv_into(&x, &mut y);
        assert_eq!(y, want);
        p.spmv_into(&x, &mut y);
        for (g, w) in y.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{g} vs {w}");
        }
    });
}

/// Explicitly stored zeros are part of the multiset contract: the
/// partially-diagonal split must carry them through both the extracted
/// diagonals (via its presence mask) and the remainder.
#[test]
fn pdiag_preserves_explicitly_stored_zeros() {
    let a = Csr::try_from_parts(
        4,
        4,
        vec![0, 2, 4, 5, 7],
        vec![0, 1, 1, 2, 2, 0, 3],
        vec![1.0, 0.0, 0.0, 2.0, 0.0, 5.0, 0.0],
    )
    .unwrap();
    for t in [0.3, 0.6, 1.0] {
        let p = PartialDiag::from_csr(&a, t).unwrap();
        assert_eq!(p.to_csr(), a, "threshold {t}");
        assert_eq!(p.nnz(), 7, "threshold {t}");
    }
}

/// Degenerate shapes: empty matrices and single-row/column strips.
#[test]
fn degenerate_shapes_round_trip() {
    let shapes: Vec<Csr> = vec![
        Csr::try_from_parts(3, 3, vec![0, 0, 0, 0], vec![], vec![]).unwrap(),
        Csr::try_from_parts(1, 5, vec![0, 3], vec![0, 2, 4], vec![1.0, -2.0, 3.0]).unwrap(),
        Csr::try_from_parts(5, 1, vec![0, 1, 1, 2, 2, 3], vec![0, 0, 0], vec![4.0, 5.0, 6.0])
            .unwrap(),
    ];
    for a in &shapes {
        let s = SellCs::from_csr(a, 4, 8).unwrap();
        assert_eq!(&s.to_csr(), a);
        let p = PartialDiag::from_csr(a, 0.6).unwrap();
        assert_eq!(&p.to_csr(), a);
    }
}
