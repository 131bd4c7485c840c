//! Differential SpMV suite: every kernel and every executor must agree on
//! every matrix family.
//!
//! For each matrix in the gallery (one instance per `sparse::gen` family
//! plus the MatrixMarket fixtures under `tests/fixtures/`), `y = A x` is
//! computed every way the system offers — all five CPU kernels (serial,
//! row-parallel, merge-path, SELL-C-σ, partially-diagonal), the batch
//! recoded executor under each of those kernels, and the tile walker under
//! all four {overlap, cache} settings. The kernels, which may reassociate
//! row sums (merge-path, SELL-C-σ, partially-diagonal), must match the
//! serial reference to a 1e-10 relative tolerance; the tile walker adds
//! each row's products in storage order and must match it bit for bit.
//!
//! The `asym12.mtx` fixture is built to stress the grown kernels: a fully
//! dense row for SELL-C-σ's σ-window sorting, two broken diagonal runs for
//! partially-diagonal extraction, plus empty and singleton rows.

use recode_spmv::codec::faults::SplitMix64;
use recode_spmv::prelude::*;
use recode_spmv::sparse::gen::KroneckerBase;
use recode_spmv::sparse::spmv::spmv_with;

const REL_TOL: f64 = 1e-10;

/// One small instance of every generator family (11 of them, matching
/// `GenSpec::family()`).
fn gallery() -> Vec<(String, Csr)> {
    let specs: Vec<GenSpec> = vec![
        GenSpec::Stencil2D { nx: 24, ny: 24, points: 5, values: ValueModel::StencilCoeffs },
        GenSpec::Stencil2D { nx: 16, ny: 16, points: 9, values: ValueModel::StencilCoeffs },
        GenSpec::Stencil3D { nx: 8, ny: 8, nz: 8, points: 7, values: ValueModel::StencilCoeffs },
        GenSpec::MultiDiagonal {
            n: 400,
            offsets: vec![-19, -1, 0, 1, 19],
            values: ValueModel::MixedRepeated { distinct: 4 },
        },
        GenSpec::FemBand {
            n: 300,
            band: 12,
            fill: 0.5,
            values: ValueModel::QuantizedGaussian { levels: 64 },
        },
        GenSpec::BlockJacobian {
            nblocks: 30,
            block: 8,
            coupling: 2.0,
            values: ValueModel::MixedRepeated { distinct: 6 },
        },
        GenSpec::Circuit { n: 350, avg_deg: 3.0, hubs: 4, values: ValueModel::Ones },
        GenSpec::Rmat { scale: 8, edge_factor: 6, values: ValueModel::Ones },
        GenSpec::ErdosRenyi {
            n: 300,
            avg_deg: 5.0,
            values: ValueModel::MixedRepeated { distinct: 3 },
        },
        GenSpec::Kronecker { base: KroneckerBase::Star, power: 5, values: ValueModel::Ones },
        GenSpec::SmallWorld { n: 256, k: 3, rewire: 0.1, values: ValueModel::Ones },
        GenSpec::Laplacian { scale: 8, edge_factor: 4 },
    ];
    let mut out: Vec<(String, Csr)> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let a = generate(spec, 2019 + i as u64);
            (format!("{}#{}", spec.family(), i), a)
        })
        .collect();
    for fixture in ["mixed9.mtx", "sym6.mtx", "asym12.mtx"] {
        let path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
        let a = recode_spmv::sparse::io::read_matrix_market_path(&path)
            .unwrap_or_else(|e| panic!("{path}: {e}"));
        out.push((fixture.to_string(), a));
    }
    out
}

/// Deterministic dense vector in [-1, 1) — a stronger differential probe
/// than all-ones (catches column-index mixups that ones would mask).
fn probe_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.f64() * 2.0 - 1.0).collect()
}

fn assert_close(name: &str, how: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{name}/{how}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let err = (g - w).abs() / w.abs().max(1.0);
        assert!(
            err <= REL_TOL,
            "{name}/{how}: row {i} diverged: got {g}, want {w} (rel err {err:.3e})"
        );
    }
}

#[test]
fn every_kernel_and_executor_agrees_on_every_family() {
    let sys = SystemConfig::ddr4();
    for (name, a) in gallery() {
        let x = probe_vector(a.ncols(), 0xD1FF ^ a.nnz() as u64);
        let y_ref = spmv(&a, &x);

        for kernel in SpmvKernel::ALL {
            let y = spmv_with(kernel, &a, &x);
            assert_close(&name, &format!("{kernel:?}"), &y, &y_ref);
        }

        let recoded = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh())
            .unwrap_or_else(|e| panic!("{name}: compress failed: {e}"));
        for kernel in SpmvKernel::ALL {
            let (y_batch, _) = recoded
                .spmv(&sys, kernel, &x)
                .unwrap_or_else(|e| panic!("{name}: batch executor ({kernel:?}) failed: {e}"));
            assert_close(&name, &format!("batch-recoded/{kernel:?}"), &y_batch, &y_ref);
        }

        for overlap in [false, true] {
            for cache_blocks in [0usize, 1024] {
                let config = OverlapConfig { overlap, cache_blocks, ..OverlapConfig::default() };
                let (y, stats) = OverlapExecutor::new(&recoded, config)
                    .spmv(&sys, &x)
                    .unwrap_or_else(|e| panic!("{name}: overlap executor failed: {e}"));
                let how = format!("tiled(overlap={overlap},cache={cache_blocks})");
                assert_eq!(y, y_ref, "{name}/{how}: not bit-exact");
                assert_eq!(stats.overlap.enabled, overlap, "{name}/{how}: mode flag drifted");
                if cache_blocks == 0 {
                    assert_eq!(
                        stats.overlap.cache_hits + stats.overlap.cache_misses,
                        0,
                        "{name}/{how}: disabled cache recorded traffic"
                    );
                }
            }
        }
    }
}

#[test]
fn fixtures_have_the_shapes_the_suite_relies_on() {
    let base = format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"));
    let mixed =
        recode_spmv::sparse::io::read_matrix_market_path(format!("{base}/mixed9.mtx")).unwrap();
    assert_eq!((mixed.nrows(), mixed.ncols(), mixed.nnz()), (9, 9, 21));
    // Row 6 (0-based 5) is empty; row 4 (0-based 3) is fully dense.
    assert_eq!(mixed.row_ptr()[6] - mixed.row_ptr()[5], 0);
    assert_eq!(mixed.row_ptr()[4] - mixed.row_ptr()[3], 9);

    let sym = recode_spmv::sparse::io::read_matrix_market_path(format!("{base}/sym6.mtx")).unwrap();
    assert_eq!((sym.nrows(), sym.ncols()), (6, 6));
    assert!(sym.nnz() > 10, "symmetric expansion should add mirrored entries");
    assert!(sym.is_symmetric(1e-12));

    let asym =
        recode_spmv::sparse::io::read_matrix_market_path(format!("{base}/asym12.mtx")).unwrap();
    assert_eq!((asym.nrows(), asym.ncols(), asym.nnz()), (12, 12, 31));
    // Row 2 (0-based 1) is fully dense — the σ-sorting stressor; rows 10
    // and 12 (0-based 9, 11) are empty; row 11 (0-based 10) is a singleton.
    assert_eq!(asym.row_ptr()[2] - asym.row_ptr()[1], 12);
    assert_eq!(asym.row_ptr()[10] - asym.row_ptr()[9], 0);
    assert_eq!(asym.row_ptr()[12] - asym.row_ptr()[11], 0);
    assert_eq!(asym.row_ptr()[11] - asym.row_ptr()[10], 1);

    // Partially-diagonal extraction must find exactly the two planted runs
    // (main diagonal at 9/12 occupancy, +2 at 8/10) and nothing else.
    let p = recode_spmv::sparse::formats::PartialDiag::from_csr(&asym, 0.6).unwrap();
    assert_eq!(p.offsets(), &[0, 2]);
    assert_eq!(p.diag_nnz(), 17);

    // σ-window sorting must pay for itself against the dense row: a sorted
    // slicing wastes no more padding than an unsorted (σ = 1) one.
    let sorted = recode_spmv::sparse::formats::SellCs::from_csr(&asym, 4, 12).unwrap();
    let unsorted = recode_spmv::sparse::formats::SellCs::from_csr(&asym, 4, 1).unwrap();
    assert!(sorted.bytes_per_nnz() < unsorted.bytes_per_nnz());
}
