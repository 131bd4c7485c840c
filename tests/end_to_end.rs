//! Cross-crate integration: generators → codec → UDP simulator → SpMV,
//! exercised through the public facade exactly as an application would.

use recode_spmv::codec::pipeline::{CompressedMatrix, MatrixCodecConfig};
use recode_spmv::core::corpus::{corpus, CorpusScale};
use recode_spmv::prelude::*;
use recode_spmv::sparse::io::{read_matrix_market, write_matrix_market};
use recode_spmv::sparse::spmv::{spmv_with, SpmvKernel};

/// Every generator family survives the full compress → UDP-decode → SpMV
/// path bit-exactly.
#[test]
fn every_family_round_trips_through_the_heterogeneous_system() {
    let sys = SystemConfig::ddr4();
    // One entry per family from the deterministic corpus.
    let entries = corpus(CorpusScale::Small, 77);
    let mut seen = std::collections::HashSet::new();
    for e in &entries {
        if !seen.insert(e.family) {
            continue;
        }
        let a = e.generate();
        let recoded = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh())
            .unwrap_or_else(|err| panic!("{}: {err}", e.name));
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i % 13) as f64) - 6.0).collect();
        let (y, stats) = recoded
            .spmv(&sys, SpmvKernel::Serial, &x)
            .unwrap_or_else(|err| panic!("{}: {err}", e.name));
        assert_eq!(y, spmv(&a, &x), "{}", e.name);
        assert!(stats.accel.makespan_cycles > 0, "{}", e.name);
        if seen.len() == 11 {
            break;
        }
    }
    assert!(seen.len() >= 10, "covered families: {seen:?}");
}

/// MatrixMarket input feeds the same pipeline (real TAMU matrices drop in).
#[test]
fn matrix_market_file_flows_through_compression_and_udp_decode() {
    let a = generate(
        &GenSpec::FemBand {
            n: 300,
            band: 9,
            fill: 0.5,
            values: ValueModel::MixedRepeated { distinct: 20 },
        },
        3,
    );
    let mut mm = Vec::new();
    write_matrix_market(&a, &mut mm).unwrap();
    let b = read_matrix_market(mm.as_slice()).unwrap();
    assert_eq!(a, b);
    let recoded = RecodedSpmv::new(&b, MatrixCodecConfig::udp_dsh()).unwrap();
    let (c, _) = recoded.decompress_via_udp(&SystemConfig::ddr4()).unwrap();
    assert_eq!(c, a);
}

/// The two codec configurations and all kernels agree on the same matrix.
#[test]
fn all_kernels_and_configs_agree() {
    let a = generate(
        &GenSpec::Circuit {
            n: 900,
            avg_deg: 4.0,
            hubs: 3,
            values: ValueModel::QuantizedGaussian { levels: 64 },
        },
        5,
    );
    let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64).cos()).collect();
    let want = spmv(&a, &x);
    let sys = SystemConfig::ddr4();
    for cfg in
        [MatrixCodecConfig::udp_dsh(), MatrixCodecConfig::udp_ds(), MatrixCodecConfig::cpu_snappy()]
    {
        let recoded = RecodedSpmv::new(&a, cfg).unwrap();
        let (got, _) = recoded.spmv(&sys, SpmvKernel::Serial, &x).unwrap();
        assert_eq!(got, want);
    }
    for k in SpmvKernel::ALL {
        let got = spmv_with(k, &a, &x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{k:?}");
        }
    }
}

/// Serialized compressed matrices decode after a JSON round trip (storage
/// format stability).
#[test]
fn compressed_matrix_survives_serialization() {
    let a = generate(
        &GenSpec::Stencil3D {
            nx: 12,
            ny: 12,
            nz: 12,
            points: 7,
            values: ValueModel::StencilCoeffs,
        },
        8,
    );
    let cm = CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh()).unwrap();
    let cm2 = CompressedMatrix::from_bytes(&cm.to_bytes()).unwrap();
    let recoded = RecodedSpmv::from_compressed(cm2).unwrap();
    let (b, _) = recoded.decompress_via_udp(&SystemConfig::ddr4()).unwrap();
    assert_eq!(b, a);
}

/// RCM reordering composes with the pipeline and never breaks round trips.
#[test]
fn rcm_reordered_matrices_round_trip() {
    use recode_spmv::sparse::reorder::reverse_cuthill_mckee;
    let a =
        generate(&GenSpec::SmallWorld { n: 500, k: 3, rewire: 0.05, values: ValueModel::Ones }, 13);
    let perm = reverse_cuthill_mckee(&a);
    let b = perm.apply_symmetric(&a);
    let recoded = RecodedSpmv::new(&b, MatrixCodecConfig::udp_dsh()).unwrap();
    let (c, _) = recoded.decompress_via_udp(&SystemConfig::ddr4()).unwrap();
    assert_eq!(c, b);
}

/// HBM2 and DDR4 systems produce identical *functional* results; only the
/// modeled statistics differ.
#[test]
fn memory_system_choice_is_functionally_transparent() {
    let a = generate(
        &GenSpec::MultiDiagonal {
            n: 600,
            offsets: vec![-3, 0, 3],
            values: ValueModel::MixedRepeated { distinct: 5 },
        },
        21,
    );
    let recoded = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
    let x = vec![0.5; a.ncols()];
    let (y_ddr, s_ddr) = recoded.spmv(&SystemConfig::ddr4(), SpmvKernel::Serial, &x).unwrap();
    let (y_hbm, s_hbm) = recoded.spmv(&SystemConfig::hbm2(), SpmvKernel::Serial, &x).unwrap();
    assert_eq!(y_ddr, y_hbm);
    assert!(s_hbm.mem_stream_seconds < s_ddr.mem_stream_seconds, "HBM streams 10x faster");
    assert_eq!(s_ddr.accel.makespan_cycles, s_hbm.accel.makespan_cycles);
}
