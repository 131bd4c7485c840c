//! Pins `generate(spec, seed)` for every `GenSpec` family: one FNV-1a digest
//! of the whole `Csr` each. The values were taken from the last build that
//! drew its streams through the `rand` stand-in (`bench/shims/rand`), so a
//! change to `util::SplitMix64` or to a generator's draw order fails here
//! before it silently moves a `paper_claims` threshold or a baseline.

use recode_sparse::gen::{generate, GenSpec, KroneckerBase, ValueModel};
use recode_sparse::Csr;

fn digest(a: &Csr) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(a.nrows() as u64);
    eat(a.ncols() as u64);
    a.row_ptr().iter().for_each(|&p| eat(p as u64));
    a.col_idx().iter().for_each(|&c| eat(u64::from(c)));
    a.values().iter().for_each(|v| eat(v.to_bits()));
    h
}

fn pinned() -> Vec<(GenSpec, u64)> {
    vec![
        (
            GenSpec::Stencil2D { nx: 16, ny: 16, points: 5, values: ValueModel::StencilCoeffs },
            0x118b_ec9a_f6e2_79d7,
        ),
        (
            GenSpec::Stencil3D {
                nx: 5,
                ny: 6,
                nz: 7,
                points: 7,
                values: ValueModel::QuantizedGaussian { levels: 16 },
            },
            0x1740_82bd_3015_d6a7,
        ),
        (
            GenSpec::MultiDiagonal {
                n: 64,
                offsets: vec![-8, -1, 0, 1, 8],
                values: ValueModel::MixedRepeated { distinct: 4 },
            },
            0x90ff_54d7_3cca_c718,
        ),
        (
            GenSpec::FemBand {
                n: 80,
                band: 10,
                fill: 0.4,
                values: ValueModel::MixedRepeated { distinct: 12 },
            },
            0x9b7a_f38e_56ca_c690,
        ),
        (
            GenSpec::BlockJacobian {
                nblocks: 8,
                block: 9,
                coupling: 1.5,
                values: ValueModel::UniformRandom,
            },
            0x60e2_f509_7e02_3531,
        ),
        (
            GenSpec::Circuit {
                n: 120,
                avg_deg: 3.0,
                hubs: 3,
                values: ValueModel::QuantizedGaussian { levels: 64 },
            },
            0xe664_5c3b_dabe_49e0,
        ),
        (
            GenSpec::Rmat { scale: 7, edge_factor: 8, values: ValueModel::Ones },
            0x74bc_db1b_4ec6_0e0f,
        ),
        (
            GenSpec::ErdosRenyi { n: 100, avg_deg: 6.0, values: ValueModel::UniformRandom },
            0x90db_efaf_1054_6ac9,
        ),
        (
            GenSpec::Kronecker { base: KroneckerBase::Star, power: 4, values: ValueModel::Ones },
            0x164a_abee_3a98_84d3,
        ),
        (
            GenSpec::SmallWorld { n: 90, k: 3, rewire: 0.1, values: ValueModel::Ones },
            0x8b2c_8bd3_9b62_e3d3,
        ),
        (GenSpec::Laplacian { scale: 6, edge_factor: 4 }, 0x8bda_6073_216e_4404),
    ]
}

#[test]
fn every_family_reproduces_its_pinned_stream() {
    for (spec, want) in pinned() {
        let got = digest(&generate(&spec, 42));
        assert_eq!(got, want, "family {}: digest {got:#018x}", spec.family());
    }
}
