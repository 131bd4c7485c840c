//! Synthetic stand-ins for the paper's seven representative matrices
//! (§IV-B): copter2, g7jac160, gas_sensor, m3dc1_a30, matrix-new_3,
//! shipsec1, xenon1 — used for the memory-power studies (Figs. 16/17) and
//! the per-matrix decompression bars (Fig. 12).
//!
//! The real matrices live in the TAMU/SuiteSparse collection; each stand-in
//! matches the published dimensions and non-zero count (approximate where
//! we could not verify them) and the structural *class* of its original, so
//! compression behaviour is comparable. See DESIGN.md §3, substitution 2.

use recode_sparse::gen::{generate, GenSpec, ValueModel};
use recode_sparse::Csr;

/// Descriptor of one representative matrix.
#[derive(Debug, Clone)]
pub struct Representative {
    /// SuiteSparse name of the original.
    pub name: &'static str,
    /// Application domain of the original.
    pub domain: &'static str,
    /// Dimension of the original (approximate where unpublished).
    pub n: usize,
    /// Non-zeros of the original (approximate where unpublished).
    pub nnz: usize,
    /// Generator family used for the stand-in.
    pub family: &'static str,
    /// Value model for the stand-in — chosen per matrix so the seven span
    /// the paper's reported 30-84% per-matrix power-saving spread (i.e.
    /// value entropy from near-incompressible to highly repetitive).
    pub values: ValueModel,
}

/// The seven matrices, with their published (or approximated) sizes.
pub fn catalog() -> Vec<Representative> {
    vec![
        Representative {
            name: "copter2",
            domain: "CFD: helicopter rotor mesh (FEM)",
            n: 55_476,
            nnz: 759_952,
            family: "femband",
            values: ValueModel::QuantizedGaussian { levels: 65535 },
        },
        Representative {
            name: "g7jac160",
            domain: "economics: Jacobian from a general-equilibrium model",
            n: 47_430,
            nnz: 656_616,
            family: "blockjac",
            values: ValueModel::UniformRandom,
        },
        Representative {
            name: "gas_sensor",
            domain: "microelectromechanical device simulation (3D FEM)",
            n: 66_917,
            nnz: 1_703_365,
            family: "stencil3d",
            values: ValueModel::QuantizedGaussian { levels: 65535 },
        },
        Representative {
            name: "m3dc1_a30",
            // Size approximated: the M3D-C1 fusion matrices in this series
            // are ~220k rows with ~60-70 nnz/row.
            domain: "fusion plasma PDE (M3D-C1)",
            n: 220_000,
            nnz: 14_000_000,
            family: "femband",
            values: ValueModel::QuantizedGaussian { levels: 2048 },
        },
        Representative {
            name: "matrix-new_3",
            domain: "semiconductor device simulation",
            n: 125_329,
            nnz: 893_984,
            family: "multidiag",
            values: ValueModel::MixedRepeated { distinct: 6 },
        },
        Representative {
            name: "shipsec1",
            domain: "structural: ship section stiffness (FEM)",
            n: 140_874,
            nnz: 7_813_404,
            family: "femband",
            values: ValueModel::MixedRepeated { distinct: 1000 },
        },
        Representative {
            name: "xenon1",
            domain: "materials: complex zeolite / xenon diffusion",
            n: 48_600,
            nnz: 1_181_120,
            family: "stencil3d",
            values: ValueModel::QuantizedGaussian { levels: 65535 },
        },
    ]
}

/// Generates the stand-in for `rep`, scaled by `scale` (1.0 = published
/// size; smaller values shrink the dimension while preserving nnz/row, so
/// compression behaviour is stable while experiments stay fast).
pub fn generate_representative(rep: &Representative, scale: f64, seed: u64) -> Csr {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    let n = ((rep.n as f64 * scale) as usize).max(256);
    let per_row = rep.nnz as f64 / rep.n as f64;
    match rep.family {
        "femband" => {
            // nnz/row = 1 + 2*band*fill; fix fill = 0.5.
            let band = (((per_row - 1.0) / 2.0 / 0.5).round() as usize).max(2);
            generate(&GenSpec::FemBand { n, band, fill: 0.5, values: rep.values }, seed)
        }
        "blockjac" => {
            let block = (per_row.round() as usize).clamp(4, 48);
            let nblocks = (n / block).max(1);
            generate(
                &GenSpec::BlockJacobian { nblocks, block, coupling: 1.0, values: rep.values },
                seed,
            )
        }
        "stencil3d" => {
            // 27-point stencils give ~26 nnz/row; perforate via dimension to
            // approximate per_row by choosing 7 or 27 points.
            let points = if per_row > 15.0 { 27 } else { 7 };
            let side = (n as f64).cbrt().round() as usize;
            generate(
                &GenSpec::Stencil3D {
                    nx: side.max(4),
                    ny: side.max(4),
                    nz: side.max(4),
                    points,
                    values: rep.values,
                },
                seed,
            )
        }
        "multidiag" => {
            let k = (per_row.round() as usize).clamp(3, 15) | 1; // odd
            let mut offsets: Vec<i64> = vec![0];
            let half = (k - 1) / 2;
            for i in 1..=half {
                let off = (i * i) as i64; // spreading diagonals
                offsets.push(off);
                offsets.push(-off);
            }
            generate(&GenSpec::MultiDiagonal { n, offsets, values: rep.values }, seed)
        }
        other => panic!("unknown representative family {other}"),
    }
}

/// Generates all seven at `scale`, returning `(descriptor, matrix)` pairs.
pub fn generate_all(scale: f64, seed: u64) -> Vec<(Representative, Csr)> {
    catalog()
        .into_iter()
        .enumerate()
        .map(|(i, rep)| {
            let m = generate_representative(&rep, scale, seed ^ (i as u64) << 8);
            (rep, m)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_the_papers_seven() {
        let names: Vec<&str> = catalog().iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            vec![
                "copter2",
                "g7jac160",
                "gas_sensor",
                "m3dc1_a30",
                "matrix-new_3",
                "shipsec1",
                "xenon1"
            ]
        );
    }

    #[test]
    fn standins_match_density_class_at_small_scale() {
        for (rep, m) in generate_all(0.02, 7) {
            let want_per_row = rep.nnz as f64 / rep.n as f64;
            let got_per_row = m.nnz() as f64 / m.nrows() as f64;
            assert!(
                got_per_row > want_per_row / 3.0 && got_per_row < want_per_row * 3.0,
                "{}: wanted ~{want_per_row:.1} nnz/row, got {got_per_row:.1}",
                rep.name
            );
            assert!(m.nnz() > 0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_all(0.02, 3);
        let b = generate_all(0.02, 3);
        for ((_, ma), (_, mb)) in a.iter().zip(&b) {
            assert_eq!(ma, mb);
        }
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_rejected() {
        let rep = &catalog()[0];
        let _ = generate_representative(rep, 0.0, 1);
    }
}
