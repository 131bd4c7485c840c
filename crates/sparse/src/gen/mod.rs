//! Deterministic synthetic matrix generators.
//!
//! These families stand in for the TAMU/SuiteSparse collection (DESIGN.md
//! §3, substitution 1). The paper's §IV-B characterizes its 369-matrix
//! sample as spanning banded, diagonal, symmetric and unstructured matrices
//! from 2D/3D-geometry problems and from graph/optimization problems; the
//! families here cover the same spectrum:
//!
//! | family | TAMU analogue | structure |
//! |---|---|---|
//! | [`GenSpec::Stencil2D`]/[`GenSpec::Stencil3D`] | CFD, thermodynamics, electromagnetics | banded, symmetric |
//! | [`GenSpec::MultiDiagonal`] | model reduction, structured PDE | diagonal |
//! | [`GenSpec::FemBand`] | structural engineering (ship sections, frames) | variable band, symmetric |
//! | [`GenSpec::BlockJacobian`] | economics, chemical process simulation | block structure |
//! | [`GenSpec::Circuit`] | circuit simulation, power networks | near-diagonal + dense hub rows |
//! | [`GenSpec::Rmat`] | web/social graphs | power-law, unstructured |
//! | [`GenSpec::ErdosRenyi`] | random graphs/statistics | uniform, unstructured |
//! | [`GenSpec::Kronecker`] | synthetic graph benchmarks (Graph500) | self-similar |
//! | [`GenSpec::SmallWorld`] | networks with locality + long links | banded + noise |
//! | [`GenSpec::Laplacian`] | spectral methods on graphs | symmetric, diagonally dominant |
//!
//! Every generator is a pure function of `(spec, seed)` so corpora are
//! reproducible byte-for-byte.

mod application;
mod graphs;
mod structured;

use crate::util::SplitMix64;
use crate::{Coo, Csr};

/// How non-zero *values* are produced. Value entropy is a first-order input
/// to the paper's compression results (the value stream is 8 of the 12 raw
/// bytes per non-zero), so each family picks a model that matches its
/// real-world analogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueModel {
    /// All ones — pattern matrices and unweighted graphs.
    Ones,
    /// Classic stencil coefficients: positive diagonal, small set of
    /// negative off-diagonal values. Very low entropy, like assembled
    /// constant-coefficient PDE operators.
    StencilCoeffs,
    /// Values drawn from a table of `distinct` random doubles — models FEM
    /// assembly where a few element matrices repeat across the mesh.
    MixedRepeated {
        /// Number of distinct values in the table (>= 1).
        distinct: u16,
    },
    /// Gaussian-ish values rounded to `levels` quantization steps — models
    /// measured physical coefficients stored with limited precision.
    QuantizedGaussian {
        /// Quantization steps per unit (>= 1).
        levels: u16,
    },
    /// Full-entropy uniform doubles in `(0, 1]` — the adversarial case where
    /// value compression buys nothing.
    UniformRandom,
}

impl ValueModel {
    /// Assigns values to every stored entry of `a`, deterministically from
    /// `seed`, preserving structure.
    pub fn assign(self, a: &mut Csr, seed: u64) {
        let mut rng = SplitMix64::new(seed ^ 0x5eed_0001);
        // Snapshot structure before borrowing values mutably.
        let bands: Vec<i64> = a.iter().map(|(r, c, _)| c as i64 - r as i64).collect();
        let table: Vec<f64> = match self {
            ValueModel::MixedRepeated { distinct } => {
                let n = distinct.max(1) as usize;
                (0..n).map(|_| rng.range_f64(-4.0, 4.0)).collect()
            }
            _ => Vec::new(),
        };
        for (k, v) in a.values_mut().iter_mut().enumerate() {
            *v = match self {
                ValueModel::Ones => 1.0,
                ValueModel::StencilCoeffs => {
                    if bands[k] == 0 {
                        6.0
                    } else if bands[k].abs() == 1 {
                        -1.0
                    } else {
                        -0.5
                    }
                }
                ValueModel::MixedRepeated { .. } => table[rng.below(table.len())],
                ValueModel::QuantizedGaussian { levels } => {
                    let l = levels.max(1) as f64;
                    // Irwin–Hall approximation of a Gaussian.
                    let g: f64 = (0..6).map(|_| rng.range_f64(-0.5, 0.5)).sum();
                    (g * l).round() / l
                }
                ValueModel::UniformRandom => 1.0 - rng.f64(),
            };
            // Keep entries structurally non-zero.
            if *v == 0.0 {
                *v = 1.0 / 1024.0;
            }
        }
    }
}

/// Base pattern for [`GenSpec::Kronecker`] products.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KroneckerBase {
    /// 3-vertex star (hub-and-spoke growth).
    Star,
    /// 3-vertex chain (path-like growth).
    Chain,
    /// Fully connected 3-vertex pattern with self loops (dense growth).
    Dense,
}

/// A synthetic matrix family plus its parameters. See the module docs for
/// the TAMU analogue of each family.
#[derive(Debug, Clone, PartialEq)]
pub enum GenSpec {
    /// 2D grid stencil (`points` ∈ {5, 9}) on an `nx x ny` grid.
    Stencil2D {
        /// Grid width.
        nx: usize,
        /// Grid height.
        ny: usize,
        /// Stencil points: 5 or 9.
        points: u8,
        /// Value model.
        values: ValueModel,
    },
    /// 3D grid stencil (`points` ∈ {7, 27}) on an `nx x ny x nz` grid.
    Stencil3D {
        /// Grid extent in x.
        nx: usize,
        /// Grid extent in y.
        ny: usize,
        /// Grid extent in z.
        nz: usize,
        /// Stencil points: 7 or 27.
        points: u8,
        /// Value model.
        values: ValueModel,
    },
    /// `n x n` matrix with full diagonals at the given offsets.
    MultiDiagonal {
        /// Matrix dimension.
        n: usize,
        /// Diagonal offsets (0 = main diagonal).
        offsets: Vec<i64>,
        /// Value model.
        values: ValueModel,
    },
    /// Symmetric variable-band matrix: within a half-bandwidth `band`, each
    /// entry is present with probability `fill` — an FEM stiffness look-alike.
    FemBand {
        /// Matrix dimension.
        n: usize,
        /// Half bandwidth.
        band: usize,
        /// Within-band fill probability (0, 1].
        fill: f64,
        /// Value model.
        values: ValueModel,
    },
    /// Block-diagonal Jacobian with dense `block x block` blocks and sparse
    /// inter-block couplings (economic/chemical-process structure).
    BlockJacobian {
        /// Number of diagonal blocks.
        nblocks: usize,
        /// Block dimension.
        block: usize,
        /// Expected couplings per row outside the block.
        coupling: f64,
        /// Value model.
        values: ValueModel,
    },
    /// Circuit-like: sparse near-diagonal rows plus a few dense hub
    /// rows/columns (voltage rails).
    Circuit {
        /// Matrix dimension.
        n: usize,
        /// Average off-hub degree.
        avg_deg: f64,
        /// Number of dense hub nodes.
        hubs: usize,
        /// Value model.
        values: ValueModel,
    },
    /// RMAT power-law digraph adjacency with `2^scale` vertices and about
    /// `edge_factor * 2^scale` edges (Graph500 parameters a=0.57, b=c=0.19).
    Rmat {
        /// log2 of the vertex count.
        scale: u8,
        /// Edges per vertex.
        edge_factor: usize,
        /// Value model.
        values: ValueModel,
    },
    /// Erdős–Rényi digraph with `n` vertices, expected degree `avg_deg`.
    ErdosRenyi {
        /// Vertex count.
        n: usize,
        /// Expected out-degree.
        avg_deg: f64,
        /// Value model.
        values: ValueModel,
    },
    /// `power`-fold Kronecker product of a 3-vertex base pattern.
    Kronecker {
        /// Base pattern.
        base: KroneckerBase,
        /// Kronecker power (matrix dimension is `3^power`).
        power: u8,
        /// Value model.
        values: ValueModel,
    },
    /// Watts–Strogatz-style ring: each vertex links to `k` nearest
    /// neighbours, each link rewired to a random target with probability
    /// `rewire`.
    SmallWorld {
        /// Vertex count.
        n: usize,
        /// Nearest-neighbour links per side.
        k: usize,
        /// Rewiring probability.
        rewire: f64,
        /// Value model.
        values: ValueModel,
    },
    /// Graph Laplacian (`D - A`) of an RMAT graph — symmetric, diagonally
    /// dominant, integer-valued.
    Laplacian {
        /// log2 of the vertex count.
        scale: u8,
        /// Edges per vertex of the underlying RMAT graph.
        edge_factor: usize,
    },
}

impl GenSpec {
    /// Short family tag used in corpus listings (e.g. `stencil2d`).
    pub fn family(&self) -> &'static str {
        match self {
            GenSpec::Stencil2D { .. } => "stencil2d",
            GenSpec::Stencil3D { .. } => "stencil3d",
            GenSpec::MultiDiagonal { .. } => "multidiag",
            GenSpec::FemBand { .. } => "femband",
            GenSpec::BlockJacobian { .. } => "blockjac",
            GenSpec::Circuit { .. } => "circuit",
            GenSpec::Rmat { .. } => "rmat",
            GenSpec::ErdosRenyi { .. } => "erdos",
            GenSpec::Kronecker { .. } => "kron",
            GenSpec::SmallWorld { .. } => "smallworld",
            GenSpec::Laplacian { .. } => "laplacian",
        }
    }

    /// The value model this spec will apply (Laplacians define their own
    /// integer values).
    pub fn value_model(&self) -> Option<ValueModel> {
        match self {
            GenSpec::Stencil2D { values, .. }
            | GenSpec::Stencil3D { values, .. }
            | GenSpec::MultiDiagonal { values, .. }
            | GenSpec::FemBand { values, .. }
            | GenSpec::BlockJacobian { values, .. }
            | GenSpec::Circuit { values, .. }
            | GenSpec::Rmat { values, .. }
            | GenSpec::ErdosRenyi { values, .. }
            | GenSpec::Kronecker { values, .. }
            | GenSpec::SmallWorld { values, .. } => Some(*values),
            GenSpec::Laplacian { .. } => None,
        }
    }
}

/// Generates the matrix described by `spec`, deterministically from `seed`.
pub fn generate(spec: &GenSpec, seed: u64) -> Csr {
    let mut structure = match spec {
        GenSpec::Stencil2D { nx, ny, points, .. } => structured::stencil_2d(*nx, *ny, *points),
        GenSpec::Stencil3D { nx, ny, nz, points, .. } => {
            structured::stencil_3d(*nx, *ny, *nz, *points)
        }
        GenSpec::MultiDiagonal { n, offsets, .. } => structured::multi_diagonal(*n, offsets),
        GenSpec::FemBand { n, band, fill, .. } => structured::fem_band(*n, *band, *fill, seed),
        GenSpec::BlockJacobian { nblocks, block, coupling, .. } => {
            application::block_jacobian(*nblocks, *block, *coupling, seed)
        }
        GenSpec::Circuit { n, avg_deg, hubs, .. } => {
            application::circuit(*n, *avg_deg, *hubs, seed)
        }
        GenSpec::Rmat { scale, edge_factor, .. } => graphs::rmat(*scale, *edge_factor, seed),
        GenSpec::ErdosRenyi { n, avg_deg, .. } => graphs::erdos_renyi(*n, *avg_deg, seed),
        GenSpec::Kronecker { base, power, .. } => graphs::kronecker(*base, *power),
        GenSpec::SmallWorld { n, k, rewire, .. } => graphs::small_world(*n, *k, *rewire, seed),
        GenSpec::Laplacian { scale, edge_factor } => {
            return graphs::laplacian(*scale, *edge_factor, seed);
        }
    };
    if let Some(model) = spec.value_model() {
        model.assign(&mut structure, seed);
    }
    structure
}

/// Shared helper: dedup-and-convert a structure-only COO (all values 1.0)
/// into CSR where duplicate coordinates collapse to a single entry instead of
/// summing.
pub(crate) fn coo_pattern_to_csr(mut coo: Coo) -> Csr {
    coo.compact();
    let (rows, cols, _) = coo.triplets();
    let nrows = coo.nrows();
    let ncols = coo.ncols();
    let mut counts = vec![0usize; nrows];
    for &r in rows {
        counts[r as usize] += 1;
    }
    let row_ptr = crate::util::exclusive_prefix_sum(&counts);
    let mut col_idx = vec![0u32; cols.len()];
    let mut next = row_ptr.clone();
    for i in 0..cols.len() {
        let r = rows[i] as usize;
        col_idx[next[r]] = cols[i];
        next[r] += 1;
    }
    let values = vec![1.0; col_idx.len()];
    Csr::from_parts_unchecked(nrows, ncols, row_ptr, col_idx, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<GenSpec> {
        vec![
            GenSpec::Stencil2D { nx: 16, ny: 16, points: 5, values: ValueModel::StencilCoeffs },
            GenSpec::Stencil2D { nx: 8, ny: 12, points: 9, values: ValueModel::Ones },
            GenSpec::Stencil3D {
                nx: 5,
                ny: 6,
                nz: 7,
                points: 7,
                values: ValueModel::QuantizedGaussian { levels: 16 },
            },
            GenSpec::Stencil3D { nx: 4, ny: 4, nz: 4, points: 27, values: ValueModel::Ones },
            GenSpec::MultiDiagonal {
                n: 64,
                offsets: vec![-8, -1, 0, 1, 8],
                values: ValueModel::MixedRepeated { distinct: 4 },
            },
            GenSpec::FemBand {
                n: 80,
                band: 10,
                fill: 0.4,
                values: ValueModel::MixedRepeated { distinct: 12 },
            },
            GenSpec::BlockJacobian {
                nblocks: 8,
                block: 9,
                coupling: 1.5,
                values: ValueModel::UniformRandom,
            },
            GenSpec::Circuit {
                n: 120,
                avg_deg: 3.0,
                hubs: 3,
                values: ValueModel::QuantizedGaussian { levels: 64 },
            },
            GenSpec::Rmat { scale: 7, edge_factor: 8, values: ValueModel::Ones },
            GenSpec::ErdosRenyi { n: 100, avg_deg: 6.0, values: ValueModel::UniformRandom },
            GenSpec::Kronecker { base: KroneckerBase::Star, power: 4, values: ValueModel::Ones },
            GenSpec::SmallWorld { n: 90, k: 3, rewire: 0.1, values: ValueModel::Ones },
            GenSpec::Laplacian { scale: 6, edge_factor: 4 },
        ]
    }

    #[test]
    fn every_family_generates_a_valid_matrix() {
        for spec in specs() {
            let a = generate(&spec, 42);
            // Re-validate through the checked constructor.
            let b = Csr::try_from_parts(
                a.nrows(),
                a.ncols(),
                a.row_ptr().to_vec(),
                a.col_idx().to_vec(),
                a.values().to_vec(),
            );
            assert!(b.is_ok(), "family {} produced invalid CSR: {:?}", spec.family(), b.err());
            assert!(a.nnz() > 0, "family {} produced an empty matrix", spec.family());
            assert!(
                a.values().iter().all(|&v| v != 0.0 && v.is_finite()),
                "family {} produced zero/non-finite values",
                spec.family()
            );
        }
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        for spec in specs() {
            let a = generate(&spec, 7);
            let b = generate(&spec, 7);
            assert_eq!(a, b, "family {} not deterministic", spec.family());
        }
    }

    #[test]
    fn different_seeds_differ_for_random_families() {
        let spec = GenSpec::ErdosRenyi { n: 200, avg_deg: 5.0, values: ValueModel::UniformRandom };
        assert_ne!(generate(&spec, 1), generate(&spec, 2));
    }

    #[test]
    fn value_models_have_expected_entropy_ordering() {
        let mk = |values| {
            let spec = GenSpec::FemBand { n: 200, band: 12, fill: 0.5, values };
            let a = generate(&spec, 3);
            crate::stats::MatrixStats::compute(&a).value_byte_entropy
        };
        let ones = mk(ValueModel::Ones);
        let stencil = mk(ValueModel::StencilCoeffs);
        let repeated = mk(ValueModel::MixedRepeated { distinct: 8 });
        let random = mk(ValueModel::UniformRandom);
        // The 8 bytes of the f64 1.0 contain three distinct byte values, so
        // "all ones" still has ~1.06 bits/byte of byte-level entropy.
        assert!(ones < 1.5, "ones entropy {ones}");
        assert!(stencil < repeated, "stencil {stencil} vs repeated {repeated}");
        assert!(repeated < random, "repeated {repeated} vs random {random}");
        assert!(random > 5.0, "uniform doubles should be near-incompressible, got {random}");
    }

    #[test]
    fn family_tags_cover_all_eleven_families() {
        let mut tags: Vec<&str> = specs().iter().map(super::GenSpec::family).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 11, "expected one tag per family, got {tags:?}");
    }
}
