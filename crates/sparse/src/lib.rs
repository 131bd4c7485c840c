//! # recode-sparse — sparse matrix substrate
//!
//! The sparse-matrix foundation for the `recode-spmv` workspace, a
//! reproduction of *"Programmable Acceleration for Sparse Matrices in a
//! Data-movement Limited World"* (Rawal, Fang, Chien — IPDPS 2019).
//!
//! This crate provides everything the paper's evaluation needs below the
//! codec/accelerator layer:
//!
//! * **Formats** — [`Coo`], [`Csr`] and a small [`Dense`]
//!   reference type, with lossless
//!   conversions between them. `Csr` uses 4-byte column indices and 8-byte
//!   values, matching the paper's 12 bytes-per-non-zero baseline.
//! * **SpMV kernels** — the paper's basic CSR kernel (Fig. 2), a
//!   row-parallel kernel on scoped threads, and a merge-based kernel in the style of
//!   Merrill & Garland (the strongest CPU baseline the paper cites).
//! * **I/O** — a MatrixMarket reader/writer so real TAMU/SuiteSparse
//!   matrices can be dropped into any experiment.
//! * **Generators** — ten deterministic synthetic families standing in for
//!   the TAMU collection (see `DESIGN.md` §3 for the substitution
//!   rationale): stencils, FEM-like variable bands, multi-diagonal,
//!   block-Jacobian, circuit, RMAT, Erdős–Rényi, Kronecker, Laplacian and
//!   rank-structured matrices, each with a controllable value model.
//! * **Reordering** — reverse Cuthill–McKee, used by the ablation studies to
//!   show how locality-improving permutations amplify delta recoding.
//! * **Statistics** — structural and value-entropy statistics used to
//!   characterize corpora the way the paper characterizes its 369 matrices.

pub mod coo;
pub mod csr;
pub mod dense;
pub mod error;
pub mod formats;
pub mod gen;
pub mod io;
pub mod par;
pub mod reorder;
pub mod solve;
pub mod spmv;
pub mod stats;
pub mod util;

pub use coo::Coo;
pub use csr::Csr;
pub use dense::Dense;
pub use error::{Result, SparseError};

/// Convenient glob-import surface: `use recode_sparse::prelude::*;`.
pub mod prelude {
    pub use crate::coo::Coo;
    pub use crate::csr::Csr;
    pub use crate::dense::Dense;
    pub use crate::error::SparseError;
    pub use crate::gen::{generate, GenSpec, ValueModel};
    pub use crate::spmv::{spmv, spmv_into, SpmvKernel};
    pub use crate::stats::MatrixStats;
}
