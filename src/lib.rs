//! # recode-spmv
//!
//! A full-system Rust reproduction of *"Programmable Acceleration for
//! Sparse Matrices in a Data-movement Limited World"* (Rawal, Fang, Chien —
//! IPDPS 2019): a heterogeneous architecture that pairs CPU cores with the
//! UDP, a software-programmable data-recoding accelerator, so sparse
//! matrices can live in memory in a compressed Delta→Snappy→Huffman format
//! and be decompressed on the fly — cutting SpMV memory traffic from 12 to
//! ~5 bytes per non-zero (≈2.4× speedup at fixed power, or ≈50–65% memory
//! power savings at fixed performance).
//!
//! This crate is a facade: it re-exports the five subsystem crates.
//!
//! ```
//! use recode_spmv::prelude::*;
//!
//! // Build a small PDE matrix, compress it the way the paper's system
//! // stores it, and run SpMV through the simulated CPU-UDP machine.
//! let a = generate(
//!     &GenSpec::Stencil2D { nx: 32, ny: 32, points: 5, values: ValueModel::StencilCoeffs },
//!     42,
//! );
//! let sys = SystemConfig::ddr4();
//! let recoded = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
//! let x = vec![1.0; a.ncols()];
//! let (y, stats) = recoded.spmv(&sys, SpmvKernel::Serial, &x).unwrap();
//! assert_eq!(y, spmv(&a, &x)); // lossless: bit-identical to uncompressed
//! assert!(stats.compressed_bytes < a.nnz() * 12);
//! ```

pub use recode_codec as codec;
pub use recode_core as core;
pub use recode_mem as mem;
pub use recode_sparse as sparse;
pub use recode_udp as udp;

/// One-stop imports for applications.
pub mod prelude {
    pub use recode_codec::pipeline::{CompressedMatrix, MatrixCodecConfig, PipelineConfig};
    pub use recode_core::arch::Scenario;
    pub use recode_core::perfmodel::SpmvPerfModel;
    pub use recode_core::{
        tune_matrix, OverlapConfig, OverlapExecutor, PowerSavings, RecodedSpmv, RunCtx,
        SystemConfig, TuneError, TunedConfig,
    };
    pub use recode_sparse::prelude::*;
    pub use recode_udp::accel::FaultHook;
    pub use recode_udp::pool::LanePool;
    pub use recode_udp::{Accelerator, Lane};
}
