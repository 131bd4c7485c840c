//! The two alternative sparse formats the SpMV kernels run on
//! ([`crate::spmv::SpmvKernel::SellCSigma`] and
//! [`crate::spmv::SpmvKernel::PartialDiagonal`]):
//!
//! * [`sellcs`] — SELL-C-σ (Kreutzer et al. \[27\]), sliced ELLPACK with a
//!   sorting window;
//! * [`pdiag`] — partially-diagonal storage (after Fukaya et al.): dense
//!   diagonal runs split from a CSR remainder.
//!
//! Each provides lossless `from_csr`/`to_csr`, its own SpMV agreeing with
//! the CSR kernels, and a byte accounting; `SellCs::bytes_per_nnz` is also
//! the SELL-C-σ column of the `ablation_formats` binary.

pub mod pdiag;
pub mod sellcs;

pub use pdiag::PartialDiag;
pub use sellcs::SellCs;
