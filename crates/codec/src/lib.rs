//! # recode-codec — the recoding transformations
//!
//! Implements every data representation the paper layers on top of CSR:
//!
//! * [`delta`] — fixed-width wrapping first-differencing of column indices.
//!   On its own it saves nothing (the paper notes this explicitly); its job
//!   is to turn arithmetic index sequences into small repeating integers
//!   that the byte-oriented stages then crush.
//! * [`snappy`] — a from-scratch implementation of the Snappy block format
//!   (varint preamble, literal/copy elements). Used both as the "CPU
//!   Snappy" baseline (32 KB blocks) and as the middle stage of the UDP
//!   pipeline (8 KB blocks).
//! * [`huffman`] — canonical, length-limited (≤ 15 bits) Huffman coding with
//!   the paper's per-matrix table built by sampling 8 KB blocks.
//! * [`pipeline`] — the composed **Delta → Snappy → Huffman** (DSH) recoder
//!   with 8 KB block framing ([`block`]), applied independently to the
//!   column-index stream and the value stream exactly as the two
//!   `recode()` calls in the paper's Fig. 7.
//! * [`container`] — the little-endian binary `.rcmx` file form of a
//!   [`CompressedMatrix`], with a reader that treats its input as hostile.
//! * [`metrics`] — the bytes-per-non-zero accounting used throughout the
//!   evaluation (raw CSR = 12 B/nnz).
//! * [`crc32c`] — the CRC32c sealing every block's framing: the CPU's
//!   `crc32` instruction where the host has SSE4.2, a hand-rolled
//!   slicing-by-8 table loop elsewhere, bit-identical; and [`faults`] — a
//!   deterministic seed-driven injector that exercises the integrity layer
//!   with every corruption class.
//! * [`words`] — the byte views of `[u32]` / `[f64]` through which the
//!   encoder reads the CSR arrays and decoded blocks land directly in them.
//!
//! Every decoder is hardened against corrupt or truncated input: they
//! return [`CodecError`], never panic, and never read out of bounds.
//!
//! The crate is formats and plain-Rust codecs: nothing here emits or maps
//! machine code (that is `recode-udp::jit`), nothing here reads a clock (a
//! traced run times its phases in `recode-core`'s one phase guard), and its
//! only `unsafe` is the two byte-view casts in [`words`] and the one call
//! into [`crc32c`]'s SSE4.2 loop, made after the host reported the feature.

#![deny(unsafe_code)]

pub mod bitstream;
pub mod block;
pub mod container;
pub mod crc32c;
pub mod delta;
pub mod error;
pub mod faults;
pub mod huffman;
pub mod metrics;
pub mod pipeline;
pub mod snappy;
pub mod varint;
#[allow(unsafe_code)]
pub mod words;

pub use block::{BlockStream, CompressedBlock};
pub use crc32c::crc32c;
pub use error::{CodecError, CodecResult};
pub use faults::{Fault, FaultInjector, FaultKind, HeaderField, SplitMix64};
pub use pipeline::{CompressedMatrix, MatrixCodecConfig, Pipeline, PipelineConfig};

/// The paper's UDP-side uncompressed block size: 8 KB.
pub const UDP_BLOCK_BYTES: usize = 8 * 1024;

/// The paper's CPU-Snappy baseline block size: 32 KB.
pub const CPU_BLOCK_BYTES: usize = 32 * 1024;
