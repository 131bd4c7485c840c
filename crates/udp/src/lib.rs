//! # recode-udp — cycle-level simulator of the UDP recoding accelerator
//!
//! The Unstructured Data Processor (Fang et al., MICRO'17) is the paper's
//! enabling substrate: a 64-lane MIMD accelerator whose lanes excel at
//! branch-intensive recoding via **multi-way dispatch** (next code address =
//! `base + symbol`, one cycle, no prediction). This crate rebuilds the whole
//! stack in Rust:
//!
//! * [`isa`] — code blocks, actions, transitions (16×64-bit registers,
//!   64 KB scratchpad, bit-granular stream unit);
//! * [`program`] — symbolic programs and a builder API;
//! * [`asm`] — a textual assembler, because the UDP's selling point is
//!   *software* programmability;
//! * [`effclip`] — the EffCLiP coupled-linear-packing placer that makes
//!   `base + symbol` a perfect hash into dense code memory;
//! * [`machine`] — 128-bit code-word encoding (4 action slots + transition)
//!   and the executable [`machine::Image`];
//! * [`lane`] — the lane interpreter with the paper's cycle model
//!   (1 cycle/dispatch, 1 cycle/action);
//! * [`jit`] — the native x86-64 tier: predecoded blocks lowered to
//!   machine code in W^X pages at assemble time, bit-exact with the
//!   interpreter (which stays the portable fallback — `RECODE_NO_JIT=1`);
//! * [`pool`] — process-wide lane recycling so hot paths stop allocating
//!   64 KB scratchpads;
//! * [`accel`] — the 64-lane accelerator: MIMD block scheduling, makespan,
//!   throughput and energy (1.6 GHz, 160 mW at 14 nm);
//! * [`progs`] — real UDP programs for the paper's pipeline: inverse delta,
//!   Snappy decode (256-way tag dispatch), and per-matrix compiled Huffman
//!   decoders (two-level peek dispatch), each validated bit-for-bit against
//!   `recode-codec`'s software encoders;
//! * [`error`] — the typed [`error::UdpError`] hierarchy every public API
//!   reports through, carrying block-index and lane-id context;
//! * [`verify`] — the static verifier (CFG reachability, must-initialize
//!   dataflow, interval analysis of scratchpad addresses, termination /
//!   cycle-budget checks, dispatch-table validation) that gates every
//!   program before it reaches a lane.

pub mod accel;
pub mod asm;
pub mod effclip;
pub mod energy;
pub mod error;
pub mod isa;
pub mod jit;
pub mod lane;
pub mod machine;
pub mod pool;
pub mod program;
pub mod progs;
pub mod verify;

pub use accel::{
    lane_utilization, panic_payload_message, AccelReport, Accelerator, BatchOutcome, FaultHook,
    JobEvent, JobEventSink, JobOutcome, LaneProfile, StageCycles,
};
pub use error::{UdpError, UdpResult};
pub use jit::LaneJit;
pub use lane::{
    Lane, LaneError, OpClassCycles, RunConfig, RunResult, RunStats, OUTPUT_WINDOW_BYTES,
};
pub use machine::Image;
pub use pool::{set_event_hook, LanePool, PoolStats, PooledLane, POOL_CAPACITY};
pub use program::{Program, ProgramBuilder};
pub use verify::{
    verify_image, verify_program, Analysis, CycleBound, Finding, LoopSummary, MaxBound, Severity,
    VerifyReport,
};
