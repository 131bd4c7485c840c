//! Per-matrix auto-tuning: search kernel × codec-stage subset × block
//! size, select by deterministic modeled cycles, persist the winner.
//!
//! The paper's thesis is that in a data-movement-limited world the right
//! recoding/kernel choice is *per matrix* — a stencil wants its diagonals
//! pulled dense, a power-law graph wants load-balanced CSR, a short-row
//! circuit matrix wants SELL-C-σ's sorted slices. This module makes that
//! choice searched and persisted instead of hard-coded:
//!
//! * **Search space** — every [`SpmvKernel`] × every [`StageSubset`]
//!   (DSH / DS / Snappy-only) × every block size in [`BLOCK_SIZES`].
//!   Decode cost depends only on the codec candidate and multiply cost
//!   only on the kernel, so the search evaluates `stages × blocks` decode
//!   simulations plus `kernels` multiply models, then scores the full
//!   cross product.
//! * **Selection** — purely by modeled cycles from the cycle-exact lane
//!   simulator and the bandwidth-bound multiply model, so the same matrix
//!   and seed produce an identical [`TunedConfig`] on every host and
//!   under any `RECODE_TUNE_TRIALS` resizing. Wall-clock timings (best of
//!   [`TuneOptions::trials`] reps) ride along in the [`CandidateScore`]
//!   report for the human, but never influence the winner.
//! * **Tiebreak** — lexicographic on (modeled total cycles, wire bytes
//!   per nnz, stage-subset order, block size, kernel order), so ties
//!   resolve identically everywhere.
//! * **Persistence** — the winner is sealed as a `recode-tuned/v1` JSON
//!   document (via the dependency-free [`crate::json`] writer, so write →
//!   read → write round-trips byte-for-byte) keyed by an FNV-1a digest of
//!   the matrix. Loading validates schema and digest with typed
//!   [`TuneError`]s — a stale tuning is an error, never a silent fallback.

use crate::arch::SystemConfig;
use crate::error::ExecError;
use crate::exec::RecodedSpmv;
use crate::json::{self, Json};
use recode_codec::block::CompressedBlock;
use recode_codec::pipeline::MatrixCodecConfig;
use recode_sparse::formats::{PartialDiag, SellCs};
use recode_sparse::spmv::pdiag::DEFAULT_MIN_OCCUPANCY;
use recode_sparse::spmv::sellcs::{DEFAULT_C, DEFAULT_SIGMA};
use recode_sparse::spmv::{spmv_with, spmv_with_into, SpmvKernel};
use recode_sparse::util::SplitMix64;
use recode_sparse::Csr;
use recode_udp::isa::SCRATCHPAD_BYTES;
use recode_udp::progs::DshDecoder;
use std::fmt;

/// Schema tag of the persisted tuned-config document.
pub const TUNED_SCHEMA: &str = "recode-tuned/v1";

/// Block sizes the search sweeps (uncompressed bytes per codec block).
/// All at or below the 8 KB UDP default so every candidate fits lane
/// local memory.
pub const BLOCK_SIZES: [usize; 3] = [2048, 4096, 8192];

/// Environment variable resizing the wall-clock measurement reps.
/// Informational only: the selected config must not depend on it.
pub const TRIALS_ENV: &str = "RECODE_TUNE_TRIALS";

/// Codec stage subsets the search sweeps, mirroring the ablation presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageSubset {
    /// Delta+Snappy+Huffman indices, Snappy+Huffman values (paper default).
    Dsh,
    /// Delta+Snappy indices, Snappy values (no Huffman).
    Ds,
    /// Snappy only on both streams (the CPU-baseline pipeline).
    Snappy,
}

impl StageSubset {
    /// All subsets, in tiebreak order.
    pub const ALL: [StageSubset; 3] = [StageSubset::Dsh, StageSubset::Ds, StageSubset::Snappy];

    /// Stable machine name used by the persistence schema and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            StageSubset::Dsh => "dsh",
            StageSubset::Ds => "ds",
            StageSubset::Snappy => "snappy",
        }
    }

    /// Inverse of [`StageSubset::name`].
    pub fn parse_name(s: &str) -> Option<StageSubset> {
        StageSubset::ALL.into_iter().find(|st| st.name() == s)
    }

    /// The matrix codec config for this subset at the given block size.
    pub fn codec_config(self, block_bytes: usize) -> MatrixCodecConfig {
        let mut c = match self {
            StageSubset::Dsh => MatrixCodecConfig::udp_dsh(),
            StageSubset::Ds => MatrixCodecConfig::udp_ds(),
            StageSubset::Snappy => MatrixCodecConfig::cpu_snappy(),
        };
        c.index.block_bytes = block_bytes;
        c.value.block_bytes = block_bytes;
        c
    }
}

/// Typed failures for tuning and tuned-config persistence.
#[derive(Debug, Clone, PartialEq)]
pub enum TuneError {
    /// The document's schema tag is not [`TUNED_SCHEMA`].
    SchemaMismatch {
        /// What the document carried.
        found: String,
    },
    /// The config was tuned for a different matrix (digest or shape drift).
    DigestMismatch {
        /// Digest of the matrix being run.
        expected: String,
        /// Digest recorded in the config.
        found: String,
    },
    /// An already-recoded operand carries a different codec stream than
    /// the tuned config prescribes.
    CodecMismatch,
    /// The document is not a valid tuned-config JSON object.
    Malformed(String),
    /// Compression or simulated decode failed while scoring a candidate.
    Exec(ExecError),
    /// A kernel disagreed with the serial reference during tuning — the
    /// tuner refuses to crown a kernel the differential oracle rejects.
    KernelDiverged {
        /// The offending kernel.
        kernel: &'static str,
        /// Worst relative error observed.
        rel_err: f64,
    },
    /// A codec candidate's measured lane cycles fell outside the certified
    /// static envelope of its decoder programs — the analytic decode model
    /// and the cycle-bound certifier disagree, so the tuner refuses to
    /// score the candidate (a wrong model would crown a wrong winner).
    BoundViolated {
        /// Stage subset of the offending candidate.
        stages: &'static str,
        /// Block size of the offending candidate.
        block_bytes: usize,
        /// Measured busy cycles across both streams.
        busy_cycles: u64,
        /// Certified minimum total.
        min: u64,
        /// Certified maximum total.
        max: u64,
    },
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::SchemaMismatch { found } => {
                write!(f, "tuned config schema mismatch: want {TUNED_SCHEMA}, found {found}")
            }
            TuneError::DigestMismatch { expected, found } => write!(
                f,
                "tuned config was built for a different matrix: digest {found} vs this \
                 matrix's {expected} — re-run `recode tune`"
            ),
            TuneError::CodecMismatch => write!(
                f,
                "recoded operand was compressed under a different codec config than the \
                 tuned config prescribes"
            ),
            TuneError::Malformed(why) => write!(f, "malformed tuned config: {why}"),
            TuneError::Exec(e) => write!(f, "candidate evaluation failed: {e}"),
            TuneError::KernelDiverged { kernel, rel_err } => write!(
                f,
                "kernel {kernel} diverged from the serial reference during tuning \
                 (worst rel err {rel_err:.3e})"
            ),
            TuneError::BoundViolated { stages, block_bytes, busy_cycles, min, max } => write!(
                f,
                "candidate {stages}/{block_bytes}B measured {busy_cycles} busy cycles, \
                 outside its certified envelope [{min}, {max}]"
            ),
        }
    }
}

impl std::error::Error for TuneError {}

impl From<ExecError> for TuneError {
    fn from(e: ExecError) -> Self {
        TuneError::Exec(e)
    }
}

/// FNV-1a 64 digest over shape, structure, and value bits — the key a
/// [`TunedConfig`] is bound to.
pub fn matrix_digest(a: &Csr) -> String {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(&(a.nrows() as u64).to_le_bytes());
    eat(&(a.ncols() as u64).to_le_bytes());
    for &p in a.row_ptr() {
        eat(&(p as u64).to_le_bytes());
    }
    for &c in a.col_idx() {
        eat(&c.to_le_bytes());
    }
    for &v in a.values() {
        eat(&v.to_bits().to_le_bytes());
    }
    format!("{h:016x}")
}

/// The persisted winner: everything `recode spmv` needs to reproduce the
/// tuned run, sealed under [`TUNED_SCHEMA`] and keyed by matrix digest.
///
/// Deliberately excludes wall-clock measurements: the config is a pure
/// function of (matrix, seed, search space), so the same tune command
/// reproduces it byte-for-byte on any host.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedConfig {
    /// [`matrix_digest`] of the matrix this config was tuned for.
    pub digest: String,
    /// Matrix shape, double-checked alongside the digest.
    pub nrows: usize,
    /// Columns.
    pub ncols: usize,
    /// Stored non-zeros.
    pub nnz: usize,
    /// Seed the tuning probe vector was drawn from.
    pub seed: u64,
    /// Winning SpMV kernel.
    pub kernel: SpmvKernel,
    /// SELL-C-σ chunk height in effect (recorded even when unused).
    pub sell_c: usize,
    /// SELL-C-σ sorting window.
    pub sell_sigma: usize,
    /// Partially-diagonal extraction threshold, in percent.
    pub pdiag_occupancy_pct: u32,
    /// Winning codec stage subset.
    pub stages: StageSubset,
    /// Winning uncompressed block size.
    pub block_bytes: usize,
    /// Modeled decode cost of the winning codec candidate.
    pub modeled_decode_cycles: u64,
    /// Modeled multiply cost of the winning kernel.
    pub modeled_multiply_cycles: u64,
    /// Wire bytes per non-zero of the winning codec candidate.
    pub wire_bytes_per_nnz: f64,
    /// Size of the scored cross product.
    pub candidates: usize,
}

impl TunedConfig {
    /// Modeled end-to-end cost: decode plus multiply.
    pub fn modeled_total_cycles(&self) -> u64 {
        self.modeled_decode_cycles + self.modeled_multiply_cycles
    }

    /// The codec configuration the winner was scored with.
    pub fn codec_config(&self) -> MatrixCodecConfig {
        self.stages.codec_config(self.block_bytes)
    }

    /// Checks this config belongs to `a`.
    ///
    /// # Errors
    /// [`TuneError::DigestMismatch`] when the digest or shape differs.
    pub fn validate_for(&self, a: &Csr) -> Result<(), TuneError> {
        let expected = matrix_digest(a);
        if expected != self.digest
            || (a.nrows(), a.ncols(), a.nnz()) != (self.nrows, self.ncols, self.nnz)
        {
            return Err(TuneError::DigestMismatch { expected, found: self.digest.clone() });
        }
        Ok(())
    }

    /// Serializes as the ordered `recode-tuned/v1` document.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("schema", Json::Str(TUNED_SCHEMA.into()))
            .set("digest", Json::Str(self.digest.clone()))
            .set(
                "matrix",
                Json::obj()
                    .set("nrows", Json::U64(self.nrows as u64))
                    .set("ncols", Json::U64(self.ncols as u64))
                    .set("nnz", Json::U64(self.nnz as u64)),
            )
            .set("seed", Json::U64(self.seed))
            .set("kernel", Json::Str(self.kernel.name().into()))
            .set(
                "kernel_params",
                Json::obj()
                    .set("sell_c", Json::U64(self.sell_c as u64))
                    .set("sell_sigma", Json::U64(self.sell_sigma as u64))
                    .set("pdiag_occupancy_pct", Json::U64(u64::from(self.pdiag_occupancy_pct))),
            )
            .set(
                "codec",
                Json::obj()
                    .set("stages", Json::Str(self.stages.name().into()))
                    .set("block_bytes", Json::U64(self.block_bytes as u64)),
            )
            .set(
                "modeled",
                Json::obj()
                    .set("decode_cycles", Json::U64(self.modeled_decode_cycles))
                    .set("multiply_cycles", Json::U64(self.modeled_multiply_cycles))
                    .set("total_cycles", Json::U64(self.modeled_total_cycles()))
                    .set("wire_bytes_per_nnz", Json::F64(self.wire_bytes_per_nnz)),
            )
            .set("candidates", Json::U64(self.candidates as u64))
    }

    /// Stable pretty-printed bytes of [`TunedConfig::to_json`] (with a
    /// trailing newline, matching the repo's other JSON artifacts).
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().to_string_pretty();
        s.push('\n');
        s
    }

    /// Parses and schema-checks a persisted document.
    ///
    /// # Errors
    /// [`TuneError::SchemaMismatch`] or [`TuneError::Malformed`].
    pub fn from_json_str(text: &str) -> Result<TunedConfig, TuneError> {
        let doc = json::parse(text).map_err(TuneError::Malformed)?;
        let str_field = |key: &str| -> Result<String, TuneError> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| TuneError::Malformed(format!("missing string field `{key}`")))
        };
        let schema = str_field("schema")?;
        if schema != TUNED_SCHEMA {
            return Err(TuneError::SchemaMismatch { found: schema });
        }
        let u64_at = |path: &[&str]| -> Result<u64, TuneError> {
            let mut node = &doc;
            for key in path {
                node = node
                    .get(key)
                    .ok_or_else(|| TuneError::Malformed(format!("missing field `{key}`")))?;
            }
            node.as_u64().ok_or_else(|| {
                TuneError::Malformed(format!("field `{}` is not an integer", path.join(".")))
            })
        };
        let kernel_name = str_field("kernel")?;
        let kernel = SpmvKernel::parse_name(&kernel_name)
            .ok_or_else(|| TuneError::Malformed(format!("unknown kernel `{kernel_name}`")))?;
        let stages_name = doc
            .get("codec")
            .and_then(|c| c.get("stages"))
            .and_then(Json::as_str)
            .ok_or_else(|| TuneError::Malformed("missing field `codec.stages`".into()))?;
        let stages = StageSubset::parse_name(stages_name)
            .ok_or_else(|| TuneError::Malformed(format!("unknown stage subset `{stages_name}`")))?;
        let wire_bytes_per_nnz = doc
            .get("modeled")
            .and_then(|m| m.get("wire_bytes_per_nnz"))
            .and_then(Json::as_f64)
            .ok_or_else(|| {
                TuneError::Malformed("missing field `modeled.wire_bytes_per_nnz`".into())
            })?;
        Ok(TunedConfig {
            digest: str_field("digest")?,
            nrows: u64_at(&["matrix", "nrows"])? as usize,
            ncols: u64_at(&["matrix", "ncols"])? as usize,
            nnz: u64_at(&["matrix", "nnz"])? as usize,
            seed: u64_at(&["seed"])?,
            kernel,
            sell_c: u64_at(&["kernel_params", "sell_c"])? as usize,
            sell_sigma: u64_at(&["kernel_params", "sell_sigma"])? as usize,
            pdiag_occupancy_pct: u64_at(&["kernel_params", "pdiag_occupancy_pct"])? as u32,
            stages,
            block_bytes: u64_at(&["codec", "block_bytes"])? as usize,
            modeled_decode_cycles: u64_at(&["modeled", "decode_cycles"])?,
            modeled_multiply_cycles: u64_at(&["modeled", "multiply_cycles"])?,
            wire_bytes_per_nnz,
            candidates: u64_at(&["candidates"])? as usize,
        })
    }
}

/// Tuning knobs. Selection is invariant to `trials`; only the reported
/// wall-clock numbers change with it.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Seed for the probe vector (wall measurement + differential check).
    pub seed: u64,
    /// Wall-clock reps per kernel (best-of). `0` skips wall measurement.
    pub trials: usize,
    /// System model the candidates are scored against.
    pub sys: SystemConfig,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions { seed: 2019, trials: 3, sys: SystemConfig::ddr4() }
    }
}

/// Parses a [`TRIALS_ENV`] value into a wall-trial count. Pure so both the
/// accept and the reject path are testable without mutating the process
/// environment (env-var mutation races under the parallel test harness).
/// `0` is valid — it skips wall measurement entirely.
///
/// # Errors
/// A human-readable message naming the variable and the offending value.
pub fn parse_tune_trials(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    trimmed.parse::<usize>().map_err(|_| {
        format!("{TRIALS_ENV} is not a trial count: \"{raw}\" (expected a non-negative integer)")
    })
}

impl TuneOptions {
    /// Default options with `trials` resized from [`TRIALS_ENV`]. A garbage
    /// value is *not* silently ignored: a warning naming the value goes to
    /// stderr and the default trial count is used.
    pub fn from_env() -> Self {
        let mut o = TuneOptions::default();
        if let Ok(v) = std::env::var(TRIALS_ENV) {
            match parse_tune_trials(&v) {
                Ok(t) => o.trials = t,
                Err(msg) => {
                    eprintln!(
                        "warning: ignoring {msg}; using the default of {} trial(s)",
                        o.trials
                    );
                }
            }
        }
        o
    }
}

/// One scored (kernel, stages, block size) combination.
#[derive(Debug, Clone)]
pub struct CandidateScore {
    /// Kernel of this combination.
    pub kernel: SpmvKernel,
    /// Codec stage subset.
    pub stages: StageSubset,
    /// Uncompressed block size.
    pub block_bytes: usize,
    /// Modeled decode cost (lane makespan vs memory/DMA streaming).
    pub decode_cycles: u64,
    /// Modeled multiply cost (bandwidth-bound, kernel-specific traffic).
    pub multiply_cycles: u64,
    /// Wire bytes per non-zero of the codec candidate.
    pub wire_bytes_per_nnz: f64,
    /// Best-of-trials wall time for one multiply with this kernel
    /// (informational; 0 when `trials == 0`).
    pub wall_ns: u64,
}

impl CandidateScore {
    /// Modeled end-to-end cost.
    pub fn total_cycles(&self) -> u64 {
        self.decode_cycles + self.multiply_cycles
    }
}

/// Tuning result: the sealed winner plus the full scored field.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The winner, ready to persist.
    pub config: TunedConfig,
    /// Every scored combination, in (stages, block, kernel) search order.
    pub candidates: Vec<CandidateScore>,
}

/// Deterministic probe vector in [-1, 1).
fn probe_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.f64() * 2.0 - 1.0).collect()
}

/// Modeled SpMV traffic per non-zero for a kernel on this matrix. CSR
/// kernels move 12 B/nnz plus an 8 B per-row loop/row-ptr overhead;
/// merge-path adds its partition descriptors; the grown kernels report
/// their format's own accounting (padding included for SELL-C-σ, dense
/// diagonal savings for partially-diagonal).
fn kernel_traffic_bpnnz(kernel: SpmvKernel, a: &Csr) -> f64 {
    let nnz = a.nnz().max(1) as f64;
    let row_overhead = 8.0 * a.nrows() as f64 / nnz;
    match kernel {
        SpmvKernel::Serial | SpmvKernel::RowParallel => 12.0 + row_overhead,
        SpmvKernel::MergePath => 12.0 + row_overhead + 8.0 / 256.0,
        SpmvKernel::SellCSigma => SellCs::from_csr(a, DEFAULT_C, DEFAULT_SIGMA)
            .map_or(12.0 + row_overhead, |s| s.bytes_per_nnz()),
        SpmvKernel::PartialDiagonal => PartialDiag::from_csr(a, DEFAULT_MIN_OCCUPANCY)
            .map_or(12.0 + row_overhead, |p| p.bytes_per_nnz() + row_overhead),
    }
}

/// Modeled multiply cost in accelerator cycles: bandwidth-bound at the
/// kernel's traffic, with a single-thread cap for the serial kernel and a
/// critical-row bound for row-parallel (the heaviest row runs on one
/// thread at a latency-bound scalar rate — the imbalance merge-path
/// exists to fix).
fn modeled_multiply_cycles(sys: &SystemConfig, a: &Csr, kernel: SpmvKernel) -> u64 {
    let nnz = a.nnz();
    if nnz == 0 {
        return 0;
    }
    let flops = 2.0 * nnz as f64;
    let bw_rate = sys.cpu.spmv_flops(&sys.mem, kernel_traffic_bpnnz(kernel, a));
    let rate = match kernel {
        // One core cannot saturate socket bandwidth; calibrate at a quarter.
        SpmvKernel::Serial => bw_rate * 0.25,
        _ => bw_rate,
    };
    let mut cycles = (flops / rate * sys.udp.freq_hz).ceil() as u64;
    if kernel == SpmvKernel::RowParallel {
        let max_row = (0..a.nrows()).map(|r| a.row(r).0.len()).max().unwrap_or(0);
        // Latency-bound scalar rate: ~1 flop per CPU cycle on a gather.
        let critical = (2.0 * max_row as f64 / sys.cpu.clock_hz * sys.udp.freq_hz).ceil() as u64;
        cycles = cycles.max(critical);
    }
    cycles
}

/// Modeled decode cost of one codec candidate: the cycle-exact lane
/// makespan versus the modeled memory-stream + DMA time, whichever binds.
fn modeled_decode_cycles(sys: &SystemConfig, stats: &crate::exec::ExecStats) -> u64 {
    let stream = ((stats.mem_stream_seconds + stats.dma_seconds) * sys.udp.freq_hz).ceil() as u64;
    stats.accel.makespan_cycles.max(stream)
}

/// Certified cycle envelope for decoding one stream's blocks through
/// `decoder`: the sum of every stage image's statically certified
/// [`recode_udp::CycleBound`] across all blocks. The first active stage
/// sees the block's actual compressed bit length; later stages see at most
/// the lane output window (half the scratchpad), which caps any
/// intermediate expansion. `None` when a stage carries no certified max
/// (the check is then vacuous, never wrong).
fn certified_stream_envelope(
    decoder: &DshDecoder,
    blocks: &[CompressedBlock],
) -> Option<(u64, u64)> {
    let later_stage_bits = 8 * (SCRATCHPAD_BYTES as u64 / 2);
    let stages: Vec<_> = [&decoder.huffman, &decoder.snappy, &decoder.delta]
        .into_iter()
        .flatten()
        .map(|img| img.verify_report.cycle_bound)
        .collect();
    let (mut min, mut max) = (0u64, 0u64);
    for block in blocks {
        for (k, bound) in stages.iter().enumerate() {
            let bound = (*bound)?;
            let bits = if k == 0 { block.bit_len as u64 } else { later_stage_bits };
            min = min.saturating_add(bound.min);
            max = max.saturating_add(bound.max?.max_for(bits));
        }
    }
    Some((min, max))
}

/// Cross-checks a candidate's measured busy cycles against the certified
/// envelopes of its index and value decoders. Degraded runs (retries or
/// fallbacks) are exempt: their accounting mixes re-run and zero-cycle
/// jobs, so the per-attempt envelope does not aggregate cleanly.
///
/// # Errors
/// [`TuneError::BoundViolated`] when the measurement escapes the envelope.
fn check_certified_bounds(
    recoded: &RecodedSpmv,
    stats: &crate::exec::ExecStats,
    stages: StageSubset,
    block_bytes: usize,
) -> Result<(), TuneError> {
    if stats.degraded {
        return Ok(());
    }
    let c = recoded.compressed();
    let index = certified_stream_envelope(recoded.index_decoder(), &c.index_stream.blocks);
    let value = certified_stream_envelope(recoded.value_decoder(), &c.value_stream.blocks);
    let (Some((imin, imax)), Some((vmin, vmax))) = (index, value) else {
        return Ok(());
    };
    let (min, max) = (imin.saturating_add(vmin), imax.saturating_add(vmax));
    let busy_cycles = stats.accel.busy_cycles;
    if busy_cycles < min || busy_cycles > max {
        return Err(TuneError::BoundViolated {
            stages: stages.name(),
            block_bytes,
            busy_cycles,
            min,
            max,
        });
    }
    Ok(())
}

/// Tunes `a`: scores the full search space and seals the winner.
///
/// # Errors
/// [`TuneError::Exec`] when a candidate fails to compress or decode;
/// [`TuneError::KernelDiverged`] when a kernel flunks the differential
/// check against the serial reference.
pub fn tune_matrix(a: &Csr, opts: &TuneOptions) -> Result<TuneOutcome, TuneError> {
    let sys = &opts.sys;
    let x = probe_vector(a.ncols(), opts.seed);
    let y_ref = spmv_with(SpmvKernel::Serial, a, &x);

    // Per-kernel multiply model + differential check + wall measurement.
    let mut multiply = Vec::with_capacity(SpmvKernel::ALL.len());
    for kernel in SpmvKernel::ALL {
        let mut y = vec![0.0; a.nrows()];
        spmv_with_into(kernel, a, &x, &mut y);
        let worst =
            y.iter().zip(&y_ref).fold(0.0f64, |w, (g, r)| w.max((g - r).abs() / r.abs().max(1.0)));
        if worst > 1e-9 {
            return Err(TuneError::KernelDiverged { kernel: kernel.name(), rel_err: worst });
        }
        let mut wall_ns = 0u64;
        for _ in 0..opts.trials {
            let t0 = std::time::Instant::now();
            spmv_with_into(kernel, a, &x, &mut y);
            let ns = t0.elapsed().as_nanos() as u64;
            wall_ns = if wall_ns == 0 { ns } else { wall_ns.min(ns) };
        }
        multiply.push((kernel, modeled_multiply_cycles(sys, a, kernel), wall_ns));
    }

    // Per-codec-candidate decode model (kernel-independent).
    let mut candidates = Vec::new();
    for stages in StageSubset::ALL {
        for block_bytes in BLOCK_SIZES {
            let recoded = RecodedSpmv::new(a, stages.codec_config(block_bytes))?;
            let (_, stats) = recoded.decompress_via_udp(sys)?;
            check_certified_bounds(&recoded, &stats, stages, block_bytes)?;
            let decode_cycles = modeled_decode_cycles(sys, &stats);
            let wire_bytes_per_nnz = recoded.compressed().bytes_per_nnz();
            for &(kernel, multiply_cycles, wall_ns) in &multiply {
                candidates.push(CandidateScore {
                    kernel,
                    stages,
                    block_bytes,
                    decode_cycles,
                    multiply_cycles,
                    wire_bytes_per_nnz,
                    wall_ns,
                });
            }
        }
    }

    let order_of = |c: &CandidateScore| {
        let stage_ix = StageSubset::ALL.iter().position(|&s| s == c.stages).unwrap_or(0);
        let kernel_ix = SpmvKernel::ALL.iter().position(|&k| k == c.kernel).unwrap_or(0);
        (c.total_cycles(), c.wire_bytes_per_nnz, stage_ix, c.block_bytes, kernel_ix)
    };
    let winner = candidates
        .iter()
        .min_by(|l, r| {
            let (lt, lb, ls, lbl, lk) = order_of(l);
            let (rt, rb, rs, rbl, rk) = order_of(r);
            lt.cmp(&rt)
                .then(lb.total_cmp(&rb))
                .then(ls.cmp(&rs))
                .then(lbl.cmp(&rbl))
                .then(lk.cmp(&rk))
        })
        .expect("search space is non-empty");

    let config = TunedConfig {
        digest: matrix_digest(a),
        nrows: a.nrows(),
        ncols: a.ncols(),
        nnz: a.nnz(),
        seed: opts.seed,
        kernel: winner.kernel,
        sell_c: DEFAULT_C,
        sell_sigma: DEFAULT_SIGMA,
        pdiag_occupancy_pct: (DEFAULT_MIN_OCCUPANCY * 100.0).round() as u32,
        stages: winner.stages,
        block_bytes: winner.block_bytes,
        modeled_decode_cycles: winner.decode_cycles,
        modeled_multiply_cycles: winner.multiply_cycles,
        wire_bytes_per_nnz: winner.wire_bytes_per_nnz,
        candidates: candidates.len(),
    };
    Ok(TuneOutcome { config, candidates })
}

/// The un-tuned reference point `recode spmv` uses by default: row-parallel
/// CSR over the paper's DSH pipeline at the 8 KB UDP block size. The
/// tuned-vs-default comparisons in EXPERIMENTS.md measure against this.
pub fn default_candidate(a: &Csr, sys: &SystemConfig) -> Result<CandidateScore, TuneError> {
    let stages = StageSubset::Dsh;
    let block_bytes = 8192;
    let recoded = RecodedSpmv::new(a, stages.codec_config(block_bytes))?;
    let (_, stats) = recoded.decompress_via_udp(sys)?;
    check_certified_bounds(&recoded, &stats, stages, block_bytes)?;
    Ok(CandidateScore {
        kernel: SpmvKernel::RowParallel,
        stages,
        block_bytes,
        decode_cycles: modeled_decode_cycles(sys, &stats),
        multiply_cycles: modeled_multiply_cycles(sys, a, SpmvKernel::RowParallel),
        wire_bytes_per_nnz: recoded.compressed().bytes_per_nnz(),
        wall_ns: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recode_sparse::gen::{generate, GenSpec, ValueModel};

    fn stencil() -> Csr {
        generate(
            &GenSpec::Stencil2D { nx: 12, ny: 12, points: 5, values: ValueModel::StencilCoeffs },
            7,
        )
    }

    fn opts(trials: usize) -> TuneOptions {
        TuneOptions { seed: 7, trials, sys: SystemConfig::ddr4() }
    }

    /// A matrix with the same structure as [`stencil`] but different values.
    fn stencil_ones() -> Csr {
        generate(&GenSpec::Stencil2D { nx: 12, ny: 12, points: 5, values: ValueModel::Ones }, 7)
    }

    #[test]
    fn digest_is_stable_and_structure_sensitive() {
        let a = stencil();
        assert_eq!(matrix_digest(&a), matrix_digest(&a.clone()));
        // Same structure, different value bits — the digest must move.
        assert_ne!(matrix_digest(&a), matrix_digest(&stencil_ones()));
        // Different structure entirely.
        let b = generate(
            &GenSpec::Stencil2D { nx: 13, ny: 12, points: 5, values: ValueModel::StencilCoeffs },
            7,
        );
        assert_ne!(matrix_digest(&a), matrix_digest(&b));
    }

    #[test]
    fn selection_is_invariant_to_trials_resizing() {
        let a = stencil();
        let lean = tune_matrix(&a, &opts(0)).unwrap();
        let rich = tune_matrix(&a, &opts(2)).unwrap();
        assert_eq!(lean.config, rich.config);
        assert_eq!(lean.candidates.len(), rich.candidates.len());
        assert_eq!(
            lean.candidates.len(),
            SpmvKernel::ALL.len() * StageSubset::ALL.len() * BLOCK_SIZES.len()
        );
    }

    #[test]
    fn stencil_prefers_the_partially_diagonal_kernel() {
        // A 5-point stencil is pure diagonal runs: the modeled traffic of
        // the partially-diagonal kernel (~8 B/nnz + row walk) beats every
        // CSR kernel's 12+, so the tuner must pick it.
        let a = stencil();
        let outcome = tune_matrix(&a, &opts(0)).unwrap();
        assert_eq!(outcome.config.kernel, SpmvKernel::PartialDiagonal);
    }

    #[test]
    fn skewed_matrix_avoids_the_critical_row_bound() {
        // An arrow matrix: row 0 is fully dense, every other row holds one
        // diagonal entry. Row-parallel's critical-row term (the whole hub
        // row on one thread) dwarfs the bandwidth bound, so the tuner must
        // pick a load-balanced kernel instead.
        let n = 2048usize;
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        row_ptr.push(0);
        col_idx.extend(0..n as u32);
        row_ptr.push(col_idx.len());
        for r in 1..n {
            col_idx.push(r as u32);
            row_ptr.push(col_idx.len());
        }
        let values = vec![1.0; col_idx.len()];
        let a = Csr::try_from_parts(n, n, row_ptr, col_idx, values).unwrap();
        let outcome = tune_matrix(&a, &opts(0)).unwrap();
        assert_ne!(outcome.config.kernel, SpmvKernel::RowParallel);
        assert_ne!(outcome.config.kernel, SpmvKernel::Serial);
    }

    #[test]
    fn persistence_round_trips_byte_for_byte() {
        let a = stencil();
        let outcome = tune_matrix(&a, &opts(0)).unwrap();
        let s1 = outcome.config.to_json_string();
        let parsed = TunedConfig::from_json_str(&s1).unwrap();
        assert_eq!(parsed, outcome.config);
        assert_eq!(parsed.to_json_string(), s1);
        parsed.validate_for(&a).unwrap();
    }

    #[test]
    fn certified_envelope_brackets_measured_busy_cycles() {
        // The cross-check tune_matrix applies per candidate, verified here
        // directly: every stage image certifies a bound, and the measured
        // busy cycles of a clean run land inside the summed envelope.
        let a = stencil();
        let sys = SystemConfig::ddr4();
        let recoded = RecodedSpmv::new(&a, StageSubset::Dsh.codec_config(4096)).unwrap();
        let (_, stats) = recoded.decompress_via_udp(&sys).unwrap();
        assert!(!stats.degraded);
        let c = recoded.compressed();
        let (imin, imax) =
            certified_stream_envelope(recoded.index_decoder(), &c.index_stream.blocks)
                .expect("every builtin stage must carry a certified bound");
        let (vmin, vmax) =
            certified_stream_envelope(recoded.value_decoder(), &c.value_stream.blocks)
                .expect("every builtin stage must carry a certified bound");
        let busy = stats.accel.busy_cycles;
        assert!(
            imin + vmin <= busy && busy <= imax + vmax,
            "busy {busy} outside [{}, {}]",
            imin + vmin,
            imax + vmax
        );
        check_certified_bounds(&recoded, &stats, StageSubset::Dsh, 4096).unwrap();
    }

    #[test]
    fn bound_violation_is_a_typed_error() {
        // A measurement outside the envelope must surface as BoundViolated
        // with the candidate's identity attached.
        let a = stencil();
        let sys = SystemConfig::ddr4();
        let recoded = RecodedSpmv::new(&a, StageSubset::Dsh.codec_config(4096)).unwrap();
        let (_, mut stats) = recoded.decompress_via_udp(&sys).unwrap();
        stats.accel.busy_cycles = u64::MAX;
        let err = check_certified_bounds(&recoded, &stats, StageSubset::Dsh, 4096).unwrap_err();
        assert!(matches!(err, TuneError::BoundViolated { stages: "dsh", block_bytes: 4096, .. }));
        assert!(err.to_string().contains("certified envelope"));
        // Degraded runs are exempt — the check must not fire on them.
        stats.degraded = true;
        check_certified_bounds(&recoded, &stats, StageSubset::Dsh, 4096).unwrap();
    }

    #[test]
    fn schema_and_digest_mismatches_are_typed_errors() {
        let a = stencil();
        let config = tune_matrix(&a, &opts(0)).unwrap().config;
        let tampered = config.to_json_string().replace(TUNED_SCHEMA, "recode-tuned/v9");
        assert!(matches!(
            TunedConfig::from_json_str(&tampered),
            Err(TuneError::SchemaMismatch { .. })
        ));
        assert!(matches!(
            config.validate_for(&stencil_ones()),
            Err(TuneError::DigestMismatch { .. })
        ));
        assert!(matches!(TunedConfig::from_json_str("{}"), Err(TuneError::Malformed(_))));
        assert!(matches!(TunedConfig::from_json_str("not json"), Err(TuneError::Malformed(_))));
    }

    #[test]
    fn tune_trials_parse_accepts_counts_and_rejects_garbage() {
        assert_eq!(parse_tune_trials("0"), Ok(0), "0 skips wall measurement and is valid");
        assert_eq!(parse_tune_trials("7"), Ok(7));
        assert_eq!(parse_tune_trials("  12  "), Ok(12), "whitespace is trimmed");
        for garbage in ["", "three", "-1", "1.5", "0x10"] {
            let err = parse_tune_trials(garbage).unwrap_err();
            assert!(err.contains(TRIALS_ENV), "error must name the variable: {err}");
            assert!(err.contains(garbage), "error must echo the value: {err}");
        }
    }
}
