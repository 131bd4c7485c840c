//! Functional execution of recoding-enhanced SpMV (paper Figs. 6 and 7).
//!
//! The matrix lives in memory compressed; UDP lanes decode the column-index
//! and value blocks (running the real decoder programs on the simulator);
//! the CPU multiplies the recovered CSR. This module is the workspace's
//! end-to-end correctness proof: `RecodedSpmv::spmv` must equal the
//! uncompressed kernel bit-for-bit, because the pipeline is lossless.
//!
//! ## Fault tolerance
//!
//! A batch never dies on one bad block. Each failed job (lane trap or CRC
//! mismatch) is retried up to [`MAX_BLOCK_RETRIES`] times on a fresh lane —
//! transient faults clear, integrity failures do not — and a block that
//! still fails is re-fetched from the optional [`RawFallbackStore`] holding
//! the uncompressed stream bytes, with the extra memory traffic charged to
//! [`ExecStats`]. Only when both paths are exhausted does the call fail,
//! with [`ExecError::Unrecoverable`] naming the block.

use crate::arch::SystemConfig;
use crate::error::{ExecError, ExecResult};
use crate::overlap::OverlapStats;
use crate::recorder;
use crate::resilience::{
    BreakerState, BudgetTracker, CircuitBreaker, JobBudget, JobReport, JobState,
};
use crate::telemetry::{
    BlockEvent, BlockOutcome, MatrixMeta, StreamKind, SystemMeta, Telemetry, TraceDocument,
};
use recode_codec::block::{BlockStream, CompressedBlock};
use recode_codec::pipeline::{CompressedMatrix, MatrixCodecConfig};
use recode_codec::telemetry::StageTelemetry;
use recode_codec::CodecError;
use recode_mem::traffic::TrafficSource;
use recode_sparse::spmv::{spmv_with_into, SpmvKernel};
use recode_sparse::Csr;
use recode_udp::accel::{AccelReport, BatchOutcome, FaultHook, JobEvent, JobEventSink};
use recode_udp::progs::DshDecoder;
use recode_udp::{Lane, UdpError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How many times a failed block is re-decoded on a fresh lane before the
/// raw-store fallback kicks in.
pub const MAX_BLOCK_RETRIES: usize = 2;

/// Statistics from one UDP-decoded execution.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ExecStats {
    /// Accelerator-side report (cycles, throughput, utilization). Cycles
    /// spent on successful retry decodes *are* folded into the makespan and
    /// busy totals (retries run serially after the batch, extending the
    /// critical path), and utilization is recomputed accordingly; the extra
    /// amount is broken out in [`ExecStats::retry_cycles`].
    pub accel: AccelReport,
    /// Modeled wall-clock seconds to stream the compressed matrix from
    /// memory (the memory side of the pipeline), including any raw-store
    /// re-fetch traffic.
    pub mem_stream_seconds: f64,
    /// Modeled DMA seconds moving blocks into UDP local memory.
    pub dma_seconds: f64,
    /// Compressed bytes moved.
    pub compressed_bytes: usize,
    /// Retry decode attempts made for failed blocks.
    pub blocks_retried: usize,
    /// Blocks whose retries were exhausted and were served from the raw
    /// fallback store instead.
    pub blocks_fell_back: usize,
    /// Uncompressed bytes re-fetched through the fallback path.
    pub fallback_bytes: usize,
    /// Lane cycles spent on successful retry decodes, already included in
    /// `accel.makespan_cycles` / `accel.busy_cycles`.
    #[serde(default)]
    pub retry_cycles: u64,
    /// Scheduler backoff cycles charged by the [`JobBudget`] per retry
    /// attempt. Folded into `accel.makespan_cycles` only — backoff is
    /// waiting, not work, so busy cycles are untouched. Zero unless a
    /// budget with backoff was supplied.
    #[serde(default, skip_serializing_if = "serde_is_zero_u64")]
    pub backoff_cycles: u64,
    /// True when any block needed a retry or a fallback — the result is
    /// still bit-exact, but the run did not complete on the happy path.
    pub degraded: bool,
    /// True when the run never touched the accelerator: the circuit breaker
    /// bypassed it to the software decoder ([`RecodedSpmv::run_job`]).
    #[serde(default, skip_serializing_if = "serde_is_false")]
    pub software_decode: bool,
    /// Blocks that decoded cleanly on the first attempt. In-memory
    /// accounting only (not serialized):
    /// `blocks_ok + blocks_recovered + blocks_fell_back == accel.jobs`.
    #[serde(skip)]
    pub blocks_ok: usize,
    /// Blocks that failed initially but recovered via retry (each counted
    /// once, unlike [`ExecStats::blocks_retried`] which counts attempts).
    #[serde(skip)]
    pub blocks_recovered: usize,
    /// Pipelined-schedule and decoded-block-cache statistics. All-zero
    /// (`enabled == false`) on the plain batch path, populated by the
    /// [`crate::overlap::OverlapExecutor`].
    #[serde(default)]
    pub overlap: OverlapStats,
}

/// `skip_serializing_if` helper: keeps clean-run trace JSON byte-identical
/// to pre-resilience documents. (`dead_code` allowed: only the serde derive
/// references it, through the attribute string.)
#[allow(dead_code, clippy::trivially_copy_pass_by_ref)]
fn serde_is_zero_u64(v: &u64) -> bool {
    *v == 0
}

/// `skip_serializing_if` helper for the software-bypass flag.
#[allow(dead_code, clippy::trivially_copy_pass_by_ref)]
fn serde_is_false(v: &bool) -> bool {
    !*v
}

impl ExecStats {
    /// Compressed bytes per non-zero actually moved by this run, through the
    /// one shared [`recode_codec::metrics::bytes_per_nnz`] definition.
    pub fn bytes_per_nnz(&self, nnz: usize) -> f64 {
        recode_codec::metrics::bytes_per_nnz(self.compressed_bytes, nnz)
    }
}

/// Uncompressed stream bytes kept aside so a block whose decode cannot be
/// recovered is re-fetched from memory instead of failing the whole SpMV —
/// the paper's raw-CSR re-fetch degradation path.
#[derive(Debug, Clone, Default)]
pub struct RawFallbackStore {
    /// Column indices as little-endian `u32` words.
    pub index_bytes: Vec<u8>,
    /// Values as little-endian `f64` words.
    pub value_bytes: Vec<u8>,
}

impl RawFallbackStore {
    /// Serializes the fallback streams from an uncompressed matrix.
    pub fn from_csr(a: &Csr) -> Self {
        RawFallbackStore {
            index_bytes: a.col_idx().iter().flat_map(|c| c.to_le_bytes()).collect(),
            value_bytes: a.values().iter().flat_map(|v| v.to_le_bytes()).collect(),
        }
    }

    /// The uncompressed byte range block `block` of a stream covers, or
    /// `None` if the store is shorter than the block claims.
    pub(crate) fn block_range(bytes: &[u8], block: usize, block_bytes: usize) -> Option<&[u8]> {
        let start = block.checked_mul(block_bytes)?;
        if start >= bytes.len() && !(start == 0 && bytes.is_empty()) {
            return None;
        }
        let end = start.checked_add(block_bytes)?.min(bytes.len());
        Some(&bytes[start..end])
    }
}

/// A sparse matrix held in compressed form, executable through the
/// simulated heterogeneous system.
pub struct RecodedSpmv {
    compressed: CompressedMatrix,
    index_decoder: DshDecoder,
    value_decoder: DshDecoder,
    raw_store: Option<RawFallbackStore>,
    /// Software-codec stage telemetry, present on traced instances
    /// ([`RecodedSpmv::new_traced`]). Encode timings accumulate at
    /// compression; decode timings whenever the software path runs.
    stage_telemetry: Option<Arc<StageTelemetry>>,
}

/// Job classification for the interleaved decode batch.
enum Which<'a> {
    Index(&'a CompressedBlock),
    Value(&'a CompressedBlock),
}

/// Transport-structure check: block count and sequence positions. Per-block
/// CRCs are deliberately *not* checked here — a payload-corrupted block must
/// reach the per-job retry/fallback machinery, but a dropped, duplicated, or
/// reordered block (whose CRC is still valid) would otherwise reassemble
/// into a silently wrong matrix.
pub(crate) fn check_stream_structure(stream: &BlockStream) -> Result<(), UdpError> {
    let expected = stream.expected_blocks().map_err(UdpError::from)?;
    if stream.blocks.len() != expected {
        return Err(UdpError::from(CodecError::BlockCount {
            expected,
            actual: stream.blocks.len(),
        }));
    }
    for (k, b) in stream.blocks.iter().enumerate() {
        if b.seq as usize != k {
            return Err(UdpError::from(CodecError::BlockSequence {
                expected: k,
                found: b.seq as usize,
            })
            .with_block(k));
        }
    }
    Ok(())
}

/// The little-endian `N`-byte words of the concatenation of `parts`, built
/// in one pass from the per-block outputs: a word that straddles two blocks
/// is finished in a carry.
///
/// # Errors
/// The total byte count, when it is not a multiple of `N`.
fn le_words<const N: usize, T>(
    parts: &[Vec<u8>],
    from_le: fn([u8; N]) -> T,
) -> Result<Vec<T>, usize> {
    let total: usize = parts.iter().map(Vec::len).sum();
    if !total.is_multiple_of(N) {
        return Err(total);
    }
    let mut words = Vec::with_capacity(total / N);
    let mut carry = [0u8; N];
    let mut carried = 0usize;
    for part in parts {
        let mut bytes = part.as_slice();
        if carried > 0 {
            let take = (N - carried).min(bytes.len());
            carry[carried..carried + take].copy_from_slice(&bytes[..take]);
            carried += take;
            bytes = &bytes[take..];
            if carried < N {
                continue;
            }
            words.push(from_le(carry));
        }
        let whole = bytes.chunks_exact(N);
        let rest = whole.remainder();
        words.extend(whole.map(|c| from_le(c.try_into().expect("chunks_exact"))));
        carry[..rest.len()].copy_from_slice(rest);
        carried = rest.len();
    }
    Ok(words)
}

impl RecodedSpmv {
    /// Compresses `a` for the heterogeneous system, keeping the raw stream
    /// bytes as the degradation fallback.
    ///
    /// # Errors
    /// Codec preconditions or decoder-construction failures.
    pub fn new(a: &Csr, config: MatrixCodecConfig) -> ExecResult<Self> {
        let compressed = CompressedMatrix::compress(a, config)?;
        Self::from_compressed_with_store(compressed, Some(RawFallbackStore::from_csr(a)))
    }

    /// Compresses `a` under a persisted [`crate::tune::TunedConfig`],
    /// after checking the config actually belongs to this matrix.
    ///
    /// The tuned codec (stage subset + block size) governs compression
    /// here; callers then run the tuned kernel via [`RecodedSpmv::spmv`]
    /// with [`crate::tune::TunedConfig::kernel`], or hand the recoded
    /// operand to an [`crate::overlap::OverlapExecutor`], whose tiled
    /// multiply consumes the same tuned codec stream.
    ///
    /// # Errors
    /// [`crate::tune::TuneError::DigestMismatch`] when the config was
    /// tuned for a different matrix — never a silent fallback — and
    /// [`crate::tune::TuneError::Exec`] for codec failures.
    pub fn new_tuned(
        a: &Csr,
        tuned: &crate::tune::TunedConfig,
    ) -> Result<Self, crate::tune::TuneError> {
        tuned.validate_for(a)?;
        Ok(Self::new(a, tuned.codec_config())?)
    }

    /// [`RecodedSpmv::new`] with codec-stage telemetry attached: per-stage
    /// encode timings are recorded during compression here, decode timings
    /// whenever [`RecodedSpmv::decompress_via_software`] runs, and the
    /// accumulated snapshot lands in the [`TraceDocument`] that
    /// [`RecodedSpmv::spmv_traced`] produces.
    ///
    /// # Errors
    /// As [`RecodedSpmv::new`].
    pub fn new_traced(a: &Csr, config: MatrixCodecConfig) -> ExecResult<Self> {
        let stage_telemetry = Arc::new(StageTelemetry::new());
        let compressed = CompressedMatrix::compress_with_telemetry(a, config, &stage_telemetry)?;
        let mut this =
            Self::from_compressed_with_store(compressed, Some(RawFallbackStore::from_csr(a)))?;
        this.stage_telemetry = Some(stage_telemetry);
        Ok(this)
    }

    /// Wraps an already-compressed matrix (no fallback store: unrecoverable
    /// blocks become hard errors).
    ///
    /// # Errors
    /// Decoder-construction failures (bad tables).
    pub fn from_compressed(compressed: CompressedMatrix) -> ExecResult<Self> {
        Self::from_compressed_with_store(compressed, None)
    }

    /// Wraps an already-compressed matrix with an explicit fallback store.
    ///
    /// # Errors
    /// Decoder-construction failures (bad tables).
    pub fn from_compressed_with_store(
        compressed: CompressedMatrix,
        raw_store: Option<RawFallbackStore>,
    ) -> ExecResult<Self> {
        let index_decoder =
            DshDecoder::new(compressed.config.index, compressed.index_table_lengths.as_deref())?;
        let value_decoder =
            DshDecoder::new(compressed.config.value, compressed.value_table_lengths.as_deref())?;
        Ok(RecodedSpmv {
            compressed,
            index_decoder,
            value_decoder,
            raw_store,
            stage_telemetry: None,
        })
    }

    /// The codec-stage telemetry attached by [`RecodedSpmv::new_traced`],
    /// if any.
    pub fn stage_telemetry(&self) -> Option<&Arc<StageTelemetry>> {
        self.stage_telemetry.as_ref()
    }

    /// The compressed representation.
    pub fn compressed(&self) -> &CompressedMatrix {
        &self.compressed
    }

    /// The lane decoder for the column-index stream.
    pub(crate) fn index_decoder(&self) -> &DshDecoder {
        &self.index_decoder
    }

    /// The lane decoder for the value stream.
    pub(crate) fn value_decoder(&self) -> &DshDecoder {
        &self.value_decoder
    }

    /// The raw fallback store, if one was kept at compression time.
    pub(crate) fn raw_store(&self) -> Option<&RawFallbackStore> {
        self.raw_store.as_ref()
    }

    /// Mutable access to the compressed representation — the fault-injection
    /// tests corrupt blocks through this.
    pub fn compressed_mut(&mut self) -> &mut CompressedMatrix {
        &mut self.compressed
    }

    /// Decodes the whole matrix through the UDP simulator and reassembles
    /// the CSR form, with accelerator statistics.
    ///
    /// # Errors
    /// [`ExecError::Unrecoverable`] if a block fails decoding, exhausts its
    /// retries, and no fallback store covers it; [`ExecError::Reassembly`]
    /// if the decoded streams do not form a valid matrix.
    pub fn decompress_via_udp(&self, sys: &SystemConfig) -> ExecResult<(Csr, ExecStats)> {
        self.decompress_via_udp_faulty(sys, None)
    }

    /// [`RecodedSpmv::decompress_via_udp`] with an optional fault-injection
    /// hook applied to the initial batch (retries run hook-free, modeling
    /// transient faults that clear on a second attempt).
    ///
    /// # Errors
    /// As [`RecodedSpmv::decompress_via_udp`].
    pub fn decompress_via_udp_faulty(
        &self,
        sys: &SystemConfig,
        hook: Option<&FaultHook>,
    ) -> ExecResult<(Csr, ExecStats)> {
        self.decompress_via_udp_traced(sys, hook, None)
    }

    /// [`RecodedSpmv::decompress_via_udp_faulty`] with an optional telemetry
    /// registry. When `tel` is `Some`, the run records per-phase spans
    /// (`exec.decode_batch`, `exec.retry`, `exec.fallback`,
    /// `exec.reassemble`, `exec.mem_stream`, `exec.dma`), per-block events
    /// with lane and outcome, dotted counters, and memory traffic by source;
    /// when `None`, no clocks are read and no events are collected.
    ///
    /// # Errors
    /// As [`RecodedSpmv::decompress_via_udp`].
    pub fn decompress_via_udp_traced(
        &self,
        sys: &SystemConfig,
        hook: Option<&FaultHook>,
        tel: Option<&mut Telemetry>,
    ) -> ExecResult<(Csr, ExecStats)> {
        self.decompress_via_udp_budgeted(sys, hook, tel, None)
    }

    /// [`RecodedSpmv::decompress_via_udp_traced`] governed by a
    /// [`JobBudget`]. Budget limits are checked at every retry boundary —
    /// the job's natural preemption points — so an exhausted budget
    /// surfaces as [`ExecError::DeadlineExceeded`] naming what ran out,
    /// never as a hang. Per-retry backoff accumulates into
    /// [`ExecStats::backoff_cycles`] and stretches the modeled makespan
    /// without touching busy cycles. `budget: None` (or an unbounded
    /// budget) behaves exactly like the unbudgeted path.
    ///
    /// # Errors
    /// As [`RecodedSpmv::decompress_via_udp`], plus
    /// [`ExecError::DeadlineExceeded`] when the budget runs out.
    pub fn decompress_via_udp_budgeted(
        &self,
        sys: &SystemConfig,
        hook: Option<&FaultHook>,
        tel: Option<&mut Telemetry>,
        budget: Option<&JobBudget>,
    ) -> ExecResult<(Csr, ExecStats)> {
        check_stream_structure(&self.compressed.index_stream)?;
        check_stream_structure(&self.compressed.value_stream)?;

        // Interleave index and value blocks, as the DMA engine would.
        let n_index = self.compressed.index_stream.blocks.len();
        let mut jobs: Vec<Which<'_>> =
            Vec::with_capacity(n_index + self.compressed.value_stream.blocks.len());
        jobs.extend(self.compressed.index_stream.blocks.iter().map(Which::Index));
        jobs.extend(self.compressed.value_stream.blocks.iter().map(Which::Value));

        let run = |lane: &mut Lane, job: &Which<'_>| match job {
            Which::Index(b) => self.index_decoder.decode_block(lane, b),
            Which::Value(b) => self.value_decoder.decode_block(lane, b),
        };
        let empty_hook = FaultHook::default();
        let pool_before = tel.is_some().then(|| recode_udp::pool::global().stats());
        let events: Mutex<Vec<JobEvent>> = Mutex::new(Vec::new());
        let sink_fn = |e: &JobEvent| {
            recorder::record(
                recorder::EventKind::BlockOutcome,
                recorder::Track::lane(e.lane),
                "block",
                e.cycles,
                0,
            );
            events.lock().expect("event sink poisoned").push(*e);
        };
        // The sink also fires for a recorder-only run (`--chrome-trace`
        // without `--trace`) so lane-track block events still materialize.
        let sink: Option<JobEventSink<'_>> =
            if tel.is_some() || recorder::is_enabled() { Some(&sink_fn) } else { None };
        let t_batch = tel.is_some().then(Instant::now);
        let outcome: BatchOutcome<UdpError> = {
            let _span = recorder::span(recorder::Track::MAIN, "exec.decode_batch");
            sys.udp.run_jobs_observed(&jobs, run, hook.unwrap_or(&empty_hook), sink)
        };
        let batch_ns = t_batch.map_or(0, |t| t.elapsed().as_nanos() as u64);

        let mut report = outcome.report;
        let mut tracker = budget.map(|b| BudgetTracker::new(*b));
        let mut blocks_ok = 0usize;
        let mut blocks_recovered = 0usize;
        let mut blocks_retried = 0usize;
        let mut blocks_fell_back = 0usize;
        let mut fallback_bytes = 0usize;
        let mut retry_cycles = 0u64;
        let mut retry_ns = 0u64;
        let mut fallback_ns = 0u64;
        // Per-job corrections for the event records: successful-retry cycles
        // or the fallback marker. Empty on a clean run.
        let mut recovered_jobs: BTreeMap<usize, (u64, BlockOutcome)> = BTreeMap::new();
        let mut outputs: Vec<Vec<u8>> = Vec::with_capacity(jobs.len());

        for (k, result) in outcome.results.into_iter().enumerate() {
            let first_err = match result {
                Ok(o) => {
                    blocks_ok += 1;
                    outputs.push(o.output);
                    continue;
                }
                Err(e) => e,
            };
            // Bounded retry on a fresh lane. Transient faults (injected
            // traps, late DMA) clear; CRC failures repeat deterministically
            // and fall through to the raw store.
            let mut recovered: Option<Vec<u8>> = None;
            let mut last_err = first_err;
            let t_retry = tel.is_some().then(Instant::now);
            // One pooled lane serves every retry attempt: `run` fully
            // resets lane state, so attempt N is as "fresh" as a new lane.
            let mut lane = recode_udp::pool::global().checkout();
            for attempt in 0..MAX_BLOCK_RETRIES {
                recorder::record(
                    recorder::EventKind::Retry,
                    recorder::Track::MAIN,
                    "exec.retry",
                    attempt as u64 + 1,
                    k as u64,
                );
                // Retry boundaries are the job's preemption points: the
                // budget is consulted before every attempt, and an
                // exhausted one ends the job in a typed terminal state.
                if let Some(t) = tracker.as_mut() {
                    if let Err(what) = t.admit_retry() {
                        return Err(ExecError::DeadlineExceeded {
                            budget: what.to_string(),
                            completed_blocks: blocks_ok + blocks_recovered + blocks_fell_back,
                            total_blocks: jobs.len(),
                        });
                    }
                }
                blocks_retried += 1;
                match run(&mut lane, &jobs[k]) {
                    Ok(o) => {
                        report.output_bytes += o.output.len() as u64;
                        report.opclass.merge(&o.opclass);
                        report.stage_cycles.merge(&o.stage_cycles);
                        retry_cycles += o.cycles;
                        if let Some(t) = tracker.as_mut() {
                            t.charge_retry_cycles(o.cycles);
                        }
                        recovered_jobs.insert(k, (o.cycles, BlockOutcome::Retried));
                        recovered = Some(o.output);
                        break;
                    }
                    Err(e) => last_err = e,
                }
            }
            if let Some(t) = t_retry {
                retry_ns += t.elapsed().as_nanos() as u64;
            }
            if let Some(bytes) = recovered {
                blocks_recovered += 1;
                outputs.push(bytes);
                continue;
            }
            // Retries exhausted: re-fetch the block's uncompressed range.
            let t_fallback = tel.is_some().then(Instant::now);
            let (store, block_bytes, pos) = if k < n_index {
                (
                    self.raw_store.as_ref().map(|s| s.index_bytes.as_slice()),
                    self.compressed.index_stream.block_bytes,
                    k,
                )
            } else {
                (
                    self.raw_store.as_ref().map(|s| s.value_bytes.as_slice()),
                    self.compressed.value_stream.block_bytes,
                    k - n_index,
                )
            };
            let raw = store.and_then(|b| RawFallbackStore::block_range(b, pos, block_bytes));
            if let Some(t) = t_fallback {
                fallback_ns += t.elapsed().as_nanos() as u64;
            }
            match raw {
                Some(raw) => {
                    recorder::record(
                        recorder::EventKind::Fallback,
                        recorder::Track::MAIN,
                        "exec.fallback",
                        raw.len() as u64,
                        k as u64,
                    );
                    blocks_fell_back += 1;
                    fallback_bytes += raw.len();
                    report.output_bytes += raw.len() as u64;
                    recovered_jobs.insert(k, (0, BlockOutcome::FellBack));
                    outputs.push(raw.to_vec());
                }
                None => {
                    return Err(ExecError::Unrecoverable {
                        block: last_err.block().or(Some(pos)),
                        lane: None,
                        source: last_err,
                    });
                }
            }
        }

        // Fold retry decode cycles into the batch totals: retries run
        // serially after the batch on one lane, so they extend the critical
        // path as well as the busy sum, and utilization must be recomputed.
        // Budget backoff is pure waiting: it stretches the makespan but is
        // never busy work, keeping budgeted and unbudgeted clean runs
        // cycle-identical when backoff is zero.
        let backoff_cycles = tracker.as_ref().map_or(0, BudgetTracker::backoff_cycles);
        if retry_cycles > 0 {
            report.makespan_cycles += retry_cycles;
            report.busy_cycles += retry_cycles;
        }
        report.makespan_cycles += backoff_cycles;
        if retry_cycles > 0 || backoff_cycles > 0 {
            report.refresh_utilization();
        }

        let t_reassemble = tel.is_some().then(Instant::now);
        let col_idx = le_words(&outputs[..n_index], u32::from_le_bytes).map_err(|len| {
            ExecError::Reassembly(format!(
                "index stream decoded to {len} bytes, not 4-byte aligned"
            ))
        })?;
        let values = le_words(&outputs[n_index..], f64::from_le_bytes).map_err(|len| {
            ExecError::Reassembly(format!(
                "value stream decoded to {len} bytes, not 8-byte aligned"
            ))
        })?;
        let decoded_bytes = (col_idx.len() * 4 + values.len() * 8) as u64;
        let a = Csr::try_from_parts(
            self.compressed.nrows,
            self.compressed.ncols,
            self.compressed.row_ptr.clone(),
            col_idx,
            values,
        )
        .map_err(|e| ExecError::Reassembly(format!("decoded matrix invalid: {e}")))?;
        let reassemble_ns = t_reassemble.map_or(0, |t| t.elapsed().as_nanos() as u64);

        let compressed_bytes = self.compressed.wire_bytes();
        // Fallback re-fetch is extra memory traffic over the same channel.
        let mem_stream_seconds = sys.mem.stream_seconds(compressed_bytes as u64)
            + sys.mem.stream_seconds(fallback_bytes as u64);
        let stats = ExecStats {
            accel: report,
            mem_stream_seconds,
            dma_seconds: sys.dma.transfer_seconds(jobs.len() as u64, compressed_bytes as u64),
            compressed_bytes,
            blocks_retried,
            blocks_fell_back,
            fallback_bytes,
            retry_cycles,
            backoff_cycles,
            degraded: blocks_retried > 0 || blocks_fell_back > 0,
            software_decode: false,
            blocks_ok,
            blocks_recovered,
            overlap: OverlapStats::default(),
        };

        if let Some(tel) = tel {
            let freq = sys.udp.freq_hz;
            let batch_modeled = (stats.accel.makespan_cycles - stats.retry_cycles) as f64 / freq;
            tel.span("exec.decode_batch", batch_ns, batch_modeled, stats.accel.output_bytes);
            if stats.blocks_retried > 0 {
                tel.span("exec.retry", retry_ns, stats.retry_cycles as f64 / freq, 0);
            }
            if stats.blocks_fell_back > 0 {
                tel.span("exec.fallback", fallback_ns, 0.0, stats.fallback_bytes as u64);
            }
            tel.span("exec.reassemble", reassemble_ns, 0.0, decoded_bytes);
            tel.span(
                "exec.mem_stream",
                0,
                stats.mem_stream_seconds,
                (compressed_bytes + fallback_bytes) as u64,
            );
            tel.span("exec.dma", 0, stats.dma_seconds, compressed_bytes as u64);

            tel.add("exec.jobs", stats.accel.jobs as u64);
            tel.add("exec.jobs_failed", stats.accel.jobs_failed as u64);
            tel.add("exec.blocks_retried", stats.blocks_retried as u64);
            tel.add("exec.blocks_fell_back", stats.blocks_fell_back as u64);
            tel.add("exec.fallback_bytes", stats.fallback_bytes as u64);
            tel.add("exec.retry_cycles", stats.retry_cycles);

            // Lane-pool traffic over this batch, as deltas of the
            // process-wide pool's monotonic counters. Parallel tests can
            // inflate these (the pool is shared), so they are reported, not
            // validated. Emitting any `pool.*` counter stamps the document
            // `recode-trace/v2`.
            // Saturating: `LanePool::reset` (chaos trial isolation) can zero
            // the counters mid-run in a shared process.
            if let Some(before) = pool_before {
                let after = recode_udp::pool::global().stats();
                tel.add("pool.checkouts", after.checkouts.saturating_sub(before.checkouts));
                tel.add(
                    "pool.recycled_hits",
                    after.recycled_hits.saturating_sub(before.recycled_hits),
                );
                tel.add(
                    "pool.fresh_builds",
                    after.fresh_builds.saturating_sub(before.fresh_builds),
                );
                tel.add("pool.returned", after.returned.saturating_sub(before.returned));
                tel.add(
                    "pool.dropped_at_capacity",
                    after.dropped_at_capacity.saturating_sub(before.dropped_at_capacity),
                );
                tel.add("pool.quarantined", after.quarantined.saturating_sub(before.quarantined));
                tel.add("pool.readmitted", after.readmitted.saturating_sub(before.readmitted));
            }

            tel.traffic.read(TrafficSource::CompressedStream, compressed_bytes as u64);
            tel.traffic.read(TrafficSource::FallbackRefetch, stats.fallback_bytes as u64);
            tel.traffic.read(TrafficSource::RowPtr, ((self.compressed.nrows + 1) * 8) as u64);

            let mut evs = events.into_inner().expect("event sink poisoned");
            evs.sort_by_key(|e| e.job);
            for e in evs {
                let (cycles, outcome) =
                    recovered_jobs.get(&e.job).copied().unwrap_or((e.cycles, BlockOutcome::Ok));
                let (stream, block) = if e.job < n_index {
                    (StreamKind::Index, e.job)
                } else {
                    (StreamKind::Value, e.job - n_index)
                };
                tel.block_event(BlockEvent {
                    job: e.job,
                    stream,
                    block,
                    lane: e.lane,
                    cycles,
                    outcome,
                });
            }
        }
        Ok((a, stats))
    }

    /// Full recoding-enhanced SpMV: UDP-decode, then multiply with `kernel`.
    ///
    /// # Errors
    /// As [`RecodedSpmv::decompress_via_udp`]; panics on shape mismatch like
    /// the plain kernels do.
    pub fn spmv(
        &self,
        sys: &SystemConfig,
        kernel: SpmvKernel,
        x: &[f64],
    ) -> ExecResult<(Vec<f64>, ExecStats)> {
        self.spmv_faulty(sys, kernel, x, None)
    }

    /// [`RecodedSpmv::spmv`] with an optional fault-injection hook.
    ///
    /// # Errors
    /// As [`RecodedSpmv::decompress_via_udp`].
    pub fn spmv_faulty(
        &self,
        sys: &SystemConfig,
        kernel: SpmvKernel,
        x: &[f64],
        hook: Option<&FaultHook>,
    ) -> ExecResult<(Vec<f64>, ExecStats)> {
        let (a, stats) = self.decompress_via_udp_faulty(sys, hook)?;
        let mut y = vec![0.0; a.nrows()];
        spmv_with_into(kernel, &a, x, &mut y);
        Ok((y, stats))
    }

    /// [`RecodedSpmv::spmv_faulty`] governed by a [`JobBudget`].
    ///
    /// # Errors
    /// As [`RecodedSpmv::decompress_via_udp_budgeted`].
    pub fn spmv_budgeted(
        &self,
        sys: &SystemConfig,
        kernel: SpmvKernel,
        x: &[f64],
        hook: Option<&FaultHook>,
        budget: &JobBudget,
    ) -> ExecResult<(Vec<f64>, ExecStats)> {
        let (a, stats) = self.decompress_via_udp_budgeted(sys, hook, None, Some(budget))?;
        let mut y = vec![0.0; a.nrows()];
        spmv_with_into(kernel, &a, x, &mut y);
        Ok((y, stats))
    }

    /// Synthesized stats for a breaker-bypassed software decode: no
    /// accelerator cycles, the compressed stream still crosses memory, and
    /// the run is flagged `software_decode` + `degraded`.
    fn software_stats(&self, sys: &SystemConfig) -> ExecStats {
        let compressed_bytes = self.compressed.wire_bytes();
        ExecStats {
            accel: AccelReport::default(),
            mem_stream_seconds: sys.mem.stream_seconds(compressed_bytes as u64),
            dma_seconds: 0.0,
            compressed_bytes,
            blocks_retried: 0,
            blocks_fell_back: 0,
            fallback_bytes: 0,
            retry_cycles: 0,
            backoff_cycles: 0,
            degraded: true,
            software_decode: true,
            blocks_ok: 0,
            blocks_recovered: 0,
            overlap: OverlapStats::default(),
        }
    }

    /// One fully governed job: circuit-breaker admission, a budgeted
    /// accelerator run, degradation to the software decoder when the
    /// breaker is open, and a typed terminal [`JobState`] no matter what
    /// happened — [`JobReport`] is total over all outcomes.
    ///
    /// The degradation ladder, top to bottom: accelerator happy path →
    /// per-block retry → per-block raw-CSR re-fetch → (breaker open)
    /// whole-job software decode. Every rung is bit-exact; only the last
    /// gives up on the accelerator entirely.
    pub fn run_job(
        &self,
        sys: &SystemConfig,
        hook: Option<&FaultHook>,
        budget: &JobBudget,
        mut breaker: Option<&mut CircuitBreaker>,
        mut tel: Option<&mut Telemetry>,
    ) -> JobReport {
        let report =
            self.run_job_inner(sys, hook, budget, breaker.as_deref_mut(), tel.as_deref_mut());
        // Breaker posture after the job, as `breaker.*` counters (v2
        // content). `breaker.state` is a code: 0 closed, 1 open, 2 half-open.
        if let (Some(tel), Some(b)) = (tel, breaker.as_deref()) {
            tel.add("breaker.trips", b.trips());
            tel.add("breaker.probes", b.probes());
            tel.add(
                "breaker.state",
                match b.state() {
                    BreakerState::Closed => 0,
                    BreakerState::Open => 1,
                    BreakerState::HalfOpen => 2,
                },
            );
        }
        report
    }

    fn run_job_inner(
        &self,
        sys: &SystemConfig,
        hook: Option<&FaultHook>,
        budget: &JobBudget,
        mut breaker: Option<&mut CircuitBreaker>,
        tel: Option<&mut Telemetry>,
    ) -> JobReport {
        let admitted = breaker.as_deref_mut().is_none_or(CircuitBreaker::admit);
        if !admitted {
            // Open breaker: the accelerator is bypassed entirely and the
            // job is served by the software decoder — degraded, bit-exact.
            let breaker_state =
                breaker.as_deref().map_or(BreakerState::Closed, CircuitBreaker::state);
            return match self.decompress_via_software() {
                Ok(a) => JobReport {
                    state: JobState::Degraded,
                    matrix: Some(a),
                    stats: Some(self.software_stats(sys)),
                    error: None,
                    software_path: true,
                    breaker: breaker_state,
                },
                Err(e) => JobReport {
                    state: JobState::Rejected,
                    matrix: None,
                    stats: None,
                    error: Some(ExecError::Codec(e)),
                    software_path: true,
                    breaker: breaker_state,
                },
            };
        }
        match self.decompress_via_udp_budgeted(sys, hook, tel, Some(budget)) {
            Ok((a, stats)) => {
                if let Some(b) = breaker.as_deref_mut() {
                    b.record(stats.accel.jobs, stats.accel.jobs_failed);
                }
                let state = if stats.degraded { JobState::Degraded } else { JobState::Completed };
                JobReport {
                    state,
                    matrix: Some(a),
                    stats: Some(stats),
                    error: None,
                    software_path: false,
                    breaker: breaker.as_deref().map_or(BreakerState::Closed, CircuitBreaker::state),
                }
            }
            Err(e) => {
                if let Some(b) = breaker.as_deref_mut() {
                    // A run that died counts fully against the window.
                    let jobs = (self.compressed.index_stream.blocks.len()
                        + self.compressed.value_stream.blocks.len())
                    .max(1);
                    b.record(jobs, jobs);
                }
                let state = match &e {
                    ExecError::DeadlineExceeded { .. } => JobState::DeadlineExceeded,
                    _ => JobState::Rejected,
                };
                JobReport {
                    state,
                    matrix: None,
                    stats: None,
                    error: Some(e),
                    software_path: false,
                    breaker: breaker.as_deref().map_or(BreakerState::Closed, CircuitBreaker::state),
                }
            }
        }
    }

    /// [`RecodedSpmv::run_job`] plus a sealed [`TraceDocument`] when the
    /// job produced stats (every state but `Rejected`/`DeadlineExceeded`).
    /// The document carries the `pool.*` and — when a breaker was supplied —
    /// `breaker.*` counters, so it is always stamped `recode-trace/v2`.
    /// This is the `recode metrics` scrape path.
    pub fn run_job_traced(
        &self,
        sys: &SystemConfig,
        hook: Option<&FaultHook>,
        budget: &JobBudget,
        breaker: Option<&mut CircuitBreaker>,
        name: &str,
    ) -> (JobReport, Option<TraceDocument>) {
        let t_total = Instant::now();
        let mut tel = Telemetry::new();
        let report = self.run_job(sys, hook, budget, breaker, Some(&mut tel));
        let doc = match (&report.matrix, &report.stats) {
            (Some(a), Some(stats)) => {
                let matrix = MatrixMeta {
                    name: name.to_string(),
                    nrows: a.nrows(),
                    ncols: a.ncols(),
                    nnz: a.nnz(),
                    compressed_bytes: stats.compressed_bytes,
                    bytes_per_nnz: self.compressed.bytes_per_nnz(),
                };
                let system = SystemMeta {
                    memory: sys.mem.name.to_string(),
                    lanes: sys.udp.lanes,
                    freq_hz: sys.udp.freq_hz,
                };
                let codec_stages =
                    self.stage_telemetry.as_ref().map(|t| t.snapshot()).unwrap_or_default();
                Some(tel.into_document(
                    matrix,
                    system,
                    stats.clone(),
                    codec_stages,
                    &sys.mem,
                    t_total.elapsed().as_nanos() as u64,
                ))
            }
            _ => None,
        };
        (report, doc)
    }

    /// Fully traced SpMV: [`RecodedSpmv::spmv_faulty`] plus a sealed
    /// [`TraceDocument`] covering every phase — UDP decode with per-lane and
    /// per-opcode-class breakdowns, retry/fallback recovery, reassembly,
    /// modeled memory/DMA streaming, and the CPU multiply — along with
    /// per-block events, dotted counters, memory traffic by source, and the
    /// codec-stage snapshot (non-zero when built via
    /// [`RecodedSpmv::new_traced`]). `name` labels the matrix in the trace.
    ///
    /// # Errors
    /// As [`RecodedSpmv::decompress_via_udp`].
    pub fn spmv_traced(
        &self,
        sys: &SystemConfig,
        kernel: SpmvKernel,
        x: &[f64],
        hook: Option<&FaultHook>,
        name: &str,
    ) -> ExecResult<(Vec<f64>, ExecStats, TraceDocument)> {
        let t_total = Instant::now();
        let mut tel = Telemetry::new();
        let (a, stats) = self.decompress_via_udp_traced(sys, hook, Some(&mut tel))?;

        let t_multiply = Instant::now();
        let mut y = vec![0.0; a.nrows()];
        spmv_with_into(kernel, &a, x, &mut y);
        let multiply_ns = t_multiply.elapsed().as_nanos() as u64;

        // The multiply streams the dense vectors through the memory
        // interface (the decoded matrix stays on-chip in the paper's tiled
        // flow, so only x and y are charged to DRAM).
        let vector_read = (a.ncols() * 8) as u64;
        let vector_write = (a.nrows() * 8) as u64;
        tel.traffic.read(TrafficSource::Vectors, vector_read);
        tel.traffic.write(TrafficSource::Vectors, vector_write);
        tel.span(
            "exec.cpu_multiply",
            multiply_ns,
            sys.mem.stream_seconds(vector_read + vector_write),
            vector_read + vector_write,
        );

        let matrix = MatrixMeta {
            name: name.to_string(),
            nrows: a.nrows(),
            ncols: a.ncols(),
            nnz: a.nnz(),
            compressed_bytes: stats.compressed_bytes,
            bytes_per_nnz: self.compressed.bytes_per_nnz(),
        };
        let system = SystemMeta {
            memory: sys.mem.name.to_string(),
            lanes: sys.udp.lanes,
            freq_hz: sys.udp.freq_hz,
        };
        let codec_stages = self.stage_telemetry.as_ref().map(|t| t.snapshot()).unwrap_or_default();
        let wall_ns_total = t_total.elapsed().as_nanos() as u64;
        let doc =
            tel.into_document(matrix, system, stats.clone(), codec_stages, &sys.mem, wall_ns_total);
        Ok((y, stats, doc))
    }

    /// Software-only decode path (reference), for differential testing.
    /// On a traced instance ([`RecodedSpmv::new_traced`]) the per-stage
    /// decode timings accumulate into the attached telemetry.
    ///
    /// # Errors
    /// Codec errors.
    pub fn decompress_via_software(&self) -> Result<Csr, CodecError> {
        match &self.stage_telemetry {
            Some(t) => self.compressed.decompress_with_telemetry(t),
            None => self.compressed.decompress(),
        }
    }

    /// **Streaming tiled SpMV** — the paper's Fig. 7 execution mode. The
    /// matrix is *never* materialized: index and value blocks are decoded
    /// one tile at a time on a UDP lane and multiplied immediately, so
    /// resident memory stays `O(block)` instead of `O(nnz)`. Rows that
    /// straddle tile boundaries accumulate across tiles, exactly like the
    /// paper's tiled loop.
    ///
    /// # Errors
    /// [`ExecError::Udp`] on lane traps or CRC failures (with block
    /// context), [`ExecError::Reassembly`] on stream misalignment.
    ///
    /// # Panics
    /// If `x.len() != ncols`.
    pub fn spmv_streaming(&self, x: &[f64]) -> ExecResult<(Vec<f64>, StreamingStats)> {
        assert_eq!(x.len(), self.compressed.ncols, "x length must equal ncols");
        check_stream_structure(&self.compressed.index_stream)?;
        check_stream_structure(&self.compressed.value_stream)?;
        let mut lane = recode_udp::pool::global().checkout();
        let mut y = vec![0.0f64; self.compressed.nrows];
        let row_ptr = &self.compressed.row_ptr;

        let mut stats = StreamingStats {
            compressed_bytes: self.compressed.wire_bytes(),
            bytes_per_nnz: self.compressed.bytes_per_nnz(),
            ..StreamingStats::default()
        };
        let mut row = 0usize; // current output row
        let mut k_global = 0usize; // nnz cursor
                                   // Value bytes decoded but not yet consumed (at most ~2 blocks).
        let mut val_buf: Vec<u8> = Vec::new();
        let mut val_blocks = self.compressed.value_stream.blocks.iter();

        for idx_block in &self.compressed.index_stream.blocks {
            let idx_out = self.index_decoder.decode_block(&mut lane, idx_block)?;
            stats.lane_cycles += idx_out.cycles;
            stats.blocks += 1;
            let tile_nnz = idx_out.output.len() / 4;
            // Pull value blocks until the tile's values are resident.
            while val_buf.len() < tile_nnz * 8 {
                let vb = val_blocks
                    .next()
                    .ok_or_else(|| ExecError::Reassembly("value stream ended early".into()))?;
                let v = self.value_decoder.decode_block(&mut lane, vb)?;
                stats.lane_cycles += v.cycles;
                stats.blocks += 1;
                val_buf.extend_from_slice(&v.output);
            }
            stats.peak_resident_bytes =
                stats.peak_resident_bytes.max(idx_out.output.len() + val_buf.len());

            // Multiply this tile, walking rows as the nnz cursor advances
            // (k_global < nnz = row_ptr[nrows], so a row with
            // row_ptr[row + 1] > k_global always exists; empty rows are
            // skipped by the same walk).
            for t in 0..tile_nnz {
                while row_ptr[row + 1] <= k_global {
                    row += 1;
                }
                let c = u32::from_le_bytes(
                    idx_out.output[t * 4..t * 4 + 4].try_into().expect("4-byte index"),
                ) as usize;
                let v =
                    f64::from_le_bytes(val_buf[t * 8..t * 8 + 8].try_into().expect("8-byte value"));
                y[row] += v * x[c];
                k_global += 1;
            }
            val_buf.drain(..tile_nnz * 8);
        }
        if k_global != self.compressed.nnz {
            return Err(ExecError::Reassembly(format!(
                "streamed {} non-zeros but the matrix has {}",
                k_global, self.compressed.nnz
            )));
        }
        Ok((y, stats))
    }
}

/// Statistics from a streaming tiled execution.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StreamingStats {
    /// Total UDP lane cycles across all decoded blocks.
    pub lane_cycles: u64,
    /// Blocks decoded (index + value).
    pub blocks: usize,
    /// Peak decoded bytes resident at once — the tiled loop's working set.
    pub peak_resident_bytes: usize,
    /// Compressed wire bytes streamed (both streams plus tables).
    #[serde(default)]
    pub compressed_bytes: usize,
    /// `compressed_bytes / nnz`, via the shared
    /// [`recode_codec::metrics::bytes_per_nnz`] definition.
    #[serde(default)]
    pub bytes_per_nnz: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use recode_sparse::prelude::*;

    fn test_matrix() -> Csr {
        generate(
            &GenSpec::Stencil2D {
                nx: 60,
                ny: 60,
                points: 9,
                values: ValueModel::QuantizedGaussian { levels: 48 },
            },
            17,
        )
    }

    #[test]
    fn le_words_equals_concat_then_convert_for_every_split() {
        let bytes: Vec<u8> = (0..48u8).map(|b| b.wrapping_mul(37) ^ 0x5A).collect();
        let want32: Vec<u32> =
            bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect();
        let want64: Vec<f64> =
            bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect();
        // Two cuts at every pair of offsets: words straddle one boundary, two
        // boundaries (a part shorter than the carry needs), and empty parts.
        for i in 0..=bytes.len() {
            for j in i..=bytes.len() {
                let parts = [bytes[..i].to_vec(), bytes[i..j].to_vec(), bytes[j..].to_vec()];
                assert_eq!(le_words(&parts, u32::from_le_bytes).unwrap(), want32, "cuts {i},{j}");
                let got64 = le_words(&parts, f64::from_le_bytes).unwrap();
                assert_eq!(
                    got64.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want64.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "cuts {i},{j}"
                );
            }
        }
        assert_eq!(le_words::<4, u32>(&[], u32::from_le_bytes).unwrap(), Vec::<u32>::new());
        let ragged = [bytes[..5].to_vec(), bytes[5..9].to_vec()];
        assert_eq!(le_words(&ragged, u32::from_le_bytes), Err(9));
        assert_eq!(le_words(&ragged, f64::from_le_bytes).map(|_| ()), Err(9));
    }

    #[test]
    fn udp_decode_equals_software_decode_equals_original() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let (via_udp, stats) = r.decompress_via_udp(&sys).unwrap();
        let via_sw = r.decompress_via_software().unwrap();
        assert_eq!(via_udp, a, "UDP-decoded matrix differs from original");
        assert_eq!(via_sw, a);
        assert!(stats.accel.makespan_cycles > 0);
        assert!(stats.mem_stream_seconds > 0.0);
        assert!(stats.dma_seconds > 0.0);
        assert!(stats.compressed_bytes < a.nnz() * 12);
        assert!(!stats.degraded, "clean decode must not be degraded");
        assert_eq!(stats.blocks_retried, 0);
        assert_eq!(stats.blocks_fell_back, 0);
    }

    #[test]
    fn recoded_spmv_matches_uncompressed_kernel_bit_for_bit() {
        let a = test_matrix();
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let want = recode_sparse::spmv::spmv(&a, &x);
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        for kernel in [SpmvKernel::Serial, SpmvKernel::RowParallel] {
            let (y, _) = r.spmv(&sys, kernel, &x).unwrap();
            assert_eq!(y, want, "kernel {kernel:?}");
        }
    }

    #[test]
    fn cpu_snappy_config_also_round_trips() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::cpu_snappy()).unwrap();
        let (b, _) = r.decompress_via_udp(&SystemConfig::ddr4()).unwrap();
        assert_eq!(b, a);
    }

    #[test]
    fn injected_lane_trap_recovers_via_retry() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let hook = FaultHook::new().trap(0).trap(1);
        let (b, stats) = r.decompress_via_udp_faulty(&sys, Some(&hook)).unwrap();
        assert_eq!(b, a, "retried decode must stay bit-exact");
        assert!(stats.degraded);
        assert!(stats.blocks_retried >= 2, "retried {}", stats.blocks_retried);
        // Traps are transient: the hook does not apply to retries, so the
        // raw store is never needed.
        assert_eq!(stats.blocks_fell_back, 0);
        assert_eq!(stats.accel.jobs_failed, 2);
    }

    #[test]
    fn corrupt_block_falls_back_to_raw_store_bit_exact() {
        let a = test_matrix();
        let mut r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        // Flip a payload bit; CRC catches it on every decode attempt.
        r.compressed_mut().index_stream.blocks[0].payload[0] ^= 0x40;
        let (b, stats) = r.decompress_via_udp(&sys).unwrap();
        assert_eq!(b, a, "fallback decode must stay bit-exact");
        assert!(stats.degraded);
        assert!(stats.blocks_retried > 0);
        assert_eq!(stats.blocks_fell_back, 1);
        assert!(stats.fallback_bytes > 0);
    }

    #[test]
    fn corrupt_block_without_store_is_a_typed_error_naming_the_block() {
        let a = test_matrix();
        let cm = CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let mut r = RecodedSpmv::from_compressed(cm).unwrap();
        r.compressed_mut().value_stream.blocks[1].payload[0] ^= 0x40;
        let err = r.decompress_via_udp(&SystemConfig::ddr4()).unwrap_err();
        match &err {
            ExecError::Unrecoverable { block, source, .. } => {
                assert_eq!(*block, Some(1), "{err}");
                assert!(source.codec_error().is_some(), "{err}");
            }
            other => panic!("expected Unrecoverable, got {other}"),
        }
        assert!(err.to_string().contains("block 1"), "{err}");
    }

    #[test]
    fn injected_dma_stall_charges_cycles_without_degrading() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let hook = FaultHook::new().stall(0, 100_000);
        let (b, stats) = r.decompress_via_udp_faulty(&sys, Some(&hook)).unwrap();
        assert_eq!(b, a);
        assert_eq!(stats.accel.injected_stall_cycles, 100_000);
        assert!(!stats.degraded, "a stall slows the batch but decodes cleanly");
    }

    #[test]
    fn streaming_spmv_matches_full_decode_and_bounds_memory() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let (y, stats) = r.spmv_streaming(&x).unwrap();
        assert_eq!(y, recode_sparse::spmv::spmv(&a, &x), "tiled result must match");
        // Working set stays a few blocks, far below the 12 B/nnz matrix.
        assert!(stats.peak_resident_bytes < 64 * 1024, "{}", stats.peak_resident_bytes);
        assert!(stats.peak_resident_bytes < a.nnz() * 12 / 4);
        assert!(stats.blocks >= r.compressed().index_stream.len());
        assert!(stats.lane_cycles > 0);
    }

    #[test]
    fn streaming_spmv_surfaces_corruption_as_typed_error() {
        let a = test_matrix();
        let mut r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        r.compressed_mut().index_stream.blocks[2].payload[3] ^= 0x08;
        let x = vec![1.0; a.ncols()];
        let err = r.spmv_streaming(&x).unwrap_err();
        assert_eq!(err.block(), Some(2), "{err}");
        assert!(err.codec_error().is_some(), "{err}");
    }

    #[test]
    fn streaming_spmv_handles_empty_rows_and_empty_matrix() {
        let a = Csr::try_from_parts(4, 4, vec![0, 0, 2, 2, 3], vec![1, 3, 0], vec![2.0, 4.0, 8.0])
            .unwrap();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let x = [1.0, 10.0, 100.0, 1000.0];
        let (y, _) = r.spmv_streaming(&x).unwrap();
        assert_eq!(y, recode_sparse::spmv::spmv(&a, &x));
        let empty = Csr::try_from_parts(2, 2, vec![0, 0, 0], vec![], vec![]).unwrap();
        let r = RecodedSpmv::new(&empty, MatrixCodecConfig::udp_dsh()).unwrap();
        let (y, stats) = r.spmv_streaming(&[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![0.0, 0.0]);
        assert_eq!(stats.blocks, 0);
    }

    #[test]
    fn retry_cycles_are_folded_into_the_makespan() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let (_, clean) = r.decompress_via_udp(&sys).unwrap();
        assert_eq!(clean.retry_cycles, 0);
        let hook = FaultHook::new().trap(0).trap(1);
        let (_, faulty) = r.decompress_via_udp_faulty(&sys, Some(&hook)).unwrap();
        assert!(faulty.retry_cycles > 0);
        // The trapped jobs cost nothing in the batch but their full decode
        // cycles on retry, so total busy work matches the clean run and the
        // serialized retries stretch the makespan past it.
        assert_eq!(faulty.accel.busy_cycles, clean.accel.busy_cycles);
        assert!(faulty.accel.makespan_cycles > clean.accel.makespan_cycles);
        // Utilization is recomputed over the folded totals.
        let expect = faulty.accel.busy_cycles as f64
            / (faulty.accel.makespan_cycles as f64 * faulty.accel.lanes as f64);
        assert!((faulty.accel.lane_utilization - expect).abs() < 1e-12);
    }

    #[test]
    fn traced_spmv_emits_a_consistent_document() {
        let a = test_matrix();
        let r = RecodedSpmv::new_traced(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let (y, stats, doc) = r.spmv_traced(&sys, SpmvKernel::Serial, &x, None, "stencil").unwrap();
        assert_eq!(y, recode_sparse::spmv::spmv(&a, &x), "tracing must not change results");
        let errs = doc.validate();
        assert!(errs.is_empty(), "trace invariants violated: {errs:?}");
        assert_eq!(doc.matrix.name, "stencil");
        assert_eq!(doc.matrix.nnz, a.nnz());
        assert_eq!(doc.block_events.len(), stats.accel.jobs);
        assert_eq!(doc.counter("exec.jobs"), stats.accel.jobs as u64);
        for name in [
            "exec.decode_batch",
            "exec.reassemble",
            "exec.mem_stream",
            "exec.dma",
            "exec.cpu_multiply",
        ] {
            assert!(doc.spans.iter().any(|s| s.name == name), "missing span {name}");
        }
        // Encode-stage codec telemetry was captured at compression time.
        assert!(doc.codec_stages.encode.delta.calls > 0);
        assert!(doc.codec_stages.encode.huffman.calls > 0);
        // Traffic covers the compressed stream, row pointers, and vectors.
        assert!(doc.mem_traffic.total_bytes > 0);
        assert!(doc.counter("mem.read.compressed_stream") == stats.compressed_bytes as u64);
        assert!(doc.counter("mem.read.row_ptr") > 0);
        assert!(doc.counter("mem.read.vectors") > 0);
        // A traced run and an untraced run model the same machine.
        let (y2, stats2) = r.spmv(&sys, SpmvKernel::Serial, &x).unwrap();
        assert_eq!(y, y2);
        assert_eq!(stats.accel.makespan_cycles, stats2.accel.makespan_cycles);
    }

    #[test]
    fn traced_run_classifies_block_outcomes() {
        use crate::telemetry::{BlockOutcome, StreamKind, Telemetry};
        let a = test_matrix();
        let mut r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        // Job 0 (index block 0) traps transiently; value block 0 is corrupt
        // and falls back to the raw store.
        r.compressed_mut().value_stream.blocks[0].payload[0] ^= 0x40;
        let n_index = r.compressed().index_stream.blocks.len();
        let sys = SystemConfig::ddr4();
        let hook = FaultHook::new().trap(0);
        let mut tel = Telemetry::new();
        let (b, stats) = r.decompress_via_udp_traced(&sys, Some(&hook), Some(&mut tel)).unwrap();
        assert_eq!(b, a);
        let evs = tel.block_events();
        assert_eq!(evs.len(), stats.accel.jobs);
        for (k, e) in evs.iter().enumerate() {
            assert_eq!(e.job, k, "events sorted by job");
            assert_eq!(e.lane, k % sys.udp.lanes);
        }
        assert_eq!(evs[0].outcome, BlockOutcome::Retried);
        assert_eq!(evs[0].stream, StreamKind::Index);
        assert!(evs[0].cycles > 0, "retried block reports its successful decode cycles");
        let fb = &evs[n_index];
        assert_eq!(fb.stream, StreamKind::Value);
        assert_eq!(fb.block, 0);
        assert_eq!(fb.outcome, BlockOutcome::FellBack);
        assert_eq!(fb.cycles, 0, "fallback block never decoded");
        let ok = evs.iter().filter(|e| e.outcome == BlockOutcome::Ok).count();
        assert_eq!(ok, evs.len() - 2);
        assert_eq!(tel.block_cycles().count, evs.len() as u64);
    }

    #[test]
    fn lane_utilization_is_high_for_many_blocks() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let (_, stats) = r.decompress_via_udp(&SystemConfig::ddr4()).unwrap();
        // 60x60 9-pt has ~31k nnz -> ~20 blocks over 64 lanes; utilization
        // just needs to be sane, not high.
        assert!(stats.accel.lane_utilization > 0.0 && stats.accel.lane_utilization <= 1.0);
    }

    /// Drift lock: every executor path must derive bytes-per-nnz and lane
    /// utilization through the one shared helper each, so the streaming,
    /// batch, and pipelined stats can never silently diverge.
    #[test]
    fn streaming_batch_and_overlap_stats_share_one_metric_definition() {
        use crate::overlap::{OverlapConfig, OverlapExecutor};
        use recode_codec::metrics::bytes_per_nnz;
        use recode_udp::accel::lane_utilization;

        let a = test_matrix();
        let sys = SystemConfig::ddr4();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let cm = r.compressed();
        let x = vec![1.0; a.ncols()];

        // Streaming path: stats carry wire bytes and B/nnz directly.
        let (_, streaming) = r.spmv_streaming(&x).unwrap();
        assert_eq!(streaming.compressed_bytes, cm.wire_bytes());
        assert_eq!(streaming.bytes_per_nnz, cm.bytes_per_nnz());
        assert_eq!(
            streaming.bytes_per_nnz,
            bytes_per_nnz(streaming.compressed_bytes, a.nnz()),
            "StreamingStats must use the shared bytes_per_nnz helper"
        );

        // Batch path: ExecStats::bytes_per_nnz is the same helper, and the
        // report's utilization is the shared lane_utilization definition.
        let (_, batch) = r.spmv(&sys, SpmvKernel::Serial, &x).unwrap();
        assert_eq!(batch.compressed_bytes, cm.wire_bytes());
        assert_eq!(batch.bytes_per_nnz(a.nnz()), streaming.bytes_per_nnz);
        assert_eq!(
            batch.accel.lane_utilization,
            lane_utilization(
                batch.accel.busy_cycles,
                batch.accel.makespan_cycles,
                batch.accel.lanes
            ),
            "batch AccelReport must use the shared lane_utilization helper"
        );

        // Pipelined path: same two definitions again.
        let ex = OverlapExecutor::new(&r, OverlapConfig::default());
        let (_, ov) = ex.spmv(&sys, &x).unwrap();
        assert_eq!(ov.bytes_per_nnz(a.nnz()), bytes_per_nnz(ov.compressed_bytes, a.nnz()));
        assert_eq!(
            ov.accel.lane_utilization,
            lane_utilization(ov.accel.busy_cycles, ov.accel.makespan_cycles, ov.accel.lanes),
            "overlap AccelReport must use the shared lane_utilization helper"
        );

        // Degenerate inputs stay locked down too.
        assert_eq!(bytes_per_nnz(123, 0), 0.0);
        assert_eq!(lane_utilization(0, 0, 64), 1.0);
    }

    #[test]
    fn zero_deadline_with_faults_is_deadline_exceeded() {
        use crate::resilience::JobBudget;
        use std::time::Duration;
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let hook = FaultHook::new().trap(0);
        let budget = JobBudget::with_deadline(Duration::ZERO);
        let err =
            r.decompress_via_udp_budgeted(&sys, Some(&hook), None, Some(&budget)).unwrap_err();
        match &err {
            ExecError::DeadlineExceeded { budget, completed_blocks, total_blocks } => {
                assert_eq!(budget, "wall deadline");
                assert!(completed_blocks < total_blocks, "{err}");
            }
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        assert!(err.to_string().contains("wall deadline"), "{err}");
    }

    #[test]
    fn retry_budget_exhaustion_names_the_budget() {
        use crate::resilience::JobBudget;
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        // Two transient traps against a budget that admits only one retry.
        let hook = FaultHook::new().trap(0).trap(1);
        let budget = JobBudget { max_total_retries: Some(1), ..JobBudget::default() };
        let err =
            r.decompress_via_udp_budgeted(&sys, Some(&hook), None, Some(&budget)).unwrap_err();
        match &err {
            ExecError::DeadlineExceeded { budget, .. } => assert_eq!(budget, "retry budget"),
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        // The same faults under an unbounded budget recover fine.
        let (b, _) = r
            .decompress_via_udp_budgeted(&sys, Some(&hook), None, Some(&JobBudget::unbounded()))
            .unwrap();
        assert_eq!(b, a);
    }

    #[test]
    fn unbounded_budget_is_cycle_identical_to_the_unbudgeted_path() {
        use crate::resilience::JobBudget;
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let hook = FaultHook::new().trap(0).trap(1);
        let (b1, plain) = r.decompress_via_udp_faulty(&sys, Some(&hook)).unwrap();
        let budget = JobBudget::unbounded();
        let (b2, budgeted) =
            r.decompress_via_udp_budgeted(&sys, Some(&hook), None, Some(&budget)).unwrap();
        assert_eq!(b1, b2);
        assert_eq!(budgeted.accel.makespan_cycles, plain.accel.makespan_cycles);
        assert_eq!(budgeted.accel.busy_cycles, plain.accel.busy_cycles);
        assert_eq!(budgeted.retry_cycles, plain.retry_cycles);
        assert_eq!(budgeted.blocks_retried, plain.blocks_retried);
        assert_eq!(budgeted.backoff_cycles, 0, "unbounded default has zero backoff");
    }

    #[test]
    fn backoff_stretches_makespan_but_never_busy_cycles() {
        use crate::resilience::JobBudget;
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let hook = FaultHook::new().trap(0).trap(1);
        let (_, plain) = r.decompress_via_udp_faulty(&sys, Some(&hook)).unwrap();
        let budget = JobBudget { backoff_cycles_per_retry: 1_000, ..JobBudget::default() };
        let (_, backed) =
            r.decompress_via_udp_budgeted(&sys, Some(&hook), None, Some(&budget)).unwrap();
        // Two admitted retries -> 2000 backoff cycles, critical path only.
        assert_eq!(backed.backoff_cycles, 2_000);
        assert_eq!(
            backed.accel.makespan_cycles,
            plain.accel.makespan_cycles + 2_000,
            "backoff stretches the makespan"
        );
        assert_eq!(backed.accel.busy_cycles, plain.accel.busy_cycles, "lanes never spin backoff");
    }

    #[test]
    fn block_accounting_identity_holds_on_every_terminal_path() {
        use crate::resilience::JobBudget;
        let a = test_matrix();
        let sys = SystemConfig::ddr4();
        let check = |stats: &ExecStats, what: &str| {
            assert_eq!(
                stats.blocks_ok + stats.blocks_recovered + stats.blocks_fell_back,
                stats.accel.jobs,
                "accounting broken on {what}"
            );
        };
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let (_, clean) = r.decompress_via_udp(&sys).unwrap();
        check(&clean, "clean run");
        assert_eq!(clean.blocks_ok, clean.accel.jobs);
        let hook = FaultHook::new().trap(0).trap(1);
        let (_, retried) = r.decompress_via_udp_faulty(&sys, Some(&hook)).unwrap();
        check(&retried, "retried run");
        assert_eq!(retried.blocks_recovered, 2);
        let mut r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        r.compressed_mut().index_stream.blocks[0].payload[0] ^= 0x40;
        let budget = JobBudget::unbounded();
        let (_, fell_back) =
            r.decompress_via_udp_budgeted(&sys, None, None, Some(&budget)).unwrap();
        check(&fell_back, "fallback run");
        assert_eq!(fell_back.blocks_fell_back, 1);
    }

    #[test]
    fn run_job_walks_the_breaker_ladder_bit_exact() {
        use crate::resilience::{BreakerConfig, BreakerState, CircuitBreaker, JobBudget, JobState};
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let budget = JobBudget::unbounded();

        // No breaker, clean run: Completed on the accelerator.
        let report = r.run_job(&sys, None, &budget, None, None);
        assert_eq!(report.state, JobState::Completed);
        assert!(!report.software_path);
        assert_eq!(report.matrix.as_ref(), Some(&a));

        // An already-open breaker bypasses to the software decoder.
        let config = BreakerConfig {
            window_runs: 4,
            error_rate_threshold: 0.5,
            min_window_jobs: 10,
            cooldown_runs: 2,
        };
        let mut b = CircuitBreaker::new(config);
        b.record(10, 10);
        assert_eq!(b.state(), BreakerState::Open);
        let report = r.run_job(&sys, None, &budget, Some(&mut b), None);
        assert_eq!(report.state, JobState::Degraded);
        assert!(report.software_path, "open breaker must bypass the accelerator");
        assert_eq!(report.matrix.as_ref(), Some(&a), "software bypass stays bit-exact");
        let stats = report.stats.expect("bypass synthesizes stats");
        assert!(stats.software_decode && stats.degraded);
        assert_eq!(stats.accel.jobs, 0, "no accelerator work on the bypass");

        // The next run is the half-open probe; it succeeds and re-closes.
        let report = r.run_job(&sys, None, &budget, Some(&mut b), None);
        assert_eq!(report.state, JobState::Completed);
        assert!(!report.software_path, "probe runs on the accelerator");
        assert_eq!(report.breaker, BreakerState::Closed, "clean probe closes the breaker");
    }

    #[test]
    fn run_job_records_a_dead_run_and_trips_the_breaker() {
        use crate::resilience::{BreakerConfig, BreakerState, CircuitBreaker, JobBudget, JobState};
        let a = test_matrix();
        let cm = CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let mut r = RecodedSpmv::from_compressed(cm).unwrap();
        // Corrupt with no fallback store: the run dies with a typed error.
        r.compressed_mut().index_stream.blocks[0].payload[0] ^= 0x40;
        let sys = SystemConfig::ddr4();
        let config = BreakerConfig {
            window_runs: 4,
            error_rate_threshold: 0.5,
            min_window_jobs: 10,
            cooldown_runs: 2,
        };
        let mut b = CircuitBreaker::new(config);
        let report = r.run_job(&sys, None, &JobBudget::unbounded(), Some(&mut b), None);
        assert_eq!(report.state, JobState::Rejected);
        assert!(report.error.is_some());
        assert!(report.matrix.is_none());
        assert_eq!(b.state(), BreakerState::Open, "a dead run counts fully against the window");
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn run_job_surfaces_budget_exhaustion_as_deadline_exceeded() {
        use crate::resilience::{JobBudget, JobState};
        use std::time::Duration;
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let hook = FaultHook::new().trap(0);
        let budget = JobBudget::with_deadline(Duration::ZERO);
        let report = r.run_job(&sys, Some(&hook), &budget, None, None);
        assert_eq!(report.state, JobState::DeadlineExceeded);
        assert!(matches!(report.error, Some(ExecError::DeadlineExceeded { .. })));
    }
}
