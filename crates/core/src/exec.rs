//! Functional execution of recoding-enhanced SpMV (paper Figs. 6 and 7).
//!
//! The matrix lives in memory compressed; UDP lanes decode the column-index
//! and value blocks (running the real decoder programs on the simulator);
//! the CPU multiplies the recovered CSR. This module is the workspace's
//! end-to-end correctness proof: `RecodedSpmv::spmv` must equal the
//! uncompressed kernel bit-for-bit, because the pipeline is lossless.
//!
//! This is the **batch schedule**: every block is fanned out over the 64
//! lanes at once, each lane decoding straight into its block's final slice
//! of the [`Csr`] arrays, and any of the multiply kernels runs over the
//! result. What varies between runs — fault hook,
//! budget, telemetry — arrives in a [`RunCtx`]; a block whose first attempt
//! fails climbs the shared recovery ladder of [`crate::ladder`], so a batch
//! never dies on one bad block.

use crate::arch::SystemConfig;
use crate::error::{ExecError, ExecResult};
use crate::ladder::{report_run, vector_traffic, BlockTally, Ladder};
pub use crate::ladder::{RunCtx, MAX_BLOCK_RETRIES};
use crate::overlap::{OverlapConfig, OverlapExecutor, OverlapStats};
use crate::recorder;
use crate::resilience::{BreakerState, CircuitBreaker, JobReport, JobState};
use crate::telemetry::{
    MatrixMeta, StreamKind, SystemMeta, Telemetry, TraceDocument, BREAKER_COUNTERS, POOL_COUNTERS,
};
use recode_codec::block::{BlockStream, CompressedBlock};
use recode_codec::pipeline::{CompressedMatrix, MatrixCodecConfig};
use recode_codec::{words, CodecError};
use recode_sparse::spmv::{spmv_with_into, SpmvKernel};
use recode_sparse::Csr;
use recode_udp::accel::{AccelReport, BatchOutcome, FaultHook, JobEvent, JobEventSink, JobOutcome};
use recode_udp::progs::DshDecoder;
use recode_udp::{Lane, UdpError, OUTPUT_WINDOW_BYTES};
use std::ops::Range;
use std::time::Instant;

/// Statistics from one UDP-decoded execution.
#[derive(Debug, Clone, Default)]
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
    pub retry_cycles: u64,
    /// Scheduler backoff cycles charged by the [`crate::resilience::JobBudget`]
    /// per retry attempt. Folded into `accel.makespan_cycles` on the batch
    /// schedule only — backoff is waiting, not work, so busy cycles are
    /// untouched. Zero unless a budget with backoff was supplied.
    pub backoff_cycles: u64,
    /// True when any block needed a retry or a fallback — the result is
    /// still bit-exact, but the run did not complete on the happy path.
    pub degraded: bool,
    /// True when the run never touched the accelerator: the circuit breaker
    /// bypassed it to the software decoder ([`RecodedSpmv::run_job`]).
    pub software_decode: bool,
    /// Blocks that decoded cleanly on the first attempt:
    /// `blocks_ok + blocks_recovered + blocks_fell_back == accel.jobs`, and a
    /// trace's block events carry the same tally.
    pub blocks_ok: usize,
    /// Blocks that failed initially but recovered via retry (each counted
    /// once, unlike [`ExecStats::blocks_retried`] which counts attempts).
    pub blocks_recovered: usize,
    /// Tiled-schedule and decoded-block-cache statistics. All-zero
    /// (`enabled == false`, no stages) on the batch schedule, populated by
    /// the tile walker of [`crate::overlap`].
    pub overlap: OverlapStats,
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
            index_bytes: words::to_le_bytes(a.col_idx()),
            value_bytes: words::to_le_bytes(a.values()),
        }
    }
}

/// A sparse matrix held in compressed form, executable through the
/// simulated heterogeneous system.
pub struct RecodedSpmv {
    compressed: CompressedMatrix,
    index_decoder: DshDecoder,
    value_decoder: DshDecoder,
    raw_store: Option<RawFallbackStore>,
}

/// Transport-structure check: block count and sequence positions. Per-block
/// CRCs are deliberately *not* checked here — a payload-corrupted block must
/// reach the per-job retry/fallback machinery, but a dropped, duplicated, or
/// reordered block (whose CRC is still valid) would otherwise reassemble
/// into a silently wrong matrix.
fn check_stream_structure(stream: &BlockStream) -> Result<(), UdpError> {
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
    /// here; the multiply is whatever the caller runs on the decoded CSR.
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
        Ok(RecodedSpmv { compressed, index_decoder, value_decoder, raw_store })
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

    /// Mutable access to the compressed representation — the fault-injection
    /// tests corrupt blocks through this.
    pub fn compressed_mut(&mut self) -> &mut CompressedMatrix {
        &mut self.compressed
    }

    /// Decode jobs in one pass over the matrix. Every schedule numbers them
    /// the same way — index blocks `0..n_index`, value blocks after — so one
    /// [`FaultHook`] means the same faults on every executor.
    pub(crate) fn total_jobs(&self) -> usize {
        self.compressed.index_stream.blocks.len() + self.compressed.value_stream.blocks.len()
    }

    /// The stream job `job` belongs to and its block position there.
    pub(crate) fn locate(&self, job: usize) -> (StreamKind, usize) {
        match job.checked_sub(self.compressed.index_stream.blocks.len()) {
            None => (StreamKind::Index, job),
            Some(pos) => (StreamKind::Value, pos),
        }
    }

    /// Job `job`'s compressed block and the decoder of its stream.
    pub(crate) fn job_block(&self, job: usize) -> (&DshDecoder, &CompressedBlock) {
        match self.locate(job) {
            (StreamKind::Index, pos) => {
                (&self.index_decoder, &self.compressed.index_stream.blocks[pos])
            }
            (StreamKind::Value, pos) => {
                (&self.value_decoder, &self.compressed.value_stream.blocks[pos])
            }
        }
    }

    /// Where job `job`'s block belongs in its stream's uncompressed bytes:
    /// `[k·block_bytes, min((k+1)·block_bytes, total_uncompressed))` for
    /// block `k`. This comes from the stream's geometry (validated by
    /// [`RecodedSpmv::check_structure`]) and never from the block's own
    /// header, which is what may be corrupt: every rung of the recovery
    /// ladder fills a destination of this size.
    pub(crate) fn extent(&self, job: usize) -> Range<usize> {
        let (stream, pos) = match self.locate(job) {
            (StreamKind::Index, pos) => (&self.compressed.index_stream, pos),
            (StreamKind::Value, pos) => (&self.compressed.value_stream, pos),
        };
        let start = pos * stream.block_bytes;
        start..(start + stream.block_bytes).min(stream.total_uncompressed)
    }

    /// Decodes job `job`'s block on `lane` with its stream's decoder into
    /// `dst`, which must be [`RecodedSpmv::extent`] bytes long.
    pub(crate) fn decode_job_into(
        &self,
        lane: &mut Lane,
        job: usize,
        dst: &mut [u8],
    ) -> Result<JobOutcome, UdpError> {
        let (decoder, block) = self.job_block(job);
        decoder.decode_block_into(lane, block, dst)
    }

    /// The uncompressed bytes of job `job`'s block, when a fallback store
    /// was kept and covers its whole extent.
    pub(crate) fn raw_block(&self, job: usize) -> Option<&[u8]> {
        let store = self.raw_store.as_ref()?;
        let bytes = match self.locate(job).0 {
            StreamKind::Index => &store.index_bytes,
            StreamKind::Value => &store.value_bytes,
        };
        bytes.get(self.extent(job))
    }

    /// What must hold before the first lane runs and before anything is
    /// sized from a header field: the geometry — `row_ptr` ends at `nnz`,
    /// the streams declare exactly `4·nnz` and `8·nnz` bytes in blocks no
    /// larger than a lane's output window, which bounds every allocation by
    /// `blocks.len() × block_bytes` — and both streams' transport structure
    /// ([`check_stream_structure`]).
    ///
    /// # Errors
    /// [`ExecError::Reassembly`] for the geometry, [`ExecError::Udp`] for
    /// the transport structure.
    pub(crate) fn check_structure(&self) -> ExecResult<()> {
        let cm = &self.compressed;
        if cm.row_ptr.last() != Some(&cm.nnz) {
            return Err(ExecError::Reassembly(format!(
                "row_ptr ends at {:?} but the matrix declares {} non-zeros",
                cm.row_ptr.last(),
                cm.nnz
            )));
        }
        for (name, stream, word) in
            [("index", &cm.index_stream, 4usize), ("value", &cm.value_stream, 8)]
        {
            let total = stream.total_uncompressed;
            if !total.is_multiple_of(word) {
                return Err(ExecError::Reassembly(format!(
                    "{name} stream decoded to {total} bytes, not {word}-byte aligned"
                )));
            }
            if Some(total) != cm.nnz.checked_mul(word) {
                return Err(ExecError::Reassembly(format!(
                    "{name} stream declares {total} bytes for {} non-zeros",
                    cm.nnz
                )));
            }
            if stream.block_bytes > OUTPUT_WINDOW_BYTES {
                return Err(ExecError::Reassembly(format!(
                    "{name} stream declares {}-byte blocks, a lane emits at most {OUTPUT_WINDOW_BYTES}",
                    stream.block_bytes
                )));
            }
            check_stream_structure(stream)?;
        }
        Ok(())
    }

    /// Decodes the whole matrix through the UDP simulator and reassembles
    /// the CSR form, with accelerator statistics.
    ///
    /// # Errors
    /// As [`RecodedSpmv::decompress_with`].
    pub fn decompress_via_udp(&self, sys: &SystemConfig) -> ExecResult<(Csr, ExecStats)> {
        self.decompress_with(sys, RunCtx::default())
    }

    /// [`RecodedSpmv::decompress_via_udp`] with an optional fault-injection
    /// hook.
    ///
    /// # Errors
    /// As [`RecodedSpmv::decompress_with`].
    pub fn decompress_via_udp_faulty(
        &self,
        sys: &SystemConfig,
        hook: Option<&FaultHook>,
    ) -> ExecResult<(Csr, ExecStats)> {
        self.decompress_with(sys, RunCtx { hook, ..RunCtx::default() })
    }

    /// The batch engine: one fan-out of every block over the lanes under
    /// `ctx.hook`, each decoding into its extent of the final `col_idx` /
    /// `values` arrays; the recovery ladder for each failed job under
    /// `ctx.budget`, recovering into the same extent; validation of the
    /// result as a [`Csr`]. Successful retries run
    /// serially after the batch, so their cycles extend the makespan as well
    /// as the busy sum; budget backoff is pure waiting and stretches the
    /// makespan only. With `ctx.tel` the run records the phases
    /// `exec.decode_batch`, an `exec.retry` (and `exec.fallback`) per block
    /// on the ladder and `exec.reassemble`, the modeled `exec.mem_stream`
    /// and `exec.dma`, per-block events with lane and outcome, `exec.*` and
    /// `pool.*` counters, and memory traffic by source.
    ///
    /// # Errors
    /// [`ExecError::Unrecoverable`] if a block fails decoding, exhausts its
    /// retries, and no fallback store covers it;
    /// [`ExecError::DeadlineExceeded`] when the budget runs out;
    /// [`ExecError::Reassembly`] if the declared geometry is inconsistent
    /// ([`RecodedSpmv::check_structure`]) or the decoded streams do not form
    /// a valid matrix.
    pub fn decompress_with(
        &self,
        sys: &SystemConfig,
        ctx: RunCtx<'_>,
    ) -> ExecResult<(Csr, ExecStats)> {
        self.check_structure()?;
        let RunCtx { hook, budget, mut tel } = ctx;
        let cm = &self.compressed;
        let empty_hook = FaultHook::default();
        let pool_before = tel.is_some().then(|| recode_udp::pool::global().stats());
        let sink_fn = |e: &JobEvent| {
            recorder::record(
                recorder::EventKind::BlockOutcome,
                recorder::Track::lane(e.lane),
                "block",
                e.cycles,
                0,
            );
        };
        // Lane-track block events for the flight recorder; telemetry takes
        // its per-block events from the ladder.
        let sink: Option<JobEventSink<'_>> =
            if recorder::is_enabled() { Some(&sink_fn) } else { None };

        // The arrays at their final length (sized by the geometry checked
        // above), viewed as bytes and cut into one extent per block: a job
        // *is* its index and its destination. Nothing reads the arrays
        // before the last `settle` — after a failed attempt a destination's
        // contents are unspecified until the ladder has settled that job.
        let mut col_idx = vec![0u32; cm.nnz];
        let mut values = vec![0f64; cm.nnz];
        let index_extents = words::bytes_mut(&mut col_idx).chunks_mut(cm.index_stream.block_bytes);
        let value_extents = words::bytes_mut(&mut values).chunks_mut(cm.value_stream.block_bytes);
        let mut jobs: Vec<(usize, &mut [u8])> =
            index_extents.chain(value_extents).enumerate().collect();
        debug_assert_eq!(jobs.len(), self.total_jobs());

        let phase = recorder::phase(recorder::Track::MAIN, "exec.decode_batch", tel.is_some());
        let run = |lane: &mut Lane, (job, dst): &mut (usize, &mut [u8])| {
            self.decode_job_into(lane, *job, dst)
        };
        let outcome: BatchOutcome<UdpError> =
            sys.udp.run_jobs_observed(&mut jobs, run, hook.unwrap_or(&empty_hook), sink);
        let mut report = outcome.report;
        let batch_seconds = report.makespan_cycles as f64 / sys.udp.freq_hz;
        phase.finish(tel.as_deref_mut(), batch_seconds, report.output_bytes);

        let mut ladder =
            Ladder::new(self, &sys.udp, budget, recorder::Track::MAIN, tel.as_deref_mut());
        for ((job, dst), first) in jobs.into_iter().zip(outcome.results) {
            ladder.settle(job, first, dst)?;
        }
        let backoff_cycles = ladder.backoff_cycles();
        let tally = ladder.tally;

        report.output_bytes += tally.recovered_bytes;
        report.opclass.merge(&tally.retry_opclass);
        report.stage_cycles.merge(&tally.retry_stages);
        report.makespan_cycles += tally.retry_cycles + backoff_cycles;
        report.busy_cycles += tally.retry_cycles;
        report.refresh_utilization();

        let phase = recorder::phase(recorder::Track::MAIN, "exec.reassemble", tel.is_some());
        words::from_le_in_place(&mut col_idx);
        words::from_le_in_place(&mut values);
        let a = Csr::try_from_parts(cm.nrows, cm.ncols, cm.row_ptr.clone(), col_idx, values)
            .map_err(|e| ExecError::Reassembly(format!("decoded matrix invalid: {e}")))?;
        phase.finish(tel.as_deref_mut(), 0.0, (cm.nnz * 12) as u64);

        let stats =
            tally.stats(sys, report, cm.wire_bytes(), backoff_cycles, OverlapStats::default());
        if let (Some(tel), Some(before)) = (tel, pool_before) {
            report_run(tel, &stats, self);
            let after = recode_udp::pool::global().stats();
            tel.derive(POOL_COUNTERS, |get| get(&after) - get(&before));
        }
        Ok((a, stats))
    }

    /// Full recoding-enhanced SpMV: UDP-decode, then multiply with `kernel`.
    ///
    /// # Errors
    /// As [`RecodedSpmv::decompress_with`]; panics on shape mismatch like
    /// the plain kernels do.
    pub fn spmv(
        &self,
        sys: &SystemConfig,
        kernel: SpmvKernel,
        x: &[f64],
    ) -> ExecResult<(Vec<f64>, ExecStats)> {
        self.spmv_with(sys, kernel, x, RunCtx::default())
    }

    /// [`RecodedSpmv::spmv`] with an optional fault-injection hook.
    ///
    /// # Errors
    /// As [`RecodedSpmv::decompress_with`].
    pub fn spmv_faulty(
        &self,
        sys: &SystemConfig,
        kernel: SpmvKernel,
        x: &[f64],
        hook: Option<&FaultHook>,
    ) -> ExecResult<(Vec<f64>, ExecStats)> {
        self.spmv_with(sys, kernel, x, RunCtx { hook, ..RunCtx::default() })
    }

    /// [`RecodedSpmv::decompress_with`], then the multiply with `kernel`.
    /// With `ctx.tel` the multiply adds the `exec.cpu_multiply` phase and the
    /// dense-vector traffic.
    ///
    /// # Errors
    /// As [`RecodedSpmv::decompress_with`].
    pub fn spmv_with(
        &self,
        sys: &SystemConfig,
        kernel: SpmvKernel,
        x: &[f64],
        ctx: RunCtx<'_>,
    ) -> ExecResult<(Vec<f64>, ExecStats)> {
        let RunCtx { hook, budget, mut tel } = ctx;
        let (a, stats) =
            self.decompress_with(sys, RunCtx { hook, budget, tel: tel.as_deref_mut() })?;
        let phase = recorder::phase(recorder::Track::MAIN, "exec.cpu_multiply", tel.is_some());
        let mut y = vec![0.0; a.nrows()];
        spmv_with_into(kernel, &a, x, &mut y);
        let bytes = tel.as_deref_mut().map_or(0, |tel| vector_traffic(tel, a.nrows(), a.ncols()));
        phase.finish(tel, sys.mem.stream_seconds(bytes), bytes);
        Ok((y, stats))
    }

    /// Fully traced SpMV: [`RecodedSpmv::spmv_with`] (whose `ctx.tel` is
    /// supplied here) plus the sealed [`TraceDocument`] covering every phase
    /// — UDP decode with per-lane and per-opcode-class breakdowns,
    /// retry/fallback recovery, reassembly, modeled memory/DMA streaming,
    /// and the CPU multiply — along with per-block events, dotted counters
    /// and memory traffic by source. `name` labels the matrix.
    ///
    /// # Errors
    /// As [`RecodedSpmv::decompress_with`].
    pub fn spmv_traced(
        &self,
        sys: &SystemConfig,
        kernel: SpmvKernel,
        x: &[f64],
        ctx: RunCtx<'_>,
        name: &str,
    ) -> ExecResult<(Vec<f64>, ExecStats, TraceDocument)> {
        let t_total = Instant::now();
        let mut tel = Telemetry::new();
        let (y, stats) = self.spmv_with(sys, kernel, x, ctx.traced(&mut tel))?;
        let doc = self.seal(sys, tel, &stats, name, t_total);
        Ok((y, stats, doc))
    }

    /// The one [`TraceDocument`] sealer: matrix and platform identity and
    /// the wall time since `t_total`, around whatever `tel` collected during
    /// a run over this operand (the registry a caller put in its [`RunCtx`];
    /// the `spmv_traced` entries own theirs). A governed job
    /// ([`RecodedSpmv::run_job`]) seals the same way whenever it produced
    /// stats; its document also carries `breaker.*` counters (`recode
    /// metrics`).
    pub fn seal(
        &self,
        sys: &SystemConfig,
        tel: Telemetry,
        stats: &ExecStats,
        name: &str,
        t_total: Instant,
    ) -> TraceDocument {
        let cm = &self.compressed;
        let matrix = MatrixMeta {
            name: name.to_string(),
            nrows: cm.nrows,
            ncols: cm.ncols,
            nnz: cm.nnz,
            compressed_bytes: stats.compressed_bytes,
            bytes_per_nnz: cm.bytes_per_nnz(),
        };
        let system = SystemMeta {
            memory: sys.mem.name.to_string(),
            lanes: sys.udp.lanes,
            freq_hz: sys.udp.freq_hz,
        };
        let wall_ns_total = t_total.elapsed().as_nanos() as u64;
        tel.into_document(matrix, system, stats.clone(), &sys.mem, wall_ns_total)
    }

    /// One fully governed job: circuit-breaker admission, a
    /// [`RecodedSpmv::decompress_with`] run under `ctx`, degradation to the
    /// software decoder when the breaker is open, and a typed terminal
    /// [`JobState`] no matter what happened — [`JobReport`] is total over
    /// all outcomes.
    ///
    /// The degradation ladder, top to bottom: accelerator happy path →
    /// per-block retry → per-block raw-CSR re-fetch → (breaker open)
    /// whole-job software decode. Every rung is bit-exact; only the last
    /// gives up on the accelerator entirely.
    pub fn run_job(
        &self,
        sys: &SystemConfig,
        ctx: RunCtx<'_>,
        mut breaker: Option<&mut CircuitBreaker>,
    ) -> JobReport {
        let RunCtx { hook, budget, mut tel } = ctx;
        let admitted = breaker.as_deref_mut().is_none_or(CircuitBreaker::admit);
        let result = if admitted {
            let run = self.decompress_with(sys, RunCtx { hook, budget, tel: tel.as_deref_mut() });
            if let Some(b) = breaker.as_deref_mut() {
                // A run that died counts fully against the window.
                let dead = self.total_jobs().max(1);
                let (jobs, failed) =
                    run.as_ref().map_or((dead, dead), |(_, s)| (s.accel.jobs, s.accel.jobs_failed));
                b.record(jobs, failed);
            }
            run
        } else {
            // Open breaker: the accelerator is bypassed entirely and the job
            // is served by the software decoder. No accelerator cycles, the
            // compressed stream still crosses memory.
            let wire_bytes = self.compressed.wire_bytes();
            let phase =
                recorder::phase(recorder::Track::MAIN, "exec.software_decode", tel.is_some());
            let decoded = self.decompress_via_software();
            phase.finish(tel.as_deref_mut(), 0.0, wire_bytes as u64);
            decoded.map_err(ExecError::Codec).map(|a| {
                let mut stats = BlockTally::default().stats(
                    sys,
                    AccelReport::default(),
                    wire_bytes,
                    0,
                    OverlapStats::default(),
                );
                stats.dma_seconds = 0.0;
                stats.degraded = true;
                stats.software_decode = true;
                (a, stats)
            })
        };
        // Breaker posture after the job, as `breaker.*` counters.
        let breaker_state = breaker.as_deref().map_or(BreakerState::Closed, CircuitBreaker::state);
        if let (Some(tel), Some(b)) = (tel, breaker.as_deref()) {
            tel.derive(BREAKER_COUNTERS, |get| get(b));
        }
        let (state, matrix, stats, error) = match result {
            Ok((a, stats)) => {
                let state = if stats.degraded { JobState::Degraded } else { JobState::Completed };
                (state, Some(a), Some(stats), None)
            }
            Err(e @ ExecError::DeadlineExceeded { .. }) => {
                (JobState::DeadlineExceeded, None, None, Some(e))
            }
            Err(e) => (JobState::Rejected, None, None, Some(e)),
        };
        JobReport { state, matrix, stats, error, software_path: !admitted, breaker: breaker_state }
    }

    /// Software-only decode path (reference), for differential testing.
    ///
    /// # Errors
    /// Codec errors.
    pub fn decompress_via_software(&self) -> Result<Csr, CodecError> {
        self.compressed.decompress()
    }

    /// **Streaming tiled SpMV** — the paper's Fig. 7 execution mode, on the
    /// paper's DDR4 platform. See [`RecodedSpmv::spmv_streaming_with`].
    ///
    /// # Errors
    /// As [`RecodedSpmv::spmv_streaming_with`].
    ///
    /// # Panics
    /// If `x.len() != ncols`.
    pub fn spmv_streaming(&self, x: &[f64]) -> ExecResult<(Vec<f64>, ExecStats)> {
        self.spmv_streaming_with(&SystemConfig::ddr4(), x, RunCtx::default())
    }

    /// The streaming executor: the tile walker of [`crate::overlap`] run
    /// inline — no threads, no cache. The matrix is *never* materialized:
    /// index and value blocks are decoded one tile at a time and multiplied
    /// immediately into `y`, so resident memory stays `O(block)` instead of
    /// `O(nnz)` and the result is bit-exact with the serial kernel. Decode
    /// and multiply cycles add (`stats.overlap.enabled == false`). A block
    /// that fails climbs the same recovery ladder as on every schedule.
    ///
    /// # Errors
    /// As [`crate::overlap::OverlapExecutor::spmv_with`].
    ///
    /// # Panics
    /// If `x.len() != ncols`.
    pub fn spmv_streaming_with(
        &self,
        sys: &SystemConfig,
        x: &[f64],
        ctx: RunCtx<'_>,
    ) -> ExecResult<(Vec<f64>, ExecStats)> {
        let config = OverlapConfig { overlap: false, cache_blocks: 0, workers: 0 };
        OverlapExecutor::new(self, config).run(sys, x, ctx, false).map(|(y, stats, _)| (y, stats))
    }
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
        assert_eq!(stats.accel.jobs, r.total_jobs(), "every block is decoded exactly once");
        assert!(stats.accel.busy_cycles > 0);
        // Inline walk: no workers, decode and multiply cycles add.
        assert!(!stats.overlap.enabled && stats.overlap.workers == 0);
        assert_eq!(stats.accel.makespan_cycles, stats.overlap.serial_makespan_cycles);
        // Working set stays a few blocks, far below the 12 B/nnz matrix.
        let sys = SystemConfig::ddr4();
        let streaming = OverlapConfig { overlap: false, cache_blocks: 0, workers: 0 };
        let (y2, _, peak_resident_bytes) =
            OverlapExecutor::new(&r, streaming).run(&sys, &x, RunCtx::default(), false).unwrap();
        assert_eq!(y2, y);
        assert!(peak_resident_bytes > 0);
        assert!(peak_resident_bytes < 64 * 1024, "{peak_resident_bytes}");
        assert!(peak_resident_bytes < a.nnz() * 12 / 4);
    }

    #[test]
    fn streaming_spmv_recovers_corruption_from_the_raw_store_or_names_the_block() {
        let a = test_matrix();
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        // With a raw store the corrupted block is recovered bit-exactly.
        let mut r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        r.compressed_mut().index_stream.blocks[2].payload[3] ^= 0x08;
        let (y, stats) = r.spmv_streaming(&x).unwrap();
        assert_eq!(y, recode_sparse::spmv::spmv(&a, &x), "fallback must stay bit-exact");
        assert!(stats.degraded);
        assert_eq!(stats.blocks_retried, MAX_BLOCK_RETRIES, "a CRC failure repeats on every retry");
        assert_eq!(stats.blocks_fell_back, 1);
        assert_eq!(stats.blocks_ok + stats.blocks_fell_back, stats.accel.jobs);
        // Without one the error still names block 2 and carries the codec error.
        let cm = CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let mut r = RecodedSpmv::from_compressed(cm).unwrap();
        r.compressed_mut().index_stream.blocks[2].payload[3] ^= 0x08;
        let err = r.spmv_streaming(&x).unwrap_err();
        assert!(matches!(err, ExecError::Unrecoverable { .. }), "{err}");
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
        assert_eq!(stats.accel.jobs, 0);
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
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let (y, stats, doc) =
            r.spmv_traced(&sys, SpmvKernel::Serial, &x, RunCtx::default(), "stencil").unwrap();
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
        let ctx = RunCtx { hook: Some(&hook), tel: Some(&mut tel), ..RunCtx::default() };
        let (b, stats) = r.decompress_with(&sys, ctx).unwrap();
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
        use recode_codec::metrics::bytes_per_nnz;
        use recode_udp::accel::lane_utilization;

        let a = test_matrix();
        let sys = SystemConfig::ddr4();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let cm = r.compressed();
        let x = vec![1.0; a.ncols()];

        // Batch path: ExecStats::bytes_per_nnz is the shared helper over the
        // wire bytes, and the report's utilization is the shared
        // lane_utilization definition.
        let (_, batch) = r.spmv(&sys, SpmvKernel::Serial, &x).unwrap();
        assert_eq!(batch.compressed_bytes, cm.wire_bytes());
        assert_eq!(batch.bytes_per_nnz(a.nnz()), cm.bytes_per_nnz());
        assert_eq!(
            batch.accel.lane_utilization,
            lane_utilization(
                batch.accel.busy_cycles,
                batch.accel.makespan_cycles,
                batch.accel.lanes
            ),
            "batch AccelReport must use the shared lane_utilization helper"
        );

        // Tiled paths, pipelined and streaming: same two definitions again,
        // over the block payloads the walker fetched.
        let ex = OverlapExecutor::new(&r, OverlapConfig::default());
        let (_, pipelined) = ex.spmv(&sys, &x).unwrap();
        let (_, streaming) = r.spmv_streaming(&x).unwrap();
        assert_eq!(streaming.compressed_bytes, pipelined.compressed_bytes);
        for ov in [&pipelined, &streaming] {
            assert!(ov.compressed_bytes > 0 && ov.compressed_bytes <= cm.wire_bytes());
            assert_eq!(ov.bytes_per_nnz(a.nnz()), bytes_per_nnz(ov.compressed_bytes, a.nnz()));
            assert_eq!(
                ov.accel.lane_utilization,
                lane_utilization(ov.accel.busy_cycles, ov.accel.makespan_cycles, ov.accel.lanes),
                "tiled AccelReport must use the shared lane_utilization helper"
            );
        }

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
        let err = r
            .decompress_with(&sys, RunCtx { hook: Some(&hook), budget: Some(&budget), tel: None })
            .unwrap_err();
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
        let err = r
            .decompress_with(&sys, RunCtx { hook: Some(&hook), budget: Some(&budget), tel: None })
            .unwrap_err();
        match &err {
            ExecError::DeadlineExceeded { budget, .. } => assert_eq!(budget, "retry budget"),
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        // The same faults under an unbounded budget recover fine.
        let (b, _) = r
            .decompress_with(
                &sys,
                RunCtx { hook: Some(&hook), budget: Some(&JobBudget::unbounded()), tel: None },
            )
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
        let (b2, budgeted) = r
            .decompress_with(&sys, RunCtx { hook: Some(&hook), budget: Some(&budget), tel: None })
            .unwrap();
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
        let (_, backed) = r
            .decompress_with(&sys, RunCtx { hook: Some(&hook), budget: Some(&budget), tel: None })
            .unwrap();
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
            r.decompress_with(&sys, RunCtx { budget: Some(&budget), ..RunCtx::default() }).unwrap();
        check(&fell_back, "fallback run");
        assert_eq!(fell_back.blocks_fell_back, 1);
    }

    #[test]
    fn run_job_walks_the_breaker_ladder_bit_exact() {
        use crate::resilience::{
            BreakerState, CircuitBreaker, JobBudget, JobState, BREAKER_COOLDOWN_RUNS,
            BREAKER_MIN_JOBS,
        };
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let budget = JobBudget::unbounded();

        // No breaker, clean run: Completed on the accelerator.
        let report = r.run_job(&sys, RunCtx { budget: Some(&budget), ..RunCtx::default() }, None);
        assert_eq!(report.state, JobState::Completed);
        assert!(!report.software_path);
        assert_eq!(report.matrix.as_ref(), Some(&a));

        // An already-open breaker bypasses to the software decoder until
        // its cooldown elapses.
        let mut b = CircuitBreaker::new();
        b.record(BREAKER_MIN_JOBS, BREAKER_MIN_JOBS);
        assert_eq!(b.state(), BreakerState::Open);
        for _ in 1..BREAKER_COOLDOWN_RUNS {
            let (mut tel, t_total) = (Telemetry::new(), Instant::now());
            let ctx = RunCtx { budget: Some(&budget), tel: Some(&mut tel), ..RunCtx::default() };
            let report = r.run_job(&sys, ctx, Some(&mut b));
            assert_eq!(report.state, JobState::Degraded);
            assert!(report.software_path, "open breaker must bypass the accelerator");
            assert_eq!(report.matrix.as_ref(), Some(&a), "software bypass stays bit-exact");
            let stats = report.stats.expect("bypass synthesizes stats");
            assert!(stats.software_decode && stats.degraded);
            assert_eq!(stats.accel.jobs, 0, "no accelerator work on the bypass");
            // The software rung is a phase of the run like any other.
            let doc = r.seal(&sys, tel, &stats, "bypass", t_total);
            let spans: Vec<&str> = doc.spans.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(spans, ["exec.software_decode"]);
            assert_eq!(doc.spans[0].bytes, r.compressed().wire_bytes() as u64);
            assert!(doc.validate().is_empty(), "{:?}", doc.validate());
        }

        // The next run is the half-open probe; it succeeds and re-closes.
        let report =
            r.run_job(&sys, RunCtx { budget: Some(&budget), ..RunCtx::default() }, Some(&mut b));
        assert_eq!(report.state, JobState::Completed);
        assert!(!report.software_path, "probe runs on the accelerator");
        assert_eq!(report.breaker, BreakerState::Closed, "clean probe closes the breaker");
    }

    #[test]
    fn run_job_records_a_dead_run_and_trips_the_breaker() {
        use crate::resilience::{BreakerState, CircuitBreaker, JobState, BREAKER_MIN_JOBS};
        let a = test_matrix();
        let cm = CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let mut r = RecodedSpmv::from_compressed(cm).unwrap();
        // Corrupt with no fallback store: the run dies with a typed error.
        r.compressed_mut().index_stream.blocks[0].payload[0] ^= 0x40;
        assert!(r.total_jobs() >= BREAKER_MIN_JOBS, "one dead run fills the breaker's window");
        let sys = SystemConfig::ddr4();
        let mut b = CircuitBreaker::new();
        let report = r.run_job(&sys, RunCtx::default(), Some(&mut b));
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
        let report =
            r.run_job(&sys, RunCtx { hook: Some(&hook), budget: Some(&budget), tel: None }, None);
        assert_eq!(report.state, JobState::DeadlineExceeded);
        assert!(matches!(report.error, Some(ExecError::DeadlineExceeded { .. })));
    }
}
