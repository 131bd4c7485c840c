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
//! result. The simulated lanes run on every host core
//! ([`recode_udp::accel`]); what the batch reports does not depend on how
//! they split across host workers. What varies between runs — fault hook,
//! telemetry — arrives in a [`RunCtx`]; a block whose first attempt
//! fails climbs the shared recovery ladder of [`crate::ladder`], so a batch
//! never dies on one bad block.

use crate::arch::SystemConfig;
use crate::error::{ExecError, ExecResult};
pub use crate::ladder::RunCtx;
use crate::ladder::{report_run, vector_traffic, Extent, Ladder};
use crate::overlap::{OverlapConfig, OverlapExecutor, OverlapStats};
use crate::recorder;
use crate::telemetry::{
    MatrixMeta, StreamKind, SystemMeta, Telemetry, TraceDocument, POOL_COUNTERS,
};
use recode_codec::block::{BlockStream, CompressedBlock};
use recode_codec::pipeline::{CompressedMatrix, MatrixCodecConfig, Pipeline, PipelineConfig};
use recode_codec::{words, CodecError};
use recode_sparse::spmv::{spmv_with_into, SpmvKernel};
use recode_sparse::{csr, par, Csr, SparseError};
use recode_udp::accel::{AccelReport, FaultHook, JobOutcome};
use recode_udp::progs::DshDecoder;
use recode_udp::{Lane, UdpError, OUTPUT_WINDOW_BYTES};
use std::ops::Range;
use std::time::Instant;

/// Statistics from one UDP-decoded execution.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Accelerator-side report (cycles, throughput, utilization). A
    /// successful retry decode is busy work of the lane that ran the
    /// block's first attempt: it lands in that lane's profile and timeline,
    /// so it stretches the batch's makespan (or the walker's window's
    /// decode) only past that lane's slack. Utilization is recomputed
    /// accordingly; the retry work is broken out in
    /// [`ExecStats::retry_cycles`].
    pub accel: AccelReport,
    /// Modeled wall-clock seconds to stream the compressed matrix from
    /// memory (the memory side of the pipeline), including any raw-store
    /// re-fetch traffic.
    pub mem_stream_seconds: f64,
    /// Modeled DMA seconds moving blocks into UDP local memory.
    pub dma_seconds: f64,
    /// Compressed bytes moved.
    pub compressed_bytes: usize,
    /// Retry decodes made: one per block whose first attempt failed.
    pub blocks_retried: usize,
    /// Blocks whose retry failed too and were served from the raw fallback
    /// store instead.
    pub blocks_fell_back: usize,
    /// Uncompressed bytes re-fetched through the fallback path.
    pub fallback_bytes: usize,
    /// Lane cycles spent on successful retry decodes, already included in
    /// `accel.busy_cycles` and in the lane profile of the lane that ran the
    /// block.
    pub retry_cycles: u64,
    /// True when any block needed a retry or a fallback — the result is
    /// still bit-exact, but the run did not complete on the happy path.
    pub degraded: bool,
    /// Blocks that decoded cleanly on the first attempt:
    /// `blocks_ok + blocks_recovered + blocks_fell_back == accel.jobs`, and a
    /// trace's block events carry the same tally.
    pub blocks_ok: usize,
    /// Blocks that failed initially but recovered via their retry:
    /// `blocks_recovered + blocks_fell_back == blocks_retried`.
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

/// The error of decoded entries that break a CSR invariant, the same on
/// every schedule: the batch finds it assembling the [`Csr`], the tile
/// walker block by block ([`csr::check_columns`]), in the same order.
pub(crate) fn decoded_invalid(e: &SparseError) -> ExecError {
    ExecError::Reassembly(format!("decoded matrix invalid: {e}"))
}

/// Transport-structure check: block count and sequence positions. Per-block
/// CRCs are deliberately *not* checked here — a payload-corrupted block must
/// reach the per-job retry/fallback machinery, but a dropped, duplicated, or
/// reordered block (whose CRC is still valid) would otherwise reassemble
/// into a silently wrong matrix. The error names the stream and the first
/// position that does not hold its own block.
fn check_stream_structure(kind: StreamKind, stream: &BlockStream) -> ExecResult<()> {
    let expected = stream.expected_blocks().map_err(UdpError::from)?;
    let actual = stream.blocks.len();
    let misplaced = stream.blocks.iter().enumerate().position(|(k, b)| b.seq as usize != k);
    let broken = |position, source| Err(ExecError::Structure { stream: kind, position, source });
    if actual != expected {
        let position = misplaced.unwrap_or(actual.min(expected));
        return broken(position, CodecError::BlockCount { expected, actual });
    }
    match misplaced {
        Some(k) => broken(
            k,
            CodecError::BlockSequence { expected: k, found: stream.blocks[k].seq as usize },
        ),
        None => Ok(()),
    }
}

impl RecodedSpmv {
    /// Compresses `a` for the heterogeneous system, keeping the raw stream
    /// bytes as the degradation fallback.
    ///
    /// Set-up is one fan-out ([`par::map`]) of four items: each stream
    /// trains, encodes and builds its decoder (a Huffman compile, the
    /// verify gate and the JIT), and each stream's bytes are copied into the
    /// store. The value stream, usually the larger, is item 0 and runs on
    /// the calling thread, so its blocks stay on the caller's heap; the
    /// worker that finishes its stream first takes the copies. The result
    /// is what [`CompressedMatrix::compress`] followed by
    /// [`RecodedSpmv::from_compressed_with_store`] gives, errors included.
    ///
    /// # Errors
    /// Codec preconditions, then decoder-construction failures; the index
    /// stream's first within each.
    pub fn new(a: &Csr, config: MatrixCodecConfig) -> ExecResult<Self> {
        enum Item<'a> {
            Stream(PipelineConfig, &'a [u8]),
            Copy(&'a [u8], &'a mut Vec<u8>),
        }
        let (values, indices) = (words::le_bytes(a.values()), words::le_bytes(a.col_idx()));
        // The store's two arrays are the largest allocations set-up makes.
        // Taken here, on the calling thread and before the encoder's many
        // small blocks, they reuse the space a previous matrix's arrays
        // freed instead of landing behind those blocks or in a worker's
        // malloc arena; the copies only fill them.
        let mut raw_store = RawFallbackStore {
            index_bytes: Vec::with_capacity(indices.len()),
            value_bytes: Vec::with_capacity(values.len()),
        };
        let items = [
            Item::Stream(config.value, &values),
            Item::Stream(config.index, &indices),
            Item::Copy(&values, &mut raw_store.value_bytes),
            Item::Copy(&indices, &mut raw_store.index_bytes),
        ];
        let set_up = par::map(items, |_, item| match item {
            Item::Stream(config, bytes) => {
                Some(Pipeline::train_and_encode(config, bytes).map(|(table, stream)| {
                    let decoder = DshDecoder::new(config, table.as_ref().map(|t| &t.lengths[..]));
                    ((table, stream), decoder)
                }))
            }
            Item::Copy(bytes, store) => {
                store.extend_from_slice(bytes);
                None
            }
        });
        let mut streams = set_up.into_iter().flatten();
        let mut stream = || streams.next().expect("one result per stream");
        let (value, index) = (stream(), stream());
        let ((index, index_decoder), (value, value_decoder)) = (index?, value?);
        let (index_decoder, value_decoder) = (index_decoder?, value_decoder?);
        Ok(RecodedSpmv {
            compressed: CompressedMatrix::from_streams(a, config, index, value),
            index_decoder,
            value_decoder,
            raw_store: Some(raw_store),
        })
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
    /// The two streams' decoders (a Huffman compile, the verify gate and
    /// the JIT each) build at once, one per host worker ([`par::map`]).
    ///
    /// # Errors
    /// Decoder-construction failures (bad tables); the index stream's
    /// first when both fail.
    pub fn from_compressed_with_store(
        compressed: CompressedMatrix,
        raw_store: Option<RawFallbackStore>,
    ) -> ExecResult<Self> {
        let cm = &compressed;
        let streams = [
            (cm.config.index, cm.index_table_lengths.as_deref()),
            (cm.config.value, cm.value_table_lengths.as_deref()),
        ];
        let [index, value]: [Result<DshDecoder, UdpError>; 2] =
            par::map(streams, |_, (config, lengths)| DshDecoder::new(config, lengths))
                .try_into()
                .expect("one decoder per stream");
        let (index_decoder, value_decoder) = (index?, value?);
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
    pub fn total_jobs(&self) -> usize {
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

    /// Whether job `job` is an index block of whole columns whose decoded
    /// entries `bytes` keep the column rule among themselves
    /// ([`csr::check_columns`] with no column before the first): what a
    /// lane checks of its index block while the block is in its cache.
    pub(crate) fn columns_kept(&self, job: usize, bytes: &[u8]) -> bool {
        let (cm, extent) = (&self.compressed, self.extent(job));
        let whole = extent.start.is_multiple_of(4) && extent.end.is_multiple_of(4);
        let cols = words::quads(bytes);
        self.locate(job).0 == StreamKind::Index
            && whole
            && csr::check_columns(&cm.row_ptr, cm.ncols, extent.start / 4, None, cols).is_ok()
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
    /// sized from a header field: the geometry — `row_ptr` is a ramp from 0
    /// to `nnz` over `nrows` rows ([`csr::check_row_ptr`]), the streams
    /// declare exactly `4·nnz` and `8·nnz` bytes in blocks no larger than a
    /// lane's output window, which bounds every allocation by
    /// `blocks.len() × block_bytes` — and both streams' transport structure
    /// ([`check_stream_structure`]).
    ///
    /// # Errors
    /// [`ExecError::Reassembly`] for the geometry, [`ExecError::Structure`]
    /// for the transport structure.
    pub(crate) fn check_structure(&self) -> ExecResult<()> {
        let cm = &self.compressed;
        csr::check_row_ptr(cm.nrows, &cm.row_ptr, cm.nnz)
            .map_err(|e| ExecError::Reassembly(format!("declared matrix invalid: {e}")))?;
        for (name, stream, word) in [
            (StreamKind::Index, &cm.index_stream, 4usize),
            (StreamKind::Value, &cm.value_stream, 8),
        ] {
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
            check_stream_structure(name, stream)?;
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

    /// The batch schedule: every block through the one decode engine
    /// (`Ladder::decode`) at once under `ctx.hook`, each decoding into its
    /// extent of the final `col_idx` / `values` arrays and recovering into
    /// the same extent; then validation of the result as a [`Csr`]. A
    /// block's recovery is charged to the lane that ran its first attempt
    /// (job `k` on lane `k % lanes`), behind that attempt: a successful
    /// retry's cycles are that lane's busy work, so the makespan stays the
    /// longest lane timeline and grows only when a recovery does not fit in
    /// its lane's slack. With `ctx.tel` the run records the phases
    /// `exec.decode_batch`, an `exec.retry` (and `exec.fallback`) per block
    /// on the ladder and `exec.reassemble`, the modeled `exec.mem_stream`
    /// and `exec.dma`, per-block events with lane and outcome, `exec.*` and
    /// `pool.*` counters, and memory traffic by source.
    ///
    /// # Errors
    /// [`ExecError::Unrecoverable`] if a block fails decoding, fails its
    /// retry, and no fallback store covers it;
    /// [`ExecError::Reassembly`] if the declared geometry is inconsistent
    /// ([`RecodedSpmv::check_structure`]) or the decoded streams do not form
    /// a valid matrix.
    pub fn decompress_with(
        &self,
        sys: &SystemConfig,
        ctx: RunCtx<'_>,
    ) -> ExecResult<(Csr, ExecStats)> {
        self.check_structure()?;
        let RunCtx { hook, mut tel } = ctx;
        let cm = &self.compressed;
        let pool_before = tel.is_some().then(|| recode_udp::pool::global().stats());

        // The arrays at their final length (sized by the geometry checked
        // above), viewed as bytes and cut into one extent per block: a job
        // *is* its index and its destination.
        let mut col_idx = vec![0u32; cm.nnz];
        let mut values = vec![0f64; cm.nnz];
        let index_extents = words::bytes_mut(&mut col_idx).chunks_mut(cm.index_stream.block_bytes);
        let value_extents = words::bytes_mut(&mut values).chunks_mut(cm.value_stream.block_bytes);
        let mut jobs: Vec<(usize, Extent<'_>)> =
            index_extents.chain(value_extents).map(Extent::new).enumerate().collect();
        debug_assert_eq!(jobs.len(), self.total_jobs());
        let mut ladder = Ladder::new(self, &sys.udp, recorder::Track::MAIN, tel.as_deref_mut());
        let report = ladder.decode(&mut jobs, hook.unwrap_or(&FaultHook::default()))?;
        let tally = ladder.tally;
        let kept: Vec<bool> = jobs[..cm.index_stream.blocks.len()]
            .iter()
            .map(|(_, extent)| extent.columns_kept)
            .collect();
        drop(jobs);

        let phase = recorder::phase(recorder::Track::MAIN, "exec.reassemble", tel.is_some());
        words::from_le_in_place(&mut col_idx);
        words::from_le_in_place(&mut values);
        // `row_ptr` passed `check_structure` and the arrays are `nnz` long
        // by construction: what is left of `Csr::try_from_parts` is the
        // column rule over the decoded entries.
        if cm.ncols > u32::MAX as usize {
            return Err(decoded_invalid(&SparseError::ColumnIndexOverflow(cm.ncols)));
        }
        self.check_seams(&col_idx, &kept).map_err(|e| decoded_invalid(&e))?;
        let a = Csr::from_parts_unchecked(cm.nrows, cm.ncols, cm.row_ptr.clone(), col_idx, values);
        phase.finish(tel.as_deref_mut(), 0.0, (cm.nnz * 12) as u64);

        let stats = tally.stats(sys, report, cm.wire_bytes(), OverlapStats::default());
        if let (Some(tel), Some(before)) = (tel, pool_before) {
            report_run(tel, &stats, self);
            let after = recode_udp::pool::global().stats();
            tel.derive(POOL_COUNTERS, |get| get(&after) - get(&before));
        }
        Ok((a, stats))
    }

    /// The column rule over the whole decoded `col_idx`, given which index
    /// blocks kept it on their lanes (`kept`, in job order): in storage
    /// order, the entries of each block the lanes did not vouch for, and the
    /// first entry of each block they did, against the entry before it. So
    /// the first error is the one a check of the whole array finds first.
    fn check_seams(&self, col_idx: &[u32], kept: &[bool]) -> recode_sparse::Result<()> {
        let cm = &self.compressed;
        let check = |from: usize, to: usize| {
            let prev = from.checked_sub(1).map(|k| col_idx[k]);
            csr::check_columns(&cm.row_ptr, cm.ncols, from, prev, &col_idx[from..to])
        };
        // Entries before `from` are checked.
        let mut from = 0;
        for job in (0..kept.len()).filter(|&job| kept[job]) {
            let extent = self.extent(job);
            let (first, end) = (extent.start / 4, extent.end / 4);
            // Its lane found every column below `ncols`, so a first column
            // above the one before keeps the rule wherever its row starts.
            let climbs = first == 0 || first == end || col_idx[first] > col_idx[first - 1];
            if from < first || !climbs {
                check(from, (first + 1).min(end))?;
            }
            from = end;
        }
        check(from, col_idx.len())
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
        let RunCtx { hook, mut tel } = ctx;
        let (a, stats) = self.decompress_with(sys, RunCtx { hook, tel: tel.as_deref_mut() })?;
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
    /// the `spmv_traced` entries own theirs; `recode metrics` seals a bare
    /// [`RecodedSpmv::decompress_with`]).
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

    /// Software-only decode path (reference), for differential testing.
    ///
    /// # Errors
    /// Codec errors.
    pub fn decompress_via_software(&self) -> Result<Csr, CodecError> {
        self.compressed.decompress()
    }

    /// **Streaming tiled SpMV** — the paper's Fig. 7 execution mode, on the
    /// paper's DDR4 platform: the tile walker of [`crate::overlap`] with no
    /// cache. The matrix is *never* materialized: index and value blocks
    /// are decoded a window of tiles at a time and multiplied into `y`, so
    /// resident memory stays one window instead of `O(nnz)` and the result
    /// is bit-exact with the serial kernel. Decode and multiply cycles add
    /// (`stats.overlap.enabled == false`). A block that fails climbs the
    /// same recovery ladder as on every schedule.
    ///
    /// # Errors
    /// As [`crate::overlap::OverlapExecutor::spmv_with`].
    ///
    /// # Panics
    /// If `x.len() != ncols`.
    pub fn spmv_streaming(&self, x: &[f64]) -> ExecResult<(Vec<f64>, ExecStats)> {
        let config = OverlapConfig { overlap: false, ..OverlapConfig::default() };
        OverlapExecutor::new(self, config).spmv(&SystemConfig::ddr4(), x)
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
    fn udp_decode_equals_software_reference_equals_original() {
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
    fn streaming_spmv_matches_full_decode_and_bounds_memory() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let (y, stats) = r.spmv_streaming(&x).unwrap();
        assert_eq!(y, recode_sparse::spmv::spmv(&a, &x), "tiled result must match");
        assert_eq!(stats.accel.jobs, r.total_jobs(), "every block is decoded exactly once");
        assert!(stats.accel.busy_cycles > 0);
        // Serial schedule: decode and multiply cycles add.
        assert!(!stats.overlap.enabled);
        assert_eq!(stats.accel.makespan_cycles, stats.overlap.serial_makespan_cycles);
        // The working set is one window: its index blocks, the values they
        // need (twice their bytes) and the value blocks cut at its two ends.
        // With few lanes the matrix takes several windows, and that is far
        // below the 12 B/nnz matrix.
        let cm = r.compressed();
        let (index_bytes, value_bytes) = (cm.index_stream.block_bytes, cm.value_stream.block_bytes);
        let streaming = OverlapConfig { overlap: false, ..OverlapConfig::default() };
        let mut sys = SystemConfig::ddr4();
        for lanes in [1, 2, 4] {
            sys.udp.lanes = lanes;
            let (y2, stats, peak_resident_bytes) =
                OverlapExecutor::new(&r, streaming).run(&sys, &x, RunCtx::default()).unwrap();
            assert_eq!(y2, y);
            assert!(stats.overlap.stages >= 4, "{lanes} lanes: {} windows", stats.overlap.stages);
            let window = 3 * lanes * index_bytes + value_bytes;
            assert!(peak_resident_bytes > 0);
            assert!(peak_resident_bytes <= window, "{lanes} lanes: {peak_resident_bytes}");
            assert!(peak_resident_bytes < a.nnz() * 12 / 3, "{lanes} lanes: {peak_resident_bytes}");
        }
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
        assert_eq!(stats.blocks_retried, 1, "a CRC failure repeats on the retry");
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
    fn a_retry_is_charged_to_the_lane_that_ran_the_block() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let (_, clean) = r.decompress_via_udp(&sys).unwrap();
        assert_eq!(clean.retry_cycles, 0);
        let hook = FaultHook::new().trap(0).trap(1);
        let (_, faulty) = r.decompress_via_udp_faulty(&sys, Some(&hook)).unwrap();
        assert!(faulty.retry_cycles > 0);
        // A trapped job costs nothing and its retry is the same decode on
        // the same lane, so every lane's timeline, the busy sum and the
        // makespan are the clean run's.
        let lanes = |s: &ExecStats| -> Vec<u64> {
            s.accel.lane_profiles.iter().map(|p| p.busy_cycles).collect()
        };
        assert_eq!(lanes(&faulty), lanes(&clean));
        assert_eq!(faulty.accel.busy_cycles, clean.accel.busy_cycles);
        assert_eq!(faulty.accel.makespan_cycles, clean.accel.makespan_cycles);
        // Utilization is recomputed over the charged totals.
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
        let ctx = RunCtx { hook: Some(&hook), tel: Some(&mut tel) };
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
    fn block_accounting_identity_holds_on_every_terminal_path() {
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
        let (_, fell_back) = r.decompress_via_udp(&sys).unwrap();
        check(&fell_back, "fallback run");
        assert_eq!(fell_back.blocks_fell_back, 1);
    }

    #[test]
    fn fanned_out_and_inline_decoder_builds_agree_on_every_block() {
        let a = test_matrix();
        let config = MatrixCodecConfig::udp_dsh();
        let build = || RecodedSpmv::new(&a, config).unwrap();
        let fanned = build();
        // Called from a worker, set-up runs inline.
        let inline = par::map([(), ()], |_, ()| build()).swap_remove(0);
        // The two-step path: the encoder's and the loader's fan-outs.
        let cm = CompressedMatrix::compress(&a, config).unwrap();
        let store = Some(RawFallbackStore::from_csr(&a));
        let composed = RecodedSpmv::from_compressed_with_store(cm, store).unwrap();
        let store_bytes = |r: &RecodedSpmv| {
            let store = r.raw_store.as_ref().expect("`new` keeps the raw store");
            (store.index_bytes.clone(), store.value_bytes.clone())
        };
        for other in [&inline, &composed] {
            assert_eq!(fanned.compressed().to_bytes(), other.compressed().to_bytes());
            assert_eq!(store_bytes(&fanned), store_bytes(other));
            for (f, o) in [
                (fanned.index_decoder(), other.index_decoder()),
                (fanned.value_decoder(), other.value_decoder()),
            ] {
                assert_eq!(f.code_bytes(), o.code_bytes());
            }
        }
        let store = fanned.raw_store.as_ref().unwrap();
        assert_eq!(store.index_bytes.capacity(), store.index_bytes.len(), "filled within capacity");
        assert_eq!(store.value_bytes.capacity(), store.value_bytes.len(), "filled within capacity");
        let mut lane = recode_udp::pool::global().checkout();
        for job in 0..fanned.total_jobs() {
            let len = fanned.extent(job).len();
            let decoded = |r: &RecodedSpmv, lane: &mut Lane| {
                let mut out = vec![0u8; len];
                let cycles = r.decode_job_into(lane, job, &mut out).unwrap().cycles;
                (out, cycles)
            };
            let want = decoded(&fanned, &mut lane);
            assert_eq!(decoded(&inline, &mut lane), want, "job {job}: inline");
            assert_eq!(decoded(&composed, &mut lane), want, "job {job}: two steps");
            assert_eq!(Some(&want.0[..]), fanned.raw_block(job), "job {job}: raw store");
        }
    }

    #[test]
    fn set_up_returns_the_index_streams_encode_error_first() {
        let a = test_matrix();
        let zero_blocks = PipelineConfig { block_bytes: 0, ..PipelineConfig::dsh_udp() };
        let odd_delta = PipelineConfig { block_bytes: 8190, ..PipelineConfig::dsh_udp() };
        let fails = |index, value| {
            let config = MatrixCodecConfig { index, value };
            let fanned = RecodedSpmv::new(&a, config).err().unwrap();
            let inline = par::map([(), ()], |_, ()| RecodedSpmv::new(&a, config))
                .swap_remove(0)
                .err()
                .unwrap();
            assert_eq!(fanned, inline);
            let two_steps = CompressedMatrix::compress(&a, config).unwrap_err();
            assert_eq!(fanned, ExecError::from(two_steps));
            fanned
        };
        let precondition = |msg: &str| ExecError::from(CodecError::Precondition(msg.into()));
        assert_eq!(fails(zero_blocks, odd_delta), precondition("block size must be positive"));
        assert_eq!(
            fails(PipelineConfig::dsh_udp(), odd_delta),
            precondition("delta stage requires 4-byte-aligned blocks")
        );
    }

    #[test]
    fn the_index_decoders_error_comes_first() {
        let cm = CompressedMatrix::compress(&test_matrix(), MatrixCodecConfig::udp_dsh()).unwrap();
        // Every code one bit long: no prefix code has 256 of them.
        let oversubscribed = Some(vec![1u8; 256]);
        let build = |index: Option<Vec<u8>>, value: Option<Vec<u8>>| {
            let cm = CompressedMatrix {
                index_table_lengths: index,
                value_table_lengths: value,
                ..cm.clone()
            };
            let fanned = RecodedSpmv::from_compressed(cm.clone()).err().unwrap();
            let inline = par::map([(), ()], |_, ()| RecodedSpmv::from_compressed(cm.clone()))
                .swap_remove(0)
                .err()
                .unwrap();
            assert_eq!(fanned, inline);
            fanned
        };
        let decoder_error = |config, lengths: Option<Vec<u8>>| {
            ExecError::from(DshDecoder::new(config, lengths.as_deref()).unwrap_err())
        };
        assert_eq!(
            build(oversubscribed.clone(), None),
            decoder_error(cm.config.index, oversubscribed.clone())
        );
        assert_eq!(
            build(cm.index_table_lengths.clone(), None),
            decoder_error(cm.config.value, None)
        );
        assert_ne!(
            decoder_error(cm.config.index, oversubscribed),
            decoder_error(cm.config.value, None)
        );
    }
}
