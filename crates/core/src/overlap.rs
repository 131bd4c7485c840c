//! **The tile walker: decode/multiply execution with decoded-block
//! caching** — the paper's Fig. 7 loop.
//!
//! The loop fetches a tile, decodes its index block and the value blocks it
//! needs, and multiplies the tile straight into `y` on the calling thread.
//! Each row's products are added in storage order, so the result is
//! bit-exact with the serial kernel. On the real machine the UDP lanes and
//! the CPU cores are independent engines, so a double-buffered schedule
//! lets the lanes decode tile *i + 1* while the CPU multiplies tile *i*;
//! per stage the modeled cost is `max(decode, multiply)` instead of their
//! sum:
//!
//! ```text
//! lane:  [d0][d1   ][d2][d3   ]
//! cpu:       [m0][m1   ][m2][m3]
//! makespan = d0 + Σ max(d_i, m_{i-1}) + m_last
//! ```
//!
//! That overlap is a property of the modeled machine, not of the host run:
//! the per-tile decode cycles (from the lane simulator, successful retries
//! included) and modeled CPU multiply cycles
//! ([`perfmodel::multiply_cycles`]) are combined by the pipelined-schedule
//! formula above, whose only copy is [`perfmodel::makespan`]. Both the
//! overlapped and the serial (sum) makespan are reported in
//! [`OverlapStats`]; [`OverlapConfig::overlap`] picks the one the run
//! charges. [`RecodedSpmv::spmv_streaming_with`] is the same walk with the
//! serial makespan and no cache.
//!
//! An [`ExecCache`] (seeded-capacity LRU over decoded blocks) sits in front
//! of the lanes: iterative callers — [`OverlapExecutor::spmv_iter`],
//! [`OverlapExecutor::conjugate_gradient`],
//! [`OverlapExecutor::power_iteration`] — pay decode cost once and hit the
//! cache on every later iteration, with hits/misses/evictions folded into
//! [`ExecStats`] and the telemetry trace.
//!
//! Each block's first attempt reads the fault hook through
//! [`Accelerator::dispatch`], which contains a lane panic as a failed
//! attempt, and is settled by the recovery ladder of [`crate::ladder`]
//! *inside* its slot of the walk, so a retried or fallback block can never
//! land in the wrong output position.

use crate::arch::SystemConfig;
use crate::error::{ExecError, ExecResult};
use crate::exec::{decoded_invalid, ExecStats, RecodedSpmv};
use crate::ladder::{report_run, vector_traffic, Ladder, RunCtx};
use crate::perfmodel;
use crate::recorder;
use crate::telemetry::{StreamKind, Telemetry, TraceDocument, TILED_COUNTERS};
use recode_mem::traffic::TrafficSource;
use recode_sparse::csr;
use recode_sparse::solve::{self, SolveResult};
use recode_udp::accel::{AccelReport, Accelerator, FaultHook, JobOutcome, StageCycles};
use recode_udp::{Lane, OpClassCycles};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Key of a decoded block: which stream, which block position.
pub type CacheKey = (StreamKind, usize);

/// Lifetime counters of an [`ExecCache`]. Per-run numbers in
/// [`OverlapStats`] are deltas of two snapshots of these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed (the block was then decoded and inserted).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Decoded bytes served from the cache (decode work avoided).
    pub hit_bytes: u64,
}

struct CacheEntry {
    bytes: Arc<Vec<u8>>,
    stamp: u64,
}

/// Seeded-capacity LRU cache over decoded blocks, keyed by
/// `(stream, block)`. Capacity is counted in *blocks* (decoded blocks are
/// all ≤ the codec block size), and capacity 0 disables the cache
/// entirely — inserts are dropped and lookups are never attempted by the
/// executor, so the counters stay zero.
pub struct ExecCache {
    capacity: usize,
    tick: u64,
    map: HashMap<CacheKey, CacheEntry>,
    stats: CacheStats,
}

impl std::fmt::Debug for ExecCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCache")
            .field("capacity", &self.capacity)
            .field("len", &self.map.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl ExecCache {
    /// Cache holding at most `capacity` decoded blocks (0 = disabled).
    pub fn new(capacity: usize) -> Self {
        ExecCache { capacity, tick: 0, map: HashMap::new(), stats: CacheStats::default() }
    }

    /// Maximum resident blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Blocks currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&mut self, key: CacheKey) -> Option<Arc<Vec<u8>>> {
        self.tick += 1;
        if let Some(e) = self.map.get_mut(&key) {
            e.stamp = self.tick;
            self.stats.hits += 1;
            self.stats.hit_bytes += e.bytes.len() as u64;
            recorder::record(
                recorder::EventKind::CacheHit,
                recorder::Track::stage(0),
                "cache.hit",
                e.bytes.len() as u64,
                key.1 as u64,
            );
            Some(Arc::clone(&e.bytes))
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Inserts `key`, evicting the least-recently-used entry when full.
    /// A no-op at capacity 0.
    pub fn insert(&mut self, key: CacheKey, bytes: Arc<Vec<u8>>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(victim) = self.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| *k) {
                self.map.remove(&victim);
                self.stats.evictions += 1;
                recorder::record(
                    recorder::EventKind::CacheEvict,
                    recorder::Track::stage(0),
                    "cache.evict",
                    victim.1 as u64,
                    0,
                );
            }
        }
        self.map.insert(key, CacheEntry { bytes, stamp: self.tick });
    }
}

/// Knobs of the overlapped executor.
#[derive(Debug, Clone, Copy)]
pub struct OverlapConfig {
    /// Charge the pipelined schedule's modeled makespan (`max(decode,
    /// multiply)` per stage). When false stage costs add, as in
    /// [`RecodedSpmv::spmv_streaming`]; the walk itself is the same.
    pub overlap: bool,
    /// Decoded-block LRU capacity in blocks; 0 disables caching.
    pub cache_blocks: usize,
    /// Unread: every tile is multiplied on the calling thread. The field
    /// remains only because `bench/e2e` builds this struct by literal;
    /// everything else sets it through `..OverlapConfig::default()`.
    pub workers: usize,
}

impl Default for OverlapConfig {
    fn default() -> Self {
        OverlapConfig { overlap: true, cache_blocks: 0, workers: 0 }
    }
}

/// Pipelined-schedule and cache statistics of one overlapped run, carried
/// inside [`ExecStats::overlap`]. All-zero (`enabled == false`) for the
/// plain batch path, so old traces deserialize unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverlapStats {
    /// True when the run modeled the pipelined schedule.
    pub enabled: bool,
    /// Pipeline stages executed (tiles = index blocks with non-zeros).
    pub stages: usize,
    /// Lane cycles spent decoding (successful retries included; cache hits
    /// cost zero).
    pub decode_cycles: u64,
    /// Modeled CPU multiply cycles across all tiles, in UDP-clock cycles.
    pub multiply_cycles: u64,
    /// Modeled makespan of the pipelined schedule:
    /// `d0 + Σ max(d_i, m_{i-1}) + m_last`.
    pub overlapped_makespan_cycles: u64,
    /// Modeled makespan with no overlap: `Σ d_i + Σ m_i`.
    pub serial_makespan_cycles: u64,
    /// Cache hits during this run.
    pub cache_hits: u64,
    /// Cache misses during this run.
    pub cache_misses: u64,
    /// Cache evictions during this run.
    pub cache_evictions: u64,
    /// Decoded bytes served from the cache during this run.
    pub cache_hit_bytes: u64,
}

impl OverlapStats {
    /// Cycles the pipelined schedule saves over the serial one.
    pub fn saved_cycles(&self) -> u64 {
        self.serial_makespan_cycles.saturating_sub(self.overlapped_makespan_cycles)
    }
}

/// What the tile walker learns about a run besides the ladder's tally.
#[derive(Default)]
struct TileWalk {
    /// Lane cycles each tile charged to the decode side: the decodes whose
    /// bytes the tile used, first attempts or retries; cache hits cost zero.
    per_tile_decode: Vec<u64>,
    per_tile_nnz: Vec<usize>,
    /// Op-class and stage attribution of those decodes: each sums to the
    /// decode side's cycles, as a batch's do to its busy cycles.
    opclass: OpClassCycles,
    stage_cycles: StageCycles,
    /// Compressed payload bytes fetched (blocks not served from the cache).
    fetched_bytes: usize,
    decoded_bytes: u64,
    /// Most decoded bytes resident at once — the tiled loop's working set.
    peak_resident_bytes: usize,
}

/// The overlapped, cached executor over one [`RecodedSpmv`].
///
/// The executor borrows the compressed matrix and owns the decoded-block
/// cache, so a single executor reused across calls is what makes iterative
/// workloads cheap: iteration 1 decodes, iterations 2… hit the cache.
pub struct OverlapExecutor<'m> {
    recoded: &'m RecodedSpmv,
    config: OverlapConfig,
    cache: Mutex<ExecCache>,
}

impl<'m> OverlapExecutor<'m> {
    /// Executor over `recoded` with `config`.
    pub fn new(recoded: &'m RecodedSpmv, config: OverlapConfig) -> Self {
        OverlapExecutor { recoded, config, cache: Mutex::new(ExecCache::new(config.cache_blocks)) }
    }

    /// Executor over an operand recoded under a persisted tuned config,
    /// verifying the operand really carries the tuned codec stream.
    ///
    /// # Errors
    /// [`crate::tune::TuneError::CodecMismatch`] when `recoded` was
    /// compressed under a different codec config than `tuned` prescribes.
    pub fn from_tuned(
        recoded: &'m RecodedSpmv,
        tuned: &crate::tune::TunedConfig,
        config: OverlapConfig,
    ) -> Result<Self, crate::tune::TuneError> {
        if recoded.compressed().config != tuned.codec_config() {
            return Err(crate::tune::TuneError::CodecMismatch);
        }
        Ok(Self::new(recoded, config))
    }

    /// The configuration this executor runs with.
    pub fn config(&self) -> OverlapConfig {
        self.config
    }

    /// Lifetime cache counters (across every run of this executor).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().expect("cache poisoned").stats()
    }

    /// Decoded blocks currently resident in the cache.
    pub fn cached_blocks(&self) -> usize {
        self.cache.lock().expect("cache poisoned").len()
    }

    /// Pipelined SpMV `y = A x`.
    ///
    /// # Errors
    /// As [`OverlapExecutor::spmv_with`].
    ///
    /// # Panics
    /// If `x.len() != ncols`.
    pub fn spmv(&self, sys: &SystemConfig, x: &[f64]) -> ExecResult<(Vec<f64>, ExecStats)> {
        self.spmv_with(sys, x, RunCtx::default())
    }

    /// [`OverlapExecutor::spmv`] with an optional fault-injection hook.
    ///
    /// # Errors
    /// As [`OverlapExecutor::spmv_with`].
    pub fn spmv_faulty(
        &self,
        sys: &SystemConfig,
        x: &[f64],
        hook: Option<&FaultHook>,
    ) -> ExecResult<(Vec<f64>, ExecStats)> {
        self.spmv_with(sys, x, RunCtx { hook, ..RunCtx::default() })
    }

    /// The engine entry: pipelined SpMV under `ctx`. Job numbering matches
    /// the batch path (index blocks first, then value blocks), so the same
    /// hook means the same faults on either executor; a failed block climbs
    /// the recovery ladder inside its tile, and the modeled pipelined
    /// makespan keeps its `max(decode, multiply)` definition. With `ctx.tel`
    /// the run records
    /// the phase `exec.overlap` (the walker's own `decode`, `exec.retry` and
    /// `exec.fallback` spans run underneath it on the stage-0 track and stay
    /// in the flight recorder), the modeled `exec.mem_stream` and
    /// `exec.dma`, the `exec.*`, `pipeline.overlap.*` and `cache.*`
    /// counters, per-block events, and traffic by source.
    ///
    /// # Errors
    /// [`ExecError::Unrecoverable`] for a block that fails decode, fails its
    /// retry, and has no fallback coverage;
    /// [`ExecError::Reassembly`] on stream misalignment, or on decoded
    /// columns that break CSR's rule — the batch's error for them.
    ///
    /// # Panics
    /// If `x.len() != ncols`.
    pub fn spmv_with(
        &self,
        sys: &SystemConfig,
        x: &[f64],
        ctx: RunCtx<'_>,
    ) -> ExecResult<(Vec<f64>, ExecStats)> {
        self.run(sys, x, ctx).map(|(y, stats, _)| (y, stats))
    }

    /// Fully traced pipelined SpMV: [`OverlapExecutor::spmv_with`] (whose
    /// `ctx.tel` is supplied here) plus the sealed [`TraceDocument`].
    ///
    /// # Errors
    /// As [`OverlapExecutor::spmv_with`].
    pub fn spmv_traced(
        &self,
        sys: &SystemConfig,
        x: &[f64],
        ctx: RunCtx<'_>,
        name: &str,
    ) -> ExecResult<(Vec<f64>, ExecStats, TraceDocument)> {
        let t_total = Instant::now();
        let mut tel = Telemetry::new();
        let (y, stats) = self.spmv_with(sys, x, ctx.traced(&mut tel))?;
        let doc = self.recoded.seal(sys, tel, &stats, name, t_total);
        Ok((y, stats, doc))
    }

    /// Repeated SpMV `x ← normalize(A x)` for `iters` iterations — the
    /// access pattern of every iterative consumer. With a warm cache only
    /// iteration 1 pays decode cycles. Returns the final iterate and the
    /// per-iteration stats.
    ///
    /// # Errors
    /// As [`OverlapExecutor::spmv`].
    ///
    /// # Panics
    /// If the matrix is not square or `x0.len() != ncols`.
    pub fn spmv_iter(
        &self,
        sys: &SystemConfig,
        x0: &[f64],
        iters: usize,
    ) -> ExecResult<(Vec<f64>, Vec<ExecStats>)> {
        let cm = self.recoded.compressed();
        assert_eq!(cm.nrows, cm.ncols, "spmv_iter needs a square matrix");
        let mut x = x0.to_vec();
        let mut per_iter = Vec::with_capacity(iters);
        for _ in 0..iters {
            let (y, stats) = self.spmv(sys, &x)?;
            per_iter.push(stats);
            let norm = y.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            x = if norm > 0.0 { y.iter().map(|v| v / norm).collect() } else { y };
        }
        Ok((x, per_iter))
    }

    /// Conjugate gradients with every `A p` apply going through the
    /// pipelined, cached executor. Returns the solve outcome plus the
    /// per-apply stats.
    ///
    /// # Errors
    /// As [`OverlapExecutor::spmv`].
    pub fn conjugate_gradient(
        &self,
        sys: &SystemConfig,
        b: &[f64],
        tol: f64,
        max_iters: usize,
    ) -> ExecResult<(SolveResult, Vec<ExecStats>)> {
        let mut per_apply = Vec::new();
        let result = solve::conjugate_gradient_op(b, tol, max_iters, |x, y| {
            let (out, stats) = self.spmv(sys, x)?;
            y.copy_from_slice(&out);
            per_apply.push(stats);
            Ok::<(), ExecError>(())
        })?;
        Ok((result, per_apply))
    }

    /// Power iteration through the pipelined, cached executor. Returns the
    /// solve outcome, the eigenvalue estimate, and the per-apply stats.
    ///
    /// # Errors
    /// As [`OverlapExecutor::spmv`].
    ///
    /// # Panics
    /// If the matrix is not square or is empty.
    pub fn power_iteration(
        &self,
        sys: &SystemConfig,
        tol: f64,
        max_iters: usize,
    ) -> ExecResult<(SolveResult, f64, Vec<ExecStats>)> {
        let cm = self.recoded.compressed();
        assert_eq!(cm.nrows, cm.ncols, "power iteration needs a square matrix");
        let mut per_apply = Vec::new();
        let (result, eigenvalue) = solve::power_iteration_op(cm.nrows, tol, max_iters, |x, y| {
            let (out, stats) = self.spmv(sys, x)?;
            y.copy_from_slice(&out);
            per_apply.push(stats);
            Ok::<(), ExecError>(())
        })?;
        Ok((result, eigenvalue, per_apply))
    }

    /// Decodes one block through the same cache-then-ladder path a run
    /// uses, returning the decoded length. Hidden: it exists so the
    /// allocation-regression suite can measure warm-cache hits alone,
    /// without the output vector and stats a run allocates. On a miss an
    /// index block's columns are checked against the real seam, the last
    /// column of the block before, which is decoded (uncached) for it: a
    /// block enters the cache only as checked as the walk checks it.
    #[doc(hidden)]
    pub fn decode_one_for_test(&self, stream: StreamKind, pos: usize) -> ExecResult<usize> {
        let job = match stream {
            StreamKind::Index => pos,
            StreamKind::Value => self.recoded.compressed().index_stream.blocks.len() + pos,
        };
        let udp = Accelerator::default();
        let mut ladder = Ladder::new(self.recoded, &udp, recorder::Track::stage(0), None, None);
        let mut walk = TileWalk::default();
        let hook = FaultHook::default();
        let seam = |ladder: &mut Ladder<'_>| match (stream, pos.checked_sub(1)) {
            (StreamKind::Index, Some(before)) => {
                let (bytes, _) = self.fetch(before, &hook, ladder)?;
                Ok(bytes.last_chunk().map(|c| u32::from_le_bytes(*c)))
            }
            _ => Ok(None),
        };
        self.decode_one(job, seam, &hook, &mut ladder, &mut walk).map(|d| d.0.len())
    }

    /// Job `job`'s block at its extent: the first attempt under `hook` on a
    /// pooled lane, settled by `ladder`. Returns the bytes and the outcome
    /// of the decode that made them (`None` for a fallback).
    fn fetch(
        &self,
        job: usize,
        hook: &FaultHook,
        ladder: &mut Ladder<'_>,
    ) -> ExecResult<(Vec<u8>, Option<JobOutcome>)> {
        // The block's own buffer at its extent: first attempt and every
        // rung of the ladder fill it in place.
        let mut bytes = vec![0u8; self.recoded.extent(job).len()];
        let first = {
            let mut lane = recode_udp::pool::global().checkout();
            let run = |lane: &mut Lane| self.recoded.decode_job_into(lane, job, &mut bytes);
            Accelerator::dispatch(&mut lane, hook, job, run)
        };
        let decoded = ladder.settle(job, first, &mut bytes)?;
        Ok((bytes, decoded))
    }

    /// One block of the walk: the cache first; on a miss [`Self::fetch`],
    /// and for an index block the check of its columns
    /// ([`csr::check_columns`], `seam` giving the column before the block)
    /// before anything multiplies or caches it. `seam` runs on a miss of an
    /// index block only. Returns the bytes and the lane cycles the block
    /// charged to the decode side.
    fn decode_one(
        &self,
        job: usize,
        seam: impl FnOnce(&mut Ladder<'_>) -> ExecResult<Option<u32>>,
        hook: &FaultHook,
        ladder: &mut Ladder<'_>,
        walk: &mut TileWalk,
    ) -> ExecResult<(Arc<Vec<u8>>, u64)> {
        let key = self.recoded.locate(job);
        let cached = self.config.cache_blocks > 0;
        let hit = if cached { self.cache.lock().expect("cache poisoned").get(key) } else { None };
        let (bytes, cost) = if let Some(bytes) = hit {
            (bytes, 0)
        } else {
            // Decode work happens on the walker's (stage 0) track; cache
            // hits never open this span. Off the main track, so ring only.
            let _decode = recorder::phase(recorder::Track::stage(0), "decode", false);
            let (bytes, decoded) = self.fetch(job, hook, ladder)?;
            if key.0 == StreamKind::Index {
                let cm = self.recoded.compressed();
                let k_start = self.recoded.extent(job).start / 4;
                let cols = bytes
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte index")));
                csr::check_columns(&cm.row_ptr, cm.ncols, k_start, seam(ladder)?, cols)
                    .map_err(|e| decoded_invalid(&e))?;
            }
            walk.fetched_bytes += self.recoded.job_block(job).1.payload.len();
            let cycles = decoded.map_or(0, |o| {
                walk.opclass.merge(&o.opclass);
                walk.stage_cycles.merge(&o.stage_cycles);
                o.cycles
            });
            let bytes = Arc::new(bytes);
            if cached {
                self.cache.lock().expect("cache poisoned").insert(key, Arc::clone(&bytes));
            }
            (bytes, cycles)
        };
        walk.decoded_bytes += bytes.len() as u64;
        Ok((bytes, cost))
    }

    /// The engine behind every tiled entry point, and the one tile walker
    /// (the paper's Fig. 7 loop): walks index blocks in order, pulling value
    /// blocks as each tile needs them, and multiplies every tile into `y`
    /// as soon as it is assembled. Then the modeled schedule, the stats and
    /// the telemetry. Also returns the walk's peak resident decoded bytes.
    pub(crate) fn run(
        &self,
        sys: &SystemConfig,
        x: &[f64],
        ctx: RunCtx<'_>,
    ) -> ExecResult<(Vec<f64>, ExecStats, usize)> {
        let cm = self.recoded.compressed();
        assert_eq!(x.len(), cm.ncols, "x length must equal ncols");
        self.recoded.check_structure()?;
        // A tile is one index block, so each must hold whole column words
        // (value blocks may cut a word: the walker buffers those).
        if !cm.index_stream.block_bytes.is_multiple_of(4) {
            return Err(ExecError::Reassembly(format!(
                "the tiled schedules need 4-byte aligned index blocks, the stream has {}-byte ones",
                cm.index_stream.block_bytes
            )));
        }
        let RunCtx { hook, mut tel } = ctx;
        let empty_hook = FaultHook::default();
        let hook = hook.unwrap_or(&empty_hook);
        let cache_before = self.cache.lock().expect("cache poisoned").stats();

        let phase = recorder::phase(recorder::Track::MAIN, "exec.overlap", tel.is_some());
        let mut y = vec![0.0f64; cm.nrows];
        // The walk's ladder reports to the run's registry, lent for the walk.
        let track = recorder::Track::stage(0);
        let mut ladder = Ladder::new(self.recoded, &sys.udp, track, tel.as_deref_mut(), None);
        let mut walk = TileWalk::default();
        let mut val_buf: Vec<u8> = Vec::new();
        let n_index = cm.index_stream.blocks.len();
        let mut next_value = n_index;
        let mut k_global = 0usize;
        let mut last_col = None;
        for t in 0..n_index {
            let (idx, mut tile_cycles) =
                self.decode_one(t, |_| Ok(last_col), hook, &mut ladder, &mut walk)?;
            last_col = idx.last_chunk().map(|c| u32::from_le_bytes(*c));
            let tile_nnz = idx.len() / 4;
            while val_buf.len() < tile_nnz * 8 {
                if next_value >= self.recoded.total_jobs() {
                    return Err(ExecError::Reassembly("value stream ended early".into()));
                }
                let (vals, cycles) =
                    self.decode_one(next_value, |_| Ok(None), hook, &mut ladder, &mut walk)?;
                next_value += 1;
                tile_cycles += cycles;
                val_buf.extend_from_slice(&vals);
            }
            walk.peak_resident_bytes = walk.peak_resident_bytes.max(idx.len() + val_buf.len());
            walk.per_tile_decode.push(tile_cycles);
            walk.per_tile_nnz.push(tile_nnz);
            {
                let _multiply = recorder::span(track, "multiply_tile");
                let vals = &val_buf[..tile_nnz * 8];
                accumulate_tile(&cm.row_ptr, x, k_global, &idx, vals, &mut y);
            }
            val_buf.drain(..tile_nnz * 8);
            k_global += tile_nnz;
        }
        if k_global != cm.nnz {
            return Err(ExecError::Reassembly(format!(
                "streamed {} non-zeros but the matrix has {}",
                k_global, cm.nnz
            )));
        }
        let tally = ladder.tally;

        // Modeled schedule: the lane decodes tile i+1 while the CPU
        // multiplies tile i.
        let bpnnz = cm.bytes_per_nnz();
        let per_tile_multiply: Vec<u64> = walk
            .per_tile_nnz
            .iter()
            .map(|&nnz| perfmodel::multiply_cycles(sys, bpnnz, nnz))
            .collect();
        let decode_cycles: u64 = walk.per_tile_decode.iter().sum();
        let multiply_cycles: u64 = per_tile_multiply.iter().sum();
        let stages = walk.per_tile_decode.len();
        let (overlapped_makespan, serial_makespan) =
            perfmodel::makespan(&walk.per_tile_decode, &per_tile_multiply);
        let makespan = if self.config.overlap { overlapped_makespan } else { serial_makespan };

        let cache_after = self.cache.lock().expect("cache poisoned").stats();
        let overlap = OverlapStats {
            enabled: self.config.overlap,
            stages,
            decode_cycles,
            multiply_cycles,
            overlapped_makespan_cycles: overlapped_makespan,
            serial_makespan_cycles: serial_makespan,
            cache_hits: cache_after.hits - cache_before.hits,
            cache_misses: cache_after.misses - cache_before.misses,
            cache_evictions: cache_after.evictions - cache_before.evictions,
            cache_hit_bytes: cache_after.hit_bytes - cache_before.hit_bytes,
        };

        phase.finish(tel.as_deref_mut(), makespan as f64 / sys.udp.freq_hz, walk.decoded_bytes);
        let mut report = AccelReport {
            jobs: tally.completed(),
            jobs_failed: tally.failed(),
            lanes: sys.udp.lanes,
            makespan_cycles: makespan,
            busy_cycles: decode_cycles,
            output_bytes: walk.decoded_bytes,
            freq_hz: sys.udp.freq_hz,
            opclass: walk.opclass,
            stage_cycles: walk.stage_cycles,
            ..AccelReport::default()
        };
        report.refresh_utilization();
        let stats = tally.stats(sys, report, walk.fetched_bytes, overlap);

        if let Some(tel) = tel {
            report_run(tel, &stats, self.recoded);
            vector_traffic(tel, cm.nrows, cm.ncols);
            tel.derive(TILED_COUNTERS, |get| get(&overlap));
            tel.traffic.read(TrafficSource::DecodedCache, overlap.cache_hit_bytes);
        }
        Ok((y, stats, walk.peak_resident_bytes))
    }
}

/// The one row walk: adds the products `v · x[c]` of the tile whose first
/// non-zero is `k_start` into `y[row]`, advancing the row as the nnz cursor
/// passes each `row_ptr` boundary (empty rows skip past). Within a row the
/// products are added in storage order, so the result is bit-exact with the
/// serial kernel.
fn accumulate_tile(
    row_ptr: &[usize],
    x: &[f64],
    k_start: usize,
    idx: &[u8],
    vals: &[u8],
    y: &mut [f64],
) {
    let mut row = row_ptr.partition_point(|&p| p <= k_start).saturating_sub(1);
    for (t, (c, v)) in idx.chunks_exact(4).zip(vals.chunks_exact(8)).enumerate() {
        while row_ptr[row + 1] <= k_start + t {
            row += 1;
        }
        let c = u32::from_le_bytes(c.try_into().expect("4-byte index")) as usize;
        let v = f64::from_le_bytes(v.try_into().expect("8-byte value"));
        y[row] += v * x[c];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recode_codec::pipeline::MatrixCodecConfig;
    use recode_sparse::prelude::*;
    use recode_sparse::spmv::SpmvKernel;

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
    fn overlapped_spmv_is_bit_exact_with_the_serial_kernel() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let want = recode_sparse::spmv::spmv(&a, &x);
        for overlap in [true, false] {
            for cache_blocks in [0usize, 64] {
                let config = OverlapConfig { overlap, cache_blocks, ..OverlapConfig::default() };
                let (y, stats) = OverlapExecutor::new(&r, config).spmv(&sys, &x).unwrap();
                assert_eq!(y, want, "overlap={overlap} cache={cache_blocks}");
                assert_eq!(stats.overlap.enabled, overlap);
                assert!(stats.overlap.stages > 0);
                assert!(!stats.degraded);
            }
        }
    }

    #[test]
    fn overlapped_makespan_beats_the_serial_sum() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x = vec![1.0; a.ncols()];
        let ex = OverlapExecutor::new(&r, OverlapConfig::default());
        let (_, stats) = ex.spmv(&sys, &x).unwrap();
        let ov = stats.overlap;
        assert!(ov.stages >= 2, "need at least two tiles to overlap: {}", ov.stages);
        assert!(
            ov.overlapped_makespan_cycles < ov.serial_makespan_cycles,
            "overlapped {} must beat serial {}",
            ov.overlapped_makespan_cycles,
            ov.serial_makespan_cycles
        );
        // The schedule can never beat either engine's own critical path.
        assert!(ov.overlapped_makespan_cycles >= ov.decode_cycles);
        assert!(ov.overlapped_makespan_cycles >= ov.multiply_cycles);
        assert_eq!(stats.accel.makespan_cycles, ov.overlapped_makespan_cycles);
    }

    #[test]
    fn warm_cache_pays_at_least_five_times_fewer_decode_cycles() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x0 = vec![1.0; a.ncols()];
        let ex = OverlapExecutor::new(
            &r,
            OverlapConfig { cache_blocks: 4096, ..OverlapConfig::default() },
        );
        let (_, per_iter) = ex.spmv_iter(&sys, &x0, 10).unwrap();
        assert_eq!(per_iter.len(), 10);
        let cold = per_iter[0].overlap.decode_cycles;
        let warm: u64 = per_iter[1..].iter().map(|s| s.overlap.decode_cycles).sum();
        assert!(cold > 0);
        assert_eq!(warm, 0, "a fully warm cache decodes nothing");
        // The acceptance bar: iteration 1 spends >= 5x the decode cycles of
        // any later iteration (trivially true at 0, asserted robustly).
        let max_warm = per_iter[1..].iter().map(|s| s.overlap.decode_cycles).max().unwrap();
        assert!(cold >= 5 * max_warm.max(1) || max_warm == 0);
        assert!(per_iter[1].overlap.cache_hits > 0);
        assert_eq!(per_iter[1].overlap.cache_misses, 0);
    }

    #[test]
    fn lru_evicts_and_recovers_under_tiny_capacity() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x = vec![1.0; a.ncols()];
        // Fewer slots than blocks: every run re-decodes, evicting as it goes.
        let ex =
            OverlapExecutor::new(&r, OverlapConfig { cache_blocks: 2, ..OverlapConfig::default() });
        let (_, s1) = ex.spmv(&sys, &x).unwrap();
        let (_, s2) = ex.spmv(&sys, &x).unwrap();
        assert!(s1.overlap.cache_evictions > 0, "capacity 2 must evict");
        assert!(s2.overlap.cache_misses > 0, "thrashing cache cannot serve everything");
        assert!(ex.cached_blocks() <= 2);
        let want = recode_sparse::spmv::spmv(&a, &x);
        let (y, _) = ex.spmv(&sys, &x).unwrap();
        assert_eq!(y, want);
    }

    #[test]
    fn faults_inside_the_pipeline_keep_blocks_in_position() {
        let a = test_matrix();
        let mut r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        // Value block 1 is corrupt (falls back); job 0 traps transiently.
        r.compressed_mut().value_stream.blocks[1].payload[0] ^= 0x40;
        let sys = SystemConfig::ddr4();
        let hook = FaultHook::new().trap(0);
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let want = recode_sparse::spmv::spmv(&a, &x);
        let ex = OverlapExecutor::new(
            &r,
            OverlapConfig { cache_blocks: 128, ..OverlapConfig::default() },
        );
        let (y, stats) = ex.spmv_faulty(&sys, &x, Some(&hook)).unwrap();
        assert_eq!(y, want, "recovered blocks must land in place");
        assert!(stats.degraded);
        assert_eq!(stats.blocks_retried, 2, "one retry per failed block");
        assert_eq!(stats.blocks_fell_back, 1);
        assert!(stats.fallback_bytes > 0);
        // The walker attributes every decode cycle it charged, retry included.
        let busy = stats.accel.busy_cycles;
        assert_eq!(stats.overlap.decode_cycles, busy);
        assert_eq!((stats.accel.opclass.total(), stats.accel.stage_cycles.total()), (busy, busy));
        // Second run: the cache holds recovered bytes, so nothing degrades.
        let (y2, s2) = ex.spmv_faulty(&sys, &x, Some(&hook)).unwrap();
        assert_eq!(y2, want);
        assert!(!s2.degraded, "cached blocks skip the fault path entirely");
        assert_eq!(s2.overlap.cache_misses, 0);
    }

    #[test]
    fn unrecoverable_block_is_a_typed_error_not_a_hang() {
        let a = test_matrix();
        let cm =
            recode_codec::pipeline::CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh())
                .unwrap();
        let mut r = RecodedSpmv::from_compressed(cm).unwrap(); // no raw store
        r.compressed_mut().index_stream.blocks[1].payload[0] ^= 0x10;
        let sys = SystemConfig::ddr4();
        let x = vec![1.0; a.ncols()];
        let ex = OverlapExecutor::new(&r, OverlapConfig::default());
        let err = ex.spmv(&sys, &x).unwrap_err();
        match err {
            ExecError::Unrecoverable { block, .. } => assert_eq!(block, Some(1)),
            other => panic!("expected Unrecoverable, got {other}"),
        }
    }

    #[test]
    fn traced_overlap_run_seals_a_valid_document() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x = vec![1.0; a.ncols()];
        let ex = OverlapExecutor::new(
            &r,
            OverlapConfig { cache_blocks: 512, ..OverlapConfig::default() },
        );
        let (_, stats, doc) =
            ex.spmv_traced(&sys, &x, RunCtx::default(), "stencil-overlap").unwrap();
        let errs = doc.validate();
        assert!(errs.is_empty(), "trace invariants violated: {errs:?}");
        assert!(doc.spans.iter().any(|s| s.name == "exec.overlap"));
        assert_eq!(doc.counter("pipeline.overlap.stages"), stats.overlap.stages as u64);
        assert_eq!(doc.counter("cache.misses"), stats.overlap.cache_misses);
        assert_eq!(doc.block_events.len(), stats.accel.jobs);
        // Warm run: hits appear in the counters and the traffic ledger.
        let (_, stats2, doc2) =
            ex.spmv_traced(&sys, &x, RunCtx::default(), "stencil-overlap").unwrap();
        assert!(doc2.validate().is_empty(), "{:?}", doc2.validate());
        assert!(stats2.overlap.cache_hits > 0);
        assert_eq!(doc2.counter("cache.hits"), stats2.overlap.cache_hits);
        assert_eq!(doc2.counter("mem.read.decoded_cache"), stats2.overlap.cache_hit_bytes);
        assert_eq!(doc2.block_events.len(), 0, "cache hits are not decode jobs");
    }

    #[test]
    fn solvers_run_through_the_cached_executor() {
        // SPD 1D Laplacian, same as the solver unit tests.
        let n = 200usize;
        let mut coo = Coo::new(n, n).unwrap();
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i > 0 {
                coo.push(i, i - 1, -1.0).unwrap();
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
            }
        }
        let a = coo.to_csr();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let b = vec![1.0; n];
        let ex = OverlapExecutor::new(
            &r,
            OverlapConfig { cache_blocks: 1024, ..OverlapConfig::default() },
        );
        let (result, per_apply) = ex.conjugate_gradient(&sys, &b, 1e-10, 1000).unwrap();
        assert!(result.converged, "residual {}", result.residual);
        let reference =
            recode_sparse::solve::conjugate_gradient(&a, &b, SpmvKernel::Serial, 1e-10, 1000);
        assert_eq!(result.x, reference.x, "every apply is bit-exact, so is the solve");
        assert!(per_apply.len() >= 2);
        // Applies after the first decode nothing.
        assert_eq!(per_apply[1].overlap.decode_cycles, 0);
        assert!(per_apply[0].overlap.decode_cycles > 0);

        // Power iteration on the 1D Laplacian converges slowly (tight
        // spectral gap); just drive a bounded number of cached applies and
        // check the eigenvalue estimate lands in the spectrum.
        let (pr, eigenvalue, _) = ex.power_iteration(&sys, 1e-6, 300).unwrap();
        assert!(pr.iterations > 0);
        assert!(eigenvalue > 0.0 && eigenvalue <= 4.0 + 1e-9, "eigenvalue {eigenvalue}");
    }

    #[test]
    fn empty_matrix_runs_cleanly() {
        let empty = Csr::try_from_parts(2, 2, vec![0, 0, 0], vec![], vec![]).unwrap();
        let r = RecodedSpmv::new(&empty, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let ex = OverlapExecutor::new(&r, OverlapConfig::default());
        let (y, stats) = ex.spmv(&sys, &[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![0.0, 0.0]);
        assert_eq!(stats.overlap.stages, 0);
        assert_eq!(stats.accel.makespan_cycles, 0);
    }

    #[test]
    fn cache_capacity_zero_disables_lookups_entirely() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x = vec![1.0; a.ncols()];
        let ex = OverlapExecutor::new(&r, OverlapConfig::default());
        let (_, stats) = ex.spmv(&sys, &x).unwrap();
        assert_eq!(stats.overlap.cache_hits, 0);
        assert_eq!(stats.overlap.cache_misses, 0);
        assert_eq!(ex.cache_stats(), CacheStats::default());
    }

    #[test]
    fn exec_cache_lru_evicts_least_recent() {
        let mut c = ExecCache::new(2);
        let k = |i: usize| (StreamKind::Index, i);
        c.insert(k(0), Arc::new(vec![0u8; 4]));
        c.insert(k(1), Arc::new(vec![1u8; 4]));
        assert!(c.get(k(0)).is_some()); // 0 is now most recent
        c.insert(k(2), Arc::new(vec![2u8; 4])); // evicts 1
        assert!(c.get(k(0)).is_some());
        assert!(c.get(k(1)).is_none());
        assert!(c.get(k(2)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn injected_job_panic_is_contained_and_recovered() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let want = recode_sparse::spmv::spmv(&a, &x);
        let hook = FaultHook::new().panic_job(1);
        let ex = OverlapExecutor::new(&r, OverlapConfig::default());
        let (y, stats) = ex.spmv_faulty(&sys, &x, Some(&hook)).unwrap();
        assert_eq!(y, want, "the panicked block is re-decoded in place");
        // Contained as a per-job failure and recovered by one retry — the
        // same accounting the batch schedule reports for the same hook.
        assert_eq!(stats.accel.jobs_failed, 1);
        assert_eq!(
            (stats.blocks_recovered, stats.blocks_retried, stats.blocks_fell_back),
            (1, 1, 0)
        );
        assert!(stats.degraded);
        let (_, batch) = r.spmv_faulty(&sys, SpmvKernel::Serial, &x, Some(&hook)).unwrap();
        assert_eq!(batch.accel.jobs_failed, 1);
        assert_eq!((batch.blocks_recovered, batch.blocks_retried), (1, 1));
        assert_eq!(batch.retry_cycles, stats.retry_cycles);

        // The hook reading itself: the panic surfaces as a typed lane error,
        // exactly as on the batch path, and the same lane then decodes the job.
        let mut lane = recode_udp::Lane::new();
        let mut dst = vec![0u8; r.extent(1).len()];
        let run = |lane: &mut Lane| r.decode_job_into(lane, 1, &mut dst);
        let first = Accelerator::dispatch::<recode_udp::UdpError, _>(&mut lane, &hook, 1, run);
        let err = first.unwrap_err();
        assert!(err.to_string().contains("injected panic in job 1"), "{err}");
        let run = |lane: &mut Lane| r.decode_job_into(lane, 1, &mut dst);
        let none = FaultHook::default();
        let again = Accelerator::dispatch::<recode_udp::UdpError, _>(&mut lane, &none, 1, run);
        assert!(again.is_ok(), "{again:?}");
    }
}
