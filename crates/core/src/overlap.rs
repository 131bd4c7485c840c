//! **The tile walker: overlapped decode/multiply execution with
//! decoded-block caching** — the paper's Fig. 7 loop, on two schedules.
//!
//! The loop fetches a tile, decodes its index block and the value blocks it
//! needs, and multiplies. Run inline ([`RecodedSpmv::spmv_streaming_with`])
//! it decodes a tile, multiplies it, then decodes the next: decode and
//! multiply cycles *add*. On the real machine the UDP lanes and the CPU
//! cores are independent engines, so a double-buffered schedule lets the
//! lanes decode tile *i + 1* while the CPU multiplies tile *i*; per stage
//! the modeled cost is `max(decode, multiply)` instead of their sum:
//!
//! ```text
//! lane:  [d0][d1   ][d2][d3   ]
//! cpu:       [m0][m1   ][m2][m3]
//! makespan = d0 + Σ max(d_i, m_{i-1}) + m_last
//! ```
//!
//! [`OverlapExecutor`] realizes both halves of that claim:
//!
//! * **modeled** — the per-tile decode cycles (from the lane simulator,
//!   stalls and retries included) and modeled CPU multiply cycles
//!   ([`perfmodel::multiply_cycles`]) are combined by the
//!   pipelined-schedule formula above, whose only copy is
//!   [`perfmodel::makespan`]; both the overlapped and the serial (sum)
//!   makespan are reported in [`OverlapStats`];
//! * **wall-clock** — a producer thread decodes blocks in stream order and
//!   feeds tiles through a bounded channel to a pool of CPU worker threads
//!   ([`OverlapConfig::workers`], default the host's parallelism capped at
//!   8), whose partial row sums are merged back in tile order so the result
//!   is deterministic for a given tiling.
//!
//! An [`ExecCache`] (seeded-capacity LRU over decoded blocks) sits in front
//! of the lanes: iterative callers — [`OverlapExecutor::spmv_iter`],
//! [`OverlapExecutor::conjugate_gradient`],
//! [`OverlapExecutor::power_iteration`] — pay decode cost once and hit the
//! cache on every later iteration, with hits/misses/evictions folded into
//! [`ExecStats`] and the telemetry trace.
//!
//! Each block's first attempt reads the fault hook through
//! [`Accelerator::dispatch`] and is settled by the recovery ladder of
//! [`crate::ladder`] *inside* its slot of the walk, so a retried or fallback
//! block can never land in the wrong output position.

use crate::arch::SystemConfig;
use crate::error::{ExecError, ExecResult};
use crate::exec::{ExecStats, RecodedSpmv};
use crate::ladder::{report_run, vector_traffic, Ladder, RunCtx};
use crate::perfmodel;
use crate::recorder;
use crate::telemetry::{StreamKind, Telemetry, TraceDocument, TILED_COUNTERS};
use recode_mem::traffic::TrafficSource;
use recode_sparse::solve::{self, SolveResult};
use recode_udp::accel::{panic_payload_message, AccelReport, Accelerator, FaultHook};
use recode_udp::Lane;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
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
    /// Model the pipelined schedule (`max(decode, multiply)` per stage).
    /// When false the same tiled execution runs but stage costs add, as in
    /// [`RecodedSpmv::spmv_streaming`].
    pub overlap: bool,
    /// Decoded-block LRU capacity in blocks; 0 disables caching.
    pub cache_blocks: usize,
    /// CPU multiply workers; 0 means `available_parallelism` (capped at 8).
    pub workers: usize,
}

impl Default for OverlapConfig {
    fn default() -> Self {
        OverlapConfig { overlap: true, cache_blocks: 0, workers: 0 }
    }
}

impl OverlapConfig {
    /// Resolves `workers == 0` to the host's parallelism, capped at 8.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get).min(8)
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
    /// CPU multiply workers used.
    pub workers: usize,
    /// Lane cycles spent decoding (stalls and successful retries included;
    /// cache hits cost zero).
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

/// One tile of work handed from the decode side to the multiply side.
struct TileWork {
    tile: usize,
    k_start: usize,
    idx: Arc<Vec<u8>>,
    vals: Vec<u8>,
}

/// A worker's partial row sums for one tile.
struct TileResult {
    tile: usize,
    row_start: usize,
    partial: Vec<f64>,
}

/// What the tile walker learns about a run besides the ladder's tally.
#[derive(Default)]
struct TileWalk {
    /// Lane cycles each tile charged to the decode side: first attempts,
    /// successful retries and injected stalls; cache hits cost zero.
    per_tile_decode: Vec<u64>,
    per_tile_nnz: Vec<usize>,
    stall_cycles: u64,
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
    /// hook means the same faults on either executor; the producer consults
    /// `ctx.budget` at every retry boundary (the pipeline's preemption
    /// points); backoff accumulates into [`ExecStats::backoff_cycles`] as a
    /// reported quantity while the modeled pipelined makespan keeps its
    /// `max(decode, multiply)` definition. With `ctx.tel` the run records
    /// the phase `exec.overlap` (the walker's own `decode`, `exec.retry` and
    /// `exec.fallback` spans run underneath it on the stage-0 track and stay
    /// in the flight recorder), the modeled `exec.mem_stream` and
    /// `exec.dma`, the `exec.*`, `pipeline.overlap.*` and `cache.*`
    /// counters, per-block events, and traffic by source.
    ///
    /// # Errors
    /// [`ExecError::Unrecoverable`] for a block that fails decode, exhausts
    /// retries, and has no fallback coverage;
    /// [`ExecError::DeadlineExceeded`] when the budget runs out;
    /// [`ExecError::WorkerPanic`] for a contained pipeline panic;
    /// [`ExecError::Reassembly`] on stream misalignment.
    ///
    /// # Panics
    /// If `x.len() != ncols`.
    pub fn spmv_with(
        &self,
        sys: &SystemConfig,
        x: &[f64],
        ctx: RunCtx<'_>,
    ) -> ExecResult<(Vec<f64>, ExecStats)> {
        self.run(sys, x, ctx, true).map(|(y, stats, _)| (y, stats))
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
    /// allocation-regression suite can measure warm-cache hits without
    /// spinning up the worker threads a pipelined run needs.
    #[doc(hidden)]
    pub fn decode_one_for_test(&self, stream: StreamKind, pos: usize) -> ExecResult<usize> {
        let job = match stream {
            StreamKind::Index => pos,
            StreamKind::Value => self.recoded.compressed().index_stream.blocks.len() + pos,
        };
        let udp = Accelerator::default();
        let mut ladder = Ladder::new(self.recoded, &udp, None, recorder::Track::stage(0), None);
        let mut walk = TileWalk::default();
        self.decode_one(job, &FaultHook::default(), &mut ladder, &mut walk).map(|d| d.0.len())
    }

    /// One block of the walk: the cache first; on a miss the first attempt
    /// under `hook` on a pooled lane, settled by `ladder`. Returns the bytes
    /// and the lane cycles the block charged to the decode side.
    fn decode_one(
        &self,
        job: usize,
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
            // Decode work happens on the producer (stage 0) track; cache
            // hits never open this span. Off the main track, so ring only.
            let _decode = recorder::phase(recorder::Track::stage(0), "decode", false);
            // The block's own buffer at its extent: first attempt and every
            // rung of the ladder fill it in place, then it moves into the
            // `Arc` the tile (and the cache) hold.
            let mut bytes = vec![0u8; self.recoded.extent(job).len()];
            let (stall, first) = {
                let mut lane = recode_udp::pool::global().checkout();
                let run = |lane: &mut Lane| self.recoded.decode_job_into(lane, job, &mut bytes);
                Accelerator::dispatch(&mut lane, hook, job, run)
            };
            let cycles = ladder.settle(job, first, &mut bytes)?;
            walk.fetched_bytes += self.recoded.job_block(job).1.payload.len();
            walk.stall_cycles += stall;
            let bytes = Arc::new(bytes);
            if cached {
                self.cache.lock().expect("cache poisoned").insert(key, Arc::clone(&bytes));
            }
            (bytes, cycles + stall)
        };
        walk.decoded_bytes += bytes.len() as u64;
        Ok((bytes, cost))
    }

    /// The one tile walker (the paper's Fig. 7 loop): walks index blocks in
    /// order, pulling value blocks as each tile needs them, and hands
    /// assembled tiles to `emit` — a channel send on the producer thread of
    /// the pipelined schedule, an immediate multiply on the streaming one.
    /// `emit` returns `false` when the consumers are gone (every worker
    /// exited); the walk then stops decoding immediately instead of filling
    /// a channel nobody drains.
    fn produce_tiles<'a>(
        &'a self,
        udp: &'a Accelerator,
        ctx: RunCtx<'a>,
        mut emit: impl FnMut(TileWork) -> bool,
    ) -> ExecResult<(TileWalk, Ladder<'a>)> {
        let cm = self.recoded.compressed();
        let n_index = cm.index_stream.blocks.len();
        let RunCtx { hook, budget, tel } = ctx;
        let empty_hook = FaultHook::default();
        let hook = hook.unwrap_or(&empty_hook);
        let mut ladder = Ladder::new(self.recoded, udp, budget, recorder::Track::stage(0), tel);
        let mut walk = TileWalk::default();
        let mut val_buf: Vec<u8> = Vec::new();
        let mut next_value = n_index;
        let mut k_global = 0usize;

        for t in 0..n_index {
            let (idx, mut tile_cycles) = self.decode_one(t, hook, &mut ladder, &mut walk)?;
            let tile_nnz = idx.len() / 4;
            while val_buf.len() < tile_nnz * 8 {
                if next_value >= self.recoded.total_jobs() {
                    return Err(ExecError::Reassembly("value stream ended early".into()));
                }
                let (vals, cycles) = self.decode_one(next_value, hook, &mut ladder, &mut walk)?;
                next_value += 1;
                tile_cycles += cycles;
                val_buf.extend_from_slice(&vals);
            }
            walk.peak_resident_bytes = walk.peak_resident_bytes.max(idx.len() + val_buf.len());
            let vals: Vec<u8> = val_buf.drain(..tile_nnz * 8).collect();
            walk.per_tile_decode.push(tile_cycles);
            walk.per_tile_nnz.push(tile_nnz);
            if !emit(TileWork { tile: t, k_start: k_global, idx, vals }) {
                // Every consumer is gone; `run_threaded` substitutes the
                // real panic message when one was captured.
                return Err(ExecError::WorkerPanic {
                    context: "tile channel closed: every multiply worker exited".into(),
                });
            }
            k_global += tile_nnz;
        }
        if k_global != cm.nnz {
            return Err(ExecError::Reassembly(format!(
                "streamed {} non-zeros but the matrix has {}",
                k_global, cm.nnz
            )));
        }
        Ok((walk, ladder))
    }

    /// The pipelined schedule: the walker (producer) and `workers` multiply
    /// threads run concurrently over a bounded channel; partial row sums
    /// merge into `y` in tile order, so the result is deterministic for a
    /// given tiling.
    ///
    /// ## Panic containment
    ///
    /// A panic anywhere in the pipeline — a multiply worker (including
    /// injected [`FaultHook::panic_tile`] faults) or the producer — is
    /// caught at the thread boundary and converted into
    /// [`ExecError::WorkerPanic`]; it can never strand the bounded tile
    /// channel with a blocked sender. Two pieces make that guarantee: the
    /// producer stops as soon as a send fails, and this function drops its
    /// own handle on the tile receiver so dead workers actually close the
    /// channel.
    fn run_threaded<'a>(
        &'a self,
        workers: usize,
        udp: &'a Accelerator,
        x: &[f64],
        y: &mut [f64],
        ctx: RunCtx<'a>,
    ) -> ExecResult<(TileWalk, Ladder<'a>)> {
        let hook = ctx.hook;
        let row_ptr: &[usize] = &self.recoded.compressed().row_ptr;
        let (tile_tx, tile_rx) = mpsc::sync_channel::<TileWork>(workers + 1);
        let tile_rx = Arc::new(Mutex::new(tile_rx));
        let (res_tx, res_rx) = mpsc::channel::<TileResult>();
        // First contained worker panic, if any; checked after the scope.
        let worker_panic: Mutex<Option<String>> = Mutex::new(None);

        let produced = std::thread::scope(|s| {
            let producer = s.spawn(move || {
                let out = catch_unwind(AssertUnwindSafe(|| {
                    // `send` fails only when every worker is gone; the
                    // producer then stops decoding instead of blocking.
                    self.produce_tiles(udp, ctx, |tile| tile_tx.send(tile).is_ok())
                }));
                drop(tile_tx);
                // The scope waits for this closure, not the thread's TLS
                // destructors: publish recorder events before returning so
                // the caller's drain sees them.
                recorder::flush_thread();
                out
            });
            for w in 0..workers {
                let rx = Arc::clone(&tile_rx);
                let tx = res_tx.clone();
                let worker_panic = &worker_panic;
                s.spawn(move || {
                    loop {
                        let Ok(work) = rx.lock().unwrap_or_else(PoisonError::into_inner).recv()
                        else {
                            break;
                        };
                        let tile = work.tile;
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            assert!(
                                !hook.is_some_and(|h| h.panic_tiles.contains(&tile)),
                                "injected panic in tile {tile}"
                            );
                            let _multiply =
                                recorder::phase(recorder::Track::worker(w), "multiply_tile", false);
                            multiply_tile(row_ptr, x, &work)
                        }));
                        match result {
                            Ok((row_start, partial)) => {
                                if tx.send(TileResult { tile, row_start, partial }).is_err() {
                                    break;
                                }
                            }
                            Err(payload) => {
                                let msg = format!(
                                    "worker {w}, tile {tile}: {}",
                                    panic_payload_message(payload.as_ref())
                                );
                                worker_panic
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner)
                                    .get_or_insert(msg);
                                break;
                            }
                        }
                    }
                    // As with the producer: the scope orders this closure's
                    // end, not the TLS flush, so publish span events now.
                    recorder::flush_thread();
                });
            }
            drop(res_tx);
            // Drop this function's own handle on the tile queue: once every
            // worker has exited, the producer's next send must fail fast
            // rather than block on a receiver nobody holds.
            drop(tile_rx);

            // Merge partials strictly in tile order, buffering out-of-order
            // arrivals, so straddling rows accumulate deterministically.
            let mut pending: BTreeMap<usize, TileResult> = BTreeMap::new();
            let mut next_tile = 0usize;
            for r in &res_rx {
                pending.insert(r.tile, r);
                while let Some(r) = pending.remove(&next_tile) {
                    for (i, v) in r.partial.iter().enumerate() {
                        y[r.row_start + i] += v;
                    }
                    next_tile += 1;
                }
            }
            match producer.join().expect("producer thread join failed") {
                Ok(res) => res,
                Err(payload) => Err(ExecError::WorkerPanic {
                    context: format!("producer: {}", panic_payload_message(payload.as_ref())),
                }),
            }
        });
        // A contained worker panic outranks whatever the producer saw: the
        // merged result is incomplete, and the generic channel-closed error
        // the producer reports is only a symptom.
        if let Some(context) = worker_panic.lock().unwrap_or_else(PoisonError::into_inner).take() {
            return Err(ExecError::WorkerPanic { context });
        }
        produced
    }

    /// The engine behind every tiled entry point: the walker on the
    /// pipelined schedule (`threaded`) or inline — each tile multiplied into
    /// `y` as soon as it is assembled, which is the streaming executor —
    /// then the modeled schedule, the stats and the telemetry, which do not
    /// depend on which of the two ran. Also returns the walk's peak resident
    /// decoded bytes.
    pub(crate) fn run(
        &self,
        sys: &SystemConfig,
        x: &[f64],
        ctx: RunCtx<'_>,
        threaded: bool,
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
        let RunCtx { hook, budget, mut tel } = ctx;
        let cache_before = self.cache.lock().expect("cache poisoned").stats();

        let phase = recorder::phase(recorder::Track::MAIN, "exec.overlap", tel.is_some());
        let mut y = vec![0.0f64; cm.nrows];
        // The walker's context: the same run, its registry lent for the walk.
        let ctx = RunCtx { hook, budget, tel: tel.as_deref_mut() };
        let (workers, (walk, ladder)) = if threaded {
            let workers = self.config.effective_workers().max(1);
            (workers, self.run_threaded(workers, &sys.udp, x, &mut y, ctx)?)
        } else {
            let inline = |tile: TileWork| {
                accumulate_tile(&cm.row_ptr, x, &tile, 0, &mut y);
                true
            };
            (0, self.produce_tiles(&sys.udp, ctx, inline)?)
        };
        let backoff_cycles = ladder.backoff_cycles();
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
            workers,
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
            injected_stall_cycles: walk.stall_cycles,
            output_bytes: walk.decoded_bytes,
            freq_hz: sys.udp.freq_hz,
            ..AccelReport::default()
        };
        report.refresh_utilization();
        let stats = tally.stats(sys, report, walk.fetched_bytes, backoff_cycles, overlap);

        if let Some(tel) = tel {
            report_run(tel, &stats, self.recoded);
            vector_traffic(tel, cm.nrows, cm.ncols);
            tel.derive(TILED_COUNTERS, |get| get(&overlap));
            tel.traffic.read(TrafficSource::DecodedCache, overlap.cache_hit_bytes);
        }
        Ok((y, stats, walk.peak_resident_bytes))
    }
}

/// The one row walk: adds tile `work`'s products `v · x[c]` into
/// `acc[row - base]`, advancing the row as the nnz cursor passes each
/// `row_ptr` boundary (empty rows skip past). Within a row the products are
/// added in storage order, so with `base == 0` and `acc == y` the result is
/// bit-exact with the serial kernel.
fn accumulate_tile(row_ptr: &[usize], x: &[f64], work: &TileWork, base: usize, acc: &mut [f64]) {
    let mut row = row_ptr.partition_point(|&p| p <= work.k_start).saturating_sub(1);
    for (t, (c, v)) in work.idx.chunks_exact(4).zip(work.vals.chunks_exact(8)).enumerate() {
        while row_ptr[row + 1] <= work.k_start + t {
            row += 1;
        }
        let c = u32::from_le_bytes(c.try_into().expect("4-byte index")) as usize;
        let v = f64::from_le_bytes(v.try_into().expect("8-byte value"));
        acc[row - base] += v * x[c];
    }
}

/// Multiplies one tile into a tile-local partial vector rooted at the
/// tile's first row, so tiles can run on any worker.
fn multiply_tile(row_ptr: &[usize], x: &[f64], work: &TileWork) -> (usize, Vec<f64>) {
    let tile_nnz = work.idx.len() / 4;
    if tile_nnz == 0 {
        return (0, Vec::new());
    }
    // The rows whose spans contain the tile's first and last non-zero.
    let row_of = |k: usize| row_ptr.partition_point(|&p| p <= k) - 1;
    let (row_start, row_last) = (row_of(work.k_start), row_of(work.k_start + tile_nnz - 1));
    let mut partial = vec![0.0; row_last - row_start + 1];
    accumulate_tile(row_ptr, x, work, row_start, &mut partial);
    (row_start, partial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::JobBudget;
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

    fn max_rel_err(got: &[f64], want: &[f64]) -> f64 {
        got.iter()
            .zip(want)
            .map(|(g, w)| {
                let scale = w.abs().max(1.0);
                (g - w).abs() / scale
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn overlapped_spmv_matches_reference_within_tolerance() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let want = recode_sparse::spmv::spmv(&a, &x);
        for overlap in [true, false] {
            for cache_blocks in [0usize, 64] {
                let ex =
                    OverlapExecutor::new(&r, OverlapConfig { overlap, cache_blocks, workers: 3 });
                let (y, stats) = ex.spmv(&sys, &x).unwrap();
                assert!(max_rel_err(&y, &want) < 1e-10, "overlap={overlap} cache={cache_blocks}");
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
            OverlapConfig { overlap: true, cache_blocks: 4096, workers: 2 },
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
            OverlapExecutor::new(&r, OverlapConfig { overlap: true, cache_blocks: 2, workers: 1 });
        let (_, s1) = ex.spmv(&sys, &x).unwrap();
        let (_, s2) = ex.spmv(&sys, &x).unwrap();
        assert!(s1.overlap.cache_evictions > 0, "capacity 2 must evict");
        assert!(s2.overlap.cache_misses > 0, "thrashing cache cannot serve everything");
        assert!(ex.cached_blocks() <= 2);
        let want = recode_sparse::spmv::spmv(&a, &x);
        let (y, _) = ex.spmv(&sys, &x).unwrap();
        assert!(max_rel_err(&y, &want) < 1e-10);
    }

    #[test]
    fn faults_inside_the_pipeline_keep_blocks_in_position() {
        let a = test_matrix();
        let mut r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        // Value block 1 is corrupt (falls back); job 0 traps transiently.
        r.compressed_mut().value_stream.blocks[1].payload[0] ^= 0x40;
        let sys = SystemConfig::ddr4();
        let hook = FaultHook::new().trap(0).stall(2, 50_000);
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let want = recode_sparse::spmv::spmv(&a, &x);
        let ex = OverlapExecutor::new(
            &r,
            OverlapConfig { overlap: true, cache_blocks: 128, workers: 4 },
        );
        let (y, stats) = ex.spmv_faulty(&sys, &x, Some(&hook)).unwrap();
        assert!(max_rel_err(&y, &want) < 1e-10, "recovered blocks must land in place");
        assert!(stats.degraded);
        assert!(stats.blocks_retried > 0);
        assert_eq!(stats.blocks_fell_back, 1);
        assert!(stats.fallback_bytes > 0);
        assert_eq!(stats.accel.injected_stall_cycles, 50_000);
        // Second run: the cache holds recovered bytes, so nothing degrades.
        let (y2, s2) = ex.spmv_faulty(&sys, &x, Some(&hook)).unwrap();
        assert!(max_rel_err(&y2, &want) < 1e-10);
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
            OverlapConfig { overlap: true, cache_blocks: 512, workers: 2 },
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
            OverlapConfig { overlap: true, cache_blocks: 1024, workers: 2 },
        );
        let (result, per_apply) = ex.conjugate_gradient(&sys, &b, 1e-10, 1000).unwrap();
        assert!(result.converged, "residual {}", result.residual);
        let reference =
            recode_sparse::solve::conjugate_gradient(&a, &b, SpmvKernel::Serial, 1e-10, 1000);
        assert!(max_rel_err(&result.x, &reference.x) < 1e-6);
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
    fn single_worker_and_many_workers_agree() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i % 17) as f64 * 0.25 - 2.0).collect();
        let one =
            OverlapExecutor::new(&r, OverlapConfig { overlap: true, cache_blocks: 0, workers: 1 });
        let many =
            OverlapExecutor::new(&r, OverlapConfig { overlap: true, cache_blocks: 0, workers: 6 });
        let (y1, _) = one.spmv(&sys, &x).unwrap();
        let (y2, _) = many.spmv(&sys, &x).unwrap();
        assert_eq!(y1, y2, "tile-ordered merge must be worker-count invariant");
    }

    #[test]
    fn injected_worker_panic_is_contained_as_a_typed_error() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x = vec![1.0; a.ncols()];
        let hook = FaultHook::new().panic_tile(0);
        let ex =
            OverlapExecutor::new(&r, OverlapConfig { overlap: true, cache_blocks: 0, workers: 3 });
        let err = ex.spmv_faulty(&sys, &x, Some(&hook)).unwrap_err();
        match &err {
            ExecError::WorkerPanic { context } => {
                assert!(context.contains("tile 0"), "{context}");
                assert!(context.contains("injected panic"), "{context}");
            }
            other => panic!("expected WorkerPanic, got {other}"),
        }
        // The pipeline is not wedged: the same executor runs cleanly after.
        let want = recode_sparse::spmv::spmv(&a, &x);
        let (y, _) = ex.spmv(&sys, &x).unwrap();
        assert!(max_rel_err(&y, &want) < 1e-10);
    }

    #[test]
    fn every_worker_panicking_still_terminates_with_a_typed_error() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x = vec![1.0; a.ncols()];
        // Panic on every tile: all workers die, and the producer must not
        // block forever on the bounded tile channel.
        let mut hook = FaultHook::new();
        let tiles = r.compressed().index_stream.blocks.len();
        for t in 0..tiles.max(8) {
            hook = hook.panic_tile(t);
        }
        let ex =
            OverlapExecutor::new(&r, OverlapConfig { overlap: true, cache_blocks: 0, workers: 2 });
        let err = ex.spmv_faulty(&sys, &x, Some(&hook)).unwrap_err();
        assert!(matches!(err, ExecError::WorkerPanic { .. }), "{err}");
    }

    #[test]
    fn overlap_budget_exhaustion_is_deadline_exceeded() {
        use std::time::Duration;
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x = vec![1.0; a.ncols()];
        let hook = FaultHook::new().trap(0);
        let ex = OverlapExecutor::new(&r, OverlapConfig::default());
        let budget = JobBudget::with_deadline(Duration::ZERO);
        let ctx = RunCtx { hook: Some(&hook), budget: Some(&budget), tel: None };
        let err = ex.spmv_with(&sys, &x, ctx).unwrap_err();
        match &err {
            ExecError::DeadlineExceeded { budget, .. } => assert_eq!(budget, "wall deadline"),
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        // Unbounded budget with the same faults recovers bit-exact.
        let want = recode_sparse::spmv::spmv(&a, &x);
        let unbounded = JobBudget::unbounded();
        let ctx = RunCtx { hook: Some(&hook), budget: Some(&unbounded), tel: None };
        let (y, stats) = ex.spmv_with(&sys, &x, ctx).unwrap();
        assert!(max_rel_err(&y, &want) < 1e-10);
        assert!(stats.degraded);
        assert_eq!(
            stats.blocks_ok + stats.blocks_recovered + stats.blocks_fell_back,
            stats.accel.jobs,
            "overlap accounting identity"
        );
    }

    #[test]
    fn injected_job_panic_is_contained_and_recovered() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let want = recode_sparse::spmv::spmv(&a, &x);
        let hook = FaultHook::new().panic_job(1);
        let ex =
            OverlapExecutor::new(&r, OverlapConfig { overlap: true, cache_blocks: 0, workers: 2 });
        let (y, stats) = ex.spmv_faulty(&sys, &x, Some(&hook)).unwrap();
        assert!(max_rel_err(&y, &want) < 1e-10, "the panicked block is re-decoded in place");
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
        let (_, first) = Accelerator::dispatch::<recode_udp::UdpError, _>(&mut lane, &hook, 1, run);
        let err = first.unwrap_err();
        assert!(err.to_string().contains("injected panic in job 1"), "{err}");
        let run = |lane: &mut Lane| r.decode_job_into(lane, 1, &mut dst);
        let none = FaultHook::default();
        let (_, again) = Accelerator::dispatch::<recode_udp::UdpError, _>(&mut lane, &none, 1, run);
        assert!(again.is_ok(), "{again:?}");
    }

    #[test]
    fn budget_exhaustion_counts_finished_blocks_on_both_schedules() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x = vec![1.0; a.ncols()];
        let n_index = r.compressed().index_stream.blocks.len();
        assert!(n_index >= 2, "need several index blocks");
        // Index block 0 and the first value block trap; the budget admits
        // one retry, so the value block's retry is the one denied.
        let hook = FaultHook::new().trap(0).trap(n_index);
        let budget = JobBudget { max_total_retries: Some(1), ..JobBudget::default() };
        let progress = |err: ExecError| match err {
            ExecError::DeadlineExceeded { budget, completed_blocks, total_blocks } => {
                assert_eq!(budget, "retry budget");
                assert_eq!(total_blocks, r.total_jobs());
                completed_blocks
            }
            other => panic!("expected DeadlineExceeded, got {other}"),
        };
        let ctx = || RunCtx { hook: Some(&hook), budget: Some(&budget), tel: None };
        // Batch: every index block finished (one by retry) before the denied
        // value block is settled.
        let batch = progress(r.decompress_with(&sys, ctx()).unwrap_err());
        assert_eq!(batch, n_index);
        // Tiled: only index block 0 finished before tile 0 asked for its
        // first value block — not `n_index`, the value block's job number.
        let ex = OverlapExecutor::new(&r, OverlapConfig::default());
        let tiled = progress(ex.spmv_with(&sys, &x, ctx()).unwrap_err());
        assert_eq!(tiled, 1);
        let streamed = progress(r.spmv_streaming_with(&sys, &x, ctx()).unwrap_err());
        assert_eq!(streamed, 1);
    }

    #[test]
    fn overlap_backoff_is_reported_but_never_folded_into_the_makespan() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x = vec![1.0; a.ncols()];
        let hook = FaultHook::new().trap(0);
        let ex =
            OverlapExecutor::new(&r, OverlapConfig { overlap: true, cache_blocks: 0, workers: 2 });
        let budget = JobBudget { backoff_cycles_per_retry: 1_000, ..JobBudget::default() };
        let ctx = RunCtx { hook: Some(&hook), budget: Some(&budget), tel: None };
        let (_, stats) = ex.spmv_with(&sys, &x, ctx).unwrap();
        assert_eq!(stats.backoff_cycles, 1_000, "one retry, one backoff charge");
        // The overlap schedule invariant pins makespan to the overlapped
        // schedule, so backoff stays a reported stat here.
        assert_eq!(stats.accel.makespan_cycles, stats.overlap.overlapped_makespan_cycles);
    }
}
