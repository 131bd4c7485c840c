//! The parts of one run that do not depend on the schedule: what varies
//! between plain, faulty and traced runs ([`RunCtx`]), the block-recovery
//! ladder every failed first attempt climbs (`Ladder`), the per-run
//! accounting (`BlockTally`) from which the [`ExecStats`] are derived, and
//! the telemetry every schedule reports the same way (`report_run`).
//!
//! A schedule — the 64-lane batch fan-out of [`crate::exec`], or the tile
//! walker of [`crate::overlap`], threaded or inline — makes each block's
//! *first* attempt under the fault hook
//! ([`recode_udp::accel::Accelerator::dispatch`]) and hands the result to
//! `Ladder::settle`. A failed attempt is retried hook-free on a pooled lane
//! up to [`MAX_BLOCK_RETRIES`] times (transient faults clear, integrity
//! failures repeat), then served from the [`crate::exec::RawFallbackStore`],
//! and only when both rungs are exhausted does the run fail, with
//! [`ExecError::Unrecoverable`] naming the block. Each block gets at most
//! `1 + MAX_BLOCK_RETRIES` decodes, each trapping at the lane's cycle
//! limit, so the ladder is finite on its own.

use crate::arch::SystemConfig;
use crate::error::{ExecError, ExecResult};
use crate::exec::{ExecStats, RecodedSpmv};
use crate::overlap::OverlapStats;
use crate::recorder;
use crate::telemetry::{BlockEvent, BlockOutcome, Telemetry, EXEC_COUNTERS};
use recode_mem::traffic::TrafficSource;
use recode_udp::accel::{AccelReport, Accelerator, FaultHook, JobOutcome};
use recode_udp::UdpError;

/// How many times a failed block is re-decoded on a fresh lane before the
/// raw-store fallback kicks in.
pub const MAX_BLOCK_RETRIES: usize = 2;

/// What distinguishes one run of an executor from another. The default is a
/// plain run; every combination is valid, and none changes the result `y`.
#[derive(Debug, Default)]
pub struct RunCtx<'a> {
    /// Fault injection applied to each block's first attempt (retries run
    /// hook-free, modeling transient faults that clear on a second attempt).
    pub hook: Option<&'a FaultHook>,
    /// Telemetry registry: whether a run is traced is this value, not a
    /// second entry point. When `Some`, the run records per-phase spans,
    /// per-block events, dotted counters and memory traffic by source; when
    /// `None`, no clocks are read and no events are collected.
    pub tel: Option<&'a mut Telemetry>,
}

impl<'a> RunCtx<'a> {
    /// This context recording into `tel`, in place of any registry it
    /// carried: what the `spmv_traced` entries, which own theirs, run.
    #[must_use]
    pub fn traced(self, tel: &'a mut Telemetry) -> Self {
        RunCtx { tel: Some(tel), ..self }
    }
}

/// Block accounting of one run. Every block that reached a lane is counted
/// exactly once: `blocks_ok + blocks_recovered + blocks_fell_back` is the
/// number of jobs (cache hits decode nothing and are not jobs).
#[derive(Debug, Default)]
pub(crate) struct BlockTally {
    pub blocks_ok: usize,
    pub blocks_recovered: usize,
    /// Retry attempts (a recovered block may have taken more than one).
    pub blocks_retried: usize,
    pub blocks_fell_back: usize,
    pub fallback_bytes: usize,
    /// Lane cycles of the successful retry decodes.
    pub retry_cycles: u64,
}

impl BlockTally {
    /// Blocks finished so far, by any rung: the job count of a completed
    /// run.
    pub fn completed(&self) -> usize {
        self.blocks_ok + self.blocks_recovered + self.blocks_fell_back
    }

    /// Blocks whose first attempt failed.
    pub fn failed(&self) -> usize {
        self.blocks_recovered + self.blocks_fell_back
    }

    /// The one [`ExecStats`] constructor. `fetched_bytes` is the compressed
    /// traffic the schedule moved (the whole wire image for a batch, the
    /// payloads of the blocks not served from cache for the walker); the
    /// fallback re-fetch is extra traffic over the same channel.
    pub fn stats(
        &self,
        sys: &SystemConfig,
        accel: AccelReport,
        fetched_bytes: usize,
        overlap: OverlapStats,
    ) -> ExecStats {
        ExecStats {
            accel,
            mem_stream_seconds: sys.mem.stream_seconds(fetched_bytes as u64)
                + sys.mem.stream_seconds(self.fallback_bytes as u64),
            dma_seconds: sys.dma.transfer_seconds(self.completed() as u64, fetched_bytes as u64),
            compressed_bytes: fetched_bytes,
            blocks_retried: self.blocks_retried,
            blocks_fell_back: self.blocks_fell_back,
            fallback_bytes: self.fallback_bytes,
            retry_cycles: self.retry_cycles,
            degraded: self.blocks_retried > 0 || self.blocks_fell_back > 0,
            blocks_ok: self.blocks_ok,
            blocks_recovered: self.blocks_recovered,
            overlap,
        }
    }
}

/// The telemetry every schedule reports the same way once its stats exist,
/// after its own phases: the modeled-only memory/DMA spans (no clock is
/// read for them), the `exec.*` counters, the compressed-stream traffic
/// rows, and the settled blocks' events put in job order.
pub(crate) fn report_run(tel: &mut Telemetry, stats: &ExecStats, r: &RecodedSpmv) {
    let fetched = stats.compressed_bytes as u64;
    let fallback = stats.fallback_bytes as u64;
    tel.span("exec.mem_stream", 0, stats.mem_stream_seconds, fetched + fallback);
    tel.span("exec.dma", 0, stats.dma_seconds, fetched);
    tel.derive(EXEC_COUNTERS, |get| get(stats));

    tel.traffic.read(TrafficSource::CompressedStream, fetched);
    tel.traffic.read(TrafficSource::FallbackRefetch, fallback);
    tel.traffic.read(TrafficSource::RowPtr, ((r.compressed().nrows + 1) * 8) as u64);
    tel.sort_block_events();
}

/// Charges the dense vectors of one multiply to `tel`'s traffic ledger (the
/// decoded matrix stays on-chip in the paper's tiled flow, so only `x` and
/// `y` cross the memory interface) and returns the bytes moved.
pub(crate) fn vector_traffic(tel: &mut Telemetry, nrows: usize, ncols: usize) -> u64 {
    let (read, write) = ((ncols * 8) as u64, (nrows * 8) as u64);
    tel.traffic.read(TrafficSource::Vectors, read);
    tel.traffic.write(TrafficSource::Vectors, write);
    read + write
}

/// The block-recovery ladder of one run, with the tally it fills and the
/// telemetry it reports each settled block to.
pub(crate) struct Ladder<'a> {
    recoded: &'a RecodedSpmv,
    /// Job `k` runs on lane `k % lanes` under every schedule.
    udp: &'a Accelerator,
    /// Recorder track of the thread that climbs the ladder.
    track: recorder::Track,
    tel: Option<&'a mut Telemetry>,
    /// The batch's report, which every rung is charged to on the lane that
    /// ran the block's first attempt; `None` on the walker, which charges
    /// a block's rungs to its tile.
    report: Option<&'a mut AccelReport>,
    pub tally: BlockTally,
}

impl<'a> Ladder<'a> {
    /// With `tel` every settled block leaves an event and every rung a
    /// phase; with `report` every rung is charged to it
    /// ([`AccelReport::charge_lane`]).
    pub fn new(
        recoded: &'a RecodedSpmv,
        udp: &'a Accelerator,
        track: recorder::Track,
        tel: Option<&'a mut Telemetry>,
        report: Option<&'a mut AccelReport>,
    ) -> Self {
        Ladder { recoded, udp, track, tel, report, tally: BlockTally::default() }
    }

    /// Takes the first attempt at `job` (batch numbering: index blocks, then
    /// value blocks) from whichever schedule made it *into `dst`* — the
    /// block's [`RecodedSpmv::extent`] — and returns the lane cycles of the
    /// attempt that produced the bytes now in `dst` (0 for a fallback),
    /// climbing the ladder if the attempt failed. A good first attempt has
    /// nothing to move; a failed one left `dst` unspecified, and every rung
    /// fills all of it.
    ///
    /// # Errors
    /// [`ExecError::Unrecoverable`] when retries are exhausted and no raw
    /// store covers the block.
    pub fn settle(
        &mut self,
        job: usize,
        first: Result<JobOutcome, UdpError>,
        dst: &mut [u8],
    ) -> ExecResult<u64> {
        let (cycles, outcome) = match first {
            Ok(o) => {
                self.tally.blocks_ok += 1;
                (o.cycles, BlockOutcome::Ok)
            }
            Err(e) => self.recover(job, e, dst)?,
        };
        if let Some(tel) = self.tel.as_deref_mut() {
            let (stream, block) = self.recoded.locate(job);
            let lane = job % self.udp.lanes;
            tel.block_event(BlockEvent { job, stream, block, lane, cycles, outcome });
        }
        Ok(cycles)
    }

    fn recover(
        &mut self,
        job: usize,
        first_err: UdpError,
        dst: &mut [u8],
    ) -> ExecResult<(u64, BlockOutcome)> {
        let r = self.recoded;
        let mut last_err = first_err;
        let mut retried = None;
        let phase = recorder::phase(self.track, "exec.retry", self.tel.is_some());
        // One pooled lane serves every attempt: a decode fully resets lane
        // state, so attempt N is as "fresh" as a new lane.
        let mut lane = recode_udp::pool::global().checkout();
        for attempt in 1..=MAX_BLOCK_RETRIES {
            recorder::record(
                recorder::EventKind::Retry,
                self.track,
                "exec.retry",
                attempt as u64,
                job as u64,
            );
            self.tally.blocks_retried += 1;
            match r.decode_job_into(&mut lane, job, dst) {
                Ok(o) => {
                    retried = Some(o);
                    break;
                }
                Err(e) => last_err = e,
            }
        }
        drop(lane);
        // The rung's work: the decode that succeeded, if one did, on the
        // lane that ran the first attempt. Its modeled time is what that
        // costs the schedule: the makespan growth of the batch, all of it
        // on the walker's tile.
        let (cycles, bytes) = retried.as_ref().map_or((0, 0), |o| (o.cycles, o.output_bytes));
        let charged = match self.report.as_deref_mut() {
            Some(report) => report.charge_lane(job % self.udp.lanes, retried.as_ref(), 0),
            None => cycles,
        };
        phase.finish(self.tel.as_deref_mut(), charged as f64 / self.udp.freq_hz, bytes);
        if let Some(o) = retried {
            self.tally.blocks_recovered += 1;
            self.tally.retry_cycles += o.cycles;
            return Ok((o.cycles, BlockOutcome::Retried));
        }
        // Retries exhausted: re-fetch the block's uncompressed range.
        let phase = recorder::phase(self.track, "exec.fallback", self.tel.is_some());
        let raw = r.raw_block(job).inspect(|raw| dst.copy_from_slice(raw));
        phase.finish(self.tel.as_deref_mut(), 0.0, raw.map_or(0, |raw| raw.len() as u64));
        let Some(raw) = raw else {
            return Err(ExecError::Unrecoverable {
                block: last_err.block().or(Some(r.locate(job).1)),
                lane: None,
                source: last_err,
            });
        };
        recorder::record(
            recorder::EventKind::Fallback,
            self.track,
            "exec.fallback",
            raw.len() as u64,
            job as u64,
        );
        self.tally.blocks_fell_back += 1;
        self.tally.fallback_bytes += raw.len();
        Ok((0, BlockOutcome::FellBack))
    }
}
