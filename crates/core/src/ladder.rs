//! The parts of one run that do not depend on the schedule: what varies
//! between plain, faulty and traced runs ([`RunCtx`]), the one decode
//! engine with the block-recovery ladder every failed first attempt climbs
//! (`Ladder`), the per-run accounting (`BlockTally`) from which the
//! [`ExecStats`] are derived, and the telemetry every schedule reports the
//! same way (`report_run`).
//!
//! A schedule — the batch of [`crate::exec`], which decodes every block at
//! once, or the tile walker of [`crate::overlap`], which decodes a window
//! of tiles at a time — hands `Ladder::decode` a set of blocks, each with
//! the buffer at its extent. The blocks fan out over the lanes
//! ([`recode_udp::accel::Accelerator::run_jobs_observed`], whose hook
//! injects the faults of each block's *first* attempt), then settle in job
//! order. A failed attempt is retried once, hook-free, on a pooled lane
//! (transient faults clear), then served from the
//! [`crate::exec::RawFallbackStore`], and only when both rungs fail does the
//! run fail, with [`ExecError::Unrecoverable`] naming the block. One retry
//! is all a block gets: it reads no hook and a decode fully resets its
//! lane, so a second retry would repeat the first exactly (an integrity
//! failure repeats on every decode).

use crate::arch::SystemConfig;
use crate::error::{ExecError, ExecResult};
use crate::exec::{ExecStats, RecodedSpmv};
use crate::overlap::OverlapStats;
use crate::recorder;
use crate::telemetry::{BlockEvent, BlockOutcome, Telemetry, EXEC_COUNTERS};
use recode_mem::traffic::TrafficSource;
use recode_udp::accel::{AccelReport, Accelerator, FaultHook, JobEvent, JobEventSink, JobOutcome};
use recode_udp::UdpError;

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

    /// Blocks whose first attempt failed: each was retried once.
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
            blocks_retried: self.failed(),
            blocks_fell_back: self.blocks_fell_back,
            fallback_bytes: self.fallback_bytes,
            retry_cycles: self.retry_cycles,
            degraded: self.failed() > 0,
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

/// One job of a schedule: the buffer at its block's extent, and the column
/// rule's verdict on an index block, taken on its lane while the block is
/// still in that lane's cache.
pub(crate) struct Extent<'a> {
    pub bytes: &'a mut [u8],
    /// Set when the job is an index block whose first attempt decoded and
    /// whose entries keep [`RecodedSpmv::columns_kept`]'s rule. What is left
    /// to check of them is the seam: the first entry against the one
    /// before. Unset, the extent is unchecked (a value block, a block the
    /// ladder served, or one that breaks the rule, whose error its caller
    /// finds by checking it whole).
    pub columns_kept: bool,
}

impl<'a> Extent<'a> {
    /// `bytes`, unchecked.
    pub fn new(bytes: &'a mut [u8]) -> Self {
        Extent { bytes, columns_kept: false }
    }
}

/// The decode engine of one run, with the tally its recovery ladder fills
/// and the telemetry it reports each settled block to.
pub(crate) struct Ladder<'a> {
    recoded: &'a RecodedSpmv,
    /// Job `k` runs on lane `k % lanes` under every schedule.
    udp: &'a Accelerator,
    /// Recorder track of the thread that climbs the ladder.
    track: recorder::Track,
    tel: Option<&'a mut Telemetry>,
    pub tally: BlockTally,
}

impl<'a> Ladder<'a> {
    /// With `tel` every settled block leaves an event and every rung a
    /// phase.
    pub fn new(
        recoded: &'a RecodedSpmv,
        udp: &'a Accelerator,
        track: recorder::Track,
        tel: Option<&'a mut Telemetry>,
    ) -> Self {
        Ladder { recoded, udp, track, tel, tally: BlockTally::default() }
    }

    /// Decodes `jobs` — each a job number (batch numbering: index blocks,
    /// then value blocks) and the buffer at its [`RecodedSpmv::extent`] —
    /// into their buffers, and returns their report. The first attempts fan
    /// out over the lanes under `hook` (the `exec.decode_batch` phase on
    /// this ladder's track), and each index block's first attempt checks
    /// its columns on its lane ([`Extent::columns_kept`]); then each job
    /// settles, in the order given, charging every rung to the report on
    /// the lane that ran its first attempt ([`AccelReport::charge_lane`]).
    /// So the report's makespan is the longest lane timeline of these jobs,
    /// retries included. A buffer whose first attempt failed is unspecified
    /// until its job has settled.
    ///
    /// # Errors
    /// [`ExecError::Unrecoverable`] for the first job, in the order given,
    /// whose retry fails with no raw store to cover it.
    pub fn decode(
        &mut self,
        jobs: &mut [(usize, Extent<'_>)],
        hook: &FaultHook,
    ) -> ExecResult<AccelReport> {
        let r = self.recoded;
        // Lane-track block events for the flight recorder; telemetry takes
        // its per-block events from `settle`.
        let sink_fn = |e: &JobEvent| {
            recorder::record(
                recorder::EventKind::BlockOutcome,
                recorder::Track::lane(e.lane),
                "block",
                e.cycles,
                u64::from(!e.ok),
            );
        };
        let sink: Option<JobEventSink<'_>> =
            if recorder::is_enabled() { Some(&sink_fn) } else { None };
        let phase = recorder::phase(self.track, "exec.decode_batch", self.tel.is_some());
        let outcome = self.udp.run_jobs_observed::<_, UdpError, _>(
            jobs,
            |lane, job, dst| {
                let decoded = r.decode_job_into(lane, job, dst.bytes)?;
                dst.columns_kept = r.columns_kept(job, dst.bytes);
                Ok(decoded)
            },
            hook,
            sink,
        );
        let mut report = outcome.report;
        phase.finish(self.tel.as_deref_mut(), report.seconds(), report.output_bytes);
        for ((job, dst), first) in jobs.iter_mut().zip(outcome.results) {
            self.settle(*job, first, dst.bytes, &mut report)?;
        }
        Ok(report)
    }

    /// Takes the first attempt at `job` into `dst` and climbs the ladder if
    /// it failed: a good first attempt has nothing to move; a failed one
    /// left `dst` unspecified, and every rung fills all of it.
    fn settle(
        &mut self,
        job: usize,
        first: Result<JobOutcome, UdpError>,
        dst: &mut [u8],
        report: &mut AccelReport,
    ) -> ExecResult<()> {
        let (decoded, outcome) = match first {
            Ok(o) => {
                self.tally.blocks_ok += 1;
                (Some(o), BlockOutcome::Ok)
            }
            Err(_) => self.recover(job, dst, report)?,
        };
        if let Some(tel) = self.tel.as_deref_mut() {
            let (stream, block) = self.recoded.locate(job);
            let lane = job % self.udp.lanes;
            let cycles = decoded.as_ref().map_or(0, |o| o.cycles);
            tel.block_event(BlockEvent { job, stream, block, lane, cycles, outcome });
        }
        Ok(())
    }

    fn recover(
        &mut self,
        job: usize,
        dst: &mut [u8],
        report: &mut AccelReport,
    ) -> ExecResult<(Option<JobOutcome>, BlockOutcome)> {
        let r = self.recoded;
        let phase = recorder::phase(self.track, "exec.retry", self.tel.is_some());
        recorder::record(recorder::EventKind::Retry, self.track, "exec.retry", 1, job as u64);
        let retried = r.decode_job_into(&mut recode_udp::pool::global().checkout(), job, dst);
        // The rung's work, if the retry succeeded, on the lane that ran the
        // first attempt. Its modeled time is what that costs the schedule:
        // the makespan growth of these jobs.
        let (charged, bytes) = match &retried {
            Ok(o) => (report.charge_lane(job % self.udp.lanes, o), o.output_bytes),
            Err(_) => (0, 0),
        };
        phase.finish(self.tel.as_deref_mut(), charged as f64 / self.udp.freq_hz, bytes);
        let err = match retried {
            Ok(o) => {
                self.tally.blocks_recovered += 1;
                self.tally.retry_cycles += o.cycles;
                return Ok((Some(o), BlockOutcome::Retried));
            }
            Err(e) => e,
        };
        // The retry failed too: re-fetch the block's uncompressed range.
        let phase = recorder::phase(self.track, "exec.fallback", self.tel.is_some());
        let raw = r.raw_block(job).inspect(|raw| dst.copy_from_slice(raw));
        phase.finish(self.tel.as_deref_mut(), 0.0, raw.map_or(0, |raw| raw.len() as u64));
        let Some(raw) = raw else {
            return Err(ExecError::Unrecoverable {
                block: err.block().or(Some(r.locate(job).1)),
                lane: Some(job % self.udp.lanes),
                source: err,
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
        // Raw bytes re-fetched for a fallen-back block are output no lane
        // made.
        report.output_bytes += raw.len() as u64;
        Ok((None, BlockOutcome::FellBack))
    }
}
