//! The 64-lane UDP accelerator: MIMD scheduling of independent block jobs
//! across lanes, with makespan, throughput, utilization and energy
//! accounting (paper Fig. 8: parallel lanes exploit the block-oriented
//! pattern of SpMV recoding).
//!
//! A batch never aborts on the first lane trap: every job's outcome is
//! collected so callers can retry or re-fetch just the failed blocks. A
//! [`FaultHook`] lets tests inject transient lane traps and DMA stalls into
//! the batch deterministically.

use crate::energy;
use crate::error::UdpError;
use crate::lane::{Lane, LaneError, OpClassCycles};
use crate::machine::Image;
use std::collections::{BTreeMap, BTreeSet};

/// Per-decode-stage cycle attribution for one job (or aggregated over a
/// batch). Stages that a pipeline config disables simply stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCycles {
    /// Canonical-Huffman decode stage.
    pub huffman: u64,
    /// Snappy decode stage.
    pub snappy: u64,
    /// Inverse-delta stage.
    pub delta: u64,
}

impl StageCycles {
    /// Sum across stages.
    pub fn total(&self) -> u64 {
        self.huffman + self.snappy + self.delta
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &StageCycles) {
        self.huffman += other.huffman;
        self.snappy += other.snappy;
        self.delta += other.delta;
    }
}

/// What one job produced on a lane.
#[derive(Debug, Clone, Default)]
pub struct JobOutcome {
    /// Cycles the job consumed on its lane.
    pub cycles: u64,
    /// Cycle attribution by opcode class (zero when the runner does not
    /// track it, e.g. synthetic jobs in tests).
    pub opclass: OpClassCycles,
    /// Cycle attribution by decode stage (zero when not applicable).
    pub stage_cycles: StageCycles,
    /// Bytes the job produced, wherever they went: every accounting site
    /// counts these.
    pub output_bytes: u64,
    /// The bytes themselves, from the owning entry points only
    /// ([`DshDecoder::decode_block`](crate::progs::DshDecoder::decode_block));
    /// empty when the job placed them in its caller's slice.
    pub output: Vec<u8>,
}

/// One lane's share of a batch — the per-lane busy/stall/trap breakdown
/// surfaced in [`AccelReport::lane_profiles`].
#[derive(Debug, Clone, Default)]
pub struct LaneProfile {
    /// Lane index (job `k` runs on lane `k % lanes`).
    pub lane: usize,
    /// Jobs assigned to this lane.
    pub jobs: usize,
    /// Jobs that trapped or errored on this lane.
    pub jobs_failed: usize,
    /// Cycles spent executing successful jobs.
    pub busy_cycles: u64,
    /// Injected DMA-stall cycles charged to this lane.
    pub stall_cycles: u64,
    /// Output bytes produced by this lane.
    pub output_bytes: u64,
    /// Opcode-class attribution of this lane's busy cycles.
    pub opclass: OpClassCycles,
}

/// One per-job record emitted through the event sink of
/// [`Accelerator::run_jobs_observed`] — enough for the fault-injection
/// suite to assert on what actually ran where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobEvent {
    /// Job index in the submitted batch.
    pub job: usize,
    /// Lane the job ran on.
    pub lane: usize,
    /// Cycles the job consumed (0 for failed jobs).
    pub cycles: u64,
    /// Injected stall cycles charged to the lane before this job.
    pub stall_cycles: u64,
    /// Whether the job completed successfully.
    pub ok: bool,
}

/// Event sink: called once per job, from lane worker threads.
pub type JobEventSink<'a> = &'a (dyn Fn(&JobEvent) + Sync);

/// The one definition of MIMD lane utilization: `busy / (makespan * lanes)`.
///
/// Every consumer — the batch scheduler, the retry-folding exec path, and
/// the overlapped executor — must derive utilization through this helper so
/// the paths cannot drift apart. An empty batch (zero makespan) counts as
/// fully utilized.
pub fn lane_utilization(busy_cycles: u64, makespan_cycles: u64, lanes: usize) -> f64 {
    if makespan_cycles == 0 {
        1.0
    } else {
        busy_cycles as f64 / (makespan_cycles as f64 * lanes as f64)
    }
}

/// Result of a batch: aggregate report plus every job's individual outcome
/// in job order. Failed jobs are `Err` entries — the batch itself always
/// completes so callers can recover per job.
#[derive(Debug)]
pub struct BatchOutcome<E> {
    /// Aggregate cycle/throughput accounting (failed jobs contribute their
    /// stall cycles but no output bytes).
    pub report: AccelReport,
    /// Per-job outcome, indexed by job position in the submitted batch.
    pub results: Vec<Result<JobOutcome, E>>,
}

impl<E> BatchOutcome<E> {
    /// Indices of the jobs that failed.
    pub fn failed_jobs(&self) -> Vec<usize> {
        self.results.iter().enumerate().filter_map(|(k, r)| r.is_err().then_some(k)).collect()
    }
}

/// Deterministic fault injection for a batch: jobs listed in `trap_jobs`
/// trap (as [`LaneError::InjectedFault`]) instead of running, jobs in
/// `stall_cycles` are charged extra lane cycles, modeling a DMA engine that
/// delivered their block late, and jobs in `panic_jobs` *panic* inside the
/// lane worker — exercising the dispatch layer's `catch_unwind` boundary.
#[derive(Debug, Clone, Default)]
pub struct FaultHook {
    /// Jobs that trap instead of executing.
    pub trap_jobs: BTreeSet<usize>,
    /// Extra cycles charged to a job's lane before it runs.
    pub stall_cycles: BTreeMap<usize, u64>,
    /// Jobs whose lane worker panics instead of executing; contained by
    /// [`Accelerator::dispatch`] and surfaced as [`LaneError::Panicked`].
    pub panic_jobs: BTreeSet<usize>,
    /// Tiles whose *multiply* worker panics in the overlap executor
    /// (stage-boundary injection point; ignored by the batch path).
    pub panic_tiles: BTreeSet<usize>,
}

impl FaultHook {
    /// Empty hook (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `job` to trap.
    pub fn trap(mut self, job: usize) -> Self {
        self.trap_jobs.insert(job);
        self
    }

    /// Charges `cycles` of DMA stall to `job`.
    pub fn stall(mut self, job: usize, cycles: u64) -> Self {
        self.stall_cycles.insert(job, cycles);
        self
    }

    /// Marks `job` to panic inside its lane worker.
    pub fn panic_job(mut self, job: usize) -> Self {
        self.panic_jobs.insert(job);
        self
    }

    /// Marks overlap tile `tile` to panic in its multiply worker.
    pub fn panic_tile(mut self, tile: usize) -> Self {
        self.panic_tiles.insert(tile);
        self
    }

    /// True when the hook injects nothing.
    pub fn is_empty(&self) -> bool {
        self.trap_jobs.is_empty()
            && self.stall_cycles.is_empty()
            && self.panic_jobs.is_empty()
            && self.panic_tiles.is_empty()
    }
}

/// Renders a `catch_unwind` payload as a message (string payloads pass
/// through; anything else gets a placeholder).
pub fn panic_payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Accelerator configuration.
#[derive(Debug, Clone, Copy)]
pub struct Accelerator {
    /// Number of parallel lanes (paper: 64).
    pub lanes: usize,
    /// Clock frequency (paper at 14 nm: 1.6 GHz).
    pub freq_hz: f64,
}

impl Default for Accelerator {
    fn default() -> Self {
        Accelerator { lanes: energy::LANES, freq_hz: energy::FREQ_HZ }
    }
}

/// Aggregate result of running a batch of jobs.
#[derive(Debug, Clone)]
pub struct AccelReport {
    /// Jobs executed.
    pub jobs: usize,
    /// Jobs that failed (trapped or returned an error).
    pub jobs_failed: usize,
    /// Lanes configured.
    pub lanes: usize,
    /// Longest per-lane cycle sum — wall-clock cycles for the batch.
    pub makespan_cycles: u64,
    /// Sum of cycles across all lanes (busy cycles).
    pub busy_cycles: u64,
    /// Injected DMA-stall cycles included in the totals above.
    pub injected_stall_cycles: u64,
    /// Total bytes produced (successful jobs only).
    pub output_bytes: u64,
    /// `busy / (makespan * lanes)` — MIMD load balance.
    pub lane_utilization: f64,
    /// Clock frequency used for time/throughput conversions.
    pub freq_hz: f64,
    /// Per-lane busy/stall/trap breakdown (one entry per configured lane).
    pub lane_profiles: Vec<LaneProfile>,
    /// Batch-wide cycle attribution by opcode class (successful jobs).
    pub opclass: OpClassCycles,
    /// Batch-wide cycle attribution by decode stage (successful jobs).
    pub stage_cycles: StageCycles,
}

impl AccelReport {
    /// Wall-clock seconds for the batch.
    pub fn seconds(&self) -> f64 {
        self.makespan_cycles as f64 / self.freq_hz
    }

    /// Decompressed-output throughput in bytes/second.
    pub fn throughput_bps(&self) -> f64 {
        let s = self.seconds();
        if s == 0.0 {
            return 0.0;
        }
        self.output_bytes as f64 / s
    }

    /// Accelerator energy for the batch (busy-time power model, 0.16 W per
    /// 64-lane UDP).
    pub fn energy_joules(&self) -> f64 {
        energy::POWER_W * (self.lanes as f64 / energy::LANES as f64) * self.seconds()
    }

    /// Recomputes `lane_utilization` from the current busy/makespan totals
    /// via [`lane_utilization`]. Callers that fold extra cycles into the
    /// report after the batch (serialized retries, overlap scheduling) must
    /// call this instead of open-coding the formula.
    pub fn refresh_utilization(&mut self) {
        self.lane_utilization =
            lane_utilization(self.busy_cycles, self.makespan_cycles, self.lanes);
    }
}

impl Default for AccelReport {
    /// An empty report for `lanes`-free aggregation contexts: zero work,
    /// full utilization (the empty-batch convention), paper clock.
    fn default() -> Self {
        AccelReport {
            jobs: 0,
            jobs_failed: 0,
            lanes: energy::LANES,
            makespan_cycles: 0,
            busy_cycles: 0,
            injected_stall_cycles: 0,
            output_bytes: 0,
            lane_utilization: 1.0,
            freq_hz: energy::FREQ_HZ,
            lane_profiles: Vec::new(),
            opclass: OpClassCycles::default(),
            stage_cycles: StageCycles::default(),
        }
    }
}

impl Accelerator {
    /// Admission gate: checks each image's static
    /// [`VerifyReport`](crate::verify::VerifyReport) before the batch fans
    /// out to 64 lanes. Hard error on any `Error` finding; `Warn`/`Info`
    /// findings pass (the per-run opt-out lives on
    /// [`RunConfig::allow_unverified`](crate::lane::RunConfig)).
    ///
    /// # Errors
    /// [`UdpError::Verify`] for the first rejected image.
    pub fn admit<'a>(&self, images: impl IntoIterator<Item = &'a Image>) -> Result<(), UdpError> {
        for image in images {
            image.verify_report.gate()?;
        }
        Ok(())
    }

    /// Runs `jobs` across the lanes (round-robin assignment, each lane
    /// processes its jobs in order) and collects every job's outcome in job
    /// order. A failed job does not abort the batch — its `Err` is recorded
    /// and the lane moves on to its next job.
    ///
    /// `run` is invoked once per job with a reusable [`Lane`]; it should
    /// execute however many program stages the job needs and return the
    /// total cycles and the bytes produced. The shared-job form of
    /// [`Accelerator::run_jobs_observed`], for jobs that own their output.
    ///
    /// Deterministic fault injection rides along: jobs in `hook.trap_jobs`
    /// trap as [`LaneError::InjectedFault`] without executing, and
    /// `hook.stall_cycles` charges extra lane cycles
    /// ([`FaultHook::default`] injects nothing).
    pub fn run_jobs_with_faults<J, E, F>(
        &self,
        jobs: &[J],
        run: F,
        hook: &FaultHook,
    ) -> BatchOutcome<E>
    where
        J: Sync,
        E: From<LaneError> + Send,
        F: Fn(&mut Lane, &J) -> Result<JobOutcome, E> + Sync,
    {
        let mut jobs: Vec<&J> = jobs.iter().collect();
        self.run_jobs_observed(&mut jobs, |lane, job| run(lane, job), hook, None)
    }

    /// The one reading of a [`FaultHook`] for one job: looks up the DMA stall
    /// charged to global job `g`, and either traps it without running
    /// ([`LaneError::InjectedFault`]) or runs `run` on `lane` inside a
    /// `catch_unwind` boundary, so a panicking job (injected through
    /// `hook.panic_jobs` or organic) becomes a typed [`LaneError::Panicked`]
    /// instead of unwinding through the caller. Every schedule that
    /// dispatches blocks — the batch fan-out below and the tiled executors in
    /// `recode-core` — goes through here, so the same hook means the same
    /// faults everywhere. Returns the stall and the result.
    pub fn dispatch<E, R>(
        lane: &mut Lane,
        hook: &FaultHook,
        g: usize,
        run: R,
    ) -> (u64, Result<JobOutcome, E>)
    where
        E: From<LaneError>,
        R: FnOnce(&mut Lane) -> Result<JobOutcome, E>,
    {
        let stall = hook.stall_cycles.get(&g).copied().unwrap_or(0);
        if hook.trap_jobs.contains(&g) {
            return (stall, Err(E::from(LaneError::InjectedFault)));
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assert!(!hook.panic_jobs.contains(&g), "injected panic in job {g}");
            run(lane)
        }));
        let result = caught.unwrap_or_else(|payload| {
            Err(E::from(LaneError::Panicked { message: panic_payload_message(payload.as_ref()) }))
        });
        (stall, result)
    }

    /// The fan-out itself. Each job is handed to `run` *mutably*, so a job
    /// can carry the `&mut [u8]` its bytes belong in (`(index, destination)`
    /// is what the batch executor submits) and nothing has to be collected
    /// and moved afterwards. `sink`, when given, is invoked once per job
    /// (from lane worker threads, so it must be `Sync`) with the job's lane,
    /// cycles, injected stalls, and success flag; the fault-injection suite
    /// uses this to assert on the events the batch actually emitted.
    pub fn run_jobs_observed<J, E, F>(
        &self,
        jobs: &mut [J],
        run: F,
        hook: &FaultHook,
        sink: Option<JobEventSink<'_>>,
    ) -> BatchOutcome<E>
    where
        J: Send,
        E: From<LaneError> + Send,
        F: Fn(&mut Lane, &mut J) -> Result<JobOutcome, E> + Sync,
    {
        assert!(self.lanes > 0, "need at least one lane");
        let mut results: Vec<Option<Result<JobOutcome, E>>> =
            (0..jobs.len()).map(|_| None).collect();
        let mut stage_cycles = StageCycles::default();
        let mut lane_profiles = Vec::with_capacity(self.lanes);
        // Job k goes to lane k % lanes, the paper's block-round-robin
        // assignment. The simulated lanes run one after another on the
        // calling thread; the `Sync`/`Send` bounds above are what a host
        // fan-out needs, so threading this loop is not an API change.
        for lane_idx in 0..self.lanes {
            let mut lane = crate::pool::global().checkout();
            let mut profile = LaneProfile { lane: lane_idx, ..Default::default() };
            for (k, job) in jobs.iter_mut().enumerate().skip(lane_idx).step_by(self.lanes) {
                let (stall, result) = Self::dispatch(&mut lane, hook, k, |lane| run(lane, job));
                profile.stall_cycles += stall;
                profile.jobs += 1;
                let mut cycles = 0u64;
                match &result {
                    Ok(o) => {
                        cycles = o.cycles;
                        profile.busy_cycles += o.cycles;
                        profile.output_bytes += o.output_bytes;
                        profile.opclass.merge(&o.opclass);
                        stage_cycles.merge(&o.stage_cycles);
                    }
                    Err(_) => profile.jobs_failed += 1,
                }
                if let Some(sink) = sink {
                    sink(&JobEvent {
                        job: k,
                        lane: lane_idx,
                        cycles,
                        stall_cycles: stall,
                        ok: result.is_ok(),
                    });
                }
                results[k] = Some(result);
            }
            lane_profiles.push(profile);
        }

        let mut makespan = 0u64;
        let mut busy = 0u64;
        let mut out_bytes = 0u64;
        let mut failed = 0usize;
        let mut stall_total = 0u64;
        let mut opclass = OpClassCycles::default();
        for profile in &lane_profiles {
            // A lane's wall-clock share is its successful-job cycles plus
            // any injected stalls (failed jobs cost no modeled cycles).
            let lane_cycles = profile.busy_cycles + profile.stall_cycles;
            stall_total += profile.stall_cycles;
            out_bytes += profile.output_bytes;
            failed += profile.jobs_failed;
            opclass.merge(&profile.opclass);
            makespan = makespan.max(lane_cycles);
            busy += lane_cycles;
        }
        let results: Vec<Result<JobOutcome, E>> = results
            .into_iter()
            .map(|r| r.expect("round-robin covers every job index exactly once"))
            .collect();
        let report = AccelReport {
            jobs: jobs.len(),
            jobs_failed: failed,
            lanes: self.lanes,
            makespan_cycles: makespan,
            busy_cycles: busy,
            injected_stall_cycles: stall_total,
            output_bytes: out_bytes,
            lane_utilization: lane_utilization(busy, makespan, self.lanes),
            freq_hz: self.freq_hz,
            lane_profiles,
            opclass,
            stage_cycles,
        };
        BatchOutcome { report, results }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::RunResult;

    /// Fake job: pretend each job costs `cycles` and places `bytes` bytes.
    struct Fake {
        cycles: u64,
        bytes: usize,
    }

    // The Result is forced by the `run_jobs_with_faults` callback signature.
    #[allow(clippy::unnecessary_wraps)]
    fn run_fake(_lane: &mut Lane, j: &Fake) -> Result<JobOutcome, LaneError> {
        Ok(JobOutcome { cycles: j.cycles, output_bytes: j.bytes as u64, ..Default::default() })
    }

    #[test]
    fn balanced_jobs_keep_lanes_busy() {
        let acc = Accelerator { lanes: 4, freq_hz: 1e9 };
        let jobs: Vec<Fake> = (0..16).map(|_| Fake { cycles: 100, bytes: 10 }).collect();
        let out = acc.run_jobs_with_faults(&jobs, run_fake, &FaultHook::default());
        let r = &out.report;
        assert_eq!(r.makespan_cycles, 400);
        assert_eq!(r.busy_cycles, 1600);
        assert!((r.lane_utilization - 1.0).abs() < 1e-12);
        assert_eq!(r.output_bytes, 160);
        assert_eq!(r.jobs_failed, 0);
        assert_eq!(out.results.len(), 16);
        assert!(out.results.iter().all(Result::is_ok));
        // throughput = 160 B / (400 cycles / 1e9) = 400 MB/s
        assert!((r.throughput_bps() - 4e8).abs() < 1.0);
    }

    #[test]
    fn skewed_jobs_reduce_utilization() {
        let acc = Accelerator { lanes: 4, freq_hz: 1e9 };
        let mut jobs: Vec<Fake> = (0..4).map(|_| Fake { cycles: 10, bytes: 1 }).collect();
        jobs[0].cycles = 1000;
        let out = acc.run_jobs_with_faults(&jobs, run_fake, &FaultHook::default());
        assert_eq!(out.report.makespan_cycles, 1000);
        assert!(out.report.lane_utilization < 0.3);
    }

    #[test]
    fn failing_job_is_isolated_not_fatal() {
        let acc = Accelerator { lanes: 2, freq_hz: 1e9 };
        let jobs = vec![1u8, 2, 3];
        let run = |_lane: &mut Lane, &j: &u8| {
            if j == 3 {
                Err(LaneError::CycleLimit { limit: 1 })
            } else {
                Ok(JobOutcome { cycles: 1, output_bytes: 1, ..Default::default() })
            }
        };
        let out = acc.run_jobs_with_faults(&jobs, run, &FaultHook::default());
        assert_eq!(out.report.jobs_failed, 1);
        assert_eq!(out.failed_jobs(), vec![2]);
        assert!(out.results[0].is_ok());
        assert!(out.results[1].is_ok());
        assert!(matches!(out.results[2], Err(LaneError::CycleLimit { .. })));
        // The healthy jobs' output still arrived.
        assert_eq!(out.report.output_bytes, 2);
    }

    #[test]
    fn injected_trap_hits_exactly_the_marked_job() {
        let acc = Accelerator { lanes: 2, freq_hz: 1e9 };
        let jobs: Vec<Fake> = (0..6).map(|_| Fake { cycles: 10, bytes: 4 }).collect();
        let hook = FaultHook::new().trap(3);
        let out = acc.run_jobs_with_faults(&jobs, run_fake, &hook);
        assert_eq!(out.failed_jobs(), vec![3]);
        assert!(matches!(out.results[3], Err(LaneError::InjectedFault)));
        assert_eq!(out.report.jobs_failed, 1);
        // 5 successful jobs * 4 bytes.
        assert_eq!(out.report.output_bytes, 20);
    }

    #[test]
    fn injected_stall_charges_cycles() {
        let acc = Accelerator { lanes: 2, freq_hz: 1e9 };
        let jobs: Vec<Fake> = (0..4).map(|_| Fake { cycles: 100, bytes: 1 }).collect();
        let hook = FaultHook::new().stall(0, 500);
        let out = acc.run_jobs_with_faults::<_, LaneError, _>(&jobs, run_fake, &hook);
        // Lane 0 runs jobs 0 and 2 (200 cycles) plus the 500-cycle stall.
        assert_eq!(out.report.makespan_cycles, 700);
        assert_eq!(out.report.injected_stall_cycles, 500);
        assert_eq!(out.report.jobs_failed, 0);
    }

    #[test]
    fn empty_batch_is_trivial() {
        let acc = Accelerator::default();
        let out =
            acc.run_jobs_with_faults::<Fake, LaneError, _>(&[], run_fake, &FaultHook::default());
        assert_eq!(out.report.makespan_cycles, 0);
        assert!(out.results.is_empty());
        assert_eq!(out.report.throughput_bps(), 0.0);
    }

    #[test]
    fn default_matches_paper_constants() {
        let acc = Accelerator::default();
        assert_eq!(acc.lanes, 64);
        assert!((acc.freq_hz - 1.6e9).abs() < 1.0);
    }

    #[test]
    fn lane_profiles_cover_every_lane_and_sum_to_batch_totals() {
        let acc = Accelerator { lanes: 4, freq_hz: 1e9 };
        let jobs: Vec<Fake> = (0..10).map(|i| Fake { cycles: 10 * (i + 1), bytes: 3 }).collect();
        let hook = FaultHook::new().trap(1).stall(2, 77);
        let out = acc.run_jobs_with_faults::<_, LaneError, _>(&jobs, run_fake, &hook);
        let r = &out.report;
        assert_eq!(r.lane_profiles.len(), 4);
        for (i, p) in r.lane_profiles.iter().enumerate() {
            assert_eq!(p.lane, i);
        }
        let busy: u64 = r.lane_profiles.iter().map(|p| p.busy_cycles + p.stall_cycles).sum();
        assert_eq!(busy, r.busy_cycles);
        let stalls: u64 = r.lane_profiles.iter().map(|p| p.stall_cycles).sum();
        assert_eq!(stalls, r.injected_stall_cycles);
        let bytes: u64 = r.lane_profiles.iter().map(|p| p.output_bytes).sum();
        assert_eq!(bytes, r.output_bytes);
        let failed: usize = r.lane_profiles.iter().map(|p| p.jobs_failed).sum();
        assert_eq!(failed, r.jobs_failed);
        let assigned: usize = r.lane_profiles.iter().map(|p| p.jobs).sum();
        assert_eq!(assigned, r.jobs);
        // Job 1 runs on lane 1, so that's where the trap must show up.
        assert_eq!(r.lane_profiles[1].jobs_failed, 1);
        assert_eq!(r.lane_profiles[2].stall_cycles, 77);
    }

    #[test]
    fn event_sink_sees_every_job_with_lane_and_outcome() {
        use std::sync::Mutex;
        let acc = Accelerator { lanes: 3, freq_hz: 1e9 };
        let mut jobs: Vec<Fake> = (0..7).map(|_| Fake { cycles: 5, bytes: 1 }).collect();
        let hook = FaultHook::new().trap(4).stall(5, 9);
        let events: Mutex<Vec<JobEvent>> = Mutex::new(Vec::new());
        let sink = |e: &JobEvent| events.lock().unwrap().push(*e);
        let run = |l: &mut Lane, j: &mut Fake| run_fake(l, j);
        let out = acc.run_jobs_observed::<_, LaneError, _>(&mut jobs, run, &hook, Some(&sink));
        let mut events = events.into_inner().unwrap();
        events.sort_by_key(|e| e.job);
        assert_eq!(events.len(), 7);
        for (k, e) in events.iter().enumerate() {
            assert_eq!(e.job, k);
            assert_eq!(e.lane, k % 3);
            assert_eq!(e.ok, k != 4);
            assert_eq!(e.cycles, if k == 4 { 0 } else { 5 });
            assert_eq!(e.stall_cycles, if k == 5 { 9 } else { 0 });
        }
        assert_eq!(out.report.jobs_failed, 1);
    }

    #[test]
    fn a_job_can_be_the_slice_its_bytes_belong_in() {
        // The placing form: jobs are disjoint `&mut` windows of one buffer,
        // each filled by its own job; a trapped job leaves its window alone
        // and only placed bytes are counted.
        let acc = Accelerator { lanes: 3, freq_hz: 1e9 };
        let mut buffer = [0u8; 23];
        let mut jobs: Vec<(usize, &mut [u8])> = buffer.chunks_mut(4).enumerate().collect();
        let order = std::sync::Mutex::new(Vec::new());
        let hook = FaultHook::new().trap(2);
        let out = acc.run_jobs_observed::<_, LaneError, _>(
            &mut jobs,
            |_lane, (k, dst)| {
                order.lock().unwrap().push(*k);
                dst.fill(*k as u8 + 1);
                Ok(JobOutcome { cycles: 1, output_bytes: dst.len() as u64, ..Default::default() })
            },
            &hook,
            None,
        );
        // Lane k takes jobs k, k + lanes, ... in order; job 2 never ran.
        assert_eq!(order.into_inner().unwrap(), vec![0, 3, 1, 4, 5]);
        assert_eq!(out.failed_jobs(), vec![2]);
        assert_eq!(out.report.output_bytes, 23 - 4);
        assert!(out.results.iter().flatten().all(|o| o.output.is_empty()));
        let want: Vec<u8> =
            (0..23).map(|i| if i / 4 == 2 { 0 } else { (i / 4) as u8 + 1 }).collect();
        assert_eq!(buffer.to_vec(), want);
    }

    #[test]
    fn dispatch_contains_a_panicking_job() {
        let acc = Accelerator { lanes: 2, freq_hz: 1e9 };
        let jobs: Vec<Fake> = (0..4).map(|_| Fake { cycles: 10, bytes: 4 }).collect();
        let hook = FaultHook::new().panic_job(1).stall(1, 7);
        let out = acc.run_jobs_with_faults::<_, LaneError, _>(&jobs, run_fake, &hook);
        assert_eq!(out.failed_jobs(), vec![1]);
        match &out.results[1] {
            Err(LaneError::Panicked { message }) => assert!(message.contains("job 1"), "{message}"),
            other => panic!("expected a contained panic, got {other:?}"),
        }
        // The stall is charged even though the job died; its lane moved on.
        assert_eq!(out.report.injected_stall_cycles, 7);
        assert!(out.results[3].is_ok(), "lane 1 ran its next job after the panic");

        // One job, called directly, on one lane: a clean run, a contained
        // panic charged its stall, an injected trap, then a clean run again.
        let mut lane = Lane::new();
        let run = |l: &mut Lane| run_fake(l, &jobs[0]);
        let (stall, r) = Accelerator::dispatch::<LaneError, _>(&mut lane, &hook, 0, run);
        assert!(r.is_ok() && stall == 0);
        let (stall, r) = Accelerator::dispatch::<LaneError, _>(&mut lane, &hook, 1, run);
        assert!(matches!(r, Err(LaneError::Panicked { .. })) && stall == 7);
        let trap = FaultHook::new().trap(5);
        let (_, r) = Accelerator::dispatch::<LaneError, _>(&mut lane, &trap, 5, run);
        assert!(matches!(r, Err(LaneError::InjectedFault)));
        let (_, r) = Accelerator::dispatch::<LaneError, _>(&mut lane, &trap, 0, run);
        assert!(r.is_ok(), "the lane runs the next job after a panic and a trap");
    }

    #[test]
    fn utilization_helper_is_the_single_source_of_truth() {
        assert_eq!(lane_utilization(0, 0, 64), 1.0, "empty batch convention");
        assert!((lane_utilization(400, 100, 4) - 1.0).abs() < 1e-12);
        assert!((lane_utilization(100, 100, 4) - 0.25).abs() < 1e-12);
        let acc = Accelerator { lanes: 4, freq_hz: 1e9 };
        let jobs: Vec<Fake> = (0..9).map(|i| Fake { cycles: 5 * (i + 1), bytes: 1 }).collect();
        let r = acc
            .run_jobs_with_faults::<_, LaneError, _>(&jobs, run_fake, &FaultHook::default())
            .report;
        let want = lane_utilization(r.busy_cycles, r.makespan_cycles, r.lanes);
        assert!((r.lane_utilization - want).abs() < 1e-12);
    }

    // Silence the unused-import lint while documenting intent: RunResult is
    // the lane-level analogue of JobOutcome.
    #[allow(dead_code)]
    fn _type_bridge(r: RunResult) -> JobOutcome {
        JobOutcome {
            cycles: r.cycles,
            opclass: r.opclass,
            stage_cycles: StageCycles::default(),
            output_bytes: r.output.len() as u64,
            output: r.output,
        }
    }
}
