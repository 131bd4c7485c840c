//! The 64-lane UDP accelerator: MIMD scheduling of independent block jobs
//! across lanes, with makespan, throughput, utilization and energy
//! accounting (paper Fig. 8: parallel lanes exploit the block-oriented
//! pattern of SpMV recoding).
//!
//! The simulated lanes run on every host core: host workers of [`par::map`]
//! claim whole lanes, and each runs its lanes' jobs in order. What a batch
//! reports is charged after the join, in job order, so no modeled number
//! depends on how the lanes split across workers (`par::threads() == 1`,
//! e.g. under `taskset -c 0`, runs them all on the calling thread).
//!
//! A batch never aborts on the first lane trap: every job's outcome is
//! collected so callers can retry or re-fetch just the failed blocks. A
//! [`FaultHook`] lets tests inject transient lane traps and panics into the
//! batch deterministically.

use crate::energy;
use crate::error::UdpError;
use crate::lane::{Lane, LaneError, OpClassCycles};
use crate::machine::Image;
use recode_sparse::par;
use std::collections::BTreeSet;

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

/// One lane's share of a batch — the per-lane busy/trap breakdown
/// surfaced in [`AccelReport::lane_profiles`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaneProfile {
    /// Lane index (job `k` runs on lane `k % lanes`).
    pub lane: usize,
    /// Jobs assigned to this lane.
    pub jobs: usize,
    /// Jobs that trapped or errored on this lane.
    pub jobs_failed: usize,
    /// Cycles spent executing successful jobs: first attempts and, on the
    /// batch schedule, the successful retries of the blocks whose first
    /// attempt this lane ran ([`AccelReport::charge_lane`]).
    pub busy_cycles: u64,
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
    /// The job's number, as submitted.
    pub job: usize,
    /// Lane the job ran on.
    pub lane: usize,
    /// Cycles the job consumed (0 for failed jobs).
    pub cycles: u64,
    /// Whether the job completed successfully.
    pub ok: bool,
}

/// Event sink: called once per job, right after it ran, on the host thread
/// that ran its lane, so one lane's events arrive in job order while the
/// lanes interleave.
pub type JobEventSink<'a> = &'a (dyn Fn(&JobEvent) + Sync);

/// The one definition of MIMD lane utilization: `busy / (makespan * lanes)`.
///
/// Every consumer — the batch fan-out and its recovery ladder (through
/// [`AccelReport::charge_lane`]) and the overlapped executor — must derive
/// utilization through this helper so the paths cannot drift apart. An
/// empty batch (zero makespan) counts as fully utilized.
pub fn lane_utilization(busy_cycles: u64, makespan_cycles: u64, lanes: usize) -> f64 {
    if makespan_cycles == 0 {
        1.0
    } else {
        busy_cycles as f64 / (makespan_cycles as f64 * lanes as f64)
    }
}

/// Result of a batch: aggregate report plus every job's individual outcome
/// in the order the jobs were submitted. Failed jobs are `Err` entries — the
/// batch itself always completes so callers can recover per job.
#[derive(Debug)]
pub struct BatchOutcome<E> {
    /// Aggregate cycle/throughput accounting (failed jobs contribute no
    /// cycles and no output bytes).
    pub report: AccelReport,
    /// Per-job outcome, indexed by the job's slot in the submitted slice
    /// (not by its job number, which the hook, the lane and [`JobEvent`]
    /// read).
    pub results: Vec<Result<JobOutcome, E>>,
}

/// Deterministic fault injection for a batch: jobs listed in `trap_jobs`
/// trap (as [`LaneError::InjectedFault`]) instead of running, and jobs in
/// `panic_jobs` *panic* inside the lane worker — exercising the dispatch
/// layer's `catch_unwind` boundary.
#[derive(Debug, Clone, Default)]
pub struct FaultHook {
    /// Jobs that trap instead of executing.
    pub trap_jobs: BTreeSet<usize>,
    /// Jobs whose lane worker panics instead of executing; contained by the
    /// fan-out and surfaced as [`LaneError::Panicked`].
    pub panic_jobs: BTreeSet<usize>,
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

    /// Marks `job` to panic inside its lane worker.
    pub fn panic_job(mut self, job: usize) -> Self {
        self.panic_jobs.insert(job);
        self
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
#[derive(Debug, Clone, PartialEq)]
pub struct AccelReport {
    /// Jobs executed.
    pub jobs: usize,
    /// Jobs that failed (trapped or returned an error).
    pub jobs_failed: usize,
    /// Lanes configured.
    pub lanes: usize,
    /// Longest per-lane busy timeline — the wall-clock cycles for the batch.
    pub makespan_cycles: u64,
    /// Sum of cycles across all lanes (busy cycles).
    pub busy_cycles: u64,
    /// Total bytes produced (successful jobs only).
    pub output_bytes: u64,
    /// `busy / (makespan * lanes)` — MIMD load balance.
    pub lane_utilization: f64,
    /// Clock frequency used for time/throughput conversions.
    pub freq_hz: f64,
    /// Per-lane busy/trap breakdown (one entry per configured lane).
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
    /// via [`lane_utilization`]. [`AccelReport::charge_lane`] calls it on
    /// every charge; a schedule that sets its own makespan (the tile walker)
    /// calls it instead of open-coding the formula.
    pub fn refresh_utilization(&mut self) {
        self.lane_utilization =
            lane_utilization(self.busy_cycles, self.makespan_cycles, self.lanes);
    }

    /// The one rule by which a batch charges lane time: a successful decode
    /// `work` goes into lane `lane`'s profile and the batch totals, and the
    /// makespan stretches to that lane's busy timeline. A failed attempt
    /// costs nothing, so it is never charged. The fan-out charges each
    /// successful first attempt; the recovery ladder charges each successful
    /// retry to the lane that ran the block's first attempt. Utilization is
    /// recomputed. Returns how many cycles the makespan grew: 0 when the
    /// charge fit in the lane's slack.
    pub fn charge_lane(&mut self, lane: usize, work: &JobOutcome) -> u64 {
        let profile = &mut self.lane_profiles[lane];
        profile.busy_cycles += work.cycles;
        profile.output_bytes += work.output_bytes;
        profile.opclass.merge(&work.opclass);
        self.busy_cycles += work.cycles;
        self.output_bytes += work.output_bytes;
        self.opclass.merge(&work.opclass);
        self.stage_cycles.merge(&work.stage_cycles);
        let before = self.makespan_cycles;
        self.makespan_cycles = before.max(profile.busy_cycles);
        self.refresh_utilization();
        self.makespan_cycles - before
    }

    /// Adds `other`, a later batch on the same lanes, into this report:
    /// jobs, cycles, bytes and attributions, lane by lane. The makespan is
    /// left alone — how batches that follow one another add up is the
    /// schedule's to say.
    pub fn absorb(&mut self, other: &AccelReport) {
        self.jobs += other.jobs;
        self.jobs_failed += other.jobs_failed;
        self.busy_cycles += other.busy_cycles;
        self.output_bytes += other.output_bytes;
        self.opclass.merge(&other.opclass);
        self.stage_cycles.merge(&other.stage_cycles);
        for (mine, theirs) in self.lane_profiles.iter_mut().zip(&other.lane_profiles) {
            mine.jobs += theirs.jobs;
            mine.jobs_failed += theirs.jobs_failed;
            mine.busy_cycles += theirs.busy_cycles;
            mine.output_bytes += theirs.output_bytes;
            mine.opclass.merge(&theirs.opclass);
        }
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

    /// An empty report over this accelerator's lanes: every batch starts
    /// from it, and a schedule that runs several batches sums them into one
    /// ([`AccelReport::absorb`]).
    pub fn report(&self) -> AccelReport {
        AccelReport {
            lanes: self.lanes,
            freq_hz: self.freq_hz,
            lane_profiles: (0..self.lanes)
                .map(|lane| LaneProfile { lane, ..Default::default() })
                .collect(),
            ..AccelReport::default()
        }
    }

    /// Runs `jobs`, numbered `0..n`, across the lanes and collects every
    /// job's outcome in job order: the shared-job form of
    /// [`Accelerator::run_jobs_observed`], for jobs that own their output.
    /// A failed job does not abort the batch — its `Err` is recorded and the
    /// lane moves on to its next job.
    ///
    /// `run` is invoked once per job with a reusable [`Lane`]; it should
    /// execute however many program stages the job needs and return the
    /// total cycles and the bytes produced.
    ///
    /// Deterministic fault injection rides along: jobs in `hook.trap_jobs`
    /// trap as [`LaneError::InjectedFault`] without executing
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
        let mut jobs: Vec<(usize, &J)> = jobs.iter().enumerate().collect();
        self.run_jobs_observed(&mut jobs, |lane, _, job| run(lane, job), hook, None)
    }

    /// The one reading of a [`FaultHook`] for one job: either traps job `g`
    /// without running it ([`LaneError::InjectedFault`]) or runs `run` on
    /// `lane` inside a `catch_unwind` boundary, so a panicking job (injected
    /// through `hook.panic_jobs` or organic) becomes a typed
    /// [`LaneError::Panicked`] instead of unwinding through the caller.
    fn dispatch<E, R>(lane: &mut Lane, hook: &FaultHook, g: usize, run: R) -> Result<JobOutcome, E>
    where
        E: From<LaneError>,
        R: FnOnce(&mut Lane) -> Result<JobOutcome, E>,
    {
        if hook.trap_jobs.contains(&g) {
            return Err(E::from(LaneError::InjectedFault));
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assert!(!hook.panic_jobs.contains(&g), "injected panic in job {g}");
            run(lane)
        }));
        caught.unwrap_or_else(|payload| {
            Err(E::from(LaneError::Panicked { message: panic_payload_message(payload.as_ref()) }))
        })
    }

    /// The fan-out itself. Each job carries its number `g`: the hook reads
    /// it, and the job runs on lane `g % lanes`, the paper's
    /// block-round-robin assignment, wherever it sits in `jobs` — so a
    /// schedule that submits a few jobs at a time places and faults each
    /// one as a batch of all of them would. Each job is handed to `run`
    /// *mutably*, so a job can be the `&mut [u8]` its bytes belong in
    /// (`(number, destination)` is what the executors submit) and nothing
    /// has to be collected and moved afterwards. `sink`, when given, is
    /// invoked once per job with the job's lane, cycles and success flag;
    /// the fault-injection suite uses this to assert on the events the
    /// batch actually emitted. A panic that escapes the hook's
    /// `catch_unwind` (one in `sink`, say) resumes on the caller once every
    /// host worker has stopped.
    pub fn run_jobs_observed<J, E, F>(
        &self,
        jobs: &mut [(usize, J)],
        run: F,
        hook: &FaultHook,
        sink: Option<JobEventSink<'_>>,
    ) -> BatchOutcome<E>
    where
        J: Send,
        E: From<LaneError> + Send,
        F: Fn(&mut Lane, usize, &mut J) -> Result<JobOutcome, E> + Sync,
    {
        assert!(self.lanes > 0, "need at least one lane");
        let lanes = self.lanes;
        let mut results: Vec<Option<Result<JobOutcome, E>>> =
            (0..jobs.len()).map(|_| None).collect();
        // Each job travels with its result slot, grouped by lane and in job
        // order within a lane; host workers claim whole lanes, so a simulated
        // lane runs its jobs in order on one pooled `Lane`. One vector, and a
        // pooled lane parked for every worker beforehand: the fan-out
        // allocates a fixed number of times per batch, whatever the split.
        let mut work: Vec<_> = jobs.iter_mut().zip(&mut results).collect();
        work.sort_unstable_by_key(|((g, _), _)| (*g % lanes, *g));
        crate::pool::global().reserve(par::threads().min(work.len()).min(lanes));
        par::map(work.chunk_by_mut(|a, b| a.0 .0 % lanes == b.0 .0 % lanes), |_, group| {
            let mut lane = crate::pool::global().checkout();
            for ((g, job), slot) in group {
                let g = *g;
                let result = Self::dispatch(&mut lane, hook, g, |lane| run(lane, g, job));
                if let Some(sink) = sink {
                    sink(&JobEvent {
                        job: g,
                        lane: g % lanes,
                        cycles: result.as_ref().map_or(0, |o| o.cycles),
                        ok: result.is_ok(),
                    });
                }
                **slot = Some(result);
            }
        });
        drop(work);
        // Charged after the join, in the order submitted: every sum and the
        // makespan are the same whichever worker ran which lane.
        let mut report = AccelReport { jobs: jobs.len(), ..self.report() };
        let results: Vec<Result<JobOutcome, E>> = results
            .into_iter()
            .zip(jobs.iter())
            .map(|(r, (g, _))| {
                let result = r.expect("the lane groups cover every job exactly once");
                let lane = g % lanes;
                report.lane_profiles[lane].jobs += 1;
                if let Ok(o) = &result {
                    report.charge_lane(lane, o);
                } else {
                    report.lane_profiles[lane].jobs_failed += 1;
                    report.jobs_failed += 1;
                }
                result
            })
            .collect();
        BatchOutcome { report, results }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The slots of `out.results` that hold a failure.
    fn failed_slots<E>(out: &BatchOutcome<E>) -> Vec<usize> {
        out.results.iter().enumerate().filter_map(|(k, r)| r.is_err().then_some(k)).collect()
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
        assert_eq!(failed_slots(&out), vec![2]);
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
        assert_eq!(failed_slots(&out), vec![3]);
        assert!(matches!(out.results[3], Err(LaneError::InjectedFault)));
        assert_eq!(out.report.jobs_failed, 1);
        // 5 successful jobs * 4 bytes.
        assert_eq!(out.report.output_bytes, 20);
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
        let hook = FaultHook::new().trap(1);
        let out = acc.run_jobs_with_faults::<_, LaneError, _>(&jobs, run_fake, &hook);
        let r = &out.report;
        assert_eq!(r.lane_profiles.len(), 4);
        for (i, p) in r.lane_profiles.iter().enumerate() {
            assert_eq!(p.lane, i);
        }
        let busy: u64 = r.lane_profiles.iter().map(|p| p.busy_cycles).sum();
        assert_eq!(busy, r.busy_cycles);
        let longest = r.lane_profiles.iter().map(|p| p.busy_cycles).max();
        assert_eq!(longest, Some(r.makespan_cycles));
        let bytes: u64 = r.lane_profiles.iter().map(|p| p.output_bytes).sum();
        assert_eq!(bytes, r.output_bytes);
        let failed: usize = r.lane_profiles.iter().map(|p| p.jobs_failed).sum();
        assert_eq!(failed, r.jobs_failed);
        let assigned: usize = r.lane_profiles.iter().map(|p| p.jobs).sum();
        assert_eq!(assigned, r.jobs);
        // Job 1 runs on lane 1, so that's where the trap must show up, and
        // it costs that lane nothing: only jobs 5 and 9 are charged there.
        assert_eq!(r.lane_profiles[1].jobs_failed, 1);
        assert_eq!(r.lane_profiles[1].busy_cycles, 60 + 100);
    }

    #[test]
    fn event_sink_sees_every_job_with_lane_and_outcome() {
        use std::sync::Mutex;
        let acc = Accelerator { lanes: 3, freq_hz: 1e9 };
        let mut jobs: Vec<(usize, Fake)> =
            (0..7).map(|k| (k, Fake { cycles: 5, bytes: 1 })).collect();
        let hook = FaultHook::new().trap(4);
        let events: Mutex<Vec<JobEvent>> = Mutex::new(Vec::new());
        let sink = |e: &JobEvent| events.lock().unwrap().push(*e);
        let run = |l: &mut Lane, _, j: &mut Fake| run_fake(l, j);
        let out = acc.run_jobs_observed::<_, LaneError, _>(&mut jobs, run, &hook, Some(&sink));
        let mut events = events.into_inner().unwrap();
        events.sort_by_key(|e| e.job);
        assert_eq!(events.len(), 7);
        for (k, e) in events.iter().enumerate() {
            assert_eq!(e.job, k);
            assert_eq!(e.lane, k % 3);
            assert_eq!(e.ok, k != 4);
            assert_eq!(e.cycles, if k == 4 { 0 } else { 5 });
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
        let ran = std::sync::Mutex::new(Vec::new());
        let hook = FaultHook::new().trap(2);
        let out = acc.run_jobs_observed::<_, LaneError, _>(
            &mut jobs,
            |_lane, k, dst| {
                ran.lock().unwrap().push(k);
                dst.fill(k as u8 + 1);
                Ok(JobOutcome { cycles: 1, output_bytes: dst.len() as u64, ..Default::default() })
            },
            &hook,
            None,
        );
        // Lane l runs jobs l, l + lanes, ... in that order; the lanes may
        // interleave on the host. Job 2 never ran.
        let ran = ran.into_inner().unwrap();
        for lane in 0..3 {
            let mine: Vec<usize> = ran.iter().copied().filter(|k| k % 3 == lane).collect();
            let want: Vec<usize> = (lane..6).step_by(3).filter(|&k| k != 2).collect();
            assert_eq!(mine, want, "lane {lane}");
        }
        assert_eq!(ran.len(), 5);
        assert_eq!(failed_slots(&out), vec![2]);
        assert_eq!(out.report.output_bytes, 23 - 4);
        assert!(out.results.iter().flatten().all(|o| o.output.is_empty()));
        let want: Vec<u8> =
            (0..23).map(|i| if i / 4 == 2 { 0 } else { (i / 4) as u8 + 1 }).collect();
        assert_eq!(buffer.to_vec(), want);
    }

    #[test]
    fn a_job_runs_on_the_lane_and_under_the_faults_of_its_number() {
        // Three jobs of a larger batch, submitted alone: job 6 is trapped on
        // lane 2, and job 9 runs on lane 1 behind job 5, whatever their
        // slots in the slice (slot 2 is not job 2).
        let acc = Accelerator { lanes: 4, freq_hz: 1e9 };
        let mut jobs: Vec<(usize, Fake)> =
            [5, 6, 9].map(|k| (k, Fake { cycles: k as u64, bytes: 1 })).into();
        let hook = FaultHook::new().trap(6).trap(2);
        let run = |l: &mut Lane, _, j: &mut Fake| run_fake(l, j);
        let out = acc.run_jobs_observed::<_, LaneError, _>(&mut jobs, run, &hook, None);
        assert_eq!(failed_slots(&out), vec![1], "results stay in slice order");
        let busy: Vec<u64> = out.report.lane_profiles.iter().map(|p| p.busy_cycles).collect();
        assert_eq!(busy, [0, 14, 0, 0]);
        assert_eq!(out.report.lane_profiles[2].jobs_failed, 1);
        assert_eq!((out.report.jobs, out.report.makespan_cycles), (3, 14));
    }

    #[test]
    fn a_failed_slot_names_its_job_through_the_submitted_numbers() {
        // Jobs 7, 3 and 12 in slots 0, 1 and 2, jobs 3 and 12 trapped: the
        // failures sit in slots 1 and 2, and the events name jobs 3 and 12.
        // Job 1 is trapped too but not submitted; a hook that read the slot
        // would fail slot 1 alone.
        let acc = Accelerator { lanes: 2, freq_hz: 1e9 };
        let mut jobs: Vec<(usize, Fake)> =
            [7, 3, 12].map(|k| (k, Fake { cycles: 1, bytes: 1 })).into();
        let events = std::sync::Mutex::new(Vec::new());
        let sink = |e: &JobEvent| events.lock().unwrap().push((e.job, e.ok));
        let run = |l: &mut Lane, _, j: &mut Fake| run_fake(l, j);
        let hook = FaultHook::new().trap(3).trap(12).trap(1);
        let out = acc.run_jobs_observed::<_, LaneError, _>(&mut jobs, run, &hook, Some(&sink));
        let slots = failed_slots(&out);
        assert_eq!(slots, [1, 2]);
        assert_eq!(slots.iter().map(|&k| jobs[k].0).collect::<Vec<_>>(), [3, 12]);
        let mut events = events.into_inner().unwrap();
        events.sort_unstable();
        assert_eq!(events, [(3, false), (7, true), (12, false)]);
    }

    #[test]
    fn fan_out_report_does_not_depend_on_the_host_split() {
        use crate::progs::DshDecoder;
        use recode_codec::pipeline::{Pipeline, PipelineConfig};
        use std::sync::Mutex;
        // A real DSH operand: noisy banded indices in 1 KiB blocks, about
        // four jobs per lane, one of them trapped and one panicking.
        let mut rng = recode_sparse::util::SplitMix64::new(7);
        let data: Vec<u8> =
            (0..64_000u32).flat_map(|i| (i / 3 + rng.below(16) as u32).to_le_bytes()).collect();
        let config = PipelineConfig { block_bytes: 1024, ..PipelineConfig::dsh_udp() };
        let pipe = Pipeline::train(config, &data).unwrap();
        let stream = pipe.encode_stream(&data).unwrap();
        let decoder = DshDecoder::new(config, pipe.table().map(|t| t.lengths.as_slice())).unwrap();
        let acc = Accelerator::default();
        let hook = FaultHook::new().trap(5).panic_job(70);
        let batch = || {
            let mut out = vec![0u8; data.len()];
            let mut jobs: Vec<_> =
                stream.blocks.iter().zip(out.chunks_mut(config.block_bytes)).enumerate().collect();
            let events = Mutex::new(Vec::new());
            let sink = |e: &JobEvent| events.lock().unwrap().push(*e);
            let outcome = acc.run_jobs_observed::<_, UdpError, _>(
                &mut jobs,
                |lane, _, (block, dst)| decoder.decode_block_into(lane, block, dst),
                &hook,
                Some(&sink),
            );
            let results: Vec<_> = outcome
                .results
                .iter()
                .map(|r| match r {
                    Ok(o) => Ok((o.cycles, o.opclass, o.stage_cycles, o.output_bytes)),
                    Err(e) => Err(e.to_string()),
                })
                .collect();
            let mut events = events.into_inner().unwrap();
            events.sort_by_key(|e| e.job);
            (outcome.report, results, events, out)
        };
        // Directly, the lanes spread over every host worker; from inside a
        // `par::map` worker the nested fan-out runs inline, on one.
        let direct = batch();
        let nested = par::map([(), ()], |_, ()| batch());
        let (report, results, events, out) = &direct;
        assert!(report.jobs > 3 * acc.lanes, "{} jobs", report.jobs);
        assert_eq!(report.jobs_failed, 2);
        assert_eq!(events.len(), report.jobs);
        assert!(events.iter().enumerate().all(|(k, e)| e.job == k && e.lane == k % acc.lanes));
        assert!(results[70].as_ref().is_err_and(|e| e.contains("job 70")));
        for (k, (got, want)) in out.chunks(1024).zip(data.chunks(1024)).enumerate() {
            assert!(k == 5 || k == 70 || got == want, "block {k} decoded wrong");
        }
        for other in &nested {
            assert_eq!(other.0, *report);
            assert_eq!(other.1, *results);
            assert_eq!(other.2, *events);
            assert_eq!(other.3, *out);
        }
    }

    #[test]
    fn dispatch_contains_a_panicking_job() {
        let acc = Accelerator { lanes: 2, freq_hz: 1e9 };
        let jobs: Vec<Fake> = (0..4).map(|_| Fake { cycles: 10, bytes: 4 }).collect();
        let hook = FaultHook::new().panic_job(1);
        let out = acc.run_jobs_with_faults::<_, LaneError, _>(&jobs, run_fake, &hook);
        assert_eq!(failed_slots(&out), vec![1]);
        match &out.results[1] {
            Err(LaneError::Panicked { message }) => assert!(message.contains("job 1"), "{message}"),
            other => panic!("expected a contained panic, got {other:?}"),
        }
        // The dead job costs nothing; its lane moved on.
        assert_eq!(out.report.lane_profiles[1].busy_cycles, 10);
        assert!(out.results[3].is_ok(), "lane 1 ran its next job after the panic");

        // One job, called directly, on one lane: a clean run, a contained
        // panic, an injected trap, then a clean run again.
        let mut lane = Lane::new();
        let run = |l: &mut Lane| run_fake(l, &jobs[0]);
        let mut dispatch =
            |hook: &FaultHook, g| Accelerator::dispatch::<LaneError, _>(&mut lane, hook, g, run);
        assert!(dispatch(&hook, 0).is_ok());
        assert!(matches!(dispatch(&hook, 1), Err(LaneError::Panicked { .. })));
        let trap = FaultHook::new().trap(5);
        assert!(matches!(dispatch(&trap, 5), Err(LaneError::InjectedFault)));
        assert!(dispatch(&trap, 0).is_ok(), "the lane runs the next job after a panic and a trap");
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

    #[test]
    fn a_charge_lands_on_its_lane_and_grows_the_makespan_past_its_slack() {
        let acc = Accelerator { lanes: 2, freq_hz: 1e9 };
        let jobs = [Fake { cycles: 100, bytes: 1 }, Fake { cycles: 40, bytes: 1 }];
        let mut r = acc
            .run_jobs_with_faults::<_, LaneError, _>(&jobs, run_fake, &FaultHook::default())
            .report;
        let retry = JobOutcome { cycles: 50, output_bytes: 2, ..Default::default() };
        // Lane 1 has 60 cycles of slack: a 50-cycle retry fits.
        assert_eq!(r.charge_lane(1, &retry), 0);
        assert_eq!((r.makespan_cycles, r.busy_cycles, r.output_bytes), (100, 190, 4));
        assert_eq!(r.lane_profiles[1].busy_cycles, 90);
        // A second one does not: 90 + 50 > 100.
        assert_eq!(r.charge_lane(1, &retry), 40);
        assert_eq!((r.makespan_cycles, r.busy_cycles), (140, 240));
        assert!((r.lane_utilization - lane_utilization(240, 140, 2)).abs() < 1e-12);
    }
}
