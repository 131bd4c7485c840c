//! Job-level resilience: per-job budgets, typed terminal states, and the
//! circuit breaker that trips a chronically failing matrix onto the
//! software/raw-CSR path.
//!
//! PR 1 hardened the *block* path (CRC framing, bounded retries, raw-CSR
//! fallback); this module bounds the *job*. Every budgeted run ends in one
//! of four [`JobState`]s, retry spending is governed by a [`JobBudget`]
//! instead of a bare attempt count, and a [`CircuitBreaker`] watches the
//! windowed job-failure rate so a matrix that keeps trapping stops burning
//! accelerator time and degrades to the software decoder until a half-open
//! probe proves the lanes healthy again.

use crate::error::ExecError;
use crate::exec::ExecStats;
use recode_sparse::Csr;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Resource budget for one job (one full decode or decode+multiply run).
///
/// All limits default to "unbounded"; the per-block retry cap
/// ([`crate::ladder::MAX_BLOCK_RETRIES`]) still applies underneath.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobBudget {
    /// Wall-clock deadline for the whole job. Checked at retry boundaries
    /// (a job never hangs mid-block; blocks are small).
    pub deadline: Option<Duration>,
    /// Cap on modeled lane cycles spent in retry decodes across the job.
    pub max_retry_cycles: Option<u64>,
    /// Cap on total retry attempts across all blocks of the job.
    pub max_total_retries: Option<usize>,
    /// Backoff per retry attempt — the scheduler waiting before
    /// re-dispatch. On the batch schedule it is waiting on the lane that ran
    /// the block, so it stretches the modeled makespan only past that
    /// lane's slack; it is never busy cycles. Default 0 keeps budgeted and
    /// unbudgeted clean runs cycle-identical.
    pub backoff_cycles_per_retry: u64,
}

impl JobBudget {
    /// A budget with no limits (the default).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A budget with only a wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        JobBudget { deadline: Some(deadline), ..Self::default() }
    }

    /// True when no limit is set (backoff alone does not bound anything).
    pub fn is_unbounded(&self) -> bool {
        self.deadline.is_none()
            && self.max_retry_cycles.is_none()
            && self.max_total_retries.is_none()
    }
}

/// Typed terminal state of a job. Every budgeted run ends in exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Finished on the happy path: no retries, no fallback, no bypass.
    Completed,
    /// Finished bit-exact but off the happy path — retries, raw-CSR block
    /// fallback, or a breaker bypass to the software decoder.
    Degraded,
    /// The [`JobBudget`] ran out before the work completed.
    DeadlineExceeded,
    /// The job failed for a non-budget reason (unrecoverable block with no
    /// fallback store, reassembly failure, worker panic).
    Rejected,
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            JobState::Completed => "completed",
            JobState::Degraded => "degraded",
            JobState::DeadlineExceeded => "deadline-exceeded",
            JobState::Rejected => "rejected",
        };
        f.write_str(s)
    }
}

/// Tracks a running job's consumption against its [`JobBudget`].
///
/// The exec retry ladder calls [`BudgetTracker::admit_retry`] before every
/// retry attempt and [`BudgetTracker::charge_retry_cycles`] after a
/// successful one; when a limit is hit, `admit_retry` names the exhausted
/// budget and the caller surfaces [`ExecError::DeadlineExceeded`].
#[derive(Debug)]
pub struct BudgetTracker {
    budget: JobBudget,
    started: Instant,
    retry_cycles: u64,
    retries: usize,
    backoff_cycles: u64,
}

impl BudgetTracker {
    /// Starts the job's clock.
    pub fn new(budget: JobBudget) -> Self {
        BudgetTracker {
            budget,
            started: Instant::now(),
            retry_cycles: 0,
            retries: 0,
            backoff_cycles: 0,
        }
    }

    /// Admission check before one retry attempt. On `Ok` the attempt is
    /// counted and its backoff charged; on `Err` the name of the exhausted
    /// budget is returned and nothing is charged.
    pub fn admit_retry(&mut self) -> Result<(), &'static str> {
        if let Some(deadline) = self.budget.deadline {
            if self.started.elapsed() >= deadline {
                return Err("wall deadline");
            }
        }
        if let Some(cap) = self.budget.max_total_retries {
            if self.retries >= cap {
                return Err("retry budget");
            }
        }
        if let Some(cap) = self.budget.max_retry_cycles {
            if self.retry_cycles >= cap {
                return Err("cycle budget");
            }
        }
        self.retries += 1;
        self.backoff_cycles += self.budget.backoff_cycles_per_retry;
        Ok(())
    }

    /// Charges modeled lane cycles consumed by a retry decode.
    pub fn charge_retry_cycles(&mut self, cycles: u64) {
        self.retry_cycles += cycles;
    }

    /// Backoff cycles accumulated so far (the batch charges each block's
    /// share to its lane).
    pub fn backoff_cycles(&self) -> u64 {
        self.backoff_cycles
    }

    /// Retry attempts admitted so far.
    pub fn retries(&self) -> usize {
        self.retries
    }
}

/// Circuit-breaker lifecycle state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation: jobs run on the accelerator.
    #[default]
    Closed,
    /// Tripped: jobs bypass to the software/raw-CSR path.
    Open,
    /// Probing: one job is let through to the accelerator; its outcome
    /// closes or re-opens the breaker.
    HalfOpen,
}

impl BreakerState {
    /// The state's numeric code on recorder events and in the
    /// `breaker.state` gauge: 0 closed, 1 open, 2 half-open.
    pub fn code(self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }

    /// The state a [`code`](Self::code) stands for; `None` for any other
    /// number.
    pub fn from_code(code: u64) -> Option<Self> {
        [BreakerState::Closed, BreakerState::Open, BreakerState::HalfOpen]
            .into_iter()
            .find(|s| s.code() == code)
    }
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        };
        f.write_str(s)
    }
}

/// [`CircuitBreaker`] sliding window length, in runs.
pub const BREAKER_WINDOW_RUNS: usize = 8;

/// Windowed job-failure rate (failed jobs / jobs) above which the breaker
/// trips. It sits far above the few-percent failure rates transient-fault
/// tests induce, so only a genuinely sick matrix or lane population trips it.
pub const BREAKER_TRIP_RATE: f64 = 0.5;

/// Jobs the window must hold before the breaker may trip (one tiny faulty
/// run must not trip it).
pub const BREAKER_MIN_JOBS: usize = 32;

/// Bypassed runs while `Open` before a half-open probe is attempted.
pub const BREAKER_COOLDOWN_RUNS: usize = 2;

/// Sliding-window circuit breaker guarding the accelerator path of one
/// matrix. Drive it with [`CircuitBreaker::admit`] before each run and
/// [`CircuitBreaker::record`] after each accelerator run.
#[derive(Debug, Default)]
pub struct CircuitBreaker {
    state: BreakerState,
    /// Recent accelerator runs: (jobs, jobs_failed).
    window: VecDeque<(usize, usize)>,
    /// Runs bypassed since the breaker opened.
    bypassed: usize,
    /// Times the breaker tripped open (monotonic).
    trips: u64,
    /// Half-open probes attempted (monotonic).
    probes: u64,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current lifecycle state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Half-open probes attempted.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Admission decision for the next run: `true` = run on the
    /// accelerator (closed, or a half-open probe), `false` = bypass to the
    /// software path. While open, every [`BREAKER_COOLDOWN_RUNS`]-th bypass converts
    /// into a half-open probe.
    pub fn admit(&mut self) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                self.bypassed += 1;
                if self.bypassed >= BREAKER_COOLDOWN_RUNS {
                    self.transition(BreakerState::HalfOpen);
                    self.probes += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// State change + flight-recorder notification (free when the recorder
    /// is off), carrying both states' [`BreakerState::code`].
    fn transition(&mut self, to: BreakerState) {
        crate::recorder::record(
            crate::recorder::EventKind::BreakerTransition,
            crate::recorder::Track::MAIN,
            "breaker",
            self.state.code(),
            to.code(),
        );
        self.state = to;
    }

    /// Records one accelerator run's job counts and updates the state
    /// machine. Call only for runs that actually reached the accelerator.
    pub fn record(&mut self, jobs: usize, jobs_failed: usize) {
        match self.state {
            BreakerState::HalfOpen => {
                if jobs_failed == 0 {
                    // Probe succeeded: close and forget the bad history.
                    self.transition(BreakerState::Closed);
                    self.window.clear();
                } else {
                    self.transition(BreakerState::Open);
                    self.bypassed = 0;
                }
                return;
            }
            BreakerState::Open => return,
            BreakerState::Closed => {}
        }
        self.window.push_back((jobs, jobs_failed));
        while self.window.len() > BREAKER_WINDOW_RUNS {
            self.window.pop_front();
        }
        let total: usize = self.window.iter().map(|(j, _)| *j).sum();
        let failed: usize = self.window.iter().map(|(_, f)| *f).sum();
        if total >= BREAKER_MIN_JOBS && failed as f64 > BREAKER_TRIP_RATE * total as f64 {
            self.transition(BreakerState::Open);
            self.bypassed = 0;
            self.trips += 1;
        }
    }
}

/// Outcome of one budgeted job run ([`crate::exec::RecodedSpmv::run_job`]).
#[derive(Debug)]
pub struct JobReport {
    /// Typed terminal state — always set.
    pub state: JobState,
    /// The decoded matrix, when the job produced one.
    pub matrix: Option<Csr>,
    /// Execution stats, when the job produced them (hardware path, or the
    /// synthesized software-path stats).
    pub stats: Option<ExecStats>,
    /// The error, for `DeadlineExceeded` / `Rejected` states.
    pub error: Option<ExecError>,
    /// True when the breaker bypassed the accelerator entirely.
    pub software_path: bool,
    /// Breaker state *after* this run (`Closed` when no breaker was used).
    pub breaker: BreakerState,
}

impl JobReport {
    /// Classifies a finished run into its terminal state.
    pub fn classify(result: &Result<ExecStats, ExecError>, software_path: bool) -> JobState {
        match result {
            Ok(stats) => {
                if software_path || stats.degraded || stats.software_decode {
                    JobState::Degraded
                } else {
                    JobState::Completed
                }
            }
            Err(ExecError::DeadlineExceeded { .. }) => JobState::DeadlineExceeded,
            Err(_) => JobState::Rejected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_budget_admits_forever() {
        let mut t = BudgetTracker::new(JobBudget::unbounded());
        for _ in 0..10_000 {
            assert!(t.admit_retry().is_ok());
        }
        assert_eq!(t.retries(), 10_000);
        assert_eq!(t.backoff_cycles(), 0);
    }

    #[test]
    fn retry_cap_names_the_exhausted_budget() {
        let budget = JobBudget { max_total_retries: Some(2), ..JobBudget::default() };
        let mut t = BudgetTracker::new(budget);
        assert!(t.admit_retry().is_ok());
        assert!(t.admit_retry().is_ok());
        assert_eq!(t.admit_retry(), Err("retry budget"));
    }

    #[test]
    fn cycle_cap_blocks_after_charge() {
        let budget = JobBudget { max_retry_cycles: Some(100), ..JobBudget::default() };
        let mut t = BudgetTracker::new(budget);
        assert!(t.admit_retry().is_ok());
        t.charge_retry_cycles(99);
        assert!(t.admit_retry().is_ok(), "99 < 100 still admits");
        t.charge_retry_cycles(1);
        assert_eq!(t.admit_retry(), Err("cycle budget"));
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let budget = JobBudget::with_deadline(Duration::ZERO);
        let mut t = BudgetTracker::new(budget);
        assert_eq!(t.admit_retry(), Err("wall deadline"));
    }

    #[test]
    fn backoff_accumulates_per_admitted_retry() {
        let budget = JobBudget { backoff_cycles_per_retry: 50, ..JobBudget::default() };
        let mut t = BudgetTracker::new(budget);
        t.admit_retry().unwrap();
        t.admit_retry().unwrap();
        assert_eq!(t.backoff_cycles(), 100);
    }

    #[test]
    fn breaker_trips_on_windowed_error_rate_and_recovers_via_probe() {
        // Every run is big enough to meet the window minimum on its own.
        const JOBS: usize = BREAKER_MIN_JOBS;
        let mut b = CircuitBreaker::new();
        assert_eq!(b.state(), BreakerState::Closed);
        // Healthy runs never trip it.
        for _ in 0..2 * BREAKER_WINDOW_RUNS {
            assert!(b.admit());
            b.record(JOBS, 0);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        // Disastrous runs trip it once they are more than the trip rate of
        // the window, and not before.
        let tolerated = (BREAKER_TRIP_RATE * BREAKER_WINDOW_RUNS as f64) as usize;
        for _ in 0..tolerated {
            b.record(JOBS, JOBS);
            assert_eq!(b.state(), BreakerState::Closed, "window still mostly healthy");
        }
        b.record(JOBS, JOBS);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        // Open: bypasses until the cooldown elapses, then probes.
        let cool_down = |b: &mut CircuitBreaker| {
            for _ in 1..BREAKER_COOLDOWN_RUNS {
                assert!(!b.admit(), "an open breaker bypasses until the cooldown elapses");
            }
            assert!(b.admit(), "the cooldown's last run becomes the half-open probe");
        };
        cool_down(&mut b);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.probes(), 1);
        // Failed probe re-opens.
        b.record(JOBS, 3);
        assert_eq!(b.state(), BreakerState::Open);
        // Next probe succeeds and closes.
        cool_down(&mut b);
        b.record(JOBS, 0);
        assert_eq!(b.state(), BreakerState::Closed);
        // History was cleared: a bad run below the window minimum does not
        // instantly re-trip (the old disastrous runs are forgotten).
        b.record(BREAKER_MIN_JOBS - 1, BREAKER_MIN_JOBS - 1);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_needs_min_window_jobs_before_tripping() {
        let mut b = CircuitBreaker::new();
        b.record(BREAKER_MIN_JOBS - 1, BREAKER_MIN_JOBS - 1);
        assert_eq!(b.state(), BreakerState::Closed, "too few jobs observed to trip");
        b.record(1, 1);
        assert_eq!(b.state(), BreakerState::Open, "the window minimum reached, it trips");
    }

    #[test]
    fn job_states_render_stably() {
        assert_eq!(JobState::Completed.to_string(), "completed");
        assert_eq!(JobState::Degraded.to_string(), "degraded");
        assert_eq!(JobState::DeadlineExceeded.to_string(), "deadline-exceeded");
        assert_eq!(JobState::Rejected.to_string(), "rejected");
        // Breaker states render from their gauge code, which round-trips.
        let named: Vec<_> =
            (0..4).map(|c| BreakerState::from_code(c).map(|s| s.to_string())).collect();
        assert_eq!(
            named,
            [Some("closed".into()), Some("open".into()), Some("half-open".into()), None]
        );
        for s in [BreakerState::Closed, BreakerState::Open, BreakerState::HalfOpen] {
            assert_eq!(BreakerState::from_code(s.code()), Some(s));
        }
    }
}
