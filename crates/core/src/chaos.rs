//! Seeded chaos campaigns over the resilient execution stack.
//!
//! A campaign runs hundreds of independent trials. Each trial derives a
//! *plan* from the campaign seed — which executor arm to drive, which fault
//! to inject, where to inject it, and what [`JobBudget`] governs the job —
//! runs the job under a watchdog, and classifies the result into a
//! [`TrialOutcome`]. The campaign then asserts the resilience contract in
//! aggregate:
//!
//! * **no hangs** — every trial finishes inside its hard watchdog timeout;
//! * **no escaped panics** — injected panics are contained at thread
//!   boundaries and surface as typed errors;
//! * **typed terminal state** — every trial ends Completed / Degraded /
//!   DeadlineExceeded / Rejected, never anything else;
//! * **block accounting** — whenever a run produces [`ExecStats`],
//!   `blocks_ok + blocks_recovered + blocks_fell_back == accel.jobs`;
//! * **trace validity** — every [`TraceDocument`] produced under fault
//!   passes [`TraceDocument::validate`];
//! * **bit-exactness** — a trial that reports Completed or Degraded
//!   produced exactly the reference result.
//!
//! Faults are injected at three points: **lane dispatch** (trap / stall /
//! panic hooks in the accelerator batch loop), the **compressed stream**
//! (every [`FaultKind`] the transport injector knows), and **overlap stage
//! boundaries** (a multiply worker panics mid-pipeline).
//!
//! All randomness is [`SplitMix64`]: a campaign is fully determined by
//! `(seed, trials)`, and a failing trial reproduces from its logged seed.

use crate::arch::SystemConfig;
use crate::error::ExecError;
use crate::exec::{ExecStats, RawFallbackStore, RecodedSpmv, RunCtx};
use crate::json::Json;
use crate::overlap::{OverlapConfig, OverlapExecutor};
use crate::resilience::{CircuitBreaker, JobBudget, JobState};
#[cfg(doc)]
use crate::telemetry::TraceDocument;
use recode_codec::faults::{FaultInjector, FaultKind, SplitMix64};
use recode_codec::pipeline::{CompressedMatrix, MatrixCodecConfig};
use recode_sparse::prelude::{generate, GenSpec, ValueModel};
use recode_sparse::spmv::SpmvKernel;
use recode_sparse::Csr;
use recode_udp::accel::FaultHook;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Trials to run. The acceptance bar for a full campaign is ≥ 500.
    pub trials: usize,
    /// Master seed; the whole campaign is a pure function of it.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig { trials: 500, seed: 0xC0FFEE }
    }
}

/// Hard per-trial wall-clock limit. A trial that misses it is recorded as
/// [`TrialOutcome::Hung`] — a contract violation, never retried.
pub const TRIAL_TIMEOUT: Duration = Duration::from_secs(30);

/// Typed terminal classification of one trial. The first four mirror
/// [`JobState`]; the last two are contract violations the watchdog detects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialOutcome {
    /// Happy path, bit-exact.
    Completed,
    /// Off the happy path (retry / fallback / software bypass), bit-exact.
    Degraded,
    /// The job budget ran out; surfaced as a typed error.
    DeadlineExceeded,
    /// A typed, non-budget failure (unrecoverable stream, contained panic).
    Rejected,
    /// VIOLATION: the trial missed its watchdog deadline.
    Hung,
    /// VIOLATION: a panic escaped the execution stack into the harness.
    PanicEscaped,
}

impl TrialOutcome {
    fn label(self) -> &'static str {
        match self {
            TrialOutcome::Completed => "completed",
            TrialOutcome::Degraded => "degraded",
            TrialOutcome::DeadlineExceeded => "deadline-exceeded",
            TrialOutcome::Rejected => "rejected",
            TrialOutcome::Hung => "hung",
            TrialOutcome::PanicEscaped => "panic-escaped",
        }
    }
}

impl std::fmt::Display for TrialOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which executor a trial drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    /// `RecodedSpmv::run_job` — budget + campaign-wide circuit breaker.
    BatchJob,
    /// `OverlapExecutor::spmv_with` — pipelined decode/multiply.
    Overlap,
    /// `RecodedSpmv::spmv_traced` — full telemetry, document validated.
    Traced,
}

/// What kind of lane-dispatch fault a plan injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneFault {
    Trap,
    Stall,
    Panic,
}

/// Where a trial injects its fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Injection {
    /// Clean baseline run.
    None,
    /// `FaultHook` on the accelerator job loop.
    LaneDispatch(LaneFault),
    /// A [`FaultKind`] applied to one compressed stream.
    StreamCorrupt(FaultKind, bool /* value stream */),
    /// An injected panic in an overlap multiply worker (overlap arm only).
    StageBoundary,
}

impl Injection {
    fn point_label(self) -> &'static str {
        match self {
            Injection::None => "none",
            Injection::LaneDispatch(_) => "lane-dispatch",
            Injection::StreamCorrupt(..) => "stream-corrupt",
            Injection::StageBoundary => "stage-boundary",
        }
    }

    fn fault_label(self) -> String {
        match self {
            Injection::None => "clean".into(),
            Injection::LaneDispatch(LaneFault::Trap) => "lane-trap".into(),
            Injection::LaneDispatch(LaneFault::Stall) => "lane-stall".into(),
            Injection::LaneDispatch(LaneFault::Panic) => "lane-panic".into(),
            Injection::StreamCorrupt(kind, _) => kind.to_string(),
            Injection::StageBoundary => "worker-panic".into(),
        }
    }
}

/// Everything one trial needs, derived deterministically from the seed.
#[derive(Debug, Clone)]
struct TrialPlan {
    seed: u64,
    arm: Arm,
    injection: Injection,
    budget: JobBudget,
}

/// Shared, immutable campaign fixtures.
struct Ctx {
    a: Csr,
    cm: CompressedMatrix,
    store: RawFallbackStore,
    sys: SystemConfig,
    x: Vec<f64>,
    y_ref: Vec<f64>,
    breaker: Mutex<CircuitBreaker>,
}

/// What one trial reports back to the campaign.
struct TrialResult {
    outcome: TrialOutcome,
    /// Accounting identity held (vacuously true when no stats were made).
    accounted: bool,
    /// TraceDocument validated (vacuously true off the traced arm).
    trace_ok: bool,
    /// Result was bit-exact when one was produced.
    bit_exact: bool,
    /// The trial saw a panic that the stack contained into a typed error.
    panic_contained: bool,
}

/// Aggregate result of a campaign, deterministic in `(seed, trials)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Trials run.
    pub trials: usize,
    /// The master seed, echoed for reproduction.
    pub seed: u64,
    /// Trials per terminal outcome, by label.
    pub by_outcome: BTreeMap<String, usize>,
    /// Trials per injected fault, by label.
    pub by_fault: BTreeMap<String, usize>,
    /// Trials per injection point, by label.
    pub by_injection: BTreeMap<String, usize>,
    /// Trials that missed the watchdog deadline (must be 0).
    pub hung: usize,
    /// Panics that escaped into the harness (must be 0).
    pub panics_escaped: usize,
    /// Panics injected and contained into typed errors.
    pub panics_contained: usize,
    /// Trials whose `ExecStats` violated block accounting (must be 0).
    pub accounting_failures: usize,
    /// Trials whose `TraceDocument` failed validation (must be 0).
    pub trace_failures: usize,
    /// Trials that produced a result that was not bit-exact (must be 0).
    pub bitexact_failures: usize,
}

impl CampaignSummary {
    /// The resilience contract in one predicate: no hangs, no escaped
    /// panics, every injected panic fired and was contained, perfect
    /// accounting, valid traces, bit-exact results.
    pub fn healthy(&self) -> bool {
        self.hung == 0
            && self.panics_escaped == 0
            && self.panics_contained == self.panics_injected()
            && self.accounting_failures == 0
            && self.trace_failures == 0
            && self.bitexact_failures == 0
    }

    /// Trials whose plan routed a deliberate panic through an executor (a
    /// lane-dispatch panic or a multiply-worker panic).
    pub fn panics_injected(&self) -> usize {
        ["lane-panic", "worker-panic"].iter().filter_map(|k| self.by_fault.get(*k)).sum()
    }

    /// Count for one outcome label (0 when absent).
    pub fn outcome(&self, label: &str) -> usize {
        self.by_outcome.get(label).copied().unwrap_or(0)
    }

    /// Human-readable campaign report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "chaos campaign: {} trials, seed {:#x} — {}",
            self.trials,
            self.seed,
            if self.healthy() { "HEALTHY" } else { "CONTRACT VIOLATED" }
        );
        for (title, counts) in [
            ("outcomes:", &self.by_outcome),
            ("faults:", &self.by_fault),
            ("injection points:", &self.by_injection),
        ] {
            s.push_str(title);
            s.push('\n');
            for (k, v) in counts {
                let _ = writeln!(s, "  {k:<18} {v}");
            }
        }
        let _ = writeln!(
            s,
            "violations: hung {}, escaped panics {}, accounting {}, trace {}, bit-exact {} \
             (contained panics: {})",
            self.hung,
            self.panics_escaped,
            self.accounting_failures,
            self.trace_failures,
            self.bitexact_failures,
            self.panics_contained,
        );
        s
    }

    /// The summary as a [`Json`] tree (the shared dependency-free writer —
    /// the CI artifact upload and offline builds both rely on it).
    pub fn to_json_value(&self) -> Json {
        fn map(m: &BTreeMap<String, usize>) -> Json {
            Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::U64(*v as u64))).collect())
        }
        Json::obj()
            .set("trials", Json::U64(self.trials as u64))
            .set("seed", Json::U64(self.seed))
            .set("healthy", Json::Bool(self.healthy()))
            .set("by_outcome", map(&self.by_outcome))
            .set("by_fault", map(&self.by_fault))
            .set("by_injection", map(&self.by_injection))
            .set("hung", Json::U64(self.hung as u64))
            .set("panics_escaped", Json::U64(self.panics_escaped as u64))
            .set("panics_contained", Json::U64(self.panics_contained as u64))
            .set("accounting_failures", Json::U64(self.accounting_failures as u64))
            .set("trace_failures", Json::U64(self.trace_failures as u64))
            .set("bitexact_failures", Json::U64(self.bitexact_failures as u64))
    }

    /// Compact JSON serialization of [`CampaignSummary::to_json_value`].
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// Rebuilds a summary from [`CampaignSummary::to_json`] output.
    ///
    /// # Errors
    /// A description of the first malformed or missing field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = crate::json::parse(text)?;
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .map(|v| v as usize)
                .ok_or_else(|| format!("missing or non-integer field `{key}`"))
        };
        let map = |key: &str| -> Result<BTreeMap<String, usize>, String> {
            doc.get(key)
                .and_then(Json::entries)
                .ok_or_else(|| format!("missing or non-object field `{key}`"))?
                .iter()
                .map(|(k, v)| {
                    v.as_u64()
                        .map(|v| (k.clone(), v as usize))
                        .ok_or_else(|| format!("non-integer count `{key}.{k}`"))
                })
                .collect()
        };
        Ok(CampaignSummary {
            trials: num("trials")?,
            seed: doc.get("seed").and_then(Json::as_u64).ok_or("missing field `seed`")?,
            by_outcome: map("by_outcome")?,
            by_fault: map("by_fault")?,
            by_injection: map("by_injection")?,
            hung: num("hung")?,
            panics_escaped: num("panics_escaped")?,
            panics_contained: num("panics_contained")?,
            accounting_failures: num("accounting_failures")?,
            trace_failures: num("trace_failures")?,
            bitexact_failures: num("bitexact_failures")?,
        })
    }
}

/// The campaign's fixed workload: small enough that a trial is a few
/// milliseconds, large enough for double-digit block counts on both streams.
fn campaign_matrix() -> Csr {
    generate(
        &GenSpec::Stencil2D {
            nx: 24,
            ny: 24,
            points: 5,
            values: ValueModel::QuantizedGaussian { levels: 16 },
        },
        11,
    )
}

/// Derives trial `k`'s plan from its dedicated seed.
fn plan_trial(seed: u64) -> TrialPlan {
    let mut rng = SplitMix64::new(seed);
    let arm = [Arm::BatchJob, Arm::Overlap, Arm::Traced][rng.below(3)];
    let injection = match rng.below(9) {
        0 => Injection::None,
        1 => Injection::LaneDispatch(LaneFault::Trap),
        2 => Injection::LaneDispatch(LaneFault::Stall),
        3 => Injection::LaneDispatch(LaneFault::Panic),
        4..=7 => {
            let kind = FaultKind::ALL[rng.below(FaultKind::ALL.len())];
            Injection::StreamCorrupt(kind, rng.below(2) == 1)
        }
        _ => {
            if arm == Arm::Overlap {
                Injection::StageBoundary
            } else {
                Injection::LaneDispatch(LaneFault::Panic)
            }
        }
    };
    // Every arm draws one of four budgets, two of which bite under faults.
    let budget = match rng.below(4) {
        0 => JobBudget::unbounded(),
        1 => JobBudget { max_total_retries: Some(1), ..JobBudget::default() },
        2 => JobBudget {
            max_retry_cycles: Some(1),
            backoff_cycles_per_retry: 64,
            ..JobBudget::default()
        },
        _ => JobBudget::with_deadline(Duration::ZERO),
    };
    TrialPlan { seed, arm, injection, budget }
}

/// Accounting identity over one run's stats.
fn accounted(stats: &ExecStats) -> bool {
    stats.blocks_ok + stats.blocks_recovered + stats.blocks_fell_back == stats.accel.jobs
}

/// Injected panics are *supposed* to fire and be contained; keep their
/// default-hook backtraces out of the campaign output. Installed once,
/// process-wide; every other panic still reports through the prior hook.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|m| m.contains("injected panic"));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Runs one trial body (inside the watchdog thread).
fn run_trial(ctx: &Ctx, plan: &TrialPlan) -> TrialResult {
    let mut r = RecodedSpmv::from_compressed_with_store(ctx.cm.clone(), Some(ctx.store.clone()))
        .expect("campaign matrix decoders must build");

    let mut hook = FaultHook::new();
    crate::recorder::record(
        crate::recorder::EventKind::ChaosInjection,
        crate::recorder::Track::MAIN,
        plan.injection.point_label(),
        plan.seed & 0xffff_ffff,
        0,
    );
    match plan.injection {
        Injection::None => {}
        Injection::LaneDispatch(LaneFault::Trap) => hook = hook.trap(0).trap(1),
        Injection::LaneDispatch(LaneFault::Stall) => hook = hook.stall(0, 50_000),
        Injection::LaneDispatch(LaneFault::Panic) => hook = hook.panic_job(0),
        Injection::StreamCorrupt(kind, value_stream) => {
            let mut injector = FaultInjector::new(plan.seed);
            let stream = if value_stream {
                &mut r.compressed_mut().value_stream
            } else {
                &mut r.compressed_mut().index_stream
            };
            let _ = injector.inject(stream, kind);
        }
        Injection::StageBoundary => hook = hook.panic_tile(0),
    }
    let hook = if hook.is_empty() { None } else { Some(&hook) };
    let run_ctx = RunCtx { hook, budget: Some(&plan.budget), tel: None };

    let mut result = TrialResult {
        outcome: TrialOutcome::Rejected,
        accounted: true,
        trace_ok: true,
        bit_exact: true,
        panic_contained: false,
    };

    match plan.arm {
        Arm::BatchJob => {
            let mut breaker = ctx.breaker.lock().unwrap_or_else(PoisonError::into_inner);
            let report = r.run_job(&ctx.sys, run_ctx, Some(&mut breaker));
            result.outcome = match report.state {
                JobState::Completed => TrialOutcome::Completed,
                JobState::Degraded => TrialOutcome::Degraded,
                JobState::DeadlineExceeded => TrialOutcome::DeadlineExceeded,
                JobState::Rejected => TrialOutcome::Rejected,
            };
            if let Some(stats) = &report.stats {
                // The software bypass never touches the accelerator, so its
                // all-zero accounting is vacuously correct.
                if !stats.software_decode {
                    result.accounted = accounted(stats);
                }
            }
            if let Some(m) = &report.matrix {
                result.bit_exact = *m == ctx.a;
            }
        }
        Arm::Overlap => {
            let ex = OverlapExecutor::new(
                &r,
                OverlapConfig { overlap: true, cache_blocks: 0, workers: 2 },
            );
            match ex.spmv_with(&ctx.sys, &ctx.x, run_ctx) {
                Ok((y, stats)) => {
                    result.outcome = if stats.degraded {
                        TrialOutcome::Degraded
                    } else {
                        TrialOutcome::Completed
                    };
                    result.accounted = accounted(&stats);
                    result.bit_exact = y == ctx.y_ref;
                }
                Err(ExecError::DeadlineExceeded { .. }) => {
                    result.outcome = TrialOutcome::DeadlineExceeded;
                }
                Err(_) => result.outcome = TrialOutcome::Rejected,
            }
        }
        Arm::Traced => {
            match r.spmv_traced(&ctx.sys, SpmvKernel::Serial, &ctx.x, run_ctx, "chaos") {
                Ok((y, stats, doc)) => {
                    result.outcome = if stats.degraded {
                        TrialOutcome::Degraded
                    } else {
                        TrialOutcome::Completed
                    };
                    result.accounted = accounted(&stats);
                    result.trace_ok = doc.validate().is_empty();
                    result.bit_exact = y == ctx.y_ref;
                }
                Err(ExecError::DeadlineExceeded { .. }) => {
                    result.outcome = TrialOutcome::DeadlineExceeded;
                }
                Err(_) => result.outcome = TrialOutcome::Rejected,
            }
        }
    }
    // A panic-injecting trial that reached this point (instead of escaping
    // to the watchdog's catch_unwind) was contained by the stack — provided
    // the panic fired at all: every arm reads the hook, so such a trial is
    // degraded or ends in a typed error, and one that completed on the happy
    // path never injected anything.
    result.panic_contained = result.outcome != TrialOutcome::Completed
        && matches!(
            plan.injection,
            Injection::LaneDispatch(LaneFault::Panic) | Injection::StageBoundary
        );
    result
}

/// Runs a full campaign. Deterministic in `config.{seed, trials}` — trial
/// outcomes never depend on thread scheduling or pool state, only on the
/// per-trial seed.
pub fn run_campaign(config: &ChaosConfig) -> CampaignSummary {
    silence_injected_panics();
    let a = campaign_matrix();
    let cm = CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh())
        .expect("campaign matrix must compress");
    let store = RawFallbackStore::from_csr(&a);
    let sys = SystemConfig::ddr4();
    let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 29) % 13) as f64 - 6.0).collect();
    let y_ref = recode_sparse::spmv::spmv(&a, &x);
    let ctx =
        Arc::new(Ctx { a, cm, store, sys, x, y_ref, breaker: Mutex::new(CircuitBreaker::new()) });

    let mut master = SplitMix64::new(config.seed);
    let mut summary = CampaignSummary {
        trials: config.trials,
        seed: config.seed,
        by_outcome: BTreeMap::new(),
        by_fault: BTreeMap::new(),
        by_injection: BTreeMap::new(),
        hung: 0,
        panics_escaped: 0,
        panics_contained: 0,
        accounting_failures: 0,
        trace_failures: 0,
        bitexact_failures: 0,
    };

    for _ in 0..config.trials {
        let plan = plan_trial(master.next_u64());
        let (tx, rx) = mpsc::channel();
        let thread_ctx = Arc::clone(&ctx);
        let thread_plan = plan.clone();
        // One watchdogged thread per trial: a hung trial is recorded and
        // left behind (its thread is leaked, never joined) so the campaign
        // itself cannot hang.
        std::thread::spawn(move || {
            let r = catch_unwind(AssertUnwindSafe(|| run_trial(&thread_ctx, &thread_plan)));
            // The campaign observes completion through the channel, never
            // by joining, so ring any recorder events before signalling.
            crate::recorder::flush_thread();
            let _ = tx.send(r);
        });
        let result = match rx.recv_timeout(TRIAL_TIMEOUT) {
            Ok(Ok(result)) => result,
            Ok(Err(_panic)) => TrialResult {
                outcome: TrialOutcome::PanicEscaped,
                accounted: true,
                trace_ok: true,
                bit_exact: true,
                panic_contained: false,
            },
            Err(_) => TrialResult {
                outcome: TrialOutcome::Hung,
                accounted: true,
                trace_ok: true,
                bit_exact: true,
                panic_contained: false,
            },
        };

        *summary.by_outcome.entry(result.outcome.label().to_string()).or_insert(0) += 1;
        *summary.by_fault.entry(plan.injection.fault_label()).or_insert(0) += 1;
        *summary.by_injection.entry(plan.injection.point_label().to_string()).or_insert(0) += 1;
        match result.outcome {
            TrialOutcome::Hung => summary.hung += 1,
            TrialOutcome::PanicEscaped => summary.panics_escaped += 1,
            _ => {}
        }
        if result.panic_contained {
            summary.panics_contained += 1;
        }
        if !result.accounted {
            summary.accounting_failures += 1;
        }
        if !result.trace_ok {
            summary.trace_failures += 1;
        }
        if !result.bit_exact {
            summary.bitexact_failures += 1;
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_campaign_is_healthy_and_covers_every_point() {
        let config = ChaosConfig { trials: 60, seed: 0xDEAD_BEEF };
        let summary = run_campaign(&config);
        assert!(summary.healthy(), "{}", summary.render());
        assert_eq!(summary.by_outcome.values().sum::<usize>(), 60);
        for point in ["lane-dispatch", "stream-corrupt", "stage-boundary", "none"] {
            assert!(
                summary.by_injection.contains_key(point),
                "60 trials never hit {point}:\n{}",
                summary.render()
            );
        }
    }

    #[test]
    fn summary_json_is_well_formed() {
        let config = ChaosConfig { trials: 4, seed: 1 };
        let s = run_campaign(&config);
        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"trials\":4"));
        assert!(json.contains("\"healthy\":"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn summary_round_trips_through_the_shared_json_writer() {
        let config = ChaosConfig { trials: 6, seed: 0xA11CE };
        let first = run_campaign(&config);
        let back = CampaignSummary::from_json(&first.to_json()).expect("own JSON parses back");
        assert_eq!(back, first, "summary must survive the JSON round trip");
        // And same-seed equality still holds across serialization.
        let second = run_campaign(&config);
        assert_eq!(
            CampaignSummary::from_json(&second.to_json()).expect("parses"),
            back,
            "same seed, same summary, same JSON"
        );
        assert!(CampaignSummary::from_json("{\"trials\":1}").is_err(), "missing fields rejected");
    }
}
