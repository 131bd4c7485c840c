//! Seeded chaos campaigns over the resilient execution stack.
//!
//! A campaign runs hundreds of independent trials. Each trial derives a
//! *plan* from the campaign seed — which executor arm to drive, which fault
//! to inject, and where to inject it — runs the job under a watchdog, and
//! classifies the result into a
//! [`TrialOutcome`]. The campaign then asserts the resilience contract in
//! aggregate:
//!
//! * **no hangs** — every trial finishes inside its hard watchdog timeout;
//! * **no escaped panics** — injected panics are contained at the lane
//!   dispatch boundary and recovered like any failed block;
//! * **typed terminal state** — every trial ends Completed / Degraded /
//!   Rejected, never anything else;
//! * **block accounting** — whenever a run produces [`ExecStats`],
//!   `blocks_ok + blocks_recovered + blocks_fell_back == accel.jobs`;
//! * **trace validity** — every [`TraceDocument`] produced under fault
//!   passes [`TraceDocument::validate`];
//! * **bit-exactness** — a trial that reports Completed or Degraded
//!   produced exactly the reference result.
//!
//! Faults are injected at two points — **lane dispatch** (trap / panic
//! hooks on each block's first attempt) and the **compressed stream**
//! (every [`FaultKind`] the transport injector knows) — plus the clean
//! baseline, `none`.
//!
//! All randomness is [`SplitMix64`]: a campaign is fully determined by
//! `(seed, trials)`, and a failing trial reproduces from its logged seed.

use crate::arch::SystemConfig;
use crate::error::ExecResult;
use crate::exec::{ExecStats, RawFallbackStore, RecodedSpmv, RunCtx};
use crate::json::Json;
use crate::overlap::{OverlapConfig, OverlapExecutor};
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
use std::sync::{mpsc, Arc};
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

/// Typed terminal classification of one trial. The first three are what a
/// run's [`ExecResult`] says ([`classify`]); the last two are contract
/// violations the watchdog detects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialOutcome {
    /// Happy path, bit-exact.
    Completed,
    /// Off the happy path (retry / raw-store fallback), bit-exact.
    Degraded,
    /// A typed failure (a block that neither its retry nor the raw store
    /// recovers, or a stream that does not reassemble).
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
    /// `RecodedSpmv::decompress_with` — the batch decode alone, checked
    /// against the matrix.
    BatchJob,
    /// `OverlapExecutor::spmv_with` — pipelined decode/multiply.
    Overlap,
    /// `RecodedSpmv::spmv_traced` — full telemetry, document validated.
    Traced,
}

/// Where a trial injects its fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Injection {
    /// Clean baseline run.
    None,
    /// `FaultHook` traps on the accelerator job loop.
    LaneTrap,
    /// `FaultHook` panics on the accelerator job loop.
    LanePanic,
    /// A [`FaultKind`] applied to one compressed stream.
    StreamCorrupt(FaultKind, bool /* value stream */),
}

impl Injection {
    fn point_label(self) -> &'static str {
        match self {
            Injection::None => "none",
            Injection::LaneTrap | Injection::LanePanic => "lane-dispatch",
            Injection::StreamCorrupt(..) => "stream-corrupt",
        }
    }

    fn fault_label(self) -> String {
        match self {
            Injection::None => "clean".into(),
            Injection::LaneTrap => "lane-trap".into(),
            Injection::LanePanic => "lane-panic".into(),
            Injection::StreamCorrupt(kind, _) => kind.to_string(),
        }
    }
}

/// Everything one trial needs, derived deterministically from the seed.
#[derive(Debug, Clone)]
struct TrialPlan {
    seed: u64,
    arm: Arm,
    injection: Injection,
}

/// Shared, immutable campaign fixtures.
struct Ctx {
    a: Csr,
    cm: CompressedMatrix,
    store: RawFallbackStore,
    sys: SystemConfig,
    x: Vec<f64>,
    y_ref: Vec<f64>,
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

impl TrialResult {
    /// `outcome` with every check vacuously passed.
    fn of(outcome: TrialOutcome) -> Self {
        TrialResult {
            outcome,
            accounted: true,
            trace_ok: true,
            bit_exact: true,
            panic_contained: false,
        }
    }
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

    /// Trials whose plan routed a deliberate lane-dispatch panic through an
    /// executor.
    pub fn panics_injected(&self) -> usize {
        self.by_fault.get("lane-panic").copied().unwrap_or(0)
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
    let injection = match rng.below(8) {
        0 => Injection::None,
        1 => Injection::LaneTrap,
        2 | 7 => Injection::LanePanic,
        _ => {
            let kind = FaultKind::ALL[rng.below(FaultKind::ALL.len())];
            Injection::StreamCorrupt(kind, rng.below(2) == 1)
        }
    };
    TrialPlan { seed, arm, injection }
}

/// The one mapping from a run's result to its trial result: the typed
/// outcome, the block-accounting identity over the run's stats, and
/// bit-exactness against `want` (both vacuously true for a run that ended
/// in an error).
fn classify<T: PartialEq>(run: ExecResult<(T, ExecStats)>, want: &T) -> TrialResult {
    match run {
        Ok((got, stats)) => TrialResult {
            accounted: stats.blocks_ok + stats.blocks_recovered + stats.blocks_fell_back
                == stats.accel.jobs,
            bit_exact: got == *want,
            ..TrialResult::of(if stats.degraded {
                TrialOutcome::Degraded
            } else {
                TrialOutcome::Completed
            })
        },
        Err(_) => TrialResult::of(TrialOutcome::Rejected),
    }
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
        Injection::LaneTrap => hook = hook.trap(0).trap(1),
        Injection::LanePanic => hook = hook.panic_job(0),
        Injection::StreamCorrupt(kind, value_stream) => {
            let mut injector = FaultInjector::new(plan.seed);
            let stream = if value_stream {
                &mut r.compressed_mut().value_stream
            } else {
                &mut r.compressed_mut().index_stream
            };
            let _ = injector.inject(stream, kind);
        }
    }
    let hook = if hook.is_empty() { None } else { Some(&hook) };
    let run_ctx = RunCtx { hook, tel: None };

    let mut result = match plan.arm {
        Arm::BatchJob => classify(r.decompress_with(&ctx.sys, run_ctx), &ctx.a),
        Arm::Overlap => {
            let ex = OverlapExecutor::new(&r, OverlapConfig::default());
            classify(ex.spmv_with(&ctx.sys, &ctx.x, run_ctx), &ctx.y_ref)
        }
        Arm::Traced => {
            let run = r.spmv_traced(&ctx.sys, SpmvKernel::Serial, &ctx.x, run_ctx, "chaos");
            let trace_ok = run.as_ref().map_or(true, |(_, _, doc)| doc.validate().is_empty());
            TrialResult { trace_ok, ..classify(run.map(|(y, stats, _)| (y, stats)), &ctx.y_ref) }
        }
    };
    // A panic-injecting trial that reached this point (instead of escaping
    // to the watchdog's catch_unwind) was contained by the stack — provided
    // the panic fired at all: every arm reads the hook, so such a trial is
    // degraded or ends in a typed error, and one that completed on the happy
    // path never injected anything.
    result.panic_contained =
        result.outcome != TrialOutcome::Completed && plan.injection == Injection::LanePanic;
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
    let ctx = Arc::new(Ctx { a, cm, store, sys, x, y_ref });

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
            let _ = tx.send(r);
        });
        let result = match rx.recv_timeout(TRIAL_TIMEOUT) {
            Ok(Ok(result)) => result,
            Ok(Err(_panic)) => TrialResult::of(TrialOutcome::PanicEscaped),
            Err(_) => TrialResult::of(TrialOutcome::Hung),
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
        for point in ["lane-dispatch", "stream-corrupt", "none"] {
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
