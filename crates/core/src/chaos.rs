//! The fault contract, enumerated.
//!
//! One small [`Fixture`] and every fault a run of it can meet: none; a
//! [`FaultHook`] trap at each job, a panic at each job, and a trap at every
//! pair of jobs, each on the job's first attempt; and each [`FaultKind`] at
//! each block of each stream (`block_faults`: bit flips and truncations at
//! three byte positions, each header field on its own). Every fault runs
//! with the raw store on and off — a [`Case`] — and every case under every
//! [`Schedule`], which must agree job for job: one recovery ladder sits
//! under all of them.
//!
//! [`run`] returns the [`Table`], one [`Row`] per case: the jobs retried,
//! the jobs that fell back and the ladder tally, or the typed error with
//! its block. A run that breaks the contract adds a violation instead: a
//! result that is not the reference, block accounting that does not add
//! up, a trace that fails [`TraceDocument::validate`], an error that names
//! no block, or a schedule that disagrees with the batch. An injected panic
//! that escapes the stack is not caught here: it fails the caller, and the
//! caller's own timeout is the watchdog (the walker is inline, the ladder
//! is finite and every lane program runs under a cycle limit).
//! `results/chaos_campaign.json` is the table, so a fault that moves to
//! another block changes a row.

use crate::arch::SystemConfig;
use crate::error::{ExecError, ExecResult};
use crate::exec::{ExecStats, RawFallbackStore, RecodedSpmv, RunCtx};
use crate::json::Json;
use crate::overlap::{OverlapConfig, OverlapExecutor};
use crate::telemetry::{BlockEvent, BlockOutcome, StreamKind, Telemetry, TraceDocument};
#[cfg(doc)]
use recode_codec::faults::FaultKind;
use recode_codec::faults::{Fault, HeaderField};
use recode_codec::pipeline::{CompressedMatrix, MatrixCodecConfig, PipelineConfig};
use recode_codec::BlockStream;
use recode_sparse::prelude::{generate, GenSpec, ValueModel};
use recode_sparse::spmv::{spmv, SpmvKernel};
use recode_sparse::Csr;
use recode_udp::accel::{Accelerator, FaultHook};
use std::fmt::Write as _;

/// The enumeration's one workload: a 14×14 five-point stencil (924
/// non-zeros) in the paper's stage mix at 1 KiB index and 2 KiB value
/// blocks — 4 blocks per stream, each stream's last one short — on a
/// 4-lane accelerator. That is 8 jobs, two on every lane, and 149 faults.
pub struct Fixture {
    /// The matrix.
    pub a: Csr,
    /// Its clean compressed form.
    pub compressed: CompressedMatrix,
    /// The platform, with fewer lanes than jobs.
    pub sys: SystemConfig,
    /// The vector every SpMV multiplies.
    pub x: Vec<f64>,
}

impl Default for Fixture {
    /// Builds the fixture (deterministic).
    fn default() -> Self {
        let values = ValueModel::QuantizedGaussian { levels: 16 };
        let a = generate(&GenSpec::Stencil2D { nx: 14, ny: 14, points: 5, values }, 11);
        let config = MatrixCodecConfig {
            index: PipelineConfig { block_bytes: 1024, ..PipelineConfig::dsh_udp() },
            value: PipelineConfig { block_bytes: 2048, ..PipelineConfig::sh_udp() },
        };
        let compressed = CompressedMatrix::compress(&a, config).expect("the fixture compresses");
        let sys = SystemConfig {
            udp: Accelerator { lanes: 4, ..Accelerator::default() },
            ..SystemConfig::ddr4()
        };
        let x = (0..a.ncols()).map(|i| ((i * 29) % 13) as f64 - 6.0).collect();
        Fixture { a, compressed, sys, x }
    }
}

impl Fixture {
    /// Decode jobs in one run: index blocks, then value blocks.
    pub fn jobs(&self) -> usize {
        self.compressed.index_stream.blocks.len() + self.compressed.value_stream.blocks.len()
    }

    /// Every case, raw store on first: each [`Injection`] once per store
    /// setting.
    pub fn cases(&self) -> Vec<Case> {
        let jobs = self.jobs();
        let mut faults = vec![Injection::Clean];
        faults.extend((0..jobs).map(Injection::Trap));
        faults.extend((0..jobs).map(Injection::Panic));
        faults
            .extend((0..jobs).flat_map(|j| (j + 1..jobs).map(move |k| Injection::TrapPair(j, k))));
        for (kind, stream) in self.streams() {
            for block in 0..stream.blocks.len() {
                faults.extend(block_faults(stream, block).map(|f| Injection::Stream(kind, f)));
            }
        }
        [true, false]
            .into_iter()
            .flat_map(|store| faults.iter().map(move |&injection| Case { injection, store }))
            .collect()
    }

    fn streams(&self) -> [(StreamKind, &BlockStream); 2] {
        [
            (StreamKind::Index, &self.compressed.index_stream),
            (StreamKind::Value, &self.compressed.value_stream),
        ]
    }
}

/// The stream faults placed at `block`: a flip of bit 0 and a truncation
/// at the payload's first, middle and last byte, the block dropped,
/// duplicated right after itself and swapped with its successor (the last
/// block with the first), and each [`HeaderField`] XORed with 1.
fn block_faults(stream: &BlockStream, block: usize) -> impl Iterator<Item = Fault> {
    let len = stream.blocks[block].payload.len();
    let bytes = [0, len / 2, len - 1];
    let flips = bytes.map(|byte| Fault::BitFlip { block, byte, bit: 0 });
    let cuts = bytes.map(|len| Fault::Truncate { block, len });
    let moves = [
        Fault::DropBlock { block },
        Fault::DuplicateBlock { block, at: block + 1 },
        Fault::ReorderBlocks { block, with: (block + 1) % stream.blocks.len() },
    ];
    let headers = HeaderField::ALL.map(|field| Fault::HeaderCorrupt { block, field, mask: 1 });
    flips.into_iter().chain(cuts).chain(moves).chain(headers)
}

/// Where a case injects its fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// No fault.
    Clean,
    /// A trap on the first attempt of one job.
    Trap(usize),
    /// A panic inside the lane worker on the first attempt of one job.
    Panic(usize),
    /// Traps on the first attempts of two jobs.
    TrapPair(usize, usize),
    /// One fault placed in one compressed stream.
    Stream(StreamKind, Fault),
}

impl Injection {
    /// The hook that injects this case's lane faults.
    fn hook(&self) -> FaultHook {
        match *self {
            Injection::Trap(j) => FaultHook::new().trap(j),
            Injection::Panic(j) => FaultHook::new().panic_job(j),
            Injection::TrapPair(j, k) => FaultHook::new().trap(j).trap(k),
            Injection::Clean | Injection::Stream(..) => FaultHook::new(),
        }
    }
}

impl std::fmt::Display for Injection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Injection::Clean => f.write_str("clean"),
            Injection::Trap(j) => write!(f, "trap job {j}"),
            Injection::Panic(j) => write!(f, "panic job {j}"),
            Injection::TrapPair(j, k) => write!(f, "trap jobs {j}+{k}"),
            Injection::Stream(StreamKind::Index, fault) => write!(f, "index: {fault}"),
            Injection::Stream(StreamKind::Value, fault) => write!(f, "value: {fault}"),
        }
    }
}

/// One fault, with the raw store on or off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Case {
    /// The fault.
    pub injection: Injection,
    /// Whether the operand keeps a [`RawFallbackStore`].
    pub store: bool,
}

/// The executors every case runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// `RecodedSpmv::decompress_with`, checked against the matrix.
    Batch,
    /// `OverlapExecutor::spmv_with` with a decoded-block cache.
    Tiled,
    /// `RecodedSpmv::spmv_traced`, its document validated.
    Traced,
}

impl Schedule {
    /// Every schedule, the batch first.
    pub const ALL: [Schedule; 3] = [Schedule::Batch, Schedule::Tiled, Schedule::Traced];
}

/// How a run's blocks settled on the recovery ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Settled {
    /// Jobs whose first attempt failed, in job order.
    pub retried: Vec<usize>,
    /// Of those, the jobs whose retry failed too and that the raw store
    /// served.
    pub fell_back: Vec<usize>,
    /// `ExecStats::blocks_ok`.
    pub ok: usize,
    /// `ExecStats::blocks_recovered`.
    pub recovered: usize,
    /// `ExecStats::fallback_bytes`.
    pub fallback_bytes: usize,
    /// `ExecStats::retry_cycles`.
    pub retry_cycles: u64,
}

/// One case's result, the same on every schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// The case.
    pub case: Case,
    /// How the blocks settled, or the typed error the run ended in.
    pub result: Result<Settled, ExecError>,
}

/// The enumeration's result.
#[derive(Debug, Clone)]
pub struct Table {
    /// Blocks of the index stream.
    pub index_blocks: usize,
    /// Blocks of the value stream.
    pub value_blocks: usize,
    /// Lanes of the fixture's accelerator.
    pub lanes: usize,
    /// Executor runs made: every case on every schedule.
    pub runs: usize,
    /// One row per case, in [`Fixture::cases`] order.
    pub rows: Vec<Row>,
    /// Contract violations, each naming its case and schedule (empty when
    /// the contract holds).
    pub violations: Vec<String>,
}

impl Table {
    /// No run broke the contract.
    pub fn healthy(&self) -> bool {
        self.violations.is_empty()
    }

    /// The table as text: a summary line, then one line per case.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "chaos: {} index + {} value blocks on {} lanes, {} cases x {} schedules = {} runs — {}",
            self.index_blocks,
            self.value_blocks,
            self.lanes,
            self.rows.len(),
            Schedule::ALL.len(),
            self.runs,
            if self.healthy() { "HEALTHY" } else { "CONTRACT VIOLATED" }
        );
        let _ = writeln!(
            s,
            "{:<5} {:<56} {:<7} {:<9} {:>2} {:>3} {:>8} {:>9}",
            "store", "fault", "retried", "fell back", "ok", "rec", "fb bytes", "retry cyc"
        );
        for row in &self.rows {
            let store = if row.case.store { "on" } else { "off" };
            let _ = write!(s, "{store:<5} {:<56} ", row.case.injection.to_string());
            let _ = match &row.result {
                Ok(t) => writeln!(
                    s,
                    "{:<7} {:<9} {:>2} {:>3} {:>8} {:>9}",
                    jobs_label(&t.retried),
                    jobs_label(&t.fell_back),
                    t.ok,
                    t.recovered,
                    t.fallback_bytes,
                    t.retry_cycles
                ),
                Err(e) => writeln!(s, "error: {e}"),
            };
        }
        for v in &self.violations {
            let _ = writeln!(s, "VIOLATION: {v}");
        }
        s
    }

    /// The table as JSON, one row per line: what `recode chaos --json`
    /// writes and `results/chaos_campaign.json` holds.
    pub fn to_json(&self) -> String {
        let jobs = |v: &[usize]| Json::Arr(v.iter().map(|&j| Json::U64(j as u64)).collect());
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let head = Json::obj()
                    .set("store", Json::Bool(row.case.store))
                    .set("fault", Json::Str(row.case.injection.to_string()));
                match &row.result {
                    Ok(t) => head
                        .set("retried", jobs(&t.retried))
                        .set("fell_back", jobs(&t.fell_back))
                        .set("ok", Json::U64(t.ok as u64))
                        .set("recovered", Json::U64(t.recovered as u64))
                        .set("fallback_bytes", Json::U64(t.fallback_bytes as u64))
                        .set("retry_cycles", Json::U64(t.retry_cycles)),
                    Err(e) => head.set("error", Json::Str(e.to_string())),
                }
                .to_string()
            })
            .collect();
        let violations = Json::Arr(self.violations.iter().cloned().map(Json::Str).collect());
        format!(
            "{{\"index_blocks\":{},\"value_blocks\":{},\"lanes\":{},\"cases\":{},\"runs\":{},\
             \"violations\":{violations},\"rows\":[\n{}\n]}}\n",
            self.index_blocks,
            self.value_blocks,
            self.lanes,
            self.rows.len(),
            self.runs,
            rows.join(",\n")
        )
    }
}

fn jobs_label(jobs: &[usize]) -> String {
    if jobs.is_empty() {
        return "-".into();
    }
    jobs.iter().map(ToString::to_string).collect::<Vec<_>>().join(",")
}

/// Injected panics are *supposed* to fire and be contained; keep their
/// default-hook backtraces out of the output. Installed once,
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

/// Runs every case of the [`Fixture`] on every schedule and checks the
/// contract per run. Deterministic: the table depends on the tree alone,
/// not on the host's cores or the lane tier.
///
/// # Panics
/// If an injected panic escapes the execution stack, or the fixture's
/// decoders do not build.
pub fn run() -> Table {
    silence_injected_panics();
    let fixture = Fixture::default();
    let y_ref = spmv(&fixture.a, &fixture.x);
    let store = RawFallbackStore::from_csr(&fixture.a);
    let build = |store| {
        RecodedSpmv::from_compressed_with_store(fixture.compressed.clone(), store)
            .expect("the fixture's decoders build")
    };
    let (mut with_store, mut without) = (build(Some(store)), build(None));
    let mut table = Table {
        index_blocks: fixture.compressed.index_stream.blocks.len(),
        value_blocks: fixture.compressed.value_stream.blocks.len(),
        lanes: fixture.sys.udp.lanes,
        runs: 0,
        rows: Vec::new(),
        violations: Vec::new(),
    };
    for case in fixture.cases() {
        let r = if case.store { &mut with_store } else { &mut without };
        if let Injection::Stream(kind, fault) = case.injection {
            let cm = r.compressed_mut();
            fault.apply(match kind {
                StreamKind::Index => &mut cm.index_stream,
                StreamKind::Value => &mut cm.value_stream,
            });
        }
        let hook = case.injection.hook();
        let mut batch: Option<Result<Settled, ExecError>> = None;
        for schedule in Schedule::ALL {
            let what = format!("{} (store {}) on {schedule:?}", case.injection, case.store);
            let (outcome, violation) = match run_case(&fixture, r, &hook, schedule, &y_ref) {
                Ok((settled, violation)) => (Ok(settled), violation),
                Err(e) => {
                    let violation = untyped(&e, case.injection);
                    (Err(e), violation)
                }
            };
            table.runs += 1;
            table.violations.extend(violation.map(|v| format!("{what}: {v}")));
            match &batch {
                None => batch = Some(outcome),
                Some(want) if *want != outcome => {
                    table.violations.push(format!("{what}: {outcome:?}, but the batch {want:?}"));
                }
                Some(_) => {}
            }
        }
        *r.compressed_mut() = fixture.compressed.clone();
        table.rows.push(Row { case, result: batch.expect("three schedules ran") });
    }
    table
}

/// Why an error breaks the contract, if it does: an error from a case with
/// no stream fault (a lane fault clears on its hook-free retry), or one
/// that names neither a block nor a codec cause.
fn untyped(e: &ExecError, injection: Injection) -> Option<String> {
    if !matches!(injection, Injection::Stream(..)) {
        return Some(format!("error {e} without a stream fault"));
    }
    let typed = match e {
        ExecError::Udp(u) => u.block().is_some() || u.codec_error().is_some(),
        ExecError::Unrecoverable { block, .. } => block.is_some(),
        ExecError::Structure { .. } | ExecError::Reassembly(_) | ExecError::Codec(_) => true,
    };
    (!typed).then(|| format!("untyped error {e}"))
}

/// Runs one case on one schedule: how its blocks settled, and the first
/// contract check the run failed, if any.
fn run_case(
    fixture: &Fixture,
    r: &RecodedSpmv,
    hook: &FaultHook,
    schedule: Schedule,
    y_ref: &[f64],
) -> ExecResult<(Settled, Option<String>)> {
    let (sys, x) = (&fixture.sys, fixture.x.as_slice());
    let mut tel = Telemetry::new();
    let ctx = RunCtx { hook: Some(hook), tel: Some(&mut tel) };
    let (exact, stats, doc) = match schedule {
        Schedule::Batch => {
            let (b, stats) = r.decompress_with(sys, ctx)?;
            (b == fixture.a, stats, None)
        }
        Schedule::Tiled => {
            let config = OverlapConfig { cache_blocks: 64, ..OverlapConfig::default() };
            let (y, stats) = OverlapExecutor::new(r, config).spmv_with(sys, x, ctx)?;
            (y == y_ref, stats, None)
        }
        // The traced entry records into its own registry, not `tel`.
        Schedule::Traced => {
            let (y, stats, doc) = r.spmv_traced(sys, SpmvKernel::Serial, x, ctx, "chaos")?;
            (y == y_ref, stats, Some(doc))
        }
    };
    let events = doc.as_ref().map_or(tel.block_events(), |d| &d.block_events);
    let settled = settle(events, &stats);
    let invalid = doc.as_ref().map(TraceDocument::validate).filter(|errs| !errs.is_empty());
    let violation = if !exact {
        Some("result differs from the reference".to_string())
    } else if let Some(errs) = invalid {
        Some(format!("trace invalid: {errs:?}"))
    } else {
        accounting(events, &stats, &settled)
    };
    Ok((settled, violation))
}

/// The ladder's view of a run, from its per-job events and its stats.
fn settle(events: &[BlockEvent], stats: &ExecStats) -> Settled {
    let jobs = |keep: fn(BlockOutcome) -> bool| {
        events.iter().filter(|e| keep(e.outcome)).map(|e| e.job).collect()
    };
    Settled {
        retried: jobs(|o| o != BlockOutcome::Ok),
        fell_back: jobs(|o| o == BlockOutcome::FellBack),
        ok: stats.blocks_ok,
        recovered: stats.blocks_recovered,
        fallback_bytes: stats.fallback_bytes,
        retry_cycles: stats.retry_cycles,
    }
}

/// Block accounting: one event per job, in job order, and the events, the
/// ladder tally and the degraded flag telling the same story.
fn accounting(events: &[BlockEvent], stats: &ExecStats, settled: &Settled) -> Option<String> {
    let jobs = stats.accel.jobs;
    let in_order = events.iter().map(|e| e.job).eq(0..jobs);
    let holds = in_order
        && stats.blocks_ok + stats.blocks_recovered + stats.blocks_fell_back == jobs
        && settled.retried.len() == stats.blocks_retried
        && settled.fell_back.len() == stats.blocks_fell_back
        && stats.degraded == (stats.blocks_retried > 0);
    (!holds)
        .then(|| format!("block accounting: {settled:?} from {} events, {stats:?}", events.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fixture_has_its_documented_shape_and_every_case_is_enumerated() {
        let f = Fixture::default();
        let (index, value) =
            (f.compressed.index_stream.blocks.len(), f.compressed.value_stream.blocks.len());
        assert_eq!((index, value, f.jobs(), f.sys.udp.lanes), (4, 4, 8, 4));
        for (_, stream) in f.streams() {
            assert!(stream.total_uncompressed % stream.block_bytes > 0, "a short last block");
        }

        // Per fault: the clean run, a trap and a panic per job, a trap per
        // pair of jobs, and 13 faults per block; every fault twice.
        let cases = f.cases();
        let jobs = f.jobs();
        let faults = 1 + 2 * jobs + jobs * (jobs - 1) / 2 + 13 * (index + value);
        assert_eq!((faults, cases.len()), (149, 2 * faults));
        let distinct: std::collections::BTreeSet<String> =
            cases.iter().map(|c| format!("{} {}", c.injection, c.store)).collect();
        assert_eq!(distinct.len(), cases.len(), "every case is a different fault");

        let lanes = f.sys.udp.lanes;
        let shared = cases
            .iter()
            .filter(|c| matches!(c.injection, Injection::TrapPair(j, k) if j % lanes == k % lanes));
        assert_eq!(shared.count(), 2 * lanes, "one pair (j, j + lanes) per lane, twice");
    }
}
