//! # recode-core — the CPU–UDP heterogeneous architecture
//!
//! The paper's primary contribution, assembled from the substrate crates:
//!
//! * [`arch`] — system configurations (CPU-only, CPU+software-decomp,
//!   CPU+UDP) over `recode-mem` models;
//! * [`exec`] — *functional* recoding-enhanced SpMV: compressed blocks are
//!   decoded by real UDP programs on the lane simulator, reassembled, and
//!   multiplied — the Fig. 6/7 flow, verified bit-exact against the
//!   uncompressed kernel;
//! * [`overlap`] — the tile walker, pipelined (UDP lanes decode tile *i+1*
//!   while CPU workers multiply tile *i*; the modeled makespan overlaps
//!   decode with multiply) or inline (the streaming executor), with a
//!   seeded-capacity decoded-block LRU cache so iterative solvers pay decode
//!   cost once;
//! * [`ladder`] — what every schedule shares: the [`RunCtx`] that makes a
//!   run plain, faulty, budgeted or traced, the block-recovery ladder, and
//!   the accounting the `ExecStats` are built from;
//! * [`measure`] — measured recoding throughput: per-lane cycle counts from
//!   the UDP simulator (sampled blocks, extrapolated) and the calibrated
//!   CPU software rates;
//! * [`perfmodel`] — the analytic bandwidth-bound SpMV model behind
//!   Figs. 3, 14, 15;
//! * [`power`] — iso-performance memory-power savings (Figs. 16, 17);
//! * [`seven`] — synthetic stand-ins for the paper's 7 representative
//!   matrices (copter2, g7jac160, gas_sensor, m3dc1_a30, matrix-new_3,
//!   shipsec1, xenon1);
//! * [`corpus`] — the 369-matrix TAMU-substitute corpus;
//! * [`experiment`] — per-figure experiment runners with serializable
//!   results;
//! * [`report`] — plain-text tables matching the paper's figures;
//! * [`telemetry`] — the span/counter/histogram registry behind
//!   `recode spmv --trace`, sealed into a schema-stable [`TraceDocument`];
//! * [`recorder`] — the always-on flight recorder: a lock-light ring of
//!   typed runtime events (spans, block outcomes, breaker transitions,
//!   pool and cache traffic) exportable as a Chrome/Perfetto trace via
//!   [`chrometrace`];
//! * [`metrics`] — point-in-time [`metrics::MetricsSnapshot`] rendered as
//!   Prometheus text exposition;
//! * [`benchcmp`] — the BENCH_*.json regression comparator behind
//!   `recode bench-compare`;
//! * [`cli`] — the one argument parser every binary reads its command
//!   line through;
//! * [`json`] — the workspace's one JSON tree, writer, parser and
//!   struct mapping; [`trace_json`] maps a [`TraceDocument`] through it;
//! * [`tune`] — the per-matrix auto-tuner: codec-stage × block-size search
//!   scored by [`perfmodel`]'s makespan, persisted as a digest-keyed
//!   `recode-tuned/v2` document.

pub mod arch;
pub mod benchcmp;
pub mod chaos;
pub mod chrometrace;
pub mod cli;
pub mod corpus;
pub mod error;
pub mod exec;
pub mod experiment;
pub mod json;
pub mod ladder;
pub mod measure;
pub mod metrics;
pub mod overlap;
pub mod perfmodel;
pub mod power;
pub mod recorder;
pub mod report;
pub mod resilience;
pub mod seven;
pub mod telemetry;
pub mod trace_json;
pub mod tune;

pub use arch::SystemConfig;
pub use benchcmp::{compare_snapshots, CompareReport, MetricDelta, Verdict};
pub use chaos::{run_campaign, CampaignSummary, ChaosConfig, TrialOutcome};
pub use chrometrace::export_chrome_trace;
pub use error::{ExecError, ExecResult};
pub use exec::{ExecStats, RawFallbackStore, RecodedSpmv};
pub use ladder::RunCtx;
pub use metrics::MetricsSnapshot;
pub use overlap::{CacheStats, ExecCache, OverlapConfig, OverlapExecutor, OverlapStats};
pub use perfmodel::SpmvPerfModel;
pub use power::PowerSavings;
pub use resilience::{BreakerState, BudgetTracker, CircuitBreaker, JobBudget, JobReport, JobState};
pub use tune::{
    matrix_digest, tune_matrix, CandidateScore, StageSubset, TuneError, TuneOutcome, TunedConfig,
    TUNED_SCHEMA,
};

pub use telemetry::{
    render_report, BlockEvent, BlockOutcome, CycleHistogram, MatrixMeta, RecorderSummary, Span,
    StreamKind, SystemMeta, Telemetry, TraceDocument, TRACE_SCHEMA, TRACE_SCHEMA_V1,
};
