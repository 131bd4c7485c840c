//! Seeded chaos campaign over the full job-execution stack.
//!
//! Each trial derives a plan (execution arm, fault injection point, job
//! budget) from a master seed, runs one SpMV job under a watchdog, and
//! classifies the terminal state. The campaign is healthy when every trial
//! lands in a *typed* terminal state — no hangs, no escaped panics, block
//! accounting intact, every emitted trace valid, every completed result
//! bit-exact against the reference kernel.

use recode_spmv::prelude::{run_campaign, ChaosConfig};

#[test]
fn chaos_campaign_terminates_typed_on_every_trial() {
    let trials = 500;
    let cfg = ChaosConfig { trials, seed: 0xC0FFEE };
    let summary = run_campaign(&cfg);

    assert!(summary.healthy(), "campaign violated an invariant:\n{}", summary.render());
    assert_eq!(summary.trials, trials);
    assert_eq!(summary.hung, 0, "a trial exceeded the watchdog deadline");
    assert_eq!(summary.panics_escaped, 0, "a panic crossed the executor boundary");
    assert_eq!(summary.accounting_failures, 0, "ok+recovered+fell_back must equal dispatched jobs");
    assert_eq!(summary.trace_failures, 0, "every TraceDocument must validate");
    assert_eq!(summary.bitexact_failures, 0, "recovered results must match the reference kernel");

    // Every trial is classified, and none by the two failure buckets.
    let classified: usize = summary.by_outcome.values().sum();
    assert_eq!(classified, trials, "every trial must reach a typed terminal state");
    assert_eq!(summary.outcome("hung"), 0);
    assert_eq!(summary.outcome("panic-escaped"), 0);

    // Every injection point the plan can draw appears: fault-free trials
    // (≈11%) pin the bit-exact baseline, and stage-boundary (≈4%, overlap
    // arm only) is the rarest.
    for point in ["lane-dispatch", "stream-corrupt", "stage-boundary", "none"] {
        assert!(
            summary.by_injection.get(point).copied().unwrap_or(0) > 0,
            "campaign never exercised injection point {point:?}:\n{}",
            summary.render()
        );
    }
    assert_eq!(
        summary.by_injection.len(),
        4,
        "an injection point nobody plans:\n{}",
        summary.render()
    );

    // Lane panics and stage-boundary faults are the only plans that route a
    // deliberate panic through the executors; every one must be contained.
    assert!(summary.panics_contained > 0, "no trial exercised panic containment");
    assert_eq!(
        summary.panics_contained,
        summary.panics_injected(),
        "an injected panic never fired: its trial completed on the happy path\n{}",
        summary.render()
    );

    // Each corruption kind is ≈7% of trials.
    for kind in [
        "bit-flip",
        "truncate",
        "drop-block",
        "duplicate-block",
        "reorder-blocks",
        "header-corrupt",
    ] {
        assert!(
            summary.by_fault.get(kind).copied().unwrap_or(0) > 0,
            "campaign must inject fault kind {kind:?}:\n{}",
            summary.render()
        );
    }
}

#[test]
fn chaos_campaign_is_deterministic_per_seed() {
    // Two campaigns from the same seed must agree on every counter — the
    // whole point of seeding is that a red campaign replays exactly.
    let cfg = ChaosConfig { trials: 80, seed: 0x5EED_CAFE };
    let first = run_campaign(&cfg);
    let second = run_campaign(&cfg);
    assert_eq!(first, second, "same seed must reproduce the identical campaign summary");
    assert!(first.healthy(), "{}", first.render());

    // And a different seed explores a different schedule.
    let other = run_campaign(&ChaosConfig { seed: 0x00DD_5EED, ..cfg });
    assert_ne!(
        first.by_injection, other.by_injection,
        "different seeds should draw different injection mixes"
    );
}
