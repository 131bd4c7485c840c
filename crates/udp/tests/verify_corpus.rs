//! Negative-test corpus for the static verifier (ISSUE 4).
//!
//! Each `.udp` file under `tests/corpus/` is deliberately broken in exactly
//! one interesting way; these tests assert that the corresponding analysis
//! fires with the right severity and anchors the finding to the right block
//! and source line. Together they cover every analysis the verifier runs:
//! reachability, register init (warn + the r0 info), dead writes,
//! scratchpad bounds, output contract, termination (no-exit and
//! invariant-exit loops), stream bounds, dispatch tables (empty group,
//! incomplete table, unselectable slot), cycle-bound certification
//! (unboundable loop, budget overflow, per-bit overrun), and predecode
//! translation validation (post-assembly word tampering).

use recode_udp::asm::assemble_text_with_map;
use recode_udp::lane::{Lane, LaneError, RunConfig};
use recode_udp::machine::assemble;
use recode_udp::verify::{verify_image, Analysis, Finding, Severity, VerifyReport};

/// Assembles a corpus program and returns its line-annotated report.
fn report(name: &str, src: &str) -> VerifyReport {
    let (program, map) =
        assemble_text_with_map(name, src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let image = assemble(&program).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut r = image.verify_report.clone();
    r.attach_lines(&map);
    r
}

/// The first finding from `analysis` at `severity`, with context on failure.
fn expect(r: &VerifyReport, analysis: Analysis, severity: Severity) -> &Finding {
    r.findings
        .iter()
        .find(|f| f.analysis == analysis && f.severity == severity)
        .unwrap_or_else(|| panic!("expected {severity} {analysis:?} finding in:\n{r}"))
}

#[test]
fn unreachable_block_is_flagged_with_its_line() {
    let r = report("unreachable", include_str!("corpus/unreachable_block.udp"));
    let f = expect(&r, Analysis::Reachability, Severity::Warn);
    assert_eq!(f.line, Some(5), "{f}"); // `dead:` label line
    assert_eq!(r.reachable, r.blocks - 1);
}

#[test]
fn uninitialized_read_names_register_and_line() {
    let r = report("uninit", include_str!("corpus/uninit_read.udp"));
    let f = expect(&r, Analysis::RegisterInit, Severity::Warn);
    assert!(f.message.contains("r5"), "{f}");
    assert_eq!(f.line, Some(4), "{f}"); // the storeb line
    assert_eq!(f.slot, Some(1));
}

#[test]
fn dead_write_is_flagged_at_its_slot() {
    let r = report("deadwrite", include_str!("corpus/dead_write.udp"));
    let f = expect(&r, Analysis::DeadWrite, Severity::Warn);
    assert!(f.message.contains("r3"), "{f}");
    assert_eq!(f.line, Some(3), "{f}");
    assert_eq!(f.slot, Some(0));
}

#[test]
fn provable_oob_store_is_an_error() {
    let r = report("oob", include_str!("corpus/oob_store.udp"));
    let f = expect(&r, Analysis::ScratchpadBounds, Severity::Error);
    assert_eq!(f.line, Some(4), "{f}"); // the stored line
    assert!(f.message.contains("always outside"), "{f}");
    assert!(r.gate().is_err());
}

#[test]
fn exitless_loop_diverges_and_is_rejected_by_the_lane() {
    let src = include_str!("corpus/infinite_loop.udp");
    let r = report("diverges", src);
    let f = expect(&r, Analysis::Termination, Severity::Error);
    assert!(f.message.contains("Diverges"), "{f}");
    // The gate is enforced end-to-end: the lane refuses the image.
    let (program, _) = assemble_text_with_map("diverges", src).unwrap();
    let image = assemble(&program).unwrap();
    let err = Lane::new().run(&image, &[], 0, RunConfig::default()).unwrap_err();
    assert!(matches!(err, LaneError::Unverified { .. }), "{err:?}");
}

#[test]
fn loop_invariant_exit_condition_is_flagged() {
    let r = report("invariant", include_str!("corpus/invariant_exit.udp"));
    let f = expect(&r, Analysis::Termination, Severity::Warn);
    assert!(f.message.contains("never writes"), "{f}");
}

#[test]
fn stream_consuming_loop_without_inrem_is_flagged() {
    let r = report("streamloop", include_str!("corpus/stream_loop_no_inrem.udp"));
    let f = expect(&r, Analysis::StreamBounds, Severity::Warn);
    assert!(f.message.contains("inrem"), "{f}");
    // The loop head is the `copy:` block.
    assert_eq!(f.line, Some(5), "{f}");
}

/// A loop that reads the stream with no `inrem` in it is clean when its
/// trip count was fixed from `inrem` on the way in: it never under-runs, on
/// any input length.
#[test]
fn counted_stream_loop_verifies_clean() {
    let src = include_str!("corpus/counted_stream_loop.udp");
    let r = report("counted", src);
    assert!(r.is_clean(), "{r}");
    let image = assemble(&assemble_text_with_map("counted", src).unwrap().0).unwrap();
    let input = [0xA5u8; 32];
    for bits in 0..=256 {
        let out = Lane::new().run(&image, &input, bits, RunConfig::default());
        assert_eq!(out.map(|r| r.output.len()), Ok(bits / 64 * 8), "{bits} bits");
    }
}

/// Each way of breaking the counted loop's proof obligation leaves the
/// `stream-bounds` warning at the loop head, and each fixture has an input
/// on which its loop does under-run the stream. The last one meets (a)–(d)
/// of the rule; only the interval domain's `[0, 2^63)` for its cursor, which
/// it does not get, would keep the cursor from wrapping past the limit.
#[test]
fn counted_stream_loops_that_can_under_run_still_warn() {
    let cases = [
        (include_str!("corpus/counted_loop_constant_limit.udp"), 11, 0),
        (include_str!("corpus/counted_loop_shift_too_small.udp"), 11, 96),
        (include_str!("corpus/counted_loop_no_guard.udp"), 11, 0),
        (include_str!("corpus/counted_loop_read_after_inrem.udp"), 12, 64),
        (include_str!("corpus/counted_loop_cursor_wraps.udp"), 12, 64),
    ];
    for (src, head, bits) in cases {
        let r = report("counted", src);
        let f = expect(&r, Analysis::StreamBounds, Severity::Warn);
        assert_eq!(f.line, Some(head), "{f}");
        assert_eq!(r.warn_count(), 1, "{r}");
        let image = assemble(&assemble_text_with_map("counted", src).unwrap().0).unwrap();
        let run = Lane::new().run(&image, &[0xA5; 16], bits, RunConfig::default());
        assert!(matches!(run, Err(LaneError::StreamUnderflow { .. })), "{bits} bits: {run:?}");
    }
}

#[test]
fn empty_dispatch_group_is_an_error() {
    let r = report("emptygroup", include_str!("corpus/empty_group.udp"));
    let f = expect(&r, Analysis::DispatchTable, Severity::Error);
    assert!(f.message.contains("no entries"), "{f}");
    assert_eq!(f.line, Some(3), "{f}"); // `main:` label line
}

#[test]
fn incomplete_dispatch_table_reports_missing_symbols() {
    let r = report("incomplete", include_str!("corpus/incomplete_dispatch.udp"));
    let f = expect(&r, Analysis::DispatchTable, Severity::Warn);
    assert!(f.message.contains("covers 2 of 4"), "{f}");
    assert!(f.message.contains('2') && f.message.contains('3'), "{f}");
}

#[test]
fn unselectable_group_slot_is_flagged() {
    let r = report("unselectable", include_str!("corpus/unselectable_slot.udp"));
    let f = r
        .findings
        .iter()
        .find(|f| f.analysis == Analysis::DispatchTable && f.message.contains("never be selected"))
        .unwrap_or_else(|| panic!("expected unselectable-slot finding in:\n{r}"));
    assert_eq!(f.severity, Severity::Warn);
    assert!(f.message.contains("offset 9"), "{f}");
}

#[test]
fn impossible_output_contract_is_an_error() {
    let r = report("badout", include_str!("corpus/bad_output.udp"));
    let f = expect(&r, Analysis::OutputContract, Severity::Error);
    assert!(f.message.contains("r15"), "{f}");
    assert!(r.gate().is_err());
}

#[test]
fn write_to_r0_is_an_info_finding_only() {
    let r = report("writer0", include_str!("corpus/write_r0.udp"));
    let f = expect(&r, Analysis::RegisterInit, Severity::Info);
    assert!(f.message.contains("r0"), "{f}");
    assert_eq!(f.line, Some(3), "{f}");
    // Info findings alone do not block execution.
    assert_eq!(r.error_count(), 0);
    assert!(r.gate().is_ok());
}

#[test]
fn unboundable_loop_cannot_certify_a_max_bound() {
    let r = report("unboundable", include_str!("corpus/unboundable_loop.udp"));
    let f = expect(&r, Analysis::CycleBound, Severity::Warn);
    assert!(f.message.contains("cannot certify"), "{f}");
    assert_eq!(f.line, Some(8), "{f}"); // `spin:` — the progressless loop head
    let bound = r.cycle_bound.expect("min is still certifiable");
    assert_eq!(bound.max, None, "no affine max for a progressless loop");
    // Still only a warning: the program terminates dynamically.
    assert_eq!(r.error_count(), 0);
    assert!(r.gate().is_ok());
}

#[test]
fn stream_trip_count_overflowing_the_cycle_budget_is_flagged() {
    let r = report("budget", include_str!("corpus/budget_overflow_loop.udp"));
    let f = r
        .findings
        .iter()
        .find(|f| f.analysis == Analysis::CycleBound && f.message.contains("-cycle budget"))
        .unwrap_or_else(|| panic!("expected a budget-overflow warning in:\n{r}"));
    assert_eq!(f.severity, Severity::Warn);
    assert!(f.message.contains("exceeding the"), "{f}");
    // Anchored at the entry (`main:`). The bound itself certifies — it is
    // the budget comparison against it that fails.
    assert_eq!(f.line, Some(5), "{f}");
    let max = r.cycle_bound.unwrap().max.expect("affine max certifies");
    assert!(max.max_for(1 << 20) > 200_000_000, "{max}");
}

#[test]
fn dispatch_chain_over_the_per_bit_budget_is_flagged() {
    let r = report("perbit", include_str!("corpus/dispatch_per_bit.udp"));
    let f = r
        .findings
        .iter()
        .find(|f| f.analysis == Analysis::CycleBound && f.message.contains("per-bit"))
        .unwrap_or_else(|| panic!("expected a per-bit budget warning in:\n{r}"));
    assert_eq!(f.severity, Severity::Warn);
    assert_eq!(f.line, Some(6), "{f}"); // anchored at the entry (`main:`)
    let max = r.cycle_bound.unwrap().max.expect("affine max certifies");
    assert!(max.per_input_bit > 64, "{max}");
    // Over the per-bit budget but inside the total cycle budget: the
    // budget-overflow warning must NOT also fire.
    assert!(
        !r.findings.iter().any(|f| f.message.contains("exceeding the")),
        "per-bit fixture must stay under the total budget:\n{r}"
    );
}

/// Translation validation (ISSUE 9): tampering with an encoded word after
/// assembly makes the flat predecode table stale relative to
/// `decode_word`; re-verifying flags the owning block with an Error, and a
/// report carrying that Error gates `Lane::run` unless the caller opts
/// into `allow_unverified`.
#[test]
fn tampered_predecode_table_is_an_error_and_gates_the_lane() {
    use recode_udp::effclip;
    let src = include_str!("corpus/predecode_tamper.udp");
    let (program, map) = assemble_text_with_map("tamper", src).unwrap();
    let mut image = assemble(&program).unwrap();
    assert_eq!(image.verify_report.error_count(), 0, "fixture is clean pre-tamper");
    image.words[image.entry as usize] ^= 1 << 40;
    let placement = effclip::place(&program).unwrap();
    let mut r = verify_image(&program, &placement, &image);
    r.attach_lines(&map);
    let f = expect(&r, Analysis::TranslationValidation, Severity::Error);
    assert!(f.message.contains("not equivalent"), "{f}");
    assert_eq!(f.line, Some(4), "{f}"); // `main:` — the tampered word's owner
    assert!(r.gate().is_err());
    // End-to-end gate: with the refreshed report attached, the lane refuses
    // the image...
    image.verify_report = r;
    let err = Lane::new().run(&image, &[7], 8, RunConfig::default()).unwrap_err();
    assert!(matches!(err, LaneError::Unverified { .. }), "{err:?}");
    // ...unless explicitly overridden. Execution itself is unaffected: the
    // lane runs the (still-intact) predecoded table, not the raw words.
    let cfg = RunConfig { allow_unverified: true, ..RunConfig::default() };
    let out = Lane::new().run(&image, &[7], 8, cfg).unwrap();
    assert_eq!(out.output, [7]);
}

#[test]
fn clean_program_produces_no_findings_at_all() {
    let src = ".entry main\nmain:\n    mov r2, r14\n    insymle r1, 1\n    storeb r1, r2, 0\n    limm r15, 1\n    halt\n";
    let r = report("clean", src);
    assert!(r.findings.is_empty(), "{r}");
    assert!(r.is_clean());
}
