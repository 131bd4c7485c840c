//! W^X page-lifecycle coverage for the lane JIT tier (ISSUE 10).
//!
//! Pins the three safety properties the JIT's page management promises:
//!
//! 1. published code is never simultaneously writable and executable —
//!    `/proc/self/maps` holds no `rwx` mapping and the codec's violation
//!    counter stays zero;
//! 2. executable pages are reclaimed when the owning image is retired —
//!    `live_exec_bytes` falls back to its baseline once the last clone of
//!    an image drops;
//! 3. a poisoned (failed) compile degrades to the interpreter tier with a
//!    recorded `CompileEvent { ok: false }`, and a tampered buffer is
//!    caught twice: the per-run sentinel gates `Lane::run` with
//!    `JitInvalid`, and a re-verify flags a translation-validation `Error`;
//! 4. the dispatch tables of a table-lowered image (ISSUE 15) are published
//!    with the code — inside the same read+execute mapping, never writable —
//!    and `verify_image` re-derives them: one flipped table byte is an
//!    `Error` naming the group's dispatch block, which gates `Lane::run`;
//! 5. the composed first-level table of a two-level group (ISSUE 16) is
//!    re-derived the same way: a flipped width bit or via-link bit of one of
//!    its rows is an `Error` naming group and row, and — run anyway — shows
//!    in the output or in the modeled cycles.
//!
//! The whole file is x86-64 Linux only (the only platform that publishes
//! pages) and every test early-outs under `RECODE_NO_JIT=1`, so CI's
//! interpreter-parity leg still compiles and runs it as a no-op.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use recode_udp::isa::{Action, Block, BlockId, Cond, Transition, Width};
use recode_udp::jit::exec::{live_exec_bytes, poison_next_publish_for_test, wx_violations};
use recode_udp::jit::{set_compile_hook, CompileEvent};
use recode_udp::lane::{Lane, LaneError, RunConfig};
use recode_udp::machine::assemble;
use recode_udp::program::{Program, ProgramBuilder};
use recode_udp::verify::{verify_image, Analysis, Severity};

/// The publish-poison hook and the page counters are process-global, so
/// tests that touch them serialize here.
static GATE: Mutex<()> = Mutex::new(());

/// Failed-compile reports observed by the process-wide hook (the hook is
/// install-once, so all tests share these counters).
static FAILED_COMPILES: AtomicU64 = AtomicU64::new(0);
static FAILED_CODE_BYTES: AtomicUsize = AtomicUsize::new(0);

fn install_probe_hook() {
    fn probe(ev: &CompileEvent) {
        if !ev.ok {
            FAILED_COMPILES.fetch_add(1, Ordering::SeqCst);
            FAILED_CODE_BYTES.fetch_add(ev.code_bytes, Ordering::SeqCst);
        }
    }
    // First installer wins; every test calls this so ordering doesn't
    // matter.
    let _ = set_compile_hook(probe);
}

/// A store-then-halt program small enough to assemble in every test.
fn tiny_program() -> Program {
    let mut pb = ProgramBuilder::new("jit-lifecycle");
    let start = pb.block(Block {
        actions: vec![
            Action::LoadImm { rd: 1, imm: 0x5A },
            Action::Store { rs: 1, base: 14, offset: 0, width: Width::B1 },
            Action::LoadImm { rd: 15, imm: 1 },
        ],
        transition: Transition::Halt,
    });
    pb.entry(start);
    pb.build().unwrap()
}

#[test]
fn published_pages_are_never_writable_and_executable() {
    if !recode_udp::jit::enabled() {
        return;
    }
    let _g = GATE.lock().unwrap();
    let image = assemble(&tiny_program()).unwrap();
    assert!(image.jit().is_some(), "x86-64 assemble must produce a JIT artifact");
    // The kernel-visible property: with live JIT pages in the process, no
    // mapping is rwx.
    let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
    for line in maps.lines() {
        let perms = line.split_whitespace().nth(1).unwrap_or("");
        assert!(!perms.starts_with("rwx"), "W^X violated by mapping: {line}");
    }
    // And the library-level ledger agrees nothing ever asked for RWX.
    assert_eq!(wx_violations(), 0, "no RWX protection request may ever be made");
}

#[test]
fn retiring_an_image_reclaims_its_executable_pages() {
    if !recode_udp::jit::enabled() {
        return;
    }
    let _g = GATE.lock().unwrap();
    let baseline = live_exec_bytes();
    let image = assemble(&tiny_program()).unwrap();
    let jit_bytes = image.jit().expect("artifact").code_bytes();
    assert!(jit_bytes > 0);
    assert!(live_exec_bytes() >= baseline + jit_bytes, "publishing must grow the live ledger");
    // Clones share the artifact: no further pages, and dropping one clone
    // reclaims nothing.
    let clone = image.clone();
    let with_image = live_exec_bytes();
    drop(clone);
    assert_eq!(live_exec_bytes(), with_image, "a clone drop must not unmap shared pages");
    drop(image);
    assert_eq!(
        live_exec_bytes(),
        baseline,
        "retiring the last owner must return the ledger to baseline"
    );
}

#[test]
fn poisoned_compile_falls_back_to_interpreter_with_a_recorded_event() {
    if !recode_udp::jit::enabled() {
        return;
    }
    let _g = GATE.lock().unwrap();
    install_probe_hook();
    let failures_before = FAILED_COMPILES.load(Ordering::SeqCst);
    poison_next_publish_for_test(1);
    let image = assemble(&tiny_program()).unwrap();
    assert!(image.jit().is_none(), "a poisoned publish must not attach an artifact");
    assert_eq!(
        FAILED_COMPILES.load(Ordering::SeqCst),
        failures_before + 1,
        "the failed compile must be reported to the hook"
    );
    assert_eq!(FAILED_CODE_BYTES.load(Ordering::SeqCst), 0, "failed compiles publish nothing");
    // The image still runs — interpreter tier, bit-exact.
    let r = Lane::new().run(&image, &[], 0, RunConfig::default()).unwrap();
    assert_eq!(r.output, vec![0x5A]);
}

#[test]
fn tampered_artifact_is_gated_at_run_time_and_flagged_by_reverify() {
    if !recode_udp::jit::enabled() {
        return;
    }
    let _g = GATE.lock().unwrap();
    let program = tiny_program();
    let placement = recode_udp::effclip::place(&program).unwrap();
    let image = recode_udp::machine::encode(&program, &placement).unwrap();
    let jit = image.jit().expect("artifact");

    // Pre-tamper: the sentinel passes, verify is clean, and the lane runs
    // the compiled tier.
    assert_eq!(image.verify_report.error_count(), 0);
    let r = Lane::new().run(&image, &[], 0, RunConfig::default()).unwrap();
    assert_eq!(r.output, vec![0x5A]);

    // Tamper with the first code byte through the test-only choke point
    // (the only way to write RX pages — mprotect round-trip, never RWX).
    jit.corrupt_for_test(0, 0xFF);

    // Run-time gate: the cheap sentinel catches the damage before any
    // compiled byte executes.
    let err = Lane::new().run(&image, &[], 0, RunConfig::default()).unwrap_err();
    assert_eq!(err, LaneError::JitInvalid);
    assert!(err.to_string().contains("integrity"), "actionable message: {err}");

    // Static gate: re-verification recomputes the full digest and reports
    // a translation-validation Error, which itself gates future runs.
    let report = verify_image(&program, &placement, &image);
    let finding = report
        .findings
        .iter()
        .find(|f| f.analysis == Analysis::TranslationValidation && f.severity == Severity::Error)
        .expect("tampered code digest must surface as an Error finding");
    assert!(finding.message.contains("tampered"), "diagnosis names the cause: {finding:?}");
}

/// Four sibling emit handlers behind a `dispatch.sym 2`: `limm r4, 40 + w;
/// storeb r4, r14; limm r15, 1; halt`. Returns the dispatching block too.
fn sibling_program() -> (Program, BlockId) {
    let mut pb = ProgramBuilder::new("jit-tables");
    let members = (0..4u32)
        .map(|w| {
            let b = pb.block(Block {
                actions: vec![
                    Action::LoadImm { rd: 4, imm: 40 + w as i16 },
                    Action::Store { rs: 4, base: 14, offset: 0, width: Width::B1 },
                    Action::LoadImm { rd: 15, imm: 1 },
                ],
                transition: Transition::Halt,
            });
            (w, b)
        })
        .collect();
    let group = pb.group(members);
    let start =
        pb.block(Block { actions: vec![], transition: Transition::DispatchSym { bits: 2, group } });
    pb.entry(start);
    (pb.build().unwrap(), start)
}

#[test]
fn dispatch_tables_are_published_read_exec_with_the_code() {
    if !recode_udp::jit::enabled() {
        return;
    }
    let _g = GATE.lock().unwrap();
    let image = assemble(&sibling_program().0).unwrap();
    let jit = image.jit().expect("artifact");
    assert_eq!((jit.table_groups(), jit.table_bytes()), (1, 16), "four 4-byte rows");
    let span = jit.table_span();
    assert_eq!(span.end, jit.code_bytes(), "the tables are the tail of the published bytes");
    let (lo, hi) = (jit.addr_of_for_test(span.start), jit.addr_of_for_test(span.end - 1));
    let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
    let perms = maps
        .lines()
        .find_map(|l| {
            let (range, rest) = l.split_once(' ')?;
            let (from, to) = range.split_once('-')?;
            let from = usize::from_str_radix(from, 16).ok()?;
            let to = usize::from_str_radix(to, 16).ok()?;
            (from <= lo && hi < to && from <= jit.addr_of_for_test(0)).then_some(&rest[..4])
        })
        .expect("code and tables share one mapping");
    assert_eq!(&perms[..3], "r-x", "tables are never writable after publish");
    assert_eq!(wx_violations(), 0);
}

#[test]
fn tampered_table_row_is_flagged_by_reverify_and_gates_the_lane() {
    if !recode_udp::jit::enabled() {
        return;
    }
    let _g = GATE.lock().unwrap();
    let (program, start) = sibling_program();
    let placement = recode_udp::effclip::place(&program).unwrap();
    let mut image = recode_udp::machine::encode(&program, &placement).unwrap();
    assert_eq!(image.verify_report.error_count(), 0);
    // Window 1 of the two-bit symbol: the second handler's immediate.
    let run = |image: &recode_udp::machine::Image, cfg| Lane::new().run(image, &[0x40], 8, cfg);
    assert_eq!(run(&image, RunConfig::default()).unwrap().output, vec![41]);

    // Flip one bit of row 1's immediate (the row's third byte). The run-time
    // sentinel only watches the two ends of the buffer, so this takes the
    // full audit to see.
    let jit = image.jit().expect("artifact");
    jit.corrupt_for_test(jit.table_span().start + 4 + 2, 0x01);
    let report = verify_image(&program, &placement, &image);
    let errors: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.analysis == Analysis::TranslationValidation && f.severity == Severity::Error)
        .collect();
    assert!(errors.iter().any(|f| f.message.contains("tampered buffer")), "{errors:?}");
    let row = errors
        .iter()
        .find(|f| f.message.contains("dispatch table"))
        .expect("the re-derived table must disagree with the published row");
    assert!(row.message.contains("row 1"), "{row:?}");
    assert_eq!(row.block, start, "the finding names the group's dispatch block");

    // The report gates the lane; opting out runs the table as published,
    // which is how the row is seen to be live data.
    let errors = errors.len();
    image.verify_report = report;
    assert_eq!(run(&image, RunConfig::default()).unwrap_err(), LaneError::Unverified { errors });
    let cfg = RunConfig { allow_unverified: true, ..RunConfig::default() };
    assert_eq!(run(&image, cfg).unwrap().output, vec![40]);
}

/// A decode loop over a two-level code: `dispatch.peek 2` into two emit
/// handlers (`skip 2; limm r4, 10 + w; storebi r4, r2; jump head`) and two
/// prefix handlers `skip 2; dispatch.peek 1` with two more emit handlers
/// behind each (`skip 1; limm r4, 10·w + v; …`). Returns the block that
/// dispatches into the first level too.
fn two_level_program() -> (Program, BlockId) {
    let mut pb = ProgramBuilder::new("jit-composed");
    let done = pb.block(Block {
        actions: vec![Action::Sub { rd: 15, rs: 2, rt: 14 }],
        transition: Transition::Halt,
    });
    let head = pb.reserve();
    let emit = |pb: &mut ProgramBuilder, skip: u8, sym: u32| {
        pb.block(Block {
            actions: vec![
                Action::SkipSym { bits: skip },
                Action::LoadImm { rd: 4, imm: sym as i16 },
                Action::StoreInc { rs: 4, base: 2, width: Width::B1 },
            ],
            transition: Transition::Jump(head),
        })
    };
    let mut members = vec![(0, emit(&mut pb, 2, 10)), (1, emit(&mut pb, 2, 11))];
    for w in 2..4u32 {
        let behind = (0..2).map(|v| (v, emit(&mut pb, 1, 10 * w + v))).collect();
        let group = pb.group(behind);
        let link = pb.block(Block {
            actions: vec![Action::SkipSym { bits: 2 }],
            transition: Transition::DispatchPeek { bits: 1, group },
        });
        members.push((w, link));
    }
    let group = pb.group(members);
    let dispatch = pb
        .block(Block { actions: vec![], transition: Transition::DispatchPeek { bits: 2, group } });
    pb.define(
        head,
        Block {
            actions: vec![Action::InRem { rd: 3 }],
            transition: Transition::Branch {
                cond: Cond::Eq,
                rs: 3,
                rt: 0,
                taken: done,
                fallthrough: dispatch,
            },
        },
    );
    let init = pb.block(Block {
        actions: vec![Action::Mov { rd: 2, rs: 14 }],
        transition: Transition::Jump(head),
    });
    pb.entry(init);
    (pb.build().unwrap(), dispatch)
}

#[test]
fn tampered_composed_row_is_flagged_by_reverify_and_gates_the_lane() {
    if !recode_udp::jit::enabled() {
        return;
    }
    let _g = GATE.lock().unwrap();
    let (program, dispatch) = two_level_program();
    let placement = recode_udp::effclip::place(&program).unwrap();
    let mut image = recode_udp::machine::encode(&program, &placement).unwrap();
    let clean = image.verify_report.clone();
    assert_eq!(clean.error_count(), 0);
    // `101` (behind the first prefix handler), `01`, `110`, `01`, then `00`s:
    // enough of them that the word refill fills the buffer and the composed
    // table serves the head of the stream. A decode that takes `101` for a
    // two-bit code falls in step again at bit 12, so it halts cleanly too —
    // a run that traps is rerun on the interpreter, which no table can fool.
    let input = [0b1010_1110, 0b0100_0000, 0, 0, 0, 0, 0, 0, 0, 0];
    let run = |image: &recode_udp::machine::Image, cfg| Lane::new().run(image, &input, 80, cfg);
    let intact = run(&image, RunConfig::default()).unwrap();
    assert_eq!(intact.output[..6], [21, 11, 30, 11, 10, 10]);

    let first_level = (0..image.words.len() as u32)
        .find_map(|a| match image.predecoded(a)?.transition {
            recode_udp::machine::DecodedTransition::DispatchPeek { bits: 2, base } => Some(base),
            _ => None,
        })
        .expect("the first level's dispatch");
    let jit = image.jit().expect("artifact");
    let (wide, span) = jit.composed(2, first_level).expect("a two-level group composes");
    assert_eq!((wide, span.len()), (3, 32), "eight three-bit windows");
    assert!(jit.table_span().start < span.start && span.end == jit.table_span().end);

    // Row 5, `101`: width 3 in its low byte, the via-link bit is bit 10.
    let row = span.start + 5 * 4;
    for (what, off, xor) in [("width", row, 0x01u8), ("via-link bit", row + 1, 0x04)] {
        image.jit().expect("artifact").corrupt_for_test(off, xor);
        let report = verify_image(&program, &placement, &image);
        let errors: Vec<_> = (report.findings.iter())
            .filter(|f| {
                f.analysis == Analysis::TranslationValidation && f.severity == Severity::Error
            })
            .collect();
        let finding = errors
            .iter()
            .find(|f| f.message.contains("composed table"))
            .unwrap_or_else(|| panic!("{what}: the re-derived row must disagree: {errors:?}"));
        assert!(finding.message.contains("row 5"), "{what}: {finding:?}");
        assert!(finding.message.contains("2-bit group"), "{what}: {finding:?}");
        assert_eq!(finding.block, dispatch, "{what}: anchored at the dispatching block");

        let errors = errors.len();
        image.verify_report = report;
        let gated = run(&image, RunConfig::default()).unwrap_err();
        assert_eq!(gated, LaneError::Unverified { errors }, "{what}");
        let cfg = RunConfig { allow_unverified: true, ..RunConfig::default() };
        let damaged = run(&image, cfg).unwrap();
        if what == "width" {
            assert_eq!(damaged.output[..6], [21, 21, 31, 10, 20, 10], "`101` skipped two bits");
        } else {
            assert_eq!(damaged.output, intact.output);
            assert_eq!(damaged.cycles, intact.cycles - 2, "the link's hop went uncharged");
        }
        // Flip it back for the next round.
        image.jit().expect("artifact").corrupt_for_test(off, xor);
        image.verify_report = clean.clone();
        assert_eq!(run(&image, RunConfig::default()).unwrap().cycles, intact.cycles);
    }
}
