//! Assembler error-path coverage (ISSUE 4 satellite): every rejection must
//! carry the offending source line, because `recode verify-program` and the
//! verifier's line-annotated findings are only as good as the assembler's
//! line tracking.

use recode_udp::asm::{assemble_text, assemble_text_with_map, AsmError};
use recode_udp::isa::{Transition, MAX_ACTIONS_PER_BLOCK};

fn fails(src: &str) -> AsmError {
    assemble_text("t", src).expect_err("expected assembly to fail")
}

#[test]
fn unknown_opcode_reports_its_line() {
    let e = fails(".entry m\nm:\n    limm r1, 0\n    frobnicate r1\n    halt\n");
    assert_eq!(e.line, 4, "{e}");
    assert!(e.msg.contains("frobnicate"), "{e}");
}

#[test]
fn duplicate_label_reports_the_second_definition() {
    let e = fails(".entry m\nm:\n    halt\nm:\n    halt\n");
    assert_eq!(e.line, 4, "{e}");
    assert!(e.msg.contains("duplicate"), "{e}");
}

#[test]
fn undefined_jump_target_reports_the_jump_line() {
    let e = fails(".entry m\nm:\n    limm r15, 0\n    jump nowhere\n");
    assert_eq!(e.line, 4, "{e}");
    assert!(e.msg.contains("nowhere"), "{e}");
}

#[test]
fn undefined_branch_target_reports_the_branch_line() {
    let e = fails(".entry m\nm:\n    beq r1, r0, gone\n    halt\n");
    assert_eq!(e.line, 3, "{e}");
    assert!(e.msg.contains("gone"), "{e}");
}

#[test]
fn missing_entry_is_a_file_level_error() {
    let e = fails("m:\n    limm r15, 0\n    halt\n");
    assert!(e.msg.contains(".entry"), "{e}");
}

#[test]
fn entry_naming_an_undefined_label_fails() {
    let e = fails(".entry ghost\nm:\n    halt\n");
    assert!(e.msg.contains("ghost"), "{e}");
}

#[test]
fn falling_off_the_end_reports_the_dangling_code() {
    let e = fails(".entry m\nm:\n    limm r1, 5\n");
    assert!(e.line > 0, "fall-off error lost its line: {e}");
    assert!(e.msg.contains("fall"), "{e}");
}

#[test]
fn long_action_runs_split_exactly_at_the_block_limit() {
    // 9 actions = 4 + 4 + 1 across three chunks joined by synthesized jumps.
    use std::fmt::Write as _;
    let mut body = String::new();
    for i in 0..9 {
        writeln!(body, "    limm r{}, {i}", (i % 13) + 1).unwrap();
    }
    let src = format!(".entry m\nm:\n{body}    limm r15, 0\n    halt\n");
    let (program, map) = assemble_text_with_map("t", &src).unwrap();
    // 10 actions total -> 3 chunks of 4/4/2, chained by synthesized jumps
    // (continuation ids are allocated tail-first, so follow the chain).
    assert_eq!(program.blocks.len(), 3);
    let c0 = program.entry as usize;
    let Transition::Jump(n1) = program.blocks[c0].transition else {
        panic!("chunk 0 must jump to its continuation");
    };
    let c1 = n1 as usize;
    let Transition::Jump(n2) = program.blocks[c1].transition else {
        panic!("chunk 1 must jump to its continuation");
    };
    let c2 = n2 as usize;
    assert_eq!(program.blocks[c0].actions.len(), MAX_ACTIONS_PER_BLOCK);
    assert_eq!(program.blocks[c1].actions.len(), MAX_ACTIONS_PER_BLOCK);
    assert_eq!(program.blocks[c2].actions.len(), 2);
    // The source map follows the split: chunk 0 starts at the label (line 2),
    // continuation chunks are synthesized (label_line 0) but their actions
    // keep real lines.
    assert_eq!(map.blocks[c0].label_line, 2);
    assert_eq!(map.blocks[c0].action_lines, vec![3, 4, 5, 6]);
    assert_eq!(map.blocks[c1].label_line, 0);
    assert_eq!(map.blocks[c1].action_lines, vec![7, 8, 9, 10]);
    assert_eq!(map.blocks[c2].action_lines, vec![11, 12]);
    // Continuation jumps are synthesized, so chunk 0's transition has no
    // source line; the final chunk's halt does (line 13).
    assert_eq!(map.blocks[c0].transition_line, 0);
    assert_eq!(map.blocks[c2].transition_line, 13);
}

#[test]
fn source_map_spans_cover_label_through_transition() {
    let src = ".entry m\nm:\n    limm r15, 0\n    halt\n";
    let (_, map) = assemble_text_with_map("t", src).unwrap();
    assert_eq!(map.span(0), Some((2, 4)));
    assert_eq!(map.line_for(0, Some(0)), Some(3));
    assert_eq!(map.line_for(0, None), Some(2));
}

#[test]
fn operand_count_errors_carry_the_line() {
    // A missing operand, then operands outside their opcode row's range:
    // all caught while parsing the statement, so the error names its line
    // and its mnemonic once, with no file-level `program error` wrapping.
    for (stmt, what) in [
        ("limm r1", "expects"),
        ("limm r1, 20000", "outside"),
        ("insym r1, 40", "outside"),
        ("shli r1, r1, 70", "outside"),
        ("addi r1, r1, 2000", "outside"),
    ] {
        let e = fails(&format!(".entry m\nm:\n    {stmt}\n    halt\n"));
        assert_eq!(e.line, 3, "{e}");
        assert!(e.msg.contains(what) && !e.msg.contains("program error"), "{e}");
        let mnemonic = stmt.split(' ').next().unwrap();
        assert_eq!(e.msg.matches(mnemonic).count(), 1, "{e}");
    }
}

#[test]
fn bad_register_and_bad_group_report_their_lines() {
    let e = fails(".entry m\nm:\n    limm r16, 0\n    halt\n");
    assert_eq!(e.line, 3, "{e}");
    let e = fails(".entry m\nm:\n    dispatch.sym 2, nosuch\n");
    assert_eq!(e.line, 3, "{e}");
    assert!(e.msg.contains("nosuch"), "{e}");
}
