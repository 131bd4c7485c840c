//! Byte pins for the verifier's reports: the `Display` of every report —
//! header counts, envelope, loops and every finding with its folded count —
//! digested per image and compared with constants recorded before infos
//! were folded as they are found (and again when an interval's unbounded
//! lower end began to print as `-∞`). A faster verifier must print these
//! reports exactly; the gate's error text and `recode verify-program` are
//! this output.

use recode_codec::pipeline::{CompressedMatrix, MatrixCodecConfig};
use recode_sparse::prelude::*;
use recode_udp::asm::assemble_text_with_map;
use recode_udp::machine::assemble;
use recode_udp::progs::{delta, huffman, snappy};
use recode_udp::verify::VerifyReport;

/// FNV-1a, 64-bit, over a report's text.
fn digest(report: &VerifyReport) -> u64 {
    report
        .to_string()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The shipped images: Snappy, inverse delta, and Huffman over the flat
/// 8-bit table.
const SHIPPED_PINS: [(&str, u64); 3] = [
    ("snappy", 0x50b0_2634_0c96_d9c7),
    ("delta", 0x1e4b_4eb3_59a7_9b8a),
    ("huffman", 0x7651_07bc_f6be_18c5),
];

#[test]
fn shipped_images_print_their_recorded_reports() {
    let got: Vec<(&str, u64)> = SHIPPED_PINS
        .iter()
        .map(|&(name, _)| {
            let image = match name {
                "snappy" => snappy::build(),
                "delta" => delta::build(),
                _ => huffman::compile(&[8; 256]),
            };
            (name, digest(&image.expect("shipped image builds").verify_report))
        })
        .collect();
    assert_eq!(got, SHIPPED_PINS);
}

/// The `udp_dsh` operands of `recode-codec`'s encoder pins.
fn operand(name: &str) -> Csr {
    match name {
        "banded" => generate(
            &GenSpec::FemBand {
                n: 3000,
                band: 14,
                fill: 0.55,
                values: ValueModel::MixedRepeated { distinct: 12 },
            },
            42,
        ),
        _ => generate(
            &GenSpec::ErdosRenyi { n: 4000, avg_deg: 9.0, values: ValueModel::UniformRandom },
            7,
        ),
    }
}

/// `(matrix, index image digest, value image digest)`.
const HUFFMAN_PINS: [(&str, u64, u64); 2] = [
    ("banded", 0xe2d7_bd76_bbf5_8832, 0xdd7b_5153_2b53_0480),
    ("random", 0x678b_4120_19bb_99cc, 0x9cab_a4cc_c368_de93),
];

#[test]
fn compiled_huffman_images_print_their_recorded_reports() {
    let got: Vec<(&str, u64, u64)> = HUFFMAN_PINS
        .iter()
        .map(|&(name, _, _)| {
            let cm = CompressedMatrix::compress(&operand(name), MatrixCodecConfig::udp_dsh())
                .expect("compress");
            let report = |lengths: Option<&Vec<u8>>| {
                let image = huffman::compile(lengths.expect("udp_dsh trains a table"));
                digest(&image.expect("trained table compiles").verify_report)
            };
            (name, report(cm.index_table_lengths.as_ref()), report(cm.value_table_lengths.as_ref()))
        })
        .collect();
    assert_eq!(got, HUFFMAN_PINS);
}

/// Every program of the verifier's negative corpus, its report with
/// source lines attached.
const CORPUS_PINS: [(&str, &str, u64); 22] = [
    ("bad_output", include_str!("corpus/bad_output.udp"), 0xfa3a_b876_9c84_884c),
    (
        "budget_overflow_loop",
        include_str!("corpus/budget_overflow_loop.udp"),
        0xf9a9_8a30_c227_2586,
    ),
    (
        "counted_loop_constant_limit",
        include_str!("corpus/counted_loop_constant_limit.udp"),
        0x0449_e995_f53c_bc26,
    ),
    (
        "counted_loop_cursor_wraps",
        include_str!("corpus/counted_loop_cursor_wraps.udp"),
        0x5d19_d670_837b_f7d7,
    ),
    (
        "counted_loop_no_guard",
        include_str!("corpus/counted_loop_no_guard.udp"),
        0xa556_4551_0871_7df7,
    ),
    (
        "counted_loop_read_after_inrem",
        include_str!("corpus/counted_loop_read_after_inrem.udp"),
        0x686a_e090_3b33_57e3,
    ),
    (
        "counted_loop_shift_too_small",
        include_str!("corpus/counted_loop_shift_too_small.udp"),
        0xd95f_ab14_e0fd_ffc5,
    ),
    ("counted_stream_loop", include_str!("corpus/counted_stream_loop.udp"), 0x8504_a09d_8bf8_1bff),
    ("dead_write", include_str!("corpus/dead_write.udp"), 0x4971_96e3_22d7_3081),
    ("dispatch_per_bit", include_str!("corpus/dispatch_per_bit.udp"), 0x0eb1_611c_9d6b_e7c1),
    ("empty_group", include_str!("corpus/empty_group.udp"), 0xbf18_2a0c_4af9_fa05),
    ("incomplete_dispatch", include_str!("corpus/incomplete_dispatch.udp"), 0xb026_2750_44ec_3df4),
    ("infinite_loop", include_str!("corpus/infinite_loop.udp"), 0x70b3_7360_a32d_33be),
    ("invariant_exit", include_str!("corpus/invariant_exit.udp"), 0xd977_415a_ed5e_0e79),
    ("oob_store", include_str!("corpus/oob_store.udp"), 0x8cbd_c7e4_f234_1397),
    ("predecode_tamper", include_str!("corpus/predecode_tamper.udp"), 0xc20f_e6b2_77c1_7282),
    (
        "stream_loop_no_inrem",
        include_str!("corpus/stream_loop_no_inrem.udp"),
        0xf6e4_e29f_dd96_d2bf,
    ),
    ("unboundable_loop", include_str!("corpus/unboundable_loop.udp"), 0x7472_0db5_44bb_3cc4),
    ("unreachable_block", include_str!("corpus/unreachable_block.udp"), 0x922b_dc8b_d2fa_6d3a),
    ("uninit_read", include_str!("corpus/uninit_read.udp"), 0xb7ec_01dd_c818_29e2),
    ("unselectable_slot", include_str!("corpus/unselectable_slot.udp"), 0x073d_c1a5_147f_bb50),
    ("write_r0", include_str!("corpus/write_r0.udp"), 0x7a4a_a728_0796_32d1),
];

#[test]
fn corpus_programs_print_their_recorded_reports() {
    let got: Vec<(&str, u64)> = CORPUS_PINS
        .iter()
        .map(|&(name, src, _)| {
            let (program, map) =
                assemble_text_with_map(name, src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut report =
                assemble(&program).unwrap_or_else(|e| panic!("{name}: {e}")).verify_report;
            report.attach_lines(&map);
            (name, digest(&report))
        })
        .collect();
    let want: Vec<(&str, u64)> = CORPUS_PINS.iter().map(|&(name, _, pin)| (name, pin)).collect();
    assert_eq!(got, want);
}
