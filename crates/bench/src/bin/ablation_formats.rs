//! Ablation: format-specialized compression vs programmable recoding.
//!
//! §VI-B contrasts the UDP approach with "block-oriented, customized data
//! storage formats": those shrink memory traffic only where the sparsity
//! pattern cooperates, and each needs its own hand-written CPU kernel. This
//! study puts the cited baselines (ELLPACK, SELL-C-σ \[27\], bitmasked 4×4
//! register blocks \[15\], varint-delta CSR \[28\]) next to DSH recoding on
//! the same corpus, in the same bytes-per-non-zero currency. SELL-C-σ is
//! built (it backs a SpMV kernel); the other three are counted from the CSR
//! arrays, since their size is all this study reads.

use recode_bench::{corpus_entries, maybe_dump_json, parse_args};
use recode_codec::pipeline::{CompressedMatrix, MatrixCodecConfig};
use recode_codec::varint::{write_uvarint, MAX_VARINT_LEN};
use recode_sparse::formats::SellCs;
use recode_sparse::util::geometric_mean;
use recode_sparse::{par, Csr};

/// `bytes` over `a`'s non-zeros; 0 for an empty matrix, which every count
/// below gives 0 bytes.
fn per_nnz(bytes: usize, a: &Csr) -> f64 {
    bytes as f64 / a.nnz().max(1) as f64
}

/// ELLPACK: every row padded to the widest one, 12 bytes a slot (padding
/// included). `NaN` when the slot count overflows `usize`; nothing is
/// allocated either way.
fn ell_bytes_per_nnz(a: &Csr) -> f64 {
    let width = a.row_ptr().windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    width
        .checked_mul(a.nrows())
        .and_then(|slots| slots.checked_mul(12))
        .map_or(f64::NAN, |bytes| per_nnz(bytes, a))
}

/// Bitmasked 4×4 register blocks (after Buluç et al. \[15\]): 8 bytes a
/// value, plus a 4-byte block column and a 2-byte mask per occupied block.
fn bitmask_4x4_bytes_per_nnz(a: &Csr) -> f64 {
    let mut blocks = 0;
    let mut block_cols = Vec::new();
    for strip in (0..a.nrows()).step_by(4) {
        let range = a.row_ptr()[strip]..a.row_ptr()[(strip + 4).min(a.nrows())];
        block_cols.clear();
        block_cols.extend(a.col_idx()[range].iter().map(|c| c / 4));
        block_cols.sort_unstable();
        block_cols.dedup();
        blocks += block_cols.len();
    }
    per_nnz(8 * a.nnz() + 6 * blocks, a)
}

/// Varint-delta CSR (after Lawlor \[28\]): 8 bytes a value, plus each
/// column's gap to the previous one in its row, less one, as a varint.
fn varint_csr_bytes_per_nnz(a: &Csr) -> f64 {
    let mut scratch = Vec::with_capacity(MAX_VARINT_LEN);
    let mut index_bytes = 0;
    for r in 0..a.nrows() {
        // Columns strictly increase, so the next one is at least `next`.
        let mut next = 0;
        for &c in a.row(r).0 {
            scratch.clear();
            index_bytes += write_uvarint(&mut scratch, u64::from(c - next));
            next = c + 1;
        }
    }
    per_nnz(index_bytes + 8 * a.nnz(), a)
}

struct Row {
    name: String,
    family: String,
    nnz: usize,
    csr: f64,
    ell: f64,
    sell_32_512: f64,
    bitmask_4x4: f64,
    varint_csr: f64,
    dsh: f64,
}
recode_core::json_struct!(write Row {
    name, family, nnz, csr, ell, sell_32_512, bitmask_4x4, varint_csr, dsh
});

fn main() {
    let args = parse_args(Some(60));
    let entries = corpus_entries(&args);
    let rows: Vec<Row> = par::map(&entries, |_, e| {
        let a = e.generate();
        Row {
            name: e.name.clone(),
            family: e.family.to_string(),
            nnz: a.nnz(),
            csr: 12.0,
            ell: ell_bytes_per_nnz(&a),
            sell_32_512: SellCs::from_csr(&a, 32, 512).map_or(f64::NAN, |f| f.bytes_per_nnz()),
            bitmask_4x4: bitmask_4x4_bytes_per_nnz(&a),
            varint_csr: varint_csr_bytes_per_nnz(&a),
            dsh: CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh())
                .map_or(f64::NAN, |c| c.bytes_per_nnz()),
        }
    });

    println!(
        "Format ablation — geometric mean bytes/nnz over {} matrices (lower is better)",
        rows.len()
    );
    let g = |f: fn(&Row) -> f64| {
        geometric_mean(
            &rows.iter().map(f).filter(|v| v.is_finite() && *v > 0.0).collect::<Vec<_>>(),
        )
        .unwrap_or(f64::NAN)
    };
    println!("{:<28} {:>8}   notes", "format", "B/nnz");
    println!("{:<28} {:>8.2}   baseline", "CSR", g(|r| r.csr));
    println!("{:<28} {:>8.2}   pads to the longest row", "ELLPACK", g(|r| r.ell));
    println!("{:<28} {:>8.2}   sorted 32-row chunks", "SELL-32-512 [27]", g(|r| r.sell_32_512));
    println!(
        "{:<28} {:>8.2}   wins only on dense blocks",
        "bitmask 4x4 blocks [15]",
        g(|r| r.bitmask_4x4)
    );
    println!(
        "{:<28} {:>8.2}   CPU decodes inline in SpMV",
        "varint-delta CSR [28]",
        g(|r| r.varint_csr)
    );
    println!(
        "{:<28} {:>8.2}   general; decode offloaded to UDP",
        "DSH recoding (this paper)",
        g(|r| r.dsh)
    );
    println!("\nper-family geomeans (DSH | best format):");
    let mut fams: Vec<&str> = rows.iter().map(|r| r.family.as_str()).collect();
    fams.sort_unstable();
    fams.dedup();
    for fam in fams {
        let sub: Vec<&Row> = rows.iter().filter(|r| r.family == fam).collect();
        let gm = |f: fn(&Row) -> f64| {
            geometric_mean(
                &sub.iter().map(|r| f(r)).filter(|v| v.is_finite() && *v > 0.0).collect::<Vec<_>>(),
            )
            .unwrap_or(f64::NAN)
        };
        let best_fmt =
            [gm(|r| r.ell), gm(|r| r.sell_32_512), gm(|r| r.bitmask_4x4), gm(|r| r.varint_csr)]
                .into_iter()
                .fold(f64::INFINITY, f64::min);
        println!("  {:<12} {:>6.2} | {:>6.2}", fam, gm(|r| r.dsh), best_fmt);
    }
    maybe_dump_json(&args, &rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use recode_sparse::gen::{generate, GenSpec, ValueModel};

    #[test]
    fn paper_matrix_counts_are_exact() {
        let a = Csr::try_from_parts(
            4,
            4,
            vec![0, 2, 2, 5, 7],
            vec![0, 2, 0, 2, 3, 1, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
        )
        .unwrap();
        // 4 rows × 3 slots; one occupied 4×4 block; one byte per gap.
        assert_eq!(ell_bytes_per_nnz(&a), 144.0 / 7.0);
        assert_eq!(bitmask_4x4_bytes_per_nnz(&a), 62.0 / 7.0);
        assert_eq!(varint_csr_bytes_per_nnz(&a), 9.0);
        let empty = Csr::try_from_parts(3, 3, vec![0, 0, 0, 0], vec![], vec![]).unwrap();
        for count in [ell_bytes_per_nnz, bitmask_4x4_bytes_per_nnz, varint_csr_bytes_per_nnz] {
            assert_eq!(count(&empty), 0.0);
        }
    }

    #[test]
    fn one_dense_row_explodes_ell_padding_which_is_counted_not_built() {
        // One full row in an otherwise diagonal matrix: ELL pads all 70,000
        // rows to its width, 4.9e9 slots (59 GB if built).
        let n = 70_000;
        let row_ptr = std::iter::once(0).chain(n..2 * n).collect();
        let cols = (0..n as u32).chain(1..n as u32).collect();
        let a = Csr::try_from_parts(n, n, row_ptr, cols, vec![1.0; 2 * n - 1]).unwrap();
        let ell = ell_bytes_per_nnz(&a);
        assert_eq!(ell, (12 * n * n) as f64 / (2 * n - 1) as f64);
        assert!(ell > 100.0, "{ell}");
    }

    #[test]
    fn banded_indices_compress_to_one_varint_byte_scattered_ones_cost_more() {
        let banded = generate(
            &GenSpec::FemBand {
                n: 400,
                band: 10,
                fill: 0.5,
                values: ValueModel::MixedRepeated { distinct: 12 },
            },
            5,
        );
        let banded = varint_csr_bytes_per_nnz(&banded);
        // Under 1.3 index bytes per non-zero on top of the 8-byte value.
        assert!(banded < 9.3, "band deltas fit one varint byte, got {banded:.2}");
        let scattered =
            generate(&GenSpec::ErdosRenyi { n: 3000, avg_deg: 3.0, values: ValueModel::Ones }, 7);
        let scattered = varint_csr_bytes_per_nnz(&scattered);
        // Multi-byte varints, still cheaper than 4-byte raw indices.
        assert!(scattered > 9.3 && scattered < 12.0, "{scattered:.2}");
    }

    #[test]
    fn dense_blocks_save_index_bytes_scattered_blocks_lose() {
        let blocked = generate(
            &GenSpec::BlockJacobian {
                nblocks: 40,
                block: 8,
                coupling: 1.0,
                values: ValueModel::MixedRepeated { distinct: 30 },
            },
            6,
        );
        let dense = bitmask_4x4_bytes_per_nnz(&blocked);
        assert!(dense < 10.0, "dense blocks must beat 12 B/nnz CSR: {dense}");
        let scattered =
            generate(&GenSpec::ErdosRenyi { n: 500, avg_deg: 4.0, values: ValueModel::Ones }, 9);
        let sparse = bitmask_4x4_bytes_per_nnz(&scattered);
        assert!(sparse > 11.0, "scattered blocks pay ~6 B/nnz of block overhead: {sparse}");
    }
}
