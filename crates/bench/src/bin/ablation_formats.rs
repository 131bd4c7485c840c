//! Ablation: format-specialized compression vs programmable recoding.
//!
//! §VI-B contrasts the UDP approach with "block-oriented, customized data
//! storage formats": those shrink memory traffic only where the sparsity
//! pattern cooperates, and each needs its own hand-written CPU kernel. This
//! study puts the cited baselines (ELLPACK, SELL-C-σ \[27\], bitmasked 4×4
//! register blocks \[15\], varint-delta CSR \[28\]) next to DSH recoding on
//! the same corpus, in the same bytes-per-non-zero currency.

use recode_bench::{corpus_entries, maybe_dump_json, parse_args};
use recode_codec::pipeline::{CompressedMatrix, MatrixCodecConfig};
use recode_sparse::formats::{BitmaskBlockCsr, Ell, SellCs, VarintCsr};
use recode_sparse::par;
use recode_sparse::util::geometric_mean;

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
    let mut args = parse_args();
    if args.sample.is_none() {
        args.sample = Some(60);
    }
    let entries = corpus_entries(&args);
    let rows: Vec<Row> = par::map(&entries, |_, e| {
        let a = e.generate();
        Row {
            name: e.name.clone(),
            family: e.family.to_string(),
            nnz: a.nnz(),
            csr: 12.0,
            ell: Ell::from_csr(&a).map_or(f64::NAN, |f| f.bytes_per_nnz()),
            sell_32_512: SellCs::from_csr(&a, 32, 512).map_or(f64::NAN, |f| f.bytes_per_nnz()),
            bitmask_4x4: BitmaskBlockCsr::from_csr(&a).map_or(f64::NAN, |f| f.bytes_per_nnz()),
            varint_csr: VarintCsr::from_csr(&a).map_or(f64::NAN, |f| f.bytes_per_nnz()),
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
