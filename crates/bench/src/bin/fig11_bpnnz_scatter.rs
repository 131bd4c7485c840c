//! Regenerates Fig. 11: bytes-per-non-zero vs #non-zeros scatter across the
//! corpus (paper finding: no correlation between size and compressibility).

use recode_bench::{corpus_entries, maybe_dump_json, parse_args};
use recode_core::experiment::compression_study;
use recode_core::report;

fn main() {
    let args = parse_args(None);
    let entries = corpus_entries(&args);
    let rows = compression_study(&entries);
    print!("{}", report::fig11(&rows));
    // The paper's observation: compression is structure-, not
    // size-correlated. Report the log-log correlation coefficient.
    let xs: Vec<f64> = rows.iter().map(|r| (r.nnz as f64).ln()).collect();
    let ys: Vec<f64> = rows.iter().map(|r| r.dsh_bpnnz.ln()).collect();
    println!("log-log correlation(nnz, DSH B/nnz): {:+.3}", correlation(&xs, &ys));
    maybe_dump_json(&args, &rows);
}

fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}
