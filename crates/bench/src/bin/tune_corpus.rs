//! Auto-tuner study: modeled end-to-end cycles for the tuned
//! (stages, block) choice versus the untuned default (full-DSH 8 KiB
//! blocks), across the seven representative matrices plus a corpus sample.
//! The speedup column is the headline number EXPERIMENTS.md quotes for
//! `recode tune`.

use recode_bench::{corpus_entries, maybe_dump_json, parse_args};
use recode_core::seven;
use recode_core::tune::{default_candidate, tune_matrix};
use recode_core::SystemConfig;
use recode_sparse::util::geometric_mean;

struct Row {
    name: String,
    family: String,
    nnz: usize,
    stages: String,
    block_bytes: usize,
    tuned_cycles: u64,
    default_cycles: u64,
    tuned_bpnnz: f64,
    default_bpnnz: f64,
    speedup: f64,
}
recode_core::json_struct!(write Row {
    name, family, nnz, stages, block_bytes, tuned_cycles, default_cycles, tuned_bpnnz,
    default_bpnnz, speedup
});

fn main() {
    let mut args = parse_args();
    if args.sample.is_none() {
        args.sample = Some(24);
    }
    let sys = SystemConfig::ddr4();

    let mut mats: Vec<(String, String, recode_sparse::Csr)> =
        seven::generate_all(args.rep_scale, args.seed)
            .into_iter()
            .map(|(rep, m)| (rep.name.to_string(), rep.family.to_string(), m))
            .collect();
    for e in corpus_entries(&args) {
        let a = e.generate();
        mats.push((e.name.clone(), e.family.to_string(), a));
    }

    let rows: Vec<Row> = mats
        .iter()
        .map(|(name, family, a)| {
            let tuned =
                tune_matrix(a, &sys).unwrap_or_else(|e| panic!("{name}: tune failed: {e}")).config;
            let base = default_candidate(a, &sys)
                .unwrap_or_else(|e| panic!("{name}: default model failed: {e}"));
            let tuned_cycles = tuned.modeled_total_cycles();
            let default_cycles = base.total_cycles();
            Row {
                name: name.clone(),
                family: family.clone(),
                nnz: a.nnz(),
                stages: tuned.stages.name().to_string(),
                block_bytes: tuned.block_bytes,
                tuned_cycles,
                default_cycles,
                tuned_bpnnz: tuned.wire_bytes_per_nnz,
                default_bpnnz: base.wire_bytes_per_nnz,
                speedup: default_cycles as f64 / tuned_cycles.max(1) as f64,
            }
        })
        .collect();

    println!("Auto-tuner study — modeled cycles, tuned vs default ({} matrices)", rows.len());
    println!(
        "{:<26} {:<10} {:>9} {:<7} {:>7} {:>7} {:>12} {:>12} {:>8}",
        "matrix",
        "family",
        "nnz",
        "stages",
        "block",
        "B/nnz",
        "tuned cyc",
        "default cyc",
        "speedup"
    );
    for r in &rows {
        println!(
            "{:<26} {:<10} {:>9} {:<7} {:>7} {:>7.2} {:>12} {:>12} {:>7.2}x",
            r.name,
            r.family,
            r.nnz,
            r.stages,
            r.block_bytes,
            r.tuned_bpnnz,
            r.tuned_cycles,
            r.default_cycles,
            r.speedup
        );
    }
    let baseline: Vec<f64> = rows.iter().map(|r| r.default_bpnnz).collect();
    let tuned_b: Vec<f64> = rows.iter().map(|r| r.tuned_bpnnz).collect();
    if let (Some(b), Some(t)) = (geometric_mean(&baseline), geometric_mean(&tuned_b)) {
        println!("geometric-mean wire B/nnz: tuned {t:.2} vs default {b:.2} (raw CSR 12.00)");
    }
    let speedups: Vec<f64> = rows.iter().map(|r| r.speedup).collect();
    if let Some(g) = geometric_mean(&speedups) {
        println!("geometric-mean modeled speedup: {g:.2}x");
    }
    maybe_dump_json(&args, &rows);
}
