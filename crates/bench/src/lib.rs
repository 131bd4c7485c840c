//! Shared harness plumbing for the per-figure binaries.
//!
//! Every `fig*` binary accepts the same flags:
//!
//! ```text
//! --scale small|medium|paper   corpus size regime   (default: medium)
//! --sample N                   use only the first N corpus entries
//! --seed N                     corpus master seed   (default: 2019)
//! --blocks N                   UDP-simulated blocks per stream (default: 24)
//! --rep-scale F                size factor for the seven representative
//!                              matrices (default: 0.05)
//! --json PATH                  also dump rows as JSON
//! ```

use recode_core::corpus::{corpus, CorpusEntry, CorpusScale};
use recode_core::experiment::{materialize, spmv_study};
use recode_core::json::ToJson;
use recode_core::{report, seven, SystemConfig};
use std::path::PathBuf;

/// Parsed harness flags.
#[derive(Debug, Clone)]
pub struct Args {
    /// Corpus size regime.
    pub scale: CorpusScale,
    /// Optional cap on corpus entries.
    pub sample: Option<usize>,
    /// Corpus master seed.
    pub seed: u64,
    /// UDP-simulated blocks per stream.
    pub blocks: usize,
    /// Scale factor for the seven representative matrices.
    pub rep_scale: f64,
    /// Optional JSON dump path.
    pub json: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: CorpusScale::Medium,
            sample: None,
            seed: 2019,
            blocks: 24,
            rep_scale: 0.05,
            json: None,
        }
    }
}

/// Parses `std::env::args`. Exits with a message on bad flags.
pub fn parse_args() -> Args {
    let mut out = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("missing value for {}", argv[*i - 1]);
            std::process::exit(2);
        })
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                out.scale = match value(&mut i).as_str() {
                    "small" => CorpusScale::Small,
                    "medium" => CorpusScale::Medium,
                    "paper" => CorpusScale::Paper,
                    other => {
                        eprintln!("unknown scale `{other}` (small|medium|paper)");
                        std::process::exit(2);
                    }
                };
            }
            "--sample" => out.sample = Some(value(&mut i).parse().expect("--sample N")),
            "--seed" => out.seed = value(&mut i).parse().expect("--seed N"),
            "--blocks" => out.blocks = value(&mut i).parse().expect("--blocks N"),
            "--rep-scale" => out.rep_scale = value(&mut i).parse().expect("--rep-scale F"),
            "--json" => out.json = Some(PathBuf::from(value(&mut i))),
            "--help" | "-h" => {
                eprintln!("flags: --scale small|medium|paper --sample N --seed N --blocks N --rep-scale F --json PATH");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag `{other}` (try --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    out
}

/// Builds the (possibly sampled) corpus for these args.
pub fn corpus_entries(args: &Args) -> Vec<CorpusEntry> {
    let mut entries = corpus(args.scale, args.seed);
    if let Some(n) = args.sample {
        entries.truncate(n);
    }
    entries
}

/// Writes rows as pretty JSON if `--json` was given.
pub fn maybe_dump_json<T: ToJson>(args: &Args, rows: &T) {
    if let Some(path) = &args.json {
        std::fs::write(path, rows.to_json().to_string_pretty()).unwrap_or_else(|e| {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        });
        eprintln!("wrote {}", path.display());
    }
}

/// Shared driver for Figs. 14/15: the seven representative matrices plus a
/// corpus sample, evaluated under the three scenarios on `sys`.
pub fn run_spmv_figure(args: &Args, sys: SystemConfig, title: &str) {
    let seven_mats: Vec<(String, String, recode_sparse::Csr)> =
        seven::generate_all(args.rep_scale, args.seed)
            .into_iter()
            .map(|(rep, m)| (rep.name.to_string(), rep.family.to_string(), m))
            .collect();
    let mut rows = spmv_study(&sys, &seven_mats, args.blocks);

    let mut corpus_args = args.clone();
    if corpus_args.sample.is_none() {
        corpus_args.sample = Some(60);
    }
    let entries = corpus_entries(&corpus_args);
    eprintln!("evaluating corpus sample of {} matrices...", entries.len());
    rows.extend(spmv_study(&sys, &materialize(&entries), args.blocks));
    print!("{}", report::fig14_15(title, &rows));
    maybe_dump_json(args, &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_medium_full_corpus() {
        let a = Args::default();
        assert_eq!(a.scale, CorpusScale::Medium);
        assert!(a.sample.is_none());
        assert_eq!(a.seed, 2019);
    }

    #[test]
    fn corpus_entries_respects_sample() {
        let a = Args { scale: CorpusScale::Small, sample: Some(5), ..Default::default() };
        assert_eq!(corpus_entries(&a).len(), 5);
    }
}
