//! Shared harness plumbing for the per-figure binaries, which all read the
//! flags of [`USAGE`] through [`parse_args`].

use recode_core::cli::{self, UsageError};
use recode_core::corpus::{corpus, CorpusEntry, CorpusScale};
use recode_core::experiment::{materialize, spmv_study};
use recode_core::json::ToJson;
use recode_core::{report, seven, SystemConfig};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::str::FromStr;

/// The flags [`Args::parse`] reads.
pub const USAGE: &str =
    "[--scale small|medium|paper] [--sample N] [--seed N] [--blocks N] [--rep-scale F] [--json PATH]";

/// Parsed harness flags.
#[derive(Debug, Clone)]
pub struct Args {
    /// Corpus size regime (`--scale`, default medium).
    pub scale: CorpusScale,
    /// Use only the first N corpus entries (`--sample`).
    pub sample: Option<usize>,
    /// Corpus master seed (`--seed`, default 2019).
    pub seed: u64,
    /// UDP-simulated blocks per stream (`--blocks`, default 24).
    pub blocks: usize,
    /// Size factor for the seven representative matrices (`--rep-scale`,
    /// default 0.05).
    pub rep_scale: f64,
    /// Also dump rows as JSON there (`--json`).
    pub json: Option<PathBuf>,
}

/// A `--rep-scale` value: a number in (0, 1].
struct RepScale(f64);

impl FromStr for RepScale {
    type Err = ();
    fn from_str(s: &str) -> Result<RepScale, ()> {
        s.parse().ok().filter(|f| *f > 0.0 && *f <= 1.0).map(RepScale).ok_or(())
    }
}

impl Args {
    /// Reads the harness flags from `args`; any other token, a `--sample`
    /// of 0 or a `--rep-scale` outside (0, 1] is a [`UsageError`].
    pub fn parse(mut args: cli::Args) -> Result<Args, UsageError> {
        let parsed = Args {
            scale: args.value("--scale", "small|medium|paper")?.unwrap_or(CorpusScale::Medium),
            sample: args.value("--sample", "an integer >= 1")?.map(NonZeroUsize::get),
            seed: args.value("--seed", "an integer")?.unwrap_or(2019),
            blocks: args.value("--blocks", "an integer")?.unwrap_or(24),
            rep_scale: args
                .value("--rep-scale", "a number in (0, 1]")?
                .map_or(0.05, |r: RepScale| r.0),
            json: args.value("--json", "a path")?,
        };
        args.finish()?;
        Ok(parsed)
    }
}

/// This process's command line and its usage line, `flags` after the
/// binary's name; `--help` or `-h` prints the usage line and exits 0.
pub fn command_line(flags: &str) -> (cli::Args, String) {
    let mut args = cli::Args::from_env();
    let usage = format!("{} {flags}", args.command());
    if args.switch("--help") || args.switch("-h") {
        eprintln!("usage: {usage}");
        std::process::exit(0);
    }
    (args, usage)
}

/// Parses this process's harness flags, with `sample` the binary's own
/// default for `--sample`; a usage error prints the usage line and exits 2.
pub fn parse_args(sample: Option<usize>) -> Args {
    let (args, usage) = command_line(USAGE);
    let args = Args::parse(args).unwrap_or_else(|e| e.exit(&usage));
    Args { sample: args.sample.or(sample), ..args }
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

    let entries = corpus_entries(args);
    eprintln!("evaluating corpus sample of {} matrices...", entries.len());
    rows.extend(spmv_study(&sys, &materialize(&entries), args.blocks));
    print!("{}", report::fig14_15(title, &rows));
    maybe_dump_json(args, &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, UsageError> {
        Args::parse(cli::Args::new("fig", argv.iter().map(|s| (*s).to_string())))
    }

    #[test]
    fn defaults_are_medium_full_corpus() {
        let a = parse(&[]).unwrap();
        assert_eq!((a.scale, a.sample, a.seed, a.blocks), (CorpusScale::Medium, None, 2019, 24));
    }

    #[test]
    fn parse_refuses_a_bad_value_a_missing_one_and_an_unknown_flag() {
        let e = parse(&["--sample", "abc"]).unwrap_err();
        assert_eq!(e.to_string(), "bad --sample `abc` (expected an integer >= 1)");
        let e = parse(&["--sample", "0"]).unwrap_err();
        assert_eq!(e.to_string(), "bad --sample `0` (expected an integer >= 1)");
        for bad in ["0", "nan", "1.5"] {
            let e = parse(&["--rep-scale", bad]).unwrap_err();
            assert_eq!(
                e.to_string(),
                format!("bad --rep-scale `{bad}` (expected a number in (0, 1])")
            );
        }
        assert_eq!(parse(&["--rep-scale", "1"]).unwrap().rep_scale, 1.0);
        assert_eq!(parse(&["--json"]).unwrap_err(), UsageError::MissingValue("--json".into()));
        assert!(matches!(parse(&["--scale", "huge"]), Err(UsageError::BadValue { .. })));
        assert!(matches!(parse(&["--bogus"]), Err(UsageError::UnexpectedFlag { .. })));
    }

    #[test]
    fn corpus_entries_respects_sample() {
        let a = parse(&["--scale", "small", "--sample", "5", "--json", "rows.json"]).unwrap();
        assert_eq!(a.json, Some(PathBuf::from("rows.json")));
        assert_eq!(corpus_entries(&a).len(), 5);
    }
}
