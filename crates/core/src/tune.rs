//! Per-matrix auto-tuning: search codec-stage subset × block size, select
//! by deterministic modeled cycles, persist the winner.
//!
//! The paper's thesis is that in a data-movement-limited world the right
//! recoding is *per matrix*: whether Huffman's bytes are worth its lane
//! cycles, and how finely the streams are blocked, depends on the matrix.
//! This module makes that choice searched and persisted instead of
//! hard-coded:
//!
//! * **Search space** — every [`StageSubset`] (DSH / DS / Snappy-only) ×
//!   every block size in [`BLOCK_SIZES`]: nine candidates, each recoded and
//!   decoded once on the lane simulator. The multiply kernel is not an axis:
//!   the engine hands the CPU decoded CSR, so a kernel that wants another
//!   format would have to be charged a conversion nobody runs warm.
//! * **Objective** — the model's own: [`perfmodel::makespan`] over the
//!   candidate's decode cycles (lane makespan against stream + DMA time,
//!   whichever binds) and [`perfmodel::multiply_cycles`] at the candidate's
//!   wire bytes per non-zero — the pipeline `recode spmv` runs. The config
//!   is a pure function of (matrix, system model).
//! * **Tiebreak** — lexicographic on (modeled total cycles, wire bytes per
//!   nnz, stage-subset order, block size), so ties resolve identically
//!   everywhere.
//! * **Persistence** — the winner is sealed as a `recode-tuned/v2` JSON
//!   document (via the dependency-free [`crate::json`] writer, so write →
//!   read → write round-trips byte-for-byte) keyed by an FNV-1a digest of
//!   the matrix. Loading validates schema and digest with typed
//!   [`TuneError`]s — a stale tuning (a `v1` document with its kernel
//!   fields included) is an error, never a silent fallback.

use crate::arch::SystemConfig;
use crate::error::ExecError;
use crate::exec::{ExecStats, RecodedSpmv};
use crate::json::{self, Json};
use crate::perfmodel;
use recode_codec::block::CompressedBlock;
use recode_codec::pipeline::MatrixCodecConfig;
use recode_sparse::Csr;
use recode_udp::isa::SCRATCHPAD_BYTES;
use recode_udp::progs::DshDecoder;
use std::fmt;

/// Schema tag of the persisted tuned-config document.
pub const TUNED_SCHEMA: &str = "recode-tuned/v2";

/// Block sizes the search sweeps (uncompressed bytes per codec block).
/// All at or below the 8 KB UDP default so every candidate fits lane
/// local memory.
pub const BLOCK_SIZES: [usize; 3] = [2048, 4096, 8192];

/// Codec stage subsets the search sweeps, mirroring the ablation presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageSubset {
    /// Delta+Snappy+Huffman indices, Snappy+Huffman values (paper default).
    Dsh,
    /// Delta+Snappy indices, Snappy values (no Huffman).
    Ds,
    /// Snappy only on both streams (the CPU-baseline pipeline).
    Snappy,
}

impl StageSubset {
    /// All subsets, in tiebreak order.
    pub const ALL: [StageSubset; 3] = [StageSubset::Dsh, StageSubset::Ds, StageSubset::Snappy];

    /// Stable machine name used by the persistence schema and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            StageSubset::Dsh => "dsh",
            StageSubset::Ds => "ds",
            StageSubset::Snappy => "snappy",
        }
    }

    /// The subset's preset matrix codec config, at the preset's block size.
    pub fn preset(self) -> MatrixCodecConfig {
        match self {
            StageSubset::Dsh => MatrixCodecConfig::udp_dsh(),
            StageSubset::Ds => MatrixCodecConfig::udp_ds(),
            StageSubset::Snappy => MatrixCodecConfig::cpu_snappy(),
        }
    }

    /// The matrix codec config for this subset at the given block size.
    pub fn codec_config(self, block_bytes: usize) -> MatrixCodecConfig {
        let mut c = self.preset();
        c.index.block_bytes = block_bytes;
        c.value.block_bytes = block_bytes;
        c
    }
}

/// Inverse of [`StageSubset::name`].
impl std::str::FromStr for StageSubset {
    type Err = TuneError;

    fn from_str(s: &str) -> Result<Self, TuneError> {
        let known = StageSubset::ALL.into_iter().find(|st| st.name() == s);
        known.ok_or_else(|| TuneError::Malformed(format!("unknown stage subset `{s}`")))
    }
}

/// Typed failures for tuning and tuned-config persistence.
#[derive(Debug, Clone, PartialEq)]
pub enum TuneError {
    /// The document's schema tag is not [`TUNED_SCHEMA`].
    SchemaMismatch {
        /// What the document carried.
        found: String,
    },
    /// The config was tuned for a different matrix (digest or shape drift).
    DigestMismatch {
        /// Digest of the matrix being run.
        expected: String,
        /// Digest recorded in the config.
        found: String,
    },
    /// An already-recoded operand carries a different codec stream than
    /// the tuned config prescribes.
    CodecMismatch,
    /// The document is not a valid tuned-config JSON object.
    Malformed(String),
    /// Compression or simulated decode failed while scoring a candidate.
    Exec(ExecError),
    /// A codec candidate's measured lane cycles fell outside the certified
    /// static envelope of its decoder programs — the analytic decode model
    /// and the cycle-bound certifier disagree, so the tuner refuses to
    /// score the candidate (a wrong model would crown a wrong winner).
    BoundViolated {
        /// Stage subset of the offending candidate.
        stages: &'static str,
        /// Block size of the offending candidate.
        block_bytes: usize,
        /// Measured busy cycles across both streams.
        busy_cycles: u64,
        /// Certified minimum total.
        min: u64,
        /// Certified maximum total.
        max: u64,
    },
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::SchemaMismatch { found } => write!(
                f,
                "tuned config schema mismatch: want {TUNED_SCHEMA}, found {found} — re-run \
                 `recode tune`"
            ),
            TuneError::DigestMismatch { expected, found } => write!(
                f,
                "tuned config was built for a different matrix: digest {found} vs this \
                 matrix's {expected} — re-run `recode tune`"
            ),
            TuneError::CodecMismatch => write!(
                f,
                "recoded operand was compressed under a different codec config than the \
                 tuned config prescribes"
            ),
            TuneError::Malformed(why) => write!(f, "malformed tuned config: {why}"),
            TuneError::Exec(e) => write!(f, "candidate evaluation failed: {e}"),
            TuneError::BoundViolated { stages, block_bytes, busy_cycles, min, max } => write!(
                f,
                "candidate {stages}/{block_bytes}B measured {busy_cycles} busy cycles, \
                 outside its certified envelope [{min}, {max}]"
            ),
        }
    }
}

impl std::error::Error for TuneError {}

impl From<ExecError> for TuneError {
    fn from(e: ExecError) -> Self {
        TuneError::Exec(e)
    }
}

/// FNV-1a 64 digest over shape, structure, and value bits — the key a
/// [`TunedConfig`] is bound to.
pub fn matrix_digest(a: &Csr) -> String {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(&(a.nrows() as u64).to_le_bytes());
    eat(&(a.ncols() as u64).to_le_bytes());
    for &p in a.row_ptr() {
        eat(&(p as u64).to_le_bytes());
    }
    for &c in a.col_idx() {
        eat(&c.to_le_bytes());
    }
    for &v in a.values() {
        eat(&v.to_bits().to_le_bytes());
    }
    format!("{h:016x}")
}

/// The persisted winner: everything `recode spmv` needs to reproduce the
/// tuned run, sealed under [`TUNED_SCHEMA`] and keyed by matrix digest.
///
/// The config is a pure function of (matrix, system model, search space),
/// so the same tune command reproduces it byte-for-byte on any host.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedConfig {
    /// [`matrix_digest`] of the matrix this config was tuned for.
    pub digest: String,
    /// Matrix shape, double-checked alongside the digest.
    pub nrows: usize,
    /// Columns.
    pub ncols: usize,
    /// Stored non-zeros.
    pub nnz: usize,
    /// Winning codec stage subset.
    pub stages: StageSubset,
    /// Winning uncompressed block size.
    pub block_bytes: usize,
    /// Modeled decode cost of the winning codec candidate.
    pub modeled_decode_cycles: u64,
    /// Modeled multiply cost at the winning candidate's wire rate.
    pub modeled_multiply_cycles: u64,
    /// Wire bytes per non-zero of the winning codec candidate.
    pub wire_bytes_per_nnz: f64,
    /// Number of candidates scored.
    pub candidates: usize,
}

impl TunedConfig {
    /// Modeled end-to-end cost: the one-stage [`perfmodel::makespan`].
    pub fn modeled_total_cycles(&self) -> u64 {
        perfmodel::makespan(&[self.modeled_decode_cycles], &[self.modeled_multiply_cycles]).0
    }

    /// The codec configuration the winner was scored with.
    pub fn codec_config(&self) -> MatrixCodecConfig {
        self.stages.codec_config(self.block_bytes)
    }

    /// Checks this config belongs to `a`.
    ///
    /// # Errors
    /// [`TuneError::DigestMismatch`] when the digest or shape differs.
    pub fn validate_for(&self, a: &Csr) -> Result<(), TuneError> {
        let expected = matrix_digest(a);
        if expected != self.digest
            || (a.nrows(), a.ncols(), a.nnz()) != (self.nrows, self.ncols, self.nnz)
        {
            return Err(TuneError::DigestMismatch { expected, found: self.digest.clone() });
        }
        Ok(())
    }

    /// Serializes as the ordered `recode-tuned/v2` document.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("schema", Json::Str(TUNED_SCHEMA.into()))
            .set("digest", Json::Str(self.digest.clone()))
            .set(
                "matrix",
                Json::obj()
                    .set("nrows", Json::U64(self.nrows as u64))
                    .set("ncols", Json::U64(self.ncols as u64))
                    .set("nnz", Json::U64(self.nnz as u64)),
            )
            .set(
                "codec",
                Json::obj()
                    .set("stages", Json::Str(self.stages.name().into()))
                    .set("block_bytes", Json::U64(self.block_bytes as u64)),
            )
            .set(
                "modeled",
                Json::obj()
                    .set("decode_cycles", Json::U64(self.modeled_decode_cycles))
                    .set("multiply_cycles", Json::U64(self.modeled_multiply_cycles))
                    .set("total_cycles", Json::U64(self.modeled_total_cycles()))
                    .set("wire_bytes_per_nnz", Json::F64(self.wire_bytes_per_nnz)),
            )
            .set("candidates", Json::U64(self.candidates as u64))
    }

    /// Stable pretty-printed bytes of [`TunedConfig::to_json`] (with a
    /// trailing newline, matching the repo's other JSON artifacts).
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().to_string_pretty();
        s.push('\n');
        s
    }

    /// Parses and schema-checks a persisted document.
    ///
    /// # Errors
    /// [`TuneError::SchemaMismatch`] or [`TuneError::Malformed`].
    pub fn from_json_str(text: &str) -> Result<TunedConfig, TuneError> {
        let doc = json::parse(text).map_err(TuneError::Malformed)?;
        let str_field = |key: &str| -> Result<String, TuneError> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| TuneError::Malformed(format!("missing string field `{key}`")))
        };
        let schema = str_field("schema")?;
        if schema != TUNED_SCHEMA {
            return Err(TuneError::SchemaMismatch { found: schema });
        }
        let u64_at = |path: &[&str]| -> Result<u64, TuneError> {
            let mut node = &doc;
            for key in path {
                node = node
                    .get(key)
                    .ok_or_else(|| TuneError::Malformed(format!("missing field `{key}`")))?;
            }
            node.as_u64().ok_or_else(|| {
                TuneError::Malformed(format!("field `{}` is not an integer", path.join(".")))
            })
        };
        let stages_name = doc
            .get("codec")
            .and_then(|c| c.get("stages"))
            .and_then(Json::as_str)
            .ok_or_else(|| TuneError::Malformed("missing field `codec.stages`".into()))?;
        let stages: StageSubset = stages_name.parse()?;
        let wire_bytes_per_nnz = doc
            .get("modeled")
            .and_then(|m| m.get("wire_bytes_per_nnz"))
            .and_then(Json::as_f64)
            .ok_or_else(|| {
                TuneError::Malformed("missing field `modeled.wire_bytes_per_nnz`".into())
            })?;
        Ok(TunedConfig {
            digest: str_field("digest")?,
            nrows: u64_at(&["matrix", "nrows"])? as usize,
            ncols: u64_at(&["matrix", "ncols"])? as usize,
            nnz: u64_at(&["matrix", "nnz"])? as usize,
            stages,
            block_bytes: u64_at(&["codec", "block_bytes"])? as usize,
            modeled_decode_cycles: u64_at(&["modeled", "decode_cycles"])?,
            modeled_multiply_cycles: u64_at(&["modeled", "multiply_cycles"])?,
            wire_bytes_per_nnz,
            candidates: u64_at(&["candidates"])? as usize,
        })
    }
}

/// One scored (stages, block size) candidate.
#[derive(Debug, Clone)]
pub struct CandidateScore {
    /// Codec stage subset.
    pub stages: StageSubset,
    /// Uncompressed block size.
    pub block_bytes: usize,
    /// Modeled decode cost (lane makespan vs memory/DMA streaming).
    pub decode_cycles: u64,
    /// Modeled multiply cost ([`perfmodel::multiply_cycles`] at this
    /// candidate's wire bytes per non-zero).
    pub multiply_cycles: u64,
    /// Wire bytes per non-zero of the codec candidate.
    pub wire_bytes_per_nnz: f64,
}

impl CandidateScore {
    /// Modeled end-to-end cost: the one-stage [`perfmodel::makespan`].
    pub fn total_cycles(&self) -> u64 {
        perfmodel::makespan(&[self.decode_cycles], &[self.multiply_cycles]).0
    }
}

/// Tuning result: the sealed winner plus the full scored field.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The winner, ready to persist.
    pub config: TunedConfig,
    /// Every scored candidate, in (stages, block) search order.
    pub candidates: Vec<CandidateScore>,
}

/// Modeled decode cost of one codec candidate: the cycle-exact lane
/// makespan versus the modeled memory-stream + DMA time, whichever binds.
fn modeled_decode_cycles(sys: &SystemConfig, stats: &ExecStats) -> u64 {
    let stream = ((stats.mem_stream_seconds + stats.dma_seconds) * sys.udp.freq_hz).ceil() as u64;
    stats.accel.makespan_cycles.max(stream)
}

/// Certified cycle envelope for decoding one stream's blocks through
/// `decoder`: the sum of every stage image's statically certified
/// [`recode_udp::CycleBound`] across all blocks. The first active stage
/// sees the block's actual compressed bit length; later stages see at most
/// the lane output window (half the scratchpad), which caps any
/// intermediate expansion. `None` when a stage carries no certified max
/// (the check is then vacuous, never wrong).
fn certified_stream_envelope(
    decoder: &DshDecoder,
    blocks: &[CompressedBlock],
) -> Option<(u64, u64)> {
    let later_stage_bits = 8 * (SCRATCHPAD_BYTES as u64 / 2);
    let stages: Vec<_> = [&decoder.huffman, &decoder.snappy, &decoder.delta]
        .into_iter()
        .flatten()
        .map(|img| img.verify_report.cycle_bound)
        .collect();
    let (mut min, mut max) = (0u64, 0u64);
    for block in blocks {
        for (k, bound) in stages.iter().enumerate() {
            let bound = (*bound)?;
            let bits = if k == 0 { block.bit_len as u64 } else { later_stage_bits };
            min = min.saturating_add(bound.min);
            max = max.saturating_add(bound.max?.max_for(bits));
        }
    }
    Some((min, max))
}

/// Cross-checks a candidate's measured busy cycles against the certified
/// envelopes of its index and value decoders. Degraded runs (retries or
/// fallbacks) are exempt: their accounting mixes re-run and zero-cycle
/// jobs, so the per-attempt envelope does not aggregate cleanly.
///
/// # Errors
/// [`TuneError::BoundViolated`] when the measurement escapes the envelope.
fn check_certified_bounds(
    recoded: &RecodedSpmv,
    stats: &ExecStats,
    stages: StageSubset,
    block_bytes: usize,
) -> Result<(), TuneError> {
    if stats.degraded {
        return Ok(());
    }
    let c = recoded.compressed();
    let index = certified_stream_envelope(recoded.index_decoder(), &c.index_stream.blocks);
    let value = certified_stream_envelope(recoded.value_decoder(), &c.value_stream.blocks);
    let (Some((imin, imax)), Some((vmin, vmax))) = (index, value) else {
        return Ok(());
    };
    let (min, max) = (imin.saturating_add(vmin), imax.saturating_add(vmax));
    let busy_cycles = stats.accel.busy_cycles;
    if busy_cycles < min || busy_cycles > max {
        return Err(TuneError::BoundViolated {
            stages: stages.name(),
            block_bytes,
            busy_cycles,
            min,
            max,
        });
    }
    Ok(())
}

/// Recodes `a` under one codec candidate, decodes it once on the lane
/// simulator and scores the pipeline the engine would run.
fn score_candidate(
    a: &Csr,
    sys: &SystemConfig,
    stages: StageSubset,
    block_bytes: usize,
) -> Result<CandidateScore, TuneError> {
    let recoded = RecodedSpmv::new(a, stages.codec_config(block_bytes))?;
    let (_, stats) = recoded.decompress_via_udp(sys)?;
    check_certified_bounds(&recoded, &stats, stages, block_bytes)?;
    let wire_bytes_per_nnz = recoded.compressed().bytes_per_nnz();
    Ok(CandidateScore {
        stages,
        block_bytes,
        decode_cycles: modeled_decode_cycles(sys, &stats),
        multiply_cycles: perfmodel::multiply_cycles(sys, wire_bytes_per_nnz, a.nnz()),
        wire_bytes_per_nnz,
    })
}

/// Tunes `a` for `sys`: scores the full search space and seals the winner.
///
/// # Errors
/// [`TuneError::Exec`] when a candidate fails to compress or decode;
/// [`TuneError::BoundViolated`] when one escapes its certified envelope.
pub fn tune_matrix(a: &Csr, sys: &SystemConfig) -> Result<TuneOutcome, TuneError> {
    let mut candidates = Vec::with_capacity(StageSubset::ALL.len() * BLOCK_SIZES.len());
    for stages in StageSubset::ALL {
        for block_bytes in BLOCK_SIZES {
            candidates.push(score_candidate(a, sys, stages, block_bytes)?);
        }
    }
    // Search order is (stage order, block size), so the first of equals
    // already wins the last two tiebreak keys.
    let winner = candidates
        .iter()
        .min_by(|l, r| {
            (l.total_cycles().cmp(&r.total_cycles()))
                .then(l.wire_bytes_per_nnz.total_cmp(&r.wire_bytes_per_nnz))
        })
        .expect("search space is non-empty");

    let config = TunedConfig {
        digest: matrix_digest(a),
        nrows: a.nrows(),
        ncols: a.ncols(),
        nnz: a.nnz(),
        stages: winner.stages,
        block_bytes: winner.block_bytes,
        modeled_decode_cycles: winner.decode_cycles,
        modeled_multiply_cycles: winner.multiply_cycles,
        wire_bytes_per_nnz: winner.wire_bytes_per_nnz,
        candidates: candidates.len(),
    };
    Ok(TuneOutcome { config, candidates })
}

/// The un-tuned reference point `recode spmv` uses by default: the paper's
/// DSH pipeline at the 8 KB UDP block size. The tuned-vs-default
/// comparisons in EXPERIMENTS.md measure against this.
///
/// # Errors
/// As [`tune_matrix`].
pub fn default_candidate(a: &Csr, sys: &SystemConfig) -> Result<CandidateScore, TuneError> {
    score_candidate(a, sys, StageSubset::Dsh, 8192)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recode_sparse::gen::{generate, GenSpec, ValueModel};

    fn stencil() -> Csr {
        generate(
            &GenSpec::Stencil2D { nx: 12, ny: 12, points: 5, values: ValueModel::StencilCoeffs },
            7,
        )
    }

    fn tuned(a: &Csr) -> TuneOutcome {
        tune_matrix(a, &SystemConfig::ddr4()).unwrap()
    }

    /// A matrix with the same structure as [`stencil`] but different values.
    fn stencil_ones() -> Csr {
        generate(&GenSpec::Stencil2D { nx: 12, ny: 12, points: 5, values: ValueModel::Ones }, 7)
    }

    #[test]
    fn digest_is_stable_and_structure_sensitive() {
        let a = stencil();
        assert_eq!(matrix_digest(&a), matrix_digest(&a.clone()));
        // Same structure, different value bits — the digest must move.
        assert_ne!(matrix_digest(&a), matrix_digest(&stencil_ones()));
        // Different structure entirely.
        let b = generate(
            &GenSpec::Stencil2D { nx: 13, ny: 12, points: 5, values: ValueModel::StencilCoeffs },
            7,
        );
        assert_ne!(matrix_digest(&a), matrix_digest(&b));
    }

    #[test]
    fn every_codec_candidate_is_scored_once_and_the_winner_is_the_cheapest() {
        let outcome = tuned(&stencil());
        assert_eq!(outcome.candidates.len(), StageSubset::ALL.len() * BLOCK_SIZES.len());
        assert_eq!(outcome.config.candidates, outcome.candidates.len());
        let best = outcome.candidates.iter().map(CandidateScore::total_cycles).min().unwrap();
        assert_eq!(outcome.config.modeled_total_cycles(), best);
    }

    #[test]
    fn persistence_round_trips_byte_for_byte() {
        let a = stencil();
        let outcome = tuned(&a);
        let s1 = outcome.config.to_json_string();
        let parsed = TunedConfig::from_json_str(&s1).unwrap();
        assert_eq!(parsed, outcome.config);
        assert_eq!(parsed.to_json_string(), s1);
        parsed.validate_for(&a).unwrap();
    }

    #[test]
    fn certified_envelope_brackets_measured_busy_cycles() {
        // The cross-check tune_matrix applies per candidate, verified here
        // directly: every stage image certifies a bound, and the measured
        // busy cycles of a clean run land inside the summed envelope.
        let a = stencil();
        let sys = SystemConfig::ddr4();
        let recoded = RecodedSpmv::new(&a, StageSubset::Dsh.codec_config(4096)).unwrap();
        let (_, stats) = recoded.decompress_via_udp(&sys).unwrap();
        assert!(!stats.degraded);
        let c = recoded.compressed();
        let (imin, imax) =
            certified_stream_envelope(recoded.index_decoder(), &c.index_stream.blocks)
                .expect("every builtin stage must carry a certified bound");
        let (vmin, vmax) =
            certified_stream_envelope(recoded.value_decoder(), &c.value_stream.blocks)
                .expect("every builtin stage must carry a certified bound");
        let busy = stats.accel.busy_cycles;
        assert!(
            imin + vmin <= busy && busy <= imax + vmax,
            "busy {busy} outside [{}, {}]",
            imin + vmin,
            imax + vmax
        );
        check_certified_bounds(&recoded, &stats, StageSubset::Dsh, 4096).unwrap();
    }

    #[test]
    fn bound_violation_is_a_typed_error() {
        // A measurement outside the envelope must surface as BoundViolated
        // with the candidate's identity attached.
        let a = stencil();
        let sys = SystemConfig::ddr4();
        let recoded = RecodedSpmv::new(&a, StageSubset::Dsh.codec_config(4096)).unwrap();
        let (_, mut stats) = recoded.decompress_via_udp(&sys).unwrap();
        stats.accel.busy_cycles = u64::MAX;
        let err = check_certified_bounds(&recoded, &stats, StageSubset::Dsh, 4096).unwrap_err();
        assert!(matches!(err, TuneError::BoundViolated { stages: "dsh", block_bytes: 4096, .. }));
        assert!(err.to_string().contains("certified envelope"));
        // Degraded runs are exempt — the check must not fire on them.
        stats.degraded = true;
        check_certified_bounds(&recoded, &stats, StageSubset::Dsh, 4096).unwrap();
    }

    #[test]
    fn schema_and_digest_mismatches_are_typed_errors() {
        let a = stencil();
        let config = tuned(&a).config;
        let tampered = config.to_json_string().replace(TUNED_SCHEMA, "recode-tuned/v9");
        assert!(matches!(
            TunedConfig::from_json_str(&tampered),
            Err(TuneError::SchemaMismatch { .. })
        ));
        assert!(matches!(
            config.validate_for(&stencil_ones()),
            Err(TuneError::DigestMismatch { .. })
        ));
        assert!(matches!(TunedConfig::from_json_str("{}"), Err(TuneError::Malformed(_))));
        assert!(matches!(TunedConfig::from_json_str("not json"), Err(TuneError::Malformed(_))));
    }
}
