//! The 369-matrix corpus — our substitute for the paper's TAMU sample.
//!
//! The paper draws 369 matrices from the largest 20% of the collection
//! (nnz 1e6–8e8, median 4.9e6; sparsity 9.4e-7%–19%; banded, diagonal,
//! symmetric and unstructured structure). This module produces a
//! deterministic corpus with the same *structural spectrum* from the eleven
//! generator families, with target non-zero counts drawn log-uniformly from
//! a scale-dependent range (the paper's sizes are scaled down by default so
//! the full evaluation runs on one machine; see DESIGN.md §3).

use recode_sparse::gen::{GenSpec, KroneckerBase, ValueModel};
use recode_sparse::util::SplitMix64;
use recode_sparse::{par, Csr};

/// Number of matrices, matching the paper.
pub const CORPUS_SIZE: usize = 369;

/// Corpus size regimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusScale {
    /// nnz ~ 2e4..2e5 — unit tests and quick runs.
    Small,
    /// nnz ~ 1e5..2e6 — the default for figure regeneration.
    Medium,
    /// nnz ~ 1e6..3e7 — closest to the paper's lower range that is still
    /// practical to simulate; use `--scale paper` harness flags to select.
    Paper,
}

impl CorpusScale {
    /// Log-uniform nnz target range.
    pub fn nnz_range(self) -> (f64, f64) {
        match self {
            CorpusScale::Small => (2e4, 2e5),
            CorpusScale::Medium => (1e5, 2e6),
            CorpusScale::Paper => (1e6, 3e7),
        }
    }
}

/// One corpus member: a named, seeded generator spec.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Stable name, e.g. `m042_femband`.
    pub name: String,
    /// Generator family tag.
    pub family: &'static str,
    /// The spec.
    pub spec: GenSpec,
    /// Generation seed.
    pub seed: u64,
    /// The nnz this entry was sized for.
    pub target_nnz: usize,
}

impl CorpusEntry {
    /// Materializes the matrix.
    pub fn generate(&self) -> Csr {
        recode_sparse::gen::generate(&self.spec, self.seed)
    }
}

/// Builds the deterministic 369-entry corpus.
pub fn corpus(scale: CorpusScale, seed: u64) -> Vec<CorpusEntry> {
    let (lo, hi) = scale.nnz_range();
    let mut rng = SplitMix64::new(seed ^ 0xC0_8215);
    (0..CORPUS_SIZE)
        .map(|i| {
            // Log-uniform nnz target.
            let target = (lo.ln() + rng.f64() * (hi.ln() - lo.ln())).exp() as usize;
            let entry_seed = rng.next_u64();
            let variant = rng.next_u64();
            let spec = spec_for(i % 11, target, variant);
            CorpusEntry {
                name: format!("m{i:03}_{}", spec.family()),
                family: spec.family(),
                spec,
                seed: entry_seed,
                target_nnz: target,
            }
        })
        .collect()
}

/// Materializes the whole corpus in parallel. Memory note: at `Medium`
/// scale the corpus holds ~3e8 total non-zeros (~4 GB); prefer streaming
/// with [`corpus`] + [`CorpusEntry::generate`] per entry for large scales.
pub fn generate_all(scale: CorpusScale, seed: u64) -> Vec<(CorpusEntry, Csr)> {
    par::map(corpus(scale, seed), |_, e| {
        let m = e.generate();
        (e, m)
    })
}

/// Public lookup: builds a spec for `family` sized for `target` non-zeros
/// (used by the `recode gen` CLI). Returns `None` for unknown families.
pub fn spec_for_family(family: &str, target: usize, variant: u64) -> Option<GenSpec> {
    let idx = match family {
        "stencil2d" => 0,
        "stencil2d9" => 1,
        "stencil3d" => 2,
        "multidiag" => 3,
        "femband" => 4,
        "blockjac" => 5,
        "circuit" => 6,
        "rmat" => 7,
        "erdos" => 8,
        "smallworld" => 9,
        "laplacian" => 10,
        _ => return None,
    };
    Some(spec_for(idx, target, variant))
}

/// Chooses family parameters to hit `target` non-zeros.
fn spec_for(family: usize, target: usize, variant: u64) -> GenSpec {
    let t = target as f64;
    let pick = |choices: &[ValueModel]| choices[(variant % choices.len() as u64) as usize];
    match family {
        0 => {
            // 5-point 2D stencil: nnz ~ 5n.
            let n = (t / 5.0).max(16.0);
            let side = n.sqrt().ceil() as usize;
            GenSpec::Stencil2D {
                nx: side,
                ny: side,
                points: 5,
                values: pick(&[
                    ValueModel::UniformRandom,
                    ValueModel::QuantizedGaussian { levels: 2048 },
                    ValueModel::StencilCoeffs,
                ]),
            }
        }
        1 => {
            // 9-point 2D stencil: nnz ~ 9n.
            let n = (t / 9.0).max(16.0);
            let side = n.sqrt().ceil() as usize;
            GenSpec::Stencil2D {
                nx: side,
                ny: side,
                points: 9,
                values: pick(&[
                    ValueModel::QuantizedGaussian { levels: 1024 },
                    ValueModel::UniformRandom,
                    ValueModel::MixedRepeated { distinct: 500 },
                ]),
            }
        }
        2 => {
            // 27-point 3D stencil: nnz ~ 27n.
            let n = (t / 27.0).max(27.0);
            let side = n.cbrt().ceil() as usize;
            GenSpec::Stencil3D {
                nx: side,
                ny: side,
                nz: side,
                points: 27,
                values: pick(&[
                    ValueModel::UniformRandom,
                    ValueModel::QuantizedGaussian { levels: 4096 },
                ]),
            }
        }
        3 => {
            // Multi-diagonal, 5-9 diagonals.
            let k = 5 + 2 * (variant % 3) as usize;
            let n = (t / k as f64).max(64.0) as usize;
            let mut offsets: Vec<i64> = vec![0];
            for i in 1..=(k - 1) / 2 {
                let off = (i as i64) * (1 + (variant % 7) as i64);
                offsets.push(off.min(n as i64 - 1));
                offsets.push(-(off.min(n as i64 - 1)));
            }
            GenSpec::MultiDiagonal {
                n,
                offsets,
                values: pick(&[
                    ValueModel::UniformRandom,
                    ValueModel::QuantizedGaussian { levels: 1024 },
                    ValueModel::MixedRepeated { distinct: 200 },
                ]),
            }
        }
        4 => {
            // FEM band.
            let band = 8 + (variant % 5) as usize * 8;
            let fill = 0.35 + (variant % 4) as f64 * 0.15;
            let n = (t / (1.0 + 2.0 * band as f64 * fill)).max(64.0) as usize;
            GenSpec::FemBand {
                n,
                band,
                fill,
                values: pick(&[
                    ValueModel::UniformRandom,
                    ValueModel::QuantizedGaussian { levels: 2048 },
                    ValueModel::MixedRepeated { distinct: 1000 },
                ]),
            }
        }
        5 => {
            // Block Jacobian.
            let block = 8 + (variant % 3) as usize * 8;
            let coupling = 1.0 + (variant % 3) as f64;
            let n = (t / (block as f64 + coupling)).max(1.0) as usize;
            let nblocks = (n / block).max(1);
            GenSpec::BlockJacobian {
                nblocks,
                block,
                coupling,
                values: pick(&[
                    ValueModel::UniformRandom,
                    ValueModel::QuantizedGaussian { levels: 4096 },
                ]),
            }
        }
        6 => {
            // Circuit.
            let deg = 3.0 + (variant % 4) as f64;
            let hubs = 2 + (variant % 3) as usize;
            // nnz ~ n(1 + deg) + 2*hubs*n.
            let n = (t / (1.0 + deg + 2.0 * hubs as f64)).max(64.0) as usize;
            GenSpec::Circuit {
                n,
                avg_deg: deg,
                hubs,
                values: pick(&[
                    ValueModel::QuantizedGaussian { levels: 4096 },
                    ValueModel::UniformRandom,
                ]),
            }
        }
        7 => {
            // RMAT: nnz ~ 0.85 * ef * 2^s after dedup.
            let ef = 8 + (variant % 3) as usize * 4;
            let scale_bits = ((t / (0.85 * ef as f64)).log2().round() as u8).clamp(8, 24);
            GenSpec::Rmat {
                scale: scale_bits,
                edge_factor: ef,
                values: pick(&[
                    ValueModel::UniformRandom,
                    ValueModel::Ones,
                    ValueModel::QuantizedGaussian { levels: 2048 },
                ]),
            }
        }
        8 => {
            // Erdős–Rényi.
            let deg = 6.0 + (variant % 5) as f64 * 2.0;
            let n = (t / deg).max(64.0) as usize;
            GenSpec::ErdosRenyi {
                n,
                avg_deg: deg,
                values: pick(&[
                    ValueModel::UniformRandom,
                    ValueModel::QuantizedGaussian { levels: 4096 },
                ]),
            }
        }
        9 => {
            // Small world.
            let k = 2 + (variant % 4) as usize;
            let n = (t / (2.0 * k as f64)).max(64.0) as usize;
            GenSpec::SmallWorld {
                n,
                k,
                rewire: 0.02 + (variant % 5) as f64 * 0.04,
                values: pick(&[
                    ValueModel::UniformRandom,
                    ValueModel::QuantizedGaussian { levels: 1024 },
                    ValueModel::Ones,
                ]),
            }
        }
        _ => {
            // Laplacian of RMAT: nnz ~ 2 * 0.85 * ef * 2^s.
            let ef = 4 + (variant % 3) as usize * 2;
            let scale_bits = ((t / (1.7 * ef as f64)).log2().round() as u8).clamp(8, 24);
            GenSpec::Laplacian { scale: scale_bits, edge_factor: ef }
        }
    }
}

/// Kronecker appears in the corpus through dedicated entries rather than the
/// 11-way rotation (its sizes are quantized to powers of 3 and would skew
/// the nnz distribution); expose a helper for ablations.
pub fn kronecker_entry(power: u8, seed: u64) -> CorpusEntry {
    let spec = GenSpec::Kronecker { base: KroneckerBase::Star, power, values: ValueModel::Ones };
    CorpusEntry {
        name: format!("kron_p{power}"),
        family: spec.family(),
        spec,
        seed,
        target_nnz: 7usize.pow(power as u32),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_369_deterministic_entries() {
        let a = corpus(CorpusScale::Small, 42);
        let b = corpus(CorpusScale::Small, 42);
        assert_eq!(a.len(), CORPUS_SIZE);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.seed, y.seed);
        }
        // A different master seed gives a different corpus.
        let c = corpus(CorpusScale::Small, 43);
        assert!(a.iter().zip(&c).any(|(x, y)| x.spec != y.spec));
    }

    #[test]
    fn all_families_are_represented() {
        let entries = corpus(CorpusScale::Small, 1);
        let mut fams: Vec<&str> = entries.iter().map(|e| e.family).collect();
        fams.sort_unstable();
        fams.dedup();
        assert!(fams.len() >= 10, "families: {fams:?}");
    }

    #[test]
    fn sampled_entries_hit_their_nnz_targets_roughly() {
        let entries = corpus(CorpusScale::Small, 7);
        for e in entries.iter().step_by(37) {
            let m = e.generate();
            let ratio = m.nnz() as f64 / e.target_nnz as f64;
            assert!(
                (0.2..5.0).contains(&ratio),
                "{}: target {} got {} (ratio {ratio:.2})",
                e.name,
                e.target_nnz,
                m.nnz()
            );
        }
    }

    #[test]
    fn nnz_targets_are_log_uniform_within_range() {
        let (lo, hi) = CorpusScale::Small.nnz_range();
        let entries = corpus(CorpusScale::Small, 9);
        assert!(entries
            .iter()
            .all(|e| { (e.target_nnz as f64) >= lo * 0.99 && (e.target_nnz as f64) <= hi * 1.01 }));
        // Spread check: both halves of the log range are populated.
        let mid = (lo.ln() + (hi.ln() - lo.ln()) / 2.0).exp();
        let below = entries.iter().filter(|e| (e.target_nnz as f64) < mid).count();
        assert!(below > CORPUS_SIZE / 4 && below < 3 * CORPUS_SIZE / 4);
    }

    #[test]
    fn spec_for_family_covers_all_names() {
        for f in [
            "stencil2d",
            "stencil2d9",
            "stencil3d",
            "multidiag",
            "femband",
            "blockjac",
            "circuit",
            "rmat",
            "erdos",
            "smallworld",
            "laplacian",
        ] {
            let spec = spec_for_family(f, 50_000, 3).unwrap();
            let m = recode_sparse::gen::generate(&spec, 1);
            assert!(m.nnz() > 5_000, "{f}: {}", m.nnz());
        }
        assert!(spec_for_family("nope", 1000, 0).is_none());
    }

    #[test]
    fn kronecker_helper_generates() {
        let e = kronecker_entry(6, 3);
        let m = e.generate();
        assert_eq!(m.nnz(), 7usize.pow(6));
    }
}
