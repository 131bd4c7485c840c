//! Structured (geometry-derived) families: grid stencils, multi-diagonal
//! matrices and FEM-like variable bands. These are the banded/diagonal/
//! symmetric part of the TAMU spectrum and the best case for delta recoding.

use crate::util::SplitMix64;
use crate::{Coo, Csr};

/// 2D grid stencil pattern. `points` must be 5 (von Neumann) or 9 (Moore).
///
/// # Panics
/// On an unsupported point count or an empty grid.
pub fn stencil_2d(nx: usize, ny: usize, points: u8) -> Csr {
    assert!(nx > 0 && ny > 0, "grid must be non-empty");
    assert!(points == 5 || points == 9, "2D stencil supports 5 or 9 points");
    let n = nx * ny;
    let mut coo = Coo::with_capacity(n, n, n * points as usize).expect("validated shape");
    let idx = |x: usize, y: usize| y * nx + x;
    for y in 0..ny {
        for x in 0..nx {
            let r = idx(x, y);
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    let diag_neighbor = dx != 0 && dy != 0;
                    if points == 5 && diag_neighbor {
                        continue;
                    }
                    let (xx, yy) = (x as i64 + dx, y as i64 + dy);
                    if xx < 0 || yy < 0 || xx >= nx as i64 || yy >= ny as i64 {
                        continue;
                    }
                    coo.push(r, idx(xx as usize, yy as usize), 1.0).expect("in bounds");
                }
            }
        }
    }
    super::coo_pattern_to_csr(coo)
}

/// 3D grid stencil pattern. `points` must be 7 or 27.
///
/// # Panics
/// On an unsupported point count or an empty grid.
pub fn stencil_3d(nx: usize, ny: usize, nz: usize, points: u8) -> Csr {
    assert!(nx > 0 && ny > 0 && nz > 0, "grid must be non-empty");
    assert!(points == 7 || points == 27, "3D stencil supports 7 or 27 points");
    let n = nx * ny * nz;
    let mut coo = Coo::with_capacity(n, n, n * points as usize).expect("validated shape");
    let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let r = idx(x, y, z);
                for dz in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dx in -1i64..=1 {
                            let axis_moves = (dx != 0) as u8 + (dy != 0) as u8 + (dz != 0) as u8;
                            if points == 7 && axis_moves > 1 {
                                continue;
                            }
                            let (xx, yy, zz) = (x as i64 + dx, y as i64 + dy, z as i64 + dz);
                            if xx < 0
                                || yy < 0
                                || zz < 0
                                || xx >= nx as i64
                                || yy >= ny as i64
                                || zz >= nz as i64
                            {
                                continue;
                            }
                            coo.push(r, idx(xx as usize, yy as usize, zz as usize), 1.0)
                                .expect("in bounds");
                        }
                    }
                }
            }
        }
    }
    super::coo_pattern_to_csr(coo)
}

/// Full diagonals at the given offsets of an `n x n` matrix.
///
/// # Panics
/// If `offsets` is empty or an offset magnitude reaches `n`.
pub fn multi_diagonal(n: usize, offsets: &[i64]) -> Csr {
    assert!(!offsets.is_empty(), "need at least one diagonal");
    assert!(offsets.iter().all(|o| o.unsigned_abs() < n as u64), "offset magnitude must be < n");
    let mut coo = Coo::with_capacity(n, n, n * offsets.len()).expect("validated shape");
    for r in 0..n {
        for &off in offsets {
            let c = r as i64 + off;
            if c >= 0 && (c as usize) < n {
                coo.push(r, c as usize, 1.0).expect("in bounds");
            }
        }
    }
    super::coo_pattern_to_csr(coo)
}

/// Symmetric variable-band pattern: every `(r, c)` with `0 < c - r <= band`
/// is present with probability `fill` (mirrored), plus a full diagonal.
/// Approximates assembled FEM stiffness matrices where mesh irregularity
/// perforates the band.
pub fn fem_band(n: usize, band: usize, fill: f64, seed: u64) -> Csr {
    assert!(n > 0, "matrix must be non-empty");
    assert!((0.0..=1.0).contains(&fill), "fill must be a probability");
    let mut rng = SplitMix64::new(seed ^ FEM_SEED_TAG);
    let expect = n + (n as f64 * band as f64 * fill) as usize * 2;
    let mut coo = Coo::with_capacity(n, n, expect).expect("validated shape");
    for r in 0..n {
        coo.push(r, r, 1.0).expect("in bounds");
        let hi = (r + band).min(n - 1);
        for c in (r + 1)..=hi {
            if rng.f64() < fill {
                coo.push(r, c, 1.0).expect("in bounds");
                coo.push(c, r, 1.0).expect("in bounds");
            }
        }
    }
    super::coo_pattern_to_csr(coo)
}

/// Domain-separation tag so the FEM generator's RNG stream is independent of
/// other families sharing the same corpus seed.
const FEM_SEED_TAG: u64 = 0xFE0B_0DD5;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::MatrixStats;

    #[test]
    fn stencil_2d_5pt_interior_row_has_5_entries() {
        let a = stencil_2d(10, 10, 5);
        assert_eq!(a.nrows(), 100);
        // Interior point (5,5) -> row 55.
        let (cols, _) = a.row(55);
        assert_eq!(cols.len(), 5);
        assert!(a.is_symmetric(1e-12));
        // Corner has 3 neighbours (incl. self).
        assert_eq!(a.row(0).0.len(), 3);
    }

    #[test]
    fn stencil_2d_9pt_interior_row_has_9_entries() {
        let a = stencil_2d(8, 8, 9);
        let mid = 8 * 4 + 4;
        assert_eq!(a.row(mid).0.len(), 9);
        assert_eq!(a.row(0).0.len(), 4);
    }

    #[test]
    fn stencil_3d_counts() {
        let a7 = stencil_3d(5, 5, 5, 7);
        let mid = (2 * 5 + 2) * 5 + 2;
        assert_eq!(a7.row(mid).0.len(), 7);
        let a27 = stencil_3d(4, 4, 4, 27);
        let mid = (4 + 1) * 4 + 1;
        assert_eq!(a27.row(mid).0.len(), 27);
        assert!(a27.is_symmetric(1e-12));
    }

    #[test]
    fn multi_diagonal_bandwidth_matches_offsets() {
        let a = multi_diagonal(50, &[-10, 0, 10]);
        let s = MatrixStats::compute(&a);
        assert_eq!(s.bandwidth, 10);
        assert_eq!(a.nnz(), 50 + 40 + 40);
    }

    #[test]
    fn fem_band_is_symmetric_with_full_diagonal() {
        let a = fem_band(60, 8, 0.5, 9);
        assert!(a.is_symmetric(1e-12));
        for r in 0..60 {
            assert_ne!(a.get(r, r), 0.0, "diagonal missing at {r}");
        }
        let s = MatrixStats::compute(&a);
        assert!(s.bandwidth <= 8);
    }

    #[test]
    fn fem_band_fill_extremes() {
        let empty_band = fem_band(20, 5, 0.0, 1);
        assert_eq!(empty_band.nnz(), 20, "fill=0 leaves only the diagonal");
        let full_band = fem_band(20, 3, 1.0, 1);
        // Full band: diagonal + mirrored band entries.
        let expected: usize = 20 + 2 * ((20 - 1) + (20 - 2) + (20 - 3));
        assert_eq!(full_band.nnz(), expected);
    }

    #[test]
    #[should_panic(expected = "5 or 9")]
    fn stencil_2d_rejects_bad_points() {
        let _ = stencil_2d(3, 3, 7);
    }
}
