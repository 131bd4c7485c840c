//! Graph-derived families: RMAT power-law digraphs, Erdős–Rényi, Kronecker
//! powers, small-world rings and graph Laplacians — the unstructured half of
//! the TAMU spectrum, where delta recoding gains the least and entropy
//! coding carries the compression.

use super::KroneckerBase;
use crate::util::SplitMix64;
use crate::{Coo, Csr};

/// Graph500 RMAT probabilities.
const RMAT_A: f64 = 0.57;
const RMAT_B: f64 = 0.19;
const RMAT_C: f64 = 0.19;

/// RMAT power-law digraph with `2^scale` vertices and ~`edge_factor * 2^scale`
/// edges (duplicates collapse, so the realized count is slightly lower).
pub fn rmat(scale: u8, edge_factor: usize, seed: u64) -> Csr {
    assert!(scale > 0 && scale < 31, "scale must be in 1..31");
    let n = 1usize << scale;
    let edges = n * edge_factor;
    let mut rng = SplitMix64::new(seed ^ 0x0000_726d_6174_u64);
    let mut coo = Coo::with_capacity(n, n, edges).expect("validated shape");
    for _ in 0..edges {
        let (mut r, mut c) = (0usize, 0usize);
        for bit in (0..scale).rev() {
            let p = rng.f64();
            let (dr, dc) = if p < RMAT_A {
                (0, 0)
            } else if p < RMAT_A + RMAT_B {
                (0, 1)
            } else if p < RMAT_A + RMAT_B + RMAT_C {
                (1, 0)
            } else {
                (1, 1)
            };
            r |= dr << bit;
            c |= dc << bit;
        }
        coo.push(r, c, 1.0).expect("in bounds");
    }
    super::coo_pattern_to_csr(coo)
}

/// Erdős–Rényi digraph: `n * avg_deg` random edges (duplicates collapse).
pub fn erdos_renyi(n: usize, avg_deg: f64, seed: u64) -> Csr {
    assert!(n > 0, "graph must be non-empty");
    assert!(avg_deg >= 0.0, "degree must be non-negative");
    let edges = (n as f64 * avg_deg) as usize;
    let mut rng = SplitMix64::new(seed ^ 0x0065_7264_6f73_u64);
    let mut coo = Coo::with_capacity(n, n, edges).expect("validated shape");
    for _ in 0..edges {
        let r = rng.below(n);
        let c = rng.below(n);
        coo.push(r, c, 1.0).expect("in bounds");
    }
    super::coo_pattern_to_csr(coo)
}

/// `power`-fold Kronecker product of a 3-vertex base pattern. The dimension
/// is `3^power`; patterns are deterministic (no RNG).
pub fn kronecker(base: KroneckerBase, power: u8) -> Csr {
    assert!(power >= 1, "power must be at least 1");
    assert!(3usize.checked_pow(power as u32).is_some(), "3^power overflows");
    let base_edges: &[(usize, usize)] = match base {
        // Star: hub 0 connected to 1 and 2, all with self loops.
        KroneckerBase::Star => &[(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (0, 2), (2, 0)],
        // Chain: 0-1-2 path with self loops.
        KroneckerBase::Chain => &[(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)],
        // Dense: complete 3-vertex pattern with self loops.
        KroneckerBase::Dense => {
            &[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
        }
    };
    let mut edges: Vec<(usize, usize)> = vec![(0, 0)];
    let mut dim = 1usize;
    for _ in 0..power {
        let mut next = Vec::with_capacity(edges.len() * base_edges.len());
        for &(r, c) in &edges {
            for &(br, bc) in base_edges {
                next.push((r * 3 + br, c * 3 + bc));
            }
        }
        edges = next;
        dim *= 3;
    }
    let mut coo = Coo::with_capacity(dim, dim, edges.len()).expect("validated shape");
    for (r, c) in edges {
        coo.push(r, c, 1.0).expect("in bounds");
    }
    super::coo_pattern_to_csr(coo)
}

/// Watts–Strogatz-style ring lattice with rewiring. Each vertex connects to
/// its `k` clockwise neighbours (made symmetric), and each link is replaced
/// by a uniformly random one with probability `rewire`.
pub fn small_world(n: usize, k: usize, rewire: f64, seed: u64) -> Csr {
    assert!(n > 2 * k, "ring needs n > 2k");
    assert!((0.0..=1.0).contains(&rewire), "rewire must be a probability");
    let mut rng = SplitMix64::new(seed ^ 0x0073_6d61_6c6c_u64);
    let mut coo = Coo::with_capacity(n, n, 2 * n * k).expect("validated shape");
    for v in 0..n {
        for step in 1..=k {
            let mut u = (v + step) % n;
            if rng.f64() < rewire {
                u = rng.below(n);
                if u == v {
                    u = (v + 1) % n;
                }
            }
            coo.push(v, u, 1.0).expect("in bounds");
            coo.push(u, v, 1.0).expect("in bounds");
        }
    }
    super::coo_pattern_to_csr(coo)
}

/// Graph Laplacian `D - A` of the symmetrized RMAT graph: symmetric,
/// diagonally dominant, integer-valued (a natural low-entropy value stream).
pub fn laplacian(scale: u8, edge_factor: usize, seed: u64) -> Csr {
    let a = rmat(scale, edge_factor, seed);
    let n = a.nrows();
    // Symmetrize the pattern and drop self loops.
    let t = a.transpose();
    let mut coo = Coo::with_capacity(n, n, 2 * a.nnz() + n).expect("validated shape");
    for src in [&a, &t] {
        for (r, c, _) in src.iter() {
            if r != c {
                coo.push(r, c, 1.0).expect("in bounds");
            }
        }
    }
    let adj = super::coo_pattern_to_csr(coo);
    // L = D - A with unit weights.
    let mut out = Coo::with_capacity(n, n, adj.nnz() + n).expect("validated shape");
    for r in 0..n {
        let (cols, _) = adj.row(r);
        let deg = cols.len() as f64;
        if deg > 0.0 {
            out.push(r, r, deg).expect("in bounds");
        }
        for &c in cols {
            out.push(r, c as usize, -1.0).expect("in bounds");
        }
    }
    out.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::MatrixStats;

    #[test]
    fn rmat_has_power_law_skew() {
        let a = rmat(9, 8, 13);
        assert_eq!(a.nrows(), 512);
        let s = MatrixStats::compute(&a);
        // Power-law graphs have a max degree far above the mean.
        assert!(
            s.max_nnz_per_row as f64 > 4.0 * s.avg_nnz_per_row,
            "max {} vs avg {}",
            s.max_nnz_per_row,
            s.avg_nnz_per_row
        );
    }

    #[test]
    fn erdos_renyi_is_roughly_uniform() {
        let a = erdos_renyi(400, 8.0, 5);
        let s = MatrixStats::compute(&a);
        assert!(s.avg_nnz_per_row > 6.0 && s.avg_nnz_per_row <= 8.0);
        // Uniform graphs have mild skew compared to RMAT.
        assert!((s.max_nnz_per_row as f64) < 4.0 * s.avg_nnz_per_row);
    }

    #[test]
    fn kronecker_dimensions_and_self_similarity() {
        let a = kronecker(KroneckerBase::Star, 3);
        assert_eq!(a.nrows(), 27);
        assert_eq!(a.nnz(), 7usize.pow(3));
        let d = kronecker(KroneckerBase::Dense, 2);
        assert_eq!(d.nnz(), 81);
        assert_eq!(d.density(), 1.0);
    }

    #[test]
    fn small_world_is_symmetric_and_banded_without_rewiring() {
        let a = small_world(50, 2, 0.0, 1);
        assert!(a.is_symmetric(1e-12));
        // Without rewiring the only long links wrap around the ring.
        let s = MatrixStats::compute(&a);
        assert_eq!(s.bandwidth, 49, "ring wrap-around links span the matrix");
        let interior_band: Vec<usize> = (5..45)
            .flat_map(|r| {
                let (cols, _) = a.row(r);
                cols.iter()
                    .map(move |&c| (c as i64 - r as i64).unsigned_abs() as usize)
                    .collect::<Vec<_>>()
            })
            .collect();
        assert!(interior_band.iter().all(|&b| b <= 2));
    }

    #[test]
    fn laplacian_rows_sum_to_zero() {
        let l = laplacian(6, 4, 99);
        for r in 0..l.nrows() {
            let (_, vals) = l.row(r);
            let sum: f64 = vals.iter().sum();
            assert!(sum.abs() < 1e-9, "row {r} sums to {sum}");
        }
        assert!(l.is_symmetric(1e-12));
    }

    #[test]
    #[should_panic(expected = "n > 2k")]
    fn small_world_rejects_tiny_rings() {
        let _ = small_world(4, 2, 0.0, 1);
    }
}
