//! Application-structured families: block Jacobians (economic and chemical
//! process models) and circuit matrices (near-diagonal plus dense rails).

use crate::util::SplitMix64;
use crate::{Coo, Csr};

/// Block-diagonal Jacobian: `nblocks` dense `block x block` diagonal blocks
/// plus, per row, `Poisson(coupling)`-ish sparse couplings to other blocks.
pub fn block_jacobian(nblocks: usize, block: usize, coupling: f64, seed: u64) -> Csr {
    assert!(nblocks > 0 && block > 0, "need at least one non-empty block");
    assert!(coupling >= 0.0, "coupling must be non-negative");
    let n = nblocks * block;
    let mut rng = SplitMix64::new(seed ^ 0x006a_6163_u64);
    let expect = n * block + (n as f64 * coupling) as usize;
    let mut coo = Coo::with_capacity(n, n, expect).expect("validated shape");
    for b in 0..nblocks {
        let base = b * block;
        for r in 0..block {
            for c in 0..block {
                coo.push(base + r, base + c, 1.0).expect("in bounds");
            }
            // Sparse inter-block couplings.
            let k = sample_poissonish(&mut rng, coupling);
            for _ in 0..k {
                let c = rng.below(n);
                coo.push(base + r, c, 1.0).expect("in bounds");
            }
        }
    }
    super::coo_pattern_to_csr(coo)
}

/// Circuit-like matrix: a symmetric near-diagonal background (component
/// interconnects) plus `hubs` dense rows/columns (ground/supply rails every
/// node touches).
pub fn circuit(n: usize, avg_deg: f64, hubs: usize, seed: u64) -> Csr {
    assert!(n > 0, "matrix must be non-empty");
    assert!(hubs < n, "hubs must be fewer than nodes");
    let mut rng = SplitMix64::new(seed ^ 0x0063_6b74_u64);
    let expect = n + (n as f64 * avg_deg) as usize * 2 + hubs * n * 2;
    let mut coo = Coo::with_capacity(n, n, expect).expect("validated shape");
    for r in 0..n {
        coo.push(r, r, 1.0).expect("in bounds");
        let k = sample_poissonish(&mut rng, avg_deg / 2.0);
        for _ in 0..k {
            // Mostly-local neighbours, as in physical layouts.
            let span = (n / 16).max(2);
            let off = 1 + rng.below(span);
            let c = (r + off) % n;
            coo.push(r, c, 1.0).expect("in bounds");
            coo.push(c, r, 1.0).expect("in bounds");
        }
    }
    // Dense rails: every node couples to each hub.
    for h in 0..hubs {
        for v in 0..n {
            if v != h {
                coo.push(h, v, 1.0).expect("in bounds");
                coo.push(v, h, 1.0).expect("in bounds");
            }
        }
    }
    super::coo_pattern_to_csr(coo)
}

/// Small integer draw with mean `lambda` — a cheap Poisson stand-in adequate
/// for structure generation (bounded tail keeps row lengths sane).
fn sample_poissonish(rng: &mut SplitMix64, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let base = lambda.floor() as usize;
    let frac = lambda - base as f64;
    let mut k = base;
    if rng.f64() < frac {
        k += 1;
    }
    // +/- 1 jitter for variance.
    match rng.below(4) {
        0 if k > 0 => k - 1,
        1 => k + 1,
        _ => k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::MatrixStats;

    #[test]
    fn block_jacobian_blocks_are_dense() {
        let a = block_jacobian(5, 6, 0.0, 3);
        assert_eq!(a.nrows(), 30);
        // With zero coupling every entry lives inside a block...
        for (r, c, _) in a.iter() {
            assert_eq!(r / 6, c / 6, "entry ({r},{c}) escapes its block");
        }
        // ...and blocks are at least half full (jitter may drop nothing here:
        // exactly dense).
        assert_eq!(a.nnz(), 5 * 6 * 6);
    }

    #[test]
    fn block_jacobian_coupling_adds_offblock_entries() {
        let a = block_jacobian(5, 6, 2.0, 3);
        let off_block = a.iter().filter(|&(r, c, _)| r / 6 != c / 6).count();
        assert!(off_block > 0, "coupling must escape blocks");
    }

    #[test]
    fn circuit_hubs_are_dense_rows() {
        let n = 200;
        let a = circuit(n, 3.0, 2, 7);
        let s = MatrixStats::compute(&a);
        assert!(s.max_nnz_per_row >= n - 1, "hub rows must touch every node");
        assert!(a.is_symmetric(1e-12));
        // Non-hub rows stay short.
        let (cols, _) = a.row(n / 2);
        assert!(cols.len() < 40);
    }

    #[test]
    fn poissonish_mean_is_close() {
        let mut rng = SplitMix64::new(1);
        let n = 20_000;
        let sum: usize = (0..n).map(|_| sample_poissonish(&mut rng, 3.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.2, "mean {mean}");
        assert_eq!(sample_poissonish(&mut rng, 0.0), 0);
    }
}
