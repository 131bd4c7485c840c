//! Harness-owned inputs. Everything is drawn from a SplitMix64 seeded by
//! `--seed` and assembled with `Csr::try_from_parts`, never through
//! `recode_sparse::gen`, so swapping the engine's RNG cannot change what the
//! benchmark measures.

use recode_sparse::Csr;

/// SplitMix64 (Steele, Lea & Flood 2014).
#[derive(Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn csr(n: usize, row_ptr: Vec<usize>, col_idx: Vec<u32>, values: Vec<f64>) -> Csr {
    Csr::try_from_parts(n, n, row_ptr, col_idx, values).expect("generator emits valid CSR")
}

/// 7-point stencil on a `side`³ grid, coefficients {6, -1}. The seed does
/// not enter: the PDE class is one fixed structure.
pub fn stencil3d(side: usize) -> Csr {
    let n = side * side * side;
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::with_capacity(7 * n);
    let mut values = Vec::with_capacity(7 * n);
    row_ptr.push(0);
    for z in 0..side {
        for y in 0..side {
            for x in 0..side {
                let i = (z * side + y) * side + x;
                let mut push = |present: bool, j: usize, v: f64| {
                    if present {
                        col_idx.push(j as u32);
                        values.push(v);
                    }
                };
                push(z > 0, i.wrapping_sub(side * side), -1.0);
                push(y > 0, i.wrapping_sub(side), -1.0);
                push(x > 0, i.wrapping_sub(1), -1.0);
                push(true, i, 6.0);
                push(x + 1 < side, i + 1, -1.0);
                push(y + 1 < side, i + side, -1.0);
                push(z + 1 < side, i + side * side, -1.0);
                row_ptr.push(col_idx.len());
            }
        }
    }
    csr(n, row_ptr, col_idx, values)
}

/// R-MAT (a .57, b .19, c .19, d .05) with `edge_factor << scale` edge
/// draws, deduplicated, uniform-random values in `(0, 1]`.
pub fn rmat(scale: u32, edge_factor: usize, rng: &mut SplitMix64) -> Csr {
    let n = 1usize << scale;
    let mut edges: Vec<u64> = (0..edge_factor << scale)
        .map(|_| {
            let (mut r, mut c) = (0u64, 0u64);
            for _ in 0..scale {
                let p = rng.unit();
                let (down, right) = match p {
                    p if p < 0.57 => (0, 0),
                    p if p < 0.76 => (0, 1),
                    p if p < 0.95 => (1, 0),
                    _ => (1, 1),
                };
                r = r << 1 | down;
                c = c << 1 | right;
            }
            r << 32 | c
        })
        .collect();
    edges.sort_unstable();
    edges.dedup();
    let mut row_ptr = vec![0usize; n + 1];
    for e in &edges {
        row_ptr[(e >> 32) as usize + 1] += 1;
    }
    for i in 0..n {
        row_ptr[i + 1] += row_ptr[i];
    }
    let col_idx = edges.iter().map(|e| *e as u32).collect();
    let values = edges.iter().map(|_| 1.0 - rng.unit()).collect();
    csr(n, row_ptr, col_idx, values)
}

/// Symmetric variable-band FEM-like matrix: full diagonal, each in-band
/// off-diagonal pair present with probability `fill`, values from a
/// 64-entry table. The half-band steps between 20 and 60 (mean 40) every 64
/// rows.
///
/// Two passes over the same random stream, the first to size the rows, the
/// second to fill them: the three CSR arrays are the only allocations of any
/// size, each made once at its final length. Growing vectors here left
/// 20 MiB of freed heap and a seed-dependent `malloc` mmap threshold behind,
/// and `peak_rss_mib` then moved by up to 6 MiB with the seed.
pub fn fem_band(n: usize, fill: f64, rng: &mut SplitMix64) -> Csr {
    let table: Vec<f64> = (0..64).map(|_| rng.unit() * 2.0 - 1.0 + 1e-3).collect();
    // Calls `entry(i, j, v)` for the diagonal and for each pair above it,
    // row by row, columns ascending.
    let draw = |rng: &mut SplitMix64, entry: &mut dyn FnMut(usize, usize, f64)| {
        let pick = |rng: &mut SplitMix64| table[(rng.next_u64() & 63) as usize];
        for i in 0..n {
            let d = pick(rng);
            entry(i, i, d);
            let half_band = 20 + (i / 64 * 7) % 41;
            for j in i + 1..(i + half_band + 1).min(n) {
                if rng.unit() < fill {
                    let v = pick(rng);
                    entry(i, j, v);
                }
            }
        }
    };
    let mut row_ptr = vec![0usize; n + 1];
    draw(&mut rng.clone(), &mut |i, j, _| {
        row_ptr[i + 1] += 1;
        if j != i {
            row_ptr[j + 1] += 1;
        }
    });
    for i in 0..n {
        row_ptr[i + 1] += row_ptr[i];
    }
    let nnz = row_ptr[n];
    let mut col_idx = vec![0u32; nnz];
    let mut values = vec![0.0f64; nnz];
    // When row i is drawn, its below-diagonal entries are already in place,
    // in column order, from the rows before it.
    let mut next = row_ptr[..n].to_vec();
    let mut put = |row: usize, col: usize, v: f64| {
        col_idx[next[row]] = col as u32;
        values[next[row]] = v;
        next[row] += 1;
    };
    draw(rng, &mut |i, j, v| {
        put(i, j, v);
        if j != i {
            put(j, i, v);
        }
    });
    csr(n, row_ptr, col_idx, values)
}

/// Dense probe vector in `[-1, 1)`.
pub fn vector(n: usize, rng: &mut SplitMix64) -> Vec<f64> {
    (0..n).map(|_| rng.unit() * 2.0 - 1.0).collect()
}

/// FNV-1a over shape, structure and value bits.
pub fn digest(a: &Csr) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(a.nrows() as u64);
    eat(a.ncols() as u64);
    a.row_ptr().iter().for_each(|p| eat(*p as u64));
    a.col_idx().iter().for_each(|c| eat(u64::from(*c)));
    a.values().iter().for_each(|v| eat(v.to_bits()));
    h
}
