//! Graph workload: PageRank over an RMAT power-law web graph via repeated
//! SpMV — the "graph computations … web structure analysis" use case from
//! the paper's introduction. Shows recoding behaviour on *unstructured*
//! matrices, where delta coding gains little and entropy coding carries
//! the compression.
//!
//! ```text
//! cargo run --release --example graph_pagerank
//! ```

use recode_spmv::codec::metrics::CompressionSummary;
use recode_spmv::prelude::*;

fn main() {
    // A 2^13-vertex power-law digraph.
    let adj = generate(&GenSpec::Rmat { scale: 13, edge_factor: 12, values: ValueModel::Ones }, 7);
    let n = adj.nrows();
    println!("web graph: {} vertices, {} edges", n, adj.nnz());

    // Column-normalize: M = A^T D^{-1} so PageRank is x <- d M x + (1-d)/n.
    let out_degree: Vec<f64> = (0..n).map(|v| adj.row(v).0.len() as f64).collect();
    let mut norm = adj.clone();
    {
        // Scale row v (out-links of v) by 1/deg(v); transpose afterwards.
        let row_ptr = norm.row_ptr().to_vec();
        let vals = norm.values_mut();
        for v in 0..n {
            let d = out_degree[v].max(1.0);
            for val in &mut vals[row_ptr[v]..row_ptr[v + 1]] {
                *val = 1.0 / d;
            }
        }
    }
    let m = norm.transpose();

    // Hold the (unstructured) operator compressed.
    let recoded = RecodedSpmv::new(&m, MatrixCodecConfig::udp_dsh()).expect("compress");
    let s = CompressionSummary::of(recoded.compressed());
    println!(
        "compressed operator: {:.2} B/nnz (index {:.2} + value {:.2}) — graphs compress \
         mostly through their regular value streams",
        s.bytes_per_nnz, s.index_bytes_per_nnz, s.value_bytes_per_nnz
    );

    let sys = SystemConfig::ddr4();

    // The iterative workload runs through the pipelined executor: its
    // modeled schedule has the UDP lanes decode window i+1 of tiles while
    // the CPU multiplies window i, and decoded blocks land in an LRU cache
    // so every iteration after the first pays zero decode cycles.
    let ex = OverlapExecutor::new(
        &recoded,
        OverlapConfig { cache_blocks: 8192, ..OverlapConfig::default() },
    );

    // Power iteration.
    let damping = 0.85;
    let mut rank = vec![1.0 / n as f64; n];
    let mut iters = 0;
    let mut cold_decode_cycles = 0u64;
    loop {
        let (next, stats) = ex.spmv(&sys, &rank).expect("pipelined spmv");
        if iters == 0 {
            cold_decode_cycles = stats.overlap.decode_cycles;
            println!(
                "iteration 1 (cold): {} decode cycles, makespan {} vs serial {} ({} saved)",
                stats.overlap.decode_cycles,
                stats.overlap.overlapped_makespan_cycles,
                stats.overlap.serial_makespan_cycles,
                stats.overlap.saved_cycles()
            );
        } else if iters == 1 {
            println!(
                "iteration 2 (warm): {} decode cycles ({} cache hits) — cold paid {}",
                stats.overlap.decode_cycles, stats.overlap.cache_hits, cold_decode_cycles
            );
            assert_eq!(
                stats.overlap.decode_cycles, 0,
                "warm iterations must be served entirely from the decoded-block cache"
            );
        }
        let teleport = (1.0 - damping) / n as f64;
        // Dangling mass is redistributed uniformly.
        let dangling: f64 = (0..n).filter(|&v| out_degree[v] == 0.0).map(|v| rank[v]).sum::<f64>()
            * damping
            / n as f64;
        let mut delta = 0.0;
        for i in 0..n {
            let new = damping * next[i] + teleport + dangling;
            delta += (new - rank[i]).abs();
            rank[i] = new;
        }
        iters += 1;
        if delta < 1e-10 || iters >= 200 {
            break;
        }
    }
    let cache = ex.cache_stats();
    println!(
        "PageRank converged in {iters} iterations ({} cache hits / {} misses across the run)",
        cache.hits, cache.misses
    );

    // Sanity: ranks sum to 1 and hubs outrank leaves.
    let total: f64 = rank.iter().sum();
    assert!((total - 1.0).abs() < 1e-6, "rank mass conserved, got {total}");
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| rank[b].partial_cmp(&rank[a]).expect("finite ranks"));
    println!("top 5 vertices by rank:");
    for &v in order.iter().take(5) {
        println!("  v{v}: rank {:.5}, in-degree {}", rank[v], m.row(v).0.len());
    }
    let top_in_deg = m.row(order[0]).0.len();
    let median_in_deg = m.row(order[n / 2]).0.len();
    assert!(top_in_deg >= median_in_deg, "power-law hub should lead");
}
