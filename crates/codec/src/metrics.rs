//! Compression accounting in the paper's units: bytes per non-zero.

use crate::pipeline::CompressedMatrix;

/// Raw CSR storage per non-zero: 4-byte index + 8-byte double.
pub const RAW_CSR_BYTES_PER_NNZ: f64 = 12.0;

/// The one definition of the paper's bytes-per-non-zero metric:
/// `wire_bytes / nnz`, with an empty matrix counting as 0.0.
///
/// Every consumer — [`CompressedMatrix::bytes_per_nnz`], the streaming and
/// overlapped executors' stats, and the bench reports — must compute B/nnz
/// through this helper so the paths cannot drift apart.
pub fn bytes_per_nnz(wire_bytes: usize, nnz: usize) -> f64 {
    if nnz == 0 {
        0.0
    } else {
        wire_bytes as f64 / nnz as f64
    }
}

/// Per-matrix compression summary (one row of the paper's Fig. 10/11 data).
#[derive(Debug, Clone)]
pub struct CompressionSummary {
    /// Stored non-zeros.
    pub nnz: usize,
    /// Compressed index-stream bytes per non-zero.
    pub index_bytes_per_nnz: f64,
    /// Compressed value-stream bytes per non-zero.
    pub value_bytes_per_nnz: f64,
    /// Total compressed bytes per non-zero (the paper's metric).
    pub bytes_per_nnz: f64,
    /// `12.0 / bytes_per_nnz` — how much less memory traffic SpMV moves.
    pub traffic_reduction: f64,
}

impl CompressionSummary {
    /// Summarizes a compressed matrix.
    pub fn of(c: &CompressedMatrix) -> Self {
        let nnz = c.nnz.max(1) as f64;
        let bpnnz = c.bytes_per_nnz();
        CompressionSummary {
            nnz: c.nnz,
            index_bytes_per_nnz: c.index_stream.wire_bytes() as f64 / nnz,
            value_bytes_per_nnz: c.value_stream.wire_bytes() as f64 / nnz,
            bytes_per_nnz: bpnnz,
            traffic_reduction: if bpnnz > 0.0 { RAW_CSR_BYTES_PER_NNZ / bpnnz } else { 1.0 },
        }
    }
}

/// Geometric mean of `bytes_per_nnz` across summaries — the corpus-level
/// number the paper reports (5.20 CPU Snappy / 5.92 DS / 5.00 DSH).
pub fn geomean_bytes_per_nnz(summaries: &[CompressionSummary]) -> Option<f64> {
    let xs: Vec<f64> = summaries.iter().map(|s| s.bytes_per_nnz).collect();
    recode_sparse::util::geometric_mean(&xs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::MatrixCodecConfig;
    use recode_sparse::prelude::*;

    #[test]
    fn summary_parts_add_up() {
        let a = generate(
            &GenSpec::Stencil2D { nx: 40, ny: 40, points: 5, values: ValueModel::StencilCoeffs },
            1,
        );
        let c =
            crate::pipeline::CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let s = CompressionSummary::of(&c);
        // index + value differ from total only by the serialized tables.
        assert!(s.bytes_per_nnz >= s.index_bytes_per_nnz + s.value_bytes_per_nnz);
        assert!(s.bytes_per_nnz - (s.index_bytes_per_nnz + s.value_bytes_per_nnz) < 1.0);
        assert!(s.traffic_reduction > 1.0, "stencil must compress: {s:?}");
    }

    #[test]
    fn geomean_empty_is_none() {
        assert!(geomean_bytes_per_nnz(&[]).is_none());
    }
}
