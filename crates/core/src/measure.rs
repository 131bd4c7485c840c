//! Measured recoding throughput.
//!
//! The UDP numbers come from *executing the real decoder programs* on the
//! lane simulator over (a sample of) a matrix's compressed blocks, then
//! extrapolating cycle counts to the 64-lane accelerator at 1.6 GHz —
//! exactly how the paper's cycle-accurate simulator feeds its Figs. 12/13.
//! CPU software numbers come from the calibrated `recode_mem::CpuModel`.

use crate::error::{ExecError, ExecResult};
use recode_codec::block::CompressedBlock;
use recode_codec::pipeline::{CompressedMatrix, MatrixCodecConfig, Pipeline};
use recode_udp::accel::{Accelerator, FaultHook};
use recode_udp::progs::DshDecoder;

/// Measured decompression characteristics of one compressed matrix.
#[derive(Debug, Clone)]
pub struct DecompMeasurement {
    /// Blocks actually simulated (sampled).
    pub blocks_simulated: usize,
    /// Total blocks in the matrix (both streams).
    pub blocks_total: usize,
    /// Mean single-lane microseconds to decode one block (the paper quotes
    /// a 21.7 µs geomean for 8 KB blocks).
    pub us_per_block: f64,
    /// Single-lane decompressed-output throughput, bytes/s.
    pub lane_out_bps: f64,
    /// Full accelerator (64-lane) decompressed-output throughput, bytes/s.
    pub accel_out_bps: f64,
    /// Decompressed bytes per cycle per lane (model-level intensity).
    pub bytes_per_cycle: f64,
}

/// Simulates decompression of up to `max_blocks_per_stream` blocks from
/// each of the matrix's two streams on the accelerator and extrapolates.
///
/// # Errors
/// Decoder-construction failures or lane traps (which indicate a bug, since
/// the blocks come from our own encoder).
pub fn measure_udp_decomp(
    cm: &CompressedMatrix,
    accel: &Accelerator,
    max_blocks_per_stream: usize,
) -> ExecResult<DecompMeasurement> {
    let index_decoder = DshDecoder::new(cm.config.index, cm.index_table_lengths.as_deref())?;
    let value_decoder = DshDecoder::new(cm.config.value, cm.value_table_lengths.as_deref())?;

    // Sample blocks evenly across each stream.
    let mut jobs: Vec<(&DshDecoder, &CompressedBlock)> = Vec::new();
    for (decoder, stream) in
        [(&index_decoder, &cm.index_stream), (&value_decoder, &cm.value_stream)]
    {
        let n = stream.blocks.len();
        // `max(1)` twice: a zero sample budget degrades to one block per
        // stream instead of a divide-by-zero panic.
        let stride = n.div_ceil(max_blocks_per_stream.max(1)).max(1);
        for block in stream.blocks.iter().step_by(stride) {
            jobs.push((decoder, block));
        }
    }
    let blocks_total = cm.index_stream.blocks.len() + cm.value_stream.blocks.len();
    if jobs.is_empty() {
        return Ok(DecompMeasurement {
            blocks_simulated: 0,
            blocks_total,
            us_per_block: 0.0,
            lane_out_bps: 0.0,
            accel_out_bps: 0.0,
            bytes_per_cycle: 0.0,
        });
    }

    let outcome = accel.run_jobs_with_faults(
        &jobs,
        |lane, (decoder, block)| decoder.decode_block(lane, block),
        &FaultHook::default(),
    );
    // Measurement wants a clean run; self-encoded blocks failing is a bug.
    if let Some(err) = outcome.results.iter().find_map(|r| r.as_ref().err()) {
        return Err(ExecError::Udp(err.clone()));
    }
    let report = outcome.report;

    let bytes_per_cycle = report.output_bytes as f64 / report.busy_cycles.max(1) as f64;
    // Same degenerate-input policy as the `.max(1)` clamp above: a clock
    // that is zero, negative, or non-finite yields finite zero rates rather
    // than NaN/inf leaking into downstream tables.
    let (lane_out_bps, us_per_block) = if accel.freq_hz.is_finite() && accel.freq_hz > 0.0 {
        (
            bytes_per_cycle * accel.freq_hz,
            report.busy_cycles as f64 / jobs.len() as f64 / accel.freq_hz * 1e6,
        )
    } else {
        (0.0, 0.0)
    };
    Ok(DecompMeasurement {
        blocks_simulated: jobs.len(),
        blocks_total,
        us_per_block,
        lane_out_bps,
        accel_out_bps: lane_out_bps * accel.lanes as f64,
        bytes_per_cycle,
    })
}

/// Host-measured software codec throughput — times *this repository's own*
/// Snappy and DSH decoders on the current machine. Not the reproduction
/// input (that role belongs to the calibrated `recode_mem::CpuModel`
/// constants; this machine is not the paper's Xeon), but a qualitative
/// check that software DSH decoding really is far slower than plain Snappy,
/// which is the mechanism behind the paper's ">30x" claim.
#[derive(Debug, Clone, Copy)]
pub struct HostCodecRates {
    /// Single-thread Snappy decompression, output bytes/s.
    pub snappy_bps: f64,
    /// Single-thread full DSH block decode, output bytes/s.
    pub dsh_bps: f64,
}

/// Times the software decoders over the matrix's blocks (single-threaded,
/// best of `reps` passes). The two decoders take turns — DSH, Snappy, DSH,
/// … — so a slow phase of the host lands on both minima's candidates and
/// not on one decoder's whole window.
///
/// # Errors
/// Decode failures (impossible for self-encoded blocks).
pub fn measure_host_codec(cm: &CompressedMatrix, reps: usize) -> ExecResult<HostCodecRates> {
    /// Seconds for one pass over every block of both streams.
    fn pass(cm: &CompressedMatrix, pipes: &(Pipeline, Pipeline)) -> ExecResult<f64> {
        let t0 = std::time::Instant::now();
        for (pipe, stream) in [(&pipes.0, &cm.index_stream), (&pipes.1, &cm.value_stream)] {
            for b in &stream.blocks {
                std::hint::black_box(pipe.decode_block(b)?);
            }
        }
        Ok(t0.elapsed().as_secs_f64())
    }
    // DSH decodes this matrix's own streams; Snappy-only decodes the same
    // matrix re-encoded under the CPU baseline.
    let dsh_pipes = cm.pipelines()?;
    let snappy_cm = CompressedMatrix::compress(&cm.decompress()?, MatrixCodecConfig::cpu_snappy())?;
    let snappy_pipes = snappy_cm.pipelines()?;
    let (mut best_dsh, mut best_snappy) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps.max(1) {
        best_dsh = best_dsh.min(pass(cm, &dsh_pipes)?);
        best_snappy = best_snappy.min(pass(&snappy_cm, &snappy_pipes)?);
    }
    let total_out =
        (cm.index_stream.total_uncompressed + cm.value_stream.total_uncompressed) as f64;
    Ok(HostCodecRates {
        snappy_bps: total_out / best_snappy.max(1e-12),
        dsh_bps: total_out / best_dsh.max(1e-12),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recode_sparse::prelude::*;

    fn compressed_banded() -> CompressedMatrix {
        let a = generate(
            &GenSpec::FemBand {
                n: 2000,
                band: 16,
                fill: 0.5,
                values: ValueModel::MixedRepeated { distinct: 12 },
            },
            5,
        );
        CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh()).unwrap()
    }

    #[test]
    fn measurement_is_in_the_papers_regime() {
        let cm = compressed_banded();
        let m = measure_udp_decomp(&cm, &Accelerator::default(), 16).unwrap();
        assert!(m.blocks_simulated > 0);
        // The paper: geomean 21.7 us per 8 KB block on one lane, 64-lane
        // aggregate >20 GB/s on friendly matrices. Same order here.
        assert!(m.us_per_block > 2.0 && m.us_per_block < 80.0, "us/block {:.1}", m.us_per_block);
        assert!(m.accel_out_bps > 5e9, "accelerator throughput {:.2} GB/s", m.accel_out_bps / 1e9);
    }

    #[test]
    fn sampling_caps_simulated_blocks() {
        let cm = compressed_banded();
        let m = measure_udp_decomp(&cm, &Accelerator::default(), 4).unwrap();
        assert!(m.blocks_simulated <= 8 + 2, "{}", m.blocks_simulated);
        assert!(m.blocks_total >= m.blocks_simulated);
    }

    #[test]
    fn host_rates_show_dsh_much_slower_than_snappy() {
        let cm = compressed_banded();
        // Best-of-8: the minimum must survive scheduling noise from sibling
        // test threads.
        // The Huffman stage is what DSH pays over Snappy (~1.6x observed).
        let r = measure_host_codec(&cm, 8).unwrap();
        assert!(r.snappy_bps > r.dsh_bps, "snappy {:.2e} vs dsh {:.2e}", r.snappy_bps, r.dsh_bps);
    }

    #[test]
    fn zero_sample_budget_degrades_to_one_block_per_stream() {
        let cm = compressed_banded();
        let m = measure_udp_decomp(&cm, &Accelerator::default(), 0).unwrap();
        assert!(m.blocks_simulated >= 1 && m.blocks_simulated <= 2, "{}", m.blocks_simulated);
        assert!(m.us_per_block.is_finite() && m.us_per_block > 0.0);
    }

    #[test]
    fn degenerate_clock_yields_finite_zero_rates() {
        let cm = compressed_banded();
        for freq_hz in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let accel = Accelerator { lanes: 64, freq_hz };
            let m = measure_udp_decomp(&cm, &accel, 4).unwrap();
            assert!(m.blocks_simulated > 0);
            assert!(m.bytes_per_cycle > 0.0, "cycle-level intensity is clock-independent");
            assert_eq!(m.us_per_block, 0.0, "freq {freq_hz}");
            assert_eq!(m.lane_out_bps, 0.0, "freq {freq_hz}");
            assert_eq!(m.accel_out_bps, 0.0, "freq {freq_hz}");
        }
    }

    #[test]
    fn empty_matrix_measures_zero() {
        let a = recode_sparse::Csr::try_from_parts(3, 3, vec![0, 0, 0, 0], vec![], vec![]).unwrap();
        let cm = CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let m = measure_udp_decomp(&cm, &Accelerator::default(), 8).unwrap();
        assert_eq!(m.blocks_simulated, 0);
        assert_eq!(m.accel_out_bps, 0.0);
    }
}
