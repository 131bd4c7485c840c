//! The composed recoding pipeline and whole-matrix compression.
//!
//! Encoding runs **Delta → Snappy → Huffman** per block (any stage can be
//! toggled off); decoding runs the reverse — Huffman decode, Snappy decode,
//! inverse delta — exactly the three steps §V-A describes running "as a
//! series of steps in a single lane of the UDP".
//!
//! A sparse matrix compresses as two independent block streams, one for the
//! column indices and one for the values, mirroring the two `recode()`
//! calls in the paper's Fig. 7 tiled SpMV. The `row_ptr` array stays raw:
//! it is `O(rows)` not `O(nnz)` and the paper's 12 B/nnz baseline excludes
//! it as well.

use crate::block::{split_blocks, BlockStream, CompressedBlock};
use crate::error::{CodecError, CodecResult};
use crate::huffman::{self, FlatDecoder, HuffmanTable};
use crate::{delta, snappy};
use recode_sparse::Csr;

/// Which stages a pipeline runs and at what block granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Fixed-width wrapping delta (index streams only — requires 4-byte
    /// alignment).
    pub delta: bool,
    /// Snappy stage.
    pub snappy: bool,
    /// Huffman stage (requires a trained table).
    pub huffman: bool,
    /// Uncompressed bytes per block.
    pub block_bytes: usize,
    /// Keep 1 block in `huffman_sample_every` when training the Huffman
    /// table (paper: sampled "up to 40%" of blocks → every ~3rd block).
    pub huffman_sample_every: usize,
}

impl PipelineConfig {
    /// The paper's UDP pipeline for index streams: Delta+Snappy+Huffman on
    /// 8 KB blocks.
    pub fn dsh_udp() -> Self {
        PipelineConfig {
            delta: true,
            snappy: true,
            huffman: true,
            block_bytes: crate::UDP_BLOCK_BYTES,
            huffman_sample_every: 3,
        }
    }

    /// The paper's UDP pipeline for value streams (no delta: doubles don't
    /// difference meaningfully at the byte level).
    pub fn sh_udp() -> Self {
        PipelineConfig { delta: false, ..Self::dsh_udp() }
    }

    /// Delta+Snappy without Huffman (the paper's intermediate data point:
    /// geomean 5.92 B/nnz).
    pub fn ds_udp() -> Self {
        PipelineConfig { huffman: false, ..Self::dsh_udp() }
    }

    /// The CPU baseline: plain Snappy on 32 KB blocks (paper: geomean
    /// 5.20 B/nnz).
    pub fn snappy_cpu() -> Self {
        PipelineConfig {
            delta: false,
            snappy: true,
            huffman: false,
            block_bytes: crate::CPU_BLOCK_BYTES,
            huffman_sample_every: 1,
        }
    }
}

/// A trained pipeline: config plus the per-stream Huffman table (if the
/// Huffman stage is enabled).
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
    table: Option<HuffmanTable>,
    /// Flat decode LUT built once per table at pipeline construction —
    /// `decode_block` must not pay the 2^15-entry rebuild per block.
    decoder: Option<FlatDecoder>,
}

impl Pipeline {
    /// Builds a pipeline, training the Huffman table on `data` if the
    /// config enables that stage. Training compresses a sample of blocks
    /// through the earlier stages so the table models what Huffman will
    /// actually see.
    ///
    /// # Errors
    /// Propagates stage preconditions (e.g. delta on misaligned data).
    pub fn train(config: PipelineConfig, data: &[u8]) -> CodecResult<Self> {
        if config.delta && !config.block_bytes.is_multiple_of(4) {
            return Err(CodecError::Precondition(
                "delta stage requires 4-byte-aligned blocks".into(),
            ));
        }
        let table = if config.huffman {
            let stride = config.huffman_sample_every.max(1);
            let mut hist = [1u64; 256]; // add-one smoothing
            for (i, block) in split_blocks(data, config.block_bytes)?.into_iter().enumerate() {
                if i % stride != 0 {
                    continue;
                }
                let pre = Self::run_pre_huffman(&config, block)?;
                for &b in &pre {
                    hist[b as usize] += 1;
                }
            }
            Some(HuffmanTable::from_histogram(&hist))
        } else {
            None
        };
        let decoder = table.as_ref().map(FlatDecoder::build);
        Ok(Pipeline { config, table, decoder })
    }

    /// Builds a pipeline with an externally supplied table (e.g. decoder
    /// side, reconstructed from serialized lengths).
    ///
    /// # Errors
    /// [`CodecError::MissingTable`] if the config needs a table and none is
    /// given.
    pub fn with_table(config: PipelineConfig, table: Option<HuffmanTable>) -> CodecResult<Self> {
        if config.huffman && table.is_none() {
            return Err(CodecError::MissingTable);
        }
        let decoder = table.as_ref().map(FlatDecoder::build);
        Ok(Pipeline { config, table, decoder })
    }

    /// The configuration this pipeline runs.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The trained Huffman table, if any.
    pub fn table(&self) -> Option<&HuffmanTable> {
        self.table.as_ref()
    }

    /// Stages before Huffman (shared by encoding and table training).
    fn run_pre_huffman(config: &PipelineConfig, block: &[u8]) -> CodecResult<Vec<u8>> {
        let after_delta = if config.delta { delta::encode_bytes(block)? } else { block.to_vec() };
        Ok(if config.snappy { snappy::compress(&after_delta) } else { after_delta })
    }

    /// Encodes one standalone block (sealed with sequence number 0).
    ///
    /// # Errors
    /// Stage preconditions (alignment) and internal encoding failures.
    pub fn encode_block(&self, block: &[u8]) -> CodecResult<CompressedBlock> {
        self.encode_block_at(block, 0)
    }

    /// Encodes one block destined for stream position `seq`, sealing it with
    /// its checksum.
    ///
    /// # Errors
    /// Stage preconditions (alignment) and internal encoding failures.
    pub fn encode_block_at(&self, block: &[u8], seq: u32) -> CodecResult<CompressedBlock> {
        let pre = Self::run_pre_huffman(&self.config, block)?;
        let (payload, bit_len) = if self.config.huffman {
            let table = self.table.as_ref().ok_or(CodecError::MissingTable)?;
            huffman::encode(&pre, table)?
        } else {
            let bits = pre.len() * 8;
            (pre, bits)
        };
        Ok(CompressedBlock::sealed(payload, bit_len, block.len(), seq))
    }

    /// Decodes one block back to its uncompressed bytes. The block checksum
    /// is verified before any stage touches the payload, so corruption is
    /// reported as [`CodecError::ChecksumMismatch`] rather than whatever a
    /// stage happens to notice (or fail to notice).
    ///
    /// # Errors
    /// Checksum mismatch, any stage's corruption/truncation errors; the
    /// final length is verified against the block header.
    pub fn decode_block(&self, block: &CompressedBlock) -> CodecResult<Vec<u8>> {
        block.verify_checksum()?;
        // Stage 1: Huffman decode (needs the intermediate length, which is
        // recoverable: snappy self-describes, so decode until the bitstream
        // is exhausted — we instead store the intermediate implicitly by
        // decoding symbol-by-symbol until all bits are consumed).
        let pre = if self.config.huffman {
            let decoder = self.decoder.as_ref().ok_or(CodecError::MissingTable)?;
            decoder.decode_all(&block.payload, block.bit_len)?
        } else {
            block.payload.clone()
        };
        // Stage 2: Snappy decode.
        let after_snappy = if self.config.snappy {
            let limit = self.config.block_bytes.max(block.uncompressed_len);
            snappy::decompress_with_limit(&pre, limit)?
        } else {
            pre
        };
        // Stage 3: inverse delta.
        let out =
            if self.config.delta { delta::decode_bytes(&after_snappy)? } else { after_snappy };
        if out.len() != block.uncompressed_len {
            return Err(CodecError::LengthMismatch {
                expected: block.uncompressed_len,
                actual: out.len(),
            });
        }
        Ok(out)
    }

    /// Encodes a whole byte stream into framed blocks, one after another on
    /// the calling thread (`&self` is `Sync`, so a caller may fan streams
    /// out itself).
    ///
    /// # Errors
    /// First failing block's error.
    pub fn encode_stream(&self, data: &[u8]) -> CodecResult<BlockStream> {
        let blocks: Vec<CompressedBlock> = split_blocks(data, self.config.block_bytes)?
            .into_iter()
            .enumerate()
            .map(|(k, b)| self.encode_block_at(b, k as u32))
            .collect::<CodecResult<_>>()?;
        Ok(BlockStream {
            block_bytes: self.config.block_bytes,
            blocks,
            total_uncompressed: data.len(),
        })
    }

    /// Decodes a framed stream back to bytes, block by block.
    /// Stream structure (block count, sequence numbers, checksums) is
    /// verified up front, so dropped/duplicated/reordered blocks surface as
    /// typed errors instead of silently wrong bytes.
    ///
    /// # Errors
    /// Structural integrity errors, the first failing block's error; total
    /// length is re-verified.
    pub fn decode_stream(&self, stream: &BlockStream) -> CodecResult<Vec<u8>> {
        stream.verify()?;
        let parts: Vec<Vec<u8>> =
            stream.blocks.iter().map(|b| self.decode_block(b)).collect::<CodecResult<_>>()?;
        let out: Vec<u8> = parts.concat();
        if out.len() != stream.total_uncompressed {
            return Err(CodecError::LengthMismatch {
                expected: stream.total_uncompressed,
                actual: out.len(),
            });
        }
        Ok(out)
    }
}

/// Matrix-level codec configuration: one pipeline per stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixCodecConfig {
    /// Pipeline for the column-index stream.
    pub index: PipelineConfig,
    /// Pipeline for the value stream.
    pub value: PipelineConfig,
}

impl MatrixCodecConfig {
    /// The paper's UDP configuration: DSH indices, SH values, 8 KB blocks.
    pub fn udp_dsh() -> Self {
        MatrixCodecConfig { index: PipelineConfig::dsh_udp(), value: PipelineConfig::sh_udp() }
    }

    /// Delta+Snappy (no Huffman) on both streams — the paper's 5.92 B/nnz
    /// intermediate point.
    pub fn udp_ds() -> Self {
        MatrixCodecConfig {
            index: PipelineConfig::ds_udp(),
            value: PipelineConfig { delta: false, ..PipelineConfig::ds_udp() },
        }
    }

    /// The CPU Snappy baseline (32 KB blocks, both streams).
    pub fn cpu_snappy() -> Self {
        MatrixCodecConfig {
            index: PipelineConfig::snappy_cpu(),
            value: PipelineConfig::snappy_cpu(),
        }
    }
}

/// A fully compressed sparse matrix: raw `row_ptr`, compressed index and
/// value streams, and everything needed to decode (configs + Huffman code
/// lengths).
#[derive(Debug, Clone)]
pub struct CompressedMatrix {
    /// Rows.
    pub nrows: usize,
    /// Columns.
    pub ncols: usize,
    /// Stored non-zeros.
    pub nnz: usize,
    /// Raw row pointers (kept uncompressed, as in the paper).
    pub row_ptr: Vec<usize>,
    /// Compressed column-index stream.
    pub index_stream: BlockStream,
    /// Compressed value stream.
    pub value_stream: BlockStream,
    /// Codec configuration used.
    pub config: MatrixCodecConfig,
    /// Serialized Huffman table (code lengths) for the index stream.
    pub index_table_lengths: Option<Vec<u8>>,
    /// Serialized Huffman table (code lengths) for the value stream.
    pub value_table_lengths: Option<Vec<u8>>,
}

impl CompressedMatrix {
    /// Compresses `a` under `config` (trains per-stream Huffman tables).
    ///
    /// # Errors
    /// Stage preconditions (e.g. a delta stage on blocks that are not a
    /// whole number of words).
    pub fn compress(a: &Csr, config: MatrixCodecConfig) -> CodecResult<Self> {
        let index_bytes: Vec<u8> = a.col_idx().iter().flat_map(|c| c.to_le_bytes()).collect();
        let value_bytes: Vec<u8> = a.values().iter().flat_map(|v| v.to_le_bytes()).collect();
        let index_pipe = Pipeline::train(config.index, &index_bytes)?;
        let value_pipe = Pipeline::train(config.value, &value_bytes)?;
        Ok(CompressedMatrix {
            nrows: a.nrows(),
            ncols: a.ncols(),
            nnz: a.nnz(),
            row_ptr: a.row_ptr().to_vec(),
            index_stream: index_pipe.encode_stream(&index_bytes)?,
            value_stream: value_pipe.encode_stream(&value_bytes)?,
            config,
            index_table_lengths: index_pipe.table().map(|t| t.lengths.clone()),
            value_table_lengths: value_pipe.table().map(|t| t.lengths.clone()),
        })
    }

    /// Rebuilds the per-stream decode pipelines from the serialized state.
    ///
    /// # Errors
    /// Corrupt table lengths or missing tables.
    pub fn pipelines(&self) -> CodecResult<(Pipeline, Pipeline)> {
        let index_table = self
            .index_table_lengths
            .as_ref()
            .map(|l| HuffmanTable::from_lengths(l.clone()))
            .transpose()?;
        let value_table = self
            .value_table_lengths
            .as_ref()
            .map(|l| HuffmanTable::from_lengths(l.clone()))
            .transpose()?;
        Ok((
            Pipeline::with_table(self.config.index, index_table)?,
            Pipeline::with_table(self.config.value, value_table)?,
        ))
    }

    /// Decompresses back to CSR. The result is bit-identical to the input
    /// matrix (lossless pipeline).
    ///
    /// # Errors
    /// Decode errors, or structural errors if the decoded streams do not
    /// reassemble into a valid CSR matrix.
    pub fn decompress(&self) -> CodecResult<Csr> {
        let (index_pipe, value_pipe) = self.pipelines()?;
        let index_bytes = index_pipe.decode_stream(&self.index_stream)?;
        let value_bytes = value_pipe.decode_stream(&self.value_stream)?;
        if index_bytes.len() != self.nnz * 4 || value_bytes.len() != self.nnz * 8 {
            return Err(CodecError::LengthMismatch {
                expected: self.nnz * 12,
                actual: index_bytes.len() + value_bytes.len(),
            });
        }
        let col_idx: Vec<u32> = index_bytes
            .chunks_exact(4)
            .map(|c| {
                c.try_into()
                    .map(u32::from_le_bytes)
                    .map_err(|_| CodecError::Corrupt("index stream not 4-byte aligned".into()))
            })
            .collect::<CodecResult<_>>()?;
        let values: Vec<f64> = value_bytes
            .chunks_exact(8)
            .map(|c| {
                c.try_into()
                    .map(f64::from_le_bytes)
                    .map_err(|_| CodecError::Corrupt("value stream not 8-byte aligned".into()))
            })
            .collect::<CodecResult<_>>()?;
        Csr::try_from_parts(self.nrows, self.ncols, self.row_ptr.clone(), col_idx, values)
            .map_err(|e| CodecError::Corrupt(format!("decoded matrix invalid: {e}")))
    }

    /// Total compressed wire bytes (both streams + serialized tables).
    pub fn wire_bytes(&self) -> usize {
        let tables = self.index_table_lengths.as_ref().map_or(0, Vec::len)
            + self.value_table_lengths.as_ref().map_or(0, Vec::len);
        self.index_stream.wire_bytes() + self.value_stream.wire_bytes() + tables
    }

    /// The paper's headline metric: compressed bytes per non-zero
    /// (raw CSR = 12.0), via the shared [`crate::metrics::bytes_per_nnz`]
    /// definition.
    pub fn bytes_per_nnz(&self) -> f64 {
        crate::metrics::bytes_per_nnz(self.wire_bytes(), self.nnz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recode_sparse::prelude::*;

    fn banded_matrix() -> Csr {
        generate(
            &GenSpec::FemBand {
                n: 600,
                band: 12,
                fill: 0.6,
                values: ValueModel::MixedRepeated { distinct: 8 },
            },
            11,
        )
    }

    fn random_matrix() -> Csr {
        generate(
            &GenSpec::ErdosRenyi { n: 500, avg_deg: 10.0, values: ValueModel::UniformRandom },
            5,
        )
    }

    #[test]
    fn stream_round_trip_all_stage_combinations() {
        let data: Vec<u8> = (0..40_000u32).flat_map(|i| ((i / 7) % 97).to_le_bytes()).collect();
        for delta in [false, true] {
            for snappy in [false, true] {
                for huffman in [false, true] {
                    let config = PipelineConfig {
                        delta,
                        snappy,
                        huffman,
                        block_bytes: 8192,
                        huffman_sample_every: 3,
                    };
                    let pipe = Pipeline::train(config, &data).unwrap();
                    let enc = pipe.encode_stream(&data).unwrap();
                    let dec = pipe.decode_stream(&enc).unwrap();
                    assert_eq!(dec, data, "stages d={delta} s={snappy} h={huffman}");
                }
            }
        }
    }

    #[test]
    fn matrix_round_trip_is_lossless_udp_config() {
        let a = banded_matrix();
        let c = CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        assert_eq!(c.decompress().unwrap(), a);
    }

    #[test]
    fn matrix_round_trip_is_lossless_cpu_config() {
        let a = random_matrix();
        let c = CompressedMatrix::compress(&a, MatrixCodecConfig::cpu_snappy()).unwrap();
        assert_eq!(c.decompress().unwrap(), a);
    }

    #[test]
    fn banded_matrix_beats_12_bytes_per_nnz_substantially() {
        let a = banded_matrix();
        let c = CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let bpnnz = c.bytes_per_nnz();
        assert!(bpnnz < 7.0, "banded DSH should beat 7 B/nnz, got {bpnnz:.2}");
    }

    #[test]
    fn dsh_beats_plain_snappy_on_banded_indices() {
        let a = banded_matrix();
        let dsh = CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let cpu = CompressedMatrix::compress(&a, MatrixCodecConfig::cpu_snappy()).unwrap();
        assert!(
            dsh.index_stream.wire_bytes() < cpu.index_stream.wire_bytes(),
            "DSH index stream {} vs CPU snappy {}",
            dsh.index_stream.wire_bytes(),
            cpu.index_stream.wire_bytes()
        );
    }

    #[test]
    fn random_values_resist_compression() {
        let a = random_matrix();
        let c = CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        // Value stream is 8 B/nnz raw; full-entropy doubles shouldn't shrink
        // much below that.
        let value_bpnnz = c.value_stream.wire_bytes() as f64 / c.nnz as f64;
        assert!(value_bpnnz > 6.5, "value stream {value_bpnnz:.2} B/nnz");
    }

    #[test]
    fn empty_matrix_compresses_and_round_trips() {
        let a = Csr::try_from_parts(4, 4, vec![0, 0, 0, 0, 0], vec![], vec![]).unwrap();
        let c = CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        assert_eq!(c.decompress().unwrap(), a);
        assert_eq!(c.bytes_per_nnz(), 0.0);
    }

    #[test]
    fn corrupt_payload_is_rejected_not_mispropagated() {
        let a = banded_matrix();
        let mut c = CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        if let Some(b) = c.index_stream.blocks.first_mut() {
            if let Some(byte) = b.payload.first_mut() {
                *byte ^= 0x55;
            }
        }
        assert!(c.decompress().is_err());
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let a = banded_matrix();
        let mut c = CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        c.value_stream.blocks.pop();
        assert!(c.decompress().is_err());
    }

    #[test]
    fn missing_table_is_reported() {
        let a = banded_matrix();
        let mut c = CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        c.index_table_lengths = None;
        assert!(matches!(c.decompress(), Err(CodecError::MissingTable)));
    }

    #[test]
    fn checksum_catches_stage_undetected_corruption() {
        // With every stage off the payload IS the data: pre-CRC framing, a
        // bit flip here decoded to silently wrong bytes. The checksum is the
        // only line of defense and must catch it.
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let config = PipelineConfig {
            delta: false,
            snappy: false,
            huffman: false,
            block_bytes: 1024,
            huffman_sample_every: 1,
        };
        let pipe = Pipeline::train(config, &data).unwrap();
        let mut enc = pipe.encode_stream(&data).unwrap();
        enc.blocks[3].payload[10] ^= 1;
        assert!(matches!(pipe.decode_stream(&enc), Err(CodecError::ChecksumMismatch { .. })));
    }

    #[test]
    fn reordered_blocks_are_rejected_by_stream_decode() {
        let data: Vec<u8> = (0..40_000u32).flat_map(|i| (i % 251).to_le_bytes()).collect();
        let config = PipelineConfig {
            delta: false,
            snappy: true,
            huffman: false,
            block_bytes: 4096,
            huffman_sample_every: 1,
        };
        let pipe = Pipeline::train(config, &data).unwrap();
        let mut enc = pipe.encode_stream(&data).unwrap();
        enc.blocks.swap(0, 1);
        assert!(matches!(pipe.decode_stream(&enc), Err(CodecError::BlockSequence { .. })));
    }

    #[test]
    fn container_round_trip_preserves_decodability() {
        let a = banded_matrix();
        let c = CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let c2 = CompressedMatrix::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(c2.decompress().unwrap(), a);
    }
}
