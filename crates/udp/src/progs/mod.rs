//! The paper's recoding programs, as real UDP software.
//!
//! §V-A: *"the decompression process contains these three transformations,
//! run in the reverse order — huffman decode, snappy decode, inverse delta —
//! that run as a series of steps in a single lane of the UDP."*
//!
//! * [`delta`] — inverse delta (a running sum), written in UDP assembly;
//! * [`snappy`] — Snappy decode built around a 256-way tag dispatch (the
//!   paper's flagship multi-way-dispatch example: the operation is *in* the
//!   tag byte);
//! * [`huffman`] — canonical Huffman decode *compiled per matrix* from the
//!   trained table into a two-level peek-dispatch structure, then packed by
//!   EffCLiP. This is the programmability story: new tables mean new
//!   programs, not new hardware.
//!
//! [`DshDecoder`] chains the stages on one lane per block and is validated
//! bit-for-bit against `recode-codec`'s software decoders.

pub mod delta;
pub mod huffman;
pub mod snappy;

use crate::accel::{JobOutcome, StageCycles};
use crate::error::UdpError;
use crate::lane::{Lane, RunConfig, OUTPUT_WINDOW_BYTES};
use crate::machine::Image;
use recode_codec::block::CompressedBlock;
use recode_codec::pipeline::PipelineConfig;
use recode_codec::CodecError;
use std::sync::{Arc, OnceLock};

/// The per-stage images needed to decode one stream's blocks, mirroring a
/// [`PipelineConfig`]. An image is immutable once assembled, so a decoder
/// holds each behind an [`Arc`]: cloning a decoder copies no code words,
/// predecode table or verify report.
#[derive(Debug, Clone)]
pub struct DshDecoder {
    /// Stage config this decoder implements.
    pub config: PipelineConfig,
    /// Huffman image (present iff `config.huffman`); compiled per matrix.
    pub huffman: Option<Arc<Image>>,
    /// Snappy image (present iff `config.snappy`); table-independent, so
    /// every decoder of the process shares one.
    pub snappy: Option<Arc<Image>>,
    /// Inverse-delta image (present iff `config.delta`); shared likewise.
    pub delta: Option<Arc<Image>>,
}

/// The process's one image of a table-independent program, built by `build`
/// on first use. (`build` itself stays a plain constructor: a caller that
/// wants an image of its own to tamper with or retire gets one.)
fn shared(
    cell: &'static OnceLock<Arc<Image>>,
    build: fn() -> Result<Image, UdpError>,
) -> Result<Arc<Image>, UdpError> {
    if let Some(image) = cell.get() {
        return Ok(Arc::clone(image));
    }
    // Two first users may both build; one image wins and the other is dropped.
    let image = Arc::new(build()?);
    Ok(Arc::clone(cell.get_or_init(|| image)))
}

impl DshDecoder {
    /// Builds the decoder set for `config`, compiling the Huffman stage
    /// from the given code lengths (required iff the config enables it). The
    /// two table-independent images are assembled once per process, here.
    ///
    /// # Errors
    /// Program-construction failures (invalid table lengths).
    pub fn new(config: PipelineConfig, huffman_lengths: Option<&[u8]>) -> Result<Self, UdpError> {
        static SNAPPY: OnceLock<Arc<Image>> = OnceLock::new();
        static DELTA: OnceLock<Arc<Image>> = OnceLock::new();
        let huffman = if config.huffman {
            let lengths = huffman_lengths.ok_or_else(|| {
                UdpError::Table("config enables huffman but no table provided".into())
            })?;
            Some(Arc::new(huffman::compile(lengths)?))
        } else {
            None
        };
        let snappy = config.snappy.then(|| shared(&SNAPPY, snappy::build)).transpose()?;
        let delta = config.delta.then(|| shared(&DELTA, delta::build)).transpose()?;
        let decoder = DshDecoder { config, huffman, snappy, delta };
        // Admission gate: a stage image the static verifier rejects never
        // reaches a lane (compiled Huffman programs are table-dependent, so
        // this is a real check, not a formality).
        for img in [&decoder.huffman, &decoder.snappy, &decoder.delta].into_iter().flatten() {
            img.verify_report.gate()?;
        }
        Ok(decoder)
    }

    /// Decodes one compressed block on `lane`, running the enabled stages
    /// in reverse pipeline order, *into* `dst`: the block's final position in
    /// whatever buffer the caller is assembling. Returns the *total* lane
    /// cycles across stages and `dst.len()` as the bytes placed.
    ///
    /// `dst` must be the block's extent in its stream's geometry
    /// (`[seq·block_bytes, min((seq+1)·block_bytes, total_uncompressed))`),
    /// never a length read from the block's own header: the header is what
    /// may be corrupt, and the caller's recovery needs a destination of the
    /// right size to recover into.
    ///
    /// The block's CRC32c framing checksum is verified before any lane
    /// cycles are spent — a corrupt block surfaces as
    /// [`UdpError::Codec`] with the block's stream position attached, not
    /// as a wrong decode — and so is the header's `uncompressed_len` against
    /// `dst.len()`. Lane traps surface as [`UdpError::Trap`] with the same
    /// context, and a chain that runs clean but yields another length than
    /// `dst.len()` as [`CodecError::LengthMismatch`].
    ///
    /// # Errors
    /// Checksum and length mismatches and lane traps (corrupt blocks never
    /// panic). After an error the contents of `dst` are unspecified.
    pub fn decode_block_into(
        &self,
        lane: &mut Lane,
        block: &CompressedBlock,
        dst: &mut [u8],
    ) -> Result<JobOutcome, UdpError> {
        let seq = block.seq as usize;
        block.verify_checksum().map_err(|e| UdpError::from(e).with_block(seq))?;
        if block.uncompressed_len != dst.len() {
            return Err(length_mismatch(seq, dst.len(), block.uncompressed_len));
        }
        // The stages before the last ping-pong through the lane's two spare
        // buffers, so a warm lane runs the whole chain without allocating.
        // They go back to the lane on every exit path: a trap must not cost
        // the lane's next block its buffers.
        let mut cur = std::mem::take(&mut lane.io_a);
        let mut nxt = std::mem::take(&mut lane.io_b);
        let placed = self.run_stages(lane, block, &mut cur, &mut nxt, dst);
        lane.io_a = cur;
        lane.io_b = nxt;
        placed
    }

    /// [`DshDecoder::decode_block_into`] for a caller with nowhere to put
    /// the bytes: allocates the extent the block's header declares, places
    /// into it, and returns it as [`JobOutcome::output`].
    ///
    /// # Errors
    /// As [`DshDecoder::decode_block_into`].
    pub fn decode_block(
        &self,
        lane: &mut Lane,
        block: &CompressedBlock,
    ) -> Result<JobOutcome, UdpError> {
        // The header is not verified yet, so it sizes nothing a lane could
        // not fill: a larger claim fails the length check behind the CRC.
        let mut output = vec![0u8; block.uncompressed_len.min(OUTPUT_WINDOW_BYTES)];
        let outcome = self.decode_block_into(lane, block, &mut output)?;
        Ok(JobOutcome { output, ..outcome })
    }

    /// The stage chain: each enabled stage reads the previous one's output
    /// (the first reads the payload); the ones before the last write `nxt`,
    /// which then becomes `cur`, and the last one's output window goes from
    /// the scratchpad straight into `dst`, once its length is checked.
    fn run_stages(
        &self,
        lane: &mut Lane,
        block: &CompressedBlock,
        cur: &mut Vec<u8>,
        nxt: &mut Vec<u8>,
        dst: &mut [u8],
    ) -> Result<JobOutcome, UdpError> {
        let seq = block.seq as usize;
        let cfg = RunConfig::default();
        let mut outcome = JobOutcome::default();
        let mut per_stage = [0u64; 3];
        let mut stages = [&self.huffman, &self.snappy, &self.delta]
            .into_iter()
            .zip(0..)
            .filter_map(|(image, stage)| Some((image.as_ref()?, stage)))
            .peekable();
        let (mut input, mut bits) = (block.payload.as_slice(), block.bit_len);
        if stages.peek().is_none() {
            // No stage enabled: the payload is the block.
            place(seq, input, dst)?;
        }
        while let Some((image, stage)) = stages.next() {
            let (r, out) = lane
                .run_in_scratch(image, input, bits, cfg)
                .map_err(|trap| UdpError::from(trap).with_block(seq))?;
            outcome.cycles += r.cycles;
            outcome.opclass.merge(&r.opclass);
            per_stage[stage] = r.cycles;
            if stages.peek().is_none() {
                place(seq, out, dst)?;
            } else {
                nxt.clear();
                nxt.extend_from_slice(out);
                std::mem::swap(cur, nxt);
                (input, bits) = (cur.as_slice(), cur.len() * 8);
            }
        }
        let [huffman, snappy, delta] = per_stage;
        outcome.stage_cycles = StageCycles { huffman, snappy, delta };
        outcome.output_bytes = dst.len() as u64;
        Ok(outcome)
    }

    /// Total code-memory bytes across the stage images (for reports).
    pub fn code_bytes(&self) -> usize {
        [&self.huffman, &self.snappy, &self.delta]
            .into_iter()
            .flatten()
            .map(|image| image.code_bytes())
            .sum()
    }
}

/// Copies block `seq`'s decoded `output` into its extent `dst`, which it
/// must fill exactly.
fn place(seq: usize, output: &[u8], dst: &mut [u8]) -> Result<(), UdpError> {
    if output.len() != dst.len() {
        return Err(length_mismatch(seq, dst.len(), output.len()));
    }
    dst.copy_from_slice(output);
    Ok(())
}

/// Block `seq` holds (or declares) `actual` bytes where its extent is
/// `expected`.
fn length_mismatch(seq: usize, expected: usize, actual: usize) -> UdpError {
    UdpError::from(CodecError::LengthMismatch { expected, actual }).with_block(seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recode_codec::pipeline::Pipeline;

    /// End-to-end: software-encode a stream, UDP-decode every block, compare.
    fn round_trip_via_udp(config: PipelineConfig, data: &[u8]) {
        let pipe = Pipeline::train(config, data).unwrap();
        let stream = pipe.encode_stream(data).unwrap();
        let decoder = DshDecoder::new(config, pipe.table().map(|t| t.lengths.as_slice())).unwrap();
        let mut lane = Lane::new();
        let mut out = Vec::new();
        let mut total_cycles = 0u64;
        for block in &stream.blocks {
            let o = decoder.decode_block(&mut lane, block).unwrap();
            total_cycles += o.cycles;
            out.extend_from_slice(&o.output);
        }
        assert_eq!(out, data, "UDP decode must equal the encoder input");
        assert!(total_cycles > 0 || data.is_empty());
    }

    fn banded_index_stream(n: usize) -> Vec<u8> {
        // Tridiagonal-ish column indices as LE u32 words.
        let mut out = Vec::with_capacity(n * 4);
        for i in 0..n {
            let base = (i / 3) as u32;
            let col = base + (i % 3) as u32;
            out.extend_from_slice(&col.to_le_bytes());
        }
        out
    }

    #[test]
    fn udp_decodes_full_dsh_pipeline() {
        round_trip_via_udp(PipelineConfig::dsh_udp(), &banded_index_stream(6000));
    }

    #[test]
    fn udp_decodes_snappy_huffman_value_stream() {
        // Repeated doubles, like FEM values.
        let vals = [1.5f64, -0.25, 1.5, 3.0];
        let data: Vec<u8> = (0..3000).flat_map(|i| vals[i % 4].to_le_bytes()).collect();
        round_trip_via_udp(PipelineConfig::sh_udp(), &data);
    }

    #[test]
    fn udp_decodes_delta_snappy_without_huffman() {
        round_trip_via_udp(PipelineConfig::ds_udp(), &banded_index_stream(4000));
    }

    #[test]
    fn udp_decodes_snappy_only_cpu_config() {
        let data: Vec<u8> = (0..50_000u32).flat_map(|i| ((i * 31) % 251).to_le_bytes()).collect();
        round_trip_via_udp(PipelineConfig::snappy_cpu(), &data);
    }

    #[test]
    fn empty_stream_is_fine() {
        round_trip_via_udp(PipelineConfig::dsh_udp(), &[]);
    }

    #[test]
    fn corrupt_block_traps_instead_of_panicking() {
        let data = banded_index_stream(4000);
        let config = PipelineConfig::dsh_udp();
        let pipe = Pipeline::train(config, &data).unwrap();
        let mut stream = pipe.encode_stream(&data).unwrap();
        let decoder = DshDecoder::new(config, pipe.table().map(|t| t.lengths.as_slice())).unwrap();
        let block = &mut stream.blocks[0];
        for i in 0..block.payload.len().min(32) {
            block.payload[i] ^= 0xA5;
        }
        let mut lane = Lane::new();
        // The framing CRC catches the corruption before any lane cycle runs.
        let err = decoder.decode_block(&mut lane, &stream.blocks[0]).unwrap_err();
        assert!(err.codec_error().is_some(), "expected checksum failure, got {err}");
        assert_eq!(err.block(), Some(0));
    }

    #[test]
    fn corrupt_block_that_is_resealed_traps_in_the_lane() {
        // If an attacker (or fault) rewrites the CRC to match the corrupt
        // payload, integrity checking cannot help — but the lane still
        // traps or produces bounded output instead of panicking.
        let data = banded_index_stream(4000);
        let config = PipelineConfig::dsh_udp();
        let pipe = Pipeline::train(config, &data).unwrap();
        let mut stream = pipe.encode_stream(&data).unwrap();
        let decoder = DshDecoder::new(config, pipe.table().map(|t| t.lengths.as_slice())).unwrap();
        let block = &mut stream.blocks[0];
        for i in 0..block.payload.len().min(32) {
            block.payload[i] ^= 0xA5;
        }
        block.reseal();
        let mut lane = Lane::new();
        let _ = decoder.decode_block(&mut lane, &stream.blocks[0]);
    }

    #[test]
    fn a_block_of_another_length_than_its_destination_is_a_length_mismatch() {
        let data = banded_index_stream(3000);
        let config = PipelineConfig::dsh_udp();
        let pipe = Pipeline::train(config, &data).unwrap();
        let decoder = DshDecoder::new(config, pipe.table().map(|t| t.lengths.as_slice())).unwrap();
        let mut lane = Lane::new();
        let mismatch = |r: Result<JobOutcome, UdpError>| match r.unwrap_err() {
            UdpError::Codec {
                block: Some(7),
                source: CodecError::LengthMismatch { expected, actual },
            } => (expected, actual),
            other => panic!("expected a length mismatch on block 7, got {other}"),
        };
        // An honest header that disagrees with the destination: refused
        // before a lane cycle is spent.
        let block = pipe.encode_block_at(&data[..4000], 7).unwrap();
        let mut dst = vec![0u8; 4096];
        assert_eq!(mismatch(decoder.decode_block_into(&mut lane, &block, &mut dst)), (4096, 4000));
        // A header resealed to claim the destination's length: the chain
        // runs clean, and what it produced does not fit.
        let mut lying = block.clone();
        lying.uncompressed_len = 4096;
        lying.reseal();
        assert_eq!(mismatch(decoder.decode_block_into(&mut lane, &lying, &mut dst)), (4096, 4000));
        assert_eq!(mismatch(decoder.decode_block(&mut lane, &lying)), (4096, 4000));
        // A header that claims more than a lane can emit sizes nothing.
        lying.uncompressed_len = 1 << 40;
        lying.reseal();
        assert_eq!(
            mismatch(decoder.decode_block(&mut lane, &lying)),
            (OUTPUT_WINDOW_BYTES, 1 << 40)
        );
        // The block as encoded places exactly, through either entry.
        let mut dst = vec![0u8; 4000];
        let placed = decoder.decode_block_into(&mut lane, &block, &mut dst).unwrap();
        assert_eq!((dst.as_slice(), placed.output_bytes), (&data[..4000], 4000));
        assert!(placed.output.is_empty());
        let owned = decoder.decode_block(&mut lane, &block).unwrap();
        assert_eq!((owned.output.as_slice(), owned.output_bytes), (&data[..4000], 4000));
        assert_eq!(owned.cycles, placed.cycles);
    }

    #[test]
    fn stage_and_opclass_attribution_sum_to_job_cycles() {
        let data = banded_index_stream(4000);
        let config = PipelineConfig::dsh_udp();
        let pipe = Pipeline::train(config, &data).unwrap();
        let stream = pipe.encode_stream(&data).unwrap();
        let decoder = DshDecoder::new(config, pipe.table().map(|t| t.lengths.as_slice())).unwrap();
        let mut lane = Lane::new();
        let o = decoder.decode_block(&mut lane, &stream.blocks[0]).unwrap();
        assert_eq!(o.stage_cycles.total(), o.cycles);
        assert_eq!(o.opclass.total(), o.cycles);
        // The full DSH config runs all three stages.
        assert!(o.stage_cycles.huffman > 0);
        assert!(o.stage_cycles.snappy > 0);
        assert!(o.stage_cycles.delta > 0);
    }

    #[test]
    fn shipped_programs_verify_clean() {
        // ISSUE 4 acceptance: every shipped prog must carry no Error *or*
        // Warn findings — the verifier holds our own programs to the same
        // bar it holds user programs.
        let data = banded_index_stream(2000);
        let config = PipelineConfig::dsh_udp();
        let pipe = Pipeline::train(config, &data).unwrap();
        let decoder = DshDecoder::new(config, pipe.table().map(|t| t.lengths.as_slice())).unwrap();
        for (name, img) in
            [("huffman", &decoder.huffman), ("snappy", &decoder.snappy), ("delta", &decoder.delta)]
        {
            let img = img.as_ref().unwrap();
            assert!(
                img.verify_report.is_clean(),
                "shipped `{name}` program has findings:\n{}",
                img.verify_report
            );
        }
    }

    #[test]
    fn code_bytes_reports_nonzero_footprint() {
        let data = banded_index_stream(1000);
        let config = PipelineConfig::dsh_udp();
        let pipe = Pipeline::train(config, &data).unwrap();
        let decoder = DshDecoder::new(config, pipe.table().map(|t| t.lengths.as_slice())).unwrap();
        assert!(decoder.code_bytes() > 1000);
    }
}
