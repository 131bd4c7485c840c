//! The `.rcmx` container: a [`CompressedMatrix`] as bytes on disk.
//!
//! Everything is little-endian; counts and sizes are `u64`.
//!
//! | field | bytes |
//! |---|---|
//! | magic `RCMX`, version (`u32`, = 2) | 4 + 4 |
//! | `nrows`, `ncols`, `nnz` | 3 × 8 |
//! | `row_ptr` (`nrows + 1` entries) | 8 each |
//! | index config, value config: flags (`delta` 1, `snappy` 2, `huffman` 4), `block_bytes`, `huffman_sample_every` | 2 × (1 + 8 + 8) |
//! | index table, value table: present (0/1), then length + code lengths | 2 × (1 [+ 8 + n]) |
//! | index stream, value stream: `block_bytes`, `total_uncompressed`, block count, then per block `bit_len`, `uncompressed_len`, `seq` (`u32`), `checksum` (`u32`), payload length, payload | 2 × (24 + Σ (32 + n)) |
//!
//! Version 2 codes delta index words as wrapping differences
//! ([`crate::delta`]); version 1 coded them zigzagged. The bytes of a
//! version-1 file would pass their CRCs and decode to wrong indices, so the
//! reader refuses any version but its own.
//!
//! The reader is an outside-input boundary: it returns a typed
//! [`CodecError`] for anything malformed, never panics, and never reserves
//! more memory than the bytes still unread could fill. It checks structure
//! only; a flipped payload or header bit inside a block is the business of
//! the block's CRC ([`crate::block::BlockStream::verify`], run by
//! [`CompressedMatrix::decompress`]).

use crate::block::{BlockStream, CompressedBlock};
use crate::error::{CodecError, CodecResult};
use crate::pipeline::{CompressedMatrix, MatrixCodecConfig, PipelineConfig};

const MAGIC: &[u8; 4] = b"RCMX";
const VERSION: u32 = 2;

fn put_len(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u64).to_le_bytes());
}

fn put_config(out: &mut Vec<u8>, c: &PipelineConfig) {
    out.push(u8::from(c.delta) | u8::from(c.snappy) << 1 | u8::from(c.huffman) << 2);
    put_len(out, c.block_bytes);
    put_len(out, c.huffman_sample_every);
}

fn put_table(out: &mut Vec<u8>, table: Option<&Vec<u8>>) {
    out.push(u8::from(table.is_some()));
    if let Some(lengths) = table {
        put_len(out, lengths.len());
        out.extend_from_slice(lengths);
    }
}

fn put_stream(out: &mut Vec<u8>, s: &BlockStream) {
    put_len(out, s.block_bytes);
    put_len(out, s.total_uncompressed);
    put_len(out, s.blocks.len());
    for b in &s.blocks {
        put_len(out, b.bit_len);
        put_len(out, b.uncompressed_len);
        out.extend_from_slice(&b.seq.to_le_bytes());
        out.extend_from_slice(&b.checksum.to_le_bytes());
        put_len(out, b.payload.len());
        out.extend_from_slice(&b.payload);
    }
}

/// Cursor over the unread tail of a container.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> CodecResult<&'a [u8]> {
        if n > self.0.len() {
            return Err(CodecError::Truncated { context });
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, context: &'static str) -> CodecResult<[u8; N]> {
        Ok(self.take(N, context)?.try_into().expect("take returned N bytes"))
    }

    fn u32(&mut self, context: &'static str) -> CodecResult<u32> {
        Ok(u32::from_le_bytes(self.array(context)?))
    }

    fn len(&mut self, context: &'static str) -> CodecResult<usize> {
        usize::try_from(u64::from_le_bytes(self.array(context)?))
            .map_err(|_| CodecError::Corrupt(format!("{context} does not fit this host's usize")))
    }

    /// A count of items that each occupy at least `item_bytes` of what is
    /// left: a count the remaining input cannot hold is a truncation, caught
    /// before anything is reserved for it.
    fn count(&mut self, item_bytes: usize, context: &'static str) -> CodecResult<usize> {
        let n = self.len(context)?;
        if n > self.0.len() / item_bytes {
            return Err(CodecError::Truncated { context });
        }
        Ok(n)
    }

    fn bytes(&mut self, context: &'static str) -> CodecResult<Vec<u8>> {
        let n = self.count(1, context)?;
        Ok(self.take(n, context)?.to_vec())
    }

    fn config(&mut self) -> CodecResult<PipelineConfig> {
        let [flags] = self.array("pipeline config")?;
        if flags > 0b111 {
            return Err(CodecError::Corrupt(format!("unknown pipeline stage flags {flags:#04x}")));
        }
        Ok(PipelineConfig {
            delta: flags & 1 != 0,
            snappy: flags & 2 != 0,
            huffman: flags & 4 != 0,
            block_bytes: self.len("pipeline config")?,
            huffman_sample_every: self.len("pipeline config")?,
        })
    }

    fn table(&mut self) -> CodecResult<Option<Vec<u8>>> {
        match self.array("huffman table")? {
            [0] => Ok(None),
            [1] => self.bytes("huffman table").map(Some),
            [other] => Err(CodecError::Corrupt(format!("huffman table marker {other}"))),
        }
    }

    fn stream(&mut self) -> CodecResult<BlockStream> {
        const BLOCK_HEADER: usize = 8 + 8 + 4 + 4 + 8;
        let block_bytes = self.len("stream header")?;
        let total_uncompressed = self.len("stream header")?;
        let n = self.count(BLOCK_HEADER, "stream block count")?;
        let mut blocks = Vec::with_capacity(n);
        for _ in 0..n {
            blocks.push(CompressedBlock {
                bit_len: self.len("block header")?,
                uncompressed_len: self.len("block header")?,
                seq: self.u32("block header")?,
                checksum: self.u32("block header")?,
                payload: self.bytes("block payload")?,
            });
        }
        Ok(BlockStream { block_bytes, blocks, total_uncompressed })
    }
}

impl CompressedMatrix {
    /// Serializes the matrix as an `.rcmx` container (layout: module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_bytes() + 8 * self.row_ptr.len() + 256);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        for dim in [self.nrows, self.ncols, self.nnz] {
            put_len(&mut out, dim);
        }
        for &p in &self.row_ptr {
            put_len(&mut out, p);
        }
        put_config(&mut out, &self.config.index);
        put_config(&mut out, &self.config.value);
        put_table(&mut out, self.index_table_lengths.as_ref());
        put_table(&mut out, self.value_table_lengths.as_ref());
        put_stream(&mut out, &self.index_stream);
        put_stream(&mut out, &self.value_stream);
        out
    }

    /// Reads an `.rcmx` container back.
    ///
    /// # Errors
    /// [`CodecError::Corrupt`] for a wrong magic or version, a `row_ptr`
    /// that is not a monotone `0..=nnz` ramp, stream sizes that disagree
    /// with `nnz`, unknown flags or trailing bytes;
    /// [`CodecError::Truncated`] when the input ends early or a length
    /// field claims more than what is left.
    pub fn from_bytes(bytes: &[u8]) -> CodecResult<Self> {
        let mut r = Reader(bytes);
        if r.take(4, "magic")? != MAGIC {
            return Err(CodecError::Corrupt("not an .rcmx container (bad magic)".into()));
        }
        let version = r.u32("version")?;
        if version != VERSION {
            return Err(CodecError::Corrupt(format!(
                ".rcmx version {version} (this build reads {VERSION})"
            )));
        }
        let nrows = r.len("dimensions")?;
        let ncols = r.len("dimensions")?;
        let nnz = r.len("dimensions")?;
        // `nrows + 1` entries; compare without the `+ 1` that could wrap.
        if nrows >= r.0.len() / 8 {
            return Err(CodecError::Truncated { context: "row_ptr" });
        }
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        for _ in 0..=nrows {
            row_ptr.push(r.len("row_ptr")?);
        }
        if row_ptr[0] != 0 || row_ptr[nrows] != nnz || row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(CodecError::Corrupt(format!(
                "row_ptr is not a monotone ramp from 0 to nnz = {nnz}"
            )));
        }
        let config = MatrixCodecConfig { index: r.config()?, value: r.config()? };
        let index_table_lengths = r.table()?;
        let value_table_lengths = r.table()?;
        let index_stream = r.stream()?;
        let value_stream = r.stream()?;
        if !r.0.is_empty() {
            return Err(CodecError::Corrupt(format!("{} trailing bytes", r.0.len())));
        }
        if Some(index_stream.total_uncompressed) != nnz.checked_mul(4)
            || Some(value_stream.total_uncompressed) != nnz.checked_mul(8)
        {
            return Err(CodecError::Corrupt(format!(
                "streams declare {} index and {} value bytes for {nnz} non-zeros",
                index_stream.total_uncompressed, value_stream.total_uncompressed
            )));
        }
        Ok(CompressedMatrix {
            nrows,
            ncols,
            nnz,
            row_ptr,
            index_stream,
            value_stream,
            config,
            index_table_lengths,
            value_table_lengths,
        })
    }
}
