//! Typed errors for the heterogeneous execution layer.
//!
//! [`ExecError`] is the top of the error chain: codec failures
//! ([`recode_codec::CodecError`]) and accelerator failures
//! ([`recode_udp::UdpError`], which itself wraps codec and lane errors with
//! block/lane context) both convert into it losslessly, so a checksum
//! mismatch detected deep inside a lane job surfaces at the SpMV API with
//! its block index and lane id still attached.

use crate::telemetry::StreamKind;
use recode_codec::CodecError;
use recode_udp::UdpError;
use std::fmt;

/// Result alias for heterogeneous-execution operations.
pub type ExecResult<T> = std::result::Result<T, ExecError>;

/// Errors raised by recoding-enhanced SpMV execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A codec operation failed outside the accelerator (compression,
    /// software decode, table serialization).
    Codec(CodecError),
    /// The accelerator stack failed (decoder compilation, lane trap, block
    /// integrity) — carries block/lane context when the failure has one.
    Udp(UdpError),
    /// A block failed decoding, failed its retry, and no raw fallback
    /// store was available to re-fetch it from.
    Unrecoverable {
        /// Stream-position of the block that could not be recovered.
        block: Option<usize>,
        /// Lane the final attempt ran on, when known.
        lane: Option<usize>,
        /// The last error observed for the block.
        source: UdpError,
    },
    /// A stream's transport structure is broken — a block dropped,
    /// duplicated or out of place — found before any block decodes.
    Structure {
        /// The stream.
        stream: StreamKind,
        /// The first position that does not hold the block it should
        /// (the stream's length when only its tail is missing).
        position: usize,
        /// What the check found there.
        source: CodecError,
    },
    /// Decoded streams do not reassemble into a valid matrix (wrong length,
    /// misaligned words, invalid CSR structure).
    Reassembly(String),
}

impl ExecError {
    /// The wrapped codec error, if any (searches through the UDP layer).
    pub fn codec_error(&self) -> Option<&CodecError> {
        match self {
            ExecError::Codec(e) | ExecError::Structure { source: e, .. } => Some(e),
            ExecError::Udp(e) | ExecError::Unrecoverable { source: e, .. } => e.codec_error(),
            ExecError::Reassembly(_) => None,
        }
    }

    /// The block index attached to this error, if any.
    pub fn block(&self) -> Option<usize> {
        match self {
            ExecError::Udp(e) => e.block(),
            ExecError::Unrecoverable { block, .. } => *block,
            ExecError::Structure { position, .. } => Some(*position),
            _ => None,
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Codec(e) => write!(f, "codec error: {e}"),
            ExecError::Udp(e) => write!(f, "accelerator error: {e}"),
            ExecError::Unrecoverable { block, lane, source } => {
                write!(f, "unrecoverable")?;
                if let Some(b) = block {
                    write!(f, " block {b}")?;
                }
                if let Some(l) = lane {
                    write!(f, " (lane {l})")?;
                }
                write!(f, ": its retry failed and no raw fallback store covers it: {source}")
            }
            ExecError::Structure { stream, position, source } => {
                write!(f, "{stream} stream, position {position}: {source}")
            }
            ExecError::Reassembly(msg) => write!(f, "reassembly error: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Codec(e) | ExecError::Structure { source: e, .. } => Some(e),
            ExecError::Udp(e) | ExecError::Unrecoverable { source: e, .. } => Some(e),
            ExecError::Reassembly(_) => None,
        }
    }
}

impl From<CodecError> for ExecError {
    fn from(e: CodecError) -> Self {
        ExecError::Codec(e)
    }
}

impl From<UdpError> for ExecError {
    fn from(e: UdpError) -> Self {
        ExecError::Udp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_error_round_trips_through_both_layers() {
        let inner = CodecError::ChecksumMismatch { stored: 0xDEAD, computed: 0xBEEF };
        let udp = UdpError::from(inner.clone()).with_block(9);
        let exec = ExecError::from(udp);
        assert_eq!(exec.codec_error(), Some(&inner));
        assert_eq!(exec.block(), Some(9));
        let msg = exec.to_string();
        assert!(msg.contains("block 9"), "{msg}");
        assert!(msg.contains("checksum mismatch"), "{msg}");
    }

    #[test]
    fn unrecoverable_names_block_and_lane() {
        let source = UdpError::from(CodecError::ChecksumMismatch { stored: 1, computed: 2 });
        let e = ExecError::Unrecoverable { block: Some(3), lane: Some(5), source };
        let msg = e.to_string();
        assert!(msg.contains("block 3"), "{msg}");
        assert!(msg.contains("lane 5"), "{msg}");
        assert_eq!(e.block(), Some(3));
        assert!(e.codec_error().is_some());
    }

    #[test]
    fn a_broken_stream_names_its_stream_and_position() {
        let source = CodecError::BlockCount { expected: 4, actual: 3 };
        let e = ExecError::Structure { stream: StreamKind::Value, position: 2, source };
        assert_eq!(
            e.to_string(),
            "value stream, position 2: stream declares 4 blocks but carries 3"
        );
        assert_eq!(e.block(), Some(2));
        assert!(e.codec_error().is_some());
    }
}
