//! Byte framing: how messages travel over a TCP stream.
//!
//! ```text
//! frame := magic[4] | len u32 LE | payload[len] | crc32(payload) u32 LE
//! ```
//!
//! - `magic` is [`WIRE_MAGIC`] — `b"IRW"` plus the protocol version
//!   byte, so a version bump is detected as a bad frame rather than a
//!   misread message.
//! - `len` is validated against [`MAX_PAYLOAD`] **before any
//!   allocation**: a forged multi-gigabyte length is refused with
//!   [`FrameError::TooLarge`] while only 8 header bytes have been read.
//! - The CRC-32 (same polynomial and implementation as the snapshot
//!   format, [`irs_core::persist::crc32`]) is checked before the payload
//!   reaches any message decoder.
//!
//! Reading is incremental ([`FrameReader`]): the server sets a read
//! timeout on each connection and treats timeout ticks as poll points
//! for its shutdown flag, so frames may arrive in arbitrarily small
//! pieces without ever blocking shutdown indefinitely.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

use irs_core::persist::crc32;
use irs_core::{ErrorCode, WireError};
use std::io::{self, Read, Write};

/// First four bytes of every frame: `b"IRW"` + the protocol version.
/// Bumping the protocol version changes the magic, so a peer from a
/// different version fails fast with [`FrameError::BadMagic`].
pub const WIRE_MAGIC: [u8; 4] = *b"IRW\x01";

/// Hard cap on one frame's payload (32 MiB). A frame declaring more is
/// refused before any buffer grows; large workloads split into multiple
/// request frames instead.
pub const MAX_PAYLOAD: u32 = 32 * 1024 * 1024;

/// Frame header size: magic + payload length.
const HEADER: usize = 8;

/// CRC trailer size.
const TRAILER: usize = 4;

/// Why a frame could not be read or written.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The operating system refused a stream operation (connection
    /// reset, broken pipe, …). Read timeouts are **not** errors — they
    /// surface as [`ReadEvent::Timeout`].
    Io(io::ErrorKind),
    /// The next four bytes are not [`WIRE_MAGIC`]: the peer speaks a
    /// different protocol (or version), or the stream lost sync.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The frame declares a payload longer than [`MAX_PAYLOAD`].
    TooLarge {
        /// The declared payload length.
        declared: u32,
    },
    /// The payload's CRC-32 does not match the trailer.
    Checksum {
        /// CRC carried in the frame.
        stored: u32,
        /// CRC computed over the payload actually received.
        computed: u32,
    },
    /// The stream closed mid-frame.
    Truncated,
}

impl FrameError {
    /// The corresponding stable wire error, for error responses and for
    /// `RemoteClient`'s return values.
    pub fn to_wire_error(&self) -> WireError {
        let (code, message) = match self {
            FrameError::Io(kind) => (ErrorCode::Internal, format!("stream i/o error: {kind}")),
            FrameError::BadMagic { found } => (
                ErrorCode::BadFrame,
                format!("bad frame magic {found:02x?} (expected {WIRE_MAGIC:02x?})"),
            ),
            FrameError::TooLarge { declared } => (
                ErrorCode::FrameTooLarge,
                format!("frame declares {declared} payload bytes (cap {MAX_PAYLOAD})"),
            ),
            FrameError::Checksum { stored, computed } => (
                ErrorCode::FrameChecksum,
                format!(
                    "frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                ),
            ),
            FrameError::Truncated => (
                ErrorCode::FrameTruncated,
                "stream closed mid-frame".to_string(),
            ),
        };
        WireError::protocol(code, message)
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_wire_error())
    }
}

impl std::error::Error for FrameError {}

/// Frames `payload` and writes it in one `write_all`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_PAYLOAD as usize {
        return Err(FrameError::TooLarge {
            declared: payload.len() as u32,
        });
    }
    let mut frame = Vec::with_capacity(HEADER + payload.len() + TRAILER);
    frame.extend_from_slice(&WIRE_MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| FrameError::Io(e.kind()))
}

/// One step of incremental frame reading.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadEvent {
    /// A complete, CRC-verified payload.
    Frame(Vec<u8>),
    /// The peer closed the connection cleanly **between** frames.
    Eof,
    /// The stream's read timeout elapsed with no new bytes. `mid_frame`
    /// says whether a partial frame is pending (so a draining server
    /// knows whether closing now would abandon a request in flight).
    Timeout {
        /// Whether bytes of an incomplete frame are buffered.
        mid_frame: bool,
    },
}

/// Incremental frame reader: accumulates raw bytes across reads (and
/// across timeout ticks) and yields each complete frame exactly once.
/// Pipelined frames are supported — bytes beyond the current frame stay
/// buffered for the next call.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// A reader with an empty buffer.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Whether a partial frame is buffered.
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Reads until one [`ReadEvent`] can be reported: a complete frame,
    /// a clean EOF, or a timeout tick (when `r` has a read timeout
    /// configured). Malformed framing — bad magic, an oversized declared
    /// length, a CRC mismatch, EOF mid-frame — is a typed [`FrameError`];
    /// after any error the stream has lost sync and should be closed.
    pub fn read_event(&mut self, r: &mut impl Read) -> Result<ReadEvent, FrameError> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(payload) = self.try_parse()? {
                return Ok(ReadEvent::Frame(payload));
            }
            match r.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(ReadEvent::Eof)
                    } else {
                        Err(FrameError::Truncated)
                    };
                }
                #[expect(
                    clippy::indexing_slicing,
                    reason = "n <= chunk.len() by the Read contract"
                )]
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(ReadEvent::Timeout {
                        mid_frame: self.mid_frame(),
                    });
                }
                Err(e) => return Err(FrameError::Io(e.kind())),
            }
        }
    }

    /// Parses one complete frame out of the buffer, if present. Header
    /// checks (magic, length cap) run as soon as 8 bytes are buffered —
    /// before waiting for (or allocating) any payload.
    fn try_parse(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        // Every field is peeled off with `split_first_chunk` / `get`,
        // so the compiler proves each bound and no slice here can
        // panic on a short buffer — short just means "keep reading".
        let Some((magic, after_magic)) = self.buf.split_first_chunk::<4>() else {
            return Ok(None);
        };
        if *magic != WIRE_MAGIC {
            return Err(FrameError::BadMagic { found: *magic });
        }
        let Some((len_bytes, rest)) = after_magic.split_first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*len_bytes);
        if len > MAX_PAYLOAD {
            return Err(FrameError::TooLarge { declared: len });
        }
        let len = len as usize;
        let Some(payload) = rest.get(..len) else {
            return Ok(None);
        };
        let Some((crc_bytes, _)) = rest.get(len..).and_then(|t| t.split_first_chunk::<4>()) else {
            return Ok(None);
        };
        let stored = u32::from_le_bytes(*crc_bytes);
        let computed = crc32(payload);
        if stored != computed {
            return Err(FrameError::Checksum { stored, computed });
        }
        let payload = payload.to_vec();
        self.buf.drain(..HEADER + len + TRAILER);
        Ok(Some(payload))
    }
}

/// Blocking convenience for clients (no read timeout configured): reads
/// events until a frame or a terminal condition. EOF before a frame is
/// [`FrameError::Truncated`] — a reply was expected.
pub fn read_frame_blocking(
    reader: &mut FrameReader,
    r: &mut impl Read,
) -> Result<Vec<u8>, FrameError> {
    loop {
        match reader.read_event(r)? {
            ReadEvent::Frame(payload) => return Ok(payload),
            ReadEvent::Eof => return Err(FrameError::Truncated),
            // With no timeout configured this cannot recur; with one
            // configured the caller opted into waiting.
            ReadEvent::Timeout { .. } => continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn frames_roundtrip_including_empty_and_pipelined() {
        let mut bytes = framed(b"hello");
        bytes.extend_from_slice(&framed(b""));
        bytes.extend_from_slice(&framed(&[0xAB; 100_000]));
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(
            reader.read_event(&mut cursor).unwrap(),
            ReadEvent::Frame(b"hello".to_vec())
        );
        assert_eq!(
            reader.read_event(&mut cursor).unwrap(),
            ReadEvent::Frame(Vec::new())
        );
        assert_eq!(
            reader.read_event(&mut cursor).unwrap(),
            ReadEvent::Frame(vec![0xAB; 100_000])
        );
        assert_eq!(reader.read_event(&mut cursor).unwrap(), ReadEvent::Eof);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = framed(b"x");
        bytes[0] = b'G'; // "GRW\x01" — e.g. an HTTP GET aimed at us
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            reader.read_event(&mut cursor),
            Err(FrameError::BadMagic { .. })
        ));
    }

    #[test]
    fn oversized_declared_length_is_refused_from_the_header_alone() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WIRE_MAGIC);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        // No payload at all: the refusal must come from the header.
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(
            reader.read_event(&mut cursor),
            Err(FrameError::TooLarge { declared: u32::MAX })
        );
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_error() {
        let mut bytes = framed(b"payload");
        bytes[HEADER + 2] ^= 0x40;
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            reader.read_event(&mut cursor),
            Err(FrameError::Checksum { .. })
        ));
    }

    #[test]
    fn eof_mid_frame_is_truncated() {
        let bytes = framed(b"payload");
        let cut = bytes.len() - 3;
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(&bytes[..cut]);
        assert_eq!(reader.read_event(&mut cursor), Err(FrameError::Truncated));
    }

    #[test]
    fn dribbled_bytes_assemble_across_calls() {
        let bytes = framed(b"slowly");
        let mut reader = FrameReader::new();
        // Feed one byte at a time through separate cursors; each
        // exhausted cursor reports EOF, which mid-frame would be
        // Truncated — so use a reader that yields WouldBlock instead.
        struct Dribble<'a> {
            bytes: &'a [u8],
            pos: usize,
            calls: usize,
        }
        impl std::io::Read for Dribble<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.calls += 1;
                if self.pos >= self.bytes.len() || self.calls.is_multiple_of(3) {
                    // Exhausted, or a periodic timeout tick mid-frame.
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                buf[0] = self.bytes[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let mut src = Dribble {
            bytes: &bytes,
            pos: 0,
            calls: 0,
        };
        loop {
            match reader.read_event(&mut src).unwrap() {
                ReadEvent::Frame(p) => {
                    assert_eq!(p, b"slowly");
                    break;
                }
                ReadEvent::Timeout { .. } => continue,
                ReadEvent::Eof => panic!("no frame assembled"),
            }
        }
    }

    #[test]
    fn writer_refuses_oversized_payloads() {
        // Construct the error path without allocating 32 MiB: a slice
        // can't be faked, so just check the boundary arithmetic.
        let payload = vec![0u8; MAX_PAYLOAD as usize + 1];
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame(&mut sink, &payload),
            Err(FrameError::TooLarge { .. })
        ));
        assert!(sink.is_empty(), "nothing may be written before the check");
    }
}
