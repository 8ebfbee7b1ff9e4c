//! Durable, versioned snapshots: the hand-rolled binary codec every
//! index structure (and the sharded engine) persists itself through.
//!
//! The workspace is offline, so there is no serde and no external
//! format crate — the codec here is deliberately small and fully
//! specified (see `DESIGN.md`, "On-disk snapshot format"):
//!
//! - **Endian-fixed primitives.** Every scalar is written little-endian
//!   at a fixed width ([`Codec`] impls for the integer endpoint types,
//!   `f64` via its IEEE-754 bit pattern, `bool` as one byte, `usize`
//!   as `u64` so snapshots move between 32- and 64-bit hosts).
//! - **Length-prefixed composites.** `Vec<T>`, tuples, `Option<T>`,
//!   and [`Interval`] compose structurally; decoding validates lengths
//!   against the bytes actually remaining (times each type's
//!   [`Codec::MIN_WIDTH`]), so a corrupt length yields
//!   [`PersistError::Truncated`], never an allocation blow-up.
//! - **Framed sections.** A snapshot file is a fixed header
//!   ([`MAGIC`], [`FORMAT_VERSION`], a role byte) followed by sections,
//!   each `u64` payload length + payload + CRC-32 ([`crc32`]) of the
//!   payload. [`write_section`] / [`read_section`] implement the frame;
//!   a flipped payload byte surfaces as
//!   [`PersistError::ChecksumMismatch`] before any structural decoding
//!   runs.
//! - **Typed failures.** Everything is fallible into [`PersistError`],
//!   following the same taxonomy conventions as
//!   [`QueryError`](crate::QueryError) /
//!   [`BuildError`](crate::BuildError): variants carry payloads, display
//!   one-sentence diagnostics, and nothing on the decode path panics —
//!   corruption tests pin truncation, bad magic, checksum flips, and
//!   future versions each to their variant.
//!
//! Index structures implement [`Codec`] next to their definitions (the
//! layouts are part of the format spec); `irs-engine` builds its
//! `save(dir)` / `load(dir)` manifests on top.

use crate::interval::{Endpoint, Interval};
use std::fmt;

/// First eight bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"IRSSNAP\0";

/// Current on-disk format version. Decoders accept exactly this version
/// (the format promises compatibility *within* a version; a bump means
/// the layout changed and old readers must refuse, not misread).
pub const FORMAT_VERSION: u16 = 1;

/// File role byte: the engine/client manifest.
pub const ROLE_MANIFEST: u8 = 0x01;
/// File role byte: one shard's index snapshot.
pub const ROLE_SHARD: u8 = 0x02;
/// File role byte: the catalog manifest covering every collection
/// (`irs-catalog`'s `catalog.irs`).
pub const ROLE_CATALOG: u8 = 0x03;
/// File role byte: the append-only write-ahead mutation log (and its
/// checkpoint sidecar) defined in [`wal`](crate::wal).
pub const ROLE_LOG: u8 = 0x04;

/// Why a snapshot could not be written or read back.
///
/// The persistence twin of [`QueryError`](crate::QueryError) /
/// [`BuildError`](crate::BuildError): typed variants with payloads, a
/// one-sentence `Display`, and no panics on any decode path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistError {
    /// The operating system refused a file operation.
    Io {
        /// The file (or directory) the operation targeted.
        path: String,
        /// The OS error kind.
        kind: std::io::ErrorKind,
    },
    /// The file does not start with [`MAGIC`] — it is not a snapshot
    /// (or its header was overwritten).
    BadMagic {
        /// The eight bytes actually found.
        found: [u8; 8],
    },
    /// The snapshot was written by a different (usually newer) format
    /// version than this build can decode.
    UnsupportedVersion {
        /// Version stamped in the file.
        found: u16,
        /// Version this build reads and writes.
        supported: u16,
    },
    /// A section's stored CRC-32 does not match its payload — the bytes
    /// were corrupted after writing.
    ChecksumMismatch {
        /// Which section failed (e.g. `"manifest"`, `"index"`).
        section: &'static str,
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the payload actually read.
        computed: u32,
    },
    /// The file ended before the declared data did (a partial write or
    /// a truncation).
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The bytes passed framing and checksum but violate the format's
    /// structural invariants (an impossible enum tag, an out-of-range
    /// child index, endpoints out of order).
    Corrupt {
        /// Which invariant failed, in one phrase.
        what: &'static str,
    },
    /// The manifest names an index kind this build does not know.
    UnknownKind {
        /// The kind name found in the manifest.
        name: String,
    },
    /// The snapshot was written for a different endpoint type than the
    /// one it is being loaded as (e.g. saved as `i64`, loaded as `u32`)
    /// — decoding would misread every scalar.
    EndpointMismatch {
        /// Endpoint type name stored in the manifest.
        stored: String,
        /// Endpoint type name of the loading code.
        expected: &'static str,
    },
    /// A shard file disagrees with the manifest it was loaded under
    /// (different kind, shard id, shard count, or weighted flag) — the
    /// directory mixes snapshots.
    ManifestMismatch {
        /// Which field disagreed.
        what: &'static str,
    },
    /// The backend cannot snapshot itself (an out-of-tree `DynIndex`
    /// that never implemented the snapshot surface).
    Unsupported {
        /// Why, in one sentence.
        reason: &'static str,
    },
}

impl PersistError {
    /// Wraps an OS error with the path it occurred on.
    pub fn io(path: &std::path::Path, err: &std::io::Error) -> Self {
        PersistError::Io {
            path: path.display().to_string(),
            kind: err.kind(),
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { path, kind } => write!(f, "i/o error on `{path}`: {kind}"),
            PersistError::BadMagic { found } => {
                write!(f, "not a snapshot file: bad magic {found:02x?}")
            }
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} not supported (this build reads {supported})"
            ),
            PersistError::ChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch in section `{section}`: stored {stored:#010x}, computed {computed:#010x}"
            ),
            PersistError::Truncated { needed, remaining } => write!(
                f,
                "snapshot truncated: needed {needed} more bytes, found {remaining}"
            ),
            PersistError::Corrupt { what } => write!(f, "snapshot corrupt: {what}"),
            PersistError::UnknownKind { name } => {
                write!(f, "snapshot names unknown index kind `{name}`")
            }
            PersistError::EndpointMismatch { stored, expected } => write!(
                f,
                "endpoint type mismatch: snapshot holds `{stored}`, loading as `{expected}`"
            ),
            PersistError::ManifestMismatch { what } => {
                write!(f, "shard file disagrees with manifest: {what}")
            }
            PersistError::Unsupported { reason } => {
                write!(f, "snapshot unsupported: {reason}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// A cursor over a byte buffer being decoded. Every read is
/// bounds-checked into [`PersistError::Truncated`].
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let out =
            self.buf
                .get(self.pos..self.pos.saturating_add(n))
                .ok_or(PersistError::Truncated {
                    needed: n,
                    remaining: self.remaining(),
                })?;
        self.pos += n;
        Ok(out)
    }

    /// Consumes a fixed-width array.
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], PersistError> {
        let bytes = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }

    /// Reads the `usize` length prefix of `len` values that encode to at
    /// least `min_width` bytes each, and refuses a length whose values
    /// cannot fit in the bytes remaining. Callers reserve only after
    /// this check, so a forged length cannot force an allocation larger
    /// than the input (times the ratio of in-memory to encoded size).
    pub fn take_len(&mut self, min_width: usize) -> Result<usize, PersistError> {
        let len = usize::decode(self)?;
        let needed = len.saturating_mul(min_width);
        if needed > self.remaining() {
            return Err(PersistError::Truncated {
                needed,
                remaining: self.remaining(),
            });
        }
        Ok(len)
    }

    /// Decodes `len` values of a fixed-width type written back to back
    /// and hands each to `f`, in order. The whole run is bounds-checked
    /// once and then split with `chunks_exact`, instead of one cursor
    /// check per scalar.
    pub fn decode_run<T: FixedCodec>(
        &mut self,
        len: usize,
        mut f: impl FnMut(T) -> Result<(), PersistError>,
    ) -> Result<(), PersistError> {
        let bytes = self.take(len.saturating_mul(T::MIN_WIDTH))?;
        for chunk in bytes.chunks_exact(T::MIN_WIDTH) {
            f(T::decode(&mut Reader::new(chunk))?)?;
        }
        Ok(())
    }
}

/// A value with a stable little-endian byte encoding.
///
/// Implementations must be *self-framing*: `decode` consumes exactly
/// the bytes `encode_into` produced, so codecs compose by
/// concatenation. Encoding is infallible (it only appends to a buffer);
/// decoding is fallible into [`PersistError`] and must validate its
/// structural invariants rather than trust the bytes.
pub trait Codec: Sized {
    /// The fewest bytes any value of this type encodes to (at least 1;
    /// more would refuse valid input). Length-prefixed decoders refuse a
    /// length `len` with `len × MIN_WIDTH` above the bytes remaining
    /// before they reserve anything ([`Reader::take_len`]).
    const MIN_WIDTH: usize = 1;

    /// Appends this value's encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decodes one value, consuming its bytes from `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError>;

    /// Stable name of the type, stamped into manifests so a snapshot
    /// cannot be decoded as a different scalar of the same width.
    /// Composites keep the default; only the scalar endpoint types
    /// override it.
    fn type_name() -> &'static str {
        "composite"
    }
}

/// A [`Codec`] whose every value encodes to exactly
/// [`Codec::MIN_WIDTH`] bytes: the integer scalars, `f64`, and pairs of
/// them. Runs of such values decode in bulk ([`Reader::decode_run`]).
pub trait FixedCodec: Codec {}

macro_rules! impl_codec_int {
    ($($t:ty => $name:literal),*) => {$(
        impl Codec for $t {
            const MIN_WIDTH: usize = std::mem::size_of::<$t>();

            fn encode_into(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
                Ok(<$t>::from_le_bytes(r.take_array()?))
            }

            fn type_name() -> &'static str {
                $name
            }
        }

        impl FixedCodec for $t {}
    )*};
}

impl_codec_int!(
    u8 => "u8", u16 => "u16", u32 => "u32", u64 => "u64",
    i8 => "i8", i16 => "i16", i32 => "i32", i64 => "i64"
);

// `usize`/`isize` travel as 8 bytes so snapshots are portable across
// word sizes; decoding on a 32-bit host rejects out-of-range values.
impl Codec for usize {
    const MIN_WIDTH: usize = 8;

    fn encode_into(&self, out: &mut Vec<u8>) {
        (*self as u64).encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        usize::try_from(u64::decode(r)?).map_err(|_| PersistError::Corrupt {
            what: "length exceeds this host's address space",
        })
    }

    fn type_name() -> &'static str {
        "usize"
    }
}

impl Codec for isize {
    const MIN_WIDTH: usize = 8;

    fn encode_into(&self, out: &mut Vec<u8>) {
        (*self as i64).encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        isize::try_from(i64::decode(r)?).map_err(|_| PersistError::Corrupt {
            what: "value exceeds this host's address space",
        })
    }

    fn type_name() -> &'static str {
        "isize"
    }
}

impl Codec for f64 {
    const MIN_WIDTH: usize = 8;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.to_bits().encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }

    fn type_name() -> &'static str {
        "f64"
    }
}

impl FixedCodec for usize {}
impl FixedCodec for isize {}
impl FixedCodec for f64 {}

impl Codec for bool {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(PersistError::Corrupt {
                what: "boolean byte is neither 0 nor 1",
            }),
        }
    }
}

impl Codec for String {
    const MIN_WIDTH: usize = 8;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.len().encode_into(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let len = usize::decode(r)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PersistError::Corrupt {
            what: "string is not valid UTF-8",
        })
    }
}

impl<T: Codec> Codec for Vec<T> {
    const MIN_WIDTH: usize = 8;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.len().encode_into(out);
        for item in self {
            item.encode_into(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let len = r.take_len(T::MIN_WIDTH)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_into(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(PersistError::Corrupt {
                what: "option tag is neither 0 nor 1",
            }),
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    const MIN_WIDTH: usize = A::MIN_WIDTH + B::MIN_WIDTH;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: FixedCodec, B: FixedCodec> FixedCodec for (A, B) {}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    const MIN_WIDTH: usize = A::MIN_WIDTH + B::MIN_WIDTH + C::MIN_WIDTH;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
        self.2.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<E: Endpoint + Codec> Codec for Interval<E> {
    const MIN_WIDTH: usize = 2 * E::MIN_WIDTH;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.lo.encode_into(out);
        self.hi.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let lo = E::decode(r)?;
        let hi = E::decode(r)?;
        if lo > hi {
            return Err(PersistError::Corrupt {
                what: "interval endpoints out of order",
            });
        }
        Ok(Interval { lo, hi })
    }
}

/// CRC-32 (IEEE 802.3, the zlib polynomial) over `bytes`.
///
/// Slicing-by-16: each 16-byte block costs sixteen table lookups that
/// are independent of each other, so the loop runs at memory speed
/// rather than one dependent lookup per byte. The values are those of
/// the classic bytewise table CRC; only a tail of fewer than 16 bytes
/// goes bytewise. This is an integrity check against torn writes and
/// bit rot, not an authenticity check.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &CRC_TABLES;
    let (blocks, tail) = bytes.as_chunks::<16>();
    let mut crc = !0u32;
    for block in blocks {
        let [b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] = *block;
        let x = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
        crc = lut(t15, x)
            ^ lut(t14, x >> 8)
            ^ lut(t13, x >> 16)
            ^ lut(t12, x >> 24)
            ^ lut(t11, b4.into())
            ^ lut(t10, b5.into())
            ^ lut(t9, b6.into())
            ^ lut(t8, b7.into())
            ^ lut(t7, b8.into())
            ^ lut(t6, b9.into())
            ^ lut(t5, b10.into())
            ^ lut(t4, b11.into())
            ^ lut(t3, b12.into())
            ^ lut(t2, b13.into())
            ^ lut(t1, b14.into())
            ^ lut(t0, b15.into());
    }
    for &b in tail {
        crc = lut(t0, crc ^ u32::from(b)) ^ (crc >> 8);
    }
    !crc
}

/// `CRC_TABLES[k][b]` is the CRC register after byte `b` and then `k`
/// zero bytes, so row `k` carries a byte's contribution across the `k`
/// bytes that follow it in a block. Row 0 is the classic bytewise table.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        // Eight shift-register steps per byte: the first eight fold `b`
        // in, each further eight stand for one zero byte.
        let mut c = b as u32;
        let mut k = 0;
        while k < 16 {
            let mut bit = 0;
            while bit < 8 {
                c = if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                bit += 1;
            }
            // audit: allow(no-index): const evaluation; an index out of range fails the build
            tables[k][b] = c;
            k += 1;
        }
        b += 1;
    }
    tables
}

/// One table lookup by the low byte of `i`.
#[inline(always)]
fn lut(table: &[u32; 256], i: u32) -> u32 {
    // audit: allow(no-index): index is masked with & 0xFF into a 256-entry table
    table[(i & 0xFF) as usize]
}

/// Appends the file header: [`MAGIC`], [`FORMAT_VERSION`], and the
/// file's role byte ([`ROLE_MANIFEST`], [`ROLE_SHARD`], [`ROLE_CATALOG`]
/// or [`ROLE_LOG`]).
pub fn write_header(out: &mut Vec<u8>, role: u8) {
    out.extend_from_slice(&MAGIC);
    FORMAT_VERSION.encode_into(out);
    out.push(role);
}

/// Validates the file header, returning the format version actually
/// read — or an error naming exactly what is wrong: not a snapshot
/// ([`PersistError::BadMagic`]), a future format
/// ([`PersistError::UnsupportedVersion`]), or the wrong file role
/// ([`PersistError::Corrupt`]).
pub fn read_header(r: &mut Reader<'_>, role: u8) -> Result<u16, PersistError> {
    let found: [u8; 8] = r.take_array()?;
    if found != MAGIC {
        return Err(PersistError::BadMagic { found });
    }
    let version = u16::decode(r)?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    if u8::decode(r)? != role {
        return Err(PersistError::Corrupt {
            what: "file role byte does not match its expected role",
        });
    }
    Ok(version)
}

/// Writes `parts`, in order, as the file at `path`, atomically and
/// durably: the bytes land in a sibling temporary file, are fsynced,
/// and are renamed over the target (with a best-effort fsync of the
/// parent directory), so a crash — even a power loss — never leaves a
/// truncated file at `path` (the previous file, if any, survives
/// intact). Taking the file in parts lets a caller frame a large
/// payload without copying it into one buffer first.
pub fn write_file_atomic(path: &std::path::Path, parts: &[&[u8]]) -> Result<(), PersistError> {
    use std::io::Write;
    let tmp = path.with_extension("irs.tmp");
    let mut file = std::fs::File::create(&tmp).map_err(|e| PersistError::io(&tmp, &e))?;
    parts
        .iter()
        .try_for_each(|part| file.write_all(part))
        .and_then(|()| file.sync_all())
        .map_err(|e| PersistError::io(&tmp, &e))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| PersistError::io(path, &e))?;
    // Persist the rename itself. Directory fsync is a Unix notion;
    // where the open fails (or the platform has no directory handles),
    // the rename's atomicity still holds — only power-loss durability
    // of the *rename* is best-effort.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Validates an arena link: `link` must be the `u32::MAX` nil sentinel
/// (shared by every tree codec in the workspace) or a valid index into
/// an arena of `nodes` entries. The one place the rule lives, so the
/// per-structure decoders cannot drift.
pub fn check_arena_link(link: u32, nodes: usize, what: &'static str) -> Result<(), PersistError> {
    if link != u32::MAX && link as usize >= nodes {
        return Err(PersistError::Corrupt { what });
    }
    Ok(())
}

/// Appends one framed section: `u64` payload length, the payload, and
/// the payload's [`crc32`].
pub fn write_section(out: &mut Vec<u8>, payload: &[u8]) {
    payload.len().encode_into(out);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Reads one framed section, verifying its CRC before returning the
/// payload. `section` names the section in error payloads.
pub fn read_section<'a>(
    r: &mut Reader<'a>,
    section: &'static str,
) -> Result<&'a [u8], PersistError> {
    let len = usize::decode(r)?;
    let payload = r.take(len)?;
    let stored = u32::from_le_bytes(r.take_array()?);
    let computed = crc32(payload);
    if stored != computed {
        return Err(PersistError::ChecksumMismatch {
            section,
            stored,
            computed,
        });
    }
    Ok(payload)
}

/// Encodes `value` and frames it as one section in a single call.
pub fn encode_section<T: Codec>(out: &mut Vec<u8>, value: &T) {
    let mut payload = Vec::new();
    value.encode_into(&mut payload);
    write_section(out, &payload);
}

/// Reads one framed section and decodes `T` from its entire payload
/// (trailing bytes inside the section are corrupt).
pub fn decode_section<T: Codec>(
    r: &mut Reader<'_>,
    section: &'static str,
) -> Result<T, PersistError> {
    let payload = read_section(r, section)?;
    let mut pr = Reader::new(payload);
    let value = T::decode(&mut pr)?;
    if !pr.is_empty() {
        return Err(PersistError::Corrupt {
            what: "section has trailing bytes after its value",
        });
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut buf = Vec::new();
        42u8.encode_into(&mut buf);
        0xBEEFu16.encode_into(&mut buf);
        (-7i64).encode_into(&mut buf);
        3.25f64.encode_into(&mut buf);
        true.encode_into(&mut buf);
        usize::MAX.encode_into(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(u8::decode(&mut r).unwrap(), 42);
        assert_eq!(u16::decode(&mut r).unwrap(), 0xBEEF);
        assert_eq!(i64::decode(&mut r).unwrap(), -7);
        assert_eq!(f64::decode(&mut r).unwrap(), 3.25);
        assert!(bool::decode(&mut r).unwrap());
        assert_eq!(usize::decode(&mut r).unwrap(), usize::MAX);
        assert!(r.is_empty());
    }

    #[test]
    fn composites_roundtrip() {
        let v: Vec<(u32, f64)> = vec![(1, 1.5), (2, -0.25)];
        let o: Option<Vec<i64>> = Some(vec![-1, 0, 1]);
        let iv = Interval::new(-5i64, 9);
        let mut buf = Vec::new();
        v.encode_into(&mut buf);
        o.encode_into(&mut buf);
        iv.encode_into(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(Vec::<(u32, f64)>::decode(&mut r).unwrap(), v);
        assert_eq!(Option::<Vec<i64>>::decode(&mut r).unwrap(), o);
        assert_eq!(Interval::<i64>::decode(&mut r).unwrap(), iv);
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_typed() {
        let mut buf = Vec::new();
        vec![1u64, 2, 3].encode_into(&mut buf);
        buf.truncate(buf.len() - 3);
        let mut r = Reader::new(&buf);
        assert!(matches!(
            Vec::<u64>::decode(&mut r),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn forged_length_cannot_allocate() {
        let mut buf = Vec::new();
        u64::MAX.encode_into(&mut buf); // a Vec claiming 2^64−1 elements
        let mut r = Reader::new(&buf);
        assert!(matches!(
            Vec::<u8>::decode(&mut r),
            Err(PersistError::Truncated { .. })
        ));
    }

    #[test]
    fn reversed_interval_is_corrupt_not_panic() {
        let mut buf = Vec::new();
        9i64.encode_into(&mut buf);
        (-5i64).encode_into(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(
            Interval::<i64>::decode(&mut r),
            Err(PersistError::Corrupt {
                what: "interval endpoints out of order"
            })
        );
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let reference = b"123456789"
            .iter()
            .fold(!0u32, |c, &b| crc32_bytewise_step(c, b));
        assert_eq!(!reference, 0xCBF4_3926);
    }

    /// One byte of the bytewise CRC that slicing-by-16 replaced, with
    /// the byte's table entry recomputed bit by bit: the register after
    /// `b`. The reference every `crc32` value must equal.
    fn crc32_bytewise_step(crc: u32, b: u8) -> u32 {
        let mut c = (crc ^ u32::from(b)) & 0xFF;
        for _ in 0..8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        c ^ (crc >> 8)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(3))]
        /// Every length up to 4 096 bytes (every tail, every block count
        /// up to 256) at every start offset modulo 16.
        #[test]
        fn crc32_equals_the_bytewise_form(buf in proptest::collection::vec(0u8..=255, 4096 + 16)) {
            for offset in 0..16 {
                let bytes = &buf[offset..offset + 4096];
                // The bytewise form is a running register, so one pass
                // gives its value for every prefix length.
                let mut reference = !0u32;
                for len in 0..=4096 {
                    proptest::prop_assert_eq!(
                        crc32(&bytes[..len]),
                        !reference,
                        "offset {}, len {}",
                        offset,
                        len
                    );
                    if let Some(&b) = bytes.get(len) {
                        reference = crc32_bytewise_step(reference, b);
                    }
                }
            }
        }
    }

    #[test]
    fn sections_detect_flips_and_headers_detect_versions() {
        let mut file = Vec::new();
        write_header(&mut file, ROLE_MANIFEST);
        encode_section(&mut file, &vec![7u64, 8, 9]);

        // Clean read.
        let mut r = Reader::new(&file);
        read_header(&mut r, ROLE_MANIFEST).unwrap();
        assert_eq!(
            decode_section::<Vec<u64>>(&mut r, "test").unwrap(),
            vec![7, 8, 9]
        );

        // Flip one payload byte → checksum mismatch.
        let mut bad = file.clone();
        let flip = bad.len() - 8; // inside the payload, before the CRC
        bad[flip] ^= 0xFF;
        let mut r = Reader::new(&bad);
        read_header(&mut r, ROLE_MANIFEST).unwrap();
        assert!(matches!(
            decode_section::<Vec<u64>>(&mut r, "test"),
            Err(PersistError::ChecksumMismatch {
                section: "test",
                ..
            })
        ));

        // Future version → typed refusal.
        let mut future = file.clone();
        future[8] = 0xFF;
        future[9] = 0xFF;
        let mut r = Reader::new(&future);
        assert_eq!(
            read_header(&mut r, ROLE_MANIFEST),
            Err(PersistError::UnsupportedVersion {
                found: 0xFFFF,
                supported: FORMAT_VERSION
            })
        );

        // Wrong magic → typed refusal.
        let mut nonsnap = file;
        nonsnap[0] = b'X';
        let mut r = Reader::new(&nonsnap);
        assert!(matches!(
            read_header(&mut r, ROLE_MANIFEST),
            Err(PersistError::BadMagic { .. })
        ));
    }
}
