//! Snapshot manifests and directory layout for [`Engine::save`] /
//! [`Engine::load`].
//!
//! A snapshot is a directory: one `manifest.irs` plus one
//! `shard-NNNN.irs` per shard (`irs-client` saves and loads through
//! the engine, so a snapshot loads through either handle). Every file starts with the shared header
//! ([`irs_core::persist::MAGIC`], format version, a role byte); bodies
//! are CRC-framed sections (see `DESIGN.md`, "On-disk snapshot format"):
//!
//! - **manifest** — one section holding the [`Manifest`]: per-save-run
//!   snapshot id, kind name, endpoint type, weighted flag, shard count,
//!   seed config, the draw-batch counter (plus one reserved word), live
//!   length, and per-shard live lengths.
//! - **shard `k`** — a header section (snapshot id, kind, endpoint,
//!   shard id, shard count, weighted — cross-checked against the
//!   manifest so mixed directories and interrupted saves are refused)
//!   followed by the index section encoded by
//!   [`DynIndex::encode_snapshot`](crate::DynIndex::encode_snapshot).
//!
//! Files are written atomically (temp + rename), shard files first and
//! the manifest last, so a save that dies partway is detected at load
//! (snapshot ids disagree) instead of silently mixing two states.
//!
//! [`inspect_snapshot`] reads a manifest without touching any shard
//! (and without committing to an endpoint type), for tooling like
//! `irs-cli snapshot inspect`.
//!
//! [`Engine::save`]: crate::Engine::save
//! [`Engine::load`]: crate::Engine::load

use irs_core::persist::{
    decode_section, encode_section, read_header, write_file_atomic, write_header, Codec,
    PersistError, Reader, ROLE_MANIFEST, ROLE_SHARD,
};
use std::path::{Path, PathBuf};

/// Manifest file name inside a snapshot directory.
pub const MANIFEST_FILE: &str = "manifest.irs";

/// Shard file name for shard `k`.
pub fn shard_file(k: usize) -> String {
    format!("shard-{k:04}.irs")
}

/// The decoded manifest of a snapshot directory — everything needed to
/// rebuild the engine's configuration before any shard is read.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Random tag of this save run, repeated in every shard header. A
    /// save interrupted partway (old manifest + some new shard files,
    /// or vice versa) is detected at load as a typed
    /// [`PersistError::ManifestMismatch`] instead of silently mixing
    /// two engine states.
    pub snapshot_id: u64,
    /// [`IndexKind::name`](crate::IndexKind::name) of the saved kind.
    pub kind: String,
    /// [`Codec::type_name`] of the endpoint scalar the snapshot was
    /// saved with; loading as a different type is refused.
    pub endpoint: String,
    /// Whether per-interval weights were supplied at build time.
    pub weighted: bool,
    /// Shard count.
    pub shards: usize,
    /// The engine's base seed (`EngineConfig::seed`).
    pub seed: u64,
    /// The unseeded draw-stream position at save time, restored so the
    /// `run` stream continues rather than repeating.
    pub batch_counter: u64,
    /// Reserved: written 0 and ignored at load. Format-1 snapshots
    /// saved by older `irs-client`s carry a sample-stream counter here;
    /// stream freshness across a restart now comes from
    /// [`Manifest::batch_counter`] alone. The field stays so
    /// `FORMAT_VERSION` does not move.
    pub stream_counter: u64,
    /// Live intervals at save time.
    pub len: usize,
    /// Live intervals per shard (the insert router's bookkeeping).
    pub shard_lens: Vec<usize>,
}

impl Codec for Manifest {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.snapshot_id.encode_into(out);
        self.kind.encode_into(out);
        self.endpoint.encode_into(out);
        self.weighted.encode_into(out);
        self.shards.encode_into(out);
        self.seed.encode_into(out);
        self.batch_counter.encode_into(out);
        self.stream_counter.encode_into(out);
        self.len.encode_into(out);
        self.shard_lens.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let manifest = Manifest {
            snapshot_id: u64::decode(r)?,
            kind: String::decode(r)?,
            endpoint: String::decode(r)?,
            weighted: bool::decode(r)?,
            shards: usize::decode(r)?,
            seed: u64::decode(r)?,
            batch_counter: u64::decode(r)?,
            stream_counter: u64::decode(r)?,
            len: usize::decode(r)?,
            shard_lens: Vec::decode(r)?,
        };
        if manifest.shards == 0 || manifest.shard_lens.len() != manifest.shards {
            return Err(PersistError::Corrupt {
                what: "manifest shard count disagrees with its per-shard lengths",
            });
        }
        Ok(manifest)
    }
}

/// The header section of one shard file, cross-checked against the
/// manifest so a shard from a different snapshot cannot slip in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardHeader {
    /// The save run this shard belongs to (see [`Manifest::snapshot_id`]).
    pub snapshot_id: u64,
    /// [`IndexKind::name`](crate::IndexKind::name) of the shard's kind.
    pub kind: String,
    /// [`Codec::type_name`] of the endpoint scalar.
    pub endpoint: String,
    /// This shard's id (`0..shards`).
    pub shard: usize,
    /// Total shard count of the snapshot.
    pub shards: usize,
    /// Whether the backend was built with weights.
    pub weighted: bool,
}

impl Codec for ShardHeader {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.snapshot_id.encode_into(out);
        self.kind.encode_into(out);
        self.endpoint.encode_into(out);
        self.shard.encode_into(out);
        self.shards.encode_into(out);
        self.weighted.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(ShardHeader {
            snapshot_id: u64::decode(r)?,
            kind: String::decode(r)?,
            endpoint: String::decode(r)?,
            shard: usize::decode(r)?,
            shards: usize::decode(r)?,
            weighted: bool::decode(r)?,
        })
    }
}

/// What [`inspect_snapshot`] reports about a snapshot directory.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotInfo {
    /// The on-disk format version of the manifest.
    pub format_version: u16,
    /// The decoded manifest.
    pub manifest: Manifest,
}

/// Reads and validates a snapshot directory's manifest without reading
/// any shard file — and without committing to an endpoint type, so
/// tooling can inspect snapshots it could not load.
pub fn inspect_snapshot(dir: impl AsRef<Path>) -> Result<SnapshotInfo, PersistError> {
    let (format_version, manifest) = read_manifest_versioned(dir.as_ref())?;
    Ok(SnapshotInfo {
        format_version,
        manifest,
    })
}

/// A tag for one save run: wall-clock nanoseconds mixed with the
/// process id and a process-local counter, so two save runs — even
/// back-to-back in one process, or concurrent across processes —
/// get distinct ids with overwhelming probability.
pub fn fresh_snapshot_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    irs_core::splitmix64(
        nanos
            ^ (std::process::id() as u64).rotate_left(32)
            ^ COUNTER.fetch_add(1, Ordering::Relaxed),
    )
}

/// Full path of the manifest inside `dir`.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST_FILE)
}

/// Reads, frames, and decodes `dir`'s manifest.
pub fn read_manifest(dir: &Path) -> Result<Manifest, PersistError> {
    read_manifest_versioned(dir).map(|(_, m)| m)
}

/// [`read_manifest`], also returning the header's format version.
fn read_manifest_versioned(dir: &Path) -> Result<(u16, Manifest), PersistError> {
    let path = manifest_path(dir);
    let bytes = std::fs::read(&path).map_err(|e| PersistError::io(&path, &e))?;
    let mut r = Reader::new(&bytes);
    let version = read_header(&mut r, ROLE_MANIFEST)?;
    let manifest = decode_section::<Manifest>(&mut r, "manifest")?;
    if !r.is_empty() {
        return Err(PersistError::Corrupt {
            what: "manifest file has trailing bytes",
        });
    }
    Ok((version, manifest))
}

/// Encodes and writes `dir`'s manifest file (atomically: temp file +
/// rename). Callers write the manifest **last**, after every shard
/// file, so an interrupted save leaves the previous manifest — whose
/// snapshot id then disagrees with any half-written shard files —
/// rather than a new manifest over missing shards.
pub fn write_manifest(dir: &Path, manifest: &Manifest) -> Result<(), PersistError> {
    let mut file = Vec::new();
    write_header(&mut file, ROLE_MANIFEST);
    encode_section(&mut file, manifest);
    write_file_atomic(&manifest_path(dir), &file)
}

/// Frames one shard's header + index payload and writes its file
/// (atomically: temp file + rename).
pub fn write_shard_file(
    dir: &Path,
    header: &ShardHeader,
    index_payload: &[u8],
) -> Result<(), PersistError> {
    let mut file = Vec::new();
    write_header(&mut file, ROLE_SHARD);
    encode_section(&mut file, header);
    irs_core::persist::write_section(&mut file, index_payload);
    write_file_atomic(&dir.join(shard_file(header.shard)), &file)
}

/// One shard file's bytes plus the range of its CRC-verified index
/// payload, so decoding reads straight from the file buffer instead of
/// an extra copy (shard payloads are the bulk of a snapshot).
pub struct ShardPayload {
    bytes: Vec<u8>,
    payload: std::ops::Range<usize>,
}

impl ShardPayload {
    /// The CRC-verified index section.
    pub fn payload(&self) -> &[u8] {
        &self.bytes[self.payload.clone()]
    }
}

/// Reads shard `k`'s file, validates its header against `manifest`, and
/// returns the CRC-verified index payload (borrowed from the file
/// buffer — no second copy of a multi-MB section).
pub fn read_shard_payload(
    dir: &Path,
    manifest: &Manifest,
    k: usize,
) -> Result<ShardPayload, PersistError> {
    let path = dir.join(shard_file(k));
    let bytes = std::fs::read(&path).map_err(|e| PersistError::io(&path, &e))?;
    let mut r = Reader::new(&bytes);
    read_header(&mut r, ROLE_SHARD)?;
    let header = decode_section::<ShardHeader>(&mut r, "shard-header")?;
    if header.snapshot_id != manifest.snapshot_id {
        return Err(PersistError::ManifestMismatch {
            what: "snapshot id (files from different save runs are mixed)",
        });
    }
    if header.kind != manifest.kind {
        return Err(PersistError::ManifestMismatch { what: "index kind" });
    }
    if header.endpoint != manifest.endpoint {
        return Err(PersistError::ManifestMismatch {
            what: "endpoint type",
        });
    }
    if header.shard != k || header.shards != manifest.shards {
        return Err(PersistError::ManifestMismatch {
            what: "shard numbering",
        });
    }
    if header.weighted != manifest.weighted {
        return Err(PersistError::ManifestMismatch {
            what: "weighted flag",
        });
    }
    let payload = irs_core::persist::read_section(&mut r, "index")?;
    if !r.is_empty() {
        return Err(PersistError::Corrupt {
            what: "shard file has trailing bytes",
        });
    }
    let start = payload.as_ptr() as usize - bytes.as_ptr() as usize;
    let range = start..start + payload.len();
    Ok(ShardPayload {
        bytes,
        payload: range,
    })
}
