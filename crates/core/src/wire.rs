//! The error↔wire mapping: every typed error the library can produce,
//! assigned a **stable numeric code** so remote callers see the same
//! taxonomy as in-process callers.
//!
//! `irs-server` serves the engine over a hand-rolled TCP protocol (crate
//! `irs-wire`); a failure that crosses the wire cannot carry a Rust enum,
//! so each variant of [`QueryError`],
//! [`UpdateError`], and
//! [`PersistError`] — plus the protocol-level
//! failures only a network server can have — maps to one [`ErrorCode`].
//! The codes are part of the wire format: **numbers never change meaning
//! and are never reused** (like the snapshot format, additions bump the
//! protocol version; see `DESIGN.md`, "Wire protocol").
//!
//! [`WireError`] is the transported form: a code plus the original
//! error's one-sentence rendering. The conversion is centralized here —
//! next to the error taxonomies themselves — so a new error variant
//! fails to compile until it is assigned a code, rather than silently
//! falling into a catch-all.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

use crate::catalog::CatalogError;
use crate::mutation::UpdateError;
use crate::persist::{Codec, PersistError, Reader};
use crate::query::QueryError;
use crate::wal::ReplicationError;
use std::fmt;

/// Stable numeric identity of one error variant, as sent over the wire.
///
/// Code space (decimal, mirroring HTTP's century convention):
///
/// - `1xx` — [`QueryError`] variants
/// - `2xx` — [`UpdateError`] variants
/// - `3xx` — [`PersistError`] variants
/// - `4xx` — protocol-level failures (framing, decoding, routing)
/// - `5xx` — server-side failures
/// - `6xx` — [`CatalogError`] variants (multi-tenant catalog refusals)
/// - `7xx` — [`ReplicationError`] variants (write-ahead log and
///   primary/replica role refusals)
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum ErrorCode {
    // --- 1xx: QueryError ---
    /// [`QueryError::UnsupportedOperation`].
    QueryUnsupportedOperation = 100,
    /// [`QueryError::NotWeighted`].
    QueryNotWeighted = 101,
    /// [`QueryError::ShardFailed`].
    QueryShardFailed = 102,

    // --- 2xx: UpdateError ---
    /// [`UpdateError::UnsupportedKind`].
    UpdateUnsupportedKind = 200,
    /// [`UpdateError::NotWeighted`].
    UpdateNotWeighted = 201,
    /// [`UpdateError::UnknownId`].
    UpdateUnknownId = 202,
    /// [`UpdateError::InvalidWeight`].
    UpdateInvalidWeight = 203,
    /// [`UpdateError::ShardFailed`].
    UpdateShardFailed = 204,

    // --- 3xx: PersistError ---
    /// [`PersistError::Io`].
    PersistIo = 300,
    /// [`PersistError::BadMagic`].
    PersistBadMagic = 301,
    /// [`PersistError::UnsupportedVersion`].
    PersistUnsupportedVersion = 302,
    /// [`PersistError::ChecksumMismatch`].
    PersistChecksumMismatch = 303,
    /// [`PersistError::Truncated`].
    PersistTruncated = 304,
    /// [`PersistError::Corrupt`].
    PersistCorrupt = 305,
    /// [`PersistError::UnknownKind`].
    PersistUnknownKind = 306,
    /// [`PersistError::EndpointMismatch`].
    PersistEndpointMismatch = 307,
    /// [`PersistError::ManifestMismatch`].
    PersistManifestMismatch = 308,
    /// [`PersistError::Unsupported`].
    PersistUnsupported = 309,

    // --- 4xx: protocol ---
    /// A frame did not start with the wire magic — the peer is not
    /// speaking this protocol (or the stream lost sync).
    BadFrame = 400,
    /// A frame declared a payload longer than the protocol's hard cap;
    /// refused before any allocation.
    FrameTooLarge = 401,
    /// A frame's payload failed its CRC-32 — bytes were corrupted in
    /// transit.
    FrameChecksum = 402,
    /// The connection closed (or stalled past the grace period) in the
    /// middle of a frame.
    FrameTruncated = 403,
    /// The frame payload is not a decodable message (bad tag payload,
    /// truncated body, garbage bytes).
    BadMessage = 404,
    /// The message tag names no request this server knows.
    UnknownMessage = 405,
    /// The request carries intervals of a different endpoint type than
    /// the one the server indexes.
    WrongEndpoint = 406,
    /// The server is draining for shutdown and no longer accepts work.
    ShuttingDown = 410,

    // --- 5xx: server ---
    /// The server failed in a way that has no more specific code; the
    /// message says what happened.
    Internal = 500,

    // --- 6xx: CatalogError ---
    /// [`CatalogError::UnknownCollection`].
    CatalogUnknownCollection = 600,
    /// [`CatalogError::CollectionExists`].
    CatalogCollectionExists = 601,
    /// [`CatalogError::InvalidName`].
    CatalogInvalidName = 602,
    /// [`CatalogError::BudgetExceeded`].
    CatalogBudgetExceeded = 603,
    /// [`CatalogError::ReindexInProgress`].
    CatalogReindexInProgress = 604,
    /// [`CatalogError::IncompatibleKind`].
    CatalogIncompatibleKind = 605,
    /// [`CatalogError::InvalidSpec`].
    CatalogInvalidSpec = 606,
    /// [`CatalogError::NotServingCatalog`].
    CatalogNotServing = 607,

    // --- 7xx: ReplicationError ---
    /// [`ReplicationError::OutOfOrderSequence`].
    ReplicationOutOfOrder = 700,
    /// [`ReplicationError::ReadOnlyReplica`].
    ReplicationReadOnly = 701,
    /// [`ReplicationError::NotPrimary`].
    ReplicationNotPrimary = 702,
    /// [`ReplicationError::NotReplica`].
    ReplicationNotReplica = 703,
    /// [`ReplicationError::StaleSubscribe`].
    ReplicationStaleSubscribe = 704,
    /// [`ReplicationError::Unsupported`].
    ReplicationUnsupported = 705,
}

impl ErrorCode {
    /// Every assigned code, for exhaustiveness tests and docs tables.
    pub const ALL: [ErrorCode; 41] = [
        ErrorCode::QueryUnsupportedOperation,
        ErrorCode::QueryNotWeighted,
        ErrorCode::QueryShardFailed,
        ErrorCode::UpdateUnsupportedKind,
        ErrorCode::UpdateNotWeighted,
        ErrorCode::UpdateUnknownId,
        ErrorCode::UpdateInvalidWeight,
        ErrorCode::UpdateShardFailed,
        ErrorCode::PersistIo,
        ErrorCode::PersistBadMagic,
        ErrorCode::PersistUnsupportedVersion,
        ErrorCode::PersistChecksumMismatch,
        ErrorCode::PersistTruncated,
        ErrorCode::PersistCorrupt,
        ErrorCode::PersistUnknownKind,
        ErrorCode::PersistEndpointMismatch,
        ErrorCode::PersistManifestMismatch,
        ErrorCode::PersistUnsupported,
        ErrorCode::BadFrame,
        ErrorCode::FrameTooLarge,
        ErrorCode::FrameChecksum,
        ErrorCode::FrameTruncated,
        ErrorCode::BadMessage,
        ErrorCode::UnknownMessage,
        ErrorCode::WrongEndpoint,
        ErrorCode::ShuttingDown,
        ErrorCode::Internal,
        ErrorCode::CatalogUnknownCollection,
        ErrorCode::CatalogCollectionExists,
        ErrorCode::CatalogInvalidName,
        ErrorCode::CatalogBudgetExceeded,
        ErrorCode::CatalogReindexInProgress,
        ErrorCode::CatalogIncompatibleKind,
        ErrorCode::CatalogInvalidSpec,
        ErrorCode::CatalogNotServing,
        ErrorCode::ReplicationOutOfOrder,
        ErrorCode::ReplicationReadOnly,
        ErrorCode::ReplicationNotPrimary,
        ErrorCode::ReplicationNotReplica,
        ErrorCode::ReplicationStaleSubscribe,
        ErrorCode::ReplicationUnsupported,
    ];

    /// The wire representation.
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Parses a wire code; `None` for numbers this build has not
    /// assigned (a newer peer's code travels as [`ErrorCode::Internal`]
    /// would — callers should treat unknown codes as opaque failures).
    pub fn from_u16(code: u16) -> Option<ErrorCode> {
        ErrorCode::ALL.iter().copied().find(|c| c.as_u16() == code)
    }

    /// Stable kebab-case name (log/JSON field value, docs tables).
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::QueryUnsupportedOperation => "query-unsupported-operation",
            ErrorCode::QueryNotWeighted => "query-not-weighted",
            ErrorCode::QueryShardFailed => "query-shard-failed",
            ErrorCode::UpdateUnsupportedKind => "update-unsupported-kind",
            ErrorCode::UpdateNotWeighted => "update-not-weighted",
            ErrorCode::UpdateUnknownId => "update-unknown-id",
            ErrorCode::UpdateInvalidWeight => "update-invalid-weight",
            ErrorCode::UpdateShardFailed => "update-shard-failed",
            ErrorCode::PersistIo => "persist-io",
            ErrorCode::PersistBadMagic => "persist-bad-magic",
            ErrorCode::PersistUnsupportedVersion => "persist-unsupported-version",
            ErrorCode::PersistChecksumMismatch => "persist-checksum-mismatch",
            ErrorCode::PersistTruncated => "persist-truncated",
            ErrorCode::PersistCorrupt => "persist-corrupt",
            ErrorCode::PersistUnknownKind => "persist-unknown-kind",
            ErrorCode::PersistEndpointMismatch => "persist-endpoint-mismatch",
            ErrorCode::PersistManifestMismatch => "persist-manifest-mismatch",
            ErrorCode::PersistUnsupported => "persist-unsupported",
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::FrameTooLarge => "frame-too-large",
            ErrorCode::FrameChecksum => "frame-checksum",
            ErrorCode::FrameTruncated => "frame-truncated",
            ErrorCode::BadMessage => "bad-message",
            ErrorCode::UnknownMessage => "unknown-message",
            ErrorCode::WrongEndpoint => "wrong-endpoint",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Internal => "internal",
            ErrorCode::CatalogUnknownCollection => "catalog-unknown-collection",
            ErrorCode::CatalogCollectionExists => "catalog-collection-exists",
            ErrorCode::CatalogInvalidName => "catalog-invalid-name",
            ErrorCode::CatalogBudgetExceeded => "catalog-budget-exceeded",
            ErrorCode::CatalogReindexInProgress => "catalog-reindex-in-progress",
            ErrorCode::CatalogIncompatibleKind => "catalog-incompatible-kind",
            ErrorCode::CatalogInvalidSpec => "catalog-invalid-spec",
            ErrorCode::CatalogNotServing => "catalog-not-serving",
            ErrorCode::ReplicationOutOfOrder => "replication-out-of-order",
            ErrorCode::ReplicationReadOnly => "replication-read-only",
            ErrorCode::ReplicationNotPrimary => "replication-not-primary",
            ErrorCode::ReplicationNotReplica => "replication-not-replica",
            ErrorCode::ReplicationStaleSubscribe => "replication-stale-subscribe",
            ErrorCode::ReplicationUnsupported => "replication-unsupported",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.as_u16(), self.name())
    }
}

// The three From impls below are the **authoritative mapping**: they
// match exhaustively (no catch-all), so adding an error variant without
// assigning it a code is a compile error here, not a silent `Internal`.

impl From<&QueryError> for ErrorCode {
    fn from(e: &QueryError) -> ErrorCode {
        match e {
            QueryError::UnsupportedOperation { .. } => ErrorCode::QueryUnsupportedOperation,
            QueryError::NotWeighted => ErrorCode::QueryNotWeighted,
            QueryError::ShardFailed { .. } => ErrorCode::QueryShardFailed,
        }
    }
}

impl From<&UpdateError> for ErrorCode {
    fn from(e: &UpdateError) -> ErrorCode {
        match e {
            UpdateError::UnsupportedKind { .. } => ErrorCode::UpdateUnsupportedKind,
            UpdateError::NotWeighted => ErrorCode::UpdateNotWeighted,
            UpdateError::UnknownId { .. } => ErrorCode::UpdateUnknownId,
            UpdateError::InvalidWeight { .. } => ErrorCode::UpdateInvalidWeight,
            UpdateError::ShardFailed { .. } => ErrorCode::UpdateShardFailed,
        }
    }
}

impl From<&PersistError> for ErrorCode {
    fn from(e: &PersistError) -> ErrorCode {
        match e {
            PersistError::Io { .. } => ErrorCode::PersistIo,
            PersistError::BadMagic { .. } => ErrorCode::PersistBadMagic,
            PersistError::UnsupportedVersion { .. } => ErrorCode::PersistUnsupportedVersion,
            PersistError::ChecksumMismatch { .. } => ErrorCode::PersistChecksumMismatch,
            PersistError::Truncated { .. } => ErrorCode::PersistTruncated,
            PersistError::Corrupt { .. } => ErrorCode::PersistCorrupt,
            PersistError::UnknownKind { .. } => ErrorCode::PersistUnknownKind,
            PersistError::EndpointMismatch { .. } => ErrorCode::PersistEndpointMismatch,
            PersistError::ManifestMismatch { .. } => ErrorCode::PersistManifestMismatch,
            PersistError::Unsupported { .. } => ErrorCode::PersistUnsupported,
        }
    }
}

impl From<&CatalogError> for ErrorCode {
    fn from(e: &CatalogError) -> ErrorCode {
        match e {
            CatalogError::UnknownCollection { .. } => ErrorCode::CatalogUnknownCollection,
            CatalogError::CollectionExists { .. } => ErrorCode::CatalogCollectionExists,
            CatalogError::InvalidName { .. } => ErrorCode::CatalogInvalidName,
            CatalogError::BudgetExceeded { .. } => ErrorCode::CatalogBudgetExceeded,
            CatalogError::ReindexInProgress { .. } => ErrorCode::CatalogReindexInProgress,
            CatalogError::IncompatibleKind { .. } => ErrorCode::CatalogIncompatibleKind,
            CatalogError::InvalidSpec { .. } => ErrorCode::CatalogInvalidSpec,
            CatalogError::NotServingCatalog => ErrorCode::CatalogNotServing,
            // The wrappers surface the inner taxonomy's own stable code
            // so callers branch on the root cause, not the layer it
            // crossed.
            CatalogError::Persist(inner) => inner.into(),
            CatalogError::Update(inner) => inner.into(),
        }
    }
}

impl From<&ReplicationError> for ErrorCode {
    fn from(e: &ReplicationError) -> ErrorCode {
        match e {
            // The wrapper surfaces the persistence taxonomy's own
            // stable code — a corrupt log record reports as the exact
            // corruption shape, not a generic replication failure.
            ReplicationError::Persist(inner) => inner.into(),
            ReplicationError::OutOfOrderSequence { .. } => ErrorCode::ReplicationOutOfOrder,
            ReplicationError::ReadOnlyReplica => ErrorCode::ReplicationReadOnly,
            ReplicationError::NotPrimary => ErrorCode::ReplicationNotPrimary,
            ReplicationError::NotReplica => ErrorCode::ReplicationNotReplica,
            ReplicationError::StaleSubscribe { .. } => ErrorCode::ReplicationStaleSubscribe,
            ReplicationError::Unsupported { .. } => ErrorCode::ReplicationUnsupported,
        }
    }
}

/// A typed error in transportable form: the variant's stable
/// [`ErrorCode`] plus the original error's one-sentence rendering.
///
/// This is what `irs-server` sends in error responses and what
/// `irs-wire`'s `RemoteClient` returns — the remote twin of the
/// in-process `Result<_, QueryError>` / `Result<_, UpdateError>`
/// surfaces. Match on [`WireError::code`] to branch on the taxonomy;
/// [`WireError::message`] is for humans and logs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// The failed variant's stable code.
    pub code: ErrorCode,
    /// The original error's `Display` rendering (one sentence).
    pub message: String,
}

impl WireError {
    /// Wraps a protocol- or server-level failure.
    pub fn protocol(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }
}

impl From<&QueryError> for WireError {
    fn from(e: &QueryError) -> WireError {
        WireError {
            code: e.into(),
            message: e.to_string(),
        }
    }
}

impl From<&UpdateError> for WireError {
    fn from(e: &UpdateError) -> WireError {
        WireError {
            code: e.into(),
            message: e.to_string(),
        }
    }
}

impl From<&PersistError> for WireError {
    fn from(e: &PersistError) -> WireError {
        WireError {
            code: e.into(),
            message: e.to_string(),
        }
    }
}

impl From<&CatalogError> for WireError {
    fn from(e: &CatalogError) -> WireError {
        WireError {
            code: e.into(),
            message: e.to_string(),
        }
    }
}

impl From<&ReplicationError> for WireError {
    fn from(e: &ReplicationError) -> WireError {
        WireError {
            code: e.into(),
            message: e.to_string(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

impl Codec for ErrorCode {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.as_u16().encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let raw = u16::decode(r)?;
        ErrorCode::from_u16(raw).ok_or(PersistError::Corrupt {
            what: "unassigned wire error code",
        })
    }
}

impl Codec for WireError {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.code.encode_into(out);
        self.message.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(WireError {
            code: ErrorCode::decode(r)?,
            message: String::decode(r)?,
        })
    }
}

// `Result<T, WireError>` frames per-query / per-mutation outcomes inside
// batch responses: tag byte 1 = Ok, 0 = Err.
impl<T: Codec> Codec for Result<T, WireError> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                out.push(1);
                v.encode_into(out);
            }
            Err(e) => {
                out.push(0);
                e.encode_into(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match u8::decode(r)? {
            1 => Ok(Ok(T::decode(r)?)),
            0 => Ok(Err(WireError::decode(r)?)),
            _ => Err(PersistError::Corrupt {
                what: "result tag is neither 0 nor 1",
            }),
        }
    }
}

// Wire form of the mutation vocabulary (the query vocabulary's Codec
// impls live in `irs-engine`, next to `Query`/`QueryOutput`).

impl<E: crate::GridEndpoint> Codec for crate::Mutation<E> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            crate::Mutation::Insert { iv } => {
                out.push(1);
                iv.encode_into(out);
            }
            crate::Mutation::InsertWeighted { iv, weight } => {
                out.push(2);
                iv.encode_into(out);
                weight.encode_into(out);
            }
            crate::Mutation::Delete { id } => {
                out.push(3);
                id.encode_into(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match u8::decode(r)? {
            1 => Ok(crate::Mutation::Insert {
                iv: crate::Interval::decode(r)?,
            }),
            2 => Ok(crate::Mutation::InsertWeighted {
                iv: crate::Interval::decode(r)?,
                weight: f64::decode(r)?,
            }),
            3 => Ok(crate::Mutation::Delete {
                id: crate::ItemId::decode(r)?,
            }),
            _ => Err(PersistError::Corrupt {
                what: "unknown mutation tag",
            }),
        }
    }
}

impl Codec for crate::UpdateOutput {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            crate::UpdateOutput::Inserted(id) => {
                out.push(1);
                id.encode_into(out);
            }
            crate::UpdateOutput::Removed => out.push(2),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match u8::decode(r)? {
            1 => Ok(crate::UpdateOutput::Inserted(crate::ItemId::decode(r)?)),
            2 => Ok(crate::UpdateOutput::Removed),
            _ => Err(PersistError::Corrupt {
                what: "unknown update-output tag",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Interval, Mutation, UpdateOutput};

    #[test]
    fn codes_are_distinct_and_roundtrip() {
        for (i, &a) in ErrorCode::ALL.iter().enumerate() {
            assert_eq!(ErrorCode::from_u16(a.as_u16()), Some(a));
            for &b in &ErrorCode::ALL[i + 1..] {
                assert_ne!(a.as_u16(), b.as_u16(), "{a} and {b} collide");
                assert_ne!(a.name(), b.name(), "{a} and {b} share a name");
            }
        }
        assert_eq!(ErrorCode::from_u16(9999), None);
    }

    #[test]
    fn every_query_error_variant_has_a_code() {
        let cases = [
            (
                QueryError::UnsupportedOperation {
                    op: crate::Operation::Stab,
                    reason: "r",
                },
                ErrorCode::QueryUnsupportedOperation,
            ),
            (QueryError::NotWeighted, ErrorCode::QueryNotWeighted),
            (
                QueryError::ShardFailed { shard: 3 },
                ErrorCode::QueryShardFailed,
            ),
        ];
        for (err, code) in cases {
            let wire = WireError::from(&err);
            assert_eq!(wire.code, code);
            assert_eq!(wire.message, err.to_string());
        }
    }

    #[test]
    fn every_update_error_variant_has_a_code() {
        let cases = [
            (
                UpdateError::UnsupportedKind {
                    kind: "kds",
                    reason: "static",
                },
                ErrorCode::UpdateUnsupportedKind,
            ),
            (UpdateError::NotWeighted, ErrorCode::UpdateNotWeighted),
            (UpdateError::UnknownId { id: 9 }, ErrorCode::UpdateUnknownId),
            (
                UpdateError::InvalidWeight { value: -1.0 },
                ErrorCode::UpdateInvalidWeight,
            ),
            (
                UpdateError::ShardFailed { shard: 0 },
                ErrorCode::UpdateShardFailed,
            ),
        ];
        for (err, code) in cases {
            assert_eq!(WireError::from(&err).code, code);
        }
    }

    #[test]
    fn every_persist_error_variant_has_a_code() {
        let cases = [
            (
                PersistError::Io {
                    path: "p".into(),
                    kind: std::io::ErrorKind::NotFound,
                },
                ErrorCode::PersistIo,
            ),
            (
                PersistError::BadMagic { found: [0; 8] },
                ErrorCode::PersistBadMagic,
            ),
            (
                PersistError::UnsupportedVersion {
                    found: 9,
                    supported: 1,
                },
                ErrorCode::PersistUnsupportedVersion,
            ),
            (
                PersistError::ChecksumMismatch {
                    section: "s",
                    stored: 1,
                    computed: 2,
                },
                ErrorCode::PersistChecksumMismatch,
            ),
            (
                PersistError::Truncated {
                    needed: 8,
                    remaining: 0,
                },
                ErrorCode::PersistTruncated,
            ),
            (
                PersistError::Corrupt { what: "w" },
                ErrorCode::PersistCorrupt,
            ),
            (
                PersistError::UnknownKind { name: "k".into() },
                ErrorCode::PersistUnknownKind,
            ),
            (
                PersistError::EndpointMismatch {
                    stored: "i64".into(),
                    expected: "u32",
                },
                ErrorCode::PersistEndpointMismatch,
            ),
            (
                PersistError::ManifestMismatch { what: "w" },
                ErrorCode::PersistManifestMismatch,
            ),
            (
                PersistError::Unsupported { reason: "r" },
                ErrorCode::PersistUnsupported,
            ),
        ];
        for (err, code) in cases {
            assert_eq!(WireError::from(&err).code, code);
        }
    }

    #[test]
    fn every_catalog_error_variant_has_a_code() {
        use crate::catalog::CatalogError;
        let n = || "t".to_string();
        let cases = [
            (
                CatalogError::UnknownCollection { name: n() },
                ErrorCode::CatalogUnknownCollection,
            ),
            (
                CatalogError::CollectionExists { name: n() },
                ErrorCode::CatalogCollectionExists,
            ),
            (
                CatalogError::InvalidName {
                    name: n(),
                    reason: "r",
                },
                ErrorCode::CatalogInvalidName,
            ),
            (
                CatalogError::BudgetExceeded {
                    name: n(),
                    requested_bytes: 10,
                    used_bytes: 90,
                    budget_bytes: 95,
                },
                ErrorCode::CatalogBudgetExceeded,
            ),
            (
                CatalogError::ReindexInProgress { name: n() },
                ErrorCode::CatalogReindexInProgress,
            ),
            (
                CatalogError::IncompatibleKind {
                    name: n(),
                    kind: "kds".into(),
                    reason: "static",
                },
                ErrorCode::CatalogIncompatibleKind,
            ),
            (
                CatalogError::InvalidSpec { reason: n() },
                ErrorCode::CatalogInvalidSpec,
            ),
            (
                CatalogError::NotServingCatalog,
                ErrorCode::CatalogNotServing,
            ),
            // Wrappers keep the inner taxonomy's code.
            (
                CatalogError::Persist(PersistError::Corrupt { what: "w" }),
                ErrorCode::PersistCorrupt,
            ),
            (
                CatalogError::Update(UpdateError::UnknownId { id: 3 }),
                ErrorCode::UpdateUnknownId,
            ),
        ];
        for (err, code) in cases {
            let wire = WireError::from(&err);
            assert_eq!(wire.code, code, "{err}");
            assert_eq!(wire.message, err.to_string());
        }
    }

    #[test]
    fn every_replication_error_variant_has_a_code() {
        use crate::wal::ReplicationError;
        let cases = [
            (
                ReplicationError::OutOfOrderSequence {
                    expected: 4,
                    found: 9,
                },
                ErrorCode::ReplicationOutOfOrder,
            ),
            (
                ReplicationError::ReadOnlyReplica,
                ErrorCode::ReplicationReadOnly,
            ),
            (
                ReplicationError::NotPrimary,
                ErrorCode::ReplicationNotPrimary,
            ),
            (
                ReplicationError::NotReplica,
                ErrorCode::ReplicationNotReplica,
            ),
            (
                ReplicationError::StaleSubscribe {
                    requested: 1,
                    start: 5,
                },
                ErrorCode::ReplicationStaleSubscribe,
            ),
            (
                ReplicationError::Unsupported { reason: "r" },
                ErrorCode::ReplicationUnsupported,
            ),
            // The wrapper keeps the persistence taxonomy's code.
            (
                ReplicationError::Persist(PersistError::ChecksumMismatch {
                    section: "log-record",
                    stored: 1,
                    computed: 2,
                }),
                ErrorCode::PersistChecksumMismatch,
            ),
        ];
        for (err, code) in cases {
            let wire = WireError::from(&err);
            assert_eq!(wire.code, code, "{err}");
            assert_eq!(wire.message, err.to_string());
        }
    }

    #[test]
    fn wire_error_and_results_roundtrip() {
        let e = WireError::protocol(ErrorCode::FrameTooLarge, "too big");
        let ok: Result<u64, WireError> = Ok(42);
        let err: Result<u64, WireError> = Err(e.clone());
        let mut buf = Vec::new();
        e.encode_into(&mut buf);
        ok.encode_into(&mut buf);
        err.encode_into(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(WireError::decode(&mut r).unwrap(), e);
        assert_eq!(Result::<u64, WireError>::decode(&mut r).unwrap(), ok);
        assert_eq!(Result::<u64, WireError>::decode(&mut r).unwrap(), err);
        assert!(r.is_empty());
    }

    #[test]
    fn mutations_and_outputs_roundtrip() {
        let muts = [
            Mutation::Insert {
                iv: Interval::new(-3i64, 9),
            },
            Mutation::InsertWeighted {
                iv: Interval::new(0i64, 1),
                weight: 2.5,
            },
            Mutation::Delete { id: 77 },
        ];
        let outs = [UpdateOutput::Inserted(12), UpdateOutput::Removed];
        let mut buf = Vec::new();
        for m in &muts {
            m.encode_into(&mut buf);
        }
        for o in &outs {
            o.encode_into(&mut buf);
        }
        let mut r = Reader::new(&buf);
        for m in &muts {
            assert_eq!(&Mutation::<i64>::decode(&mut r).unwrap(), m);
        }
        for o in &outs {
            assert_eq!(&UpdateOutput::decode(&mut r).unwrap(), o);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn garbage_tags_decode_to_corrupt_not_panic() {
        for bytes in [[9u8].as_slice(), [0xFF].as_slice()] {
            let mut r = Reader::new(bytes);
            assert!(matches!(
                Mutation::<i64>::decode(&mut r),
                Err(PersistError::Corrupt { .. })
            ));
            let mut r = Reader::new(bytes);
            assert!(matches!(
                UpdateOutput::decode(&mut r),
                Err(PersistError::Corrupt { .. })
            ));
        }
        let mut r = Reader::new(&[0x0F, 0x27]); // 9999 LE
        assert!(matches!(
            ErrorCode::decode(&mut r),
            Err(PersistError::Corrupt { .. })
        ));
    }
}
