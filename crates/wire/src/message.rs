//! The typed request/response vocabulary carried inside frames.
//!
//! Every message is one frame payload: a tag byte followed by
//! [`Codec`]-encoded fields. Requests that carry intervals
//! ([`Request::Run`], [`Request::Apply`]) also carry the endpoint
//! scalar's [`Codec::type_name`]; the server decodes with its own
//! endpoint type and refuses a mismatch with the typed
//! [`PersistError::EndpointMismatch`] — exactly the policy snapshots
//! follow, so a `u32` client can never misread an `i64` server.
//!
//! Decoding never trusts the bytes: unknown tags, truncated bodies, and
//! trailing garbage are all typed [`PersistError`]s, which the server
//! maps to stable wire error codes (see `irs_core::wire`).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

use irs_core::persist::{Codec, PersistError, Reader};
use irs_core::{GridEndpoint, Mutation, UpdateOutput, WireError};
use irs_engine::{Query, QueryOutput};

/// One request frame, client → server.
#[derive(Clone, Debug, PartialEq)]
pub enum Request<E> {
    /// Liveness probe; answered with [`Response::Ok`] while serving.
    Health,
    /// Engine + server counters; answered with [`Response::Stats`].
    Stats,
    /// A batch of queries, answered with [`Response::Run`] carrying one
    /// result per query in order. `seed: Some(s)` pins the draw stream
    /// (the server's `run_seeded` — identical seed, batch, and engine
    /// state reproduce identical bytes); `None` advances the server's
    /// own stream.
    Run {
        /// Explicit draw-stream seed, or `None` for the server's stream.
        seed: Option<u64>,
        /// The queries, answered in order.
        queries: Vec<Query<E>>,
    },
    /// A batch of typed mutations, applied under the server's writer
    /// seat; answered with [`Response::Apply`] carrying one result per
    /// mutation in order.
    Apply {
        /// The mutations, applied in order.
        muts: Vec<Mutation<E>>,
    },
    /// Saves the serving backend to a snapshot directory **on the
    /// server's filesystem**; answered with [`Response::Ok`].
    Save {
        /// Target directory (created if absent), server-side.
        dir: String,
    },
    /// Reads a snapshot directory's manifest (server-side) without
    /// loading it; answered with [`Response::Snapshot`].
    InspectSnapshot {
        /// The snapshot directory, server-side.
        dir: String,
    },
    /// Replaces the serving backend with one loaded from a snapshot
    /// directory (server-side); answered with [`Response::Ok`]. In-flight
    /// requests on other connections finish against the old backend;
    /// later ones see the new one.
    Load {
        /// The snapshot directory, server-side.
        dir: String,
    },
    /// Asks the server to drain and exit: it stops accepting
    /// connections, lets every in-flight request finish and flush its
    /// response (this one answered with [`Response::Ok`] first), then
    /// shuts down.
    Shutdown,
    /// Creates an **empty** named collection on a catalog server (data
    /// arrives through [`Request::ApplyIn`]); answered with
    /// [`Response::Collections`] carrying the new collection's summary.
    /// A single-collection server refuses with the catalog-not-serving
    /// code.
    CreateCollection {
        /// The collection's shape.
        spec: WireCollectionSpec,
    },
    /// Removes a named collection; answered with [`Response::Ok`].
    DropCollection {
        /// The collection to drop.
        name: String,
    },
    /// Describes every collection; answered with
    /// [`Response::Collections`], sorted by name.
    ListCollections,
    /// [`Request::Run`] against a named collection.
    RunIn {
        /// The target collection.
        collection: String,
        /// Explicit draw-stream seed, or `None` for the collection's
        /// own stream.
        seed: Option<u64>,
        /// The queries, answered in order.
        queries: Vec<Query<E>>,
    },
    /// [`Request::Apply`] against a named collection. Ids in mutations
    /// and outputs are the collection's **global** ids — stable across
    /// re-indexes.
    ApplyIn {
        /// The target collection.
        collection: String,
        /// The mutations, applied in order.
        muts: Vec<Mutation<E>>,
    },
    /// Saves the whole catalog (every collection plus one manifest) to
    /// a directory on the **server's** filesystem; answered with
    /// [`Response::Ok`].
    SaveCatalog {
        /// Target directory (created if absent), server-side.
        dir: String,
    },
    /// Replaces the serving catalog with one loaded from a server-side
    /// directory; answered with [`Response::Ok`].
    LoadCatalog {
        /// The catalog directory, server-side.
        dir: String,
    },
    /// Rebuilds a collection on a different index kind and swaps it in
    /// atomically (readers keep flowing); answered with
    /// [`Response::Collections`] carrying the collection's post-swap
    /// summary.
    Reindex {
        /// The target collection.
        collection: String,
        /// The new kind's stable name.
        kind: String,
    },
    /// Subscribes this connection to the primary's write-ahead log.
    /// Answered with [`Response::Replication`] (the ack), after which
    /// the connection becomes a push stream of [`Response::LogRecord`]
    /// frames for every record with sequence ≥ `from_seq` — the log
    /// tail first, then live appends. A non-primary refuses with the
    /// replication-not-primary code; a `from_seq` older than the log's
    /// start with replication-stale-subscribe (re-bootstrap from a
    /// snapshot).
    Subscribe {
        /// First sequence number wanted (usually `snapshot_seq + 1`).
        from_seq: u64,
    },
    /// Fetches a consistent snapshot of the primary for replica
    /// bootstrap. Answered first with [`Response::Replication`] whose
    /// `last_seq` is the snapshot's checkpoint, then a stream of
    /// [`Response::SnapshotChunk`] frames (every file of a snapshot
    /// taken under the writer seat, including the sequence-number
    /// checkpoint sidecar), terminated by [`Response::Ok`].
    FetchSnapshot,
    /// Reports the server's replication role and log position; answered
    /// with [`Response::Replication`]. Works on any server (role
    /// `"none"` when no log is kept).
    ReplicationStatus,
    /// Promotes a following replica to primary: it stops following,
    /// keeps its own log, and starts accepting mutations. Answered with
    /// [`Response::Replication`] (the post-promotion status); a server
    /// that is not a following replica refuses with the
    /// replication-not-replica code.
    Promote,
}

const REQ_HEALTH: u8 = 1;
const REQ_STATS: u8 = 2;
const REQ_RUN: u8 = 3;
const REQ_APPLY: u8 = 4;
const REQ_SAVE: u8 = 5;
const REQ_INSPECT: u8 = 6;
const REQ_LOAD: u8 = 7;
const REQ_SHUTDOWN: u8 = 8;
const REQ_CREATE_COLLECTION: u8 = 9;
const REQ_DROP_COLLECTION: u8 = 10;
const REQ_LIST_COLLECTIONS: u8 = 11;
const REQ_RUN_IN: u8 = 12;
const REQ_APPLY_IN: u8 = 13;
const REQ_SAVE_CATALOG: u8 = 14;
const REQ_LOAD_CATALOG: u8 = 15;
const REQ_REINDEX: u8 = 16;
const REQ_SUBSCRIBE: u8 = 17;
const REQ_FETCH_SNAPSHOT: u8 = 18;
const REQ_REPLICATION_STATUS: u8 = 19;
const REQ_PROMOTE: u8 = 20;

/// Decodes the endpoint type name stamped into a `Run`/`Apply` body and
/// refuses a mismatch — the wire twin of the snapshot manifest check.
fn check_endpoint<E: GridEndpoint>(r: &mut Reader<'_>) -> Result<(), PersistError> {
    let stored = String::decode(r)?;
    if stored != E::type_name() {
        return Err(PersistError::EndpointMismatch {
            stored,
            expected: E::type_name(),
        });
    }
    Ok(())
}

impl<E: GridEndpoint> Codec for Request<E> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Health => out.push(REQ_HEALTH),
            Request::Stats => out.push(REQ_STATS),
            Request::Run { seed, queries } => {
                out.push(REQ_RUN);
                E::type_name().to_string().encode_into(out);
                seed.encode_into(out);
                queries.encode_into(out);
            }
            Request::Apply { muts } => {
                out.push(REQ_APPLY);
                E::type_name().to_string().encode_into(out);
                muts.encode_into(out);
            }
            Request::Save { dir } => {
                out.push(REQ_SAVE);
                dir.encode_into(out);
            }
            Request::InspectSnapshot { dir } => {
                out.push(REQ_INSPECT);
                dir.encode_into(out);
            }
            Request::Load { dir } => {
                out.push(REQ_LOAD);
                dir.encode_into(out);
            }
            Request::Shutdown => out.push(REQ_SHUTDOWN),
            Request::CreateCollection { spec } => {
                out.push(REQ_CREATE_COLLECTION);
                spec.encode_into(out);
            }
            Request::DropCollection { name } => {
                out.push(REQ_DROP_COLLECTION);
                name.encode_into(out);
            }
            Request::ListCollections => out.push(REQ_LIST_COLLECTIONS),
            Request::RunIn {
                collection,
                seed,
                queries,
            } => {
                out.push(REQ_RUN_IN);
                E::type_name().to_string().encode_into(out);
                collection.encode_into(out);
                seed.encode_into(out);
                queries.encode_into(out);
            }
            Request::ApplyIn { collection, muts } => {
                out.push(REQ_APPLY_IN);
                E::type_name().to_string().encode_into(out);
                collection.encode_into(out);
                muts.encode_into(out);
            }
            Request::SaveCatalog { dir } => {
                out.push(REQ_SAVE_CATALOG);
                dir.encode_into(out);
            }
            Request::LoadCatalog { dir } => {
                out.push(REQ_LOAD_CATALOG);
                dir.encode_into(out);
            }
            Request::Reindex { collection, kind } => {
                out.push(REQ_REINDEX);
                collection.encode_into(out);
                kind.encode_into(out);
            }
            Request::Subscribe { from_seq } => {
                out.push(REQ_SUBSCRIBE);
                E::type_name().to_string().encode_into(out);
                from_seq.encode_into(out);
            }
            Request::FetchSnapshot => out.push(REQ_FETCH_SNAPSHOT),
            Request::ReplicationStatus => out.push(REQ_REPLICATION_STATUS),
            Request::Promote => out.push(REQ_PROMOTE),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match u8::decode(r)? {
            REQ_HEALTH => Ok(Request::Health),
            REQ_STATS => Ok(Request::Stats),
            REQ_RUN => {
                check_endpoint::<E>(r)?;
                Ok(Request::Run {
                    seed: Option::decode(r)?,
                    queries: Vec::decode(r)?,
                })
            }
            REQ_APPLY => {
                check_endpoint::<E>(r)?;
                Ok(Request::Apply {
                    muts: Vec::decode(r)?,
                })
            }
            REQ_SAVE => Ok(Request::Save {
                dir: String::decode(r)?,
            }),
            REQ_INSPECT => Ok(Request::InspectSnapshot {
                dir: String::decode(r)?,
            }),
            REQ_LOAD => Ok(Request::Load {
                dir: String::decode(r)?,
            }),
            REQ_SHUTDOWN => Ok(Request::Shutdown),
            REQ_CREATE_COLLECTION => Ok(Request::CreateCollection {
                spec: WireCollectionSpec::decode(r)?,
            }),
            REQ_DROP_COLLECTION => Ok(Request::DropCollection {
                name: String::decode(r)?,
            }),
            REQ_LIST_COLLECTIONS => Ok(Request::ListCollections),
            REQ_RUN_IN => {
                check_endpoint::<E>(r)?;
                Ok(Request::RunIn {
                    collection: String::decode(r)?,
                    seed: Option::decode(r)?,
                    queries: Vec::decode(r)?,
                })
            }
            REQ_APPLY_IN => {
                check_endpoint::<E>(r)?;
                Ok(Request::ApplyIn {
                    collection: String::decode(r)?,
                    muts: Vec::decode(r)?,
                })
            }
            REQ_SAVE_CATALOG => Ok(Request::SaveCatalog {
                dir: String::decode(r)?,
            }),
            REQ_LOAD_CATALOG => Ok(Request::LoadCatalog {
                dir: String::decode(r)?,
            }),
            REQ_REINDEX => Ok(Request::Reindex {
                collection: String::decode(r)?,
                kind: String::decode(r)?,
            }),
            REQ_SUBSCRIBE => {
                check_endpoint::<E>(r)?;
                Ok(Request::Subscribe {
                    from_seq: u64::decode(r)?,
                })
            }
            REQ_FETCH_SNAPSHOT => Ok(Request::FetchSnapshot),
            REQ_REPLICATION_STATUS => Ok(Request::ReplicationStatus),
            REQ_PROMOTE => Ok(Request::Promote),
            _ => Err(PersistError::Corrupt {
                what: "unknown request tag",
            }),
        }
    }
}

/// One response frame, server → client.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Success with no payload (health, save, load, shutdown).
    Ok,
    /// Answer to [`Request::Stats`].
    Stats(ServerStats),
    /// Answer to [`Request::Run`]: one result per query, in order —
    /// the same `Vec<Result<..>>` shape the in-process `Engine::run`
    /// returns, with errors in wire form.
    Run(Vec<Result<QueryOutput, WireError>>),
    /// Answer to [`Request::Apply`]: one result per mutation, in order.
    Apply(Vec<Result<UpdateOutput, WireError>>),
    /// Answer to [`Request::InspectSnapshot`].
    Snapshot(SnapshotSummary),
    /// The request as a whole failed (protocol error, refused admin
    /// operation, draining server). Per-query/per-mutation failures
    /// travel inside [`Response::Run`]/[`Response::Apply`] instead.
    Error(WireError),
    /// Answer to [`Request::ListCollections`] (every collection, sorted
    /// by name) and to [`Request::CreateCollection`]/[`Request::Reindex`]
    /// (a single-element vector describing the affected collection).
    Collections(Vec<CollectionSummary>),
    /// One pushed write-ahead-log record on a subscribed connection.
    LogRecord(LogRecordFrame),
    /// One span of one snapshot file, streamed in answer to
    /// [`Request::FetchSnapshot`].
    SnapshotChunk(SnapshotChunk),
    /// The server's replication role and log position: the answer to
    /// [`Request::ReplicationStatus`]/[`Request::Promote`], the
    /// subscribe ack, and the snapshot-stream terminator.
    Replication(ReplicationStatus),
}

const RESP_OK: u8 = 1;
const RESP_STATS: u8 = 2;
const RESP_RUN: u8 = 3;
const RESP_APPLY: u8 = 4;
const RESP_SNAPSHOT: u8 = 5;
const RESP_ERROR: u8 = 6;
const RESP_COLLECTIONS: u8 = 7;
const RESP_LOG_RECORD: u8 = 8;
const RESP_SNAPSHOT_CHUNK: u8 = 9;
const RESP_REPLICATION: u8 = 10;

impl Codec for Response {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Ok => out.push(RESP_OK),
            Response::Stats(stats) => {
                out.push(RESP_STATS);
                stats.encode_into(out);
            }
            Response::Run(results) => {
                out.push(RESP_RUN);
                results.encode_into(out);
            }
            Response::Apply(results) => {
                out.push(RESP_APPLY);
                results.encode_into(out);
            }
            Response::Snapshot(info) => {
                out.push(RESP_SNAPSHOT);
                info.encode_into(out);
            }
            Response::Error(e) => {
                out.push(RESP_ERROR);
                e.encode_into(out);
            }
            Response::Collections(summaries) => {
                out.push(RESP_COLLECTIONS);
                summaries.encode_into(out);
            }
            Response::LogRecord(frame) => {
                out.push(RESP_LOG_RECORD);
                frame.encode_into(out);
            }
            Response::SnapshotChunk(chunk) => {
                out.push(RESP_SNAPSHOT_CHUNK);
                chunk.encode_into(out);
            }
            Response::Replication(status) => {
                out.push(RESP_REPLICATION);
                status.encode_into(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match u8::decode(r)? {
            RESP_OK => Ok(Response::Ok),
            RESP_STATS => Ok(Response::Stats(ServerStats::decode(r)?)),
            RESP_RUN => Ok(Response::Run(Vec::decode(r)?)),
            RESP_APPLY => Ok(Response::Apply(Vec::decode(r)?)),
            RESP_SNAPSHOT => Ok(Response::Snapshot(SnapshotSummary::decode(r)?)),
            RESP_ERROR => Ok(Response::Error(WireError::decode(r)?)),
            RESP_COLLECTIONS => Ok(Response::Collections(Vec::decode(r)?)),
            RESP_LOG_RECORD => Ok(Response::LogRecord(LogRecordFrame::decode(r)?)),
            RESP_SNAPSHOT_CHUNK => Ok(Response::SnapshotChunk(SnapshotChunk::decode(r)?)),
            RESP_REPLICATION => Ok(Response::Replication(ReplicationStatus::decode(r)?)),
            _ => Err(PersistError::Corrupt {
                what: "unknown response tag",
            }),
        }
    }
}

/// What [`Request::Stats`] reports: the backend's shape plus the
/// daemon's counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerStats {
    /// The serving index kind's stable name.
    pub kind: String,
    /// The endpoint scalar's type name.
    pub endpoint: String,
    /// Shards behind the facade.
    pub shards: usize,
    /// Live intervals.
    pub len: usize,
    /// Live intervals per shard.
    pub shard_lens: Vec<usize>,
    /// Whether the backend holds per-interval weights.
    pub weighted: bool,
    /// Connections accepted since the server started.
    pub connections_accepted: u64,
    /// Connections currently open.
    pub connections_active: u64,
    /// Requests served (all kinds, including failed ones).
    pub requests: u64,
    /// Individual queries answered inside `Run` batches.
    pub queries: u64,
    /// Individual mutations applied inside `Apply` batches.
    pub mutations: u64,
    /// Protocol-level errors observed (malformed frames/messages).
    pub protocol_errors: u64,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Whether the server is draining for shutdown.
    pub draining: bool,
}

impl Codec for ServerStats {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.kind.encode_into(out);
        self.endpoint.encode_into(out);
        self.shards.encode_into(out);
        self.len.encode_into(out);
        self.shard_lens.encode_into(out);
        self.weighted.encode_into(out);
        self.connections_accepted.encode_into(out);
        self.connections_active.encode_into(out);
        self.requests.encode_into(out);
        self.queries.encode_into(out);
        self.mutations.encode_into(out);
        self.protocol_errors.encode_into(out);
        self.uptime_ms.encode_into(out);
        self.draining.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(ServerStats {
            kind: String::decode(r)?,
            endpoint: String::decode(r)?,
            shards: usize::decode(r)?,
            len: usize::decode(r)?,
            shard_lens: Vec::decode(r)?,
            weighted: bool::decode(r)?,
            connections_accepted: u64::decode(r)?,
            connections_active: u64::decode(r)?,
            requests: u64::decode(r)?,
            queries: u64::decode(r)?,
            mutations: u64::decode(r)?,
            protocol_errors: u64::decode(r)?,
            uptime_ms: u64::decode(r)?,
            draining: bool::decode(r)?,
        })
    }
}

/// The shape of a collection a remote client asks a catalog server to
/// create. The wire crate deliberately mirrors the catalog's spec with
/// plain fields (no `irs-catalog` dependency): `kind: None` requests
/// the adaptive planner (`kind: auto`), with the three hint fields as
/// its inputs; `kind: Some(name)` pins a kind by stable name and the
/// hints are ignored.
#[derive(Clone, Debug, PartialEq)]
pub struct WireCollectionSpec {
    /// Collection name (validated server-side: 1–64 bytes of lowercase
    /// ASCII letters, digits, `-`, `_`, starting with a letter/digit).
    pub name: String,
    /// Stable kind name, or `None` for `kind: auto`.
    pub kind: Option<String>,
    /// Planner hint: expected mutations per query, in `[0, 1]`.
    pub update_rate: f64,
    /// Planner hint: expected query extent as a domain fraction.
    pub expected_extent: f64,
    /// Whether the collection carries per-interval weights.
    pub weighted: bool,
    /// Backend shard count (0 is normalised to 1 server-side).
    pub shards: usize,
    /// Draw-stream seed.
    pub seed: u64,
}

impl Codec for WireCollectionSpec {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.name.encode_into(out);
        self.kind.encode_into(out);
        self.update_rate.encode_into(out);
        self.expected_extent.encode_into(out);
        self.weighted.encode_into(out);
        self.shards.encode_into(out);
        self.seed.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(WireCollectionSpec {
            name: String::decode(r)?,
            kind: Option::decode(r)?,
            update_rate: f64::decode(r)?,
            expected_extent: f64::decode(r)?,
            weighted: bool::decode(r)?,
            shards: usize::decode(r)?,
            seed: u64::decode(r)?,
        })
    }
}

/// One collection's row in a [`Response::Collections`] answer.
#[derive(Clone, Debug, PartialEq)]
pub struct CollectionSummary {
    /// Collection name.
    pub name: String,
    /// Stable name of the kind currently serving it.
    pub kind: String,
    /// Backend shard count.
    pub shards: usize,
    /// Live intervals.
    pub len: usize,
    /// Whether the collection carries per-interval weights.
    pub weighted: bool,
    /// Estimated heap bytes charged against the catalog budget.
    pub heap_bytes: usize,
    /// Whether the kind was chosen by the adaptive planner.
    pub auto: bool,
}

impl Codec for CollectionSummary {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.name.encode_into(out);
        self.kind.encode_into(out);
        self.shards.encode_into(out);
        self.len.encode_into(out);
        self.weighted.encode_into(out);
        self.heap_bytes.encode_into(out);
        self.auto.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(CollectionSummary {
            name: String::decode(r)?,
            kind: String::decode(r)?,
            shards: usize::decode(r)?,
            len: usize::decode(r)?,
            weighted: bool::decode(r)?,
            heap_bytes: usize::decode(r)?,
            auto: bool::decode(r)?,
        })
    }
}

/// What [`Request::InspectSnapshot`] reports: the manifest fields a
/// remote admin needs, without shipping any shard payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotSummary {
    /// The snapshot's on-disk format version.
    pub format_version: u16,
    /// Saved index kind's stable name.
    pub kind: String,
    /// Saved endpoint scalar's type name.
    pub endpoint: String,
    /// Whether the snapshot holds per-interval weights.
    pub weighted: bool,
    /// Shard count of the snapshot.
    pub shards: usize,
    /// The saved backend's base seed.
    pub seed: u64,
    /// Live intervals at save time.
    pub len: usize,
}

impl Codec for SnapshotSummary {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.format_version.encode_into(out);
        self.kind.encode_into(out);
        self.endpoint.encode_into(out);
        self.weighted.encode_into(out);
        self.shards.encode_into(out);
        self.seed.encode_into(out);
        self.len.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(SnapshotSummary {
            format_version: u16::decode(r)?,
            kind: String::decode(r)?,
            endpoint: String::decode(r)?,
            weighted: bool::decode(r)?,
            shards: usize::decode(r)?,
            seed: u64::decode(r)?,
            len: usize::decode(r)?,
        })
    }
}

/// One write-ahead-log record as pushed to a subscriber. The payload is
/// the record's on-disk section payload verbatim (an
/// `irs_core::wal::LogRecord` encoding, already CRC-verified by the
/// primary's tailer and re-framed by the wire's own CRC), so a replica
/// appends it to its own log and decodes it with
/// `irs_core::wal::decode_record_payload` — no re-encoding anywhere.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecordFrame {
    /// The record's sequence number (also inside `payload`; duplicated
    /// here so routing never needs to decode the body).
    pub seq: u64,
    /// The encoded `LogRecord`, exactly as on the primary's disk.
    pub payload: Vec<u8>,
}

impl Codec for LogRecordFrame {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.seq.encode_into(out);
        self.payload.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(LogRecordFrame {
            seq: u64::decode(r)?,
            payload: Vec::decode(r)?,
        })
    }
}

/// One span of one snapshot file, streamed during replica bootstrap.
/// `path` is relative to the snapshot directory; receivers must refuse
/// absolute paths and `..` components (a hostile primary must not be
/// able to write outside the bootstrap directory).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotChunk {
    /// File path relative to the snapshot directory (`/`-separated).
    pub path: String,
    /// Byte offset of this span within the file.
    pub offset: u64,
    /// The file's total length, so the receiver can detect a short
    /// stream.
    pub total_len: u64,
    /// The span's bytes.
    pub bytes: Vec<u8>,
}

impl Codec for SnapshotChunk {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.path.encode_into(out);
        self.offset.encode_into(out);
        self.total_len.encode_into(out);
        self.bytes.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(SnapshotChunk {
            path: String::decode(r)?,
            offset: u64::decode(r)?,
            total_len: u64::decode(r)?,
            bytes: Vec::decode(r)?,
        })
    }
}

/// A server's replication role and log position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicationStatus {
    /// `"primary"`, `"replica"`, or `"none"` (no log kept).
    pub role: String,
    /// Last log sequence number applied (0 when nothing ever was).
    pub last_seq: u64,
    /// Sequence number the server's log starts at (0 when no log).
    pub log_start_seq: u64,
    /// The primary a replica follows, when `role == "replica"`.
    pub primary: Option<String>,
}

impl Codec for ReplicationStatus {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.role.encode_into(out);
        self.last_seq.encode_into(out);
        self.log_start_seq.encode_into(out);
        self.primary.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(ReplicationStatus {
            role: String::decode(r)?,
            last_seq: u64::decode(r)?,
            log_start_seq: u64::decode(r)?,
            primary: Option::decode(r)?,
        })
    }
}

/// Encodes any message into a fresh frame payload.
pub fn encode_message<T: Codec>(msg: &T) -> Vec<u8> {
    let mut out = Vec::new();
    msg.encode_into(&mut out);
    out
}

/// Decodes a whole frame payload as one message; trailing bytes are
/// corrupt (a frame carries exactly one message).
pub fn decode_message<T: Codec>(payload: &[u8]) -> Result<T, PersistError> {
    let mut r = Reader::new(payload);
    let msg = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(PersistError::Corrupt {
            what: "frame has trailing bytes after its message",
        });
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_core::Interval;

    #[test]
    fn requests_roundtrip() {
        let reqs: Vec<Request<i64>> = vec![
            Request::Health,
            Request::Stats,
            Request::Run {
                seed: Some(7),
                queries: vec![
                    Query::Sample {
                        q: Interval::new(1, 9),
                        s: 4,
                    },
                    Query::Count {
                        q: Interval::new(-2, 2),
                    },
                ],
            },
            Request::Apply {
                muts: vec![
                    Mutation::Insert {
                        iv: Interval::new(5, 6),
                    },
                    Mutation::Delete { id: 3 },
                ],
            },
            Request::Save { dir: "snap".into() },
            Request::InspectSnapshot { dir: "snap".into() },
            Request::Load { dir: "snap".into() },
            Request::Shutdown,
            Request::CreateCollection {
                spec: WireCollectionSpec {
                    name: "trips".into(),
                    kind: None,
                    update_rate: 0.25,
                    expected_extent: 0.01,
                    weighted: true,
                    shards: 4,
                    seed: 99,
                },
            },
            Request::DropCollection {
                name: "trips".into(),
            },
            Request::ListCollections,
            Request::RunIn {
                collection: "trips".into(),
                seed: Some(11),
                queries: vec![Query::Stab { p: 0 }],
            },
            Request::ApplyIn {
                collection: "trips".into(),
                muts: vec![Mutation::Delete { id: 7 }],
            },
            Request::SaveCatalog { dir: "cat".into() },
            Request::LoadCatalog { dir: "cat".into() },
            Request::Reindex {
                collection: "trips".into(),
                kind: "ait".into(),
            },
            Request::Subscribe { from_seq: 42 },
            Request::FetchSnapshot,
            Request::ReplicationStatus,
            Request::Promote,
        ];
        for req in &reqs {
            let payload = encode_message(req);
            assert_eq!(&decode_message::<Request<i64>>(&payload).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resps = vec![
            Response::Ok,
            Response::Run(vec![
                Ok(QueryOutput::Count(3)),
                Err(WireError::protocol(
                    irs_core::ErrorCode::QueryNotWeighted,
                    "nope",
                )),
            ]),
            Response::Apply(vec![Ok(UpdateOutput::Inserted(9))]),
            Response::Stats(ServerStats {
                kind: "ait".into(),
                endpoint: "i64".into(),
                shards: 4,
                len: 100,
                shard_lens: vec![25; 4],
                weighted: false,
                connections_accepted: 3,
                connections_active: 1,
                requests: 17,
                queries: 120,
                mutations: 5,
                protocol_errors: 0,
                uptime_ms: 12345,
                draining: false,
            }),
            Response::Snapshot(SnapshotSummary {
                format_version: 1,
                kind: "kds".into(),
                endpoint: "i64".into(),
                weighted: true,
                shards: 2,
                seed: 42,
                len: 10,
            }),
            Response::Error(WireError::protocol(
                irs_core::ErrorCode::UnknownMessage,
                "tag 99",
            )),
            Response::Collections(vec![
                CollectionSummary {
                    name: "trips".into(),
                    kind: "awit-dynamic".into(),
                    shards: 4,
                    len: 1000,
                    weighted: true,
                    heap_bytes: 123_456,
                    auto: true,
                },
                CollectionSummary {
                    name: "zones".into(),
                    kind: "kds".into(),
                    shards: 1,
                    len: 50,
                    weighted: false,
                    heap_bytes: 4096,
                    auto: false,
                },
            ]),
            Response::LogRecord(LogRecordFrame {
                seq: 17,
                payload: vec![1, 2, 3, 0xFF],
            }),
            Response::SnapshotChunk(SnapshotChunk {
                path: "shard-0000.irs".into(),
                offset: 4096,
                total_len: 8192,
                bytes: vec![0, 9, 8],
            }),
            Response::Replication(ReplicationStatus {
                role: "replica".into(),
                last_seq: 41,
                log_start_seq: 12,
                primary: Some("127.0.0.1:9009".into()),
            }),
        ];
        for resp in &resps {
            let payload = encode_message(resp);
            assert_eq!(&decode_message::<Response>(&payload).unwrap(), resp);
        }
    }

    #[test]
    fn endpoint_mismatch_is_typed_at_decode() {
        let req: Request<i64> = Request::Run {
            seed: None,
            queries: vec![Query::Stab { p: 5 }],
        };
        let payload = encode_message(&req);
        // Decoding an i64 request as a u32 server refuses before
        // touching any interval bytes.
        match decode_message::<Request<u32>>(&payload) {
            Err(PersistError::EndpointMismatch { stored, expected }) => {
                assert_eq!(stored, "i64");
                assert_eq!(expected, "u32");
            }
            other => panic!("expected EndpointMismatch, got {other:?}"),
        }
        // Collection-scoped batches carry the same stamp.
        let req: Request<i64> = Request::RunIn {
            collection: "trips".into(),
            seed: None,
            queries: vec![Query::Stab { p: 5 }],
        };
        let payload = encode_message(&req);
        assert!(matches!(
            decode_message::<Request<u32>>(&payload),
            Err(PersistError::EndpointMismatch { .. })
        ));
        // Subscriptions carry it too: the pushed log records are typed.
        let req: Request<i64> = Request::Subscribe { from_seq: 1 };
        let payload = encode_message(&req);
        assert!(matches!(
            decode_message::<Request<u32>>(&payload),
            Err(PersistError::EndpointMismatch { .. })
        ));
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_corrupt() {
        assert!(matches!(
            decode_message::<Request<i64>>(&[0x63]),
            Err(PersistError::Corrupt { .. })
        ));
        assert!(matches!(
            decode_message::<Response>(&[0x63]),
            Err(PersistError::Corrupt { .. })
        ));
        let mut payload = encode_message(&Response::Ok);
        payload.push(0xFF);
        assert!(matches!(
            decode_message::<Response>(&payload),
            Err(PersistError::Corrupt { .. })
        ));
    }
}
