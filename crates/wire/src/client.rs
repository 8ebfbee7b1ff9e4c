//! The blocking remote client: the network twin of `irs-engine`'s
//! `Engine`.
//!
//! A [`RemoteClient`] owns one TCP connection and speaks one request /
//! one response at a time. It mirrors the in-process surface — batch
//! entry points (`run`, `run_seeded`, `apply`) plus the one-query
//! conveniences (`count`, `sample`, `insert`, …) — but every failure,
//! whether raised by the engine, the snapshot layer, or the wire
//! itself, arrives as a [`WireError`] carrying its stable
//! [`ErrorCode`].
//!
//! Connections are cheap; for concurrent load, open one `RemoteClient`
//! per thread (the server runs a thread per connection and serializes
//! mutations through its single writer seat, so remote writers from
//! many connections compose exactly like `Client::writer` callers in
//! one process).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use irs_core::persist::PersistError;
use irs_core::{ErrorCode, GridEndpoint, Interval, ItemId, Mutation, UpdateOutput, WireError};
use irs_engine::{Query, QueryOutput};
use std::io;
use std::marker::PhantomData;
use std::net::{TcpStream, ToSocketAddrs};
use std::path::{Component, Path, PathBuf};
use std::time::Duration;

use crate::frame::{read_frame_blocking, write_frame, FrameReader, ReadEvent};
use crate::message::{
    decode_message, encode_message, CollectionSummary, LogRecordFrame, ReplicationStatus, Request,
    Response, ServerStats, SnapshotChunk, SnapshotSummary, WireCollectionSpec,
};

/// A blocking connection to an `irs-server`, typed by the endpoint
/// scalar `E` it expects the server to hold. A wrong guess is refused
/// by the server on the first `Run`/`Apply` with
/// [`ErrorCode::WrongEndpoint`]'s persist twin rather than misread.
#[derive(Debug)]
pub struct RemoteClient<E> {
    stream: TcpStream,
    reader: FrameReader,
    _endpoint: PhantomData<fn() -> E>,
}

/// Lifts a response-shape violation (the server answered, but with the
/// wrong variant) into a typed wire error.
fn unexpected(what: &'static str, got: &Response) -> WireError {
    WireError::protocol(
        ErrorCode::BadMessage,
        format!("expected {what} response, got {got:?}"),
    )
}

impl<E: GridEndpoint> RemoteClient<E> {
    /// Connects to a running server. No handshake bytes are exchanged
    /// until the first request; use [`RemoteClient::health`] to confirm
    /// the peer speaks this protocol.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(RemoteClient {
            stream,
            reader: FrameReader::new(),
            _endpoint: PhantomData,
        })
    }

    /// One request/response exchange. Frame-level failures become wire
    /// errors via [`crate::FrameError::to_wire_error`]; a top-level
    /// [`Response::Error`] becomes `Err` directly.
    fn call(&mut self, req: &Request<E>) -> Result<Response, WireError> {
        write_frame(&mut self.stream, &encode_message(req)).map_err(|e| e.to_wire_error())?;
        let payload = read_frame_blocking(&mut self.reader, &mut self.stream)
            .map_err(|e| e.to_wire_error())?;
        let resp: Response = decode_message(&payload).map_err(|e| {
            WireError::protocol(ErrorCode::BadMessage, format!("undecodable response: {e}"))
        })?;
        match resp {
            Response::Error(e) => Err(e),
            other => Ok(other),
        }
    }

    fn call_ok(&mut self, req: &Request<E>, what: &'static str) -> Result<(), WireError> {
        match self.call(req)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(what, &other)),
        }
    }

    // ------------------------------------------------------------------
    // Health and stats
    // ------------------------------------------------------------------

    /// Confirms the server is alive and speaking this protocol version.
    pub fn health(&mut self) -> Result<(), WireError> {
        self.call_ok(&Request::Health, "Ok")
    }

    /// The serving backend's shape plus the daemon's counters.
    pub fn stats(&mut self) -> Result<ServerStats, WireError> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Runs a batch of queries on the server's own draw stream; one
    /// result per query, in order — the remote form of `Client::run`.
    pub fn run(
        &mut self,
        queries: &[Query<E>],
    ) -> Result<Vec<Result<QueryOutput, WireError>>, WireError> {
        self.run_inner(None, queries)
    }

    /// Runs a batch on an explicit seed — the remote form of
    /// `Client::run_seeded`. The same seed, batch, and server state
    /// reproduce byte-identical results, in-process or over the wire.
    pub fn run_seeded(
        &mut self,
        queries: &[Query<E>],
        seed: u64,
    ) -> Result<Vec<Result<QueryOutput, WireError>>, WireError> {
        self.run_inner(Some(seed), queries)
    }

    fn run_inner(
        &mut self,
        seed: Option<u64>,
        queries: &[Query<E>],
    ) -> Result<Vec<Result<QueryOutput, WireError>>, WireError> {
        let req = Request::Run {
            seed,
            queries: queries.to_vec(),
        };
        match self.call(&req)? {
            Response::Run(results) => {
                if results.len() != queries.len() {
                    return Err(WireError::protocol(
                        ErrorCode::BadMessage,
                        format!(
                            "server answered {} results for {} queries",
                            results.len(),
                            queries.len()
                        ),
                    ));
                }
                Ok(results)
            }
            other => Err(unexpected("Run", &other)),
        }
    }

    /// Runs one query and unwraps its single result.
    fn one(&mut self, query: Query<E>) -> Result<QueryOutput, WireError> {
        let mut results = self.run(std::slice::from_ref(&query))?;
        results.pop().ok_or_else(|| {
            WireError::protocol(
                ErrorCode::BadMessage,
                "server answered 0 results for 1 query".to_string(),
            )
        })?
    }

    /// Counts intervals overlapping `q`.
    pub fn count(&mut self, q: Interval<E>) -> Result<usize, WireError> {
        match self.one(Query::Count { q })? {
            QueryOutput::Count(n) => Ok(n),
            other => Err(unexpected("Count", &Response::Run(vec![Ok(other)]))),
        }
    }

    /// Reports the ids of all intervals overlapping `q`.
    pub fn search(&mut self, q: Interval<E>) -> Result<Vec<ItemId>, WireError> {
        match self.one(Query::Search { q })? {
            QueryOutput::Ids(ids) => Ok(ids),
            other => Err(unexpected("Ids", &Response::Run(vec![Ok(other)]))),
        }
    }

    /// Reports the ids of all intervals containing the point `p`.
    pub fn stab(&mut self, p: E) -> Result<Vec<ItemId>, WireError> {
        match self.one(Query::Stab { p })? {
            QueryOutput::Ids(ids) => Ok(ids),
            other => Err(unexpected("Ids", &Response::Run(vec![Ok(other)]))),
        }
    }

    /// Draws `s` independent uniform samples from the intervals
    /// overlapping `q`, advancing the server's draw stream.
    pub fn sample(&mut self, q: Interval<E>, s: usize) -> Result<Vec<ItemId>, WireError> {
        match self.one(Query::Sample { q, s })? {
            QueryOutput::Samples(ids) => Ok(ids),
            other => Err(unexpected("Samples", &Response::Run(vec![Ok(other)]))),
        }
    }

    /// Draws `s` independent weighted samples (requires a weighted
    /// backend).
    pub fn sample_weighted(&mut self, q: Interval<E>, s: usize) -> Result<Vec<ItemId>, WireError> {
        match self.one(Query::SampleWeighted { q, s })? {
            QueryOutput::Samples(ids) => Ok(ids),
            other => Err(unexpected("Samples", &Response::Run(vec![Ok(other)]))),
        }
    }

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

    /// Applies a batch of mutations under the server's writer seat; one
    /// result per mutation, in order — the remote form of
    /// `EngineWriter::apply`.
    pub fn apply(
        &mut self,
        muts: &[Mutation<E>],
    ) -> Result<Vec<Result<UpdateOutput, WireError>>, WireError> {
        let req = Request::Apply {
            muts: muts.to_vec(),
        };
        match self.call(&req)? {
            Response::Apply(results) => {
                if results.len() != muts.len() {
                    return Err(WireError::protocol(
                        ErrorCode::BadMessage,
                        format!(
                            "server answered {} results for {} mutations",
                            results.len(),
                            muts.len()
                        ),
                    ));
                }
                Ok(results)
            }
            other => Err(unexpected("Apply", &other)),
        }
    }

    /// Applies one mutation and unwraps its single result.
    fn one_mut(&mut self, m: Mutation<E>) -> Result<UpdateOutput, WireError> {
        let mut results = self.apply(std::slice::from_ref(&m))?;
        results.pop().ok_or_else(|| {
            WireError::protocol(
                ErrorCode::BadMessage,
                "server answered 0 results for 1 mutation".to_string(),
            )
        })?
    }

    /// Inserts one interval; reports its engine-assigned global id.
    pub fn insert(&mut self, iv: Interval<E>) -> Result<ItemId, WireError> {
        match self.one_mut(Mutation::Insert { iv })? {
            UpdateOutput::Inserted(id) => Ok(id),
            other => Err(WireError::protocol(
                ErrorCode::BadMessage,
                format!("expected Inserted, got {other:?}"),
            )),
        }
    }

    /// Inserts one weighted interval (requires a weighted backend).
    pub fn insert_weighted(&mut self, iv: Interval<E>, weight: f64) -> Result<ItemId, WireError> {
        match self.one_mut(Mutation::InsertWeighted { iv, weight })? {
            UpdateOutput::Inserted(id) => Ok(id),
            other => Err(WireError::protocol(
                ErrorCode::BadMessage,
                format!("expected Inserted, got {other:?}"),
            )),
        }
    }

    /// Removes the interval with global id `id`.
    pub fn remove(&mut self, id: ItemId) -> Result<(), WireError> {
        match self.one_mut(Mutation::Delete { id })? {
            UpdateOutput::Removed => Ok(()),
            other => Err(WireError::protocol(
                ErrorCode::BadMessage,
                format!("expected Removed, got {other:?}"),
            )),
        }
    }

    // ------------------------------------------------------------------
    // Snapshot administration
    // ------------------------------------------------------------------

    /// Saves the serving backend to `dir` on the **server's**
    /// filesystem.
    pub fn save(&mut self, dir: &str) -> Result<(), WireError> {
        self.call_ok(
            &Request::Save {
                dir: dir.to_string(),
            },
            "Ok",
        )
    }

    /// Reads a server-side snapshot directory's manifest without
    /// loading it.
    pub fn inspect_snapshot(&mut self, dir: &str) -> Result<SnapshotSummary, WireError> {
        let req = Request::InspectSnapshot {
            dir: dir.to_string(),
        };
        match self.call(&req)? {
            Response::Snapshot(info) => Ok(info),
            other => Err(unexpected("Snapshot", &other)),
        }
    }

    /// Replaces the serving backend with one loaded from a server-side
    /// snapshot directory.
    pub fn load(&mut self, dir: &str) -> Result<(), WireError> {
        self.call_ok(
            &Request::Load {
                dir: dir.to_string(),
            },
            "Ok",
        )
    }

    /// Asks the server to drain and exit. The `Ok` reply is sent before
    /// the server begins draining, so acked work is never lost.
    pub fn shutdown(&mut self) -> Result<(), WireError> {
        self.call_ok(&Request::Shutdown, "Ok")
    }

    // ------------------------------------------------------------------
    // Catalog administration (multi-tenant servers)
    // ------------------------------------------------------------------

    /// Unwraps the single-collection summary `CreateCollection` and
    /// `Reindex` answer with.
    fn one_summary(&mut self, req: &Request<E>) -> Result<CollectionSummary, WireError> {
        match self.call(req)? {
            Response::Collections(mut summaries) if summaries.len() == 1 => summaries
                .pop()
                .ok_or_else(|| unexpected("Collections[1]", &Response::Collections(Vec::new()))),
            other => Err(unexpected("Collections[1]", &other)),
        }
    }

    /// Creates an empty named collection on a catalog server; reports
    /// its post-create summary (including the kind the planner picked
    /// when `spec.kind` was `None`). Single-collection servers refuse
    /// with [`ErrorCode::CatalogNotServing`].
    pub fn create_collection(
        &mut self,
        spec: WireCollectionSpec,
    ) -> Result<CollectionSummary, WireError> {
        self.one_summary(&Request::CreateCollection { spec })
    }

    /// Drops a named collection and every interval in it.
    pub fn drop_collection(&mut self, name: &str) -> Result<(), WireError> {
        self.call_ok(
            &Request::DropCollection {
                name: name.to_string(),
            },
            "Ok",
        )
    }

    /// Describes every collection, sorted by name.
    pub fn list_collections(&mut self) -> Result<Vec<CollectionSummary>, WireError> {
        match self.call(&Request::ListCollections)? {
            Response::Collections(summaries) => Ok(summaries),
            other => Err(unexpected("Collections", &other)),
        }
    }

    /// Rebuilds a collection on a different index kind and atomically
    /// swaps it in; reports the post-swap summary. Global ids survive
    /// the swap.
    pub fn reindex(
        &mut self,
        collection: &str,
        kind: &str,
    ) -> Result<CollectionSummary, WireError> {
        self.one_summary(&Request::Reindex {
            collection: collection.to_string(),
            kind: kind.to_string(),
        })
    }

    /// Runs a batch of queries against a named collection on the
    /// collection's own draw stream.
    pub fn run_in(
        &mut self,
        collection: &str,
        queries: &[Query<E>],
    ) -> Result<Vec<Result<QueryOutput, WireError>>, WireError> {
        self.run_in_inner(collection, None, queries)
    }

    /// Runs a batch against a named collection on an explicit seed —
    /// the remote form of the catalog's `run_seeded_in`.
    pub fn run_seeded_in(
        &mut self,
        collection: &str,
        queries: &[Query<E>],
        seed: u64,
    ) -> Result<Vec<Result<QueryOutput, WireError>>, WireError> {
        self.run_in_inner(collection, Some(seed), queries)
    }

    fn run_in_inner(
        &mut self,
        collection: &str,
        seed: Option<u64>,
        queries: &[Query<E>],
    ) -> Result<Vec<Result<QueryOutput, WireError>>, WireError> {
        let req = Request::RunIn {
            collection: collection.to_string(),
            seed,
            queries: queries.to_vec(),
        };
        match self.call(&req)? {
            Response::Run(results) => {
                if results.len() != queries.len() {
                    return Err(WireError::protocol(
                        ErrorCode::BadMessage,
                        format!(
                            "server answered {} results for {} queries",
                            results.len(),
                            queries.len()
                        ),
                    ));
                }
                Ok(results)
            }
            other => Err(unexpected("Run", &other)),
        }
    }

    /// Applies a batch of mutations to a named collection under its
    /// writer seat. Ids in mutations and outputs are the collection's
    /// **global** ids, stable across re-indexes.
    pub fn apply_in(
        &mut self,
        collection: &str,
        muts: &[Mutation<E>],
    ) -> Result<Vec<Result<UpdateOutput, WireError>>, WireError> {
        let req = Request::ApplyIn {
            collection: collection.to_string(),
            muts: muts.to_vec(),
        };
        match self.call(&req)? {
            Response::Apply(results) => {
                if results.len() != muts.len() {
                    return Err(WireError::protocol(
                        ErrorCode::BadMessage,
                        format!(
                            "server answered {} results for {} mutations",
                            results.len(),
                            muts.len()
                        ),
                    ));
                }
                Ok(results)
            }
            other => Err(unexpected("Apply", &other)),
        }
    }

    /// Saves the whole catalog (every collection plus one manifest) to
    /// `dir` on the **server's** filesystem.
    pub fn save_catalog(&mut self, dir: &str) -> Result<(), WireError> {
        self.call_ok(
            &Request::SaveCatalog {
                dir: dir.to_string(),
            },
            "Ok",
        )
    }

    /// Replaces the serving catalog with one loaded from a server-side
    /// directory.
    pub fn load_catalog(&mut self, dir: &str) -> Result<(), WireError> {
        self.call_ok(
            &Request::LoadCatalog {
                dir: dir.to_string(),
            },
            "Ok",
        )
    }

    // ------------------------------------------------------------------
    // Replication
    // ------------------------------------------------------------------

    /// The server's replication role and log position (`role` is
    /// `"none"` on a server that keeps no log).
    pub fn replication_status(&mut self) -> Result<ReplicationStatus, WireError> {
        match self.call(&Request::ReplicationStatus)? {
            Response::Replication(status) => Ok(status),
            other => Err(unexpected("Replication", &other)),
        }
    }

    /// Promotes a following replica to primary; reports the
    /// post-promotion status. A server that is not a following replica
    /// refuses with [`ErrorCode::ReplicationNotReplica`].
    pub fn promote(&mut self) -> Result<ReplicationStatus, WireError> {
        match self.call(&Request::Promote)? {
            Response::Replication(status) => Ok(status),
            other => Err(unexpected("Replication", &other)),
        }
    }

    /// Fetches a consistent snapshot of the primary into the local
    /// directory `dir` (created if absent) — replica bootstrap's first
    /// step. Returns the status frame acked before the stream; its
    /// `last_seq` is the snapshot's checkpoint, so replay continues at
    /// `last_seq + 1`. Chunk paths are validated: a hostile peer cannot
    /// write outside `dir`.
    pub fn fetch_snapshot(&mut self, dir: &Path) -> Result<ReplicationStatus, WireError> {
        let ack = match self.call(&Request::FetchSnapshot)? {
            Response::Replication(status) => status,
            other => return Err(unexpected("Replication", &other)),
        };
        std::fs::create_dir_all(dir).map_err(|e| io_wire(dir, &e))?;
        loop {
            let payload = read_frame_blocking(&mut self.reader, &mut self.stream)
                .map_err(|e| e.to_wire_error())?;
            let resp: Response = decode_message(&payload).map_err(|e| {
                WireError::protocol(ErrorCode::BadMessage, format!("undecodable response: {e}"))
            })?;
            match resp {
                Response::SnapshotChunk(chunk) => write_chunk(dir, &chunk)?,
                Response::Ok => return Ok(ack),
                Response::Error(e) => return Err(e),
                other => return Err(unexpected("SnapshotChunk", &other)),
            }
        }
    }

    /// Subscribes this connection to the primary's write-ahead log from
    /// `from_seq`, converting it into a [`LogStream`] of pushed
    /// records. The server refuses on a non-primary
    /// ([`ErrorCode::ReplicationNotPrimary`]) and when `from_seq`
    /// predates its log ([`ErrorCode::ReplicationStaleSubscribe`]).
    pub fn subscribe(mut self, from_seq: u64) -> Result<LogStream<E>, WireError> {
        let ack = match self.call(&Request::Subscribe { from_seq })? {
            Response::Replication(status) => status,
            other => return Err(unexpected("Replication", &other)),
        };
        Ok(LogStream {
            stream: self.stream,
            reader: self.reader,
            ack,
            next_seq: from_seq,
            _endpoint: PhantomData,
        })
    }
}

fn io_wire(path: &Path, e: &io::Error) -> WireError {
    WireError::from(&PersistError::io(path, e))
}

/// Refuses chunk paths that could escape the bootstrap directory
/// (absolute paths, `..`, drive/root components).
fn sanitize_chunk_path(dir: &Path, rel: &str) -> Result<PathBuf, WireError> {
    let p = Path::new(rel);
    let escapes = rel.is_empty()
        || p.components()
            .any(|c| !matches!(c, Component::Normal(_) | Component::CurDir));
    if escapes {
        return Err(WireError::protocol(
            ErrorCode::BadMessage,
            format!("snapshot chunk path `{rel}` escapes the bootstrap directory"),
        ));
    }
    Ok(dir.join(p))
}

fn write_chunk(dir: &Path, chunk: &SnapshotChunk) -> Result<(), WireError> {
    use std::io::{Seek as _, Write as _};
    let path = sanitize_chunk_path(dir, &chunk.path)?;
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| io_wire(parent, &e))?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(&path)
        .map_err(|e| io_wire(&path, &e))?;
    file.seek(std::io::SeekFrom::Start(chunk.offset))
        .and_then(|_| file.write_all(&chunk.bytes))
        .and_then(|()| file.sync_all())
        .map_err(|e| io_wire(&path, &e))
}

/// A subscribed connection: the push stream of write-ahead-log records
/// a [`RemoteClient::subscribe`] call turns into. Sequence continuity
/// is verified on every pushed record, so a reordering (or skipping)
/// peer surfaces as a typed error, never as silent divergence.
#[derive(Debug)]
pub struct LogStream<E> {
    stream: TcpStream,
    reader: FrameReader,
    ack: ReplicationStatus,
    next_seq: u64,
    _endpoint: PhantomData<fn() -> E>,
}

impl<E: GridEndpoint> LogStream<E> {
    /// The status frame the server acked the subscription with.
    pub fn ack(&self) -> &ReplicationStatus {
        &self.ack
    }

    /// The sequence number the next pushed record must carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Collects records pushed within `timeout` (an empty vector when
    /// the tick elapses quietly); `Ok(None)` when the primary closed
    /// the stream (drained or died) and a reconnect is needed.
    pub fn poll(&mut self, timeout: Duration) -> Result<Option<Vec<LogRecordFrame>>, WireError> {
        let timeout = timeout.max(Duration::from_millis(1));
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| WireError::protocol(ErrorCode::Internal, e.to_string()))?;
        let mut out = Vec::new();
        loop {
            match self.reader.read_event(&mut self.stream) {
                Ok(ReadEvent::Frame(payload)) => {
                    let resp: Response = decode_message(&payload).map_err(|e| {
                        WireError::protocol(
                            ErrorCode::BadMessage,
                            format!("undecodable response: {e}"),
                        )
                    })?;
                    match resp {
                        Response::LogRecord(frame) => {
                            if frame.seq != self.next_seq {
                                return Err(WireError::protocol(
                                    ErrorCode::ReplicationOutOfOrder,
                                    format!(
                                        "log stream sequence out of order: expected {}, got {}",
                                        self.next_seq, frame.seq
                                    ),
                                ));
                            }
                            self.next_seq = self.next_seq.saturating_add(1);
                            out.push(frame);
                        }
                        Response::Error(e) => return Err(e),
                        other => return Err(unexpected("LogRecord", &other)),
                    }
                }
                Ok(ReadEvent::Timeout { .. }) => break,
                Ok(ReadEvent::Eof) => {
                    return if out.is_empty() {
                        Ok(None)
                    } else {
                        Ok(Some(out))
                    };
                }
                Err(e) => return Err(e.to_wire_error()),
            }
        }
        Ok(Some(out))
    }
}
