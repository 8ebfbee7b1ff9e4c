//! # irs-server — the network daemon
//!
//! Serves a backend over TCP using the `irs-wire` protocol: batch
//! queries (`run`/`run_seeded` semantics preserved, including seeded
//! reproducibility), typed mutations routed through the backend's
//! single writer seat, snapshot administration (save / inspect / load,
//! with load atomically swapping the serving backend), and
//! health/stats.
//!
//! Two entry points: [`serve`] fronts a backend it is handed (an
//! [`Engine`] or a [`Catalog`], with or without a write-ahead log);
//! [`serve_replica`] fetches its backend from a primary.
//!
//! ## Threading model
//!
//! One accept thread plus one thread per connection. Each connection
//! thread takes a cheap [`Engine`] clone of the serving backend per
//! request — the same share-the-`Arc` pattern in-process callers use —
//! so reads run concurrently on connection threads and mutations
//! serialize on the engine's writer seat exactly as they do in one
//! process.
//!
//! ## Graceful shutdown
//!
//! Shutdown arrives either programmatically ([`ServerHandle::shutdown`])
//! or over the wire (`Request::Shutdown`, acked **before** draining
//! starts). Either way the flag flips, the accept loop wakes and stops
//! accepting, and every connection thread finishes what it owes: a
//! half-received request is read to completion, dispatched, and its
//! response flushed before the connection closes. Connection read
//! timeouts act as the poll ticks that make this possible — a thread
//! blocked waiting for a client that sends nothing notices the flag
//! within one 50 ms poll tick. [`ServerHandle::join`]
//! returns only after every connection thread has exited, so an acked
//! mutation is never lost.
//!
//! ## Replication
//!
//! A server handed a [`WalWriter`] by [`serve`] is a replication
//! **primary**: it keeps a write-ahead mutation log
//! ([`irs_core::wal`]): every acked mutation batch is appended and
//! fsynced **before** it is applied, so a crash after the ack never
//! loses the batch. Such a primary also serves two streaming requests —
//! snapshot-fetch (replica bootstrap) and subscribe-from-seq (live log
//! following). A server started with [`serve_replica`] bootstraps from
//! the primary's snapshot, replays the shipped log tail, then follows
//! live; it refuses client mutations with a typed code until a
//! `Promote` request hands it the writer seat. The protocol and failure
//! model are specified in `DESIGN.md`, "Replication".

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use irs_catalog::{
    Catalog, CatalogError, CollectionInfo, CollectionSpec, KindSpec, WorkloadHints,
    DEFAULT_COLLECTION,
};
use irs_core::persist::PersistError;
use irs_core::wal::{self, ReplicationError, WalTailer, WalWriter};
use irs_core::{ErrorCode, GridEndpoint, Mutation, WireError};
use irs_engine::{Engine, IndexKind};
use irs_wire::frame::{write_frame, FrameReader, ReadEvent};
use irs_wire::message::{
    decode_message, encode_message, CollectionSummary, LogRecordFrame, ReplicationStatus, Request,
    Response, ServerStats, SnapshotChunk, SnapshotSummary,
};
use irs_wire::RemoteClient;

/// Read timeout on every connection — the shutdown-flag poll tick, and
/// a follower's retry interval while its primary is unreachable.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Counters the daemon keeps alongside the backend's own stats.
#[derive(Default)]
struct Counters {
    connections_accepted: AtomicU64,
    connections_active: AtomicU64,
    requests: AtomicU64,
    queries: AtomicU64,
    mutations: AtomicU64,
    protocol_errors: AtomicU64,
}

/// What [`serve`] fronts: one anonymous backend (`From<Engine<E>>`, the
/// classic single-tenant daemon) or a whole multi-tenant catalog
/// (`From<Catalog<E>>`). On a catalog server, collection-tagged
/// requests (`CreateCollection`, `RunIn`, …) address collections by
/// name and plain single-collection frames route to the collection
/// named [`DEFAULT_COLLECTION`].
pub struct Serving<E: GridEndpoint>(Backing<E>);

impl<E: GridEndpoint> From<Engine<E>> for Serving<E> {
    fn from(engine: Engine<E>) -> Self {
        Serving(Backing::Single(RwLock::new(engine)))
    }
}

impl<E: GridEndpoint> From<Catalog<E>> for Serving<E> {
    fn from(catalog: Catalog<E>) -> Self {
        Serving(Backing::Catalog(RwLock::new(catalog)))
    }
}

/// The two shapes behind [`Serving`].
enum Backing<E: GridEndpoint> {
    /// One backend. Read-locked per request (to clone the cheap
    /// handle), write-locked only by `Load`'s atomic swap.
    Single(RwLock<Engine<E>>),
    /// A catalog of named collections. The lock guards only
    /// `LoadCatalog`'s whole-tenancy swap; all per-collection
    /// concurrency lives inside the catalog itself.
    Catalog(RwLock<Catalog<E>>),
}

/// Replication state on a log-keeping server (`None` on a plain one).
///
/// The `wal` mutex is the replication writer seat: the primary's
/// log-before-apply sequence, the follower's ingest, and snapshot
/// staging all hold it, so the log order *is* the apply order and a
/// staged snapshot names one exact log position. Nothing ever holds
/// another lock while acquiring it.
struct ReplicationState<E> {
    /// `true` while this server follows a primary; flips to `false`
    /// exactly once, on `Promote`.
    following: AtomicBool,
    /// The primary this server bootstrapped from (replicas only).
    primary: Option<String>,
    wal: Mutex<WalWriter<E>>,
    /// Last sequence number both logged and applied — what
    /// `ReplicationStatus` reports.
    last_seq: AtomicU64,
}

/// State shared by the accept loop, every connection thread, and the
/// handle.
struct Shared<E: GridEndpoint> {
    backing: Backing<E>,
    replication: Option<ReplicationState<E>>,
    /// Flips once; never clears. Connection threads poll it on read
    /// timeouts, the accept loop checks it per accept.
    draining: AtomicBool,
    counters: Counters,
    started: Instant,
    addr: SocketAddr,
}

impl<E: GridEndpoint> Shared<E> {
    /// A handle clone of the serving catalog, or the typed
    /// catalog-not-serving refusal on a single-tenant server.
    fn catalog(&self) -> Result<Catalog<E>, WireError> {
        match &self.backing {
            Backing::Catalog(catalog) => {
                Ok(catalog.read().unwrap_or_else(|e| e.into_inner()).clone())
            }
            Backing::Single(_) => Err(WireError::from(&CatalogError::NotServingCatalog)),
        }
    }

    fn stats(&self) -> ServerStats {
        let (kind, shards, len, shard_lens, weighted) = match &self.backing {
            Backing::Single(slot) => {
                let s = slot.read().unwrap_or_else(|e| e.into_inner()).stats();
                (
                    s.kind.name().to_string(),
                    s.shards,
                    s.len,
                    s.shard_lens,
                    s.weighted,
                )
            }
            Backing::Catalog(catalog) => {
                // Aggregate view: the "shards" of a catalog server are
                // its collections, reported in name order.
                let infos = catalog.read().unwrap_or_else(|e| e.into_inner()).list();
                (
                    "catalog".to_string(),
                    infos.len(),
                    infos.iter().map(|i| i.len).sum(),
                    infos.iter().map(|i| i.len).collect(),
                    infos.iter().any(|i| i.weighted),
                )
            }
        };
        ServerStats {
            kind,
            endpoint: E::type_name().to_string(),
            shards,
            len,
            shard_lens,
            weighted,
            connections_accepted: self.counters.connections_accepted.load(Ordering::Relaxed),
            connections_active: self.counters.connections_active.load(Ordering::Relaxed),
            requests: self.counters.requests.load(Ordering::Relaxed),
            queries: self.counters.queries.load(Ordering::Relaxed),
            mutations: self.counters.mutations.load(Ordering::Relaxed),
            protocol_errors: self.counters.protocol_errors.load(Ordering::Relaxed),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            draining: self.draining.load(Ordering::SeqCst),
        }
    }

    /// Flips the drain flag and wakes the accept loop (which may be
    /// blocked in `accept`) with a throwaway self-connection.
    fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            // First to flip wakes the accept loop; the connection is
            // dropped immediately and never served.
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// Handle to a running server: its address, a shutdown trigger, and the
/// join point that waits for the drain to complete.
pub struct ServerHandle<E: GridEndpoint> {
    shared: Arc<Shared<E>>,
    accept: Option<JoinHandle<()>>,
    /// The live log-following thread, on a server started with
    /// [`serve_replica`]. Exits on drain or promotion.
    follower: Option<JoinHandle<()>>,
}

impl<E: GridEndpoint> ServerHandle<E> {
    /// The address actually bound — with port 0, the ephemeral port the
    /// OS picked.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle clone of the serving backend — the same engine remote
    /// mutations land in, so callers (tests, embedders) can observe
    /// state directly. After [`ServerHandle::join`] returns, this clone
    /// reflects every mutation the server ever acked.
    ///
    /// # Panics
    ///
    /// On a catalog server, which has no single anonymous backend —
    /// use [`ServerHandle::catalog`].
    pub fn client(&self) -> Engine<E> {
        match &self.shared.backing {
            Backing::Single(slot) => slot.read().unwrap_or_else(|e| e.into_inner()).clone(),
            #[expect(
                clippy::panic,
                reason = "documented `# Panics` contract for embedders; never reachable from network input"
            )]
            Backing::Catalog(_) => {
                panic!("ServerHandle::client on a catalog server; use ServerHandle::catalog")
            }
        }
    }

    /// A handle clone of the serving catalog, or `None` on a
    /// single-tenant server. The clone shares all state with the one
    /// remote requests land in.
    pub fn catalog(&self) -> Option<Catalog<E>> {
        self.shared.catalog().ok()
    }

    /// Whether the server is draining (shutdown requested, connections
    /// finishing their in-flight work).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Requests a graceful shutdown: stop accepting, drain every
    /// connection, exit. Idempotent; returns immediately — use
    /// [`ServerHandle::join`] to wait for the drain.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Waits until the accept loop, every connection thread, and (on a
    /// replica) the follower thread have exited. Does not itself
    /// request shutdown — call [`ServerHandle::shutdown`] first (or let
    /// a wire `Shutdown` request arrive).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.follower.take() {
            let _ = h.join();
        }
    }
}

/// Serves `serving` — an [`Engine`] or a [`Catalog`], by `From` — on
/// `addr`. Binds and spawns the accept loop, returning immediately;
/// bind `addr` with port 0 for an OS-assigned ephemeral port (read it
/// back via [`ServerHandle::local_addr`]).
///
/// With `wal: Some(log)` the server is a log-keeping replication
/// **primary**: every acked mutation batch is appended to `log` and
/// fsynced before it is applied, and the server answers `Subscribe` /
/// `FetchSnapshot` so replicas can bootstrap and follow. Log records
/// carry the collection name, so a catalog replica replays each batch
/// into the right collection; catalog DDL (create/drop/reindex) and
/// `Load` are refused while the log is kept — the mutation log cannot
/// carry them. The caller owns log recovery: on restart, recover the
/// log ([`WalWriter::recover`], or [`Engine::recover`] which also
/// re-applies the tail) and hand the recovered writer in — the backend
/// must already reflect every record in the log.
pub fn serve<E: GridEndpoint>(
    serving: impl Into<Serving<E>>,
    addr: impl ToSocketAddrs,
    wal: Option<WalWriter<E>>,
) -> io::Result<ServerHandle<E>> {
    let replication = wal.map(|wal| ReplicationState {
        following: AtomicBool::new(false),
        primary: None,
        last_seq: AtomicU64::new(wal.last_seq()),
        wal: Mutex::new(wal),
    });
    serve_backing(serving.into().0, addr, replication)
}

/// Boots and serves a **replica** of the primary at `primary` (a
/// `host:port` string): fetches a consistent snapshot into
/// `dir/snapshot`, loads it (single-tenant or catalog, detected from
/// the snapshot's manifest files), starts its own write-ahead log at
/// `dir/wal.irs`, then follows the primary's log live on a background
/// thread. Until promoted, client mutations are refused with
/// [`ErrorCode::ReplicationReadOnly`]; queries are served from the
/// replicated state.
pub fn serve_replica<E: GridEndpoint>(
    addr: impl ToSocketAddrs,
    primary: &str,
    dir: impl AsRef<Path>,
) -> Result<ServerHandle<E>, WireError> {
    let dir = dir.as_ref();
    let snap_dir = dir.join("snapshot");
    // A previous bootstrap's partial state must not mix into this one.
    if snap_dir.exists() {
        std::fs::remove_dir_all(&snap_dir)
            .map_err(|e| WireError::from(&PersistError::io(&snap_dir, &e)))?;
    }
    let mut boot = RemoteClient::<E>::connect(primary).map_err(|e| {
        WireError::protocol(
            ErrorCode::Internal,
            format!("connect to primary {primary}: {e}"),
        )
    })?;
    let ack = boot.fetch_snapshot(&snap_dir)?;
    drop(boot);
    // The checkpoint sidecar shipped inside the snapshot is the source
    // of truth for where replay resumes; the ack mirrors it.
    let snap_seq = match wal::read_checkpoint(&snap_dir).map_err(|e| WireError::from(&e))? {
        Some(seq) => seq,
        None => ack.last_seq,
    };
    let backing = if snap_dir.join("catalog.irs").exists() {
        let catalog = Catalog::<E>::load(&snap_dir).map_err(|e| WireError::from(&e))?;
        Backing::Catalog(RwLock::new(catalog))
    } else {
        let engine = Engine::<E>::load(&snap_dir).map_err(|e| WireError::from(&e))?;
        Backing::Single(RwLock::new(engine))
    };
    let wal_writer = WalWriter::<E>::create(dir.join("wal.irs"), snap_seq.saturating_add(1))
        .map_err(|e| WireError::from(&e))?;
    let replication = ReplicationState {
        following: AtomicBool::new(true),
        primary: Some(primary.to_string()),
        last_seq: AtomicU64::new(snap_seq),
        wal: Mutex::new(wal_writer),
    };
    let mut handle = serve_backing(backing, addr, Some(replication)).map_err(|e| {
        WireError::protocol(ErrorCode::Internal, format!("bind replica listener: {e}"))
    })?;
    let follower = {
        let shared = Arc::clone(&handle.shared);
        let primary = primary.to_string();
        std::thread::Builder::new()
            .name("irs-server-follow".to_string())
            .spawn(move || follower_loop(shared, primary))
            .map_err(|e| {
                WireError::protocol(ErrorCode::Internal, format!("spawn follower thread: {e}"))
            })?
    };
    handle.follower = Some(follower);
    Ok(handle)
}

fn serve_backing<E: GridEndpoint>(
    backing: Backing<E>,
    addr: impl ToSocketAddrs,
    replication: Option<ReplicationState<E>>,
) -> io::Result<ServerHandle<E>> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        backing,
        replication,
        draining: AtomicBool::new(false),
        counters: Counters::default(),
        started: Instant::now(),
        addr,
    });
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("irs-server-accept".to_string())
            .spawn(move || accept_loop(listener, shared))?
    };
    Ok(ServerHandle {
        shared,
        accept: Some(accept),
        follower: None,
    })
}

/// Accepts until the drain flag flips, then joins every connection
/// thread so the caller's `join` means "all in-flight work is done".
fn accept_loop<E: GridEndpoint>(listener: TcpListener, shared: Arc<Shared<E>>) {
    let workers: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.draining.load(Ordering::SeqCst) {
                    // The wake-up connection (or a late arrival): close
                    // it unserved and stop accepting.
                    drop(stream);
                    break;
                }
                shared
                    .counters
                    .connections_accepted
                    .fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(&shared);
                let worker = std::thread::Builder::new()
                    .name("irs-server-conn".to_string())
                    .spawn(move || serve_connection(stream, shared));
                match worker {
                    Ok(h) => workers.lock().unwrap_or_else(|e| e.into_inner()).push(h),
                    Err(_) => { /* spawn failed: connection dropped */ }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Listener died (resource exhaustion, socket torn down):
            // drain what we have rather than spin.
            Err(_) => break,
        }
    }
    for h in workers
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .drain(..)
    {
        let _ = h.join();
    }
}

/// What a dispatched request asks the connection loop to do next.
enum Flow {
    /// Keep serving this connection.
    Continue,
    /// The peer asked the whole server to shut down (already acked).
    Drain,
    /// The peer subscribed to the write-ahead log (ack already sent):
    /// push records from `from_seq` until drain or hang-up, then close.
    StreamLog {
        /// First sequence number the subscriber wants.
        from_seq: u64,
    },
    /// Stream the snapshot staged at `dir` as chunk frames plus an `Ok`
    /// terminator (ack already sent), delete the staging directory, and
    /// keep serving.
    SendSnapshot {
        /// The staging directory dispatch saved the snapshot into.
        dir: PathBuf,
    },
}

/// One connection, start to finish. All protocol errors are answered
/// with a typed error response where the stream still has integrity;
/// after a framing error the stream has lost sync, so the error is sent
/// and the connection closed.
fn serve_connection<E: GridEndpoint>(stream: TcpStream, shared: Arc<Shared<E>>) {
    shared
        .counters
        .connections_active
        .fetch_add(1, Ordering::Relaxed);
    serve_connection_inner(stream, &shared);
    shared
        .counters
        .connections_active
        .fetch_sub(1, Ordering::Relaxed);
}

fn serve_connection_inner<E: GridEndpoint>(mut stream: TcpStream, shared: &Shared<E>) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut reader = FrameReader::new();
    loop {
        match reader.read_event(&mut stream) {
            Ok(ReadEvent::Frame(payload)) => {
                shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                let (response, flow) = dispatch(&payload, shared);
                if write_frame(&mut stream, &encode_message(&response)).is_err() {
                    return; // peer gone; nothing left to flush
                }
                match flow {
                    Flow::Continue => {
                        // Drain check: the response above was this
                        // connection's in-flight work; if the server is
                        // draining and nothing else is mid-frame, stop.
                        if shared.draining.load(Ordering::SeqCst) && !reader.mid_frame() {
                            return;
                        }
                    }
                    Flow::Drain => {
                        // Ack already flushed; now flip the flag and
                        // close. In-flight work on other connections
                        // drains under the same rules.
                        shared.begin_drain();
                        return;
                    }
                    Flow::StreamLog { from_seq } => {
                        // The connection becomes a log push stream; it
                        // never returns to request/response.
                        stream_log(&mut stream, &mut reader, shared, from_seq);
                        return;
                    }
                    Flow::SendSnapshot { dir } => {
                        let sent = stream_snapshot(&mut stream, &dir);
                        let _ = std::fs::remove_dir_all(&dir);
                        if !sent {
                            return; // peer gone mid-stream
                        }
                        if shared.draining.load(Ordering::SeqCst) && !reader.mid_frame() {
                            return;
                        }
                    }
                }
            }
            Ok(ReadEvent::Eof) => return,
            Ok(ReadEvent::Timeout { mid_frame }) => {
                // Poll tick. A draining server keeps reading while a
                // request is mid-frame (it will be answered), and
                // closes once the peer owes us nothing.
                if shared.draining.load(Ordering::SeqCst) && !mid_frame {
                    return;
                }
            }
            Err(frame_err) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                // Best-effort typed refusal; the stream has lost sync
                // (or died), so close either way.
                let response = Response::Error(frame_err.to_wire_error());
                let _ = write_frame(&mut stream, &encode_message(&response));
                return;
            }
        }
    }
}

/// Maps a request-decode failure to its wire form: endpoint mismatches
/// keep their typed persist code, unknown tags get
/// [`ErrorCode::UnknownMessage`], everything else is
/// [`ErrorCode::BadMessage`].
fn decode_error_to_wire(e: &PersistError) -> WireError {
    match e {
        PersistError::EndpointMismatch { .. } => WireError::from(e),
        PersistError::Corrupt {
            what: "unknown request tag",
        } => WireError::protocol(ErrorCode::UnknownMessage, e.to_string()),
        other => WireError::protocol(
            ErrorCode::BadMessage,
            format!("undecodable request: {other}"),
        ),
    }
}

// ----------------------------------------------------------------------
// Replication plumbing
// ----------------------------------------------------------------------

/// Runs a mutation batch under the replication contract: refused with a
/// typed code on a following replica; on a primary the batch is
/// appended to the write-ahead log and **fsynced before `apply` runs**
/// (log-before-apply, fsync-before-ack); on an unreplicated server
/// `apply` runs directly. The wal seat is held across append + apply,
/// so the log order is the apply order.
fn with_wal<E: GridEndpoint>(
    shared: &Shared<E>,
    collection: Option<&str>,
    muts: &[Mutation<E>],
    apply: impl FnOnce() -> Response,
) -> Response {
    let Some(rep) = shared.replication.as_ref() else {
        return apply();
    };
    if rep.following.load(Ordering::SeqCst) {
        return Response::Error(WireError::from(&ReplicationError::ReadOnlyReplica));
    }
    let mut wal = rep.wal.lock().unwrap_or_else(|e| e.into_inner());
    match wal.append(collection, muts) {
        Ok(seq) => {
            let response = apply();
            rep.last_seq.store(seq, Ordering::SeqCst);
            response
        }
        Err(e) => Response::Error(WireError::from(&e)),
    }
}

/// The server's replication role and log position; role `"none"` on a
/// server that keeps no log.
fn replication_status<E: GridEndpoint>(shared: &Shared<E>) -> ReplicationStatus {
    match &shared.replication {
        None => ReplicationStatus {
            role: "none".to_string(),
            last_seq: 0,
            log_start_seq: 0,
            primary: None,
        },
        Some(rep) => {
            let following = rep.following.load(Ordering::SeqCst);
            let log_start_seq = rep
                .wal
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .start_seq();
            ReplicationStatus {
                role: if following { "replica" } else { "primary" }.to_string(),
                last_seq: rep.last_seq.load(Ordering::SeqCst),
                log_start_seq,
                primary: if following { rep.primary.clone() } else { None },
            }
        }
    }
}

/// The typed refusal every replication-only request gets on a server
/// that is not currently a primary.
fn not_primary() -> Response {
    Response::Error(WireError::from(&ReplicationError::NotPrimary))
}

/// The typed refusal catalog DDL gets on a log-keeping server — the
/// mutation log carries mutations only, so create/drop/reindex would
/// silently diverge replicas.
fn refuse_ddl<E: GridEndpoint>(shared: &Shared<E>) -> Option<Response> {
    shared.replication.as_ref().map(|_| {
        Response::Error(WireError::from(&ReplicationError::Unsupported {
            reason: "the mutation log cannot carry catalog DDL; shape the \
                     catalog before enabling replication",
        }))
    })
}

/// Saves the whole backing (full catalog under catalog backing) to
/// `dir` — the snapshot-staging half of `FetchSnapshot`.
fn save_backing_to<E: GridEndpoint>(backing: &Backing<E>, dir: &Path) -> Result<(), WireError> {
    match backing {
        Backing::Single(slot) => {
            let engine = slot.read().unwrap_or_else(|e| e.into_inner()).clone();
            engine.save(dir).map_err(|e| WireError::from(&e))
        }
        Backing::Catalog(slot) => {
            let catalog = slot.read().unwrap_or_else(|e| e.into_inner()).clone();
            catalog.save(dir).map_err(|e| WireError::from(&e))
        }
    }
}

/// Monotonic tag so concurrent `FetchSnapshot` requests never share a
/// staging directory.
static SNAPSHOT_STAGE_COUNTER: AtomicU64 = AtomicU64::new(0);

fn snapshot_stage_dir() -> PathBuf {
    let n = SNAPSHOT_STAGE_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("irs-snapshot-stage-{}-{n}", std::process::id()))
}

/// Chunk size for snapshot shipping — comfortably under the frame
/// layer's payload cap with message framing around it.
const SNAPSHOT_CHUNK_BYTES: usize = 1 << 20;

fn collect_snapshot_files(
    root: &Path,
    dir: &Path,
    out: &mut Vec<(String, PathBuf)>,
) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_snapshot_files(root, &path, out)?;
        } else if let Ok(rel) = path.strip_prefix(root) {
            // Forward-slash relative paths: the client validates and
            // re-joins them under its bootstrap directory.
            let rel = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// Streams every file under `dir` as `SnapshotChunk` frames, then the
/// `Ok` terminator. Returns `false` when the peer is gone (the
/// connection should close).
fn stream_snapshot(stream: &mut TcpStream, dir: &Path) -> bool {
    let mut files = Vec::new();
    if let Err(e) = collect_snapshot_files(dir, dir, &mut files) {
        let err = Response::Error(WireError::from(&PersistError::io(dir, &e)));
        return write_frame(stream, &encode_message(&err)).is_ok();
    }
    files.sort();
    for (rel, path) in files {
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                let err = Response::Error(WireError::from(&PersistError::io(&path, &e)));
                return write_frame(stream, &encode_message(&err)).is_ok();
            }
        };
        let total_len = bytes.len() as u64;
        let mut chunks: Vec<&[u8]> = bytes.chunks(SNAPSHOT_CHUNK_BYTES).collect();
        if chunks.is_empty() {
            chunks.push(&[]); // an empty file must still exist on the replica
        }
        let mut offset = 0u64;
        for chunk in chunks {
            let resp = Response::SnapshotChunk(SnapshotChunk {
                path: rel.clone(),
                offset,
                total_len,
                bytes: chunk.to_vec(),
            });
            if write_frame(stream, &encode_message(&resp)).is_err() {
                return false;
            }
            offset = offset.saturating_add(chunk.len() as u64);
        }
    }
    write_frame(stream, &encode_message(&Response::Ok)).is_ok()
}

/// Streams the write-ahead log to a subscribed connection: each
/// complete record becomes one `LogRecord` push frame, in sequence
/// order, as the writer appends them. Ends when the server drains, the
/// log errors, or the peer hangs up — the subscriber never sends again,
/// so any read event other than a timeout ends the stream (and the read
/// timeout doubles as the poll tick).
fn stream_log<E: GridEndpoint>(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    shared: &Shared<E>,
    from_seq: u64,
) {
    let Some(rep) = shared.replication.as_ref() else {
        return; // dispatch never routes here without replication
    };
    let path = {
        let wal = rep.wal.lock().unwrap_or_else(|e| e.into_inner());
        wal.path().to_path_buf()
    };
    let mut tailer = match WalTailer::<E>::open(&path, from_seq) {
        Ok(t) => t,
        Err(e) => {
            let resp = Response::Error(WireError::from(&e));
            let _ = write_frame(stream, &encode_message(&resp));
            return;
        }
    };
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match tailer.poll() {
            Ok(records) => {
                for (seq, payload) in records {
                    let resp = Response::LogRecord(LogRecordFrame { seq, payload });
                    if write_frame(stream, &encode_message(&resp)).is_err() {
                        return;
                    }
                }
            }
            Err(e) => {
                let resp = Response::Error(WireError::from(&e));
                let _ = write_frame(stream, &encode_message(&resp));
                return;
            }
        }
        match reader.read_event(stream) {
            Ok(ReadEvent::Timeout { .. }) => {}
            _ => return,
        }
    }
}

/// The replica's follower thread: subscribe to the primary from the
/// local log's next sequence number, ingest pushed records, reconnect
/// on any stream failure (resubscribing from wherever the local log
/// got to), and exit on drain or promotion.
fn follower_loop<E: GridEndpoint>(shared: Arc<Shared<E>>, primary: String) {
    loop {
        let Some(rep) = shared.replication.as_ref() else {
            return;
        };
        if shared.draining.load(Ordering::SeqCst) || !rep.following.load(Ordering::SeqCst) {
            return;
        }
        let from_seq = rep.wal.lock().unwrap_or_else(|e| e.into_inner()).next_seq();
        let subscribed = RemoteClient::<E>::connect(primary.as_str())
            .ok()
            .and_then(|c| c.subscribe(from_seq).ok());
        let Some(mut stream) = subscribed else {
            // Primary unreachable (dead, or not yet up): retry after a
            // poll tick, still serving reads meanwhile.
            std::thread::sleep(POLL_INTERVAL);
            continue;
        };
        loop {
            if shared.draining.load(Ordering::SeqCst) || !rep.following.load(Ordering::SeqCst) {
                return;
            }
            match stream.poll(POLL_INTERVAL) {
                Ok(Some(frames)) => {
                    let mut resubscribe = false;
                    for frame in frames {
                        if !ingest_frame(&shared, frame) {
                            resubscribe = true;
                            break;
                        }
                    }
                    if resubscribe {
                        break;
                    }
                }
                // EOF (primary drained or died) or a protocol error:
                // drop the stream and reconnect from the local log.
                Ok(None) | Err(_) => break,
            }
        }
    }
}

/// Appends one streamed record to the replica's own log (fsynced) and
/// applies it — the same log-before-apply order the primary used.
/// Returns `false` when the follower should resubscribe (sequence gap,
/// undecodable payload) or stop (promoted mid-stream); records the
/// local log already holds are skipped, never reapplied.
fn ingest_frame<E: GridEndpoint>(shared: &Shared<E>, frame: LogRecordFrame) -> bool {
    let Some(rep) = shared.replication.as_ref() else {
        return false;
    };
    let Ok(record) = wal::decode_record_payload::<E>(&frame.payload) else {
        return false;
    };
    let mut wal_seat = rep.wal.lock().unwrap_or_else(|e| e.into_inner());
    if !rep.following.load(Ordering::SeqCst) {
        return false; // promoted while this batch was in flight
    }
    if record.seq < wal_seat.next_seq() {
        return true; // duplicate after a resubscribe — already ingested
    }
    if record.seq > wal_seat.next_seq()
        || wal_seat
            .append(record.collection.as_deref(), &record.muts)
            .is_err()
    {
        return false;
    }
    shared
        .counters
        .mutations
        .fetch_add(record.muts.len() as u64, Ordering::Relaxed);
    match &shared.backing {
        Backing::Single(slot) => {
            let engine = slot.read().unwrap_or_else(|e| e.into_inner()).clone();
            // Per-mutation failures replay deterministically; the
            // primary already reported them to its caller.
            let _ = engine.apply(&record.muts);
        }
        Backing::Catalog(slot) => {
            let catalog = slot.read().unwrap_or_else(|e| e.into_inner()).clone();
            let name = record.collection.as_deref().unwrap_or(DEFAULT_COLLECTION);
            let _ = catalog.apply_in(name, &record.muts);
        }
    }
    rep.last_seq.store(record.seq, Ordering::SeqCst);
    true
}

/// One collection's wire summary.
fn collection_summary(info: &CollectionInfo) -> CollectionSummary {
    CollectionSummary {
        name: info.name.clone(),
        kind: info.kind.name().to_string(),
        shards: info.shards,
        len: info.len,
        weighted: info.weighted,
        heap_bytes: info.heap_bytes,
        auto: info.auto.is_some(),
    }
}

/// Executes a run batch against a named collection and lifts each
/// per-query failure to wire form; a whole-batch failure (unknown
/// collection) becomes the response error.
fn run_in_catalog<E: GridEndpoint>(
    catalog: &Catalog<E>,
    collection: &str,
    seed: Option<u64>,
    queries: &[irs_engine::Query<E>],
) -> Response {
    let results = match seed {
        Some(seed) => catalog.run_seeded_in(collection, queries, seed),
        None => catalog.run_in(collection, queries),
    };
    match results {
        Ok(results) => Response::Run(
            results
                .into_iter()
                .map(|r| r.map_err(|e| WireError::from(&e)))
                .collect(),
        ),
        Err(e) => Response::Error(WireError::from(&e)),
    }
}

/// Executes a mutation batch against a named collection; whole-batch
/// refusals (unknown collection, budget exhaustion) become the response
/// error, per-mutation failures travel inside the `Apply` vector.
fn apply_in_catalog<E: GridEndpoint>(
    catalog: &Catalog<E>,
    collection: &str,
    muts: &[irs_core::Mutation<E>],
) -> Response {
    match catalog.apply_in(collection, muts) {
        Ok(results) => Response::Apply(
            results
                .into_iter()
                .map(|r| r.map_err(|e| WireError::from(&e)))
                .collect(),
        ),
        Err(e) => Response::Error(WireError::from(&e)),
    }
}

/// Decodes and executes one request. Batch entries fail individually
/// inside `Run`/`Apply` responses; whole-request failures (snapshot
/// errors, catalog refusals, protocol errors) come back as
/// `Response::Error`.
fn dispatch<E: GridEndpoint>(payload: &[u8], shared: &Shared<E>) -> (Response, Flow) {
    let request: Request<E> = match decode_message(payload) {
        Ok(req) => req,
        Err(e) => {
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            return (Response::Error(decode_error_to_wire(&e)), Flow::Continue);
        }
    };
    match request {
        Request::Health => (Response::Ok, Flow::Continue),
        Request::Stats => (Response::Stats(shared.stats()), Flow::Continue),
        Request::Run { seed, queries } => {
            shared
                .counters
                .queries
                .fetch_add(queries.len() as u64, Ordering::Relaxed);
            let response = match &shared.backing {
                Backing::Single(slot) => {
                    let engine = slot.read().unwrap_or_else(|e| e.into_inner()).clone();
                    let results = match seed {
                        Some(seed) => engine.run_seeded(&queries, seed),
                        None => engine.run(&queries),
                    };
                    Response::Run(
                        results
                            .iter()
                            .map(|r| r.as_ref().map_err(WireError::from).cloned())
                            .collect(),
                    )
                }
                // Back-compat: an untagged batch addresses "default".
                Backing::Catalog(slot) => {
                    let catalog = slot.read().unwrap_or_else(|e| e.into_inner()).clone();
                    run_in_catalog(&catalog, DEFAULT_COLLECTION, seed, &queries)
                }
            };
            (response, Flow::Continue)
        }
        Request::Apply { muts } => {
            shared
                .counters
                .mutations
                .fetch_add(muts.len() as u64, Ordering::Relaxed);
            let response = match &shared.backing {
                Backing::Single(slot) => with_wal(shared, None, &muts, || {
                    let engine = slot.read().unwrap_or_else(|e| e.into_inner()).clone();
                    Response::Apply(
                        engine
                            .apply(&muts)
                            .iter()
                            .map(|r| r.as_ref().map_err(WireError::from).cloned())
                            .collect(),
                    )
                }),
                // The untagged batch routes to "default" — logged under
                // that name so a catalog replica replays it there too.
                Backing::Catalog(slot) => with_wal(shared, Some(DEFAULT_COLLECTION), &muts, || {
                    let catalog = slot.read().unwrap_or_else(|e| e.into_inner()).clone();
                    apply_in_catalog(&catalog, DEFAULT_COLLECTION, &muts)
                }),
            };
            (response, Flow::Continue)
        }
        Request::Save { dir } => {
            // On a log-keeping server the wal seat is held across save
            // + checkpoint, so the snapshot and its sidecar name the
            // same log position (mutations wait; reads do not).
            let wal_guard = shared
                .replication
                .as_ref()
                .map(|rep| rep.wal.lock().unwrap_or_else(|e| e.into_inner()));
            let result = match &shared.backing {
                Backing::Single(slot) => {
                    // Clone the handle, then release the read lock —
                    // a long snapshot save must not block `Load`'s
                    // write-locked swap.
                    let engine = slot.read().unwrap_or_else(|e| e.into_inner()).clone();
                    engine.save(&dir).map_err(|e| WireError::from(&e))
                }
                // Back-compat: save the default collection in the
                // single-tenant snapshot layout.
                Backing::Catalog(slot) => {
                    let catalog = slot.read().unwrap_or_else(|e| e.into_inner()).clone();
                    catalog
                        .save_collection_snapshot(DEFAULT_COLLECTION, &dir)
                        .map_err(|e| WireError::from(&e))
                }
            };
            let result = result.and_then(|()| match &shared.replication {
                Some(rep) => {
                    wal::write_checkpoint(Path::new(&dir), rep.last_seq.load(Ordering::SeqCst))
                        .map_err(|e| WireError::from(&e))
                }
                None => Ok(()),
            });
            drop(wal_guard);
            match result {
                Ok(()) => (Response::Ok, Flow::Continue),
                Err(e) => (Response::Error(e), Flow::Continue),
            }
        }
        Request::InspectSnapshot { dir } => match irs_engine::persist::inspect_snapshot(&dir) {
            Ok(info) => (
                Response::Snapshot(SnapshotSummary {
                    format_version: info.format_version,
                    kind: info.manifest.kind,
                    endpoint: info.manifest.endpoint,
                    weighted: info.manifest.weighted,
                    shards: info.manifest.shards,
                    seed: info.manifest.seed,
                    len: info.manifest.len,
                }),
                Flow::Continue,
            ),
            Err(e) => (Response::Error(WireError::from(&e)), Flow::Continue),
        },
        Request::Load { dir } => {
            if shared.replication.is_some() {
                return (
                    Response::Error(WireError::from(&ReplicationError::Unsupported {
                        reason: "swapping the serving backend underneath a write-ahead \
                                 log would desynchronize it; restart the server on the \
                                 target snapshot instead",
                    })),
                    Flow::Continue,
                );
            }
            match &shared.backing {
                Backing::Single(slot) => match Engine::<E>::load(&dir) {
                    Ok(fresh) => {
                        *slot.write().unwrap_or_else(|e| e.into_inner()) = fresh;
                        (Response::Ok, Flow::Continue)
                    }
                    Err(e) => (Response::Error(WireError::from(&e)), Flow::Continue),
                },
                Backing::Catalog(_) => (
                    Response::Error(WireError::from(&CatalogError::InvalidSpec {
                        reason: "this server fronts a catalog; single-collection Load \
                                 would discard the other tenants — use LoadCatalog"
                            .to_string(),
                    })),
                    Flow::Continue,
                ),
            }
        }
        Request::Shutdown => (Response::Ok, Flow::Drain),
        Request::CreateCollection { spec } => {
            if let Some(refusal) = refuse_ddl(shared) {
                return (refusal, Flow::Continue);
            }
            let catalog = match shared.catalog() {
                Ok(c) => c,
                Err(e) => return (Response::Error(e), Flow::Continue),
            };
            let kind = match &spec.kind {
                None => KindSpec::Auto(WorkloadHints {
                    update_rate: spec.update_rate,
                    weighted: spec.weighted,
                    expected_extent: spec.expected_extent,
                }),
                Some(name) => match IndexKind::parse(name) {
                    Some(k) => KindSpec::Fixed(k),
                    None => {
                        return (
                            Response::Error(WireError::from(&CatalogError::InvalidSpec {
                                reason: format!("unknown index kind {name:?}"),
                            })),
                            Flow::Continue,
                        )
                    }
                },
            };
            let mut cspec = CollectionSpec::<E>::new(spec.name)
                .kind(kind)
                .shards(spec.shards)
                .seed(spec.seed);
            if spec.weighted {
                cspec = cspec.weights(Vec::new());
            }
            match catalog.create(cspec) {
                Ok(info) => (
                    Response::Collections(vec![collection_summary(&info)]),
                    Flow::Continue,
                ),
                Err(e) => (Response::Error(WireError::from(&e)), Flow::Continue),
            }
        }
        Request::DropCollection { name } => {
            if let Some(refusal) = refuse_ddl(shared) {
                return (refusal, Flow::Continue);
            }
            let catalog = match shared.catalog() {
                Ok(c) => c,
                Err(e) => return (Response::Error(e), Flow::Continue),
            };
            match catalog.drop_collection(&name) {
                Ok(()) => (Response::Ok, Flow::Continue),
                Err(e) => (Response::Error(WireError::from(&e)), Flow::Continue),
            }
        }
        Request::ListCollections => match shared.catalog() {
            Ok(catalog) => (
                Response::Collections(catalog.list().iter().map(collection_summary).collect()),
                Flow::Continue,
            ),
            Err(e) => (Response::Error(e), Flow::Continue),
        },
        Request::RunIn {
            collection,
            seed,
            queries,
        } => {
            shared
                .counters
                .queries
                .fetch_add(queries.len() as u64, Ordering::Relaxed);
            match shared.catalog() {
                Ok(catalog) => (
                    run_in_catalog(&catalog, &collection, seed, &queries),
                    Flow::Continue,
                ),
                Err(e) => (Response::Error(e), Flow::Continue),
            }
        }
        Request::ApplyIn { collection, muts } => {
            shared
                .counters
                .mutations
                .fetch_add(muts.len() as u64, Ordering::Relaxed);
            match shared.catalog() {
                Ok(catalog) => (
                    with_wal(shared, Some(&collection), &muts, || {
                        apply_in_catalog(&catalog, &collection, &muts)
                    }),
                    Flow::Continue,
                ),
                Err(e) => (Response::Error(e), Flow::Continue),
            }
        }
        Request::SaveCatalog { dir } => match shared.catalog() {
            Ok(catalog) => match catalog.save(&dir) {
                Ok(()) => (Response::Ok, Flow::Continue),
                Err(e) => (Response::Error(WireError::from(&e)), Flow::Continue),
            },
            Err(e) => (Response::Error(e), Flow::Continue),
        },
        Request::LoadCatalog { dir } => {
            if shared.replication.is_some() {
                return (
                    Response::Error(WireError::from(&ReplicationError::Unsupported {
                        reason: "swapping the serving catalog underneath a write-ahead \
                                 log would desynchronize it; restart the server on the \
                                 target snapshot instead",
                    })),
                    Flow::Continue,
                );
            }
            match &shared.backing {
                Backing::Catalog(slot) => match Catalog::<E>::load(&dir) {
                    Ok(fresh) => {
                        *slot.write().unwrap_or_else(|e| e.into_inner()) = fresh;
                        (Response::Ok, Flow::Continue)
                    }
                    Err(e) => (Response::Error(WireError::from(&e)), Flow::Continue),
                },
                Backing::Single(_) => (
                    Response::Error(WireError::from(&CatalogError::NotServingCatalog)),
                    Flow::Continue,
                ),
            }
        }
        Request::Reindex { collection, kind } => {
            if let Some(refusal) = refuse_ddl(shared) {
                return (refusal, Flow::Continue);
            }
            let catalog = match shared.catalog() {
                Ok(c) => c,
                Err(e) => return (Response::Error(e), Flow::Continue),
            };
            let kind = match IndexKind::parse(&kind) {
                Some(k) => k,
                None => {
                    return (
                        Response::Error(WireError::from(&CatalogError::InvalidSpec {
                            reason: format!("unknown index kind {kind:?}"),
                        })),
                        Flow::Continue,
                    )
                }
            };
            match catalog.reindex(&collection, kind, None) {
                Ok(info) => (
                    Response::Collections(vec![collection_summary(&info)]),
                    Flow::Continue,
                ),
                Err(e) => (Response::Error(WireError::from(&e)), Flow::Continue),
            }
        }
        Request::ReplicationStatus => (
            Response::Replication(replication_status(shared)),
            Flow::Continue,
        ),
        Request::Promote => match &shared.replication {
            // `swap` hands out the writer seat exactly once: a second
            // promote (or one aimed at a primary) is a typed refusal.
            Some(rep) if rep.following.swap(false, Ordering::SeqCst) => (
                Response::Replication(replication_status(shared)),
                Flow::Continue,
            ),
            _ => (
                Response::Error(WireError::from(&ReplicationError::NotReplica)),
                Flow::Continue,
            ),
        },
        Request::Subscribe { from_seq } => match &shared.replication {
            Some(rep) if !rep.following.load(Ordering::SeqCst) => {
                let start_seq = rep
                    .wal
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .start_seq();
                if from_seq < start_seq {
                    return (
                        Response::Error(WireError::from(&ReplicationError::StaleSubscribe {
                            requested: from_seq,
                            start: start_seq,
                        })),
                        Flow::Continue,
                    );
                }
                (
                    Response::Replication(replication_status(shared)),
                    Flow::StreamLog { from_seq },
                )
            }
            _ => (not_primary(), Flow::Continue),
        },
        Request::FetchSnapshot => match &shared.replication {
            Some(rep) if !rep.following.load(Ordering::SeqCst) => {
                let stage = snapshot_stage_dir();
                // Under the wal seat: the staged snapshot and its
                // checkpoint name the same log position.
                let wal_seat = rep.wal.lock().unwrap_or_else(|e| e.into_inner());
                let seq = rep.last_seq.load(Ordering::SeqCst);
                let staged = save_backing_to(&shared.backing, &stage).and_then(|()| {
                    wal::write_checkpoint(&stage, seq).map_err(|e| WireError::from(&e))
                });
                drop(wal_seat);
                match staged {
                    Ok(()) => {
                        let mut status = replication_status(shared);
                        // The position the snapshot captures, which may
                        // trail the live log by now.
                        status.last_seq = seq;
                        (
                            Response::Replication(status),
                            Flow::SendSnapshot { dir: stage },
                        )
                    }
                    Err(e) => {
                        let _ = std::fs::remove_dir_all(&stage);
                        (Response::Error(e), Flow::Continue)
                    }
                }
            }
            _ => (not_primary(), Flow::Continue),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_core::Interval;
    use irs_engine::Irs;
    use irs_wire::RemoteClient;

    fn demo_engine() -> Engine<i64> {
        let data: Vec<Interval<i64>> = (0..200)
            .map(|i| Interval::new(i, i + (i % 17) + 1))
            .collect();
        Irs::builder()
            .kind(IndexKind::Ait)
            .seed(7)
            .build(&data)
            .expect("build")
    }

    #[test]
    fn serve_query_mutate_shutdown_roundtrip() {
        let handle = serve(demo_engine(), ("127.0.0.1", 0), None).expect("serve");
        let addr = handle.local_addr();

        let mut remote = RemoteClient::<i64>::connect(addr).expect("connect");
        remote.health().expect("health");

        let n = remote.count(Interval::new(0, 1000)).expect("count");
        assert_eq!(n, 200);

        let id = remote.insert(Interval::new(-5, -1)).expect("insert");
        assert_eq!(remote.count(Interval::new(-5, -1)).expect("count"), 1);
        remote.remove(id).expect("remove");
        assert_eq!(remote.count(Interval::new(-5, -1)).expect("count"), 0);

        let stats = remote.stats().expect("stats");
        assert_eq!(stats.kind, "ait");
        assert_eq!(stats.endpoint, "i64");
        assert_eq!(stats.len, 200);
        assert!(stats.requests >= 5);
        assert!(!stats.draining);

        remote.shutdown().expect("shutdown acked");
        handle.join();
    }

    #[test]
    fn seeded_runs_match_the_in_process_engine_exactly() {
        let local = demo_engine();
        let handle = serve(local.clone(), ("127.0.0.1", 0), None).expect("serve");
        let mut remote = RemoteClient::<i64>::connect(handle.local_addr()).expect("connect");

        let queries: Vec<irs_engine::Query<i64>> = (0..10)
            .map(|i| irs_engine::Query::Sample {
                q: Interval::new(i * 3, i * 3 + 40),
                s: 8,
            })
            .collect();
        let over_wire = remote.run_seeded(&queries, 99).expect("run_seeded");
        let in_process = local.run_seeded(&queries, 99);
        assert_eq!(over_wire.len(), in_process.len());
        for (w, l) in over_wire.iter().zip(&in_process) {
            assert_eq!(w.as_ref().ok(), l.as_ref().ok());
        }

        handle.shutdown();
        handle.join();
    }

    #[test]
    fn wrong_endpoint_is_refused_with_a_typed_code() {
        let handle = serve(demo_engine(), ("127.0.0.1", 0), None).expect("serve");
        // A u32 client aimed at an i64 server.
        let mut remote = RemoteClient::<u32>::connect(handle.local_addr()).expect("connect");
        let err = remote
            .count(Interval::new(1u32, 5u32))
            .expect_err("must refuse");
        assert_eq!(err.code, ErrorCode::PersistEndpointMismatch);

        handle.shutdown();
        handle.join();
    }

    #[test]
    fn catalog_requests_are_refused_on_single_servers() {
        let handle = serve(demo_engine(), ("127.0.0.1", 0), None).expect("serve");
        let mut remote = RemoteClient::<i64>::connect(handle.local_addr()).expect("connect");
        let err = remote.list_collections().expect_err("must refuse");
        assert_eq!(err.code, ErrorCode::CatalogNotServing);
        let err = remote
            .load_catalog("/nonexistent")
            .expect_err("must refuse");
        assert_eq!(err.code, ErrorCode::CatalogNotServing);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn catalog_server_routes_plain_frames_to_default() {
        let catalog: Catalog<i64> = Catalog::new();
        let handle = serve(catalog, ("127.0.0.1", 0), None).expect("serve");
        let mut remote = RemoteClient::<i64>::connect(handle.local_addr()).expect("connect");

        // No "default" collection yet: plain frames get the typed 6xx.
        let results = remote.run(&[irs_engine::Query::Count {
            q: Interval::new(0, 10),
        }]);
        assert_eq!(
            results.expect_err("must refuse").code,
            ErrorCode::CatalogUnknownCollection
        );

        let summary = remote
            .create_collection(irs_wire::WireCollectionSpec {
                name: "default".into(),
                kind: Some("ait".into()),
                update_rate: 0.0,
                expected_extent: 0.0,
                weighted: false,
                shards: 1,
                seed: 7,
            })
            .expect("create");
        assert_eq!(summary.kind, "ait");
        assert_eq!(summary.len, 0);

        // Plain (untagged) mutation and query now address "default".
        let id = remote.insert(Interval::new(1, 5)).expect("insert");
        assert_eq!(remote.count(Interval::new(0, 10)).expect("count"), 1);
        remote.remove(id).expect("remove");

        let names: Vec<String> = remote
            .list_collections()
            .expect("ls")
            .into_iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(names, ["default"]);

        remote.shutdown().expect("shutdown");
        handle.join();
    }

    #[test]
    fn programmatic_shutdown_drains_idle_connections() {
        let handle = serve(demo_engine(), ("127.0.0.1", 0), None).expect("serve");
        // An idle connection that never sends a byte must not wedge the
        // drain: the poll tick notices the flag.
        let _idle = TcpStream::connect(handle.local_addr()).expect("connect");
        handle.shutdown();
        handle.join();
    }
}
