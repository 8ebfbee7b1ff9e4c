//! # irs-client — the unified fallible query facade
//!
//! One entry point over every IRS structure in the workspace: build a
//! [`Client`] with [`Irs::builder`], and one typed, panic-free API
//! serves it through an [`irs_engine::Engine`] of `shards(k)` shards
//! (one by default). There is one path from a `Client` to an index at
//! every shard count; `shards` is a construction knob, not an API fork.
//!
//! ```
//! use irs_client::Irs;
//! use irs_engine::IndexKind;
//! use irs_core::Interval;
//!
//! let data: Vec<_> = (0..10_000i64).map(|i| Interval::new(i, i + 50)).collect();
//! let client = Irs::builder()
//!     .kind(IndexKind::Ait)
//!     .shards(4)
//!     .seed(7)
//!     .build(&data)?;
//!
//! let q = Interval::new(100, 200);
//! assert_eq!(client.count(q)?, 151);
//! assert_eq!(client.sample(q, 8)?.len(), 8);
//!
//! // Capability discovery instead of probe-and-catch:
//! assert!(!client.capabilities().weighted_sample); // no weights supplied
//!
//! // Share it: a clone is a cheap handle to the same backend, and
//! // queries from many threads run concurrently.
//! let handle = client.clone();
//! std::thread::spawn(move || handle.count(q)).join().unwrap()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The facade's contract, shared with the engine and pinned by the
//! workspace's capability property tests:
//!
//! - **Everything is fallible and typed.** Construction returns
//!   [`BuildError`] (weights validated up front, the offending index
//!   named); queries return [`QueryError`]. Nothing on the query path
//!   panics.
//! - **An empty result set is not an error**: sampling an empty
//!   `q ∩ X` yields `Ok` with an empty vector, counting it `Ok(0)`.
//! - **Capabilities are queryable metadata** ([`Client::capabilities`]):
//!   an operation claimed there succeeds; one denied there fails with
//!   [`QueryError::UnsupportedOperation`] / [`QueryError::NotWeighted`].
//! - **The backend is distribution-transparent**: sampling through a
//!   `Client` follows exactly the distribution of the underlying
//!   structure at every shard count (the engine's multinomial
//!   allocation argument; chi-square suites pin one shard and many).
//! - **The handle is shared-by-clone.** `Client` is `Clone + Send +
//!   Sync`; clones address the same index. Query methods take `&self`
//!   and run concurrently from any number of threads (the engine's
//!   shared-read-lock path).
//! - **Mutation is first-class, and writer-gated.** On update-capable
//!   kinds ([`IndexKind::Ait`], [`IndexKind::AwitDynamic`]) the client
//!   ingests while it serves — [`Client::insert`],
//!   [`Client::insert_weighted`], [`Client::remove`],
//!   [`Client::extend_batch`] (pooled batch insertion), and
//!   [`Client::apply`] for mixed batches, all `&mut self` on the
//!   handle. Clones that share a backend coordinate explicitly through
//!   [`Client::writer`], which hands out the one writer seat
//!   ([`ClientWriter`]) — mutations from different clones serialize
//!   there, and a query never observes a torn *shard*: each shard's
//!   slice of a mutation batch applies atomically under that shard's
//!   write lock (with one shard the whole batch is one such slice;
//!   with more, a concurrent query may see a batch land shard by
//!   shard). Failures are the typed [`irs_core::UpdateError`]
//!   taxonomy, and inserted ids are stable: the id an insert returns
//!   is the id queries report and the id a later [`Client::remove`]
//!   takes, at every shard count.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod stream;

pub use stream::SampleStream;

use irs_core::persist::PersistError;
use irs_core::wal::{self, ReplicationError, WalReplay, WalWriter};
use irs_core::{
    BuildError, Capabilities, GridEndpoint, Interval, ItemId, Mutation, Operation, QueryError,
    UpdateError, UpdateOutput,
};
use irs_engine::{Engine, EngineConfig, IndexKind, Query, QueryOutput};
use std::sync::{Arc, Mutex, MutexGuard};

/// Namespace for the facade's entry point: [`Irs::builder`].
pub struct Irs;

impl Irs {
    /// Starts configuring a [`Client`]; finish with
    /// [`IrsBuilder::build`].
    pub fn builder() -> IrsBuilder {
        IrsBuilder {
            kind: IndexKind::Ait,
            shards: 1,
            seed: 0x1D5_EA5E,
            weights: None,
        }
    }
}

/// Configures and builds a [`Client`].
///
/// Defaults: [`IndexKind::Ait`], one shard, no weights, a fixed seed.
#[derive(Clone, Debug)]
pub struct IrsBuilder {
    kind: IndexKind,
    shards: usize,
    seed: u64,
    weights: Option<Vec<f64>>,
}

impl IrsBuilder {
    /// Selects the index structure (see [`IndexKind`]).
    pub fn kind(mut self, kind: IndexKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the [`Engine`]'s shard count (default 1, clamped to ≥ 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Seeds every draw stream the client derives; a fixed seed and
    /// config replay identically.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Supplies per-interval weights (`weights[i]` belongs to
    /// `data[i]`), enabling [`Operation::WeightedSample`] on kinds that
    /// support it. Validated in [`IrsBuilder::build`].
    pub fn weights(mut self, weights: impl Into<Vec<f64>>) -> Self {
        self.weights = Some(weights.into());
        self
    }

    /// Builds the client over `data`.
    ///
    /// Weights (when supplied) are validated before any index is
    /// built: a length mismatch or a non-positive / non-finite weight
    /// is a [`BuildError`] naming the offending index — bad weights
    /// never reach alias tables or cumulative arrays.
    pub fn build<E: GridEndpoint>(self, data: &[Interval<E>]) -> Result<Client<E>, BuildError> {
        let config = EngineConfig::new(self.kind)
            .shards(self.shards)
            .seed(self.seed);
        let engine = match &self.weights {
            Some(w) => Engine::try_new_weighted(data, w, config)?,
            None => Engine::try_new(data, config)?,
        };
        Ok(Client::over(engine))
    }
}

/// A point-in-time description of a [`Client`]'s backend, for health
/// and stats surfaces (notably `irs-server`'s `stats` endpoint).
///
/// Taken with [`Client::stats`]. The snapshot is internally consistent
/// per field (each counter is read atomically) but not across fields —
/// a concurrent mutation may land between the `len` read and the
/// `shard_lens` read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientStats {
    /// The configured index kind.
    pub kind: IndexKind,
    /// [`irs_core::Codec::type_name`] of the endpoint scalar.
    pub endpoint: &'static str,
    /// Number of shards behind the facade.
    pub shards: usize,
    /// Live intervals indexed.
    pub len: usize,
    /// Live intervals per shard.
    pub shard_lens: Vec<usize>,
    /// Whether per-interval weights were supplied at build time.
    pub weighted: bool,
}

/// The state every clone of a [`Client`] shares.
struct ClientShared<E> {
    /// The one path to the index (itself a shared, clonable service).
    engine: Engine<E>,
    /// The single writer seat: mutations from every clone serialize
    /// here (see [`Client::writer`]).
    writer: Mutex<()>,
}

/// A handle serving one-shot queries, batches, sample streams, and —
/// on update-capable kinds — live mutations. Build one with
/// [`Irs::builder`].
///
/// The handle is cheap to clone (`Arc` under the hood) and
/// `Send + Sync`: clones address the same index, and query methods
/// (`&self`) run concurrently from any number of threads. Mutation
/// methods take `&mut self` on the handle as single-owner convenience;
/// across clones they all funnel through the shared writer seat
/// ([`Client::writer`]), so two clones can never interleave mutation
/// batches, and a query never observes a torn shard — each shard's
/// slice of a mutation batch applies atomically under the shard's
/// write lock (with several shards a concurrent query may observe the
/// sub-batches land shard by shard).
pub struct Client<E> {
    shared: Arc<ClientShared<E>>,
}

// Manual impl: a clone is a new handle to the same backend, and must
// not require `E: Clone` (derive would add that bound).
impl<E> Clone for Client<E> {
    fn clone(&self) -> Self {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<E: GridEndpoint> Client<E> {
    /// A client over an already-running engine.
    fn over(engine: Engine<E>) -> Self {
        Client {
            shared: Arc::new(ClientShared {
                engine,
                writer: Mutex::new(()),
            }),
        }
    }

    /// The engine every method below delegates to.
    pub(crate) fn engine(&self) -> &Engine<E> {
        &self.shared.engine
    }

    /// The configured index kind.
    pub fn kind(&self) -> IndexKind {
        self.engine().kind()
    }

    /// What this client supports, as queryable metadata. Operations
    /// denied here fail with a typed [`QueryError`]; operations claimed
    /// here succeed.
    pub fn capabilities(&self) -> Capabilities {
        self.engine().capabilities()
    }

    /// Number of shards behind the facade.
    pub fn shard_count(&self) -> usize {
        self.engine().shard_count()
    }

    /// Live intervals indexed (build-time data plus inserts minus
    /// removes).
    pub fn len(&self) -> usize {
        self.engine().len()
    }

    /// Whether the client holds zero intervals.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether per-interval weights were supplied at build time.
    pub fn is_weighted(&self) -> bool {
        self.engine().is_weighted()
    }

    /// Estimated bytes of heap memory the backend's indexes retain
    /// (the engine's per-shard sum, each shard under a brief read
    /// lock). The figure the catalog's memory budget accounts per
    /// collection.
    pub fn heap_bytes(&self) -> usize {
        self.engine().heap_bytes()
    }

    /// A point-in-time description of the backend — kind, endpoint
    /// type, shard layout, live lengths — for health/stats surfaces.
    /// Never blocks behind a mutation: every field is a lock-free read.
    pub fn stats(&self) -> ClientStats {
        let engine = self.engine();
        ClientStats {
            kind: engine.kind(),
            endpoint: E::type_name(),
            shards: engine.shard_count(),
            len: engine.len(),
            shard_lens: engine.shard_lens(),
            weighted: engine.is_weighted(),
        }
    }

    /// Executes a batch: one `Result` per [`Query`], in order. An empty
    /// result set is `Ok` (empty samples / zero count), never an error.
    /// An empty *batch* returns immediately without touching any lock.
    ///
    /// Each call advances the client's draw stream, so samples are
    /// independent across calls; use [`Client::run_seeded`] to pin the
    /// stream. Safe to call concurrently from any number of clones.
    pub fn run(&self, queries: &[Query<E>]) -> Vec<Result<QueryOutput, QueryError>> {
        self.engine().run(queries)
    }

    /// [`Client::run`] with an explicit seed: identical seed, batch,
    /// and client config reproduce identical results — regardless of
    /// what other threads are doing to the same backend's *query* side
    /// (concurrent mutations, of course, change the data being
    /// sampled). The draw streams are the engine's, at every shard
    /// count (see `DESIGN.md`, "Determinism").
    pub fn run_seeded(
        &self,
        queries: &[Query<E>],
        seed: u64,
    ) -> Vec<Result<QueryOutput, QueryError>> {
        self.engine().run_seeded(queries, seed)
    }

    /// Convenience: exact `|q ∩ X|`.
    pub fn count(&self, q: Interval<E>) -> Result<usize, QueryError> {
        self.engine().count(q)
    }

    /// Convenience: ids of all intervals overlapping `q`.
    pub fn search(&self, q: Interval<E>) -> Result<Vec<ItemId>, QueryError> {
        self.engine().search(q)
    }

    /// Convenience: ids of all intervals containing `p`.
    pub fn stab(&self, p: E) -> Result<Vec<ItemId>, QueryError> {
        self.engine().stab(p)
    }

    /// Convenience: `s` uniform samples from `q ∩ X` (empty if the
    /// result set is empty — that is not an error).
    pub fn sample(&self, q: Interval<E>, s: usize) -> Result<Vec<ItemId>, QueryError> {
        self.engine().sample(q, s)
    }

    /// Convenience: `s` weight-proportional samples from `q ∩ X`.
    pub fn sample_weighted(&self, q: Interval<E>, s: usize) -> Result<Vec<ItemId>, QueryError> {
        self.engine().sample_weighted(q, s)
    }

    /// Claims the backend's single writer seat, blocking until any
    /// other clone's mutation (or writer guard) finishes.
    ///
    /// This is how clones that share a backend mutate it: queries stay
    /// `&self` and concurrent, while every mutation — whether issued
    /// through the guard or through the `&mut self` convenience
    /// methods — holds this seat for the duration of its batch.
    ///
    /// ```
    /// # use irs_client::Irs;
    /// # use irs_engine::IndexKind;
    /// # use irs_core::Interval;
    /// let data: Vec<_> = (0..100i64).map(|i| Interval::new(i, i + 5)).collect();
    /// let client = Irs::builder().kind(IndexKind::Ait).build(&data)?;
    /// let shared = client.clone(); // e.g. handed to another thread
    /// let id = shared.writer().insert(Interval::new(7, 9))?;
    /// assert!(client.search(Interval::new(7, 9))?.contains(&id));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn writer(&self) -> ClientWriter<'_, E> {
        ClientWriter {
            engine: self.engine(),
            _seat: self.shared.writer.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Applies a batch of typed [`Mutation`]s: one `Result` per
    /// mutation, in order. Equivalent to [`ClientWriter::apply`] on a
    /// freshly claimed writer seat.
    ///
    /// Capability-gated up front: on a kind whose
    /// [`Client::capabilities`] report `update == false`, every
    /// mutation fails with the typed [`UpdateError::UnsupportedKind`]
    /// and nothing is touched. Inserts route to the least-loaded shard
    /// and removes to the shard that owns the id; ids stay stable
    /// either way (see [`Client::insert`]).
    pub fn apply(&mut self, muts: &[Mutation<E>]) -> Vec<Result<UpdateOutput, UpdateError>> {
        self.writer().apply(muts)
    }

    /// Inserts one interval immediately (the paper's §III-D one-by-one
    /// insertion), returning its stable id.
    ///
    /// The interval is sampleable and searchable as soon as this
    /// returns, and the id remains valid — referring to this interval
    /// in query results and [`Client::remove`] — until removed, at
    /// every shard count. On a weighted update-capable backend the
    /// interval joins with weight `1.0`.
    pub fn insert(&mut self, iv: Interval<E>) -> Result<ItemId, UpdateError> {
        self.writer().insert(iv)
    }

    /// Inserts one *weighted* interval (Problem 2), returning its
    /// stable id. The weight passes the same validation gate as
    /// construction-time weights; requires an update-capable kind built
    /// with weights ([`IndexKind::AwitDynamic`] + `.weights(w)`).
    pub fn insert_weighted(&mut self, iv: Interval<E>, weight: f64) -> Result<ItemId, UpdateError> {
        self.writer().insert_weighted(iv, weight)
    }

    /// Removes the live interval behind `id`. After `Ok`, the id never
    /// appears in any query result again and is never reissued;
    /// removing an id that is not live (never issued, or already
    /// removed) is [`UpdateError::UnknownId`].
    pub fn remove(&mut self, id: ItemId) -> Result<(), UpdateError> {
        self.writer().remove(id)
    }

    /// Inserts a batch of intervals through the structure's insertion
    /// pool (the paper's §III-D batch insertion): every interval is
    /// immediately visible to queries, while tree maintenance is
    /// amortized across pool flushes — the high-throughput ingest path
    /// Table VII measures against one-by-one insertion. Returns the new
    /// stable ids in input order.
    ///
    /// All-or-nothing: if any insert fails, the inserts that did land
    /// are rolled back (best effort) and the first error is returned,
    /// so an `Err` never strands intervals the caller has no ids for.
    pub fn extend_batch(&mut self, ivs: &[Interval<E>]) -> Result<Vec<ItemId>, UpdateError> {
        self.writer().extend_batch(ivs)
    }

    /// A chunked, prepare-amortizing uniform sample stream over `q ∩ X`.
    ///
    /// Draws are fetched from the backend in chunks of
    /// [`SampleStream::with_chunk`] size; each refill takes the
    /// backend's read side briefly (so concurrent writers interleave
    /// *between* refills, and a refill samples the then-current data).
    /// Use [`SampleStream::draw_into`] to reuse one output buffer
    /// across refills. See [`SampleStream`] for the termination and
    /// error contract.
    pub fn sample_stream(&self, q: Interval<E>) -> Result<SampleStream<'_, E>, QueryError> {
        self.stream(q, Operation::UniformSample)
    }

    /// A chunked, prepare-amortizing *weighted* sample stream over `q ∩ X`.
    pub fn weighted_sample_stream(
        &self,
        q: Interval<E>,
    ) -> Result<SampleStream<'_, E>, QueryError> {
        self.stream(q, Operation::WeightedSample)
    }

    fn stream(&self, q: Interval<E>, op: Operation) -> Result<SampleStream<'_, E>, QueryError> {
        if !self.capabilities().supports(op) {
            return Err(self.kind().unsupported_error(self.is_weighted(), op));
        }
        Ok(stream::new_stream(self, q, op))
    }

    /// Saves the client's prepared backend to `dir` (created if
    /// absent) — this is [`Engine::save`], so a snapshot saved through
    /// either handle loads through the other.
    ///
    /// The snapshot is consistent: mutations wait for the duration
    /// (queries keep running), and a loaded copy is byte-equivalent —
    /// [`Client::run_seeded`] replays identically and ids issued before
    /// the save stay valid after the load. See `DESIGN.md`, "On-disk
    /// snapshot format".
    pub fn save(&self, dir: impl AsRef<std::path::Path>) -> Result<(), PersistError> {
        self.engine().save(dir)
    }

    /// Loads a client from a snapshot directory written by
    /// [`Client::save`] or [`Engine::save`] — this is [`Engine::load`]
    /// at every shard count; the manifest names the count.
    ///
    /// All validation is typed ([`PersistError`]): magic, format
    /// version, per-section CRCs, manifest/shard cross-checks, and each
    /// structure's decode invariants. Nothing on the load path panics.
    pub fn load(dir: impl AsRef<std::path::Path>) -> Result<Self, PersistError> {
        Engine::load(dir).map(Client::over)
    }

    /// Restores a client to an exact write-ahead-log position: loads
    /// the snapshot in `snapshot_dir`, recovers the log at `wal_path`
    /// (truncating any torn tail back to the last valid record), and
    /// re-applies every logged batch the snapshot predates — batches at
    /// or before the snapshot's checkpoint sidecar are skipped, so
    /// nothing is applied twice. Point-in-time recovery is this same
    /// walk over a shorter log prefix.
    ///
    /// Returns the recovered client, the log writer positioned to
    /// append (hand it to `irs_server::serve` to resume the writer
    /// seat), and the replay itself — inspect [`WalReplay::stopped`] to
    /// learn whether (and exactly how) the log's tail was damaged.
    /// Replay is deterministic: a batch that failed when first acked
    /// fails identically here.
    pub fn recover(
        snapshot_dir: impl AsRef<std::path::Path>,
        wal_path: impl AsRef<std::path::Path>,
    ) -> Result<(Self, WalWriter<E>, WalReplay<E>), ReplicationError> {
        let dir = snapshot_dir.as_ref();
        let mut client = Client::load(dir).map_err(ReplicationError::Persist)?;
        let checkpoint = wal::read_checkpoint(dir)
            .map_err(ReplicationError::Persist)?
            .unwrap_or(0);
        let (wal, replay) = WalWriter::recover(wal_path)?;
        for record in &replay.records {
            if record.seq > checkpoint {
                let _ = client.apply(&record.muts);
            }
        }
        Ok((client, wal, replay))
    }
}

/// The backend's single writer seat, claimed with [`Client::writer`].
///
/// Holding a `ClientWriter` excludes every other mutation — from this
/// clone or any other — for as long as it lives; queries keep running
/// concurrently and see each shard's slice of a mutation batch
/// atomically. Drop the guard (or let it go out of scope) to release
/// the seat.
pub struct ClientWriter<'a, E> {
    engine: &'a Engine<E>,
    _seat: MutexGuard<'a, ()>,
}

impl<E: GridEndpoint> ClientWriter<'_, E> {
    /// See [`Client::apply`].
    pub fn apply(&mut self, muts: &[Mutation<E>]) -> Vec<Result<UpdateOutput, UpdateError>> {
        self.engine.apply(muts)
    }

    /// See [`Client::insert`].
    pub fn insert(&mut self, iv: Interval<E>) -> Result<ItemId, UpdateError> {
        self.engine.insert(iv)
    }

    /// See [`Client::insert_weighted`].
    pub fn insert_weighted(&mut self, iv: Interval<E>, weight: f64) -> Result<ItemId, UpdateError> {
        self.engine.insert_weighted(iv, weight)
    }

    /// See [`Client::remove`].
    pub fn remove(&mut self, id: ItemId) -> Result<(), UpdateError> {
        self.engine.remove(id)
    }

    /// See [`Client::extend_batch`].
    pub fn extend_batch(&mut self, ivs: &[Interval<E>]) -> Result<Vec<ItemId>, UpdateError> {
        self.engine.extend_batch(ivs)
    }
}
