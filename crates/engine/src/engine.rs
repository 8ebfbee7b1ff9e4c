//! The sharded engine: partitioning, the shared-shard concurrent read
//! path, and shard-routed mutations applied by the writer seat's holder.
//!
//! # Sharding and the global-id scheme
//!
//! The dataset is split round-robin: shard `k` of `K` owns the intervals
//! with global id `g ≡ k (mod K)`, stored locally at index `g / K`.
//! Round-robin keeps shards balanced regardless of input order (sorted
//! inputs would overload one shard under contiguous chunking) and makes
//! the local↔global id mapping arithmetic (`g = local·K + k`), so no
//! per-shard id tables are needed.
//!
//! Mutations keep that scheme alive: an insert routed to shard `k`
//! returns global id `local·K + k`, where `local` is the id the shard's
//! own (monotone, never-reusing) allocator issued. Global ids are
//! therefore **stable for the engine's lifetime** — a later
//! [`Engine::remove`] decodes the owning shard back out of the id
//! (`k = g mod K`), and query results keep reporting the same id for
//! the same interval no matter how much churn happened in between.
//!
//! # Concurrency model
//!
//! The engine is a **shared, clonable service**: [`Engine`] is a cheap
//! `Arc` handle (`Clone + Send + Sync`), and every clone points at the
//! same shard state. Each shard is a `RwLock<Box<dyn DynIndex>>`:
//!
//! - **Queries run on the calling thread.** [`Engine::run`] takes read
//!   locks on every shard (in shard order, so lock acquisition is
//!   hierarchical and cannot deadlock against writers), executes both
//!   phases of the batch right there, and releases. Read locks are
//!   shared, so `T` caller threads run `T` batches truly concurrently —
//!   throughput scales with callers, not with an internal queue.
//! - **Mutations run on the writer's thread.** Mutation batches
//!   serialize on one writer seat shared across clones
//!   ([`Engine::writer`] hands it out as an [`EngineWriter`] guard).
//!   The seat holder applies each shard's sub-batch under that shard's
//!   *write* lock — so a query batch observes each shard either before
//!   or after a mutation sub-batch, never torn. A batch that touches
//!   several shards splits them into at most one group per CPU: the
//!   first group applies on the calling thread, each other group on a
//!   scoped thread joined before the batch returns; a one-shard batch
//!   spawns nothing. The engine owns no thread.
//!
//! Determinism survives concurrency: [`Engine::run_seeded`] derives
//! every stream it uses (the allocation stream and one draw stream per
//! shard) from the caller's seed alone, and executes entirely on the
//! calling thread — so its results are byte-identical no matter how
//! many other threads are hammering the same engine, and identical to a
//! single-threaded run.
//!
//! # Batch protocol
//!
//! Count, search, and stab queries finish in one pass over the shards
//! (counts sum, id lists concatenate). Sampling queries take two phases
//! to stay exact:
//!
//! 1. every shard runs candidate computation (phase 1 of the paper's
//!    cost split) and reports its *allocation mass* — the exact local
//!    result-set size `c_k` (uniform) or local weight mass `w_k`
//!    (weighted);
//! 2. the engine draws the per-shard sample counts `(s_1, …, s_K)` from
//!    a multinomial with probabilities `m_k / Σm` and draws each
//!    shard's allocation from the prepared handles phase 1 kept warm —
//!    no second candidate computation.
//!
//! Both phases now run on the calling thread under the read guards, so
//! the prepared handles (which borrow the shard indexes) never cross a
//! thread and no cross-thread allocation exchange exists to deadlock.
//! Per-batch temporaries (allocation matrix, multinomial scratch) come
//! from a shared scratch pool rather than fresh allocations.
//!
//! Allocating multinomially by exact mass makes the sharded sampler
//! *distribution-identical* to a monolithic index: for any interval `x`
//! in shard `k`, `P(draw = x) = (m_k / Σm) · (w(x) / m_k) = w(x) / Σm`.
//! AIT-V reports an upper bound as its candidate count (virtual slots),
//! so the engine substitutes the exact count from a range search —
//! flagged by [`DynPreparedSampler::count_is_exact`].
//!
//! # Failure model
//!
//! Nothing on the query or mutation path panics — including when
//! *index code* does. Operations the engine's kind cannot serve return
//! [`QueryError::UnsupportedOperation`] / [`QueryError::NotWeighted`],
//! consistent with [`Engine::capabilities`]. A shard counts as
//! **failed** once its index has panicked, in a query's phase 1, its
//! phase 2, or a mutation sub-batch. All three run index code through
//! one containment helper, which catches the unwind and raises the
//! shard's dead flag before the failing call returns; the batch that
//! observed the panic reports it typed. A panic in a mutation also
//! poisons the shard's write lock, which it held.
//!
//! The verdict is deterministic and engine-wide: every query of every
//! batch that starts after the crash returns
//! [`QueryError::ShardFailed`] (a partial cross-shard count or merge
//! would be silently wrong), and mutations routed to the dead shard
//! return [`UpdateError::ShardFailed`] without being applied, while
//! those routed to healthy shards in the same batch stand.

use crate::kind::{DynIndex, IndexKind};
use crate::persist;
use crate::query::{Query, QueryOutput};
use crate::stream::SampleStream;
use irs_core::erased::DynPreparedSampler;
use irs_core::persist::PersistError;
use irs_core::wal::{self, ReplicationError, WalReplay, WalWriter};
use irs_core::{
    splitmix64 as mix, validate_update_weight, validate_weights, BuildError, Capabilities,
    GridEndpoint, Interval, ItemId, Mutation, Operation, QueryError, UpdateError, UpdateOutput,
};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};

/// Engine construction knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Index structure built per shard.
    pub kind: IndexKind,
    /// Shard count; clamped to ≥ 1.
    pub shards: usize,
    /// Base seed; every batch derives its draw streams from it, so an
    /// engine with a fixed config replays identically.
    pub seed: u64,
}

impl EngineConfig {
    /// A config with `kind`, one shard, and a fixed default seed — the
    /// defaults of [`Irs::builder`] too. Neither depends on the host, so
    /// an engine built from the defaults replays identically anywhere.
    pub fn new(kind: IndexKind) -> Self {
        EngineConfig {
            kind,
            shards: 1,
            seed: 0x1D5_EA5E,
        }
    }

    /// Sets the shard count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Namespace for the builder entry point: [`Irs::builder`].
pub struct Irs;

impl Irs {
    /// Starts configuring an [`Engine`]; finish with
    /// [`IrsBuilder::build`].
    pub fn builder() -> IrsBuilder {
        IrsBuilder {
            config: EngineConfig::new(IndexKind::Ait),
            weights: None,
        }
    }
}

/// Configures and builds an [`Engine`]: an [`EngineConfig`] plus
/// optional weights. Defaults are [`EngineConfig::new`]'s, over
/// [`IndexKind::Ait`] and no weights.
#[derive(Clone, Debug)]
pub struct IrsBuilder {
    config: EngineConfig,
    weights: Option<Vec<f64>>,
}

impl IrsBuilder {
    /// Selects the index structure (see [`IndexKind`]).
    pub fn kind(mut self, kind: IndexKind) -> Self {
        self.config.kind = kind;
        self
    }

    /// Sets the shard count ([`EngineConfig::shards`]).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config = self.config.shards(shards);
        self
    }

    /// Sets the base seed ([`EngineConfig::seed`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config = self.config.seed(seed);
        self
    }

    /// Supplies per-interval weights (`weights[i]` belongs to
    /// `data[i]`), enabling [`Operation::WeightedSample`] on kinds that
    /// support it. Validated in [`IrsBuilder::build`].
    pub fn weights(mut self, weights: impl Into<Vec<f64>>) -> Self {
        self.weights = Some(weights.into());
        self
    }

    /// Builds the engine over `data`: [`Engine::try_new_weighted`] when
    /// weights were supplied, else [`Engine::try_new`].
    pub fn build<E: GridEndpoint>(self, data: &[Interval<E>]) -> Result<Engine<E>, BuildError> {
        match &self.weights {
            Some(w) => Engine::try_new_weighted(data, w, self.config),
            None => Engine::try_new(data, self.config),
        }
    }
}

/// A point-in-time description of an [`Engine`], for health and stats
/// surfaces (notably `irs-server`'s `stats` endpoint).
///
/// Taken with [`Engine::stats`]. Each field is read atomically, but not
/// all fields together: a concurrent mutation may land between the
/// `len` read and the `shard_lens` read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineStats {
    /// The configured index kind.
    pub kind: IndexKind,
    /// [`irs_core::Codec::type_name`] of the endpoint scalar.
    pub endpoint: &'static str,
    /// Number of shards.
    pub shards: usize,
    /// Live intervals indexed.
    pub len: usize,
    /// Live intervals per shard.
    pub shard_lens: Vec<usize>,
    /// Whether per-interval weights were supplied at build time.
    pub weighted: bool,
}

/// Per-query phase-1 result computed on one shard.
enum Partial {
    /// Sampling query: exact allocation mass (count or weight sum).
    Mass(f64),
    /// Non-sampling query, fully answered (ids already global).
    Done(QueryOutput),
    /// The shard's index cannot serve this operation (the engine mints
    /// the matching typed error; all shards agree, sharing one kind).
    Unsupported,
}

/// One shard's mutation answers: `(position, result)` pairs, in order.
type MutReplies = Vec<(usize, Result<UpdateOutput, UpdateError>)>;

/// One shard: the index behind its reader/writer lock, its live
/// length, and its health flag.
struct Shard<E> {
    /// The shard's index. Queries hold the read side; the writer seat's
    /// holder takes the write side per sub-batch.
    index: RwLock<Box<dyn DynIndex<E>>>,
    /// Live intervals in this shard — the load the insert router
    /// balances. Written only under the engine's writer seat; read
    /// without it, so stats never wait behind a mutation batch.
    len: AtomicUsize,
    /// Raised by [`Shard::contain`] when the shard's index panics;
    /// never lowered.
    dead: AtomicBool,
}

impl<E> Shard<E> {
    /// Runs index code with panic containment — the one place a shard
    /// is marked failed, shared by both query phases and the mutation
    /// apply. On a panic the dead flag is raised before this returns
    /// `None`, so every batch that starts afterwards, from any thread,
    /// observes the failure.
    fn contain<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        if caught.is_err() {
            self.dead.store(true, Ordering::SeqCst);
        }
        caught.ok()
    }
}

/// Reusable per-batch temporaries, recycled through [`ScratchPool`].
#[derive(Default)]
struct Scratch {
    /// Per-shard allocation masses of the query being allocated.
    masses: Vec<f64>,
    /// Cumulative masses (multinomial inversion).
    cumulative: Vec<f64>,
    /// Per-shard draw counts of the query being allocated.
    counts: Vec<usize>,
    /// The whole batch's allocation matrix, flattened `[shard × query]`.
    allocs: Vec<usize>,
}

impl Scratch {
    /// Draws a multinomial over `self.masses` (`s` categorical draws)
    /// and records shard `k`'s count at `self.allocs[k * nq + i]`.
    fn allocate(&mut self, rng: &mut SmallRng, s: usize, nq: usize, i: usize) {
        self.cumulative.clear();
        let mut total = 0.0;
        for &m in &self.masses {
            debug_assert!(m >= 0.0 && m.is_finite(), "allocation mass {m}");
            total += m;
            self.cumulative.push(total);
        }
        if total <= 0.0 {
            return; // empty result set: no draws anywhere
        }
        // Single-recipient fast path: with one shard (or one shard
        // holding all the mass) every categorical draw lands in the same
        // bucket, so skip the `s` RNG draws outright. The multinomial
        // degenerates to a point mass; no distribution changes.
        if let Some(k) = sole_positive(&self.masses) {
            self.allocs[k * nq + i] = s;
            return;
        }
        self.counts.clear();
        self.counts.resize(self.masses.len(), 0);
        for _ in 0..s {
            let r = rng.random_range(0.0..total);
            let k = self
                .cumulative
                .partition_point(|&c| c <= r)
                .min(self.masses.len() - 1);
            self.counts[k] += 1;
        }
        for (k, &n) in self.counts.iter().enumerate() {
            if n > 0 {
                self.allocs[k * nq + i] = n;
            }
        }
    }
}

/// Returns `Some(k)` iff shard `k` is the only one with positive
/// allocation mass (trivially true for one shard).
fn sole_positive(masses: &[f64]) -> Option<usize> {
    let mut found = None;
    for (k, &m) in masses.iter().enumerate() {
        if m > 0.0 {
            if found.is_some() {
                return None;
            }
            found = Some(k);
        }
    }
    found
}

/// A small free-list of [`Scratch`] sets, so concurrent batches reuse
/// their temporaries instead of allocating fresh ones per call.
struct ScratchPool(Mutex<Vec<Scratch>>);

/// More pooled scratch sets than this just pins memory (it means this
/// many batches really ran at once; steady state needs ~one per caller
/// thread).
const SCRATCH_POOL_CAP: usize = 64;

/// Largest allocation-matrix capacity (`shards × queries` slots) a
/// returned scratch set may keep; bigger ones are dropped so one huge
/// batch can't pin megabytes for the engine's lifetime.
const SCRATCH_RETAIN_ELEMS: usize = 1 << 16;

impl ScratchPool {
    fn new() -> Self {
        ScratchPool(Mutex::new(Vec::new()))
    }

    fn checkout(&self) -> Scratch {
        // A poisoned pool lock only means a panicking thread held it;
        // the Vec inside is still a valid free-list.
        let mut pool = self.0.lock().unwrap_or_else(|e| e.into_inner());
        pool.pop().unwrap_or_default()
    }

    fn restore(&self, scratch: Scratch) {
        // An outlier batch (huge shards × queries product) would
        // otherwise pin its allocation matrix for the engine's
        // lifetime; let oversized scratch sets drop instead.
        if scratch.allocs.capacity() > SCRATCH_RETAIN_ELEMS {
            return;
        }
        let mut pool = self.0.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(scratch);
        }
    }
}

/// The state every [`Engine`] clone shares.
struct EngineShared<E> {
    shards: Vec<Shard<E>>,
    kind: IndexKind,
    /// Live intervals (build-time data plus inserts minus deletes);
    /// atomic so query-side readers never take the writer seat.
    len: AtomicUsize,
    weighted: bool,
    base_seed: u64,
    batch_counter: AtomicU64,
    /// The writer seat ([`Engine::writer`]): serializes mutation
    /// batches and saves across clones, so the routing bookkeeping
    /// (`len`, each shard's `len`) has one writer at a time. Queries
    /// never touch it.
    writer: Mutex<()>,
    scratch: ScratchPool,
}

impl<E> EngineShared<E> {
    /// The first shard marked dead, if any — checked at batch start so
    /// a crashed shard fails queries deterministically.
    fn first_dead(&self) -> Option<usize> {
        self.shards
            .iter()
            .position(|s| s.dead.load(Ordering::SeqCst))
    }
}

/// Sharded, concurrent batch query engine over any [`IndexKind`].
///
/// The handle is cheap to clone (`Arc` under the hood) and
/// `Send + Sync`: clone it into as many threads as you like and call
/// [`Engine::run`] from all of them — batches execute concurrently on
/// the calling threads over the shared shard state. Mutations
/// ([`Engine::apply`] and friends) serialize across all clones on one
/// writer seat ([`Engine::writer`]). The shards are freed when the last
/// clone drops. Build one with [`Irs::builder`] or [`Engine::try_new`].
///
/// ```
/// use irs_engine::{Engine, EngineConfig, IndexKind, Query, QueryOutput};
/// use irs_core::Interval;
///
/// let data: Vec<_> = (0..10_000i64).map(|i| Interval::new(i, i + 50)).collect();
/// let engine = Engine::try_new(&data, EngineConfig::new(IndexKind::Ait).shards(4))?;
/// let out = engine.run(&[
///     Query::Count { q: Interval::new(100, 200) },
///     Query::Sample { q: Interval::new(100, 200), s: 8 },
/// ]);
/// assert_eq!(out[0], Ok(QueryOutput::Count(151)));
/// assert_eq!(out[1].as_ref().unwrap().samples().unwrap().len(), 8);
///
/// // Share it: clones are handles to the same engine.
/// let handle = engine.clone();
/// std::thread::spawn(move || handle.count(Interval::new(0, 50)))
///     .join()
///     .unwrap()?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Engine<E> {
    inner: Arc<EngineShared<E>>,
}

// Manual impl: a clone is a new handle to the same engine, and must not
// require `E: Clone` (derive would add that bound).
impl<E> Clone for Engine<E> {
    fn clone(&self) -> Self {
        Engine {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<E: GridEndpoint> Engine<E> {
    /// Builds an engine over unweighted intervals. A single shard
    /// builds on the calling thread; several build concurrently, one
    /// scoped thread each, joined before this returns.
    pub fn try_new(data: &[Interval<E>], config: EngineConfig) -> Result<Self, BuildError> {
        Self::build(data, None, config)
    }

    /// Builds an engine over weighted intervals (`weights[i]` belongs to
    /// `data[i]`).
    ///
    /// Weights are validated up front: a length mismatch or any
    /// non-positive / non-finite weight is rejected as a [`BuildError`]
    /// naming the offending index, before any shard index is built.
    pub fn try_new_weighted(
        data: &[Interval<E>],
        weights: &[f64],
        config: EngineConfig,
    ) -> Result<Self, BuildError> {
        validate_weights(data.len(), weights)?;
        Self::build(data, Some(weights), config)
    }

    fn build(
        data: &[Interval<E>],
        weights: Option<&[f64]>,
        config: EngineConfig,
    ) -> Result<Self, BuildError> {
        let shards = config.shards.max(1);
        let kind = config.kind;

        // Round-robin partition: shard k gets global ids k, k+K, k+2K, …
        let shard_lens: Vec<usize> = (0..shards)
            .map(|k| data.len() / shards + usize::from(k < data.len() % shards))
            .collect();
        // One shard builds straight from `data`, on the calling thread,
        // so its index shares a heap with the thread that goes on to
        // mutate it: built on a thread of its own, `lib-weighted-wide`
        // (awit-dynamic) applied ~11 % fewer mutations/s. Several
        // shards build from partition copies, one scoped thread each,
        // the first one too: the first built on the calling thread
        // measured ~30 MiB (5 %) more RSS at n = 10^6, K = 4, and two
        // shards per thread read outliers (652 MiB against ≤ 633).
        let mut parts = vec![(Vec::new(), Vec::new()); shards];
        if shards > 1 {
            for (g, iv) in data.iter().enumerate() {
                let (local, local_w) = &mut parts[g % shards];
                local.push(*iv);
                if let Some(w) = weights {
                    local_w.push(w[g]);
                }
            }
        }
        let jobs = if shards == 1 {
            vec![(data, weights)]
        } else {
            parts
                .iter()
                .map(|(local, local_w)| (local.as_slice(), weights.map(|_| local_w.as_slice())))
                .collect()
        };
        // A build that panics is a typed `ShardDied`, not an unwind into
        // the caller.
        let built = fan_out(&jobs, shards, shards == 1, |&(local, local_w)| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                kind.build_index(local, local_w)
            }))
            .ok()
        });
        let mut indexes = Vec::with_capacity(shards);
        for (shard, index) in built.into_iter().enumerate() {
            indexes.push(index.ok_or(BuildError::ShardDied { shard })?);
        }
        Ok(Self::assemble(
            indexes.into_iter().zip(shard_lens),
            data.len(),
            kind,
            weights.is_some(),
            config.seed,
            0,
        ))
    }

    /// The one constructor built and loaded engines share: wraps each
    /// shard's index and live length in the shared state.
    fn assemble(
        shards: impl Iterator<Item = (Box<dyn DynIndex<E>>, usize)>,
        len: usize,
        kind: IndexKind,
        weighted: bool,
        base_seed: u64,
        batch_counter: u64,
    ) -> Self {
        let shards = shards
            .map(|(index, len)| Shard {
                index: RwLock::new(index),
                len: AtomicUsize::new(len),
                dead: AtomicBool::new(false),
            })
            .collect();
        Engine {
            inner: Arc::new(EngineShared {
                shards,
                kind,
                len: AtomicUsize::new(len),
                weighted,
                base_seed,
                batch_counter: AtomicU64::new(batch_counter),
                writer: Mutex::new(()),
                scratch: ScratchPool::new(),
            }),
        }
    }

    /// The configured index kind.
    pub fn kind(&self) -> IndexKind {
        self.inner.kind
    }

    /// What this engine supports, as queryable metadata:
    /// [`IndexKind::capabilities`] of its kind, given whether weights
    /// were supplied at build time. Operations denied here fail with a
    /// typed [`QueryError`]; operations claimed here succeed.
    pub fn capabilities(&self) -> Capabilities {
        self.inner.kind.capabilities(self.inner.weighted)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Live intervals indexed (build-time data plus inserts minus
    /// deletes).
    pub fn len(&self) -> usize {
        self.inner.len.load(Ordering::SeqCst)
    }

    /// Live intervals per shard — a snapshot of the load the insert
    /// router balances. Lock-free: it never waits behind a mutation
    /// batch, so a batch in flight may be partly reflected.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.inner
            .shards
            .iter()
            .map(|s| s.len.load(Ordering::SeqCst))
            .collect()
    }

    /// Whether the engine holds zero intervals.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether per-interval weights were supplied at build time.
    pub fn is_weighted(&self) -> bool {
        self.inner.weighted
    }

    /// Estimated bytes of heap memory the engine's indexes retain,
    /// summed over shards ([`crate::DynIndex::heap_bytes`]). Takes each
    /// shard's read lock briefly, so the figure is a consistent
    /// per-shard (not cross-shard) snapshot — the precision a memory
    /// budget needs.
    pub fn heap_bytes(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| {
                s.index
                    .read()
                    .unwrap_or_else(|e| e.into_inner())
                    .heap_bytes()
            })
            .sum()
    }

    /// Executes a batch: one `Result` per [`Query`], in order. An empty
    /// result set is `Ok` (empty samples / zero count), never an error.
    ///
    /// Each call advances the engine's draw stream, so samples are
    /// independent across calls; use [`Engine::run_seeded`] to pin the
    /// stream.
    ///
    /// Safe — and *scalable* — to call from many threads on a shared
    /// engine: the batch executes on the calling thread under shared
    /// read locks, so concurrent callers proceed in parallel instead of
    /// queuing. An empty batch returns immediately without touching any
    /// lock.
    pub fn run(&self, queries: &[Query<E>]) -> Vec<Result<QueryOutput, QueryError>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let batch = self.inner.batch_counter.fetch_add(1, Ordering::Relaxed);
        self.run_seeded(queries, self.inner.base_seed.wrapping_add(mix(batch)))
    }

    /// [`Engine::run`] with an explicit seed: identical seed, batch,
    /// and engine config reproduce identical results — byte-identical
    /// regardless of how many other threads are querying the engine
    /// concurrently, because every stream the batch consumes is derived
    /// from `seed` and consumed on the calling thread.
    pub fn run_seeded(
        &self,
        queries: &[Query<E>],
        seed: u64,
    ) -> Vec<Result<QueryOutput, QueryError>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let inner = &*self.inner;
        let nq = queries.len();
        let shards = inner.shards.len();
        let caps = inner.kind.capabilities(inner.weighted);

        // A crashed shard fails the whole batch, deterministically:
        // its flag was raised before the panicking call returned, so
        // any caller that could observe the crash observes it here.
        if let Some(shard) = inner.first_dead() {
            return vec![Err(QueryError::ShardFailed { shard }); nq];
        }

        // Read-lock every shard, in shard order. Ordered acquisition
        // makes the lock graph hierarchical: readers climb shard ids,
        // while each writer thread (the seat holder, or one of its
        // scoped threads) holds a single write lock and waits on
        // nothing while it does — so no reader/writer cycle can form
        // even under a write-preferring lock. A poisoned lock means a
        // mutation panicked midway: the shard is torn, which is exactly
        // `ShardFailed`.
        let mut guards = Vec::with_capacity(shards);
        for (k, shard) in inner.shards.iter().enumerate() {
            match shard.index.read() {
                Ok(guard) => guards.push(guard),
                Err(_) => return vec![Err(QueryError::ShardFailed { shard: k }); nq],
            }
        }
        let has_sampling = queries.iter().any(Query::is_sampling);

        // Phase 1 on the calling thread: candidate computation per
        // shard, keeping sampling handles warm for phase 2. Handles
        // borrow the shard indexes through the read guards above (and
        // drop before them, in reverse declaration order). Index code
        // that panics is contained per shard: the shard is marked dead
        // (the same containment a mutation panic goes through) and the
        // whole batch — plus every later batch, from every caller —
        // fails with the typed `ShardFailed` instead of unwinding into
        // the caller or silently serving from a buggy index.
        let mut phase1: Vec<Vec<Partial>> = Vec::with_capacity(shards);
        let mut prepared: Vec<Vec<Option<Box<dyn DynPreparedSampler + '_>>>> =
            Vec::with_capacity(shards);
        for (k, guard) in guards.iter().enumerate() {
            let index: &dyn DynIndex<E> = &***guard;
            let to_global = |local: ItemId| -> ItemId { local * shards as ItemId + k as ItemId };
            let shard_pass = inner.shards[k].contain(|| {
                let mut partials = Vec::with_capacity(nq);
                let mut handles = Vec::with_capacity(nq);
                for query in queries {
                    let (partial, handle) = phase1_one(index, query, &to_global, shards == 1);
                    partials.push(partial);
                    handles.push(handle);
                }
                (partials, handles)
            });
            match shard_pass {
                Some((partials, handles)) => {
                    phase1.push(partials);
                    prepared.push(handles);
                }
                None => return vec![Err(QueryError::ShardFailed { shard: k }); nq],
            }
        }

        // Merge finished queries; allocate sampling queries. Capability
        // verdicts come from the engine's own metadata (all shards run
        // the same kind, so the per-shard prepare checks agree with it).
        let mut scratch = inner.scratch.checkout();
        let mut rng = SmallRng::seed_from_u64(seed ^ ALLOC_SALT);
        let mut results: Vec<Option<Result<QueryOutput, QueryError>>> = vec![None; nq];
        scratch.allocs.clear();
        scratch.allocs.resize(shards * nq, 0);
        for (i, query) in queries.iter().enumerate() {
            let op = query.operation();
            if !caps.supports(op) || matches!(phase1[0][i], Partial::Unsupported) {
                results[i] = Some(Err(inner.kind.unsupported_error(inner.weighted, op)));
                continue;
            }
            if query.is_sampling() {
                let s = match *query {
                    Query::Sample { s, .. } | Query::SampleWeighted { s, .. } => s,
                    // audit: allow(no-panic): is_sampling() above admits only the two Sample variants
                    _ => unreachable!(),
                };
                scratch.masses.clear();
                scratch.masses.extend(phase1.iter().map(|p| match p[i] {
                    Partial::Mass(m) => m,
                    // All shards share one kind, so capability
                    // verdicts are uniform across shards.
                    _ => 0.0,
                }));
                scratch.allocate(&mut rng, s, nq, i);
            } else {
                results[i] = Some(Ok(merge_finished(&mut phase1, i)));
            }
        }

        // Phase 2: draw exactly the allocated counts from the warm
        // handles. Each shard's draw stream is seeded from `seed` and
        // consumed in query order, so the sequence matches a
        // single-threaded run exactly.
        if has_sampling {
            let mut shard_rngs: Vec<SmallRng> = (0..shards)
                .map(|k| SmallRng::seed_from_u64(seed ^ mix(k as u64 + 1)))
                .collect();
            for (i, slot) in results.iter_mut().enumerate() {
                if slot.is_some() {
                    continue;
                }
                let total_n: usize = (0..shards).map(|k| scratch.allocs[k * nq + i]).sum();
                let mut merged = Vec::with_capacity(total_n);
                for (k, (rng_k, handles)) in shard_rngs.iter_mut().zip(&prepared).enumerate() {
                    let n = scratch.allocs[k * nq + i];
                    let Some(handle) = handles[i].as_ref() else {
                        continue;
                    };
                    if n == 0 {
                        continue;
                    }
                    let start = merged.len();
                    // Same panic containment as phase 1: a drawing bug
                    // fails the batch (and marks the shard), it does
                    // not unwind into the caller.
                    let drew = inner.shards[k].contain(|| {
                        handle.sample_into_dyn(rng_k as &mut dyn RngCore, n, &mut merged)
                    });
                    if drew.is_none() {
                        inner.scratch.restore(std::mem::take(&mut scratch));
                        return vec![Err(QueryError::ShardFailed { shard: k }); nq];
                    }
                    for id in &mut merged[start..] {
                        *id = *id * shards as ItemId + k as ItemId;
                    }
                }
                // Draws land grouped by shard; shuffle so the output
                // order carries no shard signal. (The draws are i.i.d.,
                // so this is cosmetic, not corrective — and with a
                // single shard there is no signal to erase.)
                if shards > 1 {
                    shuffle(&mut rng, &mut merged);
                }
                *slot = Some(Ok(QueryOutput::Samples(merged)));
            }
        }
        inner.scratch.restore(scratch);

        results
            .into_iter()
            .enumerate()
            // Every slot is filled above; the fallback keeps even a
            // protocol bug from panicking the query path.
            .map(|(i, r)| r.unwrap_or(Err(QueryError::ShardFailed { shard: i % shards })))
            .collect()
    }

    /// Claims the engine's single writer seat, blocking until any other
    /// clone's mutation (or writer guard) finishes.
    ///
    /// Queries stay `&self` and concurrent; every mutation — issued
    /// through the guard or through the `Engine` methods of the same
    /// names, which each claim the seat for one call — holds this seat
    /// for its whole batch. Hold the guard to make several calls one
    /// unit (a log append and its apply, say).
    ///
    /// ```
    /// # use irs_engine::{Irs, IndexKind};
    /// # use irs_core::Interval;
    /// let data: Vec<_> = (0..100i64).map(|i| Interval::new(i, i + 5)).collect();
    /// let engine = Irs::builder().kind(IndexKind::Ait).build(&data)?;
    /// let shared = engine.clone(); // e.g. handed to another thread
    /// let id = shared.writer().insert(Interval::new(7, 9))?;
    /// assert!(engine.search(Interval::new(7, 9))?.contains(&id));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn writer(&self) -> EngineWriter<'_, E> {
        EngineWriter {
            engine: self,
            _seat: self.inner.writer.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// [`EngineWriter::apply`] on a freshly claimed writer seat.
    pub fn apply(&self, muts: &[Mutation<E>]) -> Vec<Result<UpdateOutput, UpdateError>> {
        self.writer().apply(muts)
    }

    /// [`EngineWriter::insert`] on a freshly claimed writer seat.
    pub fn insert(&self, iv: Interval<E>) -> Result<ItemId, UpdateError> {
        self.writer().insert(iv)
    }

    /// [`EngineWriter::insert_weighted`] on a freshly claimed writer
    /// seat.
    pub fn insert_weighted(&self, iv: Interval<E>, weight: f64) -> Result<ItemId, UpdateError> {
        self.writer().insert_weighted(iv, weight)
    }

    /// [`EngineWriter::remove`] on a freshly claimed writer seat.
    pub fn remove(&self, id: ItemId) -> Result<(), UpdateError> {
        self.writer().remove(id)
    }

    /// [`EngineWriter::extend_batch`] on a freshly claimed writer seat.
    pub fn extend_batch(&self, ivs: &[Interval<E>]) -> Result<Vec<ItemId>, UpdateError> {
        self.writer().extend_batch(ivs)
    }

    /// A point-in-time description of the engine — kind, endpoint
    /// type, shard layout, live lengths — for health/stats surfaces.
    /// Never waits behind a mutation: every field is a lock-free read.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            kind: self.kind(),
            endpoint: E::type_name(),
            shards: self.shard_count(),
            len: self.len(),
            shard_lens: self.shard_lens(),
            weighted: self.is_weighted(),
        }
    }

    /// A chunked, prepare-amortizing uniform sample stream over `q ∩ X`.
    ///
    /// Each refill is one engine batch under the shards' read locks, so
    /// concurrent writers interleave *between* refills and a refill
    /// samples the then-current data. Use [`SampleStream::draw_into`]
    /// to reuse one output buffer across refills. See [`SampleStream`]
    /// for the termination and error contract.
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
        Ok(SampleStream::new(self, q, op))
    }

    /// Convenience: exact `|q ∩ X|`.
    pub fn count(&self, q: Interval<E>) -> Result<usize, QueryError> {
        match self.run(&[Query::Count { q }]).swap_remove(0)? {
            QueryOutput::Count(n) => Ok(n),
            _ => Err(self.protocol_error(Operation::Count)),
        }
    }

    /// Convenience: ids of all intervals overlapping `q`.
    pub fn search(&self, q: Interval<E>) -> Result<Vec<ItemId>, QueryError> {
        match self.run(&[Query::Search { q }]).swap_remove(0)? {
            QueryOutput::Ids(ids) => Ok(ids),
            _ => Err(self.protocol_error(Operation::Search)),
        }
    }

    /// Convenience: ids of all intervals containing `p`.
    pub fn stab(&self, p: E) -> Result<Vec<ItemId>, QueryError> {
        match self.run(&[Query::Stab { p }]).swap_remove(0)? {
            QueryOutput::Ids(ids) => Ok(ids),
            _ => Err(self.protocol_error(Operation::Stab)),
        }
    }

    /// Convenience: `s` uniform samples from `q ∩ X` (empty if the
    /// result set is empty — that is not an error).
    pub fn sample(&self, q: Interval<E>, s: usize) -> Result<Vec<ItemId>, QueryError> {
        match self.run(&[Query::Sample { q, s }]).swap_remove(0)? {
            QueryOutput::Samples(ids) => Ok(ids),
            _ => Err(self.protocol_error(Operation::UniformSample)),
        }
    }

    /// Convenience: `s` weight-proportional samples from `q ∩ X`.
    pub fn sample_weighted(&self, q: Interval<E>, s: usize) -> Result<Vec<ItemId>, QueryError> {
        match self.run(&[Query::SampleWeighted { q, s }]).swap_remove(0)? {
            QueryOutput::Samples(ids) => Ok(ids),
            _ => Err(self.protocol_error(Operation::WeightedSample)),
        }
    }

    /// A mismatched output variant can only mean an engine bug; report
    /// it as an unsupported operation rather than panicking the caller.
    fn protocol_error(&self, op: Operation) -> QueryError {
        QueryError::UnsupportedOperation {
            op,
            reason: "engine protocol error: mismatched output variant",
        }
    }

    /// Test hook: panic inside one shard's mutation containment, under
    /// the writer seat and the shard's write lock — the state an index
    /// bug mid-mutation leaves (dead flag raised, lock poisoned) — so
    /// suites can exercise the [`QueryError::ShardFailed`] paths.
    /// Hidden, not deprecated: not part of the supported API.
    #[doc(hidden)]
    pub fn crash_shard_for_tests(&self, shard: usize) {
        let Some(sh) = self.inner.shards.get(shard) else {
            return;
        };
        let _seat = self.writer();
        sh.contain(|| {
            let _index = sh.index.write().unwrap_or_else(|e| e.into_inner());
            // audit: allow(no-panic): deliberate crash hook, reachable only through this test-only entry point
            panic!("shard {shard}: crash requested by test hook");
        });
    }
}

/// The engine's single writer seat, claimed with [`Engine::writer`].
///
/// Holding an `EngineWriter` excludes every other mutation — from this
/// clone or any other — for as long as it lives; queries keep running
/// concurrently and see each shard's slice of a mutation batch
/// atomically. Drop the guard to release the seat.
pub struct EngineWriter<'a, E> {
    engine: &'a Engine<E>,
    _seat: MutexGuard<'a, ()>,
}

impl<E: GridEndpoint> EngineWriter<'_, E> {
    /// Inserts one interval, returning its stable global id. The
    /// interval is sampleable as soon as this returns; on a weighted
    /// update-capable engine it joins with weight `1.0`.
    ///
    /// Every insert — this one, [`EngineWriter::apply`]'s, and
    /// [`EngineWriter::extend_batch`]'s — goes through the shard's
    /// insertion pool (the paper's §III-D batch insertion): queries scan
    /// the pool linearly, and the insert that fills it merges the pool
    /// into the tree in one pass, under the shard's write lock.
    pub fn insert(&mut self, iv: Interval<E>) -> Result<ItemId, UpdateError> {
        self.inserted(Mutation::Insert { iv })
    }

    /// Inserts one weighted interval (Problem 2; weight validated by the
    /// same gate as construction weights), returning its global id.
    /// Requires an update-capable kind built with weights.
    pub fn insert_weighted(&mut self, iv: Interval<E>, weight: f64) -> Result<ItemId, UpdateError> {
        self.inserted(Mutation::InsertWeighted { iv, weight })
    }

    /// Removes the live interval behind `id`. After `Ok` the id never
    /// appears in a query result again and is never reissued; removing
    /// an id that is not live (never issued, or already removed) is
    /// [`UpdateError::UnknownId`].
    pub fn remove(&mut self, id: ItemId) -> Result<(), UpdateError> {
        self.apply(&[Mutation::Delete { id }])
            .swap_remove(0)
            .map(|_| ())
    }

    /// Inserts a batch of intervals, each as [`EngineWriter::insert`]
    /// does (through the shards' insertion pools), and returns the new
    /// global ids, in input order.
    ///
    /// All-or-nothing: if any insert fails (a dead shard, an
    /// unsupported kind), the inserts that did land are rolled back
    /// (best effort — their shards answered, so their deletes route)
    /// and the first error is returned, so an `Err` never strands
    /// intervals the caller has no ids for. The batch and its rollback
    /// run under this one seat, so no other mutation lands in between.
    pub fn extend_batch(&mut self, ivs: &[Interval<E>]) -> Result<Vec<ItemId>, UpdateError> {
        let muts: Vec<Mutation<E>> = ivs.iter().map(|&iv| Mutation::Insert { iv }).collect();
        let mut ids = Vec::with_capacity(ivs.len());
        let mut first_err = None;
        for result in self.apply(&muts) {
            match result {
                Ok(UpdateOutput::Inserted(id)) => ids.push(id),
                Ok(UpdateOutput::Removed) => {
                    first_err.get_or_insert(self.protocol_error());
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            None => Ok(ids),
            Some(e) => {
                let rollback: Vec<Mutation<E>> =
                    ids.into_iter().map(|id| Mutation::Delete { id }).collect();
                let _ = self.apply(&rollback);
                Err(e)
            }
        }
    }

    /// [`Engine::save`] under this guard's seat, so a caller can keep
    /// mutations frozen across the save and whatever it does next.
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<(), PersistError> {
        let dir = dir.as_ref();
        let inner = &*self.engine.inner;
        if inner.first_dead().is_some() {
            return Err(PersistError::Unsupported {
                reason: "a shard has failed; its state cannot be trusted on disk",
            });
        }
        std::fs::create_dir_all(dir).map_err(|e| PersistError::io(dir, &e))?;
        let manifest = persist::Manifest {
            snapshot_id: persist::fresh_snapshot_id(),
            kind: inner.kind.name().to_string(),
            endpoint: E::type_name().to_string(),
            weighted: inner.weighted,
            shards: inner.shards.len(),
            seed: inner.base_seed,
            batch_counter: inner.batch_counter.load(Ordering::SeqCst),
            stream_counter: 0,
            len: inner.len.load(Ordering::SeqCst),
            shard_lens: self.engine.shard_lens(),
        };
        // Shard files first, manifest last (each written atomically):
        // a save that dies partway leaves the previous manifest, whose
        // snapshot id disagrees with the fresh shard files — a typed
        // `ManifestMismatch` at load, never a silent mix of two states.
        for (k, shard) in inner.shards.iter().enumerate() {
            let guard = shard.index.read().map_err(|_| PersistError::Unsupported {
                reason: "a shard lock is poisoned; its state cannot be trusted on disk",
            })?;
            let mut payload = Vec::new();
            guard.encode_snapshot(&mut payload)?;
            drop(guard);
            let header = persist::ShardHeader {
                snapshot_id: manifest.snapshot_id,
                kind: manifest.kind.clone(),
                endpoint: manifest.endpoint.clone(),
                shard: k,
                shards: manifest.shards,
                weighted: manifest.weighted,
            };
            persist::write_shard_file(dir, &header, &payload)?;
        }
        persist::write_manifest(dir, &manifest)
    }

    /// Applies one insert and returns its id.
    fn inserted(&mut self, m: Mutation<E>) -> Result<ItemId, UpdateError> {
        match self.apply(&[m]).swap_remove(0)? {
            UpdateOutput::Inserted(id) => Ok(id),
            UpdateOutput::Removed => Err(self.protocol_error()),
        }
    }

    /// A mismatched update output can only mean an engine bug; report
    /// it as a typed error rather than panicking the caller.
    fn protocol_error(&self) -> UpdateError {
        UpdateError::UnsupportedKind {
            kind: self.engine.inner.kind.name(),
            reason: "engine protocol error: mismatched update output variant",
        }
    }

    /// Applies a batch of typed [`Mutation`]s: one `Result` per
    /// mutation, in order.
    ///
    /// Routing (see the module docs): inserts go to the least-loaded
    /// shard, deletes to the shard decoded from the global id
    /// (`shard = id mod K`). Returned ids follow the engine's global-id
    /// scheme (`local·K + shard`), so they are stable for the engine's
    /// lifetime and interchangeable with the ids query results report.
    ///
    /// Each shard's sub-batch is applied under the shard's *write*
    /// lock — on this thread, or on a scoped thread (at most one per
    /// CPU) when the batch spans several shards — so a concurrent query batch observes
    /// each shard either entirely before or entirely after its
    /// sub-batch, never torn. Capability gating happens up front: on a
    /// kind with `capabilities().update == false` every mutation fails
    /// with the typed [`UpdateError::UnsupportedKind`] and no shard is
    /// touched. The seat this guard holds keeps the routing bookkeeping
    /// (`len`, each shard's `len`) and the shards' write locks
    /// single-writer.
    pub fn apply(&mut self, muts: &[Mutation<E>]) -> Vec<Result<UpdateOutput, UpdateError>> {
        if muts.is_empty() {
            return Vec::new();
        }
        let inner = &*self.engine.inner;
        let shards = inner.shards.len();
        let mut results: Vec<Option<Result<UpdateOutput, UpdateError>>> = vec![None; muts.len()];
        let mut owner: Vec<usize> = vec![0; muts.len()];
        let mut per_shard: Vec<Vec<(usize, Mutation<E>)>> = vec![Vec::new(); shards];
        // Route against a projection of live counts, so a batch of
        // inserts spreads across shards instead of piling on one.
        let mut lens = self.engine.shard_lens();
        for (i, m) in muts.iter().enumerate() {
            let op = m.op();
            if !inner.kind.supports_mutation(inner.weighted, op) {
                results[i] = Some(Err(inner.kind.unsupported_update_error(inner.weighted, op)));
                continue;
            }
            let target = match *m {
                Mutation::Insert { .. } => least_loaded(&lens),
                Mutation::InsertWeighted { weight, .. } => {
                    if let Err(e) = validate_update_weight(weight) {
                        results[i] = Some(Err(e));
                        continue;
                    }
                    least_loaded(&lens)
                }
                Mutation::Delete { id } => id as usize % shards,
            };
            if !matches!(m, Mutation::Delete { .. }) {
                lens[target] += 1;
            }
            owner[i] = target;
            per_shard[target].push((i, *m));
        }

        // A shard whose dead flag is raised (its index panicked, on any
        // path) gets nothing, and one that panics mid-batch answers
        // nothing: either way its mutations fall through, unapplied, to
        // the `ShardFailed` fallback below.
        let jobs: Vec<_> = per_shard
            .into_iter()
            .enumerate()
            .filter(|(k, batch)| !batch.is_empty() && !inner.shards[*k].dead.load(Ordering::SeqCst))
            .collect();
        // At most one thread per CPU: one per shard applied 4-shard
        // wire `Apply` frames of 16 inserts ~27 % slower on a 2-CPU
        // host. Read once: each `available_parallelism` call reads
        // cgroup files (~12 µs).
        static CPUS: OnceLock<usize> = OnceLock::new();
        let cpus =
            *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let applied = fan_out(&jobs, cpus, true, |(k, batch)| {
            let shard = &inner.shards[*k];
            shard.contain(|| {
                // Only the seat holder takes a write lock, and it found
                // the dead flag lowered under this seat. A panic under
                // the lock raises the flag, so the lock is not poisoned
                // here and `into_inner` is a formality.
                let mut index = shard.index.write().unwrap_or_else(|e| e.into_inner());
                apply_sub_batch(index.as_mut(), *k, shards, batch)
            })
        });

        for ((k, _), entries) in jobs.iter().zip(applied) {
            let Some(entries) = entries else {
                continue;
            };
            let mut delta = 0isize;
            for (i, result) in entries {
                match &result {
                    Ok(UpdateOutput::Inserted(_)) => delta += 1,
                    Ok(UpdateOutput::Removed) => delta -= 1,
                    Err(_) => {}
                }
                results[i] = Some(result);
            }
            // Single writer (the seat this guard holds), so
            // load-then-store is exact.
            for counter in [&inner.len, &inner.shards[*k].len] {
                let len = counter.load(Ordering::SeqCst);
                counter.store(len.saturating_add_signed(delta), Ordering::SeqCst);
            }
        }

        results
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or(Err(UpdateError::ShardFailed { shard: owner[i] })))
            .collect()
    }
}

/// Snapshot persistence: the directory-level save/load pair. See the
/// [`crate::persist`] module for the file layout and `DESIGN.md` for
/// the byte-level format.
impl<E: GridEndpoint> Engine<E> {
    /// Saves the engine to `dir` (created if absent): a manifest plus
    /// one file per shard, each CRC-framed (see [`crate::persist`]).
    ///
    /// The snapshot is **consistent**: the writer seat
    /// ([`Engine::writer`]) is held for the duration, so no mutation batch can land between two
    /// shard files, and the manifest's lengths agree with the shard
    /// payloads. Queries keep running concurrently (each shard is read
    /// under its shared read lock). A loaded copy is byte-equivalent:
    /// [`Engine::run_seeded`] replays identically, and ids issued
    /// before the save stay valid after the load.
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<(), PersistError> {
        self.writer().save(dir)
    }

    /// Loads an engine from a directory written by [`Engine::save`].
    ///
    /// Everything is validated before any shard state is trusted:
    /// magic, format version, per-section CRCs, the manifest/shard
    /// cross-checks, and each structure's own decode invariants — every
    /// failure is a typed [`PersistError`], never a panic. The loaded
    /// engine is byte-equivalent to the saved one: `run_seeded`
    /// reproduces the original's draws, the unseeded `run` stream
    /// continues where it left off, and the global-id contract
    /// (stable, never reissued) spans the restart.
    pub fn load(dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        let dir = dir.as_ref();
        let manifest = persist::read_manifest(dir)?;
        let kind = IndexKind::parse(&manifest.kind).ok_or_else(|| PersistError::UnknownKind {
            name: manifest.kind.clone(),
        })?;
        if manifest.endpoint != E::type_name() {
            return Err(PersistError::EndpointMismatch {
                stored: manifest.endpoint.clone(),
                expected: E::type_name(),
            });
        }
        let lens_sum = (manifest.shard_lens.iter()).try_fold(0usize, |sum, &n| sum.checked_add(n));
        if lens_sum != Some(manifest.len) {
            return Err(PersistError::Corrupt {
                what: "manifest length is not the sum of its shard lengths",
            });
        }
        let mut indexes: Vec<Box<dyn DynIndex<E>>> = Vec::with_capacity(manifest.shards);
        for (k, &shard_len) in manifest.shard_lens.iter().enumerate() {
            let shard = persist::read_shard_payload(dir, &manifest, k)?;
            let mut r = irs_core::persist::Reader::new(shard.payload());
            let index = kind.decode_index::<E>(&mut r, manifest.weighted)?;
            if !r.is_empty() {
                return Err(PersistError::Corrupt {
                    what: "index section has trailing bytes",
                });
            }
            if index.len() != shard_len {
                return Err(PersistError::Corrupt {
                    what: "shard's live length differs from the manifest",
                });
            }
            indexes.push(index);
        }
        Ok(Self::assemble(
            indexes.into_iter().zip(manifest.shard_lens.iter().copied()),
            manifest.len,
            kind,
            manifest.weighted,
            manifest.seed,
            manifest.batch_counter,
        ))
    }

    /// Restores an engine to an exact write-ahead-log position: loads
    /// the snapshot in `snapshot_dir`, recovers the log at `wal_path`
    /// (truncating any torn tail back to the last valid record), and
    /// re-applies every logged batch the snapshot predates — batches at
    /// or before the snapshot's checkpoint sidecar are skipped, so
    /// nothing is applied twice. Point-in-time recovery is this same
    /// walk over a shorter log prefix.
    ///
    /// Returns the recovered engine, the log writer positioned to
    /// append (hand it to `irs_server::serve` to resume the writer
    /// seat), and the replay itself — inspect [`WalReplay::stopped`] to
    /// learn whether (and exactly how) the log's tail was damaged.
    /// Replay is deterministic: a batch that failed when first acked
    /// fails identically here.
    pub fn recover(
        snapshot_dir: impl AsRef<Path>,
        wal_path: impl AsRef<Path>,
    ) -> Result<(Self, WalWriter<E>, WalReplay<E>), ReplicationError> {
        let dir = snapshot_dir.as_ref();
        let engine = Engine::load(dir).map_err(ReplicationError::Persist)?;
        let checkpoint = wal::read_checkpoint(dir)
            .map_err(ReplicationError::Persist)?
            .unwrap_or(0);
        let (wal, replay) = WalWriter::recover(wal_path)?;
        let mut writer = engine.writer();
        for record in &replay.records {
            if record.seq > checkpoint {
                let _ = writer.apply(&record.muts);
            }
        }
        drop(writer);
        Ok((engine, wal, replay))
    }
}

const ALLOC_SALT: u64 = 0xA110_CA7E_5EED_0001;

/// Merges a non-sampling query's per-shard results. Only called for
/// queries whose phase-1 partials are all `Done` (capability-checked
/// upstream); anything else contributes nothing to the merge.
fn merge_finished(phase1: &mut [Vec<Partial>], i: usize) -> QueryOutput {
    let mut count_sum = 0usize;
    let mut ids_merged: Option<Vec<ItemId>> = None;
    for partials in phase1 {
        match &mut partials[i] {
            Partial::Done(QueryOutput::Count(n)) => count_sum += *n,
            // The first shard's list becomes the answer; the rest are
            // appended to it. Each list is consumed exactly once.
            Partial::Done(QueryOutput::Ids(ids)) => match &mut ids_merged {
                None => ids_merged = Some(std::mem::take(ids)),
                Some(merged) => merged.append(ids),
            },
            _ => {}
        }
    }
    match ids_merged {
        Some(ids) => QueryOutput::Ids(ids),
        None => QueryOutput::Count(count_sum),
    }
}

/// The shard with the fewest live intervals (ties to the lowest id) —
/// the insert router's target.
fn least_loaded(lens: &[usize]) -> usize {
    let mut best = 0;
    for (k, &len) in lens.iter().enumerate() {
        if len < lens[best] {
            best = k;
        }
    }
    best
}

/// Fisher–Yates shuffle (the rand shim has no `seq` module).
fn shuffle(rng: &mut SmallRng, v: &mut [ItemId]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.random_range(0..=i));
    }
}

/// Runs `f` over every job and returns the answers in job order. The
/// jobs are split into at most `groups` contiguous groups; with
/// `first_on_caller` the first group runs on the calling thread, and
/// every other group runs on a scoped thread (named
/// `irs-engine-<group>`) joined before this returns. `f` contains its
/// own panics and answers `None` for a job that failed; a scoped thread
/// that unwinds anyway answers `None` for its whole group. A group
/// whose thread cannot be spawned runs on the calling thread instead.
fn fan_out<T: Sync, R: Send>(
    jobs: &[T],
    groups: usize,
    first_on_caller: bool,
    f: impl Fn(&T) -> Option<R> + Sync,
) -> Vec<Option<R>> {
    let groups: Vec<&[T]> = jobs
        .chunks(jobs.len().div_ceil(groups.max(1)).max(1))
        .collect();
    let (inline, threaded) = groups.split_at(usize::from(first_on_caller).min(groups.len()));
    let run = &|group: &[T]| group.iter().map(&f).collect::<Vec<_>>();
    std::thread::scope(|scope| {
        let spawned: Vec<_> = threaded
            .iter()
            .enumerate()
            .map(|(g, &group)| {
                let thread = std::thread::Builder::new()
                    .name(format!("irs-engine-{}", inline.len() + g))
                    .spawn_scoped(scope, move || run(group));
                (group, thread)
            })
            .collect();
        let mut answers: Vec<Option<R>> = inline.iter().flat_map(|&group| run(group)).collect();
        for (group, thread) in spawned {
            answers.extend(match thread {
                Ok(handle) => handle
                    .join()
                    .unwrap_or_else(|_| group.iter().map(|_| None).collect()),
                Err(_) => run(group),
            });
        }
        answers
    })
}

/// Applies one shard's slice of a mutation batch — `(position in the
/// caller's batch, mutation)` pairs — and answers `(position, result)`
/// pairs, translating ids between the shard-local space and the
/// engine's global scheme (`g = local·K + k`) in both directions.
fn apply_sub_batch<E: GridEndpoint>(
    index: &mut dyn DynIndex<E>,
    shard_id: usize,
    shards: usize,
    muts: &[(usize, Mutation<E>)],
) -> MutReplies {
    let to_global = |local: ItemId| -> ItemId { local * shards as ItemId + shard_id as ItemId };
    muts.iter()
        .map(|&(pos, m)| {
            let result = match m {
                Mutation::Insert { iv } => index
                    .insert(iv)
                    .map(|local| UpdateOutput::Inserted(to_global(local))),
                Mutation::InsertWeighted { iv, weight } => index
                    .insert_weighted(iv, weight)
                    .map(|local| UpdateOutput::Inserted(to_global(local))),
                Mutation::Delete { id } => index
                    .remove(id / shards as ItemId)
                    .map(|()| UpdateOutput::Removed)
                    // The wrapper names the local id; report the global
                    // one the caller actually sent.
                    .map_err(|e| match e {
                        UpdateError::UnknownId { .. } => UpdateError::UnknownId { id },
                        other => other,
                    }),
            };
            (pos, result)
        })
        .collect()
}

/// Phase 1 for a single query on one shard.
fn phase1_one<'a, E: GridEndpoint>(
    index: &'a dyn DynIndex<E>,
    query: &Query<E>,
    to_global: &impl Fn(ItemId) -> ItemId,
    single_shard: bool,
) -> (Partial, Option<Box<dyn DynPreparedSampler + 'a>>) {
    match *query {
        Query::Sample { q, .. } => match index.prepare(q) {
            Some(p) => {
                // AIT-V's candidate count tallies virtual slots (an upper
                // bound); proportional allocation needs the exact count —
                // except with a single shard, where the multinomial is
                // degenerate (any positive mass sends all draws here) and
                // paying an O(|q ∩ X|) enumeration would forfeit AIT-V's
                // enumeration-free sampling.
                let mass = if p.count_is_exact() || single_shard {
                    p.candidate_count() as f64
                } else {
                    index.count(q) as f64
                };
                (Partial::Mass(mass), Some(p))
            }
            None => (Partial::Unsupported, None),
        },
        Query::SampleWeighted { q, .. } => match index.prepare_weighted(q) {
            Some(p) => match p.total_weight() {
                // Weighted handles carry their allocation mass; a handle
                // without one cannot be allocated against, so the query
                // is reported unsupported rather than mis-allocated.
                Some(mass) => (Partial::Mass(mass), Some(p)),
                None => (Partial::Unsupported, None),
            },
            None => (Partial::Unsupported, None),
        },
        Query::Count { q } => (Partial::Done(QueryOutput::Count(index.count(q))), None),
        Query::Search { q } => {
            let mut ids = Vec::new();
            index.search_into(q, &mut ids);
            for id in &mut ids {
                *id = to_global(*id);
            }
            (Partial::Done(QueryOutput::Ids(ids)), None)
        }
        Query::Stab { p } => {
            let mut ids = Vec::new();
            index.stab_into(p, &mut ids);
            for id in &mut ids {
                *id = to_global(*id);
            }
            (Partial::Done(QueryOutput::Ids(ids)), None)
        }
    }
}
