//! The sharded engine: partitioning, the shared-shard concurrent read
//! path, and worker-thread shard-routed mutations.
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
//! - **Mutations run on the worker threads.** Each shard keeps one
//!   worker that owns the write side: [`Engine::apply`] routes each
//!   shard's sub-batch over a channel, and the worker applies it under
//!   the shard's *write* lock — so a query batch observes each shard
//!   either before or after a mutation sub-batch, never torn.
//!   Mutation batches themselves serialize on an internal writer lock,
//!   shared across clones.
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
//! Nothing on the query path panics — including when *index code*
//! does. Operations the engine's kind cannot serve return
//! [`QueryError::UnsupportedOperation`] / [`QueryError::NotWeighted`],
//! consistent with [`Engine::capabilities`]. A shard counts as
//! **failed** when its index has shown a bug, whichever side surfaced
//! it first:
//!
//! - its mutation worker died (index panicked mid-mutation, or the
//!   test crash hook fired): the worker's panic guard raises the
//!   shard's dead flag strictly before its channel closes, and a panic
//!   past the write guard additionally poisons the lock;
//! - its index panicked during a query batch: the calling thread
//!   contains the unwind (`catch_unwind` around the per-shard phase-1
//!   and phase-2 work), raises the same dead flag, and the batch that
//!   observed the panic fails wholesale.
//!
//! Either way the verdict is deterministic and engine-wide: every
//! query of every batch that starts after the crash returns
//! [`QueryError::ShardFailed`] (a partial cross-shard count or merge
//! would be silently wrong), and mutations routed to the dead shard
//! return [`UpdateError::ShardFailed`] without being applied — the
//! dead flag gates the mutation scatter too, so a shard marked dead on
//! the query side stops ingesting even though its worker thread still
//! runs. `Drop` of the last handle never blocks on a dead worker: live
//! workers exit on the shutdown message and dead ones have already
//! unwound, so `join` returns immediately either way.

use crate::kind::{DynIndex, IndexKind};
use crate::persist;
use crate::query::{Query, QueryOutput};
use irs_core::erased::DynPreparedSampler;
use irs_core::persist::PersistError;
use irs_core::{
    splitmix64 as mix, validate_update_weight, validate_weights, BuildError, Capabilities,
    GridEndpoint, Interval, ItemId, Mutation, Operation, QueryError, UpdateError, UpdateOutput,
};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;

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
    /// A config with `kind`, one shard per available CPU, and a fixed
    /// default seed.
    pub fn new(kind: IndexKind) -> Self {
        EngineConfig {
            kind,
            shards: crate::throughput::cpu_count(),
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

/// One shard's slice of a mutation batch.
struct MutJob<E> {
    /// `(position in the caller's batch, mutation)` pairs, in order.
    muts: Vec<(usize, Mutation<E>)>,
    /// Route inserts through the structure's insertion pool (the
    /// paper's batch insertion) instead of one-by-one.
    buffered: bool,
    reply: Sender<(usize, MutReplies)>,
}

/// Messages to a shard's mutation worker. Queries never touch the
/// channel — they run on the calling thread against the shared locks.
enum MutMsg<E> {
    Mutate(MutJob<E>),
    Shutdown,
    /// Test hook: panic the worker, simulating an index bug, to
    /// exercise the [`QueryError::ShardFailed`] paths.
    #[allow(dead_code)]
    Crash,
}

/// A shard's index behind its reader/writer lock, shared between the
/// engine handles (read side) and the shard's mutation worker (write
/// side).
type SharedIndex<E> = Arc<RwLock<Box<dyn DynIndex<E>>>>;

/// One shard: the index behind its reader/writer lock, its live
/// length, the mutation worker's channel, and the worker's health flag.
struct Shard<E> {
    /// The shard's index. Queries hold the read side; the mutation
    /// worker takes the write side per sub-batch.
    index: SharedIndex<E>,
    /// Live intervals in this shard — the load the insert router
    /// balances. Written only under the engine's writer lock; read
    /// without it, so stats never wait behind a mutation batch.
    len: AtomicUsize,
    /// Raised by the worker's panic guard *before* its channel closes,
    /// so both crash signals (flag and closed channel) agree by the
    /// time either is observable.
    dead: Arc<AtomicBool>,
    /// The mutation worker's inbox.
    tx: Sender<MutMsg<E>>,
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

/// Raises the shard's dead flag if the worker thread unwinds. Declared
/// as a body local *after* the worker's channel receiver is captured,
/// so drop order guarantees the flag is visible before the channel
/// closes (body locals drop before closure captures).
struct DeadOnPanic(Arc<AtomicBool>);

impl Drop for DeadOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

/// The state every [`Engine`] clone shares.
struct EngineShared<E> {
    shards: Vec<Shard<E>>,
    workers: Vec<JoinHandle<()>>,
    kind: IndexKind,
    /// Live intervals (build-time data plus inserts minus deletes);
    /// atomic so query-side readers never take the writer lock.
    len: AtomicUsize,
    weighted: bool,
    base_seed: u64,
    batch_counter: AtomicU64,
    /// Serializes mutation batches across clones, so the routing
    /// bookkeeping (`len`, each shard's `len`) has one writer at a
    /// time. Queries never touch it.
    writer: Mutex<()>,
    scratch: ScratchPool,
}

impl<E> EngineShared<E> {
    /// The first shard whose worker is known dead, if any — checked at
    /// batch start so a crashed shard fails queries deterministically.
    fn first_dead(&self) -> Option<usize> {
        self.shards
            .iter()
            .position(|s| s.dead.load(Ordering::SeqCst))
    }
}

impl<E> Drop for EngineShared<E> {
    fn drop(&mut self) {
        for shard in &self.shards {
            // Fails only if the worker is already gone — fine either way.
            let _ = shard.tx.send(MutMsg::Shutdown);
        }
        for handle in self.workers.drain(..) {
            // A panicked worker yields `Err`; there is nothing to do
            // with it here, and the join itself cannot block: live
            // workers exit on Shutdown, dead ones have already unwound.
            let _ = handle.join();
        }
    }
}

/// Sharded, concurrent batch query engine over any [`IndexKind`].
///
/// The handle is cheap to clone (`Arc` under the hood) and
/// `Send + Sync`: clone it into as many threads as you like and call
/// [`Engine::run`] from all of them — batches execute concurrently on
/// the calling threads over the shared shard state. Mutations
/// ([`Engine::apply`] and friends) are serialized internally across all
/// clones. The shards (and their mutation workers) shut down when the
/// last clone drops.
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
    /// Builds an engine over unweighted intervals. Shard indexes are
    /// built concurrently, one per worker thread.
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
        let mut shard_data: Vec<Vec<Interval<E>>> = vec![Vec::new(); shards];
        let shard_lens: Vec<usize> = (0..shards)
            .map(|k| data.len() / shards + usize::from(k < data.len() % shards))
            .collect();
        let mut shard_weights: Vec<Vec<f64>> = vec![Vec::new(); shards];
        for (g, iv) in data.iter().enumerate() {
            shard_data[g % shards].push(*iv);
            if let Some(w) = weights {
                shard_weights[g % shards].push(w[g]);
            }
        }

        let (ready_tx, ready_rx) = mpsc::channel();
        let mut txs = Vec::with_capacity(shards);
        let mut deads = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for (shard_id, (local, local_w)) in shard_data.into_iter().zip(shard_weights).enumerate() {
            let (tx, rx) = mpsc::channel::<MutMsg<E>>();
            let dead = Arc::new(AtomicBool::new(false));
            let ready = ready_tx.clone();
            let dead_flag = Arc::clone(&dead);
            let has_weights = weights.is_some();
            let spawned = std::thread::Builder::new()
                .name(format!("irs-shard-{shard_id}"))
                .spawn(move || {
                    let index = kind.build_index(&local, has_weights.then_some(local_w.as_slice()));
                    // The index owns its own copy; the worker lives as
                    // long as the engine, so its captures must not.
                    drop((local, local_w));
                    let lock = Arc::new(RwLock::new(index));
                    let _ = ready.send((shard_id, Arc::clone(&lock)));
                    // Body local: drops (raising the flag) before the
                    // captured `rx` drops (closing the channel) if the
                    // worker unwinds — see `DeadOnPanic`.
                    let _dead_guard = DeadOnPanic(dead_flag);
                    mutation_worker(&lock, shard_id, shards, &rx);
                });
            match spawned {
                Ok(handle) => workers.push(handle),
                // Dropping `txs` unblocks the already-started workers,
                // whose recv fails and whose threads then exit.
                Err(_) => return Err(BuildError::ShardDied { shard: shard_id }),
            }
            txs.push(tx);
            deads.push(dead);
        }
        drop(ready_tx);
        let mut locks: Vec<Option<SharedIndex<E>>> = (0..shards).map(|_| None).collect();
        for _ in 0..shards {
            match ready_rx.recv() {
                Ok((shard_id, lock)) => locks[shard_id] = Some(lock),
                Err(_) => {
                    let shard = locks.iter().position(|l| l.is_none()).unwrap_or(0);
                    return Err(BuildError::ShardDied { shard });
                }
            }
        }
        let shards_vec: Vec<Shard<E>> = locks
            .into_iter()
            .zip(shard_lens)
            .zip(txs)
            .zip(deads)
            .map(|(((lock, len), tx), dead)| Shard {
                // audit: allow(no-panic): every slot was filled above (one ready message per shard id, or we returned ShardDied)
                index: lock.expect("every shard reported ready"),
                len: AtomicUsize::new(len),
                dead,
                tx,
            })
            .collect();

        Ok(Engine {
            inner: Arc::new(EngineShared {
                shards: shards_vec,
                workers,
                kind,
                len: AtomicUsize::new(data.len()),
                weighted: weights.is_some(),
                base_seed: config.seed,
                batch_counter: AtomicU64::new(0),
                writer: Mutex::new(()),
                scratch: ScratchPool::new(),
            }),
        })
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
        // its flag was raised before its channel closed, so any caller
        // that could observe the crash observes it here.
        if let Some(shard) = inner.first_dead() {
            return vec![Err(QueryError::ShardFailed { shard }); nq];
        }

        // Read-lock every shard, in shard order. Ordered acquisition
        // makes the lock graph hierarchical: readers climb shard ids,
        // writers (the mutation workers) each hold a single lock — so
        // no reader/writer cycle can form even under a write-preferring
        // lock. A poisoned lock means a mutation panicked midway: the
        // shard is torn, which is exactly `ShardFailed`.
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
        // (the same state a worker-thread panic produces) and the
        // whole batch — plus every later batch, from every caller —
        // fails with the typed `ShardFailed` instead of unwinding into
        // the caller or silently serving from a buggy index.
        let mut phase1: Vec<Vec<Partial>> = Vec::with_capacity(shards);
        let mut prepared: Vec<Vec<Option<Box<dyn DynPreparedSampler + '_>>>> =
            Vec::with_capacity(shards);
        for (k, guard) in guards.iter().enumerate() {
            let index: &dyn DynIndex<E> = &***guard;
            let to_global = |local: ItemId| -> ItemId { local * shards as ItemId + k as ItemId };
            let shard_pass = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut partials = Vec::with_capacity(nq);
                let mut handles = Vec::with_capacity(nq);
                for query in queries {
                    let (partial, handle) = phase1_one(index, query, &to_global, shards == 1);
                    partials.push(partial);
                    handles.push(handle);
                }
                (partials, handles)
            }));
            match shard_pass {
                Ok((partials, handles)) => {
                    phase1.push(partials);
                    prepared.push(handles);
                }
                Err(_) => return self.fail_shard(k, nq),
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
                    let drew = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        handle.sample_into_dyn(rng_k as &mut dyn RngCore, n, &mut merged)
                    }));
                    if drew.is_err() {
                        inner.scratch.restore(std::mem::take(&mut scratch));
                        return self.fail_shard(k, nq);
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

    /// Applies a batch of typed [`Mutation`]s: one `Result` per
    /// mutation, in order.
    ///
    /// Routing (see the module docs): inserts go to the least-loaded
    /// shard, deletes to the shard decoded from the global id
    /// (`shard = id mod K`). Returned ids follow the engine's global-id
    /// scheme (`local·K + shard`), so they are stable for the engine's
    /// lifetime and interchangeable with the ids query results report.
    ///
    /// Mutation batches serialize on the engine's internal writer lock
    /// (shared by every clone of the handle), and each shard's
    /// sub-batch is applied by that shard's worker under the shard's
    /// *write* lock — so a concurrent query batch observes each shard
    /// either entirely before or entirely after its sub-batch, never
    /// torn. Capability gating happens up front: on a kind with
    /// `capabilities().update == false` every mutation fails with the
    /// typed [`UpdateError::UnsupportedKind`] and no worker is
    /// contacted.
    pub fn apply(&self, muts: &[Mutation<E>]) -> Vec<Result<UpdateOutput, UpdateError>> {
        self.mutate(muts, false)
    }

    /// Convenience: inserts one interval immediately (one-by-one
    /// insertion), returning its stable global id.
    pub fn insert(&self, iv: Interval<E>) -> Result<ItemId, UpdateError> {
        match self
            .mutate(&[Mutation::Insert { iv }], false)
            .swap_remove(0)?
        {
            UpdateOutput::Inserted(id) => Ok(id),
            UpdateOutput::Removed => Err(self.mutation_protocol_error()),
        }
    }

    /// Convenience: inserts one weighted interval (weight validated by
    /// the same gate as construction weights), returning its global id.
    pub fn insert_weighted(&self, iv: Interval<E>, weight: f64) -> Result<ItemId, UpdateError> {
        let muts = [Mutation::InsertWeighted { iv, weight }];
        match self.mutate(&muts, false).swap_remove(0)? {
            UpdateOutput::Inserted(id) => Ok(id),
            UpdateOutput::Removed => Err(self.mutation_protocol_error()),
        }
    }

    /// Convenience: deletes the live interval behind `id`. Deleting an
    /// id that was never issued (or already deleted) is
    /// [`UpdateError::UnknownId`]; a retired id is never reissued.
    pub fn remove(&self, id: ItemId) -> Result<(), UpdateError> {
        self.mutate(&[Mutation::Delete { id }], false)
            .swap_remove(0)
            .map(|_| ())
    }

    /// Inserts a batch of intervals through the structures' insertion
    /// pools (the paper's §III-D batch insertion): each interval is
    /// immediately visible to queries, while tree maintenance is
    /// amortized across pool flushes. Returns the new global ids, in
    /// input order.
    ///
    /// All-or-nothing: if any insert fails (a dead shard, an
    /// unsupported kind), the inserts that did land are rolled back
    /// (best effort — their shards answered, so their deletes route)
    /// and the first error is returned, so an `Err` never strands
    /// intervals the caller has no ids for.
    pub fn extend_batch(&self, ivs: &[Interval<E>]) -> Result<Vec<ItemId>, UpdateError> {
        let muts: Vec<Mutation<E>> = ivs.iter().map(|&iv| Mutation::Insert { iv }).collect();
        let mut ids = Vec::with_capacity(ivs.len());
        let mut first_err = None;
        for result in self.mutate(&muts, true) {
            match result {
                Ok(UpdateOutput::Inserted(id)) => ids.push(id),
                Ok(UpdateOutput::Removed) => {
                    first_err.get_or_insert(self.mutation_protocol_error());
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
                let _ = self.mutate(&rollback, false);
                Err(e)
            }
        }
    }

    /// Routes, scatters, and gathers one mutation batch. `buffered`
    /// selects pooled insertion. Holds the writer lock end to end, so
    /// batches from different clones serialize and the routing
    /// bookkeeping stays consistent.
    fn mutate(
        &self,
        muts: &[Mutation<E>],
        buffered: bool,
    ) -> Vec<Result<UpdateOutput, UpdateError>> {
        if muts.is_empty() {
            return Vec::new();
        }
        let inner = &*self.inner;
        let shards = inner.shards.len();
        let _writer = inner.writer.lock().unwrap_or_else(|e| e.into_inner());
        let mut results: Vec<Option<Result<UpdateOutput, UpdateError>>> = vec![None; muts.len()];
        let mut owner: Vec<usize> = vec![0; muts.len()];
        let mut per_shard: Vec<Vec<(usize, Mutation<E>)>> = vec![Vec::new(); shards];
        // Route against a projection of live counts, so a batch of
        // inserts spreads across shards instead of piling on one.
        let mut lens = self.shard_lens();
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

        // Scatter each shard its sub-batch. A shard whose dead flag is
        // raised (its worker panicked, or its index panicked on the
        // query path) gets nothing: its mutations fail typed, without
        // being applied — even if the worker thread itself is still
        // alive. Otherwise a send that fails means the worker is dead,
        // with the same verdict.
        let (reply_tx, reply_rx) = mpsc::channel();
        let mut expected = 0usize;
        for (k, batch) in per_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            if inner.shards[k].dead.load(Ordering::SeqCst) {
                for (i, _) in batch {
                    results[i] = Some(Err(UpdateError::ShardFailed { shard: k }));
                }
                continue;
            }
            let positions: Vec<usize> = batch.iter().map(|&(i, _)| i).collect();
            let sent = inner.shards[k].tx.send(MutMsg::Mutate(MutJob {
                muts: batch,
                buffered,
                reply: reply_tx.clone(),
            }));
            if sent.is_err() {
                for i in positions {
                    results[i] = Some(Err(UpdateError::ShardFailed { shard: k }));
                }
            } else {
                expected += 1;
            }
        }
        drop(reply_tx);

        // Gather. A shard that dies mid-batch closes the reply channel;
        // its positions fall through to the `ShardFailed` fallback.
        for _ in 0..expected {
            let Ok((k, entries)) = reply_rx.recv() else {
                break;
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
            // Single writer (the lock above), so load-then-store is exact.
            for counter in [&inner.len, &inner.shards[k].len] {
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

    /// Marks `shard` failed — the same state a worker-thread panic
    /// produces, observed by every later query and mutation batch from
    /// every clone — and fails the current batch wholesale.
    fn fail_shard(&self, shard: usize, nq: usize) -> Vec<Result<QueryOutput, QueryError>> {
        self.inner.shards[shard].dead.store(true, Ordering::SeqCst);
        vec![Err(QueryError::ShardFailed { shard }); nq]
    }

    /// A mismatched update output can only mean an engine bug; report
    /// it as a typed error rather than panicking the caller.
    fn mutation_protocol_error(&self) -> UpdateError {
        UpdateError::UnsupportedKind {
            kind: self.inner.kind.name(),
            reason: "engine protocol error: mismatched update output variant",
        }
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

    /// Test hook: kill one shard's worker thread, simulating an index
    /// bug, so suites can exercise the [`QueryError::ShardFailed`] and
    /// non-hanging `Drop` paths. Hidden, not deprecated: not part of
    /// the supported API.
    #[doc(hidden)]
    pub fn crash_shard_for_tests(&self, shard: usize) {
        let Some(sh) = self.inner.shards.get(shard) else {
            return;
        };
        let _ = sh.tx.send(MutMsg::Crash);
        // Wait for the worker to actually die. The dead flag is raised
        // strictly before the channel closes (drop order in the worker
        // closure), so once a send fails, the next `run` — from any
        // thread — observes the crash rather than racing it.
        while sh.tx.send(MutMsg::Crash).is_ok() {
            std::thread::yield_now();
        }
    }
}

/// Snapshot persistence: the directory-level save/load pair. See the
/// [`crate::persist`] module for the file layout and `DESIGN.md` for
/// the byte-level format.
impl<E: GridEndpoint> Engine<E> {
    /// Saves the engine to `dir` (created if absent): a manifest plus
    /// one file per shard, each CRC-framed (see [`crate::persist`]).
    ///
    /// The snapshot is **consistent**: the engine's writer lock is held
    /// for the duration, so no mutation batch can land between two
    /// shard files, and the manifest's lengths agree with the shard
    /// payloads. Queries keep running concurrently (each shard is read
    /// under its shared read lock). A loaded copy is byte-equivalent:
    /// [`Engine::run_seeded`] replays identically, and ids issued
    /// before the save stay valid after the load.
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<(), PersistError> {
        let dir = dir.as_ref();
        let inner = &*self.inner;
        if inner.first_dead().is_some() {
            return Err(PersistError::Unsupported {
                reason: "a shard has failed; its state cannot be trusted on disk",
            });
        }
        // Freeze mutations (queries proceed): shard payloads, `len`,
        // and the router's per-shard lengths must agree.
        let _writer = inner.writer.lock().unwrap_or_else(|e| e.into_inner());
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
            shard_lens: self.shard_lens(),
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

    /// Loads an engine from a directory written by [`Engine::save`]
    /// (which is also what `irs-client`'s `Client::save` calls).
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
        let mut indexes: Vec<Box<dyn DynIndex<E>>> = Vec::with_capacity(manifest.shards);
        for k in 0..manifest.shards {
            let shard = persist::read_shard_payload(dir, &manifest, k)?;
            let mut r = irs_core::persist::Reader::new(shard.payload());
            let index = kind.decode_index::<E>(&mut r, manifest.weighted)?;
            if !r.is_empty() {
                return Err(PersistError::Corrupt {
                    what: "index section has trailing bytes",
                });
            }
            indexes.push(index);
        }
        Self::from_restored(indexes, kind, &manifest).map_err(|e| PersistError::io(dir, &e))
    }

    /// Assembles a live engine around already-decoded shard indexes:
    /// the locks, dead flags, and one mutation worker per shard — the
    /// same runtime state [`Engine::try_new`] builds, minus the index
    /// construction.
    fn from_restored(
        indexes: Vec<Box<dyn DynIndex<E>>>,
        kind: IndexKind,
        manifest: &persist::Manifest,
    ) -> std::io::Result<Self> {
        let shards = indexes.len();
        let mut shards_vec = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for (shard_id, (index, &len)) in indexes.into_iter().zip(&manifest.shard_lens).enumerate() {
            let lock = Arc::new(RwLock::new(index));
            let (tx, rx) = mpsc::channel::<MutMsg<E>>();
            let dead = Arc::new(AtomicBool::new(false));
            let dead_flag = Arc::clone(&dead);
            let worker_lock = Arc::clone(&lock);
            let handle = std::thread::Builder::new()
                .name(format!("irs-shard-{shard_id}"))
                .spawn(move || {
                    // Body local: drops (raising the flag) before the
                    // captured `rx` drops (closing the channel) if the
                    // worker unwinds — see `DeadOnPanic`.
                    let _dead_guard = DeadOnPanic(dead_flag);
                    mutation_worker(&worker_lock, shard_id, shards, &rx);
                })?;
            workers.push(handle);
            shards_vec.push(Shard {
                index: lock,
                len: AtomicUsize::new(len),
                dead,
                tx,
            });
        }
        Ok(Engine {
            inner: Arc::new(EngineShared {
                shards: shards_vec,
                workers,
                kind,
                len: AtomicUsize::new(manifest.len),
                weighted: manifest.weighted,
                base_seed: manifest.seed,
                batch_counter: AtomicU64::new(manifest.batch_counter),
                writer: Mutex::new(()),
                scratch: ScratchPool::new(),
            }),
        })
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

/// The per-shard mutation worker: owns the write side of its shard's
/// lock and applies mutation sub-batches until shutdown. Queries never
/// pass through here — they run on caller threads under the read side.
/// Local ids are translated to global ids with the round-robin stride
/// mapping before leaving the shard.
fn mutation_worker<E: GridEndpoint>(
    lock: &RwLock<Box<dyn DynIndex<E>>>,
    shard_id: usize,
    shards: usize,
    rx: &Receiver<MutMsg<E>>,
) {
    loop {
        match rx.recv() {
            Ok(MutMsg::Mutate(job)) => {
                // Write-lock for the whole sub-batch: concurrent query
                // batches see this shard entirely before or entirely
                // after it. Only this worker ever writes the lock, and
                // a panic kills the worker, so the lock cannot be
                // poisoned by the time this succeeds — `into_inner` is
                // a formality, not a recovery path.
                let mut guard = lock.write().unwrap_or_else(|e| e.into_inner());
                apply_mut_job(guard.as_mut(), shard_id, shards, job);
            }
            // audit: allow(no-panic): deliberate crash hook, reachable only through the test-only crash_shard entry point
            Ok(MutMsg::Crash) => panic!("shard {shard_id}: crash requested by test hook"),
            Ok(MutMsg::Shutdown) | Err(_) => return,
        }
    }
}

/// Applies one shard's slice of a mutation batch, translating ids
/// between the shard-local space and the engine's global scheme
/// (`g = local·K + k`) in both directions.
fn apply_mut_job<E: GridEndpoint>(
    index: &mut dyn DynIndex<E>,
    shard_id: usize,
    shards: usize,
    job: MutJob<E>,
) {
    let MutJob {
        muts,
        buffered,
        reply,
    } = job;
    let to_global = |local: ItemId| -> ItemId { local * shards as ItemId + shard_id as ItemId };
    let entries: Vec<(usize, Result<UpdateOutput, UpdateError>)> = muts
        .into_iter()
        .map(|(pos, m)| {
            let result = match m {
                Mutation::Insert { iv } => if buffered {
                    index.insert_buffered(iv)
                } else {
                    index.insert(iv)
                }
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
        .collect();
    let _ = reply.send((shard_id, entries));
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
