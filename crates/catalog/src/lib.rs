//! Multi-tenant catalog over the IRS engine: **named collections**,
//! a **global memory budget**, workload-driven **index-kind
//! selection**, and **online re-indexing**.
//!
//! The paper's index structures each win on a different workload
//! (query extent, update rate, weighted vs. uniform), but an `Engine`
//! serves exactly one dataset. A [`Catalog`] serves many: each named
//! collection owns its own backend (its [`IndexKind`], shard count, and
//! seed), and the catalog handle — `Clone + Send + Sync`, shared by
//! every server connection — routes queries and mutations by name.
//!
//! Four properties define the subsystem:
//!
//! - **Budgeted admission.** The catalog can carry a global memory
//!   budget. Collections are accounted by their indexes' deterministic
//!   deep-size estimate (`DynIndex::heap_bytes`); a creation or an
//!   insert batch that would cross the budget is refused with the typed
//!   [`CatalogError::BudgetExceeded`] — never an abort, never an OOM.
//! - **Adaptive planning.** A collection created with
//!   [`KindSpec::Auto`] declares [`WorkloadHints`] instead of an index
//!   kind; the [`planner`] picks one from the capability table plus a
//!   static cost model over frozen throughput rows (see the planner's
//!   docs for where they came from). Churning hints always land on an
//!   update-capable kind; read-only hints on a static one.
//! - **Online re-index.** [`Catalog::reindex`] rebuilds a collection on
//!   a different kind while readers keep flowing: the current backend
//!   is snapshotted, the replacement is built from the live set, and
//!   the swap is atomic under the collection's writer seat (the backend
//!   engine's [`Engine::writer`] seat). The
//!   **global-id contract survives**: ids issued before the swap stay
//!   valid after it, through a per-collection id remap that the query
//!   and mutation paths translate through.
//! - **One-manifest persistence.** [`Catalog::save`] writes every
//!   collection's snapshot plus a single catalog manifest
//!   (`catalog.irs`, PR-5 codec); [`Catalog::load`] restores the whole
//!   tenancy — seeded replay after the round trip is byte-identical.
//!
//! Lock order inside a collection is writer seat → `state` (backend) →
//! `book` (id bookkeeping), everywhere, and nothing waits for the seat
//! while holding `state`: queries hold the state read lock across run
//! *and* translate, so the atomic swap (which takes the state write
//! lock before touching the book) can never tear a response between an
//! old backend and a new remap.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod persist;
pub mod planner;

pub use irs_core::{validate_collection_name, CatalogError};
pub use persist::{
    read_catalog_manifest, CatalogManifest, CollectionRecord, CATALOG_MANIFEST_FILE,
};

use irs_core::{GridEndpoint, Interval, ItemId, Mutation, QueryError, UpdateError, UpdateOutput};
use irs_engine::{Engine, EngineWriter, IndexKind, Irs, Query, QueryOutput};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Declared workload shape for [`KindSpec::Auto`]: the planner's
/// inputs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadHints {
    /// Expected fraction of operations that mutate, in `[0, 1]`.
    /// Anything above zero restricts planning to update-capable kinds.
    pub update_rate: f64,
    /// Whether sampling must be weight-proportional (Problem 2).
    pub weighted: bool,
    /// Expected fraction of the domain one query covers, in `[0, 1]`.
    /// Blends the cost model between the bench matrix's sampling and
    /// enumeration columns.
    pub expected_extent: f64,
}

impl Default for WorkloadHints {
    fn default() -> Self {
        WorkloadHints {
            update_rate: 0.0,
            weighted: false,
            expected_extent: 0.001,
        }
    }
}

impl WorkloadHints {
    fn validate(&self) -> Result<(), CatalogError> {
        let unit = |v: f64| v.is_finite() && (0.0..=1.0).contains(&v);
        if !unit(self.update_rate) {
            return Err(CatalogError::InvalidSpec {
                reason: format!("update_rate {} is not in [0, 1]", self.update_rate),
            });
        }
        if !unit(self.expected_extent) {
            return Err(CatalogError::InvalidSpec {
                reason: format!("expected_extent {} is not in [0, 1]", self.expected_extent),
            });
        }
        Ok(())
    }
}

/// How a collection chooses its index structure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KindSpec {
    /// This exact kind.
    Fixed(IndexKind),
    /// Let the [`planner`] choose from declared workload hints.
    Auto(WorkloadHints),
}

/// Everything needed to create one collection.
#[derive(Clone, Debug)]
pub struct CollectionSpec<E> {
    /// Collection name (validated by [`validate_collection_name`]).
    pub name: String,
    /// Index-kind choice: fixed or planner-driven.
    pub kind: KindSpec,
    /// Shard count for the backend.
    pub shards: usize,
    /// Seed for every draw stream the backend derives.
    pub seed: u64,
    /// Initial dataset; `data[i]` gets global id `i`.
    pub data: Vec<Interval<E>>,
    /// Per-interval weights (`weights[i]` belongs to `data[i]`); `Some`
    /// makes the collection weighted. An empty weighted collection is
    /// declared with `Some(vec![])`.
    pub weights: Option<Vec<f64>>,
}

impl<E> CollectionSpec<E> {
    /// A spec with planner-chosen kind, one shard, seed 0, and no data.
    pub fn new(name: impl Into<String>) -> Self {
        CollectionSpec {
            name: name.into(),
            kind: KindSpec::Auto(WorkloadHints::default()),
            shards: 1,
            seed: 0,
            data: Vec::new(),
            weights: None,
        }
    }

    /// Sets the kind choice.
    pub fn kind(mut self, kind: KindSpec) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the shard count (clamped to at least 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the initial dataset.
    pub fn data(mut self, data: Vec<Interval<E>>) -> Self {
        self.data = data;
        self
    }

    /// Sets per-interval weights (making the collection weighted).
    pub fn weights(mut self, weights: Vec<f64>) -> Self {
        self.weights = Some(weights);
        self
    }
}

/// A point-in-time description of one collection.
#[derive(Clone, Debug, PartialEq)]
pub struct CollectionInfo {
    /// The collection's name.
    pub name: String,
    /// The index kind currently serving it (planner-chosen for `auto`
    /// collections, and updated by [`Catalog::reindex`]).
    pub kind: IndexKind,
    /// Backend shard count.
    pub shards: usize,
    /// Live intervals.
    pub len: usize,
    /// Whether the collection is weighted.
    pub weighted: bool,
    /// Estimated heap bytes its indexes retain (the budget's unit).
    pub heap_bytes: usize,
    /// The workload hints it was created with, if planner-driven.
    pub auto: Option<WorkloadHints>,
    /// The seed its draw streams derive from.
    pub seed: u64,
}

/// Per-collection id remap, created by the first re-index. Before any
/// re-index the backend's ids *are* the global ids and no map exists.
#[derive(Clone, Debug, Default)]
struct IdMap {
    /// Backend id → global id.
    to_global: HashMap<ItemId, ItemId>,
    /// Global id → backend id.
    to_backend: HashMap<ItemId, ItemId>,
}

/// Id bookkeeping: the live set keyed by global id (the rebuild source
/// and the delete gate) plus the optional remap.
///
/// For a weighted static `awit` collection, `live` is the only exact
/// copy of the weights: the AWIT keeps prefix sums alone, in memory and
/// in its snapshot section. Prefix differences do not give the weights
/// back. Over 2 000 entries, 1 988 of U(0,1) weights came back wrong;
/// with weights mixing 1e-9 and 1e6 scales, 20 came back ≤ 0, which a
/// rebuild refuses.
struct Book<E> {
    live: BTreeMap<ItemId, (Interval<E>, f64)>,
    remap: Option<IdMap>,
    /// Next global id to issue once a remap exists; kept ≥ every id the
    /// backend ever issued so retired ids are never reissued.
    next_global: ItemId,
}

/// The swappable backend state.
struct BackendState<E> {
    engine: Engine<E>,
    /// Bumped by every re-index swap, so a writer that waited on the
    /// old engine's seat can tell it was replaced.
    generation: u64,
}

struct Collection<E> {
    name: String,
    shards: usize,
    seed: u64,
    weighted: bool,
    auto: Option<WorkloadHints>,
    state: RwLock<BackendState<E>>,
    book: Mutex<Book<E>>,
    reindexing: AtomicBool,
}

impl<E: GridEndpoint> Collection<E> {
    fn engine(&self) -> Engine<E> {
        self.state
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .engine
            .clone()
    }

    fn heap_bytes(&self) -> usize {
        self.state
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .engine
            .heap_bytes()
    }

    /// Runs `f` in the collection's writer seat — the current engine's
    /// [`Engine::writer`] seat. Mutations, re-index and save serialize
    /// here, so the live set in the book stays in step with the engine.
    /// The seat is awaited without the state lock held (a re-index
    /// takes the state write lock while holding the seat); if a
    /// re-index swapped the engine meanwhile, the claim is retried on
    /// the new one. Holding the seat rules out further swaps.
    fn with_writer<R>(&self, f: impl FnOnce(&mut EngineWriter<'_, E>) -> R) -> R {
        loop {
            let (engine, generation) = {
                let st = self.state.read().unwrap_or_else(|e| e.into_inner());
                (st.engine.clone(), st.generation)
            };
            let mut writer = engine.writer();
            let st = self.state.read().unwrap_or_else(|e| e.into_inner());
            if st.generation == generation {
                drop(st);
                return f(&mut writer);
            }
        }
    }

    fn info(&self) -> CollectionInfo {
        let st = self.state.read().unwrap_or_else(|e| e.into_inner());
        CollectionInfo {
            name: self.name.clone(),
            kind: st.engine.kind(),
            shards: self.shards,
            len: st.engine.len(),
            weighted: self.weighted,
            heap_bytes: st.engine.heap_bytes(),
            auto: self.auto,
            seed: self.seed,
        }
    }
}

struct CatalogShared<E> {
    budget: Option<usize>,
    collections: RwLock<BTreeMap<String, Arc<Collection<E>>>>,
}

/// The shared multi-tenant handle: named collections behind one
/// `Clone + Send + Sync` value. Clones share all state — a server
/// thread per connection, a CLI process, and an embedding application
/// all see the same tenancy.
pub struct Catalog<E> {
    inner: Arc<CatalogShared<E>>,
}

impl<E> Clone for Catalog<E> {
    fn clone(&self) -> Self {
        Catalog {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// The collection name single-tenant (pre-catalog) wire requests are
/// routed to when a server fronts a catalog: a plain `Run`/`Apply`
/// frame behaves as if tagged with this collection.
pub const DEFAULT_COLLECTION: &str = "default";

/// Per-insert admission estimate: what one more live interval is
/// assumed to cost across the index, its node overhead, and the
/// catalog's own bookkeeping. Deliberately generous — the budget is a
/// refusal threshold, not an accounting ledger.
fn insert_estimate<E>() -> usize {
    4 * std::mem::size_of::<Interval<E>>() + 64
}

impl<E: GridEndpoint> Default for Catalog<E> {
    fn default() -> Self {
        Catalog::new()
    }
}

impl<E: GridEndpoint> Catalog<E> {
    /// An empty catalog with no memory budget.
    pub fn new() -> Self {
        Catalog {
            inner: Arc::new(CatalogShared {
                budget: None,
                collections: RwLock::new(BTreeMap::new()),
            }),
        }
    }

    /// An empty catalog whose collections may retain at most
    /// `budget_bytes` of estimated index heap memory in total.
    pub fn with_budget(budget_bytes: usize) -> Self {
        Catalog {
            inner: Arc::new(CatalogShared {
                budget: Some(budget_bytes),
                collections: RwLock::new(BTreeMap::new()),
            }),
        }
    }

    /// The configured budget, if any.
    pub fn budget_bytes(&self) -> Option<usize> {
        self.inner.budget
    }

    /// Estimated heap bytes currently retained across all collections
    /// — the figure admission checks compare against the budget.
    pub fn used_bytes(&self) -> usize {
        let map = self
            .inner
            .collections
            .read()
            .unwrap_or_else(|e| e.into_inner());
        map.values().map(|c| c.heap_bytes()).sum()
    }

    fn get(&self, name: &str) -> Result<Arc<Collection<E>>, CatalogError> {
        let map = self
            .inner
            .collections
            .read()
            .unwrap_or_else(|e| e.into_inner());
        map.get(name)
            .cloned()
            .ok_or_else(|| CatalogError::UnknownCollection {
                name: name.to_string(),
            })
    }

    /// Resolves the kind a spec asks for, enforcing data/kind
    /// compatibility (the planner handles `Auto`).
    fn resolve_kind(
        name: &str,
        kind: &KindSpec,
        weighted: bool,
        n: usize,
    ) -> Result<IndexKind, CatalogError> {
        match kind {
            KindSpec::Fixed(k) => {
                if weighted && !k.capabilities(true).weighted_sample {
                    return Err(CatalogError::IncompatibleKind {
                        name: name.to_string(),
                        kind: k.name().to_string(),
                        reason: "the kind cannot sample by weight; weighted collections \
                                 need awit, awit-dynamic, or kds",
                    });
                }
                Ok(*k)
            }
            KindSpec::Auto(hints) => {
                hints.validate()?;
                if hints.weighted != weighted {
                    return Err(CatalogError::InvalidSpec {
                        reason: "the hints' weighted flag disagrees with whether \
                                 weights were supplied"
                            .to_string(),
                    });
                }
                Ok(planner::choose(hints, n))
            }
        }
    }

    /// Creates a collection from `spec` and reports its initial shape.
    ///
    /// Refuses with a typed [`CatalogError`] on an invalid name, a
    /// duplicate name, a kind that cannot serve the data, invalid
    /// hints, or a build that would cross the budget. `spec.data[i]`
    /// receives global id `i`, exactly like building an `Engine` over
    /// the same slice.
    pub fn create(&self, spec: CollectionSpec<E>) -> Result<CollectionInfo, CatalogError> {
        validate_collection_name(&spec.name)?;
        {
            let map = self
                .inner
                .collections
                .read()
                .unwrap_or_else(|e| e.into_inner());
            if map.contains_key(&spec.name) {
                return Err(CatalogError::CollectionExists { name: spec.name });
            }
        }
        let weighted = spec.weights.is_some();
        let kind = Self::resolve_kind(&spec.name, &spec.kind, weighted, spec.data.len())?;
        let auto = match spec.kind {
            KindSpec::Auto(h) => Some(h),
            KindSpec::Fixed(_) => None,
        };

        let mut builder = Irs::builder()
            .kind(kind)
            .shards(spec.shards)
            .seed(spec.seed);
        if let Some(w) = &spec.weights {
            builder = builder.weights(w.clone());
        }
        let engine = builder
            .build(&spec.data)
            .map_err(|e| CatalogError::InvalidSpec {
                reason: e.to_string(),
            })?;

        let live: BTreeMap<ItemId, (Interval<E>, f64)> = spec
            .data
            .iter()
            .enumerate()
            .map(|(i, iv)| {
                let w = spec.weights.as_ref().map_or(1.0, |w| w[i]);
                (i as ItemId, (*iv, w))
            })
            .collect();
        let collection = Arc::new(Collection {
            name: spec.name.clone(),
            shards: spec.shards.max(1),
            seed: spec.seed,
            weighted,
            auto,
            state: RwLock::new(BackendState {
                engine,
                generation: 0,
            }),
            book: Mutex::new(Book {
                live,
                remap: None,
                next_global: spec.data.len() as ItemId,
            }),
            reindexing: AtomicBool::new(false),
        });

        // Admission and insertion are one critical section, so two
        // racing creates cannot both pass the budget check.
        let mut map = self
            .inner
            .collections
            .write()
            .unwrap_or_else(|e| e.into_inner());
        if map.contains_key(&spec.name) {
            return Err(CatalogError::CollectionExists { name: spec.name });
        }
        if let Some(budget) = self.inner.budget {
            let used: usize = map.values().map(|c| c.heap_bytes()).sum();
            let requested = collection.heap_bytes();
            if used.saturating_add(requested) > budget {
                return Err(CatalogError::BudgetExceeded {
                    name: spec.name,
                    requested_bytes: requested,
                    used_bytes: used,
                    budget_bytes: budget,
                });
            }
        }
        let info = collection.info();
        map.insert(spec.name, collection);
        Ok(info)
    }

    /// Removes a collection; its memory is released once in-flight
    /// queries holding the handle finish.
    pub fn drop_collection(&self, name: &str) -> Result<(), CatalogError> {
        let mut map = self
            .inner
            .collections
            .write()
            .unwrap_or_else(|e| e.into_inner());
        map.remove(name)
            .map(|_| ())
            .ok_or_else(|| CatalogError::UnknownCollection {
                name: name.to_string(),
            })
    }

    /// Describes every collection, sorted by name.
    pub fn list(&self) -> Vec<CollectionInfo> {
        let map = self
            .inner
            .collections
            .read()
            .unwrap_or_else(|e| e.into_inner());
        map.values().map(|c| c.info()).collect()
    }

    /// Describes one collection.
    pub fn describe(&self, name: &str) -> Result<CollectionInfo, CatalogError> {
        Ok(self.get(name)?.info())
    }

    /// Runs a query batch against a collection on its own draw stream;
    /// one result per query, in order.
    pub fn run_in(
        &self,
        name: &str,
        queries: &[Query<E>],
    ) -> Result<Vec<Result<QueryOutput, QueryError>>, CatalogError> {
        let coll = self.get(name)?;
        let st = coll.state.read().unwrap_or_else(|e| e.into_inner());
        let results = st.engine.run(queries);
        Ok(translate_outputs(&coll, results))
    }

    /// Runs a query batch on an explicit seed. With a remap in place
    /// (after a re-index), translated ids are still deterministic:
    /// the same seed, batch, and collection state replay byte-identical
    /// results.
    pub fn run_seeded_in(
        &self,
        name: &str,
        queries: &[Query<E>],
        seed: u64,
    ) -> Result<Vec<Result<QueryOutput, QueryError>>, CatalogError> {
        let coll = self.get(name)?;
        let st = coll.state.read().unwrap_or_else(|e| e.into_inner());
        let results = st.engine.run_seeded(queries, seed);
        Ok(translate_outputs(&coll, results))
    }

    /// Applies a mutation batch to a collection under its writer seat;
    /// one result per mutation, in order. Ids in inputs and outputs are
    /// **global** ids — stable across re-indexes.
    ///
    /// An insert batch that would cross the catalog budget is refused
    /// whole with [`CatalogError::BudgetExceeded`] before any mutation
    /// lands; per-mutation failures (unknown id, unsupported kind)
    /// surface inside the result vector, exactly like `Engine::apply`.
    pub fn apply_in(
        &self,
        name: &str,
        muts: &[Mutation<E>],
    ) -> Result<Vec<Result<UpdateOutput, UpdateError>>, CatalogError> {
        let coll = self.get(name)?;
        coll.with_writer(|writer| {
            if let Some(budget) = self.inner.budget {
                let inserts = muts
                    .iter()
                    .filter(|m| !matches!(m, Mutation::Delete { .. }))
                    .count();
                if inserts > 0 {
                    let used = self.used_bytes();
                    let requested = inserts * insert_estimate::<E>();
                    if used.saturating_add(requested) > budget {
                        return Err(CatalogError::BudgetExceeded {
                            name: name.to_string(),
                            requested_bytes: requested,
                            used_bytes: used,
                            budget_bytes: budget,
                        });
                    }
                }
            }
            let mut book = coll.book.lock().unwrap_or_else(|e| e.into_inner());
            Ok(muts
                .iter()
                .map(|m| apply_one(writer, &mut book, *m))
                .collect())
        })
    }

    /// Rebuilds a collection on a different index kind and atomically
    /// swaps it in, while readers keep flowing on the old backend.
    ///
    /// The protocol: (1) take the collection's writer seat, freezing
    /// the live set (queries are untouched); (2) snapshot the current
    /// backend to `snapshot_dir` — or a scratch directory — so the
    /// collection survives a crash mid-rebuild; (3) build the
    /// replacement from the live set on the new kind; (4) swap backend
    /// and id remap together under the state write lock. Ids issued
    /// before the swap stay valid after it, and the next insert
    /// continues the global id sequence.
    pub fn reindex(
        &self,
        name: &str,
        kind: IndexKind,
        snapshot_dir: Option<&Path>,
    ) -> Result<CollectionInfo, CatalogError> {
        let coll = self.get(name)?;
        if coll
            .reindexing
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return Err(CatalogError::ReindexInProgress {
                name: name.to_string(),
            });
        }
        let result = self.reindex_locked(&coll, kind, snapshot_dir);
        coll.reindexing.store(false, Ordering::SeqCst);
        result
    }

    fn reindex_locked(
        &self,
        coll: &Arc<Collection<E>>,
        kind: IndexKind,
        snapshot_dir: Option<&Path>,
    ) -> Result<CollectionInfo, CatalogError> {
        if coll.weighted && !kind.capabilities(true).weighted_sample {
            return Err(CatalogError::IncompatibleKind {
                name: coll.name.clone(),
                kind: kind.name().to_string(),
                reason: "the kind cannot sample by weight, and this collection is weighted",
            });
        }
        if let Some(hints) = &coll.auto {
            if hints.update_rate > 0.0 && !kind.capabilities(coll.weighted).update {
                return Err(CatalogError::IncompatibleKind {
                    name: coll.name.clone(),
                    kind: kind.name().to_string(),
                    reason: "the collection declared a churning workload, and this \
                             kind is a static snapshot",
                });
            }
        }

        // Writers stall on the seat until the swap completes; readers
        // flow.
        coll.with_writer(|seat| self.rebuild(coll, kind, snapshot_dir, seat))
    }

    /// Steps (2)–(4) of [`Catalog::reindex`], in the collection's writer
    /// seat.
    fn rebuild(
        &self,
        coll: &Collection<E>,
        kind: IndexKind,
        snapshot_dir: Option<&Path>,
        seat: &mut EngineWriter<'_, E>,
    ) -> Result<CollectionInfo, CatalogError> {
        let Some(snap_dir) = snapshot_dir else {
            // The scratch snapshot only guards against a crash: once the
            // swap is done, or refused with the old backend still live,
            // nothing reads it.
            let scratch = scratch_snapshot_dir(&coll.name);
            let result = self.rebuild(coll, kind, Some(&scratch), seat);
            let _ = std::fs::remove_dir_all(&scratch);
            return result;
        };
        // Durability first: the old backend goes to disk before the
        // rebuild, so a crash mid-rebuild loses nothing.
        std::fs::create_dir_all(snap_dir)
            .map_err(|e| CatalogError::Persist(irs_core::PersistError::io(snap_dir, &e)))?;
        seat.save(snap_dir)?;

        // The live set is frozen (writer seat held); rebuild in global
        // id order so `data[i]` lands on backend id `i` on any kind.
        let (ids, data, weights): (Vec<ItemId>, Vec<Interval<E>>, Vec<f64>) = {
            let book = coll.book.lock().unwrap_or_else(|e| e.into_inner());
            let mut ids = Vec::with_capacity(book.live.len());
            let mut data = Vec::with_capacity(book.live.len());
            let mut weights = Vec::with_capacity(book.live.len());
            for (&g, &(iv, w)) in &book.live {
                ids.push(g);
                data.push(iv);
                weights.push(w);
            }
            (ids, data, weights)
        };
        let mut builder = Irs::builder()
            .kind(kind)
            .shards(coll.shards)
            .seed(coll.seed);
        if coll.weighted {
            builder = builder.weights(weights);
        }
        let fresh = builder
            .build(&data)
            .map_err(|e| CatalogError::InvalidSpec {
                reason: e.to_string(),
            })?;

        if let Some(budget) = self.inner.budget {
            let old = coll.heap_bytes();
            let new = fresh.heap_bytes();
            let used = self.used_bytes().saturating_sub(old);
            if used.saturating_add(new) > budget {
                return Err(CatalogError::BudgetExceeded {
                    name: coll.name.clone(),
                    requested_bytes: new,
                    used_bytes: used,
                    budget_bytes: budget,
                });
            }
        }

        // Atomic swap: backend and remap change together, under the
        // state write lock (no reader can be between run and translate)
        // then the book lock.
        {
            let mut st = coll.state.write().unwrap_or_else(|e| e.into_inner());
            let mut book = coll.book.lock().unwrap_or_else(|e| e.into_inner());
            let mut remap = IdMap::default();
            for (backend, &global) in ids.iter().enumerate() {
                remap.to_global.insert(backend as ItemId, global);
                remap.to_backend.insert(global, backend as ItemId);
            }
            book.remap = Some(remap);
            st.engine = fresh;
            st.generation += 1;
        }
        Ok(coll.info())
    }

    /// Saves one collection's backend to `dir` in the single-tenant
    /// snapshot layout (loadable by `Engine::load`) — the back-compat
    /// form of `save` a catalog-fronting server answers plain `Save`
    /// requests with.
    pub fn save_collection_snapshot(
        &self,
        name: &str,
        dir: impl AsRef<Path>,
    ) -> Result<(), CatalogError> {
        // A handle, not the state lock: saving waits for the seat.
        self.get(name)?.engine().save(dir)?;
        Ok(())
    }

    /// Saves every collection plus one catalog manifest to `dir`:
    /// `<dir>/collections/<name>/` per collection (the PR-5 snapshot
    /// layout) and `<dir>/catalog.irs` last, so an interrupted save
    /// leaves the previous manifest rather than a manifest over missing
    /// snapshots.
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<(), CatalogError> {
        persist::save(self, dir.as_ref())
    }

    /// Restores a catalog saved by [`Catalog::save`]: the budget, every
    /// collection's backend, and the id bookkeeping — seeded replay
    /// after the round trip is byte-identical on every collection.
    pub fn load(dir: impl AsRef<Path>) -> Result<Self, CatalogError> {
        persist::load(dir.as_ref())
    }

    /// Rebuilds the internal state from persisted parts (the load
    /// path's constructor).
    fn from_parts(
        budget: Option<usize>,
        collections: BTreeMap<String, Arc<Collection<E>>>,
    ) -> Self {
        Catalog {
            inner: Arc::new(CatalogShared {
                budget,
                collections: RwLock::new(collections),
            }),
        }
    }
}

/// A scratch directory for the re-index durability snapshot when the
/// caller supplies none. Pid and name alone are not unique: two live
/// collections can share a name (two catalogs in one process, or a drop
/// and re-create while a re-index is in flight), so a process-wide
/// sequence keeps one re-index from deleting another's snapshot.
fn scratch_snapshot_dir(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("irs-reindex-{}-{seq}-{name}", std::process::id()))
}

/// Applies one mutation through the backend writer, translating global
/// ids to backend ids on the way in and back on the way out, and keeps
/// the book in step.
fn apply_one<E: GridEndpoint>(
    writer: &mut EngineWriter<'_, E>,
    book: &mut Book<E>,
    m: Mutation<E>,
) -> Result<UpdateOutput, UpdateError> {
    match m {
        Mutation::Insert { iv } | Mutation::InsertWeighted { iv, .. } => {
            let weight = match m {
                Mutation::InsertWeighted { weight, .. } => weight,
                _ => 1.0,
            };
            let backend_id = match writer.apply(&[m]).pop().expect("one result per mutation")? {
                UpdateOutput::Inserted(id) => id,
                UpdateOutput::Removed => unreachable!("insert cannot answer Removed"),
            };
            let global = match &mut book.remap {
                None => {
                    book.next_global = book.next_global.max(backend_id + 1);
                    backend_id
                }
                Some(remap) => {
                    let global = book.next_global;
                    book.next_global += 1;
                    remap.to_global.insert(backend_id, global);
                    remap.to_backend.insert(global, backend_id);
                    global
                }
            };
            book.live.insert(global, (iv, weight));
            Ok(UpdateOutput::Inserted(global))
        }
        Mutation::Delete { id: global } => {
            // The book is authoritative for global ids: unknown ones
            // never reach the backend (whose id space may differ).
            if !book.live.contains_key(&global) {
                return Err(UpdateError::UnknownId { id: global });
            }
            let backend_id = match &book.remap {
                None => global,
                Some(remap) => *remap
                    .to_backend
                    .get(&global)
                    .expect("live global id must be mapped"),
            };
            writer
                .apply(&[Mutation::Delete { id: backend_id }])
                .pop()
                .expect("one result per mutation")?;
            book.live.remove(&global);
            if let Some(remap) = &mut book.remap {
                remap.to_backend.remove(&global);
                remap.to_global.remove(&backend_id);
            }
            Ok(UpdateOutput::Removed)
        }
    }
}

/// Translates backend ids in query outputs to global ids through the
/// collection's remap (identity before the first re-index). Called
/// while the caller still holds the state read lock, so the outputs
/// and the remap are from the same backend generation.
fn translate_outputs<E: GridEndpoint>(
    coll: &Collection<E>,
    mut results: Vec<Result<QueryOutput, QueryError>>,
) -> Vec<Result<QueryOutput, QueryError>> {
    let book = coll.book.lock().unwrap_or_else(|e| e.into_inner());
    let Some(remap) = &book.remap else {
        return results;
    };
    for result in &mut results {
        if let Ok(QueryOutput::Ids(ids) | QueryOutput::Samples(ids)) = result {
            for id in ids {
                // Every backend id is remapped at swap time, and
                // later inserts register theirs; a miss would mean a
                // torn swap, which the lock order rules out.
                *id = *remap.to_global.get(id).expect("backend id must be mapped");
            }
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    type Iv = Interval<i64>;

    fn data(n: usize) -> Vec<Iv> {
        (0..n as i64)
            .map(|i| Interval::new(i * 3 % 101, i * 3 % 101 + 5 + i % 7))
            .collect()
    }

    #[test]
    fn scratch_snapshot_dirs_are_distinct_per_call() {
        let a = scratch_snapshot_dir("twin");
        let b = scratch_snapshot_dir("twin");
        assert_ne!(a, b);
        assert_eq!(a.parent(), b.parent());
        for dir in [&a, &b] {
            let leaf = dir.file_name().unwrap().to_str().unwrap();
            assert!(leaf.starts_with(&format!("irs-reindex-{}-", std::process::id())));
            assert!(leaf.ends_with("-twin"), "{leaf}");
        }
    }

    #[test]
    fn refused_reindex_leaves_no_scratch_snapshot() {
        let spec = || {
            CollectionSpec::new("refused-swap")
                .kind(KindSpec::Fixed(IndexKind::Kds))
                .data(data(2000))
        };
        let probe: Catalog<i64> = Catalog::new();
        probe.create(spec()).unwrap();
        // Room for the KDS backend, not for the larger AIT: the budget
        // check runs after the durability snapshot is written.
        let catalog: Catalog<i64> = Catalog::with_budget(probe.used_bytes());
        catalog.create(spec()).unwrap();
        assert!(matches!(
            catalog.reindex("refused-swap", IndexKind::Ait, None),
            Err(CatalogError::BudgetExceeded { .. })
        ));
        let prefix = format!("irs-reindex-{}-", std::process::id());
        let left: Vec<_> = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|leaf| leaf.starts_with(&prefix) && leaf.ends_with("-refused-swap"))
            .collect();
        assert!(left.is_empty(), "{left:?}");
    }

    #[test]
    fn create_list_describe_drop() {
        let catalog: Catalog<i64> = Catalog::new();
        catalog
            .create(
                CollectionSpec::new("alpha")
                    .kind(KindSpec::Fixed(IndexKind::Ait))
                    .data(data(100)),
            )
            .unwrap();
        catalog
            .create(
                CollectionSpec::new("beta")
                    .kind(KindSpec::Fixed(IndexKind::Kds))
                    .data(data(50)),
            )
            .unwrap();
        let names: Vec<_> = catalog.list().into_iter().map(|i| i.name).collect();
        assert_eq!(names, ["alpha", "beta"]);
        assert_eq!(catalog.describe("beta").unwrap().len, 50);
        assert!(matches!(
            catalog.create(CollectionSpec::new("alpha")),
            Err(CatalogError::CollectionExists { .. })
        ));
        catalog.drop_collection("alpha").unwrap();
        assert!(matches!(
            catalog.describe("alpha"),
            Err(CatalogError::UnknownCollection { .. })
        ));
        assert!(matches!(
            catalog.drop_collection("alpha"),
            Err(CatalogError::UnknownCollection { .. })
        ));
    }

    #[test]
    fn invalid_names_and_specs_are_refused() {
        let catalog: Catalog<i64> = Catalog::new();
        assert!(matches!(
            catalog.create(CollectionSpec::new("Not Valid")),
            Err(CatalogError::InvalidName { .. })
        ));
        assert!(matches!(
            catalog.create(CollectionSpec::new("w").kind(KindSpec::Auto(WorkloadHints {
                update_rate: 2.0,
                ..WorkloadHints::default()
            }))),
            Err(CatalogError::InvalidSpec { .. })
        ));
        // A weighted collection on a kind without weighted sampling.
        assert!(matches!(
            catalog.create(
                CollectionSpec::new("w2")
                    .kind(KindSpec::Fixed(IndexKind::Ait))
                    .data(data(4))
                    .weights(vec![1.0; 4])
            ),
            Err(CatalogError::IncompatibleKind { .. })
        ));
    }

    #[test]
    fn budget_refuses_creation_not_aborts() {
        let catalog: Catalog<i64> = Catalog::with_budget(1);
        let err = catalog
            .create(
                CollectionSpec::new("big")
                    .kind(KindSpec::Fixed(IndexKind::Ait))
                    .data(data(1000)),
            )
            .unwrap_err();
        assert!(matches!(err, CatalogError::BudgetExceeded { .. }));
        assert!(catalog.list().is_empty());
        assert_eq!(catalog.used_bytes(), 0);
    }

    #[test]
    fn mutations_keep_global_ids_across_reindex() {
        let catalog: Catalog<i64> = Catalog::new();
        catalog
            .create(
                CollectionSpec::new("churn")
                    .kind(KindSpec::Fixed(IndexKind::Ait))
                    .data(data(20)),
            )
            .unwrap();
        let out = catalog
            .apply_in(
                "churn",
                &[Mutation::Insert {
                    iv: Interval::new(1, 2),
                }],
            )
            .unwrap();
        let id = out[0].as_ref().unwrap().inserted().unwrap();
        assert_eq!(id, 20);

        catalog.reindex("churn", IndexKind::Kds, None).unwrap();
        assert_eq!(catalog.describe("churn").unwrap().kind, IndexKind::Kds);

        // Static kind: backend mutations refuse, but the id space is
        // intact — a delete of a pre-swap id fails *in the backend*
        // only if sent; here the book still translates it, and KDS
        // refuses with its typed error.
        let out = catalog
            .apply_in("churn", &[Mutation::Delete { id }])
            .unwrap();
        assert!(matches!(out[0], Err(UpdateError::UnsupportedKind { .. })));

        // Back onto an updatable kind: the pre-swap id still deletes.
        catalog.reindex("churn", IndexKind::Ait, None).unwrap();
        let out = catalog
            .apply_in("churn", &[Mutation::Delete { id }])
            .unwrap();
        assert_eq!(out[0], Ok(UpdateOutput::Removed));
        assert_eq!(catalog.describe("churn").unwrap().len, 20);
        // Deleting it again reports unknown — retired ids stay retired.
        let out = catalog
            .apply_in("churn", &[Mutation::Delete { id }])
            .unwrap();
        assert!(matches!(out[0], Err(UpdateError::UnknownId { .. })));
    }

    #[test]
    fn concurrent_reindex_is_refused() {
        let catalog: Catalog<i64> = Catalog::new();
        catalog
            .create(
                CollectionSpec::new("c")
                    .kind(KindSpec::Fixed(IndexKind::Ait))
                    .data(data(10)),
            )
            .unwrap();
        let coll = catalog.get("c").unwrap();
        coll.reindexing.store(true, Ordering::SeqCst);
        assert!(matches!(
            catalog.reindex("c", IndexKind::Kds, None),
            Err(CatalogError::ReindexInProgress { .. })
        ));
        coll.reindexing.store(false, Ordering::SeqCst);
        catalog.reindex("c", IndexKind::Kds, None).unwrap();
    }
}
