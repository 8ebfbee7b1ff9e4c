//! Index selection, capability metadata, and the object-safe index facade.
//!
//! Every backend owns one or more index structures chosen by
//! [`IndexKind`]. Caller threads, for queries and mutations alike, talk
//! to them through [`DynIndex`], an object-safe `Send + Sync` trait whose sampling
//! handles are the erased [`DynPreparedSampler`]s from `irs-core`, so a
//! single driver loop serves every kind — and out-of-tree
//! structures could be plugged in the same way. The trait carries both
//! surfaces of the unified API: read-only queries (`&self`, safe to
//! drive from many threads at once under a shared read guard) and the
//! fallible mutable companion (`&mut self` inserts/deletes, overridden
//! by the update-capable kinds).
//!
//! What each kind can do is *queryable metadata*, not a doc table:
//! [`IndexKind::capabilities`] reports per-operation support (given
//! whether the backend was built with weights), and
//! [`IndexKind::unsupported_error`] / [`IndexKind::unsupported_update_error`]
//! are the one place the matching typed [`QueryError`] / [`UpdateError`]
//! is minted, so capability claims and error payloads cannot drift.
//! Capability gaps inside the facade are closed by fallbacks only where
//! the fallback is *exact* (stab = point search; AIT-V count = search)
//! and surfaced as `None` — mapped to a typed error upstream — where it
//! is not.

use irs_ait::{Ait, AitV, Awit, DynamicAwit};
use irs_core::erased::{DynPreparedSampler, Erased, ErasedUpperBound};
use irs_core::persist::{Codec, PersistError, Reader};
use irs_core::{
    validate_update_weight, vec_bytes, Capabilities, Endpoint, GridEndpoint, Interval, ItemId,
    MemoryFootprint, Operation, QueryError, RangeCount, RangeSampler, RangeSearch, StabbingQuery,
    UpdateError, UpdateOp, WeightedRangeSampler,
};
use irs_kds::Kds;

/// Which index structure each shard builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Augmented interval tree (§III): exact `O(log² n + s)` IRS, plus
    /// the §III-D updates: every insert goes through the insertion pool
    /// (the paper's batch insertion, merged into the tree when the pool
    /// fills), and deletion keeps the height bound by rebuilding.
    Ait,
    /// Space-optimal AIT over virtual intervals (§III-C): `O(n)` space,
    /// expected `O(log² n + s)` IRS via rejection sampling.
    AitV,
    /// Augmented *weighted* interval tree (§IV): weighted IRS in
    /// `O(log² n + s log n)`. A static snapshot.
    Awit,
    /// `DynamicAwit` (extension beyond the paper): the AWIT behind a
    /// pool/tombstone layer, serving weighted IRS *and* amortized
    /// inserts/deletes with the sampling distribution kept exact.
    AwitDynamic,
    /// KDS baseline: canonical decomposition, `O(√n + s)` expected.
    Kds,
}

impl IndexKind {
    /// Every kind, for test matrices and CLI enumeration.
    ///
    /// The paper's enumeration baselines (`HintM`, `IntervalTree`) are
    /// not kinds: a sample through them costs `Ω(|q ∩ X|)`, so no
    /// planner row could ever choose them. Their former names `hint-m`
    /// and `interval-tree` are retired and never reissued; a snapshot
    /// naming either fails to load with [`PersistError::UnknownKind`].
    pub const ALL: [IndexKind; 5] = [
        IndexKind::Ait,
        IndexKind::AitV,
        IndexKind::Awit,
        IndexKind::AwitDynamic,
        IndexKind::Kds,
    ];

    /// Stable lowercase name (CLI argument / JSON field value).
    pub fn name(self) -> &'static str {
        match self {
            IndexKind::Ait => "ait",
            IndexKind::AitV => "ait-v",
            IndexKind::Awit => "awit",
            IndexKind::AwitDynamic => "awit-dynamic",
            IndexKind::Kds => "kds",
        }
    }

    /// Parses [`IndexKind::name`] output (case-sensitive).
    pub fn parse(s: &str) -> Option<IndexKind> {
        IndexKind::ALL.iter().copied().find(|k| k.name() == s)
    }

    /// What this kind supports, given whether the backend holds
    /// per-interval weights.
    ///
    /// This is the authoritative capability table, as data. The
    /// contract (pinned by the capability property tests): an operation
    /// claimed here succeeds through [`crate::Engine::run`], and an
    /// operation denied here fails with exactly
    /// [`IndexKind::unsupported_error`]\(op\).
    pub fn capabilities(self, weighted: bool) -> Capabilities {
        Capabilities {
            // AWIT flavors answer uniform IRS only when weighted IRS
            // coincides with it — i.e. built with uniform (absent)
            // weights.
            uniform_sample: !(matches!(self, IndexKind::Awit | IndexKind::AwitDynamic) && weighted),
            weighted_sample: weighted && !matches!(self, IndexKind::Ait | IndexKind::AitV),
            exact_count: true,
            search: true,
            stab: true,
            // Per-kind truth: AIT carries the paper's §III-D update
            // algorithms, AWIT-dynamic the beyond-paper weighted ones;
            // every other kind is a static snapshot.
            update: matches!(self, IndexKind::Ait | IndexKind::AwitDynamic),
        }
    }

    /// The typed error for an operation this kind (built `weighted` or
    /// not) cannot serve. The single source of unsupported-operation
    /// payloads, shared by the engine's query path and its sample
    /// streams.
    pub fn unsupported_error(self, weighted: bool, op: Operation) -> QueryError {
        match op {
            Operation::WeightedSample if matches!(self, IndexKind::Ait | IndexKind::AitV) => {
                QueryError::UnsupportedOperation {
                    op,
                    reason: "AIT and AIT-V index unweighted intervals only; \
                             use AWIT, AWIT-dynamic or KDS for Problem 2",
                }
            }
            Operation::WeightedSample if !weighted => QueryError::NotWeighted,
            Operation::UniformSample => QueryError::UnsupportedOperation {
                op,
                reason: "an AWIT holding non-uniform weights cannot sample uniformly; \
                         build it without weights (then the two problems coincide)",
            },
            Operation::Update => QueryError::UnsupportedOperation {
                op,
                reason: "this index kind is a static snapshot; build an `ait` or \
                         `awit-dynamic` backend for live updates",
            },
            _ => QueryError::UnsupportedOperation {
                op,
                reason: "this index kind cannot serve the operation",
            },
        }
    }

    /// Whether this kind (built `weighted` or not) can apply `op`.
    ///
    /// The mutation-side twin of [`Capabilities::supports`]: `Insert`
    /// and `Delete` follow [`Capabilities::update`]; `InsertWeighted`
    /// additionally requires a backend that samples by weight (so a
    /// non-unit weight can never silently skew a uniform build).
    pub fn supports_mutation(self, weighted: bool, op: UpdateOp) -> bool {
        let caps = self.capabilities(weighted);
        match op {
            UpdateOp::Insert | UpdateOp::Delete => caps.update,
            UpdateOp::InsertWeighted => caps.update && caps.weighted_sample,
        }
    }

    /// The typed error for a mutation this kind (built `weighted` or
    /// not) cannot serve. The single source of unsupported-mutation
    /// payloads — the mutation-side twin of [`IndexKind::unsupported_error`].
    pub fn unsupported_update_error(self, weighted: bool, op: UpdateOp) -> UpdateError {
        if !self.capabilities(weighted).update {
            return UpdateError::UnsupportedKind {
                kind: self.name(),
                reason: "this index kind is a static snapshot; build an `ait` or \
                         `awit-dynamic` backend for live updates",
            };
        }
        match op {
            UpdateOp::InsertWeighted if self == IndexKind::Ait => UpdateError::UnsupportedKind {
                kind: self.name(),
                reason: "AIT indexes unweighted intervals only; use `awit-dynamic` \
                         for weighted live updates",
            },
            UpdateOp::InsertWeighted if !weighted => UpdateError::NotWeighted,
            _ => UpdateError::UnsupportedKind {
                kind: self.name(),
                reason: "this backend cannot serve the mutation",
            },
        }
    }

    /// Builds one index of this kind over `data` (with `weights` when
    /// given), behind the object-safe [`DynIndex`] facade.
    ///
    /// Weights are **not** validated here — callers go through
    /// [`irs_core::validate_weights`] first (the engine's `try_new_weighted`
    /// and so its builder).
    pub fn build_index<E: GridEndpoint>(
        self,
        data: &[Interval<E>],
        weights: Option<&[f64]>,
    ) -> Box<dyn DynIndex<E>> {
        match self {
            IndexKind::Ait => Box::new(MutableAit {
                idx: Ait::new(data),
                live: None,
            }),
            IndexKind::AitV => Box::new(AitV::new(data)),
            IndexKind::AwitDynamic => {
                let uniform = weights.is_none();
                let owned;
                let w = match weights {
                    Some(w) => w,
                    None => {
                        owned = vec![1.0; data.len()];
                        &owned
                    }
                };
                Box::new(DynAwitShard {
                    idx: DynamicAwit::new(data, w),
                    uniform,
                })
            }
            IndexKind::Awit => {
                let uniform = weights.is_none();
                let owned;
                let w = match weights {
                    Some(w) => w,
                    None => {
                        owned = vec![1.0; data.len()];
                        &owned
                    }
                };
                Box::new(AwitShard {
                    idx: Awit::new(data, w),
                    uniform,
                })
            }
            IndexKind::Kds => Box::new(KdsShard {
                idx: match weights {
                    Some(w) => Kds::new_weighted(data, w),
                    None => Kds::new(data),
                },
                weighted: weights.is_some(),
            }),
        }
    }

    /// Decodes one index of this kind from a snapshot payload, behind
    /// the same wrappers [`IndexKind::build_index`] constructs.
    ///
    /// The inverse of [`DynIndex::encode_snapshot`]: `weighted` must be
    /// the flag the snapshot's manifest recorded (it selects the same
    /// uniform-vs-weighted wrapper state construction would).
    pub fn decode_index<E: GridEndpoint>(
        self,
        r: &mut Reader<'_>,
        weighted: bool,
    ) -> Result<Box<dyn DynIndex<E>>, PersistError> {
        Ok(match self {
            IndexKind::Ait => Box::new(MutableAit {
                idx: Ait::decode(r)?,
                live: None,
            }),
            IndexKind::AitV => Box::new(AitV::decode(r)?),
            IndexKind::Awit => Box::new(AwitShard {
                idx: Awit::decode(r)?,
                uniform: !weighted,
            }),
            IndexKind::AwitDynamic => Box::new(DynAwitShard {
                idx: DynamicAwit::decode(r)?,
                uniform: !weighted,
            }),
            IndexKind::Kds => {
                let idx = Kds::decode(r)?;
                // The manifest's weighted flag must agree with the
                // decoded tree: one whose weight arrays are absent passes
                // its own decode (that is the valid *unweighted* form)
                // and would then hit the tree's weighted-build assertion
                // on the first weighted query.
                if weighted && !idx.is_weighted() && !idx.is_empty() {
                    return Err(PersistError::Corrupt {
                        what: "manifest says weighted, but the index carries no weights",
                    });
                }
                Box::new(KdsShard { idx, weighted })
            }
        })
    }
}

impl std::fmt::Display for IndexKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Object-safe facade over any one index structure.
///
/// The engine drives every shard through this trait; build one with
/// [`IndexKind::build_index`]. `search_into`, `count`, and `stab_into`
/// report ids local to the slice the index was built from (the engine
/// translates them to dataset-global ids; over the full dataset
/// they already *are* global).
///
/// The trait also carries the *mutable companion surface*: fallible
/// `&mut self` default methods ([`DynIndex::insert`],
/// [`DynIndex::insert_weighted`], [`DynIndex::remove`]) that refuse with
/// [`UpdateError::UnsupportedKind`] unless the kind overrides them
/// (AIT's §III-D algorithms; `DynamicAwit`'s weighted ones). Queries
/// stay `&self`; callers that share an index across threads put it
/// behind a reader/writer lock (the engine's shards), so the
/// exclusive borrow — and therefore the
/// guarantee that no query observes a half-applied mutation — holds at
/// runtime exactly where it held at compile time before.
/// Capability-aware callers gate on [`IndexKind::supports_mutation`]
/// first and mint the kind-specific error; the defaults here are the
/// backstop.
pub trait DynIndex<E>: Send + Sync {
    /// Number of live intervals.
    fn len(&self) -> usize;

    /// Whether no interval is live.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends local ids of intervals overlapping `q`.
    fn search_into(&self, q: Interval<E>, out: &mut Vec<ItemId>);

    /// Exact `|q ∩ shard|`.
    fn count(&self, q: Interval<E>) -> usize;

    /// Appends local ids of intervals containing `p`.
    fn stab_into(&self, p: E, out: &mut Vec<ItemId>);

    /// Phase-1 handle for uniform sampling; `None` if this kind cannot
    /// sample uniformly (AWIT holding non-uniform weights).
    fn prepare<'a>(&'a self, q: Interval<E>) -> Option<Box<dyn DynPreparedSampler + 'a>>;

    /// Phase-1 handle for weighted sampling; `None` if unsupported.
    ///
    /// Weighted handles report their allocation mass through
    /// [`DynPreparedSampler::total_weight`], read off the phase-1 state
    /// (AWIT: cumulative arrays; `DynamicAwit`: the same, less its
    /// tombstones plus its pool; KDS: prefix sums over the
    /// decomposition) — never by re-running the search.
    fn prepare_weighted<'a>(&'a self, q: Interval<E>) -> Option<Box<dyn DynPreparedSampler + 'a>>;

    /// Inserts `iv`, returning its new **local** id. The in-tree kinds
    /// insert through their structure's insertion pool (the paper's
    /// batch insertion): the interval is visible to queries at once and
    /// merged into the tree in bulk once the pool fills. Default:
    /// unsupported.
    fn insert(&mut self, iv: Interval<E>) -> Result<ItemId, UpdateError> {
        let _ = iv;
        Err(static_snapshot_error())
    }

    /// Inserts `iv` with weight `w` (already validated by the caller
    /// through [`irs_core::validate_update_weight`]), returning its new
    /// **local** id. Default: unsupported.
    fn insert_weighted(&mut self, iv: Interval<E>, w: f64) -> Result<ItemId, UpdateError> {
        let _ = (iv, w);
        Err(static_snapshot_error())
    }

    /// Deletes the live interval behind the **local** id. Default:
    /// unsupported.
    fn remove(&mut self, id: ItemId) -> Result<(), UpdateError> {
        let _ = id;
        Err(static_snapshot_error())
    }

    /// Bytes of heap memory this index retains (recursively, capacity
    /// not length), per [`irs_core::MemoryFootprint`]. The catalog's
    /// memory budget accounts collections with this estimate; every
    /// in-tree kind overrides it with its structure's deterministic
    /// deep-size accounting. The default reports `0` — an out-of-tree
    /// index that never opted in is simply invisible to budgets, never
    /// wrongly refused.
    fn heap_bytes(&self) -> usize {
        0
    }

    /// Appends this index's snapshot encoding to `out` (the payload of
    /// a shard file's index section; decode with
    /// [`IndexKind::decode_index`]).
    ///
    /// Every in-tree kind overrides this with its structure's
    /// [`Codec`]; the default refuses, so an out-of-tree `DynIndex`
    /// that never opted into persistence surfaces a typed
    /// [`PersistError::Unsupported`] instead of silently writing an
    /// empty shard.
    fn encode_snapshot(&self, out: &mut Vec<u8>) -> Result<(), PersistError> {
        let _ = out;
        Err(PersistError::Unsupported {
            reason: "this index implementation has no snapshot codec",
        })
    }
}

/// The backstop error for kinds that never override the mutable
/// surface. Callers that know their [`IndexKind`] mint the richer
/// [`IndexKind::unsupported_update_error`] before getting here.
fn static_snapshot_error() -> UpdateError {
    UpdateError::UnsupportedKind {
        kind: "static",
        reason: "this index structure is a static snapshot",
    }
}

/// Shared fallback: a stabbing query is a degenerate range search.
fn stab_via_search<E: Endpoint, I: RangeSearch<E>>(idx: &I, p: E, out: &mut Vec<ItemId>) {
    idx.range_search_into(Interval::point(p), out);
}

/// AIT shard with the §III-D update surface: the tree plus a live
/// table indexed by local id, because deletion must re-derive the
/// interval from the id callers carry (the tree's delete walks the
/// interval's insertion path). The table is **lazy** — seeded from
/// [`Ait::intervals_by_id`] on the first `remove` — so query-only and
/// insert-only workloads never pay for mirroring the dataset.
struct MutableAit<E> {
    idx: Ait<E>,
    /// The interval behind each local id, `None` once deleted.
    live: Option<Vec<Option<Interval<E>>>>,
}

impl<E: GridEndpoint> DynIndex<E> for MutableAit<E> {
    fn len(&self) -> usize {
        self.idx.len()
    }

    fn search_into(&self, q: Interval<E>, out: &mut Vec<ItemId>) {
        self.idx.range_search_into(q, out);
    }

    // The lazy live table is a cache over `Ait::intervals_by_id`; only
    // the tree (with its pool and id allocator) goes to disk.
    fn encode_snapshot(&self, out: &mut Vec<u8>) -> Result<(), PersistError> {
        self.idx.encode_into(out);
        Ok(())
    }

    fn heap_bytes(&self) -> usize {
        MemoryFootprint::heap_bytes(&self.idx) + self.live.as_ref().map_or(0, vec_bytes)
    }

    fn count(&self, q: Interval<E>) -> usize {
        self.idx.range_count(q)
    }

    fn stab_into(&self, p: E, out: &mut Vec<ItemId>) {
        StabbingQuery::stab_into(&self.idx, p, out);
    }

    fn prepare<'a>(&'a self, q: Interval<E>) -> Option<Box<dyn DynPreparedSampler + 'a>> {
        Some(Box::new(Erased(RangeSampler::prepare(&self.idx, q))))
    }

    fn prepare_weighted<'a>(&'a self, _q: Interval<E>) -> Option<Box<dyn DynPreparedSampler + 'a>> {
        None
    }

    // Every insert is pooled: one-by-one insertion shifts the sorted
    // runs on the insert's path, O(n) at the root, for each interval.
    fn insert(&mut self, iv: Interval<E>) -> Result<ItemId, UpdateError> {
        let id = self.idx.insert_buffered(iv);
        // The table (if materialized) tracks inserts; otherwise its
        // eventual seeding from the tree will include them.
        if let Some(live) = &mut self.live {
            debug_assert_eq!(id as usize, live.len(), "ids are issued densely");
            live.push(Some(iv));
        }
        Ok(id)
    }

    // `insert_weighted` keeps the default refusal: AIT stores no weights.

    fn remove(&mut self, id: ItemId) -> Result<(), UpdateError> {
        let idx = &self.idx;
        let live = self.live.get_or_insert_with(|| idx.intervals_by_id());
        match live.get_mut(id as usize).and_then(Option::take) {
            Some(iv) => {
                let found = self.idx.delete(iv, id);
                debug_assert!(found, "live table and tree disagree on id {id}");
                Ok(())
            }
            None => Err(UpdateError::UnknownId { id }),
        }
    }
}

/// `DynamicAwit` shard: weighted IRS with amortized updates. Serves
/// *uniform* requests only when built with uniform weights (then the
/// two problems coincide), exactly like the static [`AwitShard`] — and
/// unit-weight inserts preserve that uniformity. Weighted handles carry
/// the live mass their own prepare computed, like [`AwitShard`]'s.
struct DynAwitShard<E> {
    idx: DynamicAwit<E>,
    uniform: bool,
}

impl<E: GridEndpoint> DynIndex<E> for DynAwitShard<E> {
    fn len(&self) -> usize {
        self.idx.len()
    }

    fn search_into(&self, q: Interval<E>, out: &mut Vec<ItemId>) {
        self.idx.range_search_into(q, out);
    }

    // Pool, tombstones, and the id allocator ride along inside the
    // `DynamicAwit` codec, so stable ids survive the restart.
    fn encode_snapshot(&self, out: &mut Vec<u8>) -> Result<(), PersistError> {
        self.idx.encode_into(out);
        Ok(())
    }

    fn heap_bytes(&self) -> usize {
        MemoryFootprint::heap_bytes(&self.idx)
    }

    fn count(&self, q: Interval<E>) -> usize {
        self.idx.range_count(q)
    }

    fn stab_into(&self, p: E, out: &mut Vec<ItemId>) {
        stab_via_search(&self.idx, p, out);
    }

    fn prepare<'a>(&'a self, q: Interval<E>) -> Option<Box<dyn DynPreparedSampler + 'a>> {
        if self.uniform {
            // All weights are 1.0 (construction and every insert), so
            // the weighted sampler *is* the uniform sampler, and its
            // candidate count is the exact live count.
            Some(Box::new(Erased(self.idx.prepare_weighted(q))))
        } else {
            None
        }
    }

    fn prepare_weighted<'a>(&'a self, q: Interval<E>) -> Option<Box<dyn DynPreparedSampler + 'a>> {
        let prepared = self.idx.prepare_weighted(q);
        // Computed once by the prepare: AWIT arrays less tombstones plus pool.
        let mass = prepared.total_weight();
        Some(Box::new(WithMass(Erased(prepared), mass)))
    }

    // DynamicAwit insertions are inherently pooled.
    fn insert(&mut self, iv: Interval<E>) -> Result<ItemId, UpdateError> {
        Ok(self.idx.insert(iv, 1.0))
    }

    fn insert_weighted(&mut self, iv: Interval<E>, w: f64) -> Result<ItemId, UpdateError> {
        // Callers validate; re-check here because `DynamicAwit::insert`
        // asserts on bad weights, and a panic would fail the shard.
        validate_update_weight(w)?;
        Ok(self.idx.insert(iv, w))
    }

    fn remove(&mut self, id: ItemId) -> Result<(), UpdateError> {
        if self.idx.delete_by_id(id) {
            Ok(())
        } else {
            Err(UpdateError::UnknownId { id })
        }
    }
}

impl<E: GridEndpoint> DynIndex<E> for AitV<E> {
    fn len(&self) -> usize {
        AitV::len(self)
    }

    fn search_into(&self, q: Interval<E>, out: &mut Vec<ItemId>) {
        self.range_search_into(q, out);
    }

    fn heap_bytes(&self) -> usize {
        MemoryFootprint::heap_bytes(self)
    }

    fn encode_snapshot(&self, out: &mut Vec<u8>) -> Result<(), PersistError> {
        self.encode_into(out);
        Ok(())
    }

    fn count(&self, q: Interval<E>) -> usize {
        // AIT-V has no counting structure (its per-node lists hold
        // virtual intervals); the exact count costs one search.
        self.range_search(q).len()
    }

    fn stab_into(&self, p: E, out: &mut Vec<ItemId>) {
        stab_via_search(self, p, out);
    }

    fn prepare<'a>(&'a self, q: Interval<E>) -> Option<Box<dyn DynPreparedSampler + 'a>> {
        // Candidate count tallies virtual slots — an upper bound, flagged
        // so the engine allocates by exact count instead.
        Some(Box::new(ErasedUpperBound(RangeSampler::prepare(self, q))))
    }

    fn prepare_weighted<'a>(&'a self, _q: Interval<E>) -> Option<Box<dyn DynPreparedSampler + 'a>> {
        None
    }
}

/// AWIT shard: natively weighted; serves *uniform* requests only when
/// built with uniform weights (then the two problems coincide).
struct AwitShard<E> {
    idx: Awit<E>,
    uniform: bool,
}

impl<E: GridEndpoint> DynIndex<E> for AwitShard<E> {
    fn len(&self) -> usize {
        self.idx.len()
    }

    fn search_into(&self, q: Interval<E>, out: &mut Vec<ItemId>) {
        self.idx.range_search_into(q, out);
    }

    fn heap_bytes(&self) -> usize {
        MemoryFootprint::heap_bytes(&self.idx)
    }

    fn encode_snapshot(&self, out: &mut Vec<u8>) -> Result<(), PersistError> {
        self.idx.encode_into(out);
        Ok(())
    }

    fn count(&self, q: Interval<E>) -> usize {
        self.idx.range_count(q)
    }

    fn stab_into(&self, p: E, out: &mut Vec<ItemId>) {
        stab_via_search(&self.idx, p, out);
    }

    fn prepare<'a>(&'a self, q: Interval<E>) -> Option<Box<dyn DynPreparedSampler + 'a>> {
        if self.uniform {
            Some(Box::new(Erased(self.idx.prepare_weighted(q))))
        } else {
            None
        }
    }

    fn prepare_weighted<'a>(&'a self, q: Interval<E>) -> Option<Box<dyn DynPreparedSampler + 'a>> {
        let prepared = self.idx.prepare_weighted(q);
        // O(1) off the node records' cumulative arrays — no enumeration.
        let mass = prepared.total_weight();
        Some(Box::new(WithMass(Erased(prepared), mass)))
    }
}

/// KDS shard: uniform sampling always, weighted when built with
/// weights. Weighted handles carry their mass (read off the phase-1
/// decomposition's prefix sums), so the engine never re-enumerates the
/// result set for allocation.
struct KdsShard<E> {
    idx: Kds<E>,
    weighted: bool,
}

impl<E: GridEndpoint> DynIndex<E> for KdsShard<E> {
    fn len(&self) -> usize {
        self.idx.len()
    }

    fn search_into(&self, q: Interval<E>, out: &mut Vec<ItemId>) {
        self.idx.range_search_into(q, out);
    }

    // The `weighted` flag is manifest state, not index state;
    // `IndexKind::decode_index` restores it from there.
    fn encode_snapshot(&self, out: &mut Vec<u8>) -> Result<(), PersistError> {
        self.idx.encode_into(out);
        Ok(())
    }

    fn heap_bytes(&self) -> usize {
        MemoryFootprint::heap_bytes(&self.idx)
    }

    fn count(&self, q: Interval<E>) -> usize {
        self.idx.range_count(q)
    }

    fn stab_into(&self, p: E, out: &mut Vec<ItemId>) {
        stab_via_search(&self.idx, p, out);
    }

    fn prepare<'a>(&'a self, q: Interval<E>) -> Option<Box<dyn DynPreparedSampler + 'a>> {
        Some(Box::new(Erased(RangeSampler::prepare(&self.idx, q))))
    }

    fn prepare_weighted<'a>(&'a self, q: Interval<E>) -> Option<Box<dyn DynPreparedSampler + 'a>> {
        if !self.weighted {
            return None;
        }
        let prepared = self.idx.prepare_weighted(q);
        let mass = prepared.total_weight();
        Some(Box::new(WithMass(Erased(prepared), mass)))
    }
}

/// Erased handle plus its precomputed allocation mass.
struct WithMass<P>(P, f64);

impl<P: DynPreparedSampler> DynPreparedSampler for WithMass<P> {
    fn candidate_count(&self) -> usize {
        self.0.candidate_count()
    }

    fn count_is_exact(&self) -> bool {
        self.0.count_is_exact()
    }

    fn total_weight(&self) -> Option<f64> {
        Some(self.1)
    }

    fn sample_into_dyn(&self, rng: &mut dyn rand::RngCore, s: usize, out: &mut Vec<ItemId>) {
        self.0.sample_into_dyn(rng, s, out);
    }
}
