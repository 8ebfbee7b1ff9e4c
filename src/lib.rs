//! # irs — Independent Range Sampling on Interval Data
//!
//! A reproduction of *"Independent Range Sampling on Interval Data"*
//! (Amagata, ICDE 2024). Given a set `X` of `n` intervals, a query
//! interval `q`, and a sample size `s`, independent range sampling (IRS)
//! returns `s` random intervals from `q ∩ X` — uniformly (Problem 1) or
//! proportionally to weights (Problem 2) — with samples independent across
//! queries, in time `Õ(s)` rather than `Ω(|q ∩ X|)`.
//!
//! ## The algorithms
//!
//! | Index | Time | Space | Weighted |
//! |---|---|---|---|
//! | [`IntervalTree`] (baseline) | `Ω(\|q ∩ X\|)` | `O(n)` | ✓ |
//! | [`HintM`] (baseline) | `Ω(\|q ∩ X\|)` | `O(n)` | ✓ |
//! | [`Kds`] (baseline) | `O(√n + s)` expected | `O(n)` | ✓ |
//! | [`Ait`] | `O(log² n + s)` | `O(n log n)` | |
//! | [`AitV`] | `O(log² n + s)` expected | `O(n)` | |
//! | [`Awit`] | `O(log² n + s log n)` | `O(n log n)` | ✓ |
//!
//! ## Quickstart
//!
//! One handle, [`Engine`] (built with [`Irs::builder`]), serves every
//! [`IndexKind`] (the table above without its two enumeration
//! baselines, plus `DynamicAwit`) at one shard or many, behind one
//! typed, fallible API:
//!
//! ```
//! use irs::prelude::*;
//!
//! // 100k synthetic taxi-trip-like intervals.
//! let data = irs::datagen::TAXI.generate(100_000, 42);
//! let engine = Irs::builder().kind(IndexKind::Ait).seed(7).build(&data)?;
//!
//! // Sample 10 trips active in a time window, in O(log²n + s).
//! let q = Interval::new(10_000_000, 11_000_000);
//! let sample_ids = engine.sample(q, 10)?;
//! assert_eq!(sample_ids.len(), 10);
//! for id in sample_ids {
//!     assert!(data[id as usize].overlaps(&q));
//! }
//!
//! // Exact result-set size without enumerating it (Corollary 1).
//! assert!(engine.count(q)? > 0);
//!
//! // Capability discovery instead of probe-and-catch:
//! assert!(!engine.capabilities().weighted_sample); // built without weights
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Failures are typed ([`QueryError`], [`BuildError`], [`UpdateError`]),
//! never panics or string sentinels; an empty result set is `Ok`, not an
//! error. The single-structure APIs ([`Ait::new`] + [`RangeSampler`]
//! etc.) remain available for direct, RNG-in-hand use.
//!
//! ## Live updates
//!
//! Update-capable kinds ([`IndexKind::Ait`] — the paper's §III-D
//! algorithms — and [`IndexKind::AwitDynamic`] for weighted data) ingest
//! while they serve, through the same handle. Every insert joins its
//! shard's insertion pool (the paper's batch insertion), which is merged
//! into the tree when it fills:
//!
//! ```
//! use irs::prelude::*;
//!
//! let data = irs::datagen::TAXI.generate(10_000, 42);
//! let engine = Irs::builder().kind(IndexKind::Ait).shards(4).build(&data)?;
//! let id = engine.insert(Interval::new(500, 900))?;        // immediately sampleable
//! let batch = engine.extend_batch(&data[..100])?;          // all-or-nothing batch
//! engine.remove(id)?;                                      // id never reappears
//! assert_eq!(engine.len(), data.len() + 100);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Scaling out
//!
//! `Irs::builder().shards(k)` shards the dataset `K` ways (one shard by
//! default), and batches of typed [`Query`]s execute on the calling
//! thread over the shared shard state, with sampling kept
//! distribution-identical to a single monolithic index via multinomial
//! cross-shard allocation. [`Engine`] is a cheap clonable handle
//! (`Clone + Send + Sync`), so many threads share one backend and
//! query it concurrently; mutations funnel through a single writer
//! seat ([`Engine::writer`]). [`Client`] and [`ClientWriter`] are the
//! former facade's names for [`Engine`] and [`EngineWriter`], kept as
//! type aliases.
//!
//! See the crate-level docs of [`irs_engine`], [`irs_ait`], [`irs_hint`],
//! [`irs_kds`], and [`irs_interval_tree`] for details, and `DESIGN.md` /
//! `README.md` in the repository for the architecture and reproduction
//! methodology.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use irs_ait::{Ait, AitV, Awit, DynamicAwit, ListKind, NodeRecord, RejectionStats};
pub use irs_catalog::{
    Catalog, CollectionInfo, CollectionSpec, KindSpec, WorkloadHints, DEFAULT_COLLECTION,
};
pub use irs_core::wal::{
    read_checkpoint, read_log, write_checkpoint, LogRecord, ReplicationError, WalReplay, WalTailer,
    WalWriter,
};
pub use irs_core::{
    domain_bounds, pair_sort_indices, validate_collection_name, validate_update_weight,
    validate_weights, BruteForce, BuildError, Capabilities, CatalogError, Codec, Endpoint,
    GridEndpoint, Interval, Interval64, ItemId, MemoryFootprint, Mutation, Operation, PersistError,
    PreparedSampler, QueryError, RangeCount, RangeSampler, RangeSearch, StabbingQuery, UpdateError,
    UpdateOp, UpdateOutput, WeightedRangeSampler,
};
pub use irs_engine::{
    inspect_snapshot, DynIndex, Engine, EngineConfig, EngineStats, EngineWriter, IndexKind, Irs,
    IrsBuilder, Manifest, Query, QueryOutput, SampleStream, SnapshotInfo,
};

/// The former facade's name for [`Engine`], which it only delegated
/// to. An alias, so code written against `Client` compiles unchanged.
pub type Client<E> = Engine<E>;

/// The former facade's name for [`EngineWriter`], the writer seat
/// [`Engine::writer`] hands out.
pub type ClientWriter<'a, E> = EngineWriter<'a, E>;
pub use irs_hint::HintM;
pub use irs_interval_tree::IntervalTree;
pub use irs_kds::Kds;
pub use irs_period_index::PeriodIndex;
pub use irs_segment_tree::SegmentTree;
pub use irs_server::{serve, serve_replica, ServerHandle, Serving};
pub use irs_timeline::TimelineIndex;
pub use irs_wire::{
    CollectionSummary, ErrorCode, LogRecordFrame, LogStream, RemoteClient, ReplicationStatus,
    ServerStats, SnapshotChunk, SnapshotSummary, WireCollectionSpec, WireError,
};

/// The multi-tenant catalog (re-export of [`irs_catalog`]): named
/// collections, memory budget, the adaptive kind [`catalog::planner`],
/// and online re-indexing.
pub mod catalog {
    pub use irs_catalog::*;
}

/// `irs-cli`'s plumbing: option parsing and the serve command.
pub mod cli;

/// The wire protocol (re-export of [`irs_wire`]): framing, the typed
/// request/response vocabulary, and the blocking [`RemoteClient`].
pub mod wire {
    pub use irs_wire::*;
}

/// Dataset and workload generation (re-export of [`irs_datagen`]).
pub mod datagen {
    pub use irs_datagen::*;
}

/// Sampling primitives (re-export of [`irs_sampling`]).
pub mod sampling {
    pub use irs_sampling::*;
}

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::{Client, ClientWriter};
    pub use irs_ait::{Ait, AitV, Awit, DynamicAwit};
    pub use irs_catalog::{Catalog, CollectionSpec, KindSpec, WorkloadHints};
    pub use irs_core::{
        BuildError, Capabilities, CatalogError, Interval, Interval64, ItemId, MemoryFootprint,
        Mutation, Operation, PersistError, PreparedSampler, QueryError, RangeCount, RangeSampler,
        RangeSearch, StabbingQuery, UpdateError, UpdateOp, UpdateOutput, WeightedRangeSampler,
    };
    pub use irs_engine::{
        Engine, EngineConfig, EngineWriter, IndexKind, Irs, IrsBuilder, Query, QueryOutput,
        SampleStream,
    };
    pub use irs_hint::HintM;
    pub use irs_interval_tree::IntervalTree;
    pub use irs_kds::Kds;
    pub use irs_period_index::PeriodIndex;
    pub use irs_segment_tree::SegmentTree;
    pub use irs_server::{serve, ServerHandle};
    pub use irs_timeline::TimelineIndex;
    pub use irs_wire::{ErrorCode, RemoteClient, WireError};
}
