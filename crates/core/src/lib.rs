//! Core types and traits for independent range sampling (IRS) on interval data.
//!
//! This crate defines the vocabulary shared by every index structure in the
//! workspace:
//!
//! - [`Interval`] and the [`Endpoint`] trait — closed intervals `[lo, hi]`
//!   over an ordered scalar, with the overlap predicate used throughout the
//!   paper (`x ∩ q  ⇔  q.lo ≤ x.hi ∧ x.lo ≤ q.hi`).
//! - Query traits ([`RangeSearch`], [`RangeCount`], [`RangeSampler`],
//!   [`WeightedRangeSampler`], [`StabbingQuery`]) implemented by the AIT
//!   family and by every baseline, so benchmarks and examples can treat all
//!   of them uniformly.
//! - [`erased::DynPreparedSampler`] — object-safe erasure of the phase-2
//!   handle, so heterogeneous indexes can sit behind one `dyn` type (the
//!   sharded `irs-engine` builds on this).
//! - [`query`] — the fallible query vocabulary shared by every backend:
//!   typed [`QueryError`]/[`BuildError`] taxonomies, the [`Capabilities`]
//!   descriptor, and the one weight-validation gate
//!   ([`validate_weights`]) used at every construction site.
//! - [`mutation`] — the fallible *mutation* vocabulary: typed
//!   [`Mutation`] operations, [`UpdateOutput`]s carrying stable ids, and
//!   the [`UpdateError`] taxonomy shared by every mutable backend.
//! - [`persist`] — the versioned, endian-fixed snapshot codec: the
//!   [`Codec`] trait every index structure implements, CRC-framed
//!   sections, and the [`PersistError`] taxonomy behind the engine's
//!   and client's `save(dir)` / `load(dir)`.
//! - [`wal`] — the append-only write-ahead mutation log behind
//!   replication and point-in-time recovery: CRC-framed [`LogRecord`]s
//!   with monotone sequence numbers, fsync-on-append writers, tailing
//!   readers, and the [`ReplicationError`] taxonomy mapped into the
//!   `7xx` wire-code block.
//! - [`wire`] — the error↔wire mapping behind `irs-server`/`irs-wire`:
//!   every [`QueryError`]/[`UpdateError`]/[`PersistError`] variant is
//!   assigned a stable numeric [`ErrorCode`], and [`WireError`] carries
//!   code + message across process boundaries.
//! - [`catalog`] — the multi-tenant vocabulary shared with `irs-catalog`:
//!   the [`CatalogError`] taxonomy (budget refusals, naming rules,
//!   re-index conflicts) mapped into the append-only `6xx` wire-code
//!   block, and the one collection-name validation gate.
//! - [`MemoryFootprint`] — deterministic deep-size accounting used to
//!   reproduce the paper's memory tables without allocator hooks.
//! - [`oracle::BruteForce`] — the linear-scan reference implementation each
//!   index is property-tested against.
//!
//! Index structures identify intervals by their position in the dataset
//! slice they were built from ([`ItemId`]); samples and search results are
//! returned as ids so callers can recover payloads they keep alongside.

pub mod catalog;
pub mod dataset;
pub mod erased;
pub mod footprint;
pub mod interval;
pub mod mutation;
pub mod oracle;
pub mod persist;
pub mod query;
pub mod seed;
pub mod traits;
pub mod wal;
pub mod wire;

pub use catalog::{validate_collection_name, CatalogError};
pub use dataset::{candidates_weight, domain_bounds, pair_sort_indices, pair_sorted};
pub use erased::{DynPreparedSampler, Erased, ErasedUpperBound};
pub use footprint::{slice_bytes, vec_bytes, MemoryFootprint};
pub use interval::{Endpoint, GridEndpoint, Interval, Interval64, ItemId};
pub use mutation::{validate_update_weight, Mutation, UpdateError, UpdateOp, UpdateOutput};
pub use oracle::BruteForce;
pub use persist::{Codec, PersistError};
pub use query::{validate_weights, BuildError, Capabilities, Operation, QueryError};
pub use seed::splitmix64;
pub use traits::{
    PreparedSampler, RangeCount, RangeSampler, RangeSearch, StabbingQuery, WeightedRangeSampler,
};
pub use wal::{LogRecord, ReplicationError, WalReplay, WalTailer, WalWriter};
pub use wire::{ErrorCode, WireError};
