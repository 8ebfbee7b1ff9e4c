//! # irs-engine — sharded, concurrent batch IRS query engine
//!
//! The index structures in this workspace answer one query at a time on
//! one thread. This crate scales them out: an [`Engine`] partitions the
//! dataset round-robin into `K` shards (one by default), builds one
//! index per shard (the structure chosen by [`IndexKind`]), and
//! executes batches of typed [`Query`]s across the shards. The engine
//! is the one handle applications hold: build it with
//! [`Irs::builder`] (or [`Engine::try_new`] and an [`EngineConfig`]),
//! query it with batches, one-shot helpers or chunked
//! [`SampleStream`]s, and mutate it through its writer seat
//! ([`Engine::writer`]).
//!
//! The engine is a **shared, clonable service**: the handle is a cheap
//! `Arc` clone (`Clone + Send + Sync`), query batches execute *on the
//! calling thread* under shared per-shard read locks, and many caller
//! threads therefore run batches truly concurrently — throughput
//! scales with callers (the benchmark ladder's
//! `irs_engine.two_caller_speedup` rung measures it: `bash
//! benchmark/run.sh --all --seed 1 --trace 1`; the `repro` runner in
//! `irs-bench` times the paper's per-kind experiments). The engine owns
//! no thread: mutations are applied by the thread holding the writer
//! seat, under the owning shard's write lock, so a query batch never
//! observes a torn shard. See the [`engine`] module docs for the
//! concurrency model.
//!
//! The API is **fallible end to end**: [`Engine::run`] returns one
//! `Result<QueryOutput, QueryError>` per query, construction goes
//! through [`Engine::try_new`] / [`Engine::try_new_weighted`] (weights
//! validated up front into a typed [`irs_core::BuildError`]), and what
//! an engine can serve is queryable via [`Engine::capabilities`] —
//! nothing on the query path panics, and a shard whose index panicked
//! surfaces as [`irs_core::QueryError::ShardFailed`] instead of an
//! abort. (The
//! pre-`QueryError` shims — `Request`, `Response`, `Engine::execute` —
//! lived for one release and are now gone.)
//!
//! The engine is **mutable** as well as queryable: [`Engine::apply`]
//! routes typed [`irs_core::Mutation`]s to their owning shards
//! (inserts to the least-loaded shard, deletes to the shard decoded
//! from the global id), with the same typed-error discipline
//! ([`irs_core::UpdateError`]) and the update-capable kinds declared in
//! [`IndexKind::capabilities`]. Mutation batches serialize on one
//! writer seat shared by every clone ([`Engine::writer`] hands it out
//! as an [`EngineWriter`] guard), and each shard's sub-batch applies
//! under the shard's write lock — queries interleave *between*
//! sub-batches, never inside one.
//!
//! The non-obvious part is keeping sampling *statistically correct*
//! across shards: the engine first collects exact per-shard result
//! masses, then draws the per-shard sample allocation from a multinomial
//! over them, so the merged draws follow exactly the distribution a
//! single monolithic index would produce. See the module docs of
//! [`engine`] for the argument, and `DESIGN.md` (§ Engine) for the
//! architecture diagram.
//!
//! ```
//! use irs_engine::{Engine, EngineConfig, IndexKind, Irs, Query};
//! use irs_core::Interval;
//!
//! let data: Vec<_> = (0..1000i64).map(|i| Interval::new(i, i + 20)).collect();
//! let engine = Engine::try_new(&data, EngineConfig::new(IndexKind::AitV).shards(3))?;
//!
//! let batch: Vec<_> = (0..10)
//!     .map(|i| Query::Sample { q: Interval::new(i * 50, i * 50 + 99), s: 4 })
//!     .collect();
//! for result in engine.run(&batch) {
//!     assert_eq!(result?.samples().unwrap().len(), 4);
//! }
//!
//! // The builder: an `EngineConfig` plus optional weights.
//! let engine = Irs::builder().kind(IndexKind::Ait).shards(4).seed(7).build(&data)?;
//! let q = Interval::new(100, 200);
//! assert_eq!(engine.count(q)?, 121);
//! assert!(!engine.capabilities().weighted_sample); // no weights supplied
//! let id = engine.writer().insert(Interval::new(150, 160))?;
//! assert!(engine.search(q)?.contains(&id));
//! let drawn: Vec<_> = engine.sample_stream(q)?.take(1_000).collect();
//! assert_eq!(drawn.len(), 1_000);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
mod kind;
pub mod persist;
mod query;
mod stream;

pub use engine::{Engine, EngineConfig, EngineStats, EngineWriter, Irs, IrsBuilder};
pub use kind::{DynIndex, IndexKind};
pub use persist::{inspect_snapshot, Manifest, SnapshotInfo};
pub use query::{Query, QueryOutput};
pub use stream::SampleStream;
