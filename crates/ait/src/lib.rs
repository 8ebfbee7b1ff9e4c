//! The paper's contribution: independent range sampling on interval data in
//! `Õ(s)` time via the **Augmented Interval Tree** family.
//!
//! - [`Ait`] (§III) — an interval tree whose every node additionally stores
//!   *all* intervals of its subtree in two sorted lists (`ALl`, `ALr`).
//!   A range query decomposes `q ∩ X` into `O(log n)` *node records*
//!   (contiguous runs of sorted lists) in `O(log² n)` time; sampling then
//!   draws records from a Walker alias table and indexes uniformly inside
//!   them. Exact, `O(n log n)` space, `O(log² n + s)` query. Also supports
//!   `O(log² n)` range counting (Corollary 1) and insertions / batched
//!   insertions / deletions (§III-D).
//! - [`AitV`] (§III-C) — buckets the pair-sorted dataset into groups of
//!   `⌈log₂ n⌉`, indexes one *virtual interval* per bucket with an [`Ait`],
//!   and rejection-samples members: `O(n)` space, `O(log² n + s)`
//!   *expected* query time.
//! - [`Awit`] (§IV) — augments every sorted list with cumulative weight
//!   arrays so node-record weights are `O(1)` and in-record draws are
//!   `O(log n)` via the cumulative-sum method: weighted IRS in
//!   `O(log² n + s log n)` with no per-query structure over `q ∩ X`.
//!
//! All three implement the query traits from [`irs_core`], so they are
//! drop-in peers of the baselines in `irs-interval-tree`, `irs-hint`, and
//! `irs-kds`.

mod ait;
mod aitv;
mod awit;
mod build;
mod dynamic_awit;
mod persist;
mod records;
mod update;

pub use ait::{Ait, AitPrepared};
pub use aitv::{AitV, AitVPrepared, RejectionStats};
pub use awit::{Awit, AwitPrepared};
pub use dynamic_awit::{DynamicAwit, DynamicAwitPrepared};
pub use records::{ListKind, NodeRecord};
