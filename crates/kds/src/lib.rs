//! KDS — kd-tree based spatial independent range sampling (Xie, Phillips,
//! Matheny, Li; SIGMOD 2021), the paper's strongest sampling competitor.
//!
//! Intervals map to 2-D points `x ↦ (x.lo, x.hi)`; a range query maps to
//! the quadrant-like rectangle `lo ≤ q.hi ∧ hi ≥ q.lo` (Fig. 4 of the
//! paper). KDS decomposes that rectangle over a static kd-tree into
//! `O(√n)` *canonical pieces*: subtrees fully inside the rectangle plus
//! boundary leaves that are scanned point-by-point. Because the kd-tree is
//! built by in-place partitioning of one point array, every subtree is a
//! contiguous array range — so uniform sampling inside a canonical piece is
//! a single `O(1)` index draw, giving `O(√n + s)` expected per query.
//! The weighted variant keeps a global prefix-sum of weights in array
//! order, sampling inside a piece in `O(log n)` via the cumulative-sum
//! method: `O(√n + s log n)` expected.
//!
//! The same decomposition yields `O(√n)` range counting — the kd-tree
//! comparator of Table X.
//!
//! # Complexity
//!
//! | Operation | Time | Notes |
//! |---|---|---|
//! | Build | `O(n log n)` | in-place median partitioning |
//! | Uniform IRS | `O(√n + s)` expected | §V baseline, paper's Table VI |
//! | Weighted IRS | `O(√n + s log n)` expected | prefix-sum draws, Table IX |
//! | Range count | `O(√n)` | canonical pieces, Table X |
//! | Range search | `O(√n + \|q ∩ X\|)` | piece enumeration |
//! | Space | `O(n)` | point array + node arena |
//!
//! Snapshots: [`Kds`] implements [`irs_core::persist::Codec`], storing
//! the point permutation, node arena, and weight arrays verbatim (see
//! `DESIGN.md`, "On-disk snapshot format").

mod persist;
mod tree;

pub use tree::{Kds, KdsPrepared, DEFAULT_LEAF_SIZE};
