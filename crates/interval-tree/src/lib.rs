//! Edelsbrunner's interval tree (§II-B of the paper) and the
//! search-then-sample IRS baseline built on it (§V, "Interval tree").
//!
//! Each node stores a central point `c` and the intervals stabbed by `c`
//! twice: sorted by left endpoint (`Ll`) and by right endpoint (`Lr`).
//! Intervals entirely left of `c` go to the left subtree, entirely right of
//! `c` to the right subtree. The tree supports:
//!
//! - stabbing queries in `O(log n + K)`,
//! - range search in `O(min(n, log n + K))` — the `O(n)` worst case when a
//!   query straddles many centers is exactly the drawback the paper's AIT
//!   removes,
//! - IRS by materializing `q ∩ X` and sampling from it (the baseline the
//!   paper compares against): `Ω(|q ∩ X|)` per query.
//!
//! # Complexity
//!
//! | Operation | Time | Notes |
//! |---|---|---|
//! | Build | `O(n log n)` | median centers, sorted node lists |
//! | Stabbing | `O(log n + K)` | the structure's native operator (§II-B) |
//! | Range search | `O(min(n, log n + K))` | case-3 forks may visit both subtrees |
//! | Range count | `O(log n)` per visited node | binary searches instead of scans |
//! | IRS (either problem) | `Ω(\|q ∩ X\| + s)` | search-then-sample (§V baseline) |
//! | Space | `O(n)` | each interval stored at one node (twice) |
//!
//! A measurement baseline only: the engine serves no `IndexKind` built
//! on it, so it has no snapshot codec.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod tree;

pub use tree::{IntervalTree, IntervalTreePrepared};
