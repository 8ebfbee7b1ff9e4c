//! HINTm — the Hierarchical INdex for inTervals of Christodoulou, Bouros,
//! and Mamoulis (SIGMOD 2022), reimplemented clean-room as the paper's
//! state-of-the-art *range search* baseline.
//!
//! # Structure
//!
//! The domain is snapped onto a grid of `2^m` cells; level `l ∈ [0, m]`
//! partitions the grid into `2^l` equal partitions. An interval is
//! decomposed segment-tree style into `O(m)` partitions that exactly cover
//! its cell span. The unique leftmost piece (the one containing the
//! interval's start cell) stores the interval as an **original**; all other
//! pieces store **replicas**. Each partition keeps four sublists by the
//! (original, ends inside / after this partition) distinction: `O_in`,
//! `O_aft`, `R_in`, `R_aft`.
//!
//! # Query
//!
//! For query `[q.lo, q.hi]`, each level scans the partitions spanning the
//! query's cell range. Endpoint comparisons are needed only in the first
//! and last partition of each level; middle partitions report all
//! originals comparison-free. Replicas are scanned only in the first
//! partition, which — because the decomposition pieces of an interval are
//! disjoint — guarantees every result is reported exactly once.
//!
//! Range search costs `Ω(|q ∩ X|)`: fast in practice, but inherently
//! output-sensitive, which is exactly the drawback the AIT's sampling
//! avoids (Table I of the paper).
//!
//! # Complexity
//!
//! | Operation | Time | Notes |
//! |---|---|---|
//! | Build | `O(n · m)` worst case | segment-tree decomposition per interval |
//! | Range search | `Ω(\|q ∩ X\|)` | comparisons only in boundary partitions |
//! | Range count | `Ω(partitions)` | middle partitions count in `O(1)` |
//! | IRS (either problem) | `Ω(\|q ∩ X\| + s)` | search-then-sample (§V baseline) |
//! | Space | `O(n · m)` worst case, ~`O(n)` typical | replicas per level |
//!
//! A measurement baseline only: the engine serves no `IndexKind` built
//! on it, so it has no snapshot codec.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod index;

pub use index::{HintM, HintPrepared};
