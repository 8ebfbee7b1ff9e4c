//! Node records: the compact representation of `q ∩ X` that Algorithm 1
//! computes.
//!
//! A [`NodeRecord`] points at a contiguous run of one of a node's four
//! sorted lists; the set `R` of records produced for a query partitions
//! `q ∩ X` exactly (Theorem 3: records from distinct nodes are disjoint,
//! and the `AL` records of the case-3 children are disjoint from the `L`
//! records of their ancestors). `|R| = O(log n)`, so the alias table over
//! record sizes is built in `O(log n)` per query.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

/// Which of the node's four sorted lists a record indexes into.
///
/// The integer tags match the paper's encoding in Algorithm 1
/// (0: `Ll`, 1: `Lr`, 2: `ALr`, 3: `ALl` — cases 1, 2, and the two
/// case-3 children respectively).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ListKind {
    /// `Ll`: node's own intervals sorted by left endpoint (cases 1 and 3).
    Lo = 0,
    /// `Lr`: node's own intervals sorted by right endpoint (case 2).
    Hi = 1,
    /// `ALr`: subtree intervals sorted by right endpoint (case-3 left
    /// child).
    AllHi = 2,
    /// `ALl`: subtree intervals sorted by left endpoint (case-3 right
    /// child).
    AllLo = 3,
}

/// A contiguous run `[start, end]` (inclusive, 0-based) of one sorted list
/// of one node; every element of the run overlaps the query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeRecord {
    /// Arena index of the node.
    pub node: u32,
    /// Which list of that node.
    pub kind: ListKind,
    /// First overlapping position.
    pub start: u32,
    /// Last overlapping position (`end ≥ start`).
    pub end: u32,
}

impl NodeRecord {
    /// Number of intervals the record denotes.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start + 1) as usize
    }

    /// Records are only ever created non-empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_len_is_inclusive() {
        let r = NodeRecord {
            node: 0,
            kind: ListKind::Lo,
            start: 3,
            end: 3,
        };
        assert_eq!(r.len(), 1);
        let r = NodeRecord {
            node: 0,
            kind: ListKind::AllLo,
            start: 0,
            end: 9,
        };
        assert_eq!(r.len(), 10);
        assert!(!r.is_empty());
    }

    #[test]
    fn kind_tags_match_paper_encoding() {
        assert_eq!(ListKind::Lo as u8, 0);
        assert_eq!(ListKind::Hi as u8, 1);
        assert_eq!(ListKind::AllHi as u8, 2);
        assert_eq!(ListKind::AllLo as u8, 3);
    }
}
