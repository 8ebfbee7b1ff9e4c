//! A static segment tree over intervals (de Berg et al., *Computational
//! Geometry*, ch. 10) — the other classic interval structure the paper's
//! related work discusses (§VI): `O(n log n)` space, `O(log n + K)`
//! stabbing queries, but *no* efficient range search (range search here
//! costs `O(K log n)` plus a dedup, which is exactly why the paper builds
//! on the interval tree instead).
//!
//! Included for completeness of the interval-structure landscape and as an
//! independent stabbing-query oracle in the test suites.
//!
//! # Structure
//!
//! The distinct endpoint values define *slabs*: each endpoint is a
//! closed point slab, each gap between consecutive endpoints (and the two
//! unbounded ends) an open slab. A balanced binary tree over the slabs
//! stores every interval at its `O(log n)` canonical nodes — the maximal
//! nodes whose slab range the interval covers. A stabbing query walks the
//! single root-to-leaf path of the queried slab and reports every list on
//! it.
//!
//! # Complexity
//!
//! | Operation | Time | Notes |
//! |---|---|---|
//! | Build | `O(n log n)` | canonical-cover insertion |
//! | Stabbing | `O(log n + K)` | the structure's native operator |
//! | Range search | `O(K log n)` + dedup | why the paper builds on the interval tree instead (§VI) |
//! | Space | `O(n log n)` | one copy per canonical node |

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use irs_core::{vec_bytes, Endpoint, Interval, ItemId, MemoryFootprint, StabbingQuery};

#[derive(Debug)]
struct SegNode {
    /// Ids of intervals whose canonical cover includes this node.
    items: Vec<ItemId>,
}

/// Static segment tree over a dataset of `n` intervals.
///
/// ```
/// use irs_segment_tree::SegmentTree;
/// use irs_core::{Interval, StabbingQuery};
///
/// let data = vec![Interval::new(0i64, 10), Interval::new(5, 15), Interval::new(20, 30)];
/// let st = SegmentTree::new(&data);
/// assert_eq!(st.stab(7), vec![0, 1]);
/// assert_eq!(st.stab_count(25), 1);
/// assert!(st.stab(16).is_empty());
/// ```
#[derive(Debug)]
pub struct SegmentTree<E> {
    /// Sorted distinct endpoint values; slab `2i+1` is the point
    /// `coords[i]`, slab `2i` the open gap before it.
    coords: Vec<E>,
    /// Heap-shaped node arena over `num_slabs` leaves (1-indexed,
    /// `nodes[1]` is the root).
    nodes: Vec<SegNode>,
    /// Number of leaves = `2 · coords.len() + 1` rounded up to a power of
    /// two for a perfect tree.
    leaves: usize,
    len: usize,
}

impl<E: Endpoint> SegmentTree<E> {
    /// Builds the tree in `O(n log n)`.
    pub fn new(data: &[Interval<E>]) -> Self {
        let mut coords: Vec<E> = Vec::with_capacity(data.len() * 2);
        for iv in data {
            coords.push(iv.lo);
            coords.push(iv.hi);
        }
        coords.sort_unstable();
        coords.dedup();

        let slab_count = (2 * coords.len() + 1).max(1);
        let leaves = slab_count.next_power_of_two();
        let mut nodes = Vec::with_capacity(2 * leaves);
        nodes.resize_with(2 * leaves, || SegNode { items: Vec::new() });
        let mut tree = SegmentTree {
            coords,
            nodes,
            leaves,
            len: data.len(),
        };
        for (i, iv) in data.iter().enumerate() {
            let lo_slab = tree.point_slab(iv.lo);
            let hi_slab = tree.point_slab(iv.hi);
            tree.insert(1, 0, tree.leaves, lo_slab, hi_slab + 1, i as ItemId);
        }
        tree
    }

    /// Slab index of an endpoint value that is known to be in `coords`.
    fn point_slab(&self, v: E) -> usize {
        let i = self
            .coords
            .binary_search(&v)
            .expect("endpoint must be a coordinate");
        2 * i + 1
    }

    /// Slab index of an arbitrary query point: the point slab when `p` is
    /// an endpoint value, otherwise the gap slab it falls into.
    fn query_slab(&self, p: E) -> usize {
        match self.coords.binary_search(&p) {
            Ok(i) => 2 * i + 1,
            Err(i) => 2 * i,
        }
    }

    /// Standard canonical-cover insertion over slab range `[lo, hi)`.
    fn insert(&mut self, node: usize, nlo: usize, nhi: usize, lo: usize, hi: usize, id: ItemId) {
        if hi <= nlo || nhi <= lo {
            return;
        }
        if lo <= nlo && nhi <= hi {
            self.nodes[node].items.push(id);
            return;
        }
        let mid = (nlo + nhi) / 2;
        self.insert(2 * node, nlo, mid, lo, hi, id);
        self.insert(2 * node + 1, mid, nhi, lo, hi, id);
    }

    /// Number of intervals indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree indexes no intervals.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of intervals stabbed by `p`, in `O(log n)` — unlike
    /// reporting, counting needs only list lengths on the path.
    pub fn stab_count(&self, p: E) -> usize {
        if self.len == 0 {
            return 0;
        }
        let slab = self.query_slab(p);
        let mut node = self.leaves + slab;
        let mut count = 0;
        while node >= 1 {
            count += self.nodes[node].items.len();
            if node == 1 {
                break;
            }
            node /= 2;
        }
        count
    }

    /// Range search by visiting every canonical node intersecting the
    /// query's slab range, then deduplicating — `O(K log n + log² n)`
    /// with `K` visits before dedup. Provided for completeness; the
    /// paper's point is precisely that this structure has no *efficient*
    /// range reporting, which motivates the interval-tree base of the AIT.
    pub fn range_search(&self, q: Interval<E>) -> Vec<ItemId> {
        if self.len == 0 {
            return Vec::new();
        }
        let lo_slab = self.query_slab(q.lo);
        let hi_slab = self.query_slab(q.hi);
        let mut out = Vec::new();
        self.collect_range(1, 0, self.leaves, lo_slab, hi_slab + 1, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_range(
        &self,
        node: usize,
        nlo: usize,
        nhi: usize,
        lo: usize,
        hi: usize,
        out: &mut Vec<ItemId>,
    ) {
        if hi <= nlo || nhi <= lo {
            return;
        }
        out.extend_from_slice(&self.nodes[node].items);
        if nhi - nlo == 1 {
            return;
        }
        let mid = (nlo + nhi) / 2;
        self.collect_range(2 * node, nlo, mid, lo, hi, out);
        self.collect_range(2 * node + 1, mid, nhi, lo, hi, out);
    }
}

impl<E: Endpoint> StabbingQuery<E> for SegmentTree<E> {
    fn stab_into(&self, p: E, out: &mut Vec<ItemId>) {
        if self.len == 0 {
            return;
        }
        let slab = self.query_slab(p);
        let mut node = self.leaves + slab;
        loop {
            out.extend_from_slice(&self.nodes[node].items);
            if node == 1 {
                break;
            }
            node /= 2;
        }
    }
}

impl<E: Endpoint> MemoryFootprint for SegmentTree<E> {
    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.coords)
            + self.nodes.capacity() * std::mem::size_of::<SegNode>()
            + self
                .nodes
                .iter()
                .map(|n| vec_bytes(&n.items))
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_core::BruteForce;
    use proptest::prelude::*;

    fn iv(lo: i64, hi: i64) -> Interval<i64> {
        Interval::new(lo, hi)
    }

    fn sorted(mut v: Vec<ItemId>) -> Vec<ItemId> {
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_tree() {
        let st = SegmentTree::<i64>::new(&[]);
        assert!(st.is_empty());
        assert!(st.stab(5).is_empty());
        assert_eq!(st.stab_count(5), 0);
        assert!(st.range_search(iv(0, 10)).is_empty());
    }

    #[test]
    fn stabbing_matches_oracle() {
        let data = vec![
            iv(0, 10),
            iv(5, 6),
            iv(11, 20),
            iv(-5, -1),
            iv(8, 30),
            iv(6, 6),
        ];
        let st = SegmentTree::new(&data);
        let bf = BruteForce::new(&data);
        for p in [-6, -5, -3, -1, 0, 5, 6, 7, 10, 11, 15, 20, 30, 31] {
            assert_eq!(sorted(st.stab(p)), sorted(bf.stab(p)), "stab {p}");
            assert_eq!(st.stab_count(p), bf.stab(p).len(), "count {p}");
        }
    }

    #[test]
    fn gap_points_between_endpoints() {
        let data = vec![iv(0, 100)];
        let st = SegmentTree::new(&data);
        // 50 is not an endpoint — falls in a gap slab, still stabbed.
        assert_eq!(st.stab(50), vec![0]);
        assert!(st.stab(101).is_empty());
        assert!(st.stab(-1).is_empty());
    }

    #[test]
    fn range_search_with_dedup_matches_oracle() {
        let data = vec![iv(0, 50), iv(10, 20), iv(30, 80), iv(60, 61), iv(90, 95)];
        let st = SegmentTree::new(&data);
        let bf = BruteForce::new(&data);
        for q in [iv(15, 65), iv(0, 100), iv(85, 89), iv(-10, -1), iv(61, 61)] {
            assert_eq!(
                st.range_search(q),
                sorted(irs_core::RangeSearch::range_search(&bf, q)),
                "query {q:?}"
            );
        }
    }

    #[test]
    fn degenerate_point_intervals() {
        let data = vec![iv(5, 5), iv(5, 5), iv(4, 6)];
        let st = SegmentTree::new(&data);
        assert_eq!(sorted(st.stab(5)), vec![0, 1, 2]);
        assert_eq!(st.stab_count(5), 3);
        assert_eq!(sorted(st.stab(4)), vec![2]);
    }

    #[test]
    fn space_is_n_log_n_ish() {
        let data: Vec<_> = (0..4096).map(|i| iv(i, i + 2048)).collect();
        let st = SegmentTree::new(&data);
        let total_stored: usize = st.nodes.iter().map(|n| n.items.len()).sum();
        // Each interval appears at O(log n) canonical nodes.
        assert!(
            total_stored <= 4096 * 2 * 14,
            "stored {total_stored} copies"
        );
        assert!(total_stored >= 4096, "every interval stored at least once");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_stab_matches_oracle(
            raw in prop::collection::vec((-300i64..300, 0i64..200), 1..200),
            probes in prop::collection::vec(-400i64..500, 24),
        ) {
            let data: Vec<_> = raw.iter().map(|&(lo, len)| iv(lo, lo + len)).collect();
            let st = SegmentTree::new(&data);
            let bf = BruteForce::new(&data);
            for &p in &probes {
                prop_assert_eq!(sorted(st.stab(p)), sorted(bf.stab(p)));
                prop_assert_eq!(st.stab_count(p), bf.stab(p).len());
            }
        }

        #[test]
        fn prop_range_search_matches_oracle(
            raw in prop::collection::vec((-200i64..200, 0i64..150), 1..150),
            queries in prop::collection::vec((-250i64..250, 0i64..200), 10),
        ) {
            let data: Vec<_> = raw.iter().map(|&(lo, len)| iv(lo, lo + len)).collect();
            let st = SegmentTree::new(&data);
            let bf = BruteForce::new(&data);
            for &(lo, len) in &queries {
                let q = iv(lo, lo + len);
                prop_assert_eq!(
                    st.range_search(q),
                    sorted(irs_core::RangeSearch::range_search(&bf, q))
                );
            }
        }
    }
}
