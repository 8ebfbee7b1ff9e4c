//! The interval tree structure and its query algorithms.

use irs_core::{
    vec_bytes, Endpoint, Interval, ItemId, MemoryFootprint, PreparedSampler, RangeCount,
    RangeSampler, RangeSearch, StabbingQuery, WeightedRangeSampler,
};
use irs_sampling::AliasTable;

/// An interval tagged with its id in the source dataset. Node lists store
/// these pairs so queries can report ids without an indirection.
#[derive(Clone, Copy, Debug)]
struct Entry<E> {
    iv: Interval<E>,
    id: ItemId,
}

/// Sentinel for "no child" (keeps `Node` compact versus `Option<u32>`).
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Node<E> {
    /// Central point `c_i`: intervals in this node are stabbed by it.
    center: E,
    /// `Ll_i`: entries sorted ascending by left endpoint.
    by_lo: Vec<Entry<E>>,
    /// `Lr_i`: the same entries sorted ascending by right endpoint.
    by_hi: Vec<Entry<E>>,
    left: u32,
    right: u32,
}

/// Edelsbrunner's interval tree over a dataset of `n` intervals.
///
/// `O(n)` space, height `O(log n)` (centers are endpoint medians).
#[derive(Debug)]
pub struct IntervalTree<E> {
    nodes: Vec<Node<E>>,
    root: u32,
    len: usize,
    /// Per-interval weights (dataset order) for the weighted IRS baseline;
    /// empty when built unweighted.
    weights: Vec<f64>,
}

impl<E: Endpoint> IntervalTree<E> {
    /// Builds the tree for the unweighted problem.
    pub fn new(data: &[Interval<E>]) -> Self {
        Self::build(data, Vec::new())
    }

    /// Builds the tree for the weighted problem. `weights` must be positive
    /// and aligned with `data`.
    pub fn new_weighted(data: &[Interval<E>], weights: &[f64]) -> Self {
        assert_eq!(data.len(), weights.len(), "weights must align with data");
        assert!(
            weights.iter().all(|&w| w > 0.0 && w.is_finite()),
            "weights must be positive"
        );
        Self::build(data, weights.to_vec())
    }

    fn build(data: &[Interval<E>], weights: Vec<f64>) -> Self {
        let entries: Vec<Entry<E>> = data
            .iter()
            .enumerate()
            .map(|(i, &iv)| Entry {
                iv,
                id: i as ItemId,
            })
            .collect();
        let mut tree = IntervalTree {
            nodes: Vec::new(),
            root: NIL,
            len: data.len(),
            weights,
        };
        tree.root = tree.build_node(entries);
        tree
    }

    /// Recursively builds the subtree over `items`, returning its node
    /// index (or `NIL` when `items` is empty). Recursion depth is the tree
    /// height, `O(log n)` thanks to the median split.
    fn build_node(&mut self, items: Vec<Entry<E>>) -> u32 {
        if items.is_empty() {
            return NIL;
        }
        // Central point: median over all left and right endpoints, which
        // guarantees each side receives at most half of the endpoints and
        // therefore geometric shrinkage of subtree sizes.
        let mut endpoints: Vec<E> = Vec::with_capacity(items.len() * 2);
        for e in &items {
            endpoints.push(e.iv.lo);
            endpoints.push(e.iv.hi);
        }
        let mid = endpoints.len() / 2;
        let (_, &mut center, _) = endpoints.select_nth_unstable(mid);

        let mut here: Vec<Entry<E>> = Vec::new();
        let mut left_items: Vec<Entry<E>> = Vec::new();
        let mut right_items: Vec<Entry<E>> = Vec::new();
        for e in items {
            if e.iv.hi < center {
                left_items.push(e);
            } else if e.iv.lo > center {
                right_items.push(e);
            } else {
                here.push(e);
            }
        }
        debug_assert!(
            !here.is_empty(),
            "median endpoint must stab at least one interval"
        );

        let mut by_lo = here;
        let mut by_hi = by_lo.clone();
        by_lo.sort_unstable_by_key(|a| a.iv.lo);
        by_hi.sort_unstable_by_key(|a| a.iv.hi);

        let idx = self.nodes.len() as u32;
        self.nodes.push(Node {
            center,
            by_lo,
            by_hi,
            left: NIL,
            right: NIL,
        });
        let left = self.build_node(left_items);
        let right = self.build_node(right_items);
        let node = &mut self.nodes[idx as usize];
        node.left = left;
        node.right = right;
        idx
    }

    /// Number of intervals indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree indexes no intervals.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (0 for an empty tree).
    pub fn height(&self) -> usize {
        fn depth<E>(nodes: &[Node<E>], at: u32) -> usize {
            if at == NIL {
                0
            } else {
                let n = &nodes[at as usize];
                1 + depth(nodes, n.left).max(depth(nodes, n.right))
            }
        }
        depth(&self.nodes, self.root)
    }

    /// Walks the tree for a range query, invoking `emit` for every
    /// overlapping entry. This is the shared engine of search and count.
    fn for_each_overlap(&self, q: Interval<E>, mut emit: impl FnMut(&Entry<E>)) {
        let mut at = self.root;
        while at != NIL {
            let node = &self.nodes[at as usize];
            if q.hi < node.center {
                // Case 1: q left of center. Entries with lo ≤ q.hi overlap
                // (their hi ≥ center > q.hi ≥ lo).
                let cut = node.by_lo.partition_point(|e| e.iv.lo <= q.hi);
                for e in &node.by_lo[..cut] {
                    emit(e);
                }
                at = node.left;
            } else if node.center < q.lo {
                // Case 2: q right of center. Entries with hi ≥ q.lo overlap.
                let cut = node.by_hi.partition_point(|e| e.iv.hi < q.lo);
                for e in &node.by_hi[cut..] {
                    emit(e);
                }
                at = node.right;
            } else {
                // Case 3: q stabs the center — everything here overlaps,
                // and (unlike the AIT) *both* subtrees must be visited.
                for e in &node.by_lo {
                    emit(e);
                }
                self.descend_both(node.left, q, &mut emit);
                at = node.right;
            }
        }
    }

    /// Recursive arm used once a case-3 node forks the traversal.
    fn descend_both(&self, at: u32, q: Interval<E>, emit: &mut impl FnMut(&Entry<E>)) {
        if at == NIL {
            return;
        }
        let node = &self.nodes[at as usize];
        if q.hi < node.center {
            let cut = node.by_lo.partition_point(|e| e.iv.lo <= q.hi);
            for e in &node.by_lo[..cut] {
                emit(e);
            }
            self.descend_both(node.left, q, emit);
        } else if node.center < q.lo {
            let cut = node.by_hi.partition_point(|e| e.iv.hi < q.lo);
            for e in &node.by_hi[cut..] {
                emit(e);
            }
            self.descend_both(node.right, q, emit);
        } else {
            for e in &node.by_lo {
                emit(e);
            }
            self.descend_both(node.left, q, emit);
            self.descend_both(node.right, q, emit);
        }
    }
}

impl<E: Endpoint> RangeSearch<E> for IntervalTree<E> {
    fn range_search_into(&self, q: Interval<E>, out: &mut Vec<ItemId>) {
        self.for_each_overlap(q, |e| out.push(e.id));
    }
}

impl<E: Endpoint> RangeCount<E> for IntervalTree<E> {
    fn range_count(&self, q: Interval<E>) -> usize {
        // Same traversal but per-node binary searches instead of scans, so
        // counting costs O(log n) per visited node.
        let mut count = 0usize;
        let mut stack = vec![self.root];
        while let Some(at) = stack.pop() {
            if at == NIL {
                continue;
            }
            let node = &self.nodes[at as usize];
            if q.hi < node.center {
                count += node.by_lo.partition_point(|e| e.iv.lo <= q.hi);
                stack.push(node.left);
            } else if node.center < q.lo {
                count += node.by_hi.len() - node.by_hi.partition_point(|e| e.iv.hi < q.lo);
                stack.push(node.right);
            } else {
                count += node.by_lo.len();
                stack.push(node.left);
                stack.push(node.right);
            }
        }
        count
    }
}

impl<E: Endpoint> StabbingQuery<E> for IntervalTree<E> {
    fn stab_into(&self, p: E, out: &mut Vec<ItemId>) {
        self.for_each_overlap(Interval::point(p), |e| out.push(e.id));
    }
}

/// Phase-2 handle of the interval-tree baseline: the materialized result
/// set, optionally with the weights needed to build a per-query alias.
pub struct IntervalTreePrepared<'a> {
    candidates: Vec<ItemId>,
    /// Dataset weights; `Some` selects the weighted sampling path, where
    /// alias construction is (deliberately) part of the sampling phase,
    /// matching how the paper attributes costs in Table IX.
    weights: Option<&'a [f64]>,
}

impl IntervalTreePrepared<'_> {
    /// Total result-set weight (1 per candidate on the uniform path):
    /// one pass over the already-materialized candidates, no re-search.
    pub fn total_weight(&self) -> f64 {
        irs_core::candidates_weight(&self.candidates, self.weights)
    }
}

impl PreparedSampler for IntervalTreePrepared<'_> {
    fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    fn sample_into<R: rand::RngCore + ?Sized>(&self, rng: &mut R, s: usize, out: &mut Vec<ItemId>) {
        if self.candidates.is_empty() {
            return;
        }
        match self.weights {
            None => {
                for _ in 0..s {
                    let k = rand::Rng::random_range(&mut *rng, 0..self.candidates.len());
                    out.push(self.candidates[k]);
                }
            }
            Some(weights) => {
                let ws: Vec<f64> = self
                    .candidates
                    .iter()
                    .map(|&id| weights[id as usize])
                    .collect();
                let alias = AliasTable::new(&ws);
                for _ in 0..s {
                    out.push(self.candidates[alias.sample(rng)]);
                }
            }
        }
    }
}

impl<E: Endpoint> RangeSampler<E> for IntervalTree<E> {
    type Prepared<'a> = IntervalTreePrepared<'a>;

    fn prepare(&self, q: Interval<E>) -> IntervalTreePrepared<'_> {
        IntervalTreePrepared {
            candidates: self.range_search(q),
            weights: None,
        }
    }
}

impl<E: Endpoint> WeightedRangeSampler<E> for IntervalTree<E> {
    type Prepared<'a> = IntervalTreePrepared<'a>;

    fn prepare_weighted(&self, q: Interval<E>) -> IntervalTreePrepared<'_> {
        assert!(
            !self.weights.is_empty() || self.len == 0,
            "weighted sampling requires IntervalTree::new_weighted"
        );
        IntervalTreePrepared {
            candidates: self.range_search(q),
            weights: Some(&self.weights),
        }
    }
}

impl<E: Endpoint> MemoryFootprint for IntervalTree<E> {
    fn heap_bytes(&self) -> usize {
        let mut bytes = self.nodes.capacity() * std::mem::size_of::<Node<E>>();
        for node in &self.nodes {
            bytes += vec_bytes(&node.by_lo) + vec_bytes(&node.by_hi);
        }
        bytes + vec_bytes(&self.weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_core::BruteForce;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn iv(lo: i64, hi: i64) -> Interval<i64> {
        Interval::new(lo, hi)
    }

    fn sorted(mut v: Vec<ItemId>) -> Vec<ItemId> {
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_tree_answers_everything_empty() {
        let t = IntervalTree::<i64>::new(&[]);
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(t.range_search(iv(0, 10)).is_empty());
        assert_eq!(t.range_count(iv(0, 10)), 0);
        assert!(t.stab(5).is_empty());
        let mut rng = StdRng::seed_from_u64(0);
        assert!(t.sample(iv(0, 10), 5, &mut rng).is_empty());
    }

    #[test]
    fn small_fixture_matches_oracle() {
        let data = vec![
            iv(0, 10),
            iv(5, 6),
            iv(11, 20),
            iv(-5, -1),
            iv(8, 30),
            iv(2, 2),
        ];
        let t = IntervalTree::new(&data);
        let bf = BruteForce::new(&data);
        for q in [
            iv(6, 9),
            iv(-100, 100),
            iv(40, 50),
            iv(10, 11),
            iv(2, 2),
            iv(-5, -5),
        ] {
            assert_eq!(
                sorted(t.range_search(q)),
                sorted(bf.range_search(q)),
                "query {q:?}"
            );
            assert_eq!(t.range_count(q), bf.range_count(q), "count {q:?}");
        }
        for p in [-6, -5, 0, 2, 6, 10, 20, 31] {
            assert_eq!(sorted(t.stab(p)), sorted(bf.stab(p)), "stab {p}");
        }
    }

    #[test]
    fn duplicates_are_reported_individually() {
        let data = vec![iv(1, 5); 7];
        let t = IntervalTree::new(&data);
        assert_eq!(t.range_count(iv(3, 3)), 7);
        assert_eq!(sorted(t.range_search(iv(0, 9))), vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn height_is_logarithmic() {
        let data: Vec<_> = (0..4096).map(|i| iv(i * 10, i * 10 + 5)).collect();
        let t = IntervalTree::new(&data);
        // 4096 disjoint intervals: height should be near log2(4096) = 12,
        // certainly far below n.
        assert!(t.height() <= 16, "height {} too large", t.height());
    }

    #[test]
    fn nested_intervals_pile_into_one_node() {
        // Every interval stabs the global median → single node, height 1.
        let data: Vec<_> = (0..64).map(|i| iv(-i, i)).collect();
        let t = IntervalTree::new(&data);
        assert_eq!(t.height(), 1);
        assert_eq!(t.range_count(iv(0, 0)), 64);
    }

    #[test]
    fn samples_are_supported_and_complete() {
        let data: Vec<_> = (0..100).map(|i| iv(i, i + 10)).collect();
        let t = IntervalTree::new(&data);
        let bf = BruteForce::new(&data);
        let q = iv(30, 50);
        let support = bf.range_search(q);
        let mut rng = StdRng::seed_from_u64(9);
        let samples = t.sample(q, 5000, &mut rng);
        assert_eq!(samples.len(), 5000);
        for &id in &samples {
            assert!(support.contains(&id));
        }
        // With 5000 draws over ~31 candidates, all should be seen.
        let mut seen: Vec<_> = samples.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(sorted(seen), sorted(support));
    }

    #[test]
    fn weighted_sampling_prefers_heavy_items() {
        let data = vec![iv(0, 10), iv(0, 10), iv(0, 10)];
        let weights = vec![1.0, 1.0, 98.0];
        let t = IntervalTree::new_weighted(&data, &weights);
        let mut rng = StdRng::seed_from_u64(10);
        let samples = t.sample_weighted(iv(5, 5), 2000, &mut rng);
        let heavy = samples.iter().filter(|&&s| s == 2).count();
        assert!(heavy > 1800, "heavy item drawn {heavy}/2000");
    }

    #[test]
    fn footprint_counts_node_lists() {
        let data: Vec<_> = (0..1000).map(|i| iv(i, i + 3)).collect();
        let t = IntervalTree::new(&data);
        // Two sorted lists of 1000 entries of 24 bytes minimum.
        assert!(t.heap_bytes() >= 2 * 1000 * std::mem::size_of::<Entry<i64>>());
    }

    proptest! {
        #[test]
        fn prop_matches_oracle(
            raw in prop::collection::vec((0i64..2000, 0i64..200), 1..300),
            queries in prop::collection::vec((0i64..2200, 0i64..400), 20),
        ) {
            let data: Vec<_> = raw.iter().map(|&(lo, len)| iv(lo, lo + len)).collect();
            let t = IntervalTree::new(&data);
            let bf = BruteForce::new(&data);
            prop_assert!(t.height() <= 2 * (data.len() as f64).log2().ceil() as usize + 2);
            for &(lo, len) in &queries {
                let q = iv(lo, lo + len);
                prop_assert_eq!(sorted(t.range_search(q)), sorted(bf.range_search(q)));
                prop_assert_eq!(t.range_count(q), bf.range_count(q));
                prop_assert_eq!(sorted(t.stab(lo)), sorted(bf.stab(lo)));
            }
        }
    }
}
