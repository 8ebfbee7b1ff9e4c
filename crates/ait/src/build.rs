//! Shared top-down builder for the AIT and AWIT.
//!
//! Both trees have the same shape (an interval tree whose nodes carry the
//! augmented subtree lists); they differ only in what each node stores per
//! entry (AWIT adds cumulative weights). Both store a node's lists as the
//! same two column sets ([`Cols`]): one per endpoint side, each holding
//! the subtree's `AL` run and then the node's own `L` run, as a key
//! column and an id column.
//!
//! The builder threads two sorted views of every subtree's interval set
//! through the recursion, one by `(lo, id)` and one by `(hi, id)`, and
//! sorts nothing below the root:
//! - a node's two views *are* its `AL` runs, handed to the factory as
//!   they are;
//! - its center, the median of the 2m endpoints, is the rank-m key of
//!   the two views' key runs, found by an `O(log m)` two-run selection;
//! - its `L` runs, the entries the center stabs, are filtered out of the
//!   views into one scratch pair that every node reuses;
//! - the rest of each view splits stably into the children's views, so
//!   they stay sorted. Two binary searches give the parts' sizes, so each
//!   part is allocated at its exact size. Construction is `O(n log n)`
//!   total.
//!
//! [`build_tree`] sorts the two views once; [`build_presorted`] takes them
//! already sorted, which a rebuild reads off the old root's `AL` runs.

use irs_core::{vec_bytes, Endpoint, Interval, ItemId};

/// Sentinel child index meaning "no child".
pub(crate) const NIL: u32 = u32::MAX;

/// An interval with its dataset id and weight, the builder's working unit.
/// Unweighted builds pass `w = 1.0` and simply ignore it in the factory.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BuildEntry<E> {
    pub iv: Interval<E>,
    pub id: ItemId,
    pub w: f64,
}

/// One side of a tree node's sorted lists, stored as columns: the
/// subtree's `AL` run first, then the node's own `L` run (the node's
/// `split` says where one ends). Each entry is one endpoint and the
/// interval's id, in two aligned columns: searches read only `keys`,
/// draws and gathers only `ids`, so neither drags the other through the
/// cache. Storing single endpoints (not whole intervals) halves the
/// footprint of the augmented lists; each query case only ever compares
/// one endpoint.
#[derive(Clone, Debug)]
pub(crate) struct Cols<E> {
    pub keys: Vec<E>,
    pub ids: Vec<ItemId>,
}

impl<E> Cols<E> {
    pub(crate) fn new() -> Self {
        Cols {
            keys: Vec::new(),
            ids: Vec::new(),
        }
    }
}

impl<E: Endpoint> Cols<E> {
    /// The columns of `all` then `here`, keyed by `key`, at exact
    /// capacity.
    pub(crate) fn of_runs(
        all: &[BuildEntry<E>],
        here: &[BuildEntry<E>],
        key: impl Fn(&Interval<E>) -> E,
    ) -> Self {
        Cols {
            keys: all.iter().chain(here).map(|e| key(&e.iv)).collect(),
            ids: all.iter().chain(here).map(|e| e.id).collect(),
        }
    }

    /// Heap bytes the two columns retain.
    pub(crate) fn heap_bytes(&self) -> usize {
        vec_bytes(&self.keys) + vec_bytes(&self.ids)
    }
}

/// How a tree type materializes a node from the builder's sorted slices.
pub(crate) trait NodeFactory<E: Endpoint> {
    type Node;

    /// Builds a node from the entries stabbed by `center` (`here_*`, the
    /// `Ll`/`Lr` lists) and all entries of the subtree (`all_*`, the
    /// `ALl`/`ALr` lists). `here_lo`/`all_lo` are sorted by `iv.lo`,
    /// `here_hi`/`all_hi` by `iv.hi`. Children are patched in later via
    /// [`NodeFactory::set_children`].
    fn make(
        &self,
        center: E,
        here_lo: &[BuildEntry<E>],
        here_hi: &[BuildEntry<E>],
        all_lo: &[BuildEntry<E>],
        all_hi: &[BuildEntry<E>],
    ) -> Self::Node;

    fn set_children(node: &mut Self::Node, left: u32, right: u32);
}

/// Output of [`build_presorted`]: the node arena plus shape metadata.
pub(crate) struct BuiltTree<N> {
    pub nodes: Vec<N>,
    pub root: u32,
    pub height: usize,
    /// How many intervals the tree holds.
    pub len: usize,
}

/// The builder's order on the left endpoint side: the secondary id key
/// makes the order total, so one entry set has exactly one sorted list
/// (deterministic layouts, and a rebuild can merge instead of sort).
fn lo_order<E: Endpoint>(e: &BuildEntry<E>) -> (E, ItemId) {
    (e.iv.lo, e.id)
}

/// The builder's order on the right endpoint side (see [`lo_order`]).
fn hi_order<E: Endpoint>(e: &BuildEntry<E>) -> (E, ItemId) {
    (e.iv.hi, e.id)
}

/// Builds the tree over `entries` (any order): the two sorts, then
/// [`build_presorted`]. Returns an empty arena with `root == NIL` for an
/// empty dataset.
pub(crate) fn build_tree<E: Endpoint, F: NodeFactory<E>>(
    factory: &F,
    entries: Vec<BuildEntry<E>>,
) -> BuiltTree<F::Node> {
    let mut by_lo = entries;
    let mut by_hi = by_lo.clone();
    by_lo.sort_unstable_by_key(lo_order);
    by_hi.sort_unstable_by_key(hi_order);
    build_presorted(factory, by_lo, by_hi)
}

/// Builds the tree over one entry set given in both of the builder's
/// orders: `by_lo` sorted by [`lo_order`], `by_hi` by [`hi_order`]. A
/// rebuild reads both straight off the old root's `AL` runs, so it
/// sorts nothing over the whole set.
pub(crate) fn build_presorted<E: Endpoint, F: NodeFactory<E>>(
    factory: &F,
    by_lo: Vec<BuildEntry<E>>,
    by_hi: Vec<BuildEntry<E>>,
) -> BuiltTree<F::Node> {
    debug_assert_eq!(by_lo.len(), by_hi.len());
    debug_assert!(by_lo.is_sorted_by_key(lo_order) && by_hi.is_sorted_by_key(hi_order));
    let mut tree = BuiltTree {
        nodes: Vec::new(),
        root: NIL,
        height: 0,
        len: by_lo.len(),
    };
    let mut here = (Vec::new(), Vec::new());
    tree.root = build_node(
        factory,
        by_lo,
        by_hi,
        &mut here,
        1,
        &mut tree.nodes,
        &mut tree.height,
    );
    // The arena grew by doubling; a decoded tree holds exactly its nodes,
    // and so does a built one.
    tree.nodes.shrink_to_fit();
    tree
}

/// `build_presorted`'s input for a tree whose old root already holds
/// its resident entries in both orders (`lo_run`, `hi_run`: the root's
/// `ALl` and `ALr` runs, read as entries), plus `pool`, in any order:
/// the pool is sorted (it is small) and merged into each run, so the
/// `n` entries come out sorted without a sort over all of them.
pub(crate) fn presorted_with_pool<E: Endpoint>(
    lo_run: impl Iterator<Item = BuildEntry<E>>,
    hi_run: impl Iterator<Item = BuildEntry<E>>,
    mut pool: Vec<BuildEntry<E>>,
    n: usize,
) -> (Vec<BuildEntry<E>>, Vec<BuildEntry<E>>) {
    pool.sort_unstable_by_key(lo_order);
    let by_lo = merge_run(lo_run, &pool, lo_order, n);
    pool.sort_unstable_by_key(hi_order);
    let by_hi = merge_run(hi_run, &pool, hi_order, n);
    (by_lo, by_hi)
}

/// Merges `run` and `pool`, both sorted by `key`, into `n` entries.
fn merge_run<E: Endpoint>(
    run: impl Iterator<Item = BuildEntry<E>>,
    pool: &[BuildEntry<E>],
    key: fn(&BuildEntry<E>) -> (E, ItemId),
    n: usize,
) -> Vec<BuildEntry<E>> {
    let mut out = Vec::with_capacity(n);
    let mut pool = pool.iter().peekable();
    for e in run {
        while let Some(&p) = pool.next_if(|p| key(p) < key(&e)) {
            out.push(p);
        }
        out.push(e);
    }
    out.extend(pool);
    debug_assert_eq!(out.len(), n);
    out
}

/// Builds the subtree over the entry set that `by_lo` and `by_hi` hold
/// in the builder's two orders, and returns its root (`NIL` when the set
/// is empty). `here` is scratch for the node's `L` runs.
fn build_node<E: Endpoint, F: NodeFactory<E>>(
    factory: &F,
    by_lo: Vec<BuildEntry<E>>,
    by_hi: Vec<BuildEntry<E>>,
    here: &mut (Vec<BuildEntry<E>>, Vec<BuildEntry<E>>),
    depth: usize,
    nodes: &mut Vec<F::Node>,
    height: &mut usize,
) -> u32 {
    let m = by_lo.len();
    if m == 0 {
        return NIL;
    }
    *height = (*height).max(depth);

    // Central point: the median (rank m) of all 2m endpoints, so each
    // side of the split inherits at most half of them (height
    // = O(log n)). The left endpoints are `by_lo`'s keys and the right
    // ones `by_hi`'s, both already sorted: two-run selection.
    let center = select_in_two(&by_lo, |e| e.iv.lo, &by_hi, |e| e.iv.hi, m);

    // The children's sizes, by one binary search each: the left child's
    // entries (ending before the center) are a prefix of `by_hi`, the
    // right child's (starting after it) a suffix of `by_lo`.
    let left = by_hi.partition_point(|e| e.iv.hi < center);
    let right = m - by_lo.partition_point(|e| e.iv.lo <= center);
    debug_assert!(left + right < m, "median endpoint must stab an interval");

    // The node's `AL` runs are its input as it is; its `L` runs are the
    // entries the center stabs, filtered out of each run in order.
    let stabbed = |e: &&BuildEntry<E>| e.iv.lo <= center && center <= e.iv.hi;
    here.0.clear();
    here.0.extend(by_lo[..m - right].iter().filter(stabbed));
    here.1.clear();
    here.1.extend(by_hi[left..].iter().filter(stabbed));
    let node = factory.make(center, &here.0, &here.1, &by_lo, &by_hi);
    let idx = nodes.len() as u32;
    nodes.push(node);

    // Stable split of each run into the children's runs. Each run is
    // freed as soon as it is split: splitting in place instead keeps both
    // whole runs alive to the end of the build, and freeing them then
    // leaves a hole in the heap that stays resident (7.6 MiB more RSS
    // after repeated Taxi n = 250 000 `awit-dynamic` builds on glibc).
    let (left_lo, right_lo) = split_children(by_lo, center, [left, right]);
    let (left_hi, right_hi) = split_children(by_hi, center, [left, right]);

    let left = build_node(factory, left_lo, left_hi, here, depth + 1, nodes, height);
    let right = build_node(factory, right_lo, right_hi, here, depth + 1, nodes, height);
    F::set_children(&mut nodes[idx as usize], left, right);
    idx
}

/// The entries of `run` that end before `center` and those that start
/// after it, in order, each part allocated at its known size (`left`,
/// `right`).
fn split_children<E: Endpoint>(
    run: Vec<BuildEntry<E>>,
    center: E,
    [left, right]: [usize; 2],
) -> (Vec<BuildEntry<E>>, Vec<BuildEntry<E>>) {
    let mut parts = (Vec::with_capacity(left), Vec::with_capacity(right));
    for e in run {
        if e.iv.hi < center {
            parts.0.push(e);
        } else if e.iv.lo > center {
            parts.1.push(e);
        }
    }
    parts
}

/// The rank-`k` (0-based) key of the union of `a` and `b`, each sorted
/// by its own key: the value `select_nth_unstable(k)` finds over both key
/// lists, in `O(log min(|a|, |b|))`. Binary search on how many of the `k`
/// smaller keys come from `a`: taking `i` from `a` is too few exactly when
/// `a[i]` is below `b[k - i - 1]`, the last key it would take from `b`.
fn select_in_two<T, K: Ord>(
    a: &[T],
    key_a: impl Fn(&T) -> K,
    b: &[T],
    key_b: impl Fn(&T) -> K,
    k: usize,
) -> K {
    let (mut lo, mut hi) = (k.saturating_sub(b.len()), k.min(a.len()));
    while lo < hi {
        // lo ≤ i < hi keeps `i < |a|` and `k - i - 1 < |b|`.
        let i = lo + (hi - lo) / 2;
        if key_a(&a[i]) < key_b(&b[k - i - 1]) {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    // `lo` keys from `a` and `k - lo` from `b` are the `k` smallest; the
    // smaller of the two next keys is the rank-`k` one.
    let next_a = a.get(lo).map(key_a);
    let next_b = b.get(k - lo).map(key_b);
    next_a
        .into_iter()
        .chain(next_b)
        .min()
        .expect("rank k lies inside the two runs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn be(lo: i64, hi: i64, id: ItemId) -> BuildEntry<i64> {
        BuildEntry {
            iv: Interval::new(lo, hi),
            id,
            w: 1.0,
        }
    }

    /// Minimal factory that keeps the raw slices for inspection.
    struct Probe;
    struct ProbeNode {
        center: i64,
        here: usize,
        all_lo: Vec<(i64, ItemId)>,
        all_hi: Vec<(i64, ItemId)>,
        left: u32,
        right: u32,
    }
    impl NodeFactory<i64> for Probe {
        type Node = ProbeNode;
        fn make(
            &self,
            center: i64,
            here_lo: &[BuildEntry<i64>],
            here_hi: &[BuildEntry<i64>],
            all_lo: &[BuildEntry<i64>],
            all_hi: &[BuildEntry<i64>],
        ) -> ProbeNode {
            assert_eq!(here_lo.len(), here_hi.len());
            ProbeNode {
                center,
                here: here_lo.len(),
                all_lo: all_lo.iter().map(|e| (e.iv.lo, e.id)).collect(),
                all_hi: all_hi.iter().map(|e| (e.iv.hi, e.id)).collect(),
                left: NIL,
                right: NIL,
            }
        }
        fn set_children(node: &mut ProbeNode, left: u32, right: u32) {
            node.left = left;
            node.right = right;
        }
    }

    #[test]
    fn empty_build() {
        let t = build_tree(&Probe, Vec::<BuildEntry<i64>>::new());
        assert_eq!(t.root, NIL);
        assert_eq!(t.height, 0);
        assert!(t.nodes.is_empty());
    }

    #[test]
    fn augmented_lists_are_sorted_and_complete() {
        let entries: Vec<_> = (0..200)
            .map(|i| be(i % 37, i % 37 + (i % 11), i as u32))
            .collect();
        let t = build_tree(&Probe, entries.clone());
        let root = &t.nodes[t.root as usize];
        assert_eq!(root.all_lo.len(), entries.len());
        assert!(
            root.all_lo.windows(2).all(|w| w[0].0 <= w[1].0),
            "ALl not sorted"
        );
        assert!(
            root.all_hi.windows(2).all(|w| w[0].0 <= w[1].0),
            "ALr not sorted"
        );
        // Every node: here count ≥ 1, subtree list sizes consistent.
        let mut total_here = 0;
        for node in &t.nodes {
            assert!(node.here >= 1);
            assert_eq!(node.all_lo.len(), node.all_hi.len());
            total_here += node.here;
        }
        assert_eq!(total_here, entries.len());
    }

    #[test]
    fn height_stays_logarithmic() {
        let entries: Vec<_> = (0..10_000)
            .map(|i| be(i * 3, i * 3 + 1, i as u32))
            .collect();
        let t = build_tree(&Probe, entries);
        assert!(
            t.height <= 18,
            "height {} for 10k disjoint intervals",
            t.height
        );
    }

    #[test]
    fn children_partition_strictly() {
        let entries: Vec<_> = (0..500)
            .map(|i| be((i * 7) % 100, (i * 7) % 100 + (i % 13), i as u32))
            .collect();
        let t = build_tree(&Probe, entries);
        for node in &t.nodes {
            if node.left != NIL {
                let l = &t.nodes[node.left as usize];
                assert!(
                    l.all_hi.last().unwrap().0 < node.center,
                    "left child leaks over center"
                );
            }
            if node.right != NIL {
                let r = &t.nodes[node.right as usize];
                assert!(
                    r.all_lo.first().unwrap().0 > node.center,
                    "right child leaks over center"
                );
            }
        }
    }

    /// The reference: `select_nth_unstable(k)` over both key runs copied
    /// into one buffer.
    fn select_by_copy(a: &[i64], b: &[i64], k: usize) -> i64 {
        let mut all = [a, b].concat();
        *all.select_nth_unstable(k).1
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// Two sorted runs of equal length m ∈ [1, 300] with keys in 0..8
        /// (heavy ties), reshaped by `shape` into disjoint (either side
        /// first), interleaved and all-equal runs; the two-run selection
        /// agrees with a full selection at every rank, the builder's
        /// rank m among them.
        #[test]
        fn prop_two_run_selection_matches_select_nth(
            pairs in prop::collection::vec((0i64..8, 0i64..8), 1..301),
            shape in 0u8..5,
        ) {
            let (mut a, mut b): (Vec<i64>, Vec<i64>) = pairs.into_iter().unzip();
            match shape {
                1 => b.iter_mut().for_each(|k| *k += 8),
                2 => a.iter_mut().for_each(|k| *k += 8),
                3 => {
                    a.iter_mut().for_each(|k| *k *= 2);
                    b.iter_mut().for_each(|k| *k = 2 * *k + 1);
                }
                4 => b.iter_mut().chain(&mut a).for_each(|k| *k = 5),
                _ => {}
            }
            a.sort_unstable();
            b.sort_unstable();
            let key = |&k: &i64| k;
            for k in 0..2 * a.len() {
                prop_assert_eq!(select_in_two(&a, key, &b, key, k), select_by_copy(&a, &b, k));
            }
        }
    }
}
