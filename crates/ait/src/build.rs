//! Shared top-down builder for the AIT and AWIT.
//!
//! Both trees have the same shape (an interval tree whose nodes carry the
//! augmented subtree lists); they differ only in what each node stores per
//! entry (AWIT adds cumulative weights). The builder threads two pre-sorted
//! views of every subtree's interval set through the recursion so that no
//! per-node sorting is needed: partitioning a sorted list stably keeps it
//! sorted, making construction `O(n log n)` total.

use irs_core::{Endpoint, Interval, ItemId};

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

/// A sorted-list element of the final trees: one endpoint plus the
/// interval's id. Storing single endpoints (not whole intervals) halves the
/// footprint of the augmented lists; each query case only ever compares one
/// endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Key<E> {
    pub key: E,
    pub id: ItemId,
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

/// Output of [`build_tree`]: the node arena plus shape metadata.
pub(crate) struct BuiltTree<N> {
    pub nodes: Vec<N>,
    pub root: u32,
    pub height: usize,
}

/// Builds the tree over `entries` (any order). Returns an empty arena with
/// `root == NIL` for an empty dataset.
pub(crate) fn build_tree<E: Endpoint, F: NodeFactory<E>>(
    factory: &F,
    entries: Vec<BuildEntry<E>>,
) -> BuiltTree<F::Node> {
    let mut by_lo = entries;
    let mut by_hi = by_lo.clone();
    // Secondary id key makes the two orders agree on ties, which keeps the
    // structure deterministic (helpful for tests and reproducible layouts).
    by_lo.sort_unstable_by_key(|a| (a.iv.lo, a.id));
    by_hi.sort_unstable_by_key(|a| (a.iv.hi, a.id));

    let mut tree = BuiltTree {
        nodes: Vec::new(),
        root: NIL,
        height: 0,
    };
    tree.root = build_node(factory, by_lo, by_hi, 1, &mut tree.nodes, &mut tree.height);
    tree
}

fn build_node<E: Endpoint, F: NodeFactory<E>>(
    factory: &F,
    by_lo: Vec<BuildEntry<E>>,
    by_hi: Vec<BuildEntry<E>>,
    depth: usize,
    nodes: &mut Vec<F::Node>,
    height: &mut usize,
) -> u32 {
    if by_lo.is_empty() {
        return NIL;
    }
    *height = (*height).max(depth);

    // Central point: median of all 2|X'| endpoints, so each side of the
    // split inherits at most half of the endpoints (height = O(log n)).
    let mut endpoints: Vec<E> = Vec::with_capacity(by_lo.len() * 2);
    for e in &by_lo {
        endpoints.push(e.iv.lo);
        endpoints.push(e.iv.hi);
    }
    let mid = endpoints.len() / 2;
    let (_, &mut center, _) = endpoints.select_nth_unstable(mid);
    drop(endpoints);

    // Stable three-way partition of both sorted views.
    let (here_lo, left_lo, right_lo) = split_three(by_lo, center);
    let (here_hi, left_hi, right_hi) = split_three(by_hi, center);
    debug_assert!(
        !here_lo.is_empty(),
        "median endpoint must stab at least one interval"
    );
    debug_assert_eq!(here_lo.len(), here_hi.len());

    // Materialize this node before recursing; `all_*` is exactly the
    // concatenation of the three parts in list order, which we rebuild
    // cheaply to hand the factory contiguous slices.
    let mut all_lo = Vec::with_capacity(left_lo.len() + here_lo.len() + right_lo.len());
    merge_sorted_lo(&left_lo, &here_lo, &right_lo, &mut all_lo);
    let mut all_hi = Vec::with_capacity(all_lo.len());
    merge_sorted_hi(&left_hi, &here_hi, &right_hi, &mut all_hi);

    let node = factory.make(center, &here_lo, &here_hi, &all_lo, &all_hi);
    drop(all_lo);
    drop(all_hi);
    let idx = nodes.len() as u32;
    nodes.push(node);

    let left = build_node(factory, left_lo, left_hi, depth + 1, nodes, height);
    let right = build_node(factory, right_lo, right_hi, depth + 1, nodes, height);
    F::set_children(&mut nodes[idx as usize], left, right);
    idx
}

/// (stabbed by center, strictly left, strictly right) partition of a list.
type ThreeWay<E> = (Vec<BuildEntry<E>>, Vec<BuildEntry<E>>, Vec<BuildEntry<E>>);

/// Stable split of `items` into (stabbed by center, strictly left,
/// strictly right).
fn split_three<E: Endpoint>(items: Vec<BuildEntry<E>>, center: E) -> ThreeWay<E> {
    let mut here = Vec::new();
    let mut left = Vec::new();
    let mut right = Vec::new();
    for e in items {
        if e.iv.hi < center {
            left.push(e);
        } else if e.iv.lo > center {
            right.push(e);
        } else {
            here.push(e);
        }
    }
    (here, left, right)
}

/// Three-way merge of lists individually sorted by `(iv.lo, id)`.
fn merge_sorted_lo<E: Endpoint>(
    a: &[BuildEntry<E>],
    b: &[BuildEntry<E>],
    c: &[BuildEntry<E>],
    out: &mut Vec<BuildEntry<E>>,
) {
    merge_by(a, b, c, out, |e| (e.iv.lo, e.id));
}

/// Three-way merge of lists individually sorted by `(iv.hi, id)`.
fn merge_sorted_hi<E: Endpoint>(
    a: &[BuildEntry<E>],
    b: &[BuildEntry<E>],
    c: &[BuildEntry<E>],
    out: &mut Vec<BuildEntry<E>>,
) {
    merge_by(a, b, c, out, |e| (e.iv.hi, e.id));
}

fn merge_by<E: Endpoint, K: Ord>(
    a: &[BuildEntry<E>],
    b: &[BuildEntry<E>],
    c: &[BuildEntry<E>],
    out: &mut Vec<BuildEntry<E>>,
    key: impl Fn(&BuildEntry<E>) -> K,
) {
    let (mut i, mut j, mut k) = (0, 0, 0);
    loop {
        let ka = a.get(i).map(&key);
        let kb = b.get(j).map(&key);
        let kc = c.get(k).map(&key);
        // Pick the smallest present key; `None` sorts last via this match.
        match (&ka, &kb, &kc) {
            (None, None, None) => break,
            _ => {
                let pick_a =
                    ka.is_some() && (kb.is_none() || ka <= kb) && (kc.is_none() || ka <= kc);
                if pick_a {
                    out.push(a[i]);
                    i += 1;
                } else if kb.is_some() && (kc.is_none() || kb <= kc) {
                    out.push(b[j]);
                    j += 1;
                } else {
                    out.push(c[k]);
                    k += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
