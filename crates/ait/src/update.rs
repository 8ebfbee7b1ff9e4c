//! AIT updates (§III-D): one-by-one insertion, pooled batch insertion, and
//! deletion, with a height-triggered rebuild that preserves the `O(log n)`
//! height bound Algorithm 1's analysis depends on.
//!
//! Each side of a node is one column set holding the `AL` run and then
//! the `L` run, so an update that touches both runs of a side (the
//! home node of an insert or delete) shifts the side once: entries
//! between the two gaps move by one, entries past the `L` gap by two.

use crate::ait::{root_run, Ait, AitNode};
use crate::build::{presorted_with_pool, BuildEntry, Cols, NIL};
use crate::records::ListKind;
use irs_core::{Endpoint, Interval, ItemId};
use std::ops::Range;

/// One list entry a pooled interval adds to one node: `in_l` says
/// whether it joins the node's `L` run or its `AL` run. The derived
/// order groups a flush's entries by node, then `AL` before `L`, then by
/// `(key, id)`: the order each run keeps.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Added<E> {
    node: u32,
    in_l: bool,
    key: E,
    id: ItemId,
}

/// Where `(key, id)` belongs in a run sorted by `(key, id)`.
fn sorted_position<E: Endpoint>(keys: &[E], ids: &[ItemId], key: E, id: ItemId) -> usize {
    let ties = equal_keys(keys, key);
    ties.start + ids[ties].partition_point(|&x| x < id)
}

/// Where `(key, id)` sits in a run sorted by key, if it does.
fn find<E: Endpoint>(keys: &[E], ids: &[ItemId], key: E, id: ItemId) -> Option<usize> {
    let ties = equal_keys(keys, key);
    let at = ids[ties.clone()].iter().position(|&x| x == id)?;
    Some(ties.start + at)
}

/// The span of entries whose key is `key` in the sorted `keys`.
fn equal_keys<E: Endpoint>(keys: &[E], key: E) -> Range<usize> {
    let first = keys.partition_point(|&k| k < key);
    first..first + keys[first..].partition_point(|&k| k <= key)
}

/// Inserts `a` before position `i` and `b` before position `j` (`i ≤ j`,
/// both in the column as it is), moving each entry once.
fn insert_two<T: Copy>(v: &mut Vec<T>, i: usize, a: T, j: usize, b: T) {
    let len = v.len();
    v.extend([b, b]);
    v.copy_within(j..len, j + 2);
    v.copy_within(i..j, i + 1);
    v[i] = a;
    v[j + 1] = b;
}

/// Removes the entries at positions `i < j`, moving each survivor once.
fn remove_two<T: Copy>(v: &mut Vec<T>, i: usize, j: usize) {
    let len = v.len();
    v.copy_within(i + 1..j, i);
    v.copy_within(j + 1..len, j - 1);
    v.truncate(len - 2);
}

/// Merges the sorted `adds` into the run `run` of `side`, filling from
/// the back. The column has already grown by every entry this merge and
/// the merges right of it add; the run's entries end up `shift` slots
/// further right, together with the `adds`.
fn merge_back<E: Endpoint>(side: &mut Cols<E>, run: Range<usize>, shift: usize, adds: &[Added<E>]) {
    let (keys, ids) = (&mut side.keys, &mut side.ids);
    let mut i = run.end;
    let mut w = run.end + shift + adds.len();
    for add in adds.iter().rev() {
        while i > run.start && (keys[i - 1], ids[i - 1]) > (add.key, add.id) {
            i -= 1;
            w -= 1;
            keys[w] = keys[i];
            ids[w] = ids[i];
        }
        w -= 1;
        keys[w] = add.key;
        ids[w] = add.id;
    }
    // The entries left of every add move as one block, if at all.
    if shift > 0 {
        keys.copy_within(run.start..i, run.start + shift);
        ids.copy_within(run.start..i, run.start + shift);
    }
}

/// Merges one node's pooled entries (`adds`, in [`Added`] order) on
/// `side`: the column grows once, the `L` run merges from the back,
/// then the `AL` run.
fn merge_side<E: Endpoint>(side: &mut Cols<E>, split: usize, adds: &[Added<E>]) {
    let Some(fill) = adds.first() else {
        return;
    };
    let (al, l) = adds.split_at(adds.partition_point(|a| !a.in_l));
    let len = side.keys.len();
    side.keys.resize(len + adds.len(), fill.key);
    side.ids.resize(len + adds.len(), fill.id);
    merge_back(side, split..len, al.len(), l);
    merge_back(side, 0..split, 0, al);
}

impl<E: Endpoint> AitNode<E> {
    /// A leaf holding one interval: its center stabs the interval (with
    /// an order-only endpoint type the left endpoint is the natural
    /// pick), so the interval is both the node's `AL` and its `L`.
    fn leaf(iv: Interval<E>, id: ItemId) -> Self {
        AitNode {
            center: iv.lo,
            lo: Cols {
                keys: vec![iv.lo; 2],
                ids: vec![id; 2],
            },
            hi: Cols {
                keys: vec![iv.hi; 2],
                ids: vec![id; 2],
            },
            split: 1,
            left: NIL,
            right: NIL,
        }
    }

    /// Adds `(iv, id)` to both `AL` runs, and, at its home node (`home`),
    /// to both `L` runs too, at their sorted positions.
    fn add(&mut self, iv: Interval<E>, id: ItemId, home: bool) {
        let split = self.split as usize;
        for (side, key) in [(&mut self.lo, iv.lo), (&mut self.hi, iv.hi)] {
            let (keys, ids) = (&side.keys, &side.ids);
            let al = sorted_position(&keys[..split], &ids[..split], key, id);
            if home {
                let l = split + sorted_position(&keys[split..], &ids[split..], key, id);
                insert_two(&mut side.keys, al, key, l, key);
                insert_two(&mut side.ids, al, id, l, id);
            } else {
                side.keys.insert(al, key);
                side.ids.insert(al, id);
            }
        }
        self.split += 1;
    }

    /// Removes `(iv, id)` from both `AL` runs, and, at its home node,
    /// from both `L` runs. A node missing any of those entries is left
    /// as it is.
    fn remove(&mut self, iv: Interval<E>, id: ItemId, home: bool) {
        let split = self.split as usize;
        let locate = |side: &Cols<E>, key: E| {
            let al = find(&side.keys[..split], &side.ids[..split], key, id)?;
            if !home {
                return Some((al, None));
            }
            let l = find(&side.keys[split..], &side.ids[split..], key, id)?;
            Some((al, Some(split + l)))
        };
        let (Some(lo), Some(hi)) = (locate(&self.lo, iv.lo), locate(&self.hi, iv.hi)) else {
            debug_assert!(false, "remove: ({iv:?}, {id}) not found");
            return;
        };
        for (side, (al, l)) in [(&mut self.lo, lo), (&mut self.hi, hi)] {
            match l {
                Some(l) => {
                    remove_two(&mut side.keys, al, l);
                    remove_two(&mut side.ids, al, l);
                }
                None => {
                    side.keys.remove(al);
                    side.ids.remove(al);
                }
            }
        }
        self.split -= 1;
    }
}

impl<E: Endpoint> Ait<E> {
    /// Height above which an insertion triggers a full rebuild
    /// (`2⌈log₂ n⌉ + 2`, a constant factor over the balanced height so
    /// rebuilds stay rare).
    fn height_limit(&self) -> usize {
        2 * (self.len.max(2) as f64).log2().ceil() as usize + 2
    }

    /// Inserts `iv` immediately (one-by-one insertion), returning its new
    /// id. Walks the same cases as Algorithm 1: cases 1/2 update the
    /// visited node's `AL` runs and descend; case 3 additionally updates
    /// the node's own `L` runs and stops. Cost is dominated by the sorted
    /// column shifts — this is exactly the expensive path Table VII
    /// measures against batch insertion.
    pub fn insert(&mut self, iv: Interval<E>) -> ItemId {
        let id = self.alloc_id();
        self.len += 1;
        let mut path = Vec::new();
        let stabbed = self.route(iv, id, &mut path);
        for (k, &at) in path.iter().enumerate() {
            self.nodes[at as usize].add(iv, id, stabbed && k + 1 == path.len());
        }
        if self.height > self.height_limit() {
            self.rebuild();
        }
        id
    }

    /// Buffers `iv` in the insertion pool (batch insertion). The pool is
    /// scanned linearly by queries; once it reaches `⌈log₂ n⌉²` entries it
    /// is flushed into the tree in one pass, merging each touched run
    /// once instead of shifting it per insertion.
    pub fn insert_buffered(&mut self, iv: Interval<E>) -> ItemId {
        let id = self.alloc_id();
        self.pool.push((iv, id));
        self.len += 1;
        if self.pool.len() >= self.pool_capacity {
            self.flush_pool();
        }
        id
    }

    /// Number of intervals currently waiting in the insertion pool.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// How many pooled intervals trigger a flush: `⌈log₂ n⌉²` (at
    /// least 16), with `n` the size at the last build or rebuild.
    pub fn pool_capacity(&self) -> usize {
        self.pool_capacity
    }

    /// Merges every pooled interval into the tree: routes each one,
    /// sorts what the pool adds by node and then by `(key, id)`, and
    /// merges every touched run of every touched node once.
    pub fn flush_pool(&mut self) {
        if self.pool.is_empty() {
            return;
        }
        let pool = std::mem::take(&mut self.pool);
        let (mut adds_lo, mut adds_hi) = (Vec::new(), Vec::new());
        let mut path = Vec::new();
        for (iv, id) in pool {
            path.clear();
            let stabbed = self.route(iv, id, &mut path);
            // Every path node gains the interval in its `AL` runs; the
            // node whose center it stabs, in its `L` runs too.
            let home = path.last().filter(|_| stabbed).map(|&node| (node, true));
            for (node, in_l) in path.iter().map(|&node| (node, false)).chain(home) {
                adds_lo.push(Added {
                    node,
                    in_l,
                    key: iv.lo,
                    id,
                });
                adds_hi.push(Added {
                    node,
                    in_l,
                    key: iv.hi,
                    id,
                });
            }
        }
        adds_lo.sort_unstable();
        adds_hi.sort_unstable();
        for (lo, hi) in adds_lo
            .chunk_by(|a, b| a.node == b.node)
            .zip(adds_hi.chunk_by(|a, b| a.node == b.node))
        {
            let node = &mut self.nodes[lo[0].node as usize];
            let split = node.split as usize;
            merge_side(&mut node.lo, split, lo);
            merge_side(&mut node.hi, split, hi);
            node.split += lo.partition_point(|a| !a.in_l) as u32;
        }
        if self.height > self.height_limit() {
            self.rebuild();
        }
    }

    fn alloc_id(&mut self) -> ItemId {
        let id = self.next_id;
        self.next_id = self.next_id.checked_add(1).expect("id space exhausted");
        id
    }

    /// Walks `(iv, id)`'s insertion path, appending the nodes that gain
    /// it in their lists to `path`, and returns whether the last of them
    /// is its home (the node whose center it stabs). Otherwise the path
    /// ran off the tree, and ends in a new leaf that already holds the
    /// interval and is not on `path`.
    fn route(&mut self, iv: Interval<E>, id: ItemId, path: &mut Vec<u32>) -> bool {
        if self.root == NIL {
            self.root = self.new_leaf(iv, id);
            self.height = 1;
            return false;
        }
        let mut at = self.root;
        loop {
            // Every node on the path gains the interval in its subtree
            // lists — including the case-3 stop node, whose AL lists must
            // keep covering its own L lists for parent-fork queries.
            path.push(at);
            let node = &self.nodes[at as usize];
            let next = if iv.hi < node.center {
                node.left
            } else if iv.lo > node.center {
                node.right
            } else {
                return true;
            };
            if next == NIL {
                let leaf = self.new_leaf(iv, id);
                let node = &mut self.nodes[at as usize];
                if iv.hi < node.center {
                    node.left = leaf;
                } else {
                    node.right = leaf;
                }
                self.height = self.height.max(path.len() + 1);
                return false;
            }
            at = next;
        }
    }

    fn new_leaf(&mut self, iv: Interval<E>, id: ItemId) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(AitNode::leaf(iv, id));
        idx
    }

    /// Deletes the interval `(iv, id)` if present (in the tree or the
    /// pool), returning whether it was found. Removes the interval from
    /// the `AL` runs of every node on its path and from the `L` runs of
    /// its home node, then prunes emptied leaves.
    pub fn delete(&mut self, iv: Interval<E>, id: ItemId) -> bool {
        if let Some(pos) = self
            .pool
            .iter()
            .position(|&(piv, pid)| pid == id && piv == iv)
        {
            self.pool.swap_remove(pos);
            self.len -= 1;
            return true;
        }
        // First pass: locate the home node without mutating, so a missing
        // id cannot corrupt the AL lists.
        let mut path: Vec<u32> = Vec::new();
        let mut at = self.root;
        let home = loop {
            if at == NIL {
                return false;
            }
            let node = &self.nodes[at as usize];
            path.push(at);
            if iv.hi < node.center {
                at = node.left;
            } else if iv.lo > node.center {
                at = node.right;
            } else {
                break at;
            }
        };
        let node = &self.nodes[home as usize];
        let (keys, ids) = (node.keys(ListKind::Lo), node.ids(ListKind::Lo));
        if find(keys, ids, iv.lo, id).is_none() {
            return false;
        }
        for &n in &path {
            self.nodes[n as usize].remove(iv, id, n == home);
        }
        self.len -= 1;

        self.prune_path(&path);
        true
    }

    /// Unlinks nodes along `path` (bottom-up) that hold no intervals at all
    /// — empty `AL` means the whole subtree is empty, so the arena slot is
    /// abandoned until the next rebuild reclaims it.
    fn prune_path(&mut self, path: &[u32]) {
        for w in (1..path.len()).rev() {
            let child = path[w];
            if self.nodes[child as usize].split != 0 {
                break;
            }
            let parent = &mut self.nodes[path[w - 1] as usize];
            if parent.left == child {
                parent.left = NIL;
            } else if parent.right == child {
                parent.right = NIL;
            }
        }
        if let Some(&root) = path.first() {
            if self.nodes[root as usize].split == 0 {
                self.root = NIL;
                self.nodes.clear();
                self.height = 0;
            }
        }
    }

    /// Every live interval — tree and insertion pool alike — at the
    /// index of its id, `None` at ids never issued or deleted, in one
    /// pass: each node's `Ll` run gives its intervals' left endpoints
    /// and its `Lr` run their right ones (both hold exactly the node's
    /// interval set). This is how [`Ait::rebuild`] recovers its input,
    /// and how callers that track intervals by id alone (the engine's
    /// delete-by-id table) can seed their lookup lazily instead of
    /// mirroring every build.
    pub fn intervals_by_id(&self) -> Vec<Option<Interval<E>>> {
        let mut table = vec![None; self.next_id as usize];
        for node in &self.nodes {
            let lo = node.ids(ListKind::Lo).iter().zip(node.keys(ListKind::Lo));
            for (&id, &lo) in lo {
                table[id as usize] = Some(Interval { lo, hi: lo });
            }
            let hi = node.ids(ListKind::Hi).iter().zip(node.keys(ListKind::Hi));
            for (&id, &hi) in hi {
                if let Some(iv) = &mut table[id as usize] {
                    iv.hi = hi;
                }
            }
        }
        for &(iv, id) in &self.pool {
            table[id as usize] = Some(iv);
        }
        table
    }

    /// Rebuilds the tree from scratch, preserving ids and folding in any
    /// pooled insertions. Invoked automatically when the height bound is
    /// violated; also useful after heavy deletion to reclaim arena slots.
    ///
    /// The root's `ALl` and `ALr` runs already hold every tree interval
    /// in the builder's two orders, so the builder's input is those runs
    /// with the pool merged in, and nothing over all `n` is sorted.
    pub fn rebuild(&mut self) {
        let table = self.intervals_by_id();
        let entry = |id: ItemId| BuildEntry {
            iv: table[id as usize].expect("every id in the tree is live"),
            id,
            w: 1.0,
        };
        let run = |kind| {
            root_run(&self.nodes, self.root, kind)
                .iter()
                .map(|&id| entry(id))
        };
        let pool = self.pool.iter().map(|&(_, id)| entry(id)).collect();
        let (by_lo, by_hi) =
            presorted_with_pool(run(ListKind::AllLo), run(ListKind::AllHi), pool, self.len);
        *self = Ait::from_presorted(by_lo, by_hi, self.next_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::encoded;
    use irs_core::{BruteForce, RangeCount, RangeSampler, RangeSearch};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn iv(lo: i64, hi: i64) -> Interval<i64> {
        Interval::new(lo, hi)
    }

    fn sorted(mut v: Vec<ItemId>) -> Vec<ItemId> {
        v.sort_unstable();
        v
    }

    #[test]
    fn insert_into_empty() {
        let mut ait = Ait::<i64>::new(&[]);
        let id = ait.insert(iv(5, 9));
        assert_eq!(id, 0);
        assert_eq!(ait.len(), 1);
        assert_eq!(ait.range_search(iv(7, 7)), vec![0]);
        ait.validate().unwrap();
    }

    #[test]
    fn inserted_intervals_are_queryable() {
        let base: Vec<_> = (0..100).map(|i| iv(i * 10, i * 10 + 8)).collect();
        let mut ait = Ait::new(&base);
        let mut data = base.clone();
        for i in 0..50 {
            let x = iv(i * 7 + 3, i * 7 + 40);
            ait.insert(x);
            data.push(x);
        }
        ait.validate().unwrap();
        let bf = BruteForce::new(&data);
        for q in [iv(0, 1000), iv(35, 60), iv(995, 1200), iv(-10, -1)] {
            assert_eq!(
                sorted(ait.range_search(q)),
                sorted(bf.range_search(q)),
                "query {q:?}"
            );
        }
    }

    #[test]
    fn buffered_inserts_visible_before_flush() {
        let base: Vec<_> = (0..2000).map(|i| iv(i, i + 5)).collect();
        let mut ait = Ait::new(&base);
        let cap = ait.pool_capacity;
        // Stay below the flush threshold.
        for i in 0..cap - 1 {
            ait.insert_buffered(iv(10_000 + i as i64, 10_000 + i as i64 + 2));
        }
        assert_eq!(ait.pool_len(), cap - 1);
        // Pool entries must appear in queries and counts.
        assert_eq!(ait.range_count(iv(10_000, 20_000)), cap - 1);
        let mut rng = StdRng::seed_from_u64(5);
        let samples = ait.sample(iv(10_000, 20_000), 64, &mut rng);
        assert_eq!(samples.len(), 64);
        // Flush and re-check.
        ait.flush_pool();
        assert_eq!(ait.pool_len(), 0);
        ait.validate().unwrap();
        assert_eq!(ait.range_count(iv(10_000, 20_000)), cap - 1);
    }

    #[test]
    fn pool_flushes_automatically_at_capacity() {
        let base: Vec<_> = (0..500).map(|i| iv(i, i + 1)).collect();
        let mut ait = Ait::new(&base);
        let cap = ait.pool_capacity;
        for i in 0..cap {
            ait.insert_buffered(iv(i as i64, i as i64 + 3));
        }
        assert_eq!(ait.pool_len(), 0, "pool should have flushed");
        ait.validate().unwrap();
        assert_eq!(ait.len(), 500 + cap);
    }

    #[test]
    fn delete_roundtrip() {
        let data: Vec<_> = (0..200).map(|i| iv(i, i + 20)).collect();
        let mut ait = Ait::new(&data);
        for id in (0..200u32).step_by(2) {
            assert!(ait.delete(data[id as usize], id), "delete {id}");
        }
        ait.validate().unwrap();
        assert_eq!(ait.len(), 100);
        let remaining: Vec<_> = (0..200u32).filter(|id| id % 2 == 1).collect();
        assert_eq!(sorted(ait.range_search(iv(-100, 1000))), remaining);
        // Deleting again fails cleanly.
        assert!(!ait.delete(data[0], 0));
    }

    #[test]
    fn delete_everything_empties_tree() {
        let data: Vec<_> = (0..50).map(|i| iv(i * 3, i * 3 + 10)).collect();
        let mut ait = Ait::new(&data);
        for (id, &x) in data.iter().enumerate() {
            assert!(ait.delete(x, id as ItemId));
        }
        assert!(ait.is_empty());
        assert_eq!(ait.range_count(iv(-100, 1000)), 0);
        // Tree is usable again afterwards.
        ait.insert(iv(1, 2));
        assert_eq!(ait.range_count(iv(0, 5)), 1);
        ait.validate().unwrap();
    }

    #[test]
    fn delete_from_pool() {
        let mut ait = Ait::new(&(0..1000).map(|i| iv(i, i + 1)).collect::<Vec<_>>());
        let id = ait.insert_buffered(iv(5000, 5001));
        assert!(ait.pool_len() > 0);
        assert!(ait.delete(iv(5000, 5001), id));
        assert_eq!(ait.range_count(iv(5000, 5002)), 0);
        ait.validate().unwrap();
    }

    #[test]
    fn skewed_insertions_trigger_rebuild_and_keep_height_bounded() {
        let mut ait = Ait::<i64>::new(&[iv(1_000_000, 1_000_001)]);
        // Strictly nested-to-the-left chain: each interval goes left of
        // every existing center, forcing worst-case growth without rebuild.
        for i in 0..2000 {
            ait.insert(iv(i, i + 1));
        }
        let n = ait.len();
        let bound = 2 * (n as f64).log2().ceil() as usize + 2;
        assert!(
            ait.height() <= bound,
            "height {} exceeds bound {bound}",
            ait.height()
        );
        ait.validate().unwrap();
        let bf = BruteForce::new(
            &std::iter::once(iv(1_000_000, 1_000_001))
                .chain((0..2000).map(|i| iv(i, i + 1)))
                .collect::<Vec<_>>(),
        );
        assert_eq!(ait.range_count(iv(0, 2001)), bf.range_count(iv(0, 2001)));
    }

    /// Seeded churn over tie-heavy keys, then a rebuild: the tree is byte
    /// for byte the one built over `intervals_by_id`. Cases: pool only,
    /// deletes only, both, everything deleted, and a pool over an empty
    /// tree.
    #[test]
    fn rebuild_matches_a_fresh_build_over_the_live_intervals() {
        let cases = [
            (40, 0, 0),
            (0, 60, 0),
            (40, 60, 0),
            (0, 300, 0),
            (0, 300, 5),
        ];
        for (case, (inserts, deletes, pooled_after)) in cases.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(case as u64);
            let draw = |rng: &mut StdRng| {
                let lo = rng.random_range(0..8i64);
                iv(lo, lo + rng.random_range(0..4i64))
            };
            let data: Vec<_> = (0..300).map(|_| draw(&mut rng)).collect();
            let mut ait = Ait::new(&data);
            let mut live: Vec<(Interval<i64>, ItemId)> = data.iter().copied().zip(0..).collect();
            for _ in 0..inserts {
                let x = draw(&mut rng);
                live.push((x, ait.insert_buffered(x)));
            }
            for _ in 0..deletes {
                let (x, id) = live.swap_remove(rng.random_range(0..live.len()));
                assert!(ait.delete(x, id));
            }
            for _ in 0..pooled_after {
                ait.insert_buffered(draw(&mut rng));
            }
            assert_eq!(
                ait.pool_len() > 0,
                inserts + pooled_after > 0,
                "case {case}"
            );
            let entries = (0..)
                .zip(ait.intervals_by_id())
                .filter_map(|(id, iv)| {
                    Some(BuildEntry {
                        iv: iv?,
                        id,
                        w: 1.0,
                    })
                })
                .collect();
            let expect = Ait::from_entries(entries, ait.next_id);
            ait.rebuild();
            ait.validate().unwrap();
            assert!(
                encoded(&ait) == encoded(&expect),
                "case {case}: rebuilt tree differs from a fresh build"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_update_stream_matches_oracle(
            base in prop::collection::vec((0i64..500, 0i64..80), 1..80),
            ops in prop::collection::vec((0i64..600, 0i64..100, 0u8..4), 1..120),
        ) {
            let data: Vec<_> = base.iter().map(|&(lo, len)| iv(lo, lo + len)).collect();
            let mut ait = Ait::new(&data);
            let mut shadow: Vec<(Interval<i64>, ItemId)> =
                data.iter().enumerate().map(|(i, &x)| (x, i as ItemId)).collect();
            let mut rng = StdRng::seed_from_u64(1234);
            for &(lo, len, op) in &ops {
                match op {
                    0 => {
                        let x = iv(lo, lo + len);
                        let id = ait.insert(x);
                        shadow.push((x, id));
                    }
                    1 => {
                        let x = iv(lo, lo + len);
                        let id = ait.insert_buffered(x);
                        shadow.push((x, id));
                    }
                    2 if !shadow.is_empty() => {
                        let k = rng.random_range(0..shadow.len());
                        let (x, id) = shadow.swap_remove(k);
                        prop_assert!(ait.delete(x, id));
                    }
                    _ => {
                        // Query step: compare against the shadow set.
                        let q = iv(lo, lo + len);
                        let expect: Vec<ItemId> = {
                            let mut v: Vec<_> = shadow
                                .iter()
                                .filter(|(x, _)| x.overlaps(&q))
                                .map(|&(_, id)| id)
                                .collect();
                            v.sort_unstable();
                            v
                        };
                        prop_assert_eq!(sorted(ait.range_search(q)), expect.clone());
                        prop_assert_eq!(ait.range_count(q), expect.len());
                    }
                }
            }
            ait.validate().unwrap();
            prop_assert_eq!(ait.len(), shadow.len());
            // The id-indexed table holds exactly the shadow's live set.
            let mut expect = vec![None; ait.intervals_by_id().len()];
            for &(x, id) in &shadow {
                expect[id as usize] = Some(x);
            }
            prop_assert_eq!(ait.intervals_by_id(), expect);
        }
    }
}
