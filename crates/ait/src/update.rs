//! AIT updates (§III-D): one-by-one insertion, pooled batch insertion, and
//! deletion, with a height-triggered rebuild that preserves the `O(log n)`
//! height bound Algorithm 1's analysis depends on.

use crate::ait::{Ait, AitNode};
use crate::build::{BuildEntry, Key, NIL};
use irs_core::{Endpoint, Interval, ItemId};

impl<E: Endpoint> Ait<E> {
    /// Height above which an insertion triggers a full rebuild
    /// (`2⌈log₂ n⌉ + 2`, a constant factor over the balanced height so
    /// rebuilds stay rare).
    fn height_limit(&self) -> usize {
        2 * (self.len.max(2) as f64).log2().ceil() as usize + 2
    }

    /// Inserts `iv` immediately (one-by-one insertion), returning its new
    /// id. Walks the same cases as Algorithm 1: cases 1/2 update the
    /// visited node's `AL` lists and descend; case 3 additionally updates
    /// the node's own `L` lists and stops. Cost is dominated by the sorted
    /// `Vec::insert`s — this is exactly the expensive path Table VII
    /// measures against batch insertion.
    pub fn insert(&mut self, iv: Interval<E>) -> ItemId {
        let id = self.alloc_id();
        self.place(iv, id, None);
        if self.height > self.height_limit() {
            self.rebuild();
        }
        id
    }

    /// Buffers `iv` in the insertion pool (batch insertion). The pool is
    /// scanned linearly by queries; once it reaches `⌈log₂ n⌉²` entries it
    /// is flushed into the tree in one pass, sorting each touched list
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

    /// Merges every pooled interval into the tree, then re-sorts only the
    /// lists that were touched.
    pub fn flush_pool(&mut self) {
        if self.pool.is_empty() {
            return;
        }
        let pool = std::mem::take(&mut self.pool);
        let mut dirty: Vec<u32> = Vec::new();
        for (iv, id) in pool {
            // `len` was already bumped when the entry joined the pool.
            self.len -= 1;
            self.place(iv, id, Some(&mut dirty));
        }
        dirty.sort_unstable();
        dirty.dedup();
        for &at in &dirty {
            let node = &mut self.nodes[at as usize];
            node.l_lo.sort_unstable_by_key(|a| (a.key, a.id));
            node.l_hi.sort_unstable_by_key(|a| (a.key, a.id));
            node.al_lo.sort_unstable_by_key(|a| (a.key, a.id));
            node.al_hi.sort_unstable_by_key(|a| (a.key, a.id));
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

    /// Routes `(iv, id)` to its node. With `dirty` the keys are appended
    /// and every touched node is recorded so the caller can re-sort its
    /// lists once; without it, keys are inserted at their sorted
    /// position.
    fn place(&mut self, iv: Interval<E>, id: ItemId, mut dirty: Option<&mut Vec<u32>>) {
        let defer_sort = dirty.is_some();
        self.len += 1;
        if self.root == NIL {
            self.root = self.new_leaf(iv, id);
            self.height = 1;
            return;
        }
        let mut at = self.root;
        let mut depth = 1usize;
        loop {
            // Every node on the path gains the interval in its subtree
            // lists — including the case-3 stop node, whose AL lists must
            // keep covering its own L lists for parent-fork queries.
            Self::add_key(&mut self.nodes[at as usize].al_lo, iv.lo, id, defer_sort);
            Self::add_key(&mut self.nodes[at as usize].al_hi, iv.hi, id, defer_sort);
            if let Some(dirty) = dirty.as_deref_mut() {
                dirty.push(at);
            }
            let node = &self.nodes[at as usize];
            if iv.hi < node.center {
                if node.left == NIL {
                    let leaf = self.new_leaf(iv, id);
                    self.nodes[at as usize].left = leaf;
                    self.height = self.height.max(depth + 1);
                    return;
                }
                at = node.left;
            } else if iv.lo > node.center {
                if node.right == NIL {
                    let leaf = self.new_leaf(iv, id);
                    self.nodes[at as usize].right = leaf;
                    self.height = self.height.max(depth + 1);
                    return;
                }
                at = node.right;
            } else {
                let node = &mut self.nodes[at as usize];
                Self::add_key(&mut node.l_lo, iv.lo, id, defer_sort);
                Self::add_key(&mut node.l_hi, iv.hi, id, defer_sort);
                return;
            }
            depth += 1;
        }
    }

    fn add_key(list: &mut Vec<Key<E>>, key: E, id: ItemId, defer_sort: bool) {
        if defer_sort {
            list.push(Key { key, id });
        } else {
            let pos = list.partition_point(|k| (k.key, k.id) < (key, id));
            list.insert(pos, Key { key, id });
        }
    }

    fn new_leaf(&mut self, iv: Interval<E>, id: ItemId) -> u32 {
        // A leaf's center must stab its single interval; with an
        // order-only endpoint type the left endpoint is the natural pick.
        let node = AitNode {
            center: iv.lo,
            l_lo: vec![Key { key: iv.lo, id }],
            l_hi: vec![Key { key: iv.hi, id }],
            al_lo: vec![Key { key: iv.lo, id }],
            al_hi: vec![Key { key: iv.hi, id }],
            left: NIL,
            right: NIL,
        };
        let idx = self.nodes.len() as u32;
        self.nodes.push(node);
        idx
    }

    /// Deletes the interval `(iv, id)` if present (in the tree or the
    /// pool), returning whether it was found. Removes the interval from
    /// the `AL` lists of every node on its path and from the `L` lists of
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
        if !Self::contains_key(&self.nodes[home as usize].l_lo, iv.lo, id) {
            return false;
        }

        for &n in &path {
            let node = &mut self.nodes[n as usize];
            Self::remove_key(&mut node.al_lo, iv.lo, id);
            Self::remove_key(&mut node.al_hi, iv.hi, id);
        }
        let node = &mut self.nodes[home as usize];
        Self::remove_key(&mut node.l_lo, iv.lo, id);
        Self::remove_key(&mut node.l_hi, iv.hi, id);
        self.len -= 1;

        self.prune_path(&path);
        true
    }

    fn contains_key(list: &[Key<E>], key: E, id: ItemId) -> bool {
        let mut pos = list.partition_point(|k| k.key < key);
        while pos < list.len() && list[pos].key == key {
            if list[pos].id == id {
                return true;
            }
            pos += 1;
        }
        false
    }

    fn remove_key(list: &mut Vec<Key<E>>, key: E, id: ItemId) {
        let mut pos = list.partition_point(|k| k.key < key);
        while pos < list.len() && list[pos].key == key {
            if list[pos].id == id {
                list.remove(pos);
                return;
            }
            pos += 1;
        }
        debug_assert!(false, "remove_key: ({key:?}, {id}) not found");
    }

    /// Unlinks nodes along `path` (bottom-up) that hold no intervals at all
    /// — empty `AL` means the whole subtree is empty, so the arena slot is
    /// abandoned until the next rebuild reclaims it.
    fn prune_path(&mut self, path: &[u32]) {
        for w in (1..path.len()).rev() {
            let child = path[w];
            if !self.nodes[child as usize].al_lo.is_empty() {
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
            if self.nodes[root as usize].al_lo.is_empty() {
                self.root = NIL;
                self.nodes.clear();
                self.height = 0;
            }
        }
    }

    /// All live `(interval, id)` pairs — tree and insertion pool alike —
    /// in no particular order, reconstructed in `O(n log n)` by joining
    /// each node's two `L` lists on id (both hold exactly the node's
    /// interval set). This is how [`Ait::rebuild`] recovers its input,
    /// and how callers that track intervals by id alone (the engine's
    /// delete-by-id table) can seed their lookup lazily instead of
    /// mirroring every build.
    pub fn entries(&self) -> Vec<(Interval<E>, ItemId)> {
        let mut out = Vec::with_capacity(self.len);
        for node in &self.nodes {
            if node.l_lo.is_empty() {
                continue;
            }
            let mut by_id_lo: Vec<&Key<E>> = node.l_lo.iter().collect();
            let mut by_id_hi: Vec<&Key<E>> = node.l_hi.iter().collect();
            by_id_lo.sort_unstable_by_key(|k| k.id);
            by_id_hi.sort_unstable_by_key(|k| k.id);
            for (klo, khi) in by_id_lo.iter().zip(&by_id_hi) {
                debug_assert_eq!(klo.id, khi.id);
                out.push((Interval::new(klo.key, khi.key), klo.id));
            }
        }
        out.extend(self.pool.iter().copied());
        out
    }

    /// Rebuilds the tree from scratch, preserving ids and folding in any
    /// pooled insertions. Invoked automatically when the height bound is
    /// violated; also useful after heavy deletion to reclaim arena slots.
    pub fn rebuild(&mut self) {
        let entries: Vec<BuildEntry<E>> = self
            .entries()
            .into_iter()
            .map(|(iv, id)| BuildEntry { iv, id, w: 1.0 })
            .collect();
        let next_id = self.next_id;
        *self = Ait::from_entries(entries, next_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        }
    }
}
