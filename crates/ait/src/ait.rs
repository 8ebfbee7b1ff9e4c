//! The Augmented Interval Tree and Algorithm 1 (§III-A, §III-B).
//!
//! Each node keeps its four sorted lists as two column sets: `lo` holds
//! `ALl` then `Ll`, `hi` holds `ALr` then `Lr`, and one `split` marks
//! where both `L` runs begin. Algorithm 1's binary searches read only
//! the `keys` columns; draws and gathers read only the `ids` columns.
//! Records index into one run with run-relative offsets, so the layout
//! is invisible to records, draws and snapshots.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::build::{build_presorted, build_tree, BuildEntry, BuiltTree, Cols, NodeFactory, NIL};
use crate::records::{ListKind, NodeRecord};
use irs_core::{
    vec_bytes, Endpoint, Interval, ItemId, MemoryFootprint, PreparedSampler, RangeCount,
    RangeSampler, RangeSearch,
};
use irs_sampling::{prefetch_read, AliasTable};
use std::ops::Range;

/// One AIT node: the interval-tree lists (`Ll`, `Lr`) plus the augmented
/// subtree lists (`ALl`, `ALr`), as two column sets. `lo` holds `ALl`
/// then `Ll` (left endpoints), `hi` holds `ALr` then `Lr` (right
/// endpoints); `|ALl| = |ALr| = split` and `|Ll| = |Lr|`, so one field
/// marks both boundaries. Lists store `(endpoint, id)` pairs — each query
/// case compares exactly one endpoint, so storing whole intervals would
/// double the footprint for nothing.
#[derive(Debug, Clone)]
pub(crate) struct AitNode<E> {
    pub center: E,
    /// `ALl` (`..split`): *all* intervals of this subtree, then `Ll`
    /// (`split..`): the intervals stabbed by `center`; each run sorted by
    /// left endpoint.
    pub lo: Cols<E>,
    /// `ALr` then `Lr`: the same two sets, each sorted by right endpoint.
    pub hi: Cols<E>,
    /// `|AL|`: where each side's `L` run begins.
    pub split: u32,
    pub left: u32,
    pub right: u32,
}

impl<E: Endpoint> AitNode<E> {
    /// The column set holding `kind`'s run, and the run's span in it.
    fn locate(&self, kind: ListKind) -> (&Cols<E>, Range<usize>) {
        let split = self.split as usize;
        match kind {
            ListKind::Lo => (&self.lo, split..self.lo.keys.len()),
            ListKind::Hi => (&self.hi, split..self.hi.keys.len()),
            ListKind::AllHi => (&self.hi, 0..split),
            ListKind::AllLo => (&self.lo, 0..split),
        }
    }

    /// The sorted endpoints of list `kind`.
    pub(crate) fn keys(&self, kind: ListKind) -> &[E] {
        let (cols, span) = self.locate(kind);
        &cols.keys[span]
    }

    /// The ids of list `kind`, aligned with [`AitNode::keys`].
    pub(crate) fn ids(&self, kind: ListKind) -> &[ItemId] {
        let (cols, span) = self.locate(kind);
        &cols.ids[span]
    }

    /// `|Ll| = |Lr|`: how many intervals the center stabs.
    pub(crate) fn l_len(&self) -> usize {
        self.lo.keys.len() - self.split as usize
    }
}

impl<E> AsRef<AitNode<E>> for AitNode<E> {
    fn as_ref(&self) -> &AitNode<E> {
        self
    }
}

pub(crate) struct AitFactory;

impl<E: Endpoint> NodeFactory<E> for AitFactory {
    type Node = AitNode<E>;

    fn make(
        &self,
        center: E,
        here_lo: &[BuildEntry<E>],
        here_hi: &[BuildEntry<E>],
        all_lo: &[BuildEntry<E>],
        all_hi: &[BuildEntry<E>],
    ) -> AitNode<E> {
        AitNode {
            center,
            lo: Cols::of_runs(all_lo, here_lo, |iv| iv.lo),
            hi: Cols::of_runs(all_hi, here_hi, |iv| iv.hi),
            split: all_lo.len() as u32,
            left: NIL,
            right: NIL,
        }
    }

    fn set_children(node: &mut AitNode<E>, left: u32, right: u32) {
        node.left = left;
        node.right = right;
    }
}

/// Core of Algorithm 1 (lines 1–21), shared by the AIT and the AWIT
/// (whose nodes wrap an [`AitNode`]): walks at most one root-to-leaf
/// path, running one binary search per visited node over its `keys`
/// column, and stops the first time the query interval stabs a center
/// (case 3) — where the two children's augmented lists finish the job.
/// Produces the record set `R` in `O(log² n)`.
pub(crate) fn collect_tree_records<E: Endpoint, N: AsRef<AitNode<E>>>(
    nodes: &[N],
    root: u32,
    q: Interval<E>,
    records: &mut Vec<NodeRecord>,
) {
    let mut at = root;
    while at != NIL {
        let node = nodes[at as usize].as_ref();
        // Pull the next level toward L1 while this node's binary
        // search runs — whichever way the case split goes, the child
        // header is resident by the time the descent arrives.
        if node.left != NIL {
            prefetch_read(&nodes[node.left as usize]);
        }
        if node.right != NIL {
            prefetch_read(&nodes[node.right as usize]);
        }
        if q.hi < node.center {
            // Case 1: q lies left of the center. Ll[0..j) overlaps.
            let j = node.keys(ListKind::Lo).partition_point(|&k| k <= q.hi);
            if j >= 1 {
                records.push(NodeRecord {
                    node: at,
                    kind: ListKind::Lo,
                    start: 0,
                    end: (j - 1) as u32,
                });
            }
            at = node.left;
        } else if node.center < q.lo {
            // Case 2: q lies right of the center. Lr[j..] overlaps.
            let l_hi = node.keys(ListKind::Hi);
            let j = l_hi.partition_point(|&k| k < q.lo);
            if j < l_hi.len() {
                records.push(NodeRecord {
                    node: at,
                    kind: ListKind::Hi,
                    start: j as u32,
                    end: (l_hi.len() - 1) as u32,
                });
            }
            at = node.right;
        } else {
            // Case 3: q stabs the center — all of Ll overlaps, and the
            // children's augmented lists cover both whole subtrees, so
            // no further descent is ever needed (the key AIT property).
            if node.l_len() > 0 {
                records.push(NodeRecord {
                    node: at,
                    kind: ListKind::Lo,
                    start: 0,
                    end: (node.l_len() - 1) as u32,
                });
            }
            if node.left != NIL {
                let al_hi = nodes[node.left as usize].as_ref().keys(ListKind::AllHi);
                let j = al_hi.partition_point(|&k| k < q.lo);
                if j < al_hi.len() {
                    records.push(NodeRecord {
                        node: node.left,
                        kind: ListKind::AllHi,
                        start: j as u32,
                        end: (al_hi.len() - 1) as u32,
                    });
                }
            }
            if node.right != NIL {
                let al_lo = nodes[node.right as usize].as_ref().keys(ListKind::AllLo);
                let j = al_lo.partition_point(|&k| k <= q.hi);
                if j >= 1 {
                    records.push(NodeRecord {
                        node: node.right,
                        kind: ListKind::AllLo,
                        start: 0,
                        end: (j - 1) as u32,
                    });
                }
            }
            break;
        }
    }
}

/// How many buffered updates an index over `n` intervals absorbs before
/// it rebuilds: `⌈log₂ n⌉²`, at least 16. AIT's insertion pool and
/// `DynamicAwit`'s pool and tombstones share it.
pub(crate) fn pool_capacity_for(n: usize) -> usize {
    let lg = (n.max(2) as f64).log2().ceil() as usize;
    (lg * lg).max(16)
}

/// The ids of the root's `kind` run (an `AL` run: every interval of the
/// tree), empty for an empty tree.
pub(crate) fn root_run<E: Endpoint, N: AsRef<AitNode<E>>>(
    nodes: &[N],
    root: u32,
    kind: ListKind,
) -> &[ItemId] {
    // `NIL` is past the end of every arena.
    nodes
        .get(root as usize)
        .map_or(&[], |node| node.as_ref().ids(kind))
}

/// The Augmented Interval Tree (AIT) of §III.
///
/// Exact independent range sampling in `O(log² n + s)`, range counting in
/// `O(log² n)`, `O(n log n)` space. Supports insertions (one-by-one or
/// batched through an insertion pool) and deletions per §III-D.
///
/// ```
/// use irs_ait::Ait;
/// use irs_core::{Interval, RangeSampler, RangeCount};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let data: Vec<_> = (0..1000).map(|i| Interval::new(i, i + 50)).collect();
/// let ait = Ait::new(&data);
/// let q = Interval::new(200, 240);
/// let mut rng = StdRng::seed_from_u64(1);
/// let samples = ait.sample(q, 10, &mut rng);
/// assert_eq!(samples.len(), 10);
/// assert_eq!(ait.range_count(q), 91);
/// ```
#[derive(Debug)]
pub struct Ait<E> {
    pub(crate) nodes: Vec<AitNode<E>>,
    pub(crate) root: u32,
    /// Number of live intervals (tree + pool).
    pub(crate) len: usize,
    pub(crate) height: usize,
    pub(crate) next_id: ItemId,
    /// Insertion pool for batched updates (§III-D); scanned linearly by
    /// queries until flushed.
    pub(crate) pool: Vec<(Interval<E>, ItemId)>,
    pub(crate) pool_capacity: usize,
}

impl<E: Endpoint> Ait<E> {
    /// Builds the AIT over `data` in `O(n log n)`.
    pub fn new(data: &[Interval<E>]) -> Self {
        let entries: Vec<BuildEntry<E>> = data
            .iter()
            .enumerate()
            .map(|(i, &iv)| BuildEntry {
                iv,
                id: i as ItemId,
                w: 1.0,
            })
            .collect();
        Self::from_entries(entries, data.len() as ItemId)
    }

    /// Builds over `entries` (any order), with ids issued below
    /// `next_id`.
    pub(crate) fn from_entries(entries: Vec<BuildEntry<E>>, next_id: ItemId) -> Self {
        Self::from_built(build_tree(&AitFactory, entries), next_id)
    }

    /// Builds over one entry set given in both of the builder's orders
    /// (see [`build_presorted`]).
    pub(crate) fn from_presorted(
        by_lo: Vec<BuildEntry<E>>,
        by_hi: Vec<BuildEntry<E>>,
        next_id: ItemId,
    ) -> Self {
        Self::from_built(build_presorted(&AitFactory, by_lo, by_hi), next_id)
    }

    fn from_built(built: BuiltTree<AitNode<E>>, next_id: ItemId) -> Self {
        Ait {
            nodes: built.nodes,
            root: built.root,
            len: built.len,
            height: built.height,
            next_id,
            pool: Vec::new(),
            pool_capacity: pool_capacity_for(built.len),
        }
    }

    /// Number of intervals indexed (including any still in the pool).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no intervals.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (0 when empty).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Algorithm 1's record set `R` over the tree
    /// ([`collect_tree_records`]), in `O(log² n)`.
    ///
    /// Pool entries (batched insertions not yet merged) are scanned
    /// linearly and reported through `pool_matches`.
    pub(crate) fn collect_records(
        &self,
        q: Interval<E>,
        records: &mut Vec<NodeRecord>,
        pool_matches: &mut Vec<ItemId>,
    ) {
        for (iv, id) in &self.pool {
            if iv.overlaps(&q) {
                pool_matches.push(*id);
            }
        }
        collect_tree_records(&self.nodes, self.root, q, records);
    }

    /// Structural invariant checker used by tests and debug assertions.
    ///
    /// Verifies, for every node: list sortedness, `Ll`/`Lr` id agreement,
    /// `AL` = union of subtree `L`s, center stabbing, and the strict
    /// left/right separation of children.
    pub fn validate(&self) -> Result<(), String> {
        fn ids_sorted(ids: &[ItemId]) -> Vec<ItemId> {
            let mut ids = ids.to_vec();
            ids.sort_unstable();
            ids
        }
        fn walk<E: Endpoint>(ait: &Ait<E>, at: u32) -> Result<Vec<ItemId>, String> {
            if at == NIL {
                return Ok(Vec::new());
            }
            let node = &ait.nodes[at as usize];
            for side in [&node.lo, &node.hi] {
                if side.keys.len() != side.ids.len() || side.keys.len() < node.split as usize {
                    return Err(format!("node {at}: column lengths disagree"));
                }
            }
            if node.lo.keys.len() != node.hi.keys.len() {
                return Err(format!("node {at}: lo/hi column lengths disagree"));
            }
            for (name, kind) in [
                ("Ll", ListKind::Lo),
                ("Lr", ListKind::Hi),
                ("ALl", ListKind::AllLo),
                ("ALr", ListKind::AllHi),
            ] {
                if !node.keys(kind).is_sorted() {
                    return Err(format!("node {at}: {name} not sorted"));
                }
            }
            let l_lo = node.keys(ListKind::Lo);
            if ids_sorted(node.ids(ListKind::Lo)) != ids_sorted(node.ids(ListKind::Hi)) {
                return Err(format!("node {at}: Ll/Lr id mismatch"));
            }
            if l_lo.iter().any(|&k| k > node.center) {
                return Err(format!("node {at}: Ll entry starts after center"));
            }
            if node.keys(ListKind::Hi).iter().any(|&k| k < node.center) {
                return Err(format!("node {at}: Lr entry ends before center"));
            }
            if node.left != NIL {
                let child = &ait.nodes[node.left as usize];
                if child
                    .keys(ListKind::AllHi)
                    .last()
                    .is_some_and(|&k| k >= node.center)
                {
                    return Err(format!("node {at}: left subtree crosses center"));
                }
            }
            if node.right != NIL {
                let child = &ait.nodes[node.right as usize];
                if child
                    .keys(ListKind::AllLo)
                    .first()
                    .is_some_and(|&k| k <= node.center)
                {
                    return Err(format!("node {at}: right subtree crosses center"));
                }
            }
            let mut subtree = ids_sorted(node.ids(ListKind::Lo));
            subtree.extend(walk(ait, node.left)?);
            subtree.extend(walk(ait, node.right)?);
            subtree.sort_unstable();
            if subtree != ids_sorted(node.ids(ListKind::AllLo))
                || subtree != ids_sorted(node.ids(ListKind::AllHi))
            {
                return Err(format!(
                    "node {at}: AL lists disagree with subtree contents"
                ));
            }
            Ok(subtree)
        }
        let all = walk(self, self.root)?;
        if all.len() + self.pool.len() != self.len {
            return Err(format!(
                "size mismatch: tree {} + pool {} != len {}",
                all.len(),
                self.pool.len(),
                self.len
            ));
        }
        Ok(())
    }
}

impl<E: Endpoint> RangeSearch<E> for Ait<E> {
    fn range_search_into(&self, q: Interval<E>, out: &mut Vec<ItemId>) {
        let mut records = Vec::new();
        let mut pool_matches = Vec::new();
        self.collect_records(q, &mut records, &mut pool_matches);
        for rec in &records {
            let ids = self.nodes[rec.node as usize].ids(rec.kind);
            out.extend_from_slice(&ids[rec.start as usize..=rec.end as usize]);
        }
        out.extend_from_slice(&pool_matches);
    }
}

impl<E: Endpoint> RangeCount<E> for Ait<E> {
    /// Range counting in `O(log² n)` (Corollary 1): `|q ∩ X|` is the sum of
    /// record lengths — the record set partitions the result set exactly.
    fn range_count(&self, q: Interval<E>) -> usize {
        let mut records = Vec::new();
        let mut pool_matches = Vec::new();
        self.collect_records(q, &mut records, &mut pool_matches);
        records.iter().map(NodeRecord::len).sum::<usize>() + pool_matches.len()
    }
}

/// How many draws each batched sampling pass resolves at once (matches
/// the AWIT's chunk; see `awit.rs`).
const DRAW_CHUNK: usize = 64;

/// Phase-2 handle of the AIT: the record set `R` plus any pool matches.
/// Sampling builds a Walker alias over record sizes (`O(log n)`) and then
/// draws each sample in `O(1)`. `runs` resolves each record to its run
/// of the `ids` column once, so a draw is a uniform pick into a slice
/// instead of a node dereference plus `ListKind` dispatch.
pub struct AitPrepared<'a, E> {
    records: Vec<NodeRecord>,
    pool_matches: Vec<ItemId>,
    runs: Vec<&'a [ItemId]>,
    _endpoint: std::marker::PhantomData<E>,
}

impl<'a, E: Endpoint> AitPrepared<'a, E> {
    /// The node records computed by Algorithm 1 (exposed for inspection
    /// and white-box tests).
    pub fn records(&self) -> &[NodeRecord] {
        &self.records
    }
}

impl<E: Endpoint> PreparedSampler for AitPrepared<'_, E> {
    fn candidate_count(&self) -> usize {
        self.records.iter().map(NodeRecord::len).sum::<usize>() + self.pool_matches.len()
    }

    fn sample_into<R: rand::RngCore + ?Sized>(&self, rng: &mut R, s: usize, out: &mut Vec<ItemId>) {
        let n_rec = self.records.len();
        let n_pool = self.pool_matches.len();
        if n_rec + n_pool == 0 {
            return;
        }
        // Record weight = run length; pool entries weigh 1 each, giving
        // every interval in q ∩ X identical mass (Theorem 3).
        let mut weights = Vec::with_capacity(n_rec + n_pool);
        weights.extend(self.records.iter().map(|r| r.len() as f64));
        weights.extend(std::iter::repeat_n(1.0, n_pool));
        let alias = AliasTable::new(&weights);
        // Chunked three-pass draws: all record choices first (the alias
        // cells stay hot), then every in-record offset (issuing a gather
        // prefetch of the chosen id), then the id gather over lines the
        // prefetch already pulled in. Pool picks need no offset draw.
        out.reserve(s);
        let mut ks = [0u32; DRAW_CHUNK];
        let mut offs = [0u32; DRAW_CHUNK];
        let mut done = 0usize;
        while done < s {
            let c = (s - done).min(DRAW_CHUNK);
            alias.sample_fill(rng, &mut ks[..c]);
            for (&k, slot) in ks[..c].iter().zip(&mut offs) {
                if (k as usize) < n_rec {
                    let run = self.runs[k as usize];
                    let offset = rand::Rng::random_range(&mut *rng, 0..run.len());
                    prefetch_read(&run[offset]);
                    *slot = offset as u32;
                }
            }
            for (&k, &offset) in ks[..c].iter().zip(offs.iter()) {
                let k = k as usize;
                if k < n_rec {
                    out.push(self.runs[k][offset as usize]);
                } else {
                    out.push(self.pool_matches[k - n_rec]);
                }
            }
            done += c;
        }
    }
}

impl<E: Endpoint> Ait<E> {
    /// Draws `min(s, |q ∩ X|)` *distinct* intervals uniformly at random —
    /// sampling without replacement (a convenience beyond the paper's
    /// Problem 1, which samples with replacement).
    ///
    /// For `s` well below `|q ∩ X|` this rejects duplicates in
    /// `O(log² n + s)` expected; once `s` approaches the result size it
    /// switches to enumerating `q ∩ X` and taking a partial
    /// Fisher–Yates shuffle, so the worst case is `O(log² n + |q ∩ X|)`.
    pub fn sample_distinct<R: rand::RngCore + ?Sized>(
        &self,
        q: Interval<E>,
        s: usize,
        rng: &mut R,
    ) -> Vec<ItemId> {
        let prepared = self.prepare(q);
        let total = prepared.candidate_count();
        let want = s.min(total);
        if want == 0 {
            return Vec::new();
        }
        // Rejection is cheap while the hit rate stays high; the 2×
        // threshold keeps the expected number of redraws below 2 per
        // accepted sample.
        if want * 2 <= total {
            let mut seen = std::collections::HashSet::with_capacity(want * 2);
            let mut out = Vec::with_capacity(want);
            let mut scratch = Vec::with_capacity(1);
            while out.len() < want {
                scratch.clear();
                prepared.sample_into(rng, 1, &mut scratch);
                let id = scratch[0];
                if seen.insert(id) {
                    out.push(id);
                }
            }
            out
        } else {
            let mut all = self.range_search(q);
            // Partial Fisher–Yates: the first `want` positions become a
            // uniform random `want`-subset in random order.
            for i in 0..want {
                let j = rand::Rng::random_range(&mut *rng, i..all.len());
                all.swap(i, j);
            }
            all.truncate(want);
            all
        }
    }
}

impl<E: Endpoint> RangeSampler<E> for Ait<E> {
    type Prepared<'a> = AitPrepared<'a, E>;

    fn prepare(&self, q: Interval<E>) -> AitPrepared<'_, E> {
        let mut records = Vec::new();
        let mut pool_matches = Vec::new();
        self.collect_records(q, &mut records, &mut pool_matches);
        let runs = records
            .iter()
            .map(|rec| {
                &self.nodes[rec.node as usize].ids(rec.kind)[rec.start as usize..=rec.end as usize]
            })
            .collect();
        AitPrepared {
            records,
            pool_matches,
            runs,
            _endpoint: std::marker::PhantomData,
        }
    }
}

impl<E: Endpoint> irs_core::StabbingQuery<E> for Ait<E> {
    /// Stabbing as a degenerate range query (`q.lo = q.hi = p`), answered
    /// in `O(log² n + K)` — the interval tree's native `O(log n + K)`
    /// operator, with the extra log factor from the per-node binary
    /// searches.
    fn stab_into(&self, p: E, out: &mut Vec<ItemId>) {
        self.range_search_into(Interval::point(p), out);
    }
}

impl<E: Endpoint> MemoryFootprint for Ait<E> {
    fn heap_bytes(&self) -> usize {
        let mut bytes = self.nodes.capacity() * std::mem::size_of::<AitNode<E>>();
        for node in &self.nodes {
            bytes += node.lo.heap_bytes() + node.hi.heap_bytes();
        }
        bytes + vec_bytes(&self.pool)
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

    fn paper_fixture() -> Vec<Interval<i64>> {
        // Mirrors the flavor of Fig. 2: a mix of nested, disjoint, and
        // chained intervals.
        vec![
            iv(40, 60), // x1: stabs the root region
            iv(5, 15),  // x2
            iv(55, 85), // x3
            iv(18, 28), // x4
            iv(62, 78), // x5
            iv(35, 47), // x6
            iv(88, 95), // x7
            iv(1, 3),   // x8
            iv(30, 32), // x9
            iv(50, 52), // x10
            iv(97, 99), // x11
        ]
    }

    #[test]
    fn empty_ait() {
        let ait = Ait::<i64>::new(&[]);
        assert!(ait.is_empty());
        assert_eq!(ait.height(), 0);
        assert_eq!(ait.range_count(iv(0, 100)), 0);
        assert!(ait.range_search(iv(0, 100)).is_empty());
        let mut rng = StdRng::seed_from_u64(0);
        assert!(ait.sample(iv(0, 100), 10, &mut rng).is_empty());
        ait.validate().unwrap();
    }

    #[test]
    fn fixture_search_and_count_match_oracle() {
        let data = paper_fixture();
        let ait = Ait::new(&data);
        ait.validate().unwrap();
        let bf = BruteForce::new(&data);
        for q in [
            iv(45, 58),
            iv(0, 100),
            iv(16, 17),
            iv(3, 5),
            iv(85, 88),
            iv(99, 120),
            iv(-10, 0),
            iv(47, 47),
        ] {
            assert_eq!(
                sorted(ait.range_search(q)),
                sorted(bf.range_search(q)),
                "query {q:?}"
            );
            assert_eq!(ait.range_count(q), bf.range_count(q), "count {q:?}");
        }
    }

    #[test]
    fn case3_triggers_at_most_one_fork() {
        // A query covering everything must still produce only O(log n)
        // records: one per path node plus at most two AL records.
        let data: Vec<_> = (0..1024).map(|i| iv(i * 10, i * 10 + 5)).collect();
        let ait = Ait::new(&data);
        let prepared = ait.prepare(iv(-100, 20_000));
        let height = ait.height();
        assert!(
            prepared.records().len() <= height + 2,
            "{} records for height {height}",
            prepared.records().len()
        );
        // All 1024 intervals accounted for.
        assert_eq!(prepared.candidate_count(), 1024);
    }

    #[test]
    fn records_partition_result_set() {
        let data = paper_fixture();
        let ait = Ait::new(&data);
        for q in [iv(45, 58), iv(0, 100), iv(20, 70), iv(50, 50)] {
            let ids = ait.range_search(q);
            let mut dedup = ids.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), ids.len(), "records overlap for {q:?}");
        }
    }

    #[test]
    fn sampling_is_uniform_chi_square() {
        let data: Vec<_> = (0..60).map(|i| iv(i, i + 30)).collect();
        let ait = Ait::new(&data);
        let bf = BruteForce::new(&data);
        let q = iv(25, 40);
        let support = sorted(bf.range_search(q));
        assert!(!support.is_empty());
        let mut rng = StdRng::seed_from_u64(77);
        let draws = 200_000usize;
        let mut counts = vec![0u64; support.len()];
        let samples = ait.sample(q, draws, &mut rng);
        assert_eq!(samples.len(), draws);
        for id in samples {
            let pos = irs_sampling::stats::expect_in_support(&support, &id);
            counts[pos] += 1;
        }
        assert!(
            irs_sampling::stats::chi_square_uniformity_ok(&counts, draws as u64),
            "AIT sampling not uniform: {counts:?}"
        );
    }

    #[test]
    fn stabbing_style_queries_work() {
        let data = paper_fixture();
        let ait = Ait::new(&data);
        let bf = BruteForce::new(&data);
        for p in [-5, 1, 15, 40, 50, 60, 99, 150] {
            let q = iv(p, p);
            assert_eq!(
                sorted(ait.range_search(q)),
                sorted(bf.range_search(q)),
                "stab {p}"
            );
        }
    }

    #[test]
    fn identical_intervals() {
        let data = vec![iv(10, 20); 33];
        let ait = Ait::new(&data);
        ait.validate().unwrap();
        assert_eq!(ait.range_count(iv(15, 15)), 33);
        assert_eq!(ait.range_count(iv(21, 30)), 0);
        let mut rng = StdRng::seed_from_u64(3);
        let samples = ait.sample(iv(0, 100), 100, &mut rng);
        assert_eq!(samples.len(), 100);
    }

    #[test]
    fn footprint_superlinear_in_n() {
        let small: Vec<_> = (0..1_000).map(|i| iv(i, i + 2)).collect();
        let big: Vec<_> = (0..10_000).map(|i| iv(i, i + 2)).collect();
        let fs = Ait::new(&small).heap_bytes();
        let fb = Ait::new(&big).heap_bytes();
        // AL lists replicate each interval once per level: expect clearly
        // more than 10x growth for 10x data.
        assert!(fb > fs * 10, "footprint {fs} -> {fb} not superlinear");
    }

    #[test]
    fn heap_bytes_are_node_slots_plus_twelve_bytes_per_entry() {
        let data: Vec<_> = (0..3000).map(|i| iv(i % 977, i % 977 + i % 61)).collect();
        let ait = Ait::new(&data);
        assert_eq!(std::mem::size_of::<AitNode<i64>>(), 120);
        let entries: usize = ait
            .nodes
            .iter()
            .map(|n| n.lo.keys.len() + n.hi.keys.len())
            .sum();
        assert_eq!(
            entries,
            2 * ait
                .nodes
                .iter()
                .map(|n| n.split as usize + n.l_len())
                .sum::<usize>()
        );
        assert_eq!(
            ait.heap_bytes(),
            ait.nodes.len() * 120 + entries * 12,
            "a built tree holds its node slots and its entries at exact capacity"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_search_count_match_oracle(
            raw in prop::collection::vec((0i64..1000, 0i64..120), 1..250),
            queries in prop::collection::vec((-50i64..1200, 0i64..300), 16),
        ) {
            let data: Vec<_> = raw.iter().map(|&(lo, len)| iv(lo, lo + len)).collect();
            let ait = Ait::new(&data);
            ait.validate().unwrap();
            let bf = BruteForce::new(&data);
            for &(lo, len) in &queries {
                let q = iv(lo, lo + len);
                prop_assert_eq!(sorted(ait.range_search(q)), sorted(bf.range_search(q)));
                prop_assert_eq!(ait.range_count(q), bf.range_count(q));
            }
        }

        #[test]
        fn prop_records_are_within_log_bound(
            raw in prop::collection::vec((0i64..5000, 0i64..500), 2..400),
            q_lo in 0i64..5000,
            q_len in 0i64..2000,
        ) {
            let data: Vec<_> = raw.iter().map(|&(lo, len)| iv(lo, lo + len)).collect();
            let ait = Ait::new(&data);
            let prepared = ait.prepare(iv(q_lo, q_lo + q_len));
            // ≤ height records on the path + 2 AL records at the fork.
            prop_assert!(prepared.records().len() <= ait.height() + 2);
        }
    }
}

#[cfg(test)]
mod distinct_tests {
    use super::*;
    use irs_core::{BruteForce, RangeSearch};
    use rand::{rngs::StdRng, SeedableRng};

    fn iv(lo: i64, hi: i64) -> Interval<i64> {
        Interval::new(lo, hi)
    }

    #[test]
    fn distinct_samples_have_no_duplicates() {
        let data: Vec<_> = (0..500).map(|i| iv(i, i + 60)).collect();
        let ait = Ait::new(&data);
        let mut rng = StdRng::seed_from_u64(11);
        let q = iv(200, 260);
        for s in [1, 10, 50, 100] {
            let out = ait.sample_distinct(q, s, &mut rng);
            assert_eq!(out.len(), s);
            let mut dedup = out.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), s, "duplicates at s = {s}");
        }
    }

    #[test]
    fn distinct_caps_at_result_size() {
        let data: Vec<_> = (0..30).map(|i| iv(i, i + 5)).collect();
        let ait = Ait::new(&data);
        let bf = BruteForce::new(&data);
        let mut rng = StdRng::seed_from_u64(12);
        let q = iv(10, 12);
        let support = {
            let mut v = bf.range_search(q);
            v.sort_unstable();
            v
        };
        // Ask for far more than available: get exactly the result set.
        let mut out = ait.sample_distinct(q, 1000, &mut rng);
        out.sort_unstable();
        assert_eq!(out, support);
        // Empty query → empty sample.
        assert!(ait.sample_distinct(iv(-100, -50), 5, &mut rng).is_empty());
    }

    #[test]
    fn distinct_subset_is_uniform_over_candidates() {
        // Every candidate should be selected with probability want/total;
        // check the marginal inclusion frequencies.
        let data: Vec<_> = (0..40).map(|i| iv(0, 100 + i)).collect();
        let ait = Ait::new(&data);
        let mut rng = StdRng::seed_from_u64(13);
        let q = iv(50, 60);
        let trials = 20_000;
        let want = 10; // of 40 → inclusion probability 0.25
        let mut counts = vec![0u64; 40];
        for _ in 0..trials {
            for id in ait.sample_distinct(q, want, &mut rng) {
                counts[id as usize] += 1;
            }
        }
        let expected = trials as f64 * want as f64 / 40.0;
        for (id, &c) in counts.iter().enumerate() {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.1, "id {id}: {c} vs expected {expected}");
        }
    }
}
