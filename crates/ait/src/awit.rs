//! AWIT (§IV): the Augmented *Weighted* Interval Tree.
//!
//! Same shape as the AIT, but every sorted list carries a cumulative weight
//! array (`Wl`, `Wr`, `AWl`, `AWr`). A node wraps an AIT node (its key and
//! id columns) and keeps the weights as one prefix column beside each
//! column set, `AWl` then `Wl` and `AWr` then `Wr`, with the sums
//! restarting where the `L` run begins. A node record's total weight is then
//! two array lookups, so the per-query alias over `R` still costs
//! `O(log n)`; drawing *inside* a record uses the cumulative-sum method on
//! the prebuilt prefix array (`O(log n)` per draw, no per-query structure
//! over `q ∩ X`). Total: `O(log² n + s log n)` per query, `O(n log n)`
//! space (Corollaries 4 and 5). Updates are not supported (§IV's
//! discussion: a single insertion shifts entire prefix arrays).

use crate::ait::{collect_tree_records, AitFactory, AitNode};
use crate::build::{build_presorted, build_tree, BuildEntry, BuiltTree, NodeFactory};
use crate::records::{ListKind, NodeRecord};
use irs_core::{
    vec_bytes, Endpoint, Interval, ItemId, MemoryFootprint, PreparedSampler, RangeCount,
    RangeSearch, WeightedRangeSampler,
};
use irs_sampling::{
    prefetch_read, sample_prefix_window_fill, window_index, window_mass, AliasTable,
};

/// An AWIT node: the AIT node's two column sets plus a cumulative
/// weight column beside each. `w_lo` holds `AWl` then `Wl`, aligned with
/// `lists.lo`; `w_hi` holds `AWr` then `Wr`, aligned with `lists.hi`.
/// Each prefix run restarts at the `split` boundary, so within a run
/// `w[j] = Σ_{k≤j} w(list[k])`.
#[derive(Debug)]
pub(crate) struct AwitNode<E> {
    pub(crate) lists: AitNode<E>,
    /// `AWl` then `Wl`: cumulative weights of the `lo` runs.
    pub(crate) w_lo: Vec<f64>,
    /// `AWr` then `Wr`: cumulative weights of the `hi` runs.
    pub(crate) w_hi: Vec<f64>,
}

impl<E> AsRef<AitNode<E>> for AwitNode<E> {
    fn as_ref(&self) -> &AitNode<E> {
        &self.lists
    }
}

impl<E: Endpoint> AwitNode<E> {
    /// The prefix run of list `kind`, aligned with its ids.
    pub(crate) fn prefix(&self, kind: ListKind) -> &[f64] {
        let split = self.lists.split as usize;
        match kind {
            ListKind::Lo => &self.w_lo[split..],
            ListKind::Hi => &self.w_hi[split..],
            ListKind::AllHi => &self.w_hi[..split],
            ListKind::AllLo => &self.w_lo[..split],
        }
    }
}

struct AwitFactory;

/// The prefix sums of `all`, then, restarting from zero, of `here`.
fn prefix_runs<E>(all: &[BuildEntry<E>], here: &[BuildEntry<E>]) -> Vec<f64> {
    let mut prefix = Vec::with_capacity(all.len() + here.len());
    for run in [all, here] {
        let mut acc = 0.0;
        for e in run {
            acc += e.w;
            prefix.push(acc);
        }
    }
    prefix
}

impl<E: Endpoint> NodeFactory<E> for AwitFactory {
    type Node = AwitNode<E>;

    fn make(
        &self,
        center: E,
        here_lo: &[BuildEntry<E>],
        here_hi: &[BuildEntry<E>],
        all_lo: &[BuildEntry<E>],
        all_hi: &[BuildEntry<E>],
    ) -> AwitNode<E> {
        AwitNode {
            lists: AitFactory.make(center, here_lo, here_hi, all_lo, all_hi),
            w_lo: prefix_runs(all_lo, here_lo),
            w_hi: prefix_runs(all_hi, here_hi),
        }
    }

    fn set_children(node: &mut AwitNode<E>, left: u32, right: u32) {
        AitFactory::set_children(&mut node.lists, left, right);
    }
}

/// The Augmented Weighted Interval Tree: weighted independent range
/// sampling in `O(log² n + s log n)`, `O(n log n)` space. Static (no
/// updates, per §IV).
///
/// ```
/// use irs_ait::Awit;
/// use irs_core::{Interval, WeightedRangeSampler};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let data: Vec<_> = (0..100).map(|i| Interval::new(i, i + 10)).collect();
/// let weights: Vec<f64> = (0..100).map(|i| 1.0 + (i % 7) as f64).collect();
/// let awit = Awit::new(&data, &weights);
/// let mut rng = StdRng::seed_from_u64(1);
/// let samples = awit.sample_weighted(Interval::new(40, 60), 5, &mut rng);
/// assert_eq!(samples.len(), 5);
/// ```
#[derive(Debug)]
pub struct Awit<E> {
    pub(crate) nodes: Vec<AwitNode<E>>,
    pub(crate) root: u32,
    pub(crate) len: usize,
    pub(crate) height: usize,
}

impl<E: Endpoint> Awit<E> {
    /// Builds the AWIT in `O(n log n)`. `weights` must be positive, finite,
    /// and aligned with `data`.
    pub fn new(data: &[Interval<E>], weights: &[f64]) -> Self {
        assert_eq!(data.len(), weights.len(), "weights must align with data");
        let entries: Vec<BuildEntry<E>> = data
            .iter()
            .zip(weights)
            .enumerate()
            .map(|(i, (&iv, &w))| {
                assert!(
                    w > 0.0 && w.is_finite(),
                    "weights must be positive, got {w}"
                );
                BuildEntry {
                    iv,
                    id: i as ItemId,
                    w,
                }
            })
            .collect();
        Self::from_built(build_tree(&AwitFactory, entries))
    }

    /// Builds over one weighted entry set given in both of the builder's
    /// orders (see [`build_presorted`]); ids are the entries' own.
    pub(crate) fn from_presorted(by_lo: Vec<BuildEntry<E>>, by_hi: Vec<BuildEntry<E>>) -> Self {
        Self::from_built(build_presorted(&AwitFactory, by_lo, by_hi))
    }

    fn from_built(built: BuiltTree<AwitNode<E>>) -> Self {
        Awit {
            nodes: built.nodes,
            root: built.root,
            len: built.len,
            height: built.height,
        }
    }

    /// Number of intervals indexed.
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

    /// Algorithm 1's record set `R` ([`collect_tree_records`], the
    /// same walk as the AIT's: an AWIT node wraps an AIT node).
    fn collect_records(&self, q: Interval<E>, records: &mut Vec<NodeRecord>) {
        collect_tree_records(&self.nodes, self.root, q, records);
    }

    /// Sum of weights over `q ∩ X` in `O(log² n)` — the weighted analogue
    /// of range counting: two prefix-array lookups per record, never the
    /// intervals themselves (the key AWIT property).
    pub fn range_weight(&self, q: Interval<E>) -> f64 {
        self.prepare_weighted(q).total_weight()
    }
}

impl<E: Endpoint> RangeSearch<E> for Awit<E> {
    fn range_search_into(&self, q: Interval<E>, out: &mut Vec<ItemId>) {
        let mut records = Vec::new();
        self.collect_records(q, &mut records);
        for rec in &records {
            let ids = self.nodes[rec.node as usize].lists.ids(rec.kind);
            out.extend_from_slice(&ids[rec.start as usize..=rec.end as usize]);
        }
    }
}

impl<E: Endpoint> RangeCount<E> for Awit<E> {
    fn range_count(&self, q: Interval<E>) -> usize {
        let mut records = Vec::new();
        self.collect_records(q, &mut records);
        records.iter().map(NodeRecord::len).sum()
    }
}

/// How many draws each batched sampling pass resolves at once: enough
/// to amortize the alias table and RNG plumbing across a chunk, small
/// enough that the per-chunk scratch lives in two stack cache lines.
pub(crate) const DRAW_CHUNK: usize = 64;

/// One record's draw context, resolved once per query at prepare time:
/// the record's run of the `ids` column, its prefix window, and the
/// window's base and total mass (two random reads into a large prefix
/// array, otherwise paid per draw). Per draw this saves the node
/// dereference, the `ListKind` dispatch, both slice computations, and
/// the base/total loads. `run[i]` and `win[i]` describe the same
/// interval.
struct RecordRun<'a> {
    run: &'a [ItemId],
    win: &'a [f64],
    base: f64,
    total: f64,
}

/// Phase-2 handle of the AWIT: records plus their precomputed weights
/// and per-record draw contexts.
pub struct AwitPrepared<'a, E> {
    pub(crate) records: Vec<NodeRecord>,
    pub(crate) record_weights: Vec<f64>,
    runs: Vec<RecordRun<'a>>,
    _endpoint: std::marker::PhantomData<E>,
}

impl<'a, E: Endpoint> AwitPrepared<'a, E> {
    /// The mass of one weight-proportional draw from record `k` (an
    /// index into [`AwitPrepared::records`]): uniform over the record's
    /// prefix window, consuming the RNG exactly as
    /// [`irs_sampling::sample_prefix_window`] does.
    pub(crate) fn record_mass<R: rand::RngCore + ?Sized>(&self, k: usize, rng: &mut R) -> f64 {
        let r = &self.runs[k];
        window_mass(r.base, r.total, rng)
    }

    /// Where a draw of mass `u` from record `k` lands, via the
    /// cumulative-sum method on the prebuilt prefix array: the landing
    /// entry of the `ids` column. `O(log n)`.
    pub(crate) fn record_id(&self, k: usize, u: f64) -> &ItemId {
        let r = &self.runs[k];
        &r.run[window_index(r.win, u)]
    }

    /// The AWIT positions (the `ids` column) of `q ∩ X`, record by
    /// record: the order [`RangeSearch`] reports them in.
    pub(crate) fn positions(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.runs.iter().flat_map(|r| r.run.iter().copied())
    }

    /// The node records (white-box inspection).
    pub fn records(&self) -> &[NodeRecord] {
        &self.records
    }

    /// Total weight of `q ∩ X`.
    pub fn total_weight(&self) -> f64 {
        self.record_weights.iter().sum()
    }
}

impl<E: Endpoint> PreparedSampler for AwitPrepared<'_, E> {
    fn candidate_count(&self) -> usize {
        self.records.iter().map(NodeRecord::len).sum()
    }

    fn sample_into<R: rand::RngCore + ?Sized>(&self, rng: &mut R, s: usize, out: &mut Vec<ItemId>) {
        if self.records.is_empty() {
            return;
        }
        // Alias over record weights (O(|R|)), then the cumulative-sum
        // method *within* the chosen record against the prebuilt prefix
        // array — building an alias over the record's intervals would cost
        // O(|X(Ri)|) per query, which §IV explicitly rules out.
        //
        // Draws run in three batched passes. A query typically touches
        // hundreds of records while drawing only a few samples from each,
        // so draw-order execution pays a cold window plus a cold list line
        // on nearly every draw — random accesses across enough pages that
        // software prefetch can't hide them (a prefetch that misses the
        // TLB is dropped). Instead: (1) all record choices up front (the
        // alias cells stay hot), (2) a counting sort grouping draws by
        // record, (3) the in-record searches record by record in index
        // order — each record's window, base, and total are loaded once
        // for its whole group, and consecutive records' windows are
        // adjacent slices of the same node arrays, so the hardware
        // prefetcher streams them. Each result is scattered back to its
        // draw's original output slot, so the per-slot distribution is
        // exactly what draw-order execution produces: slot j still holds
        // an independent draw from record `ks[j]`.
        let alias = AliasTable::new(&self.record_weights);
        let base = out.len();
        out.resize(base + s, 0);
        let mut ks = vec![0u32; s];
        alias.sample_fill(rng, &mut ks);
        // Counting sort: `order` lists draw indices grouped by record,
        // record groups in ascending record order.
        let mut starts = vec![0u32; self.runs.len() + 1];
        for &k in &ks {
            starts[k as usize + 1] += 1;
        }
        for r in 0..self.runs.len() {
            starts[r + 1] += starts[r];
        }
        let mut cursor = starts.clone();
        let mut order = vec![0u32; s];
        for (j, &k) in ks.iter().enumerate() {
            let c = &mut cursor[k as usize];
            order[*c as usize] = j as u32;
            *c += 1;
        }
        // Batched in-record searches, one record group at a time: all of a
        // group's draws come from the same window, so its cache lines,
        // base, and total are paid once per group instead of once per
        // draw. `idxs` is aligned with `order`: position p holds the
        // in-window offset of draw `order[p]`.
        let mut idxs = vec![0u32; s];
        for (r, run) in self.runs.iter().enumerate() {
            let group = &mut idxs[starts[r] as usize..starts[r + 1] as usize];
            if !group.is_empty() {
                sample_prefix_window_fill(run.win, run.base, run.total, rng, group);
            }
        }
        // Gather in two chunked passes: prefetch each resolved id, then
        // read the ids over lines the prefetches already pulled in.
        let mut pos = 0usize;
        while pos < s {
            let c = (s - pos).min(DRAW_CHUNK);
            for (&idx, &j) in idxs[pos..pos + c].iter().zip(&order[pos..pos + c]) {
                prefetch_read(&self.runs[ks[j as usize] as usize].run[idx as usize]);
            }
            for (&idx, &j) in idxs[pos..pos + c].iter().zip(&order[pos..pos + c]) {
                out[base + j as usize] = self.runs[ks[j as usize] as usize].run[idx as usize];
            }
            pos += c;
        }
    }
}

impl<E: Endpoint> WeightedRangeSampler<E> for Awit<E> {
    type Prepared<'a> = AwitPrepared<'a, E>;

    fn prepare_weighted(&self, q: Interval<E>) -> AwitPrepared<'_, E> {
        let mut records = Vec::new();
        self.collect_records(q, &mut records);
        // Each record's weight needs two random reads into its node's
        // prefix array. Issue every prefetch first so the ~|R| cache
        // misses overlap instead of serializing through the map below.
        for rec in &records {
            let prefix = self.nodes[rec.node as usize].prefix(rec.kind);
            prefetch_read(&prefix[rec.end as usize]);
            prefetch_read(&prefix[rec.start as usize]);
        }
        let runs: Vec<RecordRun<'_>> = records
            .iter()
            .map(|rec| {
                let node = &self.nodes[rec.node as usize];
                let prefix = node.prefix(rec.kind);
                let base = if rec.start == 0 {
                    0.0
                } else {
                    prefix[rec.start as usize - 1]
                };
                let span = rec.start as usize..=rec.end as usize;
                RecordRun {
                    run: &node.lists.ids(rec.kind)[span.clone()],
                    win: &prefix[span],
                    base,
                    total: prefix[rec.end as usize] - base,
                }
            })
            .collect();
        let record_weights = runs.iter().map(|run| run.total).collect();
        AwitPrepared {
            records,
            record_weights,
            runs,
            _endpoint: std::marker::PhantomData,
        }
    }
}

impl<E: Endpoint> MemoryFootprint for Awit<E> {
    fn heap_bytes(&self) -> usize {
        let mut bytes = self.nodes.capacity() * std::mem::size_of::<AwitNode<E>>();
        for node in &self.nodes {
            bytes += node.lists.lo.heap_bytes()
                + node.lists.hi.heap_bytes()
                + vec_bytes(&node.w_lo)
                + vec_bytes(&node.w_hi);
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ait;
    use irs_core::BruteForce;
    use irs_sampling::stats::chi_square_ok;
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
    fn empty_awit() {
        let awit = Awit::<i64>::new(&[], &[]);
        assert!(awit.is_empty());
        let mut rng = StdRng::seed_from_u64(0);
        assert!(awit.sample_weighted(iv(0, 10), 5, &mut rng).is_empty());
        assert_eq!(awit.range_weight(iv(0, 10)), 0.0);
    }

    #[test]
    fn search_and_count_match_oracle() {
        let data: Vec<_> = (0..400)
            .map(|i| iv((i * 11) % 350, (i * 11) % 350 + i % 23))
            .collect();
        let weights: Vec<f64> = (0..400).map(|i| 1.0 + (i % 100) as f64).collect();
        let awit = Awit::new(&data, &weights);
        let bf = BruteForce::new_weighted(&data, &weights);
        for q in [iv(0, 400), iv(100, 110), iv(349, 360), iv(-20, -1)] {
            assert_eq!(
                sorted(awit.range_search(q)),
                sorted(bf.range_search(q)),
                "query {q:?}"
            );
            assert_eq!(awit.range_count(q), bf.range_count(q));
            let rw = awit.range_weight(q);
            let expect = bf.result_weight(q);
            assert!(
                (rw - expect).abs() < 1e-6 * expect.max(1.0),
                "weight {rw} vs {expect}"
            );
        }
    }

    #[test]
    fn record_weights_use_prefix_arrays() {
        let data: Vec<_> = (0..64).map(|i| iv(i, i + 8)).collect();
        let weights: Vec<f64> = (0..64).map(|i| (i + 1) as f64).collect();
        let awit = Awit::new(&data, &weights);
        let q = iv(20, 30);
        let prepared = awit.prepare_weighted(q);
        let bf = BruteForce::new_weighted(&data, &weights);
        let expect = bf.result_weight(q);
        assert!((prepared.total_weight() - expect).abs() < 1e-9 * expect);
    }

    #[test]
    fn sampling_probability_proportional_to_weight() {
        let data: Vec<_> = (0..40).map(|i| iv(i, i + 25)).collect();
        let weights: Vec<f64> = (0..40).map(|i| 1.0 + (i % 10) as f64 * 3.0).collect();
        let awit = Awit::new(&data, &weights);
        let bf = BruteForce::new_weighted(&data, &weights);
        let q = iv(18, 28);
        let support = sorted(bf.range_search(q));
        assert!(support.len() > 5);
        let total: f64 = support.iter().map(|&id| weights[id as usize]).sum();
        let expected: Vec<f64> = support
            .iter()
            .map(|&id| weights[id as usize] / total)
            .collect();

        let mut rng = StdRng::seed_from_u64(321);
        let draws = 300_000usize;
        let mut counts = vec![0u64; support.len()];
        for id in awit.sample_weighted(q, draws, &mut rng) {
            let pos = irs_sampling::stats::expect_in_support(&support, &id);
            counts[pos] += 1;
        }
        assert!(
            chi_square_ok(&counts, &expected, draws as u64),
            "AWIT sampling deviates from weights"
        );
    }

    #[test]
    fn uniform_weights_degenerate_to_ait_distribution() {
        let data: Vec<_> = (0..128).map(|i| iv(i % 50, i % 50 + 20)).collect();
        let weights = vec![2.5; 128];
        let awit = Awit::new(&data, &weights);
        let ait = Ait::new(&data);
        let q = iv(30, 45);
        assert_eq!(
            sorted(irs_core::RangeSearch::range_search(&awit, q)),
            sorted(irs_core::RangeSearch::range_search(&ait, q))
        );
        // Equal weights → uniform sampling; spot-check with chi-square.
        let support = sorted(irs_core::RangeSearch::range_search(&awit, q));
        let mut rng = StdRng::seed_from_u64(8);
        let draws = 120_000usize;
        let mut counts = vec![0u64; support.len()];
        for id in awit.sample_weighted(q, draws, &mut rng) {
            counts[support.binary_search(&id).unwrap()] += 1;
        }
        assert!(irs_sampling::stats::chi_square_uniformity_ok(
            &counts,
            draws as u64
        ));
    }

    #[test]
    fn extreme_weight_ratios() {
        let data = vec![iv(0, 10); 3];
        let weights = vec![1e-6, 1.0, 1e6];
        let awit = Awit::new(&data, &weights);
        let mut rng = StdRng::seed_from_u64(9);
        let samples = awit.sample_weighted(iv(5, 5), 5000, &mut rng);
        let heavy = samples.iter().filter(|&&id| id == 2).count();
        assert!(heavy > 4950, "heavy item drawn {heavy}/5000");
    }

    #[test]
    fn footprint_roughly_doubles_ait() {
        let data: Vec<_> = (0..5000).map(|i| iv(i, i + 7)).collect();
        let weights = vec![1.0; 5000];
        let awit = Awit::new(&data, &weights);
        let ait = Ait::new(&data);
        let ratio = awit.heap_bytes() as f64 / ait.heap_bytes() as f64;
        assert!(
            (1.2..2.6).contains(&ratio),
            "AWIT/AIT footprint ratio {ratio}"
        );
    }

    #[test]
    fn heap_bytes_are_node_slots_plus_twenty_bytes_per_entry() {
        let data: Vec<_> = (0..3000).map(|i| iv(i % 977, i % 977 + i % 61)).collect();
        let weights: Vec<f64> = (0..3000).map(|i| 1.0 + (i % 4) as f64).collect();
        let awit = Awit::new(&data, &weights);
        assert_eq!(std::mem::size_of::<AwitNode<i64>>(), 168);
        let entries: usize = (awit.nodes.iter())
            .map(|n| n.lists.lo.keys.len() + n.lists.hi.keys.len())
            .sum();
        assert_eq!(
            awit.heap_bytes(),
            awit.nodes.len() * 168 + entries * 20,
            "a built tree holds its node slots and its entries at exact capacity"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_matches_oracle_and_weights(
            raw in prop::collection::vec((0i64..600, 0i64..90, 1u32..100), 1..200),
            queries in prop::collection::vec((-30i64..700, 0i64..200), 8),
        ) {
            let data: Vec<_> = raw.iter().map(|&(lo, len, _)| iv(lo, lo + len)).collect();
            let weights: Vec<f64> = raw.iter().map(|&(_, _, w)| w as f64).collect();
            let awit = Awit::new(&data, &weights);
            let bf = BruteForce::new_weighted(&data, &weights);
            for &(lo, len) in &queries {
                let q = iv(lo, lo + len);
                prop_assert_eq!(sorted(awit.range_search(q)), sorted(bf.range_search(q)));
                let rw = awit.range_weight(q);
                let expect = bf.result_weight(q);
                prop_assert!((rw - expect).abs() < 1e-6 * expect.max(1.0));
            }
        }
    }
}
