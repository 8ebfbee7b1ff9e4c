//! The HINTm index structure, assignment, and query evaluation.

use irs_core::{
    vec_bytes, Endpoint, GridEndpoint, Interval, ItemId, MemoryFootprint, PreparedSampler,
    RangeCount, RangeSampler, RangeSearch, WeightedRangeSampler,
};
use irs_sampling::AliasTable;

/// A stored interval: both endpoints plus the dataset id (first/last
/// partitions compare real endpoints, so both are kept inline).
#[derive(Clone, Copy, Debug)]
struct HEntry<E> {
    iv: Interval<E>,
    id: ItemId,
}

/// One partition's four sublists.
#[derive(Clone, Debug)]
struct Partition<E> {
    /// Originals whose last cell lies inside this partition.
    o_in: Vec<HEntry<E>>,
    /// Originals extending past this partition.
    o_aft: Vec<HEntry<E>>,
    /// Replicas whose last cell lies inside this partition.
    r_in: Vec<HEntry<E>>,
    /// Replicas extending past this partition.
    r_aft: Vec<HEntry<E>>,
}

impl<E> Partition<E> {
    const EMPTY: fn() -> Partition<E> = || Partition {
        o_in: Vec::new(),
        o_aft: Vec::new(),
        r_in: Vec::new(),
        r_aft: Vec::new(),
    };
}

/// The HINTm hierarchical interval index.
///
/// ```
/// use irs_hint::HintM;
/// use irs_core::{Interval, RangeSearch, RangeCount};
///
/// let data: Vec<_> = (0..1000i64).map(|i| Interval::new(i, i + 50)).collect();
/// let hint = HintM::new(&data);
/// let q = Interval::new(200, 240);
/// assert_eq!(hint.range_count(q), 91);
/// assert_eq!(hint.range_search(q).len(), 91);
/// ```
#[derive(Debug)]
pub struct HintM<E> {
    /// Levels 0..=m; `levels[l]` holds `2^l` partitions.
    levels: Vec<Vec<Partition<E>>>,
    m: u32,
    /// `(min lo, max hi)` of the dataset; `None` when empty.
    domain: Option<(E, E)>,
    /// Bits a grid offset is shifted right by to obtain its bottom-level
    /// cell (comparison-free cell computation).
    shift: u32,
    len: usize,
    /// Optional per-interval weights (dataset order) for the weighted IRS
    /// baseline.
    weights: Vec<f64>,
}

impl<E: GridEndpoint> HintM<E> {
    /// Builds with an adaptively chosen number of levels
    /// (`m ≈ log₂ n − 6`, clamped to `[4, 16]` — partitions then average
    /// tens of intervals, mirroring the SIGMOD'22 tuning).
    pub fn new(data: &[Interval<E>]) -> Self {
        Self::with_levels(data, Self::default_m(data.len()))
    }

    /// Builds the weighted variant (see [`HintM::new`] for `m`).
    pub fn new_weighted(data: &[Interval<E>], weights: &[f64]) -> Self {
        assert_eq!(data.len(), weights.len(), "weights must align with data");
        assert!(
            weights.iter().all(|&w| w > 0.0 && w.is_finite()),
            "weights must be positive"
        );
        let mut hint = Self::with_levels(data, Self::default_m(data.len()));
        hint.weights = weights.to_vec();
        hint
    }

    fn default_m(n: usize) -> u32 {
        let lg = (n.max(2) as f64).log2().ceil() as i64;
        (lg - 6).clamp(4, 16) as u32
    }

    /// Builds with an explicit hierarchy depth `m` (levels `0..=m`,
    /// `2^m` bottom partitions).
    pub fn with_levels(data: &[Interval<E>], m: u32) -> Self {
        assert!(
            (1..=24).contains(&m),
            "m = {m} outside the supported 1..=24"
        );
        let domain = irs_core::domain_bounds(data);
        let mut levels: Vec<Vec<Partition<E>>> = (0..=m)
            .map(|l| (0..1u64 << l).map(|_| Partition::EMPTY()).collect())
            .collect();
        let shift = match domain {
            Some((lo, hi)) => {
                let extent = hi.grid_offset(lo);
                let bits = 64 - extent.leading_zeros();
                bits.saturating_sub(m)
            }
            None => 0,
        };
        let mut hint = HintM {
            levels,
            m,
            domain,
            shift,
            len: data.len(),
            weights: Vec::new(),
        };
        for (i, &iv) in data.iter().enumerate() {
            hint.assign(HEntry {
                iv,
                id: i as ItemId,
            });
        }
        // Release over-allocation from incremental pushes: the index is
        // static after build, so shrink every sublist.
        levels = std::mem::take(&mut hint.levels);
        for level in &mut levels {
            for p in level.iter_mut() {
                p.o_in.shrink_to_fit();
                p.o_aft.shrink_to_fit();
                p.r_in.shrink_to_fit();
                p.r_aft.shrink_to_fit();
            }
        }
        hint.levels = levels;
        hint
    }

    /// Number of intervals indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index holds no intervals.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Hierarchy depth (levels `0..=m`).
    pub fn num_levels(&self) -> u32 {
        self.m
    }

    /// Bottom-level grid cell of `v` (must be within the domain).
    #[inline]
    fn cell(&self, v: E) -> u64 {
        let (lo, _) = self.domain.expect("cell() on empty index");
        v.grid_offset(lo) >> self.shift
    }

    /// Segment-tree style decomposition of the entry's cell span into at
    /// most two partitions per level; the leftmost piece (containing the
    /// start cell) becomes the original, all others replicas.
    fn assign(&mut self, entry: HEntry<E>) {
        let first_cell = self.cell(entry.iv.lo);
        let last_cell = self.cell(entry.iv.hi);
        // Collect pieces as (level, partition index).
        let mut pieces: Vec<(u32, u64)> = Vec::with_capacity(2 * self.m as usize);
        let mut a = first_cell;
        let mut b = last_cell;
        let mut l = self.m;
        loop {
            if a == b {
                pieces.push((l, a));
                break;
            }
            if a % 2 == 1 {
                pieces.push((l, a));
                a += 1;
            }
            if b.is_multiple_of(2) {
                pieces.push((l, b));
                if b == 0 {
                    break; // a == b == 0 was already handled; defensive
                }
                b -= 1;
            }
            if a > b {
                break;
            }
            a >>= 1;
            b >>= 1;
            l -= 1;
        }

        // The original is the piece whose cell range starts leftmost; it
        // is the unique piece containing `first_cell`.
        let piece_start = |&(l, f): &(u32, u64)| f << (self.m - l);
        let orig_idx = pieces
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| piece_start(p))
            .map(|(i, _)| i)
            .expect("at least one piece");

        for (i, &(l, f)) in pieces.iter().enumerate() {
            let piece_end = ((f + 1) << (self.m - l)) - 1;
            let ends_inside = last_cell <= piece_end;
            let p = &mut self.levels[l as usize][f as usize];
            match (i == orig_idx, ends_inside) {
                (true, true) => p.o_in.push(entry),
                (true, false) => p.o_aft.push(entry),
                (false, true) => p.r_in.push(entry),
                (false, false) => p.r_aft.push(entry),
            }
        }
    }

    /// Core query evaluation: calls `emit` exactly once for every interval
    /// overlapping `q`. Comparisons only occur in the first and last
    /// partition of each level.
    fn for_each_overlap(&self, q: Interval<E>, mut emit: impl FnMut(&HEntry<E>)) {
        let Some((dmin, dmax)) = self.domain else {
            return;
        };
        if q.hi < dmin || dmax < q.lo {
            return;
        }
        // Clamp the query to the domain: overlap semantics against indexed
        // intervals are unchanged, and cell computation stays in range.
        let qlo = if q.lo < dmin { dmin } else { q.lo };
        let qhi = if q.hi > dmax { dmax } else { q.hi };
        let first_cell = self.cell(qlo);
        let last_cell = self.cell(qhi);

        for l in 0..=self.m {
            let f = first_cell >> (self.m - l);
            let t = last_cell >> (self.m - l);
            let level = &self.levels[l as usize];
            // First partition: comparisons on the left boundary; replicas
            // are scanned here and only here.
            {
                let p = &level[f as usize];
                let same = f == t;
                for e in &p.o_in {
                    if e.iv.hi >= qlo && (!same || e.iv.lo <= qhi) {
                        emit(e);
                    }
                }
                for e in &p.o_aft {
                    // Ends after this partition ⇒ hi ≥ qlo automatically.
                    if !same || e.iv.lo <= qhi {
                        emit(e);
                    }
                }
                for e in &p.r_in {
                    // Replica ⇒ starts before this partition ⇒ lo < qlo.
                    if e.iv.hi >= qlo {
                        emit(e);
                    }
                }
                for e in &p.r_aft {
                    emit(e);
                }
            }
            // Middle partitions: comparison-free.
            for fi in (f + 1)..t {
                let p = &level[fi as usize];
                for e in &p.o_in {
                    emit(e);
                }
                for e in &p.o_aft {
                    emit(e);
                }
            }
            // Last partition (when distinct): right-boundary comparisons.
            if t > f {
                let p = &level[t as usize];
                for e in &p.o_in {
                    if e.iv.lo <= qhi {
                        emit(e);
                    }
                }
                for e in &p.o_aft {
                    if e.iv.lo <= qhi {
                        emit(e);
                    }
                }
            }
        }
    }
}

impl<E: GridEndpoint> irs_core::StabbingQuery<E> for HintM<E> {
    /// Stabbing as a degenerate range query (`q.lo = q.hi = p`).
    fn stab_into(&self, p: E, out: &mut Vec<ItemId>) {
        self.for_each_overlap(Interval::point(p), |e| out.push(e.id));
    }
}

impl<E: GridEndpoint> RangeSearch<E> for HintM<E> {
    fn range_search_into(&self, q: Interval<E>, out: &mut Vec<ItemId>) {
        self.for_each_overlap(q, |e| out.push(e.id));
    }
}

impl<E: GridEndpoint> RangeCount<E> for HintM<E> {
    /// Counting version: middle partitions contribute list lengths in
    /// `O(1)`; only first/last partitions scan.
    fn range_count(&self, q: Interval<E>) -> usize {
        let Some((dmin, dmax)) = self.domain else {
            return 0;
        };
        if q.hi < dmin || dmax < q.lo {
            return 0;
        }
        let qlo = if q.lo < dmin { dmin } else { q.lo };
        let qhi = if q.hi > dmax { dmax } else { q.hi };
        let first_cell = self.cell(qlo);
        let last_cell = self.cell(qhi);
        let mut count = 0usize;
        for l in 0..=self.m {
            let f = first_cell >> (self.m - l);
            let t = last_cell >> (self.m - l);
            let level = &self.levels[l as usize];
            {
                let p = &level[f as usize];
                let same = f == t;
                count += p
                    .o_in
                    .iter()
                    .filter(|e| e.iv.hi >= qlo && (!same || e.iv.lo <= qhi))
                    .count();
                if same {
                    count += p.o_aft.iter().filter(|e| e.iv.lo <= qhi).count();
                } else {
                    count += p.o_aft.len();
                }
                count += p.r_in.iter().filter(|e| e.iv.hi >= qlo).count();
                count += p.r_aft.len();
            }
            for fi in (f + 1)..t {
                let p = &level[fi as usize];
                count += p.o_in.len() + p.o_aft.len();
            }
            if t > f {
                let p = &level[t as usize];
                count += p.o_in.iter().filter(|e| e.iv.lo <= qhi).count();
                count += p.o_aft.iter().filter(|e| e.iv.lo <= qhi).count();
            }
        }
        count
    }
}

/// Phase-2 handle of the HINTm baseline: materialized candidates, with the
/// per-query alias built during the sampling phase (as the paper accounts
/// it in Tables VI/IX).
pub struct HintPrepared<'a> {
    candidates: Vec<ItemId>,
    weights: Option<&'a [f64]>,
}

impl HintPrepared<'_> {
    /// Total result-set weight (1 per candidate on the uniform path):
    /// one pass over the already-materialized candidates, no re-search.
    pub fn total_weight(&self) -> f64 {
        irs_core::candidates_weight(&self.candidates, self.weights)
    }
}

impl PreparedSampler for HintPrepared<'_> {
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

impl<E: GridEndpoint> RangeSampler<E> for HintM<E> {
    type Prepared<'a> = HintPrepared<'a>;

    fn prepare(&self, q: Interval<E>) -> HintPrepared<'_> {
        HintPrepared {
            candidates: self.range_search(q),
            weights: None,
        }
    }
}

impl<E: GridEndpoint> WeightedRangeSampler<E> for HintM<E> {
    type Prepared<'a> = HintPrepared<'a>;

    fn prepare_weighted(&self, q: Interval<E>) -> HintPrepared<'_> {
        assert!(
            !self.weights.is_empty() || self.len == 0,
            "weighted sampling requires HintM::new_weighted"
        );
        HintPrepared {
            candidates: self.range_search(q),
            weights: Some(&self.weights),
        }
    }
}

impl<E: Endpoint> MemoryFootprint for HintM<E> {
    fn heap_bytes(&self) -> usize {
        let mut bytes = vec_bytes(&self.levels) + vec_bytes(&self.weights);
        for level in &self.levels {
            bytes += level.capacity() * std::mem::size_of::<Partition<E>>();
            for p in level {
                bytes += vec_bytes(&p.o_in)
                    + vec_bytes(&p.o_aft)
                    + vec_bytes(&p.r_in)
                    + vec_bytes(&p.r_aft);
            }
        }
        bytes
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
    fn empty_index() {
        let h = HintM::<i64>::new(&[]);
        assert!(h.is_empty());
        assert!(h.range_search(iv(0, 10)).is_empty());
        assert_eq!(h.range_count(iv(0, 10)), 0);
    }

    #[test]
    fn single_interval_domain_of_one_point() {
        let h = HintM::new(&[iv(5, 5)]);
        assert_eq!(h.range_search(iv(0, 10)), vec![0]);
        assert_eq!(h.range_search(iv(5, 5)), vec![0]);
        assert!(h.range_search(iv(6, 10)).is_empty());
        assert!(h.range_search(iv(-10, 4)).is_empty());
    }

    #[test]
    fn fixture_matches_oracle_across_m() {
        let data = vec![
            iv(0, 100),
            iv(10, 20),
            iv(15, 15),
            iv(50, 99),
            iv(98, 120),
            iv(121, 121),
            iv(-40, -30),
            iv(-35, 60),
        ];
        let bf = BruteForce::new(&data);
        for m in [1, 2, 3, 5, 8, 12] {
            let h = HintM::with_levels(&data, m);
            for q in [
                iv(-100, 200),
                iv(12, 18),
                iv(99, 100),
                iv(120, 130),
                iv(-36, -36),
                iv(61, 97),
                iv(200, 300),
                iv(-100, -41),
            ] {
                assert_eq!(
                    sorted(h.range_search(q)),
                    sorted(bf.range_search(q)),
                    "m={m} query {q:?}"
                );
                assert_eq!(h.range_count(q), bf.range_count(q), "m={m} count {q:?}");
            }
        }
    }

    #[test]
    fn no_duplicate_reports() {
        // Long intervals replicate across many partitions; each must be
        // reported exactly once.
        let data: Vec<_> = (0..100).map(|i| iv(i, i + 500)).collect();
        let h = HintM::with_levels(&data, 6);
        for q in [iv(0, 600), iv(250, 260), iv(90, 510)] {
            let ids = h.range_search(q);
            let mut dedup = ids.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), ids.len(), "duplicates for {q:?}");
        }
    }

    #[test]
    fn query_clamping_outside_domain() {
        let data: Vec<_> = (100..200).map(|i| iv(i, i + 10)).collect();
        let h = HintM::new(&data);
        let bf = BruteForce::new(&data);
        for q in [
            iv(-1000, 1000),
            iv(0, 105),
            iv(205, 400),
            iv(-5, 99),
            iv(211, 300),
        ] {
            assert_eq!(
                sorted(h.range_search(q)),
                sorted(bf.range_search(q)),
                "query {q:?}"
            );
        }
    }

    #[test]
    fn negative_domain() {
        let data: Vec<_> = (-500..-400).map(|i| iv(i, i + 30)).collect();
        let h = HintM::new(&data);
        let bf = BruteForce::new(&data);
        for q in [iv(-600, -300), iv(-450, -440), iv(-380, -370)] {
            assert_eq!(
                sorted(h.range_search(q)),
                sorted(bf.range_search(q)),
                "query {q:?}"
            );
        }
    }

    #[test]
    fn sampling_supports_result_set() {
        let data: Vec<_> = (0..500).map(|i| iv(i, i + 25)).collect();
        let h = HintM::new(&data);
        let bf = BruteForce::new(&data);
        let q = iv(100, 150);
        let support = sorted(bf.range_search(q));
        let mut rng = StdRng::seed_from_u64(1);
        let samples = h.sample(q, 3000, &mut rng);
        assert_eq!(samples.len(), 3000);
        for id in samples {
            assert!(support.binary_search(&id).is_ok());
        }
    }

    #[test]
    fn weighted_sampling_prefers_heavy() {
        let data = vec![iv(0, 10); 4];
        let weights = vec![1.0, 1.0, 1.0, 97.0];
        let h = HintM::new_weighted(&data, &weights);
        let mut rng = StdRng::seed_from_u64(2);
        let samples = h.sample_weighted(iv(3, 7), 2000, &mut rng);
        let heavy = samples.iter().filter(|&&id| id == 3).count();
        assert!(heavy > 1800, "heavy drawn {heavy}/2000");
    }

    #[test]
    fn footprint_is_linear_ish() {
        let data: Vec<_> = (0..50_000).map(|i| iv(i, i + 100)).collect();
        let h = HintM::new(&data);
        let bytes = h.heap_bytes();
        // Each interval is stored O(m) times worst case but O(1) average
        // here (short intervals): expect well under 100 bytes/interval.
        assert!(bytes < 50_000 * 160, "HINTm footprint {bytes} too large");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_matches_oracle(
            raw in prop::collection::vec((-1000i64..1000, 0i64..700), 1..250),
            queries in prop::collection::vec((-1200i64..1200, 0i64..900), 12),
            m in 1u32..10,
        ) {
            let data: Vec<_> = raw.iter().map(|&(lo, len)| iv(lo, lo + len)).collect();
            let h = HintM::with_levels(&data, m);
            let bf = BruteForce::new(&data);
            for &(lo, len) in &queries {
                let q = iv(lo, lo + len);
                prop_assert_eq!(sorted(h.range_search(q)), sorted(bf.range_search(q)));
                prop_assert_eq!(h.range_count(q), bf.range_count(q));
            }
        }
    }
}
