//! The **period index** (Behrend et al., SSTD 2019 — "Period index: a
//! learned 2D hash index for range and duration queries"), the remaining
//! range-search baseline from the paper's related work (§VI).
//!
//! # Structure (the non-learned variant)
//!
//! The domain is cut into fixed-width *position buckets*. Every bucket
//! is subdivided into *duration levels*: level `d` of a bucket holds the
//! intervals starting in that bucket whose length falls in the level's
//! duration class (exponentially growing classes, so long outliers do
//! not blow up short-interval levels). A range query visits:
//!
//! - the buckets strictly inside `[q.lo, q.hi]` (everything starting
//!   there overlaps, except tail positions beyond `q.hi` in the last
//!   bucket), and
//! - buckets *before* `q.lo`, where only intervals long enough to reach
//!   `q.lo` can match — the duration levels let the scan skip entire
//!   classes whose maximal duration cannot bridge the gap.
//!
//! Range search remains `Ω(|q ∩ X|)` like all search-based baselines,
//! and its efficiency degrades with long-interval skew, which is exactly
//! what the HINT papers measured it against (the paper's related work,
//! §VI, cites it among the non-sampling competitors).
//!
//! # Complexity
//!
//! | Operation | Time | Notes |
//! |---|---|---|
//! | Build | `O(n + buckets · levels)` | one placement per interval |
//! | Range search | `Ω(\|q ∩ X\|)` | duration levels skip unreachable classes |
//! | Range count | `Ω(\|q ∩ X\|)` | search-based |
//! | IRS | `Ω(\|q ∩ X\| + s)` | search-then-sample |
//! | Space | `O(n + buckets · levels)` | leveled start-bucket lists |

use irs_core::{
    vec_bytes, GridEndpoint, Interval, ItemId, MemoryFootprint, PreparedSampler, RangeCount,
    RangeSampler, RangeSearch, StabbingQuery,
};

/// One duration level of a bucket: intervals with lengths in
/// `[2^level, 2^(level+1))` grid units, sorted by right endpoint so the
/// reach-check in earlier buckets is a suffix scan.
#[derive(Clone, Debug)]
struct Level<E> {
    /// `(hi, lo, id)` sorted by `hi` ascending.
    entries: Vec<(E, E, ItemId)>,
}

impl<E> Default for Level<E> {
    fn default() -> Self {
        Level {
            entries: Vec::new(),
        }
    }
}

/// One position bucket: duration-leveled lists of the intervals that
/// *start* inside it.
#[derive(Clone, Debug)]
struct Bucket<E> {
    levels: Vec<Level<E>>,
}

impl<E> Default for Bucket<E> {
    fn default() -> Self {
        Bucket { levels: Vec::new() }
    }
}

/// Default number of position buckets.
pub const DEFAULT_BUCKETS: usize = 1024;

/// The period index.
///
/// ```
/// use irs_period_index::PeriodIndex;
/// use irs_core::{Interval, RangeSearch, RangeCount};
///
/// let data: Vec<_> = (0..1000i64).map(|i| Interval::new(i, i + 50)).collect();
/// let pi = PeriodIndex::new(&data);
/// assert_eq!(pi.range_count(Interval::new(200, 240)), 91);
/// ```
#[derive(Debug)]
pub struct PeriodIndex<E> {
    buckets: Vec<Bucket<E>>,
    /// `(min lo, max hi)`; `None` when empty.
    domain: Option<(E, E)>,
    /// Grid width of one bucket (domain units per bucket, ≥ 1).
    bucket_width: u64,
    /// Longest indexed duration in grid units (bounds the backward walk).
    max_duration: u64,
    len: usize,
}

impl<E: GridEndpoint> PeriodIndex<E> {
    /// Builds with [`DEFAULT_BUCKETS`] position buckets.
    pub fn new(data: &[Interval<E>]) -> Self {
        Self::with_buckets(data, DEFAULT_BUCKETS)
    }

    /// Builds with an explicit bucket count.
    pub fn with_buckets(data: &[Interval<E>], bucket_count: usize) -> Self {
        assert!(bucket_count >= 1, "need at least one bucket");
        let domain = irs_core::domain_bounds(data);
        let (bucket_width, mut buckets) = match domain {
            Some((lo, hi)) => {
                let extent = hi.grid_offset(lo).saturating_add(1);
                let width = extent.div_ceil(bucket_count as u64).max(1);
                let count = extent.div_ceil(width) as usize;
                (width, vec![Bucket::default(); count.max(1)])
            }
            None => (1, Vec::new()),
        };
        let mut max_duration = 0u64;
        if let Some((dmin, _)) = domain {
            for (i, iv) in data.iter().enumerate() {
                let b = (iv.lo.grid_offset(dmin) / bucket_width) as usize;
                let dur = iv.hi.grid_offset(iv.lo);
                max_duration = max_duration.max(dur);
                let level = duration_level(dur);
                let bucket = &mut buckets[b];
                if bucket.levels.len() <= level {
                    bucket.levels.resize_with(level + 1, Level::default);
                }
                bucket.levels[level]
                    .entries
                    .push((iv.hi, iv.lo, i as ItemId));
            }
            for bucket in &mut buckets {
                for level in &mut bucket.levels {
                    level.entries.sort_unstable();
                }
            }
        }
        PeriodIndex {
            buckets,
            domain,
            bucket_width,
            max_duration,
            len: data.len(),
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

    /// Number of position buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    fn bucket_of(&self, v: E) -> usize {
        let (dmin, _) = self.domain.expect("bucket_of on empty index");
        (v.grid_offset(dmin) / self.bucket_width) as usize
    }

    /// Calls `emit` for every interval overlapping `q`, exactly once
    /// (each interval lives in exactly one bucket/level slot).
    fn for_each_overlap(&self, q: Interval<E>, mut emit: impl FnMut(ItemId)) {
        let Some((dmin, dmax)) = self.domain else {
            return;
        };
        if q.hi < dmin || dmax < q.lo {
            return;
        }
        let qlo = if q.lo < dmin { dmin } else { q.lo };
        let qhi = if q.hi > dmax { dmax } else { q.hi };
        let first = self.bucket_of(qlo);
        let last = self.bucket_of(qhi);

        // Buckets inside the query: everything starting at ≤ q.hi
        // overlaps (their start is ≥ bucket start ≥ q.lo). Only the last
        // bucket needs the lo ≤ q.hi comparison.
        for b in first..=last {
            let needs_lo_check = b == last;
            for level in &self.buckets[b].levels {
                for &(hi, lo, id) in &level.entries {
                    // In the first bucket an interval may start (and even
                    // end) before q.lo.
                    if b == first && hi < q.lo {
                        continue;
                    }
                    if b == first && lo < qlo {
                        // Starts before the query within the same bucket:
                        // reached q.lo, overlap confirmed by hi ≥ q.lo.
                        emit(id);
                        continue;
                    }
                    if !needs_lo_check || lo <= q.hi {
                        emit(id);
                    }
                }
            }
        }

        // Earlier buckets: every interval there starts before q.lo, so it
        // matches iff it reaches q.lo (`hi ≥ q.lo`) — a suffix of each
        // hi-sorted level. The backward walk stops once even the longest
        // indexed interval could no longer bridge the gap.
        let qlo_off = qlo.grid_offset(dmin);
        for b in (0..first).rev() {
            let bucket_end_off = ((b as u64 + 1) * self.bucket_width).saturating_sub(1);
            let gap = qlo_off.saturating_sub(bucket_end_off);
            if gap > self.max_duration {
                break;
            }
            for level in &self.buckets[b].levels {
                let from = level.entries.partition_point(|&(hi, _, _)| hi < qlo);
                for &(_, _, id) in &level.entries[from..] {
                    emit(id);
                }
            }
        }
    }
}

/// Exponential duration classes: level = floor(log2(duration + 1)).
fn duration_level(dur: u64) -> usize {
    (64 - (dur + 1).leading_zeros() - 1) as usize
}

impl<E: GridEndpoint> RangeSearch<E> for PeriodIndex<E> {
    fn range_search_into(&self, q: Interval<E>, out: &mut Vec<ItemId>) {
        self.for_each_overlap(q, |id| out.push(id));
    }
}

impl<E: GridEndpoint> RangeCount<E> for PeriodIndex<E> {
    fn range_count(&self, q: Interval<E>) -> usize {
        let mut count = 0;
        self.for_each_overlap(q, |_| count += 1);
        count
    }
}

impl<E: GridEndpoint> StabbingQuery<E> for PeriodIndex<E> {
    fn stab_into(&self, p: E, out: &mut Vec<ItemId>) {
        self.for_each_overlap(Interval::point(p), |id| out.push(id));
    }
}

/// Phase-2 handle: materialized candidates (search-then-sample baseline).
pub struct PeriodPrepared {
    candidates: Vec<ItemId>,
}

impl PreparedSampler for PeriodPrepared {
    fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    fn sample_into<R: rand::RngCore + ?Sized>(&self, rng: &mut R, s: usize, out: &mut Vec<ItemId>) {
        if self.candidates.is_empty() {
            return;
        }
        for _ in 0..s {
            let k = rand::Rng::random_range(&mut *rng, 0..self.candidates.len());
            out.push(self.candidates[k]);
        }
    }
}

impl<E: GridEndpoint> RangeSampler<E> for PeriodIndex<E> {
    type Prepared<'a> = PeriodPrepared;

    fn prepare(&self, q: Interval<E>) -> PeriodPrepared {
        PeriodPrepared {
            candidates: self.range_search(q),
        }
    }
}

impl<E: GridEndpoint> MemoryFootprint for PeriodIndex<E> {
    fn heap_bytes(&self) -> usize {
        let mut bytes = vec_bytes(&self.buckets);
        for b in &self.buckets {
            bytes += vec_bytes(&b.levels);
            for l in &b.levels {
                bytes += vec_bytes(&l.entries);
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

    fn iv(lo: i64, hi: i64) -> Interval<i64> {
        Interval::new(lo, hi)
    }

    fn sorted(mut v: Vec<ItemId>) -> Vec<ItemId> {
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_index() {
        let pi = PeriodIndex::<i64>::new(&[]);
        assert!(pi.is_empty());
        assert!(pi.range_search(iv(0, 10)).is_empty());
        assert_eq!(pi.range_count(iv(0, 10)), 0);
    }

    #[test]
    fn duration_levels_are_log_classes() {
        assert_eq!(duration_level(0), 0);
        assert_eq!(duration_level(1), 1);
        assert_eq!(duration_level(2), 1);
        assert_eq!(duration_level(3), 2);
        assert_eq!(duration_level(7), 3);
        assert_eq!(duration_level(u64::MAX - 1), 63);
    }

    #[test]
    fn matches_oracle_across_bucket_counts() {
        let data: Vec<_> = (0..400)
            .map(|i| iv((i * 13) % 350, (i * 13) % 350 + 1 + (i % 60)))
            .collect();
        let bf = BruteForce::new(&data);
        for buckets in [1, 2, 16, 128, 4096] {
            let pi = PeriodIndex::with_buckets(&data, buckets);
            for q in [
                iv(0, 450),
                iv(100, 120),
                iv(349, 360),
                iv(-20, -1),
                iv(170, 170),
            ] {
                assert_eq!(
                    sorted(pi.range_search(q)),
                    sorted(bf.range_search(q)),
                    "buckets {buckets} query {q:?}"
                );
                assert_eq!(pi.range_count(q), bf.range_count(q), "buckets {buckets}");
            }
            for p in [0, 170, 349, 400] {
                assert_eq!(
                    sorted(pi.stab(p)),
                    sorted(bf.stab(p)),
                    "buckets {buckets} stab {p}"
                );
            }
        }
    }

    #[test]
    fn long_intervals_found_from_early_buckets() {
        // One very long interval starting at 0 must be found by a query
        // deep into the domain, across many buckets.
        let mut data = vec![iv(0, 100_000)];
        data.extend((0..100).map(|i| iv(i * 1000, i * 1000 + 10)));
        let pi = PeriodIndex::with_buckets(&data, 256);
        let hits = pi.range_search(iv(99_500, 99_600));
        assert!(hits.contains(&0), "long interval missed: {hits:?}");
    }

    #[test]
    fn negative_domain() {
        let data: Vec<_> = (-300..-200).map(|i| iv(i, i + 25)).collect();
        let pi = PeriodIndex::new(&data);
        let bf = BruteForce::new(&data);
        for q in [iv(-400, -100), iv(-250, -240), iv(-199, -150)] {
            assert_eq!(
                sorted(pi.range_search(q)),
                sorted(bf.range_search(q)),
                "{q:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_matches_oracle(
            raw in prop::collection::vec((-500i64..500, 0i64..400), 1..250),
            queries in prop::collection::vec((-600i64..600, 0i64..500), 12),
            buckets in 1usize..300,
        ) {
            let data: Vec<_> = raw.iter().map(|&(lo, len)| iv(lo, lo + len)).collect();
            let pi = PeriodIndex::with_buckets(&data, buckets);
            let bf = BruteForce::new(&data);
            for &(lo, len) in &queries {
                let q = iv(lo, lo + len);
                prop_assert_eq!(sorted(pi.range_search(q)), sorted(bf.range_search(q)));
                prop_assert_eq!(pi.range_count(q), bf.range_count(q));
            }
        }
    }
}
