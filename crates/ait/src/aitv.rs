//! AIT-V (§III-C): the linear-space AIT over *virtual intervals*.
//!
//! The dataset is pair-sorted (left endpoint ascending, ties by right
//! endpoint) and chopped into buckets of `⌈log₂ n⌉` consecutive intervals.
//! Each bucket is summarized by its virtual interval
//! `v = [min lo, max hi]`, and an ordinary [`Ait`] indexes the `Θ(n/log n)`
//! virtual intervals — `O(n)` space total. A sample is drawn by picking a
//! virtual slot uniformly from the record set, picking a bucket member
//! uniformly, and *rejecting* members that miss the query; acceptance is
//! uniform over `q ∩ X`, and pair-sort locality keeps the expected number
//! of rejections constant in practice (the paper's §III-C measurement —
//! ~1.09 attempts per accepted sample — is reproduced by the
//! `aitv_rejections` bench).

use crate::ait::Ait;
use irs_core::{
    vec_bytes, Endpoint, Interval, ItemId, MemoryFootprint, PreparedSampler, RangeSampler,
};
use irs_sampling::AliasTable;
use std::sync::atomic::{AtomicU64, Ordering};

/// Rejection-sampling telemetry for one `sample_into` call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RejectionStats {
    /// Member draws attempted (accepted + rejected).
    pub attempts: u64,
    /// Samples produced.
    pub accepted: u64,
    /// Times the exact-fallback path was taken (pathological queries
    /// where rejection sampling failed to land for a long stretch).
    pub fallbacks: u64,
}

/// The AIT with virtual intervals: `O(n)` space, `O(log² n + s)` expected
/// query time (Corollaries 2 and 3).
#[derive(Debug)]
pub struct AitV<E> {
    /// AIT over the virtual intervals; item ids are bucket indices.
    pub(crate) virtual_ait: Ait<E>,
    /// Dataset ids in pair-sort order; bucket `b` owns
    /// `members[b·size .. min((b+1)·size, n)]`.
    pub(crate) members: Vec<ItemId>,
    /// Dataset copy in original id order, needed for the `x ∩ q` rejection
    /// test.
    pub(crate) data: Vec<Interval<E>>,
    pub(crate) bucket_size: usize,
}

impl<E: Endpoint> AitV<E> {
    /// Builds with the paper's bucket size `⌈log₂ n⌉`.
    pub fn new(data: &[Interval<E>]) -> Self {
        let b = (data.len().max(2) as f64).log2().ceil() as usize;
        Self::with_bucket_size(data, b.max(1))
    }

    /// Builds with an explicit bucket size (exposed for the ablation
    /// bench; `bucket_size = 1` degenerates to a plain AIT with an extra
    /// indirection).
    pub fn with_bucket_size(data: &[Interval<E>], bucket_size: usize) -> Self {
        assert!(bucket_size >= 1, "bucket size must be at least 1");
        let members = irs_core::pair_sort_indices(data);
        let mut virtuals: Vec<Interval<E>> = Vec::with_capacity(members.len() / bucket_size + 1);
        for chunk in members.chunks(bucket_size) {
            // Pair sort makes the first member's lo the bucket minimum;
            // the max hi must be scanned.
            let lo = data[chunk[0] as usize].lo;
            let mut hi = data[chunk[0] as usize].hi;
            for &id in &chunk[1..] {
                let h = data[id as usize].hi;
                if h > hi {
                    hi = h;
                }
            }
            virtuals.push(Interval::new(lo, hi));
        }
        AitV {
            virtual_ait: Ait::new(&virtuals),
            members,
            data: data.to_vec(),
            bucket_size,
        }
    }

    /// Number of intervals indexed.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the index holds no intervals.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bucket size in use.
    pub fn bucket_size(&self) -> usize {
        self.bucket_size
    }

    /// Number of virtual intervals (`Θ(n / log n)` with the default
    /// bucket size).
    pub fn virtual_count(&self) -> usize {
        self.members.len().div_ceil(self.bucket_size)
    }

    fn bucket_members(&self, bucket: usize) -> &[ItemId] {
        let start = bucket * self.bucket_size;
        let end = (start + self.bucket_size).min(self.members.len());
        &self.members[start..end]
    }
}

/// Phase-2 handle of AIT-V: records over the virtual AIT plus the state
/// needed for rejection sampling.
///
/// All phase-1 state (the record set and the alias table over it) is
/// immutable after [`AitV::prepare`], so one handle can serve draws
/// from many threads; the telemetry counters are atomics, accumulated
/// once per `sample_into` call from per-call stack scratch.
pub struct AitVPrepared<'a, E> {
    aitv: &'a AitV<E>,
    q: Interval<E>,
    /// Each record resolved to its run of the virtual AIT's `ids`
    /// column, so a rejection attempt reads the bucket id straight from
    /// the slice instead of dereferencing the node per draw.
    runs: Vec<&'a [ItemId]>,
    /// Alias table over the records' lengths, built once in phase 1
    /// (`None` iff `records` is empty).
    alias: Option<AliasTable>,
    attempts: AtomicU64,
    accepted: AtomicU64,
    fallbacks: AtomicU64,
}

impl<'a, E: Endpoint> AitVPrepared<'a, E> {
    /// Telemetry from the draws performed so far on this handle.
    ///
    /// Each counter is exact over completed `sample_into` calls. With
    /// draws *in flight* on other threads the three counters are read
    /// independently (relaxed atomics, no cross-counter ordering), so
    /// the snapshot is approximate — each field is monotone and
    /// correct on its own, but cross-field ratios may be slightly off
    /// until the concurrent calls finish. (Note `accepted > attempts`
    /// is possible even single-threaded: the exact-enumeration
    /// fallback produces samples without per-draw attempts.)
    pub fn stats(&self) -> RejectionStats {
        RejectionStats {
            attempts: self.attempts.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Enumerates the true result set by scanning every candidate bucket —
    /// the `O(candidates)` fallback used when rejection sampling stalls,
    /// and the basis of the (expected-time) range search below.
    fn enumerate_exact(&self) -> Vec<ItemId> {
        let mut out = Vec::new();
        for run in &self.runs {
            for &bucket in *run {
                for &id in self.aitv.bucket_members(bucket as usize) {
                    if self.aitv.data[id as usize].overlaps(&self.q) {
                        out.push(id);
                    }
                }
            }
        }
        out
    }
}

impl<E: Endpoint> PreparedSampler for AitVPrepared<'_, E> {
    /// Candidate *slots* (bucket members reachable from the records) — an
    /// upper bound on `|q ∩ X|`, as documented on the trait.
    fn candidate_count(&self) -> usize {
        self.runs
            .iter()
            .map(|run| {
                run.iter()
                    .map(|&bucket| self.aitv.bucket_members(bucket as usize).len())
                    .sum::<usize>()
            })
            .sum()
    }

    fn sample_into<R: rand::RngCore + ?Sized>(&self, rng: &mut R, s: usize, out: &mut Vec<ItemId>) {
        let (Some(alias), false) = (&self.alias, s == 0) else {
            return;
        };
        // Per-call scratch: counters accumulate on the stack and are
        // folded into the shared atomics once, at the end — no mutable
        // phase-1 state is touched during the draws.
        let mut stats = RejectionStats::default();

        // Rejection cap per *query* (not per draw): if the acceptance rate
        // is so low that we burn this many attempts, fall back to exact
        // enumeration — still uniform, never diverges (e.g. when every
        // candidate bucket's members all miss q, i.e. q ∩ X = ∅).
        let mut budget: u64 = 256 + 64 * s as u64;
        let mut produced = 0usize;
        while produced < s {
            if budget == 0 {
                stats.fallbacks += 1;
                let exact = self.enumerate_exact();
                if exact.is_empty() {
                    // True result set is empty: nothing can be sampled.
                    self.accumulate(stats);
                    return;
                }
                while produced < s {
                    let k = rand::Rng::random_range(&mut *rng, 0..exact.len());
                    out.push(exact[k]);
                    produced += 1;
                    stats.accepted += 1;
                }
                break;
            }
            budget -= 1;
            stats.attempts += 1;
            let run = self.runs[alias.sample(rng)];
            let offset = rand::Rng::random_range(&mut *rng, 0..run.len());
            let bucket = run[offset] as usize;
            let members = self.aitv.bucket_members(bucket);
            // Uniformity requires every bucket slot to carry equal mass, so
            // short tail buckets are topped up with "pseudo-intervals"
            // (paper §III-C): a draw landing on a pseudo slot is rejected.
            let slot = rand::Rng::random_range(&mut *rng, 0..self.aitv.bucket_size);
            let Some(&id) = members.get(slot) else {
                continue;
            };
            if self.aitv.data[id as usize].overlaps(&self.q) {
                out.push(id);
                produced += 1;
                stats.accepted += 1;
            }
        }
        self.accumulate(stats);
    }
}

impl<E: Endpoint> AitVPrepared<'_, E> {
    /// Folds one call's stack-local counters into the shared telemetry.
    fn accumulate(&self, stats: RejectionStats) {
        self.attempts.fetch_add(stats.attempts, Ordering::Relaxed);
        self.accepted.fetch_add(stats.accepted, Ordering::Relaxed);
        self.fallbacks.fetch_add(stats.fallbacks, Ordering::Relaxed);
    }
}

impl<E: Endpoint> RangeSampler<E> for AitV<E> {
    type Prepared<'a> = AitVPrepared<'a, E>;

    fn prepare(&self, q: Interval<E>) -> AitVPrepared<'_, E> {
        let mut records = Vec::new();
        let mut pool_matches = Vec::new();
        self.virtual_ait
            .collect_records(q, &mut records, &mut pool_matches);
        debug_assert!(pool_matches.is_empty(), "AIT-V is static; no pool expected");
        // The alias table is phase-1 state: build it here, once, so the
        // draws share it immutably (and repeat draws on one handle stop
        // paying the construction).
        let alias = (!records.is_empty()).then(|| {
            let weights: Vec<f64> = records.iter().map(|r| r.len() as f64).collect();
            AliasTable::new(&weights)
        });
        let runs = records
            .iter()
            .map(|rec| {
                let ids = self.virtual_ait.nodes[rec.node as usize].ids(rec.kind);
                &ids[rec.start as usize..=rec.end as usize]
            })
            .collect();
        AitVPrepared {
            aitv: self,
            q,
            runs,
            alias,
            attempts: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }
}

impl<E: Endpoint> irs_core::RangeSearch<E> for AitV<E> {
    /// Exact range search by scanning candidate buckets — `O(log² n +
    /// |q∩X|)` expected thanks to pair-sort locality. Provided for
    /// completeness and testing; AIT-V's raison d'être is sampling.
    fn range_search_into(&self, q: Interval<E>, out: &mut Vec<ItemId>) {
        let prepared = self.prepare(q);
        out.extend(prepared.enumerate_exact());
    }
}

impl<E: Endpoint> MemoryFootprint for AitV<E> {
    fn heap_bytes(&self) -> usize {
        self.virtual_ait.heap_bytes() + vec_bytes(&self.members) + vec_bytes(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_core::{BruteForce, RangeSearch};
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
    fn empty_dataset() {
        let aitv = AitV::<i64>::new(&[]);
        assert!(aitv.is_empty());
        let mut rng = StdRng::seed_from_u64(0);
        assert!(aitv.sample(iv(0, 10), 5, &mut rng).is_empty());
    }

    #[test]
    fn virtual_count_is_n_over_log_n() {
        let data: Vec<_> = (0..4096).map(|i| iv(i, i + 3)).collect();
        let aitv = AitV::new(&data);
        assert_eq!(aitv.bucket_size(), 12); // log2(4096)
        assert_eq!(aitv.virtual_count(), 4096usize.div_ceil(12));
    }

    #[test]
    fn search_matches_oracle() {
        let data: Vec<_> = (0..500)
            .map(|i| iv((i * 13) % 400, (i * 13) % 400 + 5 + (i % 17)))
            .collect();
        let aitv = AitV::new(&data);
        let bf = BruteForce::new(&data);
        for q in [iv(0, 450), iv(100, 120), iv(399, 399), iv(500, 600)] {
            assert_eq!(
                sorted(aitv.range_search(q)),
                sorted(bf.range_search(q)),
                "query {q:?}"
            );
        }
    }

    #[test]
    fn samples_are_valid_and_uniform() {
        let data: Vec<_> = (0..300).map(|i| iv(i, i + 40)).collect();
        let aitv = AitV::new(&data);
        let bf = BruteForce::new(&data);
        let q = iv(100, 140);
        let support = sorted(bf.range_search(q));
        let mut rng = StdRng::seed_from_u64(99);
        let draws = 150_000usize;
        let mut counts = vec![0u64; support.len()];
        let samples = aitv.sample(q, draws, &mut rng);
        assert_eq!(samples.len(), draws);
        for id in samples {
            let pos = irs_sampling::stats::expect_in_support(&support, &id);
            counts[pos] += 1;
        }
        assert!(
            irs_sampling::stats::chi_square_uniformity_ok(&counts, draws as u64),
            "AIT-V sampling not uniform"
        );
    }

    #[test]
    fn empty_result_set_terminates_via_fallback() {
        // Buckets whose virtual interval overlaps q although no member
        // does: members [0,10] and [100,110] produce virtual [0,110];
        // q = [50,60] hits the virtual interval only.
        let data = vec![iv(0, 10), iv(100, 110)];
        let aitv = AitV::with_bucket_size(&data, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let prepared = aitv.prepare(iv(50, 60));
        assert!(prepared.candidate_count() > 0, "virtual candidate expected");
        let mut out = Vec::new();
        prepared.sample_into(&mut rng, 10, &mut out);
        assert!(out.is_empty(), "no real interval overlaps the query");
        assert!(prepared.stats().fallbacks >= 1);
    }

    #[test]
    fn tail_bucket_members_are_not_over_sampled() {
        // 10 intervals, bucket size 4 → tail bucket has 2 members. All
        // intervals overlap the query; uniformity must hold across the
        // short bucket (pseudo-interval rejection).
        let data: Vec<_> = (0..10).map(|i| iv(i, i + 100)).collect();
        let aitv = AitV::with_bucket_size(&data, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let draws = 100_000usize;
        let mut counts = vec![0u64; 10];
        for id in aitv.sample(iv(50, 60), draws, &mut rng) {
            counts[id as usize] += 1;
        }
        assert!(
            irs_sampling::stats::chi_square_uniformity_ok(&counts, draws as u64),
            "tail bucket skew: {counts:?}"
        );
    }

    #[test]
    fn rejection_rate_is_low_on_local_data() {
        // Pair-sorted locality: similar intervals share buckets, so
        // attempts/accepted should be close to 1 (paper reports ~1.09).
        let data: Vec<_> = (0..10_000).map(|i| iv(i, i + 50)).collect();
        let aitv = AitV::new(&data);
        let mut rng = StdRng::seed_from_u64(6);
        let prepared = aitv.prepare(iv(4000, 4800));
        let mut out = Vec::new();
        prepared.sample_into(&mut rng, 1000, &mut out);
        assert_eq!(out.len(), 1000);
        let stats = prepared.stats();
        let ratio = stats.attempts as f64 / stats.accepted as f64;
        assert!(ratio < 1.5, "rejection ratio {ratio} too high");
    }

    #[test]
    fn linear_space_versus_ait() {
        let data: Vec<_> = (0..20_000).map(|i| iv(i, i + 9)).collect();
        let ait = Ait::new(&data);
        let aitv = AitV::new(&data);
        assert!(
            aitv.heap_bytes() * 3 < ait.heap_bytes(),
            "AIT-V ({}) should be far smaller than AIT ({})",
            aitv.heap_bytes(),
            ait.heap_bytes()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_samples_always_overlap_query(
            raw in prop::collection::vec((0i64..800, 0i64..100), 1..200),
            q_lo in -50i64..900,
            q_len in 0i64..300,
            bucket in 1usize..9,
        ) {
            let data: Vec<_> = raw.iter().map(|&(lo, len)| iv(lo, lo + len)).collect();
            let aitv = AitV::with_bucket_size(&data, bucket);
            let q = iv(q_lo, q_lo + q_len);
            let bf = BruteForce::new(&data);
            let support = sorted(bf.range_search(q));
            let mut rng = StdRng::seed_from_u64(7);
            let samples = aitv.sample(q, 50, &mut rng);
            if support.is_empty() {
                prop_assert!(samples.is_empty());
            } else {
                prop_assert_eq!(samples.len(), 50);
                for id in samples {
                    prop_assert!(support.binary_search(&id).is_ok());
                }
            }
            prop_assert_eq!(sorted(aitv.range_search(q)), support);
        }
    }
}
