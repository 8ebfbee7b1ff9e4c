//! The **timeline index** (Kaufmann et al., SIGMOD 2013 — "Timeline
//! index: a unified data structure for processing queries on temporal
//! data in SAP HANA"), one of the range-search baselines the paper's
//! related work discusses (§VI; HINTm was shown to outperform it, which
//! is why §V benches HINTm instead — this crate completes the landscape).
//!
//! # Structure
//!
//! All interval endpoints become an *event list*, sorted by time: a
//! `+id` event at `lo` and a `−id` event just after `hi` (closed
//! intervals). Every `c` events a *checkpoint* stores the full set of
//! intervals active at that point. A query `[q.lo, q.hi]` then:
//!
//! 1. reconstructs the active set at `q.lo` from the nearest checkpoint
//!    at or before it plus an event replay (`O(c + |active|)`), and
//! 2. appends every interval that *starts* within `(q.lo, q.hi]`
//!    (a contiguous run of the start-sorted event list).
//!
//! Range search therefore costs `O(c + |q ∩ X| + replay)` — fast for
//! short queries, `Ω(|q ∩ X|)` like all search-based baselines (the
//! paper's related work, §VI, discusses it as the temporal-database
//! representative HINTm superseded).
//!
//! # Complexity
//!
//! | Operation | Time | Notes |
//! |---|---|---|
//! | Build | `O(n log n)` | event sort + periodic checkpoints |
//! | Range search | `O(c + replay + \|q ∩ X\|)` | `c` = checkpoint period |
//! | Range count | same as search | search-based |
//! | IRS | `Ω(\|q ∩ X\| + s)` | search-then-sample |
//! | Space | `O(n + n/c · active)` | event list + snapshots |

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use irs_core::{
    vec_bytes, Endpoint, Interval, ItemId, MemoryFootprint, PreparedSampler, RangeCount,
    RangeSampler, RangeSearch, StabbingQuery,
};

/// One event: an interval starting or ending.
#[derive(Clone, Copy, Debug)]
struct Event<E> {
    time: E,
    id: ItemId,
    /// `true` = interval becomes active, `false` = it just became
    /// inactive (processed for times strictly greater than `time`).
    start: bool,
}

/// A periodic snapshot of the active set.
#[derive(Clone, Debug)]
struct Checkpoint {
    /// Index into the event list this snapshot is valid *after*.
    event_pos: usize,
    /// Ids active after applying events `0..event_pos`.
    active: Vec<ItemId>,
}

/// Default checkpoint period (events between snapshots).
pub const DEFAULT_CHECKPOINT_PERIOD: usize = 512;

/// The timeline index.
///
/// ```
/// use irs_timeline::TimelineIndex;
/// use irs_core::{Interval, RangeSearch, StabbingQuery};
///
/// let data = vec![Interval::new(0i64, 10), Interval::new(5, 15), Interval::new(20, 30)];
/// let tl = TimelineIndex::new(&data);
/// assert_eq!(tl.stab(7), vec![0, 1]);
/// let mut hits = tl.range_search(Interval::new(12, 25));
/// hits.sort_unstable();
/// assert_eq!(hits, vec![1, 2]);
/// ```
#[derive(Debug)]
pub struct TimelineIndex<E> {
    /// Start and end events interleaved, sorted by (time, end-before-
    /// start so that replay at a time T applies closed-interval
    /// semantics correctly — see `active_at`).
    events: Vec<Event<E>>,
    checkpoints: Vec<Checkpoint>,
    /// Positions of the start events only, for the "started within
    /// (q.lo, q.hi]" phase: `(lo, id)` sorted by `lo`.
    starts: Vec<(E, ItemId)>,
    len: usize,
    period: usize,
}

impl<E: Endpoint> TimelineIndex<E> {
    /// Builds with [`DEFAULT_CHECKPOINT_PERIOD`].
    pub fn new(data: &[Interval<E>]) -> Self {
        Self::with_checkpoint_period(data, DEFAULT_CHECKPOINT_PERIOD)
    }

    /// Builds with an explicit checkpoint period (smaller = faster
    /// queries, more memory).
    pub fn with_checkpoint_period(data: &[Interval<E>], period: usize) -> Self {
        assert!(period >= 1, "checkpoint period must be at least 1");
        let mut events: Vec<Event<E>> = Vec::with_capacity(data.len() * 2);
        let mut starts: Vec<(E, ItemId)> = Vec::with_capacity(data.len());
        for (i, iv) in data.iter().enumerate() {
            events.push(Event {
                time: iv.lo,
                id: i as ItemId,
                start: true,
            });
            events.push(Event {
                time: iv.hi,
                id: i as ItemId,
                start: false,
            });
            starts.push((iv.lo, i as ItemId));
        }
        // Replay order: all events at time t happen "at" t, with starts
        // before ends so a point query at t sees intervals that both
        // start and end at t. An end at time t only deactivates for
        // times strictly greater than t (closed intervals), which
        // `active_at` honours by replaying ends at t *after* the probe.
        events.sort_unstable_by_key(|e| (e.time, !e.start, e.id));
        starts.sort_unstable();

        // Checkpoints: active set after each `period` events.
        let mut checkpoints = Vec::with_capacity(events.len() / period + 1);
        let mut active: Vec<ItemId> = Vec::new();
        checkpoints.push(Checkpoint {
            event_pos: 0,
            active: Vec::new(),
        });
        for (pos, e) in events.iter().enumerate() {
            if e.start {
                active.push(e.id);
            } else if let Some(k) = active.iter().position(|&id| id == e.id) {
                active.swap_remove(k);
            }
            if (pos + 1) % period == 0 {
                let mut snapshot = active.clone();
                snapshot.sort_unstable();
                checkpoints.push(Checkpoint {
                    event_pos: pos + 1,
                    active: snapshot,
                });
            }
        }
        TimelineIndex {
            events,
            checkpoints,
            starts,
            len: data.len(),
            period,
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

    /// Checkpoint period in use.
    pub fn checkpoint_period(&self) -> usize {
        self.period
    }

    /// Ids active at time `t` (the timeline's native *time-travel*
    /// operator): nearest checkpoint + replay of at most `period` events.
    pub fn active_at(&self, t: E) -> Vec<ItemId> {
        if self.len == 0 {
            return Vec::new();
        }
        // Events relevant at time t: all with (time < t), plus starts at
        // t (closed start), while ends at t remain active (closed end).
        // Our sort key places starts before ends per time, so the replay
        // boundary is: all events with time < t, plus start events at t.
        let boundary = self
            .events
            .partition_point(|e| (e.time, !e.start) < (t, false) || (e.time == t && e.start));
        // Nearest checkpoint at or before the boundary.
        let ck_idx = self
            .checkpoints
            .partition_point(|c| c.event_pos <= boundary)
            .saturating_sub(1);
        let ck = &self.checkpoints[ck_idx];
        let mut active: Vec<ItemId> = ck.active.clone();
        for e in &self.events[ck.event_pos..boundary] {
            if e.start {
                active.push(e.id);
            } else if let Some(k) = active.iter().position(|&id| id == e.id) {
                active.swap_remove(k);
            }
        }
        // Ends at exactly `t` were replayed as deactivations only if
        // they preceded the boundary; with our key (time, !start) an end
        // at time t has key (t, true) ≥ (t, false) so it is *not* below
        // the boundary. Closed-interval semantics hold.
        active
    }
}

impl<E: Endpoint> RangeSearch<E> for TimelineIndex<E> {
    fn range_search_into(&self, q: Interval<E>, out: &mut Vec<ItemId>) {
        if self.len == 0 {
            return;
        }
        // Phase 1: active at q.lo.
        let active = self.active_at(q.lo);
        out.extend_from_slice(&active);
        // Phase 2: started within (q.lo, q.hi] — disjoint from phase 1
        // because those intervals were not active at q.lo.
        let from = self.starts.partition_point(|&(lo, _)| lo <= q.lo);
        let to = self.starts.partition_point(|&(lo, _)| lo <= q.hi);
        out.extend(self.starts[from..to].iter().map(|&(_, id)| id));
    }
}

impl<E: Endpoint> RangeCount<E> for TimelineIndex<E> {
    fn range_count(&self, q: Interval<E>) -> usize {
        if self.len == 0 {
            return 0;
        }
        let active = self.active_at(q.lo).len();
        let from = self.starts.partition_point(|&(lo, _)| lo <= q.lo);
        let to = self.starts.partition_point(|&(lo, _)| lo <= q.hi);
        active + (to - from)
    }
}

impl<E: Endpoint> StabbingQuery<E> for TimelineIndex<E> {
    fn stab_into(&self, p: E, out: &mut Vec<ItemId>) {
        out.extend(self.active_at(p));
    }
}

/// Phase-2 handle: the materialized result set (search-then-sample
/// baseline semantics, like the interval tree).
pub struct TimelinePrepared {
    candidates: Vec<ItemId>,
}

impl PreparedSampler for TimelinePrepared {
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

impl<E: Endpoint> RangeSampler<E> for TimelineIndex<E> {
    type Prepared<'a> = TimelinePrepared;

    fn prepare(&self, q: Interval<E>) -> TimelinePrepared {
        TimelinePrepared {
            candidates: self.range_search(q),
        }
    }
}

impl<E: Endpoint> MemoryFootprint for TimelineIndex<E> {
    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.events)
            + vec_bytes(&self.starts)
            + vec_bytes(&self.checkpoints)
            + self
                .checkpoints
                .iter()
                .map(|c| vec_bytes(&c.active))
                .sum::<usize>()
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
        let tl = TimelineIndex::<i64>::new(&[]);
        assert!(tl.is_empty());
        assert!(tl.range_search(iv(0, 10)).is_empty());
        assert_eq!(tl.range_count(iv(0, 10)), 0);
        assert!(tl.active_at(5).is_empty());
    }

    #[test]
    fn closed_interval_boundaries() {
        let data = vec![iv(5, 10)];
        let tl = TimelineIndex::new(&data);
        assert_eq!(tl.stab(5), vec![0], "closed at start");
        assert_eq!(tl.stab(10), vec![0], "closed at end");
        assert!(tl.stab(4).is_empty());
        assert!(tl.stab(11).is_empty());
    }

    #[test]
    fn degenerate_point_interval() {
        let data = vec![iv(7, 7), iv(0, 20)];
        let tl = TimelineIndex::new(&data);
        assert_eq!(sorted(tl.stab(7)), vec![0, 1]);
        assert_eq!(sorted(tl.range_search(iv(6, 8))), vec![0, 1]);
    }

    #[test]
    fn matches_oracle_across_checkpoint_periods() {
        let data: Vec<_> = (0..500)
            .map(|i| iv((i * 17) % 400, (i * 17) % 400 + 3 + (i % 29)))
            .collect();
        let bf = BruteForce::new(&data);
        for period in [1, 7, 64, 512, 100_000] {
            let tl = TimelineIndex::with_checkpoint_period(&data, period);
            for q in [
                iv(0, 450),
                iv(100, 120),
                iv(399, 440),
                iv(-20, -1),
                iv(250, 250),
            ] {
                assert_eq!(
                    sorted(tl.range_search(q)),
                    sorted(bf.range_search(q)),
                    "period {period} query {q:?}"
                );
                assert_eq!(tl.range_count(q), bf.range_count(q), "period {period}");
            }
            for p in [0, 200, 399, 431] {
                assert_eq!(
                    sorted(tl.stab(p)),
                    sorted(bf.stab(p)),
                    "period {period} stab {p}"
                );
            }
        }
    }

    #[test]
    fn sampling_supports_result_set() {
        use irs_core::RangeSampler;
        use rand::{rngs::StdRng, SeedableRng};
        let data: Vec<_> = (0..200).map(|i| iv(i, i + 30)).collect();
        let tl = TimelineIndex::new(&data);
        let bf = BruteForce::new(&data);
        let q = iv(60, 90);
        let support = sorted(bf.range_search(q));
        let mut rng = StdRng::seed_from_u64(4);
        for id in tl.sample(q, 1000, &mut rng) {
            assert!(support.binary_search(&id).is_ok());
        }
    }

    #[test]
    fn checkpoints_bound_replay() {
        let data: Vec<_> = (0..10_000).map(|i| iv(i, i + 100)).collect();
        let tl = TimelineIndex::with_checkpoint_period(&data, 128);
        // 20k events / 128 → ~156 checkpoints (plus the initial one).
        assert!(
            tl.checkpoints.len() >= 150,
            "{} checkpoints",
            tl.checkpoints.len()
        );
        assert_eq!(tl.active_at(5_000).len(), 101);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_matches_oracle(
            raw in prop::collection::vec((0i64..600, 0i64..150), 1..250),
            queries in prop::collection::vec((-40i64..700, 0i64..250), 12),
            period in 1usize..600,
        ) {
            let data: Vec<_> = raw.iter().map(|&(lo, len)| iv(lo, lo + len)).collect();
            let tl = TimelineIndex::with_checkpoint_period(&data, period);
            let bf = BruteForce::new(&data);
            for &(lo, len) in &queries {
                let q = iv(lo, lo + len);
                prop_assert_eq!(sorted(tl.range_search(q)), sorted(bf.range_search(q)));
                prop_assert_eq!(tl.range_count(q), bf.range_count(q));
                prop_assert_eq!(sorted(tl.stab(lo)), sorted(bf.stab(lo)));
            }
        }
    }
}
