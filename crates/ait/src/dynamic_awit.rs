//! `DynamicAwit` — an *extension beyond the paper*: weighted IRS with
//! updates.
//!
//! §IV of the paper leaves dynamic weighted intervals as future work,
//! because a single insertion shifts entire cumulative-weight arrays. This
//! module closes that gap with the standard amortization toolkit, while
//! keeping the sampling distribution *exact*:
//!
//! - **Insertions** go to a weighted pool. Queries scan the pool linearly;
//!   each matching pool entry joins the per-query alias with its own
//!   weight, so probabilities stay exactly `w(x)/Σ w` over live intervals.
//! - **Deletions** become tombstones. Draws landing on a tombstoned
//!   interval are rejected and retried — rejection sampling conditioned on
//!   acceptance is exactly the weight-proportional distribution over the
//!   *live* result set. A per-query attempt budget falls back to exact
//!   enumeration, so tombstone concentrations cannot stall a query.
//! - When the pool or tombstone set outgrows `⌈log₂ n⌉²`, the underlying
//!   [`Awit`] is rebuilt, keeping updates amortized `O(n/log n)` and the
//!   query-time overhead `O(log² n)`. The rebuild sorts nothing over `n`:
//!   the old root's `AL` runs already hold the residents in the builder's
//!   orders, so it drops the tombstones from them, merges in the sorted
//!   pool and runs the builder's `O(n log n)` partitioning alone.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::ait::{pool_capacity_for, root_run};
use crate::awit::{Awit, AwitPrepared, DRAW_CHUNK};
use crate::build::{presorted_with_pool, BuildEntry, NIL};
use crate::records::ListKind;
use irs_core::{
    vec_bytes, Endpoint, Interval, ItemId, MemoryFootprint, PreparedSampler, RangeCount,
    RangeSearch, WeightedRangeSampler,
};
use irs_sampling::{prefetch_read, AliasTable};

/// Weighted IRS index with insert/delete support (extension of §IV; see
/// module docs). Sampling stays exactly weight-proportional over the live
/// intervals.
///
/// ```
/// use irs_ait::DynamicAwit;
/// use irs_core::{Interval, WeightedRangeSampler};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let data: Vec<_> = (0..100i64).map(|i| Interval::new(i, i + 10)).collect();
/// let weights: Vec<f64> = (0..100).map(|i| 1.0 + (i % 7) as f64).collect();
/// let mut idx = DynamicAwit::new(&data, &weights);
/// let heavy = idx.insert(Interval::new(50, 55), 1000.0);
/// assert!(idx.delete(Interval::new(0, 10), 0));
/// let mut rng = StdRng::seed_from_u64(1);
/// let s = idx.sample_weighted(Interval::new(48, 58), 100, &mut rng);
/// assert!(s.iter().filter(|&&id| id == heavy).count() > 50);
/// ```
#[derive(Debug)]
pub struct DynamicAwit<E> {
    /// Built over the resident intervals in position order: its `ids`
    /// columns hold positions into `slot_ids` and `records`.
    pub(crate) awit: Awit<E>,
    /// AWIT position → public id, strictly increasing (ids survive
    /// rebuilds through this table, and lookups by id binary-search it).
    pub(crate) slot_ids: Vec<ItemId>,
    /// `records[p]` is the interval and weight of `slot_ids[p]`, live or
    /// tombstoned.
    pub(crate) records: Vec<(Interval<E>, f64)>,
    /// Buffered insertions not yet merged into the AWIT.
    pub(crate) pool: Vec<(Interval<E>, ItemId, f64)>,
    /// AWIT positions of logically deleted residents, ascending; a
    /// rebuild drops them once there are `update_capacity`.
    pub(crate) tombstoned: Vec<u32>,
    pub(crate) next_id: ItemId,
    pub(crate) update_capacity: usize,
}

impl<E: Endpoint> DynamicAwit<E> {
    /// Builds from an initial weighted dataset (ids `0..n`, like
    /// [`Awit`]).
    pub fn new(data: &[Interval<E>], weights: &[f64]) -> Self {
        assert_eq!(data.len(), weights.len(), "weights must align with data");
        DynamicAwit {
            awit: Awit::new(data, weights),
            slot_ids: (0..data.len() as ItemId).collect(),
            records: data.iter().copied().zip(weights.iter().copied()).collect(),
            pool: Vec::new(),
            tombstoned: Vec::new(),
            next_id: data.len() as ItemId,
            update_capacity: pool_capacity_for(data.len()),
        }
    }

    /// Number of live intervals.
    pub fn len(&self) -> usize {
        self.records.len() + self.pool.len() - self.tombstoned.len()
    }

    /// Whether no intervals are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Intervals waiting in the insertion pool.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Logically deleted intervals still resident in the AWIT.
    pub fn tombstone_len(&self) -> usize {
        self.tombstoned.len()
    }

    pub(crate) fn is_tombstoned(&self, pos: u32) -> bool {
        self.tombstoned.binary_search(&pos).is_ok()
    }

    /// Inserts a weighted interval, returning its id. Amortized
    /// `O(n/log n)`; worst case one rebuild.
    pub fn insert(&mut self, iv: Interval<E>, weight: f64) -> ItemId {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "weights must be positive, got {weight}"
        );
        let id = self.next_id;
        #[expect(
            clippy::expect_used,
            reason = "ids are u32 and never reused; the 2^32-th id panics inside the engine's shard containment, which reports ShardFailed"
        )]
        let next = self.next_id.checked_add(1).expect("id space exhausted");
        self.next_id = next;
        self.pool.push((iv, id, weight));
        if self.pool.len() >= self.update_capacity {
            self.rebuild();
        }
        id
    }

    /// The live interval and weight behind `id`, if any. Pool entries,
    /// resident entries, and tombstoned ids (which report `None`) are
    /// all resolved, so `get` is the id-validity oracle for callers that
    /// track intervals by id alone (the engine's delete-by-id path).
    pub fn get(&self, id: ItemId) -> Option<(Interval<E>, f64)> {
        if let Some(&(iv, _, w)) = self.pool.iter().find(|&&(_, pid, _)| pid == id) {
            return Some((iv, w));
        }
        let pos = self.slot_ids.binary_search(&id).ok()?;
        (!self.is_tombstoned(pos as u32)).then_some(self.records[pos])
    }

    /// Deletes the live interval behind `id`, returning whether it was
    /// live — [`DynamicAwit::delete`] without the caller having to carry
    /// the interval around.
    pub fn delete_by_id(&mut self, id: ItemId) -> bool {
        if let Some(at) = self.pool.iter().position(|&(_, pid, _)| pid == id) {
            self.pool.swap_remove(at);
            return true;
        }
        let Ok(pos) = self.slot_ids.binary_search(&id) else {
            return false;
        };
        let Err(at) = self.tombstoned.binary_search(&(pos as u32)) else {
            return false;
        };
        self.tombstoned.insert(at, pos as u32);
        if self.tombstoned.len() >= self.update_capacity {
            self.rebuild();
        }
        true
    }

    /// Deletes `(iv, id)`, returning whether it was live.
    pub fn delete(&mut self, iv: Interval<E>, id: ItemId) -> bool {
        self.get(id).is_some_and(|(live, _)| live == iv) && self.delete_by_id(id)
    }

    /// Folds the pool in and drops tombstones by rebuilding the AWIT.
    ///
    /// Live residents keep their order and move to the front, then the
    /// pool follows in id order, so the slot table stays strictly
    /// increasing. That renumbering of positions is monotone, so the old
    /// root's `AL` runs, with the tombstoned positions dropped and the
    /// rest renumbered, are still in the builder's `(key, position)`
    /// orders: the builder's input is those runs with the pool merged
    /// in, and nothing over all `n` is sorted. The result is the tree
    /// [`Awit::new`] builds over the live records in slot order.
    pub fn rebuild(&mut self) {
        let mut pool = std::mem::take(&mut self.pool);
        // Every pool id was issued after every resident's.
        pool.sort_unstable_by_key(|&(_, id, _)| id);
        // Old position → new, `NIL` for a tombstoned one.
        let mut renumber = Vec::with_capacity(self.records.len());
        let mut dead = self.tombstoned.iter().copied().peekable();
        let mut residents = 0u32;
        for pos in 0..self.records.len() as u32 {
            if dead.next_if_eq(&pos).is_some() {
                renumber.push(NIL);
            } else {
                renumber.push(residents);
                residents += 1;
            }
        }
        let n = residents as usize + pool.len();
        let (mut slot_ids, mut records) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for ((&id, &rec), &to) in self.slot_ids.iter().zip(&self.records).zip(&renumber) {
            if to != NIL {
                slot_ids.push(id);
                records.push(rec);
            }
        }
        for (iv, id, w) in pool {
            slot_ids.push(id);
            records.push((iv, w));
        }

        let entry = |pos: u32| {
            let (iv, w) = records[pos as usize];
            BuildEntry { iv, id: pos, w }
        };
        let run = |kind| {
            root_run(&self.awit.nodes, self.awit.root, kind)
                .iter()
                .map(|&old| renumber[old as usize])
                .filter(|&to| to != NIL)
                .map(entry)
        };
        let pooled = (residents..n as u32).map(entry).collect();
        let (by_lo, by_hi) =
            presorted_with_pool(run(ListKind::AllLo), run(ListKind::AllHi), pooled, n);
        self.awit = Awit::from_presorted(by_lo, by_hi);
        (self.slot_ids, self.records) = (slot_ids, records);
        self.tombstoned.clear();
        self.update_capacity = pool_capacity_for(n);
    }

    /// Sum of live weights overlapping `q`: the mass
    /// [`DynamicAwitPrepared::total_weight`] reports.
    pub fn range_weight(&self, q: Interval<E>) -> f64 {
        self.prepare_weighted(q).total_weight()
    }
}

impl<E: Endpoint> RangeSearch<E> for DynamicAwit<E> {
    fn range_search_into(&self, q: Interval<E>, out: &mut Vec<ItemId>) {
        for pos in self.awit.range_search(q) {
            if !self.is_tombstoned(pos) {
                out.push(self.slot_ids[pos as usize]);
            }
        }
        for &(iv, id, _) in &self.pool {
            if iv.overlaps(&q) {
                out.push(id);
            }
        }
    }
}

impl<E: Endpoint> RangeCount<E> for DynamicAwit<E> {
    fn range_count(&self, q: Interval<E>) -> usize {
        self.prepare_weighted(q).candidate_count()
    }
}

/// Phase-2 handle: the AWIT records plus the matching pool entries, and
/// the live count and mass, which take the tombstones out once here.
pub struct DynamicAwitPrepared<'a, E> {
    parent: &'a DynamicAwit<E>,
    inner: AwitPrepared<'a, E>,
    /// `(public id, weight)` of pool entries overlapping the query.
    pool_matches: Vec<(ItemId, f64)>,
    /// Live intervals overlapping the query.
    live: usize,
    /// Their summed weight.
    mass: f64,
}

impl<E: Endpoint> DynamicAwitPrepared<'_, E> {
    /// Total weight of the live intervals overlapping the query: the
    /// AWIT records' mass, less each overlapping tombstone's weight in
    /// id order, plus each pool match's weight in pool order. A fixed
    /// order makes it the same bits on every run.
    pub fn total_weight(&self) -> f64 {
        self.mass
    }

    /// Exact live candidates with weights — the enumeration fallback,
    /// read off the records this handle's one tree walk found.
    fn enumerate_live(&self) -> (Vec<ItemId>, Vec<f64>) {
        let (mut ids, mut ws) = (Vec::new(), Vec::new());
        for pos in self.inner.positions() {
            if !self.parent.is_tombstoned(pos) {
                ids.push(self.parent.slot_ids[pos as usize]);
                ws.push(self.parent.records[pos as usize].1);
            }
        }
        for &(id, w) in &self.pool_matches {
            ids.push(id);
            ws.push(w);
        }
        (ids, ws)
    }
}

impl<E: Endpoint> PreparedSampler for DynamicAwitPrepared<'_, E> {
    fn candidate_count(&self) -> usize {
        self.live
    }

    fn sample_into<R: rand::RngCore + ?Sized>(&self, rng: &mut R, s: usize, out: &mut Vec<ItemId>) {
        let n_rec = self.inner.records.len();
        if n_rec + self.pool_matches.len() == 0 {
            return;
        }
        // Alias over AWIT records (prefix-array weights, may include
        // tombstoned mass — rejected below) and individual pool matches.
        let mut weights = self.inner.record_weights.clone();
        weights.extend(self.pool_matches.iter().map(|&(_, w)| w));
        let alias = AliasTable::new(&weights);

        // Attempts run in chunks, each in three passes: (1) every
        // attempt's alias draw and in-record mass, consuming the RNG
        // exactly as a draw-at-a-time loop does; (2) the window searches,
        // each prefetching the `ids` entry it lands on; (3) tombstone
        // check on that AWIT position, then position → public id, in
        // attempt order.
        // Only the memory-bound passes are batched, so a chunk's cache
        // misses overlap instead of serializing, and seeded replay is
        // unchanged. A chunk never holds more attempts than are still due:
        // each accepted one yields one sample, so a draw-at-a-time loop
        // would run at least `s - produced` more before its budget check
        // could stop it.
        let mut ks = [0usize; DRAW_CHUNK];
        let mut us = [0.0f64; DRAW_CHUNK];
        let mut produced = 0usize;
        let mut budget: u64 = 256 + 64 * s as u64;
        while produced < s {
            if budget == 0 {
                // Tombstones dominate this query's mass: enumerate exactly.
                let (ids, ws) = self.enumerate_live();
                if ids.is_empty() {
                    return;
                }
                let exact = AliasTable::new(&ws);
                while produced < s {
                    out.push(ids[exact.sample(rng)]);
                    produced += 1;
                }
                break;
            }
            let c = (s - produced).min(DRAW_CHUNK).min(budget as usize);
            budget -= c as u64;
            for (k, u) in ks[..c].iter_mut().zip(&mut us[..c]) {
                *k = alias.sample(rng);
                if *k < n_rec {
                    *u = self.inner.record_mass(*k, rng);
                }
            }
            let mut found = [None; DRAW_CHUNK];
            for ((slot, &k), &u) in found.iter_mut().zip(&ks[..c]).zip(&us[..c]) {
                if k < n_rec {
                    let pos = self.inner.record_id(k, u);
                    prefetch_read(pos);
                    *slot = Some(pos);
                }
            }
            for (slot, &k) in found[..c].iter().zip(&ks[..c]) {
                let id = match *slot {
                    // Rejected: the conditional law stays exact.
                    Some(&pos) if self.parent.is_tombstoned(pos) => continue,
                    Some(&pos) => self.parent.slot_ids[pos as usize],
                    None => self.pool_matches[k - n_rec].0,
                };
                out.push(id);
                produced += 1;
            }
        }
    }
}

impl<E: Endpoint> WeightedRangeSampler<E> for DynamicAwit<E> {
    type Prepared<'a> = DynamicAwitPrepared<'a, E>;

    fn prepare_weighted(&self, q: Interval<E>) -> DynamicAwitPrepared<'_, E> {
        let inner = self.awit.prepare_weighted(q);
        let pool_matches: Vec<(ItemId, f64)> = self
            .pool
            .iter()
            .filter(|(iv, _, _)| iv.overlaps(&q))
            .map(|&(_, id, w)| (id, w))
            .collect();
        // The records still hold the tombstoned intervals: take them out
        // in position (= id) order, then add the pool matches.
        let mut live = inner.candidate_count() + pool_matches.len();
        let mut mass = inner.total_weight();
        for &pos in &self.tombstoned {
            let (iv, w) = self.records[pos as usize];
            if iv.overlaps(&q) {
                live -= 1;
                mass -= w;
            }
        }
        mass = pool_matches.iter().fold(mass, |m, &(_, w)| m + w);
        DynamicAwitPrepared {
            parent: self,
            inner,
            pool_matches,
            live,
            mass: mass.max(0.0),
        }
    }
}

impl<E: Endpoint> MemoryFootprint for DynamicAwit<E> {
    fn heap_bytes(&self) -> usize {
        self.awit.heap_bytes()
            + vec_bytes(&self.slot_ids)
            + vec_bytes(&self.records)
            + vec_bytes(&self.pool)
            + vec_bytes(&self.tombstoned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::encoded;
    use irs_sampling::stats::chi_square_ok;
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
    fn insert_then_query() {
        let mut idx = DynamicAwit::<i64>::new(&[], &[]);
        let a = idx.insert(iv(0, 10), 1.0);
        let b = idx.insert(iv(5, 15), 2.0);
        assert_eq!(idx.len(), 2);
        assert_eq!(sorted(idx.range_search(iv(7, 8))), vec![a, b]);
        assert_eq!(idx.range_count(iv(12, 20)), 1);
        assert!((idx.range_weight(iv(7, 8)) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn delete_resident_and_pooled() {
        let data: Vec<_> = (0..50).map(|i| iv(i, i + 5)).collect();
        let weights = vec![1.0; 50];
        let mut idx = DynamicAwit::new(&data, &weights);
        // Resident delete → tombstone.
        assert!(idx.delete(iv(0, 5), 0));
        assert!(!idx.delete(iv(0, 5), 0), "double delete must fail");
        assert_eq!(idx.tombstone_len(), 1);
        // Pool delete → removed outright.
        let p = idx.insert(iv(100, 105), 3.0);
        assert!(idx.delete(iv(100, 105), p));
        assert_eq!(idx.pool_len(), 0);
        assert_eq!(idx.len(), 49);
        assert!(!idx.range_search(iv(0, 3)).contains(&0));
    }

    #[test]
    fn get_and_delete_by_id_cover_pool_resident_and_tombstones() {
        let data: Vec<_> = (0..20).map(|i| iv(i, i + 4)).collect();
        let mut idx = DynamicAwit::new(&data, &[2.0; 20]);
        // Resident lookup.
        assert_eq!(idx.get(3), Some((iv(3, 7), 2.0)));
        // Pool lookup.
        let p = idx.insert(iv(100, 104), 5.0);
        assert_eq!(idx.get(p), Some((iv(100, 104), 5.0)));
        // Unknown id.
        assert_eq!(idx.get(999), None);
        // Delete by id (resident → tombstone) hides the id.
        assert!(idx.delete_by_id(3));
        assert_eq!(idx.get(3), None);
        assert!(!idx.delete_by_id(3), "double delete must fail");
        // Delete by id from the pool.
        assert!(idx.delete_by_id(p));
        assert_eq!(idx.get(p), None);
        assert_eq!(idx.len(), 19);
    }

    #[test]
    fn rebuild_triggers_and_preserves_answers() {
        let data: Vec<_> = (0..200).map(|i| iv(i, i + 20)).collect();
        let weights: Vec<f64> = (0..200).map(|i| 1.0 + (i % 9) as f64).collect();
        let mut idx = DynamicAwit::new(&data, &weights);
        let cap = idx.update_capacity;
        for i in 0..cap {
            idx.insert(iv(i as i64, i as i64 + 10), 2.0);
        }
        assert_eq!(
            idx.pool_len(),
            0,
            "pool must have been folded in by a rebuild"
        );
        // Shadow check against brute force.
        let mut shadow: Vec<(Interval<i64>, ItemId, f64)> = data
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, i as ItemId, weights[i]))
            .collect();
        for i in 0..cap {
            shadow.push((iv(i as i64, i as i64 + 10), (200 + i) as ItemId, 2.0));
        }
        for q in [iv(0, 250), iv(40, 60), iv(199, 240)] {
            let expect: Vec<ItemId> = sorted(
                shadow
                    .iter()
                    .filter(|(x, _, _)| x.overlaps(&q))
                    .map(|&(_, id, _)| id)
                    .collect(),
            );
            assert_eq!(sorted(idx.range_search(q)), expect, "query {q:?}");
            let expect_w: f64 = shadow
                .iter()
                .filter(|(x, _, _)| x.overlaps(&q))
                .map(|&(_, _, w)| w)
                .sum();
            assert!((idx.range_weight(q) - expect_w).abs() < 1e-6 * expect_w.max(1.0));
        }
    }

    #[test]
    fn sampling_is_weight_proportional_with_tombstones_and_pool() {
        let data: Vec<_> = (0..60).map(|i| iv(i, i + 30)).collect();
        let weights: Vec<f64> = (0..60).map(|i| 1.0 + (i % 6) as f64).collect();
        let mut idx = DynamicAwit::new(&data, &weights);
        // Tombstone a third of the result set, pool a few new entries.
        for id in (0..30u32).step_by(3) {
            assert!(idx.delete(data[id as usize], id));
        }
        let mut live: Vec<(ItemId, f64)> = (0..60u32)
            .filter(|id| id % 3 != 0 || *id >= 30)
            .map(|id| (id, weights[id as usize]))
            .collect();
        for k in 0..5 {
            let w = 4.0 + k as f64;
            let id = idx.insert(iv(10 + k, 45 + k), w);
            live.push((id, w));
        }

        let q = iv(25, 35);
        let support: Vec<(ItemId, f64)> = live
            .iter()
            .copied()
            .filter(|&(id, _)| {
                let x = if id < 60 {
                    data[id as usize]
                } else {
                    iv(10 + (id as i64 - 60), 45 + (id as i64 - 60))
                };
                x.overlaps(&q)
            })
            .collect();
        let total: f64 = support.iter().map(|&(_, w)| w).sum();
        let ids: Vec<ItemId> = support.iter().map(|&(id, _)| id).collect();
        let expected: Vec<f64> = support.iter().map(|&(_, w)| w / total).collect();

        let mut rng = StdRng::seed_from_u64(7);
        let draws = 200_000usize;
        let mut counts = vec![0u64; ids.len()];
        for id in idx.sample_weighted(q, draws, &mut rng) {
            let pos = ids
                .iter()
                .position(|&x| x == id)
                .unwrap_or_else(|| panic!("sample {id} outside live q ∩ X"));
            counts[pos] += 1;
        }
        assert!(
            chi_square_ok(&counts, &expected, draws as u64),
            "dynamic weighted sampling deviates from w/Σw"
        );
    }

    /// The draw-at-a-time form of `sample_into`: one attempt, one RNG
    /// pass, one lookup at a time. The batched form must match it id for
    /// id, including where the budget runs out and the enumeration
    /// fallback takes over.
    fn one_at_a_time(p: &DynamicAwitPrepared<'_, i64>, rng: &mut StdRng, s: usize) -> Vec<ItemId> {
        let n_rec = p.inner.records.len();
        let mut weights = p.inner.record_weights.clone();
        weights.extend(p.pool_matches.iter().map(|&(_, w)| w));
        let alias = AliasTable::new(&weights);
        let (mut out, mut budget) = (Vec::new(), 256 + 64 * s);
        while out.len() < s {
            if budget == 0 {
                let (ids, ws) = p.enumerate_live();
                let exact = AliasTable::new(&ws);
                out.extend((out.len()..s).map(|_| ids[exact.sample(rng)]));
                break;
            }
            budget -= 1;
            let k = alias.sample(rng);
            if k >= n_rec {
                out.push(p.pool_matches[k - n_rec].0);
            } else {
                let u = p.inner.record_mass(k, rng);
                let pos = *p.inner.record_id(k, u);
                if !p.parent.is_tombstoned(pos) {
                    out.push(p.parent.slot_ids[pos as usize]);
                }
            }
        }
        out
    }

    #[test]
    fn batched_draws_match_one_at_a_time() {
        let data: Vec<_> = (0..200).map(|i| iv(i, i + 300)).collect();
        // Heavy tombstoned mass: live draws are rare enough that larger
        // samples exhaust the attempt budget and fall back mid-sample.
        let weights: Vec<f64> = (0..200)
            .map(|i| if i < 50 { 1000.0 } else { 1.0 })
            .collect();
        let mut idx = DynamicAwit::new(&data, &weights);
        for id in 0..50u32 {
            assert!(idx.delete(data[id as usize], id));
        }
        for k in 0..4 {
            idx.insert(iv(140 + k, 160 + k), 2.0);
        }
        assert_eq!(idx.tombstone_len(), 50, "no rebuild folded the tombstones");
        let p = idx.prepare_weighted(iv(150, 250));
        for s in [1, 63, 64, 65, 300] {
            for seed in 0..4 {
                let mut batched = Vec::new();
                p.sample_into(&mut StdRng::seed_from_u64(seed), s, &mut batched);
                assert_eq!(
                    batched,
                    one_at_a_time(&p, &mut StdRng::seed_from_u64(seed), s)
                );
            }
        }
    }

    #[test]
    fn rebuild_appends_an_unordered_pool_in_id_order() {
        let mut idx = DynamicAwit::new(&[iv(0, 3), iv(1, 4), iv(2, 5)], &[1.0; 3]);
        let pooled: Vec<ItemId> = (0..6).map(|k| idx.insert(iv(k, k + 9), 2.0)).collect();
        // A pool delete swap-removes, so the pool is no longer in id order.
        assert!(idx.delete_by_id(pooled[1]) && idx.delete_by_id(1));
        idx.rebuild();
        assert_eq!(idx.slot_ids, [0, 2, 3, 5, 6, 7, 8]);
        assert_eq!(idx.get(pooled[3]), Some((iv(3, 12), 2.0)));
    }

    /// Seeded churn over tie-heavy keys with non-uniform weights, then a
    /// rebuild: the slot table and records hold the live set in id order
    /// at exact capacity, and the inner tree is byte for byte the one
    /// `Awit::new` builds over those records. Cases: pool only,
    /// tombstones only, both, and everything deleted (which crosses
    /// automatic rebuilds on the way).
    #[test]
    fn rebuild_matches_a_fresh_build_over_the_live_records() {
        for (case, (inserts, deletes)) in [(40, 0), (0, 60), (40, 60), (0, 300)]
            .into_iter()
            .enumerate()
        {
            let mut rng = StdRng::seed_from_u64(case as u64);
            let draw = |rng: &mut StdRng| {
                let lo = rng.random_range(0..8i64);
                let w = rng.random_range(1..100u32) as f64 / 7.0;
                (iv(lo, lo + rng.random_range(0..4i64)), w)
            };
            let (data, weights): (Vec<_>, Vec<_>) = (0..300).map(|_| draw(&mut rng)).unzip();
            let mut idx = DynamicAwit::new(&data, &weights);
            let mut live: Vec<(ItemId, (Interval<i64>, f64))> =
                (0..).zip(data.iter().copied().zip(weights)).collect();
            for _ in 0..inserts {
                let (x, w) = draw(&mut rng);
                live.push((idx.insert(x, w), (x, w)));
            }
            for _ in 0..deletes {
                let (id, _) = live.swap_remove(rng.random_range(0..live.len()));
                assert!(idx.delete_by_id(id));
            }
            assert_eq!(idx.pool_len() > 0, inserts > 0, "case {case}");
            assert_eq!(idx.tombstone_len() > 0, deletes > 0, "case {case}");
            idx.rebuild();
            live.sort_unstable_by_key(|&(id, _)| id);
            let (ids, recs): (Vec<ItemId>, Vec<_>) = live.into_iter().unzip();
            assert_eq!((&idx.slot_ids, &idx.records), (&ids, &recs), "case {case}");
            assert_eq!(idx.slot_ids.capacity(), ids.len());
            assert_eq!(idx.records.capacity(), ids.len());
            let (data, weights): (Vec<_>, Vec<_>) = recs.into_iter().unzip();
            assert!(
                encoded(&idx.awit) == encoded(&Awit::new(&data, &weights)),
                "case {case}: rebuilt tree differs from a fresh build"
            );
        }
    }

    #[test]
    fn all_tombstoned_query_yields_nothing() {
        let data: Vec<_> = (0..20).map(|i| iv(i, i + 1)).collect();
        let weights = vec![1.0; 20];
        let mut idx = DynamicAwit::new(&data, &weights);
        // Delete everything overlapping [0, 10] (intervals 0..=10).
        for id in 0..=10u32 {
            assert!(idx.delete(data[id as usize], id));
        }
        let mut rng = StdRng::seed_from_u64(1);
        let samples = idx.sample_weighted(iv(0, 9), 50, &mut rng);
        assert!(
            samples.is_empty(),
            "tombstoned mass must not be sampled: {samples:?}"
        );
        assert_eq!(idx.range_count(iv(0, 9)), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_update_stream_matches_shadow(
            base in prop::collection::vec((0i64..300, 0i64..60, 1u32..50), 1..60),
            ops in prop::collection::vec((0i64..350, 0i64..80, 1u32..50, 0u8..4), 1..80),
        ) {
            let data: Vec<_> = base.iter().map(|&(lo, len, _)| iv(lo, lo + len)).collect();
            let weights: Vec<f64> = base.iter().map(|&(_, _, w)| w as f64).collect();
            let mut idx = DynamicAwit::new(&data, &weights);
            let mut shadow: Vec<(Interval<i64>, ItemId, f64)> = data
                .iter()
                .enumerate()
                .map(|(i, &x)| (x, i as ItemId, weights[i]))
                .collect();
            let mut rng = StdRng::seed_from_u64(99);
            for &(lo, len, w, op) in &ops {
                match op {
                    0 | 1 => {
                        let x = iv(lo, lo + len);
                        let id = idx.insert(x, w as f64);
                        shadow.push((x, id, w as f64));
                    }
                    2 if !shadow.is_empty() => {
                        let k = rng.random_range(0..shadow.len());
                        let (x, id, _) = shadow.swap_remove(k);
                        prop_assert!(idx.delete(x, id));
                    }
                    _ => {
                        let q = iv(lo, lo + len);
                        let expect: Vec<ItemId> = {
                            let mut v: Vec<_> = shadow
                                .iter()
                                .filter(|(x, _, _)| x.overlaps(&q))
                                .map(|&(_, id, _)| id)
                                .collect();
                            v.sort_unstable();
                            v
                        };
                        prop_assert_eq!(sorted(idx.range_search(q)), expect.clone());
                        prop_assert_eq!(idx.range_count(q), expect.len());
                        let expect_w: f64 = shadow
                            .iter()
                            .filter(|(x, _, _)| x.overlaps(&q))
                            .map(|&(_, _, w)| w)
                            .sum();
                        prop_assert!((idx.range_weight(q) - expect_w).abs()
                            < 1e-6 * expect_w.max(1.0));
                        // Samples must come from the live result set.
                        let samples = idx.sample_weighted(q, 16, &mut rng);
                        if expect.is_empty() {
                            prop_assert!(samples.is_empty());
                        } else {
                            for id in samples {
                                prop_assert!(expect.binary_search(&id).is_ok());
                            }
                        }
                    }
                }
            }
            prop_assert_eq!(idx.len(), shadow.len());
        }
    }
}
