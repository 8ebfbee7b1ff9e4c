//! Seeded inputs of a workload: dataset, query calls, mutation stream,
//! and the harness's own record of what should be live (the correctness
//! gate's reference). The program under test only ever sees these.

use crate::spec::{CallShape, WorkloadSpec};
use irs::datagen::{uniform_weights, QueryWorkload, TAXI};
use irs::{Interval64, ItemId, Mutation, Query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;

/// Distinct calls generated per workload; the query phase cycles
/// through them. Few enough that every caller walks the whole pool within
/// one block of the query phase (the slowest, `lib-sharded-mixed`, makes
/// ~1 300 calls per caller and block), so every block sees the same inputs.
pub const CALL_POOL: usize = 1024;

/// Salts that keep the seeded streams of one run apart.
const SALT_WEIGHTS: u64 = 1;
const SALT_QUERIES: u64 = 0x51_0E17;
const SALT_INSERTS: u64 = 0x1A_5E27;
const SALT_DELETES: u64 = 0xDE_1E7E;

/// The SplitMix64 finalizer: derives per-call seeds and picks the seeded
/// subsets the gate keeps.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sizes of one run, after `--smoke` scaling.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub n: usize,
    pub timed_setups: usize,
    pub mutations: usize,
}

impl Scale {
    pub fn of(spec: &WorkloadSpec, smoke: bool) -> Scale {
        if smoke {
            Scale {
                n: 20_000 * spec.shards,
                timed_setups: 3,
                mutations: spec.mutations / 10,
            }
        } else {
            Scale {
                n: spec.n(),
                timed_setups: spec.timed_setups,
                mutations: spec.mutations,
            }
        }
    }
}

pub struct Dataset {
    pub data: Vec<Interval64>,
    /// `Some` on weighted workloads.
    pub weights: Option<Vec<f64>>,
}

pub fn dataset(n: usize, weighted: bool, seed: u64) -> Dataset {
    Dataset {
        data: TAXI.generate(n, seed),
        weights: weighted.then(|| uniform_weights(n, seed ^ SALT_WEIGHTS)),
    }
}

/// Writes the dataset as the `lo,hi,weight` lines `irs-cli serve --data`
/// loads (weight 1 on unweighted workloads).
pub fn write_csv(path: &std::path::Path, ds: &Dataset) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, iv) in ds.data.iter().enumerate() {
        let weight = ds.weights.as_ref().map_or(1.0, |w| w[i]);
        writeln!(w, "{},{},{}", iv.lo, iv.hi, weight)?;
    }
    w.flush()
}

fn sampling_query(q: Interval64, s: usize, weighted: bool) -> Query<i64> {
    if weighted {
        Query::SampleWeighted { q, s }
    } else {
        Query::Sample { q, s }
    }
}

/// The call pool of a workload: [`CALL_POOL`] seeded calls of its shape
/// over the domain of `data`.
pub fn calls(
    shape: CallShape,
    weighted: bool,
    data: &[Interval64],
    seed: u64,
) -> Vec<Vec<Query<i64>>> {
    let gen = QueryWorkload::from_data(data);
    let seed = seed ^ SALT_QUERIES;
    match shape {
        CallShape::One { s, extent_pct } => gen
            .generate(CALL_POOL, extent_pct, seed)
            .into_iter()
            .map(|q| vec![sampling_query(q, s, weighted)])
            .collect(),
        CallShape::Batch16 => {
            let wide = gen.generate(CALL_POOL * 4, 8.0, seed);
            let mid = gen.generate(CALL_POOL * 6, 1.0, seed ^ 1);
            let narrow = gen.generate(CALL_POOL * 4, 0.01, seed ^ 2);
            let points = gen.generate(CALL_POOL * 2, 0.0, seed ^ 3);
            (0..CALL_POOL)
                .map(|i| {
                    let mut batch = Vec::with_capacity(16);
                    batch.extend(
                        wide[i * 4..][..4]
                            .iter()
                            .map(|&q| Query::Sample { q, s: 100 }),
                    );
                    batch.extend(
                        mid[i * 6..][..4]
                            .iter()
                            .map(|&q| Query::Sample { q, s: 100 }),
                    );
                    batch.extend(
                        narrow[i * 4..][..2]
                            .iter()
                            .map(|&q| Query::Sample { q, s: 100 }),
                    );
                    batch.extend(mid[i * 6 + 4..][..2].iter().map(|&q| Query::Count { q }));
                    batch.extend(
                        narrow[i * 4 + 2..][..2]
                            .iter()
                            .map(|&q| Query::Search { q }),
                    );
                    batch.extend(points[i * 2..][..2].iter().map(|q| Query::Stab { p: q.lo }));
                    batch
                })
                .collect()
        }
    }
}

/// One step of the mutation stream, before the insert's id is known.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Step {
    Insert { iv: Interval64, weight: Option<f64> },
    Delete { id: ItemId },
}

impl Step {
    pub fn mutation(self) -> Mutation<i64> {
        match self {
            Step::Insert {
                iv,
                weight: Some(weight),
            } => Mutation::InsertWeighted { iv, weight },
            Step::Insert { iv, weight: None } => Mutation::Insert { iv },
            Step::Delete { id } => Mutation::Delete { id },
        }
    }
}

/// `count` steps alternating an insert of a fresh seeded Taxi interval
/// with a delete of a seeded, not yet deleted build-time id — `n` stays
/// constant while inserts accumulate and deletes hit resident data.
pub fn mutation_stream(count: usize, n: usize, weighted: bool, seed: u64) -> Vec<Step> {
    let inserts = TAXI.generate(count.div_ceil(2), seed ^ SALT_INSERTS);
    let weights = uniform_weights(inserts.len(), seed ^ SALT_INSERTS ^ SALT_WEIGHTS);
    let mut rng = StdRng::seed_from_u64(seed ^ SALT_DELETES);
    let mut deleted = std::collections::HashSet::new();
    (0..count)
        .map(|i| {
            if i % 2 == 0 {
                Step::Insert {
                    iv: inserts[i / 2],
                    weight: weighted.then(|| weights[i / 2]),
                }
            } else {
                loop {
                    let id = rng.random_range(0..n) as ItemId;
                    if deleted.insert(id) {
                        break Step::Delete { id };
                    }
                }
            }
        })
        .collect()
}

/// What the harness knows to be live: build data plus acked inserts
/// minus acked deletes, each with the instant it happened so answers
/// taken beside writes can be judged against the right state.
pub struct LiveMap {
    build: Vec<Interval64>,
    build_weights: Option<Vec<f64>>,
    /// id → (interval, weight, when the insert was sent).
    inserted: HashMap<ItemId, (Interval64, f64, Instant)>,
    /// id → when the delete was acked.
    deleted: HashMap<ItemId, Instant>,
}

impl LiveMap {
    pub fn new(ds: &Dataset) -> LiveMap {
        LiveMap {
            build: ds.data.clone(),
            build_weights: ds.weights.clone(),
            inserted: HashMap::new(),
            deleted: HashMap::new(),
        }
    }

    pub fn record_insert(&mut self, id: ItemId, iv: Interval64, weight: f64, sent: Instant) {
        self.inserted.insert(id, (iv, weight, sent));
    }

    pub fn record_delete(&mut self, id: ItemId, acked: Instant) {
        self.deleted.insert(id, acked);
    }

    fn entry(&self, id: ItemId) -> Option<(Interval64, f64, Option<Instant>)> {
        if let Some(&(iv, w, sent)) = self.inserted.get(&id) {
            return Some((iv, w, Some(sent)));
        }
        let iv = *self.build.get(id as usize)?;
        let w = self.build_weights.as_ref().map_or(1.0, |w| w[id as usize]);
        Some((iv, w, None))
    }

    /// The interval behind `id` if an answer to a request that ran over
    /// `[start, end]` may legitimately contain it: it must exist, must
    /// not have been inserted after the request ended, and its delete
    /// must not have been acked before the request started.
    pub fn visible(&self, id: ItemId, start: Instant, end: Instant) -> Option<Interval64> {
        let (iv, _, sent) = self.entry(id)?;
        if sent.is_some_and(|sent| sent > end) {
            return None;
        }
        if self.deleted.get(&id).is_some_and(|&acked| acked < start) {
            return None;
        }
        Some(iv)
    }

    /// Every currently live `(id, interval, weight)`, ascending by id —
    /// the oracle's dataset for checks made while nothing mutates.
    pub fn live(&self) -> Vec<(ItemId, Interval64, f64)> {
        let mut ids: Vec<ItemId> = (0..self.build.len() as ItemId)
            .chain(self.inserted.keys().copied())
            .filter(|id| !self.deleted.contains_key(id))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .filter_map(|id| self.entry(id).map(|(iv, w, _)| (id, iv, w)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;
    use std::time::Duration;

    #[test]
    fn same_seed_same_inputs() {
        let a = dataset(2000, true, 7);
        let b = dataset(2000, true, 7);
        assert_eq!(a.data, b.data);
        assert_eq!(a.weights, b.weights);
        assert_ne!(a.data, dataset(2000, true, 8).data);
        for w in &WORKLOADS {
            let x = calls(w.call, w.weighted, &a.data, 7);
            assert_eq!(x, calls(w.call, w.weighted, &a.data, 7));
            assert_eq!(x.len(), CALL_POOL);
            assert!(x.iter().all(|c| c.len() == w.call.queries_per_call()));
        }
        assert_eq!(
            mutation_stream(100, 2000, true, 7),
            mutation_stream(100, 2000, true, 7)
        );
    }

    #[test]
    fn stream_alternates_and_never_deletes_twice() {
        let steps = mutation_stream(1000, 600, false, 3);
        let mut seen = std::collections::HashSet::new();
        for (i, step) in steps.iter().enumerate() {
            match *step {
                Step::Insert { weight, .. } => assert!(i % 2 == 0 && weight.is_none()),
                Step::Delete { id } => assert!(i % 2 == 1 && id < 600 && seen.insert(id)),
            }
        }
    }

    #[test]
    fn live_map_judges_answers_against_time() {
        let ds = dataset(10, false, 1);
        let mut live = LiveMap::new(&ds);
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        live.record_insert(10, Interval64::new(5, 6), 1.0, at(100));
        live.record_delete(3, at(200));
        assert!(live.visible(3, at(150), at(160)).is_some());
        assert!(
            live.visible(3, at(190), at(210)).is_some(),
            "delete raced the read"
        );
        assert!(
            live.visible(3, at(250), at(260)).is_none(),
            "deleted before the read"
        );
        assert!(
            live.visible(10, at(50), at(60)).is_none(),
            "not inserted yet"
        );
        assert!(live.visible(10, at(90), at(110)).is_some());
        assert!(live.visible(11, at(0), at(999)).is_none(), "never existed");
        let ids: Vec<ItemId> = live.live().iter().map(|e| e.0).collect();
        assert_eq!(ids, [0, 1, 2, 4, 5, 6, 7, 8, 9, 10]);
    }
}
