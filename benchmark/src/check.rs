//! The correctness gate. Every run verifies the program's answers
//! against the harness's own record of the data — after the timed
//! loops, on recorded results — and a run whose answers are wrong does
//! not count, whatever its speed.

use crate::workload::LiveMap;
use irs::sampling::stats::{chi_square_critical, chi_square_ok, chi_square_statistic};
use irs::{
    BruteForce, Interval64, ItemId, Query, QueryOutput, RangeCount, RangeSearch, StabbingQuery,
};
use std::collections::HashMap;
use std::time::Instant;

/// Draws of the fixed narrow query whose distribution is tested.
pub const DISTRIBUTION_DRAWS: usize = 200_000;
/// Candidate-count window the narrow query is tuned into: enough cells
/// for the test to have power, few enough that each expects many draws.
pub const DISTRIBUTION_CANDIDATES: std::ops::RangeInclusive<usize> = 30..=300;

/// Tally of operations issued to the program and of those it got
/// wrong (refused, errored, wrong or unverifiable all count as failed).
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the result file.
    pub notes: Vec<String>,
}

impl Gate {
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 16 {
            self.notes.push(note);
        }
    }

    /// Counts one attempted operation and its failure, if any.
    pub fn judge(&mut self, verdict: Result<(), String>) {
        self.attempt(1);
        if let Err(note) = verdict {
            self.fail(note);
        }
    }
}

/// The linear-scan oracle over whatever is live right now. Its own ids
/// are positions, so it carries the map back to the program's ids.
pub struct Oracle {
    ids: Vec<ItemId>,
    weights: Vec<f64>,
    brute: BruteForce<i64>,
}

impl Oracle {
    pub fn new(live: &LiveMap) -> Oracle {
        let entries = live.live();
        let data: Vec<Interval64> = entries.iter().map(|e| e.1).collect();
        Oracle {
            ids: entries.iter().map(|e| e.0).collect(),
            weights: entries.iter().map(|e| e.2).collect(),
            brute: BruteForce::new(&data),
        }
    }

    pub fn count(&self, q: Interval64) -> usize {
        self.brute.range_count(q)
    }

    /// `(id, weight)` of everything overlapping `q`, ascending by id.
    pub fn candidates(&self, q: Interval64) -> Vec<(ItemId, f64)> {
        self.brute
            .range_search(q)
            .into_iter()
            .map(|pos| (self.ids[pos as usize], self.weights[pos as usize]))
            .collect()
    }

    fn sorted_ids(&self, positions: Vec<ItemId>) -> Vec<ItemId> {
        let mut ids: Vec<ItemId> = positions.iter().map(|&p| self.ids[p as usize]).collect();
        ids.sort_unstable();
        ids
    }

    /// Whether `output` is the exact answer to a count, search or stab
    /// query — or, for a sampling query that came back empty, whether
    /// the result set really is empty.
    pub fn check(&self, query: &Query<i64>, output: &QueryOutput) -> Result<(), String> {
        let expect_ids = |want: Vec<ItemId>, got: &[ItemId]| {
            let mut got = got.to_vec();
            got.sort_unstable();
            if got == want {
                Ok(())
            } else {
                Err(format!(
                    "{query:?}: {} ids returned, oracle has {}",
                    got.len(),
                    want.len()
                ))
            }
        };
        match (query, output) {
            (Query::Count { q }, QueryOutput::Count(n)) => {
                let want = self.count(*q);
                if *n == want {
                    Ok(())
                } else {
                    Err(format!("{query:?}: counted {n}, oracle counts {want}"))
                }
            }
            (Query::Search { q }, QueryOutput::Ids(ids)) => {
                expect_ids(self.sorted_ids(self.brute.range_search(*q)), ids)
            }
            (Query::Stab { p }, QueryOutput::Ids(ids)) => {
                expect_ids(self.sorted_ids(self.brute.stab(*p)), ids)
            }
            (
                Query::Sample { q, .. } | Query::SampleWeighted { q, .. },
                QueryOutput::Samples(ids),
            ) => {
                if ids.is_empty() && self.count(*q) > 0 {
                    Err(format!("{query:?}: no samples from a non-empty result set"))
                } else {
                    Ok(())
                }
            }
            _ => Err(format!("{query:?}: answered with the wrong output variant")),
        }
    }
}

/// Checks one sampling answer against the live map: `s` ids (or none),
/// each of them live during `[start, end]` and overlapping the query.
pub fn check_samples(
    live: &LiveMap,
    q: Interval64,
    s: usize,
    ids: &[ItemId],
    start: Instant,
    end: Instant,
) -> Result<(), String> {
    if !ids.is_empty() && ids.len() != s {
        return Err(format!("{} samples returned for s = {s}", ids.len()));
    }
    for &id in ids {
        match live.visible(id, start, end) {
            None => return Err(format!("sampled id {id} is not live")),
            Some(iv) if !iv.overlaps(&q) => {
                return Err(format!("sampled id {id} = {iv:?} does not overlap {q:?}"))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// Checks every result of one recorded call. Sampling answers are
/// checked id by id against the live map; count, search and stab
/// answers (and empty sampling answers) against `oracle` when the call
/// is in the oracle subset.
pub fn check_call(
    live: &LiveMap,
    oracle: Option<&Oracle>,
    queries: &[Query<i64>],
    results: &[Result<QueryOutput, String>],
    start: Instant,
    end: Instant,
) -> Result<(), String> {
    if results.len() != queries.len() {
        return Err(format!(
            "{} results for {} queries",
            results.len(),
            queries.len()
        ));
    }
    for (query, result) in queries.iter().zip(results) {
        let output = result
            .as_ref()
            .map_err(|e| format!("{query:?} refused: {e}"))?;
        if let (
            Query::Sample { q, s } | Query::SampleWeighted { q, s },
            QueryOutput::Samples(ids),
        ) = (query, output)
        {
            check_samples(live, *q, *s, ids, start, end)?;
        }
        if let Some(oracle) = oracle {
            oracle.check(query, output)?;
        }
    }
    Ok(())
}

/// Chi-square goodness of fit of `draws` against the weight-proportional
/// distribution over `candidates` (uniform when all weights are equal).
/// Deterministic for a fixed seed, at a significance of ~3e-7.
pub fn check_distribution(candidates: &[(ItemId, f64)], draws: &[ItemId]) -> Result<(), String> {
    let cell: HashMap<ItemId, usize> = candidates
        .iter()
        .enumerate()
        .map(|(i, &(id, _))| (id, i))
        .collect();
    let total: f64 = candidates.iter().map(|c| c.1).sum();
    let probs: Vec<f64> = candidates.iter().map(|c| c.1 / total).collect();
    let mut counts = vec![0u64; candidates.len()];
    for id in draws {
        match cell.get(id) {
            Some(&i) => counts[i] += 1,
            None => return Err(format!("drew id {id} from outside the result set")),
        }
    }
    let n = draws.len() as u64;
    if chi_square_ok(&counts, &probs, n) {
        Ok(())
    } else {
        Err(format!(
            "sampler is biased: chi-square {:.1} over {} cells, critical value {:.1}",
            chi_square_statistic(&counts, &probs, n),
            counts.len(),
            chi_square_critical(counts.len().saturating_sub(1).max(1), 5.0)
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{dataset, Dataset};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fixture() -> (Dataset, LiveMap, Oracle, Interval64) {
        let ds = dataset(3000, true, 11);
        let live = LiveMap::new(&ds);
        let oracle = Oracle::new(&live);
        // A query around one data interval, so it is never empty.
        let q = Interval64::new(ds.data[17].lo - 50_000, ds.data[17].hi + 50_000);
        (ds, live, oracle, q)
    }

    #[test]
    fn right_answers_pass() {
        let (_, live, oracle, q) = fixture();
        let now = Instant::now();
        let candidates = oracle.candidates(q);
        assert!(candidates.len() > 1);
        let ids: Vec<ItemId> = candidates.iter().map(|c| c.0).collect();
        let queries = [
            Query::Sample { q, s: ids.len() },
            Query::Count { q },
            Query::Search { q },
        ];
        let results = [
            Ok(QueryOutput::Samples(ids.clone())),
            Ok(QueryOutput::Count(ids.len())),
            Ok(QueryOutput::Ids(ids.iter().rev().copied().collect())),
        ];
        check_call(&live, Some(&oracle), &queries, &results, now, now).unwrap();
    }

    #[test]
    fn planted_wrong_id_is_caught() {
        let (ds, live, oracle, q) = fixture();
        let now = Instant::now();
        let outsider = (0..ds.data.len() as ItemId)
            .find(|&id| !ds.data[id as usize].overlaps(&q))
            .unwrap();
        let err = check_samples(&live, q, 1, &[outsider], now, now).unwrap_err();
        assert!(err.contains("does not overlap"), "{err}");
        let err = check_samples(&live, q, 1, &[999_999], now, now).unwrap_err();
        assert!(err.contains("not live"), "{err}");
        let inside = oracle.candidates(q)[0].0;
        let err = check_samples(&live, q, 5, &[inside; 3], now, now).unwrap_err();
        assert!(err.contains("3 samples returned for s = 5"), "{err}");
    }

    #[test]
    fn planted_wrong_count_and_missing_id_are_caught() {
        let (_, live, oracle, q) = fixture();
        let now = Instant::now();
        let n = oracle.count(q);
        let wrong = [Ok(QueryOutput::Count(n + 1))];
        let err = check_call(
            &live,
            Some(&oracle),
            &[Query::Count { q }],
            &wrong,
            now,
            now,
        );
        assert!(err.unwrap_err().contains("oracle counts"));
        let mut ids: Vec<ItemId> = oracle.candidates(q).iter().map(|c| c.0).collect();
        ids.pop();
        let short = [Ok(QueryOutput::Ids(ids))];
        assert!(check_call(
            &live,
            Some(&oracle),
            &[Query::Search { q }],
            &short,
            now,
            now
        )
        .is_err());
        let refused = [Err("unsupported".to_string())];
        assert!(check_call(&live, None, &[Query::Count { q }], &refused, now, now).is_err());
        let empty = [Ok(QueryOutput::Samples(Vec::new()))];
        let sample = [Query::Sample { q, s: 4 }];
        assert!(check_call(&live, Some(&oracle), &sample, &empty, now, now).is_err());
    }

    #[test]
    fn planted_biased_sampler_is_caught_and_a_fair_one_passes() {
        let (_, _, oracle, q) = fixture();
        let candidates = oracle.candidates(q);
        let total: f64 = candidates.iter().map(|c| c.1).sum();
        let mut rng = StdRng::seed_from_u64(5);
        // Fair: weight-proportional by inversion.
        let fair: Vec<ItemId> = (0..DISTRIBUTION_DRAWS)
            .map(|_| {
                let mut u = rng.random_range(0.0..total);
                candidates
                    .iter()
                    .find(|c| {
                        u -= c.1;
                        u < 0.0
                    })
                    .unwrap_or(&candidates[candidates.len() - 1])
                    .0
            })
            .collect();
        check_distribution(&candidates, &fair).unwrap();
        // Biased: ignores the weights.
        let uniform: Vec<ItemId> = (0..DISTRIBUTION_DRAWS)
            .map(|_| candidates[rng.random_range(0..candidates.len())].0)
            .collect();
        let err = check_distribution(&candidates, &uniform).unwrap_err();
        assert!(err.contains("biased"), "{err}");
        let err = check_distribution(&candidates, &[4_000_000]).unwrap_err();
        assert!(err.contains("outside the result set"), "{err}");
    }

    #[test]
    fn gate_counts_failures_against_attempts() {
        let mut gate = Gate::default();
        gate.attempt(10);
        gate.judge(Ok(()));
        gate.judge(Err("wrong".to_string()));
        assert_eq!((gate.attempted, gate.failed), (12, 1));
        assert_eq!(gate.notes, ["wrong"]);
    }
}
