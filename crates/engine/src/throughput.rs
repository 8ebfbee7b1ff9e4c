//! Throughput-measurement helpers for `irs-cli bench-engine` (and the
//! root crate's `bench_regression` test, which drives the same loop).

use crate::engine::Engine;
use crate::query::Query;
use irs_core::{GridEndpoint, Interval};
use std::time::Instant;

/// Multi-caller throughput: splits `queries` across `threads` caller
/// threads, each running its slice through a clone of the shared
/// engine in batches of `batch`, and returns aggregate queries per
/// second (wall clock of the slowest caller). With the concurrent read
/// path this should scale with `threads` up to the core count — the
/// curve `bench-engine --threads` plots.
///
/// `threads` is clamped to `[1, queries.len()]` (a caller with no
/// queries would measure nothing); callers that *label* results by
/// thread count should clamp the same way so labels match reality.
/// An empty `queries` reports `0.0`.
pub fn threaded_qps<E: GridEndpoint>(
    engine: &Engine<E>,
    queries: &[Interval<E>],
    threads: usize,
    batch: usize,
    to_query: impl Fn(&Interval<E>) -> Query<E> + Copy + Send,
) -> f64 {
    if queries.is_empty() {
        return 0.0;
    }
    let threads = threads.max(1).min(queries.len());
    let start = Instant::now();
    std::thread::scope(|scope| {
        // Fair split into *exactly* `threads` non-empty slices (the
        // clamp above guarantees len ≥ threads), so the reported
        // concurrency level is the one that actually ran.
        for t in 0..threads {
            let lo = t * queries.len() / threads;
            let hi = (t + 1) * queries.len() / threads;
            let slice = &queries[lo..hi];
            let handle = engine.clone();
            scope.spawn(move || {
                // Query construction is measured, as a caller pays it per
                // batch; an `Err` fails loudly rather than inflate the rate.
                for chunk in slice.chunks(batch.max(1)) {
                    let batch_queries: Vec<Query<E>> = chunk.iter().map(to_query).collect();
                    for result in handle.run(&batch_queries) {
                        result.expect("benchmark query failed");
                    }
                }
            });
        }
    });
    queries.len() as f64 / start.elapsed().as_secs_f64()
}

/// Available CPU count with the workspace-wide fallback of 1 — the one
/// place that policy lives.
pub fn cpu_count() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Parses a comma-separated list of positive counts (`"1,2,8"`), the
/// syntax of `bench-engine`'s `--shards`, `--batches` and `--threads`.
pub fn parse_count_list(s: &str) -> Result<Vec<usize>, String> {
    let counts: Vec<usize> = s
        .split(',')
        .map(|p| match p.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("`{p}` is not a positive integer")),
        })
        .collect::<Result<_, _>>()?;
    if counts.is_empty() {
        return Err("empty list".into());
    }
    Ok(counts)
}

/// The default shard sweep for scaling runs: powers of two up to the
/// CPU count, always ending exactly at the CPU count.
pub fn default_shard_sweep() -> Vec<usize> {
    let cpus = cpu_count();
    let mut v: Vec<usize> = std::iter::successors(Some(1usize), |&k| Some(k * 2))
        .take_while(|&k| k < cpus)
        .collect();
    v.push(cpus);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_sweep_ends_at_cpu_count() {
        let sweep = default_shard_sweep();
        let cpus = cpu_count();
        assert_eq!(sweep[0], 1);
        assert_eq!(*sweep.last().unwrap(), cpus);
        assert!(sweep.windows(2).all(|w| w[0] < w[1]), "{sweep:?}");
    }
}
