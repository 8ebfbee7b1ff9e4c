//! A multi-threaded query service on one shared engine: the shape the
//! concurrent read path exists for. One `Engine` is built, cloned into
//! a fleet of worker threads (cheap `Arc` handles), and every worker
//! serves its own request stream concurrently — counts, searches, and
//! sample draws all run in parallel on the caller threads, while a
//! dedicated ingest thread trickles fresh intervals in through the
//! writer seat without ever blocking the readers for more than one
//! mutation batch.
//!
//! The demo measures the same request mix served by 1 thread and by
//! all available threads, and verifies that a seeded batch replays
//! byte-identically no matter how many threads are hammering the
//! backend — the two properties (scaling and determinism) that define
//! the concurrency model.
//!
//! ```sh
//! cargo run --release --example concurrent_service
//! ```

use irs::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Seconds in a week; intervals are timestamped within one week.
const WEEK: i64 = 7 * 24 * 3600;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 300_000;
    let data = irs::datagen::clustered(n, WEEK, 14, 5400, 900, 23);
    let threads = std::thread::available_parallelism().map_or(4, |p| p.get());

    let t = Instant::now();
    let engine = Irs::builder()
        .kind(IndexKind::Ait)
        .shards(threads.min(8))
        .seed(99)
        .build(&data)?;
    println!(
        "{n} intervals in {} shards, built in {:?}; serving from {threads} caller threads",
        engine.shard_count(),
        t.elapsed()
    );

    // The request mix every worker serves: a window count, a sample of
    // what's active, and a stabbing drill-down.
    let windows: Vec<Interval64> = (0..7)
        .map(|d| Interval::new(d * 24 * 3600 + 18 * 3600, d * 24 * 3600 + 21 * 3600))
        .collect();

    // --- Scaling: same request volume, 1 caller vs all callers. ---
    let requests_total = 1_200usize;
    for callers in [1usize, threads] {
        let served = AtomicU64::new(0);
        let t = Instant::now();
        std::thread::scope(|scope| {
            for w in 0..callers {
                let handle = engine.clone(); // moved into the thread
                let windows = &windows;
                let served = &served;
                scope.spawn(move || {
                    for r in 0..requests_total / callers {
                        let q = windows[(w + r) % windows.len()];
                        let batch = [
                            Query::Count { q },
                            Query::Sample { q, s: 256 },
                            Query::Stab { p: q.lo },
                        ];
                        for result in handle.run(&batch) {
                            result.expect("service query failed");
                        }
                        served.fetch_add(batch.len() as u64, Ordering::Relaxed);
                    }
                });
            }
        });
        let qps = served.load(Ordering::Relaxed) as f64 / t.elapsed().as_secs_f64();
        println!("  {callers:>2} caller(s): {qps:>10.0} queries/sec");
    }

    // --- Live ingest beside the readers. ---
    let stop = AtomicBool::new(false);
    let ingested = std::thread::scope(|scope| {
        let writer = engine.clone();
        let stop_flag = &stop;
        let ingest = scope.spawn(move || {
            let mut ids = Vec::new();
            while !stop_flag.load(Ordering::Relaxed) {
                // The writer seat serializes mutations across clones;
                // readers keep running between batches.
                let id = writer
                    .writer()
                    .insert(Interval::new(WEEK, WEEK + 600))
                    .expect("ingest insert");
                ids.push(id);
            }
            ids
        });
        for _ in 0..threads.saturating_sub(1).max(1) {
            let handle = engine.clone();
            let windows = &windows;
            scope.spawn(move || {
                for r in 0..200 {
                    let q = windows[r % windows.len()];
                    handle.count(q).expect("reader count");
                    handle.sample(q, 64).expect("reader sample");
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        stop.store(true, Ordering::Relaxed);
        ingest.join().expect("ingest thread")
    });
    println!(
        "  ingested {} intervals while {} readers ran; len = {}",
        ingested.len(),
        threads.saturating_sub(1).max(1),
        engine.len()
    );
    assert_eq!(engine.len(), n + ingested.len());

    // --- Determinism: a seeded batch is a pure function of its seed. ---
    let batch: Vec<Query<i64>> = windows
        .iter()
        .map(|&q| Query::Sample { q, s: 64 })
        .collect();
    let reference = engine.run_seeded(&batch, 0xD577);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let handle = engine.clone();
            let (batch, reference) = (&batch, &reference);
            scope.spawn(move || {
                for _ in 0..10 {
                    assert_eq!(
                        &handle.run_seeded(batch, 0xD577),
                        reference,
                        "seeded replay diverged under concurrency"
                    );
                }
            });
        }
    });
    println!("  seeded replay byte-identical across {threads} concurrent callers ✓");
    Ok(())
}
