//! A fleet-operations dashboard backed by the sharded engine: one
//! `Engine` serves every widget on the page —
//! live counts, a sampled activity histogram, a weighted
//! "revenue-proportional" sample, and a point-in-time drill-down — as a
//! single mixed batch per refresh, every answer a typed `Result`.
//!
//! Compare `examples/taxi_dashboard.rs`, which runs the same facade
//! over one single-threaded index; here `.shards(k)` swaps in the
//! sharded engine and nothing else about the code changes — that is
//! the point of the `Backend` abstraction. (For the multi-threaded
//! service shape — one engine shared by a fleet of caller threads —
//! see `examples/concurrent_service.rs`.)
//!
//! ```sh
//! cargo run --release --example engine_dashboard
//! ```

use irs::prelude::*;
use std::time::Instant;

/// Seconds in a week; trips are timestamped within one week here.
const WEEK: i64 = 7 * 24 * 3600;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 500_000;
    let data = irs::datagen::clustered(n, WEEK, 14, 5400, 900, 11);
    // "Fare" weights: longer trips earn proportionally more.
    let weights: Vec<f64> = data
        .iter()
        .map(|iv| 2.5 + (iv.hi - iv.lo) as f64 / 60.0)
        .collect();

    let shards = std::thread::available_parallelism().map_or(2, |p| p.get().max(2));
    let t = Instant::now();
    let engine = Irs::builder()
        .kind(IndexKind::Kds)
        .shards(shards)
        .weights(weights.clone())
        .seed(7)
        .build(&data)?;
    println!(
        "{n} taxi trips indexed into {} {} shards in {:?}",
        engine.shard_count(),
        engine.kind(),
        t.elapsed()
    );

    // One dashboard refresh = one batch: the evening window on each of
    // the 7 days (count + sample), a revenue-weighted sample for the
    // fares widget, and a "what was on the road at midnight" drill-down.
    let s = 1500;
    let evening =
        |day: i64| Interval::new(day * 24 * 3600 + 17 * 3600, day * 24 * 3600 + 22 * 3600);
    let mut batch = Vec::new();
    for day in 0..7 {
        batch.push(Query::Count { q: evening(day) });
        batch.push(Query::Sample { q: evening(day), s });
    }
    batch.push(Query::SampleWeighted { q: evening(3), s });
    batch.push(Query::Stab { p: 4 * 24 * 3600 });

    let t = Instant::now();
    // Every answer is a typed Result; `?` on the collect surfaces the
    // first failure (unsupported op, dead shard) instead of a panic.
    let out: Vec<QueryOutput> = engine.run(&batch).into_iter().collect::<Result<_, _>>()?;
    let refresh = t.elapsed();

    println!("\nevening activity (17:00-22:00), count + {s}-trip sample per day:");
    for day in 0..7usize {
        let count = out[day * 2].count().unwrap();
        let sample = out[day * 2 + 1].samples().unwrap();
        // Mean duration estimated from the sample vs the count headline.
        let mean_min = sample
            .iter()
            .map(|&id| (data[id as usize].hi - data[id as usize].lo) as f64 / 60.0)
            .sum::<f64>()
            / sample.len().max(1) as f64;
        let bar = "#".repeat(count / 2_000);
        println!("day {day}: {count:>6} trips, mean {mean_min:>5.1} min  {bar}");
    }

    let weighted = out[14].samples().unwrap();
    let mean_fare =
        weighted.iter().map(|&id| weights[id as usize]).sum::<f64>() / weighted.len().max(1) as f64;
    let plain_mean = {
        let ids = out[7].samples().unwrap(); // day 3 uniform sample
        ids.iter().map(|&id| weights[id as usize]).sum::<f64>() / ids.len().max(1) as f64
    };
    println!("\nfares widget (day 3): revenue-weighted sample mean fare {mean_fare:.2}");
    println!("(uniform sample mean fare {plain_mean:.2} — weighted skews higher, as it must)");
    assert!(
        mean_fare > plain_mean,
        "weighted sampling must over-represent expensive trips"
    );

    let midnight = out[15].ids().unwrap();
    println!(
        "\n{} trips were on the road at day-4 midnight",
        midnight.len()
    );

    println!(
        "\nwhole dashboard refreshed in {refresh:?} ({} requests)",
        batch.len()
    );

    // Sanity: the engine agrees with a direct oracle count on one window.
    let bf = irs::BruteForce::new(&data);
    assert_eq!(out[6].count().unwrap(), bf.range_count(evening(3)));
    Ok(())
}
