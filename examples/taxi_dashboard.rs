//! Ex. 1 of the paper: a vehicle-management dashboard. "Show vehicles that
//! were active between 17:00 and 22:00 a week ago" — visualizing hundreds
//! of thousands of trips would stall the UI, so the dashboard renders a
//! random sample instead, and the sample histogram tracks the true
//! distribution.
//!
//! Served through the `Irs::builder()` facade over a single AIT (the
//! default, one shard); compare `examples/engine_dashboard.rs`, where
//! the same facade fronts several shards.
//!
//! ```sh
//! cargo run --release --example taxi_dashboard
//! ```

use irs::prelude::*;
use std::time::Instant;

/// Seconds in a week; trips are timestamped within one week here.
const WEEK: i64 = 7 * 24 * 3600;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Synthetic trips: rush-hour clustered starts, taxi-like durations.
    let n = 500_000;
    let data = irs::datagen::clustered(n, WEEK, 14, 5400, 900, 11);
    println!("{n} taxi trips over one week");

    let engine = Irs::builder().kind(IndexKind::Ait).seed(5).build(&data)?;

    // The dashboard window: day 3, 17:00-22:00.
    let day3 = 3 * 24 * 3600;
    let q = Interval::new(day3 + 17 * 3600, day3 + 22 * 3600);

    let t = Instant::now();
    let active = engine.count(q)?;
    println!(
        "\n{} trips active in the window (counted in {:?})",
        active,
        t.elapsed()
    );

    // Sampling 2,000 trips is enough to draw the activity histogram.
    let s = 2000;
    let t = Instant::now();
    let sample = engine.sample(q, s)?;
    let t_sample = t.elapsed();

    // Exact histogram (what a full scan would render) vs sampled estimate:
    // bucket trips by their start hour-of-day.
    let t = Instant::now();
    let full = engine.search(q)?;
    let t_full = t.elapsed();

    let hist = |ids: &[ItemId]| {
        let mut h = [0usize; 24];
        for &id in ids {
            let hour = (data[id as usize].lo % (24 * 3600)) / 3600;
            h[hour as usize] += 1;
        }
        h
    };
    let h_full = hist(&full);
    let h_sample = hist(&sample);

    println!("sampled {s} trips in {t_sample:?}; full scan took {t_full:?}");
    println!("\nstart-hour histogram (# = exact share, + = sampled estimate):");
    for hour in 0..24 {
        let exact = h_full[hour] as f64 / full.len().max(1) as f64;
        let est = h_sample[hour] as f64 / s as f64;
        let bar_e = "#".repeat((exact * 200.0).round() as usize);
        let bar_s = "+".repeat((est * 200.0).round() as usize);
        println!("{hour:>2}h exact {bar_e}");
        println!("    sample {bar_s}");
    }

    // The estimate should track the truth closely.
    let tv: f64 = (0..24)
        .map(|h| {
            (h_full[h] as f64 / full.len().max(1) as f64 - h_sample[h] as f64 / s as f64).abs()
        })
        .sum::<f64>()
        / 2.0;
    println!("\ntotal variation distance (sample vs exact): {tv:.4}");
    assert!(tv < 0.1, "sampled histogram diverged from the exact one");

    // Live refresh: the dashboard keeps drawing from the same window.
    // The stream paid the query's candidate computation once, so each
    // refresh costs only the draws.
    let t = Instant::now();
    let refreshed: Vec<ItemId> = engine.sample_stream(q)?.take(3 * s).collect();
    println!(
        "three more {s}-trip refreshes streamed in {:?} (prepare-once-draw-many)",
        t.elapsed()
    );
    assert_eq!(refreshed.len(), 3 * s);
    Ok(())
}
