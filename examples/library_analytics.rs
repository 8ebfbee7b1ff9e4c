//! Ex. 2 of the paper: an online bookstore / library analytics job.
//! "Estimate shopping statistics per month from 2018 to 2023" — per-month
//! result sets are huge, but a fixed-size independent sample per month
//! estimates the statistic at a fraction of the cost, and the index keeps
//! absorbing new transactions through batched insertions.
//!
//! The estimation pipeline runs through one `Engine` (built with
//! `Irs::builder()`) as one mixed batch (search + sample per month); the
//! ingestion tail goes through the same handle's pooled batch insertion,
//! after checking `capabilities().update` — querying that metadata is
//! how a job decides whether the kind it runs on can ingest.
//!
//! ```sh
//! cargo run --release --example library_analytics
//! ```

use irs::prelude::*;
use std::time::Instant;

const DAY: i64 = 24 * 3600;
const MONTH: i64 = 30 * DAY;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Six years of borrow transactions: borrow date → return date
    // (1-60 days, Book-profile-like long tail).
    let years = 6;
    let domain = years * 12 * MONTH;
    let n = 800_000;
    let data = irs::datagen::uniform(n, domain, 60 * DAY, 31);
    println!("{n} borrow records over {years} years");

    let t = Instant::now();
    let engine = Irs::builder().kind(IndexKind::Ait).seed(3).build(&data)?;
    println!("AIT engine built in {:?}", t.elapsed());

    // Ground truth statistic: average borrow duration per month, estimated
    // from s = 500 samples instead of the full month's result set. One
    // batch answers all months: search (exact) + sample (estimate) pairs.
    let s = 500;
    let months = 6;
    let mut batch = Vec::new();
    for month in 0..months {
        let q = Interval::new(month * MONTH, (month + 1) * MONTH);
        batch.push(Query::Search { q });
        batch.push(Query::Sample { q, s });
    }
    let mut outputs = engine.run(&batch).into_iter();

    let mean_duration = |ids: &[ItemId]| {
        ids.iter()
            .map(|&id| (data[id as usize].hi - data[id as usize].lo) as f64)
            .sum::<f64>()
            / ids.len().max(1) as f64
    };
    println!("\nper-month average borrow duration (exact vs {s}-sample estimate):");
    let mut worst_rel_err: f64 = 0.0;
    for month in 0..months as usize {
        let ids = outputs.next().unwrap()?.into_ids().expect("search output");
        let sample = outputs
            .next()
            .unwrap()?
            .into_samples()
            .expect("sample output");
        let exact = mean_duration(&ids);
        let est = mean_duration(&sample);
        let rel = (est - exact).abs() / exact;
        worst_rel_err = worst_rel_err.max(rel);
        println!(
            "  month {:>2}: exact {:>5.1} days, estimate {:>5.1} days ({:>5.2}% err, |q∩X|={})",
            month + 1,
            exact / DAY as f64,
            est / DAY as f64,
            rel * 100.0,
            ids.len()
        );
    }
    assert!(
        worst_rel_err < 0.25,
        "sample estimates should track the exact statistic"
    );

    // The library keeps lending. AIT is update-capable — queryable
    // metadata, not a surprise panic — so ingestion goes through the
    // same engine's batched insertion pool (§III-D) and queries see the
    // new borrows immediately.
    assert!(engine.capabilities().update);
    // Shift the new borrows to "today" at the end of the timeline.
    let new_borrows: Vec<Interval64> = irs::datagen::uniform(5_000, 10 * DAY, 45 * DAY, 77)
        .into_iter()
        .map(|iv| Interval::new(iv.lo + domain - 10 * DAY, iv.hi + domain - 10 * DAY))
        .collect();
    let t = Instant::now();
    engine.extend_batch(&new_borrows)?;
    println!(
        "\ningested {} new borrows via batch insertion in {:?} ({:.1}µs amortized)",
        new_borrows.len(),
        t.elapsed(),
        t.elapsed().as_micros() as f64 / new_borrows.len() as f64
    );
    let today = Interval::new(domain - DAY, domain);
    println!("records overlapping the last day: {}", engine.count(today)?);
    assert_eq!(engine.len(), data.len() + new_borrows.len());
    Ok(())
}
