//! Quickstart: one facade over every index kind. Build a
//! [`Engine`] per kind with `Irs::builder()`, discover what each kind
//! can do from its [`Capabilities`] (no probing, no panics), and run
//! the same IRS query through all of them.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use irs::prelude::*;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 200_000;
    println!("generating {n} Renfe-like trip intervals...");
    let data = irs::datagen::RENFE.generate(n, 42);
    let weights = irs::datagen::uniform_weights(n, 43);

    // Capability discovery: what each kind supports is queryable
    // metadata, reported for the build configuration (with/without
    // weights) before any query runs.
    println!("\ncapabilities (built without weights | with weights):");
    println!("{:<14} {:>12} {:>12}", "kind", "uniform", "weighted");
    for kind in IndexKind::ALL {
        let plain = kind.capabilities(false);
        let weighted = kind.capabilities(true);
        println!(
            "{:<14} {:>12} {:>12}",
            kind.name(),
            format!(
                "{}|{}",
                flag(plain.uniform_sample),
                flag(weighted.uniform_sample)
            ),
            format!(
                "{}|{}",
                flag(plain.weighted_sample),
                flag(weighted.weighted_sample)
            ),
        );
    }

    // One query: 8% of the domain, s = 1000 (the paper's defaults).
    let workload = irs::datagen::QueryWorkload::from_data(&data);
    let q = workload.generate(1, 8.0, 7)[0];
    let s = 1000;
    println!("\nquery {q:?}, s = {s}");

    // The same fallible facade serves every kind.
    for kind in IndexKind::ALL {
        let t = Instant::now();
        let engine = Irs::builder().kind(kind).seed(1).build(&data)?;
        let built = t.elapsed();
        let hits = engine.count(q)?;
        let t = Instant::now();
        let ids = engine.sample(q, s)?;
        let sampled = t.elapsed();
        assert!(ids.iter().all(|&id| data[id as usize].overlaps(&q)));
        println!(
            "{:<14} built {built:>10.2?}, |q ∩ X| = {hits}, {s} samples in {sampled:?}",
            kind.name()
        );
    }

    // Weighted IRS (Problem 2): supply weights, pick a weighted-capable
    // kind, and the same surface serves weight-proportional samples.
    let engine = Irs::builder()
        .kind(IndexKind::Awit)
        .weights(weights.clone())
        .seed(2)
        .build(&data)?;
    let t = Instant::now();
    let ids = engine.sample_weighted(q, s)?;
    println!(
        "\nawit (weighted) {s} weight-proportional samples in {:?}",
        t.elapsed()
    );
    assert_eq!(ids.len(), s);

    // A kind that *cannot* serve an operation says so with a typed
    // error — compare `engine.capabilities()` up front, or match on it.
    let ait = Irs::builder().kind(IndexKind::Ait).build(&data)?;
    match ait.sample_weighted(q, s) {
        Err(QueryError::UnsupportedOperation { op, reason }) => {
            println!("ait refuses `{op}` with a typed error: {reason}")
        }
        other => panic!("expected a typed capability error, got {other:?}"),
    }

    // Prepare-once-draw-many: the stream pays the query's candidate
    // computation once, then draws are O(1)-ish forever.
    let stream_ids: Vec<ItemId> = engine.weighted_sample_stream(q)?.take(5 * s).collect();
    assert_eq!(stream_ids.len(), 5 * s);
    println!(
        "sample stream drew {} more weighted samples",
        stream_ids.len()
    );
    Ok(())
}

fn flag(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "-"
    }
}
