//! Live ingest: a sliding-window stream served while it updates.
//!
//! Simulates a trip-tracking service: every tick a batch of fresh trips
//! arrives (`extend_batch` — the paper's pooled batch insertion), the
//! oldest window expires (`remove`), and dashboards keep querying
//! throughout. One `Engine`, both directions, typed errors everywhere.
//!
//! ```sh
//! cargo run --release --example live_ingest
//! ```

use irs::prelude::*;
use std::collections::VecDeque;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let window = 50_000;
    let batch = 1_000;
    let ticks = 20;
    println!("seeding a {window}-trip window (taxi profile), {batch} trips in/out per tick...");
    let seed_data = irs::datagen::TAXI.generate(window, 42);
    let stream = irs::datagen::TAXI.generate(batch * ticks, 43);

    // AIT: the paper's §III-D update algorithms behind the unified API.
    // Swap in `.shards(4)` and the same calls route across shards.
    let engine = Irs::builder()
        .kind(IndexKind::Ait)
        .seed(7)
        .build(&seed_data)?;
    assert!(
        engine.capabilities().update,
        "ait must support live updates"
    );

    // FIFO of live ids: build-time ids first, then whatever the inserts
    // return — ids are stable, so expiry is just `remove(oldest)`.
    let mut live: VecDeque<ItemId> = (0..seed_data.len() as ItemId).collect();

    let workload = irs::datagen::QueryWorkload::from_data(&seed_data);
    let queries = workload.generate(16, 4.0, 9);

    let started = Instant::now();
    let (mut ingested, mut expired, mut sampled) = (0usize, 0usize, 0usize);
    for tick in 0..ticks {
        // Ingest: one pooled batch, immediately queryable.
        let arriving = &stream[tick * batch..(tick + 1) * batch];
        let ids = engine.extend_batch(arriving)?;
        ingested += ids.len();
        live.extend(ids);

        // Expire: the window's oldest trips. Their ids never reappear.
        for _ in 0..batch {
            let id = live.pop_front().expect("window is never empty");
            engine.remove(id)?;
            expired += 1;
        }

        // Serve: the dashboard keeps sampling between mutations.
        for &q in &queries {
            sampled += engine.sample(q, 64)?.len();
        }

        if (tick + 1) % 5 == 0 {
            println!(
                "tick {:>2}: window = {} trips, {} in / {} out, {} samples served",
                tick + 1,
                engine.len(),
                ingested,
                expired,
                sampled
            );
        }
    }
    assert_eq!(engine.len(), window, "in/out balance must hold the window");

    let dt = started.elapsed();
    let ops = (ingested + expired) as f64 / dt.as_secs_f64();
    println!(
        "\n{ingested} inserts + {expired} removes + {sampled} samples in {dt:.2?} \
         ({ops:.0} updates/sec interleaved with queries)"
    );

    // Expired trips are really gone: a removed id is never sampled and
    // never removable twice.
    let gone = live.pop_front().unwrap();
    engine.remove(gone)?;
    match engine.remove(gone) {
        Err(UpdateError::UnknownId { id }) => {
            println!("retired id {id} stays retired (typed error)")
        }
        other => panic!("expected UnknownId, got {other:?}"),
    }
    Ok(())
}
