//! Warm restart: survive a process death without rebuilding.
//!
//! A "service" builds a sharded engine over a large dataset, serves
//! some traffic, ingests a little, and snapshots itself to disk with
//! [`Engine::save`]. The "restarted process" then comes up with
//! [`Engine::load`] — no index construction — and the demo proves the
//! restore is *byte-equivalent*: the same seeded batch draws the same
//! samples, ids issued before the restart still resolve, and new
//! inserts keep the global-id contract. Finally it demonstrates the
//! failure side: a truncated shard file is refused with a typed
//! [`PersistError`], never a panic.
//!
//! ```sh
//! cargo run --release --example warm_restart
//! ```

use irs::prelude::*;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 300_000;
    println!("generating {n} taxi-like trip intervals...");
    let data = irs::datagen::TAXI.generate(n, 42);
    let dir = std::env::temp_dir().join(format!("irs-warm-restart-{}", std::process::id()));

    // ---- first life: build, serve, ingest, snapshot -----------------
    let t = Instant::now();
    let engine = Irs::builder()
        .kind(IndexKind::Ait)
        .shards(4)
        .seed(7)
        .build(&data)?;
    let build = t.elapsed();
    println!("cold build: {build:.2?} ({} shards)", engine.shard_count());

    let q = Interval::new(5_000_000, 20_000_000);
    println!("serving: count({q:?}) = {}", engine.count(q)?);
    let early_id = engine.insert(Interval::new(6_000_000, 6_500_000))?;
    println!("ingested one interval before the snapshot: id {early_id}");

    let batch = [
        Query::Sample { q, s: 8 },
        Query::Count { q },
        Query::Sample {
            q: Interval::new(0, 2_000_000),
            s: 4,
        },
    ];
    let before = engine.run_seeded(&batch, 0xC0FFEE);

    let t = Instant::now();
    engine.save(&dir)?;
    println!("snapshot saved to {} in {:.2?}", dir.display(), t.elapsed());
    drop(engine); // the process "dies"

    // ---- second life: load and verify byte-equivalence --------------
    let t = Instant::now();
    let revived = Engine::<i64>::load(&dir)?;
    let load = t.elapsed();
    println!("warm restart: {load:.2?} (cold build was {build:.2?}) — no rebuild, state intact");

    let after = revived.run_seeded(&batch, 0xC0FFEE);
    assert_eq!(before, after, "loaded engine must replay byte-identically");
    println!("seeded replay across the restart: byte-identical ✓");

    // Ids issued before the restart survive it; new ids never collide.
    revived.remove(early_id)?;
    let late_id = revived.insert(Interval::new(6_000_000, 6_500_000))?;
    assert_ne!(early_id, late_id, "retired ids are never reissued");
    println!("global-id contract across the restart: ids stable ✓");

    // ---- failure side: corruption is typed, never a panic -----------
    let shard0 = dir.join("shard-0000.irs");
    let bytes = std::fs::read(&shard0)?;
    std::fs::write(&shard0, &bytes[..bytes.len() / 2])?;
    match Engine::<i64>::load(&dir).map(|_| ()) {
        Err(e @ PersistError::Truncated { .. }) => {
            println!("truncated shard file refused: {e}");
        }
        other => panic!("expected a typed truncation error, got {other:?}"),
    }

    std::fs::remove_dir_all(&dir)?;
    println!("\nwarm_restart: ok");
    Ok(())
}
