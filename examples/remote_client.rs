//! Client/server in one process: spin up `irs-server` on an ephemeral
//! port, then drive it from several [`RemoteClient`] threads exactly as
//! separate processes on separate machines would.
//!
//! The demo walks the whole wire surface: health and stats, concurrent
//! batch queries (with a seeded batch proving wire answers are
//! byte-identical to in-process ones), remote mutations honoring the
//! global-id contract, a snapshot saved and inspected over the wire,
//! and a graceful shutdown that drains every connection.
//!
//! ```sh
//! cargo run --release --example remote_client
//! ```

use irs::prelude::*;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 200_000;
    println!("building a 4-shard AIT backend over {n} taxi-like intervals...");
    let data = irs::datagen::TAXI.generate(n, 42);
    let client = Irs::builder()
        .kind(IndexKind::Ait)
        .shards(4)
        .seed(7)
        .build(&data)?;

    // ---- serve ------------------------------------------------------
    // Port 0: the OS picks a free port; real deployments pass a fixed
    // address and run `irs-server` as its own process.
    let handle = irs::serve(client.clone(), ("127.0.0.1", 0), None)?;
    let addr = handle.local_addr();
    println!("irs-server listening on {addr}\n");

    // ---- health, stats ----------------------------------------------
    let mut remote = RemoteClient::<i64>::connect(addr)?;
    remote.health()?;
    let stats = remote.stats()?;
    println!(
        "serving {} × {} shard(s), {} intervals, endpoint {}",
        stats.kind, stats.shards, stats.len, stats.endpoint
    );

    // ---- queries over the wire --------------------------------------
    let q = Interval::new(10_000_000, 90_000_000);
    println!("\ncount({q:?}) = {}", remote.count(q)?);
    let ids = remote.sample(q, 5)?;
    println!("sample({q:?}, 5) -> {ids:?}");
    for id in &ids {
        assert!(data[*id as usize].overlaps(&q));
    }

    // Seeded batches are byte-identical over the wire and in-process.
    let batch: Vec<Query<i64>> = (0..8)
        .map(|i| Query::Sample {
            q: Interval::new(i * 5_000_000, i * 5_000_000 + 20_000_000),
            s: 10,
        })
        .collect();
    let over_wire = remote.run_seeded(&batch, 99)?;
    let in_process = client.run_seeded(&batch, 99);
    for (w, l) in over_wire.iter().zip(&in_process) {
        assert_eq!(w.as_ref().unwrap(), l.as_ref().unwrap());
    }
    println!("seeded replay: wire answers byte-identical to in-process ✓");

    // ---- concurrent clients -----------------------------------------
    let t = Instant::now();
    let per_thread = 200usize;
    std::thread::scope(|scope| {
        for i in 0..4i64 {
            scope.spawn(move || {
                let mut conn = RemoteClient::<i64>::connect(addr).expect("connect");
                for j in 0..per_thread as i64 {
                    let lo = (i * 1_000 + j) * 10_000;
                    conn.count(Interval::new(lo, lo + 30_000_000))
                        .expect("count");
                }
            });
        }
    });
    println!(
        "4 threads × {per_thread} remote counts in {:?}",
        t.elapsed()
    );

    // ---- remote mutations -------------------------------------------
    let id = remote.insert(Interval::new(-500, -400))?;
    println!("\nremote insert -> id {id}");
    assert_eq!(remote.count(Interval::new(-500, -400))?, 1);
    remote.remove(id)?;
    match remote.remove(id) {
        Err(e) => println!("double delete refused: {e}"),
        Ok(()) => unreachable!("retired ids stay retired"),
    }

    // ---- snapshot admin over the wire -------------------------------
    let dir = std::env::temp_dir().join(format!("irs-remote-demo-{}", std::process::id()));
    let dir_s = dir.to_str().expect("utf8 temp path");
    remote.save(dir_s)?;
    let info = remote.inspect_snapshot(dir_s)?;
    println!(
        "\nsnapshot saved server-side: format v{}, {} × {} shard(s), {} intervals",
        info.format_version, info.kind, info.shards, info.len
    );

    // ---- graceful shutdown ------------------------------------------
    let stats = remote.stats()?;
    println!(
        "\nserver counters: {} requests, {} queries, {} mutations, {} protocol errors",
        stats.requests, stats.queries, stats.mutations, stats.protocol_errors
    );
    remote.shutdown()?;
    handle.join();
    println!("server drained and exited ✓");

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
