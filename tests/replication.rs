//! Replication, crash recovery, and failover — the fault-injection
//! suite for the write-ahead mutation log.
//!
//! What must hold:
//! - **No acked mutation is lost.** Every batch the primary acked is in
//!   its fsynced log; after the primary dies, `Client::recover` on the
//!   dead primary's disk (snapshot + checkpoint + log tail) rebuilds the
//!   exact acked state, and a replica promoted to the writer seat serves
//!   it too.
//! - **Log replay ≡ direct application.** The replayed state is
//!   *byte-identical* under `run_seeded` to applying the same batches
//!   directly — for every update-capable kind × shard count (property
//!   test below).
//! - **Replicas are read-only until promoted**, refuse mutations with
//!   the typed replication-read-only code, and honor the global-id
//!   contract, oracle agreement, and chi-square unbiasedness after
//!   promotion.

use irs::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A unique, self-cleaning scratch directory per test case.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("irs-repl-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sorted(mut v: Vec<ItemId>) -> Vec<ItemId> {
    v.sort_unstable();
    v
}

/// A mixed query batch over the data's domain, for seeded-replay
/// byte-identity checks.
fn query_batch(data: &[Interval64]) -> Vec<Query<i64>> {
    let workload = irs::datagen::QueryWorkload::from_data(data);
    workload
        .generate(4, 8.0, 0xBEEF)
        .into_iter()
        .flat_map(|q| {
            [
                Query::Count { q },
                Query::Search { q },
                Query::Stab { p: q.lo },
                Query::Sample { q, s: 24 },
            ]
        })
        .collect()
}

/// Runs the same seeded batch on a remote node and a local oracle and
/// demands byte identity (not just distributional agreement).
fn assert_seeded_replay_matches(
    remote: &mut irs::RemoteClient<i64>,
    oracle: &Client<i64>,
    queries: &[Query<i64>],
    what: &str,
) {
    for seed in [0u64, 42, 0xDEAD_BEEF] {
        let over_wire = remote.run_seeded(queries, seed).expect("run_seeded");
        let local = oracle.run_seeded(queries, seed);
        assert_eq!(over_wire.len(), local.len(), "{what} seed {seed}");
        for (i, (w, l)) in over_wire.iter().zip(&local).enumerate() {
            assert_eq!(
                w.as_ref().expect("wire ok"),
                l.as_ref().expect("oracle ok"),
                "{what} seed {seed} query {i}: replayed state diverged"
            );
        }
    }
}

/// One churn step through the wire: two inserts, every third batch also
/// a delete of the oldest live id. Acked outcomes are recorded and the
/// batch is appended to `log` so an oracle can re-apply it in order.
fn churn_step(
    remote: &mut irs::RemoteClient<i64>,
    i: usize,
    live: &mut Vec<ItemId>,
    deleted: &mut Vec<ItemId>,
    log: &mut Vec<Vec<Mutation<i64>>>,
) {
    let lo = 7_000 * i as i64;
    let mut muts = vec![
        Mutation::Insert {
            iv: Interval::new(lo, lo + 3_000),
        },
        Mutation::Insert {
            iv: Interval::new(lo + 500, lo + 60_000),
        },
    ];
    if i % 3 == 2 && !live.is_empty() {
        muts.push(Mutation::Delete { id: live.remove(0) });
    }
    let results = remote.apply(&muts).expect("apply on the writer seat");
    for (m, r) in muts.iter().zip(&results) {
        match (m, r.as_ref().expect("acked mutation")) {
            (Mutation::Delete { id }, UpdateOutput::Removed) => deleted.push(*id),
            (_, UpdateOutput::Inserted(id)) => live.push(*id),
            (m, out) => panic!("churn step {i}: {m:?} acked as {out:?}"),
        }
    }
    log.push(muts);
}

/// Polls a node until its applied log position reaches `target`.
fn await_catch_up(remote: &mut irs::RemoteClient<i64>, target: u64, what: &str) {
    for _ in 0..600 {
        let status = remote.replication_status().expect("replication status");
        if status.last_seq >= target {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("{what}: never caught up to seq {target}");
}

/// The flagship failover walk: a primary churns under a write-ahead
/// log, snapshots mid-churn, keeps churning while a replica bootstraps
/// and follows live, then dies. Crash recovery from the dead primary's
/// own disk and the promoted replica must both reproduce the acked
/// state byte-for-byte, and the promoted replica must uphold every
/// client-visible contract (ids, oracle agreement, unbiased sampling).
#[test]
fn failover_loses_no_acked_mutation_and_promoted_replica_replays_identically() {
    let base = TempDir::new("failover");
    let wal_path = base.path().join("primary-wal.irs");
    let snap_dir = base.path().join("primary-snap");
    let replica_dir = base.path().join("replica");

    let data = irs::datagen::TAXI.generate(2_000, 11);
    let build = || {
        Irs::builder()
            .kind(IndexKind::Ait)
            .shards(2)
            .seed(7)
            .build(&data)
            .expect("build")
    };
    let oracle = build();

    let wal = irs::WalWriter::<i64>::create(&wal_path, 1).expect("create wal");
    let primary = irs::serve(build(), ("127.0.0.1", 0), Some(wal)).expect("serve primary");
    let paddr = primary.local_addr();
    let mut rp = RemoteClient::<i64>::connect(paddr).expect("connect primary");
    assert_eq!(rp.replication_status().expect("status").role, "primary");

    let mut live = Vec::new();
    let mut deleted = Vec::new();
    let mut log: Vec<Vec<Mutation<i64>>> = Vec::new();

    // Phase 1: churn, then snapshot (which also writes the checkpoint
    // sidecar — the point the log tail replays from).
    for i in 0..10 {
        churn_step(&mut rp, i, &mut live, &mut deleted, &mut log);
    }
    rp.save(snap_dir.to_str().expect("utf-8 path"))
        .expect("snapshot on the primary");

    // Phase 2: more churn, then a replica bootstraps from the live
    // primary (snapshot fetch + log tail) and follows.
    for i in 10..20 {
        churn_step(&mut rp, i, &mut live, &mut deleted, &mut log);
    }
    let replica = irs::serve_replica::<i64>(("127.0.0.1", 0), &paddr.to_string(), &replica_dir)
        .expect("bootstrap replica");
    let raddr = replica.local_addr();
    let mut rr = RemoteClient::<i64>::connect(raddr).expect("connect replica");
    let status = rr.replication_status().expect("status");
    assert_eq!(status.role, "replica");
    assert_eq!(status.primary.as_deref(), Some(paddr.to_string().as_str()));

    // Phase 3: churn against the primary while the replica follows.
    for i in 20..30 {
        churn_step(&mut rp, i, &mut live, &mut deleted, &mut log);
    }
    let target = rp.replication_status().expect("status").last_seq;
    assert_eq!(target, log.len() as u64, "one log record per acked batch");
    await_catch_up(&mut rr, target, "replica");

    // A following replica refuses mutations with the typed code.
    let err = rr
        .insert(Interval::new(1, 2))
        .expect_err("replica must be read-only");
    assert_eq!(err.code, ErrorCode::ReplicationReadOnly, "{err}");

    // Kill the primary mid-churn (drain + join: the process is gone).
    primary.shutdown();
    primary.join();

    // The oracle twin applies the same acked batches in the same order.
    for muts in &log {
        let _ = oracle.apply(muts);
    }
    let queries = query_batch(&data);

    // Crash recovery from the dead primary's own disk: snapshot +
    // checkpoint + fsynced log tail rebuild the exact acked state.
    let (recovered, wal, replay) =
        Client::<i64>::recover(&snap_dir, &wal_path).expect("crash recovery");
    assert!(replay.stopped.is_none(), "clean log: {:?}", replay.stopped);
    assert_eq!(replay.last_seq(), target);
    assert_eq!(wal.next_seq(), target + 1);
    assert_eq!(recovered.len(), oracle.len());
    for seed in [3u64, 0xABCD] {
        assert_eq!(
            recovered.run_seeded(&queries, seed),
            oracle.run_seeded(&queries, seed),
            "recovered state diverged from the acked history (seed {seed})"
        );
    }

    // Promote the replica: it takes the writer seat.
    let status = rr.promote().expect("promote");
    assert_eq!(status.role, "primary");
    assert_eq!(status.last_seq, target);
    assert_eq!(
        rr.promote()
            .expect_err("second promote must be refused")
            .code,
        ErrorCode::ReplicationNotReplica
    );

    // Post-promotion byte-identity with the unfailed oracle run.
    assert_seeded_replay_matches(&mut rr, &oracle, &queries, "promoted replica");

    // The global-id contract survived the failover: every acked-live id
    // is served, no deleted id resurfaces, new ids never collide.
    let everything = Interval::new(i64::MIN, i64::MAX);
    let served = sorted(rr.search(everything).expect("search"));
    for id in &live {
        assert!(served.binary_search(id).is_ok(), "acked id {id} lost");
    }
    for id in &deleted {
        assert!(
            served.binary_search(id).is_err(),
            "deleted id {id} resurrected"
        );
    }
    let muts: Vec<Mutation<i64>> = vec![
        Mutation::Insert {
            iv: Interval::new(5, 50),
        },
        Mutation::Delete { id: deleted[0] },
    ];
    let results = rr.apply(&muts).expect("post-promotion batch");
    let _ = oracle.apply(&muts);
    match &results[0] {
        Ok(UpdateOutput::Inserted(id)) => {
            assert!(
                !live.contains(id) && !deleted.contains(id),
                "id {id} reissued after failover"
            );
        }
        other => panic!("post-promotion insert: {other:?}"),
    }
    assert_eq!(
        results[1]
            .as_ref()
            .expect_err("retired id must stay dead")
            .code,
        ErrorCode::UpdateUnknownId,
        "deleting a retired id must be the typed per-mutation error"
    );
    assert_seeded_replay_matches(&mut rr, &oracle, &queries, "post-promotion writes");

    // Chi-square unbiasedness on the promoted replica: uniform sampling
    // over a query's result set stays unbiased after the whole walk.
    let workload = irs::datagen::QueryWorkload::from_data(&data);
    let q = workload
        .generate(32, 2.0, 0x51)
        .into_iter()
        .find(|&q| {
            let m = rr.count(q).expect("count");
            (8..=128).contains(&m)
        })
        .expect("a query with a mid-sized result set");
    let members = sorted(rr.search(q).expect("search"));
    let index: HashMap<ItemId, usize> =
        members.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let draws = 400 * members.len();
    let mut counts = vec![0u64; members.len()];
    for chunk in 0..4 {
        for id in rr.sample(q, draws / 4).expect("sample") {
            counts[*index
                .get(&id)
                .unwrap_or_else(|| panic!("sampled id {id} outside q ∩ X (chunk {chunk})"))] += 1;
        }
    }
    assert!(
        irs::sampling::stats::chi_square_uniformity_ok(&counts, draws as u64),
        "promoted replica's uniform sampling is biased: {counts:?}"
    );

    rr.shutdown().expect("shutdown replica");
    replica.join();
}

/// Concurrent writers hammer the primary while two replicas follow;
/// after the primary dies, the first replica is promoted and must serve
/// every mutation any writer ever got an ack for. `IRS_REPLICATION_STRESS=1`
/// scales the churn up and keeps the log under `target/replication-stress/`
/// (CI uploads it as an artifact when this fails).
#[test]
fn concurrent_writers_lose_nothing_across_failover_to_a_promoted_replica() {
    let stress = std::env::var("IRS_REPLICATION_STRESS").is_ok();
    let (writers, batches) = if stress { (4usize, 120usize) } else { (2, 20) };
    let stress_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/replication-stress");
    let temp; // keeps the non-stress scratch dir alive (and cleaned) to test end
    let base: &Path = if stress {
        let _ = std::fs::remove_dir_all(&stress_dir);
        std::fs::create_dir_all(&stress_dir).expect("create stress dir");
        &stress_dir
    } else {
        temp = TempDir::new("writers");
        temp.path()
    };
    let wal_path = base.join("wal.irs");

    let data = irs::datagen::TAXI.generate(1_000, 5);
    let client = Irs::builder()
        .kind(IndexKind::Ait)
        .shards(3)
        .seed(9)
        .build(&data)
        .expect("build");
    let initial = client.len();
    let wal = irs::WalWriter::<i64>::create(&wal_path, 1).expect("create wal");
    let primary = irs::serve(client, ("127.0.0.1", 0), Some(wal)).expect("serve primary");
    let paddr = primary.local_addr();

    let replica_a =
        irs::serve_replica::<i64>(("127.0.0.1", 0), &paddr.to_string(), base.join("ra"))
            .expect("replica a");
    let replica_b =
        irs::serve_replica::<i64>(("127.0.0.1", 0), &paddr.to_string(), base.join("rb"))
            .expect("replica b");

    // Writers: each inserts `batches` batches and deletes a third of its
    // own acked ids, tracking exactly what the server acked.
    let acked: Vec<(Vec<ItemId>, Vec<ItemId>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                scope.spawn(move || {
                    let mut remote = RemoteClient::<i64>::connect(paddr).expect("connect");
                    let mut mine = Vec::new();
                    let mut gone = Vec::new();
                    for b in 0..batches {
                        let lo = (w * batches + b) as i64 * 1_000;
                        let muts: Vec<Mutation<i64>> = (0..4)
                            .map(|j| Mutation::Insert {
                                iv: Interval::new(lo + j * 10, lo + j * 10 + 5_000),
                            })
                            .collect();
                        for r in remote.apply(&muts).expect("apply") {
                            mine.push(r.expect("acked insert").inserted().expect("insert id"));
                        }
                        if b % 3 == 2 {
                            let id = mine.remove(0);
                            remote
                                .apply(&[Mutation::Delete { id }])
                                .expect("apply")
                                .remove(0)
                                .expect("acked delete");
                            gone.push(id);
                        }
                    }
                    (mine, gone)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer"))
            .collect()
    });

    let mut rp = RemoteClient::<i64>::connect(paddr).expect("connect");
    let target = rp.replication_status().expect("status").last_seq;
    let mut ra = RemoteClient::<i64>::connect(replica_a.local_addr()).expect("connect a");
    let mut rb = RemoteClient::<i64>::connect(replica_b.local_addr()).expect("connect b");
    await_catch_up(&mut ra, target, "replica a");
    await_catch_up(&mut rb, target, "replica b");

    primary.shutdown();
    primary.join();

    // Failover to replica a; replica b keeps following a dead primary
    // and must still drain cleanly afterwards.
    assert_eq!(ra.promote().expect("promote").role, "primary");
    let served = sorted(
        ra.search(Interval::new(i64::MIN, i64::MAX))
            .expect("search"),
    );
    let mut expected_live = initial;
    for (mine, gone) in &acked {
        expected_live += mine.len();
        for id in mine {
            assert!(
                served.binary_search(id).is_ok(),
                "acked id {id} lost in failover"
            );
        }
        for id in gone {
            assert!(
                served.binary_search(id).is_err(),
                "deleted id {id} resurrected by failover"
            );
        }
    }
    assert_eq!(served.len(), expected_live, "live count drifted");

    ra.shutdown().expect("shutdown a");
    replica_a.join();
    rb.shutdown().expect("shutdown b");
    replica_b.join();
    if stress {
        // Success: nothing to autopsy, don't leave artifacts behind.
        let _ = std::fs::remove_dir_all(&stress_dir);
    }
}

static WAL_CASE: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary interleaved mutation sequences applied via the
    /// log-replay path are byte-identical (seeded replay) to direct
    /// application, for every update-capable kind × K ∈ {1, 4, 7}.
    /// Per-mutation failures (unknown ids, unsupported ops) must be
    /// deterministic too — the log records the batch, not the outcome.
    #[test]
    fn log_replay_is_byte_identical_to_direct_application(
        raw in prop::collection::vec((0u8..4, 0i64..900_000, 1i64..80_000, 1u8..5), 1..24),
    ) {
        let case = WAL_CASE.fetch_add(1, Ordering::Relaxed);
        let data = irs::datagen::TAXI.generate(400, 17);
        let weights = irs::datagen::uniform_weights(data.len(), 23);
        for (kind, weighted) in [(IndexKind::Ait, false), (IndexKind::AwitDynamic, true)] {
            for shards in [1usize, 4, 7] {
                let path = std::env::temp_dir().join(format!(
                    "irs-repl-prop-{}-{case}-{kind}-{shards}.irs",
                    std::process::id()
                ));
                let build = || {
                    let mut b = Irs::builder().kind(kind).shards(shards).seed(31);
                    if weighted {
                        b = b.weights(weights.clone());
                    }
                    b.build(&data).expect("build")
                };
                let direct = build();
                let replayed = build();

                // Direct path, mirroring the server: log first, apply second.
                let mut wal = irs::WalWriter::<i64>::create(&path, 1).expect("create wal");
                for step in raw.chunks(3) {
                    let muts: Vec<Mutation<i64>> = step
                        .iter()
                        .map(|&(sel, lo, len, w)| match sel {
                            0 => Mutation::Insert { iv: Interval::new(lo, lo + len) },
                            1 => Mutation::InsertWeighted {
                                iv: Interval::new(lo, lo + len),
                                weight: w as f64,
                            },
                            _ => Mutation::Delete { id: (lo % 600) as ItemId },
                        })
                        .collect();
                    wal.append(None, &muts).expect("append");
                    let _ = direct.apply(&muts);
                }

                // Replay path: everything the log holds, in log order.
                let replay = irs::read_log::<i64>(&path).expect("read log");
                prop_assert!(replay.stopped.is_none());
                for record in &replay.records {
                    let _ = replayed.apply(&record.muts);
                }

                prop_assert_eq!(direct.len(), replayed.len());
                let queries = query_batch(&data);
                for seed in [0u64, 0x5EED] {
                    prop_assert_eq!(
                        direct.run_seeded(&queries, seed),
                        replayed.run_seeded(&queries, seed),
                        "{} K={} seed={}: log replay diverged", kind, shards, seed
                    );
                }
                std::fs::remove_file(&path).expect("cleanup");
            }
        }
    }
}
