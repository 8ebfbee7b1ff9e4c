//! Wire-level integration: a real `irs-server` on an ephemeral port,
//! driven by real `RemoteClient` connections over TCP.
//!
//! What must hold:
//! - **Oracle agreement**: answers over the wire match the brute-force
//!   oracle, from several concurrent client threads at once.
//! - **Seeded replay**: `run_seeded` over the wire is byte-identical to
//!   the same batch against the same backend in-process.
//! - **Mutation contract**: remote inserts/deletes honor the global-id
//!   contract, interleaved with in-process writers on the same backend.
//! - **Graceful shutdown**: a drain loses no acked mutation — every id
//!   the server acknowledged is queryable after `join` returns.
//! - **Snapshot admin**: save-over-wire → load produces an equivalent
//!   backend (seeded replay matches the original).

use irs::prelude::*;
use irs::BruteForce;
use std::sync::atomic::{AtomicU64, Ordering};

fn sorted(mut v: Vec<ItemId>) -> Vec<ItemId> {
    v.sort_unstable();
    v
}

fn backend(n: usize, shards: usize) -> (Vec<Interval64>, Client<i64>) {
    let data = irs::datagen::TAXI.generate(n, 11);
    let client = Irs::builder()
        .kind(IndexKind::Ait)
        .shards(shards)
        .seed(7)
        .build(&data)
        .expect("build");
    (data, client)
}

#[test]
fn concurrent_remote_clients_agree_with_the_oracle() {
    let (data, client) = backend(4000, 4);
    let bf = BruteForce::new(&data);
    let handle = irs::serve(client, ("127.0.0.1", 0), None).expect("serve");
    let addr = handle.local_addr();

    let workload = irs::datagen::QueryWorkload::from_data(&data);
    let queries = workload.generate(24, 8.0, 0xC0FFEE);

    std::thread::scope(|scope| {
        for t in 0..6 {
            let queries = &queries;
            let bf = &bf;
            let data = &data;
            scope.spawn(move || {
                let mut remote = RemoteClient::<i64>::connect(addr).expect("connect");
                for (i, &q) in queries.iter().enumerate() {
                    if i % 6 != t {
                        continue; // disjoint slices, all threads busy
                    }
                    let expect = sorted(bf.range_search(q));
                    assert_eq!(remote.count(q).expect("count"), expect.len(), "{q:?}");
                    assert_eq!(sorted(remote.search(q).expect("search")), expect, "{q:?}");
                    for id in remote.sample(q, 64).expect("sample") {
                        assert!(
                            data[id as usize].overlaps(&q),
                            "sampled id {id} outside {q:?}"
                        );
                    }
                    let p = q.lo;
                    assert_eq!(
                        sorted(remote.stab(p).expect("stab")),
                        sorted(bf.stab(p)),
                        "stab {p}"
                    );
                }
            });
        }
    });

    handle.shutdown();
    handle.join();
}

#[test]
fn seeded_replay_is_byte_identical_to_in_process() {
    let (data, client) = backend(3000, 3);
    let handle = irs::serve(client.clone(), ("127.0.0.1", 0), None).expect("serve");
    let mut remote = RemoteClient::<i64>::connect(handle.local_addr()).expect("connect");

    let workload = irs::datagen::QueryWorkload::from_data(&data);
    let queries: Vec<Query<i64>> = workload
        .generate(16, 8.0, 0x5EED)
        .into_iter()
        .map(|q| Query::Sample { q, s: 32 })
        .collect();

    for seed in [0u64, 42, u64::MAX] {
        let over_wire = remote.run_seeded(&queries, seed).expect("run_seeded");
        let in_process = client.run_seeded(&queries, seed);
        assert_eq!(over_wire.len(), in_process.len());
        for (i, (w, l)) in over_wire.iter().zip(&in_process).enumerate() {
            // Not just the same distribution: the same bytes.
            assert_eq!(
                w.as_ref().expect("wire ok"),
                l.as_ref().expect("local ok"),
                "seed {seed} query {i}"
            );
        }
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn remote_mutations_honor_the_global_id_contract() {
    let (_, client) = backend(1000, 2);
    let handle = irs::serve(client.clone(), ("127.0.0.1", 0), None).expect("serve");
    let addr = handle.local_addr();

    let mut remote = RemoteClient::<i64>::connect(addr).expect("connect");
    let before = remote.count(Interval::new(i64::MIN, i64::MAX)).unwrap();

    // Remote and in-process writers interleave on one backend; ids stay
    // globally unique and every acked insert is immediately queryable.
    let remote_id = remote.insert(Interval::new(-100, -90)).expect("insert");
    let local = client.clone();
    let local_id = local.insert(Interval::new(-80, -70)).expect("insert");
    assert_ne!(remote_id, local_id);
    assert_eq!(
        sorted(remote.search(Interval::new(-100, -70)).unwrap()),
        sorted(vec![remote_id, local_id])
    );

    // Deleting a remote-inserted id locally, and vice versa.
    local.remove(remote_id).expect("remove remote id locally");
    remote.remove(local_id).expect("remove local id remotely");
    assert_eq!(remote.count(Interval::new(-100, -70)).unwrap(), 0);
    assert_eq!(
        remote.count(Interval::new(i64::MIN, i64::MAX)).unwrap(),
        before
    );

    // A retired id stays retired across the wire: typed error, not a
    // crash, not a reuse.
    let err = remote.remove(remote_id).expect_err("already removed");
    assert_eq!(err.code, ErrorCode::UpdateUnknownId);

    handle.shutdown();
    handle.join();
}

#[test]
fn graceful_shutdown_loses_no_acked_mutation() {
    let (_, client) = backend(500, 2);
    let handle = irs::serve(client, ("127.0.0.1", 0), None).expect("serve");
    let addr = handle.local_addr();
    // A Client clone that outlives the server: the observation point.
    let observer = handle.client();
    // Inserts land in [1M, 2M); anything already there is baseline.
    let insert_range = Interval::new(1_000_000, 2_000_000);
    let baseline = observer.count(insert_range).expect("baseline count");

    let acked = AtomicU64::new(0);
    std::thread::scope(|scope| {
        // Four writers hammer inserts; mid-flight, a fifth connection
        // requests shutdown. Writers stop when their connection dies.
        for t in 0..4i64 {
            let acked = &acked;
            scope.spawn(move || {
                let mut remote = RemoteClient::<i64>::connect(addr).expect("connect");
                for i in 0..10_000i64 {
                    let lo = 1_000_000 + t * 100_000 + i;
                    match remote.insert(Interval::new(lo, lo + 10)) {
                        Ok(_) => {
                            acked.fetch_add(1, Ordering::SeqCst);
                        }
                        // Server draining: connection refused/closed.
                        Err(_) => break,
                    }
                }
            });
        }
        let acked = &acked;
        scope.spawn(move || {
            // Let the writers land some inserts first.
            while acked.load(Ordering::SeqCst) < 200 {
                std::thread::yield_now();
            }
            let mut admin = RemoteClient::<i64>::connect(addr).expect("connect");
            admin.shutdown().expect("shutdown acked");
        });
    });
    handle.join();

    // Every mutation the server acked must be present; un-acked ones
    // may or may not be (their connections died mid-call), so count
    // only the lower bound.
    let acked = acked.load(Ordering::SeqCst) as usize;
    assert!(acked >= 200, "writers should have landed inserts");
    let present = observer.count(insert_range).expect("count after drain") - baseline;
    assert!(
        present >= acked,
        "drain lost mutations: {acked} acked, {present} present"
    );
}

#[test]
fn wire_load_swaps_backends_atomically_under_concurrent_readers() {
    let tmp = std::env::temp_dir().join(format!("irs-wire-swap-{}", std::process::id()));
    // Two snapshots with unmistakably different cardinalities: any torn
    // read (half old backend, half new) would produce a third count.
    let (_, small) = backend(1000, 2);
    let (_, large) = backend(2500, 2);
    let small_dir = tmp.join("small");
    let large_dir = tmp.join("large");
    small.save(&small_dir).expect("save small");
    large.save(&large_dir).expect("save large");
    // A corrupt directory: framing garbage where a manifest should be.
    let corrupt_dir = tmp.join("corrupt");
    std::fs::create_dir_all(&corrupt_dir).expect("mkdir");
    for entry in std::fs::read_dir(&small_dir).expect("ls") {
        let entry = entry.expect("entry");
        std::fs::write(corrupt_dir.join(entry.file_name()), b"not a snapshot").expect("write");
    }

    let handle = irs::serve(small, ("127.0.0.1", 0), None).expect("serve");
    let addr = handle.local_addr();
    let all = Interval::new(i64::MIN, i64::MAX);
    let done = std::sync::atomic::AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Readers hammer a full-range count: every answer must be one
        // of the two snapshot cardinalities — a load is all-or-nothing.
        for _ in 0..4 {
            let done = &done;
            scope.spawn(move || {
                let mut remote = RemoteClient::<i64>::connect(addr).expect("connect");
                while !done.load(Ordering::SeqCst) {
                    let n = remote.count(all).expect("count during swaps");
                    assert!(
                        n == 1000 || n == 2500,
                        "torn response: count {n} matches neither snapshot"
                    );
                }
            });
        }

        // The admin alternates backend swaps, with a corrupt load mixed
        // in: the failure is a typed persist error, the serving backend
        // stays whole, and the readers never notice.
        let admin_done = &done;
        scope.spawn(move || {
            let mut admin = RemoteClient::<i64>::connect(addr).expect("connect");
            let small = small_dir.to_str().expect("utf8");
            let large = large_dir.to_str().expect("utf8");
            let corrupt = corrupt_dir.to_str().expect("utf8");
            for round in 0..10 {
                admin
                    .load(if round % 2 == 0 { large } else { small })
                    .expect("load over wire");
                if round == 5 {
                    let err = admin.load(corrupt).expect_err("corrupt load must fail");
                    let code = err.code as u16;
                    assert!(
                        (300..400).contains(&code),
                        "corrupt load answered {code}, not a persist error"
                    );
                    // The refusal left the previous backend serving.
                    assert_eq!(admin.count(all).expect("count after refusal"), 1000);
                }
            }
            admin_done.store(true, Ordering::SeqCst);
        });
    });

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn snapshot_saved_over_the_wire_loads_into_an_equivalent_backend() {
    let tmp = std::env::temp_dir().join(format!("irs-wire-snap-{}", std::process::id()));
    let (data, client) = backend(2000, 2);
    let handle = irs::serve(client.clone(), ("127.0.0.1", 0), None).expect("serve");
    let mut remote = RemoteClient::<i64>::connect(handle.local_addr()).expect("connect");

    let dir = tmp.to_str().expect("utf8 temp path");
    remote.save(dir).expect("save over wire");

    // The manifest is inspectable over the wire and names what we built.
    let info = remote.inspect_snapshot(dir).expect("inspect");
    assert_eq!(info.kind, "ait");
    assert_eq!(info.endpoint, "i64");
    assert_eq!(info.shards, 2);
    assert_eq!(info.len, data.len());

    // Loading the snapshot in-process yields a backend whose seeded
    // replay matches the serving one exactly.
    let restored = Client::<i64>::load(dir).expect("load");
    let workload = irs::datagen::QueryWorkload::from_data(&data);
    let queries: Vec<Query<i64>> = workload
        .generate(8, 8.0, 0xAB)
        .into_iter()
        .map(|q| Query::Sample { q, s: 16 })
        .collect();
    let a = client.run_seeded(&queries, 9);
    let b = restored.run_seeded(&queries, 9);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.as_ref().unwrap(), y.as_ref().unwrap());
    }

    // Load-over-the-wire swaps the serving backend (here: to the same
    // state), and the server keeps answering afterwards.
    remote.load(dir).expect("load over wire");
    assert_eq!(
        remote.count(Interval::new(i64::MIN, i64::MAX)).unwrap(),
        data.len()
    );

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&tmp).ok();
}
