//! The multi-tenant catalog: acceptance suite for ISSUE 7.
//!
//! What must hold:
//! - **Management plane over the wire**: create / drop / list from
//!   several concurrent clients, with typed 6xx refusals for duplicate
//!   names, bad names, bad specs, and unknown collections.
//! - **Per-collection correctness**: every collection answers from its
//!   own data — oracle agreement for count/search, chi-square for
//!   uniform and weighted sampling.
//! - **Adaptive planning**: `kind: auto` lands on an update-capable
//!   kind when the hints declare churn, and on a static kind otherwise.
//! - **Online re-index**: migrating a collection mid-churn preserves
//!   the global-id contract (old ids valid, retired ids never reissued,
//!   the sequence continues) and post-swap seeded replay is
//!   oracle-correct and byte-identical over the wire and in-process.
//! - **Budget**: exhaustion is the typed `BudgetExceeded` refusal (wire
//!   code 603), refused whole, never an abort — and the server keeps
//!   serving afterwards.
//! - **Persistence**: catalog save → load replays byte-identically
//!   across all collections, including id bookkeeping from before the
//!   save.

use irs::prelude::*;
use irs::sampling::stats::{chi_square_ok, chi_square_uniformity_ok, total_variation};
use irs::{BruteForce, WireCollectionSpec};
use std::collections::BTreeMap;
use std::sync::Mutex;

const DRAWS: usize = 120_000;

fn sorted(mut v: Vec<ItemId>) -> Vec<ItemId> {
    v.sort_unstable();
    v
}

fn dataset(n: usize, seed: u64) -> Vec<Interval64> {
    irs::datagen::TAXI.generate(n, seed)
}

/// A query whose support is big enough to be interesting and small
/// enough for per-bucket chi-square expectations to be solid.
fn mid_size_query(data: &[Interval64], bf: &BruteForce<i64>, seed: u64) -> Interval64 {
    let workload = irs::datagen::QueryWorkload::from_data(data);
    workload
        .generate(24, 8.0, seed)
        .into_iter()
        .find(|&q| (100..=600).contains(&bf.range_count(q)))
        .expect("workload yields a mid-size support")
}

fn spec(name: &str, kind: Option<&str>) -> WireCollectionSpec {
    WireCollectionSpec {
        name: name.to_string(),
        kind: kind.map(str::to_string),
        update_rate: 0.0,
        expected_extent: 0.001,
        weighted: false,
        shards: 1,
        seed: 42,
    }
}

fn count_of(out: &Result<QueryOutput, irs::WireError>) -> usize {
    match out {
        Ok(QueryOutput::Count(n)) => *n,
        other => panic!("expected Count, got {other:?}"),
    }
}

#[test]
fn collections_are_managed_over_the_wire_by_many_clients() {
    let handle = irs::serve(Catalog::<i64>::new(), ("127.0.0.1", 0), None).expect("serve");
    let addr = handle.local_addr();

    // Four clients create and populate their own tenants concurrently.
    std::thread::scope(|scope| {
        for t in 0..4i64 {
            scope.spawn(move || {
                let mut remote = RemoteClient::<i64>::connect(addr).expect("connect");
                let name = format!("tenant-{t}");
                let summary = remote
                    .create_collection(spec(&name, Some("ait")))
                    .expect("create");
                assert_eq!(summary.name, name);
                assert_eq!(summary.kind, "ait");
                assert_eq!(summary.len, 0);
                let muts: Vec<Mutation<i64>> = (0..50)
                    .map(|i| Mutation::Insert {
                        iv: Interval::new(t * 1000 + i, t * 1000 + i + 10),
                    })
                    .collect();
                let outs = remote.apply_in(&name, &muts).expect("apply_in");
                assert!(outs
                    .iter()
                    .all(|o| matches!(o, Ok(UpdateOutput::Inserted(_)))));
            });
        }
    });

    let mut admin = RemoteClient::<i64>::connect(addr).expect("connect");
    let listed = admin.list_collections().expect("ls");
    let mut names: Vec<&str> = listed.iter().map(|c| c.name.as_str()).collect();
    names.sort_unstable();
    assert_eq!(names, ["tenant-0", "tenant-1", "tenant-2", "tenant-3"]);
    assert!(listed.iter().all(|c| c.len == 50 && c.kind == "ait"));

    // Collections are isolated: each tenant sees only its own 50.
    let all = Interval::new(i64::MIN, i64::MAX);
    for t in 0..4 {
        let out = admin
            .run_in(&format!("tenant-{t}"), &[Query::Count { q: all }])
            .expect("run_in");
        assert_eq!(count_of(&out[0]), 50);
    }

    // Typed 6xx refusals for every management-plane misuse.
    let err = admin
        .create_collection(spec("tenant-0", Some("ait")))
        .expect_err("duplicate");
    assert_eq!(err.code, ErrorCode::CatalogCollectionExists);
    let err = admin
        .create_collection(spec("Bad Name!", Some("ait")))
        .expect_err("bad name");
    assert_eq!(err.code, ErrorCode::CatalogInvalidName);
    // Unknown kinds, including the retired baseline names, are bad specs.
    for kind in ["btree", "hint-m", "interval-tree"] {
        let err = admin
            .create_collection(spec("nope", Some(kind)))
            .expect_err("bad kind");
        assert_eq!(err.code, ErrorCode::CatalogInvalidSpec, "{kind}");
    }
    let err = admin.reindex("tenant-0", "hint-m").expect_err("bad kind");
    assert_eq!(err.code, ErrorCode::CatalogInvalidSpec);
    let err = admin.drop_collection("ghost").expect_err("unknown drop");
    assert_eq!(err.code, ErrorCode::CatalogUnknownCollection);
    let err = admin
        .run_in("ghost", &[Query::Count { q: all }])
        .expect_err("unknown run");
    assert_eq!(err.code, ErrorCode::CatalogUnknownCollection);

    // Drop frees the name; a recreate starts empty on a new kind.
    admin.drop_collection("tenant-2").expect("drop");
    assert_eq!(admin.list_collections().expect("ls").len(), 3);
    let fresh = admin
        .create_collection(spec("tenant-2", Some("kds")))
        .expect("recreate");
    assert_eq!((fresh.kind.as_str(), fresh.len), ("kds", 0));

    handle.shutdown();
    handle.join();
}

#[test]
fn per_collection_answers_agree_with_the_oracle_and_are_unbiased() {
    let catalog = Catalog::<i64>::new();
    let a = dataset(2000, 5);
    let b = dataset(1500, 9);
    let w_data = dataset(1200, 13);
    let weights = irs::datagen::uniform_weights(w_data.len(), 0xBEEF);
    catalog
        .create(
            CollectionSpec::new("trips")
                .kind(KindSpec::Fixed(IndexKind::Ait))
                .data(a.clone())
                .seed(1),
        )
        .expect("trips");
    catalog
        .create(
            CollectionSpec::new("sensors")
                .kind(KindSpec::Fixed(IndexKind::Kds))
                .shards(2)
                .data(b.clone())
                .seed(2),
        )
        .expect("sensors");
    catalog
        .create(
            CollectionSpec::new("wlogs")
                .kind(KindSpec::Fixed(IndexKind::Awit))
                .data(w_data.clone())
                .weights(weights.clone())
                .seed(3),
        )
        .expect("wlogs");

    // Count / search answer from the collection's own data — no
    // cross-tenant bleed, exact oracle agreement.
    for (name, data) in [("trips", &a), ("sensors", &b), ("wlogs", &w_data)] {
        let bf = BruteForce::new(data);
        let workload = irs::datagen::QueryWorkload::from_data(data);
        for q in workload.generate(12, 8.0, 0xA1) {
            let out = catalog
                .run_in(name, &[Query::Count { q }, Query::Search { q }])
                .expect("run_in");
            assert_eq!(
                out[0].as_ref().expect("count"),
                &QueryOutput::Count(bf.range_count(q)),
                "{name} {q:?}"
            );
            match out[1].as_ref().expect("search") {
                QueryOutput::Ids(ids) => {
                    assert_eq!(sorted(ids.clone()), sorted(bf.range_search(q)), "{name}")
                }
                other => panic!("expected Ids, got {other:?}"),
            }
        }
    }

    // Uniform sampling in one collection is chi-square-clean.
    let bf = BruteForce::new(&a);
    let q = mid_size_query(&a, &bf, 0x5EED);
    let support = sorted(bf.range_search(q));
    let out = catalog
        .run_in("trips", &[Query::Sample { q, s: DRAWS }])
        .expect("sample");
    let samples = match out[0].as_ref().expect("sample ok") {
        QueryOutput::Samples(ids) => ids.clone(),
        other => panic!("expected Samples, got {other:?}"),
    };
    assert_eq!(samples.len(), DRAWS);
    let mut counts = vec![0u64; support.len()];
    for id in samples {
        counts[support.binary_search(&id).expect("in support")] += 1;
    }
    let uniform = vec![1.0 / support.len() as f64; support.len()];
    assert!(
        chi_square_uniformity_ok(&counts, DRAWS as u64),
        "uniform sampling through the catalog biased (tv = {:.4})",
        total_variation(&counts, &uniform, DRAWS as u64)
    );

    // Weighted sampling in another collection matches the exact
    // weight-proportional distribution.
    let bfw = BruteForce::new_weighted(&w_data, &weights);
    let q = mid_size_query(&w_data, &bfw, 0xFACE);
    let support = sorted(bfw.range_search(q));
    let mass: f64 = support.iter().map(|&id| weights[id as usize]).sum();
    let expected: Vec<f64> = support
        .iter()
        .map(|&id| weights[id as usize] / mass)
        .collect();
    let out = catalog
        .run_in("wlogs", &[Query::SampleWeighted { q, s: DRAWS }])
        .expect("sample weighted");
    let samples = match out[0].as_ref().expect("weighted ok") {
        QueryOutput::Samples(ids) => ids.clone(),
        other => panic!("expected Samples, got {other:?}"),
    };
    let mut counts = vec![0u64; support.len()];
    for id in samples {
        counts[support.binary_search(&id).expect("in support")] += 1;
    }
    assert!(
        chi_square_ok(&counts, &expected, DRAWS as u64),
        "weighted sampling through the catalog biased (tv = {:.4})",
        total_variation(&counts, &expected, DRAWS as u64)
    );
}

#[test]
fn auto_kind_selection_follows_workload_hints() {
    let catalog = Catalog::<i64>::new();
    let data = dataset(3000, 7);

    // Churning, uniform: the planner must land on an update-capable
    // kind — hints can never strand mutations on a static snapshot.
    let churny = catalog
        .create(
            CollectionSpec::new("churny")
                .kind(KindSpec::Auto(WorkloadHints {
                    update_rate: 0.5,
                    ..WorkloadHints::default()
                }))
                .data(data.clone()),
        )
        .expect("churny");
    assert!(
        churny.kind.capabilities(false).update,
        "churning hints picked the static kind {:?}",
        churny.kind
    );
    // And the pick is live, not just declared: an insert works.
    let outs = catalog
        .apply_in(
            "churny",
            &[Mutation::Insert {
                iv: Interval::new(1, 2),
            }],
        )
        .expect("apply");
    assert!(matches!(outs[0], Ok(UpdateOutput::Inserted(_))));

    // Read-only, uniform: a static kind wins on throughput.
    let coldy = catalog
        .create(
            CollectionSpec::new("coldy")
                .kind(KindSpec::Auto(WorkloadHints::default()))
                .data(data.clone()),
        )
        .expect("coldy");
    assert!(
        !coldy.kind.capabilities(false).update,
        "read-only hints should pick a static kind, got {:?}",
        coldy.kind
    );

    // Weighted churn: the only kind that both updates and samples by
    // weight.
    let weights = irs::datagen::uniform_weights(data.len(), 0xAB);
    let wchurn = catalog
        .create(
            CollectionSpec::new("wchurn")
                .kind(KindSpec::Auto(WorkloadHints {
                    update_rate: 0.3,
                    weighted: true,
                    ..WorkloadHints::default()
                }))
                .data(data.clone())
                .weights(weights),
        )
        .expect("wchurn");
    assert_eq!(wchurn.kind, IndexKind::AwitDynamic);

    // The planner also answers over the wire: `kind: None` is auto, the
    // summary reports the resolved kind and flags the collection.
    let handle = irs::serve(catalog, ("127.0.0.1", 0), None).expect("serve");
    let mut remote = RemoteClient::<i64>::connect(handle.local_addr()).expect("connect");
    let mut wire_spec = spec("wire-churn", None);
    wire_spec.update_rate = 0.4;
    let summary = remote.create_collection(wire_spec).expect("auto create");
    assert!(summary.auto, "planner-chosen collection must be flagged");
    let kind = IndexKind::parse(&summary.kind).expect("resolved kind");
    assert!(kind.capabilities(false).update, "got {kind:?}");
    handle.shutdown();
    handle.join();
}

#[test]
fn online_reindex_mid_churn_preserves_the_global_id_contract() {
    let catalog = Catalog::<i64>::new();
    let data = dataset(2000, 21);
    catalog
        .create(
            CollectionSpec::new("hot")
                .kind(KindSpec::Fixed(IndexKind::Ait))
                .data(data.clone())
                .seed(4),
        )
        .expect("create");
    let handle = irs::serve(catalog.clone(), ("127.0.0.1", 0), None).expect("serve");
    let addr = handle.local_addr();

    // Build-order ids are 0..n; the tracked live set is the oracle.
    let live: Mutex<BTreeMap<ItemId, Interval64>> = Mutex::new(
        data.iter()
            .copied()
            .enumerate()
            .map(|(i, iv)| (i as ItemId, iv))
            .collect(),
    );
    let mut max_issued: ItemId = data.len() as ItemId - 1;

    std::thread::scope(|scope| {
        let live = &live;
        // Churn in a disjoint window: insert 400, remove every other
        // one, while the migration runs. Ids must be strictly fresh.
        let churner = scope.spawn(move || {
            let mut remote = RemoteClient::<i64>::connect(addr).expect("connect");
            let mut max_id: ItemId = 1999;
            for i in 0..400i64 {
                let iv = Interval::new(10_000_000 + i * 50, 10_000_000 + i * 50 + 25);
                let out = remote
                    .apply_in("hot", &[Mutation::Insert { iv }])
                    .expect("insert");
                let id = match out[0] {
                    Ok(UpdateOutput::Inserted(id)) => id,
                    ref other => panic!("insert answered {other:?}"),
                };
                assert!(id > max_id, "id {id} reissued (max so far {max_id})");
                max_id = id;
                live.lock().unwrap().insert(id, iv);
                if i % 2 == 0 {
                    let out = remote
                        .apply_in("hot", &[Mutation::Delete { id }])
                        .expect("delete");
                    assert!(matches!(out[0], Ok(UpdateOutput::Removed)));
                    live.lock().unwrap().remove(&id);
                }
            }
            max_id
        });

        // Mid-churn: migrate AIT → DynamicAwit (both update-capable, so
        // the churn keeps landing after the swap).
        std::thread::sleep(std::time::Duration::from_millis(10));
        let mut admin = RemoteClient::<i64>::connect(addr).expect("connect");
        let info = admin.reindex("hot", "awit-dynamic").expect("reindex");
        assert_eq!(info.kind, "awit-dynamic");
        max_issued = churner.join().expect("churner");
    });

    let live = live.into_inner().unwrap();
    let mut remote = RemoteClient::<i64>::connect(addr).expect("connect");
    let all = Interval::new(i64::MIN, i64::MAX);

    // Post-swap answers are oracle-correct against the tracked live
    // set, across both the original data and the churn window.
    let mut windows: Vec<Interval64> = irs::datagen::QueryWorkload::from_data(&data)
        .generate(6, 8.0, 0xD0)
        .to_vec();
    windows.push(Interval::new(10_000_000, 10_020_000));
    windows.push(all);
    for q in &windows {
        let expect: Vec<ItemId> = live
            .iter()
            .filter(|(_, iv)| iv.overlaps(q))
            .map(|(&id, _)| id)
            .collect();
        let out = remote
            .run_in("hot", &[Query::Count { q: *q }, Query::Search { q: *q }])
            .expect("run_in");
        assert_eq!(count_of(&out[0]), expect.len(), "{q:?}");
        match out[1].as_ref().expect("search") {
            QueryOutput::Ids(ids) => assert_eq!(sorted(ids.clone()), sorted(expect), "{q:?}"),
            other => panic!("expected Ids, got {other:?}"),
        }
    }

    // Seeded replay on the new kind: byte-identical across repeats and
    // across transports (wire vs the in-process handle), samples only
    // from the live set.
    let queries: Vec<Query<i64>> = windows
        .iter()
        .map(|&q| Query::Sample { q, s: 32 })
        .collect();
    let first = remote.run_seeded_in("hot", &queries, 77).expect("replay");
    let second = remote.run_seeded_in("hot", &queries, 77).expect("replay");
    let local = catalog.run_seeded_in("hot", &queries, 77).expect("replay");
    for (i, q) in windows.iter().enumerate() {
        let w1 = first[i].as_ref().expect("wire ok");
        let w2 = second[i].as_ref().expect("wire ok");
        let l = local[i].as_ref().expect("local ok");
        assert_eq!(w1, w2, "replay diverged across repeats for {q:?}");
        assert_eq!(w1, l, "replay diverged across transports for {q:?}");
        if let QueryOutput::Samples(ids) = w1 {
            for &id in ids {
                assert!(
                    live.get(&id).is_some_and(|iv| iv.overlaps(q)),
                    "sampled id {id} not live in {q:?}"
                );
            }
        }
    }

    // The id contract after the swap: old ids still actionable, retired
    // ids stay retired, and the global sequence continues past every id
    // ever issued.
    let victim: ItemId = 0; // issued by the original AIT build
    let out = remote
        .apply_in("hot", &[Mutation::Delete { id: victim }])
        .expect("delete pre-swap id");
    assert!(matches!(out[0], Ok(UpdateOutput::Removed)));
    let out = remote
        .apply_in("hot", &[Mutation::Delete { id: victim }])
        .expect("double delete is a per-mutation error");
    match &out[0] {
        Err(e) => assert_eq!(e.code, ErrorCode::UpdateUnknownId),
        ok => panic!("double delete answered {ok:?}"),
    }
    let out = remote
        .apply_in(
            "hot",
            &[Mutation::Insert {
                iv: Interval::new(5, 6),
            }],
        )
        .expect("insert");
    match out[0] {
        Ok(UpdateOutput::Inserted(id)) => {
            assert!(id > max_issued, "sequence reset: {id} <= {max_issued}")
        }
        ref other => panic!("insert answered {other:?}"),
    }

    handle.shutdown();
    handle.join();
}

/// A weighted collection re-indexed onto its own kind replays its seeded
/// weighted draws byte-identically, so the rebuild source carries every
/// weight exactly. Weights 15 orders of magnitude apart would expose a
/// source that reconstructs them, say by differencing AWIT prefix sums.
#[test]
fn weighted_reindex_onto_the_same_kind_replays_byte_identically() {
    let data = dataset(3000, 57);
    let weights: Vec<f64> = irs::datagen::uniform_weights(data.len(), 0x5CA1E)
        .iter()
        .enumerate()
        .map(|(i, w)| w / 7.0 * if i % 3 == 0 { 1e-9 } else { 1e6 })
        .collect();
    let queries: Vec<Query<i64>> = irs::datagen::QueryWorkload::from_data(&data)
        .generate(8, 8.0, 0xE1)
        .into_iter()
        .map(|q| Query::SampleWeighted { q, s: 64 })
        .collect();
    let catalog = Catalog::<i64>::new();
    for kind in [IndexKind::Awit, IndexKind::AwitDynamic, IndexKind::Kds] {
        for shards in [1, 4] {
            let name = format!("{}-k{shards}", kind.name());
            catalog
                .create(
                    CollectionSpec::new(name.as_str())
                        .kind(KindSpec::Fixed(kind))
                        .data(data.clone())
                        .weights(weights.clone())
                        .shards(shards)
                        .seed(3),
                )
                .expect("create");
            let before = catalog.run_seeded_in(&name, &queries, 11).expect("run");
            assert!(before.iter().all(|out| out.is_ok()), "{name}: {before:?}");
            catalog.reindex(&name, kind, None).expect("reindex");
            let after = catalog.run_seeded_in(&name, &queries, 11).expect("run");
            assert_eq!(before, after, "{name} replayed differently after re-index");
        }
    }
}

#[test]
fn budget_exhaustion_is_a_typed_refusal_never_an_abort() {
    // In-process: an oversized create is refused whole, leaving no
    // residue behind.
    let tiny = Catalog::<i64>::with_budget(4 * 1024);
    let err = tiny
        .create(
            CollectionSpec::new("big")
                .kind(KindSpec::Fixed(IndexKind::Ait))
                .data(dataset(20_000, 3)),
        )
        .expect_err("20k intervals cannot fit a 4 KiB budget");
    assert!(
        matches!(err, CatalogError::BudgetExceeded { .. }),
        "{err:?}"
    );
    assert!(tiny.list().is_empty(), "refused create left residue");
    assert_eq!(tiny.used_bytes(), 0);

    // Over the wire: inserts hit the ceiling as wire code 603, the
    // batch is refused whole, and the server keeps serving.
    let catalog = Catalog::<i64>::with_budget(512 * 1024);
    let handle = irs::serve(catalog, ("127.0.0.1", 0), None).expect("serve");
    let mut remote = RemoteClient::<i64>::connect(handle.local_addr()).expect("connect");
    remote
        .create_collection(spec("a", Some("ait")))
        .expect("create");

    let batch: Vec<Mutation<i64>> = (0..256)
        .map(|i| Mutation::Insert {
            iv: Interval::new(i, i + 5),
        })
        .collect();
    let mut acked = 0usize;
    let refusal = loop {
        match remote.apply_in("a", &batch) {
            Ok(outs) => {
                assert!(outs
                    .iter()
                    .all(|o| matches!(o, Ok(UpdateOutput::Inserted(_)))));
                acked += outs.len();
                assert!(acked <= 200_000, "budget was never enforced");
            }
            Err(e) => break e,
        }
    };
    assert_eq!(refusal.code, ErrorCode::CatalogBudgetExceeded);
    assert_eq!(refusal.code as u16, 603);

    // Refused whole: exactly the acked inserts are live — the refused
    // batch landed nothing.
    let all = Interval::new(i64::MIN, i64::MAX);
    let out = remote
        .run_in("a", &[Query::Count { q: all }])
        .expect("count");
    assert_eq!(count_of(&out[0]), acked);

    // Never an abort: the connection and server stay healthy; reads
    // and deletes (which free space) still pass.
    remote.health().expect("health after refusal");
    let out = remote
        .run_in("a", &[Query::Sample { q: all, s: 8 }])
        .expect("sample");
    assert!(out[0].is_ok());
    let out = remote
        .apply_in("a", &[Mutation::Delete { id: 0 }])
        .expect("deletes pass under a full budget");
    assert!(matches!(out[0], Ok(UpdateOutput::Removed)));

    handle.shutdown();
    handle.join();
}

#[test]
fn catalog_save_load_round_trips_every_collection() {
    let tmp = std::env::temp_dir().join(format!("irs-catalog-rt-{}", std::process::id()));
    let catalog = Catalog::<i64>::with_budget(1 << 30);
    let a = dataset(1500, 41);
    let b = dataset(900, 43);
    let weights = irs::datagen::uniform_weights(b.len(), 0xAB);
    catalog
        .create(
            CollectionSpec::new("alpha")
                .kind(KindSpec::Fixed(IndexKind::Ait))
                .data(a.clone())
                .seed(6),
        )
        .expect("alpha");
    catalog
        .create(
            CollectionSpec::new("beta")
                .kind(KindSpec::Fixed(IndexKind::Awit))
                .data(b.clone())
                .weights(weights)
                .seed(8),
        )
        .expect("beta");
    catalog
        .create(
            CollectionSpec::new("gamma")
                .kind(KindSpec::Auto(WorkloadHints {
                    update_rate: 0.4,
                    ..WorkloadHints::default()
                }))
                .data(a.clone()),
        )
        .expect("gamma");

    // Mutate and re-index before saving, so the manifest must carry the
    // id bookkeeping — not just the data.
    let outs = catalog
        .apply_in(
            "gamma",
            &[
                Mutation::Insert {
                    iv: Interval::new(7, 8),
                },
                Mutation::Insert {
                    iv: Interval::new(9, 10),
                },
                Mutation::Delete { id: 0 },
            ],
        )
        .expect("mutate gamma");
    assert!(outs.iter().all(|o| o.is_ok()));
    catalog
        .reindex("gamma", IndexKind::AwitDynamic, None)
        .expect("reindex gamma");

    catalog.save(&tmp).expect("save");
    let restored = Catalog::<i64>::load(&tmp).expect("load");
    assert_eq!(restored.budget_bytes(), catalog.budget_bytes());

    for info in catalog.list() {
        let r = restored.describe(&info.name).expect("describe");
        assert_eq!(
            (r.kind, r.shards, r.len, r.weighted, r.seed),
            (info.kind, info.shards, info.len, info.weighted, info.seed),
            "{} changed across the round-trip",
            info.name
        );
        // Byte-identical seeded replay, collection by collection.
        let source = if info.name == "beta" { &b } else { &a };
        let queries: Vec<Query<i64>> = irs::datagen::QueryWorkload::from_data(source)
            .generate(8, 8.0, 0xCC)
            .into_iter()
            .map(|q| {
                if info.weighted {
                    Query::SampleWeighted { q, s: 16 }
                } else {
                    Query::Sample { q, s: 16 }
                }
            })
            .collect();
        let x = catalog
            .run_seeded_in(&info.name, &queries, 99)
            .expect("original replay");
        let y = restored
            .run_seeded_in(&info.name, &queries, 99)
            .expect("restored replay");
        for (i, (xo, yo)) in x.iter().zip(&y).enumerate() {
            assert_eq!(
                xo.as_ref().expect("original ok"),
                yo.as_ref().expect("restored ok"),
                "{} query {i} replayed differently",
                info.name
            );
        }
    }

    // The global-id contract survives the restart: the pre-save delete
    // stays retired, and the next insert continues the sequence where
    // the saved catalog left off (1500 build ids + 2 inserts → 1502).
    let outs = restored
        .apply_in("gamma", &[Mutation::Delete { id: 0 }])
        .expect("apply");
    match &outs[0] {
        Err(UpdateError::UnknownId { id: 0 }) => {}
        other => panic!("pre-save retired id answered {other:?}"),
    }
    let outs = restored
        .apply_in(
            "gamma",
            &[Mutation::Insert {
                iv: Interval::new(11, 12),
            }],
        )
        .expect("apply");
    assert_eq!(outs[0], Ok(UpdateOutput::Inserted(1502)));

    std::fs::remove_dir_all(&tmp).ok();
}
