//! Engine correctness: for every `IndexKind` and shard count, the
//! sharded engine must answer exactly like the brute-force oracle — and
//! its cross-shard sampling must be distribution-identical to a single
//! monolithic index (multinomial allocation, Theorem 3 preserved under
//! sharding). All through the fallible `run`/`try_new` API, including
//! the shard-routed mutation path (`apply`/`insert`/`remove`).

use irs::prelude::*;
use irs::sampling::stats::{chi_square_ok, chi_square_uniformity_ok, total_variation};
use irs::BruteForce;

const SHARD_COUNTS: [usize; 3] = [1, 4, 7];
const DRAWS: usize = 120_000;

fn sorted(mut v: Vec<ItemId>) -> Vec<ItemId> {
    v.sort_unstable();
    v
}

fn dataset(n: usize, seed: u64) -> Vec<Interval64> {
    irs::datagen::TAXI.generate(n, seed)
}

fn queries(data: &[Interval64], count: usize, seed: u64) -> Vec<Interval64> {
    let workload = irs::datagen::QueryWorkload::from_data(data);
    let mut qs = Vec::new();
    for extent in [0.5, 8.0, 32.0] {
        qs.extend(workload.generate(count, extent, seed ^ extent.to_bits()));
    }
    qs
}

/// Count / search / stab agree with the oracle for every kind × shard
/// count, and samples always come from `q ∩ X`.
#[test]
fn engine_matches_oracle_for_all_kinds_and_shard_counts() {
    let data = dataset(3000, 11);
    let bf = BruteForce::new(&data);
    let qs = queries(&data, 4, 0xE77);
    for kind in IndexKind::ALL {
        for shards in SHARD_COUNTS {
            let engine = Engine::try_new(
                &data,
                EngineConfig::new(kind)
                    .shards(shards)
                    .seed(1000 + shards as u64),
            )
            .unwrap();
            assert_eq!(engine.shard_count(), shards);
            assert_eq!(engine.len(), data.len());
            for &q in &qs {
                let expect = sorted(bf.range_search(q));
                assert_eq!(
                    sorted(engine.search(q).unwrap()),
                    expect,
                    "{kind} K={shards} search {q:?}"
                );
                assert_eq!(
                    engine.count(q).unwrap(),
                    expect.len(),
                    "{kind} K={shards} count {q:?}"
                );
                assert_eq!(
                    sorted(engine.stab(q.lo).unwrap()),
                    sorted(bf.stab(q.lo)),
                    "{kind} K={shards} stab {:?}",
                    q.lo
                );
                let samples = engine.sample(q, 64).unwrap();
                if expect.is_empty() {
                    // An empty result set is Ok-and-empty, not an error.
                    assert!(
                        samples.is_empty(),
                        "{kind} K={shards}: samples from empty set"
                    );
                } else {
                    assert_eq!(samples.len(), 64, "{kind} K={shards}: short sample");
                    for id in samples {
                        assert!(
                            data[id as usize].overlaps(&q),
                            "{kind} K={shards}: sample {id} outside {q:?}"
                        );
                    }
                }
            }
        }
    }
}

/// Sharded uniform sampling is unbiased: the empirical distribution over
/// the support passes a chi-square uniformity test — i.e. it matches the
/// distribution a single monolithic index produces (which the
/// single-index suites verify to be uniform).
#[test]
fn sharded_uniform_sampling_is_unbiased() {
    let data = dataset(2500, 23);
    let bf = BruteForce::new(&data);
    // A query whose support is big enough to be interesting and small
    // enough for per-bucket expectations to be solid.
    let q = queries(&data, 8, 0x5EED)
        .into_iter()
        .find(|&q| (100..=600).contains(&bf.range_count(q)))
        .expect("workload yields a mid-size support");
    let support = sorted(bf.range_search(q));
    for kind in IndexKind::ALL {
        for shards in SHARD_COUNTS {
            let engine =
                Engine::try_new(&data, EngineConfig::new(kind).shards(shards).seed(77)).unwrap();
            let samples = engine.sample(q, DRAWS).unwrap();
            assert_eq!(samples.len(), DRAWS);
            let mut counts = vec![0u64; support.len()];
            for id in samples {
                let pos = support.binary_search(&id).expect("sample inside support");
                counts[pos] += 1;
            }
            assert!(
                counts.iter().all(|&c| c > 0),
                "{kind} K={shards}: some support member never sampled"
            );
            let uniform = vec![1.0 / support.len() as f64; support.len()];
            assert!(
                chi_square_uniformity_ok(&counts, DRAWS as u64),
                "{kind} K={shards}: sharded uniform sampling biased (tv = {:.4})",
                total_variation(&counts, &uniform, DRAWS as u64)
            );
        }
    }
}

/// Sharded weighted sampling matches the exact weight-proportional
/// distribution for every weighted-capable kind.
#[test]
fn sharded_weighted_sampling_matches_weights() {
    let data = dataset(2500, 31);
    let weights = irs::datagen::uniform_weights(data.len(), 0xBEEF);
    let bf = BruteForce::new_weighted(&data, &weights);
    let q = queries(&data, 8, 0xFACE)
        .into_iter()
        .find(|&q| (100..=600).contains(&bf.range_count(q)))
        .expect("workload yields a mid-size support");
    let support = sorted(bf.range_search(q));
    let mass: f64 = support.iter().map(|&id| weights[id as usize]).sum();
    let expected: Vec<f64> = support
        .iter()
        .map(|&id| weights[id as usize] / mass)
        .collect();
    for kind in [IndexKind::Awit, IndexKind::AwitDynamic, IndexKind::Kds] {
        for shards in SHARD_COUNTS {
            let engine = Engine::try_new_weighted(
                &data,
                &weights,
                EngineConfig::new(kind).shards(shards).seed(99),
            )
            .unwrap();
            let samples = engine.sample_weighted(q, DRAWS).unwrap();
            assert_eq!(samples.len(), DRAWS);
            let mut counts = vec![0u64; support.len()];
            for id in samples {
                let pos = support.binary_search(&id).expect("sample inside support");
                counts[pos] += 1;
            }
            assert!(
                chi_square_ok(&counts, &expected, DRAWS as u64),
                "{kind} K={shards}: sharded weighted sampling off-distribution (tv = {:.4})",
                total_variation(&counts, &expected, DRAWS as u64)
            );
        }
    }
}

/// Capability mismatches surface as typed errors, not wrong answers —
/// and agree with the engine's advertised `Capabilities`.
#[test]
fn unsupported_queries_yield_typed_errors() {
    let data = dataset(500, 41);
    let weights = irs::datagen::uniform_weights(data.len(), 3);
    let q = Interval::new(0, irs::datagen::TAXI.domain_size / 2);

    // AIT / AIT-V cannot sample by weight, no matter how they're built.
    for kind in [IndexKind::Ait, IndexKind::AitV] {
        let engine = Engine::try_new(&data, EngineConfig::new(kind).shards(2)).unwrap();
        assert!(!engine.capabilities().weighted_sample);
        let out = engine.run(&[Query::SampleWeighted { q, s: 5 }]);
        assert!(
            matches!(
                out[0],
                Err(QueryError::UnsupportedOperation {
                    op: Operation::WeightedSample,
                    ..
                })
            ),
            "{kind}: {:?}",
            out[0]
        );
    }

    // An AWIT holding real weights cannot serve *uniform* sampling…
    let awit = Engine::try_new_weighted(
        &data,
        &weights,
        EngineConfig::new(IndexKind::Awit).shards(2),
    )
    .unwrap();
    assert!(!awit.capabilities().uniform_sample);
    assert!(matches!(
        awit.sample(q, 5),
        Err(QueryError::UnsupportedOperation {
            op: Operation::UniformSample,
            ..
        })
    ));
    // …but an unweighted AWIT engine can (weighted ≡ uniform there).
    let awit_uniform =
        Engine::try_new(&data, EngineConfig::new(IndexKind::Awit).shards(2)).unwrap();
    assert!(awit_uniform.capabilities().uniform_sample);
    assert_eq!(awit_uniform.sample(q, 5).unwrap().len(), 5);

    // Kinds built without weights reject weighted sampling as
    // `NotWeighted` — a rebuild-with-weights hint, not a dead end.
    let kds = Engine::try_new(&data, EngineConfig::new(IndexKind::Kds).shards(2)).unwrap();
    assert_eq!(kds.sample_weighted(q, 5), Err(QueryError::NotWeighted));
}

/// Misaligned or invalid weights are rejected at construction with the
/// offending index, before any shard index is built.
#[test]
fn invalid_weights_are_rejected_at_build() {
    let data = dataset(100, 47);
    let config = EngineConfig::new(IndexKind::Awit).shards(2);
    assert_eq!(
        Engine::try_new_weighted(&data, &[1.0; 99], config).err(),
        Some(BuildError::WeightCountMismatch {
            data: 100,
            weights: 99
        })
    );
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -2.0] {
        let mut weights = vec![1.0; 100];
        weights[63] = bad;
        match Engine::try_new_weighted(&data, &weights, config).err() {
            Some(BuildError::InvalidWeight { index: 63, .. }) => {}
            other => panic!("{bad}: expected InvalidWeight at 63, got {other:?}"),
        }
    }
}

/// Mixed batches answer in order, identically to one-by-one execution,
/// and identical seeds replay identically.
#[test]
fn batches_are_ordered_and_seeded_replay_is_exact() {
    let data = dataset(1500, 53);
    let bf = BruteForce::new(&data);
    let qs = queries(&data, 2, 0xAB);
    let engine =
        Engine::try_new(&data, EngineConfig::new(IndexKind::Ait).shards(3).seed(5)).unwrap();
    let mut batch = Vec::new();
    for &q in &qs {
        batch.push(Query::Count { q });
        batch.push(Query::Search { q });
        batch.push(Query::Sample { q, s: 16 });
        batch.push(Query::Stab { p: q.hi });
    }
    let out1 = engine.run_seeded(&batch, 0xD00D);
    let out2 = engine.run_seeded(&batch, 0xD00D);
    assert_eq!(out1, out2, "seeded replay must be exact");
    for (i, &q) in qs.iter().enumerate() {
        let base = i * 4;
        assert_eq!(out1[base], Ok(QueryOutput::Count(bf.range_count(q))));
        assert_eq!(
            sorted(out1[base + 1].as_ref().unwrap().ids().unwrap().to_vec()),
            sorted(bf.range_search(q))
        );
        let samples = out1[base + 2].as_ref().unwrap().samples().unwrap();
        assert!(samples.iter().all(|&id| data[id as usize].overlaps(&q)));
        assert_eq!(
            sorted(out1[base + 3].as_ref().unwrap().ids().unwrap().to_vec()),
            sorted(bf.stab(q.hi))
        );
    }
    // Unseeded runs advance the stream: two sample batches differ.
    let a = engine.sample(qs[0], 32).unwrap();
    let b = engine.sample(qs[0], 32).unwrap();
    assert_ne!(a, b, "independent batches drew identical samples");
}

/// `run_seeded` replay must be byte-identical no matter how many caller
/// threads share the engine: the draw streams depend only on the seed,
/// the batch, and the shard count — never on scheduling. Run the same
/// seeded batch from 1, 2, and 4 concurrent callers (for every sampling
/// kind) and require every result to equal the single-threaded
/// reference. The snapshot half of the replay contract — a loaded
/// engine replays the same bytes — lives in
/// `tests/persistence_roundtrip.rs`.
#[test]
fn seeded_replay_is_identical_across_caller_thread_counts() {
    let data = dataset(2_000, 61);
    let qs = queries(&data, 2, 0xC0);
    for kind in [
        IndexKind::Ait,
        IndexKind::AitV,
        IndexKind::Awit,
        IndexKind::AwitDynamic,
        IndexKind::Kds,
    ] {
        let engine = Engine::try_new(&data, EngineConfig::new(kind).shards(3).seed(17)).unwrap();
        let mut batch = Vec::new();
        for &q in &qs {
            // 100 draws crosses the sampler's draw-chunk boundary, so a
            // chunk-size-dependent RNG consumption bug would show here.
            batch.push(Query::Sample { q, s: 100 });
            batch.push(Query::Count { q });
        }
        let reference = engine.run_seeded(&batch, 0xFEED_F00D);
        for callers in [1usize, 2, 4] {
            let outs: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..callers)
                    .map(|_| {
                        let engine = engine.clone();
                        let batch = &batch;
                        scope.spawn(move || engine.run_seeded(batch, 0xFEED_F00D))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for out in outs {
                assert_eq!(
                    out, reference,
                    "{kind}: seeded replay diverged with {callers} concurrent callers"
                );
            }
        }
    }
}

/// A shared engine must survive concurrent `run` callers — batches now
/// execute concurrently on the calling threads under shared read locks
/// (the deeper stress lives in `tests/concurrent_stress.rs`).
#[test]
fn concurrent_runs_on_shared_engine_complete() {
    let data = dataset(2000, 61);
    let bf = BruteForce::new(&data);
    let engine =
        Engine::try_new(&data, EngineConfig::new(IndexKind::Ait).shards(4).seed(9)).unwrap();
    let qs = queries(&data, 3, 0xCC);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let engine = &engine;
            let qs = &qs;
            let bf = &bf;
            scope.spawn(move || {
                for round in 0..10 {
                    let q = qs[(t + round) % qs.len()];
                    let out = engine.run(&[Query::Sample { q, s: 32 }, Query::Count { q }]);
                    let expect = bf.range_count(q);
                    assert_eq!(out[1], Ok(QueryOutput::Count(expect)));
                    assert_eq!(
                        out[0].as_ref().unwrap().samples().unwrap().len(),
                        if expect == 0 { 0 } else { 32 }
                    );
                }
            });
        }
    });
}

/// More shards than intervals: empty shards must build and answer.
#[test]
fn tiny_datasets_tolerate_excess_shards() {
    let data: Vec<Interval64> = (0..5).map(|i| Interval::new(i * 10, i * 10 + 15)).collect();
    let bf = BruteForce::new(&data);
    for kind in IndexKind::ALL {
        let engine = Engine::try_new(&data, EngineConfig::new(kind).shards(7)).unwrap();
        let q = Interval::new(12, 33);
        assert_eq!(engine.count(q).unwrap(), bf.range_count(q), "{kind}");
        assert_eq!(
            sorted(engine.search(q).unwrap()),
            sorted(bf.range_search(q)),
            "{kind}"
        );
        let s = engine.sample(q, 40).unwrap();
        assert_eq!(s.len(), 40, "{kind}");
        assert!(s.iter().all(|&id| data[id as usize].overlaps(&q)), "{kind}");
    }
}

/// A dead shard worker surfaces as `ShardFailed` on the batch that
/// observes it and on every subsequent batch — and dropping the engine
/// afterwards must not hang on the dead worker's join.
#[test]
fn dead_shard_surfaces_as_error_and_drop_does_not_hang() {
    let data = dataset(800, 71);
    let engine =
        Engine::try_new(&data, EngineConfig::new(IndexKind::Ait).shards(3).seed(13)).unwrap();
    let q = Interval::new(0, irs::datagen::TAXI.domain_size / 2);
    // Healthy first.
    assert!(engine.count(q).is_ok());

    engine.crash_shard_for_tests(1);

    // The next batch reports the dead shard on every query…
    let out = engine.run(&[Query::Count { q }, Query::Sample { q, s: 8 }]);
    for r in &out {
        assert_eq!(r, &Err(QueryError::ShardFailed { shard: 1 }), "{out:?}");
    }
    // …and keeps reporting it (no silent partial answers later).
    assert_eq!(
        engine.sample(q, 4),
        Err(QueryError::ShardFailed { shard: 1 })
    );
    assert_eq!(engine.count(q), Err(QueryError::ShardFailed { shard: 1 }));

    // Drop must return: live workers exit on shutdown, the dead one has
    // already unwound. (A hang here fails the test by timeout.)
    drop(engine);
}

/// Engine-level mutation routing: inserts spread to the least-loaded
/// shard, ids decode back to the owning shard for deletes, and the
/// global-id scheme stays collision-free under churn.
#[test]
fn engine_mutations_route_and_ids_stay_stable() {
    let data = dataset(1000, 83);
    let shards = 4;
    let engine = Engine::try_new(
        &data,
        EngineConfig::new(IndexKind::Ait).shards(shards).seed(3),
    )
    .unwrap();
    assert_eq!(engine.shard_lens().iter().sum::<usize>(), data.len());

    // Inserts balance: after K inserts into balanced shards, every
    // shard gained exactly one.
    let before = engine.shard_lens();
    let ids: Vec<ItemId> = (0..shards)
        .map(|i| {
            engine
                .insert(Interval::new(i as i64 * 10, i as i64 * 10 + 5))
                .unwrap()
        })
        .collect();
    for (k, (&b, a)) in before.iter().zip(engine.shard_lens()).enumerate() {
        assert_eq!(a, b + 1, "shard {k} load after round-robin of inserts");
    }
    // Ids are fresh (no collision with build-time ids) and distinct.
    let mut seen: Vec<ItemId> = ids.clone();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), ids.len());
    for &id in &ids {
        assert!(
            (id as usize) >= data.len(),
            "inserted id {id} collides with build-time ids"
        );
    }

    // Each inserted interval is immediately searchable under its id,
    // and the id routes its delete back to the right shard.
    for (i, &id) in ids.iter().enumerate() {
        let q = Interval::new(i as i64 * 10, i as i64 * 10 + 5);
        assert!(engine.search(q).unwrap().contains(&id));
        assert_eq!(engine.remove(id), Ok(()));
        assert!(!engine.search(q).unwrap().contains(&id));
        // A retired id is gone for good.
        assert_eq!(engine.remove(id), Err(UpdateError::UnknownId { id }));
    }
    assert_eq!(engine.len(), data.len());

    // Batched pooled inserts report ids in input order and stay
    // queryable; mixed `apply` batches answer in order.
    let fresh: Vec<Interval64> = (0..40).map(|i| Interval::new(i * 3, i * 3 + 9)).collect();
    let batch_ids = engine.extend_batch(&fresh).unwrap();
    assert_eq!(batch_ids.len(), fresh.len());
    for (iv, &id) in fresh.iter().zip(&batch_ids) {
        assert!(engine.search(*iv).unwrap().contains(&id), "{iv:?}");
    }
    let out = engine.apply(&[
        Mutation::Insert {
            iv: Interval::new(7, 8),
        },
        Mutation::Delete { id: batch_ids[0] },
        Mutation::Delete { id: 999_999 },
    ]);
    assert!(matches!(out[0], Ok(UpdateOutput::Inserted(_))));
    assert_eq!(out[1], Ok(UpdateOutput::Removed));
    assert_eq!(out[2], Err(UpdateError::UnknownId { id: 999_999 }));
}

/// Mutations on a static kind fail typed without touching any worker,
/// and a dead shard surfaces as `UpdateError::ShardFailed` on the
/// mutation path exactly as `QueryError::ShardFailed` does on queries.
#[test]
fn engine_mutation_errors_are_typed() {
    let data = dataset(400, 89);
    let kds = Engine::try_new(&data, EngineConfig::new(IndexKind::Kds).shards(2)).unwrap();
    assert!(!kds.capabilities().update);
    assert!(matches!(
        kds.insert(Interval::new(1, 2)),
        Err(UpdateError::UnsupportedKind { kind: "kds", .. })
    ));

    // Weighted insert into an unweighted dynamic build: NotWeighted.
    let dyn_uniform =
        Engine::try_new(&data, EngineConfig::new(IndexKind::AwitDynamic).shards(2)).unwrap();
    assert_eq!(
        dyn_uniform.insert_weighted(Interval::new(1, 2), 3.0),
        Err(UpdateError::NotWeighted)
    );
    // Weighted insert into AIT: structurally unsupported.
    let ait = Engine::try_new(&data, EngineConfig::new(IndexKind::Ait).shards(2)).unwrap();
    assert!(matches!(
        ait.insert_weighted(Interval::new(1, 2), 3.0),
        Err(UpdateError::UnsupportedKind { kind: "ait", .. })
    ));
    // Bad weights bounce off the shared gate before any routing.
    let weights = irs::datagen::uniform_weights(data.len(), 5);
    let dyn_weighted = Engine::try_new_weighted(
        &data,
        &weights,
        EngineConfig::new(IndexKind::AwitDynamic).shards(2),
    )
    .unwrap();
    assert_eq!(
        dyn_weighted.insert_weighted(Interval::new(1, 2), -1.0),
        Err(UpdateError::InvalidWeight { value: -1.0 })
    );

    // A dead shard errs mutations with the same persistence as queries.
    let broken =
        Engine::try_new(&data, EngineConfig::new(IndexKind::Ait).shards(3).seed(7)).unwrap();
    broken.crash_shard_for_tests(1);
    let out = broken.apply(&[
        Mutation::Insert {
            iv: Interval::new(0, 1),
        },
        Mutation::Insert {
            iv: Interval::new(2, 3),
        },
        Mutation::Insert {
            iv: Interval::new(4, 5),
        },
    ]);
    assert!(
        out.iter()
            .any(|r| matches!(r, Err(UpdateError::ShardFailed { shard: 1 }))),
        "least-loaded routing must eventually hit the dead shard: {out:?}"
    );

    // `extend_batch` is all-or-nothing: with a dead shard in the mix it
    // errs, rolls back the inserts that landed on healthy shards, and
    // leaves the live count (and the query results) unchanged.
    let len_before = broken.len();
    let batch: Vec<Interval64> = (0..6).map(|i| Interval::new(-1000 + i, -995 + i)).collect();
    let out = broken.extend_batch(&batch);
    assert!(
        matches!(out, Err(UpdateError::ShardFailed { .. })),
        "{out:?}"
    );
    // The inserts that landed on healthy shards were rolled back, so
    // the live count — total and per shard — is unchanged. (Queries
    // can't confirm it: the dead shard errs every batch by design.)
    assert_eq!(broken.len(), len_before, "rollback must restore len");
    assert_eq!(
        broken.shard_lens().iter().sum::<usize>(),
        len_before,
        "per-shard loads must match after rollback: {:?}",
        broken.shard_lens()
    );
}
