//! Concurrency stress: the engine (and the client facade over it) is a
//! shared, clonable service — many caller threads run query batches
//! concurrently against one set of shards, mutations interleave through
//! the writer path, and none of it may deadlock, poison a lock, bias
//! the sampling distribution, or blur the failure model.
//!
//! CI runs this suite in release mode under a watchdog timeout, so a
//! deadlock fails the job instead of hanging it.

use irs::prelude::*;
use irs::sampling::stats::{chi_square_uniformity_ok, total_variation};
use irs::BruteForce;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

const CALLERS: usize = 8;

fn dataset(n: usize, seed: u64) -> Vec<Interval64> {
    irs::datagen::TAXI.generate(n, seed)
}

fn sorted(mut v: Vec<ItemId>) -> Vec<ItemId> {
    v.sort_unstable();
    v
}

/// A query with a support size that makes per-bucket chi-square
/// expectations solid.
fn mid_size_query(data: &[Interval64], bf: &BruteForce<i64>, seed: u64) -> Interval64 {
    irs::datagen::QueryWorkload::from_data(data)
        .generate(64, 4.0, seed)
        .into_iter()
        .find(|&q| (80..=500).contains(&bf.range_count(q)))
        .expect("workload yields a mid-size support")
}

/// Compile-time contract: engine and client handles are shareable and
/// clonable across threads.
#[test]
fn handles_are_clone_send_sync() {
    fn assert_service<T: Clone + Send + Sync>() {}
    assert_service::<Engine<i64>>();
    assert_service::<Client<i64>>();
}

/// N caller threads hammer one engine with mixed batches: every
/// non-sampling answer must agree with the oracle, every sample must
/// come from `q ∩ X`, and the draws *pooled across all concurrent
/// callers* must stay unbiased (chi-square) — concurrency must not
/// skew the distribution.
#[test]
fn concurrent_mixed_batches_agree_with_oracle_and_stay_unbiased() {
    let data = dataset(2500, 0xC0);
    let bf = BruteForce::new(&data);
    let q_chi = mid_size_query(&data, &bf, 0x51);
    let support = sorted(bf.range_search(q_chi));
    let qs = irs::datagen::QueryWorkload::from_data(&data).generate(6, 8.0, 0xAB);
    for kind in [IndexKind::Ait, IndexKind::AitV, IndexKind::Kds] {
        let engine =
            Engine::try_new(&data, EngineConfig::new(kind).shards(4).seed(0xFEED)).unwrap();
        let pooled = Mutex::new(vec![0u64; support.len()]);
        let draws_per_caller = 6_000usize;
        std::thread::scope(|scope| {
            for t in 0..CALLERS {
                // Clone the handle into the thread — genuine shared
                // ownership, not scoped borrowing.
                let handle = engine.clone();
                let (bf, qs, data) = (&bf, &qs, &data);
                let (pooled, support) = (&pooled, &support);
                scope.spawn(move || {
                    let mut local = vec![0u64; support.len()];
                    for round in 0..10 {
                        let q = qs[(t + round) % qs.len()];
                        let out = handle.run(&[
                            Query::Count { q },
                            Query::Search { q },
                            Query::Sample { q, s: 16 },
                            Query::Stab { p: q.lo },
                        ]);
                        let expect = sorted(bf.range_search(q));
                        assert_eq!(out[0], Ok(QueryOutput::Count(expect.len())));
                        assert_eq!(
                            sorted(out[1].as_ref().unwrap().ids().unwrap().to_vec()),
                            expect
                        );
                        for &id in out[2].as_ref().unwrap().samples().unwrap() {
                            assert!(data[id as usize].overlaps(&q), "{kind}: stray sample");
                        }
                        assert_eq!(
                            sorted(out[3].as_ref().unwrap().ids().unwrap().to_vec()),
                            sorted(bf.stab(q.lo))
                        );
                    }
                    // The chi-square leg: every caller draws from the
                    // same query concurrently.
                    let samples = handle.sample(q_chi, draws_per_caller).unwrap();
                    assert_eq!(samples.len(), draws_per_caller);
                    for id in samples {
                        let pos = support.binary_search(&id).expect("sample inside support");
                        local[pos] += 1;
                    }
                    let mut pooled = pooled.lock().unwrap();
                    for (p, l) in pooled.iter_mut().zip(&local) {
                        *p += l;
                    }
                });
            }
        });
        let counts = pooled.into_inner().unwrap();
        let draws = (CALLERS * draws_per_caller) as u64;
        let uniform = vec![1.0 / support.len() as f64; support.len()];
        assert!(
            chi_square_uniformity_ok(&counts, draws),
            "{kind}: concurrent sampling biased (tv = {:.4})",
            total_variation(&counts, &uniform, draws)
        );
    }
}

/// `run_seeded` is a pure function of (data, batch, seed): the result
/// is byte-identical whether one thread calls it or eight threads call
/// it simultaneously — with unseeded traffic running alongside to
/// perturb any shared state that shouldn't exist.
#[test]
fn seeded_runs_are_byte_identical_under_concurrency() {
    let data = dataset(2000, 0xD1);
    let engine =
        Engine::try_new(&data, EngineConfig::new(IndexKind::Ait).shards(3).seed(4)).unwrap();
    let qs = irs::datagen::QueryWorkload::from_data(&data).generate(4, 8.0, 0x11);
    let mut batch = Vec::new();
    for &q in &qs {
        batch.push(Query::Sample { q, s: 32 });
        batch.push(Query::Count { q });
        batch.push(Query::SampleWeighted { q, s: 8 }); // typed error, same every time
    }
    let reference = engine.run_seeded(&batch, 0xBEEF_CAFE);
    std::thread::scope(|scope| {
        for _ in 0..CALLERS {
            let handle = engine.clone();
            let (batch, reference) = (&batch, &reference);
            scope.spawn(move || {
                for _ in 0..20 {
                    assert_eq!(&handle.run_seeded(batch, 0xBEEF_CAFE), reference);
                }
            });
        }
        // Perturbation traffic: unseeded batches advancing the engine's
        // own stream concurrently.
        let noisy = engine.clone();
        let qs = &qs;
        scope.spawn(move || {
            for &q in qs.iter().cycle().take(50) {
                let _ = noisy.run(&[Query::Sample { q, s: 16 }]);
            }
        });
    });
    // And once more, alone, after all the concurrency.
    assert_eq!(engine.run_seeded(&batch, 0xBEEF_CAFE), reference);
}

/// Churn on the update-capable kinds while reader threads query
/// continuously (no barrier between them): readers must only ever see
/// `Ok` answers over intervals that exist, and after the churn settles
/// the engine must agree with the oracle over the final live set and
/// still sample unbiasedly — locks unpoisoned, nothing deadlocked.
#[test]
fn concurrent_queries_interleaved_with_churn() {
    // All inserted intervals share this geometry, so readers can
    // validate sampled ids they have no table for: any id beyond the
    // build-time id space is this interval.
    const INS: (i64, i64) = (5_000_000, 6_000_000);
    let data = dataset(2000, 0xE0);
    let n = data.len();
    let qs = irs::datagen::QueryWorkload::from_data(&data).generate(5, 8.0, 0x33);
    for kind in [IndexKind::Ait, IndexKind::AwitDynamic] {
        let engine = Engine::try_new(&data, EngineConfig::new(kind).shards(4).seed(9)).unwrap();
        let rounds = 12usize;
        let done = AtomicUsize::new(0);
        let live_inserted = std::thread::scope(|scope| {
            // Writer: each round, insert a pooled batch and remove half
            // of the previous round's inserts — sustained churn.
            let writer = engine.clone();
            let done_flag = &done;
            let writer_thread = scope.spawn(move || {
                let mut live: Vec<ItemId> = Vec::new();
                for round in 0..rounds {
                    let fresh: Vec<Interval64> =
                        (0..24).map(|_| Interval::new(INS.0, INS.1)).collect();
                    let ids = writer.extend_batch(&fresh).unwrap();
                    for &id in &ids {
                        assert!(id as usize >= n, "insert id collided with build ids");
                    }
                    let keep = ids.len() / 2;
                    for &id in &ids[keep..] {
                        writer.remove(id).unwrap();
                    }
                    live.extend_from_slice(&ids[..keep]);
                    if round % 3 == 0 {
                        // One-by-one path too.
                        live.push(writer.insert(Interval::new(INS.0, INS.1)).unwrap());
                    }
                }
                done_flag.store(1, Ordering::SeqCst);
                live
            });
            // Readers: continuous mixed traffic, validated against
            // invariants that hold at every churn state.
            for t in 0..4 {
                let handle = engine.clone();
                let (data, qs, done_flag) = (&data, &qs, &done);
                scope.spawn(move || {
                    let ins_iv = Interval::new(INS.0, INS.1);
                    let mut round = 0usize;
                    while done_flag.load(Ordering::SeqCst) == 0 || round < 5 {
                        let q = qs[(t + round) % qs.len()];
                        round += 1;
                        let out = handle.run(&[
                            Query::Count { q },
                            Query::Sample { q, s: 8 },
                            Query::Search { q },
                        ]);
                        let count = out[0].as_ref().unwrap().count().unwrap();
                        // Build data never churns, so the count is at
                        // least the static support (inserts only add).
                        let static_support = data.iter().filter(|iv| iv.overlaps(&q)).count();
                        assert!(count >= static_support, "count lost static intervals");
                        for &id in out[1].as_ref().unwrap().samples().unwrap() {
                            let iv = if (id as usize) < n {
                                data[id as usize]
                            } else {
                                ins_iv
                            };
                            assert!(iv.overlaps(&q), "sample outside query under churn");
                        }
                        for &id in out[2].as_ref().unwrap().ids().unwrap() {
                            let iv = if (id as usize) < n {
                                data[id as usize]
                            } else {
                                ins_iv
                            };
                            assert!(iv.overlaps(&q), "search hit outside query under churn");
                        }
                    }
                });
            }
            writer_thread.join().unwrap()
        });

        // Churn settled: full oracle agreement over the final live set…
        let ins_iv = Interval::new(INS.0, INS.1);
        let live_data: Vec<Interval64> = data
            .iter()
            .copied()
            .chain(live_inserted.iter().map(|_| ins_iv))
            .collect();
        let bf = BruteForce::new(&live_data);
        assert_eq!(engine.len(), live_data.len(), "{kind}: len after churn");
        for &q in &qs {
            assert_eq!(engine.count(q).unwrap(), bf.range_count(q), "{kind} {q:?}");
            assert_eq!(
                engine.search(q).unwrap().len(),
                bf.range_count(q),
                "{kind} {q:?}"
            );
        }
        // …and post-churn sampling is still unbiased over a support
        // that mixes build-time and inserted intervals.
        let q = Interval::new(INS.0 - 1_000_000, INS.0 + 1_000);
        let expect = bf.range_count(q);
        if expect >= 20 {
            let draws = 40_000usize;
            let samples = engine.sample(q, draws).unwrap();
            assert_eq!(samples.len(), draws);
            let mut by_inserted = [0u64; 2];
            for id in &samples {
                by_inserted[usize::from(*id as usize >= n)] += 1;
            }
            let inserted_frac = live_inserted.len() as f64 / expect as f64;
            let observed = by_inserted[1] as f64 / draws as f64;
            assert!(
                (observed - inserted_frac).abs() < 0.02,
                "{kind}: inserted mass {observed:.3} vs expected {inserted_frac:.3}"
            );
        }
    }
}

/// A crashed shard fails *deterministically* under concurrent callers:
/// once the crash hook returns, every batch from every thread — queries
/// and mutations alike — reports `ShardFailed` for the dead shard, no
/// caller deadlocks, and dropping the last handle returns.
#[test]
fn crashed_shard_is_deterministic_under_concurrent_callers() {
    let data = dataset(900, 0xF7);
    let engine =
        Engine::try_new(&data, EngineConfig::new(IndexKind::Ait).shards(3).seed(2)).unwrap();
    let q = Interval::new(0, irs::datagen::TAXI.domain_size / 2);
    assert!(engine.count(q).is_ok());

    // Crash while queries are in flight from other threads.
    std::thread::scope(|scope| {
        for _ in 0..CALLERS {
            let handle = engine.clone();
            scope.spawn(move || {
                for _ in 0..30 {
                    for r in handle.run(&[Query::Count { q }, Query::Sample { q, s: 4 }]) {
                        // Mid-crash a batch either completes or reports
                        // the dead shard — never a partial/wrong answer
                        // (oracle agreement is pinned elsewhere), never
                        // a panic or hang.
                        if let Err(e) = r {
                            assert_eq!(e, QueryError::ShardFailed { shard: 1 });
                        }
                    }
                }
            });
        }
        engine.crash_shard_for_tests(1);
        // The hook has returned: from here on, *every* result from
        // *every* thread is the dead-shard error.
        for _ in 0..4 {
            let handle = engine.clone();
            scope.spawn(move || {
                for _ in 0..10 {
                    for r in handle.run(&[Query::Sample { q, s: 4 }, Query::Stab { p: q.lo }]) {
                        assert_eq!(r, Err(QueryError::ShardFailed { shard: 1 }));
                    }
                    // Mutations routed to the dead shard err typed too;
                    // concurrent writers must not deadlock on the seat.
                    let out = handle.apply(&[
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
                    assert!(out
                        .iter()
                        .any(|r| matches!(r, Err(UpdateError::ShardFailed { shard: 1 }))));
                }
            });
        }
    });
    assert_eq!(engine.count(q), Err(QueryError::ShardFailed { shard: 1 }));
    // Drop of the last handles must not hang on the dead worker.
    drop(engine);
}

/// The clonable `Client` front end: clones moved into threads share one
/// backend; queries run concurrently and mutations serialize through
/// the writer seat, at one shard and at many.
#[test]
fn client_clones_share_one_backend_across_threads() {
    let data = dataset(1500, 0xAA);
    let bf = BruteForce::new(&data);
    let qs = irs::datagen::QueryWorkload::from_data(&data).generate(4, 8.0, 0x77);
    for shards in [1usize, 4] {
        let client = Irs::builder()
            .kind(IndexKind::Ait)
            .shards(shards)
            .seed(3)
            .build(&data)
            .unwrap();
        let inserted = Mutex::new(Vec::<ItemId>::new());
        std::thread::scope(|scope| {
            for t in 0..CALLERS {
                let handle = client.clone();
                let (bf, qs) = (&bf, &qs);
                let inserted = &inserted;
                scope.spawn(move || {
                    for round in 0..8 {
                        let q = qs[(t + round) % qs.len()];
                        // Queries through a clone, concurrently…
                        assert!(handle.count(q).unwrap() >= bf.range_count(q));
                        assert!(!handle.sample(q, 8).unwrap().is_empty() || bf.range_count(q) == 0);
                        // …and the odd mutation through the writer
                        // seat, serialized across clones.
                        if t == round {
                            let id = handle
                                .writer()
                                .insert(Interval::new(-10_000, -9_000))
                                .unwrap();
                            inserted.lock().unwrap().push(id);
                        }
                        // Empty batches return immediately, locks or no.
                        assert!(handle.run(&[]).is_empty());
                    }
                });
            }
        });
        let ids = inserted.into_inner().unwrap();
        let mut deduped = ids.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), ids.len(), "K={shards}: duplicate ids issued");
        assert_eq!(client.len(), data.len() + ids.len(), "K={shards}");
        let found = client.search(Interval::new(-10_000, -9_000)).unwrap();
        assert_eq!(sorted(found), sorted(ids), "K={shards}");
    }
}

/// `Client::stats()` (every wire `Stats` request) never waits behind a
/// mutation: while one thread is inside a long mutation batch — which
/// holds the engine's writer lock end to end — another keeps getting
/// stats back. No wall-clock threshold: the evidence is a count of
/// `stats()` calls that *returned* before the batch did. A `stats()`
/// that took the writer lock could return at most the call or two that
/// slipped in before the batch acquired it, however slow the host.
#[test]
fn stats_return_while_a_mutation_batch_is_in_flight() {
    const DURING: usize = 16;
    let data = dataset(2000, 0x57);
    let fresh = dataset(2000, 0x58);
    let muts: Vec<Mutation<i64>> = fresh.iter().map(|&iv| Mutation::Insert { iv }).collect();
    for shards in [1usize, 4] {
        // A fresh client per round, so every round's batch is the same
        // long run of one-by-one tree insertions. One round passes
        // unless the polling thread was descheduled for the whole
        // batch, so a few rounds make a false alarm vanishingly rare.
        let mut best = 0;
        for _round in 0..8 {
            let client = Irs::builder()
                .kind(IndexKind::Ait)
                .shards(shards)
                .build(&data)
                .unwrap();
            let (started, done) = (AtomicBool::new(false), AtomicBool::new(false));
            let during = std::thread::scope(|scope| {
                let mut writer = client.clone();
                let (muts, started, done) = (&muts, &started, &done);
                scope.spawn(move || {
                    started.store(true, Ordering::SeqCst);
                    let results = writer.apply(muts);
                    done.store(true, Ordering::SeqCst);
                    assert!(results.iter().all(Result::is_ok));
                });
                while !started.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                let mut during = 0;
                while !done.load(Ordering::SeqCst) {
                    let stats = client.stats();
                    assert_eq!(stats.shards, shards);
                    assert_eq!(stats.shard_lens.len(), shards);
                    if !done.load(Ordering::SeqCst) {
                        during += 1;
                    }
                }
                during
            });
            let stats = client.stats();
            assert_eq!(stats.len, data.len() + fresh.len(), "K={shards}");
            assert_eq!(stats.shard_lens.iter().sum::<usize>(), stats.len);
            best = best.max(during);
            if best >= DURING {
                break;
            }
        }
        assert!(
            best >= DURING,
            "K={shards}: at most {best} stats() calls returned during a mutation batch — \
             stats() is waiting behind the writer lock"
        );
    }
}

/// Empty batches return immediately — even on an engine whose every
/// shard is dead, where any lock or channel touch would surface as an
/// error (the deterministic dead-shard check runs *after* the
/// empty-batch fast path).
#[test]
fn empty_batch_short_circuits_before_any_shared_state() {
    let data = dataset(300, 0x1C);
    let engine =
        Engine::try_new(&data, EngineConfig::new(IndexKind::Ait).shards(2).seed(1)).unwrap();
    engine.crash_shard_for_tests(0);
    engine.crash_shard_for_tests(1);
    assert!(engine.run(&[]).is_empty());
    assert!(engine.run_seeded(&[], 7).is_empty());
    // Non-empty batches still fail loudly, proving the engine really is
    // dead and the empty-batch result was the fast path, not luck.
    let q = Interval::new(0, 100);
    assert_eq!(engine.count(q), Err(QueryError::ShardFailed { shard: 0 }));

    for shards in [1usize, 3] {
        let client = Irs::builder()
            .kind(IndexKind::Ait)
            .shards(shards)
            .build(&data)
            .unwrap();
        assert!(client.run(&[]).is_empty());
        assert!(client.run_seeded(&[], 9).is_empty());
    }
}

/// `SampleStream::draw_into` refills a caller-owned buffer in place:
/// chunk-sized refills, buffer capacity reused, draws identical in
/// distribution to the iterator path, and a clean end-of-stream
/// contract (empty buffer, no error) on an empty support.
#[test]
fn sample_stream_draw_into_reuses_buffers() {
    let data = dataset(2000, 0x2D);
    let bf = BruteForce::new(&data);
    let q = mid_size_query(&data, &bf, 0x91);
    let support = sorted(bf.range_search(q));
    for shards in [1usize, 4] {
        let client = Irs::builder()
            .kind(IndexKind::Ait)
            .shards(shards)
            .seed(41)
            .build(&data)
            .unwrap();
        let mut stream = client.sample_stream(q).unwrap().with_chunk(256);
        let mut buf: Vec<ItemId> = Vec::new();
        let mut counts = vec![0u64; support.len()];
        let mut total = 0u64;
        let mut peak_capacity = 0usize;
        for round in 0..160 {
            // Mix iterator pulls in: handover must not drop draws.
            if round % 16 == 0 {
                let head = stream.next().expect("stream is unbounded");
                let pos = support.binary_search(&head).expect("inside support");
                counts[pos] += 1;
                total += 1;
            }
            stream.draw_into(&mut buf);
            assert_eq!(buf.len(), 256, "K={shards}: short chunk");
            for &id in &buf {
                let pos = support.binary_search(&id).expect("inside support");
                counts[pos] += 1;
            }
            total += buf.len() as u64;
            if round == 4 {
                peak_capacity = buf.capacity();
            } else if round > 4 {
                assert_eq!(
                    buf.capacity(),
                    peak_capacity,
                    "K={shards}: buffer reallocated in steady state"
                );
            }
        }
        assert!(stream.error().is_none());
        assert!(
            chi_square_uniformity_ok(&counts, total),
            "K={shards}: draw_into distribution biased"
        );

        // Empty support: one empty refill ends the stream, no error.
        let mut empty = client
            .sample_stream(Interval::new(-9_000_000, -8_000_000))
            .unwrap();
        let mut out = vec![0 as ItemId; 4]; // pre-filled: must be cleared
        empty.draw_into(&mut out);
        assert!(out.is_empty());
        assert!(empty.error().is_none());
        assert_eq!(empty.next(), None);
    }
}
