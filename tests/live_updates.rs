//! Table VII-style churn suite: the unified API's mutation surface,
//! exercised through the `Client` on both backends for every
//! update-capable kind × shard count in {1, 4, 7}.
//!
//! The script interleaves one-by-one inserts, pooled batch inserts
//! (`extend_batch`), and deletes with live queries, holding a shadow
//! copy of the dataset as the oracle. The contract under test:
//!
//! - an inserted interval is **immediately** searchable and sampleable
//!   under its returned id, on both backends;
//! - a removed id **never appears again** — not in searches, not in
//!   samples — and removing it twice is `UnknownId`;
//! - after arbitrary churn the sampler is still unbiased: chi-square
//!   suites over the live support pass, uniform and weighted.

use irs::prelude::*;
use irs::sampling::stats::{chi_square_ok, chi_square_uniformity_ok, total_variation};
use irs::WalWriter;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;

const SHARD_COUNTS: [usize; 3] = [1, 4, 7];
const DRAWS: usize = 120_000;

fn sorted(mut v: Vec<ItemId>) -> Vec<ItemId> {
    v.sort_unstable();
    v
}

/// Live oracle: id → (interval, weight).
type Shadow = HashMap<ItemId, (Interval64, f64)>;

fn shadow_matches(shadow: &Shadow, q: Interval64) -> Vec<ItemId> {
    sorted(
        shadow
            .iter()
            .filter(|(_, (iv, _))| iv.overlaps(&q))
            .map(|(&id, _)| id)
            .collect(),
    )
}

/// Runs the churn script and all assertions for one configuration.
fn churn(kind: IndexKind, weighted: bool, shards: usize, seed: u64) {
    let n = 1200;
    let data = irs::datagen::TAXI.generate(n, seed);
    let weights = irs::datagen::uniform_weights(n, seed ^ 0xA1);
    let mut builder = Irs::builder().kind(kind).shards(shards).seed(seed);
    if weighted {
        builder = builder.weights(weights.clone());
    }
    let client = builder.build(&data).expect("churn build");
    let caps = client.capabilities();
    assert!(caps.update, "{kind} must claim updates for this suite");

    let mut shadow: Shadow = data
        .iter()
        .enumerate()
        .map(|(i, &iv)| (i as ItemId, (iv, if weighted { weights[i] } else { 1.0 })))
        .collect();

    let mut rng = StdRng::seed_from_u64(seed ^ 0x17);
    let fresh = irs::datagen::TAXI.generate(400, seed ^ 0x99);
    let mut fresh_it = fresh.iter().copied();
    let workload = irs::datagen::QueryWorkload::from_data(&data);
    let probes = workload.generate(4, 8.0, seed ^ 0x33);

    for step in 0..32usize {
        match step % 4 {
            0 => {
                // One-by-one insertion (Algorithm 1's cases).
                for _ in 0..8 {
                    let iv = fresh_it.next().unwrap();
                    let (id, w) = if weighted {
                        let w = 1.0 + (step % 7) as f64;
                        (client.insert_weighted(iv, w).unwrap(), w)
                    } else {
                        (client.insert(iv).unwrap(), 1.0)
                    };
                    assert!(
                        shadow.insert(id, (iv, w)).is_none(),
                        "{kind} K={shards}: id {id} reissued"
                    );
                    // Immediately searchable.
                    assert!(
                        client.search(iv).unwrap().contains(&id),
                        "{kind} K={shards}: fresh insert invisible"
                    );
                }
            }
            1 => {
                // Pooled batch insertion (unit weight on every build).
                let batch: Vec<Interval64> = (&mut fresh_it).take(20).collect();
                let ids = client.extend_batch(&batch).unwrap();
                assert_eq!(ids.len(), batch.len());
                for (&iv, id) in batch.iter().zip(ids) {
                    assert!(
                        shadow.insert(id, (iv, 1.0)).is_none(),
                        "{kind} K={shards}: id {id} reissued by extend_batch"
                    );
                }
            }
            2 => {
                // Deletion, with the retired-id contract.
                for _ in 0..12 {
                    if shadow.is_empty() {
                        break;
                    }
                    let ids: Vec<ItemId> = shadow.keys().copied().collect();
                    let id = ids[rng.random_range(0..ids.len())];
                    let (iv, _) = shadow.remove(&id).unwrap();
                    client.remove(id).unwrap();
                    assert!(
                        !client.search(iv).unwrap().contains(&id),
                        "{kind} K={shards}: removed id {id} still searchable"
                    );
                    assert_eq!(
                        client.remove(id),
                        Err(UpdateError::UnknownId { id }),
                        "{kind} K={shards}: retired id {id} removable twice"
                    );
                }
            }
            _ => {
                // Oracle-agreement probe over the live set.
                for &q in &probes {
                    let expect = shadow_matches(&shadow, q);
                    assert_eq!(
                        sorted(client.search(q).unwrap()),
                        expect,
                        "{kind} w={weighted} K={shards}: search diverged at step {step}"
                    );
                    assert_eq!(
                        client.count(q).unwrap(),
                        expect.len(),
                        "{kind} w={weighted} K={shards}: count diverged at step {step}"
                    );
                    let samples = if caps.uniform_sample {
                        client.sample(q, 32).unwrap()
                    } else {
                        client.sample_weighted(q, 32).unwrap()
                    };
                    assert_eq!(samples.len(), if expect.is_empty() { 0 } else { 32 });
                    for id in samples {
                        assert!(
                            expect.binary_search(&id).is_ok(),
                            "{kind} w={weighted} K={shards}: sampled dead or foreign id {id}"
                        );
                    }
                }
            }
        }
    }
    assert_eq!(client.len(), shadow.len(), "{kind} K={shards}: len drifted");

    // Chi-square unbiasedness over the post-churn live support.
    let q = workload
        .generate(48, 8.0, seed ^ 0x44)
        .into_iter()
        .find(|&q| (80..=700).contains(&shadow_matches(&shadow, q).len()))
        .expect("workload yields a mid-size post-churn support");
    let support = shadow_matches(&shadow, q);
    let samples = if caps.uniform_sample {
        client.sample(q, DRAWS).unwrap()
    } else {
        client.sample_weighted(q, DRAWS).unwrap()
    };
    assert_eq!(samples.len(), DRAWS);
    let mut counts = vec![0u64; support.len()];
    for id in samples {
        let pos = support
            .binary_search(&id)
            .expect("post-churn sample outside live support");
        counts[pos] += 1;
    }
    if caps.uniform_sample {
        assert!(
            chi_square_uniformity_ok(&counts, DRAWS as u64),
            "{kind} w={weighted} K={shards}: post-churn sampling biased (tv = {:.4})",
            total_variation(
                &counts,
                &vec![1.0 / support.len() as f64; support.len()],
                DRAWS as u64
            )
        );
    } else {
        let mass: f64 = support.iter().map(|id| shadow[id].1).sum();
        let expected: Vec<f64> = support.iter().map(|id| shadow[id].1 / mass).collect();
        assert!(
            chi_square_ok(&counts, &expected, DRAWS as u64),
            "{kind} w={weighted} K={shards}: post-churn weighted sampling off (tv = {:.4})",
            total_variation(&counts, &expected, DRAWS as u64)
        );
    }
}

#[test]
fn churn_ait_all_shard_counts() {
    for shards in SHARD_COUNTS {
        churn(IndexKind::Ait, false, shards, 0xA17 + shards as u64);
    }
}

#[test]
fn churn_awit_dynamic_uniform_all_shard_counts() {
    for shards in SHARD_COUNTS {
        churn(IndexKind::AwitDynamic, false, shards, 0xD1A + shards as u64);
    }
}

#[test]
fn churn_awit_dynamic_weighted_all_shard_counts() {
    for shards in SHARD_COUNTS {
        churn(IndexKind::AwitDynamic, true, shards, 0xD1B + shards as u64);
    }
}

/// The mutation APIs behave identically over the two backends: the same
/// script applied to a monolithic and a sharded client yields the same
/// live set (ids differ by routing, the *intervals* agree).
#[test]
fn backends_agree_after_identical_churn() {
    let data = irs::datagen::BOOK.generate(800, 7);
    let fresh = irs::datagen::BOOK.generate(200, 8);
    let q = Interval::new(0, irs::datagen::BOOK.domain_size);
    let mut counts = Vec::new();
    for shards in [1usize, 4] {
        let client = Irs::builder()
            .kind(IndexKind::Ait)
            .shards(shards)
            .seed(9)
            .build(&data)
            .unwrap();
        let ids = client.extend_batch(&fresh).unwrap();
        for &id in ids.iter().step_by(2) {
            client.remove(id).unwrap();
        }
        counts.push(client.count(q).unwrap());
        assert_eq!(
            client.len(),
            data.len() + fresh.len() - ids.len().div_ceil(2)
        );
    }
    assert_eq!(counts[0], counts[1], "backends diverged after churn");
}

/// Every engine insert goes through its shard's insertion pool, so a
/// stream of single `apply(&[Insert])` calls, past twice each shard's
/// pool capacity and interleaved with deletes, crosses pool flushes:
/// the live set still matches the oracle, sampling stays uniform, and a
/// snapshot plus the write-ahead log recovers the exact state.
#[test]
fn single_inserts_cross_pool_flushes() {
    let n = 1200;
    for shards in [1usize, 4] {
        let seed = 0xF1A5 + shards as u64;
        let data = irs::datagen::TAXI.generate(n, seed);
        let engine = Irs::builder()
            .kind(IndexKind::Ait)
            .shards(shards)
            .seed(seed)
            .build(&data)
            .unwrap();
        let dir =
            std::env::temp_dir().join(format!("irs-live-flush-{}-{shards}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (base, after, wal_path) = (dir.join("base"), dir.join("after"), dir.join("log.wal"));
        engine.save(&base).unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        let mut wal = WalWriter::<i64>::create(&wal_path, 1).unwrap();
        let mut logged = |muts: &[Mutation<i64>]| {
            wal.append(None, muts).unwrap();
            engine.apply(muts).pop().unwrap()
        };

        let mut shadow: Shadow = (0..).zip(&data).map(|(id, &iv)| (id, (iv, 1.0))).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x17);
        let workload = irs::datagen::QueryWorkload::from_data(&data);
        let probes = workload.generate(3, 8.0, seed ^ 0x33);
        let fresh = irs::datagen::TAXI.generate(400 * shards, seed ^ 0x99);
        let mut inserted_per_shard = vec![0usize; shards];
        for (step, &iv) in fresh.iter().enumerate() {
            let Ok(UpdateOutput::Inserted(id)) = logged(&[Mutation::Insert { iv }]) else {
                panic!("K={shards}: insert {step} failed");
            };
            assert!(shadow.insert(id, (iv, 1.0)).is_none(), "id {id} reissued");
            inserted_per_shard[id as usize % shards] += 1;
            if step % 3 == 2 {
                let ids: Vec<ItemId> = shadow.keys().copied().collect();
                let id = ids[rng.random_range(0..ids.len())];
                shadow.remove(&id);
                assert_eq!(
                    logged(&[Mutation::Delete { id }]),
                    Ok(UpdateOutput::Removed)
                );
            }
            if step % 101 == 0 {
                for &q in &probes {
                    let expect = shadow_matches(&shadow, q);
                    assert_eq!(sorted(engine.search(q).unwrap()), expect, "K={shards}");
                    assert_eq!(engine.count(q).unwrap(), expect.len(), "K={shards}");
                    let stabbed = shadow_matches(&shadow, Interval::point(q.lo));
                    assert_eq!(sorted(engine.stab(q.lo).unwrap()), stabbed, "K={shards}");
                    for id in engine.sample(q, 32).unwrap() {
                        assert!(
                            expect.binary_search(&id).is_ok(),
                            "K={shards}: sampled {id}"
                        );
                    }
                }
            }
        }
        assert_eq!(engine.len(), shadow.len(), "K={shards}: len drifted");

        // Uniform over the live support after the flushes.
        let q = workload
            .generate(48, 8.0, seed ^ 0x44)
            .into_iter()
            .find(|&q| (80..=700).contains(&shadow_matches(&shadow, q).len()))
            .expect("workload yields a mid-size post-churn support");
        let support = shadow_matches(&shadow, q);
        let mut counts = vec![0u64; support.len()];
        for id in engine.sample(q, DRAWS).unwrap() {
            counts[support
                .binary_search(&id)
                .expect("sample outside live support")] += 1;
        }
        assert!(
            chi_square_uniformity_ok(&counts, DRAWS as u64),
            "K={shards}: sampling biased after pool flushes"
        );

        // Each shard took over twice its pool's capacity in inserts and
        // still holds less than one pool: the pool flushed.
        engine.save(&after).unwrap();
        let manifest = irs::inspect_snapshot(&after).unwrap().manifest;
        for (k, &inserted) in inserted_per_shard.iter().enumerate() {
            use irs::Codec;
            let shard = irs_engine::persist::read_shard_payload(&after, &manifest, k).unwrap();
            let ait =
                Ait::<i64>::decode(&mut irs_core::persist::Reader::new(shard.payload())).unwrap();
            assert!(inserted > 2 * ait.pool_capacity(), "K={shards} shard {k}");
            assert!(ait.pool_len() < ait.pool_capacity(), "K={shards} shard {k}");
        }

        // The pre-churn snapshot plus the log replays to the same state.
        let (recovered, _, _) = Engine::<i64>::recover(&base, &wal_path).unwrap();
        let batch: Vec<Query<i64>> = probes
            .iter()
            .flat_map(|&q| [Query::Sample { q, s: 64 }, Query::Count { q }])
            .collect();
        assert_eq!(
            recovered.run_seeded(&batch, 0x5EED),
            engine.run_seeded(&batch, 0x5EED),
            "K={shards}: recovery diverged from the live engine"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Deleting an id the shard never issued is `UnknownId`, whether or not
/// the shard's live table is seeded yet, and however far past its end.
#[test]
fn ids_past_the_live_table_are_unknown() {
    let data = irs::datagen::TAXI.generate(200, 5);
    for shards in [1usize, 4] {
        let engine = Irs::builder()
            .kind(IndexKind::Ait)
            .shards(shards)
            .build(&data)
            .unwrap();
        // The first remove seeds the table; this one asks past its end.
        assert_eq!(
            engine.remove(10_000),
            Err(UpdateError::UnknownId { id: 10_000 })
        );
        engine.remove(3).unwrap();
        let id = engine.insert(Interval::new(7, 9)).unwrap();
        for unknown in [id + shards as ItemId, 1 << 30, ItemId::MAX] {
            assert_eq!(
                engine.remove(unknown),
                Err(UpdateError::UnknownId { id: unknown }),
                "K={shards}"
            );
        }
        engine.remove(id).unwrap();
        assert_eq!(engine.len(), data.len() - 1);
    }
}
