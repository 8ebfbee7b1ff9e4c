//! Golden vectors for seeded replay, so the bytes `run_seeded` returns
//! can never drift silently: a literal dataset, one mixed batch, and
//! the literal answers for `ait` and weighted `awit-dynamic` at
//! K ∈ {1, 4}. A second, larger case pins the weighted kinds on record
//! windows of thousands of entries, as a length plus a digest per
//! output.
//!
//! The K = 4 vectors were generated at the commit before the client's
//! monolithic backend was removed and have not changed since the engine
//! first shipped. The K = 1 vectors are **replay version 2** (see
//! `DESIGN.md`, "Determinism"): a 1-shard backend now derives its draw
//! streams exactly as a K-shard one does (they are the bytes a 1-shard
//! `Engine` has always returned), where version 1 seeded the single
//! index's stream with the caller's seed itself. Changing any vector
//! here is a replay-version bump: document it, never "fix" it.

use irs::prelude::*;
use irs::QueryOutput::{Count, Ids, Samples};

const DATA: [(i64, i64); 24] = [
    (3, 41),
    (10, 12),
    (18, 77),
    (20, 20),
    (22, 58),
    (25, 31),
    (27, 90),
    (30, 33),
    (34, 36),
    (35, 64),
    (38, 39),
    (40, 71),
    (42, 47),
    (44, 44),
    (45, 88),
    (49, 53),
    (50, 50),
    (52, 69),
    (55, 60),
    (57, 95),
    (61, 63),
    (66, 70),
    (72, 99),
    (80, 85),
];

const WEIGHTS: [f64; 24] = [
    1.0, 2.0, 0.5, 4.0, 1.5, 3.0, 0.25, 2.5, 1.0, 6.0, 0.75, 1.25, 2.0, 8.0, 0.5, 1.0, 3.5, 2.25,
    1.0, 0.125, 5.0, 1.75, 1.0, 2.0,
];

const SEED: u64 = 0x5EED_2024;

/// Count, sample, search, stab, sample: two sampling queries, so the
/// second one's draws also pin how far the first advanced each stream.
fn batch(weighted: bool) -> Vec<Query<i64>> {
    let sample = |q, s| {
        if weighted {
            Query::SampleWeighted { q, s }
        } else {
            Query::Sample { q, s }
        }
    };
    vec![
        Query::Count {
            q: Interval::new(20, 70),
        },
        sample(Interval::new(20, 70), 12),
        Query::Search {
            q: Interval::new(40, 45),
        },
        Query::Stab { p: 50 },
        sample(Interval::new(60, 100), 6),
    ]
}

fn golden(kind: IndexKind, shards: usize) -> Vec<QueryOutput> {
    match (kind, shards) {
        (IndexKind::Ait, 1) => vec![
            Count(21),
            Samples(vec![20, 9, 13, 12, 19, 17, 14, 10, 9, 10, 3, 13]),
            Ids(vec![2, 4, 6, 9, 11, 14, 0, 12, 13]),
            Ids(vec![15, 4, 9, 11, 2, 14, 6, 16]),
            Samples(vec![21, 2, 6, 23, 23, 22]),
        ],
        (IndexKind::Ait, 4) => vec![
            Count(21),
            Samples(vec![13, 8, 14, 17, 20, 20, 2, 19, 12, 3, 16, 9]),
            Ids(vec![4, 12, 0, 9, 13, 2, 6, 14, 11]),
            Ids(vec![4, 16, 9, 2, 6, 14, 11, 15]),
            Samples(vec![23, 20, 19, 18, 22, 22]),
        ],
        (IndexKind::AwitDynamic, 1) => vec![
            Count(21),
            Samples(vec![20, 9, 3, 5, 9, 0, 13, 9, 16, 20, 18, 3]),
            Ids(vec![2, 4, 6, 9, 11, 14, 0, 12, 13]),
            Ids(vec![15, 4, 9, 11, 2, 14, 6, 16]),
            Samples(vec![21, 18, 22, 9, 22, 20]),
        ],
        (IndexKind::AwitDynamic, 4) => vec![
            Count(21),
            Samples(vec![0, 16, 9, 13, 20, 4, 21, 18, 12, 3, 16, 9]),
            Ids(vec![4, 12, 0, 9, 13, 2, 6, 14, 11]),
            Ids(vec![4, 16, 9, 2, 6, 14, 11, 15]),
            Samples(vec![11, 20, 6, 17, 9, 9]),
        ],
        other => panic!("no golden vector for {other:?}"),
    }
}

#[test]
fn seeded_replay_matches_the_golden_vectors() {
    let data: Vec<Interval64> = DATA.iter().map(|&(lo, hi)| Interval::new(lo, hi)).collect();
    for (kind, weighted) in [(IndexKind::Ait, false), (IndexKind::AwitDynamic, true)] {
        for shards in [1usize, 4] {
            let expect: Vec<Result<QueryOutput, QueryError>> =
                golden(kind, shards).into_iter().map(Ok).collect();
            let queries = batch(weighted);

            let mut builder = Irs::builder().kind(kind).shards(shards).seed(9);
            if weighted {
                builder = builder.weights(WEIGHTS.to_vec());
            }
            let client = builder.build(&data).unwrap();
            assert_eq!(
                client.run_seeded(&queries, SEED),
                expect,
                "{kind} K={shards}: Client::run_seeded drifted"
            );

            // One derivation: the engine alone returns the same bytes,
            // whatever base seed it was built with.
            let config = EngineConfig::new(kind).shards(shards).seed(1234);
            let engine = if weighted {
                Engine::try_new_weighted(&data, &WEIGHTS, config)
            } else {
                Engine::try_new(&data, config)
            }
            .unwrap();
            assert_eq!(
                engine.run_seeded(&queries, SEED),
                expect,
                "{kind} K={shards}: Engine::run_seeded drifted"
            );
        }
    }
}

/// FNV-1a over the little-endian bytes of `ids`.
fn fnv1a64(ids: &[ItemId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for id in ids {
        for b in id.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `(kind, K)` → `(len, FNV-1a-64)` of the full-domain and the 8 %
/// `SampleWeighted` outputs of [`wide_windows_are_pinned`].
fn wide_golden(kind: IndexKind, shards: usize) -> [(usize, u64); 2] {
    match (kind, shards) {
        (IndexKind::Awit, 1) => [
            (2000, 15_341_842_804_372_180_731),
            (2000, 14_571_199_156_034_030_046),
        ],
        (IndexKind::Awit, 4) => [
            (2000, 13_564_801_322_231_858_177),
            (2000, 3_870_276_014_555_437_671),
        ],
        (IndexKind::Kds, 1) => [
            (2000, 5_739_819_177_394_194_295),
            (2000, 9_333_218_088_000_111_870),
        ],
        (IndexKind::Kds, 4) => [
            (2000, 5_114_074_152_753_538_677),
            (2000, 11_233_451_177_528_565_576),
        ],
        (IndexKind::AwitDynamic, 1) => [
            (2000, 13_273_700_574_773_588_797),
            (2000, 6_676_908_791_768_082_584),
        ],
        (IndexKind::AwitDynamic, 4) => [
            (2000, 18_191_961_722_526_474_230),
            (2000, 9_699_736_418_888_497_992),
        ],
        other => panic!("no golden digest for {other:?}"),
    }
}

/// Seeded churn that leaves `awit-dynamic` with a partly filled pool
/// and live tombstones (and, at K = 1, one rebuild behind it).
fn churn<W: FnMut(Mutation<i64>)>(mut apply: W) {
    let extra = irs::datagen::TAXI.generate(300, 4);
    let extra_w = irs::datagen::uniform_weights(300, 4);
    for (i, (&iv, &w)) in extra.iter().zip(&extra_w).enumerate() {
        apply(Mutation::InsertWeighted { iv, weight: w });
        if i % 2 == 0 {
            apply(Mutation::Delete {
                id: (i * 61) as ItemId,
            });
        }
    }
}

/// Windows past 1 024 entries, on the weighted kinds the small case
/// above does not reach: static `awit`, weighted `kds`, and
/// `awit-dynamic` after churn, at K ∈ {1, 4}. A change to how a
/// cumulative-weight draw searches its window must leave every digest
/// here as it is.
#[test]
fn wide_windows_are_pinned() {
    let data = irs::datagen::TAXI.generate(20_000, 3);
    let weights = irs::datagen::uniform_weights(20_000, 3);
    let workload = irs::datagen::QueryWorkload::from_data(&data);
    let full = workload.generate(1, 100.0, 1)[0];
    let q8 = workload.generate(1, 8.0, 5)[0];
    let queries = [
        Query::SampleWeighted { q: full, s: 2_000 },
        Query::SampleWeighted { q: q8, s: 2_000 },
    ];

    let awit = Awit::new(&data, &weights);
    let widest = awit
        .prepare_weighted(full)
        .records()
        .iter()
        .map(|r| r.len())
        .max()
        .unwrap_or(0);
    assert!(widest >= 1_024, "widest record spans {widest} entries");

    let mut direct = DynamicAwit::new(&data, &weights);
    churn(|m| match m {
        Mutation::InsertWeighted { iv, weight } => {
            direct.insert(iv, weight);
        }
        Mutation::Delete { id } => assert!(direct.delete_by_id(id)),
        Mutation::Insert { .. } => unreachable!(),
    });
    assert!(direct.pool_len() > 0 && direct.tombstone_len() > 0);

    for kind in [IndexKind::Awit, IndexKind::Kds, IndexKind::AwitDynamic] {
        for shards in [1usize, 4] {
            let client = Irs::builder()
                .kind(kind)
                .shards(shards)
                .seed(9)
                .weights(weights.clone())
                .build(&data)
                .unwrap();
            if kind == IndexKind::AwitDynamic {
                churn(|m| {
                    for r in client.apply(&[m]) {
                        r.unwrap();
                    }
                });
            }
            let got: Vec<(usize, u64)> = client
                .run_seeded(&queries, SEED)
                .into_iter()
                .map(|r| match r {
                    Ok(Samples(ids)) => (ids.len(), fnv1a64(&ids)),
                    other => panic!("{kind} K={shards}: unexpected {other:?}"),
                })
                .collect();
            assert_eq!(
                got,
                wide_golden(kind, shards),
                "{kind} K={shards}: wide-window replay drifted"
            );
        }
    }
}
