//! Golden vectors for seeded replay, so the bytes `run_seeded` returns
//! can never drift silently: a literal dataset, one mixed batch, and
//! the literal answers for `ait` and weighted `awit-dynamic` at
//! K ∈ {1, 4}.
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
