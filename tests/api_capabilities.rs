//! API–capability consistency: for every `IndexKind` × build flavor ×
//! operation, the `Capabilities` a backend *claims* must agree with
//! what `run` actually *does* — claimed operations succeed, denied
//! operations fail with the typed unsupported errors, and nothing
//! panics. The same contract covers the mutation surface: a kind
//! claiming `update` applies inserts/deletes (and the inserted id is
//! immediately queryable), a kind denying it fails every mutation with
//! the typed `UpdateError`. Plus edge cases: empty batches and empty
//! datasets are `Ok`, not errors.

use irs::prelude::*;
use proptest::prelude::*;

fn build_client(
    kind: IndexKind,
    shards: usize,
    weighted: bool,
    data: &[Interval64],
    seed: u64,
) -> Client<i64> {
    let mut b = Irs::builder().kind(kind).shards(shards).seed(seed);
    if weighted {
        b = b.weights(irs::datagen::uniform_weights(data.len(), seed ^ 0xA1));
    }
    b.build(data).expect("valid build config")
}

/// The one query that exercises `op`, if the operation is queryable.
fn query_for(op: Operation, q: Interval64, s: usize) -> Option<Query<i64>> {
    match op {
        Operation::UniformSample => Some(Query::Sample { q, s }),
        Operation::WeightedSample => Some(Query::SampleWeighted { q, s }),
        Operation::Count => Some(Query::Count { q }),
        Operation::Search => Some(Query::Search { q }),
        Operation::Stab => Some(Query::Stab { p: q.lo }),
        Operation::Update => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Claims and outcomes agree for every kind × {unweighted, weighted}
    /// × shard flavor {monolithic, sharded} × operation, on random
    /// datasets — including the empty one — and random queries.
    #[test]
    fn capabilities_agree_with_run_outcomes(
        raw in prop::collection::vec((0i64..2_000, 0i64..300), 0..120),
        query in (0i64..2_300, 0i64..500),
        s in 1usize..24,
    ) {
        let data: Vec<Interval64> = raw
            .iter()
            .map(|&(lo, len)| Interval::new(lo, lo + len))
            .collect();
        let q = Interval::new(query.0, query.0 + query.1);
        let oracle = irs::BruteForce::new(&data);
        let hits = oracle.range_count(q);

        for kind in IndexKind::ALL {
            for weighted in [false, true] {
                for shards in [1usize, 3] {
                    let client = build_client(kind, shards, weighted, &data, 7);
                    let caps = client.capabilities();
                    prop_assert_eq!(caps, kind.capabilities(weighted));

                    for op in Operation::ALL {
                        let Some(query) = query_for(op, q, s) else {
                            continue;
                        };
                        let out = client.run(&[query]).pop().unwrap();
                        match (caps.supports(op), out) {
                            (true, Ok(output)) => {
                                // Claimed and delivered; sampling must
                                // honor the empty-result-is-Ok contract.
                                if let Some(ids) = output.samples() {
                                    let expect = if hits == 0 { 0 } else { s };
                                    prop_assert_eq!(
                                        ids.len(), expect,
                                        "{} w={} K={}: {} samples",
                                        kind, weighted, shards, op
                                    );
                                }
                            }
                            (false, Err(QueryError::UnsupportedOperation { op: eop, .. })) => {
                                prop_assert_eq!(eop, op);
                            }
                            (false, Err(QueryError::NotWeighted)) => {
                                prop_assert_eq!(op, Operation::WeightedSample);
                                prop_assert!(!weighted);
                            }
                            (claimed, out) => prop_assert!(
                                false,
                                "{} w={} K={}: capability claim {} for `{}` but run returned {:?}",
                                kind, weighted, shards, claimed, op, out
                            ),
                        }
                    }

                    // Mutation outcomes must match the `update` claim:
                    // a claimed insert lands (searchable under its id,
                    // removable exactly once), a denied one fails typed.
                    match (caps.update, client.insert(q)) {
                        (true, Ok(id)) => {
                            prop_assert!(client.search(q).unwrap().contains(&id));
                            prop_assert_eq!(client.remove(id), Ok(()));
                            prop_assert!(!client.search(q).unwrap().contains(&id));
                            prop_assert_eq!(
                                client.remove(id),
                                Err(UpdateError::UnknownId { id })
                            );
                        }
                        (false, Err(UpdateError::UnsupportedKind { .. })) => {}
                        (claimed, out) => prop_assert!(
                            false,
                            "{} w={} K={}: update claim {} but insert returned {:?}",
                            kind, weighted, shards, claimed, out
                        ),
                    }
                    // Weighted inserts additionally require a weighted
                    // build of a weight-capable kind.
                    let weighted_ok = caps.update && caps.weighted_sample;
                    match (weighted_ok, client.insert_weighted(q, 2.5)) {
                        (true, Ok(id)) => prop_assert_eq!(client.remove(id), Ok(())),
                        (false, Err(UpdateError::UnsupportedKind { .. }))
                        | (false, Err(UpdateError::NotWeighted)) => {}
                        (claimed, out) => prop_assert!(
                            false,
                            "{} w={} K={}: weighted-update claim {} but insert returned {:?}",
                            kind, weighted, shards, claimed, out
                        ),
                    }
                    if weighted_ok {
                        // Bad weights bounce off the shared gate.
                        match client.insert_weighted(q, f64::NAN) {
                            Err(UpdateError::InvalidWeight { .. }) => {}
                            other => prop_assert!(false, "NaN weight accepted: {:?}", other),
                        }
                    }
                }
            }
        }
    }
}

/// An empty batch is answered with an empty result vector — no lock
/// taken, no error — on every backend.
#[test]
fn empty_batches_yield_empty_results() {
    let data = irs::datagen::TAXI.generate(200, 5);
    for shards in [1usize, 4] {
        let client = build_client(IndexKind::Ait, shards, false, &data, 1);
        assert!(client.run(&[]).is_empty());
        assert!(client.run_seeded(&[], 9).is_empty());
    }
    let engine = Engine::try_new(&data, EngineConfig::new(IndexKind::Ait).shards(2)).unwrap();
    assert!(engine.run(&[]).is_empty());
}

/// An empty dataset builds on every kind and answers every supported
/// operation with `Ok` empties — never an error, never a panic.
#[test]
fn empty_datasets_answer_ok_and_empty() {
    let data: Vec<Interval64> = Vec::new();
    let q = Interval::new(10, 90);
    for kind in IndexKind::ALL {
        for shards in [1usize, 3] {
            for weighted in [false, true] {
                let client = build_client(kind, shards, weighted, &data, 3);
                assert!(client.is_empty());
                assert_eq!(client.count(q).unwrap(), 0, "{kind} K={shards}");
                assert!(client.search(q).unwrap().is_empty(), "{kind} K={shards}");
                assert!(client.stab(50).unwrap().is_empty(), "{kind} K={shards}");
                if client.capabilities().uniform_sample {
                    assert!(
                        client.sample(q, 16).unwrap().is_empty(),
                        "{kind} K={shards}"
                    );
                    // Streams over an empty support end immediately,
                    // with no error recorded.
                    let mut stream = client.sample_stream(q).unwrap();
                    assert_eq!(stream.next(), None);
                    assert!(stream.error().is_none());
                }
                if client.capabilities().weighted_sample {
                    assert!(
                        client.sample_weighted(q, 16).unwrap().is_empty(),
                        "{kind} K={shards}"
                    );
                }
            }
        }
    }
}

/// `supported_ops` enumerates exactly the claimed subset, and the
/// capability matrix is self-consistent across the facade's reporters
/// (kind-level, engine-level, client-level).
#[test]
fn capability_reporters_are_consistent() {
    let data = irs::datagen::TAXI.generate(300, 9);
    let weights = irs::datagen::uniform_weights(data.len(), 11);
    for kind in IndexKind::ALL {
        for weighted in [false, true] {
            let kind_caps = kind.capabilities(weighted);
            let config = EngineConfig::new(kind).shards(2);
            let engine = if weighted {
                Engine::try_new_weighted(&data, &weights, config).unwrap()
            } else {
                Engine::try_new(&data, config).unwrap()
            };
            assert_eq!(engine.capabilities(), kind_caps);
            let client = build_client(kind, 1, weighted, &data, 13);
            assert_eq!(client.capabilities(), kind_caps);
            for op in kind_caps.supported_ops() {
                assert!(kind_caps.supports(op));
            }
            // Every kind answers the read-only core three.
            for op in [Operation::Count, Operation::Search, Operation::Stab] {
                assert!(kind_caps.supports(op), "{kind} must support {op}");
            }
        }
    }
}
