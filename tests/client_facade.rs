//! The `Irs::builder()` facade: construction validation, oracle
//! agreement at one shard and at several ("both backends" below: the
//! facade once answered `shards(1)` through its own implementation; it
//! is one engine path now, and both shard counts stay covered), and the
//! acceptance bar for the redesign — sampling through the `Client` is
//! distribution-identical to the direct index path (chi-square suites
//! pass through the facade at both), one-shot and streamed.

use irs::prelude::*;
use irs::sampling::stats::{chi_square_ok, chi_square_uniformity_ok, total_variation};
use irs::BruteForce;

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

/// The builder rejects bad weights up front with the offending index,
/// identically for both backends.
#[test]
fn builder_validates_weights_before_building() {
    let data = dataset(120, 3);
    for shards in [1usize, 4] {
        let err = Irs::builder()
            .kind(IndexKind::Awit)
            .shards(shards)
            .weights(vec![1.0; 60])
            .build(&data)
            .err();
        assert_eq!(
            err,
            Some(BuildError::WeightCountMismatch {
                data: 120,
                weights: 60
            })
        );
        for bad in [f64::NAN, f64::INFINITY, 0.0, -4.0] {
            let mut weights = vec![2.0; 120];
            weights[17] = bad;
            match Irs::builder()
                .kind(IndexKind::Kds)
                .shards(shards)
                .weights(weights)
                .build(&data)
                .err()
            {
                Some(BuildError::InvalidWeight { index: 17, .. }) => {}
                other => panic!("{bad} (K={shards}): expected InvalidWeight at 17, got {other:?}"),
            }
        }
    }
}

/// Count / search / stab / sample agree with the oracle for every kind
/// through both backends.
#[test]
fn client_matches_oracle_on_both_backends() {
    let data = dataset(2000, 17);
    let bf = BruteForce::new(&data);
    let workload = irs::datagen::QueryWorkload::from_data(&data);
    let qs: Vec<_> = [0.5, 8.0, 32.0]
        .into_iter()
        .flat_map(|extent| workload.generate(3, extent, 0xC1 ^ extent.to_bits()))
        .collect();
    for kind in IndexKind::ALL {
        for shards in [1usize, 4] {
            let client = Irs::builder()
                .kind(kind)
                .shards(shards)
                .seed(41 + shards as u64)
                .build(&data)
                .unwrap();
            assert_eq!(client.shard_count(), shards);
            assert_eq!(client.len(), data.len());
            for &q in &qs {
                let expect = sorted(bf.range_search(q));
                assert_eq!(
                    sorted(client.search(q).unwrap()),
                    expect,
                    "{kind} K={shards} search {q:?}"
                );
                assert_eq!(
                    client.count(q).unwrap(),
                    expect.len(),
                    "{kind} K={shards} count {q:?}"
                );
                assert_eq!(
                    sorted(client.stab(q.lo).unwrap()),
                    sorted(bf.stab(q.lo)),
                    "{kind} K={shards} stab"
                );
                let samples = client.sample(q, 48).unwrap();
                assert_eq!(samples.len(), if expect.is_empty() { 0 } else { 48 });
                assert!(samples.iter().all(|&id| data[id as usize].overlaps(&q)));
            }
        }
    }
}

/// Uniform sampling through the facade is unbiased on both backends —
/// one-shot batches and prepare-once-draw-many streams alike.
#[test]
fn client_uniform_sampling_is_unbiased_including_streams() {
    let data = dataset(2500, 23);
    let bf = BruteForce::new(&data);
    let q = mid_size_query(&data, &bf, 0x5EED);
    let support = sorted(bf.range_search(q));
    let uniform = vec![1.0 / support.len() as f64; support.len()];
    for shards in [1usize, 4] {
        let client = Irs::builder()
            .kind(IndexKind::Ait)
            .shards(shards)
            .seed(77)
            .build(&data)
            .unwrap();
        for (path, samples) in [
            ("one-shot", client.sample(q, DRAWS).unwrap()),
            (
                "stream",
                client
                    .sample_stream(q)
                    .unwrap()
                    .with_chunk(4096)
                    .take(DRAWS)
                    .collect(),
            ),
        ] {
            assert_eq!(samples.len(), DRAWS, "K={shards} {path}");
            let mut counts = vec![0u64; support.len()];
            for id in samples {
                let pos = support.binary_search(&id).expect("sample inside support");
                counts[pos] += 1;
            }
            assert!(
                chi_square_uniformity_ok(&counts, DRAWS as u64),
                "K={shards} {path}: facade sampling biased (tv = {:.4})",
                total_variation(&counts, &uniform, DRAWS as u64)
            );
        }
    }
}

/// Weighted sampling through the facade matches the exact
/// weight-proportional distribution on both backends.
#[test]
fn client_weighted_sampling_matches_weights() {
    let data = dataset(2500, 31);
    let weights = irs::datagen::uniform_weights(data.len(), 0xBEEF);
    let bf = BruteForce::new_weighted(&data, &weights);
    let q = mid_size_query(&data, &bf, 0xFACE);
    let support = sorted(bf.range_search(q));
    let mass: f64 = support.iter().map(|&id| weights[id as usize]).sum();
    let expected: Vec<f64> = support
        .iter()
        .map(|&id| weights[id as usize] / mass)
        .collect();
    for (kind, shards) in [
        (IndexKind::Awit, 1usize),
        (IndexKind::Awit, 4),
        (IndexKind::Kds, 1),
        (IndexKind::Kds, 4),
    ] {
        let client = Irs::builder()
            .kind(kind)
            .shards(shards)
            .weights(weights.clone())
            .seed(99)
            .build(&data)
            .unwrap();
        for (path, samples) in [
            ("one-shot", client.sample_weighted(q, DRAWS).unwrap()),
            (
                "stream",
                client
                    .weighted_sample_stream(q)
                    .unwrap()
                    .with_chunk(4096)
                    .take(DRAWS)
                    .collect(),
            ),
        ] {
            assert_eq!(samples.len(), DRAWS);
            let mut counts = vec![0u64; support.len()];
            for id in samples {
                let pos = support.binary_search(&id).expect("sample inside support");
                counts[pos] += 1;
            }
            assert!(
                chi_square_ok(&counts, &expected, DRAWS as u64),
                "{kind} K={shards} {path}: facade weighted sampling off (tv = {:.4})",
                total_variation(&counts, &expected, DRAWS as u64)
            );
        }
    }
}

/// Seeded runs replay identically on both backends, and unseeded runs
/// advance the draw stream (independent samples across calls, streams
/// included).
#[test]
fn seeded_replay_and_stream_independence() {
    let data = dataset(1500, 53);
    let q = mid_size_query(&data, &BruteForce::new(&data), 0xAB);
    let batch = [
        Query::Count { q },
        Query::Sample { q, s: 32 },
        Query::Search { q },
    ];
    for shards in [1usize, 4] {
        let client = Irs::builder()
            .kind(IndexKind::Ait)
            .shards(shards)
            .seed(5)
            .build(&data)
            .unwrap();
        assert_eq!(
            client.run_seeded(&batch, 0xD00D),
            client.run_seeded(&batch, 0xD00D),
            "K={shards}: seeded replay must be exact"
        );
        let a = client.sample(q, 32).unwrap();
        let b = client.sample(q, 32).unwrap();
        assert_ne!(a, b, "K={shards}: unseeded batches drew identical samples");
        let s1: Vec<ItemId> = client.sample_stream(q).unwrap().take(32).collect();
        let s2: Vec<ItemId> = client.sample_stream(q).unwrap().take(32).collect();
        assert_ne!(s1, s2, "K={shards}: successive streams drew identically");
    }
}

/// Capability errors from the facade are the same typed values the
/// engine reports, and streams refuse construction the same way.
#[test]
fn facade_capability_errors_are_typed() {
    let data = dataset(400, 67);
    let weights = irs::datagen::uniform_weights(data.len(), 2);
    let q = Interval::new(0, irs::datagen::TAXI.domain_size / 2);
    for shards in [1usize, 3] {
        // Unweighted KDS: weighted ops say NotWeighted.
        let kds = Irs::builder()
            .kind(IndexKind::Kds)
            .shards(shards)
            .build(&data)
            .unwrap();
        assert_eq!(kds.sample_weighted(q, 5), Err(QueryError::NotWeighted));
        assert_eq!(
            kds.weighted_sample_stream(q).err(),
            Some(QueryError::NotWeighted)
        );
        // Weighted AWIT: uniform ops are structurally unsupported.
        let awit = Irs::builder()
            .kind(IndexKind::Awit)
            .shards(shards)
            .weights(weights.clone())
            .build(&data)
            .unwrap();
        assert!(matches!(
            awit.sample(q, 5),
            Err(QueryError::UnsupportedOperation {
                op: Operation::UniformSample,
                ..
            })
        ));
        assert!(matches!(
            awit.sample_stream(q).err(),
            Some(QueryError::UnsupportedOperation { .. })
        ));
    }
}
