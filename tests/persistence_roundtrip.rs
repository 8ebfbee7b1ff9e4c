//! Snapshot persistence: for every `IndexKind` × shard count, a
//! saved-then-loaded engine must be *byte-equivalent* to the original —
//! `run_seeded` reproduces the exact draws — and the mutable kinds must
//! honour the global-id contract across the restart. Corrupted
//! snapshots (truncation, foreign bytes, bit flips, future versions)
//! must each surface the right typed `PersistError`, never a panic.

use irs::prelude::*;
use irs::BruteForce;
use std::path::PathBuf;

const SHARD_COUNTS: [usize; 3] = [1, 4, 7];

/// A unique, self-cleaning snapshot directory per test case.
struct SnapDir(PathBuf);

impl SnapDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("irs-persist-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SnapDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for SnapDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
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

/// A mixed batch exercising every operation the kind supports.
fn batch(data: &[Interval64], weighted: bool) -> Vec<Query<i64>> {
    queries(data, 3, 0x5A7E)
        .into_iter()
        .flat_map(|q| {
            [
                Query::Count { q },
                Query::Search { q },
                Query::Stab { p: q.lo },
                if weighted {
                    Query::SampleWeighted { q, s: 32 }
                } else {
                    Query::Sample { q, s: 32 }
                },
            ]
        })
        .collect()
}

fn sorted(mut v: Vec<ItemId>) -> Vec<ItemId> {
    v.sort_unstable();
    v
}

/// Every kind × K ∈ {1, 4, 7}: save → load → `run_seeded` must match
/// the original byte for byte (samples included), along with the
/// engine's queryable metadata.
#[test]
fn every_kind_and_shard_count_replays_byte_identically() {
    let data = dataset(2500, 21);
    for kind in IndexKind::ALL {
        for shards in SHARD_COUNTS {
            let dir = SnapDir::new(&format!("replay-{kind}-{shards}"));
            let engine = Engine::try_new(
                &data,
                EngineConfig::new(kind)
                    .shards(shards)
                    .seed(77 + shards as u64),
            )
            .unwrap();
            engine.save(dir.path()).unwrap();
            let loaded: Engine<i64> = Engine::load(dir.path()).unwrap();
            assert_eq!(loaded.kind(), kind);
            assert_eq!(loaded.shard_count(), shards);
            assert_eq!(loaded.len(), engine.len());
            assert_eq!(loaded.shard_lens(), engine.shard_lens());
            assert_eq!(loaded.capabilities(), engine.capabilities());
            let qs = batch(&data, false);
            for seed in [0u64, 0xDEAD_BEEF, 42] {
                assert_eq!(
                    engine.run_seeded(&qs, seed),
                    loaded.run_seeded(&qs, seed),
                    "{kind} K={shards} seed={seed}: loaded engine diverged"
                );
            }
            // The *unseeded* stream also continues where the original's
            // would: both engines sit at the same batch counter.
            assert_eq!(engine.run(&qs), loaded.run(&qs), "{kind} K={shards} run()");
        }
    }
}

/// Weighted builds (every kind that samples by weight) replay their
/// weighted draws byte-identically too.
#[test]
fn weighted_builds_replay_byte_identically() {
    let data = dataset(1800, 22);
    let weights: Vec<f64> = (0..data.len()).map(|i| 1.0 + (i % 9) as f64).collect();
    for kind in [IndexKind::Awit, IndexKind::AwitDynamic, IndexKind::Kds] {
        for shards in SHARD_COUNTS {
            let dir = SnapDir::new(&format!("weighted-{kind}-{shards}"));
            let engine = Engine::try_new_weighted(
                &data,
                &weights,
                EngineConfig::new(kind).shards(shards).seed(5),
            )
            .unwrap();
            engine.save(dir.path()).unwrap();
            let loaded: Engine<i64> = Engine::load(dir.path()).unwrap();
            assert!(loaded.is_weighted());
            let qs = batch(&data, true);
            assert_eq!(
                engine.run_seeded(&qs, 0xFEED),
                loaded.run_seeded(&qs, 0xFEED),
                "{kind} K={shards}: weighted replay diverged"
            );
        }
    }
}

/// A snapshot taken *mid-churn* (pool entries buffered, tombstones
/// live, ids retired) restores the exact mutable state: saved draws
/// replay, pre-save ids resolve, deletes of retired ids still fail, and
/// post-load mutations agree with a brute-force shadow.
#[test]
fn update_capable_kinds_keep_ids_and_oracle_agreement_across_restart() {
    let data = dataset(1200, 23);
    for kind in [IndexKind::Ait, IndexKind::AwitDynamic] {
        for shards in SHARD_COUNTS {
            let dir = SnapDir::new(&format!("churn-{kind}-{shards}"));
            let engine =
                Engine::try_new(&data, EngineConfig::new(kind).shards(shards).seed(9)).unwrap();
            // Shadow: (interval, global id) of every live interval.
            let mut shadow: Vec<(Interval64, ItemId)> = data
                .iter()
                .enumerate()
                .map(|(g, &iv)| (iv, g as ItemId))
                .collect();
            // Churn before the save: a batch insert, a lone insert and
            // deletes, so pools/tombstones are non-empty.
            let fresh: Vec<Interval64> = (0..40)
                .map(|i| Interval::new(1000 * i, 1000 * i + 5000))
                .collect();
            let ids = engine.extend_batch(&fresh).unwrap();
            shadow.extend(fresh.iter().copied().zip(ids.iter().copied()));
            let lone = engine.insert(Interval::new(77, 99)).unwrap();
            shadow.push((Interval::new(77, 99), lone));
            let retired: Vec<ItemId> = (0..60).map(|g| g as ItemId).collect();
            for &id in &retired {
                engine.remove(id).unwrap();
                shadow.retain(|&(_, sid)| sid != id);
            }

            engine.save(dir.path()).unwrap();
            let loaded: Engine<i64> = Engine::load(dir.path()).unwrap();
            assert_eq!(loaded.len(), shadow.len());

            // Byte-equivalent replay of the churned state.
            let qs = batch(&data, false);
            assert_eq!(
                engine.run_seeded(&qs, 0xAB),
                loaded.run_seeded(&qs, 0xAB),
                "{kind} K={shards}: churned replay diverged"
            );

            // The id contract spans the restart: a pre-save id deletes
            // cleanly, a retired id is still unknown, and new ids never
            // collide with anything ever issued.
            assert_eq!(
                loaded.remove(retired[0]),
                Err(UpdateError::UnknownId { id: retired[0] }),
                "{kind} K={shards}: retired id resurrected"
            );
            loaded.remove(lone).unwrap();
            shadow.retain(|&(_, sid)| sid != lone);
            let newcomer = Interval::new(500_000, 501_000);
            let new_id = loaded.insert(newcomer).unwrap();
            assert!(
                !retired.contains(&new_id) && new_id != lone,
                "{kind} K={shards}: id {new_id} reissued after restart"
            );
            shadow.push((newcomer, new_id));

            // Post-load mutations keep full oracle agreement.
            let shadow_data: Vec<Interval64> = shadow.iter().map(|&(iv, _)| iv).collect();
            let bf = BruteForce::new(&shadow_data);
            for &q in &queries(&data, 3, 0x0DD5 ^ 0x1234) {
                let expect: Vec<ItemId> = sorted(
                    bf.range_search(q)
                        .into_iter()
                        .map(|pos| shadow[pos as usize].1)
                        .collect(),
                );
                assert_eq!(
                    sorted(loaded.search(q).unwrap()),
                    expect,
                    "{kind} K={shards}: post-load search {q:?}"
                );
                assert_eq!(loaded.count(q).unwrap(), expect.len());
                for id in loaded.sample(q, 48).unwrap() {
                    assert!(
                        expect.binary_search(&id).is_ok(),
                        "{kind} K={shards}: sample {id} outside live q ∩ X"
                    );
                }
            }
        }
    }
}

/// The client facade saves/loads at one shard and at many, and the
/// handles interoperate: what a client saves, an engine loads and
/// replays identically (at K = 1 too — one draw derivation).
#[test]
fn client_roundtrips_on_both_backends_and_interoperates() {
    let data = dataset(1500, 24);
    for shards in [1usize, 4] {
        let dir = SnapDir::new(&format!("client-{shards}"));
        let client = Irs::builder()
            .kind(IndexKind::AitV)
            .shards(shards)
            .seed(13)
            .build(&data)
            .unwrap();
        client.save(dir.path()).unwrap();
        let loaded = Client::<i64>::load(dir.path()).unwrap();
        assert_eq!(loaded.shard_count(), shards);
        assert_eq!(loaded.len(), client.len());
        let qs = batch(&data, false);
        assert_eq!(client.run_seeded(&qs, 7), loaded.run_seeded(&qs, 7));
        // Same layout, other handle: the engine reads it directly.
        let engine: Engine<i64> = Engine::load(dir.path()).unwrap();
        assert_eq!(client.run_seeded(&qs, 7), engine.run_seeded(&qs, 7));
    }
}

/// Corruption taxonomy: each kind of damage yields its typed
/// `PersistError` — and never a panic — for every file in a snapshot.
#[test]
fn corruption_surfaces_typed_errors_never_panics() {
    let data = dataset(600, 25);
    let dir = SnapDir::new("corruption");
    let engine =
        Engine::try_new(&data, EngineConfig::new(IndexKind::Ait).shards(2).seed(3)).unwrap();
    engine.save(dir.path()).unwrap();
    let manifest = dir.path().join("manifest.irs");
    let shard1 = dir.path().join("shard-0001.irs");
    let load = |dir: &std::path::Path| Engine::<i64>::load(dir).map(|_| ());

    for target in [&manifest, &shard1] {
        let pristine = std::fs::read(target).unwrap();

        // Truncated mid-payload.
        std::fs::write(target, &pristine[..pristine.len() - pristine.len() / 3]).unwrap();
        assert!(
            matches!(load(dir.path()), Err(PersistError::Truncated { .. })),
            "{target:?}: truncation not typed"
        );

        // Bad magic.
        let mut bad = pristine.clone();
        bad[..4].copy_from_slice(b"JUNK");
        std::fs::write(target, &bad).unwrap();
        assert!(
            matches!(load(dir.path()), Err(PersistError::BadMagic { .. })),
            "{target:?}: bad magic not typed"
        );

        // One payload byte flipped → the section CRC catches it.
        let mut flipped = pristine.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(target, &flipped).unwrap();
        assert!(
            matches!(
                load(dir.path()),
                Err(PersistError::ChecksumMismatch { .. } | PersistError::Truncated { .. })
            ),
            "{target:?}: bit flip not typed"
        );

        // A future format version is refused, not misread.
        let mut future = pristine.clone();
        future[8] = 0xFE;
        future[9] = 0xFF;
        std::fs::write(target, &future).unwrap();
        assert_eq!(
            load(dir.path()),
            Err(PersistError::UnsupportedVersion {
                found: u16::from_le_bytes([0xFE, 0xFF]),
                supported: 1
            }),
            "{target:?}: future version not typed"
        );

        std::fs::write(target, &pristine).unwrap();
        load(dir.path()).expect("restored snapshot must load again");
    }
}

/// Cross-checks beyond byte damage: wrong endpoint type, unknown kind,
/// a shard file swapped in from a different snapshot, and a missing
/// directory are all typed refusals.
#[test]
fn mismatches_are_typed_refusals() {
    let data = dataset(500, 26);
    let dir = SnapDir::new("mismatch");
    let engine =
        Engine::try_new(&data, EngineConfig::new(IndexKind::Kds).shards(2).seed(4)).unwrap();
    engine.save(dir.path()).unwrap();

    // Endpoint type: saved as i64, loaded as u64 (same width!).
    assert!(matches!(
        Engine::<u64>::load(dir.path()).map(|_| ()),
        Err(PersistError::EndpointMismatch { .. })
    ));

    // A shard from a *different* snapshot (other kind) swapped in.
    let other = SnapDir::new("mismatch-other");
    let donor =
        Engine::try_new(&data, EngineConfig::new(IndexKind::AitV).shards(2).seed(4)).unwrap();
    donor.save(other.path()).unwrap();
    let pristine = std::fs::read(dir.path().join("shard-0001.irs")).unwrap();
    std::fs::copy(
        other.path().join("shard-0001.irs"),
        dir.path().join("shard-0001.irs"),
    )
    .unwrap();
    assert!(matches!(
        Engine::<i64>::load(dir.path()).map(|_| ()),
        Err(PersistError::ManifestMismatch { .. })
    ));
    std::fs::write(dir.path().join("shard-0001.irs"), pristine).unwrap();

    // Unknown kind name in the manifest (decoded from valid framing),
    // including the retired baseline names, which are never reissued.
    for retired in ["hint-m", "interval-tree"] {
        assert!(IndexKind::ALL.iter().all(|k| k.name() != retired));
    }
    let pristine = irs_engine_manifest(dir.path());
    for name in ["btree-of-the-future", "hint-m", "interval-tree"] {
        let mut manifest = pristine.clone();
        manifest.kind = name.to_string();
        irs_engine::persist::write_manifest(dir.path(), &manifest).unwrap();
        assert!(
            matches!(
                Engine::<i64>::load(dir.path()).map(|_| ()),
                Err(PersistError::UnknownKind { .. })
            ),
            "kind {name:?} must be an unknown kind"
        );
    }

    // Missing directory → typed I/O error.
    assert!(matches!(
        Engine::<i64>::load(dir.path().join("nope")).map(|_| ()),
        Err(PersistError::Io { .. })
    ));
}

fn irs_engine_manifest(dir: &std::path::Path) -> irs::Manifest {
    irs::inspect_snapshot(dir).unwrap().manifest
}

/// A manifest claiming `weighted` over an index that carries no weight
/// arrays is refused at load — not discovered as a panic on the first
/// weighted query.
#[test]
fn weighted_flag_must_match_the_decoded_index() {
    use irs::Codec;
    let data = dataset(300, 27);
    let dir = SnapDir::new("weighted-flag");
    std::fs::create_dir_all(dir.path()).unwrap();
    let unweighted = irs::Kds::new(&data);
    let mut payload = Vec::new();
    unweighted.encode_into(&mut payload);
    let manifest = irs_engine::persist::Manifest {
        snapshot_id: 7,
        kind: "kds".to_string(),
        endpoint: "i64".to_string(),
        weighted: true, // lies: the payload has no weight arrays
        shards: 1,
        seed: 0,
        batch_counter: 0,
        stream_counter: 0,
        len: data.len(),
        shard_lens: vec![data.len()],
    };
    let header = irs_engine::persist::ShardHeader {
        snapshot_id: 7,
        kind: manifest.kind.clone(),
        endpoint: manifest.endpoint.clone(),
        shard: 0,
        shards: 1,
        weighted: true,
    };
    irs_engine::persist::write_shard_file(dir.path(), &header, &payload).unwrap();
    irs_engine::persist::write_manifest(dir.path(), &manifest).unwrap();
    assert_eq!(
        Engine::<i64>::load(dir.path()).map(|_| ()),
        Err(PersistError::Corrupt {
            what: "manifest says weighted, but the index carries no weights"
        })
    );
}

/// An interrupted re-save (new shard files, old manifest — or the
/// reverse) is detected by the per-save-run snapshot id, even when both
/// snapshots share kind, shard count, and flags.
#[test]
fn mixed_save_runs_are_detected_by_snapshot_id() {
    let data = dataset(400, 28);
    let a = SnapDir::new("mix-a");
    let b = SnapDir::new("mix-b");
    let engine =
        Engine::try_new(&data, EngineConfig::new(IndexKind::Ait).shards(2).seed(6)).unwrap();
    engine.save(a.path()).unwrap();
    engine.save(b.path()).unwrap(); // same engine, different save run
    assert_ne!(
        irs_engine_manifest(a.path()).snapshot_id,
        irs_engine_manifest(b.path()).snapshot_id,
        "each save run must get its own id"
    );
    // Simulate a save that died after rewriting one shard file.
    std::fs::copy(
        b.path().join("shard-0001.irs"),
        a.path().join("shard-0001.irs"),
    )
    .unwrap();
    assert!(matches!(
        Engine::<i64>::load(a.path()).map(|_| ()),
        Err(PersistError::ManifestMismatch { .. })
    ));
}

/// Sample streams created after a restart must not replay the draw
/// sequences of streams created before the save: every refill is an
/// engine batch, and the batch counter is part of the manifest.
#[test]
fn post_restart_streams_are_fresh_not_replays() {
    let data = dataset(800, 29);
    for shards in [1usize, 4] {
        let dir = SnapDir::new(&format!("streams-{shards}"));
        let client = Irs::builder()
            .kind(IndexKind::Ait)
            .shards(shards)
            .seed(31)
            .build(&data)
            .unwrap();
        let q = queries(&data, 1, 0xF00D)[0];
        let mut first_pre = client.sample_stream(q).unwrap();
        let pre: Vec<ItemId> = (0..64).map(|_| first_pre.next().unwrap()).collect();
        drop(first_pre);
        client.save(dir.path()).unwrap();
        assert!(
            irs_engine_manifest(dir.path()).batch_counter > 0,
            "shards={shards}: the pre-save refill must have advanced the manifest's batch counter"
        );
        let loaded = Client::<i64>::load(dir.path()).unwrap();
        let mut first_post = loaded.sample_stream(q).unwrap();
        let post: Vec<ItemId> = (0..64).map(|_| first_post.next().unwrap()).collect();
        assert_ne!(
            pre, post,
            "shards={shards}: post-restart stream replayed a pre-save stream's draws"
        );
    }
}

/// `DynamicAwit`'s live mass subtracts its tombstones in id order, so
/// every decode of the same bytes reports the same bits: the mass drives
/// the multinomial allocation across shards, which must not depend on a
/// hash seed.
#[test]
fn dynamic_awit_mass_is_bit_identical_across_decodes() {
    use irs::{Codec, DynamicAwit};
    let data = dataset(4000, 31);
    // Weights over eight decades, so the order of the subtractions shows
    // in the rounding.
    let weights: Vec<f64> = (0..data.len())
        .map(|i| 1e-4 * 10f64.powf((i * 7919 % 1000) as f64 / 125.0))
        .collect();
    let mut idx = DynamicAwit::new(&data, &weights);
    for id in (0..data.len() as ItemId).step_by(28).take(140) {
        assert!(idx.delete_by_id(id));
    }
    assert_eq!(idx.tombstone_len(), 140, "no rebuild folded the tombstones");
    let mut bytes = Vec::new();
    idx.encode_into(&mut bytes);
    let windows: Vec<Interval64> = queries(&data, 14, 0x3A55).into_iter().take(40).collect();
    let masses = |idx: &DynamicAwit<i64>| -> Vec<u64> {
        windows
            .iter()
            .map(|&q| idx.range_weight(q).to_bits())
            .collect()
    };
    let expect = masses(&idx);
    for decode in 0..30 {
        let mut r = irs_core::persist::Reader::new(&bytes);
        let copy = DynamicAwit::<i64>::decode(&mut r).unwrap();
        assert_eq!(masses(&copy), expect, "decode {decode}: masses moved");
    }
}

/// Writes a one-shard snapshot whose index section is `payload`, forged
/// by the caller, under a manifest that counts `len` live intervals,
/// and loads it.
fn load_forged_shard(
    tag: &str,
    kind: &str,
    weighted: bool,
    payload: &[u8],
    len: usize,
) -> Result<(), PersistError> {
    load_forged_snapshot(tag, kind, weighted, payload, len, len)
}

/// [`load_forged_shard`] under a manifest whose total `len` and whose
/// one `shard_len` are given apart.
fn load_forged_snapshot(
    tag: &str,
    kind: &str,
    weighted: bool,
    payload: &[u8],
    len: usize,
    shard_len: usize,
) -> Result<(), PersistError> {
    let dir = SnapDir::new(tag);
    std::fs::create_dir_all(dir.path()).unwrap();
    let manifest = irs_engine::persist::Manifest {
        snapshot_id: 7,
        kind: kind.to_string(),
        endpoint: "i64".to_string(),
        weighted,
        shards: 1,
        seed: 0,
        batch_counter: 0,
        stream_counter: 0,
        len,
        shard_lens: vec![shard_len],
    };
    let header = irs_engine::persist::ShardHeader {
        snapshot_id: 7,
        kind: manifest.kind.clone(),
        endpoint: manifest.endpoint.clone(),
        shard: 0,
        shards: 1,
        weighted,
    };
    irs_engine::persist::write_shard_file(dir.path(), &header, payload).unwrap();
    irs_engine::persist::write_manifest(dir.path(), &manifest).unwrap();
    Engine::<i64>::load(dir.path()).map(|_| ())
}

/// An `ait` snapshot whose `next_id` is at or below a stored id is
/// refused: the next insert would reissue that live id. The id sits in
/// a node list (`next_id` 0, or the largest built id) or in the pool.
#[test]
fn ait_next_id_must_exceed_every_stored_id() {
    use irs::Codec;
    let data = dataset(300, 32);
    let mut ait = irs::Ait::new(&data);
    let pooled = ait.insert_buffered(Interval::new(5, 9));
    let mut payload = Vec::new();
    ait.encode_into(&mut payload);
    // The tail is `next_id` (u32), the one-entry pool (u64 length, then
    // interval + id) and `pool_capacity` (u64).
    let at = payload.len() - 8 - (8 + 16 + 4) - 4;
    assert_eq!(payload[at..at + 4], (pooled + 1).to_le_bytes());
    assert_eq!(
        load_forged_shard("ait-next-id-ok", "ait", false, &payload, ait.len()),
        Ok(())
    );
    for forged in [0, data.len() as ItemId - 1, pooled] {
        payload[at..at + 4].copy_from_slice(&forged.to_le_bytes());
        assert_eq!(
            load_forged_shard(
                &format!("ait-next-id-{forged}"),
                "ait",
                false,
                &payload,
                ait.len()
            ),
            Err(PersistError::Corrupt {
                what: "AIT: stored id at or above next_id"
            }),
            "next_id {forged}"
        );
    }
}

/// The fields of an `awit-dynamic` index section, in encoding order, so
/// a test can forge one of them. `valid` holds 40 residents (id 3
/// tombstoned) and a pool of ids 40 and 41: 41 live intervals.
struct DynAwitParts {
    data: Vec<Interval64>,
    slot_ids: Vec<ItemId>,
    resident: Vec<(ItemId, (Interval64, f64))>,
    pool: Vec<(Interval64, ItemId, f64)>,
    tombstones: Vec<(ItemId, Interval64)>,
    next_id: ItemId,
}

impl DynAwitParts {
    fn valid() -> Self {
        let data = dataset(40, 33);
        DynAwitParts {
            slot_ids: (0..40).collect(),
            resident: (0..40).map(|id| (id, (data[id as usize], 1.5))).collect(),
            pool: vec![
                (Interval::new(10, 20), 40, 2.0),
                (Interval::new(30, 40), 41, 3.0),
            ],
            tombstones: vec![(3, data[3])],
            next_id: 42,
            data,
        }
    }

    const LIVE: usize = 41;

    fn encode(&self) -> Vec<u8> {
        use irs::Codec;
        let mut out = Vec::new();
        irs::Awit::new(&self.data, &vec![1.5; self.data.len()]).encode_into(&mut out);
        self.slot_ids.encode_into(&mut out);
        self.resident.encode_into(&mut out);
        self.pool.encode_into(&mut out);
        self.tombstones.encode_into(&mut out);
        self.next_id.encode_into(&mut out);
        36usize.encode_into(&mut out); // update capacity
        out
    }
}

/// Loads [`DynAwitParts::valid`] with `forge` applied, and asserts the
/// refusal names `what`.
fn assert_dyn_awit_refused(tag: &str, forge: impl FnOnce(&mut DynAwitParts), what: &'static str) {
    let valid = DynAwitParts::valid().encode();
    assert_eq!(
        load_forged_shard(
            &format!("{tag}-valid"),
            "awit-dynamic",
            true,
            &valid,
            DynAwitParts::LIVE
        ),
        Ok(())
    );
    let mut parts = DynAwitParts::valid();
    forge(&mut parts);
    assert_eq!(
        load_forged_shard(
            tag,
            "awit-dynamic",
            true,
            &parts.encode(),
            DynAwitParts::LIVE
        ),
        Err(PersistError::Corrupt { what })
    );
}

#[test]
fn dynamic_awit_slot_ids_must_strictly_increase() {
    assert_dyn_awit_refused(
        "dyn-slot-order",
        |p| {
            p.slot_ids.swap(0, 1);
            p.resident.swap(0, 1);
        },
        "dynamic AWIT: slot ids are not strictly increasing",
    );
}

#[test]
fn dynamic_awit_resident_ids_must_be_the_slot_ids() {
    assert_dyn_awit_refused(
        "dyn-resident-ids",
        |p| p.resident[5].0 = 500,
        "dynamic AWIT: resident ids are not the slot ids",
    );
}

#[test]
fn dynamic_awit_tombstone_must_match_its_resident() {
    assert_dyn_awit_refused(
        "dyn-tomb-iv",
        |p| p.tombstones[0].1 = p.data[4],
        "dynamic AWIT: tombstone interval differs from its resident",
    );
    assert_dyn_awit_refused(
        "dyn-tomb-order",
        |p| p.tombstones = vec![(7, p.data[7]), (3, p.data[3])],
        "dynamic AWIT: tombstones are not in strictly increasing id order",
    );
}

#[test]
fn dynamic_awit_pool_ids_must_be_fresh() {
    let what = "dynamic AWIT: pool id is repeated or not above every slot id";
    assert_dyn_awit_refused("dyn-pool-dup", |p| p.pool[1].1 = 40, what);
    assert_dyn_awit_refused("dyn-pool-resident", |p| p.pool[1].1 = 7, what);
    assert_dyn_awit_refused(
        "dyn-pool-next-id",
        |p| p.next_id = 41,
        "dynamic AWIT: stored id at or above next_id",
    );
}

#[test]
fn dynamic_awit_slot_ids_must_be_below_next_id() {
    assert_dyn_awit_refused(
        "dyn-slot-next-id",
        |p| {
            p.pool.clear();
            p.next_id = 0;
        },
        "dynamic AWIT: stored id at or above next_id",
    );
}

/// A pool or resident weight that `insert` or `new` would refuse is
/// refused at load too. A NaN pool weight used to load, and then every
/// weighted sample over its window came back empty.
#[test]
fn dynamic_awit_weights_must_be_finite_and_positive() {
    let pool = "dynamic AWIT: pool weight is not finite and positive";
    let resident = "dynamic AWIT: resident weight is not finite and positive";
    for bad in [f64::NAN, f64::INFINITY, 0.0, -2.0] {
        assert_dyn_awit_refused("dyn-pool-weight", |p| p.pool[0].2 = bad, pool);
        assert_dyn_awit_refused(
            "dyn-resident-weight",
            |p| p.resident[9].1 .1 = bad,
            resident,
        );
    }
}

/// `Engine::load` refuses a manifest whose lengths disagree with each
/// other or with the decoded shards: it used to load one that said
/// `len: 0` over 41 live intervals, and then `len()` answered 0 while
/// `count` answered 41.
#[test]
fn manifest_lengths_must_match_the_shards() {
    let payload = DynAwitParts::valid().encode();
    let live = DynAwitParts::LIVE;
    let load = |tag, len, shard_len| {
        load_forged_snapshot(tag, "awit-dynamic", true, &payload, len, shard_len)
    };
    assert_eq!(load("lens-ok", live, live), Ok(()));
    let differs = Err(PersistError::Corrupt {
        what: "shard's live length differs from the manifest",
    });
    assert_eq!(load("lens-zero", 0, 0), differs);
    assert_eq!(load("lens-over", live + 1, live + 1), differs);
    assert_eq!(
        load("lens-sum", 0, live),
        Err(PersistError::Corrupt {
            what: "manifest length is not the sum of its shard lengths"
        })
    );
}

/// Every ait-family engine reports the same `heap_bytes` after save →
/// load as when it was built: decoding leaves no capacity slack that
/// the build did not have, so a server restored from a snapshot
/// accounts the same bytes as the one that saved it.
#[test]
fn heap_bytes_survive_save_and_load() {
    let data = dataset(3000, 42);
    let weights: Vec<f64> = (0..data.len()).map(|i| 1.0 + (i % 5) as f64).collect();
    for kind in [
        IndexKind::Ait,
        IndexKind::AitV,
        IndexKind::Awit,
        IndexKind::AwitDynamic,
    ] {
        for shards in [1, 4] {
            let config = EngineConfig::new(kind).shards(shards).seed(8);
            let built = if matches!(kind, IndexKind::Awit | IndexKind::AwitDynamic) {
                Engine::try_new_weighted(&data, &weights, config).unwrap()
            } else {
                Engine::try_new(&data, config).unwrap()
            };
            let dir = SnapDir::new(&format!("heap-{kind}-{shards}"));
            built.save(dir.path()).unwrap();
            let loaded: Engine<i64> = Engine::load(dir.path()).unwrap();
            assert_eq!(
                loaded.heap_bytes(),
                built.heap_bytes(),
                "{kind} K={shards}: heap after load differs from the build"
            );
        }
    }
}

/// FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The FNV-1a-64 of every shard's index section in the snapshot at
/// `dir`, in shard order.
fn index_section_digests(dir: &std::path::Path) -> Vec<u64> {
    let manifest = irs_engine_manifest(dir);
    (0..manifest.shards)
        .map(|k| {
            let shard = irs_engine::persist::read_shard_payload(dir, &manifest, k).unwrap();
            fnv1a64(shard.payload())
        })
        .collect()
}

/// Builds and churns one engine per pinned case: `ait` after inserts
/// (all pooled, as every engine insert is) that flush and leave a
/// partial pool, and deletes from the tree and the pool; a
/// static `ait-v`; a weighted `awit`; and a weighted `awit-dynamic`
/// with pooled inserts and tombstones.
fn pinned_engine(kind: IndexKind, shards: usize) -> Engine<i64> {
    let data = dataset(1500, 41);
    let weights: Vec<f64> = (0..data.len()).map(|i| 0.5 + (i % 13) as f64).collect();
    let config = EngineConfig::new(kind).shards(shards).seed(3);
    match kind {
        IndexKind::Ait => {
            let engine = Engine::try_new(&data, config).unwrap();
            for i in 0..30i64 {
                let lo = if i % 3 == 0 {
                    -1_000_000 * (i + 1)
                } else {
                    4_000 * i
                };
                engine
                    .insert(Interval::new(lo, lo + 2_500 + 97 * i))
                    .unwrap();
            }
            let fresh: Vec<Interval64> = (0..400i64)
                .map(|i| Interval::new(1_700 * i - 90_000, 1_700 * i + 3_000 + 11 * i))
                .collect();
            let ids = engine.extend_batch(&fresh).unwrap();
            for id in (0..1500)
                .step_by(7)
                .chain(ids.iter().rev().step_by(5).take(12).copied())
            {
                engine.remove(id).unwrap();
            }
            engine
        }
        IndexKind::AitV => Engine::try_new(&data, config).unwrap(),
        IndexKind::Awit => Engine::try_new_weighted(&data, &weights, config).unwrap(),
        IndexKind::AwitDynamic => {
            let engine = Engine::try_new_weighted(&data, &weights, config).unwrap();
            let mut fresh = Vec::new();
            for i in 0..90i64 {
                let iv = Interval::new(2_100 * i - 50_000, 2_100 * i + 9_000);
                fresh.push(engine.insert_weighted(iv, 1.0 + (i % 5) as f64).unwrap());
            }
            for id in (3..1500)
                .step_by(11)
                .chain(fresh.iter().step_by(9).copied())
            {
                engine.remove(id).unwrap();
            }
            engine
        }
        IndexKind::Kds => unreachable!("not pinned"),
    }
}

/// The bytes of every saved index section are pinned, not only what a
/// loaded engine replays: a change to the in-memory layout must encode
/// exactly the bytes the snapshot format has always held.
#[test]
fn snapshot_index_sections_are_pinned() {
    let cases: [(IndexKind, &[u64]); 8] = [
        (IndexKind::Ait, &[0x9f853ab89dcd74f7]),
        (
            IndexKind::Ait,
            &[
                0x1c0725e3390bfd6b,
                0x0e6261fa29011975,
                0x49404896e5965ae7,
                0xd87b02e9ac8b3b56,
            ],
        ),
        (IndexKind::AitV, &[0xfda149b99bf817d2]),
        (
            IndexKind::AitV,
            &[
                0x97688caf929185f1,
                0x6410092e20ac3701,
                0x18d651ee5dc4ebe6,
                0x996e3505f03f825e,
            ],
        ),
        (IndexKind::Awit, &[0x344c366bbc6bc0b7]),
        (
            IndexKind::Awit,
            &[
                0x931d4767bcaa0d98,
                0xc461c850ada6c2a6,
                0x08d1a00a3b9e6722,
                0x55b34ba8d51c2158,
            ],
        ),
        (IndexKind::AwitDynamic, &[0xc57bb3f851375aff]),
        (
            IndexKind::AwitDynamic,
            &[
                0x73085d452bce1dc1,
                0x6fc0f20b07c27705,
                0x475c1613822de3d9,
                0xdfcc12cc1946f3f4,
            ],
        ),
    ];
    for (kind, expect) in cases {
        let shards = expect.len();
        let dir = SnapDir::new(&format!("pinned-{kind}-{shards}"));
        pinned_engine(kind, shards).save(dir.path()).unwrap();
        if kind == IndexKind::Ait {
            // The churn left every shard with a partial insertion pool.
            use irs::Codec;
            let manifest = irs_engine_manifest(dir.path());
            for k in 0..shards {
                let shard = irs_engine::persist::read_shard_payload(dir.path(), &manifest, k);
                let mut r = irs_core::persist::Reader::new(shard.as_ref().unwrap().payload());
                assert!(irs::Ait::<i64>::decode(&mut r).unwrap().pool_len() > 0);
            }
        }
        assert_eq!(
            index_section_digests(dir.path()),
            expect,
            "{kind} K={shards}: index section bytes moved"
        );
    }
}

/// The AIT encoding pinned through the concrete structure alone, so it
/// holds whichever insert path the engine takes: each round-robin shard
/// is one `Ait` churned by one-by-one inserts (some opening new leaves),
/// pooled inserts that flush and leave a partial pool, and deletes from
/// the tree and the pool.
#[test]
fn concrete_ait_sections_are_pinned() {
    use irs::Codec;
    let cases: [&[u64]; 2] = [
        &[0xd76de89b40d9c914],
        &[
            0xfb71287c1133725b,
            0xebc33dc089cf1038,
            0x61a7d669d06daa1d,
            0x8bfe3446d99e12c0,
        ],
    ];
    let data = dataset(1500, 41);
    for expect in cases {
        let shards = expect.len();
        let digests: Vec<u64> = (0..shards)
            .map(|k| {
                let slice: Vec<Interval64> = data.iter().skip(k).step_by(shards).copied().collect();
                let mut ait = irs::Ait::new(&slice);
                for i in (k as i64..30).step_by(shards) {
                    let lo = if i % 3 == 0 {
                        -1_000_000 * (i + 1)
                    } else {
                        4_000 * i
                    };
                    ait.insert(Interval::new(lo, lo + 2_500 + 97 * i));
                }
                let pooled: Vec<(Interval64, ItemId)> = (k as i64..400)
                    .step_by(shards)
                    .map(|i| {
                        let iv = Interval::new(1_700 * i - 90_000, 1_700 * i + 3_000 + 11 * i);
                        (iv, ait.insert_buffered(iv))
                    })
                    .collect();
                for id in (0..slice.len()).step_by(7) {
                    assert!(ait.delete(slice[id], id as ItemId));
                }
                for &(iv, id) in pooled.iter().rev().step_by(5).take(3) {
                    assert!(ait.delete(iv, id));
                }
                assert!(
                    ait.pool_len() > 0,
                    "K={shards} shard {k}: the pool must be partial"
                );
                let mut payload = Vec::new();
                ait.encode_into(&mut payload);
                fnv1a64(&payload)
            })
            .collect();
        assert_eq!(digests, expect, "K={shards}: concrete AIT bytes moved");
    }
}
