//! Write-ahead-log corruption taxonomy, mirroring
//! `persistence_roundtrip.rs` for the replication log: every damage
//! shape — truncated record, flipped CRC, partial trailing frame,
//! future format version, out-of-order sequence number — surfaces its
//! exact typed error, recovery truncates back to the last valid record
//! and appends cleanly after it, and a recovered backend serves only
//! the valid prefix. Never a panic, never a record past the damage.

use irs::prelude::*;
use irs::{read_log, ReplicationError, WalTailer, WalWriter};
use std::path::{Path, PathBuf};

/// A unique, self-cleaning scratch directory per test case.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("irs-walcorr-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn batch(lo: i64) -> Vec<Mutation<i64>> {
    vec![
        Mutation::Insert {
            iv: Interval::new(lo, lo + 100),
        },
        Mutation::Delete {
            id: lo as ItemId % 7,
        },
    ]
}

/// Writes a fresh log with `records` sequential batches.
fn fresh_log(path: &Path, records: usize) -> Vec<u8> {
    let mut w = WalWriter::<i64>::create(path, 1).expect("create");
    for i in 0..records {
        w.append(None, &batch(i as i64 * 1_000)).expect("append");
    }
    drop(w);
    std::fs::read(path).expect("read back")
}

/// Byte ranges of each framed section in a log file: the log manifest
/// first, then one per record. Layout (see `DESIGN.md`, "Replication"):
/// 11-byte header (8 magic + 2 version + 1 role), then per section an
/// 8-byte LE payload length, the payload, and a 4-byte CRC-32.
fn section_bounds(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut bounds = Vec::new();
    let mut at = 11;
    while at < bytes.len() {
        let len = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("length prefix")) as usize;
        bounds.push((at, at + 8 + len + 4));
        at += 8 + len + 4;
    }
    bounds
}

#[test]
fn truncated_record_is_typed_and_recovery_appends_after_the_valid_prefix() {
    let dir = TempDir::new("truncated");
    let path = dir.path().join("wal.irs");
    let pristine = fresh_log(&path, 3);

    // Cut into the middle of the last record's payload.
    std::fs::write(&path, &pristine[..pristine.len() - 7]).expect("truncate");
    let replay = read_log::<i64>(&path).expect("header is intact");
    assert_eq!(replay.records.len(), 2, "valid prefix only");
    assert_eq!(replay.last_seq(), 2);
    assert!(
        matches!(
            replay.stopped,
            Some(ReplicationError::Persist(PersistError::Truncated { .. }))
        ),
        "got {:?}",
        replay.stopped
    );

    // Recovery truncates the torn tail and reuses its sequence number.
    let (mut w, replay) = WalWriter::<i64>::recover(&path).expect("recover");
    assert_eq!(replay.records.len(), 2);
    assert_eq!(w.next_seq(), 3);
    assert_eq!(w.append(None, &batch(9_000)).expect("append"), 3);
    let replay = read_log::<i64>(&path).expect("read");
    assert!(replay.stopped.is_none());
    assert_eq!(replay.records.len(), 3);
    assert_eq!(replay.records[2].muts, batch(9_000));
}

#[test]
fn flipped_crc_is_typed_and_stops_both_scan_and_tailer() {
    let dir = TempDir::new("crc");
    let path = dir.path().join("wal.irs");
    let pristine = fresh_log(&path, 3);
    let bounds = section_bounds(&pristine);

    // Flip one payload byte inside record 2 (section 2 after manifest).
    let (start, end) = bounds[2];
    let mut bad = pristine.clone();
    bad[(start + 8 + end) / 2] ^= 0x10;
    std::fs::write(&path, &bad).expect("write");

    let replay = read_log::<i64>(&path).expect("header is intact");
    assert_eq!(replay.records.len(), 1);
    assert!(
        matches!(
            replay.stopped,
            Some(ReplicationError::Persist(PersistError::ChecksumMismatch {
                section: "log-record",
                ..
            }))
        ),
        "got {:?}",
        replay.stopped
    );

    // The streaming tailer refuses the same flip with the same type.
    let mut tailer = WalTailer::<i64>::open(&path, 1).expect("open");
    assert!(
        matches!(
            tailer.poll(),
            Err(ReplicationError::Persist(
                PersistError::ChecksumMismatch { .. }
            ))
        ),
        "tailer must refuse a flipped CRC"
    );

    // Recovery truncates to the record before the flip and appends.
    let (mut w, _) = WalWriter::<i64>::recover(&path).expect("recover");
    assert_eq!(w.next_seq(), 2);
    w.append(None, &batch(5_000)).expect("append");
    assert!(read_log::<i64>(&path).expect("read").stopped.is_none());
}

#[test]
fn partial_trailing_frame_means_wait_for_the_tailer_and_truncate_for_recovery() {
    let dir = TempDir::new("partial");
    let path = dir.path().join("wal.irs");
    let pristine = fresh_log(&path, 2);
    let bounds = section_bounds(&pristine);
    let (start, end) = *bounds.last().expect("records exist");
    let last_frame = pristine[start..end].to_vec();

    // Rewind to one record, then append only half of the next frame —
    // exactly what a reader sees mid-append.
    let mut half_written = pristine[..start].to_vec();
    half_written.extend_from_slice(&last_frame[..last_frame.len() / 2]);
    std::fs::write(&path, &half_written).expect("write");

    // A live tailer waits (no records, no error)...
    let mut tailer = WalTailer::<i64>::open(&path, 1).expect("open");
    let got = tailer
        .poll()
        .expect("partial trailing frame is not corruption");
    assert_eq!(got.len(), 1, "the complete first record still streams");
    assert!(tailer.poll().expect("wait").is_empty());

    // ...and once the writer finishes the frame, the record arrives.
    let mut full = half_written.clone();
    full.extend_from_slice(&last_frame[last_frame.len() / 2..]);
    std::fs::write(&path, &full).expect("write");
    let got = tailer.poll().expect("completed frame");
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].0, 2);

    // A crash at the half-written point instead: the scan reports a
    // torn tail and recovery truncates it away.
    std::fs::write(&path, &half_written).expect("write");
    let replay = read_log::<i64>(&path).expect("header is intact");
    assert_eq!(replay.records.len(), 1);
    assert!(matches!(
        replay.stopped,
        Some(ReplicationError::Persist(PersistError::Truncated { .. }))
    ));
    let (w, _) = WalWriter::<i64>::recover(&path).expect("recover");
    assert_eq!(w.next_seq(), 2);
    assert_eq!(
        std::fs::read(&path).expect("read").len(),
        start,
        "recovery must truncate the torn frame off the file"
    );
}

#[test]
fn future_format_version_is_a_fatal_typed_refusal() {
    let dir = TempDir::new("future");
    let path = dir.path().join("wal.irs");
    let mut bytes = fresh_log(&path, 1);
    // The format version lives at bytes 8..10, after the 8-byte magic.
    bytes[8] = 0xFE;
    bytes[9] = 0xFF;
    std::fs::write(&path, &bytes).expect("write");
    match read_log::<i64>(&path) {
        Err(ReplicationError::Persist(PersistError::UnsupportedVersion { found, supported })) => {
            assert_eq!(found, u16::from_le_bytes([0xFE, 0xFF]));
            assert_eq!(supported, 1);
        }
        other => panic!("future version must be fatal, got {other:?}"),
    }
    // No salvageable prefix: recovery refuses too, rather than
    // truncating a file it cannot interpret.
    assert!(WalWriter::<i64>::recover(&path).is_err());
}

#[test]
fn out_of_order_sequence_is_typed_and_recovery_reuses_the_gap() {
    let dir = TempDir::new("ooo");
    let path = dir.path().join("wal.irs");
    let pristine = fresh_log(&path, 3);
    let bounds = section_bounds(&pristine);

    // Splice record 3 directly after record 1 (drop record 2): a
    // reordered/spliced log, every frame individually valid.
    let mut spliced = pristine[..bounds[1].1].to_vec();
    spliced.extend_from_slice(&pristine[bounds[2].1..bounds[3].1]);
    std::fs::write(&path, &spliced).expect("write");

    let replay = read_log::<i64>(&path).expect("header is intact");
    assert_eq!(replay.records.len(), 1);
    assert_eq!(
        replay.stopped,
        Some(ReplicationError::OutOfOrderSequence {
            expected: 2,
            found: 3
        })
    );

    // Recovery truncates the spliced tail; the next append is seq 2.
    let (mut w, _) = WalWriter::<i64>::recover(&path).expect("recover");
    assert_eq!(w.append(None, &batch(4_000)).expect("append"), 2);
    let replay = read_log::<i64>(&path).expect("read");
    assert!(replay.stopped.is_none());
    assert_eq!(
        replay.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
        vec![1, 2]
    );
}

#[test]
fn foreign_and_role_confused_files_are_fatal_refusals() {
    let dir = TempDir::new("foreign");
    let path = dir.path().join("wal.irs");
    let pristine = fresh_log(&path, 1);

    // Garbage magic: not ours at all.
    let mut junk = pristine.clone();
    junk[..4].copy_from_slice(b"JUNK");
    std::fs::write(&path, &junk).expect("write");
    assert!(matches!(
        read_log::<i64>(&path),
        Err(ReplicationError::Persist(PersistError::BadMagic { .. }))
    ));

    // Right magic, wrong role byte (a shard snapshot is not a log).
    let mut wrong_role = pristine.clone();
    wrong_role[10] = 0x02;
    std::fs::write(&path, &wrong_role).expect("write");
    assert!(matches!(
        read_log::<i64>(&path),
        Err(ReplicationError::Persist(PersistError::Corrupt { .. }))
    ));

    // Wrong endpoint type: an i64 log read as u32.
    std::fs::write(&path, &pristine).expect("write");
    assert!(matches!(
        read_log::<u32>(&path),
        Err(ReplicationError::Persist(
            PersistError::EndpointMismatch { .. }
        ))
    ));
}

#[test]
fn corrupt_checkpoint_sidecar_is_typed_never_misread() {
    let dir = TempDir::new("ckpt");
    irs::write_checkpoint(dir.path(), 17).expect("write");
    assert_eq!(irs::read_checkpoint(dir.path()).expect("read"), Some(17));

    let path = dir.path().join("checkpoint.irs");
    let pristine = std::fs::read(&path).expect("read");

    // Flip a payload byte: the CRC refuses it.
    let mut bad = pristine.clone();
    let last = bad.len() - 5;
    bad[last] ^= 0x01;
    std::fs::write(&path, &bad).expect("write");
    assert!(matches!(
        irs::read_checkpoint(dir.path()),
        Err(PersistError::ChecksumMismatch { .. } | PersistError::Truncated { .. })
    ));

    // Trailing garbage after the value is corruption, not ignored.
    let mut trailing = pristine.clone();
    trailing.extend_from_slice(&[0u8; 3]);
    std::fs::write(&path, &trailing).expect("write");
    assert!(matches!(
        irs::read_checkpoint(dir.path()),
        Err(PersistError::Corrupt { .. } | PersistError::Truncated { .. })
    ));

    // A directory that never had one is Ok(None), not an error.
    let empty = TempDir::new("ckpt-none");
    assert_eq!(irs::read_checkpoint(empty.path()).expect("read"), None);
}

/// The recovery path end to end: a backend recovered from snapshot +
/// damaged log serves exactly the valid prefix — the acked state up to
/// the last valid record — and nothing past it.
#[test]
fn recovered_backend_serves_exactly_the_valid_log_prefix() {
    let dir = TempDir::new("prefix");
    let snap = dir.path().join("snap");
    let wal_path = dir.path().join("wal.irs");

    let data = irs::datagen::TAXI.generate(800, 3);
    let build = || {
        Irs::builder()
            .kind(IndexKind::Ait)
            .shards(2)
            .seed(5)
            .build(&data)
            .expect("build")
    };
    let client = build();
    client.save(&snap).expect("save");
    irs::write_checkpoint(&snap, 0).expect("checkpoint");

    let mut w = WalWriter::<i64>::create(&wal_path, 1).expect("create");
    let batches: Vec<Vec<Mutation<i64>>> = (0..5).map(|i| batch(i * 2_000)).collect();
    for muts in &batches {
        w.append(None, muts).expect("append");
    }
    drop(w);

    // Damage record 4 of 5: recovery must stop after record 3.
    let bytes = std::fs::read(&wal_path).expect("read");
    let bounds = section_bounds(&bytes);
    let (start, end) = bounds[4];
    let mut bad = bytes.clone();
    bad[(start + end) / 2] ^= 0x08;
    std::fs::write(&wal_path, &bad).expect("write");

    let (recovered, wal, replay) = Client::<i64>::recover(&snap, &wal_path).expect("recover");
    assert_eq!(replay.records.len(), 3);
    assert!(replay.stopped.is_some(), "the damage must be reported");
    assert_eq!(wal.next_seq(), 4, "the writer resumes after the prefix");

    // Oracle: the same snapshot state plus exactly the first 3 batches.
    let oracle = build();
    for muts in &batches[..3] {
        let _ = oracle.apply(muts);
    }
    assert_eq!(recovered.len(), oracle.len());
    let workload = irs::datagen::QueryWorkload::from_data(&data);
    let queries: Vec<Query<i64>> = workload
        .generate(6, 8.0, 0xACE)
        .into_iter()
        .map(|q| Query::Sample { q, s: 16 })
        .collect();
    assert_eq!(
        recovered.run_seeded(&queries, 77),
        oracle.run_seeded(&queries, 77),
        "recovered backend must serve exactly the valid prefix"
    );
}
