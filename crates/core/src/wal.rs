//! The append-only write-ahead mutation log behind replication and
//! point-in-time recovery.
//!
//! A log file reuses the snapshot primitives from [`persist`]: the
//! standard header ([`MAGIC`](persist::MAGIC) /
//! [`FORMAT_VERSION`](persist::FORMAT_VERSION) / [`persist::ROLE_LOG`]),
//! then a CRC-framed *log manifest* section (the endpoint type name and
//! the sequence number the log starts at), then one CRC-framed section
//! per [`LogRecord`]. Records carry a **monotonically increasing
//! sequence number**, the collection name when the writer serves a
//! catalog (`None` under single-tenant backing), and the acked mutation
//! batch itself.
//!
//! The contract the replication tests pin:
//!
//! - **Log before apply, fsync before ack.** [`WalWriter::append`]
//!   writes the framed record and fsyncs it *before* the caller applies
//!   the batch, so every acked mutation is on disk even if the process
//!   dies immediately after the ack.
//! - **Recoverable tail, typed everything else.** [`read_log`] replays
//!   the longest valid prefix; whatever stopped the scan — a truncated
//!   record, a flipped CRC, a partial trailing frame, a future format
//!   version, an out-of-order sequence number — is reported as the
//!   exact [`ReplicationError`] / [`PersistError`] variant alongside the
//!   prefix, and [`WalWriter::recover`] truncates the file back to that
//!   prefix so the writer never appends after garbage.
//! - **Streamable.** [`WalTailer`] incrementally decodes records as a
//!   live writer appends them (a partial trailing frame means "wait",
//!   not "corrupt"), which is how a primary feeds its subscribers.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

use crate::interval::GridEndpoint;
use crate::mutation::Mutation;
use crate::persist::{self, Codec, PersistError, Reader};
use std::fmt;
use std::fs::File;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// File name of the checkpoint sidecar written next to a snapshot taken
/// by a log-keeping server (see [`write_checkpoint`]).
pub const CHECKPOINT_FILE: &str = "checkpoint.irs";

/// Why a replication operation could not proceed.
///
/// The replication twin of [`PersistError`]: typed variants with
/// payloads, a one-sentence `Display`, no panics on any decode path.
/// Log corruption surfaces as [`ReplicationError::Persist`] wrapping
/// the exact persistence variant, so callers branch on the root cause.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplicationError {
    /// The log (or a snapshot it ships) failed to read or write; the
    /// wrapped variant says exactly how.
    Persist(PersistError),
    /// A log record's sequence number is not the successor of the
    /// previous record — the log was reordered or spliced.
    OutOfOrderSequence {
        /// The sequence number the scan expected next.
        expected: u64,
        /// The sequence number actually found.
        found: u64,
    },
    /// The server is a following replica: mutations and snapshots-of
    /// -record are refused until it is promoted.
    ReadOnlyReplica,
    /// The request only makes sense against a log-keeping primary
    /// (subscribe, snapshot-fetch), but this server is not one.
    NotPrimary,
    /// `promote` was sent to a server that is not a following replica.
    NotReplica,
    /// The subscriber asked for a sequence number older than the log's
    /// first record — it must re-bootstrap from a snapshot instead.
    StaleSubscribe {
        /// The first sequence number the subscriber asked for.
        requested: u64,
        /// The sequence number the log actually starts at.
        start: u64,
    },
    /// The operation is not supported under replication (for example
    /// catalog DDL, which the mutation log cannot carry).
    Unsupported {
        /// Why, in one sentence.
        reason: &'static str,
    },
}

impl fmt::Display for ReplicationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicationError::Persist(inner) => write!(f, "replication log: {inner}"),
            ReplicationError::OutOfOrderSequence { expected, found } => write!(
                f,
                "log sequence out of order: expected {expected}, found {found}"
            ),
            ReplicationError::ReadOnlyReplica => {
                write!(f, "server is a read-only replica; promote it to accept writes")
            }
            ReplicationError::NotPrimary => {
                write!(f, "server is not a log-keeping primary")
            }
            ReplicationError::NotReplica => {
                write!(f, "server is not a following replica")
            }
            ReplicationError::StaleSubscribe { requested, start } => write!(
                f,
                "subscription from sequence {requested} predates the log (starts at {start}); re-bootstrap from a snapshot"
            ),
            ReplicationError::Unsupported { reason } => {
                write!(f, "unsupported under replication: {reason}")
            }
        }
    }
}

impl std::error::Error for ReplicationError {}

impl From<PersistError> for ReplicationError {
    fn from(e: PersistError) -> Self {
        ReplicationError::Persist(e)
    }
}

/// One acked mutation batch, as logged.
#[derive(Clone, Debug, PartialEq)]
pub struct LogRecord<E> {
    /// Monotonically increasing sequence number (no gaps within a log).
    pub seq: u64,
    /// Collection the batch targeted under catalog backing; `None` for
    /// a single-tenant server.
    pub collection: Option<String>,
    /// The batch, in the order the writer seat acked it.
    pub muts: Vec<Mutation<E>>,
}

impl<E: GridEndpoint> Codec for LogRecord<E> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.seq.encode_into(out);
        self.collection.encode_into(out);
        self.muts.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(LogRecord {
            seq: u64::decode(r)?,
            collection: Option::<String>::decode(r)?,
            muts: Vec::<Mutation<E>>::decode(r)?,
        })
    }
}

/// The result of scanning a log: the longest valid prefix plus, when
/// the scan did not reach a clean end of file, the exact error that
/// stopped it. A reader must not serve state past `records` — that is
/// the "recover to the last valid record" contract.
#[derive(Debug)]
pub struct WalReplay<E> {
    /// Sequence number the log starts at (from the log manifest).
    pub start_seq: u64,
    /// Every record in the valid prefix, in sequence order.
    pub records: Vec<LogRecord<E>>,
    /// Byte offset of the end of the valid prefix — the length
    /// [`WalWriter::recover`] truncates the file to.
    pub valid_bytes: u64,
    /// `None` if the scan reached a clean end of file; otherwise the
    /// typed reason it stopped (truncation, checksum flip, out-of-order
    /// sequence, …).
    pub stopped: Option<ReplicationError>,
}

impl<E> WalReplay<E> {
    /// The sequence number the next appended record will carry.
    pub fn next_seq(&self) -> u64 {
        self.start_seq.saturating_add(self.records.len() as u64)
    }

    /// The last sequence number in the valid prefix; `start_seq - 1`
    /// (saturating) when the log holds no records yet.
    pub fn last_seq(&self) -> u64 {
        self.next_seq().saturating_sub(1)
    }
}

fn io_err(path: &Path, e: &std::io::Error) -> ReplicationError {
    ReplicationError::Persist(PersistError::io(path, e))
}

fn encode_log_header<E: GridEndpoint>(start_seq: u64) -> Vec<u8> {
    let mut out = Vec::new();
    persist::write_header(&mut out, persist::ROLE_LOG);
    persist::encode_section(&mut out, &(E::type_name().to_string(), start_seq));
    out
}

/// Decodes the header + log-manifest prefix, returning
/// `(start_seq, bytes_consumed)`.
fn read_log_header<E: GridEndpoint>(bytes: &[u8]) -> Result<(u64, usize), ReplicationError> {
    let mut r = Reader::new(bytes);
    persist::read_header(&mut r, persist::ROLE_LOG).map_err(ReplicationError::Persist)?;
    let (endpoint, start_seq): (String, u64) =
        persist::decode_section(&mut r, "log-manifest").map_err(ReplicationError::Persist)?;
    if endpoint != E::type_name() {
        return Err(ReplicationError::Persist(PersistError::EndpointMismatch {
            stored: endpoint,
            expected: E::type_name(),
        }));
    }
    Ok((start_seq, bytes.len() - r.remaining()))
}

/// Scans a log file, replaying the longest valid prefix.
///
/// Header-level failures (not a log file, future format version, wrong
/// endpoint type) are returned as `Err` — there is no prefix to
/// salvage. Record-level failures end the scan and are reported in
/// [`WalReplay::stopped`] next to the records that *did* decode.
pub fn read_log<E: GridEndpoint>(path: &Path) -> Result<WalReplay<E>, ReplicationError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, &e))?;
    let (start_seq, header_len) = read_log_header::<E>(&bytes)?;
    let total = bytes.len();
    let mut r = Reader::new(&bytes);
    // Re-consume the already-validated prefix.
    r.take(header_len).map_err(ReplicationError::Persist)?;
    let mut records: Vec<LogRecord<E>> = Vec::new();
    let mut valid = header_len as u64;
    let mut expected = start_seq;
    let mut stopped = None;
    while !r.is_empty() {
        match persist::decode_section::<LogRecord<E>>(&mut r, "log-record") {
            Err(e) => {
                stopped = Some(ReplicationError::Persist(e));
                break;
            }
            Ok(rec) => {
                if rec.seq != expected {
                    stopped = Some(ReplicationError::OutOfOrderSequence {
                        expected,
                        found: rec.seq,
                    });
                    break;
                }
                expected = expected.saturating_add(1);
                records.push(rec);
                valid = (total - r.remaining()) as u64;
            }
        }
    }
    Ok(WalReplay {
        start_seq,
        records,
        valid_bytes: valid,
        stopped,
    })
}

/// The writer seat's handle on the log: assigns sequence numbers,
/// appends framed records, and fsyncs each append before returning —
/// the fsync-on-ack half of the replication contract.
#[derive(Debug)]
pub struct WalWriter<E> {
    file: File,
    path: PathBuf,
    start_seq: u64,
    next_seq: u64,
    _endpoint: PhantomData<E>,
}

impl<E: GridEndpoint> WalWriter<E> {
    /// Creates (or truncates) a log starting at `start_seq` — sequence
    /// `1` for a fresh primary, `snapshot_seq + 1` for a replica
    /// bootstrapping from a snapshot. The header is fsynced before this
    /// returns.
    pub fn create(path: impl AsRef<Path>, start_seq: u64) -> Result<Self, PersistError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::create(&path).map_err(|e| PersistError::io(&path, &e))?;
        file.write_all(&encode_log_header::<E>(start_seq))
            .and_then(|()| file.sync_all())
            .map_err(|e| PersistError::io(&path, &e))?;
        Ok(WalWriter {
            file,
            path,
            start_seq,
            next_seq: start_seq,
            _endpoint: PhantomData,
        })
    }

    /// Opens an existing log for append, replaying its valid prefix and
    /// **truncating the file back to it** (so a torn final record from
    /// a crash mid-append is discarded, never appended after). A
    /// missing file becomes a fresh log starting at sequence `1`.
    ///
    /// The replay is returned so the caller can re-apply the surviving
    /// records and inspect [`WalReplay::stopped`].
    pub fn recover(path: impl AsRef<Path>) -> Result<(Self, WalReplay<E>), ReplicationError> {
        let path = path.as_ref().to_path_buf();
        if !path.exists() {
            let writer = Self::create(&path, 1).map_err(ReplicationError::Persist)?;
            let header = encode_log_header::<E>(1).len() as u64;
            return Ok((
                writer,
                WalReplay {
                    start_seq: 1,
                    records: Vec::new(),
                    valid_bytes: header,
                    stopped: None,
                },
            ));
        }
        let replay = read_log::<E>(&path)?;
        let mut file = File::options()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err(&path, &e))?;
        file.set_len(replay.valid_bytes)
            .and_then(|()| file.sync_all())
            .and_then(|()| file.seek(SeekFrom::End(0)).map(|_| ()))
            .map_err(|e| io_err(&path, &e))?;
        let writer = WalWriter {
            file,
            path,
            start_seq: replay.start_seq,
            next_seq: replay.next_seq(),
            _endpoint: PhantomData,
        };
        Ok((writer, replay))
    }

    /// Appends one mutation batch as a framed record and fsyncs it.
    /// Returns the sequence number the record was assigned. Nothing may
    /// be acked — let alone applied — until this returns `Ok`.
    pub fn append(
        &mut self,
        collection: Option<&str>,
        muts: &[Mutation<E>],
    ) -> Result<u64, PersistError> {
        let seq = self.next_seq;
        let record = LogRecord {
            seq,
            collection: collection.map(str::to_string),
            muts: muts.to_vec(),
        };
        let mut frame = Vec::new();
        persist::encode_section(&mut frame, &record);
        self.file
            .write_all(&frame)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| PersistError::io(&self.path, &e))?;
        self.next_seq = seq.saturating_add(1);
        Ok(seq)
    }

    /// The sequence number the log starts at.
    pub fn start_seq(&self) -> u64 {
        self.start_seq
    }

    /// The sequence number the next [`append`](Self::append) will
    /// assign.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The last sequence number appended (and fsynced) so far;
    /// `start_seq - 1` (saturating) when nothing has been appended.
    pub fn last_seq(&self) -> u64 {
        self.next_seq.saturating_sub(1)
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// An incremental reader over a log a live writer may still be
/// appending to: decodes complete records as they land, treats a
/// partial trailing frame as "not yet" rather than corruption, and
/// verifies CRC + sequence order on everything it emits. This is how a
/// primary streams its log to subscribers.
#[derive(Debug)]
pub struct WalTailer<E> {
    file: File,
    path: PathBuf,
    offset: u64,
    emit_from: u64,
    expected_seq: u64,
    _endpoint: PhantomData<E>,
}

impl<E: GridEndpoint> WalTailer<E> {
    /// Opens the log and positions after its manifest. Records with a
    /// sequence number below `from_seq` are decoded (and order-checked)
    /// but not emitted; a `from_seq` older than the log's start is a
    /// typed [`ReplicationError::StaleSubscribe`] refusal.
    pub fn open(path: impl AsRef<Path>, from_seq: u64) -> Result<Self, ReplicationError> {
        let path = path.as_ref().to_path_buf();
        let bytes = std::fs::read(&path).map_err(|e| io_err(&path, &e))?;
        let (start_seq, header_len) = read_log_header::<E>(&bytes)?;
        if from_seq < start_seq {
            return Err(ReplicationError::StaleSubscribe {
                requested: from_seq,
                start: start_seq,
            });
        }
        let file = File::open(&path).map_err(|e| io_err(&path, &e))?;
        Ok(WalTailer {
            file,
            path,
            offset: header_len as u64,
            emit_from: from_seq,
            expected_seq: start_seq,
            _endpoint: PhantomData,
        })
    }

    /// Decodes every *complete* record appended since the last poll,
    /// returning `(seq, framed payload bytes)` pairs for records at or
    /// past the subscription point. The payload bytes are exactly the
    /// record's section payload, so they re-frame onto the wire (and
    /// into a replica's own log) without re-encoding.
    pub fn poll(&mut self) -> Result<Vec<(u64, Vec<u8>)>, ReplicationError> {
        self.file
            .seek(SeekFrom::Start(self.offset))
            .map_err(|e| io_err(&self.path, &e))?;
        let mut buf = Vec::new();
        self.file
            .read_to_end(&mut buf)
            .map_err(|e| io_err(&self.path, &e))?;
        let mut out = Vec::new();
        let mut consumed = 0usize;
        loop {
            let rest = buf.get(consumed..).unwrap_or(&[]);
            if rest.is_empty() {
                break;
            }
            let Some(len_bytes) = rest.get(..8) else {
                break; // partial length prefix — wait for the writer
            };
            let mut len_arr = [0u8; 8];
            len_arr.copy_from_slice(len_bytes);
            let len = match usize::try_from(u64::from_le_bytes(len_arr)) {
                Ok(v) => v,
                Err(_) => {
                    return Err(ReplicationError::Persist(PersistError::Corrupt {
                        what: "log record length exceeds this host's address space",
                    }))
                }
            };
            let Some(total) = len.checked_add(12) else {
                return Err(ReplicationError::Persist(PersistError::Corrupt {
                    what: "log record length overflows its frame",
                }));
            };
            if rest.len() < total {
                break; // partial trailing frame — wait for the writer
            }
            let (payload, stored_crc) = match (rest.get(8..8 + len), rest.get(8 + len..total)) {
                (Some(p), Some(c)) => (p, c),
                _ => break,
            };
            let mut crc_arr = [0u8; 4];
            crc_arr.copy_from_slice(stored_crc);
            let stored = u32::from_le_bytes(crc_arr);
            let computed = persist::crc32(payload);
            if stored != computed {
                return Err(ReplicationError::Persist(PersistError::ChecksumMismatch {
                    section: "log-record",
                    stored,
                    computed,
                }));
            }
            let mut pr = Reader::new(payload);
            let rec = LogRecord::<E>::decode(&mut pr).map_err(ReplicationError::Persist)?;
            if !pr.is_empty() {
                return Err(ReplicationError::Persist(PersistError::Corrupt {
                    what: "section has trailing bytes after its value",
                }));
            }
            if rec.seq != self.expected_seq {
                return Err(ReplicationError::OutOfOrderSequence {
                    expected: self.expected_seq,
                    found: rec.seq,
                });
            }
            self.expected_seq = self.expected_seq.saturating_add(1);
            consumed += total;
            if rec.seq >= self.emit_from {
                out.push((rec.seq, payload.to_vec()));
            }
        }
        self.offset = self.offset.saturating_add(consumed as u64);
        Ok(out)
    }

    /// The sequence number the next emitted record will carry (records
    /// being skipped up to the subscription point count as emitted).
    pub fn next_seq(&self) -> u64 {
        self.expected_seq.max(self.emit_from)
    }
}

/// Decodes one streamed log-record payload (as produced by
/// [`WalTailer::poll`] and shipped in a log-record wire frame),
/// verifying it is exactly one record.
pub fn decode_record_payload<E: GridEndpoint>(
    payload: &[u8],
) -> Result<LogRecord<E>, PersistError> {
    let mut r = Reader::new(payload);
    let rec = LogRecord::<E>::decode(&mut r)?;
    if !r.is_empty() {
        return Err(PersistError::Corrupt {
            what: "section has trailing bytes after its value",
        });
    }
    Ok(rec)
}

/// Writes the checkpoint sidecar into a snapshot directory: the last
/// log sequence number reflected in that snapshot. A bootstrap loads
/// the snapshot, reads the checkpoint, and replays the log strictly
/// after it — point-in-time recovery is the same walk with a shorter
/// log prefix.
pub fn write_checkpoint(dir: &Path, seq: u64) -> Result<(), PersistError> {
    let mut out = Vec::new();
    persist::write_header(&mut out, persist::ROLE_LOG);
    persist::encode_section(&mut out, &seq);
    persist::write_file_atomic(&dir.join(CHECKPOINT_FILE), &[&out])
}

/// Reads the checkpoint sidecar; `Ok(None)` when the directory has
/// none (a snapshot taken by a server that kept no log).
pub fn read_checkpoint(dir: &Path) -> Result<Option<u64>, PersistError> {
    let path = dir.join(CHECKPOINT_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(PersistError::io(&path, &e)),
    };
    let mut r = Reader::new(&bytes);
    persist::read_header(&mut r, persist::ROLE_LOG)?;
    let seq = persist::decode_section::<u64>(&mut r, "checkpoint")?;
    if !r.is_empty() {
        return Err(PersistError::Corrupt {
            what: "checkpoint has trailing bytes after its value",
        });
    }
    Ok(Some(seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interval;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("irs-wal-{tag}-{}.irs", std::process::id()))
    }

    fn batch(lo: i64) -> Vec<Mutation<i64>> {
        vec![
            Mutation::Insert {
                iv: Interval::new(lo, lo + 10),
            },
            Mutation::Delete { id: lo as u32 },
        ]
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let path = temp_path("roundtrip");
        let mut w = WalWriter::<i64>::create(&path, 1).unwrap();
        assert_eq!(w.append(None, &batch(0)).unwrap(), 1);
        assert_eq!(w.append(Some("taxi"), &batch(5)).unwrap(), 2);
        assert_eq!(w.next_seq(), 3);
        let replay = read_log::<i64>(&path).unwrap();
        assert_eq!(replay.start_seq, 1);
        assert_eq!(replay.records.len(), 2);
        assert!(replay.stopped.is_none());
        assert_eq!(replay.records[0].seq, 1);
        assert_eq!(replay.records[0].collection, None);
        assert_eq!(replay.records[1].collection.as_deref(), Some("taxi"));
        assert_eq!(replay.records[1].muts, batch(5));
        assert_eq!(replay.next_seq(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_truncates_torn_tail_and_appends_cleanly() {
        let path = temp_path("torn");
        let mut w = WalWriter::<i64>::create(&path, 1).unwrap();
        w.append(None, &batch(0)).unwrap();
        w.append(None, &batch(1)).unwrap();
        drop(w);
        // Tear the final record: drop its last 3 bytes.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&path, &bytes).unwrap();
        let (mut w, replay) = WalWriter::<i64>::recover(&path).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert!(matches!(
            replay.stopped,
            Some(ReplicationError::Persist(PersistError::Truncated { .. }))
        ));
        assert_eq!(w.next_seq(), 2);
        w.append(None, &batch(9)).unwrap();
        let replay = read_log::<i64>(&path).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert!(replay.stopped.is_none());
        assert_eq!(replay.records[1].muts, batch(9));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tailer_streams_and_waits_on_partial_frames() {
        let path = temp_path("tail");
        let mut w = WalWriter::<i64>::create(&path, 4).unwrap();
        w.append(None, &batch(0)).unwrap(); // seq 4
        w.append(None, &batch(1)).unwrap(); // seq 5
        let mut t = WalTailer::<i64>::open(&path, 5).unwrap();
        let got = t.poll().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 5);
        let rec = decode_record_payload::<i64>(&got[0].1).unwrap();
        assert_eq!(rec.muts, batch(1));
        assert!(t.poll().unwrap().is_empty());
        w.append(None, &batch(2)).unwrap(); // seq 6
        let got = t.poll().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 6);
        // Subscribing before the log's start is a typed refusal.
        assert!(matches!(
            WalTailer::<i64>::open(&path, 3),
            Err(ReplicationError::StaleSubscribe {
                requested: 3,
                start: 4
            })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn endpoint_mismatch_is_typed() {
        let path = temp_path("endpoint");
        let mut w = WalWriter::<i64>::create(&path, 1).unwrap();
        w.append(None, &batch(0)).unwrap();
        assert!(matches!(
            read_log::<u32>(&path),
            Err(ReplicationError::Persist(
                PersistError::EndpointMismatch { .. }
            ))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_roundtrip() {
        let dir = std::env::temp_dir().join(format!("irs-wal-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(read_checkpoint(&dir).unwrap(), None);
        write_checkpoint(&dir, 41).unwrap();
        assert_eq!(read_checkpoint(&dir).unwrap(), Some(41));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
