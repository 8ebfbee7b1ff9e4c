//! Hostile-input hardening: raw TCP streams throwing garbage at a live
//! `irs-server`. Every malformed input must come back as a *typed* wire
//! error (or a clean close once the stream has lost sync) — never a
//! panic, never a giant allocation — and the server must keep serving
//! well-formed clients afterwards.

use irs::prelude::*;
use irs::wire::frame::{read_frame_blocking, write_frame, FrameReader, MAX_PAYLOAD, WIRE_MAGIC};
use irs::wire::message::{decode_message, encode_message};
use irs::wire::{Request, Response, WireCollectionSpec};
use std::io::Write;
use std::net::{TcpListener, TcpStream};

fn serve_small() -> irs::ServerHandle<i64> {
    let data = irs::datagen::TAXI.generate(500, 3);
    let client = Irs::builder()
        .kind(IndexKind::Ait)
        .seed(5)
        .build(&data)
        .expect("build");
    irs::serve(client, ("127.0.0.1", 0), None).expect("serve")
}

/// Sends raw bytes, returns the server's one response frame (decoded),
/// or `None` if the server closed without answering.
fn send_raw(addr: std::net::SocketAddr, bytes: &[u8]) -> Option<Response> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("write");
    // Half-close: the server must answer (or close) without ever
    // receiving another byte — crucial for the truncated-frame cases.
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("shutdown write");
    let mut reader = FrameReader::new();
    let payload = read_frame_blocking(&mut reader, &mut stream).ok()?;
    Some(decode_message::<Response>(&payload).expect("server responses always decode"))
}

fn expect_error(resp: Option<Response>, code: ErrorCode, what: &str) {
    match resp {
        Some(Response::Error(e)) => assert_eq!(e.code, code, "{what}: {e}"),
        other => panic!("{what}: expected Error({code:?}), got {other:?}"),
    }
}

/// The server must still answer a well-formed client.
fn assert_healthy(addr: std::net::SocketAddr) {
    let mut remote = RemoteClient::<i64>::connect(addr).expect("connect");
    remote.health().expect("server must stay healthy");
    assert_eq!(
        remote.count(Interval::new(i64::MIN, i64::MAX)).unwrap(),
        500
    );
}

#[test]
fn garbage_and_truncation_get_typed_errors_and_the_server_survives() {
    let handle = serve_small();
    let addr = handle.local_addr();

    // 1. Garbage magic — e.g. an HTTP request aimed at our port.
    expect_error(
        send_raw(addr, b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"),
        ErrorCode::BadFrame,
        "http garbage",
    );
    assert_healthy(addr);

    // 2. Oversized declared length: refused from the header alone —
    //    the server must answer without waiting for (or allocating)
    //    4 GiB of payload.
    let mut oversized = Vec::new();
    oversized.extend_from_slice(&WIRE_MAGIC);
    oversized.extend_from_slice(&u32::MAX.to_le_bytes());
    expect_error(
        send_raw(addr, &oversized),
        ErrorCode::FrameTooLarge,
        "oversized declared length",
    );
    // Boundary: one byte over the cap is still refused.
    let mut boundary = Vec::new();
    boundary.extend_from_slice(&WIRE_MAGIC);
    boundary.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    expect_error(
        send_raw(addr, &boundary),
        ErrorCode::FrameTooLarge,
        "cap + 1",
    );
    assert_healthy(addr);

    // 3. Truncated frame: a valid header promising more payload than
    //    ever arrives, then a close.
    let mut truncated = Vec::new();
    truncated.extend_from_slice(&WIRE_MAGIC);
    truncated.extend_from_slice(&1000u32.to_le_bytes());
    truncated.extend_from_slice(&[0u8; 10]);
    expect_error(
        send_raw(addr, &truncated),
        ErrorCode::FrameTruncated,
        "truncated frame",
    );
    assert_healthy(addr);

    // 4. Corrupted payload: well-formed frame, flipped byte, bad CRC.
    let mut frame = Vec::new();
    write_frame(&mut frame, &encode_message(&Request::<i64>::Health)).expect("frame");
    let mid = frame.len() - 5; // inside the payload
    frame[mid] ^= 0x20;
    expect_error(send_raw(addr, &frame), ErrorCode::FrameChecksum, "bad crc");
    assert_healthy(addr);

    // 5. Valid frame, garbage message: an unknown request tag.
    let mut frame = Vec::new();
    write_frame(&mut frame, &[0x77, 1, 2, 3]).expect("frame");
    expect_error(
        send_raw(addr, &frame),
        ErrorCode::UnknownMessage,
        "unknown request tag",
    );
    assert_healthy(addr);

    // 6. Valid frame and tag, truncated body (Run with no fields).
    let mut frame = Vec::new();
    write_frame(&mut frame, &[3]).expect("frame");
    expect_error(
        send_raw(addr, &frame),
        ErrorCode::BadMessage,
        "truncated body",
    );
    assert_healthy(addr);

    // 7. Wrong endpoint type: a u32 client against an i64 server.
    let mut remote = RemoteClient::<u32>::connect(addr).expect("connect");
    let err = remote
        .count(Interval::new(0u32, 10u32))
        .expect_err("wrong endpoint must be refused");
    assert_eq!(err.code, ErrorCode::PersistEndpointMismatch);
    assert_healthy(addr);

    // 8. Empty connections and half-open writes don't wedge anything.
    drop(TcpStream::connect(addr).expect("connect"));
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&WIRE_MAGIC[..2]).expect("write");
        // Dropped mid-header: the server sees EOF mid-frame.
    }
    assert_healthy(addr);

    // After all that abuse, the protocol-error counter has been
    // counting and the server drains cleanly.
    let mut remote = RemoteClient::<i64>::connect(addr).expect("connect");
    let stats = remote.stats().expect("stats");
    assert!(
        stats.protocol_errors >= 6,
        "expected counted protocol errors, got {}",
        stats.protocol_errors
    );
    remote.shutdown().expect("shutdown");
    handle.join();
}

/// Replication requests against a server that keeps no log (and raw
/// garbage on the replication tags) are typed refusals — never a
/// wedge, never a panic — and the server keeps serving afterwards.
#[test]
fn replication_requests_on_a_plain_server_are_typed_refusals() {
    let handle = serve_small();
    let addr = handle.local_addr();

    // A plain server reports its role instead of refusing status.
    let mut remote = RemoteClient::<i64>::connect(addr).expect("connect");
    assert_eq!(
        remote.replication_status().expect("status").role,
        "none",
        "a log-less server has no replication role"
    );

    // Promote needs a following replica; snapshot-fetch and subscribe
    // need a log-keeping primary.
    let err = remote.promote().expect_err("promote must be refused");
    assert_eq!(err.code, ErrorCode::ReplicationNotReplica, "{err}");
    let dl = std::env::temp_dir().join(format!("irs-wm-fetch-{}", std::process::id()));
    let err = remote
        .fetch_snapshot(&dl)
        .expect_err("fetch-snapshot must be refused");
    assert_eq!(err.code, ErrorCode::ReplicationNotPrimary, "{err}");
    let _ = std::fs::remove_dir_all(&dl);
    let err = RemoteClient::<i64>::connect(addr)
        .expect("connect")
        .subscribe(1)
        .expect_err("subscribe must be refused");
    assert_eq!(err.code, ErrorCode::ReplicationNotPrimary, "{err}");
    assert_healthy(addr);

    // Truncated Subscribe body: the tag alone, no endpoint, no seq.
    let mut frame = Vec::new();
    write_frame(&mut frame, &[17]).expect("frame");
    expect_error(
        send_raw(addr, &frame),
        ErrorCode::BadMessage,
        "truncated subscribe body",
    );
    assert_healthy(addr);

    let mut remote = RemoteClient::<i64>::connect(addr).expect("connect");
    remote.shutdown().expect("shutdown");
    handle.join();
}

/// A malicious "primary" streaming a snapshot chunk whose path climbs
/// out of the bootstrap directory must be refused by the client with a
/// typed protocol error — and nothing may be written outside the
/// directory.
#[test]
fn snapshot_chunk_path_escape_is_refused_by_the_client() {
    use irs::wire::{ReplicationStatus, SnapshotChunk};

    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        if let Ok((mut stream, _)) = listener.accept() {
            let mut reader = FrameReader::new();
            // One FetchSnapshot request, answered with a well-formed ack
            // followed by a chunk aimed at the parent directory.
            let _ = read_frame_blocking(&mut reader, &mut stream);
            for resp in [
                Response::Replication(ReplicationStatus {
                    role: "primary".to_string(),
                    last_seq: 1,
                    log_start_seq: 1,
                    primary: None,
                }),
                Response::SnapshotChunk(SnapshotChunk {
                    path: "../evil.irs".to_string(),
                    offset: 0,
                    total_len: 4,
                    bytes: vec![1, 2, 3, 4],
                }),
            ] {
                let mut frame = Vec::new();
                write_frame(&mut frame, &encode_message(&resp)).expect("frame");
                if stream.write_all(&frame).is_err() {
                    break;
                }
            }
        }
    });

    let base = std::env::temp_dir().join(format!("irs-wm-escape-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dl = base.join("bootstrap");
    std::fs::create_dir_all(&dl).expect("mkdir");
    let mut remote = RemoteClient::<i64>::connect(addr).expect("connect");
    let err = remote
        .fetch_snapshot(&dl)
        .expect_err("escaping chunk path must be refused");
    assert_eq!(err.code, ErrorCode::BadMessage, "{err}");
    assert!(
        !base.join("evil.irs").exists(),
        "the escaping path was written outside the bootstrap directory"
    );
    drop(remote);
    server.join().expect("fake server");
    let _ = std::fs::remove_dir_all(&base);
}

/// A fake server answering every request on one connection with the
/// same pre-chosen response — for protocol violations a real
/// `irs-server` never commits (wrong-arity batch answers).
fn fake_server(response: Response) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        if let Ok((mut stream, _)) = listener.accept() {
            let mut reader = FrameReader::new();
            while read_frame_blocking(&mut reader, &mut stream).is_ok() {
                let mut frame = Vec::new();
                write_frame(&mut frame, &encode_message(&response)).expect("frame");
                if stream.write_all(&frame).is_err() {
                    break;
                }
            }
        }
    });
    (addr, handle)
}

/// A malicious or buggy server answering a 1-element batch with the
/// wrong number of results must produce a typed `BadMessage` protocol
/// error on the client — never a panic (these paths feed
/// `RemoteClient`'s single-result unwrappers).
#[test]
fn wrong_arity_responses_are_typed_protocol_errors() {
    // 0 results for a 1-query Run batch.
    let (addr, server) = fake_server(Response::Run(Vec::new()));
    let mut remote = RemoteClient::<i64>::connect(addr).expect("connect");
    let err = remote
        .count(Interval::new(0i64, 10))
        .expect_err("empty Run answer must be refused");
    assert_eq!(err.code, ErrorCode::BadMessage, "{err}");
    drop(remote);
    server.join().expect("fake server");

    // 0 results for a 1-mutation Apply batch.
    let (addr, server) = fake_server(Response::Apply(Vec::new()));
    let mut remote = RemoteClient::<i64>::connect(addr).expect("connect");
    let err = remote
        .insert(Interval::new(0i64, 10))
        .expect_err("empty Apply answer must be refused");
    assert_eq!(err.code, ErrorCode::BadMessage, "{err}");
    drop(remote);
    server.join().expect("fake server");

    // An empty Collections list where exactly one summary is required.
    let (addr, server) = fake_server(Response::Collections(Vec::new()));
    let mut remote = RemoteClient::<i64>::connect(addr).expect("connect");
    let err = remote
        .create_collection(WireCollectionSpec {
            name: "c".to_string(),
            kind: None,
            update_rate: 0.0,
            expected_extent: 0.08,
            weighted: false,
            shards: 1,
            seed: 7,
        })
        .expect_err("empty Collections answer must be refused");
    assert_eq!(err.code, ErrorCode::BadMessage, "{err}");
    drop(remote);
    server.join().expect("fake server");
}
