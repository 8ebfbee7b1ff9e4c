//! Documentation / code synchronisation gates.
//!
//! The wire protocol's error codes are a public, append-only contract;
//! `DESIGN.md` carries the normative table. These tests fail the build
//! when a new `ErrorCode` variant lands without its documentation row —
//! the cheapest possible way to keep the spec from rotting — and hold
//! `contracts/registry.txt` (error codes, wire tags, snapshot role
//! bytes, the format version) to the source both ways.

use irs::ErrorCode;

/// A workspace file, by its path from the repository root.
fn read(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn design_md() -> String {
    read("DESIGN.md")
}

fn registry() -> String {
    read("contracts/registry.txt")
}

/// Every `ErrorCode` variant — including the 6xx catalog block — must
/// appear in DESIGN.md as `<number> <stable-name>`.
#[test]
fn design_md_documents_every_wire_error_code() {
    let doc = design_md();
    let mut missing = Vec::new();
    for code in ErrorCode::ALL {
        let row = format!("{} {}", code as u16, code.name());
        if !doc.contains(&row) {
            missing.push(row);
        }
    }
    assert!(
        missing.is_empty(),
        "DESIGN.md's error-code table is out of date; add rows for: {missing:?}"
    );
}

/// The documented names must be the stable `name()` strings — guard
/// against a rename in code silently diverging from the table (the
/// table check above would then fail too, but this pins the inverse:
/// no two variants may collapse onto one name or number).
#[test]
fn wire_error_codes_are_distinct() {
    let mut nums = std::collections::BTreeSet::new();
    let mut names = std::collections::BTreeSet::new();
    for code in ErrorCode::ALL {
        assert!(
            nums.insert(code as u16),
            "duplicate code number {}",
            code as u16
        );
        assert!(
            names.insert(code.name()),
            "duplicate code name {}",
            code.name()
        );
    }
    assert_eq!(nums.len(), ErrorCode::ALL.len());
}

/// The registry's pin lines as `(family, name, value)`, in file order;
/// a line in no known family is malformed.
fn registry_pins() -> Vec<(String, String, u64)> {
    const FAMILIES: [&str; 5] = [
        "error-code",
        "request-tag",
        "response-tag",
        "snapshot-role",
        "format-version",
    ];
    registry()
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let parsed = l.split_once(" = ").and_then(|(head, value)| {
                let (family, name) = head.split_once(' ').filter(|(f, _)| FAMILIES.contains(f))?;
                Some((family.to_owned(), name.to_owned(), value.parse().ok()?))
            });
            parsed.unwrap_or_else(|| panic!("malformed registry line `{l}`"))
        })
        .collect()
}

/// One family's pins as `(name, value)`.
fn pinned(family: &str) -> Vec<(String, u64)> {
    registry_pins()
        .into_iter()
        .filter(|(f, ..)| f == family)
        .map(|(_, name, value)| (name, value))
        .collect()
}

/// Holds one registry family to `source`, the `(name, value)` pairs the
/// code defines, both ways: every source entry is pinned under its
/// value, and every pin names a source entry. The failure prints the
/// lines to append.
fn check_family(family: &str, source: &[(String, u64)]) {
    let pins = pinned(family);
    let line = |(name, value): &(String, u64)| format!("{family} {name} = {value}");
    let append: Vec<String> = source
        .iter()
        .filter(|e| !pins.contains(e))
        .map(line)
        .collect();
    let stale: Vec<String> = pins
        .iter()
        .filter(|p| !source.contains(p))
        .map(line)
        .collect();
    assert!(
        append.is_empty() && stale.is_empty(),
        "contracts/registry.txt and the source disagree on `{family}` (the registry is \
         append-only: never renumber, rename or remove an entry)\n\
         append to contracts/registry.txt:\n{}\n\
         pinned but no longer in source (restore them in source):\n{}",
        append.join("\n"),
        stale.join("\n")
    );
}

/// Which single-byte payloads `T`'s decoder refuses as an unknown tag:
/// exactly the bytes no pinned tag claims.
fn check_tag_sweep<T: irs_core::persist::Codec>(family: &str, unknown: &'static str) {
    use irs_core::persist::PersistError;
    let pins = pinned(family);
    let wrong: Vec<u8> = (0..=255u8)
        .filter(|&t| {
            let refused = matches!(
                irs::wire::message::decode_message::<T>(&[t]),
                Err(PersistError::Corrupt { what }) if what == unknown
            );
            refused == pins.iter().any(|(_, v)| *v == u64::from(t))
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "tags {wrong:?}: the decoder and the `{family}` pins disagree (a decoded tag needs a \
         row in this test's table and a registry line; a pinned tag must stay decoded)"
    );
}

/// Every `ErrorCode` variant — the 7xx replication block included — is
/// pinned in the append-only registry under its stable number, every
/// `error-code` pin names a variant, and `ErrorCode::ALL` lists every
/// variant of the enum, so a renumber, a silent removal or an unlisted
/// variant fails here.
#[test]
fn registry_pins_every_wire_error_code() {
    let source: Vec<(String, u64)> = ErrorCode::ALL
        .iter()
        .map(|&c| (format!("{c:?}"), c as u64))
        .collect();
    check_family("error-code", &source);

    let wire = read("crates/core/src/wire.rs");
    let body = wire
        .split("pub enum ErrorCode {")
        .nth(1)
        .and_then(|b| b.split("\n}").next())
        .expect("crates/core/src/wire.rs lost `pub enum ErrorCode`");
    let variants = body
        .lines()
        .filter_map(|l| l.trim().strip_suffix(','))
        .filter_map(|l| l.split_once(" = "))
        .filter(|(name, n)| name.chars().all(char::is_alphanumeric) && n.parse::<u16>().is_ok())
        .count();
    assert_eq!(
        variants,
        ErrorCode::ALL.len(),
        "`pub enum ErrorCode` and `ErrorCode::ALL` list different variants"
    );
}

/// The wire request/response tags, the snapshot role bytes and the
/// format version are pinned both ways: each tag is read off the first
/// byte its variant encodes to, the decoders refuse exactly the
/// unpinned tags, and every `pub const ROLE_*` in `persist.rs` is
/// pinned under its value. The replication block (request tags 17–20,
/// response tags 8–10, `ROLE_LOG`) is pinned like every other entry.
#[test]
fn registry_pins_every_wire_tag_and_snapshot_role() {
    use irs::wire::message::encode_message;
    use irs::wire::{Request, Response, WireError};
    use irs_core::persist::{Codec, Reader};
    use irs_core::persist::{FORMAT_VERSION, ROLE_CATALOG, ROLE_LOG, ROLE_MANIFEST, ROLE_SHARD};

    // Payload structs decode from zero bytes, so no value below depends
    // on a tag constant.
    fn zero<T: Codec>() -> T {
        T::decode(&mut Reader::new(&[0; 128])).expect("decodes from zero bytes")
    }
    let s = String::new;
    let requests: Vec<(&str, Request<i64>)> = vec![
        ("REQ_HEALTH", Request::Health),
        ("REQ_STATS", Request::Stats),
        (
            "REQ_RUN",
            Request::Run {
                seed: None,
                queries: vec![],
            },
        ),
        ("REQ_APPLY", Request::Apply { muts: vec![] }),
        ("REQ_SAVE", Request::Save { dir: s() }),
        ("REQ_INSPECT", Request::InspectSnapshot { dir: s() }),
        ("REQ_LOAD", Request::Load { dir: s() }),
        ("REQ_SHUTDOWN", Request::Shutdown),
        (
            "REQ_CREATE_COLLECTION",
            Request::CreateCollection { spec: zero() },
        ),
        ("REQ_DROP_COLLECTION", Request::DropCollection { name: s() }),
        ("REQ_LIST_COLLECTIONS", Request::ListCollections),
        (
            "REQ_RUN_IN",
            Request::RunIn {
                collection: s(),
                seed: None,
                queries: vec![],
            },
        ),
        (
            "REQ_APPLY_IN",
            Request::ApplyIn {
                collection: s(),
                muts: vec![],
            },
        ),
        ("REQ_SAVE_CATALOG", Request::SaveCatalog { dir: s() }),
        ("REQ_LOAD_CATALOG", Request::LoadCatalog { dir: s() }),
        (
            "REQ_REINDEX",
            Request::Reindex {
                collection: s(),
                kind: s(),
            },
        ),
        ("REQ_SUBSCRIBE", Request::Subscribe { from_seq: 0 }),
        ("REQ_FETCH_SNAPSHOT", Request::FetchSnapshot),
        ("REQ_REPLICATION_STATUS", Request::ReplicationStatus),
        ("REQ_PROMOTE", Request::Promote),
    ];
    let responses: Vec<(&str, Response)> = vec![
        ("RESP_OK", Response::Ok),
        ("RESP_STATS", Response::Stats(zero())),
        ("RESP_RUN", Response::Run(vec![])),
        ("RESP_APPLY", Response::Apply(vec![])),
        ("RESP_SNAPSHOT", Response::Snapshot(zero())),
        (
            "RESP_ERROR",
            Response::Error(WireError::protocol(ErrorCode::Internal, "")),
        ),
        ("RESP_COLLECTIONS", Response::Collections(vec![])),
        ("RESP_LOG_RECORD", Response::LogRecord(zero())),
        ("RESP_SNAPSHOT_CHUNK", Response::SnapshotChunk(zero())),
        ("RESP_REPLICATION", Response::Replication(zero())),
    ];
    fn tags<T: Codec>(table: &[(&str, T)]) -> Vec<(String, u64)> {
        let tag = |m: &T| u64::from(encode_message(m).first().copied().expect("empty message"));
        table
            .iter()
            .map(|(name, m)| (name.to_string(), tag(m)))
            .collect()
    }
    check_family("request-tag", &tags(&requests));
    check_family("response-tag", &tags(&responses));
    check_tag_sweep::<Request<i64>>("request-tag", "unknown request tag");
    check_tag_sweep::<Response>("response-tag", "unknown response tag");

    let roles = [
        ("ROLE_MANIFEST", ROLE_MANIFEST),
        ("ROLE_SHARD", ROLE_SHARD),
        ("ROLE_CATALOG", ROLE_CATALOG),
        ("ROLE_LOG", ROLE_LOG),
    ]
    .map(|(name, role)| (name.to_owned(), u64::from(role)));
    let declared = read("crates/core/src/persist.rs");
    let declared = declared
        .lines()
        .filter_map(|l| l.strip_prefix("pub const "))
        .filter_map(|l| l.split_once(':').map(|(name, _)| name))
        .filter(|name| name.starts_with("ROLE_"));
    assert!(
        declared.eq(roles.iter().map(|(name, _)| name)),
        "every `pub const ROLE_*` in crates/core/src/persist.rs needs a row in this test's table"
    );
    check_family("snapshot-role", &roles);
    check_family(
        "format-version",
        &[("FORMAT_VERSION".to_owned(), u64::from(FORMAT_VERSION))],
    );
}

/// DESIGN.md's "Per-kind index sections" table has one row per
/// `IndexKind`, in `IndexKind::ALL` order, and no row for anything
/// else (a retired kind's row must go with it).
#[test]
fn design_md_per_kind_table_matches_index_kinds() {
    use irs::IndexKind;

    let doc = design_md();
    let section = doc
        .split("### Per-kind index sections")
        .nth(1)
        .expect("DESIGN.md lost its \"Per-kind index sections\" heading");
    let rows: Vec<&str> = section
        .lines()
        .skip_while(|l| !l.starts_with("| Kind |"))
        .skip(2)
        .take_while(|l| l.starts_with("| `"))
        .filter_map(|l| l.split('`').nth(1))
        .collect();
    let kinds: Vec<&str> = IndexKind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(
        rows, kinds,
        "DESIGN.md's per-kind table and IndexKind::ALL diverge"
    );
}

/// DESIGN.md, "Determinism", states the one draw-stream derivation in a
/// single sentence and names it replay version 2. This pins the
/// sentence and checks each clause of it against behaviour, through a
/// default (`shards(1)`) client — the configuration whose bytes changed
/// when the second derivation was removed. `tests/replay_golden.rs`
/// pins the resulting bytes themselves.
#[test]
fn design_md_states_the_one_draw_stream_derivation() {
    use irs::prelude::*;
    use irs_core::splitmix64 as mix;
    use rand::{rngs::SmallRng, SeedableRng};

    const STATEMENT: &str = "Draw-stream derivation is the engine's at every shard count: \
        `run_seeded(seed)` draws shard `k` from `seed ^ mix(k + 1)` and allocates from \
        `seed ^ ALLOC_SALT`; an unseeded batch is `run_seeded(base_seed + mix(batch))`.";
    let design = design_md();
    assert!(
        design.contains(STATEMENT),
        "DESIGN.md, \"Determinism\", lost its one-line derivation statement:\n{STATEMENT}"
    );
    assert!(
        design.contains("**replay version 2**"),
        "DESIGN.md, \"Determinism\", must name the current replay version"
    );

    const BASE: u64 = 77;
    const SEED: u64 = 0xD0C5;
    let data = irs::datagen::TAXI.generate(800, 5);
    let q = Interval::new(0, irs::datagen::TAXI.domain_size / 2);
    let batch = [Query::Sample { q, s: 24 }];
    let client = Irs::builder()
        .kind(IndexKind::Ait)
        .seed(BASE)
        .build(&data)
        .unwrap();

    // "draws shard `k` from `seed ^ mix(k + 1)`": shard 0 of 1 is the
    // index itself, so the structure's own sampler reproduces it.
    let direct = Ait::new(&data).sample(q, 24, &mut SmallRng::seed_from_u64(SEED ^ mix(1)));
    assert_eq!(
        client.run_seeded(&batch, SEED),
        [Ok(QueryOutput::Samples(direct))]
    );

    // "an unseeded batch is `run_seeded(base_seed + mix(batch))`".
    for n in 0..3 {
        let unseeded = client.run(&batch);
        assert_eq!(
            unseeded,
            client.run_seeded(&batch, BASE.wrapping_add(mix(n))),
            "unseeded batch {n}"
        );
    }
}
