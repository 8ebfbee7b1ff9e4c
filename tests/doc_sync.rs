//! Documentation / code synchronisation gates.
//!
//! The wire protocol's error codes are a public, append-only contract;
//! `DESIGN.md` carries the normative table. These tests fail the build
//! when a new `ErrorCode` variant lands without its documentation row —
//! the cheapest possible way to keep the spec from rotting.

use irs::ErrorCode;

fn design_md() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn registry() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/contracts/registry.txt");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
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

/// Every `ErrorCode` variant — the 7xx replication block included — is
/// pinned in the append-only registry under its stable number, so a
/// renumber (or a silent removal) fails here even before `irs-audit`
/// runs.
#[test]
fn registry_pins_every_wire_error_code() {
    let reg = registry();
    let mut missing = Vec::new();
    for code in ErrorCode::ALL {
        let pin = format!("error-code {:?} = {}", code, code as u16);
        if !reg.contains(&pin) {
            missing.push(pin);
        }
    }
    assert!(
        missing.is_empty(),
        "contracts/registry.txt is missing pins (append them, never renumber): {missing:?}"
    );
}

/// The replication wire surface — request tags, streamed response tags,
/// and the log's file-role byte — is pinned append-only alongside the
/// pre-existing entries (which must all still be present).
#[test]
fn registry_pins_the_replication_wire_contract() {
    let reg = registry();
    for pin in [
        // Pre-replication anchors: appending must never displace these.
        "request-tag REQ_HEALTH = 1",
        "response-tag RESP_OK = 1",
        "snapshot-role ROLE_MANIFEST = 1",
        "format-version FORMAT_VERSION = 1",
        // The replication block.
        "request-tag REQ_SUBSCRIBE = 17",
        "request-tag REQ_FETCH_SNAPSHOT = 18",
        "request-tag REQ_REPLICATION_STATUS = 19",
        "request-tag REQ_PROMOTE = 20",
        "response-tag RESP_LOG_RECORD = 8",
        "response-tag RESP_SNAPSHOT_CHUNK = 9",
        "response-tag RESP_REPLICATION = 10",
        "snapshot-role ROLE_LOG = 4",
    ] {
        assert!(
            reg.contains(pin),
            "contracts/registry.txt lost the pin `{pin}` (the registry is append-only)"
        );
    }
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
