//! A forged length prefix must be refused before the decoder reserves
//! room for it. `Vec::decode` checks `len × MIN_WIDTH` against the bytes
//! remaining, so a catalog manifest whose `live` row count is forged
//! fails with `Truncated` and allocates no more than its input's size.
//!
//! The test counts heap bytes through its own global allocator, so it
//! lives alone in this binary: no other test's allocations can land in
//! the count.

use irs_catalog::{CatalogManifest, CollectionRecord};
use irs_core::persist::{decode_section, write_header, write_section, Codec, Reader};
use irs_core::PersistError;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the bytes outstanding and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters only observe layout sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
        PEAK.fetch_max(live, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn forged_live_length_is_refused_before_reserving() {
    // One collection with an empty live set: the row count is then the
    // last eight bytes of the manifest payload.
    let manifest = CatalogManifest::<i64> {
        budget: None,
        collections: vec![CollectionRecord {
            name: "trips".to_string(),
            kind: "ait".to_string(),
            shards: 1,
            seed: 7,
            weighted: false,
            auto: None,
            next_global: 0,
            remap: None,
            live: Vec::new(),
        }],
    };
    let mut payload = Vec::new();
    manifest.encode_into(&mut payload);
    // Forge one row per remaining byte and pad with 1 MiB: the count
    // passes a one-byte-per-element check, yet each `(u32, (Interval,
    // f64))` row is 28 bytes on disk and 32 in memory, so reserving it
    // would take 32× the input.
    const PAD: usize = 1 << 20;
    let count_at = payload.len() - 8;
    payload.truncate(count_at);
    (PAD as u64).encode_into(&mut payload);
    payload.resize(payload.len() + PAD, 0);
    let mut file = Vec::new();
    write_header(&mut file, irs_core::persist::ROLE_CATALOG);
    write_section(&mut file, &payload);

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let mut r = Reader::new(&file);
    irs_core::persist::read_header(&mut r, irs_core::persist::ROLE_CATALOG).unwrap();
    let err = decode_section::<CatalogManifest<i64>>(&mut r, "catalog manifest").unwrap_err();
    let peak = PEAK.load(Ordering::SeqCst) - before;

    assert!(
        peak <= file.len(),
        "decoder allocated {peak} bytes for a {}-byte input",
        file.len()
    );
    assert_eq!(
        err,
        PersistError::Truncated {
            needed: PAD * <(u32, (irs_core::Interval<i64>, f64))>::MIN_WIDTH,
            remaining: PAD,
        }
    );
}
