//! Catalog persistence: one manifest covering every collection.
//!
//! On-disk layout under the save directory:
//!
//! ```text
//! <dir>/
//!   catalog.irs              # ROLE_CATALOG header + manifest section
//!   collections/
//!     <name>/                # one PR-5 engine snapshot per collection
//!       manifest.irs
//!       shard-0000.irs …
//! ```
//!
//! Collection snapshots are written **first**, the catalog manifest
//! **last** (each atomically), mirroring the engine's shard-then-
//! manifest order: an interrupted save leaves the previous manifest —
//! which still names the previous snapshots — rather than a new
//! manifest over missing directories.
//!
//! The manifest records what the engine snapshots cannot: the budget,
//! each collection's planner hints, and the id bookkeeping (live set,
//! remap, next global id) that keeps the global-id contract intact
//! across re-indexes *and* restarts.

use crate::{BackendState, Book, Catalog, Collection, IdMap, WorkloadHints};
use irs_core::persist::{
    decode_section, encode_section, read_header, write_file_atomic, write_header, Codec,
    PersistError, Reader, ROLE_CATALOG,
};
use irs_core::{CatalogError, GridEndpoint, Interval, ItemId};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, RwLock};

/// The catalog manifest's file name inside the save directory.
pub const CATALOG_MANIFEST_FILE: &str = "catalog.irs";

/// Subdirectory holding the per-collection engine snapshots.
const COLLECTIONS_DIR: &str = "collections";

/// One collection's row in the catalog manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct CollectionRecord<E> {
    /// Collection name (doubles as its snapshot subdirectory).
    pub name: String,
    /// Stable name of the kind serving it at save time.
    pub kind: String,
    /// Backend shard count.
    pub shards: usize,
    /// Draw-stream seed.
    pub seed: u64,
    /// Whether the collection is weighted.
    pub weighted: bool,
    /// Planner hints, if the collection was created with `kind: auto`
    /// (encoded as `(update_rate, weighted, expected_extent)`).
    pub auto: Option<(f64, bool, f64)>,
    /// Next global id to issue.
    pub next_global: ItemId,
    /// Backend-id → global-id pairs, present once a re-index happened.
    pub remap: Option<Vec<(ItemId, ItemId)>>,
    /// The live set: `(global id, interval, weight)`, sorted by id.
    pub live: Vec<(ItemId, (Interval<E>, f64))>,
}

/// The whole catalog's manifest: budget plus one record per collection.
#[derive(Clone, Debug, PartialEq)]
pub struct CatalogManifest<E> {
    /// The global memory budget, if one was configured.
    pub budget: Option<usize>,
    /// Every collection, sorted by name.
    pub collections: Vec<CollectionRecord<E>>,
}

impl<E: GridEndpoint> Codec for CollectionRecord<E> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.name.encode_into(out);
        self.kind.encode_into(out);
        self.shards.encode_into(out);
        self.seed.encode_into(out);
        self.weighted.encode_into(out);
        self.auto.encode_into(out);
        self.next_global.encode_into(out);
        self.remap.encode_into(out);
        self.live.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(CollectionRecord {
            name: String::decode(r)?,
            kind: String::decode(r)?,
            shards: usize::decode(r)?,
            seed: u64::decode(r)?,
            weighted: bool::decode(r)?,
            auto: Option::<(f64, bool, f64)>::decode(r)?,
            next_global: ItemId::decode(r)?,
            remap: Option::<Vec<(ItemId, ItemId)>>::decode(r)?,
            live: Vec::<(ItemId, (Interval<E>, f64))>::decode(r)?,
        })
    }
}

impl<E: GridEndpoint> Codec for CatalogManifest<E> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.budget.encode_into(out);
        self.collections.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(CatalogManifest {
            budget: Option::<usize>::decode(r)?,
            collections: Vec::<CollectionRecord<E>>::decode(r)?,
        })
    }
}

pub(crate) fn save<E: GridEndpoint>(catalog: &Catalog<E>, dir: &Path) -> Result<(), CatalogError> {
    let subdir = dir.join(COLLECTIONS_DIR);
    std::fs::create_dir_all(&subdir).map_err(|e| PersistError::io(&subdir, &e))?;

    // The tenancy as of now: the manifest names exactly the
    // collections saved below. The map lock is released before any
    // writer seat is awaited (a seat holder may need the map to check
    // the budget).
    let colls: Vec<(String, Arc<Collection<E>>)> = catalog
        .inner
        .collections
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(name, coll)| (name.clone(), Arc::clone(coll)))
        .collect();
    let mut records = Vec::with_capacity(colls.len());
    for (name, coll) in colls {
        let coll_dir = subdir.join(&name);
        std::fs::create_dir_all(&coll_dir).map_err(|e| PersistError::io(&coll_dir, &e))?;
        // Writer seat + book lock = one consistent generation of
        // (backend snapshot, id bookkeeping) per collection.
        let record = coll.with_writer(|seat| {
            let kind = coll.engine().kind();
            let book = coll.book.lock().unwrap_or_else(|e| e.into_inner());
            seat.save(&coll_dir)?;
            Ok::<_, PersistError>(CollectionRecord {
                name,
                kind: kind.name().to_string(),
                shards: coll.shards,
                seed: coll.seed,
                weighted: coll.weighted,
                auto: coll
                    .auto
                    .map(|h| (h.update_rate, h.weighted, h.expected_extent)),
                next_global: book.next_global,
                remap: book.remap.as_ref().map(|m| {
                    let mut pairs: Vec<(ItemId, ItemId)> =
                        m.to_global.iter().map(|(&b, &g)| (b, g)).collect();
                    pairs.sort_unstable();
                    pairs
                }),
                live: book.live.iter().map(|(&g, &entry)| (g, entry)).collect(),
            })
        })?;
        records.push(record);
    }

    let manifest = CatalogManifest::<E> {
        budget: catalog.inner.budget,
        collections: records,
    };
    let mut file = Vec::new();
    write_header(&mut file, ROLE_CATALOG);
    encode_section(&mut file, &manifest);
    write_file_atomic(&dir.join(CATALOG_MANIFEST_FILE), &[&file]).map_err(CatalogError::from)
}

/// Reads `<dir>/catalog.irs` without loading any collection.
pub fn read_catalog_manifest<E: GridEndpoint>(
    dir: &Path,
) -> Result<CatalogManifest<E>, PersistError> {
    let path = dir.join(CATALOG_MANIFEST_FILE);
    let bytes = std::fs::read(&path).map_err(|e| PersistError::io(&path, &e))?;
    let mut r = Reader::new(&bytes);
    read_header(&mut r, ROLE_CATALOG)?;
    let manifest = decode_section::<CatalogManifest<E>>(&mut r, "catalog manifest")?;
    if !r.is_empty() {
        return Err(PersistError::Corrupt {
            what: "catalog manifest file has trailing bytes",
        });
    }
    Ok(manifest)
}

pub(crate) fn load<E: GridEndpoint>(dir: &Path) -> Result<Catalog<E>, CatalogError> {
    let manifest = read_catalog_manifest::<E>(dir)?;
    let mut collections = BTreeMap::new();
    for record in manifest.collections {
        let coll_dir = dir.join(COLLECTIONS_DIR).join(&record.name);
        let engine = irs_engine::Engine::<E>::load(&coll_dir)?;
        let kind = irs_engine::IndexKind::parse(&record.kind).ok_or(PersistError::UnknownKind {
            name: record.kind.clone(),
        })?;
        if engine.kind() != kind {
            return Err(CatalogError::Persist(PersistError::ManifestMismatch {
                what: "collection snapshot kind disagrees with the catalog manifest",
            }));
        }
        if engine.len() != record.live.len() {
            return Err(CatalogError::Persist(PersistError::ManifestMismatch {
                what: "collection snapshot length disagrees with the catalog live set",
            }));
        }
        let remap = record.remap.map(|pairs| {
            let mut map = IdMap::default();
            for (backend, global) in pairs {
                map.to_global.insert(backend, global);
                map.to_backend.insert(global, backend);
            }
            map
        });
        let collection = Arc::new(Collection {
            name: record.name.clone(),
            shards: record.shards.max(1),
            seed: record.seed,
            weighted: record.weighted,
            auto: record
                .auto
                .map(|(update_rate, weighted, expected_extent)| WorkloadHints {
                    update_rate,
                    weighted,
                    expected_extent,
                }),
            state: RwLock::new(BackendState {
                engine,
                generation: 0,
            }),
            book: Mutex::new(Book {
                live: record.live.into_iter().collect(),
                remap,
                next_global: record.next_global,
            }),
            reindexing: AtomicBool::new(false),
        });
        collections.insert(record.name, collection);
    }
    Ok(Catalog::from_parts(manifest.budget, collections))
}
