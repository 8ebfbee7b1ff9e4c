//! On-disk codecs for the AIT family ([`Ait`], [`AitV`], [`Awit`],
//! [`DynamicAwit`]).
//!
//! Each structure serializes its *built* state — node arenas, sorted
//! lists, cumulative-weight arrays, and the mutable bookkeeping
//! ([`Ait`]'s insertion pool, [`DynamicAwit`]'s pool/tombstone layer and
//! id allocator) — so a decoded index is byte-equivalent to the saved
//! one: identical record sets, identical alias tables, identical draws
//! from an identical RNG stream, and stable ids that survive the
//! restart. The exact layouts are specified in `DESIGN.md`, "On-disk
//! snapshot format"; changing any of them requires a
//! [`irs_core::persist::FORMAT_VERSION`] bump.
//!
//! Decoding trusts nothing: framing and CRC are checked by the caller
//! ([`irs_core::persist::read_section`]), and the impls here re-validate
//! the structural invariants that keep queries panic-free (child
//! indexes in range, tombstones resident, aligned list/prefix lengths,
//! id-sorted slot tables) and the id allocator's (no stored id at or
//! above `next_id`, which the next insert would reissue).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

use crate::ait::{Ait, AitNode};
use crate::aitv::AitV;
use crate::awit::{Awit, AwitNode};
use crate::build::Cols;
use crate::dynamic_awit::DynamicAwit;
use crate::records::ListKind;
use irs_core::persist::{check_arena_link as check_link, Codec, FixedCodec, PersistError, Reader};
use irs_core::{Endpoint, Interval, ItemId};

/// Whether every id stored in the tree's lists (and, for the AIT, its
/// pool) is below `bound` — used where a structure's ids index into a
/// sibling table, so a corrupt id would panic at query time. Both
/// column sets are scanned whole: records can be served from any run.
fn ait_ids_below<E: Endpoint>(ait: &Ait<E>, bound: usize) -> bool {
    ait.nodes.iter().all(|n| node_ids_below(n, bound))
        && ait.pool.iter().all(|&(_, id)| (id as usize) < bound)
}

/// [`ait_ids_below`] for the AWIT's node lists.
fn awit_ids_below<E: Endpoint>(awit: &Awit<E>, bound: usize) -> bool {
    awit.nodes.iter().all(|n| node_ids_below(&n.lists, bound))
}

fn node_ids_below<E>(node: &AitNode<E>, bound: usize) -> bool {
    (node.lo.ids.iter().chain(&node.hi.ids)).all(|&id| (id as usize) < bound)
}

/// Writes one list as the snapshot has always held it: its length, then
/// interleaved `(key, id)` pairs.
fn encode_list<E: Codec>(keys: &[E], ids: &[ItemId], out: &mut Vec<u8>) {
    keys.len().encode_into(out);
    for (key, id) in keys.iter().zip(ids) {
        key.encode_into(out);
        id.encode_into(out);
    }
}

/// Reads one [`encode_list`] list onto the end of `cols`, leaving room
/// for `extra` more. The pairs decode as one fixed-width run.
fn decode_list_into<E: Endpoint + FixedCodec>(
    r: &mut Reader<'_>,
    cols: &mut Cols<E>,
    extra: usize,
) -> Result<(), PersistError> {
    let len = r.take_len(<(E, ItemId)>::MIN_WIDTH)?;
    cols.keys.reserve_exact(len + extra);
    cols.ids.reserve_exact(len + extra);
    r.decode_run(len, |(key, id): (E, ItemId)| {
        cols.keys.push(key);
        cols.ids.push(id);
        Ok(())
    })
}

/// Reads a node's center and its four lists, `Ll, Lr, ALl, ALr`: the
/// `L` lists wait in `scratch` until each `AL` list has been read into
/// a column set of exact capacity, and then follow it.
fn decode_lists<E: Endpoint + FixedCodec>(
    r: &mut Reader<'_>,
    scratch: &mut NodeScratch<E>,
) -> Result<(E, Cols<E>, Cols<E>), PersistError> {
    let center = E::decode(r)?;
    for l in [&mut scratch.l_lo, &mut scratch.l_hi] {
        l.keys.clear();
        l.ids.clear();
        decode_list_into(r, l, 0)?;
    }
    let mut sides = [Cols::new(), Cols::new()];
    for (side, l) in sides.iter_mut().zip([&scratch.l_lo, &scratch.l_hi]) {
        decode_list_into(r, side, l.keys.len())?;
        side.keys.extend_from_slice(&l.keys);
        side.ids.extend_from_slice(&l.ids);
    }
    let [lo, hi] = sides;
    Ok((center, lo, hi))
}

/// Writes one prefix run as a `Vec<f64>`: its length, then its sums.
fn encode_prefix(w: &[f64], out: &mut Vec<u8>) {
    w.len().encode_into(out);
    for x in w {
        x.encode_into(out);
    }
}

/// Reads one [`encode_prefix`] run onto the end of `out`, leaving room
/// for `extra` more, and refuses a run that cannot be the prefix sums of
/// finite positive weights.
fn decode_prefix_into(
    r: &mut Reader<'_>,
    out: &mut Vec<f64>,
    extra: usize,
) -> Result<(), PersistError> {
    let len = r.take_len(f64::MIN_WIDTH)?;
    out.reserve_exact(len + extra);
    let mut prev = None;
    r.decode_run(len, |sum: f64| {
        let what = if !sum.is_finite() {
            "AWIT prefix run holds a non-finite sum"
        } else if prev.is_none() && sum <= 0.0 {
            "AWIT prefix run starts at a weight that is not positive"
        } else if prev.is_some_and(|p| sum < p) {
            "AWIT prefix run decreases"
        } else {
            prev = Some(sum);
            out.push(sum);
            return Ok(());
        };
        Err(PersistError::Corrupt { what })
    })
}

/// Per-decode scratch: a node's `L` runs (and, for the AWIT, their
/// prefix runs) wait here until the `AL` runs they follow in memory have
/// been read. Reused across the nodes of one tree.
struct NodeScratch<E> {
    l_lo: Cols<E>,
    l_hi: Cols<E>,
    w_l_lo: Vec<f64>,
    w_l_hi: Vec<f64>,
}

impl<E> NodeScratch<E> {
    fn new() -> Self {
        NodeScratch {
            l_lo: Cols::new(),
            l_hi: Cols::new(),
            w_l_lo: Vec::new(),
            w_l_hi: Vec::new(),
        }
    }
}

/// `|AL|` of a decoded node, refusing lists whose two sides disagree in
/// length (one `split` serves both sides).
fn split_of<E>(
    lo: &Cols<E>,
    hi: &Cols<E>,
    l_len: (usize, usize),
    what: &'static str,
) -> Result<u32, PersistError> {
    let (l_lo, l_hi) = l_len;
    if l_lo != l_hi || lo.keys.len() != hi.keys.len() {
        return Err(PersistError::Corrupt { what });
    }
    u32::try_from(lo.keys.len() - l_lo).map_err(|_| PersistError::Corrupt { what })
}

/// Bytes of an encoded AIT node besides its center, at the least: four
/// list lengths and two links.
const AIT_NODE_MIN_WIDTH: usize = 4 * 8 + 2 * 4;

/// [`AIT_NODE_MIN_WIDTH`] plus the AWIT node's four prefix-run lengths.
const AWIT_NODE_MIN_WIDTH: usize = AIT_NODE_MIN_WIDTH + 4 * 8;

/// Node layout on disk: `center, Ll, Lr, ALl, ALr, left, right`, each
/// list an [`encode_list`].
fn encode_ait_node<E: Endpoint + Codec>(node: &AitNode<E>, out: &mut Vec<u8>) {
    node.center.encode_into(out);
    for kind in [ListKind::Lo, ListKind::Hi, ListKind::AllLo, ListKind::AllHi] {
        encode_list(node.keys(kind), node.ids(kind), out);
    }
    node.left.encode_into(out);
    node.right.encode_into(out);
}

fn decode_ait_node<E: Endpoint + FixedCodec>(
    r: &mut Reader<'_>,
    scratch: &mut NodeScratch<E>,
) -> Result<AitNode<E>, PersistError> {
    let (center, lo, hi) = decode_lists(r, scratch)?;
    let left = u32::decode(r)?;
    let right = u32::decode(r)?;
    let l_len = (scratch.l_lo.keys.len(), scratch.l_hi.keys.len());
    let split = split_of(&lo, &hi, l_len, "AIT node: lo/hi list lengths disagree")?;
    Ok(AitNode {
        center,
        lo,
        hi,
        split,
        left,
        right,
    })
}

/// Node layout on disk: the AIT node's `center` and four lists, then
/// `Wl, Wr, AWl, AWr` as `Vec<f64>`s, then `left, right`.
fn encode_awit_node<E: Endpoint + Codec>(node: &AwitNode<E>, out: &mut Vec<u8>) {
    let lists = &node.lists;
    lists.center.encode_into(out);
    let kinds = [ListKind::Lo, ListKind::Hi, ListKind::AllLo, ListKind::AllHi];
    for kind in kinds {
        encode_list(lists.keys(kind), lists.ids(kind), out);
    }
    for kind in kinds {
        encode_prefix(node.prefix(kind), out);
    }
    lists.left.encode_into(out);
    lists.right.encode_into(out);
}

fn decode_awit_node<E: Endpoint + FixedCodec>(
    r: &mut Reader<'_>,
    scratch: &mut NodeScratch<E>,
) -> Result<AwitNode<E>, PersistError> {
    let (center, lo, hi) = decode_lists(r, scratch)?;
    for w in [&mut scratch.w_l_lo, &mut scratch.w_l_hi] {
        w.clear();
        decode_prefix_into(r, w, 0)?;
    }
    let mut w_sides = [Vec::new(), Vec::new()];
    for (w, l) in w_sides.iter_mut().zip([&scratch.w_l_lo, &scratch.w_l_hi]) {
        decode_prefix_into(r, w, l.len())?;
        w.extend_from_slice(l);
    }
    let [w_lo, w_hi] = w_sides;
    let left = u32::decode(r)?;
    let right = u32::decode(r)?;
    if scratch.w_l_lo.len() != scratch.l_lo.keys.len()
        || scratch.w_l_hi.len() != scratch.l_hi.keys.len()
        || w_lo.len() != lo.keys.len()
        || w_hi.len() != hi.keys.len()
    {
        return Err(PersistError::Corrupt {
            what: "AWIT node: list and prefix-array lengths disagree",
        });
    }
    let l_len = (scratch.l_lo.keys.len(), scratch.l_hi.keys.len());
    let split = split_of(&lo, &hi, l_len, "AWIT node: lo/hi list lengths disagree")?;
    Ok(AwitNode {
        lists: AitNode {
            center,
            lo,
            hi,
            split,
            left,
            right,
        },
        w_lo,
        w_hi,
    })
}

impl<E: Endpoint + FixedCodec> Codec for Ait<E> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.nodes.len().encode_into(out);
        for node in &self.nodes {
            encode_ait_node(node, out);
        }
        self.root.encode_into(out);
        self.len.encode_into(out);
        self.height.encode_into(out);
        self.next_id.encode_into(out);
        self.pool.encode_into(out);
        self.pool_capacity.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let count = r.take_len(AIT_NODE_MIN_WIDTH + E::MIN_WIDTH)?;
        let mut nodes = Vec::with_capacity(count);
        let mut scratch = NodeScratch::new();
        for _ in 0..count {
            nodes.push(decode_ait_node(r, &mut scratch)?);
        }
        let root = u32::decode(r)?;
        check_link(root, nodes.len(), "AIT root out of range")?;
        for node in &nodes {
            check_link(node.left, nodes.len(), "AIT child link out of range")?;
            check_link(node.right, nodes.len(), "AIT child link out of range")?;
        }
        let ait = Ait {
            nodes,
            root,
            len: usize::decode(r)?,
            height: usize::decode(r)?,
            next_id: ItemId::decode(r)?,
            pool: Vec::decode(r)?,
            pool_capacity: usize::decode(r)?,
        };
        // Every stored id sits in exactly one node's `Ll` run or in the
        // pool; one at or above `next_id` would be issued again by the
        // next insert.
        let mut ids = (ait.nodes.iter().flat_map(|n| n.ids(ListKind::Lo)).copied())
            .chain(ait.pool.iter().map(|&(_, id)| id));
        if ids.any(|id| id >= ait.next_id) {
            return Err(PersistError::Corrupt {
                what: "AIT: stored id at or above next_id",
            });
        }
        Ok(ait)
    }
}

impl<E: Endpoint + FixedCodec> Codec for AitV<E> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.virtual_ait.encode_into(out);
        self.members.encode_into(out);
        self.data.encode_into(out);
        self.bucket_size.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let virtual_ait = Ait::decode(r)?;
        let members: Vec<ItemId> = Vec::decode(r)?;
        let data: Vec<Interval<E>> = Vec::decode(r)?;
        let bucket_size = usize::decode(r)?;
        if bucket_size == 0 {
            return Err(PersistError::Corrupt {
                what: "AIT-V bucket size is zero",
            });
        }
        if members.len() != data.len() || members.iter().any(|&id| id as usize >= data.len()) {
            return Err(PersistError::Corrupt {
                what: "AIT-V member permutation does not match its dataset",
            });
        }
        // Virtual-AIT ids are bucket indices into `members`; sampling
        // slices `members[bucket·size ..]`, so every id must name a
        // real bucket or a draw would panic at query time.
        if !ait_ids_below(&virtual_ait, members.len().div_ceil(bucket_size)) {
            return Err(PersistError::Corrupt {
                what: "AIT-V virtual interval names a bucket out of range",
            });
        }
        Ok(AitV {
            virtual_ait,
            members,
            data,
            bucket_size,
        })
    }
}

impl<E: Endpoint + FixedCodec> Codec for Awit<E> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.nodes.len().encode_into(out);
        for node in &self.nodes {
            encode_awit_node(node, out);
        }
        self.root.encode_into(out);
        self.len.encode_into(out);
        self.height.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let count = r.take_len(AWIT_NODE_MIN_WIDTH + E::MIN_WIDTH)?;
        let mut nodes = Vec::with_capacity(count);
        let mut scratch = NodeScratch::new();
        for _ in 0..count {
            nodes.push(decode_awit_node(r, &mut scratch)?);
        }
        let root = u32::decode(r)?;
        check_link(root, nodes.len(), "AWIT root out of range")?;
        for node in &nodes {
            let node = &node.lists;
            check_link(node.left, nodes.len(), "AWIT child link out of range")?;
            check_link(node.right, nodes.len(), "AWIT child link out of range")?;
        }
        Ok(Awit {
            nodes,
            root,
            len: usize::decode(r)?,
            height: usize::decode(r)?,
        })
    }
}

impl<E: Endpoint + FixedCodec> Codec for DynamicAwit<E> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.awit.encode_into(out);
        self.slot_ids.encode_into(out);
        // The resident set and the tombstones are written as
        // `(id, record)` and `(id, interval)` lists. Both walk positions
        // in order, so both come out sorted by id.
        self.slot_ids.len().encode_into(out);
        for (id, record) in self.slot_ids.iter().zip(&self.records) {
            id.encode_into(out);
            record.encode_into(out);
        }
        self.pool.encode_into(out);
        self.tombstoned.len().encode_into(out);
        for (pos, (id, (iv, _))) in self.slot_ids.iter().zip(&self.records).enumerate() {
            if self.is_tombstoned(pos as u32) {
                id.encode_into(out);
                iv.encode_into(out);
            }
        }
        self.next_id.encode_into(out);
        self.update_capacity.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let corrupt = |what| Err(PersistError::Corrupt { what });
        let awit = Awit::decode(r)?;
        let slot_ids: Vec<ItemId> = Vec::decode(r)?;
        let resident: Vec<(ItemId, (Interval<E>, f64))> = Vec::decode(r)?;
        let pool: Vec<(Interval<E>, ItemId, f64)> = Vec::decode(r)?;
        let tombstones: Vec<(ItemId, Interval<E>)> = Vec::decode(r)?;
        let next_id = ItemId::decode(r)?;
        let update_capacity = usize::decode(r)?;

        if slot_ids.len() != awit.len() || slot_ids.len() != resident.len() {
            return corrupt("dynamic AWIT: slot table does not match its resident set");
        }
        // AWIT list ids are positions into `slot_ids`; a draw resolves
        // `slot_ids[pos]`, so every stored position must be in range.
        if !awit_ids_below(&awit, slot_ids.len()) {
            return corrupt("dynamic AWIT: slot position out of range");
        }
        // Lookups by id binary-search the slot table.
        if !slot_ids.is_sorted_by(|a, b| a < b) {
            return corrupt("dynamic AWIT: slot ids are not strictly increasing");
        }
        // Every live weight passed `insert`'s or `new`'s gate; one that
        // fails it would poison the alias tables and the live mass.
        let valid = |w: f64| w > 0.0 && w.is_finite();
        if !resident.iter().all(|&(_, (_, w))| valid(w)) {
            return corrupt("dynamic AWIT: resident weight is not finite and positive");
        }
        if !pool.iter().all(|&(_, _, w)| valid(w)) {
            return corrupt("dynamic AWIT: pool weight is not finite and positive");
        }
        let (resident_ids, records): (Vec<ItemId>, Vec<_>) = resident.into_iter().unzip();
        if resident_ids != slot_ids {
            return corrupt("dynamic AWIT: resident ids are not the slot ids");
        }
        let mut tombstoned: Vec<u32> = Vec::with_capacity(tombstones.len());
        for (id, iv) in tombstones {
            match slot_ids.binary_search(&id) {
                Err(_) => return corrupt("dynamic AWIT: tombstoned id is not resident"),
                Ok(pos) if records.get(pos).map(|&(riv, _)| riv) != Some(iv) => {
                    return corrupt("dynamic AWIT: tombstone interval differs from its resident")
                }
                Ok(pos) => tombstoned.push(pos as u32),
            }
        }
        if !tombstoned.is_sorted_by(|a, b| a < b) {
            return corrupt("dynamic AWIT: tombstones are not in strictly increasing id order");
        }
        // Each pool id was issued once, after every resident's: a rebuild
        // appends the sorted pool to the slot table.
        let mut pool_ids: Vec<ItemId> = pool.iter().map(|&(_, id, _)| id).collect();
        pool_ids.sort_unstable();
        let above_slots = pool_ids.first().is_none_or(|id| Some(id) > slot_ids.last());
        if !above_slots || !pool_ids.is_sorted_by(|a, b| a < b) {
            return corrupt("dynamic AWIT: pool id is repeated or not above every slot id");
        }
        // A stored id at or above `next_id` would be issued again by the
        // next insert.
        let max_id = pool_ids.last().or(slot_ids.last());
        if max_id.is_some_and(|&id| id >= next_id) {
            return corrupt("dynamic AWIT: stored id at or above next_id");
        }
        Ok(DynamicAwit {
            awit,
            slot_ids,
            records,
            pool,
            tombstoned,
            next_id,
            update_capacity,
        })
    }
}

/// `value`'s snapshot bytes, for tests that compare trees byte for byte.
#[cfg(test)]
pub(crate) fn encoded<T: Codec>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode_into(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_core::{MemoryFootprint, RangeSampler, RangeSearch, WeightedRangeSampler};
    use rand::{rngs::StdRng, SeedableRng};

    fn iv(lo: i64, hi: i64) -> Interval<i64> {
        Interval::new(lo, hi)
    }

    fn roundtrip<T: Codec>(value: &T) -> T {
        let mut buf = Vec::new();
        value.encode_into(&mut buf);
        let mut r = Reader::new(&buf);
        let out = T::decode(&mut r).expect("decode");
        assert!(r.is_empty(), "trailing bytes after decode");
        out
    }

    #[test]
    fn ait_roundtrip_replays_draws_and_keeps_pool() {
        let data: Vec<_> = (0..300).map(|i| iv(i, i + 40)).collect();
        let mut ait = Ait::new(&data);
        // Mutate so the tree shape differs from a fresh build and the
        // pool is non-empty — the codec must carry the *current* state.
        for i in 0..10 {
            ait.insert_buffered(iv(500 + i, 510 + i));
        }
        ait.delete(iv(0, 40), 0);
        let restored = roundtrip(&ait);
        restored.validate().unwrap();
        let q = iv(100, 160);
        assert_eq!(ait.range_search(q), restored.range_search(q));
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        assert_eq!(
            ait.sample(q, 64, &mut rng_a),
            restored.sample(q, 64, &mut rng_b)
        );
    }

    #[test]
    fn aitv_and_awit_roundtrip() {
        let data: Vec<_> = (0..200).map(|i| iv(i % 90, i % 90 + 25)).collect();
        let aitv = AitV::new(&data);
        let restored = roundtrip(&aitv);
        let q = iv(30, 60);
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        assert_eq!(
            aitv.sample(q, 32, &mut rng_a),
            restored.sample(q, 32, &mut rng_b)
        );

        let weights: Vec<f64> = (0..200).map(|i| 1.0 + (i % 7) as f64).collect();
        let awit = Awit::new(&data, &weights);
        let restored = roundtrip(&awit);
        let mut rng_a = StdRng::seed_from_u64(4);
        let mut rng_b = StdRng::seed_from_u64(4);
        assert_eq!(
            awit.sample_weighted(q, 32, &mut rng_a),
            restored.sample_weighted(q, 32, &mut rng_b)
        );
        assert_eq!(awit.range_weight(q), restored.range_weight(q));
    }

    #[test]
    fn dynamic_awit_roundtrip_preserves_ids_pool_and_tombstones() {
        let data: Vec<_> = (0..80).map(|i| iv(i, i + 15)).collect();
        let weights: Vec<f64> = (0..80).map(|i| 1.0 + (i % 4) as f64).collect();
        let mut idx = DynamicAwit::new(&data, &weights);
        assert!(idx.delete_by_id(5));
        assert!(idx.delete_by_id(40));
        let pooled = idx.insert(iv(200, 220), 9.0);
        let restored = roundtrip(&idx);
        assert_eq!(restored.len(), idx.len());
        assert_eq!(restored.pool_len(), idx.pool_len());
        assert_eq!(restored.tombstone_len(), idx.tombstone_len());
        // Stable ids survive: the pooled id resolves, the tombstoned
        // one stays dead, and the allocator does not reissue ids.
        assert_eq!(restored.get(pooled), Some((iv(200, 220), 9.0)));
        assert_eq!(restored.get(5), None);
        let mut restored = restored;
        let fresh = restored.insert(iv(300, 310), 1.0);
        assert!(fresh > pooled, "id allocator must not reissue {fresh}");
        let q = iv(10, 50);
        let mut rng_a = StdRng::seed_from_u64(8);
        let mut rng_b = StdRng::seed_from_u64(8);
        assert_eq!(idx.sample_weighted(q, 48, &mut rng_a), {
            // Re-decode a pristine copy: the insert above changed state.
            let copy = roundtrip(&idx);
            copy.sample_weighted(q, 48, &mut rng_b)
        });
    }

    #[test]
    fn awit_prefix_runs_must_be_positive_finite_sums() {
        let data: Vec<_> = (0..120).map(|i| iv(i % 40, i % 40 + 9)).collect();
        let awit = Awit::new(&data, &vec![2.0; 120]);
        let root = awit.root as usize;
        let split = awit.nodes[root].lists.split as usize;
        let cases: [(usize, f64, &str); 4] = [
            (0, f64::NAN, "AWIT prefix run holds a non-finite sum"),
            (
                split,
                f64::INFINITY,
                "AWIT prefix run holds a non-finite sum",
            ),
            (
                0,
                0.0,
                "AWIT prefix run starts at a weight that is not positive",
            ),
            (1, 1.0, "AWIT prefix run decreases"),
        ];
        for (at, sum, what) in cases {
            let mut forged = Awit::new(&data, &vec![2.0; 120]);
            forged.nodes[root].w_lo[at] = sum;
            let mut buf = Vec::new();
            forged.encode_into(&mut buf);
            let mut r = Reader::new(&buf);
            assert_eq!(
                Awit::<i64>::decode(&mut r).unwrap_err(),
                PersistError::Corrupt { what },
                "prefix[{at}] = {sum}"
            );
        }
    }

    #[test]
    fn decoded_trees_hold_the_built_layout_at_exact_capacity() {
        let data: Vec<_> = (0..500).map(|i| iv(i % 97, i % 97 + i % 23)).collect();
        let ait = Ait::new(&data);
        let restored = roundtrip(&ait);
        assert_eq!(restored.heap_bytes(), ait.heap_bytes());
        for (a, b) in ait.nodes.iter().zip(&restored.nodes) {
            assert_eq!(
                (a.split, &a.lo.keys, &a.hi.ids),
                (b.split, &b.lo.keys, &b.hi.ids)
            );
        }
        let weights: Vec<f64> = (0..500).map(|i| 1.0 + (i % 3) as f64).collect();
        let awit = Awit::new(&data, &weights);
        let restored = roundtrip(&awit);
        assert_eq!(restored.heap_bytes(), awit.heap_bytes());
        for (a, b) in awit.nodes.iter().zip(&restored.nodes) {
            assert_eq!((&a.w_lo, &a.w_hi), (&b.w_lo, &b.w_hi));
        }
    }

    #[test]
    fn corrupt_links_are_refused() {
        let ait = Ait::new(&(0..50).map(|i| iv(i, i + 5)).collect::<Vec<_>>());
        let mut buf = Vec::new();
        ait.encode_into(&mut buf);
        // The root index is encoded right after the node vector; rather
        // than compute its offset, decode a tree whose root is forged.
        let mut forged = Vec::new();
        0usize.encode_into(&mut forged); // zero nodes
        7u32.encode_into(&mut forged); // root = 7 into an empty arena
        0usize.encode_into(&mut forged);
        0usize.encode_into(&mut forged);
        0u32.encode_into(&mut forged);
        Vec::<(Interval<i64>, ItemId)>::new().encode_into(&mut forged);
        16usize.encode_into(&mut forged);
        let mut r = Reader::new(&forged);
        assert_eq!(
            Ait::<i64>::decode(&mut r).unwrap_err(),
            PersistError::Corrupt {
                what: "AIT root out of range"
            }
        );
    }
}
