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

use crate::ait::{Ait, AitNode};
use crate::aitv::AitV;
use crate::awit::{Awit, AwitNode};
use crate::build::Key;
use crate::dynamic_awit::DynamicAwit;
use irs_core::persist::{check_arena_link as check_link, Codec, PersistError, Reader};
use irs_core::{Endpoint, Interval, ItemId};

/// Whether every id stored in the tree's four lists (and, for the AIT,
/// its pool) is below `bound` — used where a structure's ids index into
/// a sibling table, so a corrupt id would panic at query time. All four
/// lists are scanned: records can be served from any of them.
fn ait_ids_below<E: Endpoint>(ait: &Ait<E>, bound: usize) -> bool {
    let ok = |k: &Key<E>| (k.id as usize) < bound;
    ait.nodes.iter().all(|n| {
        n.l_lo.iter().all(ok)
            && n.l_hi.iter().all(ok)
            && n.al_lo.iter().all(ok)
            && n.al_hi.iter().all(ok)
    }) && ait.pool.iter().all(|&(_, id)| (id as usize) < bound)
}

/// [`ait_ids_below`] for the AWIT's node lists.
fn awit_ids_below<E: Endpoint>(awit: &Awit<E>, bound: usize) -> bool {
    let ok = |k: &Key<E>| (k.id as usize) < bound;
    awit.nodes.iter().all(|n| {
        n.l_lo.iter().all(ok)
            && n.l_hi.iter().all(ok)
            && n.al_lo.iter().all(ok)
            && n.al_hi.iter().all(ok)
    })
}

impl<E: Endpoint + Codec> Codec for Key<E> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.key.encode_into(out);
        self.id.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Key {
            key: E::decode(r)?,
            id: ItemId::decode(r)?,
        })
    }
}

impl<E: Endpoint + Codec> Codec for AitNode<E> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.center.encode_into(out);
        self.l_lo.encode_into(out);
        self.l_hi.encode_into(out);
        self.al_lo.encode_into(out);
        self.al_hi.encode_into(out);
        self.left.encode_into(out);
        self.right.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let node = AitNode {
            center: E::decode(r)?,
            l_lo: Vec::decode(r)?,
            l_hi: Vec::decode(r)?,
            al_lo: Vec::decode(r)?,
            al_hi: Vec::decode(r)?,
            left: u32::decode(r)?,
            right: u32::decode(r)?,
        };
        if node.l_lo.len() != node.l_hi.len() || node.al_lo.len() != node.al_hi.len() {
            return Err(PersistError::Corrupt {
                what: "AIT node: lo/hi list lengths disagree",
            });
        }
        Ok(node)
    }
}

impl<E: Endpoint + Codec> Codec for Ait<E> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.nodes.encode_into(out);
        self.root.encode_into(out);
        self.len.encode_into(out);
        self.height.encode_into(out);
        self.next_id.encode_into(out);
        self.pool.encode_into(out);
        self.pool_capacity.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let nodes: Vec<AitNode<E>> = Vec::decode(r)?;
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
        // Every stored id sits in exactly one node's `l_lo` or in the
        // pool; one at or above `next_id` would be issued again by the
        // next insert.
        let mut ids = (ait.nodes.iter().flat_map(|n| &n.l_lo).map(|k| k.id))
            .chain(ait.pool.iter().map(|&(_, id)| id));
        if ids.any(|id| id >= ait.next_id) {
            return Err(PersistError::Corrupt {
                what: "AIT: stored id at or above next_id",
            });
        }
        Ok(ait)
    }
}

impl<E: Endpoint + Codec> Codec for AitV<E> {
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

impl<E: Endpoint + Codec> Codec for AwitNode<E> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.center.encode_into(out);
        self.l_lo.encode_into(out);
        self.l_hi.encode_into(out);
        self.al_lo.encode_into(out);
        self.al_hi.encode_into(out);
        self.w_l_lo.encode_into(out);
        self.w_l_hi.encode_into(out);
        self.w_al_lo.encode_into(out);
        self.w_al_hi.encode_into(out);
        self.left.encode_into(out);
        self.right.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let node = AwitNode {
            center: E::decode(r)?,
            l_lo: Vec::decode(r)?,
            l_hi: Vec::decode(r)?,
            al_lo: Vec::decode(r)?,
            al_hi: Vec::decode(r)?,
            w_l_lo: Vec::decode(r)?,
            w_l_hi: Vec::decode(r)?,
            w_al_lo: Vec::decode(r)?,
            w_al_hi: Vec::decode(r)?,
            left: u32::decode(r)?,
            right: u32::decode(r)?,
        };
        if node.l_lo.len() != node.w_l_lo.len()
            || node.l_hi.len() != node.w_l_hi.len()
            || node.al_lo.len() != node.w_al_lo.len()
            || node.al_hi.len() != node.w_al_hi.len()
        {
            return Err(PersistError::Corrupt {
                what: "AWIT node: list and prefix-array lengths disagree",
            });
        }
        Ok(node)
    }
}

impl<E: Endpoint + Codec> Codec for Awit<E> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.nodes.encode_into(out);
        self.root.encode_into(out);
        self.len.encode_into(out);
        self.height.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let nodes: Vec<AwitNode<E>> = Vec::decode(r)?;
        let root = u32::decode(r)?;
        check_link(root, nodes.len(), "AWIT root out of range")?;
        for node in &nodes {
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

impl<E: Endpoint + Codec> Codec for DynamicAwit<E> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use irs_core::{RangeSampler, RangeSearch, WeightedRangeSampler};
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
    fn corrupt_links_are_refused() {
        let ait = Ait::new(&(0..50).map(|i| iv(i, i + 5)).collect::<Vec<_>>());
        let mut buf = Vec::new();
        ait.encode_into(&mut buf);
        // The root index is encoded right after the node vector; rather
        // than compute its offset, decode a tree whose root is forged.
        let mut forged = Vec::new();
        Vec::<AitNode<i64>>::new().encode_into(&mut forged); // zero nodes
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
