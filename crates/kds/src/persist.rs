//! On-disk codecs for [`Kds`]: the point permutation, node arena, and
//! weight arrays verbatim (see `DESIGN.md`, "On-disk snapshot format").
//!
//! Decoding trusts nothing: it re-validates every point id, node range
//! and arena link against the decoded arrays, so a corrupt section is a
//! typed [`PersistError`], never a query-time panic.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

use crate::tree::{KdNode, Kds, Point};
use irs_core::persist::{check_arena_link, Codec, PersistError, Reader};
use irs_core::{Endpoint, ItemId};

impl<E: Endpoint + Codec> Codec for Point<E> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.lo.encode_into(out);
        self.hi.encode_into(out);
        self.id.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Point {
            lo: E::decode(r)?,
            hi: E::decode(r)?,
            id: ItemId::decode(r)?,
        })
    }
}

impl<E: Endpoint + Codec> Codec for KdNode<E> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.begin.encode_into(out);
        self.end.encode_into(out);
        self.min_lo.encode_into(out);
        self.max_lo.encode_into(out);
        self.min_hi.encode_into(out);
        self.max_hi.encode_into(out);
        self.left.encode_into(out);
        self.right.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(KdNode {
            begin: u32::decode(r)?,
            end: u32::decode(r)?,
            min_lo: E::decode(r)?,
            max_lo: E::decode(r)?,
            min_hi: E::decode(r)?,
            max_hi: E::decode(r)?,
            left: u32::decode(r)?,
            right: u32::decode(r)?,
        })
    }
}

impl<E: Endpoint + Codec> Codec for Kds<E> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.points.encode_into(out);
        self.nodes.encode_into(out);
        self.root.encode_into(out);
        self.leaf_size.encode_into(out);
        self.weight_prefix.encode_into(out);
        self.point_weights.encode_into(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let points: Vec<Point<E>> = Vec::decode(r)?;
        if points.iter().any(|p| p.id as usize >= points.len()) {
            return Err(PersistError::Corrupt {
                what: "kd-tree point id out of range",
            });
        }
        let nodes: Vec<KdNode<E>> = Vec::decode(r)?;
        let root = u32::decode(r)?;
        check_arena_link(root, nodes.len(), "kd-tree link out of range")?;
        for n in &nodes {
            check_arena_link(n.left, nodes.len(), "kd-tree link out of range")?;
            check_arena_link(n.right, nodes.len(), "kd-tree link out of range")?;
        }
        if nodes
            .iter()
            .any(|n| n.begin > n.end || n.end as usize > points.len())
        {
            return Err(PersistError::Corrupt {
                what: "kd-tree node range outside the point array",
            });
        }
        let leaf_size = usize::decode(r)?;
        if leaf_size == 0 {
            return Err(PersistError::Corrupt {
                what: "kd-tree leaf size is zero",
            });
        }
        let weight_prefix: Vec<f64> = Vec::decode(r)?;
        let point_weights: Vec<f64> = Vec::decode(r)?;
        if !weight_prefix.is_empty()
            && (weight_prefix.len() != points.len() || point_weights.len() != points.len())
        {
            return Err(PersistError::Corrupt {
                what: "kd-tree weight arrays do not match the point array",
            });
        }
        Ok(Kds {
            points,
            nodes,
            root,
            leaf_size,
            weight_prefix,
            point_weights,
        })
    }
}
