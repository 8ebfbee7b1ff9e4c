//! The fallible *mutation* vocabulary: typed update operations, outputs,
//! and errors.
//!
//! Companion to [`crate::query`]: where that module types the read path,
//! this one types the write path opened by the paper's §III-D update
//! algorithms (one-by-one insertion, pooled batch insertion, deletion)
//! and the beyond-paper `DynamicAwit`. Every mutable backend in the
//! workspace — the single-index structures and the sharded
//! `irs-engine` that `irs-client` fronts — reports update failures
//! through one taxonomy:
//!
//! - [`Mutation`] — one typed update operation: insert an interval
//!   (uniform), insert with a weight, or delete by id.
//! - [`UpdateOutput`] — what a successful mutation yields. Insertions
//!   return the new interval's [`ItemId`]; the id is **stable for the
//!   backend's lifetime**, so later deletions and query results refer to
//!   the same interval, at any shard count.
//! - [`UpdateError`] — why one mutation could not be applied. Kinds that
//!   are static snapshots refuse with [`UpdateError::UnsupportedKind`];
//!   a weighted insert into an unweighted build is
//!   [`UpdateError::NotWeighted`]; deleting an id that is not live is
//!   [`UpdateError::UnknownId`]; a bad weight is caught by the same
//!   validation gate as construction ([`crate::validate_weights`], via
//!   [`validate_update_weight`]) before it can corrupt any structure.
//!
//! Mutations take `&mut self` throughout the stack — queries stay
//! `&self` — so the type system itself guarantees no query batch is in
//! flight while the dataset changes.

use crate::interval::{Interval, ItemId};
use crate::query::BuildError;
use std::fmt;

/// One typed update operation submitted to a mutable backend.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mutation<E> {
    /// Insert `iv` with unit weight. On a weighted backend the interval
    /// joins with weight `1.0`.
    Insert {
        /// The interval to insert.
        iv: Interval<E>,
    },
    /// Insert `iv` with an explicit weight (Problem 2 backends only).
    /// The weight must pass the same gate as construction-time weights:
    /// positive and finite.
    InsertWeighted {
        /// The interval to insert.
        iv: Interval<E>,
        /// Its sampling weight.
        weight: f64,
    },
    /// Delete the interval identified by `id` (as returned by an insert
    /// or assigned at build time).
    Delete {
        /// The id to delete.
        id: ItemId,
    },
}

impl<E> Mutation<E> {
    /// The mutation's operation class, for capability gating.
    pub fn op(&self) -> UpdateOp {
        match self {
            Mutation::Insert { .. } => UpdateOp::Insert,
            Mutation::InsertWeighted { .. } => UpdateOp::InsertWeighted,
            Mutation::Delete { .. } => UpdateOp::Delete,
        }
    }
}

/// The three mutation classes a backend may (or may not) support, used
/// by capability gates and carried in error payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UpdateOp {
    /// Unit-weight insertion ([`Mutation::Insert`]).
    Insert,
    /// Weighted insertion ([`Mutation::InsertWeighted`]).
    InsertWeighted,
    /// Deletion by id ([`Mutation::Delete`]).
    Delete,
}

impl UpdateOp {
    /// Stable lowercase name (log/JSON field value).
    pub fn name(self) -> &'static str {
        match self {
            UpdateOp::Insert => "insert",
            UpdateOp::InsertWeighted => "insert-weighted",
            UpdateOp::Delete => "delete",
        }
    }
}

impl fmt::Display for UpdateOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Successful result of one [`Mutation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOutput {
    /// An insertion succeeded; the payload is the new interval's stable
    /// id, usable in later [`Mutation::Delete`]s and matching the ids
    /// query results report.
    Inserted(ItemId),
    /// A deletion succeeded; the id is retired and will never be
    /// reissued by the same backend.
    Removed,
}

impl UpdateOutput {
    /// The inserted id, if this is an `Inserted` output.
    pub fn inserted(&self) -> Option<ItemId> {
        match self {
            UpdateOutput::Inserted(id) => Some(*id),
            UpdateOutput::Removed => None,
        }
    }
}

/// Why one mutation could not be applied.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateError {
    /// The backend's index kind cannot serve this mutation, however it
    /// was built — static-snapshot kinds refuse all mutations, and
    /// update-capable kinds may refuse one class (e.g. weighted inserts
    /// into an AIT, which stores no weights).
    UnsupportedKind {
        /// The refusing kind's stable name.
        kind: &'static str,
        /// Why it cannot serve the mutation, in one sentence.
        reason: &'static str,
    },
    /// A weighted insert was sent to a backend built without
    /// per-interval weights. Rebuild with weights (or insert with unit
    /// weight) instead.
    NotWeighted,
    /// The id names no live interval: it was never issued by this
    /// backend, or it has already been deleted.
    UnknownId {
        /// The offending id.
        id: ItemId,
    },
    /// The weight is not a positive finite number — the same rejection
    /// policy as construction-time [`crate::validate_weights`], applied
    /// before the mutation can touch any structure.
    InvalidWeight {
        /// The offending value.
        value: f64,
    },
    /// The worker owning the target shard died; the mutation was not
    /// applied. Matches the query path's `QueryError::ShardFailed`
    /// semantics: the dead shard keeps erring on every later operation.
    ShardFailed {
        /// The shard whose worker was observed dead.
        shard: usize,
    },
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::UnsupportedKind { kind, reason } => {
                write!(f, "`{kind}` cannot serve this mutation: {reason}")
            }
            UpdateError::NotWeighted => write!(
                f,
                "weighted insert requested, but the backend was built without weights"
            ),
            UpdateError::UnknownId { id } => {
                write!(
                    f,
                    "id {id} names no live interval (never issued, or already deleted)"
                )
            }
            UpdateError::InvalidWeight { value } => write!(
                f,
                "invalid weight {value} (weights must be positive and finite)"
            ),
            UpdateError::ShardFailed { shard } => {
                write!(f, "shard {shard} failed: its worker thread died")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// Validates one insertion weight through the **same gate** as
/// construction-time weight vectors ([`crate::validate_weights`]), so
/// the rejection policy cannot drift between build and update paths.
pub fn validate_update_weight(weight: f64) -> Result<(), UpdateError> {
    match crate::validate_weights(1, &[weight]) {
        Ok(()) => Ok(()),
        // The only reachable arm for a 1-element vector is InvalidWeight.
        Err(BuildError::InvalidWeight { value, .. }) => Err(UpdateError::InvalidWeight { value }),
        Err(_) => Err(UpdateError::InvalidWeight { value: weight }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_ops_classify() {
        let iv = Interval::new(1i64, 5);
        assert_eq!(Mutation::Insert { iv }.op(), UpdateOp::Insert);
        assert_eq!(
            Mutation::InsertWeighted { iv, weight: 2.0 }.op(),
            UpdateOp::InsertWeighted
        );
        assert_eq!(Mutation::<i64>::Delete { id: 3 }.op(), UpdateOp::Delete);
    }

    #[test]
    fn update_weight_gate_matches_build_gate() {
        assert_eq!(validate_update_weight(1.5), Ok(()));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            match validate_update_weight(bad) {
                Err(UpdateError::InvalidWeight { value }) => {
                    assert!(value.is_nan() == bad.is_nan() && (value == bad || bad.is_nan()));
                }
                other => panic!("{bad}: expected InvalidWeight, got {other:?}"),
            }
        }
    }

    #[test]
    fn outputs_and_errors_display() {
        assert_eq!(UpdateOutput::Inserted(7).inserted(), Some(7));
        assert_eq!(UpdateOutput::Removed.inserted(), None);
        let e = UpdateError::UnknownId { id: 42 };
        assert!(e.to_string().contains("id 42"));
        let e = UpdateError::ShardFailed { shard: 2 };
        assert!(e.to_string().contains("shard 2"));
        let e = UpdateError::UnsupportedKind {
            kind: "kds",
            reason: "static snapshot",
        };
        assert!(e.to_string().contains("kds"));
        assert_eq!(UpdateOp::InsertWeighted.to_string(), "insert-weighted");
    }
}
