//! Typed queries and outputs of the fallible batch API.
//!
//! One [`Query`] in, one `Result<QueryOutput, QueryError>` out, in batch
//! order — see [`crate::Engine::run`]. Failure is carried by
//! [`irs_core::QueryError`], never by a panic or a sentinel variant; an
//! empty result set is `Ok` (an empty sample vector / `Ok(0)` count),
//! not an error.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

use irs_core::persist::{Codec, PersistError, Reader};
use irs_core::{GridEndpoint, Interval, ItemId, Operation};

/// One query in a batch submitted to [`crate::Engine::run`].
///
/// All variants are `Copy`, so batches can be assembled and re-submitted
/// cheaply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query<E> {
    /// `s` uniform, independent samples from `q ∩ X` (Problem 1).
    Sample {
        /// Query interval.
        q: Interval<E>,
        /// Sample size.
        s: usize,
    },
    /// `s` weight-proportional, independent samples from `q ∩ X`
    /// (Problem 2). Requires a backend built with per-interval weights
    /// and an index kind that supports weighted sampling — check
    /// [`crate::Engine::capabilities`] or handle the typed error.
    SampleWeighted {
        /// Query interval.
        q: Interval<E>,
        /// Sample size.
        s: usize,
    },
    /// Exact `|q ∩ X|`.
    Count {
        /// Query interval.
        q: Interval<E>,
    },
    /// All ids of intervals overlapping `q`.
    Search {
        /// Query interval.
        q: Interval<E>,
    },
    /// All ids of intervals containing the point `p`.
    Stab {
        /// Stabbing point.
        p: E,
    },
}

impl<E> Query<E> {
    /// The [`Operation`] this query exercises, for matching against a
    /// backend's [`irs_core::Capabilities`].
    pub fn operation(&self) -> Operation {
        match self {
            Query::Sample { .. } => Operation::UniformSample,
            Query::SampleWeighted { .. } => Operation::WeightedSample,
            Query::Count { .. } => Operation::Count,
            Query::Search { .. } => Operation::Search,
            Query::Stab { .. } => Operation::Stab,
        }
    }

    /// Whether this query draws samples — i.e. needs the two-phase
    /// (prepare → allocate → draw) path and an RNG stream, rather than
    /// being answerable in one read-only pass.
    pub fn is_sampling(&self) -> bool {
        matches!(self, Query::Sample { .. } | Query::SampleWeighted { .. })
    }
}

/// Successful result of one [`Query`], in batch order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryOutput {
    /// Ids drawn by [`Query::Sample`] / [`Query::SampleWeighted`].
    /// Length equals the requested `s` unless the result set is empty,
    /// in which case it is empty (matching [`irs_core::RangeSampler`]).
    Samples(Vec<ItemId>),
    /// Answer to [`Query::Count`].
    Count(usize),
    /// Answer to [`Query::Search`] / [`Query::Stab`]; order is
    /// unspecified, as with the single-index structures.
    Ids(Vec<ItemId>),
}

impl QueryOutput {
    /// The sample ids, if this is a `Samples` output.
    pub fn samples(&self) -> Option<&[ItemId]> {
        match self {
            QueryOutput::Samples(ids) => Some(ids),
            _ => None,
        }
    }

    /// The count, if this is a `Count` output.
    pub fn count(&self) -> Option<usize> {
        match self {
            QueryOutput::Count(n) => Some(*n),
            _ => None,
        }
    }

    /// The result ids, if this is an `Ids` output.
    pub fn ids(&self) -> Option<&[ItemId]> {
        match self {
            QueryOutput::Ids(ids) => Some(ids),
            _ => None,
        }
    }

    /// Consumes the output, returning the sample ids of a `Samples`
    /// variant (sparing the clone `samples()` would force on callers
    /// that own the output).
    pub fn into_samples(self) -> Option<Vec<ItemId>> {
        match self {
            QueryOutput::Samples(ids) => Some(ids),
            _ => None,
        }
    }

    /// Consumes the output, returning the ids of an `Ids` variant.
    pub fn into_ids(self) -> Option<Vec<ItemId>> {
        match self {
            QueryOutput::Ids(ids) => Some(ids),
            _ => None,
        }
    }
}

// Wire form of the query vocabulary, so batches travel through
// `irs-wire` frames with the same codec the snapshot format uses (the
// mutation vocabulary's impls live in `irs_core::wire`).

impl<E: GridEndpoint> Codec for Query<E> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Query::Sample { q, s } => {
                out.push(1);
                q.encode_into(out);
                s.encode_into(out);
            }
            Query::SampleWeighted { q, s } => {
                out.push(2);
                q.encode_into(out);
                s.encode_into(out);
            }
            Query::Count { q } => {
                out.push(3);
                q.encode_into(out);
            }
            Query::Search { q } => {
                out.push(4);
                q.encode_into(out);
            }
            Query::Stab { p } => {
                out.push(5);
                p.encode_into(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match u8::decode(r)? {
            1 => Ok(Query::Sample {
                q: Interval::decode(r)?,
                s: usize::decode(r)?,
            }),
            2 => Ok(Query::SampleWeighted {
                q: Interval::decode(r)?,
                s: usize::decode(r)?,
            }),
            3 => Ok(Query::Count {
                q: Interval::decode(r)?,
            }),
            4 => Ok(Query::Search {
                q: Interval::decode(r)?,
            }),
            5 => Ok(Query::Stab { p: E::decode(r)? }),
            _ => Err(PersistError::Corrupt {
                what: "unknown query tag",
            }),
        }
    }
}

impl Codec for QueryOutput {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            QueryOutput::Samples(ids) => {
                out.push(1);
                ids.encode_into(out);
            }
            QueryOutput::Count(n) => {
                out.push(2);
                n.encode_into(out);
            }
            QueryOutput::Ids(ids) => {
                out.push(3);
                ids.encode_into(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match u8::decode(r)? {
            1 => Ok(QueryOutput::Samples(Vec::decode(r)?)),
            2 => Ok(QueryOutput::Count(usize::decode(r)?)),
            3 => Ok(QueryOutput::Ids(Vec::decode(r)?)),
            _ => Err(PersistError::Corrupt {
                what: "unknown query-output tag",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_and_outputs_roundtrip() {
        let queries = [
            Query::Sample {
                q: Interval::new(1i64, 5),
                s: 10,
            },
            Query::SampleWeighted {
                q: Interval::new(-9i64, 0),
                s: 3,
            },
            Query::Count {
                q: Interval::new(0i64, 0),
            },
            Query::Search {
                q: Interval::new(2i64, 7),
            },
            Query::Stab { p: -42i64 },
        ];
        let outputs = [
            QueryOutput::Samples(vec![1, 2, 3]),
            QueryOutput::Count(99),
            QueryOutput::Ids(vec![]),
        ];
        let mut buf = Vec::new();
        for q in &queries {
            q.encode_into(&mut buf);
        }
        for o in &outputs {
            o.encode_into(&mut buf);
        }
        let mut r = Reader::new(&buf);
        for q in &queries {
            assert_eq!(&Query::<i64>::decode(&mut r).unwrap(), q);
        }
        for o in &outputs {
            assert_eq!(&QueryOutput::decode(&mut r).unwrap(), o);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn garbage_query_tags_are_corrupt_not_panics() {
        let mut r = Reader::new(&[0u8]);
        assert!(matches!(
            Query::<i64>::decode(&mut r),
            Err(PersistError::Corrupt { .. })
        ));
        let mut r = Reader::new(&[7u8]);
        assert!(matches!(
            QueryOutput::decode(&mut r),
            Err(PersistError::Corrupt { .. })
        ));
    }
}
