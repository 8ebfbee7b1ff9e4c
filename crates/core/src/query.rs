//! The fallible query vocabulary: typed errors and capability metadata.
//!
//! Every query surface in the workspace — the single-index structures
//! and the sharded `irs-engine` — reports failures through one taxonomy
//! instead of panics or stringly-typed sentinels:
//!
//! - [`QueryError`] — why one *query* could not be answered. An **empty
//!   result set is not an error**: sampling an empty `q ∩ X` yields
//!   `Ok` with an empty sample vector, and counting it yields `Ok(0)`.
//!   Errors are reserved for operations the backend genuinely cannot
//!   serve ([`QueryError::UnsupportedOperation`],
//!   [`QueryError::NotWeighted`]) and for infrastructure failures
//!   ([`QueryError::ShardFailed`]).
//! - [`BuildError`] — why an index, engine, or client could not be
//!   *constructed*, chiefly weight-validation failures caught up front
//!   (see [`validate_weights`]) so bad weights never corrupt alias
//!   tables or cumulative arrays downstream.
//! - [`Capabilities`] — which [`Operation`]s a backend supports, as
//!   queryable metadata. Callers can branch on
//!   [`Capabilities::supports`] instead of probing with a query and
//!   matching on the error.

use std::fmt;

/// One operation a query surface may (or may not) support.
///
/// [`Capabilities`] reports support per operation; [`QueryError`]
/// carries the operation that failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Operation {
    /// Uniform independent range sampling (the paper's Problem 1).
    UniformSample,
    /// Weighted independent range sampling (the paper's Problem 2).
    WeightedSample,
    /// Exact result-set counting, `|q ∩ X|`.
    Count,
    /// Full result-set enumeration.
    Search,
    /// Stabbing: all intervals containing a point.
    Stab,
    /// In-place insertion/deletion after construction.
    Update,
}

impl Operation {
    /// All operations, for capability matrices and property tests.
    pub const ALL: [Operation; 6] = [
        Operation::UniformSample,
        Operation::WeightedSample,
        Operation::Count,
        Operation::Search,
        Operation::Stab,
        Operation::Update,
    ];

    /// Stable lowercase name (log/JSON field value).
    pub fn name(self) -> &'static str {
        match self {
            Operation::UniformSample => "uniform-sample",
            Operation::WeightedSample => "weighted-sample",
            Operation::Count => "count",
            Operation::Search => "search",
            Operation::Stab => "stab",
            Operation::Update => "update",
        }
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a query backend can do, as queryable metadata.
///
/// Reported per structure (each `IndexKind` × whether weights were
/// supplied at build time) by `irs-engine`, replacing
/// the old doc-comment fallback table. The contract, pinned by the
/// workspace's capability property tests: an operation claimed here
/// succeeds, and an operation denied here fails with
/// [`QueryError::UnsupportedOperation`] / [`QueryError::NotWeighted`]
/// — never with a panic or a silently wrong answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Capabilities {
    /// Uniform IRS ([`Operation::UniformSample`]).
    pub uniform_sample: bool,
    /// Weighted IRS ([`Operation::WeightedSample`]).
    pub weighted_sample: bool,
    /// Exact counting ([`Operation::Count`]). Always exact when
    /// supported; structures without a counting substructure may pay an
    /// enumeration (AIT-V) but never approximate.
    pub exact_count: bool,
    /// Full enumeration ([`Operation::Search`]).
    pub search: bool,
    /// Stabbing queries ([`Operation::Stab`]).
    pub stab: bool,
    /// Post-construction updates ([`Operation::Update`]).
    pub update: bool,
}

impl Capabilities {
    /// Whether `op` is claimed supported.
    pub fn supports(self, op: Operation) -> bool {
        match op {
            Operation::UniformSample => self.uniform_sample,
            Operation::WeightedSample => self.weighted_sample,
            Operation::Count => self.exact_count,
            Operation::Search => self.search,
            Operation::Stab => self.stab,
            Operation::Update => self.update,
        }
    }

    /// The supported subset of [`Operation::ALL`].
    pub fn supported_ops(self) -> impl Iterator<Item = Operation> {
        Operation::ALL
            .into_iter()
            .filter(move |&op| self.supports(op))
    }
}

/// Why one query could not be answered.
///
/// An empty result set is **not** an error — see the module docs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The backend's index structure cannot serve this operation at
    /// all, regardless of how it was built (e.g. weighted sampling on
    /// an AIT, or updates on a static snapshot). `reason` says why in
    /// one sentence.
    UnsupportedOperation {
        /// The operation that was requested.
        op: Operation,
        /// Why this backend cannot serve it.
        reason: &'static str,
    },
    /// Weighted sampling was requested from a backend built without
    /// per-interval weights (or whose weights the structure discards).
    /// Rebuild with weights to enable [`Operation::WeightedSample`].
    NotWeighted,
    /// A shard's index panicked (during a query, or mid-mutation,
    /// which also poisons its lock). The batch's results cannot be
    /// trusted, so every query in the affected batch reports this
    /// error; subsequent batches on the same engine keep reporting it
    /// rather than silently dropping the failed shard's data.
    ShardFailed {
        /// The shard first observed failed.
        shard: usize,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnsupportedOperation { op, reason } => {
                write!(f, "unsupported operation `{op}`: {reason}")
            }
            QueryError::NotWeighted => write!(
                f,
                "weighted sampling requested, but the backend was built without weights"
            ),
            QueryError::ShardFailed { shard } => {
                write!(f, "shard {shard} failed: its index panicked")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Why an index, engine, or client could not be constructed.
#[derive(Clone, Debug, PartialEq)]
pub enum BuildError {
    /// `weights.len()` does not match the dataset length.
    WeightCountMismatch {
        /// Number of intervals supplied.
        data: usize,
        /// Number of weights supplied.
        weights: usize,
    },
    /// A weight is not a positive finite number (NaN, ±∞, zero, or
    /// negative). Caught before any structure is built, so bad weights
    /// can never corrupt alias tables or cumulative arrays.
    InvalidWeight {
        /// Index of the offending weight in the input slice.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A shard's index panicked while it was being built. The dataset
    /// is released and no engine is returned.
    ShardDied {
        /// The first shard whose build panicked.
        shard: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::WeightCountMismatch { data, weights } => write!(
                f,
                "weight count mismatch: {data} intervals but {weights} weights"
            ),
            BuildError::InvalidWeight { index, value } => write!(
                f,
                "invalid weight at index {index}: {value} (weights must be positive and finite)"
            ),
            BuildError::ShardDied { shard } => {
                write!(f, "shard {shard} died while building its index")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Validates a weight vector against a dataset up front: the length
/// must match and every weight must be positive and finite.
///
/// The one shared gate used by `irs-engine`'s `try_new_weighted` (and
/// so by its builder), so the rejection policy (and its error payloads,
/// naming the offending index) cannot drift between layers.
pub fn validate_weights(data_len: usize, weights: &[f64]) -> Result<(), BuildError> {
    if weights.len() != data_len {
        return Err(BuildError::WeightCountMismatch {
            data: data_len,
            weights: weights.len(),
        });
    }
    for (index, &value) in weights.iter().enumerate() {
        // The comparison is false for NaN, so NaN is rejected too.
        if !value.is_finite() || value <= 0.0 {
            return Err(BuildError::InvalidWeight { index, value });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_weights_accepts_positive_finite() {
        assert_eq!(validate_weights(3, &[1.0, 0.5, 2e9]), Ok(()));
        assert_eq!(validate_weights(0, &[]), Ok(()));
    }

    #[test]
    fn validate_weights_rejects_misalignment() {
        assert_eq!(
            validate_weights(2, &[1.0]),
            Err(BuildError::WeightCountMismatch {
                data: 2,
                weights: 1
            })
        );
    }

    #[test]
    fn validate_weights_names_the_offending_index() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.5] {
            match validate_weights(3, &[1.0, bad, 1.0]) {
                Err(BuildError::InvalidWeight { index: 1, value }) => {
                    assert!(value.is_nan() == bad.is_nan() && (value == bad || bad.is_nan()));
                }
                other => panic!("{bad}: expected InvalidWeight at 1, got {other:?}"),
            }
        }
    }

    #[test]
    fn capabilities_supports_matches_fields() {
        let caps = Capabilities {
            uniform_sample: true,
            weighted_sample: false,
            exact_count: true,
            search: true,
            stab: false,
            update: false,
        };
        assert!(caps.supports(Operation::UniformSample));
        assert!(!caps.supports(Operation::WeightedSample));
        assert!(!caps.supports(Operation::Stab));
        let supported: Vec<_> = caps.supported_ops().collect();
        assert_eq!(
            supported,
            vec![
                Operation::UniformSample,
                Operation::Count,
                Operation::Search
            ]
        );
    }

    #[test]
    fn errors_display_their_payloads() {
        let e = QueryError::ShardFailed { shard: 3 };
        assert!(e.to_string().contains("shard 3"));
        let e = BuildError::InvalidWeight {
            index: 7,
            value: f64::NAN,
        };
        assert!(e.to_string().contains("index 7"));
        let e = QueryError::UnsupportedOperation {
            op: Operation::WeightedSample,
            reason: "AIT stores no weights",
        };
        assert!(e.to_string().contains("weighted-sample"));
    }
}
