//! Synthetic dataset and workload generation.
//!
//! The paper evaluates on four real datasets (Book, BTC, Renfe, Taxi) that
//! are not redistributable here; this crate generates synthetic datasets
//! matching each dataset's published statistics (Table II: cardinality,
//! domain size, min/median/max interval length) and qualitative shape
//! (Fig. 4). The index structures' costs depend only on `n`, the domain,
//! and the interval-length distribution — matching those preserves the
//! paper's comparisons (see DESIGN.md, "Substitutions").
//!
//! Also provides the paper's query workload (§V-A: left endpoint uniform
//! over the domain, length a fixed percentage of the domain, default 8%,
//! 1,000 queries) and the weight generator (uniform integers in
//! `[1, 100]`).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod csv;
pub mod profiles;
pub mod queries;
pub mod synth;

pub use csv::{load_csv, parse_csv};
pub use profiles::{DatasetProfile, BOOK, BTC, RENFE, TAXI};
pub use queries::{uniform_weights, QueryWorkload};
pub use synth::{clustered, uniform, zipf_lengths};
