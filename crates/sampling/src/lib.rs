//! Weighted-sampling building blocks used by every IRS algorithm in the
//! workspace (§II-C of the paper), plus the statistical test utilities the
//! test suites use to verify sampling distributions.
//!
//! - [`AliasTable`] — Walker's alias method: `O(n)` build, `O(1)` draw.
//!   Used to pick a node record from `R` (AIT / AWIT), a canonical piece
//!   (KDS), or a candidate interval (weighted search-based baselines).
//! - [`CumulativeSum`] and [`sample_prefix_range`] — the cumulative-sum
//!   method: `O(n)` build, `O(log n)` draw, and crucially the ability to
//!   draw from a *contiguous slice* of a prebuilt prefix-sum array without
//!   building anything at query time — exactly what AWIT needs to sample
//!   inside a node record.
//! - [`prefetch_read`] — the cache hint the batched id gathers issue.
//! - [`stats`] — chi-square goodness-of-fit used by the statistical tests.
//!
//! [`Eytzinger`], [`sample_prefix_range_eytzinger`] and
//! [`EYTZINGER_WINDOW_MIN`] are used by no index; they stay only for the
//! frozen benchmark's `irs_sampling.eytzinger_*` rungs.
//!
//! This is the one workspace crate that does not inherit
//! `unsafe_code = "forbid"` (its `Cargo.toml` carries its own `[lints]`
//! table): it holds the prefetch intrinsic and the Eytzinger descent's
//! unchecked read.

pub mod alias;
pub mod cumsum;
pub mod eytzinger;
pub mod prefetch;
pub mod stats;

pub use alias::AliasTable;
pub use cumsum::{
    sample_prefix_range, sample_prefix_window, sample_prefix_window_fill, window_index,
    window_mass, CumulativeSum,
};
pub use eytzinger::{sample_prefix_range_eytzinger, Eytzinger, EYTZINGER_WINDOW_MIN};
pub use prefetch::prefetch_read;
