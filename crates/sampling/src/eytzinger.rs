//! Branchless binary search over an Eytzinger (BFS) array layout.
//!
//! **Used by no index.** This module, [`sample_prefix_range_eytzinger`]
//! and [`EYTZINGER_WINDOW_MIN`] are kept only for the frozen benchmark's
//! `irs_sampling.eytzinger_*` rungs; delete them in the next
//! benchmark-only change (this file plus its `mod` and `pub use` lines
//! in `lib.rs`). No index holds a derived layout any more: every
//! endpoint and cumulative-weight search runs on the sorted authority
//! arrays (see DESIGN.md, "Hot-path memory layout").
//!
//! The layout stores a sorted array in breadth-first heap order
//! (`root = 1`, children of `k` at `2k` / `2k+1`), so the first levels
//! of every search share a few cache lines and the descent is one
//! branchless recurrence (`k = 2k + pred`). The tree is padded to a
//! perfect shape with copies of the maximum element; after `h` fixed
//! steps the final cursor `j ∈ [2^h, 2^{h+1})` encodes the decision path,
//! and `j - 2^h`, clamped to `len`, *is* the partition point.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::prefetch::prefetch_read;
use rand::{Rng, RngCore};

/// A sorted array re-laid-out in Eytzinger (BFS) order for branchless
/// `partition_point` searches.
///
/// Used by no index; kept for the frozen benchmark's
/// `irs_sampling.eytzinger_*` rungs; delete in the next benchmark-only
/// change.
///
/// Construction copies the sorted input; the original array remains the
/// authority for positional lookups (ranks returned here index into
/// *it*, not into the layout).
///
/// ```
/// use irs_sampling::Eytzinger;
///
/// let sorted = [1.0, 2.5, 2.5, 7.0];
/// let ey = Eytzinger::from_sorted(&sorted);
/// for want in 0..=4usize {
///     let x = [0.5, 2.0, 2.5, 5.0, 9.0][want];
///     assert_eq!(ey.partition_point(|&v| v < x), sorted.partition_point(|&v| v < x));
/// }
/// ```
#[derive(Clone, Debug, Default)]
pub struct Eytzinger<T> {
    /// BFS layout, 1-indexed: `tree[0]` is an unused sentinel, the root
    /// lives at 1, and the perfect tree occupies `1..=mask*2-1` — i.e.
    /// `tree.len()` is a power of two.
    tree: Vec<T>,
    /// Number of genuine (non-padding) elements.
    len: usize,
}

impl<T: Copy> Eytzinger<T> {
    /// Builds the layout from an already-sorted slice in `O(n)`.
    ///
    /// The caller guarantees `sorted` is sorted with respect to every
    /// predicate later passed to [`Eytzinger::partition_point`] — the
    /// same contract `slice::partition_point` places on its receiver.
    pub fn from_sorted(sorted: &[T]) -> Self {
        let n = sorted.len();
        if n == 0 {
            return Eytzinger {
                tree: Vec::new(),
                len: 0,
            };
        }
        // Perfect tree: m = 2^h - 1 >= n slots, padded with the maximum
        // element so padded slots answer any monotone predicate exactly
        // like the true maximum does.
        let m = (n + 1).next_power_of_two() - 1;
        let last = sorted[n - 1];
        let mut tree = vec![last; m + 1];
        tree[0] = sorted[0]; // unused sentinel slot
                             // In-order walk of the implicit tree assigns sorted positions.
        let mut cursor = 0usize;
        fill(&mut tree, 1, sorted, &mut cursor);
        Eytzinger { tree, len: n }
    }

    /// Number of genuine elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the layout holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The index of the first element for which `pred` is false — the
    /// same answer `slice::partition_point(pred)` gives on the sorted
    /// source array, in branchless form.
    ///
    /// `pred` must be monotone over the sorted order (true on a prefix,
    /// false on the suffix), exactly as for `slice::partition_point`.
    #[inline]
    pub fn partition_point(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        if self.len == 0 {
            return 0;
        }
        let tree = self.tree.as_slice();
        let m = tree.len(); // power of two: perfect tree is 1..m
        let mut j = 1usize;
        while j < m {
            // Four levels ahead: by the time the descent arrives there,
            // the line is resident. Clamping keeps the hint in-bounds
            // (wild prefetches are legal but pollute the TLB).
            prefetch_read(&tree[(j << 4).min(m - 1)]);
            // SAFETY: j < m = tree.len(), established by the loop bound.
            let node = unsafe { tree.get_unchecked(j) };
            // Compiles to setcc/cmov-style code: no data-dependent branch.
            j = 2 * j + usize::from(pred(node));
        }
        // j ∈ [m, 2m): the decision path in binary. Subtracting the
        // leading bit yields the rank; padding can only overshoot on
        // all-true paths, so clamp to the genuine length.
        (j - m).min(self.len)
    }

    /// Bytes of heap memory the layout retains.
    pub fn heap_bytes(&self) -> usize {
        self.tree.capacity() * std::mem::size_of::<T>()
    }
}

/// Recursive in-order fill: left subtree, node `k`, right subtree.
/// Depth is `log2(m)` (< 64), so recursion is safe; slots past the
/// cursor keep their padding value.
fn fill<T: Copy>(tree: &mut [T], k: usize, sorted: &[T], cursor: &mut usize) {
    if k >= tree.len() {
        return;
    }
    fill(tree, 2 * k, sorted, cursor);
    if *cursor < sorted.len() {
        tree[k] = sorted[*cursor];
        *cursor += 1;
    }
    fill(tree, 2 * k + 1, sorted, cursor);
}

/// Window length from which [`sample_prefix_range_eytzinger`] searches
/// the full-array layout instead of the window itself.
///
/// Used by no index; kept for the frozen benchmark's
/// `irs_sampling.eytzinger_*` rungs; delete in the next benchmark-only
/// change.
pub const EYTZINGER_WINDOW_MIN: usize = 1024;

/// Eytzinger-routed form of [`crate::sample_prefix_range`]: the same
/// draw over the same `[lo, hi]` mass window, searching a full-array
/// layout of the whole prefix array once the window holds at least
/// [`EYTZINGER_WINDOW_MIN`] entries.
///
/// Restricting the drawn mass `u` to `(prefix[lo-1], prefix[hi]]` keeps
/// a full-array search inside `[lo, hi]` (the prefix array is
/// non-decreasing), and the clamp matches `sample_prefix_range`'s
/// `min(hi)` at both edges, so both forms return the same index for the
/// same single RNG draw.
///
/// Used by no index; kept for the frozen benchmark's
/// `irs_sampling.eytzinger_*` rungs; delete in the next benchmark-only
/// change.
#[inline]
pub fn sample_prefix_range_eytzinger(
    ey: &Eytzinger<f64>,
    prefix: &[f64],
    lo: usize,
    hi: usize,
    rng: &mut (impl RngCore + ?Sized),
) -> usize {
    debug_assert!(lo <= hi && hi < prefix.len());
    debug_assert_eq!(ey.len(), prefix.len());
    let base = if lo == 0 { 0.0 } else { prefix[lo - 1] };
    let total = prefix[hi] - base;
    debug_assert!(total > 0.0, "sampling from empty mass range");
    let u = base + (total - rng.random_range(0.0..total));
    if hi - lo < EYTZINGER_WINDOW_MIN {
        let range = &prefix[lo..=hi];
        (lo + range.partition_point(|&p| p < u)).min(hi)
    } else {
        ey.partition_point(|&p| p < u).clamp(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sample_prefix_range, sample_prefix_window};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn range_draw_matches_the_window_forms_draw_for_draw() {
        // Wide enough that windows cross EYTZINGER_WINDOW_MIN; integer
        // weights repeat prefix values' spacing, so ties at the window
        // edges are exercised too.
        let weights: Vec<f64> = (0..5000).map(|i| (1 + i % 7) as f64).collect();
        let mut prefix = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in &weights {
            acc += w;
            prefix.push(acc);
        }
        let ey = Eytzinger::from_sorted(&prefix);
        for (lo, hi) in [
            (0, 4999),
            (0, 1500),
            (1, 1024),
            (700, 4999),
            (3, 40),
            (9, 9),
        ] {
            let base = if lo == 0 { 0.0 } else { prefix[lo - 1] };
            let win = &prefix[lo..=hi];
            let (mut a, mut b, mut c) = (
                StdRng::seed_from_u64(lo as u64),
                StdRng::seed_from_u64(lo as u64),
                StdRng::seed_from_u64(lo as u64),
            );
            for _ in 0..2000 {
                let want = sample_prefix_range(&prefix, lo, hi, &mut a);
                assert_eq!(
                    sample_prefix_range_eytzinger(&ey, &prefix, lo, hi, &mut b),
                    want
                );
                assert_eq!(
                    lo + sample_prefix_window(win, base, prefix[hi] - base, &mut c),
                    want
                );
            }
        }
    }

    #[test]
    fn empty_and_singleton_edges() {
        let ey = Eytzinger::<f64>::from_sorted(&[]);
        assert_eq!(ey.partition_point(|_| true), 0);
        assert_eq!(ey.partition_point(|_| false), 0);
        assert!(ey.is_empty());

        let one = Eytzinger::from_sorted(&[5i64]);
        assert_eq!(one.len(), 1);
        assert_eq!(one.partition_point(|&v| v < 5), 0);
        assert_eq!(one.partition_point(|&v| v <= 5), 1);
        assert_eq!(one.partition_point(|&v| v < 9), 1);
    }

    #[test]
    fn all_duplicates() {
        let sorted = [3i64; 17];
        let ey = Eytzinger::from_sorted(&sorted);
        for x in [2, 3, 4] {
            assert_eq!(
                ey.partition_point(|&v| v < x),
                sorted.partition_point(|&v| v < x)
            );
            assert_eq!(
                ey.partition_point(|&v| v <= x),
                sorted.partition_point(|&v| v <= x)
            );
        }
    }

    #[test]
    fn matches_partition_point_on_a_dense_sweep() {
        // Every length crossing the power-of-two padding boundaries.
        for n in 0..70usize {
            let sorted: Vec<i64> = (0..n as i64).map(|i| i / 3).collect();
            let ey = Eytzinger::from_sorted(&sorted);
            for x in -1..=(n as i64 / 3 + 1) {
                assert_eq!(
                    ey.partition_point(|&v| v < x),
                    sorted.partition_point(|&v| v < x),
                    "n={n} x={x} lower"
                );
                assert_eq!(
                    ey.partition_point(|&v| v <= x),
                    sorted.partition_point(|&v| v <= x),
                    "n={n} x={x} upper"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn prop_matches_partition_point(
            raw in prop::collection::vec(-1000i64..1000, 0..200),
            probe in -1100i64..1100,
        ) {
            let mut values = raw;
            values.sort_unstable();
            let ey = Eytzinger::from_sorted(&values);
            prop_assert_eq!(
                ey.partition_point(|&v| v < probe),
                values.partition_point(|&v| v < probe)
            );
            prop_assert_eq!(
                ey.partition_point(|&v| v <= probe),
                values.partition_point(|&v| v <= probe)
            );
        }

        #[test]
        fn prop_matches_on_float_prefix_arrays(
            weights in prop::collection::vec(1u64..100_000, 1..150),
            unit in 0u64..1_000_000,
        ) {
            let mut prefix = Vec::with_capacity(weights.len());
            let mut acc = 0.0;
            for &w in &weights {
                acc += w as f64 / 1000.0;
                prefix.push(acc);
            }
            let ey = Eytzinger::from_sorted(&prefix);
            let u = unit as f64 / 1e6 * acc;
            prop_assert_eq!(
                ey.partition_point(|&p| p < u),
                prefix.partition_point(|&p| p < u)
            );
        }
    }
}
