//! The cumulative-sum method (§II-C of the paper).
//!
//! Builds a prefix-sum array `A[j] = Σ_{i≤j} w_i` in `O(n)`; a draw
//! generates `u ∈ (0, A[n-1]]` and binary-searches for the first `k` with
//! `u ≤ A[k]`, returning outcome `k` with probability `w_k / Σ w`.
//!
//! The free function [`sample_prefix_range`] draws from a *sub-range*
//! `[lo, hi]` of an existing prefix array without copying — the operation
//! AWIT performs per sample against its precomputed cumulative weight
//! arrays (`Wl`, `Wr`, `AWl`, `AWr`). [`sample_prefix_window`] and its
//! batched form [`sample_prefix_window_fill`] do the same with the
//! window's base and total mass hoisted by the caller.
//!
//! Every form consumes one RNG value per draw and returns the same index
//! for it. The window forms count the entries below the drawn mass
//! branchlessly on windows of at most 32 entries and use
//! `partition_point` on longer ones; `sample_prefix_range` always uses
//! `partition_point`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use rand::{Rng, RngCore};

/// Prefix-sum table over `n` weighted outcomes `0..n`, drawing in
/// `O(log n)`.
#[derive(Clone, Debug)]
pub struct CumulativeSum {
    prefix: Vec<f64>,
}

impl CumulativeSum {
    /// Builds the prefix array in `O(n)`.
    ///
    /// # Panics
    /// Panics if `weights` is empty or contains a non-finite or
    /// non-positive weight.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "cumulative sum over zero outcomes");
        let mut prefix = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(
                w.is_finite() && w > 0.0,
                "cumsum weights must be positive, got {w}"
            );
            acc += w;
            prefix.push(acc);
        }
        Self { prefix }
    }

    /// Number of outcomes.
    #[inline]
    pub fn len(&self) -> usize {
        self.prefix.len()
    }

    /// Always `false`: construction rejects empty weight sets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Sum of the input weights.
    #[inline]
    pub fn total_weight(&self) -> f64 {
        // Construction rejects empty weight sets, so the fallback is
        // unreachable — spelled without a panic to keep this file inside
        // its `#![deny(clippy::unwrap_used, ..)]` no-panic scope.
        self.prefix.last().copied().unwrap_or(0.0)
    }

    /// The prefix array itself (`A[j] = Σ_{i≤j} w_i`).
    #[inline]
    pub fn prefix(&self) -> &[f64] {
        &self.prefix
    }

    /// Draws one outcome in `O(log n)`.
    #[inline]
    pub fn sample(&self, rng: &mut (impl RngCore + ?Sized)) -> usize {
        sample_prefix_range(&self.prefix, 0, self.prefix.len() - 1, rng)
    }
}

/// Draws an index `k ∈ [lo, hi]` with probability proportional to
/// `prefix[k] - prefix[k-1]` (taking `prefix[-1] = 0`), in
/// `O(log(hi - lo))`.
///
/// `prefix` must be non-decreasing over `[lo, hi]` with
/// `prefix[hi] > prefix[lo] - w_lo` (i.e. positive total mass in the
/// range). This is AWIT's per-sample primitive: the arrays are built once
/// at index-construction time and shared by all queries.
#[inline]
pub fn sample_prefix_range(
    prefix: &[f64],
    lo: usize,
    hi: usize,
    rng: &mut (impl RngCore + ?Sized),
) -> usize {
    debug_assert!(lo <= hi && hi < prefix.len());
    let base = if lo == 0 { 0.0 } else { prefix[lo - 1] };
    let total = prefix[hi] - base;
    debug_assert!(total > 0.0, "sampling from empty mass range");
    // `u` uniform in (base, prefix[hi]]; we generate [0, total) and flip to
    // avoid u == base (which would bias toward lo-1 semantics).
    let u = base + (total - rng.random_range(0.0..total));
    // First k in [lo, hi] with prefix[k] >= u.
    let range = &prefix[lo..=hi];
    let k = lo + range.partition_point(|&p| p < u);
    k.min(hi) // guard against floating-point overshoot
}

/// Windowed draw with the range's mass precomputed: `win` is the
/// contiguous prefix window `&prefix[lo..=hi]`, `base` the mass before
/// it (`prefix[lo-1]` or `0.0`), `total` the mass inside it. Returns an
/// *offset into `win`*, and is exactly
/// `window_index(win, window_mass(base, total, rng))`. Indexes call the
/// two halves, [`window_mass`] and [`window_index`], so that they can
/// hoist the two `prefix` reads [`sample_prefix_range`] performs per
/// draw and draw many masses before searching for any. This one-call
/// form is kept for the frozen benchmark harness. Consumes exactly one
/// RNG draw, like every other form.
#[inline]
pub fn sample_prefix_window(
    win: &[f64],
    base: f64,
    total: f64,
    rng: &mut (impl RngCore + ?Sized),
) -> usize {
    window_index(win, window_mass(base, total, rng))
}

/// The RNG half of [`sample_prefix_window`]: the mass value `u` its
/// search looks for, uniform in `(base, base + total]`. Consumes exactly
/// the one RNG draw [`sample_prefix_window`] does, so a caller can draw
/// many `u`s in stream order and search for them later.
#[inline]
pub fn window_mass(base: f64, total: f64, rng: &mut (impl RngCore + ?Sized)) -> f64 {
    debug_assert!(total > 0.0, "sampling from empty mass range");
    base + (total - rng.random_range(0.0..total))
}

/// The search half of [`sample_prefix_window`]: the offset in `win` of
/// the first prefix entry `>= u`, clamped to the window.
#[inline]
pub fn window_index(win: &[f64], u: f64) -> usize {
    debug_assert!(!win.is_empty());
    if win.len() <= 32 {
        // Branchless count of entries below `u` — equal to
        // `partition_point` on a non-decreasing window, but with no
        // data-dependent branches to mispredict, and it auto-vectorizes.
        // Binary search's comparisons are coin flips here, and a
        // mispredict costs more than scanning the whole short window.
        let mut idx = 0usize;
        for &p in win {
            idx += usize::from(p < u);
        }
        idx.min(win.len() - 1)
    } else {
        win.partition_point(|&p| p < u).min(win.len() - 1)
    }
}

/// Batched form of [`sample_prefix_window`]: fills `out` with
/// `out.len()` independent draws from the same window, written as
/// offsets into `win`. Consumes exactly `out.len()` RNG draws in draw
/// order, so replacing a loop of single draws with one fill leaves the
/// RNG stream — and therefore seeded replay — unchanged.
///
/// Generating the mass values chunk-at-a-time keeps the RNG state hot
/// and lets the searches run back to back over a window whose lines the
/// first few draws pulled in; the per-draw work then carries no
/// per-record setup at all (the caller hoisted `base` and `total` once
/// for the whole batch).
pub fn sample_prefix_window_fill(
    win: &[f64],
    base: f64,
    total: f64,
    rng: &mut (impl RngCore + ?Sized),
    out: &mut [u32],
) {
    let mut us = [0.0f64; 64];
    let mut done = 0usize;
    while done < out.len() {
        let c = (out.len() - done).min(64);
        for u in &mut us[..c] {
            *u = window_mass(base, total, rng);
        }
        for (slot, &u) in out[done..done + c].iter_mut().zip(&us[..c]) {
            *slot = window_index(win, u) as u32;
        }
        done += c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn prefix_is_running_total() {
        let c = CumulativeSum::new(&[1.0, 2.0, 3.0]);
        assert_eq!(c.prefix(), &[1.0, 3.0, 6.0]);
        assert_eq!(c.total_weight(), 6.0);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn single_outcome() {
        let c = CumulativeSum::new(&[0.25]);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            assert_eq!(c.sample(&mut rng), 0);
        }
    }

    #[test]
    fn frequencies_match_weights() {
        let weights = [5.0, 1.0, 3.0, 1.0];
        let c = CumulativeSum::new(&weights);
        let mut rng = StdRng::seed_from_u64(2);
        let draws = 100_000usize;
        let mut counts = [0f64; 4];
        for _ in 0..draws {
            counts[c.sample(&mut rng)] += 1.0;
        }
        for (i, &w) in weights.iter().enumerate() {
            let expected = draws as f64 * w / 10.0;
            let rel = (counts[i] - expected).abs() / expected;
            assert!(
                rel < 0.05,
                "outcome {i}: observed {} expected {expected}",
                counts[i]
            );
        }
    }

    #[test]
    fn range_sampling_restricts_support() {
        let c = CumulativeSum::new(&[1.0; 10]);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2000 {
            let k = sample_prefix_range(c.prefix(), 3, 6, &mut rng);
            assert!((3..=6).contains(&k), "sample {k} outside [3, 6]");
        }
    }

    #[test]
    fn range_sampling_weights_within_range() {
        // Weights 1..=8; restrict to [4, 6] (weights 5, 6, 7).
        let weights: Vec<f64> = (1..=8).map(|w| w as f64).collect();
        let c = CumulativeSum::new(&weights);
        let mut rng = StdRng::seed_from_u64(4);
        let draws = 90_000usize;
        let mut counts = [0f64; 3];
        for _ in 0..draws {
            let k = sample_prefix_range(c.prefix(), 4, 6, &mut rng);
            counts[k - 4] += 1.0;
        }
        let total = 5.0 + 6.0 + 7.0;
        for (off, w) in [(0usize, 5.0), (1, 6.0), (2, 7.0)] {
            let expected = draws as f64 * w / total;
            let rel = (counts[off] - expected).abs() / expected;
            assert!(
                rel < 0.05,
                "offset {off}: observed {} expected {expected}",
                counts[off]
            );
        }
    }

    #[test]
    fn range_sampling_at_array_start() {
        let c = CumulativeSum::new(&[2.0, 2.0, 1000.0]);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let k = sample_prefix_range(c.prefix(), 0, 1, &mut rng);
            assert!(k <= 1, "heavy out-of-range outcome leaked in: {k}");
        }
    }

    #[test]
    #[should_panic(expected = "zero outcomes")]
    fn empty_weights_panic() {
        let _ = CumulativeSum::new(&[]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn negative_weight_panics() {
        let _ = CumulativeSum::new(&[1.0, -2.0]);
    }
}
