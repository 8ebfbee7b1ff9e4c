//! Walker's alias method (Vose's stable variant).
//!
//! Given `n` positive weights, builds in `O(n)` a table of `n` cells, each
//! holding at most two outcomes, from which a weighted sample is drawn in
//! `O(1)`: pick a cell uniformly, then pick one of its two outcomes by a
//! biased coin (§II-C of the paper; Walker 1974, Vose 1991).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use rand::{Rng, RngCore};

/// One alias cell: acceptance probability and fallback outcome together,
/// so a draw touches exactly one cache line instead of one line in each
/// of two parallel arrays.
#[derive(Clone, Copy, Debug)]
struct AliasCell {
    /// Probability of returning the cell's own index, pre-scaled to
    /// `[0, 1]`.
    prob: f64,
    /// The outcome returned when the coin flip fails.
    alias: u32,
}

/// Precomputed alias table over `n` weighted outcomes `0..n`.
#[derive(Clone, Debug)]
pub struct AliasTable {
    /// Interleaved `(prob, alias)` cells (see [`AliasCell`]).
    cells: Vec<AliasCell>,
    total: f64,
}

impl AliasTable {
    /// Builds the table in `O(n)`.
    ///
    /// # Panics
    /// Panics if `weights` is empty, or contains a non-finite or
    /// non-positive weight.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table over zero outcomes");
        let n = weights.len();
        assert!(
            n <= u32::MAX as usize,
            "alias table outcome count exceeds u32"
        );
        let mut total = 0.0;
        for &w in weights {
            assert!(
                w.is_finite() && w > 0.0,
                "alias weights must be positive, got {w}"
            );
            total += w;
        }

        // Vose's method: scale weights so the average is 1, then pair each
        // under-full cell with an over-full donor.
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            // Donate from `l` to fill `s`'s cell up to 1.
            alias[s as usize] = l;
            let remaining = (prob[l as usize] + prob[s as usize]) - 1.0;
            prob[l as usize] = remaining;
            if remaining < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers are exactly 1 up to rounding; clamp them.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
        }

        let cells = prob
            .into_iter()
            .zip(alias)
            .map(|(prob, alias)| AliasCell { prob, alias })
            .collect();
        Self { cells, total }
    }

    /// Number of outcomes.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Always `false`: construction rejects empty weight sets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Sum of the input weights.
    #[inline]
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// Draws one outcome in `O(1)`.
    #[inline]
    pub fn sample(&self, rng: &mut (impl RngCore + ?Sized)) -> usize {
        let n = self.cells.len();
        let at = rng.random_range(0..n);
        let coin: f64 = rng.random_range(0.0..1.0);
        let cell = self.cells[at];
        if coin < cell.prob {
            at
        } else {
            cell.alias as usize
        }
    }

    /// Draws `out.len()` outcomes in one pass (the batched form every
    /// per-query draw loop uses): the cell array stays hot across the
    /// whole run, and the compiler keeps the bounds/uniformity plumbing
    /// out of the loop. Consumes the RNG exactly like `out.len()`
    /// successive [`AliasTable::sample`] calls.
    #[inline]
    pub fn sample_fill(&self, rng: &mut (impl RngCore + ?Sized), out: &mut [u32]) {
        let n = self.cells.len();
        for slot in out.iter_mut() {
            let at = rng.random_range(0..n);
            let coin: f64 = rng.random_range(0.0..1.0);
            let cell = self.cells[at];
            *slot = if coin < cell.prob {
                at as u32
            } else {
                cell.alias
            };
        }
    }

    /// Heap bytes retained by the table.
    pub fn heap_bytes(&self) -> usize {
        self.cells.capacity() * std::mem::size_of::<AliasCell>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::chi_square_uniformity_ok;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn single_outcome_always_sampled() {
        let t = AliasTable::new(&[3.5]);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut rng), 0);
        }
    }

    #[test]
    fn zero_probability_paths_never_fire() {
        // Tiny vs huge weight: index 0 should virtually never appear more
        // than its share. Exact check: all outcomes are in range.
        let t = AliasTable::new(&[1.0, 1e9]);
        let mut rng = StdRng::seed_from_u64(2);
        let mut hit0 = 0usize;
        for _ in 0..10_000 {
            let k = t.sample(&mut rng);
            assert!(k < 2);
            hit0 += usize::from(k == 0);
        }
        // Expected ~1e-5 of draws; allow generous slack.
        assert!(hit0 < 20, "tiny weight over-sampled: {hit0}");
    }

    #[test]
    fn uniform_weights_sample_uniformly() {
        let n = 64;
        let t = AliasTable::new(&vec![1.0; n]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = vec![0u64; n];
        let draws = 200_000;
        for _ in 0..draws {
            counts[t.sample(&mut rng)] += 1;
        }
        assert!(chi_square_uniformity_ok(&counts, draws));
    }

    #[test]
    fn skewed_weights_match_expected_frequencies() {
        let weights = [1.0, 2.0, 4.0, 8.0, 16.0];
        let t = AliasTable::new(&weights);
        assert_eq!(t.total_weight(), 31.0);
        let mut rng = StdRng::seed_from_u64(4);
        let draws = 310_000usize;
        let mut counts = [0f64; 5];
        for _ in 0..draws {
            counts[t.sample(&mut rng)] += 1.0;
        }
        for (i, &w) in weights.iter().enumerate() {
            let expected = draws as f64 * w / 31.0;
            let rel = (counts[i] - expected).abs() / expected;
            assert!(
                rel < 0.05,
                "outcome {i}: observed {} expected {expected}",
                counts[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "zero outcomes")]
    fn empty_weights_panic() {
        let _ = AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn non_positive_weight_panics() {
        let _ = AliasTable::new(&[1.0, 0.0]);
    }

    #[test]
    fn pathological_scales_stay_in_range() {
        // Mix of extreme magnitudes exercises the clamping of leftovers.
        let weights = [1e-300, 1.0, 1e300, 5.0, 1e-10];
        let t = AliasTable::new(&weights);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(t.sample(&mut rng) < weights.len());
        }
    }
}
