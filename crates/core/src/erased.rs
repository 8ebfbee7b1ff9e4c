//! Object-safe erasure of the phase-2 sampling handle.
//!
//! [`PreparedSampler::sample_into`] is generic over the RNG so the
//! per-draw hot loop monomorphizes — which makes the trait not
//! object-safe. Layers that hold *heterogeneous* indexes behind one type
//! (the sharded engine in `irs-engine`, plugin-style registries, FFI)
//! need a `dyn`-able view instead. [`DynPreparedSampler`] is that view:
//! the RNG is passed as `&mut dyn RngCore`, so the handle costs one
//! virtual call per draw batch plus one per RNG call inside it. The
//! samplers draw their RNG values in chunks ahead of the dependent
//! searches, which keeps those calls off a draw's cache-miss chain;
//! handing the engine's concrete `SmallRng` through instead measured
//! no end-to-end gain.
//!
//! Two adapters wrap any concrete [`PreparedSampler`]:
//!
//! - [`Erased`] — for structures whose [`candidate_count`] is the exact
//!   result-set size (AIT, AWIT, dynamic AWIT, KDS, oracle).
//! - [`ErasedUpperBound`] — for structures whose count is only an upper
//!   bound (AIT-V counts candidate *virtual slots*). Consumers that need
//!   exact cardinalities (e.g. cross-shard sample allocation) check
//!   [`DynPreparedSampler::count_is_exact`] and fall back to an exact
//!   count from elsewhere.
//!
//! # Thread safety
//!
//! The trait requires `Send + Sync`: erased handles are the phase-1
//! state the concurrent read path keeps warm across the allocation
//! exchange, and many caller threads hold (and draw from) handles over
//! the *same* shared index at once. Phase-1 state must therefore be
//! immutable after `prepare` — all per-draw scratch lives on the
//! caller's stack (or in the caller-provided `out` buffer), and any
//! telemetry a handle keeps (AIT-V's rejection stats) must be updated
//! race-free. The RNG is the one piece of per-call mutable state, and
//! it is always caller-owned.
//!
//! [`candidate_count`]: PreparedSampler::candidate_count

use crate::interval::ItemId;
use crate::traits::PreparedSampler;
use rand::RngCore;

/// Object-safe counterpart of [`PreparedSampler`].
///
/// `Send + Sync` is part of the contract (see the module docs): a
/// handle may be created under a shared read guard on one thread and
/// drawn from while other threads hold their own handles over the same
/// index.
pub trait DynPreparedSampler: Send + Sync {
    /// See [`PreparedSampler::candidate_count`].
    fn candidate_count(&self) -> usize;

    /// Whether [`Self::candidate_count`] equals `|q ∩ X|` exactly.
    ///
    /// `false` means the count is an upper bound (AIT-V's virtual slots):
    /// still usable for emptiness checks, not for allocation proportional
    /// to result-set size.
    fn count_is_exact(&self) -> bool;

    /// Total result-set weight `Σ_{x ∈ q∩X} w(x)` for handles prepared on
    /// the weighted path; `None` for uniform handles. Lets consumers
    /// (the engine's cross-shard allocation) read the mass off the
    /// phase-1 handle instead of re-enumerating the result set.
    fn total_weight(&self) -> Option<f64> {
        None
    }

    /// See [`PreparedSampler::sample_into`]; the RNG is dynamically
    /// dispatched.
    fn sample_into_dyn(&self, rng: &mut dyn RngCore, s: usize, out: &mut Vec<ItemId>);
}

/// Erases a [`PreparedSampler`] whose candidate count is exact.
pub struct Erased<P>(pub P);

impl<P: PreparedSampler + Send + Sync> DynPreparedSampler for Erased<P> {
    fn candidate_count(&self) -> usize {
        self.0.candidate_count()
    }

    fn count_is_exact(&self) -> bool {
        true
    }

    fn sample_into_dyn(&self, rng: &mut dyn RngCore, s: usize, out: &mut Vec<ItemId>) {
        self.0.sample_into(rng, s, out);
    }
}

/// Erases a [`PreparedSampler`] whose candidate count is an upper bound
/// on the true result-set size (AIT-V).
pub struct ErasedUpperBound<P>(pub P);

impl<P: PreparedSampler + Send + Sync> DynPreparedSampler for ErasedUpperBound<P> {
    fn candidate_count(&self) -> usize {
        self.0.candidate_count()
    }

    fn count_is_exact(&self) -> bool {
        false
    }

    fn sample_into_dyn(&self, rng: &mut dyn RngCore, s: usize, out: &mut Vec<ItemId>) {
        self.0.sample_into(rng, s, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use crate::oracle::BruteForce;
    use crate::traits::RangeSampler;
    use rand::rngs::{SmallRng, StdRng};
    use rand::SeedableRng;

    fn fixture() -> BruteForce<i64> {
        let data: Vec<_> = (0..50).map(|i| Interval::new(i, i + 10)).collect();
        BruteForce::new(&data)
    }

    /// Both adapters draw exactly the concrete sampler's ids from an RNG
    /// with the same seed.
    #[test]
    fn erased_matches_concrete() {
        let bf = fixture();
        let q = Interval::new(20, 30);
        let (concrete, erased) = (bf.prepare(q), Erased(bf.prepare(q)));
        assert_eq!(erased.candidate_count(), concrete.candidate_count());
        assert!(erased.count_is_exact());
        let handles: [&dyn DynPreparedSampler; 2] = [&erased, &ErasedUpperBound(bf.prepare(q))];
        for seed in 0..4 {
            let mut want = Vec::new();
            concrete.sample_into(&mut SmallRng::seed_from_u64(seed), 100, &mut want);
            assert_eq!(want.len(), 100);
            for h in handles {
                let mut got = Vec::new();
                h.sample_into_dyn(&mut SmallRng::seed_from_u64(seed), 100, &mut got);
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn upper_bound_wrapper_reports_inexact() {
        let bf = fixture();
        let erased = ErasedUpperBound(bf.prepare(Interval::new(0, 5)));
        assert!(!erased.count_is_exact());
        assert!(erased.candidate_count() > 0);
    }

    #[test]
    fn empty_result_draws_nothing_through_dyn() {
        let bf = fixture();
        let erased: Box<dyn DynPreparedSampler> =
            Box::new(Erased(bf.prepare(Interval::new(1000, 2000))));
        let mut rng = StdRng::seed_from_u64(5);
        let mut out = Vec::new();
        erased.sample_into_dyn(&mut rng, 10, &mut out);
        assert!(out.is_empty());
    }
}
