//! A software prefetch hint for the batched id gathers.
//!
//! The AIT, AWIT and KDS samplers resolve a chunk of draws to list
//! positions first and read the ids second. Issuing a prefetch for each
//! resolved position in the first pass lets the cache misses of a whole
//! chunk overlap instead of serializing through the second.

/// Hints the CPU to pull the cache line holding `p` toward L1.
///
/// Safe to call with any pointer value — prefetch never faults; a wild
/// address is simply ignored by the hardware. Compiles to nothing on
/// architectures without a stable prefetch intrinsic.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it cannot fault regardless of `p`.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}
