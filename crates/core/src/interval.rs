//! Closed intervals over ordered scalar endpoints.

use std::fmt;

/// Identifier of an interval inside the dataset slice an index was built
/// from: `id = i` refers to `data[i as usize]`.
///
/// `u32` bounds datasets at ~4.29 billion intervals, far beyond the paper's
/// largest dataset (Taxi, 106.7M), and halves the id-array footprint
/// compared with `usize` on 64-bit targets.
pub type ItemId = u32;

/// Scalar endpoint type: any totally ordered `Copy` value.
///
/// Index construction and querying only ever *compare* endpoints, so no
/// arithmetic is required here. Structures that need arithmetic on the
/// domain (HINTm's bit-prefix hierarchy) additionally require
/// [`GridEndpoint`].
pub trait Endpoint: Copy + Ord + fmt::Debug + Send + Sync + 'static {}

impl<T: Copy + Ord + fmt::Debug + Send + Sync + 'static> Endpoint for T {}

/// Endpoints that embed into an unsigned integer grid, required by HINTm.
///
/// `grid_offset(min)` must be the number of representable values between
/// `min` and `self` (`self ≥ min`), i.e. a strictly monotone mapping of the
/// domain onto `0..=u64::MAX`.
///
/// `GridEndpoint` also requires [`crate::persist::FixedCodec`]: every
/// endpoint type an engine can be built over must have a stable,
/// fixed-width on-disk encoding, so any engine (and any index behind
/// the `DynIndex` facade) can be snapshotted and its key columns decode
/// in bulk. All integer scalar types qualify.
pub trait GridEndpoint: Endpoint + crate::persist::FixedCodec {
    /// Distance from `min` to `self` on the integer grid. `self` must not be
    /// smaller than `min`.
    fn grid_offset(self, min: Self) -> u64;
}

macro_rules! impl_grid_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl GridEndpoint for $t {
            #[inline]
            fn grid_offset(self, min: Self) -> u64 {
                debug_assert!(self >= min, "grid_offset: value below domain min");
                (self as $u).wrapping_sub(min as $u) as u64
            }
        }
    )*};
}
macro_rules! impl_grid_unsigned {
    ($($t:ty),*) => {$(
        impl GridEndpoint for $t {
            #[inline]
            fn grid_offset(self, min: Self) -> u64 {
                debug_assert!(self >= min, "grid_offset: value below domain min");
                (self - min) as u64
            }
        }
    )*};
}
impl_grid_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);
impl_grid_unsigned!(u8, u16, u32, u64, usize);

/// A closed interval `[lo, hi]` with `lo ≤ hi`.
///
/// This is the paper's `x = [x.l, x.r]`; queries are intervals too. The
/// type is `#[repr(C)]` and two scalars wide, so sorted interval lists are
/// cache-dense.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(C)]
pub struct Interval<E> {
    /// Left endpoint (`x.l`).
    pub lo: E,
    /// Right endpoint (`x.r`).
    pub hi: E,
}

/// Interval over `i64` endpoints, the concrete type used by the examples,
/// generators, and benchmarks.
pub type Interval64 = Interval<i64>;

impl<E: Endpoint> Interval<E> {
    /// Creates `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    #[inline]
    pub fn new(lo: E, hi: E) -> Self {
        assert!(lo <= hi, "interval endpoints out of order: {lo:?} > {hi:?}");
        Self { lo, hi }
    }

    /// Creates `[p, p]`, the degenerate interval of a stabbing query.
    #[inline]
    pub fn point(p: E) -> Self {
        Self { lo: p, hi: p }
    }

    /// The overlap predicate of the paper:
    /// `x ∩ q  ⇔  (x.lo ≤ q.hi) ∧ (q.lo ≤ x.hi)`.
    ///
    /// Closed on both sides, so touching endpoints overlap.
    #[inline]
    pub fn overlaps(&self, other: &Self) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Whether `p` lies inside `[lo, hi]` (a stabbing test).
    #[inline]
    pub fn contains_point(&self, p: E) -> bool {
        self.lo <= p && p <= self.hi
    }

    /// Whether `other` lies entirely inside `self`.
    #[inline]
    pub fn contains(&self, other: &Self) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }
}

impl<E: fmt::Debug> fmt::Debug for Interval<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?}, {:?}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_is_symmetric_and_closed() {
        let a = Interval::new(0i64, 10);
        let b = Interval::new(10, 20);
        let c = Interval::new(11, 20);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(!c.overlaps(&a));
    }

    #[test]
    fn degenerate_intervals_overlap_like_points() {
        let p = Interval::point(5i64);
        assert!(p.overlaps(&Interval::new(0, 5)));
        assert!(p.overlaps(&Interval::new(5, 9)));
        assert!(!p.overlaps(&Interval::new(6, 9)));
        assert!(p.contains_point(5));
        assert!(!p.contains_point(4));
    }

    #[test]
    fn containment() {
        let outer = Interval::new(0i64, 100);
        assert!(outer.contains(&Interval::new(0, 100)));
        assert!(outer.contains(&Interval::new(10, 90)));
        assert!(!outer.contains(&Interval::new(-1, 50)));
        assert!(!outer.contains(&Interval::new(50, 101)));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn reversed_endpoints_panic() {
        let _ = Interval::new(3i64, 2);
    }

    #[test]
    fn grid_offset_signed_spans_zero() {
        assert_eq!((5i64).grid_offset(-5), 10);
        assert_eq!(i64::MAX.grid_offset(i64::MIN), u64::MAX);
        assert_eq!(0i32.grid_offset(0), 0);
    }

    #[test]
    fn grid_offset_unsigned() {
        assert_eq!(7u32.grid_offset(2), 5);
        assert_eq!(u64::MAX.grid_offset(0), u64::MAX);
    }
}
