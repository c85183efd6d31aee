//! Value-generation strategies: primitive ranges, `any`, and tuples.

use std::marker::PhantomData;
use std::ops::Range;

use crate::test_runner::TestRng;

/// A source of random values for property tests (generation only — the
/// shim does not shrink).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_uint_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = u64::from(self.end - self.start);
                self.start + rng.below(span) as $t
            }
        }
    )*};
}

impl_uint_range!(u8, u16, u32);

impl Strategy for Range<u64> {
    type Value = u64;

    fn generate(&self, rng: &mut TestRng) -> u64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.below(self.end - self.start)
    }
}

impl Strategy for Range<usize> {
    type Value = usize;

    fn generate(&self, rng: &mut TestRng) -> usize {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.below((self.end - self.start) as u64) as usize
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                (self.start as i64).wrapping_add(rng.below(span) as i64) as $t
            }
        }
    )*};
}

impl_int_range!(i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;

    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (rng.unit_f64() as f32) * (self.end - self.start)
    }
}

/// Types with a default whole-domain strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Generates an unconstrained value of the type.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite, roughly symmetric values; full bit-pattern floats (NaN,
        // infinities) are rarely what sketch tests want from `any`.
        (rng.unit_f64() - 0.5) * 2e12
    }
}

/// The strategy returned by [`any`].
pub struct Any<T> {
    _marker: PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// A strategy generating unconstrained values of `T`.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: PhantomData,
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case, reason = "the bindings reuse the macro's uppercase type-parameter names")]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runner::TestRng;

    fn rng() -> TestRng {
        TestRng::for_case(42, 0)
    }

    #[test]
    fn signed_range_spans_zero() {
        let strat = -100i64..100;
        let mut r = rng();
        let mut saw_neg = false;
        let mut saw_pos = false;
        for _ in 0..500 {
            let v = strat.generate(&mut r);
            assert!((-100..100).contains(&v));
            saw_neg |= v < 0;
            saw_pos |= v > 0;
        }
        assert!(saw_neg && saw_pos);
    }

    #[test]
    fn f64_range_in_bounds() {
        let strat = -1e6f64..1e6;
        let mut r = rng();
        for _ in 0..1000 {
            let v = strat.generate(&mut r);
            assert!((-1e6..1e6).contains(&v));
        }
    }

    #[test]
    fn any_f64_is_finite() {
        let mut r = rng();
        for _ in 0..1000 {
            assert!(f64::arbitrary(&mut r).is_finite());
        }
    }
}
