//! Built-in strategies: integer/float ranges, tuples, `any`, collections.

use crate::{Strategy, TestRng};
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// `strategy.prop_map(f)` adapter.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    pub(crate) inner: S,
    pub(crate) f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// `any::<T>()` — the full-range strategy for a primitive type.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Marker strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

/// Types with a canonical full-range strategy.
pub trait Arbitrary {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + rng.below(span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.below(span + 1) as $t
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize);

macro_rules! signed_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i64 - self.start as i64) as u64;
                (self.start as i64 + rng.below(span) as i64) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i64 - lo as i64) as u64;
                (lo as i64 + rng.below(span.wrapping_add(1)) as i64) as $t
            }
        }
    )*};
}
signed_range_strategy!(i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + u * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let u = (rng.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64;
        self.start() + u * (self.end() - self.start())
    }
}

macro_rules! tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A: 0);
tuple_strategy!(A: 0, B: 1);
tuple_strategy!(A: 0, B: 1, C: 2);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// `prop::collection` — collection strategies.
pub mod collection {
    use super::*;

    /// A `Vec` of values from `element`, with a length drawn from `len`.
    pub fn vec<S: Strategy, L: IntoLen>(element: S, len: L) -> VecStrategy<S> {
        VecStrategy {
            element,
            len: len.into_len(),
        }
    }

    /// Length specifications accepted by [`vec()`].
    pub trait IntoLen {
        /// Converts to an inclusive `(min, max)` length pair.
        fn into_len(self) -> (usize, usize);
    }

    impl IntoLen for usize {
        fn into_len(self) -> (usize, usize) {
            (self, self)
        }
    }

    impl IntoLen for Range<usize> {
        fn into_len(self) -> (usize, usize) {
            assert!(self.start < self.end, "empty length range");
            (self.start, self.end - 1)
        }
    }

    impl IntoLen for RangeInclusive<usize> {
        fn into_len(self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// Strategy produced by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: (usize, usize),
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let (lo, hi) = self.len;
            let n = lo + rng.below((hi - lo + 1) as u64) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(7);
        for _ in 0..200 {
            let v = (1u64..=20).generate(&mut rng);
            assert!((1..=20).contains(&v));
            let w = (3usize..9).generate(&mut rng);
            assert!((3..9).contains(&w));
        }
    }

    #[test]
    fn vec_strategy_respects_lengths() {
        let mut rng = TestRng::new(1);
        let s = collection::vec(1u64..=5, 2..=4);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..=4).contains(&v.len()));
            assert!(v.iter().all(|x| (1..=5).contains(x)));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let s = (collection::vec(1u64..=9, 1..=6), 1usize..=4);
        let a = s.generate(&mut TestRng::new(42));
        let b = s.generate(&mut TestRng::new(42));
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_round_trips(x in 1u64..=100, ys in prop::collection::vec(0u32..10, 0..=5)) {
            prop_assert!((1..=100).contains(&x));
            prop_assert!(ys.len() <= 5);
            prop_assume!(x != 0);
            prop_assert_ne!(x, 0);
            prop_assert_eq!(x, x, "identity must hold for {}", x);
        }

        #[test]
        fn mapped_strategies_apply(f in (1u64..=3).prop_map(|v| v * 10)) {
            prop_assert!(f == 10 || f == 20 || f == 30);
        }
    }
}
