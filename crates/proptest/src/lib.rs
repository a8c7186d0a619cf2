//! Offline mini property-testing engine.
//!
//! The build container has no crates.io access, so the real `proptest`
//! cannot be vendored. This shim implements the subset of its API the
//! workspace's tests use:
//!
//! * the [`proptest!`] macro with `arg in strategy` and `arg: Type`
//!   parameters,
//! * [`prop_compose!`] for derived strategies,
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!` /
//!   `prop_assume!`,
//! * range strategies, tuple strategies, `collection::vec`, `any::<T>()`
//!   and `sample::Index`.
//!
//! Semantics differ from the real crate in one deliberate way: there is
//! no shrinking. A failing case panics with the sampled inputs printed,
//! which is enough to reproduce (sampling is deterministic per test name
//! and case index). `PROPTEST_CASES` overrides the per-test case count
//! (default 64).

pub mod strategy {
    //! The [`Strategy`] trait and primitive strategy implementations.

    use super::test_runner::TestRng;
    use rand::Rng;
    use std::ops::Range;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated value type.
        type Value;
        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (**self).sample(rng)
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.rng.gen_range(self.clone())
                }
            }
        )*};
    }

    range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);

    /// Always yields a clone of one value (`proptest::strategy::Just`).
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// A strategy backed by a sampling closure; the engine behind
    /// [`prop_compose!`](crate::prop_compose).
    pub struct FnStrategy<T, F: Fn(&mut TestRng) -> T>(F);

    impl<T, F: Fn(&mut TestRng) -> T> Strategy for FnStrategy<T, F> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Wraps a closure as a [`Strategy`].
    pub fn from_fn<T, F: Fn(&mut TestRng) -> T>(f: F) -> FnStrategy<T, F> {
        FnStrategy(f)
    }
}

pub mod arbitrary {
    //! Blanket "any value of this type" generation.

    use super::test_runner::TestRng;
    use rand::{Rng, RngCore};

    /// Types with a canonical full-domain generator.
    pub trait Arbitrary {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.rng.gen_bool(0.5)
        }
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// The `any::<T>()` strategy.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> super::strategy::Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Returns the canonical strategy for `T` (`proptest::prelude::any`).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Length specification for [`vec()`]: an exact size or a range, as in
    /// proptest's `SizeRange` conversions.
    pub trait IntoSizeRange {
        fn into_size_range(self) -> Range<usize>;
    }

    impl IntoSizeRange for usize {
        fn into_size_range(self) -> Range<usize> {
            self..self + 1
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn into_size_range(self) -> Range<usize> {
            self
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn into_size_range(self) -> Range<usize> {
            *self.start()..*self.end() + 1
        }
    }

    /// Strategy for `Vec<T>` with a length drawn from a range.
    pub struct VecStrategy<S: Strategy> {
        element: S,
        len: Range<usize>,
    }

    /// `proptest::collection::vec`: a vector whose length is uniform in
    /// `len` and whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, len: impl IntoSizeRange) -> VecStrategy<S> {
        let len = len.into_size_range();
        assert!(len.start < len.end, "vec length range must be non-empty");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.rng.gen_range(self.len.clone());
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod sample {
    //! Index sampling (`proptest::sample::Index`).

    use super::arbitrary::Arbitrary;
    use super::test_runner::TestRng;
    use rand::RngCore;

    /// An index into a collection of as-yet-unknown size.
    #[derive(Debug, Clone, Copy)]
    pub struct Index(u64);

    impl Index {
        /// Projects onto `0..len`.
        ///
        /// # Panics
        ///
        /// Panics if `len == 0`.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "cannot index an empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.rng.next_u64())
        }
    }
}

pub mod test_runner {
    //! Deterministic per-test RNG and case-count configuration.

    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The RNG handed to strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        /// Underlying generator (public for in-crate strategy impls).
        pub rng: SmallRng,
    }

    impl TestRng {
        /// A generator whose stream is a pure function of the test name
        /// and case index — failures reproduce across runs.
        pub fn for_case(test_name: &str, case: u32) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            Self {
                rng: SmallRng::seed_from_u64(h ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            }
        }
    }

    /// Number of cases per property (env `PROPTEST_CASES`, default 64).
    pub fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)
    }
}

/// Declares property tests. Each `fn name(x in strategy, y: Type)` item
/// becomes a `#[test]` that samples its parameters [`test_runner::cases`]
/// times and runs the body.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($params:tt)*) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cases = $crate::test_runner::cases();
                for case in 0..cases {
                    let mut rng_storage =
                        $crate::test_runner::TestRng::for_case(stringify!($name), case);
                    let rng = &mut rng_storage;
                    $crate::__proptest_bind!(rng, $($params)*);
                    // `prop_assume!` exits the closure to skip a case.
                    #[allow(clippy::redundant_closure_call)]
                    (|| -> () { $body })();
                }
            }
        )*
    };
}

/// Binds `name in strategy` / `name: Type` parameter lists (internal).
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident $(,)?) => {};
    ($rng:ident, $name:ident in $strat:expr) => {
        let $name = $crate::strategy::Strategy::sample(&($strat), &mut *$rng);
    };
    ($rng:ident, $name:ident in $strat:expr, $($rest:tt)*) => {
        let $name = $crate::strategy::Strategy::sample(&($strat), &mut *$rng);
        $crate::__proptest_bind!($rng, $($rest)*);
    };
    ($rng:ident, $name:ident : $ty:ty) => {
        let $name = <$ty as $crate::arbitrary::Arbitrary>::arbitrary(&mut *$rng);
    };
    ($rng:ident, $name:ident : $ty:ty, $($rest:tt)*) => {
        let $name = <$ty as $crate::arbitrary::Arbitrary>::arbitrary(&mut *$rng);
        $crate::__proptest_bind!($rng, $($rest)*);
    };
}

/// Defines a function returning a derived strategy:
/// `fn name(outer_args)(x in s1, y in s2) -> T { expr }`.
#[macro_export]
macro_rules! prop_compose {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($outer:tt)*)($($params:tt)*) -> $ret:ty $body:block) => {
        $(#[$meta])*
        $vis fn $name($($outer)*) -> impl $crate::strategy::Strategy<Value = $ret> {
            $crate::strategy::from_fn(move |rng| {
                $crate::__proptest_bind!(rng, $($params)*);
                $body
            })
        }
    };
}

/// Asserts a property-test condition (panics on failure; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// `assert_eq!` inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// `assert_ne!` inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Skips the current case when its sampled inputs are uninteresting.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return;
        }
    };
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.

    pub use crate::arbitrary::{any, Any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_compose, proptest,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        /// Range strategies stay in bounds; plain-typed args are drawn
        /// via `Arbitrary`.
        #[test]
        fn ranges_and_any(x in 10u32..20, f in -1.0f64..1.0, b: bool, s: u64) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((-1.0..1.0).contains(&f));
            let _ = (b, s);
        }

        #[test]
        fn vec_and_tuple_strategies(
            v in crate::collection::vec((0usize..4, -1.0f64..1.0), 1..9),
            pick in any::<crate::sample::Index>(),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 9);
            let (i, f) = v[pick.index(v.len())];
            prop_assert!(i < 4 && (-1.0..1.0).contains(&f));
        }

        #[test]
        fn assume_skips_cases(n in 0u32..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
            prop_assert_ne!(n % 2, 1);
        }
    }

    prop_compose! {
        fn arb_point()(x in 0i32..100, y in 0i32..100) -> (i32, i32) {
            (x, y)
        }
    }

    proptest! {
        #[test]
        fn composed_strategy_samples(p in arb_point()) {
            prop_assert!((0..100).contains(&p.0) && (0..100).contains(&p.1));
        }
    }

    #[test]
    fn sampling_is_deterministic_per_case() {
        use crate::strategy::Strategy;
        let a = (0u64..1_000_000).sample(&mut crate::test_runner::TestRng::for_case("t", 3));
        let b = (0u64..1_000_000).sample(&mut crate::test_runner::TestRng::for_case("t", 3));
        assert_eq!(a, b);
    }
}
