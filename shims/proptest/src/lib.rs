//! Offline stand-in for the `proptest` crate.
//!
//! Implements the strategy combinators and the [`proptest!`] macro this
//! workspace uses: range and tuple strategies, `prop_map` /
//! `prop_flat_map`, `prop::collection::vec`, `prop::option::of`,
//! [`prop_oneof!`], [`arbitrary::any`], and `ProptestConfig::with_cases`.
//!
//! Semantic differences from the real crate, on purpose:
//!
//! * **No shrinking.** A failing case panics with the generated inputs in
//!   the assert message; it is not minimized. Every case is reproducible,
//!   though — see below.
//! * **Deterministic seeding.** Case `i` of test `t` draws its inputs
//!   from `ChaCha8(seed = hash(t, i))`, so failures reproduce exactly on
//!   rerun, across machines, with no persistence files. Set
//!   `PROPTEST_CASES` to override the case count globally (smoke vs
//!   soak).
//! * `prop_assert!` family maps to the `assert!` family (panic, not
//!   `Err`), which is equivalent under "no shrinking".

use rand_chacha::ChaCha8Rng;

/// RNG type handed to strategies.
pub type TestRng = ChaCha8Rng;

/// Derive the deterministic RNG for `(test_name, case_index)`.
pub fn test_rng(test_name: &str, case: u32) -> TestRng {
    use rand::SeedableRng;
    // FNV-1a over the test path, then fold in the case index.
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in test_name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    ChaCha8Rng::seed_from_u64(h ^ (u64::from(case) << 32) ^ u64::from(case))
}

/// Runner configuration. Only the knob this workspace uses.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }

    /// Apply the `PROPTEST_CASES` environment override, if any.
    pub fn resolve_cases(&self) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(self.cases)
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use super::TestRng;
    use rand::RngExt;

    /// A recipe for generating random values of `Self::Value`.
    pub trait Strategy {
        /// Generated type.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { base: self, f }
        }

        /// Generate a value, then generate from the strategy it selects —
        /// for dependent inputs (e.g. a graph size, then edges within it).
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { base: self, f }
        }

        /// Type-erase, for heterogeneous unions ([`crate::prop_oneof!`]).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (**self).sample(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> S::Value {
            (**self).sample(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<B, F> {
        pub(crate) base: B,
        pub(crate) f: F,
    }

    impl<B, O, F> Strategy for Map<B, F>
    where
        B: Strategy,
        F: Fn(B::Value) -> O,
    {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.base.sample(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<B, F> {
        pub(crate) base: B,
        pub(crate) f: F,
    }

    impl<B, S, F> Strategy for FlatMap<B, F>
    where
        B: Strategy,
        S: Strategy,
        F: Fn(B::Value) -> S,
    {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> S::Value {
            (self.f)(self.base.sample(rng)).sample(rng)
        }
    }

    /// Uniform choice among boxed strategies ([`crate::prop_oneof!`]).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Build from a non-empty option list.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let idx = rng.random_range(0..self.options.len());
            self.options[idx].sample(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+)),+ $(,)?) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )+};
    }

    impl_tuple_strategy!(
        (A.0),
        (A.0, B.1),
        (A.0, B.1, C.2),
        (A.0, B.1, C.2, D.3),
        (A.0, B.1, C.2, D.3, E.4),
        (A.0, B.1, C.2, D.3, E.4, F.5),
    );

    /// Strategy yielding a constant.
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()` — "any representable value of `T`".

    use super::strategy::Strategy;
    use super::TestRng;
    use rand::RngExt;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draw a value from the full domain.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_via_random {
        ($($t:ty),* $(,)?) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.random()
                }
            }
        )*};
    }

    impl_arbitrary_via_random!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, f64, f32);

    /// Strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The full-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection::vec`).

    use super::strategy::Strategy;
    use super::TestRng;
    use rand::RngExt;

    /// Anything usable as the size argument of [`vec()`]: a fixed size or a
    /// range of sizes.
    pub trait IntoSizeRange {
        /// Draw a concrete length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for core::ops::Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            rng.random_range(self.clone())
        }
    }

    impl IntoSizeRange for core::ops::RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            rng.random_range(self.clone())
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    pub struct VecStrategy<S, L> {
        element: S,
        size: L,
    }

    impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample_len(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `vec(element, 0..200)` or `vec(element, 60)`.
    pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, size: L) -> VecStrategy<S, L> {
        VecStrategy { element, size }
    }
}

pub mod option {
    //! Option strategies (`prop::option::of`).

    use super::strategy::Strategy;
    use super::TestRng;
    use rand::RngExt;

    /// Strategy for `Option<S::Value>`.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            // Match real proptest's default: Some three times out of four.
            if rng.random_bool(0.75) {
                Some(self.inner.sample(rng))
            } else {
                None
            }
        }
    }

    /// `of(inner)`: `None` sometimes, `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

pub mod prelude {
    //! The customary glob import: `use proptest::prelude::*;`.

    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::ProptestConfig;
    // `proptest!` and the `prop_*` macros are `#[macro_export]`ed at the
    // crate root; re-export so the glob import brings them in too.
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Assert inside a property body (maps to [`assert!`]; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality inside a property body (maps to [`assert_eq!`]).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Assert inequality inside a property body (maps to [`assert_ne!`]).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Define property tests:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(24))]
///     #[test]
///     fn holds(x in 0usize..100, flag in any::<bool>()) {
///         prop_assert!(x < 100 || flag);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($config:expr)) => {};
    (($config:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let cases = config.resolve_cases();
            for case in 0..cases {
                let mut __proptest_rng =
                    $crate::test_rng(concat!(module_path!(), "::", stringify!($name)), case);
                $(
                    let $pat = $crate::strategy::Strategy::sample(
                        &($strategy),
                        &mut __proptest_rng,
                    );
                )+
                $body
            }
        }
        $crate::__proptest_tests! { ($config) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_sample_in_domain() {
        let mut rng = crate::test_rng("shim::inline", 0);
        let strat = (0usize..10, 5u8..=6, 0.0f64..1.0);
        for _ in 0..500 {
            let (a, b, c) = strat.sample(&mut rng);
            assert!(a < 10);
            assert!((5..=6).contains(&b));
            assert!((0.0..1.0).contains(&c));
        }
    }

    #[test]
    fn union_covers_all_options() {
        let mut rng = crate::test_rng("shim::union", 0);
        let strat = prop_oneof![0usize..1, 10usize..11, 20usize..21];
        let mut seen = [false; 3];
        for _ in 0..200 {
            match strat.sample(&mut rng) {
                0 => seen[0] = true,
                10 => seen[1] = true,
                20 => seen[2] = true,
                other => panic!("impossible value {other}"),
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn flat_map_sees_outer_value() {
        let mut rng = crate::test_rng("shim::flatmap", 0);
        let strat = (1usize..50).prop_flat_map(|n| (0usize..n).prop_map(move |k| (n, k)));
        for _ in 0..500 {
            let (n, k) = strat.sample(&mut rng);
            assert!(k < n);
        }
    }

    #[test]
    fn vec_fixed_and_ranged_sizes() {
        let mut rng = crate::test_rng("shim::vec", 0);
        let fixed = prop::collection::vec(any::<bool>(), 60usize);
        assert_eq!(fixed.sample(&mut rng).len(), 60);
        let ranged = prop::collection::vec(0usize..5, 0..9usize);
        for _ in 0..100 {
            assert!(ranged.sample(&mut rng).len() < 9);
        }
    }

    #[test]
    fn deterministic_per_test_and_case() {
        let a: u64 = any::<u64>().sample(&mut crate::test_rng("t", 3));
        let b: u64 = any::<u64>().sample(&mut crate::test_rng("t", 3));
        let c: u64 = any::<u64>().sample(&mut crate::test_rng("t", 4));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: bindings, tuple patterns, trailing comma.
        #[test]
        fn macro_end_to_end(
            x in 0usize..100,
            (lo, hi) in (0u32..50, 50u32..100),
            maybe in prop::option::of(1u64..9),
        ) {
            prop_assert!(x < 100);
            prop_assert!(lo < hi);
            if let Some(v) = maybe {
                prop_assert!((1..9).contains(&v));
            }
        }
    }
}
