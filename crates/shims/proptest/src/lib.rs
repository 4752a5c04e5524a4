//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest API used by this workspace's
//! property tests: the [`proptest!`] macro, [`Strategy`] with
//! `prop_map`/`prop_flat_map`, integer-range strategies, tuple
//! strategies and [`collection::vec`]. Generation is plain seeded
//! sampling (no shrinking): each test function runs
//! `ProptestConfig::cases` deterministic cases seeded from the test's
//! name, so failures reproduce exactly across runs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};

/// The per-test configuration (shrinking-free shim: only `cases`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream defaults to 256; 64 keeps exhaustive simulator-backed
        // properties fast on small CI machines while still sweeping the
        // space (cases are deterministic, not fresh entropy).
        ProptestConfig { cases: 64 }
    }
}

/// The generation source handed to strategies.
pub type TestRng = StdRng;

/// Derives the deterministic per-test RNG. Public because the
/// [`proptest!`] expansion calls it; not part of the mimicked API.
pub fn rng_for(test_name: &str) -> TestRng {
    // FNV-1a over the test name: stable across runs and platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// A value generator. Unlike upstream there is no shrinking; `generate`
/// simply draws one value.
pub trait Strategy: Clone {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Value) -> O + Clone,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` returns
    /// for it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        S: Strategy,
        F: Fn(Self::Value) -> S + Clone,
    {
        FlatMap { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O + Clone,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2 + Clone,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                // 53 uniform mantissa bits mapped affinely into
                // [start, end) — the conventional u64 -> f64 unit draw.
                let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                (self.start as f64 + (self.end as f64 - self.start as f64) * unit) as $t
            }
        }
    )*};
}

impl_float_range_strategy!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Anything usable as a element-count specification.
    pub trait SizeRange: Clone {
        /// Draws a length.
        fn draw_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn draw_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn draw_len(&self, rng: &mut TestRng) -> usize {
            rng.random_range(self.clone())
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn draw_len(&self, rng: &mut TestRng) -> usize {
            rng.random_range(self.clone())
        }
    }

    /// A strategy producing `Vec`s of `element` values with a length
    /// drawn from `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.draw_len(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! The usual glob-import surface.
    pub use crate::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
    /// Upstream exposes combinators under `prop::...` in the prelude.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Asserts a property holds (no shrinking in the shim, so this is a
/// plain assertion with the proptest spelling).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assertion with the proptest spelling.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Declares property tests: each `#[test] fn name(arg in strategy, ...)
/// { body }` item becomes a normal `#[test]` running
/// [`ProptestConfig::cases`] deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { (<$crate::ProptestConfig as ::core::default::Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::rng_for(concat!(module_path!(), "::", stringify!($name)));
            for _case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)*
                $body
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn deterministic_generation() {
        let s = (1usize..=4, 0u64..100).prop_map(|(a, b)| a as u64 + b);
        let mut r1 = super::rng_for("t");
        let mut r2 = super::rng_for("t");
        for _ in 0..20 {
            assert_eq!(s.clone().generate(&mut r1), s.clone().generate(&mut r2));
        }
    }

    #[test]
    fn vec_strategy_respects_bounds() {
        let s = super::collection::vec(1u64..10, 3usize..=5);
        let mut rng = super::rng_for("v");
        for _ in 0..50 {
            let v = super::Strategy::generate(&s, &mut rng);
            assert!((3..=5).contains(&v.len()));
            assert!(v.iter().all(|&x| (1..10).contains(&x)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_binds_arguments(x in 0u64..10, y in 1i64..=3) {
            prop_assert!(x < 10);
            prop_assert_eq!(y.signum(), 1);
        }

        #[test]
        fn flat_map_composes(v in (1usize..=3).prop_flat_map(|n| super::collection::vec(0u64..5, n..=n))) {
            prop_assert!(!v.is_empty() && v.len() <= 3);
        }
    }
}
