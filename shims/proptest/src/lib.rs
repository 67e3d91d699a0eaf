//! Minimal, self-contained stand-in for the parts of the `proptest` API
//! this workspace uses: the `proptest!` macro with `arg in strategy`
//! bindings, `prop_assert!`/`prop_assert_eq!`, range and tuple strategies,
//! `prop_map`/`prop_flat_map`, and `collection::{vec, btree_set}`.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors this shim as a path dependency under the `proptest` crate name.
//!
//! Differences from real proptest: cases are drawn from a fixed-seed RNG
//! derived from the test name (fully deterministic across runs — there is
//! no `PROPTEST_CASES` env handling), there is **no shrinking** (a failing
//! case panics with the sampled values left to the assertion message), and
//! the case count is [`CASES`] rather than 256.

use std::collections::BTreeSet;
use std::ops::Range;

use rand::{Rng, SeedableRng, StdRng};

pub mod prelude {
    //! Everything a property-test module needs in scope.
    pub use crate::{prop_assert, prop_assert_eq, proptest, Just, Strategy};
}

/// Number of cases sampled per property (real proptest defaults to 256;
/// this shim trades a smaller count for fast offline test runs).
pub const CASES: usize = 64;

/// The RNG driving a property's sampled inputs.
pub type TestRng = StdRng;

/// Builds the deterministic RNG for a named property.
#[doc(hidden)]
pub fn test_rng(name: &str) -> TestRng {
    // FNV-1a over the test name: stable across runs and platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(h)
}

/// A generator of test-case values.
pub trait Strategy {
    /// The type of the generated values.
    type Value;

    /// Samples one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Builds a dependent strategy from each generated value.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

macro_rules! int_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )+};
}

int_strategy!(usize, u64, u32, u16, u8, i64, i32);

macro_rules! tuple_strategy {
    ($(($($s:ident / $idx:tt),+);)+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )+};
}

tuple_strategy! {
    (S0 / 0, S1 / 1);
    (S0 / 0, S1 / 1, S2 / 2);
    (S0 / 0, S1 / 1, S2 / 2, S3 / 3);
    (S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4);
    (S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4, S5 / 5);
}

/// Inclusive size bounds for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range {r:?}");
        Self { lo: r.start, hi: r.end - 1 }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty collection size range {r:?}");
        Self { lo: *r.start(), hi: *r.end() }
    }
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        rng.gen_range(self.lo..=self.hi)
    }
}

pub mod collection {
    //! Collection strategies (`vec`, `btree_set`).

    use super::*;

    /// Strategy for `Vec`s of `element` values with a size in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// Strategy for `BTreeSet`s of `element` values with a size in `size`.
    ///
    /// The element domain must be large enough to yield `size` distinct
    /// values; after a bounded number of attempts the set is returned with
    /// however many elements were found (at least one per attempt batch).
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.pick(rng);
            let mut set = BTreeSet::new();
            let mut attempts = 0usize;
            while set.len() < target && attempts < target.saturating_mul(64) + 64 {
                set.insert(self.element.sample(rng));
                attempts += 1;
            }
            set
        }
    }
}

/// Defines property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running the body over [`CASES`] sampled inputs.
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )+) => {$(
        $(#[$meta])*
        fn $name() {
            let mut proptest_rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
            for _proptest_case in 0..$crate::CASES {
                $(let $arg = $crate::Strategy::sample(&($strategy), &mut proptest_rng);)+
                $body
            }
        }
    )+};
}

/// Asserts a condition inside a property body (panics — no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property body (panics — no shrinking).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    proptest! {
        #[test]
        fn ranges_sample_in_bounds(x in 10.0f64..20.0, k in 3usize..7) {
            prop_assert!((10.0..20.0).contains(&x));
            prop_assert!((3..7).contains(&k));
        }

        #[test]
        fn vec_strategy_obeys_sizes(
            v in collection::vec(0i32..100, 2..5),
            w in collection::vec((0.0f64..1.0, 0usize..4), 3),
        ) {
            prop_assert!((2..5).contains(&v.len()));
            prop_assert_eq!(w.len(), 3);
        }

        #[test]
        fn flat_map_respects_dependency(
            pair in (1usize..5).prop_flat_map(|n| {
                collection::vec(0usize..10, n..=n).prop_map(move |v| (n, v))
            }),
        ) {
            prop_assert_eq!(pair.0, pair.1.len());
        }

        #[test]
        fn btree_set_yields_requested_sizes(s in collection::btree_set(0i32..1000, 2..40)) {
            prop_assert!(s.len() >= 2 && s.len() < 40);
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let strat = collection::vec(0.0f64..1.0, 4);
        let mut a = test_rng("x");
        let mut b = test_rng("x");
        assert_eq!(strat.sample(&mut a), strat.sample(&mut b));
    }

    #[test]
    fn just_always_returns_value() {
        let mut rng = test_rng("just");
        assert_eq!(Just(41).sample(&mut rng), 41);
    }
}
