//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so this crate vendors
//! the subset of the proptest API the workspace's property tests use:
//! the [`proptest!`] macro, `prop_assert*` / `prop_assume!`, range and
//! tuple strategies, `any::<T>()`, `prop::collection::vec`,
//! `prop::sample::Index`, `prop_map`, and `prop_oneof!`.
//!
//! Differences from real proptest, deliberate for an offline test shim:
//!
//! * **no shrinking** — a failing case reports its case index and the
//!   deterministic per-test seed instead of a minimised input;
//! * case generation is deterministic per test name (stable across runs
//!   and platforms), so failures always reproduce.

use std::marker::PhantomData;

/// Deterministic RNG driving case generation (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds deterministically from a test name.
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng { state: h }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        self.next_u64() % bound
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` filtered this case out.
    Reject(String),
    /// A `prop_assert*` failed.
    Fail(String),
}

impl TestCaseError {
    /// Builds a failure.
    pub fn fail(msg: String) -> Self {
        TestCaseError::Fail(msg)
    }

    /// Builds a rejection.
    pub fn reject(msg: String) -> Self {
        TestCaseError::Reject(msg)
    }
}

/// Per-test configuration (subset: case count only).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of values of type `Self::Value`.
pub trait Strategy {
    /// Generated value type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A boxed, type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

/// Strategy returning a constant.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice between boxed strategies ([`prop_oneof!`]).
pub struct OneOf<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> OneOf<V> {
    /// Builds from a non-empty arm list.
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty());
        OneOf { arms }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let width = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(width) as $t)
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let width = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if width == 0 {
                    return lo.wrapping_add(rng.next_u64() as $t);
                }
                lo.wrapping_add(rng.below(width) as $t)
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// Types with a canonical "whole domain" strategy.
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
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

arbitrary_int!(u8, u16, u32, u64, usize, i32, i64);

/// `any::<T>()` — the canonical strategy for `T`.
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Canonical whole-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

pub mod prop {
    //! Namespaced strategy constructors (`prop::collection`, `prop::sample`).

    pub mod collection {
        //! Collection strategies.

        use crate::{Strategy, TestRng};

        /// Inclusive size bounds for [`vec()`].
        #[derive(Debug, Clone, Copy)]
        pub struct SizeRange {
            lo: usize,
            hi: usize,
        }

        impl From<core::ops::Range<usize>> for SizeRange {
            fn from(r: core::ops::Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                SizeRange {
                    lo: r.start,
                    hi: r.end - 1,
                }
            }
        }

        impl From<core::ops::RangeInclusive<usize>> for SizeRange {
            fn from(r: core::ops::RangeInclusive<usize>) -> Self {
                SizeRange {
                    lo: *r.start(),
                    hi: *r.end(),
                }
            }
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { lo: n, hi: n }
            }
        }

        /// Strategy producing `Vec`s of `element` values.
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.hi - self.size.lo) as u64 + 1;
                let len = self.size.lo + rng.below(span.max(1)) as usize;
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// `prop::collection::vec(element, size)`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }
    }

    pub mod sample {
        //! Sampling helpers.

        use crate::{Arbitrary, TestRng};

        /// An index into a not-yet-known-length collection.
        #[derive(Debug, Clone, Copy)]
        pub struct Index(u64);

        impl Index {
            /// Resolves against a concrete length (`len > 0`).
            pub fn index(&self, len: usize) -> usize {
                assert!(len > 0, "Index::index on empty collection");
                (self.0 % len as u64) as usize
            }
        }

        impl Arbitrary for Index {
            fn arbitrary(rng: &mut TestRng) -> Self {
                Index(rng.next_u64())
            }
        }
    }
}

pub mod prelude {
    //! Everything a property test needs in scope.

    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Asserts inside a proptest case; failure aborts only the current case
/// runner with a panic carrying the message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(
                ::std::format!("prop_assert!({}) failed", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a proptest case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(::std::format!(
                "prop_assert_eq! failed: {} != {}\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                __a,
                __b
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    }};
}

/// Asserts inequality inside a proptest case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if *__a == *__b {
            return ::core::result::Result::Err($crate::TestCaseError::fail(::std::format!(
                "prop_assert_ne! failed: {} == {} ({:?})",
                stringify!($a),
                stringify!($b),
                __a
            )));
        }
    }};
}

/// Filters the current case out (does not count as a failure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::reject(::std::format!(
                "prop_assume!({})",
                stringify!($cond)
            )));
        }
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::OneOf::new(::std::vec![$($crate::Strategy::boxed($s)),+])
    };
}

/// The property-test entry macro: expands each `fn name(bindings) { .. }`
/// into a `#[test]` running `cases` deterministic cases (no shrinking).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr); ) => {};
    (config = ($cfg:expr);
     $(#[$attr:meta])*
     fn $name:ident ( $($p:pat in $s:expr),+ $(,)? ) $body:block
     $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::from_name(stringify!($name));
            let mut __ran: u32 = 0;
            let mut __attempts: u32 = 0;
            while __ran < __config.cases {
                __attempts += 1;
                if __attempts > __config.cases.saturating_mul(20).max(1000) {
                    panic!(
                        "proptest '{}': too many rejected cases ({} attempts for {} cases)",
                        stringify!($name),
                        __attempts,
                        __config.cases
                    );
                }
                $(let __generated = $crate::Strategy::generate(&($s), &mut __rng);
                  let $p = __generated;)+
                let __result: ::core::result::Result<(), $crate::TestCaseError> =
                    (move || { $body ::core::result::Result::Ok(()) })();
                match __result {
                    ::core::result::Result::Ok(()) => { __ran += 1; }
                    ::core::result::Result::Err($crate::TestCaseError::Reject(_)) => {}
                    ::core::result::Result::Err($crate::TestCaseError::Fail(__msg)) => {
                        panic!(
                            "proptest '{}' failed at case {}: {}",
                            stringify!($name),
                            __ran,
                            __msg
                        );
                    }
                }
            }
        }
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3u32..17, y in 1u8..=5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((1..=5).contains(&y));
        }

        #[test]
        fn vec_lengths_respected(v in prop::collection::vec(0u32..10, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&e| e < 10));
        }

        #[test]
        fn assume_filters(x in 0u32..10) {
            prop_assume!(x != 3);
            prop_assert_ne!(x, 3);
        }

        #[test]
        fn oneof_and_map_compose(
            ops in prop::collection::vec(
                prop_oneof![
                    (0u32..5).prop_map(|a| (true, a)),
                    (5u32..10).prop_map(|a| (false, a)),
                ],
                0..20,
            )
        ) {
            for (small, a) in ops {
                prop_assert_eq!(small, a < 5);
            }
        }

        #[test]
        fn index_resolves(i in any::<prop::sample::Index>()) {
            prop_assert!(i.index(7) < 7);
        }
    }

    #[test]
    fn determinism_across_runs() {
        let mut a = crate::TestRng::from_name("t");
        let mut b = crate::TestRng::from_name("t");
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
