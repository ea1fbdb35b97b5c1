//! Offline stand-in for `proptest`.
//!
//! The build environment has no crates.io access, so this crate implements
//! the strategy combinators and macros the workspace's property tests use:
//! [`Strategy`] with `prop_map`/`prop_filter`/`prop_recursive`/`boxed`,
//! range and tuple strategies, regex-lite string strategies
//! (`"[a-z]{1,4}"`-style class-repetition patterns), `prop::collection::vec`,
//! `prop::sample::select`, `prop::bool::ANY`, [`Just`], `any::<T>()`,
//! `prop_oneof!`, and the [`proptest!`] test macro with
//! `#![proptest_config(...)]` support.
//!
//! Differences from crates.io proptest: cases are generated from a
//! deterministic per-test seed (override the count with `PROPTEST_CASES`;
//! mix a run-wide value into every seed with `PROPTEST_SEED`), and there
//! is **no shrinking** — a failing case panics with its seed, the
//! `PROPTEST_SEED` in effect, case number, and `Debug`-printed inputs so
//! it can be replayed by re-running the test with the same variables.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The RNG handed to strategies.
pub type TestRng = StdRng;

/// A generator of random values of one type.
///
/// Unlike crates.io proptest there is no value tree: `generate` returns the
/// value directly and shrinking is not supported.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Discard generated values failing `f` (regenerating, bounded).
    fn prop_filter<F>(self, reason: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            reason,
            f,
        }
    }

    /// Build a recursive strategy: `self` is the leaf case and `f` lifts a
    /// strategy for depth `d` to one for depth `d + 1`. `_desired_size` and
    /// `_expected_branch` are accepted for API parity and ignored — the
    /// strategies passed to `f` already bound their own branching.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf = self.boxed();
        let mut cur = leaf.clone();
        for _ in 0..depth {
            // At every level, bottom out at the leaf half of the time so
            // expected tree size stays bounded.
            cur = union(vec![leaf.clone(), f(cur).boxed()]);
        }
        cur
    }

    /// Type-erase into a clonable boxed strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Arc::new(self))
    }
}

/// A clonable, type-erased strategy.
pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Arc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// Uniform choice among boxed strategies (backs `prop_oneof!`).
pub fn union<T>(arms: Vec<BoxedStrategy<T>>) -> BoxedStrategy<T>
where
    T: 'static,
{
    assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
    Union { arms }.boxed()
}

struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.random_range(0..self.arms.len());
        self.arms[i].generate(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Clone)]
pub struct Filter<S, F> {
    inner: S,
    reason: &'static str,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter gave up after 1000 rejections: {}", self.reason);
    }
}

/// Always produce a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// ---- Range strategies ------------------------------------------------

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

// ---- Tuple strategies ------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

// ---- Regex-lite string strategies ------------------------------------

/// `&str` literals act as string strategies for the pattern subset
/// `[class]{m,n}` / `[class]{n}` / `[class]*`-free simple forms used in
/// this workspace (a single character class with a repetition count).
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (chars, min, max) = parse_class_repetition(self).unwrap_or_else(|| {
            panic!(
                "string strategy {self:?} is not of the supported \
                 `[class]{{m,n}}` form"
            )
        });
        let len = rng.random_range(min..=max);
        (0..len)
            .map(|_| chars[rng.random_range(0..chars.len())])
            .collect()
    }
}

/// Parse `[chars]{m,n}` (or `[chars]{n}`) into the expanded alphabet and
/// repetition bounds.
fn parse_class_repetition(pattern: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pattern.strip_prefix('[')?;
    let close = rest.find(']')?;
    let class = &rest[..close];
    let rep = rest[close + 1..].strip_prefix('{')?.strip_suffix('}')?;
    let (min, max) = match rep.split_once(',') {
        Some((a, b)) => (a.trim().parse().ok()?, b.trim().parse().ok()?),
        None => {
            let n = rep.trim().parse().ok()?;
            (n, n)
        }
    };
    let mut chars = Vec::new();
    let src: Vec<char> = class.chars().collect();
    let mut i = 0;
    while i < src.len() {
        if i + 2 < src.len() && src[i + 1] == '-' {
            let (lo, hi) = (src[i], src[i + 2]);
            for c in lo..=hi {
                chars.push(c);
            }
            i += 3;
        } else {
            chars.push(src[i]);
            i += 1;
        }
    }
    if chars.is_empty() {
        return None;
    }
    Some((chars, min, max))
}

// ---- any / Arbitrary --------------------------------------------------

/// Types with a canonical default strategy.
pub trait Arbitrary: Sized {
    /// Generate one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.random()
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.random()
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// The canonical strategy for an [`Arbitrary`] type.
pub struct AnyStrategy<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The default strategy of `T` (`any::<bool>()`, ...).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(core::marker::PhantomData)
}

// ---- prop:: namespace -------------------------------------------------

/// The `prop::` namespace mirrored from crates.io proptest.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use rand::Rng;

        /// Strategy for `Vec<S::Value>` with length drawn from `size`.
        #[derive(Clone)]
        pub struct VecStrategy<S> {
            element: S,
            min: usize,
            max: usize,
        }

        /// `vec(element, min..max)`: vectors with `min <= len < max`.
        pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
            assert!(size.start < size.end, "empty vec size range");
            VecStrategy {
                element,
                min: size.start,
                max: size.end - 1,
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let len = rng.random_range(self.min..=self.max);
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// Sampling strategies.
    pub mod sample {
        use super::super::{Strategy, TestRng};
        use rand::Rng;

        /// Uniform choice among explicit values.
        #[derive(Clone)]
        pub struct Select<T: Clone>(Vec<T>);

        /// `select(values)`: one of the given values, uniformly.
        pub fn select<T: Clone>(values: Vec<T>) -> Select<T> {
            assert!(!values.is_empty(), "select of empty vec");
            Select(values)
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;
            fn generate(&self, rng: &mut TestRng) -> T {
                self.0[rng.random_range(0..self.0.len())].clone()
            }
        }
    }

    /// Boolean strategies.
    pub mod bool {
        use super::super::{Strategy, TestRng};
        use rand::Rng;

        /// The fair-coin boolean strategy.
        #[derive(Debug, Clone, Copy)]
        pub struct Any;

        /// Fair coin.
        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = bool;
            fn generate(&self, rng: &mut TestRng) -> bool {
                rng.random()
            }
        }
    }
}

// ---- Runner / config ---------------------------------------------------

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases generated per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Resolve the effective case count (`PROPTEST_CASES` overrides).
pub fn effective_cases(config: &ProptestConfig) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(config.cases)
}

/// The run-wide seed from `PROPTEST_SEED`, if set to an integer.
pub fn env_seed() -> Option<u64> {
    std::env::var("PROPTEST_SEED").ok()?.parse().ok()
}

/// Deterministic per-test seed derived from the test path (FNV-1a), with
/// [`env_seed`] folded in when set — unset, the seed is the path hash
/// alone, so the default run never changes.
pub fn seed_for(test_name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    match env_seed() {
        Some(run) => h ^ run.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        None => h,
    }
}

/// Build the RNG for one case.
pub fn case_rng(seed: u64, case: u32) -> TestRng {
    TestRng::seed_from_u64(seed ^ ((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

// ---- Macros ------------------------------------------------------------

/// Assert a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err(format!($($fmt)*));
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(*l == *r, "assertion failed: `{:?}` != `{:?}`", l, r);
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l == *r,
                    "assertion failed: `{:?}` != `{:?}`: {}",
                    l,
                    r,
                    format!($($fmt)*)
                );
            }
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::union(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Define property tests. Each function runs `cases` times with fresh
/// deterministic inputs; failures panic with seed, case number, and the
/// `Debug` rendering of the inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($config:expr)
      $( $(#[$meta:meta])* fn $name:ident ( $($arg:pat_param in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let cases = $crate::effective_cases(&config);
                let seed = $crate::seed_for(concat!(module_path!(), "::", stringify!($name)));
                let strategies = ($($strat,)+);
                for case in 0..cases {
                    let mut rng = $crate::case_rng(seed, case);
                    let __values = $crate::Strategy::generate(&strategies, &mut rng);
                    let repr = format!("{:?}", &__values);
                    let ($($arg,)+) = __values;
                    let outcome: ::core::result::Result<(), ::std::string::String> =
                        (move || {
                            $body
                            #[allow(unreachable_code)]
                            ::core::result::Result::Ok(())
                        })();
                    if let ::core::result::Result::Err(message) = outcome {
                        let run_seed = $crate::env_seed()
                            .map_or("unset".to_string(), |s| s.to_string());
                        panic!(
                            "proptest case {case}/{cases} failed (seed {seed:#x}, \
                             PROPTEST_SEED={run_seed}):\n{message}\ninputs: {repr}"
                        );
                    }
                }
            }
        )*
    };
}

/// The customary glob import.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, union, Arbitrary, BoxedStrategy,
        Just, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn string_pattern_generates_matching_text() {
        let mut rng = crate::case_rng(1, 0);
        for _ in 0..100 {
            let s = crate::Strategy::generate(&"[a-c1-3]{2,5}", &mut rng);
            assert!((2..=5).contains(&s.chars().count()), "{s:?}");
            assert!(s.chars().all(|c| "abc123".contains(c)), "{s:?}");
        }
    }

    #[test]
    fn union_hits_every_arm() {
        let strat = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut rng = crate::case_rng(2, 0);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[crate::Strategy::generate(&strat, &mut rng) as usize] = true;
        }
        assert_eq!(seen, [false, true, true, true]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn vec_strategy_respects_bounds(v in prop::collection::vec(0u8..10, 1..7)) {
            prop_assert!((1..=6).contains(&v.len()), "len {}", v.len());
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn mapped_tuples_work(pair in (0u32..5, 5u32..9).prop_map(|(a, b)| (b, a))) {
            prop_assert!(pair.0 >= 5 && pair.1 < 5);
            prop_assert_eq!(pair.0 >= 5, true);
        }
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failing_property_reports_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn always_fails(x in 0u8..4) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }

    #[test]
    #[should_panic(expected = "PROPTEST_SEED=")]
    fn failing_property_reports_run_seed() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1))]
            fn always_fails(x in 0u8..4) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
