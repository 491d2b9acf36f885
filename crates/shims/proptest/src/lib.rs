//! Offline stand-in for [proptest](https://crates.io/crates/proptest).
//!
//! The build container has no network access and no registry cache, so
//! the real crate cannot be resolved. This shim reimplements exactly
//! the surface the workspace's tests use — `proptest!`,
//! `prop_assert!`/`prop_assert_eq!`, `prop_oneof!`, `Just`, `any`,
//! integer-range strategies, tuple strategies, `prop_map`, and
//! `prop::collection::vec` — over a deterministic splitmix64 stream,
//! so every property test is reproducible run-to-run (no shrinking;
//! failures print the case number, and the per-test stream is seeded
//! from the test's module path so cases are stable across runs).

/// Deterministic generator handed to strategies (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Seed directly.
    pub fn new(seed: u64) -> Self {
        TestRng(seed | 1)
    }

    /// Per-test, per-case stream: hash the test name with FNV-1a and
    /// mix in the case index so each case draws from a distinct but
    /// stable stream.
    pub fn for_case(test_name: &str, case: u32) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng(h.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(case as u64 + 1)) | 1)
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A value generator. Mirrors proptest's `Strategy` minus shrinking.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map the generated value.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erase.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// Boxed, type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
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

/// Always produces a clone of the given value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a default "any value" strategy.
pub trait Arbitrary {
    /// Draw an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Strategy for any value of an [`Arbitrary`] type.
pub struct Any<T>(core::marker::PhantomData<T>);

/// `any::<T>()` — the full domain of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! int_strategies {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }

        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }

        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo + 1) as u64;
                // span == 0 means the full 2^64 domain of a 64-bit type.
                let off = if span == 0 { rng.next_u64() } else { rng.below(span) };
                (lo + off as i128) as $t
            }
        }
    )*};
}

int_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategies {
    ($(($($s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($s,)+) = self;
                ($($s.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// Uniform choice between boxed alternatives (see [`prop_oneof!`]).
pub struct OneOf<T>(pub Vec<BoxedStrategy<T>>);

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        assert!(!self.0.is_empty(), "prop_oneof! needs at least one arm");
        let idx = rng.below(self.0.len() as u64) as usize;
        self.0[idx].generate(rng)
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Strategy for a `Vec` with length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        len: core::ops::Range<usize>,
    }

    /// `vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.clone().generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Runner configuration (only the case count is honoured).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Define property tests. Same surface as proptest's macro: an optional
/// `#![proptest_config(..)]` inner attribute followed by `#[test]`
/// functions whose arguments are `name in strategy` bindings.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    (@run ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            for case in 0..cfg.cases {
                let mut prop_rng = $crate::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                $(let $arg = $crate::Strategy::generate(&($strat), &mut prop_rng);)+
                $body
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Assert inside a property (no early-return semantics needed here).
#[macro_export]
macro_rules! prop_assert {
    ($($tokens:tt)*) => { assert!($($tokens)*) };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tokens:tt)*) => { assert_eq!($($tokens)*) };
}

/// Uniform choice between strategy expressions with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::OneOf(vec![
            $(Box::new($arm) as Box<dyn $crate::Strategy<Value = _>>),+
        ])
    };
}

/// The glob-import surface, mirroring `proptest::prelude::*`.
pub mod prelude {
    /// `prop::collection::vec(..)` etc.
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Any, Arbitrary, BoxedStrategy,
        Just, ProptestConfig, Strategy, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(7);
        for _ in 0..1000 {
            let v = (3u8..9).generate(&mut rng);
            assert!((3..9).contains(&v));
            let w = (1u16..=u16::MAX).generate(&mut rng);
            assert!(w >= 1);
        }
    }

    #[test]
    fn determinism_per_test_name() {
        let a: Vec<u64> = {
            let mut r = TestRng::for_case("x", 0);
            (0..5).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = TestRng::for_case("x", 0);
            (0..5).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    proptest! {
        #[test]
        fn macro_binds_arguments(a in 0u32..10, b in any::<bool>()) {
            prop_assert!(a < 10);
            let _ = b;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        #[test]
        fn macro_honours_config(v in prop::collection::vec(any::<u8>(), 1..4)) {
            prop_assert!(!v.is_empty() && v.len() < 4);
        }
    }

    #[test]
    fn oneof_and_map() {
        #[derive(Debug, PartialEq)]
        enum Op {
            A(u8),
            B,
        }
        let s = prop_oneof![any::<u8>().prop_map(Op::A), Just(Op::B)];
        let mut rng = TestRng::new(99);
        let mut saw_a = false;
        let mut saw_b = false;
        for _ in 0..100 {
            match s.generate(&mut rng) {
                Op::A(_) => saw_a = true,
                Op::B => saw_b = true,
            }
        }
        assert!(saw_a && saw_b);
    }
}
