//! Offline stand-in for `proptest`.
//!
//! Implements the subset of the proptest API this workspace uses:
//! the [`Strategy`] trait over integer/float ranges, [`any`],
//! [`collection::vec`], `prop_map`/`Just`, [`ProptestConfig`] and the
//! [`proptest!`] macro. Cases are generated from a deterministic
//! per-test RNG (seeded from the test name), so failures are
//! reproducible; there is no shrinking.

use std::ops::{Range, RangeInclusive};

/// Deterministic case-generation RNG (xorshift64*).
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Creates an RNG seeded from a test name.
    pub fn from_name(name: &str) -> Self {
        // FNV-1a over the name, mixed so short names differ widely.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self(h | 1)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A generator of random values of type `Value`.
pub trait Strategy {
    /// The generated value type.
    type Value;
    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128).wrapping_sub(self.start as i128) as u128;
                let draw = ((rng.next_u64() as u128 * span) >> 64) as i128;
                ((self.start as i128) + draw) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as i128).wrapping_sub(lo as i128) as u128 + 1;
                let draw = ((rng.next_u64() as u128).wrapping_mul(span) >> 64) as i128;
                ((lo as i128) + draw) as $t
            }
        }
        impl ArbitraryValue for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ArbitraryValue for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

/// Types with a full-domain default strategy.
pub trait ArbitraryValue {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Full-domain strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// Strategy producing any value of `T` (integers: full range).
pub fn any<T: ArbitraryValue>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: ArbitraryValue> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Constant strategy.
#[derive(Debug, Clone, Copy)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Strategy adaptor created by [`Strategy::prop_map`].
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

/// Collection strategies (subset of `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length specification for [`vec()`]: a fixed length or a range.
    pub trait IntoLenRange {
        /// Draws a concrete length.
        fn draw_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoLenRange for usize {
        fn draw_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoLenRange for Range<usize> {
        fn draw_len(&self, rng: &mut TestRng) -> usize {
            Strategy::generate(self, rng)
        }
    }

    /// Strategy for vectors of values from `elem`.
    pub struct VecStrategy<S, L> {
        elem: S,
        len: L,
    }

    /// Generates vectors whose elements come from `elem` and whose
    /// length comes from `len` (a `usize` or `Range<usize>`).
    pub fn vec<S: Strategy, L: IntoLenRange>(elem: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { elem, len }
    }

    impl<S: Strategy, L: IntoLenRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.draw_len(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Per-test configuration (subset of `proptest::test_runner`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 32 }
    }
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// Common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection as prop_collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just,
        ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case when the assumption fails (shim: the case
/// simply completes early via a flagged `continue` in the runner loop
/// is not expressible here, so we return from the closure body).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return;
        }
    };
}

/// Defines property tests. Each `fn name(arg in strategy, ...)` block
/// becomes a `#[test]` running `config.cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!{ @cfg ($cfg); $($rest)* }
    };
    (@cfg ($cfg:expr); $( $(#[$attr:meta])* fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )* ) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::from_name(stringify!($name));
                for _ in 0..config.cases {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)*
                    // Property bodies run inside a closure so that
                    // `prop_assume!` can abort a single case.
                    #[allow(clippy::redundant_closure_call)]
                    (|| $body)();
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!{ @cfg ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_are_respected(x in 5u64..10, y in -3i64..=3) {
            prop_assert!((5..10).contains(&x));
            prop_assert!((-3..=3).contains(&y));
        }

        #[test]
        fn vec_strategy_sizes(v in crate::collection::vec(0u32..100, 7)) {
            prop_assert_eq!(v.len(), 7);
            prop_assert!(v.iter().all(|&e| e < 100));
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(x in any::<u64>()) {
            let _ = x;
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::TestRng::from_name("t");
        let mut b = crate::TestRng::from_name("t");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
