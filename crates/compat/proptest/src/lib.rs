//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors a minimal, API-compatible subset of proptest that
//! covers exactly what the test suite uses:
//!
//! * [`strategy::Strategy`] with `prop_map`, `prop_flat_map`,
//!   `prop_recursive` and `boxed`;
//! * `any::<T>()` for integers, `bool` and small tuples;
//! * integer range strategies (`0u8..12`, `-100i64..100`, …);
//! * tuple and array strategies;
//! * a tiny regex-subset string strategy (`"[a-z.]{1,12}"`);
//! * [`collection::vec`], [`collection::btree_set`], [`option::of`];
//! * the [`proptest!`], [`prop_oneof!`], [`prop_assert!`] and
//!   [`prop_assert_eq!`] macros.
//!
//! Differences from real proptest: cases are generated from a fixed
//! deterministic RNG (no persistence files), and there is **no
//! shrinking** — a failing case reports the generated value via the
//! assertion message only.

pub mod test_runner {
    //! Test-runner configuration and the deterministic case RNG.

    /// Configuration accepted by `#![proptest_config(..)]`.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of cases each property runs.
        pub cases: u32,
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 32 }
        }
    }

    impl Config {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    /// Deterministic per-case RNG (xoshiro256++ over SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    fn splitmix64(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl TestRng {
        /// RNG for the `case`-th case of a property run.
        pub fn for_case(case: u32) -> TestRng {
            let mut x = 0x7EA9_07C5_u64 ^ ((case as u64) << 32) ^ case as u64;
            TestRng {
                s: [
                    splitmix64(&mut x),
                    splitmix64(&mut x),
                    splitmix64(&mut x),
                    splitmix64(&mut x),
                ],
            }
        }

        /// Next raw 64-bit word.
        #[inline]
        pub fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }

        /// Uniform value in `[0, span)`.
        #[inline]
        pub fn below(&mut self, span: u64) -> u64 {
            debug_assert!(span > 0);
            ((self.next_u64() as u128 * span as u128) >> 64) as u64
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and its combinators.

    use crate::test_runner::TestRng;
    use std::rc::Rc;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { base: self, f }
        }

        /// Generates an intermediate value, then generates from the
        /// strategy `f` builds from it.
        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2,
        {
            FlatMap { base: self, f }
        }

        /// Type-erases this strategy behind a cheaply clonable handle.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }

        /// Builds a recursive strategy: `self` is the leaf case and
        /// `recurse` expands one level. `depth` bounds the expansion
        /// tower; the `_desired_size`/`_expected_branch` hints of real
        /// proptest are accepted and ignored.
        fn prop_recursive<S2, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            S2: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S2,
        {
            let leaf = self.boxed();
            let mut cur = leaf.clone();
            for _ in 0..depth {
                let expanded = recurse(cur).boxed();
                cur = Union::new(vec![leaf.clone(), expanded]).boxed();
            }
            cur
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.base.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Clone)]
    pub struct FlatMap<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.base.generate(rng)).generate(rng)
        }
    }

    /// A type-erased, clonable strategy handle.
    pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> std::fmt::Debug for BoxedStrategy<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("BoxedStrategy")
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Uniform choice between several strategies of one value type
    /// (the engine behind [`prop_oneof!`](crate::prop_oneof)).
    #[derive(Clone)]
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union over `arms`; panics if empty.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span =
                        (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u64;
                    if span == 0 {
                        return rng.next_u64() as $t;
                    }
                    (lo as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

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
    impl_tuple_strategy!(A, B, C, D, E, G);

    impl<S: Strategy, const N: usize> Strategy for [S; N] {
        type Value = [S::Value; N];
        fn generate(&self, rng: &mut TestRng) -> [S::Value; N] {
            std::array::from_fn(|i| self[i].generate(rng))
        }
    }

    /// `&str` literals act as regex-subset string strategies. Supported
    /// syntax: sequences of literal characters and `[..]` classes (with
    /// `a-z` ranges), each optionally repeated `{m}` or `{m,n}`.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            generate_from_pattern(self, rng)
        }
    }

    fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let chars: Vec<char> = pattern.chars().collect();
        let mut out = String::new();
        let mut i = 0;
        while i < chars.len() {
            // One atom: a char class or a literal character.
            let alphabet: Vec<char> = if chars[i] == '[' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == ']')
                    .map(|p| i + p)
                    .unwrap_or_else(|| panic!("unclosed [ in string strategy {pattern:?}"));
                let mut set = Vec::new();
                let mut j = i + 1;
                while j < close {
                    if j + 2 < close && chars[j + 1] == '-' {
                        let (lo, hi) = (chars[j] as u32, chars[j + 2] as u32);
                        for c in lo..=hi {
                            set.push(char::from_u32(c).unwrap());
                        }
                        j += 3;
                    } else {
                        set.push(chars[j]);
                        j += 1;
                    }
                }
                i = close + 1;
                set
            } else {
                let c = chars[i];
                i += 1;
                vec![c]
            };
            // Optional {m} / {m,n} repetition.
            let (lo, hi) = if i < chars.len() && chars[i] == '{' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .map(|p| i + p)
                    .unwrap_or_else(|| panic!("unclosed {{ in string strategy {pattern:?}"));
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((m, n)) => (
                        m.trim().parse::<usize>().unwrap(),
                        n.trim().parse::<usize>().unwrap(),
                    ),
                    None => {
                        let m = body.trim().parse::<usize>().unwrap();
                        (m, m)
                    }
                }
            } else {
                (1, 1)
            };
            let reps = lo + rng.below((hi - lo + 1) as u64) as usize;
            for _ in 0..reps {
                let k = rng.below(alphabet.len() as u64) as usize;
                out.push(alphabet[k]);
            }
        }
        out
    }
}

pub mod arbitrary {
    //! `any::<T>()` — full-range value generation.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_tuple {
        ($($name:ident),+) => {
            impl<$($name: Arbitrary),+> Arbitrary for ($($name,)+) {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    ($($name::arbitrary(rng),)+)
                }
            }
        };
    }
    impl_arbitrary_tuple!(A);
    impl_arbitrary_tuple!(A, B);
    impl_arbitrary_tuple!(A, B, C);
    impl_arbitrary_tuple!(A, B, C, D);

    /// The strategy returned by [`any`].
    #[derive(Debug)]
    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Full-range strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeSet;

    /// Length bounds for collection strategies.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize {
            self.lo + rng.below((self.hi - self.lo) as u64) as usize
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// `Vec` strategy with a length drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    /// See [`btree_set`].
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.pick(rng).max(self.size.lo);
            let mut out = BTreeSet::new();
            // Bounded retries: tiny element domains may not be able to
            // reach `target` distinct values.
            for _ in 0..target.saturating_mul(20).max(32) {
                if out.len() >= target {
                    break;
                }
                out.insert(self.elem.generate(rng));
            }
            out
        }
    }

    /// `BTreeSet` strategy targeting a size drawn from `size`.
    pub fn btree_set<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S> {
        BTreeSetStrategy {
            elem,
            size: size.into(),
        }
    }
}

pub mod option {
    //! `Option` strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// See [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            // ~25% None, like a light version of proptest's weighting.
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }

    /// `Option` strategy wrapping `inner`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

/// The property-test entry point: a block of `#[test]` functions whose
/// arguments are drawn from strategies via `pattern in strategy`.
#[macro_export]
macro_rules! proptest {
    (@impl $cfg:expr; $(
        #[test]
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                for case in 0..config.cases {
                    let mut case_rng =
                        $crate::test_runner::TestRng::for_case(case);
                    $(
                        let $pat = $crate::strategy::Strategy::generate(
                            &($strat),
                            &mut case_rng,
                        );
                    )+
                    $body
                }
            }
        )*
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl $cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(
            @impl $crate::test_runner::Config::default(); $($rest)*
        );
    };
}

/// Asserts a condition inside a property (no shrinking: forwards to
/// [`assert!`]).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property (forwards to [`assert_eq!`]).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property (forwards to [`assert_ne!`]).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice between strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

pub mod prelude {
    //! Everything a property-test file usually imports.
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn string_patterns_respect_class_and_length() {
        let mut rng = crate::test_runner::TestRng::for_case(3);
        for _ in 0..200 {
            let s = "[a-z.]{1,12}".generate(&mut rng);
            assert!((1..=12).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase() || c == '.'));
        }
    }

    #[test]
    fn union_hits_every_arm() {
        let u = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut rng = crate::test_runner::TestRng::for_case(0);
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[u.generate(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone)]
        enum T {
            #[allow(dead_code)]
            Leaf(u8),
            Node(Box<T>, Box<T>),
        }
        fn depth(t: &T) -> usize {
            match t {
                T::Leaf(_) => 1,
                T::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let strat = (0u8..10)
            .prop_map(T::Leaf)
            .prop_recursive(4, 16, 2, |inner| {
                (inner.clone(), inner).prop_map(|(a, b)| T::Node(Box::new(a), Box::new(b)))
            });
        let mut rng = crate::test_runner::TestRng::for_case(1);
        for _ in 0..100 {
            assert!(depth(&strat.generate(&mut rng)) <= 5);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_binds_multiple_patterns(
            (a, b) in (0u8..10, 0u8..10),
            v in crate::collection::vec(any::<u8>(), 0..8),
        ) {
            prop_assert!(a < 10 && b < 10);
            prop_assert!(v.len() < 8);
        }
    }
}
