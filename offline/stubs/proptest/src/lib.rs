//! Offline stand-in for `proptest`.
//!
//! A deterministic mini property-testing runner covering the strategy
//! surface this workspace uses: ranges, tuples, `prop_map`, `Just`,
//! `prop_oneof!`, `collection::vec`, `sample::{select, subsequence}`,
//! `any::<T>()`, and regex-string strategies (a small generator handling
//! literal atoms, character classes, `.` and `{m,n}`/`?`/`*`/`+`
//! quantifiers). No shrinking, no persistence of failing cases: a failing
//! property panics with the case number so it can be replayed (the stream
//! is a pure function of the test name and case index).
//!
//! The point is to let `cargo test` run in a sandbox with no crates.io
//! access — see `offline/README.md`.

/// Runner plumbing: deterministic PRNG, config, error types.
pub mod test_runner {
    /// Splitmix64 stream used for all generation.
    #[derive(Debug, Clone)]
    pub struct Prng {
        state: u64,
    }

    impl Prng {
        /// New stream from a seed.
        pub fn new(seed: u64) -> Prng {
            let mut p = Prng { state: seed ^ 0xA076_1D64_78BD_642F };
            p.next_u64();
            p
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }

        /// Uniform draw in `[0.0, 1.0)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// FNV-1a of the test name: stable per-test seed.
    pub fn seed_for(name: &str) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01B3);
        }
        h
    }

    /// Mirror of `proptest::test_runner::Config`.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Config {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            // The real default is 256; the stub keeps full parity here so
            // property coverage does not silently shrink offline. Like the
            // real crate, `PROPTEST_CASES` overrides it (not `with_cases`).
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(256);
            Config { cases }
        }
    }

    /// Failure of a single test case.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// Input rejected by `prop_assume!`.
        Reject(String),
        /// Property violated.
        Fail(String),
    }

    /// Per-case result type.
    pub type TestCaseResult = Result<(), TestCaseError>;
}

/// Strategy trait and combinators.
pub mod strategy {
    use crate::test_runner::Prng;

    /// A generator of values (the stub has no shrinking, so this is just a
    /// deterministic `Prng -> Value` function).
    pub trait Strategy {
        /// Generated value type.
        type Value;

        /// Generate one value.
        fn pick(&self, rng: &mut Prng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Type-erase this strategy. Being a method (rather than an `as`
        /// cast), this forces `Self::Value` to be resolved at the call site —
        /// which is what lets `prop_oneof!` alternatives drive inference the
        /// same way the real crate's `.boxed()` does.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy (mirror of `proptest::strategy::BoxedStrategy`,
    /// minus the shrinking machinery).
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn pick(&self, rng: &mut Prng) -> S::Value {
            (**self).pick(rng)
        }
    }

    /// Strategy returning a clone of a fixed value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn pick(&self, _rng: &mut Prng) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn pick(&self, rng: &mut Prng) -> O {
            (self.f)(self.inner.pick(rng))
        }
    }

    /// Uniform choice among boxed alternatives (`prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Union over the given alternatives (must be non-empty).
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one alternative");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn pick(&self, rng: &mut Prng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].pick(rng)
        }
    }

    macro_rules! int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn pick(&self, rng: &mut Prng) -> $t {
                    assert!(self.start < self.end, "strategy range is empty");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let draw = (rng.next_u64() as u128) % span;
                    (self.start as i128 + draw as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn pick(&self, rng: &mut Prng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "strategy range is empty");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let draw = (rng.next_u64() as u128) % span;
                    (lo as i128 + draw as i128) as $t
                }
            }
        )*};
    }
    int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn pick(&self, rng: &mut Prng) -> $t {
                    assert!(self.start < self.end, "strategy range is empty");
                    self.start + (self.end - self.start) * (rng.unit_f64() as $t)
                }
            }
        )*};
    }
    float_strategy!(f32, f64);

    macro_rules! tuple_strategy {
        ($(($($name:ident),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn pick(&self, rng: &mut Prng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.pick(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A) (A, B) (A, B, C) (A, B, C, D) (A, B, C, D, E) (A, B, C, D, E, F)
    }

    /// `&'static str` as a regex strategy (tiny generator: literal atoms,
    /// `[...]` classes with ranges, `.`, and `{m,n}` / `{n}` / `?` / `*` /
    /// `+` quantifiers — the subset this workspace's patterns use).
    impl Strategy for &'static str {
        type Value = String;
        fn pick(&self, rng: &mut Prng) -> String {
            generate_from_regex(self, rng)
        }
    }

    enum Atom {
        Class(Vec<char>),
        AnyChar,
    }

    fn parse_class(chars: &[char], i: &mut usize) -> Vec<char> {
        // chars[*i] is the char right after '['.
        let mut set = Vec::new();
        while *i < chars.len() && chars[*i] != ']' {
            let c = chars[*i];
            if c == '\\' && *i + 1 < chars.len() {
                set.push(chars[*i + 1]);
                *i += 2;
                continue;
            }
            // Range `a-z` (a '-' that is not last in the class).
            if *i + 2 < chars.len() && chars[*i + 1] == '-' && chars[*i + 2] != ']' {
                let (lo, hi) = (c, chars[*i + 2]);
                assert!(lo <= hi, "bad class range {lo}-{hi}");
                for x in lo..=hi {
                    set.push(x);
                }
                *i += 3;
                continue;
            }
            set.push(c);
            *i += 1;
        }
        assert!(*i < chars.len(), "unterminated character class");
        *i += 1; // consume ']'
        assert!(!set.is_empty(), "empty character class");
        set
    }

    fn parse_quantifier(chars: &[char], i: &mut usize) -> (usize, usize) {
        if *i >= chars.len() {
            return (1, 1);
        }
        match chars[*i] {
            '?' => {
                *i += 1;
                (0, 1)
            }
            '*' => {
                *i += 1;
                (0, 8)
            }
            '+' => {
                *i += 1;
                (1, 8)
            }
            '{' => {
                let close = chars[*i..]
                    .iter()
                    .position(|&c| c == '}')
                    .expect("unterminated {} quantifier")
                    + *i;
                let body: String = chars[*i + 1..close].iter().collect();
                *i = close + 1;
                match body.split_once(',') {
                    Some((lo, hi)) => (
                        lo.trim().parse().expect("bad quantifier"),
                        hi.trim().parse().expect("bad quantifier"),
                    ),
                    None => {
                        let n = body.trim().parse().expect("bad quantifier");
                        (n, n)
                    }
                }
            }
            _ => (1, 1),
        }
    }

    fn generate_from_regex(pattern: &str, rng: &mut Prng) -> String {
        const PRINTABLE: std::ops::RangeInclusive<u8> = 0x20..=0x7E;
        let chars: Vec<char> = pattern.chars().collect();
        let mut i = 0usize;
        let mut out = String::new();
        while i < chars.len() {
            let atom = match chars[i] {
                '[' => {
                    i += 1;
                    Atom::Class(parse_class(&chars, &mut i))
                }
                '.' => {
                    i += 1;
                    Atom::AnyChar
                }
                '\\' => {
                    i += 1;
                    let c = chars.get(i).copied().expect("dangling escape");
                    i += 1;
                    Atom::Class(vec![c])
                }
                c => {
                    i += 1;
                    Atom::Class(vec![c])
                }
            };
            let (lo, hi) = parse_quantifier(&chars, &mut i);
            let n = lo + rng.below((hi - lo + 1) as u64) as usize;
            for _ in 0..n {
                match &atom {
                    Atom::Class(set) => {
                        out.push(set[rng.below(set.len() as u64) as usize]);
                    }
                    Atom::AnyChar => {
                        let span = (*PRINTABLE.end() - *PRINTABLE.start() + 1) as u64;
                        out.push((PRINTABLE.start() + rng.below(span) as u8) as char);
                    }
                }
            }
        }
        out
    }
}

/// `any::<T>()` support.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::Prng;

    /// Types with a default whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Generate an arbitrary value.
        fn arbitrary(rng: &mut Prng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut Prng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut Prng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut Prng) -> f64 {
            // Bounded, finite: arbitrary bit patterns (NaN, infinities) break
            // more properties than they test at this fidelity level.
            (rng.unit_f64() - 0.5) * 2e6
        }
    }

    /// Strategy produced by [`any`].
    pub struct Any<T> {
        _marker: std::marker::PhantomData<T>,
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn pick(&self, rng: &mut Prng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The default strategy for `T`, mirroring `proptest::arbitrary::any`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any { _marker: std::marker::PhantomData }
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::Prng;

    /// Size specification for collection strategies (`hi` exclusive).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        pub(crate) lo: usize,
        pub(crate) hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange { lo: *r.start(), hi: *r.end() + 1 }
        }
    }

    impl SizeRange {
        pub(crate) fn pick(&self, rng: &mut Prng) -> usize {
            self.lo + rng.below((self.hi - self.lo) as u64) as usize
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn pick(&self, rng: &mut Prng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.pick(rng)).collect()
        }
    }

    /// Mirror of `proptest::collection::vec`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// Sampling strategies.
pub mod sample {
    use crate::collection::SizeRange;
    use crate::strategy::Strategy;
    use crate::test_runner::Prng;

    /// Strategy choosing one element of a fixed pool.
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn pick(&self, rng: &mut Prng) -> T {
            self.options[rng.below(self.options.len() as u64) as usize].clone()
        }
    }

    /// Mirror of `proptest::sample::select` (non-empty pool).
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "sample::select needs a non-empty pool");
        Select { options }
    }

    /// Strategy choosing an order-preserving random subsequence.
    pub struct Subsequence<T: Clone> {
        pool: Vec<T>,
        size: SizeRange,
    }

    impl<T: Clone> Strategy for Subsequence<T> {
        type Value = Vec<T>;
        fn pick(&self, rng: &mut Prng) -> Vec<T> {
            let k = self.size.pick(rng).min(self.pool.len());
            // Pick k distinct indices, then restore pool order.
            let mut idx: Vec<usize> = (0..self.pool.len()).collect();
            for i in 0..k {
                let j = i + rng.below((idx.len() - i) as u64) as usize;
                idx.swap(i, j);
            }
            idx.truncate(k);
            idx.sort_unstable();
            idx.into_iter().map(|i| self.pool[i].clone()).collect()
        }
    }

    /// Mirror of `proptest::sample::subsequence`.
    pub fn subsequence<T: Clone>(pool: Vec<T>, size: impl Into<SizeRange>) -> Subsequence<T> {
        Subsequence { pool, size: size.into() }
    }
}

/// Mirror of `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};

    /// Mirror of the `prop` module re-export inside the real prelude.
    pub mod prop {
        pub use crate::{collection, sample, strategy};
    }
}

/// Mirror of `proptest!`. Generates one `#[test]` fn per property (the
/// `#[test]` attribute comes from the user's own attribute list, exactly as
/// with the real macro).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = ($crate::test_runner::Config::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr);) => {};
    (
        cfg = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            let __seed = $crate::test_runner::seed_for(stringify!($name));
            for __case in 0..__config.cases {
                let mut __rng = $crate::test_runner::Prng::new(
                    __seed ^ (__case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                $(let $pat = $crate::strategy::Strategy::pick(&($strat), &mut __rng);)*
                let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(m)) =
                    __outcome
                {
                    panic!(
                        "proptest stub: property {} failed at case {}: {}",
                        stringify!($name),
                        __case,
                        m
                    );
                }
            }
        }
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
}

/// Mirror of `prop_assert!` (panics immediately in the stub — no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Mirror of `prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Mirror of `prop_assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Mirror of `prop_assume!`: in the stub a rejected input just passes the
/// case (there is no retry budget to account against).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Mirror of `prop_oneof!` (uniform choice; weights unsupported).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn regex_generator_respects_shape() {
        let mut rng = crate::test_runner::Prng::new(3);
        for _ in 0..200 {
            let s = Strategy::pick(&"[a-z][a-z0-9_]{0,8}", &mut rng);
            assert!(!s.is_empty() && s.len() <= 9);
            let mut cs = s.chars();
            assert!(cs.next().unwrap().is_ascii_lowercase());
            assert!(cs.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples((a, b) in (0usize..5, 10i64..20), v in prop::collection::vec(0u8..4, 2..6)) {
            prop_assert!(a < 5);
            prop_assert!((10..20).contains(&b));
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 4));
        }

        #[test]
        fn oneof_and_sample(
            x in prop_oneof![Just(0i64), any::<i32>().prop_map(|i| i as i64), 100i64..200],
            pick in prop::sample::select(vec!["a", "b", "c"]),
            sub in prop::sample::subsequence(vec![1, 2, 3, 4, 5], 2..4),
        ) {
            let _ = x;
            prop_assert!(["a", "b", "c"].contains(&pick));
            prop_assert!(sub.len() == 2 || sub.len() == 3);
            prop_assert!(sub.windows(2).all(|w| w[0] < w[1]), "order preserved");
        }

        #[test]
        fn assume_short_circuits(n in 0u32..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
            prop_assert_ne!(n % 2, 1);
        }
    }
}
