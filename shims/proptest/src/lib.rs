//! Minimal in-repo stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest 1.x API the workspace's property
//! tests use: the [`Strategy`](strategy::Strategy) trait with `prop_map` / `prop_flat_map` /
//! `prop_recursive` / `boxed`, range and tuple strategies, regex-subset
//! string strategies, `prop::collection::{vec, btree_map}`,
//! `prop::option::of`, `prop::sample::select`, `any::<T>()`, the
//! `proptest!` / `prop_oneof!` / `prop_assert*` macros and
//! `ProptestConfig::with_cases`.
//!
//! Differences from real proptest: no shrinking (a failing case reports
//! its case number and seed instead of a minimized input), and string
//! strategies support the regex subset actually used by the tests
//! (literals, `.`, character classes with ranges and escapes, and the
//! `*`, `+`, `?`, `{m}`, `{m,n}` quantifiers).

pub mod strategy;
pub mod string;
pub mod test_runner;

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for char {
        fn arbitrary_value(rng: &mut TestRng) -> char {
            crate::string::arbitrary_char(rng)
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary_value(rng: &mut TestRng) -> f64 {
            f64::from_bits(rng.next_u64())
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    // Bias toward edge values: they find more bugs than a
                    // uniform draw and partly compensate for no shrinking.
                    match rng.next_u64() % 8 {
                        0 => 0 as $t,
                        1 => <$t>::MAX,
                        2 => <$t>::MIN,
                        3 => 1 as $t,
                        _ => rng.next_u64() as $t,
                    }
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Strategy producing arbitrary values of `T`.
    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// `any::<T>()`: the canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeMap;

    /// Accepted size arguments: `usize`, `a..b`, `a..=b`.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl SizeRange {
        pub fn pick(&self, rng: &mut TestRng) -> usize {
            let span = (self.hi_inclusive - self.lo) as u64 + 1;
            self.lo + (rng.next_u64() % span) as usize
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<T>` with sizes drawn from `size`.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeMap<K, V>` with *up to* the drawn size (duplicate
    /// keys collapse, as in real proptest).
    #[derive(Clone)]
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: SizeRange,
    }

    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: impl Into<SizeRange>,
    ) -> BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        BTreeMapStrategy {
            key,
            value,
            size: size.into(),
        }
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
            let n = self.size.pick(rng);
            (0..n)
                .map(|_| (self.key.generate(rng), self.value.generate(rng)))
                .collect()
        }
    }
}

pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[derive(Clone)]
    pub struct OptionStrategy<S>(S);

    /// `Option<T>`: `None` for 1 in 4 cases, otherwise `Some`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64().is_multiple_of(4) {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[derive(Clone)]
    pub struct Select<T>(Vec<T>);

    /// Uniform choice from a fixed list.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select from empty list");
        Select(options)
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[(rng.next_u64() % self.0.len() as u64) as usize].clone()
        }
    }
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn tree() -> impl Strategy<Value = Vec<u32>> {
        prop::collection::vec(0u32..10, 1..4)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_vecs(xs in tree(), flag in any::<bool>(), n in 5usize..=5) {
            prop_assert!(n == 5);
            prop_assert!(!xs.is_empty() && xs.len() < 4);
            prop_assert!(xs.iter().all(|&x| x < 10));
            let _ = flag;
        }

        #[test]
        fn strings_match_class(s in "[a-c]{2,4}", t in ".*") {
            prop_assert!((2..=4).contains(&s.len()));
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
            let _ = t;
        }

        #[test]
        fn oneof_and_maps(v in prop_oneof![2 => (0i64..4).prop_map(Some), 1 => Just(None)]) {
            if let Some(x) = v {
                prop_assert!((0..4).contains(&x));
            }
        }

        #[test]
        fn flat_map_dependent(pair in (1usize..5).prop_flat_map(|n| {
            (prop::collection::vec(0u64..100, n..=n), Just(n))
        })) {
            prop_assert_eq!(pair.0.len(), pair.1);
        }
    }

    #[test]
    fn recursive_strategy_terminates() {
        #[derive(Debug, Clone)]
        enum T {
            Leaf(bool),
            Node(Vec<T>),
        }
        let leaf = any::<bool>().prop_map(T::Leaf);
        let strat = leaf.prop_recursive(3, 24, 4, |inner| {
            prop::collection::vec(inner, 0..4).prop_map(T::Node)
        });
        let mut rng = crate::test_runner::TestRng::deterministic("recursive");
        fn depth(t: &T) -> usize {
            match t {
                T::Leaf(b) => {
                    let _ = b;
                    1
                }
                T::Node(c) => 1 + c.iter().map(depth).max().unwrap_or(0),
            }
        }
        for _ in 0..200 {
            let t = strat.generate(&mut rng);
            assert!(depth(&t) <= 5, "depth {}", depth(&t));
        }
    }
}
