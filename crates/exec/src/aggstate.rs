//! Aggregation function state: accumulate per segment, merge across
//! segments and servers, finalize at the broker.

use crate::key::{canonical_f64_bits, GroupValue};
use pinot_common::{PinotError, Result, Value};
use pinot_pql::AggFunction;
use pinot_segment::{DictId, Dictionary};

/// Intermediate state of one aggregation function.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    Count(u64),
    Sum(f64),
    Min(f64),
    Max(f64),
    Avg {
        sum: f64,
        count: u64,
    },
    /// Exact distinct count: the set of canonical scalar values.
    Distinct(DistinctSet),
}

/// The values an exact DISTINCTCOUNT has seen, as three sorted,
/// deduplicated runs by kind: INT and LONG in `longs`, FLOAT and DOUBLE
/// in `doubles` as their canonical bits (one NaN, one zero, as
/// [`GroupValue::F64`]), and STRING, BOOLEAN and NULL in `others`.
///
/// The form is canonical: equal sets are equal structs whatever the
/// order their values arrived or their partials merged in, and a merge
/// is a linear union of each run, with no hashing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistinctSet {
    longs: Vec<i64>,
    doubles: Vec<u64>,
    others: Vec<GroupValue>,
}

impl DistinctSet {
    /// The values of `ids`, read off `dict`'s typed slice: a number is
    /// never wrapped in a [`Value`]. The ids may come in any order and
    /// repeat, so nothing depends on the dictionary being sorted.
    pub(crate) fn from_dictionary(dict: &Dictionary, ids: &[DictId]) -> DistinctSet {
        let mut set = DistinctSet::default();
        let ids = ids.iter().map(|&id| id as usize);
        match dict {
            Dictionary::Int(v) => set.longs.extend(ids.map(|i| i64::from(v[i]))),
            Dictionary::Long(v) => set.longs.extend(ids.map(|i| v[i])),
            Dictionary::Float(v) => set
                .doubles
                .extend(ids.map(|i| canonical_f64_bits(f64::from(v[i])))),
            Dictionary::Double(v) => set.doubles.extend(ids.map(|i| canonical_f64_bits(v[i]))),
            Dictionary::String(v) => set
                .others
                .extend(ids.map(|i| GroupValue::Str(v[i].clone()))),
            Dictionary::Boolean(v) => set.others.extend(ids.map(|i| GroupValue::Bool(v[i]))),
        }
        // Linear on the runs an immutable dictionary yields, which are
        // sorted already (negative doubles' bits aside).
        set.longs.sort_unstable();
        set.longs.dedup();
        set.doubles.sort_unstable();
        set.doubles.dedup();
        set.others.sort_unstable();
        set.others.dedup();
        set
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.longs.len() + self.doubles.len() + self.others.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Add one value, in place.
    pub fn insert(&mut self, v: GroupValue) {
        fn insert_sorted<T: Ord>(run: &mut Vec<T>, x: T) {
            if let Err(at) = run.binary_search(&x) {
                run.insert(at, x);
            }
        }
        match v {
            GroupValue::Long(x) => insert_sorted(&mut self.longs, x),
            GroupValue::F64(bits) => {
                insert_sorted(&mut self.doubles, canonical_f64_bits(f64::from_bits(bits)))
            }
            other => insert_sorted(&mut self.others, other),
        }
    }

    /// Fold `other` into this set: a linear merge-union of each run.
    pub fn union(&mut self, other: DistinctSet) {
        union_sorted(&mut self.longs, other.longs);
        union_sorted(&mut self.doubles, other.doubles);
        union_sorted(&mut self.others, other.others);
    }
}

/// Union of two sorted, deduplicated runs, left in `a`: merged back to
/// front inside `a`'s own buffer, so a server folding its segments one
/// by one grows one run by amortized doubling instead of allocating a
/// new run per merge.
fn union_sorted<T: Ord + Default>(a: &mut Vec<T>, mut b: Vec<T>) {
    let mut i = a.len();
    a.resize_with(i + b.len(), T::default);
    // `a[..i]` and `b` are unmerged, `a[k..]` is merged, and `a[i..k]`
    // holds placeholders (`k > i` while `b` is not empty), so a move
    // into `a[k - 1]` overwrites nothing unmerged.
    let mut k = a.len();
    while let Some(y) = b.pop() {
        while i > 0 && a[i - 1] > y {
            i -= 1;
            k -= 1;
            a.swap(i, k);
        }
        if i > 0 && a[i - 1] == y {
            // `y` is in `a` already: that copy turns placeholder.
            i -= 1;
        }
        k -= 1;
        a[k] = y;
    }
    // One placeholder is left per value the runs shared.
    a.drain(i..k);
}

impl AggState {
    /// Identity state for a function.
    pub fn new(function: AggFunction) -> AggState {
        match function {
            AggFunction::Count => AggState::Count(0),
            AggFunction::Sum => AggState::Sum(0.0),
            AggFunction::Min => AggState::Min(f64::INFINITY),
            AggFunction::Max => AggState::Max(f64::NEG_INFINITY),
            AggFunction::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggFunction::DistinctCount => AggState::Distinct(DistinctSet::default()),
        }
    }

    /// Accumulate one numeric input (COUNT ignores the value).
    #[inline]
    pub fn accept_numeric(&mut self, x: f64) {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum(s) => *s += x,
            AggState::Min(m) => *m = m.min(x),
            AggState::Max(m) => *m = m.max(x),
            AggState::Avg { sum, count } => {
                *sum += x;
                *count += 1;
            }
            AggState::Distinct(set) => set.insert(GroupValue::from_value(&Value::Double(x))),
        }
    }

    /// Accumulate a preaggregated contribution (star-tree path).
    pub fn accept_preaggregated(&mut self, count: u64, sum: f64, min: f64, max: f64) -> Result<()> {
        match self {
            AggState::Count(n) => *n += count,
            AggState::Sum(s) => *s += sum,
            AggState::Min(m) => *m = m.min(min),
            AggState::Max(m) => *m = m.max(max),
            AggState::Avg { sum: s, count: c } => {
                *s += sum;
                *c += count;
            }
            AggState::Distinct(_) => {
                return Err(PinotError::Internal(
                    "DISTINCTCOUNT cannot consume preaggregated data".into(),
                ))
            }
        }
        Ok(())
    }

    /// Merge another state of the same function.
    pub fn merge(&mut self, other: AggState) -> Result<()> {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum(a), AggState::Sum(b)) => *a += b,
            (AggState::Min(a), AggState::Min(b)) => *a = a.min(b),
            (AggState::Max(a), AggState::Max(b)) => *a = a.max(b),
            (AggState::Avg { sum: a, count: c }, AggState::Avg { sum: b, count: d }) => {
                *a += b;
                *c += d;
            }
            (AggState::Distinct(a), AggState::Distinct(b)) => a.union(b),
            (a, b) => {
                return Err(PinotError::Internal(format!(
                    "cannot merge mismatched aggregation states {a:?} / {b:?}"
                )))
            }
        }
        Ok(())
    }

    /// Final client-facing value.
    pub fn finalize(&self) -> Value {
        match self {
            AggState::Count(n) => Value::Long(*n as i64),
            AggState::Sum(s) => Value::Double(*s),
            AggState::Min(m) => {
                if m.is_finite() {
                    Value::Double(*m)
                } else {
                    Value::Null
                }
            }
            AggState::Max(m) => {
                if m.is_finite() {
                    Value::Double(*m)
                } else {
                    Value::Null
                }
            }
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Double(sum / *count as f64)
                }
            }
            AggState::Distinct(set) => Value::Long(set.len() as i64),
        }
    }

    /// Numeric view of the final value (for top-n ordering); empty
    /// min/max/avg order last.
    pub fn finalize_f64(&self) -> f64 {
        match self.finalize() {
            Value::Long(n) => n as f64,
            Value::Double(d) => d,
            _ => f64::NEG_INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(values: impl IntoIterator<Item = GroupValue>) -> DistinctSet {
        let mut set = DistinctSet::default();
        for v in values {
            set.insert(v);
        }
        set
    }

    #[test]
    fn count_sum_min_max_avg() {
        let inputs = [3.0, -1.0, 7.0];
        let mut states: Vec<AggState> = [
            AggFunction::Count,
            AggFunction::Sum,
            AggFunction::Min,
            AggFunction::Max,
            AggFunction::Avg,
        ]
        .iter()
        .map(|f| AggState::new(*f))
        .collect();
        for x in inputs {
            for s in &mut states {
                s.accept_numeric(x);
            }
        }
        assert_eq!(states[0].finalize(), Value::Long(3));
        assert_eq!(states[1].finalize(), Value::Double(9.0));
        assert_eq!(states[2].finalize(), Value::Double(-1.0));
        assert_eq!(states[3].finalize(), Value::Double(7.0));
        assert_eq!(states[4].finalize(), Value::Double(3.0));
    }

    #[test]
    fn empty_states_finalize_sanely() {
        assert_eq!(AggState::new(AggFunction::Count).finalize(), Value::Long(0));
        assert_eq!(
            AggState::new(AggFunction::Sum).finalize(),
            Value::Double(0.0)
        );
        assert_eq!(AggState::new(AggFunction::Min).finalize(), Value::Null);
        assert_eq!(AggState::new(AggFunction::Max).finalize(), Value::Null);
        assert_eq!(AggState::new(AggFunction::Avg).finalize(), Value::Null);
        assert_eq!(
            AggState::new(AggFunction::DistinctCount).finalize(),
            Value::Long(0)
        );
    }

    #[test]
    fn distinct_count_exact_over_values() {
        let values = ["a", "b", "a", "c", "b"].map(|v| GroupValue::from_value(&Value::from(v)));
        let s = AggState::Distinct(set_of(values));
        assert_eq!(s.finalize(), Value::Long(3));
    }

    #[test]
    fn merge_matches_streaming() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 0.7 - 20.0).collect();
        for f in [
            AggFunction::Count,
            AggFunction::Sum,
            AggFunction::Min,
            AggFunction::Max,
            AggFunction::Avg,
        ] {
            let mut whole = AggState::new(f);
            for &x in &xs {
                whole.accept_numeric(x);
            }
            let mut left = AggState::new(f);
            let mut right = AggState::new(f);
            for &x in &xs[..50] {
                left.accept_numeric(x);
            }
            for &x in &xs[50..] {
                right.accept_numeric(x);
            }
            left.merge(right).unwrap();
            assert_eq!(left.finalize(), whole.finalize(), "{f:?}");
        }
    }

    #[test]
    fn distinct_merge_unions() {
        let longs =
            |xs: &[i64]| AggState::Distinct(set_of(xs.iter().map(|&x| GroupValue::Long(x))));
        let mut a = longs(&[1, 2]);
        a.merge(longs(&[2, 3])).unwrap();
        assert_eq!(a, longs(&[3, 2, 1]));
        assert_eq!(a.finalize(), Value::Long(3));
    }

    #[test]
    fn mismatched_merge_fails() {
        let mut a = AggState::new(AggFunction::Count);
        assert!(a.merge(AggState::new(AggFunction::Sum)).is_err());
    }

    #[test]
    fn preaggregated_contributions() {
        let mut s = AggState::new(AggFunction::Avg);
        s.accept_preaggregated(4, 20.0, 1.0, 9.0).unwrap();
        s.accept_preaggregated(1, 5.0, 5.0, 5.0).unwrap();
        assert_eq!(s.finalize(), Value::Double(5.0));
        let mut d = AggState::new(AggFunction::DistinctCount);
        assert!(d.accept_preaggregated(1, 1.0, 1.0, 1.0).is_err());
    }

    #[test]
    fn distinct_set_is_typed_and_canonical() {
        let set = set_of(
            [
                Value::Int(-1),
                Value::Long(-1),
                Value::Double(0.0),
                Value::Double(-0.0),
                Value::Double(f64::NAN),
                Value::Float(f32::NAN),
                Value::Double(-2.5),
                Value::from("x"),
                Value::Boolean(true),
                Value::Null,
                Value::Null,
            ]
            .iter()
            .map(GroupValue::from_value),
        );
        assert_eq!(set.longs, vec![-1]);
        assert_eq!(set.doubles.len(), 3, "{set:?}");
        assert_eq!(set.others.len(), 3, "{set:?}");
        assert_eq!(set.len(), 7);
        // Raw NaN payloads and `-0.0` fold into the canonical bits.
        let raw = set_of([
            GroupValue::F64((-f64::NAN).to_bits()),
            GroupValue::F64((-0.0f64).to_bits()),
        ]);
        let canonical = set_of([
            GroupValue::F64(f64::NAN.to_bits()),
            GroupValue::F64(0f64.to_bits()),
        ]);
        assert_eq!(raw, canonical);
        let mut empty = DistinctSet::default();
        empty.union(DistinctSet::default());
        assert!(empty.is_empty());
    }

    mod union_prop {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        /// Small domains, so parts overlap, plus the edge values of each kind.
        fn group_value() -> impl Strategy<Value = GroupValue> {
            let doubles = vec![
                0.0,
                -0.0,
                f64::NAN,
                -f64::NAN,
                -1.5,
                2.5,
                f64::INFINITY,
                f64::MIN,
            ];
            prop_oneof![
                (-3i64..3).prop_map(GroupValue::Long),
                prop::sample::select(vec![i64::MIN, i64::MAX]).prop_map(GroupValue::Long),
                prop::sample::select(doubles)
                    .prop_map(|x| GroupValue::from_value(&Value::Double(x))),
                // Raw bit patterns: other NaN payloads and `-0.0` included.
                prop::sample::select(vec![0x8000_0000_0000_0000u64, 0x7ff0_0000_0000_0001, 1])
                    .prop_map(GroupValue::F64),
                "[ab]{0,2}".prop_map(GroupValue::Str),
                any::<bool>().prop_map(GroupValue::Bool),
                Just(GroupValue::Null),
            ]
        }

        fn canonical(v: &GroupValue) -> GroupValue {
            match v {
                GroupValue::F64(bits) => GroupValue::F64(canonical_f64_bits(f64::from_bits(*bits))),
                other => other.clone(),
            }
        }

        fn members(set: &DistinctSet) -> Vec<GroupValue> {
            let longs = set.longs.iter().map(|&x| GroupValue::Long(x));
            let doubles = set.doubles.iter().map(|&b| GroupValue::F64(b));
            longs
                .chain(doubles)
                .chain(set.others.iter().cloned())
                .collect()
        }

        proptest! {
            /// Any split of the values into parts, unioned in any order,
            /// gives the oracle's set and one identical `DistinctSet`.
            #[test]
            fn unions_match_a_btreeset_oracle(
                values in prop::collection::vec(group_value(), 0..60),
                cuts in prop::collection::vec(0usize..60, 0..6),
                order in prop::collection::vec(any::<u32>(), 7),
            ) {
                let oracle: BTreeSet<GroupValue> = values.iter().map(canonical).collect();
                let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(values.len())).collect();
                cuts.push(0);
                cuts.push(values.len());
                cuts.sort_unstable();
                let mut parts: Vec<(u32, DistinctSet)> = cuts
                    .windows(2)
                    .zip(&order)
                    .map(|(w, &k)| (k, set_of(values[w[0]..w[1]].iter().cloned())))
                    .collect();
                parts.sort_by_key(|(k, _)| *k);
                let whole = set_of(values.iter().cloned());

                let mut left = DistinctSet::default();
                for (_, p) in parts.iter().cloned() {
                    left.union(p);
                }
                let mut right = DistinctSet::default();
                for (_, p) in parts.into_iter().rev() {
                    let mut acc = p;
                    acc.union(right);
                    right = acc;
                }
                prop_assert_eq!(&left, &whole);
                prop_assert_eq!(&right, &whole);
                prop_assert_eq!(whole.len(), oracle.len());
                let got: BTreeSet<GroupValue> = members(&whole).into_iter().collect();
                prop_assert_eq!(got, oracle);
            }
        }
    }
}
