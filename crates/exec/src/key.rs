//! Hashable group-by keys.
//!
//! `Value` is only `PartialEq` (floats), so group-by maps key on
//! [`GroupValue`], a canonical, hashable projection of scalar values.
//! Floats key on their bit pattern under total order (NaN groups with NaN).

use pinot_common::Value;

/// One group-by key component.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GroupValue {
    Long(i64),
    Str(String),
    Bool(bool),
    /// f64 keyed by its total-order bit pattern.
    F64(u64),
    #[default]
    Null,
}

impl GroupValue {
    pub fn from_value(v: &Value) -> GroupValue {
        match v {
            Value::Int(x) => GroupValue::Long(*x as i64),
            Value::Long(x) => GroupValue::Long(*x),
            Value::Float(x) => GroupValue::F64(canonical_f64_bits(*x as f64)),
            Value::Double(x) => GroupValue::F64(canonical_f64_bits(*x)),
            Value::String(s) => GroupValue::Str(s.clone()),
            Value::Boolean(b) => GroupValue::Bool(*b),
            // Multi-value cells are exploded before keying; a whole-array
            // key would be a bug upstream.
            Value::IntArray(_) | Value::LongArray(_) | Value::StringArray(_) => {
                GroupValue::Str(v.to_string())
            }
            Value::Null => GroupValue::Null,
        }
    }

    pub fn to_value(&self) -> Value {
        match self {
            GroupValue::Long(x) => Value::Long(*x),
            GroupValue::Str(s) => Value::String(s.clone()),
            GroupValue::Bool(b) => Value::Boolean(*b),
            GroupValue::F64(bits) => Value::Double(f64::from_bits(*bits)),
            GroupValue::Null => Value::Null,
        }
    }
}

pub(crate) fn canonical_f64_bits(x: f64) -> u64 {
    // Collapse all NaNs and the two zeros so equal-looking values group
    // together.
    if x.is_nan() {
        f64::NAN.to_bits()
    } else if x == 0.0 {
        0f64.to_bits()
    } else {
        x.to_bits()
    }
}

/// A full group-by key (one component per group column).
pub type GroupKey = Vec<GroupValue>;

/// Build a key from values.
pub fn key_of(values: &[Value]) -> GroupKey {
    values.iter().map(GroupValue::from_value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn round_trip() {
        for v in [
            Value::Long(5),
            Value::String("x".into()),
            Value::Boolean(true),
            Value::Double(2.5),
        ] {
            assert_eq!(GroupValue::from_value(&v).to_value(), v);
        }
        // Int widens to Long on the way back (canonical form).
        assert_eq!(
            GroupValue::from_value(&Value::Int(3)).to_value(),
            Value::Long(3)
        );
    }

    #[test]
    fn zeros_and_nans_group_together() {
        let a = GroupValue::from_value(&Value::Double(0.0));
        let b = GroupValue::from_value(&Value::Double(-0.0));
        assert_eq!(a, b);
        let n1 = GroupValue::from_value(&Value::Double(f64::NAN));
        let n2 = GroupValue::from_value(&Value::Double(-f64::NAN));
        assert_eq!(n1, n2);
    }

    #[test]
    fn keys_are_hashable_and_distinct() {
        let mut set = HashSet::new();
        set.insert(key_of(&[Value::Long(1), Value::from("a")]));
        set.insert(key_of(&[Value::Long(1), Value::from("b")]));
        set.insert(key_of(&[Value::Long(1), Value::from("a")]));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn int_and_long_same_key() {
        assert_eq!(
            GroupValue::from_value(&Value::Int(7)),
            GroupValue::from_value(&Value::Long(7))
        );
    }
}
