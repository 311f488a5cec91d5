//! The scalar type system: [`DataType`] and [`Value`].
//!
//! Values have a *total* order (floats compare via `total_cmp`) so that they
//! can serve as B+ tree keys and sort keys without panics. Columns in this
//! workspace are non-nullable: the paper's experiments never exercise NULL
//! semantics, and keeping values total simplifies every index invariant.

use std::fmt;

use crate::ArcStr;

/// The data types supported by the engine.
///
/// `Date` is stored as days since 1970-01-01 (like an `i32` with calendar
/// helpers); `Decimal` is a fixed-point `i64` scaled by 10^4, which covers the
/// TPC-H money columns (`l_extendedprice`, `l_discount`) without float drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int32,
    Int64,
    Float64,
    /// Fixed-point decimal with 4 fractional digits, stored as `i64`.
    Decimal,
    /// Days since the Unix epoch.
    Date,
    Utf8,
}

impl DataType {
    /// Uncompressed width in bytes of one value of this type, as charged by
    /// the storage simulator. Strings are charged their actual length plus a
    /// 2-byte length prefix at the call sites that can see the value; this
    /// method returns the fixed-width estimate used for planning.
    pub fn fixed_width(self) -> usize {
        match self {
            DataType::Int32 | DataType::Date => 4,
            DataType::Int64 | DataType::Decimal | DataType::Float64 => 8,
            // Planning estimate for variable-length strings.
            DataType::Utf8 => 16,
        }
    }

    /// True if SQL Server-style columnstore indexes can contain this type.
    ///
    /// The paper (§4.3) notes that some column data types cannot be included
    /// in a columnstore index, which forces the advisor to fall back to a
    /// secondary CSI excluding them. We model that restriction with a
    /// blocked-type hook; by default every type here is eligible, and the
    /// workload generators mark specific columns as CSI-ineligible through
    /// [`crate::ColumnDef::csi_eligible`].
    pub fn csi_supported(self) -> bool {
        true
    }

    /// Short lowercase name used in plan printouts.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int32 => "int32",
            DataType::Int64 => "int64",
            DataType::Float64 => "float64",
            DataType::Decimal => "decimal",
            DataType::Date => "date",
            DataType::Utf8 => "utf8",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single scalar value.
///
/// `Value` implements `Ord` with a *total* order so it can be used directly
/// as a key in B+ trees, sorts, and aggregation hash tables. Values of
/// different types order by type tag first; well-typed plans never compare
/// across types, but the total order keeps data-structure invariants safe
/// even under adversarial property tests.
///
/// Sixteen bytes: a tag and one word, a string's being a thin [`ArcStr`].
#[derive(Debug, Clone)]
pub enum Value {
    Int32(i32),
    Int64(i64),
    Float64(f64),
    /// Fixed-point decimal: `raw / 10_000`.
    Decimal(i64),
    /// Days since the Unix epoch.
    Date(i32),
    Str(ArcStr),
}

/// A decimal's unit as a float: `Value::Decimal(raw)` is
/// `raw / DECIMAL_UNIT`.
pub const DECIMAL_UNIT: f64 = 10_000.0;

impl Value {
    /// Construct a decimal from a float, rounding to 4 fractional digits.
    pub fn decimal_from_f64(v: f64) -> Value {
        Value::Decimal((v * DECIMAL_UNIT).round() as i64)
    }

    /// Construct a string value.
    pub fn str(s: impl Into<ArcStr>) -> Value {
        Value::Str(s.into())
    }

    /// A value that compares greater than or equal to every value the
    /// workloads produce: strings have the highest type rank, and this is a
    /// run of the maximum code point. Used to form upper bounds on
    /// composite-key prefixes (`[v, +∞)` seeks).
    pub fn sentinel_max() -> Value {
        Value::Str(ArcStr::new("\u{10FFFF}\u{10FFFF}\u{10FFFF}\u{10FFFF}"))
    }

    pub fn data_type(&self) -> DataType {
        match self {
            Value::Int32(_) => DataType::Int32,
            Value::Int64(_) => DataType::Int64,
            Value::Float64(_) => DataType::Float64,
            Value::Decimal(_) => DataType::Decimal,
            Value::Date(_) => DataType::Date,
            Value::Str(_) => DataType::Utf8,
        }
    }

    pub fn as_i32(&self) -> Option<i32> {
        match self {
            Value::Int32(v) => Some(*v),
            Value::Date(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int32(v) => Some(i64::from(*v)),
            Value::Int64(v) => Some(*v),
            Value::Date(v) => Some(i64::from(*v)),
            Value::Decimal(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int32(v) => Some(f64::from(*v)),
            Value::Int64(v) => Some(*v as f64),
            Value::Float64(v) => Some(*v),
            Value::Decimal(v) => Some(*v as f64 / DECIMAL_UNIT),
            Value::Date(v) => Some(f64::from(*v)),
            Value::Str(_) => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Actual in-memory byte footprint of this value (used for memory-grant
    /// accounting and size estimation).
    pub fn byte_width(&self) -> usize {
        match self {
            Value::Str(s) => 2 + s.len(),
            other => other.data_type().fixed_width(),
        }
    }

    /// Numeric addition used by SUM/AVG aggregates; integers stay integral,
    /// decimals stay fixed-point, anything involving a float becomes a float.
    pub fn checked_add(&self, other: &Value) -> Option<Value> {
        match (self, other) {
            (Value::Int32(a), Value::Int32(b)) => Some(Value::Int64(i64::from(*a) + i64::from(*b))),
            (Value::Int64(a), Value::Int64(b)) => a.checked_add(*b).map(Value::Int64),
            (Value::Int64(a), Value::Int32(b)) | (Value::Int32(b), Value::Int64(a)) => {
                a.checked_add(i64::from(*b)).map(Value::Int64)
            }
            (Value::Decimal(a), Value::Decimal(b)) => a.checked_add(*b).map(Value::Decimal),
            (a, b) => Some(Value::Float64(a.as_f64()? + b.as_f64()?)),
        }
    }

    /// Convert this value to the given type when a lossless (or standard
    /// numeric) conversion exists. Used to coerce computed UPDATE values
    /// back to their column types.
    pub fn coerce_to(&self, dtype: DataType) -> Option<Value> {
        if self.data_type() == dtype {
            return Some(self.clone());
        }
        match dtype {
            DataType::Int32 => i32::try_from(self.as_i64()?).ok().map(Value::Int32),
            DataType::Date => i32::try_from(self.as_i64()?).ok().map(Value::Date),
            DataType::Int64 => self.as_i64().map(Value::Int64),
            DataType::Float64 => self.as_f64().map(Value::Float64),
            DataType::Decimal => match self {
                Value::Int32(v) => Some(Value::Decimal(i64::from(*v) * 10_000)),
                Value::Int64(v) => v.checked_mul(10_000).map(Value::Decimal),
                Value::Float64(v) => Some(Value::decimal_from_f64(*v)),
                _ => None,
            },
            DataType::Utf8 => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Value {}

// `Ord` is in `crate::codec`, beside the same order on encoded values.
impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Hashed as its [`crate::ValueRef`] is, so a value and its encoded bytes
/// hash (and route to a hash partition) alike.
impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        crate::ValueRef::from(self).hash(state);
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int32(v) => write!(f, "{v}"),
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Decimal(v) => {
                let sign = if *v < 0 { "-" } else { "" };
                let abs = v.unsigned_abs();
                write!(f, "{sign}{}.{:04}", abs / 10_000, abs % 10_000)
            }
            Value::Date(v) => write!(f, "date({v})"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int32(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(ArcStr::new(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_on_floats() {
        let nan = Value::Float64(f64::NAN);
        let one = Value::Float64(1.0);
        // total_cmp places NaN above all numbers; the key property is that
        // comparison never panics and is consistent.
        assert_eq!(nan.cmp(&nan), std::cmp::Ordering::Equal);
        assert!(nan > one);
    }

    #[test]
    fn mixed_numeric_comparisons() {
        assert!(Value::Int32(3) < Value::Int64(4));
        assert!(Value::Int64(4) > Value::Int32(3));
        assert_eq!(Value::Int32(5), Value::Int64(5));
        assert!(Value::Int32(2) < Value::Float64(2.5));
        assert!(Value::Float64(2.5) > Value::Int64(2));
    }

    #[test]
    fn decimal_round_trip_and_display() {
        let v = Value::decimal_from_f64(12.3456);
        assert_eq!(v, Value::Decimal(123_456));
        assert_eq!(v.to_string(), "12.3456");
        assert_eq!(v.as_f64(), Some(12.3456));
        assert_eq!(Value::Decimal(-5000).to_string(), "-0.5000");
    }

    #[test]
    fn checked_add_type_rules() {
        assert_eq!(
            Value::Int32(1).checked_add(&Value::Int32(2)),
            Some(Value::Int64(3))
        );
        assert_eq!(
            Value::Decimal(10_000).checked_add(&Value::Decimal(5_000)),
            Some(Value::Decimal(15_000))
        );
        assert_eq!(
            Value::Int64(i64::MAX).checked_add(&Value::Int64(1)),
            None,
            "overflow must be detected"
        );
        match Value::Float64(1.5).checked_add(&Value::Int32(1)) {
            Some(Value::Float64(v)) => assert_eq!(v, 2.5),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn byte_width_accounts_for_strings() {
        assert_eq!(Value::Int32(0).byte_width(), 4);
        assert_eq!(Value::str("abcd").byte_width(), 6);
    }

    #[test]
    fn hash_consistent_with_eq_across_int_widths() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(Value::Int32(42), Value::Int64(42));
        assert_eq!(h(&Value::Int32(42)), h(&Value::Int64(42)));
    }
}
