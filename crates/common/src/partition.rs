//! Table partitioning: range/hash specs, row routing, and partition pruning.
//!
//! A partitioned table is split on one column into N partitions, each owning
//! its *own* physical design (B+ tree or columnstore primary, independent
//! secondaries) — the paper's hybrid thesis taken one level up: B+ tree on
//! the hot recent range, sorted CSI on cold history. Pruning reuses the same
//! sargable [`Interval`]s the encoded-domain kernels consume: a partition
//! whose value range cannot intersect the predicate's interval is skipped
//! before any I/O happens.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::interval::Bound;
use crate::{HpdError, Interval, Result, Row, Value, ValueRef};

/// How rows map to partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionMethod {
    /// Range partitioning: `bounds[i]` is the *exclusive* upper bound of
    /// partition `i`; partition `bounds.len()` holds everything at or above
    /// the last bound. `k` bounds define `k + 1` partitions.
    Range { bounds: Vec<Value> },
    /// Hash partitioning into a fixed number of partitions with a stable
    /// (cross-run deterministic) hash, so WAL replay routes identically.
    Hash { partitions: usize },
}

/// A table's partitioning declaration: the partition column plus the method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Table ordinal of the partitioning column.
    pub column: usize,
    pub method: PartitionMethod,
}

/// Smallest value strictly above `v`, for discrete types (integers, dates).
/// Continuous and string types have no usable successor.
fn discrete_succ(v: &Value) -> Option<Value> {
    match v {
        Value::Int32(i) => i.checked_add(1).map(Value::Int32),
        Value::Int64(i) => i.checked_add(1).map(Value::Int64),
        Value::Date(d) => d.checked_add(1).map(Value::Date),
        Value::Float64(_) | Value::Decimal(_) | Value::Str(_) => None,
    }
}

/// FNV-1a over the `Hash` impl of [`Value`] — deliberately not
/// `DefaultHasher`, whose algorithm the standard library may change between
/// releases while WAL replay depends on stable routing.
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

impl PartitionSpec {
    pub fn range(column: usize, bounds: Vec<Value>) -> Result<PartitionSpec> {
        if bounds.is_empty() {
            return Err(HpdError::Constraint(
                "range partitioning needs at least one bound".into(),
            ));
        }
        if bounds.windows(2).any(|w| w[0] >= w[1]) {
            return Err(HpdError::Constraint(
                "range partition bounds must be strictly increasing".into(),
            ));
        }
        Ok(PartitionSpec {
            column,
            method: PartitionMethod::Range { bounds },
        })
    }

    pub fn hash(column: usize, partitions: usize) -> Result<PartitionSpec> {
        if partitions < 2 {
            return Err(HpdError::Constraint(
                "hash partitioning needs at least two partitions".into(),
            ));
        }
        Ok(PartitionSpec {
            column,
            method: PartitionMethod::Hash { partitions },
        })
    }

    /// Number of partitions this spec defines.
    pub fn partitions(&self) -> usize {
        match &self.method {
            PartitionMethod::Range { bounds } => bounds.len() + 1,
            PartitionMethod::Hash { partitions } => *partitions,
        }
    }

    /// Partition id of a partition-column value.
    pub fn route_value(&self, v: &Value) -> usize {
        self.route_ref(v.into())
    }

    /// [`PartitionSpec::route_value`] of a value borrowed where it lives
    /// (a load's encoded row): no value is built.
    pub fn route_ref(&self, v: ValueRef<'_>) -> usize {
        match &self.method {
            PartitionMethod::Range { bounds } => {
                // First bound strictly greater than `v`; the last partition
                // is the open tail.
                bounds.partition_point(|b| ValueRef::from(b) <= v)
            }
            PartitionMethod::Hash { partitions } => {
                let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
                v.hash(&mut h);
                (h.finish() % *partitions as u64) as usize
            }
        }
    }

    /// Partition id of a full row.
    pub fn route_row(&self, row: &Row) -> usize {
        self.route_value(&row[self.column])
    }

    /// The half-open value range `[lo, hi)` of a range partition (either end
    /// may be unbounded). Hash partitions have no value range.
    fn range_of(&self, part: usize) -> Option<(Option<&Value>, Option<&Value>)> {
        match &self.method {
            PartitionMethod::Range { bounds } => {
                let lo = if part == 0 {
                    None
                } else {
                    bounds.get(part - 1)
                };
                let hi = bounds.get(part);
                Some((lo, hi))
            }
            PartitionMethod::Hash { .. } => None,
        }
    }

    /// Partition ids that may contain rows satisfying the sargable
    /// `intervals` of a predicate (the output of
    /// [`crate::Expr::column_intervals`]). Partitions not listed are
    /// proven empty of qualifying rows and can be skipped entirely.
    pub fn prune(&self, intervals: &HashMap<usize, Interval>) -> Vec<usize> {
        let n = self.partitions();
        let Some(iv) = intervals.get(&self.column) else {
            return (0..n).collect();
        };
        if iv.is_empty() {
            return Vec::new();
        }
        match &self.method {
            PartitionMethod::Range { .. } => (0..n)
                .filter(|&p| {
                    let (lo, hi) = self.range_of(p).expect("range method");
                    // `iv` must intersect the half-open range [lo, hi).
                    let above_lo = match (lo, &iv.hi) {
                        (None, _) | (_, Bound::Unbounded) => true,
                        (Some(l), Bound::Inclusive(v)) => v >= l,
                        (Some(l), Bound::Exclusive(v)) => v > l,
                    };
                    let below_hi = match (hi, &iv.lo) {
                        (None, _) | (_, Bound::Unbounded) => true,
                        // Partition upper bounds are exclusive, so the
                        // interval must start strictly below them.
                        (Some(h), Bound::Inclusive(v)) => v < h,
                        // An exclusive start on a discrete type really
                        // begins at the successor: `(199, inf)` over
                        // integers cannot reach into a partition topping
                        // out at exclusive 200.
                        (Some(h), Bound::Exclusive(v)) => match discrete_succ(v) {
                            Some(s) => &s < h,
                            None => v < h,
                        },
                    };
                    above_lo && below_hi
                })
                .collect(),
            PartitionMethod::Hash { .. } => {
                // Hash pruning only applies to equality points.
                match (&iv.lo, &iv.hi) {
                    (Bound::Inclusive(a), Bound::Inclusive(b)) if a == b => {
                        vec![self.route_value(a)]
                    }
                    _ => (0..n).collect(),
                }
            }
        }
    }

    /// One-line human description (`EXPLAIN`, the CLI, golden tests).
    pub fn describe(&self) -> String {
        match &self.method {
            PartitionMethod::Range { bounds } => {
                let bs: Vec<String> = bounds.iter().map(|b| format!("{b:?}")).collect();
                format!(
                    "range(col {}) less than ({}) -> {} partitions",
                    self.column,
                    bs.join(", "),
                    self.partitions()
                )
            }
            PartitionMethod::Hash { partitions } => {
                format!("hash(col {}) -> {} partitions", self.column, partitions)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec3() -> PartitionSpec {
        // p0: (-inf, 100)   p1: [100, 200)   p2: [200, +inf)
        PartitionSpec::range(0, vec![Value::Int64(100), Value::Int64(200)]).unwrap()
    }

    #[test]
    fn range_routing_uses_half_open_bounds() {
        let s = spec3();
        assert_eq!(s.partitions(), 3);
        assert_eq!(s.route_value(&Value::Int64(-5)), 0);
        assert_eq!(s.route_value(&Value::Int64(99)), 0);
        assert_eq!(s.route_value(&Value::Int64(100)), 1, "bounds are exclusive");
        assert_eq!(s.route_value(&Value::Int64(199)), 1);
        assert_eq!(s.route_value(&Value::Int64(200)), 2);
        assert_eq!(s.route_value(&Value::Int64(10_000)), 2);
    }

    #[test]
    fn hash_routing_is_stable_and_in_range() {
        let s = PartitionSpec::hash(1, 4).unwrap();
        for i in 0..1000i64 {
            let p = s.route_value(&Value::Int64(i));
            assert!(p < 4);
            assert_eq!(p, s.route_value(&Value::Int64(i)), "routing deterministic");
        }
        // All partitions get some rows for a trivial uniform domain.
        let mut seen = [false; 4];
        for i in 0..1000i64 {
            seen[s.route_value(&Value::Int64(i))] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn a_value_read_from_its_bytes_routes_as_the_value_does() {
        let values = [
            Value::Int32(-7),
            Value::Int64(150),
            Value::Int64(i64::MAX),
            Value::Float64(199.5),
            Value::Decimal(2_000_000),
            Value::Date(120),
            Value::str("héllo"),
            Value::str(""),
        ];
        let mut bytes = Vec::new();
        crate::codec::put_values(&mut bytes, &values);
        let specs = [
            spec3(),
            PartitionSpec::range(0, vec![Value::str("b"), Value::str("m")]).unwrap(),
            PartitionSpec::hash(0, 7).unwrap(),
        ];
        for s in &specs {
            for (v, read) in values.iter().zip(crate::codec::values(&bytes)) {
                assert_eq!(s.route_ref(read), s.route_value(v), "{v:?} under {s:?}");
            }
        }
    }

    #[test]
    fn range_pruning_keeps_only_overlapping_partitions() {
        let s = spec3();
        let iv = |i: Interval| HashMap::from([(0usize, i)]);
        assert_eq!(s.prune(&iv(Interval::point(Value::Int64(150)))), vec![1]);
        assert_eq!(
            s.prune(&iv(Interval::less_than(Value::Int64(100), false))),
            vec![0],
            "interval ending exactly at a bound stays out of the next partition"
        );
        assert_eq!(
            s.prune(&iv(Interval::less_than(Value::Int64(100), true))),
            vec![0, 1],
            "inclusive 100 reaches partition 1"
        );
        assert_eq!(
            s.prune(&iv(Interval::greater_than(Value::Int64(199), false))),
            vec![2],
            "(199, inf) misses p1 whose top is exclusive 200"
        );
        assert_eq!(
            s.prune(&iv(Interval::between(Value::Int64(50), Value::Int64(250)))),
            vec![0, 1, 2]
        );
        assert_eq!(
            s.prune(&HashMap::new()),
            vec![0, 1, 2],
            "no interval on the partition column scans everything"
        );
        assert!(s
            .prune(&iv(Interval::between(Value::Int64(5), Value::Int64(4))))
            .is_empty());
    }

    #[test]
    fn hash_pruning_only_on_points() {
        let s = PartitionSpec::hash(0, 4).unwrap();
        let pt = HashMap::from([(0usize, Interval::point(Value::Int64(7)))]);
        assert_eq!(s.prune(&pt), vec![s.route_value(&Value::Int64(7))]);
        let rng = HashMap::from([(0usize, Interval::between(Value::Int64(0), Value::Int64(10)))]);
        assert_eq!(s.prune(&rng).len(), 4);
    }

    #[test]
    fn spec_validation() {
        assert!(PartitionSpec::range(0, vec![]).is_err());
        assert!(PartitionSpec::range(0, vec![Value::Int64(5), Value::Int64(5)]).is_err());
        assert!(PartitionSpec::hash(0, 1).is_err());
    }
}
