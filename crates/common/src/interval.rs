//! Value intervals extracted from predicates.
//!
//! An [`Interval`] describes the set of values a column may take under a
//! conjunctive predicate. Intervals drive two mechanisms central to the
//! paper: B+ tree *range seeks* (only the qualifying leaf range is read) and
//! columnstore *segment elimination* (segments whose `[min, max]` does not
//! intersect the interval are skipped, §3.2.1).

use std::cmp::Ordering;

use crate::{Value, ValueRef};

/// One endpoint of an interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bound {
    Unbounded,
    Inclusive(Value),
    Exclusive(Value),
}

/// A (possibly half-open) interval over the total order of [`Value`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interval {
    pub lo: Bound,
    pub hi: Bound,
}

impl Interval {
    /// The interval covering all values.
    pub fn all() -> Interval {
        Interval {
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
        }
    }

    /// `[v, v]` — an equality point.
    pub fn point(v: Value) -> Interval {
        Interval {
            lo: Bound::Inclusive(v.clone()),
            hi: Bound::Inclusive(v),
        }
    }

    /// `(-inf, v)` or `(-inf, v]`.
    pub fn less_than(v: Value, inclusive: bool) -> Interval {
        Interval {
            lo: Bound::Unbounded,
            hi: if inclusive {
                Bound::Inclusive(v)
            } else {
                Bound::Exclusive(v)
            },
        }
    }

    /// `(v, +inf)` or `[v, +inf)`.
    pub fn greater_than(v: Value, inclusive: bool) -> Interval {
        Interval {
            lo: if inclusive {
                Bound::Inclusive(v)
            } else {
                Bound::Exclusive(v)
            },
            hi: Bound::Unbounded,
        }
    }

    /// `[lo, hi]` (both inclusive) — SQL `BETWEEN`.
    pub fn between(lo: Value, hi: Value) -> Interval {
        Interval {
            lo: Bound::Inclusive(lo),
            hi: Bound::Inclusive(hi),
        }
    }

    /// True if this interval is unconstrained on both sides.
    pub fn is_all(&self) -> bool {
        self.lo == Bound::Unbounded && self.hi == Bound::Unbounded
    }

    /// True if no value can satisfy the interval.
    pub fn is_empty(&self) -> bool {
        match (&self.lo, &self.hi) {
            (Bound::Inclusive(a), Bound::Inclusive(b)) => a > b,
            (Bound::Inclusive(a), Bound::Exclusive(b))
            | (Bound::Exclusive(a), Bound::Inclusive(b))
            | (Bound::Exclusive(a), Bound::Exclusive(b)) => a >= b,
            _ => false,
        }
    }

    /// True if `v` lies inside the interval.
    pub fn contains(&self, v: &Value) -> bool {
        self.holds(|b| v.cmp(b))
    }

    /// [`Interval::contains`] of a value read in place.
    pub fn contains_ref(&self, v: ValueRef<'_>) -> bool {
        self.holds(|b| v.cmp(&ValueRef::from(b)))
    }

    /// True if the value `cmp` compares with a bound lies inside.
    fn holds(&self, cmp: impl Fn(&Value) -> Ordering) -> bool {
        let lo_ok = match &self.lo {
            Bound::Unbounded => true,
            Bound::Inclusive(b) => cmp(b).is_ge(),
            Bound::Exclusive(b) => cmp(b).is_gt(),
        };
        let hi_ok = match &self.hi {
            Bound::Unbounded => true,
            Bound::Inclusive(b) => cmp(b).is_le(),
            Bound::Exclusive(b) => cmp(b).is_lt(),
        };
        lo_ok && hi_ok
    }

    /// Intersection of two intervals (conjunction of predicates).
    pub fn intersect(&self, other: &Interval) -> Interval {
        fn tighter_lo(a: &Bound, b: &Bound) -> Bound {
            match (a, b) {
                (Bound::Unbounded, x) | (x, Bound::Unbounded) => x.clone(),
                (Bound::Inclusive(x), Bound::Inclusive(y)) => {
                    Bound::Inclusive(std::cmp::max(x, y).clone())
                }
                (Bound::Exclusive(x), Bound::Exclusive(y)) => {
                    Bound::Exclusive(std::cmp::max(x, y).clone())
                }
                (Bound::Inclusive(x), Bound::Exclusive(y))
                | (Bound::Exclusive(y), Bound::Inclusive(x)) => {
                    if y >= x {
                        Bound::Exclusive(y.clone())
                    } else {
                        Bound::Inclusive(x.clone())
                    }
                }
            }
        }
        fn tighter_hi(a: &Bound, b: &Bound) -> Bound {
            match (a, b) {
                (Bound::Unbounded, x) | (x, Bound::Unbounded) => x.clone(),
                (Bound::Inclusive(x), Bound::Inclusive(y)) => {
                    Bound::Inclusive(std::cmp::min(x, y).clone())
                }
                (Bound::Exclusive(x), Bound::Exclusive(y)) => {
                    Bound::Exclusive(std::cmp::min(x, y).clone())
                }
                (Bound::Inclusive(x), Bound::Exclusive(y))
                | (Bound::Exclusive(y), Bound::Inclusive(x)) => {
                    if y <= x {
                        Bound::Exclusive(y.clone())
                    } else {
                        Bound::Inclusive(x.clone())
                    }
                }
            }
        }
        Interval {
            lo: tighter_lo(&self.lo, &other.lo),
            hi: tighter_hi(&self.hi, &other.hi),
        }
    }

    /// True if a range `[min, max]` (both inclusive, e.g. a column segment's
    /// small materialized aggregates) could contain values in this interval.
    pub fn overlaps_range(&self, min: &Value, max: &Value) -> bool {
        let above_lo = match &self.lo {
            Bound::Unbounded => true,
            Bound::Inclusive(b) => max >= b,
            Bound::Exclusive(b) => max > b,
        };
        let below_hi = match &self.hi {
            Bound::Unbounded => true,
            Bound::Inclusive(b) => min <= b,
            Bound::Exclusive(b) => min < b,
        };
        above_lo && below_hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i32v(v: i32) -> Value {
        Value::Int32(v)
    }

    #[test]
    fn contains_respects_bounds() {
        let iv = Interval::between(i32v(10), i32v(20));
        assert!(iv.contains(&i32v(10)));
        assert!(iv.contains(&i32v(20)));
        assert!(!iv.contains(&i32v(9)));
        let half = Interval::less_than(i32v(5), false);
        assert!(half.contains(&i32v(4)));
        assert!(!half.contains(&i32v(5)));
    }

    #[test]
    fn intersect_tightens() {
        let a = Interval::greater_than(i32v(5), true);
        let b = Interval::less_than(i32v(10), false);
        let c = a.intersect(&b);
        assert!(c.contains(&i32v(5)));
        assert!(c.contains(&i32v(9)));
        assert!(!c.contains(&i32v(10)));
    }

    #[test]
    fn intersect_mixed_bound_kinds_at_same_value() {
        let incl = Interval::greater_than(i32v(5), true);
        let excl = Interval::greater_than(i32v(5), false);
        let c = incl.intersect(&excl);
        assert!(!c.contains(&i32v(5)), "exclusive bound wins at equal value");
        assert!(c.contains(&i32v(6)));
    }

    #[test]
    fn emptiness() {
        assert!(Interval::between(i32v(5), i32v(4)).is_empty());
        assert!(!Interval::point(i32v(5)).is_empty());
        let e =
            Interval::greater_than(i32v(5), false).intersect(&Interval::less_than(i32v(5), true));
        assert!(e.is_empty());
    }

    #[test]
    fn segment_overlap() {
        let iv = Interval::less_than(i32v(100), false);
        assert!(iv.overlaps_range(&i32v(0), &i32v(50)));
        assert!(iv.overlaps_range(&i32v(50), &i32v(150)));
        assert!(!iv.overlaps_range(&i32v(100), &i32v(200)));
        let pt = Interval::point(i32v(42));
        assert!(pt.overlaps_range(&i32v(0), &i32v(42)));
        assert!(!pt.overlaps_range(&i32v(43), &i32v(99)));
    }
}
