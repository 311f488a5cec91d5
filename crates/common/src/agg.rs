//! Aggregates: the functions ([`AggFunc`]) and the one accumulator that
//! folds them ([`Acc`]). The hash aggregate, the streaming aggregate and the
//! columnstore's encoded fold all accumulate and finish here, so no two
//! physical designs can answer an aggregate differently.
//!
//! The rules: integer, date and decimal sums accumulate in `i128` and are
//! range-checked once, at the end, so only a *total* outside `i64` is an
//! overflow, whatever order the rows arrive in; float sums (and AVG's
//! numerator) add in arrival order; MIN and MAX keep a value of the input's
//! own type, ordered as `Value` orders it (floats by `total_cmp`); AVG is
//! its float sum over its count; and a group no row reached is
//! [`AggFunc::empty_value`].

use std::cmp::Ordering;

use crate::{ColumnVector, DataType, HpdError, Result, Value, DECIMAL_UNIT};

/// Aggregate functions supported by the executors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }

    /// Type of the aggregate's result over an input of type `input`: what
    /// the optimizer declares, every aggregate operator emits and the
    /// pushed-down fold returns. (`SUM` over `Utf8` is refused when the
    /// aggregate is built; nominally it has its input's type.)
    pub fn result_type(self, input: DataType) -> DataType {
        match self {
            AggFunc::Count => DataType::Int64,
            AggFunc::Avg => DataType::Float64,
            AggFunc::Min | AggFunc::Max => input,
            AggFunc::Sum => match input {
                DataType::Int32 | DataType::Int64 | DataType::Date => DataType::Int64,
                DataType::Decimal | DataType::Float64 | DataType::Utf8 => input,
            },
        }
    }

    /// The aggregate over no rows, given its [`AggFunc::result_type`]: the
    /// zero of that type — this engine has no NULLs, so an empty `MIN` or
    /// `MAX` answers it too.
    pub fn empty_value(result: DataType) -> Value {
        match result {
            DataType::Int32 => Value::Int32(0),
            DataType::Int64 => Value::Int64(0),
            DataType::Float64 => Value::Float64(0.0),
            DataType::Decimal => Value::Decimal(0),
            DataType::Date => Value::Date(0),
            DataType::Utf8 => Value::str(""),
        }
    }
}

/// Some rows of one column as a compressed segment answers for them without
/// decoding them, for [`Acc::fold_summary`]: an accumulator asks only what
/// its function needs.
pub trait Summary {
    /// How many rows.
    fn rows(&self) -> usize;
    /// Their total (asked of integer-family columns only).
    fn int_total(&self) -> i128;
    /// Each value as `Value::as_f64` has it, in row order.
    fn for_each_f64(&self, f: impl FnMut(f64));
    /// The least and the greatest value; `None` for no rows.
    fn min_max(&self) -> Option<(Value, Value)>;
}

/// The state of one aggregate for every group of an aggregation, a typed
/// vector indexed by group id.
#[derive(Debug)]
pub struct Acc(State);

#[derive(Debug)]
enum State {
    Count(Vec<i64>),
    /// SUM over integers, dates and decimals.
    SumInt(Vec<i128>),
    SumFloat(Vec<f64>),
    Avg {
        sums: Vec<f64>,
        counts: Vec<i64>,
    },
    /// MIN (`want` = `Less`) or MAX (`Greater`): the best value so far, in
    /// the input's own type. A group's first row fills it, so a group no row
    /// reached holds none.
    Extreme {
        best: ColumnVector,
        want: Ordering,
    },
}

fn wrong_input(expected: &'static str, col: &ColumnVector) -> HpdError {
    HpdError::TypeMismatch {
        expected,
        found: col.data_type().name().to_string(),
    }
}

impl Acc {
    /// An accumulator of no groups for `func` over a column of `input_type`.
    pub fn new(func: AggFunc, input_type: DataType) -> Result<Acc> {
        Ok(Acc(match func {
            AggFunc::Count => State::Count(Vec::new()),
            AggFunc::Avg => State::Avg {
                sums: Vec::new(),
                counts: Vec::new(),
            },
            AggFunc::Min | AggFunc::Max => State::Extreme {
                best: ColumnVector::with_capacity(input_type, 0),
                want: if func == AggFunc::Min {
                    Ordering::Less
                } else {
                    Ordering::Greater
                },
            },
            AggFunc::Sum => match input_type {
                DataType::Int32 | DataType::Int64 | DataType::Date | DataType::Decimal => {
                    State::SumInt(Vec::new())
                }
                DataType::Float64 => State::SumFloat(Vec::new()),
                DataType::Utf8 => {
                    return Err(HpdError::InvalidQuery("SUM over a string column".into()))
                }
            },
        }))
    }

    /// The groups that hold a state.
    fn len(&self) -> usize {
        match &self.0 {
            State::Count(v) => v.len(),
            State::SumInt(v) => v.len(),
            State::SumFloat(v) | State::Avg { sums: v, .. } => v.len(),
            State::Extreme { best, .. } => best.len(),
        }
    }

    /// Fold `col` into the groups `gids` names, row by row. The groups from
    /// `groups - first_rows.len()` on are new, first seen at rows
    /// `first_rows` of `col`.
    pub fn fold(
        &mut self,
        col: &ColumnVector,
        gids: &[u32],
        first_rows: &[usize],
        groups: usize,
    ) -> Result<()> {
        fn each<T: Copy>(vals: &[T], gids: &[u32], mut f: impl FnMut(usize, T)) {
            vals.iter().zip(gids).for_each(|(&v, &g)| f(g as usize, v));
        }
        fn extreme<T: Clone>(
            best: &mut Vec<T>,
            vals: &[T],
            gids: &[u32],
            first_rows: &[usize],
            better: impl Fn(&T, &T) -> bool,
        ) {
            best.extend(first_rows.iter().map(|&r| vals[r].clone()));
            for (v, &g) in vals.iter().zip(gids) {
                if better(v, &best[g as usize]) {
                    best[g as usize] = v.clone();
                }
            }
        }
        debug_assert_eq!(col.len(), gids.len());
        match &mut self.0 {
            State::Count(counts) => {
                counts.resize(groups, 0);
                gids.iter().for_each(|&g| counts[g as usize] += 1);
            }
            State::SumInt(totals) => {
                totals.resize(groups, 0);
                match col {
                    ColumnVector::Int32(v) | ColumnVector::Date(v) => {
                        each(v, gids, |g, x| totals[g] += i128::from(x))
                    }
                    ColumnVector::Int64(v) | ColumnVector::Decimal(v) => {
                        each(v, gids, |g, x| totals[g] += i128::from(x))
                    }
                    other => return Err(wrong_input("integer", other)),
                }
            }
            State::SumFloat(sums) => {
                sums.resize(groups, 0.0);
                match col {
                    ColumnVector::Float64(v) => each(v, gids, |g, x| sums[g] += x),
                    other => return Err(wrong_input("numeric", other)),
                }
            }
            State::Avg { sums, counts } => {
                sums.resize(groups, 0.0);
                counts.resize(groups, 0);
                gids.iter().for_each(|&g| counts[g as usize] += 1);
                // `Value::as_f64`, a column at a time.
                match col {
                    ColumnVector::Int32(v) | ColumnVector::Date(v) => {
                        each(v, gids, |g, x| sums[g] += f64::from(x))
                    }
                    ColumnVector::Int64(v) => each(v, gids, |g, x| sums[g] += x as f64),
                    ColumnVector::Decimal(v) => {
                        each(v, gids, |g, x| sums[g] += x as f64 / DECIMAL_UNIT)
                    }
                    ColumnVector::Float64(v) => each(v, gids, |g, x| sums[g] += x),
                    other => return Err(wrong_input("numeric", other)),
                }
            }
            // `Value`'s order within a type: floats by `total_cmp`.
            State::Extreme { best, want } => {
                let want = *want;
                match (best, col) {
                    (ColumnVector::Int32(b), ColumnVector::Int32(v))
                    | (ColumnVector::Date(b), ColumnVector::Date(v)) => {
                        extreme(b, v, gids, first_rows, |x, y| x.cmp(y) == want)
                    }
                    (ColumnVector::Int64(b), ColumnVector::Int64(v))
                    | (ColumnVector::Decimal(b), ColumnVector::Decimal(v)) => {
                        extreme(b, v, gids, first_rows, |x, y| x.cmp(y) == want)
                    }
                    (ColumnVector::Float64(b), ColumnVector::Float64(v)) => {
                        extreme(b, v, gids, first_rows, |x, y| x.total_cmp(y) == want)
                    }
                    (ColumnVector::Str(b), ColumnVector::Str(v)) => {
                        extreme(b, v, gids, first_rows, |x, y| x.cmp(y) == want)
                    }
                    (best, other) => return Err(wrong_input(best.data_type().name(), other)),
                }
            }
        }
        Ok(())
    }

    /// Fold every row of `col` into group 0, the one group of a global
    /// aggregate.
    pub fn fold_all(&mut self, col: &ColumnVector) -> Result<()> {
        let first: &[usize] = if self.len() == 0 && !col.is_empty() {
            &[0]
        } else {
            &[]
        };
        self.fold(col, &vec![0; col.len()], first, 1)
    }

    /// Fold the rows `rows` summarises into group 0, the one group of a
    /// global aggregate.
    pub fn fold_summary(&mut self, rows: &impl Summary) -> Result<()> {
        match &mut self.0 {
            State::Count(counts) => {
                counts.resize(1, 0);
                counts[0] += rows.rows() as i64;
            }
            State::SumInt(totals) => {
                totals.resize(1, 0);
                totals[0] += rows.int_total();
            }
            State::SumFloat(sums) => {
                sums.resize(1, 0.0);
                rows.for_each_f64(|x| sums[0] += x);
            }
            State::Avg { sums, counts } => {
                sums.resize(1, 0.0);
                counts.resize(1, 0);
                rows.for_each_f64(|x| sums[0] += x);
                counts[0] += rows.rows() as i64;
            }
            State::Extreme { best, want } => {
                if let Some((lo, hi)) = rows.min_max() {
                    let v = if *want == Ordering::Less { lo } else { hi };
                    if best.is_empty() || v.cmp(&best.value(0)) == *want {
                        *best = ColumnVector::from_values(best.data_type(), &[v])?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Split the groups from `at` on off into an accumulator of their own,
    /// numbered from 0.
    pub fn split_off(&mut self, at: usize) -> Acc {
        Acc(match &mut self.0 {
            State::Count(v) => State::Count(v.split_off(at)),
            State::SumInt(v) => State::SumInt(v.split_off(at)),
            State::SumFloat(v) => State::SumFloat(v.split_off(at)),
            State::Avg { sums, counts } => State::Avg {
                sums: sums.split_off(at),
                counts: counts.split_off(at),
            },
            State::Extreme { best, want } => State::Extreme {
                best: best.split_off(at),
                want: *want,
            },
        })
    }

    /// The aggregate's output column of type `out_type`, one value for each
    /// of `groups` groups; a group no row reached is
    /// [`AggFunc::empty_value`].
    pub fn finish(self, out_type: DataType, groups: usize) -> Result<ColumnVector> {
        let mut col = match self.0 {
            State::Count(counts) => ColumnVector::Int64(counts),
            State::SumInt(totals) => {
                let totals = totals
                    .into_iter()
                    .map(|s| {
                        i64::try_from(s).map_err(|_| HpdError::Internal("SUM overflow".into()))
                    })
                    .collect::<Result<Vec<i64>>>()?;
                match out_type {
                    DataType::Decimal => ColumnVector::Decimal(totals),
                    _ => ColumnVector::Int64(totals),
                }
            }
            State::SumFloat(sums) => ColumnVector::Float64(sums),
            State::Avg { sums, counts } => ColumnVector::Float64(
                sums.iter()
                    .zip(&counts)
                    .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
                    .collect(),
            ),
            State::Extreme { best, .. } => best,
        };
        while col.len() < groups {
            col.push(&AggFunc::empty_value(out_type))?;
        }
        Ok(col)
    }
}
