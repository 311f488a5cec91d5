//! Table and column statistics for the cost model.
//!
//! Statistics are computed by a full pass at `analyze` time (our tables are
//! laptop-scale; SQL Server would sample). Per column we keep min/max,
//! distinct count, an equi-depth histogram, and a *clustering fraction* —
//! the average fraction of the column's value domain spanned by each
//! arrival-order block, which predicts how well columnstore segment
//! elimination will work (≈0 for data sorted on that column, ≈1 for random
//! arrival order).

use hpd_common::{
    codec, ColumnVector, DataType, HpdError, Interval, PartitionSpec, Result, Row, Schema, Value,
    ValueRef, DECIMAL_UNIT,
};
use hpd_wal::EncodedRows;

/// Number of histogram buckets.
const BUCKETS: usize = 64;

/// Statistics for one column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    pub min: Option<Value>,
    pub max: Option<Value>,
    pub distinct: usize,
    /// Equi-depth bucket upper bounds (ascending); each bucket holds
    /// ~rows/BUCKETS rows.
    pub bucket_bounds: Vec<Value>,
    /// Average per-block fraction of the value domain (see module docs).
    pub clustering_fraction: f64,
    /// Bytes the column's values encode to ([`codec::put_value`]), summed
    /// over every row: what a B+ tree build reserves its run by.
    pub encoded_bytes: usize,
}

/// One column in arrival order, typed: 4 or 8 bytes a value, a string as the
/// `&str` it was read as (out of the load's record, or the vector that owns
/// it) — sorted as machine values and not as 16-byte tagged `Value`s.
enum Gathered<'a> {
    Int32(Vec<i32>),
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Decimal(Vec<i64>),
    Date(Vec<i32>),
    Str(Vec<&'a str>),
}

impl<'a> Gathered<'a> {
    fn with_capacity(dtype: DataType, cap: usize) -> Gathered<'a> {
        match dtype {
            DataType::Int32 => Gathered::Int32(Vec::with_capacity(cap)),
            DataType::Int64 => Gathered::Int64(Vec::with_capacity(cap)),
            DataType::Float64 => Gathered::Float64(Vec::with_capacity(cap)),
            DataType::Decimal => Gathered::Decimal(Vec::with_capacity(cap)),
            DataType::Date => Gathered::Date(Vec::with_capacity(cap)),
            DataType::Utf8 => Gathered::Str(Vec::with_capacity(cap)),
        }
    }

    /// Append a value; false (and nothing appended) if it is of another type.
    fn push(&mut self, v: ValueRef<'a>) -> bool {
        match (self, v) {
            (Gathered::Int32(vec), ValueRef::Int32(x)) => vec.push(x),
            (Gathered::Int64(vec), ValueRef::Int64(x)) => vec.push(x),
            (Gathered::Float64(vec), ValueRef::Float64(x)) => vec.push(x),
            (Gathered::Decimal(vec), ValueRef::Decimal(x)) => vec.push(x),
            (Gathered::Date(vec), ValueRef::Date(x)) => vec.push(x),
            (Gathered::Str(vec), ValueRef::Str(x)) => vec.push(x),
            _ => return false,
        }
        true
    }

    /// Statistics of the column, which is not empty; `block_rows` is the
    /// block size for the clustering fraction.
    fn stats(self, block_rows: usize) -> ColumnStats {
        // What `Value::as_f64` and `Value::cmp` answer for each type.
        match self {
            Gathered::Int32(v) => {
                ColumnStats::of(v, block_rows, |x| x.into(), i32::cmp, Value::Int32)
            }
            Gathered::Int64(v) => {
                ColumnStats::of(v, block_rows, |x| x as f64, i64::cmp, Value::Int64)
            }
            Gathered::Float64(v) => {
                ColumnStats::of(v, block_rows, |x| x, f64::total_cmp, Value::Float64)
            }
            Gathered::Decimal(v) => {
                let as_f64 = |x| x as f64 / DECIMAL_UNIT;
                ColumnStats::of(v, block_rows, as_f64, i64::cmp, Value::Decimal)
            }
            Gathered::Date(v) => {
                ColumnStats::of(v, block_rows, |x| x.into(), i32::cmp, Value::Date)
            }
            Gathered::Str(v) => {
                ColumnStats::of(v, block_rows, |_| 0.0, |a, b| a.cmp(b), Value::str)
            }
        }
    }
}

impl ColumnStats {
    /// Statistics of a non-empty column held in arrival order: its
    /// clustering fraction from `as_f64` of each value, the rest from the
    /// column sorted by `cmp`; `value` boxes the few values kept.
    fn of<T: Copy>(
        mut column: Vec<T>,
        block_rows: usize,
        as_f64: impl Fn(T) -> f64,
        cmp: impl Fn(&T, &T) -> std::cmp::Ordering,
        value: impl Fn(T) -> Value,
    ) -> Self {
        let n = column.len();
        // Clustering fraction from arrival-order blocks, before sorting.
        let clustering_fraction = clustering_fraction(n, block_rows, |i| as_f64(column[i]));
        column.sort_unstable_by(&cmp);
        let distinct = 1
            + (column.windows(2))
                .filter(|w| cmp(&w[0], &w[1]).is_ne())
                .count();
        // Equal bounds are dropped before they are boxed (a string's box is
        // an allocation).
        let mut bounds: Vec<T> = (1..=BUCKETS)
            .map(|b| column[(b * n / BUCKETS).saturating_sub(1)])
            .collect();
        bounds.dedup_by(|b, a| cmp(a, b).is_eq());
        let bucket_bounds = bounds.into_iter().map(&value).collect();
        ColumnStats {
            min: Some(value(column[0])),
            max: Some(value(column[n - 1])),
            distinct,
            bucket_bounds,
            clustering_fraction,
            encoded_bytes: 0,
        }
    }

    /// Statistics of a non-empty column held as a typed vector in arrival
    /// order.
    fn of_typed(typed: ColumnVector, block_rows: usize) -> Self {
        let strings;
        let gathered = match typed {
            ColumnVector::Int32(v) => Gathered::Int32(v),
            ColumnVector::Int64(v) => Gathered::Int64(v),
            ColumnVector::Float64(v) => Gathered::Float64(v),
            ColumnVector::Decimal(v) => Gathered::Decimal(v),
            ColumnVector::Date(v) => Gathered::Date(v),
            ColumnVector::Str(v) => {
                strings = v;
                Gathered::Str(strings.iter().map(|s| &**s).collect())
            }
        };
        gathered.stats(block_rows)
    }

    /// Estimated fraction of rows with values in `interval` (0..=1).
    pub fn selectivity(&self, interval: &Interval, rows: usize) -> f64 {
        if rows == 0 {
            return 0.0;
        }
        if interval.is_all() {
            return 1.0;
        }
        if interval.is_empty() {
            return 0.0;
        }
        // Point predicate: 1/distinct.
        if let (
            hpd_common::interval::Bound::Inclusive(a),
            hpd_common::interval::Bound::Inclusive(b),
        ) = (&interval.lo, &interval.hi)
        {
            if a == b {
                return if self
                    .min
                    .as_ref()
                    .zip(self.max.as_ref())
                    .is_some_and(|(mn, mx)| a >= mn && a <= mx)
                {
                    1.0 / self.distinct.max(1) as f64
                } else {
                    0.0
                };
            }
        }
        if self.bucket_bounds.is_empty() {
            return 0.5;
        }
        // Sum each bucket's share of the interval. A bucket holds the values
        // above the previous bound up to its own, the first one from the
        // column's minimum. On a numeric domain its share is the part of
        // those values the interval holds; a string bucket gets full credit
        // when both its bounds are inside, partial credit at a boundary.
        let mut covered = 0.0;
        let mut prev: Option<&Value> = None;
        for b in &self.bucket_bounds {
            let share = match (prev, &self.min) {
                (Some(p), _) => value_share(interval, p, false, b),
                (None, Some(min)) => value_share(interval, min, true, b),
                (None, None) => None,
            };
            covered += share.unwrap_or_else(|| {
                let hi_in = interval.contains(b);
                let lo_in = prev.map(|p| interval.contains(p)).unwrap_or(hi_in);
                match (lo_in, hi_in) {
                    (true, true) => 1.0,
                    // The interval may be strictly inside this bucket.
                    (false, false) => match prev {
                        Some(p) if interval.overlaps_range(p, b) => 0.3,
                        _ => 0.0,
                    },
                    _ => 0.5,
                }
            });
            prev = Some(b);
        }
        (covered / self.bucket_bounds.len() as f64).clamp(0.0, 1.0)
    }
}

/// The share of a bucket's values that `interval` holds, the bucket being
/// the values above `lo` (from it, if `lo_included`) up to `hi`, on an
/// ordered numeric domain: integers, dates and decimals counted in their
/// units, floats measured by length. `None` on strings, or where a bound is
/// of another type than the column.
fn value_share(interval: &Interval, lo: &Value, lo_included: bool, hi: &Value) -> Option<f64> {
    use hpd_common::interval::Bound;
    let (dtype, step) = match hi.data_type() {
        DataType::Utf8 => return None,
        DataType::Float64 => (DataType::Float64, 0.0),
        dtype => (dtype, 1.0),
    };
    let at = |v: &Value| match v {
        _ if v.data_type() != dtype => None,
        Value::Float64(x) => Some(*x),
        _ => v.as_i64().map(|x| x as f64),
    };
    let first = at(lo)? + if lo_included { 0.0 } else { step };
    let last = at(hi)?;
    let from = match &interval.lo {
        Bound::Unbounded => f64::NEG_INFINITY,
        Bound::Inclusive(v) => at(v)?,
        Bound::Exclusive(v) => at(v)? + step,
    };
    let to = match &interval.hi {
        Bound::Unbounded => f64::INFINITY,
        Bound::Inclusive(v) => at(v)?,
        Bound::Exclusive(v) => at(v)? - step,
    };
    let width = last - first + step;
    if width <= 0.0 {
        // A float bucket of one value.
        return Some(if interval.contains(hi) { 1.0 } else { 0.0 });
    }
    let overlap = to.min(last) - from.max(first) + step;
    Some((overlap / width).clamp(0.0, 1.0))
}

/// Statistics for a whole table.
#[derive(Debug, Clone)]
pub struct TableStats {
    pub rows: usize,
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Empty-table stats with the right arity.
    pub fn empty(n_columns: usize) -> TableStats {
        TableStats {
            rows: 0,
            columns: (0..n_columns)
                .map(|_| ColumnStats {
                    min: None,
                    max: None,
                    distinct: 0,
                    bucket_bounds: Vec::new(),
                    clustering_fraction: 1.0,
                    encoded_bytes: 0,
                })
                .collect(),
        }
    }

    /// Full-pass statistics over a load's rows — in arrival order, each read
    /// in place — and the check that every one of them fits `schema` (what
    /// [`Schema::validate_row`] checks of an owned row, with its errors).
    /// `block_rows` is the block size for the clustering fraction (use the
    /// columnstore row-group capacity). Every column is gathered in the one
    /// pass: what is alive beside the record is a typed copy of it, strings
    /// borrowed.
    pub fn analyze_encoded(
        schema: &Schema,
        rows: &EncodedRows,
        block_rows: usize,
    ) -> Result<TableStats> {
        Self::analyze_load(schema, rows, block_rows, None).map(|(stats, _)| stats)
    }

    /// [`TableStats::analyze_encoded`], and how many of the rows each part
    /// of `partitioning` takes, its partition column read in place in the
    /// same pass (one part takes them all without it): what a load sizes
    /// each part's builder by.
    pub fn analyze_load(
        schema: &Schema,
        rows: &EncodedRows,
        block_rows: usize,
        partitioning: Option<&PartitionSpec>,
    ) -> Result<(TableStats, Vec<usize>)> {
        let mut part_rows = vec![0; partitioning.map_or(1, PartitionSpec::partitions)];
        let mut columns: Vec<Gathered> = (schema.columns().iter())
            .map(|c| Gathered::with_capacity(c.dtype, rows.len()))
            .collect();
        let mut bytes = vec![0; schema.len()];
        for row in rows.iter() {
            let mut values = codec::values(row);
            let (mut taken, mut part) = (0, 0);
            for ((column, def), v) in (columns.iter_mut().zip(schema.columns())).zip(&mut values) {
                if !column.push(v) {
                    return Err(HpdError::TypeMismatch {
                        expected: def.dtype.name(),
                        found: format!("{} in column {}", v.data_type(), def.name),
                    });
                }
                if let Some(spec) = partitioning.filter(|spec| spec.column == taken) {
                    part = spec.route_ref(v);
                }
                bytes[taken] += v.encoded_len();
                taken += 1;
            }
            if taken != schema.len() || values.next().is_some() {
                return Err(HpdError::Internal(format!(
                    "row arity {} does not match schema arity {}",
                    codec::count_values(row),
                    schema.len()
                )));
            }
            part_rows[part] += 1;
        }
        if rows.is_empty() {
            return Ok((TableStats::empty(schema.len()), part_rows));
        }
        let stats = TableStats {
            rows: rows.len(),
            columns: (columns.into_iter().zip(bytes))
                .map(|(c, encoded_bytes)| ColumnStats {
                    encoded_bytes,
                    ..c.stats(block_rows)
                })
                .collect(),
        };
        Ok((stats, part_rows))
    }

    /// [`TableStats::analyze_encoded`] over the rows of a table of this `schema`
    /// (about `expected` of them) that `scan` lends one at a time, in arrival
    /// order. Every column is gathered in the one pass: what is alive beside
    /// the table is a typed copy of it, never a row.
    pub(crate) fn analyze_scan(
        schema: &Schema,
        expected: usize,
        block_rows: usize,
        scan: impl FnOnce(&mut dyn FnMut(&Row)),
    ) -> TableStats {
        let mut columns: Vec<ColumnVector> = (schema.columns().iter())
            .map(|c| ColumnVector::with_capacity(c.dtype, expected))
            .collect();
        let mut bytes = vec![0; schema.len()];
        scan(&mut |row| {
            for ((column, sum), v) in columns.iter_mut().zip(&mut bytes).zip(row.values()) {
                column.push(v).expect("rows match the table's schema");
                *sum += ValueRef::from(v).encoded_len();
            }
        });
        let rows = columns.first().map_or(0, ColumnVector::len);
        if rows == 0 {
            return TableStats::empty(schema.len());
        }
        let columns = (columns.into_iter().zip(bytes)).map(|(c, encoded_bytes)| ColumnStats {
            encoded_bytes,
            ..ColumnStats::of_typed(c, block_rows)
        });
        TableStats {
            rows,
            columns: columns.collect(),
        }
    }

    /// Estimated selectivity of a conjunctive predicate given its extracted
    /// per-column intervals (independence assumption).
    pub fn intervals_selectivity(
        &self,
        intervals: &std::collections::HashMap<usize, Interval>,
    ) -> f64 {
        let mut sel = 1.0;
        for (&c, iv) in intervals {
            if c < self.columns.len() {
                sel *= self.columns[c].selectivity(iv, self.rows);
            }
        }
        sel.clamp(0.0, 1.0)
    }

    /// Estimated number of distinct combinations of `cols` (capped product,
    /// the standard heuristic).
    pub fn joint_distinct(&self, cols: &[usize]) -> usize {
        let mut product: f64 = 1.0;
        for &c in cols {
            product *= self.columns[c].distinct.max(1) as f64;
        }
        product.min(self.rows as f64) as usize
    }
}

/// Average fraction of the total value domain spanned by each arrival block
/// of a column of `n` values, `value(i)` being the `i`th to arrive (as a
/// number: [`Value::as_f64`], 0 for a string).
fn clustering_fraction(n: usize, block_rows: usize, value: impl Fn(usize) -> f64) -> f64 {
    let span = |range: std::ops::Range<usize>| {
        range.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), i| {
            let f = value(i);
            (lo.min(f), hi.max(f))
        })
    };
    let (total_min, total_max) = span(0..n);
    let total_span = total_max - total_min;
    if total_span <= 0.0 {
        return 0.0;
    }
    let block = block_rows.max(1);
    let mut fractions = Vec::new();
    for start in (0..n).step_by(block) {
        let (lo, hi) = span(start..n.min(start + block));
        fractions.push((hi - lo) / total_span);
    }
    fractions.iter().sum::<f64>() / fractions.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpd_common::Interval;

    /// Statistics of one or more `Int32` columns.
    fn analyze(
        columns: usize,
        block_rows: usize,
        row: impl Fn(i32) -> Vec<i32>,
        n: i32,
    ) -> TableStats {
        let schema = Schema::new(
            (0..columns)
                .map(|c| hpd_common::ColumnDef::new(format!("c{c}"), DataType::Int32))
                .collect(),
        );
        let rows: Vec<Row> = (0..n)
            .map(|i| Row::new(row(i).into_iter().map(Value::Int32).collect()))
            .collect();
        TableStats::analyze_encoded(&schema, &EncodedRows::from_rows(&rows), block_rows).unwrap()
    }

    #[test]
    fn selectivity_of_range_on_uniform_data() {
        let stats = analyze(1, 1000, |i| vec![i], 10_000);
        let sel = stats.columns[0]
            .selectivity(&Interval::less_than(Value::Int32(1000), false), stats.rows);
        assert!((sel - 0.1).abs() < 0.05, "got {sel}");
        let sel = stats.columns[0].selectivity(
            &Interval::between(Value::Int32(2500), Value::Int32(7500)),
            stats.rows,
        );
        assert!((sel - 0.5).abs() < 0.06, "got {sel}");
    }

    #[test]
    fn point_selectivity_uses_distinct() {
        let stats = analyze(1, 100, |i| vec![i % 100], 1000);
        assert_eq!(stats.columns[0].distinct, 100);
        let sel = stats.columns[0].selectivity(&Interval::point(Value::Int32(5)), stats.rows);
        assert!((sel - 0.01).abs() < 1e-9);
        // Out-of-range point: zero.
        let sel = stats.columns[0].selectivity(&Interval::point(Value::Int32(500)), stats.rows);
        assert_eq!(sel, 0.0);
    }

    #[test]
    fn clustering_fraction_sorted_vs_random() {
        let s1 = analyze(1, 500, |i| vec![i], 10_000);
        assert!(
            s1.columns[0].clustering_fraction < 0.1,
            "sorted data has tight blocks: {}",
            s1.columns[0].clustering_fraction
        );
        let mut shuffled: Vec<i32> = (0..10_000).collect();
        let mut state = 7u64;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            shuffled.swap(i, (state >> 33) as usize % (i + 1));
        }
        let s2 = analyze(1, 500, |i| vec![shuffled[i as usize]], 10_000);
        assert!(
            s2.columns[0].clustering_fraction > 0.9,
            "random data spans the domain: {}",
            s2.columns[0].clustering_fraction
        );
    }

    #[test]
    fn joint_distinct_caps_at_rowcount() {
        let stats = analyze(2, 50, |i| vec![i % 10, i % 30], 100);
        assert_eq!(stats.joint_distinct(&[0]), 10);
        assert_eq!(stats.joint_distinct(&[1]), 30);
        assert_eq!(stats.joint_distinct(&[0, 1]), 100, "capped at rows");
    }

    #[test]
    fn empty_table_stats() {
        let stats = analyze(3, 100, |_| vec![], 0);
        assert_eq!(stats.rows, 0);
        assert_eq!(stats.columns.len(), 3);
        assert_eq!(stats.columns[0].selectivity(&Interval::all(), 0), 0.0);
    }

    #[test]
    fn every_type_gathers_in_place_as_its_owned_values_order() {
        // One column of each type, strings included, against the same rows
        // gathered as owned values from a scan: same statistics.
        let schema = Schema::from_pairs(&[
            ("i", DataType::Int32),
            ("l", DataType::Int64),
            ("f", DataType::Float64),
            ("m", DataType::Decimal),
            ("d", DataType::Date),
            ("s", DataType::Utf8),
        ]);
        let rows: Vec<Row> = (0..1000i32)
            .map(|i| {
                let v = i * 7 % 250 - 100;
                Row::new(vec![
                    Value::Int32(v),
                    Value::Int64(i64::from(v) << 33),
                    Value::Float64(f64::from(v) / 3.0),
                    Value::Decimal(i64::from(v) * 5_000),
                    Value::Date(v),
                    Value::str(format!("s{v}")),
                ])
            })
            .collect();
        let encoded = TableStats::analyze_encoded(&schema, &EncodedRows::from_rows(&rows), 100);
        let scanned =
            TableStats::analyze_scan(&schema, rows.len(), 100, |sink| rows.iter().for_each(sink));
        for (a, b) in encoded.unwrap().columns.iter().zip(&scanned.columns) {
            assert_eq!(a.distinct, 250);
            assert_eq!(a.distinct, b.distinct);
            assert_eq!((&a.min, &a.max), (&b.min, &b.max));
            assert_eq!(a.bucket_bounds, b.bucket_bounds);
            assert_eq!(a.clustering_fraction, b.clustering_fraction);
        }
    }

    #[test]
    fn rows_that_do_not_fit_the_schema_are_refused_as_validate_row_refuses_them() {
        let schema = Schema::from_pairs(&[("k", DataType::Int32), ("s", DataType::Utf8)]);
        let good = Row::new(vec![Value::Int32(1), Value::str("x")]);
        for bad in [
            Row::new(vec![Value::Int32(1)]),
            Row::new(vec![Value::Int32(1), Value::str("x"), Value::Int32(2)]),
            Row::new(vec![Value::Int64(1), Value::str("x")]),
            Row::new(vec![Value::Int32(1), Value::Int32(2)]),
        ] {
            let rows = EncodedRows::from_rows([&good, &bad, &good]);
            let refused = TableStats::analyze_encoded(&schema, &rows, 100).unwrap_err();
            assert_eq!(refused, schema.validate_row(&bad).unwrap_err(), "{bad:?}");
        }
    }

    #[test]
    fn intervals_selectivity_multiplies() {
        let stats = analyze(2, 1000, |i| vec![i % 100, i / 100], 10_000);
        let mut ivs = std::collections::HashMap::new();
        ivs.insert(0usize, Interval::less_than(Value::Int32(10), false));
        ivs.insert(1usize, Interval::less_than(Value::Int32(50), false));
        let sel = stats.intervals_selectivity(&ivs);
        assert!((sel - 0.05).abs() < 0.03, "got {sel}");
    }
}
