//! Table and column statistics for the cost model.
//!
//! Statistics are computed by a full pass at `analyze` time (our tables are
//! laptop-scale; SQL Server would sample). Per column we keep min/max,
//! distinct count, an equi-depth histogram, and a *clustering fraction* —
//! the average fraction of the column's value domain spanned by each
//! arrival-order block, which predicts how well columnstore segment
//! elimination will work (≈0 for data sorted on that column, ≈1 for random
//! arrival order).

use hpd_common::{ColumnVector, Interval, Row, Schema, Value};

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
}

impl ColumnStats {
    /// Statistics of a column of `n > 0` values, `sorted(i)` being the `i`th
    /// smallest.
    fn of_sorted(n: usize, clustering_fraction: f64, sorted: impl Fn(usize) -> Value) -> Self {
        let distinct = 1 + (1..n).filter(|&i| sorted(i - 1) != sorted(i)).count();
        let mut bucket_bounds = Vec::with_capacity(BUCKETS);
        for b in 1..=BUCKETS {
            bucket_bounds.push(sorted((b * n / BUCKETS).saturating_sub(1)));
        }
        bucket_bounds.dedup();
        ColumnStats {
            min: Some(sorted(0)),
            max: Some(sorted(n - 1)),
            distinct,
            bucket_bounds,
            clustering_fraction,
        }
    }

    /// Statistics of a non-empty column held as a typed vector in arrival
    /// order: 4 or 8 bytes a value, sorted as machine integers and not as
    /// 24-byte tagged values.
    fn of_typed(mut typed: ColumnVector, block_rows: usize) -> Self {
        let n = typed.len();
        // Clustering fraction from arrival-order blocks, before sorting.
        let clustering = clustering_fraction(n, block_rows, |i| typed.value(i));
        match &mut typed {
            ColumnVector::Int32(v) | ColumnVector::Date(v) => v.sort_unstable(),
            ColumnVector::Int64(v) | ColumnVector::Decimal(v) => v.sort_unstable(),
            ColumnVector::Float64(v) => v.sort_unstable_by(f64::total_cmp),
            ColumnVector::Str(v) => v.sort_unstable(),
        }
        ColumnStats::of_sorted(n, clustering, |i| typed.value(i))
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
        // Count buckets whose upper bound falls inside the interval; add
        // partial credit for boundary buckets.
        let mut covered = 0.0;
        let mut prev: Option<&Value> = None;
        for b in &self.bucket_bounds {
            let hi_in = interval.contains(b);
            let lo_in = prev.map(|p| interval.contains(p)).unwrap_or(hi_in);
            covered += match (lo_in, hi_in) {
                (true, true) => 1.0,
                (false, false) => {
                    // The interval may be strictly inside this bucket.
                    if let Some(p) = prev {
                        if interval.overlaps_range(p, b) {
                            0.3
                        } else {
                            0.0
                        }
                    } else {
                        0.0
                    }
                }
                _ => 0.5,
            };
            prev = Some(b);
        }
        (covered / self.bucket_bounds.len() as f64).clamp(0.0, 1.0)
    }
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
                })
                .collect(),
        }
    }

    /// Full-pass statistics over the table's rows in arrival order.
    /// `block_rows` is the block size for the clustering fraction (use the
    /// columnstore row-group capacity).
    pub fn analyze(rows: &[Row], n_columns: usize, block_rows: usize) -> TableStats {
        if rows.is_empty() {
            return TableStats::empty(n_columns);
        }
        let n = rows.len();
        let mut columns = Vec::with_capacity(n_columns);
        for c in 0..n_columns {
            // One column at a time, beside the rows it is read from (a bulk
            // load holds those and its log record too).
            let mut typed = ColumnVector::with_capacity(rows[0][c].data_type(), n);
            columns.push(if rows.iter().all(|r| typed.push(&r[c]).is_ok()) {
                ColumnStats::of_typed(typed, block_rows)
            } else {
                // A column that mixes types (no schema admits one): ordered
                // as `Value`s compare across types.
                let mut vals: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
                let clustering = clustering_fraction(n, block_rows, |i| vals[i].clone());
                vals.sort_unstable();
                ColumnStats::of_sorted(n, clustering, |i| vals[i].clone())
            });
        }
        TableStats { rows: n, columns }
    }

    /// [`TableStats::analyze`] over the rows of a table of this `schema`
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
        scan(&mut |row| {
            for (column, v) in columns.iter_mut().zip(row.values()) {
                column.push(v).expect("rows match the table's schema");
            }
        });
        let rows = columns.first().map_or(0, ColumnVector::len);
        if rows == 0 {
            return TableStats::empty(schema.len());
        }
        let columns = columns
            .into_iter()
            .map(|c| ColumnStats::of_typed(c, block_rows));
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
/// of a column of `n` values, `value(i)` being the `i`th to arrive.
fn clustering_fraction(n: usize, block_rows: usize, value: impl Fn(usize) -> Value) -> f64 {
    let span = |range: std::ops::Range<usize>| {
        range.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), i| {
            let f = value(i).as_f64().unwrap_or(0.0);
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

    fn rows_of(vals: Vec<i32>) -> Vec<Row> {
        vals.into_iter()
            .map(|v| Row::new(vec![Value::Int32(v)]))
            .collect()
    }

    #[test]
    fn selectivity_of_range_on_uniform_data() {
        let rows = rows_of((0..10_000).collect());
        let stats = TableStats::analyze(&rows, 1, 1000);
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
        let rows = rows_of((0..1000).map(|i| i % 100).collect());
        let stats = TableStats::analyze(&rows, 1, 100);
        assert_eq!(stats.columns[0].distinct, 100);
        let sel = stats.columns[0].selectivity(&Interval::point(Value::Int32(5)), stats.rows);
        assert!((sel - 0.01).abs() < 1e-9);
        // Out-of-range point: zero.
        let sel = stats.columns[0].selectivity(&Interval::point(Value::Int32(500)), stats.rows);
        assert_eq!(sel, 0.0);
    }

    #[test]
    fn clustering_fraction_sorted_vs_random() {
        let sorted = rows_of((0..10_000).collect());
        let s1 = TableStats::analyze(&sorted, 1, 500);
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
        let s2 = TableStats::analyze(&rows_of(shuffled), 1, 500);
        assert!(
            s2.columns[0].clustering_fraction > 0.9,
            "random data spans the domain: {}",
            s2.columns[0].clustering_fraction
        );
    }

    #[test]
    fn joint_distinct_caps_at_rowcount() {
        let rows: Vec<Row> = (0..100)
            .map(|i| Row::new(vec![Value::Int32(i % 10), Value::Int32(i % 30)]))
            .collect();
        let stats = TableStats::analyze(&rows, 2, 50);
        assert_eq!(stats.joint_distinct(&[0]), 10);
        assert_eq!(stats.joint_distinct(&[1]), 30);
        assert_eq!(stats.joint_distinct(&[0, 1]), 100, "capped at rows");
    }

    #[test]
    fn empty_table_stats() {
        let stats = TableStats::analyze(&[], 3, 100);
        assert_eq!(stats.rows, 0);
        assert_eq!(stats.columns.len(), 3);
        assert_eq!(stats.columns[0].selectivity(&Interval::all(), 0), 0.0);
    }

    #[test]
    fn a_column_that_mixes_types_is_ordered_as_values_compare() {
        let column = |value: fn(i32) -> Value| -> Vec<Row> {
            (0..1000)
                .map(|i| Row::new(vec![value(i * 7 % 250)]))
                .collect()
        };
        let typed = TableStats::analyze(&column(|v| Value::Int64(v.into())), 1, 100);
        let mixed = TableStats::analyze(
            &column(|v| match v % 2 {
                0 => Value::Int64(v.into()),
                _ => Value::Int32(v),
            }),
            1,
            100,
        );
        let (typed, mixed) = (&typed.columns[0], &mixed.columns[0]);
        assert_eq!(typed.distinct, 250);
        assert_eq!(mixed.distinct, typed.distinct);
        assert_eq!((&mixed.min, &mixed.max), (&typed.min, &typed.max));
        assert_eq!(mixed.bucket_bounds, typed.bucket_bounds);
        assert_eq!(mixed.clustering_fraction, typed.clustering_fraction);
    }

    #[test]
    fn intervals_selectivity_multiplies() {
        let rows: Vec<Row> = (0..10_000)
            .map(|i| Row::new(vec![Value::Int32(i % 100), Value::Int32(i / 100)]))
            .collect();
        let stats = TableStats::analyze(&rows, 2, 1000);
        let mut ivs = std::collections::HashMap::new();
        ivs.insert(0usize, Interval::less_than(Value::Int32(10), false));
        ivs.insert(1usize, Interval::less_than(Value::Int32(50), false));
        let sel = stats.intervals_selectivity(&ivs);
        assert!((sel - 0.05).abs() < 0.03, "got {sel}");
    }
}
