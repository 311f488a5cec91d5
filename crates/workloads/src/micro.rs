//! The §3 micro-benchmark substrate: uniform synthetic tables and the
//! parameterized queries Q1–Q3.
//!
//! "Synthetic data set consists of tables with different numbers of columns.
//! Each column contains uniformly distributed 32-bit integers in range from
//! 0 to 2³¹ − 1 (similar to Kester et al.)."

use hpd_common::{AggFunc, CmpOp, DataType, Expr, Result, Row, Schema, Value};
use hpd_engine::{AggItem, ColRef, Database, IndexDescriptor, SelectQuery, TableInput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Domain of the uniform columns: `[0, 2^31)`.
pub const DOMAIN: i64 = 1 << 31;

/// Whether data arrives sorted on column 0 (enables columnstore segment
/// elimination — the "CSI sorted" configuration of Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortedLoad {
    Random,
    SortedByCol0,
}

/// Descriptor for one micro-benchmark table.
#[derive(Debug, Clone)]
pub struct MicroTable {
    pub name: String,
    pub columns: usize,
    pub rows: usize,
    pub seed: u64,
    pub sorted: SortedLoad,
    /// Distinct values of column 0 (`None` = full uniform domain). Used by
    /// the group-by experiment (Figure 4) to control the number of groups.
    pub col0_distinct: Option<usize>,
}

impl MicroTable {
    pub fn new(name: impl Into<String>, columns: usize, rows: usize) -> MicroTable {
        MicroTable {
            name: name.into(),
            columns,
            rows,
            seed: 0xC0FFEE,
            sorted: SortedLoad::Random,
            col0_distinct: None,
        }
    }

    pub fn sorted(mut self) -> MicroTable {
        self.sorted = SortedLoad::SortedByCol0;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> MicroTable {
        self.seed = seed;
        self
    }

    pub fn with_col0_distinct(mut self, d: usize) -> MicroTable {
        self.col0_distinct = Some(d);
        self
    }

    pub fn schema(&self) -> Schema {
        Schema::new(
            (0..self.columns)
                .map(|i| hpd_common::ColumnDef::new(format!("col{}", i + 1), DataType::Int32))
                .collect(),
        )
    }

    /// Generate the rows (deterministic in the seed).
    pub fn rows(&self) -> Vec<Row> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut rows: Vec<Row> = (0..self.rows)
            .map(|_| {
                Row::new(
                    (0..self.columns)
                        .map(|c| {
                            let v = match (c, self.col0_distinct) {
                                (0, Some(d)) => rng.gen_range(0..d as i64),
                                _ => rng.gen_range(0..DOMAIN),
                            };
                            Value::Int32(v as i32)
                        })
                        .collect(),
                )
            })
            .collect();
        if self.sorted == SortedLoad::SortedByCol0 {
            rows.sort_by(|a, b| a[0].cmp(&b[0]));
        }
        rows
    }

    /// Create + load the table with the given primary index. The primary
    /// key is column 0 (values are effectively unique over the 2³¹ domain;
    /// the B+ tree tolerates duplicates).
    pub fn load(&self, db: &Database, primary: IndexDescriptor) -> Result<()> {
        db.create_table(&self.name, self.schema(), vec![0], primary)?;
        db.load_table(&self.name, self.rows())
    }

    /// Create + load with the primary B+ tree keyed on an arbitrary column
    /// (Figure 3's design (c): primary keyed on col2).
    pub fn load_keyed_on(&self, db: &Database, key_col: usize) -> Result<()> {
        db.create_table(
            &self.name,
            self.schema(),
            vec![key_col],
            IndexDescriptor::PrimaryBTree {
                keys: vec![key_col],
            },
        )?;
        db.load_table(&self.name, self.rows())
    }

    /// The predicate cut-off producing `selectivity` (a fraction in 0..=1).
    pub fn cutoff(selectivity: f64) -> i32 {
        (((DOMAIN as f64) * selectivity).round() as i64).min(i32::MAX as i64) as i32
    }

    /// The predicate range producing `selectivity`: a window of
    /// `selectivity × DOMAIN` values positioned *inside* the domain, so
    /// that per-row-group min/max on randomly loaded data cannot skip it.
    ///
    /// (A `col1 < tiny` predicate would let even random data eliminate
    /// every row group at our scaled row counts, because each row group's
    /// minimum exceeds the cutoff — an artifact the paper's 1 M-row row
    /// groups over 1.3 B rows do not exhibit.)
    pub fn range_for(selectivity: f64) -> (i32, i32) {
        let width = ((DOMAIN as f64) * selectivity).round() as i64;
        let lo = (DOMAIN - width) / 4;
        let hi = (lo + width).min(DOMAIN - 1);
        (lo as i32, hi as i32)
    }

    fn range_predicate(selectivity: f64) -> Expr {
        let (lo, hi) = Self::range_for(selectivity);
        if selectivity <= 0.0 {
            // Empty range below the domain.
            Expr::col_cmp(0, CmpOp::Lt, Value::Int32(0))
        } else {
            Expr::And(vec![
                Expr::col_cmp(0, CmpOp::Ge, Value::Int32(lo)),
                Expr::col_cmp(0, CmpOp::Lt, Value::Int32(hi)),
            ])
        }
    }

    /// **Q1**: `SELECT sum(col1) FROM t WHERE col1 in a window` — the
    /// data-skipping micro-benchmark of Figures 1–2 (see
    /// [`MicroTable::range_for`] for why the paper's `<` becomes a window).
    pub fn q1(&self, selectivity: f64) -> SelectQuery {
        SelectQuery {
            tables: vec![TableInput::with_predicate(
                &self.name,
                Self::range_predicate(selectivity),
            )],
            aggregates: vec![AggItem::column(AggFunc::Sum, ColRef::new(0, 0))],
            ..Default::default()
        }
    }

    /// **Q2**: `SELECT col1, col2 FROM t WHERE col1 in a window ORDER BY
    /// col2` — the explicit-sort-order benchmark of Figure 3.
    pub fn q2(&self, selectivity: f64) -> SelectQuery {
        SelectQuery {
            tables: vec![TableInput::with_predicate(
                &self.name,
                Self::range_predicate(selectivity),
            )],
            select: vec![ColRef::new(0, 0), ColRef::new(0, 1)],
            order_by: vec![(1, true)],
            ..Default::default()
        }
    }

    /// **Q3**: `SELECT col1, sum(col2) FROM t GROUP BY col1` — the
    /// aggregation-memory benchmark of Figure 4 (control the group count
    /// via [`MicroTable::with_col0_distinct`]).
    pub fn q3(&self) -> SelectQuery {
        SelectQuery {
            tables: vec![TableInput::new(&self.name)],
            group_by: vec![ColRef::new(0, 0)],
            aggregates: vec![AggItem::column(AggFunc::Sum, ColRef::new(0, 1))],
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpd_engine::{DbConfig, Statement};

    #[test]
    fn deterministic_generation() {
        let t = MicroTable::new("m", 2, 1000);
        assert_eq!(t.rows(), t.rows());
        let other = MicroTable::new("m", 2, 1000).with_seed(1);
        assert_ne!(t.rows(), other.rows());
    }

    #[test]
    fn sorted_load_sorts_col0() {
        let rows = MicroTable::new("m", 2, 500).sorted().rows();
        assert!(rows.windows(2).all(|w| w[0][0] <= w[1][0]));
    }

    #[test]
    fn col0_distinct_controls_groups() {
        let rows = MicroTable::new("m", 2, 2000).with_col0_distinct(10).rows();
        let mut vals: Vec<i32> = rows.iter().map(|r| r[0].as_i32().unwrap()).collect();
        vals.sort_unstable();
        vals.dedup();
        assert!(vals.len() <= 10);
    }

    #[test]
    fn q1_selectivity_roughly_matches() {
        let db = Database::new(DbConfig::default());
        let t = MicroTable::new("m", 1, 20_000);
        t.load(&db, IndexDescriptor::PrimaryBTree { keys: vec![0] })
            .unwrap();
        for sel in [0.01, 0.5] {
            let q = SelectQuery {
                select: vec![ColRef::new(0, 0)],
                aggregates: vec![],
                ..t.q1(sel)
            };
            let n = db.query(&Statement::Select(q)).run().unwrap().rows.len();
            let frac = n as f64 / 20_000.0;
            assert!((frac - sel).abs() < 0.02, "sel {sel}: got fraction {frac}");
        }
    }

    #[test]
    fn q1_sum_consistent_across_designs() {
        let mut cfg = DbConfig::default();
        cfg.csi.rowgroup_capacity = 2048;
        let db_bt = Database::new(cfg.clone());
        let db_cs = Database::new(cfg);
        let t = MicroTable::new("m", 1, 10_000);
        t.load(&db_bt, IndexDescriptor::PrimaryBTree { keys: vec![0] })
            .unwrap();
        t.load(&db_cs, IndexDescriptor::PrimaryCsi).unwrap();
        let q = t.q1(0.1);
        let a = db_bt.query(&Statement::Select(q.clone())).run().unwrap();
        let b = db_cs.query(&Statement::Select(q)).run().unwrap();
        assert_eq!(a.rows, b.rows);
    }
}
