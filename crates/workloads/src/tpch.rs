//! Scaled TPC-H `lineitem` and the paper's update/mixed-workload statements.
//!
//! Used by the Figure 5 (update cost) and Figure 6 (mixed workload)
//! experiments. Columns cover everything Q4/Q5 and the three §3.4 physical
//! designs touch.

use hpd_common::{AggFunc, BinOp, CmpOp, DataType, Expr, Result, Row, Schema, Value};
use hpd_engine::{
    AggItem, ColRef, Database, IndexDescriptor, SelectQuery, Statement, TableInput, UpdateStmt,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Column ordinals of `lineitem`.
pub mod col {
    pub const L_ORDERKEY: usize = 0;
    pub const L_LINENUMBER: usize = 1;
    pub const L_QUANTITY: usize = 2;
    pub const L_EXTENDEDPRICE: usize = 3;
    pub const L_DISCOUNT: usize = 4;
    pub const L_SHIPDATE: usize = 5;
    pub const L_SUPPKEY: usize = 6;
    pub const L_PARTKEY: usize = 7;
}

/// Number of distinct ship dates (TPC-H spans ~2,526 days).
pub const SHIPDATE_DAYS: i32 = 2400;

pub fn lineitem_schema() -> Schema {
    Schema::from_pairs(&[
        ("l_orderkey", DataType::Int32),
        ("l_linenumber", DataType::Int32),
        ("l_quantity", DataType::Decimal),
        ("l_extendedprice", DataType::Decimal),
        ("l_discount", DataType::Decimal),
        ("l_shipdate", DataType::Date),
        ("l_suppkey", DataType::Int32),
        ("l_partkey", DataType::Int32),
    ])
}

/// Generate `rows` lineitem rows (orders of 1–7 lines), deterministic in
/// `seed`, one at a time: a load that streams them never holds the table as
/// rows.
pub fn lineitem_iter(rows: usize, seed: u64) -> impl Iterator<Item = Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut orderkey = 0i32;
    // Lines of the current order: how many it has, how many are out.
    let (mut lines, mut line) = (0usize, 0usize);
    (0..rows).map(move |emitted| {
        if line == lines {
            orderkey += 1;
            lines = rng.gen_range(1usize..=7).min(rows - emitted);
            line = 0;
        }
        line += 1;
        let quantity = rng.gen_range(1..=50) as i64 * 10_000;
        let price = rng.gen_range(90_000i64..=10_490_000) * 100; // 900.00..104900.00 in 1e-4
        let discount = rng.gen_range(0..=10) as i64 * 1_000; // 0.00..0.10
        Row::new(vec![
            Value::Int32(orderkey),
            Value::Int32(line as i32),
            Value::Decimal(quantity),
            Value::Decimal(price),
            Value::Decimal(discount),
            Value::Date(rng.gen_range(0..SHIPDATE_DAYS)),
            Value::Int32(rng.gen_range(0..10_000)),
            Value::Int32(rng.gen_range(0..200_000)),
        ])
    })
}

/// [`lineitem_iter`], collected.
pub fn lineitem_rows(rows: usize, seed: u64) -> Vec<Row> {
    lineitem_iter(rows, seed).collect()
}

/// The three §3.4 physical designs for the mixed workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixedDesign {
    /// (A) primary B+ tree on (l_orderkey, l_linenumber) + secondary B+
    /// tree on l_shipdate.
    BTreeOnly,
    /// (B) = (A) plus a secondary columnstore on all columns.
    BTreeWithSecondaryCsi,
    /// (C) primary columnstore + secondary B+ tree on l_shipdate.
    PrimaryCsi,
}

/// Create + load `lineitem` under one of the three designs.
pub fn load_lineitem(db: &Database, rows: usize, seed: u64, design: MixedDesign) -> Result<()> {
    let pk = vec![col::L_ORDERKEY, col::L_LINENUMBER];
    let primary = match design {
        MixedDesign::BTreeOnly | MixedDesign::BTreeWithSecondaryCsi => {
            IndexDescriptor::PrimaryBTree { keys: pk.clone() }
        }
        MixedDesign::PrimaryCsi => IndexDescriptor::PrimaryCsi,
    };
    db.create_table("lineitem", lineitem_schema(), pk, primary)?;
    db.load_table_from("lineitem", lineitem_iter(rows, seed))?;
    // Secondary B+ tree on l_shipdate helps Q4's selective predicate in all
    // three designs.
    db.create_index(
        "lineitem",
        &IndexDescriptor::SecondaryBTree {
            keys: vec![col::L_SHIPDATE],
            includes: vec![],
        },
    )?;
    if design == MixedDesign::BTreeWithSecondaryCsi {
        db.create_index(
            "lineitem",
            &IndexDescriptor::SecondaryCsi {
                columns: (0..lineitem_schema().len()).collect(),
            },
        )?;
    }
    Ok(())
}

/// **Q4**: `UPDATE top(N) lineitem SET l_quantity += 1, l_extendedprice +=
/// 0.01 WHERE l_shipdate = ?` (paper §3.3).
pub fn q4_update(n_rows: usize, shipdate: i32) -> Statement {
    Statement::Update(UpdateStmt {
        table: "lineitem".into(),
        predicate: Expr::col_cmp(col::L_SHIPDATE, CmpOp::Eq, Value::Date(shipdate)),
        top: Some(n_rows),
        set: vec![
            (
                col::L_QUANTITY,
                Expr::arith(
                    BinOp::Add,
                    Expr::Col(col::L_QUANTITY),
                    Expr::lit(Value::Decimal(10_000)),
                ),
            ),
            (
                col::L_EXTENDEDPRICE,
                Expr::arith(
                    BinOp::Add,
                    Expr::Col(col::L_EXTENDEDPRICE),
                    Expr::lit(Value::Decimal(100)),
                ),
            ),
        ],
    })
}

/// **Q5**: `SELECT sum(l_quantity), sum(l_extendedprice * (1 - l_discount))
/// FROM lineitem WHERE l_shipdate BETWEEN ? AND ?+1` (paper §3.4).
pub fn q5_scan(shipdate: i32) -> Statement {
    q5_scan_range(shipdate, shipdate + 1)
}

/// Q5 generalized to a ship-date window. The paper's window of two days over
/// 180 M rows touches ~150 k rows, making every analytic query
/// resource-dominant over the 10-row updates; at scaled row counts the
/// window must widen to preserve that scan-to-update work ratio
/// (the Figure 6 mixed-workload experiment uses a wide window).
pub fn q5_scan_range(from: i32, to: i32) -> Statement {
    Statement::Select(SelectQuery {
        tables: vec![TableInput::with_predicate(
            "lineitem",
            Expr::between(col::L_SHIPDATE, Value::Date(from), Value::Date(to)),
        )],
        aggregates: vec![
            AggItem::column(AggFunc::Sum, ColRef::new(0, col::L_QUANTITY)),
            AggItem::new(
                AggFunc::Sum,
                0,
                Expr::arith(
                    BinOp::Mul,
                    Expr::Col(col::L_EXTENDEDPRICE),
                    Expr::arith(
                        BinOp::Sub,
                        Expr::lit(Value::Decimal(10_000)),
                        Expr::Col(col::L_DISCOUNT),
                    ),
                ),
            ),
        ],
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpd_engine::DbConfig;

    #[test]
    fn lineitem_generation_shape() {
        let rows = lineitem_rows(10_000, 1);
        assert_eq!(rows.len(), 10_000);
        // The stream says how long it is: a load sizes its record by that.
        assert_eq!(lineitem_iter(10_000, 1).size_hint(), (10_000, Some(10_000)));
        // (orderkey, linenumber) unique.
        let mut keys: Vec<(i32, i32)> = rows
            .iter()
            .map(|r| (r[0].as_i32().unwrap(), r[1].as_i32().unwrap()))
            .collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), before, "pk must be unique");
        // Shipdates within range.
        assert!(rows
            .iter()
            .all(|r| (0..SHIPDATE_DAYS).contains(&r[5].as_i32().unwrap())));
    }

    #[test]
    fn q4_and_q5_run_on_all_three_designs() {
        for design in [
            MixedDesign::BTreeOnly,
            MixedDesign::BTreeWithSecondaryCsi,
            MixedDesign::PrimaryCsi,
        ] {
            let mut cfg = DbConfig::default();
            cfg.csi.rowgroup_capacity = 4096;
            let db = Database::new(cfg);
            load_lineitem(&db, 20_000, 7, design).unwrap();
            let upd = db.query(&q4_update(10, 100)).run().unwrap();
            let affected = upd.rows[0][0].as_i64().unwrap();
            // ~8 rows/day at this scale; TOP caps at 10.
            assert!(
                (1..=10).contains(&affected),
                "{design:?}: affected {affected}"
            );
            let scan = db.query(&q5_scan(100)).run().unwrap();
            assert_eq!(scan.rows.len(), 1);
            assert!(scan.rows[0][0].as_f64().unwrap() > 0.0);
        }
    }

    #[test]
    fn q4_update_actually_bumps_values() {
        let db = Database::new(DbConfig::default());
        load_lineitem(&db, 5_000, 3, MixedDesign::BTreeOnly).unwrap();
        let before = db.query(&q5_scan(42)).run().unwrap().rows[0][0].clone();
        // Update every line shipped on day 42 (top high enough).
        db.query(&q4_update(100_000, 42)).run().unwrap();
        let after = db.query(&q5_scan(42)).run().unwrap().rows[0][0].clone();
        assert!(
            after.as_f64().unwrap() > before.as_f64().unwrap(),
            "sum(l_quantity) should grow: {before:?} -> {after:?}"
        );
    }
}
