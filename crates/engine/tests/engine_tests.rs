//! End-to-end engine tests: DDL, DML, planning, execution, what-if,
//! isolation.

use std::sync::Arc;
use std::time::Duration;

use hpd_common::{AggFunc, CmpOp, DataType, Expr, Row, Schema, Value};
use hpd_engine::{
    AggItem, ColRef, Configuration, Database, DbConfig, DeleteStmt, EquiJoin, IndexDescriptor,
    IndexMeta, InsertStmt, IsolationLevel, LeafKind, PlanNodeKind, SelectQuery, Statement,
    TableDesign, TableInput, UpdateStmt,
};
use hpd_storage::Work;
use hpd_workloads::tpcds::{self, DsScale};

fn db() -> Database {
    Database::new(DbConfig::default())
}

fn small_rowgroup_db() -> Database {
    let mut cfg = DbConfig::default();
    cfg.csi.rowgroup_capacity = 256;
    Database::new(cfg)
}

/// `t(id, grp, val)`: id unique 0..n, grp = id % 20, val = id * 3 % 1000.
fn setup_table(db: &Database, primary: IndexDescriptor, n: i32) {
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int32),
        ("grp", DataType::Int32),
        ("val", DataType::Int32),
    ]);
    db.create_table("t", schema, vec![0], primary).unwrap();
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Int32(i),
                Value::Int32(i % 20),
                Value::Int32(i * 3 % 1000),
            ])
        })
        .collect();
    db.load_table("t", rows).unwrap();
}

fn btree_primary() -> IndexDescriptor {
    IndexDescriptor::PrimaryBTree { keys: vec![0] }
}

#[test]
fn select_full_scan_btree() {
    let db = db();
    setup_table(&db, btree_primary(), 1000);
    let q = SelectQuery::single_table("t", None, vec![0, 2]);
    let r = db.query(&Statement::Select(q)).run().unwrap();
    assert_eq!(r.rows.len(), 1000);
    assert_eq!(r.rows[0].len(), 2);
}

#[test]
fn select_with_predicate_uses_seek_on_pk() {
    let db = db();
    setup_table(&db, btree_primary(), 10_000);
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(0, CmpOp::Lt, Value::Int32(50))),
        vec![0],
    );
    let plan = db.plan(&q).unwrap();
    let explain = plan.explain();
    assert!(explain.contains("BTreeSeek"), "plan was:\n{explain}");
    let r = db.query(&Statement::Select(q)).run().unwrap();
    assert_eq!(r.rows.len(), 50);
    // Selective seek touches few pages.
    assert!(r.metrics.io.logical_reads < 30);
}

#[test]
fn select_csi_primary() {
    let db = small_rowgroup_db();
    setup_table(&db, IndexDescriptor::PrimaryCsi, 5000);
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(0, CmpOp::Lt, Value::Int32(100))),
        vec![0, 1],
    );
    let plan = db.plan(&q).unwrap();
    assert!(plan.explain().contains("CsiScan"), "{}", plan.explain());
    assert_eq!(plan.leaf_kinds(), vec![LeafKind::Columnstore]);
    let r = db.query(&Statement::Select(q)).run().unwrap();
    assert_eq!(r.rows.len(), 100);
}

#[test]
fn aggregate_group_by_matches_manual() {
    for primary in [btree_primary(), IndexDescriptor::PrimaryCsi] {
        let db = small_rowgroup_db();
        setup_table(&db, primary, 2000);
        let q = SelectQuery {
            tables: vec![TableInput::new("t")],
            group_by: vec![ColRef::new(0, 1)],
            aggregates: vec![
                AggItem::column(AggFunc::Count, ColRef::new(0, 0)),
                AggItem::column(AggFunc::Sum, ColRef::new(0, 2)),
            ],
            ..Default::default()
        };
        let mut r = db.query(&Statement::Select(q)).run().unwrap().rows;
        r.sort_by_key(|row| row[0].as_i32().unwrap());
        assert_eq!(r.len(), 20);
        for (g, row) in r.iter().enumerate() {
            assert_eq!(row[0], Value::Int32(g as i32));
            assert_eq!(row[1], Value::Int64(100)); // 2000 / 20
            let expected: i64 = (0..2000i64)
                .filter(|i| i % 20 == g as i64)
                .map(|i| i * 3 % 1000)
                .sum();
            assert_eq!(row[2], Value::Int64(expected));
        }
    }
}

#[test]
fn aggregate_with_computed_expression() {
    let db = db();
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int32),
        ("price", DataType::Decimal),
        ("discount", DataType::Decimal),
    ]);
    db.create_table("sales", schema, vec![0], btree_primary())
        .unwrap();
    let rows: Vec<Row> = (0..100)
        .map(|i| {
            Row::new(vec![
                Value::Int32(i),
                Value::Decimal(10_000 * (i as i64 + 1)), // (i+1).0000
                Value::Decimal(1_000),                   // 0.1000
            ])
        })
        .collect();
    db.load_table("sales", rows).unwrap();
    // sum(price * (1 - discount))
    let q = SelectQuery {
        tables: vec![TableInput::new("sales")],
        aggregates: vec![AggItem::new(
            AggFunc::Sum,
            0,
            Expr::arith(
                hpd_common::BinOp::Mul,
                Expr::Col(1),
                Expr::arith(
                    hpd_common::BinOp::Sub,
                    Expr::lit(Value::Decimal(10_000)),
                    Expr::Col(2),
                ),
            ),
        )],
        ..Default::default()
    };
    let r = db.query(&Statement::Select(q)).run().unwrap();
    // sum over i of (i+1) * 0.9 = 0.9 * 5050 = 4545.0
    assert_eq!(r.scalar(), Some(&Value::Decimal(4545_0000)));
}

#[test]
fn order_by_and_limit() {
    let db = db();
    setup_table(&db, btree_primary(), 500);
    let q = SelectQuery {
        tables: vec![TableInput::new("t")],
        select: vec![ColRef::new(0, 2), ColRef::new(0, 0)],
        order_by: vec![(0, false), (1, true)],
        limit: Some(10),
        ..Default::default()
    };
    let r = db.query(&Statement::Select(q)).run().unwrap().rows;
    assert_eq!(r.len(), 10);
    for w in r.windows(2) {
        let (a, b) = (w[0][0].as_i32().unwrap(), w[1][0].as_i32().unwrap());
        assert!(a >= b);
    }
}

#[test]
fn secondary_index_seek_with_lookup() {
    let db = db();
    setup_table(&db, btree_primary(), 20_000);
    db.create_index(
        "t",
        &IndexDescriptor::SecondaryBTree {
            keys: vec![2],
            includes: vec![],
        },
    )
    .unwrap();
    // Highly selective predicate on val: should use the secondary index.
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(2, CmpOp::Eq, Value::Int32(42))),
        vec![0, 1, 2],
    );
    let plan = db.plan(&q).unwrap();
    let explain = plan.explain();
    assert!(
        explain.contains("idx#1"),
        "expected the secondary index:\n{explain}"
    );
    let r = db.query(&Statement::Select(q)).run().unwrap();
    // val = i*3 % 1000 == 42 → i*3 ≡ 42 (mod 1000) → i ≡ 14 (mod 1000) ... 3i mod 1000 cycle
    let expected: Vec<i32> = (0..20_000).filter(|i| i * 3 % 1000 == 42).collect();
    assert_eq!(r.rows.len(), expected.len());
    assert!(r.rows.iter().all(|row| row[2] == Value::Int32(42)));
}

#[test]
fn hybrid_design_on_same_table() {
    // B+ tree primary + secondary CSI: selective queries hit the tree,
    // scans hit the columnstore — within one table.
    let db = small_rowgroup_db();
    setup_table(&db, btree_primary(), 10_000);
    db.create_index(
        "t",
        &IndexDescriptor::SecondaryCsi {
            columns: vec![0, 1, 2],
        },
    )
    .unwrap();

    let selective = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(0, CmpOp::Eq, Value::Int32(77))),
        vec![0, 2],
    );
    let p1 = db.plan(&selective).unwrap();
    assert_eq!(p1.leaf_kinds(), vec![LeafKind::BTree], "{}", p1.explain());

    let scan_all = SelectQuery {
        tables: vec![TableInput::new("t")],
        aggregates: vec![AggItem::column(AggFunc::Sum, ColRef::new(0, 2))],
        ..Default::default()
    };
    let p2 = db.plan(&scan_all).unwrap();
    assert_eq!(
        p2.leaf_kinds(),
        vec![LeafKind::Columnstore],
        "{}",
        p2.explain()
    );
    let r = db.query(&Statement::Select(scan_all)).run().unwrap();
    let expected: i64 = (0..10_000i64).map(|i| i * 3 % 1000).sum();
    assert_eq!(r.scalar(), Some(&Value::Int64(expected)));
}

#[test]
fn join_two_tables() {
    let db = db();
    // fact(id, dim_id, amount), dim(id, category)
    db.create_table(
        "fact",
        Schema::from_pairs(&[
            ("id", DataType::Int32),
            ("dim_id", DataType::Int32),
            ("amount", DataType::Int32),
        ]),
        vec![0],
        btree_primary(),
    )
    .unwrap();
    db.create_table(
        "dim",
        Schema::from_pairs(&[("id", DataType::Int32), ("category", DataType::Int32)]),
        vec![0],
        btree_primary(),
    )
    .unwrap();
    let fact_rows: Vec<Row> = (0..5000)
        .map(|i| {
            Row::new(vec![
                Value::Int32(i),
                Value::Int32(i % 100),
                Value::Int32(1),
            ])
        })
        .collect();
    let dim_rows: Vec<Row> = (0..100)
        .map(|i| Row::new(vec![Value::Int32(i), Value::Int32(i % 5)]))
        .collect();
    db.load_table("fact", fact_rows).unwrap();
    db.load_table("dim", dim_rows).unwrap();

    // SELECT dim.category, sum(fact.amount) WHERE dim.category = 2 GROUP BY..
    let q = SelectQuery {
        tables: vec![
            TableInput::new("fact"),
            TableInput::with_predicate("dim", Expr::col_cmp(1, CmpOp::Eq, Value::Int32(2))),
        ],
        joins: vec![EquiJoin {
            left: ColRef::new(0, 1),
            right: ColRef::new(1, 0),
        }],
        group_by: vec![ColRef::new(1, 1)],
        aggregates: vec![AggItem::column(AggFunc::Sum, ColRef::new(0, 2))],
        ..Default::default()
    };
    let r = db.query(&Statement::Select(q)).run().unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Int32(2));
    // dims with category 2: ids ≡ 2 mod 5 → 20 dims × 50 fact rows each.
    assert_eq!(r.rows[0][1], Value::Int64(1000));
}

/// DS-Q03 of the 13-query TPC-DS set is a star join of `store_sales` and
/// `store` under a GROUP BY. A hash join is batch mode when either input
/// is, so over a columnstore the Project above it stays vectorized: on a
/// columnstore-only design, and on the hybrid the advisor recommends for
/// the set (`store` read through its B+ tree, `store_sales` through a
/// secondary columnstore), no row enters row mode. When the join was always
/// row mode, all 40 000 fact rows did. On B+ trees alone they still do:
/// that is the paper's row/batch asymmetry.
#[test]
fn ds_q03_puts_no_row_through_row_mode_above_a_columnstore() {
    let db = db();
    tpcds::load(&db, DsScale::small()).unwrap();
    let (label, q03) = tpcds::queries(13, 99).swap_remove(2);
    assert_eq!(label, "DS-Q03");
    let names: Vec<&str> = q03.tables.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(names, ["store_sales", "store"]);
    let primary = || IndexDescriptor::PrimaryBTree { keys: vec![0] };
    let csi = |table: &str| IndexDescriptor::SecondaryCsi {
        columns: (0..db.with_table(table, |t| t.schema().len()).unwrap()).collect(),
    };
    let design = |fact: Vec<IndexDescriptor>, store: Vec<IndexDescriptor>| Configuration {
        tables: vec![
            TableDesign::new("store_sales", fact),
            TableDesign::new("store", store),
        ],
    };
    let designs = [
        (
            "csi-only",
            design(
                vec![primary(), csi("store_sales")],
                vec![primary(), csi("store")],
            ),
        ),
        (
            "hybrid",
            design(vec![primary(), csi("store_sales")], vec![primary()]),
        ),
        ("btree-only", design(vec![primary()], vec![primary()])),
    ];
    let mut row_mode = Vec::new();
    for (name, config) in &designs {
        db.apply_configuration(config).unwrap();
        let run = db.query(&Statement::Select(q03.clone())).run().unwrap();
        assert_eq!(run.rows.len(), 10, "{name}");
        let io = run.metrics.io;
        row_mode.push((
            *name,
            io.counted(Work::RowModeRows),
            io.counted(Work::BatchModeRows),
        ));
    }
    assert_eq!(
        row_mode,
        [
            ("csi-only", 0, 40_000),
            ("hybrid", 0, 40_000),
            ("btree-only", 40_000, 0)
        ]
    );
}

/// A scan leaf fans out no further than its own work: a 10-row table is one
/// leaf page, so at `max_dop: 8` its scan starts one lane, though the star
/// join it feeds is worth parallelizing. When every leaf took the plan's
/// DOP it started eight. The fact side, one row group, starts one more.
#[test]
fn a_ten_row_scan_starts_one_lane_at_max_dop_8() {
    let db = Database::new(DbConfig {
        max_dop: 8,
        ..DbConfig::default()
    });
    let pairs = |names: &[&str]| {
        Schema::from_pairs(
            &names
                .iter()
                .map(|&n| (n, DataType::Int32))
                .collect::<Vec<_>>(),
        )
    };
    db.create_table("dim", pairs(&["id", "cat"]), vec![0], btree_primary())
        .unwrap();
    let fact = pairs(&["id", "dim_id", "amount"]);
    (db.create_table("fact", fact, vec![0], IndexDescriptor::PrimaryCsi)).unwrap();
    let row = |vals: &[i32]| Row::new(vals.iter().map(|&v| Value::Int32(v)).collect());
    db.load_table("dim", (0..10).map(|i| row(&[i, i % 3])).collect())
        .unwrap();
    db.load_table("fact", (0..60_000).map(|i| row(&[i, i % 10, 1])).collect())
        .unwrap();
    let q = SelectQuery {
        tables: vec![TableInput::new("fact"), TableInput::new("dim")],
        joins: vec![EquiJoin {
            left: ColRef::new(0, 1),
            right: ColRef::new(1, 0),
        }],
        group_by: vec![ColRef::new(1, 1)],
        aggregates: vec![AggItem::column(AggFunc::Sum, ColRef::new(0, 2))],
        ..Default::default()
    };
    let plan = db.plan(&q).unwrap();
    let scans: Vec<String> = (plan.root.walk())
        .filter(|(_, n)| n.scan().is_some())
        .map(|(_, n)| n.describe(&plan.tables))
        .collect();
    assert_eq!(
        scans,
        [
            "BTreeScan dim idx#0 (dop 1)",
            "CsiScan fact idx#0 [0 elim cols] (dop 1)"
        ],
        "{}",
        plan.explain()
    );
    let run = db.query(&Statement::Select(q)).run().unwrap();
    assert_eq!(run.rows.len(), 3);
    assert_eq!(run.metrics.io.counted(Work::ScanLanes), 2);
}

/// The optimizer's join order puts the smallest table on the left; the
/// grant estimate, and the join the plan is lowered to, both take the build
/// side from `PlanNode::hash_join_build`. A star join therefore asks for
/// the dimension's bytes, builds on the dimension and spills nothing.
#[test]
fn a_star_join_builds_on_the_dimension_and_spills_nothing() {
    let db = db();
    db.create_table(
        "sales",
        Schema::from_pairs(&[
            ("id", DataType::Int32),
            ("store_id", DataType::Int32),
            ("amount", DataType::Int32),
        ]),
        vec![0],
        btree_primary(),
    )
    .unwrap();
    db.create_table(
        "store",
        Schema::from_pairs(&[("id", DataType::Int32), ("state", DataType::Int32)]),
        vec![0],
        btree_primary(),
    )
    .unwrap();
    let sales =
        (0..40_000).map(|i| Row::new(vec![Value::Int32(i), Value::Int32(i % 10), Value::Int32(1)]));
    let stores = (0..10).map(|i| Row::new(vec![Value::Int32(i), Value::Int32(i % 5)]));
    db.load_table("sales", sales.collect()).unwrap();
    db.load_table("store", stores.collect()).unwrap();

    let q = SelectQuery {
        tables: vec![TableInput::new("sales"), TableInput::new("store")],
        joins: vec![EquiJoin {
            left: ColRef::new(0, 1),
            right: ColRef::new(1, 0),
        }],
        group_by: vec![ColRef::new(1, 1)],
        aggregates: vec![AggItem::column(AggFunc::Sum, ColRef::new(0, 2))],
        ..Default::default()
    };
    let plan = db.plan(&q).unwrap();
    let mut node = &plan.root;
    let (side, build) = loop {
        match &node.kind {
            PlanNodeKind::HashJoin { left, right, .. } => {
                break hpd_engine::plan::PlanNode::hash_join_build(left, right)
            }
            _ => node = node.children().next().expect("a join below"),
        }
    };
    assert_eq!(side, hpd_exec::JoinSide::Left, "{}", plan.explain());
    assert_eq!(build.est_rows, 10.0, "{}", plan.explain());
    // Ten (id, state) rows and their bookkeeping: under the minimum grant.
    assert!(plan.root.est_memory_bytes() < 1024, "{}", plan.explain());

    let before = hpd_obs::global().snapshot();
    let r = db.query(&q).analyze().run().unwrap();
    let mut sums: Vec<_> = r
        .rows
        .iter()
        .map(|r| (r[0].clone(), r[1].clone()))
        .collect();
    sums.sort();
    let want: Vec<_> = (0..5)
        .map(|s| (Value::Int32(s), Value::Int64(8_000)))
        .collect();
    assert_eq!(sums, want);
    let report = r.analyze.unwrap();
    assert_eq!(report.spilled_bytes(), 0, "{}", report.render());
    // The join's table and the aggregate's groups are live together, since
    // the join streams its probe into the aggregate: ten build rows of 8
    // bytes and 48 of overhead each, and five groups of a 4-byte key and 48
    // bytes for their one aggregate — the sum `est_memory_bytes` takes.
    assert_eq!(
        r.metrics.memory_peak_bytes,
        10 * (8 + 48) + 5 * (4 + 48),
        "{}",
        report.render()
    );
    let counted = hpd_obs::global().snapshot().delta(&before);
    assert!(counted.counter("exec.hashjoin.build_left") >= 1);
    assert!(counted.counter("exec.hashjoin.build_rows") >= 10);
}

#[test]
fn dml_insert_update_delete_roundtrip() {
    let db = db();
    setup_table(&db, btree_primary(), 100);
    db.create_index(
        "t",
        &IndexDescriptor::SecondaryBTree {
            keys: vec![1],
            includes: vec![2],
        },
    )
    .unwrap();

    // Insert.
    let ins = Statement::Insert(InsertStmt {
        table: "t".into(),
        rows: vec![Row::new(vec![
            Value::Int32(1000),
            Value::Int32(7),
            Value::Int32(999),
        ])],
    });
    db.query(&ins).run().unwrap();

    // Update via predicate on the secondary key.
    let upd = Statement::Update(UpdateStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(1000)),
        top: None,
        set: vec![(
            2,
            Expr::arith(
                hpd_common::BinOp::Add,
                Expr::Col(2),
                Expr::lit(Value::Int32(1)),
            ),
        )],
    });
    let r = db.query(&upd).run().unwrap();
    assert_eq!(r.rows[0][0], Value::Int64(1));

    let q = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(0, CmpOp::Eq, Value::Int32(1000))),
        vec![2],
    );
    let r = db.query(&Statement::Select(q.clone())).run().unwrap();
    assert_eq!(r.rows[0][0], Value::Int32(1000), "999 + 1 after the update");

    // The secondary index sees the updated value too.
    let by_grp = SelectQuery::single_table(
        "t",
        Some(Expr::And(vec![
            Expr::col_cmp(1, CmpOp::Eq, Value::Int32(7)),
            Expr::col_cmp(2, CmpOp::Eq, Value::Int32(1000)),
        ])),
        vec![0],
    );
    let r = db.query(&Statement::Select(by_grp)).run().unwrap();
    assert!(r.rows.iter().any(|row| row[0] == Value::Int32(1000)));

    // Delete.
    let del = Statement::Delete(DeleteStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(1000)),
        top: None,
    });
    let r = db.query(&del).run().unwrap();
    assert_eq!(r.rows[0][0], Value::Int64(1));
    let r = db.query(&Statement::Select(q)).run().unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn update_top_n_limits_affected_rows() {
    let db = db();
    setup_table(&db, btree_primary(), 100);
    let upd = Statement::Update(UpdateStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(1, CmpOp::Eq, Value::Int32(5)),
        top: Some(2),
        set: vec![(2, Expr::lit(Value::Int32(-1)))],
    });
    let r = db.query(&upd).run().unwrap();
    assert_eq!(r.rows[0][0], Value::Int64(2));
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(2, CmpOp::Eq, Value::Int32(-1))),
        vec![0],
    );
    assert_eq!(db.query(&Statement::Select(q)).run().unwrap().rows.len(), 2);
}

#[test]
fn what_if_hypothetical_index_changes_plan() {
    let db = db();
    setup_table(&db, btree_primary(), 50_000);
    // Materialized design: only the primary B+ tree on id. A predicate on
    // val forces a full scan.
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(2, CmpOp::Eq, Value::Int32(123))),
        vec![0, 2],
    );
    let base_plan = db.plan(&q).unwrap();
    assert!(base_plan.explain().contains("BTreeScan"));

    // Hypothetical secondary B+ tree on val.
    let mut metas = db.with_table("t", |t| t.part_metas(0)).unwrap();
    let on_val = IndexDescriptor::SecondaryBTree {
        keys: vec![2],
        includes: vec![],
    };
    metas.push(IndexMeta {
        leaf_pages: 200,
        height: 3,
        hypothetical: true,
        ..IndexMeta::new(on_val, 50_000)
    });
    let overrides = std::collections::HashMap::from([("t".to_string(), vec![metas])]);
    let what_if = db.what_if_plan(&q, &overrides).unwrap();
    assert!(
        what_if.explain().contains("idx#1"),
        "hypothetical index not chosen:\n{}",
        what_if.explain()
    );
    assert!(what_if.est_cost_us < base_plan.est_cost_us);
}

#[test]
fn global_aggregates_push_into_csi() {
    let db = small_rowgroup_db();
    setup_table(&db, IndexDescriptor::PrimaryCsi, 5000);
    // Engage the delete bitmap and the delta store so the encoded fold has
    // to combine all three sources (compressed rowgroups, deletes, delta).
    db.query(&Statement::Delete(DeleteStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(0, CmpOp::Lt, Value::Int32(100)),
        top: None,
    }))
    .run()
    .unwrap();
    db.query(&Statement::Update(UpdateStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(4999)),
        top: None,
        set: vec![(2, Expr::lit(Value::Int32(5555)))],
    }))
    .run()
    .unwrap();

    // Mirror of the table after the DML above.
    let live: Vec<(i64, i64)> = (100..5000i64)
        .map(|i| (i, if i == 4999 { 5555 } else { i * 3 % 1000 }))
        .collect();

    let q = SelectQuery {
        tables: vec![TableInput::with_predicate(
            "t",
            Expr::col_cmp(0, CmpOp::Lt, Value::Int32(4000)),
        )],
        aggregates: vec![
            AggItem::column(AggFunc::Count, ColRef::new(0, 0)),
            AggItem::column(AggFunc::Sum, ColRef::new(0, 2)),
            AggItem::column(AggFunc::Min, ColRef::new(0, 2)),
            AggItem::column(AggFunc::Max, ColRef::new(0, 2)),
            AggItem::column(AggFunc::Avg, ColRef::new(0, 2)),
        ],
        ..Default::default()
    };
    let plan = db.plan(&q).unwrap();
    assert!(
        plan.explain().contains("CsiAgg"),
        "covered global aggregate should push into the CSI:\n{}",
        plan.explain()
    );
    let r = db.query(&Statement::Select(q)).run().unwrap();
    let sel: Vec<i64> = live
        .iter()
        .filter(|(id, _)| *id < 4000)
        .map(|&(_, v)| v)
        .collect();
    let sum: i64 = sel.iter().sum();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Int64(sel.len() as i64));
    assert_eq!(r.rows[0][1], Value::Int64(sum));
    assert_eq!(
        r.rows[0][2],
        Value::Int32(*sel.iter().min().unwrap() as i32)
    );
    assert_eq!(
        r.rows[0][3],
        Value::Int32(*sel.iter().max().unwrap() as i32)
    );
    assert_eq!(r.rows[0][4], Value::Float64(sum as f64 / sel.len() as f64));

    // An uncovered (non-sargable) predicate must keep the row fold.
    let residual = SelectQuery {
        tables: vec![TableInput::with_predicate(
            "t",
            Expr::col_cmp(1, CmpOp::Ne, Value::Int32(3)),
        )],
        aggregates: vec![AggItem::column(AggFunc::Sum, ColRef::new(0, 2))],
        ..Default::default()
    };
    let plan2 = db.plan(&residual).unwrap();
    assert!(!plan2.explain().contains("CsiAgg"), "{}", plan2.explain());
    let r2 = db.query(&Statement::Select(residual)).run().unwrap();
    let expect2: i64 = live
        .iter()
        .filter(|(id, _)| id % 20 != 3)
        .map(|&(_, v)| v)
        .sum();
    assert_eq!(r2.scalar(), Some(&Value::Int64(expect2)));
}

#[test]
fn snapshot_overlay_disables_encoded_agg_fold() {
    // A snapshot overlay (hidden current versions + re-added old versions)
    // cannot be applied inside the encoded fold; the executor must fall
    // back to scan-then-aggregate and still return the snapshot's totals.
    let db = Arc::new(small_rowgroup_db());
    setup_table(&db, IndexDescriptor::PrimaryCsi, 1000);
    let old_sum: i64 = (0..1000i64).map(|i| i * 3 % 1000).sum();

    let si = db.session(IsolationLevel::Snapshot);
    let mut reader = si.begin();
    let q = SelectQuery {
        tables: vec![TableInput::new("t")],
        aggregates: vec![
            AggItem::column(AggFunc::Sum, ColRef::new(0, 2)),
            AggItem::column(AggFunc::Count, ColRef::new(0, 0)),
        ],
        ..Default::default()
    };
    assert_eq!(reader.select(&q).unwrap().rows[0][0], Value::Int64(old_sum));

    db.session(IsolationLevel::ReadCommitted)
        .run(&Statement::Update(UpdateStmt {
            table: "t".into(),
            predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(7)),
            top: None,
            set: vec![(2, Expr::lit(Value::Int32(100_000)))],
        }))
        .unwrap();

    // Current state changed; the snapshot total must not.
    let rc = db
        .session(IsolationLevel::ReadCommitted)
        .run(&Statement::Select(q.clone()))
        .unwrap();
    assert_eq!(rc.rows[0][0], Value::Int64(old_sum - 21 + 100_000));
    let snap = reader.select(&q).unwrap();
    assert_eq!(snap.rows[0][0], Value::Int64(old_sum));
    assert_eq!(snap.rows[0][1], Value::Int64(1000));
    reader.abort();
}

#[test]
fn snapshot_isolation_sees_old_version() {
    let db = Arc::new(db());
    setup_table(&db, btree_primary(), 100);

    let si = db.session(IsolationLevel::Snapshot);
    let mut reader = si.begin();
    // Establish the snapshot with a first read.
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(0, CmpOp::Eq, Value::Int32(5))),
        vec![2],
    );
    let before = reader.select(&q).unwrap().rows[0][0].clone();

    // A concurrent writer updates row 5 and commits.
    let rc = db.session(IsolationLevel::ReadCommitted);
    rc.run(&Statement::Update(UpdateStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(5)),
        top: None,
        set: vec![(2, Expr::lit(Value::Int32(-777)))],
    }))
    .unwrap();

    // RC sees the new value; the snapshot reader still sees the old one.
    let rc_val = rc.run(&Statement::Select(q.clone())).unwrap().rows[0][0].clone();
    assert_eq!(rc_val, Value::Int32(-777));
    let after = reader.select(&q).unwrap().rows[0][0].clone();
    assert_eq!(after, before, "snapshot read must be stable");
    reader.abort();
}

#[test]
fn snapshot_overlay_rows_respect_pushed_down_intervals() {
    // On a columnstore the planner folds a fully-covered predicate into the
    // scan's intervals and drops the residual filter; old row versions
    // re-added for snapshot correction must honor those intervals too.
    let db = Arc::new(small_rowgroup_db());
    setup_table(&db, IndexDescriptor::PrimaryCsi, 100);

    let si = db.session(IsolationLevel::Snapshot);
    let mut reader = si.begin();
    // Row 5 has val = 15 at the snapshot.
    let by_old = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(2, CmpOp::Eq, Value::Int32(15))),
        vec![0, 2],
    );
    assert_eq!(reader.select(&by_old).unwrap().rows.len(), 1);

    db.session(IsolationLevel::ReadCommitted)
        .run(&Statement::Update(UpdateStmt {
            table: "t".into(),
            predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(5)),
            top: None,
            set: vec![(2, Expr::lit(Value::Int32(-777)))],
        }))
        .unwrap();

    // The old version still matches its own value...
    let rows = reader.select(&by_old).unwrap().rows;
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::Int32(5));
    assert_eq!(rows[0][1], Value::Int32(15));
    // ...and must NOT surface under a predicate only the new version
    // satisfies (the new version itself is hidden by the snapshot).
    let by_new = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(2, CmpOp::Eq, Value::Int32(-777))),
        vec![0, 2],
    );
    assert_eq!(reader.select(&by_new).unwrap().rows.len(), 0);
    reader.abort();
}

/// A snapshot read that has a rewritten row to correct runs the plan it
/// reports: the correction is a `Snapshot` node the optimizer placed, so
/// no encoded fold or index nested-loop join is named that never ran.
#[test]
fn snapshot_reads_run_the_plan_they_report() {
    let db = Arc::new(small_rowgroup_db());
    setup_table(&db, IndexDescriptor::PrimaryCsi, 1000);
    // `d(id, v)` behind a B+ tree primary, probed per row of `t`'s ids 0..4.
    let schema = Schema::from_pairs(&[("id", DataType::Int32), ("v", DataType::Int32)]);
    db.create_table("d", schema, vec![0], btree_primary())
        .unwrap();
    let d_rows = (0..20_000).map(|i| Row::new(vec![Value::Int32(i), Value::Int32(i * 10)]));
    db.load_table("d", d_rows.collect()).unwrap();
    let totals = SelectQuery {
        tables: vec![TableInput::new("t")],
        aggregates: vec![
            AggItem::column(AggFunc::Sum, ColRef::new(0, 2)),
            AggItem::column(AggFunc::Count, ColRef::new(0, 0)),
        ],
        ..Default::default()
    };
    let join = SelectQuery {
        tables: vec![
            TableInput::with_predicate("t", Expr::col_cmp(0, CmpOp::Lt, Value::Int32(4))),
            TableInput::new("d"),
        ],
        joins: vec![EquiJoin {
            left: ColRef::new(0, 0),
            right: ColRef::new(1, 0),
        }],
        select: vec![ColRef::new(0, 0), ColRef::new(1, 1)],
        order_by: vec![(0, true)],
        ..Default::default()
    };
    // Nothing to correct: the fold and the seeks are the cheapest.
    assert!(db.plan(&totals).unwrap().explain().contains("CsiAgg"));
    let explain = db.plan(&join).unwrap().explain();
    assert!(explain.contains("IndexNLJoin inner=d"), "{explain}");

    let si = db.session(IsolationLevel::Snapshot);
    let mut reader = si.begin();
    let old_totals = reader.select(&totals).unwrap().rows;
    let old_join = reader.select(&join).unwrap().rows;
    let old_sum: i64 = (0..1000i64).map(|i| i * 3 % 1000).sum();
    assert_eq!(old_totals[0][0], Value::Int64(old_sum));
    let rc = db.session(IsolationLevel::ReadCommitted);
    // Rewrite `t`'s val and `d`'s v of one row each.
    for (table, id, col) in [("t", 7, 2), ("d", 2, 1)] {
        rc.run(&Statement::Update(UpdateStmt {
            table: table.into(),
            predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(id)),
            top: None,
            set: vec![(col, Expr::lit(Value::Int32(-1)))],
        }))
        .unwrap();
    }
    let now = rc.run(&Statement::Select(totals.clone())).unwrap().rows;
    assert_eq!(now[0][0], Value::Int64(old_sum - 21 - 1));

    let run = reader.select_analyzed(&totals).unwrap();
    let report = run.analyze.expect("analyzed");
    let labels: Vec<(usize, &str)> = (report.nodes.iter())
        .map(|n| (n.depth, n.label.as_str()))
        .collect();
    let snapshot = (labels.iter())
        .position(|(_, l)| l.starts_with("Snapshot t"))
        .unwrap_or_else(|| panic!("no Snapshot node: {}", report.render()));
    let (depth, scan) = labels[snapshot + 1];
    assert!(
        depth == labels[snapshot].0 + 1 && scan.starts_with("CsiScan t"),
        "{}",
        report.render()
    );
    assert!(
        labels.iter().all(|(_, l)| !l.starts_with("CsiAgg")),
        "{}",
        report.render()
    );
    assert_eq!(run.metrics.io.counted(Work::AggPushdownRowgroups), 0);
    assert_eq!(run.rows, old_totals);

    let run = reader.select_analyzed(&join).unwrap();
    let report = run.analyze.expect("analyzed");
    assert!(
        (report.nodes.iter()).all(|n| !n.label.starts_with("IndexNLJoin")),
        "{}",
        report.render()
    );
    assert_eq!(run.rows, old_join);
    assert_eq!(old_join[2].values(), [Value::Int32(2), Value::Int32(20)]);
    reader.abort();
}

/// The lanes of a parallel columnstore scan share one anti-join probe of
/// the buffered deletes, and its page reads are the statement's: at DOP 4
/// the scan reads what it reads at DOP 1.
#[test]
fn a_parallel_csi_scan_counts_its_delete_buffer_probe() {
    use hpd_engine::plan::{PhysicalPlan, PlanCol, PlanNode, PlanTable};
    use hpd_engine::{IndexId, QueryRunner};
    let db = small_rowgroup_db();
    setup_table(&db, btree_primary(), 4000);
    db.create_index(
        "t",
        &IndexDescriptor::SecondaryCsi {
            columns: vec![0, 2],
        },
    )
    .unwrap();
    db.query(&Statement::Delete(DeleteStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(0, CmpOp::Lt, Value::Int32(500)),
        top: None,
    }))
    .run()
    .unwrap();
    let metas = db.with_table("t", |t| t.part_metas(0)).unwrap();
    assert!(metas[1].delete_buffer_rows > 0, "{metas:?}");
    let reads = |dop: usize| {
        let scan = PlanNode::new(
            PlanNodeKind::CsiScan {
                table: 0,
                part: 0,
                index: IndexId(1),
                intervals: Default::default(),
                dop,
            },
            vec![PlanCol::Base(0, 2)],
            vec![DataType::Int32],
            3500.0,
        );
        let plan = PhysicalPlan {
            root: scan,
            tables: vec![PlanTable {
                name: "t".into(),
                parts: 1,
            }],
            est_cost_us: 0.0,
            est_cpu_us: 0.0,
        };
        let run = db
            .with_table("t", |t| {
                QueryRunner::new(vec![t], db.pool(), 64 << 20).run(&plan)
            })
            .unwrap()
            .unwrap();
        assert_eq!(run.rows.len(), 3500);
        assert_eq!(run.metrics.io.counted(Work::ScanLanes), dop as u64);
        run.metrics.io.logical_reads
    };
    // Warm the segment cache, then compare.
    reads(1);
    assert_eq!(reads(4), reads(1));
}

#[test]
fn snapshot_write_write_conflict_fails() {
    let db = db();
    setup_table(&db, btree_primary(), 10);
    let si = db.session(IsolationLevel::Snapshot);
    let mut t1 = si.begin();
    // Take the snapshot.
    let q = SelectQuery::single_table("t", None, vec![0]);
    t1.select(&q).unwrap();

    // Concurrent committed write to row 3.
    db.session(IsolationLevel::ReadCommitted)
        .run(&Statement::Update(UpdateStmt {
            table: "t".into(),
            predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(3)),
            top: None,
            set: vec![(2, Expr::lit(Value::Int32(0)))],
        }))
        .unwrap();

    // t1 now updates the same row: first-committer-wins must fire.
    let res = t1.update(&UpdateStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(3)),
        top: None,
        set: vec![(2, Expr::lit(Value::Int32(1)))],
    });
    assert!(
        matches!(res, Err(hpd_common::HpdError::SerializationFailure(_))),
        "got {res:?}"
    );
    t1.abort();
}

#[test]
fn version_gc_prunes_write_timestamps_with_the_versions_they_bound() {
    let db = db();
    setup_table(&db, btree_primary(), 2_000);
    let rc = db.session(IsolationLevel::ReadCommitted);
    let touch = |id: i32| {
        rc.run(&Statement::Update(UpdateStmt {
            table: "t".into(),
            predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(id)),
            top: None,
            set: vec![(2, Expr::lit(Value::Int32(-id)))],
        }))
        .unwrap();
    };
    let tracked = || {
        db.with_table("t", |t| (t.tracked_write_count(), t.version_count()))
            .unwrap()
    };
    // GC runs every 256th commit. With no snapshot open every earlier write
    // is behind the horizon, so both maps hold what was written since the
    // last pass and not every key ever written.
    for id in 0..1_000 {
        touch(id);
    }
    let (writes, versions) = tracked();
    assert!(writes < 256 && versions < 256, "{writes} / {versions}");

    // An open snapshot pins the horizon: everything written after it stays,
    // both to correct its reads and to fail its conflicting writes.
    let si = db.session(IsolationLevel::Snapshot);
    let mut reader = si.begin();
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(0, CmpOp::Lt, Value::Int32(2_000))),
        vec![0, 2],
    );
    let before = reader.select(&q).unwrap().rows;
    for id in 1_000..1_600 {
        touch(id);
    }
    let (writes, versions) = tracked();
    assert!(writes >= 600 && versions >= 600, "{writes} / {versions}");
    let mut after = reader.select(&q).unwrap().rows;
    let mut expected = before;
    after.sort();
    expected.sort();
    assert_eq!(after, expected, "snapshot read must be stable");
    let conflict = reader.update(&UpdateStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(1_500)),
        top: None,
        set: vec![(2, Expr::lit(Value::Int32(1)))],
    });
    assert!(
        matches!(conflict, Err(hpd_common::HpdError::SerializationFailure(_))),
        "got {conflict:?}"
    );
    // A row whose timestamp was pruned before the snapshot began reads as
    // never rewritten: no conflict.
    reader
        .update(&UpdateStmt {
            table: "t".into(),
            predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(3)),
            top: None,
            set: vec![(2, Expr::lit(Value::Int32(1)))],
        })
        .unwrap();
    reader.abort();

    // With the snapshot gone the next passes drop them all again.
    for id in 1_600..2_000 {
        touch(id);
    }
    let (writes, versions) = tracked();
    assert!(writes < 256 && versions < 256, "{writes} / {versions}");
}

#[test]
fn serializable_reader_blocks_writer() {
    let db = Arc::new(Database::new(DbConfig {
        lock_timeout: Duration::from_millis(120),
        ..DbConfig::default()
    }));
    setup_table(&db, btree_primary(), 50);

    let sr = db.session(IsolationLevel::Serializable);
    let mut reader = sr.begin();
    reader
        .select(&SelectQuery::single_table("t", None, vec![0]))
        .unwrap();

    // Writer times out on the table lock while the SR reader is open.
    let db2 = Arc::clone(&db);
    let h = std::thread::spawn(move || {
        db2.session(IsolationLevel::ReadCommitted)
            .run(&Statement::Update(UpdateStmt {
                table: "t".into(),
                predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(1)),
                top: None,
                set: vec![(2, Expr::lit(Value::Int32(0)))],
            }))
    });
    let res = h.join().unwrap();
    assert!(
        matches!(res, Err(hpd_common::HpdError::LockTimeout(_))),
        "writer should block under a serializable reader: {res:?}"
    );
    reader.abort();

    // After the reader is gone the writer succeeds.
    db.session(IsolationLevel::ReadCommitted)
        .run(&Statement::Update(UpdateStmt {
            table: "t".into(),
            predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(1)),
            top: None,
            set: vec![(2, Expr::lit(Value::Int32(0)))],
        }))
        .unwrap();
}

#[test]
fn write_write_conflict_blocks_under_rc() {
    let db = Arc::new(Database::new(DbConfig {
        lock_timeout: Duration::from_millis(100),
        ..DbConfig::default()
    }));
    setup_table(&db, btree_primary(), 10);
    let rc = db.session(IsolationLevel::ReadCommitted);
    let mut t1 = rc.begin();
    t1.update(&UpdateStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(4)),
        top: None,
        set: vec![(2, Expr::lit(Value::Int32(1)))],
    })
    .unwrap();

    // A second writer on the same row times out while t1 holds the lock.
    let db2 = Arc::clone(&db);
    let h = std::thread::spawn(move || {
        db2.session(IsolationLevel::ReadCommitted)
            .run(&Statement::Update(UpdateStmt {
                table: "t".into(),
                predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(4)),
                top: None,
                set: vec![(2, Expr::lit(Value::Int32(2)))],
            }))
    });
    assert!(matches!(
        h.join().unwrap(),
        Err(hpd_common::HpdError::LockTimeout(_))
    ));
    t1.commit().unwrap();

    // Now it goes through.
    db.session(IsolationLevel::ReadCommitted)
        .run(&Statement::Update(UpdateStmt {
            table: "t".into(),
            predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(4)),
            top: None,
            set: vec![(2, Expr::lit(Value::Int32(2)))],
        }))
        .unwrap();
}

#[test]
fn csi_primary_dml_roundtrip() {
    let db = small_rowgroup_db();
    setup_table(&db, IndexDescriptor::PrimaryCsi, 1000);
    db.query(&Statement::Insert(InsertStmt {
        table: "t".into(),
        rows: vec![Row::new(vec![
            Value::Int32(5000),
            Value::Int32(1),
            Value::Int32(1),
        ])],
    }))
    .run()
    .unwrap();
    db.query(&Statement::Update(UpdateStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(10)),
        top: None,
        set: vec![(2, Expr::lit(Value::Int32(-5)))],
    }))
    .run()
    .unwrap();
    db.query(&Statement::Delete(DeleteStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(11)),
        top: None,
    }))
    .run()
    .unwrap();
    let all = SelectQuery::single_table("t", None, vec![0, 2]);
    let rows = db.query(&Statement::Select(all)).run().unwrap().rows;
    assert_eq!(rows.len(), 1000, "1000 - 1 deleted + 1 inserted");
    assert!(rows
        .iter()
        .any(|r| r[0] == Value::Int32(10) && r[1] == Value::Int32(-5)));
    assert!(!rows.iter().any(|r| r[0] == Value::Int32(11)));
    assert!(rows.iter().any(|r| r[0] == Value::Int32(5000)));
}

#[test]
fn explain_is_readable_and_costed() {
    let db = db();
    setup_table(&db, btree_primary(), 1000);
    let q = SelectQuery {
        tables: vec![TableInput::new("t")],
        group_by: vec![ColRef::new(0, 1)],
        aggregates: vec![AggItem::column(AggFunc::Count, ColRef::new(0, 0))],
        ..Default::default()
    };
    let plan = db.plan(&q).unwrap();
    let text = plan.explain();
    assert!(text.contains("rows≈"));
    assert!(plan.est_cost_us > 0.0);
    assert!(plan.est_cpu_us > 0.0);
}

/// Lost-update check: concurrent increments through row locks must all
/// land (the classic bank-balance test), under RC and SR.
#[test]
fn concurrent_increments_are_not_lost() {
    for isolation in [IsolationLevel::ReadCommitted, IsolationLevel::Serializable] {
        let db = Arc::new(Database::new(DbConfig {
            lock_timeout: Duration::from_secs(10),
            ..DbConfig::default()
        }));
        setup_table(&db, btree_primary(), 4);
        let threads = 4;
        let per_thread = 25;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    let session = db.session(isolation);
                    for _ in 0..per_thread {
                        loop {
                            let r = session.run(&Statement::Update(UpdateStmt {
                                table: "t".into(),
                                predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(1)),
                                top: None,
                                set: vec![(
                                    2,
                                    Expr::arith(
                                        hpd_common::BinOp::Add,
                                        Expr::Col(2),
                                        Expr::lit(Value::Int32(1)),
                                    ),
                                )],
                            }));
                            match r {
                                Ok(_) => break,
                                Err(hpd_common::HpdError::LockTimeout(_)) => continue,
                                Err(e) => panic!("{isolation:?}: {e}"),
                            }
                        }
                    }
                });
            }
        });
        let q = SelectQuery::single_table(
            "t",
            Some(Expr::col_cmp(0, CmpOp::Eq, Value::Int32(1))),
            vec![2],
        );
        let v = db.query(&Statement::Select(q)).run().unwrap().rows[0][0]
            .as_i32()
            .unwrap();
        let initial = 3;
        assert_eq!(
            v,
            initial + (threads * per_thread),
            "{isolation:?}: increments lost"
        );
    }
}

/// Regression for the serializable-writer livelock: each UPDATE used to
/// take IX on the table and then request S for its target-row scan, so two
/// concurrent serializable writers blocked on each other's IX, timed out
/// together, and retried into exactly the same state — a ~10% hang of
/// `concurrent_increments_are_not_lost` at default thread interleavings.
/// Writers now take SIX up front, which serializes them at the first table
/// touch, so the whole workload must finish in bounded time even with a
/// lock timeout long enough that one livelock round would blow the budget.
#[test]
fn serializable_writers_finish_in_bounded_time() {
    let db = Arc::new(Database::new(DbConfig {
        lock_timeout: Duration::from_secs(5),
        ..DbConfig::default()
    }));
    setup_table(&db, btree_primary(), 4);
    let threads = 8;
    let per_thread = 16;
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let db = Arc::clone(&db);
            scope.spawn(move || {
                let session = db.session(IsolationLevel::Serializable);
                for _ in 0..per_thread {
                    loop {
                        let r = session.run(&Statement::Update(UpdateStmt {
                            table: "t".into(),
                            predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(1)),
                            top: None,
                            set: vec![(
                                2,
                                Expr::arith(
                                    hpd_common::BinOp::Add,
                                    Expr::Col(2),
                                    Expr::lit(Value::Int32(1)),
                                ),
                            )],
                        }));
                        match r {
                            Ok(_) => break,
                            Err(hpd_common::HpdError::LockTimeout(_)) => continue,
                            Err(e) => panic!("{e}"),
                        }
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(60),
        "serializable writers livelocked: {elapsed:?} for {} increments",
        threads * per_thread
    );
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(0, CmpOp::Eq, Value::Int32(1))),
        vec![2],
    );
    let v = db.query(&Statement::Select(q)).run().unwrap().rows[0][0]
        .as_i32()
        .unwrap();
    assert_eq!(v, 3 + (threads * per_thread), "increments lost");
}

/// Snapshot write-skew is *allowed* under SI (first-committer-wins only
/// protects the same row); under Serializable, the coarse table locks
/// prevent it. This documents the intended isolation semantics.
#[test]
fn snapshot_allows_disjoint_writes() {
    let db = Database::new(DbConfig::default());
    setup_table(&db, btree_primary(), 10);
    let si = db.session(IsolationLevel::Snapshot);
    let mut t1 = si.begin();
    let mut t2 = si.begin();
    t1.update(&UpdateStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(1)),
        top: None,
        set: vec![(2, Expr::lit(Value::Int32(-1)))],
    })
    .unwrap();
    t2.update(&UpdateStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(2)),
        top: None,
        set: vec![(2, Expr::lit(Value::Int32(-2)))],
    })
    .unwrap();
    t1.commit().unwrap();
    t2.commit().unwrap(); // disjoint rows: both commit fine
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(2, CmpOp::Lt, Value::Int32(0))),
        vec![0, 2],
    );
    assert_eq!(db.query(&Statement::Select(q)).run().unwrap().rows.len(), 2);
}

/// The same rows give the same `SUM` — or the same error — under every
/// design. The row-mode fold used to check its range after every row and
/// the pushed-down fold once at the end, so a sum that leaves `i64` on the
/// way to a total inside it failed on a B+ tree and answered on a
/// columnstore; and one whose total is outside must fail on both.
#[test]
fn sum_agrees_across_designs_on_transient_overflow() {
    let sum_of = |values: [i64; 3], with_csi: bool| {
        let db = db();
        let schema = Schema::from_pairs(&[("id", DataType::Int32), ("val", DataType::Int64)]);
        db.create_table("t", schema, vec![0], btree_primary())
            .unwrap();
        let rows = (0..)
            .zip(values)
            .map(|(id, val)| Row::new(vec![Value::Int32(id), Value::Int64(val)]));
        db.load_table("t", rows.collect()).unwrap();
        if with_csi {
            let columns = vec![0, 1];
            db.create_index("t", &IndexDescriptor::SecondaryCsi { columns })
                .unwrap();
        }
        let q = SelectQuery {
            tables: vec![TableInput::new("t")],
            aggregates: vec![AggItem::column(AggFunc::Sum, ColRef::new(0, 1))],
            ..Default::default()
        };
        let leaf = if with_csi {
            LeafKind::Columnstore
        } else {
            LeafKind::BTree
        };
        assert_eq!(db.plan(&q).unwrap().leaf_kinds(), vec![leaf]);
        db.query(&Statement::Select(q))
            .run()
            .map(|r| r.rows)
            .map_err(|e| e.to_string())
    };
    let inside = [i64::MAX, 1, -2];
    assert_eq!(
        sum_of(inside, false),
        Ok(vec![Row::new(vec![Value::Int64(i64::MAX - 1)])])
    );
    assert_eq!(sum_of(inside, true), sum_of(inside, false));
    let outside = [i64::MAX, 1, 1];
    let refused = sum_of(outside, false).unwrap_err();
    assert!(refused.contains("SUM overflow"), "{refused}");
    assert_eq!(sum_of(outside, true), Err(refused));
}

/// An `IndexId` is a position in a part's index list, so a plan kept across
/// a design change that moves the positions names something else. The runner
/// refuses a position that now holds an index of the other kind, or none —
/// it never answers from whichever index happens to be there.
#[test]
fn a_stale_plan_naming_the_wrong_index_is_refused() {
    use hpd_common::HpdError;
    use hpd_engine::{QueryRunner, TableDesign};
    let db = small_rowgroup_db();
    setup_table(&db, btree_primary(), 4_000);
    let csi = IndexDescriptor::SecondaryCsi {
        columns: vec![0, 1, 2],
    };
    let on_val = IndexDescriptor::SecondaryBTree {
        keys: vec![2],
        includes: vec![1],
    };
    let run = |plan: &hpd_engine::PhysicalPlan| {
        db.with_table("t", |t| {
            QueryRunner::new(vec![t], db.pool(), 1 << 20).run(plan)
        })
        .unwrap()
    };
    let refused = |plan: &hpd_engine::PhysicalPlan, why: &str| match run(plan) {
        Err(HpdError::Internal(msg)) => assert!(msg.contains(why), "{msg}"),
        other => panic!(
            "expected an internal error ({why}), got {:?}",
            other.map(|answer| answer.rows.len())
        ),
    };
    let redesign = |indexes: Vec<IndexDescriptor>| {
        db.apply_design(&TableDesign::new("t", indexes)).unwrap();
    };

    // Design A: the columnstore is index 1, and a wide scan reads it.
    redesign(vec![btree_primary(), csi.clone()]);
    let scan = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(2, CmpOp::Lt, Value::Int32(900))),
        vec![1, 2],
    );
    let through_csi = db.plan(&scan).unwrap();
    assert_eq!(through_csi.leaf_kinds(), vec![LeafKind::Columnstore]);
    assert_eq!(through_csi.index_refs(), vec![(0, hpd_engine::IndexId(1))]);
    let answer = run(&through_csi).unwrap().rows.len();

    // Design B: a B+ tree takes position 1, the columnstore moves to 2.
    redesign(vec![btree_primary(), on_val, csi.clone()]);
    refused(&through_csi, "expects a columnstore");
    assert_eq!(run(&db.plan(&scan).unwrap()).unwrap().rows.len(), answer);
    let seek = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(2, CmpOp::Eq, Value::Int32(300))),
        vec![1, 2],
    );
    let through_btree = db.plan(&seek).unwrap();
    assert_eq!(
        through_btree.index_refs(),
        vec![(0, hpd_engine::IndexId(1))]
    );
    assert_eq!(run(&through_btree).unwrap().rows.len(), 4);

    // Design A again: position 1 is the columnstore, position 2 is gone.
    redesign(vec![btree_primary(), csi]);
    refused(&through_btree, "expects a B+ tree");
    redesign(vec![btree_primary()]);
    refused(&through_csi, "index 1 of part 0");
}
