//! Optimizer-focused tests: access-path choice, composite-key seeks,
//! aggregation strategy, DOP selection, and what-if sensitivity.

use hpd_common::{AggFunc, CmpOp, DataType, Expr, Row, Schema, Value};
use hpd_engine::{
    AggItem, ColRef, Database, DbConfig, IndexDescriptor, PlanNodeKind, SelectQuery, Statement,
    TableInput,
};
use hpd_storage::DeviceProfile;

fn db_hdd() -> Database {
    let mut cfg = DbConfig {
        device: DeviceProfile::hdd_scaled(40.0),
        ..DbConfig::default()
    };
    cfg.csi.rowgroup_capacity = 4_096;
    Database::new(cfg)
}

/// t(w, d, k, v): composite pk (w, d, k).
fn setup_composite(db: &Database, n: i32) {
    db.create_table(
        "t",
        Schema::from_pairs(&[
            ("w", DataType::Int32),
            ("d", DataType::Int32),
            ("k", DataType::Int32),
            ("v", DataType::Int32),
        ]),
        vec![0, 1, 2],
        IndexDescriptor::PrimaryBTree {
            keys: vec![0, 1, 2],
        },
    )
    .unwrap();
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Int32(i % 4),
                Value::Int32(i / 4 % 10),
                Value::Int32(i / 40),
                Value::Int32(i),
            ])
        })
        .collect();
    db.load_table("t", rows).unwrap();
}

#[test]
fn composite_equality_prefix_seek() {
    let db = db_hdd();
    setup_composite(&db, 40_000);
    // Full-prefix equality on (w, d, k).
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::And(vec![
            Expr::col_cmp(0, CmpOp::Eq, Value::Int32(2)),
            Expr::col_cmp(1, CmpOp::Eq, Value::Int32(3)),
            Expr::col_cmp(2, CmpOp::Eq, Value::Int32(7)),
        ])),
        vec![3],
    );
    let plan = db.plan(&q).unwrap();
    assert!(
        matches!(find_leaf(&plan.root), Some(PlanNodeKind::BTreeSeek { .. })),
        "{}",
        plan.explain()
    );
    let r = db.query(&Statement::Select(q)).run().unwrap();
    assert_eq!(r.rows.len(), 1);
    assert!(
        r.metrics.io.logical_reads < 10,
        "prefix seek touches few pages"
    );
}

#[test]
fn equality_prefix_plus_range_seek() {
    let db = db_hdd();
    setup_composite(&db, 40_000);
    // w = 1, d in [2, 5): equality prefix + range on the next key column.
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::And(vec![
            Expr::col_cmp(0, CmpOp::Eq, Value::Int32(1)),
            Expr::col_cmp(1, CmpOp::Ge, Value::Int32(2)),
            Expr::col_cmp(1, CmpOp::Lt, Value::Int32(5)),
        ])),
        vec![0, 1, 3],
    );
    let plan = db.plan(&q).unwrap();
    assert!(
        matches!(find_leaf(&plan.root), Some(PlanNodeKind::BTreeSeek { .. })),
        "{}",
        plan.explain()
    );
    let r = db.query(&Statement::Select(q)).run().unwrap();
    let expected = (0..40_000)
        .filter(|i| i % 4 == 1 && (2..5).contains(&(i / 4 % 10)))
        .count();
    assert_eq!(r.rows.len(), expected);
    assert!(r
        .rows
        .iter()
        .all(|row| row[0] == Value::Int32(1) && (2..5).contains(&row[1].as_i32().unwrap())));
}

#[test]
fn group_by_on_key_prefix_streams() {
    let db = db_hdd();
    setup_composite(&db, 20_000);
    let q = SelectQuery {
        tables: vec![TableInput::new("t")],
        group_by: vec![ColRef::new(0, 0)],
        aggregates: vec![AggItem::column(AggFunc::Sum, ColRef::new(0, 3))],
        ..Default::default()
    };
    let plan = db.plan(&q).unwrap();
    assert!(
        plan.explain().contains("StreamAgg"),
        "group on pk prefix should stream:\n{}",
        plan.explain()
    );
    // A group on a non-prefix column must hash.
    let q2 = SelectQuery {
        group_by: vec![ColRef::new(0, 3)],
        ..q
    };
    let plan2 = db.plan(&q2).unwrap();
    assert!(plan2.explain().contains("HashAgg"), "{}", plan2.explain());
}

#[test]
fn dop_grows_with_work() {
    let db = db_hdd();
    setup_composite(&db, 100_000);
    // Tiny seek: serial.
    let selective = SelectQuery::single_table(
        "t",
        Some(Expr::And(vec![
            Expr::col_cmp(0, CmpOp::Eq, Value::Int32(0)),
            Expr::col_cmp(1, CmpOp::Eq, Value::Int32(0)),
            Expr::col_cmp(2, CmpOp::Eq, Value::Int32(5)),
        ])),
        vec![3],
    );
    assert_eq!(db.plan(&selective).unwrap().max_dop(), 1);
    // Whole-table aggregate: parallel.
    let big = SelectQuery {
        tables: vec![TableInput::new("t")],
        group_by: vec![ColRef::new(0, 3)],
        aggregates: vec![AggItem::column(AggFunc::Count, ColRef::new(0, 3))],
        ..Default::default()
    };
    assert!(db.plan(&big).unwrap().max_dop() > 1);
}

#[test]
fn what_if_cost_scales_with_hypothetical_size() {
    let db = db_hdd();
    setup_composite(&db, 50_000);
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(3, CmpOp::Lt, Value::Int32(100))),
        vec![3],
    );
    let mk = |leaf_pages: usize| {
        let mut metas = db.with_table("t", |t| t.part_metas(0)).unwrap();
        metas.push(hpd_engine::IndexMeta {
            descriptor: IndexDescriptor::SecondaryBTree {
                keys: vec![3],
                includes: vec![],
            },
            rows: 50_000,
            leaf_pages,
            height: 3,
            column_bytes: vec![],
            column_encodings: vec![],
            rowgroups: 0,
            delta_rows: 0,
            delete_buffer_rows: 0,
            hypothetical: true,
        });
        std::collections::HashMap::from([("t".to_string(), vec![metas])])
    };
    let small = db.what_if_plan(&q, &mk(100)).unwrap().est_cost_us;
    let large = db.what_if_plan(&q, &mk(100_000)).unwrap().est_cost_us;
    assert!(small <= large, "bigger hypothetical index can't be cheaper");
}

#[test]
fn covering_secondary_beats_lookup_plan() {
    let db = db_hdd();
    setup_composite(&db, 60_000);
    // Non-covering secondary on v: plan needs PkLookup for column 2.
    db.create_index(
        "t",
        &IndexDescriptor::SecondaryBTree {
            keys: vec![3],
            includes: vec![],
        },
    )
    .unwrap();
    let q_lookup = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(3, CmpOp::Eq, Value::Int32(123))),
        vec![3, 0, 1, 2],
    );
    let plan = db.plan(&q_lookup).unwrap();
    // pk (w,d,k) is the locator and is stored in the secondary, so this is
    // actually covering; ask for nothing beyond it and verify a plain seek.
    assert!(
        plan.explain().contains("idx#1"),
        "secondary chosen:\n{}",
        plan.explain()
    );
    let r = db.query(&Statement::Select(q_lookup)).run().unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Int32(123));
}

fn find_leaf(node: &hpd_engine::plan::PlanNode) -> Option<PlanNodeKind> {
    match &node.kind {
        PlanNodeKind::BTreeSeek { .. }
        | PlanNodeKind::BTreeScan { .. }
        | PlanNodeKind::CsiScan { .. }
        | PlanNodeKind::CsiAgg { .. } => Some(node.kind.clone()),
        PlanNodeKind::PartitionedScan { parts, .. } => parts.first().and_then(find_leaf),
        PlanNodeKind::PkLookup { child, .. }
        | PlanNodeKind::Filter { child, .. }
        | PlanNodeKind::Project { child, .. }
        | PlanNodeKind::HashAgg { child, .. }
        | PlanNodeKind::StreamAgg { child, .. }
        | PlanNodeKind::Sort { child, .. }
        | PlanNodeKind::Limit { child, .. } => find_leaf(child),
        PlanNodeKind::IndexNLJoin { outer, .. } => find_leaf(outer),
        PlanNodeKind::HashJoin { left, .. } => find_leaf(left),
    }
}
