//! The optimizer's plan-choice counters count what Figure 10 counts: each
//! planned statement adds its `PhysicalPlan::leaf_kinds` to
//! `optimizer.leaf_btree` / `optimizer.leaf_csi`, and a plan holding both to
//! `optimizer.hybrid_plans` — `PkLookup` and `IndexNLJoin` included, which
//! read a B+ tree besides their input. The counters are process-wide, so
//! this file holds one test: no other test plans while it counts.

use hpd_common::{CmpOp, DataType, Expr, Row, Schema, Value};
use hpd_engine::plan::PlanNode;
use hpd_engine::{
    ColRef, Database, DbConfig, EquiJoin, IndexDescriptor, LeafKind, PhysicalPlan, SelectQuery,
    Statement, TableInput,
};

const COUNTERS: [&str; 3] = [
    "optimizer.leaf_btree",
    "optimizer.leaf_csi",
    "optimizer.hybrid_plans",
];

/// `name(id, v, w)`, `n` rows: id unique, v = id * 7 % n, w = id % 50.
fn table(db: &Database, name: &str, n: i32, secondaries: &[IndexDescriptor]) {
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int32),
        ("v", DataType::Int32),
        ("w", DataType::Int32),
    ]);
    let primary = IndexDescriptor::PrimaryBTree { keys: vec![0] };
    db.create_table(name, schema, vec![0], primary).unwrap();
    let rows = (0..n).map(|i| {
        Row::new(vec![
            Value::Int32(i),
            Value::Int32(i * 7 % n),
            Value::Int32(i % 50),
        ])
    });
    db.load_table(name, rows.collect()).unwrap();
    for d in secondaries {
        db.create_index(name, d).unwrap();
    }
}

/// Plan `query` and return the plan with the counters' deltas.
fn plan_counted(db: &Database, query: &SelectQuery) -> (PhysicalPlan, [u64; 3]) {
    let base = hpd_obs::global().snapshot();
    let plan = db.plan(query).unwrap();
    let delta = hpd_obs::global().snapshot().delta(&base);
    (plan, COUNTERS.map(|c| delta.counter(c)))
}

/// What Figure 10 counts of `plan`, as the counters' deltas should read.
fn fig10_counts(plan: &PhysicalPlan) -> [u64; 3] {
    let leaves = plan.leaf_kinds();
    let count = |kind| leaves.iter().filter(|&&k| k == kind).count() as u64;
    [
        count(LeafKind::BTree),
        count(LeafKind::Columnstore),
        plan.is_hybrid() as u64,
    ]
}

fn has(plan: &PhysicalPlan, kind: &str) -> bool {
    plan.root.walk().any(|(_, n)| n.kind_name() == kind)
}

/// An analyzed run reports its nodes in the plan's walk order.
fn assert_report_follows_walk(db: &Database, query: &SelectQuery, plan: &PhysicalPlan) {
    let run = db
        .query(&Statement::Select(query.clone()))
        .analyze()
        .run()
        .unwrap();
    let report = run.analyze.expect("analyzed");
    let walked: Vec<(usize, String)> = (plan.root.walk())
        .map(|(depth, n): (usize, &PlanNode)| (depth, n.describe(&plan.tables)))
        .collect();
    let reported: Vec<(usize, String)> = (report.nodes.iter())
        .map(|n| (n.depth, n.label.clone()))
        .collect();
    assert_eq!(reported, walked, "{}", plan.explain());
    assert_eq!(report.root().actual_rows, run.rows.len() as u64);
}

#[test]
fn leaf_counters_count_what_figure_10_counts() {
    let db = Database::new(DbConfig::default());
    // A small fact table read through its columnstore, and a large
    // dimension whose primary B+ tree an index nested-loop join seeks.
    table(
        &db,
        "fact",
        20_000,
        &[IndexDescriptor::SecondaryCsi {
            columns: vec![0, 1, 2],
        }],
    );
    table(
        &db,
        "dim",
        200_000,
        &[IndexDescriptor::SecondaryBTree {
            keys: vec![1],
            includes: vec![],
        }],
    );

    let join = SelectQuery {
        tables: vec![
            TableInput::with_predicate(
                "fact",
                Expr::and(vec![
                    Expr::col_cmp(2, CmpOp::Eq, Value::Int32(7)),
                    Expr::col_cmp(1, CmpOp::Lt, Value::Int32(400)),
                ]),
            ),
            TableInput::new("dim"),
        ],
        joins: vec![EquiJoin {
            left: ColRef::new(0, 1),
            right: ColRef::new(1, 0),
        }],
        select: vec![ColRef::new(0, 0), ColRef::new(1, 2)],
        ..Default::default()
    };
    // A seek on dim's secondary that needs `w`, which only the primary
    // holds: a `PkLookup` over the seek.
    let lookup = SelectQuery::single_table(
        "dim",
        Some(Expr::col_cmp(1, CmpOp::Eq, Value::Int32(4_242))),
        vec![0, 1, 2],
    );

    for (query, node) in [(&join, "IndexNLJoin"), (&lookup, "PkLookup")] {
        let (plan, counted) = plan_counted(&db, query);
        assert!(has(&plan, node), "no {node}:\n{}", plan.explain());
        assert_eq!(counted, fig10_counts(&plan), "{}", plan.explain());
        assert_report_follows_walk(&db, query, &plan);
    }
}
