//! Partitioned-table tests: routing DML, scatter-gather scans, partition
//! pruning, heterogeneous per-partition designs answering identically to a
//! monolithic table, per-partition maintenance, and crash recovery of
//! partitioned catalogs.

use std::collections::HashMap;

use hpd_common::{AggFunc, CmpOp, DataType, Expr, HpdError, Row, Schema, Value};
use hpd_engine::plan::PlanNode;
use hpd_engine::{
    AggItem, ColRef, Database, DbConfig, DeleteStmt, IndexDescriptor, InsertStmt, PartitionSpec,
    PlanNodeKind, QueryRunner, SelectQuery, Statement, UpdateStmt,
};

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("id", DataType::Int32),
        ("grp", DataType::Int32),
        ("val", DataType::Int64),
    ])
}

fn row(id: i32) -> Row {
    Row::new(vec![
        Value::Int32(id),
        Value::Int32(id % 7),
        Value::Int64(i64::from(id) * 10),
    ])
}

fn btree() -> IndexDescriptor {
    IndexDescriptor::PrimaryBTree { keys: vec![0] }
}

/// Range spec on `id` with 4 partitions: (-inf,250) [250,500) [500,750)
/// [750,inf).
fn spec4() -> PartitionSpec {
    PartitionSpec::range(
        0,
        vec![Value::Int32(250), Value::Int32(500), Value::Int32(750)],
    )
    .unwrap()
}

/// Partitioned table `t` with 1000 rows and a heterogeneous design: CSI
/// primaries on the three cold partitions, B+ tree with a secondary on the
/// hot tail partition.
fn partitioned_db() -> Database {
    let mut cfg = DbConfig::default();
    cfg.csi.rowgroup_capacity = 128;
    let db = Database::new(cfg);
    db.create_partitioned_table("t", schema(), vec![0], btree(), spec4())
        .unwrap();
    for p in 0..3 {
        db.apply_partition_design("t", p, &IndexDescriptor::PrimaryCsi, &[])
            .unwrap();
    }
    db.apply_partition_design(
        "t",
        3,
        &btree(),
        &[IndexDescriptor::SecondaryBTree {
            keys: vec![1],
            includes: vec![],
        }],
    )
    .unwrap();
    db.load_table("t", (0..1000).map(row).collect()).unwrap();
    db
}

/// Monolithic control with the same rows.
fn monolithic_db() -> Database {
    let db = Database::new(DbConfig::default());
    db.create_table("t", schema(), vec![0], btree()).unwrap();
    db.load_table("t", (0..1000).map(row).collect()).unwrap();
    db
}

fn sorted_rows(mut rows: Vec<Row>) -> Vec<String> {
    let mut out: Vec<String> = rows.drain(..).map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

fn queries() -> Vec<SelectQuery> {
    let mut qs = vec![
        // Full scan.
        SelectQuery::single_table("t", None, vec![0, 1, 2]),
        // Selective range on the partition column (prunes to one part).
        SelectQuery::single_table(
            "t",
            Some(Expr::col_cmp(0, CmpOp::Lt, Value::Int32(100))),
            vec![0, 2],
        ),
        // Range straddling a partition boundary.
        SelectQuery::single_table(
            "t",
            Some(Expr::and(vec![
                Expr::col_cmp(0, CmpOp::Ge, Value::Int32(200)),
                Expr::col_cmp(0, CmpOp::Lt, Value::Int32(300)),
            ])),
            vec![0, 1],
        ),
        // Predicate on a non-partition column (no pruning possible).
        SelectQuery::single_table(
            "t",
            Some(Expr::col_cmp(1, CmpOp::Eq, Value::Int32(3))),
            vec![0, 1, 2],
        ),
        // Point lookup on the pk.
        SelectQuery::single_table(
            "t",
            Some(Expr::col_cmp(0, CmpOp::Eq, Value::Int32(777))),
            vec![0, 1, 2],
        ),
    ];
    // COUNT/SUM (partition-parallel partials) and MIN/MAX (must not use
    // empty-partition partials).
    let mut agg = SelectQuery::single_table("t", None, vec![]);
    agg.aggregates = vec![
        AggItem::new(AggFunc::Count, 0, Expr::Col(0)),
        AggItem::new(AggFunc::Sum, 0, Expr::Col(2)),
        AggItem::new(AggFunc::Min, 0, Expr::Col(2)),
        AggItem::new(AggFunc::Max, 0, Expr::Col(2)),
    ];
    qs.push(agg);
    let mut agg_sel = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(0, CmpOp::Lt, Value::Int32(300))),
        vec![],
    );
    agg_sel.aggregates = vec![
        AggItem::new(AggFunc::Count, 0, Expr::Col(0)),
        AggItem::new(AggFunc::Sum, 0, Expr::Col(2)),
    ];
    qs.push(agg_sel);
    // Group-by across partitions.
    let mut grp = SelectQuery::single_table("t", None, vec![]);
    grp.group_by = vec![ColRef::new(0, 1)];
    grp.aggregates = vec![AggItem::new(AggFunc::Sum, 0, Expr::Col(2))];
    qs.push(grp);
    // Order + limit (gather must not lose the sort above it).
    let mut ord = SelectQuery::single_table("t", None, vec![0, 2]);
    ord.order_by = vec![(0, false)];
    ord.limit = Some(17);
    qs.push(ord);
    qs
}

#[test]
fn heterogeneous_partitions_match_monolithic() {
    let part = partitioned_db();
    let mono = monolithic_db();
    for (i, q) in queries().iter().enumerate() {
        let a = part.query(&Statement::Select(q.clone())).run().unwrap();
        let b = mono.query(&Statement::Select(q.clone())).run().unwrap();
        if q.order_by.is_empty() {
            assert_eq!(
                sorted_rows(a.rows),
                sorted_rows(b.rows),
                "query #{i} diverged"
            );
        } else {
            assert_eq!(
                format!("{:?}", a.rows),
                format!("{:?}", b.rows),
                "query #{i} diverged"
            );
        }
    }
}

#[test]
fn dml_matches_monolithic_after_mixed_mutations() {
    let part = partitioned_db();
    let mono = monolithic_db();
    let mutations: Vec<Statement> = vec![
        Statement::Insert(InsertStmt {
            table: "t".into(),
            rows: (1000..1100).map(row).collect(),
        }),
        Statement::Delete(DeleteStmt {
            table: "t".into(),
            predicate: Expr::col_cmp(0, CmpOp::Lt, Value::Int32(40)),
            top: None,
        }),
        // In-place update on a non-partition column.
        Statement::Update(UpdateStmt {
            table: "t".into(),
            predicate: Expr::col_cmp(0, CmpOp::Lt, Value::Int32(300)),
            set: vec![(2, Expr::Lit(Value::Int64(-5)))],
            top: None,
        }),
        // Update that MOVES rows across partitions (rewrites the partition
        // column from the first partition into the last).
        Statement::Update(UpdateStmt {
            table: "t".into(),
            predicate: Expr::and(vec![
                Expr::col_cmp(0, CmpOp::Ge, Value::Int32(40)),
                Expr::col_cmp(0, CmpOp::Lt, Value::Int32(60)),
            ]),
            set: vec![(0, Expr::Lit(Value::Int32(5000)))],
            top: None,
        }),
    ];
    for (i, m) in mutations.iter().enumerate() {
        // The cross-partition move collapses 20 pks onto one new pk; both
        // engines must agree on the outcome, whatever it is.
        let ra = part.query(m).run();
        let rb = mono.query(m).run();
        assert_eq!(ra.is_ok(), rb.is_ok(), "mutation #{i} outcome diverged");
        let all = SelectQuery::single_table("t", None, vec![0, 1, 2]);
        let a = part.query(&Statement::Select(all.clone())).run().unwrap();
        let b = mono.query(&Statement::Select(all)).run().unwrap();
        assert_eq!(
            sorted_rows(a.rows),
            sorted_rows(b.rows),
            "contents diverged after mutation #{i}"
        );
    }
}

#[test]
fn insert_routes_to_declared_partition() {
    let db = Database::new(DbConfig::default());
    db.create_partitioned_table("t", schema(), vec![0], btree(), spec4())
        .unwrap();
    db.load_table("t", vec![row(10), row(260), row(510), row(760)])
        .unwrap();
    db.with_table("t", |t| {
        assert_eq!(t.num_parts(), 4);
        for p in 0..4 {
            assert_eq!(t.part(p).row_count(), 1, "partition {p}");
        }
    })
    .unwrap();
}

#[test]
fn pruning_skips_partitions_and_shows_in_explain() {
    let db = partitioned_db();
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(0, CmpOp::Lt, Value::Int32(100))),
        vec![0, 2],
    );
    let plan = db.plan(&q).unwrap();
    let explain = plan.explain();
    assert!(
        explain.contains("PartitionedScan t [1/4 partitions, 3 pruned]"),
        "plan was:\n{explain}"
    );
    let before = hpd_obs::global().snapshot();
    let r = db
        .query(&Statement::Select(q.clone()))
        .analyze()
        .run()
        .unwrap();
    assert_eq!(r.rows.len(), 100);
    let delta = hpd_obs::global().snapshot().delta(&before);
    assert_eq!(delta.counter("partition.scanned"), 1);
    assert_eq!(delta.counter("partition.pruned"), 3);
    let report = r.analyze.expect("analyze requested");
    let rendered = report.render();
    assert!(
        rendered.contains("partitions: 1/4 scanned (3 pruned)"),
        "analyze was:\n{rendered}"
    );
}

#[test]
fn pruned_answer_equals_the_unpartitioned_answer() {
    let db = Database::new(DbConfig::default());
    db.create_partitioned_table("t", schema(), vec![0], btree(), spec4())
        .unwrap();
    db.create_table("flat", schema(), vec![0], btree()).unwrap();
    for table in ["t", "flat"] {
        db.load_table(table, (0..1000).map(row).collect()).unwrap();
    }
    let q = |table: &str| {
        SelectQuery::single_table(
            table,
            Some(Expr::col_cmp(0, CmpOp::Lt, Value::Int32(100))),
            vec![0, 2],
        )
    };
    let explain = db.plan(&q("t")).unwrap().explain();
    assert!(
        explain.contains("[1/4 partitions, 3 pruned]"),
        "plan was:\n{explain}"
    );
    let run = |table: &str| {
        let mut rows = db.query(&Statement::Select(q(table))).run().unwrap().rows;
        rows.sort();
        rows
    };
    assert_eq!(run("t").len(), 100);
    assert_eq!(run("t"), run("flat"), "pruning only saves time");
}

/// Point every leaf of `node` at `part`.
fn retarget(node: &mut PlanNode, to: usize) {
    match &mut node.kind {
        PlanNodeKind::BTreeSeek { part, .. }
        | PlanNodeKind::BTreeScan { part, .. }
        | PlanNodeKind::CsiScan { part, .. }
        | PlanNodeKind::CsiAgg { part, .. } => *part = to,
        _ => {}
    }
    for child in node.children_mut() {
        retarget(child, to);
    }
}

#[test]
fn a_plan_naming_a_missing_part_is_an_internal_error() {
    let db = partitioned_db();
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(0, CmpOp::Lt, Value::Int32(100))),
        vec![0, 2],
    );
    let mut plan = db.plan(&q).unwrap();
    let run = |plan: &hpd_engine::PhysicalPlan| {
        db.with_table("t", |t| {
            QueryRunner::new(vec![t], db.pool(), 1 << 20).run(plan)
        })
        .unwrap()
    };
    assert_eq!(run(&plan).unwrap().rows.len(), 100);
    // The same plan against a part the 4-part table does not have.
    retarget(&mut plan.root, 7);
    match run(&plan) {
        Err(HpdError::Internal(msg)) => assert!(msg.contains("part 7"), "{msg}"),
        other => panic!("expected an internal error, got {other:?}"),
    }
}

#[test]
fn a_single_meta_set_plans_a_partitioned_table_as_monolithic() {
    let db = partitioned_db();
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(0, CmpOp::Lt, Value::Int32(100))),
        vec![0, 2],
    );
    assert!(db.plan(&q).unwrap().explain().contains("PartitionedScan"));
    let metas = db.with_table("t", |t| t.part_metas(3)).unwrap();
    // One set: costed as one part, so no scatter-gather and no part tags.
    let one = HashMap::from([("t".to_string(), vec![metas.clone()])]);
    let explain = db.what_if_plan(&q, &one).unwrap().explain();
    assert!(!explain.contains("PartitionedScan"), "plan was:\n{explain}");
    assert!(
        explain.contains("BTreeSeek t idx#0"),
        "plan was:\n{explain}"
    );
    // One set per part: the scatter-gather, each lane naming its part.
    let four = HashMap::from([("t".to_string(), vec![metas.clone(); 4])]);
    let explain = db.what_if_plan(&q, &four).unwrap().explain();
    assert!(
        explain.contains("[1/4 partitions, 3 pruned]") && explain.contains("t[p0]"),
        "plan was:\n{explain}"
    );
    // Any other count matches neither shape.
    let two = HashMap::from([("t".to_string(), vec![metas; 2])]);
    assert!(matches!(
        db.what_if_plan(&q, &two),
        Err(HpdError::InvalidQuery(_))
    ));
}

#[test]
fn hash_partitioning_prunes_point_queries_only() {
    let db = Database::new(DbConfig::default());
    db.create_partitioned_table(
        "t",
        schema(),
        vec![0],
        btree(),
        PartitionSpec::hash(0, 4).unwrap(),
    )
    .unwrap();
    db.load_table("t", (0..400).map(row).collect()).unwrap();
    let point = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(0, CmpOp::Eq, Value::Int32(123))),
        vec![0, 2],
    );
    let explain = db.plan(&point).unwrap().explain();
    assert!(
        explain.contains("[1/4 partitions, 3 pruned]"),
        "plan was:\n{explain}"
    );
    let r = db.query(&Statement::Select(point)).run().unwrap();
    assert_eq!(r.rows.len(), 1);
    let range = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(0, CmpOp::Lt, Value::Int32(10))),
        vec![0],
    );
    let explain = db.plan(&range).unwrap().explain();
    assert!(
        explain.contains("[4/4 partitions, 0 pruned]"),
        "hash ranges cannot prune; plan was:\n{explain}"
    );
    let r = db.query(&Statement::Select(range)).run().unwrap();
    assert_eq!(r.rows.len(), 10);
}

#[test]
fn empty_partition_aggregates_stay_correct() {
    // MIN/MAX over a table where some partitions are empty: partials from
    // empty partitions must not contaminate the gather.
    let db = Database::new(DbConfig::default());
    db.create_partitioned_table("t", schema(), vec![0], btree(), spec4())
        .unwrap();
    // Only partition 1 has rows.
    db.load_table("t", (300..400).map(row).collect()).unwrap();
    let mut agg = SelectQuery::single_table("t", None, vec![]);
    agg.aggregates = vec![
        AggItem::new(AggFunc::Min, 0, Expr::Col(2)),
        AggItem::new(AggFunc::Max, 0, Expr::Col(2)),
        AggItem::new(AggFunc::Count, 0, Expr::Col(0)),
        AggItem::new(AggFunc::Sum, 0, Expr::Col(2)),
    ];
    let r = db.query(&Statement::Select(agg)).run().unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Int64(3000), "min");
    assert_eq!(r.rows[0][1], Value::Int64(3990), "max");
    assert_eq!(r.rows[0][2], Value::Int64(100), "count");
}

#[test]
fn per_partition_maintenance_targets_one_backlog() {
    let mut cfg = DbConfig::default();
    cfg.csi.rowgroup_capacity = 128;
    let db = Database::new(cfg);
    db.create_partitioned_table("t", schema(), vec![0], btree(), spec4())
        .unwrap();
    for p in 0..4 {
        db.apply_partition_design("t", p, &IndexDescriptor::PrimaryCsi, &[])
            .unwrap();
    }
    db.load_table("t", (0..1000).map(row).collect()).unwrap();
    // Build a delta/delete backlog in partition 0 only, via updates.
    let upd = Statement::Update(UpdateStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(0, CmpOp::Lt, Value::Int32(200)),
        set: vec![(2, Expr::Lit(Value::Int64(1)))],
        top: None,
    });
    db.query(&upd).run().unwrap();
    let report = db.maintenance("t").partition(0).run().unwrap();
    assert_eq!(report.part, Some(0));
    // Out-of-range partition errors.
    assert!(db.maintenance("t").partition(9).run().is_err());
    // Contents stay correct after the increment.
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(2, CmpOp::Eq, Value::Int64(1))),
        vec![0],
    );
    let r = db.query(&Statement::Select(q)).run().unwrap();
    assert_eq!(r.rows.len(), 200);
}

// ----------------------------------------------------------------------
// Crash recovery
// ----------------------------------------------------------------------

/// Crash `db` (drop it, keep durable WAL state) and recover a fresh
/// instance.
fn crash_and_recover(db: Database, config: DbConfig) -> Database {
    let durable = db.wal_durable();
    drop(db);
    Database::recover(config, durable).unwrap()
}

fn contents(db: &Database) -> Vec<String> {
    let q = SelectQuery::single_table("t", None, vec![0, 1, 2]);
    sorted_rows(db.query(&Statement::Select(q)).run().unwrap().rows)
}

/// Per-part design signature: (primary descriptor, secondary descriptors).
fn design_signature(db: &Database) -> Vec<String> {
    db.with_table("t", |t| {
        (0..t.num_parts())
            .map(|p| {
                format!(
                    "{:?}/{:?}",
                    t.part(p).primary_descriptor(t.pk()),
                    t.part(p).secondary_descriptors()
                )
            })
            .collect()
    })
    .unwrap()
}

#[test]
fn partitioned_table_recovers_exactly() {
    let mut cfg = DbConfig::default();
    cfg.csi.rowgroup_capacity = 128;
    let db = Database::new(cfg.clone());
    db.create_partitioned_table("t", schema(), vec![0], btree(), spec4())
        .unwrap();
    for p in 0..3 {
        db.apply_partition_design("t", p, &IndexDescriptor::PrimaryCsi, &[])
            .unwrap();
    }
    db.apply_partition_design(
        "t",
        3,
        &btree(),
        &[IndexDescriptor::SecondaryBTree {
            keys: vec![1],
            includes: vec![],
        }],
    )
    .unwrap();
    db.load_table("t", (0..1000).map(row).collect()).unwrap();
    db.query(&Statement::Insert(InsertStmt {
        table: "t".into(),
        rows: (1000..1050).map(row).collect(),
    }))
    .run()
    .unwrap();
    db.query(&Statement::Delete(DeleteStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(0, CmpOp::Lt, Value::Int32(30)),
        top: None,
    }))
    .run()
    .unwrap();
    db.query(&Statement::Update(UpdateStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(0, CmpOp::Ge, Value::Int32(900)),
        set: vec![(2, Expr::Lit(Value::Int64(-1)))],
        top: None,
    }))
    .run()
    .unwrap();
    let expected = contents(&db);
    let expected_design = design_signature(&db);
    let spec = db
        .with_table("t", |t| t.partitioning().cloned())
        .unwrap()
        .expect("partitioned");

    let recovered = crash_and_recover(db, cfg);
    assert_eq!(contents(&recovered), expected);
    assert_eq!(design_signature(&recovered), expected_design);
    let rspec = recovered
        .with_table("t", |t| t.partitioning().cloned())
        .unwrap()
        .expect("partitioning recovered");
    assert_eq!(rspec, spec);
    // Per-partition row placement is rebuilt by re-routing, not trusted
    // from the image.
    recovered
        .with_table("t", |t| {
            for p in 0..t.num_parts() {
                assert!(t.part(p).row_count() > 0, "partition {p} empty");
            }
        })
        .unwrap();
    // Pruning still works on the recovered catalog.
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(0, CmpOp::Lt, Value::Int32(100))),
        vec![0],
    );
    let explain = recovered.plan(&q).unwrap().explain();
    assert!(
        explain.contains("[1/4 partitions, 3 pruned]"),
        "plan was:\n{explain}"
    );
}

#[test]
fn partitioned_table_recovers_across_checkpoint() {
    let mut cfg = DbConfig::default();
    cfg.csi.rowgroup_capacity = 128;
    let db = Database::new(cfg.clone());
    db.create_partitioned_table("t", schema(), vec![0], btree(), spec4())
        .unwrap();
    db.apply_partition_design("t", 0, &IndexDescriptor::PrimaryCsi, &[])
        .unwrap();
    db.load_table("t", (0..600).map(row).collect()).unwrap();
    // Checkpoint captures the partitioned snapshot; tail replays on top.
    db.checkpoint().unwrap();
    db.query(&Statement::Insert(InsertStmt {
        table: "t".into(),
        rows: (600..700).map(row).collect(),
    }))
    .run()
    .unwrap();
    db.query(&Statement::Update(UpdateStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(0, CmpOp::Lt, Value::Int32(50)),
        set: vec![(2, Expr::Lit(Value::Int64(7)))],
        top: None,
    }))
    .run()
    .unwrap();
    // Targeted per-partition maintenance lands in the log too.
    db.maintenance("t").partition(0).run().unwrap();
    let expected = contents(&db);
    let expected_design = design_signature(&db);

    let recovered = crash_and_recover(db, cfg);
    assert_eq!(contents(&recovered), expected);
    assert_eq!(design_signature(&recovered), expected_design);
}

#[test]
fn partition_design_change_is_redone_from_the_log() {
    let cfg = DbConfig::default();
    let db = Database::new(cfg.clone());
    db.create_partitioned_table("t", schema(), vec![0], btree(), spec4())
        .unwrap();
    db.load_table("t", (0..400).map(row).collect()).unwrap();
    // Design change AFTER data exists, with no checkpoint: recovery must
    // replay the PartitionDesignChange record itself.
    db.apply_partition_design("t", 1, &IndexDescriptor::PrimaryCsi, &[])
        .unwrap();
    let expected = contents(&db);
    let expected_design = design_signature(&db);
    let recovered = crash_and_recover(db, cfg);
    assert_eq!(design_signature(&recovered), expected_design);
    assert_eq!(contents(&recovered), expected);
}
