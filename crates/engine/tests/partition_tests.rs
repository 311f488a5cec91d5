//! Partitioned-table tests: routing DML, scatter-gather scans, partition
//! pruning, heterogeneous per-partition designs answering identically to a
//! monolithic table, per-partition maintenance, and crash recovery of
//! partitioned catalogs.

use std::collections::HashMap;

use hpd_common::{AggFunc, CmpOp, DataType, Expr, HpdError, Row, Schema, Value};
use hpd_engine::plan::PlanNode;
use hpd_engine::{
    AggItem, ColRef, Database, DbConfig, DeleteStmt, IndexDescriptor, InsertStmt, IsolationLevel,
    PartitionSpec, PlanNodeKind, QueryRunner, SelectQuery, Statement, UpdateStmt,
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
    partitioned_db_with(DbConfig::default())
}

fn partitioned_db_with(mut cfg: DbConfig) -> Database {
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
        SelectQuery::single_table("t", Some(Expr::and(id_window(200, 300))), vec![0, 1]),
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
    qs.push(count_and_sum(Expr::col_cmp(
        0,
        CmpOp::Lt,
        Value::Int32(300),
    )));
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
    qs.extend([covered_fold(), residual_fold(), tail_window()]);
    qs
}

fn id_window(lo: i32, hi: i32) -> Vec<Expr> {
    vec![
        Expr::col_cmp(0, CmpOp::Ge, Value::Int32(lo)),
        Expr::col_cmp(0, CmpOp::Lt, Value::Int32(hi)),
    ]
}

fn count_and_sum(predicate: Expr) -> SelectQuery {
    let mut q = SelectQuery::single_table("t", Some(predicate), vec![]);
    q.aggregates = vec![
        AggItem::new(AggFunc::Count, 0, Expr::Col(0)),
        AggItem::new(AggFunc::Sum, 0, Expr::Col(2)),
    ];
    q
}

/// COUNT/SUM under a range the columnstore lanes' intervals cover entirely
/// (partitions 0–2): every lane folds in the encoded domain.
fn covered_fold() -> SelectQuery {
    count_and_sum(Expr::and(id_window(100, 600)))
}

/// The same over partitions 1–3 with a conjunct no interval expresses, so
/// every lane — the B+ tree tail included — keeps a residual filter.
fn residual_fold() -> SelectQuery {
    let mut conjuncts = id_window(400, 900);
    conjuncts.push(Expr::col_cmp(1, CmpOp::Ne, Value::Int32(3)));
    count_and_sum(Expr::and(conjuncts))
}

/// A window inside the B+ tree tail partition, in primary-key order.
fn tail_window() -> SelectQuery {
    let mut q = SelectQuery::single_table("t", Some(Expr::and(id_window(800, 900))), vec![0, 2]);
    q.order_by = vec![(0, true)];
    q.limit = Some(7);
    q
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
fn a_lane_is_a_one_part_plan() {
    let db = partitioned_db();
    // Filter and fold move inside the lanes: nothing but the sum of
    // partials sits above the gather.
    let explain = db.plan(&covered_fold()).unwrap().explain();
    assert!(explain.starts_with("StreamAgg"), "plan was:\n{explain}");
    for p in 0..3 {
        assert!(
            explain.contains(&format!("CsiAgg t[p{p}]")),
            "plan was:\n{explain}"
        );
    }
    assert!(!explain.contains("Filter"), "plan was:\n{explain}");
    // A conjunct the intervals cannot express stays as a filter inside
    // each lane, under that lane's partial aggregate.
    let explain = db.plan(&residual_fold()).unwrap().explain();
    let gather = explain.find("PartitionedScan").expect("a gather");
    assert_eq!(explain.matches("Filter").count(), 3, "plan was:\n{explain}");
    assert!(
        explain.find("Filter").unwrap() > gather,
        "plan was:\n{explain}"
    );
    // One surviving lane keeps its sort order through the gather.
    let explain = db.plan(&tail_window()).unwrap().explain();
    assert!(
        explain.contains("[1/4 partitions, 3 pruned]") && explain.contains("BTreeSeek t[p3]"),
        "plan was:\n{explain}"
    );
    assert!(!explain.contains("Sort"), "plan was:\n{explain}");
}

#[test]
fn the_gather_runs_at_the_plans_dop() {
    // Full scan: four lanes, three columnstore and one B+ tree.
    let scan = Statement::Select(SelectQuery::single_table("t", None, vec![0, 1, 2]));
    // The registry is process-wide and other tests lease threads, so watch
    // the counter until it stands still around one run: it only grows, so a
    // zero delta proves this query asked the pool for nothing.
    let asks_for_no_threads = |db: &Database, dop: Option<usize>| {
        let requested = hpd_obs::global().counter("sched.pool.requested_threads");
        (0..100).any(|_| {
            let before = requested.get();
            let mut query = db.query(&scan);
            if let Some(k) = dop {
                query = query.dop(k);
            }
            let r = query.run().unwrap();
            assert_eq!(r.rows.len(), 1000);
            assert_eq!((r.metrics.dop, r.metrics.io_dop), (1, 1));
            requested.get() == before
        })
    };
    let serial = partitioned_db_with(DbConfig {
        max_dop: 1,
        worker_threads: 0,
        ..DbConfig::default()
    });
    assert!(asks_for_no_threads(&serial, None));
    let parallel = partitioned_db_with(DbConfig {
        max_dop: 8,
        ..DbConfig::default()
    });
    assert!(asks_for_no_threads(&parallel, Some(1)));
    assert_eq!(parallel.worker_pool().peak_in_use(), 0);

    // DOP ≥ lanes (on a table big enough for the cost model to want it):
    // every lane gets a thread, and slots fill by lane index, so the rows
    // arrive in the DOP-1 order.
    parallel
        .load_table("t", (1000..40_000).map(row).collect())
        .unwrap();
    let at = |dop: usize| parallel.query(&scan).dop(dop).run().unwrap();
    let wide = at(8);
    assert_eq!(wide.metrics.dop, 8);
    assert!(parallel.worker_pool().peak_in_use() > 0);
    assert_eq!(wide.rows, at(1).rows);
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
    // The registry is process-wide and other tests scan partitions too: the
    // delta holds at least this statement's lanes, the report exactly them.
    assert!(delta.counter("partition.scanned") >= 1);
    assert!(delta.counter("partition.pruned") >= 3);
    let report = r.analyze.expect("analyze requested");
    let partitions = report.partitions.expect("a partitioned scan ran");
    assert_eq!((partitions.scanned, partitions.pruned), (1, 3));
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
fn a_what_if_design_names_one_meta_set_per_part() {
    let db = partitioned_db();
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(0, CmpOp::Lt, Value::Int32(100))),
        vec![0, 2],
    );
    assert!(db.plan(&q).unwrap().explain().contains("PartitionedScan"));
    let metas = db.with_table("t", |t| t.part_metas(3)).unwrap();
    // One set per part: the scatter-gather, each lane naming its part.
    let four = HashMap::from([("t".to_string(), vec![metas.clone(); 4])]);
    let explain = db.what_if_plan(&q, &four).unwrap().explain();
    assert!(
        explain.contains("[1/4 partitions, 3 pruned]") && explain.contains("t[p0]"),
        "plan was:\n{explain}"
    );
    // A single set for the 4-part table is refused, as is any other count.
    for sets in [1, 2] {
        let wrong = HashMap::from([("t".to_string(), vec![metas.clone(); sets])]);
        assert!(matches!(
            db.what_if_plan(&q, &wrong),
            Err(HpdError::InvalidQuery(_))
        ));
    }
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
fn a_snapshot_reader_folds_lanes_to_its_old_answer() {
    let db = partitioned_db();
    let q = covered_fold();
    let explain = db.plan(&q).unwrap().explain();
    assert!(explain.contains("CsiAgg t[p1]"), "plan was:\n{explain}");
    let si = db.session(IsolationLevel::Snapshot);
    let mut reader = si.begin();
    let before = reader.select(&q).unwrap().rows;
    assert_eq!(before[0][0], Value::Int64(500));

    // A writer moves rows (the partition column is the key, so a move is
    // a delete and an insert) out of the window into another partition and
    // into it from another, rewrites one in place, and commits.
    let rc = db.session(IsolationLevel::ReadCommitted);
    let mut writer = rc.begin();
    let mut move_id = |from: i32, to: i32| {
        writer
            .delete(&DeleteStmt {
                table: "t".into(),
                predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(from)),
                top: None,
            })
            .unwrap();
        let mut moved = row(from).values().to_vec();
        moved[0] = Value::Int32(to);
        writer
            .insert(&InsertStmt {
                table: "t".into(),
                rows: vec![Row::new(moved)],
            })
            .unwrap();
    };
    move_id(150, 5_000); // partition 0, inside -> partition 3, outside
    move_id(700, 150); // partition 2, outside -> partition 0, inside
    move_id(300, 5_001); // partition 1, inside -> partition 3, outside
    move_id(900, 300); // partition 3, outside -> partition 1, inside
    writer
        .update(&UpdateStmt {
            table: "t".into(),
            predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(400)),
            set: vec![(2, Expr::Lit(Value::Int64(-1)))],
            top: None,
        })
        .unwrap();
    writer.commit().unwrap();

    let current = db.query(&Statement::Select(q.clone())).run().unwrap().rows;
    assert_ne!(current, before, "the writer changed the current answer");
    assert_eq!(reader.select(&q).unwrap().rows, before);
    reader.abort();
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

/// Per-part design signature: its index list, primary first.
fn design_signature(db: &Database) -> Vec<String> {
    db.with_table("t", |t| {
        (0..t.num_parts())
            .map(|p| format!("{:?}", t.part(p).descriptors()))
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
