//! End-to-end observability tests: `explain_analyze` actuals, spill
//! visibility under small grants, the query store ring, and optimizer
//! plan-choice counters.

use hpd_common::{AggFunc, CmpOp, DataType, Expr, Row, Schema, Value};
use hpd_engine::{
    AggItem, ColRef, Database, DbConfig, DeleteStmt, IndexDescriptor, SelectQuery, Statement,
    TableInput, UpdateStmt,
};
use hpd_storage::{IoSnapshot, Work};

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
fn explain_analyze_actual_rows_match_result() {
    let db = Database::new(DbConfig::default());
    setup_table(&db, btree_primary(), 5000);
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(2, CmpOp::Lt, Value::Int32(300))),
        vec![0, 2],
    );
    let r = db.query(&q).analyze().run().unwrap();
    let report = r.analyze.as_ref().expect("explain_analyze sets analyze");
    assert_eq!(
        report.root().actual_rows,
        r.rows.len() as u64,
        "root actuals track returned rows:\n{}",
        report.render()
    );
    // Every node carries an estimate and a wall-clock reading.
    for node in &report.nodes {
        assert!(node.est_rows >= 0.0);
        assert!(node.next_calls > 0, "node never pulled: {}", node.label);
    }
    let rendered = report.render();
    assert!(rendered.contains("est="), "{rendered}");
    assert!(rendered.contains("act="), "{rendered}");
}

#[test]
fn explain_analyze_csi_scan_reports_per_node_actuals() {
    let mut cfg = DbConfig::default();
    cfg.csi.rowgroup_capacity = 512;
    let db = Database::new(cfg);
    setup_table(&db, IndexDescriptor::PrimaryCsi, 4000);
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(0, CmpOp::Lt, Value::Int32(1000))),
        vec![0, 1],
    );
    let r = db.query(&q).analyze().run().unwrap();
    let report = r.analyze.as_ref().unwrap();
    assert_eq!(r.rows.len(), 1000);
    assert_eq!(report.root().actual_rows, 1000);
    // The scan leaf is the last pre-order node; segment elimination means it
    // may read fewer than the full table but at least the matching rows.
    let leaf = report.nodes.last().unwrap();
    assert!(leaf.label.contains("CsiScan"), "{}", leaf.label);
    assert!(leaf.actual_rows >= 1000, "{}", report.render());
}

#[test]
fn explain_analyze_reports_rows_pruned_by_pushdown() {
    let mut cfg = DbConfig::default();
    cfg.csi.rowgroup_capacity = 512;
    let db = Database::new(cfg);
    setup_table(&db, IndexDescriptor::PrimaryCsi, 4000);
    // `val` cycles every 1000 ids, so rowgroup elimination cannot help and
    // the encoded-domain kernels must do the pruning row by row.
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(2, CmpOp::Lt, Value::Int32(30))),
        vec![0, 2],
    );
    let r = db.query(&q).analyze().run().unwrap();
    let matching = (0..4000).filter(|i| i * 3 % 1000 < 30).count() as u64;
    assert_eq!(r.rows.len() as u64, matching);
    let report = r.analyze.as_ref().unwrap();
    let w = |work| report.io.counted(work);
    let p = report.io;
    assert!(w(Work::RowsSelected) >= matching, "{p:?}");
    assert!(
        w(Work::RowsPrunedRowgroup) + w(Work::RowsPrunedRun) + w(Work::RowsPrunedRow)
            >= 4000 - matching,
        "kernels should prune the non-matching rows: {p:?}"
    );
    assert!(w(Work::RowsPrunedRun) + w(Work::RowsPrunedRow) > 0, "{p:?}");
    let rendered = report.render();
    assert!(rendered.contains("pruning:"), "{rendered}");
    assert!(rendered.contains("selected="), "{rendered}");
}

#[test]
fn explain_analyze_reports_agg_pushdown_trailer() {
    let mut cfg = DbConfig::default();
    cfg.csi.rowgroup_capacity = 512;
    let db = Database::new(cfg);
    setup_table(&db, IndexDescriptor::PrimaryCsi, 4000);
    let q = SelectQuery {
        tables: vec![TableInput::with_predicate(
            "t",
            Expr::col_cmp(0, CmpOp::Lt, Value::Int32(2000)),
        )],
        aggregates: vec![
            AggItem::column(AggFunc::Count, ColRef::new(0, 0)),
            AggItem::column(AggFunc::Sum, ColRef::new(0, 2)),
        ],
        ..Default::default()
    };
    let r = db.query(&Statement::Select(q)).analyze().run().unwrap();
    let expected: i64 = (0..2000i64).map(|i| i * 3 % 1000).sum();
    assert_eq!(r.rows[0][0], Value::Int64(2000));
    assert_eq!(r.rows[0][1], Value::Int64(expected));
    let report = r.analyze.as_ref().unwrap();
    assert!(
        report.nodes.iter().any(|n| n.label.contains("CsiAgg")),
        "{}",
        report.render()
    );
    let w = |work| report.io.counted(work);
    let a = report.io;
    assert!(
        w(Work::AggPushdownRowgroups) + w(Work::AggFallbackRowgroups) >= 4,
        "{a:?}"
    );
    assert!(w(Work::AggRowsFolded) >= 2000, "{a:?}");
    let rendered = report.render();
    assert!(rendered.contains("pushdown:"), "{rendered}");
    assert!(rendered.contains("rows_folded="), "{rendered}");
}

#[test]
fn sort_spills_under_small_grant_and_is_visible() {
    let db = Database::new(DbConfig::default());
    setup_table(&db, btree_primary(), 20_000);
    let mut q = SelectQuery::single_table("t", None, vec![0, 1, 2]);
    // Sort on a non-key output so the B+ tree order doesn't satisfy it.
    q.order_by = vec![(2, true)];
    // A few KB of grant forces the external sort to spill runs.
    let r = db.query(&q).grant_bytes(16 << 10).analyze().run().unwrap();
    let report = r.analyze.as_ref().unwrap();
    assert_eq!(r.rows.len(), 20_000);
    assert!(
        report.spilled_bytes() > 0,
        "expected spill under a 16KB grant:\n{}",
        report.render()
    );
    let rendered = report.render();
    assert!(rendered.contains("spilled="), "{rendered}");
    // The same query under the default grant stays in memory.
    let r2 = db.query(&q).analyze().run().unwrap();
    assert_eq!(r2.analyze.as_ref().unwrap().spilled_bytes(), 0);
}

#[test]
fn query_store_retains_recent_statements() {
    let db = Database::new(DbConfig {
        query_store_capacity: 4,
        ..DbConfig::default()
    });
    setup_table(&db, btree_primary(), 1000);
    for hi in [10, 20, 30, 40, 50, 60] {
        let q = SelectQuery::single_table(
            "t",
            Some(Expr::col_cmp(0, CmpOp::Lt, Value::Int32(hi))),
            vec![0],
        );
        db.query(&Statement::Select(q)).run().unwrap();
    }
    let store = db.query_store();
    assert_eq!(store.len(), 4, "ring capped at capacity");
    let recent = store.recent();
    // Oldest-first, and the oldest two statements fell off.
    assert_eq!(recent.first().unwrap().actual_rows, 30);
    assert_eq!(recent.last().unwrap().actual_rows, 60);
    for (a, b) in recent.iter().zip(recent.iter().skip(1)) {
        assert!(a.seq < b.seq);
    }
    // Same plan shape => same fingerprint across different constants.
    assert_eq!(recent[0].plan_fingerprint, recent[1].plan_fingerprint);
    let dump = store.dump_jsonl();
    assert_eq!(dump.lines().count(), 4);
    assert!(dump.contains("\"fingerprint\""), "{dump}");
    assert!(dump.contains("\"estimate_error\""), "{dump}");
}

/// A statement's query-store entry holds what the statement did whether it
/// was analyzed or not: a spilling sort and a columnstore aggregate store
/// the spilled bytes and folded rows their `EXPLAIN ANALYZE` report shows.
#[test]
fn the_query_store_holds_what_the_report_shows_analyzed_or_not() {
    let mut cfg = DbConfig::default();
    cfg.csi.rowgroup_capacity = 512;
    let db = Database::new(cfg);
    setup_table(&db, IndexDescriptor::PrimaryCsi, 20_000);
    let mut sort = SelectQuery::single_table("t", None, vec![0, 1, 2]);
    sort.order_by = vec![(2, true)];
    let fold = SelectQuery {
        tables: vec![TableInput::with_predicate(
            "t",
            Expr::col_cmp(0, CmpOp::Lt, Value::Int32(2000)),
        )],
        aggregates: vec![AggItem::column(AggFunc::Sum, ColRef::new(0, 2))],
        ..Default::default()
    };
    let pushdown_rows =
        |io: &IoSnapshot| io.counted(Work::AggRowsFolded) + io.counted(Work::AggDeltaRows);
    let last = || db.query_store().recent().pop().unwrap();
    let [spilled, folded] = [(&sort, 16 << 10), (&fold, 64 << 20)].map(|(q, grant)| {
        db.query(q).grant_bytes(grant).run().unwrap();
        let plain = last();
        let analyzed = db.query(q).grant_bytes(grant).analyze().run().unwrap();
        let report = analyzed.analyze.unwrap();
        for stored in [plain, last()] {
            assert_eq!(
                stored.io.spilled_bytes,
                report.spilled_bytes(),
                "{stored:?}"
            );
            assert_eq!(
                pushdown_rows(&stored.io),
                pushdown_rows(&report.io),
                "{stored:?}"
            );
        }
        report.io
    });
    assert!(spilled.spilled_bytes > 0 && pushdown_rows(&folded) >= 2000);
}

/// An UPDATE and a DELETE are recorded by the scan that found their target
/// rows, under their own kind.
#[test]
fn write_statements_are_recorded_under_their_kind() {
    let db = Database::new(DbConfig::default());
    setup_table(&db, btree_primary(), 1000);
    let predicate = Expr::col_cmp(0, CmpOp::Lt, Value::Int32(10));
    db.query(&Statement::Update(UpdateStmt {
        table: "t".into(),
        predicate: predicate.clone(),
        top: None,
        set: vec![(2, Expr::lit(Value::Int32(7)))],
    }))
    .run()
    .unwrap();
    db.query(&Statement::Delete(DeleteStmt {
        table: "t".into(),
        predicate,
        top: None,
    }))
    .run()
    .unwrap();
    let recent = db.query_store().recent();
    let kinds: Vec<&str> = recent.iter().map(|s| s.kind).collect();
    assert_eq!(kinds, ["update", "delete"]);
    assert!(db
        .query_store()
        .dump_jsonl()
        .contains("\"kind\":\"delete\""));
}

#[test]
fn optimizer_choice_counters_advance() {
    let base = hpd_obs::global().snapshot();
    let db = Database::new(DbConfig::default());
    setup_table(&db, btree_primary(), 1000);
    let q = SelectQuery::single_table("t", None, vec![0]);
    db.query(&Statement::Select(q)).run().unwrap();
    let delta = hpd_obs::global().snapshot().delta(&base);
    // Parallel tests share the global registry, so assert growth not equality.
    assert!(delta.counter("optimizer.plans") >= 1);
    assert!(delta.counter("optimizer.leaf_btree") >= 1);
    assert!(delta.counter("query.statements") >= 1);
}
