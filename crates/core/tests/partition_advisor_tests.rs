//! The advisor on partitioned tables: a hot/cold drift workload over a
//! range-partitioned table is tuned per part by the one greedy search
//! (B+ tree on the hot partition, columnstore on cold history), a table
//! whose parts already differ is tuned rather than skipped, and a write is
//! charged on the parts it reaches.

use hpd_advisor::advisor::csi_everywhere_configuration;
use hpd_advisor::session::Chosen;
use hpd_advisor::{
    Advisor, AdvisorOptions, Recommendation, WhatIfSession, Workload, WorkloadStatement,
};
use hpd_common::{AggFunc, CmpOp, DataType, Expr, Row, Schema, Value};
use hpd_engine::{
    AggItem, ColRef, Database, DbConfig, IndexDescriptor, InsertStmt, PartitionSpec, SelectQuery,
    Statement, TableDesign, TableInput,
};

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("id", DataType::Int32),
        ("dev", DataType::Int32),
        ("val", DataType::Int64),
    ])
}

fn row(i: i32) -> Row {
    Row::new(vec![
        Value::Int32(i),
        Value::Int32(i % 50),
        Value::Int64(i as i64 * 3),
    ])
}

/// events partitioned on id into 4 ranges; p3 = the small hot recent range
/// (the newest 5% of rows), the shape time-partitioned tables converge to.
fn partitioned_db(n: i32) -> Database {
    let mut cfg = DbConfig::default();
    cfg.csi.rowgroup_capacity = 1024;
    let db = Database::new(cfg);
    let q = n / 4;
    let spec = PartitionSpec::range(
        0,
        vec![
            Value::Int32(q),
            Value::Int32(2 * q),
            Value::Int32(hot_lo(n)),
        ],
    )
    .unwrap();
    db.create_partitioned_table(
        "events",
        schema(),
        vec![0],
        IndexDescriptor::PrimaryCsi,
        spec,
    )
    .unwrap();
    db.load_table("events", (0..n).map(row).collect()).unwrap();
    db
}

fn hot_lo(n: i32) -> i32 {
    n - n / 20
}

fn btree() -> IndexDescriptor {
    IndexDescriptor::PrimaryBTree { keys: vec![0] }
}

fn hot_point(id: i32) -> SelectQuery {
    SelectQuery::single_table(
        "events",
        Some(Expr::col_cmp(0, CmpOp::Eq, Value::Int32(id))),
        vec![0, 1, 2],
    )
}

/// Analytic scan over cold history only — its range predicate prunes the
/// hot partition, so the hot design choice doesn't tax it.
fn cold_aggregate(n: i32) -> SelectQuery {
    SelectQuery {
        tables: vec![TableInput {
            name: "events".into(),
            predicate: Some(Expr::col_cmp(0, CmpOp::Lt, Value::Int32(hot_lo(n)))),
        }],
        group_by: vec![ColRef::new(0, 1)],
        aggregates: vec![AggItem::column(AggFunc::Sum, ColRef::new(0, 2))],
        ..Default::default()
    }
}

/// Hot/cold drift: heavy point reads land in the newest partition while the
/// history partitions only see analytic range scans.
fn drift_workload(n: i32) -> Workload {
    let mut statements: Vec<WorkloadStatement> = (0..8)
        .map(|k| {
            WorkloadStatement::labeled(
                Statement::Select(hot_point(n - 1 - k * 7)),
                60.0,
                format!("hot-point-{k}"),
            )
        })
        .collect();
    statements.push(WorkloadStatement::labeled(
        Statement::Select(cold_aggregate(n)),
        5.0,
        "cold-aggregate",
    ));
    Workload::new(statements)
}

fn designs(db: &Database) -> Vec<Vec<IndexDescriptor>> {
    db.with_table("events", |t| t.designs()).unwrap()
}

fn recommend(db: &Database, workload: &Workload, budget: Option<usize>) -> Recommendation {
    let options = AdvisorOptions {
        storage_budget_bytes: budget,
        ..AdvisorOptions::default()
    };
    Advisor::new(db, options).recommend(workload).unwrap()
}

fn events(rec: &Recommendation) -> &TableDesign {
    rec.configuration
        .design_for("events")
        .expect("events is tuned")
}

fn has_btree(indexes: &[IndexDescriptor]) -> bool {
    indexes.iter().any(|d| !d.is_csi())
}

#[test]
fn a_binding_budget_puts_the_btree_on_the_hot_part_only() {
    let n = 20_000;
    let db = partitioned_db(n);
    let workload = drift_workload(n);
    // Half of what a B+ tree over the whole table takes.
    let whole_table = IndexDescriptor::SecondaryBTree {
        keys: vec![0],
        includes: vec![1, 2],
    };
    let mut session = WhatIfSession::new(&db, &workload, &AdvisorOptions::default()).unwrap();
    let budget = session.meta("events", &whole_table).size_bytes() / 2;
    let rec = recommend(&db, &workload, Some(budget));
    let parts = &events(&rec).parts;
    assert_eq!(parts.len(), 4, "one list per part: {parts:?}");
    assert!(has_btree(&parts[3]), "hot part 3 gets a B+ tree: {parts:?}");
    assert!(
        parts[..3].iter().all(|p| !has_btree(p)),
        "the B+ tree is on part 3 only: {parts:?}"
    );
    assert!(
        parts[..3]
            .iter()
            .any(|p| p == &[IndexDescriptor::PrimaryCsi]),
        "a cold part keeps only its columnstore: {parts:?}"
    );
    assert!(rec.new_index_bytes <= budget);
    assert!(rec.est_cost_after_us < rec.est_cost_before_us);
    assert!(
        rec.report(&db).contains("per partition"),
        "{}",
        rec.report(&db)
    );
}

#[test]
fn applied_advice_keeps_every_answer_and_beats_both_homogeneous_primaries() {
    let n = 20_000;
    let db = partitioned_db(n);
    let workload = drift_workload(n);
    let answers = |db: &Database| -> Vec<Vec<Row>> {
        (workload.statements.iter())
            .map(|s| {
                let mut rows = db.query(&s.statement).run().unwrap().rows;
                rows.sort_by_key(|r| format!("{r:?}"));
                rows
            })
            .collect()
    };
    let planned = |db: &Database| -> f64 {
        (workload.statements.iter())
            .map(|s| match &s.statement {
                Statement::Select(q) => db.plan(q).unwrap().est_cost_us * s.weight,
                _ => unreachable!("read-only workload"),
            })
            .sum()
    };
    let before = answers(&db);
    let rec = recommend(&db, &workload, None);
    db.apply_configuration(&rec.configuration).unwrap();
    assert_eq!(designs(&db), events(&rec).parts, "applied as advised");
    assert_eq!(
        answers(&db),
        before,
        "results drift after applying the advice"
    );
    let advised = planned(&db);
    for primary in [IndexDescriptor::PrimaryCsi, btree()] {
        db.apply_design(&TableDesign::new("events", vec![primary.clone()]))
            .unwrap();
        let homogeneous = planned(&db);
        assert!(
            advised < homogeneous,
            "advice {advised:.1}us must beat {primary:?} everywhere {homogeneous:.1}us"
        );
    }
}

#[test]
fn a_table_whose_parts_differ_is_tuned_and_unchosen_parts_stay() {
    let n = 20_000;
    let db = partitioned_db(n);
    // A B+ tree on cold part 0, which only the analytic scan reads.
    db.apply_partition_design("events", 0, &btree(), &[])
        .unwrap();
    let before = designs(&db);
    let metas = |db: &Database, p: usize| -> String {
        db.with_table("events", |t| format!("{:?}", t.part_metas(p)))
            .unwrap()
    };
    let before_metas: Vec<String> = (0..4).map(|p| metas(&db, p)).collect();
    let rec = recommend(&db, &drift_workload(n), None);
    let advised = &events(&rec).parts;
    assert!(
        rec.est_cost_after_us < rec.est_cost_before_us,
        "tuned, not skipped"
    );
    assert_ne!(advised, &before, "the advice changes some part");
    let unchosen: Vec<usize> = (0..4).filter(|&p| advised[p] == before[p]).collect();
    assert!(!unchosen.is_empty(), "some part is left alone: {advised:?}");

    db.apply_configuration(&rec.configuration).unwrap();
    assert_eq!(&designs(&db), advised);
    for p in unchosen {
        assert_eq!(
            metas(&db, p),
            before_metas[p],
            "part {p} was left as it was"
        );
    }
}

#[test]
fn an_insert_is_charged_on_the_part_it_routes_to() {
    let n = 4_000;
    let db = partitioned_db(n);
    let insert = InsertStmt {
        table: "events".into(),
        rows: (n..n + 8).map(row).collect(),
    };
    let workload = Workload::new(vec![WorkloadStatement::new(Statement::Insert(insert), 1.0)]);
    let mut session = WhatIfSession::new(&db, &workload, &AdvisorOptions::default()).unwrap();
    let on_part = |part: usize| -> Chosen {
        let mut chosen = session.initial().clone();
        chosen.get_mut("events").unwrap()[part].push(IndexDescriptor::SecondaryBTree {
            keys: vec![1],
            includes: vec![],
        });
        chosen
    };
    let (cold, hot) = (on_part(0), on_part(3));
    let mut cost = |chosen: &Chosen| session.statement_cost(0, chosen).unwrap().to_bits();
    let initial = cost(&Chosen::new());
    assert_eq!(cost(&cold), initial, "part 0 takes none of the rows");
    assert_ne!(cost(&hot), initial, "part 3 takes them all");
}

/// The CSI-only baseline on `micro_part`'s shape (columnstore history, B+
/// tree tail): every part keeps its primary, the B+ tree part gains the
/// secondary columnstore.
#[test]
fn csi_everywhere_keeps_each_parts_primary() {
    let n = 4_000;
    let db = partitioned_db(n);
    db.apply_partition_design("events", 3, &btree(), &[])
        .unwrap();
    let cfg = csi_everywhere_configuration(&db, &["events".to_string()]).unwrap();
    let csi = IndexDescriptor::SecondaryCsi {
        columns: vec![0, 1, 2],
    };
    let cold = vec![IndexDescriptor::PrimaryCsi];
    let expected = vec![cold.clone(), cold.clone(), cold, vec![btree(), csi]];
    assert_eq!(cfg.tables[0].parts, expected);
    let query = Statement::Select(cold_aggregate(n));
    let answer = |db: &Database| {
        let mut rows = db.query(&query).run().unwrap().rows;
        rows.sort_by_key(|r| format!("{r:?}"));
        rows
    };
    let before = answer(&db);
    db.apply_configuration(&cfg).unwrap();
    assert_eq!(designs(&db), expected);
    assert_eq!(answer(&db), before);
}
