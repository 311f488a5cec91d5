//! Partition-aware advisor tests: a hot/cold drift workload over a
//! range-partitioned table must yield a *heterogeneous* recommendation
//! (B+ tree on the hot partition, columnstore on cold history) whose
//! what-if cost beats the best homogeneous assignment.

use hpd_advisor::advisor::csi_everywhere_configuration;
use hpd_advisor::{
    recommend_partition_designs, Advisor, AdvisorOptions, PartitionAdvisorOptions, Workload,
    WorkloadStatement,
};
use hpd_common::{AggFunc, CmpOp, DataType, Expr, HpdError, Row, Schema, Value};
use hpd_engine::{
    AggItem, ColRef, Database, DbConfig, IndexDescriptor, PartitionSpec, SelectQuery, Statement,
    TableInput,
};

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("id", DataType::Int32),
        ("dev", DataType::Int32),
        ("val", DataType::Int64),
    ])
}

/// events partitioned on id into 4 ranges; p3 = the small hot recent range
/// (the newest 5% of rows), the shape time-partitioned tables converge to.
fn partitioned_db(n: i32) -> Database {
    let mut cfg = DbConfig::default();
    cfg.csi.rowgroup_capacity = 1024;
    let db = Database::new(cfg);
    let q = n / 4;
    let hot_lo = n - n / 20;
    let spec = PartitionSpec::range(
        0,
        vec![Value::Int32(q), Value::Int32(2 * q), Value::Int32(hot_lo)],
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
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Int32(i),
                Value::Int32(i % 50),
                Value::Int64(i as i64 * 3),
            ])
        })
        .collect();
    db.load_table("events", rows).unwrap();
    db
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
fn cold_aggregate(hot_lo: i32) -> SelectQuery {
    SelectQuery {
        tables: vec![TableInput {
            name: "events".into(),
            predicate: Some(Expr::col_cmp(0, CmpOp::Lt, Value::Int32(hot_lo))),
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
        .map(|k| WorkloadStatement {
            statement: Statement::Select(hot_point(n - 1 - k * 7)),
            weight: 60.0,
            label: format!("hot-point-{k}"),
        })
        .collect();
    statements.push(WorkloadStatement {
        statement: Statement::Select(cold_aggregate(n - n / 20)),
        weight: 5.0,
        label: "cold-aggregate".into(),
    });
    Workload::new(statements)
}

#[test]
fn drift_workload_gets_heterogeneous_recommendation() {
    let n = 20_000;
    let db = partitioned_db(n);
    let rec = recommend_partition_designs(
        &db,
        "events",
        &drift_workload(n),
        &PartitionAdvisorOptions::default(),
    )
    .unwrap();

    assert!(
        rec.heterogeneous,
        "hot/cold drift should split designs: {:?}",
        rec.per_part
    );
    assert!(
        rec.est_cost_us < rec.best_homogeneous_cost_us,
        "heterogeneous what-if cost {:.1} must beat best homogeneous {:.1}",
        rec.est_cost_us,
        rec.best_homogeneous_cost_us
    );
    // The hot partition takes the B+ tree; at least one cold partition keeps
    // the columnstore.
    let hot = &rec.per_part[3];
    assert!(
        matches!(hot.indexes[0], IndexDescriptor::PrimaryBTree { .. }),
        "hot partition should get a B+ tree, got {:?}",
        hot.indexes
    );
    assert!(
        rec.per_part[..3]
            .iter()
            .any(|c| matches!(c.indexes[0], IndexDescriptor::PrimaryCsi)),
        "cold partitions should keep columnstore: {:?}",
        rec.per_part
    );
    let report = rec.report(&db);
    assert!(report.contains("events") && report.contains("heterogeneous"));
}

#[test]
fn recommendation_is_applicable_and_correct() {
    let n = 20_000;
    let db = partitioned_db(n);
    let workload = drift_workload(n);
    let before: Vec<_> = workload
        .statements
        .iter()
        .map(|s| {
            let mut rows = db.query(&s.statement).run().unwrap().rows;
            rows.sort_by_key(|r| format!("{r:?}"));
            rows
        })
        .collect();
    let rec = recommend_partition_designs(
        &db,
        "events",
        &workload,
        &PartitionAdvisorOptions::default(),
    )
    .unwrap();
    for choice in &rec.per_part {
        let primary = choice.indexes[0].clone();
        let secondaries = choice.indexes[1..].to_vec();
        db.apply_partition_design("events", choice.part, &primary, &secondaries)
            .unwrap();
    }
    for (s, expect) in workload.statements.iter().zip(&before) {
        let mut rows = db.query(&s.statement).run().unwrap().rows;
        rows.sort_by_key(|r| format!("{r:?}"));
        assert_eq!(&rows, expect, "results drift after applying {}", s.label);
    }
}

#[test]
fn unpartitioned_table_is_rejected() {
    let db = Database::new(DbConfig::default());
    db.create_table(
        "flat",
        schema(),
        vec![0],
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
    )
    .unwrap();
    db.load_table(
        "flat",
        vec![Row::new(vec![
            Value::Int32(1),
            Value::Int32(1),
            Value::Int64(1),
        ])],
    )
    .unwrap();
    let wl = Workload::read_only(vec![hot_point(1)]);
    let err = recommend_partition_designs(
        &db,
        "flat",
        &Workload::new(
            wl.statements
                .into_iter()
                .map(|mut s| {
                    if let Statement::Select(q) = &mut s.statement {
                        q.tables[0].name = "flat".into();
                    }
                    s
                })
                .collect(),
        ),
        &PartitionAdvisorOptions::default(),
    )
    .unwrap_err();
    assert!(format!("{err}").contains("not partitioned"), "{err}");
}

/// The whole-table advisors hand back one design per table, which
/// `apply_configuration` installs on every partition. A table whose
/// partitions have different primaries has no such design: `recommend`
/// leaves it out (and says so), `csi_everywhere_configuration` refuses.
#[test]
fn whole_table_advisors_never_flatten_heterogeneous_partitions() {
    let n = 2_000;
    let db = partitioned_db(n);
    let wl = Workload::read_only(vec![hot_point(n - 1), cold_aggregate(n - n / 20)]);
    let advisor = Advisor::new(&db, AdvisorOptions::default());
    // Homogeneous partitions have one primary: both advisors keep it.
    let rec = advisor.recommend(&wl).expect("homogeneous table");
    assert_eq!(
        rec.configuration.tables[0].indexes[0],
        IndexDescriptor::PrimaryCsi
    );
    csi_everywhere_configuration(&db, &["events".to_string()]).expect("homogeneous table");

    db.apply_partition_design(
        "events",
        3,
        &IndexDescriptor::PrimaryBTree { keys: vec![0] },
        &[],
    )
    .unwrap();
    let designs = |db: &Database| -> Vec<Vec<IndexDescriptor>> {
        db.with_table("events", |t| {
            (0..t.num_parts())
                .map(|p| t.part_metas(p).into_iter().map(|m| m.descriptor).collect())
                .collect()
        })
        .unwrap()
    };
    let before = designs(&db);
    let rec = advisor.recommend(&wl).expect("costed as it is");
    assert!(
        rec.configuration.tables.iter().all(|d| d.table != "events"),
        "no whole-table design for a per-partition table: {:?}",
        rec.configuration
    );
    assert!(
        rec.report(&db).contains("recommend_partition_designs"),
        "the report must point at the partition advisor:\n{}",
        rec.report(&db)
    );
    db.apply_configuration(&rec.configuration).unwrap();
    assert_eq!(designs(&db), before, "applying the advice flattens nothing");

    match csi_everywhere_configuration(&db, &["events".to_string()]) {
        Err(HpdError::InvalidQuery(msg)) => {
            assert!(msg.contains("recommend_partition_designs"), "{msg}")
        }
        other => panic!("expected InvalidQuery, got {other:?}"),
    }
}
