//! End-to-end advisor tests: recommendations over realistic mini-workloads,
//! applied to the engine and verified by execution.

use hpd_advisor::{
    advisor::csi_everywhere_configuration, Advisor, AdvisorOptions, DesignMode, Workload,
    WorkloadStatement,
};
use hpd_common::{AggFunc, CmpOp, DataType, Expr, Row, Schema, Value};
use hpd_engine::{
    AggItem, ColRef, Database, DbConfig, EquiJoin, IndexDescriptor, SelectQuery, Statement,
    TableInput, UpdateStmt,
};

fn db() -> Database {
    let mut cfg = DbConfig::default();
    cfg.csi.rowgroup_capacity = 1024;
    Database::new(cfg)
}

/// orders(id, customer, status, amount): selective point lookups + scans.
fn setup_orders(db: &Database, n: i32) {
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int32),
        ("customer", DataType::Int32),
        ("status", DataType::Int32),
        ("amount", DataType::Int32),
    ]);
    db.create_table(
        "orders",
        schema,
        vec![0],
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
    )
    .unwrap();
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Int32(i),
                Value::Int32(i % 1000),
                Value::Int32(i % 7),
                Value::Int32(i * 13 % 500),
            ])
        })
        .collect();
    db.load_table("orders", rows).unwrap();
}

fn point_query() -> SelectQuery {
    SelectQuery::single_table(
        "orders",
        Some(Expr::col_cmp(1, CmpOp::Eq, Value::Int32(77))),
        vec![0, 1, 3],
    )
}

fn scan_query() -> SelectQuery {
    SelectQuery {
        tables: vec![TableInput::new("orders")],
        group_by: vec![ColRef::new(0, 2)],
        aggregates: vec![AggItem::column(AggFunc::Sum, ColRef::new(0, 3))],
        ..Default::default()
    }
}

#[test]
fn hybrid_mode_recommends_both_kinds() {
    let db = db();
    setup_orders(&db, 50_000);
    let workload = Workload::read_only(vec![point_query(), scan_query()]);
    let rec = Advisor::new(&db, AdvisorOptions::default())
        .recommend(&workload)
        .unwrap();

    let design = rec
        .configuration
        .design_for("orders")
        .expect("orders design");
    let has_btree = design.parts[0][1..]
        .iter()
        .any(|d| matches!(d, IndexDescriptor::SecondaryBTree { keys, .. } if keys.contains(&1)));
    let has_csi = design.parts[0][1..].iter().any(|d| d.is_csi());
    assert!(
        has_btree,
        "expected a B+ tree on customer; got {:?}",
        design.parts
    );
    assert!(has_csi, "expected a columnstore; got {:?}", design.parts);
    assert!(
        rec.est_cost_after_us < rec.est_cost_before_us,
        "recommendation must reduce estimated cost"
    );
    assert!(rec.new_index_bytes > 0);
    let report = rec.report(&db);
    assert!(report.contains("CREATE"));
}

#[test]
fn mode_restrictions_hold() {
    let db = db();
    setup_orders(&db, 20_000);
    let workload = Workload::read_only(vec![point_query(), scan_query()]);

    let bt = Advisor::new(
        &db,
        AdvisorOptions {
            mode: DesignMode::BTreeOnly,
            ..Default::default()
        },
    )
    .recommend(&workload)
    .unwrap();
    assert!(bt
        .configuration
        .tables
        .iter()
        .flat_map(|t| &t.parts[0][1..])
        .all(|d| !d.is_csi()));

    let cs = Advisor::new(
        &db,
        AdvisorOptions {
            mode: DesignMode::CsiOnly,
            ..Default::default()
        },
    )
    .recommend(&workload)
    .unwrap();
    assert!(cs
        .configuration
        .tables
        .iter()
        .flat_map(|t| &t.parts[0][1..])
        .all(|d| d.is_csi()));
}

#[test]
fn hybrid_beats_single_mode_designs_on_mixed_query_shapes() {
    let db = db();
    setup_orders(&db, 50_000);
    let workload = Workload::read_only(vec![point_query(), scan_query()]);
    let costs: Vec<f64> = [
        DesignMode::Hybrid,
        DesignMode::BTreeOnly,
        DesignMode::CsiOnly,
    ]
    .into_iter()
    .map(|mode| {
        Advisor::new(
            &db,
            AdvisorOptions {
                mode,
                ..Default::default()
            },
        )
        .recommend(&workload)
        .unwrap()
        .est_cost_after_us
    })
    .collect();
    let (hybrid, btree, csi) = (costs[0], costs[1], costs[2]);
    assert!(
        hybrid <= btree * 1.001 && hybrid <= csi * 1.001,
        "hybrid {hybrid} should be at least as good as btree {btree} and csi {csi}"
    );
}

#[test]
fn storage_budget_limits_recommendation() {
    let db = db();
    setup_orders(&db, 30_000);
    let workload = Workload::read_only(vec![point_query(), scan_query()]);
    let unconstrained = Advisor::new(&db, AdvisorOptions::default())
        .recommend(&workload)
        .unwrap();
    let tiny_budget = Advisor::new(
        &db,
        AdvisorOptions {
            storage_budget_bytes: Some(unconstrained.new_index_bytes / 4),
            ..Default::default()
        },
    )
    .recommend(&workload)
    .unwrap();
    assert!(tiny_budget.new_index_bytes <= unconstrained.new_index_bytes / 4);
    assert!(tiny_budget.est_cost_after_us >= unconstrained.est_cost_after_us * 0.999);
}

#[test]
fn storage_budget_flips_recommended_design() {
    let db = db();
    setup_orders(&db, 50_000);
    let workload = Workload::read_only(vec![point_query(), scan_query()]);
    let free = Advisor::new(&db, AdvisorOptions::default())
        .recommend(&workload)
        .unwrap();
    let free_design = free.configuration.design_for("orders").unwrap();
    assert!(
        free_design.parts[0][1..].iter().any(|d| d.is_csi()),
        "unconstrained hybrid run should include a CSI: {:?}",
        free_design.parts
    );
    assert!(
        free_design.parts[0][1..].iter().any(|d| !d.is_csi()),
        "unconstrained hybrid run should include a B+ tree: {:?}",
        free_design.parts
    );
    // The compressed columnstore is far smaller than the point-lookup
    // B+ tree here. Set the budget so the CSI fits and the B+ tree does
    // not: the knob must flip the design to columnstore-only.
    let csi_bytes: usize = free.csi_encoding_details.iter().map(|d| d.est_bytes).sum();
    let btree_bytes = free.new_index_bytes - csi_bytes;
    assert!(csi_bytes > 0 && btree_bytes > 2 * csi_bytes);
    let tight = Advisor::new(
        &db,
        AdvisorOptions {
            storage_budget_bytes: Some(csi_bytes + btree_bytes / 2),
            ..Default::default()
        },
    )
    .recommend(&workload)
    .unwrap();
    let tight_design = tight.configuration.design_for("orders").unwrap();
    assert!(
        tight_design.parts[0][1..].iter().any(|d| d.is_csi()),
        "the CSI still fits the budget: {:?}",
        tight_design.parts
    );
    assert!(
        tight_design.parts[0][1..].iter().all(|d| d.is_csi()),
        "the B+ tree must be squeezed out by the budget: {:?}",
        tight_design.parts
    );
    assert!(tight.new_index_bytes <= csi_bytes + btree_bytes / 2);
    assert!(tight.est_cost_after_us >= free.est_cost_after_us * 0.999);

    // The report spells out the predicted per-column encodings and their
    // scan CPU factors for the recommended columnstore.
    let report = free.report(&db);
    assert!(report.contains("scan cpu x"), "report:\n{report}");
    assert!(
        !free.csi_encoding_details.is_empty()
            && free
                .csi_encoding_details
                .iter()
                .all(|d| report.contains(&d.column)),
        "report:\n{report}"
    );
}

#[test]
fn update_heavy_workload_avoids_columnstore() {
    let db = db();
    setup_orders(&db, 30_000);
    // Overwhelmingly updates: the CSI maintenance cost should keep it out.
    let update = Statement::Update(UpdateStmt {
        table: "orders".into(),
        predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(5)),
        top: None,
        set: vec![(3, Expr::lit(Value::Int32(0)))],
    });
    let workload = Workload::new(vec![
        WorkloadStatement::new(update, 10_000.0),
        WorkloadStatement::new(Statement::Select(scan_query()), 0.01),
    ]);
    let rec = Advisor::new(&db, AdvisorOptions::default())
        .recommend(&workload)
        .unwrap();
    let design = rec.configuration.design_for("orders").unwrap();
    assert!(
        design.parts[0][1..].iter().all(|d| !d.is_csi()),
        "update-heavy workload must not get a CSI: {:?}",
        design.parts
    );
}

#[test]
fn applying_recommendation_speeds_up_execution() {
    let db = db();
    setup_orders(&db, 50_000);
    let workload = Workload::read_only(vec![point_query()]);

    // Measure the point query before: full scan.
    let before = db
        .query(&Statement::Select(point_query()))
        .run()
        .unwrap()
        .metrics
        .io
        .logical_reads;

    let rec = Advisor::new(&db, AdvisorOptions::default())
        .recommend(&workload)
        .unwrap();
    db.apply_configuration(&rec.configuration).unwrap();

    let r = db.query(&Statement::Select(point_query())).run().unwrap();
    assert_eq!(r.rows.len(), 50); // 50_000 / 1000 per customer
    assert!(
        r.metrics.io.logical_reads * 10 < before,
        "after tuning: {} logical reads vs {} before",
        r.metrics.io.logical_reads,
        before
    );
}

#[test]
fn csi_everywhere_baseline_configuration() {
    let db = db();
    setup_orders(&db, 5_000);
    let cfg = csi_everywhere_configuration(&db, &["orders".to_string()]).unwrap();
    assert_eq!(cfg.tables.len(), 1);
    assert!(cfg.tables[0].parts[0][1].is_csi());
    db.apply_configuration(&cfg).unwrap();
    let r = db.query(&Statement::Select(scan_query())).run().unwrap();
    assert_eq!(r.rows.len(), 7);
}

#[test]
fn join_workload_gets_fact_table_btree_on_join_key() {
    let db = db();
    // Star: fact + dimension with a selective dimension predicate.
    db.create_table(
        "fact",
        Schema::from_pairs(&[
            ("id", DataType::Int32),
            ("dim_id", DataType::Int32),
            ("measure", DataType::Int32),
        ]),
        vec![0],
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
    )
    .unwrap();
    db.create_table(
        "dim",
        Schema::from_pairs(&[("id", DataType::Int32), ("attr", DataType::Int32)]),
        vec![0],
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
    )
    .unwrap();
    db.load_table(
        "fact",
        (0..60_000)
            .map(|i| {
                Row::new(vec![
                    Value::Int32(i),
                    Value::Int32(i % 2000),
                    Value::Int32(1),
                ])
            })
            .collect(),
    )
    .unwrap();
    db.load_table(
        "dim",
        (0..2000)
            .map(|i| Row::new(vec![Value::Int32(i), Value::Int32(i % 500)]))
            .collect(),
    )
    .unwrap();

    let q = SelectQuery {
        tables: vec![
            TableInput::new("fact"),
            TableInput::with_predicate("dim", Expr::col_cmp(1, CmpOp::Eq, Value::Int32(3))),
        ],
        joins: vec![EquiJoin {
            left: ColRef::new(0, 1),
            right: ColRef::new(1, 0),
        }],
        aggregates: vec![AggItem::column(AggFunc::Sum, ColRef::new(0, 2))],
        ..Default::default()
    };
    let rec = Advisor::new(&db, AdvisorOptions::default())
        .recommend(&Workload::read_only(vec![q.clone()]))
        .unwrap();
    let fact = rec.configuration.design_for("fact").unwrap();
    assert!(
        fact.parts[0][1..].iter().any(|d| matches!(
            d,
            IndexDescriptor::SecondaryBTree { keys, .. } if keys.first() == Some(&1)
        )),
        "expected fact B+ tree on the join key: {:?}",
        fact.parts
    );

    db.apply_configuration(&rec.configuration).unwrap();
    let r = db.query(&Statement::Select(q)).run().unwrap();
    // 4 dims with attr=3, each with 30 fact rows.
    assert_eq!(r.scalar(), Some(&Value::Int64(120)));
}
