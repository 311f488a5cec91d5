//! Golden recommendation snapshots: the advisor's full output — every
//! table's descriptor list in order, the exact bits of every estimated
//! cost, the new-index bytes and the per-column encoding expectations —
//! for fixed workloads on `tpcds::load(DsScale::small())`, compared against
//! checked-in files under `tests/golden/`. They pin "same search, same
//! recommendation" across advisor refactors: a change that is not supposed
//! to move the advisor leaves every file byte-identical. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test --release -p hpd-advisor --test
//! recommendation_golden -- --include-ignored`.
//!
//! The 13-query files were generated before the what-if session existed
//! and the refactor left them byte-identical. The 97-query file was
//! generated after it: without the session that search took 25 minutes in a
//! release build (565 262 index constructions), far too slow to generate in
//! a debug tier-1 run. Its `est_cost_after_us` bits and `new_index_bytes`
//! equal that one 25-minute run of the code before the session. It is
//! `#[ignore]`d because a debug build needs over ten seconds for it; CI
//! runs it in release.

use std::fmt::Write;
use std::path::PathBuf;

use hpd_advisor::{
    Advisor, AdvisorOptions, DesignMode, Recommendation, Workload, WorkloadStatement,
};
use hpd_common::{AggFunc, CmpOp, DataType, Expr, Row, Schema, Value};
use hpd_engine::{
    AggItem, ColRef, Database, DbConfig, DeleteStmt, IndexDescriptor, InsertStmt, PartitionSpec,
    SelectQuery, Statement, TableInput, UpdateStmt,
};
use hpd_workloads::tpcds::{self, fact, DsScale};

/// A snapshot file's stem and the function producing its contents.
type Case = (&'static str, fn() -> String);

/// One snapshot file per case.
const CASES: &[Case] = &[
    ("tpcds13_hybrid", tpcds13_hybrid),
    ("tpcds13_btree_only", tpcds13_btree_only),
    ("tpcds13_csi_only", tpcds13_csi_only),
    ("tpcds13_hybrid_budget", tpcds13_hybrid_budget),
    ("tpcds_mixed_dml", tpcds_mixed_dml),
    ("partitioned_events", partitioned_events),
];

/// Cases too slow for a debug test run.
const SLOW_CASES: &[Case] = &[("tpcds97_hybrid", tpcds97_hybrid)];

/// A storage budget the unconstrained 13-query `Hybrid` recommendation
/// (≈ 8.9 MB of new indexes) does not fit in, so the search ranks by
/// benefit per byte and skips candidates that no longer fit.
const BINDING_BUDGET_BYTES: usize = 400_000;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.rec"))
}

fn tpcds_db() -> Database {
    let mut cfg = DbConfig::default();
    cfg.csi.rowgroup_capacity = 4_096;
    let db = Database::new(cfg);
    tpcds::load(&db, DsScale::small()).unwrap();
    db
}

fn tpcds_workload(n: usize) -> Workload {
    Workload::new(
        tpcds::queries(n, 99)
            .into_iter()
            .map(|(name, q)| WorkloadStatement::labeled(Statement::Select(q), 1.0, name))
            .collect(),
    )
}

/// The whole recommendation as text. `csi_encoding_details` is grouped by
/// table name (its order across tables is not part of the contract; the
/// column order inside one table is).
fn render(rec: &Recommendation) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "est_cost_before_us bits={:#018x}\nest_cost_after_us bits={:#018x}\nnew_index_bytes={}",
        rec.est_cost_before_us.to_bits(),
        rec.est_cost_after_us.to_bits(),
        rec.new_index_bytes,
    )
    .unwrap();
    writeln!(out, "## configuration").unwrap();
    for design in &rec.configuration.tables {
        writeln!(out, "{}", design.table).unwrap();
        match design.indexes() {
            Some(indexes) => {
                for d in indexes {
                    writeln!(out, "  {d:?}").unwrap();
                }
            }
            None => {
                for (p, indexes) in design.parts.iter().enumerate() {
                    writeln!(out, "  p{p}").unwrap();
                    for d in indexes {
                        writeln!(out, "    {d:?}").unwrap();
                    }
                }
            }
        }
    }
    writeln!(out, "## per_statement").unwrap();
    for (label, before, after) in &rec.per_statement {
        writeln!(
            out,
            "{label} before={:#018x} after={:#018x}",
            before.to_bits(),
            after.to_bits()
        )
        .unwrap();
    }
    writeln!(out, "## csi_encoding_details").unwrap();
    let mut details: Vec<_> = rec.csi_encoding_details.iter().collect();
    details.sort_by(|a, b| a.table.cmp(&b.table));
    for d in details {
        writeln!(
            out,
            "{}.{} {} est_bytes={} cpu_factor={:#018x}",
            d.table,
            d.column,
            d.encoding.name(),
            d.est_bytes,
            d.cpu_factor.to_bits()
        )
        .unwrap();
    }
    out
}

fn recommend(db: &Database, workload: &Workload, options: AdvisorOptions) -> String {
    render(&Advisor::new(db, options).recommend(workload).unwrap())
}

fn tpcds(queries: usize, mode: DesignMode, storage_budget_bytes: Option<usize>) -> String {
    recommend(
        &tpcds_db(),
        &tpcds_workload(queries),
        AdvisorOptions {
            mode,
            storage_budget_bytes,
            ..AdvisorOptions::default()
        },
    )
}

fn tpcds13_hybrid() -> String {
    tpcds(13, DesignMode::Hybrid, None)
}

fn tpcds13_btree_only() -> String {
    tpcds(13, DesignMode::BTreeOnly, None)
}

fn tpcds13_csi_only() -> String {
    tpcds(13, DesignMode::CsiOnly, None)
}

fn tpcds13_hybrid_budget() -> String {
    tpcds(13, DesignMode::Hybrid, Some(BINDING_BUDGET_BYTES))
}

/// The paper's full TPC-DS-like workload.
fn tpcds97_hybrid() -> String {
    tpcds(97, DesignMode::Hybrid, None)
}

/// Five star queries plus heavy UPDATE / DELETE / INSERT traffic on the
/// fact tables: every candidate pays the maintenance charge.
fn tpcds_mixed_dml() -> String {
    let db = tpcds_db();
    let mut workload = tpcds_workload(5);
    let sample_row = db
        .with_table("web_sales", |t| {
            t.scan_all_rows(db.pool(), &hpd_storage::IoTracker::new())
        })
        .unwrap()[0]
        .clone();
    workload.statements.extend([
        WorkloadStatement::labeled(
            Statement::Update(UpdateStmt {
                table: "store_sales".into(),
                predicate: Expr::col_cmp(fact::ITEM_SK, CmpOp::Eq, Value::Int32(17)),
                top: None,
                set: vec![(fact::QUANTITY, Expr::lit(Value::Int32(1)))],
            }),
            400.0,
            "update-by-item",
        ),
        WorkloadStatement::labeled(
            Statement::Update(UpdateStmt {
                table: "store_sales".into(),
                predicate: Expr::col_cmp(fact::QUANTITY, CmpOp::Le, Value::Int32(3)),
                top: Some(10),
                set: vec![(fact::QUANTITY, Expr::lit(Value::Int32(4)))],
            }),
            50.0,
            "update-top-10",
        ),
        WorkloadStatement::labeled(
            Statement::Delete(DeleteStmt {
                table: "web_sales".into(),
                predicate: Expr::And(vec![
                    Expr::col_cmp(fact::DATE_SK, CmpOp::Eq, Value::Int32(40)),
                    Expr::col_cmp(fact::STORE_SK, CmpOp::Eq, Value::Int32(3)),
                ]),
                top: None,
            }),
            200.0,
            "delete-by-date-store",
        ),
        WorkloadStatement::labeled(
            Statement::Insert(InsertStmt {
                table: "web_sales".into(),
                rows: vec![sample_row; 8],
            }),
            300.0,
            "insert-batch",
        ),
    ]);
    recommend(&db, &workload, AdvisorOptions::default())
}

/// The advisor on a 4-way range-partitioned table under a hot-point /
/// cold-aggregate drift workload: per-part candidates and primary swaps.
fn partitioned_events() -> String {
    let n = 40_000i32;
    let mut cfg = DbConfig::default();
    cfg.csi.rowgroup_capacity = 1_024;
    let db = Database::new(cfg);
    let hot_lo = n - n / 20;
    db.create_partitioned_table(
        "events",
        Schema::from_pairs(&[
            ("id", DataType::Int32),
            ("dev", DataType::Int32),
            ("val", DataType::Int64),
        ]),
        vec![0],
        IndexDescriptor::PrimaryCsi,
        PartitionSpec::range(
            0,
            vec![
                Value::Int32(n / 4),
                Value::Int32(n / 2),
                Value::Int32(hot_lo),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    db.load_table(
        "events",
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int32(i),
                    Value::Int32(i % 50),
                    Value::Int64(i as i64 * 3),
                ])
            })
            .collect(),
    )
    .unwrap();
    let mut statements: Vec<WorkloadStatement> = (0..8)
        .map(|k| {
            WorkloadStatement::labeled(
                Statement::Select(SelectQuery::single_table(
                    "events",
                    Some(Expr::col_cmp(0, CmpOp::Eq, Value::Int32(n - 1 - k * 7))),
                    vec![0, 1, 2],
                )),
                60.0,
                format!("hot-point-{k}"),
            )
        })
        .collect();
    statements.push(WorkloadStatement::labeled(
        Statement::Select(SelectQuery::single_table(
            "events",
            Some(Expr::col_cmp(1, CmpOp::Eq, Value::Int32(7))),
            vec![0, 2],
        )),
        1.0,
        "by-device",
    ));
    statements.push(WorkloadStatement::labeled(
        Statement::Select(SelectQuery {
            tables: vec![TableInput {
                name: "events".into(),
                predicate: Some(Expr::col_cmp(0, CmpOp::Lt, Value::Int32(hot_lo))),
            }],
            group_by: vec![ColRef::new(0, 1)],
            aggregates: vec![AggItem::column(AggFunc::Sum, ColRef::new(0, 2))],
            ..Default::default()
        }),
        5.0,
        "cold-aggregate",
    ));
    recommend(&db, &Workload::new(statements), AdvisorOptions::default())
}

fn check(name: &str, produce: fn() -> String) -> Option<String> {
    let actual = produce();
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &actual).expect("write golden");
        return None;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}; run with UPDATE_GOLDEN=1", path.display()));
    if expected == actual {
        return None;
    }
    let first = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
    Some(format!(
        "{name}: first difference at line {}:\n  golden: {:?}\n  actual: {:?}",
        first + 1,
        expected.lines().nth(first),
        actual.lines().nth(first)
    ))
}

fn check_all(cases: &[Case]) {
    let failures: Vec<String> = cases
        .iter()
        .filter_map(|(name, produce)| check(name, *produce))
        .collect();
    assert!(
        failures.is_empty(),
        "recommendation snapshots changed (UPDATE_GOLDEN=1 regenerates):\n{}",
        failures.join("\n")
    );
}

#[test]
fn recommendations_match_golden_snapshots() {
    check_all(CASES);
}

#[test]
#[ignore = "over ten seconds in a debug build; CI runs it in release"]
fn slow_recommendations_match_golden_snapshots() {
    check_all(SLOW_CASES);
}

/// A snapshot nothing regenerates is a stale pin: every `.rec` file must
/// belong to a case.
#[test]
fn every_golden_snapshot_has_a_live_case() {
    let dir = golden_path("x");
    let dir = dir.parent().expect("golden dir");
    let Ok(entries) = std::fs::read_dir(dir) else {
        return; // nothing generated yet
    };
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("rec") {
            continue;
        }
        let stem = path.file_stem().and_then(|s| s.to_str()).expect("utf-8");
        assert!(
            CASES
                .iter()
                .chain(SLOW_CASES)
                .any(|(name, _)| *name == stem),
            "{} has no case in CASES or SLOW_CASES",
            path.display()
        );
    }
}
