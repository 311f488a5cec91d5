//! Golden plan snapshots: `plan.explain()` plus the exact bits of
//! `est_cost_us` for fixed query sets on fixed designs, compared against
//! checked-in files under `tests/golden/plan/`. They pin "same plans, same
//! costs" across engine refactors: a change that is not supposed to move
//! the optimizer leaves every file byte-identical. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test plan_golden`.

use std::fmt::Write;
use std::path::PathBuf;

use hybrid_physical_designs::advisor::advisor::csi_everywhere_configuration;
use hybrid_physical_designs::common::Value;
use hybrid_physical_designs::engine::{
    ColRef, Database, DbConfig, IndexDescriptor, PartitionSpec, SelectQuery, Statement, TableInput,
};
use hybrid_physical_designs::sql::{bind, parse, Bound};
use hybrid_physical_designs::workloads::micro::{MicroTable, DOMAIN};
use hybrid_physical_designs::workloads::tpcds::{self, DsScale};
use hybrid_physical_designs::workloads::tpch::{load_lineitem, MixedDesign};

/// The Figure 1 selectivity grid.
const SELECTIVITIES: [f64; 7] = [0.0, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5];

/// A snapshot file's stem and the function producing its contents.
type Case = (&'static str, fn() -> String);

/// One snapshot file per case.
const CASES: &[Case] = &[
    ("tpcds_btree_only", tpcds_btree_only),
    ("tpcds_csi_everywhere", tpcds_csi_everywhere),
    ("micro_hybrid", micro_hybrid),
    ("micro_part8", micro_part8),
    ("htap_lineitem", htap_lineitem),
];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/plan")
        .join(format!("{name}.plan"))
}

fn config() -> DbConfig {
    let mut cfg = DbConfig::default();
    cfg.csi.rowgroup_capacity = 4_096;
    cfg
}

/// Append one query's plan: label, exact cost bits, explain tree.
fn snap(out: &mut String, db: &Database, label: &str, query: &SelectQuery) {
    let plan = db.plan(query).unwrap_or_else(|e| panic!("{label}: {e}"));
    writeln!(
        out,
        "## {label}\nest_cost_us bits={:#018x}\n{}",
        plan.est_cost_us.to_bits(),
        plan.explain()
    )
    .expect("write to string");
}

/// Lower SQL text to the select the engine plans for it: a SELECT as is,
/// an UPDATE / DELETE as its target-row read (every column, the statement's
/// predicate and TOP).
fn sql_select(db: &Database, sql: &str) -> SelectQuery {
    let ast = parse(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let stmt = match bind(db, &ast, &[]).unwrap_or_else(|e| panic!("{sql}: {e}")) {
        Bound::Stmt(s) => s,
        other => panic!("{sql}: not a DML statement: {other:?}"),
    };
    let (table, predicate, top) = match stmt {
        Statement::Select(q) => return q,
        Statement::Update(u) => (u.table, u.predicate, u.top),
        Statement::Delete(d) => (d.table, d.predicate, d.top),
        Statement::Insert(_) => panic!("{sql}: an INSERT has no plan"),
    };
    let arity = db.with_table(&table, |t| t.schema().len()).expect("table");
    SelectQuery {
        tables: vec![TableInput::with_predicate(&table, predicate)],
        select: (0..arity).map(|c| ColRef::new(0, c)).collect(),
        limit: top,
        ..Default::default()
    }
}

fn snap_sql(out: &mut String, db: &Database, sql: &str) {
    snap(out, db, sql, &sql_select(db, sql));
}

fn tpcds_snapshot(db: &Database) -> String {
    let mut out = String::new();
    for (name, q) in tpcds::queries(13, 99) {
        snap(&mut out, db, &name, &q);
    }
    out
}

fn tpcds_btree_only() -> String {
    let db = Database::new(config());
    tpcds::load(&db, DsScale::small()).unwrap();
    tpcds_snapshot(&db)
}

fn tpcds_csi_everywhere() -> String {
    let db = Database::new(config());
    tpcds::load(&db, DsScale::small()).unwrap();
    let tables: Vec<String> = tpcds::TABLES.iter().map(|t| t.to_string()).collect();
    db.apply_configuration(&csi_everywhere_configuration(&db, &tables).unwrap())
        .unwrap();
    tpcds_snapshot(&db)
}

/// Q1/Q2 over the selectivity grid, Q3, and the benchmark's `scan_*`
/// statement shapes, against `table`.
fn micro_sweep(db: &Database, table: &MicroTable) -> String {
    let mut out = String::new();
    for sel in SELECTIVITIES {
        snap(&mut out, db, &format!("q1 sel={sel}"), &table.q1(sel));
    }
    for sel in SELECTIVITIES {
        snap(&mut out, db, &format!("q2 sel={sel}"), &table.q2(sel));
    }
    snap(&mut out, db, "q3", &table.q3());
    let name = &table.name;
    let (lo, hi) = MicroTable::range_for(0.1);
    for sql in [
        format!("SELECT COUNT(*), SUM(col1), SUM(col3) FROM {name}"),
        format!("SELECT MIN(col1), MAX(col3) FROM {name}"),
        format!("SELECT COUNT(*), SUM(col3) FROM {name} WHERE col1 >= {lo} AND col1 < {hi}"),
        format!(
            "SELECT col2, SUM(col3) FROM {name} WHERE col1 >= {lo} AND col1 < {hi} GROUP BY col2"
        ),
        format!(
            "SELECT col1, col3 FROM {name} WHERE col1 >= {lo} AND col1 < {hi} \
             ORDER BY col3 LIMIT 100"
        ),
        format!("SELECT col2, col3 FROM {name} WHERE col1 = {lo}"),
        format!("SELECT col1, col2, col3 FROM {name} ORDER BY col1 LIMIT 10"),
        format!("UPDATE {name} SET col3 = col3 + 1 WHERE col1 = {lo}"),
    ] {
        snap_sql(&mut out, db, &sql);
    }
    out
}

/// Unpartitioned hybrid: B+ tree on col1 plus a secondary columnstore.
fn micro_hybrid() -> String {
    let db = Database::new(config());
    let table = MicroTable::new("micro", 3, 40_000);
    table
        .load(&db, IndexDescriptor::PrimaryBTree { keys: vec![0] })
        .unwrap();
    db.create_index(
        "micro",
        &IndexDescriptor::SecondaryCsi {
            columns: vec![0, 1, 2],
        },
    )
    .unwrap();
    micro_sweep(&db, &table)
}

/// The benchmark's partitioned table: 8 range partitions on col1,
/// columnstore history with a B+ tree tail.
fn micro_part8() -> String {
    let db = Database::new(config());
    let table = MicroTable::new("micro_part", 3, 40_000);
    let bounds = (1..8)
        .map(|p| Value::Int32((p * (DOMAIN / 8)) as i32))
        .collect();
    db.create_partitioned_table(
        "micro_part",
        table.schema(),
        vec![0],
        IndexDescriptor::PrimaryCsi,
        PartitionSpec::range(0, bounds).unwrap(),
    )
    .unwrap();
    db.load_table("micro_part", table.rows()).unwrap();
    db.apply_partition_design(
        "micro_part",
        7,
        &IndexDescriptor::PrimaryBTree { keys: vec![0] },
        &[],
    )
    .unwrap();
    let mut out = micro_sweep(&db, &table);
    // Windows inside one partition: the gather has one lane, so the lane's
    // sort order survives it — the B+ tree tail needs no Sort, a columnstore
    // partition still does.
    let eighth = DOMAIN / 8;
    for part in [7, 3] {
        let (lo, hi) = (part * eighth + eighth / 4, part * eighth + eighth / 2);
        let sql = format!(
            "SELECT col1, col3 FROM micro_part WHERE col1 >= {lo} AND col1 < {hi} \
             ORDER BY col1 LIMIT 100"
        );
        snap_sql(&mut out, &db, &sql);
    }
    out
}

/// The benchmark's `htap` statement shapes on design (B).
fn htap_lineitem() -> String {
    let db = Database::new(config());
    load_lineitem(&db, 20_000, 1, MixedDesign::BTreeWithSecondaryCsi).unwrap();
    let mut out = String::new();
    for sql in [
        "SELECT l_quantity, l_extendedprice FROM lineitem \
         WHERE l_orderkey = 17 AND l_linenumber = 1",
        "UPDATE TOP 10 lineitem SET l_quantity = l_quantity + 1, \
         l_extendedprice = l_extendedprice + 1 WHERE l_shipdate = 100",
        "DELETE FROM lineitem WHERE l_orderkey = 17 AND l_linenumber = 1",
        "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem \
         WHERE l_orderkey BETWEEN 17 AND 21",
        "SELECT SUM(l_quantity), SUM(l_extendedprice * (1 - l_discount)) \
         FROM lineitem WHERE l_shipdate BETWEEN 400 AND 424",
    ] {
        snap_sql(&mut out, &db, sql);
    }
    out
}

#[test]
fn plans_match_golden_snapshots() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut failures = Vec::new();
    for (name, build) in CASES {
        let got = build();
        let path = golden_path(name);
        if update {
            std::fs::write(&path, &got).expect("write golden file");
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!("missing golden file {path:?}; regenerate with UPDATE_GOLDEN=1")
        });
        if got != want {
            failures.push(format!(
                "`{name}` diverged from its snapshot\n--- got ---\n{got}\n--- want ---\n{want}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} snapshot(s) diverged (UPDATE_GOLDEN=1 regenerates):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn every_golden_snapshot_has_a_live_case() {
    // Deleting a case must not leave a stale snapshot behind.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/plan");
    for entry in std::fs::read_dir(dir).expect("golden dir") {
        let name = entry.unwrap().path();
        let stem = name.file_stem().unwrap().to_string_lossy().into_owned();
        assert!(
            CASES.iter().any(|(n, _)| *n == stem),
            "stale golden file {name:?} has no plan case"
        );
    }
}
