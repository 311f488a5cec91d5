//! A committed write locates its row once.
//!
//! One `#[test]` on purpose: the columnstore assertion reads a process-wide
//! counter (`columnstore.scan.rows_selected`) and needs exact deltas, so
//! nothing else may run in this test binary.

use hpd_common::{CmpOp, DataType, Expr, Row, Schema, Value};
use hpd_engine::{
    Database, DbConfig, DeleteStmt, IndexDescriptor, SelectQuery, Statement, UpdateStmt,
};

const ROWS: i32 = 20_000;

fn table(db: &Database, primary: IndexDescriptor) {
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int32),
        ("grp", DataType::Int32),
        ("val", DataType::Int64),
    ]);
    db.create_table("t", schema, vec![0], primary).unwrap();
    let rows = (0..ROWS).map(|id| {
        Row::new(vec![
            Value::Int32(id),
            Value::Int32(id % 7),
            Value::Int64(i64::from(id) * 10),
        ])
    });
    db.load_table("t", rows.collect()).unwrap();
}

fn by_id(id: i32) -> Expr {
    Expr::col_cmp(0, CmpOp::Eq, Value::Int32(id))
}

fn update(id: i32, set: Expr) -> Statement {
    Statement::Update(UpdateStmt {
        table: "t".into(),
        predicate: by_id(id),
        set: vec![(2, set)],
        top: None,
    })
}

/// Logical page reads of one autocommitted statement, commit included.
fn logical_reads(db: &Database, stmt: &Statement) -> u64 {
    db.query(stmt).run().unwrap().metrics.io.logical_reads
}

/// On a B+ tree primary, a single-row DELETE or UPDATE costs its target-row
/// select plus ONE more descent: the commit removes or rewrites the row
/// through the descent that finds it, and takes the pre-image from there.
/// (It used to be four: the select, a fetch for the version store and the
/// log, and two more descents inside the table.)
fn btree_write_is_two_descents() {
    let db = Database::new(DbConfig::default());
    table(&db, IndexDescriptor::PrimaryBTree { keys: vec![0] });
    let point = |id| Statement::Select(SelectQuery::single_table("t", Some(by_id(id)), vec![0, 2]));
    logical_reads(&db, &point(7_000)); // warm
    let select = logical_reads(&db, &point(7_001));
    assert!(select >= 2, "tree too shallow to tell descents apart");
    let delete = logical_reads(
        &db,
        &Statement::Delete(DeleteStmt {
            table: "t".into(),
            predicate: by_id(7_002),
            top: None,
        }),
    );
    let updated = logical_reads(&db, &update(7_003, Expr::Lit(Value::Int64(-1))));
    println!("logical reads: select {select}, delete {delete}, update {updated}");
    assert!(
        delete <= 2 * select,
        "DELETE read {delete}, SELECT {select}"
    );
    assert!(
        updated <= 2 * select,
        "UPDATE read {updated}, SELECT {select}"
    );
}

/// On a primary columnstore the pre-image of an update is read once in the
/// commit — by the delete that removes it — so the only *scan* a single-row
/// UPDATE runs is its statement's target-row select.
fn csi_update_reads_its_pre_image_once() {
    let db = Database::new(DbConfig::default());
    table(&db, IndexDescriptor::PrimaryCsi);
    let selected = hpd_obs::global().counter("columnstore.scan.rows_selected");
    let before = selected.get();
    db.query(&update(7_003, Expr::Lit(Value::Int64(-1))))
        .run()
        .unwrap();
    let scanned = selected.get() - before;
    println!("rows_selected around one primary-CSI UPDATE: {scanned}");
    assert_eq!(scanned, 1, "a second scan fetched the pre-image again");
}

/// `SET val = val`: the images are equal, so no secondary index is touched —
/// which secondaries an update maintains follows from the two images, not
/// from the SET list.
fn an_update_that_changes_nothing_touches_no_secondary() {
    let db = Database::new(DbConfig::default());
    table(&db, IndexDescriptor::PrimaryBTree { keys: vec![0] });
    db.create_index(
        "t",
        &IndexDescriptor::SecondaryBTree {
            keys: vec![2],
            includes: vec![],
        },
    )
    .unwrap();
    db.create_index("t", &IndexDescriptor::SecondaryCsi { columns: vec![2] })
        .unwrap();
    let residue = |db: &Database| {
        db.with_table("t", |t| {
            t.part_metas(0)
                .iter()
                .map(|m| (m.delta_rows, m.delete_buffer_rows))
                .collect::<Vec<_>>()
        })
        .unwrap()
    };
    let before = residue(&db);
    db.query(&update(7_003, Expr::col(2))).run().unwrap();
    assert_eq!(residue(&db), before, "SET val = val");
    db.query(&update(7_003, Expr::Lit(Value::Int64(-1))))
        .run()
        .unwrap();
    assert_ne!(residue(&db), before, "a real change must reach the CSI");
}

#[test]
fn a_write_locates_its_row_once() {
    btree_write_is_two_descents();
    csi_update_reads_its_pre_image_once();
    an_update_that_changes_nothing_touches_no_secondary();
}
