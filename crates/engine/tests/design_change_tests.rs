//! A design change moves a table's indexes, not its rows: a snapshot that
//! began before it keeps reading what it read, and first-committer-wins
//! still sees the writes that committed before it. (SQL `DROP INDEX`, which
//! is `apply_design` with one index less, has the same test in
//! `hpd-sql`'s `sql_e2e`.)

use hpd_common::{CmpOp, DataType, Expr, HpdError, Row, Schema, Value};
use hpd_engine::{
    Database, DbConfig, IndexDescriptor, IsolationLevel, PartitionSpec, SelectQuery, Statement,
    TableDesign, UpdateStmt,
};

const ROWS: i32 = 200;
/// The row another session rewrites under the snapshot.
const HOT: i32 = 57;

fn btree() -> IndexDescriptor {
    IndexDescriptor::PrimaryBTree { keys: vec![0] }
}

fn on_grp() -> IndexDescriptor {
    IndexDescriptor::SecondaryBTree {
        keys: vec![1],
        includes: vec![],
    }
}

fn on_val() -> IndexDescriptor {
    IndexDescriptor::SecondaryBTree {
        keys: vec![2],
        includes: vec![1],
    }
}

fn csi() -> IndexDescriptor {
    IndexDescriptor::SecondaryCsi {
        columns: vec![0, 1, 2],
    }
}

/// `t(id, grp, val)` under a B+ tree primary with secondaries on `grp` and
/// on `val`; four range partitions on `id` when `partitioned`.
fn database(partitioned: bool) -> Database {
    let db = Database::new(DbConfig::default());
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int32),
        ("grp", DataType::Int32),
        ("val", DataType::Int64),
    ]);
    if partitioned {
        let bounds = [50, 100, 150].map(Value::Int32).to_vec();
        let spec = PartitionSpec::range(0, bounds).unwrap();
        db.create_partitioned_table("t", schema, vec![0], btree(), spec)
            .unwrap();
    } else {
        db.create_table("t", schema, vec![0], btree()).unwrap();
    }
    let row = |id: i32| {
        Row::new(vec![
            Value::Int32(id),
            Value::Int32(id % 7),
            Value::Int64(i64::from(id) * 10),
        ])
    };
    db.load_table("t", (0..ROWS).map(row).collect()).unwrap();
    db.create_index("t", &on_grp()).unwrap();
    db.create_index("t", &on_val()).unwrap();
    db
}

fn set_val(id: i32, val: i64) -> Statement {
    Statement::Update(UpdateStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(id)),
        set: vec![(2, Expr::Lit(Value::Int64(val)))],
        top: None,
    })
}

/// A snapshot reads the table, another session rewrites [`HOT`], then
/// `change` runs: the snapshot must read the same rows again, and its own
/// update of [`HOT`] must lose to the write that committed first.
fn snapshot_reads_on_and_loses_the_conflict(db: &Database, change: impl FnOnce(&Database)) {
    let session = db.session(IsolationLevel::Snapshot);
    let mut txn = session.begin();
    let all = SelectQuery::single_table("t", None, vec![0, 1, 2]);
    let read = |txn: &mut hpd_engine::Txn<'_>| {
        let mut rows = txn.select(&all).unwrap().rows;
        rows.sort_by_key(|r| r.key(&[0]));
        rows
    };
    let before = read(&mut txn);
    assert_eq!(before.len(), ROWS as usize);

    db.query(&set_val(HOT, -1)).run().unwrap();
    change(db);

    let again = read(&mut txn);
    let moved: Vec<_> = again.iter().zip(&before).filter(|(a, b)| a != b).collect();
    assert!(
        moved.is_empty() && again.len() == before.len(),
        "the snapshot's repeated read changed (now, then): {moved:?}"
    );
    let lost = txn
        .execute(&set_val(HOT, 5))
        .and_then(|_| txn.commit().map(drop));
    assert!(
        matches!(lost, Err(HpdError::SerializationFailure(_))),
        "the row changed after the snapshot began: {lost:?}"
    );
    // What the other session wrote is what a new reader finds.
    let hot = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(0, CmpOp::Eq, Value::Int32(HOT))),
        vec![2],
    );
    assert_eq!(
        db.query(&hot).run().unwrap().rows,
        vec![Row::new(vec![Value::Int64(-1)])]
    );
}

#[test]
fn a_snapshot_spans_apply_design() {
    // One secondary kept, one dropped, one added; then the primary itself
    // replaced under the kept secondary.
    let designs = [
        vec![btree(), on_val(), csi()],
        vec![IndexDescriptor::PrimaryCsi, on_val()],
    ];
    for design in designs {
        let db = database(false);
        snapshot_reads_on_and_loses_the_conflict(&db, |db| {
            db.apply_design(&TableDesign::new("t", design.clone()))
                .unwrap()
        });
        let built: Vec<IndexDescriptor> = db
            .with_table("t", |t| {
                t.part_metas(0).into_iter().map(|m| m.descriptor).collect()
            })
            .unwrap();
        assert_eq!(built, design);
    }
}

#[test]
fn a_snapshot_spans_apply_partition_design() {
    let db = database(true);
    snapshot_reads_on_and_loses_the_conflict(&db, |db| {
        // The part holding the rewritten row.
        db.apply_partition_design("t", 1, &IndexDescriptor::PrimaryCsi, &[on_grp()])
            .unwrap()
    });
}

#[test]
fn a_snapshot_spans_create_index() {
    let db = database(false);
    snapshot_reads_on_and_loses_the_conflict(&db, |db| db.create_index("t", &csi()).unwrap());
}
