//! The streamed checkpoint: the image a checkpoint installs is byte for
//! byte the pinned golden, recovers to the same tables, is one
//! consistent (boundary, rows) snapshot per table, and a crash in the middle
//! leaves the previous image in place.

use std::sync::atomic::{AtomicI32, Ordering};

use hpd_common::{faults, CmpOp, DataType, Expr, HpdError, Row, Schema, Value};
use hpd_engine::{
    Database, DbConfig, DeleteStmt, IndexDescriptor, InsertStmt, PartitionSpec, SelectQuery,
    Statement, UpdateStmt,
};
use hpd_storage::IoTracker;

fn wide_schema() -> Schema {
    Schema::from_pairs(&[
        ("id", DataType::Int32),
        ("big", DataType::Int64),
        ("f", DataType::Float64),
        ("amount", DataType::Decimal),
        ("day", DataType::Date),
        ("tag", DataType::Utf8),
    ])
}

fn wide_row(id: i32) -> Row {
    Row::new(vec![
        Value::Int32(id),
        Value::Int64(i64::from(id) * 1_000_003 - 17),
        Value::Float64(f64::from(id) * 0.25 - 3.0),
        Value::Decimal(i64::from(id) * 12_345),
        Value::Date(18_000 + id % 31),
        Value::str(format!("tag-{}", id % 5)),
    ])
}

fn narrow_schema() -> Schema {
    Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)])
}

fn narrow_row(k: i32) -> Row {
    Row::new(vec![Value::Int32(k), Value::Int64(i64::from(k) * 7 % 13)])
}

fn insert(db: &Database, table: &str, row: Row) {
    db.query(&Statement::Insert(InsertStmt {
        table: table.into(),
        rows: vec![row],
    }))
    .run()
    .unwrap();
}

/// A fixed two-table database: `wide` is a B+ tree with a secondary B+ tree
/// and a secondary columnstore; `pt` is range-partitioned three ways with a
/// different design on every part. Both have committed inserts, updates and
/// deletes behind them, so delta stores, delete buffers and the per-table
/// redo boundaries are all non-trivial.
fn fixed_database(config: DbConfig) -> Database {
    let db = Database::new(config);
    db.create_table(
        "wide",
        wide_schema(),
        vec![0],
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
    )
    .unwrap();
    db.load_table("wide", (0..60).map(wide_row).collect())
        .unwrap();
    db.create_index(
        "wide",
        &IndexDescriptor::SecondaryBTree {
            keys: vec![4],
            includes: vec![3],
        },
    )
    .unwrap();
    db.create_index(
        "wide",
        &IndexDescriptor::SecondaryCsi {
            columns: vec![0, 3, 5],
        },
    )
    .unwrap();

    db.create_partitioned_table(
        "pt",
        narrow_schema(),
        vec![0],
        IndexDescriptor::PrimaryCsi,
        PartitionSpec::range(0, vec![Value::Int32(100), Value::Int32(200)]).unwrap(),
    )
    .unwrap();
    db.load_table("pt", (0..300).step_by(3).map(narrow_row).collect())
        .unwrap();
    db.apply_partition_design(
        "pt",
        1,
        &IndexDescriptor::PrimaryBTree { keys: vec![0] },
        &[IndexDescriptor::SecondaryCsi { columns: vec![1] }],
    )
    .unwrap();
    db.apply_partition_design(
        "pt",
        2,
        &IndexDescriptor::PrimaryBTree { keys: vec![0] },
        &[IndexDescriptor::SecondaryBTree {
            keys: vec![1],
            includes: vec![],
        }],
    )
    .unwrap();

    for id in 60..70 {
        insert(&db, "wide", wide_row(id));
    }
    db.query(&Statement::Update(UpdateStmt {
        table: "wide".into(),
        predicate: Expr::col_cmp(0, CmpOp::Lt, Value::Int32(8)),
        set: vec![(5, Expr::Lit(Value::str("rewritten")))],
        top: None,
    }))
    .run()
    .unwrap();
    db.query(&Statement::Delete(DeleteStmt {
        table: "wide".into(),
        predicate: Expr::col_cmp(0, CmpOp::Gt, Value::Int32(66)),
        top: None,
    }))
    .run()
    .unwrap();
    for k in [1, 101, 202, 299] {
        insert(&db, "pt", narrow_row(k));
    }
    db.query(&Statement::Delete(DeleteStmt {
        table: "pt".into(),
        predicate: Expr::col_cmp(0, CmpOp::Lt, Value::Int32(10)),
        top: None,
    }))
    .run()
    .unwrap();
    // Moves a row from the middle partition to the last.
    db.query(&Statement::Update(UpdateStmt {
        table: "pt".into(),
        predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(150)),
        set: vec![(1, Expr::Lit(Value::Int64(-1)))],
        top: None,
    }))
    .run()
    .unwrap();
    db
}

fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2 + bytes.len() / 32 + 1);
    for line in bytes.chunks(32) {
        for b in line {
            out.push_str(&format!("{b:02x}"));
        }
        out.push('\n');
    }
    out
}

/// Sorted logical contents and every part's index descriptors.
fn logical_state(db: &Database) -> Vec<(Vec<Row>, Vec<String>)> {
    [("wide", 6), ("pt", 2)]
        .into_iter()
        .map(|(name, cols)| {
            let q = SelectQuery::single_table(name, None, (0..cols).collect());
            let mut rows = db.query(&q).run().unwrap().rows;
            rows.sort_by_key(|r| r.key(&[0]));
            let designs = db
                .with_table(name, |t| {
                    (0..t.num_parts())
                        .map(|p| {
                            let metas = t.part_metas(p);
                            format!(
                                "{:?}",
                                metas.iter().map(|m| &m.descriptor).collect::<Vec<_>>()
                            )
                        })
                        .collect()
                })
                .unwrap();
            (rows, designs)
        })
        .collect()
}

#[test]
fn for_each_row_lends_what_scan_all_rows_copies() {
    let db = fixed_database(DbConfig::default());
    for name in ["wide", "pt"] {
        db.with_table(name, |t| {
            let (lend, copy) = (IoTracker::new(), IoTracker::new());
            let mut lent = Vec::new();
            t.for_each_row(db.pool(), &lend, &mut |r| lent.push(r.clone()));
            assert_eq!(lent, t.scan_all_rows(db.pool(), &copy), "{name}");
            assert_eq!(lent.len(), t.row_count(), "{name}");
            assert_eq!(lend.snapshot(), copy.snapshot(), "{name}");
            assert!(
                lend.snapshot().logical_reads > 0,
                "{name}: the read is charged"
            );
            // The same rows, same order, same charges, as encoded bytes — a
            // B+ tree part lends its leaves' own, a columnstore part encodes.
            let encoded = IoTracker::new();
            let mut decoded = Vec::new();
            t.for_each_encoded_row(db.pool(), &encoded, &mut |bytes| {
                decoded.push(Row::new(hpd_common::codec::decode(bytes)));
            });
            assert_eq!(format!("{decoded:?}"), format!("{lent:?}"), "{name}");
            assert_eq!(encoded.snapshot(), copy.snapshot(), "{name}");
        })
        .unwrap();
    }
}

#[test]
fn image_is_byte_identical_to_the_copying_encoders() {
    // The golden was written by the encoder that materialised every table
    // into a `Vec<Row>` and built each frame in a buffer of its own (commit
    // b819861), and rewritten when a row group came to be stored in the row
    // order its bytes favour (`pt`'s columnstore part lends its rows in key
    // order); regenerate with UPDATE_GOLDEN=1 only for an intended format
    // or row-order change.
    let db = fixed_database(DbConfig::default());
    db.checkpoint().unwrap();
    let image = db.wal_durable().checkpoint.expect("image installed");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/checkpoint_image.hex"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")).unwrap();
        std::fs::write(path, hex(&image)).unwrap();
    }
    let golden = std::fs::read_to_string(path).expect("golden present");
    assert_eq!(hex(&image), golden, "{} bytes encoded", image.len());

    // The third checkpoint of the unchanged tables is written over the
    // segments of the first and differs only in its begin LSN and the frame
    // CRC over it.
    db.checkpoint().unwrap();
    db.checkpoint().unwrap();
    let third = db.wal_durable().checkpoint.unwrap();
    assert_eq!(third.len(), image.len());
    assert_eq!(third[24..], image[24..], "everything after the header");
}

#[test]
fn recovering_from_the_image_restores_rows_and_designs() {
    let cfg = DbConfig::default();
    let db = fixed_database(cfg.clone());
    let expected = logical_state(&db);
    db.checkpoint().unwrap();
    let durable = db.wal_durable();
    // Nothing but the checkpoint's own markers is left to redo.
    assert!(durable.log.len() < 64, "{} log bytes", durable.log.len());
    let recovered = Database::recover(cfg, durable).unwrap();
    assert_eq!(logical_state(&recovered), expected);
}

#[test]
fn crash_in_checkpoint_leaves_the_previous_image_installed() {
    let cfg = DbConfig::default();
    let db = fixed_database(cfg.clone());
    db.checkpoint().unwrap();
    db.checkpoint().unwrap();
    let installed = db.wal_durable().checkpoint.unwrap();
    insert(&db, "wide", wide_row(500));
    let expected = logical_state(&db);

    faults::arm(faults::sites::CRASH_IN_CHECKPOINT, 1);
    let crashed = db.checkpoint();
    faults::clear_all();
    assert!(matches!(crashed, Err(HpdError::Crashed(_))), "{crashed:?}");
    let durable = db.wal_durable();
    assert_eq!(durable.checkpoint.as_deref(), Some(&installed[..]));
    // The old image plus the log behind it — the insert and the stray
    // CheckpointBegin included — is the whole database.
    let recovered = Database::recover(cfg, durable).unwrap();
    assert_eq!(logical_state(&recovered), expected);
}

#[test]
fn boundary_and_rows_are_one_snapshot_under_concurrent_commits() {
    // A writer appends keys 0, 1, 2, … one commit each while this thread
    // checkpoints and recovers from what each checkpoint left durable. If a
    // table's redo boundary were read apart from its rows, redo would either
    // repeat an insert the rows already hold (a duplicate key — the B+ tree
    // allows them) or skip one they lack (a gap).
    //
    // The two threads meet twice: the first checkpoint waits for the
    // writer's first commit, and the checkpoints go on until the writer has
    // committed all of its rows, so every run checkpoints a table that is
    // being written, however the threads are scheduled.
    const ROWS: i32 = 2_000;
    let cfg = DbConfig::default();
    let db = Database::new(cfg.clone());
    db.create_table(
        "pt",
        narrow_schema(),
        vec![0],
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
    )
    .unwrap();
    let committed = AtomicI32::new(0);
    let (first_commit, first_committed) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            for k in 0..ROWS {
                insert(&db, "pt", narrow_row(k));
                committed.store(k + 1, Ordering::SeqCst);
                if k == 0 {
                    first_commit.send(()).unwrap();
                }
            }
        });
        first_committed.recv().unwrap();
        let mut checkpoints_while_writing = 0;
        loop {
            let before = committed.load(Ordering::SeqCst);
            db.checkpoint().unwrap();
            let recovered = Database::recover(cfg.clone(), db.wal_durable()).unwrap();
            let q = SelectQuery::single_table("pt", None, vec![0]);
            let mut keys: Vec<i32> = recovered
                .query(&q)
                .run()
                .unwrap()
                .rows
                .iter()
                .map(|r| match r[0] {
                    Value::Int32(k) => k,
                    ref other => panic!("key {other:?}"),
                })
                .collect();
            keys.sort_unstable();
            let n = keys.len() as i32;
            assert_eq!(keys, (0..n).collect::<Vec<_>>());
            assert!(n >= before, "{before} rows were committed, {n} recovered");
            if before == ROWS {
                break;
            }
            checkpoints_while_writing += 1;
        }
        assert!(checkpoints_while_writing > 0);
    });
}
