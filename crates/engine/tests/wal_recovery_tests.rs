//! Crash-recovery tests: committed state survives a simulated crash
//! (drop the `Database`, keep only `wal_durable()`) across physical
//! designs, fuzzy checkpoints, group commit, maintenance, and the
//! registered crash points.

use hpd_common::{faults, BinOp, CmpOp, DataType, Expr, HpdError, Row, Schema, Value};
use hpd_engine::{
    Database, DbConfig, IndexDescriptor, SelectQuery, Statement, TableDesign, WalConfig,
};

fn wal_config(cfg: WalConfig) -> DbConfig {
    DbConfig {
        wal: cfg,
        ..DbConfig::default()
    }
}

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

fn setup(db: &Database, primary: IndexDescriptor, n: i32) {
    db.create_table("t", schema(), vec![0], primary).unwrap();
    db.load_table("t", (0..n).map(row).collect()).unwrap();
}

fn insert(db: &Database, id: i32) {
    let stmt = Statement::Insert(hpd_engine::InsertStmt {
        table: "t".into(),
        rows: vec![row(id)],
    });
    db.query(&stmt).run().unwrap();
}

fn delete_below(db: &Database, id: i32) {
    let stmt = Statement::Delete(hpd_engine::DeleteStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(0, CmpOp::Lt, Value::Int32(id)),
        top: None,
    });
    db.query(&stmt).run().unwrap();
}

fn update_below(db: &Database, id: i32, val: i64) {
    let stmt = Statement::Update(hpd_engine::UpdateStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(0, CmpOp::Lt, Value::Int32(id)),
        set: vec![(2, Expr::Lit(Value::Int64(val)))],
        top: None,
    });
    db.query(&stmt).run().unwrap();
}

/// Full logical contents, sorted by primary key.
fn contents(db: &Database) -> Vec<Row> {
    let q = SelectQuery::single_table("t", None, vec![0, 1, 2]);
    let mut rows = db.query(&q).run().unwrap().rows;
    rows.sort_by_key(|r| r.key(&[0]));
    rows
}

/// Crash `db` (drop it, keep durable state) and recover a fresh instance.
fn crash_and_recover(db: Database, config: DbConfig) -> Database {
    let durable = db.wal_durable();
    drop(db);
    Database::recover(config, durable).unwrap()
}

#[test]
fn committed_writes_survive_crash_across_designs() {
    let designs = [
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
        IndexDescriptor::PrimaryCsi,
    ];
    for primary in designs {
        let cfg = wal_config(WalConfig::default());
        let db = Database::new(cfg.clone());
        setup(&db, primary.clone(), 100);
        insert(&db, 200);
        update_below(&db, 10, -1);
        delete_below(&db, 5);
        let expected = contents(&db);

        let recovered = crash_and_recover(db, cfg);
        assert_eq!(contents(&recovered), expected, "design {primary:?}");
    }
}

#[test]
fn secondary_columnstore_delete_buffer_state_is_rebuilt() {
    let cfg = wal_config(WalConfig::default());
    let db = Database::new(cfg.clone());
    setup(&db, IndexDescriptor::PrimaryBTree { keys: vec![0] }, 200);
    db.create_index(
        "t",
        &IndexDescriptor::SecondaryCsi {
            columns: vec![1, 2],
        },
    )
    .unwrap();
    // Deletes against a secondary CSI buffer logically; compact some of
    // them, leave others buffered, then crash.
    delete_below(&db, 20);
    db.maintenance("t").run().unwrap();
    delete_below(&db, 40);
    insert(&db, 500);
    let expected = contents(&db);

    let recovered = crash_and_recover(db, cfg);
    assert_eq!(contents(&recovered), expected);
    // The rebuilt table still has its secondary CSI.
    let has_csi = recovered
        .with_table("t", |t| t.part(0).indexes()[1].csi().is_ok())
        .unwrap();
    assert!(has_csi, "secondary CSI lost by recovery");
}

#[test]
fn fuzzy_checkpoint_truncates_log_and_recovers() {
    let cfg = wal_config(WalConfig::default());
    let db = Database::new(cfg.clone());
    setup(&db, IndexDescriptor::PrimaryCsi, 300);
    for id in 300..340 {
        insert(&db, id);
    }
    db.checkpoint().unwrap();
    let durable = db.wal_durable();
    assert!(
        durable.checkpoint.is_some() && durable.base_lsn > 0,
        "checkpoint must install an image and truncate the log"
    );
    // Post-checkpoint writes replay on top of the restored image.
    update_below(&db, 50, 123);
    delete_below(&db, 10);
    let expected = contents(&db);

    let recovered = crash_and_recover(db, cfg);
    assert_eq!(contents(&recovered), expected);
}

#[test]
fn auto_checkpoint_fires_on_commit_interval() {
    let cfg = wal_config(WalConfig {
        checkpoint_every_commits: 4,
        ..WalConfig::default()
    });
    let db = Database::new(cfg.clone());
    setup(&db, IndexDescriptor::PrimaryBTree { keys: vec![0] }, 50);
    for id in 50..62 {
        insert(&db, id);
    }
    assert!(
        db.wal_durable().checkpoint.is_some(),
        "12 commits at interval 4 must have auto-checkpointed"
    );
    let expected = contents(&db);
    let recovered = crash_and_recover(db, cfg);
    assert_eq!(contents(&recovered), expected);
}

#[test]
fn group_commit_loses_unflushed_tail() {
    let cfg = wal_config(WalConfig {
        sync_commit: false,
        group_commit_bytes: 1 << 20, // never reached: all commits deferred
        ..WalConfig::default()
    });
    let db = Database::new(cfg.clone());
    setup(&db, IndexDescriptor::PrimaryBTree { keys: vec![0] }, 100);
    let loaded = contents(&db);
    insert(&db, 900); // deferred — in the torn tail
    assert_eq!(contents(&db).len(), 101, "visible before the crash");

    let recovered = crash_and_recover(db, cfg);
    // The deferred commit is lost; the (synchronously logged) load survives.
    assert_eq!(contents(&recovered), loaded);
}

#[test]
fn ddl_and_design_changes_replay_without_checkpoint() {
    let cfg = wal_config(WalConfig::default());
    let db = Database::new(cfg.clone());
    setup(&db, IndexDescriptor::PrimaryBTree { keys: vec![0] }, 80);
    db.create_index(
        "t",
        &IndexDescriptor::SecondaryBTree {
            keys: vec![1],
            includes: vec![2],
        },
    )
    .unwrap();
    db.apply_design(&TableDesign::new(
        "t",
        vec![
            IndexDescriptor::PrimaryBTree { keys: vec![0] },
            IndexDescriptor::SecondaryCsi { columns: vec![2] },
        ],
    ))
    .unwrap();
    insert(&db, 100);
    let expected = contents(&db);

    let recovered = crash_and_recover(db, cfg);
    assert_eq!(contents(&recovered), expected);
    let (n_indexes, has_csi) = recovered
        .with_table("t", |t| {
            let indexes = t.part(0).indexes();
            (indexes.len(), indexes[1].csi().is_ok())
        })
        .unwrap();
    assert_eq!(n_indexes, 2, "design change replay dropped the old B+ tree");
    assert!(has_csi, "design change replay rebuilt the secondary CSI");
}

#[test]
fn recovered_database_can_crash_and_recover_again() {
    let cfg = wal_config(WalConfig::default());
    let db = Database::new(cfg.clone());
    setup(&db, IndexDescriptor::PrimaryBTree { keys: vec![0] }, 60);
    insert(&db, 100);

    let once = crash_and_recover(db, cfg.clone());
    insert(&once, 101);
    delete_below(&once, 3);
    let expected = contents(&once);

    let twice = crash_and_recover(once, cfg);
    assert_eq!(contents(&twice), expected);
}

#[test]
fn crash_before_commit_flush_loses_the_transaction() {
    faults::clear_all();
    let cfg = wal_config(WalConfig::default());
    let db = Database::new(cfg.clone());
    setup(&db, IndexDescriptor::PrimaryBTree { keys: vec![0] }, 30);
    let before = contents(&db);

    faults::arm(faults::sites::CRASH_BEFORE_COMMIT_FLUSH, 1);
    let stmt = Statement::Insert(hpd_engine::InsertStmt {
        table: "t".into(),
        rows: vec![row(999)],
    });
    let err = db.query(&stmt).run().unwrap_err();
    assert!(matches!(err, HpdError::Crashed(_)), "{err:?}");
    faults::clear_all();

    let recovered = crash_and_recover(db, cfg);
    assert_eq!(contents(&recovered), before, "txn must be lost");
}

#[test]
fn crash_after_commit_flush_preserves_the_transaction() {
    faults::clear_all();
    let cfg = wal_config(WalConfig::default());
    let db = Database::new(cfg.clone());
    setup(&db, IndexDescriptor::PrimaryBTree { keys: vec![0] }, 30);

    faults::arm(faults::sites::CRASH_AFTER_COMMIT_FLUSH, 1);
    let stmt = Statement::Insert(hpd_engine::InsertStmt {
        table: "t".into(),
        rows: vec![row(999)],
    });
    let err = db.query(&stmt).run().unwrap_err();
    assert!(matches!(err, HpdError::Crashed(_)), "{err:?}");
    faults::clear_all();

    let recovered = crash_and_recover(db, cfg);
    let rows = contents(&recovered);
    assert_eq!(rows.len(), 31, "flushed commit must survive");
    assert!(rows.iter().any(|r| r.get(0) == &Value::Int32(999)));
}

#[test]
fn skip_delta_redo_knob_causes_divergence_on_csi_only() {
    faults::clear_all();
    // On a B+ tree design the knob is inert…
    let cfg = wal_config(WalConfig::default());
    let db = Database::new(cfg.clone());
    setup(&db, IndexDescriptor::PrimaryBTree { keys: vec![0] }, 40);
    insert(&db, 100);
    let expected = contents(&db);
    let durable = db.wal_durable();
    drop(db);
    faults::set_always(faults::sites::WAL_SKIP_DELTA_REDO, true);
    let recovered = Database::recover(cfg.clone(), durable).unwrap();
    assert_eq!(contents(&recovered), expected);

    // …but on a columnstore design it silently drops the replayed insert.
    let db = Database::new(cfg.clone());
    setup(&db, IndexDescriptor::PrimaryCsi, 40);
    insert(&db, 100);
    let expected = contents(&db);
    let durable = db.wal_durable();
    drop(db);
    let recovered = Database::recover(cfg, durable).unwrap();
    faults::clear_all();
    assert_ne!(
        contents(&recovered),
        expected,
        "the deliberate bug must be observable on CSI designs"
    );
}

// ---------------------------------------------------------------------
// One write path: log-only recovery is physically identical
// ---------------------------------------------------------------------

/// `(id, grp, val, bucket)`: `grp` is the column the subset CSI stores,
/// `val` one it does not, `bucket` the partition column — deliberately not
/// in the primary key, so an update can move a row across partitions.
fn parity_row(id: i32) -> Row {
    Row::new(vec![
        Value::Int32(id),
        Value::Int32(id % 7),
        Value::Int64(i64::from(id) * 10),
        Value::Int32(id % 30),
    ])
}

fn set_where_id(db: &Database, id: i32, col: usize, to: Expr) {
    let stmt = Statement::Update(hpd_engine::UpdateStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(id)),
        set: vec![(col, to)],
        top: None,
    });
    db.query(&stmt).run().unwrap();
}

/// Per part of table `t`, the `Debug` form of its
/// [`hpd_engine::IndexMeta`]s; and its maintenance backlog.
fn metas_and_backlog(db: &Database) -> (Vec<String>, usize) {
    db.with_table("t", |t| {
        let metas = (0..t.num_parts())
            .map(|p| format!("p{p}: {:?}", t.part_metas(p)))
            .collect();
        (metas, t.maintenance_backlog())
    })
    .unwrap()
}

/// Everything physical the engine reports about a table: per part, every
/// index's rows, pages, height, rowgroups, delta rows, buffered deletes and
/// column bytes (the `Debug` form of its [`hpd_engine::IndexMeta`]s), plus
/// the maintenance backlog and the rows themselves.
fn physical_state(db: &Database) -> (Vec<String>, usize, Vec<Row>) {
    let (metas, backlog) = metas_and_backlog(db);
    let q = SelectQuery::single_table("t", None, vec![0, 1, 2, 3]);
    let mut rows = db.query(&q).run().unwrap().rows;
    rows.sort_by_key(|r| r.key(&[0]));
    (metas, backlog, rows)
}

/// FNV-1a of `bytes`, in hex.
fn fnv1a(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// [`fnv1a`] of each design's durable log in
/// [`log_only_recovery_is_physically_identical`], after phase 2 and after
/// phase 3.
const LOG_HASHES: [(&str, &str, &str); 4] = [
    ("btree", "f41afe3ef5cca394", "fcaed220efa70bf5"),
    ("csi", "a4e5b9c20d7b87c6", "89b0153565665471"),
    ("hybrid", "a1c1989fcdcf2b52", "fc56c3fb95804b6f"),
    ("parthybrid", "b823efe20ccd704d", "2689ad608d215f6c"),
];

/// The gate for "one write path": with no checkpoint and no faults, a
/// database recovered from the log alone is *physically* the live one —
/// same pages, rowgroups, delta rows and buffered deletes in every index of
/// every part — because redo and the live commit are one interpreter. A
/// second write path (redo replaying an update as delete + insert, say)
/// leaves different residue and fails here. Also pins a hash of each
/// design's durable log after phases 2 and 3 ([`LOG_HASHES`]), so a change
/// to the record sequence or to a single logged byte fails here too.
#[test]
fn log_only_recovery_is_physically_identical() {
    let cfg = DbConfig {
        csi: hpd_engine::CsiConfig {
            rowgroup_capacity: 16,
            delete_buffer_compact_threshold: 6,
            ..Default::default()
        },
        ..DbConfig::default()
    };
    let btree = IndexDescriptor::PrimaryBTree { keys: vec![0] };
    let subset_csi = IndexDescriptor::SecondaryCsi { columns: vec![1] };
    for (design, phase2, phase3) in LOG_HASHES {
        let db = Database::new(cfg.clone());
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int32),
            ("grp", DataType::Int32),
            ("val", DataType::Int64),
            ("bucket", DataType::Int32),
        ]);
        match design {
            "parthybrid" => {
                // CSI history partitions, B+ tree insert tail.
                let spec =
                    hpd_engine::PartitionSpec::range(3, vec![Value::Int32(10), Value::Int32(20)])
                        .unwrap();
                db.create_partitioned_table(
                    "t",
                    schema,
                    vec![0],
                    IndexDescriptor::PrimaryCsi,
                    spec,
                )
                .unwrap();
                db.apply_partition_design("t", 2, &btree, &[]).unwrap();
            }
            "csi" => db
                .create_table("t", schema, vec![0], IndexDescriptor::PrimaryCsi)
                .unwrap(),
            _ => db
                .create_table("t", schema, vec![0], btree.clone())
                .unwrap(),
        }
        db.load_table("t", (0..90).map(parity_row).collect())
            .unwrap();
        if design == "hybrid" {
            db.create_index("t", &subset_csi).unwrap();
        }
        let insert = |id: i32| {
            let stmt = Statement::Insert(hpd_engine::InsertStmt {
                table: "t".into(),
                rows: vec![parity_row(id)],
            });
            db.query(&stmt).run().unwrap();
        };
        let increment = |budget: usize| db.maintenance("t").budget_rows(budget).run().unwrap();

        // Phase 1: single-row writes of every kind.
        for id in 100..125 {
            insert(id);
        }
        delete_below(&db, 9);
        for id in [20, 21, 22, 40, 41, 104, 105] {
            // Touches no column the subset CSI stores.
            set_where_id(&db, id, 2, Expr::Lit(Value::Int64(-7)));
        }
        for id in [22, 23, 50, 51, 106] {
            // Touches the CSI's column.
            set_where_id(&db, id, 1, Expr::Lit(Value::Int32(99)));
        }
        // Moves rows between partitions (CSI → CSI, CSI → B+ tree tail,
        // tail → CSI) where there are any.
        set_where_id(&db, 12, 3, Expr::Lit(Value::Int32(15)));
        set_where_id(&db, 13, 3, Expr::Lit(Value::Int32(25)));
        set_where_id(&db, 25, 3, Expr::Lit(Value::Int32(3)));
        increment(5);
        increment(7);
        db.create_index(
            "t",
            &IndexDescriptor::SecondaryBTree {
                keys: vec![1],
                includes: vec![2],
            },
        )
        .unwrap();
        for id in 125..140 {
            insert(id);
        }
        set_where_id(&db, 30, 2, Expr::Lit(Value::Int64(1)));
        set_where_id(&db, 31, 1, Expr::Lit(Value::Int32(5)));
        set_where_id(&db, 130, 3, Expr::Lit(Value::Int32(11)));
        increment(4);
        let recovered = Database::recover(cfg.clone(), db.wal_durable()).unwrap();
        assert_eq!(
            physical_state(&recovered),
            physical_state(&db),
            "{design}: before the design change"
        );

        // Phase 2: a whole-table design change (for "hybrid" one that keeps
        // the columnstore, drops a B+ tree and adds one), then more of the
        // same.
        let primary = match design {
            "btree" | "hybrid" => btree.clone(),
            _ => IndexDescriptor::PrimaryCsi,
        };
        let mut indexes = vec![
            primary,
            IndexDescriptor::SecondaryBTree {
                keys: vec![2],
                includes: vec![],
            },
        ];
        if design != "csi" && design != "parthybrid" {
            indexes.push(subset_csi.clone());
        }
        db.apply_design(&TableDesign::new("t", indexes.clone()))
            .unwrap();
        for id in 140..160 {
            insert(id);
        }
        delete_below(&db, 15);
        set_where_id(&db, 60, 2, Expr::Lit(Value::Int64(2)));
        set_where_id(&db, 61, 1, Expr::Lit(Value::Int32(6)));
        set_where_id(&db, 62, 3, Expr::Lit(Value::Int32(29)));
        increment(6);
        increment(3);
        let log = fnv1a(&db.wal_durable().log);
        assert_eq!(log, phase2, "{design}: the log's hash after phase 2");

        // Phase 3: a design change that keeps what phase 2 built, drops an
        // index and adds one, on indexes that have taken inserts, updates
        // and deletes since they were built: delta rows and buffered
        // deletes are waiting, and a kept columnstore keeps them.
        let on = |key: usize, include: usize| IndexDescriptor::SecondaryBTree {
            keys: vec![key],
            includes: vec![include],
        };
        db.create_index("t", &on(1, 3)).unwrap();
        for id in 160..172 {
            insert(id);
        }
        delete_below(&db, 18);
        set_where_id(&db, 63, 1, Expr::Lit(Value::Int32(8)));
        set_where_id(&db, 64, 2, Expr::Lit(Value::Int64(3)));
        let residue = |db: &Database| {
            db.with_table("t", |t| {
                let buffered_deletes: usize = (0..t.num_parts())
                    .flat_map(|p| t.part_metas(p))
                    .map(|m| m.delete_buffer_rows)
                    .sum();
                (t.maintenance_backlog(), buffered_deletes)
            })
            .unwrap()
        };
        let waiting = residue(&db);
        assert!(waiting.0 > 0, "{design}: delta rows wait");
        let keeps_csi = indexes.contains(&subset_csi);
        assert!(
            !keeps_csi || waiting.1 > 0,
            "{design}: buffered deletes wait"
        );
        // The new index first: the kept ones move down the list.
        indexes.insert(1, on(3, 1));
        db.apply_design(&TableDesign::new("t", indexes)).unwrap();
        assert_eq!(
            residue(&db),
            waiting,
            "{design}: the change compacts nothing"
        );
        for id in 175..185 {
            insert(id);
        }
        // One index fewer on every part, as one record; what stays keeps
        // its residue here too.
        db.drop_index("t", &on(3, 1)).unwrap();
        delete_below(&db, 20);
        set_where_id(&db, 65, 2, Expr::Lit(Value::Int64(4)));
        set_where_id(&db, 66, 1, Expr::Lit(Value::Int32(9)));
        set_where_id(&db, 67, 3, Expr::Lit(Value::Int32(1)));
        increment(5);
        increment(4);

        let durable = db.wal_durable();
        assert!(durable.checkpoint.is_none());
        let log = fnv1a(&durable.log);
        assert_eq!(log, phase3, "{design}: the log's hash after phase 3");
        let recovered = Database::recover(cfg.clone(), durable).unwrap();
        assert_eq!(physical_state(&recovered), physical_state(&db), "{design}");

        // Phase 4: drain the backlog a budget at a time, then an increment
        // that only merges the small row groups the budgets left behind.
        while db.with_table("t", |t| t.maintenance_backlog()).unwrap() > 0 {
            increment(4);
        }
        let merged = increment(1_000);
        assert_eq!(merged.rows_moved + merged.deletes_compacted, 0);
        assert!(merged.rowgroups_merged > 0, "{design}: nothing merged");
        let recovered = Database::recover(cfg.clone(), db.wal_durable()).unwrap();
        assert_eq!(
            physical_state(&recovered),
            physical_state(&db),
            "{design}: after a merge-only increment"
        );
    }
}

/// `drop_index` on a table of several parts is one record: recovery sees the
/// index gone from every part or from none, never from some — and each part
/// keeps its own primary either way.
#[test]
fn drop_index_recovers_on_every_part_or_none() {
    let cfg = wal_config(WalConfig::default());
    let db = Database::new(cfg.clone());
    let bounds = [25, 50, 75].map(Value::Int32).to_vec();
    db.create_partitioned_table(
        "t",
        schema(),
        vec![0],
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
        hpd_engine::PartitionSpec::range(0, bounds).unwrap(),
    )
    .unwrap();
    db.load_table("t", (0..100).map(row).collect()).unwrap();
    let on_grp = IndexDescriptor::SecondaryBTree {
        keys: vec![1],
        includes: vec![],
    };
    let on_val = IndexDescriptor::SecondaryBTree {
        keys: vec![2],
        includes: vec![],
    };
    db.create_index("t", &on_grp).unwrap();
    db.create_index("t", &on_val).unwrap();
    let secondaries = [on_grp.clone(), on_val.clone()];
    for part in [0, 2] {
        db.apply_partition_design("t", part, &IndexDescriptor::PrimaryCsi, &secondaries)
            .unwrap();
    }
    let designs = |db: &Database| db.with_table("t", |t| t.designs()).unwrap();
    let with_it = designs(&db);
    assert_eq!(with_it.len(), 4);
    let without_it: Vec<Vec<_>> = (with_it.iter())
        .map(|list| list.iter().filter(|d| **d != on_grp).cloned().collect())
        .collect();
    assert!(without_it.iter().all(|list| list.len() == 2));

    let logged_before = db.wal_durable().log.len();
    db.drop_index("t", &on_grp).unwrap();
    insert(&db, 500);
    let expected = contents(&db);
    assert_eq!(designs(&db), without_it);
    // A second drop finds no part with the index: refused, nothing logged.
    let logged_after = db.wal_durable().log.len();
    assert!(matches!(
        db.drop_index("t", &on_grp),
        Err(HpdError::Constraint(_))
    ));
    assert_eq!(designs(&db), without_it);
    let durable = db.wal_durable();
    assert_eq!(durable.log.len(), logged_after);

    // The log holds exactly one design record for the drop.
    use hpd_wal::LogRecord;
    let tail = hpd_wal::FrameReader::new(&durable.log[logged_before..], logged_before as u64);
    let design_records: Vec<_> = tail
        .map(|(_, payload)| LogRecord::decode(payload).unwrap())
        .filter(|rec| {
            matches!(
                rec,
                LogRecord::IndexDrop { .. }
                    | LogRecord::IndexCreate { .. }
                    | LogRecord::DesignChange { .. }
                    | LogRecord::PartitionDesignChange { .. }
            )
        })
        .collect();
    let the_drop = LogRecord::IndexDrop {
        table: 0,
        def: on_grp.clone(),
    };
    assert_eq!(design_records, [the_drop]);

    // (a) The whole durable log: no part has the index.
    let recovered = Database::recover(cfg.clone(), durable.clone()).unwrap();
    assert_eq!(designs(&recovered), without_it);
    assert_eq!(contents(&recovered), expected);
    // (b) The log cut just before the record: every part has it.
    let mut cut = durable;
    cut.log.truncate(logged_before);
    let recovered = Database::recover(cfg, cut).unwrap();
    assert_eq!(designs(&recovered), with_it);
    assert_eq!(contents(&recovered).len(), 100);
}

/// A configuration with a design per part is one `PartitionDesignChange`
/// per part it changes, and a log-only recovery rebuilds every part's list;
/// one that is every part alike is one `DesignChange`.
#[test]
fn a_per_part_configuration_recovers_from_the_log_alone() {
    use hpd_engine::Configuration;
    use hpd_wal::LogRecord;
    let cfg = wal_config(WalConfig::default());
    let db = Database::new(cfg.clone());
    let bounds = vec![Value::Int32(25), Value::Int32(50), Value::Int32(75)];
    db.create_partitioned_table(
        "t",
        schema(),
        vec![0],
        IndexDescriptor::PrimaryCsi,
        hpd_engine::PartitionSpec::range(0, bounds).unwrap(),
    )
    .unwrap();
    db.load_table("t", (0..100).map(row).collect()).unwrap();
    let designs = |db: &Database| db.with_table("t", |t| t.designs()).unwrap();
    let design_records = |db: &Database, from: usize| -> Vec<LogRecord> {
        let log = db.wal_durable().log;
        (hpd_wal::FrameReader::new(&log[from..], from as u64))
            .map(|(_, payload)| LogRecord::decode(payload).unwrap())
            .filter(|rec| {
                matches!(
                    rec,
                    LogRecord::DesignChange { .. } | LogRecord::PartitionDesignChange { .. }
                )
            })
            .collect()
    };
    let apply = |db: &Database, parts: Vec<Vec<IndexDescriptor>>| -> Vec<LogRecord> {
        let from = db.wal_durable().log.len();
        let design = TableDesign {
            table: "t".into(),
            parts,
        };
        db.apply_configuration(&Configuration {
            tables: vec![design],
        })
        .unwrap();
        design_records(db, from)
    };

    let cold = vec![IndexDescriptor::PrimaryCsi];
    let on_grp = IndexDescriptor::SecondaryBTree {
        keys: vec![1],
        includes: vec![],
    };
    let hot = vec![
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
        IndexDescriptor::SecondaryCsi {
            columns: vec![0, 1, 2],
        },
    ];
    let per_part = vec![
        cold.clone(),
        cold.clone(),
        vec![IndexDescriptor::PrimaryCsi, on_grp],
        hot.clone(),
    ];
    let changed: Vec<u32> = apply(&db, per_part.clone())
        .into_iter()
        .map(|rec| match rec {
            LogRecord::PartitionDesignChange { part, .. } => part,
            other => panic!("expected a PartitionDesignChange, got {other:?}"),
        })
        .collect();
    assert_eq!(changed, [2, 3], "parts 0 and 1 are already as advised");
    assert_eq!(designs(&db), per_part);
    insert(&db, 90);
    let expected = contents(&db);
    let recovered = crash_and_recover(db, cfg.clone());
    assert_eq!(designs(&recovered), per_part);
    assert_eq!(contents(&recovered), expected);

    let alike = apply(&recovered, vec![hot.clone(); 4]);
    assert!(
        matches!(alike[..], [LogRecord::DesignChange { .. }]),
        "{alike:?}"
    );
    assert_eq!(designs(&recovered), vec![hot; 4]);
}

/// A transaction whose statement cannot be applied must fail at the
/// statement, not half-way through its commit: an update of a primary-key
/// column used to be rejected only while the commit applied it, after the
/// transaction's earlier writes were already in the tables (and not in the
/// log) — live and recovered databases then disagreed.
#[test]
fn a_pk_update_fails_at_the_statement_and_nothing_is_applied() {
    let cfg = wal_config(WalConfig::default());
    let db = Database::new(cfg.clone());
    setup(&db, IndexDescriptor::PrimaryBTree { keys: vec![0] }, 10);
    let session = db.session(hpd_engine::IsolationLevel::ReadCommitted);
    let mut txn = session.begin();
    txn.execute(&Statement::Insert(hpd_engine::InsertStmt {
        table: "t".into(),
        rows: vec![row(100)],
    }))
    .unwrap();
    let err = txn
        .execute(&Statement::Update(hpd_engine::UpdateStmt {
            table: "t".into(),
            predicate: Expr::col_cmp(0, CmpOp::Eq, Value::Int32(3)),
            set: vec![(0, Expr::Lit(Value::Int32(500)))],
            top: None,
        }))
        .unwrap_err();
    assert!(matches!(err, HpdError::Constraint(_)), "{err:?}");
    txn.abort();

    assert_eq!(contents(&db).len(), 10);
    let recovered = crash_and_recover(db, cfg);
    assert_eq!(contents(&recovered).len(), 10);
}

/// A load is checked row by row as it is encoded, each row dropped behind
/// the check: one refused at row *k* must leave the table, the log and the
/// plan cache's epoch as they were, streamed or handed over.
#[test]
fn a_load_refused_at_row_k_leaves_no_record_and_the_old_rows_readable() {
    let cfg = wal_config(WalConfig::default());
    let db = Database::new(cfg.clone());
    setup(&db, IndexDescriptor::PrimaryBTree { keys: vec![0] }, 10);
    let (before, log, epoch) = (contents(&db), db.wal_durable().log, db.ddl_epoch());
    let short = |id: i32| Row::new(vec![Value::Int32(id), Value::Int32(0)]);
    let mistyped = |id: i32| Row::new(vec![Value::Int32(id), Value::Int32(0), Value::Int32(0)]);
    for bad in [short, mistyped] {
        let rows = |k: i32| (100..200).map(move |id| if id == k { bad(id) } else { row(id) });
        for k in [100, 150, 199] {
            assert!(db.load_table("t", rows(k).collect()).is_err());
            assert!(db.load_table_from("t", rows(k)).is_err());
        }
    }
    assert_eq!(contents(&db), before);
    assert_eq!(db.wal_durable().log, log);
    assert_eq!(db.ddl_epoch(), epoch);
    // The table still loads, and the load that went through is the one
    // recovery replays.
    db.load_table_from("t", (100..200).map(row)).unwrap();
    assert_eq!(contents(&db).len(), 100);
    assert_eq!(db.ddl_epoch(), epoch + 1);
    let after = contents(&db);
    assert_eq!(contents(&crash_and_recover(db, cfg)), after);
}

/// A `BulkLoad` record whose CRC is clean but whose rows are not well formed
/// (a writer bug, a version skew) is where replay stops: what precedes it is
/// recovered, nothing is built from it, recovery does not fail.
#[test]
fn a_malformed_bulk_load_record_ends_replay_like_a_torn_tail() {
    let cfg = wal_config(WalConfig::default());
    let db = Database::new(cfg.clone());
    setup(&db, IndexDescriptor::PrimaryBTree { keys: vec![0] }, 10);
    let loaded = contents(&db);
    let mut durable = db.wal_durable();
    let intact = durable.log.len();
    db.load_table("t", (100..200).map(row).collect()).unwrap();
    insert(&db, 500);
    let full = db.wal_durable().log;
    // The second load's frame: length, CRC, then the payload — tag, table,
    // row count, the first row's value count, its first value's tag.
    let payload_at = intact + 8;
    let len = u32::from_le_bytes(full[intact..intact + 4].try_into().unwrap()) as usize;
    for (at, byte) in [(5, 0xff), (9, 2), (10, 9)] {
        let mut log = full.clone();
        log[payload_at + at] = byte;
        let crc = hpd_wal::crc32(&log[payload_at..payload_at + len]);
        log[intact + 4..payload_at].copy_from_slice(&crc.to_le_bytes());
        durable.log = log;
        let recovered = Database::recover(cfg.clone(), durable.clone()).unwrap();
        assert_eq!(contents(&recovered), loaded, "payload byte {at}");
    }
    durable.log = full;
    assert_eq!(
        contents(&Database::recover(cfg, durable).unwrap()).len(),
        101
    );
}

/// A load's record is held in the log's segments, no row split between two.
/// Recovery from any prefix of the durable bytes — at a stride, and on each
/// side of every boundary between the record's segments — succeeds and
/// holds all of the load or none of it, and the commits that follow it
/// whose frames the prefix holds whole.
#[test]
fn every_prefix_of_a_segmented_load_recovers_all_of_it_or_none() {
    use hpd_engine::EncodedRows;
    use hpd_wal::{FrameReader, LogRecord};
    const ROWS: usize = 18_000;
    let cfg = wal_config(WalConfig::default());
    let db = Database::new(cfg.clone());
    let primary = IndexDescriptor::PrimaryBTree { keys: vec![0] };
    db.create_table("t", schema(), vec![0], primary).unwrap();
    let load_at = db.wal_durable().log.len();
    let rows: Vec<Row> = (0..ROWS as i32).map(row).collect();
    // The same rows encode into the same segments the load's record fills.
    let rec = LogRecord::BulkLoad {
        table: 0,
        rows: EncodedRows::from_rows(&rows),
    };
    let frame = rec.into_frame();
    assert!(frame.len() >= 3, "{} segments", frame.len());
    db.load_table("t", rows).unwrap();
    for id in 0..20 {
        insert(&db, 100_000 + id);
    }
    let durable = db.wal_durable();
    let log = &durable.log;
    let load_end = load_at + frame.iter().map(Vec::len).sum::<usize>();
    assert_eq!(log[load_at..load_end], frame.concat());

    // Every frame reads; the load's holds every row.
    let mut reader = FrameReader::new(log, durable.base_lsn);
    let frames: Vec<(usize, LogRecord)> = (reader.by_ref())
        .map(|(lsn, p)| (lsn as usize + 8 + p.len(), LogRecord::decode(p).unwrap()))
        .collect();
    assert!(reader.clean_end());
    let loads: Vec<usize> = (frames.iter())
        .filter_map(|(_, rec)| match rec {
            LogRecord::BulkLoad { rows, .. } => Some(rows.len()),
            _ => None,
        })
        .collect();
    assert_eq!(loads, [ROWS]);
    let commit_ends: Vec<usize> = (frames.iter())
        .filter(|(_, rec)| matches!(rec, LogRecord::TxnCommit { .. }))
        .map(|&(end, _)| end)
        .collect();
    assert_eq!(commit_ends.len(), 20);

    let mut cuts: Vec<usize> = (0..log.len()).step_by(4_999).collect();
    let mut end = load_at;
    for segment in &frame {
        cuts.extend([end - 1, end, end + 1]);
        end += segment.len();
    }
    cuts.extend([load_end - 1, load_end, load_end + 1, log.len()]);
    for cut in cuts {
        let mut prefix = durable.clone();
        prefix.log.truncate(cut);
        let recovered =
            Database::recover(cfg.clone(), prefix).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        let rows = recovered.with_table("t", |t| t.row_count()).unwrap_or(0);
        let loaded = if cut >= load_end { ROWS } else { 0 };
        let committed = commit_ends.iter().filter(|&&end| end <= cut).count();
        assert_eq!(rows, loaded + committed, "cut at {cut} of {}", log.len());
    }
}

/// A row longer than a log segment (a 100 KB string) takes a segment of its
/// own in the load's record and comes back whole from recovery.
#[test]
fn a_row_wider_than_a_segment_survives_recovery() {
    let cfg = wal_config(WalConfig::default());
    let db = Database::new(cfg.clone());
    let schema = Schema::from_pairs(&[("id", DataType::Int32), ("s", DataType::Utf8)]);
    db.create_table("w", schema, vec![0], IndexDescriptor::PrimaryCsi)
        .unwrap();
    let wide = "w".repeat(100 << 10);
    let rows: Vec<Row> = (0..3)
        .map(|id| {
            let s = if id == 1 { wide.as_str() } else { "x" };
            Row::new(vec![Value::Int32(id), Value::str(s)])
        })
        .collect();
    db.load_table("w", rows.clone()).unwrap();
    let recovered = crash_and_recover(db, cfg);
    let q = SelectQuery::single_table("w", None, vec![0, 1]);
    let mut back = recovered.query(&q).run().unwrap().rows;
    back.sort_by_key(|r| r.key(&[0]));
    assert_eq!(back, rows);
}

/// What a recovered database must show of table `t`: each index of each
/// part by its descriptor, and the rows; `None` before the table exists.
type LogicalState = Option<(String, Vec<Row>)>;

/// `db`'s [`LogicalState`].
fn logical_state(db: &Database) -> LogicalState {
    let design = db
        .with_table("t", |t| {
            let parts = (0..t.num_parts()).map(|p| {
                let metas = t.part_metas(p);
                format!(
                    "{:?}",
                    metas.iter().map(|m| &m.descriptor).collect::<Vec<_>>()
                )
            });
            parts.collect::<Vec<_>>().join("; ")
        })
        .ok()?;
    Some((design, contents(db)))
}

/// Recover from every byte prefix of `durable`'s log (its checkpoint image
/// kept): each must come back as the state of the last mark — `(log bytes,
/// state)` in log order — whose bytes the prefix holds. A torn frame is a
/// torn tail, so no prefix is even an error.
fn recover_every_prefix(
    cfg: &DbConfig,
    durable: &hpd_wal::WalDurable,
    marks: &[(usize, LogicalState)],
) {
    for cut in 0..=durable.log.len() {
        let mut prefix = durable.clone();
        prefix.log.truncate(cut);
        let want = &marks
            .iter()
            .rev()
            .find(|(end, _)| *end <= cut)
            .expect("a first mark")
            .1;
        let db =
            Database::recover(cfg.clone(), prefix).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        let of = durable.log.len();
        assert_eq!(&logical_state(&db), want, "cut at {cut} of {of}");
    }
}

/// Recovery from any byte prefix of a log that mixes DDL, a bulk load, DML
/// (autocommit, a multi-statement transaction, an aborted one), a
/// checkpoint and DML after it: before the checkpoint the log alone, after
/// it the image and the log's tail. A torn tail is cut off, so every prefix
/// comes back as the last commit whose frames it holds whole.
#[test]
fn every_prefix_of_a_mixed_log_recovers_its_last_durable_commit() {
    let cfg = wal_config(WalConfig::default());
    let db = Database::new(cfg.clone());
    let mut marks = vec![(0, None)];
    let mark = |db: &Database, marks: &mut Vec<_>| {
        marks.push((db.wal_durable().log.len(), logical_state(db)));
    };
    let by_grp = IndexDescriptor::SecondaryBTree {
        keys: vec![1],
        includes: vec![2],
    };
    let csi = IndexDescriptor::SecondaryCsi {
        columns: vec![1, 2],
    };
    db.create_table(
        "t",
        schema(),
        vec![0],
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
    )
    .unwrap();
    mark(&db, &mut marks);
    db.load_table("t", (0..40).map(row).collect()).unwrap();
    mark(&db, &mut marks);
    db.create_index("t", &by_grp).unwrap();
    mark(&db, &mut marks);
    insert(&db, 500);
    mark(&db, &mut marks);
    update_below(&db, 10, -7);
    mark(&db, &mut marks);
    let session = db.session(hpd_engine::IsolationLevel::Snapshot);
    let mut txn = session.begin();
    txn.insert(&hpd_engine::InsertStmt {
        table: "t".into(),
        rows: vec![row(600), row(601)],
    })
    .unwrap();
    txn.delete(&hpd_engine::DeleteStmt {
        table: "t".into(),
        predicate: Expr::col_cmp(0, CmpOp::Lt, Value::Int32(3)),
        top: None,
    })
    .unwrap();
    txn.commit().unwrap();
    mark(&db, &mut marks);
    let mut aborted = session.begin();
    aborted
        .insert(&hpd_engine::InsertStmt {
            table: "t".into(),
            rows: vec![row(700)],
        })
        .unwrap();
    aborted.abort();
    db.create_index("t", &csi).unwrap();
    mark(&db, &mut marks);
    delete_below(&db, 5);
    mark(&db, &mut marks);
    let before = db.wal_durable();
    recover_every_prefix(&cfg, &before, &marks);

    db.checkpoint().unwrap();
    let mut tail = vec![(0, logical_state(&db))];
    insert(&db, 800);
    mark(&db, &mut tail);
    update_below(&db, 801, i64::MIN);
    mark(&db, &mut tail);
    db.drop_index("t", &by_grp).unwrap();
    mark(&db, &mut tail);
    delete_below(&db, 20);
    mark(&db, &mut tail);
    let after = db.wal_durable();
    assert!(after.checkpoint.is_some() && after.base_lsn > 0);
    assert!(
        tail.windows(2).all(|w| w[0].0 < w[1].0),
        "each mark adds log bytes"
    );
    recover_every_prefix(&cfg, &after, &tail);
}

// ---------------------------------------------------------------------
// Decimals at every scale, across designs and a crash
// ---------------------------------------------------------------------

/// A `lineitem` row: `(l_orderkey, l_linenumber, l_quantity,
/// l_extendedprice, l_discount, l_shipdate)`, keyed on the first two. A
/// quantity is whole (raw 10 000 × n), a price whole cents and a discount
/// hundredths, so the encoded decimals sit at scales 4, 2 to 4, and 2 or 3
/// (0 for no discount).
fn lineitem_row(order: i32, line: i32) -> Row {
    let i = i64::from(order * 7 + line);
    Row::new(vec![
        Value::Int32(order),
        Value::Int32(line),
        Value::Decimal((i % 50 + 1) * 10_000),
        Value::Decimal((i * 9_973 % 1_000_000 + 90_000) * 100),
        Value::Decimal(i % 11 * 100),
        Value::Date(9_000 + (i % 2_500) as i32),
    ])
}

/// `col = col + delta` (raw decimal units) on the rows `predicate` picks.
fn add_to(db: &Database, predicate: Expr, col: usize, delta: i64) {
    let to = Expr::arith(BinOp::Add, Expr::Col(col), Expr::lit(Value::Decimal(delta)));
    let stmt = Statement::Update(hpd_engine::UpdateStmt {
        table: "t".into(),
        predicate,
        set: vec![(col, to)],
        top: None,
    });
    db.query(&stmt).run().unwrap();
}

/// What every design must answer alike: the whole table in key order, and
/// the rows a decimal predicate picks (a price, a quantity).
fn lineitem_answers(db: &Database) -> Vec<Vec<Row>> {
    let cols: Vec<usize> = (0..6).collect();
    let preds = [
        None,
        Some(Expr::col_cmp(3, CmpOp::Gt, Value::Decimal(60_000_000))),
        Some(Expr::col_cmp(2, CmpOp::Eq, Value::Decimal(75_000))),
    ];
    preds
        .into_iter()
        .map(|pred| {
            let q = SelectQuery::single_table("t", pred, cols.clone());
            let mut rows = db.query(&q).run().unwrap().rows;
            rows.sort_by_key(|r| r.key(&[0, 1]));
            rows
        })
        .collect()
}

/// Decimals that change their scale — a whole-cent price plus 0.01, a whole
/// quantity times 1.5, a discount plus 0.0001, and back — so that entries
/// change width in place (`PackedLeaf::set_payload`), move within a
/// secondary B+ tree keyed on the price, and pass through delta stores and
/// delete buffers. Under a B+ tree-only, a columnstore-only, a hybrid and a
/// two-part partitioned hybrid design: every answer is equal across the
/// four; a database recovered from the log alone answers alike and is
/// physically the live one; and after a checkpoint and more writes, one
/// recovered from the image and the log's tail answers alike (a restore
/// rebuilds a columnstore's rowgroups, so it is not physically the live
/// one).
#[test]
fn decimals_changing_scale_agree_across_designs_and_recover() {
    let cfg = DbConfig {
        csi: hpd_engine::CsiConfig {
            rowgroup_capacity: 32,
            delete_buffer_compact_threshold: 6,
            ..Default::default()
        },
        ..DbConfig::default()
    };
    let btree = IndexDescriptor::PrimaryBTree { keys: vec![0, 1] };
    let by_price = IndexDescriptor::SecondaryBTree {
        keys: vec![3],
        includes: vec![2],
    };
    let by_order = |op, order: i32| Expr::col_cmp(0, op, Value::Int32(order));
    let mut answers = Vec::new();
    for design in ["btree", "csi", "hybrid", "parthybrid"] {
        let db = Database::new(cfg.clone());
        let schema = Schema::from_pairs(&[
            ("l_orderkey", DataType::Int32),
            ("l_linenumber", DataType::Int32),
            ("l_quantity", DataType::Decimal),
            ("l_extendedprice", DataType::Decimal),
            ("l_discount", DataType::Decimal),
            ("l_shipdate", DataType::Date),
        ]);
        let pk = vec![0, 1];
        match design {
            "csi" => db.create_table("t", schema, pk, IndexDescriptor::PrimaryCsi),
            "parthybrid" => {
                let spec = hpd_engine::PartitionSpec::range(0, vec![Value::Int32(40)]).unwrap();
                let primary = IndexDescriptor::PrimaryCsi;
                db.create_partitioned_table("t", schema, pk, primary, spec)
                    .and_then(|()| {
                        db.apply_partition_design("t", 1, &btree, std::slice::from_ref(&by_price))
                    })
            }
            _ => db.create_table("t", schema, pk, btree.clone()),
        }
        .unwrap();
        let rows = (0..60).flat_map(|o| (1..=4).map(move |l| lineitem_row(o, l)));
        db.load_table("t", rows.collect()).unwrap();
        if design == "btree" || design == "hybrid" {
            db.create_index("t", &by_price).unwrap();
        }
        if design == "hybrid" {
            let csi = IndexDescriptor::SecondaryCsi {
                columns: vec![2, 3, 4],
            };
            db.create_index("t", &csi).unwrap();
        }
        let insert = |orders: std::ops::Range<i32>| {
            let rows = orders.flat_map(|o| (1..=3).map(move |l| lineitem_row(o, l)));
            let stmt = Statement::Insert(hpd_engine::InsertStmt {
                table: "t".into(),
                rows: rows.collect(),
            });
            db.query(&stmt).run().unwrap();
        };
        let delete = |predicate| {
            let stmt = Statement::Delete(hpd_engine::DeleteStmt {
                table: "t".into(),
                predicate,
                top: None,
            });
            db.query(&stmt).run().unwrap();
        };
        let whole_lines = Expr::col_cmp(1, CmpOp::Eq, Value::Int32(2));

        insert(60..66);
        add_to(&db, by_order(CmpOp::Lt, 20), 3, 100);
        add_to(&db, whole_lines.clone(), 2, 5_000);
        add_to(&db, by_order(CmpOp::Ge, 30), 4, 1);
        delete(Expr::and(vec![
            by_order(CmpOp::Ge, 10),
            by_order(CmpOp::Lt, 13),
        ]));
        add_to(&db, by_order(CmpOp::Lt, 5), 3, -100);
        let live = lineitem_answers(&db);
        let recovered = Database::recover(cfg.clone(), db.wal_durable()).unwrap();
        assert_eq!(lineitem_answers(&recovered), live, "{design}: log only");
        assert_eq!(
            metas_and_backlog(&recovered),
            metas_and_backlog(&db),
            "{design}: log only"
        );

        db.checkpoint().unwrap();
        insert(66..70);
        add_to(&db, by_order(CmpOp::Ge, 50), 3, 7);
        add_to(&db, whole_lines, 2, -5_000);
        add_to(&db, by_order(CmpOp::Lt, 40), 4, -1);
        delete(by_order(CmpOp::Eq, 33));
        let live = lineitem_answers(&db);
        let recovered = crash_and_recover(db, cfg.clone());
        assert_eq!(
            lineitem_answers(&recovered),
            live,
            "{design}: image and tail"
        );
        answers.push((design, live));
    }
    let (first, want) = &answers[0];
    assert_eq!(want[0].len(), 60 * 4 + 10 * 3 - 3 * 4 - 4);
    for (design, got) in &answers[1..] {
        assert_eq!(got, want, "{design} against {first}");
    }
}

/// A B+ tree primary keyed past its leading column (`k`, the third of three)
/// keeps each entry's key apart from its row, whatever the row's leading
/// value: an update that makes a row's `v` its key's value, or stops it
/// being so, changes nothing but the payload. Through a load, inserts,
/// updates (its `w` secondary, which keeps its key in the payload, moved
/// too), deletes, a checkpoint, more writes and recovery, its rows stay a
/// plain model's, found through the secondary too.
#[test]
fn a_primary_keyed_past_its_leading_column_recovers_its_rows() {
    use std::collections::BTreeMap;
    let schema = Schema::from_pairs(&[
        ("v", DataType::Int32),
        ("w", DataType::Int64),
        ("k", DataType::Int32),
    ]);
    let row =
        |v: i32, w: i64, k: i32| Row::new(vec![Value::Int32(v), Value::Int64(w), Value::Int32(k)]);
    let cfg = wal_config(WalConfig::default());
    let db = Database::new(cfg.clone());
    let primary = IndexDescriptor::PrimaryBTree { keys: vec![2] };
    db.create_table("t", schema, vec![2], primary).unwrap();
    let by_w = IndexDescriptor::SecondaryBTree {
        keys: vec![1],
        includes: vec![],
    };
    db.create_index("t", &by_w).unwrap();
    let mut model: BTreeMap<i32, Row> = (0..600)
        .map(|k| (k, row(-k, i64::from(k % 9), k)))
        .collect();
    db.load_table("t", model.values().cloned().collect())
        .unwrap();
    let run = |stmt: Statement| db.query(&stmt).run().unwrap();
    let update = |predicate: Expr, set: Vec<(usize, Expr)>| {
        run(Statement::Update(hpd_engine::UpdateStmt {
            table: "t".into(),
            predicate,
            set,
            top: None,
        }))
    };
    let delete = |predicate: Expr| {
        run(Statement::Delete(hpd_engine::DeleteStmt {
            table: "t".into(),
            predicate,
            top: None,
        }))
    };
    let insert = |rows: Vec<Row>| {
        run(Statement::Insert(hpd_engine::InsertStmt {
            table: "t".into(),
            rows,
        }))
    };
    let writes = |model: &mut BTreeMap<i32, Row>, from: i32| {
        let fresh: Vec<Row> = (from..from + 40).map(|k| row(k, 7, k)).collect();
        insert(fresh.clone());
        model.extend(fresh.into_iter().map(|r| (r[2].as_i32().unwrap(), r)));
        // Led by its key's value from now on, then no more.
        update(
            Expr::between(2, from - 100, from - 51),
            vec![(0, Expr::col(2))],
        );
        update(
            Expr::between(2, from - 75, from - 61),
            vec![(0, Expr::lit(Value::Int32(-1)))],
        );
        update(
            Expr::col_cmp(2, CmpOp::Lt, from - 500),
            vec![(1, Expr::lit(Value::Int64(-3)))],
        );
        delete(Expr::between(2, from - 30, from - 20));
        for (&k, r) in model.range_mut(from - 100..=from - 51) {
            r.set(0, Value::Int32(k));
        }
        for (_, r) in model.range_mut(from - 75..=from - 61) {
            r.set(0, Value::Int32(-1));
        }
        for (_, r) in model.range_mut(..from - 500) {
            r.set(1, Value::Int64(-3));
        }
        model.retain(|&k, _| !(from - 30..=from - 20).contains(&k));
    };
    let rows_of = |db: &Database, predicate: Option<Expr>| {
        let q = SelectQuery::single_table("t", predicate, vec![0, 1, 2]);
        let mut rows = db.query(&q).run().unwrap().rows;
        rows.sort_by_key(|r| r.key(&[2]));
        rows
    };
    let agree = |db: &Database, model: &BTreeMap<i32, Row>, what: &str| {
        let want: Vec<Row> = model.values().cloned().collect();
        assert_eq!(rows_of(db, None), want, "{what}");
        let by_w = Expr::col_cmp(1, CmpOp::Eq, Value::Int64(-3));
        let want: Vec<Row> = want
            .into_iter()
            .filter(|r| r[1] == Value::Int64(-3))
            .collect();
        assert_eq!(
            rows_of(db, Some(by_w)),
            want,
            "{what}: through the secondary"
        );
    };
    writes(&mut model, 600);
    agree(&db, &model, "before the checkpoint");
    db.checkpoint().unwrap();
    writes(&mut model, 640);
    agree(&db, &model, "after the checkpoint");
    let recovered = crash_and_recover(db, cfg);
    agree(&recovered, &model, "recovered");
}
