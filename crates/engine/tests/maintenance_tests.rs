//! Integration tests for the unified `db.maintenance(...)` builder, the
//! budgeted increment path, heat-decay decoupling, the background
//! scheduler, and crash safety of in-flight maintenance.

use std::sync::Arc;
use std::time::Duration;

use hpd_common::{faults, CmpOp, DataType, Expr, HpdError, Row, Schema, Value};
use hpd_engine::{
    maintenance_candidates, spawn_maintenance, Database, DbConfig, IndexDescriptor,
    MaintenanceConfig, SelectQuery, Statement, WalConfig,
};

/// Small rowgroups so a handful of inserts builds a real backlog, and a
/// delete-buffer threshold high enough that deletes stay buffered until
/// maintenance resolves them.
fn config() -> DbConfig {
    let mut cfg = DbConfig {
        wal: WalConfig::default(),
        ..DbConfig::default()
    };
    cfg.csi.rowgroup_capacity = 32;
    cfg.csi.delete_buffer_compact_threshold = 1_000_000;
    cfg
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

/// Full logical contents, sorted by primary key.
fn contents(db: &Database) -> Vec<Row> {
    let q = SelectQuery::single_table("t", None, vec![0, 1, 2]);
    let mut rows = db.query(&q).run().unwrap().rows;
    rows.sort_by_key(|r| r.key(&[0]));
    rows
}

fn backlog(db: &Database) -> usize {
    db.with_table("t", |t| t.maintenance_backlog()).unwrap()
}

/// Crash `db` (drop it, keep durable state) and recover a fresh instance.
fn crash_and_recover(db: Database, config: DbConfig) -> Database {
    let durable = db.wal_durable();
    drop(db);
    Database::recover(config, durable).unwrap()
}

#[test]
fn full_pass_drains_everything_and_preserves_contents() {
    let db = Database::new(config());
    setup(&db, IndexDescriptor::PrimaryCsi, 64);
    for id in 64..84 {
        insert(&db, id);
    }
    delete_below(&db, 5);
    assert!(backlog(&db) > 0, "inserts + deletes must leave a backlog");
    let before = contents(&db);

    let report = db.maintenance("t").run().unwrap();
    assert!(report.complete, "{report:?}");
    assert_eq!(report.budget_rows, None);
    assert_eq!(report.delta_rows, 0);
    assert_eq!(report.delete_buffer, 0);
    assert!(report.rows_moved > 0);
    assert_eq!(backlog(&db), 0);
    assert_eq!(contents(&db), before, "maintenance is logically a no-op");
}

#[test]
fn budgeted_increments_are_bounded_and_resume() {
    let db = Database::new(config());
    setup(&db, IndexDescriptor::PrimaryCsi, 32);
    // 24 delta rows, below rowgroup capacity so nothing auto-drains.
    for id in 32..56 {
        insert(&db, id);
    }
    let pending = backlog(&db);
    assert_eq!(pending, 24);
    let before = contents(&db);

    let budget = 7usize;
    let mut increments = 0;
    loop {
        let r = db.maintenance("t").budget_rows(budget).run().unwrap();
        assert!(
            r.rows_moved + r.deletes_compacted <= budget,
            "increment exceeded its budget: {r:?}"
        );
        assert_eq!(contents(&db), before, "mid-drain visibility changed");
        increments += 1;
        if r.complete {
            break;
        }
        assert!(increments < 64, "budgeted drain failed to terminate");
    }
    assert!(
        increments >= pending.div_ceil(budget),
        "{pending} rows cannot drain in {increments} increments of {budget}"
    );
    assert_eq!(backlog(&db), 0);
}

#[test]
fn report_probe_does_no_work() {
    let db = Database::new(config());
    setup(&db, IndexDescriptor::PrimaryCsi, 32);
    for id in 32..44 {
        insert(&db, id);
    }
    delete_below(&db, 3);
    let pending = backlog(&db);
    assert!(pending > 0);

    let r = db.maintenance("t").report().unwrap();
    assert_eq!(r.rows_moved, 0);
    assert_eq!(r.deletes_compacted, 0);
    assert!(!r.complete);
    assert_eq!(r.delta_rows + r.delete_buffer, pending);
    assert_eq!(backlog(&db), pending, "report() must not drain anything");
}

#[test]
fn heat_decay_is_decoupled_from_maintenance() {
    let db = Database::new(config());
    setup(&db, IndexDescriptor::PrimaryCsi, 64);
    for id in 64..80 {
        insert(&db, id);
    }
    let decays = |db: &Database| {
        db.with_table("t", |t| {
            let csi = t.part(0).indexes()[0].csi().unwrap();
            csi.heat_report().decay_passes
        })
        .unwrap()
    };

    // A full maintenance pass must NOT age heat: decay runs on the
    // scheduler's clock, not piggybacked on reorganization.
    let before = decays(&db);
    db.maintenance("t").run().unwrap();
    assert_eq!(decays(&db), before, "maintenance pass decayed heat");

    // The decay tick ages heat without touching the backlog.
    for id in 80..90 {
        insert(&db, id);
    }
    let pending = backlog(&db);
    db.decay_heat();
    db.decay_heat();
    assert_eq!(decays(&db), before + 2);
    assert_eq!(backlog(&db), pending, "decay tick must not reorganize");
}

#[test]
fn scheduler_drains_backlog_in_background() {
    let mut cfg = config();
    cfg.maintenance = MaintenanceConfig {
        tick: Duration::from_millis(1),
        budget_rows: 16,
        decay_every_ticks: 4,
        min_score: 0.0,
    };
    let db = Arc::new(Database::new(cfg));
    setup(&db, IndexDescriptor::PrimaryCsi, 32);
    for id in 32..60 {
        insert(&db, id);
    }
    delete_below(&db, 4);
    assert!(backlog(&db) > 0);
    let before = contents(&db);

    let handle = spawn_maintenance(&db);
    // Bounded wait: the scheduler runs one budgeted increment per tick, so
    // a ~30-row backlog drains within a few ticks. 5 s is a generous cap
    // for slow single-core CI machines.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while backlog(&db) > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.stop();
    assert_eq!(backlog(&db), 0, "scheduler never drained the backlog");
    assert_eq!(contents(&db), before);
}

#[test]
fn crash_inside_maintenance_recovers_committed_state() {
    faults::clear_all();
    let cfg = config();
    let db = Database::new(cfg.clone());
    setup(&db, IndexDescriptor::PrimaryCsi, 48);
    for id in 48..70 {
        insert(&db, id);
    }
    delete_below(&db, 6);
    let committed = contents(&db);

    // Crash with the increment's reorganization applied but its log record
    // unwritten — the worst-ordered window for a maintenance crash.
    faults::arm(faults::sites::CRASH_IN_MAINTENANCE, 1);
    let err = db.maintenance("t").budget_rows(8).run().unwrap_err();
    assert!(matches!(err, HpdError::Crashed(_)), "{err:?}");
    faults::clear_all();

    let recovered = crash_and_recover(db, cfg);
    assert_eq!(
        contents(&recovered),
        committed,
        "maintenance is logically a no-op; recovery must see committed state"
    );
}

#[test]
fn maintenance_step_records_replay_through_recovery() {
    let cfg = config();
    let db = Database::new(cfg.clone());
    setup(&db, IndexDescriptor::PrimaryCsi, 40);
    for id in 40..62 {
        insert(&db, id);
    }
    delete_below(&db, 9);
    // Interleave budgeted increments with further committed writes so the
    // log holds MaintenanceStep records between data records.
    db.maintenance("t").budget_rows(6).run().unwrap();
    insert(&db, 100);
    db.maintenance("t").budget_rows(6).run().unwrap();
    delete_below(&db, 12);
    db.maintenance("t").budget_rows(6).run().unwrap();
    let expected = contents(&db);

    let recovered = crash_and_recover(db, cfg.clone());
    assert_eq!(contents(&recovered), expected);
    // The recovered database keeps maintaining incrementally.
    let r = recovered.maintenance("t").run().unwrap();
    assert!(r.complete);
    assert_eq!(contents(&recovered), expected);

    // And a second crash after the full pass still recovers cleanly.
    let twice = crash_and_recover(recovered, cfg);
    assert_eq!(contents(&twice), expected);
}

#[test]
fn maintenance_on_secondary_columnstore_resolves_buffered_deletes() {
    let db = Database::new(config());
    setup(&db, IndexDescriptor::PrimaryBTree { keys: vec![0] }, 64);
    db.create_index(
        "t",
        &IndexDescriptor::SecondaryCsi {
            columns: vec![1, 2],
        },
    )
    .unwrap();
    delete_below(&db, 10);
    let buffered = db
        .with_table("t", |t| {
            t.part(0).indexes()[1].csi().unwrap().delete_buffer_len()
        })
        .unwrap();
    assert!(buffered > 0, "secondary-CSI deletes must buffer");
    let before = contents(&db);

    // Deletes resolve before any delta compression (the tuple-mover
    // ordering invariant), sliced across budgeted increments.
    let mut resolved = 0;
    while resolved < buffered {
        let r = db.maintenance("t").budget_rows(4).run().unwrap();
        assert!(r.deletes_compacted <= 4);
        resolved += r.deletes_compacted;
        if r.complete {
            break;
        }
    }
    let left = db
        .with_table("t", |t| {
            t.part(0).indexes()[1].csi().unwrap().delete_buffer_len()
        })
        .unwrap();
    assert_eq!(left, 0);
    assert_eq!(contents(&db), before);
}

#[test]
fn maintenance_unknown_table_errors() {
    let db = Database::new(config());
    assert!(db.maintenance("nope").run().is_err());
    assert!(db.maintenance("nope").report().is_err());
}

/// Row groups of the table's (one) columnstore.
fn rowgroups(db: &Database) -> usize {
    db.with_table("t", |t| t.part(0).csis().map(|c| c.num_rowgroups()).sum())
        .unwrap()
}

/// A primary columnstore of one full group, then `chunks` groups of four
/// rows each, compressed by increments of four rows: no backlog left, and
/// fragments only a merge removes.
fn fragmented(cfg: DbConfig, chunks: i32) -> Arc<Database> {
    let db = Arc::new(Database::new(cfg));
    setup(&db, IndexDescriptor::PrimaryCsi, 32);
    for id in 32..32 + 4 * chunks {
        insert(&db, id);
    }
    for _ in 0..chunks {
        db.maintenance("t").budget_rows(4).run().unwrap();
    }
    assert_eq!(backlog(&db), 0);
    assert_eq!(rowgroups(&db) as i32, 1 + chunks);
    db
}

/// A drained but fragmented table is work: it scores the groups a merge
/// within the scheduler's budget removes, and the scheduler runs that
/// merge-only increment.
#[test]
fn the_scheduler_merges_a_drained_fragmented_table() {
    let mut cfg = config();
    cfg.maintenance = MaintenanceConfig {
        tick: Duration::from_millis(1),
        budget_rows: 16,
        ..MaintenanceConfig::default()
    };
    let db = fragmented(cfg, 3);
    let before = contents(&db);
    let candidates = maintenance_candidates(&db);
    assert_eq!(candidates.len(), 1, "{candidates:?}");
    assert_eq!(candidates[0].backlog, 0);
    assert!(
        candidates[0].score >= MaintenanceConfig::default().min_score,
        "two groups removed score {}",
        candidates[0].score
    );

    let handle = spawn_maintenance(&db);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while rowgroups(&db) > 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.stop();
    assert_eq!(rowgroups(&db), 2, "the three fragments merged into one");
    assert!(maintenance_candidates(&db).is_empty(), "nothing left to do");
    assert_eq!(contents(&db), before);
}

/// Work over the budget scores nothing: fragments whose smallest merge
/// rewrites more rows than the scheduler's budget are no candidate, so a
/// scheduler does not pick the table tick after tick for an increment
/// that would do nothing.
#[test]
fn merge_work_over_the_budget_is_no_candidate() {
    let mut cfg = config();
    cfg.maintenance.budget_rows = 4;
    let db = fragmented(cfg, 2);
    assert!(
        maintenance_candidates(&db).is_empty(),
        "{:?}",
        maintenance_candidates(&db)
    );
    let r = db.maintenance("t").budget_rows(4).run().unwrap();
    assert_eq!((r.rowgroups_merged, r.rows_rewritten), (0, 0));
    assert_eq!(rowgroups(&db), 3);
}
