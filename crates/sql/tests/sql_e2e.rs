//! End-to-end front-end tests: TPC-H-style SQL text against the hand-built
//! workload AST on all three physical designs, N concurrent sessions over
//! one engine, and an `hpd-cli` smoke test.

use std::io::Write as _;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use hpd_common::{HpdError, Row, Value};
use hpd_engine::{Database, DbConfig, IndexDescriptor, IsolationLevel, Statement};
use hpd_sql::{bind, parse, Bound, PlanCache, SqlOutput, SqlSession};
use hpd_workloads::tpch::{load_lineitem, q5_scan_range, MixedDesign};

// ------------------------------------------------------------ TPC-H as SQL

/// The paper's Q5 analytic scan, written as SQL text. Must lower to the
/// exact statement `hpd_workloads::tpch::q5_scan_range(40, 80)` hand-builds
/// and produce identical results under all three §3.4 designs.
#[test]
fn tpch_q5_sql_text_is_the_hand_built_ast_on_all_three_designs() {
    let sql = "SELECT SUM(l_quantity), SUM(l_extendedprice * (1 - l_discount)) \
               FROM lineitem WHERE l_shipdate BETWEEN 40 AND 80";
    let hand = q5_scan_range(40, 80);

    let mut per_design = Vec::new();
    for design in [
        MixedDesign::BTreeOnly,
        MixedDesign::BTreeWithSecondaryCsi,
        MixedDesign::PrimaryCsi,
    ] {
        let db = Database::new(DbConfig::default());
        load_lineitem(&db, 20_000, 7, design).expect("load lineitem");

        // Lowering: text -> parse -> bind must equal the hand-built AST.
        let ast = parse(sql).expect("parse q5");
        let Bound::Stmt(lowered) = bind(&db, &ast, &[]).expect("bind q5") else {
            panic!("q5 must lower to an engine statement");
        };
        assert_eq!(
            format!("{lowered:?}"),
            format!("{hand:?}"),
            "SQL lowering differs from the hand-built AST under {design:?}"
        );

        // Execution: the SQL path and the raw engine path agree.
        let mut session = SqlSession::new(&db);
        let SqlOutput::Rows { columns, rows } = session.execute_one(sql).expect("run q5 via SQL")
        else {
            panic!("q5 must return rows");
        };
        assert_eq!(columns, vec!["sum(l_quantity)", "sum(...)"]);
        let raw = db
            .session(IsolationLevel::ReadCommitted)
            .run(&hand)
            .expect("run q5 via engine AST");
        assert_eq!(
            rows, raw.rows,
            "SQL and AST paths disagree under {design:?}"
        );
        per_design.push(rows);
    }
    assert!(
        per_design.iter().all(|r| r == &per_design[0]),
        "designs disagree on q5: {per_design:?}"
    );
}

// ----------------------------------------------------- concurrent sessions

fn retry_script(session: &mut SqlSession<'_>, script: &str) {
    loop {
        match session.execute(script) {
            Ok(_) => return,
            Err(HpdError::LockTimeout(_)) | Err(HpdError::SerializationFailure(_)) => {
                // A failed statement leaves the script's transaction open;
                // roll it back and retry the whole script.
                if session.in_txn() {
                    session.execute_one("ROLLBACK").expect("rollback");
                }
                std::thread::yield_now();
            }
            Err(e) => panic!("script `{script}` failed: {e}"),
        }
    }
}

/// Eight sessions on one engine: four serializable writers incrementing the
/// same row (increments must not be lost) while four snapshot readers check
/// that their per-transaction view is stable. Everything — DDL, DML, txn
/// control — travels as SQL text through one shared plan cache.
#[test]
fn eight_concurrent_sessions_sustain_a_mixed_workload() {
    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const INCREMENTS: usize = 12;

    let db = Database::new(DbConfig {
        lock_timeout: Duration::from_millis(50),
        ..DbConfig::default()
    });
    let cache = Arc::new(PlanCache::new(128));
    {
        let mut s = SqlSession::with_cache(&db, Arc::clone(&cache));
        s.execute("CREATE TABLE acct (id INT PRIMARY KEY, grp INT, bal INT)")
            .expect("create");
        for i in 0..16 {
            s.execute_one(&format!("INSERT INTO acct VALUES ({i}, {}, 100)", i % 4))
                .expect("seed row");
        }
    }

    std::thread::scope(|scope| {
        for _ in 0..WRITERS {
            let cache = Arc::clone(&cache);
            let db = &db;
            scope.spawn(move || {
                let mut s = SqlSession::with_cache(db, cache);
                s.execute_one("SET ISOLATION SERIALIZABLE")
                    .expect("set iso");
                for _ in 0..INCREMENTS {
                    retry_script(
                        &mut s,
                        "BEGIN; UPDATE acct SET bal = bal + 1 WHERE id = 0; COMMIT",
                    );
                }
            });
        }
        for _ in 0..READERS {
            let cache = Arc::clone(&cache);
            let db = &db;
            scope.spawn(move || {
                let mut s = SqlSession::with_cache(db, cache);
                s.execute_one("SET ISOLATION SNAPSHOT").expect("set iso");
                for _ in 0..INCREMENTS {
                    // Within one snapshot transaction, two reads of a row
                    // being hammered by the writers must agree.
                    s.execute_one("BEGIN").expect("begin");
                    let a = s
                        .execute_one("SELECT bal FROM acct WHERE id = 0")
                        .expect("read 1");
                    let b = s
                        .execute_one("SELECT bal FROM acct WHERE id = 0 AND grp = 0")
                        .expect("read 2");
                    let (SqlOutput::Rows { rows: ra, .. }, SqlOutput::Rows { rows: rb, .. }) =
                        (a, b)
                    else {
                        panic!("reads must return rows")
                    };
                    assert_eq!(ra, rb, "snapshot read tore within one transaction");
                    s.execute_one("COMMIT").expect("commit");
                }
            });
        }
    });

    let mut s = SqlSession::with_cache(&db, Arc::clone(&cache));
    let SqlOutput::Rows { rows, .. } = s
        .execute_one("SELECT bal FROM acct WHERE id = 0")
        .expect("final read")
    else {
        panic!("final read must return rows")
    };
    assert_eq!(
        rows[0].values()[0],
        Value::Int32(100 + (WRITERS * INCREMENTS) as i32),
        "increments were lost across concurrent sessions"
    );
    assert!(cache.hits() > 0, "sessions must share the plan cache");
}

/// Transaction state is per-session: one session's open transaction neither
/// blocks nor leaks into another's view until commit.
#[test]
fn sessions_have_independent_transaction_state() {
    let db = Database::new(DbConfig::default());
    let mut s1 = SqlSession::new(&db);
    let mut s2 = SqlSession::new(&db);
    s1.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        .expect("ddl");

    s2.execute_one("SET ISOLATION SNAPSHOT").expect("set iso");
    s2.execute_one("BEGIN").expect("s2 begin");
    // s2's snapshot predates s1's insert.
    s1.execute_one("BEGIN").expect("s1 begin");
    assert!(s1.in_txn() && s2.in_txn());
    s1.execute_one("INSERT INTO t VALUES (1, 10)")
        .expect("s1 insert");
    s1.execute_one("COMMIT").expect("s1 commit");
    assert!(
        !s1.in_txn() && s2.in_txn(),
        "commit in s1 must not close s2's txn"
    );

    let SqlOutput::Rows { rows, .. } = s2.execute_one("SELECT k FROM t").expect("s2 read") else {
        panic!()
    };
    assert!(
        rows.is_empty(),
        "snapshot session saw a post-snapshot commit"
    );
    s2.execute_one("COMMIT").expect("s2 commit");

    let SqlOutput::Rows { rows, .. } = s2.execute_one("SELECT k FROM t").expect("s2 reread") else {
        panic!()
    };
    assert_eq!(rows.len(), 1, "new snapshot must see the committed row");
}

// --------------------------------------------------------------- CLI smoke

/// Pipe a multi-statement script through `hpd-cli` and diff the transcript.
#[test]
fn cli_runs_a_scripted_session() {
    let script = "CREATE TABLE t (k INT PRIMARY KEY, v INT);\n\
                  INSERT INTO t VALUES (1, 10), (2, 20);\n\
                  SELECT k, v FROM t ORDER BY k;\n\
                  UPDATE t SET v = v + 5 WHERE k = 2;\n\
                  SELECT SUM(v) FROM t;\n\
                  SELECT nope FROM t;\n";
    let mut child = Command::new(env!("CARGO_BIN_EXE_hpd-cli"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hpd-cli");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(script.as_bytes())
        .expect("write script");
    let out = child.wait_with_output().expect("wait for hpd-cli");
    assert!(out.status.success(), "hpd-cli exited non-zero: {out:?}");

    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let expected = "OK CREATE TABLE\n\
                    OK (2 affected)\n\
                    k | v\n\
                    1 | 10\n\
                    2 | 20\n\
                    (2 rows)\n\
                    OK (1 affected)\n\
                    sum(v)\n\
                    35\n\
                    (1 rows)\n\
                    ERR: invalid query: unknown-column at byte 7: unknown column 'nope'\n";
    assert_eq!(stdout, expected, "CLI transcript diverged");
}

// --------------------------------------------------------- partitioned DDL

/// `PARTITION BY` DDL end-to-end: rows route across partitions, queries
/// answer identically to an unpartitioned twin, and the CLI's
/// `\partitions` meta-command reports per-partition designs and counts.
#[test]
fn partitioned_create_table_routes_rows_and_reports() {
    let db = Database::new(DbConfig::default());
    let mut session = SqlSession::new(&db);
    session
        .execute(
            "CREATE TABLE m (k INT PRIMARY KEY, v INT) \
             PARTITION BY RANGE (k) VALUES LESS THAN (10, 20);
             INSERT INTO m VALUES (1, 100), (10, 200), (15, 300), (25, 400);",
        )
        .expect("partitioned DDL + insert");
    let counts = db
        .with_table("m", |t| {
            (0..t.num_parts())
                .map(|p| t.part(p).row_count())
                .collect::<Vec<_>>()
        })
        .unwrap();
    assert_eq!(counts, vec![1, 2, 1], "rows must route by range");

    let SqlOutput::Rows { rows, .. } = session
        .execute_one("SELECT SUM(v) FROM m WHERE k >= 10")
        .expect("query partitioned table")
    else {
        panic!("expected rows");
    };
    assert_eq!(rows[0].values()[0], Value::Int64(900));

    let report = hpd_sql::partitions_report(&db, "m").expect("partitions report");
    assert!(
        report.contains("range(col 0)"),
        "spec line missing: {report}"
    );
    assert!(
        report.contains("p0: rows=1") && report.contains("p1: rows=2"),
        "per-partition counts missing: {report}"
    );
    assert!(
        report.contains("PRIMARY B+TREE (k)"),
        "per-partition design missing: {report}"
    );

    // Hash partitioning through the same path.
    session
        .execute(
            "CREATE TABLE h (k INT PRIMARY KEY, v INT) USING COLUMNSTORE \
             PARTITION BY HASH (k) PARTITIONS 4;
             INSERT INTO h VALUES (1, 1), (2, 2), (3, 3), (4, 4), (5, 5);",
        )
        .expect("hash DDL + insert");
    let total: usize = db
        .with_table("h", |t| {
            (0..t.num_parts()).map(|p| t.part(p).row_count()).sum()
        })
        .unwrap();
    assert_eq!(total, 5);
    let SqlOutput::Rows { rows, .. } = session
        .execute_one("SELECT v FROM h WHERE k = 3")
        .expect("point query on hash-partitioned table")
    else {
        panic!("expected rows");
    };
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].values()[0], Value::Int32(3));
}

/// Each part's design as descriptor debug strings.
fn part_designs(db: &Database, table: &str) -> Vec<Vec<String>> {
    db.with_table(table, |t| {
        (0..t.num_parts())
            .map(|p| {
                t.part_metas(p)
                    .iter()
                    .map(|m| format!("{:?}", m.descriptor))
                    .collect()
            })
            .collect()
    })
    .unwrap()
}

#[test]
fn drop_index_never_flattens_per_partition_designs() {
    let db = Database::new(DbConfig::default());
    let mut session = SqlSession::new(&db);
    session
        .execute(
            "CREATE TABLE m (k INT PRIMARY KEY, v INT, w INT) \
             PARTITION BY RANGE (k) VALUES LESS THAN (10, 20);
             INSERT INTO m VALUES (1, 1, 1), (10, 2, 2), (15, 3, 3), (25, 4, 4);
             CREATE INDEX ON m (v);
             CREATE INDEX ON m (w);",
        )
        .expect("partitioned DDL");
    // Parts with different primaries but one secondary list: the ordinal
    // resolves against each part, and each keeps its own primary.
    let secondaries = db
        .with_table("m", |t| t.part(0).descriptors()[1..].to_vec())
        .unwrap();
    db.apply_partition_design("m", 0, &IndexDescriptor::PrimaryCsi, &secondaries)
        .unwrap();
    let logged = db.wal_durable().log.len();
    session.execute_one("DROP INDEX 1 ON m").expect("drop #1");
    // One record for the lot: a crash cannot drop it from some parts only.
    let log = db.wal_durable().log;
    let records: Vec<_> = hpd_wal::FrameReader::new(&log[logged..], logged as u64)
        .map(|(_, payload)| hpd_wal::LogRecord::decode(payload).unwrap())
        .collect();
    assert!(
        matches!(records[..], [hpd_wal::LogRecord::IndexDrop { .. }]),
        "{records:?}"
    );
    let designs = part_designs(&db, "m");
    assert!(designs[0][0].contains("PrimaryCsi"), "{designs:?}");
    assert!(designs[1][0].contains("PrimaryBTree"), "{designs:?}");
    for d in &designs {
        assert_eq!(d.len(), 2, "one secondary left on every part: {designs:?}");
        assert!(
            d[1].contains("keys: [2]"),
            "index on w survives: {designs:?}"
        );
    }
    // Parts whose secondaries differ: a typed error, and nothing changes.
    db.apply_partition_design(
        "m",
        2,
        &IndexDescriptor::PrimaryBTree { keys: vec![0] },
        &[],
    )
    .unwrap();
    let before = part_designs(&db, "m");
    let err = session.execute_one("DROP INDEX 1 ON m").unwrap_err();
    assert!(
        err.to_string().contains("apply_partition_design"),
        "error must name the per-partition API: {err}"
    );
    assert_eq!(part_designs(&db, "m"), before);
    let SqlOutput::Rows { rows, .. } = session.execute_one("SELECT SUM(v) FROM m").unwrap() else {
        panic!("expected rows");
    };
    assert_eq!(rows[0].values()[0], Value::Int64(10));
}

/// `DROP INDEX` takes one index off every part, and that moves indexes, not
/// rows: a snapshot that began before it reads
/// the same rows after it and still loses to a write that committed first.
#[test]
fn a_snapshot_spans_drop_index() {
    let db = Database::new(DbConfig::default());
    let mut ddl = SqlSession::new(&db);
    ddl.execute(
        "CREATE TABLE t (k INT PRIMARY KEY, v INT, w INT);
         INSERT INTO t VALUES (1, 10, 100), (2, 20, 200), (3, 30, 300);
         CREATE INDEX ON t (v);
         CREATE INDEX ON t (w);",
    )
    .expect("ddl");
    let mut reader = SqlSession::new(&db);
    reader
        .execute("SET ISOLATION SNAPSHOT; BEGIN")
        .expect("begin");
    let read = |s: &mut SqlSession<'_>| {
        let SqlOutput::Rows { rows, .. } = s.execute_one("SELECT k, v FROM t ORDER BY k").unwrap()
        else {
            panic!("expected rows");
        };
        rows
    };
    let before = read(&mut reader);
    ddl.execute("UPDATE t SET v = 21 WHERE k = 2; DROP INDEX 1 ON t")
        .expect("another session's write, then the drop");
    assert_eq!(read(&mut reader), before, "the snapshot's repeated read");
    let lost = reader.execute("UPDATE t SET v = 22 WHERE k = 2; COMMIT");
    assert!(
        matches!(lost, Err(HpdError::SerializationFailure(_))),
        "the row changed after the snapshot began: {lost:?}"
    );
}

/// The rows `sql` returns.
fn rows_of(session: &mut SqlSession<'_>, sql: &str) -> Vec<Row> {
    match session.execute_one(sql) {
        Ok(SqlOutput::Rows { rows, .. }) => rows,
        other => panic!("{sql}: expected rows, got {other:?}"),
    }
}

/// Per part, the `Debug` form of every index's meta (rows, pages, height,
/// rowgroups, delta rows, buffered deletes, column bytes), and the
/// maintenance backlog: what "physically identical" compares.
fn physical_state(db: &Database, table: &str) -> (Vec<String>, usize) {
    db.with_table(table, |t| {
        let metas = (0..t.num_parts())
            .map(|p| format!("p{p}: {:?}", t.part_metas(p)))
            .collect();
        (metas, t.maintenance_backlog())
    })
    .unwrap()
}

/// A primary key that is not the leading column. The primary B+ tree's
/// payload (the whole row) does not begin with its key, so its leaf entries
/// hold the key apart from the row — except where a row's leading value
/// equals its key (every seventh row here), which stores the key once. A
/// secondary B+ tree (keys first, so shared) and a secondary columnstore not
/// led by `k` (its delta store is keyed on `k`, its entries unshared) sit
/// beside it. Point, range and secondary reads, UPDATEs that move entries
/// into and out of the shared form, and DELETE agree with a model; a
/// database recovered from the log alone answers alike and is physically
/// the live one.
#[test]
fn a_primary_key_past_the_leading_column_reads_writes_and_recovers() {
    let cfg = DbConfig {
        csi: hpd_engine::CsiConfig {
            rowgroup_capacity: 16,
            ..Default::default()
        },
        ..DbConfig::default()
    };
    let db = Database::new(cfg.clone());
    let mut s = SqlSession::new(&db);
    // `(v, k, w)`, keyed on `k`.
    let row = |k: i32| [if k % 7 == 0 { k } else { 100 + 3 * k }, k, k % 5];
    let mut model: Vec<[i32; 3]> = (0..800).map(row).collect();
    let values = |rows: &[[i32; 3]]| {
        (rows.iter())
            .map(|[v, k, w]| format!("({v}, {k}, {w})"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    s.execute(&format!(
        "CREATE TABLE t (v INT, k INT PRIMARY KEY, w INT);
         INSERT INTO t VALUES {};
         CREATE INDEX ON t (w);
         CREATE COLUMNSTORE INDEX ON t (v, w);",
        values(&model)
    ))
    .expect("ddl and load");
    let more: Vec<[i32; 3]> = (800..815).map(row).collect();
    s.execute(&format!("INSERT INTO t VALUES {}", values(&more)))
        .expect("rows into the delta store");
    model.extend(more);
    s.execute(
        "UPDATE t SET v = k WHERE k BETWEEN 10 AND 13;
         UPDATE t SET v = 1000 WHERE k = 14;
         UPDATE t SET w = 9 WHERE k = 21 OR k = 804;
         DELETE FROM t WHERE k BETWEEN 30 AND 35;
         DELETE FROM t WHERE k = 810;",
    )
    .expect("writes");
    for r in &mut model {
        match r[1] {
            10..=13 => r[0] = r[1],
            14 => r[0] = 1000,
            21 | 804 => r[2] = 9,
            _ => {}
        }
    }
    model.retain(|r| !(30..=35).contains(&r[1]) && r[1] != 810);
    let ints = |rows: &[[i32; 3]], cols: &[usize]| -> Vec<Row> {
        (rows.iter())
            .map(|r| Row::new(cols.iter().map(|&c| Value::Int32(r[c])).collect()))
            .collect()
    };
    let filtered = |keep: &dyn Fn(&[i32; 3]) -> bool| -> Vec<[i32; 3]> {
        model.iter().copied().filter(|r| keep(r)).collect()
    };
    let queries = [
        (
            "SELECT v, w FROM t WHERE k = 12",
            ints(&filtered(&|r| r[1] == 12), &[0, 2]),
        ),
        (
            "SELECT v, w FROM t WHERE k = 14",
            ints(&filtered(&|r| r[1] == 14), &[0, 2]),
        ),
        ("SELECT v FROM t WHERE k = 33", vec![]),
        (
            "SELECT v, k, w FROM t WHERE k >= 8 AND k < 40 ORDER BY k",
            ints(&filtered(&|r| (8..40).contains(&r[1])), &[0, 1, 2]),
        ),
        (
            "SELECT k FROM t WHERE w = 9 ORDER BY k",
            ints(&filtered(&|r| r[2] == 9), &[1]),
        ),
        (
            "SELECT k, v FROM t WHERE v > 1500 ORDER BY k",
            ints(&filtered(&|r| r[0] > 1500), &[1, 0]),
        ),
        ("SELECT v, k, w FROM t ORDER BY k", ints(&model, &[0, 1, 2])),
    ];
    for (sql, want) in &queries {
        assert_eq!(&rows_of(&mut s, sql), want, "{sql}");
    }
    let recovered = Database::recover(cfg, db.wal_durable()).unwrap();
    let mut r = SqlSession::new(&recovered);
    for (sql, want) in &queries {
        assert_eq!(&rows_of(&mut r, sql), want, "recovered: {sql}");
    }
    assert_eq!(physical_state(&recovered, "t"), physical_state(&db, "t"));
    let (metas, backlog) = physical_state(&db, "t");
    assert!(backlog > 0, "the columnstore holds delta rows: {metas:?}");
    assert!(
        metas[0].contains("keys: [1] }, rows: 808, leaf_pages: 2, height: 2"),
        "the primary has split past one leaf: {metas:?}"
    );
}

/// A join that seeks the inner table's index once an outer row reads that
/// table as of the snapshot too: a row another session rewrote keeps its
/// old value, and the inner rows still come in key order.
#[test]
fn a_snapshot_reads_through_an_index_nested_loop_join() {
    let db = Database::new(DbConfig::default());
    let mut writer = SqlSession::new(&db);
    writer
        .execute(
            "CREATE TABLE d (id INT PRIMARY KEY, v INT);
             CREATE TABLE f (k INT PRIMARY KEY, fk INT, x INT)",
        )
        .expect("ddl");
    let rows = |n: i32, row: fn(i32) -> Vec<Value>| (0..n).map(|i| Row::new(row(i))).collect();
    db.load_table(
        "d",
        rows(20_000, |i| vec![Value::Int32(i), Value::Int32(i * 10)]),
    )
    .expect("load d");
    db.load_table("f", rows(8, |k| [k, k * 7, k].map(Value::Int32).to_vec()))
        .expect("load f");
    let sql = "SELECT f.k, d.v FROM f JOIN d ON f.fk = d.id WHERE f.x < 4 ORDER BY 1";
    let Ok(Bound::Stmt(Statement::Select(query))) = bind(&db, &parse(sql).unwrap(), &[]) else {
        panic!("the join must bind to a select");
    };
    let plan = db.plan(&query).unwrap().explain();
    assert!(plan.contains("IndexNLJoin inner=d idx#0"), "{plan}");

    let mut reader = SqlSession::new(&db);
    reader
        .execute("SET ISOLATION SNAPSHOT; BEGIN")
        .expect("begin");
    let read = |s: &mut SqlSession<'_>| {
        let SqlOutput::Rows { rows, .. } = s.execute_one(sql).unwrap() else {
            panic!("expected rows");
        };
        rows
    };
    let before = read(&mut reader);
    let v = |k: i32| vec![Value::Int32(k), Value::Int32(k * 70)];
    let want: Vec<Vec<Value>> = (0..4).map(v).collect();
    assert_eq!(
        before
            .iter()
            .map(|r| r.values().to_vec())
            .collect::<Vec<_>>(),
        want
    );
    writer
        .execute_one("UPDATE d SET v = -1 WHERE id = 14")
        .expect("another session's write");
    assert_eq!(read(&mut reader), before, "the snapshot's repeated read");
    reader
        .execute_one("COMMIT")
        .expect("a read-only snapshot commits");
    assert_eq!(read(&mut reader)[2].values()[1], Value::Int32(-1));
}

#[test]
fn cli_partitions_meta_command_reports_designs() {
    let script = "CREATE TABLE e (k INT PRIMARY KEY, v INT) \
                  PARTITION BY RANGE (k) VALUES LESS THAN (100);\n\
                  INSERT INTO e VALUES (1, 1), (200, 2);\n\
                  \\partitions e\n\
                  \\partitions missing\n";
    let mut child = Command::new(env!("CARGO_BIN_EXE_hpd-cli"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hpd-cli");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(script.as_bytes())
        .expect("write script");
    let out = child.wait_with_output().expect("wait for hpd-cli");
    assert!(out.status.success(), "hpd-cli exited non-zero: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert!(
        stdout.contains("e: range(col 0) less than (Int32(100)) -> 2 partitions"),
        "spec header missing:\n{stdout}"
    );
    assert!(
        stdout.contains("p0: rows=1 design=[PRIMARY B+TREE (k)]")
            && stdout.contains("p1: rows=1 design=[PRIMARY B+TREE (k)]"),
        "partition lines missing:\n{stdout}"
    );
    assert!(
        stdout.contains("ERR: unknown table 'missing'")
            || stdout.contains("ERR: unknown table: missing")
            || stdout.contains("ERR:"),
        "missing-table error missing:\n{stdout}"
    );
}
