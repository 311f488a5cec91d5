//! Plan-cache behavior: hit/miss/invalidation accounting, normalization
//! equivalence classes, and invalidation on every physical-design change
//! (CREATE INDEX, DROP INDEX, `apply_design`).
//!
//! Per-cache counts are asserted exactly via the cache's local stats; the
//! process-global `sql.plancache.*` counters aggregate every cache in the
//! test binary, so those are only asserted to move.

use std::sync::Arc;

use hpd_common::{DataType, HpdError, Row, Schema, Value};
use hpd_engine::{Database, DbConfig, IndexDescriptor, TableDesign};
use hpd_sql::{parse, PlanCache, SqlErrorKind, SqlOutput, SqlSession};

fn db_with_rows() -> Database {
    let db = Database::new(DbConfig::default());
    let schema = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int32)]);
    db.create_table(
        "t",
        schema,
        vec![0],
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
    )
    .expect("create table");
    db.load_table(
        "t",
        (0..20)
            .map(|k| Row::new(vec![Value::Int32(k), Value::Int32(k * 10)]))
            .collect::<Vec<_>>(),
    )
    .expect("load rows");
    db
}

fn rows_of(out: SqlOutput) -> Vec<Vec<i64>> {
    match out {
        SqlOutput::Rows { rows, .. } => rows
            .iter()
            .map(|r| r.values().iter().map(|v| v.as_i64().unwrap()).collect())
            .collect(),
        other => panic!("expected rows, got {other:?}"),
    }
}

#[test]
fn equivalent_texts_share_one_entry_and_literals_rebind() {
    let db = db_with_rows();
    let cache = Arc::new(PlanCache::new(64));
    let mut s = SqlSession::with_cache(&db, Arc::clone(&cache));

    let a = rows_of(s.execute_one("SELECT v FROM t WHERE k = 3").unwrap());
    assert_eq!((cache.hits(), cache.misses()), (0, 1), "first text parses");

    // Same statement modulo whitespace, keyword case, and the literal:
    // all three must hit the one cached template.
    let b = rows_of(s.execute_one("select v\n  from T where K = 7").unwrap());
    let c = rows_of(s.execute_one("SELECT v FROM t WHERE k=11").unwrap());
    let d = rows_of(s.execute_one("SELECT v FROM t WHERE k = 3").unwrap());
    assert_eq!((cache.hits(), cache.misses()), (3, 1));
    assert_eq!(cache.len(), 1, "one normalized entry serves all four");

    // And the captured literals must actually rebind per execution.
    assert_eq!(a, vec![vec![30]]);
    assert_eq!(b, vec![vec![70]]);
    assert_eq!(c, vec![vec![110]]);
    assert_eq!(d, vec![vec![30]]);
}

#[test]
fn distinct_shapes_get_distinct_entries() {
    let db = db_with_rows();
    let cache = Arc::new(PlanCache::new(64));
    let mut s = SqlSession::with_cache(&db, Arc::clone(&cache));

    s.execute_one("SELECT v FROM t WHERE k = 1").unwrap();
    s.execute_one("SELECT v FROM t WHERE k > 1").unwrap();
    s.execute_one("SELECT k FROM t WHERE v = 10").unwrap();
    assert_eq!((cache.hits(), cache.misses()), (0, 3));
    assert_eq!(cache.len(), 3);
}

#[test]
fn prepared_statements_fill_explicit_params() {
    let db = db_with_rows();
    let mut s = SqlSession::new(&db);
    let p = s.prepare("SELECT v FROM t WHERE k = ?").unwrap();
    for k in [2i32, 9, 19] {
        let rows = rows_of(s.execute_prepared(&p, &[Value::Int32(k)]).unwrap());
        assert_eq!(rows, vec![vec![i64::from(k) * 10]]);
    }
    // Mixed captured-literal + explicit-param statements keep both: the
    // literal 10 is captured, the ? stays the caller's.
    let p = s.prepare("SELECT k FROM t WHERE v > 10 AND k < ?").unwrap();
    let mut rows = rows_of(s.execute_prepared(&p, &[Value::Int32(5)]).unwrap());
    rows.sort_unstable();
    assert_eq!(rows, vec![vec![2], vec![3], vec![4]]);
}

#[test]
fn create_index_invalidates_cached_plans() {
    let db = db_with_rows();
    let cache = Arc::new(PlanCache::new(64));
    let mut s = SqlSession::with_cache(&db, Arc::clone(&cache));

    s.execute_one("SELECT v FROM t WHERE k = 3").unwrap();
    s.execute_one("SELECT v FROM t WHERE k = 4").unwrap();
    assert_eq!(
        (cache.hits(), cache.misses(), cache.invalidations()),
        (1, 1, 0)
    );

    // The DDL statement itself counts one (uncached, non-cacheable) miss.
    s.execute_one("CREATE COLUMNSTORE INDEX ON t (k, v)")
        .unwrap();
    let out = rows_of(s.execute_one("SELECT v FROM t WHERE k = 5").unwrap());
    assert_eq!(out, vec![vec![50]]);
    assert_eq!(
        (cache.hits(), cache.misses(), cache.invalidations()),
        (1, 3, 1),
        "the DDL-stale entry is dropped, re-parsed, and re-cached"
    );

    // The re-cached entry is keyed at the new epoch: hits again.
    s.execute_one("SELECT v FROM t WHERE k = 6").unwrap();
    assert_eq!(
        (cache.hits(), cache.misses(), cache.invalidations()),
        (2, 3, 1)
    );
}

#[test]
fn drop_index_and_apply_design_also_invalidate() {
    let db = db_with_rows();
    db.create_index(
        "t",
        &IndexDescriptor::SecondaryCsi {
            columns: vec![0, 1],
        },
    )
    .expect("create secondary");
    let cache = Arc::new(PlanCache::new(64));
    let mut s = SqlSession::with_cache(&db, Arc::clone(&cache));

    s.execute_one("SELECT v FROM t WHERE k = 3").unwrap();
    s.execute_one("DROP INDEX 1 ON t").unwrap();
    s.execute_one("SELECT v FROM t WHERE k = 3").unwrap();
    assert_eq!(cache.invalidations(), 1, "DROP INDEX bumps the DDL epoch");

    // A physical-design change through the advisor path (apply_design)
    // must equally invalidate — plans may embed design-specific choices.
    db.apply_design(&TableDesign::new(
        "t",
        vec![IndexDescriptor::PrimaryBTree { keys: vec![0] }],
    ))
    .expect("apply design");
    let out = rows_of(s.execute_one("SELECT v FROM t WHERE k = 3").unwrap());
    assert_eq!(out, vec![vec![30]]);
    assert_eq!(cache.invalidations(), 2, "apply_design bumps the DDL epoch");
}

#[test]
fn global_plancache_metrics_move() {
    let before_hit = hpd_obs::global().counter("sql.plancache.hit").get();
    let before_miss = hpd_obs::global().counter("sql.plancache.miss").get();
    let before_inval = hpd_obs::global().counter("sql.plancache.invalidate").get();

    let db = db_with_rows();
    let mut s = SqlSession::new(&db);
    s.execute_one("SELECT v FROM t WHERE k = 1").unwrap();
    s.execute_one("SELECT v FROM t WHERE k = 2").unwrap();
    s.execute_one("CREATE COLUMNSTORE INDEX ON t (k, v)")
        .unwrap();
    s.execute_one("SELECT v FROM t WHERE k = 3").unwrap();

    assert!(hpd_obs::global().counter("sql.plancache.hit").get() > before_hit);
    assert!(hpd_obs::global().counter("sql.plancache.miss").get() > before_miss);
    assert!(hpd_obs::global().counter("sql.plancache.invalidate").get() > before_inval);
}

#[test]
fn capacity_is_bounded_fifo() {
    let db = db_with_rows();
    let cache = Arc::new(PlanCache::new(2));
    let mut s = SqlSession::with_cache(&db, Arc::clone(&cache));
    s.execute_one("SELECT v FROM t WHERE k = 1").unwrap();
    s.execute_one("SELECT v FROM t WHERE k > 1").unwrap();
    s.execute_one("SELECT k FROM t WHERE v = 10").unwrap();
    assert_eq!(cache.len(), 2, "capacity evicts the oldest entry");
    // The evicted (oldest) shape re-parses; the newest still hits.
    s.execute_one("SELECT k FROM t WHERE v = 20").unwrap();
    assert_eq!(cache.hits(), 1);
}

#[test]
fn an_integer_literal_outside_i64_is_invalid_first_and_on_a_cache_hit() {
    let db = db_with_rows();
    let schema = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Float64)]);
    let primary = IndexDescriptor::PrimaryBTree { keys: vec![0] };
    db.create_table("d", schema, vec![0], primary).unwrap();
    let rows = (0..3).map(|k| Row::new(vec![Value::Int32(k), Value::Float64(0.0)]));
    db.load_table("d", rows.collect()).unwrap();
    let cache = Arc::new(PlanCache::new(64));
    let mut s = SqlSession::with_cache(&db, Arc::clone(&cache));
    // `t.v` is an INT column, `d.v` a DOUBLE one holding 0.0.
    for table in ["t", "d"] {
        s.execute_one(&format!("SELECT v FROM {table} WHERE v = 1"))
            .unwrap();
        for literal in ["12345678901234567890123", "-12345678901234567890123"] {
            let sql = format!("SELECT v FROM {table} WHERE v = {literal}");
            let parsed = parse(&sql).unwrap_err();
            assert_eq!(parsed.kind, SqlErrorKind::InvalidNumber, "{sql}");
            // The first execution and the next, after the shape is cached.
            for _ in 0..2 {
                let got = s.execute_one(&sql).unwrap_err();
                assert_eq!(got, HpdError::from(parsed.clone()), "{sql}");
            }
        }
        let hits = cache.hits();
        s.execute_one(&format!("SELECT v FROM {table} WHERE v = 2"))
            .unwrap();
        assert_eq!(cache.hits(), hits + 1, "the in-range shape still hits");
    }
}
