//! A columnstore scan hands out its rows in batches of at most
//! `SCAN_BATCH_ROWS`, cut from one decode per segment per row group: the
//! batches, concatenated, are exactly the row groups' decoded rows (those
//! that survive), then the delta store's.

use std::collections::HashMap;

use hpd_columnstore::{ColumnStoreIndex, CsiConfig, CsiKind, SCAN_BATCH_ROWS};
use hpd_common::{Batch, ColumnVector, DataType, Interval, Row, Schema, Value};
use hpd_storage::{BufferPool, DeviceProfile, IoTracker, StorageAllocator, Work};

/// Rows of the first row group; the second holds `ROWS - FULL`.
const FULL: usize = 65_536;
const ROWS: usize = FULL + 6_784;
/// Rows inserted after the build, which stay in the delta store.
const DELTA: usize = 5_000;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("id", DataType::Int32),
        ("val", DataType::Int64),
        ("tag", DataType::Utf8),
    ])
}

fn row(i: usize) -> Row {
    let i = i as i64;
    Row::new(vec![
        Value::Int32(i as i32),
        Value::Int64(i * 7919 % 1_000),
        Value::str(format!("t{}", i % 13)),
    ])
}

/// An index of two row groups, of 65 536 and 6 784 rows, and a delta store
/// of 5 000; `cache_bytes` 0 turns the decoded-segment cache off.
fn index(cache_bytes: usize) -> (ColumnStoreIndex, BufferPool, IoTracker) {
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let t = IoTracker::new();
    let config = CsiConfig {
        rowgroup_capacity: FULL,
        decoded_cache_bytes: cache_bytes,
        ..CsiConfig::default()
    };
    let rows: Vec<Row> = (0..ROWS).map(row).collect();
    let mut idx = ColumnStoreIndex::build(
        schema(),
        CsiKind::Primary,
        vec![0],
        config,
        &rows,
        StorageAllocator::new(),
        &pool,
        &t,
    );
    for i in ROWS..ROWS + DELTA {
        idx.insert(row(i), &pool, &t);
    }
    assert_eq!(idx.num_rowgroups(), 2);
    assert_eq!(idx.rowgroup(0).rows(), FULL);
    assert_eq!(idx.rowgroup(1).rows(), ROWS - FULL);
    assert_eq!(idx.delta_rows(), DELTA);
    (idx, pool, t)
}

/// What the scan must hand out: each row group decoded whole once and
/// filtered by `keep`, in stored order, then the delta store's rows.
fn expected(idx: &ColumnStoreIndex, keep: &dyn Fn(&Row) -> bool) -> Vec<Row> {
    let mut want = Vec::new();
    for g in 0..idx.num_rowgroups() {
        let rg = idx.rowgroup(g);
        let columns: Vec<ColumnVector> = (0..3).map(|c| rg.segment(c).decode()).collect();
        let decoded = Batch::new(columns);
        want.extend(decoded.to_rows().into_iter().filter(|r| keep(r)));
    }
    let delta: Vec<Row> = (ROWS..ROWS + DELTA).map(row).filter(|r| keep(r)).collect();
    want.extend(delta);
    want
}

/// Drain a scan: every batch non-empty and of at most `SCAN_BATCH_ROWS`
/// rows, concatenated.
fn drain(
    idx: &ColumnStoreIndex,
    intervals: &HashMap<usize, Interval>,
    once: bool,
    pool: &BufferPool,
    t: &IoTracker,
) -> Vec<Row> {
    let scan = idx.begin_scan(vec![0, 1, 2], intervals.clone(), pool, t);
    let mut scan = if once { scan.once() } else { scan };
    let mut rows = Vec::new();
    while let Some(batch) = scan.next_batch(pool, t) {
        assert!(batch.num_rows() > 0, "an empty batch");
        assert!(
            batch.num_rows() <= SCAN_BATCH_ROWS,
            "{} rows",
            batch.num_rows()
        );
        rows.extend(batch.to_rows());
    }
    rows
}

#[test]
fn scan_batches_are_cut_from_one_decode_of_each_row_group() {
    let sparse: HashMap<usize, Interval> =
        [(1, Interval::between(Value::Int64(0), Value::Int64(299)))].into();
    let in_sparse = |r: &Row| matches!(r.values()[1], Value::Int64(v) if v < 300);
    for cache_bytes in [CsiConfig::default().decoded_cache_bytes, 0] {
        let (idx, pool, t) = index(cache_bytes);
        let all = expected(&idx, &|_| true);
        let some = expected(&idx, &in_sparse);
        assert_eq!(all.len(), ROWS + DELTA);
        assert!(some.len() > SCAN_BATCH_ROWS && some.len() < all.len() / 2);
        // Cold, then warm (a cached decode is sliced, or gathered from), and
        // as a `once` pass over the warm cache and a cold one.
        for once in [false, false, true] {
            assert_eq!(
                drain(&idx, &HashMap::new(), once, &pool, &t),
                all,
                "{cache_bytes} {once}"
            );
            assert_eq!(
                drain(&idx, &sparse, once, &pool, &t),
                some,
                "{cache_bytes} {once}"
            );
        }
        let (cold, pool, t) = index(cache_bytes);
        assert_eq!(drain(&cold, &sparse, true, &pool, &t), some);
        assert_eq!(drain(&cold, &HashMap::new(), true, &pool, &t), all);
        assert_eq!(cold.decoded_cache_bytes_used(), 0);
    }
}

#[test]
fn the_cache_is_asked_once_per_segment_per_row_group() {
    let (idx, pool, _) = index(CsiConfig::default().decoded_cache_bytes);
    let count = |once: bool| {
        let t = IoTracker::new();
        drain(&idx, &HashMap::new(), once, &pool, &t);
        let io = t.snapshot();
        (
            io.counted(Work::SegcacheHit),
            io.counted(Work::SegcacheMiss),
        )
    };
    // Two row groups of three columns: six misses, then six hits, however
    // many batches each row group is cut into.
    assert_eq!(count(false), (0, 6));
    assert_eq!(count(false), (6, 0));
    assert_eq!(count(true), (6, 0));
}
