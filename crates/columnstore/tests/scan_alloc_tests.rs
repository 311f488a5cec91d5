//! What a columnstore scan holds, counted by a global allocator on the
//! test's own thread: a `once` pass (an index build, a checkpoint) over a
//! row group the decoded-segment cache does not hold leaves its segments
//! encoded and gathers each batch's range from them, so it holds about one
//! batch at a time, never a decode of each projected column; and a scan of
//! the delta store builds each batch's columns from the B+ tree's entries,
//! never a row of the delta as values, with the last row group it read
//! already freed; a scan under buffered deletes probes them without a key
//! a row; and the insert that fills the delta moves it into a row group
//! without a row.

use std::collections::HashMap;

use hpd_columnstore::{ColumnStoreIndex, CsiConfig, CsiKind, SCAN_BATCH_ROWS};
use hpd_common::{DataType, Interval, Key, Row, Schema, Value};
use hpd_obs::alloc::{self, CountingAlloc};
use hpd_storage::{BufferPool, DeviceProfile, IoTracker, StorageAllocator};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One full row group.
const ROWS: usize = 65_536;
const COLUMNS: usize = 4;

fn row(i: usize) -> Row {
    let i = i as i64;
    Row::new(vec![
        Value::Int64(i),
        Value::Int64(i * 7_919 % 1_000_003),
        Value::Int64(i % 97),
        Value::Int64((i * 31) ^ 0x5555),
    ])
}

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("a", DataType::Int64),
        ("b", DataType::Int64),
        ("c", DataType::Int64),
        ("d", DataType::Int64),
    ])
}

#[test]
fn a_once_scan_of_an_uncached_rowgroup_holds_one_batch() {
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let t = IoTracker::new();
    let schema = schema();
    let config = CsiConfig {
        rowgroup_capacity: ROWS,
        ..CsiConfig::default()
    };
    let rows: Vec<Row> = (0..ROWS).map(row).collect();
    let idx = ColumnStoreIndex::build(
        schema,
        CsiKind::Primary,
        vec![0],
        config,
        &rows,
        StorageAllocator::new(),
        &pool,
        &t,
    );
    drop(rows);
    assert_eq!(idx.num_rowgroups(), 1);
    assert_eq!(idx.delta_rows(), 0);

    let projection: Vec<usize> = (0..COLUMNS).collect();
    let ((scanned, batches), region) = alloc::measure(|| {
        let mut scan = idx.begin_scan(projection, HashMap::new(), &pool, &t).once();
        let (mut scanned, mut batches) = (0, 0);
        // Each batch is dropped before the next is pulled.
        while let Some(batch) = scan.next_batch(&pool, &t) {
            scanned += batch.num_rows();
            batches += 1;
        }
        (scanned, batches)
    });
    assert_eq!(scanned, ROWS, "every row survives");
    assert_eq!(batches, ROWS / SCAN_BATCH_ROWS);
    assert_eq!(
        idx.decoded_cache_bytes_used(),
        0,
        "a once pass caches nothing"
    );
    // One batch is COLUMNS x SCAN_BATCH_ROWS words; a decode of each column
    // would be COLUMNS x ROWS words (2 MiB).
    let budget = (2 * COLUMNS * SCAN_BATCH_ROWS * 8) as i64;
    assert!(
        region.peak_over_start() < budget,
        "peak {} bytes over start, budget {budget}",
        region.peak_over_start()
    );
}

/// 60 000 rows inserted into a columnstore whose row groups take 65 536 all
/// stay in its delta store: a `once` pass over them holds a batch and the
/// walk's cursor, whatever the delta's size. Collecting the delta as rows,
/// projecting each into another and building one batch of them peaked at
/// 7.86 MB, 3 allocations a row.
#[test]
fn a_once_scan_of_the_delta_store_holds_one_batch() {
    const DELTA: usize = 60_000;
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let t = IoTracker::new();
    let config = CsiConfig {
        rowgroup_capacity: ROWS,
        ..CsiConfig::default()
    };
    let mut idx = ColumnStoreIndex::build(
        schema(),
        CsiKind::Primary,
        vec![0],
        config,
        &[],
        StorageAllocator::new(),
        &pool,
        &t,
    );
    // Keys inserted out of order; the delta holds them in key order.
    for i in 0..DELTA {
        idx.insert(row(i * 7_919 % DELTA), &pool, &t);
    }
    assert_eq!((idx.num_rowgroups(), idx.delta_rows()), (0, DELTA));

    let projection: Vec<usize> = (0..COLUMNS).collect();
    let ((keys, batches), region) = alloc::measure(|| {
        let mut scan = idx.begin_scan(projection, HashMap::new(), &pool, &t).once();
        let (mut keys, mut batches) = (Vec::new(), 0);
        while let Some(batch) = scan.next_batch(&pool, &t) {
            keys.push(batch.column(0).value(0));
            assert!(batch.num_rows() <= SCAN_BATCH_ROWS);
            batches += 1;
        }
        (keys, batches)
    });
    assert_eq!(batches, DELTA.div_ceil(SCAN_BATCH_ROWS));
    // Each batch starts where the one before it stopped, in key order.
    let starts: Vec<Value> = (0..batches)
        .map(|b| Value::Int64((b * SCAN_BATCH_ROWS) as i64))
        .collect();
    assert_eq!(keys, starts);
    let budget = (2 * COLUMNS * SCAN_BATCH_ROWS * 8) as i64;
    assert!(
        region.peak_over_start() < budget,
        "peak {} bytes over start, budget {budget}",
        region.peak_over_start()
    );
    // A few allocations a batch, none a row.
    assert!(
        region.allocations() < 10 * batches as u64,
        "{} allocations",
        region.allocations()
    );
}

/// Once a scan's row groups are read, what it opened the last of them with
/// — the surviving positions of a filtered row group, 8 bytes each — is
/// freed before the delta store is walked, not held to the scan's end.
#[test]
fn a_scan_frees_its_last_rowgroup_before_it_walks_the_delta() {
    const DELTA: usize = 10_000;
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let t = IoTracker::new();
    let config = CsiConfig {
        rowgroup_capacity: ROWS,
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
    drop(rows);
    for i in ROWS..ROWS + DELTA {
        idx.insert(row(i), &pool, &t);
    }
    assert_eq!((idx.num_rowgroups(), idx.delta_rows()), (1, DELTA));

    // About half of the row group's rows survive; all of the delta's that
    // match the same interval follow them.
    let half = HashMap::from([(2, Interval::less_than(Value::Int64(48), false))]);
    let survivors = (0..ROWS).filter(|&i| i % 97 < 48).count();
    let projection: Vec<usize> = (0..COLUMNS).collect();
    let mut scan = idx.begin_scan(projection, half, &pool, &t).once();
    let mut scanned = 0;
    while scanned < survivors {
        scanned += scan
            .next_batch(&pool, &t)
            .expect("row group rows")
            .num_rows();
    }
    assert_eq!(scanned, survivors);
    let (delta, region) = alloc::measure(|| {
        let mut delta = 0;
        while let Some(batch) = scan.next_batch(&pool, &t) {
            delta += batch.num_rows();
        }
        delta
    });
    assert_eq!(delta, (ROWS..ROWS + DELTA).filter(|&i| i % 97 < 48).count());
    let positions = (survivors * std::mem::size_of::<usize>()) as i64;
    assert!(
        region.left_live() <= -positions,
        "the delta walk left {} bytes live; the row group's positions take {positions}",
        region.left_live()
    );
}

/// The insert that fills a delta of 65 535 rows moves its 65 536 rows
/// into a row group by draining the delta's tree straight into the row
/// group's column vectors, freeing each leaf it empties: it holds the
/// vectors (2 MiB) and what the row group's build needs, not the rows.
/// Collecting the rows as `(Key, Row)`s, deleting them one seek at a time
/// and making a batch of them peaked 8.39 MB over start, with 196 684
/// allocations.
#[test]
fn the_insert_that_fills_the_delta_moves_it_without_rows() {
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let t = IoTracker::new();
    let config = CsiConfig {
        rowgroup_capacity: ROWS,
        ..CsiConfig::default()
    };
    let alloc = StorageAllocator::new();
    let mut idx = ColumnStoreIndex::build(
        schema(),
        CsiKind::Primary,
        vec![0],
        config,
        &[],
        alloc,
        &pool,
        &t,
    );
    for i in 0..ROWS - 1 {
        idx.insert(row(i * 7_919 % ROWS), &pool, &t);
    }
    let last = row((ROWS - 1) * 7_919 % ROWS);
    let ((), region) = alloc::measure(|| idx.insert(last, &pool, &t));
    assert_eq!((idx.num_rowgroups(), idx.delta_rows()), (1, 0));
    assert!(
        region.peak_over_start() <= 2_500_000,
        "peak {} bytes over start",
        region.peak_over_start()
    );
    assert!(
        region.allocations() < 1_000,
        "{} allocations",
        region.allocations()
    );
}

/// A scan of a secondary columnstore's 65 536-row group under 2 047
/// buffered deletes probes each surviving row's key through one key
/// refilled in place: it allocates for the buffer's keys (the probe set)
/// and a few times a batch, not once a row (67 683 allocations when a key
/// was built per row).
#[test]
fn an_anti_joined_scan_allocates_for_the_buffer_not_the_rows() {
    const DELETES: usize = 2_047;
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let t = IoTracker::new();
    let config = CsiConfig {
        rowgroup_capacity: ROWS,
        delete_buffer_compact_threshold: DELETES + 1,
        ..CsiConfig::default()
    };
    let rows: Vec<Row> = (0..ROWS).map(row).collect();
    let mut idx = ColumnStoreIndex::build(
        schema(),
        CsiKind::Secondary,
        vec![0],
        config,
        &rows,
        StorageAllocator::new(),
        &pool,
        &t,
    );
    drop(rows);
    for i in 0..DELETES {
        idx.delete(&Key::single(Value::Int64((i * 31) as i64)), &pool, &t);
    }
    assert_eq!(idx.delete_buffer_len(), DELETES);
    let projection: Vec<usize> = (0..COLUMNS).collect();
    let ((scanned, batches), region) = alloc::measure(|| {
        let mut scan = idx.begin_scan(projection, HashMap::new(), &pool, &t);
        let (mut scanned, mut batches) = (0, 0);
        while let Some(batch) = scan.next_batch(&pool, &t) {
            scanned += batch.num_rows();
            batches += 1;
        }
        (scanned, batches)
    });
    assert_eq!(scanned, ROWS - DELETES);
    let budget = DELETES as u64 + 64 + 16 * batches as u64;
    assert!(
        region.allocations() < budget,
        "{} allocations over {batches} batches, budget {budget}",
        region.allocations()
    );
}
