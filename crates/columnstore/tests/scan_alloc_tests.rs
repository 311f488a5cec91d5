//! What a columnstore scan holds, counted by a global allocator on the
//! test's own thread: a `once` pass (an index build, a checkpoint) over a
//! row group the decoded-segment cache does not hold leaves its segments
//! encoded and gathers each batch's range from them, so it holds about one
//! batch at a time, never a decode of each projected column.

use std::collections::HashMap;

use hpd_columnstore::{ColumnStoreIndex, CsiConfig, CsiKind, SortMode, SCAN_BATCH_ROWS};
use hpd_common::{DataType, Row, Schema, Value};
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

#[test]
fn a_once_scan_of_an_uncached_rowgroup_holds_one_batch() {
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let t = IoTracker::new();
    let schema = Schema::from_pairs(&[
        ("a", DataType::Int64),
        ("b", DataType::Int64),
        ("c", DataType::Int64),
        ("d", DataType::Int64),
    ]);
    let config = CsiConfig {
        rowgroup_capacity: ROWS,
        sort_mode: SortMode::Greedy,
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
