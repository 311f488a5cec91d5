//! Allocation budgets of the write side, counted by a global allocator on
//! the test's own thread: a checkpoint's allocations do not grow with the
//! table, a steady-state checkpoint allocates no image buffer, and a
//! secondary columnstore build never holds more than a row group of
//! uncompressed values.

use hpd_common::{faults, DataType, HpdError, Row, Schema, Value};
use hpd_engine::{Database, DbConfig, IndexDescriptor};
use hpd_obs::alloc::{self, CountingAlloc, Region};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("id", DataType::Int32),
        ("grp", DataType::Int32),
        ("val", DataType::Int64),
        ("tag", DataType::Utf8),
    ])
}

fn row(id: i32) -> Row {
    Row::new(vec![
        Value::Int32(id),
        Value::Int32(id % 97),
        Value::Int64(i64::from(id) * 31),
        Value::str(format!("t{}", id % 11)),
    ])
}

fn config(rowgroup_capacity: usize) -> DbConfig {
    let mut cfg = DbConfig {
        // Everything on this thread: the allocator counts per thread.
        max_dop: 1,
        worker_threads: 0,
        ..DbConfig::default()
    };
    cfg.csi.rowgroup_capacity = rowgroup_capacity;
    cfg
}

fn loaded(rows: i32, rowgroup_capacity: usize) -> Database {
    let db = Database::new(config(rowgroup_capacity));
    db.create_table(
        "t",
        schema(),
        vec![0],
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
    )
    .unwrap();
    db.load_table("t", (0..rows).map(row).collect()).unwrap();
    db
}

fn measure(f: impl FnOnce()) -> Region {
    alloc::measure(f).1
}

fn image_bytes(db: &Database) -> usize {
    db.wal_durable().checkpoint.expect("image installed").len()
}

#[test]
fn checkpoint_allocations_do_not_depend_on_the_row_count() {
    let mut steady = Vec::new();
    let mut first = Vec::new();
    for rows in [3_000, 48_000] {
        let db = loaded(rows, 4_096);
        db.create_index(
            "t",
            &IndexDescriptor::SecondaryBTree {
                keys: vec![1],
                includes: vec![],
            },
        )
        .unwrap();
        first.push(measure(|| db.checkpoint().unwrap()));
        // The second still allocates: the first image is installed and must
        // outlive a crash, so there is no retired buffer to write into yet.
        let second = measure(|| db.checkpoint().unwrap());
        let image = image_bytes(&db);
        assert!(
            second.after.largest_bytes >= image,
            "a buffer for image two"
        );
        for _ in 0..3 {
            let r = measure(|| db.checkpoint().unwrap());
            assert!(
                r.after.largest_bytes < image / 8 && r.after.largest_bytes < 4_096,
                "{rows} rows: a {} byte request, image {image}",
                r.after.largest_bytes
            );
            assert_eq!(r.left_live(), 0, "{rows} rows: steady state holds steady");
            assert!(r.peak_over_start() < 4_096, "{}", r.peak_over_start());
            steady.push(r.allocations());
        }
    }
    // Sixteen times the rows, the same allocations.
    assert!(steady.iter().all(|&n| n == steady[0]), "{steady:?}");
    assert!(steady[0] < 200, "{steady:?}");
    // The first checkpoint grows its buffer by doubling: four doublings
    // more for sixteen times the bytes, and nothing per row.
    assert!(
        first[1].allocations() <= first[0].allocations() + 6,
        "{} then {}",
        first[0].allocations(),
        first[1].allocations()
    );
}

#[test]
fn crash_in_checkpoint_leaves_the_spare_buffer_for_the_next_one() {
    let db = loaded(20_000, 4_096);
    db.checkpoint().unwrap();
    db.checkpoint().unwrap();
    let image = image_bytes(&db);
    faults::arm(faults::sites::CRASH_IN_CHECKPOINT, 1);
    let crashed = measure(|| {
        assert!(matches!(db.checkpoint(), Err(HpdError::Crashed(_))));
    });
    faults::clear_all();
    assert!(
        crashed.after.largest_bytes < 4_096,
        "{}",
        crashed.after.largest_bytes
    );
    // Had the crashed checkpoint taken the spare, this one would allocate.
    let next = measure(|| db.checkpoint().unwrap());
    assert!(
        next.after.largest_bytes < image / 8,
        "a {} byte request, image {image}",
        next.after.largest_bytes
    );
}

#[test]
fn secondary_csi_build_holds_one_rowgroup_of_uncompressed_values() {
    const CAPACITY: usize = 1_024;
    let mut over = Vec::new();
    for rows in [8_192, 65_536] {
        let db = loaded(rows, CAPACITY);
        // Leave room in the log: the record of the build must not double
        // the log's buffer inside the measured region.
        db.checkpoint().unwrap();
        let build = measure(|| {
            db.create_index(
                "t",
                &IndexDescriptor::SecondaryCsi {
                    columns: vec![0, 1, 2, 3],
                },
            )
            .unwrap()
        });
        // What the build held at its worst beyond what it left behind.
        over.push(build.peak_over_start() - build.left_live());
    }
    // A row is 4 + 4 + 8 bytes and a string handle; sorting and encoding
    // one row group takes a few copies of its columns.
    let rowgroup = (CAPACITY * (16 + 16)) as i64;
    assert!(over[0] <= 8 * rowgroup, "{over:?}");
    // Eight times the rows: the same working memory, give or take the
    // growth steps of the finished index's own vectors.
    assert!(over[1] <= over[0] + 2 * rowgroup, "{over:?}");
}
