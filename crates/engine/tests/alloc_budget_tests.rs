//! Allocation budgets of the write side, counted by a global allocator on
//! the test's own thread: a checkpoint's allocations do not grow with the
//! table, a steady-state checkpoint allocates no image segment and none asks
//! for more than one, a secondary
//! columnstore build never holds more than a row group of uncompressed
//! values, a row-group build allocates a few times per column and builds
//! only the encoding that wins, `EncodedInts::for_each` allocates nothing, a
//! B+ tree build allocates per leaf and not per row, and a `lineitem` row
//! costs under 80 heap bytes in its primary B+ tree, a design change builds
//! what the target adds and nothing it keeps, a restore builds each
//! partition once, under its own design, and a load into several partitions
//! — live, redone or restored — holds its record and the row groups being
//! filled, never the rows as values or routed into vectors, its B+ tree
//! parts peaking under the same load into one part, and a load
//! encodes its record into the log's segments as it frees the rows it was
//! handed, never into a buffer the size of the record; and a hash join
//! and a hash aggregate allocate per batch and column, never per row, and
//! hold their output, their table and one batch's working vectors. And
//! the tuples themselves: a `Row` or `Key` is one allocation of 16 bytes a
//! value, a string is shared by a clone and allocated once when read out
//! of encoded bytes, and a scan refills one scratch row in place. A star
//! join over a columnstore, through the engine, stays in batch mode up to
//! its aggregate and allocates per batch and column, and a row-mode Project
//! builds each row of only the columns it reads.

use std::sync::{Mutex, MutexGuard, PoisonError};

use hpd_common::{faults, DataType, HpdError, Row, Schema, Value, ValueRef};
use hpd_engine::{
    Database, DbConfig, IndexDescriptor, InsertStmt, PartitionSpec, Statement, TableDesign,
};
use hpd_obs::alloc::{self, CountingAlloc, Region};
use hpd_wal::RETAINED_MIN;

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

/// Segments of the log's store `bytes` bytes of image fill.
fn segments(bytes: usize) -> u64 {
    bytes.div_ceil(RETAINED_MIN) as u64
}

/// Every test here that checkpoints adds to the one process-wide
/// `wal.checkpoint.segments_allocated`: they take turns, so that a test
/// reading it sees its own checkpoints only.
fn checkpoints_alone() -> MutexGuard<'static, ()> {
    static CHECKPOINTS: Mutex<()> = Mutex::new(());
    CHECKPOINTS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn segments_allocated() -> u64 {
    hpd_obs::global()
        .counter("wal.checkpoint.segments_allocated")
        .get()
}

#[test]
fn checkpoint_allocations_do_not_depend_on_the_row_count() {
    let _alone = checkpoints_alone();
    let mut steady = Vec::new();
    let mut first = Vec::new();
    let mut images = Vec::new();
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
        // outlive a crash, so there are no retired segments to write into
        // yet. It takes them one at a time.
        let before = segments_allocated();
        let second = measure(|| db.checkpoint().unwrap());
        let image = image_bytes(&db);
        assert_eq!(segments_allocated() - before, segments(image));
        assert!(
            second.allocations() >= segments(image),
            "segments for image two"
        );
        assert_eq!(second.after.largest_bytes, RETAINED_MIN);
        for _ in 0..3 {
            let before = segments_allocated();
            let r = measure(|| db.checkpoint().unwrap());
            assert_eq!(
                segments_allocated(),
                before,
                "{rows} rows: a segment allocated"
            );
            assert!(
                r.after.largest_bytes < image / 8 && r.after.largest_bytes < 4_096,
                "{rows} rows: a {} byte request, image {image}",
                r.after.largest_bytes
            );
            assert_eq!(r.left_live(), 0, "{rows} rows: steady state holds steady");
            assert!(r.peak_over_start() < 4_096, "{}", r.peak_over_start());
            steady.push(r.allocations());
        }
        images.push(image);
    }
    // Sixteen times the rows, the same allocations.
    assert!(steady.iter().all(|&n| n == steady[0]), "{steady:?}");
    assert!(steady[0] < 200, "{steady:?}");
    // The first checkpoint allocates the segments of sixteen times the
    // bytes, and nothing per row.
    let more_segments = segments(images[1]) - segments(images[0]);
    assert!(
        first[1].allocations() <= first[0].allocations() + more_segments + 4,
        "{} then {}, images {images:?}",
        first[0].allocations(),
        first[1].allocations()
    );
}

#[test]
fn no_checkpoint_of_a_growing_table_asks_for_more_than_a_segment() {
    let _alone = checkpoints_alone();
    let db = loaded(20_000, 4_096);
    let mut next = 20_000;
    // The images so far, oldest first.
    let mut images: Vec<usize> = Vec::new();
    for round in 0..5usize {
        if round >= 2 {
            // About two segments' worth of image: 14 bytes a row.
            let until = next + (2 * RETAINED_MIN / 14) as i32;
            while next < until {
                let rows = (next..until.min(next + 500)).map(row).collect();
                next = until.min(next + 500);
                let insert = Statement::Insert(InsertStmt {
                    table: "t".into(),
                    rows,
                });
                db.query(&insert).run().unwrap();
            }
        }
        let before = segments_allocated();
        let r = measure(|| db.checkpoint().unwrap());
        let image = image_bytes(&db);
        // The free list is the image before last; what this one outgrew of
        // it is new.
        let free = round.checked_sub(2).map_or(0, |k| segments(images[k]));
        let new = segments(image).saturating_sub(free);
        assert_eq!(
            segments_allocated() - before,
            new,
            "checkpoint {}",
            round + 1
        );
        assert!(
            r.after.largest_bytes <= RETAINED_MIN,
            "checkpoint {}: a {} byte request",
            round + 1,
            r.after.largest_bytes
        );
        // Beyond the segments: the catalog entry's clones and frames, the
        // segment list's doubling steps and the log's two records.
        assert!(
            r.allocations() <= new + 50,
            "checkpoint {}: {} allocations for {new} new segments",
            round + 1,
            r.allocations()
        );
        if round >= 2 {
            let growth = (image - images[round - 1]) as i64;
            assert!(growth > RETAINED_MIN as i64, "the table grew");
            assert!(
                r.left_live() <= growth + RETAINED_MIN as i64,
                "checkpoint {}: left {} more live for {growth} more image",
                round + 1,
                r.left_live()
            );
        }
        images.push(image);
    }
}

#[test]
fn crash_in_checkpoint_leaves_the_free_list_for_the_next_one() {
    let _alone = checkpoints_alone();
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
    // Had the crashed checkpoint taken the free list, this one would
    // allocate.
    let next = measure(|| db.checkpoint().unwrap());
    assert!(
        next.after.largest_bytes < image / 8,
        "a {} byte request, image {image}",
        next.after.largest_bytes
    );
}

#[test]
fn secondary_columnstore_build_holds_one_rowgroup_of_uncompressed_values() {
    let _alone = checkpoints_alone();
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

/// FNV-1a of `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    (bytes.iter()).fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The secondary columnstore `dss` builds on `store_sales` — 40 000 rows of
/// one `Int64`, six `Int32` and three `Decimal` columns, one row group —
/// is built from column vectors reserved at its rows and compressed at
/// each column's width, one column's stream of words at a time: it peaks
/// at 2.90 MB over what it found. Vectors grown by doubling to 65 536 rows
/// and every column widened to `i64` words at once peaked at 4.90 MB. The
/// segments are the same bytes either way: 505 181 of them, the rows in
/// arrival order, which is key order (`ss_id` FOR/delta), where the greedy
/// order took 538 499.
#[test]
fn a_store_sales_columnstore_build_holds_its_columns_at_their_width() {
    let _alone = checkpoints_alone();
    let db = Database::new(config(65_536));
    hpd_workloads::tpcds::load(&db, hpd_workloads::tpcds::DsScale::small()).unwrap();
    // Leave room in the log: the record of the build must not double the
    // log's buffer inside the measured region.
    db.checkpoint().unwrap();
    let csi = IndexDescriptor::SecondaryCsi {
        columns: (0..10).collect(),
    };
    let build = measure(|| db.create_index("store_sales", &csi).unwrap());
    let peak = build.peak_over_start();
    assert!(
        peak <= 38 * (1 << 20) / 10,
        "the build peaked {peak} bytes over start, left {}",
        build.left_live()
    );
    // Every segment's encoding, exponent and ends, hashed in column order.
    let hash = db
        .with_table("store_sales", |t| {
            let csi = t.part(0).csis().next().expect("the secondary columnstore");
            assert_eq!(csi.num_rowgroups(), 1);
            let rg = csi.rowgroup(0);
            (0..rg.num_columns()).fold(0xcbf2_9ce4_8422_2325, |h, c| {
                let seg = rg.segment(c);
                let shown = format!(
                    "{:?} {} {:?} {:?}",
                    seg.encoded(),
                    seg.exponent(),
                    seg.min(),
                    seg.max()
                );
                fnv1a(h, shown.as_bytes())
            })
        })
        .unwrap();
    assert_eq!(hash, 0x797e_c119_1d4c_79a8, "segment bytes moved");
}

/// A load into a partitioned table counts each part's rows as it checks
/// them, so every columnstore part's builder reserves its row groups' column
/// vectors at the rows they will hold: no vector is grown past a log segment's size
/// (the most the log's first segment grows to). Builders told nothing grew
/// each row group's vectors by doubling, to 512 KiB a `Decimal` column.
#[test]
fn a_partitioned_load_grows_no_column_vector_past_its_parts_rows() {
    use hpd_workloads::tpch;
    const ROWS: usize = 200_000;
    let db = Database::new(config(65_536));
    // About 50 000 orders: parts of unequal rows, the last more than a row
    // group's.
    let bounds = [10_000, 25_000, 30_000].map(Value::Int32).to_vec();
    let spec = PartitionSpec::range(0, bounds).unwrap();
    let (schema, csi) = (tpch::lineitem_schema(), IndexDescriptor::PrimaryCsi);
    (db.create_partitioned_table("lineitem", schema, vec![0, 1], csi, spec)).unwrap();
    let load = measure(|| (db.load_table_from("lineitem", tpch::lineitem_iter(ROWS, 7))).unwrap());
    let (parts, groups) = db
        .with_table("lineitem", |t| {
            let groups: usize = (0..4).map(|p| t.part_metas(p)[0].rowgroups).sum();
            (
                (0..4).map(|p| t.part(p).row_count()).collect::<Vec<_>>(),
                groups,
            )
        })
        .unwrap();
    assert_eq!(parts.iter().sum::<usize>(), ROWS);
    assert!(
        parts[3] > 65_536 && groups == 5,
        "{parts:?}: {groups} row groups"
    );
    assert!(
        load.largest_growth() <= RETAINED_MIN,
        "a vector grew to {} bytes; parts of {parts:?} rows",
        load.largest_growth()
    );
}

/// A 200 000-row `lineitem` load into one B+ tree part reserves its run at
/// the rows' measured widths (the load's statistics sum each column's
/// encoded bytes) and, its rows arriving in key order, frees the run's sort
/// records before the leaves are allocated: it peaks 15.94 MB over start,
/// under the same load into four parts, whose runs grow from nothing
/// (16.59 MB). A run reserved at the rows' widest encoding (a string at its
/// planning length, a decimal at nine bytes) took the one-part load to
/// 18.66 MB, and four of them filled at once as high; the sort records kept
/// beside the leaves, to 17.54 MB and 16.85 MB.
#[test]
fn a_btree_load_reserves_its_run_at_its_rows_measured_widths() {
    use hpd_workloads::tpch;
    const ROWS: usize = 200_000;
    let peak = |spec: Option<PartitionSpec>| {
        let db = Database::new(config(65_536));
        let schema = tpch::lineitem_schema();
        let btree = IndexDescriptor::PrimaryBTree { keys: vec![0, 1] };
        match spec {
            Some(spec) => db.create_partitioned_table("lineitem", schema, vec![0, 1], btree, spec),
            None => db.create_table("lineitem", schema, vec![0, 1], btree),
        }
        .unwrap();
        let load =
            measure(|| (db.load_table_from("lineitem", tpch::lineitem_iter(ROWS, 7))).unwrap());
        load.peak_over_start()
    };
    let bounds = [10_000, 25_000, 30_000].map(Value::Int32).to_vec();
    let (one, four) = (peak(None), peak(PartitionSpec::range(0, bounds).ok()));
    assert!(
        one <= four && one <= 16_850_000,
        "one part peaked {one} bytes over start, four parts {four}"
    );
}

#[test]
fn a_rowgroup_build_allocates_per_column_and_builds_only_the_winning_encoding() {
    use hpd_columnstore::{IntEncoding, RowGroup};
    use hpd_common::ColumnVector;
    // One unique key column, one of 100 values, one uniform. Sorted by the
    // key, the key's steps fit FOR/delta and the rows store fewer bytes
    // than in the greedy order (the key bit-packed behind the 100 values'
    // runs); every encoding but the winner loses on each column, RLE by a
    // run per row.
    let columns = |rows: i32| {
        let mix = |i: i32| i.wrapping_mul(0x9E37_79B1u32 as i32);
        vec![
            ColumnVector::Int32((0..rows).map(|i| mix(i) >> 1).collect()),
            ColumnVector::Int32((0..rows).map(|i| mix(i).rem_euclid(100)).collect()),
            ColumnVector::Int32((0..rows).map(|i| mix(mix(i)) >> 8).collect()),
        ]
    };
    let alloc = hpd_storage::StorageAllocator::new();
    // The first build registers the build's counters.
    RowGroup::build(columns(64), &[0], &alloc);
    let mut allocations = Vec::new();
    for rows in [8_192, 65_536] {
        let input = columns(rows);
        let (built, region) = alloc::measure(|| RowGroup::build(input, &[0], &alloc));
        assert_eq!(built.segment(0).encoding(), IntEncoding::ForDelta);
        assert_eq!(built.segment(1).encoding(), IntEncoding::BitPacked);
        assert_eq!(built.segment(2).encoding(), IntEncoding::BitPacked);
        allocations.push(region.allocations());
        // The worst moment, beside what the build leaves and the 12-byte
        // input rows it takes over: the key order's sort while the greedy
        // order's permutation is held, two 4-byte permutations and an
        // 8-byte sort key a row, less the ~6 encoded bytes that stay: 10
        // bytes a row. One greedy sort of 16-byte keys peaked at 33,
        // sorting boxed values and measuring RLE and the dictionary by
        // building them at 39.
        let over = region.peak_over_start() - region.left_live() - 12 * i64::from(rows);
        assert!(
            over <= 20 * i64::from(rows),
            "{rows} rows: {over} bytes over what the build leaves"
        );
    }
    // A few per column (its normalized stream, its encoded buffer and that
    // buffer's shared copy) and a handful per row group, whatever its size:
    // 20 with three orders sized (16 with the greedy order alone), where a
    // run vector grown to one run per row, a tree of distinct values and a
    // rehashing set made 628 and 4 558.
    assert_eq!(allocations[0], allocations[1], "{allocations:?}");
    assert!(allocations[0] <= 24, "{allocations:?}");
}

#[test]
fn for_each_walks_every_encoding_in_place() {
    use hpd_columnstore::encoding::encode_as;
    use hpd_columnstore::IntEncoding;
    // 16 wide values in a scrambled order: every encoding can hold them, the
    // dictionary's codes bit-packed; and a sorted stream for RLE-coded codes.
    let scrambled: Vec<i64> = (0..1_000i64).map(|i| (i * 7 % 16) << 40).collect();
    let sorted: Vec<i64> = (0..1_000i64).map(|i| (i / 100) << 40).collect();
    for values in [scrambled, sorted] {
        for enc in [
            IntEncoding::Rle,
            IntEncoding::BitPacked,
            IntEncoding::ForDelta,
            IntEncoding::Dict,
            IntEncoding::Raw,
        ] {
            let encoded = encode_as(&values, enc).expect("feasible");
            assert_eq!(encoded.encoding(), enc);
            let mut seen = Vec::with_capacity(values.len());
            let walk = measure(|| encoded.for_each(|v| seen.push(v)));
            assert_eq!(seen, encoded.decode(), "{enc:?}");
            assert_eq!(seen, values, "{enc:?}");
            assert_eq!(walk.allocations(), 0, "{enc:?}");
        }
    }
    // The counter counts: the assertion above is not vacuous.
    assert_eq!(measure(|| drop(vec![0u8; 64])).allocations(), 1);
}

/// Leaves the B+ tree `descriptor` has over `rows` rows of a table of
/// `arity` columns keyed on its first, whose values of column `c` encode to
/// `width(c)` bytes on average.
fn leaves(
    descriptor: &IndexDescriptor,
    arity: usize,
    rows: usize,
    width: impl Fn(usize) -> f64,
) -> usize {
    let entry = hpd_engine::btree_entry_bytes(descriptor, arity, &[0], width, 0.0);
    hpd_btree::BTreeConfig::default()
        .size_estimate(rows, entry)
        .0
}

/// Bytes of `rows` in a load's record: each row's value count and values.
fn record_bytes<'r>(rows: impl IntoIterator<Item = &'r Row>) -> i64 {
    let row = |r: &Row| {
        hpd_common::codec::varint_len(r.len() as u64)
            + (r.values().iter())
                .map(|v| ValueRef::from(v).encoded_len())
                .sum::<usize>()
    };
    rows.into_iter().map(|r| row(r) as i64).sum()
}

/// Mean bytes column `c` of `rows` encodes to.
fn mean_width(rows: &[Row], c: usize) -> f64 {
    let total: usize = (rows.iter())
        .map(|r| ValueRef::from(&r.values()[c]).encoded_len())
        .sum();
    total as f64 / rows.len() as f64
}

#[test]
fn btree_builds_allocate_per_leaf_not_per_row() {
    let primary = IndexDescriptor::PrimaryBTree { keys: vec![0] };
    let secondary = IndexDescriptor::SecondaryBTree {
        keys: vec![1],
        includes: vec![],
    };
    for rows in [3_000, 48_000] {
        let db = Database::new(config(4_096));
        db.create_table(
            "t",
            schema(),
            vec![0],
            IndexDescriptor::PrimaryBTree { keys: vec![0] },
        )
        .unwrap();
        // Arrival order is not key order: the load has to sort.
        let input: Vec<Row> = (0..rows).map(|i| row((i * 7_919) % rows)).collect();
        let widths: Vec<f64> = (0..4).map(|c| mean_width(&input, c)).collect();
        let load = measure(|| db.load_table("t", input).unwrap());
        let build = measure(|| db.create_index("t", &secondary).unwrap());
        let (primary_leaves, secondary_leaves) = db
            .with_table("t", |t| {
                let part = t.part(0);
                (
                    part.indexes()[0].btree().unwrap().stats().leaf_pages,
                    part.indexes()[1].btree().unwrap().stats().leaf_pages,
                )
            })
            .unwrap();
        // Leaves fill by their entries' bytes: fixed-width (grp, id) entries
        // exactly as the estimate says, (id, grp, val, tag) entries of one
        // or two tag digits within a leaf of it.
        let rows = rows as usize;
        let width = |c: usize| widths[c];
        assert!(primary_leaves.abs_diff(leaves(&primary, 4, rows, width)) <= 1);
        assert_eq!(secondary_leaves, leaves(&secondary, 4, rows, width));
        // Per leaf: its two vectors, its first key (one vector, and one
        // string when the key has one) and that key's copy in the level
        // above. Per build: the log record, the statistics' and the sort's
        // scratch vectors, and the doubling steps of the node arena, the
        // buffer pool's page table and the builder's scratch leaf.
        let budget = |leaves: usize| 120 + 5 * leaves as u64;
        assert!(
            load.allocations() <= budget(primary_leaves),
            "{rows} rows, {primary_leaves} leaves: load made {} allocations",
            load.allocations()
        );
        assert!(
            build.allocations() <= budget(secondary_leaves),
            "{rows} rows, {secondary_leaves} leaves: build made {} allocations",
            build.allocations()
        );
    }
}

#[test]
fn a_lineitem_row_costs_under_eighty_heap_bytes_in_the_primary() {
    // TPC-H `lineitem` as `hpd_workloads::tpch` shapes it: 44 bytes a row
    // (52 with its key again, as `data_bytes` counts an entry).
    let schema = Schema::from_pairs(&[
        ("l_orderkey", DataType::Int32),
        ("l_linenumber", DataType::Int32),
        ("l_quantity", DataType::Decimal),
        ("l_extendedprice", DataType::Decimal),
        ("l_discount", DataType::Decimal),
        ("l_shipdate", DataType::Date),
        ("l_suppkey", DataType::Int32),
        ("l_partkey", DataType::Int32),
    ]);
    const ROWS: i32 = 50_000;
    let pool = hpd_storage::BufferPool::unbounded(hpd_storage::DeviceProfile::ram());
    let tracker = hpd_storage::IoTracker::new();
    let mut table = hpd_engine::Table::create(
        "lineitem",
        schema,
        vec![0, 1],
        &IndexDescriptor::PrimaryBTree { keys: vec![0, 1] },
        config(4_096).csi,
        hpd_storage::StorageAllocator::new(),
    )
    .unwrap();
    // The rows are made and consumed inside the region: what it leaves live
    // is the table.
    let region = measure(|| {
        let mut rows = hpd_engine::EncodedRows::default();
        for i in 0..ROWS {
            rows.push(&[
                Value::Int32(i / 4 + 1),
                Value::Int32(i % 4 + 1),
                Value::Decimal(i64::from(i % 50 + 1) * 10_000),
                Value::Decimal(i64::from(i) * 1_234 + 9_000_000),
                Value::Decimal(i64::from(i % 11) * 100),
                Value::Date(i % 2_500),
                Value::Int32(i % 10_000),
                Value::Int32((i * 31) % 200_000),
            ]);
        }
        table.bulk_load(&rows, &pool, &tracker).unwrap();
    });
    let tree = table.part(0).indexes()[0].btree().unwrap();
    assert_eq!(tree.stats().data_bytes, 52 * ROWS as usize);
    let per_row = region.left_live() as f64 / f64::from(ROWS);
    // An entry is 1 + 10 + 52 bytes (key length, two tagged key values,
    // eight tagged row values) and a 4-byte offset; `Vec<(Key, Row)>` held
    // 288.
    assert!(per_row <= 80.0, "{per_row:.1} heap bytes per row");
    // All of it but the table's statistics is the tree's, and the tree's own
    // account of itself agrees with the allocator's.
    let unaccounted = region.left_live() - tree.heap_bytes() as i64;
    assert!(
        (0..64 << 10).contains(&unaccounted),
        "the tree counts {} of {} live bytes",
        tree.heap_bytes(),
        region.left_live()
    );
}

/// `t(id, grp, val)` under a B+ tree primary with three secondary B+ trees.
/// Fixed-width columns only: a design change refreshes the statistics, which
/// reads every row, and reading a string allocates it.
fn fixed_width(rows: i32, spec: Option<PartitionSpec>) -> Database {
    let db = Database::new(config(4_096));
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int32),
        ("grp", DataType::Int32),
        ("val", DataType::Int64),
    ]);
    let primary = IndexDescriptor::PrimaryBTree { keys: vec![0] };
    match spec {
        Some(spec) => db.create_partitioned_table("t", schema, vec![0], primary, spec),
        None => db.create_table("t", schema, vec![0], primary),
    }
    .unwrap();
    let row = |id: i32| {
        Row::new(vec![
            Value::Int32(id),
            Value::Int32(id % 97),
            Value::Int64(i64::from(id) * 31),
        ])
    };
    db.load_table("t", (0..rows).map(row).collect()).unwrap();
    for secondary in secondaries() {
        db.create_index("t", &secondary).unwrap();
    }
    db
}

fn secondaries() -> [IndexDescriptor; 3] {
    [(vec![1], vec![]), (vec![2], vec![]), (vec![1, 2], vec![0])]
        .map(|(keys, includes)| IndexDescriptor::SecondaryBTree { keys, includes })
}

fn design_of(db: &Database, part: usize) -> Vec<IndexDescriptor> {
    db.with_table("t", |t| {
        t.part_metas(part)
            .into_iter()
            .map(|m| m.descriptor)
            .collect()
    })
    .unwrap()
}

#[test]
fn dropping_a_secondary_allocates_the_same_at_any_row_count() {
    let mut drops = Vec::new();
    for rows in [3_000, 48_000] {
        let db = fixed_width(rows, None);
        let mut design = design_of(&db, 0);
        design.remove(2);
        let drop = measure(|| {
            db.apply_design(&TableDesign::new("t", design.clone()))
                .unwrap()
        });
        assert_eq!(design_of(&db, 0), design);
        drops.push(drop.allocations());
    }
    // The statistics gather one vector a column, whatever its length, and
    // one more entry a block of rows for the clustering fraction; the three
    // indexes that stay are not read, let alone built.
    assert!(
        drops[1] <= drops[0] + 16 && drops[1] < 100,
        "allocations at 3 000 and at 48 000 rows: {drops:?}"
    );
}

#[test]
fn adding_a_secondary_by_apply_design_allocates_what_create_index_does() {
    const ROWS: i32 = 48_000;
    let added = IndexDescriptor::SecondaryBTree {
        keys: vec![2, 1],
        includes: vec![],
    };
    let db = fixed_width(ROWS, None);
    let create = measure(|| db.create_index("t", &added).unwrap());

    let db = fixed_width(ROWS, None);
    let mut design = design_of(&db, 0);
    design.push(added);
    let apply = measure(|| {
        db.apply_design(&TableDesign::new("t", design.clone()))
            .unwrap()
    });
    assert_eq!(design_of(&db, 0), design);
    // Beyond the build: the statistics' vectors and the longer log record.
    assert!(
        apply.allocations() <= create.allocations() + 64,
        "create_index made {} allocations, apply_design {}",
        create.allocations(),
        apply.allocations()
    );
}

#[test]
fn restore_builds_each_partition_once_under_its_own_design() {
    let _alone = checkpoints_alone();
    const ROWS: i32 = 48_000;
    // Part 0 holds no row yet; the others a third of the table each.
    let spec = || PartitionSpec::range(0, [0, 16_000, 32_000].map(Value::Int32).to_vec()).unwrap();
    let recovery = |db: &Database| {
        db.checkpoint().unwrap();
        let durable = db.wal_durable();
        measure(|| drop(Database::recover(config(4_096), durable).unwrap()))
    };
    let uniform = recovery(&fixed_width(ROWS, Some(spec())));

    // The same rows and the same indexes, but no two neighbours alike: the
    // empty part is a columnstore (and, being part 0, the design the image
    // records for the table), and part 2 lists its secondaries in another
    // order.
    let db = fixed_width(ROWS, Some(spec()));
    let [on_grp, on_val, on_both] = secondaries();
    db.apply_partition_design("t", 0, &IndexDescriptor::PrimaryCsi, &[])
        .unwrap();
    let btree = IndexDescriptor::PrimaryBTree { keys: vec![0] };
    db.apply_partition_design("t", 2, &btree, &[on_both, on_val, on_grp])
        .unwrap();
    let own_designs = recovery(&db);

    let per_part = 64;
    assert!(
        own_designs.allocations() <= uniform.allocations() + 4 * per_part,
        "one design: {} allocations, per-partition designs: {}",
        uniform.allocations(),
        own_designs.allocations()
    );
}

/// `t(id, grp, val)` in four range partitions of `rows / 4` ids each: three
/// columnstores and a B+ tree tail, no secondaries.
fn four_parts(rows: i32) -> Database {
    let db = Database::new(config(4_096));
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int32),
        ("grp", DataType::Int32),
        ("val", DataType::Int64),
    ]);
    let bounds = [1, 2, 3].map(|p| Value::Int32(p * (rows / 4)));
    let spec = PartitionSpec::range(0, bounds.to_vec()).unwrap();
    db.create_partitioned_table("t", schema, vec![0], IndexDescriptor::PrimaryCsi, spec)
        .unwrap();
    let btree = IndexDescriptor::PrimaryBTree { keys: vec![0] };
    db.apply_partition_design("t", 3, &btree, &[]).unwrap();
    db
}

#[test]
fn a_partitioned_load_holds_its_record_and_a_rowgroup_and_so_do_its_redo_and_restore() {
    let _alone = checkpoints_alone();
    const ROWS: i32 = 48_000;
    // Arrival order is neither key nor partition order.
    let input = || {
        (0..ROWS).map(|i| (i * 7_919) % ROWS).map(|id| {
            Row::new(vec![
                Value::Int32(id),
                Value::Int32(id % 97),
                Value::Int64(i64::from(id) * 31),
            ])
        })
    };
    // A row in the record: its value count and its values (1 + 2 + 4 bytes
    // mostly); 16 bytes as typed values; 4 096 of those fill a row group.
    let record = record_bytes(&input().collect::<Vec<_>>());
    let typed_table = i64::from(ROWS) * 16;
    let rowgroup = 4_096 * 16;
    // Per row group: its column vectors grown by doubling, then the build's
    // (`a_rowgroup_build_allocates_per_column_...`); per leaf as in
    // `btree_builds_allocate_per_leaf_not_per_row`.
    let btree = IndexDescriptor::PrimaryBTree { keys: vec![0] };
    let tail_rows: Vec<Row> = (input())
        .filter(|r| r.values()[0] >= Value::Int32(3 * ROWS / 4))
        .collect();
    let width = |c: usize| mean_width(&tail_rows, c);
    let (rowgroups, tail_leaves) = (9, leaves(&btree, 3, tail_rows.len(), width));
    let budget = 300 + 80 * rowgroups + 5 * tail_leaves as u64;

    let db = four_parts(ROWS);
    let rows: Vec<Row> = input().collect();
    let load = measure(|| db.load_table("t", rows).unwrap());
    // The record's segments take the room of the rows freed before them
    // (192 bytes over). Reserved whole beside the rows, the record was the
    // worst moment; routing the rows into a vector a partition, encoding them
    // once more for the tail's run and gathering statistics beside them came
    // to twice the record more.
    assert!(
        load.peak_over_start() <= rowgroup,
        "the load peaked {} bytes over the rows it was handed, its record is {record}",
        load.peak_over_start()
    );
    assert!(
        load.allocations() <= budget,
        "the load made {} allocations",
        load.allocations()
    );
    let (groups, tail) = db
        .with_table("t", |t| {
            let groups: usize = (0..3).map(|p| t.part_metas(p)[0].rowgroups).sum();
            (groups, t.part_metas(3)[0].leaf_pages)
        })
        .unwrap();
    assert_eq!(groups, rowgroups as usize);
    assert!(
        tail.abs_diff(tail_leaves) <= 1,
        "{tail} tail leaves, {tail_leaves} estimated"
    );

    // The same rows streamed: nothing is handed over, and beside the record
    // there is the statistics' typed copy of the table, then the builders.
    let streamed = four_parts(ROWS);
    let stream = measure(|| streamed.load_table_from("t", input()).unwrap());
    let held = stream.left_live();
    assert!(
        stream.peak_over_start() <= held.max(record) + typed_table + rowgroup,
        "the streamed load peaked at {}, leaves {held}",
        stream.peak_over_start()
    );

    // Recovery leaves a database (its log, a copy of the one it was handed,
    // included) and frees what it was handed; beside those it holds one
    // decoded record, then the statistics' typed columns or the row groups
    // and the run being filled: no row as `Value`s (200 bytes a row more).
    let recover = |durable| {
        let mut recovered = None;
        let region = measure(|| recovered = Some(Database::recover(config(4_096), durable)));
        let rows = recovered
            .unwrap()
            .unwrap()
            .with_table("t", |t| t.row_count());
        assert_eq!(rows.unwrap(), ROWS as usize);
        region
    };
    let redo = recover(db.wal_durable());
    db.checkpoint().unwrap();
    let restore = recover(db.wal_durable());
    for (what, region) in [("redo", redo), ("restore", restore)] {
        let over = region.peak_over_start() - region.left_live();
        assert!(
            over <= 2 * record + typed_table + 4 * rowgroup,
            "{what} peaked {over} bytes over the database it leaves"
        );
        assert!(
            region.allocations() <= budget + 200,
            "{what} made {} allocations",
            region.allocations()
        );
    }
}

/// A `Vec<Row>`'s rows handed over one at a time, size hint and all, and
/// dropped with the vector once the last is taken — as [`Database::load_table`]
/// hands them on — noting the largest allocation the region had made when
/// the load asked past the last row: by then the record is encoded and no
/// other part of the load has run.
struct NoteEncoding {
    rows: Option<std::vec::IntoIter<Row>>,
    largest: Option<usize>,
}

impl Iterator for NoteEncoding {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        let row = self.rows.as_mut()?.next();
        if row.is_none() {
            self.rows = None;
            self.largest = Some(alloc::stats().largest_bytes);
        }
        row
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.as_ref().map_or((0, Some(0)), Iterator::size_hint)
    }
}

#[test]
fn a_load_encodes_its_record_into_segments_as_it_frees_the_rows() {
    const ROWS: i32 = 48_000;
    let db = Database::new(config(4_096));
    db.create_table("t", schema(), vec![0], IndexDescriptor::PrimaryCsi)
        .unwrap();
    let logged = db.wal_durable().log.len();
    let mut rows = NoteEncoding {
        rows: Some((0..ROWS).map(row).collect::<Vec<_>>().into_iter()),
        largest: None,
    };
    let load = measure(|| db.load_table_from("t", &mut rows).unwrap());
    let record = (db.wal_durable().log.len() - logged) as i64;
    // A row is a value count and its values, and the frame a few bytes more.
    let rows_bytes = record_bytes(&(0..ROWS).map(row).collect::<Vec<_>>());
    assert!(
        (rows_bytes..rows_bytes + 64).contains(&record),
        "{record} logged for {rows_bytes} bytes of rows"
    );
    // No buffer the size of the record: segments, each allocated as the rows
    // before it are freed. One reserved up front for all of them, from a
    // row-width estimate, was 1.9 MB.
    let largest = rows.largest.expect("the load took every row");
    assert!(
        largest <= RETAINED_MIN,
        "a {largest} byte request encoding the rows"
    );
    // So the load holds next to nothing over what it found (210 bytes): the
    // record, reserved beside the rows, put it 1.0 x the record over.
    assert!(
        load.peak_over_start() <= record / 4,
        "the load peaked {} bytes over what it found, its record is {record}",
        load.peak_over_start()
    );

    // Ten rows take a record sized to them, not a segment: a segment for
    // each of the seven tables `dss` loads was 0.2 MB of peak RSS.
    let ten: Vec<Row> = (0..10).map(row).collect();
    let (encoded, ten_rows) = alloc::measure(|| hpd_engine::EncodedRows::from_rows(&ten));
    assert_eq!(encoded.len(), 10);
    assert!(ten_rows.left_live() <= 1_024, "{}", ten_rows.left_live());
    let db = Database::new(config(4_096));
    db.create_table("dim", schema(), vec![0], IndexDescriptor::PrimaryCsi)
        .unwrap();
    // Nor does their load ever hold one: 4.7 KB over what it found, with the
    // table built.
    let load = measure(|| db.load_table("dim", ten).unwrap());
    assert!(
        load.peak_over_start() < (RETAINED_MIN / 8) as i64,
        "ten rows: {} bytes over what the load found",
        load.peak_over_start()
    );
}

/// `rows` rows of `(id, id % groups, 3 * id)` cut into ten batches.
fn fact_batches(rows: i32, groups: i32) -> Vec<hpd_common::Batch> {
    use hpd_common::{Batch, ColumnVector};
    let per = rows / 10;
    (0..10)
        .map(|b| {
            let ids = b * per..(b + 1) * per;
            Batch::new(vec![
                ColumnVector::Int32(ids.clone().collect()),
                ColumnVector::Int32(ids.clone().map(|i| i % groups).collect()),
                ColumnVector::Int64(ids.map(|i| 3 * i64::from(i)).collect()),
            ])
        })
        .collect()
}

const FACT_TYPES: [DataType; 3] = [DataType::Int32, DataType::Int32, DataType::Int64];

#[test]
fn a_hash_join_allocates_per_batch_and_column_not_per_row() {
    use hpd_common::{Batch, ColumnVector};
    use hpd_exec::{collect, ExecCtx, HashJoinOp, JoinSide, ValuesOp};
    let pool = hpd_storage::BufferPool::unbounded(hpd_storage::DeviceProfile::ram());
    let dim = Batch::new(vec![
        ColumnVector::Int32((0..10).collect()),
        ColumnVector::Int64((0..10).map(|i| i * 100).collect()),
    ]);
    let dim_types = vec![DataType::Int32, DataType::Int64];
    // The first join registers the operator's counters.
    let mut allocations = Vec::new();
    for rows in [400, 4_000, 40_000] {
        for side in [JoinSide::Left, JoinSide::Right] {
            let fact = Box::new(ValuesOp::new(FACT_TYPES.to_vec(), fact_batches(rows, 10)));
            let dim = Box::new(ValuesOp::new(dim_types.clone(), vec![dim.clone()]));
            let ctx = ExecCtx::new(&pool);
            // The dimension on the left, as the optimizer orders a star join.
            let mut join = HashJoinOp::new(dim, fact, vec![(0, 1)]).build_on(side);
            let (out, region) = alloc::measure(|| collect(&mut join, &ctx).unwrap());
            let out_rows: usize = out.iter().map(Batch::num_rows).sum();
            assert_eq!(out_rows, rows as usize);
            if side == JoinSide::Right || rows == 400 {
                // Built on the fact rows, or warming up.
                continue;
            }
            allocations.push(region.allocations());
            // What the join hands back — 28 bytes a row — less the nine
            // 16-byte-a-row input batches that died on the way, and at its
            // worst, beside that, one batch's hashes and its two lists of
            // matched rows: 24 bytes a row of a tenth of the input.
            let out_bytes: usize = out.iter().map(Batch::byte_size).sum();
            assert_eq!(out_bytes, 28 * rows as usize);
            let rows = i64::from(rows);
            let over = region.peak_over_start() - (28 * rows - 16 * rows * 9 / 10);
            assert!(
                over <= 24 * rows / 10 + 4_096,
                "{rows} rows: {over} bytes beside the output"
            );
        }
    }
    // Ten times the rows in the same ten batches: the same allocations — a
    // vector per output column and batch, a batch's hashes, the table. One
    // `Row`, one `Key`, their values and the joined row made 4 a row.
    assert_eq!(allocations[0], allocations[1], "{allocations:?}");
    assert!(allocations[0] <= 10 * (5 + 3) + 40, "{allocations:?}");
}

#[test]
fn a_hash_aggregate_allocates_per_batch_and_group_not_per_row() {
    use hpd_common::{AggFunc, Batch};
    use hpd_exec::{collect, AggSpec, ExecCtx, HashAggOp, ValuesOp};
    let pool = hpd_storage::BufferPool::unbounded(hpd_storage::DeviceProfile::ram());
    let mut allocations = Vec::new();
    for rows in [4_000, 40_000] {
        let fact = Box::new(ValuesOp::new(FACT_TYPES.to_vec(), fact_batches(rows, 50)));
        let ctx = ExecCtx::new(&pool);
        let aggs = vec![
            AggSpec::new(AggFunc::Sum, 2),
            AggSpec::new(AggFunc::Count, 0),
        ];
        let mut agg = HashAggOp::new(fact, vec![1], aggs);
        let (out, region) = alloc::measure(|| collect(&mut agg, &ctx).unwrap());
        assert_eq!(out.iter().map(Batch::num_rows).sum::<usize>(), 50);
        allocations.push(region.allocations());
        // One batch's hashes and group ids, 12 bytes a row of a tenth of the
        // input, and fifty groups.
        assert!(
            region.peak_over_start() <= 12 * i64::from(rows) / 10 + 8_192,
            "{rows} rows: {} bytes",
            region.peak_over_start()
        );
    }
    // A batch's hashes, its group ids and the list of its new groups; the
    // group table's, key columns' and state vectors' doubling steps.
    assert_eq!(allocations[0], allocations[1], "{allocations:?}");
    assert!(allocations[0] <= 10 * 3 + 60, "{allocations:?}");
}

#[test]
fn a_row_of_n_values_is_one_allocation_of_16_n_bytes() {
    for n in [1, 3, 8] {
        let ints = || (0..n).map(Value::Int32).collect::<Vec<_>>();
        let (row, made) = alloc::measure(|| Row::new(ints()));
        let (key, keyed) = alloc::measure(|| hpd_common::Key::new(ints()));
        let (copy, cloned) = alloc::measure(|| row.clone());
        for (what, r) in [("row", made), ("key", keyed), ("clone", cloned)] {
            assert_eq!(r.allocations(), 1, "{what} of {n}");
            assert_eq!(r.left_live(), 16 * i64::from(n), "{what} of {n}");
            assert_eq!(r.after.largest_bytes, 16 * n as usize, "{what} of {n}");
        }
        assert_eq!((copy.len(), key.len()), (n as usize, n as usize));
    }
}

#[test]
fn cloning_a_string_value_allocates_nothing() {
    let v = Value::str("a string longer than any inline form");
    let (copy, cloned) = alloc::measure(|| v.clone());
    assert_eq!(cloned.allocations(), 0);
    assert_eq!(cloned.left_live(), 0);
    assert_eq!(copy, v);
    // A row of strings: its one slice, the strings shared.
    let row = Row::new(vec![v.clone(), v.clone(), Value::Int32(1)]);
    let (_, cloned) = alloc::measure(|| row.clone());
    assert_eq!((cloned.allocations(), cloned.left_live()), (1, 3 * 16));
}

#[test]
fn to_value_of_a_borrowed_string_is_one_allocation() {
    let text = "borrowed from a leaf's bytes";
    let (v, made) = alloc::measure(|| hpd_common::ValueRef::Str(text).to_value());
    assert_eq!(made.allocations(), 1);
    // A count, a length and the bytes.
    assert_eq!(made.left_live(), 16 + text.len() as i64);
    assert_eq!(v.as_str(), Some(text));
}

#[test]
fn for_each_row_over_a_btree_primary_allocates_the_same_at_any_row_count() {
    let mut walks = Vec::new();
    for rows in [4_800, 48_000] {
        let db = fixed_width(rows, None);
        let tracker = hpd_storage::IoTracker::new();
        let mut seen = 0;
        let walk = db
            .with_table("t", |t| {
                measure(|| t.for_each_row(db.pool(), &tracker, &mut |_| seen += 1))
            })
            .unwrap();
        assert_eq!(seen, rows);
        walks.push(walk.allocations());
    }
    // One scratch key and one scratch row, refilled in place: their first
    // fill, and nothing per row.
    assert_eq!(walks[0], walks[1], "{walks:?}");
    assert!(walks[0] <= 8, "{walks:?}");
}

/// `dim(id, cat)` of ten rows on a B+ tree and `fact(id, dim_id, amount)`
/// of `rows` rows in a columnstore primary of ten row groups, and the star
/// join summing `amount` by `cat`.
fn star(rows: i32, rowgroup_capacity: usize) -> (Database, Statement) {
    use hpd_engine::{AggItem, ColRef, EquiJoin, SelectQuery, TableInput};
    let db = Database::new(config(rowgroup_capacity));
    let ints = |names: &[&str]| {
        Schema::from_pairs(
            &names
                .iter()
                .map(|&n| (n, DataType::Int32))
                .collect::<Vec<_>>(),
        )
    };
    let row = |vals: [i32; 3]| Row::new(vals.iter().map(|&v| Value::Int32(v)).collect());
    let dim = ints(&["id", "cat", "pad"]);
    (db.create_table(
        "dim",
        dim,
        vec![0],
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
    ))
    .unwrap();
    let fact = ints(&["id", "dim_id", "amount"]);
    (db.create_table("fact", fact, vec![0], IndexDescriptor::PrimaryCsi)).unwrap();
    db.load_table("dim", (0..10).map(|i| row([i, i % 3, 0])).collect())
        .unwrap();
    db.load_table("fact", (0..rows).map(|i| row([i, i % 10, 1])).collect())
        .unwrap();
    let q = SelectQuery {
        tables: vec![TableInput::new("fact"), TableInput::new("dim")],
        joins: vec![EquiJoin {
            left: ColRef::new(0, 1),
            right: ColRef::new(1, 0),
        }],
        group_by: vec![ColRef::new(1, 1)],
        aggregates: vec![AggItem::column(hpd_common::AggFunc::Sum, ColRef::new(0, 2))],
        ..Default::default()
    };
    (db, Statement::Select(q))
}

#[test]
fn a_star_join_through_the_engine_allocates_per_batch_and_column_not_per_row() {
    let mut allocations = Vec::new();
    for rows in [4_000, 40_000] {
        let (db, stmt) = star(rows, rows as usize / 10);
        let plan = match &stmt {
            Statement::Select(q) => db.plan(q).unwrap(),
            _ => unreachable!(),
        };
        // The Project above the join runs in batch mode: the join reads a
        // columnstore.
        let shape: Vec<String> = (plan.root.walk())
            .map(|(_, n)| n.describe(&plan.tables))
            .collect();
        assert_eq!(
            shape[..3],
            ["HashAgg groups=1 aggs=1", "Project", "HashJoin keys=1"],
            "{}",
            plan.explain()
        );
        // The first run decodes and caches the segments.
        db.query(&stmt).run().unwrap();
        let (run, region) = alloc::measure(|| db.query(&stmt).run().unwrap());
        assert_eq!(run.rows.len(), 3);
        let io = run.metrics.io;
        assert_eq!(io.counted(hpd_storage::Work::BatchModeRows), rows as u64);
        assert_eq!(io.counted(hpd_storage::Work::RowModeRows), 0);
        allocations.push(region.allocations());
    }
    // Ten times the rows in the same ten row groups: the same allocations.
    // A row-mode Project made a `Row` of the joined columns and one of its
    // output for each of them.
    assert_eq!(allocations[0], allocations[1], "{allocations:?}");
}

#[test]
fn a_star_join_holds_a_few_batches_whatever_the_fact_rows() {
    let mut peaks = Vec::new();
    for rows in [40_000, 400_000] {
        // One row group of 40 000 rows; six of 65 536 and one of 6 784.
        let (db, stmt) = star(rows, 65_536);
        // The first run decodes and caches the segments.
        db.query(&stmt).run().unwrap();
        let (run, region) = alloc::measure(|| db.query(&stmt).run().unwrap());
        assert_eq!(run.rows.len(), 3);
        peaks.push(region.peak_over_start());
    }
    // A scan batch's vectors: 4 096 rows of the two fact columns read, and
    // of the joined batch's five columns — 28 bytes a row. A join that held
    // its output, or a scan that copied whole row groups, grows with the
    // rows: 2.9 MB more at 400 000.
    let batch = hpd_columnstore::SCAN_BATCH_ROWS as i64 * 28;
    assert!(
        (peaks[1] - peaks[0]).abs() <= batch,
        "peak over start at 40 000 and 400 000 fact rows: {peaks:?}"
    );
}

#[test]
fn a_hash_join_stopped_after_its_first_batch_gives_back_its_grant_and_files() {
    use hpd_common::{Batch, ColumnVector};
    use hpd_exec::{ExecCtx, HashJoinOp, JoinSide, Operator, ValuesOp};
    let pool = hpd_storage::BufferPool::unbounded(hpd_storage::DeviceProfile::ram());
    // Five of the ten dimension rows fit (12 bytes and 48 of overhead
    // each); the rest, and the fact rows that meet them, spill.
    let grant = 5 * (12 + 48);
    let join = || {
        let dim = Batch::new(vec![
            ColumnVector::Int32((0..10).collect()),
            ColumnVector::Int64((0..10).map(|i| i * 100).collect()),
        ]);
        let dim = Box::new(ValuesOp::new(
            vec![DataType::Int32, DataType::Int64],
            vec![dim],
        ));
        let fact = Box::new(ValuesOp::new(FACT_TYPES.to_vec(), fact_batches(4_000, 10)));
        HashJoinOp::new(dim, fact, vec![(0, 1)]).build_on(JoinSide::Left)
    };
    // A `LIMIT` takes the first batch and drops the rest of the plan.
    let ctx = ExecCtx::with_grant(&pool, grant);
    let mut stopped = join();
    let first = stopped.next(&ctx).unwrap().expect("a first batch");
    assert!(first.num_rows() > 0);
    assert_eq!(ctx.grant.used_bytes(), grant);
    assert!(ctx.spill.live_files() > 0);
    drop(stopped);
    assert_eq!(ctx.grant.used_bytes(), 0);
    assert_eq!(ctx.spill.live_files(), 0);
    // A spill write that fails while building ends the query with an error;
    // dropping the join gives back what the build had reserved.
    let ctx = ExecCtx::with_grant(&pool, grant);
    let mut failed = join();
    faults::arm(faults::sites::SPILL_WRITE_FAIL, 1);
    let err = failed.next(&ctx).map(|_| ());
    faults::clear_all();
    assert!(err.is_err(), "{err:?}");
    drop(failed);
    assert_eq!(ctx.grant.used_bytes(), 0);
    assert_eq!(ctx.spill.live_files(), 0);
}

#[test]
fn a_row_mode_project_builds_a_row_of_only_the_columns_it_reads() {
    use hpd_common::{Batch, BinOp, ColumnVector, Expr};
    use hpd_exec::{collect, ExecCtx, Mode, ProjectOp, ValuesOp};
    let pool = hpd_storage::BufferPool::unbounded(hpd_storage::DeviceProfile::ram());
    let types = vec![DataType::Int64; 10];
    for rows in [4_000, 40_000] {
        let per = rows / 10;
        let batches = (0..10)
            .map(|b| {
                let col =
                    |c: i64| ColumnVector::Int64((0..per).map(|i| (b * per + i) * c).collect());
                Batch::new((1..=10).map(col).collect())
            })
            .collect();
        let input = Box::new(ValuesOp::new(types.clone(), batches));
        // Two expressions over 2 of the 10 columns.
        let exprs = vec![
            Expr::arith(BinOp::Add, Expr::col(3), Expr::col(7)),
            Expr::col(3),
        ];
        let mut project = ProjectOp::new(input, exprs, vec![DataType::Int64; 2], Mode::Row);
        let ctx = ExecCtx::new(&pool);
        let (out, region) = alloc::measure(|| collect(&mut project, &ctx).unwrap());
        let sums: i64 = out
            .iter()
            .map(|b| b.column(0).value(0).as_i64().unwrap())
            .sum();
        assert_eq!(sums, (0..10).map(|b| b * per * 12).sum::<i64>());
        let rows = rows as u64;
        // A row of the 2 values read (16 bytes each) per input row, and 8
        // bytes a row of each of the 2 output columns. A row of all 10 input
        // values would be 160 bytes a row.
        assert!(
            region.allocated_bytes() <= rows * (2 * 16 + 2 * 8) + 4_096,
            "{rows} rows: {} bytes",
            region.allocated_bytes()
        );
        assert!(region.allocations() <= rows + 100, "{region:?}");
    }
}
