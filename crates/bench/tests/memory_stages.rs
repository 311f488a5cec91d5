//! Where the memory goes: live bytes, peak live bytes and allocation counts
//! per set-up stage, from a counting global allocator — no clock, no RSS, so
//! the numbers repeat exactly and a copy of the table that a stage makes and
//! drops shows as its peak. One test a table (`--nocapture` prints its
//! stages): TPC-H `lineitem` 200 k rows with a secondary B+ tree and
//! columnstore (`htap`), `micro` 400 k rows with a secondary columnstore, and
//! `micro_part`, the same rows in 8 range partitions of columnstore history
//! and a B+ tree tail (`scan_hot`). Stages: bulk load, each index build,
//! three checkpoints of the unchanged table, 50 rounds of statements. A
//! load's rows are generated before it, so they are what it finds live.
//!
//! The rules (`complaints`): a load is held to its `BulkLoad` log record,
//! not to the rows it was handed, which shrink when a `Value` does — to a
//! quarter of it into columnstore primaries, whose record is encoded into
//! the log's segments as the rows are freed; any other stage to what it
//! found and leaves; a checkpoint to its image, leaving at most the image
//! and a segment more live (one grown by doubling left twice itself), and
//! the third of an unchanged table no more than the second, as it writes
//! into the segments the second retired; a B+ tree to its entries' logical
//! bytes. The last four tests hold the rules to what earlier versions
//! printed.

use std::sync::OnceLock;

use hpd_bench::common::render_table;
use hpd_btree::BTree;
use hpd_common::{CmpOp, Expr, Row, Value};
use hpd_engine::{
    Database, DbConfig, DeleteStmt, IndexDescriptor, InsertStmt, PartitionSpec, SelectQuery,
    Statement,
};
use hpd_obs::alloc::{self, CountingAlloc};
use hpd_wal::RETAINED_MIN;
use hpd_workloads::micro::{MicroTable, DOMAIN};
use hpd_workloads::tpch::{self, col, SHIPDATE_DAYS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A load may hold, over what it found, this multiple of its log record.
const LOAD_OVER_RECORD: f64 = 1.5;
/// A load handed its rows may hold, over what it found, this multiple of its
/// log record when every primary it builds is a columnstore.
const CSI_LOAD_OVER_RECORD: f64 = 0.25;
/// Any other stage but a checkpoint may hold, at its worst moment, this
/// multiple of the larger of what it found live and what it leaves live.
const PEAK_OVER_HELD: f64 = 1.35;
/// A checkpoint may hold, over what it found, this multiple of its image.
const CHECKPOINT_OVER_IMAGE: f64 = 1.2;
/// A B+ tree's heap bytes may be this multiple of its entries' logical bytes.
const BTREE_HEAP_OVER_DATA: f64 = 2.0;
/// Rounds in the last stage (its name says so too).
const ROUNDS: usize = 50;

const MB: f64 = (1 << 20) as f64;

#[derive(Clone, Copy)]
struct Stage {
    name: &'static str,
    live_before: i64,
    live_after: i64,
    peak_live: i64,
    allocations: u64,
    /// The index the stage built.
    index: IndexBytes,
    /// What the stage's peak is held to.
    yardstick: Yardstick,
}

/// Heap bytes and logical entry bytes per table row of an index: logical
/// bytes only for a B+ tree, and a columnstore's heap bytes are what its
/// build left live.
type IndexBytes = Option<(f64, Option<f64>)>;

#[derive(Clone, Copy)]
enum Yardstick {
    /// What the stage found live and what it left: [`PEAK_OVER_HELD`].
    Held,
    /// A load's log record: [`LOAD_OVER_RECORD`].
    Record(u64),
    /// A load's log record, all primaries columnstores: [`CSI_LOAD_OVER_RECORD`].
    CsiRecord(u64),
    /// The checkpoint's image: [`CHECKPOINT_OVER_IMAGE`].
    Image(usize),
}

impl Stage {
    fn over_found(&self) -> i64 {
        self.peak_live - self.live_before
    }

    /// The bytes the stage is held to and what they are, its ratio to them
    /// (of its peak, or of its peak over what it found) and its limit.
    fn gate(&self) -> (i64, &'static str, f64, f64) {
        let against = |bytes: u64, what, limit| {
            let ratio = self.over_found() as f64 / bytes as f64;
            (bytes as i64, what, ratio, limit)
        };
        match self.yardstick {
            Yardstick::Held => {
                let held = self.live_before.max(self.live_after);
                let ratio = self.peak_live as f64 / held as f64;
                (held, "held", ratio, PEAK_OVER_HELD)
            }
            Yardstick::Record(bytes) => against(bytes, "record", LOAD_OVER_RECORD),
            Yardstick::CsiRecord(bytes) => against(bytes, "record", CSI_LOAD_OVER_RECORD),
            Yardstick::Image(bytes) => against(bytes as u64, "image", CHECKPOINT_OVER_IMAGE),
        }
    }
}

fn mb(bytes: i64) -> String {
    format!("{:.1}", bytes as f64 / MB)
}

/// The rules in the module docs, applied to one table's stages.
fn complaints(table: &str, stages: &[Stage]) -> Vec<String> {
    let mut problems = Vec::new();
    for s in stages {
        let (name, (bytes, what, ratio, limit)) = (s.name, s.gate());
        let (held, peak, over) = (mb(bytes), mb(s.peak_live), mb(s.over_found()));
        if ratio > limit {
            problems.push(match s.yardstick {
                Yardstick::Held => format!(
                    "{table}: stage `{name}` peaked at {peak} MB, over {limit} x the {held} MB \
                     it held"
                ),
                _ => format!(
                    "{table}: `{name}` held {over} MB over what it found, over {limit} x its \
                     {held} MB {what}"
                ),
            });
        }
        let left = s.live_after - s.live_before;
        if let Yardstick::Image(image) = s.yardstick {
            if left > (image + RETAINED_MIN) as i64 {
                let (left, image) = (mb(left), mb(image as i64));
                problems.push(format!(
                    "{table}: `{name}` left {left} MB more live, over its {image} MB image and \
                     a segment"
                ));
            }
        }
        if let Some((heap, Some(data))) = s.index {
            if heap > BTREE_HEAP_OVER_DATA * data {
                problems.push(format!(
                    "{table}: the B+ tree of `{name}` weighs {heap:.1} B/row on the heap, over \
                     {BTREE_HEAP_OVER_DATA} x its {data:.1} B/row of entries"
                ));
            }
        }
    }
    let live_after = |name: &str| stages.iter().find(|s| s.name == name).map(|s| s.live_after);
    if let (Some(second), Some(third)) = (live_after("checkpoint 2"), live_after("checkpoint 3")) {
        if third > second {
            problems.push(format!(
                "{table}: live bytes grew from {second} to {third} between checkpoint 2 and 3 \
                 of an unchanged table"
            ));
        }
    }
    problems
}

/// Prints the table's stages and fails on any complaint.
fn check(table: &str, stages: &[Stage]) {
    let per_row = |v: Option<f64>| v.map_or("-".into(), |v| format!("{v:.1}"));
    let rows: Vec<Vec<String>> = (stages.iter())
        .map(|s| {
            let (bytes, what, ratio, limit) = s.gate();
            vec![
                s.name.to_string(),
                mb(s.live_before),
                mb(s.live_after),
                mb(s.peak_live),
                mb(s.over_found()),
                format!("{} {what}", mb(bytes)),
                format!("{ratio:.2} ({limit})"),
                s.allocations.to_string(),
                per_row(s.index.map(|(heap, _)| heap)),
                per_row(s.index.and_then(|(_, data)| data)),
            ]
        })
        .collect();
    let headers: Vec<&str> = "stage|live before MB|live after MB|peak live MB|peak over found MB|\
                              held to MB|ratio (max)|allocations|heap B/row|data B/row"
        .split('|')
        .collect();
    println!("== {table} ==\n{}", render_table(&headers, &rows));
    let problems = complaints(table, stages);
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

/// The three tables' stages, measured once, in order, on a thread of their
/// own. A process-wide metric allocates where it is first used, so this
/// keeps those bytes in the same stage whichever test asks first.
fn tables() -> &'static [Vec<Stage>; 3] {
    static TABLES: OnceLock<[Vec<Stage>; 3]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let tables = std::thread::spawn(|| [lineitem(), micro(), micro_part()]).join();
        tables.expect("every stage runs")
    })
}

/// Runs `f` as the next stage, held to what it found and what it leaves
/// unless the caller names another yardstick.
fn stage<'s>(stages: &'s mut Vec<Stage>, name: &'static str, f: impl FnOnce()) -> &'s mut Stage {
    let ((), region) = alloc::measure(f);
    stages.push(Stage {
        name,
        live_before: region.before.live_bytes,
        live_after: region.after.live_bytes,
        peak_live: region.after.peak_live_bytes,
        allocations: region.allocations(),
        index: None,
        yardstick: Yardstick::Held,
    });
    stages.last_mut().expect("just pushed")
}

/// The bytes of this database's log: a load is held to what it appends (a
/// process-wide counter would count every database's records).
fn log_bytes(db: &Database) -> u64 {
    db.wal_durable().log.len() as u64
}

/// Heap and logical entry bytes per entry of the B+ tree at `index` of
/// `table`'s part `part` (one entry a row).
fn btree_bytes(db: &Database, table: &str, part: usize, index: usize) -> IndexBytes {
    db.with_table(table, |t| {
        let tree: &BTree = t.part(part).indexes()[index].btree().expect("B+ tree");
        let per_row = |bytes: usize| bytes as f64 / tree.len() as f64;
        let (heap, data) = (tree.heap_bytes(), tree.stats().data_bytes);
        Some((per_row(heap), Some(per_row(data))))
    })
    .expect("table exists")
}

fn checkpoints(stages: &mut Vec<Stage>, db: &Database) {
    for name in ["checkpoint 1", "checkpoint 2", "checkpoint 3"] {
        let s = stage(stages, name, || db.checkpoint().expect("checkpoint"));
        let image = db.wal_durable().checkpoint.expect("image installed");
        s.yardstick = Yardstick::Image(image.len());
    }
}

fn database() -> Database {
    Database::new(DbConfig {
        // Everything on this thread: the allocator counts per thread.
        max_dop: 1,
        worker_threads: 0,
        ..DbConfig::default()
    })
}

fn run(db: &Database, stmt: &Statement) {
    db.query(stmt).run().expect("statement runs");
}

fn lineitem_key_eq(orderkey: i32) -> Expr {
    Expr::and(vec![
        Expr::col_cmp(col::L_ORDERKEY, CmpOp::Eq, Value::Int32(orderkey)),
        Expr::col_cmp(col::L_LINENUMBER, CmpOp::Eq, Value::Int32(1)),
    ])
}

/// One `htap`-shaped round: 120 point selects, 30 inserts, 28 ten-row
/// updates by ship date, 8 deletes of rows this run inserted, 10 five-order
/// range selects and 4 analytic sums over 1 % of the ship dates, then one
/// maintenance increment. `own` is the run's inserted keys not yet deleted.
fn htap_round(db: &Database, rng: &mut StdRng, orders: i32, own: &mut std::ops::Range<i32>) {
    let select = |predicate, columns: &[usize]| {
        let q = SelectQuery::single_table("lineitem", Some(predicate), columns.to_vec());
        run(db, &Statement::Select(q));
    };
    for i in 0..120 {
        let k = rng.gen_range(1..=orders);
        select(lineitem_key_eq(k), &[col::L_QUANTITY, col::L_EXTENDEDPRICE]);
        if i % 4 == 0 {
            let row = Row::new(vec![
                Value::Int32(own.end),
                Value::Int32(1),
                Value::Decimal(rng.gen_range(1..=50i64) * 10_000),
                Value::Decimal(rng.gen_range(900..=104_900i64) * 10_000),
                Value::Decimal(0),
                Value::Date(rng.gen_range(SHIPDATE_DAYS / 2..SHIPDATE_DAYS)),
                Value::Int32(rng.gen_range(0..10_000)),
                Value::Int32(rng.gen_range(0..200_000)),
            ]);
            own.end += 1;
            let (table, rows) = ("lineitem".into(), vec![row]);
            run(db, &Statement::Insert(InsertStmt { table, rows }));
        }
        if i % 4 == 1 && i < 112 {
            let update = tpch::q4_update(10, rng.gen_range(0..SHIPDATE_DAYS / 2));
            run(db, &update);
        }
        if i % 15 == 2 {
            let (table, predicate) = ("lineitem".into(), lineitem_key_eq(own.start));
            let delete = DeleteStmt {
                table,
                predicate,
                top: None,
            };
            run(db, &Statement::Delete(delete));
            own.start += 1;
        }
        if i % 12 == 3 {
            let k = rng.gen_range(1..=orders - 4);
            let range = Expr::between(col::L_ORDERKEY, Value::Int32(k), Value::Int32(k + 4));
            let columns = [col::L_ORDERKEY, col::L_LINENUMBER, col::L_QUANTITY];
            select(range, &columns);
        }
        if i % 30 == 4 {
            let from = rng.gen_range(0..SHIPDATE_DAYS - SHIPDATE_DAYS / 100);
            let sum = tpch::q5_scan_range(from, from + SHIPDATE_DAYS / 100 - 1);
            run(db, &sum);
        }
    }
    db.maintenance("lineitem")
        .budget_rows(4096)
        .run()
        .expect("maintenance increment");
}

fn lineitem() -> Vec<Stage> {
    const ROWS: usize = 200_000;
    let (db, mut stages) = (database(), Vec::with_capacity(16));
    let pk = vec![col::L_ORDERKEY, col::L_LINENUMBER];
    let primary = IndexDescriptor::PrimaryBTree { keys: pk.clone() };
    db.create_table("lineitem", tpch::lineitem_schema(), pk, primary)
        .expect("create lineitem");
    let rows = tpch::lineitem_rows(ROWS, 1);
    let Value::Int32(orders) = rows.last().expect("rows")[col::L_ORDERKEY] else {
        panic!("orderkey")
    };
    let logged = log_bytes(&db);
    let s = stage(&mut stages, "load 200k rows", || {
        db.load_table("lineitem", rows).expect("load")
    });
    s.yardstick = Yardstick::Record(log_bytes(&db) - logged);
    stages[0].index = btree_bytes(&db, "lineitem", 0, 0);
    stage(&mut stages, "secondary B+ tree", || {
        let (keys, includes) = (vec![col::L_SHIPDATE], vec![]);
        let index = IndexDescriptor::SecondaryBTree { keys, includes };
        db.create_index("lineitem", &index)
            .expect("secondary B+ tree")
    });
    stages[1].index = btree_bytes(&db, "lineitem", 0, 1);
    let s = stage(&mut stages, "secondary CSI", || {
        let columns = (0..tpch::lineitem_schema().len()).collect();
        let index = IndexDescriptor::SecondaryCsi { columns };
        db.create_index("lineitem", &index).expect("secondary CSI")
    });
    s.index = Some(((s.live_after - s.live_before) as f64 / ROWS as f64, None));
    checkpoints(&mut stages, &db);
    let mut rng = StdRng::seed_from_u64(1);
    let mut own = orders + 1..orders + 1;
    stage(&mut stages, "50 htap rounds", || {
        for _ in 0..ROUNDS {
            htap_round(&db, &mut rng, orders, &mut own);
        }
    });
    stages
}

/// The last stage of both `micro` tables: [`ROUNDS`] rounds of Q1 at five
/// selectivities.
fn scan_rounds(stages: &mut Vec<Stage>, db: &Database, micro: &MicroTable) {
    stage(stages, "50 scan rounds", || {
        for _ in 0..ROUNDS {
            for selectivity in [0.00001, 0.001, 0.01, 0.1, 0.5] {
                run(db, &Statement::Select(micro.q1(selectivity)));
            }
        }
    });
}

fn micro() -> Vec<Stage> {
    const ROWS: usize = 400_000;
    let (db, mut stages) = (database(), Vec::with_capacity(16));
    let micro = MicroTable::new("micro", 3, ROWS);
    let primary = IndexDescriptor::PrimaryBTree { keys: vec![0] };
    db.create_table("micro", micro.schema(), vec![0], primary)
        .expect("create micro");
    let (rows, logged) = (micro.rows(), log_bytes(&db));
    let s = stage(&mut stages, "load 400k rows", || {
        db.load_table("micro", rows).expect("load")
    });
    s.yardstick = Yardstick::Record(log_bytes(&db) - logged);
    stages[0].index = btree_bytes(&db, "micro", 0, 0);
    let s = stage(&mut stages, "secondary CSI", || {
        let columns = vec![0, 1, 2];
        let index = IndexDescriptor::SecondaryCsi { columns };
        db.create_index("micro", &index).expect("secondary CSI")
    });
    s.index = Some(((s.live_after - s.live_before) as f64 / ROWS as f64, None));
    checkpoints(&mut stages, &db);
    scan_rounds(&mut stages, &db, &micro);
    stages
}

fn micro_part() -> Vec<Stage> {
    const PARTITIONS: i64 = 8;
    let (db, mut stages) = (database(), Vec::with_capacity(16));
    let micro = MicroTable::new("micro_part", 3, 400_000);
    let bounds = (1..PARTITIONS).map(|p| Value::Int32((p * (DOMAIN / PARTITIONS)) as i32));
    let spec = PartitionSpec::range(0, bounds.collect()).expect("ascending bounds");
    let (schema, primary) = (micro.schema(), IndexDescriptor::PrimaryCsi);
    db.create_partitioned_table("micro_part", schema, vec![0], primary, spec)
        .expect("create micro_part");
    let (rows, logged) = (micro.rows(), log_bytes(&db));
    let s = stage(&mut stages, "load 400k rows", || {
        db.load_table("micro_part", rows).expect("load")
    });
    s.yardstick = Yardstick::CsiRecord(log_bytes(&db) - logged);
    let tail = PARTITIONS as usize - 1;
    stage(&mut stages, "tail to B+ tree", || {
        let btree = IndexDescriptor::PrimaryBTree { keys: vec![0] };
        db.apply_partition_design("micro_part", tail, &btree, &[])
            .expect("tail design")
    });
    stages[1].index = btree_bytes(&db, "micro_part", tail, 0);
    checkpoints(&mut stages, &db);
    scan_rounds(&mut stages, &db, &micro);
    stages
}

#[test]
fn lineitem_200k_holds_every_bound() {
    check("lineitem 200k (htap)", &tables()[0]);
}

#[test]
fn micro_400k_holds_every_bound() {
    check("micro 400k (scan_hot)", &tables()[1]);
}

#[test]
fn micro_part_400k_in_8_partitions_holds_every_bound() {
    check("micro_part 400k in 8 partitions (scan_hot)", &tables()[2]);
}

/// A stage as a run printed it, in MB.
fn printed(name: &'static str, (before, after, peak): (f64, f64, f64), y: Yardstick) -> Stage {
    let bytes = |mb: f64| (mb * MB) as i64;
    Stage {
        name,
        live_before: bytes(before),
        live_after: bytes(after),
        peak_live: bytes(peak),
        allocations: 0,
        index: None,
        yardstick: y,
    }
}

const NO_COMPLAINT: Vec<String> = Vec::new();

/// `lineitem` as the memory profile printed it at PR 18 (commit 01bfb57), in
/// MB, with the input rows of PR 23 (41.3 MB). Heap bytes per row are what
/// those stages left live less the log's share (the 10.7 MB record; the log
/// buffer doubling by as much in the next stage); data bytes are today's.
fn pr18_lineitem() -> Vec<Stage> {
    let record = Yardstick::Record((10.7 * MB) as u64);
    let (held, image) = (Yardstick::Held, Yardstick::Image(11_200_000));
    let per_row = |mb: f64| mb * MB / 200_000.0;
    let mut stages = vec![
        printed("load 200k rows", (41.3, 66.1, 82.1), record),
        printed("secondary B+ tree", (66.1, 104.5, 104.5), held),
        printed("secondary CSI", (104.5, 106.8, 113.9), held),
        printed("checkpoint 1", (106.8, 101.5, 122.8), image),
        printed("checkpoint 2", (101.5, 117.5, 117.5), image),
        printed("checkpoint 3", (117.5, 117.5, 117.5), image),
        printed("50 htap rounds", (117.5, 130.2, 130.6), held),
    ];
    stages[0].index = Some((per_row(66.1 - 10.7), Some(52.0)));
    stages[1].index = Some((per_row(104.5 - 66.1 - 10.7), Some(16.0)));
    stages[2].index = Some((12.0, None));
    stages
}

#[test]
fn the_gate_rejects_the_leaves_of_pr18() {
    let rejected = complaints("lineitem at PR 18", &pr18_lineitem());
    assert_eq!(rejected.len(), 6, "{rejected:?}");
    assert!(rejected[0].contains("`load 200k rows` held 40.8 MB over what it found"));
    assert!(rejected[1].contains("B+ tree of `load 200k rows` weighs 290.5 B/row"));
    assert!(rejected[2].contains("B+ tree of `secondary B+ tree` weighs 145.2 B/row"));
    // And its checkpoints, which doubled their image buffers.
    assert!(rejected[3].contains("`checkpoint 1` held 16.0 MB over what it found"));
    assert!(rejected[4].contains("`checkpoint 2` held 16.0 MB over what it found"));
    assert!(rejected[5].contains("`checkpoint 2` left 16.0 MB more live"));
}

/// `lineitem`'s checkpoints as the memory profile printed them at PR 26
/// (commit 1533ae7), each image encoded into a vector grown by doubling,
/// and as they are with images in recycled segments.
#[test]
fn the_gate_rejects_images_grown_by_doubling() {
    let image = Yardstick::Image((10.7 * MB) as usize);
    let pr26 = [
        printed("checkpoint 1", (31.2, 36.5, 47.2), image),
        printed("checkpoint 2", (36.5, 52.5, 52.5), image),
        printed("checkpoint 3", (52.5, 52.5, 52.5), image),
    ];
    let rejected = complaints("lineitem at PR 26", &pr26);
    assert_eq!(rejected.len(), 3, "{rejected:?}");
    assert!(rejected[0].contains("`checkpoint 1` held 16.0 MB over what it found, over 1.2 x"));
    assert!(rejected[1].contains("`checkpoint 2` held 16.0 MB over what it found, over 1.2 x"));
    let left = "`checkpoint 2` left 16.0 MB more live, over its 10.7 MB image and a segment";
    assert!(rejected[2].contains(left));

    let segmented = [
        printed("checkpoint 1", (31.2, 31.2, 41.9), image),
        printed("checkpoint 2", (31.2, 41.8, 41.8), image),
        printed("checkpoint 3", (41.8, 41.8, 41.8), image),
    ];
    assert_eq!(complaints("lineitem", &segmented), NO_COMPLAINT);
}

/// A load is held to its record, not to the rows it was handed: PR 22's
/// partitioned load (routing vectors, a second encode and the statistics
/// beside the record) fails, and PR 25's `lineitem` load — handed rows
/// of 16-byte values, so it finds less live than its build's peak run
/// and tree — passes, where the rule for other stages would fail it.
#[test]
fn a_load_is_held_to_its_record() {
    let record = Yardstick::Record((7.2 * MB) as u64);
    let pr22 = printed("load 400k rows", (36.6, 11.2, 55.9), record);
    let rejected = complaints("micro_part at PR 22", &[pr22]);
    assert_eq!(rejected.len(), 1, "{rejected:?}");
    assert!(rejected[0].contains("held 19.3 MB over what it found, over 1.5 x its 7.2 MB record"));

    let record = Yardstick::Record((10.7 * MB) as u64);
    let pr25 = printed("load 200k rows", (27.5, 23.9, 39.9), record);
    assert_eq!(complaints("lineitem at PR 25", &[pr25]), NO_COMPLAINT);
    let mut by_held = pr25;
    by_held.yardstick = Yardstick::Held;
    assert_eq!(complaints("lineitem at PR 25", &[by_held]).len(), 1);
}

/// A load into columnstore primaries is held to a quarter of its record:
/// `micro_part`'s load as the memory profile printed it at commit 0c35b8e,
/// its record reserved whole beside the rows, fails; with the record
/// encoded into segments as the rows are freed it holds nothing over what
/// it found and passes. The rule for B+ tree primaries would have passed
/// both.
#[test]
fn a_load_into_columnstores_holds_a_quarter_of_its_record() {
    let record = Yardstick::CsiRecord((7.2 * MB) as u64);
    let reserved = printed("load 400k rows", (24.5, 11.2, 31.7), record);
    let rejected = complaints("micro_part at 0c35b8e", &[reserved]);
    assert_eq!(rejected.len(), 1, "{rejected:?}");
    let over = "held 7.2 MB over what it found, over 0.25 x its 7.2 MB record";
    assert!(rejected[0].contains(over), "{rejected:?}");
    let mut as_btree = reserved;
    as_btree.yardstick = Yardstick::Record((7.2 * MB) as u64);
    assert_eq!(complaints("micro_part", &[as_btree]), NO_COMPLAINT);

    let segmented = printed("load 400k rows", (24.5, 11.2, 24.5), record);
    assert_eq!(complaints("micro_part", &[segmented]), NO_COMPLAINT);
}
