//! Where the memory goes: live bytes, peak live bytes and allocation counts
//! per set-up stage, from a counting global allocator — no clock, no RSS,
//! so the numbers repeat exactly and a copy of a table that one stage makes
//! and drops shows as that stage's peak.
//!
//! Three tables shaped like the benchmark's: TPC-H `lineitem` (200 k rows,
//! B+ tree primary, secondary B+ tree on ship date, secondary columnstore —
//! `htap`), `micro` (400 k rows, B+ tree primary, secondary columnstore) and
//! `micro_part` (the same rows over 8 range partitions, columnstore history
//! and a B+ tree tail — `scan_hot`'s two tables). Stages: bulk load, each
//! index build, three checkpoints of the unchanged table, then 50 rounds of
//! statements. A stage's input (the rows a load is handed) is generated
//! before the stage, so it is part of what the stage finds live, not of
//! what it allocates; "peak over found" is what the stage added to that at
//! its worst moment — for a load, where a copy of the table (rows routed
//! into per-partition vectors, say) shows. (`htap` streams its rows into
//! the load, which then finds nothing live and peaks at record + sort run +
//! tree, 1.7 × what it leaves: the run is the copy a B+ tree build sorts.)
//!
//! The run is also a gate (exit status 1), see [`complaints`]:
//!
//! * a load may hold, over what it found, [`LOAD_OVER_RECORD`] × its
//!   `BulkLoad` log record — the record, reserved up front beside the rows
//!   it is encoded from, then, with the rows freed, the row groups or the
//!   sort run and tree being built; a load that routes its rows into a
//!   vector per partition, or encodes them twice, fails it. (What it was
//!   *handed* is the wrong yardstick: those are the caller's rows, which
//!   shrink when a `Value` does, while the record does not.)
//! * any other stage may not peak above [`PEAK_OVER_HELD`] × the larger of
//!   what it found live and what it leaves — a stage that materialises the
//!   table once more fails it.
//! * a checkpoint may hold, over what it found, [`CHECKPOINT_OVER_IMAGE`] ×
//!   the image it writes — the image's own segments, at most one of them
//!   part-filled, and nothing the size of the table beside it. (The image is
//!   as large as the leaves it copies, so no multiple of the table fits a
//!   checkpoint.)
//! * a checkpoint may leave at most its image and one segment
//!   ([`RETAINED_MIN`]) more live than it found — an image buffer grown by
//!   doubling left up to twice the image;
//! * the third checkpoint of an unchanged table must leave no more live than
//!   the second — the image is written into the segments the previous
//!   checkpoint retired, not into new ones;
//! * a B+ tree may weigh, on the heap, [`BTREE_HEAP_OVER_DATA`] × the
//!   logical bytes of its entries (`BTreeStats::data_bytes`).
//!
//! Which of these reject the tree this one replaced: PR 18's load stage
//! fails the first rule (40.8 MB over found against its 10.7 MB record) and
//! the last one, which alone fails a tree gone back to `Vec<(Key, Row)>`
//! leaves wherever it is built; this file's unit tests apply the gate to the
//! table PR 18's run printed, to PR 22's partitioned load and to PR 26's
//! checkpoints, whose image buffers grew by doubling (`lineitem` checkpoint
//! 2: 16.0 MB left for a 10.7 MB image). The checkpoint rules hold a
//! checkpoint to its image, not to what it found: an 11 MB image beside
//! 42 MB of table is 1.38 by the second rule with nothing copied but the
//! image.

use hpd_bench::common::render_table;
use hpd_btree::BTree;
use hpd_common::{CmpOp, Expr, Row, Value};
use hpd_engine::{
    Database, DbConfig, DeleteStmt, IndexDescriptor, InsertStmt, PartitionSpec, SelectQuery,
    Statement, Table,
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
    /// The index the stage built: heap bytes and logical entry bytes per
    /// table row (logical bytes only for a B+ tree).
    index: Option<(f64, Option<f64>)>,
    /// What the stage's peak is held to.
    yardstick: Yardstick,
}

#[derive(Clone, Copy)]
enum Yardstick {
    /// What the stage found live and what it left: [`PEAK_OVER_HELD`].
    Held,
    /// The bytes of the load's log record: [`LOAD_OVER_RECORD`].
    Record(u64),
    /// The bytes of the checkpoint's image: [`CHECKPOINT_OVER_IMAGE`].
    Image(usize),
}

/// Holds no heap memory of its own that changes between stages: what a stage
/// leaves live is the engine's.
struct Profile {
    stages: Vec<Stage>,
}

impl Profile {
    fn new() -> Profile {
        Profile {
            stages: Vec::with_capacity(16),
        }
    }

    fn stage<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (out, region) = alloc::measure(f);
        self.stages.push(Stage {
            name,
            live_before: region.before.live_bytes,
            live_after: region.after.live_bytes,
            peak_live: region.after.peak_live_bytes,
            allocations: region.allocations(),
            index: None,
            yardstick: Yardstick::Held,
        });
        out
    }

    /// A load stage: `f` appends one log record, which the stage is held to.
    fn load(&mut self, name: &'static str, f: impl FnOnce()) {
        let appended = hpd_obs::global().counter("wal.append.bytes");
        let before = appended.get();
        self.stage(name, f);
        self.last().yardstick = Yardstick::Record(appended.get() - before);
    }

    fn last(&mut self) -> &mut Stage {
        self.stages.last_mut().expect("a stage ran")
    }

    /// The last stage built this B+ tree over `rows` table rows.
    fn built_btree(&mut self, tree: &BTree, rows: usize) {
        let per_row = |bytes: usize| bytes as f64 / rows as f64;
        self.last().index = Some((
            per_row(tree.heap_bytes()),
            Some(per_row(tree.stats().data_bytes)),
        ));
    }

    /// The last stage built a columnstore over `rows` table rows: it is what
    /// the stage left live.
    fn built_csi(&mut self, rows: usize) {
        let s = self.last();
        s.index = Some(((s.live_after - s.live_before) as f64 / rows as f64, None));
    }

    /// Prints the table and returns the gate's complaints.
    fn report(&self, table: &str) -> Vec<String> {
        let mb = |b: i64| format!("{:.1}", b as f64 / MB);
        let rows: Vec<Vec<String>> = self
            .stages
            .iter()
            .map(|s| {
                let per_row = |v: Option<f64>| v.map_or("-".into(), |v| format!("{v:.1}"));
                let (bytes, ratio, limit) = s.gate();
                vec![
                    s.name.to_string(),
                    mb(s.live_before),
                    mb(s.live_after),
                    mb(s.peak_live),
                    mb(s.over_found()),
                    format!("{} {}", mb(bytes), s.yardstick.name()),
                    format!("{ratio:.2} ({limit})"),
                    s.allocations.to_string(),
                    per_row(s.index.map(|(heap, _)| heap)),
                    per_row(s.index.and_then(|(_, data)| data)),
                ]
            })
            .collect();
        println!("== {table} ==");
        print!(
            "{}",
            render_table(
                &[
                    "stage",
                    "live before MB",
                    "live after MB",
                    "peak live MB",
                    "peak over found MB",
                    "held to MB",
                    "ratio (max)",
                    "allocations",
                    "heap B/row",
                    "data B/row",
                ],
                &rows
            )
        );
        complaints(table, &self.stages)
    }
}

impl Yardstick {
    fn name(self) -> &'static str {
        match self {
            Yardstick::Held => "held",
            Yardstick::Record(_) => "record",
            Yardstick::Image(_) => "image",
        }
    }
}

impl Stage {
    fn over_found(&self) -> i64 {
        self.peak_live - self.live_before
    }

    /// The bytes the stage is held to, what it came to against them — its
    /// peak against what it held, or what it held over what it found
    /// against its record or image — and the most it may come to.
    fn gate(&self) -> (i64, f64, f64) {
        let against = |bytes: i64, limit| (bytes, self.over_found() as f64 / bytes as f64, limit);
        match self.yardstick {
            Yardstick::Held => {
                let held = self.live_before.max(self.live_after);
                (held, self.peak_live as f64 / held as f64, PEAK_OVER_HELD)
            }
            Yardstick::Record(bytes) => against(bytes as i64, LOAD_OVER_RECORD),
            Yardstick::Image(bytes) => against(bytes as i64, CHECKPOINT_OVER_IMAGE),
        }
    }
}

/// The gate: every rule in the module docs, applied to one table's stages.
fn complaints(table: &str, stages: &[Stage]) -> Vec<String> {
    let mb = |b: i64| format!("{:.1}", b as f64 / MB);
    let mut problems = Vec::new();
    for s in stages {
        let (bytes, ratio, limit) = s.gate();
        if ratio > limit {
            problems.push(match s.yardstick {
                Yardstick::Held => format!(
                    "{table}: stage `{}` peaked at {} MB, over {limit} x the {} MB it held",
                    s.name,
                    mb(s.peak_live),
                    mb(bytes)
                ),
                what => format!(
                    "{table}: `{}` held {} MB over what it found, over {limit} x its {} MB {}",
                    s.name,
                    mb(s.over_found()),
                    mb(bytes),
                    what.name()
                ),
            });
        }
        if let Yardstick::Image(image) = s.yardstick {
            let left = s.live_after - s.live_before;
            if left > (image + RETAINED_MIN) as i64 {
                problems.push(format!(
                    "{table}: `{}` left {} MB more live, over its {} MB image and a segment",
                    s.name,
                    mb(left),
                    mb(image as i64)
                ));
            }
        }
        if let Some((heap, Some(data))) = s.index {
            if heap > BTREE_HEAP_OVER_DATA * data {
                problems.push(format!(
                    "{table}: the B+ tree of `{}` weighs {heap:.1} B/row on the heap, over \
                     {BTREE_HEAP_OVER_DATA} x its {data:.1} B/row of entries",
                    s.name
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

fn config() -> DbConfig {
    DbConfig {
        // Everything on this thread: the allocator counts per thread.
        max_dop: 1,
        worker_threads: 0,
        ..DbConfig::default()
    }
}

fn run(db: &Database, stmt: &Statement) {
    db.query(stmt).run().expect("statement runs");
}

fn checkpoints(p: &mut Profile, db: &Database) {
    for name in ["checkpoint 1", "checkpoint 2", "checkpoint 3"] {
        p.stage(name, || db.checkpoint().expect("checkpoint"));
        let image = db.wal_durable().checkpoint.expect("image installed");
        p.last().yardstick = Yardstick::Image(image.len());
    }
}

/// Run `f` on the named table's only part's primary B+ tree.
fn with_primary<R>(db: &Database, table: &str, f: impl FnOnce(&BTree) -> R) -> R {
    db.with_table(table, |t: &Table| {
        f(t.part(0).indexes()[0].btree().expect("B+ tree primary"))
    })
    .expect("table exists")
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
    for i in 0..120 {
        let k = rng.gen_range(1..=orders);
        run(
            db,
            &Statement::Select(SelectQuery::single_table(
                "lineitem",
                Some(lineitem_key_eq(k)),
                vec![col::L_QUANTITY, col::L_EXTENDEDPRICE],
            )),
        );
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
            run(
                db,
                &Statement::Insert(InsertStmt {
                    table: "lineitem".into(),
                    rows: vec![row],
                }),
            );
        }
        if i % 4 == 1 && i < 112 {
            run(
                db,
                &tpch::q4_update(10, rng.gen_range(0..SHIPDATE_DAYS / 2)),
            );
        }
        if i % 15 == 2 {
            run(
                db,
                &Statement::Delete(DeleteStmt {
                    table: "lineitem".into(),
                    predicate: lineitem_key_eq(own.start),
                    top: None,
                }),
            );
            own.start += 1;
        }
        if i % 12 == 3 {
            let k = rng.gen_range(1..=orders - 4);
            run(
                db,
                &Statement::Select(SelectQuery::single_table(
                    "lineitem",
                    Some(Expr::between(
                        col::L_ORDERKEY,
                        Value::Int32(k),
                        Value::Int32(k + 4),
                    )),
                    vec![col::L_ORDERKEY, col::L_LINENUMBER, col::L_QUANTITY],
                )),
            );
        }
        if i % 30 == 4 {
            let from = rng.gen_range(0..SHIPDATE_DAYS - SHIPDATE_DAYS / 100);
            run(
                db,
                &tpch::q5_scan_range(from, from + SHIPDATE_DAYS / 100 - 1),
            );
        }
    }
    db.maintenance("lineitem")
        .budget_rows(4096)
        .run()
        .expect("maintenance increment");
}

fn profile_lineitem() -> Vec<String> {
    const ROWS: usize = 200_000;
    let mut p = Profile::new();
    let db = Database::new(config());
    let pk = vec![col::L_ORDERKEY, col::L_LINENUMBER];
    db.create_table(
        "lineitem",
        tpch::lineitem_schema(),
        pk.clone(),
        IndexDescriptor::PrimaryBTree { keys: pk },
    )
    .expect("create lineitem");
    let rows = tpch::lineitem_rows(ROWS, 1);
    let orders = match rows.last().expect("rows")[col::L_ORDERKEY] {
        Value::Int32(k) => k,
        ref other => panic!("orderkey {other:?}"),
    };
    p.load("load 200k rows", || {
        db.load_table("lineitem", rows).expect("load")
    });
    with_primary(&db, "lineitem", |tree| p.built_btree(tree, ROWS));
    p.stage("secondary B+ tree", || {
        db.create_index(
            "lineitem",
            &IndexDescriptor::SecondaryBTree {
                keys: vec![col::L_SHIPDATE],
                includes: vec![],
            },
        )
        .expect("secondary B+ tree")
    });
    db.with_table("lineitem", |t| {
        p.built_btree(t.part(0).indexes()[1].btree().expect("B+ tree"), ROWS)
    })
    .expect("table exists");
    p.stage("secondary CSI", || {
        db.create_index(
            "lineitem",
            &IndexDescriptor::SecondaryCsi {
                columns: (0..tpch::lineitem_schema().len()).collect(),
            },
        )
        .expect("secondary CSI")
    });
    p.built_csi(ROWS);
    checkpoints(&mut p, &db);
    let mut rng = StdRng::seed_from_u64(1);
    let mut own = orders + 1..orders + 1;
    p.stage("50 htap rounds", || {
        for _ in 0..ROUNDS {
            htap_round(&db, &mut rng, orders, &mut own);
        }
    });
    p.report("lineitem 200k (htap)")
}

/// The last stage of both `micro` tables: [`ROUNDS`] rounds of Q1 at five
/// selectivities.
fn scan_rounds(p: &mut Profile, db: &Database, micro: &MicroTable) {
    p.stage("50 scan rounds", || {
        for _ in 0..ROUNDS {
            for selectivity in [0.00001, 0.001, 0.01, 0.1, 0.5] {
                run(db, &Statement::Select(micro.q1(selectivity)));
            }
        }
    });
}

fn profile_micro() -> Vec<String> {
    let mut p = Profile::new();
    let db = Database::new(config());
    const ROWS: usize = 400_000;
    let micro = MicroTable::new("micro", 3, ROWS);
    db.create_table(
        "micro",
        micro.schema(),
        vec![0],
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
    )
    .expect("create micro");
    let rows = micro.rows();
    p.load("load 400k rows", || {
        db.load_table("micro", rows).expect("load")
    });
    with_primary(&db, "micro", |tree| p.built_btree(tree, ROWS));
    p.stage("secondary CSI", || {
        db.create_index(
            "micro",
            &IndexDescriptor::SecondaryCsi {
                columns: vec![0, 1, 2],
            },
        )
        .expect("secondary CSI")
    });
    p.built_csi(ROWS);
    checkpoints(&mut p, &db);
    scan_rounds(&mut p, &db, &micro);
    p.report("micro 400k (scan_hot)")
}

fn profile_micro_part() -> Vec<String> {
    let mut p = Profile::new();
    let db = Database::new(config());
    const ROWS: usize = 400_000;
    const PARTITIONS: i64 = 8;
    let micro = MicroTable::new("micro_part", 3, ROWS);
    let bounds = (1..PARTITIONS)
        .map(|p| Value::Int32((p * (DOMAIN / PARTITIONS)) as i32))
        .collect();
    db.create_partitioned_table(
        "micro_part",
        micro.schema(),
        vec![0],
        IndexDescriptor::PrimaryCsi,
        PartitionSpec::range(0, bounds).expect("ascending bounds"),
    )
    .expect("create micro_part");
    let rows = micro.rows();
    p.load("load 400k rows", || {
        db.load_table("micro_part", rows).expect("load")
    });
    let tail = PARTITIONS as usize - 1;
    p.stage("tail to B+ tree", || {
        let btree = IndexDescriptor::PrimaryBTree { keys: vec![0] };
        db.apply_partition_design("micro_part", tail, &btree, &[])
            .expect("tail design")
    });
    db.with_table("micro_part", |t| {
        let tree = t.part(tail).indexes()[0].btree().expect("B+ tree tail");
        p.built_btree(tree, tree.len());
    })
    .expect("table exists");
    checkpoints(&mut p, &db);
    scan_rounds(&mut p, &db, &micro);
    p.report("micro_part 400k in 8 partitions (scan_hot)")
}

fn main() {
    let mut problems = profile_lineitem();
    println!();
    problems.extend(profile_micro());
    println!();
    problems.extend(profile_micro_part());
    for problem in &problems {
        eprintln!("FAIL {problem}");
    }
    if !problems.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stage as a run printed it, in MB.
    fn stage(
        name: &'static str,
        (before, after, peak): (f64, f64, f64),
        index: Option<(f64, Option<f64>)>,
        yardstick: Yardstick,
    ) -> Stage {
        Stage {
            name,
            live_before: (before * MB) as i64,
            live_after: (after * MB) as i64,
            peak_live: (peak * MB) as i64,
            allocations: 0,
            index,
            yardstick,
        }
    }

    /// `lineitem` as this binary printed it at PR 18 (commit 01bfb57), in
    /// MB, given the input rows (41.3 MB) before the load as they were at
    /// PR 23. Heap bytes per row are what those stages left live less the
    /// log's share (the 10.7 MB bulk-load record; the log buffer doubling by
    /// as much in the next stage) over 200 k rows; data bytes are this
    /// tree's, the entries being the same.
    fn pr18_lineitem() -> Vec<Stage> {
        let record = Yardstick::Record((10.7 * MB) as u64);
        let (held, image) = (Yardstick::Held, Yardstick::Image(11_200_000));
        let per_row = |mb: f64| mb * MB / 200_000.0;
        vec![
            stage(
                "load 200k rows",
                (41.3, 66.1, 82.1),
                Some((per_row(66.1 - 10.7), Some(52.0))),
                record,
            ),
            stage(
                "secondary B+ tree",
                (66.1, 104.5, 104.5),
                Some((per_row(104.5 - 66.1 - 10.7), Some(16.0))),
                held,
            ),
            stage(
                "secondary CSI",
                (104.5, 106.8, 113.9),
                Some((12.0, None)),
                held,
            ),
            stage("checkpoint 1", (106.8, 101.5, 122.8), None, image),
            stage("checkpoint 2", (101.5, 117.5, 117.5), None, image),
            stage("checkpoint 3", (117.5, 117.5, 117.5), None, image),
            stage("50 htap rounds", (117.5, 130.2, 130.6), None, held),
        ]
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

    /// `lineitem`'s checkpoints as this binary printed them at PR 26 (commit
    /// 1533ae7), each image encoded into a vector grown by doubling, and as
    /// it prints them with images in recycled segments.
    #[test]
    fn the_gate_rejects_images_grown_by_doubling() {
        let image = Yardstick::Image((10.7 * MB) as usize);
        let pr26 = [
            stage("checkpoint 1", (31.2, 36.5, 47.2), None, image),
            stage("checkpoint 2", (36.5, 52.5, 52.5), None, image),
            stage("checkpoint 3", (52.5, 52.5, 52.5), None, image),
        ];
        let rejected = complaints("lineitem at PR 26", &pr26);
        assert_eq!(rejected.len(), 3, "{rejected:?}");
        assert!(rejected[0].contains("`checkpoint 1` held 16.0 MB over what it found, over 1.2 x"));
        assert!(rejected[1].contains("`checkpoint 2` held 16.0 MB over what it found, over 1.2 x"));
        assert!(rejected[2].contains(
            "`checkpoint 2` left 16.0 MB more live, over its 10.7 MB image and a segment"
        ));

        let segmented = [
            stage("checkpoint 1", (31.2, 31.2, 41.9), None, image),
            stage("checkpoint 2", (31.2, 41.8, 41.8), None, image),
            stage("checkpoint 3", (41.8, 41.8, 41.8), None, image),
        ];
        assert_eq!(complaints("lineitem", &segmented), Vec::<String>::new());
    }

    /// A load is held to its record, not to the rows it was handed: PR 22's
    /// partitioned load (routing vectors, a second encode and the statistics
    /// beside the record) fails, and PR 25's `lineitem` load — handed rows
    /// of 16-byte values, so it finds less live than its build's peak run
    /// and tree — passes, where the rule for other stages would fail it.
    #[test]
    fn a_load_is_held_to_its_record() {
        let record = Yardstick::Record((7.2 * MB) as u64);
        let pr22 = stage("load 400k rows", (36.6, 11.2, 55.9), None, record);
        let rejected = complaints("micro_part at PR 22", &[pr22]);
        assert_eq!(rejected.len(), 1, "{rejected:?}");
        assert!(
            rejected[0].contains("held 19.3 MB over what it found, over 1.5 x its 7.2 MB record")
        );

        let record = Yardstick::Record((10.7 * MB) as u64);
        let pr25 = stage("load 200k rows", (27.5, 23.9, 39.9), None, record);
        assert_eq!(
            complaints("lineitem at PR 25", &[pr25]),
            Vec::<String>::new()
        );
        let by_held = Stage {
            yardstick: Yardstick::Held,
            ..pr25
        };
        assert_eq!(complaints("lineitem at PR 25", &[by_held]).len(), 1);
    }
}
