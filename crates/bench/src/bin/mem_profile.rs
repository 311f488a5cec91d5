//! Where the memory goes: live bytes, peak live bytes and allocation counts
//! per set-up stage, from a counting global allocator — no clock, no RSS,
//! so the numbers repeat exactly and a copy of a table that one stage makes
//! and drops shows as that stage's peak.
//!
//! Two tables shaped like the benchmark's: TPC-H `lineitem` (200 k rows,
//! B+ tree primary, secondary B+ tree on ship date, secondary columnstore —
//! `htap`) and `micro` (400 k rows, B+ tree primary, secondary columnstore —
//! `scan_hot`). Stages: bulk load, each index build, three checkpoints of
//! the unchanged table, then 50 rounds of statements.
//!
//! The run is also a gate (exit status 1):
//!
//! * no stage's peak may exceed [`PEAK_OVER_AFTER`] × what it leaves live —
//!   a stage that materialises the table once more fails it;
//! * the third checkpoint of an unchanged table must leave no more live than
//!   the second — the image is encoded into the buffer the previous
//!   checkpoint retired, not into a new one.

use hpd_bench::common::render_table;
use hpd_common::{CmpOp, Expr, Row, Value};
use hpd_engine::{
    Database, DbConfig, DeleteStmt, IndexDescriptor, InsertStmt, SelectQuery, Statement,
};
use hpd_obs::alloc::{self, CountingAlloc};
use hpd_workloads::micro::MicroTable;
use hpd_workloads::tpch::{self, col, SHIPDATE_DAYS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A stage may hold, at its worst moment, this multiple of what it leaves.
const PEAK_OVER_AFTER: f64 = 1.35;
/// Rounds in the last stage (its name says so too).
const ROUNDS: usize = 50;

struct Stage {
    name: &'static str,
    live_after: i64,
    peak_live: i64,
    allocations: u64,
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
            live_after: region.after.live_bytes,
            peak_live: region.after.peak_live_bytes,
            allocations: region.allocations(),
        });
        out
    }

    /// Prints the table and returns the gate's complaints.
    fn report(&self, table: &str) -> Vec<String> {
        let mb = |b: i64| format!("{:.1}", b as f64 / (1 << 20) as f64);
        let rows: Vec<Vec<String>> = self
            .stages
            .iter()
            .map(|s| {
                vec![
                    s.name.to_string(),
                    mb(s.live_after),
                    mb(s.peak_live),
                    format!("{:.2}", s.peak_live as f64 / s.live_after as f64),
                    s.allocations.to_string(),
                ]
            })
            .collect();
        println!("== {table} ==");
        print!(
            "{}",
            render_table(
                &[
                    "stage",
                    "live after MB",
                    "peak live MB",
                    "peak/after",
                    "allocations"
                ],
                &rows
            )
        );
        let mut problems: Vec<String> = self
            .stages
            .iter()
            .filter(|s| s.peak_live as f64 > PEAK_OVER_AFTER * s.live_after as f64)
            .map(|s| {
                format!(
                    "{table}: stage `{}` peaked at {} MB, over {PEAK_OVER_AFTER} x the {} MB it left",
                    s.name,
                    mb(s.peak_live),
                    mb(s.live_after)
                )
            })
            .collect();
        let live_after = |name: &str| {
            self.stages
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.live_after)
                .expect("stage ran")
        };
        let (second, third) = (live_after("checkpoint 2"), live_after("checkpoint 3"));
        if third > second {
            problems.push(format!(
                "{table}: live bytes grew from {second} to {third} between checkpoint 2 and 3 \
                 of an unchanged table"
            ));
        }
        problems
    }
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
    }
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
    p.stage("load 200k rows", || {
        db.load_table("lineitem", rows).expect("load")
    });
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
    p.stage("secondary CSI", || {
        db.create_index(
            "lineitem",
            &IndexDescriptor::SecondaryCsi {
                columns: (0..tpch::lineitem_schema().len()).collect(),
            },
        )
        .expect("secondary CSI")
    });
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

fn profile_micro() -> Vec<String> {
    let mut p = Profile::new();
    let db = Database::new(config());
    let micro = MicroTable::new("micro", 3, 400_000);
    db.create_table(
        "micro",
        micro.schema(),
        vec![0],
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
    )
    .expect("create micro");
    let rows = micro.rows();
    p.stage("load 400k rows", || {
        db.load_table("micro", rows).expect("load")
    });
    p.stage("secondary CSI", || {
        db.create_index(
            "micro",
            &IndexDescriptor::SecondaryCsi {
                columns: vec![0, 1, 2],
            },
        )
        .expect("secondary CSI")
    });
    checkpoints(&mut p, &db);
    p.stage("50 scan rounds", || {
        for _ in 0..ROUNDS {
            for selectivity in [0.00001, 0.001, 0.01, 0.1, 0.5] {
                run(&db, &Statement::Select(micro.q1(selectivity)));
            }
        }
    });
    p.report("micro 400k (scan_hot)")
}

fn main() {
    let mut problems = profile_lineitem();
    println!();
    problems.extend(profile_micro());
    for problem in &problems {
        eprintln!("FAIL {problem}");
    }
    if !problems.is_empty() {
        std::process::exit(1);
    }
}
