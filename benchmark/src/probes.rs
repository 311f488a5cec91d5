//! Layer probes: timed loops of direct calls into one layer's public
//! functions, on inputs taken from the workload (its last round's SQL
//! texts, a sample of its main table's rows). A probe isolates a layer the
//! way a micro-benchmark does, but on what this workload feeds it.

use std::collections::HashMap;
use std::ops::Bound;
use std::time::Instant;

use hpd_advisor::{CsiSizeEstimator, RunModelEstimator, SampleSet};
use hpd_btree::{BTree, BTreeConfig};
use hpd_columnstore::{ColumnStoreIndex, CsiConfig, CsiKind, PushdownAgg};
use hpd_common::{AggFunc, DataType, HpdError, Interval, Key, Result, Row, Schema, Value};
use hpd_engine::{Database, SelectQuery, Statement};
use hpd_exec::{collect, AggSpec, ExecCtx, HashAggOp, HashJoinOp, ValuesOp};
use hpd_sql::{bind, normalize, parse, Bound as SqlBound, PlanCache, SqlSession, SqlStatement};
use hpd_storage::{BufferPool, DeviceProfile, IoTracker, StorageAllocator};
use hpd_wal::{LogRecord, Wal, WalConfig};

use crate::stats::median;

/// Rows of the main table a probe index is built from, and how many more
/// are held back to be inserted into it.
const SAMPLE_ROWS: usize = 100_000;
const HELD_BACK_ROWS: usize = 2_000;
const BATCHES: usize = 5;

/// Mean nanoseconds per call: the median over [`BATCHES`] batches of
/// `calls` calls each.
fn time_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let t = Instant::now();
            for i in 0..calls {
                f(b * calls + i);
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_batch)
}

pub type Probed = Vec<(&'static str, f64)>;

/// A statement text with what the front end makes of it.
struct Prepared {
    text: String,
    template: SqlStatement,
    params: Vec<Value>,
    select: Option<SelectQuery>,
}

fn prepare_all(db: &Database, cache: &PlanCache, texts: &[String]) -> Result<Vec<Prepared>> {
    texts
        .iter()
        .map(|text| {
            let (template, slots) = cache.lookup(db, text).map_err(HpdError::from)?;
            let params: Vec<Value> = slots
                .unwrap_or_default()
                .into_iter()
                .map(|s| s.expect("generated statements carry no `?` placeholders"))
                .collect();
            let select = match bind(db, &template, &params).map_err(HpdError::from)? {
                SqlBound::Stmt(Statement::Select(q)) => Some(q),
                _ => None,
            };
            Ok(Prepared {
                text: text.clone(),
                template,
                params,
                select,
            })
        })
        .collect()
}

/// `sql.*` and `engine.optimize_us`: every stage a statement text crosses
/// before execution, per statement of the workload's own round. Also
/// returns each select among the texts with its bound form.
pub fn front_end(db: &Database, texts: &[String]) -> Result<(Probed, Vec<(String, SelectQuery)>)> {
    let cache = std::sync::Arc::new(PlanCache::new(256));
    let prepared = prepare_all(db, &cache, texts)?;
    let session = SqlSession::with_cache(db, cache);
    let n = prepared.len();
    let passes = (20_000 / n.max(1)).clamp(3, 200);
    let per_stmt_us = |ns_per_pass: f64| ns_per_pass / n as f64 / 1e3;

    let lex = time_ns(passes, |_| {
        for p in &prepared {
            std::hint::black_box(hpd_sql::lexer::lex(std::hint::black_box(&p.text)).is_ok());
        }
    });
    let norm = time_ns(passes, |_| {
        for p in &prepared {
            std::hint::black_box(normalize(std::hint::black_box(&p.text)).is_ok());
        }
    });
    let parsed = time_ns(passes, |_| {
        for p in &prepared {
            std::hint::black_box(parse(std::hint::black_box(&p.text)).is_ok());
        }
    });
    let hit = time_ns(passes, |_| {
        for p in &prepared {
            std::hint::black_box(session.prepare(std::hint::black_box(&p.text)).is_ok());
        }
    });
    let bound = time_ns(passes, |_| {
        for p in &prepared {
            std::hint::black_box(bind(db, &p.template, &p.params).is_ok());
        }
    });
    let selects: Vec<(String, SelectQuery)> = prepared
        .into_iter()
        .filter_map(|p| Some((p.text, p.select?)))
        .collect();
    let optimize = if selects.is_empty() {
        0.0
    } else {
        time_ns(passes.min(50), |_| {
            for (_, q) in &selects {
                std::hint::black_box(db.plan(std::hint::black_box(q)).is_ok());
            }
        }) / selects.len() as f64
            / 1e3
    };
    Ok((
        vec![
            ("sql.lex_us", per_stmt_us(lex)),
            ("sql.normalize_us", per_stmt_us(norm)),
            ("sql.parse_us", per_stmt_us(parsed)),
            ("sql.prepare_hit_us", per_stmt_us(hit)),
            ("sql.bind_us", per_stmt_us(bound)),
            ("engine.optimize_us", optimize),
        ],
        selects,
    ))
}

/// The first [`SAMPLE_ROWS`] + [`HELD_BACK_ROWS`] rows of a table with its
/// schema and primary key.
pub struct TableSample {
    pub schema: Schema,
    pub pk: Vec<usize>,
    pub rows: Vec<Row>,
}

impl TableSample {
    pub fn take(db: &Database, table: &str) -> Result<TableSample> {
        db.with_table(table, |t| {
            let mut rows = t.scan_all_rows(db.pool(), &IoTracker::new());
            rows.truncate(SAMPLE_ROWS + HELD_BACK_ROWS);
            TableSample {
                schema: t.schema().clone(),
                pk: t.pk().to_vec(),
                rows,
            }
        })
    }

    fn split(&self) -> (&[Row], &[Row]) {
        let held = HELD_BACK_ROWS.min(self.rows.len() / 10);
        self.rows.split_at(self.rows.len() - held)
    }
}

/// `btree.probe_*`: seek, 1 % range, insert and bulk load on a B+ tree
/// keyed like the table's primary key.
pub fn btree(sample: &TableSample) -> Result<Probed> {
    let (base, held) = sample.split();
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let tracker = IoTracker::new();
    // `bulk_load` takes its entries sorted by key; sorting is the
    // caller's cost and stays outside the clock.
    let mut entries: Vec<(Key, Row)> = base
        .iter()
        .map(|r| (r.key(&sample.pk), r.clone()))
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let keys: Vec<Key> = entries.iter().map(|(k, _)| k.clone()).collect();
    let t = Instant::now();
    let mut tree = BTree::bulk_load(
        BTreeConfig::for_entry_width(sample.schema.row_width()),
        StorageAllocator::new(),
        entries,
        &pool,
        &tracker,
    )?;
    let load_s = t.elapsed().as_secs_f64();

    let n = keys.len();
    let seek = time_ns(20_000, |i| {
        let k = &keys[(i * 7919) % n];
        std::hint::black_box(tree.seek_exact(k, &pool, &tracker));
    });
    let span = n / 100;
    let range = time_ns(40, |i| {
        let lo = (i * 104_729) % (n - span);
        std::hint::black_box(tree.scan_range_collect(
            Bound::Included(&keys[lo]),
            Bound::Excluded(&keys[lo + span]),
            &pool,
            &tracker,
        ));
    });
    let t = Instant::now();
    for r in held {
        tree.insert(r.key(&sample.pk), r.clone(), &pool, &tracker);
    }
    let insert_ns = t.elapsed().as_nanos() as f64 / held.len().max(1) as f64;
    Ok(vec![
        ("btree.probe_seek_us", seek / 1e3),
        ("btree.probe_range_1pct_us", range / 1e3),
        ("btree.probe_insert_us", insert_ns / 1e3),
        ("btree.probe_bulk_load_rows_per_s", n as f64 / load_s),
    ])
}

/// `columnstore.probe_*` and `core.size_est_over_built`: build, 1 % scan,
/// full scan, pushed-down SUM and delta insert on a columnstore over the
/// table's columns, and the advisor's size estimate against what was built.
pub fn columnstore(sample: &TableSample) -> Result<Probed> {
    let (base, held) = sample.split();
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let tracker = IoTracker::new();
    let key_col = sample.pk[0];
    let t = Instant::now();
    let mut csi = ColumnStoreIndex::build(
        sample.schema.clone(),
        CsiKind::Secondary,
        sample.pk.clone(),
        CsiConfig::default(),
        base,
        StorageAllocator::new(),
        &pool,
        &tracker,
    );
    let build_s = t.elapsed().as_secs_f64();
    let built_bytes = csi.size_bytes();

    let mut key_values: Vec<Value> = base.iter().map(|r| r[key_col].clone()).collect();
    key_values.sort();
    let n = key_values.len();
    let span = n / 100;
    let projection: Vec<usize> = (0..sample.schema.len()).collect();
    let scan_1pct = time_ns(20, |i| {
        let lo = (i * 104_729) % (n - span);
        let mut intervals = HashMap::new();
        intervals.insert(
            key_col,
            Interval {
                lo: hpd_common::interval::Bound::Inclusive(key_values[lo].clone()),
                hi: hpd_common::interval::Bound::Exclusive(key_values[lo + span].clone()),
            },
        );
        std::hint::black_box(csi.scan_collect(&projection, &intervals, &pool, &tracker));
    });
    let scan_full = time_ns(3, |_| {
        std::hint::black_box(csi.scan_collect(&projection, &HashMap::new(), &pool, &tracker));
    });
    let sum = [PushdownAgg {
        func: AggFunc::Sum,
        col: key_col,
    }];
    let sum_pushdown = time_ns(20, |_| {
        std::hint::black_box(csi.agg_collect(&sum, &HashMap::new(), &pool, &tracker));
    });
    let t = Instant::now();
    for r in held {
        csi.insert(r.clone(), &pool, &tracker);
    }
    let delta_insert_ns = t.elapsed().as_nanos() as f64 / held.len().max(1) as f64;

    let estimated = RunModelEstimator.estimate_total_bytes(
        &sample.schema,
        &SampleSet::block_sample(base, 0.02, 0x5EED),
        n,
        &CsiConfig::default(),
    );
    Ok(vec![
        ("columnstore.probe_scan_1pct_us", scan_1pct / 1e3),
        ("columnstore.probe_scan_full_us", scan_full / 1e3),
        ("columnstore.probe_sum_pushdown_us", sum_pushdown / 1e3),
        ("columnstore.probe_delta_insert_us", delta_insert_ns / 1e3),
        ("columnstore.probe_build_rows_per_s", n as f64 / build_s),
        (
            "core.size_est_over_built",
            estimated as f64 / built_bytes.max(1) as f64,
        ),
    ])
}

/// `storage.probe_page_*`: one buffer-pool page access that hits and one
/// that misses, on the workload's device model (the time measured is the
/// pool's bookkeeping; device time is simulated and not slept).
pub fn storage(device: DeviceProfile) -> Probed {
    const PAGE: u64 = 8192;
    let pool = BufferPool::new(128 * PAGE, device);
    let tracker = IoTracker::new();
    let first = StorageAllocator::new().alloc_pages(4096);
    let page = |i: u64| hpd_storage::PageId(first.0 + i);
    let hit = time_ns(100_000, |i| pool.access_page(page(i as u64 % 64), &tracker));
    // 4096 pages through a 128-page pool: every access evicts.
    let miss = time_ns(100_000, |i| {
        pool.access_page(page(i as u64 % 4096), &tracker)
    });
    vec![
        ("storage.probe_page_hit_ns", hit),
        ("storage.probe_page_miss_ns", miss),
    ]
}

/// `wal.probe_append_flush_us`: begin + one row + commit appended and
/// flushed, the log traffic of a single-row write.
pub fn wal(device: DeviceProfile, row: &Row) -> Probed {
    let log = Wal::new(WalConfig::default(), device);
    let tracker = IoTracker::new();
    let ns = time_ns(5_000, |i| {
        let txn_id = i as u64;
        log.append(&LogRecord::TxnBegin { txn_id });
        log.append(&LogRecord::Insert {
            table: 0,
            part: 0,
            row: row.clone(),
        });
        log.append(&LogRecord::TxnCommit {
            txn_id,
            commit_ts: txn_id,
        });
        std::hint::black_box(log.commit_flush(&tracker));
    });
    vec![("wal.probe_append_flush_us", ns / 1e3)]
}

/// `exec.probe_hash_*`: the table's key column joined to a 100-row
/// dimension on `key % 100`, and grouped by it.
pub fn exec(sample: &TableSample) -> Result<Probed> {
    let (base, _) = sample.split();
    let key_col = sample.pk[0];
    let types = vec![DataType::Int64, DataType::Int64];
    let fact: Vec<Row> = base
        .iter()
        .map(|r| {
            let k = r[key_col].as_i64().unwrap_or(0);
            Row::new(vec![Value::Int64(k), Value::Int64(k.rem_euclid(100))])
        })
        .collect();
    let dim: Vec<Row> = (0..100)
        .map(|i| Row::new(vec![Value::Int64(i), Value::Int64(i * 2)]))
        .collect();
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let source = |rows: &[Row]| ValuesOp::from_rows(types.clone(), rows).map(Box::new);
    // Building the input is outside the clock: only the operator is timed.
    let mut join_ns = Vec::with_capacity(BATCHES);
    let mut agg_ns = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let (left, right) = (source(&fact)?, source(&dim)?);
        let ctx = ExecCtx::new(&pool);
        let t = Instant::now();
        let mut op = HashJoinOp::new(left, right, vec![(1, 0)]);
        std::hint::black_box(collect(&mut op, &ctx)?);
        join_ns.push(t.elapsed().as_nanos() as f64);

        let input = source(&fact)?;
        let ctx = ExecCtx::new(&pool);
        let t = Instant::now();
        let mut op = HashAggOp::new(input, vec![1], vec![AggSpec::new(AggFunc::Sum, 0)]);
        std::hint::black_box(collect(&mut op, &ctx)?);
        agg_ns.push(t.elapsed().as_nanos() as f64);
    }
    Ok(vec![
        ("exec.probe_hash_join_us", median(&join_ns) / 1e3),
        ("exec.probe_hash_agg_us", median(&agg_ns) / 1e3),
    ])
}
