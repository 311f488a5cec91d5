//! The what-if session's caches and counters: a cached cost is the cost a
//! from-scratch optimizer call returns, each hypothetical index is sized
//! once and each (statement, configuration) planned once, and nothing
//! survives a `recommend` call.
//!
//! The metrics registry is process-wide, so these tests live in their own
//! binary and every one of them holds `REGISTRY` while it runs the advisor.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use hpd_advisor::candidates::{generate_candidates, prune_candidates, CandidateSet};
use hpd_advisor::enumerate::greedy_search;
use hpd_advisor::hypothetical::hypothetical_meta;
use hpd_advisor::merge::merge_candidates;
use hpd_advisor::session::Chosen;
use hpd_advisor::{
    Advisor, AdvisorOptions, DesignMode, RunModelEstimator, SampleSet, WhatIfSession, Workload,
};
use hpd_columnstore::IntEncoding;
use hpd_common::{CmpOp, DataType, Expr, PartitionSpec, Row, Schema, Value};
use hpd_engine::{Database, DbConfig, IndexDescriptor, IndexMeta, SelectQuery, Statement};
use hpd_workloads::micro::MicroTable;
use hpd_workloads::tpcds::{self, DsScale};
use hpd_workloads::tpch::{load_lineitem, MixedDesign};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

static REGISTRY: Mutex<()> = Mutex::new(());

/// Counts per thread: what a test measures is what its own thread allocates.
#[global_allocator]
static ALLOC: hpd_obs::alloc::CountingAlloc = hpd_obs::alloc::CountingAlloc;

fn tpcds_db() -> Database {
    let mut cfg = DbConfig::default();
    cfg.csi.rowgroup_capacity = 4_096;
    let db = Database::new(cfg);
    tpcds::load(&db, DsScale::small()).unwrap();
    db
}

fn tpcds_workload(n: usize) -> Workload {
    Workload::read_only(tpcds::queries(n, 99).into_iter().map(|(_, q)| q).collect())
}

/// Candidate selection → what-if pruning → merging, as `recommend` runs
/// them: `(raw candidates, merged pool)`.
fn candidate_pool(session: &mut WhatIfSession) -> (CandidateSet, CandidateSet) {
    let raw = generate_candidates(session.workload(), session.contexts(), DesignMode::Hybrid);
    let pruned = prune_candidates(session, &raw).unwrap();
    (raw, merge_candidates(&pruned))
}

#[test]
fn cached_costs_equal_from_scratch_plans() {
    let _serial = REGISTRY.lock().unwrap();
    let db = tpcds_db();
    let workload = tpcds_workload(13);
    let options = AdvisorOptions::default();
    let mut session = WhatIfSession::new(&db, &workload, &options).unwrap();
    let (_, pool) = candidate_pool(&mut session);
    let contexts = session.contexts().clone();

    // The reference sizes every index itself, from its own samples.
    let mut reference_metas: HashMap<(String, IndexDescriptor), IndexMeta> = HashMap::new();
    for (table, cands) in &pool.per_table {
        let rows = db
            .with_table(table, |t| {
                t.scan_all_rows(db.pool(), &hpd_storage::IoTracker::new())
            })
            .unwrap();
        let sample = SampleSet::block_sample(&rows, options.sample_fraction, options.seed);
        for d in cands {
            let meta = hypothetical_meta(
                d,
                &contexts[table],
                &sample,
                &RunModelEstimator,
                &db.config().csi,
            );
            reference_metas.insert((table.clone(), d.clone()), meta);
        }
    }
    // Every tpcds table is one part: its list is `lists[0]`.
    let initial = session.initial().clone();
    let from_scratch = |stmt: usize, chosen: &Chosen| -> u64 {
        let Statement::Select(query) = &workload.statements[stmt].statement else {
            unreachable!("read-only workload");
        };
        let mut overrides = HashMap::new();
        for t in &query.tables {
            let primary = &contexts[&t.name].parts[0].metas[0];
            let lists = chosen.get(&t.name).unwrap_or(&initial[&t.name]);
            let metas = lists[0]
                .iter()
                .map(|d| {
                    if *d == primary.descriptor {
                        primary.clone()
                    } else {
                        reference_metas[&(t.name.clone(), d.clone())].clone()
                    }
                })
                .collect();
            overrides.insert(t.name.clone(), vec![metas]);
        }
        let plan = db.what_if_plan(query, &overrides).unwrap();
        plan.est_cost_us.to_bits()
    };

    // Random configurations: per table its primary and an ordered subset of
    // its candidates with at most one columnstore, as the search would
    // build them.
    let mut rng = StdRng::seed_from_u64(0xCAC4E);
    let mut tables: Vec<&String> = pool.per_table.keys().collect();
    tables.sort();
    let configurations: Vec<Chosen> = (0..200)
        .map(|_| {
            let mut chosen = Chosen::new();
            for &table in &tables {
                let mut cands = pool.per_table[table].clone();
                cands.shuffle(&mut rng);
                cands.truncate(rng.gen_range(0..=3));
                let mut has_csi = false;
                cands.retain(|d| !d.is_csi() || !std::mem::replace(&mut has_csi, true));
                if !cands.is_empty() || rng.gen_bool(0.5) {
                    let primary = initial[table][0][0].clone();
                    cands.insert(0, primary);
                    chosen.insert(table.clone(), vec![cands]);
                }
            }
            chosen
        })
        .collect();

    // Ask everything twice, in two different orders: the second round is
    // answered from the cache alone.
    let mut requests: Vec<(usize, usize)> = (0..configurations.len())
        .flat_map(|c| (0..workload.len()).map(move |s| (c, s)))
        .collect();
    for round in 0..2 {
        requests.shuffle(&mut rng);
        let computed_before = session.costs_computed();
        for &(c, stmt) in &requests {
            let cached = session.statement_cost(stmt, &configurations[c]).unwrap();
            assert_eq!(
                cached.to_bits(),
                from_scratch(stmt, &configurations[c]),
                "round {round}, statement {stmt}, configuration {:?}",
                configurations[c]
            );
        }
        if round == 1 {
            assert_eq!(session.costs_computed(), computed_before);
        }
    }
}

#[test]
fn each_index_is_sized_once_and_each_cost_key_planned_once() {
    let _serial = REGISTRY.lock().unwrap();
    let db = tpcds_db();
    let workload = tpcds_workload(13);
    let options = AdvisorOptions::default();
    let counters = || hpd_obs::global().snapshot();

    // The pipeline by hand, on a session this test can inspect.
    let before = counters();
    let mut session = WhatIfSession::new(&db, &workload, &options).unwrap();
    let (raw, pool) = candidate_pool(&mut session);
    let result = greedy_search(&mut session, &pool, DesignMode::Hybrid, None).unwrap();
    // The closing before/after pass asks nothing the search has not.
    let searched = session.costs_computed();
    for stmt in 0..workload.len() {
        session.statement_cost(stmt, &Chosen::new()).unwrap();
        session.statement_cost(stmt, &result.chosen).unwrap();
    }
    assert_eq!(session.costs_computed(), searched);
    let by_hand = counters().delta(&before);

    // Every descriptor the pipeline can name: pruning sizes the raw
    // candidates, the search the merged pool.
    let named: HashSet<(&String, &IndexDescriptor)> = [&raw, &pool]
        .into_iter()
        .flat_map(|set| &set.per_table)
        .flat_map(|(table, cands)| cands.iter().map(move |d| (table, d)))
        .collect();
    // One plan per statement to prune, then one per distinct cost key.
    let planned = workload.len() + session.costs_computed();
    assert_eq!(by_hand.counter("advisor.whatif.calls"), planned as u64);
    assert!(
        by_hand.counter("advisor.hypothetical.built") <= named.len() as u64,
        "{} built for {} named descriptors",
        by_hand.counter("advisor.hypothetical.built"),
        named.len()
    );
    // `recommend` is that pipeline: same counts, same answer.
    let before = counters();
    let rec = Advisor::new(&db, options).recommend(&workload).unwrap();
    let recommend = counters().delta(&before);
    for name in [
        "advisor.whatif.calls",
        "advisor.whatif.cache_hits",
        "advisor.hypothetical.built",
    ] {
        assert_eq!(recommend.counter(name), by_hand.counter(name), "{name}");
    }
    assert_eq!(
        rec.est_cost_after_us.to_bits(),
        result.final_cost_us.to_bits()
    );
    assert_eq!(rec.new_index_bytes, result.new_index_bytes);
}

#[test]
fn no_state_survives_a_recommend_call() {
    let _serial = REGISTRY.lock().unwrap();
    let db = Database::new(DbConfig::default());
    db.create_table(
        "orders",
        Schema::from_pairs(&[
            ("id", DataType::Int32),
            ("customer", DataType::Int32),
            ("amount", DataType::Int32),
        ]),
        vec![0],
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
    )
    .unwrap();
    let load = |n: i32, customers: i32| {
        let rows = (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int32(i),
                    Value::Int32(i % customers),
                    Value::Int32(i * 13 % 500),
                ])
            })
            .collect();
        db.load_table("orders", rows).unwrap();
    };
    let workload = Workload::read_only(vec![SelectQuery::single_table(
        "orders",
        Some(Expr::col_cmp(1, CmpOp::Eq, Value::Int32(7))),
        vec![0, 1, 2],
    )]);
    let costs = |rec: &hpd_advisor::Recommendation| {
        (
            rec.est_cost_before_us.to_bits(),
            rec.est_cost_after_us.to_bits(),
            rec.new_index_bytes,
        )
    };

    let advisor = Advisor::new(&db, AdvisorOptions::default());
    load(10_000, 100);
    let small = advisor.recommend(&workload).unwrap();
    load(60_000, 2_000);
    let large = advisor.recommend(&workload).unwrap();
    let fresh = Advisor::new(&db, AdvisorOptions::default())
        .recommend(&workload)
        .unwrap();
    assert_eq!(costs(&large), costs(&fresh));
    assert_eq!(large.configuration, fresh.configuration);
    assert!(large.est_cost_before_us > small.est_cost_before_us);
    assert!(large.new_index_bytes > small.new_index_bytes);
}

/// The advisor reads a table to keep a block sample of it: the rows pass by
/// reference, so a `recommend` never holds a table's worth of them.
#[test]
fn recommend_peaks_below_the_table_it_samples() {
    const ROWS: i32 = 48_000;
    let _serial = REGISTRY.lock().unwrap();
    let db = Database::new(DbConfig::default());
    db.create_table(
        "orders",
        Schema::from_pairs(&[
            ("id", DataType::Int32),
            ("customer", DataType::Int32),
            ("amount", DataType::Int32),
            ("day", DataType::Int32),
        ]),
        vec![0],
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
    )
    .unwrap();
    let row = |i: i32| {
        [i, i % 900, i * 13 % 500, i / 40]
            .map(Value::Int32)
            .to_vec()
    };
    db.load_table("orders", (0..ROWS).map(|i| Row::new(row(i))).collect())
        .unwrap();
    let workload = Workload::read_only(vec![
        SelectQuery::single_table(
            "orders",
            Some(Expr::col_cmp(1, CmpOp::Eq, Value::Int32(7))),
            vec![0, 1, 2],
        ),
        SelectQuery::single_table(
            "orders",
            Some(Expr::col_cmp(3, CmpOp::Lt, Value::Int32(600))),
            vec![2, 3],
        ),
    ]);
    let (rec, region) = hpd_obs::alloc::measure(|| {
        Advisor::new(&db, AdvisorOptions::default())
            .recommend(&workload)
            .unwrap()
    });
    assert!(!rec.configuration.tables.is_empty());
    // The table as owned rows: a vector header and four values each.
    let row_bytes = std::mem::size_of::<Row>() + 4 * std::mem::size_of::<Value>();
    let table_bytes = ROWS as i64 * row_bytes as i64;
    assert!(
        region.peak_over_start() < table_bytes / 2,
        "recommend peaked {} B over its start; the table's rows are {table_bytes} B",
        region.peak_over_start()
    );
}

/// `(index, built (leaf pages, height), what-if (leaf pages, height))` of
/// every B+ tree on every part of `table`: the what-if meta sized as the
/// advisor sizes it, from a block sample of the table, over the part's rows.
type Sizes = Vec<(String, (usize, usize), (usize, usize))>;

fn btree_sizes(db: &Database, table: &str) -> Sizes {
    let options = AdvisorOptions::default();
    let ctx = db.context_for(table).unwrap();
    let sample = db
        .with_table(table, |t| {
            let (fraction, seed) = (options.sample_fraction, options.seed);
            SampleSet::block_sample_scan(t.row_count(), fraction, seed, |sink| {
                t.for_each_row(db.pool(), &hpd_storage::IoTracker::new(), sink)
            })
        })
        .unwrap();
    let mut sizes = Vec::new();
    for (p, part) in ctx.parts.iter().enumerate() {
        let mut part_ctx = ctx.clone();
        part_ctx.stats.rows = part.rows;
        for built in part.metas.iter().filter(|m| !m.descriptor.is_csi()) {
            let d = &built.descriptor;
            let whatif =
                hypothetical_meta(d, &part_ctx, &sample, &RunModelEstimator, &db.config().csi);
            sizes.push((
                format!("{table} p{p} {d:?}"),
                (built.leaf_pages, built.height),
                (whatif.leaf_pages, whatif.height),
            ));
        }
    }
    sizes
}

/// A hypothetical B+ tree is the tree a build makes. It is sized from the
/// table's mean encoded widths, and values encode at their significant
/// width, so entries differ and the built leaves pack them unevenly: on
/// every B+ tree that the 13-query hybrid recommendation, `micro`,
/// `micro_part`'s B+ tree tail and TPC-H `lineitem` (primary and
/// `l_shipdate` secondary) build, the what-if height equals the built one
/// and the leaf pages are within 1 % (a page either way at least). On a
/// table whose columns each encode at one width, keyed past its leading
/// column (its primary's keys apart from the rows, a secondary's in them),
/// they are equal, and so they are when half its rows are led by their
/// key's value (the primary keeps those keys apart too). With a string
/// column the leaf pages are within 5 %.
#[test]
fn hypothetical_btree_sizes_equal_the_built_ones() {
    let _serial = REGISTRY.lock().unwrap();
    let mut sizes = Sizes::new();

    let db = tpcds_db();
    let workload = tpcds_workload(13);
    let rec = Advisor::new(&db, AdvisorOptions::default())
        .recommend(&workload)
        .unwrap();
    db.apply_configuration(&rec.configuration).unwrap();
    for design in &rec.configuration.tables {
        sizes.extend(btree_sizes(&db, &design.table));
    }

    let db = Database::new(DbConfig::default());
    let micro = MicroTable::new("micro", 3, 60_000);
    micro
        .load(&db, IndexDescriptor::PrimaryBTree { keys: vec![0] })
        .unwrap();
    let bounds = (1..8)
        .map(|p| Value::Int32(MicroTable::cutoff(p as f64 / 8.0)))
        .collect();
    let spec = PartitionSpec::range(0, bounds).unwrap();
    db.create_partitioned_table(
        "micro_part",
        micro.schema(),
        vec![0],
        IndexDescriptor::PrimaryCsi,
        spec,
    )
    .unwrap();
    db.load_table("micro_part", micro.rows()).unwrap();
    let btree = IndexDescriptor::PrimaryBTree { keys: vec![0] };
    db.apply_partition_design("micro_part", 7, &btree, &[])
        .unwrap();
    load_lineitem(&db, 30_000, 7, MixedDesign::BTreeOnly).unwrap();
    // Keyed past its leading column: the primary's entries hold the key
    // apart from the row (no row's `v` is its key). Every value of a column
    // takes one width: 4, 4 and 6 payload bytes.
    let schema = Schema::from_pairs(&[
        ("v", DataType::Int32),
        ("k", DataType::Int32),
        ("w", DataType::Int64),
    ]);
    let keyed_late = IndexDescriptor::PrimaryBTree { keys: vec![1] };
    db.create_table("keyed_late", schema, vec![1], keyed_late)
        .unwrap();
    let rows = (0..30_000)
        .map(|i| {
            Row::new(vec![
                Value::Int32(-(1 << 23) - i),
                Value::Int32((1 << 23) + i),
                Value::Int64((1 << 40) + i64::from(i % 1_000)),
            ])
        })
        .collect();
    db.load_table("keyed_late", rows).unwrap();
    let by_w = IndexDescriptor::SecondaryBTree {
        keys: vec![2],
        includes: vec![],
    };
    db.create_index("keyed_late", &by_w).unwrap();
    // The same shape, every other row's `v` its key: the primary keeps
    // every key apart from its row all the same (25 page bytes an entry),
    // so the what-if entry is the built one.
    let schema = Schema::from_pairs(&[
        ("v", DataType::Int32),
        ("k", DataType::Int32),
        ("w", DataType::Int64),
    ]);
    let half = IndexDescriptor::PrimaryBTree { keys: vec![1] };
    db.create_table("keyed_late_half", schema, vec![1], half)
        .unwrap();
    let rows = (0..30_000)
        .map(|i| {
            let k = (1 << 23) + i;
            Row::new(vec![
                Value::Int32(if i % 2 == 0 { k } else { -(1 << 23) - i }),
                Value::Int32(k),
                Value::Int64((1 << 40) + i64::from(i % 1_000)),
            ])
        })
        .collect();
    db.load_table("keyed_late_half", rows).unwrap();
    for table in [
        "micro",
        "micro_part",
        "lineitem",
        "keyed_late",
        "keyed_late_half",
    ] {
        sizes.extend(btree_sizes(&db, table));
    }
    let names = |sizes: &Sizes| sizes.iter().map(|s| s.0.clone()).collect::<Vec<_>>();
    for expected in [
        "micro p0",
        "micro_part p7",
        "lineitem p0 PrimaryBTree",
        "lineitem p0 SecondaryBTree { keys: [5]",
        "keyed_late p0 PrimaryBTree { keys: [1] }",
        "keyed_late p0 SecondaryBTree { keys: [2]",
        "keyed_late_half p0 PrimaryBTree { keys: [1] }",
    ] {
        assert!(
            names(&sizes).iter().any(|n| n.starts_with(expected)),
            "{expected}: {:?}",
            names(&sizes)
        );
    }
    assert!(sizes.len() >= 10, "{:?}", names(&sizes));
    for (index, built, whatif) in &sizes {
        let off = whatif.0.abs_diff(built.0) as f64;
        assert!(
            whatif.1 == built.1 && off <= (0.01 * built.0 as f64).max(1.0),
            "{index}: what-if (leaf pages, height) {whatif:?}, built {built:?}"
        );
        if index.starts_with("keyed_late") {
            assert_eq!(whatif, built, "{index}: one width a column");
        }
    }

    let db = Database::new(DbConfig::default());
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int32),
        ("name", DataType::Utf8),
        ("amount", DataType::Int64),
    ]);
    db.create_table("people", schema, vec![0], btree).unwrap();
    let name = |i: i32| "n".repeat(3 + (i * 7_919 % 29) as usize);
    let rows = (0..40_000)
        .map(|i| {
            Row::new(vec![
                Value::Int32(i),
                Value::str(name(i)),
                Value::Int64(i64::from(i)),
            ])
        })
        .collect();
    db.load_table("people", rows).unwrap();
    let by_name = IndexDescriptor::SecondaryBTree {
        keys: vec![1],
        includes: vec![],
    };
    db.create_index("people", &by_name).unwrap();
    for (index, built, whatif) in btree_sizes(&db, "people") {
        let error = whatif.0.abs_diff(built.0) as f64 / built.0 as f64;
        assert!(
            error <= 0.05,
            "{index}: {} what-if leaf pages, {} built",
            whatif.0,
            built.0
        );
    }
}

/// The EXPERIMENTS.md "advisor scaling" rows: `cargo test --release -p
/// hpd-advisor --test whatif_session -- --ignored --nocapture`.
#[test]
#[ignore = "a measurement, not a check"]
fn advisor_scaling_report() {
    let _serial = REGISTRY.lock().unwrap();
    let db = tpcds_db();
    println!("queries seconds optimizer_calls cache_hits indexes_sized");
    for n in [7, 13, 97] {
        let workload = tpcds_workload(n);
        let before = hpd_obs::global().snapshot();
        let started = std::time::Instant::now();
        Advisor::new(&db, AdvisorOptions::default())
            .recommend(&workload)
            .unwrap();
        let seconds = started.elapsed().as_secs_f64();
        let delta = hpd_obs::global().snapshot().delta(&before);
        println!(
            "{n} {seconds:.3} {} {} {}",
            delta.counter("advisor.whatif.calls"),
            delta.counter("advisor.whatif.cache_hits"),
            delta.counter("advisor.hypothetical.built")
        );
    }
}

/// `(index, built bytes, what-if bytes, what-if encodings)` of every
/// columnstore on every part of `table`, sized as [`btree_sizes`] sizes B+
/// trees.
fn csi_sizes(db: &Database, table: &str) -> Vec<(String, usize, IndexMeta)> {
    let options = AdvisorOptions::default();
    let ctx = db.context_for(table).unwrap();
    let sample = db
        .with_table(table, |t| {
            let (fraction, seed) = (options.sample_fraction, options.seed);
            SampleSet::block_sample_scan(t.row_count(), fraction, seed, |sink| {
                t.for_each_row(db.pool(), &hpd_storage::IoTracker::new(), sink)
            })
        })
        .unwrap();
    let mut sizes = Vec::new();
    for (p, part) in ctx.parts.iter().enumerate() {
        let mut part_ctx = ctx.clone();
        part_ctx.stats.rows = part.rows;
        for built in part.metas.iter().filter(|m| m.descriptor.is_csi()) {
            let d = &built.descriptor;
            let whatif =
                hypothetical_meta(d, &part_ctx, &sample, &RunModelEstimator, &db.config().csi);
            sizes.push((format!("{table} p{p} {d:?}"), built.size_bytes(), whatif));
        }
    }
    sizes
}

/// A hypothetical columnstore is sized in the row order a build stores:
/// the run model keeps the greedy order or the primary's, whichever its
/// columns encode smaller in, as a row group keeps the smaller of the
/// greedy, arrival and key orders. On the benchmark's tables — `micro`'s
/// secondary columnstore over its B+ tree (arrival is key order: `col1`
/// FOR/delta, not bit-packed behind the greedy order's 100-value `col2`),
/// `micro_part`'s primary columnstore parts (loaded shuffled, stored in key
/// order), TPC-H `lineitem`'s and TPC-DS `store_sales`' secondary
/// columnstores — the what-if bytes are within 15 % of the built ones.
#[test]
fn hypothetical_columnstore_sizes_track_the_built_row_order() {
    let _serial = REGISTRY.lock().unwrap();
    const ROWS: i64 = 131_072;
    const DOMAIN: i64 = 1 << 31;
    let schema = Schema::from_pairs(&[
        ("col1", DataType::Int32),
        ("col2", DataType::Int32),
        ("col3", DataType::Int32),
    ]);
    // `benchmark/`'s scan tables: `col1` unique, one value a stratum of
    // [0, 2^31); `col2` 100 values; `col3` uniform; loaded shuffled.
    let mut rng = StdRng::seed_from_u64(1);
    let stratum = |i: i64| i * DOMAIN / ROWS;
    let mut rows: Vec<Row> = (0..ROWS)
        .map(|i| {
            Row::new(vec![
                Value::Int32(rng.gen_range(stratum(i)..stratum(i + 1)) as i32),
                Value::Int32(rng.gen_range(0..100)),
                Value::Int32(rng.gen_range(0..DOMAIN) as i32),
            ])
        })
        .collect();
    rows.shuffle(&mut rng);
    let db = Database::new(DbConfig::default());
    let btree = IndexDescriptor::PrimaryBTree { keys: vec![0] };
    db.create_table("micro", schema.clone(), vec![0], btree)
        .unwrap();
    db.load_table("micro", rows.clone()).unwrap();
    let all = IndexDescriptor::SecondaryCsi {
        columns: vec![0, 1, 2],
    };
    db.create_index("micro", &all).unwrap();
    let bounds = (1..4)
        .map(|p| Value::Int32((p * DOMAIN / 4) as i32))
        .collect();
    let spec = PartitionSpec::range(0, bounds).unwrap();
    db.create_partitioned_table(
        "micro_part",
        schema,
        vec![0],
        IndexDescriptor::PrimaryCsi,
        spec,
    )
    .unwrap();
    db.load_table("micro_part", rows).unwrap();
    load_lineitem(&db, 100_000, 7, MixedDesign::BTreeWithSecondaryCsi).unwrap();
    tpcds::load(&db, DsScale::small()).unwrap();
    let facts = IndexDescriptor::SecondaryCsi {
        columns: (0..10).collect(),
    };
    db.create_index("store_sales", &facts).unwrap();

    let mut sizes = Vec::new();
    for table in ["micro", "micro_part", "lineitem", "store_sales"] {
        sizes.extend(csi_sizes(&db, table));
    }
    assert_eq!(sizes.len(), 1 + 4 + 1 + 1, "{sizes:?}");
    let (_, _, micro) = &sizes[0];
    let col1 = micro.column_encodings.iter().find(|&&(c, _)| c == 0);
    assert_eq!(
        col1,
        Some(&(0, IntEncoding::ForDelta)),
        "micro's col1 in key order"
    );
    for (index, built, whatif) in &sizes {
        let error = whatif.size_bytes().abs_diff(*built) as f64 / *built as f64;
        assert!(
            error <= 0.15,
            "{index}: {} what-if bytes, {built} built",
            whatif.size_bytes()
        );
    }
}
