//! Optimizer-focused tests: access-path choice, composite-key seeks,
//! aggregation strategy, DOP selection, and what-if sensitivity.

use std::collections::HashMap;

use hpd_common::{AggFunc, CmpOp, DataType, Expr, Interval, Row, Schema, Value};
use hpd_engine::cost::CostModel;
use hpd_engine::plan::{PlanCol, PlanNode, PlanTable};
use hpd_engine::table::Table;
use hpd_engine::{
    AggItem, ColRef, Database, DbConfig, EncodedRows, IndexDescriptor, IndexId, Optimizer,
    PartitionSpec, PhysicalPlan, PlanNodeKind, QueryRunner, SelectQuery, Statement, TableInput,
    TableStats,
};
use hpd_exec::Mode;
use hpd_storage::DeviceProfile;

fn db_hdd() -> Database {
    let mut cfg = DbConfig {
        device: DeviceProfile::hdd_scaled(40.0),
        ..DbConfig::default()
    };
    cfg.csi.rowgroup_capacity = 4_096;
    Database::new(cfg)
}

/// t(w, d, k, v): composite pk (w, d, k).
fn setup_composite(db: &Database, n: i32) {
    db.create_table(
        "t",
        Schema::from_pairs(&[
            ("w", DataType::Int32),
            ("d", DataType::Int32),
            ("k", DataType::Int32),
            ("v", DataType::Int32),
        ]),
        vec![0, 1, 2],
        IndexDescriptor::PrimaryBTree {
            keys: vec![0, 1, 2],
        },
    )
    .unwrap();
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Int32(i % 4),
                Value::Int32(i / 4 % 10),
                Value::Int32(i / 40),
                Value::Int32(i),
            ])
        })
        .collect();
    db.load_table("t", rows).unwrap();
}

#[test]
fn composite_equality_prefix_seek() {
    let db = db_hdd();
    setup_composite(&db, 40_000);
    // Full-prefix equality on (w, d, k).
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::And(vec![
            Expr::col_cmp(0, CmpOp::Eq, Value::Int32(2)),
            Expr::col_cmp(1, CmpOp::Eq, Value::Int32(3)),
            Expr::col_cmp(2, CmpOp::Eq, Value::Int32(7)),
        ])),
        vec![3],
    );
    let plan = db.plan(&q).unwrap();
    assert!(
        matches!(find_leaf(&plan.root), Some(PlanNodeKind::BTreeSeek { .. })),
        "{}",
        plan.explain()
    );
    // The seek applies the whole predicate: nothing is left to filter.
    assert!(filters(&plan).is_empty(), "{}", plan.explain());
    let r = db.query(&Statement::Select(q)).run().unwrap();
    assert_eq!(r.rows.len(), 1);
    assert!(
        r.metrics.io.logical_reads < 10,
        "prefix seek touches few pages"
    );
}

#[test]
fn equality_prefix_plus_range_seek() {
    let db = db_hdd();
    setup_composite(&db, 40_000);
    // w = 1, d in [2, 5): equality prefix + range on the next key column.
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::And(vec![
            Expr::col_cmp(0, CmpOp::Eq, Value::Int32(1)),
            Expr::col_cmp(1, CmpOp::Ge, Value::Int32(2)),
            Expr::col_cmp(1, CmpOp::Lt, Value::Int32(5)),
        ])),
        vec![0, 1, 3],
    );
    let plan = db.plan(&q).unwrap();
    assert!(
        matches!(find_leaf(&plan.root), Some(PlanNodeKind::BTreeSeek { .. })),
        "{}",
        plan.explain()
    );
    assert!(filters(&plan).is_empty(), "{}", plan.explain());
    let r = db.query(&Statement::Select(q)).run().unwrap();
    let expected = (0..40_000)
        .filter(|i| i % 4 == 1 && (2..5).contains(&(i / 4 % 10)))
        .count();
    assert_eq!(r.rows.len(), expected);
    assert!(r
        .rows
        .iter()
        .all(|row| row[0] == Value::Int32(1) && (2..5).contains(&row[1].as_i32().unwrap())));
}

#[test]
fn group_by_on_key_prefix_streams() {
    let db = db_hdd();
    setup_composite(&db, 20_000);
    let q = SelectQuery {
        tables: vec![TableInput::new("t")],
        group_by: vec![ColRef::new(0, 0)],
        aggregates: vec![AggItem::column(AggFunc::Sum, ColRef::new(0, 3))],
        ..Default::default()
    };
    let plan = db.plan(&q).unwrap();
    assert!(
        plan.explain().contains("StreamAgg"),
        "group on pk prefix should stream:\n{}",
        plan.explain()
    );
    // A group on a non-prefix column must hash.
    let q2 = SelectQuery {
        group_by: vec![ColRef::new(0, 3)],
        ..q
    };
    let plan2 = db.plan(&q2).unwrap();
    assert!(plan2.explain().contains("HashAgg"), "{}", plan2.explain());
}

#[test]
fn dop_grows_with_work() {
    let db = db_hdd();
    setup_composite(&db, 100_000);
    // Tiny seek: serial.
    let selective = SelectQuery::single_table(
        "t",
        Some(Expr::And(vec![
            Expr::col_cmp(0, CmpOp::Eq, Value::Int32(0)),
            Expr::col_cmp(1, CmpOp::Eq, Value::Int32(0)),
            Expr::col_cmp(2, CmpOp::Eq, Value::Int32(5)),
        ])),
        vec![3],
    );
    assert_eq!(db.plan(&selective).unwrap().max_dop(), 1);
    // Whole-table aggregate: parallel.
    let big = SelectQuery {
        tables: vec![TableInput::new("t")],
        group_by: vec![ColRef::new(0, 3)],
        aggregates: vec![AggItem::column(AggFunc::Count, ColRef::new(0, 3))],
        ..Default::default()
    };
    assert!(db.plan(&big).unwrap().max_dop() > 1);
}

#[test]
fn what_if_cost_scales_with_hypothetical_size() {
    let db = db_hdd();
    setup_composite(&db, 50_000);
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(3, CmpOp::Lt, Value::Int32(100))),
        vec![3],
    );
    let mk = |leaf_pages: usize| {
        let mut metas = db.with_table("t", |t| t.part_metas(0)).unwrap();
        let on_v = IndexDescriptor::SecondaryBTree {
            keys: vec![3],
            includes: vec![],
        };
        metas.push(hpd_engine::IndexMeta {
            leaf_pages,
            height: 3,
            hypothetical: true,
            ..hpd_engine::IndexMeta::new(on_v, 50_000)
        });
        HashMap::from([("t".to_string(), vec![metas])])
    };
    let small = db.what_if_plan(&q, &mk(100)).unwrap().est_cost_us;
    let large = db.what_if_plan(&q, &mk(100_000)).unwrap().est_cost_us;
    assert!(small <= large, "bigger hypothetical index can't be cheaper");
}

#[test]
fn covering_secondary_beats_lookup_plan() {
    let db = db_hdd();
    setup_composite(&db, 60_000);
    // Non-covering secondary on v: plan needs PkLookup for column 2.
    db.create_index(
        "t",
        &IndexDescriptor::SecondaryBTree {
            keys: vec![3],
            includes: vec![],
        },
    )
    .unwrap();
    let q_lookup = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(3, CmpOp::Eq, Value::Int32(123))),
        vec![3, 0, 1, 2],
    );
    let plan = db.plan(&q_lookup).unwrap();
    // pk (w,d,k) is the locator and is stored in the secondary, so this is
    // actually covering; ask for nothing beyond it and verify a plain seek.
    assert!(
        plan.explain().contains("idx#1"),
        "secondary chosen:\n{}",
        plan.explain()
    );
    assert!(filters(&plan).is_empty(), "{}", plan.explain());
    let r = db.query(&Statement::Select(q_lookup)).run().unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Int32(123));
}

/// `t(a, id, b, c)` keyed on `id`, which is not column 0, under a B+ tree
/// primary, a secondary B+ tree whose includes repeat its keys and the
/// primary key, and a secondary columnstore named without the primary key;
/// ranged on `a` into four parts when `partitioned`. Returns the rows and
/// the design as written.
fn layout_table(partitioned: bool) -> (Database, Vec<Row>, [IndexDescriptor; 3]) {
    let db = Database::new(DbConfig::default());
    let schema = Schema::from_pairs(&[
        ("a", DataType::Int32),
        ("id", DataType::Int32),
        ("b", DataType::Int64),
        ("c", DataType::Int32),
    ]);
    let design = [
        IndexDescriptor::PrimaryBTree { keys: vec![1] },
        IndexDescriptor::SecondaryBTree {
            keys: vec![2, 1],
            includes: vec![3, 2, 1],
        },
        IndexDescriptor::SecondaryCsi {
            columns: vec![3, 0],
        },
    ];
    if partitioned {
        let spec = PartitionSpec::range(0, [10, 20, 30].map(Value::Int32).to_vec()).unwrap();
        db.create_partitioned_table("t", schema, vec![1], design[0].clone(), spec)
            .unwrap();
    } else {
        db.create_table("t", schema, vec![1], design[0].clone())
            .unwrap();
    }
    let rows: Vec<Row> = (0..2_000)
        .map(|i| {
            Row::new(vec![
                Value::Int32(i % 40),
                Value::Int32(i),
                Value::Int64(i64::from(i % 97)),
                Value::Int32(i % 7),
            ])
        })
        .collect();
    db.load_table("t", rows.clone()).unwrap();
    for d in &design[1..] {
        db.create_index("t", d).unwrap();
    }
    (db, rows, design)
}

fn leaves<'p>(node: &'p PlanNode, out: &mut Vec<&'p PlanNode>) {
    out.extend(
        node.walk()
            .map(|(_, n)| n)
            .filter(|n| n.children().next().is_none()),
    );
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

/// Every row of part `p`, through a full scan of its index `i` producing
/// table columns `cols`.
fn scan(db: &Database, t: &Table, p: usize, i: usize, cols: &[usize]) -> Vec<Row> {
    let (table, part, index, dop) = (0, p, IndexId(i), 1);
    let kind = if t.part(p).indexes()[i].descriptor().is_csi() {
        PlanNodeKind::CsiScan {
            table,
            part,
            index,
            intervals: HashMap::new(),
            dop,
        }
    } else {
        PlanNodeKind::BTreeScan {
            table,
            part,
            index,
            dop,
        }
    };
    let plan = PhysicalPlan {
        root: PlanNode::new(
            kind,
            cols.iter().map(|&c| PlanCol::Base(0, c)).collect(),
            cols.iter().map(|&c| t.schema().column(c).dtype).collect(),
            0.0,
        ),
        tables: vec![PlanTable {
            name: "t".into(),
            parts: t.num_parts(),
        }],
        est_cost_us: 0.0,
        est_cpu_us: 0.0,
    };
    let result = QueryRunner::new(vec![t], db.pool(), 1 << 20).run(&plan);
    sorted(result.unwrap().rows)
}

/// One layout, decided by the descriptor ([`IndexDescriptor::stored_columns`]):
/// every built index stores it, the optimizer plans a B+ tree's output
/// columns by it and the executor finds a columnstore's columns by it, on a
/// table whose primary key is not column 0, whole and partitioned. And a
/// scan through any index returns the rows the primary returns.
#[test]
fn every_index_is_planned_and_read_in_its_descriptors_layout() {
    let (arity, pk) = (4, [1]);
    for partitioned in [false, true] {
        let (db, rows, design) = layout_table(partitioned);
        let layout = |i: usize| design[i].stored_columns(arity, &pk);
        assert_eq!(layout(1), [2, 1, 3]);
        assert_eq!(layout(2), [3, 0, 1]);
        db.with_table("t", |t| {
            for p in 0..t.num_parts() {
                let everything = scan(&db, t, p, 0, &layout(0));
                assert!(partitioned || everything.len() == rows.len());
                for (i, index) in t.part(p).indexes().iter().enumerate() {
                    let stored = layout(i);
                    assert_eq!(index.stored(), stored, "part {p} index {i}");
                    assert_eq!(index.descriptor().stored_columns(arity, &pk), stored);
                    for (at, &c) in stored.iter().enumerate() {
                        assert_eq!(index.position(c).unwrap(), at, "part {p} index {i}");
                    }
                    if let Ok(csi) = index.csi() {
                        assert_eq!(*csi.schema(), t.schema().project(&stored));
                        assert!(index.position(2).is_err(), "the columnstore lacks `b`");
                    }
                    // A columnstore produces its columns in any order.
                    let mut cols = stored.clone();
                    if index.descriptor().is_csi() {
                        cols.reverse();
                    }
                    let expected = everything.iter().map(|r| r.project(&cols)).collect();
                    assert_eq!(scan(&db, t, p, i, &cols), sorted(expected));
                }
            }
        })
        .unwrap();

        // The optimizer's B+ tree leaves output their index's layout: a
        // seek on the secondary's leading key, one on the primary key.
        let queries = [
            (1, 2, Value::Int64(13), vec![2, 1, 3]),
            (0, 1, Value::Int32(5), vec![0, 2]),
        ];
        for (i, column, value, select) in queries {
            let predicate = Expr::col_cmp(column, CmpOp::Eq, value.clone());
            let q = SelectQuery::single_table("t", Some(predicate), select.clone());
            let plan = db.plan(&q).unwrap();
            let mut found = Vec::new();
            leaves(&plan.root, &mut found);
            let through: Vec<_> = (found.into_iter())
                .filter(|leaf| {
                    matches!(leaf.kind, PlanNodeKind::BTreeSeek { index, .. } if index == IndexId(i))
                })
                .collect();
            assert!(!through.is_empty(), "index {i}:\n{}", plan.explain());
            for leaf in through {
                let planned: Vec<PlanCol> =
                    (layout(i).iter()).map(|&c| PlanCol::Base(0, c)).collect();
                assert_eq!(leaf.out_cols, planned, "index {i}:\n{}", plan.explain());
            }
            let expected = (rows.iter())
                .filter(|r| r[column] == value)
                .map(|r| r.project(&select))
                .collect();
            let answered = db.query(&Statement::Select(q)).run().unwrap().rows;
            assert_eq!(sorted(answered), sorted(expected), "index {i}");
        }
    }
}

fn find_leaf(node: &hpd_engine::plan::PlanNode) -> Option<PlanNodeKind> {
    match &node.kind {
        PlanNodeKind::BTreeSeek { .. }
        | PlanNodeKind::BTreeScan { .. }
        | PlanNodeKind::CsiScan { .. }
        | PlanNodeKind::CsiAgg { .. } => Some(node.kind.clone()),
        PlanNodeKind::PartitionedScan { parts, .. } => parts.first().and_then(find_leaf),
        PlanNodeKind::Snapshot { child, .. }
        | PlanNodeKind::PkLookup { child, .. }
        | PlanNodeKind::Filter { child, .. }
        | PlanNodeKind::Project { child, .. }
        | PlanNodeKind::HashAgg { child, .. }
        | PlanNodeKind::StreamAgg { child, .. }
        | PlanNodeKind::Sort { child, .. }
        | PlanNodeKind::Limit { child, .. } => find_leaf(child),
        PlanNodeKind::IndexNLJoin { outer, .. } => find_leaf(outer),
        PlanNodeKind::HashJoin { left, .. } => find_leaf(left),
    }
}

// ----------------------------------------------------------------------
// Estimates: each predicate applied once, hash work priced per mode,
// ranges interpolated inside a histogram bucket.
// ----------------------------------------------------------------------

fn filters(plan: &PhysicalPlan) -> Vec<&PlanNode> {
    (plan.root.walk())
        .map(|(_, n)| n)
        .filter(|n| matches!(n.kind, PlanNodeKind::Filter { .. }))
        .collect()
}

fn conjuncts(filter: &PlanNode) -> usize {
    match &filter.kind {
        PlanNodeKind::Filter {
            predicate: Expr::And(es),
            ..
        } => es.len(),
        PlanNodeKind::Filter { .. } => 1,
        _ => panic!("not a filter"),
    }
}

#[test]
fn a_filter_over_a_seek_keeps_the_rest_of_the_predicate_once() {
    let db = db_hdd();
    setup_composite(&db, 40_000);
    // The seek consumes w and d of the key (w, d, k); v < 20 000 is left.
    let pred = Expr::And(vec![
        Expr::col_cmp(0, CmpOp::Eq, Value::Int32(2)),
        Expr::col_cmp(1, CmpOp::Eq, Value::Int32(3)),
        Expr::col_cmp(3, CmpOp::Lt, Value::Int32(20_000)),
    ]);
    let q = SelectQuery::single_table("t", Some(pred.clone()), vec![3]);
    let plan = db.plan(&q).unwrap();
    assert!(
        matches!(find_leaf(&plan.root), Some(PlanNodeKind::BTreeSeek { .. })),
        "{}",
        plan.explain()
    );
    let [filter] = filters(&plan)[..] else {
        panic!("one filter:\n{}", plan.explain());
    };
    assert_eq!(
        conjuncts(filter),
        1,
        "only v's conjunct:\n{}",
        plan.explain()
    );
    let PlanNodeKind::Filter { predicate, .. } = &filter.kind else {
        unreachable!()
    };
    assert!(
        matches!(predicate, Expr::Cmp { op: CmpOp::Lt, rhs, .. } if **rhs == Expr::Lit(Value::Int32(20_000))),
        "{predicate:?}"
    );
    let sel = db
        .with_table("t", |t| {
            t.stats().intervals_selectivity(&pred.column_intervals())
        })
        .unwrap();
    let seek = filter.children().next().unwrap();
    assert!(
        filter.est_rows <= 40_000.0 * sel + 1e-9,
        "{}",
        plan.explain()
    );
    assert!(filter.est_rows <= seek.est_rows, "{}", plan.explain());
    let rows = db.query(&Statement::Select(q)).run().unwrap().rows;
    let expected = (0..40_000)
        .filter(|i| i % 4 == 2 && i / 4 % 10 == 3 && *i < 20_000)
        .count();
    assert_eq!(rows.len(), expected);
}

#[test]
fn under_a_snapshot_overlay_the_filter_stays() {
    let db = db_hdd();
    setup_composite(&db, 4_000);
    let pred = Expr::And(vec![
        Expr::col_cmp(0, CmpOp::Eq, Value::Int32(1)),
        Expr::col_cmp(1, CmpOp::Ge, Value::Int32(2)),
        Expr::col_cmp(1, CmpOp::Lt, Value::Int32(5)),
    ]);
    let q = SelectQuery::single_table("t", Some(pred), vec![0, 1, 3]);
    let mut ctx = db.context_for("t").unwrap();
    ctx.snapshot_overlay = true;
    let cost = CostModel::new(DeviceProfile::hdd_scaled(40.0), 1, 1 << 20);
    let plan = Optimizer::new(cost).plan(&q, &[ctx]).unwrap();
    assert!(plan.explain().contains("Snapshot"), "{}", plan.explain());
    let [filter] = filters(&plan)[..] else {
        panic!("one filter:\n{}", plan.explain());
    };
    // The old versions the snapshot appends are checked on every conjunct.
    assert_eq!(conjuncts(filter), 3, "{}", plan.explain());
}

#[test]
fn a_key_range_window_is_interpolated_and_seeks_on_the_hybrid() {
    use hpd_workloads::tpch::{load_lineitem, MixedDesign};
    let db = db_hdd();
    load_lineitem(&db, 20_000, 1, MixedDesign::BTreeWithSecondaryCsi).unwrap();
    let col = |name| {
        db.with_table("lineitem", |t| t.schema().index_of(name))
            .unwrap()
    };
    let (orderkey, linenumber, quantity) = (
        col("l_orderkey").unwrap(),
        col("l_linenumber").unwrap(),
        col("l_quantity").unwrap(),
    );
    // Five orders' lines, as `htap`'s key-range select reads them.
    for k in [17, 1_000, 4_000] {
        let q = SelectQuery::single_table(
            "lineitem",
            Some(Expr::between(
                orderkey,
                Value::Int32(k),
                Value::Int32(k + 4),
            )),
            vec![orderkey, linenumber, quantity],
        );
        let plan = db.plan(&q).unwrap();
        assert!(
            matches!(find_leaf(&plan.root), Some(PlanNodeKind::BTreeSeek { .. })),
            "{}",
            plan.explain()
        );
        let actual = db.query(&Statement::Select(q)).run().unwrap().rows.len() as f64;
        let est = plan.root.est_rows;
        assert!(
            (10.0..=30.0).contains(&actual) && est <= 2.0 * actual && actual <= 2.0 * est,
            "orders {k}..={}: estimated {est}, read {actual}\n{}",
            k + 4,
            plan.explain()
        );
    }
}

#[test]
fn a_string_range_keeps_the_bucket_credits() {
    let schema = Schema::from_pairs(&[("s", DataType::Utf8), ("i", DataType::Int32)]);
    let rows: Vec<Row> = (0..10_000)
        .map(|i| Row::new(vec![Value::str(format!("s{i:04}")), Value::Int32(i)]))
        .collect();
    let stats =
        TableStats::analyze_encoded(&schema, &EncodedRows::from_rows(&rows), 1_000).unwrap();
    let (s, i) = (&stats.columns[0], &stats.columns[1]);
    assert_eq!(s.bucket_bounds.len(), 64);
    let strings = |lo: i32, hi: i32| {
        let v = |x: i32| Value::str(format!("s{x:04}"));
        s.selectivity(&Interval::between(v(lo), v(hi)), 10_000)
    };
    let ints = |lo: i32, hi: i32| {
        i.selectivity(
            &Interval::between(Value::Int32(lo), Value::Int32(hi)),
            10_000,
        )
    };
    // Strictly inside one bucket: 0.3 of it; across the first bound: the
    // first bucket whole and half of the second.
    assert_eq!(strings(5_000, 5_002), 0.3 / 64.0);
    assert_eq!(strings(100, 200), 1.5 / 64.0);
    // The same windows on integers count the values they hold.
    assert!((ints(5_000, 5_002) - 3.0 / 10_000.0).abs() < 1e-4);
    assert!((ints(100, 200) - 101.0 / 10_000.0).abs() < 1e-3);
}

/// `name(id, v, w)` with `n` rows under `primary`: v = id % 100, w = id % 7.
fn small_table(db: &Database, name: &str, n: i32, primary: IndexDescriptor) {
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int32),
        ("v", DataType::Int32),
        ("w", DataType::Int32),
    ]);
    db.create_table(name, schema, vec![0], primary).unwrap();
    let rows = (0..n).map(|i| {
        Row::new(vec![
            Value::Int32(i),
            Value::Int32(i % 100),
            Value::Int32(i % 7),
        ])
    });
    db.load_table(name, rows.collect()).unwrap();
}

fn node<'p>(plan: &'p PhysicalPlan, kind: &str) -> &'p PlanNode {
    (plan.root.walk())
        .map(|(_, n)| n)
        .find(|n| n.kind_name() == kind)
        .unwrap_or_else(|| panic!("no {kind}:\n{}", plan.explain()))
}

#[test]
fn hash_joins_and_aggregates_are_priced_at_their_modes_constant() {
    let m = CostModel::new(DeviceProfile::ram(), 1, 0);
    let (row_us, batch_us) = (m.cpu_hash_us, m.cpu_hash_batch_us);
    let db = db_hdd();
    let btree = IndexDescriptor::PrimaryBTree { keys: vec![0] };
    small_table(&db, "rows_a", 5_000, btree.clone());
    small_table(&db, "rows_b", 100, btree);
    small_table(&db, "cols_a", 5_000, IndexDescriptor::PrimaryCsi);
    for (fact, mode, price) in [
        ("rows_a", Mode::Row, row_us),
        ("cols_a", Mode::Batch, batch_us),
    ] {
        // Joined on v, which no index leads: a hash join.
        let join = SelectQuery {
            tables: vec![TableInput::new(fact), TableInput::new("rows_b")],
            joins: vec![hpd_engine::EquiJoin {
                left: ColRef::new(0, 1),
                right: ColRef::new(1, 1),
            }],
            select: vec![ColRef::new(0, 0), ColRef::new(1, 2)],
            ..Default::default()
        };
        let plan = db.plan(&join).unwrap();
        let hj = node(&plan, "HashJoin");
        assert_eq!(hj.mode(), mode, "{}", plan.explain());
        let hashed: f64 = hj.children().map(|c| c.est_rows).sum();
        let want = hashed * price + hj.est_rows * 0.02;
        assert!(
            (hj.est_cpu_us - want).abs() < 1e-6 * want,
            "{}",
            plan.explain()
        );
        // Grouped on w, which no index orders: a hash aggregate.
        let agg = SelectQuery {
            tables: vec![TableInput::new(fact)],
            group_by: vec![ColRef::new(0, 2)],
            aggregates: vec![AggItem::column(AggFunc::Sum, ColRef::new(0, 1))],
            ..Default::default()
        };
        let plan = db.plan(&agg).unwrap();
        let ha = node(&plan, "HashAgg");
        assert_eq!(ha.mode(), mode, "{}", plan.explain());
        let input = ha.children().next().unwrap().est_rows;
        assert_eq!(ha.est_cpu_us, input * price, "{}", plan.explain());
    }
}

#[test]
fn a_hash_join_spills_only_if_the_side_it_builds_on_outgrows_the_grant() {
    let db = db_hdd();
    let btree = IndexDescriptor::PrimaryBTree { keys: vec![0] };
    small_table(&db, "small", 10, btree.clone());
    small_table(&db, "large", 20_000, btree);
    // The greedy order starts from the smaller input: small on the left.
    let join = SelectQuery {
        tables: vec![TableInput::new("small"), TableInput::new("large")],
        joins: vec![hpd_engine::EquiJoin {
            left: ColRef::new(0, 1),
            right: ColRef::new(1, 1),
        }],
        select: vec![ColRef::new(0, 0), ColRef::new(1, 2)],
        ..Default::default()
    };
    // 10 rows fit in 4 KiB, 20 000 rows do not.
    let plan = db.plan_with_grant(&join, 4 << 10).unwrap();
    let hj = node(&plan, "HashJoin");
    let PlanNodeKind::HashJoin { left, right, .. } = &hj.kind else {
        unreachable!()
    };
    assert!(left.est_rows < right.est_rows, "{}", plan.explain());
    let (_, build) = PlanNode::hash_join_build(left, right);
    assert!(std::ptr::eq(build, &**left), "builds on the small side");
    assert_eq!(hj.est_io_us, 0.0, "no spill charged:\n{}", plan.explain());
    // No grant at all: the small side spills too.
    let plan = db.plan_with_grant(&join, 0).unwrap();
    assert!(
        node(&plan, "HashJoin").est_io_us > 0.0,
        "{}",
        plan.explain()
    );
}

#[test]
fn micro_q1_seeks_below_the_crossover_and_scans_the_columnstore_above() {
    use hpd_workloads::micro::MicroTable;
    let mut cfg = DbConfig::default();
    cfg.csi.rowgroup_capacity = 4_096;
    let db = Database::new(cfg);
    let table = MicroTable::new("micro", 3, 40_000);
    table
        .load(&db, IndexDescriptor::PrimaryBTree { keys: vec![0] })
        .unwrap();
    db.create_index(
        "micro",
        &IndexDescriptor::SecondaryCsi {
            columns: vec![0, 1, 2],
        },
    )
    .unwrap();
    let leaf = |sel| find_leaf(&db.plan(&table.q1(sel)).unwrap().root);
    assert!(
        matches!(leaf(1e-5), Some(PlanNodeKind::BTreeSeek { .. })),
        "{:?}",
        leaf(1e-5)
    );
    assert!(
        matches!(
            leaf(0.1),
            Some(PlanNodeKind::CsiScan { .. } | PlanNodeKind::CsiAgg { .. })
        ),
        "{:?}",
        leaf(0.1)
    );
}
