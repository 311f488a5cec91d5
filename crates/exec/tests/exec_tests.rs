//! Operator tests: correctness of each operator, spill behaviour under
//! constrained grants, and row/batch mode equivalence.

use std::collections::HashMap;
use std::ops::Bound;

use hpd_btree::{BTree, BTreeConfig};
use hpd_columnstore::{ColumnStoreIndex, CsiConfig, CsiKind};
use hpd_common::{
    AggFunc, Batch, CmpOp, ColumnVector, DataType, Expr, Interval, Key, Row, Schema, Value,
};
use hpd_exec::ops::sort::SortKey;
use hpd_exec::{
    collect_rows, AggSpec, BTreeRangeScanOp, CsiScanOp, ExecCtx, FilterOp, HashAggOp, HashJoinOp,
    IndexLookupJoinOp, LimitOp, Mode, Operator, ParallelOp, ProjectOp, SortOp, StreamAggOp,
    ValuesOp,
};
use hpd_storage::{BufferPool, DeviceProfile, IoTracker, StorageAllocator};
use proptest::prelude::*;

fn pool() -> BufferPool {
    BufferPool::unbounded(DeviceProfile::ram())
}

fn int_batch(vals: &[(i32, i32)]) -> Batch {
    Batch::new(vec![
        ColumnVector::Int32(vals.iter().map(|v| v.0).collect()),
        ColumnVector::Int32(vals.iter().map(|v| v.1).collect()),
    ])
}

fn values_op(vals: &[(i32, i32)]) -> Box<ValuesOp> {
    Box::new(ValuesOp::new(
        vec![DataType::Int32, DataType::Int32],
        vec![int_batch(vals)],
    ))
}

fn rows_to_pairs(rows: Vec<Row>) -> Vec<(i32, i32)> {
    rows.iter()
        .map(|r| (r[0].as_i32().unwrap(), r[1].as_i32().unwrap()))
        .collect()
}

#[test]
fn filter_modes_agree() {
    let data: Vec<(i32, i32)> = (0..100).map(|i| (i, i * 3)).collect();
    let pred = Expr::col_cmp(0, CmpOp::Lt, Value::Int32(10));
    let p = pool();
    for mode in [Mode::Row, Mode::Batch] {
        let ctx = ExecCtx::new(&p);
        let mut op = FilterOp::new(values_op(&data), pred.clone(), mode);
        let rows = collect_rows(&mut op, &ctx).unwrap();
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|r| r[0].as_i32().unwrap() < 10));
    }
}

#[test]
fn project_computes_expressions() {
    let data = [(1, 10), (2, 20)];
    let p = pool();
    let ctx = ExecCtx::new(&p);
    let mut op = ProjectOp::new(
        values_op(&data),
        vec![Expr::arith(
            hpd_common::BinOp::Add,
            Expr::Col(0),
            Expr::Col(1),
        )],
        vec![DataType::Int64],
        Mode::Batch,
    );
    let rows = collect_rows(&mut op, &ctx).unwrap();
    assert_eq!(rows[0][0], Value::Int64(11));
    assert_eq!(rows[1][0], Value::Int64(22));
}

#[test]
fn hash_agg_groups_correctly() {
    let data: Vec<(i32, i32)> = (0..1000).map(|i| (i % 10, 1)).collect();
    let p = pool();
    let ctx = ExecCtx::new(&p);
    let mut op = HashAggOp::new(
        values_op(&data),
        vec![0],
        vec![
            AggSpec::new(AggFunc::Count, 0),
            AggSpec::new(AggFunc::Sum, 1),
        ],
    );
    let mut rows = collect_rows(&mut op, &ctx).unwrap();
    rows.sort_by_key(|r| r[0].as_i32().unwrap());
    assert_eq!(rows.len(), 10);
    for (g, r) in rows.iter().enumerate() {
        assert_eq!(r[0], Value::Int32(g as i32));
        assert_eq!(r[1], Value::Int64(100));
        assert_eq!(r[2], Value::Int64(100));
    }
}

#[test]
fn hash_agg_spills_under_tight_grant_and_stays_correct() {
    // 10k distinct groups with a grant that fits only a fraction.
    let data: Vec<(i32, i32)> = (0..10_000).map(|i| (i, 2)).collect();
    let p = pool();
    let ctx = ExecCtx::with_grant(&p, 64 * 1024);
    let mut op = HashAggOp::new(
        values_op(&data),
        vec![0],
        vec![AggSpec::new(AggFunc::Sum, 1)],
    );
    let rows = collect_rows(&mut op, &ctx).unwrap();
    assert_eq!(rows.len(), 10_000);
    assert!(rows.iter().all(|r| r[1] == Value::Int64(2)));
    let io = ctx.tracker.snapshot();
    assert!(io.bytes_written > 0, "spill must write to disk");
    assert!(io.bytes_read > 0, "spilled partitions must be read back");
}

#[test]
fn hash_agg_no_spill_with_ample_grant() {
    let data: Vec<(i32, i32)> = (0..1000).map(|i| (i, 1)).collect();
    let p = pool();
    let ctx = ExecCtx::with_grant(&p, 10 << 20);
    let mut op = HashAggOp::new(
        values_op(&data),
        vec![0],
        vec![AggSpec::new(AggFunc::Count, 0)],
    );
    let rows = collect_rows(&mut op, &ctx).unwrap();
    assert_eq!(rows.len(), 1000);
    assert_eq!(ctx.tracker.snapshot().bytes_written, 0);
    assert!(ctx.grant.peak_bytes() > 0);
    assert_eq!(ctx.grant.used_bytes(), 0, "memory released at end");
}

#[test]
fn global_aggregates_on_empty_and_nonempty_input() {
    let p = pool();
    let ctx = ExecCtx::new(&p);
    let mut op = HashAggOp::new(
        values_op(&[]),
        vec![],
        vec![
            AggSpec::new(AggFunc::Count, 0),
            AggSpec::new(AggFunc::Sum, 1),
            AggSpec::new(AggFunc::Avg, 1),
        ],
    );
    let rows = collect_rows(&mut op, &ctx).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::Int64(0));
    assert_eq!(rows[0][1], Value::Int64(0));
    assert_eq!(rows[0][2], Value::Float64(0.0));

    let mut op = HashAggOp::new(
        values_op(&[(1, 4), (2, 6)]),
        vec![],
        vec![
            AggSpec::new(AggFunc::Min, 1),
            AggSpec::new(AggFunc::Max, 1),
            AggSpec::new(AggFunc::Avg, 1),
        ],
    );
    let rows = collect_rows(&mut op, &ctx).unwrap();
    assert_eq!(rows[0][0], Value::Int32(4));
    assert_eq!(rows[0][1], Value::Int32(6));
    assert_eq!(rows[0][2], Value::Float64(5.0));
}

#[test]
fn stream_agg_matches_hash_agg_on_sorted_input() {
    let mut data: Vec<(i32, i32)> = (0..500).map(|i| (i % 7, i)).collect();
    data.sort();
    let p = pool();
    let ctx = ExecCtx::new(&p);
    let mut hash = HashAggOp::new(
        values_op(&data),
        vec![0],
        vec![AggSpec::new(AggFunc::Sum, 1), AggSpec::new(AggFunc::Max, 1)],
    );
    let mut stream = StreamAggOp::new(
        values_op(&data),
        vec![0],
        vec![AggSpec::new(AggFunc::Sum, 1), AggSpec::new(AggFunc::Max, 1)],
    );
    let mut h = collect_rows(&mut hash, &ctx).unwrap();
    let s = collect_rows(&mut stream, &ctx).unwrap();
    h.sort_by_key(|r| r[0].as_i32().unwrap());
    assert_eq!(h, s, "stream output is already sorted by group key");
}

#[test]
fn stream_agg_uses_no_grant_memory() {
    let mut data: Vec<(i32, i32)> = (0..5000).map(|i| (i, 1)).collect();
    data.sort();
    let p = pool();
    let ctx = ExecCtx::with_grant(&p, 1024); // tiny grant
    let mut op = StreamAggOp::new(
        values_op(&data),
        vec![0],
        vec![AggSpec::new(AggFunc::Count, 0)],
    );
    let rows = collect_rows(&mut op, &ctx).unwrap();
    assert_eq!(rows.len(), 5000);
    assert_eq!(ctx.tracker.snapshot().bytes_written, 0, "never spills");
}

#[test]
fn sort_in_memory_and_external_agree() {
    let data: Vec<(i32, i32)> = (0..2000)
        .map(|i| ((i * 37) % 500, (i * 13) % 100))
        .collect();
    let p = pool();
    let sorted_with = |grant: usize| {
        let ctx = ExecCtx::with_grant(&p, grant);
        let mut op = SortOp::new(values_op(&data), vec![SortKey::asc(0), SortKey::desc(1)]);
        let rows = collect_rows(&mut op, &ctx).unwrap();
        (rows_to_pairs(rows), ctx.tracker.snapshot())
    };
    let (in_mem, io_mem) = sorted_with(100 << 20);
    let (external, io_ext) = sorted_with(8 * 1024);
    assert_eq!(in_mem, external);
    assert_eq!(io_mem.bytes_written, 0);
    assert!(io_ext.bytes_written > 0, "external sort spills runs");
    // Verify ordering.
    for w in in_mem.windows(2) {
        assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 >= w[1].1));
    }
}

#[test]
fn limit_truncates() {
    let data: Vec<(i32, i32)> = (0..100).map(|i| (i, i)).collect();
    let p = pool();
    let ctx = ExecCtx::new(&p);
    let mut op = LimitOp::new(values_op(&data), 7);
    assert_eq!(collect_rows(&mut op, &ctx).unwrap().len(), 7);
    let mut op = LimitOp::new(values_op(&data), 1000);
    assert_eq!(collect_rows(&mut op, &ctx).unwrap().len(), 100);
}

#[test]
fn hash_join_inner_equi() {
    let left: Vec<(i32, i32)> = vec![(1, 10), (2, 20), (3, 30), (2, 21)];
    let right: Vec<(i32, i32)> = vec![(2, 200), (3, 300), (4, 400), (2, 201)];
    let p = pool();
    let ctx = ExecCtx::new(&p);
    let mut op = HashJoinOp::new(values_op(&left), values_op(&right), vec![(0, 0)]);
    let mut rows = collect_rows(&mut op, &ctx).unwrap();
    rows.sort();
    assert_eq!(rows.len(), 5); // 2 left twos × 2 right twos + one three
    assert!(rows
        .iter()
        .all(|r| r[0].as_i32().unwrap() == r[2].as_i32().unwrap()));
}

#[test]
fn hash_join_spills_and_stays_correct() {
    let left: Vec<(i32, i32)> = (0..3000).map(|i| (i % 1000, i)).collect();
    let right: Vec<(i32, i32)> = (0..1000).map(|i| (i, i * 2)).collect();
    let p = pool();
    let expected = {
        let ctx = ExecCtx::new(&p);
        let mut op = HashJoinOp::new(values_op(&left), values_op(&right), vec![(0, 0)]);
        let mut rows = collect_rows(&mut op, &ctx).unwrap();
        rows.sort();
        rows
    };
    let ctx = ExecCtx::with_grant(&p, 8 * 1024);
    let mut op = HashJoinOp::new(values_op(&left), values_op(&right), vec![(0, 0)]);
    let mut rows = collect_rows(&mut op, &ctx).unwrap();
    rows.sort();
    assert_eq!(rows, expected);
    assert!(
        ctx.tracker.snapshot().bytes_written > 0,
        "grace partitions spill"
    );
}

#[test]
fn index_lookup_join_seeks_per_outer_row() {
    // Build a primary B+ tree keyed on col0 with duplicate keys.
    let p = BufferPool::unbounded(DeviceProfile::hdd_raid());
    let t = IoTracker::new();
    let entries: Vec<(Key, Row)> = (0..1000)
        .map(|i| {
            (
                Key::single(Value::Int32(i / 2)),
                Row::new(vec![Value::Int32(i / 2), Value::Int32(i)]),
            )
        })
        .collect();
    let tree = BTree::bulk_load(
        BTreeConfig::for_entry_width(16),
        StorageAllocator::new(),
        entries,
        &p,
        &t,
    )
    .unwrap();
    p.clear();
    let ctx = ExecCtx::new(&p);
    let outer = values_op(&[(100, 0), (200, 0)]);
    let mut op = IndexLookupJoinOp::new(
        outer,
        &tree,
        vec![0],
        vec![DataType::Int32, DataType::Int32],
    );
    let rows = collect_rows(&mut op, &ctx).unwrap();
    assert_eq!(rows.len(), 4, "two matches per outer key");
    // Selective seeks touch few pages compared to the tree's leaf count.
    let io = ctx.tracker.snapshot();
    assert!(io.logical_reads < 20);
}

#[test]
fn btree_scan_operator_respects_bounds() {
    let p = pool();
    let t = IoTracker::new();
    let entries: Vec<(Key, Row)> = (0..100)
        .map(|i| {
            (
                Key::single(Value::Int32(i)),
                Row::new(vec![Value::Int32(i), Value::Int32(i * 2)]),
            )
        })
        .collect();
    let tree = BTree::bulk_load(
        BTreeConfig::default(),
        StorageAllocator::new(),
        entries,
        &p,
        &t,
    )
    .unwrap();
    let ctx = ExecCtx::new(&p);
    let mut op = BTreeRangeScanOp::new(
        &tree,
        vec![DataType::Int32, DataType::Int32],
        Bound::Included(Key::single(Value::Int32(10))),
        Bound::Excluded(Key::single(Value::Int32(15))),
    );
    let rows = collect_rows(&mut op, &ctx).unwrap();
    assert_eq!(
        rows.iter()
            .map(|r| r[0].as_i32().unwrap())
            .collect::<Vec<_>>(),
        vec![10, 11, 12, 13, 14]
    );
}

fn build_csi(n: i32) -> (ColumnStoreIndex, BufferPool) {
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let t = IoTracker::new();
    let rows: Vec<Row> = (0..n)
        .map(|i| Row::new(vec![Value::Int32(i), Value::Int32(i % 50)]))
        .collect();
    let idx = ColumnStoreIndex::build(
        Schema::from_pairs(&[("id", DataType::Int32), ("val", DataType::Int32)]),
        CsiKind::Primary,
        vec![0],
        CsiConfig {
            rowgroup_capacity: 128,
            ..CsiConfig::default()
        },
        &rows,
        StorageAllocator::new(),
        &pool,
        &t,
    );
    (idx, pool)
}

#[test]
fn csi_scan_operator_full_and_filtered() {
    let (idx, p) = build_csi(1000);
    let ctx = ExecCtx::new(&p);
    let mut op = CsiScanOp::full(&idx, vec![0, 1], HashMap::new());
    let rows = collect_rows(&mut op, &ctx).unwrap();
    assert_eq!(rows.len(), 1000);

    let mut intervals = HashMap::new();
    intervals.insert(0usize, Interval::less_than(Value::Int32(100), false));
    let scan = Box::new(CsiScanOp::full(&idx, vec![0, 1], intervals));
    let mut filt = FilterOp::new(
        scan,
        Expr::col_cmp(0, CmpOp::Lt, Value::Int32(100)),
        Mode::Batch,
    );
    let rows = collect_rows(&mut filt, &ctx).unwrap();
    assert_eq!(rows.len(), 100);
}

#[test]
fn parallel_csi_scan_equals_serial() {
    let (idx, p) = build_csi(2000);
    let serial = {
        let ctx = ExecCtx::new(&p);
        let mut op = CsiScanOp::full(&idx, vec![0], HashMap::new());
        let mut rows = collect_rows(&mut op, &ctx).unwrap();
        rows.sort();
        rows
    };
    let splits = 4;
    let workers = || -> Vec<Box<dyn Operator + '_>> {
        (0..splits)
            .map(|w| {
                let rgs: Vec<usize> = (0..idx.num_rowgroups())
                    .filter(|rg| rg % splits == w)
                    .collect();
                Box::new(CsiScanOp::over_rowgroups(
                    &idx,
                    rgs,
                    vec![0],
                    HashMap::new(),
                    w == 0, // only one worker scans the delta
                    Default::default(),
                )) as Box<dyn Operator + '_>
            })
            .collect()
    };
    let ctx = ExecCtx::new(&p);
    let mut par = ParallelOp::new(workers(), splits);
    assert_eq!(par.dop(), 4);
    let parallel = collect_rows(&mut par, &ctx).unwrap();
    let mut rows = parallel.clone();
    rows.sort();
    assert_eq!(rows, serial);
    assert!(ctx.worker_cpu() > std::time::Duration::ZERO);
    assert!(ctx.workers.peak_in_use() > 0);

    // DOP 1 over the same four sub-plans: no lease, no worker accounting,
    // and — slots fill by sub-plan index — the very same row order.
    let ctx = ExecCtx::new(&p);
    let mut par = ParallelOp::new(workers(), 1);
    assert_eq!(par.dop(), 1);
    assert_eq!(collect_rows(&mut par, &ctx).unwrap(), parallel);
    assert_eq!(ctx.workers.peak_in_use(), 0);
    assert_eq!(ctx.worker_cpu(), std::time::Duration::ZERO);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_hash_agg_spill_equals_no_spill(
        data in prop::collection::vec((0i32..200, -50i32..50), 0..400),
        grant_kb in 1usize..64,
    ) {
        let data: Vec<(i32,i32)> = data;
        let p = pool();
        let run = |grant: usize| {
            let ctx = ExecCtx::with_grant(&p, grant);
            let mut op = HashAggOp::new(
                values_op(&data),
                vec![0],
                vec![
                    AggSpec::new(AggFunc::Count, 0),
                    AggSpec::new(AggFunc::Sum, 1),
                    AggSpec::new(AggFunc::Min, 1),
                    AggSpec::new(AggFunc::Max, 1),
                ],
            );
            let mut rows = collect_rows(&mut op, &ctx).unwrap();
            rows.sort_by_key(|r| r[0].as_i32().unwrap());
            rows
        };
        prop_assert_eq!(run(grant_kb * 1024), run(usize::MAX >> 2));
    }

    #[test]
    fn prop_sort_external_equals_std_sort(
        data in prop::collection::vec((-100i32..100, -100i32..100), 0..300),
    ) {
        let data: Vec<(i32,i32)> = data;
        let p = pool();
        let ctx = ExecCtx::with_grant(&p, 2048);
        let mut op = SortOp::new(values_op(&data), vec![SortKey::asc(0)]);
        let got: Vec<i32> = collect_rows(&mut op, &ctx).unwrap()
            .iter().map(|r| r[0].as_i32().unwrap()).collect();
        let mut expected: Vec<i32> = data.iter().map(|d| d.0).collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }
}
