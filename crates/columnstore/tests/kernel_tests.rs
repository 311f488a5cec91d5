//! Property tests for the encoded-domain scan kernels: for every integer
//! encoding (RLE, bit-packed, raw, FOR/delta, dictionary), every interval
//! shape, dictionary strings, floats, and the delete-bitmap/delta-store
//! interaction, the pushed-down kernel must select exactly the rows a naive
//! decode-then-filter pass selects — on small segments, and on full-size
//! row groups of a primary columnstore.

use std::collections::{HashMap, HashSet};

use hpd_columnstore::{
    ColumnStoreIndex, CsiConfig, CsiKind, IntEncoding, PushdownAgg, Segment, SortMode,
};
use hpd_common::interval::Bound;
use hpd_common::{AggFunc, Batch, ColumnVector, DataType, Interval, Key, Row, SelBitmap, Value};
use hpd_storage::{BufferPool, DeviceProfile, IoTracker, StorageAllocator};
use proptest::prelude::*;

fn build_segment(dtype: DataType, values: &[Value]) -> Segment {
    let col = ColumnVector::from_values(dtype, values).unwrap();
    Segment::build(&col, &StorageAllocator::new())
}

/// Decode-then-filter reference: positions whose value satisfies the
/// interval.
fn naive_positions(seg: &Segment, iv: &Interval) -> Vec<usize> {
    let col = seg.decode();
    (0..col.len())
        .filter(|&i| iv.contains(&col.value(i)))
        .collect()
}

/// Kernel result: positions surviving `eval_interval` starting from an
/// all-set selection. Panics if the segment reports the interval as
/// unsupported (these tests only use supported type pairings).
fn kernel_positions(seg: &Segment, iv: &Interval) -> Vec<usize> {
    let mut sel = SelBitmap::all_set(seg.rows());
    assert!(
        seg.eval_interval(iv, &mut sel),
        "interval unexpectedly unsupported: {iv:?} on {:?}",
        seg.data_type()
    );
    sel.positions()
}

fn assert_kernel_matches_naive(seg: &Segment, iv: &Interval) {
    let naive = naive_positions(seg, iv);
    let kernel = kernel_positions(seg, iv);
    assert_eq!(
        kernel,
        naive,
        "kernel/naive mismatch for {iv:?} on {:?} segment",
        seg.encoding()
    );
}

/// Interval from a generated shape selector and two pivots: exercises
/// unbounded, point, half-open, and both-inclusivity range forms.
fn int_interval(kind: i32, a: i32, b: i32, inc_lo: bool, inc_hi: bool) -> Interval {
    let (lo, hi) = (a.min(b), a.max(b));
    match kind {
        0 => Interval::all(),
        1 => Interval::point(Value::Int32(a)),
        2 => Interval::less_than(Value::Int32(hi), inc_hi),
        3 => Interval::greater_than(Value::Int32(lo), inc_lo),
        4 => Interval::between(Value::Int32(lo), Value::Int32(hi)),
        _ => Interval {
            lo: if inc_lo {
                Bound::Inclusive(Value::Int32(lo))
            } else {
                Bound::Exclusive(Value::Int32(lo))
            },
            hi: if inc_hi {
                Bound::Inclusive(Value::Int32(hi))
            } else {
                Bound::Exclusive(Value::Int32(hi))
            },
        },
    }
}

/// Integer data shaped to hit a specific encoding: runs for RLE, a dense
/// small domain for bit-packing, a wide sparse domain for raw, a monotone
/// wide-range small-step series for FOR/delta, and interleaved few-distinct
/// wide values for the numeric dictionary.
fn shaped_ints(shape: i32, seeds: &[(i32, i32)]) -> Vec<Value> {
    match shape {
        // Long runs: RLE (16 B/run) must beat dict-coding the 6 distinct
        // levels (~3 bits/row), so runs are ~60-90 rows.
        0 => seeds
            .iter()
            .flat_map(|&(level, run)| {
                std::iter::repeat_n(Value::Int32((level % 6) * 10), 60 + (run % 30) as usize)
            })
            .collect(),
        1 => seeds
            .iter()
            .map(|&(a, b)| Value::Int32(a.wrapping_mul(31).wrapping_add(b) & 0x3ff))
            .collect(),
        2 => seeds
            .iter()
            .map(|&(a, b)| {
                let spread = i64::from(a) * 1_000_000_007 * 130_000_000;
                Value::Int64(i64::MIN / 2 + spread + i64::from(b))
            })
            .collect(),
        // Monotone with ~2^30 steps: values span billions (defeating
        // bit-packing) but the step variation packs into 6 delta bits.
        3 => {
            let mut acc = 1i64 << 30;
            seeds
                .iter()
                .map(|&(a, b)| {
                    acc += (1 << 30) + i64::from((a * 64 + b) % 64);
                    Value::Int64(acc)
                })
                .collect()
        }
        // 8 interleaved levels of 10^15 magnitude: too many runs for RLE,
        // too wide for bit-packing, 3-bit dictionary codes win.
        _ => seeds
            .iter()
            .map(|&(a, b)| Value::Int64(i64::from((a + b) % 8) * 1_000_000_000_000_000))
            .collect(),
    }
}

/// Rows of a full-size shape: four 65 536-row groups in the release run
/// (CI's "Full-size encoded kernels" step), one in the debug run.
const FULL_ROWS: i64 = 65_536 * if cfg!(debug_assertions) { 1 } else { 4 };
/// Spreads the raw shape's 100 000 levels over > 56 bits.
const RAW: i64 = 20_000_000_000_033;

/// Full-size shape `shape` (numbered as in [`shaped_ints`]): row `i`'s
/// value, the number of domain levels, and the stride between levels. Each
/// 65 536-row stripe spans the whole domain, so zone maps eliminate nothing.
fn full_size_shape(shape: i32) -> (fn(i64) -> i64, i64, i64) {
    match shape {
        // 256-long runs of a slowly advancing level.
        0 => (|i| i % 65_536 / 256, 256, 1),
        // A pseudo-random 12-bit domain.
        1 => (|i| i * 2_654_435_761 % 4096, 4096, 1),
        // ~48 K distinct values a row group, too wide to pack.
        2 => (|i| i * 2_654_435_761 % 100_000 * RAW, 100_000, RAW),
        // Monotone in a stripe, ~10^6 steps with a jitter: deltas fit 7 bits.
        3 => (|i| i % 65_536 * 1_000_003 + i * 7 % 61, 65_536, 1_000_003),
        // 1024 interleaved 30-bit levels: 10-bit codes.
        _ => (|i| i * 2_654_435_761 % 1024 * 1_000_003, 1024, 1_000_003),
    }
}

/// A full-size shape in a primary columnstore, in arrival order: every row
/// group encodes `val` as `encoding`, and at 0.01 / 1 / 50 / 100 %
/// selectivity the pushed-down scan returns the generated rows an
/// `Interval::contains` filter keeps, in order, and the pushed-down SUM
/// their total (or the overflow error where it leaves `i64`).
fn full_size_shape_matches_filtered_rows(shape: i32, encoding: IntEncoding) {
    let (value, levels, stride) = full_size_shape(shape);
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let t = IoTracker::new();
    let rows: Vec<Row> = (0..FULL_ROWS)
        .map(|i| Row::new(vec![Value::Int64(i), Value::Int64(value(i))]))
        .collect();
    let idx = ColumnStoreIndex::build(
        hpd_common::Schema::from_pairs(&[("id", DataType::Int64), ("val", DataType::Int64)]),
        CsiKind::Primary,
        vec![0],
        CsiConfig {
            sort_mode: SortMode::Arrival,
            ..CsiConfig::default()
        },
        &rows,
        StorageAllocator::new(),
        &pool,
        &t,
    );
    for g in 0..idx.num_rowgroups() {
        let got = idx.rowgroup(g).segment(1).encoding();
        assert_eq!(got, encoding, "shape {shape}, group {g}");
    }
    let sum = [PushdownAgg {
        func: AggFunc::Sum,
        col: 1,
    }];
    for frac in [0.0001, 0.01, 0.5, 1.0] {
        let bound = ((levels as f64 * frac) as i64).max(1) * stride;
        let iv = Interval::less_than(Value::Int64(bound), false);
        let want: Vec<Row> = rows
            .iter()
            .filter(|r| iv.contains(&r.values()[1]))
            .cloned()
            .collect();
        let intervals = HashMap::from([(1, iv)]);
        let got: Vec<Row> = (idx.scan_collect(&[0, 1], &intervals, &pool, &t).iter())
            .flat_map(Batch::to_rows)
            .collect();
        // Not `assert_eq!`: a mismatch would print 262 144 rows.
        let (n, m) = (got.len(), want.len());
        assert!(
            got == want,
            "shape {shape} at {frac}: the scan kept {n} rows, the filter {m}"
        );
        let total: i128 = want
            .iter()
            .map(|r| i128::from(r.values()[1].as_i64().unwrap()))
            .sum();
        let pushed = idx
            .agg_collect(&sum, &intervals, &pool, &t)
            .expect("SUM has a kernel");
        // `None` on both sides when the total leaves `i64`.
        let total = i64::try_from(total).ok().map(|s| vec![Value::Int64(s)]);
        assert_eq!(pushed.ok(), total, "shape {shape} at {frac}: SUM");
    }
}

#[test]
fn shaped_data_hits_all_encodings() {
    // Pin the encodings the shapes are designed to produce, so the
    // property tests below demonstrably cover RLE, BitPacked, Raw,
    // ForDelta, and Dict — on a 64-value segment, and on full-size row
    // groups whose encoded scan and SUM are checked against the rows.
    let seeds: Vec<(i32, i32)> = (0..64).map(|i| (i % 7, i * 13 % 29)).collect();
    let encodings = [
        IntEncoding::Rle,
        IntEncoding::BitPacked,
        IntEncoding::Raw,
        IntEncoding::ForDelta,
        IntEncoding::Dict,
    ];
    for (shape, encoding) in (0..).zip(encodings) {
        let seg = build_segment(shape_dtype(shape), &shaped_ints(shape, &seeds));
        assert_eq!(seg.encoding(), encoding, "shape {shape}");
        full_size_shape_matches_filtered_rows(shape, encoding);
    }
}

/// Interval from two pivot values drawn from the segment's own domain
/// (Int32 literals can't reach the wide FOR/delta and dict domains).
fn value_interval(kind: i32, a: Value, b: Value, inc_lo: bool, inc_hi: bool) -> Interval {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    match kind {
        0 => Interval::all(),
        1 => Interval::point(lo),
        2 => Interval::less_than(hi, inc_hi),
        3 => Interval::greater_than(lo, inc_lo),
        4 => Interval::between(lo, hi),
        _ => Interval {
            lo: if inc_lo {
                Bound::Inclusive(lo)
            } else {
                Bound::Exclusive(lo)
            },
            hi: if inc_hi {
                Bound::Inclusive(hi)
            } else {
                Bound::Exclusive(hi)
            },
        },
    }
}

fn shape_dtype(shape: i32) -> DataType {
    if shape >= 2 {
        DataType::Int64
    } else {
        DataType::Int32
    }
}

#[test]
fn interval_shapes_on_each_encoding() {
    let seeds: Vec<(i32, i32)> = (0..80).map(|i| (i % 9, i * 17 % 23)).collect();
    for shape in 0..5 {
        let dtype = shape_dtype(shape);
        let data = shaped_ints(shape, &seeds);
        let seg = build_segment(dtype, &data);
        // Point at an existing value, a run boundary, an absent value, and
        // bounds beyond both extremes.
        let probe: Vec<Interval> = vec![
            Interval::all(),
            Interval::point(data[0].clone()),
            Interval::point(data[data.len() - 1].clone()),
            Interval::point(Value::Int32(-1)),
            Interval::less_than(seg.min().clone(), false),
            Interval::greater_than(seg.max().clone(), false),
            Interval::between(seg.min().clone(), seg.max().clone()),
            Interval {
                lo: Bound::Exclusive(seg.min().clone()),
                hi: Bound::Exclusive(seg.max().clone()),
            },
        ];
        for iv in &probe {
            assert_kernel_matches_naive(&seg, iv);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_int_kernels_match_naive(
        shape in 0i32..5,
        seeds in prop::collection::vec((0i32..64, 0i32..64), 1..120),
        kind in 0i32..6,
        a in -5i32..70,
        b in -5i32..70,
        inc_lo in prop::bool::ANY,
        inc_hi in prop::bool::ANY,
    ) {
        let data = shaped_ints(shape, &seeds);
        let seg = build_segment(shape_dtype(shape), &data);
        let iv = int_interval(kind, a, b, inc_lo, inc_hi);
        let naive = naive_positions(&seg, &iv);
        let kernel = kernel_positions(&seg, &iv);
        prop_assert_eq!(kernel, naive);
    }

    #[test]
    fn prop_domain_pivot_kernels_match_naive(
        shape in 0i32..5,
        seeds in prop::collection::vec((0i32..64, 0i32..64), 1..120),
        kind in 0i32..6,
        a in 0usize..4096,
        b in 0usize..4096,
        off_a in -1i64..2,
        off_b in -1i64..2,
        inc_lo in prop::bool::ANY,
        inc_hi in prop::bool::ANY,
    ) {
        // Pivots drawn from the data itself (±1 to probe absent neighbors)
        // so bounds land inside the wide FOR/delta and dict domains, on run
        // boundaries, and between dictionary entries.
        let data = shaped_ints(shape, &seeds);
        let seg = build_segment(shape_dtype(shape), &data);
        let pivot = |i: usize, off: i64| -> Value {
            match &data[i % data.len()] {
                Value::Int32(v) => Value::Int32(v.saturating_add(off as i32)),
                Value::Int64(v) => Value::Int64(v.saturating_add(off)),
                _ => unreachable!("shaped data is integer"),
            }
        };
        let iv = value_interval(kind, pivot(a, off_a), pivot(b, off_b), inc_lo, inc_hi);
        let naive = naive_positions(&seg, &iv);
        let kernel = kernel_positions(&seg, &iv);
        prop_assert_eq!(kernel, naive);
    }

    #[test]
    fn prop_agg_pushdown_matches_materialize_then_fold(
        shape in 0i32..5,
        seeds in prop::collection::vec((0i32..64, 0i32..64), 2..60),
        deletes in prop::collection::vec(0i32..2000, 0..40),
        delta in prop::collection::vec(0i32..40, 0..20),
        kind in 0i32..6,
        a in 0usize..4096,
        b in 0usize..4096,
        inc_lo in prop::bool::ANY,
        inc_hi in prop::bool::ANY,
        compact in prop::bool::ANY,
    ) {
        // The encoded fold must equal a materializing scan followed by a
        // row fold — including deletes (bitmap and buffered), delta rows,
        // and order-sensitive f64 sums — for every encoding shape.
        let pool = BufferPool::unbounded(DeviceProfile::ram());
        let t = IoTracker::new();
        let vals = shaped_ints(shape, &seeds);
        let vdtype = shape_dtype(shape);
        let schema = hpd_common::Schema::from_pairs(&[
            ("id", DataType::Int32),
            ("val", vdtype),
            ("f", DataType::Float64),
        ]);
        let rows: Vec<Row> = vals
            .iter()
            .enumerate()
            .map(|(i, v)| {
                Row::new(vec![
                    Value::Int32(i as i32),
                    v.clone(),
                    Value::Float64(i as f64 * 0.1 + 0.3),
                ])
            })
            .collect();
        let mut idx = ColumnStoreIndex::build(
            schema,
            CsiKind::Secondary,
            vec![0],
            CsiConfig { rowgroup_capacity: 64, sort_mode: SortMode::Greedy, ..CsiConfig::default() },
            &rows,
            StorageAllocator::new(),
            &pool,
            &t,
        );
        let nrows = rows.len() as i32;
        for d in &deletes {
            if *d < nrows {
                idx.delete(&Key::single(Value::Int32(*d)), &pool, &t);
            }
        }
        let uniq: HashSet<i32> = delta.iter().copied().collect();
        for d in &uniq {
            let v = match vdtype {
                DataType::Int64 => Value::Int64(i64::from(d * 11)),
                _ => Value::Int32(d * 11),
            };
            idx.insert(
                Row::new(vec![
                    Value::Int32(1_000_000 + d),
                    v,
                    Value::Float64(f64::from(*d) * 0.7 + 0.1),
                ]),
                &pool,
                &t,
            );
        }
        if compact {
            idx.compact_deletes_budget(usize::MAX, &pool, &t);
        }
        let pivot = |i: usize| vals[i % vals.len()].clone();
        let mut intervals = HashMap::new();
        intervals.insert(1usize, value_interval(kind, pivot(a), pivot(b), inc_lo, inc_hi));

        let aggs = vec![
            PushdownAgg { func: AggFunc::Count, col: 0 },
            PushdownAgg { func: AggFunc::Sum, col: 1 },
            PushdownAgg { func: AggFunc::Min, col: 1 },
            PushdownAgg { func: AggFunc::Max, col: 1 },
            PushdownAgg { func: AggFunc::Avg, col: 1 },
            PushdownAgg { func: AggFunc::Sum, col: 2 },
            PushdownAgg { func: AggFunc::Max, col: 2 },
        ];
        // Materialize-then-fold reference over the scan path, accumulating
        // in scan order (rowgroups then delta) — the order the pushdown
        // fold promises to match bit-for-bit on f64.
        let mut count = 0i64;
        let mut sum_v = 0i128;
        let mut min_v: Option<Value> = None;
        let mut max_v: Option<Value> = None;
        let mut avg_sum = 0.0f64;
        let mut sum_f = 0.0f64;
        let mut max_f: Option<Value> = None;
        for batch in idx.scan_collect(&[1, 2], &intervals, &pool, &t) {
            for i in 0..batch.num_rows() {
                let v = batch.column(0).value(i);
                let f = batch.column(1).value(i);
                count += 1;
                sum_v += i128::from(v.as_i64().unwrap());
                if min_v.as_ref().is_none_or(|m| &v < m) { min_v = Some(v.clone()); }
                if max_v.as_ref().is_none_or(|m| &v > m) { max_v = Some(v.clone()); }
                avg_sum += v.as_f64().unwrap();
                sum_f += f.as_f64().unwrap();
                if max_f.as_ref().is_none_or(|m| &f > m) { max_f = Some(f.clone()); }
            }
        }

        let result = idx
            .agg_collect(&aggs, &intervals, &pool, &t)
            .expect("numeric aggregates have pushdown kernels");
        if let Ok(total) = i64::try_from(sum_v) {
            let pushed = result.unwrap();
            let zero = match vdtype {
                DataType::Int64 => Value::Int64(0),
                _ => Value::Int32(0),
            };
            prop_assert_eq!(&pushed[0], &Value::Int64(count));
            prop_assert_eq!(&pushed[1], &Value::Int64(total));
            prop_assert_eq!(&pushed[2], &min_v.unwrap_or_else(|| zero.clone()));
            prop_assert_eq!(&pushed[3], &max_v.unwrap_or(zero));
            let avg = if count == 0 { 0.0 } else { avg_sum / count as f64 };
            prop_assert_eq!(&pushed[4], &Value::Float64(avg));
            prop_assert_eq!(&pushed[5], &Value::Float64(sum_f));
            prop_assert_eq!(&pushed[6], &max_f.unwrap_or(Value::Float64(0.0)));
        } else {
            // Totals outside i64 must error on both paths (the wide raw
            // shape legitimately overflows after a couple of rows).
            prop_assert!(result.is_err(), "expected SUM overflow, got {result:?}");
        }
    }

    #[test]
    fn prop_float_kernels_match_naive(
        seeds in prop::collection::vec(-40i32..40, 1..120),
        kind in 0i32..6,
        a in -12i32..12,
        b in -12i32..12,
        inc_lo in prop::bool::ANY,
        inc_hi in prop::bool::ANY,
        int_bounds in prop::bool::ANY,
    ) {
        // Quarters exercise fractional bounds; the bit-domain translation
        // must keep exclusive float bounds exact.
        let data: Vec<Value> = seeds.iter().map(|&s| Value::Float64(f64::from(s) / 4.0)).collect();
        let seg = build_segment(DataType::Float64, &data);
        let mk = |v: i32| if int_bounds { Value::Int64(i64::from(v)) } else { Value::Float64(f64::from(v) / 2.0) };
        let (lo, hi) = (a.min(b), a.max(b));
        let iv = match kind {
            0 => Interval::all(),
            1 => Interval::point(mk(a)),
            2 => Interval::less_than(mk(hi), inc_hi),
            3 => Interval::greater_than(mk(lo), inc_lo),
            4 => Interval::between(mk(lo), mk(hi)),
            _ => Interval {
                lo: if inc_lo { Bound::Inclusive(mk(lo)) } else { Bound::Exclusive(mk(lo)) },
                hi: if inc_hi { Bound::Inclusive(mk(hi)) } else { Bound::Exclusive(mk(hi)) },
            },
        };
        let naive = naive_positions(&seg, &iv);
        let kernel = kernel_positions(&seg, &iv);
        prop_assert_eq!(kernel, naive);
    }

    #[test]
    fn prop_dict_string_kernels_match_naive(
        seeds in prop::collection::vec(0i32..40, 1..120),
        kind in 0i32..6,
        a in -2i32..44,
        b in -2i32..44,
        inc_lo in prop::bool::ANY,
        inc_hi in prop::bool::ANY,
    ) {
        // Bounds may fall between dictionary entries ("s007x") or outside
        // the stored domain entirely.
        let data: Vec<Value> = seeds.iter().map(|&s| Value::str(format!("s{s:03}"))).collect();
        let seg = build_segment(DataType::Utf8, &data);
        let mk = |v: i32| {
            if v % 3 == 0 { Value::str(format!("s{v:03}x")) } else { Value::str(format!("s{v:03}")) }
        };
        let (lo, hi) = (a.min(b), a.max(b));
        let iv = match kind {
            0 => Interval::all(),
            1 => Interval::point(mk(a)),
            2 => Interval::less_than(mk(hi), inc_hi),
            3 => Interval::greater_than(mk(lo), inc_lo),
            4 => Interval::between(mk(lo), mk(hi)),
            _ => Interval {
                lo: if inc_lo { Bound::Inclusive(mk(lo)) } else { Bound::Exclusive(mk(lo)) },
                hi: if inc_hi { Bound::Inclusive(mk(hi)) } else { Bound::Exclusive(mk(hi)) },
            },
        };
        let naive = naive_positions(&seg, &iv);
        let kernel = kernel_positions(&seg, &iv);
        prop_assert_eq!(kernel, naive);
    }

    #[test]
    fn prop_scan_with_deletes_and_delta_matches_model(
        n in 20i32..120,
        deletes in prop::collection::vec(0i32..120, 0..40),
        delta in prop::collection::vec(200i32..260, 0..20),
        lo in 0i32..50,
        width in 0i32..30,
        compact in prop::bool::ANY,
    ) {
        // End-to-end: pushdown must compose with delete bitmaps, the
        // delete buffer's anti-join, and row-mode delta filtering.
        let pool = BufferPool::unbounded(DeviceProfile::ram());
        let t = IoTracker::new();
        let schema = hpd_common::Schema::from_pairs(&[
            ("id", DataType::Int32),
            ("val", DataType::Int32),
        ]);
        let rows: Vec<Row> = (0..n)
            .map(|i| Row::new(vec![Value::Int32(i), Value::Int32(i * 7 % 50)]))
            .collect();
        let mut idx = ColumnStoreIndex::build(
            schema,
            CsiKind::Secondary,
            vec![0],
            CsiConfig { rowgroup_capacity: 16, sort_mode: SortMode::Greedy, ..CsiConfig::default() },
            &rows,
            StorageAllocator::new(),
            &pool,
            &t,
        );
        let mut model: HashMap<i32, i32> = rows
            .iter()
            .map(|r| (r.values()[0].as_i32().unwrap(), r.values()[1].as_i32().unwrap()))
            .collect();
        // Secondary-CSI deletes are logical (no existence check), so only
        // delete keys the model still holds — matching the engine, which
        // locates rows through the primary index first.
        for d in &deletes {
            if model.remove(d).is_some() {
                prop_assert!(idx.delete(&Key::single(Value::Int32(*d)), &pool, &t));
            }
        }
        let uniq: HashSet<i32> = delta.iter().copied().collect();
        for d in &uniq {
            idx.insert(Row::new(vec![Value::Int32(*d), Value::Int32(d % 50)]), &pool, &t);
            model.insert(*d, d % 50);
        }
        if compact {
            idx.compact_deletes_budget(usize::MAX, &pool, &t);
        }
        let mut intervals = HashMap::new();
        intervals.insert(1usize, Interval::between(Value::Int32(lo), Value::Int32(lo + width)));
        let iv = intervals[&1].clone();
        let mut got: Vec<(i32, i32)> = idx
            .scan_collect(&[0, 1], &intervals, &pool, &t)
            .iter()
            .flat_map(|b| {
                (0..b.num_rows()).map(|i| {
                    (b.column(0).value(i).as_i32().unwrap(), b.column(1).value(i).as_i32().unwrap())
                }).collect::<Vec<_>>()
            })
            .collect();
        got.sort_unstable();
        let mut want: Vec<(i32, i32)> = model
            .iter()
            .filter(|&(_, v)| iv.contains(&Value::Int32(*v)))
            .map(|(&k, &v)| (k, v))
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}

#[test]
fn decoded_cache_respects_byte_cap_and_evicts() {
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let t = IoTracker::new();
    let schema =
        hpd_common::Schema::from_pairs(&[("id", DataType::Int32), ("val", DataType::Int32)]);
    let rows: Vec<Row> = (0..2000)
        .map(|i| Row::new(vec![Value::Int32(i), Value::Int32(i * 7 % 100)]))
        .collect();
    // Cap fits roughly one decoded rowgroup column (256 rows × 4 bytes),
    // far less than the 8 rowgroups × 2 columns a full scan decodes.
    let idx = ColumnStoreIndex::build(
        schema,
        CsiKind::Primary,
        vec![0],
        CsiConfig {
            rowgroup_capacity: 256,
            sort_mode: SortMode::Greedy,
            decoded_cache_bytes: 2 * 256 * 4,
            ..CsiConfig::default()
        },
        &rows,
        StorageAllocator::new(),
        &pool,
        &t,
    );
    let before = hpd_obs::global().snapshot();
    for _ in 0..2 {
        let total: usize = idx
            .scan_collect(&[0, 1], &HashMap::new(), &pool, &t)
            .iter()
            .map(hpd_common::Batch::num_rows)
            .sum();
        assert_eq!(total, 2000);
        assert!(idx.decoded_cache_bytes_used() <= 2 * 256 * 4);
    }
    let d = hpd_obs::global().snapshot().delta(&before);
    // 8 rowgroups × 2 columns × 2 scans decode through a cache that holds
    // at most two segments: evictions are mandatory. (≥, not ==: the obs
    // registry is process-global and other tests run concurrently.)
    assert!(d.counter("columnstore.segcache.evict") >= 8);
    assert!(d.counter("columnstore.segcache.miss") >= 16);
}

#[test]
fn decoded_cache_hits_on_repeated_scans() {
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let t = IoTracker::new();
    let schema =
        hpd_common::Schema::from_pairs(&[("id", DataType::Int32), ("val", DataType::Int32)]);
    let rows: Vec<Row> = (0..1000)
        .map(|i| Row::new(vec![Value::Int32(i), Value::Int32(i % 10)]))
        .collect();
    let idx = ColumnStoreIndex::build(
        schema,
        CsiKind::Primary,
        vec![0],
        CsiConfig {
            rowgroup_capacity: 250,
            sort_mode: SortMode::Greedy,
            decoded_cache_bytes: 1 << 20,
            ..CsiConfig::default()
        },
        &rows,
        StorageAllocator::new(),
        &pool,
        &t,
    );
    let before = hpd_obs::global().snapshot();
    for _ in 0..3 {
        let total: usize = idx
            .scan_collect(&[0, 1], &HashMap::new(), &pool, &t)
            .iter()
            .map(hpd_common::Batch::num_rows)
            .sum();
        assert_eq!(total, 1000);
    }
    let d = hpd_obs::global().snapshot().delta(&before);
    // First scan misses (4 rowgroups × 2 columns), the next two hit.
    assert!(d.counter("columnstore.segcache.hit") >= 16);
    assert!(idx.decoded_cache_bytes_used() > 0);
    assert!(idx.decoded_cache_bytes_used() <= 1 << 20);
}
