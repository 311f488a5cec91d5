//! Property tests for the encoded-domain scan kernels: for every integer
//! encoding (RLE, bit-packed, raw, FOR/delta, dictionary), every interval
//! shape, dictionary strings, floats, and the delete-bitmap/delta-store
//! interaction, the pushed-down kernel must select exactly the rows a naive
//! decode-then-filter pass selects — on small segments, and on full-size
//! row groups of a primary columnstore.

use std::collections::{HashMap, HashSet};

use hpd_columnstore::{ColumnStoreIndex, CsiConfig, CsiKind, IntEncoding, PushdownAgg, Segment};
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
        // too wide for bit-packing, 3-bit dictionary codes win. (The odd
        // offset keeps the segment from storing 0..8 over an exponent.)
        _ => seeds
            .iter()
            .map(|&(a, b)| Value::Int64(i64::from((a + b) % 8) * 1_000_000_000_000_000 + 1))
            .collect(),
    }
}

/// Rows of a full-size shape: four 65 536-row groups in the release run
/// (CI's "Full-size encoded kernels" step), one in the debug run.
const FULL_ROWS: i64 = 65_536 * if cfg!(debug_assertions) { 1 } else { 4 };
/// Spreads the raw shape's 100 000 levels over > 56 bits.
const RAW: i64 = 20_000_000_000_033;

/// A full-size shape: row `i`'s value, the number of domain levels, the
/// stride between levels, the column's type and the power of ten its
/// segments store the values divided by. Each 65 536-row stripe spans the
/// whole domain, so zone maps eliminate nothing.
struct FullShape {
    value: fn(i64) -> i64,
    levels: i64,
    stride: i64,
    dtype: DataType,
    exponent: u8,
}

/// `i` scrambled: the splitmix64 finalizer, its top bit cleared.
fn scramble(i: i64) -> i64 {
    let mut z = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 1) as i64
}

/// Full-size shape `shape` (numbered as in [`shaped_ints`], and 5: whole
/// cents).
fn full_size_shape(shape: i32) -> FullShape {
    let int64 = |value, levels, stride| FullShape {
        value,
        levels,
        stride,
        dtype: DataType::Int64,
        exponent: 0,
    };
    match shape {
        // 256-long runs of a slowly advancing level.
        0 => int64(|i| i % 65_536 / 256, 256, 1),
        // A pseudo-random 12-bit domain.
        1 => int64(|i| i * 2_654_435_761 % 4096, 4096, 1),
        // ~48 K distinct values a row group, too wide to pack.
        2 => int64(|i| i * 2_654_435_761 % 100_000 * RAW, 100_000, RAW),
        // Monotone in a stripe, ~10^6 steps with a jitter: deltas fit 7 bits.
        3 => int64(|i| i % 65_536 * 1_000_003 + i * 7 % 61, 65_536, 1_000_003),
        // 1024 30-bit levels in a scrambled order: 10-bit codes. Sorting
        // by the level would leave the ids gaps of up to ~14 bits where
        // arrival order's are 0, so the row group keeps arrival order.
        4 => int64(|i| scramble(i) % 1024 * 1_000_003, 1024, 1_000_003),
        // Prices in whole cents, a decimal's raw units being 10^-4: ~48 K
        // distinct cents a row group, stored as cents in 17 bits (24 raw).
        _ => FullShape {
            value: |i| i * 2_654_435_761 % 100_000 * 100,
            levels: 100_000,
            stride: 100,
            dtype: DataType::Decimal,
            exponent: 2,
        },
    }
}

/// A full-size shape in a primary columnstore, in arrival order: every row
/// group encodes `val` as `encoding` under the shape's exponent, and at
/// 0.01 / 1 / 50 / 100 % selectivity the pushed-down scan returns the
/// generated rows an `Interval::contains` filter keeps, in order, and the
/// pushed-down SUM their total (or the overflow error where it leaves
/// `i64`).
fn full_size_shape_matches_filtered_rows(shape: i32, encoding: IntEncoding) {
    let FullShape {
        value,
        levels,
        stride,
        dtype,
        exponent,
    } = full_size_shape(shape);
    let typed = |v: i64| match dtype {
        DataType::Decimal => Value::Decimal(v),
        _ => Value::Int64(v),
    };
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let t = IoTracker::new();
    let rows: Vec<Row> = (0..FULL_ROWS)
        .map(|i| Row::new(vec![Value::Int64(i), typed(value(i))]))
        .collect();
    let idx = ColumnStoreIndex::build(
        hpd_common::Schema::from_pairs(&[("id", DataType::Int64), ("val", dtype)]),
        CsiKind::Primary,
        vec![0],
        CsiConfig::default(),
        &rows,
        StorageAllocator::new(),
        &pool,
        &t,
    );
    for g in 0..idx.num_rowgroups() {
        let segment = idx.rowgroup(g).segment(1);
        assert_eq!(segment.encoding(), encoding, "shape {shape}, group {g}");
        assert_eq!(segment.exponent(), exponent, "shape {shape}, group {g}");
    }
    let sum = [PushdownAgg {
        func: AggFunc::Sum,
        col: 1,
    }];
    for frac in [0.0001, 0.01, 0.5, 1.0] {
        let bound = ((levels as f64 * frac) as i64).max(1) * stride;
        let iv = Interval::less_than(typed(bound), false);
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
        let total = i64::try_from(total).ok().map(|s| vec![typed(s)]);
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
    // Whole cents: the scaled kernels at full size.
    full_size_shape_matches_filtered_rows(5, IntEncoding::BitPacked);
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
            CsiConfig { rowgroup_capacity: 64, ..CsiConfig::default() },
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
            CsiConfig { rowgroup_capacity: 16, ..CsiConfig::default() },
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

/// Every integer-family type with the range of values its column holds.
const SCALED_TYPES: [(DataType, i64, i64); 4] = [
    (DataType::Int32, i32::MIN as i64, i32::MAX as i64),
    (DataType::Date, i32::MIN as i64, i32::MAX as i64),
    (DataType::Int64, i64::MIN, i64::MAX),
    (DataType::Decimal, i64::MIN, i64::MAX),
];

fn typed_value(dtype: DataType, v: i64) -> Value {
    match dtype {
        DataType::Int32 => Value::Int32(v as i32),
        DataType::Date => Value::Date(v as i32),
        DataType::Decimal => Value::Decimal(v),
        _ => Value::Int64(v),
    }
}

/// A bound on a column of `dtype` at `v`, in a type the encoded domain
/// translates: an `Int64` beside `Int32` reaches past the column's range.
fn bound_value(dtype: DataType, v: i64) -> Value {
    match dtype {
        DataType::Int32 => Value::Int64(v),
        DataType::Date => Value::Date(v.clamp(i32::MIN.into(), i32::MAX.into()) as i32),
        _ => typed_value(dtype, v),
    }
}

/// `n` values of a column of `dtype` that are all multiples of `10^k`:
/// multipliers drawn from `draws`, among them the largest and smallest
/// multiples the type holds, their neighbours, zero and negatives.
fn scaled_values(dtype: DataType, k: u32, draws: &[(u8, i64)]) -> Vec<i64> {
    let (_, min, max) = SCALED_TYPES.into_iter().find(|t| t.0 == dtype).unwrap();
    let unit = 10i64.pow(k);
    let (lo, hi) = (min / unit, max / unit);
    draws
        .iter()
        .map(|&(pick, r)| {
            let m = match pick % 8 {
                0 => hi,
                1 => lo,
                2 => hi - 1,
                3 => lo + 1,
                4 => 0,
                5 => (r % 10).clamp(lo, hi),
                _ => {
                    let span = i128::from(hi) - i128::from(lo) + 1;
                    (i128::from(lo) + i128::from(r).rem_euclid(span)) as i64
                }
            };
            m * unit
        })
        .collect()
}

/// The largest `k <= 18` for which `10^k` divides every value, tried from
/// the top; 0 for zeros alone.
fn common_exponent(values: &[i64]) -> u8 {
    if values.iter().all(|&v| v == 0) {
        return 0;
    }
    (0..=18u32)
        .rev()
        .find(|&k| values.iter().all(|&v| v % 10i64.pow(k) == 0))
        .unwrap() as u8
}

/// `values` as a segment of `dtype` under each encoding that can hold
/// them: every value reads back through `decode`, `gather` and `value_at`;
/// intervals at, between and beyond the multiples select on the encoded
/// words what a filter of the values selects; and the masked SUM, MIN/MAX
/// and f64 fold equal those folds over the values `sel_bits` selects.
fn check_scaled_segment(dtype: DataType, values: &[i64], sel_bits: u64) {
    let column = ColumnVector::from_values(
        dtype,
        &values
            .iter()
            .map(|&v| typed_value(dtype, v))
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let exponent = common_exponent(values);
    let unit = 10i64.pow(u32::from(exponent));
    let picked: Vec<usize> = (0..values.len())
        .filter(|i| sel_bits >> (i % 64) & 1 == 1)
        .collect();
    let mut sel = SelBitmap::none_set(values.len());
    picked.iter().for_each(|&i| sel.set(i));
    let chosen: Vec<Value> = picked.iter().map(|&i| column.value(i)).collect();
    // Pivots at, beside, between and past the multiples of the unit.
    let mut pivots = vec![i64::MIN, i64::MAX];
    for &v in values.iter().take(6) {
        for d in [0, 1, -1, unit / 2, -(unit / 2), unit, -unit] {
            pivots.push(v.saturating_add(d));
        }
    }
    let mut built = 0;
    for enc in [
        IntEncoding::Rle,
        IntEncoding::BitPacked,
        IntEncoding::ForDelta,
        IntEncoding::Dict,
        IntEncoding::Raw,
    ] {
        let Some(seg) = Segment::build_as(&column, enc, &StorageAllocator::new()) else {
            continue;
        };
        built += 1;
        let what = format!("{dtype:?} 10^{exponent} as {enc:?}: {values:?}");
        assert_eq!(seg.encoding(), enc, "{what}");
        assert_eq!(seg.exponent(), exponent, "{what}");
        assert_eq!(seg.decode(), column, "{what}");
        assert_eq!(seg.gather(&picked), column.take(&picked), "{what}");
        for (i, v) in values.iter().enumerate() {
            assert_eq!(seg.value_at(i), typed_value(dtype, *v), "{what} at {i}");
        }
        for (j, &a) in pivots.iter().enumerate() {
            let b = pivots[(j * 7 + 3) % pivots.len()];
            let (lo, hi) = (bound_value(dtype, a.min(b)), bound_value(dtype, a.max(b)));
            for iv in [
                Interval::point(lo.clone()),
                Interval::less_than(hi.clone(), j % 2 == 0),
                Interval::greater_than(lo.clone(), j % 2 == 1),
                Interval::between(lo.clone(), hi.clone()),
                Interval {
                    lo: Bound::Exclusive(lo),
                    hi: Bound::Exclusive(hi),
                },
            ] {
                let want: Vec<usize> = (0..values.len())
                    .filter(|&i| iv.contains(&column.value(i)))
                    .collect();
                assert_eq!(kernel_positions(&seg, &iv), want, "{what} {iv:?}");
            }
        }
        let sum: i128 = chosen.iter().map(|v| i128::from(v.as_i64().unwrap())).sum();
        assert_eq!(seg.sum_i128_masked(&sel), Some(sum), "{what}");
        let want = chosen.first().map(|first| {
            let (lo, hi) = chosen.iter().fold((first, first), |(lo, hi), v| {
                (if v < lo { v } else { lo }, if v > hi { v } else { hi })
            });
            (lo.clone(), hi.clone())
        });
        assert_eq!(seg.min_max_masked(&sel), want, "{what}");
        let want = chosen.iter().fold(0.0, |acc, v| acc + v.as_f64().unwrap());
        let mut got = 0.0;
        assert!(seg.for_each_f64_masked(&sel, |x| got += x), "{what}");
        assert_eq!(got.to_bits(), want.to_bits(), "{what}");
    }
    // RLE, the dictionary and raw words hold anything.
    assert!(built >= 3, "{dtype:?}: {values:?}");
}

/// Every integer-family type at every exponent its range holds, from an
/// all-zero segment to `10^18`, negatives and the type's extreme multiples
/// among the values.
#[test]
fn scaled_segments_of_every_type_and_exponent() {
    let draws: Vec<(u8, i64)> = (0..40).map(|i| (i as u8, i * 7_919 - 99_991)).collect();
    for (dtype, _, max) in SCALED_TYPES {
        check_scaled_segment(dtype, &[0; 9], u64::MAX);
        for k in (0..=18).take_while(|&k| 10i64.pow(k) <= max) {
            let values = scaled_values(dtype, k, &draws);
            assert!(common_exponent(&values) >= k as u8);
            check_scaled_segment(dtype, &values, 0x5555_3333_0f0f_00ff);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 1_000 }))]

    #[test]
    fn prop_scaled_segments_read_back_and_filter_their_values(
        t in 0usize..4,
        k in 0u32..19,
        draws in prop::collection::vec((0u8..16, i64::MIN..i64::MAX), 1..90),
        sel_bits in 0u64..u64::MAX,
    ) {
        let (dtype, _, max) = SCALED_TYPES[t];
        let k = (0..=k).rev().find(|&k| 10i64.pow(k) <= max).unwrap();
        check_scaled_segment(dtype, &scaled_values(dtype, k, &draws), sel_bits);
    }
}
