//! Integration and property tests for the columnstore index.

use std::collections::HashMap;

use hpd_columnstore::encoding::encode_as;
use hpd_columnstore::{ColumnStoreIndex, CsiBuilder, CsiConfig, CsiKind, IntEncoding, RowGroup};
use hpd_common::{codec, ColumnVector, DataType, Interval, Key, Row, Schema, Value};
use hpd_storage::{BufferPool, DeviceProfile, IoTracker, StorageAllocator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

fn schema2() -> Schema {
    Schema::from_pairs(&[("id", DataType::Int32), ("val", DataType::Int32)])
}

fn rows2(n: i32) -> Vec<Row> {
    (0..n)
        .map(|i| Row::new(vec![Value::Int32(i), Value::Int32(i * 7 % 100)]))
        .collect()
}

fn small_config() -> CsiConfig {
    CsiConfig {
        rowgroup_capacity: 100,
        ..CsiConfig::default()
    }
}

fn setup(kind: CsiKind, n: i32) -> (ColumnStoreIndex, BufferPool, IoTracker) {
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let t = IoTracker::new();
    let idx = ColumnStoreIndex::build(
        schema2(),
        kind,
        vec![0],
        small_config(),
        &rows2(n),
        StorageAllocator::new(),
        &pool,
        &t,
    );
    (idx, pool, t)
}

fn all_ids(idx: &ColumnStoreIndex, pool: &BufferPool) -> Vec<i32> {
    let t = IoTracker::new();
    let mut ids: Vec<i32> = idx
        .scan_collect(&[0], &HashMap::new(), pool, &t)
        .iter()
        .flat_map(|b| {
            (0..b.num_rows())
                .map(|i| b.column(0).value(i).as_i32().unwrap())
                .collect::<Vec<_>>()
        })
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn heat_tracks_reads_prunes_writes_and_decays() {
    let (mut idx, pool, t) = setup(CsiKind::Primary, 1000);
    // Rows are built in key order, so id ranges map to distinct rowgroups:
    // a selective scan reads some rowgroups and prunes the rest.
    let iv: HashMap<usize, Interval> =
        [(0usize, Interval::between(Value::Int32(0), Value::Int32(99)))]
            .into_iter()
            .collect();
    idx.scan_collect(&[0, 1], &iv, &pool, &t);
    idx.scan_collect(&[0, 1], &iv, &pool, &t);
    let heat = idx.heat_report();
    assert_eq!(heat.rowgroups.len(), idx.num_rowgroups());
    // Each snapshot names the chosen encoding per stored column segment.
    assert_eq!(heat.rowgroups[0].encodings.len(), 2);
    assert_eq!(heat.rowgroups[0].reads, 2);
    assert_eq!(heat.rowgroups[0].rows_read, 200);
    let last = heat.rowgroups.last().unwrap();
    assert_eq!(last.prunes, 2);
    assert_eq!(last.reads, 0);
    assert!(heat.rowgroups[0].score() > last.score());
    // Deletes charge writes to the victim rowgroup.
    assert!(idx.delete(&Key::new(vec![Value::Int32(5)]), &pool, &t));
    assert_eq!(idx.heat_report().rowgroups[0].writes, 1);
    // Inserts land in the delta store.
    idx.insert(
        Row::new(vec![Value::Int32(5000), Value::Int32(0)]),
        &pool,
        &t,
    );
    assert_eq!(idx.heat_report().delta_writes, 1);
    // Decay halves everything and counts the pass.
    idx.decay_heat();
    let decayed = idx.heat_report();
    assert_eq!(decayed.rowgroups[0].reads, 1);
    assert_eq!(decayed.rowgroups[0].rows_read, 100);
    assert_eq!(decayed.rowgroups[0].writes, 0);
    assert_eq!(decayed.delta_writes, 0);
    assert_eq!(decayed.decay_passes, 1);
}

#[test]
fn a_once_scan_reads_what_a_scan_does_and_caches_nothing() {
    let (idx, pool, t) = setup(CsiKind::Primary, 1_000);
    let drain = |once: bool| {
        let scan = idx.begin_scan(vec![0, 1], HashMap::new(), &pool, &t);
        let mut scan = if once { scan.once() } else { scan };
        std::iter::from_fn(|| scan.next_batch(&pool, &t)).collect::<Vec<_>>()
    };
    let read_once = drain(true);
    assert_eq!(idx.decoded_cache_bytes_used(), 0);
    let read = drain(false);
    let cached = idx.decoded_cache_bytes_used();
    assert!(cached > 0);
    assert_eq!(format!("{read_once:?}"), format!("{read:?}"));
    // Over a warm cache it reads the cached decodes and adds none.
    assert_eq!(format!("{:?}", drain(true)), format!("{read:?}"));
    assert_eq!(idx.decoded_cache_bytes_used(), cached);
}

#[test]
fn build_splits_into_rowgroups() {
    let (idx, _, _) = setup(CsiKind::Primary, 1000);
    assert_eq!(idx.num_rowgroups(), 10);
    assert_eq!(idx.active_rows(), 1000);
    assert_eq!(idx.delta_rows(), 0);
}

#[test]
fn streamed_projection_builds_the_same_index_as_projected_rows() {
    // Wider rows fed by reference, columns picked and reordered on the way
    // in, against the same rows projected up front: same row groups, same
    // encodings and sizes, same contents in the same order.
    let wide: Vec<Row> = (0..257)
        .map(|i| {
            Row::new(vec![
                Value::str(format!("pad-{i}")),
                Value::Int32(i * 7 % 100),
                Value::Int64(i64::from(i) << 20),
                Value::Int32(i),
            ])
        })
        .collect();
    let projection = [3, 1];
    let narrow: Vec<Row> = wide.iter().map(|r| r.project(&projection)).collect();
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let (ta, tb) = (IoTracker::new(), IoTracker::new());
    let from_rows = ColumnStoreIndex::build(
        schema2(),
        CsiKind::Secondary,
        vec![0],
        small_config(),
        &narrow,
        StorageAllocator::new(),
        &pool,
        &ta,
    );
    // The same rows, each read in place in its encoded form and projected
    // value by value: what the engine feeds a build.
    let mut streamed = CsiBuilder::new(
        schema2(),
        CsiKind::Secondary,
        vec![0],
        small_config(),
        StorageAllocator::new(),
        wide.len(),
    );
    let mut encoded = Vec::new();
    for row in &wide {
        encoded.clear();
        codec::put_values(&mut encoded, row.values());
        let values: Vec<_> = codec::values(&encoded).collect();
        streamed.push_refs(projection.iter().map(|&c| values[c]), &pool, &tb);
    }
    let streamed = streamed.finish(&pool, &tb);
    assert_eq!(streamed.num_rowgroups(), 3, "100 + 100 + 57 rows");
    assert_eq!(streamed.num_rowgroups(), from_rows.num_rowgroups());
    assert_eq!(streamed.column_sizes(), from_rows.column_sizes());
    assert_eq!(streamed.column_encodings(), from_rows.column_encodings());
    assert_eq!(ta.snapshot(), tb.snapshot());
    let contents = |idx: &ColumnStoreIndex| -> Vec<Row> {
        idx.scan_collect(&[0, 1], &HashMap::new(), &pool, &IoTracker::new())
            .iter()
            .flat_map(|b| b.to_rows())
            .collect()
    };
    assert_eq!(contents(&streamed), contents(&from_rows));
    assert_eq!(contents(&streamed).len(), 257);
}

#[test]
fn scan_returns_all_rows() {
    let (idx, pool, _) = setup(CsiKind::Primary, 500);
    assert_eq!(all_ids(&idx, &pool), (0..500).collect::<Vec<_>>());
}

#[test]
fn segment_elimination_skips_rowgroups() {
    // Data arrives sorted by id, so per-rowgroup id ranges are disjoint.
    let (idx, pool, _) = setup(CsiKind::Primary, 1000);
    let t = IoTracker::new();
    let mut intervals = HashMap::new();
    intervals.insert(0usize, Interval::less_than(Value::Int32(150), false));
    let batches = idx.scan_collect(&[0], &intervals, &pool, &t);
    let rows: usize = batches.iter().map(|b| b.num_rows()).sum();
    // Row groups 0 and 1 survive elimination (ids 0..200); within them the
    // pushed-down interval prunes rows 150..200 in the encoded domain.
    assert_eq!(rows, 150);
    let eliminated: usize = (0..idx.num_rowgroups())
        .filter(|&i| idx.rowgroup_eliminated(i, &intervals))
        .count();
    assert_eq!(eliminated, 8);
}

#[test]
fn elimination_reduces_bytes_read() {
    let (idx, _, _) = setup(CsiKind::Primary, 2000);
    let pool = BufferPool::unbounded(DeviceProfile::hdd_raid());
    let sel = {
        let t = IoTracker::new();
        let mut iv = HashMap::new();
        iv.insert(0usize, Interval::point(Value::Int32(42)));
        idx.scan_collect(&[0, 1], &iv, &pool, &t);
        t.snapshot().bytes_read
    };
    pool.clear();
    let full = {
        let t = IoTracker::new();
        idx.scan_collect(&[0, 1], &HashMap::new(), &pool, &t);
        t.snapshot().bytes_read
    };
    assert!(
        sel * 5 < full,
        "selective scan read {sel} bytes vs full {full}"
    );
}

#[test]
fn inserts_go_to_delta_then_tuple_move() {
    let (mut idx, pool, t) = setup(CsiKind::Primary, 150);
    assert_eq!(idx.num_rowgroups(), 2);
    for i in 1000..1049 {
        idx.insert(Row::new(vec![Value::Int32(i), Value::Int32(0)]), &pool, &t);
    }
    assert_eq!(idx.delta_rows(), 49, "delta below capacity stays");
    assert_eq!(idx.active_rows(), 199);
    // Scanning sees delta rows.
    assert_eq!(all_ids(&idx, &pool).len(), 199);
    // Push delta to capacity: triggers synchronous tuple move.
    for i in 2000..2051 {
        idx.insert(Row::new(vec![Value::Int32(i), Value::Int32(0)]), &pool, &t);
    }
    assert!(idx.delta_rows() < 100);
    assert_eq!(idx.num_rowgroups(), 3);
    assert_eq!(idx.active_rows(), 250);
}

#[test]
fn secondary_delete_buffers_and_hides_rows() {
    let (mut idx, pool, t) = setup(CsiKind::Secondary, 300);
    assert!(idx.delete(&Key::single(Value::Int32(42)), &pool, &t));
    assert_eq!(idx.delete_buffer_len(), 1);
    assert_eq!(idx.active_rows(), 299);
    let ids = all_ids(&idx, &pool);
    assert_eq!(ids.len(), 299);
    assert!(!ids.contains(&42), "anti-join hides buffered delete");
}

#[test]
fn secondary_delete_is_cheaper_than_primary_delete() {
    // Shuffled keys defeat segment elimination, so a primary-CSI delete must
    // scan key segments across row groups; a secondary-CSI delete is one
    // delete-buffer insert. Compare simulated HDD time (the paper's Fig. 5
    // asymmetry).
    let mut keys: Vec<i32> = (0..5000).collect();
    let mut state = 99u64;
    for i in (1..keys.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        keys.swap(i, (state >> 33) as usize % (i + 1));
    }
    let rows: Vec<Row> = keys
        .iter()
        .map(|&k| Row::new(vec![Value::Int32(k), Value::Int32(k % 10)]))
        .collect();
    let build = |kind| {
        let pool = BufferPool::unbounded(DeviceProfile::hdd_raid());
        let t = IoTracker::new();
        let idx = ColumnStoreIndex::build(
            schema2(),
            kind,
            vec![0],
            small_config(),
            &rows,
            StorageAllocator::new(),
            &pool,
            &t,
        );
        pool.clear();
        (idx, pool)
    };
    let (mut pri, pool_p) = build(CsiKind::Primary);
    let (mut sec, pool_s) = build(CsiKind::Secondary);
    let tp = IoTracker::new();
    assert!(pri.delete(&Key::single(Value::Int32(2500)), &pool_p, &tp));
    let ts = IoTracker::new();
    assert!(sec.delete(&Key::single(Value::Int32(2500)), &pool_s, &ts));
    assert!(
        tp.snapshot().sim_io_us() > 5.0 * ts.snapshot().sim_io_us(),
        "primary delete {}us vs secondary {}us",
        tp.snapshot().sim_io_us(),
        ts.snapshot().sim_io_us()
    );
    assert_eq!(pri.active_rows(), 4999);
    assert_eq!(sec.active_rows(), 4999);
}

#[test]
fn primary_delete_marks_bitmap() {
    let (mut idx, pool, t) = setup(CsiKind::Primary, 250);
    assert!(idx.delete(&Key::single(Value::Int32(99)), &pool, &t));
    assert!(
        !idx.delete(&Key::single(Value::Int32(99)), &pool, &t),
        "already gone"
    );
    assert!(
        !idx.delete(&Key::single(Value::Int32(9_999)), &pool, &t),
        "never existed"
    );
    let ids = all_ids(&idx, &pool);
    assert_eq!(ids.len(), 249);
    assert!(!ids.contains(&99));
}

#[test]
fn delete_from_delta_store_directly() {
    let (mut idx, pool, t) = setup(CsiKind::Secondary, 150);
    idx.insert(
        Row::new(vec![Value::Int32(7_000), Value::Int32(1)]),
        &pool,
        &t,
    );
    assert_eq!(idx.delta_rows(), 1);
    assert!(idx.delete(&Key::single(Value::Int32(7_000)), &pool, &t));
    assert_eq!(idx.delta_rows(), 0);
    assert_eq!(idx.delete_buffer_len(), 0, "delta delete bypasses buffer");
}

#[test]
fn compact_delete_buffer_resolves_to_bitmap() {
    let (mut idx, pool, t) = setup(CsiKind::Secondary, 300);
    for k in [10, 20, 30] {
        idx.delete(&Key::single(Value::Int32(k)), &pool, &t);
    }
    assert_eq!(idx.delete_buffer_len(), 3);
    idx.compact_deletes_budget(usize::MAX, &pool, &t);
    assert_eq!(idx.delete_buffer_len(), 0);
    assert_eq!(idx.active_rows(), 297);
    let ids = all_ids(&idx, &pool);
    assert!(!ids.contains(&10) && !ids.contains(&20) && !ids.contains(&30));
    // After compaction scans no longer pay the anti-join probe.
    assert!(idx.antijoin_probe(&pool, &t).is_none());
}

/// An update is a delete followed by an insert (paper §2), on either kind:
/// a primary hands back the pre-image its delete read, a secondary buffers
/// the delete and leaves the pre-image to the caller.
#[test]
fn update_is_delete_plus_insert() {
    for kind in [CsiKind::Primary, CsiKind::Secondary] {
        let (mut idx, pool, t) = setup(kind, 200);
        let key = Key::single(Value::Int32(5));
        let old = idx.delete_returning(&key, &pool, &t);
        let expected = (kind == CsiKind::Primary).then(|| rows2(200)[5].clone());
        assert_eq!(old, expected, "{kind:?}");
        idx.insert(
            Row::new(vec![Value::Int32(5), Value::Int32(999)]),
            &pool,
            &t,
        );
        assert_eq!(idx.active_rows(), 200);
        assert_eq!(idx.delta_rows(), 1);
        // The new version is visible, the old hidden.
        let t2 = IoTracker::new();
        let mut iv = HashMap::new();
        iv.insert(0usize, Interval::point(Value::Int32(5)));
        let batches = idx.scan_collect(&[0, 1], &iv, &pool, &t2);
        let vals: Vec<i32> = batches
            .iter()
            .flat_map(|b| {
                (0..b.num_rows())
                    .filter(|&i| b.column(0).value(i) == Value::Int32(5))
                    .map(|i| b.column(1).value(i).as_i32().unwrap())
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(vals, vec![999], "{kind:?}");
    }
}

#[test]
fn projection_decodes_only_needed_columns() {
    let (idx, _, _) = setup(CsiKind::Primary, 1000);
    let pool = BufferPool::unbounded(DeviceProfile::hdd_raid());
    let one_col = {
        let t = IoTracker::new();
        idx.scan_collect(&[1], &HashMap::new(), &pool, &t);
        t.snapshot().bytes_read
    };
    pool.clear();
    let both = {
        let t = IoTracker::new();
        idx.scan_collect(&[0, 1], &HashMap::new(), &pool, &t);
        t.snapshot().bytes_read
    };
    assert!(one_col < both, "column pruning must reduce I/O");
}

#[test]
fn column_sizes_sum_to_total() {
    let (idx, _, _) = setup(CsiKind::Primary, 1000);
    let sizes = idx.column_sizes();
    assert_eq!(sizes.len(), 2);
    assert_eq!(sizes.iter().sum::<usize>(), idx.size_bytes());
    assert!(sizes.iter().all(|&s| s > 0));
}

#[test]
fn compress_all_delta_flushes_remainder() {
    let (mut idx, pool, t) = setup(CsiKind::Primary, 0);
    for i in 0..42 {
        idx.insert(Row::new(vec![Value::Int32(i), Value::Int32(0)]), &pool, &t);
    }
    assert_eq!(idx.num_rowgroups(), 0);
    idx.maintenance_full(&pool, &t);
    assert_eq!(idx.delta_rows(), 0);
    assert_eq!(idx.num_rowgroups(), 1);
    assert_eq!(all_ids(&idx, &pool), (0..42).collect::<Vec<_>>());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prop_inserts_deletes_match_model(
        ops in prop::collection::vec((0i32..100, prop::bool::ANY), 1..120)
    ) {
        let pool = BufferPool::unbounded(DeviceProfile::ram());
        let t = IoTracker::new();
        let mut idx = ColumnStoreIndex::build(
            schema2(),
            CsiKind::Secondary,
            vec![0],
            CsiConfig { rowgroup_capacity: 16, ..CsiConfig::default() },
            &[],
            StorageAllocator::new(),
            &pool,
            &t,
        );
        let mut model: Vec<i32> = Vec::new();
        for (k, is_insert) in ops {
            if is_insert {
                if !model.contains(&k) { // keys stay unique
                    idx.insert(Row::new(vec![Value::Int32(k), Value::Int32(k)]), &pool, &t);
                    model.push(k);
                }
            } else if let Some(pos) = model.iter().position(|&x| x == k) {
                prop_assert!(idx.delete(&Key::single(Value::Int32(k)), &pool, &t));
                model.remove(pos);
            }
        }
        model.sort_unstable();
        prop_assert_eq!(all_ids(&idx, &pool), model.clone());
        prop_assert_eq!(idx.active_rows(), model.len());
        // Compaction must not change visible contents.
        idx.compact_deletes_budget(usize::MAX, &pool, &t);
        prop_assert_eq!(all_ids(&idx, &pool), model);
    }

    #[test]
    fn prop_scan_with_interval_superset_of_exact_filter(
        n in 1i32..400,
        lo in 0i32..400,
        width in 0i32..100,
    ) {
        let (idx, pool, _) = setup(CsiKind::Primary, n);
        let t = IoTracker::new();
        let mut iv = HashMap::new();
        iv.insert(0usize, Interval::between(Value::Int32(lo), Value::Int32(lo + width)));
        let batches = idx.scan_collect(&[0], &iv, &pool, &t);
        let mut got: Vec<i32> = batches.iter().flat_map(|b| {
            (0..b.num_rows()).map(|i| b.column(0).value(i).as_i32().unwrap()).collect::<Vec<_>>()
        }).collect();
        got.sort_unstable();
        // Elimination is conservative: every truly matching row must appear.
        let expected: Vec<i32> = (0..n).filter(|&i| i >= lo && i <= lo + width).collect();
        for e in &expected {
            prop_assert!(got.contains(e));
        }
        // And everything returned is within the surviving rowgroups (no
        // correctness requirement beyond superset, but ids must be valid).
        for g in &got {
            prop_assert!(*g >= 0 && *g < n);
        }
    }
}

/// The row-group build as it was when it sorted and counted boxed `Value`s
/// and the encoder measured candidates by building them: the reference the
/// typed build is compared with, byte for byte.
mod reference {
    use std::collections::{BTreeSet, HashSet};

    use hpd_columnstore::{EncodedInts, IntEncoding, FOR_DELTA_FRAME, RLE_RUN_BYTES};
    use hpd_common::{ArcStr, ColumnVector, Value};

    pub fn float_bits(f: f64) -> i64 {
        let b = f.to_bits();
        if b >> 63 == 1 {
            (!b ^ (1u64 << 63)) as i64
        } else {
            b as i64
        }
    }

    fn normalize_value(v: &Value) -> i64 {
        match v {
            Value::Float64(f) => float_bits(*f),
            other => other.as_i64().expect("numeric"),
        }
    }

    fn distinct_count(col: &ColumnVector) -> usize {
        match col {
            ColumnVector::Str(v) => v.iter().collect::<HashSet<_>>().len(),
            _ => (0..col.len())
                .map(|i| normalize_value(&col.value(i)))
                .collect::<HashSet<_>>()
                .len(),
        }
    }

    pub fn greedy_column_order(columns: &[ColumnVector]) -> Vec<usize> {
        let mut counts: Vec<(usize, usize)> = (columns.iter().enumerate())
            .map(|(i, c)| (i, distinct_count(c)))
            .collect();
        counts.sort_by_key(|&(i, d)| (d, i));
        counts.into_iter().map(|(i, _)| i).collect()
    }

    /// Stable permutation sorting rows lexicographically by `order`.
    pub fn sort_permutation(columns: &[ColumnVector], order: &[usize]) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..columns[0].len()).collect();
        perm.sort_by(|&a, &b| {
            for &c in order {
                let cmp = columns[c].value(a).cmp(&columns[c].value(b));
                if cmp != std::cmp::Ordering::Equal {
                    return cmp;
                }
            }
            std::cmp::Ordering::Equal
        });
        perm
    }

    /// The largest `k <= 18` for which `10^k` divides every value, tried
    /// from the top; 0 for a column of zeros.
    fn value_exponent(ints: &[i64]) -> u8 {
        if ints.iter().all(|&v| v == 0) {
            return 0;
        }
        (0..=18u32)
            .rev()
            .find(|&k| ints.iter().all(|&v| v % 10i64.pow(k) == 0))
            .expect("10^0 divides everything") as u8
    }

    /// What `Segment::build` made of a column before it encoded it: the
    /// `i64` stream (an integer family's divided by its common power of
    /// ten), that power's exponent, the string dictionary, and the min and
    /// max values.
    pub fn normalize(column: &ColumnVector) -> (Vec<i64>, u8, Option<Vec<ArcStr>>, Value, Value) {
        if let ColumnVector::Str(vals) = column {
            let mut dict: Vec<ArcStr> = vals.to_vec();
            dict.sort_unstable();
            dict.dedup();
            let codes = (vals.iter())
                .map(|s| dict.binary_search(s).expect("value in dict") as i64)
                .collect();
            let (min, max) = (dict[0].clone(), dict[dict.len() - 1].clone());
            return (codes, 0, Some(dict), Value::Str(min), Value::Str(max));
        }
        let mut ints: Vec<i64> = (0..column.len())
            .map(|i| normalize_value(&column.value(i)))
            .collect();
        let exponent = match column {
            ColumnVector::Float64(_) => 0,
            _ => value_exponent(&ints),
        };
        ints.iter_mut()
            .for_each(|v| *v /= 10i64.pow(u32::from(exponent)));
        let at = |raw: i64| {
            let i = ints.iter().position(|&v| v == raw).expect("present");
            column.value(i)
        };
        let (min, max) = (
            at(*ints.iter().min().unwrap()),
            at(*ints.iter().max().unwrap()),
        );
        (ints, exponent, None, min, max)
    }

    fn rle_encode(values: &[i64]) -> Vec<(i64, u32)> {
        let mut runs: Vec<(i64, u32)> = Vec::new();
        for &v in values {
            match runs.last_mut() {
                Some((rv, c)) if *rv == v && *c < u32::MAX => *c += 1,
                _ => runs.push((v, 1)),
            }
        }
        runs
    }

    fn bits_for(range: u128) -> usize {
        (128 - range.leading_zeros()) as usize
    }

    fn packed_buf_bytes(slots: usize, bw: usize) -> usize {
        (slots * bw).div_ceil(8) + 8
    }

    fn bitpack_plan(values: &[i64]) -> Option<(i64, usize)> {
        let (&min, &max) = (values.iter().min()?, values.iter().max()?);
        let bit_width = bits_for(((max as i128) - (min as i128)) as u128);
        (bit_width <= 56).then_some((min, bit_width))
    }

    /// OR `code` into slot `idx` of the little-endian bit stream.
    fn put_code(data: &mut [u8], idx: usize, bw: usize, code: u64) {
        let (byte, shift) = (idx * bw / 8, idx * bw % 8);
        let existing = u64::from_le_bytes(data[byte..byte + 8].try_into().expect("8 bytes"));
        data[byte..byte + 8].copy_from_slice(&(existing | (code << shift)).to_le_bytes());
    }

    fn bitpack(values: &[i64]) -> Option<EncodedInts> {
        let (min, bit_width) = bitpack_plan(values)?;
        let mut data = vec![0u8; packed_buf_bytes(values.len(), bit_width)];
        for (i, &v) in values.iter().enumerate() {
            put_code(&mut data, i, bit_width, (v as i128 - min as i128) as u64);
        }
        Some(EncodedInts::BitPacked {
            base: min,
            bit_width: bit_width as u8,
            len: values.len(),
            data: data.into(),
        })
    }

    fn for_delta_plan(values: &[i64]) -> Option<(i64, usize)> {
        if values.is_empty() {
            return None;
        }
        let (mut min_d, mut max_d) = (i128::MAX, i128::MIN);
        for chunk in values.chunks(FOR_DELTA_FRAME) {
            for w in chunk.windows(2) {
                let d = w[1] as i128 - w[0] as i128;
                min_d = min_d.min(d);
                max_d = max_d.max(d);
            }
        }
        if min_d > max_d {
            (min_d, max_d) = (0, 0);
        }
        let bit_width = bits_for((max_d - min_d) as u128);
        if bit_width > 56 {
            return None;
        }
        Some((i64::try_from(min_d).ok()?, bit_width))
    }

    fn for_delta_size(values: &[i64], bw: usize) -> usize {
        let n_frames = values.len().div_ceil(FOR_DELTA_FRAME);
        n_frames * 8 + packed_buf_bytes(n_frames * (FOR_DELTA_FRAME - 1), bw) + 17
    }

    fn for_delta(values: &[i64]) -> Option<EncodedInts> {
        let (min_delta, bit_width) = for_delta_plan(values)?;
        let n_frames = values.len().div_ceil(FOR_DELTA_FRAME);
        let mut anchors = Vec::with_capacity(n_frames);
        let slots = n_frames * (FOR_DELTA_FRAME - 1);
        let mut data = vec![0u8; packed_buf_bytes(slots, bit_width)];
        for (f, chunk) in values.chunks(FOR_DELTA_FRAME).enumerate() {
            anchors.push(chunk[0]);
            if bit_width == 0 {
                continue;
            }
            for (j, w) in chunk.windows(2).enumerate() {
                let code = (w[1] as i128 - w[0] as i128 - min_delta as i128) as u64;
                put_code(&mut data, f * (FOR_DELTA_FRAME - 1) + j, bit_width, code);
            }
        }
        Some(EncodedInts::ForDelta {
            len: values.len(),
            anchors,
            min_delta,
            bit_width: bit_width as u8,
            data: data.into(),
        })
    }

    fn distinct_sorted(values: &[i64], cap: usize) -> Option<Vec<i64>> {
        let mut set = BTreeSet::new();
        for &v in values {
            set.insert(v);
            if set.len() > cap {
                return None;
            }
        }
        Some(set.into_iter().collect())
    }

    fn dict_size(len: usize, n_runs: usize, distinct: usize) -> usize {
        let code_bw = bits_for((distinct - 1) as u128);
        let codes_bytes = (n_runs * RLE_RUN_BYTES)
            .min(packed_buf_bytes(len, code_bw) + 9)
            .min(len * 8);
        distinct * 8 + codes_bytes + 16
    }

    fn encode_base(values: &[i64]) -> EncodedInts {
        let runs = rle_encode(values);
        let rle_bytes = runs.len() * RLE_RUN_BYTES;
        let packed_bytes = bitpack_plan(values)
            .map(|(_, bw)| packed_buf_bytes(values.len(), bw) + 9)
            .unwrap_or(usize::MAX);
        let raw_bytes = values.len() * 8;
        if rle_bytes <= packed_bytes && rle_bytes <= raw_bytes {
            EncodedInts::Rle(runs)
        } else if packed_bytes <= raw_bytes {
            bitpack(values).expect("packed_bytes finite implies Some")
        } else {
            EncodedInts::Raw(values.to_vec())
        }
    }

    fn dict_numeric(values: &[i64], cap: usize) -> Option<EncodedInts> {
        let dict = distinct_sorted(values, cap)?;
        let codes: Vec<i64> = (values.iter())
            .map(|v| dict.partition_point(|d| d < v) as i64)
            .collect();
        Some(EncodedInts::Dict {
            values: dict,
            codes: Box::new(encode_base(&codes)),
        })
    }

    pub fn encode_as(values: &[i64], enc: IntEncoding) -> Option<EncodedInts> {
        match enc {
            IntEncoding::Rle => Some(EncodedInts::Rle(rle_encode(values))),
            IntEncoding::BitPacked => bitpack(values),
            IntEncoding::ForDelta => for_delta(values),
            IntEncoding::Dict => dict_numeric(values, values.len()),
            IntEncoding::Raw => Some(EncodedInts::Raw(values.to_vec())),
        }
    }

    /// The free choice (`forced` is what `HPD_FORCE_ENCODING` names, if
    /// the process runs under it).
    pub fn encode_i64s(values: &[i64], forced: Option<IntEncoding>) -> EncodedInts {
        if let Some(e) = forced.and_then(|enc| encode_as(values, enc)) {
            return e;
        }
        let runs = rle_encode(values);
        let rle_bytes = runs.len() * RLE_RUN_BYTES;
        let packed_bytes = bitpack_plan(values)
            .map(|(_, bw)| packed_buf_bytes(values.len(), bw) + 9)
            .unwrap_or(usize::MAX);
        let fd_bytes = for_delta_plan(values)
            .map(|(_, bw)| for_delta_size(values, bw))
            .unwrap_or(usize::MAX);
        let dict_cap = (values.len() / 4).max(8);
        let dict_bytes = distinct_sorted(values, dict_cap)
            .map(|d| dict_size(values.len(), runs.len(), d.len()))
            .unwrap_or(usize::MAX);
        let raw_bytes = values.len() * 8;
        let best = (rle_bytes.min(packed_bytes).min(fd_bytes))
            .min(dict_bytes)
            .min(raw_bytes);
        if rle_bytes == best {
            EncodedInts::Rle(runs)
        } else if packed_bytes == best {
            bitpack(values).expect("packed_bytes finite implies Some")
        } else if fd_bytes == best {
            for_delta(values).expect("fd_bytes finite implies Some")
        } else if dict_bytes == best {
            dict_numeric(values, dict_cap).expect("dict_bytes finite implies Some")
        } else {
            EncodedInts::Raw(values.to_vec())
        }
    }
}

const ENCODINGS: [IntEncoding; 5] = [
    IntEncoding::Rle,
    IntEncoding::BitPacked,
    IntEncoding::ForDelta,
    IntEncoding::Dict,
    IntEncoding::Raw,
];

/// Exact rendering: floats by their bits (`NaN != NaN`, `-0.0 == 0.0`).
fn show_value(v: &Value) -> String {
    match v {
        Value::Float64(f) => format!("f64:{:016x}", f.to_bits()),
        other => format!("{other:?}"),
    }
}

fn show_column(c: &ColumnVector) -> Vec<String> {
    (0..c.len()).map(|i| show_value(&c.value(i))).collect()
}

/// One random column of `rows` values; `shape` picks the type and the
/// distribution.
fn random_column(rng: &mut StdRng, rows: usize, shape: u32) -> ColumnVector {
    let floats = [
        -0.0,
        0.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.5,
        -2.25e300,
    ];
    let extremes = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
    let few = rng.gen_range(1..6);
    match shape {
        // Heavy duplicates.
        0 => ColumnVector::Int32((0..rows).map(|_| rng.gen_range(-2..few)).collect()),
        1 => ColumnVector::Date((0..rows).map(|_| rng.gen_range(0..few * 40)).collect()),
        // Multiples of a power of ten, as prices in whole cents are: the
        // segment stores them divided by it.
        2 => {
            let unit = 10i64.pow(rng.gen_range(0..5));
            ColumnVector::Decimal(
                (0..rows)
                    .map(|_| rng.gen_range(-50_000..50_000i64) * unit)
                    .collect(),
            )
        }
        // As wide as a column gets: two of these overflow a 128-bit key.
        3 => ColumnVector::Int64(
            (0..rows)
                .map(|_| extremes[rng.gen_range(0..extremes.len())])
                .collect(),
        ),
        4 => ColumnVector::Int64((0..rows).map(|_| rng.next_u64() as i64).collect()),
        5 => ColumnVector::Float64(
            (0..rows)
                .map(|_| match rng.gen_range(0..3) {
                    0 => rng.gen_range(-1e6..1e6),
                    _ => floats[rng.gen_range(0..floats.len())],
                })
                .collect(),
        ),
        // Strings sharing a long prefix, a short one, the empty one.
        6 => ColumnVector::Str(
            (0..rows)
                .map(|_| match rng.gen_range(0..8) {
                    0 => "".into(),
                    1 => "a".into(),
                    k => format!("customer-last-name-prefix-{:03}", k * few).into(),
                })
                .collect(),
        ),
        // Sorted small steps over a wide base: FOR/delta's shape.
        _ => {
            let mut v = rng.gen_range(i64::MIN / 2..i64::MAX / 2);
            ColumnVector::Int64(
                (0..rows)
                    .map(|_| {
                        v += rng.gen_range(0..9i64);
                        v
                    })
                    .collect(),
            )
        }
    }
}

/// A column in which no two rows tie, in random order.
fn unique_column(rng: &mut StdRng, rows: usize) -> ColumnVector {
    let mut ids: Vec<i32> = (0..rows as i32).map(|i| i * 3 - 40).collect();
    ids.shuffle(rng);
    ColumnVector::Int32(ids)
}

/// The typed build of one random row group against the reference's.
fn typed_build_matches_reference(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = match rng.gen_range(0..4) {
        0 => rng.gen_range(1..5),
        1 => rng.gen_range(60..70), // around one FOR/delta frame
        _ => rng.gen_range(1..600),
    };
    let ncols = rng.gen_range(1..=5);
    let mut columns: Vec<ColumnVector> = (0..ncols)
        .map(|_| {
            let shape = rng.gen_range(0..8);
            random_column(&mut rng, rows, shape)
        })
        .collect();
    // A unique column first, last, or absent.
    match rng.gen_range(0..3) {
        0 => columns[0] = unique_column(&mut rng, rows),
        1 => columns[ncols - 1] = unique_column(&mut rng, rows),
        _ => {}
    }
    // The index's key: none, the first or last column, or every column
    // last to first.
    let key: Vec<usize> = match rng.gen_range(0..4) {
        0 => vec![],
        1 => vec![0],
        2 => vec![ncols - 1],
        _ => (0..ncols).rev().collect(),
    };
    let forced = std::env::var("HPD_FORCE_ENCODING")
        .ok()
        .and_then(|name| ENCODINGS.into_iter().find(|e| e.name() == name));
    // A segment's reference encoding, its bytes (a nonzero exponent takes
    // a byte of its own) and its smallest and largest value.
    let reference_segment = |stored: &ColumnVector| {
        let (stream, exponent, dict, min, max) = reference::normalize(stored);
        let want = reference::encode_i64s(&stream, forced);
        let dict_bytes: usize = dict.iter().flatten().map(|s| s.len() + 4).sum();
        let bytes = want.encoded_bytes() + dict_bytes + usize::from(exponent > 0);
        (stream, exponent, want, bytes, min, max)
    };
    let bytes_in = |perm: &[usize]| -> usize {
        (columns.iter())
            .map(|column| reference_segment(&column.take(perm)).3)
            .sum()
    };
    // The three orders in the order they win ties: greedy, arrival, key.
    let greedy = reference::sort_permutation(&columns, &reference::greedy_column_order(&columns));
    let candidates = [
        greedy,
        (0..rows).collect(),
        reference::sort_permutation(&columns, &key),
    ];
    let sizes = candidates.each_ref().map(|perm| bytes_in(perm));
    let best = (0..3).min_by_key(|&i| sizes[i]).expect("three orders");
    let perm = &candidates[best];

    let alloc = StorageAllocator::new();
    let built = RowGroup::build(columns.clone(), &key, &alloc);
    assert_eq!(built.encoded_bytes(), sizes[best], "seed {seed}: {sizes:?}");
    assert!(
        built.encoded_bytes() <= sizes[0],
        "seed {seed}: no more than greedy"
    );
    for (c, column) in columns.iter().enumerate() {
        // The stored order is the reference permutation's: both are stable.
        let stored = column.take(perm);
        let seg = built.segment(c);
        let what = format!(
            "seed {seed} order {best} column {c} {:?}",
            column.data_type()
        );
        assert_eq!(show_column(&seg.decode()), show_column(&stored), "{what}");

        let (stream, exponent, want, bytes, min, max) = reference_segment(&stored);
        assert_eq!(seg.encoding(), want.encoding(), "{what}");
        assert_eq!(seg.exponent(), exponent, "{what}");
        assert_eq!(seg.encoded_bytes(), bytes, "{what}");
        assert_eq!(seg.run_count(), want.run_count(), "{what}");
        assert_eq!(show_value(seg.min()), show_value(&min), "{what}");
        assert_eq!(show_value(seg.max()), show_value(&max), "{what}");

        // The encoder alone, bytes and all: freely choosing, and forced.
        let got = hpd_columnstore::encode_i64s(&stream);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
        assert_eq!(got.decode(), stream, "{what}");
        for enc in ENCODINGS {
            let got = encode_as(&stream, enc);
            let want = reference::encode_as(&stream, enc);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what} as {enc:?}");
        }
    }
}

/// The generator above must keep reaching what it was written to reach:
/// both sorts of a row group, all three of its orders and all five
/// encodings.
#[test]
fn the_equivalence_cases_reach_both_sorts_and_every_encoding() {
    for seed in 0..48 {
        typed_build_matches_reference(seed);
    }
    let snap = hpd_obs::global().snapshot();
    let builds = [
        "sort_packed",
        "sort_compared",
        "order_greedy",
        "order_arrival",
        "order_key",
    ];
    for name in (builds.map(|b| format!("build.{b}")).into_iter())
        .chain(ENCODINGS.map(|e| format!("encoding.segments_{}", e.name())))
    {
        assert!(snap.counter(&format!("columnstore.{name}")) > 0, "{name}");
    }
}

proptest! {
    // The release run (CI's "Proptest regressions are live" step) goes wide.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 2_000 }))]

    #[test]
    fn prop_typed_rowgroup_build_is_the_value_build_byte_for_byte(seed in 0u64..u64::MAX) {
        typed_build_matches_reference(seed);
    }
}

/// The checked-in `csi_tests.proptest-regressions` file must actually be
/// found and parsed by the harness (its entries replay before novel cases
/// in every `proptest!` block above). Guards the `file!()`-relative path
/// resolution against cwd changes in cargo.
#[test]
fn checked_in_regressions_are_live() {
    let recorded = proptest::regressions::load(file!());
    assert!(
        !recorded.is_empty(),
        "csi_tests.proptest-regressions was not loaded"
    );
    assert!(
        matches!(recorded[0], proptest::regressions::Recorded::Seed(_)),
        "the legacy hex token must parse as a hashed seed"
    );
}
