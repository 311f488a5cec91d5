//! Row groups: independently compressed horizontal partitions.

use std::sync::OnceLock;

use hpd_common::{ColumnVector, SelBitmap};
use hpd_obs::Counter;
use hpd_storage::StorageAllocator;

use crate::encoding::{bits_for, Domain};
use crate::segment::{Segment, TypedColumn};

/// `columnstore.build.*` counters: row groups compressed, how many of the
/// greedy ones sorted packed keys alone, and how many had columns left over
/// to compare.
fn build_counters() -> &'static [Counter; 3] {
    static C: OnceLock<[Counter; 3]> = OnceLock::new();
    C.get_or_init(|| {
        [
            "columnstore.build.rowgroups",
            "columnstore.build.sort_packed",
            "columnstore.build.sort_compared",
        ]
        .map(|name| hpd_obs::global().counter(name))
    })
}

/// How rows are ordered before compressing a row group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortMode {
    /// Keep arrival order (CSI built over unsorted data).
    Arrival,
    /// SQL Server's greedy strategy (paper Figure 8): within the row group,
    /// sort by columns in ascending-distinct-count order to maximize
    /// run-length compression.
    Greedy,
}

/// One independently compressed row group: a segment per stored column plus
/// a delete bitmap.
#[derive(Debug, Clone)]
pub struct RowGroup {
    segments: Vec<Segment>,
    rows: usize,
    /// Delete bitmap: bit i set ⇔ row i logically deleted.
    deleted: Vec<u64>,
    deleted_count: usize,
}

impl RowGroup {
    /// Compress `columns` (all equal length, non-empty) into a row group.
    /// Each column stays at its own width (`TypedColumn`): counting and
    /// ordering read its words in place, and then one column at a time is
    /// turned into its stream of words, in sorted order, encoded and freed —
    /// what is alive beside the columns is the sort's permutation and one
    /// stream.
    pub fn build(columns: Vec<ColumnVector>, sort: SortMode, alloc: &StorageAllocator) -> RowGroup {
        let rows = columns.first().map_or(0, ColumnVector::len);
        assert!(rows > 0, "row groups are never empty");
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        let [rowgroups, ..] = build_counters();
        rowgroups.add(1);

        // Room for counting any column: no column's count grows it.
        let mut scratch = Vec::with_capacity(rows);
        let columns: Vec<TypedColumn> = (columns.into_iter())
            .map(|c| TypedColumn::of(c, &mut scratch))
            .collect();
        // Counting's working space goes before the sort takes its own; the
        // first stream allocates the streams' at their length.
        scratch = Vec::new();
        let perm = match sort {
            SortMode::Arrival => None,
            SortMode::Greedy => Some(sort_permutation(&columns)),
        };
        let segments = (columns.into_iter())
            .map(|column| column.into_segment(perm.as_deref(), &mut scratch, alloc))
            .collect();
        RowGroup {
            segments,
            rows,
            deleted: vec![0u64; rows.div_ceil(64)],
            deleted_count: 0,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Rows not marked deleted.
    pub fn active_rows(&self) -> usize {
        self.rows - self.deleted_count
    }

    pub fn deleted_count(&self) -> usize {
        self.deleted_count
    }

    pub fn segment(&self, col: usize) -> &Segment {
        &self.segments[col]
    }

    pub fn num_columns(&self) -> usize {
        self.segments.len()
    }

    /// Mark a row deleted; returns false if it already was.
    pub fn mark_deleted(&mut self, pos: usize) -> bool {
        debug_assert!(pos < self.rows);
        let (w, b) = (pos / 64, pos % 64);
        let mask = 1u64 << b;
        if self.deleted[w] & mask != 0 {
            return false;
        }
        self.deleted[w] |= mask;
        self.deleted_count += 1;
        true
    }

    /// Liveness bitmap (bit set = row visible), built by inverting the
    /// packed delete-bitmap words directly — no per-row work.
    pub fn live_mask(&self) -> SelBitmap {
        SelBitmap::from_inverted_words(&self.deleted, self.rows)
    }

    /// Total compressed bytes across all segments.
    pub fn encoded_bytes(&self) -> usize {
        self.segments.iter().map(Segment::encoded_bytes).sum()
    }
}

/// Distinct-count-ascending column order (the greedy choice of Figure 8).
/// Ties break toward the lower column ordinal, which keeps the order stable
/// and matches the paper's worked example.
fn greedy_column_order(domains: &[&Domain]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..domains.len()).collect();
    order.sort_by_key(|&c| (domains[c].distinct, c));
    order
}

/// Stable permutation sorting rows lexicographically by the greedy column
/// order: position → arrival index.
fn sort_permutation(columns: &[TypedColumn]) -> Vec<u32> {
    let rows = u32::try_from(columns[0].len()).expect("a row group holds under 2^32 rows");
    let domains: Vec<&Domain> = columns.iter().map(|c| &c.domain).collect();
    let mut order = greedy_column_order(&domains);
    // No two rows tie on a unique column: the columns after it decide nothing.
    if let Some(at) = (order.iter()).position(|&c| domains[c].distinct == rows as usize) {
        order.truncate(at + 1);
    }
    let width = |c: usize| bits_for((domains[c].max as i128 - domains[c].min as i128) as u128);
    let index_bits = bits_for(u128::from(rows - 1));
    // Each row is one integer: the offsets of its sort columns from their
    // minimums, in sort order, for as many leading columns as fit 128 bits
    // beside the row index in the low bits.
    let mut bits = index_bits;
    let packed = (order.iter())
        .take_while(|&&c| {
            bits += width(c);
            bits <= 128
        })
        .count();
    let (head, tail) = order.split_at(packed);
    let mut keys = vec![0u128; rows as usize];
    for &c in head {
        let (min, width) = (domains[c].min, width(c));
        columns[c].zip_words(&mut keys, |key, v| {
            *key = *key << width | u128::from(v.wrapping_sub(min) as u64);
        });
    }
    for (i, key) in keys.iter_mut().enumerate() {
        *key = *key << index_bits | i as u128;
    }
    // The index makes the keys distinct, so an unstable sort of them is the
    // stable sort of the rows; columns that did not fit decide between rows
    // equal in the ones that did, ahead of the index.
    let index = |key: &u128| (key & ((1 << index_bits) - 1)) as usize;
    let [_, sort_packed, sort_compared] = build_counters();
    if tail.is_empty() {
        sort_packed.add(1);
        keys.sort_unstable();
    } else {
        sort_compared.add(1);
        keys.sort_unstable_by(|a, b| {
            ((a >> index_bits).cmp(&(b >> index_bits)))
                .then_with(|| {
                    (tail.iter())
                        .map(|&c| columns[c].cmp_rows(index(a), index(b)))
                        .find(|cmp| cmp.is_ne())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .then(a.cmp(b))
        });
    }
    keys.iter().map(|key| index(key) as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::IntEncoding;
    use crate::{ColumnStoreIndex, CsiConfig, CsiKind};
    use hpd_common::{Batch, ColumnDef, Row, Schema, Value};
    use hpd_storage::{BufferPool, DeviceProfile, IoTracker};

    fn alloc() -> StorageAllocator {
        StorageAllocator::new()
    }

    /// `columns` built into one row group of a columnstore, read back
    /// through its `CsiScan` cursor in `projection` order.
    fn scan(columns: &[ColumnVector], sort: SortMode, projection: &[usize]) -> Batch {
        let rows: Vec<Row> = (0..columns[0].len())
            .map(|i| Row::new(columns.iter().map(|c| c.value(i)).collect()))
            .collect();
        let defs = (columns.iter().enumerate())
            .map(|(i, c)| ColumnDef::new(format!("c{i}"), c.data_type()))
            .collect();
        let pool = BufferPool::unbounded(DeviceProfile::ram());
        let t = IoTracker::new();
        let config = CsiConfig {
            sort_mode: sort,
            ..CsiConfig::default()
        };
        let idx = ColumnStoreIndex::build(
            Schema::new(defs),
            CsiKind::Secondary,
            vec![0],
            config,
            &rows,
            alloc(),
            &pool,
            &t,
        );
        let mut cursor = idx.begin_scan(projection.to_vec(), Default::default(), &pool, &t);
        let batch = cursor.next_batch(&pool, &t).expect("one row group");
        assert!(cursor.next_batch(&pool, &t).is_none());
        batch
    }

    /// The worked example of the paper's Figure 8: columns A and B; sorting
    /// by ⟨B, A⟩ (B has 2 distinct values, A has 3) yields encoded segments
    /// A: (0,1),(1,1),(3,4) and B: (0,3),(1,3).
    #[test]
    fn rle_paper_example() {
        let a = ColumnVector::Int32(vec![3, 3, 0, 1, 3, 3]);
        let b = ColumnVector::Int32(vec![0, 1, 0, 0, 1, 1]);
        let rg = RowGroup::build(vec![a, b], SortMode::Greedy, &alloc());

        let a_dec = rg.segment(0).decode();
        let b_dec = rg.segment(1).decode();
        assert_eq!(a_dec, ColumnVector::Int32(vec![0, 1, 3, 3, 3, 3]));
        assert_eq!(b_dec, ColumnVector::Int32(vec![0, 0, 0, 1, 1, 1]));
        // Run counts match the figure: A has 3 runs, B has 2.
        assert_eq!(rg.segment(0).run_count(), 3);
        assert_eq!(rg.segment(1).run_count(), 2);
    }

    fn typed(columns: &[ColumnVector]) -> Vec<TypedColumn> {
        (columns.iter().cloned())
            .map(|c| TypedColumn::of(c, &mut Vec::new()))
            .collect()
    }

    fn domains(columns: &[TypedColumn]) -> Vec<&Domain> {
        columns.iter().map(|c| &c.domain).collect()
    }

    #[test]
    fn greedy_order_prefers_fewest_distinct() {
        let many = ColumnVector::Int32((0..100).collect());
        let few = ColumnVector::Int32((0..100).map(|i| i % 3).collect());
        let order = |columns: &[ColumnVector]| greedy_column_order(&domains(&typed(columns)));
        assert_eq!(order(&[many.clone(), few.clone()]), vec![1, 0]);
        assert_eq!(order(&[few, many]), vec![0, 1]);
    }

    /// The sort as it was before columns were normalized: a stable sort of
    /// the row indexes comparing boxed `Value`s, over every column in greedy
    /// order.
    fn sort_permutation_by_value(columns: &[ColumnVector], order: &[usize]) -> Vec<u32> {
        let mut perm: Vec<u32> = (0..columns[0].len() as u32).collect();
        perm.sort_by(|&a, &b| {
            (order.iter().map(|&c| &columns[c]))
                .map(|col| col.value(a as usize).cmp(&col.value(b as usize)))
                .find(|cmp| cmp.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        perm
    }

    #[test]
    fn the_packed_and_the_compared_sort_are_the_stable_value_sort() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let floats = [-0.0, 0.0, f64::NAN, -f64::NAN, f64::INFINITY, -1.5, 2.0];
        for case in 0..200 {
            let rows = 1 + next(300) as usize;
            let ncols = 1 + next(4) as usize;
            let columns: Vec<ColumnVector> = (0..ncols)
                .map(|_| match next(6) {
                    0 => ColumnVector::Int32((0..rows).map(|_| next(5) as i32 - 2).collect()),
                    // Unique: the order is cut here.
                    1 => {
                        ColumnVector::Int64((0..rows as i64).map(|i| (i * 7_919) % 1_009).collect())
                    }
                    // As wide as a column gets: two of these overflow the key.
                    2 => ColumnVector::Int64(
                        (0..rows)
                            .map(|_| [i64::MIN, -1, 0, i64::MAX][next(4) as usize])
                            .collect(),
                    ),
                    3 => {
                        ColumnVector::Float64((0..rows).map(|_| floats[next(7) as usize]).collect())
                    }
                    4 => ColumnVector::Date((0..rows).map(|_| next(3) as i32).collect()),
                    _ => ColumnVector::Str(
                        (0..rows)
                            .map(|_| {
                                ["", "a", "a\0", "ab", "prefix-1", "prefix-2"][next(6) as usize]
                                    .into()
                            })
                            .collect(),
                    ),
                })
                .collect();
            let typed = typed(&columns);
            assert_eq!(
                sort_permutation(&typed),
                sort_permutation_by_value(&columns, &greedy_column_order(&domains(&typed))),
                "case {case}: {columns:?}"
            );
        }
        let snap = hpd_obs::global().snapshot();
        assert!(snap.counter("columnstore.build.sort_packed") > 0);
        assert!(snap.counter("columnstore.build.sort_compared") > 0);
    }

    #[test]
    fn greedy_sort_improves_compression() {
        // Random-ish low-cardinality data: arrival order compresses poorly,
        // greedy sort turns it into a handful of runs.
        let vals: Vec<i32> = (0..10_000)
            .map(|i| (i * 2_654_435_761u64 as i64 % 8) as i32)
            .collect();
        let arrival = RowGroup::build(
            vec![ColumnVector::Int32(vals.clone())],
            SortMode::Arrival,
            &alloc(),
        );
        let greedy = RowGroup::build(vec![ColumnVector::Int32(vals)], SortMode::Greedy, &alloc());
        assert!(greedy.encoded_bytes() * 10 < arrival.encoded_bytes());
        assert_eq!(greedy.segment(0).encoding(), IntEncoding::Rle);
    }

    #[test]
    fn delete_bitmap_marks_and_counts() {
        let rg_cols = vec![ColumnVector::Int32((0..100).collect())];
        let mut rg = RowGroup::build(rg_cols, SortMode::Arrival, &alloc());
        assert_eq!(rg.active_rows(), 100);
        assert!(rg.mark_deleted(5));
        assert!(!rg.mark_deleted(5), "double delete is a no-op");
        assert!(rg.mark_deleted(99));
        assert_eq!(rg.deleted_count(), 2);
        assert_eq!(rg.active_rows(), 98);
        let mask = rg.live_mask();
        assert!(!mask.get(5) && !mask.get(99) && mask.get(0) && mask.get(6));
        assert_eq!(mask.count(), 98);
    }

    #[test]
    fn decode_projection_order() {
        let a = ColumnVector::Int32(vec![1, 2, 3]);
        let b = ColumnVector::Int64(vec![10, 20, 30]);
        let batch = scan(&[a.clone(), b.clone()], SortMode::Arrival, &[1, 0]);
        assert_eq!(batch.column(0), &b);
        assert_eq!(batch.column(1), &a);
    }

    #[test]
    fn sort_is_stable_and_consistent_across_columns() {
        // After greedy sort, rows must stay aligned across columns.
        let a = ColumnVector::Int32(vec![2, 1, 2, 1]);
        let b = ColumnVector::Int32(vec![10, 20, 30, 40]);
        let batch = scan(&[a, b], SortMode::Greedy, &[0, 1]);
        let pairs: Vec<(Value, Value)> = (0..4)
            .map(|i| (batch.column(0).value(i), batch.column(1).value(i)))
            .collect();
        // Original pairs preserved as a set.
        let expected = [(2, 10), (1, 20), (2, 30), (1, 40)];
        for (x, y) in expected {
            assert!(pairs
                .iter()
                .any(|(a, b)| *a == Value::Int32(x) && *b == Value::Int32(y)));
        }
    }
}
