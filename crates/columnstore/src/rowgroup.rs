//! Row groups: independently compressed horizontal partitions.

use std::sync::OnceLock;

use hpd_common::{ColumnVector, SelBitmap};
use hpd_obs::Counter;
use hpd_storage::StorageAllocator;

use crate::encoding::{bits_for, Domain, Shape};
use crate::segment::{Segment, TypedColumn};

/// `columnstore.build.*` counters: row groups compressed, how many sorts
/// sorted packed keys alone and how many had columns left over to compare,
/// and which row order each row group was stored in.
fn build_counters() -> &'static [Counter; 6] {
    static C: OnceLock<[Counter; 6]> = OnceLock::new();
    C.get_or_init(|| {
        [
            "columnstore.build.rowgroups",
            "columnstore.build.sort_packed",
            "columnstore.build.sort_compared",
            "columnstore.build.order_greedy",
            "columnstore.build.order_arrival",
            "columnstore.build.order_key",
        ]
        .map(|name| hpd_obs::global().counter(name))
    })
}

/// The row orders a row group is sized in, in the order they win ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Order {
    /// SQL Server's greedy strategy (paper Figure 8): sort by the columns
    /// in ascending-distinct-count order, for the longest runs.
    Greedy,
    /// The rows as they came.
    Arrival,
    /// Sorted by the index's key columns.
    Key,
}

/// One row order of a row group, sized: its permutation (position →
/// arrival index; `None` for arrival order), each column's stream shape in
/// it, and the bytes those streams encode to.
struct Candidate {
    order: Order,
    perm: Option<Vec<u32>>,
    shapes: Vec<Shape>,
    bytes: usize,
}

impl Candidate {
    fn size(columns: &[TypedColumn], order: Order, perm: Option<Vec<u32>>) -> Candidate {
        let shapes: Vec<Shape> = (columns.iter()).map(|c| c.shape(perm.as_deref())).collect();
        let bytes = (columns.iter().zip(&shapes))
            .map(|(c, shape)| shape.choice(c.domain.distinct).0)
            .sum();
        Candidate {
            order,
            perm,
            shapes,
            bytes,
        }
    }
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
    /// Compress `columns` (all equal length, non-empty) into a row group,
    /// its rows in whichever of three orders stores the fewest bytes: the
    /// greedy order of Figure 8, which wins ties, arrival order, or the
    /// order of the columns `key` (the index's key; skipped when empty or
    /// when arrival is already in it). An order's bytes are what each
    /// column's stream in it encodes to, sized exactly before anything is
    /// encoded; a segment's dictionary and exponent byte are the same in
    /// every order.
    ///
    /// Each column stays at its own width (`TypedColumn`): counting,
    /// ordering and sizing read its words in place, and then one column at
    /// a time is turned into its stream of words, in the chosen order,
    /// encoded and freed — what is alive beside the columns is the
    /// candidates' permutations and one stream.
    pub fn build(columns: Vec<ColumnVector>, key: &[usize], alloc: &StorageAllocator) -> RowGroup {
        let rows = columns.first().map_or(0, ColumnVector::len);
        assert!(rows > 0, "row groups are never empty");
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        let [rowgroups, _, _, greedy, arrival, by_key] = build_counters();
        rowgroups.add(1);

        // Room for counting any column: no column's count grows it.
        let mut scratch = Vec::with_capacity(rows);
        let columns: Vec<TypedColumn> = (columns.into_iter())
            .map(|c| TypedColumn::of(c, &mut scratch))
            .collect();
        // Counting's working space goes before the sorts take their own;
        // the first stream allocates the streams' at their length.
        scratch = Vec::new();
        let best = smallest_order(&columns, key);
        match best.order {
            Order::Greedy => greedy.add(1),
            Order::Arrival => arrival.add(1),
            Order::Key => by_key.add(1),
        }
        let segments = (columns.into_iter().zip(&best.shapes))
            .map(|(column, shape)| {
                column.into_segment(best.perm.as_deref(), shape, &mut scratch, alloc)
            })
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

/// The smallest of the candidate orders [`RowGroup::build`] sizes, the
/// first of equal ones in [`Order`]'s order.
fn smallest_order(columns: &[TypedColumn], key: &[usize]) -> Candidate {
    let greedy = sort_permutation(columns, &greedy_column_order(columns));
    let mut best = Candidate::size(columns, Order::Greedy, Some(greedy));
    let arrival = Candidate::size(columns, Order::Arrival, None);
    if arrival.bytes < best.bytes {
        best = arrival;
    }
    if !key.is_empty() && !in_order(columns, key) {
        let by_key = Candidate::size(columns, Order::Key, Some(sort_permutation(columns, key)));
        if by_key.bytes < best.bytes {
            best = by_key;
        }
    }
    best
}

/// Whether the rows already ascend by the columns `order`, compared
/// lexicographically (equal rows in any order).
fn in_order(columns: &[TypedColumn], order: &[usize]) -> bool {
    (1..columns[0].len()).all(|row| {
        (order.iter())
            .map(|&c| columns[c].cmp_rows(row - 1, row))
            .find(|cmp| cmp.is_ne())
            .is_none_or(|cmp| cmp.is_lt())
    })
}

/// Distinct-count-ascending column order (the greedy choice of Figure 8).
/// Ties break toward the lower column ordinal, which keeps the order stable
/// and matches the paper's worked example.
fn greedy_column_order(columns: &[TypedColumn]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..columns.len()).collect();
    order.sort_by_key(|&c| (columns[c].domain.distinct, c));
    order
}

/// Bits of a column's offsets from its minimum.
fn width(domain: &Domain) -> usize {
    bits_for((domain.max as i128 - domain.min as i128) as u128)
}

/// Stable permutation sorting rows lexicographically by the columns
/// `order`: position → arrival index.
fn sort_permutation(columns: &[TypedColumn], order: &[usize]) -> Vec<u32> {
    let rows = u32::try_from(columns[0].len()).expect("a row group holds under 2^32 rows");
    let domain = |c: usize| &columns[c].domain;
    // No two rows tie on a unique column: the columns after it decide nothing.
    let order = match (order.iter()).position(|&c| domain(c).distinct == rows as usize) {
        Some(at) => &order[..=at],
        None => order,
    };
    let index_bits = bits_for(u128::from(rows - 1));
    // Each row is one integer: the offsets of its sort columns from their
    // minimums, in sort order, for as many leading columns as fit 128 bits
    // beside the row index in the low bits.
    let mut bits = index_bits;
    let packed = (order.iter())
        .take_while(|&&c| {
            bits += width(domain(c));
            bits <= 128
        })
        .count();
    let (head, tail) = order.split_at(packed);
    let [_, sort_packed, sort_compared, ..] = build_counters();
    let key_bits = index_bits + head.iter().map(|&c| width(domain(c))).sum::<usize>();
    if tail.is_empty() && key_bits < 64 {
        // Half the bytes to move: the rows sort as `u64`s.
        sort_packed.add(1);
        let mut keys: Vec<u64> = packed_keys(columns, head, index_bits);
        keys.sort_unstable();
        return keys
            .iter()
            .map(|&key| (key & ((1 << index_bits) - 1)) as u32)
            .collect();
    }
    let mut keys: Vec<u128> = packed_keys(columns, head, index_bits);
    // The index makes the keys distinct, so an unstable sort of them is the
    // stable sort of the rows; columns that did not fit decide between rows
    // equal in the ones that did, ahead of the index.
    let index = |key: &u128| (key & ((1 << index_bits) - 1)) as usize;
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

/// Each row as one integer: the offsets of the columns `head` from their
/// minimums, in that order, then the row's index in its low `index_bits`
/// (the caller has checked that they fit `K`).
fn packed_keys<K>(columns: &[TypedColumn], head: &[usize], index_bits: usize) -> Vec<K>
where
    K: Copy + From<u64> + std::ops::Shl<usize, Output = K> + std::ops::BitOr<Output = K>,
{
    let mut keys = vec![K::from(0); columns[0].len()];
    for &c in head {
        let (min, width) = (columns[c].domain.min, width(&columns[c].domain));
        columns[c].zip_words(&mut keys, |key, v| {
            *key = *key << width | K::from(v.wrapping_sub(min) as u64);
        });
    }
    for (i, key) in keys.iter_mut().enumerate() {
        *key = *key << index_bits | K::from(i as u64);
    }
    keys
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

    /// `columns` built into one row group of a columnstore keyed on its
    /// first column, read back through its `CsiScan` cursor in
    /// `projection` order.
    fn scan(columns: &[ColumnVector], projection: &[usize]) -> Batch {
        let rows: Vec<Row> = (0..columns[0].len())
            .map(|i| Row::new(columns.iter().map(|c| c.value(i)).collect()))
            .collect();
        let defs = (columns.iter().enumerate())
            .map(|(i, c)| ColumnDef::new(format!("c{i}"), c.data_type()))
            .collect();
        let pool = BufferPool::unbounded(DeviceProfile::ram());
        let t = IoTracker::new();
        let idx = ColumnStoreIndex::build(
            Schema::new(defs),
            CsiKind::Secondary,
            vec![0],
            CsiConfig::default(),
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
    /// A: (0,1),(1,1),(3,4) and B: (0,3),(1,3). Six rows bit-pack to the
    /// same bytes in every order, and the greedy order wins ties.
    #[test]
    fn rle_paper_example() {
        let a = ColumnVector::Int32(vec![3, 3, 0, 1, 3, 3]);
        let b = ColumnVector::Int32(vec![0, 1, 0, 0, 1, 1]);
        let rg = RowGroup::build(vec![a, b], &[0], &alloc());

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

    /// The bytes `columns`' streams encode to in the greedy order.
    fn greedy_bytes(columns: &[ColumnVector]) -> usize {
        let typed = typed(columns);
        let perm = sort_permutation(&typed, &greedy_column_order(&typed));
        Candidate::size(&typed, Order::Greedy, Some(perm)).bytes
    }

    #[test]
    fn greedy_order_prefers_fewest_distinct() {
        let many = ColumnVector::Int32((0..100).collect());
        let few = ColumnVector::Int32((0..100).map(|i| i % 3).collect());
        let order = |columns: &[ColumnVector]| greedy_column_order(&typed(columns));
        assert_eq!(order(&[many.clone(), few.clone()]), vec![1, 0]);
        assert_eq!(order(&[few, many]), vec![0, 1]);
    }

    /// The sort as it was before columns were normalized: a stable sort of
    /// the row indexes comparing boxed `Value`s, over every column of
    /// `order`.
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

    /// Both column orders a row group sorts by, the greedy one and a key
    /// (here the columns last to first), on `u64`, `u128` and compared keys.
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
            let greedy = greedy_column_order(&typed);
            let key: Vec<usize> = (0..ncols).rev().collect();
            for order in [greedy, key] {
                assert_eq!(
                    sort_permutation(&typed, &order),
                    sort_permutation_by_value(&columns, &order),
                    "case {case}, order {order:?}: {columns:?}"
                );
                let sorted = sort_permutation_by_value(&columns, &order);
                let ascending = sorted.iter().enumerate().all(|(i, &p)| p as usize == i);
                assert_eq!(in_order(&typed, &order), ascending, "case {case}");
            }
        }
        let snap = hpd_obs::global().snapshot();
        assert!(snap.counter("columnstore.build.sort_packed") > 0);
        assert!(snap.counter("columnstore.build.sort_compared") > 0);
    }

    #[test]
    fn greedy_order_wins_on_low_cardinality() {
        // Random-ish low-cardinality data: arrival order compresses poorly,
        // greedy sort turns it into a handful of runs.
        let vals: Vec<i32> = (0..10_000)
            .map(|i| (i * 2_654_435_761u64 as i64 % 8) as i32)
            .collect();
        let column = ColumnVector::Int32(vals);
        let arrival = Segment::build(&column, &alloc());
        let greedy = RowGroup::build(vec![column], &[], &alloc());
        assert!(greedy.encoded_bytes() * 10 < arrival.encoded_bytes());
        assert_eq!(greedy.segment(0).encoding(), IntEncoding::Rle);
    }

    /// `micro`'s shape: a unique key spread over 2^31, a 100-value column
    /// and a uniform one. In key order the key's steps fit FOR/delta at 14
    /// bits; the greedy order, led by the 100-value column, leaves the key
    /// bit-packed at 31.
    fn micro(rows: i64, shuffled: bool) -> Vec<ColumnVector> {
        let mix = |i: i64, salt: i64| (i.wrapping_mul(2_654_435_761) ^ salt).rem_euclid(1 << 31);
        let at = |i: i64| if shuffled { (i * 7_919) % rows } else { i };
        let key = |i: i64| (at(i) * (1 << 31) / rows + mix(at(i), 1) % 5_000) as i32;
        vec![
            ColumnVector::Int32((0..rows).map(key).collect()),
            ColumnVector::Int32((0..rows).map(|i| (mix(at(i), 2) % 100) as i32).collect()),
            ColumnVector::Int32((0..rows).map(|i| mix(at(i), 3) as i32).collect()),
        ]
    }

    #[test]
    fn arrival_order_wins_when_it_is_the_key_order() {
        let columns = micro(8_192, false);
        let rg = RowGroup::build(columns.clone(), &[0], &alloc());
        assert_eq!(rg.segment(0).decode(), columns[0], "arrival order kept");
        assert_eq!(rg.segment(0).encoding(), IntEncoding::ForDelta);
        assert!(rg.encoded_bytes() < greedy_bytes(&columns));
    }

    #[test]
    fn key_order_wins_where_it_is_the_smallest() {
        let columns = micro(8_192, true);
        let rg = RowGroup::build(columns.clone(), &[0], &alloc());
        let key = rg.segment(0).decode();
        let ColumnVector::Int32(key) = &key else {
            unreachable!()
        };
        assert!(key.is_sorted(), "key order");
        assert_eq!(rg.segment(0).encoding(), IntEncoding::ForDelta);
        assert!(rg.encoded_bytes() < greedy_bytes(&columns));
        // Without a key the greedy order is the smallest left.
        let keyless = RowGroup::build(columns.clone(), &[], &alloc());
        assert_eq!(keyless.segment(0).encoding(), IntEncoding::BitPacked);
        let snap = hpd_obs::global().snapshot();
        assert!(snap.counter("columnstore.build.order_key") > 0);
    }

    #[test]
    fn delete_bitmap_marks_and_counts() {
        let rg_cols = vec![ColumnVector::Int32((0..100).collect())];
        let mut rg = RowGroup::build(rg_cols, &[0], &alloc());
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
        let batch = scan(&[a.clone(), b.clone()], &[1, 0]);
        assert_eq!(batch.column(0), &b);
        assert_eq!(batch.column(1), &a);
    }

    #[test]
    fn sort_is_stable_and_consistent_across_columns() {
        // After any sort, rows must stay aligned across columns.
        let a = ColumnVector::Int32(vec![2, 1, 2, 1]);
        let b = ColumnVector::Int32(vec![10, 20, 30, 40]);
        let batch = scan(&[a, b], &[0, 1]);
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
