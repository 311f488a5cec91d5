//! The columnstore index: compressed row groups + delta store + delete
//! handling, with the primary/secondary split described in paper §2.
//!
//! Maintenance ([`ColumnStoreIndex::maintenance_step`]) is budgeted and
//! converges instead of fragmenting: it resolves buffered deletes (at a
//! cost that follows the keys, not the table), then compresses delta rows,
//! then drops the row groups with no live row and merges runs of adjacent
//! row groups, the most dead rows and row groups removed per live row
//! rewritten first ([`ColumnStoreIndex::best_merge`]), while one fits the
//! budget left. A merge or a drop evicts only its own groups' decodes from
//! the decoded-segment cache.

use std::collections::{HashMap, HashSet};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use hpd_btree::{BTree, BTreeConfig};
use hpd_common::agg::{Acc, Summary};
use hpd_common::{
    faults, AggFunc, Batch, ColumnVector, DataType, Interval, Key, Result, Row, Schema, SelBitmap,
    Value, ValueRef,
};
use hpd_storage::{BufferPool, IoTracker, StorageAllocator, Work};

use crate::cache::SegmentCache;
use crate::delta::DeltaStore;
use crate::encoding::{IntEncoding, FOR_DELTA_FRAME};
use crate::rowgroup::{RowGroup, SortMode};
use crate::segment::Segment;

/// Decayed access counters for one row group. Cells are atomics so scans
/// (which take `&self`) can record without locking; the tuple mover halves
/// every cell on each maintenance pass, so values approximate an
/// exponentially-weighted recent-access rate — the input the compaction
/// scheduler (ROADMAP item 4) ranks row groups by.
#[derive(Debug, Default)]
pub struct RowGroupHeat {
    /// Scans that read this row group (it survived elimination).
    reads: AtomicU64,
    /// Rows this row group contributed to scan outputs.
    rows_read: AtomicU64,
    /// Scans that skipped this row group via min/max elimination.
    prunes: AtomicU64,
    /// Delete-bitmap bits set here (deletes and the delete half of updates).
    writes: AtomicU64,
}

impl RowGroupHeat {
    fn cells(&self) -> [&AtomicU64; 4] {
        [&self.reads, &self.rows_read, &self.prunes, &self.writes]
    }

    /// Add `other`'s counts to this one's: a merged row group carries the
    /// heat of the groups its rows came from.
    fn absorb(&self, other: &RowGroupHeat) {
        for (mine, theirs) in self.cells().into_iter().zip(other.cells()) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    fn decay(&self) {
        for cell in self.cells() {
            // Halve; a racing increment can be folded into either side.
            cell.store(cell.load(Ordering::Relaxed) / 2, Ordering::Relaxed);
        }
    }

    fn snapshot(
        &self,
        rowgroup: usize,
        rows: usize,
        active_rows: usize,
        encodings: Vec<IntEncoding>,
    ) -> RowGroupHeatSnapshot {
        RowGroupHeatSnapshot {
            rowgroup,
            rows,
            active_rows,
            encodings,
            reads: self.reads.load(Ordering::Relaxed),
            rows_read: self.rows_read.load(Ordering::Relaxed),
            prunes: self.prunes.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of one row group's heat cells.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RowGroupHeatSnapshot {
    pub rowgroup: usize,
    pub rows: usize,
    pub active_rows: usize,
    /// Chosen physical encoding per stored column, so hot-rowgroup
    /// diagnostics show *how* hot data is compressed.
    pub encodings: Vec<IntEncoding>,
    pub reads: u64,
    pub rows_read: u64,
    pub prunes: u64,
    pub writes: u64,
}

impl RowGroupHeatSnapshot {
    /// Scalar ranking score: recent reads weigh a row group hot, prunes
    /// (scans that skipped it) weigh it cold.
    pub fn score(&self) -> u64 {
        (self.reads * 4 + self.rows_read / 1024 + self.writes * 2).saturating_sub(self.prunes)
    }
}

/// What one budgeted maintenance increment actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CsiMaintenanceStep {
    /// Buffered logical deletes resolved into delete-bitmap bits.
    pub deletes_compacted: usize,
    /// Delta rows compressed into row groups.
    pub rows_moved: usize,
    /// Live rows rewritten while merging under-filled row groups.
    pub rows_rewritten: usize,
    /// Source row groups eliminated by merge-compaction.
    pub rowgroups_merged: usize,
    /// True when no backlog remains (empty delta store *and* delete
    /// buffer) — the next increment would be a no-op.
    pub done: bool,
}

/// A run of adjacent row groups the merge phase may rewrite into one
/// ([`ColumnStoreIndex::best_merge`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowgroupMerge {
    /// Positions of the row groups merged.
    pub rowgroups: std::ops::Range<usize>,
    /// Rows the merge rewrites: the run's live rows.
    pub live_rows: usize,
    /// Bitmap-deleted rows the rewrite drops.
    pub dead_rows: usize,
}

impl RowgroupMerge {
    /// What the merge removes: its dead rows and all its groups but one.
    fn gain(&self) -> usize {
        self.dead_rows + self.rowgroups.len() - 1
    }

    /// Whether `self` ranks over `other`: more gain per live row rewritten,
    /// then more gain.
    fn beats(&self, other: &RowgroupMerge) -> bool {
        let mine = self.gain() as u128 * other.live_rows as u128;
        let theirs = other.gain() as u128 * self.live_rows as u128;
        mine > theirs || (mine == theirs && self.gain() > other.gain())
    }
}

/// Heat report for one columnstore index.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CsiHeatReport {
    pub rowgroups: Vec<RowGroupHeatSnapshot>,
    /// Rows inserted into the delta store since the last decay.
    pub delta_writes: u64,
    /// Delta-store scans since the last decay.
    pub delta_reads: u64,
    /// Decay passes applied over the index lifetime (not decayed itself).
    pub decay_passes: u64,
}

/// `v` as the word it orders by when it is of the integer-family type
/// `dtype` itself (an `Int32` among `Int32`s, a `Date` among `Date`s, ...):
/// among such values, word order and equality are `Value`'s.
fn int_image(dtype: DataType, v: &Value) -> Option<i64> {
    match (dtype, v) {
        (DataType::Int32, Value::Int32(x)) | (DataType::Date, Value::Date(x)) => {
            Some(i64::from(*x))
        }
        (DataType::Int64, Value::Int64(x)) | (DataType::Decimal, Value::Decimal(x)) => Some(*x),
        _ => None,
    }
}

/// Row `pos` of an integer-family column as its word ([`int_image`]).
fn int_at(col: &ColumnVector, pos: usize) -> i64 {
    match col {
        ColumnVector::Int32(v) | ColumnVector::Date(v) => i64::from(v[pos]),
        ColumnVector::Int64(v) | ColumnVector::Decimal(v) => v[pos],
        ColumnVector::Float64(_) | ColumnVector::Str(_) => {
            unreachable!("a column whose keys have an integer image")
        }
    }
}

/// One aggregate to push down into the encoded fold
/// ([`ColumnStoreIndex::agg_collect`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushdownAgg {
    pub func: AggFunc,
    /// Aggregate input's column ordinal in this index's stored schema.
    /// COUNT ignores the values but the ordinal must still be valid.
    pub col: usize,
}

/// The rows `sel` selects of one segment, summarised by the encoded kernels
/// for the one accumulator ([`Acc::fold_summary`]).
struct Selected<'a> {
    segment: &'a Segment,
    sel: &'a SelBitmap,
    rows: usize,
}

impl Summary for Selected<'_> {
    fn rows(&self) -> usize {
        self.rows
    }

    fn int_total(&self) -> i128 {
        self.segment
            .sum_i128_masked(self.sel)
            .expect("integer-family column")
    }

    fn for_each_f64(&self, f: impl FnMut(f64)) {
        self.segment.for_each_f64_masked(self.sel, f);
    }

    fn min_max(&self) -> Option<(Value, Value)> {
        self.segment.min_max_masked(self.sel)
    }
}

/// Primary (main storage, delete bitmap only) vs. secondary (redundant,
/// delete buffer + bitmap) columnstore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsiKind {
    Primary,
    Secondary,
}

/// Tuning knobs of a columnstore index.
#[derive(Debug, Clone, Copy)]
pub struct CsiConfig {
    /// Rows per compressed row group (SQL Server: 100 K–1 M; scaled down by
    /// default to keep laptop-scale experiments meaningful).
    pub rowgroup_capacity: usize,
    /// Row ordering before compression.
    pub sort_mode: SortMode,
    /// Buffered logical deletes beyond which the "background" compaction
    /// resolves the delete buffer into delete bitmaps (the paper's periodic
    /// process, made deterministic and synchronous).
    pub delete_buffer_compact_threshold: usize,
    /// Byte cap of the decoded-segment cache (0 disables it). Repeated
    /// scans and point lookups reuse decoded columns instead of paying the
    /// decode again.
    pub decoded_cache_bytes: usize,
}

impl Default for CsiConfig {
    fn default() -> Self {
        CsiConfig {
            rowgroup_capacity: 65_536,
            sort_mode: SortMode::Greedy,
            delete_buffer_compact_threshold: 2_048,
            decoded_cache_bytes: 8 << 20,
        }
    }
}

/// A columnstore index being bulk loaded a row at a time, by whoever holds
/// the rows: values go straight into one row group's column vectors, which
/// are compressed and dropped once `rowgroup_capacity` rows have arrived —
/// one row group of uncompressed values is alive at a time, and no row ever
/// is.
pub struct CsiBuilder {
    index: ColumnStoreIndex,
    /// The row group being filled.
    columns: Vec<ColumnVector>,
}

impl CsiBuilder {
    pub fn new(
        schema: Schema,
        kind: CsiKind,
        key_ordinals: Vec<usize>,
        config: CsiConfig,
        alloc: StorageAllocator,
    ) -> CsiBuilder {
        let index = ColumnStoreIndex::new_empty(schema, kind, key_ordinals, config, alloc);
        CsiBuilder {
            columns: index.empty_columns(),
            index,
        }
    }

    /// Append a row of owned values, one for each column of the index.
    pub fn push<'a>(
        &mut self,
        values: impl IntoIterator<Item = &'a Value>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) {
        self.push_with(values, ColumnVector::push, pool, tracker)
    }

    /// [`CsiBuilder::push`] of values read in place (an encoded row's).
    pub fn push_refs<'a>(
        &mut self,
        values: impl IntoIterator<Item = ValueRef<'a>>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) {
        self.push_with(values, ColumnVector::push_ref, pool, tracker)
    }

    /// Append a row, `push` putting each of its values into its column; the
    /// column vectors are compressed once they are a row group.
    fn push_with<V>(
        &mut self,
        values: impl IntoIterator<Item = V>,
        push: impl Fn(&mut ColumnVector, V) -> Result<()>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) {
        let mut values = values.into_iter();
        for (column, v) in self.columns.iter_mut().zip(&mut values) {
            push(column, v).expect("rows match csi schema");
        }
        // A row with a value left over, or one that ran short and left the
        // last column behind, is not one of this index.
        let rows = self.columns[0].len();
        let last = self.columns.last().expect("a columnstore has columns");
        assert!(
            values.next().is_none() && last.len() == rows,
            "rows match csi schema"
        );
        if rows == self.index.config.rowgroup_capacity.max(1) {
            let full = std::mem::replace(&mut self.columns, self.index.empty_columns());
            self.index.push_rowgroup(full, pool, tracker);
        }
    }

    /// Compress what the last row group holds and hand the index over.
    pub fn finish(mut self, pool: &BufferPool, tracker: &IoTracker) -> ColumnStoreIndex {
        if !self.columns[0].is_empty() {
            self.index.push_rowgroup(self.columns, pool, tracker);
        }
        self.index
    }
}

/// A columnstore index over a fixed subset of a table's columns.
///
/// `key_ordinals` locate the table's row-identifying key inside this index's
/// stored schema; they drive delete-buffer anti-joins and primary-CSI
/// physical row location. Keys are assumed unique per row (the engine passes
/// the table's primary key).
pub struct ColumnStoreIndex {
    schema: Schema,
    kind: CsiKind,
    key_ordinals: Vec<usize>,
    config: CsiConfig,
    row_groups: Vec<RowGroup>,
    delta: DeltaStore,
    /// Secondary CSIs buffer logical deletes here (keyed by the row key).
    delete_buffer: Option<BTree>,
    /// Decoded segments, keyed by each segment's blob id — safe to cache
    /// because a segment never changes once built (deletes only flip bitmap
    /// bits). Compression adds row groups and merges or drops remove them,
    /// renumbering the rest; a removed group's decodes are evicted, and
    /// every other entry stays valid wherever its group moved.
    cache: SegmentCache,
    alloc: StorageAllocator,
    /// Access heat, parallel to `row_groups` (kept outside [`RowGroup`] so
    /// scans taking `&self` can record through atomics).
    heat: Vec<Arc<RowGroupHeat>>,
    delta_writes: AtomicU64,
    delta_reads: AtomicU64,
    decay_passes: AtomicU64,
}

impl ColumnStoreIndex {
    /// Bulk load a columnstore ("bulk loaded data is transformed directly
    /// into the compressed row groups"). Charges segment writes to
    /// `tracker`.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        schema: Schema,
        kind: CsiKind,
        key_ordinals: Vec<usize>,
        config: CsiConfig,
        rows: &[Row],
        alloc: StorageAllocator,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> ColumnStoreIndex {
        let mut builder = CsiBuilder::new(schema, kind, key_ordinals, config, alloc);
        for row in rows {
            builder.push(row.values(), pool, tracker);
        }
        builder.finish(pool, tracker)
    }

    fn new_empty(
        schema: Schema,
        kind: CsiKind,
        key_ordinals: Vec<usize>,
        config: CsiConfig,
        alloc: StorageAllocator,
    ) -> ColumnStoreIndex {
        debug_assert!(key_ordinals.iter().all(|&k| k < schema.len()));
        let delta = DeltaStore::new(alloc.clone());
        let delete_buffer = match kind {
            CsiKind::Secondary => Some(BTree::new(BTreeConfig::default(), alloc.clone())),
            CsiKind::Primary => None,
        };
        ColumnStoreIndex {
            schema,
            kind,
            key_ordinals,
            config,
            row_groups: Vec::new(),
            delta,
            delete_buffer,
            cache: SegmentCache::new(config.decoded_cache_bytes),
            alloc,
            heat: Vec::new(),
            delta_writes: AtomicU64::new(0),
            delta_reads: AtomicU64::new(0),
            decay_passes: AtomicU64::new(0),
        }
    }

    /// One empty vector a column, for a row group to fill.
    fn empty_columns(&self) -> Vec<ColumnVector> {
        (self.schema.columns().iter())
            .map(|c| ColumnVector::with_capacity(c.dtype, 0))
            .collect()
    }

    fn compress_chunk(&mut self, rows: &[Row], pool: &BufferPool, tracker: &IoTracker) {
        if rows.is_empty() {
            return;
        }
        let dtypes: Vec<_> = self.schema.columns().iter().map(|c| c.dtype).collect();
        let batch = Batch::from_rows(&dtypes, rows).expect("rows match csi schema");
        self.push_rowgroup(batch.into_columns(), pool, tracker);
    }

    /// Compress one row group's worth of column vectors and append it.
    fn push_rowgroup(
        &mut self,
        columns: Vec<ColumnVector>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) {
        let at = self.row_groups.len();
        self.place_rowgroup(at, columns, RowGroupHeat::default(), pool, tracker);
    }

    /// Compress one row group's worth of column vectors and put it at
    /// position `at`, with `heat`.
    fn place_rowgroup(
        &mut self,
        at: usize,
        columns: Vec<ColumnVector>,
        heat: RowGroupHeat,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) {
        let rg = RowGroup::build(columns, self.config.sort_mode, &self.alloc);
        for c in 0..rg.num_columns() {
            let seg = rg.segment(c);
            pool.write_blob(seg.blob(), seg.encoded_bytes() as u64, tracker);
        }
        self.row_groups.insert(at, rg);
        self.heat.insert(at, Arc::new(heat));
    }

    /// Take out the row groups `range`, evicting their decoded segments.
    fn remove_rowgroups(&mut self, range: std::ops::Range<usize>) {
        self.heat.drain(range.clone());
        for rg in self.row_groups.drain(range) {
            self.cache
                .evict((0..rg.num_columns()).map(|c| rg.segment(c)));
        }
    }

    pub fn kind(&self) -> CsiKind {
        self.kind
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn key_ordinals(&self) -> &[usize] {
        &self.key_ordinals
    }

    pub fn config(&self) -> &CsiConfig {
        &self.config
    }

    pub fn num_rowgroups(&self) -> usize {
        self.row_groups.len()
    }

    pub fn rowgroup(&self, idx: usize) -> &RowGroup {
        &self.row_groups[idx]
    }

    /// Rows visible to scans: live compressed rows + delta rows − buffered
    /// deletes.
    pub fn active_rows(&self) -> usize {
        let compressed: usize = self.row_groups.iter().map(RowGroup::active_rows).sum();
        compressed + self.delta.len() - self.delete_buffer_len()
    }

    pub fn delta_rows(&self) -> usize {
        self.delta.len()
    }

    pub fn delete_buffer_len(&self) -> usize {
        self.delete_buffer.as_ref().map_or(0, BTree::len)
    }

    /// Compressed bytes per stored column (delta and dictionaries included
    /// in the column shares). This is the quantity the advisor's size
    /// estimators predict.
    pub fn column_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.schema.len()];
        for rg in &self.row_groups {
            for (c, size) in sizes.iter_mut().enumerate() {
                *size += rg.segment(c).encoded_bytes();
            }
        }
        // Attribute delta-store bytes proportionally to column widths.
        let delta_bytes = self
            .delta
            .size_bytes()
            .min(self.delta.len() * self.schema.row_width());
        let total_width: usize = self.schema.row_width().max(1);
        for (c, size) in sizes.iter_mut().enumerate() {
            *size += delta_bytes * self.schema.column(c).dtype.fixed_width() / total_width;
        }
        sizes
    }

    pub fn size_bytes(&self) -> usize {
        self.column_sizes().iter().sum()
    }

    /// Dominant physical encoding per stored column (most frequent across
    /// compressed row groups; ties go to the earlier row group's choice;
    /// `Raw` when no row group exists yet). Feeds the cost model's
    /// per-encoding CPU factors and the advisor's what-if reports.
    pub fn column_encodings(&self) -> Vec<IntEncoding> {
        (0..self.schema.len())
            .map(|c| {
                let mut counts: Vec<(IntEncoding, usize)> = Vec::new();
                for rg in &self.row_groups {
                    let e = rg.segment(c).encoding();
                    match counts.iter_mut().find(|(k, _)| *k == e) {
                        Some((_, n)) => *n += 1,
                        None => counts.push((e, 1)),
                    }
                }
                counts
                    .iter()
                    .max_by_key(|&&(_, n)| n)
                    .map_or(IntEncoding::Raw, |&(e, _)| e)
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    /// Insert a row (into the delta store). When the delta reaches the row
    /// group capacity, the tuple mover compresses it synchronously — a
    /// deterministic stand-in for SQL Server's background process.
    pub fn insert(&mut self, row: Row, pool: &BufferPool, tracker: &IoTracker) {
        debug_assert_eq!(row.len(), self.schema.len());
        let key = row.key(&self.key_ordinals);
        self.delta.insert(key, row, pool, tracker);
        self.delta_writes.fetch_add(1, Ordering::Relaxed);
        if faults::fire(faults::sites::TUPLE_MOVE_FORCE) {
            // Injected early trigger: compress whatever the delta holds,
            // capacity notwithstanding (an eager background mover).
            self.compress_all_delta(pool, tracker);
        } else if self.delta.len() >= self.config.rowgroup_capacity
            && !faults::fire(faults::sites::TUPLE_MOVE_DEFER)
        {
            self.tuple_move(pool, tracker);
        }
    }

    /// Delete the row with this (unique) key. Returns true if a row was
    /// deleted.
    ///
    /// * Secondary CSI: append to the delete buffer — fast, O(B+ tree
    ///   insert); scans pay the anti-join until compaction.
    /// * Primary CSI: locate the physical row by scanning key segments
    ///   (segment elimination applies) and set the delete bitmap bit —
    ///   slow deletes, fast scans.
    pub fn delete(&mut self, key: &Key, pool: &BufferPool, tracker: &IoTracker) -> bool {
        // Rows still in the delta store are deleted directly in both kinds.
        if self.delta.delete_by_key(key, pool, tracker).is_some() {
            return true;
        }
        match self.kind {
            CsiKind::Secondary => {
                self.buffer_delete(key, pool, tracker);
                true
            }
            CsiKind::Primary => self.mark_deleted_physical(key, pool, tracker),
        }
    }

    /// Secondary CSI: append `key` to the delete buffer (a logical delete, no
    /// existence check — the engine only deletes rows it has located through
    /// the primary index), compacting the buffer once it is full.
    fn buffer_delete(&mut self, key: &Key, pool: &BufferPool, tracker: &IoTracker) {
        let buffer = self
            .delete_buffer
            .as_mut()
            .expect("secondary CSI has delete buffer");
        buffer.insert(key.clone(), Row::new(Vec::new()), pool, tracker);
        if self.delete_buffer_len() >= self.config.delete_buffer_compact_threshold
            || faults::fire(faults::sites::DELETE_BUFFER_COMPACT)
        {
            self.compact_delete_buffer(pool, tracker);
        }
    }

    /// Like [`ColumnStoreIndex::delete`], but returns the deleted row's full
    /// contents, decoding the victim row group once. Callers performing
    /// read-modify-write (UPDATE) use this to avoid a second locating scan.
    pub fn delete_returning(
        &mut self,
        key: &Key,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Option<Row> {
        let key_ords = self.key_ordinals.clone();
        if let Some(row) = self.delta.delete_by_key(key, pool, tracker) {
            return Some(row);
        }
        match self.kind {
            CsiKind::Secondary => {
                // Secondary CSIs buffer the delete; the caller already has
                // the row from the primary index, so nothing to return.
                self.buffer_delete(key, pool, tracker);
                None
            }
            CsiKind::Primary => {
                let pos = self.locate_physical(key, pool, tracker)?;
                let (rg_idx, row_pos) = pos;
                // Read the single victim row via point decodes — never a
                // full-segment decode per column.
                let rg = &self.row_groups[rg_idx];
                let row = Row::new(
                    (0..rg.num_columns())
                        .map(|c| {
                            if !key_ords.contains(&c) {
                                rg.segment(c).charge_io(pool, tracker);
                            }
                            rg.segment(c).value_at(row_pos)
                        })
                        .collect(),
                );
                self.row_groups[rg_idx].mark_deleted(row_pos);
                self.heat[rg_idx].writes.fetch_add(1, Ordering::Relaxed);
                Some(row)
            }
        }
    }

    /// Find the physical position of the live row with this key, charging
    /// the key-segment scans.
    fn locate_physical(
        &self,
        key: &Key,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Option<(usize, usize)> {
        let intervals: HashMap<usize, Interval> = self
            .key_ordinals
            .iter()
            .zip(key.values())
            .map(|(&c, v)| (c, Interval::point(v.clone())))
            .collect();
        for rg_idx in 0..self.row_groups.len() {
            if self.rowgroup_eliminated(rg_idx, &intervals) {
                self.heat[rg_idx].prunes.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.heat[rg_idx].reads.fetch_add(1, Ordering::Relaxed);
            let rg = &self.row_groups[rg_idx];
            // Equality kernels on the encoded key segments: no decode at
            // all on the common path, O(#runs) or a word-wise code scan.
            let mut sel = rg.live_mask();
            for (&c, kv) in self.key_ordinals.iter().zip(key.values()) {
                if sel.is_none_set() {
                    break;
                }
                let seg = rg.segment(c);
                seg.charge_io(pool, tracker);
                if !seg.eval_interval(&Interval::point(kv.clone()), &mut sel) {
                    // Bound type outside the encoded domain: compare
                    // materialized values (cached decode, not per-position
                    // full decodes).
                    let dec = self.cache.get_or_decode(seg, tracker);
                    sel.retain(|pos| &dec.value(pos) == kv);
                }
            }
            if let Some(pos) = sel.first_set() {
                return Some((rg_idx, pos));
            }
        }
        None
    }

    /// Locate `key` in the compressed row groups and set its delete bitmap
    /// bit. Charges reads of the key column segments it has to scan.
    fn mark_deleted_physical(&mut self, key: &Key, pool: &BufferPool, tracker: &IoTracker) -> bool {
        match self.locate_physical(key, pool, tracker) {
            Some((rg_idx, pos)) => {
                self.row_groups[rg_idx].mark_deleted(pos);
                self.heat[rg_idx].writes.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Update = delete + insert (paper §2: "smaller point updates are
    /// handled as a delete followed by an insert"). The caller provides the
    /// new full row.
    pub fn update(
        &mut self,
        key: &Key,
        new_row: Row,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> bool {
        let deleted = self.delete(key, pool, tracker);
        if deleted {
            self.insert(new_row, pool, tracker);
        }
        deleted
    }

    // ------------------------------------------------------------------
    // Maintenance (tuple mover)
    // ------------------------------------------------------------------

    /// Compress all full delta chunks into row groups. Returns the number
    /// of delta rows migrated (for WAL maintenance records).
    ///
    /// Buffered deletes are compacted first: the delete buffer anti-joins
    /// against *compressed row groups only*, so rows moving from the delta
    /// into a row group must never collide with a stale buffered key.
    fn tuple_move(&mut self, pool: &BufferPool, tracker: &IoTracker) -> usize {
        if self.delete_buffer_len() > 0 && self.delta.len() >= self.config.rowgroup_capacity {
            self.compact_delete_buffer(pool, tracker);
        }
        let mut moved = 0;
        while self.delta.len() >= self.config.rowgroup_capacity {
            hpd_obs::global()
                .counter("columnstore.maintenance.tuple_move")
                .inc();
            let rows = self
                .delta
                .drain(self.config.rowgroup_capacity, pool, tracker);
            moved += rows.len();
            self.compress_chunk(&rows, pool, tracker);
        }
        moved
    }

    /// Force-compress the remaining delta rows (index reorganize). Returns
    /// the number of delta rows migrated.
    fn compress_all_delta(&mut self, pool: &BufferPool, tracker: &IoTracker) -> usize {
        // Same invariant as `tuple_move`, but unconditional on delta size:
        // every delta row is about to become a compressed row, so no
        // buffered delete may be left to anti-join against it. An UPDATE
        // leaves exactly that pair behind (buffered delete of the old
        // version + delta insert of the new), and compressing the new
        // version with the stale delete still buffered makes the row
        // vanish from scans.
        if self.delete_buffer_len() > 0 && !self.delta.is_empty() {
            self.compact_delete_buffer(pool, tracker);
        }
        let mut moved = self.tuple_move(pool, tracker);
        let rows = self.delta.drain(usize::MAX, pool, tracker);
        moved += rows.len();
        self.compress_chunk(&rows, pool, tracker);
        moved
    }

    /// One resumable maintenance increment, bounded by `budget_rows` rows
    /// of work (buffered deletes resolved plus delta rows compressed plus
    /// live rows rewritten by merge-compaction).
    ///
    /// The increment is a three-phase state machine whose state lives in
    /// the index itself (the delete buffer, delta store, and row-group
    /// list), so it resumes exactly where the previous increment stopped:
    ///
    /// 1. While the delete buffer is non-empty, the budget is spent
    ///    resolving buffered deletes into bitmap bits (smallest keys
    ///    first, so slices are deterministic).
    /// 2. Only once the buffer is empty may leftover budget compress delta
    ///    rows — the same invariant the full reorganize enforces: a row
    ///    migrating out of the delta must never collide with a stale
    ///    buffered delete of its key (the UPDATE regression of the tuple
    ///    mover), and phase ordering guarantees that without per-key
    ///    probes.
    /// 3. With the backlog fully drained, row groups with no live row are
    ///    dropped, and leftover budget merges runs of adjacent row groups
    ///    (the fragments budgeted chunks leave behind and the dead rows of
    ///    delete bitmaps), best first ([`ColumnStoreIndex::best_merge`]).
    ///
    /// Every choice reads the index alone, so the redo of an increment
    /// with the same budget repeats it. `usize::MAX` is "no budget":
    /// compact everything, then compress everything, then defragment —
    /// the old stop-the-world pass.
    pub fn maintenance_step(
        &mut self,
        budget_rows: usize,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> CsiMaintenanceStep {
        // Injected preemption inside the incremental mover: the step runs
        // with half its budget, as if the scheduler clawed back its slot.
        let budget = if faults::fire(faults::sites::MAINT_STEP_SHRINK) {
            (budget_rows / 2).max(1)
        } else {
            budget_rows.max(1)
        };
        let deletes_compacted = if self.delete_buffer_len() > 0 {
            self.compact_deletes_budget(budget, pool, tracker)
        } else {
            0
        };
        let mut rows_moved = 0;
        let remaining = budget.saturating_sub(deletes_compacted);
        if remaining > 0 && self.delete_buffer_len() == 0 && !self.delta.is_empty() {
            rows_moved = self.compress_delta_budget(remaining, pool, tracker);
        }
        let mut rows_rewritten = 0;
        let mut rowgroups_merged = 0;
        let remaining = remaining.saturating_sub(rows_moved);
        if remaining > 0 && self.delete_buffer_len() == 0 && self.delta.is_empty() {
            (rows_rewritten, rowgroups_merged) =
                self.merge_rowgroups_budget(remaining, pool, tracker);
        }
        CsiMaintenanceStep {
            deletes_compacted,
            rows_moved,
            rows_rewritten,
            rowgroups_merged,
            done: self.delete_buffer_len() == 0 && self.delta.is_empty(),
        }
    }

    /// Run maintenance to completion (the old `force` pass): resolve every
    /// buffered delete, then compress every delta row.
    pub fn maintenance_full(
        &mut self,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> CsiMaintenanceStep {
        self.maintenance_step(usize::MAX, pool, tracker)
    }

    /// Rows of pending maintenance work: staged delta rows plus buffered
    /// deletes. The scheduler's per-index backlog measure.
    pub fn maintenance_backlog(&self) -> usize {
        self.delta.len() + self.delete_buffer_len()
    }

    /// Compress up to `max_rows` delta rows into row groups. Capacity-sized
    /// chunks while the budget allows, then one bounded partial chunk so a
    /// budget below `rowgroup_capacity` still makes progress (small row
    /// groups are the accepted cost of incremental progress, exactly as
    /// under the `TUPLE_MOVE_FORCE` fault).
    ///
    /// Caller must have emptied the delete buffer first (see the
    /// `maintenance_step` phase ordering).
    fn compress_delta_budget(
        &mut self,
        max_rows: usize,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> usize {
        debug_assert!(
            self.delete_buffer_len() == 0,
            "delta rows must never compress past a non-empty delete buffer"
        );
        let mut budget = max_rows;
        let mut moved = 0;
        while budget > 0 && !self.delta.is_empty() {
            hpd_obs::global()
                .counter("columnstore.maintenance.tuple_move")
                .inc();
            let want = budget.min(self.config.rowgroup_capacity);
            let rows = self.delta.drain(want, pool, tracker);
            if rows.is_empty() {
                break;
            }
            budget -= rows.len().min(budget);
            moved += rows.len();
            self.compress_chunk(&rows, pool, tracker);
        }
        moved
    }

    /// Phase 3 of the maintenance state machine, reached only once the
    /// delete buffer and delta store are drained: drop the row groups with
    /// no live row, then merge while a [`ColumnStoreIndex::best_merge`]
    /// fits the remaining budget, each run rewritten into one group at its
    /// position that carries the run's heat. Returns `(live rows
    /// rewritten, source row groups eliminated)`.
    fn merge_rowgroups_budget(
        &mut self,
        max_rows: usize,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> (usize, usize) {
        debug_assert!(
            self.delete_buffer_len() == 0 && self.delta.is_empty(),
            "merge-compaction must not run ahead of the backlog phases"
        );
        let groups = self.row_groups.len();
        let mut at = 0;
        while at < self.row_groups.len() {
            if self.row_groups[at].active_rows() == 0 {
                self.remove_rowgroups(at..at + 1);
            } else {
                at += 1;
            }
        }
        let mut eliminated = groups - self.row_groups.len();
        let (mut budget, mut rewritten) = (max_rows, 0);
        while let Some(merge) = self.best_merge(budget) {
            hpd_obs::global()
                .counter("columnstore.maintenance.rowgroup_merge")
                .inc();
            let columns = self.live_columns(merge.rowgroups.clone(), pool, tracker);
            let heat = RowGroupHeat::default();
            for source in &self.heat[merge.rowgroups.clone()] {
                heat.absorb(source);
            }
            self.remove_rowgroups(merge.rowgroups.clone());
            self.place_rowgroup(merge.rowgroups.start, columns, heat, pool, tracker);
            eliminated += merge.rowgroups.len() - 1;
            rewritten += merge.live_rows;
            budget -= merge.live_rows;
        }
        (rewritten, eliminated)
    }

    /// The best merge of row groups whose live rows fit one group and
    /// `budget_rows`, if any: a run of two or more adjacent groups, or one
    /// alone that is at least half dead, ranked by what it removes — its
    /// dead rows and all its groups but one — per live row it rewrites,
    /// then by what it removes, then leftmost. A group with a few dead rows
    /// is left alone until a merge takes it along (rewriting it for them
    /// would spend every increment's budget on groups that lose a few rows
    /// a round, and none on the fragments), and a run of empty groups is no
    /// candidate: the merge phase drops those for free first.
    pub fn best_merge(&self, budget_rows: usize) -> Option<RowgroupMerge> {
        let limit = budget_rows.min(self.config.rowgroup_capacity.max(1));
        let mut best: Option<RowgroupMerge> = None;
        for start in 0..self.row_groups.len() {
            let (mut live_rows, mut dead_rows) = (0, 0);
            for (end, rg) in (start + 1..).zip(&self.row_groups[start..]) {
                live_rows += rg.active_rows();
                dead_rows += rg.rows() - rg.active_rows();
                if live_rows > limit {
                    break;
                }
                let merge = RowgroupMerge {
                    rowgroups: start..end,
                    live_rows,
                    dead_rows,
                };
                // A lone group pays for its rewrite only in dead rows: at
                // least as many shed as live ones rewritten.
                let pays = end - start > 1 || dead_rows >= live_rows;
                if live_rows > 0 && pays && best.as_ref().is_none_or(|b| merge.beats(b)) {
                    best = Some(merge);
                }
            }
        }
        best
    }

    /// Row groups with no live row: what the merge phase drops for free.
    pub fn empty_rowgroups(&self) -> usize {
        self.row_groups
            .iter()
            .filter(|rg| rg.active_rows() == 0)
            .count()
    }

    /// The live rows of the row groups `range`, in position order, as one
    /// row group's column vectors: a cached decode when there is one, a
    /// gather of the live positions otherwise (the groups are about to go,
    /// so nothing is cached for them).
    fn live_columns(
        &self,
        range: std::ops::Range<usize>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Vec<ColumnVector> {
        let mut columns = self.empty_columns();
        for rg in &self.row_groups[range] {
            let live = rg.live_mask().positions();
            for (c, column) in columns.iter_mut().enumerate() {
                let seg = rg.segment(c);
                seg.charge_io(pool, tracker);
                let values = match self.cache.peek(seg, tracker) {
                    Some(decoded) => decoded.take(&live),
                    None => seg.gather(&live),
                };
                column
                    .append(&values)
                    .expect("a row group's columns match the index");
            }
        }
        columns
    }

    /// Resolve buffered logical deletes into delete-bitmap bits (the
    /// background compaction of paper §2), clearing the whole buffer.
    /// Returns the number of buffered deletes resolved.
    fn compact_delete_buffer(&mut self, pool: &BufferPool, tracker: &IoTracker) -> usize {
        self.compact_deletes_budget(usize::MAX, pool, tracker)
    }

    /// Resolve up to `max_keys` buffered logical deletes into delete-bitmap
    /// bits; the remaining keys stay buffered (and keep anti-joining scans),
    /// so a partial slice is always consistent. Keys resolve smallest first,
    /// making slices deterministic and resumable.
    ///
    /// The cost follows the keys, not the table: a row group whose first
    /// key column's min/max admits none of the keys still unmatched is
    /// skipped unread, and the others are probed through their decoded key
    /// columns position by position — the first key value looked up among
    /// the sorted keys, the rest compared in place — with no `Key` built
    /// per row. Each key marks the first live row it matches, in row-group
    /// and position order.
    pub fn compact_deletes_budget(
        &mut self,
        max_keys: usize,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> usize {
        let Some(buffer) = self.delete_buffer.as_mut() else {
            return 0;
        };
        if buffer.is_empty() || max_keys == 0 {
            return 0;
        }
        hpd_obs::global()
            .counter("columnstore.maintenance.delete_buffer_compact")
            .inc();
        let mut entries: Vec<(Key, Row)> =
            buffer.scan_range_collect(Bound::Unbounded, Bound::Unbounded, pool, tracker);
        let keep = entries.split_off(entries.len().min(max_keys));
        // In key order, as the buffer holds them, so in first-value order.
        let mut pending: Vec<Key> = entries.into_iter().map(|(k, _)| k).collect();
        pending.dedup();
        let compacted = pending.len();
        // Replace with a buffer holding only the keys beyond the budget.
        *buffer = BTree::new(BTreeConfig::default(), self.alloc.clone());
        for (k, r) in keep {
            buffer.insert(k, r, pool, tracker);
        }

        let Some(&first_col) = self.key_ordinals.first() else {
            return compacted;
        };
        fn first(k: &Key) -> &Value {
            &k.values()[0]
        }
        // The keys' first values as words when each is of the column's own
        // integer type (so word order and equality are `Value`'s): a row's
        // probe then compares words.
        let dtype = self.schema.column(first_col).dtype;
        let words: Option<Vec<i64>> = (pending.iter())
            .map(|k| int_image(dtype, first(k)))
            .collect();
        let mut matched = vec![false; pending.len()];
        let mut unmatched = pending.len();
        for (rg, heat) in self.row_groups.iter_mut().zip(&self.heat) {
            if unmatched == 0 {
                break;
            }
            let (min, max) = (rg.segment(first_col).min(), rg.segment(first_col).max());
            let lo = pending.partition_point(|k| first(k) < min);
            let hi = pending.partition_point(|k| first(k) <= max);
            if matched[lo..hi].iter().all(|&m| m) {
                continue;
            }
            let key_cols: Vec<Arc<ColumnVector>> = (self.key_ordinals.iter())
                .map(|&c| {
                    rg.segment(c).charge_io(pool, tracker);
                    self.cache.get_or_decode(rg.segment(c), tracker)
                })
                .collect();
            // The keys, among `lo..hi`, whose first value is row `pos`'s.
            let col = &key_cols[0];
            let same_first = |pos: usize| match &words {
                Some(words) => {
                    let v = int_at(col, pos);
                    let from = lo + words[lo..hi].partition_point(|&w| w < v);
                    from..from + words[from..hi].iter().take_while(|&&w| w == v).count()
                }
                None => {
                    let v = col.value(pos);
                    let from = lo + pending[lo..hi].partition_point(|k| first(k) < &v);
                    from..from
                        + pending[from..hi]
                            .iter()
                            .take_while(|k| first(k) == &v)
                            .count()
                }
            };
            let mut hits: Vec<usize> = Vec::new();
            rg.live_mask().for_each_set(|pos| {
                for i in same_first(pos) {
                    let rest = key_cols[1..].iter().zip(&pending[i].values()[1..]);
                    if !matched[i] && rest.into_iter().all(|(col, kv)| &col.value(pos) == kv) {
                        matched[i] = true;
                        unmatched -= 1;
                        hits.push(pos);
                        break;
                    }
                }
            });
            heat.reads.fetch_add(1, Ordering::Relaxed);
            heat.writes.fetch_add(hits.len() as u64, Ordering::Relaxed);
            for pos in hits {
                rg.mark_deleted(pos);
            }
        }
        // Keys not found in any row group referred to rows that no longer
        // exist (defensive; the engine only buffers existing rows).
        compacted
    }

    // ------------------------------------------------------------------
    // Scans
    // ------------------------------------------------------------------

    /// True if the row group cannot contain rows matching the intervals
    /// (segment elimination via per-segment min/max).
    pub fn rowgroup_eliminated(&self, rg_idx: usize, intervals: &HashMap<usize, Interval>) -> bool {
        let rg = &self.row_groups[rg_idx];
        intervals
            .iter()
            .any(|(&c, iv)| c < rg.num_columns() && rg.segment(c).eliminated_by(iv))
    }

    /// Snapshot the delete buffer into a probe set for anti-joins. Charges
    /// one scan of the buffer. Returns `None` when no anti-join is needed.
    pub fn antijoin_probe(&self, pool: &BufferPool, tracker: &IoTracker) -> Option<HashSet<Key>> {
        let buffer = self.delete_buffer.as_ref()?;
        if buffer.is_empty() {
            return None;
        }
        Some(
            buffer
                .scan_range_collect(Bound::Unbounded, Bound::Unbounded, pool, tracker)
                .into_iter()
                .map(|(k, _)| k)
                .collect(),
        )
    }

    /// Compute the surviving-row selection of one row group: live rows,
    /// AND-ed with every interval (evaluated in the encoded domain, with a
    /// typed-value gather fallback for untranslatable bound types), minus
    /// anti-joined buffered deletes. Charges I/O for `extra` segments plus
    /// predicate and anti-join key columns, and records heat and
    /// `columnstore.scan.*` pruning counters. Returns `None` when the row
    /// group is eliminated by min/max; otherwise the selection (possibly
    /// empty) and whether the typed fallback ran.
    fn rowgroup_selection(
        &self,
        rg_idx: usize,
        extra: &[usize],
        intervals: &HashMap<usize, Interval>,
        antijoin: Option<&HashSet<Key>>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Option<(SelBitmap, bool)> {
        let rg = &self.row_groups[rg_idx];
        if self.rowgroup_eliminated(rg_idx, intervals) {
            tracker.count(Work::RowsPrunedRowgroup, rg.active_rows() as u64);
            self.heat[rg_idx].prunes.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.heat[rg_idx].reads.fetch_add(1, Ordering::Relaxed);
        // Segments the scan reads: the caller's columns (projection or
        // aggregate inputs), anti-join keys, predicate columns. Each pays
        // its I/O once.
        let mut needed: Vec<usize> = extra.to_vec();
        if antijoin.is_some() {
            for &k in &self.key_ordinals {
                if !needed.contains(&k) {
                    needed.push(k);
                }
            }
        }
        for &c in intervals.keys() {
            if c < rg.num_columns() && !needed.contains(&c) {
                needed.push(c);
            }
        }
        for &c in &needed {
            rg.segment(c).charge_io(pool, tracker);
        }

        // Start from the live rows and AND in each predicate, evaluated in
        // the encoded domain.
        let mut sel = rg.live_mask();
        let mut fallback: Vec<(usize, &Interval)> = Vec::new();
        for (&c, iv) in intervals {
            if c >= rg.num_columns() {
                continue;
            }
            if sel.is_none_set() {
                break;
            }
            let seg = rg.segment(c);
            let before = sel.count();
            if seg.eval_interval(iv, &mut sel) {
                let pruned = (before - sel.count()) as u64;
                match seg.encoding() {
                    IntEncoding::Rle => tracker.count(Work::RowsPrunedRun, pruned),
                    _ => tracker.count(Work::RowsPrunedRow, pruned),
                }
            } else {
                fallback.push((c, iv));
            }
        }
        // Untranslatable bounds: gather the column at surviving positions
        // only and compare typed values.
        let fell_back = !fallback.is_empty();
        for (c, iv) in fallback {
            if sel.is_none_set() {
                break;
            }
            let positions = sel.positions();
            let vals = rg.segment(c).gather(&positions);
            let before = sel.count();
            for (i, &p) in positions.iter().enumerate() {
                if !iv.contains(&vals.value(i)) {
                    sel.clear(p);
                }
            }
            tracker.count(Work::RowsPrunedRow, (before - sel.count()) as u64);
        }
        // Anti-join against buffered deletes, probing keys gathered at
        // surviving positions.
        if let Some(probe) = antijoin {
            if !sel.is_none_set() {
                let positions = sel.positions();
                let key_cols: Vec<ColumnVector> = self
                    .key_ordinals
                    .iter()
                    .map(|&k| rg.segment(k).gather(&positions))
                    .collect();
                for (i, &p) in positions.iter().enumerate() {
                    let key = Key::new(
                        key_cols
                            .iter()
                            .map(|kc| kc.value(i))
                            .collect::<Vec<Value>>(),
                    );
                    if probe.contains(&key) {
                        sel.clear(p);
                    }
                }
            }
        }

        let selected = sel.count();
        tracker.count(Work::RowsSelected, selected as u64);
        self.heat[rg_idx]
            .rows_read
            .fetch_add(selected as u64, Ordering::Relaxed);
        Some((sel, fell_back))
    }

    /// Scan the delta store, applying the same pushed-down intervals as the
    /// compressed scan (delta rows are uncompressed, so this is a plain
    /// value comparison). The delete buffer does *not* apply here: deletes
    /// of delta-resident rows are performed directly on the delta, so the
    /// anti-join only concerns compressed row groups.
    pub fn scan_delta(
        &self,
        projection: &[usize],
        intervals: &HashMap<usize, Interval>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Batch {
        self.delta_reads.fetch_add(1, Ordering::Relaxed);
        let rows = self.delta.scan(pool, tracker);
        let dtypes: Vec<_> = projection
            .iter()
            .map(|&c| self.schema.column(c).dtype)
            .collect();
        let kept: Vec<Row> = rows
            .into_iter()
            .filter(|r| {
                intervals
                    .iter()
                    .all(|(&c, iv)| c >= r.len() || iv.contains(&r.values()[c]))
            })
            .map(|r| r.project(projection))
            .collect();
        Batch::from_rows(&dtypes, &kept).expect("delta rows match csi schema")
    }

    /// Bytes currently held by the decoded-segment cache (tests/metrics).
    pub fn decoded_cache_bytes_used(&self) -> usize {
        self.cache.bytes_used()
    }

    // ------------------------------------------------------------------
    // Aggregate pushdown
    // ------------------------------------------------------------------

    /// Evaluate covered aggregates directly on the encoded index — no row
    /// materialization. Compressed row groups fold on their encoded
    /// segments (run-arithmetic over RLE, frame-arithmetic over FOR/delta,
    /// code-histogram folding over dict); the delta's rows fold after all
    /// row groups, the same order a materializing scan feeds the aggregate
    /// operator, so order-sensitive f64 sums match bit-for-bit. Both fold
    /// into [`Acc`], the aggregate operators' accumulator, and finish from
    /// it.
    ///
    /// Returns `None` (before touching counters or I/O) when some
    /// aggregate has no pushdown kernel for its column type (SUM/AVG over
    /// `Utf8`) — the caller falls back to the scan path, which reports the
    /// same error the aggregate operators would.
    pub fn agg_collect(
        &self,
        aggs: &[PushdownAgg],
        intervals: &HashMap<usize, Interval>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Option<Result<Vec<Value>>> {
        let mut accs = Vec::with_capacity(aggs.len());
        for a in aggs {
            let dtype = self.schema.column(a.col).dtype;
            if dtype == DataType::Utf8 && matches!(a.func, AggFunc::Sum | AggFunc::Avg) {
                return None;
            }
            // Its one refusal, SUM over strings, returned above.
            accs.push(Acc::new(a.func, dtype).ok()?);
        }
        Some(self.agg_fold(aggs, accs, intervals, pool, tracker))
    }

    /// The fold behind [`ColumnStoreIndex::agg_collect`], each aggregate into
    /// its one-group accumulator.
    fn agg_fold(
        &self,
        aggs: &[PushdownAgg],
        mut accs: Vec<Acc>,
        intervals: &HashMap<usize, Interval>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Result<Vec<Value>> {
        // Segments the fold reads: every non-COUNT aggregate input.
        let mut agg_cols: Vec<usize> = Vec::new();
        for a in aggs {
            if a.func != AggFunc::Count && !agg_cols.contains(&a.col) {
                agg_cols.push(a.col);
            }
        }

        let antijoin = self.antijoin_probe(pool, tracker);
        for rg_idx in 0..self.row_groups.len() {
            let Some((sel, fell_back)) = self.rowgroup_selection(
                rg_idx,
                &agg_cols,
                intervals,
                antijoin.as_ref(),
                pool,
                tracker,
            ) else {
                continue;
            };
            if fell_back {
                tracker.count(Work::AggFallbackRowgroups, 1);
            } else {
                tracker.count(Work::AggPushdownRowgroups, 1);
            }
            let rows = sel.count();
            if rows == 0 {
                continue;
            }
            tracker.count(Work::AggRowsFolded, rows as u64);
            let rg = &self.row_groups[rg_idx];
            for (a, acc) in aggs.iter().zip(&mut accs) {
                let segment = rg.segment(a.col);
                acc.fold_summary(&Selected {
                    segment,
                    sel: &sel,
                    rows,
                })?;
            }
        }

        // Delta rows fold as the scan returns them (uncompressed; the delete
        // buffer does not apply here — delta deletes are performed in place).
        if self.delta_rows() > 0 {
            let cols: Vec<usize> = aggs.iter().map(|a| a.col).collect();
            let delta = self.scan_delta(&cols, intervals, pool, tracker);
            tracker.count(Work::AggDeltaRows, delta.num_rows() as u64);
            for (acc, col) in accs.iter_mut().zip(delta.columns()) {
                acc.fold_all(col)?;
            }
        }

        let types = aggs.iter().map(|a| self.schema.column(a.col).dtype);
        let finished = accs.into_iter().zip(aggs).zip(types);
        finished
            .map(|((acc, a), dtype)| Ok(acc.finish(a.func.result_type(dtype), 1)?.value(0)))
            .collect()
    }

    // ------------------------------------------------------------------
    // Heat
    // ------------------------------------------------------------------

    /// Snapshot per-rowgroup access heat (plus delta-store activity).
    pub fn heat_report(&self) -> CsiHeatReport {
        CsiHeatReport {
            rowgroups: self
                .heat
                .iter()
                .enumerate()
                .map(|(i, h)| {
                    let rg = &self.row_groups[i];
                    let encodings = (0..rg.num_columns())
                        .map(|c| rg.segment(c).encoding())
                        .collect();
                    h.snapshot(i, rg.rows(), rg.active_rows(), encodings)
                })
                .collect(),
            delta_writes: self.delta_writes.load(Ordering::Relaxed),
            delta_reads: self.delta_reads.load(Ordering::Relaxed),
            decay_passes: self.decay_passes.load(Ordering::Relaxed),
        }
    }

    /// Halve every heat cell. The tuple mover calls this once per
    /// maintenance pass, turning the raw counters into an exponentially
    /// decayed recency-weighted rate.
    pub fn decay_heat(&self) {
        for h in &self.heat {
            h.decay();
        }
        for cell in [&self.delta_writes, &self.delta_reads] {
            cell.store(cell.load(Ordering::Relaxed) / 2, Ordering::Relaxed);
        }
        self.decay_passes.fetch_add(1, Ordering::Relaxed);
    }

    /// Begin a sequential scan over all row groups then the delta store.
    pub fn begin_scan<'a>(
        &'a self,
        projection: Vec<usize>,
        intervals: HashMap<usize, Interval>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> CsiScan<'a> {
        let probe = Arc::new(OnceLock::from(self.antijoin_probe(pool, tracker)));
        let all = (0..self.num_rowgroups()).collect();
        self.scan_rowgroups(all, projection, intervals, true, probe)
    }

    /// A scan of the row groups `rowgroups`, in that order, then of the
    /// delta store if `delta` — the unit of parallel partitioning. `probe`
    /// is the anti-join probe the scans of a statement share.
    pub fn scan_rowgroups(
        &self,
        rowgroups: Vec<usize>,
        projection: Vec<usize>,
        intervals: HashMap<usize, Interval>,
        delta: bool,
        probe: SharedProbe,
    ) -> CsiScan<'_> {
        CsiScan {
            index: self,
            rowgroups: rowgroups.into_iter(),
            projection,
            intervals,
            antijoin: probe,
            delta,
            fill_cache: true,
            open: None,
        }
    }

    /// Convenience: materialize a full scan (tests / small data).
    pub fn scan_collect(
        &self,
        projection: &[usize],
        intervals: &HashMap<usize, Interval>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Vec<Batch> {
        let mut scan = self.begin_scan(projection.to_vec(), intervals.clone(), pool, tracker);
        let mut out = Vec::new();
        while let Some(b) = scan.next_batch(pool, tracker) {
            if b.num_rows() > 0 {
                out.push(b);
            }
        }
        out
    }
}

/// The anti-join probe of an index's buffered deletes
/// ([`ColumnStoreIndex::antijoin_probe`]) that the scans of one statement
/// share: the first of them to pull builds it, against its own tracker.
pub type SharedProbe = Arc<OnceLock<Option<HashSet<Key>>>>;

/// The most rows a scan batch holds: a surviving row group, and the delta
/// store, leave the scan cut into batches of this size. A multiple of the
/// 64-row selection words and of [`FOR_DELTA_FRAME`], and small enough that
/// the operators above a scan work on a few cache-sized vectors at a time
/// instead of a whole row group's.
pub const SCAN_BATCH_ROWS: usize = 4096;
const _: () =
    assert!(SCAN_BATCH_ROWS.is_multiple_of(64) && SCAN_BATCH_ROWS.is_multiple_of(FOR_DELTA_FRAME));

/// Sequential scan state over a [`ColumnStoreIndex`].
pub struct CsiScan<'a> {
    index: &'a ColumnStoreIndex,
    rowgroups: std::vec::IntoIter<usize>,
    projection: Vec<usize>,
    intervals: HashMap<usize, Interval>,
    antijoin: SharedProbe,
    /// Whether the delta store is still to be scanned.
    delta: bool,
    /// Whether a whole row group's decode is kept in the decoded-segment
    /// cache.
    fill_cache: bool,
    /// The row group (or the delta store) whose rows are being cut into
    /// batches.
    open: Option<Open<'a>>,
}

/// The surviving rows of one row group, or the delta store's, not yet
/// handed out: each projected column as a whole decode or as its segment,
/// and which of its rows survived.
struct Open<'a> {
    columns: Vec<Source<'a>>,
    /// Surviving positions, ascending; `None` when every row survived.
    positions: Option<Vec<usize>>,
    rows: usize,
    /// Rows handed out so far.
    at: usize,
}

enum Source<'a> {
    /// The whole column decoded: the cache's own `Arc`, or a decode of this
    /// scan's.
    Decoded(Arc<ColumnVector>),
    /// Left encoded; each batch gathers its positions.
    Encoded(&'a Segment),
}

impl Open<'_> {
    /// The next at most [`SCAN_BATCH_ROWS`] rows, or `None` when all are out.
    fn cut(&mut self) -> Option<Batch> {
        if self.at == self.rows {
            return None;
        }
        let range = self.at..(self.at + SCAN_BATCH_ROWS).min(self.rows);
        self.at = range.end;
        let positions = self.positions.as_ref().map(|p| &p[range.clone()]);
        let columns = (self.columns.iter())
            .map(|source| match (source, positions) {
                (Source::Decoded(col), None) => col.slice(range.clone()),
                (Source::Decoded(col), Some(at)) => col.take(at),
                // Only a sparse row group's columns are left encoded.
                (Source::Encoded(seg), at) => seg.gather(at.expect("a sparse row group")),
            })
            .collect();
        Some(Batch::new(columns))
    }
}

impl<'a> CsiScan<'a> {
    /// This scan as a pass that reads every segment once (a checkpoint, an
    /// index build, statistics): it reuses a cached decode and keeps none of
    /// its own, so it neither evicts what repeated scans keep in the cache
    /// nor leaves the whole index decoded there.
    pub fn once(self) -> CsiScan<'a> {
        CsiScan {
            fill_cache: false,
            ..self
        }
    }

    /// Next batch of at most [`SCAN_BATCH_ROWS`] rows: the surviving row
    /// groups' rows in order, then the delta store's. `None` when
    /// exhausted. Eliminated row groups are skipped silently.
    pub fn next_batch(&mut self, pool: &BufferPool, tracker: &IoTracker) -> Option<Batch> {
        self.antijoin
            .get_or_init(|| self.index.antijoin_probe(pool, tracker));
        loop {
            if let Some(batch) = self.open.as_mut().and_then(Open::cut) {
                return Some(batch);
            }
            self.open = match self.rowgroups.next() {
                Some(rg) => self.open_rowgroup(rg, pool, tracker),
                None if std::mem::take(&mut self.delta) && self.index.delta_rows() > 0 => {
                    let batch =
                        (self.index).scan_delta(&self.projection, &self.intervals, pool, tracker);
                    Some(Open {
                        rows: batch.num_rows(),
                        columns: (batch.into_columns().into_iter())
                            .map(|col| Source::Decoded(Arc::new(col)))
                            .collect(),
                        positions: None,
                        at: 0,
                    })
                }
                None => return None,
            };
        }
    }

    /// Open one row group with predicate pushdown and late materialization:
    /// every interval is evaluated **on the encoded segments** (falling back
    /// to materialized-value comparison only for untranslatable bound
    /// types), AND-ed into a packed selection bitmap seeded from the delete
    /// bitmap, and only the projected columns at *surviving* positions are
    /// decoded, a batch at a time. Returns `None` if the row group was
    /// eliminated or no row survived. The output satisfies all `intervals`
    /// exactly, so a planner whose predicate is fully covered by them needs
    /// no residual filter.
    fn open_rowgroup(
        &self,
        rg_idx: usize,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Option<Open<'a>> {
        let index = self.index;
        let (sel, _) = index.rowgroup_selection(
            rg_idx,
            &self.projection,
            &self.intervals,
            self.antijoin.get().and_then(Option::as_ref),
            pool,
            tracker,
        )?;
        let rg = &index.row_groups[rg_idx];
        let selected = sel.count();
        if selected == 0 {
            return None;
        }
        // The cache is asked once per segment here, whatever the number of
        // batches. Full survivals go through it (unless the scan is `once`)
        // and are sliced; sparse ones gather, from a cached decode when
        // present.
        let full = selected == rg.rows();
        let columns = (self.projection.iter())
            .map(|&c| {
                let seg = rg.segment(c);
                if full && self.fill_cache {
                    return Source::Decoded(index.cache.get_or_decode(seg, tracker));
                }
                match (index.cache.peek(seg, tracker), full) {
                    (Some(dec), _) => Source::Decoded(dec),
                    (None, true) => Source::Decoded(Arc::new(seg.decode())),
                    (None, false) => Source::Encoded(seg),
                }
            })
            .collect();
        Some(Open {
            columns,
            positions: (!full).then(|| sel.positions()),
            rows: selected,
            at: 0,
        })
    }
}
