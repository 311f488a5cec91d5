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
//!
//! The delta store and a secondary's delete buffer are plain B+ trees, and
//! entries leave them one way: drained off the front, smallest keys first
//! ([`hpd_btree::BTree::drain_front`]), each leaf emptied freed — a chunk of
//! delta rows straight into a row group's column vectors, a slice of
//! buffered deletes as the keys to resolve.
//!
//! Each move has one implementation, in one of the child modules: `write`
//! inserts and deletes, `maintenance` moves delta rows, resolves buffered
//! deletes and merges row groups, and `scan` reads row groups, the delta
//! store and encoded aggregates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hpd_btree::{BTree, BTreeConfig, EntryForm};
use hpd_common::{ColumnVector, Result, Row, Schema, Value, ValueRef};
use hpd_storage::{BufferPool, IoTracker, StorageAllocator};

use crate::cache::SegmentCache;
use crate::encoding::IntEncoding;
use crate::rowgroup::RowGroup;

mod maintenance;
mod scan;
mod write;

pub use maintenance::{CsiMaintenanceStep, RowgroupMerge};
pub use scan::{CsiScan, PushdownAgg, SharedProbe, SCAN_BATCH_ROWS};

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
            delete_buffer_compact_threshold: 2_048,
            decoded_cache_bytes: 8 << 20,
        }
    }
}

/// A columnstore index being bulk loaded a row at a time, by whoever holds
/// the rows: values go straight into one row group's column vectors, which
/// are compressed and dropped once `rowgroup_capacity` rows have arrived —
/// one row group of uncompressed values is alive at a time, and no row ever
/// is. Told how many rows are coming, it reserves each row group's vectors
/// at the rows it will hold, so none is grown by doubling past them.
pub struct CsiBuilder {
    index: ColumnStoreIndex,
    /// The row group being filled.
    columns: Vec<ColumnVector>,
    /// Rows still expected after the row group being filled.
    expected: usize,
}

impl CsiBuilder {
    /// A builder that `rows` rows will be pushed to (0: how many is not
    /// known, and the vectors grow as they arrive).
    pub fn new(
        schema: Schema,
        kind: CsiKind,
        key_ordinals: Vec<usize>,
        config: CsiConfig,
        alloc: StorageAllocator,
        rows: usize,
    ) -> CsiBuilder {
        let index = ColumnStoreIndex::new_empty(schema, kind, key_ordinals, config, alloc);
        let mut builder = CsiBuilder {
            columns: Vec::new(),
            expected: rows,
            index,
        };
        builder.columns = builder.next_rowgroup();
        builder
    }

    /// Empty vectors for the next row group, each reserved at the rows of it
    /// still expected.
    fn next_rowgroup(&mut self) -> Vec<ColumnVector> {
        let rows = self
            .expected
            .min(self.index.config.rowgroup_capacity.max(1));
        self.expected -= rows;
        self.index.empty_columns(rows)
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
            // Compressed before the next row group's vectors are reserved.
            let full = std::mem::take(&mut self.columns);
            self.index.push_rowgroup(full, pool, tracker);
            self.columns = self.next_rowgroup();
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
    /// The delta store: rows not yet compressed, in a B+ tree keyed on the
    /// row key (paper §2: "Inserts are handled via delta stores which are
    /// implemented as B+ trees"), so a delete of one is a seek; an entry
    /// is the row's bytes alone when the key's columns lead the row.
    delta: BTree,
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
        let mut builder = CsiBuilder::new(schema, kind, key_ordinals, config, alloc, rows.len());
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
        let delta_config = BTreeConfig {
            form: EntryForm::of(&key_ordinals, 0..),
            ..BTreeConfig::default()
        };
        let delta = BTree::new(delta_config, alloc.clone());
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

    /// One empty vector a column, with room for `rows`, for a row group to
    /// fill.
    fn empty_columns(&self, rows: usize) -> Vec<ColumnVector> {
        (self.schema.columns().iter())
            .map(|c| ColumnVector::with_capacity(c.dtype, rows))
            .collect()
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
        let rg = RowGroup::build(columns, &self.key_ordinals, &self.alloc);
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
}
