//! Tables: a primary index (B+ tree or columnstore), secondary B+ trees,
//! and at most one secondary columnstore — the hybrid design space, held as
//! one ordered list of built indexes per part ([`PartIndex`]).
//!
//! A table is physically a list of [`TablePart`]s. Unpartitioned tables have
//! exactly one; partitioned tables ([`PartitionSpec`]) have one per
//! partition, and every partition owns its *own* physical design — B+ tree
//! primary on the hot range, columnstore on cold history, independent
//! secondaries. DML routes each row to its partition and then through *all*
//! of that partition's indexes, so index maintenance cost is physical, not
//! modelled: updating a partition with a secondary CSI really does pay the
//! delete-buffer insert, and updating a primary CSI really does scan
//! segments to locate the row (the Figure 5 asymmetry).

use std::collections::HashMap;
use std::ops::Range;

use hpd_btree::{BTree, BTreeConfig, EntryForm, EntryRun};
use hpd_columnstore::{ColumnStoreIndex, CsiBuilder, CsiConfig, CsiKind};
use hpd_common::{codec, Batch, Expr, HpdError, Key, PartitionSpec, Result, Row, Schema, ValueRef};
use hpd_storage::{BufferPool, IoTracker, StorageAllocator};
use hpd_wal::EncodedRows;

use crate::design::{validate_design, IndexDescriptor, IndexMeta};
use crate::stats::TableStats;

/// The structure a built index keeps its entries in.
enum IndexStore {
    BTree(BTree),
    Csi(Box<ColumnStoreIndex>),
}

/// One built index of one part: `part.indexes()[i]` is what
/// [`crate::IndexId`]`(i)` names.
pub struct PartIndex {
    /// What the index is, as the part reports it (a secondary columnstore's
    /// `columns` completed with the primary key).
    descriptor: IndexDescriptor,
    /// The table ordinals it stores, in payload (B+ tree) or schema
    /// (columnstore) order ([`IndexDescriptor::stored_columns`]).
    stored: Vec<usize>,
    store: IndexStore,
}

impl PartIndex {
    pub fn descriptor(&self) -> &IndexDescriptor {
        &self.descriptor
    }

    /// The table ordinals this index stores, in its own column order.
    pub fn stored(&self) -> &[usize] {
        &self.stored
    }

    /// Where table column `c` sits in this index: its position in a B+ tree
    /// payload or a columnstore's schema. A column the index does not store
    /// is a typed error.
    pub fn position(&self, c: usize) -> Result<usize> {
        position(&self.stored, c)
    }

    /// The B+ tree behind this index. An index of the other kind — what a
    /// plan built against another design finds here — is a typed error.
    pub fn btree(&self) -> Result<&BTree> {
        match &self.store {
            IndexStore::BTree(tree) => Ok(tree),
            IndexStore::Csi(_) => Err(self.not_a("B+ tree")),
        }
    }

    /// The columnstore behind this index (see [`PartIndex::btree`]).
    pub fn csi(&self) -> Result<&ColumnStoreIndex> {
        match &self.store {
            IndexStore::Csi(csi) => Ok(csi),
            IndexStore::BTree(_) => Err(self.not_a("columnstore")),
        }
    }

    fn not_a(&self, kind: &str) -> HpdError {
        HpdError::Internal(format!(
            "plan expects a {kind} where the part has {:?}",
            self.descriptor
        ))
    }

    /// What the optimizer knows about this index as it stands.
    fn meta(&self) -> IndexMeta {
        let mut meta = IndexMeta::new(self.descriptor.clone(), self.rows());
        match &self.store {
            IndexStore::BTree(tree) => {
                let stats = tree.stats();
                meta.leaf_pages = stats.leaf_pages;
                meta.height = stats.height;
            }
            IndexStore::Csi(csi) => {
                let stored = || self.stored.iter().copied();
                meta.column_bytes = stored().zip(csi.column_sizes()).collect();
                meta.column_encodings = stored().zip(csi.column_encodings()).collect();
                meta.rowgroups = csi.num_rowgroups();
                meta.delta_rows = csi.delta_rows();
                meta.delete_buffer_rows = csi.delete_buffer_len();
            }
        }
        meta
    }

    fn rows(&self) -> usize {
        match &self.store {
            IndexStore::BTree(tree) => tree.len(),
            IndexStore::Csi(csi) => csi.active_rows(),
        }
    }

    /// Add `row`'s entry: its stored columns, under its key columns in a
    /// B+ tree.
    fn insert(&mut self, row: &Row, pool: &BufferPool, tracker: &IoTracker) {
        let entry = row.project(&self.stored);
        match &mut self.store {
            IndexStore::BTree(tree) => {
                tree.insert(row.key(self.descriptor.keys()), entry, pool, tracker)
            }
            IndexStore::Csi(csi) => csi.insert(entry, pool, tracker),
        }
    }

    /// Remove the entry of the row `old` (primary key `key`) from this
    /// secondary index. A B+ tree seeks the row's index key, then matches
    /// the primary-key locator in the payload; a columnstore buffers the
    /// delete.
    fn remove(
        &mut self,
        key: &Key,
        old: &Row,
        pk: &[usize],
        pool: &BufferPool,
        tracker: &IoTracker,
    ) {
        match &mut self.store {
            IndexStore::BTree(tree) => {
                let locator_positions: Vec<usize> = (pk.iter())
                    .map(|&k| position(&self.stored, k).expect("an index stores the primary key"))
                    .collect();
                tree.delete_first_where(
                    &old.key(self.descriptor.keys()),
                    |payload| {
                        locator_positions
                            .iter()
                            .zip(key.values())
                            .all(|(&p, v)| &payload[p] == v)
                    },
                    pool,
                    tracker,
                );
            }
            IndexStore::Csi(csi) => {
                csi.delete(key, pool, tracker);
            }
        }
    }
}

/// Where an update's post-image comes from. Everything else about an update
/// — which part, which indexes, in place or moved — follows from the two
/// images, so a live commit and its redo make the same choices.
#[derive(Clone, Copy)]
pub enum PostImage<'a> {
    /// Evaluate a SET list over the pre-image the update located (a live
    /// commit; the result is what the WAL logs).
    Set(&'a [(usize, Expr)]),
    /// The logged post-image (redo: values, never expressions).
    Logged(&'a Row),
}

/// Outcome of one budgeted maintenance increment over a table's
/// columnstore indexes (see `Table::maintenance_step`).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct TableMaintStep {
    pub rows_moved: usize,
    pub deletes_compacted: usize,
    /// Live rows rewritten while merging under-filled rowgroups.
    pub rows_rewritten: usize,
    /// Source rowgroups eliminated by merge-compaction.
    pub rowgroups_merged: usize,
    pub done: bool,
}

/// Hand every batch of a full scan of `csi`, all columns, to `f`. The scan
/// reads each segment once and adds nothing to the decoded-segment cache
/// ([`hpd_columnstore::CsiScan::once`]).
fn for_each_batch(
    csi: &ColumnStoreIndex,
    schema: &Schema,
    pool: &BufferPool,
    tracker: &IoTracker,
    mut f: impl FnMut(&Batch),
) {
    let all: Vec<usize> = (0..schema.len()).collect();
    let mut scan = csi.begin_scan(all, HashMap::new(), pool, tracker).once();
    while let Some(batch) = scan.next_batch(pool, tracker) {
        f(&batch);
    }
}

/// Where table column `c` sits among `stored`, an index's stored columns
/// ([`PartIndex::position`]).
fn position(stored: &[usize], c: usize) -> Result<usize> {
    (stored.iter().position(|&s| s == c))
        .ok_or_else(|| HpdError::Internal(format!("column {c} is not stored in the index")))
}

/// `design` (primary first) as a part's index list holds it: every descriptor
/// [`IndexDescriptor::as_stored`], the secondary columnstore moved behind the
/// B+ trees — so adding or dropping the columnstore renumbers no B+ tree, and
/// the B+ trees count in the order `CREATE INDEX` appended them.
fn canonical(design: &[IndexDescriptor], arity: usize, pk: &[usize]) -> Vec<IndexDescriptor> {
    let mut target: Vec<_> = design.iter().map(|d| d.as_stored(arity, pk)).collect();
    target.sort_by_key(|d| matches!(d, IndexDescriptor::SecondaryCsi { .. }));
    target
}

/// What building an index on a part takes of the part's table, and the pool
/// and tracker its page accesses go to.
#[derive(Clone, Copy)]
struct BuildCtx<'a> {
    schema: &'a Schema,
    pk: &'a [usize],
    /// The table's statistics: their encoded bytes size a B+ tree's run.
    stats: &'a TableStats,
    csi_config: CsiConfig,
    alloc: &'a StorageAllocator,
    pool: &'a BufferPool,
    tracker: &'a IoTracker,
}

/// Whether a part of `table` can take the design `indexes` (primary first):
/// a valid design ([`validate_design`]) whose primary, if a B+ tree, is
/// keyed on the table's primary key.
fn check_design(table: &str, indexes: &[IndexDescriptor], pk: &[usize]) -> Result<()> {
    validate_design(table, indexes)?;
    match &indexes[0] {
        IndexDescriptor::PrimaryBTree { keys } if keys != pk => Err(HpdError::Constraint(format!(
            "table {table}: primary B+ tree keys must equal the table primary key"
        ))),
        _ => Ok(()),
    }
}

/// Page bytes of one entry of the B+ tree `descriptor` names, on a table of
/// `arity` columns keyed on `pk`, when column `c`'s values encode to
/// `width(c)` bytes ([`codec::put_values`]): [`hpd_btree::entry_bytes`] of
/// its key columns and of the columns it stores, in its form: the key in
/// the payload when the columns it stores begin with its keys (a secondary;
/// a primary keyed on its leading columns), else apart. A value's
/// bytes depend on the value, so the widths are measured or bounded: given
/// a table's mean widths it is the mean entry the what-if estimator sizes a
/// hypothetical tree by, given the most each type takes
/// ([`codec::encoded_width`]) the bound a build reserves its run by.
pub fn btree_entry_bytes(
    descriptor: &IndexDescriptor,
    arity: usize,
    pk: &[usize],
    width: impl Fn(usize) -> f64,
) -> f64 {
    let bytes = |columns: &[usize]| columns.iter().map(|&c| width(c)).sum();
    let (keys, stored) = (descriptor.keys(), descriptor.stored_columns(arity, pk));
    let form = EntryForm::of(keys, stored.iter().copied());
    hpd_btree::entry_bytes(bytes(keys), bytes(&stored), form)
}

/// The value of an encoded row that `span` covers ([`codec::value_spans`]),
/// read with the row's bytes after it in reach: a payload with eight bytes
/// behind it takes the decoder's one load.
fn value_at<'r>(row: &'r [u8], span: &Range<usize>) -> ValueRef<'r> {
    (codec::values(&row[span.start..]).next()).expect("a span covers a value")
}

/// The bytes of `columns` of an encoded row whose value spans are `spans`:
/// the row's own bytes when the columns sit back to back in it (a
/// primary's, which are all of them), else gathered into `out`.
fn gather<'r>(
    row: &'r [u8],
    spans: &[Range<usize>],
    columns: &[usize],
    out: &'r mut Vec<u8>,
) -> &'r [u8] {
    if let (Some(&first), Some(&last)) = (columns.first(), columns.last()) {
        if columns
            .windows(2)
            .all(|w| spans[w[0]].end == spans[w[1]].start)
        {
            return &row[spans[first].start..spans[last].end];
        }
    }
    out.clear();
    for &c in columns {
        out.extend_from_slice(&row[spans[c].clone()]);
    }
    out
}

/// An index — primary or secondary, B+ tree or columnstore — being built
/// over rows that arrive one at a time, in any order, each in its encoded
/// form ([`codec::put_values`]: what a load's record, a B+ tree leaf and a
/// checkpoint image hold a row as). It stores the columns its descriptor's
/// layout names ([`IndexDescriptor::stored_columns`]). A B+ tree copies the
/// byte ranges of each row's key columns and stored columns into a run of
/// entries, then sorts and loads the run (stably: equal keys keep arrival
/// order) — a primary stores every column, so keyed on its leading columns
/// its entry is the row's bytes alone; a columnstore reads the stored values in
/// place into the row group it is filling and compresses one row group at
/// a time. No row is decoded into owned values.
struct IndexBuilder<'a> {
    descriptor: IndexDescriptor,
    stored: Vec<usize>,
    ctx: BuildCtx<'a>,
    /// Scratch: the value spans of the row being pushed.
    spans: Vec<Range<usize>>,
    pending: Pending,
}

/// What an [`IndexBuilder`] has gathered so far.
enum Pending {
    BTree {
        run: EntryRun,
        /// Scratch: the entry's key and payload bytes.
        key: Vec<u8>,
        payload: Vec<u8>,
    },
    Csi(Box<CsiBuilder>),
}

impl<'a> IndexBuilder<'a> {
    /// A builder of the index `descriptor` names that `rows` rows will be
    /// pushed to (0: how many is not known). A B+ tree reserves its run by
    /// [`btree_entry_bytes`]: at its columns' mean encoded widths when the
    /// table's statistics count these rows (what the load's or the last
    /// analysis's pass over every value summed, `ColumnStats::encoded_bytes`,
    /// with a 64th more for rows rewritten since), else at the most each
    /// column's type takes, room for any row without a string past the
    /// planning length; a run that outgrows it grows. A columnstore
    /// reserves each row group's column vectors at the rows it will hold
    /// ([`CsiBuilder`]).
    fn new(descriptor: &IndexDescriptor, ctx: BuildCtx<'a>, rows: usize) -> IndexBuilder<'a> {
        let stored = descriptor.stored_columns(ctx.schema.len(), ctx.pk);
        let pending = if descriptor.is_csi() {
            let kind = if descriptor.is_primary() {
                CsiKind::Primary
            } else {
                CsiKind::Secondary
            };
            let key_ordinals = (ctx.pk.iter())
                .map(|&k| position(&stored, k).expect("an index stores the primary key"))
                .collect();
            Pending::Csi(Box::new(CsiBuilder::new(
                ctx.schema.project(&stored),
                kind,
                key_ordinals,
                ctx.csi_config,
                ctx.alloc.clone(),
                rows,
            )))
        } else {
            let measured = rows > 0 && ctx.stats.rows == rows;
            let width = |c: usize| match measured {
                true => ctx.stats.columns[c].encoded_bytes as f64 / rows as f64,
                false => codec::encoded_width(ctx.schema.column(c).dtype) as f64,
            };
            let entry = btree_entry_bytes(descriptor, ctx.schema.len(), ctx.pk, width);
            let bytes = rows as f64 * entry * if measured { 1.0 + 1.0 / 64.0 } else { 1.0 };
            let config = BTreeConfig {
                form: EntryForm::of(descriptor.keys(), stored.iter().copied()),
                ..BTreeConfig::default()
            };
            Pending::BTree {
                run: EntryRun::with_capacity(config, rows, bytes.ceil() as usize),
                key: Vec::new(),
                payload: Vec::new(),
            }
        };
        IndexBuilder {
            descriptor: descriptor.clone(),
            stored,
            ctx,
            spans: Vec::new(),
            pending,
        }
    }

    fn push(&mut self, row: &[u8]) {
        codec::value_spans(row, &mut self.spans);
        let (spans, stored) = (&self.spans, &self.stored);
        match &mut self.pending {
            Pending::BTree { run, key, payload } => {
                let key = gather(row, spans, self.descriptor.keys(), key);
                run.push_encoded(key, gather(row, spans, stored, payload));
            }
            Pending::Csi(builder) => {
                let values = stored.iter().map(|&c| value_at(row, &spans[c]));
                builder.push_refs(values, self.ctx.pool, self.ctx.tracker);
            }
        }
    }

    fn finish(self) -> Result<PartIndex> {
        let ctx = self.ctx;
        let store = match self.pending {
            Pending::BTree { run, .. } => {
                IndexStore::BTree(run.bulk_load(ctx.alloc.clone(), ctx.pool, ctx.tracker)?)
            }
            Pending::Csi(builder) => {
                IndexStore::Csi(Box::new(builder.finish(ctx.pool, ctx.tracker)))
            }
        };
        Ok(PartIndex {
            descriptor: self.descriptor,
            stored: self.stored,
            store,
        })
    }
}

/// One partition's complete physical design: the ordered list of its built
/// indexes. `[0]` is the primary, the B+ tree secondaries follow in design
/// order, the secondary columnstore is last — the order the part's metas,
/// and so every plan's [`crate::IndexId`], count in. Unpartitioned tables
/// are a single part.
pub struct TablePart {
    indexes: Vec<PartIndex>,
}

impl TablePart {
    /// An empty part under `primary`, no secondaries.
    fn create(primary: &IndexDescriptor, ctx: BuildCtx<'_>) -> Result<TablePart> {
        Ok(TablePart {
            indexes: vec![IndexBuilder::new(primary, ctx, 0).finish()?],
        })
    }

    /// This part's indexes, primary first: `indexes()[i]` is
    /// [`crate::IndexId`]`(i)`.
    pub fn indexes(&self) -> &[PartIndex] {
        &self.indexes
    }

    /// The descriptor of every index, in list order.
    pub fn descriptors(&self) -> Vec<IndexDescriptor> {
        (self.indexes.iter())
            .map(|index| index.descriptor.clone())
            .collect()
    }

    pub fn row_count(&self) -> usize {
        self.indexes[0].rows()
    }

    /// This part's columnstore indexes: the primary if it is one, then the
    /// secondary. Everything that reorganizes, ages or reports on
    /// columnstores walks this.
    pub fn csis(&self) -> impl Iterator<Item = &ColumnStoreIndex> {
        self.indexes.iter().filter_map(|index| match &index.store {
            IndexStore::Csi(csi) => Some(&**csi),
            IndexStore::BTree(_) => None,
        })
    }

    fn csis_mut(&mut self) -> impl Iterator<Item = &mut ColumnStoreIndex> {
        (self.indexes.iter_mut()).filter_map(|index| match &mut index.store {
            IndexStore::Csi(csi) => Some(&mut **csi),
            IndexStore::BTree(_) => None,
        })
    }

    fn has_csi(&self) -> bool {
        self.csis().next().is_some()
    }

    /// Make this part's index list `design` (one [`check_design`] passed) in
    /// its [`canonical`] form: the one function that adds or drops an index
    /// on a part. An index whose descriptor the design repeats stays as it
    /// stands — a secondary stores key values, not addresses, so neither a
    /// rebuilt primary nor a dropped neighbour touches it (a kept
    /// columnstore keeps its delta rows and buffered deletes); the others
    /// are dropped, and the missing ones are built ([`TablePart::build`]):
    /// the primary from the rows the old one lends, a secondary from the
    /// primary. A build that fails (a run past 4 GB) leaves the indexes
    /// settled before it.
    fn set_design(&mut self, design: &[IndexDescriptor], ctx: BuildCtx<'_>) -> Result<()> {
        let target = canonical(design, ctx.schema.len(), ctx.pk);
        if self.indexes[0].descriptor != target[0] {
            self.indexes[0] = self.build(&target[0], ctx)?;
        }
        let mut old = self.indexes.split_off(1);
        for d in &target[1..] {
            let index = match old.iter().position(|index| index.descriptor == *d) {
                Some(kept) => old.remove(kept),
                None => self.build(d, ctx)?,
            };
            self.indexes.push(index);
        }
        Ok(())
    }

    /// Build the index `descriptor` names over this part's current rows,
    /// read in their encoded form as the primary lends them.
    fn build(&self, descriptor: &IndexDescriptor, ctx: BuildCtx<'_>) -> Result<PartIndex> {
        let mut builder = IndexBuilder::new(descriptor, ctx, self.row_count());
        self.for_each_encoded_row(ctx.schema, ctx.pool, ctx.tracker, &mut |row| {
            builder.push(row)
        });
        builder.finish()
    }

    /// Replace this part's contents with the rows `primary` was built over;
    /// every secondary the part has is built again from it.
    fn replace_contents(&mut self, primary: PartIndex, ctx: BuildCtx<'_>) -> Result<()> {
        let design = self.descriptors();
        // The secondaries index the rows just replaced: none can be kept.
        self.indexes = vec![primary];
        self.set_design(&design, ctx)
    }

    /// Hand every current row of this part to `f`, by reference, in
    /// primary-index order: a B+ tree decodes each leaf entry into one
    /// reused row (charging a full cursor scan), a columnstore decodes one
    /// batch at a time and lends each of its rows in turn.
    pub fn for_each_row(
        &self,
        schema: &Schema,
        pool: &BufferPool,
        tracker: &IoTracker,
        f: &mut dyn FnMut(&Row),
    ) {
        match &self.indexes[0].store {
            IndexStore::BTree(tree) => tree.for_each_entry(pool, tracker, |_, row| f(row)),
            IndexStore::Csi(csi) => for_each_batch(csi, schema, pool, tracker, |batch| {
                for i in 0..batch.num_rows() {
                    f(&batch.row(i));
                }
            }),
        }
    }

    /// [`TablePart::for_each_row`] with every row in its encoded form
    /// ([`codec::put_values`]), same order, same page charges: a B+ tree
    /// lends its leaf payloads as they stand, a columnstore encodes each
    /// batch row into one reused buffer. What a checkpoint and a B+ tree
    /// build read the part through — both copy bytes and decode nothing.
    pub fn for_each_encoded_row(
        &self,
        schema: &Schema,
        pool: &BufferPool,
        tracker: &IoTracker,
        f: &mut dyn FnMut(&[u8]),
    ) {
        match &self.indexes[0].store {
            IndexStore::BTree(tree) => {
                tree.for_each_encoded_entry(pool, tracker, |e| f(e.payload));
            }
            IndexStore::Csi(csi) => {
                let mut encoded = Vec::new();
                for_each_batch(csi, schema, pool, tracker, |batch| {
                    for i in 0..batch.num_rows() {
                        encoded.clear();
                        for column in batch.columns() {
                            codec::put_value(&mut encoded, (&column.value(i)).into());
                        }
                        f(&encoded);
                    }
                });
            }
        }
    }

    fn insert_row(&mut self, row: &Row, pool: &BufferPool, tracker: &IoTracker) {
        for index in &mut self.indexes {
            index.insert(row, pool, tracker);
        }
    }

    /// Remove the row with this key from every index, returning its old
    /// image (`None` if absent). One locate: both kinds of primary hand back
    /// the row they remove.
    fn delete_by_pk(
        &mut self,
        key: &Key,
        pk: &[usize],
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Option<Row> {
        let old = match &mut self.indexes[0].store {
            IndexStore::BTree(tree) => tree.delete_first_where(key, |_| true, pool, tracker),
            IndexStore::Csi(csi) => csi.delete_returning(key, pool, tracker),
        }?;
        self.delete_from_secondaries(key, &old, pk, pool, tracker);
        Some(old)
    }

    /// Remove `old`'s entries from the secondary indexes (its primary image
    /// is already gone).
    fn delete_from_secondaries(
        &mut self,
        key: &Key,
        old: &Row,
        pk: &[usize],
        pool: &BufferPool,
        tracker: &IoTracker,
    ) {
        for index in &mut self.indexes[1..] {
            index.remove(key, old, pk, pool, tracker);
        }
    }

    /// The primary-index half of an update, in one locate: hand the row with
    /// this key to `post`, which answers the post-image and whether it stays
    /// in this part. Staying, a B+ tree takes it in place and a columnstore
    /// as delete + delta insert; leaving, the row is removed. Returns
    /// `(pre-image, post-image, stays)`, `None` if the key is absent. A
    /// failing `post` leaves the row as it was.
    fn update_primary(
        &mut self,
        key: &Key,
        post: impl FnOnce(&Row) -> Result<(Row, bool)>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Result<Option<(Row, Row, bool)>> {
        match &mut self.indexes[0].store {
            IndexStore::BTree(tree) => {
                let mut post = Some(post);
                let mut out = None;
                tree.update_where(
                    key,
                    |row| {
                        let Some(post) = post.take() else {
                            return false;
                        };
                        out = Some(post(row).map(|(new, stays)| (row.clone(), new, stays)));
                        match &out {
                            Some(Ok((_, new, true))) => {
                                *row = new.clone();
                                true
                            }
                            _ => false,
                        }
                    },
                    pool,
                    tracker,
                );
                let out = out.transpose()?;
                if matches!(out, Some((_, _, false))) {
                    tree.delete_first_where(key, |_| true, pool, tracker);
                }
                Ok(out)
            }
            IndexStore::Csi(csi) => {
                // The pre-image comes from the delete itself: a separate
                // fetch would decode the row a second time.
                let Some(old) = csi.delete_returning(key, pool, tracker) else {
                    return Ok(None);
                };
                match post(&old) {
                    Ok((new, stays)) => {
                        if stays {
                            csi.insert(new.clone(), pool, tracker);
                        }
                        Ok(Some((old, new, stays)))
                    }
                    Err(e) => {
                        csi.insert(old, pool, tracker);
                        Err(e)
                    }
                }
            }
        }
    }

    /// The secondary-index half of an in-part update: an index is touched
    /// only if a column it stores differs between the two images.
    fn update_secondaries(
        &mut self,
        key: &Key,
        old: &Row,
        new: &Row,
        pk: &[usize],
        pool: &BufferPool,
        tracker: &IoTracker,
    ) {
        for index in &mut self.indexes[1..] {
            if index.stored.iter().any(|&c| old[c] != new[c]) {
                index.remove(key, old, pk, pool, tracker);
                index.insert(new, pool, tracker);
            }
        }
    }

    /// Rows of pending reorganization work (delta rows + buffered deletes)
    /// across this part's columnstore indexes.
    pub fn maintenance_backlog(&self) -> usize {
        self.csis().map(ColumnStoreIndex::maintenance_backlog).sum()
    }

    /// What-if metadata for this part's materialized indexes, in list order.
    pub fn metas(&self) -> Vec<IndexMeta> {
        self.indexes.iter().map(PartIndex::meta).collect()
    }
}

/// A key's prior row versions as `(start_ts, end_ts, row)`, end-exclusive.
type Versions = Vec<(u64, u64, Row)>;

/// One table with its full physical design.
pub struct Table {
    pub name: String,
    schema: Schema,
    pk: Vec<usize>,
    /// `None` → single-part table; `Some` → one part per partition.
    partitioning: Option<PartitionSpec>,
    parts: Vec<TablePart>,
    stats: TableStats,
    alloc: StorageAllocator,
    csi_config: CsiConfig,
    /// Per primary key rewritten since load (snapshot isolation): its last
    /// committed write timestamp, and its prior versions.
    versions: HashMap<Key, (u64, Versions)>,
}

impl Table {
    /// Create an empty unpartitioned table with the given primary index.
    pub fn create(
        name: impl Into<String>,
        schema: Schema,
        pk: Vec<usize>,
        primary: &IndexDescriptor,
        csi_config: CsiConfig,
        alloc: StorageAllocator,
    ) -> Result<Table> {
        Table::create_spec(name, schema, pk, primary, None, csi_config, alloc)
    }

    /// Create an empty table, optionally partitioned. Every partition starts
    /// with the same primary design; re-tune individual partitions with
    /// [`crate::Database::apply_partition_design`].
    pub fn create_spec(
        name: impl Into<String>,
        schema: Schema,
        pk: Vec<usize>,
        primary: &IndexDescriptor,
        partitioning: Option<PartitionSpec>,
        csi_config: CsiConfig,
        alloc: StorageAllocator,
    ) -> Result<Table> {
        if let Some(spec) = &partitioning {
            if spec.column >= schema.len() {
                return Err(HpdError::Constraint(format!(
                    "partition column {} out of range for {}-column schema",
                    spec.column,
                    schema.len()
                )));
            }
        }
        let name = name.into();
        check_design(&name, std::slice::from_ref(primary), &pk)?;
        // Loading no rows touches no page.
        let (pool, tracker) = (
            BufferPool::unbounded(hpd_storage::DeviceProfile::ram()),
            IoTracker::new(),
        );
        let n = schema.len();
        let stats = TableStats::empty(n);
        let ctx = BuildCtx {
            schema: &schema,
            pk: &pk,
            stats: &stats,
            csi_config,
            alloc: &alloc,
            pool: &pool,
            tracker: &tracker,
        };
        let n_parts = partitioning.as_ref().map_or(1, PartitionSpec::partitions);
        let parts = (0..n_parts)
            .map(|_| TablePart::create(primary, ctx))
            .collect::<Result<Vec<_>>>()?;
        Ok(Table {
            name,
            schema,
            pk,
            partitioning,
            parts,
            stats,
            alloc,
            csi_config,
            versions: HashMap::new(),
        })
    }

    /// Bulk load `rows` (replacing current contents) and refresh statistics:
    /// what a live load, the redo of its record and a checkpoint restore all
    /// do, on the bytes each of them holds. One pass checks every row
    /// against the schema, gathers the statistics and counts each part's
    /// rows, so a refused load leaves the table as it was and every
    /// columnstore part's builder is sized to its rows; a second reads each
    /// row's partition column in place and hands the row to its partition's
    /// builder, in arrival order (`IndexBuilder`) — no row is decoded,
    /// copied aside or encoded again.
    pub fn bulk_load(
        &mut self,
        rows: &EncodedRows,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Result<()> {
        let (stats, part_rows) = TableStats::analyze_load(
            &self.schema,
            rows,
            self.csi_config.rowgroup_capacity,
            self.partitioning.as_ref(),
        )?;
        let ctx = BuildCtx {
            schema: &self.schema,
            pk: &self.pk,
            stats: &stats,
            csi_config: self.csi_config,
            alloc: &self.alloc,
            pool,
            tracker,
        };
        // The statistics count the table's rows, not a part's, so a B+ tree
        // part of several would reserve its run at its rows' widest
        // encoding: several parts' runs filled at once so held more than
        // runs grown by doubling (a four-part `lineitem` load peaked 1.1 MB
        // higher), so it is told nothing.
        let several = self.parts.len() > 1;
        let mut builders: Vec<_> = (self.parts.iter().zip(part_rows))
            .map(|(part, rows)| {
                let descriptor = &part.indexes[0].descriptor;
                let rows = if several && !descriptor.is_csi() {
                    0
                } else {
                    rows
                };
                IndexBuilder::new(descriptor, ctx, rows)
            })
            .collect();
        match &self.partitioning {
            None => rows.iter().for_each(|row| builders[0].push(row)),
            Some(spec) => {
                for row in rows.iter() {
                    let v = (codec::values(row).nth(spec.column)).expect("rows fit the schema");
                    builders[spec.route_ref(v)].push(row);
                }
            }
        }
        // Finished in part order, each followed by its secondaries: what a
        // part allocates of pages and blobs stays together.
        for (part, builder) in self.parts.iter_mut().zip(builders) {
            part.replace_contents(builder.finish()?, ctx)?;
        }
        self.stats = stats;
        Ok(())
    }

    /// Give the parts from `first` on the designs in `targets`, one each,
    /// primary first ([`TablePart::set_design`]) — every design change there
    /// is: an index more or fewer on every part, one design for the whole
    /// table, one part re-tuned. All targets are checked before any part is
    /// touched, so a refused one (a second columnstore on some part, say)
    /// leaves no part changed. Rows, their write timestamps and old versions
    /// stay where they are: a snapshot that began before the change reads on.
    pub(crate) fn set_design(
        &mut self,
        first: usize,
        targets: &[Vec<IndexDescriptor>],
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Result<()> {
        let last = first + targets.len();
        let Some(changed) = self.parts.get_mut(first..last) else {
            return Err(HpdError::Constraint(format!(
                "table {} has no partition {}",
                self.name,
                last - 1
            )));
        };
        for design in targets {
            check_design(&self.name, design, &self.pk)?;
        }
        let ctx = BuildCtx {
            schema: &self.schema,
            pk: &self.pk,
            stats: &self.stats,
            csi_config: self.csi_config,
            alloc: &self.alloc,
            pool,
            tracker,
        };
        for (part, design) in changed.iter_mut().zip(targets) {
            part.set_design(design, ctx)?;
        }
        Ok(())
    }

    /// Every part's index list as descriptors: the targets that change
    /// nothing, for a caller to add to or remove from.
    pub fn designs(&self) -> Vec<Vec<IndexDescriptor>> {
        self.parts.iter().map(TablePart::descriptors).collect()
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn pk(&self) -> &[usize] {
        &self.pk
    }

    /// The table's partitioning declaration, if any.
    pub fn partitioning(&self) -> Option<&PartitionSpec> {
        self.partitioning.as_ref()
    }

    /// Number of physical parts (1 for unpartitioned tables).
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    pub fn part(&self, p: usize) -> &TablePart {
        &self.parts[p]
    }

    pub fn parts(&self) -> &[TablePart] {
        &self.parts
    }

    pub fn has_csi(&self) -> bool {
        self.parts.iter().any(TablePart::has_csi)
    }

    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    pub fn row_count(&self) -> usize {
        self.parts.iter().map(TablePart::row_count).sum()
    }

    /// Partition id a row belongs to (0 for unpartitioned tables).
    pub fn route_row(&self, row: &Row) -> usize {
        self.partitioning.as_ref().map_or(0, |s| s.route_row(row))
    }

    /// One budgeted maintenance increment over the columnstore indexes of
    /// one part — or, with `part: None`, of every part in order — under one
    /// shared budget: within a part the primary CSI has first claim and the
    /// secondary the remainder (each index resolves its buffered deletes
    /// before its delta rows compress). No-op without a CSI. Reach it
    /// through `db.maintenance(table)`.
    pub(crate) fn maintenance_step(
        &mut self,
        part: Option<usize>,
        budget_rows: usize,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> TableMaintStep {
        let parts = match part {
            Some(p) => &mut self.parts[p..=p],
            None => &mut self.parts[..],
        };
        let mut step = TableMaintStep::default();
        let mut remaining = budget_rows.max(1);
        for csi in parts.iter_mut().flat_map(TablePart::csis_mut) {
            if remaining == 0 {
                break;
            }
            let s = csi.maintenance_step(remaining, pool, tracker);
            step.rows_moved += s.rows_moved;
            step.deletes_compacted += s.deletes_compacted;
            step.rows_rewritten += s.rows_rewritten;
            step.rowgroups_merged += s.rowgroups_merged;
            remaining =
                remaining.saturating_sub(s.rows_moved + s.deletes_compacted + s.rows_rewritten);
        }
        step.done = self.maintenance_backlog() == 0;
        step
    }

    /// Rows of pending reorganization work (delta rows + buffered deletes)
    /// across this table's columnstore indexes, all partitions.
    pub fn maintenance_backlog(&self) -> usize {
        self.parts.iter().map(TablePart::maintenance_backlog).sum()
    }

    /// Age rowgroup heat one tick (exponential decay) on every columnstore
    /// index. Driven by the scheduler's decay clock — deliberately NOT tied
    /// to maintenance passes, so heat ages even when no compaction runs.
    pub fn decay_heat(&self) {
        for csi in self.parts.iter().flat_map(TablePart::csis) {
            csi.decay_heat();
        }
    }

    /// Per-rowgroup access heat for this table's columnstore indexes,
    /// labelled `"primary"` / `"secondary"` (single part) or
    /// `"p<i>.primary"` / `"p<i>.secondary"` (partitioned). Empty without a
    /// CSI.
    pub fn heat_report(&self) -> Vec<(String, hpd_columnstore::CsiHeatReport)> {
        let partitioned = self.parts.len() > 1;
        let mut out = Vec::new();
        for (i, part) in self.parts.iter().enumerate() {
            for csi in part.csis() {
                let kind = match csi.kind() {
                    CsiKind::Primary => "primary",
                    CsiKind::Secondary => "secondary",
                };
                let label = if partitioned {
                    format!("p{i}.{kind}")
                } else {
                    kind.to_string()
                };
                out.push((label, csi.heat_report()));
            }
        }
        out
    }

    /// Refresh statistics from current contents, read once in the order
    /// [`Table::for_each_row`] lends them.
    pub fn analyze(&mut self, pool: &BufferPool, tracker: &IoTracker) {
        self.stats = TableStats::analyze_scan(
            &self.schema,
            self.row_count(),
            self.csi_config.rowgroup_capacity,
            |sink| self.for_each_row(pool, tracker, sink),
        );
    }

    /// What-if metadata for one part's materialized indexes, in the order
    /// of its index list.
    pub fn part_metas(&self, part: usize) -> Vec<IndexMeta> {
        self.parts[part].metas()
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    /// Insert one row through every index of its partition; returns the
    /// partition it was routed to.
    pub fn insert_row(
        &mut self,
        row: Row,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Result<usize> {
        self.schema.validate_row(&row)?;
        let p = self.route_row(&row);
        self.parts[p].insert_row(&row, pool, tracker);
        self.stats.rows += 1;
        Ok(p)
    }

    /// The parts that can hold this key: the one the key itself routes to
    /// (every part of an unpartitioned table is part 0), or all of them, in
    /// order, when the partition column is not in the primary key.
    fn parts_of_key(&self, key: &Key) -> std::ops::Range<usize> {
        let hint = match &self.partitioning {
            None => Some(0),
            Some(spec) => self
                .pk
                .iter()
                .position(|&c| c == spec.column)
                .map(|pos| spec.route_value(&key.values()[pos])),
        };
        hint.map_or(0..self.parts.len(), |p| p..p + 1)
    }

    /// Delete the row with this primary key from every index of its
    /// partition, returning its old image (`None` if absent).
    pub fn delete_by_pk(
        &mut self,
        key: &Key,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Option<Row> {
        let old = self
            .parts_of_key(key)
            .find_map(|p| self.parts[p].delete_by_pk(key, &self.pk, pool, tracker))?;
        self.stats.rows = self.stats.rows.saturating_sub(1);
        Some(old)
    }

    /// Update the row with this primary key to `post`'s image of it and
    /// return `(pre-image, post-image)`, `None` if absent. The row is
    /// located once, by the primary index that rewrites it. A post-image in
    /// the same partition is taken in place — B+ tree rewrite, columnstore
    /// delete + delta insert, and only the secondaries storing a column that
    /// differs between the images; one that routes elsewhere is removed
    /// from the old partition and inserted whole into the new. The primary
    /// key itself never changes.
    pub fn update_by_pk(
        &mut self,
        key: &Key,
        post: PostImage<'_>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Result<Option<(Row, Row)>> {
        let candidates = self.parts_of_key(key);
        let Table {
            schema,
            pk,
            partitioning,
            parts,
            ..
        } = self;
        let route = |r: &Row| partitioning.as_ref().map_or(0, |s| s.route_row(r));
        for p_old in candidates {
            let images = parts[p_old].update_primary(
                key,
                |old| {
                    let new = match post {
                        PostImage::Set(set) => eval_update(schema, old, set)?,
                        PostImage::Logged(row) => row.clone(),
                    };
                    let stays = route(&new) == p_old;
                    Ok((new, stays))
                },
                pool,
                tracker,
            )?;
            let Some((old, new, stays)) = images else {
                continue;
            };
            if stays {
                parts[p_old].update_secondaries(key, &old, &new, pk, pool, tracker);
            } else {
                parts[p_old].delete_from_secondaries(key, &old, pk, pool, tracker);
                parts[route(&new)].insert_row(&new, pool, tracker);
            }
            return Ok(Some((old, new)));
        }
        Ok(None)
    }

    /// Hand every current row to `f` by reference, partitions in order (see
    /// [`TablePart::for_each_row`]).
    pub fn for_each_row(&self, pool: &BufferPool, tracker: &IoTracker, f: &mut dyn FnMut(&Row)) {
        for part in &self.parts {
            part.for_each_row(&self.schema, pool, tracker, f);
        }
    }

    /// Hand every current row to `f` in its encoded form, partitions in
    /// order (see [`TablePart::for_each_encoded_row`]).
    pub fn for_each_encoded_row(
        &self,
        pool: &BufferPool,
        tracker: &IoTracker,
        f: &mut dyn FnMut(&[u8]),
    ) {
        for part in &self.parts {
            part.for_each_encoded_row(&self.schema, pool, tracker, f);
        }
    }

    /// Materialize all current rows, partitions concatenated in order: a
    /// collect over [`Table::for_each_row`], for callers that keep the rows.
    pub fn scan_all_rows(&self, pool: &BufferPool, tracker: &IoTracker) -> Vec<Row> {
        let mut rows = Vec::with_capacity(self.row_count());
        self.for_each_row(pool, tracker, &mut |r| rows.push(r.clone()));
        rows
    }

    // ------------------------------------------------------------------
    // Version store (snapshot isolation)
    // ------------------------------------------------------------------

    /// Record that a write at commit timestamp `ts` replaced `old` (or
    /// created the row, if `old` is `None`).
    pub fn record_version(&mut self, key: Key, old: Option<Row>, ts: u64) {
        let (write_ts, versions) = self.versions.entry(key).or_default();
        if let Some(old_row) = old {
            versions.push((*write_ts, ts, old_row));
        }
        *write_ts = ts;
    }

    /// Timestamp of the last committed write to this row (0 if never
    /// rewritten since load).
    pub fn last_write_ts(&self, key: &Key) -> u64 {
        self.versions.get(key).map_or(0, |(ts, _)| *ts)
    }

    /// The row version visible at snapshot `ts`, when the current version is
    /// too new. `None` means the row did not exist at `ts`.
    pub fn version_at(&self, key: &Key, ts: u64) -> Option<&Row> {
        self.versions.get(key).and_then(|(_, versions)| {
            versions
                .iter()
                .find(|(start, end, _)| *start <= ts && ts < *end)
                .map(|(_, _, row)| row)
        })
    }

    /// Primary keys whose last committed write is newer than `ts` (the rows
    /// a snapshot reader at `ts` must correct).
    pub fn rewritten_since(&self, ts: u64) -> Vec<Key> {
        self.versions
            .iter()
            .filter(|(_, (w, _))| *w > ts)
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Discard what no snapshot at or after `oldest_active` can need: old
    /// versions that ended by then, and the write timestamps that bounded
    /// them. A timestamp at or below the horizon conflicts with no active or
    /// future transaction and puts no row in any of their overlays, so to
    /// them it reads the same as the absent entry's 0. A version ends at a
    /// later write to its key, so a key whose write is behind the horizon
    /// has no version left either.
    pub fn prune_versions(&mut self, oldest_active: u64) {
        self.versions.retain(|_, (ts, versions)| {
            versions.retain(|(_, end, _)| *end > oldest_active);
            *ts > oldest_active
        });
    }

    /// Number of retained old versions (diagnostics / SI overhead tests).
    pub fn version_count(&self) -> usize {
        self.versions.values().map(|(_, v)| v.len()).sum()
    }

    /// Number of rows with a retained write timestamp (diagnostics).
    pub fn tracked_write_count(&self) -> usize {
        self.versions.len()
    }
}

/// Evaluate `set` over `old`, producing the full post-image row. The commit
/// path logs this row to the WAL — updates are value-logged, so redo
/// re-applies rows and never re-evaluates expressions. (`Txn::update`
/// rejects a SET on a primary-key column before anything is buffered.)
fn eval_update(schema: &Schema, old: &Row, set: &[(usize, Expr)]) -> Result<Row> {
    let mut new_row = old.clone();
    for (col, expr) in set {
        let dtype = schema.column(*col).dtype;
        let v = expr.eval_row(old)?;
        let v = v.coerce_to(dtype).ok_or(HpdError::TypeMismatch {
            expected: dtype.name(),
            found: v.data_type().name().to_string(),
        })?;
        new_row.set(*col, v);
    }
    Ok(new_row)
}
