//! Tables: a primary index (B+ tree or columnstore), secondary B+ trees,
//! and at most one secondary columnstore — the hybrid design space.
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

use hpd_btree::{BTree, BTreeConfig, EntryRun};
use hpd_columnstore::{ColumnStoreIndex, CsiConfig, CsiKind};
use hpd_common::{codec, Batch, Expr, HpdError, Key, Result, Row, Schema};
use hpd_storage::{BufferPool, IoTracker, StorageAllocator};

use crate::design::{IndexDescriptor, IndexId, IndexMeta};
use crate::partition::PartitionSpec;
use crate::stats::TableStats;

/// The table's main storage.
// One instance per part, never moved after creation: the size skew
// between the variants doesn't matter.
#[allow(clippy::large_enum_variant)]
pub enum PrimaryIndex {
    /// Clustered B+ tree: key = `Table::pk` values, payload = full row.
    BTree(BTree),
    /// Clustered columnstore over all columns.
    Csi(ColumnStoreIndex),
}

impl PrimaryIndex {
    pub fn as_btree(&self) -> Option<&BTree> {
        match self {
            PrimaryIndex::BTree(t) => Some(t),
            PrimaryIndex::Csi(_) => None,
        }
    }

    pub fn as_csi(&self) -> Option<&ColumnStoreIndex> {
        match self {
            PrimaryIndex::Csi(c) => Some(c),
            PrimaryIndex::BTree(_) => None,
        }
    }
}

/// A secondary B+ tree. The leaf payload stores the values of
/// [`SecondaryBTree::stored`] (table ordinals, in that order): key columns,
/// then includes, then the primary key locator.
pub struct SecondaryBTree {
    pub keys: Vec<usize>,
    pub includes: Vec<usize>,
    /// All physically stored columns, in payload order.
    pub stored: Vec<usize>,
    pub tree: BTree,
}

impl SecondaryBTree {
    /// Position of table column `col` within the payload row, if stored.
    pub fn payload_position(&self, col: usize) -> Option<usize> {
        self.stored.iter().position(|&c| c == col)
    }

    /// Remove the entry of the row `old` (primary key `key`): seek its index
    /// key, then match the primary-key locator in the payload.
    fn remove(
        &mut self,
        key: &Key,
        old: &Row,
        pk: &[usize],
        pool: &BufferPool,
        tracker: &IoTracker,
    ) {
        let locator_positions: Vec<usize> = pk
            .iter()
            .map(|&k| self.payload_position(k).expect("pk stored in secondary"))
            .collect();
        self.tree.delete_first_where(
            &old.key(&self.keys),
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

/// Hand every batch of a full scan of `csi`, all columns, to `f`.
fn for_each_batch(
    csi: &ColumnStoreIndex,
    schema: &Schema,
    pool: &BufferPool,
    tracker: &IoTracker,
    mut f: impl FnMut(&Batch),
) {
    let all: Vec<usize> = (0..schema.len()).collect();
    let mut scan = csi.begin_scan(all, HashMap::new(), pool, tracker);
    while let Some(batch) = scan.next_batch(pool, tracker) {
        f(&batch);
    }
}

fn stored_columns(keys: &[usize], includes: &[usize], pk: &[usize]) -> Vec<usize> {
    let mut stored: Vec<usize> = keys.to_vec();
    for &c in includes.iter().chain(pk) {
        if !stored.contains(&c) {
            stored.push(c);
        }
    }
    stored
}

fn make_primary(
    schema: &Schema,
    pk: &[usize],
    descriptor: &IndexDescriptor,
    csi_config: CsiConfig,
    alloc: &StorageAllocator,
) -> Result<PrimaryIndex> {
    match descriptor {
        IndexDescriptor::PrimaryBTree { keys } => {
            if keys != pk {
                return Err(HpdError::Constraint(
                    "primary B+ tree keys must equal the table primary key".into(),
                ));
            }
            let entry_width = schema.row_width() + 16;
            Ok(PrimaryIndex::BTree(BTree::new(
                BTreeConfig::for_entry_width(entry_width),
                alloc.clone(),
            )))
        }
        IndexDescriptor::PrimaryCsi => Ok(PrimaryIndex::Csi(ColumnStoreIndex::build(
            schema.clone(),
            CsiKind::Primary,
            pk.to_vec(),
            csi_config,
            &[],
            alloc.clone(),
            &BufferPool::unbounded(hpd_storage::DeviceProfile::ram()),
            &IoTracker::new(),
        ))),
        other => Err(HpdError::Constraint(format!(
            "not a primary index descriptor: {other:?}"
        ))),
    }
}

/// One partition's complete physical design: its primary index plus its own
/// secondaries. Unpartitioned tables are a single part.
pub struct TablePart {
    pub(crate) primary: PrimaryIndex,
    pub(crate) secondaries: Vec<SecondaryBTree>,
    pub(crate) secondary_csi: Option<ColumnStoreIndex>,
    /// Table ordinals stored in the secondary CSI (its schema order).
    pub(crate) csi_columns: Vec<usize>,
}

impl TablePart {
    fn create(
        schema: &Schema,
        pk: &[usize],
        primary: &IndexDescriptor,
        csi_config: CsiConfig,
        alloc: &StorageAllocator,
    ) -> Result<TablePart> {
        Ok(TablePart {
            primary: make_primary(schema, pk, primary, csi_config, alloc)?,
            secondaries: Vec::new(),
            secondary_csi: None,
            csi_columns: Vec::new(),
        })
    }

    pub fn primary(&self) -> &PrimaryIndex {
        &self.primary
    }

    pub fn secondaries(&self) -> &[SecondaryBTree] {
        &self.secondaries
    }

    pub fn secondary_csi(&self) -> Option<&ColumnStoreIndex> {
        self.secondary_csi.as_ref()
    }

    pub fn csi_columns(&self) -> &[usize] {
        &self.csi_columns
    }

    pub fn row_count(&self) -> usize {
        match &self.primary {
            PrimaryIndex::BTree(t) => t.len(),
            PrimaryIndex::Csi(c) => c.active_rows(),
        }
    }

    /// The descriptor this part's primary index was built from.
    pub fn primary_descriptor(&self, pk: &[usize]) -> IndexDescriptor {
        match &self.primary {
            PrimaryIndex::BTree(_) => IndexDescriptor::PrimaryBTree { keys: pk.to_vec() },
            PrimaryIndex::Csi(_) => IndexDescriptor::PrimaryCsi,
        }
    }

    /// Descriptors of this part's secondary indexes (B+ trees, then the CSI).
    pub fn secondary_descriptors(&self) -> Vec<IndexDescriptor> {
        let mut out: Vec<IndexDescriptor> = self
            .secondaries
            .iter()
            .map(|s| IndexDescriptor::SecondaryBTree {
                keys: s.keys.clone(),
                includes: s.includes.clone(),
            })
            .collect();
        if self.secondary_csi.is_some() {
            out.push(IndexDescriptor::SecondaryCsi {
                columns: self.csi_columns.clone(),
            });
        }
        out
    }

    /// This part's columnstore indexes: the primary if it is one, then the
    /// secondary. Everything that reorganizes, ages or reports on
    /// columnstores walks this.
    pub fn csis(&self) -> impl Iterator<Item = &ColumnStoreIndex> {
        self.primary.as_csi().into_iter().chain(&self.secondary_csi)
    }

    fn csis_mut(&mut self) -> impl Iterator<Item = &mut ColumnStoreIndex> {
        let primary = match &mut self.primary {
            PrimaryIndex::Csi(csi) => Some(csi),
            PrimaryIndex::BTree(_) => None,
        };
        primary.into_iter().chain(&mut self.secondary_csi)
    }

    fn has_csi(&self) -> bool {
        self.csis().next().is_some()
    }

    /// Replace this part's contents with `rows` (primary rebuilt, existing
    /// secondaries rebuilt from their descriptors). A B+ tree primary
    /// encodes each row into a run of entries and frees it, then sorts and
    /// loads the run; the secondaries then read the rows back from the new
    /// primary, by reference.
    #[allow(clippy::too_many_arguments)]
    fn bulk_load(
        &mut self,
        rows: Vec<Row>,
        schema: &Schema,
        pk: &[usize],
        csi_config: CsiConfig,
        alloc: &StorageAllocator,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Result<()> {
        match &mut self.primary {
            PrimaryIndex::BTree(tree) => {
                // Each row is encoded as it arrives and freed; the run
                // sorts itself (stably: equal keys keep arrival order).
                let mut run = EntryRun::default();
                for row in rows {
                    run.push(pk.iter().map(|&c| &row[c]), row.values());
                }
                let entry_width = schema.row_width() + 16;
                *tree = run.bulk_load(
                    BTreeConfig::for_entry_width(entry_width),
                    alloc.clone(),
                    pool,
                    tracker,
                )?;
            }
            PrimaryIndex::Csi(csi) => {
                *csi = ColumnStoreIndex::build(
                    schema.clone(),
                    CsiKind::Primary,
                    pk.to_vec(),
                    csi_config,
                    &rows,
                    alloc.clone(),
                    pool,
                    tracker,
                );
            }
        }
        for old in std::mem::take(&mut self.secondaries) {
            self.add_secondary_btree(old.keys, old.includes, schema, pk, alloc, pool, tracker)?;
        }
        if self.secondary_csi.take().is_some() {
            let columns = std::mem::take(&mut self.csi_columns);
            self.add_secondary_csi(columns, schema, pk, csi_config, alloc, pool, tracker);
        }
        Ok(())
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
        match &self.primary {
            PrimaryIndex::BTree(tree) => tree.for_each_entry(pool, tracker, |_, row| f(row)),
            PrimaryIndex::Csi(csi) => for_each_batch(csi, schema, pool, tracker, |batch| {
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
        match &self.primary {
            PrimaryIndex::BTree(tree) => {
                tree.for_each_encoded_entry(pool, tracker, |e| f(e.payload));
            }
            PrimaryIndex::Csi(csi) => {
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

    /// Build a secondary B+ tree over this part's current rows: each entry
    /// is the byte ranges of its columns copied out of the encoded row the
    /// primary lends, and the entries are sorted as bytes.
    #[allow(clippy::too_many_arguments)]
    fn add_secondary_btree(
        &mut self,
        keys: Vec<usize>,
        includes: Vec<usize>,
        schema: &Schema,
        pk: &[usize],
        alloc: &StorageAllocator,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Result<()> {
        let stored = stored_columns(&keys, &includes, pk);
        let mut run = EntryRun::default();
        let (mut spans, mut key, mut payload) = (Vec::new(), Vec::new(), Vec::new());
        self.for_each_encoded_row(schema, pool, tracker, &mut |row| {
            codec::value_spans(row, &mut spans);
            let project = |out: &mut Vec<u8>, columns: &[usize]| {
                out.clear();
                for &c in columns {
                    out.extend_from_slice(&row[spans[c].clone()]);
                }
            };
            project(&mut key, &keys);
            project(&mut payload, &stored);
            run.push_encoded(&key, &payload);
        });
        let entry_width: usize = stored
            .iter()
            .map(|&c| schema.column(c).dtype.fixed_width())
            .sum::<usize>()
            + keys.len() * 8;
        let tree = run.bulk_load(
            BTreeConfig::for_entry_width(entry_width),
            alloc.clone(),
            pool,
            tracker,
        )?;
        self.secondaries.push(SecondaryBTree {
            keys,
            includes,
            stored,
            tree,
        });
        Ok(())
    }

    /// Build this part's secondary columnstore over `columns` from its
    /// current rows, projected and compressed one row group at a time.
    #[allow(clippy::too_many_arguments)]
    fn add_secondary_csi(
        &mut self,
        columns: Vec<usize>,
        schema: &Schema,
        pk: &[usize],
        csi_config: CsiConfig,
        alloc: &StorageAllocator,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) {
        // The secondary CSI must contain the primary key for delete handling.
        let mut cols = columns;
        for &k in pk {
            if !cols.contains(&k) {
                cols.push(k);
            }
        }
        let key_ordinals: Vec<usize> = pk
            .iter()
            .map(|k| cols.iter().position(|c| c == k).expect("pk included above"))
            .collect();
        let csi = ColumnStoreIndex::build_projected(
            schema.project(&cols),
            CsiKind::Secondary,
            key_ordinals,
            csi_config,
            &cols,
            |sink| self.for_each_row(schema, pool, tracker, sink),
            alloc.clone(),
            pool,
            tracker,
        );
        self.secondary_csi = Some(csi);
        self.csi_columns = cols;
    }

    fn insert_row(&mut self, row: &Row, pk: &[usize], pool: &BufferPool, tracker: &IoTracker) {
        let pk_key = row.key(pk);
        match &mut self.primary {
            PrimaryIndex::BTree(tree) => tree.insert(pk_key, row.clone(), pool, tracker),
            PrimaryIndex::Csi(csi) => csi.insert(row.clone(), pool, tracker),
        }
        for s in &mut self.secondaries {
            s.tree
                .insert(row.key(&s.keys), row.project(&s.stored), pool, tracker);
        }
        if let Some(csi) = &mut self.secondary_csi {
            csi.insert(row.project(&self.csi_columns), pool, tracker);
        }
    }

    /// Remove the row with this key from every index, returning its old
    /// image (`None` if absent). One locate: both primaries hand back the
    /// row they remove.
    fn delete_by_pk(
        &mut self,
        key: &Key,
        pk: &[usize],
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Option<Row> {
        let old = match &mut self.primary {
            PrimaryIndex::BTree(tree) => tree.delete_first_where(key, |_| true, pool, tracker),
            PrimaryIndex::Csi(csi) => csi.delete_returning(key, pool, tracker),
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
        for s in &mut self.secondaries {
            s.remove(key, old, pk, pool, tracker);
        }
        if let Some(csi) = &mut self.secondary_csi {
            csi.delete(key, pool, tracker);
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
        match &mut self.primary {
            PrimaryIndex::BTree(tree) => {
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
            PrimaryIndex::Csi(csi) => {
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
        let differs = |cols: &[usize]| cols.iter().any(|&c| old[c] != new[c]);
        for s in &mut self.secondaries {
            if differs(&s.stored) {
                s.remove(key, old, pk, pool, tracker);
                s.tree
                    .insert(new.key(&s.keys), new.project(&s.stored), pool, tracker);
            }
        }
        if let Some(csi) = &mut self.secondary_csi {
            if differs(&self.csi_columns) {
                csi.update(key, new.project(&self.csi_columns), pool, tracker);
            }
        }
    }

    /// Materialize this part's current rows.
    pub fn scan_all_rows(
        &self,
        schema: &Schema,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Vec<Row> {
        let mut rows = Vec::with_capacity(self.row_count());
        self.for_each_row(schema, pool, tracker, &mut |r| rows.push(r.clone()));
        rows
    }

    /// Rows of pending reorganization work (delta rows + buffered deletes)
    /// across this part's columnstore indexes.
    pub fn maintenance_backlog(&self) -> usize {
        self.csis().map(ColumnStoreIndex::maintenance_backlog).sum()
    }

    /// What-if metadata for this part's materialized indexes: primary first,
    /// then secondary B+ trees, then the secondary CSI.
    pub fn metas(&self, pk: &[usize]) -> Vec<IndexMeta> {
        let mut metas = Vec::new();
        match &self.primary {
            PrimaryIndex::BTree(t) => {
                let s = t.stats();
                metas.push(IndexMeta {
                    descriptor: IndexDescriptor::PrimaryBTree { keys: pk.to_vec() },
                    rows: s.entries,
                    leaf_pages: s.leaf_pages,
                    height: s.height,
                    column_bytes: vec![],
                    column_encodings: vec![],
                    rowgroups: 0,
                    delta_rows: 0,
                    delete_buffer_rows: 0,
                    hypothetical: false,
                });
            }
            PrimaryIndex::Csi(c) => {
                metas.push(IndexMeta {
                    descriptor: IndexDescriptor::PrimaryCsi,
                    rows: c.active_rows(),
                    leaf_pages: 0,
                    height: 0,
                    column_bytes: c.column_sizes().into_iter().enumerate().collect(),
                    column_encodings: c.column_encodings().into_iter().enumerate().collect(),
                    rowgroups: c.num_rowgroups(),
                    delta_rows: c.delta_rows(),
                    delete_buffer_rows: 0,
                    hypothetical: false,
                });
            }
        }
        for s in &self.secondaries {
            let st = s.tree.stats();
            metas.push(IndexMeta {
                descriptor: IndexDescriptor::SecondaryBTree {
                    keys: s.keys.clone(),
                    includes: s.includes.clone(),
                },
                rows: st.entries,
                leaf_pages: st.leaf_pages,
                height: st.height,
                column_bytes: vec![],
                column_encodings: vec![],
                rowgroups: 0,
                delta_rows: 0,
                delete_buffer_rows: 0,
                hypothetical: false,
            });
        }
        if let Some(c) = &self.secondary_csi {
            let sizes = c.column_sizes();
            metas.push(IndexMeta {
                descriptor: IndexDescriptor::SecondaryCsi {
                    columns: self.csi_columns.clone(),
                },
                rows: c.active_rows(),
                leaf_pages: 0,
                height: 0,
                column_bytes: self.csi_columns.iter().copied().zip(sizes).collect(),
                column_encodings: self
                    .csi_columns
                    .iter()
                    .copied()
                    .zip(c.column_encodings())
                    .collect(),
                rowgroups: c.num_rowgroups(),
                delta_rows: c.delta_rows(),
                delete_buffer_rows: c.delete_buffer_len(),
                hypothetical: false,
            });
        }
        metas
    }
}

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
    /// Last committed write timestamp per primary key (snapshot isolation).
    row_write_ts: HashMap<Key, u64>,
    /// Prior versions: pk → list of (start_ts, end_ts, row), end-exclusive.
    version_store: HashMap<Key, Vec<(u64, u64, Row)>>,
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
    /// [`Table::apply_partition_design`].
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
        let n_parts = partitioning.as_ref().map_or(1, PartitionSpec::partitions);
        let mut parts = Vec::with_capacity(n_parts);
        for _ in 0..n_parts {
            parts.push(TablePart::create(
                &schema, &pk, primary, csi_config, &alloc,
            )?);
        }
        let n = schema.len();
        Ok(Table {
            name: name.into(),
            schema,
            pk,
            partitioning,
            parts,
            stats: TableStats::empty(n),
            alloc,
            csi_config,
            row_write_ts: HashMap::new(),
            version_store: HashMap::new(),
        })
    }

    /// Bulk load rows (replacing current contents; rows are routed to their
    /// partitions) and refresh statistics.
    pub fn bulk_load(
        &mut self,
        rows: Vec<Row>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Result<()> {
        for r in &rows {
            self.schema.validate_row(r)?;
        }
        self.stats =
            TableStats::analyze(&rows, self.schema.len(), self.csi_config.rowgroup_capacity);
        let per_part = match &self.partitioning {
            None => vec![rows],
            Some(spec) => {
                let mut per_part: Vec<Vec<Row>> = self.parts.iter().map(|_| Vec::new()).collect();
                for r in rows {
                    per_part[spec.route_row(&r)].push(r);
                }
                per_part
            }
        };
        for (part, rows) in self.parts.iter_mut().zip(per_part) {
            part.bulk_load(
                rows,
                &self.schema,
                &self.pk,
                self.csi_config,
                &self.alloc,
                pool,
                tracker,
            )?;
        }
        Ok(())
    }

    /// Build a secondary index described by `descriptor` on **every**
    /// partition from current data. (Per-partition designs are installed
    /// with [`Table::apply_partition_design`].)
    pub fn build_index(
        &mut self,
        descriptor: &IndexDescriptor,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Result<IndexId> {
        // Checked across all parts before any part is built, so a refused
        // columnstore leaves no part with one.
        let csi = matches!(descriptor, IndexDescriptor::SecondaryCsi { .. });
        if csi && self.has_csi() {
            return Err(HpdError::Constraint(format!(
                "table {}: at most one columnstore index",
                self.name
            )));
        }
        for part in 0..self.parts.len() {
            self.build_index_on_part(part, descriptor, pool, tracker)?;
        }
        Ok(IndexId(self.parts[0].secondaries.len() + csi as usize))
    }

    /// Build a secondary index on **one** partition only.
    pub fn build_index_on_part(
        &mut self,
        part: usize,
        descriptor: &IndexDescriptor,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Result<()> {
        let schema = self.schema.clone();
        let pk = self.pk.clone();
        let csi_config = self.csi_config;
        let alloc = self.alloc.clone();
        let p = self
            .parts
            .get_mut(part)
            .ok_or_else(|| HpdError::Constraint(format!("no partition {part}")))?;
        match descriptor {
            IndexDescriptor::SecondaryBTree { keys, includes } => p.add_secondary_btree(
                keys.clone(),
                includes.clone(),
                &schema,
                &pk,
                &alloc,
                pool,
                tracker,
            ),
            IndexDescriptor::SecondaryCsi { columns } => {
                if p.has_csi() {
                    return Err(HpdError::Constraint(format!(
                        "table {} partition {part}: at most one columnstore index",
                        self.name
                    )));
                }
                p.add_secondary_csi(
                    columns.clone(),
                    &schema,
                    &pk,
                    csi_config,
                    &alloc,
                    pool,
                    tracker,
                );
                Ok(())
            }
            other => Err(HpdError::Constraint(format!(
                "cannot add a primary index after creation: {other:?}"
            ))),
        }
    }

    /// Replace one partition's entire physical design: rebuild its primary
    /// and secondaries from its current rows. The heterogeneous-design
    /// entry point — "B+ tree on the hot partition, CSI on the cold ones".
    pub fn apply_partition_design(
        &mut self,
        part: usize,
        primary: &IndexDescriptor,
        secondaries: &[IndexDescriptor],
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Result<()> {
        let schema = self.schema.clone();
        let pk = self.pk.clone();
        let csi_config = self.csi_config;
        let alloc = self.alloc.clone();
        let p = self
            .parts
            .get_mut(part)
            .ok_or_else(|| HpdError::Constraint(format!("no partition {part}")))?;
        let rows = p.scan_all_rows(&schema, pool, tracker);
        let mut fresh = TablePart::create(&schema, &pk, primary, csi_config, &alloc)?;
        fresh.bulk_load(rows, &schema, &pk, csi_config, &alloc, pool, tracker)?;
        *p = fresh;
        for d in secondaries {
            self.build_index_on_part(part, d, pool, tracker)?;
        }
        Ok(())
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

    /// Refresh statistics from current contents.
    pub fn analyze(&mut self, pool: &BufferPool, tracker: &IoTracker) {
        let rows = self.scan_all_rows(pool, tracker);
        self.stats =
            TableStats::analyze(&rows, self.schema.len(), self.csi_config.rowgroup_capacity);
    }

    /// What-if metadata for one part's materialized indexes: primary first,
    /// then secondary B+ trees, then the secondary CSI.
    pub fn part_metas(&self, part: usize) -> Vec<IndexMeta> {
        self.parts[part].metas(&self.pk)
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
        self.parts[p].insert_row(&row, &self.pk, pool, tracker);
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
                parts[route(&new)].insert_row(&new, pk, pool, tracker);
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
        let start = self.row_write_ts.get(&key).copied().unwrap_or(0);
        if let Some(old_row) = old {
            self.version_store
                .entry(key.clone())
                .or_default()
                .push((start, ts, old_row));
        }
        self.row_write_ts.insert(key, ts);
    }

    /// Timestamp of the last committed write to this row (0 if never
    /// rewritten since load).
    pub fn last_write_ts(&self, key: &Key) -> u64 {
        self.row_write_ts.get(key).copied().unwrap_or(0)
    }

    /// The row version visible at snapshot `ts`, when the current version is
    /// too new. `None` means the row did not exist at `ts`.
    pub fn version_at(&self, key: &Key, ts: u64) -> Option<&Row> {
        self.version_store.get(key).and_then(|versions| {
            versions
                .iter()
                .find(|(start, end, _)| *start <= ts && ts < *end)
                .map(|(_, _, row)| row)
        })
    }

    /// Primary keys whose last committed write is newer than `ts` (the rows
    /// a snapshot reader at `ts` must correct).
    pub fn rewritten_since(&self, ts: u64) -> Vec<Key> {
        self.row_write_ts
            .iter()
            .filter(|(_, &w)| w > ts)
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Discard what no snapshot at or after `oldest_active` can need: old
    /// versions that ended by then, and the write timestamps that bounded
    /// them. A timestamp at or below the horizon conflicts with no active or
    /// future transaction and puts no row in any of their overlays, so to
    /// them it reads the same as the absent entry's 0.
    pub fn prune_versions(&mut self, oldest_active: u64) {
        self.version_store.retain(|_, versions| {
            versions.retain(|(_, end, _)| *end > oldest_active);
            !versions.is_empty()
        });
        self.row_write_ts.retain(|_, ts| *ts > oldest_active);
    }

    /// Number of retained old versions (diagnostics / SI overhead tests).
    pub fn version_count(&self) -> usize {
        self.version_store.values().map(Vec::len).sum()
    }

    /// Number of rows with a retained write timestamp (diagnostics).
    pub fn tracked_write_count(&self) -> usize {
        self.row_write_ts.len()
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
