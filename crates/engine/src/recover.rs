//! Crash recovery: rebuild committed state from the durable WAL prefix.
//!
//! Redo-only, in two steps:
//!
//! 1. **Checkpoint restore** — if a checkpoint image survives, every table
//!    is rebuilt from its snapshot (schema, physical design, rows) and its
//!    `applied_lsn` high-water mark is restored; the timestamp allocator
//!    resumes above the image's `next_ts`.
//! 2. **Log replay** — the surviving log is scanned from the checkpoint's
//!    begin LSN. Write records are buffered per transaction and applied only
//!    when their `TxnCommit` record is found (uncommitted and aborted
//!    transactions are discarded wholesale — there is no undo because
//!    nothing uncommitted ever reaches a table before its commit record is
//!    logged). A table-scoped record is applied only when its LSN is above
//!    the table's `applied_lsn`, which is what makes fuzzy checkpoints safe.
//!
//! Replay rebuilds every index the table had — heap/B+ tree and columnstore,
//! including the delta store and secondary-CSI delete buffer — because redo
//! goes through the same `Table` write paths as normal commits. Updates are
//! replayed as delete + insert of the logged post-image: logically identical
//! to the original in-place update, though the physical CSI layout (which
//! rowgroup holds a row) may differ from the pre-crash instance.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hpd_common::{faults, HpdError, Result};
use hpd_storage::IoTracker;
use hpd_wal::{
    CheckpointImage, FrameReader, LogRecord, Wal, WalDurable, WalIndexDef, WalIndexKind,
    WalPartitioning,
};
use parking_lot::RwLock;

use crate::catalog::{Database, DbConfig, TableSlot};
use crate::design::IndexDescriptor;
use crate::partition::{PartitionMethod, PartitionSpec};
use crate::table::Table;

/// Engine descriptor → WAL wire form.
pub(crate) fn to_wal_def(d: &IndexDescriptor) -> WalIndexDef {
    match d {
        IndexDescriptor::PrimaryBTree { keys } => WalIndexDef {
            kind: WalIndexKind::PrimaryBTree,
            cols_a: keys.clone(),
            cols_b: vec![],
        },
        IndexDescriptor::SecondaryBTree { keys, includes } => WalIndexDef {
            kind: WalIndexKind::SecondaryBTree,
            cols_a: keys.clone(),
            cols_b: includes.clone(),
        },
        IndexDescriptor::PrimaryCsi => WalIndexDef {
            kind: WalIndexKind::PrimaryCsi,
            cols_a: vec![],
            cols_b: vec![],
        },
        IndexDescriptor::SecondaryCsi { columns } => WalIndexDef {
            kind: WalIndexKind::SecondaryCsi,
            cols_a: columns.clone(),
            cols_b: vec![],
        },
    }
}

/// WAL wire form → engine descriptor.
pub(crate) fn from_wal_def(d: &WalIndexDef) -> IndexDescriptor {
    match d.kind {
        WalIndexKind::PrimaryBTree => IndexDescriptor::PrimaryBTree {
            keys: d.cols_a.clone(),
        },
        WalIndexKind::SecondaryBTree => IndexDescriptor::SecondaryBTree {
            keys: d.cols_a.clone(),
            includes: d.cols_b.clone(),
        },
        WalIndexKind::PrimaryCsi => IndexDescriptor::PrimaryCsi,
        WalIndexKind::SecondaryCsi => IndexDescriptor::SecondaryCsi {
            columns: d.cols_a.clone(),
        },
    }
}

/// Engine partitioning spec → WAL wire form.
pub(crate) fn to_wal_partitioning(s: &PartitionSpec) -> WalPartitioning {
    match &s.method {
        PartitionMethod::Range { bounds } => WalPartitioning::Range {
            column: s.column as u32,
            bounds: bounds.clone(),
        },
        PartitionMethod::Hash { partitions } => WalPartitioning::Hash {
            column: s.column as u32,
            partitions: *partitions as u32,
        },
    }
}

/// WAL wire form → engine partitioning spec (re-validated on the way in, so
/// a corrupt-but-CRC-clean record cannot smuggle an invalid spec).
pub(crate) fn from_wal_partitioning(p: &WalPartitioning) -> Result<PartitionSpec> {
    match p {
        WalPartitioning::Range { column, bounds } => {
            PartitionSpec::range(*column as usize, bounds.clone())
        }
        WalPartitioning::Hash { column, partitions } => {
            PartitionSpec::hash(*column as usize, *partitions as usize)
        }
    }
}

fn slot_at(db: &Database, id: u32) -> Result<Arc<TableSlot>> {
    db.tables
        .read()
        .get(id as usize)
        .cloned()
        .ok_or_else(|| HpdError::Internal(format!("wal: redo references unknown table {id}")))
}

impl Database {
    /// Rebuild a database from crash-surviving WAL state (see
    /// [`Database::wal_durable`]). The recovered instance owns a log that
    /// continues where the durable bytes end, so it can crash and recover
    /// again.
    pub fn recover(config: DbConfig, durable: WalDurable) -> Result<Database> {
        let reg = hpd_obs::global();
        reg.counter("wal.recovery.count").inc();
        let mut db = Database::new(config);
        let mut recover_span = hpd_obs::trace::root_span("recovery");
        db.wal = Wal::from_durable(db.config.wal.clone(), db.config.device, durable.clone());
        let tracker = IoTracker::new();

        // Step 1: checkpoint restore.
        let mut restore_span =
            hpd_obs::trace::child_span("recovery.checkpoint_restore", recover_span.id());
        if let Some(image) = durable.checkpoint.as_deref() {
            let image = CheckpointImage::decode(image)?;
            let mut tables = db.tables.write();
            for snap in image.tables {
                let spec = snap
                    .partitioning
                    .as_ref()
                    .map(from_wal_partitioning)
                    .transpose()?;
                let mut table = Table::create_spec(
                    snap.name.clone(),
                    snap.schema,
                    snap.pk,
                    &from_wal_def(&snap.primary),
                    spec,
                    db.config.csi,
                    db.alloc.clone(),
                )?;
                // Bulk load re-routes the concatenated rows per partition.
                table.bulk_load(snap.rows, &db.pool, &tracker)?;
                if snap.parts.is_empty() {
                    for def in &snap.secondaries {
                        table.build_index(&from_wal_def(def), &db.pool, &tracker)?;
                    }
                } else {
                    // Partitioned snapshot: each partition is rebuilt under
                    // its own captured (possibly heterogeneous) design.
                    for (p, ps) in snap.parts.iter().enumerate() {
                        let secondaries: Vec<IndexDescriptor> =
                            ps.secondaries.iter().map(from_wal_def).collect();
                        table.apply_partition_design(
                            p,
                            &from_wal_def(&ps.primary),
                            &secondaries,
                            &db.pool,
                            &tracker,
                        )?;
                    }
                }
                tables.push(Arc::new(TableSlot {
                    name: snap.name,
                    table: RwLock::new(table),
                    applied_lsn: AtomicU64::new(snap.applied_lsn),
                }));
            }
            drop(tables);
            db.txns.advance_to(image.next_ts);
        }
        if restore_span.is_recording() {
            restore_span.attr("tables", db.tables.read().len());
        }
        drop(restore_span);

        // Step 2: redo the log from the checkpoint boundary.
        let mut redo_span = hpd_obs::trace::child_span("recovery.redo", recover_span.id());
        let mut replayed = 0u64;
        let mut txns_replayed = 0u64;
        // Write records of the transaction currently being scanned; applied
        // at its commit record, discarded at its abort (or never).
        let mut current: Option<Vec<(u64, LogRecord)>> = None;
        let mut reader = FrameReader::new(&durable.log, durable.base_lsn);
        for (lsn, payload) in reader.by_ref() {
            let rec = match LogRecord::decode(payload) {
                Ok(rec) => rec,
                // An undecodable-but-CRC-clean record means a version skew
                // or writer bug; treat like a torn tail and stop replaying.
                Err(_) => break,
            };
            match rec {
                LogRecord::TxnBegin { .. } => current = Some(Vec::new()),
                LogRecord::TxnAbort { .. } => current = None,
                LogRecord::TxnCommit { commit_ts, .. } => {
                    if let Some(ops) = current.take() {
                        let mut touched: Vec<u32> = Vec::new();
                        for (op_lsn, op) in ops {
                            if redo_write(&db, op_lsn, &op, commit_ts, &tracker)? {
                                replayed += 1;
                                if let Some(t) = op.table() {
                                    touched.push(t);
                                }
                            }
                        }
                        touched.sort_unstable();
                        touched.dedup();
                        for id in touched {
                            slot_at(&db, id)?
                                .applied_lsn
                                .fetch_max(lsn, Ordering::Relaxed);
                        }
                        txns_replayed += 1;
                    }
                    db.txns.advance_to(commit_ts + 1);
                }
                LogRecord::Insert { .. } | LogRecord::Delete { .. } | LogRecord::Update { .. } => {
                    if let Some(ops) = current.as_mut() {
                        ops.push((lsn, rec));
                    }
                }
                LogRecord::CheckpointBegin | LogRecord::CheckpointEnd => {}
                ddl => {
                    if redo_ddl(&db, lsn, ddl, &tracker)? {
                        replayed += 1;
                    }
                }
            }
        }

        if redo_span.is_recording() {
            redo_span.attr("records_replayed", replayed);
            redo_span.attr("txns_replayed", txns_replayed);
        }
        drop(redo_span);
        if recover_span.is_recording() {
            recover_span.attr("tail_lost_bytes", reader.tail_bytes());
        }

        reg.counter("wal.recovery.records_replayed").add(replayed);
        reg.counter("wal.recovery.txns_replayed").add(txns_replayed);
        reg.counter("wal.recovery.tail_lost_bytes")
            .add(reader.tail_bytes() as u64);
        Ok(db)
    }
}

/// Apply one committed write record; returns false when the redo skip rule
/// (or the deliberate-bug knob) suppressed it.
fn redo_write(
    db: &Database,
    lsn: u64,
    rec: &LogRecord,
    commit_ts: u64,
    tracker: &IoTracker,
) -> Result<bool> {
    let table_id = rec
        .table()
        .ok_or_else(|| HpdError::Internal("wal: write record without table".into()))?;
    let slot = slot_at(db, table_id)?;
    if lsn <= slot.applied_lsn.load(Ordering::Relaxed) {
        return Ok(false); // already reflected in the checkpoint snapshot
    }
    let mut t = slot.table.write();
    match rec {
        LogRecord::Insert { row, .. } => {
            if t.has_csi() && faults::fire(faults::sites::WAL_SKIP_DELTA_REDO) {
                // Deliberate-bug knob: "forget" to redo inserts into
                // columnstore delta stores. Exists to prove the crash-point
                // harness catches and shrinks a recovery bug.
                return Ok(false);
            }
            let key = row.key(t.pk());
            t.insert_row(row.clone(), &db.pool, tracker)?;
            t.record_version(key, None, commit_ts);
        }
        LogRecord::Delete { key, .. } => {
            let old = t.fetch_by_pk(key, &db.pool, tracker);
            if t.delete_by_pk(key, &db.pool, tracker)? {
                t.record_version(key.clone(), old, commit_ts);
            }
        }
        LogRecord::Update { key, new_row, .. } => {
            // Replay as delete + insert of the logged post-image (primary
            // keys are immutable, so the key is unchanged).
            let old = t.fetch_by_pk(key, &db.pool, tracker);
            if old.is_some() {
                t.delete_by_pk(key, &db.pool, tracker)?;
            }
            t.insert_row(new_row.clone(), &db.pool, tracker)?;
            t.record_version(key.clone(), old, commit_ts);
        }
        other => {
            return Err(HpdError::Internal(format!(
                "wal: unexpected record inside transaction: {other:?}"
            )))
        }
    }
    Ok(true)
}

/// Apply one DDL / maintenance record; returns false when skipped.
fn redo_ddl(db: &Database, lsn: u64, rec: LogRecord, tracker: &IoTracker) -> Result<bool> {
    match rec {
        LogRecord::TableCreate {
            table,
            name,
            schema,
            pk,
            primary,
            partitioning,
        } => {
            let mut tables = db.tables.write();
            if (table as usize) < tables.len() {
                return Ok(false); // already present (from the checkpoint)
            }
            let spec = partitioning
                .as_ref()
                .map(from_wal_partitioning)
                .transpose()?;
            let t = Table::create_spec(
                name.clone(),
                schema,
                pk,
                &from_wal_def(&primary),
                spec,
                db.config.csi,
                db.alloc.clone(),
            )?;
            tables.push(Arc::new(TableSlot {
                name,
                table: RwLock::new(t),
                applied_lsn: AtomicU64::new(lsn),
            }));
            Ok(true)
        }
        LogRecord::BulkLoad { table, rows } => {
            let slot = slot_at(db, table)?;
            if lsn <= slot.applied_lsn.load(Ordering::Relaxed) {
                return Ok(false);
            }
            slot.table.write().bulk_load(rows, &db.pool, tracker)?;
            slot.applied_lsn.store(lsn, Ordering::Relaxed);
            Ok(true)
        }
        LogRecord::IndexCreate { table, def } => {
            let slot = slot_at(db, table)?;
            if lsn <= slot.applied_lsn.load(Ordering::Relaxed) {
                return Ok(false);
            }
            slot.table
                .write()
                .build_index(&from_wal_def(&def), &db.pool, tracker)?;
            slot.applied_lsn.store(lsn, Ordering::Relaxed);
            Ok(true)
        }
        LogRecord::DesignChange {
            table,
            primary,
            secondaries,
        } => {
            let slot = slot_at(db, table)?;
            if lsn <= slot.applied_lsn.load(Ordering::Relaxed) {
                return Ok(false);
            }
            let mut guard = slot.table.write();
            let rows = guard.scan_all_rows(&db.pool, tracker);
            // Same invariant as the live path: a design change keeps the
            // table's partitioning.
            let mut fresh = Table::create_spec(
                slot.name.clone(),
                guard.schema().clone(),
                guard.pk().to_vec(),
                &from_wal_def(&primary),
                guard.partitioning().cloned(),
                db.config.csi,
                db.alloc.clone(),
            )?;
            fresh.bulk_load(rows, &db.pool, tracker)?;
            for def in &secondaries {
                fresh.build_index(&from_wal_def(def), &db.pool, tracker)?;
            }
            *guard = fresh;
            drop(guard);
            slot.applied_lsn.store(lsn, Ordering::Relaxed);
            Ok(true)
        }
        LogRecord::MaintenanceStep {
            table,
            part,
            budget_rows,
            ..
        } => {
            let slot = slot_at(db, table)?;
            if lsn <= slot.applied_lsn.load(Ordering::Relaxed) {
                return Ok(false);
            }
            // Logical redo: re-run an increment with the same budget (and
            // the same target partition). The physical outcome (which
            // rowgroup holds which row) may differ from the pre-crash
            // instance; the visible contents cannot.
            let mut guard = slot.table.write();
            let part = Some(part as usize).filter(|&p| p < guard.num_parts());
            guard.maintenance_step(part, budget_rows as usize, &db.pool, tracker);
            drop(guard);
            slot.applied_lsn.store(lsn, Ordering::Relaxed);
            Ok(true)
        }
        LogRecord::PartitionDesignChange {
            table,
            part,
            primary,
            secondaries,
        } => {
            let slot = slot_at(db, table)?;
            if lsn <= slot.applied_lsn.load(Ordering::Relaxed) {
                return Ok(false);
            }
            let secondaries: Vec<IndexDescriptor> = secondaries.iter().map(from_wal_def).collect();
            slot.table.write().apply_partition_design(
                part as usize,
                &from_wal_def(&primary),
                &secondaries,
                &db.pool,
                tracker,
            )?;
            slot.applied_lsn.store(lsn, Ordering::Relaxed);
            Ok(true)
        }
        other => Err(HpdError::Internal(format!(
            "wal: unexpected top-level record: {other:?}"
        ))),
    }
}
