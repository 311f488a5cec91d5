//! Crash recovery: rebuild committed state from the durable WAL prefix.
//!
//! Redo-only, in two steps:
//!
//! 1. **Checkpoint restore** — if a checkpoint image survives, every table
//!    is rebuilt from its snapshot (schema, physical design, rows): created
//!    empty, each part given its own captured design, then bulk loaded, so
//!    every index of every part is built once. Its `applied_lsn` high-water
//!    mark is restored; the timestamp allocator resumes above the image's
//!    `next_ts`.
//! 2. **Log replay** — the surviving log is scanned from the checkpoint's
//!    begin LSN. Write records are buffered per transaction and applied only
//!    when their `TxnCommit` record is found (uncommitted and aborted
//!    transactions are discarded wholesale — there is no undo because
//!    nothing uncommitted ever reaches a table before its commit record is
//!    logged). A table-scoped record is applied only when its LSN is above
//!    the table's `applied_lsn`, which is what makes fuzzy checkpoints safe.
//!
//! There is one interpreter of the record vocabulary (`crate::apply`): the
//! live engine applies a change through it right where it logs the change,
//! and both steps here call the same two functions. Replaying a log from its
//! first record therefore rebuilds every index the table had — B+ trees,
//! rowgroups, delta stores, delete buffers — *physically* as the live
//! instance left them (an update stays in place and touches only the
//! secondaries whose stored columns changed). A checkpoint restore is a bulk
//! rebuild from rows and is logically exact only: it compacts what the live
//! tables had spread over delta stores, delete buffers and small rowgroups.

use std::sync::atomic::Ordering;

use hpd_common::{faults, HpdError, Result};
use hpd_storage::IoTracker;
use hpd_wal::{CheckpointImage, FrameReader, LogRecord, Wal, WalDurable};

use crate::apply::{apply_write, RowChange};
use crate::catalog::{Database, DbConfig};
use crate::table::{PostImage, Table};

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
            for hpd_wal::TableSnapshot { entry, rows } in image.tables {
                let mut table = Table::create_spec(
                    entry.name.clone(),
                    entry.schema,
                    entry.pk,
                    &entry.indexes[0],
                    entry.partitioning,
                    db.config.csi,
                    db.alloc.clone(),
                )?;
                // Each part takes its own captured (possibly heterogeneous)
                // design while it is still empty; the load then re-routes
                // the image's concatenated rows and builds every index of
                // every part, once.
                let designs = if entry.parts.is_empty() {
                    vec![entry.indexes]
                } else {
                    entry.parts
                };
                table.set_design(0, &designs, &db.pool, &tracker)?;
                table.bulk_load(&rows, &db.pool, &tracker)?;
                db.push_table(entry.name, table)
                    .applied_lsn
                    .store(entry.applied_lsn, Ordering::Relaxed);
            }
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
                            db.slot_at(id)?
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
    let change = match rec {
        LogRecord::Insert { row, .. } => RowChange::Insert(row),
        LogRecord::Delete { key, .. } => RowChange::Delete(key),
        LogRecord::Update { key, new_row, .. } => {
            RowChange::Update(key, PostImage::Logged(new_row))
        }
        other => {
            return Err(HpdError::Internal(format!(
                "wal: unexpected record inside transaction: {other:?}"
            )))
        }
    };
    let slot = db.slot_at(rec.table().expect("row records name their table"))?;
    if lsn <= slot.applied_lsn.load(Ordering::Relaxed) {
        return Ok(false); // already reflected in the checkpoint snapshot
    }
    let mut t = slot.table.write();
    if matches!(change, RowChange::Insert(_))
        && t.has_csi()
        && faults::fire(faults::sites::WAL_SKIP_DELTA_REDO)
    {
        // Deliberate-bug knob: "forget" to redo inserts into columnstore
        // delta stores. Exists to prove the crash-point harness catches and
        // shrinks a recovery bug.
        return Ok(false);
    }
    apply_write(&mut t, change, commit_ts, &db.pool, tracker)?;
    Ok(true)
}

/// Apply one DDL / maintenance record; returns false when skipped: a table
/// the checkpoint already restored, or a record at or below its table's
/// `applied_lsn`.
fn redo_ddl(db: &Database, lsn: u64, rec: LogRecord, tracker: &IoTracker) -> Result<bool> {
    let id = rec
        .table()
        .ok_or_else(|| HpdError::Internal(format!("wal: unexpected top-level record: {rec:?}")))?;
    let skip = match &rec {
        LogRecord::TableCreate { .. } => (id as usize) < db.tables.read().len(),
        _ => lsn <= db.slot_at(id)?.applied_lsn.load(Ordering::Relaxed),
    };
    if skip {
        return Ok(false);
    }
    db.apply_ddl(&rec, tracker)?
        .applied_lsn
        .store(lsn, Ordering::Relaxed);
    Ok(true)
}
