//! The one write path: every logged change is applied by the two functions
//! in this module, by the live engine right where it logs the change and by
//! recovery when it reads the log back. What a write leaves in each index
//! therefore has one answer, and replaying a log reproduces the live
//! instance's physical state, not just its rows.
//!
//! * [`apply_write`] — a committed row change (`Insert` / `Delete` /
//!   `Update`) onto a table, version store included.
//! * [`Database::apply_ddl`] — a DDL, design-change or maintenance record
//!   onto the catalog.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use hpd_common::{HpdError, Key, Result, Row};
use hpd_storage::{BufferPool, IoTracker};
use hpd_wal::LogRecord;
use parking_lot::RwLock;

use crate::catalog::{Database, TableSlot};
use crate::table::{PostImage, Table};

/// One committed row change: what a transaction buffers as a `WriteOp` and
/// what the log carries as an `Insert` / `Delete` / `Update` record. The two
/// differ only in where an update's post-image comes from ([`PostImage`]).
pub(crate) enum RowChange<'a> {
    Insert(&'a Row),
    Delete(&'a Key),
    Update(&'a Key, PostImage<'a>),
}

/// What [`apply_write`] did, as far as the change's log record needs it.
pub(crate) struct Applied {
    /// Partition of the image the record routes by: an insert's row, a
    /// delete's pre-image, an update's post-image; 0 when the row was
    /// absent.
    pub part: usize,
    /// An update's post-image (`None` for other changes and absent rows).
    pub post_image: Option<Row>,
}

/// Apply one row change to `t` at commit timestamp `commit_ts`. A delete or
/// update of an absent key is a no-op.
pub(crate) fn apply_write(
    t: &mut Table,
    change: RowChange<'_>,
    commit_ts: u64,
    pool: &BufferPool,
    tracker: &IoTracker,
) -> Result<Applied> {
    let mut applied = Applied {
        part: 0,
        post_image: None,
    };
    match change {
        RowChange::Insert(row) => {
            applied.part = t.insert_row(row.clone(), pool, tracker)?;
            t.record_version(row.key(t.pk()), None, commit_ts);
        }
        RowChange::Delete(key) => {
            if let Some(old) = t.delete_by_pk(key, pool, tracker) {
                applied.part = t.route_row(&old);
                t.record_version(key.clone(), Some(old), commit_ts);
            }
        }
        RowChange::Update(key, post) => {
            if let Some((old, new)) = t.update_by_pk(key, post, pool, tracker)? {
                applied.part = t.route_row(&new);
                applied.post_image = Some(new);
                t.record_version(key.clone(), Some(old), commit_ts);
            }
        }
    }
    Ok(applied)
}

impl Database {
    /// Apply one DDL / design / maintenance record and return the slot it
    /// targeted; the caller (holding `commit_lock`) stores the record's LSN
    /// there. The record is only read: a bulk load's rows are built from
    /// where they are, and the live caller still has them to log.
    pub(crate) fn apply_ddl(&self, rec: &LogRecord, tracker: &IoTracker) -> Result<Arc<TableSlot>> {
        if let LogRecord::TableCreate {
            name,
            schema,
            pk,
            primary,
            partitioning,
            ..
        } = rec
        {
            let table = Table::create_spec(
                name.clone(),
                schema.clone(),
                pk.clone(),
                primary,
                partitioning.clone(),
                self.config.csi,
                self.alloc.clone(),
            )?;
            return Ok(self.push_table(name.clone(), table));
        }
        let not_ddl = || HpdError::Internal(format!("wal: not a DDL record: {rec:?}"));
        let slot = self.slot_at(rec.table().ok_or_else(not_ddl)?)?;
        let mut t = slot.table.write();
        match rec {
            LogRecord::BulkLoad { rows, .. } => t.bulk_load(rows, &self.pool, tracker)?,
            // Every part keeps what it has and gains the index.
            LogRecord::IndexCreate { def, .. } => {
                let mut targets = t.designs();
                for design in &mut targets {
                    design.push(def.clone());
                }
                t.set_design(0, &targets, &self.pool, tracker)?;
            }
            // Every part keeps what it has but the index; a part without it
            // refuses the drop before any part is touched.
            LogRecord::IndexDrop { def, .. } => {
                let def = def.as_stored(t.schema().len(), t.pk());
                let mut targets = t.designs();
                for (p, design) in targets.iter_mut().enumerate() {
                    let at = design[1..].iter().position(|d| *d == def).ok_or_else(|| {
                        HpdError::Constraint(format!(
                            "table {}: partition {p} has no secondary index {def:?}",
                            t.name
                        ))
                    })?;
                    design.remove(at + 1);
                }
                t.set_design(0, &targets, &self.pool, tracker)?;
            }
            LogRecord::DesignChange { indexes, .. } => {
                // Statistics are as old as the last load; a design change
                // brings them up to date, from the rows in the order the
                // outgoing primary indexes hold them.
                t.analyze(&self.pool, tracker);
                let targets = vec![indexes.clone(); t.num_parts()];
                t.set_design(0, &targets, &self.pool, tracker)?;
            }
            LogRecord::PartitionDesignChange { part, indexes, .. } => {
                let targets = std::slice::from_ref(indexes);
                t.set_design(*part as usize, targets, &self.pool, tracker)?;
            }
            // Re-run the increment with the same budget and target
            // (`u32::MAX`: every part). The live increment applies itself
            // and logs its outcome; this arm is its redo.
            LogRecord::MaintenanceStep {
                part, budget_rows, ..
            } => {
                let part = Some(*part as usize).filter(|&p| p < t.num_parts());
                t.maintenance_step(part, *budget_rows as usize, &self.pool, tracker);
            }
            _ => return Err(not_ddl()),
        }
        drop(t);
        Ok(slot)
    }

    /// The slot a record's table id names.
    pub(crate) fn slot_at(&self, id: u32) -> Result<Arc<TableSlot>> {
        self.tables
            .read()
            .get(id as usize)
            .cloned()
            .ok_or_else(|| HpdError::Internal(format!("wal: record references unknown table {id}")))
    }

    /// Register a table under the next slot id.
    pub(crate) fn push_table(&self, name: String, table: Table) -> Arc<TableSlot> {
        let slot = Arc::new(TableSlot {
            name,
            table: RwLock::new(table),
            applied_lsn: AtomicU64::new(0),
        });
        self.tables.write().push(slot.clone());
        slot
    }
}
