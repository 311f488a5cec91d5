//! The write path: inserts into the delta store, and deletes from it, from
//! the delete buffer (a secondary) or from a row group's delete bitmap (a
//! primary).

use std::collections::HashMap;
use std::sync::atomic::Ordering;

use hpd_common::{faults, Interval, Key, Row};
use hpd_storage::{BufferPool, IoTracker};

use super::{ColumnStoreIndex, CsiKind};

impl ColumnStoreIndex {
    /// Insert a row (into the delta store). When the delta holds a row group
    /// or more, the tuple mover compresses its full chunks synchronously — a
    /// deterministic stand-in for SQL Server's background process — through
    /// the phases [`ColumnStoreIndex::maintenance_step`] runs: every buffered
    /// delete resolved, then the delta rows compressed.
    pub fn insert(&mut self, row: Row, pool: &BufferPool, tracker: &IoTracker) {
        debug_assert_eq!(row.len(), self.schema.len());
        let key = row.key(&self.key_ordinals);
        hpd_obs::global().counter("columnstore.delta.insert").inc();
        self.delta.insert(key, row, pool, tracker);
        self.delta_writes.fetch_add(1, Ordering::Relaxed);
        let cap = self.config.rowgroup_capacity.max(1);
        let rows = if faults::fire(faults::sites::TUPLE_MOVE_FORCE) {
            // Injected early trigger: compress whatever the delta holds,
            // capacity notwithstanding (an eager background mover).
            usize::MAX
        } else if self.delta.len() >= cap && !faults::fire(faults::sites::TUPLE_MOVE_DEFER) {
            self.delta.len() / cap * cap
        } else {
            return;
        };
        self.compact_deletes_budget(usize::MAX, pool, tracker);
        self.compress_delta_budget(rows, pool, tracker);
    }

    /// [`ColumnStoreIndex::delete_returning`] without the row: true if a row
    /// was deleted, which a secondary's buffered delete always counts as.
    pub fn delete(&mut self, key: &Key, pool: &BufferPool, tracker: &IoTracker) -> bool {
        self.delete_returning(key, pool, tracker).is_some() || self.kind == CsiKind::Secondary
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
            self.compact_deletes_budget(usize::MAX, pool, tracker);
        }
    }

    /// Delete the row with this (unique) key, returning the deleted row's
    /// full contents where the index has them. Rows still in the delta store
    /// are deleted there in both kinds.
    ///
    /// * Secondary CSI: append to the delete buffer — fast, O(B+ tree
    ///   insert); scans pay the anti-join until compaction. The caller
    ///   already has the row from the primary index, so `None` comes back.
    /// * Primary CSI: locate the physical row by scanning key segments
    ///   (segment elimination applies), read it through point decodes and
    ///   set the delete bitmap bit — slow deletes, fast scans. `None` when
    ///   no live row has the key.
    pub fn delete_returning(
        &mut self,
        key: &Key,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Option<Row> {
        if let Some(row) = (self.delta).delete_first_where(key, |_| true, pool, tracker) {
            return Some(row);
        }
        if self.kind == CsiKind::Secondary {
            self.buffer_delete(key, pool, tracker);
            return None;
        }
        let (rg_idx, row_pos) = self.locate_physical(key, pool, tracker)?;
        // Read the single victim row via point decodes — never a
        // full-segment decode per column.
        let rg = &self.row_groups[rg_idx];
        let row = Row::new(
            (0..rg.num_columns())
                .map(|c| {
                    if !self.key_ordinals.contains(&c) {
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
}
