//! The tuple mover and merge-compaction: one budgeted state machine.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use hpd_common::{faults, push_encoded_row, ColumnVector, DataType, Key, Value};
use hpd_storage::{BufferPool, IoTracker};

use super::{ColumnStoreIndex, RowGroupHeat};

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

impl ColumnStoreIndex {
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
    ///    rows: a row migrating out of the delta must never collide with a
    ///    stale buffered delete of its key (the UPDATE regression of the
    ///    tuple mover), and phase ordering guarantees that without per-key
    ///    probes. An insert that fills the delta runs these two phases
    ///    unbudgeted for deletes and over its full chunks.
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

    /// Compress up to `max_rows` delta rows into row groups, one chunk a
    /// tuple-mover pass. Capacity-sized chunks while the budget allows, then
    /// one bounded partial chunk so a budget below `rowgroup_capacity` still
    /// makes progress (small row groups are the accepted cost of incremental
    /// progress, as under the `TUPLE_MOVE_FORCE` fault). A chunk is the
    /// delta's smallest keys, drained off the front of its tree
    /// ([`hpd_btree::BTree::drain_front`]) straight into the row group's
    /// column vectors, its emptied leaves freed; a drain cut short (the
    /// `DELTA_DRAIN_PARTIAL` fault) leaves the rest of the budget to the
    /// next chunk.
    ///
    /// Caller must have emptied the delete buffer first (see the
    /// `maintenance_step` phase ordering).
    pub(super) fn compress_delta_budget(
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
            let counter = |name| hpd_obs::global().counter(name).inc();
            counter("columnstore.maintenance.tuple_move");
            counter("columnstore.delta.drain");
            let mut want = budget.min(self.config.rowgroup_capacity);
            // Injected interruption: a short chunk, as if the mover were
            // preempted mid-drain.
            if faults::fire(faults::sites::DELTA_DRAIN_PARTIAL) {
                want = (want / 2).max(1);
            }
            let mut columns = self.empty_columns(want.min(self.delta.len()));
            let drained = self.delta.drain_front(want, pool, tracker, |e| {
                push_encoded_row(&mut columns, e.payload).expect("delta rows match csi schema")
            });
            budget -= drained.min(budget);
            moved += drained;
            self.push_rowgroup(columns, pool, tracker);
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
            let columns = self.live_columns(&merge, pool, tracker);
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

    /// The live rows of the row groups `merge` rewrites, in position order,
    /// as one row group's column vectors: a cached decode when there is one,
    /// a gather of the live positions otherwise (the groups are about to go,
    /// so nothing is cached for them).
    fn live_columns(
        &self,
        merge: &RowgroupMerge,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Vec<ColumnVector> {
        let mut columns = self.empty_columns(merge.live_rows);
        for rg in &self.row_groups[merge.rowgroups.clone()] {
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

    /// Resolve up to `max_keys` buffered logical deletes into delete-bitmap
    /// bits; the remaining keys stay buffered (and keep anti-joining scans),
    /// so a partial slice is always consistent. Keys resolve smallest first,
    /// drained off the front of the buffer's tree
    /// ([`hpd_btree::BTree::drain_front`]), making slices deterministic and
    /// resumable.
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
        // In key order, as the buffer holds them, so in first-value order.
        let mut pending: Vec<Key> = Vec::with_capacity(max_keys.min(buffer.len()));
        buffer.drain_front(max_keys, pool, tracker, |e| pending.push(e.to_key()));
        pending.dedup();
        let compacted = pending.len();

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
}
