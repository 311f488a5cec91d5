//! Tuple-mover boundary tests (ISSUE 3 satellite): exact-capacity delta
//! fills, compaction of fully-deleted row groups, scans interleaved with
//! mover activity driven through the fault-injection points, and the
//! merge-compaction phase that defragments the under-filled row groups the
//! budgeted mover leaves behind.

use std::collections::HashMap;

use hpd_columnstore::{ColumnStoreIndex, CsiConfig, CsiKind};
use hpd_common::{faults, DataType, Key, Row, Schema, Value};
use hpd_storage::{BufferPool, DeviceProfile, IoTracker, StorageAllocator};

const CAP: usize = 64;

fn schema2() -> Schema {
    Schema::from_pairs(&[("id", DataType::Int32), ("val", DataType::Int32)])
}

fn row(i: i32) -> Row {
    Row::new(vec![Value::Int32(i), Value::Int32(i * 3 % 50)])
}

fn setup(kind: CsiKind, n: i32) -> (ColumnStoreIndex, BufferPool, IoTracker) {
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let t = IoTracker::new();
    let idx = ColumnStoreIndex::build(
        schema2(),
        kind,
        vec![0],
        CsiConfig {
            rowgroup_capacity: CAP,
            // Keep deletes buffered unless a test compacts explicitly.
            delete_buffer_compact_threshold: 1_000_000,
            ..CsiConfig::default()
        },
        &(0..n).map(row).collect::<Vec<_>>(),
        StorageAllocator::new(),
        &pool,
        &t,
    );
    (idx, pool, t)
}

fn visible_ids(idx: &ColumnStoreIndex, pool: &BufferPool) -> Vec<i32> {
    let t = IoTracker::new();
    let mut ids: Vec<i32> = idx
        .scan_collect(&[0], &HashMap::new(), pool, &t)
        .iter()
        .flat_map(|b| {
            (0..b.num_rows())
                .map(|i| b.column(0).value(i).as_i32().unwrap())
                .collect::<Vec<_>>()
        })
        .collect();
    ids.sort_unstable();
    ids
}

/// The mover must fire exactly at capacity: `CAP - 1` inserts stay in the
/// delta store, the `CAP`-th drains all of them into one new row group,
/// and the very next insert starts a fresh delta generation.
#[test]
fn delta_fill_to_exact_capacity_triggers_one_move() {
    let (mut idx, pool, t) = setup(CsiKind::Primary, 0);
    assert_eq!(idx.num_rowgroups(), 0);

    for i in 0..(CAP as i32 - 1) {
        idx.insert(row(i), &pool, &t);
    }
    assert_eq!(idx.num_rowgroups(), 0, "below capacity: no move yet");
    assert_eq!(idx.delta_rows(), CAP - 1);

    idx.insert(row(CAP as i32 - 1), &pool, &t);
    assert_eq!(idx.num_rowgroups(), 1, "capacity reached: exactly one move");
    assert_eq!(idx.delta_rows(), 0, "the move drains the full delta");

    idx.insert(row(CAP as i32), &pool, &t);
    assert_eq!(idx.num_rowgroups(), 1);
    assert_eq!(idx.delta_rows(), 1, "next insert opens a new delta");
    assert_eq!(
        visible_ids(&idx, &pool),
        (0..=CAP as i32).collect::<Vec<_>>()
    );
}

/// Deleting 100% of a primary CSI's rows must leave scans empty without
/// disturbing the row-group structure (bitmap-only deletes), and rows
/// inserted afterwards must come back alone.
#[test]
fn fully_deleted_primary_rowgroups_scan_empty() {
    let n = 2 * CAP as i32;
    let (mut idx, pool, t) = setup(CsiKind::Primary, n);
    assert_eq!(idx.num_rowgroups(), 2);

    for i in 0..n {
        assert!(idx.delete(&Key::single(Value::Int32(i)), &pool, &t));
    }
    assert_eq!(idx.active_rows(), 0);
    assert_eq!(idx.num_rowgroups(), 2, "deletes are logical, groups remain");
    assert!(visible_ids(&idx, &pool).is_empty());

    idx.insert(row(n), &pool, &t);
    assert_eq!(visible_ids(&idx, &pool), vec![n]);
}

/// Compacting a delete buffer that covers 100% of a secondary CSI's rows:
/// every buffered key resolves to a bitmap bit, the buffer empties, and
/// scans agree before and after compaction (anti-join vs. bitmap paths).
#[test]
fn fully_deleted_secondary_compaction_resolves_all_keys() {
    let n = 2 * CAP as i32;
    let (mut idx, pool, t) = setup(CsiKind::Secondary, n);

    for i in 0..n {
        idx.delete(&Key::single(Value::Int32(i)), &pool, &t);
    }
    assert_eq!(idx.delete_buffer_len(), n as usize);
    assert!(
        visible_ids(&idx, &pool).is_empty(),
        "anti-join must hide every buffered delete"
    );

    idx.compact_deletes_budget(usize::MAX, &pool, &t);
    assert_eq!(idx.delete_buffer_len(), 0);
    assert_eq!(idx.active_rows(), 0);
    assert!(visible_ids(&idx, &pool).is_empty());
}

/// A deferred mover (TUPLE_MOVE_DEFER) lets the delta grow past capacity;
/// scans taken mid-backlog must still see every row, and the next
/// unhindered insert drains the whole backlog in capacity-sized chunks.
#[test]
fn scan_sees_all_rows_while_mover_deferred() {
    let (mut idx, pool, t) = setup(CsiKind::Primary, 0);

    faults::arm(faults::sites::TUPLE_MOVE_DEFER, u32::MAX);
    let backlog = 3 * CAP as i32 + 7;
    for i in 0..backlog {
        idx.insert(row(i), &pool, &t);
    }
    assert_eq!(idx.num_rowgroups(), 0, "mover deferred: nothing compressed");
    assert_eq!(idx.delta_rows(), backlog as usize);
    // Scan during the (simulated) mover outage: delta-only reads.
    assert_eq!(visible_ids(&idx, &pool), (0..backlog).collect::<Vec<_>>());
    faults::reset_charges();

    idx.insert(row(backlog), &pool, &t);
    assert_eq!(idx.num_rowgroups(), 3, "backlog drained in capacity chunks");
    assert!(idx.delta_rows() < CAP);
    assert_eq!(visible_ids(&idx, &pool), (0..=backlog).collect::<Vec<_>>());
}

/// An eager mover (TUPLE_MOVE_FORCE) compresses undersized row groups on
/// every insert; interleaved scans must agree with the logical contents at
/// each step. This is the scan-during-compaction schedule the harness
/// exercises, reduced to the columnstore layer.
#[test]
fn scan_agrees_across_forced_early_compactions() {
    let (mut idx, pool, t) = setup(CsiKind::Primary, 0);
    let mut expect = Vec::new();
    for i in 0..10i32 {
        // Every other insert is immediately force-compacted.
        if i % 2 == 0 {
            faults::arm(faults::sites::TUPLE_MOVE_FORCE, 1);
        }
        idx.insert(row(i), &pool, &t);
        faults::reset_charges();
        expect.push(i);
        assert_eq!(visible_ids(&idx, &pool), expect, "after insert {i}");
    }
    assert!(idx.num_rowgroups() >= 5, "forced moves made tiny rowgroups");
}

/// Regression (harness seed 55) at the columnstore layer: an UPDATE leaves
/// a buffered delete of the old version and a delta insert of the new one.
/// A forced move and a full pass must both compact the delete buffer
/// *before* draining the delta, or the stale buffered delete anti-joins
/// away the freshly compressed new version and the row vanishes.
#[test]
fn moves_compact_stale_buffered_deletes_first() {
    let n = CAP as i32;
    for forced in [true, false] {
        let (mut idx, pool, t) = setup(CsiKind::Secondary, n);
        assert_eq!(idx.num_rowgroups(), 1);

        // UPDATE id=5: buffered delete of the compressed version, delta
        // insert of the new version (same key).
        idx.delete(&Key::single(Value::Int32(5)), &pool, &t);
        if forced {
            faults::arm(faults::sites::TUPLE_MOVE_FORCE, 1);
        }
        idx.insert(row(5), &pool, &t);
        faults::reset_charges();
        if !forced {
            assert_eq!(idx.delete_buffer_len(), 1);
            assert_eq!(idx.delta_rows(), 1);
            assert_eq!(visible_ids(&idx, &pool), (0..n).collect::<Vec<_>>());
            idx.maintenance_full(&pool, &t);
        }
        assert_eq!(idx.delta_rows(), 0);
        assert_eq!(idx.delete_buffer_len(), 0);
        assert_eq!(
            visible_ids(&idx, &pool),
            (0..n).collect::<Vec<_>>(),
            "the updated row must survive reorganization (forced: {forced})"
        );
    }
}

/// An insert that fills the delta runs the budgeted mover over its full
/// chunks, so a drain cut short (`DELTA_DRAIN_PARTIAL`) is followed by
/// another until the chunk's rows are all compressed: the delta is empty
/// after the capacity-th insert, in two half row groups, not left holding
/// the half the short drain missed.
#[test]
fn a_partial_drain_still_moves_the_full_chunk() {
    let (mut idx, pool, t) = setup(CsiKind::Primary, 0);
    for i in 0..(CAP as i32 - 1) {
        idx.insert(row(i), &pool, &t);
    }
    faults::arm(faults::sites::DELTA_DRAIN_PARTIAL, 1);
    idx.insert(row(CAP as i32 - 1), &pool, &t);
    faults::reset_charges();
    assert_eq!(idx.delta_rows(), 0, "the move spends its whole budget");
    assert_eq!(idx.num_rowgroups(), 2);
    assert_eq!(
        (0..2).map(|g| idx.rowgroup(g).rows()).collect::<Vec<_>>(),
        vec![CAP / 2, CAP / 2]
    );
    assert_eq!(
        visible_ids(&idx, &pool),
        (0..CAP as i32).collect::<Vec<_>>()
    );
}

/// Every chunk a move compresses is one `columnstore.maintenance.tuple_move`
/// pass, a forced move's last, partial one too. (The registry is
/// process-wide, so other tests can only add to the count.)
#[test]
fn a_forced_move_counts_its_partial_chunk() {
    let (mut idx, pool, t) = setup(CsiKind::Primary, 0);
    for i in 0..(CAP as i32 + 4) {
        idx.insert(row(i), &pool, &t);
    }
    assert_eq!(idx.delta_rows(), 4);
    let before = hpd_obs::global().snapshot();
    faults::arm(faults::sites::TUPLE_MOVE_FORCE, 1);
    idx.insert(row(CAP as i32 + 4), &pool, &t);
    faults::reset_charges();
    let d = hpd_obs::global().snapshot().delta(&before);
    assert_eq!(idx.delta_rows(), 0);
    assert_eq!(idx.num_rowgroups(), 2);
    assert!(d.counter("columnstore.maintenance.tuple_move") >= 1);
}

/// Budget slicing (ISSUE 9): a budgeted increment must stop at its row
/// budget and the next increment must resume exactly where it stopped —
/// scans between increments see every row exactly once, and the increments
/// sum to the full backlog with nothing lost or duplicated.
#[test]
fn budgeted_increments_resume_partial_drain_exactly() {
    let (mut idx, pool, t) = setup(CsiKind::Primary, 0);

    faults::arm(faults::sites::TUPLE_MOVE_DEFER, u32::MAX);
    let backlog = 2 * CAP as i32 + 9;
    for i in 0..backlog {
        idx.insert(row(i), &pool, &t);
    }
    faults::reset_charges();
    assert_eq!(idx.delta_rows(), backlog as usize);

    let budget = CAP / 4;
    let mut total_moved = 0;
    let mut increments = 0;
    loop {
        let before = idx.delta_rows();
        let step = idx.maintenance_step(budget, &pool, &t);
        assert!(step.rows_moved <= budget, "increment exceeded its budget");
        assert_eq!(
            idx.delta_rows(),
            before - step.rows_moved,
            "resume point drifted between increments"
        );
        total_moved += step.rows_moved;
        increments += 1;
        // Every intermediate state is fully scannable: no row lost to a
        // half-finished move, none duplicated across delta and row groups.
        assert_eq!(
            visible_ids(&idx, &pool),
            (0..backlog).collect::<Vec<_>>(),
            "after increment {increments}"
        );
        if step.done {
            break;
        }
        assert!(increments < 64, "budgeted drain failed to terminate");
    }
    assert_eq!(total_moved, backlog as usize);
    assert_eq!(idx.delta_rows(), 0);
    assert!(increments >= (backlog as usize).div_ceil(budget));
}

/// A row budget below the delete-buffer depth slices the buffer: each
/// increment resolves exactly `budget` keys (smallest first) into bitmap
/// bits, the rest keep anti-joining scans, and no delta row may compress
/// while any buffered delete remains.
#[test]
fn budgeted_step_slices_delete_buffer_and_preserves_antijoin() {
    let n = 2 * CAP as i32;
    let (mut idx, pool, t) = setup(CsiKind::Secondary, n);
    for k in 0..10 {
        assert!(idx.delete(&Key::single(Value::Int32(k)), &pool, &t));
    }
    // Stage a delta row too: it must NOT move while deletes are buffered.
    idx.insert(row(n), &pool, &t);
    assert_eq!(idx.delete_buffer_len(), 10);

    let expected: Vec<i32> = (10..=n).collect();
    let mut remaining = 10usize;
    let mut delta_moved = 0;
    while remaining > 0 {
        let step = idx.maintenance_step(3, &pool, &t);
        assert_eq!(step.deletes_compacted, remaining.min(3));
        remaining -= step.deletes_compacted;
        if remaining > 0 {
            // While any delete stays buffered, no delta row may compress:
            // a stale buffered delete would anti-join the moved row away.
            assert_eq!(
                step.rows_moved, 0,
                "delta rows compressed past a non-empty delete buffer"
            );
        } else {
            // The final slice drained the buffer; leftover budget may now
            // be spent on the delta row within the same increment.
            delta_moved += step.rows_moved;
        }
        assert_eq!(idx.delete_buffer_len(), remaining);
        assert_eq!(visible_ids(&idx, &pool), expected);
    }
    // Whatever budget remained, the delta row must end up compressed.
    if delta_moved == 0 {
        let step = idx.maintenance_step(CAP, &pool, &t);
        delta_moved += step.rows_moved;
        assert!(step.done);
    }
    assert_eq!(delta_moved, 1);
    assert_eq!(idx.delta_rows(), 0);
    assert_eq!(visible_ids(&idx, &pool), expected);
}

/// The PR 3 invariant under budgeted increments: an UPDATE's stale
/// buffered delete (old compressed version) plus delta insert (new
/// version) must be compacted-then-moved in that order even when each
/// increment has a one-row budget — the new version must never vanish.
#[test]
fn budgeted_increments_preserve_stale_buffered_delete_invariant() {
    let n = CAP as i32;
    let (mut idx, pool, t) = setup(CsiKind::Secondary, n);
    idx.delete(&Key::single(Value::Int32(5)), &pool, &t);
    idx.insert(row(5), &pool, &t);
    assert_eq!(idx.delete_buffer_len(), 1);
    assert_eq!(idx.delta_rows(), 1);

    // Budget 1: the whole increment is spent resolving the buffered
    // delete; the delta row must wait for the next increment.
    let step = idx.maintenance_step(1, &pool, &t);
    assert_eq!((step.deletes_compacted, step.rows_moved), (1, 0));
    assert_eq!(
        visible_ids(&idx, &pool),
        (0..n).collect::<Vec<_>>(),
        "updated row lost between increments"
    );

    let step = idx.maintenance_step(1, &pool, &t);
    assert_eq!((step.deletes_compacted, step.rows_moved), (0, 1));
    assert!(step.done);
    assert_eq!(
        visible_ids(&idx, &pool),
        (0..n).collect::<Vec<_>>(),
        "the updated row must survive budgeted reorganization"
    );
}

/// The MAINT_STEP_SHRINK fault halves an increment's budget; the shrunken
/// increment must stay consistent and later increments finish the job.
#[test]
fn shrunken_increment_stays_consistent_and_resumes() {
    let (mut idx, pool, t) = setup(CsiKind::Primary, 0);
    faults::arm(faults::sites::TUPLE_MOVE_DEFER, u32::MAX);
    for i in 0..CAP as i32 {
        idx.insert(row(i), &pool, &t);
    }
    faults::reset_charges();

    faults::arm(faults::sites::MAINT_STEP_SHRINK, 1);
    let step = idx.maintenance_step(CAP, &pool, &t);
    faults::reset_charges();
    assert_eq!(step.rows_moved, CAP / 2, "shrunk to half the budget");
    assert_eq!(
        visible_ids(&idx, &pool),
        (0..CAP as i32).collect::<Vec<_>>()
    );

    let step = idx.maintenance_step(CAP, &pool, &t);
    assert_eq!(step.rows_moved, CAP - CAP / 2);
    assert!(step.done);
    assert_eq!(
        visible_ids(&idx, &pool),
        (0..CAP as i32).collect::<Vec<_>>()
    );
}

/// Budgeted increments fragment the index into budget-sized row groups;
/// the next full pass's merge phase folds adjacent under-filled groups
/// back into capacity-sized ones without touching a single logical row.
#[test]
fn budgeted_fragmentation_is_merge_compacted_by_full_pass() {
    let (mut idx, pool, t) = setup(CsiKind::Primary, 0);
    faults::arm(faults::sites::TUPLE_MOVE_DEFER, u32::MAX);
    let n = 2 * CAP as i32;
    for i in 0..n {
        idx.insert(row(i), &pool, &t);
    }
    faults::reset_charges();

    // Drain at CAP/8 rows per increment: every chunk becomes its own tiny
    // row group (the accepted cost of incremental progress).
    while !idx.maintenance_step(CAP / 8, &pool, &t).done {}
    assert_eq!(idx.num_rowgroups(), 16, "budgeted drain fragments");

    let step = idx.maintenance_step(usize::MAX, &pool, &t);
    assert_eq!(idx.num_rowgroups(), 2, "merge refills to capacity");
    assert_eq!(step.rowgroups_merged, 14);
    assert_eq!(step.rows_rewritten, n as usize);
    assert!((0..idx.num_rowgroups()).all(|g| idx.rowgroup(g).rows() <= CAP));
    assert_eq!(visible_ids(&idx, &pool), (0..n).collect::<Vec<_>>());

    // Idempotent at the fixed point: nothing left to merge.
    let step = idx.maintenance_step(usize::MAX, &pool, &t);
    assert_eq!(step.rowgroups_merged, 0);
    assert_eq!(idx.num_rowgroups(), 2);
}

/// Boundary contract: a group at capacity never combines with a live
/// neighbor, so full groups are not churned, and no merge may produce a
/// group above capacity.
#[test]
fn merge_leaves_full_groups_alone_and_never_exceeds_capacity() {
    // Two exact-capacity groups from the bulk load...
    let (mut idx, pool, t) = setup(CsiKind::Primary, 2 * CAP as i32);
    assert_eq!(idx.num_rowgroups(), 2);
    // ...then two under-filled ones from a budgeted drain.
    faults::arm(faults::sites::TUPLE_MOVE_DEFER, u32::MAX);
    for i in 0..40i32 {
        idx.insert(row(2 * CAP as i32 + i), &pool, &t);
    }
    faults::reset_charges();
    while !idx.maintenance_step(20, &pool, &t).done {}
    assert_eq!(idx.num_rowgroups(), 4);

    let step = idx.maintenance_step(usize::MAX, &pool, &t);
    assert_eq!(step.rowgroups_merged, 1, "only the two tails merge");
    assert_eq!(step.rows_rewritten, 40);
    assert_eq!(idx.num_rowgroups(), 3);
    assert_eq!(idx.rowgroup(0).rows(), CAP, "full group untouched");
    assert_eq!(idx.rowgroup(1).rows(), CAP, "full group untouched");
    assert_eq!(idx.rowgroup(2).rows(), 40);
    assert_eq!(
        visible_ids(&idx, &pool),
        (0..2 * CAP as i32 + 40).collect::<Vec<_>>()
    );
}

/// Merging is the one path that reclaims bitmap-deleted space: a fully
/// dead group plus a hollowed-out neighbor rewrite into a single group
/// holding only live rows.
#[test]
fn merge_reclaims_bitmap_deleted_space() {
    let n = 2 * CAP as i32;
    let (mut idx, pool, t) = setup(CsiKind::Primary, n);
    // Kill all of group 0 and half of group 1 (keys load in order).
    for i in 0..(n - CAP as i32 / 2) {
        assert!(idx.delete(&Key::single(Value::Int32(i)), &pool, &t));
    }
    assert_eq!(idx.num_rowgroups(), 2, "deletes are bitmap-only");

    let step = idx.maintenance_step(usize::MAX, &pool, &t);
    assert_eq!(step.rowgroups_merged, 1);
    assert_eq!(step.rows_rewritten, CAP / 2);
    assert_eq!(idx.num_rowgroups(), 1);
    assert_eq!(
        idx.rowgroup(0).rows(),
        CAP / 2,
        "rewrite dropped the deleted positions"
    );
    assert_eq!(idx.active_rows(), CAP / 2);
    assert_eq!(
        visible_ids(&idx, &pool),
        (n - CAP as i32 / 2..n).collect::<Vec<_>>()
    );
}

/// A run whose live rows exceed the budget is not deferred whole: the
/// increment merges the best sub-run that fits, so every increment with
/// budget for some merge makes progress, and one with budget for none
/// merges nothing. No merge rewrites more than its budget.
#[test]
fn merge_respects_budget_and_resumes() {
    let (mut idx, pool, t) = setup(CsiKind::Primary, 0);
    faults::arm(faults::sites::TUPLE_MOVE_DEFER, u32::MAX);
    for i in 0..(CAP as i32 / 2) {
        idx.insert(row(i), &pool, &t);
    }
    faults::reset_charges();
    while !idx.maintenance_step(CAP / 8, &pool, &t).done {}
    assert_eq!(idx.num_rowgroups(), 4, "four CAP/8-sized groups");

    let ids: Vec<i32> = (0..CAP as i32 / 2).collect();
    let sizes = |idx: &ColumnStoreIndex| -> Vec<usize> {
        (0..idx.num_rowgroups())
            .map(|g| idx.rowgroup(g).rows())
            .collect()
    };
    // All four groups (CAP/2 live rows) do not fit CAP/4; the leftmost of
    // the equally good pairs does.
    let step = idx.maintenance_step(CAP / 4, &pool, &t);
    assert_eq!((step.rowgroups_merged, step.rows_rewritten), (1, CAP / 4));
    assert_eq!(sizes(&idx), [CAP / 4, CAP / 8, CAP / 8]);
    assert_eq!(visible_ids(&idx, &pool), ids);

    // The next increment resumes with the pair that is left.
    let step = idx.maintenance_step(CAP / 4, &pool, &t);
    assert_eq!((step.rowgroups_merged, step.rows_rewritten), (1, CAP / 4));
    assert_eq!(sizes(&idx), [CAP / 4, CAP / 4]);

    // Nothing fits CAP/4 any more: no work, not a partial rewrite.
    let step = idx.maintenance_step(CAP / 4, &pool, &t);
    assert_eq!((step.rowgroups_merged, step.rows_rewritten), (0, 0));
    assert_eq!(idx.num_rowgroups(), 2);

    let step = idx.maintenance_step(CAP / 2, &pool, &t);
    assert_eq!((step.rowgroups_merged, step.rows_rewritten), (1, CAP / 2));
    assert_eq!(sizes(&idx), [CAP / 2]);
    assert_eq!(visible_ids(&idx, &pool), ids);
}

/// Delete compaction on composite keys, whichever type leads: a string
/// first (its values compared as `Value`s) or an integer first (compared
/// as words), the rest of the key compared in place. Keys resolve in two
/// slices, from every row group, and each marks exactly its own row.
#[test]
fn compaction_resolves_composite_keys_of_either_leading_type() {
    let schema = Schema::from_pairs(&[
        ("name", DataType::Utf8),
        ("n", DataType::Int32),
        ("v", DataType::Int64),
    ]);
    let row = |i: i32| {
        Row::new(vec![
            Value::str(format!("k{}", i % 7)),
            Value::Int32(i / 7),
            Value::Int64(i64::from(i)),
        ])
    };
    for key_ordinals in [vec![0, 1], vec![1, 0]] {
        let pool = BufferPool::unbounded(DeviceProfile::ram());
        let t = IoTracker::new();
        let rows: Vec<Row> = (0..3 * CAP as i32).map(row).collect();
        let mut idx = ColumnStoreIndex::build(
            schema.clone(),
            CsiKind::Secondary,
            key_ordinals.clone(),
            CsiConfig {
                rowgroup_capacity: CAP,
                delete_buffer_compact_threshold: 1_000_000,
                ..CsiConfig::default()
            },
            &rows,
            StorageAllocator::new(),
            &pool,
            &t,
        );
        let gone: Vec<i32> = (0..3 * CAP as i32).filter(|i| i % 5 == 2).collect();
        for &i in &gone {
            idx.delete(&rows[i as usize].key(&key_ordinals), &pool, &t);
        }
        assert_eq!(
            idx.compact_deletes_budget(gone.len() / 2, &pool, &t),
            gone.len() / 2
        );
        idx.compact_deletes_budget(usize::MAX, &pool, &t);
        assert_eq!(idx.delete_buffer_len(), 0);
        assert_eq!(idx.active_rows(), rows.len() - gone.len());
        let mut left: Vec<i64> = idx
            .scan_collect(&[2], &HashMap::new(), &pool, &t)
            .iter()
            .flat_map(|b| {
                (0..b.num_rows())
                    .map(|i| b.column(0).value(i).as_i64().unwrap())
                    .collect::<Vec<_>>()
            })
            .collect();
        left.sort_unstable();
        let want: Vec<i64> = (0..3 * CAP as i64).filter(|i| i % 5 != 2).collect();
        assert_eq!(left, want, "key columns {key_ordinals:?}");
    }
}

/// A columnstore whose delta store never fills: every row inserted stays
/// there.
fn delta_only() -> (ColumnStoreIndex, BufferPool, IoTracker) {
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let t = IoTracker::new();
    let config = CsiConfig {
        rowgroup_capacity: 1 << 20,
        ..CsiConfig::default()
    };
    let alloc = StorageAllocator::new();
    let idx = ColumnStoreIndex::build(
        schema2(),
        CsiKind::Primary,
        vec![0],
        config,
        &[],
        alloc,
        &pool,
        &t,
    );
    (idx, pool, t)
}

/// The delta store is keyed on the row key: its rows scan in key order,
/// whatever order they arrived in.
#[test]
fn delta_rows_scan_in_key_order() {
    let (mut idx, pool, t) = delta_only();
    for i in [5, 3, 9] {
        idx.insert(row(i), &pool, &t);
    }
    let batches = idx.scan_collect(&[0], &HashMap::new(), &pool, &t);
    let ids: Vec<Value> = (0..3).map(|i| batches[0].column(0).value(i)).collect();
    assert_eq!(ids, [3, 5, 9].map(Value::Int32));
}

/// A delete of a delta row takes exactly the row with its key, and a key
/// no row has deletes nothing.
#[test]
fn a_delta_row_is_deleted_by_its_key_alone() {
    let (mut idx, pool, t) = delta_only();
    for i in 1..=3 {
        idx.insert(row(i), &pool, &t);
    }
    let two = Key::single(Value::Int32(2));
    assert_eq!(idx.delete_returning(&two, &pool, &t), Some(row(2)));
    assert_eq!(idx.delta_rows(), 2);
    let absent = Key::single(Value::Int32(42));
    assert_eq!(idx.delete_returning(&absent, &pool, &t), None);
    assert_eq!(visible_ids(&idx, &pool), [1, 3]);
}

/// A move takes the delta's smallest keys first: a budget of three moves
/// keys 0, 2 and 5 of 9, 0, 5, 7, 2 into a row group, and the next move
/// the rest.
#[test]
fn moves_take_the_smallest_delta_keys_first() {
    let (mut idx, pool, t) = delta_only();
    for i in [9, 0, 5, 7, 2] {
        idx.insert(row(i), &pool, &t);
    }
    assert_eq!(idx.maintenance_step(3, &pool, &t).rows_moved, 3);
    let first = idx.rowgroup(0);
    assert_eq!(first.rows(), 3);
    let (min, max) = (first.segment(0).min(), first.segment(0).max());
    assert_eq!((min, max), (&Value::Int32(0), &Value::Int32(5)));
    assert_eq!(idx.delta_rows(), 2);
    assert_eq!(idx.maintenance_full(&pool, &t).rows_moved, 2);
    assert_eq!(idx.delta_rows(), 0);
    assert_eq!(visible_ids(&idx, &pool), [0, 2, 5, 7, 9]);
}

/// A delete in a 10 000-row delta is a B+ tree seek, not a scan of it.
#[test]
fn a_delta_delete_reads_a_few_pages() {
    let (mut idx, pool, t) = delta_only();
    for i in 0..10_000 {
        idx.insert(row(i), &pool, &t);
    }
    let probe = IoTracker::new();
    let key = Key::single(Value::Int32(5_000));
    assert_eq!(idx.delete_returning(&key, &pool, &probe), Some(row(5_000)));
    let reads = probe.snapshot().logical_reads;
    assert!(reads < 20, "a delta delete read {reads} pages");
}

/// A move frees the delta leaves it empties. After three inserts of
/// 65 636 rows into a columnstore of 65 536-row groups, each of which
/// moves a full chunk and leaves 100 rows behind, a scan of the 300 rows
/// left in the delta reads a few pages; with every emptied leaf kept in
/// the chain it read 61, 124 and 187 after the first, second and third.
#[test]
fn a_delta_scan_after_moves_reads_only_its_rows_leaves() {
    const ROWGROUP: usize = 65_536;
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let t = IoTracker::new();
    let config = CsiConfig {
        rowgroup_capacity: ROWGROUP,
        ..CsiConfig::default()
    };
    let (schema, alloc) = (schema2(), StorageAllocator::new());
    let mut idx = ColumnStoreIndex::build(
        schema,
        CsiKind::Primary,
        vec![0],
        config,
        &[],
        alloc,
        &pool,
        &t,
    );
    let mut next = 0;
    for moves in 1..=3 {
        for _ in 0..ROWGROUP + 100 {
            idx.insert(row(next), &pool, &t);
            next += 1;
        }
        assert_eq!(
            (idx.num_rowgroups(), idx.delta_rows()),
            (moves, 100 * moves)
        );
        let scan_t = IoTracker::new();
        let mut scan = idx.scan_rowgroups(
            Vec::new(),
            vec![0],
            HashMap::new(),
            true,
            Default::default(),
        );
        let mut rows = 0;
        while let Some(batch) = scan.next_batch(&pool, &scan_t) {
            rows += batch.num_rows();
        }
        assert_eq!(rows, 100 * moves);
        let reads = scan_t.snapshot().logical_reads;
        assert!(
            reads <= 4,
            "after {moves} moves a delta scan read {reads} pages"
        );
    }
}
