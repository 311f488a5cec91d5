//! Deterministic fault-injection registry.
//!
//! Engine, columnstore, and storage code call [`fire`] at named injection
//! sites; the call returns `true` only when a test harness has armed that
//! site on the *current thread*. Unarmed threads pay a single thread-local
//! boolean load, so leaving the sites compiled into release builds is free.
//!
//! Two arming modes exist:
//!
//! * **Charges** ([`arm`]): each [`fire`] consumes one charge until the site
//!   runs dry. The differential harness arms one charge immediately before a
//!   scheduled statement and calls [`reset_charges`] right after it, so a
//!   fault fires at exactly one schedule point and reproduces from the seed.
//! * **Always-on** ([`set_always`]): the site fires on every call until
//!   cleared. Used for "deliberate bug" knobs (e.g. skipping the snapshot
//!   overlay) that must stay active across an entire harness run while the
//!   per-step charges are reset around it.
//!
//! The registry is thread-local on purpose: the harness drives all three
//! designs from one OS thread (determinism), and parallel `cargo test`
//! threads cannot contaminate each other's arming state.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

thread_local! {
    static ANY_ARMED: Cell<bool> = const { Cell::new(false) };
    static CHARGES: RefCell<HashMap<&'static str, u32>> = RefCell::new(HashMap::new());
    static ALWAYS: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    static FIRED: RefCell<HashMap<&'static str, u64>> = RefCell::new(HashMap::new());
}

fn refresh_any_armed() {
    let armed = CHARGES.with(|c| c.borrow().values().any(|&n| n > 0))
        || ALWAYS.with(|a| !a.borrow().is_empty());
    ANY_ARMED.with(|f| f.set(armed));
}

/// Add `charges` one-shot firings to `site` on the current thread.
pub fn arm(site: &'static str, charges: u32) {
    CHARGES.with(|c| *c.borrow_mut().entry(site).or_insert(0) += charges);
    refresh_any_armed();
}

/// Turn `site` permanently on (`true`) or off (`false`) for this thread,
/// independent of charges. Survives [`reset_charges`].
pub fn set_always(site: &'static str, on: bool) {
    ALWAYS.with(|a| {
        let mut a = a.borrow_mut();
        a.retain(|s| *s != site);
        if on {
            a.push(site);
        }
    });
    refresh_any_armed();
}

/// Should the fault at `site` trigger now? Consumes one charge unless the
/// site is always-on. Cheap (one boolean load) when nothing is armed.
pub fn fire(site: &'static str) -> bool {
    if !ANY_ARMED.with(|f| f.get()) {
        return false;
    }
    let always = ALWAYS.with(|a| a.borrow().contains(&site));
    let hit = always
        || CHARGES.with(|c| {
            let mut c = c.borrow_mut();
            match c.get_mut(site) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    true
                }
                _ => false,
            }
        });
    if hit {
        FIRED.with(|f| *f.borrow_mut().entry(site).or_insert(0) += 1);
        refresh_any_armed();
    }
    hit
}

/// Remaining one-shot charges armed at `site`.
pub fn armed_charges(site: &'static str) -> u32 {
    CHARGES.with(|c| c.borrow().get(site).copied().unwrap_or(0))
}

/// Drop all un-fired charges (always-on sites stay). The harness calls this
/// after every scheduled statement so a charge that did not fire (e.g. a
/// spill-write fault on a statement that never spilled) cannot leak into a
/// later statement and break cross-design agreement.
pub fn reset_charges() {
    CHARGES.with(|c| c.borrow_mut().clear());
    refresh_any_armed();
}

/// Drop everything: charges, always-on sites, and fired counts.
pub fn clear_all() {
    CHARGES.with(|c| c.borrow_mut().clear());
    ALWAYS.with(|a| a.borrow_mut().clear());
    FIRED.with(|f| f.borrow_mut().clear());
    refresh_any_armed();
}

/// Number of times `site` has fired on this thread since [`clear_all`].
pub fn fired(site: &'static str) -> u64 {
    FIRED.with(|f| f.borrow().get(site).copied().unwrap_or(0))
}

/// Total firings across all sites on this thread since [`clear_all`].
pub fn fired_total() -> u64 {
    FIRED.with(|f| f.borrow().values().sum())
}

/// Injection sites threaded through the workspace. Kept in one place so the
/// harness's fault palette and the call sites cannot drift apart.
pub mod sites {
    /// `LockManager::acquire` fails immediately with a lock timeout.
    pub const LOCK_TIMEOUT: &str = "txn.lock.inject_timeout";
    /// `Txn::commit` aborts after validation but before applying writes.
    pub const COMMIT_FAIL: &str = "txn.commit.fail_before_apply";
    /// Snapshot reads skip the version overlay (deliberate-bug knob used to
    /// prove the harness catches and shrinks a real isolation violation).
    pub const OVERLAY_SKIP: &str = "engine.overlay.skip";
    /// Tuple mover runs even though the delta store is below capacity.
    pub const TUPLE_MOVE_FORCE: &str = "columnstore.tuple_move.force";
    /// Capacity-triggered tuple move is suppressed once.
    pub const TUPLE_MOVE_DEFER: &str = "columnstore.tuple_move.defer";
    /// Secondary-CSI delete buffer compacts regardless of threshold.
    pub const DELETE_BUFFER_COMPACT: &str = "columnstore.delete_buffer.force_compact";
    /// The tuple mover's drain of the delta (`BTree::drain_front`) asks
    /// for half its chunk (an interrupted mover; it must loop, not assume
    /// one drain empties the delta).
    pub const DELTA_DRAIN_PARTIAL: &str = "columnstore.delta.drain_partial";
    /// A budgeted maintenance increment runs with half its row budget, as
    /// if the scheduler preempted the incremental mover mid-slice. The
    /// increment must stay consistent and resume on the next call.
    pub const MAINT_STEP_SHRINK: &str = "columnstore.maintenance.step_shrink";
    /// `SpillFile::write` fails as if the spill device were full.
    pub const SPILL_WRITE_FAIL: &str = "storage.spill.write_fail";
    /// `GrantBroker::acquire` fails as if the admission wait timed out,
    /// regardless of how much budget is actually free.
    pub const GRANT_TIMEOUT: &str = "exec.grant.inject_timeout";
    /// Buffer pool drops every cached page/blob before the next access.
    pub const BUFFERPOOL_EVICT: &str = "storage.bufferpool.force_evict";
    /// Crash inside `Txn::commit` after writes are applied but before the
    /// commit record is flushed: the transaction must be LOST by recovery.
    pub const CRASH_BEFORE_COMMIT_FLUSH: &str = "wal.crash.before_commit_flush";
    /// Crash immediately after the commit record reaches durable log bytes:
    /// the transaction must SURVIVE recovery.
    pub const CRASH_AFTER_COMMIT_FLUSH: &str = "wal.crash.after_commit_flush";
    /// Crash halfway through applying a transaction's writes (log records
    /// for the batch may be partially appended, none flushed): LOST.
    pub const CRASH_MID_APPLY: &str = "wal.crash.mid_apply";
    /// Crash between a fuzzy checkpoint's begin record and the atomic
    /// install of its image: recovery uses the previous checkpoint.
    pub const CRASH_IN_CHECKPOINT: &str = "wal.crash.in_checkpoint";
    /// Crash inside a maintenance increment, after the physical
    /// reorganization applied but before its `MaintenanceStep` record is
    /// flushed. Maintenance never changes logical contents, so recovery
    /// (which loses the record) must still equal the committed state.
    pub const CRASH_IN_MAINTENANCE: &str = "wal.crash.in_maintenance";
    /// Recovery skips redoing logged inserts into tables with a columnstore
    /// (deliberate-bug knob proving the crash harness catches and shrinks a
    /// real redo omission).
    pub const WAL_SKIP_DELTA_REDO: &str = "wal.recovery.skip_delta_redo";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_site_never_fires() {
        clear_all();
        assert!(!fire(sites::LOCK_TIMEOUT));
        assert_eq!(fired_total(), 0);
    }

    #[test]
    fn charges_are_consumed_one_per_fire() {
        clear_all();
        arm(sites::SPILL_WRITE_FAIL, 2);
        assert!(fire(sites::SPILL_WRITE_FAIL));
        assert!(fire(sites::SPILL_WRITE_FAIL));
        assert!(!fire(sites::SPILL_WRITE_FAIL));
        assert_eq!(fired(sites::SPILL_WRITE_FAIL), 2);
        clear_all();
    }

    #[test]
    fn reset_charges_keeps_always_on_sites() {
        clear_all();
        arm(sites::LOCK_TIMEOUT, 1);
        set_always(sites::OVERLAY_SKIP, true);
        reset_charges();
        assert!(!fire(sites::LOCK_TIMEOUT));
        assert!(fire(sites::OVERLAY_SKIP));
        assert!(fire(sites::OVERLAY_SKIP));
        clear_all();
        assert!(!fire(sites::OVERLAY_SKIP));
    }

    #[test]
    fn armed_charges_reports_remaining() {
        clear_all();
        arm(sites::TUPLE_MOVE_FORCE, 3);
        assert_eq!(armed_charges(sites::TUPLE_MOVE_FORCE), 3);
        fire(sites::TUPLE_MOVE_FORCE);
        assert_eq!(armed_charges(sites::TUPLE_MOVE_FORCE), 2);
        clear_all();
    }
}
