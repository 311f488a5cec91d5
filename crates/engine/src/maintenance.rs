//! Cost-based incremental maintenance: the `db.maintenance(table)` builder
//! and the background scheduler that drives budgeted increments.
//!
//! The paper's hybrid designs only pay off when the columnstore's delta
//! store and delete buffer are drained without stalling the OLTP side.
//! Instead of the old stop-the-world `force_csi_maintenance` pass, work is
//! split into **budgeted increments** (`Table::maintenance_step`): each
//! increment resolves at most `budget_rows` rows of work — buffered
//! deletes first, delta compression only once the buffer is empty (the
//! tuple-mover ordering invariant), and with the backlog drained the drop
//! of row groups with no live row and merges of adjacent row groups, best
//! gain per rewritten row first, within what budget is left — takes the
//! table latch only for its own slice, WAL-logs a
//! [`hpd_wal::LogRecord::MaintenanceStep`] record, and is individually
//! crash-safe (maintenance is logically a no-op, so a crash at any point
//! inside an increment recovers to the committed state). Every choice an
//! increment makes reads the index alone, so its redo repeats it.
//!
//! The [`spawn_maintenance`] scheduler scores candidate tables by the work
//! an increment of its budget would really do — delta scan cost,
//! delete-buffer anti-join cost and segment-pruning loss, all weighted by
//! decayed rowgroup heat, plus the row groups and dead rows a merge that
//! fits the budget would remove — against foreground interference
//! (worker-pool occupancy, grant queue depth), and executes the top pick
//! through a non-blocking worker-pool token plus grant-broker admission so
//! OLTP latency is protected. Work that does not fit the budget scores
//! nothing, so the scheduler does not pick it tick after tick. Heat decay
//! ticks on the scheduler's own clock, deliberately decoupled from
//! maintenance passes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hpd_common::{faults, HpdError, Result};
use hpd_storage::IoTracker;
use hpd_wal::LogRecord;

use crate::catalog::Database;
use crate::table::Table;

/// Scheduler knobs, part of [`crate::DbConfig`].
#[derive(Debug, Clone, Copy)]
pub struct MaintenanceConfig {
    /// Scheduler loop period.
    pub tick: Duration,
    /// Row budget per scheduled increment.
    pub budget_rows: usize,
    /// Decay rowgroup heat every this many ticks (0 disables decay).
    pub decay_every_ticks: u64,
    /// Minimum candidate score before the scheduler spends an increment.
    pub min_score: f64,
}

impl Default for MaintenanceConfig {
    fn default() -> MaintenanceConfig {
        MaintenanceConfig {
            tick: Duration::from_millis(2),
            budget_rows: 4096,
            decay_every_ticks: 16,
            min_score: 1.0,
        }
    }
}

/// Outcome of one [`MaintenanceBuilder::run`] increment (or a
/// [`MaintenanceBuilder::report`] probe, where the work counters are zero).
#[derive(Debug, Clone, Default)]
pub struct MaintenanceReport {
    pub table: String,
    /// Partition the increment targeted; `None` means the whole table
    /// (round-robin across parts).
    pub part: Option<usize>,
    /// Row budget the increment ran with; `None` means unbudgeted (full).
    pub budget_rows: Option<usize>,
    /// Delta rows compressed into rowgroups by this increment.
    pub rows_moved: usize,
    /// Buffered deletes resolved into bitmap bits by this increment.
    pub deletes_compacted: usize,
    /// Source rowgroups eliminated by merge-compaction and drops (the
    /// defragmentation phase that runs once the backlog is drained).
    pub rowgroups_merged: usize,
    /// Live rows the merges of this increment rewrote.
    pub rows_rewritten: usize,
    /// Delta rows still pending after the increment.
    pub delta_rows: usize,
    /// Buffered deletes still pending after the increment.
    pub delete_buffer: usize,
    /// True when no reorganization work remains on the table.
    pub complete: bool,
    /// Microseconds spent waiting for grant-broker admission.
    pub grant_wait_us: u64,
}

/// Fluent maintenance entry point returned by [`Database::maintenance`],
/// mirroring [`Database::query`]:
///
/// ```ignore
/// db.maintenance("lineitem").run()?;                  // full pass
/// db.maintenance("lineitem").budget_rows(512).run()?; // one increment
/// let r = db.maintenance("lineitem").report()?;       // read-only probe
/// ```
#[must_use = "call .run() to perform maintenance or .report() to probe it"]
pub struct MaintenanceBuilder<'db> {
    db: &'db Database,
    table: String,
    budget_rows: Option<usize>,
    part: Option<usize>,
}

impl<'db> MaintenanceBuilder<'db> {
    pub(crate) fn new(db: &'db Database, table: &str) -> MaintenanceBuilder<'db> {
        MaintenanceBuilder {
            db,
            table: table.to_string(),
            budget_rows: None,
            part: None,
        }
    }

    /// Bound this increment at `n` rows of work (deletes compacted + delta
    /// rows moved). Unbudgeted increments drain everything.
    pub fn budget_rows(mut self, n: usize) -> Self {
        self.budget_rows = Some(n.max(1));
        self
    }

    /// Remove any budget: drain the full backlog in one pass (the default).
    pub fn full(mut self) -> Self {
        self.budget_rows = None;
        self
    }

    /// Target one partition of a partitioned table instead of round-robin
    /// across all parts. The scheduler uses this to drain exactly the
    /// partition whose backlog scores highest.
    pub fn partition(mut self, part: usize) -> Self {
        self.part = Some(part);
        self
    }

    /// Execute one maintenance increment under the configured budget.
    pub fn run(self) -> Result<MaintenanceReport> {
        maintenance_increment(self.db, &self.table, self.budget_rows, self.part)
    }

    /// Read-only status probe: backlog depths and completeness, no work.
    pub fn report(self) -> Result<MaintenanceReport> {
        let slot = self.db.slot(&self.table)?;
        let table = slot.table.read();
        let (delta_rows, delete_buffer) = match self.part {
            Some(p) if p < table.num_parts() => part_backlog(table.part(p)),
            _ => backlog_split(&table),
        };
        Ok(MaintenanceReport {
            table: self.table,
            part: self.part,
            budget_rows: self.budget_rows,
            delta_rows,
            delete_buffer,
            complete: delta_rows + delete_buffer == 0,
            ..MaintenanceReport::default()
        })
    }
}

/// One part's pending work split into (delta rows, buffered deletes).
fn part_backlog(part: &crate::table::TablePart) -> (usize, usize) {
    part.csis().fold((0, 0), |(delta, buffer), csi| {
        (delta + csi.delta_rows(), buffer + csi.delete_buffer_len())
    })
}

/// Pending work across every part, split into (delta rows, buffered deletes).
fn backlog_split(table: &Table) -> (usize, usize) {
    table
        .parts()
        .iter()
        .map(part_backlog)
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
}

/// One WAL-logged, crash-safe maintenance increment.
///
/// Lock ordering: the grant lease is acquired BEFORE `commit_lock`, and the
/// increment never waits for admission while holding the commit lock — the
/// same order every query follows, so maintenance cannot deadlock with the
/// foreground.
fn maintenance_increment(
    db: &Database,
    name: &str,
    budget: Option<usize>,
    part: Option<usize>,
) -> Result<MaintenanceReport> {
    // Root span: background work never nests under whatever query happens
    // to be current on the calling thread.
    let mut span = hpd_obs::trace::root_span("background.maintenance");
    let cpu_start = Instant::now();
    // A worker-pool token marks the increment's CPU use in pool accounting;
    // an empty pool does not block a caller-driven increment.
    let _token = db.worker_pool().try_acquire(1);
    let lease = db
        .grant_broker()
        .acquire(db.config.min_grant_bytes, db.config.grant_wait_timeout)?;
    let grant_wait_us = lease.wait().as_micros() as u64;
    let _commit = db.commit_lock.lock();
    let slot = db.slot(name)?;
    let table_id = db.slot_id(name)? as u32;
    let t = IoTracker::new();
    let budget_rows = budget.unwrap_or(usize::MAX);
    let mut guard = slot.table.write();
    if let Some(p) = part {
        if p >= guard.num_parts() {
            return Err(HpdError::Constraint(format!(
                "table {name} has {} partitions; no partition {p}",
                guard.num_parts()
            )));
        }
    }
    let step = guard.maintenance_step(part, budget_rows, &db.pool, &t);
    let (delta_rows, delete_buffer) = match part {
        Some(p) => part_backlog(guard.part(p)),
        None => backlog_split(&guard),
    };
    drop(guard);
    if faults::fire(faults::sites::CRASH_IN_MAINTENANCE) {
        // Crash with the reorganization applied but its log record
        // unwritten. Maintenance is logically a no-op, so recovery from the
        // surviving log must still equal the committed state.
        return Err(HpdError::Crashed(
            faults::sites::CRASH_IN_MAINTENANCE.into(),
        ));
    }
    // Any work is logged, a merge-only or drop-only increment included:
    // redo re-runs the increment with the same budget, and a step it never
    // sees leaves the recovered row groups unmerged.
    let worked = step.rows_moved > 0
        || step.deletes_compacted > 0
        || step.rowgroups_merged > 0
        || step.rows_rewritten > 0;
    if db.wal.enabled() && worked {
        let lsn = db.wal.append(&LogRecord::MaintenanceStep {
            table: table_id,
            part: part.map_or(u32::MAX, |p| p as u32),
            budget_rows: budget_rows as u64,
            rows_moved: step.rows_moved as u64,
            deletes_compacted: step.deletes_compacted as u64,
        });
        db.wal.flush(&t);
        slot.applied_lsn.store(lsn, Ordering::Relaxed);
    }
    let m = hpd_obs::global();
    m.counter("maintenance.increments").inc();
    m.counter("maintenance.rows_moved")
        .add(step.rows_moved as u64);
    m.counter("maintenance.deletes_compacted")
        .add(step.deletes_compacted as u64);
    m.counter("maintenance.rowgroups_merged")
        .add(step.rowgroups_merged as u64);
    m.histogram("maintenance.increment_us")
        .record(cpu_start.elapsed().as_micros() as u64);
    m.histogram("maintenance.grant_wait_us")
        .record(grant_wait_us);
    let io = t.snapshot();
    m.counter("background.io.bytes_read").add(io.bytes_read);
    m.counter("background.io.bytes_written")
        .add(io.bytes_written);
    if span.is_recording() {
        span.attr("table", name);
        span.attr("rows_moved", step.rows_moved);
        span.attr("deletes_compacted", step.deletes_compacted);
        if let Some(b) = budget {
            span.attr("budget_rows", b);
        }
    }
    Ok(MaintenanceReport {
        table: name.to_string(),
        part,
        budget_rows: budget,
        rows_moved: step.rows_moved,
        deletes_compacted: step.deletes_compacted,
        rowgroups_merged: step.rowgroups_merged,
        rows_rewritten: step.rows_rewritten,
        delta_rows,
        delete_buffer,
        complete: step.done,
        grant_wait_us,
    })
}

impl Database {
    /// The unified maintenance entry point: build options fluently, then
    /// [`run`](MaintenanceBuilder::run) or
    /// [`report`](MaintenanceBuilder::report). The only way to trigger
    /// columnstore reorganization — the old stop-the-world pass is gone.
    pub fn maintenance<'db>(&'db self, table: &str) -> MaintenanceBuilder<'db> {
        MaintenanceBuilder::new(self, table)
    }

    /// Age rowgroup heat one tick on every columnstore index. Driven by the
    /// scheduler's decay clock; callable directly in scheduler-less setups.
    pub fn decay_heat(&self) {
        let slots = self.tables.read().clone();
        for slot in slots.iter() {
            slot.table.read().decay_heat();
        }
    }
}

/// One scorable unit of pending maintenance work: a whole table, or — for
/// partitioned tables — one partition.
#[derive(Debug, Clone)]
pub struct MaintenanceCandidate {
    pub table: String,
    /// Targeted partition; `None` for a monolithic table.
    pub part: Option<usize>,
    /// Marginal-benefit score of one increment of the scheduler's budget;
    /// higher means it saves more foreground work. Positive on every
    /// candidate.
    pub score: f64,
    /// Pending rows (delta + buffered deletes) across the unit's CSIs.
    pub backlog: usize,
}

/// Marginal-benefit score of one increment of `budget` rows on one part's
/// CSIs: `(score, backlog)`. The score counts only the work the increment
/// would really do: backlog always (any budget resolves some of it), and
/// once the backlog fits the budget, the drops and the best merge that fit
/// what is left ([`hpd_columnstore::ColumnStoreIndex::best_merge`]).
fn score_part(part: &crate::table::TablePart, capacity: f64, budget: usize) -> (f64, usize) {
    let mut score = 0.0;
    let mut backlog = 0;
    let mut left = budget.max(1);
    for csi in part.csis() {
        let pending = csi.maintenance_backlog();
        let rep = csi.heat_report();
        let reads: u64 = rep.rowgroups.iter().map(|r| r.reads).sum();
        let prunes: u64 = rep.rowgroups.iter().map(|r| r.prunes).sum();
        if pending > 0 {
            backlog += pending;
            let delta = csi.delta_rows() as f64;
            let buffer = csi.delete_buffer_len() as f64;
            // Delta merge cost: every delta scan walks the whole delta.
            score += rep.delta_reads as f64 * delta / capacity;
            // Anti-join cost: every rowgroup read probes the buffer.
            score += reads as f64 * buffer / capacity;
            // Pruning loss: delta rows can never be segment-eliminated.
            score += prunes as f64 * delta / capacity;
            // Small constant pressure so cold backlogs still drain.
            score += pending as f64 / capacity;
        }
        if pending >= left {
            // The rest of the increment goes on this backlog.
            break;
        }
        left -= pending;
        // Fragmentation: every scan visits every row group (reading or
        // pruning it) and every dead row of those it reads. A removed
        // group is worth one unit, more under scans.
        let merge = csi.best_merge(left);
        let groups = csi.empty_rowgroups() + merge.as_ref().map_or(0, |m| m.rowgroups.len() - 1);
        let dead = merge.as_ref().map_or(0, |m| m.dead_rows) as f64;
        if groups > 0 || dead > 0.0 {
            let scans = (reads + prunes) as f64 / rep.rowgroups.len().max(1) as f64;
            score += (groups as f64 + dead / capacity) * (1.0 + scans);
        }
        left -= merge.map_or(0, |m| m.live_rows);
    }
    (score, backlog)
}

/// Score every table's pending maintenance work, highest first. Partitioned
/// tables yield one candidate per *partition* with work, so the scheduler
/// drains a hot partition's delta without touching nine cold siblings.
///
/// The score estimates what one increment of the configured budget saves
/// foreground scans per tick: delta-store merge cost scales with delta
/// scans × delta depth, the delete-buffer anti-join costs every rowgroup
/// read a probe per buffered key, an unfull delta erodes segment pruning
/// (delta rows are never pruned), and every row group a merge or drop
/// removes is one less for every scan to visit. Heat counters are decayed,
/// so recent access dominates. A part whose only work does not fit the
/// budget (a merge over it) is no candidate.
pub fn maintenance_candidates(db: &Database) -> Vec<MaintenanceCandidate> {
    let capacity = db.config().csi.rowgroup_capacity.max(1) as f64;
    let budget = db.config().maintenance.budget_rows;
    let slots = db.tables_snapshot();
    let mut out = Vec::new();
    for slot in slots.iter() {
        let table = slot.table.read();
        let partitioned = table.num_parts() > 1;
        for (p, part) in table.parts().iter().enumerate() {
            let (score, backlog) = score_part(part, capacity, budget);
            if score > 0.0 {
                out.push(MaintenanceCandidate {
                    table: slot.name.clone(),
                    part: partitioned.then_some(p),
                    score,
                    backlog,
                });
            }
        }
    }
    out.sort_by(|a, b| b.score.total_cmp(&a.score));
    out
}

/// Is foreground work contending for resources right now? The scheduler
/// skips its tick rather than queueing behind (or in front of) queries.
fn foreground_busy(db: &Database) -> bool {
    let pool = db.worker_pool();
    2 * pool.in_use() > pool.budget() || db.grant_broker().queue_depth() > 0
}

/// Handle to the background maintenance thread; dropping it stops the
/// scheduler and joins the thread.
pub struct MaintenanceHandle {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl MaintenanceHandle {
    /// Stop the scheduler and wait for the thread to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for MaintenanceHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start the cost-based maintenance scheduler on its own thread.
///
/// Every [`MaintenanceConfig::tick`] the scheduler decays heat on its own
/// clock, scores candidates with [`maintenance_candidates`], and — unless
/// the foreground is busy — runs one budgeted increment on the top pick
/// through the normal [`Database::maintenance`] path (worker-pool token,
/// grant admission, WAL logging and all).
pub fn spawn_maintenance(db: &Arc<Database>) -> MaintenanceHandle {
    let db = Arc::clone(db);
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name("hpd-maintenance".into())
        .spawn(move || {
            let cfg = db.config().maintenance;
            let m = hpd_obs::global();
            let mut ticks = 0u64;
            while !flag.load(Ordering::Relaxed) {
                // Sleep, don't spin: on small machines a busy scheduler
                // would starve the foreground it is meant to protect.
                std::thread::park_timeout(cfg.tick);
                if flag.load(Ordering::Relaxed) {
                    break;
                }
                ticks += 1;
                m.counter("maintenance.scheduler.ticks").inc();
                if cfg.decay_every_ticks > 0 && ticks.is_multiple_of(cfg.decay_every_ticks) {
                    db.decay_heat();
                    m.counter("maintenance.scheduler.decay_passes").inc();
                }
                let pick = maintenance_candidates(&db)
                    .into_iter()
                    .find(|c| c.score >= cfg.min_score);
                let Some(pick) = pick else {
                    m.counter("maintenance.scheduler.idle").inc();
                    continue;
                };
                if foreground_busy(&db) {
                    m.counter("maintenance.scheduler.skipped_interference")
                        .inc();
                    continue;
                }
                m.counter("maintenance.scheduler.picks").inc();
                // Admission timeouts and injected crashes are the caller's
                // concern when they drive increments; the scheduler just
                // tries again next tick.
                let mut increment = db.maintenance(&pick.table).budget_rows(cfg.budget_rows);
                if let Some(p) = pick.part {
                    increment = increment.partition(p);
                }
                let _ = increment.run();
            }
        })
        .expect("spawn maintenance scheduler thread");
    MaintenanceHandle {
        stop,
        join: Some(join),
    }
}
