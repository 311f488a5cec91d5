//! Lockstep differential execution of a [`Plan`] over the four physical
//! designs, checked statement-by-statement against the [`RefModel`].
//!
//! The driver materializes the same logical table under a B+ tree primary,
//! a clustered columnstore primary, a hybrid (B+ tree primary plus
//! secondary columnstore), and a range-partitioned table whose partitions
//! mix designs (columnstore history, B+ tree insert tail), then replays the
//! plan's schedule on a single OS thread: each schedule step runs the next
//! statement of one transaction on all four databases back-to-back. Because
//! every database sees the exact same sequence of `begin`/`commit` calls,
//! their timestamp streams are identical — which is what lets the reference
//! model predict every read.
//!
//! Faults from the plan are armed with one charge around *each* design's
//! execution of the step and any unfired charges are cleared afterwards, so
//! a fault either hits all designs at the same point or none, and never
//! leaks into a later statement.
//!
//! Crash faults ([`crate::plan::FaultSpec::CRASH`]) simulate a process
//! death inside `Txn::commit`: when one fires, the schedule ends, every
//! open transaction is discarded, and each design is rebuilt *only* from
//! its durable WAL bytes via `Database::recover`. The recovered state must
//! equal the reference model's committed state, with the dying commit
//! counted as durable or lost according to the crash site's contract.

use hpd_common::{faults, Expr, HpdError, Value};
use hpd_engine::{
    CsiConfig, Database, DbConfig, IndexDescriptor, IsolationLevel, PartitionSpec, SelectQuery,
    Statement, TableInput, Txn,
};
use hpd_workloads::history::{self, MixedOp, COL_K};
use std::time::Duration;

use crate::plan::Plan;
use crate::refmodel::{Expected, RefModel};

/// The logical table every design materializes.
pub const TABLE: &str = "t";

/// Lower SQL text through the front-end to an engine statement. Binding
/// only reads the schema, which is identical across the four designs, so
/// lowering against any one database stands for all of them.
pub fn lower_sql(db: &Database, text: &str) -> Result<Statement, String> {
    let parsed = hpd_sql::parse(text).map_err(|e| e.to_string())?;
    match hpd_sql::bind(db, &parsed, &[]).map_err(|e| e.to_string())? {
        hpd_sql::Bound::Stmt(stmt) => Ok(stmt),
        other => Err(format!("lowered to a non-DML command: {other:?}")),
    }
}

/// Display names of the four designs, index-aligned with the databases.
pub const DESIGNS: [&str; 4] = ["btree", "csi", "hybrid", "parthybrid"];

/// Materialize the harness table under one of the [`DESIGNS`] on a fresh
/// database (rows are loaded separately). Design 3 is the partitioned
/// hybrid: range partitions on the key split the preload in half and give
/// the monotone fresh-insert tail its own partition, columnstore on the
/// cold history partitions and a B+ tree on the insert tail — the paper's
/// hybrid thesis expressed at partition granularity.
pub(crate) fn create_design_table(db: &Database, design: usize, initial_rows: i32) {
    let schema = history::history_schema();
    let primary = match design {
        1 | 3 => IndexDescriptor::PrimaryCsi,
        _ => IndexDescriptor::PrimaryBTree { keys: vec![COL_K] },
    };
    if design == 3 {
        // Preloaded keys are `0..initial_rows`, fresh inserts monotone from
        // `initial_rows`: bounds at the midpoint and the preload edge give
        // two cold history partitions plus a hot insert-tail partition.
        let hi = initial_rows.max(2);
        let mid = hi / 2;
        let spec = PartitionSpec::range(COL_K, vec![Value::Int32(mid), Value::Int32(hi)])
            .expect("harness partition bounds are strictly increasing");
        db.create_partitioned_table(TABLE, schema, vec![COL_K], primary, spec)
            .expect("create partitioned harness table");
        db.apply_partition_design(
            TABLE,
            2,
            &IndexDescriptor::PrimaryBTree { keys: vec![COL_K] },
            &[],
        )
        .expect("flip insert-tail partition to a B+ tree");
        return;
    }
    db.create_table(TABLE, schema, vec![COL_K], primary)
        .expect("create harness table");
    if design == 2 {
        db.create_index(
            TABLE,
            &IndexDescriptor::SecondaryCsi {
                columns: vec![0, 1, 2],
            },
        )
        .expect("create secondary CSI");
    }
}

/// Counters of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Statements attempted (per logical statement, not per design).
    pub ops_attempted: u64,
    pub txns_committed: u64,
    /// Deliberate aborts plus aborts forced by statement/commit failures.
    pub txns_aborted: u64,
    /// Injection-site firings across all designs (delta of the registry).
    pub faults_fired: u64,
    /// Simulated crashes that ended the run and were recovered from.
    pub crashes: u64,
}

/// A detected disagreement, with everything needed to report it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Schedule index at which the disagreement surfaced (`usize::MAX` for
    /// the end-of-run quiescent check).
    pub step: usize,
    /// Transaction involved (`usize::MAX` for the quiescent check).
    pub txn: usize,
    pub detail: String,
}

/// Did the run agree everywhere?
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Divergence(Box<Divergence>),
}

impl Verdict {
    pub fn diverged(&self) -> bool {
        matches!(self, Verdict::Divergence(_))
    }
}

/// Everything a run produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    pub verdict: Verdict,
    pub stats: RunStats,
    /// FNV-1a digest of every statement result and the final table states;
    /// equal fingerprints mean bit-identical runs.
    pub fingerprint: u64,
}

/// Normalized result of one statement on one design.
#[derive(Debug, Clone, PartialEq, Eq)]
enum StmtOut {
    Rows(Vec<Vec<i64>>),
    Err(&'static str),
}

/// Stable error classifier: same variant ⇒ same kind, message ignored
/// (messages embed keys and may legitimately differ in formatting).
fn err_kind(e: &HpdError) -> &'static str {
    match e {
        HpdError::TypeMismatch { .. } => "TypeMismatch",
        HpdError::UnknownColumn(_) => "UnknownColumn",
        HpdError::UnknownTable(_) => "UnknownTable",
        HpdError::UnknownIndex(_) => "UnknownIndex",
        HpdError::DuplicateIndex(_) => "DuplicateIndex",
        HpdError::DuplicateTable(_) => "DuplicateTable",
        HpdError::Constraint(_) => "Constraint",
        HpdError::InvalidQuery(_) => "InvalidQuery",
        HpdError::OutOfMemoryGrant { .. } => "OutOfMemoryGrant",
        HpdError::GrantWaitTimeout { .. } => "GrantWaitTimeout",
        HpdError::LockTimeout(_) => "LockTimeout",
        HpdError::SerializationFailure(_) => "SerializationFailure",
        HpdError::FaultInjected(_) => "FaultInjected",
        HpdError::Crashed(_) => "Crashed",
        HpdError::Internal(_) => "Internal",
    }
}

/// Is a commit that died at this crash site durable? The site names the
/// engine's contract: anything at or after the commit-record flush survives
/// recovery, anything before it is lost.
fn crash_durable(site: &str) -> bool {
    site == faults::sites::CRASH_AFTER_COMMIT_FLUSH || site == faults::sites::CRASH_IN_CHECKPOINT
}

pub(crate) fn normalize_rows(rows: &[hpd_common::Row]) -> Vec<Vec<i64>> {
    let mut out: Vec<Vec<i64>> = rows
        .iter()
        .map(|r| {
            r.values()
                .iter()
                .map(|v| v.as_i64().unwrap_or(i64::MIN))
                .collect()
        })
        .collect();
    out.sort_unstable();
    out
}

fn expected_rows(e: &Expected) -> Vec<Vec<i64>> {
    match e {
        Expected::Rows(rows) => {
            let mut rows = rows.clone();
            rows.sort_unstable();
            rows
        }
        Expected::Count(n) => vec![vec![*n]],
    }
}

/// Workload-manager overrides for harness databases. The defaults leave the
/// seed configuration untouched; a CI run sets a tiny worker-pool and grant
/// budget so every history executes under broker admission (grants clamped
/// to the budget, reduced grants driving the spill path) while staying
/// deterministic — the lockstep driver is single-threaded per seed, so the
/// FIFO broker never actually blocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Override the engine-wide extra-worker-thread budget.
    pub pool_threads: Option<usize>,
    /// Override the serial plans' `max_dop`: results may not depend on it.
    pub dop: Option<usize>,
    /// Override the total shared memory-grant budget in bytes.
    pub grant_budget: Option<usize>,
    /// Drive every statement through the SQL front-end: render the op as
    /// SQL text, lower it through parse/bind, require the lowering to match
    /// the hand-built AST exactly (a mismatch is a divergence), and execute
    /// the SQL-derived statement. The executed statements are identical to
    /// the non-SQL mode's, so fingerprints are unchanged.
    pub sql: bool,
    /// Race background compaction against the schedule: after every
    /// executed step, each design runs one small budgeted maintenance
    /// increment through `db.maintenance(...)` with the step's plan faults
    /// re-armed around it, so incremental reorganization interleaves with
    /// (and crashes against) every commit position. Deterministic — the
    /// increments run inline on the driver thread, not a scheduler thread.
    pub bg_maintenance: bool,
}

/// A small, deterministic database: tiny rowgroups and an aggressive
/// delete-buffer threshold so harness-sized histories cross tuple-mover and
/// compaction boundaries, serial plans (unless `--dop` says otherwise), and
/// a short lock timeout so the
/// single-threaded driver resolves genuine lock conflicts quickly instead
/// of stalling.
pub(crate) fn harness_db_config(opts: &RunOptions) -> DbConfig {
    let mut cfg = DbConfig {
        csi: CsiConfig {
            rowgroup_capacity: 32,
            delete_buffer_compact_threshold: 8,
            ..CsiConfig::default()
        },
        max_dop: 1,
        lock_timeout: Duration::from_millis(2),
        ..DbConfig::default()
    };
    // A short fuzzy-checkpoint interval so harness-sized histories exercise
    // the checkpoint/truncate path and the in-checkpoint crash site.
    cfg.wal.checkpoint_every_commits = 4;
    if let Some(t) = opts.pool_threads {
        cfg.worker_threads = t;
    }
    if let Some(d) = opts.dop {
        cfg.max_dop = d;
    }
    if let Some(b) = opts.grant_budget {
        cfg.total_grant_bytes = b.max(1);
        // Keep reduced grants usable when the whole budget is tiny.
        cfg.min_grant_bytes = cfg.min_grant_bytes.min(cfg.total_grant_bytes);
    }
    cfg
}

fn build_database(design: usize, plan: &Plan, opts: &RunOptions) -> Database {
    let db = Database::new(harness_db_config(opts));
    create_design_table(&db, design, plan.history.initial_rows);
    db.load_table(TABLE, history::initial_rows(plan.seed, &plan.history))
        .expect("load initial rows");
    db
}

/// Full-table scan used by the end-of-run quiescent check.
fn full_scan() -> Statement {
    Statement::Select(SelectQuery {
        tables: vec![TableInput::with_predicate(
            TABLE,
            Expr::between(COL_K, Value::Int32(i32::MIN), Value::Int32(i32::MAX)),
        )],
        select: vec![
            hpd_engine::ColRef::new(0, 0),
            hpd_engine::ColRef::new(0, 1),
            hpd_engine::ColRef::new(0, 2),
        ],
        order_by: vec![(0, true)],
        ..Default::default()
    })
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn fnv_rows(hash: &mut u64, rows: &[Vec<i64>]) {
    for row in rows {
        for v in row {
            fnv1a(hash, &v.to_le_bytes());
        }
        fnv1a(hash, b";");
    }
}

fn fnv_out(hash: &mut u64, out: &StmtOut) {
    match out {
        StmtOut::Rows(rows) => fnv_rows(hash, rows),
        StmtOut::Err(k) => fnv1a(hash, k.as_bytes()),
    }
}

/// Execute a plan and differentially check it. Deterministic: the same plan
/// (and the same always-on fault sites) produces the same [`Outcome`],
/// fingerprint included.
pub fn run_plan(plan: &Plan) -> Outcome {
    run_plan_with(plan, &RunOptions::default())
}

/// [`run_plan`] with workload-manager overrides (see [`RunOptions`]).
pub fn run_plan_with(plan: &Plan, opts: &RunOptions) -> Outcome {
    // A previous run may have left unfired charges behind if it stopped at
    // a divergence; always-on sites (deliberate-bug knobs) are preserved.
    faults::reset_charges();
    let fired_before = faults::fired_total();

    let dbs: Vec<Database> = (0..DESIGNS.len())
        .map(|d| build_database(d, plan, opts))
        .collect();
    let mut refm = RefModel::new(
        history::initial_rows(plan.seed, &plan.history)
            .iter()
            .map(|r| {
                let v = r.values();
                (
                    v[0].as_i32().unwrap(),
                    v[1].as_i32().unwrap(),
                    v[2].as_i32().unwrap(),
                )
            })
            .collect::<Vec<_>>(),
    );

    // handles[txn][design]; declared after `dbs` so borrows drop first.
    let mut handles: Vec<Vec<Option<Txn<'_>>>> = (0..plan.txns.len())
        .map(|_| (0..DESIGNS.len()).map(|_| None).collect())
        .collect();
    let mut next_step = vec![0usize; plan.txns.len()];
    let mut dead = vec![false; plan.txns.len()];
    let mut stats = RunStats::default();
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    let mut verdict = Verdict::Pass;
    // Set when a plan-armed crash site fires inside a commit: the schedule
    // position and whether the dying commit is durable per the site's
    // contract. Ends the schedule; recovery takes over after the loop.
    let mut crashed_at: Option<(usize, bool)> = None;

    'schedule: for (pos, &t) in plan.schedule.iter().enumerate() {
        let step = next_step[t];
        next_step[t] += 1;
        if dead[t] {
            // The transaction failed earlier; its remaining occurrences are
            // skipped on every design equally, keeping timestamps aligned.
            continue;
        }
        let spec = &plan.txns[t];

        if step == 0 {
            refm.begin(t, spec.isolation);
            for (d, db) in dbs.iter().enumerate() {
                handles[t][d] = Some(db.session(spec.isolation).begin());
            }
        }

        if step < spec.ops.len() {
            let op = &spec.ops[step];
            if matches!(op, MixedOp::Maintenance) {
                for db in &dbs {
                    for f in plan.faults_at(pos) {
                        faults::arm(f.site(), 1);
                    }
                    let r = db.maintenance(TABLE).full().run();
                    faults::reset_charges();
                    // Any non-crash error (e.g. an injected grant timeout)
                    // aborts the pass identically on every design; the
                    // table is untouched, so the run just moves on.
                    if let Err(HpdError::Crashed(_)) = r {
                        // Maintenance is logically a no-op, so the dying
                        // pass has no commit to settle — recovery must
                        // reproduce the committed state as-is.
                        crashed_at = Some((pos, true));
                        break 'schedule;
                    }
                }
                continue;
            }

            stats.ops_attempted += 1;
            let expected = refm.execute(t, op);
            let stmt = op.to_statement(TABLE).expect("non-maintenance op");
            let stmt = if opts.sql {
                let text = op.to_sql(TABLE).expect("non-maintenance op");
                match lower_sql(&dbs[0], &text) {
                    Ok(lowered) => {
                        // The front-end must lower the text to the exact
                        // AST the workload generator hand-builds.
                        let (l, h) = (format!("{lowered:?}"), format!("{stmt:?}"));
                        if l != h {
                            verdict = divergence(
                                pos,
                                t,
                                format!(
                                    "SQL lowering differs from the hand-built AST\n  \
                                     sql: {text}\n  lowered: {l}\n  hand-built: {h}"
                                ),
                            );
                            break 'schedule;
                        }
                        lowered
                    }
                    Err(e) => {
                        verdict = divergence(
                            pos,
                            t,
                            format!("SQL failed to parse/bind\n  sql: {text}\n  error: {e}"),
                        );
                        break 'schedule;
                    }
                }
            } else {
                stmt
            };
            let mut outs: Vec<StmtOut> = Vec::with_capacity(DESIGNS.len());
            for h in handles[t].iter_mut() {
                for f in plan.faults_at(pos) {
                    faults::arm(f.site(), 1);
                }
                let r = h.as_mut().expect("open txn").execute(&stmt);
                faults::reset_charges();
                outs.push(match r {
                    Ok(res) => StmtOut::Rows(normalize_rows(&res.rows)),
                    Err(e) => StmtOut::Err(err_kind(&e)),
                });
            }
            for o in &outs {
                fnv_out(&mut hash, o);
            }

            let all_err = outs.iter().all(|o| matches!(o, StmtOut::Err(_)));
            if outs.iter().any(|o| o != &outs[0]) {
                verdict = divergence(pos, t, cross_design_report(op, &outs, Some(&expected)));
                break 'schedule;
            }
            if all_err {
                // Same failure everywhere (lock timeout, SI conflict,
                // injected fault): a legitimate outcome, not a divergence.
                // The transaction dies on every design and in the model.
                abort_txn(&mut handles[t]);
                refm.discard(t);
                dead[t] = true;
                stats.txns_aborted += 1;
                continue;
            }
            let exp = expected_rows(&expected);
            if outs[0] != StmtOut::Rows(exp.clone()) {
                verdict = divergence(
                    pos,
                    t,
                    format!(
                        "designs agree but disagree with the reference model\n  op: {op:?}\n  \
                         designs: {:?}\n  reference: {exp:?}",
                        outs[0]
                    ),
                );
                break 'schedule;
            }
        } else {
            // Finale.
            if spec.commit {
                // Mirror the engines: a commit attempt burns a timestamp
                // even when validation or an injected fault rejects it.
                let commit_ts = refm.commit_ts();
                let mut results: Vec<Result<(), &'static str>> = Vec::with_capacity(DESIGNS.len());
                let mut crash_durable_here: Option<bool> = None;
                for h in handles[t].iter_mut() {
                    for f in plan.faults_at(pos) {
                        faults::arm(f.site(), 1);
                    }
                    let r = h.take().expect("open txn").commit();
                    faults::reset_charges();
                    if let Err(HpdError::Crashed(site)) = &r {
                        crash_durable_here = Some(crash_durable(site));
                    }
                    results.push(r.map(|_| ()).map_err(|e| err_kind(&e)));
                }
                for r in &results {
                    fnv1a(&mut hash, r.err().unwrap_or("ok").as_bytes());
                }
                if results.iter().any(|r| r != &results[0]) {
                    verdict = divergence(
                        pos,
                        t,
                        format!("commit outcomes differ across designs: {results:?}"),
                    );
                    break 'schedule;
                }
                if let Some(durable) = crash_durable_here {
                    // The process dies mid-commit on every design. Settle
                    // the committing transaction in the model per the crash
                    // site's durability contract and leave the schedule.
                    if durable {
                        refm.apply_commit(t, commit_ts);
                        stats.txns_committed += 1;
                    } else {
                        refm.discard(t);
                        stats.txns_aborted += 1;
                    }
                    crashed_at = Some((pos, durable));
                    break 'schedule;
                }
                if results[0].is_ok() {
                    refm.apply_commit(t, commit_ts);
                    stats.txns_committed += 1;
                } else {
                    refm.discard(t);
                    stats.txns_aborted += 1;
                }
            } else {
                abort_txn(&mut handles[t]);
                refm.discard(t);
                stats.txns_aborted += 1;
            }
        }

        // Background compaction racing the schedule: one budgeted increment
        // per design after the step, under the same fault arming.
        if opts.bg_maintenance && bg_maintenance_step(&dbs, plan, pos) {
            crashed_at = Some((pos, true));
            break 'schedule;
        }
    }

    // Crash epilogue: everything volatile died with the process — open
    // transactions are implicitly aborted on every design and in the model.
    // Each design then recovers a fresh database from its durable WAL bytes
    // alone, and the recovered state must equal the model's committed state.
    if let Some((crash_pos, _)) = crashed_at {
        stats.crashes += 1;
        for (tx, handle) in handles.iter_mut().enumerate() {
            if handle.iter().any(Option::is_some) {
                abort_txn(handle);
                refm.discard(tx);
                stats.txns_aborted += 1;
            }
        }
        let expected = refm.committed_rows();
        let stmt = full_scan();
        for (d, db) in dbs.iter().enumerate() {
            let recovered = Database::recover(harness_db_config(opts), db.wal_durable())
                .expect("recovery from durable WAL state");
            let r = recovered
                .session(IsolationLevel::ReadCommitted)
                .run(&stmt)
                .expect("post-recovery scan");
            let rows = normalize_rows(&r.rows);
            fnv_rows(&mut hash, &rows);
            if !verdict.diverged() && rows != expected {
                verdict = divergence(
                    crash_pos,
                    usize::MAX,
                    format!(
                        "post-recovery state of design `{}` differs from the committed \
                         reference\n  design has {} rows, reference {}\n  \
                         design:    {:?}\n  reference: {:?}",
                        DESIGNS[d],
                        rows.len(),
                        expected.len(),
                        diff_sample(&rows, &expected),
                        diff_sample(&expected, &rows),
                    ),
                );
            }
        }
    }

    // Quiescent check: with every transaction finished, the committed table
    // state must be byte-identical across designs and equal to the model.
    if crashed_at.is_none() && !verdict.diverged() {
        let stmt = full_scan();
        let finals: Vec<Vec<Vec<i64>>> = dbs
            .iter()
            .map(|db| {
                let r = db
                    .session(IsolationLevel::ReadCommitted)
                    .run(&stmt)
                    .expect("quiescent scan");
                normalize_rows(&r.rows)
            })
            .collect();
        let expected = refm.committed_rows();
        for (d, rows) in finals.iter().enumerate() {
            fnv_rows(&mut hash, rows);
            if verdict.diverged() {
                continue;
            }
            if rows != &expected {
                verdict = divergence(
                    usize::MAX,
                    usize::MAX,
                    format!(
                        "final state of design `{}` differs from the reference model\n  \
                         design has {} rows, reference {}\n  design:    {:?}\n  reference: {:?}",
                        DESIGNS[d],
                        rows.len(),
                        expected.len(),
                        diff_sample(rows, &expected),
                        diff_sample(&expected, rows),
                    ),
                );
            }
        }
    }

    stats.faults_fired = faults::fired_total() - fired_before;
    publish(&stats, verdict.diverged());

    Outcome {
        verdict,
        stats,
        fingerprint: hash,
    }
}

/// Row budget of each racing-compaction increment: below the harness
/// rowgroup capacity (32), so increments routinely stop mid-backlog and the
/// next one must resume exactly.
const BG_MAINT_BUDGET: usize = 24;

/// One racing-compaction increment per design, with the step's plan faults
/// re-armed around each increment (the statement already consumed its own
/// charges) and the budget-shrink fault mixed in on a fixed cadence.
/// Returns true when a crash site fired inside an increment — the caller
/// ends the schedule and runs the standard crash epilogue, which works
/// unchanged because maintenance never alters logical contents.
fn bg_maintenance_step(dbs: &[Database], plan: &Plan, pos: usize) -> bool {
    for db in dbs {
        for f in plan.faults_at(pos) {
            faults::arm(f.site(), 1);
        }
        if pos % 7 == 3 {
            faults::arm(faults::sites::MAINT_STEP_SHRINK, 1);
        }
        let r = db.maintenance(TABLE).budget_rows(BG_MAINT_BUDGET).run();
        faults::reset_charges();
        if matches!(r, Err(HpdError::Crashed(_))) {
            return true;
        }
    }
    false
}

fn divergence(step: usize, txn: usize, detail: String) -> Verdict {
    Verdict::Divergence(Box::new(Divergence { step, txn, detail }))
}

fn abort_txn(handles: &mut [Option<Txn<'_>>]) {
    for h in handles.iter_mut() {
        if let Some(txn) = h.take() {
            txn.abort();
        }
    }
}

/// Rows present in `a` but not `b` (first few), to keep reports readable.
fn diff_sample(a: &[Vec<i64>], b: &[Vec<i64>]) -> Vec<Vec<i64>> {
    a.iter()
        .filter(|r| !b.contains(r))
        .take(8)
        .cloned()
        .collect()
}

fn cross_design_report(op: &MixedOp, outs: &[StmtOut], expected: Option<&Expected>) -> String {
    use std::fmt::Write;
    let mut s = format!("designs disagree on statement result\n  op: {op:?}\n");
    for (d, o) in outs.iter().enumerate() {
        let _ = writeln!(s, "  {:>6}: {o:?}", DESIGNS[d]);
    }
    if let Some(e) = expected {
        let _ = writeln!(s, "  reference: {:?}", expected_rows(e));
    }
    s
}

/// Surface run counters through the engine-wide observability registry.
fn publish(stats: &RunStats, diverged: bool) {
    let reg = hpd_obs::global();
    reg.counter("harness.runs").inc();
    reg.counter("harness.ops.attempted")
        .add(stats.ops_attempted);
    reg.counter("harness.txns.committed")
        .add(stats.txns_committed);
    reg.counter("harness.txns.aborted").add(stats.txns_aborted);
    reg.counter("harness.faults.fired").add(stats.faults_fired);
    reg.counter("harness.crash_recoveries").add(stats.crashes);
    if diverged {
        reg.counter("harness.divergences").inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanConfig;

    #[test]
    fn small_plan_runs_clean() {
        let cfg = PlanConfig {
            history: hpd_workloads::HistoryConfig {
                txns: 4,
                max_ops: 4,
                initial_rows: 24,
                ..Default::default()
            },
            concurrency: 2,
            fault_rate: 0.0,
        };
        let plan = Plan::generate(42, &cfg);
        let out = run_plan(&plan);
        assert_eq!(out.verdict, Verdict::Pass, "{:?}", out.verdict);
        assert!(out.stats.ops_attempted > 0);
    }

    #[test]
    fn runs_are_bit_reproducible() {
        let cfg = PlanConfig {
            history: hpd_workloads::HistoryConfig {
                txns: 6,
                max_ops: 4,
                initial_rows: 32,
                ..Default::default()
            },
            concurrency: 3,
            fault_rate: 0.1,
        };
        let plan = Plan::generate(7, &cfg);
        let a = run_plan(&plan);
        let b = run_plan(&plan);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.stats, b.stats);
    }
}
