//! The one closed-loop client every run uses: a `SqlSession` that sends a
//! round's statements one after another, times each, and drives the
//! inline maintenance increment at a fixed statement count so that counts
//! repeat exactly.

use std::sync::Arc;
use std::time::Instant;

use hpd_engine::Database;
use hpd_sql::{PlanCache, SqlOutput, SqlSession};

use crate::noise::SchedStat;
use crate::workloads::{RoundGen, Stmt};

/// One inline `db.maintenance(t).budget_rows(4096).run()` after this many
/// statements.
pub const MAINTENANCE_EVERY: usize = 200;
pub const MAINTENANCE_BUDGET_ROWS: usize = 4096;

/// What one round cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    pub statements: usize,
    pub wall_ns: u64,
    /// On-CPU time of the process over the round (scheduler accounting).
    pub cpu_ns: u64,
    /// Sum of `StoredStatement.elapsed_us` the round left in the query
    /// store (critical-path compute plus *simulated* device time), and
    /// how many entries that was.
    pub modelled_us: f64,
    pub modelled_entries: usize,
}

/// Running totals of a client.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    /// Statements that returned `Err` (lock or grant timeout, any other
    /// error).
    pub failed: u64,
    /// Statements that returned `Ok` with the wrong answer.
    pub wrong: u64,
    pub first_problem: Option<String>,
    pub maintenance_increments: u64,
}

impl Tally {
    pub fn note_problem(&mut self, what: String) {
        self.first_problem.get_or_insert(what);
    }

    /// Count a round's results: `Err` is a failed statement, an answer the
    /// generator does not expect a wrong one. Run after the round's clock
    /// has stopped.
    pub fn check(
        &mut self,
        gen: &mut dyn RoundGen,
        stmts: &[Stmt],
        outputs: Vec<hpd_common::Result<SqlOutput>>,
    ) {
        for (stmt, out) in stmts.iter().zip(outputs) {
            self.attempted += 1;
            match out {
                Err(e) => {
                    self.failed += 1;
                    self.note_problem(format!("`{}` failed: {e}", stmt.sql));
                }
                Ok(out) => {
                    if !gen.observe(stmt, &out) {
                        self.wrong += 1;
                        self.note_problem(format!(
                            "`{}` returned {}, expected {:?}",
                            stmt.sql,
                            summarize(&out),
                            stmt.expect
                        ));
                    }
                }
            }
        }
    }
}

/// Statements sent, failed and answered wrongly over every client of a
/// run, with each client's first problem.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub problems: Vec<String>,
}

impl Counts {
    pub fn add(&mut self, tally: &Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        self.wrong += tally.wrong;
        self.problems.extend(tally.first_problem.clone());
    }
}

pub struct Client<'db> {
    db: &'db Database,
    session: SqlSession<'db>,
    maintenance_table: &'static str,
    since_maintenance: usize,
    next_store_seq: u64,
    last_round: Vec<Stmt>,
    pub tally: Tally,
}

impl<'db> Client<'db> {
    pub fn new(db: &'db Database, maintenance_table: &'static str) -> Client<'db> {
        Client {
            db,
            session: SqlSession::with_cache(db, Arc::new(PlanCache::new(256))),
            maintenance_table,
            since_maintenance: 0,
            next_store_seq: 0,
            last_round: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// The statements of the most recent round, all executed: texts the
    /// probes can lex, bind and plan again without changing the database.
    pub fn last_round(&self) -> &[Stmt] {
        &self.last_round
    }

    fn maintenance_increment(&mut self) {
        let report = self
            .db
            .maintenance(self.maintenance_table)
            .budget_rows(MAINTENANCE_BUDGET_ROWS)
            .run();
        if let Err(e) = report {
            self.tally
                .note_problem(format!("maintenance increment failed: {e}"));
        }
        self.tally.maintenance_increments += 1;
    }

    /// Send the generator's next round. `latencies`, when given, receives
    /// `(class, ns)` per statement.
    pub fn run_round(
        &mut self,
        gen: &mut dyn RoundGen,
        latencies: Option<&mut Vec<(u16, u64)>>,
    ) -> Round {
        let stmts = gen.next_round();
        self.run_statements(gen, stmts, latencies)
    }

    /// Send one round of statements. Results are checked after the
    /// round's clock has stopped.
    pub fn run_statements(
        &mut self,
        gen: &mut dyn RoundGen,
        stmts: Vec<Stmt>,
        mut latencies: Option<&mut Vec<(u16, u64)>>,
    ) -> Round {
        // Whatever anyone recorded before this round is not this round's.
        self.next_store_seq = self
            .db
            .query_store()
            .recent()
            .last()
            .map_or(0, |s| s.seq + 1);
        let mut outputs = Vec::with_capacity(stmts.len());
        let cpu_before = SchedStat::read();
        let start = Instant::now();
        for stmt in &stmts {
            let t = Instant::now();
            let out = self.session.execute_one(&stmt.sql);
            let ns = t.elapsed().as_nanos() as u64;
            if let Some(sink) = latencies.as_deref_mut() {
                sink.push((stmt.class as u16, ns));
            }
            outputs.push(out);
            self.since_maintenance += 1;
            if self.since_maintenance == MAINTENANCE_EVERY {
                self.since_maintenance = 0;
                self.maintenance_increment();
            }
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        let cpu_ns = SchedStat::read().since(cpu_before).on_cpu_ns;
        let (modelled_us, modelled_entries) = self.drain_query_store();
        self.tally.check(gen, &stmts, outputs);
        let statements = stmts.len();
        self.last_round = stmts;
        Round {
            statements,
            wall_ns,
            cpu_ns,
            modelled_us,
            modelled_entries,
        }
    }

    /// Sum the modelled time of the statements the round recorded.
    fn drain_query_store(&mut self) -> (f64, usize) {
        let recent = self.db.query_store().recent();
        if recent
            .first()
            .is_some_and(|oldest| oldest.seq > self.next_store_seq)
        {
            self.tally.note_problem(
                "the query store wrapped inside one round: modelled time is undercounted".into(),
            );
        }
        let (mut sum, mut n) = (0.0, 0);
        for s in recent.iter().filter(|s| s.seq >= self.next_store_seq) {
            sum += s.elapsed_us;
            n += 1;
        }
        (sum, n)
    }
}

fn summarize(out: &SqlOutput) -> String {
    match out {
        SqlOutput::Rows { rows, .. } if rows.len() == 1 => format!("{:?}", rows[0]),
        SqlOutput::Rows { rows, .. } => format!("{} rows", rows.len()),
        other => format!("{other:?}"),
    }
}
