//! Per-connection SQL sessions.
//!
//! One engine, N sessions: each [`SqlSession`] borrows the shared
//! [`Database`] and holds its own isolation level and (at most one) open
//! transaction; concurrency control and memory admission stay in the
//! engine (lock manager, GrantBroker). Sessions on the same engine usually
//! share one [`PlanCache`] via [`SqlSession::with_cache`].

use std::sync::Arc;

use hpd_common::{HpdError, Result, Row, Value};
use hpd_engine::table::Table;
use hpd_engine::{Database, IsolationLevel, Statement, Txn};

use crate::binder::{bind, output_names, Bound};
use crate::cache::PlanCache;
use crate::error::{SqlError, SqlErrorKind, SqlResult};
use crate::lexer::split_statements;
use crate::metrics;

/// Result of one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlOutput {
    /// SELECT results with the output column names.
    Rows {
        columns: Vec<String>,
        rows: Vec<Row>,
    },
    /// Rows touched by INSERT/UPDATE/DELETE.
    Affected(u64),
    /// Statement with no result set (BEGIN, COMMIT, DDL, ...), tagged with
    /// its command word.
    Command(&'static str),
}

/// A prepared statement: parse once, execute many times with different
/// parameter values. Binding still happens per execute (against the live
/// catalog), which is what makes DDL between executes safe.
#[derive(Debug, Clone)]
pub struct Prepared {
    template: crate::ast::SqlStatement,
    /// `Some(v)`: literal captured at prepare; `None`: caller-supplied.
    slots: Option<Vec<Option<Value>>>,
    columns: Vec<String>,
}

/// One client session over a shared engine.
pub struct SqlSession<'db> {
    db: &'db Database,
    cache: Arc<PlanCache>,
    isolation: IsolationLevel,
    txn: Option<Txn<'db>>,
}

impl<'db> SqlSession<'db> {
    /// Open a session with a private plan cache.
    pub fn new(db: &'db Database) -> SqlSession<'db> {
        SqlSession::with_cache(db, Arc::new(PlanCache::new(256)))
    }

    /// Open a session sharing `cache` with other sessions on this engine.
    pub fn with_cache(db: &'db Database, cache: Arc<PlanCache>) -> SqlSession<'db> {
        metrics().session_opened.inc();
        SqlSession {
            db,
            cache,
            isolation: IsolationLevel::ReadCommitted,
            txn: None,
        }
    }

    pub fn isolation(&self) -> IsolationLevel {
        self.isolation
    }

    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Execute a script: every `;`-separated statement in order, stopping
    /// at (and returning) the first error.
    pub fn execute(&mut self, script: &str) -> Result<Vec<SqlOutput>> {
        let parts = split_statements(script).map_err(HpdError::from)?;
        let mut out = Vec::with_capacity(parts.len());
        for (text, base) in parts {
            out.push(self.execute_one_at(&text, base)?);
        }
        Ok(out)
    }

    /// Execute a single statement.
    pub fn execute_one(&mut self, text: &str) -> Result<SqlOutput> {
        self.execute_one_at(text, 0)
    }

    fn execute_one_at(&mut self, text: &str, base_offset: usize) -> Result<SqlOutput> {
        let m = metrics();
        m.statements.inc();
        let prepared = {
            let _t = m.parse_us.start_timer();
            self.prepare(text).map_err(|e| {
                m.parse_errors.inc();
                HpdError::from(e.offset_by(base_offset))
            })?
        };
        self.execute_prepared(&prepared, &[])
    }

    /// Parse (through the shared plan cache) without executing.
    pub fn prepare(&self, text: &str) -> SqlResult<Prepared> {
        let (template, slots) = self.cache.lookup(self.db, text)?;
        let columns = match &template {
            crate::ast::SqlStatement::Select(q) => output_names(self.db, q),
            _ => Vec::new(),
        };
        Ok(Prepared {
            template,
            slots,
            columns,
        })
    }

    /// Execute a prepared statement with `params` bound to its `?`
    /// placeholders, in order.
    pub fn execute_prepared(&mut self, p: &Prepared, params: &[Value]) -> Result<SqlOutput> {
        let filled = fill_params(&p.slots, params).map_err(HpdError::from)?;
        let bound = bind(self.db, &p.template, &filled).map_err(|e| {
            metrics().parse_errors.inc();
            HpdError::from(e)
        })?;
        self.dispatch(bound, &p.columns)
    }

    fn dispatch(&mut self, bound: Bound, columns: &[String]) -> Result<SqlOutput> {
        let m = metrics();
        match bound {
            Bound::Stmt(stmt) => {
                let is_select = matches!(stmt, Statement::Select(_));
                let result = match &mut self.txn {
                    Some(txn) => txn.execute(&stmt)?,
                    None => self.db.query(&stmt).isolation(self.isolation).run()?,
                };
                if is_select {
                    Ok(SqlOutput::Rows {
                        columns: columns.to_vec(),
                        rows: result.rows,
                    })
                } else {
                    let n = result
                        .rows
                        .first()
                        .and_then(|r| r.values().first())
                        .and_then(Value::as_i64)
                        .unwrap_or(0);
                    Ok(SqlOutput::Affected(n as u64))
                }
            }
            Bound::Begin(level) => {
                if self.txn.is_some() {
                    return Err(HpdError::InvalidQuery(
                        "BEGIN inside an open transaction".into(),
                    ));
                }
                let iso = level.unwrap_or(self.isolation);
                self.txn = Some(self.db.session(iso).begin());
                m.txn_begin.inc();
                Ok(SqlOutput::Command("BEGIN"))
            }
            Bound::Commit => match self.txn.take() {
                Some(txn) => {
                    txn.commit()?;
                    m.txn_commit.inc();
                    Ok(SqlOutput::Command("COMMIT"))
                }
                None => Err(HpdError::InvalidQuery(
                    "COMMIT with no open transaction".into(),
                )),
            },
            Bound::Rollback => match self.txn.take() {
                Some(txn) => {
                    txn.abort();
                    m.txn_rollback.inc();
                    Ok(SqlOutput::Command("ROLLBACK"))
                }
                None => Err(HpdError::InvalidQuery(
                    "ROLLBACK with no open transaction".into(),
                )),
            },
            Bound::SetIsolation(level) => {
                if self.txn.is_some() {
                    return Err(HpdError::InvalidQuery(
                        "SET ISOLATION inside an open transaction".into(),
                    ));
                }
                self.isolation = level;
                Ok(SqlOutput::Command("SET ISOLATION"))
            }
            Bound::CreateTable {
                name,
                schema,
                pk,
                primary,
                spec,
            } => {
                match spec {
                    Some(spec) => self
                        .db
                        .create_partitioned_table(name, schema, pk, primary, spec)?,
                    None => self.db.create_table(name, schema, pk, primary)?,
                }
                Ok(SqlOutput::Command("CREATE TABLE"))
            }
            Bound::CreateIndex { table, descriptor } => {
                self.db.create_index(&table, &descriptor)?;
                Ok(SqlOutput::Command("CREATE INDEX"))
            }
            Bound::DropIndex { table, ordinal } => {
                // Each part's index list; the ordinal counts the first
                // part's, primary at 0.
                let designs = self.db.with_table(&table, Table::designs)?;
                // The ordinal names one index only while every part has the
                // same secondaries; designs that differ are never flattened.
                if designs.iter().any(|d| d[1..] != designs[0][1..]) {
                    return Err(HpdError::InvalidQuery(format!(
                        "the partitions of table '{table}' have different secondary indexes; \
                         re-tune them one at a time with apply_partition_design"
                    )));
                }
                if ordinal == 0 || ordinal >= designs[0].len() {
                    return Err(HpdError::InvalidQuery(format!(
                        "table '{table}' has {} secondary indexes; cannot drop #{ordinal}",
                        designs[0].len() - 1
                    )));
                }
                // One logged operation: every part keeps its own primary and
                // loses the index, or (had a concurrent change already taken
                // it from some part) none does.
                self.db.drop_index(&table, &designs[0][ordinal])?;
                Ok(SqlOutput::Command("DROP INDEX"))
            }
        }
    }
}

impl Drop for SqlSession<'_> {
    fn drop(&mut self) {
        // An open transaction dies with its session.
        if let Some(txn) = self.txn.take() {
            txn.abort();
        }
    }
}

/// Merge captured literal slots with caller-supplied parameters.
fn fill_params(slots: &Option<Vec<Option<Value>>>, user: &[Value]) -> SqlResult<Vec<Value>> {
    match slots {
        // Template was parsed from the original text: its params are
        // exactly the caller's.
        None => Ok(user.to_vec()),
        Some(slots) => {
            let open = slots.iter().filter(|s| s.is_none()).count();
            if user.len() < open {
                return Err(SqlError::new(
                    SqlErrorKind::MissingParameter,
                    0,
                    format!("statement takes {open} parameters, {} supplied", user.len()),
                ));
            }
            let mut user_iter = user.iter();
            Ok(slots
                .iter()
                .map(|s| match s {
                    Some(v) => v.clone(),
                    None => user_iter.next().cloned().expect("counted above"),
                })
                .collect())
        }
    }
}

/// Human-readable per-partition summary for the CLI's `\partitions`
/// meta-command: the partitioning spec, then each partition's physical
/// design, row count, and (for columnstore partitions) heat score totals.
pub fn partitions_report(db: &Database, table: &str) -> Result<String> {
    let heat: std::collections::HashMap<String, u64> = db
        .heat_report()
        .into_iter()
        .filter(|(t, _, _)| t == table)
        .map(|(_, index, rep)| {
            (
                index,
                rep.rowgroups.iter().map(|rg| rg.score()).sum::<u64>(),
            )
        })
        .collect();
    db.with_table(table, |t| {
        let mut out = String::new();
        match t.partitioning() {
            Some(spec) => out.push_str(&format!("{table}: {}\n", spec.describe())),
            None => out.push_str(&format!("{table}: unpartitioned\n")),
        }
        let partitioned = t.num_parts() > 1;
        for p in 0..t.num_parts() {
            let part = t.part(p);
            let design: Vec<String> = (part.indexes().iter())
                .map(|index| index.descriptor().display(t.schema()))
                .collect();
            let label = |kind: &str| {
                if partitioned {
                    format!("p{p}.{kind}")
                } else {
                    kind.to_string()
                }
            };
            let mut heat_note = String::new();
            for kind in ["primary", "secondary"] {
                if let Some(score) = heat.get(&label(kind)) {
                    heat_note.push_str(&format!(" {kind}_heat={score}"));
                }
            }
            out.push_str(&format!(
                "  p{p}: rows={} design=[{}]{}\n",
                part.row_count(),
                design.join(", "),
                heat_note
            ));
        }
        out
    })
}
