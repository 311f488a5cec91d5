//! SQL front-end over the engine's typed query AST.
//!
//! Pipeline: text → [`lexer`] → [`parser`] (name-based AST, byte-offset
//! diagnostics) → [`binder`] (catalog resolution, literal coercion,
//! WHERE-conjunct splitting into per-table predicates and equi-joins) →
//! [`hpd_engine::Statement`] → optimizer/executor. The [`cache`] module
//! adds a prepared-statement plan cache keyed on normalized text, and
//! [`session`] the per-connection layer (isolation, open transaction)
//! that N concurrent clients use against one engine. The `hpd-cli` binary
//! wraps it all in a REPL.
//!
//! Everything observable is counted: `sql.statements`, `sql.parse.errors`,
//! `sql.parse_us`, `sql.plancache.{hit,miss,invalidate}`,
//! `session.{opened,txn.begin,txn.commit,txn.rollback}` (see
//! OBSERVABILITY.md).

pub mod ast;
pub mod binder;
pub mod cache;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod session;

pub use ast::{SqlSelect, SqlStatement};
pub use binder::{bind, Bound};
pub use cache::{normalize, NormalizedSql, PlanCache};
pub use error::{SqlError, SqlErrorKind, SqlResult};
pub use lexer::split_statements;
pub use parser::{parse, parse_with_param_count};
pub use session::{partitions_report, Prepared, SqlOutput, SqlSession};

use std::sync::OnceLock;

use hpd_obs::{global, Counter, Histogram};

/// Handles to the front-end's global metrics, fetched once.
pub(crate) struct Metrics {
    pub statements: Counter,
    pub parse_errors: Counter,
    pub parse_us: Histogram,
    pub cache_hit: Counter,
    pub cache_miss: Counter,
    pub cache_invalidate: Counter,
    pub session_opened: Counter,
    pub txn_begin: Counter,
    pub txn_commit: Counter,
    pub txn_rollback: Counter,
}

pub(crate) fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| Metrics {
        statements: global().counter("sql.statements"),
        parse_errors: global().counter("sql.parse.errors"),
        parse_us: global().histogram("sql.parse_us"),
        cache_hit: global().counter("sql.plancache.hit"),
        cache_miss: global().counter("sql.plancache.miss"),
        cache_invalidate: global().counter("sql.plancache.invalidate"),
        session_opened: global().counter("session.opened"),
        txn_begin: global().counter("session.txn.begin"),
        txn_commit: global().counter("session.txn.commit"),
        txn_rollback: global().counter("session.txn.rollback"),
    })
}
