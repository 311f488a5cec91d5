//! The four workloads. Each builds a loaded [`Instance`] from a seed under
//! one of three physical designs and then hands out rounds of SQL text.

use hpd_common::{Result, Row};
use hpd_engine::{Database, DbConfig, WalConfig};
use hpd_sql::SqlOutput;

pub mod dss;
pub mod htap;
pub mod scan;

/// The three physical designs the paper compares. A gated run measures
/// `Hybrid`; the baselines exist for the correctness cross-check and the
/// `core.speedup_vs_*` layer metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    Hybrid,
    BTreeOnly,
    CsiOnly,
}

impl Design {
    pub const BASELINES: [Design; 2] = [Design::BTreeOnly, Design::CsiOnly];
}

/// What a statement must return for the run to count it as served.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// A result set of exactly this many rows.
    Rows(usize),
    /// Exactly this many rows inserted, updated or deleted.
    Affected(u64),
    /// One row whose first column is this integer (an oracle-checked
    /// SUM). The engine has no NULL: a SUM over no rows is 0.
    Scalar(i64),
}

#[derive(Debug, Clone)]
pub struct Stmt {
    /// Index into [`Workload::classes`].
    pub class: usize,
    pub sql: String,
    pub expect: Expect,
}

/// A query both the live and the recovered database must answer the same
/// way after the run; `expected` is the generator's own answer where it
/// has one.
pub struct Probe {
    pub sql: String,
    pub expected: Option<Vec<Row>>,
}

/// The statement source of one instance. It owns whatever shadow state is
/// needed to know what each statement must return.
pub trait RoundGen {
    /// The next round of the fixed statement list, literals freshly drawn.
    fn next_round(&mut self) -> Vec<Stmt>;

    /// Check one result against its expectation and fold its effect into
    /// the shadow. Returns false when the statement failed its check.
    fn observe(&mut self, stmt: &Stmt, out: &SqlOutput) -> bool {
        meets(&stmt.expect, out)
    }

    fn probes(&self) -> Vec<Probe>;
}

pub fn meets(expect: &Expect, out: &SqlOutput) -> bool {
    match (expect, out) {
        (Expect::Rows(n), SqlOutput::Rows { rows, .. }) => rows.len() == *n,
        (Expect::Affected(n), SqlOutput::Affected(m)) => n == m,
        (Expect::Scalar(v), SqlOutput::Rows { rows, .. }) => {
            rows.len() == 1 && rows[0].values().first().and_then(|x| x.as_i64()) == Some(*v)
        }
        _ => false,
    }
}

/// Rows in value order. A `GROUP BY` result has no order of its own, so
/// results are compared sorted.
pub fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| a.values().cmp(b.values()));
    rows
}

pub struct Instance {
    pub db: Database,
    pub gen: Box<dyn RoundGen>,
    /// Named numbers from inside the set-up: phase durations in seconds,
    /// and on `dss` what the advisor reported.
    pub detail: Vec<(&'static str, f64)>,
}

pub trait Workload {
    fn name(&self) -> &'static str;
    /// Statement classes, in the order `Stmt::class` indexes them.
    fn classes(&self) -> &'static [&'static str];
    /// Every table the workload creates (row counts and index sizes are
    /// summed over them).
    fn tables(&self) -> &'static [&'static str];
    /// The table inline maintenance increments run against.
    fn maintenance_table(&self) -> &'static str;
    fn config(&self) -> DbConfig;
    /// Whether every run also builds both baselines and requires their
    /// answers to equal the hybrid's (the star-join workload, where three
    /// different plans answer each query).
    fn cross_design_check(&self) -> bool {
        false
    }
    /// Generate inputs from `seed`, load them and build `design`.
    fn build(&self, seed: u64, design: Design) -> Result<Instance>;
}

pub const NAMES: [&str; 4] = ["dss", "htap", "scan_hot", "scan_cold"];

pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        "dss" => Some(Box::new(dss::Dss)),
        "htap" => Some(Box::new(htap::Htap)),
        "scan_hot" => Some(Box::new(scan::Scan { cold: false })),
        "scan_cold" => Some(Box::new(scan::Scan { cold: true })),
        _ => None,
    }
}

/// The configuration every gated run shares: one client, serial plans, no
/// worker threads, WAL on with a flush per commit. Parallel plans on a
/// shared two-core box were the noise in the rejected first benchmark.
pub fn base_config() -> DbConfig {
    DbConfig {
        max_dop: 1,
        worker_threads: 0,
        // A round's statements must all still be in the ring when the
        // runner drains it at the round's end.
        query_store_capacity: 256,
        wal: WalConfig {
            enabled: true,
            sync_commit: true,
            ..WalConfig::default()
        },
        ..DbConfig::default()
    }
}
