//! `dss`: the paper's Section 5 question on a TPC-DS-like star schema.
//!
//! Seven star-join `SUM/COUNT … GROUP BY` queries (those of the first
//! thirteen of `tpcds::queries(_, SHAPE_SEED)` that do real work) rendered
//! to SQL text, over `tpcds::load` at the small scale (40 k + 20 k fact
//! rows, six dimensions) with facts drawn from the run's seed. The hybrid
//! instance is built from `Advisor::recommend` with its default options;
//! the baselines are the advisor in B+ tree-only mode and a columnstore on
//! every table.
//!
//! Why: optimizer join order, hash join and aggregate, columnstore scan
//! kernels and B+ tree seeks do the work; the SQL front-end, WAL and buffer
//! pool do almost none. `setup_s` here is mostly the advisor.
//!
//! The query shapes and their literals are the same for every seed. The
//! generator's literal domains do not match its dimension values (it
//! draws `d_year` from 0..5 over years 1998…), so redrawing literals per
//! seed would flip queries between empty and full joins and the seed, not
//! the code, would decide the run time.

use hpd_advisor::advisor::csi_everywhere_configuration;
use hpd_advisor::{Advisor, AdvisorOptions, DesignMode, Workload as AdvisorWorkload};
use hpd_common::{CmpOp, Expr, HpdError, Result, Row, Value};
use hpd_engine::{ColRef, Configuration, Database, DbConfig, SelectQuery};
use hpd_workloads::tpcds::{self, DsScale};
use std::time::Instant;

use super::{base_config, sorted, Design, Expect, Instance, Probe, RoundGen, Stmt, Workload};

const SHAPE_SEED: u64 = 99;
/// Which of the generator's first thirteen queries run, by position. The
/// other six are degenerate: their literals miss every dimension value
/// (see above), they return no rows in 20-50 µs, and as the cheapest
/// majority they would decide the median latency. Of these seven, three
/// take 0.5-2 ms and four 14-25 ms: an odd count, so the pooled median is
/// one query's latency (the 14 ms one) and not the gap between two.
const PICKED: [usize; 7] = [1, 2, 4, 6, 7, 11, 12];

pub const CLASSES: [&str; 7] = ["q2", "q3", "q5", "q7", "q8", "q12", "q13"];

pub struct Dss;

pub fn templates() -> Vec<(String, SelectQuery)> {
    let generated = tpcds::queries(13, SHAPE_SEED);
    PICKED.iter().map(|&i| generated[i].clone()).collect()
}

fn scale(seed: u64) -> DsScale {
    DsScale {
        seed,
        ..DsScale::small()
    }
}

fn column_name(db: &Database, q: &SelectQuery, c: ColRef) -> Result<String> {
    let table = &q.tables[c.table].name;
    db.with_table(table, |t| {
        format!("{table}.{}", t.schema().column(c.column).name)
    })
}

fn render_value(v: &Value) -> Result<String> {
    match v {
        Value::Int32(n) => Ok(n.to_string()),
        Value::Int64(n) => Ok(n.to_string()),
        Value::Date(n) => Ok(n.to_string()),
        other => Err(HpdError::Internal(format!(
            "no SQL literal form for {other:?}"
        ))),
    }
}

fn render_expr(db: &Database, q: &SelectQuery, table: usize, e: &Expr) -> Result<String> {
    let sub = |e: &Expr| render_expr(db, q, table, e);
    Ok(match e {
        Expr::Col(c) => column_name(db, q, ColRef::new(table, *c))?,
        Expr::Lit(v) => render_value(v)?,
        Expr::Cmp { op, lhs, rhs } => {
            let op = match op {
                CmpOp::Eq => "=",
                CmpOp::Ne => "<>",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            };
            format!("{} {op} {}", sub(lhs)?, sub(rhs)?)
        }
        Expr::Arith { op, lhs, rhs } => {
            format!("({} {} {})", sub(lhs)?, op.symbol(), sub(rhs)?)
        }
        Expr::And(parts) | Expr::Or(parts) => {
            let word = if matches!(e, Expr::And(_)) {
                " AND "
            } else {
                " OR "
            };
            let parts = parts.iter().map(sub).collect::<Result<Vec<_>>>()?;
            format!("({})", parts.join(word))
        }
        Expr::Not(inner) => format!("NOT ({})", sub(inner)?),
    })
}

/// Render a star-join aggregate query as SQL text: `SELECT group columns,
/// aggregates FROM fact JOIN dim ON fk = pk … WHERE local predicates GROUP
/// BY …`.
pub fn render(db: &Database, q: &SelectQuery) -> Result<String> {
    let mut select = Vec::new();
    for g in &q.group_by {
        select.push(column_name(db, q, *g)?);
    }
    for a in &q.aggregates {
        select.push(format!(
            "{:?}({})",
            a.func,
            render_expr(db, q, a.table, &a.expr)?
        ));
    }
    for c in &q.select {
        select.push(column_name(db, q, *c)?);
    }
    let mut sql = format!("SELECT {} FROM {}", select.join(", "), q.tables[0].name);
    // Table i joins through the equi-join whose right side names it.
    for (i, t) in q.tables.iter().enumerate().skip(1) {
        let j = q
            .joins
            .iter()
            .find(|j| j.right.table == i)
            .ok_or_else(|| HpdError::Internal(format!("table {} has no join", t.name)))?;
        sql.push_str(&format!(
            " JOIN {} ON {} = {}",
            t.name,
            column_name(db, q, j.left)?,
            column_name(db, q, j.right)?
        ));
    }
    let mut conjuncts = Vec::new();
    for (i, t) in q.tables.iter().enumerate() {
        if let Some(p) = &t.predicate {
            conjuncts.push(render_expr(db, q, i, p)?);
        }
    }
    if !conjuncts.is_empty() {
        sql.push_str(&format!(" WHERE {}", conjuncts.join(" AND ")));
    }
    if !q.group_by.is_empty() {
        let cols = q
            .group_by
            .iter()
            .map(|g| column_name(db, q, *g))
            .collect::<Result<Vec<_>>>()?;
        sql.push_str(&format!(" GROUP BY {}", cols.join(", ")));
    }
    Ok(sql)
}

struct DssGen {
    /// `(sql, the typed query's sorted result on this instance)`.
    queries: Vec<(String, Vec<Row>)>,
}

impl RoundGen for DssGen {
    fn next_round(&mut self) -> Vec<Stmt> {
        self.queries
            .iter()
            .enumerate()
            .map(|(class, (sql, rows))| Stmt {
                class,
                sql: sql.clone(),
                expect: Expect::Rows(rows.len()),
            })
            .collect()
    }

    fn probes(&self) -> Vec<Probe> {
        self.queries
            .iter()
            .map(|(sql, rows)| Probe {
                sql: sql.clone(),
                expected: Some(rows.clone()),
            })
            .collect()
    }
}

impl Workload for Dss {
    fn name(&self) -> &'static str {
        "dss"
    }

    fn classes(&self) -> &'static [&'static str] {
        &CLASSES
    }

    fn tables(&self) -> &'static [&'static str] {
        &tpcds::TABLES
    }

    fn maintenance_table(&self) -> &'static str {
        "store_sales"
    }

    fn config(&self) -> DbConfig {
        base_config()
    }

    fn cross_design_check(&self) -> bool {
        true
    }

    fn build(&self, seed: u64, design: Design) -> Result<Instance> {
        let templates = templates();
        let mut detail = Vec::new();

        // The advisor runs on a scratch database that is dropped before
        // the measured one is loaded: heap state it leaves behind moved
        // pass times by 40 % between processes in the rejected benchmark.
        let t = Instant::now();
        let configuration: Configuration = {
            let scratch = Database::new(self.config());
            tpcds::load(&scratch, scale(seed))?;
            let workload =
                AdvisorWorkload::read_only(templates.iter().map(|(_, q)| q.clone()).collect());
            let before = hpd_obs::global().snapshot();
            let t_rec = Instant::now();
            let configuration = match design {
                Design::Hybrid | Design::BTreeOnly => {
                    let rec = Advisor::new(
                        &scratch,
                        AdvisorOptions {
                            mode: if design == Design::Hybrid {
                                DesignMode::Hybrid
                            } else {
                                DesignMode::BTreeOnly
                            },
                            ..AdvisorOptions::default()
                        },
                    )
                    .recommend(&workload)?;
                    detail.push(("advisor_est_cost_after_us", rec.est_cost_after_us));
                    detail.push(("advisor_est_new_index_bytes", rec.new_index_bytes as f64));
                    rec.configuration
                }
                Design::CsiOnly => {
                    csi_everywhere_configuration(&scratch, &workload.referenced_tables())?
                }
            };
            detail.push(("recommend_s", t_rec.elapsed().as_secs_f64()));
            detail.push((
                "advisor_whatif_calls",
                hpd_obs::global()
                    .snapshot()
                    .delta(&before)
                    .counter("advisor.whatif.calls") as f64,
            ));
            configuration
        };
        detail.push(("scratch_load_and_advisor_s", t.elapsed().as_secs_f64()));

        let t = Instant::now();
        let db = Database::new(self.config());
        tpcds::load(&db, scale(seed))?;
        db.apply_configuration(&configuration)?;
        detail.push(("load_and_build_s", t.elapsed().as_secs_f64()));

        let t = Instant::now();
        let mut queries = Vec::with_capacity(templates.len());
        for (_, q) in &templates {
            let typed = db.query(q).run()?;
            queries.push((render(&db, q)?, sorted(typed.rows)));
        }
        detail.push(("render_and_typed_results_s", t.elapsed().as_secs_f64()));

        Ok(Instance {
            db,
            gen: Box::new(DssGen { queries }),
            detail,
        })
    }
}
