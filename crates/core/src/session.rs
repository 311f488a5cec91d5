//! The what-if session: the one place the advisor asks "what does this
//! statement cost under this hypothetical configuration" (paper §4.2).
//!
//! A session is created inside one `Advisor::recommend` call and dropped
//! with it. It owns what every costing call needs — table contexts, block
//! samples, the size estimator, the cost model — and two caches:
//!
//! 1. `(table, descriptor) → IndexMeta`: each hypothetical index is sized
//!    once (one sample projection, one estimator pass — §4.4's expensive
//!    inner call), however many configurations name it.
//! 2. `(statement, the ordered chosen-descriptor list of each table it
//!    references) → cost`: the optimizer plans a statement once per distinct
//!    configuration *of its own tables*. The key is exact — no relevance
//!    filtering, no cost bounds — so a cached answer is bit-identical to
//!    re-planning and the search that consumes it is unchanged.
//!
//! Nothing outlives the call: a later `recommend` sees the statistics and
//! rows of its own moment.

use std::borrow::Cow;
use std::collections::HashMap;

use hpd_columnstore::CsiConfig;
use hpd_common::{Expr, Result};
use hpd_engine::{
    cost::CostModel, Database, IndexDescriptor, IndexMeta, PhysicalPlan, SelectQuery, Statement,
    TableContext,
};

use crate::advisor::{AdvisorOptions, EstimatorKind};
use crate::candidates::locate_query;
use crate::enumerate::maintenance_cost_us;
use crate::hypothetical::hypothetical_meta;
use crate::size::{BlackBoxEstimator, CsiSizeEstimator, RunModelEstimator, SampleSet};
use crate::workload::Workload;

/// A chosen configuration during search: per-table descriptor lists
/// (secondaries only; the existing primary is implicit at position 0).
pub type Chosen = HashMap<String, Vec<IndexDescriptor>>;

/// Per-table meta sets as `Database::what_if_plan` takes them.
pub(crate) type Overrides = HashMap<String, Vec<Vec<IndexMeta>>>;

/// The advisor's one optimizer call: plan `query` as if the tables in
/// `overrides` had those (hypothetical) indexes.
pub(crate) fn what_if(
    db: &Database,
    query: &SelectQuery,
    overrides: &Overrides,
) -> Result<PhysicalPlan> {
    hpd_obs::global().counter("advisor.whatif.calls").inc();
    db.what_if_plan(query, overrides)
}

/// See the module documentation.
pub struct WhatIfSession<'a> {
    pub(crate) db: &'a Database,
    workload: &'a Workload,
    /// Referenced tables with one primary design to extend. Tables whose
    /// partitions have different primaries get no context, so no candidates
    /// and no what-if override: statements touching them are costed under
    /// their real design.
    contexts: HashMap<String, TableContext>,
    samples: HashMap<String, SampleSet>,
    per_partition_tables: Vec<String>,
    estimator: Box<dyn CsiSizeEstimator>,
    csi_config: CsiConfig,
    cost: CostModel,
    /// Per statement, the tables with a context it references: the tables
    /// whose chosen lists its cost depends on.
    stmt_tables: Vec<Vec<&'a str>>,
    metas: HashMap<String, HashMap<IndexDescriptor, IndexMeta>>,
    costs: HashMap<(usize, Vec<Vec<IndexDescriptor>>), f64>,
}

impl<'a> WhatIfSession<'a> {
    /// Snapshot contexts and block samples of every table `workload`
    /// references.
    pub fn new(
        db: &'a Database,
        workload: &'a Workload,
        options: &AdvisorOptions,
    ) -> Result<WhatIfSession<'a>> {
        let mut contexts = HashMap::new();
        let mut samples = HashMap::new();
        let mut per_partition_tables = Vec::new();
        for name in workload.referenced_tables() {
            let ctx = db.context_for(&name)?;
            if ctx.shared_primary().is_none() {
                per_partition_tables.push(name);
                continue;
            }
            let (fraction, seed) = (options.sample_fraction, options.seed);
            let sample = db.with_table(&name, |t| {
                SampleSet::block_sample_scan(t.row_count(), fraction, seed, |sink| {
                    t.for_each_row(db.pool(), &hpd_storage::IoTracker::new(), sink)
                })
            })?;
            samples.insert(name.clone(), sample);
            contexts.insert(name, ctx);
        }
        let stmt_tables = workload
            .statements
            .iter()
            .map(|ws| {
                let mut tables = ws.statement.table_names();
                tables.retain(|t| contexts.contains_key(*t));
                tables
            })
            .collect();
        let config = db.config();
        Ok(WhatIfSession {
            db,
            workload,
            metas: contexts
                .keys()
                .map(|t| (t.clone(), HashMap::new()))
                .collect(),
            contexts,
            samples,
            per_partition_tables,
            estimator: match options.estimator {
                EstimatorKind::BlackBox => Box::new(BlackBoxEstimator),
                EstimatorKind::RunModel => Box::new(RunModelEstimator),
            },
            csi_config: config.csi,
            cost: CostModel::new(config.device, config.max_dop, config.grant_bytes),
            stmt_tables,
            costs: HashMap::new(),
        })
    }

    pub fn workload(&self) -> &'a Workload {
        self.workload
    }

    pub fn contexts(&self) -> &HashMap<String, TableContext> {
        &self.contexts
    }

    /// Referenced tables whose partitions have different primary indexes.
    pub fn per_partition_tables(&self) -> &[String] {
        &self.per_partition_tables
    }

    /// Indexes into the workload of the statements referencing `table`.
    pub fn statements_on(&self, table: &str) -> Vec<usize> {
        (0..self.stmt_tables.len())
            .filter(|&i| self.stmt_tables[i].contains(&table))
            .collect()
    }

    /// Distinct `(statement, configuration)` costs computed so far.
    pub fn costs_computed(&self) -> usize {
        self.costs.len()
    }

    /// What-if metadata of `descriptor` on `table` (which must have a
    /// context), built on first request.
    pub fn meta(&mut self, table: &str, descriptor: &IndexDescriptor) -> &IndexMeta {
        let built = self.metas.get_mut(table).expect("table has a context");
        if !built.contains_key(descriptor) {
            let meta = hypothetical_meta(
                descriptor,
                &self.contexts[table],
                &self.samples[table],
                self.estimator.as_ref(),
                &self.csi_config,
            );
            built.insert(descriptor.clone(), meta);
        }
        &built[descriptor]
    }

    /// The full what-if meta list of one table: its existing primary, then
    /// `secondaries`.
    pub(crate) fn metas_for(
        &mut self,
        table: &str,
        secondaries: &[IndexDescriptor],
    ) -> Vec<IndexMeta> {
        let primary = self.contexts[table].shared_primary();
        let mut metas = vec![primary.expect("session tables share a primary").clone()];
        for d in secondaries {
            metas.push(self.meta(table, d).clone());
        }
        metas
    }

    /// Optimizer-estimated cost (µs) of workload statement `stmt` under
    /// `chosen`, planned at most once per distinct configuration of the
    /// statement's own tables.
    pub fn statement_cost(&mut self, stmt: usize, chosen: &Chosen) -> Result<f64> {
        let lists = self.stmt_tables[stmt]
            .iter()
            .map(|t| chosen.get(*t).cloned().unwrap_or_default())
            .collect();
        let key = (stmt, lists);
        if let Some(&cost) = self.costs.get(&key) {
            hpd_obs::global().counter("advisor.whatif.cache_hits").inc();
            return Ok(cost);
        }
        let cost = self.plan_statement(stmt, &key.1)?;
        self.costs.insert(key, cost);
        Ok(cost)
    }

    /// Cost statement `stmt` with `lists[k]` as the secondaries of its k-th
    /// table: the optimizer's plan cost, plus the maintenance charge of
    /// every index on a written table.
    fn plan_statement(&mut self, stmt: usize, lists: &[Vec<IndexDescriptor>]) -> Result<f64> {
        let mut overrides = Overrides::new();
        for (k, list) in lists.iter().enumerate() {
            let table = self.stmt_tables[stmt][k];
            overrides.insert(table.to_string(), vec![self.metas_for(table, list)]);
        }
        // The select to plan (a write's is its locate phase) and the rows
        // written to which table.
        let (query, write) = match &self.workload.statements[stmt].statement {
            Statement::Select(q) => (Some(Cow::Borrowed(q)), None),
            Statement::Update(u) => (
                Some(Cow::Owned(locate_query(
                    &u.table,
                    &u.predicate,
                    &self.contexts,
                ))),
                Some((&u.table, self.write_rows(&u.table, &u.predicate, u.top))),
            ),
            Statement::Delete(d) => (
                Some(Cow::Owned(locate_query(
                    &d.table,
                    &d.predicate,
                    &self.contexts,
                ))),
                Some((&d.table, self.write_rows(&d.table, &d.predicate, d.top))),
            ),
            Statement::Insert(i) => (None, Some((&i.table, i.rows.len() as f64))),
        };
        let mut cost = 0.0;
        if let Some(query) = query {
            cost += what_if(self.db, &query, &overrides)?.est_cost_us;
        }
        if let Some((metas, rows)) = write.and_then(|(t, rows)| Some((overrides.get(t)?, rows))) {
            cost += metas[0]
                .iter()
                .map(|m| maintenance_cost_us(m, rows, &self.cost))
                .sum::<f64>();
        }
        Ok(cost)
    }

    /// Estimated rows a write statement touches.
    fn write_rows(&self, table: &str, predicate: &Expr, top: Option<usize>) -> f64 {
        let Some(ctx) = self.contexts.get(table) else {
            return 1.0;
        };
        let sel = ctx
            .stats
            .intervals_selectivity(&predicate.column_intervals());
        let rows = (ctx.stats.rows as f64 * sel).max(1.0);
        match top {
            Some(n) => rows.min(n as f64),
            None => rows,
        }
    }
}
