//! The what-if session: the one place the advisor asks "what does this
//! statement cost under this hypothetical configuration" (paper §4.2).
//!
//! A session is created inside one `Advisor::recommend` call and dropped
//! with it. It owns what every costing call needs — table contexts, block
//! samples, the cost model — and two caches:
//!
//! 1. `(table, descriptor) → IndexMeta`: each hypothetical index is sized
//!    once for the whole table (one sample projection, one estimator pass —
//!    §4.4's expensive inner call), however many configurations name it. A
//!    part of a table of several parts sees that meta scaled to its rows.
//! 2. `(statement, the index lists of each table it references) → cost`:
//!    the optimizer plans a statement once per distinct configuration *of
//!    its own tables*. The key is exact — no relevance filtering, no cost
//!    bounds — so a cached answer is bit-identical to re-planning and the
//!    search that consumes it is unchanged. Each distinct table design is
//!    numbered once, and the key holds those numbers, not copies.
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

use crate::advisor::AdvisorOptions;
use crate::candidates::locate_query;
use crate::enumerate::maintenance_cost_us;
use crate::hypothetical::hypothetical_meta;
use crate::size::{RunModelEstimator, SampleSet};
use crate::workload::Workload;

/// One table's design during search: one index list per part, primary
/// first (the shape `Table::designs` returns).
pub type PartLists = Vec<Vec<IndexDescriptor>>;

/// A configuration during search. A table it leaves out has its parts'
/// materialized primaries and nothing else.
pub type Chosen = HashMap<String, PartLists>;

/// Per-table meta sets, one per part, as `Database::what_if_plan` takes
/// them.
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
    /// Every referenced table, under its materialized design.
    contexts: HashMap<String, TableContext>,
    samples: HashMap<String, SampleSet>,
    /// Each part's materialized primary: where the search starts.
    initial: Chosen,
    csi_config: CsiConfig,
    cost: CostModel,
    /// Per statement, the tables it references: the tables whose index
    /// lists its cost depends on.
    stmt_tables: Vec<Vec<&'a str>>,
    metas: HashMap<String, HashMap<IndexDescriptor, IndexMeta>>,
    designs: HashMap<PartLists, usize>,
    costs: HashMap<(usize, Vec<usize>), f64>,
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
        for name in workload.referenced_tables() {
            let (fraction, seed) = (options.sample_fraction, options.seed);
            let sample = db.with_table(&name, |t| {
                SampleSet::block_sample_scan(t.row_count(), fraction, seed, t.pk(), |sink| {
                    t.for_each_row(db.pool(), &hpd_storage::IoTracker::new(), sink)
                })
            })?;
            samples.insert(name.clone(), sample);
            contexts.insert(name.clone(), db.context_for(&name)?);
        }
        let initial = contexts
            .iter()
            .map(|(name, ctx)| {
                let primaries = ctx
                    .parts
                    .iter()
                    .map(|p| vec![p.metas[0].descriptor.clone()]);
                (name.clone(), primaries.collect())
            })
            .collect();
        let stmt_tables = workload
            .statements
            .iter()
            .map(|ws| ws.statement.table_names())
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
            initial,
            csi_config: config.csi,
            cost: CostModel::new(config.device, config.max_dop, config.grant_bytes),
            stmt_tables,
            designs: HashMap::new(),
            costs: HashMap::new(),
        })
    }

    pub fn workload(&self) -> &'a Workload {
        self.workload
    }

    pub fn contexts(&self) -> &HashMap<String, TableContext> {
        &self.contexts
    }

    /// Every referenced table's materialized primaries, one list per part.
    pub fn initial(&self) -> &Chosen {
        &self.initial
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

    /// What-if metadata of `descriptor` over all of `table`, built on first
    /// request.
    pub fn meta(&mut self, table: &str, descriptor: &IndexDescriptor) -> &IndexMeta {
        let built = self.metas.get_mut(table).expect("a referenced table");
        if !built.contains_key(descriptor) {
            let meta = hypothetical_meta(
                descriptor,
                &self.contexts[table],
                &self.samples[table],
                &RunModelEstimator,
                &self.csi_config,
            );
            built.insert(descriptor.clone(), meta);
        }
        &built[descriptor]
    }

    /// What-if metadata of `descriptor` on part `part` of `table`: the
    /// part's own primary when that is what it names; otherwise the
    /// whole-table meta, scaled to the part's rows when the table has
    /// several parts.
    pub(crate) fn part_meta(
        &mut self,
        table: &str,
        part: usize,
        descriptor: &IndexDescriptor,
    ) -> IndexMeta {
        let parts = &self.contexts[table].parts;
        if parts[part].metas[0].descriptor == *descriptor {
            return parts[part].metas[0].clone();
        }
        let (rows, total) = (parts[part].rows, parts.iter().map(|p| p.rows).sum());
        let several = parts.len() > 1;
        let meta = self.meta(table, descriptor);
        if several {
            scaled(meta, rows, total)
        } else {
            meta.clone()
        }
    }

    /// The what-if meta sets of `table` with index lists `lists`.
    pub(crate) fn metas_for(
        &mut self,
        table: &str,
        lists: &[Vec<IndexDescriptor>],
    ) -> Vec<Vec<IndexMeta>> {
        let mut sets = Vec::with_capacity(lists.len());
        for (part, list) in lists.iter().enumerate() {
            sets.push(
                list.iter()
                    .map(|d| self.part_meta(table, part, d))
                    .collect(),
            );
        }
        sets
    }

    /// Optimizer-estimated cost (µs) of workload statement `stmt` under
    /// `chosen`, planned at most once per distinct configuration of the
    /// statement's own tables.
    pub fn statement_cost(&mut self, stmt: usize, chosen: &Chosen) -> Result<f64> {
        let tables = &self.stmt_tables[stmt];
        let lists = |t: &&str| chosen.get(*t).unwrap_or_else(|| &self.initial[*t]);
        let mut key = (stmt, Vec::with_capacity(tables.len()));
        for t in tables {
            let next = self.designs.len();
            key.1.push(match self.designs.get(lists(t)) {
                Some(&id) => id,
                None => *self.designs.entry(lists(t).clone()).or_insert(next),
            });
        }
        if let Some(&cost) = self.costs.get(&key) {
            hpd_obs::global().counter("advisor.whatif.cache_hits").inc();
            return Ok(cost);
        }
        let lists: Vec<PartLists> = tables.iter().map(|t| lists(t).clone()).collect();
        let cost = self.plan_statement(stmt, &lists)?;
        self.costs.insert(key, cost);
        Ok(cost)
    }

    /// Cost statement `stmt` with `lists[k]` as the index lists of its k-th
    /// table: the optimizer's plan cost, plus the maintenance charge of
    /// every index on the parts a write reaches.
    fn plan_statement(&mut self, stmt: usize, lists: &[PartLists]) -> Result<f64> {
        let mut overrides = Overrides::new();
        for (k, table_lists) in lists.iter().enumerate() {
            let table = self.stmt_tables[stmt][k];
            overrides.insert(table.to_string(), self.metas_for(table, table_lists));
        }
        // The select to plan (a write's is its locate phase) and the rows
        // written to each part of which table.
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
            Statement::Insert(i) => {
                let ctx = &self.contexts[&i.table];
                let mut rows = vec![0.0; ctx.parts.len()];
                for row in &i.rows {
                    rows[ctx.partitioning.as_ref().map_or(0, |s| s.route_row(row))] += 1.0;
                }
                (None, Some((&i.table, rows)))
            }
        };
        let mut cost = 0.0;
        if let Some(query) = query {
            cost += what_if(self.db, &query, &overrides)?.est_cost_us;
        }
        if let Some((table, rows)) = write {
            for (metas, rows) in overrides[table].iter().zip(rows) {
                cost += metas
                    .iter()
                    .map(|m| maintenance_cost_us(m, rows, &self.cost))
                    .sum::<f64>();
            }
        }
        Ok(cost)
    }

    /// Estimated rows a write statement touches in each part: spread over
    /// the parts its predicate reaches, in proportion to their rows.
    fn write_rows(&self, table: &str, predicate: &Expr, top: Option<usize>) -> Vec<f64> {
        let ctx = &self.contexts[table];
        let intervals = predicate.column_intervals();
        let sel = ctx.stats.intervals_selectivity(&intervals);
        let rows = (ctx.stats.rows as f64 * sel).max(1.0);
        let rows = top.map_or(rows, |n| rows.min(n as f64));
        let Some(spec) = &ctx.partitioning else {
            return vec![rows];
        };
        let reached = spec.prune(&intervals);
        let total: usize = reached.iter().map(|&p| ctx.parts[p].rows).sum();
        (0..ctx.parts.len())
            .map(|p| match (reached.contains(&p), total) {
                (false, _) => 0.0,
                (true, 0) => rows / reached.len() as f64,
                (true, total) => rows * (ctx.parts[p].rows as f64 / total as f64),
            })
            .collect()
    }
}

/// `meta` of a whole table scaled down to a part of `rows` of its `total`,
/// so the optimizer's lane costing sees the part's index sizes.
fn scaled(meta: &IndexMeta, rows: usize, total: usize) -> IndexMeta {
    let frac = rows as f64 / total.max(1) as f64;
    let part = |n: usize| ((n as f64 * frac).ceil() as usize).max(1);
    IndexMeta {
        rows,
        leaf_pages: part(meta.leaf_pages),
        rowgroups: if meta.rowgroups == 0 {
            0
        } else {
            part(meta.rowgroups)
        },
        column_bytes: (meta.column_bytes.iter())
            .map(|&(c, b)| (c, ((b as f64 * frac) as usize).max(1)))
            .collect(),
        ..meta.clone()
    }
}
