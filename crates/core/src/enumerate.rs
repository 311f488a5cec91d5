//! Workload-level enumeration: greedy benefit search under a storage budget.

use std::collections::HashMap;

use hpd_columnstore::CsiConfig;
use hpd_common::Result;
use hpd_engine::{
    cost::CostModel, Database, IndexDescriptor, IndexMeta, Statement, TableContext, UpdateStmt,
};

use crate::candidates::{locate_query, CandidateSet};
use crate::hypothetical::hypothetical_meta;
use crate::size::{CsiSizeEstimator, SampleSet};
use crate::workload::Workload;

/// A chosen configuration during search: per-table descriptor lists
/// (secondaries only; the existing primary is implicit at position 0).
pub type Chosen = HashMap<String, Vec<IndexDescriptor>>;

/// Estimated maintenance cost (microseconds) of keeping one index up to
/// date across `rows` modified rows, following the paper's Figure 5
/// asymmetry: B+ trees are cheapest, secondary CSIs pay the delta/delete
/// buffer, primary CSIs pay the physical row location.
pub fn maintenance_cost_us(meta: &IndexMeta, rows: f64, cost: &CostModel) -> f64 {
    match &meta.descriptor {
        IndexDescriptor::PrimaryBTree { .. } | IndexDescriptor::SecondaryBTree { .. } => {
            // Root-to-leaf traversal + leaf rewrite per row.
            rows * (cost.random_pages_us(1.0) * meta.height.max(1) as f64 / 2.0
                + cost.cpu_row_us * 3.0)
        }
        IndexDescriptor::SecondaryCsi { .. } => {
            // Delete-buffer + delta-store inserts (both B+ trees), plus the
            // amortized anti-join/compaction burden.
            rows * (cost.random_pages_us(1.0) * 1.5 + cost.cpu_row_us * 8.0)
        }
        IndexDescriptor::PrimaryCsi => {
            // Locate the physical row: scan the key segments of the
            // surviving row groups.
            let key_cols: Vec<usize> = meta.column_bytes.iter().map(|&(c, _)| c).take(1).collect();
            let bytes = meta.csi_scan_bytes(&key_cols).max(1) as f64 / meta.rowgroups.max(1) as f64;
            rows * (cost.segment_read_us(bytes, 1.0) + cost.cpu_batch_us * bytes / 8.0)
        }
    }
}

/// Build the full what-if meta list for one table under `chosen`.
pub fn metas_for(
    table: &str,
    ctx: &TableContext,
    chosen: &Chosen,
    samples: &HashMap<String, SampleSet>,
    estimator: &dyn CsiSizeEstimator,
    csi_config: &CsiConfig,
) -> Vec<IndexMeta> {
    let mut metas: Vec<IndexMeta> = ctx.shared_primary().cloned().into_iter().collect();
    if let Some(list) = chosen.get(table) {
        let empty = SampleSet {
            rows: Vec::new(),
            fraction: 1.0,
        };
        let sample = samples.get(table).unwrap_or(&empty);
        for d in list {
            metas.push(hypothetical_meta(d, ctx, sample, estimator, csi_config));
        }
    }
    metas
}

/// Estimated rows a write statement touches.
fn write_rows(
    stmt_table: &str,
    predicate: &hpd_common::Expr,
    top: Option<usize>,
    contexts: &HashMap<String, TableContext>,
) -> f64 {
    let Some(ctx) = contexts.get(stmt_table) else {
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

/// Optimizer-estimated cost (µs) of one statement under a configuration.
#[allow(clippy::too_many_arguments)]
pub fn statement_cost(
    db: &Database,
    stmt: &Statement,
    contexts: &HashMap<String, TableContext>,
    chosen: &Chosen,
    samples: &HashMap<String, SampleSet>,
    estimator: &dyn CsiSizeEstimator,
    csi_config: &CsiConfig,
    cost: &CostModel,
) -> Result<f64> {
    let what_if = |q: &hpd_engine::SelectQuery| -> Result<f64> {
        let mut overrides = HashMap::new();
        for t in &q.tables {
            if let Some(ctx) = contexts.get(&t.name) {
                overrides.insert(
                    t.name.clone(),
                    vec![metas_for(
                        &t.name, ctx, chosen, samples, estimator, csi_config,
                    )],
                );
            }
        }
        Ok(db.what_if_plan(q, &overrides)?.est_cost_us)
    };

    let maintenance = |table: &str, rows: f64| -> f64 {
        let Some(ctx) = contexts.get(table) else {
            return 0.0;
        };
        let metas = metas_for(table, ctx, chosen, samples, estimator, csi_config);
        metas
            .iter()
            .map(|m| maintenance_cost_us(m, rows, cost))
            .sum()
    };

    Ok(match stmt {
        Statement::Select(q) => what_if(q)?,
        Statement::Update(UpdateStmt {
            table,
            predicate,
            top,
            ..
        }) => {
            let rows = write_rows(table, predicate, *top, contexts);
            what_if(&locate_query(table, predicate, contexts))? + maintenance(table, rows)
        }
        Statement::Delete(d) => {
            let rows = write_rows(&d.table, &d.predicate, d.top, contexts);
            what_if(&locate_query(&d.table, &d.predicate, contexts))? + maintenance(&d.table, rows)
        }
        Statement::Insert(i) => maintenance(&i.table, i.rows.len() as f64),
    })
}

/// Total weighted workload cost under `chosen`.
#[allow(clippy::too_many_arguments)]
pub fn workload_cost(
    db: &Database,
    workload: &Workload,
    contexts: &HashMap<String, TableContext>,
    chosen: &Chosen,
    samples: &HashMap<String, SampleSet>,
    estimator: &dyn CsiSizeEstimator,
    csi_config: &CsiConfig,
    cost: &CostModel,
) -> Result<f64> {
    let mut total = 0.0;
    for ws in &workload.statements {
        total += ws.weight
            * statement_cost(
                db,
                &ws.statement,
                contexts,
                chosen,
                samples,
                estimator,
                csi_config,
                cost,
            )?;
    }
    Ok(total)
}

/// Size in bytes of one hypothetical descriptor.
fn descriptor_size(
    table: &str,
    d: &IndexDescriptor,
    contexts: &HashMap<String, TableContext>,
    samples: &HashMap<String, SampleSet>,
    estimator: &dyn CsiSizeEstimator,
    csi_config: &CsiConfig,
) -> usize {
    let Some(ctx) = contexts.get(table) else {
        return 0;
    };
    let empty = SampleSet {
        rows: Vec::new(),
        fraction: 1.0,
    };
    let sample = samples.get(table).unwrap_or(&empty);
    hypothetical_meta(d, ctx, sample, estimator, csi_config).size_bytes()
}

/// Outcome of the greedy search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    pub chosen: Chosen,
    pub initial_cost_us: f64,
    pub final_cost_us: f64,
    pub new_index_bytes: usize,
}

/// Greedy enumeration: repeatedly add the candidate with the best benefit
/// (per byte when a budget binds) until nothing improves the workload cost
/// by more than 0.1% or the budget is exhausted. At most one columnstore
/// per table survives (structural constraint).
#[allow(clippy::too_many_arguments)]
pub fn greedy_search(
    db: &Database,
    workload: &Workload,
    contexts: &HashMap<String, TableContext>,
    pool: &CandidateSet,
    samples: &HashMap<String, SampleSet>,
    estimator: &dyn CsiSizeEstimator,
    csi_config: &CsiConfig,
    cost: &CostModel,
    storage_budget: Option<usize>,
) -> Result<SearchResult> {
    let mut chosen: Chosen = HashMap::new();
    // Per-statement cost cache for the *current* configuration: a trial
    // candidate on table T only changes statements that reference T, so the
    // rest are reused (keeps the search tractable for ~100-query workloads).
    let mut stmt_costs: Vec<f64> = workload
        .statements
        .iter()
        .map(|ws| {
            statement_cost(
                db,
                &ws.statement,
                contexts,
                &chosen,
                samples,
                estimator,
                csi_config,
                cost,
            )
        })
        .collect::<Result<_>>()?;
    let weighted = |costs: &[f64]| -> f64 {
        costs
            .iter()
            .zip(&workload.statements)
            .map(|(c, ws)| c * ws.weight)
            .sum()
    };
    let initial = weighted(&stmt_costs);
    let mut current = initial;
    let mut used_bytes = 0usize;

    loop {
        #[allow(clippy::type_complexity)]
        let mut best: Option<(
            f64,
            f64,
            Vec<(usize, f64)>,
            String,
            IndexDescriptor,
            usize,
        )> = None;
        for (table, cands) in &pool.per_table {
            let Some(ctx) = contexts.get(table) else {
                continue;
            };
            let table_has_csi = ctx.shared_primary().is_some_and(|m| m.descriptor.is_csi())
                || chosen
                    .get(table)
                    .is_some_and(|l| l.iter().any(IndexDescriptor::is_csi));
            // Statements touching this table (the only ones to re-cost).
            let affected: Vec<usize> = workload
                .statements
                .iter()
                .enumerate()
                .filter(|(_, ws)| ws.statement.table_names().iter().any(|n| n == table))
                .map(|(i, _)| i)
                .collect();
            if affected.is_empty() {
                continue;
            }
            for d in cands {
                if chosen.get(table).is_some_and(|l| l.contains(d)) {
                    continue;
                }
                if d.is_csi() && table_has_csi {
                    continue;
                }
                let size = descriptor_size(table, d, contexts, samples, estimator, csi_config);
                if let Some(budget) = storage_budget {
                    if used_bytes + size > budget {
                        continue;
                    }
                }
                let mut trial = chosen.clone();
                trial.entry(table.clone()).or_default().push(d.clone());
                let mut deltas: Vec<(usize, f64)> = Vec::with_capacity(affected.len());
                let mut c = current;
                for &i in &affected {
                    let new_cost = statement_cost(
                        db,
                        &workload.statements[i].statement,
                        contexts,
                        &trial,
                        samples,
                        estimator,
                        csi_config,
                        cost,
                    )?;
                    c += (new_cost - stmt_costs[i]) * workload.statements[i].weight;
                    deltas.push((i, new_cost));
                }
                let benefit = current - c;
                if benefit <= current * 0.001 {
                    continue;
                }
                let score = if storage_budget.is_some() {
                    benefit / size.max(1) as f64
                } else {
                    benefit
                };
                if best.as_ref().is_none_or(|(s, ..)| score > *s) {
                    best = Some((score, c, deltas, table.clone(), d.clone(), size));
                }
            }
        }
        match best {
            None => break,
            Some((_, c, deltas, table, d, size)) => {
                chosen.entry(table).or_default().push(d);
                for (i, new_cost) in deltas {
                    stmt_costs[i] = new_cost;
                }
                current = c;
                used_bytes += size;
            }
        }
    }

    Ok(SearchResult {
        chosen,
        initial_cost_us: initial,
        final_cost_us: current,
        new_index_bytes: used_bytes,
    })
}
