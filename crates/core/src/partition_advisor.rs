//! Partition-aware advising: recommend a *heterogeneous* per-partition
//! physical design for a partitioned table.
//!
//! The monolithic advisor ([`crate::advisor`]) picks one design per table.
//! For a partitioned table that is the wrong granularity: a hot partition
//! dominated by point reads wants a B+ tree, while cold history partitions
//! scanned by analytic aggregates want a columnstore — the paper's hybrid
//! thesis applied one level down. This module searches the per-partition
//! assignment space with the engine's partitioned what-if API
//! ([`hpd_engine::catalog::Database::what_if_plan`]): every
//! candidate assignment is costed by the real optimizer over the real
//! scatter-gather access path, so partition pruning and lane costs are
//! reflected in the comparison.
//!
//! Search shape: candidate designs per partition are a small fixed menu
//! (columnstore primary, B+ tree primary, B+ tree primary plus one
//! single-column secondary per sargable workload column). The assignment is
//! chosen by coordinate descent seeded from the best *homogeneous*
//! assignment — lane costs are additive across partitions, so per-partition
//! moves converge quickly, and the homogeneous baseline is kept for the
//! report ("did splitting designs actually help?").

use std::collections::HashMap;

use hpd_common::{Expr, HpdError, Result};
use hpd_engine::{Database, IndexDescriptor, IndexMeta, Statement, TableContext};

use crate::hypothetical::hypothetical_meta;
use crate::session::what_if;
use crate::size::{RunModelEstimator, SampleSet};
use crate::workload::Workload;

/// Knobs for the per-partition search.
#[derive(Debug, Clone)]
pub struct PartitionAdvisorOptions {
    /// Block-sample fraction for columnstore size estimation.
    pub sample_fraction: f64,
    pub seed: u64,
    /// Cap on distinct secondary-key columns considered (each adds one
    /// candidate design per partition).
    pub max_secondary_candidates: usize,
    /// Relative improvement a coordinate-descent move must achieve to be
    /// adopted (guards against float noise flapping the assignment).
    pub min_gain: f64,
}

impl Default for PartitionAdvisorOptions {
    fn default() -> PartitionAdvisorOptions {
        PartitionAdvisorOptions {
            sample_fraction: 0.1,
            seed: 42,
            max_secondary_candidates: 2,
            min_gain: 0.01,
        }
    }
}

/// The chosen design for one partition.
#[derive(Debug, Clone)]
pub struct PartitionChoice {
    pub part: usize,
    pub rows: usize,
    /// `indexes[0]` is the primary descriptor.
    pub indexes: Vec<IndexDescriptor>,
}

/// A per-partition design recommendation with its what-if cost against the
/// best homogeneous assignment and the currently materialized design.
#[derive(Debug, Clone)]
pub struct PartitionRecommendation {
    pub table: String,
    pub per_part: Vec<PartitionChoice>,
    /// Weighted workload cost of the recommended assignment (what-if).
    pub est_cost_us: f64,
    /// Weighted workload cost of the best single-design-everywhere
    /// assignment drawn from the same candidate menu.
    pub best_homogeneous_cost_us: f64,
    /// The design used by that best homogeneous assignment.
    pub best_homogeneous: Vec<IndexDescriptor>,
    /// Weighted workload cost of the materialized design as-is.
    pub current_cost_us: f64,
    /// True when the recommendation assigns at least two distinct designs.
    pub heterogeneous: bool,
}

impl PartitionRecommendation {
    /// Human-readable report for the CLI / logs.
    pub fn report(&self, db: &Database) -> String {
        let schema = db
            .with_table(&self.table, |t| t.schema().clone())
            .expect("recommended table exists");
        let mut out = format!("Partition design recommendation for `{}`:\n", self.table);
        for c in &self.per_part {
            let design: Vec<String> = c.indexes.iter().map(|d| d.display(&schema)).collect();
            out.push_str(&format!(
                "  p{} ({} rows): {}\n",
                c.part,
                c.rows,
                design.join(" + ")
            ));
        }
        out.push_str(&format!(
            "  est cost {:.1}us vs best homogeneous {:.1}us vs current {:.1}us ({})\n",
            self.est_cost_us,
            self.best_homogeneous_cost_us,
            self.current_cost_us,
            if self.heterogeneous {
                "heterogeneous"
            } else {
                "homogeneous"
            }
        ));
        out
    }
}

/// Recommend per-partition designs for `table` under `workload`.
///
/// Only `SELECT` statements contribute to the cost objective; DML routes to
/// exactly one partition and its maintenance cost is handled by the storage
/// charge of the monolithic advisor, not here.
pub fn recommend_partition_designs(
    db: &Database,
    table: &str,
    workload: &Workload,
    options: &PartitionAdvisorOptions,
) -> Result<PartitionRecommendation> {
    let ctx = db.context_for(table)?;
    if ctx.partitioning.is_none() || ctx.parts.len() < 2 {
        return Err(HpdError::InvalidQuery(format!(
            "table {table} is not partitioned; use the monolithic advisor"
        )));
    }
    let nparts = ctx.parts.len();
    let selects: Vec<(&hpd_engine::SelectQuery, f64)> = workload
        .statements
        .iter()
        .filter_map(|s| match &s.statement {
            Statement::Select(q) if q.tables.iter().any(|t| t.name == table) => Some((q, s.weight)),
            _ => None,
        })
        .collect();
    if selects.is_empty() {
        return Err(HpdError::InvalidQuery(format!(
            "workload has no SELECT statements touching {table}"
        )));
    }

    let candidates = candidate_designs(&ctx, &selects, options.max_secondary_candidates);
    let metas = candidate_metas(db, &ctx, &candidates, options)?;
    hpd_obs::global()
        .counter("advisor.partition.candidates")
        .add((candidates.len() * nparts) as u64);

    let eval = |assign: &[usize]| -> Result<f64> {
        let part_metas: Vec<Vec<IndexMeta>> = assign.iter().map(|&c| metas[c].clone()).collect();
        // Per-part meta rows are scaled here; the optimizer scales lane
        // cardinalities from `PartInfo.rows`, which the engine supplies.
        let overrides = HashMap::from([(table.to_string(), scale_metas(&ctx, &part_metas))]);
        let mut total = 0.0;
        for (q, w) in &selects {
            total += what_if(db, q, &overrides)?.est_cost_us * w;
        }
        Ok(total)
    };

    // Best homogeneous assignment over the same candidate menu.
    let mut best_homo = (0usize, f64::INFINITY);
    for c in 0..candidates.len() {
        let cost = eval(&vec![c; nparts])?;
        if cost < best_homo.1 {
            best_homo = (c, cost);
        }
    }

    // Coordinate descent from the homogeneous optimum. Lane costs are
    // additive, so single-partition moves find the per-partition optimum;
    // a second pass catches interactions through shared plan shape.
    let mut assign = vec![best_homo.0; nparts];
    let mut cur = best_homo.1;
    for _pass in 0..2 {
        let mut improved = false;
        for p in 0..nparts {
            for c in 0..candidates.len() {
                if c == assign[p] {
                    continue;
                }
                let mut trial = assign.clone();
                trial[p] = c;
                let cost = eval(&trial)?;
                if cost < cur * (1.0 - options.min_gain) {
                    assign = trial;
                    cur = cost;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }

    let current_cost_us = {
        let mut total = 0.0;
        for (q, w) in &selects {
            total += db.plan(q)?.est_cost_us * w;
        }
        total
    };

    let per_part: Vec<PartitionChoice> = assign
        .iter()
        .enumerate()
        .map(|(p, &c)| PartitionChoice {
            part: p,
            rows: ctx.parts[p].rows,
            indexes: candidates[c].clone(),
        })
        .collect();
    let heterogeneous = assign.windows(2).any(|w| w[0] != w[1]);
    if heterogeneous {
        hpd_obs::global()
            .counter("advisor.partition.heterogeneous")
            .inc();
    }
    Ok(PartitionRecommendation {
        table: table.to_string(),
        per_part,
        est_cost_us: cur,
        best_homogeneous_cost_us: best_homo.1,
        best_homogeneous: candidates[best_homo.0].clone(),
        current_cost_us,
        heterogeneous,
    })
}

/// The candidate menu: columnstore, plain B+ tree, and B+ tree plus one
/// single-column secondary per sargable non-key workload column.
fn candidate_designs(
    ctx: &TableContext,
    selects: &[(&hpd_engine::SelectQuery, f64)],
    max_secondary: usize,
) -> Vec<Vec<IndexDescriptor>> {
    let pk = ctx.pk.clone();
    let mut designs = vec![
        vec![IndexDescriptor::PrimaryCsi],
        vec![IndexDescriptor::PrimaryBTree { keys: pk.clone() }],
    ];
    let part_col = ctx.partitioning.as_ref().map(|s| s.column);
    let mut secondary_cols: Vec<usize> = Vec::new();
    for (q, _) in selects {
        for t in &q.tables {
            if t.name != ctx.name {
                continue;
            }
            let Some(pred) = &t.predicate else { continue };
            for col in Expr::column_intervals(pred).keys() {
                // The pk prefix is already the clustered order; the partition
                // column is already handled by pruning.
                if pk.first() == Some(col) || part_col == Some(*col) {
                    continue;
                }
                if !secondary_cols.contains(col) {
                    secondary_cols.push(*col);
                }
            }
        }
    }
    secondary_cols.sort_unstable();
    secondary_cols.truncate(max_secondary);
    for c in secondary_cols {
        designs.push(vec![
            IndexDescriptor::PrimaryBTree { keys: pk.clone() },
            IndexDescriptor::SecondaryBTree {
                keys: vec![c],
                includes: vec![],
            },
        ]);
    }
    designs
}

/// Hypothetical metas for each candidate design, estimated from a block
/// sample of the whole table (per-partition row counts are applied by
/// [`scale_metas`] when an assignment is costed).
fn candidate_metas(
    db: &Database,
    ctx: &TableContext,
    candidates: &[Vec<IndexDescriptor>],
    options: &PartitionAdvisorOptions,
) -> Result<Vec<Vec<IndexMeta>>> {
    let (fraction, seed) = (options.sample_fraction, options.seed);
    let sample = db.with_table(&ctx.name, |t| {
        SampleSet::block_sample_scan(t.row_count(), fraction, seed, |sink| {
            t.for_each_row(db.pool(), &hpd_storage::IoTracker::new(), sink)
        })
    })?;
    let csi_config = db.config().csi;
    let estimator = RunModelEstimator;
    Ok(candidates
        .iter()
        .map(|design| {
            design
                .iter()
                .map(|d| hypothetical_meta(d, ctx, &sample, &estimator, &csi_config))
                .collect()
        })
        .collect())
}

/// Scale each partition's metas down to that partition's cardinality so the
/// optimizer's lane costing sees per-partition index sizes, not whole-table
/// ones.
fn scale_metas(ctx: &TableContext, part_metas: &[Vec<IndexMeta>]) -> Vec<Vec<IndexMeta>> {
    let total: usize = ctx.parts.iter().map(|p| p.rows).sum::<usize>().max(1);
    part_metas
        .iter()
        .zip(&ctx.parts)
        .map(|(metas, info)| {
            let frac = info.rows as f64 / total as f64;
            metas
                .iter()
                .map(|m| {
                    let mut s = m.clone();
                    s.rows = info.rows;
                    s.leaf_pages = ((m.leaf_pages as f64 * frac).ceil() as usize).max(1);
                    s.rowgroups = if m.rowgroups == 0 {
                        0
                    } else {
                        ((m.rowgroups as f64 * frac).ceil() as usize).max(1)
                    };
                    s.column_bytes = m
                        .column_bytes
                        .iter()
                        .map(|&(c, b)| (c, ((b as f64 * frac) as usize).max(1)))
                        .collect();
                    s
                })
                .collect()
        })
        .collect()
}
