//! The cost-based optimizer.
//!
//! Plans select queries over a set of [`TableContext`]s — descriptions of
//! each table's schema, statistics, and index metadata. Because contexts
//! carry [`IndexMeta`]s rather than index structures, the same planner works
//! for *materialized* and *hypothetical* designs; the latter is the "what-if"
//! API (paper §4.2) the tuning advisor drives.
//!
//! Scope: single-table plans enumerate every access path (B+ tree seek/scan,
//! covering secondary, primary-key lookup plans, columnstore scan with
//! estimated segment elimination), pick aggregation strategy (streaming when
//! the access order allows, hash with spill costing otherwise), sort
//! placement, and degree of parallelism. Multi-table plans use a greedy
//! smallest-cardinality-first left-deep join order choosing between index
//! nested-loop and hash joins.

use std::collections::HashMap;
use std::ops::Bound;

use hpd_common::{
    AggFunc, DataType, Expr, HpdError, Interval, Key, PartitionSpec, Result, Schema, Value,
};

use crate::cost::CostModel;
use crate::design::{IndexDescriptor, IndexId, IndexMeta};
use crate::plan::{PhysicalPlan, PlanAgg, PlanCol, PlanMode, PlanNode, PlanNodeKind, PlanTable};
use crate::query::SelectQuery;
use crate::stats::TableStats;

/// Planning facts for one part of a table: its cardinality and the
/// metadata of *its* indexes (parts have independent designs).
#[derive(Debug, Clone)]
pub struct PartInfo {
    pub rows: usize,
    pub metas: Vec<IndexMeta>,
}

/// Everything the optimizer knows about one input table.
#[derive(Debug, Clone)]
pub struct TableContext {
    pub name: String,
    pub schema: Schema,
    pub pk: Vec<usize>,
    pub stats: TableStats,
    /// Partitioning declaration (`None` for unpartitioned tables).
    pub partitioning: Option<PartitionSpec>,
    /// Per-part facts, parallel to the table's parts and never empty: an
    /// unpartitioned table is one part holding every row.
    pub parts: Vec<PartInfo>,
}

impl TableContext {
    /// Context for a one-part table.
    pub fn unpartitioned(
        name: String,
        schema: Schema,
        pk: Vec<usize>,
        stats: TableStats,
        metas: Vec<IndexMeta>,
    ) -> TableContext {
        let rows = stats.rows;
        TableContext {
            name,
            schema,
            pk,
            stats,
            partitioning: None,
            parts: vec![PartInfo { rows, metas }],
        }
    }

    /// The same table under another (possibly hypothetical) design: one
    /// meta set per part.
    pub fn with_design(mut self, part_metas: &[Vec<IndexMeta>]) -> Result<TableContext> {
        if part_metas.len() != self.parts.len() {
            return Err(HpdError::InvalidQuery(format!(
                "what-if design for {}: {} meta sets for {} parts",
                self.name,
                part_metas.len(),
                self.parts.len()
            )));
        }
        for (info, metas) in self.parts.iter_mut().zip(part_metas) {
            info.metas = metas.clone();
        }
        Ok(self)
    }
}

/// One costed way of producing (a superset of) a table's needed columns.
struct AccessOption {
    node: PlanNode,
    /// Sort order provided, as table column ordinals (empty = none).
    order: Vec<usize>,
}

pub struct Optimizer {
    pub cost: CostModel,
}

impl Optimizer {
    /// Elapsed-cost estimate of a subtree under its best DOP (split-I/O
    /// model); the comparison key used throughout plan enumeration.
    fn node_cost(&self, node: &PlanNode) -> f64 {
        let (d, s) = split_io(node);
        self.cost.choose_dop_split(total_cpu(node), d, s).1
    }
}

impl Optimizer {
    pub fn new(cost: CostModel) -> Optimizer {
        Optimizer { cost }
    }

    /// Produce the cheapest plan for `query`.
    pub fn plan(&self, query: &SelectQuery, tables: &[TableContext]) -> Result<PhysicalPlan> {
        if query.tables.is_empty() {
            return Err(HpdError::InvalidQuery("query has no tables".into()));
        }
        if query.tables.len() != tables.len() {
            return Err(HpdError::Internal(
                "table contexts do not match query tables".into(),
            ));
        }
        let mut root = if tables.len() == 1 {
            self.plan_single_table(query, tables)?
        } else {
            self.plan_joins(query, tables)?
        };
        let (io_div, io_serial) = split_io(&root);
        let (dop, elapsed) = self
            .cost
            .choose_dop_split(total_cpu(&root), io_div, io_serial);
        set_scan_dop(&mut root, dop);
        record_plan_choice(&root);
        Ok(PhysicalPlan {
            est_cost_us: elapsed,
            est_cpu_us: total_cpu(&root),
            tables: query
                .tables
                .iter()
                .zip(tables)
                .map(|(t, ctx)| PlanTable {
                    name: t.name.clone(),
                    parts: ctx.parts.len(),
                })
                .collect(),
            root,
        })
    }

    // ------------------------------------------------------------------
    // Access paths
    // ------------------------------------------------------------------

    /// Enumerate costed access options for query table `ti` producing at
    /// least `needed` columns, with the local predicate applied. Every
    /// surviving part is planned the same way — its own options, each under
    /// its residual filter — so a lane of a gather *is* a one-part plan. A
    /// one-part table returns that list as is; several parts wrap it in a
    /// [`PlanNodeKind::PartitionedScan`], which only unions lanes and
    /// reports pruning.
    fn access_options(
        &self,
        ti: usize,
        needed: &[usize],
        predicate: Option<&Expr>,
        ctx: &TableContext,
    ) -> Result<Vec<AccessOption>> {
        let intervals = predicate.map(Expr::column_intervals).unwrap_or_default();
        let sel = ctx.stats.intervals_selectivity(&intervals);
        let lane = |p: usize| -> Result<Vec<AccessOption>> {
            self.part_options(ti, p, &ctx.parts[p], needed, &intervals, ctx)
                .into_iter()
                .map(|o| self.with_filter(o, ti, predicate, sel))
                .collect()
        };
        let total = ctx.parts.len();
        if total == 1 {
            return lane(0);
        }
        // Without a declared partitioning nothing says where rows live.
        let mut survivors = ctx
            .partitioning
            .as_ref()
            .map_or_else(|| (0..total).collect(), |spec| spec.prune(&intervals));
        // A fully pruned table still needs one lane so the plan produces the
        // right (empty) row shape; keep partition 0 and count the rest.
        if survivors.is_empty() {
            survivors.push(0);
        }
        let pruned = total - survivors.len();
        if let [only] = survivors[..] {
            // A one-lane gather is the lane: every option keeps its order.
            return Ok(lane(only)?
                .into_iter()
                .map(|o| AccessOption {
                    node: self.gather(ti, vec![o.node], pruned, total),
                    order: o.order,
                })
                .collect());
        }
        // Several lanes: each part's cheapest option (each has its own
        // physical design), projected to one shape.
        let mut parts = Vec::with_capacity(survivors.len());
        for p in survivors {
            let best = lane(p)?
                .into_iter()
                .min_by(|a, b| self.node_cost(&a.node).total_cmp(&self.node_cost(&b.node)))
                .expect("every partition has a primary access path");
            parts.push(self.normalize_lane(best.node, ti, needed, ctx));
        }
        Ok(vec![AccessOption {
            node: self.gather(ti, parts, pruned, total),
            // The union of independently ordered lanes has no global order.
            order: Vec::new(),
        }])
    }

    /// Every access path through the indexes of part `part`.
    fn part_options(
        &self,
        ti: usize,
        part: usize,
        info: &PartInfo,
        needed: &[usize],
        intervals: &HashMap<usize, Interval>,
        ctx: &TableContext,
    ) -> Vec<AccessOption> {
        // Column statistics stay table-wide: per-part histograms would be
        // strictly better but the row-count scaling dominates.
        let rows = info.rows;
        let mut options = Vec::new();

        let primary_btree_meta = info
            .metas
            .first()
            .filter(|m| matches!(m.descriptor, IndexDescriptor::PrimaryBTree { .. }));

        for (idx, meta) in info.metas.iter().enumerate() {
            let index = IndexId(idx);
            match &meta.descriptor {
                IndexDescriptor::PrimaryBTree { .. } => {
                    options.extend(self.btree_options(ti, part, index, meta, intervals, rows, ctx));
                }
                IndexDescriptor::SecondaryBTree { .. } => {
                    let covering = meta.covers(needed, ctx.schema.len(), &ctx.pk);
                    let seeks = || self.btree_options(ti, part, index, meta, intervals, rows, ctx);
                    if covering {
                        options.extend(seeks());
                    } else if let Some(pmeta) = primary_btree_meta {
                        // Seek the secondary, then look up full rows in the
                        // primary B+ tree per qualifying row.
                        for opt in seeks() {
                            // Lookups only pay off for selective seeks.
                            let lookups = opt.node.est_rows;
                            let lookup_io = self.cost.random_pages_us(lookups)
                                * pmeta.height.max(1) as f64
                                / 2.0;
                            let lookup_cpu = lookups * self.cost.cpu_row_us * 2.0;
                            let locator: Vec<usize> = ctx
                                .pk
                                .iter()
                                .map(|&k| {
                                    opt.node
                                        .find_col(ti, k)
                                        .expect("secondary stores the pk locator")
                                })
                                .collect();
                            let est_rows = opt.node.est_rows;
                            let node = PlanNode {
                                out_cols: (0..ctx.schema.len())
                                    .map(|c| PlanCol::Base(ti, c))
                                    .collect(),
                                out_types: ctx.schema.columns().iter().map(|c| c.dtype).collect(),
                                est_rows,
                                est_cpu_us: lookup_cpu,
                                est_io_us: lookup_io,
                                est_io_div_us: 0.0,
                                kind: PlanNodeKind::PkLookup {
                                    child: Box::new(opt.node),
                                    table: ti,
                                    part,
                                    locator,
                                },
                            };
                            options.push(AccessOption {
                                node,
                                order: opt.order,
                            });
                        }
                    }
                }
                IndexDescriptor::PrimaryCsi | IndexDescriptor::SecondaryCsi { .. } => {
                    if meta.covers(needed, ctx.schema.len(), &ctx.pk) {
                        options.push(
                            self.csi_option(ti, part, index, meta, needed, intervals, rows, ctx),
                        );
                    }
                }
            }
        }
        options
    }

    /// Union `parts` — identically shaped lanes, one per surviving part —
    /// under one [`PlanNodeKind::PartitionedScan`].
    fn gather(&self, ti: usize, parts: Vec<PlanNode>, pruned: usize, total: usize) -> PlanNode {
        let est_rows: f64 = parts.iter().map(|lane| lane.est_rows).sum();
        PlanNode {
            out_cols: parts[0].out_cols.clone(),
            out_types: parts[0].out_types.clone(),
            kind: PlanNodeKind::PartitionedScan {
                table: ti,
                parts,
                pruned,
                total,
                dop: 1,
            },
            est_rows: est_rows.max(1.0),
            // The gather itself is a cheap pass over surviving rows.
            est_cpu_us: est_rows * self.cost.cpu_row_us * 0.1,
            est_io_us: 0.0,
            est_io_div_us: 0.0,
        }
    }

    /// Project a partition lane down to exactly the `needed` columns
    /// (heterogeneous designs produce different supersets per lane, and the
    /// gather exchange requires identical shapes).
    fn normalize_lane(
        &self,
        node: PlanNode,
        ti: usize,
        needed: &[usize],
        ctx: &TableContext,
    ) -> PlanNode {
        let out_cols: Vec<PlanCol> = needed.iter().map(|&c| PlanCol::Base(ti, c)).collect();
        if node.out_cols == out_cols {
            return node;
        }
        let mode = node_mode(&node);
        let exprs: Vec<Expr> = needed
            .iter()
            .map(|&c| Expr::Col(node.find_col(ti, c).expect("lane covers needed columns")))
            .collect();
        let est_rows = node.est_rows;
        let cpu = est_rows * self.cost.cpu_batch_us * 0.2;
        PlanNode {
            kind: PlanNodeKind::Project {
                child: Box::new(node),
                exprs,
                mode,
            },
            out_cols,
            out_types: needed.iter().map(|&c| ctx.schema.column(c).dtype).collect(),
            est_rows,
            est_cpu_us: cpu,
            est_io_us: 0.0,
            est_io_div_us: 0.0,
        }
    }

    /// Seek (when an interval constrains a key prefix) and full-scan options
    /// for one B+ tree index of part `part` holding `part_rows` rows. Each
    /// outputs the columns the index stores, in its payload order.
    #[allow(clippy::too_many_arguments)]
    fn btree_options(
        &self,
        ti: usize,
        part: usize,
        index: IndexId,
        meta: &IndexMeta,
        intervals: &HashMap<usize, Interval>,
        part_rows: usize,
        ctx: &TableContext,
    ) -> Vec<AccessOption> {
        let keys = meta.descriptor.keys();
        let stored = meta.descriptor.stored_columns(ctx.schema.len(), &ctx.pk);
        let out_cols: Vec<PlanCol> = stored.iter().map(|&c| PlanCol::Base(ti, c)).collect();
        let out_types: Vec<DataType> = stored.iter().map(|&c| ctx.schema.column(c).dtype).collect();
        let mut options = Vec::new();
        let rows = part_rows as f64;

        // Full leaf scan.
        let scan_io = self.cost.sequential_pages_us(meta.leaf_pages as f64);
        let scan_cpu = rows * self.cost.cpu_row_us;
        options.push(AccessOption {
            node: PlanNode {
                kind: PlanNodeKind::BTreeScan {
                    table: ti,
                    part,
                    index,
                    dop: 1,
                },
                out_cols: out_cols.clone(),
                out_types: out_types.clone(),
                est_rows: rows,
                est_cpu_us: scan_cpu,
                est_io_us: scan_io,
                est_io_div_us: 0.0,
            },
            order: keys.to_vec(),
        });

        // Prefix seek: consume equality intervals, then at most one range.
        let (bounds, consumed_sel, _full_prefix) =
            prefix_bounds(keys, intervals, &ctx.stats, part_rows);
        if let Some((lo, hi)) = bounds {
            let sel = consumed_sel.clamp(0.0, 1.0);
            let rows_scanned = (rows * sel).max(1.0);
            let pages = (meta.leaf_pages as f64 * sel).max(1.0);
            // One random leaf access (internal pages are effectively
            // cached: bandwidth only) plus a mostly-sequential walk of the
            // qualifying leaves.
            let io = self.cost.random_pages_us(1.0)
                + (meta.height.max(1) as f64 - 1.0 + (pages - 1.0).max(0.0))
                    * self.cost.page_bandwidth_us();
            let cpu = rows_scanned * self.cost.cpu_row_us;
            options.push(AccessOption {
                node: PlanNode {
                    kind: PlanNodeKind::BTreeSeek {
                        table: ti,
                        part,
                        index,
                        lo,
                        hi,
                        dop: 1,
                    },
                    out_cols: out_cols.clone(),
                    out_types: out_types.clone(),
                    est_rows: rows_scanned,
                    est_cpu_us: cpu,
                    est_io_us: io,
                    est_io_div_us: 0.0,
                },
                // A seek yields key order whether or not the prefix is a
                // full equality (residual order covers the remaining keys).
                order: keys.to_vec(),
            });
        }
        options
    }

    /// Columnstore scan option with estimated segment elimination, over an
    /// index of part `part` holding `part_rows` rows.
    #[allow(clippy::too_many_arguments)]
    fn csi_option(
        &self,
        ti: usize,
        part: usize,
        index: IndexId,
        meta: &IndexMeta,
        needed: &[usize],
        intervals: &HashMap<usize, Interval>,
        part_rows: usize,
        ctx: &TableContext,
    ) -> AccessOption {
        let rows = part_rows as f64;
        // Surviving row-group fraction: best eliminator wins. Alongside it,
        // row-level selectivity — the scan pushes every covered interval
        // into encoded-domain kernels, so *materialization* cost scales
        // with the rows that survive, not the rows scanned.
        let mut fraction: f64 = 1.0;
        let mut row_sel: f64 = 1.0;
        for (&c, iv) in intervals {
            if meta.covers(&[c], ctx.schema.len(), &ctx.pk) {
                let sel = ctx.stats.columns[c].selectivity(iv, part_rows);
                let cluster = ctx.stats.columns[c].clustering_fraction;
                fraction = fraction.min((sel + cluster).clamp(0.0, 1.0));
                row_sel *= sel.clamp(0.0, 1.0);
            }
        }
        let row_sel = row_sel.min(fraction);
        let bytes = meta.csi_scan_bytes(needed) as f64 * fraction;
        let requests = (meta.rowgroups as f64 * fraction).ceil() * needed.len().max(1) as f64;
        // Positioning overlaps across parallel row-group streams; transfer
        // shares the device bandwidth.
        let io_seek = requests * self.cost.device.seek_latency_us;
        let mut io = self.cost.segment_read_us(bytes, requests);
        let ncols = needed.len().max(1) as f64;
        let scanned = rows * fraction;
        let selected = rows * row_sel;
        // Kernel pass over every non-eliminated row, then late
        // materialization of only the surviving rows, plus a fixed setup
        // cost per surviving row group (bitmaps, vectors, dispatch). Both
        // per-row terms scale with the segments' physical encodings: RLE
        // folds runs, FOR/delta pays a prefix sum to decompress.
        let rg_scanned = (meta.rowgroups as f64 * fraction).ceil();
        let enc_factor = meta.csi_cpu_factor(needed);
        let mut cpu = rg_scanned * self.cost.cpu_batch_setup_us
            + scanned * self.cost.cpu_kernel_us * enc_factor
            + selected * self.cost.cpu_batch_us * enc_factor * (1.0 + 0.3 * (ncols - 1.0));
        // Delta store rows are row-mode.
        cpu += meta.delta_rows as f64 * self.cost.cpu_row_us;
        // Delete-buffer anti-join: probe per surviving row + buffer scan.
        if meta.delete_buffer_rows > 0 {
            cpu += selected * self.cost.cpu_hash_us * 0.5;
            io += self
                .cost
                .random_pages_us((meta.delete_buffer_rows as f64 / 200.0).ceil());
        }
        let out_cols: Vec<PlanCol> = needed.iter().map(|&c| PlanCol::Base(ti, c)).collect();
        let out_types: Vec<DataType> = needed.iter().map(|&c| ctx.schema.column(c).dtype).collect();
        AccessOption {
            node: PlanNode {
                kind: PlanNodeKind::CsiScan {
                    table: ti,
                    part,
                    index,
                    intervals: intervals.clone(),
                    dop: 1,
                },
                out_cols,
                out_types,
                est_rows: selected.max(1.0),
                est_cpu_us: cpu,
                est_io_us: io,
                est_io_div_us: io_seek.min(io),
            },
            order: Vec::new(),
        }
    }

    /// Apply the residual predicate on top of an access option.
    fn with_filter(
        &self,
        mut opt: AccessOption,
        ti: usize,
        predicate: Option<&Expr>,
        sel: f64,
    ) -> Result<AccessOption> {
        let Some(pred) = predicate else {
            return Ok(opt);
        };
        let is_csi = matches!(opt.node.kind, PlanNodeKind::CsiScan { .. });
        // The columnstore scan applies every pushed-down interval exactly
        // (encoded-domain kernels with a value-comparison fallback), so a
        // predicate that is nothing but those intervals needs no residual
        // filter node at all.
        if is_csi && pred.covered_by_intervals() {
            return Ok(opt);
        }
        let mode = node_mode(&opt.node);
        let bound = bind_expr(pred, ti, &opt.node)?;
        let in_rows = opt.node.est_rows;
        let cpu = in_rows
            * match mode {
                PlanMode::Row => self.cost.cpu_row_us,
                PlanMode::Batch => self.cost.cpu_batch_us,
            };
        // CSI scans already reduced est_rows by the interval selectivity;
        // only non-CSI children still carry the full table cardinality.
        let out_rows = if is_csi {
            in_rows
        } else {
            self.relative_filter_rows(sel, in_rows).min(in_rows)
        };
        let out_cols = opt.node.out_cols.clone();
        let out_types = opt.node.out_types.clone();
        opt.node = PlanNode {
            kind: PlanNodeKind::Filter {
                child: Box::new(opt.node),
                predicate: bound,
                mode,
            },
            out_cols,
            out_types,
            est_rows: out_rows,
            est_cpu_us: cpu,
            est_io_us: 0.0,
            est_io_div_us: 0.0,
        };
        Ok(opt)
    }

    fn relative_filter_rows(&self, table_sel: f64, in_rows: f64) -> f64 {
        // The access path may already have reduced rows (seek/elimination);
        // the filter keeps at most `table_sel` of the *table*, so cap.
        (in_rows * table_sel.clamp(1e-9, 1.0)).max(0.0)
    }

    /// Every single-table subplan (access + filter) producing the columns
    /// the query references plus `extra_needed`; callers pick by estimated
    /// elapsed time.
    fn best_table_plan(
        &self,
        query: &SelectQuery,
        ti: usize,
        ctx: &TableContext,
        extra_needed: &[usize],
    ) -> Result<Vec<AccessOption>> {
        let mut needed = query.referenced_columns(ti);
        for &c in extra_needed {
            if !needed.contains(&c) {
                needed.push(c);
            }
        }
        needed.sort_unstable();
        if needed.is_empty() {
            needed.push(ctx.pk.first().copied().unwrap_or(0));
        }
        let predicate = query.tables[ti].predicate.as_ref();
        let opts = self.access_options(ti, &needed, predicate, ctx)?;
        if opts.is_empty() {
            return Err(HpdError::Internal(format!(
                "no access path for table {} (needed columns {needed:?})",
                ctx.name
            )));
        }
        Ok(opts)
    }

    // ------------------------------------------------------------------
    // Single table
    // ------------------------------------------------------------------

    fn plan_single_table(&self, query: &SelectQuery, tables: &[TableContext]) -> Result<PlanNode> {
        let options = self.best_table_plan(query, 0, &tables[0], &[])?;
        let mut best: Option<(f64, PlanNode)> = None;
        for opt in options {
            let node = self.add_agg_and_order(opt, query, tables)?;
            let elapsed = self.node_cost(&node);
            if best.as_ref().is_none_or(|(c, _)| elapsed < *c) {
                best = Some((elapsed, node));
            }
        }
        Ok(best.expect("at least one option").1)
    }

    /// Attach aggregation / projection / sort / limit to a chosen access
    /// subplan (single-table case; `opt.order` enables streaming).
    fn add_agg_and_order(
        &self,
        opt: AccessOption,
        query: &SelectQuery,
        tables: &[TableContext],
    ) -> Result<PlanNode> {
        let order = opt.order.clone();
        let mut node = opt.node;
        let mut output_sorted_by: Vec<(usize, usize)> =
            order.iter().map(|&c| (0usize, c)).collect();

        if query.is_aggregate() {
            node = self.build_aggregate(node, query, tables, &output_sorted_by)?;
            // Stream agg output is sorted by group cols; hash agg is not.
            output_sorted_by = if matches!(node.kind, PlanNodeKind::StreamAgg { .. }) {
                query.group_by.iter().map(|g| (g.table, g.column)).collect()
            } else {
                Vec::new()
            };
        } else {
            node = self.build_projection(node, query)?;
        }
        node = self.build_order_limit(node, query, &output_sorted_by)?;
        Ok(node)
    }

    /// Project to the query's select list (non-aggregate queries).
    fn build_projection(&self, node: PlanNode, query: &SelectQuery) -> Result<PlanNode> {
        let mode = node_mode(&node);
        let mut exprs = Vec::with_capacity(query.select.len());
        let mut out_cols = Vec::with_capacity(query.select.len());
        let mut out_types = Vec::with_capacity(query.select.len());
        for s in &query.select {
            let pos = node.find_col(s.table, s.column).ok_or_else(|| {
                HpdError::Internal(format!("select column {s:?} missing from access path"))
            })?;
            exprs.push(Expr::Col(pos));
            out_cols.push(PlanCol::Base(s.table, s.column));
            out_types.push(node.out_types[pos]);
        }
        let est_rows = node.est_rows;
        let cpu = est_rows * self.cost.cpu_batch_us * 0.2;
        Ok(PlanNode {
            kind: PlanNodeKind::Project {
                child: Box::new(node),
                exprs,
                mode,
            },
            out_cols,
            out_types,
            est_rows,
            est_cpu_us: cpu,
            est_io_us: 0.0,
            est_io_div_us: 0.0,
        })
    }

    /// Aggregate: project inputs, then stream (if sorted on the group
    /// prefix) or hash.
    /// Lower a global (no GROUP BY) aggregate whose every input is a bare
    /// column of a covered columnstore scan onto the encoded fold
    /// ([`PlanNodeKind::CsiAgg`]): SUM/COUNT/MIN/MAX/AVG are computed on
    /// the compressed segments and survivors are never materialized.
    /// Returns `None` when the shape doesn't allow it — grouped or
    /// multi-table aggregates, computed aggregate inputs, a residual
    /// filter on top of the scan (the predicate isn't fully covered by
    /// intervals), or SUM/AVG over a string column (the row path reports
    /// the proper query error for those).
    fn try_csi_agg(
        &self,
        node: &PlanNode,
        query: &SelectQuery,
        tables: &[TableContext],
    ) -> Option<PlanNode> {
        if !query.group_by.is_empty() || query.aggregates.is_empty() {
            return None;
        }
        let PlanNodeKind::CsiScan {
            table,
            part,
            index,
            intervals,
            ..
        } = &node.kind
        else {
            return None;
        };
        let ctx = tables.get(*table)?;
        let mut aggs = Vec::with_capacity(query.aggregates.len());
        let mut out_types = Vec::with_capacity(query.aggregates.len());
        for a in &query.aggregates {
            let Expr::Col(c) = a.expr else {
                return None;
            };
            if a.table != *table {
                return None;
            }
            let dtype = ctx.schema.column(c).dtype;
            if matches!(a.func, AggFunc::Sum | AggFunc::Avg) && dtype == DataType::Utf8 {
                return None;
            }
            aggs.push(PlanAgg {
                func: a.func,
                input: c,
            });
            out_types.push(a.func.result_type(dtype));
        }
        // The fold touches the same segments the scan would (same I/O) but
        // skips late materialization of survivors — only the kernel pass,
        // per-rowgroup setup, and the row-mode delta fold remain, roughly
        // the scan's CPU minus its per-surviving-row share.
        let out_cols = vec![PlanCol::Computed; aggs.len()];
        Some(PlanNode {
            kind: PlanNodeKind::CsiAgg {
                table: *table,
                part: *part,
                index: *index,
                intervals: intervals.clone(),
                aggs,
            },
            out_cols,
            out_types,
            est_rows: 1.0,
            est_cpu_us: node.est_cpu_us * 0.4,
            est_io_us: node.est_io_us,
            est_io_div_us: node.est_io_div_us,
        })
    }

    /// Lower a global COUNT/SUM aggregate over a gather into per-lane
    /// partials summed above it. A lane's partial is the one-part aggregate
    /// of that lane ([`Optimizer::build_aggregate`]), so each lane folds
    /// with the operator its design affords. Only COUNT and SUM participate:
    /// their partials over an *empty* partition are the combine identity
    /// (0), whereas MIN/MAX of nothing has no representable identity here.
    fn try_partition_agg(
        &self,
        node: &PlanNode,
        query: &SelectQuery,
        tables: &[TableContext],
    ) -> Result<Option<PlanNode>> {
        let PlanNodeKind::PartitionedScan {
            table,
            parts,
            pruned,
            total,
            dop,
        } = &node.kind
        else {
            return Ok(None);
        };
        let sums_of_partials = query.group_by.is_empty()
            && !query.aggregates.is_empty()
            && query
                .aggregates
                .iter()
                .all(|a| matches!(a.func, AggFunc::Count | AggFunc::Sum));
        if !sums_of_partials {
            return Ok(None);
        }
        let lanes = parts
            .iter()
            .map(|lane| self.build_aggregate(lane.clone(), query, tables, &[]))
            .collect::<Result<Vec<_>>>()?;
        // COUNT partials sum, SUM partials sum, and the summed types equal
        // the final types (SUM is closed over Int64/Decimal/Float64).
        let out_cols = lanes[0].out_cols.clone();
        let out_types = lanes[0].out_types.clone();
        let combine = (0..out_cols.len())
            .map(|input| PlanAgg {
                func: AggFunc::Sum,
                input,
            })
            .collect();
        let partials = lanes.len() as f64;
        let gathered = PlanNode {
            kind: PlanNodeKind::PartitionedScan {
                table: *table,
                parts: lanes,
                pruned: *pruned,
                total: *total,
                dop: *dop,
            },
            out_cols: out_cols.clone(),
            out_types: out_types.clone(),
            est_rows: partials,
            est_cpu_us: 0.0,
            est_io_us: 0.0,
            est_io_div_us: 0.0,
        };
        Ok(Some(PlanNode {
            kind: PlanNodeKind::StreamAgg {
                child: Box::new(gathered),
                group: vec![],
                aggs: combine,
            },
            out_cols,
            out_types,
            est_rows: 1.0,
            est_cpu_us: partials * self.cost.cpu_row_us,
            est_io_us: 0.0,
            est_io_div_us: 0.0,
        }))
    }

    fn build_aggregate(
        &self,
        node: PlanNode,
        query: &SelectQuery,
        tables: &[TableContext],
        input_order: &[(usize, usize)],
    ) -> Result<PlanNode> {
        if let Some(pushed) = self.try_partition_agg(&node, query, tables)? {
            return Ok(pushed);
        }
        if let Some(pushed) = self.try_csi_agg(&node, query, tables) {
            return Ok(pushed);
        }
        let mode = node_mode(&node);
        // Project [group cols ..., agg input exprs ...].
        let mut exprs = Vec::new();
        let mut out_cols = Vec::new();
        let mut out_types = Vec::new();
        for g in &query.group_by {
            let pos = node.find_col(g.table, g.column).ok_or_else(|| {
                HpdError::Internal(format!("group column {g:?} missing from access path"))
            })?;
            exprs.push(Expr::Col(pos));
            out_cols.push(PlanCol::Base(g.table, g.column));
            out_types.push(node.out_types[pos]);
        }
        for a in &query.aggregates {
            let bound = bind_expr(&a.expr, a.table, &node)?;
            let t = expr_type(&bound, &node.out_types)?;
            exprs.push(bound);
            out_cols.push(PlanCol::Computed);
            out_types.push(t);
        }
        let est_rows = node.est_rows;
        let project_cpu = est_rows
            * exprs.len() as f64
            * match mode {
                PlanMode::Row => self.cost.cpu_row_us * 0.5,
                PlanMode::Batch => self.cost.cpu_batch_us * 0.5,
            };
        let projected = PlanNode {
            kind: PlanNodeKind::Project {
                child: Box::new(node),
                exprs,
                mode,
            },
            out_cols: out_cols.clone(),
            out_types: out_types.clone(),
            est_rows,
            est_cpu_us: project_cpu,
            est_io_us: 0.0,
            est_io_div_us: 0.0,
        };

        let group_ords: Vec<usize> = (0..query.group_by.len()).collect();
        let aggs: Vec<PlanAgg> = query
            .aggregates
            .iter()
            .enumerate()
            .map(|(i, a)| PlanAgg {
                func: a.func,
                input: query.group_by.len() + i,
            })
            .collect();
        // Output schema of the aggregate.
        let mut agg_out_cols: Vec<PlanCol> = query
            .group_by
            .iter()
            .map(|g| PlanCol::Base(g.table, g.column))
            .collect();
        agg_out_cols.extend(std::iter::repeat_n(PlanCol::Computed, aggs.len()));
        let mut agg_out_types: Vec<DataType> = out_types[..query.group_by.len()].to_vec();
        for (i, a) in query.aggregates.iter().enumerate() {
            let input_t = out_types[query.group_by.len() + i];
            agg_out_types.push(a.func.result_type(input_t));
        }

        // Streaming possible if the input order starts with the group cols.
        let group_pairs: Vec<(usize, usize)> =
            query.group_by.iter().map(|g| (g.table, g.column)).collect();
        let stream_ok = !group_pairs.is_empty()
            && group_pairs.len() <= input_order.len()
            && group_pairs.iter().zip(input_order).all(|(a, b)| a == b);

        let groups = if query.group_by.is_empty() {
            1.0
        } else if query.group_by.iter().all(|g| g.table == 0) && tables.len() == 1 {
            let cols: Vec<usize> = query.group_by.iter().map(|g| g.column).collect();
            tables[0].stats.joint_distinct(&cols) as f64
        } else {
            // Multi-table group-by: product of per-table joint distincts,
            // capped by input rows.
            let mut p = 1.0;
            for (t, ctx) in tables.iter().enumerate() {
                let cols: Vec<usize> = query
                    .group_by
                    .iter()
                    .filter(|g| g.table == t)
                    .map(|g| g.column)
                    .collect();
                if !cols.is_empty() {
                    p *= ctx.stats.joint_distinct(&cols) as f64;
                }
            }
            p.min(est_rows.max(1.0))
        };

        if stream_ok || query.group_by.is_empty() {
            let cpu = est_rows * self.cost.cpu_row_us * 0.4;
            Ok(PlanNode {
                kind: PlanNodeKind::StreamAgg {
                    child: Box::new(projected),
                    group: group_ords,
                    aggs,
                },
                out_cols: agg_out_cols,
                out_types: agg_out_types,
                est_rows: groups,
                est_cpu_us: cpu,
                est_io_us: 0.0,
                est_io_div_us: 0.0,
            })
        } else {
            let row_bytes: f64 = 48.0 + 16.0 * group_ords.len() as f64;
            let (cpu, io) =
                self.cost
                    .hash_agg_cost(est_rows, groups, row_bytes, est_rows * row_bytes);
            Ok(PlanNode {
                kind: PlanNodeKind::HashAgg {
                    child: Box::new(projected),
                    group: group_ords,
                    aggs,
                },
                out_cols: agg_out_cols,
                out_types: agg_out_types,
                est_rows: groups,
                est_cpu_us: cpu,
                est_io_us: io,
                est_io_div_us: 0.0,
            })
        }
    }

    /// Sort (if the required order is not already provided) and limit.
    fn build_order_limit(
        &self,
        mut node: PlanNode,
        query: &SelectQuery,
        sorted_by: &[(usize, usize)],
    ) -> Result<PlanNode> {
        if !query.order_by.is_empty() {
            // Does the current order satisfy the request?
            let satisfied = query.order_by.iter().enumerate().all(|(i, &(ord, asc))| {
                asc && sorted_by.get(i).is_some_and(|&(t, c)| {
                    matches!(node.out_cols.get(ord), Some(PlanCol::Base(tt, cc)) if *tt == t && *cc == c)
                })
            });
            if !satisfied {
                let est_rows = node.est_rows;
                let bytes = est_rows
                    * node
                        .out_types
                        .iter()
                        .map(|t| t.fixed_width())
                        .sum::<usize>() as f64;
                let (cpu, io) = self.cost.sort_cost(est_rows, bytes);
                let keys: Vec<(usize, bool)> = query.order_by.clone();
                let out_cols = node.out_cols.clone();
                let out_types = node.out_types.clone();
                node = PlanNode {
                    kind: PlanNodeKind::Sort {
                        child: Box::new(node),
                        keys,
                    },
                    out_cols,
                    out_types,
                    est_rows,
                    est_cpu_us: cpu,
                    est_io_us: io,
                    est_io_div_us: 0.0,
                };
            }
        }
        if let Some(n) = query.limit {
            let out_cols = node.out_cols.clone();
            let out_types = node.out_types.clone();
            let est_rows = node.est_rows.min(n as f64);
            node = PlanNode {
                kind: PlanNodeKind::Limit {
                    child: Box::new(node),
                    n,
                },
                out_cols,
                out_types,
                est_rows,
                est_cpu_us: 0.0,
                est_io_us: 0.0,
                est_io_div_us: 0.0,
            };
        }
        Ok(node)
    }

    // ------------------------------------------------------------------
    // Joins
    // ------------------------------------------------------------------

    fn plan_joins(&self, query: &SelectQuery, tables: &[TableContext]) -> Result<PlanNode> {
        // Best standalone subplan per table.
        let mut best_single: Vec<PlanNode> = Vec::with_capacity(tables.len());
        for (ti, ctx) in tables.iter().enumerate() {
            let opts = self.best_table_plan(query, ti, ctx, &[])?;
            let node = opts
                .into_iter()
                .map(|o| o.node)
                .min_by(|a, b| self.node_cost(a).total_cmp(&self.node_cost(b)))
                .expect("non-empty options");
            best_single.push(node);
        }

        // Greedy left-deep order starting from the smallest filtered table.
        let start = (0..tables.len())
            .min_by(|&a, &b| best_single[a].est_rows.total_cmp(&best_single[b].est_rows))
            .expect("at least two tables");
        let mut joined: Vec<usize> = vec![start];
        let mut current = best_single[start].clone();

        while joined.len() < tables.len() {
            // Candidate next tables connected to the current set.
            let mut candidates: Vec<usize> = query
                .joins
                .iter()
                .filter_map(|j| {
                    let (a, b) = (j.left.table, j.right.table);
                    match (joined.contains(&a), joined.contains(&b)) {
                        (true, false) => Some(b),
                        (false, true) => Some(a),
                        _ => None,
                    }
                })
                .collect();
            candidates.sort_unstable();
            candidates.dedup();
            if candidates.is_empty() {
                // Disconnected query: pick the smallest remaining table.
                let next = (0..tables.len())
                    .filter(|t| !joined.contains(t))
                    .min_by(|&a, &b| best_single[a].est_rows.total_cmp(&best_single[b].est_rows))
                    .expect("tables remain");
                candidates.push(next);
            }

            // Choose the candidate + join method with the lowest added cost.
            let mut best: Option<(f64, PlanNode, usize)> = None;
            for &next in &candidates {
                let join_keys = join_keys_between(query, &joined, next);
                let node =
                    self.join_candidate(query, tables, &current, next, &join_keys, &best_single)?;
                let cost = self.node_cost(&node);
                if best.as_ref().is_none_or(|(c, _, _)| cost < *c) {
                    best = Some((cost, node, next));
                }
            }
            let (_, node, next) = best.expect("candidate list non-empty");
            current = node;
            joined.push(next);
        }

        // Aggregation / projection / sort on top (order is unknown after
        // joins, so streaming aggregation is not considered).
        let mut node = current;
        if query.is_aggregate() {
            node = self.build_aggregate(node, query, tables, &[])?;
        } else {
            node = self.build_projection(node, query)?;
        }
        node = self.build_order_limit(node, query, &[])?;
        Ok(node)
    }

    /// Build the best join of `current` with table `next`.
    fn join_candidate(
        &self,
        query: &SelectQuery,
        tables: &[TableContext],
        current: &PlanNode,
        next: usize,
        join_keys: &[(crate::query::ColRef, crate::query::ColRef)],
        best_single: &[PlanNode],
    ) -> Result<PlanNode> {
        let ctx = &tables[next];
        let mut options: Vec<PlanNode> = Vec::new();

        // Estimated join cardinality.
        let inner_rows = best_single[next].est_rows;
        let mut join_card = current.est_rows * inner_rows;
        for (lc, rc) in join_keys {
            let (outer_col, inner_col) = if lc.table == next { (rc, lc) } else { (lc, rc) };
            let d_out = if outer_col.table < tables.len() {
                tables[outer_col.table].stats.columns[outer_col.column]
                    .distinct
                    .max(1)
            } else {
                1
            };
            let d_in = tables[next].stats.columns[inner_col.column].distinct.max(1);
            join_card /= d_out.max(d_in) as f64;
        }
        join_card = join_card.max(1.0);

        // Option A: hash join with the standalone subplan as build side.
        {
            let right = best_single[next].clone();
            let keys: Vec<(usize, usize)> = join_keys
                .iter()
                .map(|(l, r)| {
                    let (o, i) = if l.table == next { (r, l) } else { (l, r) };
                    let op = current
                        .find_col(o.table, o.column)
                        .ok_or_else(|| HpdError::Internal("outer join column missing".into()))?;
                    let ip = right
                        .find_col(i.table, i.column)
                        .ok_or_else(|| HpdError::Internal("inner join column missing".into()))?;
                    Ok((op, ip))
                })
                .collect::<Result<_>>()?;
            let build_bytes = right.est_rows
                * right
                    .out_types
                    .iter()
                    .map(|t| t.fixed_width())
                    .sum::<usize>() as f64;
            let mut cpu =
                (right.est_rows + current.est_rows) * self.cost.cpu_hash_us + join_card * 0.02;
            let mut io = 0.0;
            if build_bytes > self.cost.grant_bytes as f64 {
                io += self.cost.spill_round_trip_us(build_bytes);
                cpu *= 1.3;
            }
            let mut out_cols = current.out_cols.clone();
            out_cols.extend(right.out_cols.iter().copied());
            let mut out_types = current.out_types.clone();
            out_types.extend(right.out_types.iter().copied());
            options.push(PlanNode {
                kind: PlanNodeKind::HashJoin {
                    left: Box::new(current.clone()),
                    right: Box::new(right),
                    keys,
                },
                out_cols,
                out_types,
                est_rows: join_card,
                est_cpu_us: cpu,
                est_io_us: io,
                est_io_div_us: 0.0,
            });
        }

        // Option B: index nested-loop join when an index on `next` has a key
        // prefix equal to the join columns.
        let inner_cols: Vec<usize> = join_keys
            .iter()
            .map(|(l, r)| if l.table == next { l.column } else { r.column })
            .collect();
        // Only a one-part inner has a single index to probe per outer row;
        // hash join covers the rest.
        let inner_metas: &[IndexMeta] = match ctx.parts.as_slice() {
            [only] => &only.metas,
            _ => &[],
        };
        for (idx, meta) in inner_metas.iter().enumerate() {
            let keys = match &meta.descriptor {
                IndexDescriptor::PrimaryBTree { keys } => keys,
                IndexDescriptor::SecondaryBTree { keys, .. } => keys,
                _ => continue,
            };
            if keys.len() < inner_cols.len()
                || !keys[..inner_cols.len()]
                    .iter()
                    .all(|k| inner_cols.contains(k))
            {
                continue;
            }
            // Covering check for the inner side's needed columns.
            let needed = query.referenced_columns(next);
            if !meta.covers(&needed, ctx.schema.len(), &ctx.pk) {
                continue;
            }
            // Outer key ordinals aligned with the index key order.
            let outer_key: Result<Vec<usize>> = keys[..inner_cols.len()]
                .iter()
                .map(|&kcol| {
                    let (l, r) = join_keys
                        .iter()
                        .find(|(l, r)| {
                            (l.table == next && l.column == kcol)
                                || (r.table == next && r.column == kcol)
                        })
                        .ok_or_else(|| HpdError::Internal("key col not in join".into()))?;
                    let o = if l.table == next { r } else { l };
                    current.find_col(o.table, o.column).ok_or_else(|| {
                        HpdError::Internal("outer join column missing from plan".into())
                    })
                })
                .collect();
            let Ok(outer_key) = outer_key else { continue };

            let matches_per = (ctx.stats.rows as f64
                / tables[next].stats.joint_distinct(&inner_cols).max(1) as f64)
                .max(1.0);
            let io =
                current.est_rows * self.cost.random_pages_us(1.0) * meta.height.max(1) as f64 / 2.0;
            let cpu = current.est_rows * matches_per * self.cost.cpu_row_us * 1.5;

            // The inner side yields the columns the index stores.
            let stored = meta.descriptor.stored_columns(ctx.schema.len(), &ctx.pk);
            let mut out_cols = current.out_cols.clone();
            out_cols.extend(stored.iter().map(|&c| PlanCol::Base(next, c)));
            let mut out_types = current.out_types.clone();
            out_types.extend(stored.iter().map(|&c| ctx.schema.column(c).dtype));

            let mut node = PlanNode {
                kind: PlanNodeKind::IndexNLJoin {
                    outer: Box::new(current.clone()),
                    table: next,
                    index: IndexId(idx),
                    outer_key,
                },
                out_cols,
                out_types,
                est_rows: join_card,
                est_cpu_us: cpu,
                est_io_us: io,
                est_io_div_us: 0.0,
            };
            // Residual local predicate of the inner table.
            if let Some(pred) = &query.tables[next].predicate {
                let bound = bind_expr(pred, next, &node)?;
                let sel = tables[next]
                    .stats
                    .intervals_selectivity(&pred.column_intervals());
                let est_rows = (node.est_rows * sel).max(1.0);
                let cpu = node.est_rows * self.cost.cpu_row_us;
                let out_cols = node.out_cols.clone();
                let out_types = node.out_types.clone();
                node = PlanNode {
                    kind: PlanNodeKind::Filter {
                        child: Box::new(node),
                        predicate: bound,
                        mode: PlanMode::Row,
                    },
                    out_cols,
                    out_types,
                    est_rows,
                    est_cpu_us: cpu,
                    est_io_us: 0.0,
                    est_io_div_us: 0.0,
                };
            }
            options.push(node);
        }

        options
            .into_iter()
            .min_by(|a, b| self.node_cost(a).total_cmp(&self.node_cost(b)))
            .ok_or_else(|| HpdError::Internal("no join option".into()))
    }
}

// ----------------------------------------------------------------------
// Helpers
// ----------------------------------------------------------------------

type KeyBounds = (Bound<Key>, Bound<Key>);

/// Consume a key prefix from the predicate intervals: equality columns, then
/// at most one range column. Returns the key-space bounds, the combined
/// selectivity of the consumed columns among `rows` rows, and whether the
/// whole prefix was equalities.
fn prefix_bounds(
    keys: &[usize],
    intervals: &HashMap<usize, Interval>,
    stats: &TableStats,
    rows: usize,
) -> (Option<KeyBounds>, f64, bool) {
    use hpd_common::interval::Bound as IvBound;
    let mut lo_vals: Vec<Value> = Vec::new();
    let mut hi_vals: Vec<Value> = Vec::new();
    let mut sel = 1.0;
    let mut consumed = 0usize;
    let mut lo_exclusive = false;
    let mut hi_exclusive = false;
    let mut lo_open = false; // range had no lower bound
    let mut hi_open = false;
    for &k in keys {
        let Some(iv) = intervals.get(&k) else { break };
        sel *= stats.columns[k].selectivity(iv, rows);
        // Equality?
        if let (IvBound::Inclusive(a), IvBound::Inclusive(b)) = (&iv.lo, &iv.hi) {
            if a == b {
                lo_vals.push(a.clone());
                hi_vals.push(a.clone());
                consumed += 1;
                continue;
            }
        }
        // Range column: consume and stop.
        match &iv.lo {
            IvBound::Unbounded => lo_open = true,
            IvBound::Inclusive(v) => lo_vals.push(v.clone()),
            IvBound::Exclusive(v) => {
                lo_vals.push(v.clone());
                lo_exclusive = true;
            }
        }
        match &iv.hi {
            IvBound::Unbounded => hi_open = true,
            IvBound::Inclusive(v) => hi_vals.push(v.clone()),
            IvBound::Exclusive(v) => {
                hi_vals.push(v.clone());
                hi_exclusive = true;
            }
        }
        consumed += 1;
        break;
    }
    if consumed == 0 {
        return (None, 1.0, false);
    }
    let full_prefix = consumed == keys.len();
    // Lower bound.
    let lo = if lo_open && lo_vals.len() < consumed {
        if lo_vals.is_empty() {
            Bound::Unbounded
        } else {
            Bound::Included(Key::new(lo_vals))
        }
    } else if lo_exclusive {
        // (v, ...]: exclusive on the last component. With deeper keys this
        // must skip all composites starting with v: append the sentinel.
        let mut vals = lo_vals;
        if !full_prefix {
            vals.push(Value::sentinel_max());
        }
        Bound::Excluded(Key::new(vals))
    } else if lo_vals.is_empty() {
        Bound::Unbounded
    } else {
        Bound::Included(Key::new(lo_vals))
    };
    // Upper bound.
    let hi = if hi_open && hi_vals.len() < consumed {
        if hi_vals.is_empty() {
            Bound::Unbounded
        } else {
            let mut vals = hi_vals;
            vals.push(Value::sentinel_max());
            Bound::Included(Key::new(vals))
        }
    } else if hi_vals.is_empty() {
        Bound::Unbounded
    } else if hi_exclusive {
        Bound::Excluded(Key::new(hi_vals))
    } else {
        let mut vals = hi_vals;
        if !full_prefix {
            vals.push(Value::sentinel_max());
        }
        Bound::Included(Key::new(vals))
    };
    (Some((lo, hi)), sel, full_prefix)
}

/// Bind a table-ordinal expression to a node's output ordinals.
fn bind_expr(expr: &Expr, table: usize, node: &PlanNode) -> Result<Expr> {
    let mut map = HashMap::new();
    for c in expr.referenced_columns() {
        let pos = node.find_col(table, c).ok_or_else(|| {
            HpdError::Internal(format!(
                "column {c} of table {table} not available in plan node"
            ))
        })?;
        map.insert(c, pos);
    }
    expr.remap_columns(&map)
}

/// Execution mode implied by the access path under this node.
fn node_mode(node: &PlanNode) -> PlanMode {
    match &node.kind {
        PlanNodeKind::CsiScan { .. } | PlanNodeKind::CsiAgg { .. } => PlanMode::Batch,
        PlanNodeKind::PartitionedScan { parts, .. } => {
            if parts
                .iter()
                .all(|p| matches!(node_mode(p), PlanMode::Batch))
            {
                PlanMode::Batch
            } else {
                PlanMode::Row
            }
        }
        PlanNodeKind::Filter { mode, .. } | PlanNodeKind::Project { mode, .. } => *mode,
        PlanNodeKind::PkLookup { .. }
        | PlanNodeKind::BTreeSeek { .. }
        | PlanNodeKind::BTreeScan { .. }
        | PlanNodeKind::IndexNLJoin { .. } => PlanMode::Row,
        PlanNodeKind::HashAgg { child, .. }
        | PlanNodeKind::StreamAgg { child, .. }
        | PlanNodeKind::Sort { child, .. }
        | PlanNodeKind::Limit { child, .. } => node_mode(child),
        PlanNodeKind::HashJoin { .. } => PlanMode::Row,
    }
}

/// Static type of a bound expression.
fn expr_type(expr: &Expr, input_types: &[DataType]) -> Result<DataType> {
    Ok(match expr {
        Expr::Col(i) => input_types[*i],
        Expr::Lit(v) => v.data_type(),
        Expr::Cmp { .. } | Expr::And(_) | Expr::Or(_) | Expr::Not(_) => DataType::Int32,
        Expr::Arith { lhs, rhs, .. } => {
            let l = expr_type(lhs, input_types)?;
            let r = expr_type(rhs, input_types)?;
            match (l, r) {
                (DataType::Decimal, DataType::Decimal) => DataType::Decimal,
                (DataType::Int32, DataType::Int32)
                | (DataType::Int64, DataType::Int64)
                | (DataType::Int32, DataType::Int64)
                | (DataType::Int64, DataType::Int32) => DataType::Int64,
                _ => DataType::Float64,
            }
        }
    })
}

fn join_keys_between(
    query: &SelectQuery,
    joined: &[usize],
    next: usize,
) -> Vec<(crate::query::ColRef, crate::query::ColRef)> {
    query
        .joins
        .iter()
        .filter(|j| {
            (joined.contains(&j.left.table) && j.right.table == next)
                || (joined.contains(&j.right.table) && j.left.table == next)
        })
        .map(|j| (j.left, j.right))
        .collect()
}

/// Record the chosen plan's leaf access paths in the global metrics
/// registry: how often the optimizer picks B+ tree vs columnstore leaves,
/// and how often one plan mixes both (the hybrid designs the paper studies).
fn record_plan_choice(root: &PlanNode) {
    fn walk(node: &PlanNode, btree: &mut u64, csi: &mut u64) {
        match &node.kind {
            PlanNodeKind::BTreeSeek { .. } | PlanNodeKind::BTreeScan { .. } => *btree += 1,
            PlanNodeKind::CsiScan { .. } | PlanNodeKind::CsiAgg { .. } => *csi += 1,
            _ => {}
        }
        for c in node.children() {
            walk(c, btree, csi);
        }
    }
    let (mut btree, mut csi) = (0u64, 0u64);
    walk(root, &mut btree, &mut csi);
    let reg = hpd_obs::global();
    reg.counter("optimizer.plans").inc();
    reg.counter("optimizer.leaf_btree").add(btree);
    reg.counter("optimizer.leaf_csi").add(csi);
    if btree > 0 && csi > 0 {
        reg.counter("optimizer.hybrid_plans").inc();
    }
}

/// Sum of estimated CPU microseconds over a subtree.
pub fn total_cpu(node: &PlanNode) -> f64 {
    node.est_cpu_us + node.children().iter().map(|c| total_cpu(c)).sum::<f64>()
}

/// Split estimated I/O into (parallelizable, latency-bound): columnstore
/// segment reads are independent requests that scale with DOP; B+ tree page
/// chains and everything else do not.
pub fn split_io(node: &PlanNode) -> (f64, f64) {
    let mut divisible = node.est_io_div_us;
    let mut serial = node.est_io_us - node.est_io_div_us;
    for c in node.children() {
        let (d, s) = split_io(c);
        divisible += d;
        serial += s;
    }
    (divisible, serial)
}

/// Propagate the chosen DOP to the scan leaves. A gather takes it like a
/// leaf and splits it among its lanes' own leaves, so one lane gets all of
/// it and DOP ≤ lanes leaves every lane serial.
fn set_scan_dop(node: &mut PlanNode, dop: usize) {
    let mut below = dop;
    match &mut node.kind {
        PlanNodeKind::BTreeSeek { dop: d, .. }
        | PlanNodeKind::BTreeScan { dop: d, .. }
        | PlanNodeKind::CsiScan { dop: d, .. } => *d = dop,
        PlanNodeKind::PartitionedScan { dop: d, parts, .. } => {
            *d = dop;
            below = (dop / parts.len()).max(1);
        }
        _ => {}
    }
    for child in node.children_mut() {
        set_scan_dop(child, below);
    }
}
