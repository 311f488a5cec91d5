//! Lowers physical plans onto `hpd-exec` operators and runs them.

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;
use std::time::Instant;

use hpd_common::{Batch, DataType, HpdError, Interval, Key, Result, Row, Value};
use hpd_exec::ops::sort::SortKey;
use hpd_exec::ops::PlanNode as ExecNode;
use hpd_exec::{
    collect_rows, AggSpec, BTreeRangeScanOp, CsiAggOp, CsiScanOp, ExecCtx, FilterOp, HashAggOp,
    HashJoinOp, IndexLookupJoinOp, LimitOp, MemoryGrant, Mode, Operator, ParallelOp, ProfiledOp,
    ProjectOp, SortOp, StreamAggOp, WorkerPool,
};
use hpd_storage::BufferPool;

use crate::design::IndexId;
use crate::plan::{PhysicalPlan, PlanMode, PlanNode, PlanNodeKind};
use crate::profile::{AnalyzeReport, ProfileMap};
use crate::table::{PartIndex, Table};

/// Result of executing one statement.
#[derive(Debug, Clone)]
pub struct ExecutionResult {
    pub rows: Vec<Row>,
    pub metrics: hpd_exec::ExecMetrics,
    /// Per-node actuals, present when the runner profiled the execution
    /// (see [`QueryRunner::with_profile`]).
    pub analyze: Option<Box<AnalyzeReport>>,
}

impl ExecutionResult {
    /// Convenience: first value of the first row (scalar aggregates).
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().map(|r| &r[0])
    }
}

/// Per-table snapshot correction for reads under snapshot isolation: rows
/// rewritten after the snapshot are removed from scan output (by primary
/// key) and their old versions appended. The residual predicate above the
/// scan re-checks appended rows, so this is correct for seeks as well.
#[derive(Debug, Clone, Default)]
pub struct TableOverlay {
    /// Primary keys whose current version must be hidden.
    pub removed: std::collections::HashSet<Key>,
    /// Old row versions (full table rows) visible at the snapshot.
    pub added: Vec<Row>,
}

impl TableOverlay {
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

/// Executes plans against materialized tables.
pub struct QueryRunner<'a> {
    tables: Vec<&'a Table>,
    pool: &'a BufferPool,
    grant: MemoryGrant,
    workers: WorkerPool,
    overlays: HashMap<usize, TableOverlay>,
    profile_requested: bool,
    /// Node→stats map for the plan currently being lowered/run; populated
    /// by [`run`](QueryRunner::run) when profiling is on.
    profile: RefCell<Option<ProfileMap>>,
}

impl<'a> QueryRunner<'a> {
    /// `tables` must align with the plan's query table indices. Builds a
    /// private memory grant and an unbounded worker pool — the standalone
    /// form used by tests and DML sub-plans; engine queries go through
    /// [`QueryRunner::with_resources`].
    pub fn new(
        tables: Vec<&'a Table>,
        pool: &'a BufferPool,
        grant_bytes: usize,
    ) -> QueryRunner<'a> {
        QueryRunner::with_resources(
            tables,
            pool,
            MemoryGrant::new(grant_bytes),
            WorkerPool::unbounded(),
        )
    }

    /// A runner executing against engine-shared resources: a broker-issued
    /// memory grant and the engine's worker-thread pool.
    pub fn with_resources(
        tables: Vec<&'a Table>,
        pool: &'a BufferPool,
        grant: MemoryGrant,
        workers: WorkerPool,
    ) -> QueryRunner<'a> {
        QueryRunner {
            tables,
            pool,
            grant,
            workers,
            overlays: HashMap::new(),
            profile_requested: false,
            profile: RefCell::new(None),
        }
    }

    /// Attach snapshot-isolation overlays (keyed by query table index).
    pub fn with_overlays(mut self, overlays: HashMap<usize, TableOverlay>) -> QueryRunner<'a> {
        self.overlays = overlays;
        self
    }

    /// Record per-operator actuals while executing; the result's `analyze`
    /// field carries the report.
    pub fn with_profile(mut self) -> QueryRunner<'a> {
        self.profile_requested = true;
        self
    }

    /// Wrap `op` with the instrumentation cell for `node`, if profiling.
    /// The wrapper also emits an `op` trace span when tracing is enabled.
    fn wrap_node(&self, node: &PlanNode, op: ExecNode<'a>) -> ExecNode<'a> {
        match self
            .profile
            .borrow()
            .as_ref()
            .and_then(|m| m.stats_for(node))
        {
            // A static name: no table names, which need the plan's name
            // table and which span attrs don't want to allocate for.
            Some(stats) => Box::new(ProfiledOp::new(op, stats).with_span(node.kind_name())),
            None => op,
        }
    }

    /// Execute the plan and gather rows + metrics.
    pub fn run(&self, plan: &PhysicalPlan) -> Result<ExecutionResult> {
        // The profile map also feeds op trace spans, so build it whenever
        // tracing is on; the analyze report stays gated on the request.
        if self.profile_requested || hpd_obs::trace::tracer().is_enabled() {
            *self.profile.borrow_mut() = Some(ProfileMap::build(plan));
        }
        let ctx = ExecCtx::with_resources(self.pool, self.grant.clone(), self.workers.clone());
        let mut exec_span = hpd_obs::trace::span("execute");
        let start = Instant::now();
        let mut op = self.lower(&plan.root)?;
        let rows = collect_rows(op.as_mut(), &ctx)?;
        let wall = start.elapsed();
        // Drop the operator tree first so its `op` spans end inside
        // `execute`, then close the span with its summary attrs.
        drop(op);
        let dop = plan.max_dop();
        if exec_span.is_recording() {
            exec_span.attr("dop", dop);
            exec_span.attr("rows", rows.len());
        }
        drop(exec_span);
        let cpu = ctx.cpu_time(wall);
        let critical_path = ctx.critical_path(wall);
        // Simulated device time only parallelizes across independent
        // streams: columnstore segment reads scale with DOP, B+ tree page
        // chains do not.
        let io_dop = if plan
            .leaf_kinds()
            .contains(&crate::plan::LeafKind::Columnstore)
        {
            dop
        } else {
            1
        };
        let metrics = hpd_exec::ExecMetrics {
            wall,
            cpu,
            critical_path,
            io: ctx.tracker.snapshot(),
            io_dop,
            dop,
            rows_returned: rows.len(),
            memory_peak_bytes: ctx.grant.peak_bytes(),
        };
        let analyze = match self.profile.borrow().as_ref() {
            Some(m) if self.profile_requested => Some(Box::new(m.report(plan, metrics.io))),
            _ => None,
        };
        Ok(ExecutionResult {
            rows,
            metrics,
            analyze,
        })
    }

    fn table(&self, ti: usize) -> Result<&'a Table> {
        self.tables
            .get(ti)
            .copied()
            .ok_or_else(|| HpdError::Internal(format!("table index {ti} out of range")))
    }

    /// What `index` names in part `part` of query table `ti`: that position
    /// of the part's index list. A plan naming a part or a position the
    /// table does not have was built against another design: refuse it (as
    /// [`PartIndex::btree`] / [`PartIndex::csi`] refuse one naming an index
    /// of the other kind).
    fn index(&self, ti: usize, part: usize, index: IndexId) -> Result<&'a PartIndex> {
        let table = self.table(ti)?;
        let refuse = |what: String, has: usize| {
            HpdError::Internal(format!(
                "plan names {what} of table {}, which has {has}",
                table.name
            ))
        };
        let indexes = (table.parts().get(part))
            .ok_or_else(|| refuse(format!("part {part}"), table.num_parts()))?
            .indexes();
        indexes
            .get(index.0)
            .ok_or_else(|| refuse(format!("index {} of part {part}", index.0), indexes.len()))
    }

    /// Restrict a snapshot overlay to one part of a table with several.
    /// `removed` keys stay whole-table (hiding a key another part owns is
    /// harmless); `added` rows must surface exactly once across a
    /// scatter-gather, in the lane owning their part.
    fn restrict_overlay(&self, ov: &TableOverlay, ti: usize, part: usize) -> TableOverlay {
        let table = match self.table(ti) {
            Ok(t) if t.num_parts() > 1 => t,
            _ => return ov.clone(),
        };
        TableOverlay {
            removed: ov.removed.clone(),
            added: ov
                .added
                .iter()
                .filter(|r| table.route_row(r) == part)
                .cloned()
                .collect(),
        }
    }

    /// Build the partitioned scan operators for a leaf node (one operator
    /// when the effective DOP is 1). `out_cols` selects the produced
    /// columns (normally `node.out_cols`; extended with the primary key
    /// when a snapshot overlay must identify rows).
    fn scan_partitions(
        &self,
        node: &PlanNode,
        out_cols: &[crate::plan::PlanCol],
    ) -> Result<Vec<ExecNode<'a>>> {
        match &node.kind {
            PlanNodeKind::BTreeScan { .. } => {
                self.btree_partitions(node, Bound::Unbounded, Bound::Unbounded)
            }
            PlanNodeKind::BTreeSeek { lo, hi, .. } => {
                self.btree_partitions(node, lo.clone(), hi.clone())
            }
            PlanNodeKind::CsiScan {
                table,
                part,
                index,
                intervals,
                dop,
            } => {
                let index = self.index(*table, *part, *index)?;
                let csi = index.csi()?;
                // Translate table-ordinal projection & intervals to the
                // CSI's schema ordinals.
                let projection: Vec<usize> = out_cols
                    .iter()
                    .map(|pc| match pc {
                        crate::plan::PlanCol::Base(_, c) => index.position(*c),
                        crate::plan::PlanCol::Computed => {
                            Err(HpdError::Internal("computed column in scan".into()))
                        }
                    })
                    .collect::<Result<_>>()?;
                let csi_intervals: HashMap<usize, Interval> = intervals
                    .iter()
                    .filter_map(|(&c, iv)| index.position(c).ok().map(|cc| (cc, iv.clone())))
                    .collect();
                let dop = (*dop).clamp(1, csi.num_rowgroups().max(1));
                if dop <= 1 {
                    return Ok(vec![Box::new(CsiScanOp::full(
                        csi,
                        projection,
                        csi_intervals,
                    ))]);
                }
                // Shared anti-join probe built once.
                let ctx = ExecCtx::new(self.pool);
                let probe = csi.antijoin_probe(self.pool, &ctx.tracker).map(Arc::new);
                let mut parts: Vec<ExecNode<'a>> = Vec::with_capacity(dop);
                for w in 0..dop {
                    let rgs: Vec<usize> = (0..csi.num_rowgroups())
                        .filter(|rg| rg % dop == w)
                        .collect();
                    parts.push(Box::new(CsiScanOp::over_rowgroups(
                        csi,
                        rgs,
                        projection.clone(),
                        csi_intervals.clone(),
                        w == 0,
                        probe.clone(),
                    )));
                }
                Ok(parts)
            }
            _ => Err(HpdError::Internal("not a scan node".into())),
        }
    }

    /// Range-scan operators over the B+ tree a `BTreeScan` / `BTreeSeek`
    /// node names, split its `dop` ways.
    fn btree_partitions(
        &self,
        node: &PlanNode,
        lo: Bound<Key>,
        hi: Bound<Key>,
    ) -> Result<Vec<ExecNode<'a>>> {
        let (ti, part, index, dop) = scan_of(node)?;
        let index = self.index(ti, part, index)?;
        let tree = index.btree()?;
        let types: Vec<DataType> = node.out_types.clone();
        if dop <= 1 {
            return Ok(vec![Box::new(BTreeRangeScanOp::new(tree, types, lo, hi))]);
        }
        // Split points from the first key column's histogram.
        let table = self.table(ti)?;
        let first_key_col = index.descriptor().keys().first().copied().unwrap_or(0);
        let bounds = &table.stats().columns[first_key_col].bucket_bounds;
        let in_range = |v: &Value| -> bool {
            let k = Key::single(v.clone());
            let above = match &lo {
                Bound::Unbounded => true,
                Bound::Included(b) | Bound::Excluded(b) => &k > b,
            };
            let below = match &hi {
                Bound::Unbounded => true,
                Bound::Included(b) | Bound::Excluded(b) => &k < b,
            };
            above && below
        };
        let candidates: Vec<&Value> = bounds.iter().filter(|v| in_range(v)).collect();
        let step = (candidates.len() / dop).max(1);
        let mut splits: Vec<Value> = candidates
            .iter()
            .step_by(step)
            .skip(1)
            .take(dop - 1)
            .map(|v| (*v).clone())
            .collect();
        splits.dedup();
        let mut parts: Vec<ExecNode<'a>> = Vec::with_capacity(splits.len() + 1);
        let mut cur_lo = lo;
        for s in splits {
            let boundary = Key::single(s);
            parts.push(Box::new(BTreeRangeScanOp::new(
                tree,
                types.clone(),
                cur_lo.clone(),
                Bound::Excluded(boundary.clone()),
            )));
            cur_lo = Bound::Included(boundary);
        }
        parts.push(Box::new(BTreeRangeScanOp::new(tree, types, cur_lo, hi)));
        Ok(parts)
    }

    fn overlay_for(&self, node: &PlanNode) -> Option<&TableOverlay> {
        let (ti, ..) = node.scan()?;
        self.overlays.get(&ti).filter(|o| !o.is_empty())
    }

    /// Lower a scan node, applying its snapshot overlay if one is active
    /// and not suppressed (a parent `PkLookup` applies the overlay itself,
    /// above the lookup: probing the primary tree would resurface the
    /// *current* row version and undo the snapshot correction).
    fn lower_scan(&self, node: &PlanNode, with_overlay: bool) -> Result<ExecNode<'a>> {
        let (ti, part, index, dop) = scan_of(node)?;
        let overlay = if with_overlay {
            self.overlay_for(node)
        } else {
            None
        };
        let Some(overlay) = overlay else {
            return Ok(gather(self.scan_partitions(node, &node.out_cols)?, dop));
        };
        let table = self.table(ti)?;
        // Partitioned tables: each lane appends only the overlay rows it
        // owns, or the scatter-gather would surface every added row once
        // per lane.
        let part_restricted;
        let overlay = if table.num_parts() > 1 {
            part_restricted = self.restrict_overlay(overlay, ti, part);
            &part_restricted
        } else {
            overlay
        };
        // A CsiScan applies its intervals exactly inside the scan, and the
        // planner drops the residual filter when the intervals cover the
        // whole predicate — so overlay rows (old versions added back for
        // snapshot correction) must honor the same intervals here.
        let filtered;
        let overlay = match &node.kind {
            PlanNodeKind::CsiScan { intervals, .. } if !intervals.is_empty() => {
                filtered = TableOverlay {
                    removed: overlay.removed.clone(),
                    added: overlay
                        .added
                        .iter()
                        .filter(|r| {
                            intervals
                                .iter()
                                .all(|(&c, iv)| c >= r.len() || iv.contains(&r.values()[c]))
                        })
                        .cloned()
                        .collect(),
                };
                &filtered
            }
            _ => overlay,
        };
        // B+ tree access paths promise the index key order to the optimizer
        // (which may elide a Sort or stream an aggregate on the strength of
        // it), but the overlay operator appends old row versions at the end
        // of the stream. Re-establish the claimed order below.
        let order_keys: &[usize] = match &node.kind {
            PlanNodeKind::BTreeScan { .. } | PlanNodeKind::BTreeSeek { .. } => {
                self.index(ti, part, index)?.descriptor().keys()
            }
            _ => &[],
        };
        // Extend the output with any missing primary-key columns (so rows
        // can be identified) and missing order-key columns (so the order
        // can be restored).
        let mut ext_cols = node.out_cols.clone();
        let mut ext_types = node.out_types.clone();
        let mut ensure_col = |k: usize| {
            if node.find_col(ti, k).is_none()
                && !ext_cols
                    .iter()
                    .any(|c| matches!(c, crate::plan::PlanCol::Base(t, cc) if *t == ti && *cc == k))
            {
                ext_cols.push(crate::plan::PlanCol::Base(ti, k));
                ext_types.push(table.schema().column(k).dtype);
            }
        };
        for &k in table.pk() {
            ensure_col(k);
        }
        for &k in order_keys {
            ensure_col(k);
        }
        let scan = gather(self.scan_partitions(node, &ext_cols)?, dop);
        // Project the overlay's full-table rows to the scan's columns.
        let table_ords: Vec<usize> = ext_cols
            .iter()
            .map(|c| match c {
                crate::plan::PlanCol::Base(_, cc) => *cc,
                crate::plan::PlanCol::Computed => unreachable!("scan emits base columns"),
            })
            .collect();
        let mut op = self.wrap_overlay(scan, ti, &table_ords, ext_types, overlay)?;
        if !order_keys.is_empty() {
            let sort_keys: Vec<SortKey> = order_keys
                .iter()
                .map(|&k| {
                    SortKey::asc(
                        table_ords
                            .iter()
                            .position(|&c| c == k)
                            .expect("order key column was extended into the scan output"),
                    )
                })
                .collect();
            op = Box::new(SortOp::new(op, sort_keys));
        }
        if ext_cols.len() > node.out_cols.len() {
            let keep: Vec<usize> = (0..node.out_cols.len()).collect();
            Ok(Box::new(ProjectOp::columns(op, &keep, Mode::Batch)))
        } else {
            Ok(op)
        }
    }

    /// Wrap `op` (whose output columns are the given table ordinals of
    /// query table `ti`) with the snapshot-correction operator.
    fn wrap_overlay(
        &self,
        op: ExecNode<'a>,
        ti: usize,
        table_ords: &[usize],
        types: Vec<DataType>,
        overlay: &TableOverlay,
    ) -> Result<ExecNode<'a>> {
        let table = self.table(ti)?;
        let pk_pos: Vec<usize> = table
            .pk()
            .iter()
            .map(|&k| {
                table_ords
                    .iter()
                    .position(|&c| c == k)
                    .ok_or_else(|| HpdError::Internal("overlay output lacks the pk".into()))
            })
            .collect::<Result<_>>()?;
        let added: Vec<Row> = overlay
            .added
            .iter()
            .map(|r| r.project(table_ords))
            .collect();
        Ok(Box::new(OverlayOp {
            child: op,
            types,
            pk_pos,
            removed: overlay.removed.clone(),
            added: Some(added),
        }))
    }

    /// Lower a plan node to an operator tree (instrumented when profiling).
    fn lower(&self, node: &PlanNode) -> Result<ExecNode<'a>> {
        let op = self.lower_inner(node)?;
        Ok(self.wrap_node(node, op))
    }

    fn lower_inner(&self, node: &PlanNode) -> Result<ExecNode<'a>> {
        match &node.kind {
            PlanNodeKind::BTreeScan { .. }
            | PlanNodeKind::BTreeSeek { .. }
            | PlanNodeKind::CsiScan { .. } => self.lower_scan(node, true),
            PlanNodeKind::PartitionedScan {
                parts, pruned, dop, ..
            } => {
                let reg = hpd_obs::global();
                reg.counter("partition.scanned").add(parts.len() as u64);
                reg.counter("partition.pruned").add(*pruned as u64);
                let lanes = parts
                    .iter()
                    .map(|lane| self.lower(lane))
                    .collect::<Result<Vec<_>>>()?;
                Ok(gather(lanes, *dop))
            }
            PlanNodeKind::CsiAgg {
                table,
                part,
                index,
                intervals,
                aggs,
            } => {
                // A snapshot overlay invalidates the encoded fold (hidden
                // and re-added rows change the answer): fall back to a
                // covering CsiScan — which applies the correction — under a
                // global hash aggregate.
                if self.overlays.get(table).is_some_and(|o| !o.is_empty()) {
                    let mut cols: Vec<usize> = aggs.iter().map(|a| a.input).collect();
                    cols.sort_unstable();
                    cols.dedup();
                    let t = self.table(*table)?;
                    let scan = PlanNode::new(
                        PlanNodeKind::CsiScan {
                            table: *table,
                            part: *part,
                            index: *index,
                            intervals: intervals.clone(),
                            dop: 1,
                        },
                        cols.iter()
                            .map(|&c| crate::plan::PlanCol::Base(*table, c))
                            .collect(),
                        cols.iter()
                            .map(|&c| t.schema().columns()[c].dtype)
                            .collect(),
                        node.est_rows,
                    );
                    let c = self.lower_scan(&scan, true)?;
                    let specs = aggs
                        .iter()
                        .map(|a| {
                            let pos = cols
                                .iter()
                                .position(|&c| c == a.input)
                                .expect("cols was built from aggs");
                            AggSpec::new(a.func, pos)
                        })
                        .collect();
                    return Ok(Box::new(HashAggOp::new(c, Vec::new(), specs)));
                }
                let index = self.index(*table, *part, *index)?;
                let csi = index.csi()?;
                // No residual filter exists above this node, so every
                // interval must translate — dropping one would change the
                // answer.
                let csi_intervals: HashMap<usize, Interval> = intervals
                    .iter()
                    .map(|(&c, iv)| Ok((index.position(c)?, iv.clone())))
                    .collect::<Result<_>>()?;
                let pushed = aggs
                    .iter()
                    .map(|a| {
                        Ok(hpd_columnstore::PushdownAgg {
                            func: a.func,
                            col: index.position(a.input)?,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(Box::new(CsiAggOp::new(csi, pushed, csi_intervals)))
            }
            PlanNodeKind::Filter { child, predicate } => {
                // Push the filter into parallel scan workers so predicate
                // CPU parallelizes like the scan itself (not when a snapshot
                // overlay must be applied once above the gather).
                let dop = child.scan().map_or(1, |(.., dop)| dop);
                if dop > 1 && self.overlay_for(child).is_none() {
                    let parts = self.scan_partitions(child, &child.out_cols)?;
                    // All partitions of the scan report into the scan node's
                    // single stats cell, pre-filter, so actual rows reflect
                    // what the scan produced.
                    let workers: Vec<ExecNode<'a>> = parts
                        .into_iter()
                        .map(|p| {
                            let p = self.wrap_node(child, p);
                            Box::new(FilterOp::new(p, predicate.clone(), exec_mode(node)))
                                as ExecNode<'a>
                        })
                        .collect();
                    return Ok(gather(workers, dop));
                }
                let c = self.lower(child)?;
                Ok(Box::new(FilterOp::new(
                    c,
                    predicate.clone(),
                    exec_mode(node),
                )))
            }
            PlanNodeKind::Project { child, exprs } => {
                let c = self.lower(child)?;
                Ok(Box::new(ProjectOp::new(
                    c,
                    exprs.clone(),
                    node.out_types.clone(),
                    exec_mode(node),
                )))
            }
            PlanNodeKind::PkLookup {
                child,
                table,
                part,
                locator,
            } => {
                // Suppress the child scan's overlay: the lookup re-fetches
                // rows from the primary tree, so the snapshot correction
                // must wrap the *lookup output* (full rows) instead.
                let overlay = self
                    .overlays
                    .get(table)
                    .filter(|o| !o.is_empty())
                    .map(|o| self.restrict_overlay(o, *table, *part));
                let c = if child.scan().is_some() {
                    self.wrap_node(child, self.lower_scan(child, false)?)
                } else {
                    self.lower(child)?
                };
                let t = self.table(*table)?;
                let tree = self.index(*table, *part, IndexId::PRIMARY)?.btree()?;
                let payload_types: Vec<DataType> =
                    t.schema().columns().iter().map(|c| c.dtype).collect();
                let child_arity = child.out_types.len();
                let join: ExecNode<'a> = Box::new(IndexLookupJoinOp::new(
                    c,
                    tree,
                    locator.clone(),
                    payload_types.clone(),
                ));
                // Drop the secondary-index prefix, keep the full rows.
                let ords: Vec<usize> = (child_arity..child_arity + payload_types.len()).collect();
                let full: ExecNode<'a> = Box::new(ProjectOp::columns(join, &ords, exec_mode(node)));
                match overlay {
                    Some(ov) => {
                        let all: Vec<usize> = (0..t.schema().len()).collect();
                        self.wrap_overlay(full, *table, &all, payload_types, &ov)
                    }
                    None => Ok(full),
                }
            }
            PlanNodeKind::HashAgg { child, group, aggs } => {
                let c = self.lower(child)?;
                let specs = aggs.iter().map(|a| AggSpec::new(a.func, a.input)).collect();
                Ok(Box::new(HashAggOp::new(c, group.clone(), specs)))
            }
            PlanNodeKind::StreamAgg { child, group, aggs } => {
                let c = self.lower(child)?;
                let specs = aggs.iter().map(|a| AggSpec::new(a.func, a.input)).collect();
                Ok(Box::new(StreamAggOp::new(c, group.clone(), specs)))
            }
            PlanNodeKind::Sort { child, keys } => {
                let c = self.lower(child)?;
                let sort_keys = keys
                    .iter()
                    .map(|&(col, asc)| {
                        if asc {
                            SortKey::asc(col)
                        } else {
                            SortKey::desc(col)
                        }
                    })
                    .collect();
                Ok(Box::new(SortOp::new(c, sort_keys)))
            }
            PlanNodeKind::Limit { child, n } => {
                let c = self.lower(child)?;
                Ok(Box::new(LimitOp::new(c, *n)))
            }
            PlanNodeKind::HashJoin { left, right, keys } => {
                let l = self.lower(left)?;
                let r = self.lower(right)?;
                let (side, _) = PlanNode::hash_join_build(left, right);
                Ok(Box::new(HashJoinOp::new(l, r, keys.clone()).build_on(side)))
            }
            PlanNodeKind::IndexNLJoin {
                outer,
                table,
                index,
                outer_key,
            } => {
                let o = self.lower(outer)?;
                // The join probes one index per outer row: the planner only
                // picks it for a one-part inner.
                if self.table(*table)?.num_parts() != 1 {
                    return Err(HpdError::Internal(
                        "IndexNLJoin over an inner table of several parts".into(),
                    ));
                }
                let outer_arity = outer.out_types.len();
                let payload_types: Vec<DataType> = node.out_types[outer_arity..].to_vec();
                // Seeks would read the live index past a snapshot: join on
                // the overlay-corrected scan of that index instead, built on
                // it, which gives an outer row its inner rows in key order.
                if self.overlays.get(table).is_some_and(|o| !o.is_empty()) {
                    let scan = PlanNode::new(
                        PlanNodeKind::BTreeScan {
                            table: *table,
                            part: 0,
                            index: *index,
                            dop: 1,
                        },
                        node.out_cols[outer_arity..].to_vec(),
                        payload_types,
                        node.est_rows,
                    );
                    let keys = self.index(*table, 0, *index)?.descriptor().keys();
                    let on = outer_key
                        .iter()
                        .zip(keys)
                        .map(|(&o, &k)| {
                            let inner = scan.find_col(*table, k).ok_or_else(|| {
                                HpdError::Internal("index key missing from its scan".into())
                            })?;
                            Ok((o, inner))
                        })
                        .collect::<Result<Vec<_>>>()?;
                    let inner = self.lower_scan(&scan, true)?;
                    return Ok(Box::new(HashJoinOp::new(o, inner, on)));
                }
                let tree = self.index(*table, 0, *index)?.btree()?;
                Ok(Box::new(IndexLookupJoinOp::new(
                    o,
                    tree,
                    outer_key.clone(),
                    payload_types,
                )))
            }
        }
    }
}

/// Snapshot-correction operator: hides rows whose primary key was rewritten
/// after the snapshot, then appends the old versions once the child is
/// exhausted.
struct OverlayOp<'a> {
    child: ExecNode<'a>,
    types: Vec<DataType>,
    pk_pos: Vec<usize>,
    removed: std::collections::HashSet<Key>,
    added: Option<Vec<Row>>,
}

impl Operator for OverlayOp<'_> {
    fn out_types(&self) -> Vec<DataType> {
        self.types.clone()
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if let Some(batch) = self.child.next(ctx)? {
            if self.removed.is_empty() {
                return Ok(Some(batch));
            }
            let mask: Vec<bool> = (0..batch.num_rows())
                .map(|i| {
                    let key = Key::new(
                        self.pk_pos
                            .iter()
                            .map(|&p| batch.column(p).value(i))
                            .collect(),
                    );
                    !self.removed.contains(&key)
                })
                .collect();
            return Ok(Some(batch.filter(&mask)));
        }
        if let Some(rows) = self.added.take() {
            if !rows.is_empty() {
                return Ok(Some(Batch::from_rows(&self.types, &rows)?));
            }
        }
        Ok(None)
    }
}

/// [`PlanNode::scan`] of a node the executor lowers as a scan leaf.
fn scan_of(node: &PlanNode) -> Result<(usize, usize, IndexId, usize)> {
    node.scan()
        .ok_or_else(|| HpdError::Internal("not a scan node".into()))
}

/// The executor's mode for `node`'s operators: the one its plan node holds.
fn exec_mode(node: &PlanNode) -> Mode {
    match node.mode() {
        PlanMode::Row => Mode::Row,
        PlanMode::Batch => Mode::Batch,
    }
}

/// Wrap partitions in a ParallelOp running at most `dop` of them at once
/// (or return the single partition).
fn gather(mut parts: Vec<ExecNode<'_>>, dop: usize) -> ExecNode<'_> {
    if parts.len() == 1 {
        parts.pop().expect("one element")
    } else {
        Box::new(ParallelOp::new(parts, dop))
    }
}
