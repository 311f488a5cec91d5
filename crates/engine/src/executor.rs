//! Lowers physical plans onto `hpd-exec` operators and runs them.

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Bound;
use std::time::Instant;

use hpd_columnstore::SharedProbe;
use hpd_common::{Batch, DataType, HpdError, Interval, Key, Result, Row, Value};
use hpd_exec::ops::sort::SortKey;
use hpd_exec::ops::PlanNode as ExecNode;
use hpd_exec::{
    collect_rows, AggSpec, BTreeRangeScanOp, CsiAggOp, CsiScanOp, ExecCtx, FilterOp, HashAggOp,
    HashJoinOp, IndexLookupJoinOp, LimitOp, MemoryGrant, Operator, ParallelOp, ProfiledOp,
    ProjectOp, SortOp, StreamAggOp, WorkerPool,
};
use hpd_storage::BufferPool;

use crate::design::IndexId;
use crate::plan::{PhysicalPlan, PlanCol, PlanNode, PlanNodeKind};
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

/// Per-table snapshot correction for reads under snapshot isolation, which
/// the plan's [`PlanNodeKind::Snapshot`] nodes apply: rows rewritten after
/// the snapshot are removed from their input (by primary key) and their old
/// versions appended. The residual predicate above the node re-checks
/// appended rows, so this is correct for seeks as well.
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

    /// Attach snapshot-isolation overlays (keyed by query table index), for
    /// the plan's `Snapshot` nodes to apply.
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

    /// Build the partitioned scan operators for a leaf node (one operator
    /// when its DOP is 1). The lanes of a columnstore scan share one
    /// anti-join probe, which the first lane to pull builds.
    fn scan_partitions(&self, node: &PlanNode) -> Result<Vec<ExecNode<'a>>> {
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
                let projection: Vec<usize> = (node.out_cols.iter())
                    .map(|pc| match pc {
                        PlanCol::Base(_, c) => index.position(*c),
                        PlanCol::Computed => {
                            Err(HpdError::Internal("computed column in scan".into()))
                        }
                    })
                    .collect::<Result<_>>()?;
                let csi_intervals: HashMap<usize, Interval> = intervals
                    .iter()
                    .filter_map(|(&c, iv)| index.position(c).ok().map(|cc| (cc, iv.clone())))
                    .collect();
                let dop = (*dop).clamp(1, csi.num_rowgroups().max(1));
                let probe = SharedProbe::default();
                Ok((0..dop)
                    .map(|w| {
                        let rgs: Vec<usize> = (0..csi.num_rowgroups())
                            .filter(|rg| rg % dop == w)
                            .collect();
                        Box::new(CsiScanOp::over_rowgroups(
                            csi,
                            rgs,
                            projection.clone(),
                            csi_intervals.clone(),
                            w == 0,
                            probe.clone(),
                        )) as ExecNode<'a>
                    })
                    .collect())
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

    /// Lower a plan node to an operator tree (instrumented when profiling).
    fn lower(&self, node: &PlanNode) -> Result<ExecNode<'a>> {
        let op = self.lower_inner(node)?;
        Ok(self.wrap_node(node, op))
    }

    fn lower_inner(&self, node: &PlanNode) -> Result<ExecNode<'a>> {
        match &node.kind {
            PlanNodeKind::BTreeScan { .. }
            | PlanNodeKind::BTreeSeek { .. }
            | PlanNodeKind::CsiScan { .. } => Ok(gather(self.scan_partitions(node)?, node.dop())),
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
            PlanNodeKind::Snapshot { child, table, part } => {
                let c = self.lower(child)?;
                let Some(overlay) = self.overlays.get(table) else {
                    return Ok(c);
                };
                let t = self.table(*table)?;
                // The child's columns as table ordinals: the overlay's rows
                // are whole table rows.
                let ords: Vec<usize> = (child.out_cols.iter())
                    .map(|col| match col {
                        PlanCol::Base(ti, c) if ti == table => Ok(*c),
                        _ => Err(HpdError::Internal(
                            "a snapshot reads its own table's columns".into(),
                        )),
                    })
                    .collect::<Result<_>>()?;
                let pk_pos = (t.pk().iter())
                    .map(|k| {
                        (ords.iter().position(|c| c == k))
                            .ok_or_else(|| HpdError::Internal("snapshot input lacks the pk".into()))
                    })
                    .collect::<Result<_>>()?;
                // An old version surfaces once: under the part that owns it.
                // Hiding a key of another part's rows is harmless.
                let added = (overlay.added.iter())
                    .filter(|r| t.route_row(r) == *part)
                    .map(|r| r.project(&ords))
                    .collect();
                Ok(Box::new(OverlayOp {
                    child: c,
                    types: child.out_types.clone(),
                    pk_pos,
                    removed: overlay.removed.clone(),
                    added: Some(added),
                }))
            }
            PlanNodeKind::Filter { child, predicate } => {
                // Push the filter into parallel scan workers so predicate
                // CPU parallelizes like the scan itself.
                let dop = child.scan().map_or(1, |(.., dop)| dop);
                if dop > 1 {
                    // All partitions of the scan report into the scan node's
                    // single stats cell, pre-filter, so actual rows reflect
                    // what the scan produced.
                    let workers: Vec<ExecNode<'a>> = (self.scan_partitions(child)?.into_iter())
                        .map(|p| {
                            let p = self.wrap_node(child, p);
                            Box::new(FilterOp::new(p, predicate.clone(), node.mode()))
                                as ExecNode<'a>
                        })
                        .collect();
                    return Ok(gather(workers, dop));
                }
                let c = self.lower(child)?;
                Ok(Box::new(FilterOp::new(c, predicate.clone(), node.mode())))
            }
            PlanNodeKind::Project { child, exprs } => {
                let c = self.lower(child)?;
                Ok(Box::new(ProjectOp::new(
                    c,
                    exprs.clone(),
                    node.out_types.clone(),
                    node.mode(),
                )))
            }
            PlanNodeKind::PkLookup {
                child,
                table,
                part,
                locator,
            } => {
                let c = self.lower(child)?;
                let tree = self.index(*table, *part, IndexId::PRIMARY)?.btree()?;
                let payload_types: Vec<DataType> = (self.table(*table)?.schema().columns().iter())
                    .map(|c| c.dtype)
                    .collect();
                let child_arity = child.out_types.len();
                let ords: Vec<usize> = (child_arity..child_arity + payload_types.len()).collect();
                let join: ExecNode<'a> = Box::new(IndexLookupJoinOp::new(
                    c,
                    tree,
                    locator.clone(),
                    payload_types,
                ));
                // Drop the secondary-index prefix, keep the full rows.
                Ok(Box::new(ProjectOp::columns(join, &ords, node.mode())))
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
                let payload_types = node.out_types[outer.out_types.len()..].to_vec();
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

/// Wrap partitions in a ParallelOp running at most `dop` of them at once
/// (or return the single partition).
fn gather(mut parts: Vec<ExecNode<'_>>, dop: usize) -> ExecNode<'_> {
    if parts.len() == 1 {
        parts.pop().expect("one element")
    } else {
        Box::new(ParallelOp::new(parts, dop))
    }
}
