//! `EXPLAIN ANALYZE` support: maps plan nodes to shared [`OpStats`] cells,
//! collects actuals after execution, and renders estimated-vs-actual plans.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use hpd_exec::{GrantLease, OpStats};
use hpd_storage::IoSnapshot;
use hpd_wal::WalSummary;

use crate::plan::{PhysicalPlan, PlanNode, PlanNodeKind};

/// Pre-order map from plan-node identity (address within the plan tree,
/// stable for the plan's lifetime) to a stats cell the executor's wrappers
/// report into.
pub struct ProfileMap {
    ids: HashMap<*const PlanNode, usize>,
    stats: Vec<Arc<OpStats>>,
}

impl ProfileMap {
    pub fn build(plan: &PhysicalPlan) -> ProfileMap {
        let mut map = ProfileMap {
            ids: HashMap::new(),
            stats: Vec::new(),
        };
        fn visit(node: &PlanNode, map: &mut ProfileMap) {
            map.ids.insert(node as *const PlanNode, map.stats.len());
            map.stats.push(Arc::new(OpStats::default()));
            for child in node.children() {
                visit(child, map);
            }
        }
        visit(&plan.root, &mut map);
        map
    }

    /// Stats cell for a node of the plan this map was built from.
    pub fn stats_for(&self, node: &PlanNode) -> Option<Arc<OpStats>> {
        self.ids
            .get(&(node as *const PlanNode))
            .map(|&i| Arc::clone(&self.stats[i]))
    }

    /// Freeze the accumulated actuals into a report (call after the query
    /// has drained), beside the statement's `io`.
    pub fn report(&self, plan: &PhysicalPlan, io: IoSnapshot) -> AnalyzeReport {
        let mut nodes = Vec::with_capacity(self.stats.len());
        fn visit(
            node: &PlanNode,
            depth: usize,
            map: &ProfileMap,
            plan: &PhysicalPlan,
            out: &mut Vec<NodeProfile>,
        ) {
            let idx = map.ids[&(node as *const PlanNode)];
            let s = &map.stats[idx];
            out.push(NodeProfile {
                label: node.describe(&plan.tables),
                depth,
                est_rows: node.est_rows,
                est_cost_us: node.est_cpu_us + node.est_io_us,
                actual_rows: s.rows.load(Ordering::Relaxed),
                batches: s.batches.load(Ordering::Relaxed),
                next_calls: s.next_calls.load(Ordering::Relaxed),
                wall: Duration::from_nanos(s.wall_ns.load(Ordering::Relaxed)),
                spilled_bytes: s.spilled_bytes.load(Ordering::Relaxed),
                spill_events: s.spill_events.load(Ordering::Relaxed),
                mem_peak_bytes: s.mem_peak_bytes.load(Ordering::Relaxed),
            });
            for child in node.children() {
                visit(child, depth + 1, map, plan, out);
            }
        }
        visit(&plan.root, 0, self, plan, &mut nodes);
        let partitions = PartitionActivity::of_plan(&plan.root);
        AnalyzeReport {
            nodes,
            est_cost_us: plan.est_cost_us,
            partitions: (!partitions.is_empty()).then_some(partitions),
            io,
            grant: None,
            wal: None,
            timeline: None,
        }
    }
}

/// Partition scatter-gather activity for one statement, read off the
/// plan's `PartitionedScan` nodes (the process-wide `partition.*` counters
/// count the same lanes, for every statement at once). Present whenever the
/// plan has such a node (even with nothing pruned, so the `x/y scanned` line
/// always shows for partitioned tables).
#[derive(Debug, Clone, Copy, Default)]
pub struct PartitionActivity {
    /// Partitions whose scan lanes actually ran.
    pub scanned: u64,
    /// Partitions skipped by partition pruning.
    pub pruned: u64,
}

impl PartitionActivity {
    /// The lanes and pruned partitions of every `PartitionedScan` under
    /// `node`.
    fn of_plan(node: &PlanNode) -> PartitionActivity {
        let mut sum = PartitionActivity::default();
        if let PlanNodeKind::PartitionedScan { parts, pruned, .. } = &node.kind {
            sum.scanned = parts.len() as u64;
            sum.pruned = *pruned as u64;
        }
        for below in node.children().into_iter().map(PartitionActivity::of_plan) {
            sum.scanned += below.scanned;
            sum.pruned += below.pruned;
        }
        sum
    }

    /// Total partitions the statement's partitioned scans covered.
    pub fn total(&self) -> u64 {
        self.scanned + self.pruned
    }

    /// True when no partitioned scan ran.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }
}

/// Memory-grant admission outcome for one statement, taken from the
/// [`GrantLease`] the broker issued before execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct GrantSummary {
    /// Bytes requested from the broker (optimizer estimate with slack,
    /// capped by the session grant ceiling).
    pub requested_bytes: usize,
    /// Bytes actually granted; less than requested when the broker reduced
    /// the grant at the admission deadline.
    pub granted_bytes: usize,
    /// Time spent queued at the broker before admission.
    pub wait_us: u64,
    /// True when the grant was reduced below the request (operators may
    /// spill to stay within it).
    pub reduced: bool,
}

impl GrantSummary {
    /// What `lease` records of its admission.
    pub fn of(lease: &GrantLease) -> GrantSummary {
        GrantSummary {
            requested_bytes: lease.requested_bytes(),
            granted_bytes: lease.granted_bytes(),
            wait_us: lease.wait().as_micros() as u64,
            reduced: lease.is_reduced(),
        }
    }
}

/// Wall-time breakdown of one statement's lifecycle phases, mirroring the
/// span taxonomy of the tracer (`optimize` → `admission` → `execute`; the
/// admission wait is [`GrantSummary::wait_us`], the WAL flush is on the
/// commit path and reported via [`AnalyzeReport::wal`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Timeline {
    /// Planning time inside the optimizer.
    pub optimize_us: u64,
    /// Executor wall time (lowering + drain).
    pub execute_us: u64,
}

/// actual/estimated row ratio, with both sides floored at one row so empty
/// results don't divide by zero.
pub fn estimate_error(actual_rows: u64, est_rows: f64) -> f64 {
    actual_rows.max(1) as f64 / est_rows.max(1.0)
}

/// Actuals for one plan node, in pre-order plan position.
#[derive(Debug, Clone)]
pub struct NodeProfile {
    pub label: String,
    pub depth: usize,
    pub est_rows: f64,
    /// Node's estimated cpu+io cost in microseconds.
    pub est_cost_us: f64,
    pub actual_rows: u64,
    pub batches: u64,
    pub next_calls: u64,
    /// Inclusive wall time inside the node (total busy time across workers
    /// for parallel partitions).
    pub wall: Duration,
    pub spilled_bytes: u64,
    pub spill_events: u64,
    pub mem_peak_bytes: u64,
}

impl NodeProfile {
    /// This node's [`estimate_error`].
    pub fn estimate_error(&self) -> f64 {
        estimate_error(self.actual_rows, self.est_rows)
    }
}

/// Per-node actuals for one executed statement.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    /// Pre-order, matching the plan tree.
    pub nodes: Vec<NodeProfile>,
    pub est_cost_us: f64,
    /// Partition scatter-gather counters for this statement (None when no
    /// partitioned scan ran).
    pub partitions: Option<PartitionActivity>,
    /// The statement's I/O, spill and columnstore
    /// [`Work`](hpd_storage::Work), as its own tracker counted them (the
    /// engine-wide `columnstore.*` counters sum every statement's,
    /// concurrent ones included).
    pub io: IoSnapshot,
    /// Memory-grant admission outcome (None when the plan ran outside the
    /// broker, through a bare [`QueryRunner`](crate::QueryRunner)).
    pub grant: Option<GrantSummary>,
    /// Write-ahead-log activity of this statement's commit (None when the
    /// log is disabled).
    pub wal: Option<WalSummary>,
    /// Phase wall-time breakdown (None, like `grant`, for a plan run
    /// through a bare `QueryRunner`).
    pub timeline: Option<Timeline>,
}

impl AnalyzeReport {
    /// The root node's actuals (every plan has at least one node).
    pub fn root(&self) -> &NodeProfile {
        &self.nodes[0]
    }

    /// Total bytes the statement spilled.
    pub fn spilled_bytes(&self) -> u64 {
        self.io.spilled_bytes
    }

    /// Render the estimated-vs-actual plan tree.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for n in &self.nodes {
            let pad = "  ".repeat(n.depth);
            let _ = write!(
                out,
                "{pad}{}  (rows est={:.0} act={} x{:.2}, time={:.1}ms",
                n.label,
                n.est_rows,
                n.actual_rows,
                n.estimate_error(),
                n.wall.as_secs_f64() * 1e3,
            );
            if n.mem_peak_bytes > 0 {
                let _ = write!(out, ", mem={}KB", n.mem_peak_bytes / 1024);
            }
            if n.spilled_bytes > 0 {
                let _ = write!(
                    out,
                    ", spilled={}KB/{} events",
                    n.spilled_bytes / 1024,
                    n.spill_events
                );
            }
            out.push_str(")\n");
        }
        if let Some(p) = &self.partitions {
            let _ = write!(
                out,
                "partitions: {}/{} scanned ({} pruned)",
                p.scanned,
                p.total(),
                p.pruned
            );
            out.push('\n');
        }
        // In `hpd_storage::Work::ALL` order. Rows are counted at the coarsest
        // granularity that eliminated them.
        let [rowgroup, run, row, selected, hit, miss, evict, folded, fallback, rows_folded, delta_rows] =
            self.io.work;
        if rowgroup + run + row + selected + hit + miss > 0 {
            let _ = write!(
                out,
                "pruning: rowgroup={rowgroup} run={run} row={row} selected={selected}"
            );
            if hit + miss > 0 {
                let _ = write!(out, "; segcache hit={hit} miss={miss} evict={evict}");
            }
            out.push('\n');
        }
        if folded + fallback + delta_rows > 0 {
            let _ = write!(
                out,
                "pushdown: rowgroups={folded} fallback={fallback} rows_folded={rows_folded} delta_rows={delta_rows}"
            );
            out.push('\n');
        }
        if let Some(g) = &self.grant {
            let _ = write!(
                out,
                "grant: requested={}KB granted={}KB wait={:.1}ms{}",
                g.requested_bytes / 1024,
                g.granted_bytes / 1024,
                g.wait_us as f64 / 1e3,
                if g.reduced { " (reduced)" } else { "" }
            );
            out.push('\n');
        }
        if let Some(w) = &self.wal {
            let _ = write!(
                out,
                "wal: records={} flushed={}B flushes={} flush_time={:.1}ms{}",
                w.records,
                w.bytes_flushed,
                w.flushes,
                w.flush_us as f64 / 1e3,
                if w.deferred { " (deferred)" } else { "" }
            );
            out.push('\n');
        }
        if let Some(t) = &self.timeline {
            let _ = write!(
                out,
                "timeline: optimize={:.1}ms admission={:.1}ms execute={:.1}ms",
                t.optimize_us as f64 / 1e3,
                self.grant.map_or(0, |g| g.wait_us) as f64 / 1e3,
                t.execute_us as f64 / 1e3,
            );
            if let Some(w) = &self.wal {
                let _ = write!(out, " wal_flush={:.1}ms", w.flush_us as f64 / 1e3);
            }
            out.push('\n');
        }
        out
    }
}
