//! `EXPLAIN ANALYZE` support: maps plan nodes to shared [`OpStats`] cells,
//! collects actuals after execution, and renders estimated-vs-actual plans.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use hpd_exec::OpStats;
use hpd_obs::json_string;

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
    /// has drained).
    pub fn report(&self, plan: &PhysicalPlan) -> AnalyzeReport {
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
            pruning: None,
            agg_pushdown: None,
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

/// Columnstore pushdown work avoided during one statement, taken from the
/// `columnstore.scan.*` / `columnstore.segcache.*` counter deltas around
/// execution. Granularities are disjoint: a row is counted at the coarsest
/// level that eliminated it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanPruning {
    /// Rows skipped by whole-rowgroup (zone-map) elimination.
    pub rows_pruned_rowgroup: u64,
    /// Rows cleared run-at-a-time by the RLE kernel.
    pub rows_pruned_run: u64,
    /// Rows cleared individually (bit-packed/raw kernels or fallback).
    pub rows_pruned_row: u64,
    /// Rows that survived all pushed-down intervals and were materialized.
    pub rows_selected: u64,
    /// Decoded-segment cache hits / misses / evictions.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
}

impl ScanPruning {
    /// Build from a counter-delta snapshot (see `hpd_obs::Snapshot::delta`).
    pub fn from_snapshot(d: &hpd_obs::Snapshot) -> ScanPruning {
        ScanPruning {
            rows_pruned_rowgroup: d.counter("columnstore.scan.rows_pruned_rowgroup"),
            rows_pruned_run: d.counter("columnstore.scan.rows_pruned_run"),
            rows_pruned_row: d.counter("columnstore.scan.rows_pruned_row"),
            rows_selected: d.counter("columnstore.scan.rows_selected"),
            cache_hits: d.counter("columnstore.segcache.hit"),
            cache_misses: d.counter("columnstore.segcache.miss"),
            cache_evictions: d.counter("columnstore.segcache.evict"),
        }
    }

    /// Total rows eliminated before materialization, across granularities.
    pub fn rows_pruned_total(&self) -> u64 {
        self.rows_pruned_rowgroup + self.rows_pruned_run + self.rows_pruned_row
    }

    /// True when no columnstore scan ran (nothing to report).
    pub fn is_empty(&self) -> bool {
        self.rows_pruned_total() == 0
            && self.rows_selected == 0
            && self.cache_hits + self.cache_misses == 0
    }
}

/// Aggregate-pushdown work for one statement, taken from the
/// `columnstore.agg.*` counter deltas around execution. Present in the
/// report whenever the statement folded at least one aggregate inside the
/// columnstore (i.e. a `CsiAgg` leaf actually ran).
#[derive(Debug, Clone, Copy, Default)]
pub struct AggPushdown {
    /// Rowgroups folded entirely on the encoded domain (run/frame/dict
    /// arithmetic — no row materialization).
    pub pushdown_rowgroups: u64,
    /// Rowgroups whose selection needed the typed-value fallback before
    /// folding (still no row materialization, but per-row predicate work).
    pub fallback_rowgroups: u64,
    /// Compressed rows folded into aggregate accumulators.
    pub rows_folded: u64,
    /// Delta-store rows folded row-at-a-time on top of the encoded result.
    pub delta_rows: u64,
}

impl AggPushdown {
    /// Build from a counter-delta snapshot (see `hpd_obs::Snapshot::delta`).
    pub fn from_snapshot(d: &hpd_obs::Snapshot) -> AggPushdown {
        AggPushdown {
            pushdown_rowgroups: d.counter("columnstore.agg.pushdown_rowgroups"),
            fallback_rowgroups: d.counter("columnstore.agg.fallback_rowgroups"),
            rows_folded: d.counter("columnstore.agg.rows_folded"),
            delta_rows: d.counter("columnstore.agg.delta_rows"),
        }
    }

    /// True when no encoded aggregate fold ran.
    pub fn is_empty(&self) -> bool {
        self.pushdown_rowgroups + self.fallback_rowgroups + self.delta_rows == 0
    }
}

/// Memory-grant admission outcome for one statement, taken from the
/// [`hpd_exec::GrantLease`] the broker issued before execution.
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

/// Wall-time breakdown of one statement's lifecycle phases, mirroring the
/// span taxonomy of the tracer (`optimize` → `admission` → `execute`; the
/// WAL flush is on the commit path and reported via [`AnalyzeReport::wal`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Timeline {
    /// Planning time inside the optimizer.
    pub optimize_us: u64,
    /// Time spent queued at the grant broker (same value as
    /// [`GrantSummary::wait_us`], repeated here so the timeline is complete
    /// on its own).
    pub admission_us: u64,
    /// Executor wall time (lowering + drain).
    pub execute_us: u64,
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
    /// actual/estimated row ratio, with both sides floored at one row so
    /// empty results don't divide by zero.
    pub fn estimate_error(&self) -> f64 {
        (self.actual_rows.max(1)) as f64 / self.est_rows.max(1.0)
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
    /// Columnstore pushdown counters for this statement (None when the
    /// process-wide registry could not attribute any scan work to it).
    pub pruning: Option<ScanPruning>,
    /// Aggregate-pushdown counters for this statement (None when no
    /// encoded aggregate fold ran).
    pub agg_pushdown: Option<AggPushdown>,
    /// Memory-grant admission outcome (None when the statement ran outside
    /// the broker, e.g. non-SELECT statements).
    pub grant: Option<GrantSummary>,
    /// Write-ahead-log activity of this statement's commit (None when the
    /// log is disabled).
    pub wal: Option<hpd_wal::WalSummary>,
    /// Phase wall-time breakdown (None for statements recorded before the
    /// phases were measured, e.g. write-path target-row scans).
    pub timeline: Option<Timeline>,
}

impl AnalyzeReport {
    /// The root node's actuals (every plan has at least one node).
    pub fn root(&self) -> &NodeProfile {
        &self.nodes[0]
    }

    /// Total bytes spilled by any node.
    pub fn spilled_bytes(&self) -> u64 {
        // Spill deltas are observed inclusively at every enclosing node, so
        // the maximum (not the sum) is the query's total.
        self.nodes
            .iter()
            .map(|n| n.spilled_bytes)
            .max()
            .unwrap_or(0)
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
        if let Some(p) = &self.pruning {
            let _ = write!(
                out,
                "pruning: rowgroup={} run={} row={} selected={}",
                p.rows_pruned_rowgroup, p.rows_pruned_run, p.rows_pruned_row, p.rows_selected
            );
            if p.cache_hits + p.cache_misses > 0 {
                let _ = write!(
                    out,
                    "; segcache hit={} miss={} evict={}",
                    p.cache_hits, p.cache_misses, p.cache_evictions
                );
            }
            out.push('\n');
        }
        if let Some(a) = &self.agg_pushdown {
            let _ = write!(
                out,
                "pushdown: rowgroups={} fallback={} rows_folded={} delta_rows={}",
                a.pushdown_rowgroups, a.fallback_rowgroups, a.rows_folded, a.delta_rows
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
                t.admission_us as f64 / 1e3,
                t.execute_us as f64 / 1e3,
            );
            if let Some(w) = &self.wal {
                let _ = write!(out, " wal_flush={:.1}ms", w.flush_us as f64 / 1e3);
            }
            out.push('\n');
        }
        out
    }

    /// Render as one JSON object (for the query store dump).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("[");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"op\":{},\"depth\":{},\"est_rows\":{:.0},\"act_rows\":{},\"wall_us\":{},\"spilled_bytes\":{}}}",
                json_string(&n.label),
                n.depth,
                n.est_rows,
                n.actual_rows,
                n.wall.as_micros(),
                n.spilled_bytes
            );
        }
        out.push(']');
        out
    }
}
