//! Physical plans: the optimizer's output and the executor's input.
//!
//! A plan is a tree of [`PlanNode`]s. Each node tracks its output columns as
//! `(query table index, table column ordinal)` pairs so predicates written
//! against table schemas can be bound to operator ordinals, plus estimated
//! rows/CPU/IO from the cost model. Plans are inspectable: Figure 10 of the
//! paper counts B+ tree vs. columnstore leaf nodes in chosen plans, and
//! [`PhysicalPlan::leaf_kinds`] exposes exactly that.

use std::collections::HashMap;
use std::ops::Bound;

use hpd_common::{AggFunc, DataType, Expr, Interval, Key};
use hpd_exec::{JoinSide, Mode};

use crate::design::IndexId;

/// Per-row bookkeeping bytes the buffering operators charge against their
/// memory grant on top of the data bytes (mirrors the executor's spill
/// accounting).
pub const ROW_BOOKKEEPING_BYTES: usize = 24;

/// Which kind of index a plan leaf reads — the unit Figure 10 counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafKind {
    BTree,
    Columnstore,
}

/// One output column of a plan node: where it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanCol {
    /// A base-table column: (query table index, table column ordinal).
    Base(usize, usize),
    /// A computed value (projection expression, aggregate result).
    Computed,
}

/// Aggregate spec at plan level (the executor maps it onto exec `AggSpec`).
#[derive(Debug, Clone, Copy)]
pub struct PlanAgg {
    pub func: AggFunc,
    /// Child output ordinal holding the aggregate input.
    pub input: usize,
}

/// Scalar expression bound to child output ordinals.
pub type PlanExpr = Expr;

/// The operator variants of a physical plan.
#[derive(Debug, Clone)]
pub enum PlanNodeKind {
    /// B+ tree range seek: key-space interval over the index's key order.
    /// Like every leaf it names the table part it reads (0 on a one-part
    /// table): parts own their indexes, so `index` means nothing without it.
    BTreeSeek {
        table: usize,
        part: usize,
        index: IndexId,
        lo: Bound<Key>,
        hi: Bound<Key>,
        dop: usize,
    },
    /// Full B+ tree leaf scan (provides the index key sort order).
    BTreeScan {
        table: usize,
        part: usize,
        index: IndexId,
        dop: usize,
    },
    /// Columnstore scan with segment-elimination intervals (keyed by table
    /// column ordinals; the executor translates to index-schema ordinals).
    CsiScan {
        table: usize,
        part: usize,
        index: IndexId,
        intervals: HashMap<usize, Interval>,
        dop: usize,
    },
    /// Covered global aggregate folded directly on a columnstore index's
    /// encoded segments — a *leaf*: rows are never materialized. Like
    /// `CsiScan`, `intervals` and `aggs` inputs are table column ordinals;
    /// the executor translates them to the index's stored schema.
    CsiAgg {
        table: usize,
        part: usize,
        index: IndexId,
        intervals: HashMap<usize, Interval>,
        aggs: Vec<PlanAgg>,
    },
    /// Gather over a table of several parts: one lane per surviving
    /// partition, and a lane is that part's one-part plan — its own access
    /// path (parts own their physical designs, so lanes may mix B+ tree and
    /// columnstore leaves), residual filter and, under a COUNT/SUM, partial
    /// aggregate. The gather only unions the lanes' identically shaped
    /// output, in lane order, and reports pruning: partitions whose value
    /// range cannot intersect the predicate's intervals have no lane.
    PartitionedScan {
        table: usize,
        /// One lane per surviving partition; each lane's leaves name it.
        parts: Vec<PlanNode>,
        /// Partitions skipped by pruning.
        pruned: usize,
        /// Total partitions in the table.
        total: usize,
        /// The plan's chosen DOP, as on a scan leaf: up to `min(dop, lanes)`
        /// lanes run at once, and each lane's leaves get `dop / lanes`.
        dop: usize,
    },
    /// A snapshot reader's view of what `child` reads from part `part`:
    /// rows rewritten after the snapshot are dropped by primary key (which
    /// the child outputs) and their old versions that the part owns are
    /// appended, projected to the child's columns. It wraps an access path
    /// of a table the snapshot has rows to correct in (a scan leaf, or a
    /// lookup above its secondary seek): a residual filter above it checks
    /// the appended rows, and it keeps no order.
    Snapshot {
        child: Box<PlanNode>,
        table: usize,
        part: usize,
    },
    /// Fetch full rows from the primary B+ tree of `part` using the
    /// primary-key locator carried in the child's output.
    PkLookup {
        child: Box<PlanNode>,
        table: usize,
        part: usize,
        /// Child output ordinals holding the primary key values.
        locator: Vec<usize>,
    },
    Filter {
        child: Box<PlanNode>,
        predicate: PlanExpr,
    },
    Project {
        child: Box<PlanNode>,
        exprs: Vec<PlanExpr>,
    },
    HashAgg {
        child: Box<PlanNode>,
        group: Vec<usize>,
        aggs: Vec<PlanAgg>,
    },
    StreamAgg {
        child: Box<PlanNode>,
        group: Vec<usize>,
        aggs: Vec<PlanAgg>,
    },
    Sort {
        child: Box<PlanNode>,
        keys: Vec<(usize, bool)>,
    },
    Limit {
        child: Box<PlanNode>,
        n: usize,
    },
    HashJoin {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
        keys: Vec<(usize, usize)>,
    },
    /// Index nested-loop join: for each outer row, seek the inner table's
    /// B+ tree with a key built from outer output ordinals.
    IndexNLJoin {
        outer: Box<PlanNode>,
        table: usize,
        index: IndexId,
        /// Outer output ordinals forming the seek key prefix.
        outer_key: Vec<usize>,
    },
}

/// A plan node with its cost annotations and output description.
#[derive(Debug, Clone)]
pub struct PlanNode {
    pub kind: PlanNodeKind,
    /// Set by [`PlanNode::new`] and read through [`PlanNode::mode`].
    mode: Mode,
    pub out_cols: Vec<PlanCol>,
    pub out_types: Vec<DataType>,
    pub est_rows: f64,
    /// Estimated CPU work in microseconds (total, not divided by DOP).
    pub est_cpu_us: f64,
    /// Estimated device time in microseconds (total).
    pub est_io_us: f64,
    /// The portion of `est_io_us` that overlaps across parallel streams
    /// (columnstore segment positioning); the rest is bandwidth- or
    /// latency-bound and unaffected by DOP.
    pub est_io_div_us: f64,
}

impl PlanNode {
    /// A node of `kind` producing `out_cols` (typed `out_types`), estimated
    /// at `est_rows` rows and no cost yet ([`PlanNode::with_cost`]). Its
    /// mode follows from its kind and its inputs' modes, read one level
    /// down: a columnstore leaf is batch mode and a B+ tree leaf, lookup or
    /// index nested-loop join row mode; a gather is batch mode when every
    /// lane is; a hash join is batch mode when either input is, so the
    /// operators above a star join over a columnstore stay vectorized; every
    /// other node takes its input's mode. The executor's operators run in
    /// the mode their node holds.
    pub fn new(
        kind: PlanNodeKind,
        out_cols: Vec<PlanCol>,
        out_types: Vec<DataType>,
        est_rows: f64,
    ) -> PlanNode {
        use Mode::{Batch, Row};
        let mode = match &kind {
            PlanNodeKind::CsiScan { .. } | PlanNodeKind::CsiAgg { .. } => Batch,
            PlanNodeKind::BTreeSeek { .. }
            | PlanNodeKind::BTreeScan { .. }
            | PlanNodeKind::PkLookup { .. }
            | PlanNodeKind::IndexNLJoin { .. } => Row,
            PlanNodeKind::PartitionedScan { parts, .. }
                if parts.iter().all(|p| p.mode == Batch) =>
            {
                Batch
            }
            PlanNodeKind::HashJoin { left, right, .. }
                if left.mode == Batch || right.mode == Batch =>
            {
                Batch
            }
            PlanNodeKind::PartitionedScan { .. } | PlanNodeKind::HashJoin { .. } => Row,
            PlanNodeKind::Snapshot { child, .. }
            | PlanNodeKind::Filter { child, .. }
            | PlanNodeKind::Project { child, .. }
            | PlanNodeKind::HashAgg { child, .. }
            | PlanNodeKind::StreamAgg { child, .. }
            | PlanNodeKind::Sort { child, .. }
            | PlanNodeKind::Limit { child, .. } => child.mode,
        };
        PlanNode {
            kind,
            mode,
            out_cols,
            out_types,
            est_rows,
            est_cpu_us: 0.0,
            est_io_us: 0.0,
            est_io_div_us: 0.0,
        }
    }

    /// This node with its own estimated CPU, device time and the divisible
    /// part of that device time, microseconds.
    pub fn with_cost(mut self, cpu_us: f64, io_us: f64, io_div_us: f64) -> PlanNode {
        self.est_cpu_us = cpu_us;
        self.est_io_us = io_us;
        self.est_io_div_us = io_div_us;
        self
    }

    /// The mode this node runs in (see [`PlanNode::new`]).
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Output ordinal of base column `(table, column)`, if present.
    pub fn find_col(&self, table: usize, column: usize) -> Option<usize> {
        self.out_cols
            .iter()
            .position(|c| matches!(c, PlanCol::Base(t, cc) if *t == table && *cc == column))
    }

    /// The kind of index this node reads, if it reads one: Figure 10's
    /// unit, and the one rule both its counts and the optimizer's
    /// `optimizer.leaf_*` counters go by. `PkLookup` probes the primary tree
    /// and `IndexNLJoin` seeks the inner index: both read a B+ tree besides
    /// their input.
    pub fn leaf_kind(&self) -> Option<LeafKind> {
        match &self.kind {
            PlanNodeKind::BTreeSeek { .. }
            | PlanNodeKind::BTreeScan { .. }
            | PlanNodeKind::PkLookup { .. }
            | PlanNodeKind::IndexNLJoin { .. } => Some(LeafKind::BTree),
            PlanNodeKind::CsiScan { .. } | PlanNodeKind::CsiAgg { .. } => {
                Some(LeafKind::Columnstore)
            }
            _ => None,
        }
    }

    /// `(query table, part, index, dop)` of a scan leaf — a B+ tree seek or
    /// scan, or a columnstore scan: the leaves that fan out `dop` ways.
    pub fn scan(&self) -> Option<(usize, usize, IndexId, usize)> {
        match &self.kind {
            PlanNodeKind::BTreeSeek {
                table,
                part,
                index,
                dop,
                ..
            }
            | PlanNodeKind::BTreeScan {
                table,
                part,
                index,
                dop,
            }
            | PlanNodeKind::CsiScan {
                table,
                part,
                index,
                dop,
                ..
            } => Some((*table, *part, *index, *dop)),
            _ => None,
        }
    }

    /// Static operator name, e.g. `CsiScan`: [`PlanNode::describe`] without
    /// its tables, indexes and counts.
    pub fn kind_name(&self) -> &'static str {
        match &self.kind {
            PlanNodeKind::BTreeSeek { .. } => "BTreeSeek",
            PlanNodeKind::BTreeScan { .. } => "BTreeScan",
            PlanNodeKind::CsiScan { .. } => "CsiScan",
            PlanNodeKind::CsiAgg { .. } => "CsiAgg",
            PlanNodeKind::PartitionedScan { .. } => "PartitionedScan",
            PlanNodeKind::Snapshot { .. } => "Snapshot",
            PlanNodeKind::PkLookup { .. } => "PkLookup",
            PlanNodeKind::Filter { .. } => "Filter",
            PlanNodeKind::Project { .. } => "Project",
            PlanNodeKind::HashAgg { .. } => "HashAgg",
            PlanNodeKind::StreamAgg { .. } => "StreamAgg",
            PlanNodeKind::Sort { .. } => "Sort",
            PlanNodeKind::Limit { .. } => "Limit",
            PlanNodeKind::HashJoin { .. } => "HashJoin",
            PlanNodeKind::IndexNLJoin { .. } => "IndexNLJoin",
        }
    }

    /// The subtree in pre-order, each node with its depth below `self`: a
    /// node, then each child's subtree in [`PlanNode::children`] order. It
    /// is the order `explain` prints and `EXPLAIN ANALYZE` reports. One
    /// stack, no allocation per node.
    pub fn walk(&self) -> impl Iterator<Item = (usize, &PlanNode)> {
        let mut stack = vec![(0, self)];
        std::iter::from_fn(move || {
            let (depth, node) = stack.pop()?;
            stack.extend(node.children().rev().map(|c| (depth + 1, c)));
            Some((depth, node))
        })
    }

    /// What `f` says of each node that it says something of, a node after
    /// its subtree (a `PkLookup` after the seek it reads from): the order
    /// plan leaves have always been listed in.
    fn post_order<T>(&self, f: impl Fn(&PlanNode) -> Option<T>) -> Vec<T> {
        let (mut out, mut open) = (Vec::new(), Vec::<(usize, T)>::new());
        for (depth, node) in self.walk() {
            // A node at `depth` closes every open one at or below it.
            while open.last().is_some_and(|(d, _)| *d >= depth) {
                out.extend(open.pop().map(|(_, t)| t));
            }
            open.extend(f(node).map(|t| (depth, t)));
        }
        out.extend(open.into_iter().rev().map(|(_, t)| t));
        out
    }

    /// How many lanes this node fans out to: a scan leaf's or a gather's
    /// DOP, decided where the optimizer built it. Everything else (the
    /// encoded fold included) runs in its caller's lane.
    pub fn dop(&self) -> usize {
        match &self.kind {
            PlanNodeKind::PartitionedScan { dop, .. } => *dop,
            _ => self.scan().map_or(1, |(.., dop)| dop),
        }
    }

    /// The most lanes the subtree runs at once: a node's DOP times that of
    /// the fan-out it runs in (a gather's lanes fan out their own leaves).
    pub fn max_dop(&self) -> usize {
        // Lanes at each depth of the path to the node walked last.
        let mut path: Vec<usize> = Vec::new();
        (self.walk())
            .map(|(depth, node)| {
                path.truncate(depth);
                let lanes = path.last().copied().unwrap_or(1) * node.dop();
                path.push(lanes);
                lanes
            })
            .fold(1, usize::max)
    }

    /// Planning-time workspace-memory estimate for the subtree, bytes: what
    /// the memory-consuming operators (sort buffers, hash-aggregate tables,
    /// hash-join build sides) would reserve if nothing spilled. Uses the same
    /// per-row accounting as the operators themselves (fixed column widths
    /// plus [`ROW_BOOKKEEPING_BYTES`] of bookkeeping), so the grant the
    /// broker admits from this estimate covers a correctly-estimated query
    /// without spilling.
    pub fn est_memory_bytes(&self) -> usize {
        let row_bytes = |node: &PlanNode| -> usize {
            node.out_types
                .iter()
                .map(|t| t.fixed_width())
                .sum::<usize>()
                + ROW_BOOKKEEPING_BYTES
        };
        let own = |node: &PlanNode| match &node.kind {
            PlanNodeKind::Sort { child, .. } => {
                (child.est_rows.max(0.0) as usize).saturating_mul(row_bytes(child))
            }
            PlanNodeKind::HashAgg { .. } => {
                (node.est_rows.max(0.0) as usize).saturating_mul(row_bytes(node))
            }
            PlanNodeKind::HashJoin { left, right, .. } => {
                let (_, build) = PlanNode::hash_join_build(left, right);
                (build.est_rows.max(0.0) as usize).saturating_mul(row_bytes(build))
            }
            _ => 0,
        };
        self.walk()
            .fold(0, |acc, (_, node)| acc.saturating_add(own(node)))
    }

    /// The child a hash join of `left` and `right` builds its table on,
    /// which the grant estimate and the executor both go by: the one
    /// estimated to have fewer rows, the right one on a tie.
    pub fn hash_join_build<'p>(
        left: &'p PlanNode,
        right: &'p PlanNode,
    ) -> (JoinSide, &'p PlanNode) {
        if left.est_rows < right.est_rows {
            (JoinSide::Left, left)
        } else {
            (JoinSide::Right, right)
        }
    }

    /// Borrowed children in plan order: left before right, lanes in order.
    pub fn children(&self) -> impl DoubleEndedIterator<Item = &PlanNode> {
        let (first, second, lanes): (_, _, &[PlanNode]) = match &self.kind {
            PlanNodeKind::BTreeSeek { .. }
            | PlanNodeKind::BTreeScan { .. }
            | PlanNodeKind::CsiScan { .. }
            | PlanNodeKind::CsiAgg { .. } => (None, None, &[]),
            PlanNodeKind::PartitionedScan { parts, .. } => (None, None, parts),
            PlanNodeKind::Snapshot { child, .. }
            | PlanNodeKind::PkLookup { child, .. }
            | PlanNodeKind::Filter { child, .. }
            | PlanNodeKind::Project { child, .. }
            | PlanNodeKind::HashAgg { child, .. }
            | PlanNodeKind::StreamAgg { child, .. }
            | PlanNodeKind::Sort { child, .. }
            | PlanNodeKind::Limit { child, .. }
            | PlanNodeKind::IndexNLJoin { outer: child, .. } => (Some(&**child), None, &[]),
            PlanNodeKind::HashJoin { left, right, .. } => (Some(&**left), Some(&**right), &[]),
        };
        first.into_iter().chain(second).chain(lanes)
    }

    /// [`PlanNode::children`], mutably.
    pub fn children_mut(&mut self) -> Vec<&mut PlanNode> {
        match &mut self.kind {
            PlanNodeKind::BTreeSeek { .. }
            | PlanNodeKind::BTreeScan { .. }
            | PlanNodeKind::CsiScan { .. }
            | PlanNodeKind::CsiAgg { .. } => Vec::new(),
            PlanNodeKind::PartitionedScan { parts, .. } => parts.iter_mut().collect(),
            PlanNodeKind::Snapshot { child, .. }
            | PlanNodeKind::PkLookup { child, .. }
            | PlanNodeKind::Filter { child, .. }
            | PlanNodeKind::Project { child, .. }
            | PlanNodeKind::HashAgg { child, .. }
            | PlanNodeKind::StreamAgg { child, .. }
            | PlanNodeKind::Sort { child, .. }
            | PlanNodeKind::Limit { child, .. } => vec![child],
            PlanNodeKind::IndexNLJoin { outer, .. } => vec![outer],
            PlanNodeKind::HashJoin { left, right, .. } => vec![left, right],
        }
    }

    /// One-line operator description (no costs), e.g. `CsiScan lineitem
    /// idx#0 [2 elim cols] (dop 8)`. Nodes that read one part of a table
    /// with several say which: `CsiScan events[p3] idx#0 …`.
    pub fn describe(&self, tables: &[PlanTable]) -> String {
        let tname = |t: &usize| match tables.get(*t) {
            Some(table) => table.name.clone(),
            None => format!("t{t}"),
        };
        let tpart = |t: &usize, part: &usize| match tables.get(*t) {
            Some(table) if table.parts > 1 => format!("{}[p{part}]", table.name),
            _ => tname(t),
        };
        match &self.kind {
            PlanNodeKind::BTreeSeek {
                table,
                part,
                index,
                dop,
                ..
            } => format!(
                "BTreeSeek {} idx#{} (dop {dop})",
                tpart(table, part),
                index.0
            ),
            PlanNodeKind::BTreeScan {
                table,
                part,
                index,
                dop,
            } => format!(
                "BTreeScan {} idx#{} (dop {dop})",
                tpart(table, part),
                index.0
            ),
            PlanNodeKind::CsiScan {
                table,
                part,
                index,
                intervals,
                dop,
            } => format!(
                "CsiScan {} idx#{} [{} elim cols] (dop {dop})",
                tpart(table, part),
                index.0,
                intervals.len()
            ),
            PlanNodeKind::CsiAgg {
                table,
                part,
                index,
                intervals,
                aggs,
            } => format!(
                "CsiAgg {} idx#{} [{} elim cols] aggs={}",
                tpart(table, part),
                index.0,
                intervals.len(),
                aggs.len()
            ),
            PlanNodeKind::PartitionedScan {
                table,
                parts,
                pruned,
                total,
                dop,
            } => format!(
                "PartitionedScan {} [{}/{} partitions, {} pruned] (dop {dop})",
                tname(table),
                parts.len(),
                total,
                pruned
            ),
            PlanNodeKind::Snapshot { table, part, .. } => {
                format!("Snapshot {}", tpart(table, part))
            }
            PlanNodeKind::PkLookup { table, part, .. } => {
                format!("PkLookup {}", tpart(table, part))
            }
            PlanNodeKind::Filter { .. } => format!("Filter ({:?} mode)", self.mode),
            PlanNodeKind::Project { .. } => "Project".to_string(),
            PlanNodeKind::HashAgg { group, aggs, .. } => {
                format!("HashAgg groups={} aggs={}", group.len(), aggs.len())
            }
            PlanNodeKind::StreamAgg { group, aggs, .. } => {
                format!("StreamAgg groups={} aggs={}", group.len(), aggs.len())
            }
            PlanNodeKind::Sort { keys, .. } => format!("Sort keys={}", keys.len()),
            PlanNodeKind::Limit { n, .. } => format!("Limit {n}"),
            PlanNodeKind::HashJoin { keys, .. } => format!("HashJoin keys={}", keys.len()),
            PlanNodeKind::IndexNLJoin { table, index, .. } => {
                format!("IndexNLJoin inner={} idx#{}", tname(table), index.0)
            }
        }
    }
}

/// One input table of a plan, as explain output needs it.
#[derive(Debug, Clone)]
pub struct PlanTable {
    pub name: String,
    /// How many parts the plan was built against; leaves print theirs only
    /// when there is more than one.
    pub parts: usize,
}

/// A complete plan with its total estimated cost.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    pub root: PlanNode,
    /// The query's input tables, by query table index.
    pub tables: Vec<PlanTable>,
    /// Optimizer-estimated elapsed cost in microseconds.
    pub est_cost_us: f64,
    /// Optimizer-estimated total CPU microseconds.
    pub est_cpu_us: f64,
}

impl PhysicalPlan {
    /// Leaf access kinds, in plan order (Figure 10's unit of measurement).
    pub fn leaf_kinds(&self) -> Vec<LeafKind> {
        self.root.post_order(PlanNode::leaf_kind)
    }

    /// Every `(query table, index id)` the plan references — how the
    /// advisor learns which hypothetical indexes the optimizer actually
    /// referenced.
    pub fn index_refs(&self) -> Vec<(usize, IndexId)> {
        self.root.post_order(|node| match &node.kind {
            PlanNodeKind::BTreeSeek { table, index, .. }
            | PlanNodeKind::BTreeScan { table, index, .. }
            | PlanNodeKind::CsiScan { table, index, .. }
            | PlanNodeKind::CsiAgg { table, index, .. }
            | PlanNodeKind::IndexNLJoin { table, index, .. } => Some((*table, *index)),
            PlanNodeKind::PkLookup { table, .. } => Some((*table, IndexId::PRIMARY)),
            _ => None,
        })
    }

    /// True if the plan mixes B+ tree and columnstore accesses ("hybrid
    /// plan" in Figure 10).
    pub fn is_hybrid(&self) -> bool {
        let leaves = self.leaf_kinds();
        leaves.contains(&LeafKind::BTree) && leaves.contains(&LeafKind::Columnstore)
    }

    pub fn max_dop(&self) -> usize {
        self.root.max_dop()
    }

    /// The optimizer's up-front workspace-memory estimate — what the query
    /// asks the grant broker for at admission (see
    /// [`PlanNode::est_memory_bytes`]).
    pub fn est_memory_bytes(&self) -> usize {
        self.root.est_memory_bytes()
    }

    /// Readable plan tree.
    pub fn explain(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (depth, node) in self.root.walk() {
            let _ = writeln!(
                out,
                "{:pad$}{}  (rows≈{:.0}, cpu≈{:.0}us, io≈{:.0}us)",
                "",
                node.describe(&self.tables),
                node.est_rows,
                node.est_cpu_us,
                node.est_io_us,
                pad = 2 * depth,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use hpd_common::{CmpOp, PartitionSpec, Row, Schema, Value};

    use super::*;
    use crate::catalog::{Database, DbConfig};
    use crate::design::IndexDescriptor;
    use crate::executor::{QueryRunner, TableOverlay};

    const ROWS: i32 = 1_000;
    /// `p`'s first partition holds the ids below this.
    const SPLIT: i32 = 300;

    fn node(kind: PlanNodeKind, (out_cols, out_types): (Vec<PlanCol>, Vec<DataType>)) -> PlanNode {
        PlanNode::new(kind, out_cols, out_types, 1.0)
    }

    /// Output of `cols` of query table `t`, every column an `Int32`.
    fn base(t: usize, cols: &[usize]) -> (Vec<PlanCol>, Vec<DataType>) {
        let out = cols.iter().map(|&c| PlanCol::Base(t, c)).collect();
        (out, vec![DataType::Int32; cols.len()])
    }

    fn computed(types: &[DataType]) -> (Vec<PlanCol>, Vec<DataType>) {
        (vec![PlanCol::Computed; types.len()], types.to_vec())
    }

    fn count() -> Vec<PlanAgg> {
        vec![PlanAgg {
            func: AggFunc::Count,
            input: 0,
        }]
    }

    /// `p(id, v)` in two range partitions (ids below and from `SPLIT`), a
    /// B+ tree primary and a B+ tree on `v` in each; `c(id, v)` in one part,
    /// a B+ tree primary and a columnstore. Both hold ids `0..ROWS`.
    fn database() -> Database {
        let db = Database::new(DbConfig::default());
        let schema = Schema::from_pairs(&[("id", DataType::Int32), ("v", DataType::Int32)]);
        let primary = IndexDescriptor::PrimaryBTree { keys: vec![0] };
        let spec = PartitionSpec::range(0, vec![Value::Int32(SPLIT)]).unwrap();
        db.create_partitioned_table("p", schema.clone(), vec![0], primary.clone(), spec)
            .unwrap();
        db.create_table("c", schema, vec![0], primary).unwrap();
        for name in ["p", "c"] {
            let rows = (0..ROWS).map(|i| Row::new(vec![Value::Int32(i), Value::Int32(i % 7)]));
            db.load_table(name, rows.collect()).unwrap();
        }
        let on_v = IndexDescriptor::SecondaryBTree {
            keys: vec![1],
            includes: vec![],
        };
        db.create_index("p", &on_v).unwrap();
        let csi = IndexDescriptor::SecondaryCsi {
            columns: vec![0, 1],
        };
        db.create_index("c", &csi).unwrap();
        db
    }

    /// A plan holding every [`PlanNodeKind`] that runs against
    /// [`database`] and returns one row, `ROWS`: the count of `c` through a
    /// snapshot of a columnstore scan, through the encoded fold and through
    /// an index nested-loop join from both lanes of `p`, joined on each
    /// other.
    fn every_kind() -> PhysicalPlan {
        let (p, c) = (0, 1);
        let count_of = |child: PlanNode| PlanNodeKind::StreamAgg {
            child: Box::new(child),
            group: Vec::new(),
            aggs: count(),
        };
        let int64 = || computed(&[DataType::Int64]);
        // Lane 0 reads `p`'s rows through the B+ tree on `v` (stored as
        // `v, id`) and the primary; lane 1 scans the primary.
        let seek_v = node(
            PlanNodeKind::BTreeSeek {
                table: p,
                part: 0,
                index: IndexId(1),
                lo: Bound::Unbounded,
                hi: Bound::Unbounded,
                dop: 1,
            },
            base(p, &[1, 0]),
        );
        let lookup = node(
            PlanNodeKind::PkLookup {
                child: Box::new(seek_v),
                table: p,
                part: 0,
                locator: vec![1],
            },
            base(p, &[0, 1]),
        );
        let scan_p1 = node(
            PlanNodeKind::BTreeScan {
                table: p,
                part: 1,
                index: IndexId::PRIMARY,
                dop: 1,
            },
            base(p, &[0, 1]),
        );
        let gather = node(
            PlanNodeKind::PartitionedScan {
                table: p,
                parts: vec![lookup, scan_p1],
                pruned: 0,
                total: 2,
                dop: 1,
            },
            base(p, &[0, 1]),
        );
        let (mut cols, mut types) = base(p, &[0, 1]);
        let (c_cols, c_types) = base(c, &[0, 1]);
        cols.extend(c_cols);
        types.extend(c_types);
        let nl_join = node(
            PlanNodeKind::IndexNLJoin {
                outer: Box::new(gather),
                table: c,
                index: IndexId::PRIMARY,
                outer_key: vec![0],
            },
            (cols.clone(), types.clone()),
        );
        let filter = node(
            PlanNodeKind::Filter {
                child: Box::new(nl_join),
                predicate: Expr::col_cmp(2, CmpOp::Ge, Value::Int32(0)),
            },
            (cols, types),
        );
        let through_join = node(
            PlanNodeKind::HashAgg {
                child: Box::new(filter),
                group: Vec::new(),
                aggs: count(),
            },
            int64(),
        );
        let csi_scan = node(
            PlanNodeKind::CsiScan {
                table: c,
                part: 0,
                index: IndexId(1),
                intervals: HashMap::new(),
                dop: 1,
            },
            base(c, &[0]),
        );
        let snapshot = node(
            PlanNodeKind::Snapshot {
                child: Box::new(csi_scan),
                table: c,
                part: 0,
            },
            base(c, &[0]),
        );
        let through_scan = node(count_of(snapshot), int64());
        let through_fold = node(
            PlanNodeKind::CsiAgg {
                table: c,
                part: 0,
                index: IndexId(1),
                intervals: HashMap::new(),
                aggs: count(),
            },
            int64(),
        );
        let pair = node(
            PlanNodeKind::HashJoin {
                left: Box::new(through_scan),
                right: Box::new(through_fold),
                keys: vec![(0, 0)],
            },
            computed(&[DataType::Int64; 2]),
        );
        let all = node(
            PlanNodeKind::HashJoin {
                left: Box::new(pair),
                right: Box::new(through_join),
                keys: vec![(0, 0)],
            },
            computed(&[DataType::Int64; 3]),
        );
        let project = node(
            PlanNodeKind::Project {
                child: Box::new(all),
                exprs: vec![Expr::col(0)],
            },
            int64(),
        );
        let sort = node(
            PlanNodeKind::Sort {
                child: Box::new(project),
                keys: vec![(0, true)],
            },
            int64(),
        );
        let limit = node(
            PlanNodeKind::Limit {
                child: Box::new(sort),
                n: 10,
            },
            int64(),
        );
        PhysicalPlan {
            root: limit,
            tables: vec![
                PlanTable {
                    name: "p".into(),
                    parts: 2,
                },
                PlanTable {
                    name: "c".into(),
                    parts: 1,
                },
            ],
            est_cost_us: 0.0,
            est_cpu_us: 0.0,
        }
    }

    #[test]
    fn walk_is_the_order_of_explain_and_of_an_analyzed_run() {
        let plan = every_kind();
        let walked: Vec<(usize, &PlanNode)> = plan.root.walk().collect();
        let kinds: BTreeSet<&str> = walked.iter().map(|(_, n)| n.kind_name()).collect();
        assert_eq!(kinds.len(), 15, "every kind: {kinds:?}");
        // Pre-order: a node, then its children's subtrees, left before right
        // and lanes in order.
        let shape: Vec<(usize, &str)> = (walked.iter())
            .map(|(depth, node)| (*depth, node.kind_name()))
            .collect();
        assert_eq!(
            shape,
            [
                (0, "Limit"),
                (1, "Sort"),
                (2, "Project"),
                (3, "HashJoin"),
                (4, "HashJoin"),
                (5, "StreamAgg"),
                (6, "Snapshot"),
                (7, "CsiScan"),
                (5, "CsiAgg"),
                (4, "HashAgg"),
                (5, "Filter"),
                (6, "IndexNLJoin"),
                (7, "PartitionedScan"),
                (8, "PkLookup"),
                (9, "BTreeSeek"),
                (8, "BTreeScan"),
            ]
        );

        // `explain` prints one line per node, indented two spaces a level.
        let explain = plan.explain();
        let lines: Vec<&str> = explain.lines().collect();
        assert_eq!(lines.len(), walked.len(), "{explain}");
        for (line, (depth, node)) in lines.iter().zip(&walked) {
            let label = format!("{}{}  (", "  ".repeat(*depth), node.describe(&plan.tables));
            assert!(line.starts_with(&label), "{line:?} is not {label:?}");
        }

        let db = database();
        // The snapshot of `c` hides one row and shows an older version of
        // it: the count stays `ROWS`.
        let old = Row::new(vec![Value::Int32(5), Value::Int32(-1)]);
        let overlay = TableOverlay {
            removed: [old.key(&[0])].into(),
            added: vec![old],
        };
        let run = db
            .with_table("p", |p| {
                db.with_table("c", |c| {
                    QueryRunner::new(vec![p, c], db.pool(), 64 << 20)
                        .with_overlays(HashMap::from([(1, overlay)]))
                        .with_profile()
                        .run(&plan)
                })
            })
            .unwrap()
            .unwrap()
            .unwrap();
        assert_eq!(run.rows, vec![Row::new(vec![Value::Int64(ROWS as i64)])]);
        let report = run.analyze.expect("profiled");
        let reported: Vec<(usize, String)> = (report.nodes.iter())
            .map(|n| (n.depth, n.label.clone()))
            .collect();
        let expected: Vec<(usize, String)> = (walked.iter())
            .map(|(depth, node)| (*depth, node.describe(&plan.tables)))
            .collect();
        assert_eq!(reported, expected);
        // Each node's cell counted that node's calls: every one ran, and
        // each lane's leaf gave its own partition's rows.
        assert!(
            report.nodes.iter().all(|n| n.next_calls > 0),
            "{}",
            report.render()
        );
        let lane_rows: Vec<u64> = (report.nodes.iter())
            .filter(|n| n.label.starts_with("PkLookup") || n.label.starts_with("BTreeScan"))
            .map(|n| n.actual_rows)
            .collect();
        let split = SPLIT as u64;
        assert_eq!(
            lane_rows,
            [split, ROWS as u64 - split],
            "{}",
            report.render()
        );
    }
}
