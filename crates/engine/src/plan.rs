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
use hpd_exec::JoinSide;

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

/// Execution mode tag mirrored from the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    Row,
    Batch,
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
        mode: PlanMode,
    },
    Project {
        child: Box<PlanNode>,
        exprs: Vec<PlanExpr>,
        mode: PlanMode,
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
    /// Output ordinal of base column `(table, column)`, if present.
    pub fn find_col(&self, table: usize, column: usize) -> Option<usize> {
        self.out_cols
            .iter()
            .position(|c| matches!(c, PlanCol::Base(t, cc) if *t == table && *cc == column))
    }

    /// Recursively collect leaf access kinds, in plan order.
    pub fn collect_leaves(&self, out: &mut Vec<LeafKind>) {
        for child in self.children() {
            child.collect_leaves(out);
        }
        match &self.kind {
            // `PkLookup` probes the primary tree, `IndexNLJoin` seeks the
            // inner index: both read a B+ tree besides their input.
            PlanNodeKind::BTreeSeek { .. }
            | PlanNodeKind::BTreeScan { .. }
            | PlanNodeKind::PkLookup { .. }
            | PlanNodeKind::IndexNLJoin { .. } => out.push(LeafKind::BTree),
            PlanNodeKind::CsiScan { .. } | PlanNodeKind::CsiAgg { .. } => {
                out.push(LeafKind::Columnstore)
            }
            _ => {}
        }
    }

    /// Recursively collect `(query table, index id)` pairs for every index
    /// access in the subtree — how the advisor learns which hypothetical
    /// indexes the optimizer actually referenced.
    pub fn collect_index_refs(&self, out: &mut Vec<(usize, IndexId)>) {
        for child in self.children() {
            child.collect_index_refs(out);
        }
        match &self.kind {
            PlanNodeKind::BTreeSeek { table, index, .. }
            | PlanNodeKind::BTreeScan { table, index, .. }
            | PlanNodeKind::CsiScan { table, index, .. }
            | PlanNodeKind::CsiAgg { table, index, .. }
            | PlanNodeKind::IndexNLJoin { table, index, .. } => out.push((*table, *index)),
            PlanNodeKind::PkLookup { table, .. } => out.push((*table, IndexId::PRIMARY)),
            _ => {}
        }
    }

    /// Maximum DOP of any scan in the subtree.
    pub fn max_dop(&self) -> usize {
        let own = match &self.kind {
            PlanNodeKind::BTreeSeek { dop, .. }
            | PlanNodeKind::BTreeScan { dop, .. }
            | PlanNodeKind::CsiScan { dop, .. }
            | PlanNodeKind::PartitionedScan { dop, .. } => *dop,
            // Everything else (the encoded fold included) never fans out.
            _ => 1,
        };
        self.children()
            .iter()
            .map(|c| c.max_dop())
            .fold(own.max(1), usize::max)
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
        let own = match &self.kind {
            PlanNodeKind::Sort { child, .. } => {
                (child.est_rows.max(0.0) as usize).saturating_mul(row_bytes(child))
            }
            PlanNodeKind::HashAgg { .. } => {
                (self.est_rows.max(0.0) as usize).saturating_mul(row_bytes(self))
            }
            PlanNodeKind::HashJoin { left, right, .. } => {
                let (_, build) = PlanNode::hash_join_build(left, right);
                (build.est_rows.max(0.0) as usize).saturating_mul(row_bytes(build))
            }
            _ => 0,
        };
        self.children()
            .iter()
            .fold(own, |acc, c| acc.saturating_add(c.est_memory_bytes()))
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

    /// Borrowed children in plan order (left before right).
    pub fn children(&self) -> Vec<&PlanNode> {
        match &self.kind {
            PlanNodeKind::BTreeSeek { .. }
            | PlanNodeKind::BTreeScan { .. }
            | PlanNodeKind::CsiScan { .. }
            | PlanNodeKind::CsiAgg { .. } => Vec::new(),
            PlanNodeKind::PartitionedScan { parts, .. } => parts.iter().collect(),
            PlanNodeKind::PkLookup { child, .. }
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

    /// [`PlanNode::children`], mutably.
    pub fn children_mut(&mut self) -> Vec<&mut PlanNode> {
        match &mut self.kind {
            PlanNodeKind::BTreeSeek { .. }
            | PlanNodeKind::BTreeScan { .. }
            | PlanNodeKind::CsiScan { .. }
            | PlanNodeKind::CsiAgg { .. } => Vec::new(),
            PlanNodeKind::PartitionedScan { parts, .. } => parts.iter_mut().collect(),
            PlanNodeKind::PkLookup { child, .. }
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
            PlanNodeKind::PkLookup { table, part, .. } => {
                format!("PkLookup {}", tpart(table, part))
            }
            PlanNodeKind::Filter { mode, .. } => format!("Filter ({mode:?} mode)"),
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

    fn explain_into(&self, depth: usize, tables: &[PlanTable], out: &mut String) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        let _ = writeln!(
            out,
            "{pad}{}  (rows≈{:.0}, cpu≈{:.0}us, io≈{:.0}us)",
            self.describe(tables),
            self.est_rows,
            self.est_cpu_us,
            self.est_io_us
        );
        for child in self.children() {
            child.explain_into(depth + 1, tables, out);
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
        let mut out = Vec::new();
        self.root.collect_leaves(&mut out);
        out
    }

    /// Every `(query table, index id)` the plan references.
    pub fn index_refs(&self) -> Vec<(usize, IndexId)> {
        let mut out = Vec::new();
        self.root.collect_index_refs(&mut out);
        out
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
        let mut out = String::new();
        self.root.explain_into(0, &self.tables, &mut out);
        out
    }
}
