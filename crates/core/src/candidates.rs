//! Candidate selection: per-query syntactic candidates, pruned through the
//! what-if API (paper §4.3, "Candidate Selection").

use std::collections::HashMap;

use hpd_common::{Expr, Result};
use hpd_engine::{IndexDescriptor, SelectQuery, Statement, TableContext};

use crate::advisor::DesignMode;
use crate::session::{what_if, Overrides, PartLists, WhatIfSession};
use crate::workload::Workload;

/// Per-table candidate pool.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    /// table name → candidate descriptors (secondary indexes only).
    pub per_table: HashMap<String, Vec<IndexDescriptor>>,
}

impl CandidateSet {
    pub fn add(&mut self, table: &str, d: IndexDescriptor) {
        let list = self.per_table.entry(table.to_string()).or_default();
        if !list.contains(&d) {
            list.push(d);
        }
    }

    pub fn total(&self) -> usize {
        self.per_table.values().map(Vec::len).sum()
    }
}

/// One move of the greedy search: `descriptor` on every part of its table
/// (`part: None`) or on one part. A secondary joins the lists of those
/// parts; a primary replaces its part's primary.
#[derive(Debug, Clone)]
pub struct Candidate {
    pub part: Option<usize>,
    pub descriptor: IndexDescriptor,
}

impl Candidate {
    /// The moves on the table `ctx` describes, whose pool is `pool`: each
    /// pool descriptor on all parts; on a table of several parts also each
    /// on each single part, and each part's primary of the other kind that
    /// `mode` allows. A whole table's primary is never swapped. The
    /// whole-table moves come last, so a tie goes to the one-part move.
    pub fn moves(ctx: &TableContext, pool: &[IndexDescriptor], mode: DesignMode) -> Vec<Candidate> {
        let on = |part, d: &IndexDescriptor| Candidate {
            part,
            descriptor: d.clone(),
        };
        let whole = pool.iter().map(|d| on(None, d));
        if ctx.parts.len() == 1 {
            return whole.collect();
        }
        let mut moves = Vec::new();
        for p in 0..ctx.parts.len() {
            moves.extend(pool.iter().map(|d| on(Some(p), d)));
        }
        for (p, info) in ctx.parts.iter().enumerate() {
            let (other, allowed) = if info.metas[0].descriptor.is_csi() {
                let keys = ctx.pk.clone();
                (IndexDescriptor::PrimaryBTree { keys }, mode.allows_btree())
            } else {
                (IndexDescriptor::PrimaryCsi, mode.allows_csi())
            };
            if allowed {
                moves.push(on(Some(p), &other));
            }
        }
        moves.extend(whole);
        moves
    }

    /// `lists`, one index list per part, with this move made; `None` when
    /// it does not fit: a part has the index already, or would hold two
    /// columnstores.
    pub fn apply(&self, lists: &[Vec<IndexDescriptor>]) -> Option<PartLists> {
        let d = &self.descriptor;
        let mut out = lists.to_vec();
        for (p, list) in out.iter_mut().enumerate() {
            if self.part.is_some_and(|q| q != p) {
                continue;
            }
            if list.contains(d) {
                return None;
            }
            if d.is_primary() {
                list[0] = d.clone();
            } else {
                list.push(d.clone());
            }
            if list.iter().filter(|i| i.is_csi()).count() > 1 {
                return None;
            }
        }
        Some(out)
    }
}

/// Generate syntactic candidates for one SELECT: equality/range prefixes,
/// group-by / order-by keys, join keys — plus the per-table columnstore
/// candidate over all CSI-eligible columns (the paper's option (ii)).
pub fn select_candidates(
    query: &SelectQuery,
    contexts: &HashMap<String, TableContext>,
    mode: DesignMode,
    out: &mut CandidateSet,
) {
    for (ti, tref) in query.tables.iter().enumerate() {
        let Some(ctx) = contexts.get(&tref.name) else {
            continue;
        };
        let referenced = query.referenced_columns(ti);

        if mode.allows_btree() {
            let intervals = tref
                .predicate
                .as_ref()
                .map(Expr::column_intervals)
                .unwrap_or_default();
            let mut eq_cols: Vec<usize> = Vec::new();
            let mut range_cols: Vec<usize> = Vec::new();
            for (&c, iv) in &intervals {
                use hpd_common::interval::Bound;
                let is_point = matches!(
                    (&iv.lo, &iv.hi),
                    (Bound::Inclusive(a), Bound::Inclusive(b)) if a == b
                );
                if is_point {
                    eq_cols.push(c);
                } else {
                    range_cols.push(c);
                }
            }
            eq_cols.sort_unstable();
            range_cols.sort_unstable();

            let mk = |keys: Vec<usize>| -> Option<IndexDescriptor> {
                if keys.is_empty() {
                    return None;
                }
                let includes: Vec<usize> = referenced
                    .iter()
                    .copied()
                    .filter(|c| !keys.contains(c) && !ctx.pk.contains(c))
                    .collect();
                Some(IndexDescriptor::SecondaryBTree { keys, includes })
            };

            // Predicate-prefix candidates.
            if range_cols.is_empty() {
                if let Some(d) = mk(eq_cols.clone()) {
                    out.add(&tref.name, d);
                }
            }
            for &r in &range_cols {
                let mut keys = eq_cols.clone();
                keys.push(r);
                if let Some(d) = mk(keys) {
                    out.add(&tref.name, d);
                }
            }
            // Group-by keys on this table.
            let group_cols: Vec<usize> = query
                .group_by
                .iter()
                .filter(|g| g.table == ti)
                .map(|g| g.column)
                .collect();
            if let Some(d) = mk(group_cols) {
                out.add(&tref.name, d);
            }
            // Order-by keys (non-aggregate queries, ascending prefix).
            if !query.is_aggregate() {
                let order_cols: Vec<usize> = query
                    .order_by
                    .iter()
                    .take_while(|&&(_, asc)| asc)
                    .filter_map(|&(pos, _)| {
                        query
                            .select
                            .get(pos)
                            .filter(|c| c.table == ti)
                            .map(|c| c.column)
                    })
                    .collect();
                if let Some(d) = mk(order_cols) {
                    out.add(&tref.name, d);
                }
            }
            // Join keys.
            for j in &query.joins {
                for col in [j.left, j.right] {
                    if col.table == ti {
                        let mut keys = vec![col.column];
                        keys.extend(eq_cols.iter().copied().filter(|c| *c != col.column));
                        if let Some(d) = mk(keys) {
                            out.add(&tref.name, d);
                        }
                    }
                }
            }
        }

        if mode.allows_csi() {
            // One columnstore per table, over every CSI-eligible column.
            let eligible: Vec<usize> = (0..ctx.schema.len())
                .filter(|&c| ctx.schema.column(c).csi_eligible)
                .collect();
            if !eligible.is_empty() {
                out.add(
                    &tref.name,
                    IndexDescriptor::SecondaryCsi { columns: eligible },
                );
            }
        }
    }
}

/// Candidates for write statements: B+ trees that locate the target rows.
pub fn write_candidates(
    table: &str,
    predicate: &Expr,
    contexts: &HashMap<String, TableContext>,
    mode: DesignMode,
    out: &mut CandidateSet,
) {
    if !mode.allows_btree() {
        return;
    }
    if !contexts.contains_key(table) {
        return;
    }
    let intervals = predicate.column_intervals();
    let mut cols: Vec<usize> = intervals.keys().copied().collect();
    cols.sort_unstable();
    if !cols.is_empty() {
        out.add(
            table,
            IndexDescriptor::SecondaryBTree {
                keys: cols,
                includes: vec![],
            },
        );
    }
}

/// Generate the full candidate pool for a workload.
pub fn generate_candidates(
    workload: &Workload,
    contexts: &HashMap<String, TableContext>,
    mode: DesignMode,
) -> CandidateSet {
    let mut out = CandidateSet::default();
    for ws in &workload.statements {
        match &ws.statement {
            Statement::Select(q) => select_candidates(q, contexts, mode, &mut out),
            Statement::Update(u) => {
                write_candidates(&u.table, &u.predicate, contexts, mode, &mut out)
            }
            Statement::Delete(d) => {
                write_candidates(&d.table, &d.predicate, contexts, mode, &mut out)
            }
            Statement::Insert(_) => {}
        }
    }
    out
}

/// What-if pruning: keep only candidates some query's chosen plan actually
/// references (paper: "determine which subset of indexes are referenced by
/// the optimizer").
pub fn prune_candidates(
    session: &mut WhatIfSession,
    candidates: &CandidateSet,
) -> Result<CandidateSet> {
    let mut used = CandidateSet::default();
    for ws in &session.workload().statements {
        let query = match &ws.statement {
            Statement::Select(q) => q.clone(),
            Statement::Update(u) => locate_query(&u.table, &u.predicate, session.contexts()),
            Statement::Delete(d) => locate_query(&d.table, &d.predicate, session.contexts()),
            Statement::Insert(_) => continue,
        };
        // Per-part meta lists: the part's primary, then every candidate.
        let mut overrides = Overrides::new();
        for t in &query.tables {
            let cands = candidates
                .per_table
                .get(&t.name)
                .map_or(&[][..], Vec::as_slice);
            let lists: Vec<Vec<IndexDescriptor>> = session.initial()[&t.name]
                .iter()
                .map(|primary| primary.iter().chain(cands).cloned().collect())
                .collect();
            overrides.insert(t.name.clone(), session.metas_for(&t.name, &lists));
        }
        let plan = what_if(session.db, &query, &overrides)?;
        for (ti, idx) in plan.index_refs() {
            let name = &query.tables[ti].name;
            // Position 0 is the primary; candidate k sits at k + 1 on
            // every part.
            let cands = candidates.per_table.get(name);
            if let Some(c) = cands.and_then(|c| c.get(idx.0.checked_sub(1)?)) {
                used.add(name, c.clone());
            }
        }
    }
    Ok(used)
}

/// The select used to cost the locate phase of an update/delete.
pub fn locate_query(
    table: &str,
    predicate: &Expr,
    contexts: &HashMap<String, TableContext>,
) -> SelectQuery {
    let arity = contexts.get(table).map(|c| c.schema.len()).unwrap_or(1);
    SelectQuery::single_table(table, Some(predicate.clone()), (0..arity).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpd_common::{CmpOp, DataType, Schema, Value};
    use hpd_engine::{AggItem, ColRef, TableInput, TableStats};

    fn ctxs() -> HashMap<String, TableContext> {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int32),
            ("grp", DataType::Int32),
            ("val", DataType::Int32),
        ]);
        HashMap::from([(
            "t".to_string(),
            TableContext::unpartitioned("t".into(), schema, vec![0], TableStats::empty(3), vec![]),
        )])
    }

    #[test]
    fn predicate_and_group_candidates() {
        let q = SelectQuery {
            tables: vec![TableInput::with_predicate(
                "t",
                Expr::And(vec![
                    Expr::col_cmp(1, CmpOp::Eq, Value::Int32(5)),
                    Expr::col_cmp(2, CmpOp::Lt, Value::Int32(100)),
                ]),
            )],
            group_by: vec![ColRef::new(0, 1)],
            aggregates: vec![AggItem::column(
                hpd_common::AggFunc::Count,
                ColRef::new(0, 0),
            )],
            ..Default::default()
        };
        let mut set = CandidateSet::default();
        select_candidates(&q, &ctxs(), DesignMode::Hybrid, &mut set);
        let cands = &set.per_table["t"];
        // Expect: eq+range btree (keys [1,2]), group-by btree (keys [1]),
        // and the CSI candidate.
        assert!(cands.iter().any(|d| matches!(
            d,
            IndexDescriptor::SecondaryBTree { keys, .. } if keys == &vec![1, 2]
        )));
        assert!(cands.iter().any(|d| matches!(
            d,
            IndexDescriptor::SecondaryBTree { keys, .. } if keys == &vec![1]
        )));
        assert!(cands.iter().any(|d| d.is_csi()));
    }

    #[test]
    fn modes_filter_candidate_kinds() {
        let q = SelectQuery::single_table(
            "t",
            Some(Expr::col_cmp(2, CmpOp::Lt, Value::Int32(5))),
            vec![0],
        );
        let mut btree_only = CandidateSet::default();
        select_candidates(&q, &ctxs(), DesignMode::BTreeOnly, &mut btree_only);
        assert!(btree_only.per_table["t"].iter().all(|d| !d.is_csi()));

        let mut csi_only = CandidateSet::default();
        select_candidates(&q, &ctxs(), DesignMode::CsiOnly, &mut csi_only);
        assert!(csi_only.per_table["t"].iter().all(|d| d.is_csi()));
    }

    #[test]
    fn csi_candidate_skips_ineligible_columns() {
        let mut contexts = ctxs();
        let schema = Schema::new(vec![
            hpd_common::ColumnDef::new("id", DataType::Int32),
            hpd_common::ColumnDef::new("blob", DataType::Utf8).csi_ineligible(),
        ]);
        contexts.insert(
            "u".into(),
            TableContext::unpartitioned("u".into(), schema, vec![0], TableStats::empty(2), vec![]),
        );
        let q = SelectQuery::single_table("u", None, vec![0, 1]);
        let mut set = CandidateSet::default();
        select_candidates(&q, &contexts, DesignMode::Hybrid, &mut set);
        let csi = set.per_table["u"]
            .iter()
            .find(|d| d.is_csi())
            .expect("csi candidate");
        assert!(matches!(
            csi,
            IndexDescriptor::SecondaryCsi { columns } if columns == &vec![0]
        ));
    }

    #[test]
    fn candidate_dedup() {
        let mut set = CandidateSet::default();
        let d = IndexDescriptor::SecondaryBTree {
            keys: vec![1],
            includes: vec![],
        };
        set.add("t", d.clone());
        set.add("t", d);
        assert_eq!(set.total(), 1);
    }

    #[test]
    fn a_move_keeps_one_columnstore_per_part() {
        let csi = IndexDescriptor::SecondaryCsi { columns: vec![0] };
        let btree = IndexDescriptor::PrimaryBTree { keys: vec![0] };
        let lists = vec![vec![IndexDescriptor::PrimaryCsi], vec![btree.clone()]];
        let on = |part, descriptor: &IndexDescriptor| Candidate {
            part,
            descriptor: descriptor.clone(),
        };
        // The secondary columnstore fits the B+ tree part only.
        assert!(on(None, &csi).apply(&lists).is_none());
        assert!(on(Some(0), &csi).apply(&lists).is_none());
        let tail = on(Some(1), &csi).apply(&lists).unwrap();
        assert_eq!(tail[1], [btree.clone(), csi.clone()]);
        // A part holding it cannot swap its primary for a columnstore.
        assert!(on(Some(1), &IndexDescriptor::PrimaryCsi)
            .apply(&tail)
            .is_none());
        let swapped = on(Some(0), &btree).apply(&lists).unwrap();
        assert_eq!(swapped, [vec![btree.clone()], vec![btree]]);
    }
}
