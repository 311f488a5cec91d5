//! Workload-level enumeration: greedy benefit search under a storage budget.

use hpd_common::Result;
use hpd_engine::{cost::CostModel, IndexDescriptor, IndexMeta};

use crate::advisor::DesignMode;
use crate::candidates::{Candidate, CandidateSet};
use crate::session::{Chosen, PartLists, WhatIfSession};

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

/// Outcome of the greedy search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    pub chosen: Chosen,
    pub initial_cost_us: f64,
    pub final_cost_us: f64,
    pub new_index_bytes: usize,
}

/// Greedy enumeration: repeatedly make the move ([`Candidate`]) with the
/// best benefit (per byte when a budget binds) until nothing improves the
/// workload cost by more than 0.1% or the budget is exhausted. At most one
/// columnstore per part survives (structural constraint).
pub fn greedy_search(
    session: &mut WhatIfSession,
    pool: &CandidateSet,
    mode: DesignMode,
    storage_budget: Option<usize>,
) -> Result<SearchResult> {
    let workload = session.workload();
    let mut chosen: Chosen = session.initial().clone();
    // Per-statement costs under the *current* configuration: a move on
    // table T only changes statements that reference T.
    let mut stmt_costs: Vec<f64> = (0..workload.len())
        .map(|i| session.statement_cost(i, &chosen))
        .collect::<Result<_>>()?;
    let initial: f64 = stmt_costs
        .iter()
        .zip(&workload.statements)
        .map(|(c, ws)| c * ws.weight)
        .sum();
    let mut current = initial;
    let mut used_bytes = 0usize;

    // Every table's moves, with the statements on it (the only ones a
    // trial on it re-costs).
    let mut names: Vec<&String> = session.contexts().keys().collect();
    names.sort();
    let tables: Vec<(String, Vec<Candidate>, Vec<usize>)> = names
        .into_iter()
        .map(|table| {
            let cands = pool.per_table.get(table).map_or(&[][..], Vec::as_slice);
            let moves = Candidate::moves(&session.contexts()[table], cands, mode);
            (table.clone(), moves, session.statements_on(table))
        })
        .collect();

    loop {
        // (score, workload cost, re-costed statements, table, lists, size)
        #[allow(clippy::type_complexity)]
        let mut best: Option<(f64, f64, Vec<(usize, f64)>, &String, PartLists, usize)> = None;
        for (table, moves, affected) in &tables {
            for m in moves {
                let Some(trial) = m.apply(&chosen[table]) else {
                    continue;
                };
                let size = match m.part {
                    None => session.meta(table, &m.descriptor).size_bytes(),
                    Some(p) => session.part_meta(table, p, &m.descriptor).size_bytes(),
                };
                if storage_budget.is_some_and(|budget| used_bytes + size > budget) {
                    continue;
                }
                let lists = chosen.get_mut(table).expect("a session table");
                let now = std::mem::replace(lists, trial);
                let mut deltas: Vec<(usize, f64)> = Vec::with_capacity(affected.len());
                let mut c = current;
                for &i in affected {
                    let new_cost = session.statement_cost(i, &chosen)?;
                    c += (new_cost - stmt_costs[i]) * workload.statements[i].weight;
                    deltas.push((i, new_cost));
                }
                let lists = chosen.get_mut(table).expect("a session table");
                let trial = std::mem::replace(lists, now);
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
                    best = Some((score, c, deltas, table, trial, size));
                }
            }
        }
        let Some((_, c, deltas, table, lists, size)) = best else {
            break;
        };
        *chosen.get_mut(table).expect("a session table") = lists;
        for (i, new_cost) in deltas {
            stmt_costs[i] = new_cost;
        }
        current = c;
        used_bytes += size;
    }

    Ok(SearchResult {
        chosen,
        initial_cost_us: initial,
        final_cost_us: current,
        new_index_bytes: used_bytes,
    })
}
