//! Physical operators.

pub mod agg;
pub mod filter;
mod hash;
pub mod join;
pub mod parallel;
pub mod scan;
pub mod sort;

use hpd_common::{Batch, DataType, Result, Row};

use crate::ctx::ExecCtx;

/// A pull-based physical operator producing batches.
///
/// Operators are composed into trees by the planner; `Box<dyn Operator + 'a>`
/// is the plan node type (`'a` borrows the underlying index structures).
/// Batch sizes are whatever is natural for the producer (a columnstore scan
/// yields at most `SCAN_BATCH_ROWS` rows a batch, a hash join a batch per
/// matching probe batch, row-mode operators moderate fixed-size batches).
pub trait Operator: Send {
    /// Output column types.
    fn out_types(&self) -> Vec<DataType>;

    /// Produce the next non-empty batch, or `None` when exhausted. An empty
    /// batch is permitted and simply means "call again".
    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>>;
}

/// A boxed plan node.
pub type PlanNode<'a> = Box<dyn Operator + 'a>;

/// Drain an operator into a list of non-empty batches.
pub fn collect(op: &mut dyn Operator, ctx: &ExecCtx<'_>) -> Result<Vec<Batch>> {
    let mut out = Vec::new();
    while let Some(b) = op.next(ctx)? {
        if b.num_rows() > 0 {
            out.push(b);
        }
    }
    Ok(out)
}

/// Drain an operator into rows (convenience for tests and result surfaces).
pub fn collect_rows(op: &mut dyn Operator, ctx: &ExecCtx<'_>) -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    for b in collect(op, ctx)? {
        rows.extend(b.to_rows());
    }
    Ok(rows)
}
