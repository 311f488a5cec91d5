//! Filter and projection operators, in both execution modes.

use std::collections::HashMap;

use hpd_common::{Batch, ColumnVector, DataType, Expr, Result, Row};
use hpd_storage::Work;

use crate::ctx::ExecCtx;
use crate::ops::{Operator, PlanNode};

/// Execution mode of a mode-aware operator.
///
/// Row mode evaluates expressions tuple-at-a-time (the B+ tree pipeline);
/// batch mode evaluates them vectorized over dense arrays (the columnstore
/// pipeline). Identical semantics, very different CPU cost — the difference
/// the paper's micro-benchmarks quantify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Row,
    Batch,
}

/// Expressions as an operator in `mode` evaluates them. In row mode they
/// read a row holding only the input columns they reference, so a row
/// costs the columns the operator reads, not the width of its input.
struct Exprs {
    mode: Mode,
    exprs: Vec<Expr>,
    /// Row mode: the input ordinals each row is built of; `exprs` are
    /// bound to positions in it.
    reads: Vec<usize>,
}

impl Exprs {
    fn new(exprs: Vec<Expr>, mode: Mode) -> Exprs {
        if mode == Mode::Batch {
            let reads = Vec::new();
            return Exprs { mode, exprs, reads };
        }
        let mut reads: Vec<usize> = exprs.iter().flat_map(Expr::referenced_columns).collect();
        reads.sort_unstable();
        reads.dedup();
        let narrow: HashMap<usize, usize> =
            reads.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        let exprs = (exprs.iter())
            .map(|e| e.remap_columns(&narrow))
            .collect::<Result<_>>()
            .expect("every referenced column is in the map");
        Exprs { mode, exprs, reads }
    }

    /// Count `batch`'s rows as entering this mode.
    fn count(&self, ctx: &ExecCtx<'_>, batch: &Batch) {
        let work = match self.mode {
            Mode::Row => Work::RowModeRows,
            Mode::Batch => Work::BatchModeRows,
        };
        ctx.tracker.count(work, batch.num_rows() as u64);
    }

    /// Row `i` of `batch`, as far as the expressions read it.
    fn row(&self, batch: &Batch, i: usize) -> Row {
        Row::new(
            self.reads
                .iter()
                .map(|&c| batch.column(c).value(i))
                .collect(),
        )
    }
}

/// Applies a boolean predicate.
pub struct FilterOp<'a> {
    child: PlanNode<'a>,
    predicate: Exprs,
}

impl<'a> FilterOp<'a> {
    pub fn new(child: PlanNode<'a>, predicate: Expr, mode: Mode) -> FilterOp<'a> {
        FilterOp {
            child,
            predicate: Exprs::new(vec![predicate], mode),
        }
    }
}

impl Operator for FilterOp<'_> {
    fn out_types(&self) -> Vec<DataType> {
        self.child.out_types()
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        let p = &self.predicate;
        while let Some(batch) = self.child.next(ctx)? {
            p.count(ctx, &batch);
            let mask = match p.mode {
                Mode::Batch => p.exprs[0].eval_mask(&batch)?,
                // Tuple-at-a-time evaluation through boxed values.
                Mode::Row => (0..batch.num_rows())
                    .map(|i| p.exprs[0].eval_bool_row(&p.row(&batch, i)))
                    .collect::<Result<_>>()?,
            };
            let filtered = batch.filter(&mask);
            if filtered.num_rows() > 0 {
                return Ok(Some(filtered));
            }
        }
        Ok(None)
    }
}

/// Computes output expressions (column pruning, computed columns).
pub struct ProjectOp<'a> {
    child: PlanNode<'a>,
    exprs: Exprs,
    types: Vec<DataType>,
}

impl<'a> ProjectOp<'a> {
    pub fn new(
        child: PlanNode<'a>,
        exprs: Vec<Expr>,
        types: Vec<DataType>,
        mode: Mode,
    ) -> ProjectOp<'a> {
        ProjectOp {
            child,
            exprs: Exprs::new(exprs, mode),
            types,
        }
    }

    /// Pure column selection.
    pub fn columns(child: PlanNode<'a>, ordinals: &[usize], mode: Mode) -> ProjectOp<'a> {
        let child_types = child.out_types();
        let types = ordinals.iter().map(|&i| child_types[i]).collect();
        let exprs = ordinals.iter().map(|&i| Expr::Col(i)).collect();
        ProjectOp::new(child, exprs, types, mode)
    }
}

impl Operator for ProjectOp<'_> {
    fn out_types(&self) -> Vec<DataType> {
        self.types.clone()
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        let Some(batch) = self.child.next(ctx)? else {
            return Ok(None);
        };
        let e = &self.exprs;
        e.count(ctx, &batch);
        let cols = match e.mode {
            Mode::Batch => (e.exprs.iter())
                .map(|x| x.eval_batch(&batch))
                .collect::<Result<Vec<_>>>()?,
            Mode::Row => {
                let n = batch.num_rows();
                let mut cols: Vec<ColumnVector> = (self.types.iter())
                    .map(|&t| ColumnVector::with_capacity(t, n))
                    .collect();
                for i in 0..n {
                    let row = e.row(&batch, i);
                    for (col, x) in cols.iter_mut().zip(&e.exprs) {
                        col.push(&x.eval_row(&row)?)?;
                    }
                }
                cols
            }
        };
        Ok(Some(Batch::new(cols)))
    }
}
