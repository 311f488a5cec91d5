//! Scalar expressions with row-at-a-time and vectorized evaluation.
//!
//! The same [`Expr`] tree is evaluated in two modes, mirroring SQL Server's
//! *row mode* (used over B+ trees) and *batch mode* (used over columnstores):
//!
//! * [`Expr::eval_row`] computes one [`Value`] from one row;
//! * [`Expr::eval_mask`] / [`Expr::eval_batch`] compute a selection mask or a
//!   result column over a whole [`Batch`] of dense typed arrays.
//!
//! [`Expr::column_intervals`] extracts per-column [`Interval`]s from
//! conjunctive predicates; these feed B+ tree range seeks and columnstore
//! segment elimination.

use std::collections::HashMap;

use crate::{Batch, ColumnVector, HpdError, Interval, Result, Row, Value};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn apply(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// The operator with operands swapped (`a < b` ⇔ `b > a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    }

    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl BinOp {
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }
}

/// A scalar expression over the columns of one input relation.
///
/// Columns are referenced by ordinal into the input schema; the planner is
/// responsible for binding names to ordinals.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference by ordinal.
    Col(usize),
    /// Literal value.
    Lit(Value),
    /// Comparison producing a boolean.
    Cmp {
        op: CmpOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Arithmetic over numeric values.
    Arith {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Conjunction; empty conjunction is `true`.
    And(Vec<Expr>),
    /// Disjunction; empty disjunction is `false`.
    Or(Vec<Expr>),
    Not(Box<Expr>),
}

impl Expr {
    pub fn col(idx: usize) -> Expr {
        Expr::Col(idx)
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Cmp {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `col <op> literal` — the most common predicate shape.
    pub fn col_cmp(col: usize, op: CmpOp, v: impl Into<Value>) -> Expr {
        Expr::cmp(op, Expr::Col(col), Expr::Lit(v.into()))
    }

    /// `col BETWEEN lo AND hi` (inclusive both ends).
    pub fn between(col: usize, lo: impl Into<Value>, hi: impl Into<Value>) -> Expr {
        Expr::And(vec![
            Expr::col_cmp(col, CmpOp::Ge, lo),
            Expr::col_cmp(col, CmpOp::Le, hi),
        ])
    }

    pub fn arith(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Arith {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    pub fn and(exprs: Vec<Expr>) -> Expr {
        Expr::And(exprs)
    }

    /// All column ordinals referenced anywhere in the expression.
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => out.push(*i),
            Expr::Lit(_) => {}
            Expr::Cmp { lhs, rhs, .. } | Expr::Arith { lhs, rhs, .. } => {
                lhs.collect_columns(out);
                rhs.collect_columns(out);
            }
            Expr::And(es) | Expr::Or(es) => {
                for e in es {
                    e.collect_columns(out);
                }
            }
            Expr::Not(e) => e.collect_columns(out),
        }
    }

    /// Rewrite column ordinals through a mapping (old ordinal → new ordinal).
    /// Used when pushing predicates below projections.
    pub fn remap_columns(&self, map: &HashMap<usize, usize>) -> Result<Expr> {
        Ok(match self {
            Expr::Col(i) => Expr::Col(*map.get(i).ok_or_else(|| {
                HpdError::Internal(format!("column ordinal {i} missing from remap"))
            })?),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Cmp { op, lhs, rhs } => Expr::Cmp {
                op: *op,
                lhs: Box::new(lhs.remap_columns(map)?),
                rhs: Box::new(rhs.remap_columns(map)?),
            },
            Expr::Arith { op, lhs, rhs } => Expr::Arith {
                op: *op,
                lhs: Box::new(lhs.remap_columns(map)?),
                rhs: Box::new(rhs.remap_columns(map)?),
            },
            Expr::And(es) => Expr::And(
                es.iter()
                    .map(|e| e.remap_columns(map))
                    .collect::<Result<_>>()?,
            ),
            Expr::Or(es) => Expr::Or(
                es.iter()
                    .map(|e| e.remap_columns(map))
                    .collect::<Result<_>>()?,
            ),
            Expr::Not(e) => Expr::Not(Box::new(e.remap_columns(map)?)),
        })
    }

    // ------------------------------------------------------------------
    // Row-mode evaluation
    // ------------------------------------------------------------------

    /// Evaluate to a scalar over one row. Booleans are represented as
    /// `Int32(0|1)`.
    pub fn eval_row(&self, row: &Row) -> Result<Value> {
        match self {
            Expr::Col(i) => {
                if *i >= row.len() {
                    return Err(HpdError::Internal(format!(
                        "column ordinal {i} out of bounds for row of arity {}",
                        row.len()
                    )));
                }
                Ok(row[*i].clone())
            }
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Cmp { op, lhs, rhs } => {
                let l = lhs.eval_row(row)?;
                let r = rhs.eval_row(row)?;
                Ok(Value::Int32(op.apply(l.cmp(&r)) as i32))
            }
            Expr::Arith { op, lhs, rhs } => {
                let l = lhs.eval_row(row)?;
                let r = rhs.eval_row(row)?;
                arith_values(*op, &l, &r)
            }
            Expr::And(es) => {
                for e in es {
                    if !e.eval_bool_row(row)? {
                        return Ok(Value::Int32(0));
                    }
                }
                Ok(Value::Int32(1))
            }
            Expr::Or(es) => {
                for e in es {
                    if e.eval_bool_row(row)? {
                        return Ok(Value::Int32(1));
                    }
                }
                Ok(Value::Int32(0))
            }
            Expr::Not(e) => Ok(Value::Int32(!e.eval_bool_row(row)? as i32)),
        }
    }

    /// Evaluate as a boolean predicate over one row.
    pub fn eval_bool_row(&self, row: &Row) -> Result<bool> {
        Ok(match self.eval_row(row)? {
            Value::Int32(v) => v != 0,
            Value::Int64(v) => v != 0,
            other => {
                return Err(HpdError::TypeMismatch {
                    expected: "boolean (int)",
                    found: other.data_type().name().to_string(),
                })
            }
        })
    }

    // ------------------------------------------------------------------
    // Batch-mode (vectorized) evaluation
    // ------------------------------------------------------------------

    /// Evaluate as a predicate over a batch, producing a selection mask.
    pub fn eval_mask(&self, batch: &Batch) -> Result<Vec<bool>> {
        match self {
            Expr::And(es) => {
                let mut mask = vec![true; batch.num_rows()];
                for e in es {
                    let m = e.eval_mask(batch)?;
                    for (a, b) in mask.iter_mut().zip(&m) {
                        *a = *a && *b;
                    }
                }
                Ok(mask)
            }
            Expr::Or(es) => {
                let mut mask = vec![false; batch.num_rows()];
                for e in es {
                    let m = e.eval_mask(batch)?;
                    for (a, b) in mask.iter_mut().zip(&m) {
                        *a = *a || *b;
                    }
                }
                Ok(mask)
            }
            Expr::Not(e) => {
                let mut m = e.eval_mask(batch)?;
                for b in &mut m {
                    *b = !*b;
                }
                Ok(m)
            }
            Expr::Cmp { op, lhs, rhs } => eval_cmp_mask(*op, lhs, rhs, batch),
            other => {
                // Fallback: evaluate as a column and test non-zero.
                let col = other.eval_batch(batch)?;
                Ok((0..col.len())
                    .map(|i| col.value(i).as_i64().is_some_and(|v| v != 0))
                    .collect())
            }
        }
    }

    /// Evaluate to a column over a batch.
    pub fn eval_batch(&self, batch: &Batch) -> Result<ColumnVector> {
        match self {
            Expr::Col(i) => {
                if *i >= batch.num_columns() {
                    return Err(HpdError::Internal(format!(
                        "column ordinal {i} out of bounds for batch of arity {}",
                        batch.num_columns()
                    )));
                }
                Ok(batch.column(*i).clone())
            }
            Expr::Lit(v) => {
                let mut cv = ColumnVector::with_capacity(v.data_type(), batch.num_rows());
                for _ in 0..batch.num_rows() {
                    cv.push(v)?;
                }
                Ok(cv)
            }
            Expr::Arith { op, lhs, rhs } => {
                let l = lhs.eval_batch(batch)?;
                let r = rhs.eval_batch(batch)?;
                arith_vectors(*op, &l, &r)
            }
            Expr::Cmp { .. } | Expr::And(_) | Expr::Or(_) | Expr::Not(_) => {
                let mask = self.eval_mask(batch)?;
                Ok(ColumnVector::Int32(
                    mask.into_iter().map(|b| b as i32).collect(),
                ))
            }
        }
    }

    // ------------------------------------------------------------------
    // Predicate analysis
    // ------------------------------------------------------------------

    /// Extract per-column intervals implied by this predicate, considering
    /// only top-level conjuncts of the form `col <op> literal` (or the
    /// flipped form). Other conjuncts are ignored, so the returned intervals
    /// are a *superset* of the qualifying rows — safe for index seeks and
    /// segment elimination, whose filter applies what they leave
    /// ([`Expr::residual`]).
    pub fn column_intervals(&self) -> HashMap<usize, Interval> {
        let mut out: HashMap<usize, Interval> = HashMap::new();
        self.collect_intervals(&mut out);
        out
    }

    fn collect_intervals(&self, out: &mut HashMap<usize, Interval>) {
        match self {
            Expr::And(es) => {
                for e in es {
                    e.collect_intervals(out);
                }
            }
            _ => {
                if let Some((col, iv)) = self.interval_conjunct() {
                    out.entry(col)
                        .and_modify(|e| *e = e.intersect(&iv))
                        .or_insert(iv);
                }
            }
        }
    }

    /// A conjunct that is one contiguous interval on one column, as that
    /// column and interval: `col <op> literal` or the flipped form, `<>`
    /// excluded.
    fn interval_conjunct(&self) -> Option<(usize, Interval)> {
        let Expr::Cmp { op, lhs, rhs } = self else {
            return None;
        };
        let (col, op, v) = match (lhs.as_ref(), rhs.as_ref()) {
            (Expr::Col(c), Expr::Lit(v)) => (*c, *op, v.clone()),
            (Expr::Lit(v), Expr::Col(c)) => (*c, op.flip(), v.clone()),
            _ => return None,
        };
        let iv = match op {
            CmpOp::Eq => Interval::point(v),
            CmpOp::Lt => Interval::less_than(v, false),
            CmpOp::Le => Interval::less_than(v, true),
            CmpOp::Gt => Interval::greater_than(v, false),
            CmpOp::Ge => Interval::greater_than(v, true),
            CmpOp::Ne => return None, // no useful contiguous interval
        };
        Some((col, iv))
    }

    /// What remains of this predicate once an access path applies the
    /// intervals [`Expr::column_intervals`] extracts for the `applied`
    /// columns: every top-level conjunct but the simple `col <op> literal`
    /// (or flipped) ones on those columns, in order. `None` when nothing
    /// remains, so the access path needs no residual filter.
    pub fn residual(&self, applied: &[usize]) -> Option<Expr> {
        let mut rest = Vec::new();
        self.collect_residual(applied, &mut rest);
        match rest.len() {
            0 => None,
            1 => rest.pop(),
            _ => Some(Expr::And(rest)),
        }
    }

    fn collect_residual(&self, applied: &[usize], rest: &mut Vec<Expr>) {
        match self {
            Expr::And(es) => es.iter().for_each(|e| e.collect_residual(applied, rest)),
            _ if (self.interval_conjunct()).is_some_and(|(c, _)| applied.contains(&c)) => {}
            _ => rest.push(self.clone()),
        }
    }

    /// Render the expression for plan printouts, resolving ordinals through
    /// `names` when available.
    pub fn display(&self, names: &[String]) -> String {
        let name = |i: usize| names.get(i).cloned().unwrap_or_else(|| format!("col{i}"));
        match self {
            Expr::Col(i) => name(*i),
            Expr::Lit(v) => v.to_string(),
            Expr::Cmp { op, lhs, rhs } => {
                format!(
                    "({} {} {})",
                    lhs.display(names),
                    op.symbol(),
                    rhs.display(names)
                )
            }
            Expr::Arith { op, lhs, rhs } => {
                format!(
                    "({} {} {})",
                    lhs.display(names),
                    op.symbol(),
                    rhs.display(names)
                )
            }
            Expr::And(es) => {
                if es.is_empty() {
                    "true".to_string()
                } else {
                    es.iter()
                        .map(|e| e.display(names))
                        .collect::<Vec<_>>()
                        .join(" AND ")
                }
            }
            Expr::Or(es) => {
                if es.is_empty() {
                    "false".to_string()
                } else {
                    format!(
                        "({})",
                        es.iter()
                            .map(|e| e.display(names))
                            .collect::<Vec<_>>()
                            .join(" OR ")
                    )
                }
            }
            Expr::Not(e) => format!("NOT {}", e.display(names)),
        }
    }
}

fn arith_values(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    // Integer-preserving paths for common cases; otherwise promote to f64.
    match (l, r) {
        (Value::Int64(a), Value::Int64(b)) => {
            let out = match op {
                BinOp::Add => a.checked_add(*b),
                BinOp::Sub => a.checked_sub(*b),
                BinOp::Mul => a.checked_mul(*b),
                BinOp::Div => {
                    if *b == 0 {
                        None
                    } else {
                        a.checked_div(*b)
                    }
                }
            };
            out.map(Value::Int64)
                .ok_or_else(|| HpdError::Internal("integer arithmetic overflow".into()))
        }
        (Value::Int32(a), Value::Int32(b)) => arith_values(
            op,
            &Value::Int64(i64::from(*a)),
            &Value::Int64(i64::from(*b)),
        ),
        (Value::Decimal(a), Value::Decimal(b)) => {
            let out = match op {
                BinOp::Add => a.checked_add(*b),
                BinOp::Sub => a.checked_sub(*b),
                // Fixed-point multiply/divide rescale by 10^4.
                BinOp::Mul => a.checked_mul(*b).map(|v| v / 10_000),
                BinOp::Div => {
                    if *b == 0 {
                        None
                    } else {
                        a.checked_mul(10_000).and_then(|v| v.checked_div(*b))
                    }
                }
            };
            out.map(Value::Decimal)
                .ok_or_else(|| HpdError::Internal("decimal arithmetic overflow".into()))
        }
        _ => {
            let (a, b) = (
                l.as_f64().ok_or(HpdError::TypeMismatch {
                    expected: "numeric",
                    found: l.data_type().name().to_string(),
                })?,
                r.as_f64().ok_or(HpdError::TypeMismatch {
                    expected: "numeric",
                    found: r.data_type().name().to_string(),
                })?,
            );
            Ok(Value::Float64(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
            }))
        }
    }
}

/// Vectorized comparison with fast paths for `col <op> literal` over the
/// primitive types, which is where batch mode earns its keep.
fn eval_cmp_mask(op: CmpOp, lhs: &Expr, rhs: &Expr, batch: &Batch) -> Result<Vec<bool>> {
    // Fast path: Col vs Lit on primitive columns.
    if let (Expr::Col(c), Expr::Lit(v)) = (lhs, rhs) {
        if let Some(mask) = cmp_col_lit_fast(op, batch.column(*c), v) {
            return Ok(mask);
        }
    }
    if let (Expr::Lit(v), Expr::Col(c)) = (lhs, rhs) {
        if let Some(mask) = cmp_col_lit_fast(op.flip(), batch.column(*c), v) {
            return Ok(mask);
        }
    }
    // General path: materialize both sides.
    let l = lhs.eval_batch(batch)?;
    let r = rhs.eval_batch(batch)?;
    Ok((0..batch.num_rows())
        .map(|i| op.apply(l.value(i).cmp(&r.value(i))))
        .collect())
}

macro_rules! prim_cmp {
    ($vals:expr, $lit:expr, $op:expr) => {{
        let lit = $lit;
        let mut mask = Vec::with_capacity($vals.len());
        match $op {
            CmpOp::Eq => mask.extend($vals.iter().map(|v| *v == lit)),
            CmpOp::Ne => mask.extend($vals.iter().map(|v| *v != lit)),
            CmpOp::Lt => mask.extend($vals.iter().map(|v| *v < lit)),
            CmpOp::Le => mask.extend($vals.iter().map(|v| *v <= lit)),
            CmpOp::Gt => mask.extend($vals.iter().map(|v| *v > lit)),
            CmpOp::Ge => mask.extend($vals.iter().map(|v| *v >= lit)),
        }
        Some(mask)
    }};
}

fn cmp_col_lit_fast(op: CmpOp, col: &ColumnVector, lit: &Value) -> Option<Vec<bool>> {
    match (col, lit) {
        (ColumnVector::Int32(v), Value::Int32(x)) => prim_cmp!(v, *x, op),
        (ColumnVector::Int64(v), Value::Int64(x)) => prim_cmp!(v, *x, op),
        (ColumnVector::Date(v), Value::Date(x)) => prim_cmp!(v, *x, op),
        (ColumnVector::Decimal(v), Value::Decimal(x)) => prim_cmp!(v, *x, op),
        (ColumnVector::Int32(v), Value::Int64(x)) => {
            let x = i32::try_from(*x).ok()?;
            prim_cmp!(v, x, op)
        }
        (ColumnVector::Float64(v), Value::Float64(x)) => {
            // total_cmp for consistency with Value's order.
            let x = *x;
            let mut mask = Vec::with_capacity(v.len());
            mask.extend(v.iter().map(|a| op.apply(a.total_cmp(&x))));
            Some(mask)
        }
        _ => None,
    }
}

fn arith_vectors(op: BinOp, l: &ColumnVector, r: &ColumnVector) -> Result<ColumnVector> {
    match (l, r) {
        (ColumnVector::Int64(a), ColumnVector::Int64(b)) => Ok(ColumnVector::Int64(
            a.iter()
                .zip(b)
                .map(|(x, y)| match op {
                    BinOp::Add => x.wrapping_add(*y),
                    BinOp::Sub => x.wrapping_sub(*y),
                    BinOp::Mul => x.wrapping_mul(*y),
                    BinOp::Div => {
                        if *y == 0 {
                            0
                        } else {
                            x / y
                        }
                    }
                })
                .collect(),
        )),
        (ColumnVector::Int32(a), ColumnVector::Int32(b)) => Ok(ColumnVector::Int64(
            a.iter()
                .zip(b)
                .map(|(x, y)| {
                    let (x, y) = (i64::from(*x), i64::from(*y));
                    match op {
                        BinOp::Add => x + y,
                        BinOp::Sub => x - y,
                        BinOp::Mul => x * y,
                        BinOp::Div => {
                            if y == 0 {
                                0
                            } else {
                                x / y
                            }
                        }
                    }
                })
                .collect(),
        )),
        (ColumnVector::Decimal(a), ColumnVector::Decimal(b)) => Ok(ColumnVector::Decimal(
            a.iter()
                .zip(b)
                .map(|(x, y)| match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => (x * y) / 10_000,
                    BinOp::Div => {
                        if *y == 0 {
                            0
                        } else {
                            x * 10_000 / y
                        }
                    }
                })
                .collect(),
        )),
        _ => {
            // General path through f64.
            let n = l.len();
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let a = l.value(i).as_f64().ok_or(HpdError::TypeMismatch {
                    expected: "numeric",
                    found: l.data_type().name().to_string(),
                })?;
                let b = r.value(i).as_f64().ok_or(HpdError::TypeMismatch {
                    expected: "numeric",
                    found: r.data_type().name().to_string(),
                })?;
                out.push(match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                });
            }
            Ok(ColumnVector::Float64(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataType;

    fn batch() -> Batch {
        Batch::new(vec![
            ColumnVector::Int32(vec![1, 5, 10, 15]),
            ColumnVector::Decimal(vec![10_000, 20_000, 30_000, 40_000]),
        ])
    }

    #[test]
    fn row_and_batch_modes_agree_on_predicate() {
        let pred = Expr::And(vec![
            Expr::col_cmp(0, CmpOp::Ge, Value::Int32(5)),
            Expr::col_cmp(0, CmpOp::Lt, Value::Int32(15)),
        ]);
        let b = batch();
        let mask = pred.eval_mask(&b).unwrap();
        assert_eq!(mask, vec![false, true, true, false]);
        for (i, row) in b.to_rows().iter().enumerate() {
            assert_eq!(pred.eval_bool_row(row).unwrap(), mask[i]);
        }
    }

    #[test]
    fn arithmetic_row_batch_consistency() {
        let e = Expr::arith(
            BinOp::Mul,
            Expr::Col(1),
            Expr::arith(BinOp::Sub, Expr::lit(Value::Decimal(10_000)), Expr::Col(1)),
        );
        let b = batch();
        let col = e.eval_batch(&b).unwrap();
        for i in 0..b.num_rows() {
            assert_eq!(col.value(i), e.eval_row(&b.row(i)).unwrap());
        }
    }

    #[test]
    fn interval_extraction_from_conjunction() {
        let pred = Expr::And(vec![
            Expr::col_cmp(0, CmpOp::Ge, Value::Int32(5)),
            Expr::col_cmp(0, CmpOp::Lt, Value::Int32(15)),
            Expr::col_cmp(2, CmpOp::Eq, Value::Int32(7)),
        ]);
        let ivs = pred.column_intervals();
        assert_eq!(ivs.len(), 2);
        let iv0 = &ivs[&0];
        assert!(iv0.contains(&Value::Int32(5)));
        assert!(!iv0.contains(&Value::Int32(15)));
        assert_eq!(ivs[&2], Interval::point(Value::Int32(7)));
    }

    #[test]
    fn flipped_literal_comparison_extracts_interval() {
        // 10 > col0  ⇔  col0 < 10
        let pred = Expr::cmp(CmpOp::Gt, Expr::lit(Value::Int32(10)), Expr::Col(0));
        let ivs = pred.column_intervals();
        assert!(ivs[&0].contains(&Value::Int32(9)));
        assert!(!ivs[&0].contains(&Value::Int32(10)));
    }

    #[test]
    fn the_residual_keeps_what_the_applied_columns_do_not_cover() {
        let (ge, lt, eq, ne) = (
            Expr::col_cmp(0, CmpOp::Ge, Value::Int32(5)),
            Expr::cmp(CmpOp::Gt, Expr::lit(Value::Int32(15)), Expr::Col(0)),
            Expr::col_cmp(2, CmpOp::Eq, Value::Int32(7)),
            Expr::col_cmp(0, CmpOp::Ne, Value::Int32(9)),
        );
        let pred = Expr::And(vec![
            ge.clone(),
            Expr::And(vec![lt.clone(), eq.clone()]),
            ne.clone(),
        ]);
        assert_eq!(
            pred.residual(&[]),
            Some(Expr::And(vec![ge, lt, eq.clone(), ne.clone()]))
        );
        assert_eq!(pred.residual(&[0]), Some(Expr::And(vec![eq, ne.clone()])));
        // `<>` is no interval: it stays even on an applied column.
        assert_eq!(pred.residual(&[0, 2]), Some(ne));
        let covered = Expr::between(1, Value::Int32(1), Value::Int32(3));
        assert_eq!(covered.residual(&[1]), None);
        assert_eq!(Expr::And(vec![]).residual(&[]), None);
    }

    #[test]
    fn or_does_not_produce_intervals() {
        let pred = Expr::Or(vec![
            Expr::col_cmp(0, CmpOp::Eq, Value::Int32(1)),
            Expr::col_cmp(0, CmpOp::Eq, Value::Int32(2)),
        ]);
        assert!(pred.column_intervals().is_empty());
    }

    #[test]
    fn not_and_or_masks() {
        let b = batch();
        let p = Expr::Not(Box::new(Expr::Or(vec![
            Expr::col_cmp(0, CmpOp::Lt, Value::Int32(5)),
            Expr::col_cmp(0, CmpOp::Gt, Value::Int32(10)),
        ])));
        assert_eq!(p.eval_mask(&b).unwrap(), vec![false, true, true, false]);
    }

    #[test]
    fn decimal_fixed_point_arithmetic() {
        // 2.0 * 3.0 = 6.0 in fixed point
        let v = arith_values(BinOp::Mul, &Value::Decimal(20_000), &Value::Decimal(30_000)).unwrap();
        assert_eq!(v, Value::Decimal(60_000));
        let d = arith_values(BinOp::Div, &Value::Decimal(60_000), &Value::Decimal(20_000)).unwrap();
        assert_eq!(d, Value::Decimal(30_000));
    }

    #[test]
    fn display_uses_names() {
        let e = Expr::And(vec![
            Expr::col_cmp(0, CmpOp::Lt, Value::Int32(3)),
            Expr::col_cmp(1, CmpOp::Eq, Value::str("x")),
        ]);
        let names = vec!["a".to_string(), "b".to_string()];
        assert_eq!(e.display(&names), "(a < 3) AND (b = 'x')");
    }

    #[test]
    fn empty_conjunction_is_true_disjunction_false() {
        let b = batch();
        assert!(Expr::And(vec![]).eval_mask(&b).unwrap().iter().all(|&m| m));
        assert!(Expr::Or(vec![]).eval_mask(&b).unwrap().iter().all(|&m| !m));
    }

    #[test]
    fn remap_columns_rewrites_ordinals() {
        let e = Expr::col_cmp(3, CmpOp::Eq, Value::Int32(1));
        let map: HashMap<usize, usize> = [(3usize, 0usize)].into_iter().collect();
        let r = e.remap_columns(&map).unwrap();
        assert_eq!(r, Expr::col_cmp(0, CmpOp::Eq, Value::Int32(1)));
        let missing = Expr::Col(9).remap_columns(&map);
        assert!(missing.is_err());
    }

    #[test]
    fn eval_batch_of_datatype_constructors() {
        // Ensure the Lit fast path materializes the correct type.
        let b = Batch::empty(&[DataType::Int32]);
        let lit = Expr::lit(Value::Int32(7)).eval_batch(&b).unwrap();
        assert_eq!(lit.len(), 0);
        assert_eq!(lit.data_type(), DataType::Int32);
    }
}
