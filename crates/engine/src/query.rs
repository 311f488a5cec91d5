//! The typed query AST.
//!
//! Queries are built programmatically in a canonical
//! select-project-join-aggregate shape. The workload generators construct
//! these from the paper's query templates (Q1–Q5, TPC-DS-like, CH), and the
//! SQL front-end (`crates/sql`, DESIGN.md §15) lowers SQL text onto the
//! same AST — both paths meet here and share the optimizer and executors.

use hpd_common::{AggFunc, Expr, Row};

/// Reference to a column of one of the query's input tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColRef {
    /// Index into [`SelectQuery::tables`].
    pub table: usize,
    /// Column ordinal in that table's schema.
    pub column: usize,
}

impl ColRef {
    pub fn new(table: usize, column: usize) -> ColRef {
        ColRef { table, column }
    }
}

/// One input table with its local (single-table) predicate, expressed over
/// the table's full schema ordinals.
#[derive(Debug, Clone)]
pub struct TableInput {
    pub name: String,
    pub predicate: Option<Expr>,
}

impl TableInput {
    pub fn new(name: impl Into<String>) -> TableInput {
        TableInput {
            name: name.into(),
            predicate: None,
        }
    }

    pub fn with_predicate(name: impl Into<String>, predicate: Expr) -> TableInput {
        TableInput {
            name: name.into(),
            predicate: Some(predicate),
        }
    }
}

/// An equality join predicate between two tables.
#[derive(Debug, Clone, Copy)]
pub struct EquiJoin {
    pub left: ColRef,
    pub right: ColRef,
}

/// One aggregate output: `func(expr)` where `expr` is over a single table's
/// schema ordinals (cross-table aggregate inputs are not needed by any of
/// the paper's workloads).
#[derive(Debug, Clone)]
pub struct AggItem {
    pub func: AggFunc,
    pub table: usize,
    pub expr: Expr,
}

impl AggItem {
    pub fn new(func: AggFunc, table: usize, expr: Expr) -> AggItem {
        AggItem { func, table, expr }
    }

    /// `func(column)` shorthand.
    pub fn column(func: AggFunc, col: ColRef) -> AggItem {
        AggItem {
            func,
            table: col.table,
            expr: Expr::Col(col.column),
        }
    }
}

/// A select query in canonical SPJA shape.
///
/// Output columns: if `aggregates` is non-empty, the output is
/// `group_by ++ aggregates` (in that order); otherwise it is `select`.
#[derive(Debug, Clone, Default)]
pub struct SelectQuery {
    pub tables: Vec<TableInput>,
    pub joins: Vec<EquiJoin>,
    pub group_by: Vec<ColRef>,
    pub aggregates: Vec<AggItem>,
    /// Plain projection (non-aggregate queries).
    pub select: Vec<ColRef>,
    /// `(output ordinal, ascending)` pairs.
    pub order_by: Vec<(usize, bool)>,
    pub limit: Option<usize>,
}

impl SelectQuery {
    /// Single-table scan+filter+project query.
    pub fn single_table(
        name: impl Into<String>,
        predicate: Option<Expr>,
        select: Vec<usize>,
    ) -> SelectQuery {
        SelectQuery {
            tables: vec![TableInput {
                name: name.into(),
                predicate,
            }],
            select: select.into_iter().map(|c| ColRef::new(0, c)).collect(),
            ..Default::default()
        }
    }

    pub fn is_aggregate(&self) -> bool {
        !self.aggregates.is_empty()
    }

    /// Column ordinals of `table` referenced anywhere in the query
    /// (predicates, joins, group-by, aggregates, select, order-by via
    /// output list).
    pub fn referenced_columns(&self, table: usize) -> Vec<usize> {
        let mut cols = Vec::new();
        if let Some(p) = &self.tables[table].predicate {
            cols.extend(p.referenced_columns());
        }
        for j in &self.joins {
            if j.left.table == table {
                cols.push(j.left.column);
            }
            if j.right.table == table {
                cols.push(j.right.column);
            }
        }
        for g in &self.group_by {
            if g.table == table {
                cols.push(g.column);
            }
        }
        for a in &self.aggregates {
            if a.table == table {
                cols.extend(a.expr.referenced_columns());
            }
        }
        for s in &self.select {
            if s.table == table {
                cols.push(s.column);
            }
        }
        cols.sort_unstable();
        cols.dedup();
        cols
    }
}

/// `UPDATE [TOP n] table SET col = expr, ... WHERE predicate`.
///
/// `set` expressions are evaluated over the *old* row.
#[derive(Debug, Clone)]
pub struct UpdateStmt {
    pub table: String,
    pub predicate: Expr,
    pub top: Option<usize>,
    pub set: Vec<(usize, Expr)>,
}

/// `DELETE [TOP n] FROM table WHERE predicate`.
#[derive(Debug, Clone)]
pub struct DeleteStmt {
    pub table: String,
    pub predicate: Expr,
    pub top: Option<usize>,
}

/// `INSERT INTO table VALUES ...`.
#[derive(Debug, Clone)]
pub struct InsertStmt {
    pub table: String,
    pub rows: Vec<Row>,
}

/// Any statement the engine executes.
#[derive(Debug, Clone)]
pub enum Statement {
    Select(SelectQuery),
    Update(UpdateStmt),
    Delete(DeleteStmt),
    Insert(InsertStmt),
}

impl Statement {
    pub fn table_names(&self) -> Vec<&str> {
        match self {
            Statement::Select(q) => q.tables.iter().map(|t| t.name.as_str()).collect(),
            Statement::Update(u) => vec![u.table.as_str()],
            Statement::Delete(d) => vec![d.table.as_str()],
            Statement::Insert(i) => vec![i.table.as_str()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpd_common::{CmpOp, Value};

    #[test]
    fn referenced_columns_dedup_across_clauses() {
        let q = SelectQuery {
            tables: vec![
                TableInput::with_predicate("t", Expr::col_cmp(2, CmpOp::Lt, Value::Int32(5))),
                TableInput::new("u"),
            ],
            joins: vec![EquiJoin {
                left: ColRef::new(0, 1),
                right: ColRef::new(1, 0),
            }],
            group_by: vec![ColRef::new(0, 2)],
            aggregates: vec![AggItem::column(AggFunc::Sum, ColRef::new(0, 3))],
            ..Default::default()
        };
        assert_eq!(q.referenced_columns(0), vec![1, 2, 3]);
        assert_eq!(q.referenced_columns(1), vec![0]);
        assert!(q.is_aggregate());
    }

    #[test]
    fn single_table_constructor() {
        let q = SelectQuery::single_table("t", None, vec![0, 2]);
        assert_eq!(q.tables.len(), 1);
        assert!(!q.is_aggregate());
        assert_eq!(q.referenced_columns(0), vec![0, 2]);
    }
}
