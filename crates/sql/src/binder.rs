//! Name resolution and lowering: [`SqlStatement`] → [`Bound`].
//!
//! The binder resolves column names to ordinals against the live catalog,
//! substitutes `?` parameters, coerces literals toward the column types
//! they meet (comparison, arithmetic, assignment, VALUES), splits WHERE
//! conjunctions into per-table predicates plus equi-join edges, and
//! validates aggregate/GROUP BY shape — producing either an engine
//! [`Statement`] or a DDL / transaction-control command for the session
//! layer to dispatch.

use hpd_common::{ColumnDef, DataType, Expr, Row, Schema, Value};
use hpd_engine::{
    AggItem, ColRef, Database, DeleteStmt, EquiJoin, IndexDescriptor, InsertStmt, IsolationLevel,
    PartitionSpec, SelectQuery, Statement, TableInput, UpdateStmt,
};

use crate::ast::*;
use crate::error::{SqlError, SqlErrorKind, SqlResult};

/// A fully resolved statement, ready for the session layer.
#[derive(Debug, Clone)]
pub enum Bound {
    /// DML/query lowered to the engine AST.
    Stmt(Statement),
    Begin(Option<IsolationLevel>),
    Commit,
    Rollback,
    SetIsolation(IsolationLevel),
    CreateTable {
        name: String,
        schema: Schema,
        pk: Vec<usize>,
        primary: IndexDescriptor,
        /// Partitioning declaration (`None` for a monolithic table).
        spec: Option<PartitionSpec>,
    },
    CreateIndex {
        table: String,
        descriptor: IndexDescriptor,
    },
    DropIndex {
        table: String,
        /// 1-based secondary index ordinal in meta order.
        ordinal: usize,
    },
}

/// Bind `stmt` against `db`'s catalog, substituting `params` for `?`
/// placeholders.
pub fn bind(db: &Database, stmt: &SqlStatement, params: &[Value]) -> SqlResult<Bound> {
    let b = Binder { db, params };
    b.bind(stmt)
}

struct Binder<'a> {
    db: &'a Database,
    params: &'a [Value],
}

/// In-scope FROM tables, in declaration order.
struct Scope {
    tables: Vec<(String, Schema)>,
}

impl Scope {
    /// Resolve a (possibly qualified) column name to
    /// `(table index, ordinal, type)`.
    fn resolve(
        &self,
        table: &Option<String>,
        name: &str,
        offset: usize,
    ) -> SqlResult<(usize, usize, DataType)> {
        if let Some(q) = table {
            let Some(t) = self.tables.iter().position(|(n, _)| n == q) else {
                return Err(SqlError::new(
                    SqlErrorKind::UnknownTable,
                    offset,
                    format!("unknown table qualifier '{q}'"),
                ));
            };
            let schema = &self.tables[t].1;
            let ord = schema.index_of(name).map_err(|_| {
                SqlError::new(
                    SqlErrorKind::UnknownColumn,
                    offset,
                    format!("unknown column '{q}.{name}'"),
                )
            })?;
            return Ok((t, ord, schema.column(ord).dtype));
        }
        let mut hit = None;
        for (t, (tname, schema)) in self.tables.iter().enumerate() {
            if let Ok(ord) = schema.index_of(name) {
                if let Some((pt, _, _)) = hit {
                    let prev: &str = &self.tables[pt as usize].0;
                    return Err(SqlError::new(
                        SqlErrorKind::AmbiguousColumn,
                        offset,
                        format!("column '{name}' exists in both '{prev}' and '{tname}'"),
                    ));
                }
                hit = Some((t as u32, ord, schema.column(ord).dtype));
            }
        }
        match hit {
            Some((t, ord, dt)) => Ok((t as usize, ord, dt)),
            None => Err(SqlError::new(
                SqlErrorKind::UnknownColumn,
                offset,
                format!("unknown column '{name}'"),
            )),
        }
    }
}

impl<'a> Binder<'a> {
    fn schema_of(&self, table: &str, offset: usize) -> SqlResult<Schema> {
        self.db
            .with_table(table, |t| t.schema().clone())
            .map_err(|_| {
                SqlError::new(
                    SqlErrorKind::UnknownTable,
                    offset,
                    format!("unknown table '{table}'"),
                )
            })
    }

    fn param(&self, index: usize, offset: usize) -> SqlResult<Value> {
        self.params.get(index).cloned().ok_or_else(|| {
            SqlError::new(
                SqlErrorKind::MissingParameter,
                offset,
                format!("no value bound for parameter ?{}", index + 1),
            )
        })
    }

    /// Literal value of `e` after parameter substitution, coerced to
    /// `anchor` when one is known.
    fn literal(&self, value: Value, offset: usize, anchor: Option<DataType>) -> SqlResult<Value> {
        match anchor {
            None => Ok(value),
            Some(d) => value.coerce_to(d).ok_or_else(|| {
                SqlError::new(
                    SqlErrorKind::TypeMismatch,
                    offset,
                    format!(
                        "cannot use {} value where {} is expected",
                        value.data_type(),
                        d.name()
                    ),
                )
            }),
        }
    }

    /// Resolve a `PARTITION BY` clause against the table being created:
    /// the partition column must exist, range bounds must be literals
    /// coercible to its type, and the spec's own validation (increasing
    /// bounds, partition count) is surfaced at the clause's location.
    fn bind_partition_by(&self, p: &SqlPartitionBy, schema: &Schema) -> SqlResult<PartitionSpec> {
        let resolve = |name: &str, offset: usize| -> SqlResult<(usize, DataType)> {
            let ord = schema.index_of(name).map_err(|_| {
                SqlError::new(
                    SqlErrorKind::UnknownColumn,
                    offset,
                    format!("unknown partition column '{name}'"),
                )
            })?;
            Ok((ord, schema.column(ord).dtype))
        };
        match p {
            SqlPartitionBy::Range {
                column,
                column_offset,
                bounds,
            } => {
                let (ord, dtype) = resolve(column, *column_offset)?;
                let values = bounds
                    .iter()
                    .map(|b| match b {
                        SqlExpr::Lit { value, offset } => {
                            self.literal(value.clone(), *offset, Some(dtype))
                        }
                        // Plan-cache normalization turns literal bounds into
                        // parameters; the captured values arrive here.
                        SqlExpr::Param { index, offset } => {
                            let v = self.param(*index, *offset)?;
                            self.literal(v, *offset, Some(dtype))
                        }
                        other => Err(SqlError::new(
                            SqlErrorKind::InvalidQuery,
                            other.offset(),
                            "partition bounds must be literals",
                        )),
                    })
                    .collect::<SqlResult<Vec<Value>>>()?;
                PartitionSpec::range(ord, values).map_err(|e| {
                    SqlError::new(SqlErrorKind::InvalidQuery, *column_offset, e.to_string())
                })
            }
            SqlPartitionBy::Hash {
                column,
                column_offset,
                partitions,
                partitions_offset,
            } => {
                let (ord, _) = resolve(column, *column_offset)?;
                PartitionSpec::hash(ord, *partitions).map_err(|e| {
                    SqlError::new(
                        SqlErrorKind::InvalidQuery,
                        *partitions_offset,
                        e.to_string(),
                    )
                })
            }
        }
    }

    /// Static type of a scalar expression, used only as a coercion anchor
    /// for the literal on the other side of an operator. `None` means "no
    /// column in this subtree" (pure literals keep their spelled type).
    fn infer(&self, e: &SqlExpr, scope: &Scope) -> SqlResult<Option<DataType>> {
        Ok(match e {
            SqlExpr::Col {
                table,
                name,
                offset,
            } => Some(scope.resolve(table, name, *offset)?.2),
            SqlExpr::Lit { .. } | SqlExpr::Param { .. } => None,
            SqlExpr::Arith { lhs, rhs, .. } => {
                let l = self.infer(lhs, scope)?;
                let r = self.infer(rhs, scope)?;
                match (l, r) {
                    (None, None) => None,
                    (Some(d), None) | (None, Some(d)) => Some(promote(d, d)),
                    (Some(a), Some(b)) => Some(promote(a, b)),
                }
            }
            // Booleans never anchor a literal.
            SqlExpr::Cmp { .. }
            | SqlExpr::Between { .. }
            | SqlExpr::And(_)
            | SqlExpr::Or(_)
            | SqlExpr::Not(_) => None,
        })
    }

    /// Lower a scalar/boolean expression to the engine [`Expr`], recording
    /// which table each column came from in `used`. `anchor` coerces
    /// literal leaves when the subtree contains no column of its own.
    fn lower(
        &self,
        e: &SqlExpr,
        scope: &Scope,
        anchor: Option<DataType>,
        used: &mut Vec<usize>,
    ) -> SqlResult<Expr> {
        Ok(match e {
            SqlExpr::Col {
                table,
                name,
                offset,
            } => {
                let (t, ord, _) = scope.resolve(table, name, *offset)?;
                if !used.contains(&t) {
                    used.push(t);
                }
                Expr::Col(ord)
            }
            SqlExpr::Lit { value, offset } => {
                Expr::Lit(self.literal(value.clone(), *offset, anchor)?)
            }
            SqlExpr::Param { index, offset } => {
                let v = self.param(*index, *offset)?;
                Expr::Lit(self.literal(v, *offset, anchor)?)
            }
            SqlExpr::Cmp { op, lhs, rhs } => {
                let dl = self.infer(lhs, scope)?;
                let dr = self.infer(rhs, scope)?;
                let l = self.lower(lhs, scope, if dl.is_none() { dr } else { None }, used)?;
                let r = self.lower(rhs, scope, if dr.is_none() { dl } else { None }, used)?;
                Expr::Cmp {
                    op: *op,
                    lhs: Box::new(l),
                    rhs: Box::new(r),
                }
            }
            SqlExpr::Arith { op, lhs, rhs } => {
                let dl = self.infer(lhs, scope)?;
                let dr = self.infer(rhs, scope)?;
                let l = self.lower(
                    lhs,
                    scope,
                    if dl.is_none() { dr.or(anchor) } else { None },
                    used,
                )?;
                let r = self.lower(
                    rhs,
                    scope,
                    if dr.is_none() { dl.or(anchor) } else { None },
                    used,
                )?;
                Expr::Arith {
                    op: *op,
                    lhs: Box::new(l),
                    rhs: Box::new(r),
                }
            }
            SqlExpr::Between { expr, lo, hi } => {
                let d = self.infer(expr, scope)?;
                let e0 = self.lower(expr, scope, None, used)?;
                let lo = self.lower(lo, scope, d, used)?;
                let hi = self.lower(hi, scope, d, used)?;
                // Same shape as `Expr::between`: And[e >= lo, e <= hi].
                Expr::And(vec![
                    Expr::Cmp {
                        op: hpd_common::CmpOp::Ge,
                        lhs: Box::new(e0.clone()),
                        rhs: Box::new(lo),
                    },
                    Expr::Cmp {
                        op: hpd_common::CmpOp::Le,
                        lhs: Box::new(e0),
                        rhs: Box::new(hi),
                    },
                ])
            }
            SqlExpr::And(parts) => Expr::And(
                parts
                    .iter()
                    .map(|p| self.lower(p, scope, None, used))
                    .collect::<SqlResult<_>>()?,
            ),
            SqlExpr::Or(parts) => Expr::Or(
                parts
                    .iter()
                    .map(|p| self.lower(p, scope, None, used))
                    .collect::<SqlResult<_>>()?,
            ),
            SqlExpr::Not(inner) => Expr::Not(Box::new(self.lower(inner, scope, None, used)?)),
        })
    }

    fn bind(&self, stmt: &SqlStatement) -> SqlResult<Bound> {
        match stmt {
            SqlStatement::Select(q) => self.bind_select(q).map(Statement::Select).map(Bound::Stmt),
            SqlStatement::Insert {
                table,
                table_offset,
                rows,
            } => self.bind_insert(table, *table_offset, rows),
            SqlStatement::Update {
                table,
                table_offset,
                top,
                set,
                where_,
            } => self.bind_update(table, *table_offset, *top, set, where_),
            SqlStatement::Delete {
                table,
                table_offset,
                top,
                where_,
            } => self.bind_delete(table, *table_offset, *top, where_),
            SqlStatement::Begin { isolation } => Ok(Bound::Begin(*isolation)),
            SqlStatement::Commit => Ok(Bound::Commit),
            SqlStatement::Rollback => Ok(Bound::Rollback),
            SqlStatement::SetIsolation(l) => Ok(Bound::SetIsolation(*l)),
            SqlStatement::CreateTable {
                name,
                columns,
                columnstore,
                partition_by,
            } => {
                let defs: Vec<ColumnDef> = columns
                    .iter()
                    .map(|c| ColumnDef::new(c.name.clone(), c.dtype))
                    .collect();
                let mut pk: Vec<usize> = columns
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.primary_key)
                    .map(|(i, _)| i)
                    .collect();
                if pk.is_empty() {
                    pk = vec![0];
                }
                let primary = if *columnstore {
                    IndexDescriptor::PrimaryCsi
                } else {
                    IndexDescriptor::PrimaryBTree { keys: pk.clone() }
                };
                let schema = Schema::new(defs);
                let spec = partition_by
                    .as_ref()
                    .map(|p| self.bind_partition_by(p, &schema))
                    .transpose()?;
                Ok(Bound::CreateTable {
                    name: name.clone(),
                    schema,
                    pk,
                    primary,
                    spec,
                })
            }
            SqlStatement::CreateIndex {
                table,
                table_offset,
                columnstore,
                keys,
                includes,
            } => {
                let schema = self.schema_of(table, *table_offset)?;
                let resolve = |cols: &[(String, usize)]| -> SqlResult<Vec<usize>> {
                    cols.iter()
                        .map(|(name, offset)| {
                            schema.index_of(name).map_err(|_| {
                                SqlError::new(
                                    SqlErrorKind::UnknownColumn,
                                    *offset,
                                    format!("unknown column '{name}'"),
                                )
                            })
                        })
                        .collect()
                };
                let keys_r = resolve(keys)?;
                let includes_r = resolve(includes)?;
                let descriptor = if *columnstore {
                    if !includes.is_empty() {
                        return Err(SqlError::new(
                            SqlErrorKind::InvalidQuery,
                            includes[0].1,
                            "columnstore indexes do not take INCLUDE columns",
                        ));
                    }
                    IndexDescriptor::SecondaryCsi { columns: keys_r }
                } else {
                    IndexDescriptor::SecondaryBTree {
                        keys: keys_r,
                        includes: includes_r,
                    }
                };
                Ok(Bound::CreateIndex {
                    table: table.clone(),
                    descriptor,
                })
            }
            SqlStatement::DropIndex {
                table,
                table_offset,
                ordinal,
            } => {
                // Table existence is checked here; the ordinal is validated
                // at execution against the live meta list.
                self.schema_of(table, *table_offset)?;
                Ok(Bound::DropIndex {
                    table: table.clone(),
                    ordinal: *ordinal,
                })
            }
        }
    }

    fn bind_insert(
        &self,
        table: &str,
        table_offset: usize,
        rows: &[Vec<SqlExpr>],
    ) -> SqlResult<Bound> {
        let schema = self.schema_of(table, table_offset)?;
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            if row.len() != schema.len() {
                return Err(SqlError::new(
                    SqlErrorKind::InvalidQuery,
                    row.first().map_or(table_offset, SqlExpr::offset),
                    format!(
                        "VALUES row has {} values, table '{table}' has {} columns",
                        row.len(),
                        schema.len()
                    ),
                ));
            }
            let mut values = Vec::with_capacity(row.len());
            for (i, e) in row.iter().enumerate() {
                let anchor = Some(schema.column(i).dtype);
                let v = match e {
                    SqlExpr::Lit { value, offset } => {
                        self.literal(value.clone(), *offset, anchor)?
                    }
                    SqlExpr::Param { index, offset } => {
                        self.literal(self.param(*index, *offset)?, *offset, anchor)?
                    }
                    other => {
                        return Err(SqlError::new(
                            SqlErrorKind::InvalidQuery,
                            other.offset(),
                            "INSERT values must be literals or parameters",
                        ));
                    }
                };
                values.push(v);
            }
            out.push(Row::new(values));
        }
        Ok(Bound::Stmt(Statement::Insert(InsertStmt {
            table: table.to_string(),
            rows: out,
        })))
    }

    /// Lower an optional WHERE on a single-table DML statement. A missing
    /// WHERE becomes the empty conjunction (`And([])` — always true),
    /// because the engine's write statements take a mandatory predicate.
    fn dml_predicate(
        &self,
        table: &str,
        table_offset: usize,
        where_: &Option<SqlExpr>,
    ) -> SqlResult<Expr> {
        let scope = Scope {
            tables: vec![(table.to_string(), self.schema_of(table, table_offset)?)],
        };
        match where_ {
            None => Ok(Expr::And(vec![])),
            Some(e) => self.lower(e, &scope, None, &mut Vec::new()),
        }
    }

    fn bind_update(
        &self,
        table: &str,
        table_offset: usize,
        top: Option<usize>,
        set: &[(String, usize, SqlExpr)],
        where_: &Option<SqlExpr>,
    ) -> SqlResult<Bound> {
        let schema = self.schema_of(table, table_offset)?;
        let scope = Scope {
            tables: vec![(table.to_string(), schema.clone())],
        };
        let mut lowered = Vec::with_capacity(set.len());
        for (col, offset, e) in set {
            let ord = schema.index_of(col).map_err(|_| {
                SqlError::new(
                    SqlErrorKind::UnknownColumn,
                    *offset,
                    format!("unknown column '{col}'"),
                )
            })?;
            let anchor = Some(schema.column(ord).dtype);
            lowered.push((ord, self.lower(e, &scope, anchor, &mut Vec::new())?));
        }
        Ok(Bound::Stmt(Statement::Update(UpdateStmt {
            table: table.to_string(),
            predicate: self.dml_predicate(table, table_offset, where_)?,
            top,
            set: lowered,
        })))
    }

    fn bind_delete(
        &self,
        table: &str,
        table_offset: usize,
        top: Option<usize>,
        where_: &Option<SqlExpr>,
    ) -> SqlResult<Bound> {
        Ok(Bound::Stmt(Statement::Delete(DeleteStmt {
            table: table.to_string(),
            predicate: self.dml_predicate(table, table_offset, where_)?,
            top,
        })))
    }

    fn bind_select(&self, q: &SqlSelect) -> SqlResult<SelectQuery> {
        let mut scope = Scope { tables: Vec::new() };
        for (name, offset) in &q.tables {
            scope
                .tables
                .push((name.clone(), self.schema_of(name, *offset)?));
        }

        // Select list: expand * and split into plain columns / aggregates.
        let mut plain: Vec<(ColRef, String)> = Vec::new();
        let mut aggs: Vec<(AggItem, String)> = Vec::new();
        let mut agg_seen = false;
        for item in &q.items {
            match item {
                SelectItem::Star => {
                    for (t, (_, schema)) in scope.tables.iter().enumerate() {
                        for (ord, col) in schema.columns().iter().enumerate() {
                            plain.push((ColRef::new(t, ord), col.name.clone()));
                        }
                    }
                    if agg_seen {
                        return Err(SqlError::new(
                            SqlErrorKind::InvalidQuery,
                            0,
                            "'*' cannot follow an aggregate in the select list",
                        ));
                    }
                }
                SelectItem::Col(e) => {
                    let SqlExpr::Col {
                        table,
                        name,
                        offset,
                    } = e
                    else {
                        unreachable!("parser only produces Col items");
                    };
                    if agg_seen {
                        return Err(SqlError::new(
                            SqlErrorKind::InvalidQuery,
                            *offset,
                            "grouping columns must come before aggregates in the select list",
                        ));
                    }
                    let (t, ord, _) = scope.resolve(table, name, *offset)?;
                    plain.push((ColRef::new(t, ord), name.clone()));
                }
                SelectItem::Agg { func, arg, offset } => {
                    agg_seen = true;
                    let item = match arg {
                        // COUNT(*): count over the first table's first
                        // column (row count).
                        None => AggItem::column(*func, ColRef::new(0, 0)),
                        Some(e) => {
                            let mut used = Vec::new();
                            let expr = self.lower(e, &scope, None, &mut used)?;
                            let table = match used.as_slice() {
                                [] => 0,
                                [t] => *t,
                                _ => {
                                    return Err(SqlError::new(
                                        SqlErrorKind::InvalidQuery,
                                        *offset,
                                        "aggregate arguments must reference a single table",
                                    ));
                                }
                            };
                            AggItem::new(*func, table, expr)
                        }
                    };
                    let name = match arg {
                        None => format!("{}(*)", func.name()),
                        Some(SqlExpr::Col { name, .. }) => format!("{}({})", func.name(), name),
                        Some(_) => format!("{}(...)", func.name()),
                    };
                    aggs.push((item, name));
                }
            }
        }

        // GROUP BY must mirror the plain select columns exactly.
        let mut group_by = Vec::new();
        for g in &q.group_by {
            let SqlExpr::Col {
                table,
                name,
                offset,
            } = g
            else {
                unreachable!("parser only produces Col group keys");
            };
            let (t, ord, _) = scope.resolve(table, name, *offset)?;
            group_by.push(ColRef::new(t, ord));
        }
        if !aggs.is_empty() {
            let plain_refs: Vec<ColRef> = plain.iter().map(|(c, _)| *c).collect();
            if plain_refs != group_by {
                let offset = q.group_by.first().map_or(0, SqlExpr::offset);
                return Err(SqlError::new(
                    SqlErrorKind::InvalidQuery,
                    offset,
                    "non-aggregate select columns must match GROUP BY, in order",
                ));
            }
        } else if !group_by.is_empty() {
            return Err(SqlError::new(
                SqlErrorKind::InvalidQuery,
                q.group_by.first().map_or(0, SqlExpr::offset),
                "GROUP BY requires at least one aggregate in the select list",
            ));
        }

        // WHERE + ON: split the top-level conjunction into per-table
        // predicates and cross-table equi-join edges.
        let mut conjuncts: Vec<&SqlExpr> = Vec::new();
        fn collect<'e>(e: &'e SqlExpr, out: &mut Vec<&'e SqlExpr>) {
            match e {
                SqlExpr::And(parts) => {
                    for p in parts {
                        collect(p, out);
                    }
                }
                other => out.push(other),
            }
        }
        for e in &q.on {
            collect(e, &mut conjuncts);
        }
        if let Some(e) = &q.where_ {
            collect(e, &mut conjuncts);
        }

        let mut per_table: Vec<Vec<Expr>> = vec![Vec::new(); scope.tables.len()];
        let mut joins: Vec<EquiJoin> = Vec::new();
        for c in conjuncts {
            // Equi-join shape: col = col across two different tables.
            if let SqlExpr::Cmp {
                op: hpd_common::CmpOp::Eq,
                lhs,
                rhs,
            } = c
            {
                if let (
                    SqlExpr::Col {
                        table: lt,
                        name: ln,
                        offset: lo,
                    },
                    SqlExpr::Col {
                        table: rt,
                        name: rn,
                        offset: ro,
                    },
                ) = (lhs.as_ref(), rhs.as_ref())
                {
                    let (t1, o1, _) = scope.resolve(lt, ln, *lo)?;
                    let (t2, o2, _) = scope.resolve(rt, rn, *ro)?;
                    if t1 != t2 {
                        let (l, r) = if t1 < t2 {
                            (ColRef::new(t1, o1), ColRef::new(t2, o2))
                        } else {
                            (ColRef::new(t2, o2), ColRef::new(t1, o1))
                        };
                        joins.push(EquiJoin { left: l, right: r });
                        continue;
                    }
                }
            }
            let mut used = Vec::new();
            let lowered = self.lower(c, &scope, None, &mut used)?;
            match used.as_slice() {
                // A predicate with no columns still has to hold somewhere;
                // pin it to the first table.
                [] => per_table[0].push(lowered),
                [t] => per_table[*t].push(lowered),
                _ => {
                    return Err(SqlError::new(
                        SqlErrorKind::InvalidQuery,
                        c.offset(),
                        "cross-table predicates must be equi-joins (t1.a = t2.b)",
                    ));
                }
            }
        }

        let tables: Vec<TableInput> = scope
            .tables
            .iter()
            .zip(per_table)
            .map(|((name, _), mut preds)| TableInput {
                name: name.clone(),
                predicate: match preds.len() {
                    0 => None,
                    1 => Some(preds.pop().unwrap()),
                    _ => Some(Expr::And(preds)),
                },
            })
            .collect();

        // Output column names, for ORDER BY resolution (and the session's
        // result header).
        let out_names: Vec<&str> = if aggs.is_empty() {
            plain.iter().map(|(_, n)| n.as_str()).collect()
        } else {
            plain
                .iter()
                .map(|(_, n)| n.as_str())
                .chain(aggs.iter().map(|(_, n)| n.as_str()))
                .collect()
        };
        let arity = out_names.len();
        let mut order_by = Vec::new();
        for (key, asc) in &q.order_by {
            let pos = match key {
                OrderKey::Position { pos, offset } => {
                    if *pos == 0 || *pos > arity {
                        return Err(SqlError::new(
                            SqlErrorKind::InvalidQuery,
                            *offset,
                            format!("ORDER BY position {pos} is out of range 1..={arity}"),
                        ));
                    }
                    *pos - 1
                }
                OrderKey::Name { name, offset } => {
                    let hits: Vec<usize> = out_names
                        .iter()
                        .enumerate()
                        .filter(|(_, n)| **n == name.as_str())
                        .map(|(i, _)| i)
                        .collect();
                    match hits.as_slice() {
                        [i] => *i,
                        [] => {
                            return Err(SqlError::new(
                                SqlErrorKind::UnknownColumn,
                                *offset,
                                format!("ORDER BY column '{name}' is not in the select list"),
                            ));
                        }
                        _ => {
                            return Err(SqlError::new(
                                SqlErrorKind::AmbiguousColumn,
                                *offset,
                                format!("ORDER BY column '{name}' matches several outputs"),
                            ));
                        }
                    }
                }
            };
            order_by.push((pos, *asc));
        }

        Ok(SelectQuery {
            tables,
            joins,
            group_by,
            aggregates: aggs.into_iter().map(|(a, _)| a).collect(),
            select: plain.into_iter().map(|(c, _)| c).collect(),
            order_by,
            limit: q.limit,
        })
    }
}

/// Output column names for a bound select, mirroring
/// `Binder::bind_select`'s naming. Used by the session layer for result
/// headers.
pub fn output_names(db: &Database, q: &SqlSelect) -> Vec<String> {
    let mut names = Vec::new();
    let mut agg_names = Vec::new();
    for item in &q.items {
        match item {
            SelectItem::Star => {
                for (name, _) in &q.tables {
                    if let Ok(cols) = db.with_table(name, |t| {
                        t.schema()
                            .columns()
                            .iter()
                            .map(|c| c.name.clone())
                            .collect::<Vec<_>>()
                    }) {
                        names.extend(cols);
                    }
                }
            }
            SelectItem::Col(SqlExpr::Col { name, .. }) => names.push(name.clone()),
            SelectItem::Col(_) => {}
            SelectItem::Agg { func, arg, .. } => {
                let n = match arg {
                    None => format!("{}(*)", func.name()),
                    Some(SqlExpr::Col { name, .. }) => format!("{}({})", func.name(), name),
                    Some(_) => format!("{}(...)", func.name()),
                };
                agg_names.push(n);
            }
        }
    }
    names.extend(agg_names);
    names
}

/// Numeric promotion for arithmetic, matching the engine's evaluator:
/// `Int32 + Int32` widens to `Int64`, any `Float64` operand wins, then
/// `Decimal`, else `Int64`.
fn promote(a: DataType, b: DataType) -> DataType {
    use DataType::*;
    if a == Float64 || b == Float64 {
        Float64
    } else if a == Decimal || b == Decimal {
        Decimal
    } else {
        Int64
    }
}
