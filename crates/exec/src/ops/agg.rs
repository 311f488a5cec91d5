//! Aggregation: hash aggregate (with grace-style spilling under memory
//! pressure) and streaming aggregate (requires sorted input, constant
//! memory).
//!
//! The contrast between these two under a constrained memory grant is the
//! paper's Figure 4: the columnstore pipeline must hash-aggregate and falls
//! off a cliff once the table exceeds the grant, while the B+ tree's sort
//! order admits a streaming aggregate that never spills.

use std::cmp::Ordering;
use std::collections::HashMap;

use hpd_common::{AggFunc, Batch, ColumnVector, DataType, HpdError, Key, Result, Row, Value};

use crate::ctx::ExecCtx;
use crate::ops::hash::{Keys, Spilled, Table};
use crate::ops::{Operator, PlanNode};

/// One aggregate computation: `func(child_column)`.
#[derive(Debug, Clone, Copy)]
pub struct AggSpec {
    pub func: AggFunc,
    /// Child column ordinal (ignored for `Count`).
    pub input: usize,
}

impl AggSpec {
    pub fn new(func: AggFunc, input: usize) -> AggSpec {
        AggSpec { func, input }
    }
}

/// Running state of one aggregate for one group. Integer and decimal sums
/// accumulate in `i128` and are range-checked once, at the end, as the
/// pushed-down fold's are (`hpd_columnstore`'s `AggAcc`): only a *total*
/// outside `i64` is an overflow, whatever the order the rows arrive in.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    SumI(i128),
    SumD(i128),
    SumF(f64),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, count: i64 },
}

impl AggState {
    fn new(func: AggFunc, input_type: DataType) -> Result<AggState> {
        Ok(match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggFunc::Sum => match input_type {
                DataType::Int32 | DataType::Int64 | DataType::Date => AggState::SumI(0),
                DataType::Decimal => AggState::SumD(0),
                DataType::Float64 => AggState::SumF(0.0),
                DataType::Utf8 => {
                    return Err(HpdError::InvalidQuery("SUM over a string column".into()))
                }
            },
        })
    }

    fn update(&mut self, v: &Value) -> Result<()> {
        match self {
            AggState::Count(c) => *c += 1,
            AggState::SumI(s) => {
                *s += i128::from(v.as_i64().ok_or(HpdError::TypeMismatch {
                    expected: "integer",
                    found: v.data_type().name().to_string(),
                })?);
            }
            AggState::SumD(s) => {
                let Value::Decimal(d) = v else {
                    return Err(HpdError::TypeMismatch {
                        expected: "decimal",
                        found: v.data_type().name().to_string(),
                    });
                };
                *s += i128::from(*d);
            }
            AggState::SumF(s) => {
                *s += v.as_f64().ok_or(HpdError::TypeMismatch {
                    expected: "numeric",
                    found: v.data_type().name().to_string(),
                })?;
            }
            AggState::Min(m) => {
                if m.as_ref().is_none_or(|cur| v < cur) {
                    *m = Some(v.clone());
                }
            }
            AggState::Max(m) => {
                if m.as_ref().is_none_or(|cur| v > cur) {
                    *m = Some(v.clone());
                }
            }
            AggState::Avg { sum, count } => {
                *sum += v.as_f64().ok_or(HpdError::TypeMismatch {
                    expected: "numeric",
                    found: v.data_type().name().to_string(),
                })?;
                *count += 1;
            }
        }
        Ok(())
    }

    /// Final value. Empty MIN/MAX (global aggregate over no rows) yields a
    /// zero value of the declared type; this engine has no NULLs.
    fn finish(self, out_type: DataType) -> Result<Value> {
        let in_range =
            |s: i128| i64::try_from(s).map_err(|_| HpdError::Internal("SUM overflow".into()));
        Ok(match self {
            AggState::Count(c) => Value::Int64(c),
            AggState::SumI(s) => Value::Int64(in_range(s)?),
            AggState::SumD(s) => Value::Decimal(in_range(s)?),
            AggState::SumF(s) => Value::Float64(s),
            AggState::Min(v) | AggState::Max(v) => {
                v.unwrap_or_else(|| AggFunc::empty_value(out_type))
            }
            AggState::Avg { sum, count } => {
                Value::Float64(if count == 0 { 0.0 } else { sum / count as f64 })
            }
        })
    }
}

/// Bytes charged per resident group (key payload + state overhead).
const GROUP_OVERHEAD: usize = 48;

/// The state of one aggregate for every group of a [`Groups`], a typed
/// vector indexed by group id. Integer and decimal sums are `i128`s
/// range-checked at the end, as [`AggState`]'s are.
#[derive(Debug)]
enum Acc {
    Count(Vec<i64>),
    SumInt(Vec<i128>),
    SumFloat(Vec<f64>),
    Avg {
        sums: Vec<f64>,
        counts: Vec<i64>,
    },
    /// MIN (`want` = `Less`) or MAX (`Greater`): the best value so far, in
    /// the input's own type. A group's first row fills it, so there is no
    /// empty state.
    Extreme {
        best: ColumnVector,
        want: Ordering,
    },
}

fn wrong_input(expected: &'static str, col: &ColumnVector) -> HpdError {
    HpdError::TypeMismatch {
        expected,
        found: col.data_type().name().to_string(),
    }
}

impl Acc {
    fn new(func: AggFunc, input_type: DataType) -> Result<Acc> {
        Ok(match func {
            AggFunc::Count => Acc::Count(Vec::new()),
            AggFunc::Avg => Acc::Avg {
                sums: Vec::new(),
                counts: Vec::new(),
            },
            AggFunc::Min | AggFunc::Max => Acc::Extreme {
                best: ColumnVector::with_capacity(input_type, 0),
                want: if func == AggFunc::Min {
                    Ordering::Less
                } else {
                    Ordering::Greater
                },
            },
            AggFunc::Sum => match input_type {
                DataType::Int32 | DataType::Int64 | DataType::Date | DataType::Decimal => {
                    Acc::SumInt(Vec::new())
                }
                DataType::Float64 => Acc::SumFloat(Vec::new()),
                DataType::Utf8 => {
                    return Err(HpdError::InvalidQuery("SUM over a string column".into()))
                }
            },
        })
    }

    /// Fold `col` into the groups `gids` names, row by row. The groups from
    /// `groups - first_rows.len()` on are new, first seen at rows
    /// `first_rows` of `col`.
    fn fold(
        &mut self,
        col: &ColumnVector,
        gids: &[u32],
        first_rows: &[usize],
        groups: usize,
    ) -> Result<()> {
        fn each<T: Copy>(vals: &[T], gids: &[u32], mut f: impl FnMut(usize, T)) {
            vals.iter().zip(gids).for_each(|(&v, &g)| f(g as usize, v));
        }
        fn extreme<T: Clone>(
            best: &mut Vec<T>,
            vals: &[T],
            gids: &[u32],
            first_rows: &[usize],
            better: impl Fn(&T, &T) -> bool,
        ) {
            best.extend(first_rows.iter().map(|&r| vals[r].clone()));
            for (v, &g) in vals.iter().zip(gids) {
                if better(v, &best[g as usize]) {
                    best[g as usize] = v.clone();
                }
            }
        }
        debug_assert_eq!(col.len(), gids.len());
        match self {
            Acc::Count(counts) => {
                counts.resize(groups, 0);
                gids.iter().for_each(|&g| counts[g as usize] += 1);
            }
            Acc::SumInt(totals) => {
                totals.resize(groups, 0);
                match col {
                    ColumnVector::Int32(v) | ColumnVector::Date(v) => {
                        each(v, gids, |g, x| totals[g] += i128::from(x))
                    }
                    ColumnVector::Int64(v) | ColumnVector::Decimal(v) => {
                        each(v, gids, |g, x| totals[g] += i128::from(x))
                    }
                    other => return Err(wrong_input("integer", other)),
                }
            }
            Acc::SumFloat(sums) => {
                sums.resize(groups, 0.0);
                match col {
                    ColumnVector::Float64(v) => each(v, gids, |g, x| sums[g] += x),
                    other => return Err(wrong_input("numeric", other)),
                }
            }
            Acc::Avg { sums, counts } => {
                sums.resize(groups, 0.0);
                counts.resize(groups, 0);
                gids.iter().for_each(|&g| counts[g as usize] += 1);
                // `Value::as_f64`, a column at a time.
                match col {
                    ColumnVector::Int32(v) | ColumnVector::Date(v) => {
                        each(v, gids, |g, x| sums[g] += f64::from(x))
                    }
                    ColumnVector::Int64(v) => each(v, gids, |g, x| sums[g] += x as f64),
                    ColumnVector::Decimal(v) => {
                        each(v, gids, |g, x| sums[g] += x as f64 / 10_000.0)
                    }
                    ColumnVector::Float64(v) => each(v, gids, |g, x| sums[g] += x),
                    other => return Err(wrong_input("numeric", other)),
                }
            }
            // `Value`'s order within a type: floats by `total_cmp`.
            Acc::Extreme { best, want } => {
                let want = *want;
                match (best, col) {
                    (ColumnVector::Int32(b), ColumnVector::Int32(v))
                    | (ColumnVector::Date(b), ColumnVector::Date(v)) => {
                        extreme(b, v, gids, first_rows, |x, y| x.cmp(y) == want)
                    }
                    (ColumnVector::Int64(b), ColumnVector::Int64(v))
                    | (ColumnVector::Decimal(b), ColumnVector::Decimal(v)) => {
                        extreme(b, v, gids, first_rows, |x, y| x.cmp(y) == want)
                    }
                    (ColumnVector::Float64(b), ColumnVector::Float64(v)) => {
                        extreme(b, v, gids, first_rows, |x, y| x.total_cmp(y) == want)
                    }
                    (ColumnVector::Str(b), ColumnVector::Str(v)) => {
                        extreme(b, v, gids, first_rows, |x, y| x.cmp(y) == want)
                    }
                    (best, other) => return Err(wrong_input(best.data_type().name(), other)),
                }
            }
        }
        Ok(())
    }

    /// The aggregate's output column, one value a group.
    fn finish(self, out_type: DataType) -> Result<ColumnVector> {
        Ok(match self {
            Acc::Count(counts) => ColumnVector::Int64(counts),
            Acc::SumInt(totals) => {
                let totals = totals
                    .into_iter()
                    .map(|s| {
                        i64::try_from(s).map_err(|_| HpdError::Internal("SUM overflow".into()))
                    })
                    .collect::<Result<Vec<i64>>>()?;
                match out_type {
                    DataType::Decimal => ColumnVector::Decimal(totals),
                    _ => ColumnVector::Int64(totals),
                }
            }
            Acc::SumFloat(sums) => ColumnVector::Float64(sums),
            Acc::Avg { sums, counts } => ColumnVector::Float64(
                sums.iter()
                    .zip(&counts)
                    .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
                    .collect(),
            ),
            Acc::Extreme { best, .. } => best,
        })
    }
}

/// How a [`Groups`] takes a group it has not seen: the first pass stops
/// admitting at the first refusal (every later unseen group spills), a
/// spilled partition asks the grant for each, and a partition that
/// overflowed twice is finished in memory unmetered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    UntilRefused { refused: bool },
    EachAsked,
    Unmetered,
}

/// The groups of one aggregation pass, in the order they were first seen:
/// a [`Table`] from key to group id, the group-by values of each group (the
/// leading output columns) with their normalised [`Keys`], and one [`Acc`]
/// per aggregate.
struct Groups {
    table: Table,
    keys: Keys,
    key_cols: Vec<ColumnVector>,
    /// `0..key_cols.len()`: where `key_cols` keeps the key.
    key_ords: Vec<usize>,
    accs: Vec<Acc>,
    admission: Admission,
    reserved: usize,
}

/// Hash aggregate in batch mode, with spilling.
///
/// A batch's group-by columns are normalised and hashed a column at a time
/// ([`Keys`]); each row is mapped to a dense group id — a new one in
/// first-seen order, which is also the emit order — and every aggregate
/// then folds its input column into a typed state vector in one loop over
/// the ids ([`Acc`]).
///
/// While the grant allows, groups accumulate in memory, charged their key's
/// `byte_width` and [`GROUP_OVERHEAD`] an aggregate. Once a new group
/// cannot be admitted, rows of unseen groups are hash-partitioned to spill
/// files (existing groups keep updating in memory) and retained as columns;
/// at end-of-input the resident groups are emitted and each spilled
/// partition is recursively aggregated after reading it back — charging the
/// write+read I/O that makes disk-based aggregation slow.
pub struct HashAggOp<'a> {
    child: PlanNode<'a>,
    group_by: Vec<usize>,
    aggs: Vec<AggSpec>,
    out_types: Vec<DataType>,
    child_types: Vec<DataType>,
    output: Option<std::vec::IntoIter<Batch>>,
}

impl<'a> HashAggOp<'a> {
    pub fn new(child: PlanNode<'a>, group_by: Vec<usize>, aggs: Vec<AggSpec>) -> HashAggOp<'a> {
        let child_types = child.out_types();
        let mut out_types: Vec<DataType> = group_by.iter().map(|&g| child_types[g]).collect();
        out_types.extend(
            aggs.iter()
                .map(|a| a.func.result_type(child_types[a.input])),
        );
        HashAggOp {
            child,
            group_by,
            aggs,
            out_types,
            child_types,
            output: None,
        }
    }

    fn groups(&self, admission: Admission) -> Result<Groups> {
        let key_cols: Vec<ColumnVector> = self
            .group_by
            .iter()
            .map(|&g| ColumnVector::with_capacity(self.child_types[g], 0))
            .collect();
        let key_ords: Vec<usize> = (0..key_cols.len()).collect();
        Ok(Groups {
            table: Table::with_capacity(0),
            keys: Keys::of(&key_cols, &key_ords, 0),
            key_cols,
            key_ords,
            accs: self
                .aggs
                .iter()
                .map(|a| Acc::new(a.func, self.child_types[a.input]))
                .collect::<Result<_>>()?,
            admission,
            reserved: 0,
        })
    }

    /// Fold `batch` into `groups`. Returns the rows whose group is new and
    /// was not admitted, in row order.
    fn consume(&self, groups: &mut Groups, batch: &Batch, ctx: &ExecCtx<'_>) -> Result<Vec<usize>> {
        let rows = batch.num_rows();
        let cols = batch.columns();
        let keys = Keys::of(cols, &self.group_by, rows);
        let key_fixed: usize = self
            .group_by
            .iter()
            .filter(|&&g| self.child_types[g] != DataType::Utf8)
            .map(|&g| self.child_types[g].fixed_width())
            .sum();
        let mut gids: Vec<u32> = Vec::with_capacity(rows);
        let (mut first_rows, mut refused) = (Vec::new(), Vec::new());
        let mut i = 0;
        while i < rows {
            // Rows of groups already there, up to the first of a new one.
            let same = keys.same(
                (cols, &self.group_by),
                &groups.keys,
                (&groups.key_cols, &groups.key_ords),
            );
            while i < rows {
                let slot = groups
                    .table
                    .slot(keys.hashes[i], |g| same.rows(i, g as usize));
                let Some(g) = groups.table.id(slot) else {
                    break;
                };
                gids.push(g);
                i += 1;
            }
            if i == rows {
                break;
            }
            // `Key::byte_width` of the new group's key.
            let key_bytes = self
                .group_by
                .iter()
                .fold(key_fixed, |w, &g| match &cols[g] {
                    ColumnVector::Str(v) => w + 2 + v[i].len(),
                    _ => w,
                });
            let bytes = key_bytes + GROUP_OVERHEAD * self.aggs.len().max(1);
            let admitted = match &mut groups.admission {
                Admission::Unmetered => true,
                Admission::UntilRefused { refused: true } => false,
                Admission::UntilRefused { refused } => {
                    *refused = !ctx.grant.try_reserve(bytes);
                    !*refused
                }
                Admission::EachAsked => ctx.grant.try_reserve(bytes),
            };
            if admitted {
                if groups.admission != Admission::Unmetered {
                    groups.reserved += bytes;
                }
                let g = u32::try_from(groups.keys.len())
                    .ok()
                    .filter(|&g| g != u32::MAX)
                    .ok_or_else(|| HpdError::Internal("too many groups".into()))?;
                groups.table.reserve_one();
                let slot = groups.table.slot(keys.hashes[i], |_| false);
                groups.table.set(slot, keys.hashes[i], g);
                groups.keys.push_row(&keys, i);
                for (key_col, &o) in groups.key_cols.iter_mut().zip(&self.group_by) {
                    key_col.push(&cols[o].value(i))?;
                }
                first_rows.push(gids.len());
                gids.push(g);
            } else {
                refused.push(i);
            }
            i += 1;
        }
        // `gids` is about the rows that were not refused: fold those.
        let kept: Option<Vec<usize>> = (!refused.is_empty()).then(|| {
            let mut refused = refused.iter().peekable();
            (0..rows)
                .filter(|i| refused.next_if_eq(&i).is_none())
                .collect()
        });
        let count = groups.keys.len();
        for (acc, spec) in groups.accs.iter_mut().zip(&self.aggs) {
            let col = &cols[spec.input];
            match &kept {
                None => acc.fold(col, &gids, &first_rows, count)?,
                Some(kept) => acc.fold(&col.take(kept), &gids, &first_rows, count)?,
            }
        }
        Ok(refused)
    }

    /// Emit `groups` (one batch, nothing for no groups) and give their
    /// memory back.
    fn emit(&self, groups: Groups, out: &mut Vec<Batch>, ctx: &ExecCtx<'_>) -> Result<()> {
        let Groups {
            keys,
            mut key_cols,
            accs,
            reserved,
            ..
        } = groups;
        ctx.grant.release(reserved);
        if keys.len() > 0 {
            for (acc, &t) in accs.into_iter().zip(&self.out_types[self.group_by.len()..]) {
                key_cols.push(acc.finish(t)?);
            }
            out.push(Batch::new(key_cols));
        }
        Ok(())
    }

    fn run(&mut self, ctx: &ExecCtx<'_>) -> Result<Vec<Batch>> {
        let mut groups = self.groups(Admission::UntilRefused { refused: false })?;
        let mut spilled: Option<Spilled> = None;
        while let Some(batch) = self.child.next(ctx)? {
            let refused = self.consume(&mut groups, &batch, ctx)?;
            if !refused.is_empty() {
                // Out of grant: spill the rows of unseen groups.
                spilled
                    .get_or_insert_with(|| Spilled::new(&self.child_types))
                    .spill(&batch, &self.group_by, refused.into_iter(), |_| true, ctx)?;
            }
        }

        let mut out = Vec::new();
        self.emit(groups, &mut out, ctx)?;

        // Process spilled partitions, one at a time, after the table memory
        // is released.
        if let Some(spilled) = spilled {
            for part in spilled.partitions.iter().filter(|p| !p.rows.is_empty()) {
                part.read_back(ctx);
                self.aggregate_partition(spilled.rows.take(&part.rows), &mut out, ctx, 0)?;
            }
        }

        if out.is_empty() && self.group_by.is_empty() {
            // Global aggregate over an empty input: one row of identities.
            let row = self.out_types.iter().map(|&t| AggFunc::empty_value(t));
            out.push(Batch::from_rows(
                &self.out_types,
                &[Row::new(row.collect())],
            )?);
        }
        Ok(out)
    }

    /// Aggregate one spilled partition in memory; if it *still* exceeds the
    /// grant, recurse one level by re-partitioning, then give up and finish
    /// in memory (charging no further honesty than the two passes — matches
    /// a bounded-recursion grace hash).
    fn aggregate_partition(
        &self,
        rows: Batch,
        out: &mut Vec<Batch>,
        ctx: &ExecCtx<'_>,
        depth: usize,
    ) -> Result<()> {
        let mut groups = self.groups(if depth < 2 {
            Admission::EachAsked
        } else {
            Admission::Unmetered
        })?;
        let overflow = self.consume(&mut groups, &rows, ctx)?;
        self.emit(groups, out, ctx)?;
        if !overflow.is_empty() {
            // Re-spill the overflow once (charging another disk round trip).
            let widths = rows.row_byte_widths();
            let mut file = ctx.spill.create_file();
            let bytes: usize = overflow.iter().map(|&i| widths[i]).sum();
            file.write(bytes as u64, &ctx.tracker)?;
            file.read_all(&ctx.tracker);
            self.aggregate_partition(rows.take(&overflow), out, ctx, depth + 1)?;
        }
        Ok(())
    }
}

impl Operator for HashAggOp<'_> {
    fn out_types(&self) -> Vec<DataType> {
        self.out_types.clone()
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if self.output.is_none() {
            let batches = self.run(ctx)?;
            self.output = Some(batches.into_iter());
        }
        Ok(self.output.as_mut().expect("initialized above").next())
    }
}

/// Streaming aggregate over input sorted by the group-by columns.
/// Constant memory: only the current group's states are held.
pub struct StreamAggOp<'a> {
    child: PlanNode<'a>,
    group_by: Vec<usize>,
    aggs: Vec<AggSpec>,
    out_types: Vec<DataType>,
    child_types: Vec<DataType>,
    current: Option<(Key, Vec<AggState>)>,
    pending: Vec<Row>,
    done: bool,
    saw_input: bool,
}

impl<'a> StreamAggOp<'a> {
    pub fn new(child: PlanNode<'a>, group_by: Vec<usize>, aggs: Vec<AggSpec>) -> StreamAggOp<'a> {
        let child_types = child.out_types();
        let mut out_types: Vec<DataType> = group_by.iter().map(|&g| child_types[g]).collect();
        out_types.extend(
            aggs.iter()
                .map(|a| a.func.result_type(child_types[a.input])),
        );
        StreamAggOp {
            child,
            group_by,
            aggs,
            out_types,
            child_types,
            current: None,
            pending: Vec::new(),
            done: false,
            saw_input: false,
        }
    }

    fn close_current(&mut self) -> Result<()> {
        if let Some((key, states)) = self.current.take() {
            let mut row: Vec<Value> = Vec::with_capacity(key.len() + self.aggs.len());
            row.extend_from_slice(key.values());
            for (st, spec) in states.into_iter().zip(&self.aggs) {
                row.push(st.finish(spec.func.result_type(self.child_types[spec.input]))?);
            }
            self.pending.push(Row::new(row));
        }
        Ok(())
    }
}

impl Operator for StreamAggOp<'_> {
    fn out_types(&self) -> Vec<DataType> {
        self.out_types.clone()
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        while self.pending.is_empty() && !self.done {
            match self.child.next(ctx)? {
                None => {
                    self.done = true;
                    self.close_current()?;
                    if !self.saw_input && self.group_by.is_empty() {
                        // Global aggregate over empty input.
                        let mut row = Vec::new();
                        for spec in &self.aggs {
                            let st = AggState::new(spec.func, self.child_types[spec.input])?;
                            row.push(
                                st.finish(spec.func.result_type(self.child_types[spec.input]))?,
                            );
                        }
                        self.pending.push(Row::new(row));
                    }
                }
                Some(batch) => {
                    for i in 0..batch.num_rows() {
                        self.saw_input = true;
                        let key = Key::new(
                            self.group_by
                                .iter()
                                .map(|&g| batch.column(g).value(i))
                                .collect(),
                        );
                        let same = self.current.as_ref().is_some_and(|(cur, _)| cur == &key);
                        if !same {
                            self.close_current()?;
                            let mut states = Vec::with_capacity(self.aggs.len());
                            for spec in &self.aggs {
                                states
                                    .push(AggState::new(spec.func, self.child_types[spec.input])?);
                            }
                            self.current = Some((key, states));
                        }
                        let (_, states) = self.current.as_mut().expect("set above");
                        for (st, spec) in states.iter_mut().zip(&self.aggs) {
                            st.update(&batch.column(spec.input).value(i))?;
                        }
                    }
                }
            }
        }
        if self.pending.is_empty() {
            return Ok(None);
        }
        let rows = std::mem::take(&mut self.pending);
        Ok(Some(Batch::from_rows(&self.out_types, &rows)?))
    }
}

/// Covered-aggregate pushdown: a *leaf* operator that folds global
/// SUM/COUNT/MIN/MAX/AVG directly on a columnstore index's encoded
/// segments ([`hpd_columnstore::ColumnStoreIndex::agg_collect`]) and emits
/// one single-row batch — survivors are never materialized. The planner
/// lowers a global `Agg` over a covered `CsiScan` onto this operator; the
/// encoded fold visits rows in the same order the scan would, so results
/// (including order-sensitive f64 sums) are identical.
pub struct CsiAggOp<'a> {
    index: &'a hpd_columnstore::ColumnStoreIndex,
    aggs: Vec<hpd_columnstore::PushdownAgg>,
    intervals: HashMap<usize, hpd_common::Interval>,
    out_types: Vec<DataType>,
    done: bool,
}

impl<'a> CsiAggOp<'a> {
    /// `aggs` input ordinals index the *index's stored schema* (the caller
    /// translates table ordinals). Output column order follows `aggs`.
    pub fn new(
        index: &'a hpd_columnstore::ColumnStoreIndex,
        aggs: Vec<hpd_columnstore::PushdownAgg>,
        intervals: HashMap<usize, hpd_common::Interval>,
    ) -> CsiAggOp<'a> {
        let out_types = aggs
            .iter()
            .map(|a| a.func.result_type(index.schema().column(a.col).dtype))
            .collect();
        CsiAggOp {
            index,
            aggs,
            intervals,
            out_types,
            done: false,
        }
    }
}

impl Operator for CsiAggOp<'_> {
    fn out_types(&self) -> Vec<DataType> {
        self.out_types.clone()
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let values = self
            .index
            .agg_collect(&self.aggs, &self.intervals, ctx.pool, &ctx.tracker)
            .ok_or_else(|| {
                HpdError::Internal("aggregate pushdown on unsupported column type".into())
            })??;
        Ok(Some(Batch::from_rows(
            &self.out_types,
            &[Row::new(values)],
        )?))
    }
}
