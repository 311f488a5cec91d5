//! Aggregation: hash aggregate (with grace-style spilling under memory
//! pressure) and streaming aggregate (requires sorted input, constant
//! memory), both in batch mode and both folding into
//! [`hpd_common::agg::Acc`], the accumulator the columnstore's encoded fold
//! uses too.
//!
//! The contrast between these two under a constrained memory grant is the
//! paper's Figure 4: the columnstore pipeline must hash-aggregate and falls
//! off a cliff once the table exceeds the grant, while the B+ tree's sort
//! order admits a streaming aggregate that never spills.

use std::collections::HashMap;

use hpd_common::agg::Acc;
use hpd_common::{AggFunc, Batch, ColumnVector, DataType, HpdError, Result, Row};

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

/// Bytes charged per resident group (key payload + state overhead).
const GROUP_OVERHEAD: usize = 48;

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
        HashAggOp {
            out_types: out_types(&child_types, &group_by, &aggs),
            child,
            group_by,
            aggs,
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
            key_cols,
            accs,
            reserved,
            ..
        } = groups;
        ctx.grant.release(reserved);
        if keys.len() > 0 {
            out.push(finish(key_cols, accs, &self.out_types, keys.len())?);
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
            // Global aggregate over an empty input: one group no row reached.
            let groups = self.groups(Admission::Unmetered)?;
            out.push(finish(groups.key_cols, groups.accs, &self.out_types, 1)?);
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

/// Streaming aggregate over input sorted by the group-by columns, in batch
/// mode. A group starts wherever a row's key differs from the row before
/// it — keys normalised and compared as the hash aggregate's are
/// ([`Keys`]) — and every aggregate folds a batch into its [`Acc`] in one
/// loop over the rows' group ids. A batch emits every group it closed; the
/// last one stays open into the next batch. Constant memory: nothing is
/// charged to the grant.
pub struct StreamAggOp<'a> {
    child: PlanNode<'a>,
    group_by: Vec<usize>,
    aggs: Vec<AggSpec>,
    out_types: Vec<DataType>,
    child_types: Vec<DataType>,
    /// `0..group_by.len()`: where `open` keeps the key.
    key_ords: Vec<usize>,
    /// The key of the group the last batch ended in, a row a column.
    open: Option<Vec<ColumnVector>>,
    /// An accumulator an aggregate, made at the first pull; between batches
    /// they hold the open group.
    accs: Option<Vec<Acc>>,
    done: bool,
}

impl<'a> StreamAggOp<'a> {
    pub fn new(child: PlanNode<'a>, group_by: Vec<usize>, aggs: Vec<AggSpec>) -> StreamAggOp<'a> {
        let child_types = child.out_types();
        StreamAggOp {
            out_types: out_types(&child_types, &group_by, &aggs),
            key_ords: (0..group_by.len()).collect(),
            child,
            group_by,
            aggs,
            child_types,
            open: None,
            accs: None,
            done: false,
        }
    }

    /// Fold a batch into the open group and the groups it starts; emit
    /// every group but the last, which stays open.
    fn consume(&mut self, batch: &Batch) -> Result<Option<Batch>> {
        let rows = batch.num_rows();
        if rows == 0 {
            return Ok(None);
        }
        let at = (batch.columns(), self.group_by.as_slice());
        let keys = Keys::of(at.0, at.1, rows);
        let held = usize::from(self.open.is_some());
        let mut key_cols = self.open.take().unwrap_or_else(|| {
            self.group_by
                .iter()
                .map(|&g| ColumnVector::with_capacity(self.child_types[g], 0))
                .collect()
        });
        // The first row goes on with the open group if it has its key.
        let goes_on = held == 1 && {
            let open = Keys::of(&key_cols, &self.key_ords, 1);
            let same = keys.same(at, &open, (&key_cols, &self.key_ords));
            keys.hashes[0] == open.hashes[0] && same.rows(0, 0)
        };
        let within = keys.same(at, &keys, at);
        let mut first_rows = Vec::new();
        let gids: Vec<u32> = (0..rows)
            .map(|i| {
                let same = match i {
                    0 => goes_on,
                    _ => keys.hashes[i] == keys.hashes[i - 1] && within.rows(i, i - 1),
                };
                if !same {
                    first_rows.push(i);
                }
                (held + first_rows.len() - 1) as u32
            })
            .collect();
        let groups = held + first_rows.len();
        let accs = self.accs.as_mut().expect("made at the first pull");
        for (acc, spec) in accs.iter_mut().zip(&self.aggs) {
            acc.fold(batch.column(spec.input), &gids, &first_rows, groups)?;
        }
        for (key_col, &g) in key_cols.iter_mut().zip(&self.group_by) {
            key_col.append(&batch.column(g).take(&first_rows))?;
        }
        let last = groups - 1;
        self.open = Some(key_cols.iter_mut().map(|c| c.split_off(last)).collect());
        let open = accs.iter_mut().map(|acc| acc.split_off(last)).collect();
        let closed = std::mem::replace(accs, open);
        if last == 0 {
            return Ok(None);
        }
        finish(key_cols, closed, &self.out_types, last).map(Some)
    }
}

impl Operator for StreamAggOp<'_> {
    fn out_types(&self) -> Vec<DataType> {
        self.out_types.clone()
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        while !self.done {
            if self.accs.is_none() {
                let accs = self
                    .aggs
                    .iter()
                    .map(|a| Acc::new(a.func, self.child_types[a.input]));
                self.accs = Some(accs.collect::<Result<_>>()?);
            }
            let Some(batch) = self.child.next(ctx)? else {
                self.done = true;
                // The open group closes. A global aggregate over no rows is
                // one group no row reached.
                if self.open.is_none() && !self.group_by.is_empty() {
                    return Ok(None);
                }
                let accs = self.accs.take().expect("made above");
                let key_cols = self.open.take().unwrap_or_default();
                return finish(key_cols, accs, &self.out_types, 1).map(Some);
            };
            if let Some(out) = self.consume(&batch)? {
                return Ok(Some(out));
            }
        }
        Ok(None)
    }
}

/// The output types of an aggregate of `child_types`: the group-by columns,
/// then each aggregate's result.
fn out_types(child_types: &[DataType], group_by: &[usize], aggs: &[AggSpec]) -> Vec<DataType> {
    let keys = group_by.iter().map(|&g| child_types[g]);
    keys.chain(
        aggs.iter()
            .map(|a| a.func.result_type(child_types[a.input])),
    )
    .collect()
}

/// A batch of `groups` groups: their `key_cols`, then each aggregate's
/// column, finished from `accs` as the last of `out_types`.
fn finish(
    mut key_cols: Vec<ColumnVector>,
    accs: Vec<Acc>,
    out_types: &[DataType],
    groups: usize,
) -> Result<Batch> {
    let agg_types = &out_types[out_types.len() - accs.len()..];
    for (acc, &t) in accs.into_iter().zip(agg_types) {
        key_cols.push(acc.finish(t, groups)?);
    }
    Ok(Batch::new(key_cols))
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
