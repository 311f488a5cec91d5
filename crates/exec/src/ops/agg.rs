//! Aggregation: hash aggregate (with grace-style spilling under memory
//! pressure) and streaming aggregate (requires sorted input, constant
//! memory).
//!
//! The contrast between these two under a constrained memory grant is the
//! paper's Figure 4: the columnstore pipeline must hash-aggregate and falls
//! off a cliff once the table exceeds the grant, while the B+ tree's sort
//! order admits a streaming aggregate that never spills.

use std::collections::HashMap;

use hpd_common::{AggFunc, Batch, DataType, HpdError, Key, Result, Row, Value};
use hpd_storage::SpillFile;

use crate::ctx::ExecCtx;
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

/// Number of spill partitions for the external path.
const SPILL_PARTITIONS: usize = 16;

/// Hash aggregate with spilling.
///
/// While the grant allows, groups accumulate in an in-memory hash table.
/// Once a new group cannot be admitted, rows of unseen groups are
/// hash-partitioned to spill files (existing groups keep updating in
/// memory); at end-of-input the resident groups are emitted and each spilled
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

    fn run(&mut self, ctx: &ExecCtx<'_>) -> Result<Vec<Batch>> {
        let mut table: HashMap<Key, Vec<AggState>> = HashMap::new();
        let mut reserved = 0usize;
        let mut spill: Option<Vec<(SpillFile, Vec<Row>)>> = None;

        while let Some(batch) = self.child.next(ctx)? {
            self.consume_batch(&batch, &mut table, &mut reserved, &mut spill, ctx)?;
        }

        let mut out_rows: Vec<Row> = Vec::with_capacity(table.len());
        self.emit_table(std::mem::take(&mut table), &mut out_rows)?;
        ctx.grant.release(reserved);

        // Process spilled partitions, one at a time, after the table memory
        // is released.
        if let Some(partitions) = spill {
            for (file, rows) in partitions {
                file.read_all(&ctx.tracker);
                self.aggregate_partition(rows, &mut out_rows, ctx, 0)?;
            }
        }

        let mut batches = Vec::new();
        for chunk in out_rows.chunks(4096) {
            batches.push(Batch::from_rows(&self.out_types, chunk)?);
        }
        if batches.is_empty() && self.group_by.is_empty() {
            // Global aggregate over an empty input: one row of identities.
            let states = self
                .aggs
                .iter()
                .map(|a| AggState::new(a.func, self.child_types[a.input]))
                .collect::<Result<Vec<_>>>()?;
            let mut row = Vec::new();
            for (st, spec) in states.into_iter().zip(&self.aggs) {
                row.push(st.finish(spec.func.result_type(self.child_types[spec.input]))?);
            }
            batches.push(Batch::from_rows(&self.out_types, &[Row::new(row)])?);
        }
        Ok(batches)
    }

    fn consume_batch(
        &self,
        batch: &Batch,
        table: &mut HashMap<Key, Vec<AggState>>,
        reserved: &mut usize,
        spill: &mut Option<Vec<(SpillFile, Vec<Row>)>>,
        ctx: &ExecCtx<'_>,
    ) -> Result<()> {
        for i in 0..batch.num_rows() {
            let key = Key::new(
                self.group_by
                    .iter()
                    .map(|&g| batch.column(g).value(i))
                    .collect(),
            );
            if let Some(states) = table.get_mut(&key) {
                for (st, spec) in states.iter_mut().zip(&self.aggs) {
                    st.update(&batch.column(spec.input).value(i))?;
                }
                continue;
            }
            let entry_bytes = key.byte_width() + GROUP_OVERHEAD * self.aggs.len().max(1);
            if spill.is_none() && !ctx.grant.try_reserve(entry_bytes) {
                // Out of grant: start spilling unseen groups.
                *spill = Some(
                    (0..SPILL_PARTITIONS)
                        .map(|_| (ctx.spill.create_file(), Vec::new()))
                        .collect(),
                );
            }
            if let Some(partitions) = spill.as_mut() {
                let row = batch.row(i);
                let p = partition_of(&key);
                let (file, rows) = &mut partitions[p];
                file.write(row.byte_width() as u64, &ctx.tracker)?;
                rows.push(row);
            } else {
                *reserved += entry_bytes;
                let mut states = Vec::with_capacity(self.aggs.len());
                for spec in &self.aggs {
                    let mut st = AggState::new(spec.func, self.child_types[spec.input])?;
                    st.update(&batch.column(spec.input).value(i))?;
                    states.push(st);
                }
                table.insert(key, states);
            }
        }
        Ok(())
    }

    fn emit_table(&self, table: HashMap<Key, Vec<AggState>>, out: &mut Vec<Row>) -> Result<()> {
        for (key, states) in table {
            let mut row: Vec<Value> = key.values().to_vec();
            for (st, spec) in states.into_iter().zip(&self.aggs) {
                row.push(st.finish(spec.func.result_type(self.child_types[spec.input]))?);
            }
            out.push(Row::new(row));
        }
        Ok(())
    }

    /// Aggregate one spilled partition in memory; if it *still* exceeds the
    /// grant, recurse one level by re-partitioning, then give up and finish
    /// in memory (charging no further honesty than the two passes — matches
    /// a bounded-recursion grace hash).
    fn aggregate_partition(
        &self,
        rows: Vec<Row>,
        out: &mut Vec<Row>,
        ctx: &ExecCtx<'_>,
        depth: usize,
    ) -> Result<()> {
        let mut table: HashMap<Key, Vec<AggState>> = HashMap::new();
        let mut reserved = 0usize;
        let mut overflow: Vec<Row> = Vec::new();
        for row in rows {
            let key = row.key(&self.group_by);
            if let Some(states) = table.get_mut(&key) {
                for (st, spec) in states.iter_mut().zip(&self.aggs) {
                    st.update(&row[spec.input])?;
                }
                continue;
            }
            let entry_bytes = key.byte_width() + GROUP_OVERHEAD * self.aggs.len().max(1);
            if depth < 2 && !ctx.grant.try_reserve(entry_bytes) {
                overflow.push(row);
                continue;
            }
            if depth < 2 {
                reserved += entry_bytes;
            }
            let mut states = Vec::with_capacity(self.aggs.len());
            for spec in &self.aggs {
                let mut st = AggState::new(spec.func, self.child_types[spec.input])?;
                st.update(&row[spec.input])?;
                states.push(st);
            }
            table.insert(key, states);
        }
        self.emit_table(table, out)?;
        ctx.grant.release(reserved);
        if !overflow.is_empty() {
            // Re-spill the overflow once (charging another disk round trip).
            let mut file = ctx.spill.create_file();
            let bytes: u64 = overflow.iter().map(|r| r.byte_width() as u64).sum();
            file.write(bytes, &ctx.tracker)?;
            file.read_all(&ctx.tracker);
            self.aggregate_partition(overflow, out, ctx, depth + 1)?;
        }
        Ok(())
    }
}

fn partition_of(key: &Key) -> usize {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % SPILL_PARTITIONS
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
            let mut row: Vec<Value> = key.values().to_vec();
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
