//! The batch-mode hash join, hash aggregate and stream aggregate against the
//! row-at-a-time operators they replaced, kept here as `mod reference`:
//! random inputs over all six types — floats with both zeros, two NaNs and
//! both infinities, strings sharing prefixes, the integer extremes — 0–3 key
//! columns, heavy duplicates, an empty side, every aggregate function,
//! batches of 1 / 7 / 4096 rows, either build side, grants from nothing
//! through "one row short" to unbounded. The same multiset of rows (or the
//! same error), the same bytes spilled, the same spill events, the same
//! high-water mark of the grant, and no spill file left open. The stream
//! aggregate, fed input sorted on its group-by, must give the same rows in
//! the same order without touching the grant.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hpd_common::{AggFunc, Batch, DataType, Result, Row, Value};
use hpd_exec::{
    collect_rows, AggSpec, ExecCtx, HashAggOp, HashJoinOp, JoinSide, OpStats, Operator, ProfiledOp,
    ProjectOp, StreamAggOp, ValuesOp,
};
use hpd_storage::{BufferPool, DeviceProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The operators as they were before they went batch-mode: one `Row`, one
/// `Key` and one SipHash (the stream aggregate: one `Key`) per input row.
/// Unchanged but for their names, a re-spill counter, and `AggState` living
/// here with them.
mod reference {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use hpd_common::{AggFunc, Batch, DataType, HpdError, Key, Result, Row, Value};
    use hpd_exec::ops::PlanNode;
    use hpd_exec::{AggSpec, ExecCtx, Operator};
    use hpd_storage::SpillFile;

    const HASH_ENTRY_OVERHEAD: usize = 48;
    const GROUP_OVERHEAD: usize = 48;
    const SPILL_PARTITIONS: usize = 16;

    fn concat_rows(left: &Row, right: &Row) -> Row {
        let mut vals: Vec<Value> = Vec::with_capacity(left.len() + right.len());
        vals.extend_from_slice(left.values());
        vals.extend_from_slice(right.values());
        Row::new(vals)
    }

    fn partition_of(key: &Key) -> usize {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % SPILL_PARTITIONS
    }

    fn rows_to_batches(types: &[DataType], rows: Vec<Row>) -> Result<Vec<Batch>> {
        let mut batches = Vec::new();
        for chunk in rows.chunks(4096) {
            batches.push(Batch::from_rows(types, chunk)?);
        }
        Ok(batches)
    }

    /// Inner equi hash join; the right child builds.
    pub struct HashJoin<'a> {
        left: PlanNode<'a>,
        right: PlanNode<'a>,
        keys: Vec<(usize, usize)>,
        types: Vec<DataType>,
        output: Option<std::vec::IntoIter<Batch>>,
    }

    impl<'a> HashJoin<'a> {
        pub fn new(
            left: PlanNode<'a>,
            right: PlanNode<'a>,
            keys: Vec<(usize, usize)>,
        ) -> HashJoin<'a> {
            let mut types = left.out_types();
            types.extend(right.out_types());
            HashJoin {
                left,
                right,
                keys,
                types,
                output: None,
            }
        }

        fn run(&mut self, ctx: &ExecCtx<'_>) -> Result<Vec<Batch>> {
            let right_keys: Vec<usize> = self.keys.iter().map(|&(_, r)| r).collect();
            let left_keys: Vec<usize> = self.keys.iter().map(|&(l, _)| l).collect();

            let mut table: HashMap<Key, Vec<Row>> = HashMap::new();
            let mut reserved = 0usize;
            let mut spilled_build: Option<Vec<(SpillFile, Vec<Row>)>> = None;
            while let Some(batch) = self.right.next(ctx)? {
                for i in 0..batch.num_rows() {
                    let row = batch.row(i);
                    let key = row.key(&right_keys);
                    let bytes = row.byte_width() + HASH_ENTRY_OVERHEAD;
                    if spilled_build.is_none() && !ctx.grant.try_reserve(bytes) {
                        spilled_build = Some(
                            (0..SPILL_PARTITIONS)
                                .map(|_| (ctx.spill.create_file(), Vec::new()))
                                .collect(),
                        );
                    }
                    match spilled_build.as_mut() {
                        Some(parts) => {
                            let p = partition_of(&key);
                            parts[p].0.write(row.byte_width() as u64, &ctx.tracker)?;
                            parts[p].1.push(row);
                        }
                        None => {
                            reserved += bytes;
                            table.entry(key).or_default().push(row);
                        }
                    }
                }
            }

            let mut out_rows: Vec<Row> = Vec::new();
            let mut spilled_probe: Vec<Vec<Row>> = vec![Vec::new(); SPILL_PARTITIONS];
            let mut probe_files: Vec<Option<SpillFile>> =
                (0..SPILL_PARTITIONS).map(|_| None).collect();
            while let Some(batch) = self.left.next(ctx)? {
                for i in 0..batch.num_rows() {
                    let row = batch.row(i);
                    let key = row.key(&left_keys);
                    if let Some(matches) = table.get(&key) {
                        for m in matches {
                            out_rows.push(concat_rows(&row, m));
                        }
                    }
                    if let Some(parts) = spilled_build.as_ref() {
                        let p = partition_of(&key);
                        if !parts[p].1.is_empty() {
                            probe_files[p]
                                .get_or_insert_with(|| ctx.spill.create_file())
                                .write(row.byte_width() as u64, &ctx.tracker)?;
                            spilled_probe[p].push(row);
                        }
                    }
                }
            }
            ctx.grant.release(reserved);
            drop(table);

            if let Some(parts) = spilled_build {
                for (p, (build_file, build_rows)) in parts.into_iter().enumerate() {
                    if build_rows.is_empty() {
                        continue;
                    }
                    build_file.read_all(&ctx.tracker);
                    if let Some(f) = &probe_files[p] {
                        f.read_all(&ctx.tracker);
                    }
                    let mut part_table: HashMap<Key, Vec<Row>> = HashMap::new();
                    for row in build_rows {
                        part_table
                            .entry(row.key(&right_keys))
                            .or_default()
                            .push(row);
                    }
                    for row in std::mem::take(&mut spilled_probe[p]) {
                        if let Some(matches) = part_table.get(&row.key(&left_keys)) {
                            for m in matches {
                                out_rows.push(concat_rows(&row, m));
                            }
                        }
                    }
                }
            }

            rows_to_batches(&self.types, out_rows)
        }
    }

    impl Operator for HashJoin<'_> {
        fn out_types(&self) -> Vec<DataType> {
            self.types.clone()
        }

        fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
            if self.output.is_none() {
                let batches = self.run(ctx)?;
                self.output = Some(batches.into_iter());
            }
            Ok(self.output.as_mut().expect("initialized above").next())
        }
    }

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
            let mismatch = |expected| HpdError::TypeMismatch {
                expected,
                found: v.data_type().name().to_string(),
            };
            match self {
                AggState::Count(c) => *c += 1,
                AggState::SumI(s) => {
                    *s += i128::from(v.as_i64().ok_or_else(|| mismatch("integer"))?)
                }
                AggState::SumD(s) => {
                    let Value::Decimal(d) = v else {
                        return Err(mismatch("decimal"));
                    };
                    *s += i128::from(*d);
                }
                AggState::SumF(s) => *s += v.as_f64().ok_or_else(|| mismatch("numeric"))?,
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
                    *sum += v.as_f64().ok_or_else(|| mismatch("numeric"))?;
                    *count += 1;
                }
            }
            Ok(())
        }

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

    /// Hash aggregate with spilling.
    pub struct HashAgg<'a> {
        child: PlanNode<'a>,
        group_by: Vec<usize>,
        aggs: Vec<AggSpec>,
        out_types: Vec<DataType>,
        child_types: Vec<DataType>,
        output: Option<std::vec::IntoIter<Batch>>,
        /// Overflows of a spilled partition, by recursion depth (0 and 1).
        respills: Arc<[AtomicUsize; 2]>,
    }

    impl<'a> HashAgg<'a> {
        pub fn new(
            child: PlanNode<'a>,
            group_by: Vec<usize>,
            aggs: Vec<AggSpec>,
            respills: Arc<[AtomicUsize; 2]>,
        ) -> HashAgg<'a> {
            let child_types = child.out_types();
            let mut out_types: Vec<DataType> = group_by.iter().map(|&g| child_types[g]).collect();
            out_types.extend(
                aggs.iter()
                    .map(|a| a.func.result_type(child_types[a.input])),
            );
            HashAgg {
                child,
                group_by,
                aggs,
                out_types,
                child_types,
                output: None,
                respills,
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
                self.respills[depth].fetch_add(1, Ordering::Relaxed);
                let mut file = ctx.spill.create_file();
                let bytes: u64 = overflow.iter().map(|r| r.byte_width() as u64).sum();
                file.write(bytes, &ctx.tracker)?;
                file.read_all(&ctx.tracker);
                self.aggregate_partition(overflow, out, ctx, depth + 1)?;
            }
            Ok(())
        }
    }

    impl Operator for HashAgg<'_> {
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

    /// Streaming aggregate over input sorted by the group-by columns: one
    /// `Key` a row, and only the current group's states held.
    pub struct StreamAgg<'a> {
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

    impl<'a> StreamAgg<'a> {
        pub fn new(child: PlanNode<'a>, group_by: Vec<usize>, aggs: Vec<AggSpec>) -> StreamAgg<'a> {
            let child_types = child.out_types();
            let mut out_types: Vec<DataType> = group_by.iter().map(|&g| child_types[g]).collect();
            out_types.extend(
                aggs.iter()
                    .map(|a| a.func.result_type(child_types[a.input])),
            );
            StreamAgg {
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

    impl Operator for StreamAgg<'_> {
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
                                    states.push(AggState::new(
                                        spec.func,
                                        self.child_types[spec.input],
                                    )?);
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
}

const TYPES: [DataType; 6] = [
    DataType::Int32,
    DataType::Int64,
    DataType::Float64,
    DataType::Decimal,
    DataType::Date,
    DataType::Utf8,
];

/// A value of `dtype` from a pool of at most `spread` values: the first few
/// are the ones equality and order are easiest to get wrong on.
fn value(rng: &mut StdRng, dtype: DataType, spread: usize) -> Value {
    const STRINGS: [&str; 8] = [
        "",
        "a",
        "abcdefgh",
        "abcdefgh\0",
        "abcdefghi",
        "abcdefghij-shared-prefix-1",
        "abcdefghij-shared-prefix-2",
        "b",
    ];
    let pick = rng.gen_range(0..spread);
    let wide = [i64::MIN, i64::MAX, -1, 0, 1][pick % 5];
    match dtype {
        DataType::Int32 if pick < 5 => Value::Int32([i32::MIN, i32::MAX, -1, 0, 1][pick]),
        DataType::Int32 => Value::Int32(pick as i32 * 7),
        DataType::Date if pick < 3 => Value::Date([i32::MIN, i32::MAX, 0][pick]),
        DataType::Date => Value::Date(pick as i32 + 17_000),
        DataType::Int64 if pick < 5 => Value::Int64(wide),
        DataType::Int64 => Value::Int64(pick as i64 * 1_000_003),
        DataType::Decimal if pick < 5 => Value::Decimal(wide),
        DataType::Decimal => Value::Decimal(pick as i64 * 12_345),
        DataType::Float64 => Value::Float64(match pick {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::from_bits(f64::NAN.to_bits() | 1 << 63 | 7),
            4 => f64::INFINITY,
            5 => f64::NEG_INFINITY,
            n => n as f64 * 0.25 - 3.0,
        }),
        DataType::Utf8 if pick < STRINGS.len() => Value::str(STRINGS[pick]),
        DataType::Utf8 => Value::str(format!("abcdefgh-{pick}")),
    }
}

fn rows(rng: &mut StdRng, types: &[DataType], n: usize, spread: usize) -> Vec<Row> {
    (0..n)
        .map(|_| Row::new(types.iter().map(|&t| value(rng, t, spread)).collect()))
        .collect()
}

/// `rows` as a source cut into batches of `batch_rows`.
fn source(types: &[DataType], rows: &[Row], batch_rows: usize) -> Box<ValuesOp> {
    let batches = rows
        .chunks(batch_rows)
        .map(|chunk| Batch::from_rows(types, chunk).unwrap())
        .collect();
    Box::new(ValuesOp::new(types.to_vec(), batches))
}

/// What a run leaves behind besides its rows.
#[derive(Debug, PartialEq, Eq)]
struct Footprint {
    spilled_bytes: u64,
    spill_events: u64,
    bytes_written: u64,
    bytes_read: u64,
    grant_peak: usize,
}

/// Drain `op` under a grant of `grant` bytes: its rows, sorted, or its
/// error's text; and its footprint. No spill file may outlive the operator.
fn run(
    pool: &BufferPool,
    grant: usize,
    is_reference: bool,
    op: impl FnOnce() -> Box<dyn Operator>,
) -> (std::result::Result<Vec<Row>, String>, Footprint) {
    let ctx = ExecCtx::with_grant(pool, grant);
    let stats = Arc::new(OpStats::default());
    let mut profiled = ProfiledOp::new(op(), Arc::clone(&stats));
    let rows: Result<Vec<Row>> = collect_rows(&mut profiled, &ctx);
    drop(profiled);
    assert_eq!(ctx.spill.live_files(), 0, "a spill file outlived its query");
    // (The row-at-a-time aggregate kept its groups' bytes on a SUM overflow.)
    if rows.is_ok() || !is_reference {
        assert_eq!(ctx.grant.used_bytes(), 0, "grant bytes were not given back");
    }
    let io = ctx.tracker.snapshot();
    let footprint = Footprint {
        spilled_bytes: io.spilled_bytes,
        spill_events: stats.spill_events.load(Ordering::Relaxed),
        bytes_written: io.bytes_written,
        bytes_read: io.bytes_read,
        grant_peak: ctx.grant.peak_bytes(),
    };
    let rows = rows
        .map(|mut rows| {
            rows.sort();
            rows
        })
        .map_err(|e| e.to_string());
    (rows, footprint)
}

/// A grant for an operator that needs `needed` bytes not to spill.
fn grant(rng: &mut StdRng, needed: usize) -> usize {
    match rng.gen_range(0..6) {
        0 => 0,
        1 => needed.saturating_sub(1),
        2 => needed,
        3 => usize::MAX >> 2,
        4 => rng.gen_range(0..=needed / 4),
        _ => rng.gen_range(0..=needed),
    }
}

/// Cases a test runs: CI runs this file in release as well.
fn cases() -> u64 {
    if cfg!(debug_assertions) {
        300
    } else {
        3_000
    }
}

fn batch_rows(rng: &mut StdRng) -> usize {
    [1, 7, 4096][rng.gen_range(0..3usize)]
}

#[test]
fn hash_join_equals_the_row_at_a_time_join() {
    let pool = BufferPool::unbounded(DeviceProfile::ssd());
    // Cases that ran in memory, that spilled, and whose probe side spilled too.
    let mut seen = [0usize; 3];
    for case in 0..cases() {
        let rng = &mut StdRng::seed_from_u64(case);
        let keys = rng.gen_range(0..=3usize);
        // Key column `k` is column `k` on both sides; payload columns follow.
        let mut left_types: Vec<DataType> =
            (0..keys).map(|_| TYPES[rng.gen_range(0..6usize)]).collect();
        let mut right_types = left_types.clone();
        for (l, r) in left_types.iter_mut().zip(&mut right_types) {
            match rng.gen_range(0..10) {
                // An integer key of two widths still joins.
                0 | 1 if matches!(*l, DataType::Int32 | DataType::Int64) => {
                    (*l, *r) = (DataType::Int32, DataType::Int64);
                    if rng.gen_bool(0.5) {
                        std::mem::swap(l, r);
                    }
                }
                // Types `Value` orders by tag alone never do.
                2 if *l == DataType::Int64 => *r = DataType::Decimal,
                2 if *l == DataType::Int32 => *r = DataType::Date,
                _ => {}
            }
        }
        left_types.extend((0..rng.gen_range(0..3)).map(|_| TYPES[rng.gen_range(0..6usize)]));
        right_types.extend((0..rng.gen_range(0..3)).map(|_| TYPES[rng.gen_range(0..6usize)]));
        if left_types.is_empty() || right_types.is_empty() {
            // A batch of no columns has no rows.
            left_types.push(DataType::Int32);
            right_types.push(DataType::Utf8);
        }
        let spread = [2, 6, 12, 40][rng.gen_range(0..4usize)];
        let size = |rng: &mut StdRng| match rng.gen_range(0..8) {
            0 => 0,
            1 => 1,
            _ => rng.gen_range(2..120usize),
        };
        let (nl, nr) = (size(rng), size(rng));
        let left = rows(rng, &left_types, nl, spread);
        let right = rows(rng, &right_types, nr, spread);
        let (left_batch, right_batch) = (batch_rows(rng), batch_rows(rng));
        let side = if rng.gen_bool(0.5) {
            JoinSide::Left
        } else {
            JoinSide::Right
        };
        let build = if side == JoinSide::Left {
            &left
        } else {
            &right
        };
        let needed: usize = build.iter().map(|r| r.byte_width() + 48).sum();
        let grant = grant(rng, needed);
        let on: Vec<(usize, usize)> = (0..keys).map(|k| (k, k)).collect();
        let children = || {
            (
                source(&left_types, &left, left_batch),
                source(&right_types, &right, right_batch),
            )
        };

        let (got, got_footprint) = run(&pool, grant, false, || {
            let (l, r) = children();
            Box::new(HashJoinOp::new(l, r, on.clone()).build_on(side))
        });
        let (want, want_footprint) = run(&pool, grant, true, || {
            let (l, r) = children();
            if side == JoinSide::Right {
                return Box::new(reference::HashJoin::new(l, r, on.clone()));
            }
            // The reference builds on its right child: hand it the children
            // swapped and put its `right ++ left` columns back in order.
            let swapped = on.iter().map(|&(l, r)| (r, l)).collect();
            let join = reference::HashJoin::new(r, l, swapped);
            let (nl, nr) = (left_types.len(), right_types.len());
            let ords: Vec<usize> = (nr..nr + nl).chain(0..nr).collect();
            Box::new(ProjectOp::columns(
                Box::new(join),
                &ords,
                hpd_exec::Mode::Batch,
            ))
        });
        let context = format!(
            "case {case}: {left_types:?} x {right_types:?} on {keys} keys, {} x {} rows in \
             batches of {left_batch} / {right_batch}, build {side:?}, grant {grant} of {needed}",
            left.len(),
            right.len()
        );
        assert_eq!(got, want, "{context}");
        assert_eq!(got_footprint, want_footprint, "{context}");
        let spilled = want_footprint.spilled_bytes;
        let build_bytes: u64 = build.iter().map(|r| r.byte_width() as u64).sum();
        seen[0] += usize::from(spilled == 0);
        seen[1] += usize::from(spilled > 0);
        seen[2] += usize::from(spilled > build_bytes);
        if grant >= needed {
            assert_eq!(spilled, 0, "{context}");
            assert_eq!(want_footprint.grant_peak, needed, "{context}");
        }
    }
    assert!(
        seen.iter().all(|&n| n * 20 >= cases() as usize),
        "in-memory / spilling / probe-spilling cases: {seen:?}"
    );
}

#[test]
fn hash_aggregate_equals_the_row_at_a_time_aggregate() {
    let pool = BufferPool::unbounded(DeviceProfile::ssd());
    // Cases that ran in memory, that spilled, that overflowed a spilled
    // partition, and that overflowed it twice.
    let mut seen = [0usize; 4];
    let mut overflows = 0;
    for case in 0..cases() {
        let rng = &mut StdRng::seed_from_u64(case ^ 0xA66);
        let types: Vec<DataType> = (0..rng.gen_range(1..=5))
            .map(|_| TYPES[rng.gen_range(0..6usize)])
            .collect();
        let group_by: Vec<usize> = (0..rng.gen_range(0..=3usize))
            .map(|_| rng.gen_range(0..types.len()))
            .collect();
        // No output column at all is no query (and a batch of no columns
        // has no rows).
        let fewest = usize::from(group_by.is_empty());
        let aggs: Vec<AggSpec> = (0..rng.gen_range(fewest..=3))
            .map(|_| {
                let input = rng.gen_range(0..types.len());
                let funcs: &[AggFunc] = match types[input] {
                    DataType::Utf8 => &[AggFunc::Count, AggFunc::Min, AggFunc::Max],
                    _ => &[
                        AggFunc::Count,
                        AggFunc::Sum,
                        AggFunc::Min,
                        AggFunc::Max,
                        AggFunc::Avg,
                    ],
                };
                AggSpec::new(funcs[rng.gen_range(0..funcs.len())], input)
            })
            .collect();
        // Few values: many rows a group, and extremes that overflow a SUM.
        // Many: more groups than any grant below admits.
        let spread = [2, 6, 12, 40][rng.gen_range(0..4usize)];
        let n = match rng.gen_range(0..8) {
            0 => 0,
            1 => 1,
            _ => rng.gen_range(2..300usize),
        };
        let input = rows(rng, &types, n, spread);
        let batch = batch_rows(rng);
        let mut groups: Vec<_> = input.iter().map(|r| r.key(&group_by)).collect();
        groups.sort();
        groups.dedup();
        let needed: usize = groups
            .iter()
            .map(|k| k.byte_width() + 48 * aggs.len().max(1))
            .sum();
        let grant = grant(rng, needed);

        let (got, got_footprint) = run(&pool, grant, false, || {
            let child = source(&types, &input, batch);
            Box::new(HashAggOp::new(child, group_by.clone(), aggs.clone()))
        });
        let respills: Arc<[AtomicUsize; 2]> = Arc::default();
        let (want, want_footprint) = run(&pool, grant, true, || {
            let child = source(&types, &input, batch);
            let (group_by, aggs) = (group_by.clone(), aggs.clone());
            Box::new(reference::HashAgg::new(
                child,
                group_by,
                aggs,
                Arc::clone(&respills),
            ))
        });
        let context = format!(
            "case {case}: {types:?} group by {group_by:?} {aggs:?}, {n} rows in batches of \
             {batch}, {} groups, grant {grant} of {needed}",
            groups.len()
        );
        assert_eq!(got, want, "{context}");
        assert_eq!(got_footprint, want_footprint, "{context}");
        overflows += usize::from(matches!(&want, Err(e) if e.contains("SUM overflow")));
        seen[0] += usize::from(want_footprint.spilled_bytes == 0);
        seen[1] += usize::from(want_footprint.spilled_bytes > 0);
        seen[2] += usize::from(respills[0].load(Ordering::Relaxed) > 0);
        seen[3] += usize::from(respills[1].load(Ordering::Relaxed) > 0);
        if grant >= needed {
            assert_eq!(want_footprint.spilled_bytes, 0, "{context}");
        }
    }
    assert!(
        seen.iter().all(|&n| n * 40 >= cases() as usize),
        "in-memory / spilling / re-spilling / twice re-spilling cases: {seen:?}"
    );
    assert!(
        overflows * 100 >= cases() as usize,
        "{overflows} SUM overflows"
    );
}

#[test]
fn stream_aggregate_equals_the_row_at_a_time_stream_aggregate() {
    let pool = BufferPool::unbounded(DeviceProfile::ssd());
    // Cases with no input and no group-by, with no input and a group-by,
    // and with a group whose rows span two batches.
    let mut seen = [0usize; 3];
    let mut overflows = 0;
    for case in 0..cases() {
        let rng = &mut StdRng::seed_from_u64(case ^ 0x57_4EA3);
        let types: Vec<DataType> = (0..rng.gen_range(1..=5))
            .map(|_| TYPES[rng.gen_range(0..6usize)])
            .collect();
        let group_by: Vec<usize> = (0..rng.gen_range(0..=3usize))
            .map(|_| rng.gen_range(0..types.len()))
            .collect();
        let fewest = usize::from(group_by.is_empty());
        let aggs: Vec<AggSpec> = (0..rng.gen_range(fewest..=3))
            .map(|_| {
                let input = rng.gen_range(0..types.len());
                let funcs: &[AggFunc] = match types[input] {
                    DataType::Utf8 => &[AggFunc::Count, AggFunc::Min, AggFunc::Max],
                    _ => &[
                        AggFunc::Count,
                        AggFunc::Sum,
                        AggFunc::Min,
                        AggFunc::Max,
                        AggFunc::Avg,
                    ],
                };
                AggSpec::new(funcs[rng.gen_range(0..funcs.len())], input)
            })
            .collect();
        let spread = [2, 6, 12, 40][rng.gen_range(0..4usize)];
        let n = match rng.gen_range(0..10) {
            0 | 1 => 0,
            2 => 1,
            // Past one batch of 4096.
            3 => rng.gen_range(4_000..9_000usize),
            _ => rng.gen_range(2..300usize),
        };
        // Sorted on the group-by columns as `Value` orders them (both
        // zeros and every NaN apart); a stable sort keeps each group's rows
        // in the order a float sum adds them.
        let mut input = rows(rng, &types, n, spread);
        input.sort_by_key(|r| r.key(&group_by));
        let batch = batch_rows(rng);

        // No grant at all: a streaming aggregate never asks for one.
        let drain = |op: &mut dyn Operator| {
            let ctx = ExecCtx::with_grant(&pool, 0);
            let rows = collect_rows(op, &ctx).map_err(|e| e.to_string());
            assert_eq!(
                ctx.grant.peak_bytes(),
                0,
                "case {case}: the grant was charged"
            );
            rows
        };
        let got = drain(&mut StreamAggOp::new(
            source(&types, &input, batch),
            group_by.clone(),
            aggs.clone(),
        ));
        let want = drain(&mut reference::StreamAgg::new(
            source(&types, &input, batch),
            group_by.clone(),
            aggs.clone(),
        ));
        assert_eq!(
            got, want,
            "case {case}: {types:?} group by {group_by:?} {aggs:?}, {n} rows in batches of {batch}"
        );
        overflows += usize::from(matches!(&want, Err(e) if e.contains("SUM overflow")));
        seen[0] += usize::from(n == 0 && group_by.is_empty());
        seen[1] += usize::from(n == 0 && !group_by.is_empty());
        seen[2] += usize::from(
            (batch..n)
                .step_by(batch)
                .any(|i| input[i - 1].key(&group_by) == input[i].key(&group_by)),
        );
    }
    assert!(
        seen.iter().all(|&n| n * 40 >= cases() as usize),
        "empty global / empty grouped / group across batches cases: {seen:?}"
    );
    assert!(
        overflows * 100 >= cases() as usize,
        "{overflows} SUM overflows"
    );
}

/// `SUM` over a string column is refused by the accumulator both
/// aggregates fold into — with a group-by and no input rows too, where the
/// row-at-a-time stream aggregate never built a state and answered nothing.
#[test]
fn a_grouped_sum_over_strings_errors_alike_in_both_aggregates() {
    let pool = BufferPool::unbounded(DeviceProfile::ssd());
    let types = [DataType::Int32, DataType::Utf8];
    for n in [0, 3] {
        let input = rows(&mut StdRng::seed_from_u64(n), &types, n as usize, 2);
        let aggs = vec![AggSpec::new(AggFunc::Sum, 1)];
        let (hash, _) = run(&pool, usize::MAX >> 2, false, || {
            Box::new(HashAggOp::new(
                source(&types, &input, 7),
                vec![0],
                aggs.clone(),
            ))
        });
        let (stream, _) = run(&pool, usize::MAX >> 2, false, || {
            Box::new(StreamAggOp::new(
                source(&types, &input, 7),
                vec![0],
                aggs.clone(),
            ))
        });
        assert_eq!(hash, Err("invalid query: SUM over a string column".into()));
        assert_eq!(stream, hash, "{n} rows");
    }
}
