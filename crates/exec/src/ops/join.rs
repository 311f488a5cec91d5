//! Join operators: hash join (grace spill) and index-lookup join (the
//! "index seek + nested loops" pattern of the paper's hybrid plans, §5.3).

use std::ops::Bound;

use hpd_btree::BTree;
use hpd_common::{codec, Batch, ColumnVector, DataType, HpdError, Key, Result, Value};

use crate::ctx::ExecCtx;
use crate::ops::hash::{key_class, Keys, Spilled, Table};
use crate::ops::{Operator, PlanNode};

/// Bytes charged per build-side hash table entry beyond the row payload.
const HASH_ENTRY_OVERHEAD: usize = 48;

/// A child of a two-input operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinSide {
    Left,
    Right,
}

/// Inner equi hash join in batch mode. One child — the right one unless
/// [`HashJoinOp::build_on`] says otherwise — is the build side: its batches
/// are retained as columns, its keys normalised ([`Keys`]) and hashed into
/// one [`Table`] whose ids head chains of build rows in arrival order. A
/// probe batch is hashed the same way, yields `(probe row, build row)`
/// pairs and is joined by gathering both sides' columns: `left ++ right`
/// columns whichever side built, rows in probe order.
///
/// Build rows are charged to the memory grant as the row-at-a-time join
/// charged them (`Row::byte_width` + [`HASH_ENTRY_OVERHEAD`] each); once
/// it is exhausted, the remaining build rows are hash-partitioned to spill
/// files, and probe rows falling in spilled partitions are spilled alongside
/// and joined in a second pass (hybrid grace hash join). A spilled row is a
/// row id into the retained columns, charged its bytes on its file.
pub struct HashJoinOp<'a> {
    left: PlanNode<'a>,
    right: PlanNode<'a>,
    /// Pairs of (left column, right column) equality keys.
    keys: Vec<(usize, usize)>,
    build: JoinSide,
    types: Vec<DataType>,
    output: Option<std::vec::IntoIter<Batch>>,
}

/// One side of the join as the matching loops see it: its columns, which of
/// them are the key, and those keys normalised.
#[derive(Clone, Copy)]
struct Side<'s> {
    cols: &'s [ColumnVector],
    ords: &'s [usize],
    keys: &'s Keys,
}

impl<'s> Side<'s> {
    fn of(batch: &'s Batch, ords: &'s [usize], keys: &'s Keys) -> Side<'s> {
        Side {
            cols: batch.columns(),
            ords,
            keys,
        }
    }
}

/// The hash table over some rows of a build batch: `table` maps a key to
/// the first row carrying it, `next` chains the rows of a key in arrival
/// order.
struct Chains {
    table: Table,
    /// Indexed by the batch's rows; shared by the tables of every spilled
    /// partition, whose rows are disjoint.
    next: Vec<u32>,
}

const END: u32 = u32::MAX;

impl Chains {
    /// Chains over a batch of `rows` rows, none hashed yet.
    fn new(rows: usize) -> Result<Chains> {
        if rows >= END as usize {
            return Err(HpdError::Internal("hash join build side too large".into()));
        }
        Ok(Chains {
            table: Table::with_capacity(0),
            next: vec![END; rows],
        })
    }

    /// Hash `rows` of `build`, given last row first: each row goes to the
    /// head of its key's chain, which therefore runs in arrival order.
    fn fill(&mut self, build: Side<'_>, rows: impl ExactSizeIterator<Item = usize>) {
        self.table = Table::with_capacity(rows.len());
        let at = (build.cols, build.ords);
        let same = build.keys.same(at, build.keys, at);
        for row in rows {
            let hash = build.keys.hashes[row];
            let slot = self.table.slot(hash, |head| same.rows(row, head as usize));
            self.next[row] = self.table.id(slot).unwrap_or(END);
            self.table.set(slot, hash, row as u32);
        }
    }

    /// `left ++ right` columns of every match of `rows` of `probe`, in that
    /// order; a probe row's matches in the order their build rows arrived.
    fn join(
        &self,
        build: Side<'_>,
        probe: Side<'_>,
        rows: impl ExactSizeIterator<Item = usize>,
        build_left: bool,
    ) -> Option<Batch> {
        let same = probe.keys.same(
            (probe.cols, probe.ords),
            build.keys,
            (build.cols, build.ords),
        );
        // A foreign-key join matches every row once.
        let mut probe_idx = Vec::with_capacity(rows.len());
        let mut build_idx = Vec::with_capacity(rows.len());
        for row in rows {
            let hash = probe.keys.hashes[row];
            let slot = self.table.slot(hash, |head| same.rows(row, head as usize));
            let mut at = self.table.id(slot).unwrap_or(END);
            while at != END {
                probe_idx.push(row);
                build_idx.push(at as usize);
                at = self.next[at as usize];
            }
        }
        if probe_idx.is_empty() {
            return None;
        }
        let probe = probe.cols.iter().map(|c| c.take(&probe_idx));
        let build = build.cols.iter().map(|c| c.take(&build_idx));
        Some(Batch::new(if build_left {
            build.chain(probe).collect()
        } else {
            probe.chain(build).collect()
        }))
    }
}

impl<'a> HashJoinOp<'a> {
    pub fn new(
        left: PlanNode<'a>,
        right: PlanNode<'a>,
        keys: Vec<(usize, usize)>,
    ) -> HashJoinOp<'a> {
        let mut types = left.out_types();
        types.extend(right.out_types());
        HashJoinOp {
            left,
            right,
            keys,
            build: JoinSide::Right,
            types,
            output: None,
        }
    }

    /// Build the hash table on `side` and probe with the other; the output
    /// is the same multiset of `left ++ right` rows either way.
    pub fn build_on(mut self, side: JoinSide) -> HashJoinOp<'a> {
        self.build = side;
        self
    }

    fn run(&mut self, ctx: &ExecCtx<'_>) -> Result<Vec<Batch>> {
        let (left_ords, right_ords): (Vec<usize>, Vec<usize>) = self.keys.iter().copied().unzip();
        let build_left = self.build == JoinSide::Left;
        let ((build_child, build_ords), (probe_child, probe_ords)) = if build_left {
            ((&mut self.left, &left_ords), (&mut self.right, &right_ords))
        } else {
            ((&mut self.right, &right_ords), (&mut self.left, &left_ords))
        };
        let (build_types, probe_types) = (build_child.out_types(), probe_child.out_types());
        // Key columns of types `Value` never finds equal match nothing.
        let comparable = build_ords
            .iter()
            .zip(probe_ords)
            .all(|(&b, &p)| key_class(build_types[b]) == key_class(probe_types[p]));

        // Build phase: charge each row to the grant and keep it; from the
        // first row the grant refuses on, spill.
        let mut resident = Batch::empty(&build_types);
        let mut spilled_build: Option<Spilled> = None;
        let mut reserved = 0usize;
        while let Some(batch) = build_child.next(ctx)? {
            let rows = batch.num_rows();
            let mut fit = 0;
            if spilled_build.is_none() {
                let widths = batch.row_byte_widths();
                let all = widths.iter().sum::<usize>() + rows * HASH_ENTRY_OVERHEAD;
                if ctx.grant.try_reserve(all) {
                    reserved += all;
                    fit = rows;
                } else {
                    // The grant runs out inside this batch: find the row.
                    for w in widths {
                        if !ctx.grant.try_reserve(w + HASH_ENTRY_OVERHEAD) {
                            spilled_build = Some(Spilled::new(&build_types));
                            break;
                        }
                        reserved += w + HASH_ENTRY_OVERHEAD;
                        fit += 1;
                    }
                }
            }
            match spilled_build.as_mut() {
                None => resident.append(batch)?,
                Some(spilled) => {
                    spilled.spill(&batch, build_ords, fit..rows, |_| true, ctx)?;
                    resident.append(batch.take(&(0..fit).collect::<Vec<_>>()))?;
                }
            }
        }
        let reg = hpd_obs::global();
        let spilled_rows = spilled_build.as_ref().map_or(0, |s| s.rows.num_rows());
        reg.counter("exec.hashjoin.build_rows")
            .add((resident.num_rows() + spilled_rows) as u64);
        reg.counter("exec.hashjoin.build_left")
            .add(u64::from(build_left));
        let build_keys = Keys::of(resident.columns(), build_ords, resident.num_rows());
        let build = Side::of(&resident, build_ords, &build_keys);
        let mut chains = Chains::new(resident.num_rows())?;
        chains.fill(build, (0..resident.num_rows()).rev());

        // Probe phase. A row whose partition holds spilled build rows is
        // spilled too, and meets them in the second pass.
        let mut out = Vec::new();
        let mut spilled_probe = Spilled::new(&probe_types);
        while let Some(batch) = probe_child.next(ctx)? {
            let rows = 0..batch.num_rows();
            if comparable {
                let keys = Keys::of(batch.columns(), probe_ords, batch.num_rows());
                let probe = Side::of(&batch, probe_ords, &keys);
                out.extend(chains.join(build, probe, rows.clone(), build_left));
            }
            if let Some(spilled) = &spilled_build {
                let meets = |p: usize| !spilled.partitions[p].rows.is_empty();
                spilled_probe.spill(&batch, probe_ords, rows, meets, ctx)?;
            }
        }
        ctx.grant.release(reserved);

        // Second pass over spilled partitions.
        if let Some(spilled_build) = spilled_build {
            let (build, probe) = (&spilled_build.rows, &spilled_probe.rows);
            let build_keys = Keys::of(build.columns(), build_ords, build.num_rows());
            let probe_keys = Keys::of(probe.columns(), probe_ords, probe.num_rows());
            let build = Side::of(build, build_ords, &build_keys);
            let probe = Side::of(probe, probe_ords, &probe_keys);
            let mut chains = Chains::new(spilled_build.rows.num_rows())?;
            let parts = spilled_build.partitions.iter();
            for (build_part, probe_part) in parts.zip(&spilled_probe.partitions) {
                build_part.read_back(ctx);
                probe_part.read_back(ctx);
                if comparable && !build_part.rows.is_empty() {
                    chains.fill(build, build_part.rows.iter().rev().copied());
                    let rows = probe_part.rows.iter().copied();
                    out.extend(chains.join(build, probe, rows, build_left));
                }
            }
        }
        Ok(out)
    }
}

impl Operator for HashJoinOp<'_> {
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

/// Index nested-loop join: for each outer row, seek a B+ tree on a key
/// formed from outer columns and emit `outer ++ payload` for every match.
/// This is the plan shape DTA's hybrid recommendations exploit: selective
/// dimension predicates drive cheap seeks into a large fact-table index.
///
/// An outer batch yields one output batch: every matching payload is
/// decoded from the leaf straight into typed columns, and the outer columns
/// are gathered once at the rows that matched.
pub struct IndexLookupJoinOp<'a> {
    outer: PlanNode<'a>,
    tree: &'a BTree,
    /// Outer column ordinals forming the seek key (a prefix of the tree key).
    key_columns: Vec<usize>,
    payload_types: Vec<DataType>,
    types: Vec<DataType>,
    /// The seek bounds, refilled for each outer row: the prefix, and the
    /// prefix followed by the sentinel — so exactly the entries starting
    /// with the prefix are pulled (a probe that matches one row touches one
    /// row).
    lo: Key,
    hi: Key,
}

impl<'a> IndexLookupJoinOp<'a> {
    pub fn new(
        outer: PlanNode<'a>,
        tree: &'a BTree,
        key_columns: Vec<usize>,
        payload_types: Vec<DataType>,
    ) -> IndexLookupJoinOp<'a> {
        let mut types = outer.out_types();
        types.extend(payload_types.iter().copied());
        let prefix = vec![Value::sentinel_max(); key_columns.len()];
        let mut bound = prefix.clone();
        bound.push(Value::sentinel_max());
        IndexLookupJoinOp {
            outer,
            tree,
            key_columns,
            payload_types,
            types,
            lo: Key::new(prefix),
            hi: Key::new(bound),
        }
    }
}

/// Append the encoded values of one index payload to `columns`, one each.
fn push_payload(columns: &mut [ColumnVector], payload: &[u8]) -> Result<()> {
    let mut values = codec::values(payload);
    for col in columns.iter_mut() {
        match values.next() {
            Some(v) => col.push_ref(v)?,
            None => return Err(HpdError::Internal("index payload too short".into())),
        }
    }
    match values.next() {
        None => Ok(()),
        Some(_) => Err(HpdError::Internal("index payload too long".into())),
    }
}

impl Operator for IndexLookupJoinOp<'_> {
    fn out_types(&self) -> Vec<DataType> {
        self.types.clone()
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        while let Some(batch) = self.outer.next(ctx)? {
            let mut outer_idx: Vec<usize> = Vec::new();
            let mut payload: Vec<ColumnVector> = self
                .payload_types
                .iter()
                .map(|&t| ColumnVector::with_capacity(t, batch.num_rows()))
                .collect();
            let mut failed = None;
            for i in 0..batch.num_rows() {
                for (k, &col) in self.key_columns.iter().enumerate() {
                    let v = batch.column(col).value(i);
                    self.lo.set(k, v.clone());
                    self.hi.set(k, v);
                }
                let mut cursor =
                    self.tree
                        .cursor_seek(Bound::Included(&self.lo), ctx.pool, &ctx.tracker);
                self.tree.cursor_walk(
                    &mut cursor,
                    Bound::Included(&self.hi),
                    usize::MAX,
                    ctx.pool,
                    &ctx.tracker,
                    |entry| {
                        outer_idx.push(i);
                        if let Err(e) = push_payload(&mut payload, entry.payload) {
                            failed.get_or_insert(e);
                        }
                    },
                );
            }
            if let Some(e) = failed {
                return Err(e);
            }
            if !outer_idx.is_empty() {
                let outer = batch.columns().iter().map(|c| c.take(&outer_idx));
                return Ok(Some(Batch::new(outer.chain(payload).collect())));
            }
        }
        Ok(None)
    }
}
