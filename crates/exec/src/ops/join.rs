//! Join operators: hash join (grace spill) and index-lookup join (the
//! "index seek + nested loops" pattern of the paper's hybrid plans, §5.3).

use std::ops::Bound;

use hpd_btree::BTree;
use hpd_common::{push_encoded_row, Batch, ColumnVector, DataType, HpdError, Key, Result, Value};

use crate::ctx::ExecCtx;
use crate::memory::MemoryGrant;
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
/// [`HashJoinOp::build_on`] says otherwise — is the build side, retained as
/// columns whose normalised keys (`Keys`) are hashed into one `Table` with
/// chains of rows in arrival order. The first `next()` builds; each call
/// then pulls probe batches until one matches and returns it joined:
/// `left ++ right` columns whichever side built, rows in probe order.
///
/// Build rows are charged to the memory grant as the row-at-a-time join
/// charged them (`Row::byte_width` + `HASH_ENTRY_OVERHEAD` each) until the
/// probe child is exhausted or the join is dropped. From the first row the
/// grant refuses on, build rows are hash-partitioned to spill files, probe
/// rows falling in their partitions are spilled alongside, and each
/// partition is joined after the probe (hybrid grace hash join).
pub struct HashJoinOp<'a> {
    left: PlanNode<'a>,
    right: PlanNode<'a>,
    /// Pairs of (left column, right column) equality keys.
    keys: Vec<(usize, usize)>,
    build: JoinSide,
    types: Vec<DataType>,
    /// What the build phase left, from the first `next()` on.
    built: Option<Built>,
    /// The grant the build rows are charged to and the bytes they hold,
    /// given back when the probe child is exhausted or the join is dropped.
    held: Option<(MemoryGrant, usize)>,
}

/// A built join: the resident build rows, hashed, and the spilled ones.
struct Built {
    build_left: bool,
    build_ords: Vec<usize>,
    probe_ords: Vec<usize>,
    /// Key columns of types `Value` never finds equal match nothing.
    comparable: bool,
    resident: Hashed,
    /// The spilled build rows and the probe rows that meet them.
    spilled: Option<(Spilled, Spilled)>,
    /// `None` while probing; then the spilled partition to join next.
    part: Option<usize>,
}

/// Build rows, their normalised keys and their hash table: `table` maps a
/// key to the first row carrying it, `next` chains the rows of a key in
/// arrival order.
struct Hashed {
    rows: Batch,
    keys: Keys,
    table: Table,
    next: Vec<u32>,
}

const END: u32 = u32::MAX;

impl Hashed {
    /// Hash `rows` last row first: each row goes to the head of its key's
    /// chain, which therefore runs in arrival order.
    fn new(rows: Batch, ords: &[usize]) -> Result<Hashed> {
        let n = rows.num_rows();
        if n >= END as usize {
            return Err(HpdError::Internal("hash join build side too large".into()));
        }
        let keys = Keys::of(rows.columns(), ords, n);
        let (mut table, mut next) = (Table::with_capacity(n), vec![END; n]);
        let at = (rows.columns(), ords);
        let same = keys.same(at, &keys, at);
        for row in (0..n).rev() {
            let hash = keys.hashes[row];
            let slot = table.slot(hash, |head| same.rows(row, head as usize));
            next[row] = table.id(slot).unwrap_or(END);
            table.set(slot, hash, row as u32);
        }
        Ok(Hashed {
            rows,
            keys,
            table,
            next,
        })
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
            built: None,
            held: None,
        }
    }

    /// Build the hash table on `side` and probe with the other; the output
    /// is the same multiset of `left ++ right` rows either way.
    pub fn build_on(mut self, side: JoinSide) -> HashJoinOp<'a> {
        self.build = side;
        self
    }

    /// The build phase: charge each row to the grant and keep it; from the
    /// first row the grant refuses on, spill.
    fn build(&mut self, ctx: &ExecCtx<'_>) -> Result<Built> {
        let (left_ords, right_ords): (Vec<usize>, Vec<usize>) = self.keys.iter().copied().unzip();
        let build_left = self.build == JoinSide::Left;
        let (build_child, build_ords, probe_child, probe_ords) = if build_left {
            (&mut self.left, left_ords, &self.right, right_ords)
        } else {
            (&mut self.right, right_ords, &self.left, left_ords)
        };
        let (build_types, probe_types) = (build_child.out_types(), probe_child.out_types());
        let mut resident = Batch::empty(&build_types);
        let mut spilled_build: Option<Spilled> = None;
        let (_, reserved) = self.held.insert((ctx.grant.clone(), 0));
        while let Some(batch) = build_child.next(ctx)? {
            let rows = batch.num_rows();
            let mut fit = 0;
            if spilled_build.is_none() {
                let widths = batch.row_byte_widths();
                let all = widths.iter().sum::<usize>() + rows * HASH_ENTRY_OVERHEAD;
                if ctx.grant.try_reserve(all) {
                    *reserved += all;
                    fit = rows;
                } else {
                    // The grant runs out inside this batch: find the row.
                    for w in widths {
                        if !ctx.grant.try_reserve(w + HASH_ENTRY_OVERHEAD) {
                            spilled_build = Some(Spilled::new(&build_types));
                            break;
                        }
                        *reserved += w + HASH_ENTRY_OVERHEAD;
                        fit += 1;
                    }
                }
            }
            match spilled_build.as_mut() {
                None => resident.append(batch)?,
                Some(spilled) => {
                    spilled.spill(&batch, &build_ords, fit..rows, |_| true, ctx)?;
                    resident.append(batch.slice(0..fit))?;
                }
            }
        }
        let reg = hpd_obs::global();
        let spilled_rows = spilled_build.as_ref().map_or(0, |s| s.rows.num_rows());
        reg.counter("exec.hashjoin.build_rows")
            .add((resident.num_rows() + spilled_rows) as u64);
        reg.counter("exec.hashjoin.build_left")
            .add(u64::from(build_left));
        Ok(Built {
            build_left,
            comparable: (build_ords.iter().zip(&probe_ords))
                .all(|(&b, &p)| key_class(build_types[b]) == key_class(probe_types[p])),
            resident: Hashed::new(resident, &build_ords)?,
            build_ords,
            probe_ords,
            spilled: spilled_build.map(|build| (build, Spilled::new(&probe_types))),
            part: None,
        })
    }
}

impl Built {
    /// `left ++ right` columns of every match of `probe`'s rows in `build`,
    /// rows in probe order, a probe row's matches in the order their build
    /// rows arrived; `None` when no row matched.
    fn join(&self, build: &Hashed, probe: &Batch) -> Option<Batch> {
        if !self.comparable {
            return None;
        }
        let rows = probe.num_rows();
        let keys = Keys::of(probe.columns(), &self.probe_ords, rows);
        let same = keys.same(
            (probe.columns(), &self.probe_ords),
            &build.keys,
            (build.rows.columns(), &self.build_ords),
        );
        // A foreign-key join matches every row once.
        let mut probe_idx = Vec::with_capacity(rows);
        let mut build_idx = Vec::with_capacity(rows);
        for row in 0..rows {
            let hash = keys.hashes[row];
            let slot = build.table.slot(hash, |head| same.rows(row, head as usize));
            let mut at = build.table.id(slot).unwrap_or(END);
            while at != END {
                probe_idx.push(row);
                build_idx.push(at as usize);
                at = build.next[at as usize];
            }
        }
        if probe_idx.is_empty() {
            return None;
        }
        let probe = probe.columns().iter().map(|c| c.take(&probe_idx));
        let build = build.rows.columns().iter().map(|c| c.take(&build_idx));
        Some(Batch::new(if self.build_left {
            build.chain(probe).collect()
        } else {
            probe.chain(build).collect()
        }))
    }
}

/// Give the build rows' grant bytes back.
fn give_back(held: &mut Option<(MemoryGrant, usize)>) {
    if let Some((grant, reserved)) = held.take() {
        grant.release(reserved);
    }
}

/// A join dropped before its probe child was exhausted — a `LIMIT` that
/// stopped pulling, or an error — gives its grant bytes back here.
impl Drop for HashJoinOp<'_> {
    fn drop(&mut self) {
        give_back(&mut self.held);
    }
}

impl Operator for HashJoinOp<'_> {
    fn out_types(&self) -> Vec<DataType> {
        self.types.clone()
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if self.built.is_none() {
            self.built = Some(self.build(ctx)?);
        }
        let built = self.built.as_mut().expect("built above");
        let probe_child = match self.build {
            JoinSide::Left => &mut self.right,
            JoinSide::Right => &mut self.left,
        };
        if built.part.is_none() {
            while let Some(batch) = probe_child.next(ctx)? {
                // A row whose partition holds spilled build rows is spilled
                // too, and meets them after the probe.
                if let Some((build, probe)) = &mut built.spilled {
                    let meets = |p: usize| !build.partitions[p].rows.is_empty();
                    probe.spill(&batch, &built.probe_ords, 0..batch.num_rows(), meets, ctx)?;
                }
                if let Some(out) = built.join(&built.resident, &batch) {
                    return Ok(Some(out));
                }
            }
            give_back(&mut self.held);
            built.part = Some(0);
        }
        // The spilled partitions in order, each joined as a join of its own.
        let Some((build, probe)) = &built.spilled else {
            return Ok(None);
        };
        while let Some(part) = built.part.filter(|&p| p < build.partitions.len()) {
            built.part = Some(part + 1);
            let (build_part, probe_part) = (&build.partitions[part], &probe.partitions[part]);
            build_part.read_back(ctx);
            probe_part.read_back(ctx);
            if built.comparable && !build_part.rows.is_empty() {
                let hashed = Hashed::new(build.rows.take(&build_part.rows), &built.build_ords)?;
                if let Some(out) = built.join(&hashed, &probe.rows.take(&probe_part.rows)) {
                    return Ok(Some(out));
                }
            }
        }
        // Done: the spill files go.
        built.spilled = None;
        Ok(None)
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
                        if let Err(e) = push_encoded_row(&mut payload, entry.payload) {
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
