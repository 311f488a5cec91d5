//! Access-path operators: B+ tree range scans (row mode), columnstore scans
//! (batch mode), and an in-memory values source.

use std::collections::HashMap;
use std::ops::Bound;

use hpd_btree::{BTree, Cursor};
use hpd_columnstore::{ColumnStoreIndex, CsiScan, SharedProbe};
use hpd_common::{push_encoded_row, Batch, ColumnVector, DataType, Interval, Key, Result, Row};
use hpd_storage::Work;

use crate::ctx::ExecCtx;
use crate::ops::Operator;

/// Rows a row-mode operator materializes per output batch.
pub const ROW_MODE_BATCH: usize = 512;

/// An in-memory batch source (materialized inputs, tests, VALUES lists).
pub struct ValuesOp {
    types: Vec<DataType>,
    batches: std::vec::IntoIter<Batch>,
}

impl ValuesOp {
    pub fn new(types: Vec<DataType>, batches: Vec<Batch>) -> ValuesOp {
        ValuesOp {
            types,
            batches: batches.into_iter(),
        }
    }

    pub fn from_rows(types: Vec<DataType>, rows: &[Row]) -> Result<ValuesOp> {
        let batch = Batch::from_rows(&types, rows)?;
        Ok(ValuesOp::new(types, vec![batch]))
    }
}

impl Operator for ValuesOp {
    fn out_types(&self) -> Vec<DataType> {
        self.types.clone()
    }

    fn next(&mut self, _ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        Ok(self.batches.next())
    }
}

/// Row-mode range scan over a B+ tree. Emits the tree's payload rows for
/// keys in `[lo, hi]`; the payload is the full row for a primary index or a
/// locator row for a secondary index.
pub struct BTreeRangeScanOp<'a> {
    tree: &'a BTree,
    types: Vec<DataType>,
    lo: Bound<Key>,
    hi: Bound<Key>,
    /// Where the scan goes on, once it has begun.
    cursor: Option<Cursor>,
}

impl<'a> BTreeRangeScanOp<'a> {
    pub fn new(
        tree: &'a BTree,
        types: Vec<DataType>,
        lo: Bound<Key>,
        hi: Bound<Key>,
    ) -> BTreeRangeScanOp<'a> {
        BTreeRangeScanOp {
            tree,
            types,
            lo,
            hi,
            cursor: None,
        }
    }

    /// Full scan of the leaf level.
    pub fn full(tree: &'a BTree, types: Vec<DataType>) -> BTreeRangeScanOp<'a> {
        BTreeRangeScanOp::new(tree, types, Bound::Unbounded, Bound::Unbounded)
    }
}

impl Operator for BTreeRangeScanOp<'_> {
    fn out_types(&self) -> Vec<DataType> {
        self.types.clone()
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        let cursor = self.cursor.get_or_insert_with(|| {
            ctx.tracker.count(Work::ScanLanes, 1);
            (self.tree).cursor_seek(bound_ref(&self.lo), ctx.pool, &ctx.tracker)
        });
        if cursor.is_exhausted() {
            return Ok(None);
        }
        let mut columns: Vec<ColumnVector> = (self.types.iter())
            .map(|&t| ColumnVector::with_capacity(t, ROW_MODE_BATCH))
            .collect();
        let (mut rows, mut failed) = (0, None);
        let hi = bound_ref(&self.hi);
        (self.tree).cursor_walk(cursor, hi, ROW_MODE_BATCH, ctx.pool, &ctx.tracker, |e| {
            rows += 1;
            if let Err(e) = push_encoded_row(&mut columns, e.payload) {
                failed.get_or_insert(e);
            }
        });
        if let Some(e) = failed {
            return Err(e);
        }
        // A walk that stops short of its end has filled the batch.
        Ok((rows > 0).then(|| Batch::new(columns)))
    }
}

/// Batch-mode scan over a columnstore index: a subset of row groups (for
/// parallel partitioning) plus optionally the delta store, with segment
/// elimination and delete handling — a [`CsiScan`] pulled a batch at a time.
pub struct CsiScanOp<'a> {
    scan: CsiScan<'a>,
    types: Vec<DataType>,
    started: bool,
}

impl<'a> CsiScanOp<'a> {
    /// Scan everything: all row groups plus the delta store. The anti-join
    /// probe is built lazily on first pull.
    pub fn full(
        index: &'a ColumnStoreIndex,
        projection: Vec<usize>,
        intervals: HashMap<usize, Interval>,
    ) -> CsiScanOp<'a> {
        let all: Vec<usize> = (0..index.num_rowgroups()).collect();
        CsiScanOp::over_rowgroups(index, all, projection, intervals, true, Default::default())
    }

    /// Scan a specific row-group subset — the unit of parallel partitioning.
    /// The scans of one index share `probe`: whichever pulls first builds
    /// it, into the statement's tracker.
    pub fn over_rowgroups(
        index: &'a ColumnStoreIndex,
        rowgroups: Vec<usize>,
        projection: Vec<usize>,
        intervals: HashMap<usize, Interval>,
        include_delta: bool,
        probe: SharedProbe,
    ) -> CsiScanOp<'a> {
        let types = projection
            .iter()
            .map(|&c| index.schema().column(c).dtype)
            .collect();
        CsiScanOp {
            scan: index.scan_rowgroups(rowgroups, projection, intervals, include_delta, probe),
            types,
            started: false,
        }
    }
}

impl Operator for CsiScanOp<'_> {
    fn out_types(&self) -> Vec<DataType> {
        self.types.clone()
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if !std::mem::replace(&mut self.started, true) {
            ctx.tracker.count(Work::ScanLanes, 1);
        }
        Ok(self.scan.next_batch(ctx.pool, &ctx.tracker))
    }
}

fn bound_ref(b: &Bound<Key>) -> Bound<&Key> {
    match b {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(k) => Bound::Included(k),
        Bound::Excluded(k) => Bound::Excluded(k),
    }
}
