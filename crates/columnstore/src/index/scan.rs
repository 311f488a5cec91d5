//! Scans: row-group elimination, predicates on the encoded segments, the
//! delete buffer's anti-join, batches cut from the surviving rows, and
//! aggregates folded on the encoded segments.

use std::collections::{HashMap, HashSet};
use std::ops::Bound;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

use hpd_btree::Cursor;
use hpd_common::agg::{Acc, Summary};
use hpd_common::{
    codec, AggFunc, Batch, ColumnVector, DataType, Interval, Key, Result, SelBitmap, Value,
};
use hpd_storage::{BufferPool, IoTracker, Work};

use super::ColumnStoreIndex;
use crate::encoding::{IntEncoding, FOR_DELTA_FRAME};
use crate::segment::Segment;

/// One aggregate to push down into the encoded fold
/// ([`ColumnStoreIndex::agg_collect`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushdownAgg {
    pub func: AggFunc,
    /// Aggregate input's column ordinal in this index's stored schema.
    /// COUNT ignores the values but the ordinal must still be valid.
    pub col: usize,
}

/// The rows `sel` selects of one segment, summarised by the encoded kernels
/// for the one accumulator ([`Acc::fold_summary`]).
struct Selected<'a> {
    segment: &'a Segment,
    sel: &'a SelBitmap,
    rows: usize,
}

impl Summary for Selected<'_> {
    fn rows(&self) -> usize {
        self.rows
    }

    fn int_total(&self) -> i128 {
        self.segment
            .sum_i128_masked(self.sel)
            .expect("integer-family column")
    }

    fn for_each_f64(&self, f: impl FnMut(f64)) {
        self.segment.for_each_f64_masked(self.sel, f);
    }

    fn min_max(&self) -> Option<(Value, Value)> {
        self.segment.min_max_masked(self.sel)
    }
}

impl ColumnStoreIndex {
    /// True if the row group cannot contain rows matching the intervals
    /// (segment elimination via per-segment min/max).
    pub fn rowgroup_eliminated(&self, rg_idx: usize, intervals: &HashMap<usize, Interval>) -> bool {
        let rg = &self.row_groups[rg_idx];
        intervals
            .iter()
            .any(|(&c, iv)| c < rg.num_columns() && rg.segment(c).eliminated_by(iv))
    }

    /// Snapshot the delete buffer into a probe set for anti-joins: a walk
    /// of its entries, each key owned once. Charges one scan of the buffer.
    /// Returns `None` when no anti-join is needed.
    pub fn antijoin_probe(&self, pool: &BufferPool, tracker: &IoTracker) -> Option<HashSet<Key>> {
        let buffer = self.delete_buffer.as_ref()?;
        if buffer.is_empty() {
            return None;
        }
        let mut keys = HashSet::with_capacity(buffer.len());
        buffer.for_each_encoded_entry(pool, tracker, |e| {
            keys.insert(e.to_key());
        });
        Some(keys)
    }

    /// Compute the surviving-row selection of one row group: live rows,
    /// AND-ed with every interval (evaluated in the encoded domain, with a
    /// typed-value gather fallback for untranslatable bound types), minus
    /// anti-joined buffered deletes. Charges I/O for `extra` segments plus
    /// predicate and anti-join key columns, and records heat and
    /// `columnstore.scan.*` pruning counters. Returns `None` when the row
    /// group is eliminated by min/max; otherwise the selection (possibly
    /// empty) and whether the typed fallback ran.
    fn rowgroup_selection(
        &self,
        rg_idx: usize,
        extra: &[usize],
        intervals: &HashMap<usize, Interval>,
        antijoin: Option<&HashSet<Key>>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Option<(SelBitmap, bool)> {
        let rg = &self.row_groups[rg_idx];
        if self.rowgroup_eliminated(rg_idx, intervals) {
            tracker.count(Work::RowsPrunedRowgroup, rg.active_rows() as u64);
            self.heat[rg_idx].prunes.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.heat[rg_idx].reads.fetch_add(1, Ordering::Relaxed);
        // Segments the scan reads: the caller's columns (projection or
        // aggregate inputs), anti-join keys, predicate columns. Each pays
        // its I/O once.
        let mut needed: Vec<usize> = extra.to_vec();
        if antijoin.is_some() {
            for &k in &self.key_ordinals {
                if !needed.contains(&k) {
                    needed.push(k);
                }
            }
        }
        for &c in intervals.keys() {
            if c < rg.num_columns() && !needed.contains(&c) {
                needed.push(c);
            }
        }
        for &c in &needed {
            rg.segment(c).charge_io(pool, tracker);
        }

        // Start from the live rows and AND in each predicate, evaluated in
        // the encoded domain.
        let mut sel = rg.live_mask();
        let mut fallback: Vec<(usize, &Interval)> = Vec::new();
        for (&c, iv) in intervals {
            if c >= rg.num_columns() {
                continue;
            }
            if sel.is_none_set() {
                break;
            }
            let seg = rg.segment(c);
            let before = sel.count();
            if seg.eval_interval(iv, &mut sel) {
                let pruned = (before - sel.count()) as u64;
                match seg.encoding() {
                    IntEncoding::Rle => tracker.count(Work::RowsPrunedRun, pruned),
                    _ => tracker.count(Work::RowsPrunedRow, pruned),
                }
            } else {
                fallback.push((c, iv));
            }
        }
        // Untranslatable bounds: gather the column at surviving positions
        // only and compare typed values.
        let fell_back = !fallback.is_empty();
        for (c, iv) in fallback {
            if sel.is_none_set() {
                break;
            }
            let positions = sel.positions();
            let vals = rg.segment(c).gather(&positions);
            let before = sel.count();
            for (i, &p) in positions.iter().enumerate() {
                if !iv.contains(&vals.value(i)) {
                    sel.clear(p);
                }
            }
            tracker.count(Work::RowsPrunedRow, (before - sel.count()) as u64);
        }
        // Anti-join against buffered deletes, probing keys gathered at
        // surviving positions, each refilled into one key (`Value`'s
        // equality: an `Int32` key finds an `Int64` column's value).
        if let Some(probe) = antijoin {
            if !sel.is_none_set() {
                let positions = sel.positions();
                let key_cols: Vec<ColumnVector> = self
                    .key_ordinals
                    .iter()
                    .map(|&k| rg.segment(k).gather(&positions))
                    .collect();
                let mut key = Key::new(Vec::new());
                for (i, &p) in positions.iter().enumerate() {
                    key.refill(key_cols.iter().map(|kc| kc.value(i)));
                    if probe.contains(&key) {
                        sel.clear(p);
                    }
                }
            }
        }

        let selected = sel.count();
        tracker.count(Work::RowsSelected, selected as u64);
        self.heat[rg_idx]
            .rows_read
            .fetch_add(selected as u64, Ordering::Relaxed);
        Some((sel, fell_back))
    }

    /// Begin a walk of the delta store ([`ColumnStoreIndex::delta_batch`]),
    /// counting a delta read.
    fn walk_delta(&self, pool: &BufferPool, tracker: &IoTracker) -> Option<Cursor> {
        self.delta_reads.fetch_add(1, Ordering::Relaxed);
        Some(self.delta.cursor_seek(Bound::Unbounded, pool, tracker))
    }

    /// The delta store read a batch at a time: the next at most
    /// [`SCAN_BATCH_ROWS`] rows from `walk` on that satisfy `intervals` —
    /// the same pushed-down intervals as the compressed scan's, compared
    /// with each value where it lies in its B+ tree entry — in key order,
    /// as `projection`'s columns built straight from the entries, no row
    /// decoded; `None` when all are out (`walk` is `None` once it has
    /// passed the last row). The delete buffer does *not* apply here:
    /// deletes of delta-resident rows are performed directly on the delta,
    /// so the anti-join only concerns compressed row groups.
    fn delta_batch(
        &self,
        walk: &mut Option<Cursor>,
        projection: &[usize],
        intervals: &HashMap<usize, Interval>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Option<Batch> {
        let cursor = walk.as_mut()?;
        let room = SCAN_BATCH_ROWS.min(self.delta_rows());
        let mut columns: Vec<ColumnVector> = (projection.iter())
            .map(|&c| ColumnVector::with_capacity(self.schema.column(c).dtype, room))
            .collect();
        let (mut kept, mut values) = (0, Vec::new());
        while kept < SCAN_BATCH_ROWS {
            let limit = SCAN_BATCH_ROWS - kept;
            let walked =
                (self.delta).cursor_walk(cursor, Bound::Unbounded, limit, pool, tracker, |e| {
                    values.clear();
                    values.extend(codec::values(e.payload));
                    let holds = |(&c, iv): (&usize, &Interval)| {
                        c >= values.len() || iv.contains_ref(values[c])
                    };
                    if intervals.iter().all(holds) {
                        for (column, &c) in columns.iter_mut().zip(projection) {
                            column
                                .push_ref(values[c])
                                .expect("delta rows match csi schema");
                        }
                        kept += 1;
                    }
                });
            if walked {
                *walk = None;
                break;
            }
        }
        (kept > 0).then(|| Batch::new(columns))
    }

    /// Bytes currently held by the decoded-segment cache (tests/metrics).
    pub fn decoded_cache_bytes_used(&self) -> usize {
        self.cache.bytes_used()
    }

    /// Evaluate covered aggregates directly on the encoded index — no row
    /// materialization. Compressed row groups fold on their encoded
    /// segments (run-arithmetic over RLE, frame-arithmetic over FOR/delta,
    /// code-histogram folding over dict); the delta's rows fold after all
    /// row groups, the same order a materializing scan feeds the aggregate
    /// operator, so order-sensitive f64 sums match bit-for-bit. Both fold
    /// into [`Acc`], the aggregate operators' accumulator, and finish from
    /// it.
    ///
    /// Returns `None` (before touching counters or I/O) when some
    /// aggregate has no pushdown kernel for its column type (SUM/AVG over
    /// `Utf8`) — the caller falls back to the scan path, which reports the
    /// same error the aggregate operators would.
    pub fn agg_collect(
        &self,
        aggs: &[PushdownAgg],
        intervals: &HashMap<usize, Interval>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Option<Result<Vec<Value>>> {
        let mut accs = Vec::with_capacity(aggs.len());
        for a in aggs {
            let dtype = self.schema.column(a.col).dtype;
            if dtype == DataType::Utf8 && matches!(a.func, AggFunc::Sum | AggFunc::Avg) {
                return None;
            }
            // Its one refusal, SUM over strings, returned above.
            accs.push(Acc::new(a.func, dtype).ok()?);
        }
        Some(self.agg_fold(aggs, accs, intervals, pool, tracker))
    }

    /// The fold behind [`ColumnStoreIndex::agg_collect`], each aggregate into
    /// its one-group accumulator.
    fn agg_fold(
        &self,
        aggs: &[PushdownAgg],
        mut accs: Vec<Acc>,
        intervals: &HashMap<usize, Interval>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Result<Vec<Value>> {
        // Segments the fold reads: every non-COUNT aggregate input.
        let mut agg_cols: Vec<usize> = Vec::new();
        for a in aggs {
            if a.func != AggFunc::Count && !agg_cols.contains(&a.col) {
                agg_cols.push(a.col);
            }
        }

        let antijoin = self.antijoin_probe(pool, tracker);
        for rg_idx in 0..self.row_groups.len() {
            let Some((sel, fell_back)) = self.rowgroup_selection(
                rg_idx,
                &agg_cols,
                intervals,
                antijoin.as_ref(),
                pool,
                tracker,
            ) else {
                continue;
            };
            if fell_back {
                tracker.count(Work::AggFallbackRowgroups, 1);
            } else {
                tracker.count(Work::AggPushdownRowgroups, 1);
            }
            let rows = sel.count();
            if rows == 0 {
                continue;
            }
            tracker.count(Work::AggRowsFolded, rows as u64);
            let rg = &self.row_groups[rg_idx];
            for (a, acc) in aggs.iter().zip(&mut accs) {
                let segment = rg.segment(a.col);
                acc.fold_summary(&Selected {
                    segment,
                    sel: &sel,
                    rows,
                })?;
            }
        }

        // Delta rows fold as the scan returns them (uncompressed; the delete
        // buffer does not apply here — delta deletes are performed in place).
        if self.delta_rows() > 0 {
            let cols: Vec<usize> = aggs.iter().map(|a| a.col).collect();
            let mut walk = self.walk_delta(pool, tracker);
            while let Some(batch) = self.delta_batch(&mut walk, &cols, intervals, pool, tracker) {
                tracker.count(Work::AggDeltaRows, batch.num_rows() as u64);
                for (acc, col) in accs.iter_mut().zip(batch.columns()) {
                    acc.fold_all(col)?;
                }
            }
        }

        let types = aggs.iter().map(|a| self.schema.column(a.col).dtype);
        let finished = accs.into_iter().zip(aggs).zip(types);
        finished
            .map(|((acc, a), dtype)| Ok(acc.finish(a.func.result_type(dtype), 1)?.value(0)))
            .collect()
    }

    /// Begin a sequential scan over all row groups then the delta store.
    pub fn begin_scan<'a>(
        &'a self,
        projection: Vec<usize>,
        intervals: HashMap<usize, Interval>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> CsiScan<'a> {
        let probe = Arc::new(OnceLock::from(self.antijoin_probe(pool, tracker)));
        let all = (0..self.num_rowgroups()).collect();
        self.scan_rowgroups(all, projection, intervals, true, probe)
    }

    /// A scan of the row groups `rowgroups`, in that order, then of the
    /// delta store if `delta` — the unit of parallel partitioning. `probe`
    /// is the anti-join probe the scans of a statement share.
    pub fn scan_rowgroups(
        &self,
        rowgroups: Vec<usize>,
        projection: Vec<usize>,
        intervals: HashMap<usize, Interval>,
        delta: bool,
        probe: SharedProbe,
    ) -> CsiScan<'_> {
        CsiScan {
            index: self,
            rowgroups: rowgroups.into_iter(),
            projection,
            intervals,
            antijoin: probe,
            delta,
            walk: None,
            fill_cache: true,
            open: None,
        }
    }

    /// Convenience: materialize a full scan (tests / small data).
    pub fn scan_collect(
        &self,
        projection: &[usize],
        intervals: &HashMap<usize, Interval>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Vec<Batch> {
        let mut scan = self.begin_scan(projection.to_vec(), intervals.clone(), pool, tracker);
        let mut out = Vec::new();
        while let Some(b) = scan.next_batch(pool, tracker) {
            if b.num_rows() > 0 {
                out.push(b);
            }
        }
        out
    }
}

/// The anti-join probe of an index's buffered deletes
/// ([`ColumnStoreIndex::antijoin_probe`]) that the scans of one statement
/// share: the first of them to pull builds it, against its own tracker.
pub type SharedProbe = Arc<OnceLock<Option<HashSet<Key>>>>;

/// The most rows a scan batch holds: a surviving row group, and the delta
/// store, leave the scan cut into batches of this size. A multiple of the
/// 64-row selection words and of [`FOR_DELTA_FRAME`], and small enough that
/// the operators above a scan work on a few cache-sized vectors at a time
/// instead of a whole row group's.
pub const SCAN_BATCH_ROWS: usize = 4096;
const _: () =
    assert!(SCAN_BATCH_ROWS.is_multiple_of(64) && SCAN_BATCH_ROWS.is_multiple_of(FOR_DELTA_FRAME));

/// Sequential scan state over a [`ColumnStoreIndex`].
pub struct CsiScan<'a> {
    index: &'a ColumnStoreIndex,
    rowgroups: std::vec::IntoIter<usize>,
    projection: Vec<usize>,
    intervals: HashMap<usize, Interval>,
    antijoin: SharedProbe,
    /// Whether the delta store is still to be scanned.
    delta: bool,
    /// Where the walk of the delta store goes on, once it has begun.
    walk: Option<Cursor>,
    /// Whether a whole row group's decode is kept in the decoded-segment
    /// cache.
    fill_cache: bool,
    /// The row group whose rows are being cut into batches.
    open: Option<Open<'a>>,
}

/// The surviving rows of one row group, not yet handed out: each projected
/// column as a cached decode or as its segment, and which of its rows
/// survived.
struct Open<'a> {
    columns: Vec<Source<'a>>,
    /// Surviving positions, ascending; `None` when every row survived.
    positions: Option<Vec<usize>>,
    rows: usize,
    /// Rows handed out so far.
    at: usize,
}

enum Source<'a> {
    /// The whole column decoded: the cache's own `Arc`.
    Decoded(Arc<ColumnVector>),
    /// Left encoded; each batch gathers its positions or its range.
    Encoded(&'a Segment),
}

impl Open<'_> {
    /// The next at most [`SCAN_BATCH_ROWS`] rows, or `None` when all are out.
    fn cut(&mut self) -> Option<Batch> {
        if self.at == self.rows {
            return None;
        }
        let range = self.at..(self.at + SCAN_BATCH_ROWS).min(self.rows);
        self.at = range.end;
        let positions = self.positions.as_ref().map(|p| &p[range.clone()]);
        let mut span = None;
        let columns = (self.columns.iter())
            .map(|source| match (source, positions) {
                (Source::Decoded(col), None) => col.slice(range.clone()),
                (Source::Decoded(col), Some(at)) => col.take(at),
                (Source::Encoded(seg), Some(at)) => seg.gather(at),
                (Source::Encoded(seg), None) => {
                    seg.gather(span.get_or_insert_with(|| range.clone().collect::<Vec<_>>()))
                }
            })
            .collect();
        Some(Batch::new(columns))
    }
}

impl<'a> CsiScan<'a> {
    /// This scan as a pass that reads every segment once (a checkpoint, an
    /// index build, statistics): it reuses a cached decode and keeps none of
    /// its own, gathering each batch from the encoded segments instead, so
    /// it neither evicts what repeated scans keep in the cache nor leaves
    /// the whole index decoded there, and holds one batch at a time.
    pub fn once(self) -> CsiScan<'a> {
        CsiScan {
            fill_cache: false,
            ..self
        }
    }

    /// Next batch of at most [`SCAN_BATCH_ROWS`] rows: the surviving row
    /// groups' rows in order, then the delta store's. `None` when
    /// exhausted. Eliminated row groups are skipped silently.
    pub fn next_batch(&mut self, pool: &BufferPool, tracker: &IoTracker) -> Option<Batch> {
        self.antijoin
            .get_or_init(|| self.index.antijoin_probe(pool, tracker));
        loop {
            if let Some(batch) = self.open.as_mut().and_then(Open::cut) {
                return Some(batch);
            }
            let Some(rg) = self.rowgroups.next() else {
                break;
            };
            self.open = self.open_rowgroup(rg, pool, tracker);
        }
        // The last row group's positions and decodes are not held through
        // the delta walk.
        self.open = None;
        if std::mem::take(&mut self.delta) && self.index.delta_rows() > 0 {
            self.walk = self.index.walk_delta(pool, tracker);
        }
        let (projection, intervals) = (&self.projection, &self.intervals);
        (self.index).delta_batch(&mut self.walk, projection, intervals, pool, tracker)
    }

    /// Open one row group with predicate pushdown and late materialization:
    /// every interval is evaluated **on the encoded segments** (falling back
    /// to materialized-value comparison only for untranslatable bound
    /// types), AND-ed into a packed selection bitmap seeded from the delete
    /// bitmap, and only the projected columns at *surviving* positions are
    /// decoded, a batch at a time. Returns `None` if the row group was
    /// eliminated or no row survived. The output satisfies all `intervals`
    /// exactly, so a planner whose predicate is fully covered by them needs
    /// no residual filter.
    fn open_rowgroup(
        &self,
        rg_idx: usize,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Option<Open<'a>> {
        let index = self.index;
        let (sel, _) = index.rowgroup_selection(
            rg_idx,
            &self.projection,
            &self.intervals,
            self.antijoin.get().and_then(Option::as_ref),
            pool,
            tracker,
        )?;
        let rg = &index.row_groups[rg_idx];
        let selected = sel.count();
        if selected == 0 {
            return None;
        }
        // The cache is asked once per segment here, whatever the number of
        // batches. Full survivals go through it (unless the scan is `once`)
        // and are sliced; a segment the cache does not hold stays encoded,
        // and each batch gathers its rows from it.
        let full = selected == rg.rows();
        let columns = (self.projection.iter())
            .map(|&c| {
                let seg = rg.segment(c);
                if full && self.fill_cache {
                    return Source::Decoded(index.cache.get_or_decode(seg, tracker));
                }
                index
                    .cache
                    .peek(seg, tracker)
                    .map_or(Source::Encoded(seg), Source::Decoded)
            })
            .collect();
        Some(Open {
            columns,
            positions: (!full).then(|| sel.positions()),
            rows: selected,
            at: 0,
        })
    }
}
