//! Per-operator runtime statistics for `EXPLAIN ANALYZE`.
//!
//! [`ProfiledOp`] wraps any [`Operator`] and accumulates actual rows,
//! batches, `next()` calls, inclusive wall time, spill activity, and the
//! grant's memory high-water mark into a shared [`OpStats`]. The wrapper
//! costs one `Instant::now()` pair and a handful of relaxed atomic adds per
//! `next()` call — batches carry hundreds to thousands of rows, so the
//! overhead is far below the noise floor of execution itself.
//!
//! One `Arc<OpStats>` may be shared by several wrappers: parallel scan
//! partitions all report into their plan node's single stats cell, so
//! `rows` is the node's true total and `wall_ns` is the node's total busy
//! time across workers (not coordinator elapsed time).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hpd_common::{Batch, DataType, Result};

use crate::ctx::ExecCtx;
use crate::ops::{Operator, PlanNode};

/// Accumulated actuals for one plan node. All counters are relaxed atomics;
/// read them after the query has drained.
#[derive(Debug, Default)]
pub struct OpStats {
    pub rows: AtomicU64,
    pub batches: AtomicU64,
    pub next_calls: AtomicU64,
    /// Inclusive wall time spent inside this node's `next()` (summed across
    /// workers when partitions share the cell).
    pub wall_ns: AtomicU64,
    /// Bytes spilled by the whole context while this node's `next()` was on
    /// the stack (inclusive of children; memory-intensive operators sit
    /// above scans, so in practice the spiller is the node charged).
    pub spilled_bytes: AtomicU64,
    /// Number of `next()` calls during which spill activity occurred.
    pub spill_events: AtomicU64,
    /// Highest grant usage observed when this node returned a batch.
    pub mem_peak_bytes: AtomicU64,
}

impl OpStats {
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }
}

/// Transparent instrumentation wrapper around an operator.
pub struct ProfiledOp<'a> {
    inner: PlanNode<'a>,
    stats: Arc<OpStats>,
    /// Trace span covering the operator's lifetime (lowering to drop),
    /// present only when tracing is enabled at wrap time. Detached so a
    /// partition moved into a worker thread can drop it safely.
    span: Option<hpd_obs::trace::DetachedSpan>,
}

impl<'a> ProfiledOp<'a> {
    pub fn new(inner: PlanNode<'a>, stats: Arc<OpStats>) -> ProfiledOp<'a> {
        ProfiledOp {
            inner,
            stats,
            span: None,
        }
    }

    /// Also record an `op` trace span (child of the current span, finished
    /// when the operator drops) labelled with the plan node's description.
    pub fn with_span(mut self, label: &str) -> ProfiledOp<'a> {
        let mut span = hpd_obs::trace::detached_span("op");
        if span.is_recording() {
            span.attr("op", label);
            self.span = Some(span);
        }
        self
    }
}

impl Drop for ProfiledOp<'_> {
    fn drop(&mut self) {
        if let Some(span) = &mut self.span {
            let s = &self.stats;
            span.attr("rows", s.rows.load(Ordering::Relaxed));
            span.attr("batches", s.batches.load(Ordering::Relaxed));
            span.attr("busy_us", s.wall_ns.load(Ordering::Relaxed) / 1_000);
            let spilled = s.spilled_bytes.load(Ordering::Relaxed);
            if spilled > 0 {
                span.attr("spilled_bytes", spilled);
            }
        }
        // self.span drops next and records itself.
    }
}

impl Operator for ProfiledOp<'_> {
    fn out_types(&self) -> Vec<DataType> {
        self.inner.out_types()
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        let spill_before = ctx.tracker.spilled_bytes();
        let start = Instant::now();
        let out = self.inner.next(ctx);
        let wall = start.elapsed().as_nanos() as u64;
        let s = &self.stats;
        s.next_calls.fetch_add(1, Ordering::Relaxed);
        s.wall_ns.fetch_add(wall, Ordering::Relaxed);
        let spilled = ctx.tracker.spilled_bytes().saturating_sub(spill_before);
        if spilled > 0 {
            s.spilled_bytes.fetch_add(spilled, Ordering::Relaxed);
            s.spill_events.fetch_add(1, Ordering::Relaxed);
        }
        s.mem_peak_bytes
            .fetch_max(ctx.grant.peak_bytes() as u64, Ordering::Relaxed);
        if let Ok(Some(batch)) = &out {
            s.rows.fetch_add(batch.num_rows() as u64, Ordering::Relaxed);
            s.batches.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::collect_rows;
    use crate::ValuesOp;
    use hpd_common::{Row, Value};
    use hpd_storage::{BufferPool, DeviceProfile};

    #[test]
    fn counts_rows_batches_and_calls() {
        let pool = BufferPool::unbounded(DeviceProfile::ram());
        let ctx = ExecCtx::new(&pool);
        let rows: Vec<Row> = (0..10).map(|i| Row::new(vec![Value::Int32(i)])).collect();
        let values = ValuesOp::from_rows(vec![DataType::Int32], &rows).unwrap();
        let stats = Arc::new(OpStats::default());
        let mut op = ProfiledOp::new(Box::new(values), Arc::clone(&stats));
        let out = collect_rows(&mut op, &ctx).unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(stats.rows(), 10);
        assert!(stats.batches.load(Ordering::Relaxed) >= 1);
        // One extra call returns None to end the stream.
        assert!(stats.next_calls.load(Ordering::Relaxed) > stats.batches.load(Ordering::Relaxed));
        assert_eq!(stats.spilled_bytes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn shared_stats_accumulate_across_wrappers() {
        let pool = BufferPool::unbounded(DeviceProfile::ram());
        let ctx = ExecCtx::new(&pool);
        let stats = Arc::new(OpStats::default());
        for _ in 0..3 {
            let rows: Vec<Row> = (0..5).map(|i| Row::new(vec![Value::Int32(i)])).collect();
            let mut op = ProfiledOp::new(
                Box::new(ValuesOp::from_rows(vec![DataType::Int32], &rows).unwrap()),
                Arc::clone(&stats),
            );
            collect_rows(&mut op, &ctx).unwrap();
        }
        assert_eq!(stats.rows(), 15);
    }
}
