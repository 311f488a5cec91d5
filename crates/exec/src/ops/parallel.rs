//! Intra-query parallelism: run N worker sub-plans over pooled threads and
//! gather their batches. This is the engine's only query-side dispatcher —
//! the splits of one scan and the lanes of a partition gather both run
//! here.
//!
//! The planner chooses the degree of parallelism (DOP) and passes it in;
//! the sub-plan count only bounds it. Threads come from the context's
//! shared [`WorkerPool`](crate::sched::WorkerPool), not raw spawns: the
//! operator leases up to `min(sub-plans, DOP) - 1` extra threads and runs
//! the sub-plans off a shared work queue, with the coordinating thread
//! always participating as one lane, and gathers their batches. At DOP 1 it
//! takes no lease and pulls the sub-plans in order on the calling thread, a
//! batch at a time, gathering nothing. When the pool is busy the
//! lease comes back short — the same plan executes at a lower effective DOP
//! (fully serial at zero) instead of oversubscribing the machine. Output
//! batches are in sub-plan order whatever the effective DOP.
//!
//! Each lane's busy time is accumulated into the context so "CPU time"
//! counts total work while wall time reflects the parallel speedup — the
//! split visible between Figures 1(a) and 1(b) of the paper, where switching
//! to a parallel plan drops execution time but jumps CPU time. A clamped
//! lease lengthens the critical path (one lane runs several sub-plans), so
//! DOP degradation shows up in modelled elapsed time exactly like it would
//! on a loaded server.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use hpd_common::{Batch, DataType, HpdError, Result};
use parking_lot::Mutex;

use crate::ctx::ExecCtx;
use crate::ops::{collect, Operator, PlanNode};

/// Executes worker sub-plans concurrently and yields their output batches.
pub struct ParallelOp<'a> {
    /// The sub-plans not yet exhausted (serially) or not yet started.
    workers: VecDeque<PlanNode<'a>>,
    dop: usize,
    types: Vec<DataType>,
    /// The threaded path's gathered batches, in sub-plan order.
    output: Option<std::vec::IntoIter<Batch>>,
}

impl<'a> ParallelOp<'a> {
    /// `workers` must all produce the same output schema; at most `dop` of
    /// them run at once.
    pub fn new(workers: Vec<PlanNode<'a>>, dop: usize) -> ParallelOp<'a> {
        assert!(!workers.is_empty(), "ParallelOp needs at least one worker");
        let types = workers[0].out_types();
        debug_assert!(workers.iter().all(|w| w.out_types() == types));
        ParallelOp {
            dop: dop.clamp(1, workers.len()),
            workers: workers.into(),
            types,
            output: None,
        }
    }

    pub fn dop(&self) -> usize {
        self.dop
    }

    fn run(&mut self, ctx: &ExecCtx<'_>) -> Result<Vec<Batch>> {
        let workers = std::mem::take(&mut self.workers);
        let n = workers.len();
        // Lease extra threads; the coordinator is always one lane, so DOP d
        // needs at most d-1 extras. A short (even zero) lease degrades the
        // effective DOP instead of blocking or over-spawning.
        let lease = ctx.workers.try_acquire(self.dop - 1);
        let extra = lease.granted();

        let scope_start = Instant::now();
        // Index-tagged work queue; lanes pop from the back so sub-plans are
        // claimed in order, and results land in their slot to keep the
        // output batch order identical to the per-thread original.
        let queue: Mutex<Vec<(usize, PlanNode<'a>)>> =
            Mutex::new(workers.into_iter().enumerate().rev().collect());
        let results: Mutex<Vec<Option<Result<Vec<Batch>>>>> =
            Mutex::new((0..n).map(|_| None).collect());
        let run_lane = |wctx: &ExecCtx<'_>| {
            let lane = wctx.lane();
            let start = Instant::now();
            loop {
                let item = queue.lock().pop();
                let Some((idx, mut plan)) = item else { break };
                let out = collect(plan.as_mut(), &lane);
                results.lock()[idx] = Some(out);
            }
            let busy = start.elapsed();
            wctx.add_worker(lane.cpu_time(busy), lane.critical_path(busy));
        };

        // A panicking lane fails the query, not the process. With the pool
        // exhausted (no extra thread) the coordinator runs every sub-plan.
        catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                for _ in 0..extra {
                    let wctx = ctx.clone();
                    let run_lane = &run_lane;
                    scope.spawn(move || run_lane(&wctx));
                }
                run_lane(ctx);
            })
        }))
        .map_err(|_| HpdError::Internal("parallel scope panicked".into()))?;
        drop(lease);
        ctx.add_parallel_wall(scope_start.elapsed());

        let mut batches = Vec::new();
        for r in results.into_inner() {
            batches.extend(r.expect("every sub-plan was claimed by a lane")?);
        }
        Ok(batches)
    }
}

impl Operator for ParallelOp<'_> {
    fn out_types(&self) -> Vec<DataType> {
        self.types.clone()
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<Batch>> {
        if self.dop == 1 {
            // Serial: no lease, the sub-plans are pulled in order right here.
            while let Some(worker) = self.workers.front_mut() {
                if let Some(batch) = worker.next(ctx)? {
                    return Ok(Some(batch));
                }
                self.workers.pop_front();
            }
            return Ok(None);
        }
        if self.output.is_none() {
            let batches = self.run(ctx)?;
            self.output = Some(batches.into_iter());
        }
        Ok(self.output.as_mut().expect("initialized above").next())
    }
}
