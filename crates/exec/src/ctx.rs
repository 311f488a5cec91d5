//! Execution context and metrics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hpd_storage::{BufferPool, IoSnapshot, IoTracker, SpillManager};

use crate::memory::MemoryGrant;
use crate::sched::WorkerPool;

/// Everything an operator needs at runtime. Cheap to clone; clones share
/// the tracker, grant, and CPU accumulator (parallel workers take clones).
#[derive(Clone)]
pub struct ExecCtx<'a> {
    pub pool: &'a BufferPool,
    pub tracker: IoTracker,
    pub grant: MemoryGrant,
    pub spill: SpillManager,
    /// Shared worker-thread budget parallel operators draw from. Contexts
    /// built outside the engine get an unbounded pool; the engine passes its
    /// one shared pool so concurrent queries arbitrate threads.
    pub workers: WorkerPool,
    /// Busy time accumulated by parallel workers, nanoseconds.
    worker_cpu_ns: Arc<AtomicU64>,
    /// Wall time the coordinator spent blocked inside parallel sections,
    /// nanoseconds. Subtracted when deriving CPU time from wall time.
    parallel_wall_ns: Arc<AtomicU64>,
    /// Longest single worker's busy time, nanoseconds: the parallel
    /// section's critical path. On machines with fewer cores than the DOP
    /// the workers serialize, so elapsed time is *modelled* as
    /// `wall - parallel_wall + worker_critical_path` — the time an
    /// adequately provisioned machine (like the paper's 40-way server)
    /// would take.
    worker_max_ns: Arc<AtomicU64>,
}

impl<'a> ExecCtx<'a> {
    /// Context with an effectively unlimited memory grant.
    pub fn new(pool: &'a BufferPool) -> ExecCtx<'a> {
        ExecCtx::with_grant(pool, u64::MAX as usize >> 2)
    }

    /// Context with a bounded query working memory ("grant memory" in SQL
    /// Server terms).
    pub fn with_grant(pool: &'a BufferPool, grant_bytes: usize) -> ExecCtx<'a> {
        ExecCtx::with_resources(pool, MemoryGrant::new(grant_bytes), WorkerPool::unbounded())
    }

    /// Context running against engine-shared resources: a broker-issued
    /// memory grant and the engine's worker-thread pool.
    pub fn with_resources(
        pool: &'a BufferPool,
        grant: MemoryGrant,
        workers: WorkerPool,
    ) -> ExecCtx<'a> {
        ExecCtx {
            pool,
            tracker: IoTracker::new(),
            grant,
            spill: SpillManager::new(*pool.device()),
            workers,
            worker_cpu_ns: Arc::new(AtomicU64::new(0)),
            parallel_wall_ns: Arc::new(AtomicU64::new(0)),
            worker_max_ns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Context for one lane of a parallel section: the same resources, its
    /// own time accumulators. A section nested inside the lane reports to
    /// the lane, and the lane reports its totals upward through
    /// [`ExecCtx::add_worker`], so nested sections compose instead of being
    /// counted twice.
    pub fn lane(&self) -> ExecCtx<'a> {
        ExecCtx {
            worker_cpu_ns: Arc::default(),
            parallel_wall_ns: Arc::default(),
            worker_max_ns: Arc::default(),
            ..self.clone()
        }
    }

    /// Record one finished lane of a parallel section: the CPU it used and
    /// its modelled elapsed time (both its busy time, unless a section
    /// nested inside it says otherwise).
    pub fn add_worker(&self, cpu: Duration, critical_path: Duration) {
        self.worker_cpu_ns
            .fetch_add(cpu.as_nanos() as u64, Ordering::Relaxed);
        self.worker_max_ns
            .fetch_max(critical_path.as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn worker_cpu(&self) -> Duration {
        Duration::from_nanos(self.worker_cpu_ns.load(Ordering::Relaxed))
    }

    /// Record wall time spent blocked waiting for parallel workers.
    pub fn add_parallel_wall(&self, blocked: Duration) {
        self.parallel_wall_ns
            .fetch_add(blocked.as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn parallel_wall(&self) -> Duration {
        Duration::from_nanos(self.parallel_wall_ns.load(Ordering::Relaxed))
    }

    /// Derive total CPU time for a query that ran for `wall` on the
    /// coordinator: coordinator busy time (wall minus blocked-on-workers)
    /// plus every worker's busy time.
    pub fn cpu_time(&self, wall: Duration) -> Duration {
        wall.saturating_sub(self.parallel_wall()) + self.worker_cpu()
    }

    /// Modelled elapsed compute time: the coordinator's busy time plus the
    /// parallel section's critical path (longest worker). Equals `wall` on
    /// a machine with enough cores; on smaller machines it reports what the
    /// paper's 40-way server would observe.
    pub fn critical_path(&self, wall: Duration) -> Duration {
        wall.saturating_sub(self.parallel_wall())
            + Duration::from_nanos(self.worker_max_ns.load(Ordering::Relaxed))
    }
}

/// Measured + simulated cost of one query execution.
///
/// * `wall` — real time spent executing (all parallel workers run for real,
///   so this is genuine elapsed compute time);
/// * `cpu` — `wall` of the coordinating thread plus the busy time of every
///   parallel worker (the "CPU time" axis of the paper's Figure 1(b));
/// * `io` — simulated device activity from the storage layer;
/// * `io_dop` — how many streams the plan's I/O was spread across; the
///   simulated I/O time is divided by it when computing elapsed time.
#[derive(Debug, Clone)]
pub struct ExecMetrics {
    pub wall: Duration,
    pub cpu: Duration,
    /// Modelled elapsed compute: coordinator busy time + longest worker
    /// (see [`ExecCtx::critical_path`]). Equals `wall` for serial plans.
    pub critical_path: Duration,
    pub io: IoSnapshot,
    pub io_dop: usize,
    pub dop: usize,
    pub rows_returned: usize,
    pub memory_peak_bytes: usize,
}

impl ExecMetrics {
    /// End-to-end execution time in microseconds: modelled compute time
    /// (critical path) plus simulated device time. Positioning overlaps
    /// across `io_dop` parallel streams; transfer shares the single
    /// device's bandwidth and is never divided.
    pub fn elapsed_us(&self) -> f64 {
        // Positioning overlap is bounded by how many independent requests
        // there were: a scan that issued two segment reads cannot overlap
        // eight ways.
        let overlap = (self.io_dop.max(1) as u64).min(self.io.physical_reads.max(1)) as f64;
        self.critical_path.as_secs_f64() * 1e6 + self.io.sim_seek_us / overlap + self.io.sim_bw_us
    }

    /// CPU time in microseconds (work done, regardless of parallelism).
    pub fn cpu_us(&self) -> f64 {
        self.cpu.as_secs_f64() * 1e6
    }

    /// Bytes physically read from the simulated device.
    pub fn bytes_read(&self) -> u64 {
        self.io.bytes_read
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpd_storage::DeviceProfile;

    #[test]
    fn worker_cpu_accumulates_across_clones() {
        let pool = BufferPool::unbounded(DeviceProfile::ram());
        let ctx = ExecCtx::new(&pool);
        let c2 = ctx.clone();
        c2.add_worker(Duration::from_millis(5), Duration::from_millis(5));
        ctx.add_worker(Duration::from_millis(7), Duration::from_millis(7));
        assert_eq!(ctx.worker_cpu(), Duration::from_millis(12));
    }

    #[test]
    fn elapsed_divides_io_by_dop() {
        let m = ExecMetrics {
            wall: Duration::from_micros(100),
            cpu: Duration::from_micros(100),
            critical_path: Duration::from_micros(100),
            io: IoSnapshot {
                sim_seek_us: 4000.0,
                physical_reads: 16, // enough requests to overlap 4 ways
                ..Default::default()
            },
            io_dop: 4,
            dop: 4,
            rows_returned: 0,
            memory_peak_bytes: 0,
        };
        assert!((m.elapsed_us() - 1100.0).abs() < 1e-9);
        assert!((m.cpu_us() - 100.0).abs() < 1e-9);
    }
}
