//! Per-query I/O accounting.
//!
//! An [`IoTracker`] is carried through an entire query execution (cloned
//! into parallel workers — counters are atomic) and accumulates logical and
//! physical I/O plus simulated I/O time. Benchmarks read an [`IoSnapshot`]
//! at the end of a run; "data read" in Figure 2(b) is
//! [`IoSnapshot::bytes_read`]. It also counts the [`Work`] the
//! execution did, which `EXPLAIN ANALYZE` reports per statement.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use hpd_obs::Counter;

/// Work counted per statement beside its I/O, by the tracker the
/// statement's operators charge: the columnstore's, which `EXPLAIN
/// ANALYZE`'s `pruning:` and `pushdown:` trailers report, and the
/// operators' own at the row/batch boundary and in fan-out. Operators count
/// once a batch, never a row. Each count also goes to the engine-wide
/// counter [`Work::counter_name`], which sums every statement at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// Rows skipped by whole-rowgroup (zone-map) elimination.
    RowsPrunedRowgroup,
    /// Rows cleared run-at-a-time by the RLE kernel.
    RowsPrunedRun,
    /// Rows cleared one at a time (bit-packed/raw kernels or fallback).
    RowsPrunedRow,
    /// Rows that survived every pushed-down interval.
    RowsSelected,
    /// Decoded-segment cache hits, misses and evictions.
    SegcacheHit,
    SegcacheMiss,
    SegcacheEvict,
    /// Row groups an aggregate folded on encoded segments, and those whose
    /// selection needed the typed-value fallback first.
    AggPushdownRowgroups,
    AggFallbackRowgroups,
    /// Compressed rows, and delta-store rows, folded into aggregates.
    AggRowsFolded,
    AggDeltaRows,
    /// Rows entering a row-mode Filter or Project, and a batch-mode one.
    RowModeRows,
    BatchModeRows,
    /// Scan streams started: one per split of a scan leaf that fans out,
    /// one for a serial scan.
    ScanLanes,
}

impl Work {
    /// Every kind of work, in discriminant order.
    pub const ALL: [Work; 14] = [
        Work::RowsPrunedRowgroup,
        Work::RowsPrunedRun,
        Work::RowsPrunedRow,
        Work::RowsSelected,
        Work::SegcacheHit,
        Work::SegcacheMiss,
        Work::SegcacheEvict,
        Work::AggPushdownRowgroups,
        Work::AggFallbackRowgroups,
        Work::AggRowsFolded,
        Work::AggDeltaRows,
        Work::RowModeRows,
        Work::BatchModeRows,
        Work::ScanLanes,
    ];

    /// The engine-wide counter this kind of work also adds to.
    pub fn counter_name(self) -> &'static str {
        match self {
            Work::RowsPrunedRowgroup => "columnstore.scan.rows_pruned_rowgroup",
            Work::RowsPrunedRun => "columnstore.scan.rows_pruned_run",
            Work::RowsPrunedRow => "columnstore.scan.rows_pruned_row",
            Work::RowsSelected => "columnstore.scan.rows_selected",
            Work::SegcacheHit => "columnstore.segcache.hit",
            Work::SegcacheMiss => "columnstore.segcache.miss",
            Work::SegcacheEvict => "columnstore.segcache.evict",
            Work::AggPushdownRowgroups => "columnstore.agg.pushdown_rowgroups",
            Work::AggFallbackRowgroups => "columnstore.agg.fallback_rowgroups",
            Work::AggRowsFolded => "columnstore.agg.rows_folded",
            Work::AggDeltaRows => "columnstore.agg.delta_rows",
            Work::RowModeRows => "exec.rows_row_mode",
            Work::BatchModeRows => "exec.rows_batch_mode",
            Work::ScanLanes => "exec.scan.lanes_started",
        }
    }
}

/// The engine-wide counters of [`Work::ALL`], in its order.
fn work_counters() -> &'static [Counter; Work::ALL.len()] {
    static C: OnceLock<[Counter; Work::ALL.len()]> = OnceLock::new();
    C.get_or_init(|| Work::ALL.map(|w| hpd_obs::global().counter(w.counter_name())))
}

/// Thread-safe accumulator of I/O activity for one query execution.
#[derive(Debug, Clone, Default)]
pub struct IoTracker {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    /// Pages/blobs touched regardless of residency (logical reads).
    logical_reads: AtomicU64,
    /// Requests that missed the buffer pool (physical reads).
    physical_reads: AtomicU64,
    /// Bytes physically read from the device.
    bytes_read: AtomicU64,
    /// Bytes physically written to the device (spills, index writes).
    bytes_written: AtomicU64,
    /// Of `bytes_written`, the bytes spill files took.
    spilled_bytes: AtomicU64,
    /// Simulated positioning (seek) time in nanoseconds.
    sim_seek_nanos: AtomicU64,
    /// Simulated transfer (bandwidth) time in nanoseconds.
    sim_bw_nanos: AtomicU64,
    /// [`Work`] counts, by variant.
    work: [AtomicU64; Work::ALL.len()],
}

impl IoTracker {
    pub fn new() -> IoTracker {
        IoTracker::default()
    }

    pub fn record_logical(&self, requests: u64) {
        self.inner
            .logical_reads
            .fetch_add(requests, Ordering::Relaxed);
    }

    /// Record a physical read: `(seek_us, bw_us)` are the positioning and
    /// transfer components of the simulated device time. Positioning can
    /// overlap across parallel streams; transfer shares the device's one
    /// bandwidth.
    pub fn record_physical_read(&self, requests: u64, bytes: u64, seek_us: f64, bw_us: f64) {
        self.inner
            .physical_reads
            .fetch_add(requests, Ordering::Relaxed);
        self.inner.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.add_sim_us(seek_us, bw_us);
    }

    pub fn record_write(&self, bytes: u64, seek_us: f64, bw_us: f64) {
        self.inner.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        self.add_sim_us(seek_us, bw_us);
    }

    /// Record a spill-file write: a write that is also counted as spilled.
    pub fn record_spill(&self, bytes: u64, seek_us: f64, bw_us: f64) {
        self.inner.spilled_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.record_write(bytes, seek_us, bw_us);
    }

    /// Bytes spilled so far (what [`IoSnapshot::spilled_bytes`] will say).
    pub fn spilled_bytes(&self) -> u64 {
        self.inner.spilled_bytes.load(Ordering::Relaxed)
    }

    fn add_sim_us(&self, seek_us: f64, bw_us: f64) {
        self.inner
            .sim_seek_nanos
            .fetch_add((seek_us * 1_000.0).round() as u64, Ordering::Relaxed);
        self.inner
            .sim_bw_nanos
            .fetch_add((bw_us * 1_000.0).round() as u64, Ordering::Relaxed);
    }

    /// Count `n` of `work`, here and in its engine-wide counter.
    pub fn count(&self, work: Work, n: u64) {
        self.inner.work[work as usize].fetch_add(n, Ordering::Relaxed);
        work_counters()[work as usize].add(n);
    }

    pub fn snapshot(&self) -> IoSnapshot {
        let c = &*self.inner;
        IoSnapshot {
            logical_reads: c.logical_reads.load(Ordering::Relaxed),
            physical_reads: c.physical_reads.load(Ordering::Relaxed),
            bytes_read: c.bytes_read.load(Ordering::Relaxed),
            bytes_written: c.bytes_written.load(Ordering::Relaxed),
            spilled_bytes: c.spilled_bytes.load(Ordering::Relaxed),
            sim_seek_us: c.sim_seek_nanos.load(Ordering::Relaxed) as f64 / 1_000.0,
            sim_bw_us: c.sim_bw_nanos.load(Ordering::Relaxed) as f64 / 1_000.0,
            work: std::array::from_fn(|i| c.work[i].load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time copy of an [`IoTracker`]'s counters: everything one
/// statement did to the device and inside the columnstore.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoSnapshot {
    pub logical_reads: u64,
    pub physical_reads: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Of `bytes_written`, the bytes spill files took.
    pub spilled_bytes: u64,
    /// Simulated positioning time in microseconds.
    pub sim_seek_us: f64,
    /// Simulated transfer (bandwidth) time in microseconds.
    pub sim_bw_us: f64,
    /// [`Work`] counts, by variant; read them with [`IoSnapshot::counted`].
    pub work: [u64; Work::ALL.len()],
}

impl IoSnapshot {
    /// How much of `work` was counted.
    pub fn counted(&self, work: Work) -> u64 {
        self.work[work as usize]
    }

    /// Total simulated device time (positioning + transfer).
    pub fn sim_io_us(&self) -> f64 {
        self.sim_seek_us + self.sim_bw_us
    }
}

impl std::ops::AddAssign for IoSnapshot {
    fn add_assign(&mut self, other: IoSnapshot) {
        self.logical_reads += other.logical_reads;
        self.physical_reads += other.physical_reads;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.spilled_bytes += other.spilled_bytes;
        self.sim_seek_us += other.sim_seek_us;
        self.sim_bw_us += other.sim_bw_us;
        for (w, o) in self.work.iter_mut().zip(other.work) {
            *w += o;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = IoTracker::new();
        t.record_logical(3);
        t.record_physical_read(2, 16_384, 80.0, 20.0);
        t.record_write(512, 0.5, 10.0);
        let s = t.snapshot();
        assert_eq!(s.logical_reads, 3);
        assert_eq!(s.physical_reads, 2);
        assert_eq!(s.bytes_read, 16_384);
        assert_eq!(s.bytes_written, 512);
        assert!((s.sim_io_us() - 110.5).abs() < 1e-6);
        assert!((s.sim_seek_us - 80.5).abs() < 1e-6);
    }

    #[test]
    fn clones_share_counters() {
        let t = IoTracker::new();
        let t2 = t.clone();
        t2.record_logical(5);
        assert_eq!(t.snapshot().logical_reads, 5);
    }

    #[test]
    fn spills_are_writes_counted_apart() {
        let t = IoTracker::new();
        t.record_write(100, 0.0, 1.0);
        t.record_spill(40, 0.0, 1.0);
        let s = t.snapshot();
        assert_eq!((s.bytes_written, s.spilled_bytes), (140, 40));
        assert_eq!(t.spilled_bytes(), 40);
    }

    #[test]
    fn work_counts_here_and_engine_wide() {
        let (a, b) = (IoTracker::new(), IoTracker::new());
        let global = || {
            hpd_obs::global()
                .snapshot()
                .counter("columnstore.agg.rows_folded")
        };
        let before = global();
        a.count(Work::AggRowsFolded, 5);
        b.count(Work::AggRowsFolded, 2);
        assert_eq!(
            (
                a.snapshot().counted(Work::AggRowsFolded),
                b.snapshot().counted(Work::AggRowsFolded)
            ),
            (5, 2)
        );
        assert_eq!(a.snapshot().counted(Work::AggDeltaRows), 0);
        assert!(global() - before >= 7);
        for (i, w) in Work::ALL.iter().enumerate() {
            assert_eq!(*w as usize, i, "{w:?}");
        }
    }

    #[test]
    fn snapshots_add_up() {
        let t = IoTracker::new();
        t.record_logical(2);
        t.count(Work::RowsSelected, 3);
        let mut sum = t.snapshot();
        sum += t.snapshot();
        assert_eq!(sum.logical_reads, 4);
        assert_eq!(sum.counted(Work::RowsSelected), 6);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let t = IoTracker::new();
        let mut hs = Vec::new();
        for _ in 0..8 {
            let t = t.clone();
            hs.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    t.record_logical(1);
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(t.snapshot().logical_reads, 80_000);
    }
}
