//! Simulated spill files for memory-constrained sorts and hash aggregates.
//!
//! When an operator's working set exceeds its memory grant it spills runs /
//! partitions to "disk". The data stays in process memory (a `Vec<u8>`-less
//! simulation — operators keep their own row buffers), but every write and
//! subsequent read is charged to the query's [`IoTracker`] at the device's
//! sequential bandwidth. This reproduces the Figure 4 effect: once a
//! hash aggregate no longer fits its grant, the disk-based implementation
//! makes the columnstore plan slower than the B+ tree streaming aggregate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hpd_common::{faults, HpdError, Result};

use crate::device::DeviceProfile;
use crate::tracker::IoTracker;

/// Factory for spill files sharing one device profile.
///
/// The manager also owns the lifecycle ledger: every [`SpillFile`] it
/// creates is counted open until dropped, so tests can assert a query left
/// no spill state behind — on success *and* on every error path (injected
/// write failure, reduced-grant spill, admission timeout).
#[derive(Debug, Clone)]
pub struct SpillManager {
    device: DeviceProfile,
    live_files: Arc<AtomicU64>,
}

impl SpillManager {
    pub fn new(device: DeviceProfile) -> SpillManager {
        SpillManager {
            device,
            live_files: Arc::new(AtomicU64::new(0)),
        }
    }

    pub fn create_file(&self) -> SpillFile {
        self.live_files.fetch_add(1, Ordering::Relaxed);
        hpd_obs::global()
            .counter("storage.spill.files_opened")
            .inc();
        SpillFile {
            device: self.device,
            bytes: 0,
            live_files: Arc::clone(&self.live_files),
        }
    }

    /// Spill files created by this manager and not yet dropped. Zero once
    /// the owning query has completed or unwound.
    pub fn live_files(&self) -> u64 {
        self.live_files.load(Ordering::Relaxed)
    }
}

/// One simulated spill file. Writes accumulate a logical length; reads may
/// be issued any number of times (each full read of a run is charged).
#[derive(Debug)]
pub struct SpillFile {
    device: DeviceProfile,
    bytes: u64,
    live_files: Arc<AtomicU64>,
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        self.live_files.fetch_sub(1, Ordering::Relaxed);
        hpd_obs::global()
            .counter("storage.spill.files_closed")
            .inc();
    }
}

impl SpillFile {
    /// Append `bytes` to the file, charging sequential write cost.
    ///
    /// Fails only when the [`faults::sites::SPILL_WRITE_FAIL`] injection site
    /// is armed — the simulated device itself never errors. Nothing is
    /// charged or appended on failure, as if the write were rejected up
    /// front by a full spill volume.
    pub fn write(&mut self, bytes: u64, tracker: &IoTracker) -> Result<()> {
        if faults::fire(faults::sites::SPILL_WRITE_FAIL) {
            return Err(HpdError::FaultInjected("spill write failed".into()));
        }
        self.bytes += bytes;
        let (seek, bw) = self.device.write_cost_parts(bytes, 1);
        tracker.record_spill(bytes, seek, bw);
        Ok(())
    }

    /// Read `bytes` back, charging sequential read cost.
    pub fn read(&self, bytes: u64, tracker: &IoTracker) {
        let (seek, bw) = self.device.read_cost_parts(bytes, 1);
        tracker.record_physical_read(1, bytes, seek, bw);
    }

    /// Read the entire file back.
    pub fn read_all(&self, tracker: &IoTracker) {
        if self.bytes > 0 {
            self.read(self.bytes, tracker);
        }
    }

    pub fn len_bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_charges_write_then_read() {
        let mgr = SpillManager::new(DeviceProfile::hdd_raid());
        let t = IoTracker::new();
        let mut f = mgr.create_file();
        f.write(1 << 20, &t).unwrap();
        f.read_all(&t);
        let s = t.snapshot();
        assert_eq!(s.bytes_written, 1 << 20);
        assert_eq!(s.bytes_read, 1 << 20);
        // write at 400 MB/s is slower than read at 1000 MB/s
        assert!(s.sim_io_us() > (1 << 20) as f64 / 400.0);
    }

    #[test]
    fn empty_file_read_is_free() {
        let mgr = SpillManager::new(DeviceProfile::ssd());
        let t = IoTracker::new();
        let f = mgr.create_file();
        f.read_all(&t);
        assert_eq!(t.snapshot().physical_reads, 0);
    }

    #[test]
    fn spills_are_counted_on_the_tracker() {
        let mgr = SpillManager::new(DeviceProfile::ssd());
        let t = IoTracker::new();
        let mut a = mgr.create_file();
        let mut b = mgr.create_file();
        a.write(100, &t).unwrap();
        b.write(50, &t).unwrap();
        assert_eq!(t.snapshot().spilled_bytes, 150);
        assert_eq!(a.len_bytes(), 100);
    }

    #[test]
    fn live_file_ledger_balances_on_drop() {
        let mgr = SpillManager::new(DeviceProfile::ssd());
        let t = IoTracker::new();
        assert_eq!(mgr.live_files(), 0);
        let mut a = mgr.create_file();
        let b = mgr.create_file();
        assert_eq!(mgr.live_files(), 2);
        a.write(100, &t).unwrap();
        drop(a);
        assert_eq!(mgr.live_files(), 1);
        drop(b);
        assert_eq!(mgr.live_files(), 0);
        // The ledger survives a failed write too (the file is still open).
        let mut c = mgr.create_file();
        faults::arm(faults::sites::SPILL_WRITE_FAIL, 1);
        c.write(100, &t).unwrap_err();
        assert_eq!(mgr.live_files(), 1);
        drop(c);
        assert_eq!(mgr.live_files(), 0);
        faults::clear_all();
    }

    #[test]
    fn injected_write_failure_charges_nothing() {
        let mgr = SpillManager::new(DeviceProfile::ssd());
        let t = IoTracker::new();
        let mut f = mgr.create_file();
        faults::arm(faults::sites::SPILL_WRITE_FAIL, 1);
        let err = f.write(100, &t).unwrap_err();
        assert!(matches!(err, HpdError::FaultInjected(_)));
        assert_eq!(f.len_bytes(), 0);
        assert_eq!(t.snapshot().spilled_bytes, 0);
        assert_eq!(t.snapshot().bytes_written, 0);
        // The site ran dry; subsequent writes succeed.
        f.write(100, &t).unwrap();
        assert_eq!(f.len_bytes(), 100);
        faults::clear_all();
    }
}
