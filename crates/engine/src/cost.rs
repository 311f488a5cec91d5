//! The optimizer's cost model.
//!
//! Costs are estimated microseconds, split into CPU and device components.
//! The device component uses the database's [`DeviceProfile`] directly, so
//! the model tracks the simulator: random 8 KB page reads for B+ trees,
//! seek-plus-bandwidth segment reads for columnstores, bandwidth for spills.
//! CPU constants encode the row-mode vs. batch-mode asymmetry the paper
//! describes (vectorized execution is roughly an order of magnitude cheaper
//! per row).

use hpd_columnstore::IntEncoding;
use hpd_exec::Mode;
use hpd_storage::{DeviceProfile, PAGE_SIZE};

/// Relative CPU cost of kernel evaluation + late materialization on a
/// segment with the given physical encoding, normalized to bit-packed
/// (= 1.0). RLE folds whole runs so it is far cheaper per row; the numeric
/// dictionary compares small codes after a one-time interval translation;
/// raw skips decode arithmetic but touches 8 B per value; FOR/delta must
/// prefix-sum deltas within each frame before values exist, making it the
/// most CPU-hungry to materialize.
pub fn encoding_cpu_factor(e: IntEncoding) -> f64 {
    match e {
        IntEncoding::Rle => 0.35,
        IntEncoding::Dict => 0.85,
        IntEncoding::Raw => 0.9,
        IntEncoding::BitPacked => 1.0,
        IntEncoding::ForDelta => 1.5,
    }
}

/// Tunable constants of the cost model.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    pub device: DeviceProfile,
    /// CPU microseconds to process one row in row mode.
    pub cpu_row_us: f64,
    /// CPU microseconds to process one row in batch (vectorized) mode.
    pub cpu_batch_us: f64,
    /// CPU microseconds per row for encoded-domain predicate kernels
    /// (interval checks on compressed segments — cheaper than batch-mode
    /// materialization because RLE evaluates whole runs and bit-packed
    /// codes compare without decoding).
    pub cpu_kernel_us: f64,
    /// Fixed CPU microseconds per scanned row group: selection-bitmap and
    /// column-vector allocation, zone-map checks, batch assembly and
    /// operator dispatch. Keeps a one-row point query from looking free on
    /// a columnstore (the B+ tree seek should still win those).
    pub cpu_batch_setup_us: f64,
    /// CPU microseconds per hash-table probe/insert in row mode.
    pub cpu_hash_us: f64,
    /// CPU microseconds per hash-table probe/insert in batch mode: keys
    /// hashed a batch at a time into the open-addressing table.
    pub cpu_hash_batch_us: f64,
    /// CPU microseconds per comparison in a sort.
    pub cpu_cmp_us: f64,
    /// Startup overhead of each fan-out (a scan leaf or a gather running
    /// on more than one lane), microseconds.
    pub parallel_startup_us: f64,
    /// Extra per-worker coordination overhead, microseconds.
    pub parallel_per_worker_us: f64,
    /// Maximum degree of parallelism the optimizer may choose.
    pub max_dop: usize,
    /// Query working-memory grant assumed during costing, bytes.
    pub grant_bytes: usize,
}

impl CostModel {
    pub fn new(device: DeviceProfile, max_dop: usize, grant_bytes: usize) -> CostModel {
        CostModel {
            device,
            // Calibrated against the measured executor: row-mode operators
            // spend ~0.55 µs/row (tuple materialization + per-row dispatch),
            // batch mode ~0.012 µs/row, row-mode hash probes ~0.35 µs.
            cpu_row_us: 0.55,
            cpu_batch_us: 0.012,
            cpu_kernel_us: 0.003,
            cpu_batch_setup_us: 3.0,
            cpu_hash_us: 0.35,
            // Batch-mode hashing, from the benchmark's traced
            // `exec.probe_hash_agg_us` / `exec.probe_hash_join_us` (38 000
            // batch rows grouped into 100 groups, and probing a 100-row
            // build): 260 / 353 µs at their fastest over twelve `dss` runs
            // on a 2-vCPU box, 6.8 and 9.3 ns a row, the join's also
            // building its output rows.
            cpu_hash_batch_us: 0.0075,
            cpu_cmp_us: 0.05,
            parallel_startup_us: 300.0,
            parallel_per_worker_us: 30.0,
            max_dop,
            grant_bytes,
        }
    }

    /// Device time for `n` random 8 KB page reads.
    pub fn random_pages_us(&self, n: f64) -> f64 {
        n * self.device.read_cost_us(PAGE_SIZE as u64, 1)
    }

    /// Bandwidth-only cost of one 8 KB page (no positioning).
    pub fn page_bandwidth_us(&self) -> f64 {
        PAGE_SIZE as f64 / self.device.read_bw
    }

    /// Device time for a sequential run of `n` pages.
    pub fn sequential_pages_us(&self, n: f64) -> f64 {
        if n <= 0.0 {
            return 0.0;
        }
        self.device.seek_latency_us + n * PAGE_SIZE as f64 / self.device.read_bw
    }

    /// Device time to read `bytes` of compressed segments in `requests`
    /// seek-separated requests.
    pub fn segment_read_us(&self, bytes: f64, requests: f64) -> f64 {
        requests * self.device.seek_latency_us + bytes / self.device.read_bw
    }

    /// Device time to spill `bytes` out and read them back once.
    pub fn spill_round_trip_us(&self, bytes: f64) -> f64 {
        bytes / self.device.write_bw
            + bytes / self.device.read_bw
            + 2.0 * self.device.seek_latency_us
    }

    /// CPU microseconds a row costs a Filter or Project in `mode`.
    pub fn cpu_per_row_us(&self, mode: Mode) -> f64 {
        match mode {
            Mode::Row => self.cpu_row_us,
            Mode::Batch => self.cpu_batch_us,
        }
    }

    /// CPU microseconds a hash-table insert or probe costs in `mode`.
    pub fn cpu_hash_per_row_us(&self, mode: Mode) -> f64 {
        match mode {
            Mode::Row => self.cpu_hash_us,
            Mode::Batch => self.cpu_hash_batch_us,
        }
    }

    /// What running `work_us` of parallelizable time (CPU and overlapping
    /// device time) on `dop` lanes adds to elapsed time: one start-up, less
    /// what the lanes save. Nothing for a serial run.
    pub fn fan_out_us(&self, work_us: f64, dop: usize) -> f64 {
        if dop <= 1 {
            return 0.0;
        }
        let d = dop as f64;
        self.parallel_startup_us + self.parallel_per_worker_us * d - work_us * (1.0 - 1.0 / d)
    }

    /// The DOP of a scan leaf with `work_us` of parallelizable time in
    /// `units` units (leaf pages, row groups, gather lanes):
    /// `min(max_dop, units)` when that many lanes, start-up paid, finish
    /// sooner than one; else 1.
    pub fn leaf_dop(&self, work_us: f64, units: usize) -> usize {
        let dop = self.max_dop.min(units).max(1);
        if self.fan_out_us(work_us, dop) < 0.0 {
            dop
        } else {
            1
        }
    }

    /// Sort cost: comparisons plus a spill round trip when `bytes` exceeds
    /// the grant.
    pub fn sort_cost(&self, rows: f64, bytes: f64) -> (f64, f64) {
        let n = rows.max(2.0);
        let cpu = n * n.log2() * self.cpu_cmp_us;
        let io = if bytes > self.grant_bytes as f64 {
            self.spill_round_trip_us(bytes)
        } else {
            0.0
        };
        (cpu, io)
    }

    /// Hash aggregation cost over `rows` inputs in `mode` into `groups`
    /// groups of `group_bytes` each; spills when the table exceeds the grant.
    pub fn hash_agg_cost(
        &self,
        mode: Mode,
        rows: f64,
        groups: f64,
        group_bytes: f64,
        input_bytes: f64,
    ) -> (f64, f64) {
        let cpu = rows * self.cpu_hash_per_row_us(mode);
        let table_bytes = groups * group_bytes;
        let io = if table_bytes > self.grant_bytes as f64 {
            // Disk-based aggregation: the overflow fraction of the input
            // takes a spill round trip.
            let overflow = 1.0 - (self.grant_bytes as f64 / table_bytes).clamp(0.0, 1.0);
            self.spill_round_trip_us(input_bytes * overflow)
        } else {
            0.0
        };
        (cpu, io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(DeviceProfile::hdd_raid(), 8, 1 << 20)
    }

    #[test]
    fn random_vs_sequential_pages() {
        let m = model();
        assert!(m.random_pages_us(100.0) > 10.0 * m.sequential_pages_us(100.0));
    }

    #[test]
    fn a_leaf_fans_out_only_as_far_as_its_work() {
        let m = model();
        assert_eq!(m.leaf_dop(10.0, 1_000), 1);
        assert_eq!(m.leaf_dop(100_000.0, 1_000), 8);
        // No more lanes than units of work, and none for one unit.
        assert_eq!(m.leaf_dop(100_000.0, 3), 3);
        assert_eq!(m.leaf_dop(100_000.0, 1), 1);
        // Eight lanes save seven eighths of the work and start up once.
        let saved = m.fan_out_us(100_000.0, 8);
        assert_eq!(saved, 300.0 + 30.0 * 8.0 - 87_500.0);
        assert_eq!(m.fan_out_us(100_000.0, 1), 0.0);
    }

    #[test]
    fn hash_agg_spills_only_beyond_grant() {
        let m = model();
        let (_, io_small) = m.hash_agg_cost(Mode::Row, 1000.0, 100.0, 64.0, 8000.0);
        assert_eq!(io_small, 0.0);
        let (_, io_big) = m.hash_agg_cost(Mode::Row, 1e6, 1e6, 64.0, 8e6);
        assert!(io_big > 0.0);
    }

    #[test]
    fn sort_cost_grows_superlinearly() {
        let m = model();
        let (c1, _) = m.sort_cost(1000.0, 0.0);
        let (c2, _) = m.sort_cost(2000.0, 0.0);
        assert!(c2 > 2.0 * c1);
    }
}
