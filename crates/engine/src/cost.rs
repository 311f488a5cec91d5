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
    /// CPU microseconds per hash-table probe/insert.
    pub cpu_hash_us: f64,
    /// CPU microseconds per comparison in a sort.
    pub cpu_cmp_us: f64,
    /// Startup overhead of a parallel plan, microseconds.
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
            // batch mode ~0.012 µs/row, hash probes ~0.35 µs.
            cpu_row_us: 0.55,
            cpu_batch_us: 0.012,
            cpu_kernel_us: 0.003,
            cpu_batch_setup_us: 3.0,
            cpu_hash_us: 0.35,
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

    /// Elapsed estimate distinguishing parallelizable device time (e.g.
    /// independent columnstore segment reads) from latency-bound device
    /// time (root-to-leaf page chains, sequential leaf runs), which no
    /// degree of parallelism shortens.
    pub fn elapsed_split_us(
        &self,
        cpu_us: f64,
        io_div_us: f64,
        io_serial_us: f64,
        dop: usize,
    ) -> f64 {
        let d = dop.max(1) as f64;
        let startup = if dop > 1 {
            self.parallel_startup_us + self.parallel_per_worker_us * d
        } else {
            0.0
        };
        cpu_us / d + io_div_us / d + io_serial_us + startup
    }

    /// DOP choice under the split-I/O model.
    pub fn choose_dop_split(&self, cpu_us: f64, io_div_us: f64, io_serial_us: f64) -> (usize, f64) {
        let serial = self.elapsed_split_us(cpu_us, io_div_us, io_serial_us, 1);
        if self.max_dop <= 1 {
            return (1, serial);
        }
        let parallel = self.elapsed_split_us(cpu_us, io_div_us, io_serial_us, self.max_dop);
        if parallel < serial {
            (self.max_dop, parallel)
        } else {
            (1, serial)
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

    /// Hash aggregation cost over `rows` inputs into `groups` groups of
    /// `group_bytes` each; spills when the table exceeds the grant.
    pub fn hash_agg_cost(
        &self,
        rows: f64,
        groups: f64,
        group_bytes: f64,
        input_bytes: f64,
    ) -> (f64, f64) {
        let cpu = rows * self.cpu_hash_us;
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
    fn dop_choice_prefers_serial_for_tiny_work() {
        let m = model();
        let (dop, _) = m.choose_dop_split(10.0, 0.0, 0.0);
        assert_eq!(dop, 1);
        let (dop, elapsed) = m.choose_dop_split(100_000.0, 0.0, 0.0);
        assert_eq!(dop, 8);
        assert!(elapsed < 100_000.0);
        assert_eq!(elapsed, m.elapsed_split_us(100_000.0, 0.0, 0.0, 8));
        // Latency-bound device time is outside any DOP's reach.
        let serial_io = m.elapsed_split_us(100_000.0, 0.0, 5_000.0, 8);
        assert_eq!(serial_io, elapsed + 5_000.0);
    }

    #[test]
    fn hash_agg_spills_only_beyond_grant() {
        let m = model();
        let (_, io_small) = m.hash_agg_cost(1000.0, 100.0, 64.0, 8000.0);
        assert_eq!(io_small, 0.0);
        let (_, io_big) = m.hash_agg_cost(1e6, 1e6, 64.0, 8e6);
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
