//! Device profiles: the bandwidth/latency model behind simulated I/O time.

/// A storage device model.
///
/// Simulated cost of one request = `seek_latency_us` + `bytes /
/// read_bw_bytes_per_us` (or the write bandwidth for writes). B+ tree page
/// reads issue many small (8 KB) requests and therefore pay the seek latency
/// often; columnstore segment reads issue few multi-megabyte requests and are
/// bandwidth-bound — the asymmetry the paper attributes to "accessing and
/// prefetching larger data blocks (megabytes in CSI compared to kilobytes in
/// B+ tree)" (§3.2.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    pub name: &'static str,
    /// Per-request latency in microseconds (seek + rotational for HDD).
    pub seek_latency_us: f64,
    /// Sequential read bandwidth, bytes per microsecond (== MB/s).
    pub read_bw: f64,
    /// Sequential write bandwidth, bytes per microsecond (== MB/s).
    pub write_bw: f64,
}

impl DeviceProfile {
    /// The paper's HDD RAID-0: ~1 GB/s reads, ~400 MB/s writes. We keep a
    /// 4 ms average positioning latency: RAID striping parallelizes transfer
    /// but not the head movement of an individual random request.
    pub fn hdd_raid() -> DeviceProfile {
        DeviceProfile {
            name: "hdd-raid0",
            seek_latency_us: 4_000.0,
            read_bw: 1_000.0,
            write_bw: 400.0,
        }
    }

    /// The HDD RAID with bandwidth divided by `scale`, keeping laptop-scale
    /// tables in the same seek-vs-scan cost regime as the paper's 10–100 GB
    /// tables: a full sequential scan of an N-times-smaller table should
    /// still dwarf a handful of seeks. Seek latency is physical and does
    /// not scale.
    pub fn hdd_scaled(scale: f64) -> DeviceProfile {
        let base = DeviceProfile::hdd_raid();
        DeviceProfile {
            name: "hdd-scaled",
            seek_latency_us: base.seek_latency_us,
            read_bw: base.read_bw / scale,
            write_bw: base.write_bw / scale,
        }
    }

    /// A NVMe-class SSD, for crossover-sensitivity experiments ("the slower
    /// the storage, the more pronounced the benefit of B+ tree is").
    pub fn ssd() -> DeviceProfile {
        DeviceProfile {
            name: "ssd",
            seek_latency_us: 80.0,
            read_bw: 3_000.0,
            write_bw: 2_000.0,
        }
    }

    /// Memory-speed device: negligible latency, very high bandwidth. Used to
    /// model fully memory-resident configurations where only CPU time
    /// matters.
    pub fn ram() -> DeviceProfile {
        DeviceProfile {
            name: "ram",
            seek_latency_us: 0.0,
            read_bw: 50_000.0,
            write_bw: 50_000.0,
        }
    }

    /// Simulated microseconds to read `bytes` in `requests` separate
    /// requests.
    pub fn read_cost_us(&self, bytes: u64, requests: u64) -> f64 {
        let (s, b) = self.read_cost_parts(bytes, requests);
        s + b
    }

    /// Read cost split into `(positioning, transfer)` microseconds.
    pub fn read_cost_parts(&self, bytes: u64, requests: u64) -> (f64, f64) {
        (
            self.seek_latency_us * requests as f64,
            bytes as f64 / self.read_bw,
        )
    }

    /// Write cost split into `(positioning, transfer)` microseconds.
    pub fn write_cost_parts(&self, bytes: u64, requests: u64) -> (f64, f64) {
        (
            self.seek_latency_us * requests as f64,
            bytes as f64 / self.write_bw,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdd_random_reads_are_seek_dominated() {
        let hdd = DeviceProfile::hdd_raid();
        // 100 random 8 KB pages vs one 800 KB sequential run.
        let random = hdd.read_cost_us(8_192 * 100, 100);
        let seq = hdd.read_cost_us(8_192 * 100, 1);
        assert!(random > 100.0 * seq / 2.0 || random > 10.0 * seq);
        assert!(random > 400_000.0); // 100 seeks * 4ms
    }

    #[test]
    fn bandwidth_term_scales_linearly() {
        let d = DeviceProfile::ssd();
        let one = d.read_cost_us(1_000_000, 1);
        let two = d.read_cost_us(2_000_000, 1);
        assert!((two - one) - 1_000_000.0 / d.read_bw < 1e-9);
    }

    #[test]
    fn writes_slower_than_reads_on_hdd() {
        let d = DeviceProfile::hdd_raid();
        let (seek, transfer) = d.write_cost_parts(1 << 20, 1);
        assert!(seek + transfer > d.read_cost_us(1 << 20, 1));
    }

    #[test]
    fn ram_profile_is_cheap() {
        let d = DeviceProfile::ram();
        assert!(d.read_cost_us(1 << 20, 100) < 50.0);
    }
}
