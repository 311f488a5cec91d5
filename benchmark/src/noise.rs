//! What the operating system can tell about this process and its
//! neighbours: on-CPU time, run-queue wait, steal, peak memory, and a
//! fixed spin whose duration moves only when the machine does.

use std::fs;
use std::time::Instant;

/// Scheduler accounting summed over every thread of this process:
/// nanoseconds on a CPU and nanoseconds runnable but waiting for one
/// (`/proc/self/task/*/schedstat` fields 1 and 2).
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedStat {
    pub on_cpu_ns: u64,
    pub wait_ns: u64,
}

impl SchedStat {
    pub fn read() -> SchedStat {
        let mut total = SchedStat::default();
        let Ok(tasks) = fs::read_dir("/proc/self/task") else {
            return total;
        };
        for task in tasks.flatten() {
            let Ok(text) = fs::read_to_string(task.path().join("schedstat")) else {
                continue; // the thread exited between listing and reading
            };
            let mut fields = text
                .split_whitespace()
                .map(|f| f.parse::<u64>().unwrap_or(0));
            total.on_cpu_ns += fields.next().unwrap_or(0);
            total.wait_ns += fields.next().unwrap_or(0);
        }
        total
    }

    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            on_cpu_ns: self.on_cpu_ns.saturating_sub(earlier.on_cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` jiffies of the whole machine from `/proc/stat`.
fn machine_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(cpu) = stat.lines().next() else {
        return (0, 0);
    };
    let fields: Vec<u64> = cpu
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already inside user time.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// The fixed calibration spin: 40 M xorshift steps, in milliseconds.
pub fn calib_spin_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..40_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Noise gauge around one timed window.
pub struct NoiseGauge {
    start: Instant,
    sched: SchedStat,
    jiffies: (u64, u64),
    spin_before_ms: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct NoiseReport {
    /// Share of the window this process spent runnable but not running.
    pub runqueue_wait_frac: f64,
    /// Share of machine time the hypervisor gave to someone else.
    pub steal_frac: f64,
    pub calib_spin_before_ms: f64,
    pub calib_spin_after_ms: f64,
    /// Run-queue wait above 5 % of wall, or the two spins more than 5 %
    /// apart: the numbers of this run should not be trusted alone.
    pub disturbed: bool,
}

impl NoiseGauge {
    pub fn start() -> NoiseGauge {
        let spin_before_ms = calib_spin_ms();
        NoiseGauge {
            start: Instant::now(),
            sched: SchedStat::read(),
            jiffies: machine_jiffies(),
            spin_before_ms,
        }
    }

    pub fn finish(self) -> NoiseReport {
        let wall_ns = self.start.elapsed().as_nanos() as f64;
        let sched = SchedStat::read().since(self.sched);
        let (steal, total) = machine_jiffies();
        let spin_after_ms = calib_spin_ms();
        let runqueue_wait_frac = sched.wait_ns as f64 / wall_ns.max(1.0);
        let steal_frac = steal.saturating_sub(self.jiffies.0) as f64
            / total.saturating_sub(self.jiffies.1).max(1) as f64;
        let spin_gap = (spin_after_ms - self.spin_before_ms).abs()
            / self.spin_before_ms.min(spin_after_ms).max(1e-9);
        NoiseReport {
            runqueue_wait_frac,
            steal_frac,
            calib_spin_before_ms: self.spin_before_ms,
            calib_spin_after_ms: spin_after_ms,
            disturbed: runqueue_wait_frac > 0.05 || spin_gap > 0.05,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_advances_with_work() {
        let before = SchedStat::read();
        std::hint::black_box(calib_spin_ms());
        let used = SchedStat::read().since(before);
        assert!(used.on_cpu_ns > 0, "the spin must show as on-CPU time");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 1.0);
    }
}
