//! Engine-wide observability primitives.
//!
//! A [`Registry`] hands out named [`Counter`]s and fixed-bucket
//! [`Histogram`]s. Handles are `Arc`-backed atomics: components fetch them
//! once at construction and then increment with relaxed atomic ops, so the
//! hot path never takes a lock or hashes a name. The registry's map is only
//! locked on handle creation and when taking a [`Snapshot`].
//!
//! Typical use:
//!
//! ```
//! use hpd_obs::global;
//!
//! let hits = global().counter("storage.bufferpool.hit");
//! hits.inc();
//! let lat = global().histogram("query.latency_us");
//! lat.record(1_250);
//!
//! let before = global().snapshot();
//! hits.add(10);
//! let after = global().snapshot();
//! assert_eq!(after.delta(&before).counter("storage.bufferpool.hit"), 10);
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub mod alloc;
pub mod trace;

/// Number of histogram buckets: powers of two from `<1` up to `>= 2^(N-2)`,
/// with the last bucket catching everything larger.
pub const NUM_BUCKETS: usize = 32;

/// A named monotonically increasing counter. Cloning shares the same cell.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCell {
    /// `buckets[i]` counts values `v` with `bucket_index(v) == i`, i.e.
    /// bucket 0 holds v == 0, bucket i holds 2^(i-1) <= v < 2^i, and the
    /// last bucket absorbs the tail.
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket (power-of-two bounds) histogram, typically of latencies
/// in microseconds. Cloning shares the same cells.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCell>);

fn bucket_index(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(NUM_BUCKETS - 1)
}

impl Histogram {
    pub fn record(&self, value: u64) {
        let c = &self.0;
        c.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Start a timer that records elapsed microseconds on drop.
    pub fn start_timer(&self) -> HistogramTimer {
        HistogramTimer {
            hist: self.clone(),
            start: Instant::now(),
        }
    }
}

/// Guard returned by [`Histogram::start_timer`].
pub struct HistogramTimer {
    hist: Histogram,
    start: Instant,
}

impl Drop for HistogramTimer {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_micros() as u64);
    }
}

/// Point-in-time copy of one histogram's cells.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the q-quantile (0.0..=1.0).
    /// Returns 0 for an empty histogram.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket i holds values < 2^i (bucket 0 is exactly 0).
                return if i == 0 { 0 } else { 1u64 << i.min(63) };
            }
        }
        u64::MAX
    }

    fn delta(&self, baseline: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &b)| b.saturating_sub(baseline.buckets.get(i).copied().unwrap_or(0)))
            .collect();
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(baseline.count),
            sum: self.sum.saturating_sub(baseline.sum),
        }
    }
}

/// Point-in-time copy of every metric in a [`Registry`].
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Value of a counter, 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Metrics accumulated since `baseline` (per-name saturating subtraction;
    /// names absent from the baseline pass through unchanged).
    pub fn delta(&self, baseline: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v.saturating_sub(baseline.counter(k))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let base = baseline.histograms.get(k).cloned().unwrap_or_default();
                (k.clone(), h.delta(&base))
            })
            .collect();
        Snapshot {
            counters,
            histograms,
        }
    }

    /// Render as a single JSON object (counters as numbers; histograms as
    /// `{count, sum, p50, p99}` summaries).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{}:{}", json_string(k), v));
        }
        for (k, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{}:{{\"count\":{},\"sum\":{},\"p50_le\":{},\"p99_le\":{}}}",
                json_string(k),
                h.count,
                h.sum,
                h.quantile_upper_bound(0.5),
                h.quantile_upper_bound(0.99)
            ));
        }
        out.push('}');
        out
    }

    /// Render in the Prometheus text exposition format. Metric names are
    /// prefixed with `hpd_` and dots become underscores; histograms emit
    /// cumulative `_bucket{le=...}` series with the registry's power-of-two
    /// bucket bounds, plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let name = prometheus_name(k);
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (k, h) in &self.histograms {
            let name = prometheus_name(k);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cum = 0u64;
            for (i, &n) in h.buckets.iter().enumerate() {
                cum += n;
                // Bucket 0 holds exactly 0; bucket i holds v <= 2^i - 1.
                let le = if i == 0 {
                    "0".to_string()
                } else if i == h.buckets.len() - 1 {
                    "+Inf".to_string()
                } else {
                    ((1u64 << i) - 1).to_string()
                };
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", h.sum, h.count));
        }
        out
    }
}

/// Sanitize a dotted metric name into a Prometheus identifier.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("hpd_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escape `s` as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    histograms: BTreeMap<String, Arc<HistogramCell>>,
}

/// Holder of all named metrics. The map is behind a mutex, but handles are
/// shared atomics — fetch them once, increment forever without locking.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter with this name.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        Counter(Arc::clone(
            inner
                .counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        ))
    }

    /// Get or create the histogram with this name.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        Histogram(Arc::clone(
            inner.histograms.entry(name.to_string()).or_insert_with(|| {
                Arc::new(HistogramCell {
                    buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                })
            }),
        ))
    }

    /// Copy every metric's current value. Concurrent increments may land on
    /// either side of the fence; totals are never lost, only attributed to
    /// the snapshot before or after.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let counters = inner
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = inner
            .histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    HistogramSnapshot {
                        buckets: h
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                        count: h.count.load(Ordering::Relaxed),
                        sum: h.sum.load(Ordering::Relaxed),
                    },
                )
            })
            .collect();
        Snapshot {
            counters,
            histograms,
        }
    }
}

/// The process-wide registry all engine components report into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_a_cell() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(r.snapshot().counter("x"), 5);
        assert_eq!(r.snapshot().counter("missing"), 0);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let r = Registry::new();
        let c = r.counter("hot");
        let h = r.histogram("lat");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(i % 100);
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        let snap = r.snapshot();
        let hist = &snap.histograms["lat"];
        assert_eq!(hist.count, 80_000);
        assert_eq!(hist.buckets.iter().sum::<u64>(), 80_000);
    }

    #[test]
    fn histogram_bucketing() {
        let r = Registry::new();
        let h = r.histogram("h");
        // Bucket 0: value 0. Bucket i: 2^(i-1) <= v < 2^i.
        h.record(0);
        h.record(1); // bucket 1
        h.record(2); // bucket 2
        h.record(3); // bucket 2
        h.record(4); // bucket 3
        h.record(1023); // bucket 10
        h.record(1024); // bucket 11
        h.record(u64::MAX); // last bucket
        let s = &r.snapshot().histograms["h"];
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets[3], 1);
        assert_eq!(s.buckets[10], 1);
        assert_eq!(s.buckets[11], 1);
        assert_eq!(s.buckets[NUM_BUCKETS - 1], 1);
        assert_eq!(s.count, 8);
    }

    #[test]
    fn quantiles_and_mean() {
        let r = Registry::new();
        let h = r.histogram("q");
        for _ in 0..99 {
            h.record(10); // bucket 4, upper bound 16
        }
        h.record(1_000_000); // bucket 20, upper bound 2^20
        let s = &r.snapshot().histograms["q"];
        assert_eq!(s.quantile_upper_bound(0.5), 16);
        assert_eq!(s.quantile_upper_bound(0.99), 16);
        assert_eq!(s.quantile_upper_bound(1.0), 1 << 20);
        assert!((s.mean() - 10_009.9).abs() < 0.5);
        assert_eq!(HistogramSnapshot::default().quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn snapshot_delta() {
        let r = Registry::new();
        let c = r.counter("c");
        let h = r.histogram("h");
        c.add(3);
        h.record(5);
        let before = r.snapshot();
        c.add(7);
        h.record(6);
        h.record(7);
        let d = r.snapshot().delta(&before);
        assert_eq!(d.counter("c"), 7);
        assert_eq!(d.histograms["h"].count, 2);
        assert_eq!(d.histograms["h"].sum, 13);
        // New metric appearing after the baseline passes through unchanged.
        r.counter("late").add(2);
        let d2 = r.snapshot().delta(&before);
        assert_eq!(d2.counter("late"), 2);
    }

    #[test]
    fn json_rendering() {
        let r = Registry::new();
        r.counter("a.b").add(2);
        r.histogram("lat").record(100);
        let json = r.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a.b\":2"));
        assert!(json.contains("\"lat\":{\"count\":1,\"sum\":100"));
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn global_registry_is_shared() {
        global().counter("test.global").inc();
        assert!(global().snapshot().counter("test.global") >= 1);
    }

    #[test]
    fn prometheus_rendering() {
        let r = Registry::new();
        r.counter("wal.flush.count").add(3);
        let h = r.histogram("query.latency_us");
        h.record(0);
        h.record(5); // bucket 3 (4 <= v < 8), le = 7
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE hpd_wal_flush_count counter\n"));
        assert!(text.contains("hpd_wal_flush_count 3\n"));
        assert!(text.contains("# TYPE hpd_query_latency_us histogram\n"));
        assert!(text.contains("hpd_query_latency_us_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("hpd_query_latency_us_bucket{le=\"7\"} 2\n"));
        assert!(text.contains("hpd_query_latency_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("hpd_query_latency_us_sum 5\n"));
        assert!(text.contains("hpd_query_latency_us_count 2\n"));
        // Cumulative bucket counts never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last);
            last = v;
        }
    }

    /// Satellite: hammer `snapshot()`/`delta()` from a reader while writers
    /// mutate. Every observed value must be monotonically non-decreasing
    /// (no torn reads, no lost updates) and deltas non-negative.
    #[test]
    fn snapshot_monotone_under_concurrent_mutation() {
        // If a reader assert fails, its panic unwinds into `scope`, which
        // joins the writers before propagating — without this guard the
        // writers would never see `stop` and the failure would hang forever.
        struct StopOnDrop<'a>(&'a AtomicU64);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(1, Ordering::Relaxed);
            }
        }

        const WRITERS: u64 = 4;
        let r = Registry::new();
        let stop = AtomicU64::new(0);
        // The reader starts once every writer has written: on a loaded box
        // the 2000 snapshots can otherwise all run before any writer does.
        let running = std::sync::Barrier::new(WRITERS as usize + 1);
        std::thread::scope(|s| {
            let _stop_guard = StopOnDrop(&stop);
            for t in 0..WRITERS {
                let c = r.counter("hammer.ctr");
                let h = r.histogram("hammer.hist");
                let (stop, running) = (&stop, &running);
                s.spawn(move || {
                    let mut i = 0u64;
                    loop {
                        c.inc();
                        h.record((i * 7 + t) % 1000);
                        i += 1;
                        if i == 1 {
                            running.wait();
                        }
                        if stop.load(Ordering::Relaxed) != 0 {
                            break;
                        }
                        // Unyielding spinners starve the snapshot thread on
                        // single-core machines (the 2000-snapshot loop below
                        // takes minutes instead of milliseconds).
                        if i.is_multiple_of(256) {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            running.wait();
            let mut prev = r.snapshot();
            for _ in 0..2000 {
                let cur = r.snapshot();
                // Counter and histogram totals only move forward.
                assert!(cur.counter("hammer.ctr") >= prev.counter("hammer.ctr"));
                let (hc, hp) = (
                    &cur.histograms["hammer.hist"],
                    &prev.histograms["hammer.hist"],
                );
                assert!(hc.count >= hp.count);
                assert!(hc.sum >= hp.sum);
                for (a, b) in hc.buckets.iter().zip(hp.buckets.iter()) {
                    assert!(a >= b, "per-bucket counts must be monotone");
                }
                // No bucket-total-vs-count bound here: `snapshot()` reads
                // the bucket cells and `count` at different instants, so a
                // reader preempted mid-snapshot can observe them arbitrarily
                // far apart. The quiesced check below asserts exact
                // agreement once writers stop.
                let d = cur.delta(&prev);
                assert!(d.histograms["hammer.hist"].count <= hc.count);
                prev = cur;
            }
            stop.store(1, Ordering::Relaxed);
        });
        // Quiesced: totals agree exactly.
        let s = r.snapshot();
        let h = &s.histograms["hammer.hist"];
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
        assert!(s.counter("hammer.ctr") >= WRITERS);
        assert!(h.count >= WRITERS);
    }
}
