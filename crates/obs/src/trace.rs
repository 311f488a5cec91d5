//! Structured tracing: span guards with parent/child links, recorded into
//! per-thread rings and merged on demand into one bounded trace.
//!
//! Design goals, in order:
//!
//! 1. **Near-zero cost when disabled.** [`span`] loads one relaxed atomic
//!    and returns an inert guard; no allocation, no clock read, no lock.
//! 2. **Cheap when enabled.** Completed spans are pushed into the calling
//!    thread's own bounded ring. The ring is guarded by a mutex that only
//!    the owning thread and an occasional collector touch, so the push is
//!    an uncontended lock (one CAS) in the steady state.
//! 3. **Bounded.** Each ring holds at most [`Tracer::ring_capacity`] spans;
//!    on overflow the oldest span is dropped and counted, never blocking
//!    the traced thread.
//!
//! Span nesting uses a thread-local "current span" cell: [`span`] makes the
//! new span current for the enclosing scope (restored on drop), while
//! [`detached_span`] captures the current span as its parent but does not
//! become current itself — use it for objects (e.g. operators) whose
//! lifetime extends past the creating scope or that drop on another thread.
//!
//! Timestamps are microseconds from a process-wide monotonic epoch taken
//! when the tracer is first touched, so spans from different threads order
//! consistently.
//!
//! ```
//! use hpd_obs::trace;
//!
//! trace::tracer().set_enabled(true);
//! {
//!     let mut q = trace::span("query");
//!     q.attr("kind", "select");
//!     let _opt = trace::span("optimize"); // child of "query"
//! }
//! let spans = trace::tracer().drain();
//! assert_eq!(spans.len(), 2);
//! let json = trace::chrome_trace_json(&spans);
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```

use std::cell::{Cell, OnceCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json_string;

/// Default per-thread ring capacity (spans).
pub const DEFAULT_RING_CAPACITY: usize = 16 * 1024;

/// A completed span, as stored in the trace.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Unique id (> 0) assigned at span start.
    pub id: u64,
    /// Id of the enclosing span at creation time, 0 for root spans.
    pub parent: u64,
    /// Span name, e.g. `"query"` or `"wal.flush"`.
    pub name: &'static str,
    /// Small dense id of the thread the span *started* on.
    pub tid: u64,
    /// Microseconds from the tracer epoch to span start.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Key-value attributes, in insertion order.
    pub attrs: Vec<(&'static str, String)>,
}

struct ThreadRing {
    buf: Mutex<VecDeque<SpanRecord>>,
    dropped: AtomicU64,
}

impl ThreadRing {
    fn push(&self, rec: SpanRecord, cap: usize) {
        let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        if buf.len() >= cap.max(1) {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(rec);
    }
}

struct LocalRing {
    ring: Arc<ThreadRing>,
    tid: u64,
}

thread_local! {
    /// Id of the innermost open scoped span on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// This thread's ring, registered with the global tracer on first span.
    static LOCAL: OnceCell<LocalRing> = const { OnceCell::new() };
}

/// Process-wide trace collector. Obtain via [`tracer`].
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    next_tid: AtomicU64,
    ring_cap: AtomicUsize,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_tid: AtomicU64::new(1),
            ring_cap: AtomicUsize::new(DEFAULT_RING_CAPACITY),
            rings: Mutex::new(Vec::new()),
        }
    }

    /// Turn span recording on or off. Spans already recorded stay buffered.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Per-thread ring capacity; on overflow the oldest span is dropped.
    pub fn ring_capacity(&self) -> usize {
        self.ring_cap.load(Ordering::Relaxed)
    }

    /// Change the per-thread ring capacity (applies to future pushes).
    pub fn set_ring_capacity(&self, cap: usize) {
        self.ring_cap.store(cap.max(1), Ordering::Relaxed);
    }

    /// Microseconds elapsed since the tracer epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Total spans discarded to ring overflow since process start.
    pub fn spans_dropped(&self) -> u64 {
        let rings = self.rings.lock().unwrap_or_else(|e| e.into_inner());
        rings
            .iter()
            .map(|r| r.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Remove and return every buffered span, merged across threads and
    /// sorted by start time.
    pub fn drain(&self) -> Vec<SpanRecord> {
        self.collect(true)
    }

    /// Copy every buffered span without clearing the rings.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.collect(false)
    }

    /// Copy every buffered span that was still running at or after
    /// `start_us` (i.e. `start_us + dur_us >= start_us`), without clearing
    /// the rings. Each ring holds spans in completion order, so end times
    /// are non-decreasing and the walk stops at the first older span —
    /// cost is proportional to the spans of interest, not to everything
    /// buffered. Use to fetch one query's spans right after it finishes.
    pub fn spans_since(&self, start_us: u64) -> Vec<SpanRecord> {
        let rings = self.rings.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::new();
        for ring in rings.iter() {
            let buf = ring.buf.lock().unwrap_or_else(|e| e.into_inner());
            for rec in buf.iter().rev() {
                if rec.start_us + rec.dur_us < start_us {
                    break;
                }
                out.push(rec.clone());
            }
        }
        drop(rings);
        out.sort_by_key(|s| (s.start_us, s.id));
        out
    }

    fn collect(&self, take: bool) -> Vec<SpanRecord> {
        let rings = self.rings.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::new();
        for ring in rings.iter() {
            let mut buf = ring.buf.lock().unwrap_or_else(|e| e.into_inner());
            if take {
                out.extend(buf.drain(..));
            } else {
                out.extend(buf.iter().cloned());
            }
        }
        drop(rings);
        out.sort_by_key(|s| (s.start_us, s.id));
        out
    }

    fn register_thread(&self) -> LocalRing {
        let ring = Arc::new(ThreadRing {
            buf: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        });
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        self.rings
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&ring));
        LocalRing { ring, tid }
    }

    fn record(&self, rec: SpanRecord) {
        let cap = self.ring_capacity();
        LOCAL.with(|l| {
            let local = l.get_or_init(|| self.register_thread());
            local.ring.push(rec, cap);
        });
    }

    fn thread_tid(&self) -> u64 {
        LOCAL.with(|l| l.get_or_init(|| self.register_thread()).tid)
    }
}

/// The process-wide tracer all spans report into.
pub fn tracer() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(Tracer::new)
}

/// Open span state while it is in flight.
struct OpenSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    tid: u64,
    start: Instant,
    start_us: u64,
    attrs: Vec<(&'static str, String)>,
}

/// A span that records on drop but never becomes the thread's current span.
///
/// Its parent is whatever span was current when it was *created*, so it can
/// safely outlive the creating scope or drop on a different thread (both of
/// which would corrupt the current-span stack if it were scoped).
pub struct DetachedSpan(Option<OpenSpan>);

impl DetachedSpan {
    /// Attach a key-value attribute. No-op (and no formatting) when the
    /// tracer was disabled at creation.
    pub fn attr(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if let Some(open) = &mut self.0 {
            open.attrs.push((key, value.to_string()));
        }
    }

    /// This span's id, or 0 if tracing was disabled at creation.
    pub fn id(&self) -> u64 {
        self.0.as_ref().map_or(0, |o| o.id)
    }

    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// Microseconds from the tracer epoch to span start, or 0 when not
    /// recording. Pair with [`Tracer::spans_since`] after the span closes.
    pub fn start_us(&self) -> u64 {
        self.0.as_ref().map_or(0, |o| o.start_us)
    }
}

impl Drop for DetachedSpan {
    fn drop(&mut self) {
        if let Some(open) = self.0.take() {
            finish(open);
        }
    }
}

/// RAII guard for a scoped span: current for the enclosing scope, restored
/// on drop. Created by [`span`].
pub struct SpanGuard {
    span: DetachedSpan,
    /// Span that was current before this one (restored on drop).
    prev: u64,
    /// Thread the guard was created on; the current-span cell is only
    /// restored when dropped on the same thread.
    thread: std::thread::ThreadId,
}

impl SpanGuard {
    /// Attach a key-value attribute. No-op when tracing is disabled.
    pub fn attr(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.span.attr(key, value);
    }

    /// This span's id, or 0 if tracing was disabled at creation.
    pub fn id(&self) -> u64 {
        self.span.id()
    }

    pub fn is_recording(&self) -> bool {
        self.span.is_recording()
    }

    /// Microseconds from the tracer epoch to span start (0 when inert).
    pub fn start_us(&self) -> u64 {
        self.span.start_us()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.span.is_recording() && std::thread::current().id() == self.thread {
            CURRENT.with(|c| c.set(self.prev));
        }
        // self.span drops next and records itself.
    }
}

fn open(name: &'static str, parent: u64) -> OpenSpan {
    let t = tracer();
    OpenSpan {
        id: t.next_id.fetch_add(1, Ordering::Relaxed),
        parent,
        name,
        tid: t.thread_tid(),
        start: Instant::now(),
        start_us: t.now_us(),
        attrs: Vec::new(),
    }
}

fn finish(open: OpenSpan) {
    let dur_us = open.start.elapsed().as_micros() as u64;
    tracer().record(SpanRecord {
        id: open.id,
        parent: open.parent,
        name: open.name,
        tid: open.tid,
        start_us: open.start_us,
        dur_us,
        attrs: open.attrs,
    });
}

/// Start a scoped span: child of the thread's current span, and itself the
/// current span until the guard drops. Inert (one atomic load) when tracing
/// is disabled.
pub fn span(name: &'static str) -> SpanGuard {
    if !tracer().is_enabled() {
        return SpanGuard {
            span: DetachedSpan(None),
            prev: 0,
            thread: std::thread::current().id(),
        };
    }
    let parent = CURRENT.with(|c| c.get());
    let open = open(name, parent);
    CURRENT.with(|c| c.set(open.id));
    SpanGuard {
        span: DetachedSpan(Some(open)),
        prev: parent,
        thread: std::thread::current().id(),
    }
}

/// Start a detached span: child of the thread's current span, but not
/// current itself. Safe to move across threads and drop anywhere.
pub fn detached_span(name: &'static str) -> DetachedSpan {
    if !tracer().is_enabled() {
        return DetachedSpan(None);
    }
    let parent = CURRENT.with(|c| c.get());
    DetachedSpan(Some(open(name, parent)))
}

/// Start a root span, ignoring any current span on this thread. Use for
/// background work (maintenance, checkpoint, recovery) so it never appears
/// nested under an unrelated query.
pub fn root_span(name: &'static str) -> DetachedSpan {
    if !tracer().is_enabled() {
        return DetachedSpan(None);
    }
    DetachedSpan(Some(open(name, 0)))
}

/// Start a detached span with an explicit parent id (0 = root). Use when
/// the logical parent is a detached span rather than the thread's current
/// scoped span — e.g. phases under a [`root_span`].
pub fn child_span(name: &'static str, parent: u64) -> DetachedSpan {
    if !tracer().is_enabled() {
        return DetachedSpan(None);
    }
    DetachedSpan(Some(open(name, parent)))
}

fn push_attrs_json(out: &mut String, attrs: &[(&'static str, String)]) {
    out.push('{');
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(k));
        out.push(':');
        out.push_str(&json_string(v));
    }
    out.push('}');
}

/// Render spans as Chrome trace-event JSON (complete "X" events), loadable
/// in `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":\"hpd\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}",
            json_string(s.name),
            s.start_us,
            s.dur_us.max(1),
            s.tid,
            s.id,
            s.parent,
        ));
        for (k, v) in &s.attrs {
            out.push(',');
            out.push_str(&json_string(k));
            out.push(':');
            out.push_str(&json_string(v));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Render the subtree rooted at `root_id` as nested JSON
/// (`{"name", "start_us", "dur_us", "attrs", "children": [...]}`), or
/// `None` if the root is not present in `spans`.
pub fn span_tree_json(spans: &[SpanRecord], root_id: u64) -> Option<String> {
    let root = spans.iter().find(|s| s.id == root_id)?;
    let mut out = String::new();
    render_node(&mut out, spans, root);
    Some(out)
}

fn render_node(out: &mut String, spans: &[SpanRecord], node: &SpanRecord) {
    out.push_str(&format!(
        "{{\"name\":{},\"start_us\":{},\"dur_us\":{},\"attrs\":",
        json_string(node.name),
        node.start_us,
        node.dur_us,
    ));
    push_attrs_json(out, &node.attrs);
    out.push_str(",\"children\":[");
    let mut first = true;
    for child in spans.iter().filter(|s| s.parent == node.id) {
        if !first {
            out.push(',');
        }
        first = false;
        render_node(out, spans, child);
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The tracer is process-global; serialize tests that enable/drain it.
    pub(super) static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn reset() {
        tracer().set_enabled(false);
        tracer().set_ring_capacity(DEFAULT_RING_CAPACITY);
        tracer().drain();
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        {
            let mut s = span("nope");
            s.attr("k", 1);
            assert_eq!(s.id(), 0);
            assert!(!s.is_recording());
        }
        drop(detached_span("nope2"));
        drop(root_span("nope3"));
        assert!(tracer().drain().is_empty());
    }

    #[test]
    fn nesting_and_attrs() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        tracer().set_enabled(true);
        let root_id;
        let child_id;
        {
            let mut root = span("root");
            root.attr("k", "v");
            root_id = root.id();
            {
                let child = span("child");
                child_id = child.id();
                let leaf = detached_span("leaf");
                assert_ne!(leaf.id(), 0);
            }
            // After the child scope closes, new spans parent to root again.
            let sibling = span("sibling");
            assert_ne!(sibling.id(), 0);
        }
        tracer().set_enabled(false);
        let spans = tracer().drain();
        assert_eq!(spans.len(), 4);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("root").parent, 0);
        assert_eq!(by_name("child").parent, root_id);
        assert_eq!(by_name("leaf").parent, child_id);
        assert_eq!(by_name("sibling").parent, root_id);
        assert_eq!(by_name("root").attrs, vec![("k", "v".to_string())]);
        // Start times are monotone per the sort order.
        assert!(spans.windows(2).all(|w| w[0].start_us <= w[1].start_us));
    }

    #[test]
    fn root_span_ignores_current() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        tracer().set_enabled(true);
        {
            let _q = span("query");
            let bg = root_span("background.maintenance");
            assert_ne!(bg.id(), 0);
        }
        tracer().set_enabled(false);
        let spans = tracer().drain();
        let bg = spans
            .iter()
            .find(|s| s.name == "background.maintenance")
            .unwrap();
        assert_eq!(bg.parent, 0);
    }

    #[test]
    fn ring_wraparound_drops_oldest_and_counts() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        tracer().set_ring_capacity(8);
        tracer().set_enabled(true);
        // Run in a dedicated thread so this test owns a fresh ring.
        let dropped_before = tracer().spans_dropped();
        std::thread::spawn(|| {
            for _ in 0..20 {
                drop(span("wrap"));
            }
        })
        .join()
        .unwrap();
        tracer().set_enabled(false);
        let spans: Vec<_> = tracer()
            .drain()
            .into_iter()
            .filter(|s| s.name == "wrap")
            .collect();
        assert_eq!(spans.len(), 8, "ring must truncate to capacity");
        assert_eq!(tracer().spans_dropped() - dropped_before, 12);
        // The *newest* spans survive truncation.
        let max_id = spans.iter().map(|s| s.id).max().unwrap();
        let min_id = spans.iter().map(|s| s.id).min().unwrap();
        assert_eq!(max_id - min_id, 7);
        reset();
    }

    #[test]
    fn cross_thread_drop_does_not_corrupt_stack() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        tracer().set_enabled(true);
        let root = span("outer");
        let root_id = root.id();
        let moved = detached_span("moved");
        std::thread::spawn(move || drop(moved)).join().unwrap();
        // Current span on this thread must still be "outer".
        let child = span("after");
        assert_ne!(child.id(), 0);
        drop(child);
        drop(root);
        tracer().set_enabled(false);
        let spans = tracer().drain();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("moved").parent, root_id);
        assert_eq!(by_name("after").parent, root_id);
    }

    #[test]
    fn chrome_export() {
        let spans = vec![
            SpanRecord {
                id: 1,
                parent: 0,
                name: "query",
                tid: 1,
                start_us: 10,
                dur_us: 100,
                attrs: vec![("kind", "select".to_string())],
            },
            SpanRecord {
                id: 2,
                parent: 1,
                name: "execute",
                tid: 1,
                start_us: 20,
                dur_us: 0,
                attrs: vec![],
            },
        ];
        let chrome = chrome_trace_json(&spans);
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.ends_with("]}"));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"name\":\"query\""));
        assert!(chrome.contains("\"kind\":\"select\""));
        // Zero-duration spans render as 1us so viewers show them.
        assert!(chrome.contains("\"dur\":1"));
    }

    #[test]
    fn tree_render() {
        let mk = |id, parent, name| SpanRecord {
            id,
            parent,
            name,
            tid: 1,
            start_us: id,
            dur_us: 1,
            attrs: vec![],
        };
        let spans = vec![
            mk(1, 0, "query"),
            mk(2, 1, "optimize"),
            mk(3, 1, "execute"),
            mk(4, 3, "op"),
            mk(5, 0, "other-root"),
        ];
        let tree = span_tree_json(&spans, 1).unwrap();
        assert!(tree.contains("\"name\":\"query\""));
        assert!(tree.contains("\"name\":\"op\""));
        assert!(!tree.contains("other-root"));
        assert!(span_tree_json(&spans, 99).is_none());
    }
}
