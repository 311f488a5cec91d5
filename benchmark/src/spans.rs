//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A span has a name, a start, an end, the span that caused it and
//! the statement it belongs to; self time is the span minus its children.
//! Spans stay in memory during the run and are written as JSONL after it.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Statement the span belongs to; `u32::MAX` for work between
    /// statements (maintenance).
    pub stmt: u32,
}

pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog::new()
    }
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, stmt: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            stmt,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Record a span the callee timed itself (the optimizer's share of an
    /// execute call, reported in the statement's analyze timeline): it
    /// starts where its parent starts and lasts `dur_ns`, clipped to the
    /// parent.
    pub fn insert_child(&mut self, name: &'static str, parent: u32, dur_ns: u64) {
        let p = self.spans[parent as usize];
        self.spans.push(Span {
            name,
            start_ns: p.start_ns,
            end_ns: (p.start_ns + dur_ns).min(p.end_ns),
            parent,
            stmt: p.stmt,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, nanoseconds: duration minus the time its
    /// direct children cover.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        out
    }

    /// Total duration per span name, nanoseconds.
    pub fn total_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.end_ns - s.start_ns;
        }
        out
    }

    /// Write at most `cap` spans, one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, cap: usize) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate().take(cap) {
            write!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.name, s.start_ns, s.end_ns
            )?;
            if s.parent != NO_PARENT {
                write!(w, ",\"parent\":{}", s.parent)?;
            }
            if s.stmt != u32::MAX {
                write!(w, ",\"stmt\":{}", s.stmt)?;
            }
            writeln!(w, "}}")?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            stmt: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let log = SpanLog {
            origin: Instant::now(),
            spans: vec![
                span("stmt", 0, 100, NO_PARENT),
                span("sql", 0, 10, 0),
                span("execute", 10, 80, 0),
                span("optimize", 10, 30, 2),
                span("commit", 80, 95, 0),
            ],
        };
        let own = log.self_time_by_name();
        assert_eq!(own["stmt"], 5, "5 ns of the statement are in no child");
        assert_eq!(own["sql"], 10);
        assert_eq!(own["execute"], 50);
        assert_eq!(own["optimize"], 20);
        assert_eq!(own["commit"], 15);
        assert_eq!(
            own.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn inserted_child_is_clipped_to_its_parent() {
        let mut log = SpanLog::new();
        let root = log.open("execute", NO_PARENT, 7);
        log.close(root);
        log.insert_child("optimize", root, u64::MAX / 2);
        let [parent, child] = log.spans() else {
            panic!("two spans")
        };
        assert_eq!(child.start_ns, parent.start_ns);
        assert_eq!(child.end_ns, parent.end_ns);
        assert_eq!(child.stmt, 7);
    }
}
