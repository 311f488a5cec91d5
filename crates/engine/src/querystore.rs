//! Query-store-lite: a fixed-capacity ring of recently executed statements
//! with their plan fingerprint, runtime metrics, and estimate-error ratio —
//! a miniature of SQL Server's Query Store, which is where the paper's
//! production plan-choice observations come from.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hpd_obs::json_string;
use hpd_storage::{IoSnapshot, Work};
use hpd_wal::WalSummary;

use crate::plan::{PhysicalPlan, PlanNode, PlanTable};
use crate::profile::{estimate_error, GrantSummary};

/// Stable hash of a plan's *shape* (operator kinds, indexes, and structure;
/// not cost annotations), so repeated executions of the same plan collapse
/// to one fingerprint.
pub fn plan_fingerprint(plan: &PhysicalPlan) -> u64 {
    let mut h = DefaultHasher::new();
    fn visit(node: &PlanNode, depth: usize, tables: &[PlanTable], h: &mut DefaultHasher) {
        depth.hash(h);
        node.describe(tables).hash(h);
        for c in node.children() {
            visit(c, depth + 1, tables, h);
        }
    }
    visit(&plan.root, 0, &plan.tables, &mut h);
    h.finish()
}

/// One retained statement execution: what the optimizer predicted beside
/// what the statement did, in the same structs its `EXPLAIN ANALYZE`
/// report holds.
#[derive(Debug, Clone)]
pub struct StoredStatement {
    /// Monotonic execution sequence number (database-wide).
    pub seq: u64,
    /// Statement kind: "select", "update" or "delete" (a write is recorded
    /// by the scan that found its target rows).
    pub kind: &'static str,
    pub plan_fingerprint: u64,
    /// Root operator description, e.g. `HashAgg groups=1 aggs=2`.
    pub plan_root: String,
    pub est_rows: f64,
    pub est_cost_us: f64,
    pub actual_rows: u64,
    pub elapsed_us: f64,
    pub cpu_us: f64,
    pub memory_peak_bytes: u64,
    /// Degree of parallelism the plan executed with.
    pub dop: u64,
    /// I/O, spill and columnstore work of the execution.
    pub io: IoSnapshot,
    pub grant: GrantSummary,
    /// The transaction's commit-path log activity (backfilled post-commit;
    /// zero for read-only statements or when the WAL is disabled).
    pub wal: WalSummary,
    /// Nested span-tree JSON for this statement's `query` span, when
    /// tracing was enabled (backfilled post-commit).
    pub trace: Option<String>,
}

impl StoredStatement {
    /// The plan root's [`estimate_error`].
    pub fn estimate_error(&self) -> f64 {
        estimate_error(self.actual_rows, self.est_rows)
    }

    /// One JSON object, no trailing newline.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"seq\":{},\"kind\":{},\"fingerprint\":\"{:016x}\",\"root\":{},\
             \"est_rows\":{:.0},\"est_cost_us\":{:.1},\"actual_rows\":{},\
             \"elapsed_us\":{:.1},\"cpu_us\":{:.1},\"bytes_read\":{},\
             \"memory_peak_bytes\":{},\"spilled_bytes\":{},\"estimate_error\":{:.3},\
             \"grant_wait_us\":{},\"granted_bytes\":{},\"dop\":{},\
             \"pushdown_rows\":{},\"wal_flush_us\":{},\"wal_records\":{}",
            self.seq,
            json_string(self.kind),
            self.plan_fingerprint,
            json_string(&self.plan_root),
            self.est_rows,
            self.est_cost_us,
            self.actual_rows,
            self.elapsed_us,
            self.cpu_us,
            self.io.bytes_read,
            self.memory_peak_bytes,
            self.io.spilled_bytes,
            self.estimate_error(),
            self.grant.wait_us,
            self.grant.granted_bytes,
            self.dop,
            self.io.counted(Work::AggRowsFolded) + self.io.counted(Work::AggDeltaRows),
            self.wal.flush_us,
            self.wal.records,
        );
        if let Some(trace) = &self.trace {
            // The trace is already JSON — embed it verbatim.
            out.push_str(",\"trace\":");
            out.push_str(trace);
        }
        out.push('}');
        out
    }
}

/// Ring buffer of the last `capacity` statements.
pub struct QueryStore {
    inner: Mutex<Ring>,
    seq: AtomicU64,
}

struct Ring {
    entries: Vec<StoredStatement>,
    capacity: usize,
    /// Index of the oldest entry once the ring has wrapped.
    head: usize,
}

impl QueryStore {
    pub fn new(capacity: usize) -> QueryStore {
        QueryStore {
            inner: Mutex::new(Ring {
                entries: Vec::new(),
                capacity: capacity.max(1),
                head: 0,
            }),
            seq: AtomicU64::new(0),
        }
    }

    /// Next statement sequence number.
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(&self, stmt: StoredStatement) {
        let mut ring = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if ring.entries.len() < ring.capacity {
            ring.entries.push(stmt);
        } else {
            let head = ring.head;
            ring.entries[head] = stmt;
            ring.head = (head + 1) % ring.capacity;
        }
    }

    /// Mutate the retained entry with sequence number `seq` in place, if it
    /// is still in the ring. Used to backfill commit-time facts (the WAL
    /// summary, span tree) that only exist after the statement was recorded.
    pub fn amend(&self, seq: u64, f: impl FnOnce(&mut StoredStatement)) {
        let mut ring = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(stmt) = ring.entries.iter_mut().find(|s| s.seq == seq) {
            f(stmt);
        }
    }

    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Retained statements, oldest first.
    pub fn recent(&self) -> Vec<StoredStatement> {
        let ring = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::with_capacity(ring.entries.len());
        for i in 0..ring.entries.len() {
            out.push(ring.entries[(ring.head + i) % ring.entries.len()].clone());
        }
        out
    }

    /// Dump as JSON lines (one statement per line, oldest first).
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.recent() {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stmt(seq: u64) -> StoredStatement {
        StoredStatement {
            seq,
            kind: "select",
            plan_fingerprint: 0xabc,
            plan_root: format!("Op {seq}"),
            est_rows: 10.0,
            est_cost_us: 5.0,
            actual_rows: 20,
            elapsed_us: 100.0,
            cpu_us: 80.0,
            memory_peak_bytes: 0,
            dop: 1,
            io: IoSnapshot::default(),
            grant: GrantSummary::default(),
            wal: WalSummary::default(),
            trace: None,
        }
    }

    #[test]
    fn ring_keeps_last_n_in_order() {
        let qs = QueryStore::new(3);
        for i in 0..5 {
            qs.record(stmt(i));
        }
        let recent = qs.recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(
            recent.iter().map(|s| s.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn amend_backfills_retained_entry_only() {
        let qs = QueryStore::new(2);
        for i in 0..3 {
            qs.record(stmt(i));
        }
        // seq 0 was evicted; amending it is a silent no-op.
        qs.amend(0, |s| s.wal.flush_us = 999);
        qs.amend(2, |s| {
            s.wal.flush_us = 42;
            s.wal.records = 3;
            s.trace = Some("{\"name\":\"query\"}".to_string());
        });
        let recent = qs.recent();
        assert_eq!(recent[1].seq, 2);
        assert_eq!(recent[1].wal.flush_us, 42);
        assert_eq!(recent[1].wal.records, 3);
        assert!(recent[0].trace.is_none());
        let json = recent[1].to_json();
        assert!(json.contains("\"wal_flush_us\":42"));
        assert!(json.contains("\"trace\":{\"name\":\"query\"}"));
    }

    #[test]
    fn jsonl_has_one_line_per_statement() {
        let qs = QueryStore::new(8);
        qs.record(stmt(0));
        qs.record(stmt(1));
        let dump = qs.dump_jsonl();
        assert_eq!(dump.lines().count(), 2);
        assert!(dump.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(dump.contains("\"estimate_error\":2.000"));
    }
}
