//! The delta store: a B+ tree of not-yet-compressed rows.
//!
//! Inserts into a columnstore land here (paper §2: "Inserts are handled via
//! delta stores which are implemented as B+ trees"). A tuple mover drains
//! chunks into compressed row groups. Rows are keyed by the owning index's
//! row key (the table primary key), so point deletes are a single B+ tree
//! seek rather than a delta scan; when the key's columns lead the row, an
//! entry is the row's bytes alone ([`EntryForm::KeyInPayload`]).

use std::ops::Bound;

use hpd_btree::{BTree, BTreeConfig, Cursor, EntryForm};
use hpd_common::{faults, Key, Row};
use hpd_storage::{BufferPool, IoTracker, StorageAllocator};

/// B+ tree-backed staging area for uncompressed columnstore rows.
pub struct DeltaStore {
    tree: BTree,
}

impl DeltaStore {
    /// An empty delta store of rows keyed on their columns `key_ordinals`.
    pub fn new(key_ordinals: &[usize], alloc: StorageAllocator) -> DeltaStore {
        let config = BTreeConfig {
            form: EntryForm::of(key_ordinals, 0..),
            ..BTreeConfig::default()
        };
        DeltaStore {
            tree: BTree::new(config, alloc),
        }
    }

    pub fn len(&self) -> usize {
        self.tree.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Logical size in bytes (for what-if sizing).
    pub fn size_bytes(&self) -> usize {
        self.tree.size_bytes()
    }

    /// Stage a row under its row key (B+ tree insert cost — cheap, the
    /// point of the delta store).
    pub fn insert(&mut self, key: Key, row: Row, pool: &BufferPool, tracker: &IoTracker) {
        hpd_obs::global().counter("columnstore.delta.insert").inc();
        self.tree.insert(key, row, pool, tracker);
    }

    /// Remove the row with this key (single seek).
    pub fn delete_by_key(
        &mut self,
        key: &Key,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Option<Row> {
        self.tree.delete_first_where(key, |_| true, pool, tracker)
    }

    /// A cursor at the first staged row, for [`DeltaStore::walk`]
    /// (charging the page it lands on).
    pub fn seek_first(&self, pool: &BufferPool, tracker: &IoTracker) -> Cursor {
        self.tree.cursor_seek(Bound::Unbounded, pool, tracker)
    }

    /// Hand up to `limit` staged rows from `cursor` on, in key order, to
    /// `emit` in their encoded form (`hpd_common::codec::values` reads
    /// them), charging each leaf moved to; true when no row is left.
    pub fn walk<'t>(
        &'t self,
        cursor: &mut Cursor,
        limit: usize,
        pool: &BufferPool,
        tracker: &IoTracker,
        mut emit: impl FnMut(&'t [u8]),
    ) -> bool {
        let bound = Bound::Unbounded;
        (self.tree).cursor_walk(cursor, bound, limit, pool, tracker, |e| emit(e.payload))
    }

    /// Remove and return up to `n` rows, smallest keys first (tuple-mover
    /// drain; draining in key order also compresses well).
    pub fn drain(&mut self, n: usize, pool: &BufferPool, tracker: &IoTracker) -> Vec<Row> {
        hpd_obs::global().counter("columnstore.delta.drain").inc();
        // Injected interruption: hand back a short chunk, as if the mover
        // were preempted mid-drain. Callers must cope with partial drains.
        let n = if faults::fire(faults::sites::DELTA_DRAIN_PARTIAL) {
            (n / 2).max(1)
        } else {
            n
        };
        let mut out = Vec::with_capacity(n.min(self.tree.len()));
        let keys: Vec<Key> = {
            let mut cur = self.tree.cursor_seek(Bound::Unbounded, pool, tracker);
            let mut entries = Vec::new();
            while entries.len() < n {
                let before = entries.len();
                let exhausted = self.tree.cursor_fill(
                    &mut cur,
                    Bound::Unbounded,
                    n - entries.len(),
                    &mut entries,
                    pool,
                    tracker,
                );
                if exhausted || entries.len() == before {
                    break;
                }
            }
            entries.into_iter().map(|(k, _)| k).collect()
        };
        for k in keys {
            if let Some(row) = self.tree.delete_first_where(&k, |_| true, pool, tracker) {
                out.push(row);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpd_common::Value;
    use hpd_storage::DeviceProfile;

    fn setup() -> (DeltaStore, BufferPool, IoTracker) {
        (
            DeltaStore::new(&[0], StorageAllocator::new()),
            BufferPool::unbounded(DeviceProfile::ram()),
            IoTracker::new(),
        )
    }

    fn kv(v: i32) -> (Key, Row) {
        (
            Key::single(Value::Int32(v)),
            Row::new(vec![Value::Int32(v)]),
        )
    }

    #[test]
    fn insert_walk_key_order() {
        let (mut d, pool, t) = setup();
        for v in [5, 3, 9] {
            let (k, r) = kv(v);
            d.insert(k, r, &pool, &t);
        }
        let mut rows = Vec::new();
        let mut cursor = d.seek_first(&pool, &t);
        // Two a call: the walk picks up where the last one stopped.
        while !d.walk(&mut cursor, 2, &pool, &t, |row| {
            rows.push(hpd_common::codec::decode(row)[0].as_i32().unwrap())
        }) {}
        assert_eq!(rows, vec![3, 5, 9], "delta is keyed, so walks are ordered");
    }

    #[test]
    fn delete_by_key_is_exact() {
        let (mut d, pool, t) = setup();
        for v in [1, 2, 3] {
            let (k, r) = kv(v);
            d.insert(k, r, &pool, &t);
        }
        let removed = d.delete_by_key(&Key::single(Value::Int32(2)), &pool, &t);
        assert_eq!(removed.unwrap()[0], Value::Int32(2));
        assert_eq!(d.len(), 2);
        assert!(d
            .delete_by_key(&Key::single(Value::Int32(42)), &pool, &t)
            .is_none());
    }

    #[test]
    fn drain_removes_smallest_first() {
        let (mut d, pool, t) = setup();
        for v in [9, 0, 5, 7, 2] {
            let (k, r) = kv(v);
            d.insert(k, r, &pool, &t);
        }
        let drained: Vec<i32> = d
            .drain(3, &pool, &t)
            .into_iter()
            .map(|r| r[0].as_i32().unwrap())
            .collect();
        assert_eq!(drained, vec![0, 2, 5]);
        assert_eq!(d.len(), 2);
        let rest = d.drain(100, &pool, &t);
        assert_eq!(rest.len(), 2);
        assert!(d.is_empty());
    }

    #[test]
    fn delete_cost_is_logarithmic_not_linear() {
        let (mut d, pool, t) = setup();
        for v in 0..10_000 {
            let (k, r) = kv(v);
            d.insert(k, r, &pool, &t);
        }
        let probe = IoTracker::new();
        d.delete_by_key(&Key::single(Value::Int32(5_000)), &pool, &probe);
        assert!(
            probe.snapshot().logical_reads < 20,
            "point delete must not scan the delta: {} reads",
            probe.snapshot().logical_reads
        );
    }
}
