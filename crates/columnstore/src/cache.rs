//! Bytes-capped LRU cache of decoded segments.
//!
//! Repeated scans and point lookups over the same row groups were paying a
//! full segment decode every time. The cache keys a decoded column vector by
//! its segment's blob id ([`Segment::blob`]), assigned when the segment is
//! built and never reused, and a segment never changes once built (deletes
//! only flip delete-bitmap bits): an entry needs no invalidation while its
//! row group lives, whatever position the group moves to. Merge-compaction
//! and the drop of an empty group remove row groups, and
//! [`SegmentCache::evict`] takes out their segments, and only theirs.
//! Eviction is least-recently-used until the byte cap is respected; hits,
//! misses, and evictions are counted as [`Work`] by the tracker of the scan
//! that caused them (and so in the `columnstore.segcache.*` counters).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use hpd_common::ColumnVector;
use hpd_storage::{BlobId, IoTracker, Work};

use crate::segment::Segment;

struct Entry {
    column: Arc<ColumnVector>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<BlobId, Entry>,
    bytes: usize,
    tick: u64,
}

impl Inner {
    fn touch(&mut self, key: BlobId) -> Option<Arc<ColumnVector>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.column)
        })
    }

    fn insert(&mut self, key: BlobId, column: Arc<ColumnVector>, cap: usize, tracker: &IoTracker) {
        let bytes = column.byte_size();
        if bytes > cap {
            return; // would evict everything and still not fit
        }
        self.tick += 1;
        if let Some(old) = self.map.insert(
            key,
            Entry {
                column,
                bytes,
                last_used: self.tick,
            },
        ) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        while self.bytes > cap {
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
                .expect("bytes > 0 implies entries");
            let evicted = self.map.remove(&lru).expect("key from iteration");
            self.bytes -= evicted.bytes;
            tracker.count(Work::SegcacheEvict, 1);
        }
    }
}

/// A bytes-capped LRU map from a segment's blob id to its decoded column.
/// `cap_bytes == 0` disables caching entirely.
#[derive(Default)]
pub struct SegmentCache {
    inner: Mutex<Inner>,
    cap_bytes: usize,
}

impl SegmentCache {
    pub fn new(cap_bytes: usize) -> SegmentCache {
        SegmentCache {
            inner: Mutex::new(Inner::default()),
            cap_bytes,
        }
    }

    /// The decoded column of `seg`, decoding (and caching) on miss; hits,
    /// misses and evictions are counted by `tracker`.
    pub fn get_or_decode(&self, seg: &Segment, tracker: &IoTracker) -> Arc<ColumnVector> {
        if self.cap_bytes == 0 {
            return Arc::new(seg.decode());
        }
        if let Some(hit) = self.lock().touch(seg.blob()) {
            tracker.count(Work::SegcacheHit, 1);
            return hit;
        }
        tracker.count(Work::SegcacheMiss, 1);
        // Decode outside the lock; a racing decode of the same segment is
        // wasted work, not a correctness problem.
        let decoded = Arc::new(seg.decode());
        self.lock()
            .insert(seg.blob(), Arc::clone(&decoded), self.cap_bytes, tracker);
        decoded
    }

    /// The cached decoded column of `seg`, if present — no decode on miss
    /// (gather paths prefer partial decodes over populating the cache).
    pub fn peek(&self, seg: &Segment, tracker: &IoTracker) -> Option<Arc<ColumnVector>> {
        if self.cap_bytes == 0 {
            return None;
        }
        let hit = self.lock().touch(seg.blob());
        if hit.is_some() {
            tracker.count(Work::SegcacheHit, 1);
        }
        hit
    }

    /// Drop the decodes of `segments`, whose row group is gone; every other
    /// entry stays.
    pub fn evict<'a>(&self, segments: impl IntoIterator<Item = &'a Segment>) {
        let mut inner = self.lock();
        for seg in segments {
            if let Some(gone) = inner.map.remove(&seg.blob()) {
                inner.bytes -= gone.bytes;
            }
        }
    }

    /// Bytes currently cached (always ≤ the cap).
    pub fn bytes_used(&self) -> usize {
        self.lock().bytes
    }

    pub fn cap_bytes(&self) -> usize {
        self.cap_bytes
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpd_storage::StorageAllocator;

    fn seg(n: i64) -> Segment {
        Segment::build(
            &ColumnVector::Int64((0..n).collect()),
            &StorageAllocator::new(),
        )
    }

    #[test]
    fn hit_after_miss_shares_the_decode() {
        let cache = SegmentCache::new(1 << 20);
        let s = seg(100);
        let t = IoTracker::new();
        let a = cache.get_or_decode(&s, &t);
        let b = cache.get_or_decode(&s, &t);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.bytes_used(), a.byte_size());
        let io = t.snapshot();
        assert_eq!(
            (
                io.counted(Work::SegcacheMiss),
                io.counted(Work::SegcacheHit)
            ),
            (1, 1)
        );
    }

    #[test]
    fn byte_cap_evicts_least_recently_used() {
        let alloc = StorageAllocator::new();
        let segs: Vec<Segment> = (0..3)
            .map(|_| Segment::build(&ColumnVector::Int64((0..128).collect()), &alloc))
            .collect(); // 1 KiB decoded each
        let per = segs[0].decode().byte_size();
        let cache = SegmentCache::new(per * 2);
        let t = IoTracker::new();
        cache.get_or_decode(&segs[0], &t);
        cache.get_or_decode(&segs[1], &t);
        cache.get_or_decode(&segs[0], &t); // refresh the first
        cache.get_or_decode(&segs[2], &t); // evicts the second
        assert_eq!(t.snapshot().counted(Work::SegcacheEvict), 1);
        assert!(cache.bytes_used() <= cache.cap_bytes());
        assert!(cache.peek(&segs[0], &t).is_some());
        assert!(cache.peek(&segs[1], &t).is_none());
        assert!(cache.peek(&segs[2], &t).is_some());
    }

    #[test]
    fn evict_drops_only_the_segments_named() {
        let alloc = StorageAllocator::new();
        let segs: Vec<Segment> = (0..3)
            .map(|_| Segment::build(&ColumnVector::Int64((0..64).collect()), &alloc))
            .collect();
        let cache = SegmentCache::new(1 << 20);
        let t = IoTracker::new();
        for s in &segs {
            cache.get_or_decode(s, &t);
        }
        cache.evict(&segs[1..2]);
        assert_eq!(cache.bytes_used(), 2 * segs[0].decode().byte_size());
        assert!(cache.peek(&segs[0], &t).is_some());
        assert!(cache.peek(&segs[1], &t).is_none());
        assert!(cache.peek(&segs[2], &t).is_some());
    }

    /// A merge rewrites some row groups; the decodes of the others stay
    /// cached, so a scan after it decodes the merged group alone.
    #[test]
    fn a_merge_keeps_the_untouched_groups_decodes() {
        use crate::index::{ColumnStoreIndex, CsiConfig, CsiKind};
        use hpd_common::{DataType, Row, Schema, Value};
        use hpd_storage::{BufferPool, DeviceProfile};
        use std::collections::HashMap;

        let pool = BufferPool::unbounded(DeviceProfile::ram());
        let t = IoTracker::new();
        let schema = Schema::from_pairs(&[("id", DataType::Int32), ("v", DataType::Int64)]);
        let row = |i: i32| Row::new(vec![Value::Int32(i), Value::Int64(i64::from(i) * 7)]);
        let config = CsiConfig {
            rowgroup_capacity: 64,
            ..CsiConfig::default()
        };
        let rows: Vec<Row> = (0..128).map(row).collect();
        let mut idx = ColumnStoreIndex::build(
            schema,
            CsiKind::Primary,
            vec![0],
            config,
            &rows,
            StorageAllocator::new(),
            &pool,
            &t,
        );
        // Two small groups behind the two full ones.
        for i in 128..148 {
            idx.insert(row(i), &pool, &t);
            if i == 137 {
                idx.maintenance_step(usize::MAX, &pool, &t);
            }
        }
        idx.maintenance_step(10, &pool, &t);
        assert_eq!(idx.num_rowgroups(), 4);
        let misses = |idx: &ColumnStoreIndex| {
            let t = IoTracker::new();
            idx.scan_collect(&[0, 1], &HashMap::new(), &pool, &t);
            t.snapshot().counted(Work::SegcacheMiss)
        };
        assert_eq!(misses(&idx), 8, "the first scan decodes all");
        assert_eq!(misses(&idx), 0);

        let step = idx.maintenance_step(usize::MAX, &pool, &t);
        assert_eq!((step.rowgroups_merged, idx.num_rowgroups()), (1, 3));
        assert_eq!(
            misses(&idx),
            2,
            "only the merged group's two segments are decoded again"
        );
    }

    #[test]
    fn zero_cap_disables_caching() {
        let cache = SegmentCache::new(0);
        let s = seg(10);
        let t = IoTracker::new();
        let a = cache.get_or_decode(&s, &t);
        let b = cache.get_or_decode(&s, &t);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.bytes_used(), 0);
    }

    #[test]
    fn oversized_entry_is_not_cached() {
        let cache = SegmentCache::new(8);
        let s = seg(100);
        cache.get_or_decode(&s, &IoTracker::new());
        assert_eq!(cache.bytes_used(), 0);
    }
}
