//! Bytes-capped LRU cache of decoded segments.
//!
//! Repeated scans and point lookups over the same row groups were paying a
//! full segment decode every time. The cache keys decoded column vectors by
//! (row group, column) — both immutable once a row group is built (deletes
//! only flip delete-bitmap bits; compression only *appends* row groups), so
//! entries need no invalidation on the hot paths. The one exception is
//! merge-compaction, which renumbers row groups and drops the cache
//! wholesale through [`SegmentCache::clear`]. Eviction is
//! least-recently-used until the byte cap is respected; hits, misses, and
//! evictions are counted as [`Work`] by the tracker of the scan that caused
//! them (and so in the `columnstore.segcache.*` counters).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use hpd_common::ColumnVector;
use hpd_storage::{IoTracker, Work};

use crate::segment::Segment;

struct Entry {
    column: Arc<ColumnVector>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<(usize, usize), Entry>,
    bytes: usize,
    tick: u64,
}

impl Inner {
    fn touch(&mut self, key: (usize, usize)) -> Option<Arc<ColumnVector>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.column)
        })
    }

    fn insert(
        &mut self,
        key: (usize, usize),
        column: Arc<ColumnVector>,
        cap: usize,
        tracker: &IoTracker,
    ) {
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

/// A bytes-capped LRU map from (row group, column) to the decoded column.
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

    /// The decoded column for `(rg, col)`, decoding (and caching) on miss;
    /// hits, misses and evictions are counted by `tracker`.
    pub fn get_or_decode(
        &self,
        rg: usize,
        col: usize,
        seg: &Segment,
        tracker: &IoTracker,
    ) -> Arc<ColumnVector> {
        if self.cap_bytes == 0 {
            return Arc::new(seg.decode());
        }
        if let Some(hit) = self.lock().touch((rg, col)) {
            tracker.count(Work::SegcacheHit, 1);
            return hit;
        }
        tracker.count(Work::SegcacheMiss, 1);
        // Decode outside the lock; a racing decode of the same segment is
        // wasted work, not a correctness problem.
        let decoded = Arc::new(seg.decode());
        self.lock()
            .insert((rg, col), Arc::clone(&decoded), self.cap_bytes, tracker);
        decoded
    }

    /// The cached decoded column, if present — no decode on miss (gather
    /// paths prefer partial decodes over populating the cache).
    pub fn peek(&self, rg: usize, col: usize, tracker: &IoTracker) -> Option<Arc<ColumnVector>> {
        if self.cap_bytes == 0 {
            return None;
        }
        let hit = self.lock().touch((rg, col));
        if hit.is_some() {
            tracker.count(Work::SegcacheHit, 1);
        }
        hit
    }

    /// Drop every entry. Merge-compaction renumbers row groups, so cached
    /// decodes keyed by the old indexes would alias the wrong group.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.bytes = 0;
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
        let a = cache.get_or_decode(0, 0, &s, &t);
        let b = cache.get_or_decode(0, 0, &s, &t);
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
        let s = seg(128); // 1 KiB decoded
        let per = s.decode().byte_size();
        let cache = SegmentCache::new(per * 2);
        let t = IoTracker::new();
        cache.get_or_decode(0, 0, &s, &t);
        cache.get_or_decode(1, 0, &s, &t);
        cache.get_or_decode(0, 0, &s, &t); // refresh rg 0
        cache.get_or_decode(2, 0, &s, &t); // evicts rg 1
        assert_eq!(t.snapshot().counted(Work::SegcacheEvict), 1);
        assert!(cache.bytes_used() <= cache.cap_bytes());
        assert!(cache.peek(0, 0, &t).is_some());
        assert!(cache.peek(1, 0, &t).is_none());
        assert!(cache.peek(2, 0, &t).is_some());
    }

    #[test]
    fn zero_cap_disables_caching() {
        let cache = SegmentCache::new(0);
        let s = seg(10);
        let t = IoTracker::new();
        let a = cache.get_or_decode(0, 0, &s, &t);
        let b = cache.get_or_decode(0, 0, &s, &t);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.bytes_used(), 0);
    }

    #[test]
    fn oversized_entry_is_not_cached() {
        let cache = SegmentCache::new(8);
        let s = seg(100);
        cache.get_or_decode(0, 0, &s, &IoTracker::new());
        assert_eq!(cache.bytes_used(), 0);
    }
}
