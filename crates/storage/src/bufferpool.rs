//! An LRU buffer pool over logical pages and blobs.
//!
//! The pool does not hold data — index structures keep their payloads in
//! process memory. It tracks *residency*: which logical pages/blobs would be
//! cached given the configured capacity, charging simulated device time for
//! misses. Bounding the capacity reproduces the paper's memory-constrained
//! configurations; [`BufferPool::clear`] reproduces a cold start.

use std::collections::HashMap;

use hpd_common::faults;
use hpd_obs::Counter;
use parking_lot::Mutex;

use crate::device::DeviceProfile;
use crate::page::{BlobId, PageId, PAGE_SIZE};
use crate::tracker::IoTracker;

/// Key space shared by pages and blobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CacheKey {
    Page(u64),
    Blob(u64),
}

/// "No slot": the end of the recency list in either direction.
const NIL: usize = usize::MAX;

/// One resident entry, linked into the recency list by slot number.
struct Slot {
    key: CacheKey,
    bytes: u64,
    prev: usize,
    next: usize,
}

struct PoolInner {
    /// Resident key → its slot.
    index: HashMap<CacheKey, usize>,
    /// Exact LRU order as a doubly linked list threaded through a slab:
    /// `head` is the least recently used entry, `tail` the most. A touch
    /// relinks one slot and an eviction frees one, so the bookkeeping is one
    /// slot per entry that was ever resident *at once* — a hit on a pool
    /// that never evicts costs no memory.
    slots: Vec<Slot>,
    /// Vacated slots, reused before the slab grows.
    free: Vec<usize>,
    head: usize,
    tail: usize,
    used_bytes: u64,
    /// Global registry handles, fetched once at pool construction so the
    /// hot path is a relaxed atomic add with no name lookup.
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl PoolInner {
    fn new() -> PoolInner {
        PoolInner {
            index: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            used_bytes: 0,
            hits: hpd_obs::global().counter("storage.bufferpool.hit"),
            misses: hpd_obs::global().counter("storage.bufferpool.miss"),
            evictions: hpd_obs::global().counter("storage.bufferpool.evict"),
        }
    }

    /// Touch a key: returns true if it was resident (hit). On miss, inserts
    /// the entry and evicts LRU entries as needed.
    fn touch(&mut self, key: CacheKey, bytes: u64, capacity: u64) -> bool {
        if let Some(&slot) = self.index.get(&key) {
            if slot != self.tail {
                self.unlink(slot);
                self.link_most_recent(slot);
            }
            self.hits.inc();
            return true;
        }
        // Miss: admit (unless larger than the whole pool) and evict.
        self.misses.inc();
        if bytes <= capacity {
            let entry = Slot {
                key,
                bytes,
                prev: NIL,
                next: NIL,
            };
            let slot = match self.free.pop() {
                Some(slot) => {
                    self.slots[slot] = entry;
                    slot
                }
                None => {
                    self.slots.push(entry);
                    self.slots.len() - 1
                }
            };
            self.index.insert(key, slot);
            self.link_most_recent(slot);
            self.used_bytes += bytes;
            // The entry just admitted fits on its own, so the walk from the
            // cold end stops before reaching it.
            while self.used_bytes > capacity {
                let victim = self.slots[self.head].key;
                self.remove(&victim);
                self.evictions.inc();
            }
        }
        false
    }

    fn unlink(&mut self, slot: usize) {
        let Slot { prev, next, .. } = self.slots[slot];
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn link_most_recent(&mut self, slot: usize) {
        self.slots[slot].prev = self.tail;
        self.slots[slot].next = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.slots[t].next = slot,
        }
        self.tail = slot;
    }

    /// Drop a resident entry (eviction or invalidation); false if absent.
    fn remove(&mut self, key: &CacheKey) -> bool {
        let Some(slot) = self.index.remove(key) else {
            return false;
        };
        self.unlink(slot);
        self.used_bytes -= self.slots[slot].bytes;
        self.free.push(slot);
        true
    }

    fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.used_bytes = 0;
    }

    fn contains(&self, key: &CacheKey) -> bool {
        self.index.contains_key(key)
    }
}

/// Shared, thread-safe buffer pool simulation.
pub struct BufferPool {
    inner: Mutex<PoolInner>,
    device: DeviceProfile,
    capacity_bytes: u64,
}

impl BufferPool {
    pub fn new(capacity_bytes: u64, device: DeviceProfile) -> BufferPool {
        BufferPool {
            inner: Mutex::new(PoolInner::new()),
            device,
            capacity_bytes,
        }
    }

    /// A pool large enough that nothing is ever evicted (memory-resident
    /// configuration).
    pub fn unbounded(device: DeviceProfile) -> BufferPool {
        BufferPool::new(u64::MAX / 4, device)
    }

    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Honour the forced-eviction injection site: when armed, the next read
    /// access finds a cold pool. Results are unaffected — only simulated I/O
    /// cost changes — which lets the harness assert that eviction pressure
    /// at arbitrary schedule points never alters query answers.
    fn maybe_force_evict(&self) {
        if faults::fire(faults::sites::BUFFERPOOL_EVICT) {
            self.clear();
        }
    }

    /// Access one page with *random* access cost: a miss pays one seek plus
    /// one page of bandwidth. Used for B+ tree root-to-leaf traversals.
    pub fn access_page(&self, page: PageId, tracker: &IoTracker) {
        self.maybe_force_evict();
        tracker.record_logical(1);
        let hit = self.inner.lock().touch(
            CacheKey::Page(page.0),
            PAGE_SIZE as u64,
            self.capacity_bytes,
        );
        if !hit {
            let (seek, bw) = self.device.read_cost_parts(PAGE_SIZE as u64, 1);
            tracker.record_physical_read(1, PAGE_SIZE as u64, seek, bw);
        }
    }

    /// Access one page as the *continuation of a sequential run*: a miss
    /// charges bandwidth only (read-ahead already positioned the head).
    /// Callers use this when the page id immediately follows the previously
    /// accessed page, e.g. walking contiguously allocated B+ tree leaves.
    pub fn access_page_seq(&self, page: PageId, tracker: &IoTracker) {
        self.maybe_force_evict();
        tracker.record_logical(1);
        let hit = self.inner.lock().touch(
            CacheKey::Page(page.0),
            PAGE_SIZE as u64,
            self.capacity_bytes,
        );
        if !hit {
            // Part of an ongoing sequential request: bandwidth only, and no
            // new request is counted.
            let (_, bw) = self.device.read_cost_parts(PAGE_SIZE as u64, 0);
            tracker.record_physical_read(0, PAGE_SIZE as u64, 0.0, bw);
        }
    }

    /// Access one blob (compressed column segment): a miss pays one seek
    /// plus the blob's bytes at sequential bandwidth — the megabyte-granular
    /// access pattern of columnstore scans.
    pub fn access_blob(&self, blob: BlobId, bytes: u64, tracker: &IoTracker) {
        self.maybe_force_evict();
        tracker.record_logical(1);
        let hit = self
            .inner
            .lock()
            .touch(CacheKey::Blob(blob.0), bytes, self.capacity_bytes);
        if !hit {
            let (seek, bw) = self.device.read_cost_parts(bytes, 1);
            tracker.record_physical_read(1, bytes, seek, bw);
        }
    }

    /// Charge a write of `bytes` in `requests` requests and mark the given
    /// page as resident (write-back caching of dirtied pages).
    pub fn write_page(&self, page: PageId, tracker: &IoTracker) {
        self.inner.lock().touch(
            CacheKey::Page(page.0),
            PAGE_SIZE as u64,
            self.capacity_bytes,
        );
        let (seek, bw) = self.device.write_cost_parts(PAGE_SIZE as u64, 1);
        tracker.record_write(PAGE_SIZE as u64, seek, bw);
    }

    /// Charge a bulk sequential write (building compressed segments, bulk
    /// load) and admit the blob.
    pub fn write_blob(&self, blob: BlobId, bytes: u64, tracker: &IoTracker) {
        self.inner
            .lock()
            .touch(CacheKey::Blob(blob.0), bytes, self.capacity_bytes);
        let (seek, bw) = self.device.write_cost_parts(bytes, 1);
        tracker.record_write(bytes, seek, bw);
    }

    /// True if the page is currently resident (test/diagnostic hook).
    pub fn is_page_resident(&self, page: PageId) -> bool {
        self.inner.lock().contains(&CacheKey::Page(page.0))
    }

    /// True if the blob is currently resident (test/diagnostic hook).
    pub fn is_blob_resident(&self, blob: BlobId) -> bool {
        self.inner.lock().contains(&CacheKey::Blob(blob.0))
    }

    /// Bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.inner.lock().used_bytes
    }

    /// Drop everything — the next run is a *cold* run.
    pub fn clear(&self) {
        self.inner.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cap: u64) -> BufferPool {
        BufferPool::new(cap, DeviceProfile::hdd_raid())
    }

    #[test]
    fn second_access_is_a_hit() {
        let p = pool(1 << 20);
        let t = IoTracker::new();
        p.access_page(PageId(1), &t);
        p.access_page(PageId(1), &t);
        let s = t.snapshot();
        assert_eq!(s.logical_reads, 2);
        assert_eq!(s.physical_reads, 1);
        assert_eq!(s.bytes_read, PAGE_SIZE as u64);
    }

    #[test]
    fn lru_evicts_oldest() {
        // Capacity of exactly 2 pages.
        let p = pool(2 * PAGE_SIZE as u64);
        let t = IoTracker::new();
        p.access_page(PageId(1), &t);
        p.access_page(PageId(2), &t);
        p.access_page(PageId(1), &t); // refresh 1
        p.access_page(PageId(3), &t); // evicts 2
        assert!(p.is_page_resident(PageId(1)));
        assert!(!p.is_page_resident(PageId(2)));
        assert!(p.is_page_resident(PageId(3)));
    }

    #[test]
    fn blob_miss_charges_bandwidth() {
        let p = pool(1 << 30);
        let t = IoTracker::new();
        let mb = 1 << 20;
        p.access_blob(BlobId(7), mb, &t);
        let s = t.snapshot();
        assert_eq!(s.bytes_read, mb);
        // 4ms seek + 1MB / 1000 MB/s ≈ 4000 + 1048.6 us
        assert!((s.sim_io_us() - (4_000.0 + mb as f64 / 1_000.0)).abs() < 1.0);
        p.access_blob(BlobId(7), mb, &t);
        assert_eq!(t.snapshot().physical_reads, 1, "second access hits");
    }

    #[test]
    fn oversized_blob_is_not_admitted() {
        let p = pool(PAGE_SIZE as u64);
        let t = IoTracker::new();
        p.access_blob(BlobId(1), 1 << 20, &t);
        assert!(!p.is_blob_resident(BlobId(1)));
        p.access_blob(BlobId(1), 1 << 20, &t);
        assert_eq!(t.snapshot().physical_reads, 2, "never cached");
    }

    #[test]
    fn clear_makes_next_run_cold() {
        let p = pool(1 << 30);
        let t = IoTracker::new();
        p.access_page(PageId(5), &t);
        p.clear();
        p.access_page(PageId(5), &t);
        assert_eq!(t.snapshot().physical_reads, 2);
    }

    #[test]
    fn write_admits_page() {
        let p = pool(1 << 30);
        let t = IoTracker::new();
        p.write_page(PageId(9), &t);
        assert!(p.is_page_resident(PageId(9)));
        let s = t.snapshot();
        assert_eq!(s.bytes_written, PAGE_SIZE as u64);
        p.access_page(PageId(9), &t);
        assert_eq!(t.snapshot().physical_reads, 0);
    }

    #[test]
    fn global_counters_track_hits_misses_evictions() {
        // Other tests share the global registry, so assert on deltas with
        // `>=` rather than exact counts.
        let before = hpd_obs::global().snapshot();
        let p = pool(2 * PAGE_SIZE as u64);
        let t = IoTracker::new();
        p.access_page(PageId(900_001), &t); // miss
        p.access_page(PageId(900_001), &t); // hit
        p.access_page(PageId(900_002), &t); // miss
        p.access_page(PageId(900_003), &t); // miss, evicts LRU
        let d = hpd_obs::global().snapshot().delta(&before);
        assert!(d.counter("storage.bufferpool.hit") >= 1);
        assert!(d.counter("storage.bufferpool.miss") >= 3);
        assert!(d.counter("storage.bufferpool.evict") >= 1);
    }

    #[test]
    fn hits_add_no_bookkeeping() {
        // A resident set that never evicts: the lazy queue this list
        // replaced pushed one pair per hit and popped only when over
        // capacity, so it held a million entries here.
        // Recency-list slots held, resident or vacated: the pool's whole
        // per-entry bookkeeping.
        let slots = |p: &BufferPool| p.inner.lock().slots.len();
        let p = pool(1 << 30);
        let t = IoTracker::new();
        for round in 0..10_000 {
            for page in 0..100 {
                p.access_page(PageId(page), &t);
            }
            if round == 0 {
                assert_eq!(slots(&p), 100);
            }
        }
        assert_eq!(t.snapshot().logical_reads, 1_000_000);
        assert_eq!(slots(&p), 100);
        // Under eviction the slab is as large as the resident set ever was:
        // eight pages, plus the ninth admitted before its victim leaves.
        let small = pool(8 * PAGE_SIZE as u64);
        for page in 0..10_000 {
            small.access_page(PageId(page % 37), &t);
        }
        assert_eq!(slots(&small), 9);
    }

    /// The algorithm the linked list replaced, kept as the reference: an
    /// LRU queue of `(key, generation)` pairs with lazy invalidation —
    /// every touch pushes a pair, eviction pops from the front and skips
    /// pairs whose generation is stale.
    struct LazyQueueModel {
        entries: HashMap<CacheKey, (u64, u64)>,
        queue: std::collections::VecDeque<(CacheKey, u64)>,
        used_bytes: u64,
        next_generation: u64,
    }

    impl LazyQueueModel {
        /// Returns whether it was a hit and the keys evicted, in order.
        fn touch(&mut self, key: CacheKey, bytes: u64, capacity: u64) -> (bool, Vec<CacheKey>) {
            let generation = self.next_generation;
            self.next_generation += 1;
            if let Some(e) = self.entries.get_mut(&key) {
                e.1 = generation;
                self.queue.push_back((key, generation));
                return (true, Vec::new());
            }
            let mut evicted = Vec::new();
            if bytes <= capacity {
                self.entries.insert(key, (bytes, generation));
                self.queue.push_back((key, generation));
                self.used_bytes += bytes;
                while self.used_bytes > capacity {
                    let Some((k, g)) = self.queue.pop_front() else {
                        break;
                    };
                    if self.entries.get(&k).map(|e| e.1) == Some(g) {
                        self.used_bytes -= self.entries.remove(&k).expect("entry exists").0;
                        evicted.push(k);
                    }
                }
            }
            (false, evicted)
        }
    }

    #[test]
    fn same_hits_and_victims_as_the_lazy_queue() {
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut rnd = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) % n
        };
        for capacity in [3_000u64, 20_000, 1 << 40] {
            let mut model = LazyQueueModel {
                entries: HashMap::new(),
                queue: Default::default(),
                used_bytes: 0,
                next_generation: 0,
            };
            let mut list = PoolInner::new();
            let resident = |list: &PoolInner| -> Vec<CacheKey> {
                let mut keys = Vec::new();
                let mut slot = list.head;
                while slot != NIL {
                    keys.push(list.slots[slot].key);
                    slot = list.slots[slot].next;
                }
                keys
            };
            for step in 0..40_000 {
                match rnd(100) {
                    // Rare: a cold restart.
                    0 if rnd(50) == 0 => {
                        model.entries.clear();
                        model.queue.clear();
                        model.used_bytes = 0;
                        list.clear();
                    }
                    // A segment replaced by the tuple mover.
                    1..=4 => {
                        let key = CacheKey::Blob(rnd(24));
                        if let Some((bytes, _)) = model.entries.remove(&key) {
                            model.used_bytes -= bytes;
                        }
                        list.remove(&key);
                    }
                    op => {
                        // Pages of one size; blobs of a size fixed per id,
                        // some larger than the small pools.
                        let (key, bytes) = if op < 60 {
                            (CacheKey::Page(rnd(40)), 512)
                        } else {
                            let id = rnd(24);
                            (CacheKey::Blob(id), 300 + id * id * 17)
                        };
                        let before = resident(&list);
                        let (hit, victims) = model.touch(key, bytes, capacity);
                        assert_eq!(list.touch(key, bytes, capacity), hit, "step {step}");
                        // The victims, in order, are the cold end of the
                        // list; the touched key, if resident now, is the
                        // warm end; nothing else moved.
                        assert_eq!(&before[..victims.len()], &victims[..], "step {step}");
                        let mut expected: Vec<CacheKey> = before[victims.len()..]
                            .iter()
                            .copied()
                            .filter(|k| *k != key)
                            .collect();
                        if hit || bytes <= capacity {
                            expected.push(key);
                        }
                        assert_eq!(resident(&list), expected, "step {step}");
                    }
                }
                assert_eq!(list.used_bytes, model.used_bytes, "step {step}");
                assert_eq!(list.index.len(), model.entries.len(), "step {step}");
                assert!(list.slots.len() <= 64, "one slot per key at most");
            }
            // The whole recency order agrees, not just the victims seen.
            let mut by_age: Vec<_> = model.entries.iter().map(|(k, e)| (e.1, *k)).collect();
            by_age.sort_unstable_by_key(|&(generation, _)| generation);
            let order: Vec<CacheKey> = by_age.into_iter().map(|(_, k)| k).collect();
            assert_eq!(resident(&list), order);
        }
    }

    #[test]
    fn used_bytes_stays_within_capacity() {
        let cap = 4 * PAGE_SIZE as u64;
        let p = pool(cap);
        let t = IoTracker::new();
        for i in 0..100 {
            p.access_page(PageId(i), &t);
            assert!(p.used_bytes() <= cap);
        }
    }
}
