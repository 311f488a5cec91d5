//! Unit and property tests for the B+ tree.

use std::ops::Bound;

use hpd_btree::{BTree, BTreeConfig, EntryForm, MAX_LEAF_BYTES};
use hpd_common::{Key, Row, Value};
use hpd_storage::{BufferPool, DeviceProfile, IoTracker, StorageAllocator, PAGE_SIZE};
use proptest::prelude::*;

/// Leaves of 60 page bytes whose entries keep their one-value key in the
/// payload: five to fifteen [`kv`] entries (a payload of two values at
/// their significant width that begins with the key, and a 2-byte slot
/// each; five when both values take four payload bytes).
fn small_config() -> BTreeConfig {
    BTreeConfig {
        leaf_bytes: 60,
        internal_fanout: 4,
        bulk_fill: 1.0,
        form: EntryForm::KeyInPayload(1),
    }
}

fn pool() -> BufferPool {
    BufferPool::unbounded(DeviceProfile::ram())
}

fn kv(k: i32) -> (Key, Row) {
    (
        Key::single(Value::Int32(k)),
        Row::new(vec![Value::Int32(k), Value::Int32(k * 10)]),
    )
}

fn build_bulk(keys: &[i32]) -> (BTree, BufferPool, IoTracker) {
    let mut sorted: Vec<i32> = keys.to_vec();
    sorted.sort_unstable();
    let entries: Vec<(Key, Row)> = sorted.iter().map(|&k| kv(k)).collect();
    let pool = pool();
    let t = IoTracker::new();
    let tree =
        BTree::bulk_load(small_config(), StorageAllocator::new(), entries, &pool, &t).unwrap();
    (tree, pool, t)
}

fn collect_all(tree: &BTree, pool: &BufferPool) -> Vec<i32> {
    let t = IoTracker::new();
    tree.scan_range_collect(Bound::Unbounded, Bound::Unbounded, pool, &t)
        .into_iter()
        .map(|(k, _)| k.values()[0].as_i32().unwrap())
        .collect()
}

#[test]
fn empty_tree_scans_empty() {
    let tree = BTree::new(small_config(), StorageAllocator::new());
    let pool = pool();
    assert!(collect_all(&tree, &pool).is_empty());
    assert_eq!(tree.len(), 0);
    tree.check_invariants().unwrap();
}

#[test]
fn bulk_load_round_trip() {
    let keys: Vec<i32> = (0..1000).collect();
    let (tree, pool, _) = build_bulk(&keys);
    assert_eq!(tree.len(), 1000);
    assert_eq!(collect_all(&tree, &pool), keys);
    tree.check_invariants().unwrap();
    assert!(tree.height() > 1);
}

#[test]
fn inserts_maintain_order() {
    let tree_pool = pool();
    let t = IoTracker::new();
    let mut tree = BTree::new(small_config(), StorageAllocator::new());
    // Insert in shuffled order.
    let mut keys: Vec<i32> = (0..500).collect();
    let mut rng_state = 12345u64;
    for i in (1..keys.len()).rev() {
        rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let j = (rng_state >> 33) as usize % (i + 1);
        keys.swap(i, j);
    }
    for &k in &keys {
        let (key, row) = kv(k);
        tree.insert(key, row, &tree_pool, &t);
    }
    tree.check_invariants().unwrap();
    assert_eq!(collect_all(&tree, &tree_pool), (0..500).collect::<Vec<_>>());
}

#[test]
fn duplicate_keys_all_found() {
    let tree_pool = pool();
    let t = IoTracker::new();
    let mut tree = BTree::new(small_config(), StorageAllocator::new());
    for rep in 0..20 {
        for k in [1, 2, 3] {
            tree.insert(
                Key::single(Value::Int32(k)),
                Row::new(vec![Value::Int32(k), Value::Int32(rep)]),
                &tree_pool,
                &t,
            );
        }
    }
    tree.check_invariants().unwrap();
    let hits = tree.seek_exact(&Key::single(Value::Int32(2)), &tree_pool, &t);
    assert_eq!(hits.len(), 20);
    assert!(hits.iter().all(|r| r[0] == Value::Int32(2)));
}

#[test]
fn range_scan_bounds() {
    let keys: Vec<i32> = (0..100).map(|i| i * 2).collect(); // evens 0..198
    let (tree, pool, _) = build_bulk(&keys);
    let t = IoTracker::new();
    let lo = Key::single(Value::Int32(10));
    let hi = Key::single(Value::Int32(20));
    let got: Vec<i32> = tree
        .scan_range_collect(Bound::Included(&lo), Bound::Included(&hi), &pool, &t)
        .into_iter()
        .map(|(k, _)| k.values()[0].as_i32().unwrap())
        .collect();
    assert_eq!(got, vec![10, 12, 14, 16, 18, 20]);
    // Exclusive bounds
    let got: Vec<i32> = tree
        .scan_range_collect(Bound::Excluded(&lo), Bound::Excluded(&hi), &pool, &t)
        .into_iter()
        .map(|(k, _)| k.values()[0].as_i32().unwrap())
        .collect();
    assert_eq!(got, vec![12, 14, 16, 18]);
    // Bounds between keys
    let lo = Key::single(Value::Int32(11));
    let got: Vec<i32> = tree
        .scan_range_collect(Bound::Included(&lo), Bound::Unbounded, &pool, &t)
        .into_iter()
        .map(|(k, _)| k.values()[0].as_i32().unwrap())
        .collect();
    assert_eq!(got[0], 12);
}

#[test]
fn delete_removes_single_match() {
    let (mut tree, pool, t) = build_bulk(&(0..100).collect::<Vec<_>>());
    let key = Key::single(Value::Int32(42));
    let removed = tree.delete_first_where(&key, |_| true, &pool, &t);
    assert!(removed.is_some());
    assert_eq!(tree.len(), 99);
    assert!(tree.seek_exact(&key, &pool, &t).is_empty());
    assert!(tree.delete_first_where(&key, |_| true, &pool, &t).is_none());
    tree.check_invariants().unwrap();
}

#[test]
fn delete_with_predicate_picks_matching_duplicate() {
    let tree_pool = pool();
    let t = IoTracker::new();
    let mut tree = BTree::new(small_config(), StorageAllocator::new());
    for rep in 0..5 {
        tree.insert(
            Key::single(Value::Int32(7)),
            Row::new(vec![Value::Int32(7), Value::Int32(rep)]),
            &tree_pool,
            &t,
        );
    }
    let key = Key::single(Value::Int32(7));
    let removed = tree
        .delete_first_where(&key, |r| r[1] == Value::Int32(3), &tree_pool, &t)
        .unwrap();
    assert_eq!(removed[1], Value::Int32(3));
    let remaining = tree.seek_exact(&key, &tree_pool, &t);
    assert_eq!(remaining.len(), 4);
    assert!(remaining.iter().all(|r| r[1] != Value::Int32(3)));
}

#[test]
fn update_where_modifies_all_duplicates() {
    let tree_pool = pool();
    let t = IoTracker::new();
    let mut tree = BTree::new(small_config(), StorageAllocator::new());
    for k in [5, 5, 5, 6] {
        let (key, row) = kv(k);
        tree.insert(key, row, &tree_pool, &t);
    }
    let n = tree.update_where(
        &Key::single(Value::Int32(5)),
        |r| {
            r.set(1, Value::Int32(999));
            true
        },
        &tree_pool,
        &t,
    );
    assert_eq!(n, 3);
    let rows = tree.seek_exact(&Key::single(Value::Int32(5)), &tree_pool, &t);
    assert!(rows.iter().all(|r| r[1] == Value::Int32(999)));
    let other = tree.seek_exact(&Key::single(Value::Int32(6)), &tree_pool, &t);
    assert_eq!(other[0][1], Value::Int32(60));
}

#[test]
fn composite_keys_order_lexicographically() {
    let tree_pool = pool();
    let t = IoTracker::new();
    let config = BTreeConfig {
        form: EntryForm::KeyInPayload(2),
        ..small_config()
    };
    let mut tree = BTree::new(config, StorageAllocator::new());
    for (a, b) in [(2, 1), (1, 2), (1, 1), (2, 0)] {
        tree.insert(
            Key::new(vec![Value::Int32(a), Value::Int32(b)]),
            Row::new(vec![Value::Int32(a), Value::Int32(b)]),
            &tree_pool,
            &t,
        );
    }
    let all = tree.scan_range_collect(Bound::Unbounded, Bound::Unbounded, &tree_pool, &t);
    let pairs: Vec<(i32, i32)> = all
        .iter()
        .map(|(k, _)| {
            (
                k.values()[0].as_i32().unwrap(),
                k.values()[1].as_i32().unwrap(),
            )
        })
        .collect();
    assert_eq!(pairs, vec![(1, 1), (1, 2), (2, 0), (2, 1)]);
}

#[test]
fn selective_seek_touches_few_pages() {
    // 100k rows bulk loaded; a point lookup should touch O(height) pages
    // while a full scan touches every leaf.
    let keys: Vec<i32> = (0..100_000).collect();
    let entries: Vec<(Key, Row)> = keys.iter().map(|&k| kv(k)).collect();
    let p = BufferPool::unbounded(DeviceProfile::hdd_raid());
    let build_t = IoTracker::new();
    let tree = BTree::bulk_load(
        BTreeConfig::default(),
        StorageAllocator::new(),
        entries,
        &p,
        &build_t,
    )
    .unwrap();
    p.clear();

    let seek_t = IoTracker::new();
    let hits = tree.seek_exact(&Key::single(Value::Int32(77_777)), &p, &seek_t);
    assert_eq!(hits.len(), 1);
    let seek_pages = seek_t.snapshot().logical_reads;
    assert!(
        seek_pages <= tree.height() as u64 + 1,
        "point lookup touched {seek_pages} pages for height {}",
        tree.height()
    );

    p.clear();
    let scan_t = IoTracker::new();
    let all = tree.scan_range_collect(Bound::Unbounded, Bound::Unbounded, &p, &scan_t);
    assert_eq!(all.len(), 100_000);
    let stats = tree.stats();
    assert!(scan_t.snapshot().logical_reads >= stats.leaf_pages as u64);
}

#[test]
fn full_scan_after_bulk_load_is_mostly_sequential() {
    let keys: Vec<i32> = (0..50_000).collect();
    let entries: Vec<(Key, Row)> = keys.iter().map(|&k| kv(k)).collect();
    let p = BufferPool::unbounded(DeviceProfile::hdd_raid());
    let t0 = IoTracker::new();
    let tree = BTree::bulk_load(
        BTreeConfig::default(),
        StorageAllocator::new(),
        entries,
        &p,
        &t0,
    )
    .unwrap();
    p.clear();
    let t = IoTracker::new();
    tree.scan_range_collect(Bound::Unbounded, Bound::Unbounded, &p, &t);
    let s = t.snapshot();
    // Sequential leaf walk coalesces: physical requests far fewer than pages.
    assert!(
        (s.physical_reads as f64) < 0.2 * s.logical_reads as f64,
        "expected coalesced reads: {} physical vs {} logical",
        s.physical_reads,
        s.logical_reads
    );
}

#[test]
fn for_each_entry_is_a_cursor_scan_without_the_copies() {
    // Bulk-loaded leaves are contiguous; inserts then split some of them
    // onto pages allocated elsewhere, so the walk mixes sequential and
    // random leaf moves. Cold pool, HDD: every access shows in the tracker.
    let entries: Vec<(Key, Row)> = (0..400).map(|k| kv(k * 3)).collect();
    let p = BufferPool::unbounded(DeviceProfile::hdd_raid());
    let t0 = IoTracker::new();
    let mut tree =
        BTree::bulk_load(small_config(), StorageAllocator::new(), entries, &p, &t0).unwrap();
    for k in (1..1200).step_by(7) {
        let (key, row) = kv(k);
        tree.insert(key, row, &p, &t0);
    }
    p.clear();
    let cursor = IoTracker::new();
    let collected = tree.scan_range_collect(Bound::Unbounded, Bound::Unbounded, &p, &cursor);
    p.clear();
    let visit = IoTracker::new();
    let mut visited = Vec::new();
    tree.for_each_entry(&p, &visit, |k, r| visited.push((k.clone(), r.clone())));
    assert_eq!(visited, collected);
    assert_eq!(visit.snapshot(), cursor.snapshot());
    assert!(cursor.snapshot().physical_reads > 1, "some leaf moves seek");

    let empty = BTree::new(small_config(), StorageAllocator::new());
    let (a, b) = (IoTracker::new(), IoTracker::new());
    empty.scan_range_collect(Bound::Unbounded, Bound::Unbounded, &p, &a);
    empty.for_each_entry(&p, &b, |_, _| panic!("no entries"));
    assert_eq!(a.snapshot(), b.snapshot());
}

#[test]
fn stats_reflect_structure() {
    // Keys whose values all take four payload bytes: entries of 12 page
    // bytes (two 5-byte values, slot), 5 to a 60-byte leaf.
    let (tree, _, _) = build_bulk(&((1 << 23)..(1 << 23) + 64).collect::<Vec<_>>());
    let s = tree.stats();
    assert_eq!(s.entries, 64);
    assert_eq!(s.leaf_pages, 13); // 64 entries / 5 per leaf
    assert!(s.total_pages > s.leaf_pages);
    assert_eq!(s.height, tree.height());
    assert!(s.data_bytes > 0);
    assert!(tree.size_bytes() >= s.total_pages * 8192);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_insert_scan_matches_sorted_model(mut keys in prop::collection::vec(-1000i32..1000, 0..300)) {
        let p = pool();
        let t = IoTracker::new();
        let mut tree = BTree::new(small_config(), StorageAllocator::new());
        for &k in &keys {
            let (key, row) = kv(k);
            tree.insert(key, row, &p, &t);
        }
        tree.check_invariants().unwrap();
        keys.sort_unstable();
        prop_assert_eq!(collect_all(&tree, &p), keys);
    }

    #[test]
    fn prop_bulk_load_equals_incremental(mut keys in prop::collection::vec(0i32..500, 1..200)) {
        keys.sort_unstable();
        let (bulk, bp, _) = build_bulk(&keys);
        let p = pool();
        let t = IoTracker::new();
        let mut inc = BTree::new(small_config(), StorageAllocator::new());
        for &k in &keys {
            let (key, row) = kv(k);
            inc.insert(key, row, &p, &t);
        }
        prop_assert_eq!(collect_all(&bulk, &bp), collect_all(&inc, &p));
        bulk.check_invariants().unwrap();
        inc.check_invariants().unwrap();
    }

    #[test]
    fn prop_range_scan_matches_filter(
        keys in prop::collection::vec(0i32..200, 1..200),
        lo in 0i32..200,
        width in 0i32..100,
    ) {
        let (tree, p, _) = build_bulk(&keys);
        let t = IoTracker::new();
        let hi = lo + width;
        let lo_k = Key::single(Value::Int32(lo));
        let hi_k = Key::single(Value::Int32(hi));
        let got: Vec<i32> = tree
            .scan_range_collect(Bound::Included(&lo_k), Bound::Included(&hi_k), &p, &t)
            .into_iter()
            .map(|(k, _)| k.values()[0].as_i32().unwrap())
            .collect();
        let mut expected: Vec<i32> = keys.iter().copied().filter(|&k| k >= lo && k <= hi).collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn prop_deletes_match_model(
        ops in prop::collection::vec((0i32..50, prop::bool::ANY), 1..200)
    ) {
        let p = pool();
        let t = IoTracker::new();
        let mut tree = BTree::new(small_config(), StorageAllocator::new());
        let mut model: Vec<i32> = Vec::new();
        for (k, is_insert) in ops {
            if is_insert {
                let (key, row) = kv(k);
                tree.insert(key, row, &p, &t);
                model.push(k);
            } else {
                let key = Key::single(Value::Int32(k));
                let removed = tree.delete_first_where(&key, |_| true, &p, &t);
                if let Some(pos) = model.iter().position(|&x| x == k) {
                    prop_assert!(removed.is_some());
                    model.remove(pos);
                } else {
                    prop_assert!(removed.is_none());
                }
            }
        }
        tree.check_invariants().unwrap();
        model.sort_unstable();
        prop_assert_eq!(collect_all(&tree, &p), model);
    }
}

/// Regression: splits under duplicate keys must position the new right node
/// by the identity of the split child, not by separator comparison. This
/// exact sequence (found by randomized soak testing) used to corrupt the
/// leaf-chain order.
#[test]
fn duplicate_separator_split_placement_regression() {
    let p = pool();
    let t = IoTracker::new();
    let mut tree = BTree::new(small_config(), StorageAllocator::new());
    for k in [8, 4, 6, 8, 26, 14, 4, 8, 8, 8, 10, 13, 6, 2, 6, 5, 10] {
        let (key, row) = kv(k);
        tree.insert(key, row, &p, &t);
        tree.check_invariants().unwrap();
    }
    let all = collect_all(&tree, &p);
    let mut expected = vec![8, 4, 6, 8, 26, 14, 4, 8, 8, 8, 10, 13, 6, 2, 6, 5, 10];
    expected.sort_unstable();
    assert_eq!(all, expected);
}

/// A run of equal keys that crosses leaf boundaries: a scan from
/// `Excluded(key)` must start after all of them. (The seek lands in the
/// leftmost leaf holding the key; up to PR 18 it stepped to the next leaf's
/// first entry without looking at its key. Found by the model test.)
#[test]
fn excluded_lower_bound_skips_duplicates_that_span_leaves() {
    let p = pool();
    let t = IoTracker::new();
    let mut tree = BTree::new(small_config(), StorageAllocator::new());
    // Seven-byte entries, eight a leaf: twenty fives span three leaves.
    let keys = std::iter::once(1).chain([5; 20]).chain([9]);
    for k in keys {
        let (key, row) = kv(k);
        tree.insert(key, row, &p, &t);
    }
    assert!(tree.stats().leaf_pages >= 3);
    let five = Key::single(Value::Int32(5));
    let after: Vec<i32> = tree
        .scan_range_collect(Bound::Excluded(&five), Bound::Unbounded, &p, &t)
        .into_iter()
        .map(|(k, _)| k.values()[0].as_i32().unwrap())
        .collect();
    assert_eq!(after, vec![9]);
    let none = tree.scan_range_collect(Bound::Excluded(&five), Bound::Included(&five), &p, &t);
    assert!(none.is_empty());
}

#[test]
fn data_bytes_follow_updates_that_change_a_payloads_width() {
    let p = pool();
    let t = IoTracker::new();
    let entry = |k: i32, s: &str| {
        (
            Key::single(Value::Int32(k)),
            Row::new(vec![Value::Int32(k), Value::str(s)]),
        )
    };
    let mut tree = BTree::new(small_config(), StorageAllocator::new());
    for k in 0..40 {
        let (key, row) = entry(k, "medium");
        tree.insert(key, row, &p, &t);
    }
    let rewrite = |tree: &mut BTree, k: i32, s: &str| {
        let n = tree.update_where(
            &Key::single(Value::Int32(k)),
            |r| {
                r.set(1, Value::str(s));
                true
            },
            &p,
            &t,
        );
        assert_eq!(n, 1);
    };
    let longer = "a considerably longer string than before".repeat(20);
    rewrite(&mut tree, 7, &longer);
    rewrite(&mut tree, 8, "");
    rewrite(&mut tree, 9, "sixsix");
    tree.check_invariants().unwrap();
    let rebuilt = BTree::bulk_load(
        small_config(),
        StorageAllocator::new(),
        tree.scan_range_collect(Bound::Unbounded, Bound::Unbounded, &p, &t),
        &p,
        &t,
    )
    .unwrap();
    assert_eq!(tree.stats().data_bytes, rebuilt.stats().data_bytes);
    let expected: usize = (0..40)
        .map(|k| {
            8 + 2
                + match k {
                    7 => longer.len(),
                    8 => 0,
                    _ => 6,
                }
        })
        .sum();
    assert_eq!(tree.stats().data_bytes, expected);
}

/// A leaf is full by its bytes: string payloads of many widths, inserted,
/// then widened by `update_where` past the page — duplicates spanning leaves
/// included — and narrowed again. No leaf holds more than `leaf_bytes`
/// unless it holds one entry larger than that by itself, and the contents
/// stay those of a sorted model.
#[test]
fn leaves_split_by_their_bytes_after_inserts_and_widening_updates() {
    let p = pool();
    let t = IoTracker::new();
    let payload = |n: usize| Row::new(vec![Value::str("s".repeat(n))]);
    let config = BTreeConfig {
        form: EntryForm::SeparateKey,
        ..small_config()
    };
    let mut tree = BTree::new(config, StorageAllocator::new());
    let mut model: Vec<(i32, usize)> = Vec::new();
    for i in 0..120 {
        let (k, n) = (i % 30, (i * 7 % 40) as usize);
        tree.insert(Key::single(Value::Int32(k)), payload(n), &p, &t);
        model.insert(model.partition_point(|e| e.0 <= k), (k, n));
        tree.check_invariants().unwrap();
    }
    for (k, n) in [(3, 30), (17, 30), (29, 500), (0, 30), (17, 0), (3, 2_000)] {
        let key = Key::single(Value::Int32(k));
        let widened = tree.update_where(
            &key,
            |r| {
                *r = payload(n);
                true
            },
            &p,
            &t,
        );
        assert_eq!(widened, 4, "key {k} has four entries");
        model.iter_mut().filter(|e| e.0 == k).for_each(|e| e.1 = n);
        tree.check_invariants().unwrap();
    }
    let contents: Vec<(i32, usize)> = tree
        .scan_range_collect(Bound::Unbounded, Bound::Unbounded, &p, &t)
        .into_iter()
        .map(|(k, r)| {
            (
                k.values()[0].as_i32().unwrap(),
                r.values()[0].as_str().unwrap().len(),
            )
        })
        .collect();
    assert_eq!(contents, model);
    // Eight entries larger than a page, each alone on its leaf.
    assert!(tree.stats().leaf_pages > 8);
}

/// Deletes can empty a leaf whose separator above still routes to it: an
/// update of the key the next leaf starts with descends into the empty leaf
/// (left on equality) and must walk on. (It stopped there and updated
/// nothing; found by the model test once leaves held two or three entries.)
#[test]
fn update_where_walks_past_an_emptied_leaf() {
    let (mut tree, p, t) = build_bulk(&(0..12).collect::<Vec<_>>());
    for k in 4..8 {
        let (key, _) = kv(k);
        assert!(tree.delete_first_where(&key, |_| true, &p, &t).is_some());
    }
    let (eight, _) = kv(8);
    let touched = tree.update_where(
        &eight,
        |r| {
            r.set(1, Value::Int32(-8));
            true
        },
        &p,
        &t,
    );
    assert_eq!(touched, 1);
    assert_eq!(tree.seek_exact(&eight, &p, &t)[0][1], Value::Int32(-8));
}

/// Page-sized leaves whose entries keep their one-value key in the payload.
fn page_config() -> BTreeConfig {
    BTreeConfig {
        form: EntryForm::KeyInPayload(1),
        ..BTreeConfig::default()
    }
}

/// Entries that all weigh the same on a page-sized leaf: keys of four
/// payload bytes (see `stats_reflect_structure`), payloads led by the key.
fn page_sized_bulk(keys: impl Iterator<Item = i32>) -> (BTree, BufferPool, IoTracker) {
    let (pool, t) = (pool(), IoTracker::new());
    let entries: Vec<(Key, Row)> = keys.map(kv).collect();
    let tree =
        BTree::bulk_load(page_config(), StorageAllocator::new(), entries, &pool, &t).unwrap();
    (tree, pool, t)
}

/// One insert into each leaf of a tree bulk loaded full, the leaves taken
/// in a scattered order: a leaf that overflows hands entries to a sibling
/// with room (a half of an earlier split, or a leaf that took entries
/// before), so only a leaf whose neighbours are both still full splits —
/// the tree grows by at most half (238 leaves to 329 here), where
/// splitting every leaf would double it.
#[test]
fn one_insert_into_each_full_leaf_grows_the_tree_by_at_most_half() {
    const BASE: i32 = 1 << 23;
    let (mut tree, p, t) = page_sized_bulk((0..160_000).map(|i| BASE + 2 * i));
    let before = tree.stats().leaf_pages;
    let per_leaf = 160_000 / before as i32;
    let mut order: Vec<i32> = (0..before as i32).collect();
    order.sort_by_key(|&leaf| (leaf as u32).wrapping_mul(2_654_435_761));
    for leaf in order {
        let (key, row) = kv(BASE + 2 * (leaf * per_leaf + per_leaf / 2) + 1);
        tree.insert(key, row, &p, &t);
    }
    tree.check_invariants().unwrap();
    let after = tree.stats().leaf_pages;
    assert!(
        2 * after <= 3 * before,
        "{before} leaves grew to {after}, past 1.5x"
    );
}

/// Appends at the right edge fill the leaf before theirs up before a split
/// starts a new one: every leaf but the last two (the halves of the latest
/// split, the second filling) is at least 90 % full, and so are the leaves
/// but the last on average.
#[test]
fn appends_fill_their_leaves() {
    let (p, t) = (pool(), IoTracker::new());
    let mut tree = BTree::new(page_config(), StorageAllocator::new());
    for i in 0..10_000 {
        let (key, row) = kv((1 << 23) + i);
        tree.insert(key, row, &p, &t);
    }
    tree.check_invariants().unwrap();
    let leaves: Vec<usize> = tree.leaf_page_bytes().collect();
    let limit = BTreeConfig::default().leaf_bytes;
    let n = leaves.len();
    for (i, &bytes) in leaves[..n - 2].iter().enumerate() {
        assert!(
            10 * bytes >= 9 * limit,
            "leaf {i} of {n}: {bytes} of {limit} page bytes"
        );
    }
    let but_last: usize = leaves[..n - 1].iter().sum();
    assert!(
        10 * but_last >= 9 * limit * (n - 1),
        "{n} leaves: the first {} hold {but_last} page bytes",
        n - 1
    );
}

/// An entry larger than a page lives alone on its leaf from the write that
/// makes it so, and a leaf of two or more entries stays within a two-byte
/// slot's reach (64 KiB) at every step, not only once it settles: an entry
/// of 70 000 bytes inserted into a full leaf splits the leaf at its
/// position first; small entries inserted beside it go to other leaves; a
/// payload widened past 64 KiB inside a populated leaf moves its entry to a
/// leaf of its own before it is written, and the walk goes on behind it;
/// and forty duplicates each widened to 5 000 bytes, which would take one
/// leaf past 64 KiB together, never share one that far.
#[test]
fn an_entry_past_a_page_lives_alone_from_its_first_write() {
    const BASE: i32 = 1 << 23;
    let entry = |k: i32, n: usize| {
        let key = Key::single(Value::Int32(k));
        (
            key,
            Row::new(vec![Value::Int32(k), Value::str("h".repeat(n))]),
        )
    };
    let (p, t) = (pool(), IoTracker::new());
    let mut model: Vec<(i32, usize)> = (0..6_000).map(|i| (BASE + 2 * i, 0)).collect();
    model.extend((0..40).map(|_| (BASE + 2 * 5_000 + 1, 0)));
    model.sort();
    let rows: Vec<(Key, Row)> = model.iter().map(|&(k, n)| entry(k, n)).collect();
    let mut tree = BTree::bulk_load(
        BTreeConfig::default(),
        StorageAllocator::new(),
        rows,
        &p,
        &t,
    )
    .unwrap();
    let check = |tree: &BTree, model: &[(i32, usize)]| {
        tree.check_invariants().unwrap();
        let all: Vec<(i32, usize)> = tree
            .scan_range_collect(Bound::Unbounded, Bound::Unbounded, &p, &t)
            .into_iter()
            .map(|(k, r)| {
                (
                    k.values()[0].as_i32().unwrap(),
                    r.values()[1].as_str().unwrap().len(),
                )
            })
            .collect();
        assert_eq!(all, model);
    };
    let insert = |tree: &mut BTree, model: &mut Vec<(i32, usize)>, k: i32, n: usize| {
        let (key, row) = entry(k, n);
        tree.insert(key, row, &p, &t);
        model.insert(model.partition_point(|e| e.0 <= k), (k, n));
    };
    let leaves = tree.stats().leaf_pages;
    // Into the middle of a full leaf: its tail and the entry, each on a
    // new leaf; then small entries on either side of it and beside it.
    insert(&mut tree, &mut model, BASE + 2 * 300 + 1, 70_000);
    check(&tree, &model);
    assert_eq!(tree.stats().leaf_pages, leaves + 2);
    for k in [
        BASE + 2 * 300 + 1,
        BASE + 2 * 300 + 1,
        BASE + 599,
        BASE + 603,
    ] {
        insert(&mut tree, &mut model, k, 3);
        check(&tree, &model);
    }
    // Widened past 64 KiB in place, then narrowed again.
    let widen = |tree: &mut BTree, model: &mut Vec<(i32, usize)>, k: i32, n: usize| {
        let key = Key::single(Value::Int32(k));
        let rewritten = tree.update_where(
            &key,
            |r| {
                r.set(1, Value::str("w".repeat(n)));
                true
            },
            &p,
            &t,
        );
        let entries = model.iter_mut().filter(|e| e.0 == k);
        assert_eq!(rewritten, entries.map(|e| e.1 = n).count(), "key {k}");
    };
    for n in [66_000, 10] {
        widen(&mut tree, &mut model, BASE + 2 * 3_000, n);
        check(&tree, &model);
    }
    // Forty duplicates of one key, 200 KB together once widened.
    widen(&mut tree, &mut model, BASE + 2 * 5_000 + 1, 5_000);
    check(&tree, &model);
    widen(&mut tree, &mut model, BASE + 2 * 5_000 + 1, 1);
    check(&tree, &model);
}

/// A leaf past `MAX_LEAF_BYTES` could be taken past a two-byte slot's
/// reach by one write: neither an empty tree nor a bulk load is built with
/// one, and the largest allowed builds and takes writes.
#[test]
fn leaves_past_half_a_slots_reach_are_refused() {
    let config = |leaf_bytes| BTreeConfig {
        leaf_bytes,
        ..BTreeConfig::default()
    };
    let refused = |build: &dyn Fn()| {
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build)).unwrap_err();
        let msg = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains("past a two-byte slot's reach"), "{msg}");
    };
    let (p, t) = (pool(), IoTracker::new());
    for leaf_bytes in [MAX_LEAF_BYTES + 1, 1 << 16, 1 << 20] {
        refused(&|| {
            BTree::new(config(leaf_bytes), StorageAllocator::new());
        });
        refused(&|| {
            let rows = (0..10).map(kv).collect();
            let _ = BTree::bulk_load(config(leaf_bytes), StorageAllocator::new(), rows, &p, &t);
        });
    }
    let rows: Vec<(Key, Row)> = (0..20_000).map(kv).collect();
    let mut tree = BTree::bulk_load(
        config(MAX_LEAF_BYTES),
        StorageAllocator::new(),
        rows,
        &p,
        &t,
    )
    .unwrap();
    let big = Row::new(vec![
        Value::Int32(7),
        Value::str("x".repeat(MAX_LEAF_BYTES)),
    ]);
    tree.insert(Key::single(Value::Int32(7)), big, &p, &t);
    tree.check_invariants().unwrap();
    assert_eq!(tree.len(), 20_001);
}

/// A tree whose entries keep their key in the payload takes no entry whose
/// payload does not begin with its key — inserted (`Int64(5)` behind the
/// key `Int32(5)` is an equal value in other bytes), bulk loaded, or
/// rewritten by an update — and an insert it refuses leaves it as it was.
#[test]
fn a_key_in_payload_tree_refuses_a_payload_not_led_by_its_key() {
    let (p, t) = (pool(), IoTracker::new());
    let refused = |f: &mut dyn FnMut()| {
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
        let msg = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains("key-in-payload tree"), "{msg}");
    };
    let (mut tree, _, _) = build_bulk(&(0..40).collect::<Vec<_>>());
    let five = Key::single(Value::Int32(5));
    let widened = Row::new(vec![Value::Int64(5), Value::Int32(50)]);
    refused(&mut || tree.insert(five.clone(), widened.clone(), &p, &t));
    tree.check_invariants().unwrap();
    assert_eq!(collect_all(&tree, &p), (0..40).collect::<Vec<_>>());
    refused(&mut || {
        let rows = vec![(five.clone(), widened.clone())];
        let _ = BTree::bulk_load(small_config(), StorageAllocator::new(), rows, &p, &t);
    });
    refused(&mut || {
        let rekey = |r: &mut Row| {
            r.set(0, Value::Int32(6));
            true
        };
        tree.update_where(&five, rekey, &p, &t);
    });
    assert_eq!(tree.seek_exact(&five, &p, &t), vec![kv(5).1]);
}

/// A front drain hands over the smallest entries in key order, in either
/// form, and frees the leaves it empties; drained to its end and past it,
/// the tree is one empty leaf again.
#[test]
fn a_front_drain_takes_the_smallest_entries_and_frees_their_leaves() {
    for form in [EntryForm::KeyInPayload(1), EntryForm::SeparateKey] {
        let config = BTreeConfig {
            form,
            ..small_config()
        };
        let (p, t) = (pool(), IoTracker::new());
        let mut tree = BTree::new(config, StorageAllocator::new());
        for k in (0..500).rev() {
            let (key, row) = kv(k * 7 % 500);
            tree.insert(key, row, &p, &t);
        }
        let before = tree.stats();
        let mut got = Vec::new();
        let drained = tree.drain_front(300, &p, &t, |e| {
            got.push(e.to_key().values()[0].as_i32().unwrap())
        });
        assert_eq!((drained, got), (300, (0..300).collect::<Vec<_>>()));
        tree.check_invariants().unwrap();
        assert_eq!(collect_all(&tree, &p), (300..500).collect::<Vec<_>>());
        let after = tree.stats();
        assert!(after.leaf_pages < before.leaf_pages, "{after:?}");
        assert_eq!(tree.size_bytes(), after.total_pages * PAGE_SIZE);
        assert_eq!(tree.drain_front(0, &p, &t, |_| panic!("none asked")), 0);
        assert_eq!(tree.drain_front(1_000, &p, &t, |_| {}), 200);
        tree.check_invariants().unwrap();
        let empty = tree.stats();
        assert_eq!(
            (
                empty.entries,
                empty.leaf_pages,
                empty.total_pages,
                empty.height
            ),
            (0, 1, 1, 1)
        );
        // The freed slots take the next nodes.
        for k in 0..500 {
            let (key, row) = kv(k);
            tree.insert(key, row, &p, &t);
        }
        tree.check_invariants().unwrap();
        assert_eq!(collect_all(&tree, &p), (0..500).collect::<Vec<_>>());
    }
}

/// Ten cycles that each fill a tree to 10 000 entries, in a scattered
/// order, and drain all but 100: the freed slots and their pages take the
/// next cycle's nodes, so from the second cycle on the tree's pages and
/// heap do not grow. Without freeing, each cycle would leave its leaves
/// behind, empty and chained.
#[test]
fn drained_leaves_are_reused_cycle_after_cycle() {
    let (p, t) = (pool(), IoTracker::new());
    let mut tree = BTree::new(page_config(), StorageAllocator::new());
    let mut sizes = Vec::new();
    for cycle in 0..10 {
        let base = (1 << 23) + cycle * 10_000;
        for i in 0..10_000 - tree.len() as i32 {
            let (key, row) = kv(base + i * 7_919 % 10_000);
            tree.insert(key, row, &p, &t);
        }
        assert_eq!(tree.len(), 10_000);
        let full = (tree.stats().total_pages, tree.heap_bytes());
        assert_eq!(tree.drain_front(9_900, &p, &t, |_| {}), 9_900);
        tree.check_invariants().unwrap();
        sizes.push((full, (tree.stats().total_pages, tree.heap_bytes())));
    }
    for (cycle, pair) in sizes.windows(2).enumerate().skip(1) {
        let ((full, drained), (next_full, next_drained)) = (pair[0], pair[1]);
        assert!(
            next_full.0 <= full.0 && next_full.1 <= full.1,
            "cycle {}: {next_full:?} full after {full:?}",
            cycle + 2
        );
        assert!(
            next_drained.0 <= drained.0 && next_drained.1 <= drained.1,
            "cycle {}: {next_drained:?} drained after {drained:?}",
            cycle + 2
        );
    }
}

/// A drain's cost follows what it drains and the tree's height, not what
/// the tree holds: each of twenty drains of 100 of 100 000 entries reads
/// at most the height and two pages, leaves freed on the way or not.
#[test]
fn draining_a_few_entries_reads_a_few_pages() {
    const BASE: i32 = 1 << 23;
    let (mut tree, p, _) = page_sized_bulk(BASE..BASE + 100_000);
    for round in 0..20 {
        let (height, t) = (tree.height() as u64, IoTracker::new());
        let mut keys = Vec::new();
        let drained = tree.drain_front(100, &p, &t, |e| keys.push(e.to_key()));
        assert_eq!(drained, 100);
        assert_eq!(keys[0], kv(BASE + round * 100).0);
        let reads = t.snapshot().logical_reads;
        assert!(reads <= height + 2, "round {round}: {reads} pages read");
    }
    tree.check_invariants().unwrap();
}
