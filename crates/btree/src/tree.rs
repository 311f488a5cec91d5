//! The B+ tree implementation.

use std::ops::Bound;

use hpd_common::{HpdError, Key, Result, Row};
use hpd_storage::{BufferPool, IoTracker, StorageAllocator, PAGE_SIZE};

use crate::cursor::Cursor;
use crate::node::{Node, NodeId};

/// Structural parameters of a tree.
#[derive(Debug, Clone, Copy)]
pub struct BTreeConfig {
    /// Maximum entries per leaf page.
    pub leaf_capacity: usize,
    /// Maximum children per internal page.
    pub internal_fanout: usize,
    /// Fill fraction used by bulk load (1.0 = pack full, SQL Server default).
    pub bulk_fill: f64,
}

impl BTreeConfig {
    /// Derive capacities from the byte width of one `(key, payload)` entry,
    /// so that a leaf models one 8 KB page.
    pub fn for_entry_width(entry_width: usize) -> BTreeConfig {
        // ~10 bytes/row of page overhead (slot array + headers).
        let leaf_capacity = (PAGE_SIZE / (entry_width + 10).max(1)).clamp(8, 4096);
        BTreeConfig {
            leaf_capacity,
            internal_fanout: 256,
            bulk_fill: 1.0,
        }
    }
}

impl Default for BTreeConfig {
    fn default() -> Self {
        BTreeConfig {
            leaf_capacity: 256,
            internal_fanout: 256,
            bulk_fill: 1.0,
        }
    }
}

/// Summary statistics used by the optimizer's cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BTreeStats {
    pub entries: usize,
    pub leaf_pages: usize,
    pub total_pages: usize,
    pub height: usize,
    pub data_bytes: usize,
}

/// A B+ tree mapping composite [`Key`]s to [`Row`] payloads, duplicates
/// allowed. See the crate docs for the primary/secondary usage convention.
pub struct BTree {
    nodes: Vec<Node>,
    root: NodeId,
    first_leaf: NodeId,
    len: usize,
    data_bytes: usize,
    config: BTreeConfig,
    alloc: StorageAllocator,
}

impl BTree {
    /// An empty tree.
    pub fn new(config: BTreeConfig, alloc: StorageAllocator) -> BTree {
        let page = alloc.alloc_page();
        BTree {
            nodes: vec![Node::Leaf {
                entries: Vec::new(),
                next: None,
                page,
            }],
            root: 0,
            first_leaf: 0,
            len: 0,
            data_bytes: 0,
            config,
            alloc,
        }
    }

    /// Bulk load from entries that must already be sorted by key (stable
    /// order among duplicates is preserved). Leaf pages are allocated
    /// contiguously, so subsequent full scans stream sequentially — matching
    /// a freshly built index. Write cost is charged to `tracker`.
    pub fn bulk_load(
        config: BTreeConfig,
        alloc: StorageAllocator,
        entries: Vec<(Key, Row)>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Result<BTree> {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 <= w[1].0),
            "bulk_load requires sorted input"
        );
        if entries.is_empty() {
            return Ok(BTree::new(config, alloc));
        }
        let per_leaf = ((config.leaf_capacity as f64 * config.bulk_fill) as usize)
            .clamp(1, config.leaf_capacity);
        let n_leaves = entries.len().div_ceil(per_leaf);
        let first_page = alloc.alloc_pages(n_leaves as u64);

        let mut nodes: Vec<Node> = Vec::with_capacity(n_leaves * 2);
        let mut data_bytes = 0usize;
        let len = entries.len();

        // Build leaf level.
        let mut chunks = entries.into_iter().peekable();
        let mut leaf_ids: Vec<NodeId> = Vec::with_capacity(n_leaves);
        let mut leaf_min_keys: Vec<Key> = Vec::with_capacity(n_leaves);
        let mut i = 0u64;
        while chunks.peek().is_some() {
            let mut leaf_entries = Vec::with_capacity(per_leaf);
            for _ in 0..per_leaf {
                match chunks.next() {
                    Some(e) => {
                        data_bytes += e.0.byte_width() + e.1.byte_width();
                        leaf_entries.push(e);
                    }
                    None => break,
                }
            }
            let page = hpd_storage::PageId(first_page.0 + i);
            i += 1;
            let id = nodes.len();
            leaf_min_keys.push(leaf_entries[0].0.clone());
            nodes.push(Node::Leaf {
                entries: leaf_entries,
                next: None,
                page,
            });
            if let Some(&prev) = leaf_ids.last() {
                if let Node::Leaf { next, .. } = &mut nodes[prev] {
                    *next = Some(id);
                }
            }
            leaf_ids.push(id);
            pool.write_page(page, tracker);
        }

        // Build internal levels bottom-up.
        let mut level_ids = leaf_ids;
        let mut level_keys = leaf_min_keys;
        while level_ids.len() > 1 {
            let mut next_ids = Vec::new();
            let mut next_keys = Vec::new();
            let mut base = 0usize;
            for group in level_ids.chunks(config.internal_fanout) {
                // Separator keys are the min-keys of children[1..].
                let keys: Vec<Key> = level_keys[base + 1..base + group.len()].to_vec();
                let page = alloc.alloc_page();
                let id = nodes.len();
                nodes.push(Node::Internal {
                    keys,
                    children: group.to_vec(),
                    page,
                });
                pool.write_page(page, tracker);
                next_keys.push(level_keys[base].clone());
                next_ids.push(id);
                base += group.len();
            }
            level_ids = next_ids;
            level_keys = next_keys;
        }

        let root = level_ids[0];
        Ok(BTree {
            nodes,
            root,
            first_leaf: 0,
            len,
            data_bytes,
            config,
            alloc,
        })
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn config(&self) -> &BTreeConfig {
        &self.config
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = self.root;
        while let Node::Internal { children, .. } = &self.nodes[node] {
            node = children[0];
            h += 1;
        }
        h
    }

    pub fn stats(&self) -> BTreeStats {
        let leaf_pages = self.nodes.iter().filter(|n| n.is_leaf()).count();
        BTreeStats {
            entries: self.len,
            leaf_pages,
            total_pages: self.nodes.len(),
            height: self.height(),
            data_bytes: self.data_bytes,
        }
    }

    /// Logical size in bytes (pages × page size).
    pub fn size_bytes(&self) -> usize {
        self.nodes.len() * PAGE_SIZE
    }

    // ------------------------------------------------------------------
    // Descend helpers
    // ------------------------------------------------------------------

    /// Descend to the leaf that may contain the *first* entry with key ≥
    /// `key`, charging page accesses. Returns the leaf id.
    ///
    /// Internal pages are charged at sequential (bandwidth-only) cost: they
    /// are a tiny, hot fraction of the tree that any real buffer pool keeps
    /// resident; the leaf access pays the random-seek price.
    fn descend_lower(&self, key: &Key, pool: &BufferPool, tracker: &IoTracker) -> NodeId {
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Leaf { page, .. } => {
                    pool.access_page(*page, tracker);
                    return node;
                }
                Node::Internal {
                    keys,
                    children,
                    page,
                } => {
                    pool.access_page_seq(*page, tracker);
                    // Go left on equality so duplicates in the left sibling
                    // are not skipped.
                    let idx = keys.partition_point(|k| k < key);
                    node = children[idx];
                }
            }
        }
    }

    /// Descend for insertion: duplicates are appended after existing equals,
    /// so we route right on equality only within the leaf, not the spine.
    fn descend_path(&self, key: &Key, pool: &BufferPool, tracker: &IoTracker) -> Vec<NodeId> {
        let mut path = Vec::with_capacity(4);
        let mut node = self.root;
        loop {
            path.push(node);
            match &self.nodes[node] {
                Node::Leaf { page, .. } => {
                    pool.access_page(*page, tracker);
                    return path;
                }
                Node::Internal {
                    keys,
                    children,
                    page,
                } => {
                    pool.access_page_seq(*page, tracker);
                    let idx = keys.partition_point(|k| k <= key);
                    node = children[idx];
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Insert an entry, allowing duplicate keys.
    pub fn insert(&mut self, key: Key, row: Row, pool: &BufferPool, tracker: &IoTracker) {
        self.data_bytes += key.byte_width() + row.byte_width();
        self.len += 1;
        let path = self.descend_path(&key, pool, tracker);
        let leaf = *path.last().expect("descend returns at least the root");

        // Insert into leaf.
        let mut split: Option<(Key, NodeId)> = None;
        {
            let leaf_capacity = self.config.leaf_capacity;
            let (entries_len, page) = match &mut self.nodes[leaf] {
                Node::Leaf { entries, page, .. } => {
                    let pos = entries.partition_point(|(k, _)| k <= &key);
                    entries.insert(pos, (key, row));
                    (entries.len(), *page)
                }
                Node::Internal { .. } => unreachable!("descend_path ends at a leaf"),
            };
            pool.write_page(page, tracker);
            if entries_len > leaf_capacity {
                split = Some(self.split_leaf(leaf, pool, tracker));
            }
        }

        // Propagate splits up the path (path[0] is the root, last is the
        // leaf). If a split bubbles past the root, grow a new root. The new
        // right node is positioned *by the identity of the split child*,
        // never by key comparison: with duplicate keys, a promoted
        // separator can equal existing separators in the parent, and
        // comparison-based placement would put the new child under the
        // wrong subtree.
        let mut split_child = leaf;
        for &parent in path.iter().rev().skip(1) {
            match split.take() {
                None => break,
                Some((sep, right)) => {
                    split =
                        self.insert_into_internal(parent, split_child, sep, right, pool, tracker);
                    split_child = parent;
                }
            }
        }
        if let Some((sep, right)) = split {
            self.grow_root(sep, right, pool, tracker);
        }
    }

    fn grow_root(&mut self, sep: Key, right: NodeId, pool: &BufferPool, tracker: &IoTracker) {
        let page = self.alloc.alloc_page();
        let new_root = self.nodes.len();
        self.nodes.push(Node::Internal {
            keys: vec![sep],
            children: vec![self.root, right],
            page,
        });
        self.root = new_root;
        pool.write_page(page, tracker);
    }

    /// Insert a separator/child into an internal node, immediately to the
    /// right of `left_child` (the node that was split); returns a split if
    /// the node overflows.
    fn insert_into_internal(
        &mut self,
        node: NodeId,
        left_child: NodeId,
        sep: Key,
        child: NodeId,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Option<(Key, NodeId)> {
        let fanout = self.config.internal_fanout;
        let (overflow, page) = match &mut self.nodes[node] {
            Node::Internal {
                keys,
                children,
                page,
            } => {
                let pos = children
                    .iter()
                    .position(|&c| c == left_child)
                    .expect("split child is under this parent");
                keys.insert(pos, sep);
                children.insert(pos + 1, child);
                (children.len() > fanout, *page)
            }
            Node::Leaf { .. } => unreachable!("internal insert on leaf"),
        };
        pool.write_page(page, tracker);
        if !overflow {
            return None;
        }
        // Split the internal node.
        let (right_keys, right_children, promoted) = match &mut self.nodes[node] {
            Node::Internal { keys, children, .. } => {
                let mid = keys.len() / 2;
                let promoted = keys[mid].clone();
                let right_keys: Vec<Key> = keys.drain(mid + 1..).collect();
                keys.pop(); // remove promoted key from left
                let right_children: Vec<NodeId> = children.drain(mid + 1..).collect();
                (right_keys, right_children, promoted)
            }
            Node::Leaf { .. } => unreachable!(),
        };
        let page = self.alloc.alloc_page();
        let right_id = self.nodes.len();
        self.nodes.push(Node::Internal {
            keys: right_keys,
            children: right_children,
            page,
        });
        pool.write_page(page, tracker);
        Some((promoted, right_id))
    }

    fn split_leaf(
        &mut self,
        leaf: NodeId,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> (Key, NodeId) {
        let page = self.alloc.alloc_page();
        let right_id = self.nodes.len();
        let (right_entries, old_next) = match &mut self.nodes[leaf] {
            Node::Leaf { entries, next, .. } => {
                let mid = entries.len() / 2;
                (entries.split_off(mid), next.replace(right_id))
            }
            Node::Internal { .. } => unreachable!("split_leaf on internal"),
        };
        let sep = right_entries[0].0.clone();
        self.nodes.push(Node::Leaf {
            entries: right_entries,
            next: old_next,
            page,
        });
        pool.write_page(page, tracker);
        (sep, right_id)
    }

    /// Delete the first entry equal to `key` whose payload satisfies `pred`.
    /// Returns the removed payload, if any.
    pub fn delete_first_where(
        &mut self,
        key: &Key,
        mut pred: impl FnMut(&Row) -> bool,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Option<Row> {
        let mut leaf = self.descend_lower(key, pool, tracker);
        let mut first = true;
        loop {
            let (found, next, page) = match &mut self.nodes[leaf] {
                Node::Leaf {
                    entries,
                    next,
                    page,
                } => {
                    if !first {
                        pool.access_page(*page, tracker);
                    }
                    let start = entries.partition_point(|(k, _)| k < key);
                    let mut found: Option<usize> = None;
                    for (i, (k, r)) in entries.iter().enumerate().skip(start) {
                        if k > key {
                            return None;
                        }
                        if pred(r) {
                            found = Some(i);
                            break;
                        }
                    }
                    (found, *next, *page)
                }
                Node::Internal { .. } => unreachable!("descend ends at leaf"),
            };
            first = false;
            if let Some(i) = found {
                let removed = match &mut self.nodes[leaf] {
                    Node::Leaf { entries, .. } => entries.remove(i),
                    Node::Internal { .. } => unreachable!(),
                };
                self.len -= 1;
                self.data_bytes = self
                    .data_bytes
                    .saturating_sub(removed.0.byte_width() + removed.1.byte_width());
                pool.write_page(page, tracker);
                return Some(removed.1);
            }
            match next {
                Some(n) => leaf = n,
                None => return None,
            }
        }
    }

    /// Apply `f` to every payload with exactly this key; `f` returns true if
    /// it modified the row. Returns the number of modified rows. Modified
    /// leaves are charged as page writes.
    pub fn update_where(
        &mut self,
        key: &Key,
        mut f: impl FnMut(&mut Row) -> bool,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> usize {
        let mut leaf = self.descend_lower(key, pool, tracker);
        let mut modified = 0;
        let mut first = true;
        loop {
            let (dirty, next, page, past_end) = match &mut self.nodes[leaf] {
                Node::Leaf {
                    entries,
                    next,
                    page,
                } => {
                    if !first {
                        pool.access_page(*page, tracker);
                    }
                    let start = entries.partition_point(|(k, _)| k < key);
                    let mut dirty = false;
                    let mut past_end = entries.is_empty();
                    for (k, r) in entries.iter_mut().skip(start) {
                        if &*k > key {
                            past_end = true;
                            break;
                        }
                        if f(r) {
                            modified += 1;
                            dirty = true;
                        }
                    }
                    (dirty, *next, *page, past_end)
                }
                Node::Internal { .. } => unreachable!(),
            };
            first = false;
            if dirty {
                pool.write_page(page, tracker);
            }
            if past_end {
                return modified;
            }
            match next {
                Some(n) => leaf = n,
                None => return modified,
            }
        }
    }

    // ------------------------------------------------------------------
    // Lookup / scans
    // ------------------------------------------------------------------

    /// All payloads with exactly this key (point lookup / prefix handled via
    /// cursors).
    pub fn seek_exact(&self, key: &Key, pool: &BufferPool, tracker: &IoTracker) -> Vec<Row> {
        let mut out = Vec::new();
        let mut cur = self.cursor_seek(Bound::Included(key), pool, tracker);
        loop {
            let mut batch = Vec::new();
            let exhausted = self.cursor_fill(
                &mut cur,
                Bound::Included(key),
                1024,
                &mut batch,
                pool,
                tracker,
            );
            out.extend(batch.into_iter().map(|(_, r)| r));
            if exhausted {
                return out;
            }
        }
    }

    /// Position a cursor at the first entry ≥/> the bound (or the very first
    /// entry for `Unbounded`), charging the root-to-leaf traversal.
    pub fn cursor_seek(&self, lo: Bound<&Key>, pool: &BufferPool, tracker: &IoTracker) -> Cursor {
        match lo {
            Bound::Unbounded => {
                let leaf = self.first_leaf;
                pool.access_page(self.nodes[leaf].page(), tracker);
                Cursor::at(leaf, 0, self.nodes[leaf].page())
            }
            Bound::Included(key) => {
                let leaf = self.descend_lower(key, pool, tracker);
                let (entries, _) = self.nodes[leaf].as_leaf();
                let idx = entries.partition_point(|(k, _)| k < key);
                Cursor::at(leaf, idx, self.nodes[leaf].page())
            }
            Bound::Excluded(key) => {
                let leaf = self.descend_lower(key, pool, tracker);
                let (entries, _) = self.nodes[leaf].as_leaf();
                let idx = entries.partition_point(|(k, _)| k <= key);
                Cursor::at(leaf, idx, self.nodes[leaf].page())
            }
        }
    }

    /// Pull up to `limit` entries into `out`, stopping at the upper bound.
    /// Returns true when the scan is exhausted (bound reached or tree ended).
    /// Leaf-to-leaf moves charge sequential or random page accesses
    /// depending on physical contiguity.
    pub fn cursor_fill(
        &self,
        cursor: &mut Cursor,
        hi: Bound<&Key>,
        limit: usize,
        out: &mut Vec<(Key, Row)>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> bool {
        let mut remaining = limit;
        loop {
            let node_id = match cursor.node {
                Some(n) => n,
                None => return true,
            };
            let (entries, next) = self.nodes[node_id].as_leaf();
            while cursor.idx < entries.len() && remaining > 0 {
                let (k, r) = &entries[cursor.idx];
                let in_range = match hi {
                    Bound::Unbounded => true,
                    Bound::Included(h) => k <= h,
                    Bound::Excluded(h) => k < h,
                };
                if !in_range {
                    cursor.node = None;
                    return true;
                }
                out.push((k.clone(), r.clone()));
                cursor.idx += 1;
                remaining -= 1;
            }
            if remaining == 0 {
                // Check whether we are exactly at the end.
                if cursor.idx >= entries.len() && next.is_none() {
                    cursor.node = None;
                    return true;
                }
                return false;
            }
            // Advance to the next leaf.
            match next {
                Some(n) => {
                    let page = self.nodes[n].page();
                    if page.0 == cursor.last_page.0 + 1 {
                        pool.access_page_seq(page, tracker);
                    } else {
                        pool.access_page(page, tracker);
                    }
                    cursor.node = Some(n);
                    cursor.idx = 0;
                    cursor.last_page = page;
                }
                None => {
                    cursor.node = None;
                    return true;
                }
            }
        }
    }

    /// Like [`BTree::cursor_fill`] but yields only payload rows, skipping
    /// the per-entry key clone — the hot path for range-scan operators that
    /// do not need the keys.
    pub fn cursor_fill_rows(
        &self,
        cursor: &mut Cursor,
        hi: Bound<&Key>,
        limit: usize,
        out: &mut Vec<Row>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> bool {
        let mut remaining = limit;
        loop {
            let node_id = match cursor.node {
                Some(n) => n,
                None => return true,
            };
            let (entries, next) = self.nodes[node_id].as_leaf();
            while cursor.idx < entries.len() && remaining > 0 {
                let (k, r) = &entries[cursor.idx];
                let in_range = match hi {
                    Bound::Unbounded => true,
                    Bound::Included(h) => k <= h,
                    Bound::Excluded(h) => k < h,
                };
                if !in_range {
                    cursor.node = None;
                    return true;
                }
                out.push(r.clone());
                cursor.idx += 1;
                remaining -= 1;
            }
            if remaining == 0 {
                if cursor.idx >= entries.len() && next.is_none() {
                    cursor.node = None;
                    return true;
                }
                return false;
            }
            match next {
                Some(n) => {
                    let page = self.nodes[n].page();
                    if page.0 == cursor.last_page.0 + 1 {
                        pool.access_page_seq(page, tracker);
                    } else {
                        pool.access_page(page, tracker);
                    }
                    cursor.node = Some(n);
                    cursor.idx = 0;
                    cursor.last_page = page;
                }
                None => {
                    cursor.node = None;
                    return true;
                }
            }
        }
    }

    /// Hand every entry, in key order, to `f` by reference — the whole-index
    /// read of index builds and checkpoints, which copy out only what they
    /// keep. Charges exactly the page accesses of an unbounded cursor scan.
    pub fn for_each_entry(
        &self,
        pool: &BufferPool,
        tracker: &IoTracker,
        mut f: impl FnMut(&Key, &Row),
    ) {
        let mut leaf = self.first_leaf;
        let mut last_page = self.nodes[leaf].page();
        pool.access_page(last_page, tracker);
        loop {
            let (entries, next) = self.nodes[leaf].as_leaf();
            for (k, r) in entries {
                f(k, r);
            }
            let Some(n) = next else {
                return;
            };
            let page = self.nodes[n].page();
            if page.0 == last_page.0 + 1 {
                pool.access_page_seq(page, tracker);
            } else {
                pool.access_page(page, tracker);
            }
            leaf = n;
            last_page = page;
        }
    }

    /// Convenience: collect an entire key range (tests and small scans).
    pub fn scan_range_collect(
        &self,
        lo: Bound<&Key>,
        hi: Bound<&Key>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Vec<(Key, Row)> {
        let mut cur = self.cursor_seek(lo, pool, tracker);
        let mut out = Vec::new();
        while !self.cursor_fill(&mut cur, hi, 4096, &mut out, pool, tracker) {}
        out
    }

    /// Verify structural invariants; used by tests. Returns an error
    /// describing the first violation found.
    pub fn check_invariants(&self) -> Result<()> {
        // Keys within each leaf are sorted; leaf chain is globally sorted.
        let mut leaf = Some(self.first_leaf);
        let mut prev: Option<Key> = None;
        let mut count = 0usize;
        while let Some(id) = leaf {
            let (entries, next) = self.nodes[id].as_leaf();
            for (k, _) in entries {
                if let Some(p) = &prev {
                    if p > k {
                        return Err(HpdError::Internal(format!(
                            "leaf chain out of order: {p:?} > {k:?}"
                        )));
                    }
                }
                prev = Some(k.clone());
                count += 1;
            }
            leaf = next;
        }
        if count != self.len {
            return Err(HpdError::Internal(format!(
                "leaf chain count {count} != len {}",
                self.len
            )));
        }
        // Every node reachable from the root is in-bounds and leaf depth is
        // uniform.
        fn depth_check(tree: &BTree, node: NodeId) -> std::result::Result<usize, String> {
            match &tree.nodes[node] {
                Node::Leaf { .. } => Ok(1),
                Node::Internal { keys, children, .. } => {
                    if children.len() != keys.len() + 1 {
                        return Err(format!(
                            "internal node {node}: {} children, {} keys",
                            children.len(),
                            keys.len()
                        ));
                    }
                    let mut depths = children.iter().map(|&c| depth_check(tree, c));
                    let first = depths.next().expect("at least one child")?;
                    for d in depths {
                        if d? != first {
                            return Err(format!("non-uniform depth under node {node}"));
                        }
                    }
                    Ok(first + 1)
                }
            }
        }
        depth_check(self, self.root).map_err(HpdError::Internal)?;
        Ok(())
    }
}
