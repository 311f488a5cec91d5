//! The B+ tree implementation.

use std::cmp::Ordering;
use std::ops::Bound;
use std::sync::OnceLock;

use hpd_common::{codec, HpdError, Key, Result, Row, Value, ValueRef};
use hpd_obs::Counter;
use hpd_storage::{BufferPool, IoTracker, PageId, StorageAllocator, PAGE_SIZE};

use crate::cursor::Cursor;
use crate::node::{EntryForm, EntryRef, Node, NodeId, PackedLeaf, SLOT_BYTES, SLOT_REACH};

/// Bytes at the head of every page that hold no entries (SQL Server's page
/// header): a leaf's entries and their slots fill the rest.
pub const PAGE_HEADER_BYTES: usize = 96;

/// Structural parameters of a tree.
#[derive(Debug, Clone, Copy)]
pub struct BTreeConfig {
    /// Page bytes a leaf's entries and their slots may fill
    /// ([`PackedLeaf::page_bytes`]): a leaf past them hands entries to a
    /// sibling with room, or else is split. An entry larger than that lives
    /// alone on its leaf, from the write that makes it so. At most
    /// [`MAX_LEAF_BYTES`], so that a leaf one write takes past it stays
    /// within a two-byte slot's reach: a tree is not built with more.
    pub leaf_bytes: usize,
    /// Maximum children per internal page.
    pub internal_fanout: usize,
    /// Fill fraction used by bulk load (1.0 = pack full, SQL Server default).
    pub bulk_fill: f64,
    /// How every entry holds its key: in the payload when the index's
    /// payloads begin with its key columns ([`EntryForm::of`]), else apart.
    pub form: EntryForm,
}

/// The most [`BTreeConfig::leaf_bytes`] may be: under half a slot's reach,
/// so that a leaf's entries and one more entry no larger than a leaf stay
/// within it.
pub const MAX_LEAF_BYTES: usize = SLOT_REACH / 2 - 1;

impl BTreeConfig {
    /// This config, if a tree may be built with it; panics if
    /// [`BTreeConfig::leaf_bytes`] is past [`MAX_LEAF_BYTES`].
    fn checked(self) -> BTreeConfig {
        assert!(
            self.leaf_bytes <= MAX_LEAF_BYTES,
            "leaf_bytes {} is past a two-byte slot's reach: at most {MAX_LEAF_BYTES}",
            self.leaf_bytes
        );
        self
    }

    /// The page-sized config, whatever `entry_width` says: a leaf fills by
    /// the bytes of its entries, so no entry width is needed any more. Kept
    /// for callers written against capacities counted in entries; its
    /// entries keep their keys apart from their payloads.
    pub fn for_entry_width(_entry_width: usize) -> BTreeConfig {
        BTreeConfig::default()
    }

    /// Page bytes a bulk load fills a leaf to before it starts the next.
    fn fill_bytes(&self) -> usize {
        ((self.leaf_bytes as f64 * self.bulk_fill) as usize).clamp(1, self.leaf_bytes.max(1))
    }

    /// Nodes per level above `leaves` leaves, bottom up, the root last.
    fn internal_levels(&self, leaves: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(leaves), |&level| {
            (level > 1).then(|| level.div_ceil(self.internal_fanout))
        })
        .skip(1)
    }

    /// Leaf pages and height of a tree bulk loaded with `entries` entries of
    /// `entry_bytes` page bytes each ([`crate::entry_bytes`]): exactly what
    /// the load builds when every entry weighs the same. Values encode at
    /// their significant width, so entries seldom do; given their mean the
    /// leaves are an estimate, off by how unevenly the entries pack.
    pub fn size_estimate(&self, entries: usize, entry_bytes: f64) -> (usize, usize) {
        let per_leaf = ((self.fill_bytes() as f64 / entry_bytes).floor() as usize).max(1);
        let leaves = entries.div_ceil(per_leaf).max(1);
        (leaves, 1 + self.internal_levels(leaves).count())
    }
}

impl Default for BTreeConfig {
    /// One leaf is one 8 KB page less its header; keys apart.
    fn default() -> Self {
        BTreeConfig {
            leaf_bytes: PAGE_SIZE - PAGE_HEADER_BYTES,
            internal_fanout: 256,
            bulk_fill: 1.0,
            form: EntryForm::SeparateKey,
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
    /// Logical bytes of the entries: `Key::byte_width` + `Row::byte_width`
    /// of each, as owned values — not what the leaves store, where a key
    /// kept in the payload is written once.
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
    /// Leaf nodes in `nodes` and levels from the root down to them, kept as
    /// splits happen so that [`BTree::stats`] walks nothing.
    leaves: usize,
    height: usize,
    config: BTreeConfig,
    alloc: StorageAllocator,
}

/// Where a bulk load ends its leaves: an entry starts a new leaf when it
/// would take the one being filled past [`BTreeConfig::fill_bytes`] (an empty
/// leaf takes any entry).
struct LeafFill {
    budget: usize,
    used: usize,
}

impl LeafFill {
    fn new(config: &BTreeConfig) -> LeafFill {
        LeafFill {
            budget: config.fill_bytes(),
            used: 0,
        }
    }

    /// Place an entry of `bytes` page bytes; true if it starts a new leaf.
    fn starts_leaf(&mut self, bytes: usize) -> bool {
        let starts = self.used > 0 && self.used + bytes > self.budget;
        self.used = if starts { bytes } else { self.used + bytes };
        starts
    }
}

/// Builds a tree from entries pushed in key order, one leaf at a time: an
/// entry is copied straight into the leaf being filled, and a full leaf is
/// sealed into two exactly sized allocations. Leaf pages are allocated
/// contiguously up front (hence the entries' page bytes, which say how many
/// leaves they fill), so subsequent full scans stream sequentially —
/// matching a freshly built index; every page is charged to `tracker` as a
/// write when its node is complete.
struct BulkLoader<'a> {
    config: BTreeConfig,
    alloc: StorageAllocator,
    pool: &'a BufferPool,
    tracker: &'a IoTracker,
    fill: LeafFill,
    expected: (usize, usize),
    first_page: PageId,
    nodes: Vec<Node>,
    leaf_min_keys: Vec<Key>,
    filling: PackedLeaf,
    len: usize,
    data_bytes: usize,
}

impl<'a> BulkLoader<'a> {
    /// A loader for exactly the entries whose page bytes `entry_bytes`
    /// yields, in the order they will be pushed.
    fn new(
        config: BTreeConfig,
        alloc: StorageAllocator,
        entry_bytes: impl Iterator<Item = usize>,
        pool: &'a BufferPool,
        tracker: &'a IoTracker,
    ) -> BulkLoader<'a> {
        let config = config.checked();
        let mut fill = LeafFill::new(&config);
        let (mut entries, mut n_leaves) = (0, 0);
        for bytes in entry_bytes {
            // Always placed: the first entry starts the first leaf.
            n_leaves += usize::from(fill.starts_leaf(bytes) || entries == 0);
            entries += 1;
        }
        // An empty load is `BTree::new`, which allocates its own root page.
        let first_page = if n_leaves == 0 {
            PageId(0)
        } else {
            alloc.alloc_pages(n_leaves as u64)
        };
        let n_nodes = n_leaves + config.internal_levels(n_leaves).sum::<usize>();
        BulkLoader {
            config,
            alloc,
            pool,
            tracker,
            fill: LeafFill::new(&config),
            expected: (entries, n_leaves),
            first_page,
            nodes: Vec::with_capacity(n_nodes),
            leaf_min_keys: Vec::with_capacity(n_leaves),
            filling: PackedLeaf::default(),
            len: 0,
            data_bytes: 0,
        }
    }

    /// Append the entry whose bytes are `entry`, as it stands; its key must
    /// not sort before the previous one's.
    fn push(&mut self, entry: &[u8]) {
        if self.fill.starts_leaf(entry.len() + SLOT_BYTES) {
            self.seal_leaf();
        }
        self.filling.push_entry(entry);
        let (n, form) = (self.filling.len(), self.config.form);
        let key = |i| self.filling.entry(i, form).key;
        debug_assert!(
            n < 2 || codec::cmp_encoded(key(n - 2), key(n - 1)).is_le(),
            "bulk load requires sorted input"
        );
        self.len += 1;
        self.data_bytes += form.read(entry).byte_width();
    }

    fn seal_leaf(&mut self) {
        // Leaves are the first nodes, in order: node id = leaf number.
        let id = self.nodes.len();
        let page = PageId(self.first_page.0 + id as u64);
        let first = self.filling.entry(0, self.config.form);
        debug_assert!(
            (self.leaf_min_keys.last()).is_none_or(|prev| first.cmp_key(prev).is_ge()),
            "bulk load requires sorted input"
        );
        self.leaf_min_keys.push(first.to_key());
        self.nodes.push(Node::Leaf {
            entries: self.filling.seal(),
            next: None,
            page,
        });
        if let Some(Node::Leaf { next, .. }) = id.checked_sub(1).map(|prev| &mut self.nodes[prev]) {
            *next = Some(id);
        }
        self.pool.write_page(page, self.tracker);
    }

    /// Seal the last leaf and build the internal levels bottom-up.
    fn finish(mut self) -> BTree {
        assert_eq!(self.len, self.expected.0, "entries announced and pushed");
        if self.len == 0 {
            return BTree::new(self.config, self.alloc);
        }
        if !self.filling.is_empty() {
            self.seal_leaf();
        }
        let BulkLoader {
            config,
            alloc,
            pool,
            tracker,
            expected,
            mut nodes,
            leaf_min_keys,
            len,
            data_bytes,
            ..
        } = self;
        let leaves = nodes.len();
        assert_eq!(leaves, expected.1, "leaves counted and filled");
        let mut height = 1;
        let mut level_ids: Vec<NodeId> = (0..leaves).collect();
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
            height += 1;
        }
        BTree {
            nodes,
            root: level_ids[0],
            first_leaf: 0,
            len,
            data_bytes,
            leaves,
            height,
            config,
            alloc,
        }
    }
}

/// `btree.bulk_load.*` counters: runs that arrived in key order and were
/// loaded as they stood, and runs that had to be sorted.
fn run_counters() -> &'static [Counter; 2] {
    static C: OnceLock<[Counter; 2]> = OnceLock::new();
    C.get_or_init(|| {
        ["btree.bulk_load.presorted", "btree.bulk_load.sorted"]
            .map(|name| hpd_obs::global().counter(name))
    })
}

/// Encoded entries collected in arrival order, to be bulk loaded in key
/// order: what an index build gathers from the rows it is handed or lent.
/// Rows are read once, in the order they arrive — encoding them in key
/// order instead would chase 400 k pointers across the heap.
///
/// The entries are in their tree's form ([`BTreeConfig::form`], which the
/// run is made for), so a load copies each as it stands. Beside its bytes
/// and a four-byte offset an entry leaves a twelve-byte sort record: an
/// *abbreviated key*, the order-preserving eight-byte image of its first
/// key value ([`codec::abbreviate`]), and its index. The sort moves and
/// compares those records and reads a key's bytes only where two images
/// tie; a run that arrived in key order is not sorted at all.
///
/// The offset is a `u32`, so one run (one partition's build) holds under
/// 4 GB of encoded entries: a push past that is dropped and
/// [`EntryRun::bulk_load`] returns an error instead of a tree.
#[derive(Default)]
pub struct EntryRun {
    config: BTreeConfig,
    /// The entries back to back, and where each starts.
    bytes: Vec<u8>,
    offsets: Vec<u32>,
    /// The sort record of every entry.
    order: Vec<SortRecord>,
    /// Type tag of the first key values; once two differ (which no schema
    /// admits) `untyped` is set and every image is zero.
    tag: Option<u8>,
    untyped: bool,
    /// Some image is not its whole key: a tie needs the keys' bytes.
    inexact: bool,
    /// Some entry sorts before the one pushed ahead of it.
    unsorted: bool,
    overflowed: bool,
}

/// An entry's abbreviated key, high half first, and its arrival index: twelve
/// bytes that compare as `(image, index)` do, and that a sorted run cuts
/// down to the index in place ([`EntryRun::bulk_load`]).
type SortRecord = [u32; 3];

impl EntryRun {
    /// An empty run of entries for a tree of `config`.
    pub fn new(config: BTreeConfig) -> EntryRun {
        EntryRun::with_capacity(config, 0, 0)
    }

    /// An empty run with room for `entries` entries of `page_bytes` page
    /// bytes in all ([`crate::entry_bytes`] each: payload, slot, and a
    /// separate key and its length): a build that knows its row count
    /// reserves once, for the most its entries can take, where vectors
    /// grown by doubling end up to twice the size of the run. The bytes
    /// they leave unused are given back before the load.
    pub fn with_capacity(config: BTreeConfig, entries: usize, page_bytes: usize) -> EntryRun {
        EntryRun {
            config,
            bytes: Vec::with_capacity(page_bytes.saturating_sub(entries * SLOT_BYTES)),
            offsets: Vec::with_capacity(entries),
            order: Vec::with_capacity(entries),
            ..EntryRun::default()
        }
    }

    /// Whether the next entry's offset (and so the entry count) fits `u32`;
    /// if so, the offset is noted.
    fn open_entry(&mut self) -> bool {
        self.overflowed |= self.bytes.len() >= u32::MAX as usize;
        if !self.overflowed {
            self.offsets.push(self.bytes.len() as u32);
        }
        !self.overflowed
    }

    /// Where the bytes of entry `i` lie.
    fn entry_range(&self, i: usize) -> std::ops::Range<usize> {
        let end = (self.offsets.get(i + 1)).map_or(self.bytes.len(), |&o| o as usize);
        self.offsets[i] as usize..end
    }

    fn entry(&self, i: usize) -> EntryRef<'_> {
        self.config.form.read(&self.bytes[self.entry_range(i)])
    }

    /// Append an entry, encoding it. Panics, appending nothing, if the
    /// run's form keeps the key in the payload and `payload` does not begin
    /// with `key`.
    pub fn push(&mut self, key: &[Value], payload: &[Value]) {
        if self.open_entry() {
            self.config.form.put(&mut self.bytes, key, payload);
            self.pushed();
        }
    }

    /// Append an entry already encoded
    /// ([`hpd_common::codec::put_values`] of its key, and of its payload).
    pub fn push_encoded(&mut self, key: &[u8], payload: &[u8]) {
        if self.open_entry() {
            self.config.form.put_encoded(&mut self.bytes, key, payload);
            self.pushed();
        }
    }

    /// Abbreviate the entry just appended and note whether it keeps the run
    /// in key order.
    fn pushed(&mut self) {
        let at = self.order.len();
        let image = match codec::abbreviate(self.entry(at).key) {
            Some(a) if !self.untyped && self.tag.is_none_or(|tag| tag == a.tag) => {
                self.tag = Some(a.tag);
                self.inexact |= !a.exact;
                a.image
            }
            _ => {
                if !self.untyped {
                    (self.untyped, self.inexact) = (true, true);
                    self.order.iter_mut().for_each(|r| r[..2].fill(0));
                }
                0
            }
        };
        let record = [(image >> 32) as u32, image as u32, at as u32];
        if let Some(prev) = self.order.last().filter(|_| !self.unsorted) {
            self.unsorted = prev[..2] > record[..2]
                || prev[..2] == record[..2]
                    && self.inexact
                    && codec::cmp_encoded(self.entry(at - 1).key, self.entry(at).key).is_gt();
        }
        self.order.push(record);
    }

    /// Sort by key (entries with equal keys stay in arrival order) and bulk
    /// load.
    pub fn bulk_load(
        mut self,
        alloc: StorageAllocator,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Result<BTree> {
        if self.overflowed || self.bytes.len() > u32::MAX as usize {
            return Err(HpdError::Constraint(
                "a B+ tree build takes under 4 GB of encoded entries per partition".into(),
            ));
        }
        // Reserved for the entries' largest encoding, the run keeps what
        // they took before the tree's leaves are allocated beside it.
        self.bytes.shrink_to_fit();
        let mut order = std::mem::take(&mut self.order);
        let [presorted, sorted] = run_counters();
        let run = &self;
        // Already in key order, a run is loaded as it stands: its sort
        // records are freed before the leaves are allocated, and the
        // offsets walk the entries.
        if !self.unsorted {
            presorted.add(1);
            order = Vec::new();
        } else {
            sorted.add(1);
        }
        // The index is the last key part: no two records are equal, so the
        // unstable sort keeps equal keys in arrival order.
        order.sort_unstable_by(|p, q| {
            let key = |r: &SortRecord| run.entry(r[2] as usize).key;
            let keys = || match run.inexact {
                true => codec::cmp_encoded(key(p), key(q)),
                false => Ordering::Equal,
            };
            p[..2].cmp(&q[..2]).then_with(keys).then(p[2].cmp(&q[2]))
        });
        // In order, a record's image is spent: the records become the
        // entries' indexes in the same allocation, cut to a third of it
        // before the leaves are allocated.
        let n = order.len();
        let mut order = order.into_flattened();
        for i in 0..n {
            order[i] = order[3 * i + 2];
        }
        order.truncate(n);
        order.shrink_to_fit();
        let index = |i: usize| order.get(i).map_or(i, |&at| at as usize);
        let entries = (0..run.offsets.len()).map(|i| &run.bytes[run.entry_range(index(i))]);
        let entry_bytes = entries.clone().map(|entry| entry.len() + SLOT_BYTES);
        let mut loader = BulkLoader::new(run.config, alloc, entry_bytes, pool, tracker);
        entries.for_each(|entry| loader.push(entry));
        Ok(loader.finish())
    }
}

impl BTree {
    /// An empty tree.
    pub fn new(config: BTreeConfig, alloc: StorageAllocator) -> BTree {
        let config = config.checked();
        let page = alloc.alloc_page();
        BTree {
            nodes: vec![Node::Leaf {
                entries: PackedLeaf::default(),
                next: None,
                page,
            }],
            root: 0,
            first_leaf: 0,
            len: 0,
            data_bytes: 0,
            leaves: 1,
            height: 1,
            config,
            alloc,
        }
    }

    /// Bulk load from owned entries sorted by key (stable order among
    /// duplicates is preserved): each is encoded into an [`EntryRun`] and
    /// dropped, and the run is loaded as it stands.
    pub fn bulk_load(
        config: BTreeConfig,
        alloc: StorageAllocator,
        sorted: Vec<(Key, Row)>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Result<BTree> {
        let mut run = EntryRun::new(config);
        for (key, row) in sorted {
            run.push(key.values(), row.values());
        }
        run.bulk_load(alloc, pool, tracker)
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
        self.height
    }

    pub fn stats(&self) -> BTreeStats {
        BTreeStats {
            entries: self.len,
            leaf_pages: self.leaves,
            total_pages: self.nodes.len(),
            height: self.height,
            data_bytes: self.data_bytes,
        }
    }

    /// Page bytes each leaf's entries fill ([`PackedLeaf::page_bytes`]), in
    /// key order.
    pub fn leaf_page_bytes(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(self.first_leaf), |&leaf| self.nodes[leaf].as_leaf().1)
            .map(|leaf| self.nodes[leaf].as_leaf().0.page_bytes())
    }

    /// Heap bytes the tree holds: the node arena, every leaf's two vectors,
    /// and the separator keys with their value vectors (not what a string
    /// separator owns). Walks every node; for reports and tests.
    pub fn heap_bytes(&self) -> usize {
        let nodes = self.nodes.capacity() * std::mem::size_of::<Node>();
        let contents: usize = self
            .nodes
            .iter()
            .map(|n| match n {
                Node::Leaf { entries, .. } => entries.heap_bytes(),
                Node::Internal { keys, children, .. } => {
                    keys.capacity() * std::mem::size_of::<Key>()
                        + keys
                            .iter()
                            .map(|k| std::mem::size_of_val(k.values()))
                            .sum::<usize>()
                        + children.capacity() * std::mem::size_of::<NodeId>()
                }
            })
            .sum();
        nodes + contents
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

    /// Insert an entry, allowing duplicate keys. An entry that fits beside
    /// no other ([`PackedLeaf::insert`]: one larger than a page, or any
    /// entry beside one) is given a leaf of its own at its position
    /// (`BTree::carve`).
    pub fn insert(&mut self, key: Key, row: Row, pool: &BufferPool, tracker: &IoTracker) {
        let path = self.descend_path(&key, pool, tracker);
        let leaf = *path.last().expect("descend returns at least the root");
        let (limit, form) = (self.config.leaf_bytes, self.config.form);
        let entries = self.leaf_entries(leaf);
        let pos = entries.upper_bound(&key, form);
        if entries.insert(pos, &key, &row, form, limit) {
            pool.write_page(self.nodes[leaf].page(), tracker);
            self.settle_overflow(&path, pool, tracker);
        } else {
            let alone = self.carve(&path, pos, pos, &key, pool, tracker);
            let inserted = self.leaf_entries(alone).insert(0, &key, &row, form, limit);
            assert!(inserted, "an empty leaf takes any entry");
        }
        self.data_bytes += key.byte_width() + row.byte_width();
        self.len += 1;
    }

    /// Bring the leaf `path` ends at (`path[0]` is the root) back within
    /// [`BTreeConfig::leaf_bytes`] once an insert or a widening update took
    /// it past them: hand what it cannot hold to a sibling with room
    /// ([`BTree::shift_to_sibling`]), and only when neither has any split
    /// it at its byte midpoint.
    fn settle_overflow(&mut self, path: &[NodeId], pool: &BufferPool, tracker: &IoTracker) {
        if !self.shift_to_sibling(path, pool, tracker) {
            self.split_overflow(path, pool, tracker);
        }
    }

    /// Move the entries the overflowing leaf `path` ends at cannot hold into
    /// its left sibling under the same parent (its first entries) or else
    /// its right one (its last), whichever first has room for all of them —
    /// and more, up to evening the two leaves out
    /// ([`PackedLeaf::front_share`]) — and rewrite the one separator between
    /// the two: the first key of the leaf on its right. Returns false,
    /// touching nothing, when the leaf fits, has one entry, has no parent or
    /// no sibling with room.
    ///
    /// Separators stay bounds: the moved entries lie between the two
    /// leaves' remaining keys, so every key left of a separator is at most
    /// it and every key right of it at least it — duplicates of it may sit
    /// on both sides, as after a midpoint split, and lookups descend left
    /// on equality. Appends at the right edge fill the leaf before theirs
    /// this way before a split starts a new one. The sibling and the parent
    /// are charged a page write.
    fn shift_to_sibling(
        &mut self,
        path: &[NodeId],
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> bool {
        let &[.., parent, leaf] = path else {
            return false;
        };
        let limit = self.config.leaf_bytes;
        let entries = self.nodes[leaf].as_leaf().0;
        if entries.len() < 2 || entries.page_bytes() <= limit {
            return false;
        }
        let Node::Internal { children, .. } = &self.nodes[parent] else {
            unreachable!("a leaf's parent is internal")
        };
        let at = (children.iter().position(|&c| c == leaf)).expect("the leaf is under its parent");
        let held = |sibling: NodeId| self.nodes[sibling].as_leaf().0.page_bytes();
        // (sibling, separator between the two, where to cut) if it has room.
        let fits = |sibling: NodeId, sep_at: usize, (cut, bytes): (usize, usize)| {
            (held(sibling) + bytes <= limit).then_some((sibling, sep_at, cut))
        };
        let left = at.checked_sub(1).map(|l| children[l]);
        let right = children.get(at + 1).copied();
        let shift = (left.and_then(|l| fits(l, at - 1, entries.front_share(limit, held(l)))))
            .or_else(|| right.and_then(|r| fits(r, at, entries.back_share(limit, held(r)))));
        let Some((sibling, sep_at, cut)) = shift else {
            return false;
        };
        let mut receiver = std::mem::take(self.leaf_entries(sibling));
        let form = self.config.form;
        let entries = self.leaf_entries(leaf);
        let right_first = if sep_at < at {
            entries.move_front_to(cut, &mut receiver);
            entries.entry(0, form).to_key()
        } else {
            entries.move_back_to(cut, &mut receiver);
            receiver.entry(0, form).to_key()
        };
        *self.leaf_entries(sibling) = receiver;
        let Node::Internal { keys, page, .. } = &mut self.nodes[parent] else {
            unreachable!("a leaf's parent is internal")
        };
        keys[sep_at] = right_first;
        // The leaf itself was charged by the write that overflowed it.
        pool.write_page(*page, tracker);
        pool.write_page(self.nodes[sibling].page(), tracker);
        true
    }

    /// The entries of the leaf `leaf`, to change.
    fn leaf_entries(&mut self, leaf: NodeId) -> &mut PackedLeaf {
        match &mut self.nodes[leaf] {
            Node::Leaf { entries, .. } => entries,
            Node::Internal { .. } => unreachable!("a leaf"),
        }
    }

    /// Split the leaf `path` ends at (`path[0]` is the root) while it holds
    /// more than [`BTreeConfig::leaf_bytes`], and hang the new leaves under
    /// its parent ([`BTree::hang`]).
    fn split_overflow(&mut self, path: &[NodeId], pool: &BufferPool, tracker: &IoTracker) {
        let mut splits = Vec::new();
        self.cut_leaf(
            *path.last().expect("a path ends at a leaf"),
            &mut splits,
            pool,
            tracker,
        );
        self.hang(path, splits, pool, tracker);
    }

    /// Give the entries from `at` up to `end` (none or one) of the leaf
    /// `path` ends at a leaf of their own, and return it: the leaf itself
    /// when `at` is 0, else a new one behind it, led to by `key` (the
    /// entries' key, or the key of the entry about to be put there); the
    /// entries from `end` on move to a further new leaf. How an entry that
    /// fits beside no other ([`PackedLeaf::insert`]) comes to live alone,
    /// before it is written: its leaf is split at its position. Every leaf
    /// touched is charged a page write.
    fn carve(
        &mut self,
        path: &[NodeId],
        at: usize,
        end: usize,
        key: &Key,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> NodeId {
        let leaf = *path.last().expect("a path ends at a leaf");
        pool.write_page(self.nodes[leaf].page(), tracker);
        let mut splits = Vec::new();
        let alone = if at == 0 {
            leaf
        } else {
            let middle = self.cut_at(leaf, at, pool, tracker);
            splits.push((key.clone(), middle));
            middle
        };
        if end - at < self.nodes[alone].as_leaf().0.len() {
            let right = self.cut_at(alone, end - at, pool, tracker);
            splits.push((self.first_key(right), right));
        }
        self.hang(path, splits, pool, tracker);
        alone
    }

    /// Hang the nodes the leaf `path` ends at was split into (`splits`,
    /// each behind the separator that leads to it, in key order) under its
    /// parent, splitting internal nodes up the path as they overflow and
    /// growing a new root when the old one splits. New nodes are positioned
    /// *by the identity of the split child*, never by key comparison: with
    /// duplicate keys, a promoted separator can equal existing separators in
    /// the parent, and comparison-based placement would put the new child
    /// under the wrong subtree.
    fn hang(
        &mut self,
        path: &[NodeId],
        mut splits: Vec<(Key, NodeId)>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) {
        let (&leaf, ancestors) = path.split_last().expect("a path ends at a leaf");
        let mut child = leaf;
        for &parent in ancestors.iter().rev() {
            if splits.is_empty() {
                return;
            }
            splits = self.insert_into_internal(parent, child, splits, pool, tracker);
            child = parent;
        }
        while !splits.is_empty() {
            splits = self.grow_root(splits, pool, tracker);
        }
    }

    /// Put a root over the old one and the nodes it split into (`splits`:
    /// each new node behind the separator that leads to it); returns the
    /// new root's own splits, if it has too many children.
    fn grow_root(
        &mut self,
        splits: Vec<(Key, NodeId)>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Vec<(Key, NodeId)> {
        let page = self.alloc.alloc_page();
        let new_root = self.nodes.len();
        let (keys, rights): (Vec<Key>, Vec<NodeId>) = splits.into_iter().unzip();
        self.nodes.push(Node::Internal {
            keys,
            children: std::iter::once(self.root).chain(rights).collect(),
            page,
        });
        self.root = new_root;
        self.height += 1;
        pool.write_page(page, tracker);
        let mut splits = Vec::new();
        self.cut_internal(new_root, &mut splits, pool, tracker);
        splits
    }

    /// Insert the nodes `left_child` split into (`splits`, in key order) into
    /// the internal node `node`, immediately to the right of `left_child`;
    /// returns `node`'s own splits if it overflows.
    fn insert_into_internal(
        &mut self,
        node: NodeId,
        left_child: NodeId,
        splits: Vec<(Key, NodeId)>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Vec<(Key, NodeId)> {
        let Node::Internal {
            keys,
            children,
            page,
        } = &mut self.nodes[node]
        else {
            unreachable!("internal insert on leaf")
        };
        let pos = children
            .iter()
            .position(|&c| c == left_child)
            .expect("split child is under this parent");
        let (seps, rights): (Vec<Key>, Vec<NodeId>) = splits.into_iter().unzip();
        keys.splice(pos..pos, seps);
        children.splice(pos + 1..pos + 1, rights);
        pool.write_page(*page, tracker);
        let mut splits = Vec::new();
        self.cut_internal(node, &mut splits, pool, tracker);
        splits
    }

    /// Halve the internal node `node` while it has more children than the
    /// fanout, appending each new right node behind its promoted separator
    /// to `out`, in key order.
    fn cut_internal(
        &mut self,
        node: NodeId,
        out: &mut Vec<(Key, NodeId)>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) {
        let fanout = self.config.internal_fanout;
        let Node::Internal { keys, children, .. } = &mut self.nodes[node] else {
            unreachable!("internal split on leaf")
        };
        if children.len() <= fanout {
            return;
        }
        let mid = keys.len() / 2;
        let right_keys: Vec<Key> = keys.drain(mid + 1..).collect();
        let promoted = keys.pop().expect("the promoted key");
        let right_children: Vec<NodeId> = children.drain(mid + 1..).collect();
        let page = self.alloc.alloc_page();
        let right = self.nodes.len();
        self.nodes.push(Node::Internal {
            keys: right_keys,
            children: right_children,
            page,
        });
        pool.write_page(page, tracker);
        self.cut_internal(node, out, pool, tracker);
        out.push((promoted, right));
        self.cut_internal(right, out, pool, tracker);
    }

    /// Cut the leaf `leaf` at its byte midpoint while it holds more than
    /// [`BTreeConfig::leaf_bytes`] and two or more entries, appending each
    /// new right leaf behind its first key to `out`, in key order.
    fn cut_leaf(
        &mut self,
        leaf: NodeId,
        out: &mut Vec<(Key, NodeId)>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) {
        let entries = self.nodes[leaf].as_leaf().0;
        if entries.len() < 2 || entries.page_bytes() <= self.config.leaf_bytes {
            return;
        }
        let right = self.cut_at(leaf, entries.byte_midpoint(), pool, tracker);
        let sep = self.first_key(right);
        self.cut_leaf(leaf, out, pool, tracker);
        out.push((sep, right));
        self.cut_leaf(right, out, pool, tracker);
    }

    /// The key of the first entry of the leaf `leaf`, which holds one.
    fn first_key(&self, leaf: NodeId) -> Key {
        self.nodes[leaf]
            .as_leaf()
            .0
            .entry(0, self.config.form)
            .to_key()
    }

    /// Move the entries of the leaf `leaf` from `at` on to a new leaf behind
    /// it in the chain, charged a page write, and return the new leaf (for
    /// the caller to hang under the parent).
    fn cut_at(
        &mut self,
        leaf: NodeId,
        at: usize,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> NodeId {
        let page = self.alloc.alloc_page();
        let right = self.nodes.len();
        let (entries, next) = match &mut self.nodes[leaf] {
            Node::Leaf { entries, next, .. } => (entries.split_off(at), next.replace(right)),
            Node::Internal { .. } => unreachable!("a leaf"),
        };
        self.nodes.push(Node::Leaf {
            entries,
            next,
            page,
        });
        self.leaves += 1;
        pool.write_page(page, tracker);
        right
    }

    /// The nodes from the root down to the leaf `leaf`, which holds an entry
    /// keyed `key`: a search of every child whose key range admits `key`,
    /// of which duplicates spanning leaves may make several. Charges
    /// nothing: the path of a leaf just written.
    fn path_to(&self, leaf: NodeId, key: &Key) -> Vec<NodeId> {
        fn search(
            tree: &BTree,
            node: NodeId,
            leaf: NodeId,
            key: &Key,
            path: &mut Vec<NodeId>,
        ) -> bool {
            path.push(node);
            let found = match &tree.nodes[node] {
                Node::Leaf { .. } => node == leaf,
                Node::Internal { keys, children, .. } => {
                    let lo = keys.partition_point(|k| k < key);
                    let hi = keys.partition_point(|k| k <= key);
                    (lo..=hi).any(|i| search(tree, children[i], leaf, key, path))
                }
            };
            if !found {
                path.pop();
            }
            found
        }
        let mut path = Vec::with_capacity(self.height);
        assert!(
            search(self, self.root, leaf, key, &mut path),
            "a leaf holding {key:?} is under the root"
        );
        path
    }

    /// Delete the first entry equal to `key` whose payload satisfies `pred`
    /// (which is lent each candidate decoded into one reused row). Returns
    /// the removed payload, if any.
    pub fn delete_first_where(
        &mut self,
        key: &Key,
        mut pred: impl FnMut(&Row) -> bool,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> Option<Row> {
        let mut leaf = self.descend_lower(key, pool, tracker);
        let mut first = true;
        let mut candidate = Row::new(Vec::new());
        let form = self.config.form;
        loop {
            let Node::Leaf {
                entries,
                next,
                page,
            } = &mut self.nodes[leaf]
            else {
                unreachable!("descend ends at leaf")
            };
            if !first {
                pool.access_page(*page, tracker);
            }
            first = false;
            for i in entries.lower_bound(key, form)..entries.len() {
                let e = entries.entry(i, form);
                if e.cmp_key(key).is_gt() {
                    return None;
                }
                candidate.refill(codec::values(e.payload).map(ValueRef::to_value));
                if pred(&candidate) {
                    self.len -= 1;
                    self.data_bytes = self.data_bytes.saturating_sub(e.byte_width());
                    entries.remove(i);
                    pool.write_page(*page, tracker);
                    return Some(candidate);
                }
            }
            leaf = (*next)?;
        }
    }

    /// Apply `f` to every payload with exactly this key, each decoded into
    /// one reused row; `f` returns true if it modified the row, which is then
    /// encoded back over the entry's payload (of whatever width). Returns
    /// the number of modified rows. Modified leaves are charged as page
    /// writes; a leaf that widened past its page hands entries to a
    /// sibling or splits, as after an insert. An entry rewritten to fit
    /// beside no other ([`PackedLeaf::set_payload`]) is first given a leaf
    /// of its own at its position (`BTree::carve`), and the walk goes on
    /// behind it.
    pub fn update_where(
        &mut self,
        key: &Key,
        mut f: impl FnMut(&mut Row) -> bool,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> usize {
        let (limit, form) = (self.config.leaf_bytes, self.config.form);
        let mut leaf = self.descend_lower(key, pool, tracker);
        let mut modified = 0;
        let mut first = true;
        // Where the walk goes on in `leaf`, if not at the key.
        let mut resume = None;
        let mut row = Row::new(Vec::new());
        let mut overflowing = Vec::new();
        loop {
            let Node::Leaf {
                entries,
                next,
                page,
            } = &mut self.nodes[leaf]
            else {
                unreachable!("descend ends at leaf")
            };
            if !first {
                pool.access_page(*page, tracker);
            }
            first = false;
            let mut dirty = false;
            // An empty leaf (its entries deleted) says nothing: walk on.
            let mut past_end = false;
            let mut refused = None;
            for i in resume
                .take()
                .unwrap_or_else(|| entries.lower_bound(key, form))
                ..entries.len()
            {
                let e = entries.entry(i, form);
                if e.cmp_key(key).is_gt() {
                    past_end = true;
                    break;
                }
                row.refill(codec::values(e.payload).map(ValueRef::to_value));
                if f(&mut row) {
                    let old_width = codec::byte_width(e.payload);
                    let written = entries.set_payload(i, &row, form, limit);
                    self.data_bytes = self.data_bytes - old_width + row.byte_width();
                    modified += 1;
                    dirty = true;
                    if !written {
                        refused = Some(i);
                        break;
                    }
                }
            }
            if dirty {
                pool.write_page(*page, tracker);
                if entries.page_bytes() > limit && entries.len() > 1 {
                    overflowing.push(leaf);
                }
            }
            if let Some(i) = refused {
                let path = self.path_to(leaf, key);
                let alone = self.carve(&path, i, i + 1, key, pool, tracker);
                let written = self.leaf_entries(alone).set_payload(0, &row, form, limit);
                assert!(written, "a lone entry takes any payload");
                (leaf, resume, first) = (alone, Some(1), true);
                continue;
            }
            match *next {
                Some(n) if !past_end => leaf = n,
                _ => break,
            }
        }
        for leaf in overflowing {
            let first_key = self.first_key(leaf);
            let path = self.path_to(leaf, &first_key);
            self.settle_overflow(&path, pool, tracker);
        }
        modified
    }

    // ------------------------------------------------------------------
    // Lookup / scans
    // ------------------------------------------------------------------

    /// All payloads with exactly this key (point lookup / prefix handled via
    /// cursors).
    pub fn seek_exact(&self, key: &Key, pool: &BufferPool, tracker: &IoTracker) -> Vec<Row> {
        let mut out = Vec::new();
        let mut cur = self.cursor_seek(Bound::Included(key), pool, tracker);
        let hi = Bound::Included(key);
        while !self.cursor_fill_rows(&mut cur, hi, 1024, &mut out, pool, tracker) {}
        out
    }

    /// Position a cursor at the first entry ≥/> the bound (or the very first
    /// entry for `Unbounded`), charging the root-to-leaf traversal.
    pub fn cursor_seek(&self, lo: Bound<&Key>, pool: &BufferPool, tracker: &IoTracker) -> Cursor {
        let form = self.config.form;
        let (leaf, idx) = match lo {
            Bound::Unbounded => {
                pool.access_page(self.nodes[self.first_leaf].page(), tracker);
                (self.first_leaf, 0)
            }
            Bound::Included(key) => {
                let leaf = self.descend_lower(key, pool, tracker);
                (leaf, self.nodes[leaf].as_leaf().0.lower_bound(key, form))
            }
            Bound::Excluded(key) => {
                let leaf = self.descend_lower(key, pool, tracker);
                (leaf, self.nodes[leaf].as_leaf().0.upper_bound(key, form))
            }
        };
        let mut cursor = Cursor::at(leaf, idx, self.nodes[leaf].page());
        if let Bound::Excluded(key) = lo {
            // The descent goes left on equality, so entries equal to `key`
            // may fill the rest of this leaf and run on into the next ones:
            // step over them now, as the first fill would step to the next
            // leaf anyway.
            while let Some((entries, Some(next))) = cursor.node.map(|n| self.nodes[n].as_leaf()) {
                if cursor.idx < entries.len() {
                    break;
                }
                self.cursor_advance(&mut cursor, next, pool, tracker);
                cursor.idx = self.nodes[next].as_leaf().0.upper_bound(key, form);
            }
        }
        cursor
    }

    /// Move `cursor` to the start of the leaf `next`, charging a sequential
    /// or a random page access depending on physical contiguity.
    fn cursor_advance(
        &self,
        cursor: &mut Cursor,
        next: NodeId,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) {
        let page = self.nodes[next].page();
        if page.0 == cursor.last_page.0 + 1 {
            pool.access_page_seq(page, tracker);
        } else {
            pool.access_page(page, tracker);
        }
        cursor.node = Some(next);
        cursor.idx = 0;
        cursor.last_page = page;
    }

    /// Hand up to `limit` entries to `emit` in their encoded form (see
    /// [`EntryRef`]), stopping at the upper bound. Returns true when the scan
    /// is exhausted (bound reached or tree ended). Leaf-to-leaf moves charge
    /// sequential or random page accesses depending on physical contiguity.
    pub fn cursor_walk<'t>(
        &'t self,
        cursor: &mut Cursor,
        hi: Bound<&Key>,
        limit: usize,
        pool: &BufferPool,
        tracker: &IoTracker,
        mut emit: impl FnMut(EntryRef<'t>),
    ) -> bool {
        let (mut remaining, form) = (limit, self.config.form);
        loop {
            let node_id = match cursor.node {
                Some(n) => n,
                None => return true,
            };
            let (entries, next) = self.nodes[node_id].as_leaf();
            if cursor.idx < entries.len() && remaining > 0 {
                // The entries are sorted: those within the bound are a
                // prefix, found once per leaf (usually by looking at the last
                // entry), not by comparing every key.
                let n = entries.len();
                let last = entries.entry(n - 1, form);
                let end = match hi {
                    Bound::Unbounded => n,
                    Bound::Included(h) if last.cmp_key(h).is_le() => n,
                    Bound::Excluded(h) if last.cmp_key(h).is_lt() => n,
                    Bound::Included(h) => entries.upper_bound(h, form),
                    Bound::Excluded(h) => entries.lower_bound(h, form),
                };
                let stop = end
                    .min(cursor.idx.saturating_add(remaining))
                    .max(cursor.idx);
                for i in cursor.idx..stop {
                    emit(entries.entry(i, form));
                }
                remaining -= stop - cursor.idx;
                cursor.idx = stop;
                if remaining > 0 && cursor.idx < n {
                    // The next entry lies beyond the bound.
                    cursor.node = None;
                    return true;
                }
            }
            if remaining == 0 {
                // Check whether we are exactly at the end.
                if cursor.idx >= entries.len() && next.is_none() {
                    cursor.node = None;
                    return true;
                }
                return false;
            }
            match next {
                Some(n) => self.cursor_advance(cursor, n, pool, tracker),
                None => {
                    cursor.node = None;
                    return true;
                }
            }
        }
    }

    /// Pull up to `limit` entries into `out`, stopping at the upper bound.
    /// Returns true when the scan is exhausted (bound reached or tree ended).
    pub fn cursor_fill(
        &self,
        cursor: &mut Cursor,
        hi: Bound<&Key>,
        limit: usize,
        out: &mut Vec<(Key, Row)>,
        pool: &BufferPool,
        tracker: &IoTracker,
    ) -> bool {
        self.cursor_walk(cursor, hi, limit, pool, tracker, |e| {
            out.push((e.to_key(), e.to_row()))
        })
    }

    /// Like [`BTree::cursor_fill`] but yields only payload rows, skipping
    /// the per-entry key decode — the hot path for range-scan operators that
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
        self.cursor_walk(cursor, hi, limit, pool, tracker, |e| out.push(e.to_row()))
    }

    /// Hand every entry, in key order, to `f` in its encoded form (see
    /// [`EntryRef`]) — the whole-index read of B+ tree builds and
    /// checkpoints, which copy bytes and decode nothing: an unbounded cursor
    /// scan.
    pub fn for_each_encoded_entry(
        &self,
        pool: &BufferPool,
        tracker: &IoTracker,
        f: impl FnMut(EntryRef<'_>),
    ) {
        let mut cursor = self.cursor_seek(Bound::Unbounded, pool, tracker);
        self.cursor_walk(&mut cursor, Bound::Unbounded, usize::MAX, pool, tracker, f);
    }

    /// [`BTree::for_each_encoded_entry`] with every entry decoded into one
    /// reused key and one reused row, lent to `f`: nothing is allocated per
    /// entry but what its strings need.
    pub fn for_each_entry(
        &self,
        pool: &BufferPool,
        tracker: &IoTracker,
        mut f: impl FnMut(&Key, &Row),
    ) {
        let mut key = Key::new(Vec::new());
        let mut row = Row::new(Vec::new());
        self.for_each_encoded_entry(pool, tracker, |e| {
            key.refill(codec::values(e.key).map(ValueRef::to_value));
            row.refill(codec::values(e.payload).map(ValueRef::to_value));
            f(&key, &row);
        });
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
        let fail = |m: String| Err(HpdError::Internal(m));
        // Keys within each leaf are sorted; leaf chain is globally sorted.
        let mut leaf = Some(self.first_leaf);
        let mut prev: Option<Key> = None;
        let (mut count, mut leaves, mut data_bytes) = (0usize, 0usize, 0usize);
        while let Some(id) = leaf {
            let (entries, next) = self.nodes[id].as_leaf();
            // Only an entry larger than a page lives on an overfull leaf,
            // alone; entries beside others start within a slot's reach.
            let over = entries.page_bytes() > self.config.leaf_bytes;
            if entries.len() > 1 && (over || entries.byte_len() >= SLOT_REACH) {
                return fail(format!(
                    "leaf {id}: {} entries in {} page bytes, over {} or a slot's reach",
                    entries.len(),
                    entries.page_bytes(),
                    self.config.leaf_bytes
                ));
            }
            for e in entries.iter(self.config.form) {
                let k = e.to_key();
                if let Some(p) = &prev {
                    if p > &k {
                        return fail(format!("leaf chain out of order: {p:?} > {k:?}"));
                    }
                }
                prev = Some(k);
                count += 1;
                data_bytes += e.byte_width();
            }
            leaves += 1;
            leaf = next;
        }
        if count != self.len {
            return fail(format!("leaf chain count {count} != len {}", self.len));
        }
        if data_bytes != self.data_bytes {
            return fail(format!(
                "entries weigh {data_bytes} bytes, data_bytes says {}",
                self.data_bytes
            ));
        }
        // The counters `stats()` answers from equal what a walk finds.
        let walked_leaves = self.nodes.iter().filter(|n| n.is_leaf()).count();
        if (leaves, walked_leaves) != (self.leaves, self.leaves) {
            return fail(format!(
                "{leaves} leaves chained, {walked_leaves} in the arena, counter says {}",
                self.leaves
            ));
        }
        // Every node reachable from the root is in-bounds, leaf depth is
        // uniform, and the separators bound their children: every key under
        // `children[i]` lies within `keys[i - 1]..=keys[i]` (duplicates of a
        // separator may sit on both sides of it).
        fn depth_check(
            tree: &BTree,
            node: NodeId,
            lo: Option<&Key>,
            hi: Option<&Key>,
        ) -> std::result::Result<usize, String> {
            match &tree.nodes[node] {
                Node::Leaf { entries, .. } => {
                    let form = tree.config.form;
                    let ends = [entries.iter(form).next(), entries.iter(form).last()];
                    for e in ends.into_iter().flatten() {
                        let below = lo.is_some_and(|lo| e.cmp_key(lo).is_lt());
                        let above = hi.is_some_and(|hi| e.cmp_key(hi).is_gt());
                        if below || above {
                            return Err(format!(
                                "leaf {node}: {:?} outside its separators {lo:?}..={hi:?}",
                                e.to_key()
                            ));
                        }
                    }
                    Ok(1)
                }
                Node::Internal { keys, children, .. } => {
                    if children.len() != keys.len() + 1 {
                        return Err(format!(
                            "internal node {node}: {} children, {} keys",
                            children.len(),
                            keys.len()
                        ));
                    }
                    let mut depths = children.iter().enumerate().map(|(i, &c)| {
                        let lo = if i == 0 { lo } else { keys.get(i - 1) };
                        depth_check(tree, c, lo, keys.get(i).or(hi))
                    });
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
        let height = depth_check(self, self.root, None, None).map_err(HpdError::Internal)?;
        if height != self.height {
            return fail(format!("height {height}, counter says {}", self.height));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpd_storage::DeviceProfile;

    #[test]
    fn int32_keys_of_every_payload_width_stay_typed_and_sort_by_images() {
        // Payloads of 0, 1, 2, 3 and 4 bytes: five header bytes, one type.
        let keys = [70_000, 0, i32::MAX, -1, 300, i32::MIN, 1 << 30, -200, 5];
        let mut run = EntryRun::new(BTreeConfig::default());
        for &k in &keys {
            let (key, row) = ([Value::Int32(k)], [Value::Int32(k), Value::Int64(7)]);
            run.push(&key, &row);
        }
        let int32 = codec::abbreviate(run.entry(0).key).unwrap().tag;
        assert_eq!(run.tag, Some(int32));
        // Typed and exact: a lone `Int32` key is its image, so the sort
        // never reads a key's bytes.
        assert!(!run.untyped && !run.inexact && run.unsorted);
        let mut sorted = keys;
        sorted.sort_unstable();
        let mut by_image = run.order.clone();
        by_image.sort_unstable();
        let by_image: Vec<i32> = by_image.iter().map(|r| keys[r[2] as usize]).collect();
        assert_eq!(by_image, sorted);
        let (pool, tracker) = (
            BufferPool::unbounded(DeviceProfile::ram()),
            IoTracker::new(),
        );
        let tree = run
            .bulk_load(StorageAllocator::new(), &pool, &tracker)
            .unwrap();
        let loaded: Vec<Value> =
            (tree.scan_range_collect(Bound::Unbounded, Bound::Unbounded, &pool, &tracker))
                .into_iter()
                .map(|(k, _)| k.values()[0].clone())
                .collect();
        assert_eq!(loaded, sorted.map(Value::Int32));
    }
}
