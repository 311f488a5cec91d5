//! A page-based B+ tree index.
//!
//! This is the row-store substrate of the reproduction: SQL Server's B+ tree
//! indexes, both *primary* (clustered — full rows at the leaves) and
//! *secondary* (key + row locator at the leaves). The distinction is made by
//! the caller: the tree itself maps a composite [`Key`](hpd_common::Key)
//! to an arbitrary payload [`Row`](hpd_common::Row), allowing duplicate
//! keys.
//!
//! A leaf holds its entries packed: one byte buffer of `(key, payload)`
//! entries in the workspace's value encoding ([`hpd_common::codec`], the
//! bytes the write-ahead log writes) and one vector of two-byte slots, SQL
//! Server's row-offset array ([`node::PackedLeaf`]); an entry larger than
//! a page lives alone on its leaf. Keys are compared in place; an owned `Key` or
//! `Row` exists only when a caller asks for one.
//!
//! Storage accounting: every node occupies one logical 8 KB page, and a leaf
//! is full when its entries' bytes and slots fill the page less its header
//! ([`BTreeConfig::leaf_bytes`], [`entry_bytes`]): a bulk load packs leaves
//! to it, and a leaf an insert or a widening update takes past it hands the
//! entries it cannot hold to a sibling with room, splitting only when
//! neither sibling has any. Traversals
//! and leaf walks are charged to the shared
//! [`BufferPool`](hpd_storage::BufferPool), so selective
//! seeks touch a handful of pages while full leaf scans stream sequentially
//! allocated leaves at device bandwidth — the exact access-pattern asymmetry
//! the paper's Figures 1–2 measure.

pub mod cursor;
pub mod node;
pub mod tree;

pub use cursor::Cursor;
pub use node::{entry_bytes, EntryRef};
pub use tree::{BTree, BTreeConfig, BTreeStats, EntryRun, MAX_LEAF_BYTES, PAGE_HEADER_BYTES};
