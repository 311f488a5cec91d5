//! B+ tree node representation.

use std::cmp::Ordering;

use hpd_common::{codec, Key, Row, Value};
use hpd_storage::PageId;

/// Index of a node in the tree's arena.
pub type NodeId = usize;

/// One B+ tree node. Every node occupies one logical 8 KB page.
#[derive(Debug)]
pub enum Node {
    /// Internal routing node. `keys[i]` is the minimum key reachable through
    /// `children[i + 1]`; `children.len() == keys.len() + 1`.
    Internal {
        keys: Vec<Key>,
        children: Vec<NodeId>,
        page: PageId,
    },
    /// Leaf node: sorted `(key, payload)` entries plus a next-leaf link.
    Leaf {
        entries: PackedLeaf,
        next: Option<NodeId>,
        page: PageId,
    },
}

impl Node {
    pub fn page(&self) -> PageId {
        match self {
            Node::Internal { page, .. } | Node::Leaf { page, .. } => *page,
        }
    }

    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }

    pub fn as_leaf(&self) -> (&PackedLeaf, Option<NodeId>) {
        match self {
            Node::Leaf { entries, next, .. } => (entries, *next),
            Node::Internal { .. } => panic!("expected leaf node"),
        }
    }
}

/// The `(key, payload)` entries of one leaf in two allocations: the entries
/// back to back in `bytes`, and where each starts.
///
/// An entry is `[key length][key values][payload values]`: the byte length
/// of the key values as a LEB128 varint (one byte for any key under 128
/// bytes), then the key's and the payload's values in the
/// [`hpd_common::codec`] encoding, the one the write-ahead log writes — so
/// `payload` of an [`EntryRef`] is, as it stands, the row a checkpoint
/// copies into its image. Keys are compared in place through
/// [`hpd_common::ValueRef`]; nothing is decoded until a caller asks for an
/// owned [`Key`] or [`Row`].
///
/// How many entries a leaf may hold is the tree's business
/// ([`crate::BTreeConfig::leaf_capacity`]), not a function of these bytes:
/// the leaf models an 8 KB page of the simulated store whatever it weighs on
/// the heap.
#[derive(Debug, Default)]
pub struct PackedLeaf {
    bytes: Vec<u8>,
    offsets: Vec<u32>,
}

/// One entry of a [`PackedLeaf`], borrowed: the encoded values of its key
/// and of its payload.
#[derive(Debug, Clone, Copy)]
pub struct EntryRef<'a> {
    pub key: &'a [u8],
    pub payload: &'a [u8],
}

impl EntryRef<'_> {
    /// The stored key against a probe, as `Key`s compare: value by value, a
    /// strict prefix first.
    #[inline]
    pub fn cmp_key(&self, probe: &Key) -> Ordering {
        codec::cmp_with_values(self.key, probe.values())
    }

    pub fn to_key(&self) -> Key {
        Key::new(codec::decode(self.key))
    }

    pub fn to_row(&self) -> Row {
        Row::new(codec::decode(self.payload))
    }

    /// `Key::byte_width` + `Row::byte_width` of the owned entry.
    pub fn byte_width(&self) -> usize {
        codec::byte_width(self.key) + codec::byte_width(self.payload)
    }
}

fn put_varint(buf: &mut Vec<u8>, mut n: usize) {
    while n >= 0x80 {
        buf.push(n as u8 | 0x80);
        n >>= 7;
    }
    buf.push(n as u8);
}

/// Read the varint at the front of `bytes`; returns it and the rest.
#[inline]
fn take_varint(bytes: &[u8]) -> (usize, &[u8]) {
    let (mut n, mut shift) = (0usize, 0);
    for (i, &b) in bytes.iter().enumerate() {
        n |= usize::from(b & 0x7f) << shift;
        if b < 0x80 {
            return (n, &bytes[i + 1..]);
        }
        shift += 7;
    }
    panic!("entry header runs off the leaf");
}

impl PackedLeaf {
    /// An empty leaf with room for `entries` entries of `bytes` bytes in all.
    pub(crate) fn with_capacity(entries: usize, bytes: usize) -> PackedLeaf {
        PackedLeaf {
            bytes: Vec::with_capacity(bytes),
            offsets: Vec::with_capacity(entries),
        }
    }

    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Bytes of encoded entries held.
    pub(crate) fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Heap bytes this leaf's two vectors hold.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.capacity() + self.offsets.capacity() * std::mem::size_of::<u32>()
    }

    fn entry_range(&self, i: usize) -> std::ops::Range<usize> {
        let start = self.offsets[i] as usize;
        let end = self
            .offsets
            .get(i + 1)
            .map_or(self.bytes.len(), |&o| o as usize);
        start..end
    }

    #[inline]
    pub fn entry(&self, i: usize) -> EntryRef<'_> {
        let (key_len, rest) = take_varint(&self.bytes[self.entry_range(i)]);
        let (key, payload) = rest.split_at(key_len);
        EntryRef { key, payload }
    }

    pub fn iter(&self) -> impl Iterator<Item = EntryRef<'_>> {
        (0..self.len()).map(|i| self.entry(i))
    }

    /// Index of the first entry for which `before(stored key vs probe)` is
    /// false; the entries are sorted, so `before` holds on a prefix.
    fn partition_point(&self, key: &Key, before: impl Fn(Ordering) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(self.entry(mid).cmp_key(key)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Index of the first entry with key ≥ `key`.
    pub fn lower_bound(&self, key: &Key) -> usize {
        self.partition_point(key, Ordering::is_lt)
    }

    /// Index of the first entry with key > `key`.
    pub fn upper_bound(&self, key: &Key) -> usize {
        self.partition_point(key, Ordering::is_le)
    }

    /// Append an entry whose key and payload are already encoded.
    pub fn push_encoded(&mut self, key: &[u8], payload: &[u8]) {
        let start = u32::try_from(self.bytes.len()).expect("a leaf's entries fit in 4 GB");
        self.offsets.push(start);
        put_varint(&mut self.bytes, key.len());
        self.bytes.extend_from_slice(key);
        self.bytes.extend_from_slice(payload);
    }

    /// Append an entry, encoding it in place.
    pub fn push<'a>(
        &mut self,
        key: impl IntoIterator<Item = &'a Value>,
        payload: impl IntoIterator<Item = &'a Value>,
    ) {
        let start = u32::try_from(self.bytes.len()).expect("a leaf's entries fit in 4 GB");
        self.offsets.push(start);
        // One byte holds the length of any key under 128 bytes; a longer key
        // is re-headed below, once its length is known.
        self.bytes.push(0);
        let key_at = self.bytes.len();
        codec::put_values(&mut self.bytes, key);
        let key_len = self.bytes.len() - key_at;
        if key_len < 0x80 {
            self.bytes[key_at - 1] = key_len as u8;
        } else {
            let mut header = Vec::with_capacity(4);
            put_varint(&mut header, key_len);
            self.bytes.splice(key_at - 1..key_at, header);
        }
        codec::put_values(&mut self.bytes, payload);
    }

    /// Insert an entry at `pos`, shifting the entries behind it.
    pub fn insert(&mut self, pos: usize, key: &Key, payload: &Row) {
        let at = self
            .offsets
            .get(pos)
            .map_or(self.bytes.len(), |&o| o as usize);
        // Encode at the end, then rotate the new entry into place.
        self.push(key.values(), payload.values());
        let appended = self.offsets.pop().expect("just pushed") as usize;
        let width = self.bytes.len() - appended;
        self.bytes[at..].rotate_right(width);
        for o in &mut self.offsets[pos..] {
            *o += width as u32;
        }
        self.offsets.insert(pos, at as u32);
    }

    /// Remove entry `i`.
    pub fn remove(&mut self, i: usize) {
        let range = self.entry_range(i);
        let width = range.len() as u32;
        self.bytes.drain(range);
        self.offsets.remove(i);
        for o in &mut self.offsets[i..] {
            *o -= width;
        }
    }

    /// Replace entry `i`'s payload, keeping its key.
    pub fn set_payload(&mut self, i: usize, payload: &Row) {
        let range = self.entry_range(i);
        let old_width = self.entry(i).payload.len();
        let at = range.end - old_width;
        // Encode at the end, move it over the old payload.
        let appended = self.bytes.len();
        codec::put_values(&mut self.bytes, payload.values());
        let width = self.bytes.len() - appended;
        if width == old_width {
            self.bytes.copy_within(appended.., at);
            self.bytes.truncate(appended);
            return;
        }
        self.bytes[at..].rotate_right(width);
        self.bytes.drain(at + width..at + width + old_width);
        for o in &mut self.offsets[i + 1..] {
            *o = *o - old_width as u32 + width as u32;
        }
    }

    /// Split off the entries from `mid` on into a new leaf. Both halves end
    /// up holding exactly their bytes.
    pub fn split_off(&mut self, mid: usize) -> PackedLeaf {
        let base = self.offsets[mid];
        let right = PackedLeaf {
            bytes: self.bytes[base as usize..].to_vec(),
            offsets: self.offsets[mid..].iter().map(|o| o - base).collect(),
        };
        self.bytes.truncate(base as usize);
        self.offsets.truncate(mid);
        self.bytes.shrink_to_fit();
        self.offsets.shrink_to_fit();
        right
    }

    /// A copy holding exactly its bytes, leaving `self` empty with its
    /// capacity: how a bulk load seals the leaf it has been filling.
    pub(crate) fn seal(&mut self) -> PackedLeaf {
        let sealed = PackedLeaf {
            bytes: self.bytes.as_slice().to_vec(),
            offsets: self.offsets.as_slice().to_vec(),
        };
        self.bytes.clear();
        self.offsets.clear();
        sealed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(vs: &[i32]) -> Key {
        Key::new(vs.iter().map(|&v| Value::Int32(v)).collect())
    }

    fn row(s: &str) -> Row {
        Row::new(vec![Value::str(s), Value::Int64(s.len() as i64)])
    }

    fn contents(leaf: &PackedLeaf) -> Vec<(Key, Row)> {
        leaf.iter().map(|e| (e.to_key(), e.to_row())).collect()
    }

    #[test]
    fn varint_round_trips() {
        for n in [
            0,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            1 << 21,
            usize::MAX >> 1,
        ] {
            let mut b = Vec::new();
            put_varint(&mut b, n);
            b.push(0xee);
            assert_eq!(take_varint(&b), (n, &[0xee][..]), "{n}");
        }
    }

    #[test]
    fn edits_match_a_vector_of_owned_entries() {
        let mut leaf = PackedLeaf::default();
        let mut model: Vec<(Key, Row)> = Vec::new();
        let long = "y".repeat(300);
        let steps: Vec<(usize, Key, Row)> = vec![
            (0, key(&[5]), row("five")),
            (0, key(&[1, 2]), row("")),
            (2, key(&[9]), row(&long)),
            (1, key(&[3]), Row::new(vec![])),
            (4, Key::new(vec![Value::str(long.clone())]), row("long key")),
        ];
        for (pos, k, r) in steps {
            leaf.insert(pos, &k, &r);
            model.insert(pos, (k, r));
            assert_eq!(contents(&leaf), model);
        }
        // Same width, wider, narrower, empty.
        for (i, r) in [
            (0, row("")),
            (1, row("now longer")),
            (2, row("x")),
            (4, Row::new(vec![])),
        ] {
            leaf.set_payload(i, &r);
            model[i].1 = r;
            assert_eq!(contents(&leaf), model);
        }
        let right = leaf.split_off(2);
        assert_eq!(contents(&leaf), model[..2]);
        assert_eq!(contents(&right), model[2..]);
        assert_eq!(leaf.heap_bytes(), leaf.bytes.len() + 4 * leaf.len());
        leaf.remove(0);
        assert_eq!(contents(&leaf), model[1..2]);
        leaf.remove(0);
        assert!(leaf.is_empty() && leaf.bytes.is_empty());
    }

    #[test]
    fn bounds_follow_key_order_prefixes_included() {
        let mut leaf = PackedLeaf::default();
        for k in [&[1, 1][..], &[1, 5], &[2, 0], &[2, 0], &[4, 4]] {
            leaf.push(key(k).values(), row("p").values());
        }
        assert_eq!(leaf.lower_bound(&key(&[2, 0])), 2);
        assert_eq!(leaf.upper_bound(&key(&[2, 0])), 4);
        // A one-value probe sorts before every stored key it prefixes.
        assert_eq!(leaf.lower_bound(&key(&[2])), 2);
        assert_eq!(leaf.upper_bound(&key(&[2])), 2);
        assert_eq!(leaf.lower_bound(&key(&[9])), 5);
        let probe = Key::new(vec![Value::Int64(1), Value::sentinel_max()]);
        assert_eq!(leaf.upper_bound(&probe), 2);
    }
}
