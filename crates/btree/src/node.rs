//! B+ tree node representation.
//!
//! An internal node holds owned separator keys; a leaf is a slotted page,
//! as SQL Server's is: its entries back to back in the
//! [`hpd_common::codec`] encoding, and a two-byte slot per entry that says
//! where the entry starts ([`PackedLeaf`]). A two-byte slot reaches 64 KiB,
//! a page's entries far less: only an entry larger than a page can take a
//! leaf past it, so such an entry lives alone on its leaf from the write
//! that makes it so — a leaf refuses it beside other entries, and the tree
//! splits the leaf at its position first.

use std::cmp::Ordering;

use hpd_common::{codec, Key, Row, Value};
use hpd_storage::PageId;

/// Index of a node in the tree's arena.
pub type NodeId = usize;

/// One B+ tree node. Every node occupies one logical 8 KB page.
#[derive(Debug)]
pub enum Node {
    /// Internal routing node. `keys[i]` separates `children[i]` from
    /// `children[i + 1]`: no key under the one is above it, none under the
    /// other below it (it was the right one's first key when last written;
    /// deletes may have taken that entry since). `children.len() ==
    /// keys.len() + 1`.
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
/// An entry is `[header][key values][payload values]`, its values in the
/// [`hpd_common::codec`] encoding, the one the write-ahead log writes — so
/// `payload` of an [`EntryRef`] is, as it stands, the row a checkpoint
/// copies into its image. When the payload's bytes begin with the key's (a
/// primary B+ tree keyed on its leading columns stores every column; a
/// secondary stores its keys first), the key is not written a second time:
/// the entry is `[header][payload values]` and its key is the payload's
/// first bytes. The header is a varint ([`codec::put_varint`]) of the key's
/// byte length shifted left by one, its low bit set when the key is shared
/// so (one byte for any key under 64 bytes). Keys are compared in place through
/// [`hpd_common::ValueRef`]; nothing is decoded until a caller asks for an
/// owned [`Key`] or [`Row`].
///
/// A leaf is one page of the simulated store, and its bytes are what fill
/// it: the entries and, per entry, the two-byte slot `offsets` keeps for it
/// — SQL Server's row-offset array ([`PackedLeaf::page_bytes`]; the tree
/// bounds them by [`crate::BTreeConfig::leaf_bytes`]). A slot reaches 64
/// KiB, so a leaf of two or more entries holds less than that: an entry
/// that does not fit beside the others ([`PackedLeaf::insert`],
/// [`PackedLeaf::set_payload`]) is refused, and the tree gives it a leaf of
/// its own.
#[derive(Debug, Default)]
pub struct PackedLeaf {
    bytes: Vec<u8>,
    offsets: Vec<u16>,
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

/// Page bytes an entry's slot takes: its offset in `offsets`.
pub const SLOT_BYTES: usize = std::mem::size_of::<u16>();

/// Entry bytes a leaf of two or more entries holds less than: what a slot
/// reaches.
pub const SLOT_REACH: usize = 1 << 16;

/// Page bytes of one leaf entry whose key's values encode to `key` bytes and
/// its payload's to `payload` bytes ([`codec::put_values`]), the payload
/// beginning with the key's values when `shared`: the header, the key's
/// bytes unless the payload holds them, the payload's, and the entry's slot
/// — what [`PackedLeaf::page_bytes`] counts for it. Fractional widths (a
/// table's mean widths) give a mean entry.
pub fn entry_bytes(key: f64, payload: f64, shared: bool) -> f64 {
    let header = codec::varint_len(header(key.ceil() as usize, shared) as u64);
    let key_copy = if shared { 0.0 } else { key };
    (header + SLOT_BYTES) as f64 + key_copy + payload
}

/// Whether an entry stores its key once: its payload's encoding begins with
/// its key's. The one rule for an entry's form.
fn shares_key(key: &[u8], payload: &[u8]) -> bool {
    payload.starts_with(key)
}

/// An entry's header: its key's byte length and whether the payload holds
/// the key.
fn header(key_len: usize, shared: bool) -> usize {
    key_len << 1 | usize::from(shared)
}

/// The header at the front of an entry's bytes, and the rest.
#[inline]
fn take_header(mut bytes: &[u8]) -> (usize, &[u8]) {
    let header = codec::take_varint(&mut bytes).expect("an entry starts with its header");
    (header as usize, bytes)
}

/// The key and payload of the entry whose bytes are `entry`.
#[inline]
pub(crate) fn read_entry(entry: &[u8]) -> EntryRef<'_> {
    let (header, body) = take_header(entry);
    let (key, rest) = body.split_at(header >> 1);
    let payload = if header & 1 == 1 { body } else { rest };
    EntryRef { key, payload }
}

/// Append an entry whose key and payload are already encoded. The form is
/// decided before anything is written: a run reserved for exactly its
/// entries' bytes ([`crate::EntryRun::with_capacity`]) must not hold a
/// key's copy even for a moment.
pub(crate) fn put_encoded_entry(bytes: &mut Vec<u8>, key: &[u8], payload: &[u8]) {
    let shared = shares_key(key, payload);
    codec::put_varint(bytes, header(key.len(), shared) as u64);
    if !shared {
        bytes.extend_from_slice(key);
    }
    bytes.extend_from_slice(payload);
}

/// Append an entry, encoding it in place: a one-byte placeholder, the key's
/// values and the payload's, then the form ([`seal_entry`]).
pub(crate) fn put_entry<'a>(
    bytes: &mut Vec<u8>,
    key: impl IntoIterator<Item = &'a Value>,
    payload: impl IntoIterator<Item = &'a Value>,
) {
    let start = bytes.len();
    bytes.push(0);
    codec::put_values(bytes, key);
    let key_len = bytes.len() - start - 1;
    codec::put_values(bytes, payload);
    seal_entry(bytes, start, key_len);
}

/// Give the entry written at the end of `bytes` from `start` on — a
/// one-byte placeholder, its key's `key_len` bytes, its payload's — its
/// form: the key's copy goes if the payload begins with it, and the header
/// is written (re-heading the entry if it takes more than one byte).
fn seal_entry(bytes: &mut Vec<u8>, start: usize, key_len: usize) {
    let (key_at, payload_at) = (start + 1, start + 1 + key_len);
    let shared = shares_key(&bytes[key_at..payload_at], &bytes[payload_at..]);
    if shared {
        bytes.copy_within(payload_at.., key_at);
        bytes.truncate(bytes.len() - key_len);
    }
    let header = header(key_len, shared);
    if header < 0x80 {
        bytes[start] = header as u8;
    } else {
        let mut head = Vec::with_capacity(4);
        codec::put_varint(&mut head, header as u64);
        bytes.splice(start..key_at, head);
    }
}

/// Whether an entry of `width` bytes may stand on a leaf beside `n` others
/// of `others` bytes in all: always on a leaf of its own; else only if
/// neither it nor a lone other is more than `limit` page bytes (such an
/// entry lives alone) and all of them stay within a slot's reach.
fn fits_beside(n: usize, others: usize, width: usize, limit: usize) -> bool {
    n == 0
        || width + SLOT_BYTES <= limit
            && (n > 1 || others + SLOT_BYTES <= limit)
            && others + width < SLOT_REACH
}

/// `n`, a byte count within a leaf's entries, as a slot's offset or shift.
/// Unchecked: every entry is placed by [`PackedLeaf::open_entry`], which
/// checks, or beside others by a write [`fits_beside`] admitted, so a
/// leaf's entries never reach past a slot.
#[inline]
fn narrow(n: usize) -> u16 {
    debug_assert!(
        n < SLOT_REACH,
        "a leaf's entries stay within a slot's reach"
    );
    n as u16
}

impl PackedLeaf {
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

    /// Page bytes of the entries held: their bytes and their slots.
    pub fn page_bytes(&self) -> usize {
        self.bytes.len() + SLOT_BYTES * self.len()
    }

    /// Page bytes of entry `i`: its bytes and its slot.
    #[cfg(test)]
    fn entry_page_bytes(&self, i: usize) -> usize {
        self.entry_range(i).len() + SLOT_BYTES
    }

    /// Page bytes of the entries before entry `n` (`n == len()`: all).
    fn bytes_before(&self, n: usize) -> usize {
        let bytes = self
            .offsets
            .get(n)
            .map_or(self.bytes.len(), |&o| usize::from(o));
        bytes + SLOT_BYTES * n
    }

    /// How many leading entries, and their page bytes, this leaf of two or
    /// more entries hands a left sibling that holds `receiver` page bytes:
    /// at least the fewest whose removal leaves it within `limit` (all but
    /// the last if nothing less does), and more while the sibling stays
    /// within half of what the two hold — so the two come out about even
    /// and the next inserts find room on both.
    pub(crate) fn front_share(&self, limit: usize, receiver: usize) -> (usize, usize) {
        let total = self.page_bytes();
        let half = (total + receiver) / 2;
        let need = (1..self.len())
            .find(|&n| total - self.bytes_before(n) <= limit)
            .unwrap_or(self.len() - 1);
        let n = (need..self.len())
            .take_while(|&n| receiver + self.bytes_before(n) <= half)
            .last()
            .unwrap_or(need);
        (n, self.bytes_before(n))
    }

    /// The first of the trailing entries, and their page bytes, this leaf
    /// of two or more entries hands a right sibling that holds `receiver`
    /// page bytes: at least the fewest whose removal leaves it within
    /// `limit` (all but the first if nothing less does), and more while the
    /// sibling stays within half of what the two hold.
    pub(crate) fn back_share(&self, limit: usize, receiver: usize) -> (usize, usize) {
        let total = self.page_bytes();
        let half = (total + receiver) / 2;
        let need = (1..self.len())
            .rev()
            .find(|&m| self.bytes_before(m) <= limit)
            .unwrap_or(1);
        let from = (1..=need)
            .find(|&m| receiver + total - self.bytes_before(m) <= half)
            .unwrap_or(need);
        (from, total - self.bytes_before(from))
    }

    /// Move the first `n` entries, as they stand, to the end of `to`.
    pub(crate) fn move_front_to(&mut self, n: usize, to: &mut PackedLeaf) {
        let cut = self.bytes_before(n) - SLOT_BYTES * n;
        let base = to.bytes.len();
        to.offsets
            .extend(self.offsets.drain(..n).map(|o| o + narrow(base)));
        to.bytes.extend(self.bytes.drain(..cut));
        for o in &mut self.offsets {
            *o -= narrow(cut);
        }
    }

    /// Move the entries from `from` on, as they stand, to the front of `to`.
    pub(crate) fn move_back_to(&mut self, from: usize, to: &mut PackedLeaf) {
        let cut = self.offsets[from];
        let width = self.bytes.len() - usize::from(cut);
        for o in &mut to.offsets {
            *o += narrow(width);
        }
        to.offsets
            .splice(0..0, self.offsets.drain(from..).map(|o| o - cut));
        to.bytes.splice(0..0, self.bytes.drain(usize::from(cut)..));
    }

    /// Where to cut an overflowing leaf of two or more entries: the entry,
    /// from the second to the last, before which the two halves' page bytes
    /// differ least (the first such).
    pub(crate) fn byte_midpoint(&self) -> usize {
        let total = self.page_bytes();
        // Page bytes of the larger half when the cut is before entry `m`.
        let larger = |m: usize| {
            let before = self.bytes_before(m);
            before.max(total - before)
        };
        (1..self.len())
            .min_by_key(|&m| larger(m))
            .expect("a cut needs two entries")
    }

    /// Heap bytes this leaf's two vectors hold.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.capacity() + self.offsets.capacity() * SLOT_BYTES
    }

    fn entry_range(&self, i: usize) -> std::ops::Range<usize> {
        let start = usize::from(self.offsets[i]);
        let end = self
            .offsets
            .get(i + 1)
            .map_or(self.bytes.len(), |&o| usize::from(o));
        start..end
    }

    #[inline]
    pub fn entry(&self, i: usize) -> EntryRef<'_> {
        read_entry(&self.bytes[self.entry_range(i)])
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
    #[cfg(test)]
    fn push_encoded(&mut self, key: &[u8], payload: &[u8]) {
        self.open_entry();
        put_encoded_entry(&mut self.bytes, key, payload);
    }

    /// Append an entry's bytes as they stand: how a bulk load copies the
    /// entries of its run.
    pub(crate) fn push_entry(&mut self, entry: &[u8]) {
        self.open_entry();
        self.bytes.extend_from_slice(entry);
    }

    /// Append an entry, encoding it in place.
    #[cfg(test)]
    fn push<'a>(
        &mut self,
        key: impl IntoIterator<Item = &'a Value>,
        payload: impl IntoIterator<Item = &'a Value>,
    ) {
        self.open_entry();
        put_entry(&mut self.bytes, key, payload);
    }

    /// Note that an entry starts at the end of the bytes.
    fn open_entry(&mut self) {
        let at = u16::try_from(self.bytes.len());
        self.offsets
            .push(at.expect("a leaf's entries start within a slot's reach"));
    }

    /// Insert an entry at `pos`, shifting the entries behind it — if it fits
    /// beside them: an entry of more than `limit` page bytes, or a leaf that
    /// holds one, takes no other, and a leaf's entries stay within a slot's
    /// reach. Returns whether it was inserted; if not, nothing changed.
    pub fn insert(&mut self, pos: usize, key: &Key, payload: &Row, limit: usize) -> bool {
        let at = self
            .offsets
            .get(pos)
            .map_or(self.bytes.len(), |&o| usize::from(o));
        // Encode at the end, then rotate the new entry into place.
        let end = self.bytes.len();
        put_entry(&mut self.bytes, key.values(), payload.values());
        let width = self.bytes.len() - end;
        if !fits_beside(self.len(), end, width, limit) {
            self.bytes.truncate(end);
            return false;
        }
        self.bytes[at..].rotate_right(width);
        for o in &mut self.offsets[pos..] {
            *o += narrow(width);
        }
        self.offsets.insert(pos, narrow(at));
        true
    }

    /// Remove entry `i`.
    pub fn remove(&mut self, i: usize) {
        let range = self.entry_range(i);
        let width = range.len();
        self.bytes.drain(range);
        self.offsets.remove(i);
        for o in &mut self.offsets[i..] {
            *o -= narrow(width);
        }
    }

    /// Replace entry `i`'s payload, keeping its key: the entry is written
    /// anew, so a payload that now begins with the key, or no longer does,
    /// changes its form. Returns false, changing nothing, when the new
    /// entry does not fit beside the others (see [`PackedLeaf::insert`]).
    pub fn set_payload(&mut self, i: usize, payload: &Row, limit: usize) -> bool {
        let old = self.entry_range(i);
        let (header, body) = take_header(&self.bytes[old.clone()]);
        let body_at = old.end - body.len();
        let key = body_at..body_at + (header >> 1);
        // Encode at the end, move it over the old entry.
        let start = self.bytes.len();
        self.bytes.push(0);
        self.bytes.extend_from_within(key.clone());
        codec::put_values(&mut self.bytes, payload.values());
        seal_entry(&mut self.bytes, start, key.len());
        let (width, old_width) = (self.bytes.len() - start, old.len());
        if !fits_beside(self.len() - 1, start - old_width, width, limit) {
            self.bytes.truncate(start);
            return false;
        }
        if width == old_width {
            self.bytes.copy_within(start.., old.start);
            self.bytes.truncate(start);
            return true;
        }
        self.bytes[old.start..].rotate_right(width);
        self.bytes
            .drain(old.start + width..old.start + width + old_width);
        for o in &mut self.offsets[i + 1..] {
            *o = *o - narrow(old_width) + narrow(width);
        }
        true
    }

    /// Split off the entries from `mid` on into a new leaf. Both halves end
    /// up holding exactly their bytes.
    pub fn split_off(&mut self, mid: usize) -> PackedLeaf {
        let base = self
            .offsets
            .get(mid)
            .map_or(self.bytes.len(), |&o| usize::from(o));
        let right = PackedLeaf {
            bytes: self.bytes[base..].to_vec(),
            offsets: self.offsets[mid..]
                .iter()
                .map(|&o| o - narrow(base))
                .collect(),
        };
        self.bytes.truncate(base);
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

    /// A row that begins with `k`'s values, then `s`'s.
    fn row_after(k: &Key, s: &str) -> Row {
        Row::new(
            k.values()
                .iter()
                .cloned()
                .chain(row(s).values().to_vec())
                .collect(),
        )
    }

    fn contents(leaf: &PackedLeaf) -> Vec<(Key, Row)> {
        leaf.iter().map(|e| (e.to_key(), e.to_row())).collect()
    }

    /// Whether entry `i` is stored in the shared form.
    fn shared(leaf: &PackedLeaf, i: usize) -> bool {
        take_header(&leaf.bytes[leaf.entry_range(i)]).0 & 1 == 1
    }

    /// Every entry is in the form its bytes call for: shared exactly when
    /// its payload's encoding begins with its key's, and then the key is the
    /// payload's first bytes, not a copy.
    fn assert_forms(leaf: &PackedLeaf) {
        for (i, e) in leaf.iter().enumerate() {
            let want = e.payload.starts_with(e.key);
            assert_eq!(shared(leaf, i), want, "entry {i}");
            assert_eq!(e.key.as_ptr() == e.payload.as_ptr(), want, "entry {i}");
        }
    }

    #[test]
    fn edits_match_a_vector_of_owned_entries() {
        let mut leaf = PackedLeaf::default();
        let mut model: Vec<(Key, Row)> = Vec::new();
        let long = "y".repeat(300);
        let long_key = Key::new(vec![Value::str(long.clone())]);
        let steps: Vec<(usize, Key, Row)> = vec![
            (0, key(&[5]), row("five")),
            (0, key(&[1, 2]), row("")),
            (2, key(&[9]), row(&long)),
            (1, key(&[3]), Row::new(vec![])),
            (4, long_key.clone(), row("long key")),
            // Payloads that begin with their key: stored once, a long key
            // under a two-byte header; a key that is the whole payload; an
            // `Int64` payload value is not an `Int32` key's bytes.
            (1, key(&[2]), row_after(&key(&[2]), "shares")),
            (6, long_key.clone(), row_after(&long_key, "")),
            (0, key(&[0, 0]), row_after(&key(&[0, 0]), "x")),
            (3, key(&[3]), Row::new(key(&[3]).values().to_vec())),
            (4, key(&[4]), Row::new(vec![Value::Int64(4)])),
        ];
        for (pos, k, r) in steps {
            assert!(leaf.insert(pos, &k, &r, usize::MAX));
            model.insert(pos, (k, r));
            assert_eq!(contents(&leaf), model);
            assert_forms(&leaf);
        }
        assert_eq!((0..leaf.len()).filter(|&i| shared(&leaf, i)).count(), 4);
        // Same width, wider, narrower, empty; then payloads that come to
        // begin with their key and ones that stop doing so, either way at
        // the same width too.
        let rewrites = [
            (1, row("")),
            (2, row("now longer")),
            (3, row("x")),
            (5, Row::new(vec![])),
            (2, row_after(&key(&[1, 2]), "")),
            (0, row("shares no more")),
            (6, row_after(&key(&[5]), "five")),
            (8, row_after(&long_key, "now shared")),
            (4, Row::new(vec![Value::Int32(4)])),
            (4, Row::new(vec![Value::Int32(5)])),
            (9, row("")),
        ];
        for (i, r) in rewrites {
            assert!(leaf.set_payload(i, &r, usize::MAX));
            model[i].1 = r;
            assert_eq!(contents(&leaf), model);
            assert_forms(&leaf);
        }
        let right = leaf.split_off(4);
        assert_eq!(contents(&leaf), model[..4]);
        assert_eq!(contents(&right), model[4..]);
        assert_forms(&right);
        assert_eq!(leaf.heap_bytes(), leaf.bytes.len() + 2 * leaf.len());
        // A copy is the entry as it stands.
        let mut copy = PackedLeaf::default();
        (0..right.len()).for_each(|i| copy.push_entry(&right.bytes[right.entry_range(i)]));
        assert_eq!((&copy.bytes, &copy.offsets), (&right.bytes, &right.offsets));
        for _ in 0..4 {
            leaf.remove(0);
            model.remove(0);
            assert_eq!(contents(&leaf), model[..leaf.len()]);
        }
        assert!(leaf.is_empty() && leaf.bytes.is_empty());
    }

    #[test]
    fn page_bytes_are_entry_bytes_summed_and_cuts_balance_them() {
        let mut leaf = PackedLeaf::default();
        let long = "z".repeat(200);
        let long_key = Key::new(vec![Value::str(long.clone())]);
        let entries = [
            (key(&[1]), row("a")),
            (key(&[2]), row(&long)),
            (long_key.clone(), row("")),
            (key(&[4, 4]), row("bb")),
            (key(&[5]), row_after(&key(&[5]), "shared")),
            (long_key.clone(), row_after(&long_key, "")),
        ];
        let mut want = 0.0;
        for (k, r) in &entries {
            leaf.push(k.values(), r.values());
            let encode = |vs: &[Value]| {
                let mut b = Vec::new();
                codec::put_values(&mut b, vs);
                b
            };
            let (kb, rb) = (encode(k.values()), encode(r.values()));
            let shared = rb.starts_with(&kb);
            want += entry_bytes(kb.len() as f64, rb.len() as f64, shared);
            // The same entry, already encoded, is the same bytes.
            let mut again = PackedLeaf::default();
            again.push_encoded(&kb, &rb);
            assert_eq!(again.bytes, leaf.bytes[leaf.entry_range(leaf.len() - 1)]);
        }
        assert_eq!(leaf.page_bytes() as f64, want);
        assert_forms(&leaf);
        // Shared, the key's two bytes are the payload's first: a one-byte
        // header, the payload (`Int32(5)` in 2 bytes, a six-byte string in
        // 8, `Int64(6)` in 2) and the slot. The 203-byte key takes a
        // two-byte header either way.
        assert_eq!(leaf.entry_page_bytes(4), 1 + 2 + 8 + 2 + SLOT_BYTES);
        assert_eq!(leaf.entry_page_bytes(2), 2 + 203 + 3 + SLOT_BYTES);
        assert_eq!(leaf.entry_page_bytes(5), 2 + 203 + 3 + SLOT_BYTES);
        let widths: Vec<usize> = (0..6).map(|i| leaf.entry_page_bytes(i)).collect();
        assert_eq!(widths.iter().sum::<usize>(), leaf.page_bytes());
        // The three long entries (1, 2 and 5) go to different pieces.
        assert_eq!(leaf.byte_midpoint(), 3);
        let right = leaf.split_off(3);
        assert_eq!((leaf.byte_midpoint(), right.byte_midpoint()), (2, 2));
    }

    #[test]
    fn an_entry_that_does_not_fit_beside_the_others_is_refused() {
        let limit = 1_000;
        let big = |n: usize| row(&"b".repeat(n));
        let mut leaf = PackedLeaf::default();
        // An empty leaf takes an entry of any size.
        assert!(leaf.insert(0, &key(&[5]), &big(70_000), limit));
        // A leaf holding one past `limit` takes no other, either side.
        assert!(!leaf.insert(0, &key(&[1]), &row("a"), limit));
        assert!(!leaf.insert(1, &key(&[9]), &row("a"), limit));
        assert_eq!(contents(&leaf), [(key(&[5]), big(70_000))]);
        // Alone, it can be rewritten at any width.
        assert!(leaf.set_payload(0, &big(90_000), limit));
        assert!(leaf.set_payload(0, &row("small"), limit));
        assert!(leaf.insert(1, &key(&[9]), &row("a"), limit));
        // An entry past `limit` joins no leaf with entries, as an insert or
        // as a rewrite, and a refusal changes nothing.
        let before = (leaf.bytes.clone(), leaf.offsets.clone());
        assert!(!leaf.insert(1, &key(&[7]), &big(limit), limit));
        assert!(!leaf.set_payload(1, &big(limit), limit));
        assert_eq!((&leaf.bytes, &leaf.offsets), (&before.0, &before.1));
        // Under any limit, entries stay within a slot's reach.
        let mut leaf = PackedLeaf::default();
        for i in 0..7 {
            assert!(leaf.insert(i, &key(&[i as i32]), &big(9_000), usize::MAX));
        }
        assert!(!leaf.insert(7, &key(&[7]), &big(3_000), usize::MAX));
        assert!(!leaf.set_payload(6, &big(12_000), usize::MAX));
        assert!(leaf.insert(7, &key(&[7]), &big(2_000), usize::MAX));
        assert!(leaf.byte_len() < SLOT_REACH);
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
