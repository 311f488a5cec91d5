//! B+ tree node representation.
//!
//! An internal node holds owned separator keys; a leaf is a slotted page,
//! as SQL Server's is: its entries back to back in the
//! [`hpd_common::codec`] encoding, and a two-byte slot per entry that says
//! where the entry starts ([`PackedLeaf`]). How an entry holds its key is
//! its tree's, fixed when the tree is created ([`EntryForm`]): a tree whose
//! payloads begin with its key columns (a primary keyed on its leading
//! columns, every secondary) stores each entry as the bare payload, no
//! header, its key the payload's first values; any other keeps the key
//! apart, behind its byte length. A two-byte slot reaches 64 KiB, a page's
//! entries far less: only an entry larger than a page can take a leaf past
//! it, so such an entry lives alone on its leaf from the write that makes
//! it so — a leaf refuses it beside other entries, and the tree splits the
//! leaf at its position first.

use std::cmp::Ordering;

use hpd_common::{codec, Key, Row, Value, ValueRef};
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
/// An entry's values are in the [`hpd_common::codec`] encoding, the one the
/// write-ahead log writes — so `payload` of an [`EntryRef`] is, as it
/// stands, the row a checkpoint copies into its image. How an entry holds
/// its key is its tree's [`EntryForm`], passed to every method that reads
/// or writes one: the bare payload when the tree's payloads begin with its
/// key, else the key's byte length, the key and the payload. Keys are
/// compared in place through [`hpd_common::ValueRef`]; nothing is decoded
/// until a caller asks for an owned [`Key`] or [`Row`].
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

/// What a key-in-payload tree says of an entry whose payload does not begin
/// with its key.
const NOT_LED: &str = "a key-in-payload tree takes only payloads that begin with their key";

/// How every entry of a tree holds its key, fixed when the tree is created
/// ([`crate::BTreeConfig::form`]): a fact about the index, never decided
/// per entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EntryForm {
    /// `[key length][key values][payload values]`, the length a varint
    /// ([`codec::put_varint`]; one byte for any key under 128 bytes): a tree
    /// whose payloads need not begin with its key.
    #[default]
    SeparateKey,
    /// The bare payload values, the first `n` of them the key: a tree whose
    /// payloads begin with its `n` key columns (a primary keyed on its
    /// leading columns, a secondary, which stores its keys first). It takes
    /// no entry whose payload does not begin with its key.
    KeyInPayload(usize),
}

impl EntryForm {
    /// The form of a tree keyed on the columns `keys` whose payload holds
    /// the columns `stored`, in that order.
    pub fn of(keys: &[usize], stored: impl IntoIterator<Item = usize>) -> EntryForm {
        match stored.into_iter().take(keys.len()).eq(keys.iter().copied()) {
            true => EntryForm::KeyInPayload(keys.len()),
            false => EntryForm::SeparateKey,
        }
    }

    /// The key and payload of the entry whose bytes are `entry`. A key in
    /// the payload ends after its `n` values' headers (and a string's
    /// length): one byte read for a one-column scalar key.
    #[inline]
    pub(crate) fn read(self, entry: &[u8]) -> EntryRef<'_> {
        match self {
            EntryForm::KeyInPayload(n) => EntryRef {
                key: &entry[..codec::values_len(entry, n)],
                payload: entry,
            },
            EntryForm::SeparateKey => {
                let mut body = entry;
                let key_len =
                    codec::take_varint(&mut body).expect("an entry starts with its key's length");
                let (key, payload) = body.split_at(key_len as usize);
                EntryRef { key, payload }
            }
        }
    }

    /// Append an entry whose key and payload are already encoded.
    pub(crate) fn put_encoded(self, bytes: &mut Vec<u8>, key: &[u8], payload: &[u8]) {
        if let EntryForm::KeyInPayload(n) = self {
            let leads = payload.starts_with(key) && codec::count_values(key) == n;
            assert!(leads, "{NOT_LED}");
        } else {
            codec::put_varint(bytes, key.len() as u64);
            bytes.extend_from_slice(key);
        }
        bytes.extend_from_slice(payload);
    }

    /// Append an entry, encoding it in place; a key in the payload is
    /// checked before anything is written.
    pub(crate) fn put(self, bytes: &mut Vec<u8>, key: &[Value], payload: &[Value]) {
        if let EntryForm::KeyInPayload(n) = self {
            // One encoding a value: equal values of one type, equal bytes.
            let same = |(k, p): (&Value, &Value)| k.data_type() == p.data_type() && k == p;
            let leads = key.len() == n && payload.len() >= n && key.iter().zip(payload).all(same);
            assert!(leads, "{NOT_LED}");
        } else {
            let key_len: usize = key.iter().map(|v| ValueRef::from(v).encoded_len()).sum();
            codec::put_varint(bytes, key_len as u64);
            codec::put_values(bytes, key);
        }
        codec::put_values(bytes, payload);
    }
}

/// Page bytes an entry's slot takes: its offset in `offsets`.
pub const SLOT_BYTES: usize = std::mem::size_of::<u16>();

/// Entry bytes a leaf of two or more entries holds less than: what a slot
/// reaches.
pub const SLOT_REACH: usize = 1 << 16;

/// Page bytes of one leaf entry of a tree of form `form` whose key's values
/// encode to `key` bytes and its payload's to `payload` bytes
/// ([`codec::put_values`]): the payload's bytes and the entry's slot, and
/// a separate key's bytes and their length — what [`PackedLeaf::page_bytes`]
/// counts for it. Fractional widths (a table's mean widths) give a mean
/// entry.
pub fn entry_bytes(key: f64, payload: f64, form: EntryForm) -> f64 {
    let separate = match form {
        EntryForm::SeparateKey => codec::varint_len(key.ceil() as u64) as f64 + key,
        EntryForm::KeyInPayload(_) => 0.0,
    };
    SLOT_BYTES as f64 + separate + payload
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
        let base = to.bytes.len();
        to.offsets
            .extend(self.offsets[..n].iter().map(|&o| o + narrow(base)));
        to.bytes
            .extend_from_slice(&self.bytes[..self.bytes_before(n) - SLOT_BYTES * n]);
        self.remove_front(n);
    }

    /// Remove the first `n` entries: how a front drain trims the leaf it
    /// stops in.
    pub(crate) fn remove_front(&mut self, n: usize) {
        let cut = self.bytes_before(n) - SLOT_BYTES * n;
        self.offsets.drain(..n);
        self.bytes.drain(..cut);
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
    pub fn entry(&self, i: usize, form: EntryForm) -> EntryRef<'_> {
        form.read(&self.bytes[self.entry_range(i)])
    }

    pub fn iter(&self, form: EntryForm) -> impl Iterator<Item = EntryRef<'_>> {
        (0..self.len()).map(move |i| self.entry(i, form))
    }

    /// Index of the first entry for which `before(stored key vs probe)` is
    /// false; the entries are sorted, so `before` holds on a prefix.
    fn partition_point(&self, key: &Key, form: EntryForm, before: fn(Ordering) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(self.entry(mid, form).cmp_key(key)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Index of the first entry with key ≥ `key`.
    pub fn lower_bound(&self, key: &Key, form: EntryForm) -> usize {
        self.partition_point(key, form, Ordering::is_lt)
    }

    /// Index of the first entry with key > `key`.
    pub fn upper_bound(&self, key: &Key, form: EntryForm) -> usize {
        self.partition_point(key, form, Ordering::is_le)
    }

    /// Append an entry whose key and payload are already encoded.
    #[cfg(test)]
    fn push_encoded(&mut self, key: &[u8], payload: &[u8], form: EntryForm) {
        self.open_entry();
        form.put_encoded(&mut self.bytes, key, payload);
    }

    /// Append an entry's bytes as they stand: how a bulk load copies the
    /// entries of its run.
    pub(crate) fn push_entry(&mut self, entry: &[u8]) {
        self.open_entry();
        self.bytes.extend_from_slice(entry);
    }

    /// Append an entry, encoding it in place.
    #[cfg(test)]
    fn push(&mut self, key: &[Value], payload: &[Value], form: EntryForm) {
        self.open_entry();
        form.put(&mut self.bytes, key, payload);
    }

    /// Note that an entry starts at the end of the bytes.
    fn open_entry(&mut self) {
        let at = u16::try_from(self.bytes.len());
        self.offsets
            .push(at.expect("a leaf's entries start within a slot's reach"));
    }

    /// Insert an entry in the form `form` at `pos`, shifting the entries
    /// behind it — if it fits beside them: an entry of more than `limit`
    /// page bytes, or a leaf that holds one, takes no other, and a leaf's
    /// entries stay within a slot's reach. Returns whether it was inserted;
    /// if not, nothing changed. Panics, changing nothing, if the form keeps
    /// the key in the payload and `payload` does not begin with `key`.
    pub fn insert(
        &mut self,
        pos: usize,
        key: &Key,
        payload: &Row,
        form: EntryForm,
        limit: usize,
    ) -> bool {
        let at = self
            .offsets
            .get(pos)
            .map_or(self.bytes.len(), |&o| usize::from(o));
        // Encode at the end, then rotate the new entry into place.
        let end = self.bytes.len();
        form.put(&mut self.bytes, key.values(), payload.values());
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

    /// Replace entry `i`'s payload, keeping its key, in the form `form`.
    /// Returns false, changing nothing, when the new entry does not fit
    /// beside the others (see [`PackedLeaf::insert`]); panics, changing
    /// nothing, when the key is the payload's and the new payload does not
    /// begin with it.
    pub fn set_payload(&mut self, i: usize, payload: &Row, form: EntryForm, limit: usize) -> bool {
        let old = self.entry_range(i);
        let e = form.read(&self.bytes[old.clone()]);
        // A separate key and its length stay; a key in the payload must.
        let (head, key_end) = (old.end - e.payload.len(), old.start + e.key.len());
        // Encode at the end, move it over the old entry.
        let start = self.bytes.len();
        self.bytes.extend_from_within(old.start..head);
        codec::put_values(&mut self.bytes, payload.values());
        if let EntryForm::KeyInPayload(_) = form {
            let leads = self.bytes[start..].starts_with(&self.bytes[old.start..key_end]);
            self.bytes
                .truncate(if leads { self.bytes.len() } else { start });
            assert!(leads, "{NOT_LED}");
        }
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
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const SEPARATE: EntryForm = EntryForm::SeparateKey;

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

    fn contents(leaf: &PackedLeaf, form: EntryForm) -> Vec<(Key, Row)> {
        leaf.iter(form).map(|e| (e.to_key(), e.to_row())).collect()
    }

    /// Every entry is in its tree's form: a key in the payload is the
    /// payload's first bytes, a separate key a copy before it.
    fn assert_form(leaf: &PackedLeaf, form: EntryForm) {
        for (i, e) in leaf.iter(form).enumerate() {
            let in_payload = matches!(form, EntryForm::KeyInPayload(_));
            assert_eq!(
                e.key.as_ptr() == e.payload.as_ptr(),
                in_payload,
                "entry {i}"
            );
        }
    }

    /// Whether `f` panics, leaving `leaf` as it was.
    fn refused(leaf: &mut PackedLeaf, f: impl FnOnce(&mut PackedLeaf)) -> bool {
        let before = (leaf.bytes.clone(), leaf.offsets.clone());
        let panicked = catch_unwind(AssertUnwindSafe(|| f(leaf))).is_err();
        assert_eq!((&leaf.bytes, &leaf.offsets), (&before.0, &before.1));
        panicked
    }

    #[test]
    fn separate_keys_edit_like_a_vector_of_owned_entries() {
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
            // Payloads that begin with their key keep it apart all the
            // same; a long key under a two-byte length.
            (1, key(&[2]), row_after(&key(&[2]), "leads")),
            (6, long_key.clone(), row_after(&long_key, "")),
            (4, key(&[4]), Row::new(vec![Value::Int64(4)])),
        ];
        for (pos, k, r) in steps {
            assert!(leaf.insert(pos, &k, &r, SEPARATE, usize::MAX));
            model.insert(pos, (k, r));
            assert_eq!(contents(&leaf, SEPARATE), model);
            assert_form(&leaf, SEPARATE);
        }
        // Same width, wider, narrower, empty, and led by the key.
        let rewrites = [
            (1, row("")),
            (2, row("now longer")),
            (3, row("x")),
            (5, Row::new(vec![])),
            (2, row_after(&key(&[1, 2]), "")),
            (6, row_after(&long_key, "now longer")),
            (7, row("")),
        ];
        for (i, r) in rewrites {
            assert!(leaf.set_payload(i, &r, SEPARATE, usize::MAX));
            model[i].1 = r;
            assert_eq!(contents(&leaf, SEPARATE), model);
        }
        let right = leaf.split_off(4);
        assert_eq!(contents(&leaf, SEPARATE), model[..4]);
        assert_eq!(contents(&right, SEPARATE), model[4..]);
        assert_eq!(leaf.heap_bytes(), leaf.bytes.len() + 2 * leaf.len());
        // A copy is the entry as it stands.
        let mut copy = PackedLeaf::default();
        (0..right.len()).for_each(|i| copy.push_entry(&right.bytes[right.entry_range(i)]));
        assert_eq!((&copy.bytes, &copy.offsets), (&right.bytes, &right.offsets));
        for _ in 0..4 {
            leaf.remove(0);
            model.remove(0);
            assert_eq!(contents(&leaf, SEPARATE), model[..leaf.len()]);
        }
        assert!(leaf.is_empty() && leaf.bytes.is_empty());
    }

    /// A key-in-payload leaf stores each entry as its payload and reads the
    /// key as the payload's first values. It refuses, changing nothing, an
    /// entry whose payload does not begin with its key (`Int64(4)` behind
    /// the key `Int32(4)`: an equal value, other bytes), one whose key has
    /// other than its tree's number of values, and a rewrite that would
    /// change the key.
    #[test]
    fn keys_in_payloads_edit_like_a_vector_of_owned_entries() {
        let form = EntryForm::KeyInPayload(2);
        let mut leaf = PackedLeaf::default();
        let mut model: Vec<(Key, Row)> = Vec::new();
        let long_key = Key::new(vec![Value::str("z".repeat(300)), Value::Int32(1)]);
        let steps = [
            (0, key(&[5, 5]), "five"),
            (0, key(&[1, 2]), ""),
            (1, long_key.clone(), "long key"),
            (3, key(&[9, 0]), "nine"),
        ];
        for (pos, k, s) in steps {
            let r = row_after(&k, s);
            assert!(leaf.insert(pos, &k, &r, form, usize::MAX));
            model.insert(pos, (k, r));
            assert_eq!(contents(&leaf, form), model);
            assert_form(&leaf, form);
        }
        // No header: the entry is the payload's bytes.
        let mut payload = Vec::new();
        codec::put_values(&mut payload, model[0].1.values());
        assert_eq!(leaf.bytes[leaf.entry_range(0)], payload[..]);
        for i in 0..leaf.len() {
            let r = row_after(&model[i].0, "rewritten");
            assert!(leaf.set_payload(i, &r, form, usize::MAX));
            model[i].1 = r;
            assert_eq!(contents(&leaf, form), model);
        }
        let widened = Row::new(vec![Value::Int64(4), Value::Int32(4)]);
        assert!(refused(&mut leaf, |l| {
            l.insert(1, &key(&[4, 4]), &widened, form, usize::MAX);
        }));
        assert!(refused(&mut leaf, |l| {
            l.insert(
                1,
                &key(&[4]),
                &row_after(&key(&[4, 4]), ""),
                form,
                usize::MAX,
            );
        }));
        assert!(refused(&mut leaf, |l| {
            l.set_payload(2, &row_after(&key(&[1, 3]), ""), form, usize::MAX);
        }));
        assert!(refused(&mut leaf, |l| {
            let mut bytes = Vec::new();
            form.put_encoded(&mut bytes, &[0x10], &[0x11]);
            l.push_entry(&bytes);
        }));
        assert_eq!(contents(&leaf, form), model);
    }

    #[test]
    fn page_bytes_are_entry_bytes_summed_and_cuts_balance_them() {
        let encode = |vs: &[Value]| {
            let mut b = Vec::new();
            codec::put_values(&mut b, vs);
            b
        };
        let long_key = Key::new(vec![Value::str("z".repeat(200))]);
        for form in [SEPARATE, EntryForm::KeyInPayload(1)] {
            let mut leaf = PackedLeaf::default();
            let entries = [
                (key(&[1]), "a"),
                (key(&[2]), &"z".repeat(200)[..]),
                (long_key.clone(), ""),
                (key(&[4]), "bb"),
                (key(&[5]), "shared"),
                (long_key.clone(), "x"),
            ];
            let mut want = 0.0;
            for (k, s) in &entries {
                let r = row_after(k, s);
                leaf.push(k.values(), r.values(), form);
                let (kb, rb) = (encode(k.values()), encode(r.values()));
                want += entry_bytes(kb.len() as f64, rb.len() as f64, form);
                // The same entry, already encoded, is the same bytes.
                let mut again = PackedLeaf::default();
                again.push_encoded(&kb, &rb, form);
                assert_eq!(again.bytes, leaf.bytes[leaf.entry_range(leaf.len() - 1)]);
            }
            assert_eq!(leaf.page_bytes() as f64, want);
            assert_form(&leaf, form);
            // `Int32(5)` in 2 bytes, a six-byte string in 8, `Int64(6)` in
            // 2, the slot; a separate key's 2 bytes and their length too.
            // The 203-byte key takes a two-byte length.
            let separate = |n| if form == SEPARATE { n } else { 0 };
            assert_eq!(
                leaf.entry_page_bytes(4),
                separate(1 + 2) + 2 + 8 + 2 + SLOT_BYTES
            );
            assert_eq!(
                leaf.entry_page_bytes(2),
                separate(2 + 203) + 203 + 3 + SLOT_BYTES
            );
            let widths: Vec<usize> = (0..6).map(|i| leaf.entry_page_bytes(i)).collect();
            assert_eq!(widths.iter().sum::<usize>(), leaf.page_bytes());
            // The three long entries (1, 2 and 5) go to different pieces.
            assert_eq!(leaf.byte_midpoint(), 3, "{form:?}");
            let right = leaf.split_off(3);
            assert_eq!((leaf.byte_midpoint(), right.byte_midpoint()), (2, 2));
        }
    }

    #[test]
    fn an_entry_that_does_not_fit_beside_the_others_is_refused() {
        let limit = 1_000;
        let big = |n: usize| row(&"b".repeat(n));
        let mut leaf = PackedLeaf::default();
        let insert = |leaf: &mut PackedLeaf, pos, k: &[i32], r: &Row, limit| {
            leaf.insert(pos, &key(k), r, SEPARATE, limit)
        };
        // An empty leaf takes an entry of any size.
        assert!(insert(&mut leaf, 0, &[5], &big(70_000), limit));
        // A leaf holding one past `limit` takes no other, either side.
        assert!(!insert(&mut leaf, 0, &[1], &row("a"), limit));
        assert!(!insert(&mut leaf, 1, &[9], &row("a"), limit));
        assert_eq!(contents(&leaf, SEPARATE), [(key(&[5]), big(70_000))]);
        // Alone, it can be rewritten at any width.
        assert!(leaf.set_payload(0, &big(90_000), SEPARATE, limit));
        assert!(leaf.set_payload(0, &row("small"), SEPARATE, limit));
        assert!(insert(&mut leaf, 1, &[9], &row("a"), limit));
        // An entry past `limit` joins no leaf with entries, as an insert or
        // as a rewrite, and a refusal changes nothing.
        let before = (leaf.bytes.clone(), leaf.offsets.clone());
        assert!(!insert(&mut leaf, 1, &[7], &big(limit), limit));
        assert!(!leaf.set_payload(1, &big(limit), SEPARATE, limit));
        assert_eq!((&leaf.bytes, &leaf.offsets), (&before.0, &before.1));
        // Under any limit, entries stay within a slot's reach.
        let mut leaf = PackedLeaf::default();
        for i in 0..7 {
            assert!(insert(&mut leaf, i, &[i as i32], &big(9_000), usize::MAX));
        }
        assert!(!insert(&mut leaf, 7, &[7], &big(3_000), usize::MAX));
        assert!(!leaf.set_payload(6, &big(12_000), SEPARATE, usize::MAX));
        assert!(insert(&mut leaf, 7, &[7], &big(2_000), usize::MAX));
        assert!(leaf.byte_len() < SLOT_REACH);
    }

    #[test]
    fn bounds_follow_key_order_prefixes_included() {
        for form in [SEPARATE, EntryForm::KeyInPayload(2)] {
            let mut leaf = PackedLeaf::default();
            for k in [&[1, 1][..], &[1, 5], &[2, 0], &[2, 0], &[4, 4]] {
                leaf.push(key(k).values(), row_after(&key(k), "p").values(), form);
            }
            let bounds = |k: &Key| (leaf.lower_bound(k, form), leaf.upper_bound(k, form));
            assert_eq!(bounds(&key(&[2, 0])), (2, 4));
            // A one-value probe sorts before every stored key it prefixes;
            // a stored key does not run on into its payload's values.
            assert_eq!(bounds(&key(&[2])), (2, 2));
            assert_eq!(bounds(&key(&[2, 0, 0])), (4, 4));
            assert_eq!(leaf.lower_bound(&key(&[9]), form), 5);
            let probe = Key::new(vec![Value::Int64(1), Value::sentinel_max()]);
            assert_eq!(leaf.upper_bound(&probe, form), 2);
        }
    }

    #[test]
    fn a_tree_keyed_on_the_leading_stored_columns_keeps_its_key_in_the_payload() {
        assert_eq!(EntryForm::of(&[0], 0..3), EntryForm::KeyInPayload(1));
        assert_eq!(
            EntryForm::of(&[2, 0], [2, 0, 1]),
            EntryForm::KeyInPayload(2)
        );
        assert_eq!(EntryForm::of(&[], 0..3), EntryForm::KeyInPayload(0));
        assert_eq!(EntryForm::of(&[1], 0..3), SEPARATE);
        assert_eq!(EntryForm::of(&[0, 1], [0]), SEPARATE);
    }
}
