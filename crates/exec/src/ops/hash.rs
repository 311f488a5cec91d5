//! What the hash join and the hash aggregate share: key columns normalised
//! to one 64-bit word a row, row hashes computed a column at a time, an
//! open-addressing table from a hash to a row or group id, and the spill
//! partition of a key.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use hpd_common::{ArcStr, Batch, ColumnVector, DataType, Key, Result};
use hpd_storage::SpillFile;

use crate::ctx::ExecCtx;

/// Partitions a spilling hash operator splits its overflow into.
const SPILL_PARTITIONS: usize = 16;

/// Which values of two key columns can be equal: `Value`'s equality joins
/// `Int32` with `Int64` and nothing else across types that its hash also
/// agrees on.
pub(crate) fn key_class(dtype: DataType) -> u8 {
    match dtype {
        DataType::Int32 | DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Decimal => 2,
        DataType::Date => 3,
        DataType::Utf8 => 4,
    }
}

#[inline]
fn mix(x: u64) -> u64 {
    let x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 32)
}

fn hash_str(s: &str) -> u64 {
    let mut chunks = s.as_bytes().chunks_exact(8);
    let mut h = mix(s.len() as u64);
    for chunk in &mut chunks {
        h = mix(h ^ u64::from_le_bytes(chunk.try_into().expect("eight bytes")));
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    mix(h ^ u64::from_le_bytes(tail))
}

/// The key columns of some rows, normalised: per key column one word a row
/// — integers, dates and decimals as they are (sign-extended, so an `Int32`
/// key meets an `Int64` one), floats by their bits (`Value` equality is
/// `total_cmp`'s: `-0.0` is not `0.0`, a NaN equals only its own bit
/// pattern), strings by a hash of their bytes — and per row one hash over
/// its words. Two rows have the same key when their words agree and, in a
/// string column, their strings do.
///
/// A key of one scalar column keeps no words: [`mix`] is a bijection, so
/// two such rows with the same hash have the same key.
#[derive(Debug)]
pub(crate) struct Keys {
    /// Words kept per row: the number of key columns, or 0 (see above).
    width: usize,
    /// Row-major, `width` a row.
    words: Vec<u64>,
    /// The key columns that hold strings, by position in the key.
    strings: Vec<usize>,
    pub(crate) hashes: Vec<u64>,
}

impl Keys {
    /// Normalise and hash columns `ords` of `cols`, which hold `rows` rows.
    pub(crate) fn of(cols: &[ColumnVector], ords: &[usize], rows: usize) -> Keys {
        fn each<T>(
            vals: &[T],
            word: impl Fn(&T) -> u64,
            hashes: &mut [u64],
            mut keep: impl FnMut(usize, u64),
        ) {
            for (i, (v, h)) in vals.iter().zip(hashes).enumerate() {
                let w = word(v);
                *h = mix(*h ^ w);
                keep(i, w);
            }
        }
        let strings: Vec<usize> = (0..ords.len())
            .filter(|&c| matches!(cols[ords[c]], ColumnVector::Str(_)))
            .collect();
        let width = match ords.len() {
            1 if strings.is_empty() => 0,
            n => n,
        };
        let mut hashes = vec![0u64; rows];
        let mut words = vec![0u64; rows * width];
        for (c, &o) in ords.iter().enumerate() {
            let keep = |i: usize, w: u64| {
                if width > 0 {
                    words[i * width + c] = w;
                }
            };
            match &cols[o] {
                ColumnVector::Int32(v) | ColumnVector::Date(v) => {
                    each(v, |&x| i64::from(x) as u64, &mut hashes, keep)
                }
                ColumnVector::Int64(v) | ColumnVector::Decimal(v) => {
                    each(v, |&x| x as u64, &mut hashes, keep)
                }
                ColumnVector::Float64(v) => each(v, |x| x.to_bits(), &mut hashes, keep),
                ColumnVector::Str(v) => each(v, |s| hash_str(s), &mut hashes, keep),
            }
        }
        Keys {
            width,
            words,
            strings,
            hashes,
        }
    }

    /// A comparison of these keys' rows, taken from columns `ords` of
    /// `cols`, with `other`'s, taken from `other_ords` of `other_cols`.
    pub(crate) fn same<'a>(
        &'a self,
        (cols, ords): (&'a [ColumnVector], &[usize]),
        other: &'a Keys,
        (other_cols, other_ords): (&'a [ColumnVector], &[usize]),
    ) -> Same<'a> {
        debug_assert_eq!(self.width, other.width);
        let strings =
            self.strings
                .iter()
                .map(|&c| match (&cols[ords[c]], &other_cols[other_ords[c]]) {
                    (ColumnVector::Str(x), ColumnVector::Str(y)) => (x.as_slice(), y.as_slice()),
                    _ => unreachable!("keys of one shape: column {c} holds strings on both sides"),
                });
        Same {
            width: self.width,
            words: &self.words,
            other_words: &other.words,
            strings: strings.collect(),
        }
    }

    /// The number of rows.
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Append row `i` of `other`.
    pub(crate) fn push_row(&mut self, other: &Keys, i: usize) {
        let w = self.width;
        self.words
            .extend_from_slice(&other.words[i * w..(i + 1) * w]);
        self.hashes.push(other.hashes[i]);
    }
}

/// Whether a row of one [`Keys`] and a row of another *with the same hash*
/// have the same key. Holds the slices it reads, so a loop over rows
/// reloads nothing.
pub(crate) struct Same<'a> {
    width: usize,
    words: &'a [u64],
    other_words: &'a [u64],
    strings: Vec<(Strings<'a>, Strings<'a>)>,
}

type Strings<'a> = &'a [ArcStr];

impl Same<'_> {
    #[inline]
    pub(crate) fn rows(&self, a: usize, b: usize) -> bool {
        let w = self.width;
        (0..w).all(|c| self.words[a * w + c] == self.other_words[b * w + c])
            && self.strings.iter().all(|(x, y)| x[a] == y[b])
    }
}

const EMPTY: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u64,
    id: u32,
}

/// Open addressing with linear probing: one `(hash, id)` slot per distinct
/// key, at most half of the slots taken. What an id names — the first row
/// of a key's chain, a group — and when two keys are the same is the
/// caller's business.
#[derive(Debug)]
pub(crate) struct Table {
    slots: Vec<Slot>,
    taken: usize,
}

impl Table {
    /// A table that holds `keys` keys without growing.
    pub(crate) fn with_capacity(keys: usize) -> Table {
        let slots = (keys * 2).next_power_of_two().max(16);
        Table {
            slots: vec![Slot { hash: 0, id: EMPTY }; slots],
            taken: 0,
        }
    }

    /// The slot of the key with this hash that `same` accepts the id of, or
    /// the empty slot such a key goes into.
    #[inline]
    pub(crate) fn slot(&self, hash: u64, mut same: impl FnMut(u32) -> bool) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot.id == EMPTY || (slot.hash == hash && same(slot.id)) {
                return at;
            }
            at = (at + 1) & mask;
        }
    }

    /// The id in `slot`, if it is taken.
    #[inline]
    pub(crate) fn id(&self, slot: usize) -> Option<u32> {
        let id = self.slots[slot].id;
        (id != EMPTY).then_some(id)
    }

    /// Put `id` into `slot`, which [`Table::slot`] returned for `hash`.
    #[inline]
    pub(crate) fn set(&mut self, slot: usize, hash: u64, id: u32) {
        debug_assert_ne!(id, EMPTY);
        self.taken += usize::from(self.slots[slot].id == EMPTY);
        self.slots[slot] = Slot { hash, id };
    }

    /// Make room for one more key; slots found before this call are stale.
    pub(crate) fn reserve_one(&mut self) {
        if (self.taken + 1) * 2 <= self.slots.len() {
            return;
        }
        let old = std::mem::replace(self, Table::with_capacity(self.slots.len()));
        for slot in old.slots.into_iter().filter(|s| s.id != EMPTY) {
            // Every key in the table is distinct: none is `same`.
            let at = self.slot(slot.hash, |_| false);
            self.set(at, slot.hash, slot.id);
        }
    }
}

/// What a hash operator has spilled: the rows, retained as columns, and for
/// each spill partition the file its rows were charged to and which rows
/// those are. A row's partition is its key's own hash through an unkeyed
/// `DefaultHasher`, so a row lands where the row-at-a-time operators put it
/// and a plan spills the bytes it always did.
pub(crate) struct Spilled {
    pub(crate) rows: Batch,
    pub(crate) partitions: Vec<Partition>,
    /// Refilled with each spilled row's key.
    scratch: Key,
}

#[derive(Default)]
pub(crate) struct Partition {
    file: Option<SpillFile>,
    /// Rows of [`Spilled::rows`], in arrival order.
    pub(crate) rows: Vec<usize>,
}

impl Partition {
    /// Charge reading the partition's file back.
    pub(crate) fn read_back(&self, ctx: &ExecCtx<'_>) {
        if let Some(file) = &self.file {
            file.read_all(&ctx.tracker);
        }
    }
}

impl Spilled {
    pub(crate) fn new(types: &[DataType]) -> Spilled {
        Spilled {
            rows: Batch::empty(types),
            partitions: (0..SPILL_PARTITIONS)
                .map(|_| Partition::default())
                .collect(),
            scratch: Key::new(Vec::new()),
        }
    }

    /// Spill those of `rows` of `batch` whose partition — by the key in
    /// columns `ords` — is `wanted`: one write of the row's `byte_width` each.
    pub(crate) fn spill(
        &mut self,
        batch: &Batch,
        ords: &[usize],
        rows: impl Iterator<Item = usize>,
        wanted: impl Fn(usize) -> bool,
        ctx: &ExecCtx<'_>,
    ) -> Result<()> {
        let widths = batch.row_byte_widths();
        let mut taken = Vec::new();
        for i in rows {
            self.scratch
                .refill(ords.iter().map(|&o| batch.column(o).value(i)));
            let mut h = DefaultHasher::new();
            self.scratch.hash(&mut h);
            let p = (h.finish() as usize) % SPILL_PARTITIONS;
            if !wanted(p) {
                continue;
            }
            let part = &mut self.partitions[p];
            part.file
                .get_or_insert_with(|| ctx.spill.create_file())
                .write(widths[i] as u64, &ctx.tracker)?;
            part.rows.push(self.rows.num_rows() + taken.len());
            taken.push(i);
        }
        self.rows.append(batch.take(&taken))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpd_common::Value;

    #[test]
    fn words_follow_value_equality() {
        let cols = [
            ColumnVector::Int32(vec![7, -1]),
            ColumnVector::Int64(vec![7, -1]),
            ColumnVector::Float64(vec![0.0, -0.0]),
            ColumnVector::Str(vec![ArcStr::new("abcdefgh"), ArcStr::new("abcdefgh\0")]),
        ];
        // One scalar column: the hash is the key.
        let narrow = Keys::of(&cols, &[0], 2);
        let wide = Keys::of(&cols, &[1], 2);
        assert_eq!(narrow.hashes, wide.hashes);
        assert_ne!(narrow.hashes[0], narrow.hashes[1]);
        assert_eq!(Value::Int32(-1), Value::Int64(-1));
        let floats = Keys::of(&cols, &[2], 2);
        assert_ne!(floats.hashes[0], floats.hashes[1]);
        assert_ne!(Value::Float64(0.0), Value::Float64(-0.0));

        // Two columns: words decide, whatever the integer's width.
        let narrow = Keys::of(&cols, &[0, 2], 2);
        let wide = Keys::of(&cols, &[1, 2], 2);
        let same = narrow.same((&cols, &[0, 2]), &wide, (&cols, &[1, 2]));
        assert!(same.rows(1, 1) && !same.rows(0, 1));

        // Strings: a string's word is a hash, and should two strings share
        // it, their bytes decide.
        let mut strings = Keys::of(&cols, &[3], 2);
        assert_ne!(strings.hashes[0], strings.hashes[1]);
        strings.words[1] = strings.words[0];
        let same = strings.same((&cols, &[3]), &strings, (&cols, &[3]));
        assert!(same.rows(1, 1) && !same.rows(0, 1));
    }

    #[test]
    fn the_table_keeps_every_key_through_growth() {
        let mut table = Table::with_capacity(0);
        // Hashes that collide in their low bits: probing has to walk.
        let hash = |k: u32| u64::from(k) << 20;
        for k in 0..1_000u32 {
            table.reserve_one();
            let at = table.slot(hash(k), |id| id == k);
            assert_eq!(table.id(at), None);
            table.set(at, hash(k), k);
        }
        for k in 0..1_000u32 {
            assert_eq!(table.id(table.slot(hash(k), |id| id == k)), Some(k));
        }
        assert_eq!(table.id(table.slot(hash(1_000), |_| false)), None);
    }

    #[test]
    fn a_spilled_row_goes_where_its_keys_own_hash_says() {
        let pool = hpd_storage::BufferPool::unbounded(hpd_storage::DeviceProfile::ssd());
        let ctx = ExecCtx::new(&pool);
        let batch = Batch::new(vec![
            ColumnVector::Str(["x", "y", "z"].map(ArcStr::new).to_vec()),
            ColumnVector::Int32(vec![3, 4, 5]),
        ]);
        let mut spilled = Spilled::new(&[DataType::Utf8, DataType::Int32]);
        spilled
            .spill(&batch, &[1, 0], [2, 0].into_iter(), |_| true, &ctx)
            .unwrap();
        assert_eq!(spilled.rows, batch.take(&[2, 0]));
        for (row, i) in [2, 0].into_iter().enumerate() {
            let key = Key::new(vec![batch.column(1).value(i), batch.column(0).value(i)]);
            let mut h = DefaultHasher::new();
            key.hash(&mut h);
            let p = (h.finish() as usize) % SPILL_PARTITIONS;
            assert!(spilled.partitions[p].rows.contains(&row));
        }
        // "z" and 5, "x" and 3: each a string's bytes and two, and four.
        assert_eq!(ctx.tracker.spilled_bytes(), 2 * (3 + 4));
        drop(spilled);
        assert_eq!(ctx.spill.live_files(), 0);
    }
}
