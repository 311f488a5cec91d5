//! A reference model for the B+ tree: one seeded run drives a random mix of
//! every operation the tree offers against a plain sorted
//! `Vec<(Key, Row)>` and compares every answer, so the packed leaf and the
//! shared value codec are checked against owned values doing the obvious
//! thing. The tests in `tests/btree_model.rs` run it: a property test at
//! random seeds and leaf sizes, and fixed sweeps of leaf sizes up to 2 560
//! bytes (the widest in release).
//!
//! What a run covers: duplicate and composite keys, probes that are a strict
//! prefix of stored keys, `Included` / `Excluded` / `Unbounded` bounds,
//! `Value::sentinel_max`, `Int64` and `Float64` probes against `Int32` keys,
//! `-0.0` and NaN floats, empty payloads, empty and multi-kilobyte strings,
//! integers of every payload width from 0 to 8 bytes and the `i32` / `i64`
//! extremes, decimals at every scale (0 to 4 trailing zeros and more, so
//! the one value is written under tag 3 or 6–9), strings whose length is either side of a varint byte (0, 127,
//! 128, 16 383, 16 384),
//! updates that widen and narrow a payload (past a whole page too), bulk
//! loads from owned entries and from an unsorted encoded run, and leaves
//! that fill and split by their bytes at the given page size, or hand
//! entries to a sibling: bursts of inserts and widening updates into one
//! spot, into the tree as built (full, at a `bulk_fill` of 1.0) and later,
//! checked after each operation.
//!
//! Each run makes its tree in one of the two entry forms
//! ([`EntryForm`]). A tree that keeps its keys apart takes any payload: a
//! third of those drawn begin with their key's values (and some with them
//! under another type, `Int64(5)` behind the key `Int32(5)`: equal values,
//! other bytes), and updates prepend the key to a payload or overwrite its
//! leading values with the key's or with others. A tree that keeps its
//! `n`-value keys in the payload is given only payloads that begin with
//! their key, updates change what follows it, and it must refuse, changing
//! nothing, an insert or a load of an entry whose payload does not begin
//! with its key.
//!
//! An encoded run sorts abbreviated keys (the eight-byte image of a key's
//! first value), so half of the runs built here have keys of one first-value
//! type, drawn where an image is most easily wrong: integers either side of
//! the sign flip up to `MIN`/`MAX`, `Int32` mixed with `Int64` (no image
//! compares), floats with `-0.0`, NaNs of both signs and infinities, strings
//! equal in their first eight bytes, shorter than eight, or containing
//! `\0`, composite keys tied on the first value, duplicate whole keys
//! (arrival order must survive) — arriving shuffled, in key order, or in
//! reverse.
//!
//! Front drains of none, some, all and more than all of the entries take
//! the model's first ones off, leaf by leaf, in both forms; the tree's
//! invariants then also hold its freed nodes out of reach and its page
//! counters to what a walk finds.

use std::ops::Bound;
use std::panic::{catch_unwind, AssertUnwindSafe};

use hpd_btree::{BTree, BTreeConfig, EntryForm, EntryRef, EntryRun};
use hpd_common::{codec, Key, Row, Value};
use hpd_storage::{BufferPool, DeviceProfile, IoTracker, StorageAllocator};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

type Entries = Vec<(Key, Row)>;

/// Exact rendering: `Value`'s `==` is its order's (`Int32(5) == Int64(5)`),
/// which would let a decoder that changes a value's type pass.
fn show<T: std::fmt::Debug + ?Sized>(v: &T) -> String {
    format!("{v:?}")
}

fn value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..24) {
        0..=9 => Value::Int32(rng.gen_range(-3..8)),
        10 => Value::Int64(rng.gen_range(-3..8)),
        11 => Value::Date(rng.gen_range(0..4)),
        12 => Value::Decimal(rng.gen_range(-3..4i64) * 10_i64.pow(rng.gen_range(0..6))),
        13 | 14 => {
            let floats = [-0.0, 0.0, f64::NAN, 1.5, f64::NEG_INFINITY, 4.0];
            Value::Float64(floats[rng.gen_range(0..floats.len())])
        }
        15 => Value::str(""),
        16 | 17 => Value::str(["a", "ab", "b", "héllo"][rng.gen_range(0..4usize)]),
        18 => Value::str("k".repeat(rng.gen_range(2_000..5_000))),
        19 => Value::sentinel_max(),
        20 | 21 => wide(rng),
        22 => Value::str("v".repeat([0, 127, 128, 16_383, 16_384][rng.gen_range(0..5usize)])),
        _ => [
            Value::Int32(i32::MIN),
            Value::Int32(i32::MAX),
            Value::Int64(i64::MIN),
            Value::Int64(i64::MAX),
        ][rng.gen_range(0..4usize)]
        .clone(),
    }
}

/// An integer, date or decimal whose payload takes 0 to 8 bytes (4 at most
/// for the 32-bit types): a zig-zag word of that many significant bytes, a
/// decimal's with its last 0–4 digits then zeroed (so it may be written
/// scaled, in fewer).
fn wide(rng: &mut StdRng) -> Value {
    let bytes = rng.gen_range(0..=8u32);
    let w = match bytes {
        0 => 0,
        n => (rng.next_u64() | 1 << (8 * n - 1)) & u64::MAX >> (64 - 8 * n),
    };
    let x = (w >> 1) as i64 ^ -((w & 1) as i64);
    match rng.gen_range(0..4) {
        0 if bytes <= 4 => Value::Int32(x as i32),
        1 if bytes <= 4 => Value::Date(x as i32),
        2 => {
            let scale = 10_i64.pow(rng.gen_range(0..5));
            Value::Decimal(x / scale * scale)
        }
        _ => Value::Int64(x),
    }
}

/// How many values a key of a tree of `form` has: its own number if the
/// key is the payload's, else one to three.
fn key_len(rng: &mut StdRng, form: EntryForm) -> usize {
    match form {
        EntryForm::KeyInPayload(n) => n,
        EntryForm::SeparateKey => rng.gen_range(1..4),
    }
}

fn key(rng: &mut StdRng, form: EntryForm) -> Key {
    Key::new((0..key_len(rng, form)).map(|_| value(rng)).collect())
}

/// Keys for an encoded run whose first values are of one type (`family`
/// picks it; family 1 mixes two), from a small domain so that whole keys and
/// first values repeat.
fn typed_key(rng: &mut StdRng, family: u32, form: EntryForm) -> Key {
    let ints = [i64::MIN, -(1 << 40), -2, -1, 0, 1, 2, 1 << 40, i64::MAX];
    let small = [i32::MIN, -2, -1, 0, 1, 2, i32::MAX];
    // Every scale: 0–4 trailing zeros, and more.
    let decimals = [
        i64::MIN,
        -123_450_000,
        -70,
        -1,
        0,
        3,
        4_200,
        10_000,
        10_i64.pow(12),
    ];
    let floats = [
        f64::NEG_INFINITY,
        -1.5,
        -0.0,
        0.0,
        f64::MIN_POSITIVE,
        4.0,
        f64::INFINITY,
        f64::NAN,
        -f64::NAN,
    ];
    let strings = [
        "",
        "a",
        "a\0",
        "a\0b",
        "eightchr",
        "eightchr\0",
        "eightchrs and more",
        "eightchrs and less",
        "héllo wörld",
    ];
    let first = match family {
        0 => Value::Int32(small[rng.gen_range(0..small.len())]),
        1 if rng.gen_bool(0.5) => Value::Int32(small[rng.gen_range(0..small.len())]),
        1 | 2 => Value::Int64(ints[rng.gen_range(0..ints.len())]),
        3 => Value::Float64(floats[rng.gen_range(0..floats.len())]),
        4 => Value::Decimal(decimals[rng.gen_range(0..decimals.len())]),
        5 => Value::Date(small[rng.gen_range(0..small.len())]),
        _ => Value::str(strings[rng.gen_range(0..strings.len())]),
    };
    // One value (an exact image for a scalar) or a tail to tie-break on.
    let tail = (1..key_len(rng, form)).map(|_| value(rng));
    Key::new(std::iter::once(first).chain(tail).collect())
}

fn payload(rng: &mut StdRng) -> Row {
    Row::new((0..rng.gen_range(0..5)).map(|_| value(rng)).collect())
}

/// `key`'s values, then `rest`'s.
fn led_by(key: &Key, rest: &[Value]) -> Row {
    Row::new(key.values().iter().chain(rest).cloned().collect())
}

/// `key`'s values with every `Int32` an `Int64`, then `rest`'s: equal
/// values, other bytes.
fn widened(key: &Key, rest: &[Value]) -> Row {
    let widen = |v: &Value| match v {
        Value::Int32(x) => Value::Int64(i64::from(*x)),
        v => v.clone(),
    };
    Row::new(
        key.values()
            .iter()
            .map(widen)
            .chain(rest.iter().cloned())
            .collect(),
    )
}

/// A payload for `key` in a tree of `form`: led by the key if the key is
/// the payload's; else a third begin with the key's values, as a primary
/// keyed on its leading columns or a secondary stores them, and one in
/// twelve with them as `Int64` where they are `Int32`s.
fn payload_for(rng: &mut StdRng, key: &Key, form: EntryForm) -> Row {
    let rest = payload(rng);
    match (form, rng.gen_range(0..12)) {
        (EntryForm::KeyInPayload(_), _) | (_, 0..=3) => led_by(key, rest.values()),
        (_, 4) => widened(key, rest.values()),
        _ => rest,
    }
}

fn entry(rng: &mut StdRng, form: EntryForm) -> (Key, Row) {
    let k = key(rng, form);
    let r = payload_for(rng, &k, form);
    (k, r)
}

/// A probe: a fresh key, or one derived from a stored key so that it lands
/// on, just before or just after existing entries.
fn probe(rng: &mut StdRng, model: &Entries) -> Key {
    if model.is_empty() || rng.gen_bool(0.2) {
        return key(rng, EntryForm::SeparateKey);
    }
    let stored = model[rng.gen_range(0..model.len())].0.values();
    let mut vs = stored.to_vec();
    match rng.gen_range(0..6) {
        0 => vs.truncate(rng.gen_range(1..=vs.len())),
        1 => *vs.last_mut().expect("keys are not empty") = Value::sentinel_max(),
        2 => vs.push(Value::sentinel_max()),
        3 => {
            // The same number under another type.
            for v in &mut vs {
                if let Value::Int32(i) = *v {
                    *v = if rng.gen_bool(0.5) {
                        Value::Int64(i64::from(i))
                    } else {
                        Value::Float64(f64::from(i))
                    };
                }
            }
        }
        _ => {}
    }
    Key::new(vs)
}

fn bound<'a>(rng: &mut StdRng, k: &'a Key) -> Bound<&'a Key> {
    match rng.gen_range(0..5) {
        0 => Bound::Unbounded,
        1 | 2 => Bound::Included(k),
        _ => Bound::Excluded(k),
    }
}

/// What a scan from `lo` to `hi` yields: the entries from the first one at
/// or after `lo` for as long as they are within `hi`.
fn model_range<'a>(model: &'a Entries, lo: Bound<&Key>, hi: Bound<&Key>) -> &'a [(Key, Row)] {
    let start = match lo {
        Bound::Unbounded => 0,
        Bound::Included(k) => model.partition_point(|e| &e.0 < k),
        Bound::Excluded(k) => model.partition_point(|e| &e.0 <= k),
    };
    let end = match hi {
        Bound::Unbounded => model.len(),
        Bound::Included(k) => model.partition_point(|e| &e.0 <= k),
        Bound::Excluded(k) => model.partition_point(|e| &e.0 < k),
    };
    &model[start..end.max(start)]
}

/// The update the model and the tree both apply to a row under `key` (the
/// probe that found it) in a tree of `form`; `mode` picks what changes and
/// whether the row reports itself modified. A key kept in the payload stays
/// its first values: what follows it changes.
fn mutate(row: &mut Row, key: &Key, mode: u32, form: EntryForm) -> bool {
    let kept = match form {
        EntryForm::KeyInPayload(n) => n,
        EntryForm::SeparateKey => 0,
    };
    let mut vs = row.values()[kept..].to_vec();
    match mode % 8 {
        0 => return false,
        1 => vs.push(Value::str("w".repeat(mode as usize % 3_000))),
        2 => {
            vs.pop();
        }
        3 => vs.insert(0, Value::Int64(i64::from(mode))),
        4 => match vs.first_mut() {
            Some(Value::Str(s)) => *s = "".into(),
            Some(v) => *v = Value::str("was not a string"),
            None => vs.push(Value::Float64(-0.0)),
        },
        // The key in front: an unshared entry becomes shared at the same
        // width (the payload gains the key's bytes, the key's copy goes).
        6 => drop(vs.splice(0..0, key.values().iter().cloned())),
        // The leading values overwritten by the key's.
        7 => {
            let n = key.len().min(vs.len());
            drop(vs.splice(0..n, key.values().iter().cloned()));
        }
        _ => vs.clear(),
    }
    // Same arity (mode 4; mode 7 on a row at least as long as the key)
    // refills in place, any other reallocates.
    let key_values = row.values()[..kept].to_vec();
    row.refill(key_values.into_iter().chain(vs));
    true
}

struct Run {
    tree: BTree,
    form: EntryForm,
    model: Entries,
    pool: BufferPool,
    tracker: IoTracker,
}

impl Run {
    fn contents(&self) -> Entries {
        let mut out = Vec::new();
        self.tree.for_each_entry(&self.pool, &self.tracker, |k, r| {
            out.push((k.clone(), r.clone()))
        });
        out
    }

    /// Everything that must hold between operations.
    fn check(&self, what: &str) -> Result<(), String> {
        self.tree
            .check_invariants()
            .map_err(|e| format!("{what}: {e}"))?;
        let stats = self.tree.stats();
        let data: usize = self
            .model
            .iter()
            .map(|(k, r)| k.byte_width() + r.byte_width())
            .sum();
        if (stats.entries, stats.data_bytes) != (self.model.len(), data) {
            return Err(format!(
                "{what}: stats say {} entries of {} bytes, the model {} of {data}",
                stats.entries,
                stats.data_bytes,
                self.model.len()
            ));
        }
        if show(&self.contents()) != show(&self.model) {
            return Err(format!("{what}: contents differ from the model"));
        }
        // A leaf holds exactly the codec's bytes for its keys and payloads.
        let mut at = 0;
        let mut wrong = None;
        self.tree
            .for_each_encoded_entry(&self.pool, &self.tracker, |e| {
                let (k, r) = &self.model[at];
                let (mut kb, mut rb) = (Vec::new(), Vec::new());
                codec::put_values(&mut kb, k.values());
                codec::put_values(&mut rb, r.values());
                // The key is the payload's first bytes exactly when the
                // tree keeps it there.
                let in_payload = e.key.as_ptr() == e.payload.as_ptr();
                let want = matches!(self.form, EntryForm::KeyInPayload(_));
                if (e.key, e.payload) != (&kb[..], &rb[..]) || in_payload != want {
                    wrong.get_or_insert(at);
                }
                at += 1;
            });
        match wrong {
            Some(at) => Err(format!(
                "{what}: entry {at} is not its codec bytes in its form"
            )),
            None => Ok(()),
        }
    }

    /// Inserts into one spot of the tree, then a widening update there, the
    /// tree's invariants checked after each and everything after the last:
    /// the spot is a probe's key (cut or filled out to its tree's key
    /// length if the key is the payload's), and each insert is of
    /// that key (a run of duplicates) or of it with one more value (just
    /// after it; the last value drawn anew if the length is fixed). Into a
    /// full leaf each overflows it, so the leaf hands entries to a sibling,
    /// across duplicate runs and beside its parent's edges, or splits.
    fn burst(&mut self, rng: &mut StdRng, step: usize) -> Result<(), String> {
        let mut k = probe(rng, &self.model);
        let form = self.form;
        if let EntryForm::KeyInPayload(n) = form {
            let fill = std::iter::repeat_with(|| value(rng));
            k = Key::new(k.values().iter().cloned().chain(fill).take(n).collect());
        }
        for i in 0..rng.gen_range(2..8) {
            let key = match (rng.gen_bool(0.5), form) {
                (true, _) => k.clone(),
                (false, EntryForm::SeparateKey) => {
                    Key::new(k.values().iter().cloned().chain([value(rng)]).collect())
                }
                (false, EntryForm::KeyInPayload(n)) => {
                    let last = std::iter::once(value(rng));
                    Key::new(k.values()[..n - 1].iter().cloned().chain(last).collect())
                }
            };
            let row = payload_for(rng, &key, form);
            let at = self.model.partition_point(|e| e.0 <= key);
            self.model.insert(at, (key.clone(), row.clone()));
            self.tree.insert(key, row, &self.pool, &self.tracker);
            (self.tree.check_invariants())
                .map_err(|e| format!("step {step}: burst insert {i}: {e}"))?;
        }
        // Mode 1 of `mutate`: append a string of up to half a leaf.
        let half_leaf = self.tree.config().leaf_bytes as u32 / 2;
        let mode = 8 * rng.gen_range(0..half_leaf / 8) + 1;
        let start = self.model.partition_point(|e| e.0 < k);
        for (_, r) in self.model[start..].iter_mut().take_while(|e| e.0 == k) {
            mutate(r, &k, mode, form);
        }
        let update = |r: &mut Row| mutate(r, &k, mode, form);
        self.tree
            .update_where(&k, update, &self.pool, &self.tracker);
        self.check(&format!("step {step}: burst update"))
    }

    /// A tree that keeps its keys in the payload refuses an entry whose
    /// payload does not begin with its key (its values under other types,
    /// or another key's), changing nothing.
    fn refuse(&mut self, rng: &mut StdRng, step: usize) -> Result<(), String> {
        let (k, rest) = (key(rng, self.form), payload(rng));
        let row = match rng.gen_bool(0.5) {
            true => widened(&k, rest.values()),
            false => led_by(&key(rng, self.form), rest.values()),
        };
        if show(&row.values()[..k.len()]) == show(k.values()) {
            return Ok(());
        }
        let (tree, pool, tracker) = (&mut self.tree, &self.pool, &self.tracker);
        let insert = AssertUnwindSafe(|| tree.insert(k.clone(), row, pool, tracker));
        if catch_unwind(insert).is_ok() {
            return Err(format!(
                "step {step}: {k:?} taken behind a payload it does not lead"
            ));
        }
        self.check(&format!("step {step}: after a refused insert"))
    }

    /// A front drain of none of the entries, some, all or more than the
    /// tree holds hands over the model's first ones, in order, and leaves
    /// a tree whose freed leaves are out of reach.
    fn drain(&mut self, rng: &mut StdRng, step: usize) -> Result<(), String> {
        let len = self.model.len();
        let n = match rng.gen_range(0..4) {
            0 => 0,
            1 => rng.gen_range(0..=len),
            2 => len,
            _ => len + rng.gen_range(1..10usize),
        };
        let mut got = Vec::new();
        let drained = (self.tree).drain_front(n, &self.pool, &self.tracker, |e| {
            got.push((e.to_key(), e.to_row()))
        });
        let want: Entries = self.model.drain(..n.min(len)).collect();
        if drained != want.len() || show(&got) != show(&want) {
            return Err(format!(
                "step {step}: a drain of {n} gave {drained} entries, not the model's first {}",
                want.len()
            ));
        }
        self.check(&format!("step {step}: after a drain of {n}"))
    }

    fn step(&mut self, rng: &mut StdRng, step: usize) -> Result<(), String> {
        match rng.gen_range(0..96) {
            0..=3 => return self.burst(rng, step),
            4 if self.form != EntryForm::SeparateKey => return self.refuse(rng, step),
            5 | 6 => return self.drain(rng, step),
            _ => {}
        }
        let (pool, tracker, form) = (&self.pool, &self.tracker, self.form);
        match rng.gen_range(0..10) {
            0..=3 => {
                let (k, r) = entry(rng, form);
                let at = self.model.partition_point(|e| e.0 <= k);
                self.model.insert(at, (k.clone(), r.clone()));
                self.tree.insert(k, r, pool, tracker);
            }
            4 => {
                let k = probe(rng, &self.model);
                // Accept every candidate, none, or those of one arity.
                let arity = rng.gen_range(0..5);
                let accept = |r: &Row| arity == 0 || r.len() == arity;
                let hit = model_range(&self.model, Bound::Included(&k), Bound::Included(&k))
                    .iter()
                    .position(|(_, r)| accept(r));
                let start = self.model.partition_point(|e| e.0 < k);
                let want = hit.map(|i| self.model.remove(start + i).1);
                let got = self.tree.delete_first_where(&k, accept, pool, tracker);
                if show(&got) != show(&want) {
                    return Err(format!(
                        "step {step}: delete {k:?} gave {got:?}, not {want:?}"
                    ));
                }
            }
            5 => {
                let k = probe(rng, &self.model);
                let mode: u32 = rng.gen_range(0..60_000);
                let start = self.model.partition_point(|e| e.0 < k);
                let mut want = 0;
                for (_, r) in self.model[start..].iter_mut().take_while(|e| e.0 == k) {
                    want += usize::from(mutate(r, &k, mode, form));
                }
                let got =
                    (self.tree).update_where(&k, |r| mutate(r, &k, mode, form), pool, tracker);
                if got != want {
                    return Err(format!(
                        "step {step}: update {k:?} touched {got}, not {want}"
                    ));
                }
            }
            6 => {
                let k = probe(rng, &self.model);
                let want: Vec<&Row> =
                    model_range(&self.model, Bound::Included(&k), Bound::Included(&k))
                        .iter()
                        .map(|e| &e.1)
                        .collect();
                let got = self.tree.seek_exact(&k, pool, tracker);
                if show(&got) != show(&want) {
                    return Err(format!(
                        "step {step}: seek {k:?} gave {got:?}, not {want:?}"
                    ));
                }
            }
            _ => {
                let (a, b) = (probe(rng, &self.model), probe(rng, &self.model));
                let (lo, hi) = (bound(rng, &a), bound(rng, &b));
                let want = model_range(&self.model, lo, hi);
                let limit = rng.gen_range(1..40);
                let mut cur = self.tree.cursor_seek(lo, pool, tracker);
                let walk = |cur: &mut _, f: &mut dyn FnMut(EntryRef<'_>)| {
                    while !self
                        .tree
                        .cursor_walk(cur, hi, limit, pool, tracker, &mut *f)
                    {}
                };
                if rng.gen_bool(0.5) {
                    let mut got = Vec::new();
                    walk(&mut cur, &mut |e| got.push((e.to_key(), e.to_row())));
                    if show(&got) != show(&want) {
                        return Err(format!("step {step}: scan {lo:?}..{hi:?} differs"));
                    }
                } else {
                    let mut got = Vec::new();
                    walk(&mut cur, &mut |e| got.push(e.to_row()));
                    let want: Vec<&Row> = want.iter().map(|e| &e.1).collect();
                    if show(&got) != show(&want) {
                        return Err(format!("step {step}: row scan {lo:?}..{hi:?} differs: got {} want {}\n{got:?}\n{want:?}", got.len(), want.len()));
                    }
                }
                if !cur.is_exhausted() {
                    return Err(format!("step {step}: a finished scan's cursor is live"));
                }
            }
        }
        Ok(())
    }
}

/// One seeded run of `steps` operations on a tree whose leaves hold
/// `leaf_bytes` page bytes (a few entries of the mix: a typical one takes
/// 30–50 bytes, a long string a page of its own), started empty, from a bulk load of owned entries, or from an encoded run
/// (of the model's mixed keys, or of `typed_key`s in one of three arrival
/// orders). `Err` names the first disagreement with the model.
pub fn run(seed: u64, leaf_bytes: usize, steps: usize) -> Result<(), String> {
    quiet_refusals();
    let mut rng = StdRng::seed_from_u64(seed);
    let form = match rng.gen_range(0..2) {
        0 => EntryForm::SeparateKey,
        _ => EntryForm::KeyInPayload(rng.gen_range(1..4)),
    };
    let config = BTreeConfig {
        leaf_bytes,
        internal_fanout: 4,
        bulk_fill: [1.0, 0.7][rng.gen_range(0..2usize)],
        form,
    };
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let tracker = IoTracker::new();
    if form != EntryForm::SeparateKey {
        refuses_to_load(&mut rng, config)?;
    }
    let mut model: Entries = (0..rng.gen_range(0..leaf_bytes / 10))
        .map(|_| entry(&mut rng, form))
        .collect();
    let alloc = StorageAllocator::new();
    let tree = match rng.gen_range(0..4) {
        0 => {
            model.clear();
            Ok(BTree::new(config, alloc))
        }
        1 => {
            model.sort_by(|a, b| a.0.cmp(&b.0));
            BTree::bulk_load(config, alloc, model.clone(), &pool, &tracker)
        }
        start => {
            if start == 3 {
                let family = rng.gen_range(0..7);
                for (key, row) in &mut model {
                    *key = typed_key(&mut rng, family, form);
                    *row = payload_for(&mut rng, key, form);
                }
                // Arrival order: as drawn, in key order (nothing to sort;
                // payloads tell equal keys apart), or in reverse.
                match rng.gen_range(0..3) {
                    0 => {}
                    1 => model.sort_by(|a, b| a.0.cmp(&b.0)),
                    _ => model.sort_by(|a, b| b.0.cmp(&a.0)),
                }
            }
            let mut entries = EntryRun::new(config);
            for (key, row) in &model {
                entries.push_encoded(&encode(key.values()), &encode(row.values()));
            }
            model.sort_by(|a, b| a.0.cmp(&b.0));
            entries.bulk_load(alloc, &pool, &tracker)
        }
    }
    .map_err(|e| e.to_string())?;
    let mut run = Run {
        tree,
        form,
        model,
        pool,
        tracker,
    };
    run.check("after the build")?;
    // Bursts into the tree as built (full, at a `bulk_fill` of 1.0).
    for _ in 0..rng.gen_range(0..4) {
        run.burst(&mut rng, 0)?;
    }
    for step in 0..steps {
        run.step(&mut rng, step)?;
        if step % 16 == 15 {
            run.check(&format!("after step {step}"))?;
        }
    }
    run.check("at the end")
}

fn encode(values: &[Value]) -> Vec<u8> {
    let mut bytes = Vec::new();
    codec::put_values(&mut bytes, values);
    bytes
}

/// A load into a tree that keeps its keys in the payload refuses an entry
/// whose payload does not begin with its key (another key's), whether
/// handed over owned or encoded.
fn refuses_to_load(rng: &mut StdRng, config: BTreeConfig) -> Result<(), String> {
    let (k, other) = (key(rng, config.form), key(rng, config.form));
    if show(&k) == show(&other) {
        return Ok(());
    }
    let row = led_by(&other, payload(rng).values());
    let (pool, tracker) = (
        BufferPool::unbounded(DeviceProfile::ram()),
        IoTracker::new(),
    );
    let owned = || {
        let entries = vec![(k.clone(), row.clone())];
        BTree::bulk_load(config, StorageAllocator::new(), entries, &pool, &tracker)
    };
    let encoded = || EntryRun::new(config).push_encoded(&encode(k.values()), &encode(row.values()));
    let refused = |f: &dyn Fn()| catch_unwind(AssertUnwindSafe(f)).is_err();
    match refused(&|| drop(owned())) && refused(&encoded) {
        true => Ok(()),
        false => Err(format!("{k:?} loaded behind a payload led by {other:?}")),
    }
}

/// Leave out of the test output the panics of the refusals a run provokes
/// on purpose; every other panic reports as it would.
fn quiet_refusals() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let report = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info.payload().downcast_ref::<String>();
            if !message.is_some_and(|m| m.contains("key-in-payload tree")) {
                report(info)
            }
        }));
    });
}
