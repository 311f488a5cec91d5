//! A reference model for the B+ tree: one seeded run drives a random mix of
//! every operation the tree offers against a plain sorted
//! `Vec<(Key, Row)>` and compares every answer, so the packed leaf and the
//! shared value codec are checked against owned values doing the obvious
//! thing. The property test (`tests/btree_model.rs`) and
//! `btree_soak --model` both run it.
//!
//! What a run covers: duplicate and composite keys, probes that are a strict
//! prefix of stored keys, `Included` / `Excluded` / `Unbounded` bounds,
//! `Value::sentinel_max`, `Int64` and `Float64` probes against `Int32` keys,
//! `-0.0` and NaN floats, empty payloads, empty and multi-kilobyte strings,
//! updates that widen and narrow a payload (past a whole page too), bulk
//! loads from owned entries and from an unsorted encoded run, and leaves
//! that fill and split by their bytes at the given page size.
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

use std::ops::Bound;

use hpd_btree::{BTree, BTreeConfig, EntryRun};
use hpd_common::{codec, Key, Row, Value};
use hpd_storage::{BufferPool, DeviceProfile, IoTracker, StorageAllocator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Entries = Vec<(Key, Row)>;

/// Exact rendering: `Value`'s `==` is its order's (`Int32(5) == Int64(5)`),
/// which would let a decoder that changes a value's type pass.
fn show<T: std::fmt::Debug>(v: &T) -> String {
    format!("{v:?}")
}

fn value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..20) {
        0..=9 => Value::Int32(rng.gen_range(-3..8)),
        10 => Value::Int64(rng.gen_range(-3..8)),
        11 => Value::Date(rng.gen_range(0..4)),
        12 => Value::Decimal(rng.gen_range(-2..3i64) * 5_000),
        13 | 14 => {
            let floats = [-0.0, 0.0, f64::NAN, 1.5, f64::NEG_INFINITY, 4.0];
            Value::Float64(floats[rng.gen_range(0..floats.len())])
        }
        15 => Value::str(""),
        16 | 17 => Value::str(["a", "ab", "b", "héllo"][rng.gen_range(0..4usize)]),
        18 => Value::str("k".repeat(rng.gen_range(2_000..5_000))),
        _ => Value::sentinel_max(),
    }
}

fn key(rng: &mut StdRng) -> Key {
    Key::new((0..rng.gen_range(1..4)).map(|_| value(rng)).collect())
}

/// Keys for an encoded run whose first values are of one type (`family`
/// picks it; family 1 mixes two), from a small domain so that whole keys and
/// first values repeat.
fn typed_key(rng: &mut StdRng, family: u32) -> Key {
    let ints = [i64::MIN, -(1 << 40), -2, -1, 0, 1, 2, 1 << 40, i64::MAX];
    let small = [i32::MIN, -2, -1, 0, 1, 2, i32::MAX];
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
        4 => Value::Decimal(ints[rng.gen_range(0..ints.len())]),
        5 => Value::Date(small[rng.gen_range(0..small.len())]),
        _ => Value::str(strings[rng.gen_range(0..strings.len())]),
    };
    // One value (an exact image for a scalar) or a tail to tie-break on.
    let tail = (0..rng.gen_range(0..3)).map(|_| value(rng));
    Key::new(std::iter::once(first).chain(tail).collect())
}

fn payload(rng: &mut StdRng) -> Row {
    Row::new((0..rng.gen_range(0..5)).map(|_| value(rng)).collect())
}

/// A probe: a fresh key, or one derived from a stored key so that it lands
/// on, just before or just after existing entries.
fn probe(rng: &mut StdRng, model: &Entries) -> Key {
    if model.is_empty() || rng.gen_bool(0.2) {
        return key(rng);
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

/// The update the model and the tree both apply; `mode` picks what changes
/// and whether the row reports itself modified.
fn mutate(row: &mut Row, mode: u32) -> bool {
    let mut vs = row.values().to_vec();
    match mode % 6 {
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
        _ => vs.clear(),
    }
    // Same arity (mode 4) refills in place, any other reallocates.
    row.refill(vs);
    true
}

struct Run {
    tree: BTree,
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
                if (e.key, e.payload) != (&kb[..], &rb[..]) {
                    wrong.get_or_insert(at);
                }
                at += 1;
            });
        match wrong {
            Some(at) => Err(format!("{what}: entry {at} is not its codec bytes")),
            None => Ok(()),
        }
    }

    fn step(&mut self, rng: &mut StdRng, step: usize) -> Result<(), String> {
        let (pool, tracker) = (&self.pool, &self.tracker);
        match rng.gen_range(0..10) {
            0..=3 => {
                let (k, r) = (key(rng), payload(rng));
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
                    want += usize::from(mutate(r, mode));
                }
                let got = self
                    .tree
                    .update_where(&k, |r| mutate(r, mode), pool, tracker);
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
                if rng.gen_bool(0.5) {
                    let mut got = Vec::new();
                    while !self
                        .tree
                        .cursor_fill(&mut cur, hi, limit, &mut got, pool, tracker)
                    {
                    }
                    if show(&got) != show(&want) {
                        return Err(format!("step {step}: scan {lo:?}..{hi:?} differs"));
                    }
                } else {
                    let mut got = Vec::new();
                    while !self
                        .tree
                        .cursor_fill_rows(&mut cur, hi, limit, &mut got, pool, tracker)
                    {
                    }
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
    let mut rng = StdRng::seed_from_u64(seed);
    let config = BTreeConfig {
        leaf_bytes,
        internal_fanout: 4,
        bulk_fill: [1.0, 0.7][rng.gen_range(0..2usize)],
    };
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let tracker = IoTracker::new();
    let mut model: Entries = (0..rng.gen_range(0..leaf_bytes / 10))
        .map(|_| (key(&mut rng), payload(&mut rng)))
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
                for (key, _) in &mut model {
                    *key = typed_key(&mut rng, family);
                }
                // Arrival order: as drawn, in key order (nothing to sort;
                // payloads tell equal keys apart), or in reverse.
                match rng.gen_range(0..3) {
                    0 => {}
                    1 => model.sort_by(|a, b| a.0.cmp(&b.0)),
                    _ => model.sort_by(|a, b| b.0.cmp(&a.0)),
                }
            }
            let mut entries = EntryRun::default();
            let (mut k, mut r) = (Vec::new(), Vec::new());
            for (key, row) in &model {
                k.clear();
                r.clear();
                codec::put_values(&mut k, key.values());
                codec::put_values(&mut r, row.values());
                entries.push_encoded(&k, &r);
            }
            model.sort_by(|a, b| a.0.cmp(&b.0));
            entries.bulk_load(config, alloc, &pool, &tracker)
        }
    }
    .map_err(|e| e.to_string())?;
    let mut run = Run {
        tree,
        model,
        pool,
        tracker,
    };
    run.check("after the build")?;
    for step in 0..steps {
        run.step(&mut rng, step)?;
        if step % 16 == 15 {
            run.check(&format!("after step {step}"))?;
        }
    }
    run.check("at the end")
}
