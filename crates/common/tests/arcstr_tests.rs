//! `ArcStr` held to what it replaced. Its unsafe code is sound only if every
//! handle frees the allocation exactly once, whatever thread drops it last;
//! and it is a drop-in replacement only if it orders, compares, hashes and
//! prints exactly as `Arc<str>` did, since plan goldens print strings through
//! `Debug` and spill partitions hash them. The layout asserts
//! (`size_of::<Value>() == 16`, `Value: Send + Sync`, …) are compiled into
//! the library itself, beside `Row`.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Barrier};

use hpd_common::{ArcStr, Value};
use hpd_obs::alloc::{self, CountingAlloc};
use proptest::prelude::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live() -> i64 {
    alloc::stats().live_bytes
}

fn hash_of(x: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

#[test]
fn four_threads_of_clones_and_drops_free_every_string_exactly_once() {
    const THREADS: usize = 4;
    const ROUNDS: u64 = 100_000;
    let before = live();
    let shared: Vec<ArcStr> = (0..64)
        .map(|i| ArcStr::from(format!("{i:>8}:{}", "é".repeat(i))))
        .collect();
    let strings = live() - before - std::mem::size_of_val(&shared[..]) as i64;
    assert!(strings > 64 * 16, "{strings} bytes for 64 strings");
    // Every thread holds every string; once they start, nobody else does,
    // so the last handle of each string is dropped by one of them.
    let handed: Vec<Vec<ArcStr>> = (0..THREADS).map(|_| shared.clone()).collect();
    drop(shared);
    let start = Barrier::new(THREADS);
    let per_thread: Vec<(i64, u64)> = std::thread::scope(|s| {
        let threads: Vec<_> = (handed.into_iter().enumerate())
            .map(|(t, mine)| {
                let start = &start;
                s.spawn(move || {
                    let at = alloc::stats();
                    let buffer = std::mem::size_of_val(&mine[..]) as i64;
                    let mut held: Vec<ArcStr> = Vec::with_capacity(16);
                    start.wait();
                    let mut x = t as u64 + 1;
                    for _ in 0..ROUNDS {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        if held.len() == 16 {
                            held.swap_remove(x as usize % 16);
                        }
                        held.push(mine[(x >> 8) as usize % mine.len()].clone());
                    }
                    drop(held);
                    drop(mine);
                    let end = alloc::stats();
                    // What this thread freed of the strings, and what it
                    // allocated: `held` alone, as a clone allocates nothing.
                    (
                        end.live_bytes - at.live_bytes + buffer,
                        end.allocations - at.allocations,
                    )
                })
            })
            .collect();
        let joined = threads.into_iter().map(|t| t.join().expect("no panic"));
        joined.collect()
    });
    let freed: i64 = per_thread.iter().map(|&(live, _)| live).sum();
    assert_eq!(freed, -strings, "{per_thread:?}");
    assert!(per_thread.iter().all(|&(_, n)| n == 1), "{per_thread:?}");
}

#[test]
fn empty_one_mebibyte_and_non_ascii_strings() {
    let big: String = "a\u{e9}\u{1d11e}\0".repeat(1 << 18);
    assert_eq!(big.len(), 2 << 20);
    for s in [
        "",
        "\0",
        "héllo wörld",
        "日本語",
        "\u{10FFFF}",
        &big[..1 << 20],
        &big,
    ] {
        let before = live();
        let (a, made) = alloc::measure(|| ArcStr::new(s));
        assert_eq!(made.allocations(), 1);
        assert!(made.left_live() >= s.len() as i64);
        assert_eq!(a.as_str(), s);
        assert_eq!(a.len(), s.len());
        assert_eq!(format!("{a:?}"), format!("{s:?}"));
        assert_eq!(format!("{a}"), s);
        let (b, cloned) = alloc::measure(|| a.clone());
        assert_eq!(cloned.allocations(), 0);
        assert_eq!((a.as_ptr(), &a), (b.as_ptr(), &b));
        drop((a, b));
        assert_eq!(live(), before, "{} bytes", s.len());
    }
}

/// Prefixes of exactly eight bytes, some equal but for their last byte or
/// character, so random strings tie on the first word and differ after it.
const PREFIXES: [&str; 5] = [
    "abcdefgh",
    "abcdefgi",
    "abcdef\u{e9}",
    "\0\0\0\0\0\0\0\0",
    "zzzzzzz\u{7f}",
];
const ALPHABET: [&str; 7] = ["", "a", "b", "\0", "\u{e9}", "\u{10FFFF}", "\""];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn orders_compares_hashes_and_prints_as_arc_str(
        parts in prop::collection::vec(
            (0usize..PREFIXES.len(), prop::collection::vec(0usize..ALPHABET.len(), 0..6)),
            1..8,
        )
    ) {
        let texts: Vec<String> = parts
            .iter()
            .map(|(p, tail)| {
                let mut s = PREFIXES[*p].to_string();
                s.extend(tail.iter().map(|&c| ALPHABET[c]));
                s
            })
            .collect();
        let ours: Vec<ArcStr> = texts.iter().map(|s| ArcStr::new(s)).collect();
        let theirs: Vec<Arc<str>> = texts.iter().map(|s| Arc::from(s.as_str())).collect();
        for (a, x) in ours.iter().zip(&theirs) {
            prop_assert_eq!(hash_of(a), hash_of(x));
            prop_assert_eq!(format!("{a:?}"), format!("{x:?}"));
            prop_assert_eq!(format!("{a}"), format!("{x}"));
            // `Value`'s hash of a string is its tag, then the string's: what
            // a spilled row's partition is computed from.
            let mut parent = DefaultHasher::new();
            4u8.hash(&mut parent);
            x.hash(&mut parent);
            prop_assert_eq!(hash_of(&Value::Str(a.clone())), parent.finish());
            for (b, y) in ours.iter().zip(&theirs) {
                prop_assert_eq!(a.cmp(b), x.cmp(y));
                prop_assert_eq!(a == b, x == y);
                prop_assert_eq!(a.partial_cmp(b), x.partial_cmp(y));
            }
        }
    }
}
