//! SQL text cannot panic the front end. Seeded mutations of the parser's
//! golden corpus — a quote, `--`, `/*`, `?`, a 23-digit number, a
//! non-ASCII character or a NUL inserted, a character deleted, the text cut
//! short — and random UTF-8 go through `parse`, `parse_with_param_count`,
//! `normalize` and `split_statements`. Each call returns `Ok` or a typed
//! `SqlError` whose offset lies within the text; none may panic.

use std::panic::catch_unwind;
use std::path::PathBuf;

use hpd_sql::{normalize, parse, parse_with_param_count, split_statements};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Cases a test runs: CI runs this file in release as well.
fn cases() -> usize {
    if cfg!(debug_assertions) {
        10_000
    } else {
        300_000
    }
}

/// What a mutation inserts, and what random text is drawn from besides
/// single characters.
const PIECES: &[&str] = &[
    "'",
    "''",
    "--",
    "/*",
    "*/",
    "?",
    "12345678901234567890123",
    "-12345678901234567890123.5",
    "é",
    "€",
    "𝄞",
    "\0",
    ";",
    "(",
    ")",
    ",",
    ".",
    "1e",
    " SELECT ",
    " FROM t ",
    " WHERE ",
    " AND ",
    " NOT ",
    " BETWEEN ",
    " GROUP BY ",
    " ORDER BY ",
    " LIMIT ",
    " VALUES ",
    " PARTITION BY RANGE ",
    " INCLUDE ",
];

/// The SQL of every golden snapshot: its text before the `=>` line.
fn corpus() -> Vec<String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut corpus: Vec<String> = std::fs::read_dir(dir)
        .expect("golden dir")
        .map(|entry| {
            let text = std::fs::read_to_string(entry.expect("entry").path()).expect("read");
            let (sql, _) = text.split_once("\n=>\n").expect("SQL, then `=>`");
            sql.to_string()
        })
        .collect();
    // The directory's order is the file system's; the cases must not be.
    corpus.sort();
    assert!(corpus.len() >= 20, "the corpus is the golden files");
    corpus
}

/// A character boundary of `s`, its end included.
fn boundary(s: &str, rng: &mut StdRng) -> usize {
    let mut at = rng.gen_range(0..=s.len());
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// One to three insertions, deletions or cuts.
fn mutate(sql: &str, rng: &mut StdRng) -> String {
    let mut s = sql.to_string();
    for _ in 0..rng.gen_range(1..=3) {
        let at = boundary(&s, rng);
        match rng.gen_range(0..4) {
            0 | 1 => s.insert_str(at, PIECES.choose(rng).expect("pieces")),
            2 if at < s.len() => drop(s.remove(at)),
            _ => s.truncate(at),
        }
    }
    s
}

/// Up to 40 pieces: an ASCII character, any code point (a surrogate drawn
/// becomes U+FFFD), or a piece of SQL.
fn random_text(rng: &mut StdRng) -> String {
    let mut s = String::new();
    for _ in 0..rng.gen_range(0..40) {
        match rng.gen_range(0..3) {
            0 => s.push(char::from(rng.gen_range(0..128u8))),
            1 => s.push(char::from_u32(rng.gen_range(0..0x11_0000)).unwrap_or('\u{fffd}')),
            _ => s.push_str(PIECES.choose(rng).expect("pieces")),
        }
    }
    s
}

/// Runs the four entry points on `sql`: each returns, and an error points
/// into the text.
fn front_end_takes(sql: &str) {
    let errors = catch_unwind(|| {
        [
            parse(sql).err(),
            parse_with_param_count(sql).err(),
            normalize(sql).err(),
            split_statements(sql).err(),
        ]
    })
    .unwrap_or_else(|_| panic!("the front end panicked on {sql:?}"));
    for e in errors.into_iter().flatten() {
        assert!(e.offset <= sql.len(), "{e} past the end of {sql:?}");
    }
}

#[test]
fn mutated_corpus_statements_never_panic() {
    let (corpus, mut rng) = (corpus(), StdRng::seed_from_u64(46));
    for _ in 0..cases() {
        let sql = corpus.choose(&mut rng).expect("corpus");
        front_end_takes(&mutate(sql, &mut rng));
    }
}

#[test]
fn random_text_never_panics() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..cases() {
        front_end_takes(&random_text(&mut rng));
    }
}
