//! A row group takes the row order its bytes favour: of the greedy order of
//! the paper's Figure 8, arrival order and the index's key order, the one
//! whose columns encode to the fewest bytes, the greedy one on a tie. Each
//! order is sized here by building its columns' segments one by one
//! ([`Segment::build`] keeps the order it is given), so the build's
//! prediction is checked against what encoding the permuted columns makes.

use std::collections::BTreeSet;

use hpd_columnstore::{RowGroup, Segment};
use hpd_common::{ArcStr, ColumnVector, Value};
use hpd_storage::StorageAllocator;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn show(v: &Value) -> String {
    match v {
        Value::Float64(f) => format!("f64:{:016x}", f.to_bits()),
        other => format!("{other:?}"),
    }
}

/// One column of `rows` values of kind `kind`: random, sorted,
/// reverse-sorted, low-cardinality, string, decimal or float.
fn column(rng: &mut StdRng, rows: usize, kind: u32) -> ColumnVector {
    match kind {
        0 => ColumnVector::Int32(
            (0..rows)
                .map(|_| rng.gen_range(-1 << 30..1 << 30))
                .collect(),
        ),
        1 => {
            let mut v = rng.gen_range(-1_000_000i64..1_000_000);
            ColumnVector::Int64(
                (0..rows)
                    .map(|_| {
                        v += rng.gen_range(0..20i64);
                        v
                    })
                    .collect(),
            )
        }
        2 => {
            let mut v = rng.gen_range(0..1_000_000);
            ColumnVector::Int32(
                (0..rows)
                    .map(|_| {
                        v -= rng.gen_range(0..300);
                        v
                    })
                    .collect(),
            )
        }
        3 => {
            let few = rng.gen_range(1..12);
            ColumnVector::Date((0..rows).map(|_| rng.gen_range(0..few)).collect())
        }
        4 => {
            let few = rng.gen_range(1..40);
            ColumnVector::Str(
                (0..rows)
                    .map(|_| ArcStr::from(format!("name-{:04}", rng.gen_range(0..few))))
                    .collect(),
            )
        }
        5 => ColumnVector::Decimal(
            (0..rows)
                .map(|_| rng.gen_range(-50_000i64..50_000) * 100)
                .collect(),
        ),
        _ => {
            let pool = [-2.5, 1.0, 3.25, 1e9, -1e-3, 7.0];
            ColumnVector::Float64(
                (0..rows)
                    .map(|_| pool[rng.gen_range(0..pool.len())])
                    .collect(),
            )
        }
    }
}

/// Stable permutation sorting the rows by the columns `order`.
fn sorted_by(columns: &[ColumnVector], order: &[usize]) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..columns[0].len()).collect();
    perm.sort_by(|&a, &b| {
        (order.iter())
            .map(|&c| columns[c].value(a).cmp(&columns[c].value(b)))
            .find(|cmp| cmp.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    perm
}

/// The columns' bytes in the order `perm` gives.
fn bytes_in(columns: &[ColumnVector], perm: &[usize]) -> usize {
    let alloc = StorageAllocator::new();
    (columns.iter())
        .map(|c| Segment::build(&c.take(perm), &alloc).encoded_bytes())
        .sum()
}

/// Every row's values, shown, sorted: the multiset a row group holds.
fn rows(columns: &[ColumnVector]) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = (0..columns[0].len())
        .map(|i| columns.iter().map(|c| show(&c.value(i))).collect())
        .collect();
    rows.sort();
    rows
}

/// A row group of a key column (unique, in sorted, reverse or shuffled
/// arrival) and one to four columns of random kinds, checked against its
/// three orders sized by their segments.
fn stores_the_smallest_order(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = match rng.gen_range(0..3) {
        0 => rng.gen_range(1..70),
        _ => rng.gen_range(70..3_000),
    };
    let mut ids: Vec<i64> = (0..n as i64).map(|i| i * 7 + 3).collect();
    match rng.gen_range(0..3) {
        0 => {}
        1 => ids.reverse(),
        _ => ids.shuffle(&mut rng),
    }
    let mut columns = vec![ColumnVector::Int64(ids)];
    for _ in 0..rng.gen_range(1..=4) {
        let kind = rng.gen_range(0..7);
        columns.push(column(&mut rng, n, kind));
    }
    let key = [0];

    let distinct = |c: &ColumnVector| {
        (0..n)
            .map(|i| show(&c.value(i)))
            .collect::<BTreeSet<_>>()
            .len()
    };
    let mut greedy_columns: Vec<usize> = (0..columns.len()).collect();
    greedy_columns.sort_by_key(|&c| (distinct(&columns[c]), c));
    let greedy = bytes_in(&columns, &sorted_by(&columns, &greedy_columns));
    let arrival = bytes_in(&columns, &(0..n).collect::<Vec<_>>());
    let by_key = bytes_in(&columns, &sorted_by(&columns, &key));
    let predicted = greedy.min(arrival).min(by_key);

    let alloc = StorageAllocator::new();
    let built = RowGroup::build(columns.clone(), &key, &alloc);
    let what = format!("seed {seed}: greedy {greedy}, arrival {arrival}, key {by_key}");
    assert_eq!(built.encoded_bytes(), predicted, "{what}");
    assert!(built.encoded_bytes() <= greedy, "{what}");
    let stored: Vec<ColumnVector> = (0..columns.len())
        .map(|c| built.segment(c).decode())
        .collect();
    assert_eq!(rows(&stored), rows(&columns), "{what}: the same rows");
    for (c, column) in columns.iter().enumerate() {
        let whole = Segment::build(column, &alloc);
        let segment = built.segment(c);
        assert_eq!(show(segment.min()), show(whole.min()), "{what}: column {c}");
        assert_eq!(show(segment.max()), show(whole.max()), "{what}: column {c}");
    }
    // The choice is deterministic: two builds are the same segments.
    let once = || {
        format!(
            "{:?}",
            RowGroup::build(columns.clone(), &key, &StorageAllocator::new())
        )
    };
    assert_eq!(once(), once(), "{what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 48 } else { 400 }))]

    #[test]
    fn a_row_group_stores_the_smallest_of_its_three_orders(seed in 0u64..u64::MAX) {
        stores_the_smallest_order(seed);
    }
}

/// The cases above reach each order: arrival (a key in sorted arrival),
/// the key order (a shuffled key beside a sorted column) and the greedy
/// order (low-cardinality columns).
#[test]
fn the_cases_reach_every_order() {
    for seed in 0..48 {
        stores_the_smallest_order(seed);
    }
    let snap = hpd_obs::global().snapshot();
    for order in ["greedy", "arrival", "key"] {
        let name = format!("columnstore.build.order_{order}");
        assert!(snap.counter(&name) > 0, "{name}");
    }
}
