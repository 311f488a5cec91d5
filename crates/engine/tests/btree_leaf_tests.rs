//! Leaf counts of the B+ trees the benchmark's tables build. A tree whose
//! payloads begin with its key columns stores each entry as the bare
//! payload, its key the payload's first values, so every one of these
//! entries is one byte shorter than with a header, and the leaves fewer:
//! `micro`'s 400 000-row primary 692 leaves (741 with a header), `lineitem`'s
//! 200 000-row primary 624 (649) and its ship-date secondary 255 (280).

use hpd_common::{DataType, Row, Schema, Value};
use hpd_engine::{Database, DbConfig, IndexDescriptor};
use hpd_workloads::tpch::{self, MixedDesign};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Leaf pages of every index of `table`'s one part that is a B+ tree.
fn leaves(db: &Database, table: &str) -> Vec<usize> {
    let part = db.context_for(table).unwrap().parts.remove(0);
    let btrees = part.metas.iter().filter(|m| !m.descriptor.is_csi());
    btrees.map(|m| m.leaf_pages).collect()
}

/// The `scan_hot` benchmark's `micro` rows at `seed`: `col1` unique and
/// uniform over `[0, 2^31)`, one value a stratum; `col2` of 100 values;
/// `col3` uniform; in random load order.
fn micro_rows(rows: usize, seed: u64) -> Vec<Row> {
    const DOMAIN: i64 = 1 << 31;
    let mut rng = StdRng::seed_from_u64(seed);
    let stratum = |i: i64| i * DOMAIN / rows as i64;
    let mut out: Vec<Row> = (0..rows as i64)
        .map(|i| {
            Row::new(vec![
                Value::Int32(rng.gen_range(stratum(i)..stratum(i + 1)) as i32),
                Value::Int32(rng.gen_range(0..100)),
                Value::Int32(rng.gen_range(0..DOMAIN) as i32),
            ])
        })
        .collect();
    out.shuffle(&mut rng);
    out
}

#[test]
fn trees_keyed_on_their_leading_columns_store_their_entries_headerless() {
    let db = Database::new(DbConfig::default());
    let schema = Schema::from_pairs(&[
        ("col1", DataType::Int32),
        ("col2", DataType::Int32),
        ("col3", DataType::Int32),
    ]);
    let primary = IndexDescriptor::PrimaryBTree { keys: vec![0] };
    db.create_table("micro", schema, vec![0], primary).unwrap();
    db.load_table("micro", micro_rows(400_000, 1)).unwrap();
    tpch::load_lineitem(&db, 200_000, 1, MixedDesign::BTreeOnly).unwrap();
    let (micro, lineitem) = (leaves(&db, "micro"), leaves(&db, "lineitem"));
    assert!(micro[0] <= 692, "micro primary: {} leaves", micro[0]);
    assert!(
        lineitem[0] <= 624,
        "lineitem primary: {} leaves",
        lineitem[0]
    );
    assert!(
        lineitem[1] <= 255,
        "l_shipdate secondary: {} leaves",
        lineitem[1]
    );
}
