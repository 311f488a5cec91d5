//! The B+ tree against its reference model (`hpd_bench::btree_model`):
//! random operation mixes at random seeds, and fixed sweeps over leaf sizes
//! from two entries of the mix a page up; and a soak of small-leaf inserts
//! and deletes against a `Vec<i32>`.

use hpd_bench::btree_model;
use hpd_btree::{BTree, BTreeConfig, EntryForm};
use hpd_common::{Key, Row, Value};
use hpd_storage::{BufferPool, DeviceProfile, IoTracker, StorageAllocator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn every_leaf_size_from_two_entries_up_agrees_with_the_model() {
    for leaf_bytes in (64..=1_600).step_by(48) {
        for seed in 0..4 {
            btree_model::run(seed * 10_000 + leaf_bytes as u64, leaf_bytes, 250)
                .unwrap_or_else(|e| panic!("{leaf_bytes} leaf bytes, seed {seed}: {e}"));
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "53 leaf sizes x 10 seeds x 400 ops: release only (CI runs it by name)"
)]
fn every_leaf_size_up_to_2560_bytes_agrees_with_the_model_at_ten_seeds() {
    for leaf_bytes in (64..=2_560).step_by(48) {
        for seed in 0..10 {
            btree_model::run(seed, leaf_bytes, 400)
                .unwrap_or_else(|e| panic!("{leaf_bytes} leaf bytes, seed {seed}: {e}"));
        }
    }
}

/// Seeded runs of 200 single-key inserts and deletes into leaves of eight
/// entries (the key's length, its 2-byte value apart from the payload's,
/// and a slot), the tree's invariants checked after each. This soak found the
/// duplicate-separator split-placement bug fixed in `insert_into_internal`.
#[test]
fn small_leaf_inserts_and_deletes_agree_with_a_vec() {
    let seeds = if cfg!(debug_assertions) { 500 } else { 5_000 };
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let t = IoTracker::new();
    let cfg = BTreeConfig {
        leaf_bytes: 60,
        internal_fanout: 4,
        bulk_fill: 1.0,
        form: EntryForm::SeparateKey,
    };
    for seed in 0..seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = BTree::new(cfg, StorageAllocator::new());
        let mut model: Vec<i32> = Vec::new();
        for step in 0..200 {
            let k = rng.gen_range(0..50);
            let key = Key::single(Value::Int32(k));
            if rng.gen_bool(0.5) {
                tree.insert(key, Row::new(vec![Value::Int32(k)]), &pool, &t);
                model.push(k);
            } else {
                let removed = tree.delete_first_where(&key, |_| true, &pool, &t);
                match model.iter().position(|&x| x == k) {
                    Some(pos) => {
                        assert!(removed.is_some(), "seed {seed} step {step}: missing delete");
                        model.remove(pos);
                    }
                    None => assert!(removed.is_none(), "seed {seed} step {step}: phantom delete"),
                }
            }
            if let Err(e) = tree.check_invariants() {
                panic!("seed {seed} step {step}: {e}");
            }
        }
        assert_eq!(tree.len(), model.len(), "seed {seed}: cardinality drift");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prop_random_runs_agree_with_the_model(seed in 0u64..u64::MAX, leaf_bytes in 64usize..960) {
        let outcome = btree_model::run(seed, leaf_bytes, 400);
        prop_assert!(outcome.is_ok(), "seed {} leaf bytes {}: {:?}", seed, leaf_bytes, outcome);
    }
}
