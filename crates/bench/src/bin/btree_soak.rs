//! Randomized soak test for the B+ tree: thousands of seeded insert/delete
//! sequences cross-checked against a sorted-vector model, with structural
//! invariants verified after every operation. (This harness found the
//! duplicate-separator split-placement bug fixed in `insert_into_internal`.)
//!
//! `btree_soak [seeds]` runs that; `btree_soak --model [seeds]` runs the
//! full reference model (`hpd_bench::btree_model`: every operation, mixed
//! key and payload types, bulk loads) at leaf sizes from 64 to 2 560 page
//! bytes.
use hpd_btree::{BTree, BTreeConfig};
use hpd_common::{Key, Row, Value};
use hpd_storage::{BufferPool, DeviceProfile, IoTracker, StorageAllocator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn model_soak(seeds: u64) {
    for leaf_bytes in (64..=2_560).step_by(48) {
        for seed in 0..seeds {
            if let Err(e) = hpd_bench::btree_model::run(seed, leaf_bytes, 400) {
                panic!("{leaf_bytes} leaf bytes, seed {seed}: {e}");
            }
        }
    }
    println!("btree model soak: leaves of 64..=2560 bytes x {seeds} seeds x 400 ops OK");
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let model = args.first().is_some_and(|a| a == "--model");
    if model {
        args.remove(0);
    }
    let seeds = args.first().and_then(|s| s.parse().ok());
    if model {
        return model_soak(seeds.unwrap_or(50));
    }
    let seeds: u64 = seeds.unwrap_or(5000);
    let pool = BufferPool::unbounded(DeviceProfile::ram());
    let t = IoTracker::new();
    // Eight entries a leaf: a header byte, the payload's 2-byte value (the
    // key's too) and a slot.
    let cfg = BTreeConfig {
        leaf_bytes: 60,
        internal_fanout: 4,
        bulk_fill: 1.0,
    };
    for seed in 0..seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = BTree::new(cfg, StorageAllocator::new());
        let mut model: Vec<i32> = Vec::new();
        for step in 0..200 {
            let k = rng.gen_range(0..50);
            if rng.gen_bool(0.5) {
                tree.insert(
                    Key::single(Value::Int32(k)),
                    Row::new(vec![Value::Int32(k)]),
                    &pool,
                    &t,
                );
                model.push(k);
            } else {
                let key = Key::single(Value::Int32(k));
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
    println!("btree soak: {seeds} seeds x 200 ops OK");
}
