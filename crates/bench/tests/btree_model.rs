//! The B+ tree against its reference model (`hpd_bench::btree_model`):
//! random operation mixes at random seeds, and a fixed sweep over every leaf
//! capacity from the smallest the engine configures (8) up.

use hpd_bench::btree_model;
use proptest::prelude::*;

#[test]
fn every_leaf_capacity_from_eight_up_agrees_with_the_model() {
    for capacity in 8..=40 {
        for seed in 0..4 {
            btree_model::run(seed * 1_000 + capacity as u64, capacity, 250)
                .unwrap_or_else(|e| panic!("capacity {capacity} seed {seed}: {e}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prop_random_runs_agree_with_the_model(seed in 0u64..u64::MAX, capacity in 8usize..24) {
        let outcome = btree_model::run(seed, capacity, 400);
        prop_assert!(outcome.is_ok(), "seed {} capacity {}: {:?}", seed, capacity, outcome);
    }
}
