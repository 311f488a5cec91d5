//! One client, no timers, no worker threads: everything the engine counts
//! must repeat exactly between two runs of the same seed and round count.
//! A single test, because the registry it reads is process-wide.

use std::collections::BTreeMap;

use hpd_benchmark::client::Client;
use hpd_benchmark::workloads::{self, Design, Instance};

/// Counters a later performance claim may rest on.
const COUNTERS: [&str; 12] = [
    "wal.append.bytes",
    "wal.append.records",
    "wal.flush.count",
    "storage.bufferpool.hit",
    "storage.bufferpool.miss",
    "storage.bufferpool.evict",
    "columnstore.scan.rows_pruned_rowgroup",
    "columnstore.scan.rows_pruned_run",
    "columnstore.scan.rows_pruned_row",
    "columnstore.scan.rows_selected",
    "partition.pruned",
    "maintenance.rows_moved",
];

struct Replay {
    counts: BTreeMap<&'static str, u64>,
    first_round: Vec<String>,
    probe_answers: Vec<String>,
}

fn replay(workload: &str, seed: u64, rounds: usize) -> Replay {
    let w = workloads::by_name(workload).expect("known workload");
    let before = hpd_obs::global().snapshot();
    let mut inst = w.build(seed, Design::Hybrid).expect("build");
    let mut first_round = Vec::new();
    {
        let Instance { db, gen, .. } = &mut inst;
        let mut client = Client::new(db, w.maintenance_table());
        for r in 0..rounds {
            client.run_round(gen.as_mut(), None);
            if r == 0 {
                first_round = client.last_round().iter().map(|s| s.sql.clone()).collect();
            }
        }
        assert_eq!(
            client.tally.failed + client.tally.wrong,
            0,
            "{:?}",
            client.tally.first_problem
        );
    }
    let delta = hpd_obs::global().snapshot().delta(&before);
    Replay {
        counts: COUNTERS.iter().map(|&c| (c, delta.counter(c))).collect(),
        first_round,
        probe_answers: inst
            .gen
            .probes()
            .iter()
            .map(|p| format!("{} -> {:?}", p.sql, p.expected))
            .collect(),
    }
}

#[test]
fn single_client_runs_repeat_exactly() {
    for (workload, rounds, must_move) in [
        (
            "htap",
            12,
            &["wal.append.bytes", "maintenance.rows_moved"][..],
        ),
        (
            "scan_cold",
            6,
            &[
                "storage.bufferpool.miss",
                "storage.bufferpool.evict",
                "columnstore.scan.rows_pruned_rowgroup",
                "partition.pruned",
            ][..],
        ),
    ] {
        let a = replay(workload, 5, rounds);
        let b = replay(workload, 5, rounds);
        assert_eq!(
            a.first_round, b.first_round,
            "{workload}: statement texts differ"
        );
        assert_eq!(
            a.probe_answers, b.probe_answers,
            "{workload}: shadow state differs"
        );
        assert_eq!(a.counts, b.counts, "{workload}: engine counts differ");
        for name in must_move {
            assert!(a.counts[name] > 0, "{workload}: {name} never moved");
        }
        let other = replay(workload, 6, 1);
        assert_ne!(
            a.first_round, other.first_round,
            "{workload}: the seed changes nothing"
        );
    }
}
