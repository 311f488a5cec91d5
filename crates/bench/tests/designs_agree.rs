//! The designs are each other's oracle on Figure 9's bundles: the TPC-DS
//! 13-query set and every customer profile at quick scale, each run on the
//! B+ tree-only, columnstore-only and hybrid designs Figure 9 compares, must
//! give the same rows. Rows are compared as sorted multisets of exact values
//! (decimals are scaled integers), so a plan that returns them in another
//! order agrees.

use hpd_bench::figs::fig9_speedup::{bundles, tuned_configurations};
use hpd_bench::Scale;
use hpd_common::Row;
use hpd_engine::{Database, DbConfig, Statement};
use hpd_workloads::tpcds;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "three advisor runs per bundle: release only (CI runs it by name)"
)]
fn every_fig9_query_answers_alike_on_every_design() {
    let mut bundles = bundles(Scale::quick());
    assert_eq!(bundles[0].name, "TPC-DS");
    bundles[0].queries = tpcds::queries(13, 99);
    for bundle in bundles {
        let db = Database::new(DbConfig::default());
        (bundle.load)(&db);
        let (hybrid, btree, csi) = tuned_configurations(&db, &bundle.queries);
        let mut answers: Vec<(&str, Vec<Vec<Row>>)> = Vec::new();
        for (design, config) in [
            ("B+ tree-only", btree),
            ("CSI-only", csi),
            ("hybrid", hybrid),
        ] {
            db.apply_configuration(&config).unwrap();
            let rows = (bundle.queries.iter())
                .map(|(label, q)| {
                    let run = db.query(&Statement::Select(q.clone())).run();
                    let mut rows = run
                        .unwrap_or_else(|e| panic!("{label} on {design}: {e}"))
                        .rows;
                    rows.sort();
                    rows
                })
                .collect();
            answers.push((design, rows));
        }
        let (reference, expected) = &answers[0];
        assert!(
            expected.iter().any(|rows| !rows.is_empty()),
            "{}: every query is empty",
            bundle.name
        );
        for (design, got) in &answers[1..] {
            for (((label, _), want), got) in bundle.queries.iter().zip(expected).zip(got) {
                assert_eq!(
                    got, want,
                    "{} {label}: {design} differs from {reference}",
                    bundle.name
                );
            }
        }
    }
}
