//! The designs are each other's oracle on Figure 9's bundles: the TPC-DS
//! 13-query set and every customer profile at quick scale, each run on the
//! B+ tree-only, columnstore-only and hybrid designs Figure 9 compares, must
//! give the same rows; so must the TPC-DS set on fact tables cut into four
//! parts. Rows are compared as sorted multisets of exact values (decimals
//! are scaled integers), so a plan that returns them in another order
//! agrees.

use hpd_bench::figs::fig9_speedup::{bundles, configurations, tuned_configurations};
use hpd_bench::Scale;
use hpd_common::Row;
use hpd_engine::{
    Configuration, Database, DbConfig, IndexDescriptor, SelectQuery, Statement, TableDesign,
};
use hpd_workloads::tpcds;

/// Every query's rows, sorted, under `config` applied to `db`.
fn answers(
    db: &Database,
    config: &Configuration,
    queries: &[(String, SelectQuery)],
    design: &str,
) -> Vec<Vec<Row>> {
    db.apply_configuration(config).unwrap();
    (queries.iter())
        .map(|(label, q)| {
            let run = db.query(&Statement::Select(q.clone())).run();
            let mut rows = run
                .unwrap_or_else(|e| panic!("{label} on {design}: {e}"))
                .rows;
            rows.sort();
            rows
        })
        .collect()
}

/// Each design's answers equal the first one's, which are not all empty.
fn assert_agree(
    bundle: &str,
    queries: &[(String, SelectQuery)],
    answers: &[(&str, Vec<Vec<Row>>)],
) {
    let (reference, expected) = &answers[0];
    assert!(
        expected.iter().any(|rows| !rows.is_empty()),
        "{bundle}: every query is empty"
    );
    for (design, got) in &answers[1..] {
        for (((label, _), want), got) in queries.iter().zip(expected).zip(got) {
            assert_eq!(
                got, want,
                "{bundle} {label}: {design} differs from {reference}"
            );
        }
    }
}

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
        let designs = [
            ("B+ tree-only", btree),
            ("CSI-only", csi),
            ("hybrid", hybrid),
        ];
        let answers: Vec<_> = (designs.iter())
            .map(|(design, config)| (*design, answers(&db, config, &bundle.queries, design)))
            .collect();
        assert_agree(&bundle.name, &bundle.queries, &answers);
    }
}

/// The TPC-DS 13-query set with both fact tables range-partitioned into four
/// parts on their key: the three designs the advisor and the baseline pick
/// per part, and every fact part a primary columnstore (where a row group
/// may be stored in key order), answer as the unpartitioned load does.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "three advisor runs: release only (CI runs it by name)"
)]
fn every_tpcds_query_answers_alike_on_four_fact_parts() {
    let (scale, queries) = (tpcds::DsScale::small(), tpcds::queries(13, 99));
    let whole = Database::new(DbConfig::default());
    tpcds::load(&whole, scale).unwrap();
    let unchanged = Configuration { tables: Vec::new() };
    let one_part = answers(&whole, &unchanged, &queries, "one part");

    let db = Database::new(DbConfig::default());
    tpcds::load_partitioned(&db, scale, 4).unwrap();
    let (hybrid, btree, csi) = configurations(&db, &queries);
    let csi_parts = Configuration {
        tables: ["store_sales", "web_sales"]
            .map(|table| TableDesign {
                table: table.into(),
                parts: vec![vec![IndexDescriptor::PrimaryCsi]; 4],
            })
            .to_vec(),
    };
    for config in [&hybrid, &btree, &csi] {
        for table in ["store_sales", "web_sales"] {
            let design = config
                .design_for(table)
                .expect("a design for each fact table");
            assert_eq!(design.parts.len(), 4, "{table}");
        }
    }
    let designs = [
        ("B+ tree-only", btree),
        ("CSI-only", csi),
        ("hybrid", hybrid),
        ("primary columnstore parts", csi_parts),
    ];
    let mut all = vec![("one part, B+ tree", one_part)];
    for (design, config) in &designs {
        all.push((*design, answers(&db, config, &queries, design)));
    }
    assert_agree("TPC-DS, four fact parts", &queries, &all);
}
