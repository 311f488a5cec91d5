//! DS-Q01 at the default TPC-DS scale on the hybrid design Figure 9 tunes
//! for its 30 queries: every join's estimated rows within 2× of the rows it
//! returns. A residual filter that applies its seek's predicate a second
//! time, or an index nested-loop join that applies its inner table's
//! predicate twice, estimates the joins above it far below what they
//! return, so the optimizer picks nested-loop plans that measure slower
//! than the hash joins it rejected.

use hpd_advisor::{Advisor, AdvisorOptions, Workload};
use hpd_bench::Scale;
use hpd_engine::{Database, DbConfig, Statement};
use hpd_workloads::tpcds::{self, DsScale};

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "an advisor run over 200 000 fact rows: release only (CI runs it by name)"
)]
fn ds_q01_joins_estimate_within_2x_at_default_scale() {
    let db = Database::new(DbConfig::default());
    tpcds::load(&db, DsScale::default()).unwrap();
    let queries = tpcds::queries(Scale::default_scale().ds_queries, 99);
    let workload = Workload::read_only(queries.iter().map(|(_, q)| q.clone()).collect());
    let hybrid = Advisor::new(&db, AdvisorOptions::default())
        .recommend(&workload)
        .unwrap()
        .configuration;
    db.apply_configuration(&hybrid).unwrap();
    let (label, q) = &queries[0];
    assert_eq!(label, "DS-Q01");
    let run = db
        .query(&Statement::Select(q.clone()))
        .analyze()
        .run()
        .unwrap();
    let report = run.analyze.expect("analyzed");
    let joins: Vec<_> = (report.nodes.iter())
        .filter(|n| n.label.starts_with("HashJoin") || n.label.starts_with("IndexNLJoin"))
        .collect();
    assert!(!joins.is_empty(), "DS-Q01 joins");
    for n in joins {
        let (est, actual) = (n.est_rows.max(1.0), (n.actual_rows as f64).max(1.0));
        assert!(
            est <= 2.0 * actual && actual <= 2.0 * est,
            "{}: estimated {:.1} rows, returned {}",
            n.label,
            n.est_rows,
            n.actual_rows
        );
    }
}
