//! Micro-profile of per-statement overhead, reported through the
//! observability layer: registry counter deltas, latency histograms, and an
//! `EXPLAIN ANALYZE` of the probe statement. Also measures what the
//! per-operator instrumentation itself costs relative to a plain select.
use std::time::Instant;

use hpd_engine::{Database, DbConfig, IsolationLevel, Statement};
use hpd_workloads::tpch::{load_lineitem, q4_update, MixedDesign};

fn timed(n: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..n {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / n as f64
}

fn main() {
    let mut cfg = DbConfig::default();
    cfg.csi.rowgroup_capacity = 8192;
    let db = Database::new(cfg);
    load_lineitem(&db, 30_000, 42, MixedDesign::BTreeWithSecondaryCsi).unwrap();

    let q = match q4_update(10, 5) {
        Statement::Update(u) => hpd_engine::SelectQuery::single_table(
            "lineitem",
            Some(u.predicate.clone()),
            (0..8).collect(),
        ),
        _ => unreachable!(),
    };
    let n = 500;
    let base = hpd_obs::global().snapshot();

    println!(
        "part_metas(0): {:.1}us",
        timed(n, || {
            db.with_table("lineitem", |t| t.part_metas(0)).unwrap();
        })
    );
    println!(
        "stats clone: {:.1}us",
        timed(n, || {
            db.with_table("lineitem", |t| t.stats().clone()).unwrap();
        })
    );
    println!(
        "db.plan: {:.1}us",
        timed(n, || {
            db.plan(&q).unwrap();
        })
    );

    // select through a raw txn, with and without per-operator profiling —
    // the difference is the cost of the ProfiledOp wrappers.
    let session = db.session(IsolationLevel::ReadCommitted);
    let mut txn = session.begin();
    txn.select(&q).unwrap();
    let plain = timed(n, || {
        txn.select(&q).unwrap();
    });
    let analyzed = timed(n, || {
        txn.select_analyzed(&q).unwrap();
    });
    txn.abort();
    println!("txn.select: {plain:.1}us");
    println!(
        "txn.select_analyzed: {analyzed:.1}us ({:+.1}% instrumentation overhead)",
        (analyzed / plain - 1.0) * 100.0
    );

    println!(
        "db.execute: {:.1}us",
        timed(n, || {
            db.query(&Statement::Select(q.clone())).run().unwrap();
        })
    );

    // What the engine observed while we hammered it.
    let delta = hpd_obs::global().snapshot().delta(&base);
    println!("\n-- registry deltas over the run --");
    for (name, v) in &delta.counters {
        if *v > 0 {
            println!("{name}: {v}");
        }
    }
    if let Some(h) = delta.histograms.get("query.latency_us") {
        println!(
            "query.latency_us: count={} mean={:.1}us p99<={}us",
            h.count,
            h.mean(),
            h.quantile_upper_bound(0.99)
        );
    }

    println!("\n-- explain analyze of the probe statement --");
    let r = db.query(&q).analyze().run().unwrap();
    print!("{}", r.analyze.unwrap().render());

    println!("\n-- query store tail --");
    let recent = db.query_store().recent();
    for s in recent.iter().rev().take(3).rev() {
        println!("{}", s.to_json());
    }
}
