//! Criterion micro-benchmarks for the advisor: size estimation (black-box
//! vs GEE run model — the §4.4 efficiency argument) and what-if planning
//! throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use hpd_advisor::{BlackBoxEstimator, CsiSizeEstimator, RunModelEstimator, SampleSet};
use hpd_columnstore::CsiConfig;
use hpd_common::{CmpOp, DataType, Expr, Row, Schema, Value};
use hpd_engine::{Database, DbConfig, IndexDescriptor, SelectQuery};
use std::collections::HashMap;

fn sample_rows(n: i32) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Int32(i),
                Value::Int32(i % 25),
                Value::Int32((i as i64 * 2_654_435_761 % 100_000) as i32),
            ])
        })
        .collect()
}

fn bench_size_estimation(c: &mut Criterion) {
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int32),
        ("nation", DataType::Int32),
        ("val", DataType::Int32),
    ]);
    let rows = sample_rows(200_000);
    let sample = SampleSet::block_sample(&rows, 0.05, 7);
    let cfg = CsiConfig::default();
    let mut g = c.benchmark_group("size_estimation");
    g.sample_size(10);
    g.bench_function("black_box", |b| {
        b.iter(|| BlackBoxEstimator.estimate_column_bytes(&schema, &sample, rows.len(), &cfg))
    });
    g.bench_function("run_model_gee", |b| {
        b.iter(|| RunModelEstimator.estimate_column_bytes(&schema, &sample, rows.len(), &cfg))
    });
    g.finish();
}

fn bench_what_if(c: &mut Criterion) {
    let db = Database::new(DbConfig::default());
    db.create_table(
        "t",
        Schema::from_pairs(&[
            ("id", DataType::Int32),
            ("grp", DataType::Int32),
            ("val", DataType::Int32),
        ]),
        vec![0],
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
    )
    .unwrap();
    db.load_table("t", sample_rows(50_000)).unwrap();
    let q = SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(2, CmpOp::Lt, Value::Int32(500))),
        vec![0, 2],
    );
    let mut metas = db.with_table("t", |t| t.part_metas(0)).unwrap();
    metas.push(hpd_engine::IndexMeta {
        descriptor: IndexDescriptor::SecondaryBTree {
            keys: vec![2],
            includes: vec![],
        },
        rows: 50_000,
        leaf_pages: 250,
        height: 3,
        column_bytes: vec![],
        column_encodings: vec![],
        rowgroups: 0,
        delta_rows: 0,
        delete_buffer_rows: 0,
        hypothetical: true,
    });
    let overrides = HashMap::from([("t".to_string(), vec![metas])]);
    c.bench_function("what_if_plan", |b| {
        b.iter(|| db.what_if_plan(&q, &overrides).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_size_estimation, bench_what_if
}
criterion_main!(benches);
