//! Criterion micro-benchmarks for partitioned scatter-gather scans: the
//! same 64k-row columnstore table at 1/4/16 range partitions, scanned
//! selectively (a range predicate covering 1/16 of the key space) and
//! fully. The claim under test (EXPERIMENTS.md §4): pruning makes the
//! selective scan's cost proportional to the partitions that can match,
//! so at 16 partitions it touches one partition where the 1-partition
//! table — the no-pruning baseline — scans everything, while the full
//! scan, which pruning can never help, runs its lanes in order at this
//! bench's DOP 1 and costs what the one-part scan costs.

use criterion::{criterion_group, criterion_main, Criterion};
use hpd_common::{CmpOp, DataType, Expr, Row, Schema, Value};
use hpd_engine::{
    Database, DbConfig, IndexDescriptor, PartitionSpec, SelectQuery, Statement, WalConfig,
};

const N: i32 = 64_000;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("id", DataType::Int32),
        ("grp", DataType::Int32),
        ("val", DataType::Int64),
    ])
}

fn row(id: i32) -> Row {
    Row::new(vec![
        Value::Int32(id),
        Value::Int32(id % 97),
        Value::Int64(i64::from(id) * 3),
    ])
}

/// A loaded database with `parts` range partitions over `0..N` on the key
/// column, all-columnstore. `parts == 1` is the unpartitioned baseline.
fn make_db(parts: i32) -> Database {
    let db = Database::new(DbConfig {
        wal: WalConfig::default(),
        max_dop: 1,
        ..DbConfig::default()
    });
    if parts == 1 {
        db.create_table("t", schema(), vec![0], IndexDescriptor::PrimaryCsi)
            .unwrap();
    } else {
        let width = N / parts;
        let bounds = (1..parts).map(|p| Value::Int32(p * width)).collect();
        let spec = PartitionSpec::range(0, bounds).unwrap();
        db.create_partitioned_table("t", schema(), vec![0], IndexDescriptor::PrimaryCsi, spec)
            .unwrap();
    }
    db.load_table("t", (0..N).map(row).collect()).unwrap();
    db
}

/// Range predicate covering the first sixteenth of the key space: with 16
/// partitions, fifteen are provably disjoint from it and never scanned.
fn selective() -> SelectQuery {
    SelectQuery::single_table(
        "t",
        Some(Expr::col_cmp(0, CmpOp::Lt, Value::Int32(N / 16))),
        vec![0, 2],
    )
}

fn full() -> SelectQuery {
    SelectQuery::single_table("t", None, vec![0, 2])
}

fn bench_partition_scans(c: &mut Criterion) {
    for (shape, query) in [
        ("selective", selective as fn() -> SelectQuery),
        ("full", full),
    ] {
        let name = format!("partition_scan_64k/{shape}");
        let mut g = c.benchmark_group(name.as_str());
        for parts in [1i32, 4, 16] {
            let db = make_db(parts);
            g.bench_function(format!("p{parts}"), |b| {
                b.iter(|| {
                    let q = Statement::Select(query());
                    std::hint::black_box(db.query(&q).run().unwrap())
                })
            });
        }
        g.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_partition_scans
}
criterion_main!(benches);
