//! `scan_hot` / `scan_cold`: the paper's Figure 1 selectivity sweep.
//!
//! Two tables hold identical rows: `micro` (unpartitioned) and
//! `micro_part` (8 range partitions on `col1`). Under the hybrid design
//! `micro` is a B+ tree on `col1` plus a secondary columnstore, and
//! `micro_part` is columnstore history with a B+ tree tail partition. A
//! round runs Q1 (`SUM` over a `col1` window) at six selectivities on each
//! table, Q2 (100-group `GROUP BY`) at 10 %, Q3 (`ORDER BY … LIMIT 100`)
//! at 1 % and one point lookup, every window position freshly drawn.
//!
//! Why: encoded-domain kernels, aggregate push-down, rowgroup elimination,
//! partition pruning and scatter-gather lanes do the work on `scan_hot`
//! (RAM device, unbounded pool). `scan_cold` runs the same list on the
//! scaled HDD model with a pool an order of magnitude smaller than the
//! indexes, where eviction, page seeks against segment reads and the
//! device model dominate the modelled time. A kernel change should move
//! `scan_hot` and leave `scan_cold`'s modelled time flat; a caching change
//! the reverse.

use hpd_common::{DataType, Result, Row, Schema, Value};
use hpd_engine::{Database, DbConfig, IndexDescriptor, PartitionSpec};
use hpd_storage::DeviceProfile;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Instant;

use super::{base_config, Design, Expect, Instance, Probe, RoundGen, Stmt, Workload};

pub const ROWS: usize = 400_000;
const DOMAIN: i64 = 1 << 31;
const PARTITIONS: i64 = 8;
/// Buffer pool of the cold variant. The hybrid design's indexes total
/// about 22 MB (see README), so the working set is over ten pools.
pub const COLD_POOL_BYTES: u64 = 2 << 20;

const Q1_SELECTIVITIES: [(f64, &str); 6] = [
    (1e-5, "0.001pct"),
    (1e-4, "0.01pct"),
    (1e-3, "0.1pct"),
    (1e-2, "1pct"),
    (0.1, "10pct"),
    (0.5, "50pct"),
];

pub const CLASSES: [&str; 17] = [
    "q1_sel_0.001pct",
    "q1_sel_0.01pct",
    "q1_sel_0.1pct",
    "q1_sel_1pct",
    "q1_sel_10pct",
    "q1_sel_50pct",
    "q1_part_sel_0.001pct",
    "q1_part_sel_0.01pct",
    "q1_part_sel_0.1pct",
    "q1_part_sel_1pct",
    "q1_part_sel_10pct",
    "q1_part_sel_50pct",
    "q2",
    "q2_part",
    "q3",
    "q3_part",
    "point",
];

pub const TABLES: [&str; 2] = ["micro", "micro_part"];

pub struct Scan {
    pub cold: bool,
}

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("col1", DataType::Int32),
        ("col2", DataType::Int32),
        ("col3", DataType::Int32),
    ])
}

/// `ROWS` rows in random load order. `col1` is unique and uniform over
/// `[0, 2^31)` (one value per stratum, so a window's row count depends on
/// its width and not on the seed); `col2` has 100 values; `col3` is
/// uniform.
pub fn rows(seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    let stratum = |i: i64| i * DOMAIN / ROWS as i64;
    let mut out: Vec<Row> = (0..ROWS as i64)
        .map(|i| {
            Row::new(vec![
                Value::Int32(rng.gen_range(stratum(i)..stratum(i + 1)) as i32),
                Value::Int32(rng.gen_range(0..100)),
                Value::Int32(rng.gen_range(0..DOMAIN) as i32),
            ])
        })
        .collect();
    out.shuffle(&mut rng);
    out
}

fn load(db: &Database, data: &[Row], design: Design) -> Result<()> {
    let btree = IndexDescriptor::PrimaryBTree { keys: vec![0] };
    let (plain, part) = match design {
        Design::Hybrid | Design::CsiOnly => (
            if design == Design::Hybrid {
                btree.clone()
            } else {
                IndexDescriptor::PrimaryCsi
            },
            IndexDescriptor::PrimaryCsi,
        ),
        Design::BTreeOnly => (btree.clone(), btree.clone()),
    };
    db.create_table("micro", schema(), vec![0], plain)?;
    db.load_table("micro", data.to_vec())?;
    if design == Design::Hybrid {
        db.create_index(
            "micro",
            &IndexDescriptor::SecondaryCsi {
                columns: vec![0, 1, 2],
            },
        )?;
    }
    let bounds = (1..PARTITIONS)
        .map(|p| Value::Int32((p * (DOMAIN / PARTITIONS)) as i32))
        .collect();
    db.create_partitioned_table(
        "micro_part",
        schema(),
        vec![0],
        part,
        PartitionSpec::range(0, bounds)?,
    )?;
    db.load_table("micro_part", data.to_vec())?;
    if design == Design::Hybrid {
        // The tail partition takes the inserts in the paper's story: keep
        // it a B+ tree, leave the history compressed.
        db.apply_partition_design("micro_part", PARTITIONS as usize - 1, &btree, &[])?;
    }
    Ok(())
}

/// Sorted `col1` values with running sums of `col1` and `col3`: the oracle
/// every Q1 answer and every final probe is checked against.
struct Oracle {
    keys: Vec<i32>,
    /// `prefix[i]` = sum over the first `i` keys of (col1, col3).
    prefix: Vec<(i64, i64)>,
}

impl Oracle {
    fn new(data: &[Row]) -> Oracle {
        let mut pairs: Vec<(i32, i32)> = data
            .iter()
            .map(|r| {
                (
                    r[0].as_i32().expect("col1 is Int32"),
                    r[2].as_i32().expect("col3 is Int32"),
                )
            })
            .collect();
        pairs.sort_unstable();
        let mut prefix = Vec::with_capacity(pairs.len() + 1);
        let mut acc = (0i64, 0i64);
        prefix.push(acc);
        for &(k, v) in &pairs {
            acc = (acc.0 + i64::from(k), acc.1 + i64::from(v));
            prefix.push(acc);
        }
        Oracle {
            keys: pairs.into_iter().map(|(k, _)| k).collect(),
            prefix,
        }
    }

    /// `(row count, SUM(col1), SUM(col3))` over `lo <= col1 < hi`.
    fn window(&self, lo: i64, hi: i64) -> (usize, i64, i64) {
        let a = self.keys.partition_point(|&k| i64::from(k) < lo);
        let b = self.keys.partition_point(|&k| i64::from(k) < hi);
        (
            b - a,
            self.prefix[b].0 - self.prefix[a].0,
            self.prefix[b].1 - self.prefix[a].1,
        )
    }
}

struct ScanGen {
    rng: StdRng,
    oracle: Oracle,
}

impl ScanGen {
    /// A window covering `selectivity` of the domain, anywhere inside it.
    fn draw_window(&mut self, selectivity: f64) -> (i64, i64) {
        let width = (DOMAIN as f64 * selectivity).round() as i64;
        let lo = self.rng.gen_range(0..=DOMAIN - width);
        (lo, lo + width)
    }
}

impl RoundGen for ScanGen {
    fn next_round(&mut self) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(CLASSES.len());
        for (t, table) in TABLES.iter().enumerate() {
            for (s, &(selectivity, _)) in Q1_SELECTIVITIES.iter().enumerate() {
                let (lo, hi) = self.draw_window(selectivity);
                let (_, sum, _) = self.oracle.window(lo, hi);
                out.push(Stmt {
                    class: t * Q1_SELECTIVITIES.len() + s,
                    sql: format!(
                        "SELECT SUM(col1) FROM {table} WHERE col1 >= {lo} AND col1 < {hi}"
                    ),
                    expect: Expect::Scalar(sum),
                });
            }
        }
        for (t, table) in TABLES.iter().enumerate() {
            let (lo, hi) = self.draw_window(0.1);
            out.push(Stmt {
                class: 12 + t,
                sql: format!(
                    "SELECT col2, SUM(col3) FROM {table} \
                     WHERE col1 >= {lo} AND col1 < {hi} GROUP BY col2"
                ),
                // 40 000 rows over 100 values: every group is present.
                expect: Expect::Rows(100),
            });
        }
        for (t, table) in TABLES.iter().enumerate() {
            let (lo, hi) = self.draw_window(0.01);
            out.push(Stmt {
                class: 14 + t,
                sql: format!(
                    "SELECT col1, col3 FROM {table} \
                     WHERE col1 >= {lo} AND col1 < {hi} ORDER BY col3 LIMIT 100"
                ),
                expect: Expect::Rows(100),
            });
        }
        // The grid's zero-selectivity end, and the seventeenth statement:
        // with an odd count the pooled median is one class's latency and
        // not the gap between two.
        let key = self.oracle.keys[self.rng.gen_range(0..ROWS)];
        out.push(Stmt {
            class: 16,
            sql: format!("SELECT col2, col3 FROM micro WHERE col1 = {key}"),
            expect: Expect::Rows(1),
        });
        out
    }

    fn probes(&self) -> Vec<Probe> {
        let mut out = Vec::new();
        for table in TABLES {
            let (n, sum1, sum3) = self.oracle.window(0, DOMAIN);
            out.push(Probe {
                sql: format!("SELECT COUNT(*), SUM(col1), SUM(col3) FROM {table}"),
                expected: Some(vec![Row::new(vec![
                    Value::Int64(n as i64),
                    Value::Int64(sum1),
                    Value::Int64(sum3),
                ])]),
            });
            // One window per partition boundary region and one inside a
            // partition, fixed so live and recovered answers compare.
            for (lo, hi) in [
                (DOMAIN / 8 - 1000, DOMAIN / 8 + 1000),
                (DOMAIN / 3, DOMAIN / 2),
            ] {
                let (n, _, sum3) = self.oracle.window(lo, hi);
                out.push(Probe {
                    sql: format!(
                        "SELECT COUNT(*), SUM(col3) FROM {table} \
                         WHERE col1 >= {lo} AND col1 < {hi}"
                    ),
                    expected: Some(vec![Row::new(vec![
                        Value::Int64(n as i64),
                        Value::Int64(sum3),
                    ])]),
                });
            }
        }
        out
    }
}

impl Workload for Scan {
    fn name(&self) -> &'static str {
        if self.cold {
            "scan_cold"
        } else {
            "scan_hot"
        }
    }

    fn classes(&self) -> &'static [&'static str] {
        &CLASSES
    }

    fn tables(&self) -> &'static [&'static str] {
        &TABLES
    }

    fn maintenance_table(&self) -> &'static str {
        "micro"
    }

    fn config(&self) -> DbConfig {
        if self.cold {
            DbConfig {
                device: DeviceProfile::hdd_scaled(40.0),
                buffer_pool_bytes: COLD_POOL_BYTES,
                ..base_config()
            }
        } else {
            base_config()
        }
    }

    fn build(&self, seed: u64, design: Design) -> Result<Instance> {
        let t = Instant::now();
        let data = rows(seed);
        let generate_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let db = Database::new(self.config());
        load(&db, &data, design)?;
        let load_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let oracle = Oracle::new(&data);
        let oracle_s = t.elapsed().as_secs_f64();
        Ok(Instance {
            db,
            gen: Box::new(ScanGen {
                // Statement literals come from their own stream, so the
                // three designs of one seed see different windows of the
                // same distribution and none replays another's cache.
                rng: StdRng::seed_from_u64(seed ^ (0x5CA9_0000 + design as u64)),
                oracle,
            }),
            detail: vec![
                ("generate_s", generate_s),
                ("load_and_build_s", load_s),
                ("oracle_s", oracle_s),
            ],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_identical_per_seed_and_unique_on_col1() {
        let a = rows(7);
        assert_eq!(a, rows(7));
        assert_ne!(a, rows(8));
        let mut keys: Vec<i32> = a.iter().map(|r| r[0].as_i32().unwrap()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), ROWS);
    }

    #[test]
    fn oracle_matches_a_direct_sum() {
        let data = rows(3);
        let oracle = Oracle::new(&data);
        let (lo, hi) = (DOMAIN / 4, DOMAIN / 4 + DOMAIN / 100);
        let direct: (usize, i64, i64) = data
            .iter()
            .filter(|r| {
                let k = i64::from(r[0].as_i32().unwrap());
                lo <= k && k < hi
            })
            .fold((0, 0, 0), |acc, r| {
                (
                    acc.0 + 1,
                    acc.1 + r[0].as_i64().unwrap(),
                    acc.2 + r[2].as_i64().unwrap(),
                )
            });
        assert_eq!(oracle.window(lo, hi), direct);
        assert_eq!(oracle.window(0, DOMAIN).0, ROWS);
    }
}
