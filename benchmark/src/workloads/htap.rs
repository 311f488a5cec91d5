//! `htap`: short reads and writes beside each other on one table.
//!
//! TPC-H `lineitem` under the paper's design (B): B+ tree primary,
//! secondary B+ tree on ship date, secondary columnstore. Per 200
//! statements: 120 point `SELECT`s by key, 30 single-row `INSERT`s, 28
//! `UPDATE TOP 10` by ship date, 8 `DELETE`s by key, 10 short key-range
//! selects and 4 analytic `SUM`s over a 1 % ship-date window, in one fixed
//! interleaving; one maintenance increment after every 200 statements and
//! a checkpoint every 5 000 commits.
//!
//! Why: statements are short, so lex / plan-cache / bind / optimize, lock +
//! commit + WAL flush and delta-store growth dominate and operators do
//! little. Writes run beside reads on the same table, so a scan gain
//! bought with slower writes (or the reverse) shows. The analytic class is
//! 2 % of statements so that p99 sits inside it and not on the edge
//! between two classes.

use hpd_common::{Result, Row, Value};
use hpd_engine::{Database, DbConfig, WalConfig};
use hpd_workloads::tpch::{self, col, MixedDesign, SHIPDATE_DAYS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use super::{base_config, Design, Expect, Instance, Probe, RoundGen, Stmt, Workload};

pub const ROWS: usize = 200_000;
pub const ROUND: usize = 200;
pub const CLASSES: [&str; 6] = [
    "point_select",
    "insert",
    "update",
    "delete",
    "range_select",
    "analytic",
];
const MIX: [usize; 6] = [120, 30, 28, 8, 10, 4];
/// Updates touch ship dates below this day and inserts use the days from
/// it on, so a row the benchmark inserted is never updated and its values
/// are still known when it is deleted.
const INSERT_DATES_FROM: i32 = SHIPDATE_DAYS / 2;
/// Analytic window: 1 % of the ship-date range.
const ANALYTIC_DAYS: i32 = SHIPDATE_DAYS / 100;
/// `l_quantity` is a decimal with four implied digits.
const DECIMAL_ONE: i64 = 10_000;

pub struct Htap;

/// The fixed interleaving of one round: each class spread evenly over the
/// round, ties going to the lower class, so an insert always precedes the
/// delete that needs a row to remove.
pub fn round_pattern() -> Vec<usize> {
    let mut credit = [0.0f64; 6];
    let mut out = Vec::with_capacity(ROUND);
    for _ in 0..ROUND {
        for (c, n) in credit.iter_mut().zip(MIX) {
            *c += n as f64 / ROUND as f64;
        }
        let next = (0..6)
            .max_by(|&a, &b| credit[a].total_cmp(&credit[b]).then(b.cmp(&a)))
            .expect("six classes");
        credit[next] -= 1.0;
        out.push(next);
    }
    out
}

/// What the generator knows the table holds: per ship date the row count
/// and `SUM(l_quantity)`, which `UPDATE TOP 10` moves by exactly the number
/// of rows it reports whichever rows it picked; the lines of every loaded
/// order; and the rows the benchmark itself inserted, oldest first.
struct Shadow {
    by_date: BTreeMap<i32, (i64, i64)>,
    lines_per_order: Vec<u8>,
    own: VecDeque<(i32, i32, i64)>,
    next_orderkey: i32,
}

impl Shadow {
    fn new(rows: &[Row]) -> Shadow {
        let mut by_date: BTreeMap<i32, (i64, i64)> = BTreeMap::new();
        let mut lines_per_order = vec![0u8];
        for r in rows {
            let e = by_date
                .entry(r[col::L_SHIPDATE].as_i32().expect("date"))
                .or_default();
            e.0 += 1;
            e.1 += r[col::L_QUANTITY].as_i64().expect("decimal");
            let ok = r[col::L_ORDERKEY].as_i32().expect("orderkey") as usize;
            if ok >= lines_per_order.len() {
                lines_per_order.resize(ok + 1, 0);
            }
            lines_per_order[ok] += 1;
        }
        let next_orderkey = lines_per_order.len() as i32;
        Shadow {
            by_date,
            lines_per_order,
            own: VecDeque::new(),
            next_orderkey,
        }
    }

    fn loaded_orders(&self) -> i32 {
        self.lines_per_order.len() as i32 - 1
    }

    /// `(COUNT(*), SUM(l_quantity))` over an inclusive ship-date window.
    fn window(&self, from: i32, to: i32) -> (i64, i64) {
        self.by_date
            .range(from..=to)
            .fold((0, 0), |acc, (_, &(n, q))| (acc.0 + n, acc.1 + q))
    }
}

struct HtapGen {
    rng: StdRng,
    pattern: Vec<usize>,
    shadow: Shadow,
}

impl RoundGen for HtapGen {
    fn next_round(&mut self) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(ROUND);
        for i in 0..ROUND {
            let class = self.pattern[i];
            let (sql, expect) = match class {
                0 => {
                    let k = self.rng.gen_range(1..=self.shadow.loaded_orders());
                    (
                        format!(
                            "SELECT l_quantity, l_extendedprice FROM lineitem \
                             WHERE l_orderkey = {k} AND l_linenumber = 1"
                        ),
                        Expect::Rows(1),
                    )
                }
                1 => {
                    let k = self.shadow.next_orderkey;
                    self.shadow.next_orderkey += 1;
                    let qty = self.rng.gen_range(1..=50i64);
                    let price = self.rng.gen_range(900..=104_900);
                    let date = self.rng.gen_range(INSERT_DATES_FROM..SHIPDATE_DAYS);
                    let supp = self.rng.gen_range(0..10_000);
                    let part = self.rng.gen_range(0..200_000);
                    let e = self.shadow.by_date.entry(date).or_default();
                    e.0 += 1;
                    e.1 += qty * DECIMAL_ONE;
                    self.shadow.own.push_back((k, date, qty * DECIMAL_ONE));
                    (
                        format!(
                            "INSERT INTO lineitem VALUES \
                             ({k}, 1, {qty}, {price}, 0, {date}, {supp}, {part})"
                        ),
                        Expect::Affected(1),
                    )
                }
                2 => {
                    let date = self.rng.gen_range(0..INSERT_DATES_FROM);
                    let e = self.shadow.by_date.entry(date).or_default();
                    let n = e.0.min(10);
                    e.1 += n * DECIMAL_ONE;
                    (
                        format!(
                            "UPDATE TOP 10 lineitem SET l_quantity = l_quantity + 1, \
                             l_extendedprice = l_extendedprice + 1 WHERE l_shipdate = {date}"
                        ),
                        Expect::Affected(n as u64),
                    )
                }
                3 => {
                    let (k, date, qty) = self
                        .shadow
                        .own
                        .pop_front()
                        .expect("the pattern inserts before it deletes");
                    let e = self.shadow.by_date.entry(date).or_default();
                    e.0 -= 1;
                    e.1 -= qty;
                    (
                        format!("DELETE FROM lineitem WHERE l_orderkey = {k} AND l_linenumber = 1"),
                        Expect::Affected(1),
                    )
                }
                4 => {
                    let k = self.rng.gen_range(1..=self.shadow.loaded_orders() - 4);
                    let lines: usize = self.shadow.lines_per_order[k as usize..k as usize + 5]
                        .iter()
                        .map(|&n| usize::from(n))
                        .sum();
                    (
                        format!(
                            "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem \
                             WHERE l_orderkey BETWEEN {k} AND {}",
                            k + 4
                        ),
                        Expect::Rows(lines),
                    )
                }
                _ => {
                    let from = self.rng.gen_range(0..SHIPDATE_DAYS - ANALYTIC_DAYS);
                    let to = from + ANALYTIC_DAYS - 1;
                    let (_, qty) = self.shadow.window(from, to);
                    (
                        format!(
                            "SELECT SUM(l_quantity), SUM(l_extendedprice * (1 - l_discount)) \
                             FROM lineitem WHERE l_shipdate BETWEEN {from} AND {to}"
                        ),
                        Expect::Scalar(qty),
                    )
                }
            };
            out.push(Stmt { class, sql, expect });
        }
        out
    }

    fn probes(&self) -> Vec<Probe> {
        let windows = [
            (0, SHIPDATE_DAYS - 1),
            (0, INSERT_DATES_FROM - 1),
            (INSERT_DATES_FROM, SHIPDATE_DAYS - 1),
            (100, 123),
            (2_000, 2_100),
        ];
        windows
            .iter()
            .map(|&(from, to)| {
                let (n, qty) = self.shadow.window(from, to);
                Probe {
                    sql: format!(
                        "SELECT COUNT(*), SUM(l_quantity) FROM lineitem \
                         WHERE l_shipdate BETWEEN {from} AND {to}"
                    ),
                    expected: Some(vec![Row::new(vec![Value::Int64(n), Value::Decimal(qty)])]),
                }
            })
            .collect()
    }
}

impl Workload for Htap {
    fn name(&self) -> &'static str {
        "htap"
    }

    fn classes(&self) -> &'static [&'static str] {
        &CLASSES
    }

    fn tables(&self) -> &'static [&'static str] {
        &["lineitem"]
    }

    fn maintenance_table(&self) -> &'static str {
        "lineitem"
    }

    fn config(&self) -> DbConfig {
        let base = base_config();
        DbConfig {
            wal: WalConfig {
                checkpoint_every_commits: 5_000,
                ..base.wal.clone()
            },
            ..base
        }
    }

    fn build(&self, seed: u64, design: Design) -> Result<Instance> {
        let t = Instant::now();
        let db = Database::new(self.config());
        tpch::load_lineitem(
            &db,
            ROWS,
            seed,
            match design {
                Design::Hybrid => MixedDesign::BTreeWithSecondaryCsi,
                Design::BTreeOnly => MixedDesign::BTreeOnly,
                Design::CsiOnly => MixedDesign::PrimaryCsi,
            },
        )?;
        let load_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        // The loader generates its rows from the seed; generating them
        // again gives the shadow the same rows without reading them back.
        let shadow = Shadow::new(&tpch::lineitem_rows(ROWS, seed));
        let shadow_s = t.elapsed().as_secs_f64();
        Ok(Instance {
            db,
            gen: Box::new(HtapGen {
                rng: StdRng::seed_from_u64(seed ^ (0x47A9_0000 + design as u64)),
                pattern: round_pattern(),
                shadow,
            }),
            detail: vec![("load_and_build_s", load_s), ("shadow_s", shadow_s)],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_has_the_stated_mix_and_inserts_lead_deletes() {
        let p = round_pattern();
        assert_eq!(p.len(), ROUND);
        for (class, n) in MIX.iter().enumerate() {
            assert_eq!(
                p.iter().filter(|&&c| c == class).count(),
                *n,
                "class {class}"
            );
        }
        let mut alive = 0i32;
        for &c in &p {
            match c {
                1 => alive += 1,
                3 => {
                    alive -= 1;
                    assert!(alive >= 0, "a delete ran before any insert");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn shadow_counts_every_loaded_row() {
        let rows = tpch::lineitem_rows(5_000, 11);
        let shadow = Shadow::new(&rows);
        assert_eq!(shadow.window(0, SHIPDATE_DAYS - 1).0, 5_000);
        let lines: usize = shadow.lines_per_order.iter().map(|&n| usize::from(n)).sum();
        assert_eq!(lines, 5_000);
        assert_eq!(shadow.next_orderkey, shadow.loaded_orders() + 1);
    }
}
