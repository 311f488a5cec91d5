//! Mixed OLTP/OLAP transaction histories for the differential harness.
//!
//! A history is a set of transaction specifications over one logical table
//! `(k INT PRIMARY KEY, a INT, b INT)`: point/range updates and deletes,
//! inserts of never-reused keys, range scans, and aggregates — the §3.5/§3.6
//! read/write mixes in miniature. The generator is deterministic in its
//! seed; the harness owns scheduling (interleaving) and fault placement.
//!
//! Two generation constraints keep the three physical designs comparable:
//! inserts draw keys from a monotone pool disjoint from every other key ever
//! used (the engine does not reject duplicate primary keys), and updates /
//! deletes never use `TOP n` (the row subset a bounded write statement picks
//! is physical-order-dependent and thus design-dependent).

use hpd_common::{AggFunc, BinOp, CmpOp, ColumnDef, DataType, Expr, Row, Schema, Value};
use hpd_engine::{
    AggItem, ColRef, DeleteStmt, InsertStmt, IsolationLevel, SelectQuery, Statement, TableInput,
    UpdateStmt,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Column ordinals of the history table.
pub const COL_K: usize = 0;
pub const COL_A: usize = 1;
pub const COL_B: usize = 2;

/// One operation inside a transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum MixedOp {
    /// `UPDATE SET b = b + delta WHERE k = key`
    PointUpdate { key: i32, delta: i32 },
    /// `UPDATE SET b = b + delta WHERE k BETWEEN lo AND hi`
    RangeUpdate { lo: i32, hi: i32, delta: i32 },
    /// `DELETE WHERE k = key`
    PointDelete { key: i32 },
    /// `DELETE WHERE k BETWEEN lo AND hi`
    RangeDelete { lo: i32, hi: i32 },
    /// `INSERT (key, a, b)`; `key` is globally fresh within the history.
    Insert { key: i32, a: i32, b: i32 },
    /// `SELECT k, a, b WHERE k BETWEEN lo AND hi ORDER BY k [LIMIT n]`
    RangeScan {
        lo: i32,
        hi: i32,
        limit: Option<usize>,
    },
    /// `SELECT count(k), sum(b), min(b), max(b) WHERE a BETWEEN lo AND hi`
    Agg { lo: i32, hi: i32 },
    /// `SELECT a, count(k), sum(b) WHERE k BETWEEN lo AND hi GROUP BY a`
    GroupAgg { lo: i32, hi: i32 },
    /// Run columnstore maintenance (tuple mover + delete-buffer compaction)
    /// between statements — the background process at a chosen point.
    Maintenance,
}

impl MixedOp {
    /// Engine statement for this op against `table`; `None` for
    /// [`MixedOp::Maintenance`], which is not a statement.
    pub fn to_statement(&self, table: &str) -> Option<Statement> {
        let add_b = |delta: i32| {
            vec![(
                COL_B,
                Expr::arith(BinOp::Add, Expr::col(COL_B), Expr::lit(Value::Int32(delta))),
            )]
        };
        Some(match *self {
            MixedOp::PointUpdate { key, delta } => Statement::Update(UpdateStmt {
                table: table.into(),
                predicate: Expr::col_cmp(COL_K, CmpOp::Eq, Value::Int32(key)),
                top: None,
                set: add_b(delta),
            }),
            MixedOp::RangeUpdate { lo, hi, delta } => Statement::Update(UpdateStmt {
                table: table.into(),
                predicate: Expr::between(COL_K, Value::Int32(lo), Value::Int32(hi)),
                top: None,
                set: add_b(delta),
            }),
            MixedOp::PointDelete { key } => Statement::Delete(DeleteStmt {
                table: table.into(),
                predicate: Expr::col_cmp(COL_K, CmpOp::Eq, Value::Int32(key)),
                top: None,
            }),
            MixedOp::RangeDelete { lo, hi } => Statement::Delete(DeleteStmt {
                table: table.into(),
                predicate: Expr::between(COL_K, Value::Int32(lo), Value::Int32(hi)),
                top: None,
            }),
            MixedOp::Insert { key, a, b } => Statement::Insert(InsertStmt {
                table: table.into(),
                rows: vec![Row::new(vec![
                    Value::Int32(key),
                    Value::Int32(a),
                    Value::Int32(b),
                ])],
            }),
            MixedOp::RangeScan { lo, hi, limit } => Statement::Select(SelectQuery {
                tables: vec![TableInput::with_predicate(
                    table,
                    Expr::between(COL_K, Value::Int32(lo), Value::Int32(hi)),
                )],
                select: vec![
                    ColRef::new(0, COL_K),
                    ColRef::new(0, COL_A),
                    ColRef::new(0, COL_B),
                ],
                order_by: vec![(0, true)],
                limit,
                ..Default::default()
            }),
            MixedOp::Agg { lo, hi } => Statement::Select(SelectQuery {
                tables: vec![TableInput::with_predicate(
                    table,
                    Expr::between(COL_A, Value::Int32(lo), Value::Int32(hi)),
                )],
                aggregates: vec![
                    AggItem::column(AggFunc::Count, ColRef::new(0, COL_K)),
                    AggItem::column(AggFunc::Sum, ColRef::new(0, COL_B)),
                    AggItem::column(AggFunc::Min, ColRef::new(0, COL_B)),
                    AggItem::column(AggFunc::Max, ColRef::new(0, COL_B)),
                ],
                ..Default::default()
            }),
            MixedOp::GroupAgg { lo, hi } => Statement::Select(SelectQuery {
                tables: vec![TableInput::with_predicate(
                    table,
                    Expr::between(COL_K, Value::Int32(lo), Value::Int32(hi)),
                )],
                group_by: vec![ColRef::new(0, COL_A)],
                aggregates: vec![
                    AggItem::column(AggFunc::Count, ColRef::new(0, COL_K)),
                    AggItem::column(AggFunc::Sum, ColRef::new(0, COL_B)),
                ],
                // The grouping column is also projected, mirroring the SQL
                // form `SELECT a, count(k), sum(b) ... GROUP BY a` (the
                // executor's grouped output is group_by ++ aggregates
                // either way).
                select: vec![ColRef::new(0, COL_A)],
                ..Default::default()
            }),
            MixedOp::Maintenance => return None,
        })
    }

    /// SQL text for this op against `table`, in the front-end's dialect;
    /// `None` for [`MixedOp::Maintenance`]. Lowering this text through the
    /// SQL binder must produce exactly [`MixedOp::to_statement`]'s AST —
    /// the harness's SQL mode cross-checks the two on every statement.
    pub fn to_sql(&self, table: &str) -> Option<String> {
        Some(match *self {
            MixedOp::PointUpdate { key, delta } => {
                format!("UPDATE {table} SET b = b + {delta} WHERE k = {key}")
            }
            MixedOp::RangeUpdate { lo, hi, delta } => {
                format!("UPDATE {table} SET b = b + {delta} WHERE k BETWEEN {lo} AND {hi}")
            }
            MixedOp::PointDelete { key } => {
                format!("DELETE FROM {table} WHERE k = {key}")
            }
            MixedOp::RangeDelete { lo, hi } => {
                format!("DELETE FROM {table} WHERE k BETWEEN {lo} AND {hi}")
            }
            MixedOp::Insert { key, a, b } => {
                format!("INSERT INTO {table} VALUES ({key}, {a}, {b})")
            }
            MixedOp::RangeScan { lo, hi, limit } => {
                let mut s =
                    format!("SELECT k, a, b FROM {table} WHERE k BETWEEN {lo} AND {hi} ORDER BY k");
                if let Some(n) = limit {
                    s.push_str(&format!(" LIMIT {n}"));
                }
                s
            }
            MixedOp::Agg { lo, hi } => {
                format!(
                    "SELECT COUNT(k), SUM(b), MIN(b), MAX(b) FROM {table} \
                     WHERE a BETWEEN {lo} AND {hi}"
                )
            }
            MixedOp::GroupAgg { lo, hi } => {
                format!(
                    "SELECT a, COUNT(k), SUM(b) FROM {table} \
                     WHERE k BETWEEN {lo} AND {hi} GROUP BY a"
                )
            }
            MixedOp::Maintenance => return None,
        })
    }

    /// Strictly simpler variants of this op, for history shrinking: deltas
    /// move to 1, ranges collapse toward points, limits vanish. Returns
    /// candidates in decreasing aggressiveness; an empty vec means the op is
    /// already minimal.
    pub fn shrunk(&self) -> Vec<MixedOp> {
        match *self {
            MixedOp::PointUpdate { key, delta } if delta != 1 => {
                vec![MixedOp::PointUpdate { key, delta: 1 }]
            }
            MixedOp::RangeUpdate { lo, hi, delta } => {
                let mut cands = Vec::new();
                if lo != hi {
                    cands.push(MixedOp::RangeUpdate { lo, hi: lo, delta });
                }
                if delta != 1 {
                    cands.push(MixedOp::RangeUpdate { lo, hi, delta: 1 });
                }
                cands
            }
            MixedOp::RangeDelete { lo, hi } if lo != hi => {
                vec![MixedOp::RangeDelete { lo, hi: lo }]
            }
            MixedOp::Insert { key, a, b } if a != 0 || b != 0 => {
                vec![MixedOp::Insert { key, a: 0, b: 0 }]
            }
            MixedOp::RangeScan { lo, hi, limit } => {
                let mut cands = Vec::new();
                if limit.is_some() {
                    cands.push(MixedOp::RangeScan {
                        lo,
                        hi,
                        limit: None,
                    });
                }
                if lo != hi {
                    cands.push(MixedOp::RangeScan { lo, hi: lo, limit });
                }
                cands
            }
            MixedOp::Agg { lo, hi } if lo != hi => vec![MixedOp::Agg { lo, hi: lo }],
            MixedOp::GroupAgg { lo, hi } => {
                let mut cands = vec![MixedOp::Agg { lo, hi }];
                if lo != hi {
                    cands.push(MixedOp::GroupAgg { lo, hi: lo });
                }
                cands
            }
            _ => Vec::new(),
        }
    }
}

/// One transaction: isolation level, statements, and its intended ending.
#[derive(Debug, Clone, PartialEq)]
pub struct TxnSpec {
    pub isolation: IsolationLevel,
    pub ops: Vec<MixedOp>,
    /// `true` = commit at the end; `false` = deliberate abort.
    pub commit: bool,
}

/// Knobs of the history generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryConfig {
    /// Number of transactions.
    pub txns: usize,
    /// Maximum statements per transaction (at least 1 is generated).
    pub max_ops: usize,
    /// Rows preloaded with keys `0..initial_rows`.
    pub initial_rows: i32,
    /// Column `a` domain `[0, a_domain)` — small, so group-bys collide.
    pub a_domain: i32,
    /// Column `b` domain `[0, b_domain)`.
    pub b_domain: i32,
}

impl Default for HistoryConfig {
    fn default() -> HistoryConfig {
        HistoryConfig {
            txns: 10,
            max_ops: 6,
            initial_rows: 64,
            a_domain: 8,
            b_domain: 1_000,
        }
    }
}

/// Schema of the history table.
pub fn history_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("k", DataType::Int32),
        ColumnDef::new("a", DataType::Int32),
        ColumnDef::new("b", DataType::Int32),
    ])
}

/// Initial table contents: keys `0..initial_rows` with seeded `a`/`b`.
pub fn initial_rows(seed: u64, cfg: &HistoryConfig) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1157_0AD5);
    (0..cfg.initial_rows)
        .map(|k| {
            Row::new(vec![
                Value::Int32(k),
                Value::Int32(rng.gen_range(0..cfg.a_domain)),
                Value::Int32(rng.gen_range(0..cfg.b_domain)),
            ])
        })
        .collect()
}

/// Generate a transaction history, deterministic in `seed`.
pub fn generate(seed: u64, cfg: &HistoryConfig) -> Vec<TxnSpec> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6E15_70C1);
    // Fresh insert keys: monotone, never reused, disjoint from the preload.
    let mut next_fresh = cfg.initial_rows;
    let mut txns = Vec::with_capacity(cfg.txns);
    for _ in 0..cfg.txns {
        let isolation = match rng.gen_range(0u32..10) {
            0..=3 => IsolationLevel::ReadCommitted,
            4..=7 => IsolationLevel::Snapshot,
            _ => IsolationLevel::Serializable,
        };
        let n_ops = rng.gen_range(1..=cfg.max_ops.max(1));
        let mut ops = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            // `key_hint` over-approximates the live key space: preloaded
            // keys plus every fresh key handed out so far. Targeting an
            // already-deleted or not-yet-inserted key is a valid no-op.
            let key_hint = next_fresh;
            let point_key = |rng: &mut StdRng| rng.gen_range(0..key_hint.max(1));
            let op = match rng.gen_range(0u32..100) {
                0..=17 => MixedOp::PointUpdate {
                    key: point_key(&mut rng),
                    delta: rng.gen_range(-50i32..=50),
                },
                18..=25 => {
                    let lo = point_key(&mut rng);
                    MixedOp::RangeUpdate {
                        lo,
                        hi: lo + rng.gen_range(0..8),
                        delta: rng.gen_range(-50i32..=50),
                    }
                }
                26..=35 => MixedOp::PointDelete {
                    key: point_key(&mut rng),
                },
                36..=39 => {
                    let lo = point_key(&mut rng);
                    MixedOp::RangeDelete {
                        lo,
                        hi: lo + rng.gen_range(0..4),
                    }
                }
                40..=54 => {
                    let key = next_fresh;
                    next_fresh += 1;
                    MixedOp::Insert {
                        key,
                        a: rng.gen_range(0..cfg.a_domain),
                        b: rng.gen_range(0..cfg.b_domain),
                    }
                }
                55..=69 => {
                    let lo = point_key(&mut rng);
                    MixedOp::RangeScan {
                        lo,
                        hi: lo + rng.gen_range(0..32),
                        limit: if rng.gen_bool(0.25) {
                            Some(rng.gen_range(1usize..8))
                        } else {
                            None
                        },
                    }
                }
                70..=81 => {
                    let lo = rng.gen_range(0..cfg.a_domain);
                    MixedOp::Agg {
                        lo,
                        hi: lo + rng.gen_range(0..cfg.a_domain),
                    }
                }
                82..=89 => {
                    let lo = point_key(&mut rng);
                    MixedOp::GroupAgg {
                        lo,
                        hi: lo + rng.gen_range(0..24),
                    }
                }
                _ => MixedOp::Maintenance,
            };
            ops.push(op);
        }
        txns.push(TxnSpec {
            isolation,
            ops,
            commit: rng.gen_bool(0.85),
        });
    }
    txns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = HistoryConfig::default();
        assert_eq!(generate(7, &cfg), generate(7, &cfg));
        assert_eq!(initial_rows(7, &cfg), initial_rows(7, &cfg));
        assert_ne!(generate(7, &cfg), generate(8, &cfg));
    }

    #[test]
    fn insert_keys_are_fresh_and_unique() {
        let cfg = HistoryConfig {
            txns: 50,
            ..Default::default()
        };
        let mut seen = std::collections::HashSet::new();
        for t in generate(3, &cfg) {
            for op in t.ops {
                if let MixedOp::Insert { key, .. } = op {
                    assert!(key >= cfg.initial_rows, "insert key collides with preload");
                    assert!(seen.insert(key), "insert key {key} reused");
                }
            }
        }
    }

    #[test]
    fn statements_cover_every_op_kind() {
        let op = MixedOp::RangeScan {
            lo: 0,
            hi: 5,
            limit: Some(3),
        };
        assert!(matches!(op.to_statement("t"), Some(Statement::Select(_))));
        assert!(MixedOp::Maintenance.to_statement("t").is_none());
        assert!(MixedOp::PointDelete { key: 1 }.to_statement("t").is_some());
    }

    #[test]
    fn shrunk_candidates_are_simpler() {
        let op = MixedOp::RangeUpdate {
            lo: 3,
            hi: 9,
            delta: -17,
        };
        let cands = op.shrunk();
        assert!(!cands.is_empty());
        assert!(cands.contains(&MixedOp::RangeUpdate {
            lo: 3,
            hi: 3,
            delta: -17
        }));
        assert!(MixedOp::PointDelete { key: 0 }.shrunk().is_empty());
    }
}
