//! Seeded random-SQL fuzzing of the front-end (SQLsmith style, scaled to
//! this engine's dialect).
//!
//! Every generated query is born twice from one structure: rendered as SQL
//! text and hand-built as the engine AST the binder is supposed to produce.
//! The text is parsed and bound, the lowering must `Debug`-match the
//! hand-built statement exactly, and the statement then runs on all four
//! physical designs over the same preloaded table. Results are checked
//! across designs *and* against a local reference evaluation over the raw
//! rows — so a bug in the lexer, parser, binder, optimizer, or any design's
//! executor surfaces as a failure carrying the SQL text. Failures are
//! shrunk clause-by-clause (the structural analogue of the plan shrinker in
//! [`crate::shrink`](mod@crate::shrink)) and reported as a minimal SQL repro.
//!
//! Queries are well-typed by construction: the generator only draws columns
//! and literal domains from the harness schema `t(k, a, b)`, so every
//! failure is a real front-end or engine defect, never a type error.

use hpd_common::{AggFunc, CmpOp, Expr, Value};
use hpd_engine::{AggItem, ColRef, Database, IsolationLevel, SelectQuery, Statement, TableInput};
use hpd_workloads::history::{self, HistoryConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::driver::{
    create_design_table, harness_db_config, lower_sql, normalize_rows, RunOptions, DESIGNS, TABLE,
};

/// Column names of the harness table, ordinal-indexed.
const COLS: [&str; 3] = ["k", "a", "b"];

/// A comparison or range atom over one column and integer literals.
#[derive(Debug, Clone)]
enum Atom {
    Cmp(usize, CmpOp, i32),
    Between(usize, i32, i32),
}

/// One branch of an OR: an atom or a parenthesized two-atom AND.
#[derive(Debug, Clone)]
enum OrBranch {
    Atom(Atom),
    AndPair(Atom, Atom),
}

/// One top-level WHERE conjunct. Top-level ANDs are kept as a flat list
/// because the binder flattens them anyway when splitting per-table
/// predicates; nested ANDs only survive inside OR branches.
#[derive(Debug, Clone)]
enum Conj {
    Atom(Atom),
    Or(OrBranch, OrBranch),
}

/// Aggregate items the generator draws from (AVG is excluded: its
/// float-typed output does not survive the harness's integer row
/// normalization).
#[derive(Debug, Clone, Copy)]
enum Agg {
    CountStar,
    Count(usize),
    Sum(usize),
    Min(usize),
    Max(usize),
}

#[derive(Debug, Clone)]
enum Shape {
    /// Plain projection of distinct columns, in any order.
    Plain { cols: Vec<usize> },
    /// Global aggregates, no grouping.
    Agg { aggs: Vec<Agg> },
    /// GROUP BY one column with aggregates.
    Grouped { group: usize, aggs: Vec<Agg> },
}

/// A generated query: one structure, two renderings (SQL text and the
/// hand-built engine AST), plus a local reference evaluation.
#[derive(Debug, Clone)]
pub struct FuzzSelect {
    shape: Shape,
    conjuncts: Vec<Conj>,
    /// Output positions (0-based) with ascending flags.
    order_by: Vec<(usize, bool)>,
    /// Render ORDER BY keys as column names instead of 1-based positions
    /// (plain shape only — aggregate output names are not bare idents).
    order_by_names: bool,
    limit: Option<usize>,
}

// ---------------------------------------------------------------- generate

/// Generate one well-typed query against the harness schema.
pub fn gen_select(rng: &mut StdRng, cfg: &HistoryConfig) -> FuzzSelect {
    let shape = match rng.gen_range(0u32..5) {
        0..=2 => {
            let mut cols: Vec<usize> = (0..3).filter(|_| rng.gen_bool(0.6)).collect();
            if cols.is_empty() {
                cols.push(0);
            }
            cols.shuffle(rng);
            Shape::Plain { cols }
        }
        3 => Shape::Agg {
            aggs: gen_aggs(rng),
        },
        _ => Shape::Grouped {
            group: rng.gen_range(1..3),
            aggs: gen_aggs(rng),
        },
    };

    let n_conj = match rng.gen_range(0u32..10) {
        0..=1 => 0,
        2..=5 => 1,
        6..=8 => 2,
        _ => 3,
    };
    let conjuncts = (0..n_conj)
        .map(|_| {
            if rng.gen_bool(0.3) {
                Conj::Or(gen_branch(rng, cfg), gen_branch(rng, cfg))
            } else {
                Conj::Atom(gen_atom(rng, cfg))
            }
        })
        .collect();

    let mut fz = FuzzSelect {
        shape,
        conjuncts,
        order_by: Vec::new(),
        order_by_names: false,
        limit: None,
    };

    match &mut fz.shape {
        Shape::Plain { cols } => {
            if rng.gen_bool(0.25) {
                // LIMIT needs a total order: force `k` (unique) into the
                // projection and make it the single sort key.
                if !cols.contains(&0) {
                    cols.insert(0, 0);
                }
                let pos_k = cols.iter().position(|&c| c == 0).unwrap();
                fz.order_by = vec![(pos_k, rng.gen_bool(0.7))];
                fz.order_by_names = rng.gen_bool(0.5);
                fz.limit = Some(rng.gen_range(1..=cfg.initial_rows.max(1) as usize));
            } else if rng.gen_bool(0.4) {
                let arity = cols.len();
                let n = rng.gen_range(1..=arity.min(2));
                let mut positions: Vec<usize> = (0..arity).collect();
                positions.shuffle(rng);
                fz.order_by = positions
                    .into_iter()
                    .take(n)
                    .map(|p| (p, rng.gen_bool(0.7)))
                    .collect();
                fz.order_by_names = rng.gen_bool(0.5);
            }
        }
        Shape::Agg { aggs } | Shape::Grouped { aggs, .. } => {
            if rng.gen_bool(0.3) {
                let arity = aggs.len() + usize::from(matches!(fz.shape, Shape::Grouped { .. }));
                fz.order_by = vec![(rng.gen_range(0..arity), rng.gen_bool(0.7))];
            }
        }
    }
    fz
}

fn gen_aggs(rng: &mut StdRng) -> Vec<Agg> {
    let n = rng.gen_range(1..=3);
    (0..n)
        .map(|_| {
            let col = rng.gen_range(0..3);
            match rng.gen_range(0u32..5) {
                0 => Agg::CountStar,
                1 => Agg::Count(col),
                2 => Agg::Sum(col),
                3 => Agg::Min(col),
                _ => Agg::Max(col),
            }
        })
        .collect()
}

fn gen_branch(rng: &mut StdRng, cfg: &HistoryConfig) -> OrBranch {
    if rng.gen_bool(0.25) {
        OrBranch::AndPair(gen_atom(rng, cfg), gen_atom(rng, cfg))
    } else {
        OrBranch::Atom(gen_atom(rng, cfg))
    }
}

fn gen_atom(rng: &mut StdRng, cfg: &HistoryConfig) -> Atom {
    let col = rng.gen_range(0..3usize);
    // Literal domains straddle each column's value range so predicates are
    // selective but not vacuous; a little overhang exercises empty ranges.
    let lit = |rng: &mut StdRng| match col {
        0 => rng.gen_range(-4..cfg.initial_rows + 8),
        1 => rng.gen_range(-1..cfg.a_domain + 2),
        _ => rng.gen_range(-50..cfg.b_domain + 50),
    };
    if rng.gen_bool(0.3) {
        Atom::Between(col, lit(rng), lit(rng))
    } else {
        let op = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ][rng.gen_range(0..6usize)];
        Atom::Cmp(col, op, lit(rng))
    }
}

// ------------------------------------------------------------- render SQL

fn cmp_sql(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "<>",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn atom_sql(a: &Atom) -> String {
    match a {
        Atom::Cmp(c, op, v) => format!("{} {} {v}", COLS[*c], cmp_sql(*op)),
        Atom::Between(c, lo, hi) => format!("{} BETWEEN {lo} AND {hi}", COLS[*c]),
    }
}

fn branch_sql(b: &OrBranch) -> String {
    match b {
        OrBranch::Atom(a) => atom_sql(a),
        OrBranch::AndPair(a, b) => format!("({} AND {})", atom_sql(a), atom_sql(b)),
    }
}

fn conj_sql(c: &Conj) -> String {
    match c {
        Conj::Atom(a) => atom_sql(a),
        Conj::Or(l, r) => format!("({} OR {})", branch_sql(l), branch_sql(r)),
    }
}

fn agg_sql(a: &Agg) -> String {
    match a {
        Agg::CountStar => "COUNT(*)".into(),
        Agg::Count(c) => format!("COUNT({})", COLS[*c]),
        Agg::Sum(c) => format!("SUM({})", COLS[*c]),
        Agg::Min(c) => format!("MIN({})", COLS[*c]),
        Agg::Max(c) => format!("MAX({})", COLS[*c]),
    }
}

impl FuzzSelect {
    /// The SQL text of this query.
    pub fn sql(&self) -> String {
        let mut s = String::from("SELECT ");
        let out_names: Vec<String>;
        match &self.shape {
            Shape::Plain { cols } => {
                out_names = cols.iter().map(|&c| COLS[c].to_string()).collect();
                s.push_str(&out_names.join(", "));
            }
            Shape::Agg { aggs } => {
                out_names = aggs.iter().map(agg_sql).collect();
                s.push_str(&out_names.join(", "));
            }
            Shape::Grouped { group, aggs } => {
                out_names = std::iter::once(COLS[*group].to_string())
                    .chain(aggs.iter().map(agg_sql))
                    .collect();
                s.push_str(&out_names.join(", "));
            }
        }
        s.push_str(&format!(" FROM {TABLE}"));
        if !self.conjuncts.is_empty() {
            let parts: Vec<String> = self.conjuncts.iter().map(conj_sql).collect();
            s.push_str(" WHERE ");
            s.push_str(&parts.join(" AND "));
        }
        if let Shape::Grouped { group, .. } = &self.shape {
            s.push_str(&format!(" GROUP BY {}", COLS[*group]));
        }
        if !self.order_by.is_empty() {
            let keys: Vec<String> = self
                .order_by
                .iter()
                .map(|&(pos, asc)| {
                    let key = if self.order_by_names {
                        out_names[pos].clone()
                    } else {
                        (pos + 1).to_string()
                    };
                    if asc {
                        key
                    } else {
                        format!("{key} DESC")
                    }
                })
                .collect();
            s.push_str(" ORDER BY ");
            s.push_str(&keys.join(", "));
        }
        if let Some(n) = self.limit {
            s.push_str(&format!(" LIMIT {n}"));
        }
        s
    }

    /// The engine AST the binder must lower [`FuzzSelect::sql`] to,
    /// hand-built by mirroring the binder's documented lowering rules.
    pub fn statement(&self) -> Statement {
        let mut lowered: Vec<Expr> = self.conjuncts.iter().map(lower_conj).collect();
        let predicate = match lowered.len() {
            0 => None,
            1 => Some(lowered.pop().unwrap()),
            _ => Some(Expr::And(lowered)),
        };
        let tables = vec![TableInput {
            name: TABLE.to_string(),
            predicate,
        }];
        let (select, group_by, aggregates) = match &self.shape {
            Shape::Plain { cols } => (
                cols.iter().map(|&c| ColRef::new(0, c)).collect(),
                Vec::new(),
                Vec::new(),
            ),
            Shape::Agg { aggs } => (Vec::new(), Vec::new(), aggs.iter().map(lower_agg).collect()),
            Shape::Grouped { group, aggs } => (
                vec![ColRef::new(0, *group)],
                vec![ColRef::new(0, *group)],
                aggs.iter().map(lower_agg).collect(),
            ),
        };
        Statement::Select(SelectQuery {
            tables,
            joins: Vec::new(),
            group_by,
            aggregates,
            select,
            order_by: self.order_by.clone(),
            limit: self.limit,
        })
    }

    fn pred_matches(&self, r: (i32, i32, i32)) -> bool {
        self.conjuncts.iter().all(|c| eval_conj(c, r))
    }

    /// Reference evaluation over the raw rows, in the harness's normalized
    /// (sorted `i64`) row format.
    pub fn expected(&self, rows: &[(i32, i32, i32)]) -> Vec<Vec<i64>> {
        let matching: Vec<(i32, i32, i32)> = rows
            .iter()
            .copied()
            .filter(|&r| self.pred_matches(r))
            .collect();
        let mut out = match &self.shape {
            Shape::Plain { cols } => {
                let mut rows: Vec<Vec<i64>> = matching
                    .iter()
                    .map(|&r| cols.iter().map(|&c| i64::from(col_of(r, c))).collect())
                    .collect();
                if let Some(n) = self.limit {
                    // By construction the single sort key is the unique
                    // column `k`, so the limited prefix is well-defined.
                    let (pos, asc) = self.order_by[0];
                    rows.sort_by_key(|r| if asc { r[pos] } else { -r[pos] });
                    rows.truncate(n);
                }
                rows
            }
            Shape::Agg { aggs } => {
                vec![aggs.iter().map(|a| eval_agg(a, &matching)).collect()]
            }
            Shape::Grouped { group, aggs } => {
                let mut groups: std::collections::BTreeMap<i32, Vec<(i32, i32, i32)>> =
                    std::collections::BTreeMap::new();
                for r in matching {
                    groups.entry(col_of(r, *group)).or_default().push(r);
                }
                groups
                    .into_iter()
                    .map(|(g, rs)| {
                        std::iter::once(i64::from(g))
                            .chain(aggs.iter().map(|a| eval_agg(a, &rs)))
                            .collect()
                    })
                    .collect()
            }
        };
        out.sort_unstable();
        out
    }

    /// Structurally simpler variants that a shrink search tries, most
    /// aggressive first. Every variant is itself a valid query.
    fn shrunk(&self) -> Vec<FuzzSelect> {
        let mut out = Vec::new();
        for i in 0..self.conjuncts.len() {
            let mut fz = self.clone();
            fz.conjuncts.remove(i);
            out.push(fz);
        }
        for (i, c) in self.conjuncts.iter().enumerate() {
            if let Conj::Or(l, r) = c {
                for branch in [l, r] {
                    let atoms: Vec<Atom> = match branch {
                        OrBranch::Atom(a) => vec![a.clone()],
                        OrBranch::AndPair(a, b) => vec![a.clone(), b.clone()],
                    };
                    for a in atoms {
                        let mut fz = self.clone();
                        fz.conjuncts[i] = Conj::Atom(a);
                        out.push(fz);
                    }
                }
            }
        }
        if self.limit.is_some() || !self.order_by.is_empty() {
            let mut fz = self.clone();
            fz.limit = None;
            fz.order_by.clear();
            out.push(fz);
        }
        match &self.shape {
            Shape::Plain { cols } if cols.len() > 1 => {
                for i in 0..cols.len() {
                    let mut fz = self.clone();
                    if let Shape::Plain { cols } = &mut fz.shape {
                        cols.remove(i);
                    }
                    fz.limit = None;
                    fz.order_by.clear();
                    out.push(fz);
                }
            }
            Shape::Agg { aggs } | Shape::Grouped { aggs, .. } if aggs.len() > 1 => {
                for i in 0..aggs.len() {
                    let mut fz = self.clone();
                    match &mut fz.shape {
                        Shape::Agg { aggs } | Shape::Grouped { aggs, .. } => {
                            aggs.remove(i);
                        }
                        Shape::Plain { .. } => unreachable!(),
                    }
                    fz.limit = None;
                    fz.order_by.clear();
                    out.push(fz);
                }
            }
            Shape::Grouped { aggs, .. } => {
                // Drop the grouping entirely.
                let mut fz = self.clone();
                fz.shape = Shape::Agg { aggs: aggs.clone() };
                fz.limit = None;
                fz.order_by.clear();
                out.push(fz);
            }
            _ => {}
        }
        out
    }
}

fn col_of(r: (i32, i32, i32), c: usize) -> i32 {
    match c {
        0 => r.0,
        1 => r.1,
        _ => r.2,
    }
}

fn eval_atom(a: &Atom, r: (i32, i32, i32)) -> bool {
    match a {
        Atom::Cmp(c, op, v) => op.apply(col_of(r, *c).cmp(v)),
        Atom::Between(c, lo, hi) => {
            let x = col_of(r, *c);
            x >= *lo && x <= *hi
        }
    }
}

fn eval_conj(c: &Conj, r: (i32, i32, i32)) -> bool {
    match c {
        Conj::Atom(a) => eval_atom(a, r),
        Conj::Or(l, r2) => eval_branch(l, r) || eval_branch(r2, r),
    }
}

fn eval_branch(b: &OrBranch, r: (i32, i32, i32)) -> bool {
    match b {
        OrBranch::Atom(a) => eval_atom(a, r),
        OrBranch::AndPair(a, b) => eval_atom(a, r) && eval_atom(b, r),
    }
}

fn eval_agg(a: &Agg, rows: &[(i32, i32, i32)]) -> i64 {
    let vals = |c: usize| rows.iter().map(move |&r| i64::from(col_of(r, c)));
    // Empty aggregates yield zero, not NULL — the engine has no NULLs.
    match a {
        Agg::CountStar | Agg::Count(_) => rows.len() as i64,
        Agg::Sum(c) => vals(*c).sum(),
        Agg::Min(c) => vals(*c).min().unwrap_or(0),
        Agg::Max(c) => vals(*c).max().unwrap_or(0),
    }
}

fn lower_atom(a: &Atom) -> Expr {
    match a {
        Atom::Cmp(c, op, v) => Expr::Cmp {
            op: *op,
            lhs: Box::new(Expr::Col(*c)),
            rhs: Box::new(Expr::Lit(Value::Int32(*v))),
        },
        Atom::Between(c, lo, hi) => Expr::between(*c, Value::Int32(*lo), Value::Int32(*hi)),
    }
}

fn lower_branch(b: &OrBranch) -> Expr {
    match b {
        OrBranch::Atom(a) => lower_atom(a),
        OrBranch::AndPair(a, b) => Expr::And(vec![lower_atom(a), lower_atom(b)]),
    }
}

fn lower_conj(c: &Conj) -> Expr {
    match c {
        Conj::Atom(a) => lower_atom(a),
        Conj::Or(l, r) => Expr::Or(vec![lower_branch(l), lower_branch(r)]),
    }
}

fn lower_agg(a: &Agg) -> AggItem {
    match a {
        Agg::CountStar => AggItem::column(AggFunc::Count, ColRef::new(0, 0)),
        Agg::Count(c) => AggItem::column(AggFunc::Count, ColRef::new(0, *c)),
        Agg::Sum(c) => AggItem::column(AggFunc::Sum, ColRef::new(0, *c)),
        Agg::Min(c) => AggItem::column(AggFunc::Min, ColRef::new(0, *c)),
        Agg::Max(c) => AggItem::column(AggFunc::Max, ColRef::new(0, *c)),
    }
}

// --------------------------------------------------------------- checking

/// A confirmed, shrunk failure with its minimal SQL repro.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The query that first failed, as generated.
    pub sql: String,
    /// The minimal shrunk query that still fails.
    pub shrunk_sql: String,
    /// What went wrong on the shrunk query.
    pub detail: String,
}

impl std::fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "original: {}", self.sql)?;
        writeln!(f, "shrunk:   {}", self.shrunk_sql)?;
        write!(f, "{}", self.detail)
    }
}

/// Outcome of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    pub seed: u64,
    pub queries_run: usize,
    pub failure: Option<FuzzFailure>,
}

struct FuzzCtx {
    dbs: Vec<Database>,
    rows: Vec<(i32, i32, i32)>,
}

fn fuzz_cfg() -> HistoryConfig {
    HistoryConfig {
        initial_rows: 48,
        ..Default::default()
    }
}

fn build_ctx(seed: u64) -> FuzzCtx {
    let cfg = fuzz_cfg();
    let raw = history::initial_rows(seed, &cfg);
    let rows: Vec<(i32, i32, i32)> = raw
        .iter()
        .map(|r| {
            let v = r.values();
            (
                v[0].as_i32().unwrap(),
                v[1].as_i32().unwrap(),
                v[2].as_i32().unwrap(),
            )
        })
        .collect();
    let opts = RunOptions::default();
    let dbs = (0..DESIGNS.len())
        .map(|design| {
            let db = Database::new(harness_db_config(&opts));
            create_design_table(&db, design, cfg.initial_rows);
            db.load_table(TABLE, raw.clone()).expect("load fuzz rows");
            db
        })
        .collect();
    FuzzCtx { dbs, rows }
}

/// Check one query end to end; `None` means it agreed everywhere.
fn check(ctx: &FuzzCtx, fz: &FuzzSelect) -> Option<String> {
    let text = fz.sql();
    let hand = fz.statement();
    let lowered = match lower_sql(&ctx.dbs[0], &text) {
        Ok(s) => s,
        Err(e) => return Some(format!("SQL failed to parse/bind: {e}")),
    };
    let (l, h) = (format!("{lowered:?}"), format!("{hand:?}"));
    if l != h {
        return Some(format!(
            "SQL lowering differs from the hand-built AST\n  lowered:    {l}\n  hand-built: {h}"
        ));
    }
    let mut outs: Vec<Vec<Vec<i64>>> = Vec::with_capacity(DESIGNS.len());
    for (d, db) in ctx.dbs.iter().enumerate() {
        match db.session(IsolationLevel::ReadCommitted).run(&lowered) {
            Ok(r) => outs.push(normalize_rows(&r.rows)),
            Err(e) => {
                return Some(format!("design `{}` failed to execute: {e}", DESIGNS[d]));
            }
        }
    }
    if outs.iter().any(|o| o != &outs[0]) {
        let mut s = String::from("designs disagree on the result\n");
        for (d, o) in outs.iter().enumerate() {
            s.push_str(&format!("  {:>6}: {o:?}\n", DESIGNS[d]));
        }
        return Some(s);
    }
    let expected = fz.expected(&ctx.rows);
    if outs[0] != expected {
        return Some(format!(
            "designs agree but disagree with the reference evaluation\n  \
             designs:   {:?}\n  reference: {expected:?}",
            outs[0]
        ));
    }
    None
}

/// Greedily shrink a failing query to a (locally) minimal one that still
/// fails, mirroring the fixed-point loop of the plan shrinker.
fn shrink_select(ctx: &FuzzCtx, fz: &FuzzSelect) -> (FuzzSelect, String) {
    let mut cur = fz.clone();
    let mut detail = check(ctx, &cur).expect("shrink input must fail");
    loop {
        let mut improved = false;
        for cand in cur.shrunk() {
            if let Some(d) = check(ctx, &cand) {
                cur = cand;
                detail = d;
                improved = true;
                break;
            }
        }
        if !improved {
            return (cur, detail);
        }
    }
}

/// Run `queries` random queries for `seed`, stopping at (and shrinking) the
/// first failure. Deterministic in `seed`.
pub fn fuzz_selects(seed: u64, queries: usize) -> FuzzReport {
    let ctx = build_ctx(seed);
    let cfg = fuzz_cfg();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_F022);
    for i in 0..queries {
        let fz = gen_select(&mut rng, &cfg);
        if let Some(_first) = check(&ctx, &fz) {
            let (min, detail) = shrink_select(&ctx, &fz);
            hpd_obs::global().counter("harness.sqlfuzz.failures").inc();
            return FuzzReport {
                seed,
                queries_run: i + 1,
                failure: Some(FuzzFailure {
                    sql: fz.sql(),
                    shrunk_sql: min.sql(),
                    detail,
                }),
            };
        }
    }
    hpd_obs::global()
        .counter("harness.sqlfuzz.queries")
        .add(queries as u64);
    FuzzReport {
        seed,
        queries_run: queries,
        failure: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_seeds_of_random_sql_agree_everywhere() {
        for seed in 0..4 {
            let report = fuzz_selects(seed, 24);
            assert!(
                report.failure.is_none(),
                "seed {seed}:\n{}",
                report.failure.unwrap()
            );
        }
    }

    #[test]
    fn rendered_sql_round_trips_through_the_parser() {
        let cfg = fuzz_cfg();
        let mut rng = StdRng::seed_from_u64(99);
        let ctx = build_ctx(99);
        for _ in 0..64 {
            let fz = gen_select(&mut rng, &cfg);
            let text = fz.sql();
            let lowered = lower_sql(&ctx.dbs[0], &text)
                .unwrap_or_else(|e| panic!("`{text}` failed to lower: {e}"));
            assert_eq!(
                format!("{lowered:?}"),
                format!("{:?}", fz.statement()),
                "lowering mismatch for `{text}`"
            );
        }
    }

    #[test]
    fn a_seeded_failure_shrinks_to_a_smaller_query() {
        // Sanity-check the shrinker machinery itself: a query whose
        // reference evaluation we deliberately corrupt must shrink.
        let ctx = build_ctx(7);
        let cfg = fuzz_cfg();
        let mut rng = StdRng::seed_from_u64(7);
        // Find a generated query with at least two conjuncts.
        let fz = loop {
            let fz = gen_select(&mut rng, &cfg);
            if fz.conjuncts.len() >= 2 && check(&ctx, &fz).is_none() {
                break fz;
            }
        };
        // Dropping any conjunct must keep the query well-formed.
        for cand in fz.shrunk() {
            assert!(
                check(&ctx, &cand).is_none(),
                "shrink candidate `{}` fails on a healthy engine",
                cand.sql()
            );
        }
    }
}
