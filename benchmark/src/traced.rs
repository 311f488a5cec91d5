//! The traced run (`--trace 1`): per-layer numbers, never mixed into the
//! gated run's.
//!
//! Four phases share the run's seconds. *Untraced*: the gated client loop
//! on the hybrid instance, with a round on each baseline after every
//! fourth round, for the session timings, per-class latencies and the
//! design speed-ups. *Traced*: the same rounds, but the benchmark walks the
//! session pipeline itself — plan-cache lookup → bind → execute (with
//! analyze) → commit → inline maintenance — with a span around each call,
//! alternating with plain client rounds that tracing overhead is measured
//! against. *Engine tracing*: the cheapest select class with the engine's
//! own tracer switched on and off. *Probes*: direct calls into each layer,
//! then the end state and a recovery.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hpd_advisor::{Advisor, AdvisorOptions, Workload as AdvisorWorkload};
use hpd_common::{HpdError, Result};
use hpd_engine::{
    AnalyzeReport, Database, DbConfig, ExecutionResult, IsolationLevel, SelectQuery, Statement,
};
use hpd_sql::{bind, Bound, PlanCache, SqlOutput};

use crate::client::{Client, Counts, Tally, MAINTENANCE_BUDGET_ROWS, MAINTENANCE_EVERY};
use crate::gated::{
    add_noise, check_and_recover, latency_us, setup, stored_and_user_bytes, timed_loop, TableBytes,
    DISCARDED_ROUNDS,
};
use crate::metrics::PER_LAYER;
use crate::noise::NoiseGauge;
use crate::probes::{self, TableSample};
use crate::report::Outcome;
use crate::spans::{SpanLog, NO_PARENT};
use crate::stats::{median, median_round_throughput, percentile};
use crate::workloads::{Design, Instance, RoundGen, Stmt, Workload};

pub struct TracedOptions<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub out_dir: &'a Path,
}

/// Shares of the run's seconds.
const UNTRACED_SHARE: f64 = 0.30;
const TRACED_SHARE: f64 = 0.40;
const ENGINE_TRACING_SHARE: f64 = 0.08;
/// A round on each baseline after every this many hybrid rounds.
const BASELINE_EVERY: usize = 4;
/// Spans written to the JSONL file; all of them are counted.
const SPAN_FILE_CAP: usize = 50_000;

/// Operator families: the per-layer metric and the first words of the
/// plan-node labels it sums.
const OPERATORS: [(&str, &[&str]); 8] = [
    ("exec.hashjoin_us", &["HashJoin"]),
    ("exec.indexnljoin_us", &["IndexNLJoin"]),
    ("exec.hashagg_us", &["HashAgg"]),
    ("exec.streamagg_us", &["StreamAgg"]),
    ("exec.sort_us", &["Sort"]),
    ("exec.filter_us", &["Filter"]),
    ("exec.btreescan_us", &["BTreeSeek", "BTreeScan", "PkLookup"]),
    ("exec.csiscan_us", &["CsiScan", "CsiAgg"]),
];

/// What the traced statements added up to, beyond their spans.
#[derive(Default)]
struct Totals {
    statements: u64,
    write_statements: u64,
    /// Self time per operator metric, ns.
    operator_ns: BTreeMap<&'static str, u64>,
    other_operator_ns: u64,
    grant_wait_us: Vec<f64>,
    spilled_bytes: u64,
    physical_reads: u64,
    device_bytes: u64,
    sim_seek_us: f64,
    sim_transfer_us: f64,
    /// `actual / estimated` rows at the plan root, folded to ≥ 1.
    qerror: Vec<f64>,
    /// `modelled µs / estimated cost µs`, folded to ≥ 1.
    cost_error: Vec<f64>,
    maintenance_us: Vec<f64>,
    maintenance_rows_moved: u64,
}

impl Totals {
    fn fold_analyze(&mut self, report: &AnalyzeReport, modelled_us: f64) {
        let nodes = &report.nodes;
        for (i, node) in nodes.iter().enumerate() {
            // Pre-order: a node's children are the following nodes one
            // level deeper, up to the next node at its own depth or above.
            let children_ns: u64 = nodes[i + 1..]
                .iter()
                .take_while(|c| c.depth > node.depth)
                .filter(|c| c.depth == node.depth + 1)
                .map(|c| c.wall.as_nanos() as u64)
                .sum();
            let own = (node.wall.as_nanos() as u64).saturating_sub(children_ns);
            let word = node.label.split_whitespace().next().unwrap_or("");
            match OPERATORS.iter().find(|(_, words)| words.contains(&word)) {
                Some((metric, _)) => *self.operator_ns.entry(metric).or_insert(0) += own,
                None => self.other_operator_ns += own,
            }
        }
        if let Some(g) = &report.grant {
            self.grant_wait_us.push(g.wait_us as f64);
        }
        self.spilled_bytes += report.spilled_bytes();
        let root = report.root();
        let q = root.estimate_error();
        self.qerror.push(q.max(1.0 / q));
        if report.est_cost_us > 0.0 && modelled_us > 0.0 {
            let c = modelled_us / report.est_cost_us;
            self.cost_error.push(c.max(1.0 / c));
        }
    }

    fn fold_result(&mut self, r: &ExecutionResult, is_select: bool) {
        self.statements += 1;
        if !is_select {
            self.write_statements += 1;
        }
        self.physical_reads += r.metrics.io.physical_reads;
        self.device_bytes += r.metrics.io.bytes_read + r.metrics.io.bytes_written;
        self.sim_seek_us += r.metrics.io.sim_seek_us;
        self.sim_transfer_us += r.metrics.io.sim_bw_us;
        if let Some(report) = r.analyze.as_deref() {
            self.fold_analyze(report, r.metrics.elapsed_us());
        }
    }
}

/// The benchmark's own walk of the session pipeline, one span per call.
struct Walker<'db> {
    db: &'db Database,
    cache: Arc<PlanCache>,
    maintenance_table: &'static str,
    since_maintenance: usize,
    log: SpanLog,
    totals: Totals,
    tally: Tally,
}

impl<'db> Walker<'db> {
    fn statement(&mut self, stmt: &Stmt, id: u32) -> Result<SqlOutput> {
        let root = self.log.open("stmt", NO_PARENT, id);
        let out = self.statement_inner(stmt, root, id);
        self.log.close(root);
        out
    }

    fn statement_inner(&mut self, stmt: &Stmt, root: u32, id: u32) -> Result<SqlOutput> {
        let s = self.log.open("sql.prepare", root, id);
        let looked_up = self.cache.lookup(self.db, &stmt.sql);
        self.log.close(s);
        let (template, slots) = looked_up.map_err(HpdError::from)?;

        let s = self.log.open("sql.bind", root, id);
        let params: Vec<_> = slots
            .unwrap_or_default()
            .into_iter()
            .map(|v| v.expect("generated statements carry no `?` placeholders"))
            .collect();
        let bound = bind(self.db, &template, &params);
        self.log.close(s);
        let Bound::Stmt(statement) = bound.map_err(HpdError::from)? else {
            return Err(HpdError::Internal(format!(
                "`{}` is not a query or DML statement",
                stmt.sql
            )));
        };

        let s = self.log.open("engine.execute", root, id);
        let mut txn = self.db.session(IsolationLevel::ReadCommitted).begin();
        let executed = match &statement {
            Statement::Select(q) => txn.select_analyzed(q),
            other => txn.execute(other),
        };
        self.log.close(s);
        let result = match executed {
            Ok(r) => r,
            Err(e) => {
                txn.abort();
                return Err(e);
            }
        };
        // The optimizer runs inside the execute call; the statement's own
        // analyze timeline says how long it took.
        if let Some(t) = result.analyze.as_deref().and_then(|a| a.timeline.as_ref()) {
            self.log
                .insert_child("engine.optimize", s, t.optimize_us * 1_000);
        }

        let s = self.log.open("engine.commit", root, id);
        let committed = txn.commit();
        self.log.close(s);
        committed?;

        let is_select = matches!(statement, Statement::Select(_));
        self.totals.fold_result(&result, is_select);
        Ok(if is_select {
            SqlOutput::Rows {
                columns: Vec::new(),
                rows: result.rows,
            }
        } else {
            SqlOutput::Affected(
                result
                    .rows
                    .first()
                    .and_then(|r| r.values().first())
                    .and_then(|v| v.as_i64())
                    .unwrap_or(0) as u64,
            )
        })
    }

    /// One traced round of `stmts`; returns `(statements, wall ns)`.
    fn round(&mut self, gen: &mut dyn RoundGen, stmts: Vec<Stmt>) -> (usize, u64) {
        let mut outputs = Vec::with_capacity(stmts.len());
        let start = Instant::now();
        for stmt in &stmts {
            let id = self.tally.attempted as u32 + outputs.len() as u32;
            outputs.push(self.statement(stmt, id));
            self.since_maintenance += 1;
            if self.since_maintenance == MAINTENANCE_EVERY {
                self.since_maintenance = 0;
                let s = self.log.open("engine.maintenance", NO_PARENT, u32::MAX);
                let report = self
                    .db
                    .maintenance(self.maintenance_table)
                    .budget_rows(MAINTENANCE_BUDGET_ROWS)
                    .run();
                self.log.close(s);
                let span = self.log.spans()[s as usize];
                self.totals
                    .maintenance_us
                    .push((span.end_ns - span.start_ns) as f64 / 1e3);
                match report {
                    Ok(r) => self.totals.maintenance_rows_moved += r.rows_moved as u64,
                    Err(e) => self
                        .tally
                        .note_problem(format!("maintenance increment: {e}")),
                }
            }
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        let statements = stmts.len();
        self.tally.check(gen, &stmts, outputs);
        (statements, wall_ns)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Nearest-rank percentile of an unsorted sample; 0 for an empty one.
fn p(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, q)
}

fn class_medians(latencies: &[(u16, u64)], classes: usize) -> Vec<f64> {
    (0..classes)
        .map(|c| latency_us(latencies, Some(c as u16), 0.5).unwrap_or(0.0))
        .collect()
}

fn is_select(sql: &str) -> bool {
    sql.trim_start()
        .get(..6)
        .is_some_and(|w| w.eq_ignore_ascii_case("select"))
}

/// What the phases fill in: statement counts and problems, per-layer
/// metric values by name, and the run's detail numbers.
struct Findings {
    counts: Counts,
    values: BTreeMap<&'static str, f64>,
    out: Outcome,
}

/// What the untraced phase hands to the later ones.
struct Untraced {
    /// Median latency per class on the hybrid instance, µs.
    class_p50_us: Vec<f64>,
    /// The hybrid instance's last round, every statement executed.
    last_round: Vec<Stmt>,
}

/// Gated-style rounds on the hybrid instance, a round on each baseline
/// after every fourth: per-class latencies and the design speed-ups
/// (Σ of class medians, baseline ÷ hybrid).
fn untraced_phase(
    w: &dyn Workload,
    seconds: f64,
    hybrid: &mut Instance,
    baselines: &mut [Instance],
    found: &mut Findings,
) -> Untraced {
    let classes = w.classes();
    let mut baseline_latencies = vec![Vec::new(); baselines.len()];
    let Instance { db, gen, .. } = hybrid;
    let mut client = Client::new(db, w.maintenance_table());
    let mut baseline_clients: Vec<(Client<'_>, &mut Box<dyn RoundGen>)> = baselines
        .iter_mut()
        .map(|b| (Client::new(&b.db, w.maintenance_table()), &mut b.gen))
        .collect();
    for (c, g) in &mut baseline_clients {
        for _ in 0..DISCARDED_ROUNDS {
            c.run_round(g.as_mut(), None);
        }
    }
    let timed = timed_loop(&mut client, gen.as_mut(), seconds, |round| {
        if round % BASELINE_EVERY == 0 {
            for ((c, g), sink) in baseline_clients.iter_mut().zip(&mut baseline_latencies) {
                c.run_round(g.as_mut(), Some(sink));
            }
        }
    });
    found.counts.add(&client.tally);
    for (c, _) in &baseline_clients {
        found.counts.add(&c.tally);
    }

    // The statement timings of the gated run, which this machine is too
    // unsteady to gate on, as the traced run's plain client saw them.
    let t = timed.timings();
    for (key, v) in [
        ("session.stmt_per_s", t.stmt_per_s),
        ("session.stmt_p50_us", t.p50_us),
        ("session.stmt_p99_us", t.p99_us),
        ("session.cpu_us_per_stmt", t.cpu_us_per_stmt),
        ("session.modelled_us_per_stmt", t.modelled_us_per_stmt),
    ] {
        found.values.insert(key, v);
    }
    found
        .out
        .detail_num("untraced_statements", t.statements as f64);
    let class_p50_us = class_medians(&timed.latencies, classes.len());
    for (c, name) in classes.iter().enumerate() {
        found
            .out
            .detail_num(&format!("session.{name}_p50_us"), class_p50_us[c]);
        if let Some(p99) = latency_us(&timed.latencies, Some(c as u16), 0.99) {
            found.out.detail_num(&format!("session.{name}_p99_us"), p99);
        }
    }
    found.values.insert(
        "session.fastest_class_p50_us",
        class_p50_us.iter().copied().fold(f64::INFINITY, f64::min),
    );
    found.values.insert(
        "session.slowest_class_p50_us",
        class_p50_us.iter().copied().fold(0.0, f64::max),
    );
    let hybrid_sum: f64 = class_p50_us.iter().sum();
    let mut best_baseline = vec![f64::INFINITY; classes.len()];
    for ((design, latencies), key) in Design::BASELINES
        .iter()
        .zip(&baseline_latencies)
        .zip(["core.speedup_vs_btree_only", "core.speedup_vs_csi_only"])
    {
        let medians = class_medians(latencies, classes.len());
        found
            .values
            .insert(key, medians.iter().sum::<f64>() / hybrid_sum.max(1e-9));
        for (c, name) in classes.iter().enumerate() {
            found
                .out
                .detail_num(&format!("baseline.{design:?}.{name}_p50_us"), medians[c]);
            best_baseline[c] = best_baseline[c].min(medians[c]);
        }
    }
    found.values.insert(
        "core.classes_slower_than_best_baseline",
        class_p50_us
            .iter()
            .zip(&best_baseline)
            .filter(|(h, b)| **h > **b * 1.05)
            .count() as f64,
    );
    Untraced {
        class_p50_us,
        last_round: client.last_round().to_vec(),
    }
}

/// The walked rounds: the latency budget from span self times, operator
/// self times from analyze, and registry counts per traced statement.
/// Every walked round is paired with one through the plain client on the
/// same instance, so tracing overhead compares like with like: same heap,
/// same cache state, same minute on the machine.
fn traced_phase(
    w: &dyn Workload,
    seconds: f64,
    hybrid: &mut Instance,
    found: &mut Findings,
) -> SpanLog {
    let Instance { db, gen, .. } = hybrid;
    let mut walker = Walker {
        db,
        cache: Arc::new(PlanCache::new(256)),
        maintenance_table: w.maintenance_table(),
        since_maintenance: 0,
        log: SpanLog::new(),
        totals: Totals::default(),
        tally: Tally::default(),
    };
    let mut plain = Client::new(db, w.maintenance_table());
    // One unrecorded round fills each side's plan cache.
    let first = gen.next_round();
    walker.round(gen.as_mut(), first);
    plain.run_round(gen.as_mut(), None);
    walker.log = SpanLog::new();
    walker.totals = Totals::default();
    // Registry counts of the walked rounds only.
    let mut counted: BTreeMap<String, u64> = BTreeMap::new();
    let mut walk = |gen: &mut dyn RoundGen, stmts: Vec<Stmt>| {
        let before = hpd_obs::global().snapshot();
        let (n, wall_ns) = walker.round(gen, stmts);
        for (name, v) in hpd_obs::global().snapshot().delta(&before).counters {
            *counted.entry(name).or_insert(0) += v;
        }
        (n, wall_ns as f64 / 1e9)
    };
    let mut send_plain = |gen: &mut dyn RoundGen, stmts: Vec<Stmt>| {
        let r = plain.run_statements(gen, stmts, None);
        (r.statements, r.wall_ns as f64 / 1e9)
    };
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut plain_rounds = Vec::new();
    while start.elapsed().as_secs_f64() < seconds || rounds.is_empty() {
        let stmts = gen.next_round();
        // A read-only round is sent both ways, so the two sides do the
        // same work (window positions decide a scan round's cost), and the
        // side that goes first alternates, since the second finds the
        // first's pages in the pool. A round that writes cannot be
        // replayed: there the plain side gets the next round.
        let replay = stmts.iter().all(|s| is_select(&s.sql));
        let plain_stmts = if replay {
            stmts.clone()
        } else {
            gen.next_round()
        };
        if replay && rounds.len() % 2 == 1 {
            plain_rounds.push(send_plain(gen.as_mut(), plain_stmts));
            rounds.push(walk(gen.as_mut(), stmts));
        } else {
            rounds.push(walk(gen.as_mut(), stmts));
            plain_rounds.push(send_plain(gen.as_mut(), plain_stmts));
        }
    }
    found.counts.add(&plain.tally);
    found.counts.add(&walker.tally);
    let Walker { log, totals, .. } = walker;
    let n = totals.statements.max(1) as f64;
    let c = |name: &str| counted.get(name).copied().unwrap_or(0);

    // Latency budget: shares of statement + maintenance wall time.
    let own = log.self_time_by_name();
    let own_ns = |name: &str| own.get(name).copied().unwrap_or(0) as f64;
    let stmt_total = log.total_by_name().get("stmt").copied().unwrap_or(0) as f64;
    let maintenance_total = own_ns("engine.maintenance");
    let budget_total = (stmt_total + maintenance_total).max(1.0);
    for (key, ns) in [
        (
            "budget.sql_frac",
            own_ns("sql.prepare") + own_ns("sql.bind"),
        ),
        ("budget.optimize_frac", own_ns("engine.optimize")),
        ("budget.execute_frac", own_ns("engine.execute")),
        ("budget.commit_frac", own_ns("engine.commit")),
        ("budget.maintenance_frac", maintenance_total),
        ("budget.unattributed_frac", own_ns("stmt")),
    ] {
        found.values.insert(key, ns / budget_total);
    }
    let coverage = 1.0 - own_ns("stmt") / stmt_total.max(1.0);
    found.values.insert("bench.span_coverage_frac", coverage);
    if coverage < 0.9 {
        found.counts.problems.push(format!(
            "spans cover only {:.1} % of statement wall time",
            coverage * 100.0
        ));
    }
    // Both sides did the same work (or, where rounds write, the same
    // number of like rounds): compare statements over total time.
    let per_s = |rounds: &[(usize, f64)]| {
        let (n, wall): (usize, f64) = rounds
            .iter()
            .fold((0, 0.0), |acc, r| (acc.0 + r.0, acc.1 + r.1));
        n as f64 / wall.max(1e-9)
    };
    found.values.insert(
        "bench.trace_overhead_frac",
        1.0 - per_s(&rounds) / per_s(&plain_rounds),
    );
    let traced_per_s = median_round_throughput(&rounds);
    found
        .values
        .insert("engine.execute_us", own_ns("engine.execute") / 1e3 / n);
    found
        .values
        .insert("engine.commit_us", own_ns("engine.commit") / 1e3 / n);

    for (metric, _) in OPERATORS {
        let ns = totals.operator_ns.get(metric).copied().unwrap_or(0);
        found.values.insert(metric, ns as f64 / 1e3 / n);
    }
    found.out.detail_num(
        "exec.other_operators_us",
        totals.other_operator_ns as f64 / 1e3 / n,
    );
    let writes = totals.write_statements as f64;
    let per_write = |count: u64| {
        if totals.write_statements == 0 {
            0.0
        } else {
            count as f64 / writes
        }
    };
    let share = |hit: &str, miss: &str| ratio(c(hit), c(hit) + c(miss));
    for (key, v) in [
        (
            "sql.plancache_hit_ratio",
            share("sql.plancache.hit", "sql.plancache.miss"),
        ),
        (
            "engine.plan_leaf_btree_per_stmt",
            c("optimizer.leaf_btree") as f64 / n,
        ),
        (
            "engine.plan_leaf_csi_per_stmt",
            c("optimizer.leaf_csi") as f64 / n,
        ),
        (
            "engine.plan_hybrid_frac",
            ratio(c("optimizer.hybrid_plans"), c("optimizer.plans")),
        ),
        (
            "engine.partitions_pruned_frac",
            share("partition.pruned", "partition.scanned"),
        ),
        ("engine.qerror_p50", p(&totals.qerror, 0.5).max(1.0)),
        ("engine.qerror_p95", p(&totals.qerror, 0.95).max(1.0)),
        (
            "engine.cost_error_p95",
            p(&totals.cost_error, 0.95).max(1.0),
        ),
        (
            "engine.maintenance_increment_p50_us",
            p(&totals.maintenance_us, 0.5),
        ),
        (
            "engine.maintenance_rows_moved_per_kstmt",
            totals.maintenance_rows_moved as f64 / n * 1e3,
        ),
        ("exec.grant_wait_us_p50", p(&totals.grant_wait_us, 0.5)),
        (
            "exec.spilled_bytes_per_stmt",
            totals.spilled_bytes as f64 / n,
        ),
        (
            "columnstore.rows_pruned_rowgroup_per_stmt",
            c("columnstore.scan.rows_pruned_rowgroup") as f64 / n,
        ),
        (
            "columnstore.rows_pruned_kernel_per_stmt",
            (c("columnstore.scan.rows_pruned_run") + c("columnstore.scan.rows_pruned_row")) as f64
                / n,
        ),
        (
            "columnstore.rows_selected_per_stmt",
            c("columnstore.scan.rows_selected") as f64 / n,
        ),
        (
            "columnstore.segcache_hit_ratio",
            share("columnstore.segcache.hit", "columnstore.segcache.miss"),
        ),
        (
            "columnstore.agg_pushdown_ratio",
            share(
                "columnstore.agg.pushdown_rowgroups",
                "columnstore.agg.fallback_rowgroups",
            ),
        ),
        (
            "storage.bufferpool_hit_ratio",
            share("storage.bufferpool.hit", "storage.bufferpool.miss"),
        ),
        (
            "storage.bufferpool_evictions_per_stmt",
            c("storage.bufferpool.evict") as f64 / n,
        ),
        (
            "storage.physical_reads_per_stmt",
            totals.physical_reads as f64 / n,
        ),
        (
            "storage.device_bytes_per_stmt",
            totals.device_bytes as f64 / n,
        ),
        ("storage.sim_seek_us_per_stmt", totals.sim_seek_us / n),
        (
            "storage.sim_transfer_us_per_stmt",
            totals.sim_transfer_us / n,
        ),
        ("wal.bytes_per_stmt", c("wal.append.bytes") as f64 / n),
        (
            "wal.records_per_write_commit",
            per_write(c("wal.append.records")),
        ),
        (
            "wal.flushes_per_write_commit",
            per_write(c("wal.flush.count")),
        ),
        ("wal.checkpoint_bytes", c("wal.checkpoint.bytes") as f64),
    ] {
        found.values.insert(key, v);
    }
    found.out.detail_num("traced_stmt_per_s", traced_per_s);
    found
        .out
        .detail_num("traced_statements", totals.statements as f64);
    found.out.detail_num("spans", log.spans().len() as f64);
    log
}

/// The engine's own tracer on against off. The cheapest select class is
/// where a per-statement cost shows most: its statements of the last round
/// are replayed with the tracer on and off, alternating so that drift hits
/// both sides alike.
fn engine_tracing_phase(
    seconds: f64,
    db: &Database,
    untraced: &Untraced,
    found: &mut Findings,
) -> Result<()> {
    let fastest_select = (0..untraced.class_p50_us.len())
        .filter(|&c| {
            untraced
                .last_round
                .iter()
                .any(|s| s.class == c && is_select(&s.sql))
        })
        .min_by(|&a, &b| untraced.class_p50_us[a].total_cmp(&untraced.class_p50_us[b]));
    let texts: Vec<&str> = untraced
        .last_round
        .iter()
        .filter(|s| Some(s.class) == fastest_select)
        .map(|s| s.sql.as_str())
        .collect();
    let mut session = hpd_sql::SqlSession::new(db);
    let tracer = hpd_obs::trace::tracer();
    let mut pass = |enabled: bool| -> Result<f64> {
        tracer.set_enabled(enabled);
        let t = Instant::now();
        for text in &texts {
            session.execute_one(text)?;
        }
        let ns = t.elapsed().as_nanos() as f64;
        // The rings are bounded, but a later pass must not pay for
        // draining what this one recorded.
        std::hint::black_box(tracer.drain().len());
        Ok(ns)
    };
    pass(false)?;
    let mut overheads = Vec::new();
    let start = Instant::now();
    while !texts.is_empty() && (start.elapsed().as_secs_f64() < seconds || overheads.len() < 5) {
        let (on, off) = (pass(true)?, pass(false)?);
        overheads.push(on / off.max(1.0) - 1.0);
    }
    tracer.set_enabled(false);
    found.values.insert(
        "obs.engine_tracing_overhead_frac",
        if overheads.is_empty() {
            0.0
        } else {
            median(&overheads)
        },
    );
    found
        .out
        .detail_num("engine_tracing_passes", overheads.len() as f64);
    Ok(())
}

/// Run the advisor over select statements: what a hybrid recommendation
/// for this workload costs. Returns `(seconds, what-if calls)`.
fn advisor_probe(db: &Database, selects: &[SelectQuery]) -> Result<(f64, u64)> {
    let before = hpd_obs::global().snapshot();
    let t = Instant::now();
    Advisor::new(db, AdvisorOptions::default())
        .recommend(&AdvisorWorkload::read_only(selects.to_vec()))?;
    let s = t.elapsed().as_secs_f64();
    let calls = hpd_obs::global()
        .snapshot()
        .delta(&before)
        .counter("advisor.whatif.calls");
    Ok((s, calls))
}

/// One select per distinct plan-cache key, so the advisor sees each
/// statement class once.
fn distinct_shapes(selects: &[(String, SelectQuery)]) -> Vec<SelectQuery> {
    let mut seen = std::collections::BTreeSet::new();
    selects
        .iter()
        .filter(|(text, _)| {
            let key = hpd_sql::normalize(text).map(|n| n.key).unwrap_or_default();
            seen.insert(key)
        })
        .map(|(_, q)| q.clone())
        .collect()
}

/// Direct calls into each layer, and the advisor over the workload's own
/// selects. Returns the bound selects of the last round.
fn probe_phase(
    w: &dyn Workload,
    hybrid: &Instance,
    untraced: &Untraced,
    found: &mut Findings,
) -> Result<Vec<SelectQuery>> {
    let texts: Vec<String> = untraced.last_round.iter().map(|s| s.sql.clone()).collect();
    let device = w.config().device;
    let (mut probed, selects) = probes::front_end(&hybrid.db, &texts)?;
    let sample = TableSample::take(&hybrid.db, w.maintenance_table())?;
    probed.extend(probes::btree(&sample)?);
    probed.extend(probes::columnstore(&sample)?);
    probed.extend(probes::storage(device));
    probed.extend(probes::wal(device, &sample.rows[0]));
    probed.extend(probes::exec(&sample)?);
    for (name, v) in probed {
        found.values.insert(name, v);
    }

    // Where the set-up ran the advisor itself (dss), that run is the
    // measurement.
    let setup: BTreeMap<&str, f64> = hybrid.detail.iter().copied().collect();
    let (recommend_s, whatif_calls) =
        match (setup.get("recommend_s"), setup.get("advisor_whatif_calls")) {
            (Some(s), Some(calls)) => (*s, *calls as u64),
            _ => advisor_probe(&hybrid.db, &distinct_shapes(&selects))?,
        };
    found.values.insert("core.recommend_hybrid_s", recommend_s);
    found
        .values
        .insert("core.whatif_calls", whatif_calls as f64);
    found.values.insert(
        "core.us_per_whatif",
        recommend_s * 1e6 / whatif_calls.max(1) as f64,
    );
    Ok(selects.into_iter().map(|(_, q)| q).collect())
}

/// Index shapes and backlogs at the end of the run, the correctness gate
/// with one recovery, and the modelled DOP-2 speed-up.
fn end_state(
    w: &dyn Workload,
    hybrid: &Instance,
    selects: &[SelectQuery],
    found: &mut Findings,
) -> Result<()> {
    let (mut btree_bytes, mut btree_rows, mut csi_bytes, mut csi_rows) = (0u64, 0u64, 0u64, 0u64);
    let (mut height, mut leaf_pages, mut delta, mut delete_buffer) = (0u64, 0u64, 0u64, 0u64);
    let mut rowgroups = 0u64;
    for table in w.tables() {
        hybrid.db.with_table(table, |t| {
            for m in (0..t.num_parts()).flat_map(|part| t.part_metas(part)) {
                if m.descriptor.is_csi() {
                    csi_bytes += m.size_bytes() as u64;
                    csi_rows += m.rows as u64;
                    rowgroups += m.rowgroups as u64;
                    delta += m.delta_rows as u64;
                    delete_buffer += m.delete_buffer_rows as u64;
                } else {
                    btree_bytes += m.size_bytes() as u64;
                    btree_rows += m.rows as u64;
                    leaf_pages += m.leaf_pages as u64;
                    height = height.max(m.height as u64);
                }
            }
        })?;
    }
    found.values.insert("btree.height", height as f64);
    found.values.insert("btree.leaf_pages", leaf_pages as f64);
    found
        .values
        .insert("btree.bytes_per_row", ratio(btree_bytes, btree_rows));
    found
        .values
        .insert("columnstore.bytes_per_row", ratio(csi_bytes, csi_rows));
    found
        .values
        .insert("columnstore.rowgroups_end", rowgroups as f64);
    found
        .values
        .insert("columnstore.delta_rows_end", delta as f64);
    found
        .values
        .insert("columnstore.delete_buffer_end", delete_buffer as f64);
    found
        .values
        .insert("engine.backlog_rows_end", (delta + delete_buffer) as f64);

    let tables = stored_and_user_bytes(w, &hybrid.db)?;
    let total = |f: fn(&TableBytes) -> u64| tables.iter().map(f).sum::<u64>();
    let user_bytes = total(|t| t.user_bytes);
    found
        .out
        .detail_num("stored_bytes", total(|t| t.stored_bytes) as f64);
    found.out.detail_num("rows", total(|t| t.rows) as f64);
    let durable = hybrid.db.wal_durable();
    found.values.insert(
        "wal.log_bytes_per_user_byte",
        (durable.log.len() + durable.checkpoint.as_ref().map_or(0, Vec::len)) as f64
            / user_bytes.max(1) as f64,
    );

    let after = check_and_recover(w, hybrid)?;
    found.counts.problems.extend(after.problems);
    found.values.insert("engine.recover_s", after.recover_s);
    found.values.insert(
        "engine.recover_rows_per_s",
        after.recovered_rows as f64 / after.recover_s.max(1e-9),
    );

    // The measured instance has no worker threads, so a DOP-2 plan cannot
    // run on it: recover a copy that owns one, and time the select the
    // optimizer thinks costliest at DOP 1 and 2 on the modelled
    // (critical-path, simulated-device) clock.
    let costliest = selects.iter().max_by(|a, b| {
        let cost = |q: &SelectQuery| hybrid.db.plan(q).map_or(0.0, |p| p.est_cost_us);
        cost(a).total_cmp(&cost(b))
    });
    let speedup = match costliest {
        None => 1.0,
        Some(q) => {
            let parallel = Database::recover(
                DbConfig {
                    worker_threads: 1,
                    ..w.config()
                },
                durable,
            )?;
            let modelled = |dop: usize| -> Result<f64> {
                let runs: Result<Vec<f64>> = (0..3)
                    .map(|_| Ok(parallel.query(q).dop(dop).run()?.metrics.elapsed_us()))
                    .collect();
                Ok(median(&runs?))
            };
            modelled(1)? / modelled(2)?.max(1e-9)
        }
    };
    found.values.insert("exec.dop2_modelled_speedup", speedup);
    Ok(())
}

pub fn run(w: &dyn Workload, opts: &TracedOptions) -> Result<Outcome> {
    let gauge = NoiseGauge::start();
    let mut found = Findings {
        counts: Counts::default(),
        values: BTreeMap::new(),
        out: Outcome::new(w.name(), opts.seed, true),
    };
    // One set-up per design; `setup_s` belongs to the gated run.
    let mut hybrid = setup(w, opts.seed, Design::Hybrid, &mut found.counts)?;
    let mut baselines = Vec::new();
    for design in Design::BASELINES {
        baselines.push(setup(w, opts.seed, design, &mut found.counts)?);
    }
    for (k, v) in &hybrid.detail {
        found.out.detail_num(&format!("setup.{k}"), *v);
    }

    let untraced = untraced_phase(
        w,
        opts.seconds * UNTRACED_SHARE,
        &mut hybrid,
        &mut baselines,
        &mut found,
    );
    drop(baselines);
    let spans = traced_phase(w, opts.seconds * TRACED_SHARE, &mut hybrid, &mut found);
    engine_tracing_phase(
        opts.seconds * ENGINE_TRACING_SHARE,
        &hybrid.db,
        &untraced,
        &mut found,
    )?;
    let selects = probe_phase(w, &hybrid, &untraced, &mut found)?;
    end_state(w, &hybrid, &selects, &mut found)?;

    let Findings {
        counts,
        mut values,
        mut out,
    } = found;
    let noise = gauge.finish();
    values.insert("bench.runqueue_wait_frac", noise.runqueue_wait_frac);
    values.insert("bench.steal_frac", noise.steal_frac);
    values.insert(
        "bench.calib_spin_ms",
        (noise.calib_spin_before_ms + noise.calib_spin_after_ms) / 2.0,
    );
    add_noise(&mut out, &noise);

    std::fs::create_dir_all(opts.out_dir)
        .and_then(|()| {
            spans.write_jsonl(
                &opts
                    .out_dir
                    .join(format!("{}-seed{}.spans.jsonl", w.name(), opts.seed)),
                SPAN_FILE_CAP,
            )
        })
        .map_err(|e| HpdError::Internal(format!("writing spans: {e}")))?;

    out.attempted = counts.attempted;
    out.failed = counts.failed;
    out.problems = counts.problems;
    out.set_metrics(&PER_LAYER, &values);
    out.correct = out.problems.is_empty() && counts.wrong == 0;
    Ok(out)
}
