//! The gated run (`--trace 0`), tracing off: one set-up, whole rounds for
//! the run's seconds, one recovery, every value as measured. It emits the
//! end-to-end metrics of `BENCHMARK.json` and reports, beside them, the
//! statement and recovery timings this machine is too unsteady to gate on
//! (see [`crate::metrics::GATED_RUN`]). The medians over fresh-process runs
//! that `compare` takes do the smoothing.

use std::collections::BTreeMap;
use std::time::Instant;

use hpd_common::{HpdError, Result, Row};
use hpd_engine::Database;
use hpd_sql::SqlOutput;
use hpd_storage::IoTracker;

use crate::client::{Client, Counts, Round};
use crate::metrics::GATED_RUN;
use crate::noise::{peak_rss_mb, NoiseGauge, NoiseReport};
use crate::report::Outcome;
use crate::stats::{median_round_throughput, percentile};
use crate::workloads::{sorted, Design, Instance, Probe, Workload};

/// Rounds run inside the set-up so caches are full before timing.
pub const SETUP_WARMUP_ROUNDS: usize = 2;
/// Timed-loop rounds discarded before any sample counts.
pub const DISCARDED_ROUNDS: usize = 2;
/// Index sizes, row counts and peak memory are read after this many timed
/// rounds, a fixed statement count, and not when the clock stops: `htap`
/// grows with every round, and at the end of the window its sizes said how
/// many rounds the machine got through (peak memory 19 % apart between
/// runs of unchanged code). Every run reaches this round inside its window
/// (the slowest seen ran 200); one that does not reads them at the end.
pub const SIZE_SNAPSHOT_ROUND: usize = 100;

pub struct GatedOptions {
    pub seed: u64,
    pub seconds: f64,
}

/// What the engine holds at one moment, from metadata alone (no page is
/// read, so taking it between two timed rounds disturbs neither).
struct Sizes {
    stored_bytes: u64,
    /// Per table, in `Workload::tables` order.
    rows: Vec<u64>,
    /// The engine's peak so far: set-up and the rounds run. The recovered
    /// copy and the baseline instances of the correctness gate come later
    /// and are the harness's memory.
    peak_rss_mb: f64,
}

impl Sizes {
    fn read(w: &dyn Workload, db: &Database) -> Result<Sizes> {
        let mut stored_bytes = 0;
        let mut rows = Vec::new();
        for name in w.tables() {
            let (s, r) = db.with_table(name, |t| (index_bytes(t), t.row_count() as u64))?;
            stored_bytes += s;
            rows.push(r);
        }
        Ok(Sizes {
            stored_bytes,
            rows,
            peak_rss_mb: peak_rss_mb(),
        })
    }
}

pub fn run(w: &dyn Workload, opts: &GatedOptions) -> Result<Outcome> {
    let gauge = NoiseGauge::start();
    let mut out = Outcome::new(w.name(), opts.seed, false);
    let mut counts = Counts::default();

    let t = Instant::now();
    let mut inst = setup(w, opts.seed, Design::Hybrid, &mut counts)?;
    let setup_s = t.elapsed().as_secs_f64();
    for (k, v) in &inst.detail {
        out.detail_num(&format!("setup.{k}"), *v);
    }

    let timed;
    let tally;
    let sizes;
    {
        let Instance { db, gen, .. } = &mut inst;
        let db: &Database = db;
        let mut client = Client::new(db, w.maintenance_table());
        let mut snapshot = None;
        timed = timed_loop(&mut client, gen.as_mut(), opts.seconds, |round| {
            if round == SIZE_SNAPSHOT_ROUND {
                snapshot = Some(Sizes::read(w, db));
            }
        });
        sizes = snapshot.unwrap_or_else(|| Sizes::read(w, db))?;
        if w.config().wal.checkpoint_every_commits > 0 {
            settle_after_checkpoint(&mut client, gen.as_mut());
        }
        tally = client.tally;
    }
    counts.add(&tally);

    let mut after = check_and_recover(w, &inst)?;
    if w.cross_design_check() {
        after
            .problems
            .extend(cross_design_problems(w, opts.seed, &inst)?);
    }
    // Encoded user bytes need every row read: done once, at the end, and
    // scaled to the snapshot's row counts table by table (exact while a
    // table's rows are of one width or the table does not change).
    let at_end = stored_and_user_bytes(w, &inst.db)?;
    let user_bytes: f64 = at_end
        .iter()
        .zip(&sizes.rows)
        .map(|(end, &rows)| end.user_bytes as f64 / end.rows.max(1) as f64 * rows as f64)
        .sum();
    let noise = gauge.finish();

    out.attempted = counts.attempted;
    out.failed = counts.failed;
    out.problems = counts.problems;
    out.problems.extend(after.problems);

    let t = timed.timings();
    let values = BTreeMap::from([
        ("setup_s", setup_s),
        (
            "stored_bytes_per_user_byte",
            sizes.stored_bytes as f64 / user_bytes.max(1.0),
        ),
        ("peak_rss_mb", sizes.peak_rss_mb),
        ("stmt_per_s", t.stmt_per_s),
        ("stmt_p50_us", t.p50_us),
        ("stmt_p99_us", t.p99_us),
        ("cpu_us_per_stmt", t.cpu_us_per_stmt),
        ("modelled_us_per_stmt", t.modelled_us_per_stmt),
        ("recover_s", after.recover_s),
    ]);
    out.set_metrics(&GATED_RUN, &values);
    out.correct = out.problems.is_empty() && counts.wrong == 0;

    out.detail_num("timed_rounds", timed.rounds.len() as f64);
    out.detail_num("timed_statements", t.statements as f64);
    out.detail_num("statements_beyond_p99", t.beyond_p99 as f64);
    out.detail_num("stored_bytes", sizes.stored_bytes as f64);
    out.detail_num("user_bytes", user_bytes);
    out.detail_num(
        "stored_bytes_at_exit",
        at_end.iter().map(|t| t.stored_bytes).sum::<u64>() as f64,
    );
    out.detail_num("peak_rss_at_exit_mb", peak_rss_mb());
    out.detail_num(
        "maintenance_increments",
        tally.maintenance_increments as f64,
    );
    // Each timed round's wall time: a machine that changed speed inside
    // the run shows here.
    let round_ms: Vec<f64> = timed
        .rounds
        .iter()
        .map(|r| r.wall_ns as f64 / 1e6)
        .collect();
    out.detail_list("round_wall_ms", &round_ms);
    for (c, name) in w.classes().iter().enumerate() {
        if let Some(p50) = latency_us(&timed.latencies, Some(c as u16), 0.5) {
            out.detail_num(&format!("class.{name}.p50_us"), p50);
        }
    }
    add_noise(&mut out, &noise);
    Ok(out)
}

pub fn add_noise(out: &mut Outcome, noise: &NoiseReport) {
    out.disturbed = noise.disturbed;
    out.detail_num("bench.runqueue_wait_frac", noise.runqueue_wait_frac);
    out.detail_num("bench.steal_frac", noise.steal_frac);
    out.detail_num("bench.calib_spin_before_ms", noise.calib_spin_before_ms);
    out.detail_num("bench.calib_spin_after_ms", noise.calib_spin_after_ms);
}

/// Build one instance and warm it up: the unit `setup_s` measures.
pub fn setup(w: &dyn Workload, seed: u64, design: Design, counts: &mut Counts) -> Result<Instance> {
    let mut inst = w.build(seed, design)?;
    {
        let Instance { db, gen, .. } = &mut inst;
        let mut client = Client::new(db, w.maintenance_table());
        for _ in 0..SETUP_WARMUP_ROUNDS {
            client.run_round(gen.as_mut(), None);
        }
        counts.add(&client.tally);
        if let Some(p) = client.tally.first_problem {
            return Err(HpdError::Internal(format!("warm-up: {p}")));
        }
    }
    Ok(inst)
}

/// Everything the timed loop of one instance produced.
pub struct Timed {
    pub rounds: Vec<Round>,
    /// `(class, ns)` of every timed statement, in round order.
    pub latencies: Vec<(u16, u64)>,
}

/// The per-statement timing metrics of one timed loop.
pub struct StatementTimings {
    pub stmt_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub cpu_us_per_stmt: f64,
    pub modelled_us_per_stmt: f64,
    /// Timed statements: the sample the two percentiles are taken from.
    pub statements: usize,
    /// How many of them were slower than `p99_us`.
    pub beyond_p99: usize,
}

impl Timed {
    /// Throughput is the median over rounds; latencies pool every timed
    /// statement; on-CPU and modelled time are means over the timed
    /// rounds.
    pub fn timings(&self) -> StatementTimings {
        let per_round: Vec<(usize, f64)> = self
            .rounds
            .iter()
            .map(|r| (r.statements, r.wall_ns as f64 / 1e9))
            .collect();
        let statements: usize = self.rounds.iter().map(|r| r.statements).sum();
        let entries: usize = self.rounds.iter().map(|r| r.modelled_entries).sum();
        let cpu_ns: u64 = self.rounds.iter().map(|r| r.cpu_ns).sum();
        let modelled_us: f64 = self.rounds.iter().map(|r| r.modelled_us).sum();
        let p99_us = latency_us(&self.latencies, None, 0.99).unwrap_or(f64::NAN);
        StatementTimings {
            stmt_per_s: median_round_throughput(&per_round),
            p50_us: latency_us(&self.latencies, None, 0.50).unwrap_or(f64::NAN),
            p99_us,
            cpu_us_per_stmt: cpu_ns as f64 / 1e3 / statements.max(1) as f64,
            modelled_us_per_stmt: modelled_us / entries.max(1) as f64,
            statements,
            beyond_p99: self
                .latencies
                .iter()
                .filter(|&&(_, ns)| ns as f64 / 1e3 > p99_us)
                .count(),
        }
    }
}

/// Run whole rounds for `seconds`, discarding the first
/// [`DISCARDED_ROUNDS`]. `between_rounds` runs after each timed round,
/// outside every clock (the gated run's size snapshot, the traced run's
/// baseline passes).
pub fn timed_loop(
    client: &mut Client<'_>,
    gen: &mut dyn crate::workloads::RoundGen,
    seconds: f64,
    mut between_rounds: impl FnMut(usize),
) -> Timed {
    for _ in 0..DISCARDED_ROUNDS {
        client.run_round(gen, None);
    }
    let mut rounds = Vec::new();
    let mut latencies = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || rounds.is_empty() {
        rounds.push(client.run_round(gen, Some(&mut latencies)));
        between_rounds(rounds.len());
    }
    Timed { rounds, latencies }
}

/// Latency percentiles in microseconds from nanosecond samples.
pub fn latency_us(latencies: &[(u16, u64)], class: Option<u16>, q: f64) -> Option<f64> {
    let mut v: Vec<f64> = latencies
        .iter()
        .filter(|(c, _)| class.is_none_or(|k| k == *c))
        .map(|&(_, ns)| ns as f64 / 1e3)
        .collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    Some(percentile(&v, q))
}

/// After the timed loop of a workload that checkpoints: run on until a
/// checkpoint has just happened and then a fixed number of rounds more, so
/// that every run recovers from a checkpoint image plus a redo tail of the
/// same length. Without it `recover_s` measures where in the checkpoint
/// cycle the clock happened to stop.
fn settle_after_checkpoint(client: &mut Client<'_>, gen: &mut dyn crate::workloads::RoundGen) {
    const TAIL_ROUNDS: usize = 20;
    const GIVE_UP_AFTER_ROUNDS: usize = 400;
    let checkpoints = hpd_obs::global().counter("wal.checkpoint.count");
    let before = checkpoints.get();
    for _ in 0..GIVE_UP_AFTER_ROUNDS {
        client.run_round(gen, None);
        if checkpoints.get() != before {
            break;
        }
    }
    for _ in 0..TAIL_ROUNDS {
        client.run_round(gen, None);
    }
}

fn run_probe(db: &Database, probe: &Probe) -> Result<Vec<Row>> {
    let mut session = hpd_sql::SqlSession::new(db);
    match session.execute_one(&probe.sql)? {
        SqlOutput::Rows { rows, .. } => Ok(sorted(rows)),
        other => Err(HpdError::Internal(format!(
            "probe `{}` returned {other:?}",
            probe.sql
        ))),
    }
}

/// A result set short enough for a problem line.
fn brief(rows: &[Row]) -> String {
    let shown: Vec<String> = rows
        .iter()
        .take(3)
        .map(|r| format!("{:?}", r.values()))
        .collect();
    format!(
        "{} rows [{}{}]",
        rows.len(),
        shown.join(", "),
        if rows.len() > 3 { ", …" } else { "" }
    )
}

/// Σ `size_bytes()` over every index of every partition of a table.
fn index_bytes(t: &hpd_engine::table::Table) -> u64 {
    (0..t.num_parts())
        .flat_map(|p| t.part_metas(p))
        .map(|m| m.size_bytes() as u64)
        .sum()
}

/// One table's index bytes, the encoded size of the rows it holds, and how
/// many those are.
pub struct TableBytes {
    pub stored_bytes: u64,
    pub user_bytes: u64,
    pub rows: u64,
}

/// [`TableBytes`] per table, in `Workload::tables` order. Reads every row.
pub fn stored_and_user_bytes(w: &dyn Workload, db: &Database) -> Result<Vec<TableBytes>> {
    w.tables()
        .iter()
        .map(|name| {
            db.with_table(name, |t| {
                let all = t.scan_all_rows(db.pool(), &IoTracker::new());
                TableBytes {
                    stored_bytes: index_bytes(t),
                    user_bytes: all.iter().map(Row::byte_width).sum::<usize>() as u64,
                    rows: all.len() as u64,
                }
            })
        })
        .collect()
}

/// The end-of-run correctness gate plus the recovery timing: the live
/// database must give every probe the generator's answer, and a database
/// recovered from the flushed bytes alone must give the live answers and
/// hold the same row counts.
pub struct Aftermath {
    pub problems: Vec<String>,
    pub recover_s: f64,
    pub recovered_rows: u64,
}

pub fn check_and_recover(w: &dyn Workload, inst: &Instance) -> Result<Aftermath> {
    let mut problems = Vec::new();
    let probes = inst.gen.probes();
    let mut live = Vec::with_capacity(probes.len());
    for p in &probes {
        let rows = run_probe(&inst.db, p)?;
        if let Some(expected) = &p.expected {
            if &rows != expected {
                problems.push(format!(
                    "live `{}` returned {}, generator says {}",
                    p.sql,
                    brief(&rows),
                    brief(expected)
                ));
            }
        }
        live.push(rows);
    }
    let durable = inst.db.wal_durable();
    let t = Instant::now();
    let recovered = Database::recover(w.config(), durable);
    let recover_s = t.elapsed().as_secs_f64();
    let recovered = recovered?;
    for (p, live_rows) in probes.iter().zip(&live) {
        let rows = run_probe(&recovered, p)?;
        if &rows != live_rows {
            problems.push(format!(
                "recovered `{}` returned {}, live returned {}",
                p.sql,
                brief(&rows),
                brief(live_rows)
            ));
        }
    }
    let mut recovered_rows = 0;
    for name in w.tables() {
        let live_n = inst.db.with_table(name, |t| t.row_count())?;
        let rec_n = recovered.with_table(name, |t| t.row_count())?;
        if live_n != rec_n {
            problems.push(format!(
                "table {name}: {live_n} rows live, {rec_n} recovered"
            ));
        }
        recovered_rows += rec_n as u64;
    }
    Ok(Aftermath {
        problems,
        recover_s,
        recovered_rows,
    })
}

/// Build both baselines from the same seed and require each to answer
/// every probe as the hybrid instance does.
pub fn cross_design_problems(
    w: &dyn Workload,
    seed: u64,
    hybrid: &Instance,
) -> Result<Vec<String>> {
    let probes = hybrid.gen.probes();
    let mut problems = Vec::new();
    for design in Design::BASELINES {
        let baseline = w.build(seed, design)?;
        for p in &probes {
            let (ours, theirs) = (run_probe(&hybrid.db, p)?, run_probe(&baseline.db, p)?);
            if ours != theirs {
                problems.push(format!(
                    "`{}`: hybrid returned {}, {design:?} returned {}",
                    p.sql,
                    brief(&ours),
                    brief(&theirs)
                ));
            }
        }
    }
    Ok(problems)
}
