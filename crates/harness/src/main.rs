//! Command-line driver: run seeded differential histories and report.
//!
//! ```text
//! hpd-harness [--seeds LO..HI] [--txns N] [--max-ops N] [--rows N]
//!             [--concurrency N] [--fault-rate F] [--threads N]
//!             [--pool-threads N] [--grant-budget BYTES] [--dop N] [--sql]
//!             [--bg-maintenance] [--no-shrink] [--quiet] [--trace]
//! HARNESS_SEED=<n> hpd-harness          # replay exactly one seed
//! ```
//!
//! `--threads` distributes the seed range over N OS threads (one seed per
//! thread at a time; fault injection is thread-local, so plans stay
//! deterministic). `--pool-threads` / `--grant-budget` shrink the workload
//! manager's engine-wide budgets so every history runs under broker
//! admission control. `--dop` plans with that `max_dop` instead of 1; with
//! pool threads, a plan's gathers and split scans then run on real threads,
//! and each seed's fingerprint must equal the serial run's.
//!
//! Exits non-zero on the first divergence, after printing the shrunk
//! minimal repro and the replay instruction.

use std::ops::Range;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hpd_harness::{
    crash_sweep, fuzz_selects, run_plan_with, shrink_with, Outcome, Plan, PlanConfig, RunOptions,
    Verdict,
};

struct Args {
    seeds: Range<u64>,
    cfg: PlanConfig,
    run_opts: RunOptions,
    threads: usize,
    do_shrink: bool,
    quiet: bool,
    /// `Some(filter)` switches to the crash-recovery sweep: inject crashes
    /// whose site name contains `filter` ("all" = every crash site).
    crash_at: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 0..16,
        cfg: PlanConfig::default(),
        run_opts: RunOptions::default(),
        threads: 1,
        do_shrink: true,
        quiet: false,
        crash_at: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match a.as_str() {
            "--seeds" => {
                let v = val("--seeds")?;
                let (lo, hi) = v
                    .split_once("..")
                    .ok_or_else(|| format!("--seeds expects LO..HI, got {v}"))?;
                args.seeds = lo.parse().map_err(|e| format!("bad LO: {e}"))?
                    ..hi.parse().map_err(|e| format!("bad HI: {e}"))?;
            }
            "--txns" => {
                args.cfg.history.txns = val("--txns")?.parse().map_err(|e| format!("{e}"))?
            }
            "--max-ops" => {
                args.cfg.history.max_ops = val("--max-ops")?.parse().map_err(|e| format!("{e}"))?
            }
            "--rows" => {
                args.cfg.history.initial_rows =
                    val("--rows")?.parse().map_err(|e| format!("{e}"))?
            }
            "--concurrency" => {
                args.cfg.concurrency = val("--concurrency")?.parse().map_err(|e| format!("{e}"))?
            }
            "--fault-rate" => {
                args.cfg.fault_rate = val("--fault-rate")?.parse().map_err(|e| format!("{e}"))?
            }
            "--threads" => {
                args.threads = val("--threads")?
                    .parse::<usize>()
                    .map_err(|e| format!("{e}"))?
                    .max(1)
            }
            "--pool-threads" => {
                args.run_opts.pool_threads =
                    Some(val("--pool-threads")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--grant-budget" => {
                args.run_opts.grant_budget =
                    Some(val("--grant-budget")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--dop" => {
                args.run_opts.dop = Some(
                    val("--dop")?
                        .parse::<usize>()
                        .map_err(|e| format!("{e}"))?
                        .max(1),
                )
            }
            "--crash-at" => args.crash_at = Some(val("--crash-at")?),
            // SQL mode: every history statement is rendered as SQL, lowered
            // through the front-end (the lowering must match the hand-built
            // AST), and each seed additionally runs a random-SQL select
            // sweep cross-checked across designs and against a reference
            // evaluation.
            "--sql" => args.run_opts.sql = true,
            // Race background compaction against every schedule step: one
            // small budgeted maintenance increment per design per step, with
            // the step's faults re-armed around it (adds the in-maintenance
            // crash site to --crash-at sweeps).
            "--bg-maintenance" => args.run_opts.bg_maintenance = true,
            "--no-shrink" => args.do_shrink = false,
            "--quiet" => args.quiet = true,
            // Record structured trace spans while the sweep runs (proves
            // tracing does not perturb deterministic replay). The bounded
            // per-thread rings cap memory; spans are simply discarded at
            // exit unless a future flag exports them.
            "--trace" => hpd_obs::trace::tracer().set_enabled(true),
            "--help" | "-h" => {
                return Err(
                    "usage: hpd-harness [--seeds LO..HI] [--txns N] [--max-ops N] \
                            [--rows N] [--concurrency N] [--fault-rate F] [--threads N] \
                            [--pool-threads N] [--grant-budget BYTES] [--dop N] [--sql] \
                            [--bg-maintenance] [--crash-at all|SITE_SUBSTRING] \
                            [--no-shrink] [--quiet] [--trace]\n\
                            env: HARNESS_SEED=<n> replays exactly one seed\n\
                            --sql drives every statement through the SQL front-end and \
                            adds a per-seed random-SQL select sweep\n\
                            --bg-maintenance races one budgeted compaction increment per \
                            design after every schedule step (and adds the in-maintenance \
                            crash site to --crash-at sweeps)\n\
                            --crash-at runs the crash-recovery sweep: each seed's plan \
                            replays once per (commit finale x crash site), recovery is \
                            differentially checked, and every selected site must be hit"
                        .into(),
                )
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if let Ok(s) = std::env::var("HARNESS_SEED") {
        let n: u64 = s
            .parse()
            .map_err(|e| format!("bad HARNESS_SEED {s:?}: {e}"))?;
        args.seeds = n..n + 1;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(filter) = &args.crash_at {
        // The sweep is single-threaded: fault arming and per-site fire
        // counts are thread-local, and the sweep's site-coverage report
        // needs one thread's view of them.
        let report = crash_sweep(args.seeds.clone(), &args.cfg, &args.run_opts, filter);
        println!(
            "crash sweep: {} run(s), {} crash(es) recovered and checked",
            report.runs, report.crashes
        );
        for (site, hits) in &report.site_hits {
            println!("  {site}: {hits} hit(s)");
        }
        if let Some(f) = report.failure {
            eprintln!(
                "seed {}: DIVERGENCE after crash `{}` at step {}",
                f.seed,
                f.spec.site(),
                match &f.outcome.verdict {
                    Verdict::Divergence(d) => d.step as i64,
                    Verdict::Pass => -1,
                }
            );
            if let Verdict::Divergence(d) = &f.outcome.verdict {
                eprintln!("{}", d.detail);
            }
            eprintln!("--- full plan ---\n{}", f.plan.render());
            if args.do_shrink {
                eprintln!("shrinking...");
                let min = shrink_with(&f.plan, &args.run_opts);
                eprintln!(
                    "--- minimal repro ({} ops, {} txns, {} faults) ---\n{}",
                    min.op_count(),
                    min.txns.len(),
                    min.faults.len(),
                    min.render()
                );
            }
            return ExitCode::FAILURE;
        }
        let unhit = report.unhit_sites();
        if !unhit.is_empty() {
            eprintln!("crash sweep never hit: {unhit:?} — widen --seeds or the history");
            return ExitCode::FAILURE;
        }
        println!("crash sweep clean: every selected site hit, all recoveries agree");
        return ExitCode::SUCCESS;
    }

    // Seeds are claimed from a shared cursor by `--threads` worker threads
    // (fault injection is thread-local, so concurrent seeds can't interfere);
    // outcomes are reported in seed order afterwards.
    let lo = args.seeds.start;
    let next = AtomicU64::new(lo);
    let n_seeds = (args.seeds.end - args.seeds.start) as usize;
    let results: Mutex<Vec<Option<Outcome>>> = Mutex::new(vec![None; n_seeds]);
    std::thread::scope(|s| {
        for _ in 0..args.threads.min(n_seeds.max(1)) {
            s.spawn(|| loop {
                let seed = next.fetch_add(1, Ordering::Relaxed);
                if seed >= args.seeds.end {
                    return;
                }
                let plan = Plan::generate(seed, &args.cfg);
                let out = run_plan_with(&plan, &args.run_opts);
                results.lock().unwrap()[(seed - lo) as usize] = Some(out);
            });
        }
    });

    let results = results.into_inner().unwrap();
    let mut totals = hpd_harness::RunStats::default();
    for (i, out) in results.iter().enumerate() {
        let seed = lo + i as u64;
        let out = out.as_ref().expect("every seed ran");
        totals.ops_attempted += out.stats.ops_attempted;
        totals.txns_committed += out.stats.txns_committed;
        totals.txns_aborted += out.stats.txns_aborted;
        totals.faults_fired += out.stats.faults_fired;
        match &out.verdict {
            Verdict::Pass => {
                if !args.quiet {
                    println!(
                        "seed {seed:>6}: ok  ops={} committed={} aborted={} faults={} fp={:016x}",
                        out.stats.ops_attempted,
                        out.stats.txns_committed,
                        out.stats.txns_aborted,
                        out.stats.faults_fired,
                        out.fingerprint
                    );
                }
            }
            Verdict::Divergence(d) => {
                let plan = Plan::generate(seed, &args.cfg);
                eprintln!("seed {seed}: DIVERGENCE at step {} (txn {})", d.step, d.txn);
                eprintln!("{}", d.detail);
                eprintln!("--- full plan ---\n{}", plan.render());
                if args.do_shrink {
                    eprintln!("shrinking...");
                    let min = shrink_with(&plan, &args.run_opts);
                    eprintln!(
                        "--- minimal repro ({} ops, {} txns, {} faults) ---\n{}",
                        min.op_count(),
                        min.txns.len(),
                        min.faults.len(),
                        min.render()
                    );
                }
                eprintln!("replay: HARNESS_SEED={seed} cargo run -p hpd-harness");
                return ExitCode::FAILURE;
            }
        }
        if args.run_opts.sql {
            // Random-SQL select sweep for this seed: parse -> bind ->
            // execute on all four designs, cross-checked against a
            // reference evaluation; failures arrive already shrunk.
            let report = fuzz_selects(seed, 32);
            if let Some(f) = report.failure {
                eprintln!(
                    "seed {seed}: SQL FUZZ FAILURE after {} quer(ies)\n{f}",
                    report.queries_run
                );
                eprintln!("replay: HARNESS_SEED={seed} cargo run -p hpd-harness -- --sql");
                return ExitCode::FAILURE;
            }
            if !args.quiet {
                println!(
                    "seed {seed:>6}: sql fuzz ok ({} queries)",
                    report.queries_run
                );
            }
        }
    }

    println!(
        "all {} seed(s) agree: ops={} committed={} aborted={} faults fired={}",
        args.seeds.end - args.seeds.start,
        totals.ops_attempted,
        totals.txns_committed,
        totals.txns_aborted,
        totals.faults_fired
    );
    println!("obs: {}", hpd_obs::global().snapshot().to_json());
    ExitCode::SUCCESS
}
