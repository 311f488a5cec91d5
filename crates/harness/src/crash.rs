//! Crash-point sweep: replay a seed's plan once per (commit finale ×
//! crash site), injecting a simulated process death into the commit and
//! differentially checking the recovered databases against the reference
//! model's committed state.
//!
//! The sweep is the coverage driver for the WAL's crash contract: across a
//! seed range it must *hit* every registered crash site at least once (a
//! crash armed on a read-only commit never fires — the engine only crashes
//! on paths that exist for that commit), and every hit must recover to
//! exactly the committed reference state. A sweep therefore fails two
//! ways: a post-recovery divergence (shrunk like any other divergence), or
//! a crash site that no (seed, position) pair ever reached.

use std::ops::Range;

use hpd_common::faults;

use crate::driver::{run_plan_with, Outcome, RunOptions};
use crate::plan::{FaultSpec, Plan, PlanConfig};

/// Cap on crash positions tried per seed so sweep cost stays linear in the
/// seed range; positions are stride-sampled across the schedule.
const MAX_POSITIONS_PER_SEED: usize = 6;

/// Schedule positions of commit finales — the only steps where the
/// engine's commit-path crash sites can fire.
pub fn commit_positions(plan: &Plan) -> Vec<usize> {
    let mut seen = vec![0usize; plan.txns.len()];
    let mut out = Vec::new();
    for (pos, &t) in plan.schedule.iter().enumerate() {
        let step = seen[t];
        seen[t] += 1;
        if step == plan.txns[t].ops.len() && plan.txns[t].commit {
            out.push(pos);
        }
    }
    out
}

/// A sweep run that diverged, with everything needed to report and shrink.
#[derive(Debug, Clone)]
pub struct SweepFailure {
    pub seed: u64,
    /// The exact plan (crash fault included) that reproduces the failure.
    pub plan: Plan,
    pub spec: FaultSpec,
    pub outcome: Outcome,
}

/// Aggregate result of a crash sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Plans executed (each is a full four-design differential run).
    pub runs: u64,
    /// Runs in which the armed crash actually fired and recovery ran.
    pub crashes: u64,
    /// Per-site fire counts over the whole sweep, for the swept sites.
    pub site_hits: Vec<(&'static str, u64)>,
    /// First divergence, if any; the sweep stops at it.
    pub failure: Option<Box<SweepFailure>>,
}

impl SweepOutcome {
    /// Sites selected by the sweep that never fired anywhere in it.
    pub fn unhit_sites(&self) -> Vec<&'static str> {
        self.site_hits
            .iter()
            .filter(|&&(_, n)| n == 0)
            .map(|&(s, _)| s)
            .collect()
    }
}

/// Sweep `seeds`, arming each crash spec whose site name contains
/// `site_filter` (`"all"` or `""` selects every crash site) at up to
/// `MAX_POSITIONS_PER_SEED` commit finales per seed. Runs on the calling
/// thread — fault arming and fire counts are thread-local.
pub fn crash_sweep(
    seeds: Range<u64>,
    cfg: &PlanConfig,
    opts: &RunOptions,
    site_filter: &str,
) -> SweepOutcome {
    let specs: Vec<FaultSpec> = FaultSpec::CRASH
        .iter()
        .copied()
        .filter(|f| {
            // The in-maintenance crash site only exists on runs that race
            // background compaction; arming it elsewhere can never fire and
            // would fail the sweep's coverage check.
            *f != FaultSpec::CrashInMaintenance || opts.bg_maintenance
        })
        .filter(|f| {
            site_filter.is_empty() || site_filter == "all" || f.site().contains(site_filter)
        })
        .collect();
    let mut out = SweepOutcome {
        runs: 0,
        crashes: 0,
        site_hits: specs.iter().map(|f| (f.site(), 0)).collect(),
        failure: None,
    };

    for seed in seeds {
        let plan = Plan::generate(seed, cfg);
        let positions = commit_positions(&plan);
        let stride = (positions.len() / MAX_POSITIONS_PER_SEED).max(1);
        for &pos in positions
            .iter()
            .step_by(stride)
            .take(MAX_POSITIONS_PER_SEED)
        {
            for &spec in &specs {
                let mut p = plan.clone();
                p.faults.push((pos, spec));
                let fired_before = faults::fired(spec.site());
                let outcome = run_plan_with(&p, opts);
                out.runs += 1;
                out.crashes += outcome.stats.crashes;
                for hit in out.site_hits.iter_mut() {
                    if hit.0 == spec.site() {
                        hit.1 += faults::fired(spec.site()) - fired_before;
                    }
                }
                if outcome.verdict.diverged() {
                    out.failure = Some(Box::new(SweepFailure {
                        seed,
                        plan: p,
                        spec,
                        outcome,
                    }));
                    return out;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_positions_are_commit_finales() {
        let plan = Plan::generate(3, &PlanConfig::default());
        let positions = commit_positions(&plan);
        let committing = plan.txns.iter().filter(|t| t.commit).count();
        assert_eq!(positions.len(), committing);
        // Each position is the last scheduled occurrence of its txn.
        for &pos in &positions {
            let t = plan.schedule[pos];
            assert!(plan.schedule[pos + 1..].iter().all(|&s| s != t));
        }
    }
}
