//! Deterministic concurrent differential-testing harness.
//!
//! One seed determines an entire run: a mixed OLTP/OLAP transaction history
//! (`hpd-workloads::history`), an explicit interleaving schedule, and a set
//! of fault placements ([`plan`]). The [`driver`] replays that schedule on
//! a single OS thread against the same logical table under all four
//! physical designs the paper compares — B+ tree only, columnstore only,
//! hybrid, and a range-partitioned hybrid whose partitions mix designs —
//! checking after every statement that the designs agree with
//! each other and with a single-threaded reference model ([`refmodel`])
//! replayed in commit-timestamp order. Faults (lock timeouts, commit
//! failures, forced tuple moves, spill-write failures, buffer-pool
//! evictions) are armed from the plan through `hpd_common::faults`
//! injection sites threaded through the engine, columnstore, and storage
//! layers. On divergence, [`shrink()`] reduces the history to a minimal
//! replayable repro.
//!
//! The [`crash`] sweep extends the same machinery to crash recovery: it
//! re-runs a plan once per (commit finale × WAL crash site), lets the
//! simulated process death end the schedule, recovers every design from
//! durable WAL bytes alone, and checks the recovered state against the
//! reference model's committed rows (`--crash-at` on the CLI).
//!
//! Replay any reported run with `HARNESS_SEED=<n> cargo run -p hpd-harness`.

pub mod crash;
pub mod driver;
pub mod plan;
pub mod refmodel;
pub mod shrink;
pub mod sqlfuzz;

pub use crash::{commit_positions, crash_sweep, SweepFailure, SweepOutcome};
pub use driver::{run_plan, run_plan_with, Divergence, Outcome, RunOptions, RunStats, Verdict};
pub use plan::{FaultSpec, Plan, PlanConfig};
pub use refmodel::{Expected, RefModel};
pub use shrink::{diverges, diverges_with, shrink, shrink_with};
pub use sqlfuzz::{fuzz_selects, FuzzFailure, FuzzReport, FuzzSelect};
