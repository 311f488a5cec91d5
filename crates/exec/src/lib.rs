//! Query execution: row-mode and vectorized batch-mode operators.
//!
//! Mirrors the split the paper attributes to SQL Server: B+ tree access
//! paths execute *row mode* (tuple-at-a-time over [`hpd_common::Row`]s),
//! columnstore access paths execute *batch mode* (vectorized over
//! [`hpd_common::Batch`]es of dense arrays). All operators implement the
//! pull-based [`Operator`] trait and exchange batches; row-mode operators
//! simply process element-at-a-time internally, which is where their CPU
//! cost difference comes from.
//!
//! Memory-sensitive operators (hash aggregate, hash join, sort) run against
//! a [`MemoryGrant`] and spill to simulated disk when they exceed it —
//! reproducing the constrained-memory behaviour of the paper's Figures 3–4.

pub mod ctx;
pub mod grant_broker;
pub mod memory;
pub mod ops;
pub mod profile;
pub mod sched;

pub use ctx::{ExecCtx, ExecMetrics};
pub use grant_broker::{GrantBroker, GrantLease};
pub use memory::MemoryGrant;
pub use ops::agg::{AggSpec, CsiAggOp, HashAggOp, StreamAggOp};
pub use ops::filter::{FilterOp, Mode, ProjectOp};
pub use ops::join::{HashJoinOp, IndexLookupJoinOp, JoinSide};
pub use ops::parallel::ParallelOp;
pub use ops::scan::{BTreeRangeScanOp, CsiScanOp, ValuesOp};
pub use ops::sort::{LimitOp, SortKey, SortOp};
pub use ops::{collect, collect_rows, Operator};
pub use profile::{OpStats, ProfiledOp};
pub use sched::{PoolLease, WorkerPool};
