//! The mini-DBMS: catalog, tables with hybrid physical designs, DML routed
//! through every index, statistics, a cost-based optimizer with a "what-if"
//! API for hypothetical indexes, an executor lowering plans onto the
//! `hpd-exec` operators, and lock-based transactions with Read Committed /
//! Snapshot / Serializable isolation.
//!
//! This crate is the stand-in for Microsoft SQL Server in the reproduction:
//! it supports any combination of primary index (B+ tree or columnstore)
//! and secondary indexes (B+ trees plus at most one columnstore) on the same
//! table — the hybrid physical design space the paper studies.

mod apply;
pub mod catalog;
pub mod cost;
pub mod design;
pub mod executor;
pub mod maintenance;
pub mod optimizer;
pub mod plan;
pub mod profile;
pub mod query;
pub mod querystore;
pub mod recover;
pub mod stats;
pub mod table;
pub mod txn;

pub use catalog::{Database, DbConfig, QueryBuilder, Session, StmtRef, Txn};
pub use design::{Configuration, IndexDescriptor, IndexId, IndexMeta, TableDesign};
pub use executor::{ExecutionResult, QueryRunner, TableOverlay};
pub use hpd_columnstore::CsiConfig;
pub use hpd_common::{PartitionMethod, PartitionSpec};
pub use hpd_wal::{EncodedRows, WalConfig, WalDurable, WalSummary};
pub use maintenance::{
    maintenance_candidates, spawn_maintenance, MaintenanceBuilder, MaintenanceCandidate,
    MaintenanceConfig, MaintenanceHandle, MaintenanceReport,
};
pub use optimizer::{Optimizer, PartInfo, TableContext};
pub use plan::{LeafKind, PhysicalPlan, PlanExpr, PlanNodeKind};
pub use profile::{AnalyzeReport, GrantSummary, NodeProfile, PartitionActivity, Timeline};
pub use query::{
    AggItem, ColRef, DeleteStmt, EquiJoin, InsertStmt, SelectQuery, Statement, TableInput,
    UpdateStmt,
};
pub use querystore::{QueryStore, StoredStatement};
pub use stats::{ColumnStats, TableStats};
pub use table::{btree_entry_bytes, PartIndex, PostImage, Table, TablePart};
pub use txn::{IsolationLevel, LockManager, TxnManager};
