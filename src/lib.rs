//! # hybrid-physical-designs
//!
//! A from-scratch Rust reproduction of *"Columnstore and B+ tree — Are Hybrid
//! Physical Designs Important?"* (Dziedzic et al., SIGMOD 2018).
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`common`] — values, schemas, rows, batches, expressions;
//! * [`obs`] — the metrics registry (counters, histograms, snapshots);
//! * [`storage`] — the storage simulator (pages, buffer pool, device models);
//! * [`btree`] — the B+ tree index;
//! * [`columnstore`] — the columnstore index (row groups, compressed
//!   segments, delta store, delete buffer/bitmap);
//! * [`exec`] — row-mode and batch-mode execution operators;
//! * [`engine`] — the mini-DBMS: catalog, tables, DML, optimizer, what-if
//!   API, locking and isolation;
//! * [`advisor`] — the paper's core contribution: the tuning advisor that
//!   recommends hybrid B+ tree / columnstore designs;
//! * [`workloads`] — data and workload generators (micro-benchmarks, TPC-H
//!   lineitem, TPC-DS-like, TPC-C/CH, customer-workload synthesizer);
//! * [`sql`] — the SQL front-end: lexer, parser, binder, plan cache,
//!   concurrent sessions, and the `hpd-cli` REPL.
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system inventory and
//! the per-experiment index, and `EXPERIMENTS.md` for paper-vs-measured
//! results.

pub use hpd_advisor as advisor;
pub use hpd_btree as btree;
pub use hpd_columnstore as columnstore;
pub use hpd_common as common;
pub use hpd_engine as engine;
pub use hpd_exec as exec;
pub use hpd_obs as obs;
pub use hpd_sql as sql;
pub use hpd_storage as storage;
pub use hpd_workloads as workloads;
