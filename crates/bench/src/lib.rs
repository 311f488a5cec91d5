//! Benchmark harness: one module per paper table/figure, plus shared
//! measurement helpers. The `figures` binary runs every module (or one,
//! with `--only <id>`) and emits a combined report.

pub mod btree_model;
pub mod common;
pub mod figs;

pub use common::{RunResult, Scale, SELECTIVITY_GRID};
