//! The tuning advisor — the paper's core contribution (§4).
//!
//! A reimplementation of the Database Engine Tuning Advisor (DTA) extension
//! that analyzes a workload and recommends a *hybrid* physical design: a
//! combination of B+ tree and columnstore indexes. The pipeline mirrors the
//! paper's Figure 7:
//!
//! 1. **Candidate selection** ([`candidates`]) — per query, syntactic B+
//!    tree candidates (from predicates, joins, group-by/order-by) plus one
//!    all-eligible-columns columnstore candidate per referenced table; each
//!    query is costed through the engine's what-if API and only candidates
//!    the optimizer actually uses survive.
//! 2. **Index merging** ([`merge`]) — B+ tree candidates on the same table
//!    merge (shared key prefix, unioned includes); columnstores never merge.
//! 3. **Enumeration** ([`enumerate`]) — greedy benefit(-per-byte) search
//!    over the merged pool under a storage budget, charging update
//!    maintenance, with at most one columnstore per part. A candidate is a
//!    (part set, descriptor): all parts, or — on a partitioned table — one
//!    part, which may also swap its primary for the other kind.
//! 4. **Costing** — optimizer-estimated costs of hypothetical
//!    configurations, asked through one what-if [`session`] per
//!    `recommend` call that sizes each [`hypothetical`] index once and
//!    plans each (statement, configuration) once. Columnstore per-column
//!    sizes come from the estimators in [`size`]: the **black-box**
//!    sample-build estimator and the **GEE run-modeling** estimator (§4.4).
//!
//! # Example
//!
//! ```no_run
//! use hpd_advisor::{Advisor, AdvisorOptions, Workload};
//! use hpd_common::{CmpOp, DataType, Expr, Row, Schema, Value};
//! use hpd_engine::{Database, DbConfig, IndexDescriptor, SelectQuery};
//!
//! let db = Database::new(DbConfig::default());
//! db.create_table(
//!     "orders",
//!     Schema::from_pairs(&[("id", DataType::Int32), ("customer", DataType::Int32)]),
//!     vec![0],
//!     IndexDescriptor::PrimaryBTree { keys: vec![0] },
//! )?;
//! db.load_table(
//!     "orders",
//!     (0..10_000)
//!         .map(|i| Row::new(vec![Value::Int32(i), Value::Int32(i % 100)]))
//!         .collect(),
//! )?;
//!
//! let workload = Workload::read_only(vec![SelectQuery::single_table(
//!     "orders",
//!     Some(Expr::col_cmp(1, CmpOp::Eq, Value::Int32(7))),
//!     vec![0],
//! )]);
//! let recommendation = Advisor::new(&db, AdvisorOptions::default()).recommend(&workload)?;
//! println!("{}", recommendation.report(&db));
//! db.apply_configuration(&recommendation.configuration)?;
//! # Ok::<(), hpd_common::HpdError>(())
//! ```

pub mod advisor;
pub mod candidates;
pub mod enumerate;
pub mod hypothetical;
pub mod merge;
pub mod session;
pub mod size;
pub mod workload;

pub use advisor::{Advisor, AdvisorOptions, CsiColumnDetail, DesignMode, Recommendation};
pub use candidates::CandidateSet;
pub use session::WhatIfSession;
pub use size::{BlackBoxEstimator, CsiSizeEstimator, RunModelEstimator, SampleSet};
pub use workload::{Workload, WorkloadStatement};
