//! The advisor facade: analyze a workload, recommend a physical design.

use hpd_common::{HpdError, Result};
use hpd_engine::{Configuration, Database, IndexDescriptor, TableDesign};

use crate::candidates::{generate_candidates, prune_candidates};
use crate::enumerate::greedy_search;
use crate::merge::merge_candidates;
use crate::session::{Chosen, WhatIfSession};
use crate::workload::Workload;

/// Which parts of the design space the advisor may use — the three
/// alternatives compared throughout the paper's §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignMode {
    /// B+ tree and columnstore indexes (the paper's extended DTA).
    Hybrid,
    /// B+ tree indexes only (classic DTA).
    BTreeOnly,
    /// Columnstore candidates only.
    CsiOnly,
}

impl DesignMode {
    pub fn allows_btree(self) -> bool {
        !matches!(self, DesignMode::CsiOnly)
    }

    pub fn allows_csi(self) -> bool {
        !matches!(self, DesignMode::BTreeOnly)
    }
}

/// Which size estimator to use for hypothetical columnstores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    BlackBox,
    RunModel,
}

/// Advisor knobs.
#[derive(Debug, Clone)]
pub struct AdvisorOptions {
    pub mode: DesignMode,
    /// Storage cap for new indexes (None = unconstrained).
    pub storage_budget_bytes: Option<usize>,
    /// Block-sampling fraction for size estimation.
    pub sample_fraction: f64,
    pub estimator: EstimatorKind,
    pub seed: u64,
}

impl Default for AdvisorOptions {
    fn default() -> AdvisorOptions {
        AdvisorOptions {
            mode: DesignMode::Hybrid,
            storage_budget_bytes: None,
            sample_fraction: 0.1,
            estimator: EstimatorKind::RunModel,
            seed: 0x5EED,
        }
    }
}

/// Predicted physical shape of one stored column of a recommended
/// columnstore: the encoding the engine is expected to pick, its estimated
/// compressed size, and the relative CPU factor the cost model charges for
/// scanning it (bit-packed = 1.0).
#[derive(Debug, Clone)]
pub struct CsiColumnDetail {
    pub table: String,
    pub column: String,
    pub encoding: hpd_columnstore::IntEncoding,
    pub est_bytes: usize,
    pub cpu_factor: f64,
}

/// A recommended physical design with its estimated impact.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// Full per-table designs (existing primary + recommended secondaries).
    pub configuration: Configuration,
    pub est_cost_before_us: f64,
    pub est_cost_after_us: f64,
    /// Per-statement `(label, cost before, cost after)`.
    pub per_statement: Vec<(String, f64, f64)>,
    pub new_index_bytes: usize,
    /// Per-column encoding expectations for every recommended columnstore
    /// (empty when no CSI was recommended).
    pub csi_encoding_details: Vec<CsiColumnDetail>,
    /// Referenced tables whose partitions have different primary indexes.
    /// They have no whole-table design to extend, so they were costed as
    /// they are and `configuration` leaves them out: applying it cannot
    /// flatten them. `recommend_partition_designs` tunes such a table.
    pub per_partition_tables: Vec<String>,
}

impl Recommendation {
    pub fn speedup(&self) -> f64 {
        if self.est_cost_after_us <= 0.0 {
            return 1.0;
        }
        self.est_cost_before_us / self.est_cost_after_us
    }

    /// Human-readable report.
    pub fn report(&self, db: &Database) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Estimated workload cost: {:.0}us -> {:.0}us ({:.1}x)",
            self.est_cost_before_us,
            self.est_cost_after_us,
            self.speedup()
        );
        let _ = writeln!(out, "New index bytes: {}", self.new_index_bytes);
        for table in &self.per_partition_tables {
            let _ = writeln!(
                out,
                "table {table}: designed per partition, left as is \
                 (use recommend_partition_designs)"
            );
        }
        for design in &self.configuration.tables {
            if design.indexes.len() <= 1 {
                continue;
            }
            let schema = db.with_table(&design.table, |t| t.schema().clone()).ok();
            let _ = writeln!(out, "table {}:", design.table);
            for d in &design.indexes[1..] {
                match &schema {
                    Some(s) => {
                        let _ = writeln!(out, "  CREATE {}", d.display(s));
                    }
                    None => {
                        let _ = writeln!(out, "  CREATE {d:?}");
                    }
                }
            }
            for det in self
                .csi_encoding_details
                .iter()
                .filter(|d| d.table == design.table)
            {
                let _ = writeln!(
                    out,
                    "    {}: {} ~{} B, scan cpu x{:.2}",
                    det.column,
                    det.encoding.name(),
                    det.est_bytes,
                    det.cpu_factor
                );
            }
        }
        out
    }
}

/// The tuning advisor (DTA stand-in).
pub struct Advisor<'db> {
    db: &'db Database,
    options: AdvisorOptions,
}

impl<'db> Advisor<'db> {
    pub fn new(db: &'db Database, options: AdvisorOptions) -> Advisor<'db> {
        Advisor { db, options }
    }

    /// Analyze the workload and recommend a configuration.
    pub fn recommend(&self, workload: &Workload) -> Result<Recommendation> {
        let mut session = WhatIfSession::new(self.db, workload, &self.options)?;

        // Candidate selection → what-if pruning → merging → greedy search.
        let raw = generate_candidates(workload, session.contexts(), self.options.mode);
        let pruned = prune_candidates(&mut session, &raw)?;
        let pool = merge_candidates(&pruned);
        let result = greedy_search(&mut session, &pool, self.options.storage_budget_bytes)?;

        // Per-statement before/after costs (the search has computed both).
        let empty = Chosen::new();
        let mut per_statement = Vec::with_capacity(workload.len());
        for (i, ws) in workload.statements.iter().enumerate() {
            let before = session.statement_cost(i, &empty)?;
            let after = session.statement_cost(i, &result.chosen)?;
            per_statement.push((ws.label.clone(), before, after));
        }

        // Assemble the configuration — existing primary + chosen
        // secondaries — and, for every recommended CSI, the per-column
        // encoding expectations: the estimator's predicted encoding + size,
        // and the cost model's CPU factor for scanning that encoding.
        let mut tables = Vec::new();
        let mut csi_encoding_details = Vec::new();
        for name in workload.referenced_tables() {
            let Some(ctx) = session.contexts().get(&name) else {
                continue;
            };
            let schema = ctx.schema.clone();
            let primary = ctx
                .shared_primary()
                .expect("session tables share a primary");
            let mut indexes = vec![primary.descriptor.clone()];
            for d in result.chosen.get(&name).into_iter().flatten() {
                indexes.push(d.clone());
                if !d.is_csi() {
                    continue;
                }
                let meta = session.meta(&name, d);
                for &(c, bytes) in &meta.column_bytes {
                    let encoding = meta
                        .column_encodings
                        .iter()
                        .find(|&&(ec, _)| ec == c)
                        .map_or(hpd_columnstore::IntEncoding::BitPacked, |&(_, e)| e);
                    csi_encoding_details.push(CsiColumnDetail {
                        table: name.clone(),
                        column: schema.column(c).name.clone(),
                        encoding,
                        est_bytes: bytes,
                        cpu_factor: hpd_engine::cost::encoding_cpu_factor(encoding),
                    });
                }
            }
            tables.push(TableDesign::new(name, indexes));
        }
        let configuration = Configuration { tables };
        configuration.validate()?;

        Ok(Recommendation {
            configuration,
            est_cost_before_us: result.initial_cost_us,
            est_cost_after_us: result.final_cost_us,
            per_statement,
            new_index_bytes: result.new_index_bytes,
            csi_encoding_details,
            per_partition_tables: session.per_partition_tables().to_vec(),
        })
    }
}

/// The paper's non-advisor baseline: "a secondary (non-clustered)
/// columnstore is built on all tables in the database" — plus the existing
/// primaries.
pub fn csi_everywhere_configuration(db: &Database, tables: &[String]) -> Result<Configuration> {
    let mut designs = Vec::new();
    for name in tables {
        let ctx = db.context_for(name)?;
        // A table whose partitions have different primaries has no "existing
        // primary" to keep, and the one design built here would flatten it.
        let Some(primary) = ctx.shared_primary().map(|m| m.descriptor.clone()) else {
            return Err(HpdError::InvalidQuery(format!(
                "table {name} has per-partition primary indexes; use recommend_partition_designs"
            )));
        };
        let eligible: Vec<usize> = (0..ctx.schema.len())
            .filter(|&c| ctx.schema.column(c).csi_eligible)
            .collect();
        let mut indexes = vec![primary.clone()];
        if !primary.is_csi() && !eligible.is_empty() {
            indexes.push(IndexDescriptor::SecondaryCsi { columns: eligible });
        }
        designs.push(TableDesign::new(name.clone(), indexes));
    }
    Ok(Configuration { tables: designs })
}
