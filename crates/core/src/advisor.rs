//! The advisor facade: analyze a workload, recommend a physical design.

use hpd_common::Result;
use hpd_engine::{Configuration, Database, IndexDescriptor, IndexMeta, TableDesign};

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

/// Advisor knobs. Hypothetical columnstores are sized by the GEE run-model
/// estimator ([`crate::RunModelEstimator`]).
#[derive(Debug, Clone)]
pub struct AdvisorOptions {
    pub mode: DesignMode,
    /// Storage cap for new indexes (None = unconstrained).
    pub storage_budget_bytes: Option<usize>,
    /// Block-sampling fraction for size estimation.
    pub sample_fraction: f64,
    pub seed: u64,
}

impl Default for AdvisorOptions {
    fn default() -> AdvisorOptions {
        AdvisorOptions {
            mode: DesignMode::Hybrid,
            storage_budget_bytes: None,
            sample_fraction: 0.1,
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
    /// Full per-table designs: per part, its primary (existing, or of the
    /// other kind where the search swapped it) + recommended secondaries.
    pub configuration: Configuration,
    pub est_cost_before_us: f64,
    pub est_cost_after_us: f64,
    /// Per-statement `(label, cost before, cost after)`.
    pub per_statement: Vec<(String, f64, f64)>,
    pub new_index_bytes: usize,
    /// Per-column encoding expectations for every recommended columnstore
    /// (empty when no CSI was recommended).
    pub csi_encoding_details: Vec<CsiColumnDetail>,
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
        for design in &self.configuration.tables {
            let schema = db.with_table(&design.table, |t| t.schema().clone()).ok();
            let show = |d: &IndexDescriptor| match &schema {
                Some(s) => d.display(s),
                None => format!("{d:?}"),
            };
            match design.indexes() {
                Some(indexes) if indexes.len() <= 1 => continue,
                Some(indexes) => {
                    let _ = writeln!(out, "table {}:", design.table);
                    for d in &indexes[1..] {
                        let _ = writeln!(out, "  CREATE {}", show(d));
                    }
                }
                None => {
                    let _ = writeln!(out, "table {}, per partition:", design.table);
                    for (p, indexes) in design.parts.iter().enumerate() {
                        let list: Vec<String> = indexes.iter().map(show).collect();
                        let _ = writeln!(out, "  p{p}: {}", list.join(" + "));
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
        let result = greedy_search(
            &mut session,
            &pool,
            self.options.mode,
            self.options.storage_budget_bytes,
        )?;

        // Per-statement before/after costs (the search has computed both).
        let empty = Chosen::new();
        let mut per_statement = Vec::with_capacity(workload.len());
        for (i, ws) in workload.statements.iter().enumerate() {
            let before = session.statement_cost(i, &empty)?;
            let after = session.statement_cost(i, &result.chosen)?;
            per_statement.push((ws.label.clone(), before, after));
        }

        // Assemble the configuration — per part, its primary + chosen
        // secondaries — and, for every recommended CSI, the per-column
        // encoding expectations: the estimator's predicted encoding + size
        // (summed over the parts holding it), and the cost model's CPU
        // factor for scanning that encoding.
        let mut tables = Vec::new();
        let mut csi_encoding_details = Vec::new();
        for name in workload.referenced_tables() {
            let parts = result.chosen[&name].clone();
            let schema = session.contexts()[&name].schema.clone();
            let mut new_csis: Vec<&IndexDescriptor> = Vec::new();
            for (list, initial) in parts.iter().zip(&session.initial()[&name]) {
                for d in list.iter().filter(|d| d.is_csi() && **d != initial[0]) {
                    if !new_csis.contains(&d) {
                        new_csis.push(d);
                    }
                }
            }
            for d in new_csis {
                let metas: Vec<IndexMeta> = (0..parts.len())
                    .filter(|&p| parts[p].contains(d))
                    .map(|p| session.part_meta(&name, p, d))
                    .collect();
                for &(c, _) in &metas[0].column_bytes {
                    let bytes =
                        |m: &IndexMeta| m.column_bytes.iter().find(|cb| cb.0 == c).map(|cb| cb.1);
                    let encoding = metas[0]
                        .column_encodings
                        .iter()
                        .find(|&&(ec, _)| ec == c)
                        .map_or(hpd_columnstore::IntEncoding::BitPacked, |&(_, e)| e);
                    csi_encoding_details.push(CsiColumnDetail {
                        table: name.clone(),
                        column: schema.column(c).name.clone(),
                        encoding,
                        est_bytes: metas.iter().filter_map(bytes).sum(),
                        cpu_factor: hpd_engine::cost::encoding_cpu_factor(encoding),
                    });
                }
            }
            tables.push(TableDesign { table: name, parts });
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
        })
    }
}

/// The paper's non-advisor baseline: "a secondary (non-clustered)
/// columnstore is built on all tables in the database" — plus the existing
/// primaries. Each part keeps its primary; a part whose primary is a B+
/// tree gains the columnstore.
pub fn csi_everywhere_configuration(db: &Database, tables: &[String]) -> Result<Configuration> {
    let mut designs = Vec::new();
    for name in tables {
        let ctx = db.context_for(name)?;
        let eligible: Vec<usize> = (0..ctx.schema.len())
            .filter(|&c| ctx.schema.column(c).csi_eligible)
            .collect();
        let parts = ctx.parts.iter().map(|part| {
            let primary = part.metas[0].descriptor.clone();
            let csi = (!primary.is_csi() && !eligible.is_empty()).then(|| {
                IndexDescriptor::SecondaryCsi {
                    columns: eligible.clone(),
                }
            });
            std::iter::once(primary).chain(csi).collect()
        });
        designs.push(TableDesign {
            table: name.clone(),
            parts: parts.collect(),
        });
    }
    Ok(Configuration { tables: designs })
}
