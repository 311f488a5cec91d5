//! Traced mixed workload → Chrome trace export → validation.
//!
//! Runs a scaled §3.6-style mixed workload (analytic scans, point updates,
//! columnstore maintenance) with tracing enabled, writes the Chrome
//! trace-event JSON to `target/hpd-trace.json` (loadable in
//! `chrome://tracing` or <https://ui.perfetto.dev>), then validates the
//! export with a minimal JSON scanner: it must parse, and the span
//! taxonomy must contain the full query lifecycle plus background roots.
//! Exits non-zero on any validation failure — CI runs this as a gate.
//!
//! ```console
//! $ cargo run --release --example trace_export
//! ```

use std::process::ExitCode;

use hybrid_physical_designs::engine::{Database, DbConfig};
use hybrid_physical_designs::workloads::tpch::{
    load_lineitem, q4_update, q5_scan_range, MixedDesign,
};

const ROWS: usize = 30_000;

fn run_workload() -> Result<Database, Box<dyn std::error::Error>> {
    hybrid_physical_designs::obs::trace::tracer().set_enabled(true);
    let mut cfg = DbConfig::default();
    cfg.csi.rowgroup_capacity = 4_096;
    cfg.wal.checkpoint_every_commits = 16;
    let db = Database::new(cfg);
    load_lineitem(&db, ROWS, 42, MixedDesign::PrimaryCsi)?;
    hybrid_physical_designs::obs::trace::tracer().drain(); // load-time spans

    for i in 0..24 {
        db.query(&q5_scan_range(30 * (i % 8), 30 * (i % 8) + 60))
            .run()?;
        db.query(&q4_update(10, 30 * (i % 8))).run()?;
    }
    db.maintenance("lineitem").run()?;
    Ok(db)
}

/// Minimal JSON well-formedness scanner: brackets/braces balance outside
/// strings, string escapes are sane. Catches truncation and unescaped
/// output without needing a full parser (no serde in this workspace).
fn validate_json(s: &str) -> Result<(), String> {
    let mut stack = Vec::new();
    let mut chars = s.chars();
    let mut in_string = false;
    while let Some(c) = chars.next() {
        if in_string {
            match c {
                '\\' => {
                    chars.next().ok_or("dangling escape at end of input")?;
                }
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => stack.push(c),
            '}' | ']' => {
                let open = if c == '}' { '{' } else { '[' };
                if stack.pop() != Some(open) {
                    return Err(format!("unbalanced {c:?}"));
                }
            }
            _ => {}
        }
    }
    if in_string {
        return Err("unterminated string".into());
    }
    if !stack.is_empty() {
        return Err(format!("unclosed delimiters: {stack:?}"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let db = match run_workload() {
        Ok(db) => db,
        Err(e) => {
            eprintln!("workload failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Heat report must be non-trivial for this run.
    let heat = db.heat_report();
    let reads: u64 = heat
        .iter()
        .flat_map(|(_, _, r)| r.rowgroups.iter())
        .map(|rg| rg.reads)
        .sum();
    let writes: u64 = heat
        .iter()
        .flat_map(|(_, _, r)| r.rowgroups.iter())
        .map(|rg| rg.writes)
        .sum();
    if heat.is_empty() || reads == 0 || writes == 0 {
        eprintln!(
            "heat report trivial: {} indexes, reads={reads} writes={writes}",
            heat.len()
        );
        return ExitCode::FAILURE;
    }
    println!(
        "heat: {} indexes, {} rowgroups, reads={reads} writes={writes}",
        heat.len(),
        heat.iter()
            .map(|(_, _, r)| r.rowgroups.len())
            .sum::<usize>(),
    );

    let json = db.export_chrome_trace();
    let path = std::path::Path::new("target").join("hpd-trace.json");
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }

    if let Err(e) = validate_json(&json) {
        eprintln!("exported trace is not well-formed JSON: {e}");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for name in [
        "query",
        "select",
        "optimize",
        "admission",
        "execute",
        "op",
        "commit",
        "wal.flush",
        "background.maintenance",
        "background.checkpoint",
    ] {
        let needle = format!("\"name\":\"{name}\"");
        if !json.contains(&needle) {
            eprintln!("span taxonomy incomplete: no {name:?} span in export");
            failed = true;
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    let events = json.matches("\"ph\":\"X\"").count();
    println!(
        "wrote {} ({} events, {} bytes) — load it in ui.perfetto.dev",
        path.display(),
        events,
        json.len()
    );
    ExitCode::SUCCESS
}
