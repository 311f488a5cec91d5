//! End-to-end tracing: run a §3.6-style mixed workload with tracing on and
//! validate the exported span taxonomy, rowgroup heat report, query-store
//! backfill, and the Prometheus metrics snapshot.
//!
//! The tracer is process-global, so the whole flow lives in one test
//! function; this file is its own test binary, so other integration tests
//! never see the enabled tracer.

use hybrid_physical_designs::engine::{Database, DbConfig};
use hybrid_physical_designs::obs::trace;
use hybrid_physical_designs::workloads::tpch::{
    load_lineitem, q4_update, q5_scan_range, MixedDesign,
};

#[test]
fn traced_mixed_workload_exports_spans_heat_and_metrics() {
    trace::tracer().set_enabled(true);
    let mut cfg = DbConfig::default();
    cfg.csi.rowgroup_capacity = 4_096;
    // Auto-checkpoint during the run so a background.checkpoint root span
    // appears without an explicit call.
    cfg.wal.checkpoint_every_commits = 8;
    let db = Database::new(cfg);
    load_lineitem(&db, 20_000, 7, MixedDesign::PrimaryCsi).unwrap();
    // Discard load-time spans: the workload under test starts here.
    trace::tracer().drain();

    // Mixed workload: analytic scans interleaved with small updates, plus
    // one explicit maintenance pass (tuple mover + delete compaction).
    let mut analyzed = None;
    for i in 0..12 {
        let scan = q5_scan_range(40 * i, 40 * i + 80);
        if i == 6 {
            let r = db.query(&scan).analyze().run().unwrap();
            analyzed = r.analyze;
        } else {
            db.query(&scan).run().unwrap();
        }
        db.query(&q4_update(10, 40 * i)).run().unwrap();
    }
    db.maintenance("lineitem").run().unwrap();

    // --- Analyze report carries the phase timeline -------------------
    let report = analyzed.expect("analyze requested");
    let timeline = report.timeline.expect("timeline populated for selects");
    assert!(timeline.execute_us > 0, "execute phase must take time");
    let rendered = report.render();
    assert!(rendered.contains("timeline: optimize="), "{rendered}");
    assert!(rendered.contains("wal_flush="), "{rendered}");

    // --- Query store: admission/DOP/WAL backfill and span trees ------
    let recent = db.query_store().recent();
    assert!(!recent.is_empty());
    assert!(
        recent.iter().all(|s| s.grant.granted_bytes > 0),
        "every select runs under a broker grant"
    );
    assert!(recent.iter().all(|s| s.dop >= 1));
    assert!(
        recent.iter().any(|s| s.wal.records > 0),
        "update commits must backfill WAL records"
    );
    let traced = recent
        .iter()
        .find(|s| s.trace.is_some())
        .expect("span trees attached while tracing");
    let tree = traced.trace.as_ref().unwrap();
    assert!(tree.starts_with("{\"name\":\"query\""), "{tree}");
    assert!(tree.contains("\"children\":["), "{tree}");
    // The dump embeds the tree as structural JSON, not a quoted string.
    assert!(db
        .query_store()
        .dump_jsonl()
        .contains("\"trace\":{\"name\""));

    // --- Chrome trace export: full span taxonomy ---------------------
    let spans = trace::tracer().spans();
    let names: std::collections::BTreeSet<&str> = spans.iter().map(|s| s.name).collect();
    for expected in [
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
        assert!(names.contains(expected), "missing span {expected:?}");
    }
    // Background work records as roots, never under a query.
    for s in spans.iter().filter(|s| s.name.starts_with("background.")) {
        assert_eq!(s.parent, 0, "background span nested under {}", s.parent);
    }
    // Queries are roots; their lifecycle spans nest beneath them.
    let query_ids: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == "query")
        .map(|s| {
            assert_eq!(s.parent, 0);
            s.id
        })
        .collect();
    let parent_name = |id: u64| spans.iter().find(|s| s.id == id).map(|s| s.name);
    for s in &spans {
        match s.name {
            "select" => assert!(query_ids.contains(&s.parent), "select outside a query"),
            "optimize" | "admission" | "execute" => {
                assert_eq!(parent_name(s.parent), Some("select"))
            }
            "wal.flush" => assert_eq!(parent_name(s.parent), Some("commit")),
            _ => {}
        }
    }
    let chrome = db.export_chrome_trace(); // drains the rings
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.ends_with("]}"));
    assert!(chrome.contains("\"name\":\"wal.flush\""));
    assert!(trace::tracer().spans().is_empty(), "export drains");

    // --- Rowgroup heat: non-trivial for the same run -----------------
    let heat = db.heat_report();
    assert!(!heat.is_empty(), "primary CSI must report heat");
    let (_, _, primary) = &heat[0];
    assert!(primary.rowgroups.len() > 1, "several rowgroups expected");
    let reads: u64 = primary.rowgroups.iter().map(|rg| rg.reads).sum();
    let writes: u64 = primary.rowgroups.iter().map(|rg| rg.writes).sum();
    assert!(reads > 0, "scans must heat rowgroups");
    assert!(writes > 0, "updates must heat rowgroups");
    assert!(primary.rowgroups.iter().any(|rg| rg.score() > 0));
    // Heat ages on the decay clock (`Database::decay_heat`, normally the
    // maintenance scheduler's tick) — deliberately NOT on maintenance
    // passes, which this run performed plenty of.
    assert_eq!(primary.decay_passes, 0, "maintenance must not decay heat");
    db.decay_heat();
    let heat = db.heat_report();
    let (_, _, primary) = &heat[0];
    assert!(primary.decay_passes >= 1, "decay tick ages heat");

    // --- Prometheus snapshot -----------------------------------------
    let prom = db.metrics_prometheus();
    for metric in [
        "hpd_query_statements",
        "hpd_query_latency_us_count",
        "hpd_maintenance_increments",
        "hpd_background_checkpoint_runs",
        "hpd_background_io_bytes_written",
    ] {
        assert!(prom.contains(metric), "missing prometheus metric {metric}");
    }

    trace::tracer().set_enabled(false);
    trace::tracer().drain();
}
