//! `BENCHMARK.json` at the repository root must say what the code does.

use std::path::Path;

use hpd_benchmark::json::Json;
use hpd_benchmark::metrics::{MetricDef, GATED_RUN, PER_LAYER};

/// `(name, unit, better, bound)`.
type Listed = (String, String, String, Option<f64>);
use hpd_benchmark::workloads;

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn listed(doc: &Json, key: &str) -> Vec<Listed> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("no {key} list"))
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (
                s("name"),
                s("unit"),
                s("better"),
                m.get("bound").and_then(Json::as_f64),
            )
        })
        .collect()
}

fn in_code(defs: &[MetricDef]) -> Vec<Listed> {
    defs.iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.into(), d.bound))
        .collect()
}

#[test]
fn manifest_lists_the_workloads_and_metrics_the_code_emits() {
    let doc = manifest();
    let keys: Vec<&String> = doc.as_obj().unwrap().keys().collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| {
            assert!(w.get("why").and_then(Json::as_str).unwrap().len() <= 200);
            w.get("name").and_then(Json::as_str).unwrap()
        })
        .collect();
    assert_eq!(names, workloads::NAMES);
    let end_to_end: Vec<MetricDef> = GATED_RUN
        .iter()
        .copied()
        .filter(|m| m.bound.is_some())
        .collect();
    assert_eq!(listed(&doc, "end_to_end"), in_code(&end_to_end));
    assert_eq!(listed(&doc, "per_layer"), in_code(&PER_LAYER));
    assert!(end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));

    // Four workloads, 4 + 22 x 4 runs: the run length must leave room for
    // set-up, recovery and two builds inside the driver's 3420 s.
    let run_seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);
    let paths: Vec<&str> = doc
        .get("paths")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(paths, ["benchmark"]);
}
