//! What a run prints must be what the contract reads: the result object
//! with exactly its four keys, every end-to-end metric on every workload
//! with a positive finite value (and, in the detail file, the timings a
//! gated run reports beside them), and every per-layer metric of a traced
//! run. One test, because peak memory and the registry are process-wide.

use hpd_benchmark::gated::{self, GatedOptions};
use hpd_benchmark::json::Json;
use hpd_benchmark::metrics::{GATED_RUN, PER_LAYER};
use hpd_benchmark::traced::{self, TracedOptions};
use hpd_benchmark::workloads;

fn parsed(line: &str) -> Json {
    let doc = Json::parse(line).expect("the result line is JSON");
    let keys: Vec<&String> = doc.as_obj().expect("an object").keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    doc
}

#[test]
fn every_workload_emits_every_metric() {
    for name in workloads::NAMES {
        let w = workloads::by_name(name).expect("known workload");
        let outcome = gated::run(
            w.as_ref(),
            &GatedOptions {
                seed: 3,
                seconds: 0.5,
            },
        )
        .expect("gated run");
        assert!(outcome.correct, "{name}: {:?}", outcome.problems);
        let doc = parsed(&outcome.result_line());
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert!(doc.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
        let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
        let gated = GATED_RUN.iter().filter(|m| m.bound.is_some()).count();
        assert_eq!(metrics.len(), gated, "{name}");
        let detail = Json::parse(&outcome.detail_json()).expect("detail is JSON");
        let measured = detail.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(measured.len(), GATED_RUN.len(), "{name}");
        for def in GATED_RUN {
            let m = measured
                .get(def.name)
                .unwrap_or_else(|| panic!("{name} lacks {}", def.name));
            let v = m.get("value").and_then(Json::as_f64).expect("a number");
            assert!(v.is_finite() && v > 0.0, "{name}.{} = {v}", def.name);
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(metrics.contains_key(def.name), def.bound.is_some());
        }
        let timed = detail
            .get("detail")
            .and_then(|d| d.get("timed_statements"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!(timed > 0.0, "{name}: no statement was timed");
    }

    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("emitted_json");
    let w = workloads::by_name("htap").unwrap();
    let outcome = traced::run(
        w.as_ref(),
        &TracedOptions {
            seed: 3,
            seconds: 1.0,
            out_dir: &out_dir,
        },
    )
    .expect("traced run");
    assert!(outcome.correct, "{:?}", outcome.problems);
    let doc = parsed(&outcome.result_line());
    let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
    assert_eq!(metrics.len(), PER_LAYER.len());
    for def in PER_LAYER {
        let v = metrics[def.name].get("value").and_then(Json::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{} = {v:?}", def.name);
    }
    let spans =
        std::fs::read_to_string(out_dir.join("htap-seed3.spans.jsonl")).expect("spans file");
    assert!(spans.lines().count() > 100);
    for line in spans.lines().take(50) {
        let span = Json::parse(line).expect("each span is JSON");
        assert!(span.get("name").is_some() && span.get("start_ns").is_some());
    }
    std::fs::remove_dir_all(&out_dir).expect("remove the test's output");
}
