//! `hpd-benchmark compare <dirA> <dirB>`: two sets of run detail files,
//! side by side. Per workload × metric: each side's median and quartiles,
//! the ratio B/A with its base, and for end-to-end metrics a verdict
//! against the bound in `BENCHMARK.json` — `within bound`, `worse`, or
//! `unresolved` when either side's own spread is wider than the bound.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::Json;
use crate::stats::quartiles;

/// `(better, bound)` per end-to-end metric name.
pub type Bounds = BTreeMap<String, (String, f64)>;

pub fn read_bounds(benchmark_json: &Path) -> Result<Bounds, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let doc = Json::parse(&text)?;
    let mut out = Bounds::new();
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
    {
        let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
        let (Some(name), Some(better), Some(bound)) = (
            field("name"),
            field("better"),
            m.get("bound").and_then(Json::as_f64),
        ) else {
            return Err("an end_to_end entry lacks name, better or bound".into());
        };
        out.insert(name, (better, bound));
    }
    Ok(out)
}

/// `workload → metric → values`, one value per detail file in `dir`.
/// Gated and traced files never share a metric name, so both kinds are
/// read into one map.
pub type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn read_dir(dir: &Path) -> Result<Samples, String> {
    let mut out = Samples::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|x| x == "json")
                && !p.to_string_lossy().ends_with(".spans.jsonl")
        })
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(workload) = doc.get("workload").and_then(Json::as_str) else {
            continue; // not a run detail file
        };
        if doc.get("correct").and_then(Json::as_bool) != Some(true)
            || doc.get("comparable").and_then(Json::as_bool) == Some(false)
        {
            eprintln!("skipping {}: incorrect or --quick run", path.display());
            continue;
        }
        let Some(metrics) = doc.get("metrics").and_then(Json::as_obj) else {
            continue;
        };
        let per_workload = out.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                per_workload.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    WithinBound,
    Worse,
    Unresolved,
    /// Per-layer metric: reported, not judged.
    NoBound,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::NoBound => "",
        }
    }
}

fn summary(values: &[f64]) -> (f64, f64, f64) {
    if values.len() >= 2 {
        quartiles(values)
    } else {
        (values[0], values[0], values[0])
    }
}

/// Judge B against A. A side whose own interquartile range, as a share of
/// its median, exceeds the bound cannot resolve a change of that size.
pub fn judge(a: &[f64], b: &[f64], better: &str, bound: f64) -> Verdict {
    let (a1, am, a3) = summary(a);
    let (b1, bm, b3) = summary(b);
    let spread = |q1: f64, m: f64, q3: f64| if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() };
    if spread(a1, am, a3) > bound || spread(b1, bm, b3) > bound {
        return Verdict::Unresolved;
    }
    let worse_by = if better == "higher" {
        (am - bm) / am.abs().max(f64::MIN_POSITIVE)
    } else {
        (bm - am) / am.abs().max(f64::MIN_POSITIVE)
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

/// The comparison table, and how many rows were `worse` or `unresolved`.
pub fn render(a: &Samples, b: &Samples, bounds: &Bounds) -> (String, usize) {
    let mut out = String::new();
    let mut flagged = 0;
    for (workload, a_metrics) in a {
        let Some(b_metrics) = b.get(workload) else {
            let _ = writeln!(out, "{workload}: only in A");
            continue;
        };
        let _ = writeln!(
            out,
            "{workload}\n  {:<44} {:>14} {:>22} {:>14} {:>22} {:>9}  verdict",
            "metric", "A median", "A q1..q3", "B median", "B q1..q3", "B/A"
        );
        // End-to-end metrics first, then the layers.
        let mut names: Vec<&String> = a_metrics.keys().collect();
        names.sort_by_key(|n| (!bounds.contains_key(*n), (*n).clone()));
        for name in names {
            let Some(bv) = b_metrics.get(name) else {
                continue;
            };
            let av = &a_metrics[name];
            let (a1, am, a3) = summary(av);
            let (b1, bm, b3) = summary(bv);
            let verdict = match bounds.get(name) {
                Some((better, bound)) => judge(av, bv, better, *bound),
                None => Verdict::NoBound,
            };
            if matches!(verdict, Verdict::Worse | Verdict::Unresolved) {
                flagged += 1;
            }
            let _ = writeln!(
                out,
                "  {:<44} {:>14.4} {:>22} {:>14.4} {:>22} {:>9.4}  {}{}",
                name,
                am,
                format!("{a1:.4}..{a3:.4}"),
                bm,
                format!("{b1:.4}..{b3:.4}"),
                if am == 0.0 { f64::NAN } else { bm / am },
                verdict.label(),
                match bounds.get(name) {
                    Some((_, bound)) => format!(" (bound {bound}, n {}/{})", av.len(), bv.len()),
                    None => String::new(),
                },
            );
        }
    }
    (out, flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [115.0, 116.0, 114.0, 115.5, 114.5];
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(judge(&steady, &steady, "lower", 0.1), Verdict::WithinBound);
        assert_eq!(judge(&steady, &slower, "lower", 0.1), Verdict::Worse);
        // The same move is an improvement when higher is better.
        assert_eq!(judge(&steady, &slower, "higher", 0.1), Verdict::WithinBound);
        assert_eq!(judge(&slower, &steady, "higher", 0.1), Verdict::Worse);
        assert_eq!(judge(&steady, &noisy, "lower", 0.1), Verdict::Unresolved);
        assert_eq!(judge(&steady, &slower, "lower", 0.2), Verdict::WithinBound);
    }
}
