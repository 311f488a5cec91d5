//! What one run reports: the contract's result line, a readable summary
//! above it, and a detail file `compare` reads back.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use std::collections::BTreeMap;

use crate::json::{number, quote};
use crate::metrics::MetricDef;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Part of the contract's result line: an end-to-end metric of a gated
    /// run, any per-layer metric of a traced run. The rest a gated run
    /// measures is printed and kept in the detail file only.
    pub in_contract: bool,
}

pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Everything the run measured that `BENCHMARK.json` or
    /// [`crate::metrics::GATED_RUN`] lists.
    pub metrics: Vec<Metric>,
    /// Why `correct` is false.
    pub problems: Vec<String>,
    /// Noise gauge verdict: the run was disturbed by a neighbour.
    pub disturbed: bool,
    /// False for `--quick` runs: too short to compare with anything.
    pub comparable: bool,
    /// Numbers that exist on this workload only (per-class latencies,
    /// set-up phases, sample counts), `(name, value)` or `(name, list)`.
    detail: Vec<(String, String)>,
}

impl Outcome {
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Outcome {
        Outcome {
            workload,
            seed,
            traced,
            correct: false,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            problems: Vec::new(),
            disturbed: false,
            comparable: true,
            detail: Vec::new(),
        }
    }

    /// Fill the metric list, in the order of `defs`, from the values a run
    /// measured. A listed metric nobody measured is a problem of the run,
    /// not a silent gap.
    pub fn set_metrics(&mut self, defs: &[MetricDef], values: &BTreeMap<&'static str, f64>) {
        self.metrics = defs
            .iter()
            .map(|def| Metric {
                name: def.name,
                unit: def.unit,
                value: values.get(def.name).copied().unwrap_or_else(|| {
                    self.problems
                        .push(format!("metric {} was not measured", def.name));
                    f64::NAN
                }),
                in_contract: self.traced || def.bound.is_some(),
            })
            .collect();
    }

    pub fn detail_num(&mut self, name: &str, v: f64) {
        self.detail.push((name.to_string(), number(v)));
    }

    pub fn detail_list(&mut self, name: &str, vs: &[f64]) {
        let items: Vec<String> = vs.iter().map(|v| number(*v)).collect();
        self.detail
            .push((name.to_string(), format!("[{}]", items.join(", "))));
    }

    fn metrics_json(&self, contract_only: bool) -> String {
        let items: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.in_contract || !contract_only)
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.name),
                    number(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`. A run that failed its correctness gate
    /// reports no metrics.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            if self.correct {
                self.metrics_json(true)
            } else {
                "{}".to_string()
            }
        )
    }

    /// The result object plus everything else the run knows.
    pub fn detail_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"disturbed\": {}, \"comparable\": {}, \
             \"metrics\": {}, \"problems\": [{}], \"detail\": {{",
            quote(self.workload),
            self.seed,
            self.traced,
            self.correct,
            self.attempted,
            self.failed,
            self.disturbed,
            self.comparable,
            self.metrics_json(false),
            self.problems
                .iter()
                .map(|p| quote(p))
                .collect::<Vec<_>>()
                .join(", "),
        );
        let items: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect();
        let _ = write!(s, "{}}}}}", items.join(", "));
        s
    }

    /// Readable summary, one metric per line with its unit.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "workload {}  seed {}  {}  correct {}  attempted {}  failed {}{}{}",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "gated" },
            self.correct,
            self.attempted,
            self.failed,
            if self.disturbed { "  DISTURBED" } else { "" },
            if self.comparable {
                ""
            } else {
                "  NOT COMPARABLE (--quick)"
            },
        );
        for p in &self.problems {
            let _ = writeln!(s, "  problem: {p}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "  {:<44} {:>16.4} {}{}",
                m.name,
                m.value,
                m.unit,
                if m.in_contract {
                    ""
                } else {
                    "  (reported, not gated)"
                }
            );
        }
        for (k, v) in &self.detail {
            let _ = writeln!(s, "  . {k:<42} {v}");
        }
        s
    }

    pub fn write_detail(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let file = dir.join(format!(
            "{}-seed{}-trace{}.json",
            self.workload,
            self.seed,
            u8::from(self.traced)
        ));
        std::fs::write(file, self.detail_json() + "\n")
    }
}
