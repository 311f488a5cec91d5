//! Run the table/figure reproductions and print a combined report: every
//! section, or just the one named by `--only <id>`.
//! Scale via HPD_SCALE=quick|full (default: medium).
use std::process::ExitCode;

use hpd_bench::figs;
use hpd_bench::Scale;

/// One reproduction: its `--only` id and its entry point.
type Section = (&'static str, fn(Scale) -> String);

const SECTIONS: [Section; 15] = [
    ("fig1", figs::fig1_selectivity::run),
    ("fig2+fig12", figs::fig2_data_skipping::run),
    ("fig3", figs::fig3_sort_order::run),
    ("fig4", figs::fig4_groupby_memory::run),
    ("fig5", figs::fig5_updates::run),
    ("fig6", figs::fig6_mixed::run),
    ("table1", figs::table1_matrix::run),
    ("table2", figs::table2_stats::run),
    ("fig9", figs::fig9_speedup::run),
    ("fig10", figs::fig10_plan_mix::run),
    ("fig11", figs::fig11_ch_mixed::run),
    ("fig13", figs::fig13_concurrency::run),
    ("concurrent-clients", figs::concurrent_clients::run),
    ("example-plans", figs::example_plans::run),
    ("ablation-device", figs::ablation_device::run),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let only = match args.as_slice() {
        [] => None,
        [flag, id] if flag == "--only" && SECTIONS.iter().any(|(name, _)| name == id) => Some(id),
        _ => {
            let ids: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
            eprintln!("usage: figures [--only <id>]\nids: {}", ids.join(" "));
            return ExitCode::FAILURE;
        }
    };
    let scale = Scale::from_env();
    for (name, f) in SECTIONS {
        if only.is_some_and(|id| id != name) {
            continue;
        }
        let start = std::time::Instant::now();
        println!("================================================================");
        println!("== {name}");
        println!("================================================================");
        println!("{}", f(scale));
        eprintln!("[{name} took {:.1}s]", start.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}
