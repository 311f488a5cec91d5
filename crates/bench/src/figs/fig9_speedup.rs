//! **Figure 9** — distribution of per-query CPU-time speedups achieved by
//! the hybrid (DTA-recommended) design over columnstore-only and B+
//! tree-only designs, across the six read-only workloads. Each query's
//! measured ratio is printed beside the optimizer's estimated one, and each
//! workload counts the queries whose estimate gives another verdict (win,
//! tie or loss) than the measurement.

use hpd_advisor::advisor::csi_everywhere_configuration;
use hpd_advisor::{Advisor, AdvisorOptions, DesignMode, Workload};
use hpd_engine::{Configuration, Database, DbConfig, SelectQuery, Statement};
use hpd_workloads::{customer, tpcds};

use crate::common::{render_table, speedup_bin, Scale, SPEEDUP_BINS};

/// One workload: loader + query set.
pub struct Bundle {
    pub name: String,
    pub load: Box<dyn Fn(&Database)>,
    pub queries: Vec<(String, SelectQuery)>,
}

pub fn bundles(scale: Scale) -> Vec<Bundle> {
    let mut out: Vec<Bundle> = Vec::new();
    let ds_scale = if scale.quick {
        tpcds::DsScale::small()
    } else {
        tpcds::DsScale::default()
    };
    out.push(Bundle {
        name: "TPC-DS".into(),
        load: Box::new(move |db| tpcds::load(db, ds_scale).expect("load tpcds")),
        queries: tpcds::queries(scale.ds_queries, 99),
    });
    for mut profile in customer::profiles() {
        if scale.quick {
            profile.max_table_rows /= 10;
            profile.queries = profile.queries.min(10);
        } else {
            profile.max_table_rows /= 2;
            profile.queries = profile.queries.min(24);
        }
        // Queries depend on the generated FK structure; generate once from a
        // scratch database to keep the Bundle self-contained.
        let scratch = Database::new(DbConfig::default());
        let cdb = customer::load(&scratch, profile.clone()).expect("load customer");
        let queries = cdb.queries();
        let name = profile.name.to_string();
        out.push(Bundle {
            name,
            load: Box::new(move |db| {
                customer::load(db, profile.clone())
                    .map(|_| ())
                    .expect("load customer")
            }),
            queries,
        });
    }
    out
}

/// One query's CPU time under a design: what the optimizer estimated for
/// its plan and what a run measured, microseconds.
#[derive(Clone, Copy)]
struct Cpu {
    estimated: f64,
    measured: f64,
}

/// Measure every query's CPU time under a configuration.
fn measure(db: &Database, config: &Configuration, queries: &[(String, SelectQuery)]) -> Vec<Cpu> {
    db.apply_configuration(config).expect("apply design");
    queries
        .iter()
        .map(|(_, q)| {
            let estimated = db.plan(q).expect("plan").est_cpu_us.max(1.0);
            // Warm + single measured run (CPU time is stable).
            let _ = db.query(&Statement::Select(q.clone())).run();
            let run = db.query(&Statement::Select(q.clone())).run();
            let measured = run.expect("query").metrics.cpu_us().max(1.0);
            Cpu {
                estimated,
                measured,
            }
        })
        .collect()
}

/// A hybrid/baseline speedup's verdict: a win at ≥ 1.2×, a loss at ≤ 1/1.2.
fn verdict(speedup: f64) -> &'static str {
    if speedup >= 1.2 {
        "win"
    } else if speedup <= 1.0 / 1.2 {
        "loss"
    } else {
        "tie"
    }
}

/// Per-workload tuned configurations, memoized by workload fingerprint so
/// Figure 10 (and repeated runs in the same process) reuse Figure 9's
/// advisor work instead of re-running the search.
pub fn tuned_configurations(
    db: &Database,
    queries: &[(String, SelectQuery)],
) -> (Configuration, Configuration, Configuration) {
    use std::sync::{Mutex, OnceLock};
    #[allow(clippy::type_complexity)]
    static MEMO: OnceLock<
        Mutex<std::collections::HashMap<String, (Configuration, Configuration, Configuration)>>,
    > = OnceLock::new();
    let fingerprint = queries
        .iter()
        .map(|(l, q)| {
            format!(
                "{l}:{}",
                q.tables
                    .iter()
                    .map(|t| t.name.as_str())
                    .collect::<Vec<_>>()
                    .join(",")
            )
        })
        .collect::<Vec<_>>()
        .join(";");
    if let Some(hit) = MEMO
        .get_or_init(|| Mutex::new(std::collections::HashMap::new()))
        .lock()
        .expect("memo lock")
        .get(&fingerprint)
    {
        return hit.clone();
    }
    let result = configurations(db, queries);
    MEMO.get()
        .expect("memo initialized above")
        .lock()
        .expect("memo lock")
        .insert(fingerprint, result.clone());
    result
}

/// The hybrid, B+ tree-only and columnstore-only configurations of `db`
/// for `queries`, searched afresh.
pub fn configurations(
    db: &Database,
    queries: &[(String, SelectQuery)],
) -> (Configuration, Configuration, Configuration) {
    let workload = Workload::read_only(queries.iter().map(|(_, q)| q.clone()).collect());
    let hybrid = Advisor::new(db, AdvisorOptions::default())
        .recommend(&workload)
        .expect("hybrid recommend")
        .configuration;
    let btree = Advisor::new(
        db,
        AdvisorOptions {
            mode: DesignMode::BTreeOnly,
            ..Default::default()
        },
    )
    .recommend(&workload)
    .expect("btree recommend")
    .configuration;
    let tables = workload.referenced_tables();
    let csi = csi_everywhere_configuration(db, &tables).expect("csi baseline");
    (hybrid, btree, csi)
}

pub fn run(scale: Scale) -> String {
    let mut out = String::new();
    out.push_str("Figure 9 — speedup (CPU time) of hybrid vs CSI-only and B+tree-only\n");

    for bundle in bundles(scale) {
        let db = Database::new(DbConfig::default());
        (bundle.load)(&db);
        let (hybrid_cfg, btree_cfg, csi_cfg) = tuned_configurations(&db, &bundle.queries);

        let csi = measure(&db, &csi_cfg, &bundle.queries);
        let btree = measure(&db, &btree_cfg, &bundle.queries);
        let hybrid = measure(&db, &hybrid_cfg, &bundle.queries);

        // Against CSI-only, then B+ tree-only.
        let mut hist = [[0usize; 8]; 2];
        let mut per_query = Vec::with_capacity(bundle.queries.len());
        let mut disagree = [0usize; 2];
        for (i, (label, _)) in bundle.queries.iter().enumerate() {
            let mut row = vec![label.clone()];
            for (b, base) in [&csi, &btree].into_iter().enumerate() {
                let est = base[i].estimated / hybrid[i].estimated;
                let meas = base[i].measured / hybrid[i].measured;
                hist[b][speedup_bin(meas)] += 1;
                disagree[b] += usize::from(verdict(est) != verdict(meas));
                row.extend([format!("{est:.2}x"), format!("{meas:.2}x")]);
            }
            per_query.push(row);
        }
        out.push_str(&format!(
            "\n({}) {} queries\n",
            bundle.name,
            bundle.queries.len()
        ));
        let headers = [
            "query",
            "vs CSI est",
            "vs CSI meas",
            "vs B+tree est",
            "vs B+tree meas",
        ];
        out.push_str(&render_table(&headers, &per_query));
        out.push_str(&format!(
            "estimate and measure disagree (win / tie / loss at 1.2x) on {} of {} vs CSI, {} of {} vs B+tree\n",
            disagree[0],
            bundle.queries.len(),
            disagree[1],
            bundle.queries.len()
        ));
        let rows = vec![
            std::iter::once("vs CSI".to_string())
                .chain(hist[0].iter().map(|c| c.to_string()))
                .collect::<Vec<_>>(),
            std::iter::once("vs B+tree".to_string())
                .chain(hist[1].iter().map(|c| c.to_string()))
                .collect::<Vec<_>>(),
        ];
        let mut headers = vec!["speedup <"];
        headers.extend(SPEEDUP_BINS);
        out.push_str(&render_table(&headers, &rows));
    }
    out.push_str(
        "\nExpected shape: mass at ≥1.2x in both rows; several queries per\n\
         workload land in the 10x / >10x bins (the paper's orders-of-magnitude\n\
         wins); a few sub-1x cases reflect optimizer estimation error.\n",
    );
    out
}
