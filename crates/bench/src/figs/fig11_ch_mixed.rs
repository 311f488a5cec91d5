//! **Figure 11** — CH-benCHmark: speedup distribution of the hybrid design
//! over B+ tree-only for the analytic queries and transactions, under
//! Snapshot (SI) and Serializable (SR) isolation, with concurrent C- and
//! H-threads.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hpd_advisor::{Advisor, AdvisorOptions, DesignMode, Workload, WorkloadStatement};
use hpd_common::HpdError;
use hpd_engine::{Configuration, Database, DbConfig, IsolationLevel, Statement};
use hpd_workloads::ch::{analytic_queries, load, ChRuntime, ChScale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{render_table, speedup_bin, Scale, SPEEDUP_BINS};

/// Median per-operation latency for each labelled operation type.
type Latencies = HashMap<String, f64>;

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

fn ch_db(design: &Configuration, scale: ChScale) -> Database {
    let mut cfg = DbConfig::default();
    cfg.csi.rowgroup_capacity = 8_192;
    cfg.lock_timeout = std::time::Duration::from_millis(400);
    let db = Database::new(cfg);
    load(&db, scale).expect("load CH");
    db.apply_configuration(design).expect("apply design");
    db
}

/// Run the mixed C+H workload for `seconds`, returning median latencies per
/// operation label.
fn run_mixed(
    db: Arc<Database>,
    scale: ChScale,
    isolation: IsolationLevel,
    seconds: f64,
) -> Latencies {
    let samples: Arc<Mutex<HashMap<String, Vec<f64>>>> = Arc::new(Mutex::new(HashMap::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let rt = Arc::new(ChRuntime::new(scale));
    let h_queries = analytic_queries();

    std::thread::scope(|scope| {
        // C-threads: the five TPC-C transactions.
        for t in 0..3u64 {
            let db = Arc::clone(&db);
            let samples = Arc::clone(&samples);
            let stop = Arc::clone(&stop);
            let rt = Arc::clone(&rt);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(t);
                let session = db.session(isolation);
                while !stop.load(Ordering::Relaxed) {
                    let which = rng.gen_range(0..100);
                    let label = match which {
                        0..=44 => "NewOrder",
                        45..=87 => "Payment",
                        88..=91 => "OrderStatus",
                        92..=95 => "Delivery",
                        _ => "StockLevel",
                    };
                    let start = Instant::now();
                    let mut txn = session.begin();
                    let result = match label {
                        "NewOrder" => rt.new_order(&mut txn, &mut rng),
                        "Payment" => rt.payment(&mut txn, &mut rng),
                        "OrderStatus" => rt.order_status(&mut txn, &mut rng),
                        "Delivery" => rt.delivery(&mut txn, &mut rng),
                        _ => rt.stock_level(&mut txn, &mut rng),
                    };
                    let ok = match result {
                        Ok(()) => txn.commit().is_ok(),
                        Err(HpdError::LockTimeout(_)) | Err(HpdError::SerializationFailure(_)) => {
                            txn.abort();
                            false
                        }
                        Err(e) => panic!("C transaction failed: {e}"),
                    };
                    if ok {
                        samples
                            .lock()
                            .expect("samples lock")
                            .entry(label.to_string())
                            .or_default()
                            .push(start.elapsed().as_secs_f64() * 1e6);
                    }
                }
            });
        }
        // H-thread: analytic queries round-robin. Latency uses the modelled
        // elapsed time so the columnstore's parallel-scan advantage shows
        // on few-core build machines.
        {
            let db = Arc::clone(&db);
            let samples = Arc::clone(&samples);
            let stop = Arc::clone(&stop);
            let queries = h_queries.clone();
            scope.spawn(move || {
                let session = db.session(isolation);
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let (label, q) = &queries[i % queries.len()];
                    i += 1;
                    match session.run(&Statement::Select(q.clone())) {
                        Ok(r) => {
                            samples
                                .lock()
                                .expect("samples lock")
                                .entry(label.clone())
                                .or_default()
                                .push(r.metrics.elapsed_us());
                        }
                        Err(HpdError::LockTimeout(_)) | Err(HpdError::SerializationFailure(_)) => {}
                        Err(e) => panic!("H query failed: {e}"),
                    }
                }
            });
        }
        // Timer.
        let stop2 = Arc::clone(&stop);
        scope.spawn(move || {
            std::thread::sleep(std::time::Duration::from_secs_f64(seconds));
            stop2.store(true, Ordering::Relaxed);
        });
    });

    let samples = samples.lock().expect("samples lock");
    samples
        .iter()
        .map(|(k, v)| (k.clone(), median(v.clone())))
        .collect()
}

/// DTA designs for the CH workload.
fn designs(scale: ChScale) -> (Configuration, Configuration) {
    let db = Database::new(DbConfig::default());
    load(&db, scale).expect("load CH");
    // Tuning workload: analytic queries plus representative write statements
    // (stand-ins for the transactions' DML) so maintenance costs count.
    let mut statements: Vec<WorkloadStatement> = analytic_queries()
        .into_iter()
        .map(|(label, q)| WorkloadStatement::labeled(Statement::Select(q), 1.0, label))
        .collect();
    statements.push(WorkloadStatement::labeled(
        Statement::Update(hpd_engine::UpdateStmt {
            table: "stock".into(),
            predicate: hpd_common::Expr::And(vec![
                hpd_common::Expr::col_cmp(0, hpd_common::CmpOp::Eq, hpd_common::Value::Int32(0)),
                hpd_common::Expr::col_cmp(1, hpd_common::CmpOp::Eq, hpd_common::Value::Int32(0)),
            ]),
            top: None,
            set: vec![(2, hpd_common::Expr::lit(hpd_common::Value::Int32(1)))],
        }),
        50.0,
        "upd-stock",
    ));
    let workload = Workload::new(statements);
    let hybrid = Advisor::new(&db, AdvisorOptions::default())
        .recommend(&workload)
        .expect("hybrid")
        .configuration;
    let btree = Advisor::new(
        &db,
        AdvisorOptions {
            mode: DesignMode::BTreeOnly,
            ..Default::default()
        },
    )
    .recommend(&workload)
    .expect("btree")
    .configuration;
    (hybrid, btree)
}

pub fn run(scale: Scale) -> String {
    // The default CH scale even in quick mode: the analytic queries need a
    // non-trivial `order_line` for the columnstore's advantage to exist.
    let ch_scale = ChScale::default();
    let seconds = if scale.quick { 4.0 } else { 10.0 };
    let (hybrid_cfg, btree_cfg) = designs(ch_scale);

    let mut out = String::new();
    out.push_str(&format!(
        "Figure 11 — CH benchmark, hybrid vs B+tree-only, {seconds}s per run\n"
    ));
    out.push_str("\nhybrid design columnstores: ");
    for t in &hybrid_cfg.tables {
        if t.parts.iter().any(|p| p[1..].iter().any(|d| d.is_csi())) {
            out.push_str(&t.table);
            out.push(' ');
        }
    }
    out.push('\n');

    for isolation in [IsolationLevel::Snapshot, IsolationLevel::Serializable] {
        let bt = run_mixed(
            Arc::new(ch_db(&btree_cfg, ch_scale)),
            ch_scale,
            isolation,
            seconds,
        );
        let hy = run_mixed(
            Arc::new(ch_db(&hybrid_cfg, ch_scale)),
            ch_scale,
            isolation,
            seconds,
        );
        let mut hist = [0usize; 8];
        let mut detail: Vec<(String, f64)> = Vec::new();
        for (label, bt_lat) in &bt {
            if let Some(hy_lat) = hy.get(label) {
                if bt_lat.is_finite() && hy_lat.is_finite() && *hy_lat > 0.0 {
                    let speedup = bt_lat / hy_lat;
                    hist[speedup_bin(speedup)] += 1;
                    detail.push((label.clone(), speedup));
                }
            }
        }
        detail.sort_by(|a, b| a.0.cmp(&b.0));
        let iso = match isolation {
            IsolationLevel::Snapshot => "SI",
            IsolationLevel::Serializable => "SR",
            IsolationLevel::ReadCommitted => "RC",
        };
        out.push_str(&format!("\nisolation {iso}: speedup histogram\n"));
        let mut headers = vec!["speedup <"];
        headers.extend(SPEEDUP_BINS);
        out.push_str(&render_table(
            &headers,
            &[std::iter::once(iso.to_string())
                .chain(hist.iter().map(|c| c.to_string()))
                .collect()],
        ));
        out.push_str("per-operation speedups: ");
        out.push_str(
            &detail
                .iter()
                .map(|(l, s)| format!("{l}={s:.1}x"))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
    }
    out.push_str(
        "\nExpected shape: analytic (CH-Q*) operations speed up, several by\n\
         >10x; the write transactions (NewOrder/Payment) slow moderately.\n",
    );
    out
}
