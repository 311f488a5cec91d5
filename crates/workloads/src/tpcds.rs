//! A TPC-DS-like star schema and a 97-query decision-support workload.
//!
//! Two fact tables (`store_sales`, `web_sales`) and six dimensions mirror
//! the tables the paper's §5.3 example plans reference (`item`, `date_dim`,
//! `customer_address`, `store`, `household_demographics`). The query
//! generator produces the TPC-DS *shape*: star joins with selective
//! dimension predicates, grouped aggregates over fact measures, and a tail
//! of full-scan rollups — the mix that makes hybrid designs win.

use hpd_common::{AggFunc, CmpOp, DataType, Expr, PartitionSpec, Result, Row, Schema, Value};
use hpd_engine::{AggItem, ColRef, Database, EquiJoin, IndexDescriptor, SelectQuery, TableInput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scale knobs for the generated database.
#[derive(Debug, Clone, Copy)]
pub struct DsScale {
    pub store_sales_rows: usize,
    pub web_sales_rows: usize,
    pub items: usize,
    pub dates: usize,
    pub addresses: usize,
    pub stores: usize,
    pub households: usize,
    pub seed: u64,
}

impl Default for DsScale {
    fn default() -> DsScale {
        DsScale {
            store_sales_rows: 200_000,
            web_sales_rows: 100_000,
            items: 2_000,
            dates: 1_461, // four years
            addresses: 5_000,
            stores: 50,
            households: 720,
            seed: 0xD5,
        }
    }
}

impl DsScale {
    pub fn small() -> DsScale {
        DsScale {
            store_sales_rows: 40_000,
            web_sales_rows: 20_000,
            items: 500,
            dates: 366,
            addresses: 1_000,
            stores: 10,
            households: 144,
            ..DsScale::default()
        }
    }
}

/// Fact column ordinals (shared by both fact tables).
pub mod fact {
    pub const ID: usize = 0;
    pub const ITEM_SK: usize = 1;
    pub const DATE_SK: usize = 2;
    pub const ADDR_SK: usize = 3;
    pub const STORE_SK: usize = 4;
    pub const HDEMO_SK: usize = 5;
    pub const QUANTITY: usize = 6;
    pub const SALES_PRICE: usize = 7;
    pub const EXT_SALES_PRICE: usize = 8;
    pub const NET_PROFIT: usize = 9;
}

fn fact_schema(prefix: &str) -> Schema {
    Schema::from_pairs(&[
        (&format!("{prefix}_id") as &str, DataType::Int64),
        (&format!("{prefix}_item_sk"), DataType::Int32),
        (&format!("{prefix}_sold_date_sk"), DataType::Int32),
        (&format!("{prefix}_addr_sk"), DataType::Int32),
        (&format!("{prefix}_store_sk"), DataType::Int32),
        (&format!("{prefix}_hdemo_sk"), DataType::Int32),
        (&format!("{prefix}_quantity"), DataType::Int32),
        (&format!("{prefix}_sales_price"), DataType::Decimal),
        (&format!("{prefix}_ext_sales_price"), DataType::Decimal),
        (&format!("{prefix}_net_profit"), DataType::Decimal),
    ])
}

/// Names of all tables the generator creates.
pub const TABLES: [&str; 8] = [
    "store_sales",
    "web_sales",
    "item",
    "date_dim",
    "customer_address",
    "store",
    "household_demographics",
    "promotion",
];

/// Create and load the whole schema.
pub fn load(db: &Database, scale: DsScale) -> Result<()> {
    load_partitioned(db, scale, 1)
}

/// [`load`] with each fact table range-partitioned on its key into
/// `fact_parts` parts of equal rows (one part: not partitioned). The rows
/// are [`load`]'s.
pub fn load_partitioned(db: &Database, scale: DsScale, fact_parts: usize) -> Result<()> {
    let mut rng = StdRng::seed_from_u64(scale.seed);

    // Dimensions -------------------------------------------------------
    db.create_table(
        "item",
        Schema::from_pairs(&[
            ("i_item_sk", DataType::Int32),
            ("i_category", DataType::Int32), // 10 categories
            ("i_brand", DataType::Int32),    // ~100 brands
            ("i_current_price", DataType::Decimal),
        ]),
        vec![0],
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
    )?;
    db.load_table(
        "item",
        (0..scale.items as i32)
            .map(|i| {
                Row::new(vec![
                    Value::Int32(i),
                    Value::Int32(i % 10),
                    Value::Int32(i % 100),
                    Value::Decimal((i as i64 % 90 + 10) * 10_000),
                ])
            })
            .collect(),
    )?;

    db.create_table(
        "date_dim",
        Schema::from_pairs(&[
            ("d_date_sk", DataType::Int32),
            ("d_year", DataType::Int32),
            ("d_moy", DataType::Int32),
            ("d_dom", DataType::Int32),
        ]),
        vec![0],
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
    )?;
    db.load_table(
        "date_dim",
        (0..scale.dates as i32)
            .map(|d| {
                Row::new(vec![
                    Value::Int32(d),
                    Value::Int32(1998 + d / 365),
                    Value::Int32(d / 30 % 12 + 1),
                    Value::Int32(d % 30 + 1),
                ])
            })
            .collect(),
    )?;

    db.create_table(
        "customer_address",
        Schema::from_pairs(&[
            ("ca_address_sk", DataType::Int32),
            ("ca_state", DataType::Int32),      // 50 states
            ("ca_gmt_offset", DataType::Int32), // -10..-5
        ]),
        vec![0],
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
    )?;
    db.load_table(
        "customer_address",
        (0..scale.addresses as i32)
            .map(|a| {
                Row::new(vec![
                    Value::Int32(a),
                    Value::Int32(a % 50),
                    Value::Int32(-(a % 6) - 5),
                ])
            })
            .collect(),
    )?;

    db.create_table(
        "store",
        Schema::from_pairs(&[
            ("s_store_sk", DataType::Int32),
            ("s_state", DataType::Int32),
            ("s_market_id", DataType::Int32),
        ]),
        vec![0],
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
    )?;
    db.load_table(
        "store",
        (0..scale.stores as i32)
            .map(|s| {
                Row::new(vec![
                    Value::Int32(s),
                    Value::Int32(s % 50),
                    Value::Int32(s % 10),
                ])
            })
            .collect(),
    )?;

    db.create_table(
        "household_demographics",
        Schema::from_pairs(&[
            ("hd_demo_sk", DataType::Int32),
            ("hd_dep_count", DataType::Int32),     // 0..9
            ("hd_vehicle_count", DataType::Int32), // 0..4
        ]),
        vec![0],
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
    )?;
    db.load_table(
        "household_demographics",
        (0..scale.households as i32)
            .map(|h| {
                Row::new(vec![
                    Value::Int32(h),
                    Value::Int32(h % 10),
                    Value::Int32(h % 5),
                ])
            })
            .collect(),
    )?;

    db.create_table(
        "promotion",
        Schema::from_pairs(&[
            ("p_promo_sk", DataType::Int32),
            ("p_channel", DataType::Int32),
            ("p_response_target", DataType::Int32),
        ]),
        vec![0],
        IndexDescriptor::PrimaryBTree { keys: vec![0] },
    )?;
    db.load_table(
        "promotion",
        (0..300i32)
            .map(|p| {
                Row::new(vec![
                    Value::Int32(p),
                    Value::Int32(p % 4),
                    Value::Int32(p % 20),
                ])
            })
            .collect(),
    )?;

    // Facts -------------------------------------------------------------
    for (name, prefix, rows) in [
        ("store_sales", "ss", scale.store_sales_rows),
        ("web_sales", "ws", scale.web_sales_rows),
    ] {
        let primary = IndexDescriptor::PrimaryBTree { keys: vec![0] };
        if fact_parts > 1 {
            let bounds = (1..fact_parts)
                .map(|p| Value::Int64((p * rows / fact_parts) as i64))
                .collect();
            let spec = PartitionSpec::range(fact::ID, bounds)?;
            db.create_partitioned_table(name, fact_schema(prefix), vec![0], primary, spec)?;
        } else {
            db.create_table(name, fact_schema(prefix), vec![0], primary)?;
        }
        // Drawn as the load takes them: no fact row waits in a vector.
        let data = (0..rows as i64).map(|i| {
            let price = rng.gen_range(100i64..100_000) * 100;
            let qty = rng.gen_range(1..=20);
            Row::new(vec![
                Value::Int64(i),
                Value::Int32(rng.gen_range(0..scale.items as i32)),
                Value::Int32(rng.gen_range(0..scale.dates as i32)),
                Value::Int32(rng.gen_range(0..scale.addresses as i32)),
                Value::Int32(rng.gen_range(0..scale.stores as i32)),
                Value::Int32(rng.gen_range(0..scale.households as i32)),
                Value::Int32(qty),
                Value::Decimal(price),
                Value::Decimal(price * qty as i64),
                Value::Decimal(rng.gen_range(-20_000i64..80_000) * 100),
            ])
        });
        db.load_table_from(name, data)?;
    }
    Ok(())
}

/// Dimension descriptor used by the query generator.
struct Dim {
    name: &'static str,
    /// Fact ordinal holding the FK to this dimension.
    fact_col: usize,
    /// (predicate column, domain size) pairs usable as selective filters.
    filters: &'static [(usize, i32)],
    /// Columns usable as group-by attributes.
    group_cols: &'static [usize],
}

const DIMS: [Dim; 5] = [
    Dim {
        name: "item",
        fact_col: fact::ITEM_SK,
        filters: &[(1, 10), (2, 100)],
        group_cols: &[1, 2],
    },
    Dim {
        name: "date_dim",
        fact_col: fact::DATE_SK,
        filters: &[(1, 5), (2, 12)],
        group_cols: &[1, 2],
    },
    Dim {
        name: "customer_address",
        fact_col: fact::ADDR_SK,
        filters: &[(1, 50), (2, 6)],
        group_cols: &[1],
    },
    Dim {
        name: "store",
        fact_col: fact::STORE_SK,
        filters: &[(1, 50), (2, 10)],
        group_cols: &[2],
    },
    Dim {
        name: "household_demographics",
        fact_col: fact::HDEMO_SK,
        filters: &[(1, 10), (2, 5)],
        group_cols: &[1],
    },
];

/// Generate the decision-support workload: `n` star queries (97 for the
/// paper's TPC-DS setup), deterministic in `seed`.
pub fn queries(n: usize, seed: u64) -> Vec<(String, SelectQuery)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    for qid in 0..n {
        let fact_name = if rng.gen_bool(0.65) {
            "store_sales"
        } else {
            "web_sales"
        };
        // 1–4 joined dimensions.
        let n_dims = rng.gen_range(1..=4usize);
        let mut dim_ids: Vec<usize> = (0..DIMS.len()).collect();
        for i in (1..dim_ids.len()).rev() {
            let j = rng.gen_range(0..=i);
            dim_ids.swap(i, j);
        }
        dim_ids.truncate(n_dims);

        let mut tables = vec![TableInput::new(fact_name)];
        let mut joins = Vec::new();
        let mut group_by = Vec::new();
        // Selective query (~50%): tight dimension predicates that make B+
        // tree plans attractive; otherwise a broad scan shape.
        let selective = rng.gen_bool(0.5);
        for (pos, &di) in dim_ids.iter().enumerate() {
            let dim = &DIMS[di];
            let ti = pos + 1;
            let mut pred: Option<Expr> = None;
            if selective || rng.gen_bool(0.3) {
                let (pcol, domain) = dim.filters[rng.gen_range(0..dim.filters.len())];
                let v = rng.gen_range(0..domain);
                let base = Expr::col_cmp(pcol, CmpOp::Eq, Value::Int32(v));
                pred = Some(match pred {
                    None => base,
                    Some(p) => Expr::And(vec![p, base]),
                });
            }
            tables.push(match pred {
                Some(p) => TableInput::with_predicate(dim.name, p),
                None => TableInput::new(dim.name),
            });
            joins.push(EquiJoin {
                left: ColRef::new(0, dim.fact_col),
                right: ColRef::new(ti, 0),
            });
            if group_by.is_empty() && !dim.group_cols.is_empty() && rng.gen_bool(0.6) {
                let g = dim.group_cols[rng.gen_range(0..dim.group_cols.len())];
                group_by.push(ColRef::new(ti, g));
            }
        }
        // Optional fact-local predicate.
        if rng.gen_bool(0.3) {
            tables[0].predicate = Some(Expr::col_cmp(
                fact::QUANTITY,
                CmpOp::Le,
                Value::Int32(rng.gen_range(2..20)),
            ));
        }
        let aggregates = vec![
            AggItem::column(AggFunc::Sum, ColRef::new(0, fact::EXT_SALES_PRICE)),
            AggItem::column(AggFunc::Count, ColRef::new(0, fact::ID)),
        ];
        out.push((
            format!("DS-Q{:02}", qid + 1),
            SelectQuery {
                tables,
                joins,
                group_by,
                aggregates,
                ..Default::default()
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpd_engine::{Database, DbConfig, Statement};

    #[test]
    fn load_and_run_sample_queries() {
        let db = Database::new(DbConfig::default());
        let scale = DsScale {
            store_sales_rows: 5_000,
            web_sales_rows: 2_000,
            items: 100,
            dates: 100,
            addresses: 200,
            stores: 10,
            households: 72,
            seed: 1,
        };
        load(&db, scale).unwrap();
        for (label, q) in queries(10, 7) {
            let r = db.query(&Statement::Select(q)).run().unwrap();
            assert!(r.rows.len() < 5_000, "{label} exploded");
        }
    }

    #[test]
    fn workload_is_deterministic_and_diverse() {
        let a = queries(97, 42);
        let b = queries(97, 42);
        assert_eq!(a.len(), 97);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.tables.len(), y.1.tables.len());
        }
        // Diversity: both selective and non-selective queries appear.
        let with_pred = a
            .iter()
            .filter(|(_, q)| q.tables.iter().any(|t| t.predicate.is_some()))
            .count();
        assert!(with_pred > 20 && with_pred < 97);
        // Join fan varies.
        let joins: std::collections::HashSet<usize> =
            a.iter().map(|(_, q)| q.joins.len()).collect();
        assert!(joins.len() >= 3);
    }
}
