//! Hypothetical index metadata — the advisor's side of the what-if API.
//!
//! Mirrors the paper's §4.2: the engine was extended so the optimizer can
//! (a) recognize metadata-only columnstores, and (b) accept *per-column
//! sizes* for them. Here we construct [`IndexMeta`] records for indexes that
//! do not exist, using the size estimators of [`crate::size`].

use hpd_columnstore::CsiConfig;
use hpd_engine::{IndexDescriptor, IndexMeta, TableContext};

use crate::size::{btree_size_estimate, CsiSizeEstimator, SampleSet};

/// Build the what-if metadata for `descriptor` on the table described by
/// `ctx`, using `sample` for columnstore size estimation (one projection of
/// the sample and one estimator pass per columnstore).
pub fn hypothetical_meta(
    descriptor: &IndexDescriptor,
    ctx: &TableContext,
    sample: &SampleSet,
    estimator: &dyn CsiSizeEstimator,
    csi_config: &CsiConfig,
) -> IndexMeta {
    hpd_obs::global()
        .counter("advisor.hypothetical.built")
        .inc();
    let (arity, rows) = (ctx.schema.len(), ctx.stats.rows);
    // Described as the engine would report the built index.
    let blank = IndexMeta {
        hypothetical: true,
        ..IndexMeta::new(descriptor.as_stored(arity, &ctx.pk), rows)
    };
    if !descriptor.is_csi() {
        let (leaf_pages, height) = btree_size_estimate(descriptor, ctx, sample, rows);
        return IndexMeta {
            leaf_pages,
            height,
            ..blank
        };
    }
    // The estimator sizes the columns the index stores, in its order;
    // `stored` maps its column positions back to table ordinals.
    let stored = descriptor.stored_columns(arity, &ctx.pk);
    let proj_sample = SampleSet {
        rows: sample.rows.iter().map(|r| r.project(&stored)).collect(),
        fraction: sample.fraction,
        widths: (stored.iter())
            .filter_map(|&c| sample.widths.get(c).copied())
            .collect(),
    };
    let schema = ctx.schema.project(&stored);
    let columns = estimator.estimate_columns(&schema, &proj_sample, rows, csi_config);
    let at = || stored.iter().zip(&columns);
    IndexMeta {
        column_bytes: at().map(|(&c, &(bytes, _))| (c, bytes)).collect(),
        column_encodings: at().map(|(&c, &(_, encoding))| (c, encoding)).collect(),
        rowgroups: rows.div_ceil(csi_config.rowgroup_capacity.max(1)),
        ..blank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size::RunModelEstimator;
    use hpd_common::{DataType, Row, Schema, Value};
    use hpd_engine::TableStats;

    fn ctx(rows: Vec<Row>) -> (TableContext, Vec<Row>) {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int32),
            ("grp", DataType::Int32),
            ("val", DataType::Int32),
        ]);
        let encoded = hpd_engine::EncodedRows::from_rows(&rows);
        let stats = TableStats::analyze_encoded(&schema, &encoded, 4096).unwrap();
        (
            TableContext::unpartitioned("t".into(), schema, vec![0], stats, vec![]),
            rows,
        )
    }

    fn rows(n: i32) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int32(i),
                    Value::Int32(i % 5),
                    Value::Int32(i * 7),
                ])
            })
            .collect()
    }

    #[test]
    fn secondary_btree_meta_sized_by_stored_width() {
        let (ctx, data) = ctx(rows(10_000));
        let sample = SampleSet::full(&data);
        let narrow = hypothetical_meta(
            &IndexDescriptor::SecondaryBTree {
                keys: vec![1],
                includes: vec![],
            },
            &ctx,
            &sample,
            &RunModelEstimator,
            &CsiConfig::default(),
        );
        let wide = hypothetical_meta(
            &IndexDescriptor::SecondaryBTree {
                keys: vec![1],
                includes: vec![2],
            },
            &ctx,
            &sample,
            &RunModelEstimator,
            &CsiConfig::default(),
        );
        assert!(narrow.leaf_pages < wide.leaf_pages);
        assert!(narrow.hypothetical);
        assert_eq!(narrow.rows, 10_000);
    }

    #[test]
    fn secondary_columnstore_meta_includes_pk_and_maps_ordinals() {
        let (ctx, data) = ctx(rows(5_000));
        let sample = SampleSet::full(&data);
        let meta = hypothetical_meta(
            &IndexDescriptor::SecondaryCsi {
                columns: vec![1, 2],
            },
            &ctx,
            &sample,
            &RunModelEstimator,
            &CsiConfig::default(),
        );
        let cols: Vec<usize> = meta.column_bytes.iter().map(|&(c, _)| c).collect();
        assert!(cols.contains(&0), "pk appended: {cols:?}");
        assert!(cols.contains(&1) && cols.contains(&2));
        assert!(meta.size_bytes() > 0);
        assert!(meta.rowgroups >= 1);
        // Covers exactly the stored columns.
        assert!(meta.covers(&[0, 1, 2], 3, &[0]));
    }

    #[test]
    fn primary_csi_meta_covers_everything() {
        let (ctx, data) = ctx(rows(2_000));
        let sample = SampleSet::full(&data);
        let meta = hypothetical_meta(
            &IndexDescriptor::PrimaryCsi,
            &ctx,
            &sample,
            &RunModelEstimator,
            &CsiConfig::default(),
        );
        assert_eq!(meta.column_bytes.len(), 3);
        assert!(meta.covers(&[0, 1, 2], 3, &[0]));
    }
}
