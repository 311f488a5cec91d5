//! Columnstore size estimation (paper §4.4).
//!
//! To cost a hypothetical columnstore, the what-if API needs *per-column
//! sizes* without building the index. Two estimators over a block-level
//! sample:
//!
//! * [`BlackBoxEstimator`] — build a real columnstore over the sample and
//!   scale each column's bytes by the inverse sampling fraction. Simple and
//!   compression-algorithm-agnostic, but the linearity assumption
//!   overestimates low-cardinality columns (the paper's `n_nationkey`
//!   example) and the sample build pays the compression sorts.
//! * [`RunModelEstimator`] — model the run-length encoding analytically:
//!   estimate per-column distinct counts with the **GEE** estimator, mimic
//!   the engine's greedy sort-order choice, bound each column's run count by
//!   the GEE estimate of the distinct *prefix combinations*, divide each
//!   integer column by its common power of ten as a build does
//!   ([`hpd_columnstore::value_encode`]), and convert runs to bytes per
//!   encoding. A build stores the smaller of that order and the one its
//!   rows arrive in (the primary's), so the model sizes the primary's order
//!   too, from neighbours inside one sampled block, and keeps the smaller.
//!   Row groups being compressed independently
//!   is modelled explicitly (the paper lists this as an accuracy
//!   improvement).

use std::collections::HashMap;

use hpd_btree::BTreeConfig;
use hpd_columnstore::{
    value_encode, CsiConfig, IntEncoding, Segment, FOR_DELTA_FRAME, RLE_RUN_BYTES,
};
use hpd_common::{codec, DataType, IndexDescriptor, Row, Schema, Value, ValueRef};
use hpd_engine::{btree_entry_bytes, TableContext};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Rows per sampling block (models block/page-level sampling: whole blocks
/// are taken, which is what introduces the bias the paper corrects for).
pub const SAMPLE_BLOCK_ROWS: usize = 1024;

/// A block-level sample of a table.
#[derive(Debug, Clone)]
pub struct SampleSet {
    pub rows: Vec<Row>,
    /// Achieved sampling fraction (sampled rows / total rows).
    pub fraction: f64,
    /// Mean bytes each column's values encode to ([`codec::put_value`])
    /// over every row of the table, not the sample's only; none for an
    /// empty table.
    pub widths: Vec<f64>,
}

/// Each column's encoded bytes summed over the rows added.
#[derive(Default)]
struct WidthSums {
    bytes: Vec<usize>,
    rows: usize,
}

impl WidthSums {
    fn add(&mut self, row: &Row) {
        if self.bytes.len() < row.len() {
            self.bytes.resize(row.len(), 0);
        }
        for (sum, v) in self.bytes.iter_mut().zip(row.values()) {
            *sum += ValueRef::from(v).encoded_len();
        }
        self.rows += 1;
    }

    fn of<'r>(rows: impl IntoIterator<Item = &'r Row>) -> WidthSums {
        let mut sums = WidthSums::default();
        rows.into_iter().for_each(|r| sums.add(r));
        sums
    }
}

/// The blocks a sample of roughly `fraction` of `row_count` rows takes, in
/// ascending order (none of an empty table). Deterministic in `seed`.
fn sampled_blocks(row_count: usize, fraction: f64, seed: u64) -> Vec<usize> {
    let n_blocks = row_count.div_ceil(SAMPLE_BLOCK_ROWS);
    let want_blocks = ((n_blocks as f64 * fraction).ceil() as usize)
        .max(1)
        .min(n_blocks);
    let mut ids: Vec<usize> = (0..n_blocks).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    ids.shuffle(&mut rng);
    ids.truncate(want_blocks);
    ids.sort_unstable();
    ids
}

impl SampleSet {
    /// Mean bytes column `c`'s values encode to over the whole table
    /// (`widths`); [`codec::encoded_width`] of `dtype`, the most a scalar
    /// takes, when the table is empty.
    pub fn encoded_width(&self, c: usize, dtype: DataType) -> f64 {
        (self.widths.get(c).copied()).unwrap_or_else(|| codec::encoded_width(dtype) as f64)
    }

    /// `rows` as a sample of a table of `row_count` rows whose encoded
    /// bytes `sums` summed; an empty table is its own whole sample.
    fn of(rows: Vec<Row>, row_count: usize, sums: WidthSums) -> SampleSet {
        let fraction = match row_count {
            0 => 1.0,
            n => rows.len() as f64 / n as f64,
        };
        let all = sums.rows as f64;
        SampleSet {
            rows,
            fraction,
            widths: sums.bytes.into_iter().map(|b| b as f64 / all).collect(),
        }
    }

    /// Sample whole blocks of `all_rows` until roughly `fraction` of the
    /// rows are covered. Deterministic in `seed`.
    pub fn block_sample(all_rows: &[Row], fraction: f64, seed: u64) -> SampleSet {
        let blocks = sampled_blocks(all_rows.len(), fraction, seed);
        let mut rows = Vec::with_capacity(blocks.len() * SAMPLE_BLOCK_ROWS);
        for b in blocks {
            let start = b * SAMPLE_BLOCK_ROWS;
            let end = (start + SAMPLE_BLOCK_ROWS).min(all_rows.len());
            rows.extend_from_slice(&all_rows[start..end]);
        }
        SampleSet::of(rows, all_rows.len(), WidthSums::of(all_rows))
    }

    /// [`SampleSet::block_sample`] of a table nobody holds as a slice:
    /// `feed` hands over all `row_count` rows once, in order; only the rows
    /// of the sampled blocks are copied, and every row's encoded bytes are
    /// summed.
    pub fn block_sample_scan(
        row_count: usize,
        fraction: f64,
        seed: u64,
        feed: impl FnOnce(&mut dyn FnMut(&Row)),
    ) -> SampleSet {
        let blocks = sampled_blocks(row_count, fraction, seed);
        let mut rows = Vec::with_capacity(blocks.len() * SAMPLE_BLOCK_ROWS);
        let (mut ordinal, mut widths) = (0, WidthSums::default());
        feed(&mut |row| {
            if blocks.binary_search(&(ordinal / SAMPLE_BLOCK_ROWS)).is_ok() {
                rows.push(row.clone());
            }
            widths.add(row);
            ordinal += 1;
        });
        SampleSet::of(rows, row_count, widths)
    }

    /// The whole table as a "sample" (exact estimation baseline).
    pub fn full(all_rows: &[Row]) -> SampleSet {
        SampleSet::of(all_rows.to_vec(), all_rows.len(), WidthSums::of(all_rows))
    }
}

/// The GEE (Guaranteed Error Estimator) distinct-value estimator:
/// `sqrt(1/q) * f1 + Σ_{j≥2} f_j`, where `f_j` is the number of values
/// occurring exactly `j` times in the sample and `q` the sampling fraction.
/// Values seen once may represent many more; values seen repeatedly are
/// counted once.
pub fn gee_distinct<I, T>(values: I, fraction: f64) -> usize
where
    I: IntoIterator<Item = T>,
    T: std::hash::Hash + Eq,
{
    let mut freq: HashMap<T, usize> = HashMap::new();
    for v in values {
        *freq.entry(v).or_insert(0) += 1;
    }
    let f1 = freq.values().filter(|&&c| c == 1).count();
    let rest = freq.len() - f1;
    let scale = (1.0 / fraction.max(1e-9)).sqrt();
    (f1 as f64 * scale).round() as usize + rest
}

/// Estimates the per-column compressed size and physical encoding of a
/// columnstore over a table.
pub trait CsiSizeEstimator {
    /// One `(bytes, expected encoding)` pair per schema column, from one
    /// pass over the sample. The encoding is what the engine is predicted
    /// to pick when the index is materialized; it feeds the cost model's
    /// per-encoding CPU factors.
    fn estimate_columns(
        &self,
        schema: &Schema,
        sample: &SampleSet,
        total_rows: usize,
        config: &CsiConfig,
    ) -> Vec<(usize, IntEncoding)>;

    fn name(&self) -> &'static str;

    /// One byte estimate per schema column.
    fn estimate_column_bytes(
        &self,
        schema: &Schema,
        sample: &SampleSet,
        total_rows: usize,
        config: &CsiConfig,
    ) -> Vec<usize> {
        let columns = self.estimate_columns(schema, sample, total_rows, config);
        columns.into_iter().map(|(bytes, _)| bytes).collect()
    }

    /// Expected physical encoding per schema column.
    fn estimate_column_encodings(
        &self,
        schema: &Schema,
        sample: &SampleSet,
        total_rows: usize,
        config: &CsiConfig,
    ) -> Vec<IntEncoding> {
        let columns = self.estimate_columns(schema, sample, total_rows, config);
        columns.into_iter().map(|(_, encoding)| encoding).collect()
    }

    /// Total size estimate.
    fn estimate_total_bytes(
        &self,
        schema: &Schema,
        sample: &SampleSet,
        total_rows: usize,
        config: &CsiConfig,
    ) -> usize {
        self.estimate_column_bytes(schema, sample, total_rows, config)
            .iter()
            .sum()
    }
}

/// Build a real columnstore over the sample; scale per-column bytes by the
/// inverse sampling fraction and report the encodings the build chose.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlackBoxEstimator;

impl CsiSizeEstimator for BlackBoxEstimator {
    fn estimate_columns(
        &self,
        schema: &Schema,
        sample: &SampleSet,
        total_rows: usize,
        config: &CsiConfig,
    ) -> Vec<(usize, IntEncoding)> {
        if sample.rows.is_empty() || total_rows == 0 {
            return vec![(0, IntEncoding::Raw); schema.len()];
        }
        let pool = hpd_storage::BufferPool::unbounded(hpd_storage::DeviceProfile::ram());
        let tracker = hpd_storage::IoTracker::new();
        let csi = hpd_columnstore::ColumnStoreIndex::build(
            schema.clone(),
            hpd_columnstore::CsiKind::Secondary,
            vec![0],
            *config,
            &sample.rows,
            hpd_storage::StorageAllocator::new(),
            &pool,
            &tracker,
        );
        let scale = 1.0 / sample.fraction.max(1e-9);
        csi.column_sizes()
            .into_iter()
            .map(|b| (b as f64 * scale).round() as usize)
            .zip(csi.column_encodings())
            .collect()
    }

    fn name(&self) -> &'static str {
        "black-box"
    }
}

/// Per-encoding candidate sizes the run model predicts for one column
/// (whole-table bytes; `usize::MAX` marks an infeasible encoding). The
/// minimum is the size estimate; the argmin is the encoding the engine is
/// expected to pick, with ties broken in the engine's order
/// (RLE → bit-packed → FOR/delta → dict → raw).
#[derive(Debug, Clone, Copy)]
pub struct EncodingBreakdown {
    pub rle: usize,
    pub bitpacked: usize,
    pub fordelta: usize,
    pub dict: usize,
    pub raw: usize,
}

impl EncodingBreakdown {
    /// `(expected encoding, estimated bytes)`.
    pub fn best(&self) -> (IntEncoding, usize) {
        let candidates = [
            (IntEncoding::Rle, self.rle),
            (IntEncoding::BitPacked, self.bitpacked),
            (IntEncoding::ForDelta, self.fordelta),
            (IntEncoding::Dict, self.dict),
            (IntEncoding::Raw, self.raw),
        ];
        let min = candidates.iter().map(|&(_, b)| b).min().unwrap();
        let (enc, _) = candidates.iter().find(|&&(_, b)| b == min).unwrap();
        (*enc, min)
    }
}

/// Model runs via GEE distinct estimates of greedy-order prefixes, and via
/// the sample's own neighbours in the primary's order.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunModelEstimator;

impl RunModelEstimator {
    /// Normalized representation for hashing sample values.
    fn norm(v: &Value) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// Map a sample value onto the segment's `i64` encoding domain: numerics
    /// via the engine's normalization (floats become order-preserving bit
    /// patterns), strings via their rank among the sample's distinct values
    /// (mirroring the per-segment string dictionary's dense codes). The
    /// caller value-encodes the integer family as a build does.
    fn mapped_column(sample_sorted: &[&Row], c: usize, dtype: DataType) -> Vec<i64> {
        if dtype == DataType::Utf8 {
            let mut distinct: Vec<&Value> = sample_sorted.iter().map(|r| &r[c]).collect();
            distinct.sort_unstable();
            distinct.dedup();
            sample_sorted
                .iter()
                .map(|r| distinct.binary_search(&&r[c]).expect("value present") as i64)
                .collect()
        } else {
            sample_sorted
                .iter()
                .map(|r| Segment::normalize_value(&r[c]))
                .collect()
        }
    }

    /// Per-encoding size candidates for every column (see
    /// [`EncodingBreakdown`]), in the row order a build is predicted to
    /// store. A build keeps the smaller of the greedy order and the order
    /// its rows arrive in — the primary's, which is the key order when the
    /// primary is a B+ tree — so the model sizes both and keeps the one
    /// whose columns' best encodings sum smaller, the greedy one on a tie:
    ///
    /// * greedy: runs from GEE prefix-combination estimates, delta widths
    ///   measured on the greedy-order-sorted sample;
    /// * primary: runs and delta widths measured between neighbours inside
    ///   one sampled block (the sample's blocks are whole runs of the
    ///   primary's order; a FOR/delta frame's first value has no step).
    ///
    /// Value ranges and distinct counts are the same in both; each row
    /// group is compressed independently.
    pub fn estimate_encodings(
        &self,
        schema: &Schema,
        sample: &SampleSet,
        total_rows: usize,
        config: &CsiConfig,
    ) -> Vec<EncodingBreakdown> {
        let ncols = schema.len();
        let empty = EncodingBreakdown {
            rle: 0,
            bitpacked: 0,
            fordelta: 0,
            dict: 0,
            raw: 0,
        };
        if sample.rows.is_empty() || total_rows == 0 {
            return vec![empty; ncols];
        }
        let q = sample.fraction;

        // Per-column GEE distinct estimates → greedy sort order
        // (fewest-distinct first), mimicking the engine.
        let distinct: Vec<usize> = (0..ncols)
            .map(|c| gee_distinct(sample.rows.iter().map(|r| Self::norm(&r[c])), q))
            .collect();
        let mut order: Vec<usize> = (0..ncols).collect();
        order.sort_by_key(|&c| (distinct[c], c));

        // Prefix combination distinct estimates (the run-count upper bound).
        let mut prefix_distinct: Vec<usize> = Vec::with_capacity(ncols);
        let mut prefix: Vec<usize> = Vec::new();
        for &c in &order {
            prefix.push(c);
            let d = gee_distinct(
                sample.rows.iter().map(|r| {
                    prefix
                        .iter()
                        .map(|&pc| Self::norm(&r[pc]))
                        .fold(0u64, |acc, h| {
                            acc.wrapping_mul(1_000_000_007).wrapping_add(h)
                        })
                }),
                q,
            );
            prefix_distinct.push(d);
        }

        // The greedy order sorts each rowgroup before encoding; sort the
        // sample the same way so delta widths are measured in its order.
        let mut sorted: Vec<&Row> = sample.rows.iter().collect();
        sorted.sort_by(|a, b| {
            order
                .iter()
                .map(|&c| a[c].cmp(&b[c]))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let arrived: Vec<&Row> = sample.rows.iter().collect();

        // Row groups compress independently: estimate per row group, then
        // multiply by the number of row groups.
        let rg = config.rowgroup_capacity.max(1);
        let n_rowgroups = total_rows.div_ceil(rg).max(1);
        let rows_per_rg = (total_rows as f64 / n_rowgroups as f64).ceil() as usize;

        let bits_for = |range: u128| -> usize { (128 - range.leading_zeros()) as usize };
        let packed_bytes = |slots: usize, bw: usize| -> usize { (slots * bw).div_ceil(8) + 8 };

        let mut greedy = vec![empty; ncols];
        let mut primary = vec![empty; ncols];
        for (pos, &c) in order.iter().enumerate() {
            let dtype = schema.column(c).dtype;
            let mut vals = Self::mapped_column(&sorted, c, dtype);
            // The build's value encoding: the words a segment stores, and
            // a byte for their exponent.
            let exponent_byte = usize::from(value_encode(dtype, &mut vals) > 0);
            let mut in_primary = Self::mapped_column(&arrived, c, dtype);
            value_encode(dtype, &mut in_primary);

            // Strings pay their dictionary regardless of how the code
            // stream is encoded; add it to every candidate.
            let string_dict = if dtype == DataType::Utf8 {
                let avg_len = sample
                    .rows
                    .iter()
                    .filter_map(|r| r[c].as_str().map(str::len))
                    .sum::<usize>() as f64
                    / sample.rows.len().max(1) as f64;
                (distinct[c].min(rows_per_rg) as f64 * (avg_len + 4.0)) as usize
            } else {
                0
            };

            // Bit-packing needs the value range (not the distinct count);
            // string codes span exactly their per-rowgroup distinct count.
            let range = if dtype == DataType::Utf8 {
                (distinct[c].min(rows_per_rg).max(1) - 1) as u128
            } else {
                let (min, max) = vals
                    .iter()
                    .fold((i64::MAX, i64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                (max as i128 - min as i128) as u128
            };
            let vbits = bits_for(range);
            let bitpacked = if vbits > 56 {
                usize::MAX
            } else {
                packed_bytes(rows_per_rg, vbits) + 9
            };
            let d_rg = distinct[c].min(rows_per_rg).max(1);
            let raw = rows_per_rg * 8;

            // The candidates of one row order with `runs_per_rg` runs a row
            // group and steps within a frame from `min_d` to `max_d`.
            let breakdown = |runs_per_rg: usize, (min_d, max_d): (i128, i128)| {
                let rle = runs_per_rg * RLE_RUN_BYTES;
                let dbits = bits_for((max_d - min_d).max(0) as u128);
                let fordelta = if dbits > 56 {
                    usize::MAX
                } else {
                    let frames = rows_per_rg.div_ceil(FOR_DELTA_FRAME);
                    frames * 8 + packed_bytes(frames * (FOR_DELTA_FRAME - 1), dbits) + 17
                };
                // Numeric dictionary: sorted distinct values + an encoded
                // code stream; the engine bails out above rows/4 distinct.
                let dict = if d_rg > (rows_per_rg / 4).max(8) {
                    usize::MAX
                } else {
                    let code_bw = bits_for((d_rg - 1) as u128);
                    let codes = rle
                        .min(packed_bytes(rows_per_rg, code_bw) + 9)
                        .min(rows_per_rg * 8);
                    d_rg * 8 + codes + 16
                };
                let scale = |b: usize| -> usize {
                    if b == usize::MAX {
                        usize::MAX
                    } else {
                        (b + string_dict + exponent_byte) * n_rowgroups
                    }
                };
                EncodingBreakdown {
                    rle: scale(rle),
                    bitpacked: scale(bitpacked),
                    fordelta: scale(fordelta),
                    dict: scale(dict),
                    raw: scale(raw),
                }
            };

            // Greedy order: runs per row group bounded by both rows and
            // distinct prefixes. Deltas between consecutive sorted-sample
            // values: block sampling stitches non-adjacent row ranges
            // together, injecting up to one spurious gap per block seam;
            // trim that many extreme deltas from each end (scaled by the
            // unsampled fraction — a full sample has no seams).
            let runs_per_rg = prefix_distinct[pos].max(1).min(rows_per_rg).max(1);
            let mut deltas: Vec<i128> = vals
                .windows(2)
                .map(|w| w[1] as i128 - w[0] as i128)
                .collect();
            deltas.sort_unstable();
            let n_blocks = sample.rows.len().div_ceil(SAMPLE_BLOCK_ROWS);
            let seams = ((n_blocks.saturating_sub(1)) as f64 * (1.0 - q)).round() as usize;
            let steps = if deltas.len() > 2 * seams {
                (deltas[seams], deltas[deltas.len() - 1 - seams])
            } else {
                (0, 0)
            };
            greedy[c] = breakdown(runs_per_rg, steps);

            // The primary's order: neighbours inside one block, and inside
            // one frame for the steps.
            let (mut pairs, mut changes) = (0usize, 0usize);
            let mut steps = (i128::MAX, i128::MIN);
            for block in in_primary.chunks(SAMPLE_BLOCK_ROWS) {
                for (i, w) in block.windows(2).enumerate() {
                    pairs += 1;
                    changes += usize::from(w[0] != w[1]);
                    if (i + 1) % FOR_DELTA_FRAME != 0 {
                        let d = i128::from(w[1]) - i128::from(w[0]);
                        steps = (steps.0.min(d), steps.1.max(d));
                    }
                }
            }
            let change_rate = changes as f64 / pairs.max(1) as f64;
            let runs_per_rg = 1 + (change_rate * (rows_per_rg - 1) as f64).round() as usize;
            let steps = if steps.0 > steps.1 { (0, 0) } else { steps };
            primary[c] = breakdown(runs_per_rg, steps);
        }
        let total = |columns: &[EncodingBreakdown]| -> usize {
            (columns.iter()).fold(0, |sum, b| sum.saturating_add(b.best().1))
        };
        if total(&primary) < total(&greedy) {
            primary
        } else {
            greedy
        }
    }
}

impl CsiSizeEstimator for RunModelEstimator {
    fn estimate_columns(
        &self,
        schema: &Schema,
        sample: &SampleSet,
        total_rows: usize,
        config: &CsiConfig,
    ) -> Vec<(usize, IntEncoding)> {
        self.estimate_encodings(schema, sample, total_rows, config)
            .iter()
            .map(|b| {
                let (encoding, bytes) = b.best();
                (bytes, encoding)
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "run-model(GEE)"
    }
}

/// Leaf pages and height of the B+ tree `descriptor` names over `rows` rows
/// of the table `ctx` describes: a page-sized tree ([`BTreeConfig::default`])
/// of entries of the table's mean encoded widths in the tree's form
/// ([`hpd_engine::btree_entry_bytes`], [`SampleSet::widths`]) — the tree a
/// build makes when every column it stores encodes at one width, and
/// within a page's packing slack of it otherwise.
pub fn btree_size_estimate(
    descriptor: &IndexDescriptor,
    ctx: &TableContext,
    sample: &SampleSet,
    rows: usize,
) -> (usize, usize) {
    let width = |c: usize| sample.encoded_width(c, ctx.schema.column(c).dtype);
    let arity = ctx.schema.len();
    let entry = btree_entry_bytes(descriptor, arity, &ctx.pk, width);
    BTreeConfig::default().size_estimate(rows, entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpd_common::{ColumnDef, Value};

    fn int_schema(n: usize) -> Schema {
        Schema::new(
            (0..n)
                .map(|i| ColumnDef::new(format!("c{i}"), DataType::Int32))
                .collect(),
        )
    }

    fn rows_mod(n: i32, m: i32) -> Vec<Row> {
        (0..n)
            .map(|i| Row::new(vec![Value::Int32(i), Value::Int32(i % m)]))
            .collect()
    }

    #[test]
    fn gee_counts_frequent_values_once() {
        // 10 distinct values each appearing 100 times in a 10% sample:
        // estimate stays ~10, not 100.
        let sample: Vec<i32> = (0..1000).map(|i| i % 10).collect();
        let d = gee_distinct(sample, 0.1);
        assert_eq!(d, 10);
        // All-unique sample scales up by sqrt(1/q).
        let sample: Vec<i32> = (0..100).collect();
        let d = gee_distinct(sample, 0.01);
        assert_eq!(d, 1000);
    }

    #[test]
    fn block_sample_hits_target_fraction() {
        // Exact multiple of SAMPLE_BLOCK_ROWS so every block is full and the
        // modulo assertion holds regardless of which blocks the RNG picks.
        let rows = rows_mod(102_400, 7);
        let s = SampleSet::block_sample(&rows, 0.05, 42);
        assert!((s.fraction - 0.05).abs() < 0.02, "{}", s.fraction);
        assert_eq!(s.rows.len() % SAMPLE_BLOCK_ROWS, 0);
        // Deterministic.
        let scanned = SampleSet::block_sample_scan(rows.len(), 0.05, 42, |sink| {
            rows.iter().for_each(sink);
        });
        assert_eq!(scanned.rows, s.rows);
        assert_eq!(scanned.fraction, s.fraction);
        let s2 = SampleSet::block_sample(&rows, 0.05, 42);
        assert_eq!(s.rows.len(), s2.rows.len());
    }

    #[test]
    fn estimators_close_to_actual_on_low_cardinality() {
        let rows = rows_mod(100_000, 25);
        let schema = int_schema(2);
        let config = CsiConfig::default();
        // Actual build.
        let pool = hpd_storage::BufferPool::unbounded(hpd_storage::DeviceProfile::ram());
        let t = hpd_storage::IoTracker::new();
        let csi = hpd_columnstore::ColumnStoreIndex::build(
            schema.clone(),
            hpd_columnstore::CsiKind::Secondary,
            vec![0],
            config,
            &rows,
            hpd_storage::StorageAllocator::new(),
            &pool,
            &t,
        );
        let actual = csi.column_sizes();

        let sample = SampleSet::block_sample(&rows, 0.1, 7);
        let run_est =
            RunModelEstimator.estimate_column_bytes(&schema, &sample, rows.len(), &config);
        let bb_est = BlackBoxEstimator.estimate_column_bytes(&schema, &sample, rows.len(), &config);

        // The low-cardinality column (1): run model within 4x; black box
        // overestimates it more (the paper's n_nationkey effect).
        let ratio_run = run_est[1] as f64 / actual[1] as f64;
        let ratio_bb = bb_est[1] as f64 / actual[1] as f64;
        assert!(
            ratio_run < 4.0 && ratio_run > 0.25,
            "run model ratio {ratio_run} (est {} vs actual {})",
            run_est[1],
            actual[1]
        );
        assert!(
            ratio_bb > ratio_run,
            "black box should overestimate low-cardinality more: bb {ratio_bb} vs run {ratio_run}"
        );
    }

    #[test]
    fn run_model_reasonable_on_unique_column() {
        let rows = rows_mod(50_000, 50_000);
        let schema = int_schema(2);
        let config = CsiConfig::default();
        let pool = hpd_storage::BufferPool::unbounded(hpd_storage::DeviceProfile::ram());
        let t = hpd_storage::IoTracker::new();
        let csi = hpd_columnstore::ColumnStoreIndex::build(
            schema.clone(),
            hpd_columnstore::CsiKind::Secondary,
            vec![0],
            config,
            &rows,
            hpd_storage::StorageAllocator::new(),
            &pool,
            &t,
        );
        let actual: usize = csi.column_sizes().iter().sum();
        let sample = SampleSet::block_sample(&rows, 0.1, 9);
        let est: usize = RunModelEstimator
            .estimate_column_bytes(&schema, &sample, rows.len(), &config)
            .iter()
            .sum();
        let ratio = est as f64 / actual as f64;
        assert!(ratio > 0.2 && ratio < 5.0, "ratio {ratio}");
    }

    #[test]
    fn encoding_predictions_follow_data_shape() {
        let config = CsiConfig {
            rowgroup_capacity: 1 << 20,
            ..CsiConfig::default()
        };
        let n = 20_000i64;
        let pick = |schema: &Schema, rows: Vec<Row>, col: usize| -> IntEncoding {
            let sample = SampleSet::full(&rows);
            RunModelEstimator.estimate_encodings(schema, &sample, rows.len(), &config)[col]
                .best()
                .0
        };
        // Mixing hash for value-independent pseudo-random columns.
        let h = |i: i64, salt: i64| (i.wrapping_mul(2654435761) ^ salt).rem_euclid(1 << 20);

        // Low-cardinality column: sorts into a handful of runs → RLE.
        let schema = int_schema(1);
        let rows: Vec<Row> = (0..n)
            .map(|i| Row::new(vec![Value::Int32((i % 4) as i32)]))
            .collect();
        assert_eq!(pick(&schema, rows, 0), IntEncoding::Rle);

        // Unique, evenly spaced values: wide range but tiny sorted deltas →
        // FOR/delta.
        let rows: Vec<Row> = (0..n)
            .map(|i| Row::new(vec![Value::Int32((i * 1000) as i32)]))
            .collect();
        assert_eq!(pick(&schema, rows, 0), IntEncoding::ForDelta);

        // Wide-range many-distinct values behind a sort prefix: within each
        // prefix group the deltas are as wide as the values themselves →
        // bit-packing.
        let schema2 = int_schema(2);
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int32((i % 2000) as i32),
                    Value::Int32(h(i, 7) as i32),
                ])
            })
            .collect();
        assert_eq!(pick(&schema2, rows, 1), IntEncoding::BitPacked);

        // Few distinct but wide values whose sort prefix has more distinct
        // combinations than rows: run-length collapses to nothing, codes
        // stay narrow → numeric dictionary. (The odd offset keeps a value
        // encoding from dividing the levels down to 0..70.)
        let schema3 = Schema::from_pairs(&[
            ("a", DataType::Int32),
            ("b", DataType::Int32),
            ("c", DataType::Int64),
        ]);
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int32((h(i, 1) % 50) as i32),
                    Value::Int32((h(i, 2) % 60) as i32),
                    Value::Int64((h(i, 3) % 70) * 1_000_000_000_000 + 1),
                ])
            })
            .collect();
        assert_eq!(pick(&schema3, rows, 2), IntEncoding::Dict);
    }

    /// `lineitem`'s decimals are whole units, cents and thousandths: a
    /// build stores them over 10^4, 10^2 and 10^3, and the run model sizes
    /// them bit-packed at the width of those words (6, 24 and 4 bits), not
    /// of their raw units (19, 30 and 14).
    #[test]
    fn scaled_decimals_are_sized_at_the_built_width() {
        let config = CsiConfig {
            rowgroup_capacity: 4096,
            ..CsiConfig::default()
        };
        let rows = hpd_workloads::tpch::lineitem_rows(4 * 4096, 7);
        let schema = hpd_workloads::tpch::lineitem_schema();
        let pool = hpd_storage::BufferPool::unbounded(hpd_storage::DeviceProfile::ram());
        let alloc = hpd_storage::StorageAllocator::new();
        let csi = hpd_columnstore::ColumnStoreIndex::build(
            schema.clone(),
            hpd_columnstore::CsiKind::Secondary,
            vec![0],
            config,
            &rows,
            alloc.clone(),
            &pool,
            &hpd_storage::IoTracker::new(),
        );
        let model = RunModelEstimator.estimate_encodings(
            &schema,
            &SampleSet::full(&rows),
            rows.len(),
            &config,
        );
        // Four groups of 4 096 words at `bits` each: the packed buffer and
        // its 8-byte pad, 9 bytes of header and one of exponent.
        let packed = |bits: usize| 4 * ((4096 * bits).div_ceil(8) + 8 + 9 + 1);
        for (c, exponent, bits) in [(2, 4, 6), (3, 2, 24), (4, 3, 4)] {
            let built: usize = (0..csi.num_rowgroups())
                .map(|g| {
                    let segment = csi.rowgroup(g).segment(c);
                    assert_eq!(segment.exponent(), exponent, "column {c}");
                    (Segment::build_as(&segment.decode(), IntEncoding::BitPacked, &alloc))
                        .expect("narrow words pack")
                        .encoded_bytes()
                })
                .sum();
            assert_eq!(model[c].bitpacked, built, "column {c}");
            assert_eq!(built, packed(bits), "column {c}");
        }
    }

    #[test]
    fn encoded_widths_average_the_sample() {
        let rows = vec![
            Row::new(vec![Value::Int32(1), Value::str("ab")]),
            Row::new(vec![Value::Int32(2), Value::str("abcd")]),
        ];
        let sample = SampleSet::full(&rows);
        // A header and one payload byte; a header, a length byte, 2 or 4.
        assert_eq!(sample.encoded_width(0, DataType::Int32), 2.0);
        assert_eq!(sample.encoded_width(1, DataType::Utf8), 2.0 + 3.0);
        let empty = SampleSet::full(&[]);
        assert_eq!(empty.encoded_width(0, DataType::Int32), 5.0);
        assert_eq!(empty.encoded_width(1, DataType::Utf8), 18.0);
        // Widths are of every row, whichever blocks the sample took.
        let rows = rows_mod(10 * SAMPLE_BLOCK_ROWS as i32, 1_000);
        let all = SampleSet::full(&rows);
        let some = SampleSet::block_sample_scan(rows.len(), 0.1, 7, |sink| {
            rows.iter().for_each(sink);
        });
        assert_eq!(some.rows.len(), SAMPLE_BLOCK_ROWS);
        assert_eq!(some.widths, all.widths);
        assert_eq!(SampleSet::block_sample(&rows, 0.1, 7).widths, all.widths);
    }

    #[test]
    fn empty_sample_estimates_zero() {
        let schema = int_schema(1);
        let s = SampleSet::full(&[]);
        assert_eq!(
            RunModelEstimator.estimate_column_bytes(&schema, &s, 0, &CsiConfig::default()),
            vec![0]
        );
        assert_eq!(
            BlackBoxEstimator.estimate_column_bytes(&schema, &s, 0, &CsiConfig::default()),
            vec![0]
        );
    }
}
