//! Column segments: one column of one row group, compressed, with min/max
//! small materialized aggregates.

use std::sync::{Arc, OnceLock};

use hpd_common::codec::{f64_from_ordered, f64_to_ordered};
use hpd_common::interval::Bound;
use hpd_common::{ArcStr, ColumnVector, DataType, Interval, SelBitmap, Value};
use hpd_obs::Counter;
use hpd_storage::{BlobId, BufferPool, IoTracker, StorageAllocator};

use crate::encoding::{encode_counted, Domain, EncodedInts, IntEncoding};
use crate::kernels::{self, Translated};

/// `columnstore.encoding.segments_*` counters: segments built per chosen
/// encoding, so the encoding mix of a workload's data shows up in metrics
/// (and the force-encode knob is verifiable end to end).
struct EncodingCounters {
    rle: Counter,
    bitpacked: Counter,
    fordelta: Counter,
    dict: Counter,
    raw: Counter,
}

fn encoding_counters() -> &'static EncodingCounters {
    static C: OnceLock<EncodingCounters> = OnceLock::new();
    C.get_or_init(|| {
        let r = hpd_obs::global();
        EncodingCounters {
            rle: r.counter("columnstore.encoding.segments_rle"),
            bitpacked: r.counter("columnstore.encoding.segments_bitpacked"),
            fordelta: r.counter("columnstore.encoding.segments_fordelta"),
            dict: r.counter("columnstore.encoding.segments_dict"),
            raw: r.counter("columnstore.encoding.segments_raw"),
        }
    })
}

fn note_encoding(enc: IntEncoding) {
    let c = encoding_counters();
    match enc {
        IntEncoding::Rle => c.rle.add(1),
        IntEncoding::BitPacked => c.bitpacked.add(1),
        IntEncoding::ForDelta => c.fordelta.add(1),
        IntEncoding::Dict => c.dict.add(1),
        IntEncoding::Raw => c.raw.add(1),
    }
}

/// A compressed column segment.
///
/// Non-string columns are normalized to an `i64` stream and encoded
/// directly. String columns are dictionary-encoded: sorted distinct strings
/// plus an encoded code stream (dictionary order makes codes order-preserving
/// so min/max elimination still works on the original values).
#[derive(Debug, Clone)]
pub struct Segment {
    dtype: DataType,
    ints: EncodedInts,
    /// Dictionary for `Utf8` columns, sorted ascending.
    dict: Option<Arc<[ArcStr]>>,
    min: Value,
    max: Value,
    rows: usize,
    blob: BlobId,
}

/// One column in the order-preserving `i64` domain every build step reads:
/// integers, dates and decimals as they are, floats through
/// [`f64_to_ordered`], strings as their positions in the sorted dictionary
/// (so the dictionary comes before the row group's sort, and serves it).
pub(crate) struct Normalized {
    pub(crate) dtype: DataType,
    pub(crate) ints: Vec<i64>,
    /// Dictionary of a `Utf8` column, sorted ascending.
    pub(crate) dict: Option<Arc<[ArcStr]>>,
}

impl Normalized {
    pub(crate) fn of(column: ColumnVector) -> Normalized {
        let dtype = column.data_type();
        let (ints, dict) = match column {
            ColumnVector::Int64(vals) | ColumnVector::Decimal(vals) => (vals, None),
            ColumnVector::Int32(vals) | ColumnVector::Date(vals) => {
                (vals.into_iter().map(i64::from).collect(), None)
            }
            ColumnVector::Float64(vals) => (vals.into_iter().map(f64_to_ordered).collect(), None),
            ColumnVector::Str(vals) => {
                let mut dict = vals.clone();
                dict.sort_unstable();
                dict.dedup();
                let codes = vals
                    .iter()
                    .map(|s| dict.binary_search(s).expect("value in dict") as i64)
                    .collect();
                (codes, Some(dict.into()))
            }
        };
        Normalized { dtype, ints, dict }
    }

    /// Minimum, maximum and distinct count of the column; `scratch` is
    /// working space. A dictionary's codes are dense, so it is not needed.
    pub(crate) fn domain(&self, scratch: &mut Vec<i64>) -> Domain {
        match &self.dict {
            Some(dict) => Domain {
                min: 0,
                max: dict.len() as i64 - 1,
                distinct: dict.len(),
            },
            None => Domain::of(&self.ints, scratch),
        }
    }
}

impl Segment {
    /// Compress one column. `values` must be non-empty.
    pub fn build(column: &ColumnVector, alloc: &StorageAllocator) -> Segment {
        assert!(!column.is_empty(), "segments are never empty");
        let column = Normalized::of(column.clone());
        let domain = column.domain(&mut Vec::new());
        Segment::from_stream(column.dtype, column.dict, &column.ints, &domain, alloc)
    }

    /// Compress a normalized column: `stream` holds its values in stored
    /// order, `domain` describes them (in any order).
    pub(crate) fn from_stream(
        dtype: DataType,
        dict: Option<Arc<[ArcStr]>>,
        stream: &[i64],
        domain: &Domain,
        alloc: &StorageAllocator,
    ) -> Segment {
        let (min, max) = match &dict {
            Some(dict) => (
                Value::Str(dict[0].clone()),
                Value::Str(dict[dict.len() - 1].clone()),
            ),
            None => (
                raw_to_value(dtype, domain.min),
                raw_to_value(dtype, domain.max),
            ),
        };
        let ints = encode_counted(stream, domain.distinct);
        note_encoding(ints.encoding());
        Segment {
            dtype,
            ints,
            dict,
            min,
            max,
            rows: stream.len(),
            blob: alloc.alloc_blob(),
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn data_type(&self) -> DataType {
        self.dtype
    }

    pub fn min(&self) -> &Value {
        &self.min
    }

    pub fn max(&self) -> &Value {
        &self.max
    }

    pub fn blob(&self) -> BlobId {
        self.blob
    }

    pub fn encoding(&self) -> IntEncoding {
        self.ints.encoding()
    }

    /// Number of maximal runs in the encoded stream (validation hook for the
    /// advisor's size-estimation models).
    pub fn run_count(&self) -> usize {
        self.ints.run_count()
    }

    /// Compressed size in bytes, including the dictionary.
    pub fn encoded_bytes(&self) -> usize {
        let dict_bytes: usize = self
            .dict
            .as_ref()
            .map(|d| d.iter().map(|s| s.len() + 4).sum())
            .unwrap_or(0);
        self.ints.encoded_bytes() + dict_bytes
    }

    /// Charge the segment's I/O (one blob access) without decoding. Scans
    /// call this once per segment they touch.
    pub fn charge_io(&self, pool: &BufferPool, tracker: &IoTracker) {
        pool.access_blob(self.blob, self.encoded_bytes() as u64, tracker);
    }

    /// Decode the segment into a column vector (does *not* charge I/O; call
    /// [`Segment::charge_io`] first).
    pub fn decode(&self) -> ColumnVector {
        self.raws_to_column(self.ints.decode())
    }

    /// Decode only the values at `positions` (ascending) — late
    /// materialization after predicate evaluation selected them.
    pub fn gather(&self, positions: &[usize]) -> ColumnVector {
        self.raws_to_column(kernels::gather(&self.ints, positions))
    }

    /// Decode the single value at `pos` without materializing the segment.
    pub fn value_at(&self, pos: usize) -> Value {
        let raw = kernels::value_at(&self.ints, pos);
        match self.dtype {
            DataType::Utf8 => {
                let dict = self.dict.as_ref().expect("utf8 segment has dictionary");
                Value::Str(dict[raw as usize].clone())
            }
            _ => raw_to_value(self.dtype, raw),
        }
    }

    /// Map normalized `i64`s back to the segment's logical type.
    fn raws_to_column(&self, ints: Vec<i64>) -> ColumnVector {
        match self.dtype {
            DataType::Int32 => ColumnVector::Int32(ints.into_iter().map(|v| v as i32).collect()),
            DataType::Date => ColumnVector::Date(ints.into_iter().map(|v| v as i32).collect()),
            DataType::Int64 => ColumnVector::Int64(ints),
            DataType::Decimal => ColumnVector::Decimal(ints),
            DataType::Float64 => {
                ColumnVector::Float64(ints.into_iter().map(f64_from_ordered).collect())
            }
            DataType::Utf8 => {
                let dict = self.dict.as_ref().expect("utf8 segment has dictionary");
                ColumnVector::Str(ints.into_iter().map(|c| dict[c as usize].clone()).collect())
            }
        }
    }

    /// Translate `interval` into this segment's encoded `i64` /
    /// dictionary-code domain, so kernels can evaluate it without decoding.
    ///
    /// Translation preserves [`Value`]'s comparison semantics exactly: bound
    /// types whose comparison against the column type is not a plain numeric
    /// promotion (e.g. a float bound on an integer column, which `Value`
    /// compares through f64 promotion) come back [`Translated::Unsupported`]
    /// and the caller falls back to comparing materialized values.
    pub fn translate_interval(&self, interval: &Interval) -> Translated {
        if self.dtype == DataType::Utf8 {
            return self.translate_str_interval(interval);
        }
        let lo = match &interval.lo {
            Bound::Unbounded => i64::MIN,
            Bound::Inclusive(v) => match normalize_bound(self.dtype, v) {
                Some(x) => x,
                None => return Translated::Unsupported,
            },
            Bound::Exclusive(v) => match normalize_bound(self.dtype, v) {
                // `> MAX` selects nothing; otherwise the exclusive bound is
                // the next representable point in the normalized domain
                // (for floats the bit-domain successor is the next float in
                // `total_cmp` order, so +1 stays exact).
                Some(i64::MAX) => return Translated::Empty,
                Some(x) => x + 1,
                None => return Translated::Unsupported,
            },
        };
        let hi = match &interval.hi {
            Bound::Unbounded => i64::MAX,
            Bound::Inclusive(v) => match normalize_bound(self.dtype, v) {
                Some(x) => x,
                None => return Translated::Unsupported,
            },
            Bound::Exclusive(v) => match normalize_bound(self.dtype, v) {
                Some(i64::MIN) => return Translated::Empty,
                Some(x) => x - 1,
                None => return Translated::Unsupported,
            },
        };
        if lo > hi {
            Translated::Empty
        } else if lo == i64::MIN && hi == i64::MAX {
            Translated::All
        } else {
            Translated::Range { lo, hi }
        }
    }

    /// String intervals translate to dictionary-code ranges: the dictionary
    /// is sorted, so codes are order-preserving and a binary search finds
    /// the qualifying code span.
    fn translate_str_interval(&self, interval: &Interval) -> Translated {
        let dict = self.dict.as_ref().expect("utf8 segment has dictionary");
        let lo = match &interval.lo {
            Bound::Unbounded => 0i64,
            Bound::Inclusive(Value::Str(s)) => {
                dict.partition_point(|d| d.as_ref() < s.as_ref()) as i64
            }
            Bound::Exclusive(Value::Str(s)) => {
                dict.partition_point(|d| d.as_ref() <= s.as_ref()) as i64
            }
            _ => return Translated::Unsupported,
        };
        let hi = match &interval.hi {
            Bound::Unbounded => dict.len() as i64 - 1,
            Bound::Inclusive(Value::Str(s)) => {
                dict.partition_point(|d| d.as_ref() <= s.as_ref()) as i64 - 1
            }
            Bound::Exclusive(Value::Str(s)) => {
                dict.partition_point(|d| d.as_ref() < s.as_ref()) as i64 - 1
            }
            _ => return Translated::Unsupported,
        };
        if lo > hi {
            Translated::Empty
        } else if lo == 0 && hi == dict.len() as i64 - 1 {
            Translated::All
        } else {
            Translated::Range { lo, hi }
        }
    }

    /// AND "this column satisfies `interval`" into `sel`, evaluated on the
    /// encoded stream. Returns `false` when the interval's bounds don't
    /// translate into this segment's domain — the caller must then apply
    /// the interval to materialized values instead.
    pub fn eval_interval(&self, interval: &Interval, sel: &mut SelBitmap) -> bool {
        match self.translate_interval(interval) {
            Translated::Unsupported => false,
            Translated::All => true,
            Translated::Empty => {
                sel.clear_range(0, self.rows);
                true
            }
            Translated::Range { lo, hi } => {
                kernels::filter_range(&self.ints, lo, hi, sel);
                true
            }
        }
    }

    /// True if this segment can be skipped for a predicate interval on this
    /// column (segment elimination via min/max).
    pub fn eliminated_by(&self, interval: &Interval) -> bool {
        !interval.overlaps_range(&self.min, &self.max)
    }

    /// Exact `i128` SUM over the selected rows of an integer-family column
    /// (`Decimal` in its raw scaled units), folded on the encoded stream
    /// without materializing rows: the accumulation primitive a caller
    /// sums across row groups. `None` for `Float64` (order-dependent; see
    /// [`Segment::for_each_f64_masked`]) and `Utf8`.
    pub fn sum_i128_masked(&self, sel: &SelBitmap) -> Option<i128> {
        match self.dtype {
            DataType::Int32 | DataType::Int64 | DataType::Date | DataType::Decimal => {
                Some(kernels::sum_masked(&self.ints, sel))
            }
            DataType::Float64 | DataType::Utf8 => None,
        }
    }

    /// Visit each selected value as `f64` in ascending position order (same
    /// promotions as `Value::as_f64`), so a caller-held accumulator folds
    /// bit-identically to the row-mode sequential fold across row groups.
    /// Returns `false` (without calling `f`) for `Utf8`.
    pub fn for_each_f64_masked(&self, sel: &SelBitmap, mut f: impl FnMut(f64)) -> bool {
        match self.dtype {
            DataType::Float64 => {
                kernels::for_each_masked(&self.ints, sel, |raw| f(f64_from_ordered(raw)));
            }
            DataType::Decimal => {
                kernels::for_each_masked(&self.ints, sel, |raw| f(raw as f64 / 10_000.0));
            }
            DataType::Int32 | DataType::Int64 | DataType::Date => {
                kernels::for_each_masked(&self.ints, sel, |raw| f(raw as f64));
            }
            DataType::Utf8 => return false,
        }
        true
    }

    /// MIN and MAX over the selected rows, in the column's logical type.
    /// Valid for every type — the normalized domain is order-preserving,
    /// including dictionary codes for strings. `None` when nothing is
    /// selected.
    pub fn min_max_masked(&self, sel: &SelBitmap) -> Option<(Value, Value)> {
        let (lo, hi) = kernels::min_max_masked(&self.ints, sel)?;
        match self.dtype {
            DataType::Utf8 => {
                let dict = self.dict.as_ref().expect("utf8 segment has dictionary");
                Some((
                    Value::Str(dict[lo as usize].clone()),
                    Value::Str(dict[hi as usize].clone()),
                ))
            }
            _ => Some((raw_to_value(self.dtype, lo), raw_to_value(self.dtype, hi))),
        }
    }
}

/// Normalize a comparison bound into the column's encoded `i64` domain.
/// Returns `None` when `Value`'s comparison of this bound type against the
/// column type is not a plain order-preserving numeric mapping.
fn normalize_bound(dtype: DataType, v: &Value) -> Option<i64> {
    match (dtype, v) {
        (DataType::Int32 | DataType::Int64, Value::Int32(_) | Value::Int64(_)) => v.as_i64(),
        (DataType::Date, Value::Date(d)) => Some(i64::from(*d)),
        (DataType::Decimal, Value::Decimal(x)) => Some(*x),
        (DataType::Float64, Value::Float64(f)) => Some(f64_to_ordered(*f)),
        // `Value` compares int-vs-float through f64 promotion; translate the
        // bound through the identical promotion so semantics match.
        (DataType::Float64, Value::Int32(_) | Value::Int64(_)) => v.as_f64().map(f64_to_ordered),
        _ => None,
    }
}

/// Convert the normalized `i64` representation back to a typed value.
fn raw_to_value(dtype: DataType, raw: i64) -> Value {
    match dtype {
        DataType::Int32 => Value::Int32(raw as i32),
        DataType::Date => Value::Date(raw as i32),
        DataType::Int64 => Value::Int64(raw),
        DataType::Decimal => Value::Decimal(raw),
        DataType::Float64 => Value::Float64(f64_from_ordered(raw)),
        DataType::Utf8 => unreachable!("strings use the dictionary path"),
    }
}

/// Public hook used by [`Segment::build`]'s float path.
impl Segment {
    /// Normalize a single value to the segment's `i64` domain (tests).
    pub fn normalize_value(v: &Value) -> i64 {
        match v {
            Value::Float64(f) => f64_to_ordered(*f),
            other => other.as_i64().expect("numeric"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc() -> StorageAllocator {
        StorageAllocator::new()
    }

    #[test]
    fn int_segment_round_trip_with_minmax() {
        let col = ColumnVector::Int32(vec![5, 1, 9, 3]);
        let s = Segment::build(&col, &alloc());
        assert_eq!(s.decode(), col);
        assert_eq!(s.min(), &Value::Int32(1));
        assert_eq!(s.max(), &Value::Int32(9));
        assert_eq!(s.rows(), 4);
    }

    #[test]
    fn string_segment_dictionary_round_trip() {
        let col = ColumnVector::Str(["pear", "apple", "pear", "fig"].map(ArcStr::new).to_vec());
        let s = Segment::build(&col, &alloc());
        assert_eq!(s.decode(), col);
        assert_eq!(s.min(), &Value::str("apple"));
        assert_eq!(s.max(), &Value::str("pear"));
        assert!(s.encoded_bytes() > 0);
    }

    #[test]
    fn decimal_and_date_round_trip() {
        let col = ColumnVector::Decimal(vec![10_000, -25_000, 0]);
        let s = Segment::build(&col, &alloc());
        assert_eq!(s.decode(), col);
        assert_eq!(s.min(), &Value::Decimal(-25_000));
        let col = ColumnVector::Date(vec![10, 20, 15]);
        let s = Segment::build(&col, &alloc());
        assert_eq!(s.decode(), col);
        assert_eq!(s.max(), &Value::Date(20));
    }

    #[test]
    fn float_round_trip_including_negatives() {
        let col = ColumnVector::Float64(vec![1.5, -2.25, 0.0, 1e300, -1e-300]);
        let s = Segment::build(&col, &alloc());
        assert_eq!(s.decode(), col);
        assert_eq!(s.min(), &Value::Float64(-2.25));
        assert_eq!(s.max(), &Value::Float64(1e300));
    }

    #[test]
    fn float_normalization_is_monotone() {
        let floats = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -1e-300,
            -0.0,
            0.0,
            1e-300,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        let mono: Vec<i64> = floats.iter().map(|&f| f64_to_ordered(f)).collect();
        assert!(mono.windows(2).all(|w| w[0] <= w[1]), "{mono:?}");
        for &f in &floats {
            assert_eq!(f64_from_ordered(f64_to_ordered(f)).to_bits(), f.to_bits());
        }
    }

    #[test]
    fn elimination_uses_minmax() {
        let col = ColumnVector::Int32(vec![100, 150, 120]);
        let s = Segment::build(&col, &alloc());
        assert!(s.eliminated_by(&Interval::less_than(Value::Int32(100), false)));
        assert!(!s.eliminated_by(&Interval::less_than(Value::Int32(101), false)));
        assert!(s.eliminated_by(&Interval::point(Value::Int32(99))));
        assert!(!s.eliminated_by(&Interval::all()));
    }

    #[test]
    fn charge_io_hits_pool_cache_second_time() {
        let col = ColumnVector::Int32((0..10_000).collect());
        let s = Segment::build(&col, &alloc());
        let pool = BufferPool::unbounded(hpd_storage::DeviceProfile::hdd_raid());
        let t = IoTracker::new();
        s.charge_io(&pool, &t);
        s.charge_io(&pool, &t);
        let snap = t.snapshot();
        assert_eq!(snap.logical_reads, 2);
        assert_eq!(snap.physical_reads, 1);
        assert_eq!(snap.bytes_read, s.encoded_bytes() as u64);
    }

    #[test]
    fn masked_aggregates_match_decode_per_type() {
        let cols = [
            ColumnVector::Int32((0..500).map(|i| (i % 40) - 7).collect()),
            ColumnVector::Int64((0..500).map(|i| i * 1_000_003).collect()),
            ColumnVector::Decimal((0..500).map(|i| i * 12_345 - 9).collect()),
            ColumnVector::Date((0..500).map(|i| i % 11).collect()),
            ColumnVector::Float64((0..500).map(|i| (i as f64) * 0.37 - 3.0).collect()),
        ];
        for col in cols {
            let s = Segment::build(&col, &alloc());
            let mut sel = SelBitmap::all_set(500);
            sel.retain(|i| i % 3 != 1);
            let picked: Vec<Value> = sel.positions().iter().map(|&i| col.value(i)).collect();
            let want = (col.data_type() != DataType::Float64)
                .then(|| picked.iter().map(|v| i128::from(v.as_i64().unwrap())).sum());
            assert_eq!(s.sum_i128_masked(&sel), want, "{:?}", col.data_type());
            let want_f: f64 = picked.iter().fold(0.0, |a, v| a + v.as_f64().unwrap());
            let mut got_f = 0.0;
            assert!(s.for_each_f64_masked(&sel, |v| got_f += v));
            assert_eq!(got_f, want_f, "{:?}", col.data_type());
            let (lo, hi) = s.min_max_masked(&sel).unwrap();
            assert_eq!(Some(&lo), picked.iter().min_by(|a, b| a.cmp(b)));
            assert_eq!(Some(&hi), picked.iter().max_by(|a, b| a.cmp(b)));
        }
    }

    #[test]
    fn masked_aggregates_on_strings() {
        let col = ColumnVector::Str(
            ["kiwi", "apple", "pear", "fig", "apple", "zuc"]
                .map(ArcStr::new)
                .to_vec(),
        );
        let s = Segment::build(&col, &alloc());
        let mut sel = SelBitmap::all_set(6);
        sel.clear(5); // drop "zuc"
        sel.clear(1); // drop one "apple"
        assert!(s.sum_i128_masked(&sel).is_none());
        assert!(!s.for_each_f64_masked(&sel, |_| {}));
        let (lo, hi) = s.min_max_masked(&sel).unwrap();
        assert_eq!(lo, Value::str("apple"));
        assert_eq!(hi, Value::str("pear"));
        assert!(s.min_max_masked(&SelBitmap::none_set(6)).is_none());
    }

    #[test]
    fn masked_sum_is_exact_past_i64() {
        // The caller decides whether a total fits its type.
        let col = ColumnVector::Int64(vec![i64::MAX, i64::MAX, -7]);
        let s = Segment::build(&col, &alloc());
        let total = s.sum_i128_masked(&SelBitmap::all_set(3));
        assert_eq!(total, Some(2 * i128::from(i64::MAX) - 7));
    }

    #[test]
    fn low_cardinality_column_compresses_well() {
        // 25 distinct values over 100k rows, sorted: tiny RLE.
        let mut vals: Vec<i32> = (0..100_000).map(|i| i % 25).collect();
        vals.sort_unstable();
        let s = Segment::build(&ColumnVector::Int32(vals), &alloc());
        assert_eq!(s.encoding(), IntEncoding::Rle);
        assert_eq!(s.run_count(), 25);
        assert!(s.encoded_bytes() < 1000);
    }
}
