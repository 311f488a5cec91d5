//! Column segments: one column of one row group, compressed, with min/max
//! small materialized aggregates.
//!
//! An integer-family segment (`Int32`, `Int64`, `Decimal`, `Date`) is
//! value-encoded first, as SQL Server's columnstore does: it stores each
//! value divided by the largest power of ten that divides them all
//! ([`value_encode`]), so a column of whole cents packs the cents, not
//! their 10⁻⁴ units. Only [`Segment`] multiplies back.

use std::sync::{Arc, OnceLock};

use hpd_common::codec::{f64_from_ordered, f64_to_ordered};
use hpd_common::interval::Bound;
use hpd_common::{ArcStr, ColumnVector, DataType, Interval, SelBitmap, Value, DECIMAL_UNIT};
use hpd_obs::Counter;
use hpd_storage::{BlobId, BufferPool, IoTracker, StorageAllocator};

use crate::encoding::{encode_as, encode_chosen, Domain, EncodedInts, IntEncoding, Shape};
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

/// Powers of ten an `i64` holds: 10^0 ..= 10^18.
const POW10: [i64; 19] = {
    let mut p = [1i64; 19];
    let mut k = 1;
    while k < 19 {
        p[k] = p[k - 1] * 10;
        k += 1;
    }
    p
};

/// SQL Server's value encoding of a normalized column: divide every value
/// of an integer-family column by 10^k, k the largest exponent ≤ 18 for
/// which 10^k divides them all, and return k. Floats, strings, a column of
/// zeros and one with a value that is no multiple of ten keep k = 0 and
/// their values. The one rule of a row group's build and of the advisor's
/// size model alike.
pub fn value_encode(dtype: DataType, ints: &mut [i64]) -> u8 {
    if matches!(dtype, DataType::Float64 | DataType::Utf8) {
        return 0;
    }
    let k = common_exponent(ints.iter().copied());
    if k > 0 {
        ints.iter_mut().for_each(|v| *v /= POW10[k as usize]);
    }
    k
}

/// The k of [`value_encode`] for an integer-family column's `values`.
fn common_exponent(values: impl Iterator<Item = i64>) -> u8 {
    // A multiple of 10^k is a multiple of every lower power, so a value
    // costs one remainder unless it lowers k; the scan stops at the first
    // value with no trailing zero.
    let (mut k, mut nonzero) = (POW10.len() - 1, false);
    for v in values {
        while v % POW10[k] != 0 {
            k -= 1;
        }
        if k == 0 {
            return 0;
        }
        nonzero |= v != 0;
    }
    if nonzero {
        k as u8
    } else {
        0
    }
}

/// A compressed column segment.
///
/// Non-string columns are normalized to an `i64` stream, value-encoded
/// ([`value_encode`]) and encoded directly. String columns are
/// dictionary-encoded: sorted distinct strings plus an encoded code stream
/// (dictionary order makes codes order-preserving so min/max elimination
/// still works on the original values).
#[derive(Debug, Clone)]
pub struct Segment {
    dtype: DataType,
    ints: EncodedInts,
    /// The stored words are the values divided by 10^`exponent`.
    exponent: u8,
    /// Dictionary for `Utf8` columns, sorted ascending.
    dict: Option<Arc<[ArcStr]>>,
    min: Value,
    max: Value,
    rows: usize,
    blob: BlobId,
}

/// One column of a row group being built, held at its own width: integers
/// and dates as they came, floats as their bits, strings as their positions
/// in the sorted dictionary (so the dictionary comes before the row group's
/// sort, and serves it). An integer-family column is divided by its common
/// power of ten in place ([`value_encode`]; exact division keeps order and
/// distinct counts). Every build step reads a value as its *word*, its
/// order-preserving `i64` ([`f64_to_ordered`] for a float), where it lies:
/// no column is held a second time as `i64`s, and only the stream of the
/// segment being encoded is.
pub(crate) struct TypedColumn {
    dtype: DataType,
    values: Typed,
    /// The stored words are the values divided by 10^`exponent`.
    exponent: u8,
    /// Dictionary of a `Utf8` column, sorted ascending.
    dict: Option<Arc<[ArcStr]>>,
    /// Minimum, maximum and distinct count of the words.
    pub(crate) domain: Domain,
}

/// A column's values at their width.
enum Typed {
    I32(Vec<i32>),
    I64(Vec<i64>),
    F64(Vec<f64>),
    /// Dictionary positions.
    Codes(Vec<u32>),
}

/// Run `$body` with `$vals` the column's values as a slice and `$word` the
/// function from one of them to its word: one loop compiled per width.
macro_rules! typed {
    ($typed:expr, |$vals:ident, $word:ident| $body:expr) => {
        match $typed {
            Typed::I32(v) => {
                let ($vals, $word) = (&v[..], |x: i32| i64::from(x));
                $body
            }
            Typed::I64(v) => {
                let ($vals, $word) = (&v[..], |x: i64| x);
                $body
            }
            Typed::F64(v) => {
                let ($vals, $word) = (&v[..], f64_to_ordered);
                $body
            }
            Typed::Codes(v) => {
                let ($vals, $word) = (&v[..], |x: u32| i64::from(x));
                $body
            }
        }
    };
}

impl TypedColumn {
    /// Take `column` over, finding its dictionary and domain and dividing
    /// out its exponent; `scratch` is working space.
    pub(crate) fn of(column: ColumnVector, scratch: &mut Vec<i64>) -> TypedColumn {
        let dtype = column.data_type();
        let (mut values, dict) = match column {
            ColumnVector::Int32(vals) | ColumnVector::Date(vals) => (Typed::I32(vals), None),
            ColumnVector::Int64(vals) | ColumnVector::Decimal(vals) => (Typed::I64(vals), None),
            ColumnVector::Float64(vals) => (Typed::F64(vals), None),
            ColumnVector::Str(vals) => {
                let mut dict: Vec<&ArcStr> = vals.iter().collect();
                dict.sort_unstable();
                dict.dedup();
                let codes = (vals.iter())
                    .map(|s| dict.binary_search(&s).expect("value in dict") as u32)
                    .collect();
                let dict: Arc<[ArcStr]> = dict.into_iter().cloned().collect();
                (Typed::Codes(codes), Some(dict))
            }
        };
        let exponent = match &mut values {
            Typed::I32(vals) => {
                let k = common_exponent(vals.iter().map(|&x| i64::from(x)));
                // A nonzero `i32` is no multiple of 10^10.
                let unit = POW10[k as usize] as i32;
                if k > 0 {
                    vals.iter_mut().for_each(|x| *x /= unit);
                }
                k
            }
            Typed::I64(vals) => value_encode(dtype, vals),
            Typed::F64(_) | Typed::Codes(_) => 0,
        };
        // A dictionary's codes are dense.
        let domain = match &dict {
            Some(dict) => Domain {
                min: 0,
                max: dict.len() as i64 - 1,
                distinct: dict.len(),
            },
            None => typed!(&values, |vals, word| Domain::of_iter(
                vals.iter().map(|&x| word(x)),
                scratch
            )),
        };
        TypedColumn {
            dtype,
            values,
            exponent,
            dict,
            domain,
        }
    }

    pub(crate) fn len(&self) -> usize {
        typed!(&self.values, |vals, _word| vals.len())
    }

    /// Hand each row's word with the matching element of `others`, in row
    /// order, to `f`.
    pub(crate) fn zip_words<T>(&self, others: &mut [T], mut f: impl FnMut(&mut T, i64)) {
        typed!(&self.values, |vals, word| {
            (others.iter_mut().zip(vals)).for_each(|(other, &x)| f(other, word(x)))
        })
    }

    /// How rows `a` and `b` order by this column (as their words do).
    pub(crate) fn cmp_rows(&self, a: usize, b: usize) -> std::cmp::Ordering {
        typed!(&self.values, |vals, word| word(vals[a]).cmp(&word(vals[b])))
    }

    /// The shape of the column's stream of words, its rows in the order
    /// `perm` gives (arrival order if `None`): one pass, nothing copied.
    pub(crate) fn shape(&self, perm: Option<&[u32]>) -> Shape {
        let (min, max) = (self.domain.min, self.domain.max);
        typed!(&self.values, |vals, word| match perm {
            None => Shape::of_iter(vals.iter().map(|&x| word(x)), min, max),
            Some(perm) => Shape::of_iter(perm.iter().map(|&i| word(vals[i as usize])), min, max),
        })
    }

    /// Compress the column, its rows in the order `perm` gives (arrival
    /// order if `None`) and `shape` its [`TypedColumn::shape`] in it, and
    /// free it; `scratch` holds the stream of words.
    pub(crate) fn into_segment(
        self,
        perm: Option<&[u32]>,
        shape: &Shape,
        scratch: &mut Vec<i64>,
        alloc: &StorageAllocator,
    ) -> Segment {
        let stream = match (&self.values, perm) {
            // The words are the values, in order: nothing to copy.
            (Typed::I64(vals), None) => &vals[..],
            (values, perm) => {
                scratch.clear();
                typed!(values, |vals, word| match perm {
                    None => scratch.extend(vals.iter().map(|&x| word(x))),
                    Some(perm) => scratch.extend(perm.iter().map(|&i| word(vals[i as usize]))),
                });
                &scratch[..]
            }
        };
        let (dtype, exponent) = (self.dtype, self.exponent);
        Segment::from_stream(
            dtype,
            self.dict,
            exponent,
            stream,
            shape,
            &self.domain,
            alloc,
        )
    }
}

impl Segment {
    /// Compress one column. `values` must be non-empty.
    pub fn build(column: &ColumnVector, alloc: &StorageAllocator) -> Segment {
        assert!(!column.is_empty(), "segments are never empty");
        let mut scratch = Vec::new();
        let column = TypedColumn::of(column.clone(), &mut scratch);
        let shape = column.shape(None);
        column.into_segment(None, &shape, &mut scratch, alloc)
    }

    /// [`Segment::build`] with its words encoded as `enc` (what
    /// `HPD_FORCE_ENCODING` asks of every segment), or `None` where `enc`
    /// cannot hold them.
    pub fn build_as(
        column: &ColumnVector,
        enc: IntEncoding,
        alloc: &StorageAllocator,
    ) -> Option<Segment> {
        let mut segment = Segment::build(column, alloc);
        segment.ints = encode_as(&segment.ints.decode(), enc)?;
        Some(segment)
    }

    /// Compress a column's words: `stream` holds them in stored order,
    /// `shape` is its shape, `domain` describes them (in any order), and
    /// they are the values divided by 10^`exponent`.
    fn from_stream(
        dtype: DataType,
        dict: Option<Arc<[ArcStr]>>,
        exponent: u8,
        stream: &[i64],
        shape: &Shape,
        domain: &Domain,
        alloc: &StorageAllocator,
    ) -> Segment {
        let unit = POW10[exponent as usize];
        let (min, max) = match &dict {
            Some(dict) => (
                Value::Str(dict[0].clone()),
                Value::Str(dict[dict.len() - 1].clone()),
            ),
            None => (
                raw_to_value(dtype, domain.min * unit),
                raw_to_value(dtype, domain.max * unit),
            ),
        };
        let ints = encode_chosen(stream, shape, domain.distinct);
        note_encoding(ints.encoding());
        Segment {
            dtype,
            ints,
            exponent,
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

    /// The stored words, encoded.
    pub fn encoded(&self) -> &EncodedInts {
        &self.ints
    }

    /// The power of ten the stored words are the values divided by
    /// ([`value_encode`]).
    pub fn exponent(&self) -> u8 {
        self.exponent
    }

    /// 10^[`Segment::exponent`]: what a stored word is multiplied by to
    /// give its value back.
    fn unit(&self) -> i64 {
        POW10[self.exponent as usize]
    }

    /// Number of maximal runs in the encoded stream (validation hook for the
    /// advisor's size-estimation models).
    pub fn run_count(&self) -> usize {
        self.ints.run_count()
    }

    /// Compressed size in bytes, including the dictionary and a byte for
    /// a nonzero exponent.
    pub fn encoded_bytes(&self) -> usize {
        let dict_bytes: usize = self
            .dict
            .as_ref()
            .map(|d| d.iter().map(|s| s.len() + 4).sum())
            .unwrap_or(0);
        self.ints.encoded_bytes() + dict_bytes + usize::from(self.exponent > 0)
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
            _ => raw_to_value(self.dtype, raw * self.unit()),
        }
    }

    /// Map stored words back to the segment's logical type.
    fn raws_to_column(&self, mut ints: Vec<i64>) -> ColumnVector {
        if self.exponent > 0 {
            let unit = self.unit();
            ints.iter_mut().for_each(|v| *v *= unit);
        }
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
    /// A value-encoded segment's closed range `[lo, hi]` of values becomes
    /// `[⌈lo / 10^k⌉, ⌊hi / 10^k⌋]` of stored words; an unbounded side
    /// stays unbounded.
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
        // A bound over the unit is within `i64` again.
        let (lo, hi) = match i128::from(self.unit()) {
            1 => (lo, hi),
            unit => (
                match lo {
                    i64::MIN => lo,
                    lo => -(-i128::from(lo)).div_euclid(unit) as i64,
                },
                match hi {
                    i64::MAX => hi,
                    hi => i128::from(hi).div_euclid(unit) as i64,
                },
            ),
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
    /// sums across row groups. The stored words' sum times 10^k: no
    /// overflow, each word times 10^k being a value. `None` for `Float64`
    /// (order-dependent; see [`Segment::for_each_f64_masked`]) and `Utf8`.
    pub fn sum_i128_masked(&self, sel: &SelBitmap) -> Option<i128> {
        match self.dtype {
            DataType::Int32 | DataType::Int64 | DataType::Date | DataType::Decimal => {
                Some(kernels::sum_masked(&self.ints, sel) * i128::from(self.unit()))
            }
            DataType::Float64 | DataType::Utf8 => None,
        }
    }

    /// Visit each selected value as `f64` in ascending position order (same
    /// promotions as `Value::as_f64`), so a caller-held accumulator folds
    /// bit-identically to the row-mode sequential fold across row groups.
    /// Returns `false` (without calling `f`) for `Utf8`.
    pub fn for_each_f64_masked(&self, sel: &SelBitmap, mut f: impl FnMut(f64)) -> bool {
        let unit = self.unit();
        match self.dtype {
            DataType::Float64 => {
                kernels::for_each_masked(&self.ints, sel, |raw| f(f64_from_ordered(raw)));
            }
            DataType::Decimal => {
                kernels::for_each_masked(&self.ints, sel, |raw| {
                    f((raw * unit) as f64 / DECIMAL_UNIT)
                });
            }
            DataType::Int32 | DataType::Int64 | DataType::Date => {
                kernels::for_each_masked(&self.ints, sel, |raw| f((raw * unit) as f64));
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
            _ => {
                let unit = self.unit();
                Some((
                    raw_to_value(self.dtype, lo * unit),
                    raw_to_value(self.dtype, hi * unit),
                ))
            }
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
