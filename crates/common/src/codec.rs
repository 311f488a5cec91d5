//! The one binary encoding of a [`Value`], and its borrowed view.
//!
//! A value is a one-byte type tag (0–5, the order of [`DataType`]'s
//! variants) followed by a little-endian payload: 4 bytes for `Int32` and
//! `Date`, 8 for `Int64`, `Decimal` and the bits of a `Float64`, and for a
//! string a `u32` byte length and the UTF-8 bytes. The write-ahead log
//! writes rows and keys in this form, and a B+ tree leaf *holds* its entries
//! in it, so a checkpoint copies a leaf's rows into the image as bytes.
//!
//! [`ValueRef`] is a value read in place: scalars by copy, strings as a
//! `&str` into the encoded bytes. The total order of values is defined here,
//! once, for both: a probe key compared with an encoded key and two owned
//! values compared with each other follow the same rules.
//!
//! [`DataType`]: crate::DataType

use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;

use crate::{DataType, Value};

const TAG_INT32: u8 = 0;
const TAG_INT64: u8 = 1;
const TAG_FLOAT64: u8 = 2;
const TAG_DECIMAL: u8 = 3;
const TAG_DATE: u8 = 4;
const TAG_STR: u8 = 5;

/// A [`Value`] borrowed from wherever it lives: an owned `Value` or its
/// encoded bytes.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    Int32(i32),
    Int64(i64),
    Float64(f64),
    /// Fixed-point decimal: `raw / 10_000`.
    Decimal(i64),
    /// Days since the Unix epoch.
    Date(i32),
    Str(&'a str),
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> ValueRef<'a> {
        match v {
            Value::Int32(x) => ValueRef::Int32(*x),
            Value::Int64(x) => ValueRef::Int64(*x),
            Value::Float64(x) => ValueRef::Float64(*x),
            Value::Decimal(x) => ValueRef::Decimal(*x),
            Value::Date(x) => ValueRef::Date(*x),
            Value::Str(s) => ValueRef::Str(s),
        }
    }
}

impl ValueRef<'_> {
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Int32(x) => Value::Int32(x),
            ValueRef::Int64(x) => Value::Int64(x),
            ValueRef::Float64(x) => Value::Float64(x),
            ValueRef::Decimal(x) => Value::Decimal(x),
            ValueRef::Date(x) => Value::Date(x),
            ValueRef::Str(s) => Value::str(s),
        }
    }

    /// What [`Value::data_type`] answers for the owned value.
    pub fn data_type(self) -> DataType {
        match self {
            ValueRef::Int32(_) => DataType::Int32,
            ValueRef::Int64(_) => DataType::Int64,
            ValueRef::Float64(_) => DataType::Float64,
            ValueRef::Decimal(_) => DataType::Decimal,
            ValueRef::Date(_) => DataType::Date,
            ValueRef::Str(_) => DataType::Utf8,
        }
    }

    /// What [`Value::byte_width`] answers for the owned value.
    pub fn byte_width(self) -> usize {
        match self {
            ValueRef::Int32(_) | ValueRef::Date(_) => 4,
            ValueRef::Int64(_) | ValueRef::Float64(_) | ValueRef::Decimal(_) => 8,
            ValueRef::Str(s) => 2 + s.len(),
        }
    }

    /// Bytes [`put_value`] writes for this value.
    pub fn encoded_len(self) -> usize {
        match self {
            ValueRef::Str(s) => 5 + s.len(),
            scalar => 1 + scalar.byte_width(),
        }
    }

    /// The encoding's type tag, which is also the value's rank when values
    /// of unrelated types compare.
    fn tag(self) -> u8 {
        match self {
            ValueRef::Int32(_) => TAG_INT32,
            ValueRef::Int64(_) => TAG_INT64,
            ValueRef::Float64(_) => TAG_FLOAT64,
            ValueRef::Decimal(_) => TAG_DECIMAL,
            ValueRef::Date(_) => TAG_DATE,
            ValueRef::Str(_) => TAG_STR,
        }
    }
}

impl PartialEq for ValueRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ValueRef<'_> {}

impl PartialOrd for ValueRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The total order of values, written once for [`Value`] and [`ValueRef`]
/// (`$T` names the type, `$a` and `$b` are references to it): same-typed
/// values by their natural order (floats by `total_cmp`), integers and
/// floats across types by numeric promotion, anything else by type rank. A
/// macro, not `Value::cmp` calling `ValueRef::cmp`: converting both sides
/// first made every sort of owned values a third slower.
macro_rules! total_order {
    ($T:ident, $a:expr, $b:expr) => {
        match ($a, $b) {
            ($T::Int32(a), $T::Int32(b)) => a.cmp(b),
            ($T::Int64(a), $T::Int64(b)) => a.cmp(b),
            ($T::Float64(a), $T::Float64(b)) => a.total_cmp(b),
            ($T::Decimal(a), $T::Decimal(b)) => a.cmp(b),
            ($T::Date(a), $T::Date(b)) => a.cmp(b),
            ($T::Str(a), $T::Str(b)) => a.cmp(b),
            // Mixed numeric comparisons promote to i64 / f64 so that
            // predicates like `int32_col < Int64(5)` behave naturally.
            ($T::Int32(a), $T::Int64(b)) => i64::from(*a).cmp(b),
            ($T::Int64(a), $T::Int32(b)) => a.cmp(&i64::from(*b)),
            ($T::Int32(a), $T::Float64(b)) => f64::from(*a).total_cmp(b),
            ($T::Float64(a), $T::Int32(b)) => a.total_cmp(&f64::from(*b)),
            ($T::Int64(a), $T::Float64(b)) => (*a as f64).total_cmp(b),
            ($T::Float64(a), $T::Int64(b)) => a.total_cmp(&(*b as f64)),
            (a, b) => a.tag().cmp(&b.tag()),
        }
    };
}

impl Ord for ValueRef<'_> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        total_order!(ValueRef, self, other)
    }
}

/// The same order on owned values (see [`total_order`]).
impl Ord for Value {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        total_order!(Value, self, other)
    }
}

impl Value {
    /// [`ValueRef::tag`] of the borrowed value.
    fn tag(&self) -> u8 {
        ValueRef::from(self).tag()
    }
}

/// Append one value's encoding.
pub fn put_value(buf: &mut Vec<u8>, v: ValueRef<'_>) {
    buf.push(v.tag());
    match v {
        ValueRef::Int32(x) | ValueRef::Date(x) => buf.extend_from_slice(&x.to_le_bytes()),
        ValueRef::Int64(x) | ValueRef::Decimal(x) => buf.extend_from_slice(&x.to_le_bytes()),
        ValueRef::Float64(x) => buf.extend_from_slice(&x.to_bits().to_le_bytes()),
        ValueRef::Str(s) => {
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
    }
}

/// Append the encodings of `values`, back to back (no count: a container
/// that needs one writes it itself).
pub fn put_values<'a>(buf: &mut Vec<u8>, values: impl IntoIterator<Item = &'a Value>) {
    for v in values {
        put_value(buf, v.into());
    }
}

/// Why bytes are not an encoded value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    Truncated,
    BadTag(u8),
    NotUtf8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("unexpected end of payload"),
            DecodeError::BadTag(t) => write!(f, "bad value tag {t}"),
            DecodeError::NotUtf8 => f.write_str("non-utf8 string"),
        }
    }
}

/// Split `N` bytes off the front of `bytes`.
#[inline(always)]
fn fixed<const N: usize>(bytes: &[u8]) -> Result<([u8; N], &[u8]), DecodeError> {
    match bytes.split_first_chunk::<N>() {
        Some((head, rest)) => Ok((*head, rest)),
        None => Err(DecodeError::Truncated),
    }
}

/// Read the value at the front of `bytes` and advance past it. Total: bytes
/// that are not an encoded value are an error, never a panic, and `bytes`
/// is then left where it was.
#[inline(always)]
pub fn take_value<'a>(bytes: &mut &'a [u8]) -> Result<ValueRef<'a>, DecodeError> {
    let Some((&tag, rest)) = bytes.split_first() else {
        return Err(DecodeError::Truncated);
    };
    let (v, rest) = match tag {
        TAG_INT32 => {
            let (x, rest) = fixed(rest)?;
            (ValueRef::Int32(i32::from_le_bytes(x)), rest)
        }
        TAG_INT64 => {
            let (x, rest) = fixed(rest)?;
            (ValueRef::Int64(i64::from_le_bytes(x)), rest)
        }
        TAG_FLOAT64 => {
            let (x, rest) = fixed(rest)?;
            (
                ValueRef::Float64(f64::from_bits(u64::from_le_bytes(x))),
                rest,
            )
        }
        TAG_DECIMAL => {
            let (x, rest) = fixed(rest)?;
            (ValueRef::Decimal(i64::from_le_bytes(x)), rest)
        }
        TAG_DATE => {
            let (x, rest) = fixed(rest)?;
            (ValueRef::Date(i32::from_le_bytes(x)), rest)
        }
        TAG_STR => take_str(rest)?,
        t => return Err(DecodeError::BadTag(t)),
    };
    *bytes = rest;
    Ok(v)
}

/// The string whose length prefix is at the front of `bytes`, and the rest.
/// Out of line: it validates UTF-8, and the scalar arms above should inline
/// without it.
#[inline(never)]
fn take_str(bytes: &[u8]) -> Result<(ValueRef<'_>, &[u8]), DecodeError> {
    let (n, rest) = fixed(bytes)?;
    let (s, rest) = rest
        .split_at_checked(u32::from_le_bytes(n) as usize)
        .ok_or(DecodeError::Truncated)?;
    let s = std::str::from_utf8(s).map_err(|_| DecodeError::NotUtf8)?;
    Ok((ValueRef::Str(s), rest))
}

/// The values of a run of encoded values that this program wrote itself (a
/// leaf's bytes, a scratch buffer): malformed bytes are a bug and panic.
#[derive(Debug, Clone)]
pub struct EncodedValues<'a>(&'a [u8]);

/// Iterate over `bytes`, which hold zero or more encoded values and nothing
/// else.
pub fn values(bytes: &[u8]) -> EncodedValues<'_> {
    EncodedValues(bytes)
}

impl<'a> Iterator for EncodedValues<'a> {
    type Item = ValueRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<ValueRef<'a>> {
        if self.0.is_empty() {
            return None;
        }
        Some(take_value(&mut self.0).expect("bytes written by this codec"))
    }
}

/// Byte length of the value at the front of `bytes`, which this program
/// wrote. Reads the tag and a string's length only.
#[inline]
fn encoded_len(bytes: &[u8]) -> usize {
    match bytes[0] {
        TAG_INT32 | TAG_DATE => 5,
        TAG_INT64 | TAG_FLOAT64 | TAG_DECIMAL => 9,
        TAG_STR => {
            let n: [u8; 4] = bytes[1..5].try_into().expect("four length bytes");
            5 + u32::from_le_bytes(n) as usize
        }
        t => panic!("bad value tag {t} in bytes written by this codec"),
    }
}

/// Fill `spans` with the byte range of each value in `bytes` (see
/// [`values`]), so that a projection of an encoded row is a copy of ranges.
pub fn value_spans(bytes: &[u8], spans: &mut Vec<Range<usize>>) {
    spans.clear();
    let mut at = 0;
    while at < bytes.len() {
        let end = at + encoded_len(&bytes[at..]);
        spans.push(at..end);
        at = end;
    }
}

/// Byte length of the first `n` values of `bytes` (see [`values`]), which
/// hold at least that many.
pub fn values_len(bytes: &[u8], n: usize) -> usize {
    (0..n).fold(0, |at, _| at + encoded_len(&bytes[at..]))
}

/// Number of values in `bytes` (see [`values`]).
pub fn count_values(bytes: &[u8]) -> usize {
    let (mut at, mut n) = (0, 0);
    while at < bytes.len() {
        at += encoded_len(&bytes[at..]);
        n += 1;
    }
    n
}

/// Sum of [`Value::byte_width`] over the values in `bytes` (see [`values`]):
/// a scalar's payload, a string's bytes and two more.
pub fn byte_width(bytes: &[u8]) -> usize {
    let (mut at, mut width) = (0, 0);
    while at < bytes.len() {
        let n = encoded_len(&bytes[at..]);
        width += if bytes[at] == TAG_STR { n - 3 } else { n - 1 };
        at += n;
    }
    width
}

/// The owned values of `bytes` (see [`values`]), in a vector of exactly
/// their number.
pub fn decode(bytes: &[u8]) -> Vec<Value> {
    let mut out = Vec::with_capacity(count_values(bytes));
    out.extend(values(bytes).map(ValueRef::to_value));
    out
}

/// Compare the encoded values of `stored` with `probe`, as the slices of
/// their owned values compare: value by value, a strict prefix first.
#[inline]
pub fn cmp_with_values(stored: &[u8], probe: &[Value]) -> Ordering {
    let mut stored = values(stored);
    for p in probe {
        let Some(s) = stored.next() else {
            return Ordering::Less;
        };
        match s.cmp(&p.into()) {
            Ordering::Equal => {}
            unequal => return unequal,
        }
    }
    match stored.next() {
        None => Ordering::Equal,
        Some(_) => Ordering::Greater,
    }
}

/// [`cmp_with_values`] with both sides encoded.
#[inline]
pub fn cmp_encoded(a: &[u8], b: &[u8]) -> Ordering {
    // A loop, not `values(a).cmp(values(b))`: that was half as fast again,
    // and this is the comparison an index build sorts by.
    let (mut a, mut b) = (values(a), values(b));
    loop {
        match (a.next(), b.next()) {
            (Some(x), Some(y)) => match x.cmp(&y) {
                Ordering::Equal => {}
                unequal => return unequal,
            },
            (x, y) => return x.is_some().cmp(&y.is_some()),
        }
    }
}

/// What a sort learns of an encoded key from its first eight bytes' worth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abbreviation {
    /// Type tag of the key's first value: images of different tags do not
    /// compare.
    pub tag: u8,
    /// Order-preserving image of that value: among keys of one tag,
    /// `a.image < b.image` implies `a < b`. A sign-flipped integer, the
    /// total-order bits of a float, a string's first eight bytes big-endian
    /// (zero-padded).
    pub image: u64,
    /// The image is the whole key — one scalar value — so equal images are
    /// equal keys.
    pub exact: bool,
}

/// Abbreviate the key whose encoded values are `key` (see [`values`]);
/// `None` for a key of no values.
#[inline]
pub fn abbreviate(key: &[u8]) -> Option<Abbreviation> {
    const SIGN: u64 = 1 << 63;
    let mut rest = key;
    let first = take_value(&mut rest).ok()?;
    let image = match first {
        ValueRef::Int32(x) | ValueRef::Date(x) => i64::from(x) as u64 ^ SIGN,
        ValueRef::Int64(x) | ValueRef::Decimal(x) => x as u64 ^ SIGN,
        // `total_cmp`'s order: negative floats descend in their bits.
        ValueRef::Float64(x) => match x.to_bits() {
            bits if bits & SIGN != 0 => !bits,
            bits => bits | SIGN,
        },
        ValueRef::Str(s) => {
            let mut head = [0u8; 8];
            let n = s.len().min(8);
            head[..n].copy_from_slice(&s.as_bytes()[..n]);
            u64::from_be_bytes(head)
        }
    };
    Some(Abbreviation {
        tag: first.tag(),
        image,
        exact: rest.is_empty() && !matches!(first, ValueRef::Str(_)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<Value> {
        let mut vs = vec![
            Value::Decimal(-1),
            Value::Decimal(123_456),
            Value::Date(-3),
            Value::Date(19_000),
            Value::str(""),
            Value::str("a"),
            Value::str("ab"),
            Value::str("héllo"),
            Value::str("x".repeat(5_000)),
            Value::sentinel_max(),
        ];
        for i in [i32::MIN, -2, -1, 0, 1, 2, 7, i32::MAX] {
            vs.push(Value::Int32(i));
            vs.push(Value::Int64(i64::from(i)));
            vs.push(Value::Float64(f64::from(i)));
            vs.push(Value::Float64(f64::from(i) + 0.5));
        }
        for i in [i64::MIN, i64::MAX, (1 << 53) + 1] {
            vs.push(Value::Int64(i));
        }
        for f in [
            f64::NAN,
            -f64::NAN,
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ] {
            vs.push(Value::Float64(f));
        }
        vs
    }

    /// `Value::cmp` as it was before it delegated to `ValueRef` (commit
    /// 01bfb57), kept here as the reference.
    fn parent_cmp(a: &Value, b: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Int32(_) => 0,
                Int64(_) => 1,
                Float64(_) => 2,
                Decimal(_) => 3,
                Date(_) => 4,
                Str(_) => 5,
            }
        }
        match (a, b) {
            (Int32(a), Int32(b)) => a.cmp(b),
            (Int64(a), Int64(b)) => a.cmp(b),
            (Float64(a), Float64(b)) => a.total_cmp(b),
            (Decimal(a), Decimal(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Int32(a), Int64(b)) => i64::from(*a).cmp(b),
            (Int64(a), Int32(b)) => a.cmp(&i64::from(*b)),
            (Int32(a), Float64(b)) => f64::from(*a).total_cmp(b),
            (Float64(a), Int32(b)) => a.total_cmp(&f64::from(*b)),
            (Int64(a), Float64(b)) => (*a as f64).total_cmp(b),
            (Float64(a), Int64(b)) => a.total_cmp(&(*b as f64)),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    fn encoded(v: &Value) -> Vec<u8> {
        let mut b = Vec::new();
        put_value(&mut b, v.into());
        b
    }

    #[test]
    fn one_order_for_owned_borrowed_and_encoded_values() {
        let vs = corpus();
        for a in &vs {
            for b in &vs {
                let want = parent_cmp(a, b);
                assert_eq!(a.cmp(b), want, "{a:?} vs {b:?}");
                assert_eq!(ValueRef::from(a).cmp(&b.into()), want, "{a:?} vs {b:?}");
                let (ea, eb) = (encoded(a), encoded(b));
                assert_eq!(cmp_encoded(&ea, &eb), want, "{a:?} vs {b:?}");
                assert_eq!(
                    cmp_with_values(&ea, std::slice::from_ref(b)),
                    want,
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn an_abbreviation_never_contradicts_the_order_of_same_typed_values() {
        let vs = corpus();
        for a in &vs {
            for b in vs.iter().filter(|b| b.data_type() == a.data_type()) {
                let (x, y) = (
                    abbreviate(&encoded(a)).unwrap(),
                    abbreviate(&encoded(b)).unwrap(),
                );
                assert_eq!(x.tag, y.tag);
                if x.image < y.image {
                    assert!(a < b, "{a:?} vs {b:?}");
                }
                if a == b {
                    assert_eq!(x.image, y.image, "{a:?} vs {b:?}");
                }
                // A lone scalar is its image; a string never is.
                assert_eq!(x.exact, !matches!(a, Value::Str(_)));
                if x.exact && x.image == y.image {
                    assert!(a == b, "{a:?} vs {b:?}");
                }
            }
            let mut two = encoded(a);
            put_value(&mut two, a.into());
            let first = abbreviate(&two).unwrap();
            assert_eq!(first.image, abbreviate(&encoded(a)).unwrap().image);
            assert!(!first.exact);
        }
        assert_eq!(abbreviate(&[]), None);
    }

    #[test]
    fn sequences_compare_like_slices_of_owned_values() {
        let vs = corpus();
        let seqs: Vec<Vec<Value>> = (0..vs.len())
            .flat_map(|i| {
                let a = vs[i].clone();
                let b = vs[(i * 7 + 3) % vs.len()].clone();
                [
                    vec![],
                    vec![a.clone()],
                    vec![a.clone(), b.clone()],
                    vec![a, b.clone(), b],
                ]
            })
            .collect();
        for a in &seqs {
            let mut ea = Vec::new();
            put_values(&mut ea, a);
            for b in &seqs {
                let mut eb = Vec::new();
                put_values(&mut eb, b);
                assert_eq!(cmp_with_values(&ea, b), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(cmp_encoded(&ea, &eb), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn round_trip_preserves_values_bits_and_widths() {
        let vs = corpus();
        let mut bytes = Vec::new();
        put_values(&mut bytes, &vs);
        let back = decode(&bytes);
        assert_eq!(back.len(), vs.len());
        assert_eq!(back.capacity(), vs.len());
        for (a, b) in vs.iter().zip(&back) {
            assert_eq!(a.data_type(), b.data_type());
            assert_eq!(a, b);
            if let (Value::Float64(x), Value::Float64(y)) = (a, b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(count_values(&bytes), vs.len());
        assert_eq!(
            byte_width(&bytes),
            vs.iter().map(Value::byte_width).sum::<usize>()
        );
        let mut spans = Vec::new();
        value_spans(&bytes, &mut spans);
        assert_eq!(spans.len(), vs.len());
        for (v, span) in vs.iter().zip(&spans) {
            assert_eq!(&bytes[span.clone()], &encoded(v)[..]);
        }
    }

    #[test]
    fn malformed_bytes_are_errors_and_leave_the_input_in_place() {
        for bad in [
            &[][..],
            &[9][..],
            &[TAG_INT32, 1, 2][..],
            &[TAG_INT64, 1, 2, 3, 4][..],
            &[TAG_STR, 2, 0, 0][..],
            &[TAG_STR, 2, 0, 0, 0, b'a'][..],
            &[TAG_STR, 2, 0, 0, 0, 0xff, 0xfe][..],
            &[TAG_STR, 0xff, 0xff, 0xff, 0xff][..],
        ] {
            let mut rest = bad;
            assert!(take_value(&mut rest).is_err(), "{bad:?}");
            assert_eq!(rest, bad);
        }
        let mut rest = &[TAG_DATE, 1, 0, 0, 0, 7][..];
        assert_eq!(take_value(&mut rest), Ok(ValueRef::Date(1)));
        assert_eq!(rest, &[7]);
    }
}
