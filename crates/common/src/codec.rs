//! The one binary encoding of a [`Value`], and its borrowed view.
//!
//! A value is a header byte and a payload. The header's high four bits are
//! the type tag (0–5, the order of [`DataType`]'s variants; 6–9 below) and
//! its low four the payload's length. An `Int32`, `Int64`, `Decimal` or
//! `Date` is zig-zagged (0, -1, 1, -2, … to 0, 1, 2, 3, …) and its payload
//! is that word's significant bytes, little-endian: none for zero, one for
//! -64 to 63, at most 4 for the 32-bit types and 8 for the 64-bit ones. A
//! nonzero decimal whose raw value ends in k = 1…4 decimal zeros is written
//! as raw / 10^k under tag 5 + k. A `Float64` is its 8 bytes. A string's
//! header has length 0 and is followed by its byte length as a LEB128
//! varint and the UTF-8 bytes. Every value has one encoding, read without a
//! schema: the decoder refuses a wider payload or varint than the value
//! needs and a decimal under another scale than its own, so equal values
//! are equal bytes. The write-ahead log writes rows and keys in this form,
//! and a B+ tree leaf *holds* its entries in it, so a checkpoint copies a
//! leaf's rows into the image as bytes.
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
/// Tags 6–9: a decimal of k = 1…4 trailing zeros is `TAG_SCALED + k`.
const TAG_SCALED: u8 = 5;
const TAG_DECIMAL_E1: u8 = TAG_SCALED + 1;
const TAG_DECIMAL_E4: u8 = TAG_SCALED + 4;
const POW10: [i64; 5] = [1, 10, 100, 1_000, 10_000];

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

    /// What [`Value::byte_width`] answers for the owned value: its type's
    /// fixed width, or a string's bytes and two more.
    pub fn byte_width(self) -> usize {
        match self {
            ValueRef::Str(s) => 2 + s.len(),
            scalar => scalar.data_type().fixed_width(),
        }
    }

    /// Bytes [`put_value`] writes for this value.
    pub fn encoded_len(self) -> usize {
        match self {
            ValueRef::Float64(_) => 9,
            ValueRef::Str(s) => 1 + varint_len(s.len() as u64) + s.len(),
            integer => 1 + significant_len(integer.header_word().1),
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

    /// The header tag of an integer, date or decimal and the zig-zag word
    /// whose significant bytes are its payload (0 for a float or a string).
    fn header_word(self) -> (u8, u64) {
        let (tag, x) = match self {
            ValueRef::Int32(x) | ValueRef::Date(x) => (self.tag(), i64::from(x)),
            ValueRef::Decimal(x) => scaled(x),
            ValueRef::Int64(x) => (TAG_INT64, x),
            ValueRef::Float64(_) | ValueRef::Str(_) => (self.tag(), 0),
        };
        (tag, ((x << 1) ^ (x >> 63)) as u64)
    }
}

/// A decimal's header tag and the integer its payload holds: a nonzero raw
/// value ending in k = 1…4 decimal zeros is raw / 10^k under tag 5 + k, any
/// other is itself under [`TAG_DECIMAL`].
#[inline(always)]
fn scaled(raw: i64) -> (u8, i64) {
    let (mut k, mut m) = (0, raw);
    while k < 4 && m != 0 && m % 10 == 0 {
        (k, m) = (k + 1, m / 10);
    }
    (if k == 0 { TAG_DECIMAL } else { TAG_SCALED + k }, m)
}

/// The integer whose zig-zag word is `w`.
#[inline(always)]
fn unzigzag(w: u64) -> i64 {
    (w >> 1) as i64 ^ -((w & 1) as i64)
}

/// Bytes of `w` below its leading zero bytes: 0 for 0, up to 8.
#[inline(always)]
fn significant_len(w: u64) -> usize {
    (71 - w.leading_zeros() as usize) / 8
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

/// An `Int32` hashes as the `Int64` of its value; each other type by its
/// own bits behind a type byte.
impl std::hash::Hash for ValueRef<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match *self {
            ValueRef::Int32(v) => {
                0u8.hash(state);
                i64::from(v).hash(state);
            }
            ValueRef::Int64(v) => {
                0u8.hash(state);
                v.hash(state);
            }
            ValueRef::Float64(v) => {
                1u8.hash(state);
                v.to_bits().hash(state);
            }
            ValueRef::Decimal(v) => {
                2u8.hash(state);
                v.hash(state);
            }
            ValueRef::Date(v) => {
                3u8.hash(state);
                v.hash(state);
            }
            ValueRef::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

/// The same order on owned values (see `total_order`).
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

/// The most bytes [`put_value`] writes for a value of type `dtype`: 5 for
/// `Int32` and `Date`, 9 for the 8-byte types. A string has no maximum;
/// its answer is for a string of [`DataType::fixed_width`]'s planning
/// length. What a value actually takes is [`ValueRef::encoded_len`].
pub fn encoded_width(dtype: DataType) -> usize {
    match dtype {
        DataType::Utf8 => 1 + varint_len(dtype.fixed_width() as u64) + dtype.fixed_width(),
        scalar => 1 + scalar.fixed_width(),
    }
}

/// Append one value's encoding.
pub fn put_value(buf: &mut Vec<u8>, v: ValueRef<'_>) {
    match v {
        ValueRef::Float64(x) => {
            buf.push(TAG_FLOAT64 << 4 | 8);
            buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        ValueRef::Str(s) => {
            buf.push(TAG_STR << 4);
            put_varint(buf, s.len() as u64);
            buf.extend_from_slice(s.as_bytes());
        }
        integer => {
            let (tag, w) = integer.header_word();
            let len = significant_len(w);
            buf.push(tag << 4 | len as u8);
            // The value's own bytes only: eight written and cut back would
            // grow a buffer with room for these alone (a log segment sized
            // to its rows). An iterator of known length appends them without
            // the call a slice of variable length makes to copy.
            buf.extend(w.to_le_bytes().into_iter().take(len));
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

/// Bytes [`put_varint`] writes for `n`.
pub fn varint_len(n: u64) -> usize {
    (70 - n.max(1).leading_zeros() as usize) / 7
}

/// Append `n` as a LEB128 varint: seven bits a byte, low first, the high
/// bit set on every byte but the last.
pub fn put_varint(buf: &mut Vec<u8>, n: u64) {
    let (bytes, len) = varint(n);
    buf.extend_from_slice(&bytes[..len]);
}

/// The bytes [`put_varint`] writes for `n`, in the first `len` of an array.
pub fn varint(mut n: u64) -> ([u8; 10], usize) {
    let (mut bytes, mut len) = ([0; 10], 0);
    while n >= 0x80 {
        bytes[len] = n as u8 | 0x80;
        n >>= 7;
        len += 1;
    }
    bytes[len] = n as u8;
    (bytes, len + 1)
}

/// Read the varint at the front of `bytes` and advance past it. Only
/// [`put_varint`]'s own bytes are accepted: a varint with a zero last byte
/// after others, or past 64 bits, is [`DecodeError::NotMinimal`].
#[inline]
pub fn take_varint(bytes: &mut &[u8]) -> Result<u64, DecodeError> {
    let mut n = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if i == 9 && b > 1 || b == 0 && i > 0 {
            return Err(DecodeError::NotMinimal);
        }
        n |= u64::from(b & 0x7f) << (7 * i);
        if b < 0x80 {
            *bytes = &bytes[i + 1..];
            return Ok(n);
        }
    }
    Err(DecodeError::Truncated)
}

/// Why bytes are not an encoded value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    Truncated,
    /// A header byte whose type tag is none of the ten.
    BadTag(u8),
    /// A header byte whose payload length its type does not take.
    BadLength(u8),
    /// A payload or a string's length in more bytes than it needs, or a
    /// decimal under another scale than its own.
    NotMinimal,
    NotUtf8,
    /// A scaled decimal whose value does not fit `i64`.
    Overflow,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("unexpected end of payload"),
            DecodeError::BadTag(h) => write!(f, "bad value tag in header {h:#04x}"),
            DecodeError::BadLength(h) => write!(f, "bad payload length in header {h:#04x}"),
            DecodeError::NotMinimal => f.write_str("value wider than its encoding"),
            DecodeError::NotUtf8 => f.write_str("non-utf8 string"),
            DecodeError::Overflow => f.write_str("decimal out of range"),
        }
    }
}

/// Indexed by a payload length (a header's low four bits): `MASK` keeps a
/// word's low `len` bytes, and `LEAST` is the least word that needs them
/// all. Tables, not shifts: decoding is a chain of loads, each waiting on
/// the length before it.
#[rustfmt::skip]
const MASK: [u64; 16] = [
    0, 0xff, 0xffff, 0xff_ffff, 0xffff_ffff, 0xff_ffff_ffff, 0xffff_ffff_ffff,
    0xff_ffff_ffff_ffff, u64::MAX, 0, 0, 0, 0, 0, 0, 0,
];
#[rustfmt::skip]
const LEAST: [u64; 16] = [
    0, 1, 1 << 8, 1 << 16, 1 << 24, 1 << 32, 1 << 40, 1 << 48, 1 << 56, 0, 0, 0, 0, 0, 0, 0,
];

/// The `len` (≤ 8) payload bytes at the front of `bytes` as a little-endian
/// word: one unaligned load and a mask when eight bytes remain, else two
/// overlapping loads of four, or a value's last three bytes one by one.
#[inline(always)]
fn word(bytes: &[u8], len: usize) -> Result<u64, DecodeError> {
    let n = bytes.len();
    let w = if let Some(head) = bytes.first_chunk::<8>() {
        u64::from_le_bytes(*head)
    } else if n < len {
        return Err(DecodeError::Truncated);
    } else if let (Some(lo), Some(hi)) = (bytes.first_chunk::<4>(), bytes.last_chunk::<4>()) {
        u64::from(u32::from_le_bytes(*lo)) | u64::from(u32::from_le_bytes(*hi)) << (8 * (n - 4))
    } else if n > 0 {
        let byte = |i: usize| u64::from(bytes[i]) << (8 * i);
        byte(0) | byte(n / 2) | byte(n - 1)
    } else {
        0
    };
    Ok(w & MASK[len])
}

/// The integer whose `len` significant bytes start `bytes`; a payload with
/// a zero top byte is not its minimal encoding.
#[inline(always)]
fn integer(bytes: &[u8], len: usize) -> Result<i64, DecodeError> {
    let w = word(bytes, len)?;
    if w < LEAST[len] {
        return Err(DecodeError::NotMinimal);
    }
    Ok(unzigzag(w))
}

/// The decimal under header tag `tag` (scale k) whose mantissa's `len`
/// bytes start `bytes`: the mantissa times 10^k. One [`scaled`] would not
/// write there (zero under a scale, 10n below scale 4) is not minimal.
#[inline(always)]
fn decimal(bytes: &[u8], len: usize, tag: u8) -> Result<i64, DecodeError> {
    let m = integer(bytes, len)?;
    let k = usize::from(tag.saturating_sub(TAG_SCALED));
    if if m == 0 { k > 0 } else { k < 4 && m % 10 == 0 } {
        return Err(DecodeError::NotMinimal);
    }
    m.checked_mul(POW10[k]).ok_or(DecodeError::Overflow)
}

/// Read the value at the front of `bytes` and advance past it. Total: bytes
/// that are not an encoded value are an error, never a panic, and `bytes`
/// is then left where it was.
#[inline(always)]
pub fn take_value<'a>(bytes: &mut &'a [u8]) -> Result<ValueRef<'a>, DecodeError> {
    let Some((&header, rest)) = bytes.split_first() else {
        return Err(DecodeError::Truncated);
    };
    let len = usize::from(header & 0xf);
    // A 4-byte payload's zig-zag word fits `u32`, so its integer fits `i32`.
    let v = match header >> 4 {
        TAG_INT32 if len <= 4 => ValueRef::Int32(integer(rest, len)? as i32),
        TAG_INT64 if len <= 8 => ValueRef::Int64(integer(rest, len)?),
        TAG_FLOAT64 if len == 8 => ValueRef::Float64(f64::from_bits(word(rest, len)?)),
        t @ (TAG_DECIMAL | TAG_DECIMAL_E1..=TAG_DECIMAL_E4) if len <= 8 => {
            ValueRef::Decimal(decimal(rest, len, t)?)
        }
        TAG_DATE if len <= 4 => ValueRef::Date(integer(rest, len)? as i32),
        TAG_STR if len == 0 => {
            let (s, rest) = take_str(rest)?;
            *bytes = rest;
            return Ok(s);
        }
        TAG_INT32..=TAG_DECIMAL_E4 => return Err(DecodeError::BadLength(header)),
        _ => return Err(DecodeError::BadTag(header)),
    };
    *bytes = &rest[len..];
    Ok(v)
}

/// The string whose length varint is at the front of `bytes`, and the rest.
/// Out of line: it validates UTF-8, and the scalar arms above should inline
/// without it.
#[inline(never)]
fn take_str(mut bytes: &[u8]) -> Result<(ValueRef<'_>, &[u8]), DecodeError> {
    let n = take_varint(&mut bytes)?;
    let (s, rest) = usize::try_from(n)
        .ok()
        .and_then(|n| bytes.split_at_checked(n))
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

/// The type tag and byte length of the value at the front of `bytes`, which
/// this program wrote, and a string's byte count (0 for a scalar). Reads
/// the header and a string's length only.
#[inline]
fn span(bytes: &[u8]) -> (u8, usize, usize) {
    let (tag, len) = (bytes[0] >> 4, usize::from(bytes[0] & 0xf));
    if tag != TAG_STR {
        return (tag, 1 + len, 0);
    }
    let mut rest = &bytes[1..];
    let n = take_varint(&mut rest).expect("a string length written by this codec") as usize;
    (tag, bytes.len() - rest.len() + n, n)
}

/// Fill `spans` with the byte range of each value in `bytes` (see
/// [`values`]), so that a projection of an encoded row is a copy of ranges.
pub fn value_spans(bytes: &[u8], spans: &mut Vec<Range<usize>>) {
    spans.clear();
    let mut at = 0;
    while at < bytes.len() {
        let end = at + span(&bytes[at..]).1;
        spans.push(at..end);
        at = end;
    }
}

/// Byte length of the first `n` values of `bytes` (see [`values`]), which
/// hold at least that many.
pub fn values_len(bytes: &[u8], n: usize) -> usize {
    (0..n).fold(0, |at, _| at + span(&bytes[at..]).1)
}

/// Number of values in `bytes` (see [`values`]).
pub fn count_values(bytes: &[u8]) -> usize {
    let (mut at, mut n) = (0, 0);
    while at < bytes.len() {
        at += span(&bytes[at..]).1;
        n += 1;
    }
    n
}

/// Sum of [`Value::byte_width`] over the values in `bytes` (see [`values`]):
/// each scalar its type's fixed width, each string its bytes and two more.
pub fn byte_width(bytes: &[u8]) -> usize {
    let (mut at, mut width) = (0, 0);
    while at < bytes.len() {
        let (tag, len, str_len) = span(&bytes[at..]);
        width += match tag {
            TAG_INT32 | TAG_DATE => 4,
            TAG_STR => 2 + str_len,
            _ => 8,
        };
        at += len;
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

/// `x` as the `i64` that orders as `f64::total_cmp` orders `x`: its bits,
/// with a negative float's magnitude bits flipped so those descend. The
/// columnstore stores floats as this, and [`abbreviate`] flips its sign bit.
#[inline]
pub fn f64_to_ordered(x: f64) -> i64 {
    flip_negative(x.to_bits() as i64)
}

/// The float [`f64_to_ordered`] mapped to `v`.
#[inline]
pub fn f64_from_ordered(v: i64) -> f64 {
    f64::from_bits(flip_negative(v) as u64)
}

#[inline]
fn flip_negative(bits: i64) -> i64 {
    if bits < 0 {
        bits ^ i64::MAX
    } else {
        bits
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
        ValueRef::Float64(x) => f64_to_ordered(x) as u64 ^ SIGN,
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
        use DecodeError::*;
        for (bad, why) in [
            (&[][..], Truncated),
            (&[0xa0][..], BadTag(0xa0)),
            (&[0xf3, 1, 2, 3][..], BadTag(0xf3)),
            (&[0x69, 1, 2, 3, 4, 5, 6, 7, 8, 9][..], BadLength(0x69)),
            (&[0x99, 1, 2, 3, 4, 5, 6, 7, 8, 9][..], BadLength(0x99)),
            // A decimal under another scale than its own: a zero mantissa
            // under a scale, a multiple of 10 under scale 0–3.
            (&[0x60][..], NotMinimal),
            (&[0x90][..], NotMinimal),
            (&[0x31, 0x14][..], NotMinimal),
            (&[0x61, 0x13][..], NotMinimal),
            (&[0x81, 0x14][..], NotMinimal),
            (&[0x91, 0][..], NotMinimal),
            (&[0x72, 1][..], Truncated),
            (&[0x05, 1, 2, 3, 4, 5][..], BadLength(0x05)),
            (&[0x45, 1, 2, 3, 4, 5][..], BadLength(0x45)),
            (&[0x19, 1, 2, 3, 4, 5, 6, 7, 8, 9][..], BadLength(0x19)),
            (&[0x27, 1, 2, 3, 4, 5, 6, 7][..], BadLength(0x27)),
            (&[0x51, 0][..], BadLength(0x51)),
            (&[0x02, 1][..], Truncated),
            (&[0x18, 1, 2, 3, 4, 5, 6, 7][..], Truncated),
            (&[0x28, 1, 2, 3][..], Truncated),
            (&[0x01, 0][..], NotMinimal),
            (&[0x32, 7, 0][..], NotMinimal),
            (&[0x18, 1, 2, 3, 4, 5, 6, 7, 0, 9][..], NotMinimal),
            (&[0x50, 0x80, 0][..], NotMinimal),
            (&[0x50, 0x81, 0x80, 0][..], NotMinimal),
            (
                &[
                    0x50, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f,
                ][..],
                NotMinimal,
            ),
            (&[0x50, 0x80][..], Truncated),
            (&[0x50, 2, b'a'][..], Truncated),
            (&[0x50, 0xff, 0xff, 0xff, 0xff, 0x0f][..], Truncated),
            (&[0x50, 2, 0xff, 0xfe][..], NotUtf8),
        ] {
            let mut rest = bad;
            assert_eq!(take_value(&mut rest), Err(why), "{bad:?}");
            assert_eq!(rest, bad);
        }
        let mut rest = &[0x41, 2, 7][..];
        assert_eq!(take_value(&mut rest), Ok(ValueRef::Date(1)));
        assert_eq!(rest, &[7]);
        // Scale 4 is the last: its mantissa may end in zeros.
        let mut rest = &[0x91, 0x14][..];
        assert_eq!(take_value(&mut rest), Ok(ValueRef::Decimal(100_000)));
        // A mantissa whose value does not fit `i64`.
        for m in [i64::MAX / 10_000 + 1, i64::MIN / 10_000 - 1] {
            let w = ValueRef::Int64(m).header_word().1;
            let len = significant_len(w);
            let mut bad = vec![TAG_DECIMAL_E4 << 4 | len as u8];
            bad.extend_from_slice(&w.to_le_bytes()[..len]);
            let mut rest = &bad[..];
            assert_eq!(take_value(&mut rest), Err(Overflow), "{m}");
            assert_eq!(rest, bad);
        }
    }

    /// The header tag a decimal takes: 5 + k for a nonzero raw value ending
    /// in k = 1…4 decimal zeros, 3 for any other.
    fn decimal_tag(raw: i64) -> u8 {
        let zeros = (1..=4).take_while(|&k| raw != 0 && raw % 10_i64.pow(k) == 0);
        match zeros.count() as u8 {
            0 => 3,
            k => 5 + k,
        }
    }

    #[test]
    fn a_decimal_is_written_without_its_trailing_zeros() {
        // Each scale 0–4 either sign, the ends of `i64`, and raw values of
        // 18 and 19 digits with trailing zeros: (raw, tag, mantissa).
        for (raw, tag, m) in [
            (0, 3, 0),
            (7, 3, 7),
            (-123_456, 3, -123_456),
            (70, 6, 7),
            (-1_250, 6, -125),
            (4_200, 7, 42),
            (-700, 7, -7),
            (123_000, 8, 123),
            (-5_000, 8, -5),
            (10_000, 9, 1),
            (-500_000, 9, -50),
            (1_000_000_000, 9, 100_000),
            (i64::MAX, 3, i64::MAX),
            (i64::MIN, 3, i64::MIN),
            (i64::MAX / 100 * 100, 7, i64::MAX / 100),
            (i64::MIN / 10_000 * 10_000, 9, i64::MIN / 10_000),
            (999_999_999_999_990_000, 9, 99_999_999_999_999),
        ] {
            let v = Value::Decimal(raw);
            let bytes = encoded(&v);
            assert_eq!((bytes[0] >> 4, decimal_tag(raw)), (tag, tag), "{raw}");
            // The payload is the mantissa's, as an `Int64` of it writes it.
            assert_eq!(bytes[1..], encoded(&Value::Int64(m))[1..], "{raw}");
            assert_eq!(bytes.len(), ValueRef::from(&v).encoded_len(), "{raw}");
            assert_eq!(decode(&bytes), std::slice::from_ref(&v), "{raw}");
            let abbreviation = abbreviate(&bytes).unwrap();
            assert_eq!(abbreviation.tag, TAG_DECIMAL, "{raw}");
            assert_eq!(abbreviation.image, raw as u64 ^ 1 << 63, "{raw}");
            assert_eq!(byte_width(&bytes), 8, "{raw}");
        }
        // A whole `l_quantity` (50) and a whole-cent price (1 234.50).
        assert_eq!(encoded(&Value::Decimal(500_000)), [0x91, 100]);
        assert_eq!(encoded(&Value::Decimal(12_345_000)), [0x82, 0x72, 0x60]);
    }

    #[test]
    fn every_short_input_is_an_error_or_its_values_one_encoding() {
        // Every header byte, then every payload of 0, 1 or 2 bytes: the
        // decoder refuses it, leaving it in place, or reads a value whose
        // encoding is exactly the bytes it took.
        let (mut input, mut again) = (Vec::with_capacity(3), Vec::with_capacity(16));
        let (mut values, mut errors) = (0, 0);
        for header in 0..=u8::MAX {
            for n in 0..=2 {
                for payload in 0..1u32 << (8 * n) {
                    input.clear();
                    input.push(header);
                    input.extend_from_slice(&payload.to_le_bytes()[..n]);
                    let mut rest = &input[..];
                    match take_value(&mut rest) {
                        Ok(v) => {
                            again.clear();
                            put_value(&mut again, v);
                            let took = input.len() - rest.len();
                            assert_eq!(again, input[..took], "{input:?}: {v:?}");
                            values += 1;
                        }
                        Err(_) => {
                            assert_eq!(rest, input, "{input:?}");
                            errors += 1;
                        }
                    }
                }
            }
        }
        // What decodes, pinned: a header's reading changed shows here.
        assert_eq!((values, errors), (1_259_293, 15_583_715));
    }

    /// Values at the edges of each payload width, as `Value`s of every
    /// integer type that holds them.
    fn widths() -> Vec<Value> {
        let mut vs = Vec::new();
        for bytes in 0..=8u32 {
            // The zig-zag words with `bytes` significant bytes, at both ends.
            let (lo, hi) = match bytes {
                0 => (0, 0),
                8 => (1 << 56, u64::MAX),
                n => (1u64 << (8 * (n - 1)), (1u64 << (8 * n)) - 1),
            };
            for w in [lo, hi] {
                let x = unzigzag(w);
                vs.extend([Value::Int64(x), Value::Decimal(x)]);
                if let Ok(x) = i32::try_from(x) {
                    vs.extend([Value::Int32(x), Value::Date(x)]);
                }
            }
        }
        vs
    }

    #[test]
    fn every_width_has_one_encoding() {
        let mut vs = corpus();
        vs.extend(widths());
        for n in [0, 127, 128, 16_383, 16_384] {
            vs.push(Value::str("s".repeat(n)));
        }
        for v in &vs {
            let bytes = encoded(v);
            assert_eq!(bytes.len(), ValueRef::from(v).encoded_len(), "{v:?}");
            let mut rest = &bytes[..];
            let back = take_value(&mut rest).unwrap();
            assert!(rest.is_empty() && back == v.into(), "{v:?}");
            assert_eq!(back.data_type(), v.data_type(), "{v:?}");
            // The header names the type whatever the width, and a
            // decimal's its scale.
            let tag = match v {
                Value::Decimal(raw) => decimal_tag(*raw),
                v => v.tag(),
            };
            assert_eq!(bytes[0] >> 4, tag, "{v:?}");
        }
        assert_eq!(encoded(&Value::Int32(0)), [0x00]);
        assert_eq!(encoded(&Value::Int64(-1)), [0x11, 1]);
        assert_eq!(
            encoded(&Value::Int32(i32::MIN)),
            [0x04, 0xff, 0xff, 0xff, 0xff]
        );
        assert_eq!(
            encoded(&Value::Int64(i64::MAX)),
            [0x18, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff]
        );
        assert_eq!(
            encoded(&Value::str("s".repeat(128)))[..3],
            [0x50, 0x80, 0x01]
        );
    }

    /// A buffer with room for a value's own bytes takes it without growing
    /// (a log segment is sized to the rows it holds): an integer's eight
    /// bytes are not written first and cut after.
    #[test]
    fn a_value_fits_a_buffer_with_room_for_its_bytes() {
        for v in [
            Value::Int32(1),
            Value::Date(i32::MIN),
            Value::Int64(300),
            Value::Decimal(-7),
            Value::Int64(i64::MAX),
        ] {
            let len = ValueRef::from(&v).encoded_len();
            let mut buf = Vec::with_capacity(len);
            put_value(&mut buf, (&v).into());
            assert_eq!((buf.len(), buf.capacity()), (len, len), "{v:?}");
            assert_eq!(decode(&buf), [v]);
        }
    }

    #[test]
    fn varint_round_trips() {
        for n in [
            0,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            1 << 21,
            u64::MAX >> 1,
            u64::MAX,
        ] {
            let mut b = Vec::new();
            put_varint(&mut b, n);
            assert_eq!(b.len(), varint_len(n), "{n}");
            b.push(0xee);
            let mut rest = &b[..];
            assert_eq!(take_varint(&mut rest), Ok(n), "{n}");
            assert_eq!(rest, [0xee], "{n}");
        }
    }

    #[test]
    fn no_value_encodes_wider_than_before() {
        // The encoding before values took their significant width: a tag
        // byte, then 4 or 8 payload bytes, or a `u32` length and the bytes.
        let before = |v: &Value| match v {
            Value::Str(s) => 5 + s.len(),
            scalar => 1 + scalar.byte_width(),
        };
        let mut vs = corpus();
        vs.extend(widths());
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..20_000 {
            // SplitMix64: a random word, shifted to a random width.
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let x = (z ^ (z >> 31)) as i64 >> (z % 64);
            vs.extend([Value::Int64(x), Value::Decimal(x), Value::Int32(x as i32)]);
            vs.extend([Value::Date(x as i32), Value::Float64(f64::from_bits(z))]);
            vs.push(Value::str("é".repeat((z % 100) as usize)));
        }
        for v in &vs {
            let bytes = encoded(v);
            assert!(bytes.len() <= before(v), "{v:?}: {bytes:?}");
            assert_eq!(decode(&bytes), std::slice::from_ref(v), "{v:?}");
        }
    }
}
