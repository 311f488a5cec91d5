//! Integer stream encodings: run-length, bit-packing, frame-of-reference +
//! delta, numeric dictionary, raw.
//!
//! Every column is normalized to an `i64` stream before encoding (strings go
//! through a dictionary first, see [`crate::segment`]). The encoder picks
//! the smallest of five physical representations, mirroring the "most
//! notable" techniques the paper lists for SQL Server — run-length and
//! dictionary encoding with bit-packing of the value domain — plus the
//! frame-of-reference + delta scheme of *Compression Aware Physical
//! Database Design* for sorted/clustered wide-range columns.
//!
//! Sizes are *measured*, not modelled: `encode_i64s` computes the exact
//! byte count each candidate would produce (without building the losers)
//! and keeps the smallest. The same sizes, taken from one pass over a
//! stream that is never materialized (`Shape::of_iter`), pick the row
//! order of a row group ([`crate::RowGroup::build`]).
//! `HPD_FORCE_ENCODING=rle|bitpacked|fordelta|dict|raw` overrides the
//! choice when the requested encoding is feasible (used by the
//! differential harness to exercise every kernel).

use std::sync::{Arc, OnceLock};

/// Which physical encoding a segment chose (exposed for tests/ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntEncoding {
    Rle,
    BitPacked,
    /// Frame-of-reference + delta over 64-value frames.
    ForDelta,
    /// Order-preserving dictionary over numeric values.
    Dict,
    Raw,
}

impl IntEncoding {
    pub fn name(self) -> &'static str {
        match self {
            IntEncoding::Rle => "rle",
            IntEncoding::BitPacked => "bitpacked",
            IntEncoding::ForDelta => "fordelta",
            IntEncoding::Dict => "dict",
            IntEncoding::Raw => "raw",
        }
    }
}

/// Values per FOR/delta frame. Matches the 64-bit words of
/// `hpd_common::SelBitmap`, so the interval kernel processes one selection
/// word per frame.
pub const FOR_DELTA_FRAME: usize = 64;

/// Heap bytes per RLE run: `size_of::<(i64, u32)>()` is 16 (the pair is
/// padded to 8-byte alignment), *not* the 12 bytes of useful payload.
pub const RLE_RUN_BYTES: usize = 16;

/// An encoded `i64` stream.
#[derive(Debug, Clone)]
pub enum EncodedInts {
    /// Maximal runs of identical values: `(value, run_length)`.
    Rle(Vec<(i64, u32)>),
    /// Offset-from-min values packed at a fixed bit width.
    BitPacked {
        base: i64,
        bit_width: u8,
        len: usize,
        /// Shared by a cloned segment, not copied.
        data: Arc<[u8]>,
    },
    /// Frame-of-reference + delta: the stream is cut into
    /// [`FOR_DELTA_FRAME`]-value frames; each frame stores its first value
    /// in `anchors`, and every later value as a packed code
    /// `delta - min_delta` where `delta` is the difference from the
    /// previous value. Wins on sorted/clustered data whose *steps* are
    /// small even when the *range* is too wide to bit-pack.
    ForDelta {
        len: usize,
        /// First value of each frame (`anchors[f]` = value at `f * 64`).
        anchors: Vec<i64>,
        /// Frame of reference for the deltas (global minimum delta).
        min_delta: i64,
        /// Bits per packed delta code (≤ 56).
        bit_width: u8,
        /// Packed codes, `FOR_DELTA_FRAME - 1` slots per frame.
        data: Arc<[u8]>,
    },
    /// Order-preserving numeric dictionary: sorted distinct values plus a
    /// per-row code stream (itself encoded). Wins on low-cardinality
    /// columns whose values are too wide to bit-pack (e.g. dictionary
    /// float bit patterns, sparse wide integers).
    Dict {
        /// Sorted distinct values; codes are indexes into this.
        values: Vec<i64>,
        /// Per-row codes, encoded with one of the base encodings.
        codes: Box<EncodedInts>,
    },
    /// Uncompressed little-endian values.
    Raw(Vec<i64>),
}

impl EncodedInts {
    pub fn encoding(&self) -> IntEncoding {
        match self {
            EncodedInts::Rle(_) => IntEncoding::Rle,
            EncodedInts::BitPacked { .. } => IntEncoding::BitPacked,
            EncodedInts::ForDelta { .. } => IntEncoding::ForDelta,
            EncodedInts::Dict { .. } => IntEncoding::Dict,
            EncodedInts::Raw(_) => IntEncoding::Raw,
        }
    }

    /// Number of logical values.
    pub fn len(&self) -> usize {
        match self {
            EncodedInts::Rle(runs) => runs.iter().map(|(_, n)| *n as usize).sum(),
            EncodedInts::BitPacked { len, .. } => *len,
            EncodedInts::ForDelta { len, .. } => *len,
            EncodedInts::Dict { codes, .. } => codes.len(),
            EncodedInts::Raw(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encoded size in bytes (the number the size-estimation problem of
    /// paper §4.4 is trying to predict). Tracks real heap usage: RLE runs
    /// cost [`RLE_RUN_BYTES`] each (the pair is padded to 16 bytes), packed
    /// buffers count their actual allocation (including the 8-byte
    /// read-overrun pad), and fixed headers approximate the inline enum
    /// fields.
    pub fn encoded_bytes(&self) -> usize {
        match self {
            EncodedInts::Rle(runs) => runs.len() * RLE_RUN_BYTES,
            EncodedInts::BitPacked { data, .. } => data.len() + 9,
            EncodedInts::ForDelta { anchors, data, .. } => anchors.len() * 8 + data.len() + 17,
            EncodedInts::Dict { values, codes } => values.len() * 8 + codes.encoded_bytes() + 16,
            EncodedInts::Raw(v) => v.len() * 8,
        }
    }

    /// Number of maximal runs (RLE) — used to validate the advisor's
    /// run-count models.
    pub fn run_count(&self) -> usize {
        match self {
            EncodedInts::Rle(runs) => runs.len(),
            _ => Shape::of(&self.decode()).runs,
        }
    }

    /// Decode back to the plain stream.
    pub fn decode(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.len());
        match self {
            EncodedInts::Rle(runs) => {
                for &(v, c) in runs {
                    out.extend(std::iter::repeat_n(v, c as usize));
                }
            }
            EncodedInts::Raw(v) => out.extend_from_slice(v),
            packed => packed.for_each(|v| out.push(v)),
        }
        out
    }

    /// Decode with a callback per value, in place: nothing is materialized
    /// for aggregate-only consumers.
    pub fn for_each(&self, mut f: impl FnMut(i64)) {
        match self {
            // Code streams are base-encoded: never a dictionary themselves.
            EncodedInts::Dict { values, codes } => {
                codes.for_each_base(&mut |c| f(values[c as usize]))
            }
            base => base.for_each_base(&mut f),
        }
    }

    /// [`EncodedInts::for_each`] for every encoding but `Dict`.
    fn for_each_base(&self, f: &mut impl FnMut(i64)) {
        match self {
            EncodedInts::Rle(runs) => {
                for &(v, c) in runs {
                    for _ in 0..c {
                        f(v);
                    }
                }
            }
            EncodedInts::BitPacked {
                base,
                bit_width,
                len,
                data,
            } => {
                let bw = *bit_width as usize;
                let mask = (1u64 << bw) - 1;
                for i in 0..*len {
                    f(base.wrapping_add(read_packed(data, i, bw, mask) as i64));
                }
            }
            EncodedInts::ForDelta {
                len,
                anchors,
                min_delta,
                bit_width,
                data,
            } => {
                let bw = *bit_width as usize;
                let mask = (1u64 << bw) - 1;
                for (frame, &anchor) in anchors.iter().enumerate() {
                    let mut v = anchor;
                    f(v);
                    let slot = frame * (FOR_DELTA_FRAME - 1);
                    let codes = (len - frame * FOR_DELTA_FRAME).min(FOR_DELTA_FRAME) - 1;
                    for j in slot..slot + codes {
                        let code = read_packed(data, j, bw, mask);
                        v = v.wrapping_add(*min_delta).wrapping_add(code as i64);
                        f(v);
                    }
                }
            }
            EncodedInts::Dict { .. } => unreachable!("a dictionary's codes are base-encoded"),
            EncodedInts::Raw(v) => v.iter().copied().for_each(f),
        }
    }
}

/// Read packed code `idx` of width `bw` bits (≤ 56) from a buffer with at
/// least 8 readable bytes past the last code's first byte.
pub(crate) fn read_packed(data: &[u8], idx: usize, bw: usize, mask: u64) -> u64 {
    let bit = idx * bw;
    let byte = bit / 8;
    let shift = bit % 8;
    let mut word = 0u64;
    for (j, b) in data[byte..(byte + 8).min(data.len())].iter().enumerate() {
        word |= (*b as u64) << (8 * j);
    }
    (word >> shift) & mask
}

/// A zeroed buffer of `slots` codes of `bw` bits (≤ 56), the first of them
/// `codes`: written back to back, little-endian, through an accumulator
/// flushed eight bytes at a time.
fn pack(slots: usize, bw: usize, codes: impl Iterator<Item = u64>) -> Arc<[u8]> {
    let mut data = vec![0u8; packed_buf_bytes(slots, bw)];
    let (mut at, mut acc, mut bits) = (0, 0u128, 0);
    for code in codes {
        acc |= u128::from(code) << bits;
        bits += bw;
        if bits >= 64 {
            data[at..at + 8].copy_from_slice(&(acc as u64).to_le_bytes());
            (at, acc, bits) = (at + 8, acc >> 64, bits - 64);
        }
    }
    let tail = bits.div_ceil(8);
    data[at..at + tail].copy_from_slice(&(acc as u64).to_le_bytes()[..tail]);
    data.into()
}

/// Bit width needed for codes spanning `range` (0 → 0 bits).
pub(crate) fn bits_for(range: u128) -> usize {
    (128 - range.leading_zeros()) as usize
}

/// Byte size of a packed buffer of `slots` codes at `bw` bits, including
/// the 8-byte read-overrun pad.
fn packed_buf_bytes(slots: usize, bw: usize) -> usize {
    (slots * bw).div_ceil(8) + 8
}

/// What one pass over a stream learns: with the stream's distinct count,
/// enough to size every encoding without building any.
pub(crate) struct Shape {
    len: usize,
    runs: usize,
    min: i64,
    max: i64,
    /// Smallest and largest step between neighbours of one FOR/delta frame
    /// (`MAX`, `MIN` when no frame has two values).
    min_delta: i128,
    max_delta: i128,
}

impl Shape {
    fn of(values: &[i64]) -> Shape {
        let (min, max) =
            (values.iter()).fold((i64::MAX, i64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        Shape::of_iter(values.iter().copied(), min, max)
    }

    /// [`Shape::of`] the stream `values` yields, which is never held whole,
    /// its smallest and largest values `min` and `max` known: one pass
    /// counts its runs and its steps within a frame.
    pub(crate) fn of_iter(mut values: impl Iterator<Item = i64>, min: i64, max: i64) -> Shape {
        let Some(first) = values.next() else {
            return Shape {
                len: 0,
                runs: 0,
                min: 0,
                max: 0,
                min_delta: i128::MAX,
                max_delta: i128::MIN,
            };
        };
        // No step is wider than the range: in `i64` where that fits.
        let (len, runs, steps) = match max.checked_sub(min) {
            Some(_) => walk(first, values, |prev, v| v - prev),
            None => walk(first, values, |prev, v| i128::from(v) - i128::from(prev)),
        };
        let (min_delta, max_delta) = steps.unwrap_or((i128::MAX, i128::MIN));
        Shape {
            len,
            runs,
            min,
            max,
            min_delta,
            max_delta,
        }
    }

    /// The encoding [`encode_i64s`] gives a stream of this shape and
    /// `distinct` values, and its bytes: the forced one
    /// (`HPD_FORCE_ENCODING`) where it holds the stream, else the smallest,
    /// ties broken in the order RLE, bit-packed, FOR/delta, dict, raw.
    pub(crate) fn choice(&self, distinct: usize) -> (usize, IntEncoding) {
        let sizes = [
            (self.rle_bytes(), IntEncoding::Rle),
            (self.packed_bytes(), IntEncoding::BitPacked),
            (self.for_delta_bytes(), IntEncoding::ForDelta),
            (self.dict_bytes(distinct), IntEncoding::Dict),
            (self.len * 8, IntEncoding::Raw),
        ];
        let forced = forced_encoding().and_then(|enc| {
            sizes
                .into_iter()
                .find(|&(bytes, e)| e == enc && bytes != usize::MAX)
        });
        // Dictionaries only pay off at low cardinality.
        let dict_pays = distinct <= (self.len / 4).max(8);
        // `min_by_key` keeps the first of equal sizes: the tie order above.
        forced.unwrap_or_else(|| {
            (sizes.into_iter())
                .filter(|&(_, e)| e != IntEncoding::Dict || dict_pays)
                .min_by_key(|&(bytes, _)| bytes)
                .expect("raw always fits")
        })
    }

    /// `(base, bit_width)` of the bit-packed form, or `None` when the value
    /// domain is too wide (the decode fast path reads at most 8 bytes).
    fn packed_plan(&self) -> Option<(i64, usize)> {
        let bit_width = bits_for((i128::from(self.max) - i128::from(self.min)) as u128);
        (bit_width <= 56).then_some((self.min, bit_width))
    }

    /// `(min_delta, bit_width)` of the FOR/delta form, or `None` when the
    /// delta domain is too wide to pack.
    fn for_delta_plan(&self) -> Option<(i64, usize)> {
        let (min_d, max_d) = if self.min_delta > self.max_delta {
            (0, 0) // a single value per frame: no deltas
        } else {
            (self.min_delta, self.max_delta)
        };
        let bit_width = bits_for((max_d - min_d) as u128);
        if bit_width > 56 {
            return None;
        }
        Some((i64::try_from(min_d).ok()?, bit_width))
    }

    fn rle_bytes(&self) -> usize {
        self.runs * RLE_RUN_BYTES
    }

    fn packed_bytes(&self) -> usize {
        self.packed_plan()
            .map_or(usize::MAX, |(_, bw)| packed_buf_bytes(self.len, bw) + 9)
    }

    fn for_delta_bytes(&self) -> usize {
        let n_frames = self.len.div_ceil(FOR_DELTA_FRAME);
        self.for_delta_plan().map_or(usize::MAX, |(_, bw)| {
            n_frames * 8 + packed_buf_bytes(n_frames * (FOR_DELTA_FRAME - 1), bw) + 17
        })
    }

    /// Exact size of a dictionary over `distinct` values: the codes
    /// RLE-compress exactly like the values (the mapping is bijective, so
    /// run boundaries coincide).
    fn dict_bytes(&self, distinct: usize) -> usize {
        let code_bw = bits_for((distinct - 1) as u128);
        let codes_bytes = self
            .rle_bytes()
            .min(packed_buf_bytes(self.len, code_bw) + 9)
            .min(self.len * 8);
        distinct * 8 + codes_bytes + 16
    }
}

/// Length and runs of the stream `first`, `rest`, and its smallest and
/// largest step between neighbours of one FOR/delta frame (`None` when no
/// frame has two values), each measured by `step`.
fn walk<T: Ord + Copy + Into<i128>>(
    first: i64,
    rest: impl Iterator<Item = i64>,
    step: impl Fn(i64, i64) -> T,
) -> (usize, usize, Option<(i128, i128)>) {
    let (mut len, mut runs, mut prev) = (1, 1, first);
    let mut steps: Option<(T, T)> = None;
    for v in rest {
        runs += usize::from(prev != v);
        // `v` is at position `len`: a frame's first value has no step.
        if len % FOR_DELTA_FRAME != 0 {
            let d = step(prev, v);
            steps = Some(steps.map_or((d, d), |(lo, hi)| (lo.min(d), hi.max(d))));
        }
        len += 1;
        prev = v;
    }
    (len, runs, steps.map(|(lo, hi)| (lo.into(), hi.into())))
}

fn rle_encode(values: &[i64], shape: &Shape) -> EncodedInts {
    let mut runs: Vec<(i64, u32)> = Vec::with_capacity(shape.runs);
    for &v in values {
        match runs.last_mut() {
            Some((rv, c)) if *rv == v && *c < u32::MAX => *c += 1,
            _ => runs.push((v, 1)),
        }
    }
    EncodedInts::Rle(runs)
}

fn bitpack(values: &[i64], shape: &Shape) -> Option<EncodedInts> {
    let (min, bit_width) = shape.packed_plan()?;
    let codes = values.iter().map(|v| v.wrapping_sub(min) as u64);
    Some(EncodedInts::BitPacked {
        base: min,
        bit_width: bit_width as u8,
        len: values.len(),
        data: pack(values.len(), bit_width, codes),
    })
}

fn for_delta(values: &[i64], shape: &Shape) -> Option<EncodedInts> {
    let (min_delta, bit_width) = shape.for_delta_plan()?;
    let frames = values.chunks(FOR_DELTA_FRAME);
    let slots = frames.len() * (FOR_DELTA_FRAME - 1);
    // Full frames fill their slots, so the codes are written back to back;
    // only the last frame can leave slots (zero) behind it.
    let codes = frames.clone().flat_map(|frame| {
        (frame.windows(2)).map(|w| w[1].wrapping_sub(w[0]).wrapping_sub(min_delta) as u64)
    });
    Some(EncodedInts::ForDelta {
        len: values.len(),
        anchors: frames.clone().map(|frame| frame[0]).collect(),
        min_delta,
        bit_width: bit_width as u8,
        data: pack(slots, bit_width, codes),
    })
}

/// The order-preserving dictionary form: sorted distinct values and the
/// base-encoded stream of their positions.
fn dict_numeric(values: &[i64]) -> EncodedInts {
    let mut dict = values.to_vec();
    dict.sort_unstable();
    dict.dedup();
    dict.shrink_to_fit();
    let codes: Vec<i64> = values
        .iter()
        .map(|v| dict.partition_point(|d| d < v) as i64)
        .collect();
    // The smallest of the three base encodings: no FOR/delta or dictionary
    // under a dictionary.
    let shape = Shape::of(&codes);
    let (rle, packed, raw) = (shape.rle_bytes(), shape.packed_bytes(), codes.len() * 8);
    let codes = if rle <= packed && rle <= raw {
        rle_encode(&codes, &shape)
    } else if packed <= raw {
        bitpack(&codes, &shape).expect("packed_bytes finite implies Some")
    } else {
        EncodedInts::Raw(codes)
    };
    EncodedInts::Dict {
        values: dict,
        codes: Box::new(codes),
    }
}

/// `HPD_FORCE_ENCODING` override, parsed once.
fn forced_encoding() -> Option<IntEncoding> {
    static FORCED: OnceLock<Option<IntEncoding>> = OnceLock::new();
    *FORCED.get_or_init(
        || match std::env::var("HPD_FORCE_ENCODING").ok()?.as_str() {
            "rle" => Some(IntEncoding::Rle),
            "bitpacked" => Some(IntEncoding::BitPacked),
            "fordelta" => Some(IntEncoding::ForDelta),
            "dict" => Some(IntEncoding::Dict),
            "raw" => Some(IntEncoding::Raw),
            _ => None,
        },
    )
}

/// Encode a stream as `enc`, or `None` where that encoding cannot hold it:
/// what `HPD_FORCE_ENCODING` asks for.
pub fn encode_as(values: &[i64], enc: IntEncoding) -> Option<EncodedInts> {
    encode_shaped(values, &Shape::of(values), enc)
}

fn encode_shaped(values: &[i64], shape: &Shape, enc: IntEncoding) -> Option<EncodedInts> {
    match enc {
        IntEncoding::Rle => Some(rle_encode(values, shape)),
        IntEncoding::BitPacked => bitpack(values, shape),
        IntEncoding::ForDelta => for_delta(values, shape),
        IntEncoding::Dict => Some(dict_numeric(values)),
        IntEncoding::Raw => Some(EncodedInts::Raw(values.to_vec())),
    }
}

/// Minimum, maximum and number of distinct values of a stream (zeros for an
/// empty one).
#[derive(Default)]
pub(crate) struct Domain {
    pub(crate) min: i64,
    pub(crate) max: i64,
    pub(crate) distinct: usize,
}

impl Domain {
    /// `scratch` is working space: a bit per point of the range where that
    /// takes no more words than the stream has values, else a sorted copy.
    pub(crate) fn of(values: &[i64], scratch: &mut Vec<i64>) -> Domain {
        Domain::of_iter(values.iter().copied(), scratch)
    }

    /// [`Domain::of`] the stream `values` yields (read twice).
    pub(crate) fn of_iter(
        values: impl Iterator<Item = i64> + Clone,
        scratch: &mut Vec<i64>,
    ) -> Domain {
        let mut first = values.clone();
        let Some(v0) = first.next() else {
            return Domain::default();
        };
        let (mut min, mut max, mut len) = (v0, v0, 1u64);
        for v in first {
            (min, max, len) = (min.min(v), max.max(v), len + 1);
        }
        let range = max.wrapping_sub(min) as u64;
        scratch.clear();
        let distinct = if range / 64 < len {
            scratch.resize((range / 64 + 1) as usize, 0);
            for v in values {
                let at = v.wrapping_sub(min) as u64;
                scratch[(at / 64) as usize] |= 1 << (at % 64);
            }
            scratch.iter().map(|word| word.count_ones() as usize).sum()
        } else {
            scratch.extend(values);
            scratch.sort_unstable();
            1 + scratch.windows(2).filter(|w| w[0] != w[1]).count()
        };
        Domain { min, max, distinct }
    }
}

/// Encode a stream, choosing the representation with the smallest measured
/// size. Ties break toward the simpler/faster encoding in the order RLE,
/// bit-packed, FOR/delta, dict, raw.
pub fn encode_i64s(values: &[i64]) -> EncodedInts {
    if values.is_empty() {
        return EncodedInts::Raw(Vec::new());
    }
    let distinct = Domain::of(values, &mut Vec::new()).distinct;
    encode_chosen(values, &Shape::of(values), distinct)
}

/// [`encode_i64s`] of a non-empty stream whose [`Shape`] and distinct count
/// the caller has: only the encoding [`Shape::choice`] picks is built.
pub(crate) fn encode_chosen(values: &[i64], shape: &Shape, distinct: usize) -> EncodedInts {
    let (_, best) = shape.choice(distinct);
    encode_shaped(values, shape, best).expect("a finite size is a feasible encoding")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rle_wins_on_constant_data() {
        let vals = vec![7i64; 10_000];
        let e = encode_i64s(&vals);
        assert_eq!(e.encoding(), IntEncoding::Rle);
        assert_eq!(e.run_count(), 1);
        assert!(e.encoded_bytes() < 100);
        assert_eq!(e.decode(), vals);
    }

    #[test]
    fn bitpack_wins_on_small_domain_random_data() {
        // Alternating 0..16: RLE has ~n runs, bit-pack needs 4 bits/value.
        let vals: Vec<i64> = (0..10_000).map(|i| (i * 7) % 16).collect();
        let e = encode_i64s(&vals);
        assert_eq!(e.encoding(), IntEncoding::BitPacked);
        assert!(e.encoded_bytes() < vals.len()); // < 1 byte per value
        assert_eq!(e.decode(), vals);
    }

    #[test]
    fn raw_wins_on_wide_random_data() {
        // Values spanning more than 56 bits cannot bit-pack; unique values
        // make RLE bigger than raw; huge irregular steps defeat FOR/delta;
        // 100 distinct in 100 values defeats the dictionary cap.
        let vals: Vec<i64> = (0..100i64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as i64))
            .collect();
        let e = encode_i64s(&vals);
        assert_eq!(e.encoding(), IntEncoding::Raw);
        assert_eq!(e.decode(), vals);
    }

    #[test]
    fn fordelta_wins_on_sorted_wide_range_small_steps() {
        // Monotone over a >56-bit range (no bit-pack), unique (no RLE),
        // high cardinality (no dict), but steps fit a few bits.
        let mut v = i64::MIN / 2;
        let vals: Vec<i64> = (0..10_000i64)
            .map(|i| {
                v += 3 + (i % 5);
                v.wrapping_add(i64::MAX / 3)
            })
            .collect();
        let e = encode_i64s(&vals);
        assert_eq!(e.encoding(), IntEncoding::ForDelta);
        assert!(e.encoded_bytes() < vals.len() * 2, "{}", e.encoded_bytes());
        assert_eq!(e.decode(), vals);
    }

    #[test]
    fn dict_wins_on_low_cardinality_wide_values() {
        // 16 distinct values spread over >56 bits, adversarial order (no
        // RLE, no bit-pack, irregular deltas).
        let wide: Vec<i64> = (0..16)
            .map(|i| (i as i64).wrapping_mul(1_152_921_504_606_846_977))
            .collect();
        let vals: Vec<i64> = (0..10_000)
            .map(|i| wide[((i * 2_654_435_761u64) % 16) as usize])
            .collect();
        let e = encode_i64s(&vals);
        assert_eq!(e.encoding(), IntEncoding::Dict);
        assert!(e.encoded_bytes() < vals.len() * 2);
        assert_eq!(e.decode(), vals);
    }

    #[test]
    fn dict_codes_are_order_preserving() {
        let vals = vec![30i64 << 40, 10 << 40, 20 << 40, 10 << 40, 30 << 40];
        let e = encode_as(&vals, IntEncoding::Dict).unwrap();
        if let EncodedInts::Dict { values, codes } = &e {
            assert_eq!(values.as_slice(), &[10i64 << 40, 20 << 40, 30 << 40]);
            assert_eq!(codes.decode(), vec![2, 0, 1, 0, 2]);
        } else {
            panic!("expected dict");
        }
        assert_eq!(e.decode(), vals);
    }

    #[test]
    fn fordelta_round_trips_unsorted_and_negative() {
        // FOR/delta is valid (if not optimal) on any stream whose deltas
        // fit; verify correctness on oscillating negatives.
        let vals: Vec<i64> = (0..1_000).map(|i| -(i % 97) * 13 + (i % 7)).collect();
        let e = encode_as(&vals, IntEncoding::ForDelta).unwrap();
        assert_eq!(e.encoding(), IntEncoding::ForDelta);
        assert_eq!(e.decode(), vals);
        assert_eq!(e.len(), vals.len());
    }

    #[test]
    fn fordelta_infeasible_on_extreme_deltas() {
        // A delta of (MAX - MIN) needs 65 bits.
        let vals = vec![i64::MIN, i64::MAX, i64::MIN];
        assert!(encode_as(&vals, IntEncoding::ForDelta).is_none());
        // encode_i64s still works via another encoding.
        assert_eq!(encode_i64s(&vals).decode(), vals);
    }

    #[test]
    fn negative_values_round_trip_through_bitpack() {
        let vals: Vec<i64> = (-500..500).map(|i| i * 3).collect();
        let e = encode_i64s(&vals);
        assert_eq!(e.decode(), vals);
    }

    #[test]
    fn zero_bit_width_constant_via_bitpack_path() {
        // Force the bitpack branch by making RLE unattractive is impossible
        // for constants, so test bitpack(0 bit) directly.
        let vals = vec![42i64; 17];
        let packed = encode_as(&vals, IntEncoding::BitPacked).unwrap();
        if let EncodedInts::BitPacked { bit_width, .. } = &packed {
            assert_eq!(*bit_width, 0);
        } else {
            panic!("expected bitpacked");
        }
        assert_eq!(packed.decode(), vals);
    }

    #[test]
    fn for_each_visits_all_values_in_order() {
        let vals = vec![1i64, 1, 2, 2, 2, 3];
        let e = encode_as(&vals, IntEncoding::Rle).unwrap();
        let mut seen = Vec::new();
        e.for_each(|v| seen.push(v));
        assert_eq!(seen, vals);
    }

    #[test]
    fn run_count_matches_definition() {
        let vals = vec![5i64, 5, 1, 1, 1, 5];
        assert_eq!(Shape::of(&vals).runs, 3);
        let e = encode_i64s(&vals);
        assert_eq!(e.run_count(), 3);
    }

    #[test]
    fn empty_stream() {
        let e = encode_i64s(&[]);
        assert!(e.is_empty());
        assert_eq!(e.decode(), Vec::<i64>::new());
        assert_eq!(e.run_count(), 0);
    }

    #[test]
    fn len_is_preserved_by_all_encodings() {
        for vals in [
            vec![1i64; 100],
            (0..100).collect::<Vec<i64>>(),
            (0..100).map(|i| i * i64::from(i32::MAX)).collect(),
            (0..100).map(|i| (i % 3) << 58).collect(),
        ] {
            for enc in [
                IntEncoding::Rle,
                IntEncoding::BitPacked,
                IntEncoding::ForDelta,
                IntEncoding::Dict,
                IntEncoding::Raw,
            ] {
                if let Some(e) = encode_as(&vals, enc) {
                    assert_eq!(e.len(), vals.len(), "{enc:?}");
                    assert_eq!(e.decode(), vals, "{enc:?}");
                }
            }
        }
    }

    /// Real heap bytes behind an encoding, from capacities and buffer
    /// lengths — the audit oracle for `encoded_bytes`.
    fn heap_bytes(e: &EncodedInts) -> usize {
        match e {
            EncodedInts::Rle(runs) => runs.capacity() * std::mem::size_of::<(i64, u32)>(),
            EncodedInts::BitPacked { data, .. } => data.len(),
            EncodedInts::ForDelta { anchors, data, .. } => anchors.capacity() * 8 + data.len(),
            EncodedInts::Dict { values, codes } => values.capacity() * 8 + heap_bytes(codes),
            EncodedInts::Raw(v) => v.capacity() * 8,
        }
    }

    #[test]
    fn encoded_bytes_tracks_real_heap_usage() {
        let shapes: Vec<Vec<i64>> = vec![
            vec![7; 4096],
            (0..4096).map(|i| (i * 7) % 16).collect(),
            (0..4096)
                .map(|i| i * 3 + (i % 5) + (i64::MAX / 3))
                .collect(),
            (0..4096)
                .map(|i| ((i * 2_654_435_761i64) % 16) << 58)
                .collect(),
            (0..257)
                .map(|i| (i64::MIN / 2).wrapping_add(i * 1_000_000_007 * 1_000_003))
                .collect(),
        ];
        for vals in &shapes {
            let e = encode_i64s(vals);
            let (enc, heap) = (e.encoded_bytes(), heap_bytes(&e));
            // encoded_bytes must cover the heap and not exceed it by more
            // than the small fixed headers (the pre-PR RLE estimate of
            // 12 B/run *undercounted* by 25%).
            assert!(
                enc + 64 >= heap,
                "{:?}: encoded {enc} < heap {heap}",
                e.encoding()
            );
            assert!(
                enc <= heap + 64,
                "{:?}: encoded {enc} overshoots heap {heap}",
                e.encoding()
            );
        }
    }

    #[test]
    fn measured_sizes_match_built_sizes() {
        // The analytic candidate sizes used for selection must equal the
        // built encodings' `encoded_bytes` exactly.
        let shapes: Vec<Vec<i64>> = vec![
            (0..4096).map(|i| i / 64).collect(),
            (0..4096).map(|i| (i * 31) % 100).collect(),
            (0..4096).map(|i| i * 5 + (i % 3)).collect(),
        ];
        for vals in &shapes {
            let shape = Shape::of(vals);
            let built = |enc| encode_as(vals, enc).map(|e| e.encoded_bytes());
            assert_eq!(Some(shape.rle_bytes()), built(IntEncoding::Rle));
            assert_eq!(Some(shape.packed_bytes()), built(IntEncoding::BitPacked));
            assert_eq!(Some(shape.for_delta_bytes()), built(IntEncoding::ForDelta));
            let distinct = Domain::of(vals, &mut Vec::new()).distinct;
            assert_eq!(Some(shape.dict_bytes(distinct)), built(IntEncoding::Dict));
        }
    }
}
