//! CRC-framed record stream: `[u32 len][u32 crc][payload]`, little-endian.
//!
//! An LSN is the byte offset of a frame's first length byte within the log
//! stream. [`FrameReader`] walks a byte slice and stops cleanly at the first
//! truncated or corrupt frame — a torn tail is expected after a crash and is
//! simply the un-durable suffix.

/// Frame header size: 4-byte payload length + 4-byte CRC32.
pub const FRAME_HEADER: usize = 8;

/// Reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xedb8_8320;

/// Slice-by-8 tables: `TABLES[0]` is the classic byte-at-a-time table,
/// `TABLES[k][b]` the CRC of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            t[k][b] = (t[k - 1][b] >> 8) ^ t[0][(t[k - 1][b] & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3 polynomial, reflected), eight bytes per step.
///
/// A checkpoint image and a bulk-load record are each one frame of many
/// megabytes, checksummed whole when written and again at recovery; the
/// bit-at-a-time loop (kept as the tests' reference) made that the longest
/// single step of a checkpoint.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_extend(0, bytes)
}

/// The CRC-32 of the bytes whose CRC-32 is `crc` followed by `bytes`:
/// `crc32_extend(crc32(a), b) == crc32(a ++ b)`, so a frame held in
/// segments is checksummed one slice at a time.
pub(crate) fn crc32_extend(crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !crc;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// Where frames are written: a vector, or the log's segmented store.
/// Bytes are appended, and those already written can be overwritten (a
/// header or a count known only once what follows it is) and checksummed.
pub(crate) trait ByteSink {
    /// Bytes written so far.
    fn written(&self) -> usize;
    fn put(&mut self, bytes: &[u8]);
    /// Overwrite the written bytes at `at..at + bytes.len()`.
    fn patch(&mut self, at: usize, bytes: &[u8]);
    /// CRC-32 of the written bytes from `from` on.
    fn crc_from(&self, from: usize) -> u32;
}

impl ByteSink for Vec<u8> {
    fn written(&self) -> usize {
        self.len()
    }

    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn patch(&mut self, at: usize, bytes: &[u8]) {
        self[at..at + bytes.len()].copy_from_slice(bytes);
    }

    fn crc_from(&self, from: usize) -> u32 {
        crc32(&self[from..])
    }
}

/// Append one frame whose payload `write` appends to `buf` in place: the
/// header is reserved first and filled in once the payload's length and CRC
/// are known, so a large payload is never built in a buffer of its own.
pub(crate) fn append_frame_with<S: ByteSink>(buf: &mut S, write: impl FnOnce(&mut S)) {
    let header = buf.written();
    buf.put(&[0; FRAME_HEADER]);
    write(buf);
    seal_frame(buf, header);
}

/// Fill in the header reserved at `header` for the payload that runs from
/// there to the end of `buf`.
pub(crate) fn seal_frame(buf: &mut impl ByteSink, header: usize) {
    let start = header + FRAME_HEADER;
    let len = (buf.written() - start) as u32;
    let crc = buf.crc_from(start);
    buf.patch(header, &len.to_le_bytes());
    buf.patch(header + 4, &crc.to_le_bytes());
}

/// Append one framed record to `buf`.
pub fn append_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    append_frame_with(buf, |buf| buf.extend_from_slice(payload));
}

/// Iterator over the frames of a log byte stream.
///
/// Yields `(lsn, payload)` for every intact frame; stops at the first
/// truncated or CRC-corrupt frame. [`FrameReader::clean_end`] tells whether
/// the stream ended exactly on a frame boundary.
pub struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
    base_lsn: u64,
    corrupt: bool,
}

impl<'a> FrameReader<'a> {
    pub fn new(buf: &'a [u8], base_lsn: u64) -> FrameReader<'a> {
        FrameReader {
            buf,
            pos: 0,
            base_lsn,
            corrupt: false,
        }
    }

    /// LSN one past the last intact frame consumed so far.
    pub fn position(&self) -> u64 {
        self.base_lsn + self.pos as u64
    }

    /// True when iteration ended exactly at the end of the buffer with no
    /// torn or corrupt frame. Only meaningful after the iterator returns
    /// `None`.
    pub fn clean_end(&self) -> bool {
        !self.corrupt && self.pos == self.buf.len()
    }

    /// Bytes remaining after the last intact frame (the lost tail).
    pub fn tail_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }
}

impl<'a> Iterator for FrameReader<'a> {
    type Item = (u64, &'a [u8]);

    fn next(&mut self) -> Option<(u64, &'a [u8])> {
        if self.corrupt || self.pos + FRAME_HEADER > self.buf.len() {
            return None;
        }
        let len = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(self.buf[self.pos + 4..self.pos + 8].try_into().unwrap());
        let start = self.pos + FRAME_HEADER;
        if start + len > self.buf.len() {
            return None; // torn tail
        }
        let payload = &self.buf[start..start + len];
        if crc32(payload) != crc {
            self.corrupt = true;
            return None;
        }
        let lsn = self.base_lsn + self.pos as u64;
        self.pos = start + len;
        Some((lsn, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time routine the table-driven one replaced.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bitwise_reference() {
        // A fixed xorshift stream: every length that exercises the 8-byte
        // loop's remainder, at every alignment of the first byte, then
        // buffers long enough to run the wide loop for most of their bytes.
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        };
        let small: Vec<u8> = (0..64 + 8).map(|_| next()).collect();
        for len in 0..=64 {
            for offset in 0..8 {
                let s = &small[offset..offset + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "len {len} offset {offset}");
            }
        }
        for len in [1 << 20, (3 << 20) + 5, (1 << 21) - 1] {
            let big: Vec<u8> = (0..len).map(|_| next()).collect();
            assert_eq!(crc32(&big), crc32_bitwise(&big), "len {len}");
        }
        // Extended over any split, and over many pieces, it is the CRC of
        // the whole.
        for cut in 0..=small.len() {
            let (a, b) = small.split_at(cut);
            assert_eq!(crc32_extend(crc32(a), b), crc32(&small), "cut {cut}");
        }
        let pieces = small.chunks(7).fold(0, crc32_extend);
        assert_eq!(pieces, crc32_bitwise(&small));
    }

    #[test]
    fn in_place_frame_equals_copied_frame() {
        let mut copied = vec![7u8; 3];
        append_frame(&mut copied, b"payload-bytes");
        let mut in_place = vec![7u8; 3];
        append_frame_with(&mut in_place, |b| {
            b.extend_from_slice(b"payload-");
            b.extend_from_slice(b"bytes");
        });
        assert_eq!(in_place, copied);
    }

    #[test]
    fn frames_round_trip_with_lsns() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"alpha");
        let second = buf.len() as u64;
        append_frame(&mut buf, b"");
        let third = buf.len() as u64;
        append_frame(&mut buf, b"gamma-long-payload");
        let mut r = FrameReader::new(&buf, 0);
        assert_eq!(r.next(), Some((0, &b"alpha"[..])));
        assert_eq!(r.next(), Some((second, &b""[..])));
        assert_eq!(r.next(), Some((third, &b"gamma-long-payload"[..])));
        assert_eq!(r.next(), None);
        assert!(r.clean_end());
        assert_eq!(r.tail_bytes(), 0);
    }

    #[test]
    fn torn_tail_stops_cleanly() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"kept");
        let intact = buf.len();
        append_frame(&mut buf, b"lost-in-the-crash");
        buf.truncate(intact + 5); // tear the second frame mid-payload
        let mut r = FrameReader::new(&buf, 100);
        assert_eq!(r.next(), Some((100, &b"kept"[..])));
        assert_eq!(r.next(), None);
        assert!(!r.clean_end());
        assert_eq!(r.position(), 100 + intact as u64);
        assert_eq!(r.tail_bytes(), 5);
    }

    #[test]
    fn corrupt_crc_stops_iteration() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"good");
        let boundary = buf.len();
        append_frame(&mut buf, b"flipped");
        buf[boundary + FRAME_HEADER] ^= 0x40; // corrupt the payload
        let mut r = FrameReader::new(&buf, 0);
        assert!(r.next().is_some());
        assert_eq!(r.next(), None);
        assert!(!r.clean_end());
    }
}
