//! Packed `u64` selection bitmaps.
//!
//! A [`SelBitmap`] records which positions of a row group survive predicate
//! evaluation. Scan kernels AND per-predicate results into one bitmap a word
//! at a time, which is the selection-vector representation batch-mode
//! engines use to skip work proportional to selectivity (MonetDB/X100,
//! SQL Server batch mode). Bits above `len` are always zero, so popcounts
//! and word-wise ANDs need no tail special-casing.

/// A fixed-length bitmap packed into `u64` words. Bit `i` set means
/// position `i` is selected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelBitmap {
    words: Vec<u64>,
    len: usize,
}

impl SelBitmap {
    /// All `len` positions selected.
    pub fn all_set(len: usize) -> SelBitmap {
        let mut bm = SelBitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        bm.mask_tail();
        bm
    }

    /// No positions selected.
    pub fn none_set(len: usize) -> SelBitmap {
        SelBitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Build from packed words where a **set** bit means *excluded* (the
    /// delete-bitmap convention): the result selects exactly the zero bits.
    /// `words` must hold at least `len` bits.
    pub fn from_inverted_words(words: &[u64], len: usize) -> SelBitmap {
        let n = len.div_ceil(64);
        debug_assert!(words.len() >= n);
        let inverted = words[..n].iter().map(|w| !w).collect();
        let mut bm = SelBitmap {
            words: inverted,
            len,
        };
        bm.mask_tail();
        bm
    }

    /// Number of positions the bitmap covers (not the number selected).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words. Bits above `len` are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Number of selected positions.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of selected positions in `[start, end)` — O(words spanned),
    /// used by run-arithmetic aggregate kernels to weigh whole RLE runs.
    pub fn count_range(&self, start: usize, end: usize) -> usize {
        let end = end.min(self.len);
        if start >= end {
            return 0;
        }
        let (fw, fb) = (start / 64, start % 64);
        let (lw, lb) = ((end - 1) / 64, (end - 1) % 64);
        if fw == lw {
            let mask = bits_from(fb) & bits_through(lb);
            return (self.words[fw] & mask).count_ones() as usize;
        }
        let mut n = (self.words[fw] & bits_from(fb)).count_ones() as usize;
        for w in &self.words[fw + 1..lw] {
            n += w.count_ones() as usize;
        }
        n + (self.words[lw] & bits_through(lb)).count_ones() as usize
    }

    /// True when no position is selected.
    pub fn is_none_set(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Clear all bits in `[start, end)`.
    pub fn clear_range(&mut self, start: usize, end: usize) {
        let end = end.min(self.len);
        if start >= end {
            return;
        }
        let (fw, fb) = (start / 64, start % 64);
        let (lw, lb) = ((end - 1) / 64, (end - 1) % 64);
        if fw == lw {
            let mask = bits_from(fb) & bits_through(lb);
            self.words[fw] &= !mask;
            return;
        }
        self.words[fw] &= !bits_from(fb);
        for w in &mut self.words[fw + 1..lw] {
            *w = 0;
        }
        self.words[lw] &= !bits_through(lb);
    }

    /// Index of the first selected position, if any.
    pub fn first_set(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Call `f` for each selected position in ascending order.
    pub fn for_each_set(&self, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                f(wi * 64 + bit);
                w &= w - 1;
            }
        }
    }

    /// Selected positions in ascending order.
    pub fn positions(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count());
        self.for_each_set(|i| out.push(i));
        out
    }

    /// Keep only selected positions where `f` returns true.
    pub fn retain(&mut self, mut f: impl FnMut(usize) -> bool) {
        for wi in 0..self.words.len() {
            let mut w = self.words[wi];
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                if !f(wi * 64 + bit) {
                    self.words[wi] &= !(1u64 << bit);
                }
                w &= w - 1;
            }
        }
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= bits_through(tail - 1);
            }
        }
    }
}

/// Mask with bits `[b, 63]` set.
fn bits_from(b: usize) -> u64 {
    u64::MAX << b
}

/// Mask with bits `[0, b]` set.
fn bits_through(b: usize) -> u64 {
    if b >= 63 {
        u64::MAX
    } else {
        (1u64 << (b + 1)) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_set_masks_tail() {
        let bm = SelBitmap::all_set(70);
        assert_eq!(bm.count(), 70);
        assert_eq!(bm.words()[1], (1u64 << 6) - 1);
    }

    #[test]
    fn set_clear_get() {
        let mut bm = SelBitmap::none_set(100);
        bm.set(0);
        bm.set(64);
        bm.set(99);
        assert!(bm.get(0) && bm.get(64) && bm.get(99) && !bm.get(50));
        bm.clear(64);
        assert!(!bm.get(64));
        assert_eq!(bm.count(), 2);
    }

    #[test]
    fn clear_range_matches_loop() {
        for (start, end) in [(0, 0), (0, 64), (3, 70), (63, 65), (10, 130), (128, 130)] {
            let mut a = SelBitmap::all_set(130);
            a.clear_range(start, end);
            for i in 0..130 {
                assert_eq!(a.get(i), !(i >= start && i < end), "clear {i}");
            }
        }
    }

    #[test]
    fn inverted_words_respect_len() {
        let deleted = vec![0b101u64, u64::MAX];
        let bm = SelBitmap::from_inverted_words(&deleted, 66);
        assert!(!bm.get(0) && bm.get(1) && !bm.get(2) && bm.get(3));
        assert!(!bm.get(64) && !bm.get(65));
        assert_eq!(bm.count(), 62);
    }

    #[test]
    fn count_range_matches_loop() {
        let mut bm = SelBitmap::none_set(200);
        for i in (0..200).step_by(3) {
            bm.set(i);
        }
        for (start, end) in [(0, 0), (0, 200), (5, 64), (63, 65), (10, 130), (150, 400)] {
            let want = (start..end.min(200)).filter(|&i| bm.get(i)).count();
            assert_eq!(bm.count_range(start, end), want, "[{start},{end})");
        }
    }

    #[test]
    fn positions_retain_first_set() {
        let mut bm = SelBitmap::all_set(5);
        bm.clear(1);
        bm.clear(4);
        assert_eq!(bm.positions(), vec![0, 2, 3]);
        assert_eq!(bm.first_set(), Some(0));
        bm.retain(|i| i != 2);
        assert_eq!(bm.positions(), vec![0, 3]);
        bm.clear_range(0, 5);
        assert!(bm.is_none_set());
        assert_eq!(bm.first_set(), None);
    }
}
