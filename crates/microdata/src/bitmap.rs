//! Word-packed bit vector used for missing-ness masks and boolean columns.
//!
//! Same layout idea as `tdf-pir`'s `BitVec` (64 bits per `u64` word, little
//! bit-endian within a word), re-implemented here so the storage crate stays
//! dependency-free. The packed form keeps per-column masks at 1 bit per row
//! and lets scans test 64 rows per word.

/// A growable bit vector packed into `u64` words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// A bitmap of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize, bit: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if bit {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when at least one bit is set (one word test per 64 rows).
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// True when no bit is set.
    #[inline]
    pub fn none(&self) -> bool {
        !self.any()
    }

    /// The packed words (trailing bits beyond `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bitmap from packed words (the segment-spill codec's
    /// reload path). Trailing bits beyond `len` are masked to zero so the
    /// invariant `words()` documents survives a round-trip through disk.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "word count mismatch");
        if len % 64 != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        Self { words, len }
    }

    /// Heap bytes held by the packed words.
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Number of bits set in both `self` and `other`: a popcount of the
    /// word-wise AND over the shorter word slice, so bits past the shorter
    /// bitmap's length count as unset. Summing stops once the count
    /// exceeds `stop_above`, and the partial count (still `> stop_above`)
    /// is returned; pass `usize::MAX` for the exact count.
    pub fn and_count_ones(&self, other: &Bitmap, stop_above: usize) -> usize {
        let n = self.words.len().min(other.words.len());
        let mut count = 0usize;
        // Fixed-size chunks keep the inner sum branch-free, and the early
        // exit costs one compare per 8 words.
        for (a, b) in self.words[..n].chunks(8).zip(other.words[..n].chunks(8)) {
            count += a
                .iter()
                .zip(b)
                .map(|(x, y)| (x & y).count_ones() as usize)
                .sum::<usize>();
            if count > stop_above {
                break;
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set_roundtrip() {
        let mut b = Bitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 == 0, "bit {i}");
        }
        b.set(1, true);
        b.set(0, false);
        assert!(b.get(1) && !b.get(0));
    }

    #[test]
    fn word_boundaries_63_64_65() {
        for n in [63usize, 64, 65] {
            let mut b = Bitmap::zeros(n);
            assert_eq!(b.words().len(), n.div_ceil(64));
            assert!(b.none());
            b.set(n - 1, true);
            assert!(b.any());
            assert_eq!(b.count_ones(), 1);
            assert!(b.get(n - 1));
            assert!(!b.get(0) || n == 1);
        }
    }

    /// A bitmap of `len` bits, bit `i` set when `pattern(i)`.
    fn bitmap_of(len: usize, pattern: impl Fn(usize) -> bool) -> Bitmap {
        let mut b = Bitmap::new();
        for i in 0..len {
            b.push(pattern(i));
        }
        b
    }

    fn naive_and_count(a: &Bitmap, b: &Bitmap) -> usize {
        (0..a.len().min(b.len()))
            .filter(|&i| a.get(i) && b.get(i))
            .count()
    }

    #[test]
    fn and_count_ones_matches_a_per_bit_loop() {
        // Every pair of lengths, equal or not; the all-ones pattern fills
        // each bitmap's last word up to its length, so a longer bitmap's
        // set tail must not count against a shorter one.
        let lens = [0usize, 1, 63, 64, 65, 130];
        let patterns: [fn(usize) -> bool; 4] =
            [|_| true, |i| i % 3 == 0, |i| i % 2 == 1, |i| i >= 60];
        for &la in &lens {
            for &lb in &lens {
                for pa in &patterns {
                    for pb in &patterns {
                        let (a, b) = (bitmap_of(la, pa), bitmap_of(lb, pb));
                        let want = naive_and_count(&a, &b);
                        assert_eq!(a.and_count_ones(&b, usize::MAX), want, "{la} & {lb}");
                        assert_eq!(b.and_count_ones(&a, usize::MAX), want, "{lb} & {la}");
                    }
                }
            }
        }
    }

    #[test]
    fn and_count_ones_stops_only_above_the_limit() {
        // 2000 shared bits span 32 words, so the early exit has chunks to skip.
        let (a, b) = (bitmap_of(2000, |_| true), bitmap_of(2000, |_| true));
        for limit in [0usize, 1, 511, 512, 1999, 2000] {
            let got = a.and_count_ones(&b, limit);
            if limit < 2000 {
                assert!(got > limit && got <= 2000, "limit {limit}: {got}");
            } else {
                assert_eq!(got, 2000);
            }
        }
        let sparse = bitmap_of(2000, |i| i % 100 == 0);
        assert_eq!(a.and_count_ones(&sparse, 20), 20, "exact when not above");
    }

    #[test]
    fn trailing_bits_stay_zero() {
        let mut b = Bitmap::new();
        for _ in 0..65 {
            b.push(true);
        }
        assert_eq!(b.count_ones(), 65);
        assert_eq!(b.words()[1], 1);
    }
}
