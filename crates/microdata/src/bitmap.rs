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
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "word count mismatch");
        let mut bits = Self { words, len };
        bits.clear_tail();
        bits
    }

    /// Zeroes the bits of the last word past `len`.
    fn clear_tail(&mut self) {
        if self.len % 64 != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << (self.len % 64)) - 1;
            }
        }
    }

    /// The positions of the set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors((word != 0).then_some(word), |&x| {
                let rest = x & (x - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |x| w * 64 + x.trailing_zeros() as usize)
        })
    }

    /// Word-wise AND with a bitmap of the same length.
    pub fn and_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.words
            .iter_mut()
            .zip(&other.words)
            .for_each(|(a, b)| *a &= b);
    }

    /// Word-wise OR with a bitmap of the same length.
    pub fn or_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.words
            .iter_mut()
            .zip(&other.words)
            .for_each(|(a, b)| *a |= b);
    }

    /// Clears every bit that is set in `other`, a bitmap of the same length.
    pub fn and_not_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        self.words
            .iter_mut()
            .zip(&other.words)
            .for_each(|(a, b)| *a &= !b);
    }

    /// Complements every bit below `len`; trailing bits stay zero.
    pub fn not_assign(&mut self) {
        self.words.iter_mut().for_each(|w| *w = !*w);
        self.clear_tail();
    }

    /// ORs `part` into `self` with `part`'s bit 0 landing on bit `offset`:
    /// how a segment's selection joins the table-wide one. The part must
    /// fit, `offset + part.len() <= self.len()`, and need not start on a
    /// word boundary.
    pub fn or_at(&mut self, offset: usize, part: &Bitmap) {
        assert!(offset + part.len <= self.len, "part does not fit");
        let (first, shift) = (offset / 64, offset % 64);
        for (k, &w) in part.words.iter().enumerate() {
            self.words[first + k] |= w << shift;
            // The bits shifted past this word, which a part that fits
            // only carries when the next word exists.
            if shift != 0 && w >> (64 - shift) != 0 {
                self.words[first + k + 1] |= w >> (64 - shift);
            }
        }
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
    fn or_at_places_part_words_at_any_bit_offset() {
        let lens = [1usize, 63, 64, 65, 130];
        let patterns: [fn(usize) -> bool; 3] = [|_| true, |i| i % 3 == 0, |i| i % 64 == 63];
        for offset in [0usize, 1, 63, 64, 65] {
            for &len in &lens {
                for pattern in &patterns {
                    let part = bitmap_of(len, pattern);
                    // A table with room before and after the part, and a
                    // bit already set on each side that must survive.
                    let total = offset + len + 70;
                    let mut table = Bitmap::zeros(total);
                    table.set(total - 1, true);
                    if offset > 0 {
                        table.set(offset - 1, true);
                    }
                    table.or_at(offset, &part);
                    let want = bitmap_of(total, |i| {
                        i == total - 1
                            || (offset > 0 && i == offset - 1)
                            || (i >= offset && i < offset + len && pattern(i - offset))
                    });
                    assert_eq!(table, want, "offset {offset} len {len}");
                }
                // A part that ends exactly at the table's last bit.
                let part = bitmap_of(len, |_| true);
                let mut table = Bitmap::zeros(offset + len);
                table.or_at(offset, &part);
                assert_eq!(
                    table,
                    bitmap_of(offset + len, |i| i >= offset),
                    "flush {offset}+{len}"
                );
            }
        }
    }

    #[test]
    fn not_keeps_trailing_bits_zero() {
        for len in [0usize, 1, 63, 64, 65] {
            let mut b = bitmap_of(len, |i| i % 2 == 0);
            b.not_assign();
            assert_eq!(b, bitmap_of(len, |i| i % 2 == 1), "len {len}");
            assert_eq!(b.count_ones(), len / 2, "len {len}");
            if len % 64 != 0 {
                assert_eq!(b.words().last().unwrap() >> (len % 64), 0, "len {len}");
            }
            b.not_assign();
            assert_eq!(b, bitmap_of(len, |i| i % 2 == 0), "len {len}");
        }
    }

    #[test]
    fn word_ops_match_per_bit_logic() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let (a, b) = (
                bitmap_of(len, |i| i % 3 == 0),
                bitmap_of(len, |i| i % 2 == 1),
            );
            let mut and = a.clone();
            and.and_assign(&b);
            assert_eq!(and, bitmap_of(len, |i| i % 3 == 0 && i % 2 == 1));
            let mut or = a.clone();
            or.or_assign(&b);
            assert_eq!(or, bitmap_of(len, |i| i % 3 == 0 || i % 2 == 1));
            let mut and_not = a.clone();
            and_not.and_not_assign(&b);
            assert_eq!(and_not, bitmap_of(len, |i| i % 3 == 0 && i % 2 == 0));
            let ones: Vec<usize> = a.iter_ones().collect();
            assert_eq!(ones, (0..len).filter(|i| i % 3 == 0).collect::<Vec<_>>());
        }
        let top = bitmap_of(130, |i| i == 63 || i == 64 || i == 129);
        assert_eq!(top.iter_ones().collect::<Vec<_>>(), [63, 64, 129]);
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
