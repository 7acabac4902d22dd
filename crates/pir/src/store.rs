//! The database model shared by all PIR schemes, plus the server *view* —
//! everything a (curious) server observes during a retrieval, from which
//! `tdf-core` computes empirical query leakage.

use crate::bits::{words_for, BitVec};
use std::ops::Range;
use std::sync::Arc;

/// A database of `n` fixed-size records stored contiguously.
///
/// Records live back to back in one `Arc<[u8]>` so that cloning the
/// database (the PIR pipelines replicate it once per server) shares a
/// single allocation, and the XOR-folding hot loop walks a flat buffer
/// instead of chasing one pointer per record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Database {
    data: Arc<[u8]>,
    record_size: usize,
    len: usize,
}

impl Database {
    /// Builds a database from equally-sized records.
    pub fn new(records: Vec<Vec<u8>>) -> Self {
        let record_size = records.first().map_or(0, Vec::len);
        assert!(
            records.iter().all(|r| r.len() == record_size),
            "all records must have equal size"
        );
        let len = records.len();
        let mut data = Vec::with_capacity(len * record_size);
        for r in &records {
            data.extend_from_slice(r);
        }
        Self {
            data: data.into(),
            record_size,
            len,
        }
    }

    /// Builds a database of single-bit records from a bit vector.
    pub fn from_bits(bits: &[bool]) -> Self {
        Self::new(bits.iter().map(|&b| vec![u8::from(b)]).collect())
    }

    /// Builds a database by filling `n` records of `record_size` bytes in
    /// place. This is the at-scale constructor: one flat allocation
    /// instead of `n` intermediate `Vec`s, which dominate [`Self::new`]
    /// at n = 10^7.
    pub fn from_fn(n: usize, record_size: usize, mut fill: impl FnMut(usize, &mut [u8])) -> Self {
        let mut data = vec![0u8; n * record_size];
        if record_size > 0 {
            for (i, rec) in data.chunks_exact_mut(record_size).enumerate() {
                fill(i, rec);
            }
        }
        Self {
            data: data.into(),
            record_size,
            len: n,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of each record in bytes.
    pub fn record_size(&self) -> usize {
        self.record_size
    }

    /// Record `i`.
    pub fn record(&self, i: usize) -> &[u8] {
        assert!(i < self.len, "record index out of range");
        &self.data[i * self.record_size..(i + 1) * self.record_size]
    }

    /// XOR of the records selected by the packed `mask` (one bit per
    /// record). Selected records are found 64 at a time via the mask's
    /// set-bit iterator and folded 8 bytes per step into a word-wide
    /// accumulator. Common power-of-two record sizes dispatch to a
    /// monomorphized fold whose accumulator is a fixed-size array the
    /// optimiser keeps in registers across the whole scan.
    pub fn xor_selected(&self, mask: &BitVec) -> Vec<u8> {
        assert_eq!(mask.len(), self.len, "mask arity mismatch");
        // Every path below sweeps the whole packed mask exactly once; the
        // caller tallies that sweep into `pir.words_scanned` (batched per
        // retrieval — this inner scan is too hot for a per-call write).
        let rs = self.record_size;
        let acc = match rs {
            8 => Some(fold_words::<1>(&self.data, mask).to_vec()),
            16 => Some(fold_words::<2>(&self.data, mask).to_vec()),
            32 => Some(fold_words::<4>(&self.data, mask).to_vec()),
            64 => Some(fold_words::<8>(&self.data, mask).to_vec()),
            _ => None,
        };
        if let Some(acc) = acc {
            let mut out = Vec::with_capacity(rs);
            for a in acc {
                out.extend_from_slice(&a.to_ne_bytes());
            }
            return out;
        }
        let body = rs / 8; // whole words per record
        let mut acc64 = vec![0u64; body];
        let mut tail = vec![0u8; rs % 8];
        for i in mask.ones() {
            let rec = &self.data[i * rs..(i + 1) * rs];
            for (a, chunk) in acc64.iter_mut().zip(rec.chunks_exact(8)) {
                *a ^= u64::from_ne_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            for (t, b) in tail.iter_mut().zip(&rec[body * 8..]) {
                *t ^= b;
            }
        }
        let mut out = Vec::with_capacity(rs);
        for a in acc64 {
            out.extend_from_slice(&a.to_ne_bytes());
        }
        out.extend_from_slice(&tail);
        out
    }

    /// [`Self::xor_selected`] over two parallel tables — this one and a
    /// `tags` table of 8-byte records — in a **single sweep** of the
    /// mask. Decoding the packed mask's set bits costs about as much as
    /// XOR-folding a small record, so answering payloads and checksums
    /// in separate sweeps would nearly double the scan; the fused fold
    /// pays the decode once. Used by the redundant (verified) protocol.
    pub fn xor_selected_joint(&self, tags: &Database, mask: &BitVec) -> (Vec<u8>, Vec<u8>) {
        assert_eq!(mask.len(), self.len, "mask arity mismatch");
        assert_eq!(tags.len, self.len, "tag table arity mismatch");
        assert_eq!(tags.record_size, 8, "tags are one word per record");
        let rs = self.record_size;
        fn widen<const W: usize>((acc, tag): ([u64; W], u64)) -> (Vec<u64>, u64) {
            (acc.to_vec(), tag)
        }
        let folded = match rs {
            8 => Some(widen(fold_words_joint::<1>(&self.data, &tags.data, mask))),
            16 => Some(widen(fold_words_joint::<2>(&self.data, &tags.data, mask))),
            32 => Some(widen(fold_words_joint::<4>(&self.data, &tags.data, mask))),
            64 => Some(widen(fold_words_joint::<8>(&self.data, &tags.data, mask))),
            _ => None,
        };
        if let Some((acc, tag)) = folded {
            let mut out = Vec::with_capacity(rs);
            for a in acc {
                out.extend_from_slice(&a.to_ne_bytes());
            }
            return (out, tag.to_ne_bytes().to_vec());
        }
        let body = rs / 8; // whole words per record
        let mut acc64 = vec![0u64; body];
        let mut tail = vec![0u8; rs % 8];
        let mut tag = 0u64;
        for i in mask.ones() {
            let rec = &self.data[i * rs..(i + 1) * rs];
            for (a, chunk) in acc64.iter_mut().zip(rec.chunks_exact(8)) {
                *a ^= u64::from_ne_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            for (t, b) in tail.iter_mut().zip(&rec[body * 8..]) {
                *t ^= b;
            }
            tag ^= tag_word(&tags.data, i);
        }
        let mut out = Vec::with_capacity(rs);
        for a in acc64 {
            out.extend_from_slice(&a.to_ne_bytes());
        }
        out.extend_from_slice(&tail);
        (out, tag.to_ne_bytes().to_vec())
    }

    /// XOR-folds `q` packed selection masks in a **single fused sweep**
    /// of the record data: element `l` of the result equals
    /// `xor_selected(masks[l])`, but every 64-record data window is
    /// visited once for the whole batch while it is cache-hot, instead
    /// of streaming the full array once per query. This generalizes
    /// [`Self::xor_selected_joint`] from 2 lanes to `q` lanes. The sweep
    /// is chunked on mask-word boundaries through the persistent
    /// `tdf-par` executor; XOR merging is exact, so the result is
    /// bit-identical at any thread count.
    pub fn xor_selected_batch(&self, masks: &[&BitVec]) -> Vec<Vec<u8>> {
        for (lane, m) in masks.iter().enumerate() {
            assert_eq!(
                m.len(),
                self.len,
                "batch mask arity mismatch: lane {lane} has {} bits, database has {} records",
                m.len(),
                self.len
            );
        }
        if masks.is_empty() {
            return Vec::new();
        }
        match self.record_size {
            8 => self.batch_words::<1>(masks),
            16 => self.batch_words::<2>(masks),
            32 => self.batch_words::<4>(masks),
            64 => self.batch_words::<8>(masks),
            _ => self.batch_generic(masks),
        }
    }

    /// Monomorphized fused sweep for records of exactly `W * 8` bytes.
    fn batch_words<const W: usize>(&self, masks: &[&BitVec]) -> Vec<Vec<u8>> {
        let folded = par::par_index_reduce(
            words_for(self.len),
            |range| batch_fold_words::<W>(&self.data, masks, range),
            |mut a, b| {
                for (la, lb) in a.iter_mut().zip(&b) {
                    for (x, y) in la.iter_mut().zip(lb) {
                        *x ^= y;
                    }
                }
                a
            },
        )
        .unwrap_or_else(|| vec![[0u64; W]; masks.len()]);
        folded
            .into_iter()
            .map(|acc| {
                let mut out = Vec::with_capacity(W * 8);
                for a in acc {
                    out.extend_from_slice(&a.to_ne_bytes());
                }
                out
            })
            .collect()
    }

    /// Fused sweep for arbitrary record sizes: per-lane accumulators are
    /// a word-wide body plus a byte tail, as in [`Self::xor_selected`].
    fn batch_generic(&self, masks: &[&BitVec]) -> Vec<Vec<u8>> {
        let rs = self.record_size;
        let body = rs / 8;
        let tail_len = rs % 8;
        let lanes = masks.len();
        let zero = || vec![(vec![0u64; body], vec![0u8; tail_len]); lanes];
        let folded = par::par_index_reduce(
            words_for(self.len),
            |range| {
                let mut acc = zero();
                for w in range {
                    let base = w * 64;
                    for (lane, mask) in masks.iter().enumerate() {
                        let mut bits = mask.words()[w];
                        let (acc64, tail) = &mut acc[lane];
                        while bits != 0 {
                            let i = base + bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            let rec = &self.data[i * rs..(i + 1) * rs];
                            for (a, chunk) in acc64.iter_mut().zip(rec.chunks_exact(8)) {
                                *a ^= u64::from_ne_bytes(chunk.try_into().expect("8-byte chunk"));
                            }
                            for (t, b) in tail.iter_mut().zip(&rec[body * 8..]) {
                                *t ^= b;
                            }
                        }
                    }
                }
                acc
            },
            |mut a, b| {
                for ((a64, at), (b64, bt)) in a.iter_mut().zip(&b) {
                    for (x, y) in a64.iter_mut().zip(b64) {
                        *x ^= y;
                    }
                    for (x, y) in at.iter_mut().zip(bt) {
                        *x ^= y;
                    }
                }
                a
            },
        )
        .unwrap_or_else(zero);
        folded
            .into_iter()
            .map(|(acc64, tail)| {
                let mut out = Vec::with_capacity(rs);
                for a in acc64 {
                    out.extend_from_slice(&a.to_ne_bytes());
                }
                out.extend_from_slice(&tail);
                out
            })
            .collect()
    }

    /// XOR of the records at `indices` — the o(n) online path of the
    /// hint scheme (`crate::hints`): the server touches only the listed
    /// records instead of sweeping a packed n-bit mask.
    pub fn xor_indices(&self, indices: &[usize]) -> Vec<u8> {
        let mut acc = vec![0u8; self.record_size];
        for &i in indices {
            assert!(
                i < self.len,
                "record index {i} out of range: database has {} records",
                self.len
            );
            for (a, b) in acc.iter_mut().zip(self.record(i)) {
                *a ^= b;
            }
        }
        acc
    }

    /// `Vec<bool>` reference implementation of [`Self::xor_selected`] —
    /// the pre-packing scan, kept for property tests and benchmarks.
    pub fn xor_selected_bools(&self, mask: &[bool]) -> Vec<u8> {
        assert_eq!(mask.len(), self.len, "mask arity mismatch");
        let mut acc = vec![0u8; self.record_size];
        for (i, &selected) in mask.iter().enumerate() {
            if selected {
                for (a, b) in acc.iter_mut().zip(self.record(i)) {
                    *a ^= b;
                }
            }
        }
        acc
    }
}

/// XOR-folds the records selected by `mask` for a record size of exactly
/// `W * 8` bytes. The `W`-word accumulator is a fixed-size array, so the
/// hot loop keeps it in registers instead of round-tripping a heap
/// buffer on every selected record.
fn fold_words<const W: usize>(data: &[u8], mask: &BitVec) -> [u64; W] {
    let rs = W * 8;
    debug_assert_eq!(
        data.len(),
        mask.len() * rs,
        "sweep length mismatch: data holds {} bytes but the mask selects {} records of {rs} bytes",
        data.len(),
        mask.len()
    );
    let mut acc = [0u64; W];
    for i in mask.ones() {
        let rec = &data[i * rs..(i + 1) * rs];
        for (a, chunk) in acc.iter_mut().zip(rec.chunks_exact(8)) {
            *a ^= u64::from_ne_bytes(chunk.try_into().expect("8-byte chunk"));
        }
    }
    acc
}

/// The `i`-th 8-byte record of a tag table, as one word.
fn tag_word(tags: &[u8], i: usize) -> u64 {
    u64::from_ne_bytes(tags[i * 8..(i + 1) * 8].try_into().expect("8-byte tag"))
}

/// [`fold_words`] fused with a parallel 8-byte-per-record tag table: one
/// mask decode feeds both accumulators.
fn fold_words_joint<const W: usize>(data: &[u8], tags: &[u8], mask: &BitVec) -> ([u64; W], u64) {
    let rs = W * 8;
    debug_assert_eq!(
        data.len(),
        mask.len() * rs,
        "joint-sweep length mismatch: data holds {} bytes but the mask selects {} records of {rs} bytes",
        data.len(),
        mask.len()
    );
    debug_assert_eq!(
        tags.len(),
        mask.len() * 8,
        "joint-sweep length mismatch: tag table holds {} bytes but the mask selects {} 8-byte tags",
        tags.len(),
        mask.len()
    );
    let mut acc = [0u64; W];
    let mut tag = 0u64;
    for i in mask.ones() {
        let rec = &data[i * rs..(i + 1) * rs];
        for (a, chunk) in acc.iter_mut().zip(rec.chunks_exact(8)) {
            *a ^= u64::from_ne_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        tag ^= tag_word(tags, i);
    }
    (acc, tag)
}

/// One chunk of the fused multi-lane sweep for records of exactly
/// `W * 8` bytes: for every mask word in `range`, the ≤ 64-record data
/// window is folded into each lane's accumulator while it is
/// L1-resident. The per-lane accumulators are fixed-size `[u64; W]`
/// arrays, so the inner XOR unrolls into register operations and never
/// round-trips a heap buffer.
fn batch_fold_words<const W: usize>(
    data: &[u8],
    masks: &[&BitVec],
    range: Range<usize>,
) -> Vec<[u64; W]> {
    let rs = W * 8;
    for m in masks {
        debug_assert_eq!(
            data.len(),
            m.len() * rs,
            "batch-sweep length mismatch: data holds {} bytes but a lane mask selects {} records of {rs} bytes",
            data.len(),
            m.len()
        );
    }
    let mut acc = vec![[0u64; W]; masks.len()];
    for w in range {
        let base = w * 64;
        for (lane, mask) in masks.iter().enumerate() {
            let mut bits = mask.words()[w];
            let a = &mut acc[lane];
            while bits != 0 {
                let i = base + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let rec = &data[i * rs..(i + 1) * rs];
                for (x, chunk) in a.iter_mut().zip(rec.chunks_exact(8)) {
                    *x ^= u64::from_ne_bytes(chunk.try_into().expect("8-byte chunk"));
                }
            }
        }
    }
    acc
}

/// What one server observed during a retrieval: the raw query message it
/// received. For information-theoretically private schemes this message is
/// statistically independent of the retrieved index; `tdf-core::scoring`
/// verifies that empirically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerView {
    /// The server saw a plaintext index (no user privacy).
    PlainIndex(usize),
    /// The server saw a packed selection bit-vector (XOR schemes).
    Mask(BitVec),
    /// The server saw a row-selector plus which of its own axes was used
    /// (square scheme).
    SquareMask {
        /// Row-selection vector.
        rows: BitVec,
    },
    /// The server saw ciphertexts only (computational PIR).
    Ciphertexts(usize),
    /// The server saw a full-download request (trivial PIR).
    FullDownload,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rngkit::SeedableRng;

    #[test]
    fn construction_and_access() {
        let db = Database::new(vec![vec![1, 2], vec![3, 4], vec![5, 6]]);
        assert_eq!(db.len(), 3);
        assert_eq!(db.record_size(), 2);
        assert_eq!(db.record(1), &[3, 4]);
        assert!(!db.is_empty());
    }

    #[test]
    #[should_panic(expected = "equal size")]
    fn ragged_records_panic() {
        let _ = Database::new(vec![vec![1], vec![2, 3]]);
    }

    #[test]
    fn joint_scan_agrees_with_two_separate_scans() {
        // Exercises both the monomorphized (8/16/32/64-byte) and the
        // generic (odd-size, incl. sub-word tail) payload paths.
        for rs in [1usize, 3, 8, 16, 20, 32, 64, 70] {
            for n in [1usize, 5, 64, 131] {
                let payloads =
                    Database::new((0..n).map(|i| vec![(i * 7 + rs) as u8; rs]).collect());
                let tags = Database::new(
                    (0..n)
                        .map(|i| ((i * 0x9E37 + 1) as u64).to_ne_bytes().to_vec())
                        .collect(),
                );
                let bools: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
                let mask = BitVec::from_bools(&bools);
                let (joint_p, joint_t) = payloads.xor_selected_joint(&tags, &mask);
                assert_eq!(joint_p, payloads.xor_selected(&mask), "rs={rs} n={n}");
                assert_eq!(joint_t, tags.xor_selected(&mask), "rs={rs} n={n}");
            }
        }
    }

    #[test]
    fn xor_selected_matches_manual() {
        let db = Database::new(vec![vec![0b1100], vec![0b1010], vec![0b0001]]);
        let x = db.xor_selected(&BitVec::from_bools(&[true, true, false]));
        assert_eq!(x, vec![0b0110]);
        let all = db.xor_selected(&BitVec::from_bools(&[true, true, true]));
        assert_eq!(all, vec![0b0111]);
        let none = db.xor_selected(&BitVec::from_bools(&[false, false, false]));
        assert_eq!(none, vec![0]);
    }

    #[test]
    fn packed_and_bool_scans_agree() {
        // 9-byte records exercise both the word-wide accumulator and the
        // byte tail; 70 records exercise a mask spanning two words.
        let db = Database::new(
            (0..70u8)
                .map(|i| (0..9).map(|j| i.wrapping_mul(31).wrapping_add(j)).collect())
                .collect(),
        );
        let bools: Vec<bool> = (0..70).map(|i| i % 3 != 1).collect();
        let packed = BitVec::from_bools(&bools);
        assert_eq!(db.xor_selected(&packed), db.xor_selected_bools(&bools));
    }

    #[test]
    fn batch_sweep_agrees_with_per_query_sweeps() {
        // Monomorphized (8/16/32/64) and generic (odd-size) lanes, with
        // masks spanning multiple words, across 1..9 lanes.
        let mut rng = rngkit::rngs::StdRng::seed_from_u64(41);
        for rs in [1usize, 8, 9, 16, 32, 64, 70] {
            let n = 131;
            let db = Database::from_fn(n, rs, |i, rec| {
                for (j, b) in rec.iter_mut().enumerate() {
                    *b = (i * 31 + j * 7 + rs) as u8;
                }
            });
            for q in [1usize, 2, 5, 9] {
                let masks: Vec<BitVec> = (0..q).map(|_| BitVec::random(&mut rng, n)).collect();
                let refs: Vec<&BitVec> = masks.iter().collect();
                let fused = db.xor_selected_batch(&refs);
                let sequential: Vec<Vec<u8>> = masks.iter().map(|m| db.xor_selected(m)).collect();
                assert_eq!(fused, sequential, "rs={rs} q={q}");
            }
        }
    }

    #[test]
    fn batch_sweep_is_identical_across_thread_counts() {
        // Large enough that the word sweep clears the sequential
        // threshold and actually fans out.
        let n = 70_000;
        let db = Database::from_fn(n, 32, |i, rec| {
            for (j, b) in rec.iter_mut().enumerate() {
                *b = (i * 13 + j) as u8;
            }
        });
        let mut rng = rngkit::rngs::StdRng::seed_from_u64(42);
        let masks: Vec<BitVec> = (0..4).map(|_| BitVec::random(&mut rng, n)).collect();
        let refs: Vec<&BitVec> = masks.iter().collect();
        let t1 = par::with_threads(1, || db.xor_selected_batch(&refs));
        let t4 = par::with_threads(4, || db.xor_selected_batch(&refs));
        assert_eq!(t1, t4);
        let sequential: Vec<Vec<u8>> = masks.iter().map(|m| db.xor_selected(m)).collect();
        assert_eq!(t1, sequential);
    }

    #[test]
    fn empty_batch_is_empty() {
        let db = Database::new(vec![vec![1u8; 8]; 4]);
        assert_eq!(db.xor_selected_batch(&[]), Vec::<Vec<u8>>::new());
    }

    #[test]
    #[should_panic(expected = "lane 1 has 3 bits, database has 4 records")]
    fn batch_mask_mismatch_names_lane_and_lengths() {
        let db = Database::new(vec![vec![1u8; 8]; 4]);
        let good = BitVec::zeros(4);
        let bad = BitVec::zeros(3);
        let _ = db.xor_selected_batch(&[&good, &bad]);
    }

    #[test]
    fn from_fn_matches_new() {
        let records: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i, i * 3, i ^ 0x5A]).collect();
        let a = Database::new(records.clone());
        let b = Database::from_fn(10, 3, |i, rec| rec.copy_from_slice(&records[i]));
        assert_eq!(a, b);
        let empty = Database::from_fn(5, 0, |_, _| unreachable!("no bytes to fill"));
        assert_eq!(empty.len(), 5);
        assert_eq!(empty.record_size(), 0);
    }

    #[test]
    fn xor_indices_matches_selected() {
        let db = Database::new((0..20u8).map(|i| vec![i, i.wrapping_mul(17), 9]).collect());
        let indices = [1usize, 4, 4, 19];
        let mut bools = vec![false; 20];
        // 4 appears twice, cancelling itself: expect XOR of {1, 19}.
        bools[1] = true;
        bools[19] = true;
        assert_eq!(db.xor_indices(&indices), db.xor_selected_bools(&bools));
        assert_eq!(db.xor_indices(&[]), vec![0u8; 3]);
    }

    #[test]
    #[should_panic(expected = "record index 20 out of range: database has 20 records")]
    fn xor_indices_out_of_range_names_both() {
        let db = Database::new((0..20u8).map(|i| vec![i]).collect());
        let _ = db.xor_indices(&[20]);
    }

    #[test]
    fn clone_shares_payload() {
        let db = Database::new(vec![vec![7u8; 16]; 8]);
        let db2 = db.clone();
        assert!(std::ptr::eq(db.record(0).as_ptr(), db2.record(0).as_ptr()));
    }

    #[test]
    fn from_bits() {
        let db = Database::from_bits(&[true, false, true]);
        assert_eq!(db.record(0), &[1]);
        assert_eq!(db.record(1), &[0]);
        assert_eq!(db.record_size(), 1);
    }
}
