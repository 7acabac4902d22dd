//! The database model shared by all PIR schemes, plus the server *view* —
//! everything a (curious) server observes during a retrieval, from which
//! `tdf-core` computes empirical query leakage.
//!
//! [`Database::xor_selected_batch`] is the one mask sweep: every XOR
//! scheme's server answer — linear, batched and redundant — is a lane of
//! it. [`Database::xor_indices`] is the hint path's index-list fold.

use crate::bits::{words_for, BitVec};
use std::sync::Arc;

/// The most lanes one pass of [`Database::xor_selected_batch`] folds.
/// Wider passes measured slower than splitting them: over 10^7 records
/// of 32 B at one thread (a 2-vCPU Xeon VM), one 128-lane pass took
/// about 1.43 s against 1.13–1.27 s for two 64-lane passes, while 4, 16
/// and 64 lanes were fastest in a single pass.
const MAX_PASS_LANES: usize = 64;

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

    /// XOR-folds `q` packed selection masks in **one sweep** of the
    /// record data (one per 64 lanes): element `l` of the result is the
    /// XOR of the records that `masks[l]` selects. This is the store's
    /// only mask sweep — a single-query server answer is a one-lane
    /// call. Every 64-record data window is folded into all the pass's
    /// lanes while it is cache-hot, so the record array crosses the
    /// memory bus once per pass instead of once per lane.
    ///
    /// Records of a whole number of words, 8 to 72 bytes, fold through a
    /// kernel monomorphized on the word count, whose lane accumulator is
    /// a `[u64; W]` register copy; every other size folds through a
    /// word-wide body plus a byte tail. The sweep is chunked on
    /// mask-word boundaries through the persistent `tdf-par` executor;
    /// XOR merging is exact, so the result is bit-identical at any
    /// thread count. The caller tallies the mask words into
    /// `pir.words_scanned` — this loop is too hot for a registry write.
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
        if masks.len() > MAX_PASS_LANES {
            return masks
                .chunks(MAX_PASS_LANES)
                .flat_map(|pass| self.xor_selected_batch(pass))
                .collect();
        }
        match self.record_size {
            8 => self.sweep_words::<1>(masks),
            16 => self.sweep_words::<2>(masks),
            24 => self.sweep_words::<3>(masks),
            32 => self.sweep_words::<4>(masks),
            40 => self.sweep_words::<5>(masks),
            48 => self.sweep_words::<6>(masks),
            56 => self.sweep_words::<7>(masks),
            64 => self.sweep_words::<8>(masks),
            72 => self.sweep_words::<9>(masks),
            _ => self.sweep_any(masks),
        }
    }

    /// The sweep for records of exactly `W` words. While a lane folds one
    /// mask word, its accumulator is a local `[u64; W]`, so the XORs stay
    /// in registers; the copy is written back once per lane per mask
    /// word instead of reloaded on every selected record.
    fn sweep_words<const W: usize>(&self, masks: &[&BitVec]) -> Vec<Vec<u8>> {
        let data = &self.data[..];
        let folded = par::par_index_reduce(
            words_for(self.len),
            |range| {
                let mut acc = vec![[0u64; W]; masks.len()];
                for w in range {
                    for (mask, lane) in masks.iter().zip(acc.iter_mut()) {
                        let mut bits = mask.words()[w];
                        let mut a = *lane;
                        while bits != 0 {
                            let i = w * 64 + bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            let rec = &data[i * W * 8..(i + 1) * W * 8];
                            for (x, chunk) in a.iter_mut().zip(rec.chunks_exact(8)) {
                                *x ^= u64::from_ne_bytes(chunk.try_into().expect("8-byte chunk"));
                            }
                        }
                        *lane = a;
                    }
                }
                acc
            },
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
            .iter()
            .map(|acc| acc.iter().flat_map(|a| a.to_ne_bytes()).collect())
            .collect()
    }

    /// The sweep for every other record size: per lane, a word-wide body
    /// accumulator plus a byte tail. Both are owned locals while their
    /// lane folds, and the record geometry is copied into locals, so the
    /// inner loop reloads neither from the heap.
    fn sweep_any(&self, masks: &[&BitVec]) -> Vec<Vec<u8>> {
        let zero = || {
            vec![
                (
                    vec![0u64; self.record_size / 8],
                    vec![0u8; self.record_size % 8]
                );
                masks.len()
            ]
        };
        let folded = par::par_index_reduce(
            words_for(self.len),
            |range| {
                let (data, rs, body) = (&self.data[..], self.record_size, self.record_size / 8 * 8);
                let mut acc = zero();
                for w in range {
                    for (mask, (acc64, tail)) in masks.iter().zip(acc.iter_mut()) {
                        let mut bits = mask.words()[w];
                        let (mut a64, mut t) = (std::mem::take(acc64), std::mem::take(tail));
                        while bits != 0 {
                            let i = w * 64 + bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            let rec = &data[i * rs..(i + 1) * rs];
                            for (a, chunk) in a64.iter_mut().zip(rec[..body].chunks_exact(8)) {
                                *a ^= u64::from_ne_bytes(chunk.try_into().expect("8-byte chunk"));
                            }
                            for (x, b) in t.iter_mut().zip(&rec[body..]) {
                                *x ^= b;
                            }
                        }
                        (*acc64, *tail) = (a64, t);
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
                acc64
                    .iter()
                    .flat_map(|a| a.to_ne_bytes())
                    .chain(tail)
                    .collect()
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

    /// The `Vec<bool>` reference sweep: XOR of every selected record, one
    /// byte at a time.
    fn xor_selected_bools(db: &Database, mask: &[bool]) -> Vec<u8> {
        assert_eq!(mask.len(), db.len(), "mask arity mismatch");
        let mut acc = vec![0u8; db.record_size()];
        for (i, _) in mask.iter().enumerate().filter(|(_, &selected)| selected) {
            for (a, b) in acc.iter_mut().zip(db.record(i)) {
                *a ^= b;
            }
        }
        acc
    }

    /// A one-lane sweep: one server's answer to `mask`.
    fn one_lane(db: &Database, mask: &BitVec) -> Vec<u8> {
        db.xor_selected_batch(&[mask]).remove(0)
    }

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
    fn xor_selected_matches_manual() {
        let db = Database::new(vec![vec![0b1100], vec![0b1010], vec![0b0001]]);
        let x = one_lane(&db, &BitVec::from_bools(&[true, true, false]));
        assert_eq!(x, vec![0b0110]);
        let all = one_lane(&db, &BitVec::from_bools(&[true, true, true]));
        assert_eq!(all, vec![0b0111]);
        let none = one_lane(&db, &BitVec::from_bools(&[false, false, false]));
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
        assert_eq!(one_lane(&db, &packed), xor_selected_bools(&db, &bools));
    }

    #[test]
    fn batch_sweep_agrees_with_per_query_sweeps() {
        // Word-size (8..=64) and any-size (odd-size) lanes, with masks
        // spanning multiple words, across 1..9 lanes and past one pass.
        let mut rng = rngkit::rngs::StdRng::seed_from_u64(41);
        for rs in [1usize, 8, 9, 16, 32, 64, 70] {
            let n = 131;
            let db = Database::from_fn(n, rs, |i, rec| {
                for (j, b) in rec.iter_mut().enumerate() {
                    *b = (i * 31 + j * 7 + rs) as u8;
                }
            });
            for q in [1usize, 2, 5, 9, MAX_PASS_LANES + 1, 2 * MAX_PASS_LANES + 3] {
                let masks: Vec<BitVec> = (0..q).map(|_| BitVec::random(&mut rng, n)).collect();
                let refs: Vec<&BitVec> = masks.iter().collect();
                let fused = db.xor_selected_batch(&refs);
                let sequential: Vec<Vec<u8>> = masks
                    .iter()
                    .map(|m| xor_selected_bools(&db, &m.to_bools()))
                    .collect();
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
        let sequential: Vec<Vec<u8>> = masks
            .iter()
            .map(|m| xor_selected_bools(&db, &m.to_bools()))
            .collect();
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
        assert_eq!(db.xor_indices(&indices), xor_selected_bools(&db, &bools));
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
