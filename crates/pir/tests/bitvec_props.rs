//! Property tests: the word-packed `BitVec` must agree with the
//! `Vec<bool>` reference representation on arbitrary inputs — XOR,
//! popcount, the set-bit iterator, and the database scan built on top.

use check::prelude::*;
use tdf_pir::bits::BitVec;
use tdf_pir::store::Database;

/// Expands bytes into one bool per bit: arbitrary-length bool vectors
/// from the byte strategy, densities included.
fn bools_from(bytes: &[u8]) -> Vec<bool> {
    bytes
        .iter()
        .flat_map(|&b| (0..8).map(move |i| b >> i & 1 == 1))
        .collect()
}

props! {
    #[test]
    fn roundtrip_preserves_bits(bytes in vec(any::<u8>(), 0..40)) {
        let bits = bools_from(&bytes);
        let packed = BitVec::from_bools(&bits);
        prop_assert_eq!(packed.len(), bits.len());
        prop_assert_eq!(packed.to_bools(), bits.clone());
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(packed.get(i), b);
        }
    }

    #[test]
    fn xor_matches_boolwise_reference(a in vec(any::<u8>(), 0..32), b in vec(any::<u8>(), 0..32)) {
        let len = a.len().min(b.len()) * 8;
        let ba: Vec<bool> = bools_from(&a)[..len].to_vec();
        let bb: Vec<bool> = bools_from(&b)[..len].to_vec();
        let mut packed = BitVec::from_bools(&ba);
        packed.xor_assign(&BitVec::from_bools(&bb));
        let want: Vec<bool> = ba.iter().zip(&bb).map(|(&x, &y)| x ^ y).collect();
        prop_assert_eq!(packed.to_bools(), want);
    }

    #[test]
    fn popcount_matches_reference(bytes in vec(any::<u8>(), 0..40)) {
        let bits = bools_from(&bytes);
        let packed = BitVec::from_bools(&bits);
        let want = bits.iter().filter(|&&b| b).count() as u64;
        prop_assert_eq!(packed.count_ones(), want);
    }

    #[test]
    fn ones_iterator_matches_reference(bytes in vec(any::<u8>(), 0..40)) {
        let bits = bools_from(&bytes);
        let packed = BitVec::from_bools(&bits);
        let want: Vec<usize> = bits
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect();
        prop_assert_eq!(packed.ones().collect::<Vec<usize>>(), want);
    }

    #[test]
    fn packed_scan_equals_bool_scan(
        mask_bytes in vec(any::<u8>(), 1..41),
        record_size in 0usize..=80,
        lanes in 1usize..=9,
        seed in any::<u8>(),
    ) {
        // Up to 320 records: masks end inside, at and past 64-record
        // word boundaries. Lane `l` rotates the drawn bits by `l * 37`
        // so the lanes of one sweep select different records.
        let drawn = bools_from(&mask_bytes);
        let n = drawn.len();
        let db = test_db(n, record_size, seed);
        let lane_bits: Vec<Vec<bool>> = (0..lanes)
            .map(|l| (0..n).map(|i| drawn[(i + l * 37) % n]).collect())
            .collect();
        let packed: Vec<BitVec> = lane_bits.iter().map(|b| BitVec::from_bools(b)).collect();
        let refs: Vec<&BitVec> = packed.iter().collect();
        let fused = db.xor_selected_batch(&refs);
        prop_assert_eq!(fused.len(), lanes);
        for (l, bits) in lane_bits.iter().enumerate() {
            prop_assert_eq!(&fused[l], &xor_selected_bools(&db, bits));
        }
    }
}

/// `n` records of `record_size` bytes, every byte a function of its
/// position and `seed`.
fn test_db(n: usize, record_size: usize, seed: u8) -> Database {
    Database::from_fn(n, record_size, |i, rec| {
        for (j, b) in rec.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(17).wrapping_add(j as u8) ^ seed;
        }
    })
}

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

/// The pooled path: 70,000 records (1,094 mask words, past the
/// sequential threshold) of one word, of a word plus a byte tail, and of
/// five and nine words, under a pinned core count so a one-core host
/// still fans the sweep out.
#[test]
fn pooled_batch_sweep_equals_bool_scan() {
    use rngkit::SeedableRng;
    let n = 70_000;
    let mut rng = rngkit::rngs::StdRng::seed_from_u64(0x5EED);
    for record_size in [8usize, 9, 40, 72] {
        let db = test_db(n, record_size, record_size as u8);
        for q in [1usize, 3] {
            let masks: Vec<BitVec> = (0..q).map(|_| BitVec::random(&mut rng, n)).collect();
            let refs: Vec<&BitVec> = masks.iter().collect();
            let fused =
                par::with_cores(4, || par::with_threads(4, || db.xor_selected_batch(&refs)));
            for (l, mask) in masks.iter().enumerate() {
                assert_eq!(
                    fused[l],
                    xor_selected_bools(&db, &mask.to_bools()),
                    "record_size={record_size} q={q} lane={l}"
                );
            }
        }
    }
}
