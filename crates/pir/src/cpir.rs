//! Single-server computational PIR (Kushilevitz–Ostrovsky style).
//!
//! The bit database is laid out as an `s × s` matrix. The client sends one
//! GM ciphertext per column — encrypting 1 only at the wanted column — and
//! the server returns, per row, the product of the ciphertexts of that
//! row's 1-columns. By the XOR homomorphism, row `r`'s aggregate decrypts
//! to `M[r][c]`: the wanted bit. The server computes over ciphertexts only,
//! so (under quadratic residuosity) it learns nothing about the index, with
//! a *single* server — the paper's "single database PIR" \[6\].

use crate::cost::CostReport;
use crate::gm::{self, PrivateKey, PublicKey};
use crate::store::{Database, ServerView};
use rngkit::Rng;
use tdf_mathkit::BigUint;

/// A client with a fresh GM key pair.
#[derive(Debug, Clone)]
pub struct Client {
    pk: PublicKey,
    sk: PrivateKey,
}

impl Client {
    /// Creates a client with `bits`-bit primes (modulus ≈ 2·bits).
    pub fn new<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Self {
        let (pk, sk) = gm::keygen(rng, bits);
        Self { pk, sk }
    }

    /// The public key shipped to the server.
    pub fn public_key(&self) -> &PublicKey {
        &self.pk
    }
}

/// Retrieves bit `index` of a bit database (records must be 1 byte holding
/// 0 or 1, as produced by [`Database::from_bits`]).
pub fn retrieve_bit<R: Rng + ?Sized>(
    rng: &mut R,
    client: &Client,
    db: &Database,
    index: usize,
) -> (bool, ServerView, CostReport) {
    assert!(index < db.len(), "index out of range");
    assert_eq!(db.record_size(), 1, "cpir works on bit databases");
    let s = (db.len() as f64).sqrt().ceil() as usize;
    let (row, col) = (index / s, index % s);

    // Query: per-column ciphertexts, encrypting the unit vector e_col.
    let query: Vec<BigUint> = (0..s)
        .map(|j| gm::encrypt(&client.pk, j == col, rng))
        .collect();

    // Server: per-row homomorphic aggregate over its 1-entries.
    let mut server_ops = 0u64;
    let answers: Vec<BigUint> = (0..s)
        .map(|r| {
            let mut acc = gm::encrypt(&client.pk, false, rng); // E(0) seed
            for (j, q) in query.iter().enumerate() {
                let idx = r * s + j;
                if idx < db.len() && db.record(idx)[0] == 1 {
                    acc = gm::xor_ciphertexts(&client.pk, &acc, q);
                    server_ops += 1;
                }
            }
            acc
        })
        .collect();

    let bit = gm::decrypt(&client.sk, &answers[row]);
    let modulus_bits = client.pk.n.bit_length() as u64;
    let cost = CostReport {
        uplink_bits: s as u64 * modulus_bits,
        downlink_bits: s as u64 * modulus_bits,
        server_ops,
        words_scanned: 0,
        servers: 1,
    };
    (bit, ServerView::Ciphertexts(s), cost)
}

/// Retrieves a whole byte-record by running [`retrieve_bit`] per bit of the
/// record (communication multiplies accordingly; the benches account it).
pub fn retrieve_record<R: Rng + ?Sized>(
    rng: &mut R,
    client: &Client,
    records: &[Vec<u8>],
    index: usize,
) -> (Vec<u8>, CostReport) {
    let record_size = records.first().map_or(0, Vec::len);
    let n = records.len();
    let mut cost = CostReport::default();
    let mut out = vec![0u8; record_size];
    for byte in 0..record_size {
        for bit in 0..8 {
            // One bit-database per (byte, bit) position.
            let bits: Vec<bool> = (0..n).map(|i| (records[i][byte] >> bit) & 1 == 1).collect();
            let db = Database::from_bits(&bits);
            let (b, _, c) = retrieve_bit(rng, client, &db, index);
            if b {
                out[byte] |= 1 << bit;
            }
            cost += c;
        }
    }
    cost.servers = 1;
    (out, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rngkit::SeedableRng;

    fn rng() -> rngkit::rngs::StdRng {
        rngkit::rngs::StdRng::seed_from_u64(31337)
    }

    #[test]
    fn bit_retrieval_is_correct() {
        let mut r = rng();
        let client = Client::new(&mut r, 48);
        let bits: Vec<bool> = (0..30).map(|i| i % 5 == 0 || i % 7 == 3).collect();
        let db = Database::from_bits(&bits);
        for (i, &expected) in bits.iter().enumerate() {
            let (b, view, _) = retrieve_bit(&mut r, &client, &db, i);
            assert_eq!(b, expected, "index {i}");
            assert_eq!(view, ServerView::Ciphertexts(6));
        }
    }

    #[test]
    fn record_retrieval_reassembles_bytes() {
        let mut r = rng();
        let client = Client::new(&mut r, 40);
        let records: Vec<Vec<u8>> = vec![vec![0xDE], vec![0xAD], vec![0xBE], vec![0xEF]];
        for i in 0..records.len() {
            let (rec, _) = retrieve_record(&mut r, &client, &records, i);
            assert_eq!(rec, records[i], "index {i}");
        }
    }

    #[test]
    fn communication_is_sublinear_in_n() {
        let mut r = rng();
        let client = Client::new(&mut r, 40);
        let small = Database::from_bits(&[false; 64]);
        let large = Database::from_bits(&vec![false; 6400]);
        let (_, _, c_small) = retrieve_bit(&mut r, &client, &small, 0);
        let (_, _, c_large) = retrieve_bit(&mut r, &client, &large, 0);
        let ratio = c_large.total_bits() as f64 / c_small.total_bits() as f64;
        assert!(ratio < 15.0, "100× data should cost ~10× bits, got {ratio}");
    }

    #[test]
    fn single_server_only() {
        let mut r = rng();
        let client = Client::new(&mut r, 40);
        let db = Database::from_bits(&[true, false, true, true]);
        let (_, _, cost) = retrieve_bit(&mut r, &client, &db, 2);
        assert_eq!(cost.servers, 1);
    }
}
