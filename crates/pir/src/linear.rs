//! The basic k-server XOR PIR of Chor–Goldreich–Kushilevitz–Sudan \[8\].
//!
//! The client secret-shares the unit selection vector `e_index` into `k`
//! random bit-vectors whose XOR is `e_index`; server `j` receives share `j`
//! and answers with the XOR of its selected records; the client XORs all
//! answers to obtain the record. Any coalition of `k − 1` servers sees only
//! uniformly random masks — information-theoretic user privacy, exactly the
//! property §3 of the paper relies on.
//!
//! Shares are word-packed ([`crate::bits::BitVec`]): mask generation draws
//! one RNG word per 64 records, and the `k` server answers are the lanes
//! of one [`Database::xor_selected_batch`] sweep, XORed together in
//! server order so the result is bit-identical at any `TDF_THREADS`.

use crate::bits::BitVec;
use crate::cost::{packed_mask_bits, CostReport};
use crate::store::{Database, ServerView};
use rngkit::Rng;

/// A prepared query: one packed selection mask per server.
#[derive(Debug, Clone)]
pub struct Query {
    shares: Vec<BitVec>,
}

impl Query {
    /// Builds a k-server query for `index` over a database of `n` records.
    pub fn build<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize, index: usize) -> Self {
        assert!(k >= 2, "need at least two non-colluding servers");
        assert!(index < n, "index out of range");
        let mut shares: Vec<BitVec> = (0..k - 1).map(|_| BitVec::random(rng, n)).collect();
        // Last share = XOR of the others, flipped at `index`.
        let mut last = BitVec::zeros(n);
        for s in &shares {
            last.xor_assign(s);
        }
        last.flip(index);
        shares.push(last);
        Self { shares }
    }

    /// The mask destined for server `j` (this is the server's whole view).
    pub fn share(&self, j: usize) -> &BitVec {
        &self.shares[j]
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.shares.len()
    }
}

/// Runs a full retrieval against `k` honest servers holding replicas of
/// `db`. Returns the record, every server's view, and the cost.
/// ```
/// use tdf_pir::store::Database;
/// use rngkit::SeedableRng;
///
/// let db = Database::new(vec![vec![1u8], vec![2], vec![3]]);
/// let mut rng = rngkit::rngs::StdRng::seed_from_u64(7);
/// let (record, views, cost) = tdf_pir::linear::retrieve(&mut rng, &db, 2, 1);
/// assert_eq!(record, vec![2]);
/// assert_eq!(cost.servers, 2); // neither server learned the index
/// assert_eq!(views.len(), 2);
/// ```
pub fn retrieve<R: Rng + ?Sized>(
    rng: &mut R,
    db: &Database,
    k: usize,
    index: usize,
) -> (Vec<u8>, Vec<ServerView>, CostReport) {
    let q = Query::build(rng, db.len(), k, index);
    // The k replicas' answers come from one k-lane sweep; each lane is
    // exactly the answer its server computes alone. Fold in server order
    // on the client.
    let answers = db.xor_selected_batch(&q.shares.iter().collect::<Vec<_>>());
    // One flush for the k mask sweeps the lanes stand for.
    obs::count(
        "pir.words_scanned",
        q.shares.iter().map(|s| s.words().len() as u64).sum(),
    );
    let mut acc = vec![0u8; db.record_size()];
    for answer in &answers {
        for (a, b) in acc.iter_mut().zip(answer) {
            *a ^= b;
        }
    }
    let views = q
        .shares
        .iter()
        .map(|s| ServerView::Mask(s.clone()))
        .collect();
    let cost = CostReport {
        uplink_bits: packed_mask_bits(k, db.len()),
        downlink_bits: (k * db.record_size() * 8) as u64,
        server_ops: q.shares.iter().map(BitVec::count_ones).sum(),
        words_scanned: crate::cost::linear_scan_words(k, db.len()),
        servers: k as u32,
    };
    (acc, views, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rngkit::SeedableRng;

    fn rng() -> rngkit::rngs::StdRng {
        rngkit::rngs::StdRng::seed_from_u64(77)
    }

    fn db(n: usize) -> Database {
        Database::new((0..n).map(|i| vec![i as u8, (i * 7) as u8, 0xAB]).collect())
    }

    #[test]
    fn two_server_retrieval_is_correct_for_every_index() {
        let db = db(33);
        let mut r = rng();
        for i in 0..db.len() {
            let (rec, _, _) = retrieve(&mut r, &db, 2, i);
            assert_eq!(rec, db.record(i), "index {i}");
        }
    }

    #[test]
    fn many_server_retrieval_is_correct() {
        let db = db(17);
        let mut r = rng();
        for k in [3usize, 4, 7] {
            for i in [0, 8, 16] {
                let (rec, views, cost) = retrieve(&mut r, &db, k, i);
                assert_eq!(rec, db.record(i), "k={k} i={i}");
                assert_eq!(views.len(), k);
                assert_eq!(cost.servers, k as u32);
            }
        }
    }

    #[test]
    fn shares_xor_to_unit_vector() {
        let mut r = rng();
        let q = Query::build(&mut r, 20, 3, 13);
        for pos in 0..20 {
            let x = (0..3).fold(false, |acc, j| acc ^ q.share(j).get(pos));
            assert_eq!(x, pos == 13);
        }
    }

    #[test]
    fn single_share_is_statistically_uniform() {
        // Frequency of `true` at a fixed position across many queries for
        // *different* indices must hover around 1/2: one server learns
        // nothing about the index.
        let mut r = rng();
        let n = 16;
        let trials = 4000;
        let mut ones = vec![0usize; n];
        for t in 0..trials {
            let q = Query::build(&mut r, n, 2, t % n);
            for pos in q.share(0).ones() {
                ones[pos] += 1;
            }
        }
        for (pos, &c) in ones.iter().enumerate() {
            let f = c as f64 / trials as f64;
            assert!((f - 0.5).abs() < 0.05, "pos {pos}: {f}");
        }
    }

    #[test]
    fn uplink_cost_counts_packed_words() {
        let mut r = rng();
        let (_, _, c1) = retrieve(&mut r, &db(100), 2, 0);
        let (_, _, c2) = retrieve(&mut r, &db(200), 2, 0);
        // 100 bits pack into two words, 200 into four; two servers each.
        assert_eq!(c1.uplink_bits, 2 * 2 * 64);
        assert_eq!(c2.uplink_bits, 2 * 4 * 64);
    }

    #[test]
    fn retrieval_is_identical_across_thread_counts() {
        let db = db(257);
        let run = |threads: usize| {
            par::with_threads(threads, || {
                let mut r = rng();
                retrieve(&mut r, &db, 3, 129)
            })
        };
        let (rec1, views1, cost1) = run(1);
        let (rec4, views4, cost4) = run(4);
        assert_eq!(rec1, rec4);
        assert_eq!(views1, views4);
        assert_eq!(cost1, cost4);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn one_server_panics() {
        let mut r = rng();
        let _ = Query::build(&mut r, 8, 1, 0);
    }
}
