//! Multi-query batching for the two-server linear scheme: fuse `q`
//! pending selection masks into one database sweep.
//!
//! A single CGKS retrieval is memory-bound at scale — each server
//! streams the whole record array to honour one mask. When `q` queries
//! are pending (a server draining its queue, a client with a read set),
//! [`retrieve_batch`] answers all of them in one fused sweep: both
//! replicas' masks of every query are lanes of one
//! [`Database::xor_selected_batch`] call, the store's only mask sweep,
//! exactly as [`crate::linear::retrieve`] answers its k replicas. Every
//! 64-record data window is folded into the lanes of a pass (up to 64)
//! while it is cache-hot, so the data array crosses the memory bus once
//! per pass instead of once per query and replica. Each lane is still
//! exactly the answer its server computes alone.
//!
//! The XOR *compute* per lane is information-theoretically irreducible —
//! every server must touch about n/2 records per query regardless of
//! batching — so fusion buys the memory factor, and the offline/online
//! hint split ([`crate::hints`]) buys the o(n) online path. `tdf-serve`
//! composes batching with its admission queue; DESIGN §14 has the
//! analysis.
//!
//! **Determinism.** [`BatchQuery::build`] draws masks per query in
//! submission order, so its RNG stream is identical to building the
//! queries one at a time; a batch of one is bit-identical — records,
//! masks and cost — to [`crate::linear::retrieve`] with `k = 2`.

use crate::bits::BitVec;
use crate::cost::{batch_scan_words, packed_mask_bits, CostReport};
use crate::linear::Query;
use crate::store::Database;
use rngkit::Rng;

/// `q` prepared two-server queries destined for one fused sweep.
#[derive(Debug, Clone)]
pub struct BatchQuery {
    queries: Vec<Query>,
}

impl BatchQuery {
    /// Builds one two-server [`Query`] per index, in submission order.
    pub fn build<R: Rng + ?Sized>(rng: &mut R, n: usize, indices: &[usize]) -> Self {
        Self {
            queries: indices
                .iter()
                .map(|&i| Query::build(rng, n, 2, i))
                .collect(),
        }
    }

    /// Number of fused queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when no queries are queued.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The prepared queries, in submission order.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }
}

/// Outcome of answering one batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Record `l` answers the `l`-th submitted index — bit-identical to
    /// `q` sequential single-query retrievals over the same masks.
    pub records: Vec<Vec<u8>>,
    /// True when the fused sweep was abandoned (fault injection) and
    /// the batch degraded to one two-lane sweep per query; records are
    /// still exact.
    pub degraded: bool,
    /// Aggregate cost of the whole batch.
    pub cost: CostReport,
}

/// Answers a prepared batch against both server replicas in one fused
/// sweep call: `2q` lanes, one per query and replica.
pub fn answer_batch(db: &Database, batch: &BatchQuery) -> BatchOutcome {
    let q = batch.len();
    if q == 0 {
        return BatchOutcome {
            records: Vec::new(),
            degraded: false,
            cost: CostReport::default(),
        };
    }
    obs::observe("pir.batch_size", q as u64);
    // Both replicas of every query: lanes 2l and 2l + 1 are query l's
    // two server answers, each exactly what that server computes alone.
    let lanes: Vec<&BitVec> = batch
        .queries()
        .iter()
        .flat_map(|qq| [qq.share(0), qq.share(1)])
        .collect();
    // `pir.batch_drop` models a server rejecting the whole fused sweep
    // (overload shedding, a mid-sweep fault). The degraded path
    // re-answers every query with its own two-lane sweep over the
    // *same* masks, so a dropped batch costs throughput — q passes
    // instead of one — never correctness.
    let degraded = faultkit::fire("pir.batch_drop");
    let answers = if degraded {
        obs::count("pir.batch.drops", 1);
        lanes
            .chunks_exact(2)
            .flat_map(|pair| db.xor_selected_batch(pair))
            .collect()
    } else {
        obs::count("pir.batch.sweeps", 1);
        db.xor_selected_batch(&lanes)
    };
    // Mask decode work is identical on both paths: q masks × 2 servers.
    obs::count("pir.words_scanned", batch_scan_words(q, db.len()));
    let records = answers
        .chunks_exact(2)
        .map(|pair| pair[0].iter().zip(&pair[1]).map(|(x, y)| x ^ y).collect())
        .collect();
    let cost = CostReport {
        uplink_bits: packed_mask_bits(2 * q, db.len()),
        downlink_bits: (2 * q * db.record_size() * 8) as u64,
        server_ops: batch
            .queries()
            .iter()
            .map(|qq| qq.share(0).count_ones() + qq.share(1).count_ones())
            .sum(),
        words_scanned: batch_scan_words(q, db.len()),
        servers: 2,
    };
    BatchOutcome {
        records,
        degraded,
        cost,
    }
}

/// Builds and answers a batch of two-server queries in one call.
/// ```
/// use rngkit::SeedableRng;
/// use tdf_pir::store::Database;
///
/// let db = Database::new((0..100u8).map(|i| vec![i, i ^ 0x3C]).collect());
/// let mut rng = rngkit::rngs::StdRng::seed_from_u64(7);
/// let out = tdf_pir::batch::retrieve_batch(&mut rng, &db, &[3, 97, 41]);
/// assert_eq!(out.records[1], db.record(97));
/// assert!(!out.degraded);
/// ```
pub fn retrieve_batch<R: Rng + ?Sized>(
    rng: &mut R,
    db: &Database,
    indices: &[usize],
) -> BatchOutcome {
    answer_batch(db, &BatchQuery::build(rng, db.len(), indices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rngkit::rngs::StdRng;
    use rngkit::SeedableRng;

    fn db(n: usize, rs: usize) -> Database {
        Database::from_fn(n, rs, |i, rec| {
            for (j, b) in rec.iter_mut().enumerate() {
                *b = (i * 37 + j * 11 + 5) as u8;
            }
        })
    }

    #[test]
    fn batch_retrieves_every_requested_record() {
        let db = db(257, 32);
        let mut rng = StdRng::seed_from_u64(3);
        let indices = [0usize, 1, 63, 64, 128, 256, 77, 77];
        let out = retrieve_batch(&mut rng, &db, &indices);
        assert!(!out.degraded);
        assert_eq!(out.records.len(), indices.len());
        for (l, &i) in indices.iter().enumerate() {
            assert_eq!(out.records[l], db.record(i), "lane {l} index {i}");
        }
        assert_eq!(out.cost.servers, 2);
        assert_eq!(out.cost.words_scanned, batch_scan_words(indices.len(), 257));
    }

    #[test]
    fn batch_of_one_is_bit_identical_to_single_query_path() {
        let db = db(300, 16);
        for index in [0usize, 150, 299] {
            let (single, batched) = {
                let mut r1 = StdRng::seed_from_u64(99);
                let mut r2 = StdRng::seed_from_u64(99);
                (
                    crate::linear::retrieve(&mut r1, &db, 2, index),
                    retrieve_batch(&mut r2, &db, &[index]),
                )
            };
            let (record, _, cost) = single;
            assert_eq!(batched.records, vec![record], "index {index}");
            assert_eq!(batched.cost, cost, "index {index}");
        }
    }

    #[test]
    fn empty_batch_costs_nothing() {
        let db = db(64, 8);
        let mut rng = StdRng::seed_from_u64(1);
        let out = retrieve_batch(&mut rng, &db, &[]);
        assert!(out.records.is_empty());
        assert_eq!(out.cost, CostReport::default());
    }

    #[test]
    fn batch_is_identical_across_thread_counts() {
        let db = db(70_000, 32);
        let indices: Vec<usize> = (0..6).map(|t| t * 11_117).collect();
        let run = |threads: usize| {
            par::with_threads(threads, || {
                let mut rng = StdRng::seed_from_u64(17);
                retrieve_batch(&mut rng, &db, &indices)
            })
        };
        assert_eq!(run(1), run(4));
    }
}
