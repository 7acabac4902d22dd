//! The 2^d-server "cube" scheme of Chor–Goldreich–Kushilevitz–Sudan \[8\].
//!
//! The database is a d-dimensional cube `[s]^d` with `s = ⌈n^(1/d)⌉`. The
//! client picks one random subset `S_j ⊆ [s]` per axis; the server indexed
//! by bits `σ ∈ {0,1}^d` receives, per axis `j`, either `S_j` (σ_j = 0) or
//! `S_j Δ {i_j}` (σ_j = 1), and answers with the XOR of all records in the
//! sub-box it was given. XORing the 2^d answers cancels every record except
//! the one at `(i_1, …, i_d)`.
//!
//! Uplink is one packed `d·s`-bit mask per server and the downlink a
//! single record — total communication `O(2^d · d · n^{1/d})`, the classic
//! trade of more servers for asymptotically less traffic. The 2^d server
//! answers are computed in parallel (one `par` task per server) and folded
//! in σ order, so results are bit-identical at any `TDF_THREADS`. `d = 1`
//! degenerates to the [`crate::linear`] two-server scheme.

use crate::bits::BitVec;
use crate::cost::{packed_mask_bits, CostReport};
use crate::store::{Database, ServerView};
use rngkit::Rng;

/// Side length for a `d`-dimensional layout of `n` records.
pub fn side(n: usize, d: u32) -> usize {
    (n as f64).powf(1.0 / d as f64).ceil() as usize
}

/// Decomposes `index` into cube coordinates (little-endian axes).
fn coords(index: usize, s: usize, d: u32) -> Vec<usize> {
    let mut c = Vec::with_capacity(d as usize);
    let mut rest = index;
    for _ in 0..d {
        c.push(rest % s);
        rest /= s;
    }
    c
}

/// Retrieves record `index` with the `2^d`-server cube scheme.
///
/// Returns the record, one view per server, and the cost. Panics when
/// `d = 0` or the index is out of range.
pub fn retrieve<R: Rng + ?Sized>(
    rng: &mut R,
    db: &Database,
    d: u32,
    index: usize,
) -> (Vec<u8>, Vec<ServerView>, CostReport) {
    assert!(d >= 1, "cube dimension must be at least 1");
    assert!(index < db.len(), "index out of range");
    let s = side(db.len(), d);
    let target = coords(index, s, d);

    // One random subset per axis, drawn before the parallel section so
    // the RNG stream is independent of scheduling.
    let base: Vec<BitVec> = (0..d).map(|_| BitVec::random(rng, s)).collect();

    let servers = 1usize << d;
    // Every server's answer is independent: compute them in parallel and
    // fold below in σ order.
    let per_server = par::par_map_range(servers, |sigma| {
        // This server's per-axis subsets.
        let subsets: Vec<BitVec> = (0..d as usize)
            .map(|j| {
                let mut sub = base[j].clone();
                if sigma >> j & 1 == 1 {
                    sub.flip(target[j]);
                }
                sub
            })
            .collect();
        // XOR of every record in the sub-box (positions beyond n are
        // implicit zero padding).
        let mut answer = vec![0u8; db.record_size()];
        let mut ops = 0u64;
        let mut scanned = 0u64;
        let mut stack = vec![(0usize, 0usize)]; // (axis, partial index)
        while let Some((axis, partial)) = stack.pop() {
            if axis == d as usize {
                if partial < db.len() {
                    for (a, b) in answer.iter_mut().zip(db.record(partial)) {
                        *a ^= b;
                    }
                    ops += 1;
                }
                continue;
            }
            let stride = s.pow(axis as u32);
            scanned += subsets[axis].words().len() as u64;
            for pos in subsets[axis].ones() {
                stack.push((axis + 1, partial + pos * stride));
            }
        }
        obs::count("pir.words_scanned", scanned);
        // The analytical model for this server's sweep count, from the
        // subset popcounts; `cost.rs` tests pin measured == predicted.
        let popcounts: Vec<u64> = subsets.iter().map(BitVec::count_ones).collect();
        let predicted = crate::cost::cube_scan_words(s, &popcounts);
        // The server's whole view is its d subsets, concatenated into one
        // packed mask.
        let mut view = BitVec::zeros(0);
        for sub in &subsets {
            view.extend_from(sub);
        }
        (answer, view, ops, predicted)
    });

    let mut acc = vec![0u8; db.record_size()];
    let mut views = Vec::with_capacity(servers);
    let mut server_ops = 0u64;
    let mut words_scanned = 0u64;
    for (answer, view, ops, predicted) in per_server {
        for (a, b) in acc.iter_mut().zip(&answer) {
            *a ^= b;
        }
        views.push(ServerView::Mask(view));
        server_ops += ops;
        words_scanned += predicted;
    }

    let cost = CostReport {
        uplink_bits: packed_mask_bits(servers, d as usize * s),
        downlink_bits: (servers * db.record_size() * 8) as u64,
        server_ops,
        words_scanned,
        servers: servers as u32,
    };
    (acc, views, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rngkit::SeedableRng;

    fn rng() -> rngkit::rngs::StdRng {
        rngkit::rngs::StdRng::seed_from_u64(0xC0BE)
    }

    fn db(n: usize) -> Database {
        Database::new(
            (0..n)
                .map(|i| vec![(i % 251) as u8, (i / 7) as u8])
                .collect(),
        )
    }

    #[test]
    fn d1_matches_the_linear_scheme_semantics() {
        let db = db(20);
        let mut r = rng();
        for i in 0..db.len() {
            let (rec, views, cost) = retrieve(&mut r, &db, 1, i);
            assert_eq!(rec, db.record(i), "index {i}");
            assert_eq!(views.len(), 2);
            assert_eq!(cost.servers, 2);
        }
    }

    #[test]
    fn d2_and_d3_retrieve_every_index() {
        for d in [2u32, 3] {
            // Include non-perfect-power sizes to exercise padding.
            for n in [27usize, 30, 64, 100] {
                let db = db(n);
                let mut r = rng();
                for i in (0..n).step_by(7) {
                    let (rec, _, _) = retrieve(&mut r, &db, d, i);
                    assert_eq!(rec, db.record(i), "d={d} n={n} i={i}");
                }
            }
        }
    }

    #[test]
    fn uplink_shrinks_with_dimension() {
        // Large enough n that word-packing granularity (64-bit floors)
        // does not mask the asymptotic separation.
        let db = db(65_536);
        let mut r = rng();
        let (_, _, c1) = retrieve(&mut r, &db, 1, 9);
        let (_, _, c2) = retrieve(&mut r, &db, 2, 9);
        let (_, _, c3) = retrieve(&mut r, &db, 3, 9);
        // Per-server packed uplink: 1024, 8, and 2 words.
        assert!(c2.uplink_bits < c1.uplink_bits);
        assert!(c3.uplink_bits < c2.uplink_bits);
        assert_eq!(c3.servers, 8);
    }

    #[test]
    fn retrieval_is_identical_across_thread_counts() {
        let db = db(100);
        let run = |threads: usize| {
            par::with_threads(threads, || {
                let mut r = rng();
                retrieve(&mut r, &db, 2, 57)
            })
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn single_server_view_is_uniform() {
        let n = 16; // s = 4 at d = 2
        let db = db(n);
        let mut r = rng();
        let trials = 3000;
        let mut ones = vec![0usize; 8];
        for t in 0..trials {
            let (_, views, _) = retrieve(&mut r, &db, 2, t % n);
            if let ServerView::Mask(m) = &views[0] {
                for p in m.ones() {
                    ones[p] += 1;
                }
            }
        }
        for &c in &ones {
            let f = c as f64 / trials as f64;
            assert!((f - 0.5).abs() < 0.05, "{f}");
        }
    }

    #[test]
    fn coords_round_trip() {
        let s = 5;
        for idx in [0usize, 4, 5, 24, 124] {
            let c = coords(idx, s, 3);
            let back = c[0] + c[1] * s + c[2] * s * s;
            assert_eq!(back, idx);
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_dimension_panics() {
        let mut r = rng();
        let _ = retrieve(&mut r, &db(4), 0, 0);
    }
}
