//! Property tests: every `par` entry point must agree with its serial
//! counterpart — bit for bit — at each of the thread counts DESIGN §6
//! cites (`TDF_THREADS ∈ {1, 2, 7}`), on arbitrary inputs. Sizes
//! straddle `SEQUENTIAL_THRESHOLD` and every property pins 8 measured
//! cores, so the 2- and 7-thread runs above the threshold reach the pool
//! even on a single-core host.

use check::prelude::*;

const THREADS: [usize; 3] = [1, 2, 7];

/// Runs `f` at `t` requested threads on 8 pinned cores.
fn at_threads<T>(t: usize, f: impl FnOnce() -> T) -> T {
    par::with_cores(8, || par::with_threads(t, f))
}

props! {
    #[test]
    fn par_map_matches_serial(xs in vec(any::<u64>(), 0..3000)) {
        let want: Vec<u64> = xs.iter().map(|&x| x.wrapping_mul(31).rotate_left(7)).collect();
        for t in THREADS {
            let got = at_threads(t, || {
                par::par_map(&xs, |&x| x.wrapping_mul(31).rotate_left(7))
            });
            prop_assert_eq!(&got, &want);
        }
    }

    #[test]
    fn par_map_range_matches_serial(n in 0usize..3000, salt in any::<u64>()) {
        let want: Vec<u64> = (0..n).map(|i| (i as u64) ^ salt).collect();
        for t in THREADS {
            let got = at_threads(t, || par::par_map_range(n, |i| (i as u64) ^ salt));
            prop_assert_eq!(&got, &want);
        }
    }

    #[test]
    fn par_chunks_reduce_float_sum_is_bit_identical(xs in vec(any::<u32>(), 0..3000)) {
        // Floating-point addition is not associative, so bit-identical
        // sums across thread counts prove the fold order is fixed.
        let fs: Vec<f64> = xs.iter().map(|&x| f64::from(x) * 1e-3 + 0.1).collect();
        let reduce = || par::par_chunks_reduce(&fs, |c| c.iter().sum::<f64>(), |a, b| a + b);
        let baseline = par::with_threads(1, reduce);
        for t in THREADS {
            let got = at_threads(t, reduce);
            prop_assert_eq!(got.map(f64::to_bits), baseline.map(f64::to_bits));
        }
    }

    #[test]
    fn par_index_reduce_concat_preserves_order(n in 0usize..3000) {
        // Concatenation is order-sensitive: equality with the serial
        // result shows chunks merge in index order.
        let want: Vec<usize> = (0..n).collect();
        for t in THREADS {
            let got = at_threads(t, || {
                par::par_index_reduce(
                    n,
                    |range| range.collect::<Vec<usize>>(),
                    |mut a, b| {
                        a.extend(b);
                        a
                    },
                )
            });
            prop_assert_eq!(got.clone().unwrap_or_default(), want.clone());
            prop_assert_eq!(got.is_none(), n == 0);
        }
    }
}
