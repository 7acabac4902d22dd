//! In-tree deterministic fork/join (the workspace's `rayon` slice).
//!
//! The workspace is hermetic — no registry dependencies — so data
//! parallelism for the hot kernels (MDAV distance scans, Mondrian split
//! evaluation, record-linkage scans, multi-server PIR answers) is built
//! here on `std::thread`, with one contract the external crates do not
//! offer out of the box:
//!
//! > **Results are bit-identical regardless of thread count.**
//!
//! Three rules enforce it:
//!
//! 1. **Fixed chunk boundaries.** Work is split into at most 64 chunks
//!    whose boundaries depend only on the input length — never on how
//!    many threads happen to run, and never on which thread grabs which
//!    chunk.
//! 2. **Order-preserving merge.** Chunk results are combined on the
//!    calling thread in chunk order (a left fold), so floating-point
//!    reductions associate identically every run.
//! 3. **Serial path = chunked path.** With one thread the same chunks are
//!    produced and folded in the same order, so `TDF_THREADS=1` is merely
//!    the no-pool execution of the identical computation.
//!
//! The *requested* thread count comes from, in priority order:
//! [`with_threads`] (a scoped, thread-local override used by benches and
//! tests), the `TDF_THREADS` environment variable, and
//! [`std::thread::available_parallelism`]. At dispatch time the request
//! is clamped by [`measured_cores`] (override: [`with_cores`] /
//! `TDF_CORES`): the persistent sharded executor never enlists more
//! runnable threads than the host has cores, so `TDF_THREADS=4` on a
//! single-core host runs sequentially instead of oversubscribing — with
//! bit-identical results, because chunking and merge order never depend
//! on the enlisted count. This extends PR 1's determinism contract
//! (`TDF_SEED`): `crates/bench/tests/determinism.rs` asserts that
//! reports regenerate bit-identically under `TDF_THREADS=1` and
//! `TDF_THREADS=4`.
//!
//! Regions run on one fallible core. The plain entry points re-raise a
//! panic in the region body on the caller — with its original payload
//! when the caller ran the panicking chunk; [`try_par_map_range`]
//! returns it as a [`ParError`].
//!
//! ```
//! let squares = par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! let sum = par::par_index_reduce(1000, |r| r.map(|i| i as f64).sum::<f64>(), |a, b| a + b);
//! let serial = par::with_threads(1, || {
//!     par::par_index_reduce(1000, |r| r.map(|i| i as f64).sum::<f64>(), |a, b| a + b)
//! });
//! assert_eq!(sum, serial); // bit-identical, not just approximately equal
//! ```

mod executor;

use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use executor::RegionError;

/// Why a [`try_par_map_range`] region failed. Covers both the caller's
/// own invocation of the body and pooled workers (which may die entirely —
/// see `executor.rs`; the executor respawns them, and the region that
/// lost a worker reports `WorkerPanicked` instead of aborting the
/// process).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParError {
    /// The region body panicked on the calling thread. `message` is the
    /// panic payload when it was string-typed.
    RegionPanicked {
        /// The stringified panic payload.
        message: String,
    },
    /// A pooled worker panicked (or died) while executing the region.
    /// The payload is consumed on the worker thread, so no message.
    WorkerPanicked,
}

impl std::fmt::Display for ParError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParError::RegionPanicked { message } => {
                write!(f, "parallel region panicked: {message}")
            }
            ParError::WorkerPanicked => {
                write!(
                    f,
                    "a pooled worker panicked while executing a parallel region"
                )
            }
        }
    }
}

impl std::error::Error for ParError {}

impl ParError {
    fn from_region(e: RegionError) -> Self {
        match e {
            RegionError::Caller(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_owned());
                ParError::RegionPanicked { message }
            }
            RegionError::Worker => ParError::WorkerPanicked,
        }
    }
}

/// The plain (panicking) entry points' view of a region result: re-raise
/// the caller's own panic with its original payload, turn a worker loss
/// into the historical pool panic message.
fn propagate<T>(result: Result<T, RegionError>) -> T {
    match result {
        Ok(value) => value,
        Err(RegionError::Caller(payload)) => std::panic::resume_unwind(payload),
        Err(RegionError::Worker) => {
            panic!("tdf-par: a pooled worker panicked while executing a parallel region")
        }
    }
}

/// Hard ceiling on the usable thread count (a safety valve for absurd
/// `TDF_THREADS` values, not a tuning knob).
pub const MAX_THREADS: usize = 64;

/// Inputs shorter than this run inline on the calling thread even when a
/// pool is available: dispatching a handful of elements costs more than
/// scanning them (the Mondrian small-region regression in EXPERIMENTS.md
/// §P1 — deep recursion levels scan regions of a few dozen records each).
/// Because chunk boundaries and fold order are unchanged, the inline path
/// produces bit-identical results; only the scheduling differs.
pub const SEQUENTIAL_THRESHOLD: usize = 1024;

thread_local! {
    static OVERRIDE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    static CORES_OVERRIDE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn env_threads() -> Option<usize> {
    static PARSED: OnceLock<Option<usize>> = OnceLock::new();
    *PARSED.get_or_init(|| {
        std::env::var("TDF_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
    })
}

/// The effective thread count for parallel regions started by this
/// thread: the [`with_threads`] override if one is active, else
/// `TDF_THREADS`, else the machine's available parallelism. Always ≥ 1;
/// `1` means the serial fast path. Inside a pool worker this is `1`
/// (nested regions run serially — see `executor.rs` for why).
pub fn threads() -> usize {
    if executor::in_pool() {
        return 1;
    }
    let o = OVERRIDE.with(std::cell::Cell::get);
    if o != 0 {
        return o;
    }
    env_threads()
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
        .min(MAX_THREADS)
}

/// The measured core count the executor sizes itself by: the
/// [`with_cores`] override if one is active, else `TDF_CORES`, else
/// [`std::thread::available_parallelism`]. A `TDF_THREADS` (or
/// [`with_threads`]) request above this is clamped at dispatch time —
/// enlisting more runnable threads than the host has cores is precisely
/// the oversubscription that made the original fork/join pool scale
/// *negatively* (EXPERIMENTS.md §P1/§P5). Chunk boundaries and merge
/// order do not depend on this value, so clamping never changes results.
pub fn measured_cores() -> usize {
    let o = CORES_OVERRIDE.with(std::cell::Cell::get);
    if o != 0 {
        return o;
    }
    static PARSED: OnceLock<Option<usize>> = OnceLock::new();
    PARSED
        .get_or_init(|| {
            std::env::var("TDF_CORES")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
        })
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
        .min(MAX_THREADS)
}

/// Runs `f` with the measured core count pinned to `n` (clamped to
/// `1..=`[`MAX_THREADS`]) for the current thread, restoring the previous
/// value afterwards — including on panic. Tests and deterministic
/// snapshot tools use this to exercise the pooled path on single-core
/// hosts (or to force the sequential path on large ones) without
/// touching the process environment.
pub fn with_cores<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            CORES_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = CORES_OVERRIDE.with(|c| c.replace(n.clamp(1, MAX_THREADS)));
    let _restore = Restore(prev);
    f()
}

/// Threads the executor will actually enlist for a region started by this
/// thread: the requested count clamped by the measured core count.
/// Kernels that pick between serial-shaped and parallel-shaped code
/// (bit-identical by contract) should branch on this, not on
/// [`threads`] — the request says what was asked for, this says what
/// the hardware will actually run.
pub fn effective_threads() -> usize {
    threads().min(measured_cores())
}

/// Runs `f` with the effective thread count pinned to `n` (clamped to
/// `1..=`[`MAX_THREADS`]) for the current thread, restoring the previous
/// value afterwards — including on panic. This is how benches sweep
/// 1/2/4 threads inside one process and how property tests compare
/// thread counts without touching the process environment.
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|c| c.replace(n.clamp(1, MAX_THREADS)));
    let _restore = Restore(prev);
    f()
}

/// Chunk size for an input of `len` items: at most 64 chunks. A pure
/// function of the length — this is what makes reductions
/// thread-count-invariant.
fn chunk_size(len: usize) -> usize {
    len.div_ceil(64).max(1)
}

/// Participants requested for an element scan over `n` items: the
/// effective thread count, or 1 (inline, counted as a sequential
/// fallback) when `n` is below [`SEQUENTIAL_THRESHOLD`].
fn scan_threads(n: usize) -> usize {
    if n < SEQUENTIAL_THRESHOLD {
        if n > 0 {
            obs::count("par.sequential_fallback", 1);
        }
        return 1;
    }
    effective_threads()
}

/// The region core under every map and every pooled reduce: runs
/// `process` over `0..n`, split into `size`-wide chunk ranges sharded
/// across the executor, or inline as one `0..n` call when fewer than two
/// of the `threads` participants would have a chunk to run. `process`
/// only ever fills independent per-index slots, so the split never
/// affects the result. A panic on the calling thread comes back as
/// [`RegionError::Caller`] on both paths.
fn run_chunked(
    n: usize,
    size: usize,
    threads: usize,
    process: impl Fn(Range<usize>) + Sync,
) -> Result<(), RegionError> {
    let num_chunks = n.div_ceil(size);
    let threads = threads.min(num_chunks);
    if threads <= 1 {
        return catch_unwind(AssertUnwindSafe(|| process(0..n))).map_err(RegionError::Caller);
    }
    obs::count("par.tasks_dispatched", num_chunks as u64);
    executor::run_region(num_chunks, threads - 1, &|c| {
        process(c * size..((c + 1) * size).min(n))
    })
}

/// Pointer wrapper so disjoint chunk writes can target one output buffer
/// from several threads. Soundness: each chunk writes only its own index
/// range, and `run_chunked` completes every chunk before returning.
struct SendPtr<T>(*mut T);
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Takes `self` by value so closures capture the whole (Sync) wrapper
    /// instead of disjoint-capturing the bare raw-pointer field.
    fn get(self) -> *mut T {
        self.0
    }
}

/// The one slot-filling map: slot `i` of the result is `f(i)`, written
/// exactly once by whichever participant runs its chunk (see
/// [`run_chunked`]), so the value never depends on the thread count.
fn map_chunked<U: Send>(
    n: usize,
    size: usize,
    threads: usize,
    f: impl Fn(usize) -> U + Sync,
) -> Result<Vec<U>, RegionError> {
    let mut out: Vec<MaybeUninit<U>> = Vec::with_capacity(n);
    // SAFETY: MaybeUninit contents need no initialization.
    unsafe { out.set_len(n) };
    let base = SendPtr(out.as_mut_ptr());
    // On failure the set of initialized slots is unknowable, so `?` drops
    // the buffer element-drop-free — leaking their allocations at worst.
    run_chunked(n, size, threads, |range| {
        // SAFETY: the range is in-bounds and disjoint from every other
        // chunk's, so this is the only live reference to its slots.
        let slots =
            unsafe { std::slice::from_raw_parts_mut(base.get().add(range.start), range.len()) };
        for (slot, i) in slots.iter_mut().zip(range) {
            slot.write(f(i));
        }
    })?;
    // SAFETY: run_chunked returned Ok, so every chunk ran: every slot of
    // 0..n is initialized.
    let mut out = ManuallyDrop::new(out);
    Ok(unsafe { Vec::from_raw_parts(out.as_mut_ptr().cast::<U>(), n, out.capacity()) })
}

/// Parallel `(0..n).map(f).collect()`, order-preserving: slot `i` of the
/// result is `f(i)`. Deterministic for any thread count by construction
/// (each slot is written exactly once, independently).
pub fn par_map_range<U: Send>(n: usize, f: impl Fn(usize) -> U + Sync) -> Vec<U> {
    propagate(map_chunked(n, chunk_size(n), scan_threads(n), f))
}

/// [`par_map_range`] with region panics converted into a typed
/// [`ParError`] at this boundary instead of unwinding: the caller's own
/// panic payload is stringified, a lost pool worker (e.g. the injected
/// `par.worker_panic` fault) becomes [`ParError::WorkerPanicked`], and
/// the pool stays usable for subsequent regions either way. The `Ok`
/// value is bit-identical to [`par_map_range`] when nothing fails.
pub fn try_par_map_range<U: Send>(
    n: usize,
    f: impl Fn(usize) -> U + Sync,
) -> Result<Vec<U>, ParError> {
    map_chunked(n, chunk_size(n), scan_threads(n), f).map_err(ParError::from_region)
}

/// Parallel `items.iter().map(f).collect()`, order-preserving.
///
/// ```
/// let doubled = par::par_map(&[1, 2, 3], |&x| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6]);
/// ```
pub fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    par_map_range(items.len(), |i| f(&items[i]))
}

/// Parallel map for a *short list of heavy tasks*: one executor chunk per
/// item, no sequential-threshold fallback. [`par_map`] is sized for long
/// element scans — inputs under [`SEQUENTIAL_THRESHOLD`] run inline
/// because dispatch costs more than the scan. That policy is exactly
/// wrong when each item is itself an expensive kernel invocation (masking
/// one sealed segment, answering one PIR batch): a dirty-segment list of
/// a dozen entries would never reach the pool. Here every item is its own
/// chunk, so `n` heavy tasks fan out across `min(n, effective_threads())`
/// participants.
///
/// Order-preserving and bit-identical at any thread count by
/// construction: slot `i` of the result is `f(&items[i])`, written
/// exactly once, and which participant computes it never affects the
/// value. Runs inline when the list has one item, the host has one
/// usable core, or the caller is itself a pool worker (nested regions
/// are serial — see `executor.rs`).
pub fn par_map_heavy<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    propagate(map_chunked(items.len(), 1, effective_threads(), |i| {
        f(&items[i])
    }))
}

/// Order-preserving indexed reduce: maps the fixed chunks of `0..n` (at
/// most 64, boundaries a function of `n` alone) and folds the chunk
/// results **in chunk order** on the calling thread. `None` iff `n == 0`.
///
/// Because the chunk boundaries are a pure function of `n` and the fold
/// order is fixed, the result is bit-identical for every thread count —
/// even for non-associative merges such as floating-point `+`.
pub fn par_index_reduce<A: Send>(
    n: usize,
    map: impl Fn(Range<usize>) -> A + Sync,
    merge: impl FnMut(A, A) -> A,
) -> Option<A> {
    let size = chunk_size(n);
    let num_chunks = n.div_ceil(size);
    let chunk = |c: usize| map(c * size..((c + 1) * size).min(n));
    let threads = scan_threads(n);
    if threads <= 1 {
        // The same chunks folded in one pass, skipping the slot vector,
        // which costs a third more on the few-dozen-item regions Mondrian
        // recurses into. A panic here reaches the caller as it is.
        return (0..num_chunks).map(chunk).reduce(merge);
    }
    // One slot per chunk: the chunk results are a slot map over chunk ids.
    propagate(map_chunked(num_chunks, 1, threads, chunk))
        .into_iter()
        .reduce(merge)
}

/// Chunked slice reduce: `map` sees `&items[chunk_range]`, results fold
/// in chunk order, with the boundaries of [`par_index_reduce`]. `None`
/// iff `items` is empty.
///
/// ```
/// let total = par::par_chunks_reduce(&[1.5f64, 2.5, 3.0], |c| c.iter().sum::<f64>(), |a, b| a + b);
/// assert_eq!(total, Some(7.0));
/// ```
pub fn par_chunks_reduce<T: Sync, A: Send>(
    items: &[T],
    map: impl Fn(&[T]) -> A + Sync,
    merge: impl FnMut(A, A) -> A,
) -> Option<A> {
    par_index_reduce(items.len(), |r| map(&items[r]), merge)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        for t in [1usize, 2, 4, 7] {
            // Pin the measured core count so the pool engages even on a
            // single-core CI host — the clamp is under test elsewhere.
            let out = with_cores(8, || with_threads(t, || par_map(&items, |&x| x * 3 + 1)));
            assert_eq!(out.len(), items.len());
            assert!(
                out.iter().enumerate().all(|(i, &v)| v == i as u64 * 3 + 1),
                "t = {t}"
            );
        }
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[9u32], |&x| x + 1), vec![10]);
    }

    #[test]
    fn float_reduce_is_bit_identical_across_thread_counts() {
        // A sum designed to be associativity-sensitive: wildly mixed
        // magnitudes, so any re-association changes low-order bits.
        let xs: Vec<f64> = (0..5000)
            .map(|i| ((i * 2654435761u64 % 1000) as f64).powf(3.1) / ((i + 1) as f64))
            .collect();
        let reduce = || par_chunks_reduce(&xs, |c| c.iter().sum::<f64>(), |a, b| a + b).unwrap();
        let reference = with_threads(1, reduce);
        for t in [2usize, 3, 4, 7] {
            let got = with_cores(8, || with_threads(t, reduce));
            assert_eq!(got.to_bits(), reference.to_bits(), "t = {t}");
        }
    }

    #[test]
    fn chunk_boundaries_depend_on_length_alone() {
        // 6400 items → exactly 64 chunks of 100, folded in order, whether
        // the region runs inline or on the pool.
        for t in [1usize, 4] {
            let chunks = with_cores(4, || {
                with_threads(t, || {
                    par_index_reduce(
                        6400,
                        |r| vec![(r.start, r.end)],
                        |mut a, b| {
                            a.extend(b);
                            a
                        },
                    )
                })
            })
            .unwrap();
            assert_eq!(chunks.len(), 64, "t = {t}");
            assert_eq!(chunks[0], (0, 100), "t = {t}");
            assert_eq!(chunks[63], (6300, 6400), "t = {t}");
            assert!(chunks.windows(2).all(|w| w[0].1 == w[1].0), "t = {t}");
        }
    }

    #[test]
    fn index_reduce_empty_is_none() {
        assert_eq!(par_index_reduce(0, |_| 1u32, |a, b| a + b), None);
        let empty: Vec<u8> = Vec::new();
        assert_eq!(par_chunks_reduce(&empty, |_| 1u32, |a, b| a + b), None);
    }

    #[test]
    fn small_inputs_run_inline_on_the_calling_thread() {
        let caller = std::thread::current().id();
        // 100 < SEQUENTIAL_THRESHOLD: no pool dispatch even at t = 4
        // with cores available.
        let ids = with_cores(4, || {
            with_threads(4, || par_map_range(100, |_| std::thread::current().id()))
        });
        assert!(ids.iter().all(|&id| id == caller));
        // Same computation above and below the threshold.
        let big: Vec<u64> = (0..2 * SEQUENTIAL_THRESHOLD as u64).collect();
        let small_sum: u64 = big[..100].iter().sum();
        assert_eq!(
            with_threads(4, || par_chunks_reduce(
                &big[..100],
                |c| c.iter().sum::<u64>(),
                |a, b| a + b
            )),
            Some(small_sum)
        );
    }

    #[test]
    fn measured_cores_clamp_keeps_oversubscribed_requests_inline() {
        // On a "1-core host" (pinned via with_cores) a t=4 request must
        // not enlist pool workers: everything runs on the caller.
        let caller = std::thread::current().id();
        let ids = with_cores(1, || {
            with_threads(4, || par_map_range(10_000, |_| std::thread::current().id()))
        });
        assert!(ids.iter().all(|&id| id == caller));
        // And the clamped run is bit-identical to the pooled one.
        let xs: Vec<f64> = (0..5000).map(|i| (i as f64).sqrt() / 3.0).collect();
        let reduce = || par_chunks_reduce(&xs, |c| c.iter().sum::<f64>(), |a, b| a + b).unwrap();
        let clamped = with_cores(1, || with_threads(4, reduce));
        let pooled = with_cores(4, || with_threads(4, reduce));
        assert_eq!(clamped.to_bits(), pooled.to_bits());
    }

    #[test]
    fn with_cores_restores_previous_value() {
        let ambient = measured_cores();
        let inner = with_cores(2, measured_cores);
        assert_eq!(inner, 2);
        assert_eq!(measured_cores(), ambient);
        // Clamped below and above.
        assert_eq!(with_cores(0, measured_cores), 1);
        assert_eq!(with_cores(10_000, measured_cores), MAX_THREADS);
    }

    #[test]
    fn with_threads_restores_previous_value() {
        let ambient = threads();
        let inner = with_threads(3, threads);
        assert_eq!(inner, 3);
        assert_eq!(threads(), ambient);
        // Clamped below and above.
        assert_eq!(with_threads(0, threads), 1);
        assert_eq!(with_threads(10_000, threads), MAX_THREADS);
    }

    #[test]
    fn nested_regions_run_serially_and_correctly() {
        let out = with_cores(4, || {
            with_threads(4, || {
                par_map_range(8, |i| {
                    // Nested call from (potentially) a pool worker: must not
                    // deadlock and must produce the same values.
                    par_index_reduce(
                        100,
                        |r| r.map(|j| (i * j) as u64).sum::<u64>(),
                        |a, b| a + b,
                    )
                    .unwrap()
                })
            })
        });
        let expect: Vec<u64> = (0..8)
            .map(|i| (0..100).map(|j| (i * j) as u64).sum())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            with_cores(4, || {
                with_threads(4, || {
                    par_map_range(5000, |i| {
                        assert!(i != 777, "boom at {i}");
                        i
                    })
                })
            })
        });
        assert!(result.is_err());
        // The pool must stay usable afterwards.
        let ok = with_cores(4, || with_threads(4, || par_map_range(5000, |i| i * 2)));
        assert_eq!(ok[50], 100);
    }

    #[test]
    fn try_variants_match_plain_variants_when_nothing_fails() {
        let items: Vec<u64> = (0..5000).collect();
        for t in [1usize, 4] {
            with_cores(4, || {
                with_threads(t, || {
                    assert_eq!(
                        try_par_map_range(items.len(), |i| items[i] * 7).unwrap(),
                        par_map(&items, |&x| x * 7),
                        "t = {t}"
                    );
                })
            });
        }
        assert_eq!(try_par_map_range(0, |i| i).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn try_par_map_converts_panics_into_typed_errors() {
        // Sequential path: the payload string is preserved.
        let err = try_par_map_range(100, |i| {
            assert!(i != 7, "boom at {i}");
            i
        })
        .unwrap_err();
        assert!(
            matches!(&err, ParError::RegionPanicked { message } if message.contains("boom at 7")),
            "got {err:?}"
        );
        // Pooled path: the panic lands on whichever thread stole the
        // chunk, so either variant is acceptable — but it must be an
        // error, not an abort, and the pool must keep working.
        let err = with_cores(4, || {
            with_threads(4, || {
                try_par_map_range(5000, |i| {
                    assert!(i != 777, "boom at {i}");
                    i
                })
            })
        })
        .unwrap_err();
        assert!(!err.to_string().is_empty());
        let ok = with_cores(4, || with_threads(4, || par_map_range(5000, |i| i * 2)));
        assert_eq!(ok[100], 200);
    }

    #[test]
    fn par_map_heavy_dispatches_short_lists_and_preserves_order() {
        // 12 items is far below SEQUENTIAL_THRESHOLD — par_map would run
        // inline, but the heavy variant must still fan out. Correctness
        // and order are asserted at several thread counts; bit-identity
        // across counts follows from slot construction.
        let items: Vec<u64> = (0..12).collect();
        let reference: Vec<u64> = items.iter().map(|&x| x * x + 7).collect();
        for t in [1usize, 2, 4, 7] {
            let out = with_cores(8, || {
                with_threads(t, || par_map_heavy(&items, |&x| x * x + 7))
            });
            assert_eq!(out, reference, "t = {t}");
        }
        // Degenerate shapes.
        let empty: Vec<u64> = Vec::new();
        assert!(par_map_heavy(&empty, |&x| x).is_empty());
        assert_eq!(par_map_heavy(&[5u64], |&x| x + 1), vec![6]);
    }

    #[test]
    fn par_map_heavy_engages_pool_workers_below_the_threshold() {
        use std::sync::Barrier;
        // Two tasks rendezvous at a barrier: this can only complete when
        // at least two participants run concurrently, proving the list
        // was not serialized despite being far below the threshold.
        let barrier = Barrier::new(2);
        let out = with_cores(4, || {
            with_threads(4, || {
                par_map_heavy(&[0usize, 1, 2, 3, 4, 5, 6, 7], |&i| {
                    if i < 2 {
                        barrier.wait();
                    }
                    std::thread::current().id()
                })
            })
        });
        let first = out[0];
        assert!(
            out.iter().any(|&id| id != first),
            "expected at least two participants"
        );
    }

    #[test]
    fn par_map_heavy_panic_propagates_and_pool_survives() {
        let result = std::panic::catch_unwind(|| {
            with_cores(4, || {
                with_threads(4, || {
                    par_map_heavy(&[0usize, 1, 2, 3, 4, 5, 6, 7], |&i| {
                        assert!(i != 5, "heavy boom at {i}");
                        i
                    })
                })
            })
        });
        assert!(result.is_err());
        let ok = with_cores(4, || {
            with_threads(4, || par_map_heavy(&[1usize, 2, 3, 4], |&i| i * 2))
        });
        assert_eq!(ok, vec![2, 4, 6, 8]);
    }

    #[test]
    fn many_concurrent_regions_from_plain_threads() {
        // Several user threads dispatching to the shared pool at once.
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    // with_cores is thread-local: pin it inside each
                    // spawned thread so every dispatcher hits the pool.
                    with_cores(4, || {
                        with_threads(3, || {
                            par_map_range(2000, move |i| (i as u64).wrapping_mul(t + 1))
                                .iter()
                                .sum::<u64>()
                        })
                    })
                })
            })
            .collect();
        for (t, h) in handles.into_iter().enumerate() {
            let got = h.join().expect("no panic");
            let want: u64 = (0..2000u64).map(|i| i.wrapping_mul(t as u64 + 1)).sum();
            assert_eq!(got, want);
        }
    }
}
