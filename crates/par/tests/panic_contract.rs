//! The plain entry points' panic contract: a panic in a region body
//! reaches the caller of `par_map_range`, `par_map`, `par_index_reduce`,
//! `par_chunks_reduce` or `par_map_heavy` as an unwind — with the body's
//! own payload whenever the calling thread ran the panicking chunk, and
//! with the pool's "pooled worker panicked" message when a pool worker
//! did. The custom payload type (`panic_any(Boom(i))`) shows the original
//! payload survives rather than being stringified or replaced.

use par::{
    par_chunks_reduce, par_index_reduce, par_map, par_map_heavy, par_map_range, with_cores,
    with_threads,
};
use std::any::Any;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};

/// The custom panic payload every body below raises.
#[derive(Debug)]
struct Boom(usize);

type Payload = Box<dyn Any + Send>;

/// Panics with `Boom(i)` when `i == at`, otherwise returns `i`.
fn boom_at(i: usize, at: usize) -> usize {
    if i == at {
        panic_any(Boom(i));
    }
    i
}

/// Runs `f`, which must panic, and returns its payload.
fn payload_of<T>(f: impl FnOnce() -> T) -> Payload {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(_) => panic!("the region body panicked, so the entry point must unwind"),
        Err(payload) => payload,
    }
}

fn assert_boom(payload: &Payload, at: usize, what: &str) {
    match payload.downcast_ref::<Boom>() {
        Some(Boom(i)) => assert_eq!(*i, at, "{what}: wrong Boom"),
        None => panic!("{what}: the payload is not the body's Boom"),
    }
}

/// The pooled path: the payload is the body's `Boom` (the caller ran the
/// chunk) or the pool's message (a worker ran it and its payload stayed
/// on the worker thread).
fn assert_boom_or_pool_message(payload: &Payload, at: usize, what: &str) {
    if let Some(Boom(i)) = payload.downcast_ref::<Boom>() {
        assert_eq!(*i, at, "{what}: wrong Boom");
        return;
    }
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(
        message.contains("pooled worker panicked"),
        "{what}: got neither Boom nor the pool message: {message:?}"
    );
}

/// Every plain entry point over `0..n`, each panicking at index `at`.
fn each_entry_point(n: usize, at: usize, check: impl Fn(&Payload, &str)) {
    let items: Vec<usize> = (0..n).collect();
    check(
        &payload_of(|| par_map_range(n, |i| boom_at(i, at))),
        "par_map_range",
    );
    check(
        &payload_of(|| par_map(&items, |&i| boom_at(i, at))),
        "par_map",
    );
    check(
        &payload_of(|| {
            par_index_reduce(
                n,
                |r| r.map(|i| boom_at(i, at)).sum::<usize>(),
                |a, b| a + b,
            )
        }),
        "par_index_reduce",
    );
    check(
        &payload_of(|| {
            par_chunks_reduce(
                &items,
                |c| c.iter().map(|&i| boom_at(i, at)).sum::<usize>(),
                |a, b| a + b,
            )
        }),
        "par_chunks_reduce",
    );
}

#[test]
fn inline_regions_reraise_the_body_payload_below_the_threshold() {
    // n = 100 < SEQUENTIAL_THRESHOLD: inline on the caller even with a
    // pool available.
    with_cores(4, || {
        with_threads(4, || {
            each_entry_point(100, 37, |p, what| assert_boom(p, 37, what));
        })
    });
}

#[test]
fn inline_regions_reraise_the_body_payload_on_one_core() {
    // n = 5000 clears the threshold, but one measured core keeps the
    // region on the caller.
    with_cores(1, || {
        with_threads(4, || {
            each_entry_point(5000, 3001, |p, what| assert_boom(p, 3001, what));
        })
    });
}

#[test]
fn pooled_regions_reraise_boom_or_the_pool_message_and_the_pool_survives() {
    const N: usize = 5000;
    for at in [0, 777, N - 1] {
        pooled(|| {
            each_entry_point(N, at, |p, what| assert_boom_or_pool_message(p, at, what));
        });
        let items: Vec<usize> = (0..8).collect();
        let payload = payload_of(|| pooled(|| par_map_heavy(&items, |&i| boom_at(i, at % 8))));
        assert_boom_or_pool_message(&payload, at % 8, "par_map_heavy");

        // The pool serves the next region correctly.
        pooled(|| {
            let ok = par_map_range(N, |i| i * 2);
            assert!(ok.iter().enumerate().all(|(i, &v)| v == i * 2));
            let sum = par_index_reduce(N, |r| r.sum::<usize>(), |a, b| a + b);
            assert_eq!(sum, Some(N * (N - 1) / 2));
            assert_eq!(
                par_map_heavy(&items, |&i| i + 1),
                (1..=8).collect::<Vec<_>>()
            );
        });
    }
}

/// Four threads on four pinned cores, so the executor enlists workers
/// even on a single-core host.
fn pooled<T>(f: impl FnOnce() -> T) -> T {
    with_cores(4, || with_threads(4, f))
}
